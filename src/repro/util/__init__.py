"""Shared utilities: memory images and files, line counting, source
reading, and the fork pool in :mod:`repro.util.pool`."""

from .files import (MemoryImage, MemoryMismatch, compare_images,
                    load_memory_file, save_memory_file)
from .loc import (count_code_lines, count_lines, count_source_lines,
                  function_source)

__all__ = [
    "MemoryImage",
    "MemoryMismatch",
    "compare_images",
    "load_memory_file",
    "save_memory_file",
    "count_lines",
    "count_code_lines",
    "count_source_lines",
    "function_source",
]
