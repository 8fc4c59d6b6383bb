"""Shared utilities: bit-accurate values, memory files, line counting,
source reading."""

from .bitvector import BitVector, bv
from .files import (MemoryImage, MemoryMismatch, compare_images,
                    load_memory_file, save_memory_file)
from .loc import (count_code_lines, count_lines, count_source_lines,
                  function_source)

__all__ = [
    "BitVector",
    "bv",
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
