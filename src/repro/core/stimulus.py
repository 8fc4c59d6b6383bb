"""Deterministic stimulus generation and stimulus-file handling.

"Memory contents and I/O data are stored in files" (paper §2): the same
files feed the golden software execution and the hardware simulation.
Everything here is seeded — no run-to-run variation.
"""

from __future__ import annotations

import random
from pathlib import Path
from typing import Dict, Iterable, List, Mapping, Optional, Union

from ..util.files import MemoryImage, save_memory_file

__all__ = ["random_words", "synthetic_image", "ramp_image",
           "write_stimulus_files", "load_stimulus_files"]


def _randints(rng: random.Random, low: int, high: int,
              count: int) -> List[int]:
    """*count* draws of ``rng.randint(low, high)``, value for value.

    ``randint`` takes the draw from ``getrandbits`` (``k`` bits, ``k``
    the range size's bit length, redrawn while out of range); doing the
    same inline skips its argument checks on every call, which made it
    the suite's stimulus cost.
    """
    size = high - low + 1
    if size <= 0 and count:
        raise ValueError(f"empty range [{low}, {high}]")
    getrandbits = rng.getrandbits
    bits = size.bit_length()
    words: List[int] = []
    append = words.append
    for _ in range(count):
        draw = getrandbits(bits)
        while draw >= size:
            draw = getrandbits(bits)
        append(low + draw)
    return words


def random_words(depth: int, width: int, *, seed: int,
                 low: int = 0, high: Optional[int] = None,
                 name: str = "mem") -> MemoryImage:
    """A memory of uniform random words in ``[low, high]`` (inclusive)."""
    if high is None:
        high = (1 << width) - 1
    words = _randints(random.Random(seed), low, high, depth)
    return MemoryImage(width, depth, words=words, name=name)


def synthetic_image(pixels: int, *, seed: int, width: int = 16,
                    max_value: int = 255,
                    name: str = "image") -> MemoryImage:
    """A deterministic grayscale test image of *pixels* samples.

    A smooth gradient plus seeded noise: more realistic spectral content
    for DCT-style workloads than pure noise, still fully reproducible.
    """
    noise = _randints(random.Random(seed), -24, 24, pixels)
    steps = max(pixels - 1, 1)
    base = max_value // 4
    words: List[int] = []
    append = words.append
    for index, offset in enumerate(noise):
        gradient = (index * max_value) // steps
        value = gradient // 2 + offset + base
        append(0 if value < 0 else max_value if value > max_value
               else value)
    return MemoryImage(width, pixels, words=words, name=name)


def ramp_image(pixels: int, *, width: int = 16, step: int = 1,
               name: str = "ramp") -> MemoryImage:
    """A simple wrapping ramp — handy for debugging address paths."""
    mask = (1 << width) - 1
    return MemoryImage(width, pixels,
                       words=[(index * step) & mask
                              for index in range(pixels)],
                       name=name)


def write_stimulus_files(directory: Union[str, Path],
                         images: Mapping[str, MemoryImage],
                         *, sparse: bool = False) -> Dict[str, Path]:
    """Write one ``<name>.mem`` per image; returns the path map."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    paths: Dict[str, Path] = {}
    for name, image in images.items():
        path = directory / f"{name}.mem"
        save_memory_file(image, path, sparse=sparse)
        paths[name] = path
    return paths


def load_stimulus_files(directory: Union[str, Path],
                        names: Iterable[str]) -> Dict[str, MemoryImage]:
    """Load ``<name>.mem`` for each requested name."""
    directory = Path(directory)
    return {name: MemoryImage.load(directory / f"{name}.mem", name=name)
            for name in names}
