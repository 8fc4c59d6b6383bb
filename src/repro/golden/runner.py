"""Golden execution: run the original algorithm on the same memories.

The paper verifies compiler output by "executing the Java input
algorithm" against the same memory/stimulus files and comparing contents
afterwards.  Here the original Python function runs against
:class:`MemView` wrappers over the same :class:`MemoryImage` objects the
simulated SRAMs use, with matching width semantics: loads sign- or
zero-extend according to the array's :class:`MemorySpec`, stores mask to
the memory width.
"""

from __future__ import annotations

import inspect
from typing import Callable, Mapping, Optional

from ..compiler.spec import MemorySpec
from ..util.files import MemoryImage

__all__ = ["MemView", "run_golden", "GoldenError"]


class GoldenError(Exception):
    """The golden execution could not be performed."""


class MemView:
    """Array façade over a :class:`MemoryImage` with hardware semantics.

    The golden run indexes it once per array access, so reads and writes
    touch the image's word list directly, in one frame, with the same
    bounds check, sign extension and masking as
    :meth:`MemoryImage.read_signed` / :meth:`MemoryImage.write`.  A write
    to an image with watchers goes through :meth:`MemoryImage.write`, so
    every watcher still sees it.
    """

    def __init__(self, image: MemoryImage, signed: bool = True) -> None:
        self.image = image
        self.signed = signed
        #: the sign bit, 0 for an unsigned view
        self._sign = 1 << (image.width - 1) if signed else 0

    def __len__(self) -> int:
        return self.image.depth

    def __getitem__(self, index: int) -> int:
        image = self.image
        if not 0 <= index < image.depth:
            image._check_address(index)  # raises the image's IndexError
        word = image._words[index]
        if word & self._sign:
            return word - (self._sign << 1)
        return word

    def __setitem__(self, index: int, value: int) -> None:
        image = self.image
        if image._watchers or not 0 <= index < image.depth:
            image.write(index, value)
            return
        image._words[index] = value & image._mask

    def __iter__(self):
        for index in range(len(self)):
            yield self[index]

    def __repr__(self) -> str:
        return f"MemView({self.image!r}, signed={self.signed})"


def run_golden(func: Callable,
               arrays: Mapping[str, MemorySpec],
               images: Mapping[str, MemoryImage],
               params: Optional[Mapping[str, int]] = None) -> None:
    """Execute *func* in software over *images* (mutated in place).

    Arguments are assembled from the function signature: array parameters
    become :class:`MemView` wrappers, scalar parameters take their value
    from *params* (or the signature default).
    """
    params = dict(params or {})
    try:
        signature = inspect.signature(func)
    except (TypeError, ValueError) as exc:
        raise GoldenError(f"cannot inspect {func!r}: {exc}") from None
    call_args = []
    for name, parameter in signature.parameters.items():
        if name in arrays:
            spec = arrays[name]
            try:
                image = images[name]
            except KeyError:
                raise GoldenError(
                    f"no memory image supplied for array {name!r}"
                ) from None
            if image.width != spec.width or image.depth != spec.depth:
                raise GoldenError(
                    f"array {name!r}: image is {image.width}x{image.depth}"
                    f", spec says {spec.width}x{spec.depth}"
                )
            call_args.append(MemView(image, signed=spec.signed))
        elif name in params:
            call_args.append(params[name])
        elif parameter.default is not inspect.Parameter.empty:
            call_args.append(parameter.default)
        else:
            raise GoldenError(
                f"parameter {name!r} has no array, value or default"
            )
    func(*call_args)
