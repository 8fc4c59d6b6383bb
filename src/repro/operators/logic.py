"""Bitwise logic and shift functional units."""

from __future__ import annotations

from .base import BinaryOp, UnaryOp, signed_value

__all__ = ["BitwiseAnd", "BitwiseOr", "BitwiseXor", "BitwiseNot",
           "ShiftLeft", "ShiftRightLogical", "ShiftRightArith"]


class BitwiseAnd(BinaryOp):
    def compute(self, a: int, b: int) -> int:
        return a & b


class BitwiseOr(BinaryOp):
    def compute(self, a: int, b: int) -> int:
        return a | b


class BitwiseXor(BinaryOp):
    def compute(self, a: int, b: int) -> int:
        return a ^ b


class BitwiseNot(UnaryOp):
    def compute(self, a: int) -> int:
        return ~a


class _Shift(BinaryOp):
    """Shift units: ``b`` is the (unsigned) shift amount.

    Amounts of *width* or more shift everything out, as a full barrel
    shifter fed the raw amount does: zero for ``shl`` and ``lshr``, the
    sign for ``ashr``.
    """


class ShiftLeft(_Shift):
    def compute(self, a: int, b: int) -> int:
        if b >= self.width:
            return 0
        return a << b


class ShiftRightLogical(_Shift):
    def compute(self, a: int, b: int) -> int:
        if b >= self.width:
            return 0
        return a >> b


class ShiftRightArith(_Shift):
    def compute(self, a: int, b: int) -> int:
        sa = signed_value(a, self.width)
        if b >= self.width:
            return -1 if sa < 0 else 0
        return sa >> b
