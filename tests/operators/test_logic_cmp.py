"""Tests for logic, shift and comparison units."""

import pytest
from hypothesis import given, strategies as st

from repro.operators import (BitwiseAnd, BitwiseNot, BitwiseOr, BitwiseXor,
                             Comparator, Multiplier, ShiftLeft,
                             ShiftRightArith, ShiftRightLogical)
from repro.sim import ElaborationError, Simulator

from tests.support import binop_result, to_signed, unop_result

W = 8
MASK = (1 << W) - 1


class TestLogic:
    def test_and_or_xor(self):
        assert binop_result(BitwiseAnd, 0b1100, 0b1010, W) == 0b1000
        assert binop_result(BitwiseOr, 0b1100, 0b1010, W) == 0b1110
        assert binop_result(BitwiseXor, 0b1100, 0b1010, W) == 0b0110

    def test_not(self):
        assert unop_result(BitwiseNot, 0b1100, W) == 0xF3

    @given(st.data())
    def test_not_is_an_involution(self, data):
        width = data.draw(st.integers(1, 64))
        a = data.draw(st.integers(0, (1 << width) - 1))
        once = unop_result(BitwiseNot, a, width)
        assert unop_result(BitwiseNot, once, width) == a

    @given(st.integers(0, MASK), st.integers(0, MASK))
    def test_de_morgan(self, a, b):
        left = unop_result(BitwiseNot, binop_result(BitwiseAnd, a, b, W), W)
        right = binop_result(BitwiseOr, (~a) & MASK, (~b) & MASK, W)
        assert left == right


class TestShifts:
    def test_shl(self):
        assert binop_result(ShiftLeft, 0b0011, 2, W) == 0b1100

    def test_shl_out_of_range(self):
        assert binop_result(ShiftLeft, 0xFF, 8, W) == 0
        assert binop_result(ShiftLeft, 0xFF, 200, W) == 0

    @given(st.data())
    def test_shl_is_multiplication_by_a_power_of_two(self, data):
        width = data.draw(st.integers(1, 64))
        a = data.draw(st.integers(0, (1 << width) - 1))
        amount = data.draw(st.integers(0, width - 1))
        assert binop_result(ShiftLeft, a, amount, width) == \
            binop_result(Multiplier, a, 1 << amount, width)

    def test_lshr(self):
        assert binop_result(ShiftRightLogical, 0x80, 7, W) == 1
        assert binop_result(ShiftRightLogical, 0x80, 8, W) == 0

    def test_ashr_sign_fills(self):
        assert binop_result(ShiftRightArith, 0x80, 1, W) == 0xC0
        assert binop_result(ShiftRightArith, 0x80, 100, W) == 0xFF
        assert binop_result(ShiftRightArith, 0x40, 100, W) == 0

    @given(st.integers(0, MASK), st.integers(0, W - 1))
    def test_ashr_matches_floor_division(self, a, amount):
        got = binop_result(ShiftRightArith, a, amount, W)
        assert to_signed(got, W) == to_signed(a, W) >> amount


class TestComparator:
    def _cmp(self, op, a, b, signed=True):
        sim = Simulator()
        sa = sim.signal("a", W)
        sb = sim.signal("b", W)
        y = sim.signal("y", 1)
        sim.add_async(Comparator("c", op, sa, sb, y, signed=signed))
        sim.drive(sa, a & MASK)
        sim.drive(sb, b & MASK)
        sim.settle()
        return y.value

    def test_eq_ne(self):
        assert self._cmp("eq", 5, 5) == 1
        assert self._cmp("eq", 5, 6) == 0
        assert self._cmp("ne", 5, 6) == 1

    def test_signed_ordering(self):
        assert self._cmp("lt", -1, 1) == 1
        assert self._cmp("gt", 1, -1) == 1
        assert self._cmp("le", -1, -1) == 1
        assert self._cmp("ge", -2, -1) == 0

    def test_unsigned_ordering(self):
        assert self._cmp("lt", 0xFF, 1, signed=False) == 0
        assert self._cmp("ge", 0xFF, 1, signed=False) == 1

    def test_unknown_op_rejected(self):
        sim = Simulator()
        a = sim.signal("a", W)
        b = sim.signal("b", W)
        y = sim.signal("y", 1)
        with pytest.raises(ElaborationError):
            Comparator("c", "spaceship", a, b, y)

    def test_output_must_be_one_bit(self):
        sim = Simulator()
        a = sim.signal("a", W)
        b = sim.signal("b", W)
        y = sim.signal("y", 2)
        with pytest.raises(ElaborationError):
            Comparator("c", "eq", a, b, y)

    @given(st.integers(-128, 127), st.integers(-128, 127))
    def test_trichotomy(self, a, b):
        lt = self._cmp("lt", a, b)
        eq = self._cmp("eq", a, b)
        gt = self._cmp("gt", a, b)
        assert lt + eq + gt == 1
