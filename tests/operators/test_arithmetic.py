"""Tests for arithmetic functional units."""

import pytest
from hypothesis import given, strategies as st

from repro.operators import (AbsValue, Adder, Constant, DividerSigned,
                             DividerUnsigned, MaxSigned, MinSigned,
                             Multiplier, MultiplierFull, Negate,
                             RemainderSigned, RemainderUnsigned, Subtractor)
from repro.sim import ElaborationError, SimulationError, Simulator

from tests.support import binop_result, make_binop, to_signed, unop_result

W = 8
MASK = (1 << W) - 1


class TestAdderSub:
    def test_add(self):
        assert binop_result(Adder, 3, 4, W) == 7

    def test_add_wraps(self):
        assert binop_result(Adder, 0xFF, 1, W) == 0

    def test_sub(self):
        assert binop_result(Subtractor, 10, 3, W) == 7

    def test_sub_wraps(self):
        assert binop_result(Subtractor, 0, 1, W) == 0xFF

    def test_width_mismatch_rejected(self):
        sim = Simulator()
        a = sim.signal("a", 8)
        b = sim.signal("b", 16)
        y = sim.signal("y", 8)
        with pytest.raises(ElaborationError):
            Adder("bad", a, b, y)

    def test_reacts_to_input_change(self):
        sim, y = make_binop(Adder, 1, 1, W)
        sim.drive(sim.get_signal("a"), 10)
        sim.settle()
        assert y.value == 11

    @given(st.integers(0, MASK), st.integers(0, MASK))
    def test_add_matches_model(self, a, b):
        assert binop_result(Adder, a, b, W) == (a + b) & MASK

    @given(st.data())
    def test_sub_is_add_of_the_negation(self, data):
        width = data.draw(st.integers(1, 64))
        a, b = (data.draw(st.integers(0, (1 << width) - 1))
                for _ in range(2))
        minus_b = unop_result(Negate, b, width)
        assert binop_result(Subtractor, a, b, width) == \
            binop_result(Adder, a, minus_b, width)


class TestMultiplier:
    def test_mul(self):
        assert binop_result(Multiplier, 7, 6, W) == 42

    def test_mul_wraps(self):
        assert binop_result(Multiplier, 16, 16, W) == 0

    def test_mul_full_width_and_sign(self):
        result = binop_result(MultiplierFull, to_signed(-3, W) & MASK, 100, W,
                              out_width=16)
        assert to_signed(result, 16) == -300

    def test_mul_full_rejects_wrong_output_width(self):
        sim = Simulator()
        a = sim.signal("a", 8)
        b = sim.signal("b", 8)
        y = sim.signal("y", 8)
        with pytest.raises(ElaborationError):
            MultiplierFull("bad", a, b, y)


class TestDivision:
    @pytest.mark.parametrize("a,b,q", [(7, 2, 3), (-7, 2, -3), (7, -2, -3),
                                       (-7, -2, 3)])
    def test_div_signed(self, a, b, q):
        result = binop_result(DividerSigned, a & MASK, b & MASK, W)
        assert to_signed(result, W) == q

    @pytest.mark.parametrize("a,b,r", [(7, 2, 1), (-7, 2, -1), (7, -2, 1),
                                       (-7, -2, -1)])
    def test_rem_signed(self, a, b, r):
        result = binop_result(RemainderSigned, a & MASK, b & MASK, W)
        assert to_signed(result, W) == r

    @given(st.data())
    def test_quotient_times_divisor_plus_remainder_is_dividend(self, data):
        """``a = q*b + r`` with ``|r| < |b|`` and r signed like a, for
        the signed divider and remainder; exact except for the one
        quotient that overflows (most negative / -1), which wraps."""
        width = data.draw(st.integers(2, 32))
        mask = (1 << width) - 1
        a = data.draw(st.integers(0, mask))
        b = data.draw(st.integers(1, mask))
        q = binop_result(DividerSigned, a, b, width)
        r = binop_result(RemainderSigned, a, b, width)
        product = binop_result(Multiplier, q, b, width)
        assert binop_result(Adder, product, r, width) == a
        sa, sb, sr = (to_signed(v, width) for v in (a, b, r))
        assert abs(sr) < abs(sb) and (sr == 0 or (sr < 0) == (sa < 0))
        if (sa, sb) != (-(1 << (width - 1)), -1):
            assert to_signed(q, width) * sb + sr == sa

    def test_div_unsigned(self):
        assert binop_result(DividerUnsigned, 0xFF, 2, W) == 0x7F
        assert binop_result(RemainderUnsigned, 0xFF, 2, W) == 1

    @pytest.mark.parametrize("cls", [DividerSigned, RemainderSigned,
                                     DividerUnsigned, RemainderUnsigned])
    def test_divide_by_zero_raises(self, cls):
        with pytest.raises(SimulationError):
            make_binop(cls, 1, 0, W)


class TestUnary:
    def test_neg(self):
        assert to_signed(unop_result(Negate, 5, W), W) == -5

    def test_abs(self):
        assert unop_result(AbsValue, to_signed(-5, W) & MASK, W) == 5
        assert unop_result(AbsValue, 5, W) == 5

    def test_abs_of_the_most_negative_value_wraps_to_itself(self):
        assert unop_result(AbsValue, 0x80, W) == 0x80


class TestMinMax:
    def test_min_signed(self):
        neg1 = (-1) & MASK
        assert binop_result(MinSigned, neg1, 1, W) == neg1
        assert binop_result(MaxSigned, neg1, 1, W) == 1

    @given(st.integers(0, MASK), st.integers(0, MASK))
    def test_min_max_partition(self, a, b):
        lo = binop_result(MinSigned, a, b, W)
        hi = binop_result(MaxSigned, a, b, W)
        assert {lo, hi} == {a, b} or a == b


class TestConstant:
    def test_emits_masked_value(self):
        sim = Simulator()
        y = sim.signal("y", 4)
        c = Constant("c", y, 0x1F)
        sim.add_async(c)
        c.emit(sim)
        sim.settle()
        assert y.value == 0xF
