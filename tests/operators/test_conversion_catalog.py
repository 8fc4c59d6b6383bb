"""Tests for width-conversion units and the operator catalog."""

import pytest
from hypothesis import given, strategies as st

from repro.operators import (BuildContext, Concat, SignExtend, Slice,
                             Truncate, ZeroExtend, build_operator,
                             operator_types, register_operator)
from repro.sim import ElaborationError, Simulator
from repro.util.files import MemoryImage


class TestConversion:
    def test_zero_extend(self):
        sim = Simulator()
        a = sim.signal("a", 8, init=0xFF)
        y = sim.signal("y", 16)
        sim.add_async(ZeroExtend("z", a, y))
        sim.drive(a, 0xFF)
        sim.settle()
        assert y.value == 0x00FF

    def test_sign_extend(self):
        sim = Simulator()
        a = sim.signal("a", 8)
        y = sim.signal("y", 16)
        sim.add_async(SignExtend("s", a, y))
        sim.drive(a, 0x80)
        sim.settle()
        assert y.value == 0xFF80

    def test_truncate(self):
        sim = Simulator()
        a = sim.signal("a", 16)
        y = sim.signal("y", 8)
        sim.add_async(Truncate("t", a, y))
        sim.drive(a, 0x1234)
        sim.settle()
        assert y.value == 0x34

    def test_slice(self):
        sim = Simulator()
        a = sim.signal("a", 8)
        y = sim.signal("y", 3)
        sim.add_async(Slice("sl", a, y, high=6, low=4))
        sim.drive(a, 0b0101_0000)
        sim.settle()
        assert y.value == 0b101

    def test_concat(self):
        sim = Simulator()
        hi = sim.signal("hi", 4)
        lo = sim.signal("lo", 4)
        y = sim.signal("y", 8)
        sim.add_async(Concat("cc", [hi, lo], y))
        sim.drive(hi, 0xA)
        sim.drive(lo, 0xB)
        sim.settle()
        assert y.value == 0xAB

    @given(st.data())
    def test_slices_of_a_concat_are_its_parts(self, data):
        w_hi = data.draw(st.integers(1, 16))
        w_lo = data.draw(st.integers(1, 16))
        hi_value = data.draw(st.integers(0, (1 << w_hi) - 1))
        lo_value = data.draw(st.integers(0, (1 << w_lo) - 1))
        sim = Simulator()
        hi = sim.signal("hi", w_hi, init=hi_value)
        lo = sim.signal("lo", w_lo, init=lo_value)
        joined = sim.signal("joined", w_hi + w_lo)
        hi_out = sim.signal("hi_out", w_hi)
        lo_out = sim.signal("lo_out", w_lo)
        sim.add_async(Concat("cc", [hi, lo], joined))
        sim.add_async(Slice("sh", joined, hi_out, high=w_hi + w_lo - 1,
                            low=w_lo))
        sim.add_async(Slice("sl", joined, lo_out, high=w_lo - 1, low=0))
        sim.settle()
        assert (hi_out.value, lo_out.value) == (hi_value, lo_value)

    def test_direction_checks(self):
        sim = Simulator()
        a = sim.signal("a", 8)
        y16 = sim.signal("y16", 16)
        y4 = sim.signal("y4", 4)
        with pytest.raises(ElaborationError):
            ZeroExtend("bad", a, y4)
        with pytest.raises(ElaborationError):
            SignExtend("bad2", a, y4)
        with pytest.raises(ElaborationError):
            Truncate("bad3", a, y16)

    def test_slice_range_checks(self):
        sim = Simulator()
        a = sim.signal("a", 8)
        y = sim.signal("y", 3)
        with pytest.raises(ElaborationError):
            Slice("bad", a, y, high=8, low=6)
        with pytest.raises(ElaborationError):
            Slice("bad2", a, y, high=5, low=4)  # width mismatch

    def test_concat_width_check(self):
        sim = Simulator()
        hi = sim.signal("hi", 4)
        lo = sim.signal("lo", 4)
        y = sim.signal("y", 9)
        with pytest.raises(ElaborationError):
            Concat("bad", [hi, lo], y)


class TestCatalog:
    def test_known_types_present(self):
        types = operator_types()
        for t in ("add", "sub", "mul", "mux", "reg", "sram", "const",
                  "eq", "lt", "shl", "ashr", "sext"):
            assert t in types

    def test_build_binary(self):
        sim = Simulator()
        ctx = BuildContext(sim)
        a = sim.signal("a", 8)
        b = sim.signal("b", 8)
        y = sim.signal("y", 8)
        build_operator(ctx, "add", "u1", {"a": a, "b": b, "y": y}, {})
        sim.drive(a, 2)
        sim.drive(b, 3)
        sim.settle()
        assert y.value == 5

    def test_build_const_emits(self):
        sim = Simulator()
        ctx = BuildContext(sim)
        y = sim.signal("y", 8)
        build_operator(ctx, "const", "c", {"y": y}, {"value": "0x2a"})
        sim.settle()
        assert y.value == 42

    def test_const_without_value_rejected(self):
        sim = Simulator()
        ctx = BuildContext(sim)
        y = sim.signal("y", 8)
        with pytest.raises(ElaborationError):
            build_operator(ctx, "const", "c", {"y": y}, {})

    def test_build_mux_collects_indexed_ports(self):
        sim = Simulator()
        ctx = BuildContext(sim)
        sel = sim.signal("sel", 1)
        i0 = sim.signal("i0", 8, init=1)
        i1 = sim.signal("i1", 8, init=2)
        y = sim.signal("y", 8)
        build_operator(ctx, "mux", "m",
                       {"sel": sel, "in0": i0, "in1": i1, "y": y}, {})
        sim.drive(sel, 1)
        sim.settle()
        assert y.value == 2

    def test_mux_noncontiguous_ports_rejected(self):
        sim = Simulator()
        ctx = BuildContext(sim)
        sel = sim.signal("sel", 2)
        i0 = sim.signal("i0", 8)
        i2 = sim.signal("i2", 8)
        y = sim.signal("y", 8)
        with pytest.raises(ElaborationError):
            build_operator(ctx, "mux", "m",
                           {"sel": sel, "in0": i0, "in2": i2, "y": y}, {})

    def test_build_reg_with_init(self):
        sim = Simulator()
        ctx = BuildContext(sim)
        d = sim.signal("d", 8)
        q = sim.signal("q", 8)
        build_operator(ctx, "reg", "r", {"d": d, "q": q}, {"init": "7"})
        assert q.value == 7

    def test_build_sram_uses_bound_memory(self):
        sim = Simulator()
        image = MemoryImage(8, 16, words=[0, 0x55])
        ctx = BuildContext(sim, memories={"buf": image})
        addr = sim.signal("addr", 4)
        din = sim.signal("din", 8)
        dout = sim.signal("dout", 8)
        we = sim.signal("we", 1)
        build_operator(ctx, "sram", "ram",
                       {"addr": addr, "din": din, "dout": dout, "we": we},
                       {"memory": "buf"})
        sim.drive(addr, 1)
        sim.settle()
        assert dout.value == 0x55

    def test_unbound_memory_rejected(self):
        sim = Simulator()
        ctx = BuildContext(sim)
        with pytest.raises(ElaborationError):
            ctx.memory("nope")

    def test_unknown_type_rejected(self):
        sim = Simulator()
        ctx = BuildContext(sim)
        with pytest.raises(ElaborationError):
            build_operator(ctx, "quantum", "q", {}, {})

    def test_missing_port_message(self):
        sim = Simulator()
        ctx = BuildContext(sim)
        a = sim.signal("a", 8)
        with pytest.raises(ElaborationError, match="missing port"):
            build_operator(ctx, "add", "u", {"a": a}, {})

    def test_register_custom_operator(self):
        from repro.operators.arithmetic import Adder

        @register_operator("add3")
        def build_add3(ctx, name, ports, params):
            mid = ctx.sim.signal(f"{name}__mid", ports["a"].width)
            ctx.sim.add_async(Adder(f"{name}__p1", ports["a"], ports["b"], mid))
            ctx.sim.add_async(Adder(f"{name}__p2", mid, ports["c"], ports["y"]))
            return ctx.sim.get_component(f"{name}__p2")

        try:
            sim = Simulator()
            ctx = BuildContext(sim)
            sigs = {n: sim.signal(n, 8) for n in ("a", "b", "c", "y")}
            build_operator(ctx, "add3", "u", sigs, {})
            for n, v in (("a", 1), ("b", 2), ("c", 3)):
                sim.drive(sigs[n], v)
            sim.settle()
            assert sigs["y"].value == 6
        finally:
            from repro.operators import catalog
            del catalog._CATALOG["add3"]

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError):
            register_operator("add")(lambda *a: None)
