"""Tests for the optimization passes."""

import ast
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import repro.compiler
from repro.compiler import build_cfg, optimize, parse_function
from repro.compiler.cfg import (Cfg, TBranch, TCopy, TJump, TLoad, TOp,
                                TStore, VConst, VVar)
from repro.compiler.datapath_gen import generate_datapath
from repro.compiler.hir import BIN_OPS, CMP_OPS, UN_OPS
from repro.compiler.passes import (compute_liveness,
                                   eliminate_common_subexpressions,
                                   eliminate_dead_code, fold_constants,
                                   reduce_strength,
                                   remove_unreachable_blocks)
from repro.compiler.scheduling import schedule_cfg
from repro.compiler.spec import MemorySpec
from repro.operators import (COMPARE_OPS, BuildContext, build_operator,
                             operator_types)
from repro.sim import Simulator

ARR = {"buf": MemorySpec(32, 32), "src": MemorySpec(32, 32)}


def cfg_of(source, width=32):
    header = source.splitlines()[0]
    arrays = {name: spec for name, spec in ARR.items() if name in header}
    return build_cfg(parse_function(source, arrays), arrays, width)


def entry_ops(cfg):
    return cfg.block("entry").ops


def one_op_cfg(op, a, b, dest_width, word_width):
    """``t = op a, b`` on constant operands, then ``out[0] = t``."""
    cfg = Cfg("f", word_width, {"out": MemorySpec(word_width, 2)})
    dest = cfg.new_temp(dest_width)
    operands = [VConst(a)] + ([] if b is None else [VConst(b)])
    cfg.new_block("entry").ops = [TOp(dest, op, *operands),
                                  TStore("out", VConst(0), dest)]
    return cfg


def fold(op, a, b, dest_width, word_width):
    """The constant ``fold_constants`` stores for ``t = op a, b``, or
    None when it keeps the operation."""
    cfg = one_op_cfg(op, a, b, dest_width, word_width)
    fold_constants(cfg)
    *kept, store = cfg.block("entry").ops
    return None if kept else store.value.value


def bound_unit_drives(op, a, b, dest_width, word_width):
    """What the unit datapath generation binds for ``t = op a, b``
    drives after a settle, elaborated alone through the catalog with
    the constant generators the binder feeds it; None when it met a
    zero divisor (netlist dividers output 0 and count it)."""
    cfg = one_op_cfg(op, a, b, dest_width, word_width)
    datapath = generate_datapath(cfg, schedule_cfg(cfg)).datapath
    unit = datapath.components[f"u0_{op}"]
    sim = Simulator()
    ctx = BuildContext(sim)
    ports = {}
    for net in datapath.nets.values():
        into = [sink.port for sink in net.sinks
                if sink.component == unit.name]
        if net.source.component == unit.name:
            ports["y"] = sim.signal(net.name, net.width)
        elif into:  # one generator feeds both ports when a == b
            signal = sim.signal(net.name, net.width)
            ports.update(dict.fromkeys(into, signal))
            const = datapath.components[net.source.component]
            build_operator(ctx, "const", const.name, {"y": signal},
                           const.params)
    built = build_operator(ctx, unit.type, unit.name, ports, unit.params)
    sim.settle()
    if getattr(built, "zero_divisor_events", 0):
        return None
    return ports["y"].value


def emitted_operator_types():
    """Every operator type a ``TOp`` built by the CFG lowering or a pass
    can carry, read from their source: a string literal, a value of one
    of hir's operator tables, a local bound to literals, or the type of
    the operation being rebuilt (``op.op``)."""
    tables = {"BIN_OPS": BIN_OPS, "UN_OPS": UN_OPS, "CMP_OPS": CMP_OPS}
    root = Path(repro.compiler.__file__).parent
    types = set()
    for path in [root / "cfg.py", *sorted((root / "passes").glob("*.py"))]:
        for func in ast.walk(ast.parse(path.read_text())):
            if not isinstance(func, ast.FunctionDef):
                continue
            bound = {target.id: node.value for node in ast.walk(func)
                     if isinstance(node, ast.Assign)
                     for target in node.targets
                     if isinstance(target, ast.Name)}
            for call in ast.walk(func):
                if not (isinstance(call, ast.Call)
                        and getattr(call.func, "id", None) == "TOp"):
                    continue
                kind = call.args[1]
                if isinstance(kind, ast.Attribute) and kind.attr == "op":
                    continue
                if isinstance(kind, ast.Subscript):
                    types.update(tables[kind.value.id].values())
                    continue
                if isinstance(kind, ast.Name):
                    kind = bound[kind.id]
                literals = [node.value for node in ast.walk(kind)
                            if isinstance(node, ast.Constant)
                            and isinstance(node.value, str)]
                assert literals, f"{path.name}:{call.lineno}"
                types.update(literals)
    return types


#: what folding can meet: the emitted types, plus the truncating
#: division and remainder strength reduction knows and the logical shift
FOLDABLE = sorted(emitted_operator_types() | {"div", "rem", "lshr"})


class TestEvalOp:
    """Each TAC operator folds to what its operator-library unit drives."""

    def test_wrapping_add(self):
        assert fold("add", 0xFFFFFFFF, 1, 32, 32) == 0

    def test_signed_compare(self):
        assert fold("lt", 0xFFFFFFFF, 1, 1, 32) == 1  # -1 < 1

    def test_fdiv_floor(self):
        minus7 = (-7) & 0xFFFFFFFF
        assert fold("fdiv", minus7, 2, 32, 32) == (-4) & 0xFFFFFFFF

    def test_div_truncates(self):
        minus7 = (-7) & 0xFFFFFFFF
        assert fold("div", minus7, 2, 32, 32) == (-3) & 0xFFFFFFFF

    def test_fmod_sign_of_divisor(self):
        minus7 = (-7) & 0xFFFFFFFF
        assert fold("fmod", minus7, 3, 32, 32) == 2

    def test_division_by_zero_not_folded(self):
        assert fold("div", 4, 0, 32, 32) is None
        assert fold("fdiv", 4, 0, 32, 32) is None
        assert fold("fmod", 4, 0, 32, 32) is None

    def test_shift_semantics(self):
        assert fold("shl", 1, 40, 32, 32) == 0
        assert fold("ashr", 0x80000000, 31, 32, 32) == 0xFFFFFFFF

    def test_min_max_signed(self):
        minus1 = 0xFFFFFFFF
        assert fold("min", minus1, 1, 32, 32) == minus1
        assert fold("max", minus1, 1, 32, 32) == 1

    def test_abs_neg_not(self):
        assert fold("abs", (-5) & 0xFF, None, 8, 8) == 5
        assert fold("neg", 1, None, 8, 8) == 0xFF
        assert fold("not", 0, None, 1, 32) == 1

    def test_every_emitted_operator_is_a_catalog_type(self):
        emitted = emitted_operator_types()
        assert {"add", "fdiv", "lt", "not", "shl", "ashr", "and"} <= emitted
        assert emitted <= set(operator_types())

    @given(st.data())
    def test_fold_is_what_the_bound_unit_drives(self, data):
        """Folding picks the width, operand masks and signedness of the
        unit the datapath would bind: comparators at the word width,
        everything else at the destination width."""
        op = data.draw(st.sampled_from(FOLDABLE))
        word_width = data.draw(st.sampled_from([1, 2, 8, 16, 32]))
        dest_width = 1 if op in COMPARE_OPS else \
            data.draw(st.sampled_from([1, word_width]))
        width = word_width if op in COMPARE_OPS else dest_width
        top = 1 << width
        operands = st.one_of(
            st.sampled_from([0, 1, -1, top >> 1, -(top >> 1), top - 1,
                             width, width + 1]),
            st.integers(-(1 << 40), 1 << 40))
        a = data.draw(operands)
        b = None if op in UN_OPS.values() else data.draw(operands)
        assert fold(op, a, b, dest_width, word_width) == \
            bound_unit_drives(op, a, b, dest_width, word_width)


class TestConstFold:
    def test_constant_expression_collapses(self):
        cfg = cfg_of("def f(buf):\n    buf[0] = 2 * 3 + 4\n")
        fold_constants(cfg)
        ops = entry_ops(cfg)
        assert len(ops) == 1
        assert isinstance(ops[0], TStore)
        assert ops[0].value == VConst(10)

    def test_identity_add_zero(self):
        # x comes from a load so it is not a known constant: x + 0 must
        # alias the variable itself
        cfg = cfg_of("def f(buf, src):\n    x = src[0]\n    buf[0] = x + 0\n")
        fold_constants(cfg)
        stores = [op for op in entry_ops(cfg) if isinstance(op, TStore)]
        assert stores[0].value == VVar("x")

    def test_constant_copy_propagates(self):
        cfg = cfg_of("def f(buf):\n    x = 5\n    buf[0] = x + 0\n")
        fold_constants(cfg)
        stores = [op for op in entry_ops(cfg) if isinstance(op, TStore)]
        assert stores[0].value == VConst(5)

    def test_mul_by_zero(self):
        cfg = cfg_of("def f(buf):\n    x = 5\n    buf[0] = x * 0\n")
        fold_constants(cfg)
        stores = [op for op in entry_ops(cfg) if isinstance(op, TStore)]
        assert stores[0].value == VConst(0)

    def test_constant_branch_becomes_jump(self):
        cfg = cfg_of(
            "def f(buf):\n"
            "    if 1 < 2:\n"
            "        buf[0] = 1\n"
            "    else:\n"
            "        buf[0] = 2\n"
        )
        fold_constants(cfg)
        terminator = cfg.block("entry").terminator
        assert isinstance(terminator, TJump)
        assert terminator.target == "if_then"

    def test_var_alias_blocked_by_later_copy(self):
        """t = x + 0 must NOT alias x when x is copied later in the block
        and t is consumed after that copy."""
        cfg = cfg_of(
            "def f(buf, src):\n"
            "    x = src[0]\n"
            "    y = x + 0\n"
            "    x = 7\n"
            "    buf[0] = y\n"
        )
        fold_constants(cfg)
        # the add survives: aliasing y's source to the x register would
        # read 7 instead of 5
        adds = [op for op in entry_ops(cfg)
                if isinstance(op, TOp) and op.op == "add"]
        assert len(adds) == 1

    def test_xor_self_is_zero(self):
        cfg = cfg_of("def f(buf):\n    x = 5\n    buf[0] = x ^ x\n")
        fold_constants(cfg)
        stores = [op for op in entry_ops(cfg) if isinstance(op, TStore)]
        assert stores[0].value == VConst(0)


class TestStrength:
    def test_mul_power_of_two(self):
        cfg = cfg_of("def f(buf):\n    x = 3\n    buf[0] = x * 8\n")
        assert reduce_strength(cfg)
        shls = [op for op in entry_ops(cfg)
                if isinstance(op, TOp) and op.op == "shl"]
        assert shls and shls[0].b == VConst(3)

    def test_mul_other_order(self):
        cfg = cfg_of("def f(buf):\n    x = 3\n    buf[0] = 16 * x\n")
        assert reduce_strength(cfg)

    def test_floor_div_always_reduced(self):
        cfg = cfg_of("def f(buf):\n    x = -9\n    buf[0] = x // 4\n")
        assert reduce_strength(cfg)
        ashrs = [op for op in entry_ops(cfg)
                 if isinstance(op, TOp) and op.op == "ashr"]
        assert ashrs and ashrs[0].b == VConst(2)

    def test_floor_mod_always_reduced(self):
        cfg = cfg_of("def f(buf):\n    x = -9\n    buf[0] = x % 8\n")
        assert reduce_strength(cfg)
        ands = [op for op in entry_ops(cfg)
                if isinstance(op, TOp) and op.op == "and"]
        assert ands and ands[0].b == VConst(7)

    def test_non_power_untouched(self):
        cfg = cfg_of("def f(buf):\n    x = 3\n    buf[0] = x * 6\n")
        assert not reduce_strength(cfg)


class TestCse:
    def test_duplicate_expression_shared(self):
        cfg = cfg_of(
            "def f(buf):\n"
            "    x = 3\n"
            "    buf[0] = x * 5 + 1\n"
            "    buf[1] = x * 5 + 2\n"
        )
        assert eliminate_common_subexpressions(cfg)
        muls = [op for op in entry_ops(cfg)
                if isinstance(op, TOp) and op.op == "mul"]
        assert len(muls) == 1

    def test_commutative_matching(self):
        cfg = cfg_of(
            "def f(buf):\n"
            "    x = 3\n"
            "    y = 4\n"
            "    buf[0] = x + y\n"
            "    buf[1] = y + x\n"
        )
        assert eliminate_common_subexpressions(cfg)
        adds = [op for op in entry_ops(cfg)
                if isinstance(op, TOp) and op.op == "add"]
        assert len(adds) == 1

    def test_copy_invalidates(self):
        cfg = cfg_of(
            "def f(buf):\n"
            "    x = 3\n"
            "    buf[0] = x + 1\n"
            "    x = 9\n"
            "    buf[1] = x + 1\n"
        )
        eliminate_common_subexpressions(cfg)
        adds = [op for op in entry_ops(cfg)
                if isinstance(op, TOp) and op.op == "add"]
        assert len(adds) == 2

    def test_loads_shared_until_store(self):
        cfg = cfg_of(
            "def f(buf, src):\n"
            "    buf[0] = src[3] + src[3]\n"
            "    src[3] = 7\n"
            "    buf[1] = src[3]\n"
        )
        eliminate_common_subexpressions(cfg)
        loads = [op for op in entry_ops(cfg) if isinstance(op, TLoad)]
        assert len(loads) == 2  # one before the store, one after


class TestDce:
    def test_dead_temp_removed(self):
        cfg = cfg_of("def f(buf):\n    x = 1\n    buf[0] = 2\n")
        # x is never used: the copy and its source must go
        optimize(cfg, level=1)
        assert all(not isinstance(op, TCopy) for op in entry_ops(cfg))

    def test_store_never_removed(self):
        cfg = cfg_of("def f(buf):\n    buf[0] = 1\n")
        eliminate_dead_code(cfg)
        assert any(isinstance(op, TStore) for op in entry_ops(cfg))

    def test_live_loop_var_kept(self):
        cfg = cfg_of(
            "def f(buf):\n    for i in range(4):\n        buf[i] = i\n"
        )
        eliminate_dead_code(cfg)
        assert any(isinstance(op, TCopy) and op.var == "i"
                   for op in cfg.block("for_body").ops)

    def test_unreachable_block_removed(self):
        cfg = cfg_of(
            "def f(buf):\n"
            "    if 1 < 2:\n"
            "        buf[0] = 1\n"
            "    else:\n"
            "        buf[0] = 2\n"
        )
        fold_constants(cfg)
        assert remove_unreachable_blocks(cfg)
        assert "if_else" not in cfg.blocks

    def test_overwritten_copy_removed(self):
        cfg = cfg_of(
            "def f(buf):\n"
            "    x = 1\n"
            "    x = 2\n"
            "    buf[0] = x\n"
        )
        eliminate_dead_code(cfg)
        copies = [op for op in entry_ops(cfg) if isinstance(op, TCopy)]
        assert len(copies) == 1
        assert copies[0].src == VConst(2)


class TestLiveness:
    def test_loop_variable_live_around_loop(self):
        cfg = cfg_of(
            "def f(buf):\n    for i in range(4):\n        buf[i] = i\n"
        )
        liveness = compute_liveness(cfg)
        assert "i" in liveness.into("for_head")
        assert "i" in liveness.out_of("for_body")
        assert "i" not in liveness.out_of("for_exit")

    def test_straight_line_liveness(self):
        cfg = cfg_of(
            "def f(buf):\n    x = 1\n    y = 2\n    buf[0] = x\n"
        )
        liveness = compute_liveness(cfg)
        assert liveness.out_of("entry") == set()


class TestOptimizeManager:
    def test_level_validation(self):
        cfg = cfg_of("def f(buf):\n    buf[0] = 1\n")
        with pytest.raises(ValueError):
            optimize(cfg, level=7)

    def test_level_zero_is_noop(self):
        cfg = cfg_of("def f(buf):\n    buf[0] = 1 + 2\n")
        before = cfg.dump()
        assert optimize(cfg, level=0) == []
        assert cfg.dump() == before

    def test_log_reports_passes(self):
        cfg = cfg_of("def f(buf):\n    x = 2 * 8\n    buf[0] = x + 0\n")
        log = optimize(cfg, level=2)
        assert any("constfold" in entry for entry in log)

    def test_reaches_fixpoint(self):
        cfg = cfg_of(
            "def f(buf):\n"
            "    x = 2 * 3\n"
            "    y = x + 0\n"
            "    buf[0] = y * 1\n"
        )
        optimize(cfg, level=2)
        ops = entry_ops(cfg)
        assert len(ops) == 1
        assert isinstance(ops[0], TStore) and ops[0].value == VConst(6)
