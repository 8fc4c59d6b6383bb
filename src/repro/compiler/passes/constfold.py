"""Constant folding and algebraic simplification (block-local).

Because temps are block-local, folding is a single forward walk per
block: known-constant temps are substituted into later operands, fully
constant operations disappear, and algebraic identities collapse
(``x+0``, ``x*1``, ``x*0``, ``x&0``...).  Branches on constant conditions
become jumps, which later lets unreachable-block removal shrink the FSM.

A folded constant is what the operator library's unit for that operation
drives, so it is exactly what the hardware it replaces would compute.
"""

from __future__ import annotations

from typing import Dict, Optional

from ...operators.catalog import BuildContext, build_operator
from ...operators.comparison import COMPARE_OPS
from ...sim.errors import SimulationError
from ...sim.kernel import Simulator
from ..cfg import (BasicBlock, Cfg, TBranch, TCopy, TJump, TLoad, TOp,
                   TStore, Value, VConst, VTemp, VVar)

__all__ = ["fold_constants"]


def fold_constants(cfg: Cfg) -> bool:
    """Run one folding sweep; returns True if anything changed."""
    changed = False
    for block in cfg:
        changed |= _fold_block(block, cfg.word_width)
    return changed


def _fold_block(block: BasicBlock, word_width: int) -> bool:
    changed = False
    known: Dict[VTemp, Value] = {}

    # An alias to a *variable* is only safe if the variable is never
    # copied later in this block (its register would change under the
    # alias).  Count copies per var and track how many we have passed.
    total_copies: Dict[str, int] = {}
    for op in block.ops:
        if isinstance(op, TCopy):
            total_copies[op.var] = total_copies.get(op.var, 0) + 1
    seen_copies: Dict[str, int] = {}

    def var_alias_safe(name: str) -> bool:
        return seen_copies.get(name, 0) >= total_copies.get(name, 0)

    # block-local copy propagation: after ``x = 6`` uses of x read 6;
    # after ``y = x`` uses of y read x (only safe while x is not copied
    # again later in the block)
    var_values: Dict[str, Value] = {}

    def resolve(value: Value) -> Value:
        if isinstance(value, VTemp) and value in known:
            value = known[value]
        if isinstance(value, VVar) and value.name in var_values:
            return var_values[value.name]
        return value

    new_ops = []
    for op in block.ops:
        if isinstance(op, TOp):
            a = resolve(op.a)
            b = resolve(op.b) if op.b is not None else None
            if (a is not op.a) or (b is not op.b):
                op = TOp(op.dest, op.op, a, b)
                changed = True
            folded = _try_fold(op, word_width)
            if folded is not None:
                known[op.dest] = folded
                changed = True
                continue  # the operation itself disappears
            simplified = _try_simplify(op)
            if simplified is not None:
                if isinstance(simplified, VVar) and \
                        not var_alias_safe(simplified.name):
                    new_ops.append(op)  # aliasing would read a stale register
                    continue
                known[op.dest] = simplified
                changed = True
                continue
            new_ops.append(op)
        elif isinstance(op, TLoad):
            addr = resolve(op.addr)
            if addr is not op.addr:
                op = TLoad(op.dest, op.array, addr)
                changed = True
            new_ops.append(op)
        elif isinstance(op, TStore):
            addr = resolve(op.addr)
            value = resolve(op.value)
            if addr is not op.addr or value is not op.value:
                op = TStore(op.array, addr, value)
                changed = True
            new_ops.append(op)
        elif isinstance(op, TCopy):
            src = resolve(op.src)
            if src is not op.src:
                op = TCopy(op.var, src)
                changed = True
            seen_copies[op.var] = seen_copies.get(op.var, 0) + 1
            var_values.pop(op.var, None)
            if isinstance(src, VConst):
                var_values[op.var] = src
            elif isinstance(src, VVar) and src.name != op.var and \
                    var_alias_safe(src.name):
                var_values[op.var] = src
            new_ops.append(op)
        else:  # pragma: no cover - exhaustive
            new_ops.append(op)
    block.ops = new_ops

    terminator = block.terminator
    if isinstance(terminator, TBranch):
        cond = resolve(terminator.cond)
        if isinstance(cond, VConst):
            target = terminator.true_target if cond.value else \
                terminator.false_target
            block.terminator = TJump(target)
            changed = True
        elif cond is not terminator.cond:
            block.terminator = TBranch(cond, terminator.true_target,
                                       terminator.false_target)
            changed = True
    return changed


def _try_fold(op: TOp, word_width: int) -> Optional[VConst]:
    """What the catalog's unit for ``op.op`` drives from constant
    operands after a settle, or None.

    The unit gets the width the datapath gives it: comparators read
    word-wide operands and drive one bit, every other unit is as wide as
    its result.  Its input signals mask the operands to that width.  The
    unit is built strict, so a zero divisor raises and stays unfolded
    for simulation to report.
    """
    operands = (op.a,) if op.b is None else (op.a, op.b)
    if not all(isinstance(value, VConst) for value in operands):
        return None
    width = word_width if op.op in COMPARE_OPS else op.dest.width
    sim = Simulator()
    ports = {port: sim.signal(port, width, value.value)
             for port, value in zip("ab", operands)}
    unit = build_operator(BuildContext(sim), op.op, "fold", ports,
                          {"strict": "1"})
    try:
        sim.settle()
    except SimulationError:
        return None
    return VConst(unit.y.value)


def _try_simplify(op: TOp):
    """Algebraic identities; returns a replacement Value or None.

    The replacement is either a constant or one of the operands (making
    the destination an alias).  Only identities that hold under wrapping
    arithmetic are used.
    """
    a, b = op.a, op.b
    a_const = a.value if isinstance(a, VConst) else None
    b_const = b.value if isinstance(b, VConst) else None
    kind = op.op
    if kind == "add":
        if b_const == 0:
            return a
        if a_const == 0:
            return b
    elif kind == "sub":
        if b_const == 0:
            return a
    elif kind == "mul":
        if b_const == 1:
            return a
        if a_const == 1:
            return b
        if b_const == 0 or a_const == 0:
            return VConst(0)
    elif kind in ("shl", "ashr", "lshr"):
        if b_const == 0:
            return a
        if a_const == 0:
            return VConst(0)
    elif kind == "and":
        if b_const == 0 or a_const == 0:
            return VConst(0)
        if a == b:
            return a
    elif kind == "or":
        if b_const == 0:
            return a
        if a_const == 0:
            return b
        if a == b:
            return a
    elif kind == "xor":
        if b_const == 0:
            return a
        if a_const == 0:
            return b
        if a == b:
            return VConst(0)
    elif kind == "div":
        if b_const == 1:
            return a
    elif kind in ("min", "max"):
        if a == b:
            return a
    return None
