"""Hot-path trace fusion for the compiled kernel (`--backend=traced`).

The compiled backend (:mod:`repro.sim.compiled`) specializes per FSM
state but still pays, on *every* control step, the outer-loop overhead:
stop-set membership, cycle/visit accounting, and two binary dispatches
(edge + settle).  Steady-state FSM loops — a MAC loop body, a memory
sweep — spend almost all simulated cycles repeating the same short state
sequence, so this module compiles those sequences into single fused
blocks, the trace-compilation idea of the Verilator lineage applied at
the FSM-path level:

* **traces** are found statically on the FSM graph: *loop* traces are a
  header reached by a chain of static (unconditional) states ending in
  one dynamic state whose enumerated successors include the header;
  *linear* traces are maximal chains of static states;
* inside a fused trace, signal values stay in Python locals across all
  states, and an incremental *dirty-clock* analysis drops every
  recomputation whose inputs provably did not change since it last ran
  (per-operator: never emitted, an input written since, or the
  specialized code text differs from the previous state's);
* a loop's steady-state body is the **union** of per-iteration emission
  sets, iterated to a fixed point from a fully-dirty peel iteration, so
  early trips are covered and extra emissions are value no-ops;
* per-state dispatch inside a loop collapses to one guarded ``while``
  over the loop's exit statuses; cycle/visit/transition accounting is
  hoisted out of the body and multiplied by the trip count;
* register/status sync with the event kernel is untouched: the fused
  block runs between the same entry sync and exit write-back as the
  plain compiled kernel, and trace boundaries re-settle through the
  plain per-state cones.

Anything the analysis cannot prove — non-enumerable successor sets,
over-long chains, non-converging bodies — simply is not fused; the
generic per-state path (bit-identical to the compiled backend) handles
it.  Fused code must remain byte-identical to the event kernel in
observable outputs, including under instrumentation: transition
tallies and timers are compiled into the fused code, which does not
fall back (a kernel with a fault spec never fuses).

Fusion is paid for only when the cycles repay it: a traced elaboration
runs the generic program first and promotes to the fused one after
:data:`PROMOTE_AFTER` cycles (see :class:`TracedSimulator`).
"""

from __future__ import annotations

import itertools
from typing import Callable, Dict, List, Optional, Tuple

from .compiled import CompiledProgram, CompiledSimulator, _build_program

__all__ = ["TracedSimulator", "build_fusion", "PROMOTE_AFTER"]

#: cycles an elaboration runs on the generic program before it promotes
#: to fused traces: above every default-size app's run (at most ~2200
#: cycles), which fusion would not repay, and otherwise as low as
#: possible, since the cycles before promotion run at the generic
#: program's speed (docs/performance.md has the sweep)
PROMOTE_AFTER = 1 << 12
#: most traces worth guarding in the outer loop; every generic cycle
#: pays one int-compare per trace guard, so keep the set small
_MAX_TRACES = 6
#: longest state chain considered for a single trace
_MAX_TRACE_LEN = 64
#: product cap when enumerating a transition function's successor set
_MAX_STATUS_PRODUCT = 256
#: fixed-point cap for the steady-body union; non-convergence falls
#: back to full (unpruned) per-state emission inside the fused body
_MAX_BODY_PASSES = 8


# ----------------------------------------------------------------------
# Transition tables
# ----------------------------------------------------------------------
def _transition_table(fn: Callable, statuses: List[Tuple[str, int]],
                      ) -> Optional[Dict[tuple, str]]:
    """The state *fn* returns for every status-value combination.

    Transition functions are pure over their env (generated straight
    from the FSM guards), so exhaustive evaluation over every status
    combination yields the exact successor set, and the combinations
    that stay in a loop let a fused loop test "does the FSM stay?"
    directly on the sampled status values.  Returns ``None`` when the
    product exceeds the cap or the function misbehaves.
    """
    total = 1
    for _, width in statuses:
        total <<= width
        if total > _MAX_STATUS_PRODUCT:
            return None
    names = [name for name, _ in statuses]
    table: Dict[tuple, str] = {}
    for combo in itertools.product(*(range(1 << width)
                                     for _, width in statuses)):
        try:
            target = fn(dict(zip(names, combo)))
        except Exception:  # noqa: BLE001 - disqualify, don't fuse
            return None
        if not isinstance(target, str):
            return None
        table[combo] = target
    return table


# ----------------------------------------------------------------------
# Trace detection (static, deterministic — the plan is part of the
# generated source, which the kernel cache persists)
# ----------------------------------------------------------------------
def _find_traces(names, sid, static_target, dynamic_fns, statuses):
    """Loop and linear traces over the FSM graph, disjoint by state.

    A loop trace carries its dynamic state's transition table."""
    tables: Dict[str, Dict[tuple, str]] = {}
    for index in sorted(dynamic_fns):
        table = _transition_table(dynamic_fns[index], statuses)
        if table and all(target in sid for target in table.values()):
            tables[names[index]] = table

    claimed: set = set()
    loops: List[tuple] = []
    for d_name in sorted(tables, key=sid.__getitem__):
        best = None
        for header in sorted(set(tables[d_name].values()),
                             key=sid.__getitem__):
            if header == d_name:
                chain = [d_name]  # self-loop
            else:
                chain = [header]
                cursor = header
                closed = False
                while len(chain) <= _MAX_TRACE_LEN:
                    nxt = static_target.get(cursor)
                    if nxt is None or nxt not in sid:
                        break
                    if nxt == d_name:
                        chain.append(d_name)
                        closed = True
                        break
                    if nxt in chain or nxt == cursor:
                        break
                    chain.append(nxt)
                    cursor = nxt
                if not closed:
                    continue
            if best is None or len(chain) > len(best):
                best = chain
        if best and not claimed.intersection(best):
            loops.append(("loop", best, tables[d_name]))
            claimed.update(best)

    # linear runs over the remaining static states
    next_of: Dict[str, str] = {}
    for name in names:
        target = static_target.get(name)
        if name not in claimed and target is not None \
                and target in sid and target != name:
            next_of[name] = target
    targeted = {target for target in next_of.values() if target in next_of}
    lines: List[tuple] = []
    for head in names:
        if head not in next_of or head in targeted:
            continue
        chain = [head]
        cursor = head
        while len(chain) < _MAX_TRACE_LEN:
            nxt = next_of[cursor]
            if nxt not in next_of or nxt in chain:
                break
            chain.append(nxt)
            cursor = nxt
        if len(chain) >= 2:
            lines.append(("line", chain, next_of[chain[-1]]))
            claimed.update(chain)

    loops.sort(key=lambda t: (-len(t[1]), sid[t[1][0]]))
    lines.sort(key=lambda t: (-len(t[1]), sid[t[1][0]]))
    return (loops + lines)[:_MAX_TRACES]


# ----------------------------------------------------------------------
# Incremental emission analysis (the "dirty clock")
# ----------------------------------------------------------------------
class _Clock:
    """Write-ordering state for incremental emission decisions.

    ``written`` maps a value key (signal local, or a memory pseudo-key)
    to the tick of its most recent write.  ``op_emit`` remembers when a
    combinational op last ran and what code it ran as; ``reg_commit``
    remembers a register's last commit tick and the D-expression text it
    latched (``None`` poisons the entry, forcing the next sample).
    """

    __slots__ = ("tick", "written", "op_emit", "reg_commit")

    def __init__(self) -> None:
        self.tick = 0
        self.written: Dict[object, int] = {}
        self.op_emit: Dict[int, Tuple[int, tuple]] = {}
        self.reg_commit: Dict[int, Tuple[int, Optional[str]]] = {}


def _walk(clock: _Clock, segments) -> List[frozenset]:
    """One pass over *segments*, returning the per-segment emission sets.

    A settle segment's set holds op keys; an edge segment's set holds
    register keys (SRAM writes and the transition call are
    unconditional and not recorded).
    """
    record: List[frozenset] = []
    for kind, ir in segments:
        emitted = set()
        if kind == "settle":
            for op_key, out_key, in_keys, op_lines in ir.settle_ops:
                previous = clock.op_emit.get(op_key)
                if previous is None or previous[1] != op_lines or any(
                        clock.written.get(key, -1) > previous[0]
                        for key in in_keys):
                    clock.tick += 1
                    clock.op_emit[op_key] = (clock.tick, op_lines)
                    clock.written[out_key] = clock.tick
                    emitted.add(op_key)
        else:  # edge
            sampled = []
            for sample in ir.samples:
                reg_key, d_key, d_text, en_text, _q_text, _q_key = sample
                if en_text is not None:
                    need = True  # dynamic enable: always sample
                else:
                    previous = clock.reg_commit.get(reg_key)
                    need = (previous is None or previous[1] is None
                            or previous[1] != d_text
                            or (d_key is not None and
                                clock.written.get(d_key, -1) > previous[0]))
                if need:
                    emitted.add(reg_key)
                    sampled.append(sample)
            for _lines, mem_key, _reads in ir.sram_writes:
                clock.tick += 1
                clock.written[mem_key] = clock.tick
            for sample in sampled:
                reg_key, _d_key, d_text, en_text, _q_text, q_key = sample
                clock.tick += 1
                clock.written[q_key] = clock.tick
                clock.reg_commit[reg_key] = (
                    clock.tick, None if en_text is not None else d_text)
        record.append(frozenset(emitted))
    return record


def _full_sets(segments) -> List[set]:
    """Unpruned emission sets — the always-sound fallback body."""
    sets = []
    for kind, ir in segments:
        if kind == "settle":
            sets.append({entry[0] for entry in ir.settle_ops})
        else:
            sets.append({sample[0] for sample in ir.samples})
    return sets


# ----------------------------------------------------------------------
# Rendering
# ----------------------------------------------------------------------
def _render_segments(segments, records, base: int) -> List[Tuple[int, str]]:
    """Emit the chosen subset of each segment at indent *base*.

    *records* holds one emission set per segment (from :func:`_walk`,
    a loop's fixed-point unions, or :func:`_full_sets`): a settle
    segment emits its chosen ops in topological order, each as the
    plain kernel's own lines.  Edge segments keep the plain kernel's
    internal order (samples, SRAM writes, transition, commits), except
    that a register whose old Q value is provably not read later in the
    same edge commits directly (no ``_qN`` staging temp) — IR
    expression texts are single tokens, so "read later" reduces to
    token membership in the suffix.  A dynamic edge (a loop's last)
    snapshots its status values into ``_g0``, ``_g1``, … for the
    caller's loop guard instead of calling the transition function.
    """
    out: List[Tuple[int, str]] = []
    for (kind, ir), chosen in zip(segments, records):
        if kind == "settle":
            for op_key, _out_key, _in_keys, op_lines in ir.settle_ops:
                if op_key in chosen:
                    out.extend((base + rel, text) for rel, text in op_lines)
            continue
        emitted = [sample for sample in ir.samples if sample[0] in chosen]
        # tokens read after the sample block: SRAM write operands and
        # the transition env, plus each later sample's own operands
        tail: set = set()
        for _lines, _mem_key, read_tokens in ir.sram_writes:
            tail.update(read_tokens)
        if ir.dynamic:
            tail.update(ir.env_tokens)
        reads_after: List[set] = [set() for _ in emitted]
        for position in range(len(emitted) - 1, -1, -1):
            reads_after[position] = set(tail)
            _rk, _dk, d_text, en_text, q_text, _qk = emitted[position]
            tail.add(d_text)
            if en_text is not None:
                tail.update((en_text, q_text))
        commits: List[Tuple[int, str]] = []
        temp = 0
        for position, sample in enumerate(emitted):
            _reg_key, _d_key, d_text, en_text, q_text, _q_key = sample
            if q_text not in reads_after[position]:
                if en_text is None:
                    out.append((base, f"{q_text} = {d_text}"))
                else:
                    out.append((base, f"{q_text} = {d_text} "
                                      f"if {en_text} else {q_text}"))
                continue
            if en_text is None:
                out.append((base, f"_q{temp} = {d_text}"))
            else:
                out.append(
                    (base, f"_q{temp} = {d_text} if {en_text} else {q_text}"))
            commits.append((base, f"{q_text} = _q{temp}"))
            temp += 1
        for write_lines, _mem_key, _read_tokens in ir.sram_writes:
            out.extend((base + rel, text) for rel, text in write_lines)
        if ir.dynamic:
            # snapshot the status values the transition would read
            # (register commits below may clobber the live locals); the
            # caller tests the loop guard on the snapshot and
            # reconstructs _e once, at trace exit
            for position, token in enumerate(ir.env_tokens):
                out.append((base, f"_g{position} = {token}"))
        out.extend(commits)
    return out


class FusionPlan:
    """What :func:`repro.sim.compiled._build_program` splices in."""

    __slots__ = ("prelude", "entry", "dispatch", "summary")

    def __init__(self) -> None:
        self.prelude: List[str] = []   # module-level (per-_make) defs
        self.entry: List[str] = []     # per-_run-call defs
        self.dispatch: List[Tuple[int, str]] = []  # inside the main loop
        self.summary: Dict[str, object] = {}


def build_fusion(*, state_ir, names, sid, static_target, dynamic_fns,
                 statuses, settle_blocks, n_states,
                 instrumentation) -> Optional[FusionPlan]:
    """Detect traces and render the fused dispatch blocks.

    Returns ``None`` when nothing fuses (the generated source is then
    identical to the plain compiled kernel).

    Every block is rendered straight from *state_ir* by
    :func:`_render_segments`.  A loop trace becomes one peel iteration
    (its ops chosen by a dirty-clock walk from an all-dirty entry), one
    steady ``while`` body (the fixed-point union of the per-pass
    emission sets) and the hoisted cycle, visit and transition
    accounting; a linear trace becomes one straight-line block.  A
    block that raises lands no accounting: the simulator runs the call
    again on the generic program (:class:`TracedSimulator`).  The
    plan's ``summary`` lists each trace: ``kind``, ``states``, and for
    a loop ``exits``, ``cycles_per_iteration``, ``body_passes``,
    ``converged`` and ``guarded`` (always true: a loop's exit test
    reads the sampled status values); for a linear run ``exit`` and
    ``cycles``.

    *instrumentation* is the simulator's
    :class:`~repro.sim.compiled.Instrumentation` (a fusing build has no
    fault).  With ``tallies`` each trace adds its transitions to ``tc``.
    With ``timers`` each trace body also accumulates its wall time and
    cycle count into its two ``pw`` slots (``n_states + 2j`` /
    ``n_states + 2j + 1``) — one clock read per trace entry and exit,
    so the hot fused iterations stay instrumentation-free.
    """
    tallies, timers = instrumentation.tallies, instrumentation.timers
    traces = _find_traces(names, sid, static_target, dynamic_fns, statuses)
    if not traces:
        return None

    plan = FusionPlan()
    trace_summaries: List[dict] = []
    ir_of = {ir.name: ir for ir in state_ir}

    def plain_settle(state_index: int, base: int) -> List[Tuple[int, str]]:
        return [(base + rel, text)
                for rel, text in settle_blocks[state_index]]

    for j, (kind, chain, extra) in enumerate(traces):
        chain_idx = [sid[name] for name in chain]
        span = len(chain)
        guard_states = ", ".join(str(index) for index in chain_idx)
        plan.prelude.append(f"_ts{j} = frozenset(({guard_states},))")
        plan.entry.append(f"_ok{j} = stop.isdisjoint(_ts{j})")
        head_idx = chain_idx[0]
        body: List[Tuple[int, str]] = []

        if kind == "loop":
            header = chain[0]
            d_name = chain[-1]
            d_idx = sid[d_name]
            # the loop-continuation test: with the status combinations
            # that re-enter the header enumerated (*extra* is the
            # dynamic state's transition table), the per-iteration
            # transition call + state-name compare collapses to an int
            # test on snapshotted status values; _e is reconstructed
            # once at trace exit
            combos = [combo for combo, target in extra.items()
                      if target == header]
            status_names = [name for name, _ in statuses]
            if not statuses:
                guard = "True"
            else:
                # prefer a separable guard: when the continue-set is a
                # product of per-status value sets, don't-care statuses
                # drop out and the common case is one int compare
                axis = [sorted({combo[k] for combo in combos})
                        for k in range(len(statuses))]
                size = 1
                for values in axis:
                    size *= len(values)
                separable = size == len(combos) and \
                    set(itertools.product(*axis)) == set(combos)
                if separable:
                    terms = []
                    for k, (values, (_n, width)) in enumerate(
                            zip(axis, statuses)):
                        if len(values) == (1 << width):
                            continue  # don't-care
                        if len(values) == 1:
                            terms.append(f"_g{k} == {values[0]}")
                        else:
                            items = ", ".join(map(str, values))
                            plan.prelude.append(
                                f"_hs{j}x{k} = frozenset(({items},))")
                            terms.append(f"_g{k} in _hs{j}x{k}")
                    guard = " and ".join(terms) if terms else "True"
                else:
                    tuples = ", ".join(repr(combo) for combo in combos)
                    plan.prelude.append(f"_hs{j} = frozenset(({tuples},))")
                    snap = ", ".join(f"_g{k}"
                                     for k in range(len(statuses)))
                    guard = f"({snap}) in _hs{j}"

            # peel: one full iteration from an all-dirty entry; steady
            # body: union of per-pass emissions to a fixed point
            body_segs: List[tuple] = []
            for name in chain:
                body_segs.append(("settle", ir_of[name]))
                body_segs.append(("edge", ir_of[name]))
            peel_segs = body_segs[1:]  # entry invariant: header settled
            clock = _Clock()
            peel_rec = _walk(clock, peel_segs)
            unions: List[set] = [set() for _ in body_segs]
            passes = 0
            converged = False
            for passes in range(1, _MAX_BODY_PASSES + 1):
                grew = False
                for union, rec in zip(unions, _walk(clock, body_segs)):
                    if not rec <= union:
                        union |= rec
                        grew = True
                if not grew:
                    converged = True
                    break
            if not converged:
                unions = _full_sets(body_segs)

            accounting = [f"n += {span} * _i"]
            accounting += [f"counts[{index}] += _i" for index in chain_idx]
            if timers:
                accounting.append(
                    f"pw[{n_states + 2 * j}] += _pc() - _pt")
                accounting.append(
                    f"pw[{n_states + 2 * j + 1}] += {span} * _i")
            if span > 1:
                accounting.append(f"_nt += {span - 1} * _i")
            if tallies:
                for a, b in zip(chain_idx, chain_idx[1:]):
                    accounting.append(f"tc[{a * n_states + b}] += _i")
            # the dynamic-edge tallies: of the _i completed iterations
            # every one but the last re-entered the header (the last is
            # settled by the reconstructed _e below)
            if header != d_name:
                accounting.append("_nt += _i - 1")
            if tallies:
                flat = d_idx * n_states + head_idx
                accounting.append(f"tc[{flat}] += _i - 1")

            body.append((0, f"if s == {head_idx} and _ok{j} "
                            f"and n + {span} <= max_cycles:"))
            if timers:
                body.append((1, "_pt = _pc()"))
            # n is constant inside the fused body (accounting is
            # hoisted), so the trip budget is a single division
            body.append((1, f"_lim = (max_cycles - n) // {span}"))
            body.extend(_render_segments(peel_segs, peel_rec, 1))
            body.append((1, "_i = 1"))
            body.append((1, f"while {guard} and _i < _lim:"))
            body.extend(_render_segments(body_segs, unions, 2))
            body.append((2, "_i += 1"))
            body.extend((1, text) for text in accounting)
            env = ", ".join(f"{name!r}: _g{k}"
                            for k, name in enumerate(status_names))
            body.append((1, f"_e = _t{d_idx}({{{env}}})"))
            body.append((1, f"if _e != {d_name!r}:"))
            body.append((2, "_nt += 1"))
            if tallies:
                body.append((1, f"tc[{d_idx * n_states} + _sid[_e]] += 1"))
            exits = sorted(set(extra.values()) - {header},
                           key=sid.__getitem__)
            body.append((1, f"if _e != {header!r}:"))
            body.append((2, "s = _sid[_e]"))
            if len(exits) == 1:
                body.extend(plain_settle(sid[exits[0]], 2))
            elif exits:
                for position, exit_name in enumerate(exits[:-1]):
                    opener = "if" if position == 0 else "elif"
                    body.append((2, f"{opener} s == {sid[exit_name]}:"))
                    body.extend(plain_settle(sid[exit_name], 3))
                body.append((2, "else:"))
                body.extend(plain_settle(sid[exits[-1]], 3))
            body.append((1, "else:"))
            body.append((2, f"s = {head_idx}"))
            body.extend(plain_settle(head_idx, 2))
            body.append((1, "continue"))
            trace_summaries.append({
                "kind": "loop", "states": list(chain),
                "exits": [name for name in exits],
                "cycles_per_iteration": span, "body_passes": passes,
                "converged": converged, "guarded": True,
            })
        else:  # linear run
            exit_name = extra
            exit_idx = sid[exit_name]
            segs: List[tuple] = []
            for position, name in enumerate(chain):
                if position > 0:
                    segs.append(("settle", ir_of[name]))
                segs.append(("edge", ir_of[name]))
            segs.append(("settle", ir_of[exit_name]))
            record = _walk(_Clock(), segs)

            body.append((0, f"if s == {head_idx} and _ok{j} "
                            f"and n + {span} <= max_cycles:"))
            if timers:
                body.append((1, "_pt = _pc()"))
            body.extend(_render_segments(segs, record, 1))
            body.append((1, f"n += {span}"))
            for index in chain_idx:
                body.append((1, f"counts[{index}] += 1"))
            if timers:
                body.append((1, f"pw[{n_states + 2 * j}] += "
                                f"_pc() - _pt"))
                body.append((1, f"pw[{n_states + 2 * j + 1}] += {span}"))
            body.append((1, f"_nt += {span}"))
            if tallies:
                edges = list(zip(chain_idx, chain_idx[1:] + [exit_idx]))
                for a, b in edges:
                    body.append((1, f"tc[{a * n_states + b}] += 1"))
            body.append((1, f"s = {exit_idx}"))
            body.append((1, "continue"))
            trace_summaries.append({
                "kind": "line", "states": list(chain), "exit": exit_name,
                "cycles": span,
            })

        plan.dispatch.extend(body)

    plan.summary = {
        "traces": trace_summaries,
        "n_traces": len(traces),
        "fused_states": sum(len(chain) for _, chain, _ in traces),
        "n_states": n_states,
    }
    return plan


# ----------------------------------------------------------------------
# The simulator
# ----------------------------------------------------------------------
class TracedSimulator(CompiledSimulator):
    """Compiled backend + hot-path trace fusion (``--backend=traced``).

    A tiered kernel.  An elaboration starts on the generic per-state
    program — the compiled kernel, filed under the ``compiled`` kernel
    key and shared with that backend — and switches to the fused
    program once its ``stats.cycles`` reach :attr:`promote_after`, so
    short runs never pay for fusion (a campaign testbench that rewinds
    the statistics rewinds the count with them).  It starts fused when
    the kernel cache already holds the fused program.  A run that
    crosses the promotion point is split there into two runner calls;
    the generic one writes its locals back and the fused one takes over
    from them, so the run is bit-identical to an unsplit one,
    statistics included.  A simulator instrumented with a fault never
    promotes: fault kernels do not fuse.  A fused call that raises is
    run again on the generic program, so a run that fails leaves what
    the compiled kernel leaves.

    Inherits every safety property of :class:`CompiledSimulator`: the
    same conservative fallback to the event kernel, the same entry/exit
    Signal sync, the same instrumentation (fused traces are regenerated
    with transition tallies and timers, not abandoned).  Designs
    with no fusable traces run exactly the compiled kernel.
    """

    _kernel_kind = "traced"
    #: cycles before promotion; ``0`` starts fused
    promote_after = PROMOTE_AFTER

    def __init__(self, name: str = "traced-sim", **kwargs) -> None:
        super().__init__(name, **kwargs)
        #: ``stats.cycles`` when fused code took over (None until then)
        self.promoted_at: Optional[int] = None

    def _load_or_build_program(self) -> CompiledProgram:
        if self.instrumentation.fault is not None:
            return self._generic_program()
        if self.promoted_at is not None \
                or self.stats.cycles >= self.promote_after:
            return self._promote()
        program = self._cached_program(self._kernel_kind)
        if program is None:
            return self._generic_program()
        self.promoted_at = self.stats.cycles
        return self._failing_as_generic(program)

    def _generic_program(self) -> CompiledProgram:
        program = self._cached_program("compiled")
        if program is None:
            program = self._file_program("compiled", *_build_program(self))
        return program

    def _promote(self) -> CompiledProgram:
        """Switch this elaboration to its fused program, from the kernel
        cache or a fresh build."""
        program = self._cached_program(self._kernel_kind)
        if program is None:
            program = self._file_program(
                self._kernel_kind, *_build_program(self, fuse=True))
        if self.promoted_at is None:
            self.promoted_at = self.stats.cycles
        self._program = program = self._failing_as_generic(program)
        return program

    def _failing_as_generic(self, program: CompiledProgram
                            ) -> CompiledProgram:
        """Make a fused *program* fail exactly as the generic one does.

        An operation that raises inside a fused trace (an SRAM write
        out of range, a strict divider) stops it part way through an
        iteration, with the trace's accounting not yet landed.  So when
        the fused runner raises, the call's starting point is put back
        (tracked signal values, memory words, SRAM counters, and the
        tallies the caller passed in) and the call runs again on the
        generic program, which raises the same error and leaves what
        the compiled kernel leaves.  An interrupt (a ``BaseException``
        that is not an ``Exception``) leaves the starting point.  The
        cost is one copy of those values and words per call.
        """
        if not program.fusion:
            return program  # nothing fused: already the generic code
        fused = program.runner
        facts = self._design_facts()
        tracked, srams = facts.tracked, facts.srams
        memories = [image._words for image in program.images]

        def run(start, max_cycles, stop, counts, tc, box, *pw):
            values = [signal.value for signal in tracked]
            words = [list(each) for each in memories]
            tallies = [(sram.writes, sram.oob_reads) for sram in srams]
            try:
                return fused(start, max_cycles, stop, counts, tc, box, *pw)
            except BaseException as exc:  # noqa: BLE001 - rerun below
                failure = exc
            for signal, value in zip(tracked, values):
                signal.value = value
            for each, saved in zip(memories, words):
                each[:] = saved
            for sram, (writes, oob_reads) in zip(srams, tallies):
                sram.writes, sram.oob_reads = writes, oob_reads
            for tally in (counts, tc, *pw):
                if tally is not None:
                    tally[:] = [0] * len(tally)
            box[:] = [start, 0, 0]
            if not isinstance(failure, Exception):
                raise failure
            self._generic_program().runner(start, max_cycles, stop, counts,
                                           tc, box, *pw)
            raise RuntimeError(f"the fused program raised {failure!r}, "
                               f"the generic one did not") from failure

        program.runner = run
        return program

    def _run(self, program: CompiledProgram, start: int, stop: frozenset,
             max_cycles: int) -> Tuple[int, int]:
        if program.kind == "compiled" and self.instrumentation.fault is None:
            left = self.promote_after - self.stats.cycles
            if left <= 0:
                program = self._promote()
            elif left < max_cycles:
                ran, final = self._execute(program, start, stop, left,
                                           resync=False)
                if final in stop:
                    self._resync(program)
                    return ran, final
                try:
                    fused = self._promote()
                except BaseException:
                    self._resync(program, best_effort=True)
                    raise
                more, final = self._execute(fused, final, stop,
                                            max_cycles - ran)
                return ran + more, final
        return self._execute(program, start, stop, max_cycles)

    def fusion_report(self) -> Optional[dict]:
        """What fused for this elaboration (None when the design fell
        back to the event kernel).

        ``promoted_at`` is the cycle at which fused code took over: 0
        when the elaboration started fused, None while it runs the
        generic program.  Once fused, the report also carries the
        program's trace summary when anything fused: ``traces`` (one
        entry per trace, keys as listed by :func:`build_fusion`),
        ``n_traces``, ``fused_states`` and ``n_states``.
        """
        program = self._ensure_program()
        if program is None:
            return None
        if program.kind == "compiled":
            return {"promoted_at": None}
        return dict(program.fusion or {}, promoted_at=self.promoted_at)
