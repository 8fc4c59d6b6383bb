"""Batched stimulus execution: one kernel, N input sets in lockstep.

Campaign-scale workloads (the suite at many seeds, fuzz waves, fault
campaigns) verify the *same* design over many stimulus sets, paying
elaboration, codegen lookup, program binding and settle once per set
even though every run executes identical generated code.  This module
amortizes those fixed costs: one elaboration advances N independent
stimulus sets — *lanes* — in lockstep.

Layout is struct-of-arrays: per-lane architectural state lives in
columns (:mod:`array`-module typed columns, one slot per lane, one
column per signal), and per-lane memory contents in plain word lists.
The generated kernel itself is unchanged — the fused steady-state
bodies emitted by the trace-fusion codegen run as-is; a lane is made
*resident* by restoring its column slice into the live signals and its
words into the bound memory images, advanced up to a cycle quantum, and
saved back.

Lanes that take different FSM paths diverge.  Each scheduling round
partitions the active lanes into *cohorts* keyed by current FSM state,
so every lane in a cohort re-enters the kernel at the same dispatch
state and the fused loop bodies still apply; the fraction of rounds
where all active lanes shared one cohort is reported as
``lanes_converged``.

:class:`BatchedSimulator` is also a complete single-stimulus backend
(``--backend=batched``): for one lane it is exactly the traced kernel,
so every differential harness cross-checks it for free.
"""

from __future__ import annotations

from array import array
from typing import Dict, List, Mapping, Optional, Sequence

from .compiled import _Unsupported
from .signal import Signal
from .trace import TracedSimulator

__all__ = ["BatchedSimulator", "BatchUnsupported", "BatchReport",
           "LaneBatch", "DEFAULT_QUANTUM", "probe_fast_path"]


def probe_fast_path(sim, done_signal):
    """Check the lockstep fast-path preconditions for an elaborated
    kernel; returns ``(program, stop_states, start_state)`` or raises
    :class:`BatchUnsupported` before any lane state is touched.

    Exposed so schedulers (the fuzz wave batcher, the serve job
    grouper) can probe whether a design's structure batches at all and
    adapt their grouping instead of paying a doomed batch dispatch.
    """
    ensure = getattr(sim, "_ensure_program", None)
    if ensure is None:
        raise BatchUnsupported(
            f"backend {type(sim).__name__} has no compiled program")
    program = ensure()
    if program is None:
        raise BatchUnsupported(
            f"design not compilable ({sim.fallback_reason})")
    blocked = sim._fastpath_blocked(program)
    if blocked is not None:
        raise BatchUnsupported(blocked)
    stop = program.stop_states(done_signal)
    start = program.sid.get(program.controller.state)
    if stop is None:
        raise BatchUnsupported(
            f"{done_signal.name!r} is not a Moore control line")
    if start is None:
        raise BatchUnsupported(
            f"controller parked in unknown state "
            f"{program.controller.state!r}")
    return program, stop, start

#: cycles a lane advances per scheduling round; large enough that the
#: save/restore of a lane costs well under a round's simulation work,
#: small enough that diverged lanes regroup into cohorts quickly
DEFAULT_QUANTUM = 8192

#: one 64-bit slot per lane; wider signals fall back to a plain list
_MAX_ARRAY_VALUE = (1 << 64) - 1


class BatchUnsupported(RuntimeError):
    """The design cannot run through the batch fast path.

    Raised before any lane state is touched, so the caller can fall
    back to running the lanes serially with identical semantics.
    """


class BatchedSimulator(TracedSimulator):
    """Trace-fusing kernel with a batch-kind cache key (``batched``).

    Single-stimulus behaviour is identical to :class:`TracedSimulator`
    — same fusion, same conservative fallbacks — which keeps every
    existing differential net valid for this backend, except that it
    starts fused: lanes run the fused program from their first cycle.
    The batch engine (:class:`LaneBatch`) drives instances of this
    class N lanes at a time.
    """

    _kernel_kind = "batched"
    promote_after = 0

    def __init__(self, name: str = "batched-sim", **kwargs) -> None:
        super().__init__(name, **kwargs)

    def _load_or_build_program(self):
        if self.fault_spec is not None:
            raise _Unsupported("fault injection on batched kernels")
        return super()._load_or_build_program()


class _SignalColumns:
    """Struct-of-arrays signal state: one column per signal, one slot
    per lane.  Values up to 64 bits use ``array('Q')`` columns; wider
    signals (none of the current benchmarks, but legal) use lists."""

    __slots__ = ("signals", "columns")

    def __init__(self, signals: Sequence[Signal], n_lanes: int) -> None:
        self.signals = list(signals)
        self.columns: List = []
        for sig in self.signals:
            value = sig.value
            if sig.mask <= _MAX_ARRAY_VALUE:
                self.columns.append(array("Q", [value]) * n_lanes)
            else:
                self.columns.append([value] * n_lanes)

    def save(self, lane: int) -> None:
        for sig, column in zip(self.signals, self.columns):
            column[lane] = sig.value

    def restore(self, lane: int) -> None:
        for sig, column in zip(self.signals, self.columns):
            sig.value = column[lane]


class BatchReport:
    """Per-lane results plus lockstep scheduling statistics."""

    __slots__ = ("batch_size", "cycles", "evaluations", "transitions",
                 "final_states", "done", "timed_out", "samples", "rounds",
                 "converged_rounds")

    def __init__(self, batch_size: int) -> None:
        self.batch_size = batch_size
        self.cycles: List[int] = [0] * batch_size
        self.evaluations: List[int] = [0] * batch_size
        self.transitions: List[int] = [0] * batch_size
        self.final_states: List[Optional[str]] = [None] * batch_size
        self.done: List[bool] = [False] * batch_size
        self.timed_out: List[bool] = [False] * batch_size
        #: per-lane ``{name: value}`` of the requested sample signals,
        #: read the moment the lane finished (still resident)
        self.samples: List[Dict[str, int]] = [{} for _ in range(batch_size)]
        self.rounds = 0
        self.converged_rounds = 0

    @property
    def lanes_converged(self) -> float:
        """Fraction of rounds in which every active lane shared one
        cohort (1.0 = the batch never diverged)."""
        if not self.rounds:
            return 1.0
        return self.converged_rounds / self.rounds

    @property
    def all_done(self) -> bool:
        return all(self.done)


class LaneBatch:
    """Advance N stimulus sets through one elaborated design.

    *sim* must be a compiled-family kernel already elaborated (its
    bound memory images are used as scratch space — pass fresh images,
    not a lane's own).  *lane_memories* holds one ``{name: MemoryImage}``
    mapping per lane; every image named in *bound_memories* is swapped
    by content around each lane's quanta, so the lane mappings keep
    ownership of their words.  *sample_signals* names design signals to
    read back per lane at completion (e.g. the RTG's output lines).
    """

    def __init__(self, sim, done_signal: Signal,
                 bound_memories: Mapping[str, object],
                 lane_memories: Sequence[Mapping[str, object]],
                 *,
                 sample_signals: Optional[Mapping[str, Signal]] = None,
                 quantum: int = DEFAULT_QUANTUM) -> None:
        if quantum < 1:
            raise ValueError(f"quantum must be >= 1, got {quantum}")
        self.sim = sim
        self.done_signal = done_signal
        self.quantum = quantum
        self.sample_signals = dict(sample_signals or {})
        self._lane_words: List[List[tuple]] = []
        for lane_map in lane_memories:
            pairs = []
            for name, bound in bound_memories.items():
                image = lane_map.get(name)
                if image is None:
                    raise BatchUnsupported(
                        f"lane is missing memory {name!r}")
                if image is bound:
                    raise BatchUnsupported(
                        f"lane memory {name!r} aliases the bound scratch "
                        f"image; batch lanes need their own storage")
                if (image.width, image.depth) != (bound.width, bound.depth):
                    raise BatchUnsupported(
                        f"lane memory {name!r} is "
                        f"{image.width}x{image.depth}, design binds "
                        f"{bound.width}x{bound.depth}")
                pairs.append((bound._words, image._words))
            self._lane_words.append(pairs)
        self.batch_size = len(self._lane_words)

    # ------------------------------------------------------------------
    def _prepare(self):
        """Fast-path preconditions; raises BatchUnsupported otherwise."""
        return probe_fast_path(self.sim, self.done_signal)

    def run(self, max_cycles: int = 1_000_000) -> BatchReport:
        """Run every lane to ``done`` (or its cycle budget) in lockstep
        rounds of at most ``quantum`` cycles per lane.

        Lanes that exhaust *max_cycles* are recorded as ``timed_out``
        rather than raising, so one stuck stimulus cannot poison its
        batch — the caller chooses the failure semantics.
        """
        report = BatchReport(self.batch_size)
        if not self.batch_size:
            return report
        program, stop, start = self._prepare()
        sim = self.sim
        sim.settle()

        signals = list(sim._signals.values())
        columns = _SignalColumns(signals, self.batch_size)
        states = array("l", [start]) * self.batch_size
        entered = bytearray(self.batch_size)
        resident = -1

        def swap_to(lane: int) -> int:
            nonlocal resident
            if lane == resident:
                return 0
            if resident >= 0:
                # lazy writeback: signals were saved after the quantum,
                # memory words go home only when the slot is reused
                for bound_words, lane_words in self._lane_words[resident]:
                    lane_words[:] = bound_words
            for bound_words, lane_words in self._lane_words[lane]:
                bound_words[:] = lane_words
            columns.restore(lane)
            resident = lane
            if not entered[lane]:
                # first residency: the snapshot was settled against the
                # scratch memory contents, so re-derive every
                # combinational value from this lane's words
                entered[lane] = 1
                sim._worklist.clear()
                sim._worklist.extend(program.comb_components)
                sim.settle()
                return 1
            return 0

        stats = sim.stats
        controller = program.controller
        active = list(range(self.batch_size))
        while active:
            report.rounds += 1
            cohorts: Dict[int, List[int]] = {}
            for lane in active:
                cohorts.setdefault(states[lane], []).append(lane)
            if len(cohorts) == 1:
                report.converged_rounds += 1
            survivors: List[int] = []
            for state_id in sorted(cohorts):
                for lane in cohorts[state_id]:
                    swap_to(lane)
                    budget = min(self.quantum,
                                 max_cycles - report.cycles[lane])
                    evals = stats.evaluations
                    trans = controller.transitions
                    ran, final = sim._execute(program, states[lane], stop,
                                              budget)
                    report.cycles[lane] += ran
                    report.evaluations[lane] += stats.evaluations - evals
                    report.transitions[lane] += (controller.transitions
                                                 - trans)
                    states[lane] = final
                    columns.save(lane)
                    if final in stop:
                        report.done[lane] = True
                        report.final_states[lane] = program.names[final]
                        if self.sample_signals:
                            report.samples[lane] = {
                                name: signal.value
                                for name, signal
                                in self.sample_signals.items()}
                    elif report.cycles[lane] >= max_cycles:
                        report.timed_out[lane] = True
                        report.final_states[lane] = program.names[final]
                    else:
                        survivors.append(lane)
            active = survivors
        # flush the last resident lane's memory words home
        if resident >= 0:
            for bound_words, lane_words in self._lane_words[resident]:
                lane_words[:] = bound_words
        return report
