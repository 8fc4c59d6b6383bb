"""Verify a compiled design against its golden software execution.

This is the infrastructure's core contract (paper §2): run the original
algorithm in software and the compiled hardware in simulation over the
same memory contents, then compare data word by word.  Any divergence —
a scheduling race, a mis-bound mux, a broken optimization pass — shows
up as a concrete address/expected/actual triple.

The oracle is two functions, and every entry point that checks hardware
against software calls them: the suite and the daemon
(:func:`verify_design`, :func:`verify_design_batch`), fault campaigns,
the fuzzer, triage and the automated flow.  :func:`golden_reference`
prepares the start images and runs golden on copies of them;
:func:`check_memories` compares the hardware's final images with
golden's on every array but the compiler's spill memory, or on the
output arrays only.
"""

from __future__ import annotations

import time
from contextlib import ExitStack
from dataclasses import dataclass, field
from typing import (Callable, Dict, List, Mapping, Optional, Sequence,
                    Tuple, Union)

from ..compiler.partitioning import SPILL_MEMORY
from ..compiler.pipeline import Design
from ..compiler.spec import MemorySpec
from ..golden.runner import run_golden
from ..obs.coverage import CoverageCollector, CoverageReport
from ..obs.trace import span
from ..rtg.context import ReconfigurationContext
from ..rtg.executor import RtgBatchExecutor, RtgExecutor, RtgRunResult
from ..sim.probe import Probe
from ..util.files import MemoryImage, MemoryMismatch, compare_images

__all__ = ["MemoryCheck", "VerificationResult", "verify_design",
           "BatchVerificationResult", "verify_design_batch",
           "prepare_images", "golden_reference", "check_memories"]

Inputs = Optional[Mapping[str, Union[MemoryImage, Sequence[int]]]]


@dataclass
class MemoryCheck:
    """The comparison outcome for one memory resource."""

    memory: str
    role: str
    words: int
    mismatches: List[MemoryMismatch] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.mismatches


@dataclass
class VerificationResult:
    """Everything one verification run produced."""

    design: str
    checks: List[MemoryCheck]
    cycles: int
    reconfigurations: int
    golden_seconds: float
    simulation_seconds: float
    rtg_result: Optional[RtgRunResult] = None
    evaluations: int = 0
    backend: str = "event"
    #: functional coverage, populated when ``verify_design(coverage=True)``
    coverage: Optional[CoverageReport] = None
    #: per-signal ``(time, value)`` samples for ``probe_signals`` (the
    #: paper's "access to values on certain connections")
    probe_samples: Dict[str, List[Tuple[int, int]]] = \
        field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(check.passed for check in self.checks)

    def failed_checks(self) -> List[MemoryCheck]:
        return [check for check in self.checks if not check.passed]

    def summary(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        lines = [
            f"[{status}] {self.design}: {self.cycles} cycles, "
            f"{self.reconfigurations} reconfiguration(s), "
            f"sim {self.simulation_seconds:.3f}s, "
            f"golden {self.golden_seconds:.3f}s"
        ]
        for check in self.checks:
            if check.passed:
                lines.append(f"  {check.memory}: {check.words} words OK")
            else:
                lines.append(
                    f"  {check.memory}: {len(check.mismatches)} "
                    f"mismatch(es), first: "
                    f"{check.mismatches[0].describe(16)}"
                )
        return "\n".join(lines)


def prepare_images(design: Design,
                   inputs: Inputs = None) -> Dict[str, MemoryImage]:
    """Fresh images for every design memory, filled from *inputs*.

    *inputs* values may be :class:`MemoryImage` (copied) or plain word
    sequences.  Memories without input data start zeroed.  The internal
    spill memory is never initialised from inputs.
    """
    inputs = dict(inputs or {})
    images: Dict[str, MemoryImage] = {}
    for name, spec in design.arrays.items():
        if name == SPILL_MEMORY:
            images[name] = MemoryImage(spec.width, spec.depth, name=name)
            continue
        supplied = inputs.pop(name, None)
        if supplied is None:
            images[name] = MemoryImage(spec.width, spec.depth, name=name)
        elif isinstance(supplied, MemoryImage):
            if supplied.width != spec.width or supplied.depth != spec.depth:
                raise ValueError(
                    f"input {name!r}: image is "
                    f"{supplied.width}x{supplied.depth}, design expects "
                    f"{spec.width}x{spec.depth}"
                )
            images[name] = supplied.copy(name=name)
        else:
            images[name] = MemoryImage(spec.width, spec.depth,
                                       words=list(supplied), name=name)
    if inputs:
        raise ValueError(
            f"inputs supplied for unknown arrays: {sorted(inputs)}"
        )
    return images


def _compared(design: Design, compare: str) -> Dict[str, MemorySpec]:
    """The arrays the oracle checks: every one but the spill memory for
    ``"all"``, the ``role="output"`` ones for ``"outputs"``."""
    if compare not in ("all", "outputs"):
        raise ValueError(f"compare must be 'all' or 'outputs', got {compare!r}")
    return {name: spec for name, spec in design.arrays.items()
            if name != SPILL_MEMORY
            and (compare == "all" or spec.role == "output")}


def golden_reference(design: Design, func: Callable, inputs: Inputs = None
                     ) -> Tuple[Dict[str, MemoryImage],
                                Dict[str, MemoryImage]]:
    """Run *func* in software on *design*'s start images.

    Returns ``(start, golden)``: *start* holds a fresh image of every
    array, spill memory included, filled from *inputs* as
    :func:`prepare_images` does, for the hardware run to start from;
    *golden* holds *func*'s result on copies of them, for every array
    but the spill memory, which the compiler adds and software never
    sees.
    """
    start = prepare_images(design, inputs)
    arrays = _compared(design, "all")
    golden = {name: start[name].copy() for name in arrays}
    run_golden(func, arrays, golden, design.params)
    return start, golden


def check_memories(design: Design, golden: Mapping[str, MemoryImage],
                   memories: Mapping[str, MemoryImage], *,
                   compare: str = "all",
                   limit: int = 32) -> List[MemoryCheck]:
    """Compare the hardware's final *memories* with *golden*, word by word.

    One :class:`MemoryCheck` per array in *design* order: every array
    but the spill memory for ``compare="all"``, only ``role="output"``
    arrays for ``"outputs"``.  Each check keeps at most *limit*
    mismatches.
    """
    return [MemoryCheck(name, spec.role, words=spec.depth,
                        mismatches=compare_images(golden[name],
                                                  memories[name],
                                                  limit=limit))
            for name, spec in _compared(design, compare).items()]


def verify_design(design: Design, func: Callable, inputs: Inputs = None,
                  *,
                  compare: str = "all",
                  fsm_mode: str = "generated",
                  control_mode: str = "generated",
                  backend: str = "event",
                  max_cycles: int = 50_000_000,
                  mismatch_limit: int = 32,
                  trace_dir=None,
                  coverage: bool = False,
                  probe_signals: Sequence[str] = ()) -> VerificationResult:
    """Run golden + simulation over identical inputs and compare memories.

    ``compare`` selects which memories are checked: ``"all"`` (every
    array except the spill memory) or ``"outputs"`` (only
    ``role="output"`` arrays).  ``trace_dir`` dumps one VCD waveform
    per executed configuration.  ``backend`` picks the simulation kernel
    (see :data:`repro.sim.SIMULATOR_BACKENDS`); every backend produces
    identical verdicts, they differ only in speed.  ``coverage=True``
    collects FSM state/transition and operator-activation coverage into
    ``result.coverage`` (see :mod:`repro.obs.coverage`).
    ``probe_signals`` names signals to record: every configuration that
    has a signal of that name gets a :class:`~repro.sim.Probe` attached
    for its run (scoped as a context manager, so no watcher survives
    the run) and the ``(time, value)`` samples land in
    ``result.probe_samples``.  Note a probe is a foreign watcher to the
    compiled kernel, which then conservatively falls back to the event
    kernel — observation costs speed, never correctness.
    """
    started = time.perf_counter()
    with span("verify.golden", "verify", design=design.name):
        base_images, golden_images = golden_reference(design, func, inputs)
    golden_seconds = time.perf_counter() - started

    collector = CoverageCollector() if coverage else None
    context = ReconfigurationContext.from_rtg(design.rtg,
                                              initial=base_images)
    executor = RtgExecutor(design.rtg, context, fsm_mode=fsm_mode,
                           control_mode=control_mode, backend=backend,
                           max_cycles_per_configuration=max_cycles,
                           trace_dir=trace_dir, coverage=collector)
    probe_samples: Dict[str, List[Tuple[int, int]]] = {}
    started = time.perf_counter()
    with span("verify.simulate", "verify", design=design.name,
              backend=backend), ExitStack() as probes:
        if probe_signals:
            attached: List[Tuple[str, Probe]] = []

            def attach_probes(sim_design) -> None:
                for name in probe_signals:
                    signal = sim_design.sim.signals.get(name)
                    if signal is not None:
                        probe = probes.enter_context(
                            Probe(sim_design.sim, signal))
                        attached.append((name, probe))

            executor.on_configure = attach_probes
        rtg_result = executor.run()
        if probe_signals:
            for name, probe in attached:
                probe_samples.setdefault(name, []).extend(probe.samples)
    simulation_seconds = time.perf_counter() - started

    with span("verify.compare", "verify", design=design.name):
        checks = check_memories(design, golden_images, context.memories,
                                compare=compare, limit=mismatch_limit)

    result = VerificationResult(
        design=design.name,
        checks=checks,
        cycles=rtg_result.total_cycles,
        reconfigurations=rtg_result.reconfigurations,
        golden_seconds=golden_seconds,
        simulation_seconds=simulation_seconds,
        rtg_result=rtg_result,
        evaluations=rtg_result.total_evaluations,
        backend=backend,
        coverage=collector.report if collector is not None else None,
        probe_samples=probe_samples,
    )
    return result


@dataclass
class BatchVerificationResult:
    """One batched verification: N stimulus sets, one elaboration each
    configuration, per-lane verdicts."""

    design: str
    backend: str
    batch_size: int
    #: one full :class:`VerificationResult` per stimulus set, in input
    #: order; each lane's ``simulation_seconds`` is the amortized
    #: per-lane share of the batch window
    lanes: List[VerificationResult]
    golden_seconds: float
    #: wall-clock of the whole batch simulation, elaborations included
    simulation_seconds: float
    elaborations: int = 0
    #: coverage is a per-run concern; batch runs don't collect it
    coverage: Optional[CoverageReport] = None

    @property
    def passed(self) -> bool:
        return all(lane.passed for lane in self.lanes)

    # aggregate views so recorders/metrics can treat a batch result
    # like a plain VerificationResult
    @property
    def cycles(self) -> int:
        return sum(lane.cycles for lane in self.lanes)

    @property
    def evaluations(self) -> int:
        return sum(lane.evaluations for lane in self.lanes)

    @property
    def reconfigurations(self) -> int:
        return sum(lane.reconfigurations for lane in self.lanes)

    @property
    def lane_seconds(self) -> float:
        """Amortized simulation seconds per stimulus set."""
        if not self.batch_size:
            return 0.0
        return self.simulation_seconds / self.batch_size

    def summary(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        lines = [
            f"[{status}] {self.design}: batch of {self.batch_size} "
            f"({self.backend}), sim {self.simulation_seconds:.3f}s "
            f"({self.lane_seconds * 1000:.1f}ms/lane), "
            f"golden {self.golden_seconds:.3f}s"
        ]
        for index, lane in enumerate(self.lanes):
            if not lane.passed:
                failed = lane.failed_checks()
                lines.append(
                    f"  lane {index}: {len(failed)} failed check(s), "
                    f"first: {failed[0].mismatches[0].describe(16)}")
        return "\n".join(lines)


def verify_design_batch(design: Design, func: Callable,
                        inputs_list: Sequence[Inputs],
                        *,
                        compare: str = "all",
                        fsm_mode: str = "generated",
                        control_mode: str = "generated",
                        backend: str = "event",
                        max_cycles: int = 50_000_000,
                        mismatch_limit: int = 32
                        ) -> BatchVerificationResult:
    """Verify *design* against N stimulus sets, elaborating each
    configuration once.

    Equivalent to calling :func:`verify_design` once per entry of
    *inputs_list* on the same *backend* — same golden runs, same
    word-by-word comparisons, same verdicts and cycles — but the
    stimulus sets run one after another on one elaboration per
    configuration, rewound before each (see
    :class:`~repro.rtg.RtgBatchExecutor`), so elaboration and kernel
    binding are paid once per configuration instead of once per
    stimulus set.
    """
    golden_started = time.perf_counter()
    with span("verify.golden", "verify", design=design.name,
              batch=len(inputs_list)):
        references = [golden_reference(design, func, inputs)
                      for inputs in inputs_list]
    golden_seconds = time.perf_counter() - golden_started

    contexts = [ReconfigurationContext.from_rtg(design.rtg, initial=start)
                for start, _ in references]
    started = time.perf_counter()
    with span("verify.simulate", "verify", design=design.name,
              backend=backend, batch=len(inputs_list)):
        batch_result = RtgBatchExecutor(
            design.rtg, contexts, fsm_mode=fsm_mode,
            control_mode=control_mode, backend=backend,
            max_cycles_per_configuration=max_cycles).run()
    simulation_seconds = time.perf_counter() - started
    amortized = simulation_seconds / max(len(inputs_list), 1)

    lanes: List[VerificationResult] = []
    with span("verify.compare", "verify", design=design.name,
              batch=len(inputs_list)):
        for lane, context in enumerate(contexts):
            rtg_result = batch_result.lanes[lane]
            lanes.append(VerificationResult(
                design=design.name,
                checks=check_memories(design, references[lane][1],
                                      context.memories, compare=compare,
                                      limit=mismatch_limit),
                cycles=rtg_result.total_cycles,
                reconfigurations=rtg_result.reconfigurations,
                golden_seconds=golden_seconds / max(len(inputs_list), 1),
                simulation_seconds=amortized,
                rtg_result=rtg_result,
                evaluations=rtg_result.total_evaluations,
                backend=backend,
            ))

    result = BatchVerificationResult(
        design=design.name,
        backend=backend,
        batch_size=len(inputs_list),
        lanes=lanes,
        golden_seconds=golden_seconds,
        simulation_seconds=simulation_seconds,
        elaborations=batch_result.elaborations,
    )
    return result
