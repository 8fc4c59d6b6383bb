"""Fault-injection campaigns: fan a faultload out, classify every run.

Each injection replays the design over the same stimulus with exactly
one fault armed and classifies the outcome against the fault-free
golden execution:

``masked``
    The run finished and every output memory matches golden — the
    fault was absorbed (overwritten, dead logic, out of the live cone).
``sdc``
    The run finished but at least one output word differs: silent data
    corruption, the verdict dependability studies care most about.
``hang``
    The design never asserted ``done`` within the cycle budget
    (derived from the fault-free cycle count × ``hang_factor``).
``crash``
    The simulation itself failed — combinational loop from a forced
    line, out-of-bounds write from a flipped address register, etc.

A campaign elaborates its design once: every injection rewinds that
one live elaboration to its post-elaboration state instead of building
the hardware again (see :class:`_Testbench`).

:func:`run_campaign` mirrors the test-suite fork pool: the design,
its elaboration, golden images and faultload live in a module global
that workers inherit over ``fork``, each task ships only a fault index,
workers never raise, and the ledger is touched only in the parent after
the pool has drained.  With ``backend="batched"`` the ``mem_flip`` subset
of the faultload — the only kind that needs no kernel changes, just
different initial images — advances many injections per elaboration in
lockstep lanes, falling back to serial classification whenever a lane
times out (a hang poisons the whole batch's timeout signal).
"""

from __future__ import annotations

import multiprocessing
import time
import traceback
from concurrent.futures import (ProcessPoolExecutor,
                                TimeoutError as FuturesTimeout,
                                as_completed)
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence

from ..compiler.partitioning import SPILL_MEMORY
from ..compiler.pipeline import Design
from ..core.verification import prepare_images
from ..golden.runner import run_golden
from ..obs.trace import span
from ..rtg.context import ReconfigurationContext
from ..rtg.executor import RtgBatchExecutor
from ..sim.batched import BatchUnsupported
from ..sim.errors import SimulationTimeout
from ..translate.to_sim import build_simulation
from ..util.files import MemoryImage, compare_images
from .faultload import FaultDescriptor
from .hooks import attach_fault

__all__ = ["InjectionResult", "CampaignReport", "apply_mem_flip",
           "run_injection", "run_campaign", "VERDICTS"]

VERDICTS = ("masked", "sdc", "hang", "crash")


@dataclass
class InjectionResult:
    """The classified outcome of one injection run."""

    fault: Optional[FaultDescriptor]
    verdict: str  # masked | sdc | hang | crash
    cycles: int
    seconds: float
    note: str = ""
    #: how the fault took effect: kernel | watcher | cycle-hook |
    #: image | none (fault-free baseline)
    mechanism: str = "none"


@dataclass
class CampaignReport:
    """One campaign: per-fault verdicts plus the fault-free baseline."""

    app: str
    backend: str
    results: List[InjectionResult] = field(default_factory=list)
    baseline: Optional[InjectionResult] = None
    wall_seconds: float = 0.0
    jobs: int = 1
    seed: int = 0
    cycle_budget: int = 0
    #: faults the campaign set out to classify; > len(results) when a
    #: time budget stopped the campaign early
    planned: int = 0

    def tally(self) -> Dict[str, int]:
        counts = {verdict: 0 for verdict in VERDICTS}
        for result in self.results:
            counts[result.verdict] = counts.get(result.verdict, 0) + 1
        return counts

    def coverage_table(self) -> Dict[str, Dict[str, int]]:
        """Fault-kind × verdict counts (the fault-coverage table)."""
        table: Dict[str, Dict[str, int]] = {}
        for result in self.results:
            kind = result.fault.kind if result.fault else "none"
            row = table.setdefault(kind,
                                   {verdict: 0 for verdict in VERDICTS})
            row[result.verdict] = row.get(result.verdict, 0) + 1
        return table

    @property
    def hang_reproducers(self) -> List[FaultDescriptor]:
        return [result.fault for result in self.results
                if result.verdict == "hang" and result.fault is not None]

    @property
    def sdc_results(self) -> List[InjectionResult]:
        """Silent-data-corruption verdicts — the divergence-triage feed."""
        return [result for result in self.results
                if result.verdict == "sdc" and result.fault is not None]

    def summary(self) -> str:
        counts = self.tally()
        lines = [
            f"campaign {self.app} ({self.backend}): "
            f"{len(self.results)} injection(s), "
            + ", ".join(f"{counts[v]} {v}" for v in VERDICTS)
            + f", wall {self.wall_seconds:.2f}s (jobs={self.jobs}, "
              f"budget {self.cycle_budget} cycles)"
        ]
        if self.planned > len(self.results):
            lines.append(
                f"  time budget hit: {len(self.results)}/{self.planned} "
                f"fault(s) classified")
        for kind, row in sorted(self.coverage_table().items()):
            total = sum(row.values())
            lines.append(
                f"  {kind:<9} " +
                " ".join(f"{verdict}={row[verdict]}" for verdict in VERDICTS)
                + f"  ({total} total)")
        return "\n".join(lines)


def apply_mem_flip(images: Mapping[str, MemoryImage],
                   fault: FaultDescriptor) -> None:
    """Flip one bit of one word in *images* (pre-run SEU)."""
    image = images.get(fault.target)
    if image is None:
        raise ValueError(f"no memory named {fault.target!r}")
    if not 0 <= fault.word < image.depth:
        raise ValueError(f"word {fault.word} out of range for "
                         f"{fault.target!r} (depth {image.depth})")
    if fault.bit >= image.width:
        raise ValueError(f"bit {fault.bit} out of range for "
                         f"{fault.target!r} (width {image.width})")
    image.write(fault.word, image.read(fault.word) ^ (1 << fault.bit))


class _Testbench:
    """One live elaboration of a design, rewound before every injection.

    Building the hardware costs more than a short injection runs, so a
    campaign elaborates its design once — in the parent, before the
    fork pool starts, so every worker inherits it — and saves the state
    right after elaboration: every signal value, the controller's
    state and counters, the kernel's statistics, simulated time, each
    clock domain's cycle count, and every memory's words.  SRAM
    ``reads``/``writes`` counters are not restored; nothing in a
    campaign reads them.

    Only single-configuration designs qualify: no RTG transition may
    leave the start configuration.
    """

    def __init__(self, design: Design, inputs: Optional[Mapping], *,
                 backend: str, fsm_mode: str) -> None:
        rtg = design.rtg
        rtg.validate()
        if design.multi_configuration or rtg.transitions_from(rtg.start):
            raise ValueError("fault injection supports "
                             "single-configuration designs")
        ref = rtg.configurations[rtg.start]
        self.context = ReconfigurationContext.from_rtg(
            rtg, initial=prepare_images(design, inputs))
        with span("inject.elaborate", "inject", design=design.name,
                  backend=backend):
            self.design = build_simulation(
                ref.datapath, ref.fsm, memories=self.context.memories,
                fsm_mode=fsm_mode, backend=backend)
        sim = self.design.sim
        controller = self.design.controller
        self._signals = [(signal, signal.value)
                         for signal in sim._signals.values()]
        self._controller = (controller.state, controller.transitions,
                            controller._idle, controller.invocations)
        self._stats = sim.stats.as_dict()
        self._now = sim.now
        self._domains = [(domain, domain.cycles)
                         for domain in sim._domains.values()]
        self._words = [(image._words, list(image._words))
                       for image in self.design.memories.values()]
        self._combinational = [component
                               for component in sim._components.values()
                               if hasattr(component, "evaluate")]

    def rewind(self) -> None:
        """Return the live design to its post-elaboration state."""
        # in place: compiled kernels are bound to these very lists
        for words, saved in self._words:
            words[:] = saved
        for signal, value in self._signals:
            signal.value = value
        controller = self.design.controller
        (controller.state, controller.transitions, controller._idle,
         controller.invocations) = self._controller
        sim = self.design.sim
        for name, value in self._stats.items():
            setattr(sim.stats, name, value)
        sim.now = self._now
        for domain, cycles in self._domains:
            domain.cycles = cycles
            domain.rearm()  # enables were restored without their watchers
        sim._worklist.clear()
        sim._staged.clear()

    def flip(self, fault: FaultDescriptor) -> None:
        """Apply a ``mem_flip`` to the live image, then re-derive every
        combinational value (SRAM and ROM read paths included) from
        the flipped words, as elaborating on them would."""
        apply_mem_flip(self.context.memories, fault)
        sim = self.design.sim
        sim._worklist.extend(self._combinational)
        sim.settle()


def _golden_images(design: Design, func: Callable,
                   inputs: Optional[Mapping]) -> Dict[str, MemoryImage]:
    """The fault-free software result every run is classified against."""
    images = {name: image
              for name, image in prepare_images(design, inputs).items()
              if name != SPILL_MEMORY}
    array_specs = {name: spec for name, spec in design.arrays.items()
                   if name != SPILL_MEMORY}
    run_golden(func, array_specs, images, design.params)
    return images


def _classify(design: Design, context, golden_images, fault,
              mismatch_limit: int) -> InjectionResult:
    """Compare memories after a completed run (masked vs sdc).

    Fault-free runs compare every array (the bit-exact differential
    guarantee); faulted runs compare output-role arrays, since a
    ``mem_flip`` on an input memory diverges from golden's pristine
    inputs by construction.
    """
    diffs = []
    for name, spec in design.arrays.items():
        if name == SPILL_MEMORY:
            continue
        if fault is not None and spec.role != "output":
            continue
        mismatches = compare_images(golden_images[name],
                                    context.memory(name),
                                    limit=mismatch_limit)
        if mismatches:
            diffs.append((name, mismatches))
    if diffs:
        name, mismatches = diffs[0]
        return InjectionResult(
            fault, "sdc", 0, 0.0,
            note=f"{name}: {mismatches[0].describe(16)}")
    return InjectionResult(fault, "masked", 0, 0.0)


def run_injection(design: Design, func: Callable,
                  fault: Optional[FaultDescriptor],
                  inputs: Optional[Mapping] = None,
                  *,
                  backend: str = "compiled",
                  max_cycles: int = 1_000_000,
                  golden_images: Optional[Dict[str, MemoryImage]] = None,
                  fsm_mode: str = "generated",
                  mismatch_limit: int = 8,
                  testbench: Optional[_Testbench] = None) -> InjectionResult:
    """Run *design* once with *fault* armed (or fault-free when None).

    *golden_images* (the fault-free software result) and *testbench*
    (one elaboration of *design* on *inputs* under *backend* and
    *fsm_mode*) may be supplied to spread their cost over a campaign;
    when omitted they are built here from the same inputs.  The run
    starts from the testbench rewound to its post-elaboration state.
    Any failure to apply the fault (an unknown net or memory, a bit out
    of range) classifies as ``crash``.  Raises :class:`ValueError` for
    a design that is not single-configuration.
    """
    if testbench is None:
        testbench = _Testbench(design, inputs, backend=backend,
                               fsm_mode=fsm_mode)
    if golden_images is None:
        golden_images = _golden_images(design, func, inputs)
    sim_design = testbench.design

    mechanism = "none"
    handle = None
    verdict: Optional[InjectionResult] = None
    cycles = 0
    started = time.perf_counter()
    with span("inject.run", "inject", design=design.name,
              fault=fault.fault_id if fault else "baseline"):
        testbench.rewind()
        try:
            if fault is not None and fault.kind == "mem_flip":
                testbench.flip(fault)
                mechanism = "image"
            elif fault is not None:
                handle = attach_fault(sim_design, fault)
                mechanism = handle.mechanism
            cycles = sim_design.run_to_done(max_cycles=max_cycles)
        except SimulationTimeout:
            verdict = InjectionResult(
                fault, "hang", max_cycles, 0.0,
                note=f"no done within {max_cycles} cycles")
        except Exception as exc:  # noqa: BLE001 - any failure is a verdict
            verdict = InjectionResult(
                fault, "crash", cycles, 0.0,
                note=f"{type(exc).__name__}: {exc}")
        finally:
            if handle is not None:
                handle.detach()
    seconds = time.perf_counter() - started

    if verdict is None:
        verdict = _classify(design, testbench.context, golden_images,
                            fault, mismatch_limit)
        verdict.cycles = cycles
    verdict.seconds = seconds
    verdict.mechanism = mechanism
    return verdict


# ----------------------------------------------------------------------
# Batched mem_flip lanes
# ----------------------------------------------------------------------
def _run_mem_flip_batch(design: Design, faults: Sequence[FaultDescriptor],
                        inputs, golden_images, *, max_cycles: int,
                        fsm_mode: str,
                        mismatch_limit: int) -> List[InjectionResult]:
    """Advance one injection per lane through a single elaboration.

    Falls back to serial :func:`run_injection` (batched backend) when
    the design refuses the batch fast path or any lane hangs — the
    batch executor reports a timeout for the whole group, so verdicts
    must then be recovered one lane at a time.
    """
    contexts = []
    for fault in faults:
        base_images = prepare_images(design, inputs)
        apply_mem_flip(base_images, fault)
        contexts.append(ReconfigurationContext.from_rtg(
            design.rtg, initial=base_images))
    executor = RtgBatchExecutor(design.rtg, contexts, fsm_mode=fsm_mode,
                                max_cycles_per_configuration=max_cycles)
    started = time.perf_counter()
    try:
        batch_result = executor.run()
    except (BatchUnsupported, SimulationTimeout):
        return [run_injection(design, None, fault, inputs,
                              backend="batched", max_cycles=max_cycles,
                              golden_images=golden_images,
                              fsm_mode=fsm_mode,
                              mismatch_limit=mismatch_limit)
                for fault in faults]
    lane_seconds = (time.perf_counter() - started) / max(len(faults), 1)

    results: List[InjectionResult] = []
    for lane, fault in enumerate(faults):
        result = _classify(design, contexts[lane], golden_images, fault,
                           mismatch_limit)
        result.cycles = batch_result.lanes[lane].total_cycles
        result.seconds = lane_seconds
        result.mechanism = "image"
        results.append(result)
    return results


# ----------------------------------------------------------------------
# The campaign runner (fork-pool, mirroring core.testsuite)
# ----------------------------------------------------------------------
# Worker-side handle: the design, its elaboration and the golden images
# do not need to be pickled — with the fork start method the children
# inherit this module global, and the parent ships only a fault index
# per task.
_ACTIVE_CAMPAIGN: Optional[dict] = None


def _pool_inject(index: int) -> InjectionResult:
    """Worker entry point; must never raise (see testsuite._pool_run)."""
    try:
        c = _ACTIVE_CAMPAIGN
        return run_injection(c["design"], c["func"], c["faults"][index],
                             c["inputs"], backend=c["backend"],
                             max_cycles=c["budget"],
                             golden_images=c["golden"],
                             fsm_mode=c["fsm_mode"],
                             testbench=c["testbench"])
    except BaseException as exc:  # noqa: BLE001 - worker boundary
        fault = None
        try:
            fault = _ACTIVE_CAMPAIGN["faults"][index]
        except Exception:  # noqa: BLE001 - campaign state may be unusable
            pass
        return InjectionResult(fault, "crash", 0, 0.0,
                               note=f"{type(exc).__name__}: {exc}\n"
                                    f"{traceback.format_exc()}")


def run_campaign(design: Design, func: Callable,
                 faults: Sequence[FaultDescriptor],
                 inputs: Optional[Mapping] = None,
                 *,
                 app: Optional[str] = None,
                 backend: str = "compiled",
                 jobs: int = 1,
                 seed: int = 0,
                 hang_factor: int = 4,
                 max_cycles: int = 50_000_000,
                 fsm_mode: str = "generated",
                 time_budget: Optional[float] = None,
                 ledger=None) -> CampaignReport:
    """Classify every fault in *faults* against the golden execution.

    The design is elaborated once, and every injection (the baseline
    included) runs on that elaboration rewound (see
    :class:`_Testbench`); a design that is not single-configuration
    raises :class:`ValueError`.  The fault-free baseline runs first: it
    must classify as ``masked`` (anything else means the campaign's
    verdicts would be meaningless) and its cycle count sets the hang
    budget (``cycles × hang_factor``).  ``jobs`` > 1 fans injections over a
    fork pool; ``backend="batched"`` additionally groups the
    ``mem_flip`` faults into lockstep lanes.  ``time_budget`` (seconds,
    measured from campaign start) stops scheduling new injections once
    exceeded — already-running ones still land, so the nightly job
    degrades to a shorter classified prefix instead of dying mid-pool.
    ``ledger`` appends one ``inject`` run row plus one ``fault_runs``
    row per verdict (schema v4) in the parent process only.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    name = app or design.name
    report = CampaignReport(app=name, backend=backend, jobs=jobs, seed=seed,
                            planned=len(faults))
    wall_started = time.perf_counter()
    deadline = (None if time_budget is None
                else wall_started + float(time_budget))

    testbench = _Testbench(design, inputs, backend=backend,
                           fsm_mode=fsm_mode)
    golden_images = _golden_images(design, func, inputs)

    baseline = run_injection(design, func, None, inputs, backend=backend,
                             max_cycles=max_cycles,
                             golden_images=golden_images,
                             fsm_mode=fsm_mode, testbench=testbench)
    report.baseline = baseline
    if baseline.verdict != "masked":
        raise ValueError(
            f"fault-free baseline classifies as {baseline.verdict!r}, "
            f"not 'masked' — campaign verdicts would be meaningless "
            f"({baseline.note})")
    budget = max(baseline.cycles * hang_factor, 1000)
    report.cycle_budget = budget

    faults = list(faults)
    slots: List[Optional[InjectionResult]] = [None] * len(faults)
    pending = list(range(len(faults)))

    # batched lockstep lanes for the mem_flip subset
    if backend == "batched" and len(faults) > 1:
        flips = [index for index in pending
                 if faults[index].kind == "mem_flip"]
        if len(flips) > 1:
            lane_results = _run_mem_flip_batch(
                design, [faults[index] for index in flips], inputs,
                golden_images, max_cycles=budget, fsm_mode=fsm_mode,
                mismatch_limit=8)
            for index, result in zip(flips, lane_results):
                slots[index] = result
            pending = [index for index in pending if slots[index] is None]

    parallel = (
        jobs > 1 and len(pending) > 1
        and "fork" in multiprocessing.get_all_start_methods()
    )
    campaign_span = span("inject.campaign", "inject", app=name,
                         backend=backend, jobs=jobs, faults=len(faults))
    with campaign_span:
        if parallel:
            global _ACTIVE_CAMPAIGN
            _ACTIVE_CAMPAIGN = {
                "design": design, "func": func, "faults": faults,
                "inputs": inputs, "backend": backend, "budget": budget,
                "golden": golden_images, "fsm_mode": fsm_mode,
                "testbench": testbench,
            }
            futures: Dict = {}
            try:
                context = multiprocessing.get_context("fork")
                workers = min(jobs, len(pending))
                with ProcessPoolExecutor(max_workers=workers,
                                         mp_context=context) as pool:
                    try:
                        if deadline is None:
                            for index, result in zip(
                                    pending,
                                    pool.map(
                                        _pool_inject, pending,
                                        chunksize=max(
                                            1,
                                            len(pending)
                                            // (workers * 8)))):
                                slots[index] = result
                        else:
                            # per-task futures so the deadline can drop
                            # whatever has not started yet
                            futures = {pool.submit(_pool_inject, index):
                                       index for index in pending}
                            try:
                                for future in as_completed(
                                        futures,
                                        timeout=max(
                                            deadline
                                            - time.perf_counter(), 0.0)):
                                    slots[futures[future]] = \
                                        future.result()
                            except FuturesTimeout:
                                for future in futures:
                                    future.cancel()
                        # leaving the with-block joins the pool, so
                        # tasks that were already in flight when the
                        # deadline hit finish now; harvest them below
                    except BrokenProcessPool as exc:
                        unfinished = [faults[index].fault_id
                                      for index in pending
                                      if slots[index] is None]
                        raise RuntimeError(
                            f"campaign worker process died while running "
                            f"fault(s) {unfinished[:8]}; rerun with "
                            f"jobs=1 to reproduce in-process") from exc
                # the pool has joined: injections that were in flight
                # when a deadline fired have finished — keep them
                for future, index in futures.items():
                    if future.done() and not future.cancelled() \
                            and slots[index] is None:
                        slots[index] = future.result()
            finally:
                _ACTIVE_CAMPAIGN = None
        else:
            for index in pending:
                if deadline is not None \
                        and time.perf_counter() > deadline:
                    break
                slots[index] = run_injection(
                    design, func, faults[index], inputs, backend=backend,
                    max_cycles=budget, golden_images=golden_images,
                    fsm_mode=fsm_mode, testbench=testbench)

    report.results = [result for result in slots if result is not None]
    report.wall_seconds = time.perf_counter() - wall_started
    campaign_span.set("verdicts", report.tally())

    if ledger is not None:
        from ..obs.ledger import Ledger
        owns = not isinstance(ledger, Ledger)
        sink = Ledger(ledger) if owns else ledger
        try:
            sink.record_injection_campaign(report, size=design.params)
        finally:
            if owns:
                sink.close()
    return report
