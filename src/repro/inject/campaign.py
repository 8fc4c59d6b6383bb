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

A campaign elaborates its design once: every hardware fault rewinds
that one live elaboration instead of building the hardware again, and a
transient upset starts from the fault-free checkpoint before its window
and stops as soon as its window closes without it striking (see
:class:`_Testbench`).  A mutant (a compiler-bug-shaped fault, see
:data:`~repro.inject.faultload.MUTATION_KINDS`) is a different design,
so it gets an elaboration of its own, runs under the same hang budget
and is compared on every array, as the fault-free run is.  Mutation
testing counts a mutant killed when its verdict is anything but
``masked`` (:attr:`CampaignReport.killed`).

:func:`run_campaign` runs on the same :class:`~repro.util.pool.ForkPool`
as the test suite: the design, its elaboration, golden images and
faultload are the pool's state, which workers inherit over ``fork``;
each task ships only fault indices, tasks never raise, and the ledger
is touched only in the parent after the pool has drained.  Tasks group
the signal faults by kind, so a worker generates only the fault kernels
of the kinds it is handed.
"""

from __future__ import annotations

import bisect
import time
import traceback
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Mapping, Optional, Sequence

from ..compiler.pipeline import Design
from ..core.verification import (check_memories, golden_reference,
                                 prepare_images)
# run_golden and compare_images stay attributes of this module only for
# benchmarks/e2e/layers.py, which wraps them here as well as in
# repro.core.verification, whose globals the oracle calls
from ..golden.runner import run_golden
from ..obs.trace import span
from ..rtg.context import ReconfigurationContext
from ..sim.errors import SimulationTimeout
from ..translate.to_sim import build_simulation
from ..util.files import MemoryImage, compare_images
from ..util.pool import ForkPool
from .faultload import FAULT_KINDS, MUTATION_KINDS, FaultDescriptor
from .hooks import attach_fault, mutate_design

__all__ = ["InjectionResult", "CampaignReport", "apply_mem_flip",
           "run_injection", "run_campaign", "VERDICTS"]

VERDICTS = ("masked", "sdc", "hang", "crash")

#: cycles between two checkpoints of a campaign's fault-free run.  A
#: shorter stride adds chunk boundaries to the fault-free run (each
#: costs a few hundred cycles' worth of time), a longer one adds the
#: cycles a transient upset runs before its window (half a stride on
#: average).  On fdct1 at 256 px (1317 cycles, compiled, 2-vCPU x86
#: host, 14 seeded 200-fault plans) strides of 32, 64, 128, 256 and 512
#: cost 61, 70, 55, 62 and 95 ms per campaign in those two parts.
CHECKPOINT_STRIDE = 128


@dataclass
class InjectionResult:
    """The classified outcome of one injection run."""

    fault: Optional[FaultDescriptor]
    verdict: str  # masked | sdc | hang | crash
    cycles: int
    seconds: float
    note: str = ""
    #: how the fault took effect: kernel | watcher | cycle-hook |
    #: image | design (a mutant) | none (fault-free baseline)
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
    def killed(self) -> int:
        """Classified faults that are not ``masked``: the mutants the
        golden comparison kills."""
        return len(self.results) - self.tally()["masked"]

    @property
    def kill_rate(self) -> float:
        """:attr:`killed` as a share of the classified faults (1.0 when
        none ran)."""
        return self.killed / len(self.results) if self.results else 1.0

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
        table = self.coverage_table()
        width = max([9] + [len(kind) for kind in table])
        for kind, row in sorted(table.items()):
            total = sum(row.values())
            lines.append(
                f"  {kind:<{width}} " +
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
    fork pool starts, so every worker inherits it — and keeps the
    elaboration's :meth:`~repro.translate.to_sim.SimDesign.snapshot`
    taken right after elaboration.

    That snapshot is checkpoint 0.  The fault-free run (:meth:`record`)
    runs in chunks of :data:`CHECKPOINT_STRIDE` cycles and takes a
    snapshot at every chunk boundary it passes before ``done``, so a
    transient upset can start from the last checkpoint before its
    window (:meth:`restore_before`) instead of from cycle 0.

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
        #: cycle of each checkpoint, ascending; checkpoint 0 first
        self.checkpoints: List[int] = [0]
        self._states = [self.design.snapshot()]
        #: the fault-free run's cycle count, once it classified masked
        #: (set by :func:`run_injection`); until then no upset stops early
        self.fault_free_cycles: Optional[int] = None

    def rewind(self) -> None:
        """Return the live design to its post-elaboration state."""
        self.design.restore(self._states[0])

    def restore_before(self, cycle: int) -> int:
        """Restore the last checkpoint taken before 1-based *cycle* runs
        and return its cycle count (0 for the post-elaboration state)."""
        index = max(bisect.bisect_left(self.checkpoints, cycle) - 1, 0)
        self.design.restore(self._states[index])
        return self.checkpoints[index]

    def record(self, max_cycles: int) -> int:
        """Run the fault-free design from its post-elaboration state to
        ``done``, checkpointing at every chunk boundary on the way.

        Returns the cycles used; raises :class:`SimulationTimeout`
        after *max_cycles*.
        """
        self.rewind()
        del self.checkpoints[1:], self._states[1:]
        self.fault_free_cycles = None
        ran = 0
        while True:
            chunk = min(CHECKPOINT_STRIDE, max_cycles - ran)
            try:
                return ran + self.design.run_to_done(max_cycles=chunk)
            except SimulationTimeout:
                ran += chunk
                if ran >= max_cycles:
                    raise
            self.checkpoints.append(ran)
            self._states.append(self.design.snapshot())

    def flip(self, fault: FaultDescriptor) -> None:
        """Apply a ``mem_flip`` to the live image.  The image's write
        watchers re-drive any read port at the flipped address, and the
        run's opening settle carries the change through its fanout."""
        apply_mem_flip(self.context.memories, fault)


def _classify(design: Design, context, golden_images, fault,
              mismatch_limit: int) -> InjectionResult:
    """Compare memories after a completed run (masked vs sdc).

    Fault-free runs and mutants compare every array (the bit-exact
    differential guarantee, which a mutated design must keep too);
    hardware faults compare output-role arrays, since a ``mem_flip`` on
    an input memory diverges from golden's pristine inputs by
    construction.
    """
    hardware = fault is not None and fault.kind not in MUTATION_KINDS
    for check in check_memories(design, golden_images, context.memories,
                                compare="outputs" if hardware else "all",
                                limit=mismatch_limit):
        if not check.passed:
            return InjectionResult(
                fault, "sdc", 0, 0.0,
                note=f"{check.memory}: {check.mismatches[0].describe(16)}")
    return InjectionResult(fault, "masked", 0, 0.0)


def _run_upset(sim_design, handle, window_end: int, start: int,
               max_cycles: int) -> Optional[int]:
    """Run a transient upset armed at checkpoint *start* through its
    window's last cycle, and on to ``done`` only if it struck.

    Returns the cycles used counted from cycle 0, or None when the
    window closed without the upset striking: the rest of the run is
    then the fault-free run.  Raises :class:`SimulationTimeout` after
    *max_cycles*, also counted from cycle 0.
    """
    lead = max(min(window_end, max_cycles) - start, 0)
    try:
        return start + sim_design.run_to_done(max_cycles=lead)
    except SimulationTimeout:
        if not handle.fired:
            return None
    start += lead
    return start + sim_design.run_to_done(max_cycles=max_cycles - start)


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
    Once a fault-free run on the same testbench has classified
    ``masked``, a ``reg_flip`` instead starts from the last fault-free
    checkpoint before its window, and one that has not struck when its
    window closes is ``masked`` with the fault-free cycle count — what
    the run from cycle 0 would report, since the rest of it is the
    fault-free run.  A mutant instead runs on an elaboration of its own
    mutated copy of *design* (mechanism ``design``; *testbench* is not
    used) and is compared on every array.  Any failure to apply the
    fault (an unknown net or memory, a bit out of range, a mutant that
    does not apply or elaborate) classifies as ``crash``.  Raises
    :class:`ValueError` for a design that is not single-configuration.
    """
    mutant = fault is not None and fault.kind in MUTATION_KINDS
    if testbench is None and not mutant:
        testbench = _Testbench(design, inputs, backend=backend,
                               fsm_mode=fsm_mode)
    if golden_images is None:
        golden_images = golden_reference(design, func, inputs)[1]
    upset = (fault is not None and fault.kind == "reg_flip"
             and testbench.fault_free_cycles is not None
             and testbench.fault_free_cycles <= max_cycles)

    mechanism = "none"
    handle = None
    verdict: Optional[InjectionResult] = None
    cycles = 0
    started = time.perf_counter()
    with span("inject.run", "inject", design=design.name,
              fault=fault.fault_id if fault else "baseline"):
        start, armed = 0, fault
        if upset:
            # the window shifts with the run's start, so the kernel and
            # the cycle hook count it from the checkpoint
            start = testbench.restore_before(fault.cycle_lo)
            armed = replace(fault, cycle_lo=fault.cycle_lo - start,
                            cycle_hi=fault.cycle_hi - start)
        elif fault is not None and not mutant:
            testbench.rewind()
        try:
            if fault is None:
                cycles = testbench.record(max_cycles)
            elif mutant:
                # another design: it runs on a testbench of its own
                mechanism = "design"
                testbench = _Testbench(mutate_design(design, fault),
                                       inputs, backend=backend,
                                       fsm_mode=fsm_mode)
                cycles = testbench.design.run_to_done(max_cycles=max_cycles)
            elif fault.kind == "mem_flip":
                testbench.flip(fault)
                mechanism = "image"
                cycles = testbench.design.run_to_done(max_cycles=max_cycles)
            else:
                handle = attach_fault(testbench.design, armed)
                mechanism = handle.mechanism
                if upset:
                    ran = _run_upset(testbench.design, handle,
                                     fault.cycle_hi, start, max_cycles)
                    if ran is None:
                        verdict = InjectionResult(
                            fault, "masked", testbench.fault_free_cycles,
                            0.0)
                    else:
                        cycles = ran
                else:
                    cycles = testbench.design.run_to_done(
                        max_cycles=max_cycles)
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
        if fault is None and verdict.verdict == "masked":
            testbench.fault_free_cycles = cycles
    verdict.seconds = seconds
    verdict.mechanism = mechanism
    return verdict


# ----------------------------------------------------------------------
# The campaign runner
# ----------------------------------------------------------------------
def _inject_batch(c: dict, indices: Sequence[int]) -> List[InjectionResult]:
    """Pool task: classify the faults *indices* of campaign *c* in
    order until its deadline passes.

    An error from outside :func:`run_injection`'s own handler becomes a
    ``crash`` verdict whose note carries the traceback, so a worker
    never raises one across the pool boundary.
    """
    results = []
    for index in indices:
        if c["deadline"] is not None and time.perf_counter() > c["deadline"]:
            break
        fault = c["faults"][index]
        try:
            result = run_injection(c["design"], c["func"], fault,
                                   c["inputs"], backend=c["backend"],
                                   max_cycles=c["budget"],
                                   golden_images=c["golden"],
                                   fsm_mode=c["fsm_mode"],
                                   testbench=c["testbench"])
        except Exception as exc:  # noqa: BLE001 - a task reports
            result = InjectionResult(fault, "crash", 0, 0.0,
                                     note=f"{type(exc).__name__}: {exc}\n"
                                          f"{traceback.format_exc()}")
        results.append(result)
    return results


def _pool_batches(faults: Sequence[FaultDescriptor], pending: List[int],
                  workers: int) -> List[List[int]]:
    """Split *pending* into pool tasks: the signal faults one kind per
    task, then the ``mem_flip`` faults and the mutants in small chunks.

    A worker generates the fault kernel of every kind it is handed, so
    keeping each kind in one task spares the other workers that
    codegen; a kind larger than an even share of the work is split into
    shares so it cannot hold up the pool.  ``mem_flip`` faults need no
    fault kernel and every mutant elaborates a design of its own, so
    their chunks even out the workers at the end.
    """
    share = max(1, -(-len(pending) // workers))
    batches: List[List[int]] = []
    groups = [((kind,), kind == "mem_flip") for kind in FAULT_KINDS]
    for kinds, chunked in groups + [(MUTATION_KINDS, True)]:
        group = [index for index in pending if faults[index].kind in kinds]
        size = max(1, len(group) // (workers * 4)) if chunked else share
        batches += [group[at:at + size]
                    for at in range(0, len(group), size)]
    return batches


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
    verdicts would be meaningless), its cycle count sets the hang
    budget (``cycles × hang_factor``), and the checkpoints it leaves
    let each ``reg_flip`` skip the cycles before its window.  The
    faults run in the batches of :func:`_pool_batches`, one fault kind
    (or a chunk of mutants) per batch, which ``jobs`` > 1 fans over a
    :class:`~repro.util.pool.ForkPool`.  ``time_budget`` (seconds,
    measured from campaign start) stops starting new injections once
    exceeded — already-running ones still land, so the nightly job
    degrades to a shorter classified set instead of dying mid-pool.
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
    golden_images = golden_reference(design, func, inputs)[1]

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
    batches = _pool_batches(faults, list(range(len(faults))), jobs)
    # the pool's workers inherit the design, its elaboration and the
    # golden images; each task ships only fault indices
    state = {"design": design, "func": func, "faults": faults,
             "inputs": inputs, "backend": backend, "budget": budget,
             "golden": golden_images, "fsm_mode": fsm_mode,
             "testbench": testbench, "deadline": deadline}
    campaign_span = span("inject.campaign", "inject", app=name,
                         backend=backend, jobs=jobs, faults=len(faults))
    with campaign_span, ForkPool(jobs, state) as pool:
        results = pool.map(
            _inject_batch, batches,
            label=lambda batch: [faults[i].fault_id for i in batch])
        for batch, classified in zip(batches, results):
            for index, result in zip(batch, classified):
                slots[index] = result

    report.results = [result for result in slots if result is not None]
    report.wall_seconds = time.perf_counter() - wall_started
    campaign_span.set("verdicts", report.tally())

    if ledger is not None:
        from ..obs.ledger import ledger_sink
        with ledger_sink(ledger) as sink:
            sink.record_injection_campaign(report, size=design.params)
    return report
