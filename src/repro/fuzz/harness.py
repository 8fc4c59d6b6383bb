"""Differential execution harness: one program, four executions.

For every generated program the harness compiles it, runs the golden
Python execution, then drives the design through each registered
simulation backend and cross-checks everything the infrastructure can
observe: final memory contents (against golden) and cycle counts
(across backends).  The outcome is a single classification:

``pass``
    every backend matches golden bit-for-bit and all cycle counts agree
``compile-crash``
    the compiler raised (including frontend rejections — the generator
    guarantees validity, so any rejection is a bug in one of the two)
``golden-crash``
    the plain-Python run itself raised; by construction this means a
    generator bug, never a compiler bug
``sim-crash``
    a simulation backend raised something other than a timeout
``timeout``
    a backend exceeded the cycle budget
``mismatch``
    a backend produced different memory contents than golden, or the
    backends disagree on the cycle count

Campaigns fan iterations out over a :class:`~repro.util.pool.ForkPool`
(the same pool as :meth:`repro.core.TestSuite.run`), minimize every failure
with :mod:`repro.fuzz.reduce`, and write reproducers into the corpus
directory for the regression suite to replay.
"""

from __future__ import annotations

import time
import traceback
from dataclasses import dataclass, field
from itertools import chain
from typing import Dict, List, Optional, Sequence, Tuple

from ..compiler.pipeline import compile_function
from ..core.verification import check_memories, golden_reference
from ..obs.coverage import CoverageCollector
from ..obs.trace import span
from ..rtg.context import ReconfigurationContext
from ..rtg.executor import RtgExecutor
from ..sim import SIMULATOR_BACKENDS
from ..sim.errors import SimulationTimeout
from ..util.pool import ForkPool
from .generator import GeneratorConfig, generate, make_images
from .ir import FuzzProgram

__all__ = ["Outcome", "FuzzCaseResult", "CampaignReport", "run_program",
           "run_campaign", "DEFAULT_BACKENDS", "DEFAULT_MAX_CYCLES"]

DEFAULT_BACKENDS: Tuple[str, ...] = tuple(sorted(SIMULATOR_BACKENDS))
DEFAULT_MAX_CYCLES = 250_000

FAILURE_KINDS = ("compile-crash", "golden-crash", "sim-crash", "mismatch",
                 "timeout")


@dataclass
class Outcome:
    """Classification of one differential run."""

    kind: str
    backend: Optional[str] = None
    detail: str = ""
    exc_type: Optional[str] = None

    @property
    def failed(self) -> bool:
        return self.kind != "pass"

    def matches(self, other: "Outcome") -> bool:
        """Reduction predicate: same failure class (and, for crashes,
        the same exception type — so the minimizer cannot wander from
        one bug to a different one)."""
        if self.kind != other.kind:
            return False
        if self.exc_type and other.exc_type:
            return self.exc_type == other.exc_type
        return True

    def describe(self) -> str:
        parts = [self.kind]
        if self.backend:
            parts.append(f"backend={self.backend}")
        if self.exc_type:
            parts.append(self.exc_type)
        text = " ".join(parts)
        if self.detail:
            first = self.detail.strip().splitlines()[0]
            text += f": {first}"
        return text


@dataclass
class FuzzCaseResult:
    seed: int
    outcome: Outcome
    seconds: float
    #: the offending program; shipped back to the parent only on failure
    program: Optional[FuzzProgram] = None
    #: coverage signature of this program's first-backend run — state and
    #: transition labels *without* the design name, so signatures overlap
    #: across generated programs (the FSM naming scheme ``S_{block}_{step}``
    #: is shared) and "new coverage" is meaningful campaign-wide
    coverage_items: Optional[Tuple[str, ...]] = None


@dataclass
class CampaignReport:
    iterations: int = 0
    seed: int = 0
    jobs: int = 1
    wall_seconds: float = 0.0
    counts: Dict[str, int] = field(default_factory=dict)
    failures: List[FuzzCaseResult] = field(default_factory=list)
    #: corpus files written for minimized reproducers
    written: List[str] = field(default_factory=list)
    #: union of coverage signatures over the whole campaign
    coverage_items: set = field(default_factory=set)
    #: seeds whose program exercised at least one item no earlier seed
    #: had — the first step toward coverage-guided generation
    new_coverage_seeds: List[int] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures

    @property
    def mismatches(self) -> List[FuzzCaseResult]:
        """Mismatch failures with a program — the divergence-triage feed."""
        return [failure for failure in self.failures
                if failure.outcome.kind == "mismatch"
                and failure.program is not None]

    def summary(self) -> str:
        per_kind = ", ".join(f"{kind}={self.counts[kind]}"
                             for kind in sorted(self.counts))
        lines = [
            f"fuzz: {self.iterations} program(s), "
            f"{len(self.failures)} failure(s), "
            f"wall {self.wall_seconds:.2f}s "
            f"(seed={self.seed}, jobs={self.jobs}) [{per_kind}]"
        ]
        if self.coverage_items:
            lines.append(
                f"  coverage: {len(self.coverage_items)} item(s), "
                f"{len(self.new_coverage_seeds)} new-coverage seed(s)")
        for failure in self.failures:
            lines.append(f"  [FAIL] seed {failure.seed}: "
                         f"{failure.outcome.describe()}")
        for path in self.written:
            lines.append(f"  reproducer: {path}")
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Single-program differential run
# ----------------------------------------------------------------------
def run_program(program: FuzzProgram, *,
                backends: Sequence[str] = DEFAULT_BACKENDS,
                max_cycles: int = DEFAULT_MAX_CYCLES,
                input_seed: int = 0,
                coverage: Optional[CoverageCollector] = None) -> Outcome:
    """Compile, golden-run and simulate *program*; classify the outcome.

    When a *coverage* collector is supplied it is attached to the first
    backend's execution (one backend suffices — all backends run the
    same control path, and the collector would otherwise triple-count).
    """
    try:
        design = compile_function(
            program.source, program.arrays, dict(program.params),
            name=program.name, word_width=program.word_width,
            n_partitions=program.n_partitions,
        )
    except Exception as exc:  # noqa: BLE001 - classification boundary
        return Outcome("compile-crash", detail=_crash_detail(exc),
                       exc_type=type(exc).__name__)

    inputs = make_images(program, input_seed)
    try:
        start, golden = golden_reference(design, program.func(), inputs)
    except Exception as exc:  # noqa: BLE001 - classification boundary
        return Outcome("golden-crash", detail=_crash_detail(exc),
                       exc_type=type(exc).__name__)

    cycles: Dict[str, int] = {}
    for position, backend in enumerate(backends):
        images = {name: image.copy() for name, image in start.items()}
        context = ReconfigurationContext.from_rtg(design.rtg, initial=images)
        executor = RtgExecutor(design.rtg, context, backend=backend,
                               max_cycles_per_configuration=max_cycles,
                               coverage=coverage if position == 0 else None)
        if backend == "traced":
            executor.on_configure = _start_fused
        try:
            result = executor.run()
        except SimulationTimeout as exc:
            return Outcome("timeout", backend=backend, detail=str(exc),
                           exc_type=type(exc).__name__)
        except Exception as exc:  # noqa: BLE001 - classification boundary
            return Outcome("sim-crash", backend=backend,
                           detail=_crash_detail(exc),
                           exc_type=type(exc).__name__)
        cycles[backend] = result.total_cycles

        for check in check_memories(design, golden, context.memories,
                                    limit=4):
            if not check.passed:
                width = design.arrays[check.memory].width
                shown = "; ".join(m.describe(width)
                                  for m in check.mismatches)
                return Outcome(
                    "mismatch", backend=backend,
                    detail=f"memory {check.memory!r}: {shown}",
                )

    if len(set(cycles.values())) > 1:
        detail = ", ".join(f"{b}={c}" for b, c in sorted(cycles.items()))
        return Outcome("mismatch", detail=f"cycle divergence: {detail}")

    return Outcome("pass")


def _start_fused(design) -> None:
    """Run a traced elaboration on its fused program from cycle 0:
    fuzz programs are far too short to promote, and the generic tier is
    the compiled kernel, which the differential already covers."""
    design.sim.promote_after = 0


def _crash_detail(exc: Exception) -> str:
    return "".join(traceback.format_exception_only(type(exc), exc)).strip()


# ----------------------------------------------------------------------
# Campaigns
# ----------------------------------------------------------------------
def _run_one_seed(state, case_seed: int) -> FuzzCaseResult:
    """Pool task: fuzz generator seed *case_seed* under ``state =
    (config, backends, max_cycles, input_seed, collect)``."""
    config, backends, max_cycles, input_seed, collect = state
    started = time.perf_counter()
    collector = CoverageCollector() if collect else None
    seed_span = span("fuzz.seed", "fuzz", seed=case_seed)
    with seed_span:
        try:
            program = generate(case_seed, config)
            outcome = run_program(program, backends=backends,
                                  max_cycles=max_cycles,
                                  input_seed=input_seed,
                                  coverage=collector)
        except Exception as exc:  # noqa: BLE001 - harness bug, not a finding
            outcome = Outcome("harness-error",
                              detail=traceback.format_exc(),
                              exc_type=type(exc).__name__)
            program = None
        seed_span.set("outcome", outcome.kind)
    seconds = time.perf_counter() - started
    items = (tuple(collector.report.items())
             if collector is not None else None)
    return FuzzCaseResult(case_seed, outcome, seconds,
                          program=program if outcome.failed else None,
                          coverage_items=items)


def run_campaign(iterations: int, *, seed: int = 0, jobs: int = 1,
                 config: Optional[GeneratorConfig] = None,
                 backends: Sequence[str] = DEFAULT_BACKENDS,
                 max_cycles: int = DEFAULT_MAX_CYCLES,
                 input_seed: int = 0,
                 time_budget: Optional[float] = None,
                 coverage: bool = False,
                 on_progress=None,
                 ledger=None) -> CampaignReport:
    """Run *iterations* differential tests; deterministic per *seed*.

    Case ``i`` always fuzzes generator seed ``seed + i`` regardless of
    ``jobs``, so any failure reproduces serially.  ``time_budget``
    (seconds) stops the campaign early once exceeded — used by the
    nightly CI job.  Failures are returned unminimized; the caller
    decides whether to reduce (see :func:`repro.fuzz.reduce_failure`).
    ``coverage=True`` records each program's coverage signature and
    reports the seeds that reached items no earlier seed did
    (``report.new_coverage_seeds``).  ``ledger`` (a
    :class:`repro.obs.Ledger` or a path) appends the campaign's
    classification tallies as one ``fuzz`` row — written by the parent
    after the pool drains, so workers never touch the database.
    """
    if iterations < 0:
        raise ValueError(f"iterations must be >= 0, got {iterations}")
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    config = config or GeneratorConfig()
    report = CampaignReport(seed=seed, jobs=jobs)
    started = time.perf_counter()

    state = (config, tuple(backends), max_cycles, input_seed, coverage)
    # the pool hands a seed only to an idle worker, so a budget stop
    # waits only for the seeds in flight; the waves bound how many seeds
    # one map lists (the nightly asks for 1,000,000)
    wave = max(jobs * 8, 16)
    waves = (range(seed + at, seed + min(at + wave, iterations))
             for at in range(0, iterations, wave))
    with ForkPool(jobs, state) as pool:
        for result in chain.from_iterable(pool.map(_run_one_seed, seeds)
                                          for seeds in waves):
            _absorb(report, result, on_progress)
            if time_budget is not None \
                    and time.perf_counter() - started >= time_budget:
                break
    report.wall_seconds = time.perf_counter() - started
    if ledger is not None:
        from ..obs.ledger import ledger_sink
        with ledger_sink(ledger) as sink:
            sink.record_fuzz(report)
    return report


def _absorb(report: CampaignReport, result: FuzzCaseResult,
            on_progress) -> None:
    report.iterations += 1
    kind = result.outcome.kind
    report.counts[kind] = report.counts.get(kind, 0) + 1
    if result.outcome.failed:
        report.failures.append(result)
    if result.coverage_items:
        fresh = [item for item in result.coverage_items
                 if item not in report.coverage_items]
        if fresh:
            report.coverage_items.update(fresh)
            report.new_coverage_seeds.append(result.seed)
    if on_progress is not None:
        on_progress(result)
