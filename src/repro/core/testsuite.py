"""The regression test suite runner.

The paper's motivation: after every compiler change, re-verify the whole
set of benchmark algorithms "in feasible time" with full automation.
A :class:`TestSuite` holds :class:`SuiteCase` entries (algorithm +
memory specs + stimulus factory + compile options) and runs each through
:func:`verify_design`, collecting a pass/fail report plus the Table I
metrics.
"""

from __future__ import annotations

import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, List, Mapping, Optional, Union

from ..compiler.pipeline import Design, compile_function
from ..compiler.spec import MemorySpec
from ..obs.coverage import CoverageReport
from ..obs.trace import span
from ..util.files import MemoryImage
from ..util.loc import function_source
from ..util.pool import ForkPool
from .cache import (ArtifactCache, case_key, design_key,
                    result_from_payload, result_to_payload)
from .kernelcache import default_cache
from .report import DesignMetrics, collect_metrics, format_table
from .verification import (VerificationResult, verify_design,
                           verify_design_batch)

__all__ = ["SuiteCase", "CaseResult", "SuiteReport", "TestSuite",
           "run_case"]


@dataclass
class SuiteCase:
    """One benchmark algorithm with everything needed to verify it."""

    name: str
    func: Callable
    arrays: Mapping[str, MemorySpec]
    params: Mapping[str, int] = field(default_factory=dict)
    #: seeded factory producing the input images for one run
    inputs: Optional[Callable[[int], Mapping[str, MemoryImage]]] = None
    n_partitions: int = 1
    word_width: int = 32
    opt_level: int = 2
    max_cycles: int = 50_000_000

    def compile(self) -> Design:
        """The compiled design, taken from the compile stage of the
        kernel cache when that cache persists.

        The stage keys a design by :func:`~repro.core.cache.design_key`
        (source, compile options and toolchain fingerprint) and stores
        it together with its Table I line counts, so a warm rerun
        neither compiles nor prints XML.  Every call returns a fresh
        object.
        """
        cache = default_cache()
        if cache.root is None:
            # a memory-only cache dies with the process: pickling
            # designs into it could only cost
            return self._compile()
        key = design_key(self)
        design = cache.get_object("design", key)
        if design is None:
            design = self._compile()
            collect_metrics(design)  # memoises the line counts it stores
            cache.put_object("design", key, design)
        return design

    def _compile(self) -> Design:
        return compile_function(
            self.func, self.arrays, dict(self.params), name=self.name,
            word_width=self.word_width, opt_level=self.opt_level,
            n_partitions=self.n_partitions,
        )


@dataclass
class CaseResult:
    """Outcome of one case: verification verdict + metrics + timings."""

    case: str
    #: a VerificationResult, or a BatchVerificationResult when the
    #: suite ran in batched per-app mode (same passed/cycles surface)
    verification: Optional[VerificationResult]
    metrics: Optional[DesignMetrics]
    compile_seconds: float
    error: Optional[str] = None
    #: full traceback text of the error, preserved across the process
    #: pool boundary so a worker failure is debuggable from the parent
    traceback: Optional[str] = None
    #: result answered from the artifact cache, not executed this run
    cached: bool = False

    @property
    def passed(self) -> bool:
        return self.error is None and self.verification is not None \
            and self.verification.passed


@dataclass
class SuiteReport:
    results: List[CaseResult] = field(default_factory=list)
    wall_seconds: float = 0.0
    backend: str = "event"
    jobs: int = 1
    #: this run's artifact-cache lookups that answered / missed
    cache_hits: int = 0
    cache_misses: int = 0
    #: merged functional coverage across all cases (``coverage=True``)
    coverage: Optional[CoverageReport] = None

    @property
    def passed(self) -> bool:
        return all(result.passed for result in self.results)

    @property
    def failures(self) -> List[CaseResult]:
        return [result for result in self.results if not result.passed]

    def metrics_table(self) -> str:
        rows = [result.metrics for result in self.results
                if result.metrics is not None]
        return format_table(rows)

    def summary(self) -> str:
        head = (f"suite: {len(self.results)} case(s), "
                f"{len(self.failures)} failure(s), "
                f"wall {self.wall_seconds:.2f}s "
                f"(backend={self.backend}, jobs={self.jobs}")
        if self.cache_hits:
            head += f", {self.cache_hits} cached"
        lines = [head + ")"]
        for result in self.results:
            if result.error is not None:
                lines.append(f"  [ERROR] {result.case}: {result.error}")
            else:
                verdict = "PASS" if result.passed else "FAIL"
                v = result.verification
                line = (
                    f"  [{verdict}] {result.case}: {v.cycles} cycles, "
                    f"{v.evaluations} evaluations, "
                    f"sim {v.simulation_seconds:.3f}s, "
                    f"compile {result.compile_seconds:.3f}s"
                )
                batch_size = getattr(v, "batch_size", None)
                if batch_size:
                    line += (f" (batch of {batch_size}, "
                             f"{v.lane_seconds * 1000:.1f}ms/lane)")
                if result.cached:
                    line += " (cached)"
                lines.append(line)
        if self.coverage is not None:
            lines.append("  " + self.coverage.summary())
        return "\n".join(lines)


def run_case(case: SuiteCase, *, seed: int, fsm_mode: str = "generated",
             backend: str = "event", coverage: bool = False,
             batch: int = 0) -> CaseResult:
    """Compile + verify one case; never raises (errors become results).

    The suite runner's pool tasks and a serve worker's one-job
    dispatches (:mod:`repro.serve`) run this function, so their verdicts
    are the same object; a gathered serve dispatch calls
    :func:`verify_design_batch` itself.  ``batch`` > 1 verifies that
    many seeded stimulus sets (``seed`` .. ``seed + batch - 1``) on one
    elaboration per configuration and returns a result whose
    verification is a
    :class:`~repro.core.verification.BatchVerificationResult`.
    """
    started = time.perf_counter()
    case_span = span("suite.case", "suite", case=case.name, backend=backend)
    with case_span:
        try:
            design = case.compile()
            compile_seconds = time.perf_counter() - started
            if batch > 1:
                if case.inputs is None:
                    raise ValueError(
                        f"case {case.name!r} has no seeded stimulus "
                        f"factory; batched mode needs one input set "
                        f"per lane")
                inputs_list = [case.inputs(seed + lane)
                               for lane in range(batch)]
                verification = verify_design_batch(
                    design, case.func, inputs_list, fsm_mode=fsm_mode,
                    backend=backend, max_cycles=case.max_cycles,
                )
                case_span.set("batch", batch)
            else:
                inputs = case.inputs(seed) if case.inputs else None
                verification = verify_design(
                    design, case.func, inputs, fsm_mode=fsm_mode,
                    backend=backend, max_cycles=case.max_cycles,
                    coverage=coverage,
                )
            metrics = collect_metrics(
                design,
                simulation_seconds=verification.simulation_seconds,
                cycles=verification.cycles,
                backend=backend,
                state_coverage=(verification.coverage.state_coverage
                                if verification.coverage is not None
                                else None),
            )
            case_span.set("passed", verification.passed)
            return CaseResult(case.name, verification, metrics,
                              compile_seconds)
        except Exception as exc:  # noqa: BLE001 - suite must report
            case_span.set("error", str(exc))
            return CaseResult(case.name, None, None,
                              time.perf_counter() - started, error=str(exc),
                              traceback=traceback.format_exc())


# historical private name, still the indirection point the suite's
# pool tasks call through (tests and the benchmark's layer spans patch it)
_run_case = run_case


def _run_pending_case(state, index: int) -> CaseResult:
    """Pool task: run case *index* of ``state = (cases, options)``.

    Any error, even one from outside :func:`run_case`, comes back as an
    error :class:`CaseResult` with its traceback, so a worker never
    raises one across the pool boundary.
    """
    cases, options = state
    try:
        return _run_case(cases[index], **options)
    except Exception as exc:  # noqa: BLE001 - a task reports, never raises
        return CaseResult(cases[index].name, None, None, 0.0,
                          error=f"{type(exc).__name__}: {exc}",
                          traceback=traceback.format_exc())


class TestSuite:
    """Register cases, run them all, get one report."""

    __test__ = False  # library class, not a pytest test case

    def __init__(self, name: str = "suite") -> None:
        self.name = name
        self.cases: List[SuiteCase] = []

    def add(self, case: SuiteCase) -> SuiteCase:
        if any(existing.name == case.name for existing in self.cases):
            raise ValueError(f"duplicate case name {case.name!r}")
        self.cases.append(case)
        return case

    def run(self, *, seed: int = 0, fsm_mode: str = "generated",
            backend: str = "event", jobs: int = 1,
            cache: Optional[Union[ArtifactCache, str, Path]] = None,
            stop_on_failure: bool = False,
            coverage: bool = False,
            batch: int = 0,
            ledger=None) -> SuiteReport:
        """Verify every case; one report.

        ``backend`` selects the simulation kernel for all cases.
        ``batch`` > 1 verifies each case against that many stimulus
        sets (seeds ``seed`` .. ``seed + batch - 1``) run one after
        another on one elaboration per configuration, on ``backend``
        (see :func:`verify_design_batch`); a case passes only if every
        lane passes.  Batched mode is mutually exclusive with
        ``coverage``.
        ``jobs`` > 1 fans independent cases out over a
        :class:`~repro.util.pool.ForkPool` (serial where ``fork`` is
        missing, and always under ``stop_on_failure``, so the early-exit
        semantics hold).  ``cache`` (an
        :class:`~repro.core.cache.ArtifactCache` or a directory path)
        answers unchanged passing cases and keeps new passes; a
        batched run neither looks up nor stores.  ``coverage=True``
        collects functional coverage per case and merges it into
        ``report.coverage``; when a trace recorder is installed
        (:func:`repro.obs.install`) every case — including pool
        workers, which inherit the recorder over ``fork`` — lands in
        one timeline.  ``ledger`` (a :class:`repro.obs.Ledger` or a
        path) appends one row per suite run — and one per case — after
        the run completes; the database is only touched in the parent
        process, after any worker pool has drained, so worker
        concurrency never reaches SQLite.
        """
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        if batch > 1 and coverage:
            raise ValueError(
                "coverage collection is per-run and not supported "
                "in batched mode")
        if batch > 1:  # a lane's time is a share of its batch: no store
            cache = None
        elif isinstance(cache, (str, Path)):
            cache = ArtifactCache(cache)
        report = SuiteReport(backend=backend, jobs=jobs)
        suite_started = time.perf_counter()

        keys: List[Optional[str]] = [None] * len(self.cases)
        slots: List[Optional[CaseResult]] = [None] * len(self.cases)
        pending: List[int] = []
        for index, case in enumerate(self.cases):
            if cache is not None:
                keys[index] = case_key(case, seed=seed, fsm_mode=fsm_mode,
                                       backend=backend, coverage=coverage,
                                       batch=batch)
                payload = cache.load(keys[index])
                if payload is not None:
                    slots[index] = result_from_payload(payload, cached=True)
                    report.cache_hits += 1
                    continue
                report.cache_misses += 1
            pending.append(index)

        # read the sources here, once: fork workers inherit them
        for index in pending:
            try:
                function_source(self.cases[index].func)
            except (OSError, TypeError):
                pass  # the case's compile reports it
        options = dict(seed=seed, fsm_mode=fsm_mode, backend=backend,
                       coverage=coverage, batch=batch)
        run_span = span("suite.run", "suite", suite=self.name,
                        backend=backend, jobs=jobs, cases=len(self.cases),
                        cached=report.cache_hits)
        with run_span, ForkPool(1 if stop_on_failure else jobs,
                                (self.cases, options)) as pool:
            results = pool.map(_run_pending_case, pending,
                               label=lambda index: [self.cases[index].name])
            for index, result in zip(pending, results):
                slots[index] = result
                if cache is not None and result.passed:
                    cache.store(keys[index], result_to_payload(result))
                if stop_on_failure and not result.passed:
                    break

        # preserve case order; under stop_on_failure, truncate at the
        # first case that never ran (matching the historical serial
        # semantics of "cases after the failure are absent")
        for result in slots:
            if result is None:
                break
            report.results.append(result)
        if coverage:
            merged = CoverageReport()
            for result in report.results:
                if result.verification is not None \
                        and result.verification.coverage is not None:
                    merged.merge(result.verification.coverage)
            report.coverage = merged
        report.wall_seconds = time.perf_counter() - suite_started

        if ledger is not None:
            from ..obs.ledger import ledger_sink
            with ledger_sink(ledger) as sink:
                sink.record_suite(
                    report, suite=self.name,
                    sizes={case.name: dict(case.params)
                           for case in self.cases})
        return report
