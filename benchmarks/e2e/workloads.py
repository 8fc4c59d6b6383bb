"""The closed-loop workloads: regression suites and a fault campaign.

Each runs a fixed number of units of work through a public entry point
(:meth:`repro.core.TestSuite.run`, :func:`repro.inject.run_campaign`)
and returns an :class:`Outcome`: one latency per verdict, the counts of
operations attempted and failed, and the records the outputs digest is
taken over.  Each unit runs inside ``tracer.unit(index)`` (see
:class:`layers.UnitTracer`), which records it or not.  Units with a
negative index are warm-up: they run first, untimed and unrecorded,
while the host settles into the load and the kernel cache fills.
``before_unit(index)`` runs untimed before each measured unit.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, field
from typing import Dict, List, Sequence

#: pool workers everywhere: the reference host has two cores
JOBS = 2

#: the full sizes of benchmarks/test_bench_suite.py
SIZES_LARGE = {
    "fdct1": {"pixels": 32768},
    "fdct2": {"pixels": 8192},
    "idct": {"pixels": 8192},
    "hamming": {"n_words": 8192},
    "fir": {"n_out": 4096, "taps": 8},
    "matmul": {"n": 20},
    "threshold": {"n_pixels": 16384},
    "popcount": {"n_words": 8192},
}

CAMPAIGN_APP = "fdct1"
CAMPAIGN_PIXELS = 256
CAMPAIGN_FAULTS = 200


def percentile(values: Sequence[float], q: int) -> float:
    """The *q*-th percentile (statistics.quantiles, exclusive method)."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100)[q - 1]


def tail(values: Sequence[float]) -> float:
    """The highest percentile with at least ten samples beyond it: the
    eleventh-slowest value, or the median of fewer than 21 values."""
    if len(values) < 21:
        return statistics.median(values)
    return sorted(values)[-11]


@dataclass
class Outcome:
    """What one workload run measured and produced."""

    #: seconds from a unit's start (or due time) to its verdict
    latencies: List[float] = field(default_factory=list)
    #: whether each unit ran with the layer spans recording
    traced: List[bool] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    #: deterministic outputs (verdicts, cycles) for the digest
    records: list = field(default_factory=list)
    #: per-layer metrics measured outside the trace
    extra: Dict[str, float] = field(default_factory=dict)
    #: why an output is wrong, one line each
    problems: List[str] = field(default_factory=list)

    def fail(self, count: int, problem: str) -> None:
        self.failed += count
        self.problems.append(problem)


def regress(seed: int, iterations: int, tracer, *, cold: bool,
            warmup: int, before_unit=lambda index: None) -> Outcome:
    """The standard suite, ``traced`` backend, ``JOBS`` workers.

    ``cold`` runs the registry's default sizes on a fresh memory-only
    kernel cache per iteration (every kernel misses, as right after a
    compiler change); otherwise the full sizes run against the kernel
    cache on disk that the warm-up filled.
    """
    from repro.apps import registry
    from repro.core.kernelcache import KernelCache, set_default_cache

    sizes = None if cold else SIZES_LARGE
    outcome = Outcome()
    for index in range(-warmup, iterations):
        before_unit(index)
        if cold:
            set_default_cache(KernelCache(None))
        suite = registry.standard_suite(sizes)
        with tracer.unit(index) as recording:
            started = time.perf_counter()
            report = suite.run(seed=seed + index, backend="traced",
                               jobs=JOBS)
            elapsed = time.perf_counter() - started
        if index < 0:
            continue
        outcome.latencies.append(elapsed)
        outcome.traced.append(recording)
        for result in report.results:
            outcome.attempted += 1
            cycles = result.verification.cycles \
                if result.verification is not None else None
            outcome.records.append((index, result.case, result.passed,
                                    cycles))
            if not result.passed:
                outcome.fail(1, f"{result.case} seed {seed + index}: "
                                f"{result.error or 'FAIL against golden'}")
    return outcome


def fault_campaign(seed: int, iterations: int, tracer, *, warmup: int,
                   before_unit=lambda index: None) -> Outcome:
    """fdct1 campaigns on the ``compiled`` backend, ``JOBS`` workers.

    Each iteration compiles the design, draws ``CAMPAIGN_FAULTS`` faults
    of all three kinds and classifies them on a fresh memory-only
    kernel cache, so every fault pays for its own kernel.
    """
    from repro.apps import registry
    from repro.core.kernelcache import KernelCache, set_default_cache
    from repro.inject import FaultloadGenerator, run_campaign, \
        run_injection

    outcome = Outcome()
    case = registry.suite_case(CAMPAIGN_APP, pixels=CAMPAIGN_PIXELS)
    # the fault-free cycle count bounds the transient-upset windows,
    # exactly as `repro campaign` draws its faultloads
    probe = run_injection(case.compile(), case.func, None,
                          case.inputs(seed), backend="compiled")
    if probe.verdict != "masked":
        outcome.fail(1, f"probe run classifies as {probe.verdict}")
        return outcome
    for index in range(-warmup, iterations):
        before_unit(index)
        set_default_cache(KernelCache(None))
        with tracer.unit(index) as recording:
            started = time.perf_counter()
            design = case.compile()
            faults = FaultloadGenerator(
                design, seed=seed * 1000 + index,
                max_cycle=probe.cycles).generate(CAMPAIGN_FAULTS)
            try:
                report = run_campaign(
                    design, case.func, faults, case.inputs(seed + index),
                    app=CAMPAIGN_APP, backend="compiled", jobs=JOBS,
                    seed=seed + index)
            except ValueError as exc:  # the baseline is not masked
                report = None
                problem = str(exc)
            elapsed = time.perf_counter() - started
        if index < 0:
            continue
        outcome.attempted += CAMPAIGN_FAULTS + 1  # the faults + baseline
        outcome.latencies.append(elapsed)
        outcome.traced.append(recording)
        if report is None:
            outcome.fail(CAMPAIGN_FAULTS + 1, f"iteration {index}: "
                                              f"{problem}")
            continue
        verdicts = [(result.fault.fault_id, result.verdict, result.cycles)
                    for result in report.results]
        outcome.records.append((index, report.baseline.cycles, verdicts))
        # a worker-boundary exception is folded into a "crash" whose
        # note carries the harness traceback: not a classification
        broken = sum(1 for result in report.results
                     if "Traceback" in result.note)
        unclassified = len(faults) - len(report.results)
        if broken or unclassified:
            outcome.fail(broken + unclassified,
                         f"iteration {index}: {unclassified} fault(s) "
                         f"unclassified, {broken} harness crash(es)")
    return outcome
