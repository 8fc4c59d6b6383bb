"""Counters and run metrics, emitted as machine-readable ``metrics.json``.

A :class:`Metrics` object is a named bag of integer counters plus
free-form info fields.  The pipeline's hot paths already maintain their
own counters (:class:`repro.sim.SimulationStats`, cache hit/miss tallies,
fuzz outcome counts); this module *harvests* them after the fact rather
than instrumenting the inner loops, so metrics collection costs nothing
while a simulation runs.

The ``as_dict`` layout is stable::

    {
      "schema": 1,
      "kind": "suite" | "flow" | "verification" | "fuzz",
      "counters": {"cycles": ..., "evaluations": ..., ...},
      "info": {...},
      "coverage": {...}          # present when coverage was collected
    }
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple, Union

__all__ = ["Metrics", "Histogram", "render_prometheus_histogram",
           "verification_metrics", "suite_metrics",
           "flow_metrics", "campaign_metrics", "serve_metrics"]

_SCHEMA = 1

#: per-run kernel stats keys already counted at the result level;
#: merging them again would double-count
_AGGREGATED_KEYS = ("cycles", "evaluations")


class Metrics:
    """A named collection of integer counters and info values."""

    def __init__(self, kind: str = "run") -> None:
        self.kind = kind
        self.counters: Dict[str, int] = {}
        self.info: Dict[str, Any] = {}
        self.coverage: Optional[Dict[str, Any]] = None

    # ------------------------------------------------------------------
    def inc(self, name: str, amount: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + int(amount)

    def set_info(self, name: str, value: Any) -> None:
        self.info[name] = value

    def merge_counts(self, counts: Mapping[str, int],
                     prefix: str = "") -> None:
        for name, value in counts.items():
            self.inc(f"{prefix}{name}", value)

    def merge(self, other: "Metrics") -> None:
        self.merge_counts(other.counters)
        for name, value in other.info.items():
            self.info.setdefault(name, value)

    # ------------------------------------------------------------------
    def as_dict(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {
            "schema": _SCHEMA,
            "kind": self.kind,
            "counters": dict(sorted(self.counters.items())),
            "info": self.info,
        }
        if self.coverage is not None:
            payload["coverage"] = self.coverage
        return payload

    def write(self, path: Union[str, Path]) -> Path:
        path = Path(path)
        if path.parent and not path.parent.exists():
            path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.as_dict(), indent=2,
                                   default=str) + "\n")
        return path

    def summary(self) -> str:
        shown = ", ".join(f"{name}={value}" for name, value
                          in sorted(self.counters.items()))
        return f"metrics[{self.kind}]: {shown}"

    def __repr__(self) -> str:
        return f"Metrics({self.kind!r}, {len(self.counters)} counter(s))"


# ----------------------------------------------------------------------
# Histograms — mergeable log-bucket distributions
# ----------------------------------------------------------------------
#: sub-buckets per octave (power of two): bucket width grows by
#: ``2**(1/8) ≈ 1.09``, so any quantile estimate is within ~4.5% of the
#: true value — plenty for latency percentiles, tiny to serialize
_HIST_GRID = 8


class Histogram:
    """A mergeable log-bucket histogram (latencies, sizes, durations).

    Values land in exponentially sized buckets: value ``v > 0`` goes to
    bucket ``floor(log2(v) * GRID)``, covering ``[2**(i/GRID),
    2**((i+1)/GRID))``.  Like the :class:`Metrics` counter bags, two
    histograms merge by addition — a fork worker can serialize its half
    (:meth:`as_dict`), ship it over a pipe, and the parent folds it in
    (:meth:`merge`) without losing any quantile fidelity beyond the
    bucket width.  Quantiles are estimated at the geometric midpoint of
    the covering bucket, clamped to the observed min/max.
    """

    __slots__ = ("name", "buckets", "zeros", "count", "total",
                 "min", "max")

    GRID = _HIST_GRID

    def __init__(self, name: str = "") -> None:
        self.name = name
        #: bucket index -> observation count (sparse)
        self.buckets: Dict[int, int] = {}
        #: observations <= 0 (a zero-length queue wait is real data)
        self.zeros = 0
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    # ------------------------------------------------------------------
    def observe(self, value: Union[int, float]) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        if value <= 0.0:
            self.zeros += 1
            return
        index = math.floor(math.log2(value) * self.GRID)
        self.buckets[index] = self.buckets.get(index, 0) + 1

    def merge(self, other: "Histogram") -> None:
        for index, tally in other.buckets.items():
            self.buckets[index] = self.buckets.get(index, 0) + tally
        self.zeros += other.zeros
        self.count += other.count
        self.total += other.total
        if other.min is not None and (self.min is None
                                      or other.min < self.min):
            self.min = other.min
        if other.max is not None and (self.max is None
                                      or other.max > self.max):
            self.max = other.max

    # ------------------------------------------------------------------
    def quantile(self, q: float) -> float:
        """Estimated q-quantile (``0 <= q <= 1``); 0.0 when empty."""
        if self.count == 0:
            return 0.0
        target = max(1, math.ceil(q * self.count))
        cumulative = self.zeros
        if cumulative >= target:
            return max(self.min or 0.0, 0.0)
        for index in sorted(self.buckets):
            cumulative += self.buckets[index]
            if cumulative >= target:
                estimate = 2.0 ** ((index + 0.5) / self.GRID)
                if self.min is not None:
                    estimate = max(estimate, self.min)
                if self.max is not None:
                    estimate = min(estimate, self.max)
                return estimate
        return self.max if self.max is not None else 0.0

    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    # ------------------------------------------------------------------
    def bucket_edges(self) -> List[Tuple[float, int]]:
        """Cumulative ``(upper_edge, count)`` pairs, Prometheus-style
        (zeros fold into the first finite bucket; +Inf is implicit via
        :attr:`count`)."""
        edges: List[Tuple[float, int]] = []
        cumulative = self.zeros
        for index in sorted(self.buckets):
            cumulative += self.buckets[index]
            edges.append((2.0 ** ((index + 1) / self.GRID), cumulative))
        return edges

    def as_dict(self) -> Dict[str, Any]:
        return {
            "schema": _SCHEMA,
            "grid": self.GRID,
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
            "zeros": self.zeros,
            "buckets": {str(index): tally
                        for index, tally in sorted(self.buckets.items())},
            "p50": self.quantile(0.50),
            "p90": self.quantile(0.90),
            "p99": self.quantile(0.99),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any],
                  name: str = "") -> "Histogram":
        hist = cls(name)
        if not isinstance(data, Mapping):
            return hist
        grid = int(data.get("grid", cls.GRID) or cls.GRID)
        raw = data.get("buckets") or {}
        for index, tally in raw.items():
            index = int(index)
            if grid != cls.GRID:  # re-grid a foreign serialization
                index = math.floor((index / grid) * cls.GRID)
            hist.buckets[index] = hist.buckets.get(index, 0) + int(tally)
        hist.zeros = int(data.get("zeros", 0) or 0)
        hist.count = int(data.get("count", 0) or 0)
        hist.total = float(data.get("sum", 0.0) or 0.0)
        hist.min = data.get("min")
        hist.max = data.get("max")
        if hist.min is not None:
            hist.min = float(hist.min)
        if hist.max is not None:
            hist.max = float(hist.max)
        return hist

    def summary(self) -> Dict[str, Any]:
        """The quantile digest persisted into ledger rows / reports."""
        return {"count": self.count, "sum": round(self.total, 9),
                "min": self.min, "max": self.max,
                "p50": self.quantile(0.50), "p90": self.quantile(0.90),
                "p99": self.quantile(0.99)}

    def __repr__(self) -> str:
        return (f"Histogram({self.name!r}, count={self.count}, "
                f"p50={self.quantile(0.5):.6g})")


def _prom_label_text(labels: Mapping[str, Any]) -> str:
    if not labels:
        return ""
    rendered = ",".join(
        '%s="%s"' % (key, str(value).replace("\\", "\\\\")
                     .replace('"', '\\"').replace("\n", "\\n"))
        for key, value in sorted(labels.items()))
    return "{" + rendered + "}"


def render_prometheus_histogram(
        name: str,
        series: Iterable[Tuple[Mapping[str, Any], "Histogram"]],
        help_text: str = "") -> List[str]:
    """One Prometheus ``histogram`` family: cumulative ``_bucket`` lines
    (ending at ``+Inf``), ``_sum`` and ``_count`` per labelled series."""
    lines = [f"# HELP {name} {help_text or name}",
             f"# TYPE {name} histogram"]
    for labels, hist in series:
        for edge, cumulative in hist.bucket_edges():
            tags = dict(labels)
            tags["le"] = "%.9g" % edge
            lines.append(f"{name}_bucket{_prom_label_text(tags)} "
                         f"{cumulative}")
        tags = dict(labels)
        tags["le"] = "+Inf"
        lines.append(f"{name}_bucket{_prom_label_text(tags)} {hist.count}")
        lines.append(f"{name}_sum{_prom_label_text(dict(labels))} "
                     f"{hist.total:.9g}")
        lines.append(f"{name}_count{_prom_label_text(dict(labels))} "
                     f"{hist.count}")
    return lines


# ----------------------------------------------------------------------
# Harvesters — one per pipeline artifact (duck-typed: no core imports,
# repro.core itself imports this package)
# ----------------------------------------------------------------------
def verification_metrics(result) -> Metrics:
    """Counters for one :class:`repro.core.VerificationResult` (or a
    :class:`~repro.core.BatchVerificationResult`, which additionally
    reports batch size, elaborations and amortized per-lane cost)."""
    metrics = Metrics("verification")
    metrics.set_info("design", result.design)
    metrics.set_info("backend", result.backend)
    metrics.set_info("passed", result.passed)
    metrics.set_info("golden_seconds", round(result.golden_seconds, 6))
    metrics.set_info("simulation_seconds",
                     round(result.simulation_seconds, 6))
    metrics.inc("cycles", result.cycles)
    metrics.inc("reconfigurations", result.reconfigurations)
    metrics.inc("evaluations", result.evaluations)
    batch_size = getattr(result, "batch_size", None)
    if batch_size is not None:
        metrics.set_info("batch_size", batch_size)
        metrics.set_info("lane_seconds", round(result.lane_seconds, 6))
        metrics.inc("batch_lanes", batch_size)
        metrics.inc("elaborations", result.elaborations)
        metrics.inc("memories_checked",
                    sum(len(lane.checks) for lane in result.lanes))
        metrics.inc("mismatches",
                    sum(len(check.mismatches)
                        for lane in result.lanes
                        for check in lane.checks))
        return metrics
    metrics.inc("memories_checked", len(result.checks))
    metrics.inc("mismatches",
                sum(len(check.mismatches) for check in result.checks))
    rtg = result.rtg_result
    if rtg is not None:
        for run in rtg.runs:
            metrics.merge_counts({name: value
                                  for name, value in run.stats.items()
                                  if name not in _AGGREGATED_KEYS})
    coverage = getattr(result, "coverage", None)
    if coverage is not None:
        metrics.coverage = coverage.as_dict()
    return metrics


def suite_metrics(report, cache=None) -> Metrics:
    """Aggregate counters for one :class:`repro.core.SuiteReport`."""
    metrics = Metrics("suite")
    metrics.set_info("backend", report.backend)
    metrics.set_info("jobs", report.jobs)
    metrics.set_info("wall_seconds", round(report.wall_seconds, 3))
    metrics.set_info("passed", report.passed)
    metrics.inc("cases", len(report.results))
    metrics.inc("failures", len(report.failures))
    metrics.inc("cache_hits", report.cache_hits)
    for result in report.results:
        if result.cached:
            metrics.inc("cached_results")
        if result.verification is not None:
            sub = verification_metrics(result.verification)
            metrics.merge_counts(sub.counters)
    if cache is not None:
        metrics.set_info("cache_dir", str(cache.root))
        metrics.counters["cache_hits"] = cache.hits
        metrics.inc("cache_misses", cache.misses)
    coverage = getattr(report, "coverage", None)
    if coverage is not None:
        metrics.coverage = coverage.as_dict()
    return metrics


def flow_metrics(report) -> Metrics:
    """Counters for one :class:`repro.core.FlowReport`."""
    metrics = Metrics("flow")
    metrics.set_info("total_seconds", round(report.total_seconds, 6))
    metrics.set_info("stage_seconds", {
        stage.name: round(stage.seconds, 6) for stage in report.stages
    })
    metrics.inc("stages", len(report.stages))
    context = report.context
    if "passed" in context:
        metrics.set_info("passed", bool(context["passed"]))
    rtg = context.get("rtg_run")
    if rtg is not None:
        metrics.inc("cycles", rtg.total_cycles)
        metrics.inc("evaluations", rtg.total_evaluations)
        metrics.inc("reconfigurations", rtg.reconfigurations)
        for run in rtg.runs:
            metrics.merge_counts({name: value
                                  for name, value in run.stats.items()
                                  if name not in _AGGREGATED_KEYS})
    coverage = context.get("coverage")
    if coverage is not None:
        metrics.coverage = coverage.as_dict()
    return metrics


def campaign_metrics(report) -> Metrics:
    """Counters for one :class:`repro.fuzz.CampaignReport`."""
    metrics = Metrics("fuzz")
    metrics.set_info("seed", report.seed)
    metrics.set_info("jobs", report.jobs)
    metrics.set_info("wall_seconds", round(report.wall_seconds, 3))
    metrics.inc("iterations", report.iterations)
    metrics.inc("failures", len(report.failures))
    metrics.merge_counts(report.counts, prefix="outcome_")
    new_seeds = getattr(report, "new_coverage_seeds", None)
    if new_seeds is not None:
        metrics.inc("new_coverage_seeds", len(new_seeds))
        coverage_items = getattr(report, "coverage_items", None)
        if coverage_items is not None:
            metrics.inc("coverage_items", len(coverage_items))
    return metrics


def serve_metrics(stats: Mapping[str, Any]) -> Metrics:
    """Counters for one ``repro serve`` session (the scheduler's final
    :meth:`~repro.serve.ServeScheduler.stats` dict): integer tallies
    become counters, rates and wall time become info fields, and the
    latency histograms collapse to their quantile summaries."""
    metrics = Metrics("serve")
    for name, value in stats.items():
        if name == "histograms" or isinstance(value, bool):
            continue
        if isinstance(value, int):
            metrics.inc(name, value)
        elif isinstance(value, float):
            metrics.set_info(name, round(value, 6))
        elif isinstance(value, (list, str)):
            metrics.set_info(name, value)
    histograms = stats.get("histograms")
    if isinstance(histograms, Mapping):
        metrics.set_info("histograms", {
            name: Histogram.from_dict(data, name).summary()
            for name, data in sorted(histograms.items())})
    return metrics
