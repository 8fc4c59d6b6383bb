"""The regression sentinel: current run vs. a rolling baseline.

Given a ledger (:mod:`repro.obs.ledger`), the sentinel compares the
most recent run against the history of every (app, backend, size) key
it touched and flags three regression classes:

* **perf** — per-app simulation time above the robust noise band of
  its baseline (median + ``sigma`` scaled MADs) *and* above a relative
  floor (``min_rel`` × median), so microsecond jitter on a fast case
  never pages anyone but a genuine kernel slowdown always does;
* **coverage** — FSM state or transition coverage of a scope more than
  ``coverage_drop`` percentage points below the baseline median;
* **cache** — a cache hit rate (artifact or kernel) collapsing more
  than ``cache_drop`` below its baseline median.

Robust statistics because run history is dirty: one cold-cache outlier
or one loaded CI host must not poison the baseline the way it would a
mean/stddev band.  The scaled MAD (× 1.4826) estimates the standard
deviation under normality, so ``sigma`` reads like a z-score.

Keys with fewer than ``min_samples`` baseline points are *skipped*,
never guessed at — a brand-new app or backend produces no findings
until its history exists.

Fault-injection campaigns (``inject``-kind runs, see
:mod:`repro.inject`) are invisible to the perf gate in both directions:
their case rows never enter a baseline history (a campaign's fault-free
baseline timing is measured under campaign load, not bench conditions)
and an inject run under comparison is never itself perf-gated.  A row
is judged only against rows that timed as many stimulus sets
(``CaseRow.stimuli``): a batch row's ``sim_seconds`` covers its whole
batch, so it never joins a single-run history, and a single run never
joins a batch history.

Exposed as ``python -m repro obs compare [--fail-on-regression]``; the
CI workflow diffs each PR's quick-bench run against the committed
``benchmarks/baseline_ledger.sqlite``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from .ledger import Ledger, RunRow

__all__ = ["Thresholds", "Finding", "RegressionReport", "compare_run",
           "median", "mad"]

#: MAD → standard-deviation consistency constant (normal distribution)
MAD_SCALE = 1.4826


def median(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("median of empty sequence")
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return float(ordered[mid])
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def mad(values: Sequence[float],
        center: Optional[float] = None) -> float:
    """Median absolute deviation (unscaled)."""
    if not values:
        raise ValueError("mad of empty sequence")
    center = median(values) if center is None else center
    return median([abs(value - center) for value in values])


@dataclass
class Thresholds:
    """Sentinel knobs, all overridable from the CLI."""

    #: z-score-like width of the perf noise band (scaled MADs)
    sigma: float = 3.0
    #: minimum baseline points before a key is judged at all
    min_samples: int = 3
    #: perf findings additionally require current > min_rel * median
    min_rel: float = 1.25
    #: coverage drop threshold, in percentage points
    coverage_drop: float = 5.0
    #: cache hit-rate drop threshold, as an absolute rate (0..1)
    cache_drop: float = 0.25
    #: how many baseline runs back the rolling window reaches
    history: int = 20


@dataclass
class Finding:
    """One flagged regression."""

    kind: str              # "perf" | "coverage" | "cache"
    subject: str           # e.g. "fdct1/compiled" or "aggregate"
    metric: str            # e.g. "sim_seconds", "state_coverage"
    baseline: float
    current: float
    samples: int
    detail: str = ""

    @property
    def ratio(self) -> float:
        return self.current / self.baseline if self.baseline else float("inf")

    def describe(self) -> str:
        if self.kind == "perf":
            change = f"{self.ratio:.2f}x baseline median"
        else:
            change = f"{self.baseline:.4g} -> {self.current:.4g}"
        text = (f"[{self.kind}] {self.subject} {self.metric}: {change} "
                f"(baseline median {self.baseline:.4g} over "
                f"{self.samples} run(s), current {self.current:.4g})")
        if self.detail:
            text += f" — {self.detail}"
        return text


@dataclass
class RegressionReport:
    """Everything one sentinel pass concluded."""

    run: Optional[RunRow]
    findings: List[Finding] = field(default_factory=list)
    checked: int = 0
    skipped: List[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.findings

    def summary(self) -> str:
        if self.run is None:
            return "sentinel: ledger holds no runs to compare"
        head = (f"sentinel: run #{self.run.run_id} ({self.run.kind}) vs "
                f"rolling baseline — {self.checked} metric(s) checked, "
                f"{len(self.findings)} regression(s), "
                f"{len(self.skipped)} skipped (insufficient history)")
        lines = [head]
        for finding in self.findings:
            lines.append("  " + finding.describe())
        if self.skipped:
            shown = ", ".join(self.skipped[:8])
            if len(self.skipped) > 8:
                shown += f", … ({len(self.skipped) - 8} more)"
            lines.append(f"  skipped: {shown}")
        if self.passed:
            lines.append("  no regressions against the baseline")
        return "\n".join(lines)


def _perf_gate(history: List[float], current: float,
               thresholds: Thresholds) -> Optional[tuple]:
    """(baseline_median, band) if *current* breaks the noise band."""
    center = median(history)
    spread = mad(history, center) * MAD_SCALE
    band = center + thresholds.sigma * spread
    if current > band and current > center * thresholds.min_rel:
        return center, band
    return None


def compare_run(ledger: Ledger, *, run_id: Optional[int] = None,
                baseline: Optional[Ledger] = None,
                thresholds: Optional[Thresholds] = None
                ) -> RegressionReport:
    """Compare one run (default: the latest) against its baseline.

    The baseline history comes from *baseline* when given (e.g. the
    committed CI ledger), otherwise from *ledger* itself with the
    compared run excluded — the rolling self-baseline.
    """
    thresholds = thresholds or Thresholds()
    run = ledger.run(run_id) if run_id is not None else ledger.latest_run()
    report = RegressionReport(run=run)
    if run is None:
        return report
    source = baseline if baseline is not None else ledger
    exclude = None if baseline is not None else run.run_id

    # -- perf: per-(app, backend, size) simulation seconds -------------
    # fault campaigns are not perf runs: never gate them, never let
    # their rows into a baseline; serve sessions mix batch-amortized
    # and cache-served timings, equally incomparable
    cases = [] if run.kind in ("inject", "serve") \
        else ledger.case_rows(run.run_id)
    for case in cases:
        if case.sim_seconds is None or case.cached:
            continue
        subject = f"{case.app}/{case.backend}"
        if case.stimuli > 1:
            subject += f" x{case.stimuli}"
        history = [row.sim_seconds for row in source.case_history(
                       case.app, case.backend, case.size,
                       exclude_run=exclude,
                       exclude_kinds=("inject", "serve"),
                       limit=thresholds.history)
                   if row.sim_seconds is not None and not row.cached
                   and row.stimuli == case.stimuli]
        if len(history) < thresholds.min_samples:
            report.skipped.append(subject)
            continue
        report.checked += 1
        broke = _perf_gate(history, case.sim_seconds, thresholds)
        if broke is not None:
            center, band = broke
            report.findings.append(Finding(
                kind="perf", subject=subject, metric="sim_seconds",
                baseline=center, current=case.sim_seconds,
                samples=len(history),
                detail=f"noise band ends at {band:.4g}s "
                       f"(sigma={thresholds.sigma:g}, "
                       f"min_rel={thresholds.min_rel:g})"))

    # -- coverage: per-scope state/transition percentages --------------
    for row in ledger.coverage_rows(run.run_id):
        history_rows = source.coverage_history(
            row.scope, exclude_run=exclude, limit=thresholds.history)
        if len(history_rows) < thresholds.min_samples:
            report.skipped.append(f"coverage:{row.scope}")
            continue
        for metric in ("state_coverage", "transition_coverage"):
            current = getattr(row, metric)
            history = [getattr(entry, metric) for entry in history_rows
                       if getattr(entry, metric) is not None]
            if current is None or len(history) < thresholds.min_samples:
                continue
            report.checked += 1
            center = median(history)
            dropped_points = (center - current) * 100.0
            if dropped_points > thresholds.coverage_drop:
                report.findings.append(Finding(
                    kind="coverage", subject=row.scope, metric=metric,
                    baseline=center, current=current,
                    samples=len(history),
                    detail=f"dropped {dropped_points:.1f} points "
                           f"(threshold "
                           f"{thresholds.coverage_drop:g})"))

    # -- cache: hit-rate collapse --------------------------------------
    for row in ledger.cache_rows(run.run_id):
        history_rows = source.cache_history(
            row.cache, exclude_run=exclude, limit=thresholds.history)
        if len(history_rows) < thresholds.min_samples:
            report.skipped.append(f"cache:{row.cache}")
            continue
        report.checked += 1
        center = median([entry.hit_rate for entry in history_rows])
        if center - row.hit_rate > thresholds.cache_drop:
            report.findings.append(Finding(
                kind="cache", subject=row.cache, metric="hit_rate",
                baseline=center, current=row.hit_rate,
                samples=len(history_rows),
                detail=f"dropped {center - row.hit_rate:.2f} "
                       f"(threshold {thresholds.cache_drop:g})"))

    return report
