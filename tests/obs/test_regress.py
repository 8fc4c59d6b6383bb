"""Tests for the regression sentinel (median + MAD baselines)."""

import pytest

from repro.cli import main
from repro.obs.ledger import Ledger
from repro.obs.regress import Thresholds, compare_run, mad, median

from .test_ledger import (FakeCoverage, FakeInjectionReport,
                          FakeSuiteReport, record_suites)


class TestStats:
    def test_median(self):
        assert median([3.0, 1.0, 2.0]) == 2.0
        assert median([1.0, 2.0, 3.0, 4.0]) == 2.5
        with pytest.raises(ValueError):
            median([])

    def test_mad(self):
        assert mad([1.0, 1.0, 1.0]) == 0.0
        assert mad([1.0, 2.0, 4.0]) == 1.0


def _seed_baseline(ledger, runs=3, sim=0.1, coverage=None,
                   cache=(8, 2)):
    hits, misses = cache
    for _ in range(runs):
        ledger.record_suite(
            FakeSuiteReport(["alpha", "beta"], sim=sim,
                            coverage=coverage or FakeCoverage(),
                            cache_hits=hits, cache_misses=misses),
            suite="t", sizes={"alpha": {"n": 8}, "beta": {"n": 8}})


class TestCompare:
    def test_clean_run_passes(self, tmp_path):
        with Ledger(tmp_path / "l.sqlite") as ledger:
            _seed_baseline(ledger, runs=4)
            report = compare_run(ledger)
            assert report.passed
            assert report.checked > 0
            assert not report.skipped
            assert "no regressions" in report.summary()

    def test_twofold_slowdown_is_flagged(self, tmp_path):
        with Ledger(tmp_path / "l.sqlite") as ledger:
            _seed_baseline(ledger, runs=3, sim=0.1)
            _seed_baseline(ledger, runs=1, sim=0.2)  # 2x the median
            report = compare_run(ledger)
            perf = [f for f in report.findings if f.kind == "perf"]
            assert len(perf) == 2  # both apps slowed down
            assert all(f.ratio == pytest.approx(2.0) for f in perf)
            assert all(f.metric == "sim_seconds" for f in perf)

    def test_twenty_point_coverage_drop_is_flagged(self, tmp_path):
        with Ledger(tmp_path / "l.sqlite") as ledger:
            _seed_baseline(ledger, runs=3,
                           coverage=FakeCoverage(state=0.95))
            _seed_baseline(ledger, runs=1,
                           coverage=FakeCoverage(state=0.75))
            report = compare_run(ledger)
            drops = [f for f in report.findings
                     if f.kind == "coverage"
                     and f.metric == "state_coverage"]
            assert drops, report.summary()
            assert drops[0].current == pytest.approx(0.75)

    def test_cache_hit_rate_collapse_is_flagged(self, tmp_path):
        with Ledger(tmp_path / "l.sqlite") as ledger:
            _seed_baseline(ledger, runs=3, cache=(9, 1))     # 0.9
            _seed_baseline(ledger, runs=1, cache=(1, 9))     # 0.1
            report = compare_run(ledger)
            cache = [f for f in report.findings if f.kind == "cache"]
            assert cache and cache[0].subject == "artifact"

    def test_small_jitter_stays_quiet(self, tmp_path):
        """Within min_rel of the median: never flagged, even with a
        degenerate (MAD=0) baseline."""
        with Ledger(tmp_path / "l.sqlite") as ledger:
            _seed_baseline(ledger, runs=3, sim=0.1)
            _seed_baseline(ledger, runs=1, sim=0.112)
            assert compare_run(ledger).passed

    def test_min_samples_floor_skips(self, tmp_path):
        with Ledger(tmp_path / "l.sqlite") as ledger:
            _seed_baseline(ledger, runs=2, sim=0.1)  # only 1 baseline pt
            report = compare_run(ledger)
            assert report.passed
            assert "alpha/event" in report.skipped

    def test_separate_baseline_ledger(self, tmp_path):
        with Ledger(tmp_path / "base.sqlite") as base:
            _seed_baseline(base, runs=3, sim=0.1)
        with Ledger(tmp_path / "cur.sqlite") as current:
            _seed_baseline(current, runs=1, sim=0.5)
            with Ledger(tmp_path / "base.sqlite") as base:
                report = compare_run(current, baseline=base)
            assert not report.passed
            assert any(f.kind == "perf" for f in report.findings)

    def test_cached_rows_are_ignored(self, tmp_path):
        with Ledger(tmp_path / "l.sqlite") as ledger:
            _seed_baseline(ledger, runs=3, sim=0.1)
            slow = FakeSuiteReport(["alpha"], sim=0.9)
            slow.results[0].cached = True
            ledger.record_suite(slow, suite="t",
                                sizes={"alpha": {"n": 8}})
            assert compare_run(ledger).passed

    def test_empty_ledger_reports_no_run(self, tmp_path):
        with Ledger(tmp_path / "l.sqlite") as ledger:
            report = compare_run(ledger)
            assert report.run is None
            assert "no runs" in report.summary()

    def test_thresholds_are_respected(self, tmp_path):
        with Ledger(tmp_path / "l.sqlite") as ledger:
            _seed_baseline(ledger, runs=3, sim=0.1)
            _seed_baseline(ledger, runs=1, sim=0.2)
            lax = Thresholds(min_rel=3.0, sigma=50.0)
            assert compare_run(ledger, thresholds=lax).passed


def _record_campaign(ledger, app="alpha", backend="event", seconds=5.0):
    """An inject run whose baseline case row collides with the suite
    perf key (app, backend, size) — the sentinel must ignore it."""
    report = FakeInjectionReport()
    report.app = app
    report.backend = backend
    report.baseline.seconds = seconds
    ledger.record_injection_campaign(report, size={"n": 8})


class TestInjectInvisibility:
    def test_latest_inject_run_yields_no_perf_findings(self, tmp_path):
        """Campaign wall time has nothing to do with suite perf: when
        the newest run is a campaign, the perf section is a no-op even
        though its baseline case row is 50x slower than history."""
        with Ledger(tmp_path / "l.sqlite") as ledger:
            _seed_baseline(ledger, runs=3, sim=0.1)
            _record_campaign(ledger, seconds=5.0)
            report = compare_run(ledger)
            assert report.run.kind == "inject"
            assert report.passed
            assert not [f for f in report.findings if f.kind == "perf"]

    def test_inject_rows_stay_out_of_perf_baselines(self, tmp_path):
        """Slow campaign baselines must not inflate the perf median: a
        2x suite slowdown is still flagged even after three campaigns
        recorded 50x-slower case rows under the same key."""
        with Ledger(tmp_path / "l.sqlite") as ledger:
            for _ in range(3):
                _record_campaign(ledger, seconds=5.0)
            _seed_baseline(ledger, runs=3, sim=0.1)
            _seed_baseline(ledger, runs=1, sim=0.2)
            report = compare_run(ledger)
            perf = [f for f in report.findings if f.kind == "perf"
                    and f.subject.startswith("alpha")]
            assert perf, report.summary()
            assert perf[0].ratio == pytest.approx(2.0)


def _record_traced(ledger, sim, batch_size=None):
    """One ``traced`` suite run over alpha and beta; with a
    *batch_size*, each case row times a batch of that many stimulus
    sets, so its ``sim_seconds`` covers all of them."""
    report = FakeSuiteReport(["alpha", "beta"], backend="traced", sim=sim)
    if batch_size is not None:
        for result in report.results:
            result.verification.batch_size = batch_size
            result.verification.lane_seconds = sim / batch_size
    ledger.record_suite(report, suite="t",
                        sizes={"alpha": {"n": 8}, "beta": {"n": 8}})


class TestBatchRows:
    def test_batch_row_is_not_gated_against_single_runs(self, tmp_path):
        """A traced batch of 64 takes 64x one traced run; beside a
        traced single-run history it is not flagged, only skipped for
        want of a batch history."""
        with Ledger(tmp_path / "l.sqlite") as ledger:
            for _ in range(3):
                _record_traced(ledger, sim=0.1)
            _record_traced(ledger, sim=6.4, batch_size=64)
            report = compare_run(ledger)
            assert report.passed, report.summary()
            assert {"alpha/traced x64", "beta/traced x64"} <= \
                set(report.skipped)

    def test_batch_rows_stay_out_of_the_baseline(self, tmp_path):
        """A 2x traced slowdown is judged against the three single
        runs only, not against the batch rows recorded between them."""
        with Ledger(tmp_path / "l.sqlite") as ledger:
            for _ in range(3):
                _record_traced(ledger, sim=0.1)
                _record_traced(ledger, sim=6.4, batch_size=64)
            _record_traced(ledger, sim=0.2)
            report = compare_run(ledger)
            perf = [f for f in report.findings if f.kind == "perf"]
            assert len(perf) == 2, report.summary()
            assert all(f.samples == 3 for f in perf)
            assert all(f.baseline == pytest.approx(0.1) for f in perf)

    def test_batch_row_is_gated_against_batches_of_its_size(self, tmp_path):
        """A 2x slower batch of 64 is judged against the earlier batches
        of 64 only, as the bench's ``batched`` series is."""
        with Ledger(tmp_path / "l.sqlite") as ledger:
            for _ in range(3):
                _record_traced(ledger, sim=6.4, batch_size=64)
                _record_traced(ledger, sim=0.1)
                _record_traced(ledger, sim=1.0, batch_size=8)
            _record_traced(ledger, sim=12.8, batch_size=64)
            report = compare_run(ledger)
            perf = [f for f in report.findings if f.kind == "perf"]
            assert [f.subject for f in perf] == ["alpha/traced x64",
                                                 "beta/traced x64"]
            assert all(f.samples == 3 for f in perf)
            assert all(f.baseline == pytest.approx(6.4) for f in perf)


class TestCompareCli:
    def _make_regressed(self, path):
        with Ledger(path) as ledger:
            _seed_baseline(ledger, runs=3, sim=0.1)
            _seed_baseline(ledger, runs=1, sim=0.25)

    def test_report_only_exits_zero(self, tmp_path, capsys):
        path = tmp_path / "l.sqlite"
        self._make_regressed(path)
        assert main(["obs", "compare", "--ledger", str(path)]) == 0
        assert "regression(s)" in capsys.readouterr().out

    def test_fail_on_regression_exits_one(self, tmp_path):
        path = tmp_path / "l.sqlite"
        self._make_regressed(path)
        assert main(["obs", "compare", "--ledger", str(path),
                     "--fail-on-regression"]) == 1

    def test_clean_ledger_exits_zero_with_gate(self, tmp_path):
        path = tmp_path / "l.sqlite"
        with Ledger(path) as ledger:
            _seed_baseline(ledger, runs=4, sim=0.1)
        assert main(["obs", "compare", "--ledger", str(path),
                     "--fail-on-regression"]) == 0

    def test_missing_ledger_exits_two(self, tmp_path, capsys):
        assert main(["obs", "compare", "--ledger",
                     str(tmp_path / "absent.sqlite")]) == 2
        assert "no ledger" in capsys.readouterr().err

    def test_missing_baseline_exits_two(self, tmp_path, capsys):
        path = tmp_path / "l.sqlite"
        self._make_regressed(path)
        assert main(["obs", "compare", "--ledger", str(path),
                     "--baseline", str(tmp_path / "absent.sqlite")]) == 2
        assert "baseline" in capsys.readouterr().err

    def test_threshold_flags_reach_sentinel(self, tmp_path):
        path = tmp_path / "l.sqlite"
        self._make_regressed(path)
        assert main(["obs", "compare", "--ledger", str(path),
                     "--fail-on-regression",
                     "--min-rel", "5", "--sigma", "100"]) == 0

    def test_empty_ledger_exits_two(self, tmp_path):
        with Ledger(tmp_path / "empty.sqlite"):
            pass
        assert main(["obs", "compare", "--ledger",
                     str(tmp_path / "empty.sqlite")]) == 2
