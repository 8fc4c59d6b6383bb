"""Tests for the self-contained HTML dashboard and the exporters."""

import json
import re

from repro.cli import main
from repro.obs.dashboard import (export_json, export_prometheus,
                                 render_dashboard)
from repro.obs.ledger import Ledger

from .test_ledger import (FakeCampaignReport, FakeCoverage,
                          FakeInjectionReport, FakeSuiteReport)

APPS = ["fdct1", "fdct2", "idct", "hamming", "fir", "matmul",
        "threshold", "popcount"]


def _populate(ledger, runs=3, backends=("event", "compiled")):
    sizes = {app: {"n": 8} for app in APPS}
    for backend in backends:
        for index in range(runs):
            ledger.record_suite(
                FakeSuiteReport(APPS, backend=backend,
                                sim=0.1 + 0.01 * index,
                                coverage=FakeCoverage(),
                                cache_hits=4, cache_misses=1),
                suite="t", sizes=sizes)
    ledger.record_fuzz(FakeCampaignReport())


class TestDashboard:
    def test_renders_single_offline_document(self, tmp_path):
        """3 runs x 8 apps x 2 backends: one HTML file, no network."""
        with Ledger(tmp_path / "l.sqlite") as ledger:
            _populate(ledger, runs=3)
            html = render_dashboard(ledger)
        assert html.lower().lstrip().startswith("<!doctype html")
        # self-contained: styling and behavior are inline, and nothing
        # references an external resource
        assert "<style>" in html and "<script>" in html
        assert not re.search(r'(?:src|href)\s*=\s*["\']\s*(?:https?:)?//',
                             html)
        assert "<link" not in html
        # every app trends, both backends are listed, sparklines drawn
        for app in APPS:
            assert app in html
        assert "event" in html and "compiled" in html
        assert html.count("<svg") >= len(APPS)
        assert "polyline" in html

    def test_amortized_section_selects_rows_by_batch_size(self, tmp_path):
        """Batch rows carry their real backend now; the amortized
        section finds them by ``batch_size``, and a ledger's old
        ``batched`` rows still show."""
        with Ledger(tmp_path / "l.sqlite") as ledger:
            _populate(ledger, runs=2, backends=("traced",))
            for backend in ("batched", "traced"):
                report = FakeSuiteReport(["fdct1"], backend=backend,
                                         sim=6.4)
                report.results[0].verification.batch_size = 64
                report.results[0].verification.lane_seconds = 0.1
                ledger.record_suite(report, suite="t",
                                    sizes={"fdct1": {"n": 8}})
            html = render_dashboard(ledger)
        amortized = html.split("Amortized per-stimulus cost")[1]
        amortized = amortized.split("<h2>")[0]
        assert "no batched runs" not in amortized
        assert "fdct1</b> · batched · batch 64" in amortized
        assert "fdct1</b> · traced · batch 64" in amortized
        assert "fdct2" not in amortized

    def test_dashboard_has_coverage_and_fuzz_sections(self, tmp_path):
        with Ledger(tmp_path / "l.sqlite") as ledger:
            _populate(ledger)
            html = render_dashboard(ledger)
        assert "coverage" in html.lower()
        assert "fuzz" in html.lower()
        assert "mismatch" in html

    def test_empty_ledger_still_renders(self, tmp_path):
        with Ledger(tmp_path / "l.sqlite") as ledger:
            html = render_dashboard(ledger)
        assert html.lower().lstrip().startswith("<!doctype html")

    def test_markup_is_escaped(self, tmp_path):
        with Ledger(tmp_path / "l.sqlite") as ledger:
            ledger.record_suite(
                FakeSuiteReport(["<script>evil</script>"]),
                suite="t", sizes={})
            html = render_dashboard(ledger)
        assert "<script>evil" not in html
        assert "&lt;script&gt;evil" in html

    def test_cli_writes_output_file(self, tmp_path, capsys):
        path = tmp_path / "l.sqlite"
        with Ledger(path) as ledger:
            _populate(ledger)
        out = tmp_path / "dash" / "index.html"
        assert main(["obs", "dashboard", "--ledger", str(path),
                     "-o", str(out)]) == 0
        assert out.exists()
        assert "dashboard ->" in capsys.readouterr().out


class TestInjectSection:
    def test_campaign_and_coverage_tables_render(self, tmp_path):
        with Ledger(tmp_path / "l.sqlite") as ledger:
            _populate(ledger)
            ledger.record_injection_campaign(
                FakeInjectionReport(verdicts=("masked", "sdc", "hang")),
                size={"pixels": 64})
            html = render_dashboard(ledger)
        assert "Fault-injection campaigns" in html
        assert "fault coverage" in html
        # the verdict taxonomy appears as table columns
        for verdict in ("masked", "sdc", "hang", "crash"):
            assert verdict in html

    def test_placeholder_without_campaigns(self, tmp_path):
        with Ledger(tmp_path / "l.sqlite") as ledger:
            _populate(ledger)
            html = render_dashboard(ledger)
        assert "no fault-injection campaigns recorded" in html
        assert "fault coverage of campaign" not in html

    def test_prometheus_exports_verdict_tallies(self, tmp_path):
        with Ledger(tmp_path / "l.sqlite") as ledger:
            _populate(ledger)
            ledger.record_injection_campaign(
                FakeInjectionReport(verdicts=("masked", "sdc", "sdc")))
            text = export_prometheus(ledger)
        assert "# TYPE repro_inject_verdicts_total" in text
        assert re.search(
            r'repro_inject_verdicts_total\{verdict="sdc"\} 2', text)

    def test_json_export_carries_fault_rows(self, tmp_path):
        with Ledger(tmp_path / "l.sqlite") as ledger:
            _populate(ledger)
            ledger.record_injection_campaign(FakeInjectionReport())
            payload = json.loads(export_json(ledger))
        inject = [entry for entry in payload["runs"]
                  if entry["kind"] == "inject"]
        assert len(inject) == 1
        faults = inject[0]["faults"]
        assert len(faults) == 4  # 3 injections + baseline
        assert {fault["verdict"] for fault in faults} \
            <= {"masked", "sdc", "hang", "crash"}
        assert any(fault["descriptor"] for fault in faults)


class TestDegradedLedgers:
    """The dashboard must render placeholders, never raise, on sparse
    or damaged ledgers (the satellite fix for campaign-free renders)."""

    def test_empty_ledger_renders_every_placeholder(self, tmp_path):
        with Ledger(tmp_path / "l.sqlite") as ledger:
            html = render_dashboard(ledger)
        assert "no fault-injection campaigns recorded" in html
        assert "no triage records yet" in html
        assert html.lower().lstrip().startswith("<!doctype html")

    def test_campaign_with_zero_classified_faults(self, tmp_path):
        with Ledger(tmp_path / "l.sqlite") as ledger:
            _populate(ledger)
            ledger.record_injection_campaign(
                FakeInjectionReport(verdicts=()))
            html = render_dashboard(ledger)
        assert "no classified faults" in html
        assert "Fault-injection campaigns" in html

    def test_non_dict_extra_row_is_coerced_not_fatal(self, tmp_path):
        """A runs.extra cell holding non-object JSON (a hand-edited or
        older-schema ledger) must not crash any reader."""
        path = tmp_path / "l.sqlite"
        with Ledger(path) as ledger:
            _populate(ledger)
            ledger.record_injection_campaign(FakeInjectionReport())
        import sqlite3

        conn = sqlite3.connect(path)
        conn.execute("UPDATE runs SET extra = '\"oops\"'")
        conn.commit()
        conn.close()
        with Ledger(path) as ledger:
            run = ledger.runs(limit=1)[0]
            assert run.extra == {"value": "oops"}
            html = render_dashboard(ledger)
            assert "<html" in html
            assert export_prometheus(ledger)
            assert json.loads(export_json(ledger))

    def test_triage_placeholder_then_table(self, tmp_path):
        with Ledger(tmp_path / "l.sqlite") as ledger:
            assert "no triage records yet" in render_dashboard(ledger)
            ledger.record_triage({
                "kind": "fault", "app": "fdct1",
                "backend_ref": "compiled", "backend_sub": "compiled",
                "mode": "cycle", "cycle": 14, "net": "n_tr_img_out_y",
                "top_suspect": "n_tr_img_out_y"})
            html = render_dashboard(ledger)
        assert "Divergence triage" in html
        assert "n_tr_img_out_y" in html
        assert "top-suspect net" in html

    def test_triage_prometheus_tally(self, tmp_path):
        with Ledger(tmp_path / "l.sqlite") as ledger:
            for mode in ("cycle", "cycle", "none"):
                ledger.record_triage({
                    "kind": "backend", "app": "fir", "mode": mode})
            text = export_prometheus(ledger)
        assert re.search(
            r'repro_triage_total\{kind="backend",mode="cycle"\} 2', text)
        assert re.search(
            r'repro_triage_total\{kind="backend",mode="none"\} 1', text)

    def test_triage_json_export_carries_record(self, tmp_path):
        with Ledger(tmp_path / "l.sqlite") as ledger:
            ledger.record_triage({"kind": "fault", "app": "fdct1",
                                  "mode": "cycle", "net": "n_x"})
            payload = json.loads(export_json(ledger))
        triage = [entry for entry in payload["runs"]
                  if entry["kind"] == "triage"]
        assert len(triage) == 1
        assert triage[0]["triage"]["net"] == "n_x"


class TestExport:
    def test_prometheus_format(self, tmp_path):
        with Ledger(tmp_path / "l.sqlite") as ledger:
            _populate(ledger)
            text = export_prometheus(ledger)
        assert text.endswith("\n")
        for metric in ("repro_ledger_runs_total", "repro_run_passed",
                       "repro_case_sim_seconds", "repro_coverage_ratio",
                       "repro_cache_hit_rate", "repro_fuzz_outcomes_total"):
            assert f"# TYPE {metric}" in text, metric
        assert re.search(
            r'repro_ledger_runs_total\{kind="suite"\} 6', text)
        # every sample line parses as `name{labels} value`
        for line in text.splitlines():
            if line.startswith("#") or not line:
                continue
            assert re.match(r'^[a-z_]+(?:\{[^}]*\})? -?[\d.eE+-]+$', line), \
                line

    def test_json_export_parses(self, tmp_path):
        with Ledger(tmp_path / "l.sqlite") as ledger:
            _populate(ledger)
            payload = json.loads(export_json(ledger))
        assert len(payload["runs"]) == 7
        kinds = {entry["kind"] for entry in payload["runs"]}
        assert kinds == {"suite", "fuzz"}

    def test_cli_export_to_file_and_stdout(self, tmp_path, capsys):
        path = tmp_path / "l.sqlite"
        with Ledger(path) as ledger:
            _populate(ledger)
        out = tmp_path / "metrics.prom"
        assert main(["obs", "export", "--ledger", str(path),
                     "-o", str(out)]) == 0
        assert "# TYPE" in out.read_text()
        capsys.readouterr()
        assert main(["obs", "export", "--ledger", str(path),
                     "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)


class TestReportAndGcCli:
    def test_report_lists_runs(self, tmp_path, capsys):
        path = tmp_path / "l.sqlite"
        with Ledger(path) as ledger:
            _populate(ledger)
        assert main(["obs", "report", "--ledger", str(path)]) == 0
        out = capsys.readouterr().out
        assert "suite=6" in out and "fuzz=1" in out
        assert "[PASS]" in out

    def test_gc_trims_runs(self, tmp_path, capsys):
        path = tmp_path / "l.sqlite"
        with Ledger(path) as ledger:
            _populate(ledger)
        assert main(["obs", "gc", "--ledger", str(path),
                     "--keep", "2"]) == 0
        assert "removed 5 run(s)" in capsys.readouterr().out
        with Ledger(path) as ledger:
            assert sum(ledger.counts().values()) == 2

    def test_missing_ledger_exits_two(self, tmp_path, capsys):
        assert main(["obs", "report", "--ledger",
                     str(tmp_path / "nope.sqlite")]) == 2
        assert "no ledger" in capsys.readouterr().err

    def test_env_variable_names_the_ledger(self, tmp_path, monkeypatch,
                                           capsys):
        path = tmp_path / "env.sqlite"
        with Ledger(path) as ledger:
            _populate(ledger, runs=1)
        monkeypatch.setenv("REPRO_LEDGER", str(path))
        assert main(["obs", "report"]) == 0
        assert "suite=2" in capsys.readouterr().out


# ----------------------------------------------------------------------
# Serve section + the golden family-name contract
# ----------------------------------------------------------------------
def _serve_stats(with_histograms=True):
    from repro.obs.metrics import Histogram

    latency = Histogram()
    for value in (0.01, 0.02, 0.4):
        latency.observe(value)
    gate = Histogram()
    gate.observe(0.001)
    stats = {"submitted": 6, "executed": 3, "coalesced": 1,
             "memo_hits": 1, "artifact_hits": 1, "failed": 0,
             "workers": 1, "batch_max": 4, "wall_seconds": 2.0,
             "coalesce_rate": 0.167, "cache_served_rate": 0.333}
    if with_histograms:
        stats["histograms"] = {
            "job_latency_seconds": latency.as_dict(),
            "gate_memo_seconds": gate.as_dict(),
            "queue_wait_seconds": gate.as_dict(),
        }
    return stats


_SERVE_ROWS = [{"case": "threshold", "backend": "compiled",
                "passed": True, "cached": False,
                "simulation_seconds": 0.01}]


class TestServeSection:
    def test_sessions_table_and_sparklines(self, tmp_path):
        with Ledger(tmp_path / "l.sqlite") as ledger:
            for _ in range(3):
                ledger.record_serve(_serve_stats(), _SERVE_ROWS)
            html = render_dashboard(ledger)
        assert "Serve sessions" in html
        assert "dedup rate" in html and "p99 job latency" in html
        assert "jobs/s" in html
        assert "3.0/s" in html  # 6 submitted / 2.0s wall

    def test_degraded_rows_get_placeholders(self, tmp_path):
        """Rows recorded before the histograms existed render dashes,
        not a crash."""
        with Ledger(tmp_path / "l.sqlite") as ledger:
            ledger.record_serve(_serve_stats(with_histograms=False),
                                _SERVE_ROWS)
            html = render_dashboard(ledger)
        assert "Serve sessions" in html
        assert "—" in html
        assert "no data" in html  # the p99 sparkline has no points

    def test_placeholder_without_sessions(self, tmp_path):
        with Ledger(tmp_path / "l.sqlite") as ledger:
            html = render_dashboard(ledger)
        assert "no serve sessions recorded yet" in html

    def test_prometheus_gains_serve_histograms(self, tmp_path):
        with Ledger(tmp_path / "l.sqlite") as ledger:
            ledger.record_serve(_serve_stats(), _SERVE_ROWS)
            text = export_prometheus(ledger)
        assert "# TYPE repro_serve_gate_seconds histogram" in text
        assert 'repro_serve_gate_seconds_count{gate="memo"} 1' in text
        assert "repro_serve_job_latency_seconds_count 3" in text
        assert 'le="+Inf"' in text

    def test_prometheus_skips_degraded_sessions(self, tmp_path):
        with Ledger(tmp_path / "l.sqlite") as ledger:
            ledger.record_serve(_serve_stats(with_histograms=False),
                                _SERVE_ROWS)
            text = export_prometheus(ledger)
        assert "repro_serve_gate_seconds" not in text


#: every family `repro obs export` may emit.  Renaming an existing
#: family breaks external scrape configs; additions belong here.
_GOLDEN_FAMILIES = {
    "repro_ledger_runs_total",
    "repro_run_passed",
    "repro_run_wall_seconds",
    "repro_case_sim_seconds",
    "repro_case_cycles",
    "repro_case_lane_seconds",
    "repro_coverage_ratio",
    "repro_cache_hit_rate",
    "repro_fuzz_outcomes_total",
    "repro_inject_verdicts_total",
    "repro_triage_total",
    "repro_serve_gate_seconds",
    "repro_serve_batch_size",
    "repro_serve_execute_seconds",
    "repro_serve_job_latency_seconds",
    "repro_serve_queue_wait_seconds",
}


class TestGoldenFamilyNames:
    def test_export_emits_only_golden_families(self, tmp_path):
        with Ledger(tmp_path / "l.sqlite") as ledger:
            _populate(ledger)
            ledger.record_serve(_serve_stats(), _SERVE_ROWS)
            text = export_prometheus(ledger)
        families = {line.split()[2] for line in text.splitlines()
                    if line.startswith("# TYPE ")}
        assert families <= _GOLDEN_FAMILIES, \
            f"unexpected families: {families - _GOLDEN_FAMILIES}"
        # the pre-serve families this ledger exercises are still here
        assert {"repro_ledger_runs_total", "repro_run_passed",
                "repro_case_sim_seconds", "repro_coverage_ratio",
                "repro_cache_hit_rate",
                "repro_fuzz_outcomes_total"} <= families
        assert "repro_serve_gate_seconds" in families
