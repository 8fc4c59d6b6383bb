"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_suite_defaults(self):
        args = build_parser().parse_args(["suite"])
        assert args.seed == 0
        assert args.fsm_mode == "generated"
        assert args.cases is None
        assert args.backend == "event"
        assert args.jobs == 1
        assert args.cache is None

    def test_suite_backend_and_jobs(self):
        args = build_parser().parse_args(
            ["suite", "--backend", "compiled", "--jobs", "4"])
        assert args.backend == "compiled"
        assert args.jobs == 4

    def test_suite_rejects_unknown_backend(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["suite", "--backend", "verilator"])

    def test_suite_cache_flag(self):
        assert build_parser().parse_args(
            ["suite", "--cache"]).cache == ".repro-cache"
        assert build_parser().parse_args(
            ["suite", "--cache", "/tmp/c"]).cache == "/tmp/c"

    def test_translate_requires_target(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["translate", "x.xml"])


class TestSuiteCommand:
    def test_selected_cases_pass(self, capsys):
        status = main(["suite", "--case", "threshold", "--case", "popcount"])
        assert status == 0
        out = capsys.readouterr().out
        assert "[PASS] threshold" in out
        assert "[PASS] popcount" in out
        assert "Operators" in out  # metrics table appended

    def test_unknown_case_is_an_error(self, capsys):
        status = main(["suite", "--case", "ghost"])
        assert status == 2
        assert "unknown case" in capsys.readouterr().err

    def test_interpreted_mode(self, capsys):
        assert main(["suite", "--case", "threshold",
                     "--fsm-mode", "interpreted"]) == 0

    def test_compiled_backend_with_jobs_and_cache(self, tmp_path, capsys):
        argv = ["suite", "--case", "threshold", "--case", "popcount",
                "--backend", "compiled", "--jobs", "2",
                "--cache", str(tmp_path)]
        assert main(argv) == 0
        assert "backend=compiled" in capsys.readouterr().out
        # second run is served from the cache
        assert main(argv) == 0
        assert "2 cached" in capsys.readouterr().out


    def test_batch_runs_traced_unless_a_backend_is_given(self, capsys):
        assert main(["suite", "--case", "popcount", "--batch", "2"]) == 0
        out = capsys.readouterr().out
        assert "backend=traced" in out
        assert "(batch of 2," in out
        assert main(["suite", "--case", "popcount", "--batch", "2",
                     "--backend", "event"]) == 0
        assert "backend=event" in capsys.readouterr().out

    def test_batch_with_a_cache_verifies_on_every_run(self, tmp_path,
                                                      capsys):
        """A batched verdict never reaches the artifact cache: both runs
        verify and exit 0, and neither answers a case from the cache."""
        argv = ["suite", "--case", "threshold", "--batch", "2",
                "--cache", str(tmp_path)]
        for _ in range(2):
            assert main(argv) == 0
            out = capsys.readouterr().out
            head = next(line for line in out.splitlines()
                        if line.startswith("suite:"))
            assert "cached" not in head and "(cached)" not in out
            assert "[PASS] threshold" in out

    def test_batch_refuses_coverage(self, capsys):
        assert main(["suite", "--case", "popcount", "--batch", "2",
                     "--coverage"]) == 2
        assert "mutually exclusive" in capsys.readouterr().err


class TestTable1Command:
    def test_compile_only(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        for name in ("fdct1", "fdct2", "hamming"):
            assert name in out


class TestFlowCommand:
    def test_produces_artifacts(self, tmp_path, capsys):
        # fdct2 has two configurations and a spill memory, which gets
        # no stimulus file and is not compared
        for case in ("hamming", "fdct2"):
            workdir = tmp_path / case
            status = main(["flow", case, "--workdir", str(workdir)])
            assert status == 0
            out = capsys.readouterr().out
            assert "PASS" in out
            assert any(path.suffix == ".xml" for path in workdir.iterdir())
        assert "1 reconfiguration(s)" in out
        assert sorted(path.name for path in workdir.glob("*.mem")) == \
            ["img_in.mem", "img_mid.mem", "img_out.mem"]

    def test_unknown_case(self, tmp_path, capsys):
        assert main(["flow", "ghost", "--workdir", str(tmp_path)]) == 2


class TestTranslateCommand:
    @pytest.fixture()
    def xml_files(self, tmp_path):
        from repro.apps import build_threshold

        design = build_threshold(16)
        design.save(tmp_path)
        return {
            "datapath": tmp_path / "threshold_cfg0_datapath.xml",
            "fsm": tmp_path / "threshold_cfg0_fsm.xml",
            "rtg": tmp_path / "threshold_rtg.xml",
        }

    def test_datapath_to_dot(self, xml_files, capsys):
        assert main(["translate", str(xml_files["datapath"]),
                     "--to", "dot"]) == 0
        assert capsys.readouterr().out.startswith("digraph")

    def test_fsm_to_vhdl(self, xml_files, capsys):
        assert main(["translate", str(xml_files["fsm"]),
                     "--to", "vhdl"]) == 0
        assert "entity" in capsys.readouterr().out

    def test_rtg_to_verilog_file_output(self, xml_files, tmp_path, capsys):
        out_path = tmp_path / "seq.v"
        assert main(["translate", str(xml_files["rtg"]), "--to", "verilog",
                     "--output", str(out_path)]) == 0
        assert "module" in out_path.read_text()

    def test_fsm_to_python(self, xml_files, capsys):
        assert main(["translate", str(xml_files["fsm"]),
                     "--to", "python"]) == 0
        assert "def next_state" in capsys.readouterr().out

    def test_invalid_xml_rejected(self, tmp_path, capsys):
        bad = tmp_path / "bad.xml"
        bad.write_text("<mystery/>")
        with pytest.raises(SystemExit, match="not a valid"):
            main(["translate", str(bad), "--to", "dot"])


def test_version(capsys):
    assert main(["version"]) == 0
    assert capsys.readouterr().out.startswith("repro ")


class TestFaultsCommand:
    def test_campaign_runs(self, capsys):
        from repro.cli import main as cli_main

        status = cli_main(["faults", "threshold", "--limit-per-kind", "1"])
        assert status == 0
        out = capsys.readouterr().out
        assert "fault campaign:" in out
        assert "killed" in out

    def test_unknown_case(self, capsys):
        from repro.cli import main as cli_main

        assert cli_main(["faults", "ghost"]) == 2

    def test_multi_configuration_case_rejected(self, capsys):
        from repro.cli import main as cli_main

        assert cli_main(["faults", "fdct2"]) == 2
        assert "multiple configurations" in capsys.readouterr().err


class TestCampaignCommand:
    def test_mutation_kinds_are_not_drawn(self, capsys):
        assert main(["campaign", "threshold", "--kinds", "cmp_op"]) == 2
        assert "unknown fault kind(s) ['cmp_op']" \
            in capsys.readouterr().err


class TestFuzzCommand:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["fuzz"])
        assert args.iterations == 100
        assert args.seed == 0
        assert args.jobs == 1
        assert args.corpus == "fuzz/corpus"
        assert args.max_cycles is None
        assert args.time_budget is None
        assert not args.no_reduce
        assert args.replay is None

    def test_parser_rejects_zero_iterations(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fuzz", "-n", "0"])

    def test_small_campaign_passes(self, tmp_path, capsys):
        status = main(["fuzz", "--iterations", "3", "--seed", "1",
                       "--corpus", str(tmp_path)])
        assert status == 0
        out = capsys.readouterr().out
        assert "fuzz: 3 program(s), 0 failure(s)" in out
        assert not list(tmp_path.glob("*.py"))  # nothing to reproduce

    def test_replay_round_trip(self, tmp_path, capsys):
        from repro.fuzz import CorpusEntry, generate, save_entry

        entry = CorpusEntry(program=generate(1), kind="pass")
        path = save_entry(entry, tmp_path)

        status = main(["fuzz", "--replay", str(path)])
        assert status == 0
        assert "[PASS]" in capsys.readouterr().out

    def test_replay_flags_divergent_entry(self, tmp_path, capsys):
        # a reproducer recorded as a crash but replaying clean must
        # fail the replay: the entry should be promoted to a pass lock
        from repro.fuzz import CorpusEntry, generate, save_entry

        entry = CorpusEntry(program=generate(1), kind="sim-crash",
                            exc_type="SimulationError",
                            xfail="still open")
        path = save_entry(entry, tmp_path)

        status = main(["fuzz", "--replay", str(path)])
        assert status == 1
        out = capsys.readouterr().out
        assert "[FAIL]" in out
        assert "xfail" in out


class TestObsParser:
    def test_obs_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["obs"])

    def test_compare_defaults(self):
        args = build_parser().parse_args(["obs", "compare"])
        assert args.ledger is None
        assert args.baseline is None
        assert args.run is None
        assert args.sigma == 3.0
        assert args.min_samples == 3
        assert args.min_rel == 1.25
        assert args.coverage_drop == 5.0
        assert args.cache_drop == 0.25
        assert not args.fail_on_regression

    def test_dashboard_and_export_defaults(self):
        args = build_parser().parse_args(["obs", "dashboard"])
        assert args.output == "repro-dashboard.html"
        assert args.history == 30
        args = build_parser().parse_args(["obs", "export"])
        assert args.format == "prom"
        assert args.output is None

    def test_export_rejects_unknown_format(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["obs", "export", "--format", "xml"])

    def test_run_commands_take_ledger_flag(self):
        for command in (["suite"], ["fuzz"],
                        ["flow", "threshold"]):
            args = build_parser().parse_args(
                command + ["--ledger", "/tmp/l.sqlite"])
            assert args.ledger == "/tmp/l.sqlite"


class TestSuiteLedger:
    def test_suite_records_a_ledger_run(self, tmp_path, capsys):
        ledger = tmp_path / "ledger.sqlite"
        assert main(["suite", "--case", "popcount", "--coverage",
                     "--ledger", str(ledger)]) == 0
        assert f"ledger -> {ledger}" in capsys.readouterr().out
        assert main(["obs", "report", "--ledger", str(ledger)]) == 0
        out = capsys.readouterr().out
        assert "suite=1" in out

    def test_coverage_gate_passes_with_coverage(self, capsys):
        assert main(["suite", "--case", "popcount",
                     "--min-state-coverage", "50"]) == 0
        assert "coverage gate passed" in capsys.readouterr().out

    def test_coverage_gate_fails_cleanly_without_coverage(
            self, monkeypatch, capsys):
        """A run that produced no coverage report must fail the gate
        with a message, not crash on ``None.state_coverage``."""
        from repro.core import testsuite as testsuite_module

        def bare_run(self, **kwargs):
            return testsuite_module.SuiteReport()  # passed, coverage=None

        monkeypatch.setattr(testsuite_module.TestSuite, "run", bare_run)
        status = main(["suite", "--case", "popcount",
                       "--min-state-coverage", "90"])
        assert status == 1
        assert "no coverage" in capsys.readouterr().err


class TestTriageCommand:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["triage", "fdct1"])
        assert args.backend == "compiled"
        assert args.against is None
        assert args.fault is None
        assert args.run is None
        assert args.window == 64
        assert args.stride is None
        assert args.out == "triage"
        assert not args.no_html

    def test_window_must_be_positive(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["triage", "fdct1", "--window", "0"])

    def test_needs_a_failing_pair(self, capsys):
        assert main(["triage", "threshold"]) == 2
        assert "failing pair" in capsys.readouterr().err

    def test_unknown_case(self, capsys):
        assert main(["triage", "nope"]) == 2
        assert "unknown case" in capsys.readouterr().err

    def test_missing_corpus_entry(self, capsys):
        assert main(["triage", "does/not/exist.py"]) == 2
        assert "no corpus reproducer" in capsys.readouterr().err

    def test_planted_fault_replay(self, tmp_path, capsys):
        """Faultload file -> triage names the planted net, writes both
        artifacts, and attaches the record to the ledger."""
        from repro.inject import FaultDescriptor, save_faultload
        from repro.obs.ledger import Ledger

        load = tmp_path / "planted.json"
        save_faultload([FaultDescriptor(
            fault_id="seed", kind="stuck", target="n_tr_img_out_y",
            bit=0, stuck_value=1)], load)
        ledger = tmp_path / "l.sqlite"
        status = main(["triage", "fdct1", "--fault", f"{load}:seed",
                       "--out", str(tmp_path / "art"),
                       "--ledger", str(ledger)])
        assert status == 0
        out = capsys.readouterr().out
        assert "top suspect n_tr_img_out_y" in out
        assert (tmp_path / "art" / "fdct1-seed.json").exists()
        assert (tmp_path / "art" / "fdct1-seed.html").exists()
        with Ledger(ledger) as db:
            run = db.latest_run("triage")
            assert run is not None
            assert run.extra["net"] == "n_tr_img_out_y"

    def test_a_mutant_is_refused(self, tmp_path, capsys):
        """Triage arms hardware faults only: a mutant would otherwise
        leave the faulted side fault-free and report agreement."""
        from repro.inject import FaultDescriptor, save_faultload

        load = save_faultload([FaultDescriptor(
            fault_id="m", kind="cmp_op", target="u0_lt",
            detail="lt -> le")], tmp_path / "mutant.json")
        status = main(["triage", "threshold", "--fault", str(load),
                       "--out", str(tmp_path / "art")])
        assert status == 1
        assert "cannot arm a 'cmp_op' fault" in capsys.readouterr().err
        assert not (tmp_path / "art").exists()

    def test_backend_pair_with_no_divergence(self, tmp_path, capsys):
        status = main(["triage", "threshold", "--against", "event",
                       "--no-html", "--out", str(tmp_path)])
        assert status == 0
        assert "no divergence located" in capsys.readouterr().out
        assert list(tmp_path.glob("*.json"))
        assert not list(tmp_path.glob("*.html"))

    def test_corpus_reproducer_triage(self, tmp_path, capsys):
        from pathlib import Path

        corpus = sorted(Path("fuzz/corpus").glob("mismatch_*.py"))
        assert corpus, "expected shipped mismatch reproducers"
        status = main(["triage", str(corpus[0]),
                       "--out", str(tmp_path)])
        assert status == 0
        out = capsys.readouterr().out
        assert "[fuzz-mismatch]" in out
        assert "top suspect" in out

    def test_fuzz_auto_triage_helper(self, tmp_path, capsys):
        """The hook the fuzz failure loop calls: artifacts + ledger row
        per mismatch reproducer, and never an exception."""
        from pathlib import Path

        from repro.cli import _triage_fuzz_mismatch
        from repro.fuzz import load_entry
        from repro.obs.ledger import Ledger

        entry = load_entry(
            sorted(Path("fuzz/corpus").glob("mismatch_*.py"))[0])
        with Ledger(tmp_path / "l.sqlite") as ledger:
            _triage_fuzz_mismatch(entry, "repro", str(tmp_path), ledger)
            run = ledger.latest_run("triage")
            assert run is not None
            assert run.extra["kind"] == "fuzz-mismatch"
        out = capsys.readouterr().out
        assert "triage json ->" in out
        assert (tmp_path / "repro-triage.json").exists()

    def test_campaign_sdc_sampling_disabled_with_zero(self):
        args = build_parser().parse_args(
            ["campaign", "fdct1", "--triage-sdc", "0"])
        assert args.triage_sdc == 0
        args = build_parser().parse_args(["campaign", "fdct1"])
        assert args.triage_sdc == 2
        assert args.triage_out == "triage"
