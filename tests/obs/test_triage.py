"""End-to-end tests for divergence triage.

The headline acceptance: a planted stuck-at on a known fdct1 net is
localized to the *exact* net as the #1 suspect, at the *same* first
divergent cycle on the event, compiled and traced kernels.
"""

import json
from pathlib import Path

import pytest

from repro.apps import suite_case
from repro.fuzz import load_entry
from repro.inject import FaultDescriptor
from repro.obs import (attach_to_ledger, render_triage_html,
                       triage_backends, triage_fault, triage_fuzz_entry)
from repro.obs.dashboard import export_prometheus, render_dashboard
from repro.obs.ledger import Ledger
from repro.obs.triage import TriageError

BACKENDS = ("event", "compiled", "traced")
#: output-adjacent fdct1 net: the final transfer into the img_out write
TARGET = "n_tr_img_out_y"
CORPUS = Path(__file__).resolve().parents[2] / "fuzz" / "corpus"


@pytest.fixture(scope="module")
def fdct1():
    case = suite_case("fdct1", pixels=64)
    return case, case.compile(), case.inputs(0)


@pytest.fixture(scope="module")
def planted(fdct1):
    """The planted stuck-at-1, triaged on every cycle-accurate kernel."""
    case, design, inputs = fdct1
    fault = FaultDescriptor(fault_id="planted", kind="stuck",
                            target=TARGET, bit=0, stuck_value=1)
    return {backend: triage_fault(design, case.func, fault, inputs,
                                  backend=backend, window=16)
            for backend in BACKENDS}


def test_planted_fault_names_the_exact_net(planted):
    for backend, result in planted.items():
        record = result.record
        assert record.mode == "cycle", backend
        assert record.net == TARGET, backend
        assert record.top_suspect == TARGET, backend
        assert record.suspects[0].origin, backend
        assert record.suspects[0].divergent, backend
        assert TARGET in record.nets, backend


def test_planted_fault_cycle_identical_across_backends(planted):
    cycles = {backend: result.record.cycle
              for backend, result in planted.items()}
    assert len(set(cycles.values())) == 1, cycles
    assert cycles["event"] is not None and cycles["event"] >= 1


def test_suspect_cone_walks_upstream(planted):
    """Beyond the origin, the cone holds upstream fan-in at increasing
    distance with decreasing score."""
    record = planted["compiled"].record
    assert len(record.suspects) > 1
    scores = [suspect.score for suspect in record.suspects]
    assert scores == sorted(scores, reverse=True)
    assert any(suspect.distance > 0 for suspect in record.suspects)


def test_windows_captured_on_both_sides(planted):
    for result in planted.values():
        for capture in (result.capture_ref, result.capture_sub):
            assert capture is not None
            assert capture.samples
        # both sides retain the divergence cycle in their window
        cycle = result.record.cycle
        retained = [entry.cycle for entry in result.capture_sub.samples]
        assert cycle in retained


def test_fault_descriptor_recorded(planted):
    fault = planted["event"].record.fault
    assert fault is not None
    assert fault["target"] == TARGET
    assert fault["kind"] == "stuck"


def test_healthy_pair_reports_no_divergence(fdct1):
    _, design, inputs = fdct1
    result = triage_backends(design, inputs, backend_ref="event",
                             backend_sub="compiled", window=16)
    assert result.record.mode == "none"
    assert result.record.suspects == []
    assert "agree" in result.record.detail


def test_a_fault_it_cannot_arm_is_refused():
    case = suite_case("threshold", n_pixels=32)
    mutant = FaultDescriptor(fault_id="m", kind="cmp_op", target="u0_lt",
                             detail="lt -> le")
    with pytest.raises(TriageError, match="'cmp_op'"):
        triage_fault(case.compile(), case.func, mutant, case.inputs(0))


def test_record_round_trips_through_json(planted):
    record = planted["traced"].record
    payload = json.loads(json.dumps(record.to_dict()))
    assert payload["schema"] == 1
    assert payload["top_suspect"] == TARGET
    assert payload["window"]["size"] == 16
    assert TARGET in record.describe()


def test_artifacts_written(planted, tmp_path):
    result = planted["compiled"]
    paths = result.write(tmp_path, "planted")
    assert set(paths) == {"json", "html"}
    assert json.loads(paths["json"].read_text())["net"] == TARGET
    html = paths["html"].read_text()
    assert html.startswith("<!doctype html>") or "<html" in html
    assert TARGET in html
    # report embeds the waveform window and the FSM timeline
    assert "Waveform window" in html
    assert "FSM state" in html


def test_html_carries_truncation_marker(fdct1):
    """Satellite: a window smaller than the divergence onset leaves a
    visible truncation marker, mirroring the span-attr clip format."""
    case, design, inputs = fdct1
    fault = FaultDescriptor(fault_id="late", kind="stuck",
                            target=TARGET, bit=0, stuck_value=0)
    result = triage_fault(design, case.func, fault, inputs,
                          backend="compiled", window=4)
    info = result.record.window
    assert info["size"] == 4
    if info["truncated"]:
        assert "cycles dropped" in info["note"]
        assert "cycles dropped" in render_triage_html(result)


def test_fuzz_corpus_mismatch_triage(tmp_path):
    """Every shipped mismatch reproducer triages to a concrete verdict
    with artifacts — the corpus-to-report path of the acceptance."""
    paths = sorted(CORPUS.glob("mismatch_*.py"))
    assert paths, "expected shipped mismatch reproducers"
    entry = load_entry(paths[0])
    result = triage_fuzz_entry(entry)
    record = result.record
    assert record.kind == "fuzz-mismatch"
    # the kernels agree, so the divergence is the golden memory fallback
    assert (record.mode, record.cycle) == ("memory", None)
    assert record.memory == {"name": "aux", "word": 8, "ref": 0, "sub": 1}
    assert record.detail == "aux: @0008: expected 0x00, got 0x01"
    assert record.top_suspect is not None
    written = result.write(tmp_path, "fuzz")
    assert written["json"].exists() and written["html"].exists()


def test_attach_to_ledger_and_dashboard(planted, tmp_path):
    ledger_path = tmp_path / "ledger.sqlite"
    result = planted["event"]
    with Ledger(ledger_path) as ledger:
        paths = result.write(tmp_path, "planted")
        run_id = attach_to_ledger(ledger, result, wall_seconds=1.5,
                                  paths=paths)
        run = ledger.run(run_id)
        assert run.kind == "triage"
        assert run.passed  # a located divergence is a successful triage
        assert run.extra["net"] == TARGET
        assert run.extra["artifacts"]["json"] == str(paths["json"])
        html = render_dashboard(ledger)
        assert "Divergence triage" in html
        assert TARGET in html
        prom = export_prometheus(ledger)
        assert "repro_triage_total" in prom
        assert 'kind="fault"' in prom
