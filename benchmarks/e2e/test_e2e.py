"""Smoke test of the end-to-end benchmark (not part of the tier-1 suite).

    python -m pytest benchmarks/e2e/test_e2e.py -q

Runs every workload for one second of work, untraced and traced, and
checks that the output honours ``BENCHMARK.json``: every emitted metric
is declared there with the same unit, names are well formed, the metric
counts stay within their limits, and tracing leaves the outputs digest
unchanged.  Also checks that a copy holding only ``BENCHMARK.json`` and
the benchmark's own files refuses to run.
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9_.-]+$")
TIMEOUT = 180


def _run(workload, trace, cwd=ROOT, script=HERE / "run.py"):
    proc = subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed",
         "7", "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT)
    return proc


def _result(proc):
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.strip().splitlines()
    digest = next(line.split()[1] for line in lines
                  if line.startswith("outputs_digest "))
    return json.loads(lines[-1]), digest


def test_spec_limits():
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    for name in names + [w["name"] for w in SPEC["workloads"]]:
        assert NAME.match(name) and len(name) <= 64, name
    assert any(m["name"] == "setup_s" and m["unit"] == "s"
               and m["better"] == "lower" for m in SPEC["end_to_end"])
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])


@pytest.mark.parametrize("workload",
                         [w["name"] for w in SPEC["workloads"]])
def test_workload_smoke(workload):
    untraced, plain_digest = _result(_run(workload, 0))
    traced, traced_digest = _result(_run(workload, 1))
    for result, declared in ((untraced, SPEC["end_to_end"]),
                             (traced, SPEC["per_layer"])):
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= 1
        units = {m["name"]: m["unit"] for m in declared}
        assert set(result["metrics"]) == set(units)
        for name, metric in result["metrics"].items():
            assert NAME.match(name), name
            assert metric["unit"] == units[name], name
            assert isinstance(metric["value"], (int, float)), name
    for name, metric in untraced["metrics"].items():
        assert metric["value"] > 0, name
    assert traced_digest == plain_digest


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("regress-cold", 0, cwd=tmp_path,
                script=tmp_path / "benchmarks" / "e2e" / "run.py")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
