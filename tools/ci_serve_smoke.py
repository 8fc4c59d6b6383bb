"""CI smoke for ``repro serve``: one real daemon, one mixed batch.

Boots the daemon exactly as a user would (``python -m repro serve``,
with the HTTP shim, an artifact cache and ``--trace``), replays a mixed
batch over the NDJSON socket — a fresh job, an exact repeat of it, a
second distinct design, the CLI suite's threshold case, and an invalid
design — and gates on the service contract:

1. every valid job verifies (no mismatches, no errors), and the repeat
   is answered without a second execution (``coalesce + memo >= 1``);
2. the invalid design comes back as an error *result*, not a dead
   connection;
3. the warm daemon's ``GET /metrics`` serves Prometheus text with every
   admission-gate latency histogram non-empty (memo, artifact,
   coalesce, queue) plus the end-to-end job-latency histogram;
4. shutdown is clean: the daemon drains, exits 0 and removes its
   socket;
5. the harvested ledger (uploaded as a CI artifact) holds one
   ``serve`` run with one row per executed-or-cache-served job;
6. the stitched trace the daemon exported holds one cross-process
   timeline per queued job (submit and execute spans from different
   pids sharing a trace id).  The trace is uploaded as a CI artifact,
   so a failed smoke leaves its timeline behind for triage;
7. one store answers both entry points: after shutdown, ``python -m
   repro suite --case threshold --backend traced`` on the daemon's
   cache directory reports the threshold case the daemon verified at
   the suite's size as ``1 cached``.

Exit status 0 = all gates pass.
"""

import json
import shutil
import socket
import subprocess
import sys
import urllib.request
from pathlib import Path

from repro.core.cache import payload_passed
from repro.obs.ledger import Ledger
from repro.serve import ServeClient, wait_for_socket

SOCKET = Path("serve-smoke.sock")
LEDGER = Path("serve-smoke.sqlite")
TRACE = Path("serve-smoke-trace.json")
EVENTS = TRACE.with_suffix(".jsonl")
CACHE = Path("serve-smoke-cache")

FRESH = {"case": "threshold", "size": {"n_pixels": 32}}
REPEAT = dict(FRESH)
DISTINCT = {"case": "popcount", "size": {"n_words": 16}}
#: ``repro suite --case threshold``'s size, on the daemon's default
#: backend (traced)
SUITE_SIZED = {"case": "threshold", "size": {"n_pixels": 512}}
INVALID = {"case": "no-such-design"}

GATES = ("memo", "artifact", "coalesce", "queue")


def _free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def _prom_value(text: str, prefix: str):
    """The value of the first sample line starting with *prefix*."""
    for line in text.splitlines():
        if line.startswith(prefix):
            return float(line.rsplit(" ", 1)[1])
    return None


def main() -> int:
    for stale in (SOCKET, LEDGER, TRACE, EVENTS):
        if stale.exists():
            stale.unlink()
    shutil.rmtree(CACHE, ignore_errors=True)
    port = _free_port()
    daemon = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve",
         "--socket", str(SOCKET), "--jobs", "2",
         "--http", str(port), "--cache", str(CACHE),
         "--trace", str(TRACE), "--ledger", str(LEDGER)])
    try:
        wait_for_socket(SOCKET, timeout=60)
        with ServeClient(SOCKET, timeout=120) as client:
            events = client.run_jobs([FRESH, REPEAT, DISTINCT,
                                      SUITE_SIZED, INVALID])
            stats = client.status()
            # scrape the warm daemon, as a Prometheus collector would
            with urllib.request.urlopen(
                    f"http://127.0.0.1:{port}/metrics",
                    timeout=30) as response:
                metrics_text = response.read().decode("utf-8")
            client.shutdown()
    except BaseException:
        daemon.terminate()
        raise
    exit_code = daemon.wait(timeout=120)

    failures = []
    served = [event["served"] for event in events]
    print(f"served: {served}")
    for label, event in zip(("fresh", "repeat", "distinct",
                             "suite-sized"), events):
        if not payload_passed(event["result"]):
            failures.append(f"{label} job did not verify: "
                            f"{event['result'].get('error')}")
        else:
            cycles = event["result"]["verification"]["cycles"]
            print(f"[ok]   {label} ({event['served']}): "
                  f"{cycles} cycles, all checks match")
    invalid = events[4]
    if invalid["served"] != "invalid" \
            or "unknown case" not in (invalid["result"]["error"] or ""):
        failures.append(f"invalid design mis-handled: {invalid}")
    else:
        print(f"[ok]   invalid design rejected: "
              f"{invalid['result']['error']}")
    dedup = stats["coalesced"] + stats["memo_hits"] \
        + stats["artifact_hits"]
    if dedup < 1:
        failures.append(f"repeat was not deduplicated: {stats}")
    else:
        print(f"[ok]   repeat deduplicated ({dedup} served without "
              f"execution, {stats['executed']} executed)")

    # live metrics: every admission gate timed at least one job
    for gate in GATES:
        count = _prom_value(
            metrics_text,
            f'repro_serve_gate_seconds_count{{gate="{gate}"}}')
        if not count:
            failures.append(f"/metrics gate histogram empty: {gate}")
    latency_count = _prom_value(metrics_text,
                                "repro_serve_job_latency_seconds_count")
    if not latency_count or latency_count < 3:
        failures.append(
            f"/metrics job-latency histogram short: {latency_count}")
    if "# TYPE repro_serve_gate_seconds histogram" not in metrics_text:
        failures.append("/metrics lacks the gate histogram TYPE line")
    if not failures or all("metrics" not in f and "gate histogram"
                           not in f for f in failures):
        print(f"[ok]   GET /metrics: all {len(GATES)} gate histograms "
              f"non-empty, {latency_count:.0f} job latencies")

    if exit_code != 0:
        failures.append(f"daemon exited {exit_code}")
    elif SOCKET.exists():
        failures.append("daemon left its socket behind")
    else:
        print("[ok]   clean shutdown (exit 0, socket removed)")

    with Ledger(LEDGER) as ledger:
        run = ledger.latest_run("serve")
        rows = ledger.case_rows(run.run_id) if run else []
    if run is None or not run.passed or len(rows) != 4:
        failures.append(
            f"ledger harvest wrong: run={run} rows={len(rows)}")
    else:
        print(f"[ok]   ledger: serve run #{run.run_id} with "
              f"{len(rows)} case row(s) -> {LEDGER}")
    if run is not None and not run.extra.get("histograms"):
        failures.append("serve run row carries no histogram summaries")

    # the stitched trace: one cross-process timeline per queued job
    if not TRACE.exists():
        failures.append(f"daemon exported no trace at {TRACE}")
    else:
        spans = [entry for entry
                 in json.loads(TRACE.read_text())["traceEvents"]
                 if entry.get("name", "").startswith("serve.")]
        by_trace = {}
        for span in spans:
            trace_id = span.get("args", {}).get("trace_id")
            by_trace.setdefault(trace_id, []).append(span)
        stitched = [
            group for group in by_trace.values()
            if {"serve.job", "serve.execute"}
            <= {span["name"] for span in group}
            and len({span["pid"] for span in group}) >= 2]
        if not stitched:
            failures.append(
                f"no cross-process job timeline in {TRACE} "
                f"({len(spans)} serve spans)")
        else:
            print(f"[ok]   trace: {len(stitched)} stitched "
                  f"cross-process job timeline(s) -> {TRACE}")

    # one store: the daemon's verdict answers the suite runner
    suite = subprocess.run(
        [sys.executable, "-m", "repro", "suite", "--case", "threshold",
         "--backend", "traced", "--cache", str(CACHE)],
        capture_output=True, text=True, timeout=300)
    head = next((line for line in suite.stdout.splitlines()
                 if line.startswith("suite:")), "")
    if suite.returncode != 0 or not head.endswith(", 1 cached)"):
        failures.append(
            f"suite on {CACHE} did not answer the daemon's verdict "
            f"(exit {suite.returncode}): {head or suite.stderr[-500:]}")
    else:
        print(f"[ok]   one store: the suite read the daemon's verdict "
              f"({head})")

    if failures:
        print("serve smoke FAILED:\n  " + "\n  ".join(failures))
        return 1
    print("serve smoke: all gates passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
