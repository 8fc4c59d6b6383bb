"""The repository's end-to-end benchmark: one command, one workload.

    python3 benchmarks/e2e/run.py --workload NAME --seed S \\
        --seconds T --trace 0|1 [--out FILE]

``--seconds`` fixes the amount of work (units of work per second of
run, calibrated on a 2-core x86 container), so both sides of a
comparison do identical work.  ``--trace 0`` measures the end-to-end
metrics with tracing off; ``--trace 1`` reruns the same work with the
layer spans of ``layers.py`` installed and reports the per-layer split.
Both print ``outputs_digest``, a SHA-256 over every verdict and cycle
count, which must not depend on tracing.

Every metric is printed by name with its unit; the last stdout line is
one JSON object (``correct``, ``attempted``, ``failed``, ``metrics``).
The exit code is 0 only when every output was correct.  Each run gets
its own kernel cache and scratch directory under ``.e2e-work/`` in the
checkout and never reads ``REPRO_LEDGER``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from workloads import percentile, tail

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"

#: units of work per second of ``--seconds``: suite runs, campaigns or
#: requests.  The closed loops are paced for the reference host in its
#: slow stretches, so that a run measures about ``--seconds`` even then;
#: the serve rate is the open loop's arrival rate, set against the
#: sustainable rate that calibrate.py measures
PACE = {
    "regress-cold": 3.0,
    "regress-large": 2.0,
    "fault-campaign": 0.35,
    "serve-zipf": 150.0,
}

#: seconds of untimed units before the closed loops start measuring:
#: the first seconds under load run slower on the reference host
WARMUP_S = 2.0

#: fresh interpreters (or daemons) timed for ``setup_s``; the closed
#: loops take them between measured units, spread over the run
SETUP_SAMPLES = 5

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _parse(argv):
    parser = argparse.ArgumentParser(
        description="End-to-end benchmark of the verification pipeline.")
    parser.add_argument("--workload", choices=sorted(PACE), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="run length; sets the number of units")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", metavar="FILE",
                        help="also write the full result record as JSON")
    return parser.parse_args(argv)


def isolate(work: Path) -> dict:
    """Point kernel cache, temp files and imports at this run only;
    returns the environment for child processes."""
    (work / "tmp").mkdir(parents=True)
    os.environ.pop("REPRO_LEDGER", None)
    os.environ["REPRO_KERNEL_CACHE"] = str(work / "kernels")
    os.environ["TMPDIR"] = str(work / "tmp")
    path = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = str(SRC) + (os.pathsep + path if path
                                           else "")
    sys.path.insert(0, str(SRC))
    return dict(os.environ)


def _interpreter_setup(env: dict, work: Path) -> float:
    """Seconds from spawning a fresh interpreter until the toolchain is
    imported and ready."""
    code = "import repro.apps, repro.inject; print('ready', flush=True)"
    started = time.perf_counter()
    with subprocess.Popen([sys.executable, "-c", code], env=env, cwd=work,
                          stdout=subprocess.PIPE) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - started
        proc.wait(timeout=60)
    if line.strip() != b"ready" or proc.returncode:
        raise RuntimeError("setup interpreter failed to import repro")
    return elapsed


def _setup_sampler(env: dict, work: Path, units: int):
    """A ``before_unit`` hook taking ``SETUP_SAMPLES`` set-up samples
    spread evenly over the measured units, so one slow stretch of the
    host cannot move them all; returns (samples, hook)."""
    points = [units * k // SETUP_SAMPLES for k in range(SETUP_SAMPLES)]
    samples: list = []

    def before_unit(index: int) -> None:
        for _ in range(points.count(index)):
            samples.append(_interpreter_setup(env, work))
    return samples, before_unit


def _measure(args, work: Path, env: dict):
    """Run the workload; returns (outcome, setup samples, layers)."""
    import layers  # these import repro, so only after isolate
    import loadgen

    units = max(2, round(args.seconds * PACE[args.workload]))
    events = work / "events.jsonl"
    traced = args.trace == 1
    if args.workload == "serve-zipf":
        outcome, setups = loadgen.serve(
            args.seed, units, rate=PACE[args.workload],
            daemon_argv=loadgen.daemon_command(events if traced else None),
            env=env, work=work,
            setup_samples=1 if traced else SETUP_SAMPLES)
        main_pid = None
    else:
        setups, before_unit = ([], lambda index: None) if traced \
            else _setup_sampler(env, work, units)
        if traced:
            layers.wrap_layers()
        tracer = layers.UnitTracer(events if traced else None)
        warmup = max(1, round(WARMUP_S * PACE[args.workload]))
        try:
            if args.workload == "fault-campaign":
                outcome = workloads.fault_campaign(
                    args.seed, units, tracer, warmup=warmup,
                    before_unit=before_unit)
            else:
                outcome = workloads.regress(
                    args.seed, units, tracer, warmup=warmup,
                    before_unit=before_unit,
                    cold=args.workload == "regress-cold")
        finally:
            tracer.close()
        main_pid = os.getpid()
    split = {}
    if traced:
        spans, recorded = layers.read_events(events)
        split = layers.account(spans, units=units, lanes=workloads.JOBS,
                               main_pid=main_pid)
        split["trace.overhead"] = _overhead(outcome, split, recorded, work)
    return outcome, setups, split


def _overhead(outcome, split: dict, recorded: int, work: Path) -> float:
    """What recording costs, as a share of the untraced time.

    Closed loops alternate traced and bare units, so this is the ratio
    of their median latencies.  The serve daemon records throughout;
    its share is estimated from the events recorded times a calibrated
    per-event cost, which is a lower bound.
    """
    import layers

    bare = [t for t, on in zip(outcome.latencies, outcome.traced) if not on]
    on = [t for t, on in zip(outcome.latencies, outcome.traced) if on]
    if bare and on:
        return statistics.median(on) / statistics.median(bare) - 1.0
    busy = split["trace.busy.s"] * len(outcome.latencies)
    cost = layers.span_cost(work / "calibrate.jsonl")
    return recorded * cost / busy if busy else 0.0


def _metrics(args, outcome, setups, split) -> dict:
    """Every metric ``BENCHMARK.json`` declares for this kind of run."""
    if args.trace:
        declared = SPEC["per_layer"]
        values = {metric["name"]: 0.0 for metric in declared}
        values.update(outcome.extra)
        values.update(split)
    else:
        declared = SPEC["end_to_end"]
        rss_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                     resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
        values = {
            "setup_s": statistics.median(setups),
            "verdict_p50_ms": percentile(outcome.latencies, 50) * 1e3,
            "peak_rss_mb": rss_kb / 1024.0,
        }
    return {metric["name"]: {"value": values[metric["name"]],
                             "unit": metric["unit"]}
            for metric in declared}


def main(argv=None) -> int:
    args = _parse(argv)
    # a terminated run still unwinds, so the daemon and pools it started
    # are stopped by the finally blocks on the way out
    signal.signal(signal.SIGTERM,
                  lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {SRC}", file=sys.stderr)
        return 2
    work = ROOT / ".e2e-work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        env = isolate(work)
        outcome, setups, split = _measure(args, work, env)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run is still using it
    print(f"workload {args.workload}  seed {args.seed}  "
          f"units {len(outcome.latencies)}  trace {args.trace}")
    for problem in outcome.problems[:20]:
        print(f"problem: {problem}")
    if not outcome.latencies:
        print("error: no verdict was measured", file=sys.stderr)
        return 1
    digest = hashlib.sha256(json.dumps(outcome.records).encode()) \
        .hexdigest()
    result = {
        "correct": not outcome.problems,
        "attempted": max(outcome.attempted, 1),
        "failed": outcome.failed,
        "metrics": _metrics(args, outcome, setups, split),
    }
    print(f"outputs_digest {digest}")
    print(f"attempted {result['attempted']}  failed {result['failed']}")
    # the tail is shown and recorded but not bounded (see README)
    print(f"verdict p50 {percentile(outcome.latencies, 50) * 1e3:.6g} ms  "
          f"tail {tail(outcome.latencies) * 1e3:.6g} ms  "
          f"over {len(outcome.latencies)} unit(s)")
    for name, metric in result["metrics"].items():
        print(f"  {name:<26} {metric['value']:>14.6g} {metric['unit']}")
    if args.out:
        record = dict(workload=args.workload, seed=args.seed,
                      seconds=args.seconds, trace=args.trace,
                      outputs_digest=digest, latencies=outcome.latencies,
                      **result)
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
