"""Measure the sustainable open-loop rate of the serve-zipf mix.

    python3 benchmarks/e2e/calibrate.py --rates 100 200 300 400 \\
        [--seconds 20] [--seed 1]

Runs the open loop of ``loadgen`` once per rate, each against a fresh
daemon, and prints the workers' utilization, the median latency, the
p99 latency of the second half of the requests (the first executions
of each design build its kernels, which a long-running daemon has done
long before) and the backlog trend: the median latency of the last
quarter of the requests over that of the second quarter.  A rate is
sustainable when that p99 meets the goodput deadline and the trend
stays under 2 (no growing backlog).  The fixed rate in ``run.py`` is
set against the highest sustainable rate measured here (see README).
Exits 1 if any output was wrong.
"""

from __future__ import annotations

import argparse
import os
import shutil
import statistics
import sys

import run
from workloads import percentile

#: a backlog grows when late requests wait this many times longer
TREND_LIMIT = 2.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--rates", type=float, nargs="+", required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    if not (run.SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {run.SRC}", file=sys.stderr)
        return 2
    work = run.ROOT / ".e2e-work" / f"calibrate-{os.getpid()}"
    wrong = False
    try:
        env = run.isolate(work)
        import loadgen  # imports repro, so only after isolate

        print(f"serve-zipf: {args.seconds:g} s per rate, "
              f"{loadgen.JOBS} workers, deadline "
              f"{loadgen.DEADLINE * 1e3:.0f} ms at the warm p99")
        for rate in args.rates:
            outcome, _ = loadgen.serve(
                args.seed, round(rate * args.seconds), rate=rate,
                daemon_argv=loadgen.daemon_command(), env=env, work=work,
                setup_samples=1)
            if outcome.problems or not outcome.latencies:
                wrong = True
                print(f"  {rate:g} req/s: " + "; ".join(outcome.problems[:3]))
                continue
            latencies = outcome.latencies
            quarter = max(len(latencies) // 4, 1)
            trend = statistics.median(latencies[-quarter:]) \
                / statistics.median(latencies[quarter:2 * quarter])
            p99 = percentile(latencies[2 * quarter:], 99)
            ok = p99 <= loadgen.DEADLINE and trend < TREND_LIMIT
            print(f"  {rate:6g} req/s  utilization "
                  f"{outcome.extra['serve.utilization']:.2f}  p50 "
                  f"{statistics.median(latencies) * 1e3:7.1f} ms  warm p99 "
                  f"{p99 * 1e3:7.1f} ms  trend {trend:5.2f}  "
                  f"{'sustainable' if ok else 'NOT sustainable'}",
                  flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run is still using it
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
