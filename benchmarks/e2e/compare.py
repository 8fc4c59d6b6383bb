"""Compare benchmark runs of a parent commit and a change.

    python3 benchmarks/e2e/compare.py --parent P1.json P2.json ... \\
        --change C1.json C2.json ...

Each file is one ``run.py --out FILE`` record.  Runs of the two sides
with the same workload and seed form a pair; run the pairs alternating
which side goes first, and at least ten of them.  For every workload and
every end-to-end metric the report gives each side's median and
quartiles, the change's ratio to the parent's median (with its base),
the pair wins, and a verdict against the bound in ``BENCHMARK.json``:

``REGRESSION``  the change's median is worse by more than the bound;
``unresolved``  the parent's own spread (quartile distance over median)
                is wider than the bound, and the change did not beat the
                parent on every run;
``gain``        the change won at least nine tenths of the pairs and the
                medians differ by more than the parent's quartile
                distance;
``held``        none of the above: no worse than the bound.

Untraced records also list each run's tail verdict time (the slowest
with ten beyond it) from the recorded latencies; it is shown, not
judged (see README).
Traced records (``--trace 1``) are listed per layer, so a claim can be
traced to the layer that moved.  The exit code is 1 when any metric
regressed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

from workloads import tail

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"
MIN_PAIRS = 10
WIN_SHARE = 0.9


def _load(paths):
    """{(workload, trace): {seed: record}}"""
    runs = defaultdict(dict)
    for path in paths:
        record = json.loads(Path(path).read_text())
        runs[(record["workload"], record["trace"])][record["seed"]] = record
    return runs


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _values(records, name):
    return [record["metrics"][name]["value"] for record in records
            if name in record["metrics"]]


def judge(parent, change, *, bound, lower_is_better, pairs):
    """Verdict for one metric; *pairs* are (parent, change) values."""
    p1, p_med, p3 = _quartiles(parent)
    _, c_med, _ = _quartiles(change)
    sign = 1.0 if lower_is_better else -1.0
    worse = sign * (c_med - p_med) / p_med
    wins = sum(1 for p, c in pairs if sign * (c - p) < 0)
    if worse > bound:
        return "REGRESSION", wins
    if (p3 - p1) / p_med > bound and not \
            all(sign * (c - p) < 0 for c in change for p in parent):
        return "unresolved", wins
    if len(pairs) >= MIN_PAIRS and wins >= WIN_SHARE * len(pairs) \
            and abs(c_med - p_med) > p3 - p1 and worse < 0:
        return "gain", wins
    return "held", wins


def _row(name, unit, parent, change):
    p1, p_med, p3 = _quartiles(parent)
    c1, c_med, c3 = _quartiles(change)
    ratio = f"{c_med / p_med:.3f}" if p_med else "n/a"
    return (f"  {name:<26} parent {p_med:>11.5g} [{p1:.5g}, {p3:.5g}]  "
            f"change {c_med:>11.5g} [{c1:.5g}, {c3:.5g}] {unit}  "
            f"ratio {ratio} (base: parent median {p_med:.5g} {unit})")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", nargs="+", required=True)
    parser.add_argument("--change", nargs="+", required=True)
    args = parser.parse_args(argv)
    spec = json.loads(BENCHMARK.read_text())
    parent, change = _load(args.parent), _load(args.change)
    regressed = False
    for key in sorted(set(parent) & set(change)):
        workload, traced = key
        seeds = sorted(set(parent[key]) & set(change[key]))
        p_runs = list(parent[key].values())
        c_runs = list(change[key].values())
        print(f"{workload} ({'traced' if traced else 'untraced'}): "
              f"{len(p_runs)} parent run(s), {len(c_runs)} change "
              f"run(s), {len(seeds)} pair(s)")
        if len(seeds) < MIN_PAIRS:
            print(f"  fewer than {MIN_PAIRS} pairs: no gain can be "
                  f"claimed")
        same = sum(1 for seed in seeds
                   if parent[key][seed]["outputs_digest"]
                   == change[key][seed]["outputs_digest"])
        print(f"  outputs_digest identical on {same}/{len(seeds)} pair(s)")
        failed = [r for r in p_runs + c_runs if not r["correct"]]
        if failed:
            print(f"  {len(failed)} run(s) reported wrong outputs")
        metrics = spec["per_layer"] if traced else spec["end_to_end"]
        for metric in metrics:
            name = metric["name"]
            p_vals, c_vals = _values(p_runs, name), _values(c_runs, name)
            if not p_vals or not c_vals:
                continue
            line = _row(name, metric["unit"], p_vals, c_vals)
            if not traced and statistics.median(p_vals):
                pairs = [(parent[key][s]["metrics"][name]["value"],
                          change[key][s]["metrics"][name]["value"])
                         for s in seeds]
                verdict, wins = judge(
                    p_vals, c_vals, bound=metric["bound"],
                    lower_is_better=metric["better"] == "lower",
                    pairs=pairs)
                regressed |= verdict == "REGRESSION"
                line += (f"  wins {wins}/{len(pairs)}  bound "
                         f"{metric['bound']:.0%}  {verdict}")
            print(line)
        if not traced:
            print(_row("(verdict tail, unbounded)", "ms",
                       [tail(r["latencies"]) * 1e3 for r in p_runs],
                       [tail(r["latencies"]) * 1e3 for r in c_runs]))
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
