"""E4 — "verify … a complete test suite in feasible time".

The paper's purpose statement: after every compiler change, re-verify
the whole benchmark suite automatically.  This bench runs the full
standard suite (all eight registered algorithms, FDCT/IDCT at a 64x64
image) under the event-driven kernel, the compiled kernel (serial and
jobs=4) and the trace-fusing kernel, and records per-case simulation
seconds plus the suite wall times in ``BENCH_suite.json``.

``REPRO_BENCH_QUICK=1`` shrinks the sizes to a CI smoke run: the same
code paths execute, but the speedup floors are not asserted (at toy
sizes the per-case program build dominates the simulation itself).
"""

import os
import time

import pytest

from repro.apps import standard_suite
from repro.core.kernelcache import KernelCache, set_default_cache

from _artifacts import write_bench_artifacts

QUICK = os.environ.get("REPRO_BENCH_QUICK") == "1"

#: full-size run: big enough that simulation dominates elaboration and
#: per-design code generation (~tens of ms), so speedups are honest
#: (fdct1 runs at 32768 pixels: it anchors the traced-vs-compiled
#: floor, and the bigger run keeps the fused kernel's advantage from
#: drowning in the shared per-design elaboration cost)
SIZES_FULL = {
    "fdct1": {"pixels": 32768},
    "fdct2": {"pixels": 8192},
    "idct": {"pixels": 8192},
    "hamming": {"n_words": 8192},
    "fir": {"n_out": 4096, "taps": 8},
    "matmul": {"n": 20},
    "threshold": {"n_pixels": 16384},
    "popcount": {"n_words": 8192},
}

SIZES_QUICK = {
    "fdct1": {"pixels": 256},
    "fdct2": {"pixels": 256},
    "idct": {"pixels": 256},
    "hamming": {"n_words": 64},
    "fir": {"n_out": 64, "taps": 4},
    "matmul": {"n": 4},
    "threshold": {"n_pixels": 128},
    "popcount": {"n_words": 64},
}

SIZES = SIZES_QUICK if QUICK else SIZES_FULL


#: best-of-N repeats per configuration: a single-core CI host shows
#: large scheduling noise, and the minimum is the honest capability
REPEATS = 1 if QUICK else 3

#: stimulus sets run per design on one traced elaboration; the
#: acceptance floor is stated at batch >= 64 (one elaboration + one
#: generated program amortized over 64 lanes).  The JSON keys keep the
#: ``batched`` names the baseline ledger's series are filed under
BATCH = 64


def _run_once(backend, jobs=1):
    suite = standard_suite(sizes=SIZES)
    start = time.perf_counter()
    report = suite.run(seed=0, backend=backend, jobs=jobs)
    wall = time.perf_counter() - start
    assert report.passed, report.summary()
    sims = {result.case: result.verification.simulation_seconds
            for result in report.results}
    return wall, sims, report


def _run_round_robin(backends):
    """Best-of-REPEATS per backend, backends interleaved within each
    round so slow drift in host load hits every backend equally (the
    traced-vs-compiled ratio is the number that must not be skewed).

    Each backend keeps a kernel cache of its own, so each is measured
    as if it ran alone: the traced backend's generic tier is the
    compiled kernel, which a shared cache would hand over from the
    compiled run."""
    walls = {name: None for name in backends}
    sims = {name: {} for name in backends}
    reports = {}
    caches = {name: KernelCache(None) for name in backends}
    for _ in range(REPEATS):
        for name in backends:
            previous = set_default_cache(caches[name])
            try:
                wall, run_sims, report = _run_once(name)
            finally:
                set_default_cache(previous)
            if walls[name] is None or wall < walls[name]:
                walls[name] = wall
            for case, seconds in run_sims.items():
                previous = sims[name].get(case)
                if previous is None or seconds < previous:
                    sims[name][case] = seconds
            reports[name] = report
    return walls, sims, reports


def _run(backend, jobs=1):
    best = None
    for _ in range(REPEATS):
        wall, sims, report = _run_once(backend, jobs=jobs)
        if best is None or wall < best[0]:
            best = (wall, sims, report)
    return best


def _run_batched():
    """One batched pass verifies BATCH stimulus sets per design; the
    per-case number recorded is the *amortized* per-stimulus seconds
    (total batch simulation / BATCH), the honest unit to compare with
    a serial backend's single-stimulus time."""
    wall_best = None
    sims = {}
    for _ in range(REPEATS):
        suite = standard_suite(sizes=SIZES)
        start = time.perf_counter()
        report = suite.run(seed=0, backend="traced", batch=BATCH)
        wall = time.perf_counter() - start
        assert report.passed, report.summary()
        if wall_best is None or wall < wall_best:
            wall_best = wall
        for result in report.results:
            seconds = result.verification.lane_seconds
            previous = sims.get(result.case)
            if previous is None or seconds < previous:
                sims[result.case] = seconds
    return wall_best, sims


@pytest.mark.benchmark(group="suite")
def test_whole_suite_feasible(report_writer):
    walls, sims, reports = _run_round_robin(["event", "compiled", "traced"])
    event_wall, event_sims = walls["event"], sims["event"]
    compiled_wall, compiled_sims = walls["compiled"], sims["compiled"]
    traced_wall, traced_sims = walls["traced"], sims["traced"]
    event_report = reports["event"]
    jobs4_wall, _, _ = _run("compiled", jobs=4)
    batched_wall, batched_sims = _run_batched()

    # the paper's feasibility claim, generously bounded for slow hosts
    assert event_wall < 300

    cases = {
        name: {
            "event_sim_seconds": round(event_sims[name], 4),
            "compiled_sim_seconds": round(compiled_sims[name], 4),
            "traced_sim_seconds": round(traced_sims[name], 4),
            # amortized per-stimulus seconds of one batch-of-BATCH run
            "batched_sim_seconds": round(batched_sims[name], 6),
            "batch_size": BATCH,
            "speedup": round(event_sims[name]
                             / max(compiled_sims[name], 1e-9), 2),
            "traced_speedup": round(compiled_sims[name]
                                    / max(traced_sims[name], 1e-9), 2),
            "batched_speedup": round(traced_sims[name]
                                     / max(batched_sims[name], 1e-9), 2),
        }
        for name in event_sims
    }
    data = {
        "quick": QUICK,
        "sizes": SIZES,
        "cases": cases,
        "suite": {
            "event_serial_wall_seconds": round(event_wall, 3),
            "compiled_serial_wall_seconds": round(compiled_wall, 3),
            "traced_serial_wall_seconds": round(traced_wall, 3),
            "compiled_jobs4_wall_seconds": round(jobs4_wall, 3),
            # verifies BATCH stimulus sets per design in one pass
            "batched_wall_seconds": round(batched_wall, 3),
            "batched_wall_per_stimulus_seconds": round(
                batched_wall / BATCH, 4),
            "speedup_compiled_serial": round(event_wall
                                             / max(compiled_wall, 1e-9), 2),
            "speedup_traced_serial": round(event_wall
                                           / max(traced_wall, 1e-9), 2),
            "speedup_compiled_jobs4": round(event_wall
                                            / max(jobs4_wall, 1e-9), 2),
        },
    }

    write_bench_artifacts(data)

    header = (f"{'case':10s} {'event sim':>10s} {'compiled sim':>13s} "
              f"{'traced sim':>11s} {'batch/lane':>11s} {'speedup':>8s} "
              f"{'fusion':>7s} {'batch':>7s}")
    rows = [f"{name:10s} {info['event_sim_seconds']:9.3f}s "
            f"{info['compiled_sim_seconds']:12.3f}s "
            f"{info['traced_sim_seconds']:10.3f}s "
            f"{info['batched_sim_seconds']:10.4f}s "
            f"{info['speedup']:7.1f}x "
            f"{info['traced_speedup']:6.1f}x "
            f"{info['batched_speedup']:6.1f}x"
            for name, info in cases.items()]
    lines = [
        "E4 -- complete regression suite in one command "
        "(the paper's purpose)",
        "",
        f"mode: {'quick smoke' if QUICK else 'full'}",
        "",
        header,
        *rows,
        "",
        f"suite wall  event serial    {event_wall:6.2f}s",
        f"suite wall  compiled serial {compiled_wall:6.2f}s "
        f"({data['suite']['speedup_compiled_serial']}x)",
        f"suite wall  traced serial   {traced_wall:6.2f}s "
        f"({data['suite']['speedup_traced_serial']}x)",
        f"suite wall  compiled jobs=4 {jobs4_wall:6.2f}s "
        f"({data['suite']['speedup_compiled_jobs4']}x)",
        f"suite wall  batched x{BATCH}     {batched_wall:6.2f}s "
        f"({BATCH} stimulus sets per design, "
        f"{data['suite']['batched_wall_per_stimulus_seconds']}s "
        f"per stimulus)",
        "",
        event_report.metrics_table(),
    ]
    report_writer("suite", "\n".join(lines) + "\n")

    # batching's advantage is amortization of per-design elaboration
    # and codegen, which quick sizes measure honestly (a single lane's
    # serial verification pays the full per-design cost the batch
    # splits BATCH ways) — so this floor holds in both modes
    assert cases["fdct1"]["batched_speedup"] >= 3.0, cases["fdct1"]

    if not QUICK:
        # the acceptance floors for the compiled and trace-fusing kernels
        assert cases["fdct1"]["speedup"] >= 2.0, cases["fdct1"]
        assert cases["fdct1"]["traced_speedup"] >= 2.0, cases["fdct1"]
        assert data["suite"]["speedup_compiled_jobs4"] >= 3.0, data["suite"]
