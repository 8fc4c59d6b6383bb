"""A6 — batched stimulus execution vs N serial traced verifications.

A batch runs N independent stimulus sets one after another on one
traced elaboration: one elaboration, one codegen/cache lookup, one
kernel binding, with the design rewound to its post-elaboration
snapshot and each lane's memory words copied in before it runs.  A
serial sweep pays the full per-design cost N times; the batch pays it
once.  This bench runs the same 64 fdct1 stimulus sets both ways,
interleaved best-of-N, and reports the amortized per-stimulus cost at
several batch sizes.

Quick sizes are the *honest* regime for this ablation: per-design
elaboration dominates a single small verification, which is exactly the
cost batching amortizes — so the >=3x acceptance floor is asserted in
quick mode too.  At full size the fused simulation itself dominates and
the win shrinks toward the elaboration saving; there the bench only
requires that batching never loses.
"""

import os
import time

import pytest

from repro.apps import suite_case
from repro.core import verify_design, verify_design_batch

QUICK = os.environ.get("REPRO_BENCH_QUICK") == "1"

PIXELS = 256 if QUICK else 8192
REPEATS = 1 if QUICK else 3

#: the acceptance batch size, plus smaller points for the sweep table
BATCH = 64
SWEEP = (8, BATCH)


def _serial_sweep(case, design, inputs_list):
    """N independent traced verifications, timed as one sweep."""
    started = time.perf_counter()
    results = []
    for inputs in inputs_list:
        result = verify_design(design, case.func, inputs,
                               backend="traced")
        assert result.passed, result.summary()
        results.append(result)
    return time.perf_counter() - started, results


@pytest.mark.benchmark(group="ablation-batch")
def test_batched_vs_serial_traced(report_writer):
    case = suite_case("fdct1", pixels=PIXELS)
    design = case.compile()
    inputs_list = [case.inputs(seed) for seed in range(BATCH)]

    serial_best = None
    batch_best = {size: None for size in SWEEP}
    serial_cycles = None
    for _ in range(REPEATS):
        serial_wall, serial_results = _serial_sweep(case, design,
                                                    inputs_list)
        serial_best = min(filter(None, (serial_best, serial_wall)))
        serial_cycles = [result.cycles for result in serial_results]

        for size in SWEEP:
            started = time.perf_counter()
            batch = verify_design_batch(design, case.func,
                                        inputs_list[:size],
                                        backend="traced")
            wall = time.perf_counter() - started
            assert batch.passed, batch.summary()
            assert batch.batch_size == size
            # lane cycles must be bit-identical to the serial runs
            assert [lane.cycles for lane in batch.lanes] == \
                serial_cycles[:size]
            batch_best[size] = min(filter(None, (batch_best[size], wall)))

    serial_per_stimulus = serial_best / BATCH
    rows = []
    for size in SWEEP:
        amortized = batch_best[size] / size
        rows.append(f"batch {size:>3d}     {batch_best[size]:8.4f}s "
                    f"{amortized * 1000:10.2f}ms "
                    f"{serial_per_stimulus / max(amortized, 1e-9):7.2f}x")
    ratio = serial_per_stimulus / max(batch_best[BATCH] / BATCH, 1e-9)

    report_writer("ablation_batch", "\n".join([
        f"A6 -- batched stimulus execution (fdct1, {PIXELS} pixels, "
        f"{BATCH} stimulus sets, best of {REPEATS}, "
        f"identical per-lane cycle counts)",
        "",
        "configuration    wall       per stim    speedup",
        "-------------  ---------  -----------  -------",
        f"serial traced  {serial_best:8.4f}s "
        f"{serial_per_stimulus * 1000:10.2f}ms     1.00x",
        *rows,
        "",
        f"amortized speedup at batch {BATCH}: x{ratio:.2f} over serial "
        f"traced",
    ]) + "\n")

    if QUICK:
        # elaboration-dominated regime: the acceptance floor
        assert ratio >= 3.0, (serial_best, batch_best)
    else:
        # simulation-dominated regime: batching must never lose
        assert ratio >= 1.0, (serial_best, batch_best)
