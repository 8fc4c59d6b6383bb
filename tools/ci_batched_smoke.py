"""CI bench-smoke for batched stimulus execution.

A batch runs N stimulus sets one after another on one elaboration per
configuration, rewound before each.  Two gates, cheap enough for every
push:

1. **Differential** — every registered app, one batch of 4 stimulus
   sets vs the same 4 stimuli run on fresh elaborations, both on the
   traced kernel: per-lane cycle counts and memory contents must be
   bit-identical.  On any mismatch the generated kernel source for the
   offending design is written under ``fused-kernels/`` so the CI
   artifact upload captures exactly the code that diverged.
2. **Performance** — on fdct1 (the acceptance anchor) one batch of 64
   stimulus sets must verify at least as fast *per stimulus* as serial
   traced verification, min-over-repeats of interleaved runs so host
   noise cannot flip the comparison.  Locally the amortized ratio is
   ~3-8x; the gate only asserts >= 1.

Exit status 0 = both gates pass.
"""

import sys
from pathlib import Path

from repro.apps import CASE_BUILDERS, suite_case
from repro.core import prepare_images, verify_design, verify_design_batch
from repro.rtg import (ReconfigurationContext, RtgBatchExecutor,
                       RtgExecutor)

SMALL_SIZES = {
    "fdct1": {"pixels": 64},
    "fdct2": {"pixels": 64},
    "idct": {"pixels": 64},
    "hamming": {"n_words": 16},
    "fir": {"n_out": 16, "taps": 4},
    "matmul": {"n": 4},
    "threshold": {"n_pixels": 32},
    "popcount": {"n_words": 16},
}

BACKEND = "traced"

DIFF_BATCH = 4

PERF_CASE = "fdct1"
PERF_SIZE = {"pixels": 1024}
PERF_BATCH = 64
PERF_REPEATS = 3

DUMP_DIR = Path("fused-kernels")


def _serial(design, inputs):
    images = prepare_images(design, inputs)
    context = ReconfigurationContext.from_rtg(design.rtg, initial=images)
    result = RtgExecutor(design.rtg, context, backend=BACKEND).run()
    memories = {name: tuple(context.memory(name).words())
                for name in context.memories}
    return result.total_cycles, memories


def _batched(design, inputs_list, sims):
    contexts = [
        ReconfigurationContext.from_rtg(
            design.rtg, initial=prepare_images(design, inputs))
        for inputs in inputs_list
    ]
    executor = RtgBatchExecutor(design.rtg, contexts, backend=BACKEND)
    executor.on_configure = lambda d: sims.append(d.sim)
    report = executor.run()
    lanes = []
    for context, lane in zip(contexts, report.lanes):
        memories = {name: tuple(context.memory(name).words())
                    for name in context.memories}
        lanes.append((lane.total_cycles, memories))
    return lanes


def _dump_kernel_sources(name, sims):
    DUMP_DIR.mkdir(exist_ok=True)
    for index, sim in enumerate(sims):
        program = getattr(sim, "_program", None)
        source = getattr(program, "source", None)
        if source is None:
            source = f"# no generated program (fallback: " \
                     f"{getattr(sim, 'fallback_reason', None)})\n"
        path = DUMP_DIR / f"{name}_cfg{index}_batch.py"
        path.write_text(source)
        print(f"  batch kernel source -> {path}")


def differential_gate():
    failed = []
    for name in sorted(CASE_BUILDERS):
        case = suite_case(name, **SMALL_SIZES.get(name, {}))
        design = case.compile()
        inputs_list = [case.inputs(seed) for seed in range(DIFF_BATCH)]
        batch_sims = []
        lanes = _batched(design, inputs_list, batch_sims)
        mismatched = []
        for seed, lane in enumerate(lanes):
            reference = _serial(design, inputs_list[seed])
            if lane != reference:
                mismatched.append((seed, lane[0], reference[0]))
        if not mismatched:
            print(f"[ok]   {name}: {DIFF_BATCH} lanes bit-identical to "
                  f"fresh runs ({lanes[0][0]} cycles on lane 0)")
            continue
        failed.append(name)
        for seed, got, expected in mismatched:
            print(f"[FAIL] {name}: lane {seed} diverges from a fresh run "
                  f"(cycles {got} vs {expected})")
        _dump_kernel_sources(name, batch_sims)
    return failed


def perf_gate():
    case = suite_case(PERF_CASE, **PERF_SIZE)
    design = case.compile()
    inputs_list = [case.inputs(seed) for seed in range(PERF_BATCH)]
    serial_best = batch_best = None
    for _ in range(PERF_REPEATS):
        result = verify_design(design, case.func, inputs_list[0],
                               backend=BACKEND)
        assert result.passed, result.summary()
        seconds = result.simulation_seconds
        if serial_best is None or seconds < serial_best:
            serial_best = seconds

        batch = verify_design_batch(design, case.func, inputs_list,
                                    backend=BACKEND)
        assert batch.passed, batch.summary()
        if batch_best is None or batch.lane_seconds < batch_best:
            batch_best = batch.lane_seconds
    ratio = serial_best / max(batch_best, 1e-9)
    print(f"perf: {PERF_CASE} serial {BACKEND} {serial_best * 1000:.1f}ms "
          f"per stimulus, batch of {PERF_BATCH} "
          f"{batch_best * 1000:.2f}ms per stimulus "
          f"(the batch is x{ratio:.2f} faster; gate: >= 1)")
    return ratio >= 1.0


def main() -> int:
    failed = differential_gate()
    if failed:
        print(f"differential gate FAILED: {failed}")
        return 1
    if not perf_gate():
        print("perf gate FAILED: the batch is slower per stimulus than "
              f"serial {BACKEND} on {PERF_CASE}")
        return 1
    print("batched smoke: both gates passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
