"""CI bench-smoke for the trace-fusing kernel.

Two gates, cheap enough for every push:

1. **Differential** — every registered app, compiled vs traced, must
   produce identical cycle counts and memory contents.  Each app runs
   traced twice: fused from cycle 0, and promoted from the generic
   program to the fused one in the middle of each configuration's run
   (these runs are far too short to promote on their own).  On any
   mismatch, or a run that did not promote where asked, the generated
   (fused) kernel source for the offending design is written under
   ``fused-kernels/`` so the CI artifact upload captures exactly the
   code that diverged.
2. **Performance** — on fdct1 (the acceptance anchor) the traced
   kernel must be at least as fast as the compiled kernel,
   min-over-repeats of interleaved runs so host noise cannot flip the
   comparison.  Locally the ratio is ~2x; the gate only asserts >= 1.

Exit status 0 = both gates pass.
"""

import sys
from pathlib import Path

from repro.apps import CASE_BUILDERS, suite_case
from repro.core import prepare_images, verify_design
from repro.core.kernelcache import KernelCache, set_default_cache
from repro.rtg import ReconfigurationContext, RtgExecutor

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

PERF_CASE = "fdct1"
PERF_SIZE = {"pixels": 8192}
PERF_REPEATS = 3

DUMP_DIR = Path("fused-kernels")


def _execute(design, inputs, backend, sims, promote=()):
    """Run *design*'s RTG; *promote* lists, per configuration run in
    order, the cycle its traced elaboration promotes at.  Returns
    ``((cycles, memories), per-run cycles)``."""
    images = prepare_images(design, inputs)
    context = ReconfigurationContext.from_rtg(design.rtg, initial=images)
    executor = RtgExecutor(design.rtg, context, backend=backend)
    points = iter(promote)

    def configure(sim_design):
        cycle = next(points, None)
        if cycle is not None:
            sim_design.sim.promote_after = cycle
        sims.append(sim_design.sim)

    executor.on_configure = configure
    result = executor.run()
    memories = {name: tuple(context.memory(name).words())
                for name in context.memories}
    return (result.total_cycles, memories), \
        [run.cycles for run in result.runs]


def _dump_fused_sources(name, tag, sims):
    DUMP_DIR.mkdir(exist_ok=True)
    for index, sim in enumerate(sims):
        program = getattr(sim, "_program", None)
        source = getattr(program, "source", None)
        if source is None:
            source = f"# no generated program (fallback: " \
                     f"{getattr(sim, 'fallback_reason', None)})\n"
        path = DUMP_DIR / f"{name}_cfg{index}_traced_{tag}.py"
        path.write_text(source)
        print(f"  fused kernel source -> {path}")


def differential_gate():
    failed = []
    previous = set_default_cache(None)
    for name in sorted(CASE_BUILDERS):
        case = suite_case(name, **SMALL_SIZES.get(name, {}))
        design = case.compile()
        inputs = case.inputs(0)
        compiled, runs = _execute(design, inputs, "compiled", [])
        for tag, promote in (("at0", [0] * len(runs)),
                             ("mid", [cycles // 2 for cycles in runs])):
            # an empty cache: a fused program stored by the first run
            # would make the second start fused
            set_default_cache(KernelCache(None))
            traced_sims = []
            traced, _ = _execute(design, inputs, "traced", traced_sims,
                                 promote)
            promoted = [sim.promoted_at for sim in traced_sims]
            if compiled == traced and promoted == promote:
                print(f"[ok]   {name} promoted at {promote}: "
                      f"{compiled[0]} cycles, memories identical")
                continue
            failed.append(f"{name} ({tag})")
            print(f"[FAIL] {name}: compiled/traced diverge "
                  f"(cycles {compiled[0]} vs {traced[0]}; promotion "
                  f"asked at {promote}, came at {promoted})")
            _dump_fused_sources(name, tag, traced_sims)
    set_default_cache(previous)
    return failed


def perf_gate():
    case = suite_case(PERF_CASE, **PERF_SIZE)
    design = case.compile()
    inputs = case.inputs(0)
    best = {"compiled": None, "traced": None}
    for _ in range(PERF_REPEATS):
        for backend in ("compiled", "traced"):
            result = verify_design(design, case.func, inputs,
                                   backend=backend)
            assert result.passed, result.summary()
            seconds = result.simulation_seconds
            if best[backend] is None or seconds < best[backend]:
                best[backend] = seconds
    ratio = best["compiled"] / max(best["traced"], 1e-9)
    print(f"perf: {PERF_CASE} compiled {best['compiled'] * 1000:.1f}ms, "
          f"traced {best['traced'] * 1000:.1f}ms "
          f"(traced is x{ratio:.2f} faster; gate: >= 1)")
    return ratio >= 1.0


def main() -> int:
    failed = differential_gate()
    if failed:
        print(f"differential gate FAILED: {failed}")
        return 1
    if not perf_gate():
        print("perf gate FAILED: traced slower than compiled on "
              f"{PERF_CASE}")
        return 1
    print("traced smoke: both gates passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
