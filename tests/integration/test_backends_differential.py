"""Differential check: every kernel agrees on every registered app.

The compiled backend rewrites each design into specialized straight-line
code; the traced backend further fuses hot FSM loops into single guarded
blocks; the oblivious backend ignores every event-driven optimisation.
Whatever the kernel, the observable outcome — final memory contents,
cycle counts, verification verdicts — must be bit-identical, or a kernel
has changed the semantics it is supposed to merely accelerate.
"""

import pytest

from repro.apps import CASE_BUILDERS, suite_case
from repro.core import prepare_images, verify_design
from repro.rtg import ReconfigurationContext, RtgExecutor
from repro.sim import SIMULATOR_BACKENDS

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

BACKENDS = sorted(SIMULATOR_BACKENDS)


def test_all_backends_registered():
    """The differential net must keep covering every kernel tier; a
    registry regression would silently shrink this whole module."""
    assert set(BACKENDS) >= {"event", "oblivious", "compiled", "traced"}


def _execute(design, inputs, backend):
    """Run the design's RTG under *backend*; return (cycles, memories)."""
    images = prepare_images(design, inputs)
    context = ReconfigurationContext.from_rtg(design.rtg, initial=images)
    result = RtgExecutor(design.rtg, context, backend=backend).run()
    memories = {name: tuple(context.memory(name).words())
                for name in context.memories}
    return result.total_cycles, memories


@pytest.mark.parametrize("name", sorted(CASE_BUILDERS))
def test_backends_bit_identical(name):
    case = suite_case(name, **SMALL_SIZES[name])
    design = case.compile()
    inputs = case.inputs(0)
    reference = None
    for backend in BACKENDS:
        cycles, memories = _execute(design, inputs, backend)
        if reference is None:
            reference = (cycles, memories)
        else:
            assert cycles == reference[0], \
                f"{name}: {backend} took {cycles} cycles, " \
                f"expected {reference[0]}"
            assert memories == reference[1], \
                f"{name}: {backend} memory contents diverge"


@pytest.mark.parametrize("name", sorted(CASE_BUILDERS))
def test_backends_same_verdict(name):
    case = suite_case(name, **SMALL_SIZES[name])
    design = case.compile()
    inputs = case.inputs(0)
    results = {backend: verify_design(design, case.func, inputs,
                                      backend=backend)
               for backend in BACKENDS}
    for backend, result in results.items():
        assert result.passed, f"{name}/{backend}: {result.summary()}"
        assert result.backend == backend
    cycle_counts = {result.cycles for result in results.values()}
    assert len(cycle_counts) == 1, f"{name}: cycle counts {cycle_counts}"


def test_compiled_backend_actually_compiles():
    """Guard against a silent permanent fallback: the speedup claim
    rests on the specialized program really being used."""
    from repro.sim import CompiledSimulator

    case = suite_case("fdct1", **SMALL_SIZES["fdct1"])
    design = case.compile()
    images = prepare_images(design, case.inputs(0))
    context = ReconfigurationContext.from_rtg(design.rtg, initial=images)
    executor = RtgExecutor(design.rtg, context, backend="compiled")
    seen = []
    executor.on_configure = lambda d: seen.append(d.sim)
    executor.run()
    assert seen, "on_configure never fired"
    for sim in seen:
        assert isinstance(sim, CompiledSimulator)
        assert sim.fallback_reason is None
        assert sim._program is not None


def test_traced_backend_actually_fuses():
    """Same guard for the trace-fusing tier: fdct1's MAC loop must fuse
    (not fall back, not degenerate to the plain compiled program)."""
    from repro.sim import TracedSimulator

    case = suite_case("fdct1", **SMALL_SIZES["fdct1"])
    design = case.compile()
    images = prepare_images(design, case.inputs(0))
    context = ReconfigurationContext.from_rtg(design.rtg, initial=images)
    executor = RtgExecutor(design.rtg, context, backend="traced")
    seen = []
    executor.on_configure = lambda d: seen.append(d.sim)
    executor.run()
    assert seen, "on_configure never fired"
    for sim in seen:
        assert isinstance(sim, TracedSimulator)
        assert sim.fallback_reason is None
        report = sim.fusion_report()
        assert report is not None and report["n_traces"] >= 1, report
        assert any(trace["kind"] == "loop"
                   for trace in report["traces"]), report
