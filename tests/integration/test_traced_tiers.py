"""The tiered traced kernel: where it promotes changes nothing observable.

A traced elaboration runs the generic per-state program (the compiled
kernel) until it has run ``promote_after`` cycles, and the fused
program from then on.  Wherever the switch falls — inside a fused
trace, on the first or last cycle the FSM spends in it, one cycle
before ``done`` — the run must equal the compiled and event kernels'
runs: cycles, every memory, the controller's state and transition
count, the statistics counters and the coverage tallies.
"""

import functools

import pytest

from repro.apps import CASE_BUILDERS, suite_case
from repro.core import prepare_images
from repro.core.kernelcache import KernelCache, default_cache, \
    set_default_cache
from repro.inject import (FaultDescriptor, FaultloadGenerator, attach_fault,
                          output_adjacent_nets, run_campaign)
from repro.inject import campaign as campaign_mod
from repro.obs import CoverageCollector
from repro.rtg import ReconfigurationContext, RtgExecutor
from repro.sim import SimulationTimeout, TracedSimulator
from repro.sim.trace import PROMOTE_AFTER
from repro.translate import build_simulation

from tests.integration.test_backends_differential import SMALL_SIZES

POINTS = ("inside", "first", "last", "before_done")


@pytest.fixture(autouse=True)
def tiered(monkeypatch):
    """The real threshold (tests/conftest.py starts traced runs fused),
    on an empty kernel cache: a fused program another test left in the
    cache would make these runs start fused."""
    monkeypatch.setattr(TracedSimulator, "promote_after", PROMOTE_AFTER)
    previous = set_default_cache(KernelCache(None))
    yield
    set_default_cache(previous)


@functools.lru_cache(maxsize=None)
def _case(name):
    case = suite_case(name, **SMALL_SIZES[name])
    return case.compile(), case.inputs(0)


def _executor(design, inputs, backend, coverage=None):
    context = ReconfigurationContext.from_rtg(
        design.rtg, initial=prepare_images(design, inputs))
    return context, RtgExecutor(design.rtg, context, backend=backend,
                                coverage=coverage)


def _observe(name, backend, promote=None):
    """Run app *name*'s RTG with coverage on an empty kernel cache.

    *promote* maps each configuration to the cycle its traced
    elaboration promotes at.  Returns the per-configuration runs, the
    memories, the coverage report and the live designs.
    """
    design, inputs = _case(name)
    set_default_cache(KernelCache(None))
    collector = CoverageCollector()
    context, executor = _executor(design, inputs, backend, collector)
    live = []

    def configure(sim_design):
        if promote is not None:
            sim_design.sim.promote_after = promote[sim_design.datapath.name]
        live.append(sim_design)

    executor.on_configure = configure
    result = executor.run()
    runs = [(run.configuration, run.cycles, each.controller.state,
             each.controller.transitions, each.sim.stats.as_dict())
            for run, each in zip(result.runs, live)]
    memories = {mem: context.memory(mem).words()
                for mem in context.memories}
    return runs, memories, collector.report, live


@functools.lru_cache(maxsize=None)
def _references(name):
    return _observe(name, "compiled")[:3], _observe(name, "event")[:3]


@functools.lru_cache(maxsize=None)
def _points(name):
    """Per configuration, the promotion cycle of each of ``POINTS``.

    The controller's state after every cycle comes from an event run;
    the fused traces from a traced run that started fused.  The
    stretch is the longest run of consecutive cycles the FSM spends in
    one fused trace, a loop if any fused.
    """
    design, inputs = _case(name)
    states = {}
    _context, executor = _executor(design, inputs, "event")

    def record(sim_design):
        seen = states[sim_design.datapath.name] = \
            [sim_design.controller.state]
        sim_design.sim._cycle_hooks.append(
            lambda _sim: seen.append(sim_design.controller.state))

    executor.on_configure = record
    executor.run()
    fused = _observe(name, "traced", {config: 0 for config in states})[3]
    points = {}
    for sim_design in fused:
        config = sim_design.datapath.name
        seen = states[config]
        best = None
        for trace in sim_design.sim.fusion_report()["traces"]:
            members = set(trace["states"])
            start = None
            for cycle, state in enumerate(seen + [None]):
                if state in members and start is None:
                    start = cycle
                elif state not in members and start is not None:
                    stretch = (trace["kind"] == "loop", cycle - start,
                               start, cycle - 1)
                    best = stretch if best is None else max(best, stretch)
                    start = None
        assert best is not None, f"{config}: no fused trace ever runs"
        _loop, _length, first, last = best
        points[config] = {"inside": (first + last) // 2, "first": first,
                          "last": last, "before_done": len(seen) - 2}
    return points


@pytest.mark.parametrize("point", POINTS)
@pytest.mark.parametrize("name", sorted(CASE_BUILDERS))
def test_promotion_mid_run_is_bit_identical(name, point):
    promote = {config: cycles[point]
               for config, cycles in _points(name).items()}
    runs, memories, coverage, live = _observe(name, "traced", promote)
    (c_runs, c_memories, c_coverage), (e_runs, e_memories, e_coverage) = \
        _references(name)

    for sim_design in live:
        report = sim_design.sim.fusion_report()
        assert report["promoted_at"] == promote[sim_design.datapath.name]
        assert report["n_traces"] >= 1, report
    assert runs == c_runs
    assert memories == c_memories == e_memories
    assert [run[:4] for run in runs] == [run[:4] for run in e_runs]
    assert [run[4]["cycles"] for run in runs] == \
        [run[4]["cycles"] for run in e_runs]
    assert coverage.as_dict() == c_coverage.as_dict()
    for config, got in coverage.configurations.items():
        want = e_coverage.configurations[config]
        assert set(got.fsm.visited_states) == set(want.fsm.visited_states)
        assert set(got.fsm.taken_transitions) == \
            set(want.fsm.taken_transitions)


def _elaborate(backend, name="fdct1"):
    design, inputs = _case(name)
    config = design.configurations[0]
    return build_simulation(config.datapath, config.fsm,
                            prepare_images(design, inputs), backend=backend)


def _state(sim_design):
    sim = sim_design.sim
    return (sim_design.controller.state, sim_design.controller.transitions,
            sim.stats.as_dict(), sim.now,
            {name: signal.value for name, signal in sim.signals.items()},
            {name: image.words()
             for name, image in sim_design.memories.items()})


@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_timeout_lands_on_the_compiled_cycle(offset):
    """A budget below, at or above the promotion point times out at the
    same cycle and in the same state as the compiled kernel, and both
    then finish alike."""
    promote = 100
    compiled, traced = _elaborate("compiled"), _elaborate("traced")
    traced.sim.promote_after = promote
    for sim_design in (compiled, traced):
        with pytest.raises(SimulationTimeout) as caught:
            sim_design.run_to_done(max_cycles=promote + offset)
        assert caught.value.cycles == promote + offset
    assert _state(traced) == _state(compiled)
    assert traced.sim.promoted_at == (promote if offset > 0 else None)
    assert traced.run_to_done() == compiled.run_to_done()
    assert _state(traced) == _state(compiled)
    assert traced.sim.promoted_at == promote


def test_default_size_apps_never_promote():
    for name in sorted(CASE_BUILDERS):
        case = suite_case(name)
        design = case.compile()
        context, executor = _executor(design, case.inputs(0), "traced")
        live = []
        executor.on_configure = live.append
        executor.run()
        for sim_design in live:
            assert sim_design.sim.fusion_report() == {"promoted_at": None}


def test_a_long_run_promotes_at_the_threshold():
    case = suite_case("fdct1", pixels=1024)
    design = case.compile()
    config = design.configurations[0]
    live = build_simulation(config.datapath, config.fsm,
                            prepare_images(design, case.inputs(0)),
                            backend="traced")
    assert live.run_to_done() > PROMOTE_AFTER
    report = live.sim.fusion_report()
    assert report["promoted_at"] == PROMOTE_AFTER
    assert report["n_traces"] >= 1


def test_the_generic_tier_is_the_compiled_kernel():
    """The generic program is filed under the compiled key: a compiled
    elaboration of the same design hits it."""
    cache = default_cache()
    traced = _elaborate("traced")
    traced.run_to_done()
    assert traced.sim._program.kind == "compiled"
    misses = cache.misses
    compiled = _elaborate("compiled")
    compiled.sim.run_cycles(0)
    assert cache.misses == misses
    assert compiled.sim._program.source == traced.sim._program.source


def test_a_cached_fused_program_starts_fused():
    first = _elaborate("traced")
    first.sim.promote_after = 0
    first.run_to_done()
    assert first.sim.promoted_at == 0
    second = _elaborate("traced")
    second.sim.run_cycles(0)
    assert second.sim._program.kind == "traced"
    assert second.sim.fusion_report()["promoted_at"] == 0


def test_a_kernel_fault_never_promotes():
    design, _inputs = _case("fdct1")
    sim_design = _elaborate("traced")
    sim_design.sim.promote_after = 0
    fault = FaultDescriptor(fault_id="s", kind="stuck",
                            target=output_adjacent_nets(design)[0],
                            bit=0, stuck_value=1)
    handle = attach_fault(sim_design, fault)
    assert handle.mechanism == "kernel"
    sim_design.run_to_done()
    assert sim_design.sim.fusion_report() == {"promoted_at": None}


def test_campaign_rewinds_do_not_add_up_to_a_promotion():
    """A campaign testbench rewinds its elaboration, statistics
    included, before every injection: runs each shorter than the
    threshold never promote, however many of them it makes."""
    design, inputs = _case("fdct1")
    bench = campaign_mod._Testbench(design, inputs, backend="traced",
                                    fsm_mode="generated")
    cycles = bench.record(10_000)
    for _ in range(PROMOTE_AFTER // cycles + 1):
        bench.rewind()
        assert bench.design.run_to_done(max_cycles=10_000) == cycles
    assert bench.design.sim.fusion_report() == {"promoted_at": None}


def test_a_campaign_promoted_mid_baseline_classifies_as_compiled(
        monkeypatch):
    """The baseline promotes its elaboration half way; the injections
    then rewind it to checkpoints before the promotion and swap fault
    kernels in and out.  Every fault still classifies as on
    ``compiled``."""
    design, inputs = _case("fdct1")
    func = suite_case("fdct1", **SMALL_SIZES["fdct1"]).func
    cycles = _elaborate("compiled").run_to_done()
    faults = FaultloadGenerator(design, seed=5, max_cycle=cycles) \
        .generate(40)
    promoted = []
    promote = TracedSimulator._promote

    def spy(sim):
        promoted.append(sim.stats.cycles)
        return promote(sim)

    monkeypatch.setattr(TracedSimulator, "promote_after", cycles // 2)
    monkeypatch.setattr(TracedSimulator, "_promote", spy)
    rows = {}
    for backend in ("compiled", "traced"):
        report = run_campaign(design, func, faults, inputs,
                              backend=backend, jobs=1)
        rows[backend] = [(result.fault.fault_id, result.verdict,
                          result.cycles, result.mechanism, result.note)
                         for result in report.results]
    assert promoted[0] == cycles // 2
    assert {row[1] for row in rows["traced"]} >= {"masked", "sdc"}
    assert rows["traced"] == rows["compiled"]
