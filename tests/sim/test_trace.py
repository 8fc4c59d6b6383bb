"""The trace-fusing kernel: fusion happens, semantics never change."""

import pytest

from repro.apps import suite_case
from repro.sim import CompiledSimulator, TracedSimulator, create_simulator
from repro.translate import build_simulation

from tests.sim.test_kernel import build_accumulator


def _build_pair(name="fdct1", backend="traced", **sizes):
    """Elaborate one app twice: event reference + traced kernel."""
    sizes = sizes or {"pixels": 64}
    case = suite_case(name, **sizes)
    design = case.compile()
    config = design.configurations[0]
    from repro.core import prepare_images

    inputs = case.inputs(0)
    ref = build_simulation(config.datapath, config.fsm,
                           prepare_images(design, inputs))
    dut = build_simulation(config.datapath, config.fsm,
                           prepare_images(design, inputs), backend=backend)
    return ref, dut


def _assert_identical(ref, dut):
    for name, image in ref.memories.items():
        assert image.words() == dut.memories[name].words(), name
    for name, signal in ref.sim.signals.items():
        assert signal.value == dut.sim.signals[name].value, name
    assert ref.controller.state == dut.controller.state
    assert ref.controller.transitions == dut.controller.transitions


class TestFusion:
    def test_fdct1_actually_fuses_a_loop(self):
        """The speedup claim rests on the MAC loop really being fused —
        guard against a silent no-fusion regression."""
        _ref, dut = _build_pair()
        dut.run_to_done()
        assert isinstance(dut.sim, TracedSimulator)
        assert dut.sim.fallback_reason is None
        report = dut.sim.fusion_report()
        assert report is not None
        assert report["n_traces"] >= 1
        assert report["fused_states"] >= 2
        loops = [t for t in report["traces"] if t["kind"] == "loop"]
        assert loops, report
        # the copy-propagation pass must be pulling its weight on the
        # loop bodies (pure register-to-register stores eliminated)
        assert any(t.get("eliminated_stores", 0) > 0 for t in loops), report

    def test_run_to_done_matches_event_kernel(self):
        ref, dut = _build_pair()
        assert ref.run_to_done() == dut.run_to_done()
        _assert_identical(ref, dut)

    @pytest.mark.parametrize("name,sizes", [
        ("fdct1", {"pixels": 64}),
        ("fir", {"n_out": 16, "taps": 4}),
        ("popcount", {"n_words": 16}),
        ("threshold", {"n_pixels": 32}),
    ])
    def test_apps_bit_identical(self, name, sizes):
        ref, dut = _build_pair(name, **sizes)
        assert ref.run_to_done() == dut.run_to_done()
        _assert_identical(ref, dut)

    @pytest.mark.parametrize("budget", [1, 2, 7, 25, 100, 173])
    def test_partial_run_stops_on_trace_boundaries_correctly(self, budget):
        """run_cycles(N) must land on the same state/signal values as
        the event kernel even when N expires mid-trace: fused loops may
        only run whole trips that fit the remaining budget."""
        ref, dut = _build_pair()
        ref.sim.run_cycles(budget)
        dut.sim.run_cycles(budget)
        assert ref.controller.state == dut.controller.state, budget
        for name, signal in ref.sim.signals.items():
            assert signal.value == dut.sim.signals[name].value, \
                (budget, name)

    def test_repeat_run_is_idempotent(self):
        ref, dut = _build_pair()
        ref.run_to_done()
        dut.run_to_done()
        assert ref.run_to_done() == 0
        assert dut.run_to_done() == 0
        _assert_identical(ref, dut)

    def test_resume_after_partial_run(self):
        """Interleaving partial runs and run_to_done crosses trace
        entry/exit sync paths repeatedly; totals must still agree."""
        ref, dut = _build_pair()
        ref.sim.run_cycles(40)
        dut.sim.run_cycles(40)
        assert ref.run_to_done() == dut.run_to_done()
        _assert_identical(ref, dut)


class TestCoverage:
    def test_coverage_survives_fusion(self):
        """enable_coverage must regenerate fused code with transition
        tallies compiled in — not fall back, not drop tallies."""
        ref, dut = _build_pair()
        dut.sim.enable_coverage()
        assert ref.run_to_done() == dut.run_to_done()
        assert dut.sim.fallback_reason is None
        assert dut.sim.fusion_report()["n_traces"] >= 1
        _assert_identical(ref, dut)
        # per-transition tallies must match the event controller's
        # actual edge count
        assert sum(dut.sim.transition_visits.values()) == \
            ref.controller.transitions
        assert all(count > 0
                   for count in dut.sim.transition_visits.values())

    def test_coverage_toggle_regenerates_program(self):
        _ref, dut = _build_pair()
        dut.run_to_done()
        plain = dut.sim._program
        assert plain is not None
        dut.sim.enable_coverage()
        assert dut.sim._program is None  # regenerated on next run


class TestFallbacks:
    def test_no_controller_falls_back_to_event_kernel(self):
        sim = TracedSimulator()
        q = build_accumulator(sim)
        sim.run_cycles(37)
        assert q.value == 37
        assert sim.fallback_reason is not None

    def test_loopless_design_still_runs_like_compiled(self):
        """A straight-line design (no FSM loop to fuse) must behave
        exactly like the compiled kernel: correct results, and any
        fused linear chain is pure optimisation."""
        from repro import MemorySpec, compile_function
        from repro.core import prepare_images, verify_design

        def straight(a_in, b_out):
            x = a_in[0] + 3
            y = x * 5
            b_out[0] = y - a_in[1]

        design = compile_function(
            straight,
            arrays={"a_in": MemorySpec(16, 2, role="input"),
                    "b_out": MemorySpec(16, 2, role="output")})
        inputs = {"a_in": [9, 4]}
        event = verify_design(design, straight, inputs, backend="event")
        traced = verify_design(design, straight, inputs, backend="traced")
        assert event.passed and traced.passed
        assert event.cycles == traced.cycles

    def test_elaboration_after_compile_invalidates_program(self):
        _ref, dut = _build_pair()
        dut.run_to_done()
        assert dut.sim._program is not None
        dut.sim.signal("late_addition", 4)
        assert dut.sim._program is None


class TestFactory:
    def test_create_simulator_traced(self):
        sim = create_simulator("traced")
        assert type(sim) is TracedSimulator
        assert isinstance(sim, CompiledSimulator)
