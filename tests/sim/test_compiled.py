"""The compiled kernel: fast path, fallbacks, stats, exit invariants."""

import pytest

from repro.apps import suite_case
from repro.sim import CompiledSimulator, Simulator, create_simulator
from repro.translate import build_simulation

from tests.sim.test_kernel import build_accumulator


def _build_pair(name="threshold", backend="compiled", fsm_mode="generated",
                **sizes):
    """Elaborate one app twice: event reference + chosen backend."""
    sizes = sizes or {"n_pixels": 32}
    case = suite_case(name, **sizes)
    design = case.compile()
    config = design.configurations[0]
    from repro.core import prepare_images

    inputs = case.inputs(0)
    ref = build_simulation(config.datapath, config.fsm,
                           prepare_images(design, inputs),
                           fsm_mode=fsm_mode)
    dut = build_simulation(config.datapath, config.fsm,
                           prepare_images(design, inputs),
                           fsm_mode=fsm_mode, backend=backend)
    return ref, dut


class TestFastPath:
    def test_run_to_done_matches_event_kernel(self):
        ref, dut = _build_pair()
        cycles_ref = ref.run_to_done()
        cycles_dut = dut.run_to_done()
        assert isinstance(dut.sim, CompiledSimulator)
        assert dut.sim.fallback_reason is None
        assert dut.sim._program is not None
        assert cycles_ref == cycles_dut
        for name, image in ref.memories.items():
            assert image.words() == dut.memories[name].words(), name
        # every signal, not just memories, must agree post-run
        for name, signal in ref.sim.signals.items():
            assert signal.value == dut.sim.signals[name].value, name
        assert ref.controller.state == dut.controller.state
        assert ref.controller.transitions == dut.controller.transitions

    def test_interpreted_fsm_mode_also_compiles(self):
        ref, dut = _build_pair(fsm_mode="interpreted")
        assert ref.run_to_done() == dut.run_to_done()
        assert dut.sim.fallback_reason is None
        for name, image in ref.memories.items():
            assert image.words() == dut.memories[name].words(), name

    def test_stats_aggregate_per_wave(self):
        ref, dut = _build_pair()
        ref.run_to_done()
        dut.run_to_done()
        assert dut.sim.stats.cycles == ref.sim.stats.cycles
        # specialization eliminates dead work, so the compiled count is
        # a lower, but still meaningful (nonzero, cycle-proportional),
        # aggregate than the per-event count
        assert 0 < dut.sim.stats.evaluations <= ref.sim.stats.evaluations
        assert 0 < dut.sim.stats.edge_dispatches
        assert dut.sim.now == ref.sim.now

    def test_run_cycles_fast_path(self):
        ref, dut = _build_pair()
        ref.sim.run_cycles(25)
        dut.sim.run_cycles(25)
        assert ref.controller.state == dut.controller.state
        for name, signal in ref.sim.signals.items():
            assert signal.value == dut.sim.signals[name].value, name

    def test_repeat_run_is_idempotent(self):
        """A second run_to_done on a finished design must return 0 and
        change nothing, exactly like the event kernel."""
        ref, dut = _build_pair()
        ref.run_to_done()
        dut.run_to_done()
        assert ref.run_to_done() == 0
        assert dut.run_to_done() == 0
        assert ref.controller.state == dut.controller.state


class TestFallbacks:
    def test_no_controller_falls_back_to_event_kernel(self):
        """Hand-built designs (no FSM) still work through the base API."""
        sim = CompiledSimulator()
        q = build_accumulator(sim)
        sim.run_cycles(37)
        assert q.value == 37
        assert sim.fallback_reason is not None
        assert "controller" in sim.fallback_reason

    def test_vcd_trace_disables_fast_path_but_stays_correct(self, tmp_path):
        ref, dut = _build_pair()
        cycles_ref = ref.run_to_done()
        with dut.trace(tmp_path / "dut.vcd"):
            cycles_dut = dut.run_to_done()
        assert cycles_ref == cycles_dut
        for name, image in ref.memories.items():
            assert image.words() == dut.memories[name].words(), name
        assert (tmp_path / "dut.vcd").exists()

    def test_start_signal_handshake_falls_back(self):
        case = suite_case("threshold", n_pixels=32)
        design = case.compile()
        config = design.configurations[0]
        from repro.core import prepare_images

        sim = CompiledSimulator(name="hs")
        start = sim.signal("start", 1)
        built = build_simulation(config.datapath, config.fsm,
                                 prepare_images(design, case.inputs(0)),
                                 sim=sim, start_signal=start)
        sim.drive(start, 1)
        built.run_to_done()
        assert sim.fallback_reason is not None
        assert "handshake" in sim.fallback_reason

    def test_elaboration_after_compile_invalidates_program(self):
        ref, dut = _build_pair()
        dut.run_to_done()
        assert dut.sim._program is not None
        tracked = len(dut.sim._design_facts().tracked)
        late = dut.sim.signal("late_addition", 4)
        assert dut.sim._program is None
        # the memoized design walk goes too: the next program is built
        # from a fresh walk that sees the added signal
        assert dut.sim._facts is None
        program = dut.sim._ensure_program()
        assert program is not None
        assert late in dut.sim._facts.tracked
        # the kernel writes back one more tracked signal than before
        assert f"_S[{tracked}].value = v{tracked}" in program.source
        assert f"_S[{tracked + 1}]" not in program.source


class TestFactory:
    def test_create_simulator_names(self):
        assert type(create_simulator("event")) is Simulator
        assert type(create_simulator("compiled")) is CompiledSimulator

    def test_create_simulator_unknown(self):
        with pytest.raises(ValueError, match="unknown simulation backend"):
            create_simulator("verilator")

    def test_build_simulation_rejects_unknown_backend(self):
        case = suite_case("threshold", n_pixels=32)
        design = case.compile()
        config = design.configurations[0]
        with pytest.raises(ValueError, match="unknown simulation backend"):
            build_simulation(config.datapath, config.fsm, backend="nope")
