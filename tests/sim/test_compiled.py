"""The compiled kernel: fast path, fallbacks, stats, exit invariants."""

import re

import pytest

from repro.apps import suite_case
from repro.inject.hooks import KernelFaultSpec
from repro.sim import (CompiledSimulator, Probe, Simulator,
                       create_simulator)
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
        signals = dut.sim._facts.tracked  # what the kernel binds as _S
        assert len(signals) == tracked + 1 and signals[tracked] is late
        # the kernel loads and stores one more tracked signal than
        # before: a call that runs no cycle reads the added signal once
        # and writes it back once (a kernel with too few or too many
        # locals fails to unpack the signal list)
        spy = _ValueSpy(late.value)
        signals[tracked] = spy
        try:
            program.runner(0, 0, program.empty_stop,
                           [0] * program.n_states, None, [0, 0, 0])
        finally:
            signals[tracked] = late
        assert (spy.reads, spy.writes) == (1, 1)

    def test_probe_between_fast_path_calls_falls_back(self, monkeypatch):
        """The watcher walk is skipped while no watcher was added since
        a clean call, so a probe attached between two calls must still
        make the next calls fall back, and a detached probe must let
        the kernel run again."""
        ref, dut = _build_pair()
        kernel_calls = []
        execute = CompiledSimulator._execute

        def counting(sim, *args, **kwargs):
            kernel_calls.append(sim)
            return execute(sim, *args, **kwargs)

        monkeypatch.setattr(CompiledSimulator, "_execute", counting)
        for each in (ref, dut):
            each.sim.run_cycles(10)
        assert len(kernel_calls) == 1
        registers = [register.q.name
                     for register in dut.sim._design_facts().registers]
        probes = {each: [Probe(each.sim, each.sim.get_signal(name))
                         for name in registers]
                  for each in (ref, dut)}
        for cycles in (12, 8):
            for each in (ref, dut):
                each.sim.run_cycles(cycles)
        assert len(kernel_calls) == 1
        assert [probe.samples for probe in probes[dut]] == \
            [probe.samples for probe in probes[ref]]
        assert sum(probe.change_count for probe in probes[dut]) > 0
        for each in (ref, dut):
            for probe in probes[each]:
                probe.detach()
            each.sim.run_cycles(15)
        assert len(kernel_calls) == 2
        assert dut.controller.state == ref.controller.state
        for name, signal in ref.sim.signals.items():
            assert signal.value == dut.sim.signals[name].value, name


class _ValueSpy:
    """Stands in for a signal and counts the kernel's reads and writes."""

    def __init__(self, value):
        self._value = value
        self.reads = 0
        self.writes = 0

    @property
    def value(self):
        self.reads += 1
        return self._value

    @value.setter
    def value(self, new):
        self.writes += 1
        self._value = new


class TestKernelShape:
    PER_SIGNAL = re.compile(r"_S\[\d+\]")

    @pytest.mark.parametrize("backend, fault, moves", [
        ("compiled", None, 1), ("traced", None, 1),
        ("compiled", "stuck", 1), ("traced", "flip", 2),
    ], ids=["generic", "fused", "stuck", "flip"])
    def test_no_per_signal_load_or_store(self, backend, fault, moves):
        """Kernel entry, exit and a flip's spill and reload each move
        every tracked local in one statement."""
        _, dut = _build_pair("fdct1", backend=backend, pixels=64)
        sim = dut.sim
        sim.promote_after = 0  # a fault-free traced kernel starts fused
        if fault is not None:
            facts = sim._design_facts()
            sim.instrument(fault=KernelFaultSpec(
                fault, facts.registers[0].q.name, state=facts.names[1],
                or_mask=1, xor_mask=1, hi=8))
        program = sim._ensure_program()
        assert program is not None, sim.fallback_reason
        fused = backend == "traced" and fault is None
        assert program.kind == ("traced" if fused else "compiled")
        if fused:
            assert program.fusion["traces"]
        source = program.source
        assert self.PER_SIGNAL.search(source) is None
        assert source.count("[_x.value for _x in _S]") == moves
        assert source.count("_x.value = _v") == moves


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
