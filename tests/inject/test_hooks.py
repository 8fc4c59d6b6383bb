"""Tests for fault attachment: kernel specs, watchers, cycle hooks."""

from dataclasses import replace

import pytest

from repro.apps import suite_case
from repro.core import prepare_images
from repro.core.kernelcache import KernelCache, set_default_cache
from repro.inject import (FaultDescriptor, FaultloadGenerator, attach_fault,
                          kernel_spec, output_adjacent_nets, run_injection)
from repro.rtg import ReconfigurationContext, RtgExecutor


@pytest.fixture(scope="module")
def case():
    return suite_case("threshold", n_pixels=32)


@pytest.fixture(scope="module")
def design(case):
    return case.compile()


@pytest.fixture
def fresh_cache():
    """A memory-only kernel cache installed as the default for one
    test, so its kernel entries can be counted."""
    cache = KernelCache(None)
    previous = set_default_cache(cache)
    yield cache
    set_default_cache(previous)


def _kernel_entries(cache):
    return sum(1 for kind, _ in cache._memory if kind == "kernel")


def _assert_kernel_matches_event(design, func, faults, budget):
    """Each fault arms the compiled kernel and classifies exactly as
    on the event kernel: same verdict, same cycle count."""
    for fault in faults:
        compiled = run_injection(design, func, fault, backend="compiled",
                                 max_cycles=budget)
        event = run_injection(design, func, fault, backend="event",
                              max_cycles=budget)
        assert compiled.mechanism == "kernel", fault.describe()
        assert (compiled.verdict, compiled.cycles) \
            == (event.verdict, event.cycles), fault.describe()


def _elaborate(design, backend):
    """Run the design once under *backend*, returning the live
    SimDesign captured at configure time (still attachable after)."""
    images = prepare_images(design)
    context = ReconfigurationContext.from_rtg(design.rtg, initial=images)
    executor = RtgExecutor(design.rtg, context, backend=backend)
    seen = []
    executor.on_configure = lambda d: seen.append(d)
    executor.run()
    assert seen
    return seen[0]


class TestValidation:
    def test_unknown_signal_rejected(self, design):
        sim_design = _elaborate(design, "event")
        fault = FaultDescriptor(fault_id="x", kind="stuck",
                                target="no_such_net")
        with pytest.raises(ValueError, match="no signal"):
            attach_fault(sim_design, fault)

    def test_bit_out_of_range_rejected(self, design):
        sim_design = _elaborate(design, "event")
        name, signal = next(iter(sim_design.sim._signals.items()))
        fault = FaultDescriptor(fault_id="x", kind="stuck", target=name,
                                bit=signal.width)
        with pytest.raises(ValueError, match="out of range"):
            attach_fault(sim_design, fault)

    def test_unknown_fsm_state_rejected(self, design):
        sim_design = _elaborate(design, "event")
        name = next(iter(sim_design.sim._signals))
        fault = FaultDescriptor(fault_id="x", kind="reg_flip", target=name,
                                state="NO_SUCH_STATE")
        with pytest.raises(ValueError, match="no FSM state"):
            attach_fault(sim_design, fault)

    def test_mem_flip_rejected_by_attach(self, design):
        sim_design = _elaborate(design, "event")
        fault = FaultDescriptor(fault_id="x", kind="mem_flip", target="img")
        with pytest.raises(ValueError, match="mem_flip"):
            attach_fault(sim_design, fault)

    def test_kernel_spec_rejects_mem_flip(self, design):
        sim_design = _elaborate(design, "event")
        signal = next(iter(sim_design.sim._signals.values()))
        fault = FaultDescriptor(fault_id="x", kind="mem_flip",
                                target=signal.name)
        with pytest.raises(ValueError, match="not signal faults"):
            kernel_spec(fault, signal)

    def test_attach_error_classifies_as_crash(self, design, case):
        # through the campaign path an unattachable descriptor is a
        # crash verdict, not an unhandled exception
        fault = FaultDescriptor(fault_id="x", kind="stuck",
                                target="no_such_net")
        result = run_injection(design, case.func, fault,
                               backend="event", max_cycles=10_000)
        assert result.verdict == "crash"
        assert "no signal" in result.note


class TestMechanisms:
    def test_compiled_backend_uses_the_kernel(self, design, case):
        target = output_adjacent_nets(design)[0]
        fault = FaultDescriptor(fault_id="k", kind="stuck", target=target,
                                bit=0, stuck_value=0)
        result = run_injection(design, case.func, fault,
                               backend="compiled", max_cycles=100_000)
        assert result.mechanism == "kernel"

    def test_event_backend_uses_a_watcher(self, design, case):
        target = output_adjacent_nets(design)[0]
        fault = FaultDescriptor(fault_id="w", kind="stuck", target=target,
                                bit=0, stuck_value=0)
        result = run_injection(design, case.func, fault,
                               backend="event", max_cycles=100_000)
        assert result.mechanism == "watcher"

    def test_detach_removes_the_watcher(self, design):
        sim_design = _elaborate(design, "event")
        name, signal = next(iter(sim_design.sim._signals.items()))
        fault = FaultDescriptor(fault_id="d", kind="stuck", target=name,
                                bit=0, stuck_value=1)
        before = list(signal.watchers)
        handle = attach_fault(sim_design, fault)
        assert handle.mechanism == "watcher"
        assert len(signal.watchers) == len(before) + 1
        handle.detach()
        assert signal.watchers == before

    def test_detach_removes_the_cycle_hook(self, design):
        sim_design = _elaborate(design, "event")
        name = next(iter(sim_design.sim._signals))
        state = next(iter(sim_design.fsm.states))
        fault = FaultDescriptor(fault_id="d", kind="reg_flip", target=name,
                                bit=0, state=state, cycle_lo=1, cycle_hi=4)
        before = len(sim_design.sim._cycle_hooks)
        with attach_fault(sim_design, fault) as handle:
            assert handle.mechanism == "cycle-hook"
            assert len(sim_design.sim._cycle_hooks) == before + 1
        assert len(sim_design.sim._cycle_hooks) == before

    @pytest.mark.parametrize("backend", ["event", "compiled"])
    def test_fired_reports_whether_a_flip_struck(self, design, backend):
        """``FaultHandle.fired`` reads the kernel's one-shot latch or the
        cycle hook's flag; a stuck-at is in force from the start."""
        from repro.inject.campaign import _Testbench

        bench = _Testbench(design, None, backend=backend,
                           fsm_mode="generated")
        sim_design = bench.design
        name = next(name for name, _ in FaultloadGenerator(design)
                    .space.registers)
        first = sim_design.controller.state
        mechanism = "kernel" if backend == "compiled" else "cycle-hook"
        for lo, struck in ((1, True), (10**6, False)):
            bench.rewind()
            fault = FaultDescriptor(fault_id="f", kind="reg_flip",
                                    target=name, bit=0, state=first,
                                    cycle_lo=lo, cycle_hi=lo + 2)
            with attach_fault(sim_design, fault) as handle:
                assert handle.mechanism == mechanism
                assert not handle.fired
                sim_design.run_to_done(max_cycles=100_000)
                assert handle.fired is struck
        bench.rewind()
        stuck = FaultDescriptor(fault_id="s", kind="stuck", target=name)
        with attach_fault(sim_design, stuck) as handle:
            assert handle.fired

    def test_fallbacks_survive_a_warm_cache(self, design, case,
                                            fresh_cache):
        """The shared stuck and flip kernels are bound to each fault at
        load time; a cached kernel must refuse a target outside the
        compiled subset, so the event-kernel mechanisms still apply."""
        baseline = run_injection(design, case.func, None,
                                 backend="compiled")
        budget = max(baseline.cycles * 4, 1000)
        faults = FaultloadGenerator(design, seed=11,
                                    max_cycle=baseline.cycles) \
            .generate(8, kinds=("stuck", "reg_flip"))
        flip = next(fault for fault in faults if fault.kind == "reg_flip")
        for kind in ("stuck", "reg_flip"):
            warm = next(fault for fault in faults if fault.kind == kind)
            result = run_injection(design, case.func, warm,
                                   backend="compiled", max_cycles=budget)
            assert result.mechanism == "kernel"
        assert _kernel_entries(fresh_cache) == 3

        done = FaultDescriptor(fault_id="done-sa1", kind="stuck",
                               target="done", bit=0, stuck_value=1)
        any_state = replace(flip, fault_id="any-state", state=None)
        for fault, mechanism in ((done, "watcher"),
                                 (any_state, "cycle-hook")):
            compiled = run_injection(design, case.func, fault,
                                     backend="compiled", max_cycles=budget)
            event = run_injection(design, case.func, fault,
                                  backend="event", max_cycles=budget)
            assert compiled.mechanism == mechanism, fault.describe()
            assert compiled.verdict == event.verdict, fault.describe()
            assert compiled.cycles == event.cycles, fault.describe()
        assert _kernel_entries(fresh_cache) == 3


class TestEquivalence:
    def test_event_and_compiled_agree_on_signal_faults(self, design, case):
        """The two mechanisms must be observationally identical: same
        fault, same stimulus => same verdict and same cycle count."""
        baseline = run_injection(design, case.func, None,
                                 backend="compiled")
        faults = FaultloadGenerator(design, seed=11,
                                    max_cycle=baseline.cycles) \
            .generate(6, kinds=("stuck", "reg_flip"))
        budget = max(baseline.cycles * 4, 1000)
        for fault in faults:
            compiled = run_injection(design, case.func, fault,
                                     backend="compiled", max_cycles=budget)
            event = run_injection(design, case.func, fault,
                                  backend="event", max_cycles=budget)
            assert compiled.verdict == event.verdict, fault.describe()
            if compiled.verdict in ("masked", "sdc"):
                assert compiled.cycles == event.cycles, fault.describe()

    @pytest.mark.xfail(strict=True, reason=(
        "known defect: the kernel forces a stuck-at target on entry, "
        "after the pre-run settle, so the first edge reads the target's "
        "fanout unforced; the event watcher re-settles it at attach"))
    def test_stuck_constant_net_reaches_the_first_edge(self, design,
                                                       case):
        # n_k3_y is threshold's constant 0 (loop start and output
        # value); forced to 32 the loop must not run at all
        fault = FaultDescriptor(fault_id="k3-sa1", kind="stuck",
                                target="n_k3_y", bit=5, stuck_value=1)
        compiled = run_injection(design, case.func, fault,
                                 backend="compiled", max_cycles=1000)
        event = run_injection(design, case.func, fault, backend="event",
                              max_cycles=1000)
        assert compiled.mechanism == "kernel"
        assert (compiled.verdict, compiled.cycles) \
            == (event.verdict, event.cycles)

    def test_flip_kernel_binds_each_pinned_state(self, design, case,
                                                 fresh_cache):
        """One flip kernel serves every pinned state.  Register upsets
        in this small design change the outcome often enough that a
        kernel bound to the wrong state or window disagrees with the
        event kernel's cycle hook."""
        baseline = run_injection(design, case.func, None,
                                 backend="compiled")
        faults = FaultloadGenerator(design, seed=11,
                                    max_cycle=baseline.cycles) \
            .generate(40, kinds=("reg_flip",))
        assert len({fault.state for fault in faults}) >= 5
        _assert_kernel_matches_event(design, case.func, faults,
                                     max(baseline.cycles * 4, 1000))
        assert _kernel_entries(fresh_cache) == 2  # fault-free + flip

    def test_one_kernel_per_fault_kind(self, fresh_cache):
        """Every stuck-at of a design shares one kernel and every
        register upset another, whichever net and FSM state they
        target; each fault still classifies exactly as on the event
        kernel."""
        fdct1 = suite_case("fdct1", pixels=64)
        design = fdct1.compile()
        baseline = run_injection(design, fdct1.func, None,
                                 backend="compiled")
        faults = FaultloadGenerator(design, seed=11,
                                    max_cycle=baseline.cycles) \
            .generate(64, kinds=("stuck", "reg_flip"))
        assert len({fault.target for fault in faults}) >= 20
        assert len({fault.state for fault in faults
                    if fault.kind == "reg_flip"}) >= 5
        _assert_kernel_matches_event(design, fdct1.func, faults,
                                     max(baseline.cycles * 4, 1000))
        # fault-free, stuck and flip (the FSM module is an "fsm" entry)
        assert _kernel_entries(fresh_cache) == 3
