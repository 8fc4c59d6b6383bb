"""Tests for the campaign runner: classification, replay, pooling."""

import itertools
import multiprocessing
import os
import random
from collections import defaultdict
from dataclasses import replace

import pytest

import repro.sim.compiled as compiled_mod
from repro.apps import CASE_BUILDERS, suite_case
from repro.core import verify_design
from repro.core.kernelcache import KernelCache, set_default_cache
from repro.inject import (FaultDescriptor, FaultloadGenerator,
                          enumerate_mutants, run_campaign, run_injection)
from repro.inject import campaign as campaign_mod
from repro.inject.faultload import MUTATION_KINDS
from repro.obs.ledger import Ledger
from repro.translate.to_sim import SimDesign

fork_only = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="campaign pool requires the fork start method")

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

# stuck-at-0 on this register output deterministically prevents fdct1
# from ever asserting done, on both the compiled and the event kernel —
# the stable hang anchor for classification tests
HANG_FAULT = FaultDescriptor(fault_id="hang-anchor", kind="stuck",
                             target="n_mux_c_y", bit=0, stuck_value=0)


@pytest.fixture(scope="module")
def threshold():
    case = suite_case("threshold", n_pixels=32)
    return case, case.compile(), case.inputs(0)


@pytest.fixture(scope="module")
def fdct1():
    case = suite_case("fdct1", **SMALL_SIZES["fdct1"])
    return case, case.compile(), case.inputs(0)


def _row(result):
    return (result.fault.fault_id, result.verdict, result.cycles,
            result.mechanism, result.note)


@pytest.mark.parametrize("name", sorted(CASE_BUILDERS))
def test_empty_faultload_reproduces_golden(name):
    """The acceptance gate: with zero faults armed, every app's
    hardware run is bit-exact against the golden software execution
    (every memory compared, not just outputs).  Multi-configuration
    designs sit outside the injection layer; they must be refused with
    the documented error, and their golden equivalence is checked
    through the ordinary verification path instead."""
    case = suite_case(name, **SMALL_SIZES[name])
    design = case.compile()
    if design.multi_configuration:
        with pytest.raises(ValueError, match="single-configuration"):
            run_campaign(design, case.func, [], case.inputs(0), app=name)
        result = verify_design(design, case.func, case.inputs(0),
                               backend="compiled")
        assert result.passed, result.summary()
        return
    report = run_campaign(design, case.func, [], case.inputs(0),
                          app=name, backend="compiled")
    assert report.baseline is not None
    assert report.baseline.verdict == "masked"
    assert report.baseline.note == ""
    assert report.results == []
    assert report.cycle_budget >= 1000
    assert report.planned == 0


class TestClassification:
    def test_hang_is_classified(self, fdct1):
        case, design, inputs = fdct1
        report = run_campaign(design, case.func, [HANG_FAULT], inputs,
                              backend="compiled")
        assert [r.verdict for r in report.results] == ["hang"]
        assert report.hang_reproducers == [HANG_FAULT]
        assert report.results[0].cycles == report.cycle_budget

    def test_hang_on_event_kernel_too(self, fdct1):
        case, design, inputs = fdct1
        result = run_injection(design, case.func, HANG_FAULT, inputs,
                               backend="event", max_cycles=5000)
        assert result.verdict == "hang"
        assert result.mechanism == "watcher"

    def test_mem_flip_on_output_memory_is_sdc(self, threshold):
        case, design, inputs = threshold
        name = next(name for name, spec in design.arrays.items()
                    if spec.role == "output")
        fault = FaultDescriptor(fault_id="m", kind="mem_flip", target=name,
                                bit=0, word=0)
        # the flip lands pre-run, so the verdict depends on whether the
        # design overwrites that word; either way it must be a clean
        # classification delivered through the image mechanism
        result = run_injection(design, case.func, fault, inputs,
                               backend="compiled")
        assert result.verdict in ("masked", "sdc")
        assert result.mechanism == "image"

    @pytest.mark.parametrize("backend", ["event", "compiled", "traced"])
    def test_mem_flip_under_a_read_port_is_read(self, threshold, backend):
        """A rewound testbench's read port already holds the word it
        addresses, and a ``mem_flip`` is not followed by a re-settle:
        the image's write watchers must re-drive the port, so the run
        reads the flipped word as an elaboration on it would."""
        case, design, inputs = threshold
        # pixel 0 is under the input port when the run starts, and its
        # bit 7 decides which side of the 128 cut it falls on
        fault = FaultDescriptor(fault_id="m", kind="mem_flip",
                                target="pixels_in", bit=7, word=0)
        bench = campaign_mod._Testbench(design, inputs, backend=backend,
                                        fsm_mode="generated")
        result = run_injection(design, case.func, fault, inputs,
                               backend=backend, testbench=bench)
        flipped = {name: image.copy() for name, image in inputs.items()}
        flipped["pixels_in"].write(0, flipped["pixels_in"].read(0) ^ 0x80)
        reference = campaign_mod._Testbench(design, flipped, backend=backend,
                                            fsm_mode="generated")
        cycles = reference.record(5000)
        assert result.verdict == "sdc"
        assert result.cycles == cycles
        assert bench.context.memory("pixels_out").words() == \
            reference.context.memory("pixels_out").words()

    def test_replayed_faultload_yields_identical_verdicts(self, threshold):
        """Acceptance: a seeded faultload is deterministic end-to-end —
        running it twice gives verdict-identical campaigns."""
        case, design, inputs = threshold
        baseline = run_injection(design, case.func, None, inputs,
                                 backend="compiled")
        faults = FaultloadGenerator(design, seed=1,
                                    max_cycle=baseline.cycles).generate(10)
        first = run_campaign(design, case.func, faults, inputs,
                             backend="compiled")
        second = run_campaign(design, case.func, faults, inputs,
                              backend="compiled")
        def as_pairs(report):
            return [(r.fault.fault_id, r.verdict, r.cycles)
                    for r in report.results]

        assert as_pairs(first) == as_pairs(second)

    def test_coverage_table_counts_match_tally(self, threshold):
        case, design, inputs = threshold
        baseline = run_injection(design, case.func, None, inputs,
                                 backend="compiled")
        faults = FaultloadGenerator(design, seed=2,
                                    max_cycle=baseline.cycles).generate(9)
        report = run_campaign(design, case.func, faults, inputs,
                              backend="compiled")
        table = report.coverage_table()
        tally = report.tally()
        assert sum(tally.values()) == len(report.results) == 9
        for verdict in tally:
            assert tally[verdict] == sum(row[verdict]
                                         for row in table.values())


class TestPool:
    @fork_only
    def test_pool_verdicts_match_serial(self, threshold):
        case, design, inputs = threshold
        baseline = run_injection(design, case.func, None, inputs,
                                 backend="compiled")
        faults = FaultloadGenerator(design, seed=4,
                                    max_cycle=baseline.cycles).generate(8)
        serial = run_campaign(design, case.func, faults, inputs,
                              backend="compiled", jobs=1)
        pooled = run_campaign(design, case.func, faults, inputs,
                              backend="compiled", jobs=2)
        # the serial run warms the shared stuck/flip kernels, which the
        # forked workers inherit and must bind to each fault's own target;
        # they also inherit the fault-free checkpoints
        assert [_row(r) for r in serial.results] \
            == [_row(r) for r in pooled.results]

    @fork_only
    def test_malformed_faults_classify_alike_in_both_modes(self, threshold):
        """A fault that cannot apply is a clean crash verdict whether
        the campaign runs serially or over the pool: a bad memory name
        classifies exactly like a bad net name, with no harness
        traceback."""
        case, design, inputs = threshold
        faults = [FaultDescriptor(fault_id="bad-mem", kind="mem_flip",
                                  target="nope"),
                  FaultDescriptor(fault_id="bad-net", kind="stuck",
                                  target="nope")]

        def rows(report):
            return [(r.fault.fault_id, r.verdict, r.note)
                    for r in report.results]

        serial = run_campaign(design, case.func, faults, inputs,
                              backend="compiled", jobs=1)
        pooled = run_campaign(design, case.func, faults, inputs,
                              backend="compiled", jobs=2)
        assert rows(serial) == rows(pooled)
        assert [r.verdict for r in serial.results] == ["crash", "crash"]
        assert "no memory named 'nope'" in serial.results[0].note
        assert "has no signal 'nope'" in serial.results[1].note
        assert not any("Traceback" in r.note
                       for r in serial.results + pooled.results)

    def test_worker_never_raises(self, threshold, monkeypatch):
        """An error from outside run_injection's own handler comes back
        as a crash verdict carrying the traceback, in both modes, not
        an exception that would stop the campaign or poison the pool."""
        case, design, inputs = threshold
        original = campaign_mod.run_injection

        def broken(design, func, fault, *args, **kwargs):
            if fault is not None and fault.fault_id == "boom":
                raise KeyError("harness bug")
            return original(design, func, fault, *args, **kwargs)

        monkeypatch.setattr(campaign_mod, "run_injection", broken)
        faults = [FaultDescriptor(fault_id=fault_id, kind="mem_flip",
                                  target=next(iter(design.arrays)),
                                  bit=0, word=0)
                  for fault_id in ("ok", "boom")]
        for jobs in (1, 2):
            report = run_campaign(design, case.func, faults, inputs,
                                  backend="compiled", jobs=jobs)
            assert [r.fault.fault_id for r in report.results] \
                == ["ok", "boom"]
            assert report.results[0].verdict in ("masked", "sdc")
            crash = report.results[1]
            assert crash.verdict == "crash"
            assert "KeyError: 'harness bug'" in crash.note
            assert "Traceback" in crash.note

    def test_jobs_must_be_positive(self, threshold):
        case, design, inputs = threshold
        with pytest.raises(ValueError, match="jobs"):
            run_campaign(design, case.func, [], inputs, jobs=0)


class TestElaboration:
    def test_campaign_elaborates_once(self, fdct1, monkeypatch):
        case, design, inputs = fdct1
        baseline = run_injection(design, case.func, None, inputs,
                                 backend="compiled")
        faults = FaultloadGenerator(design, seed=8,
                                    max_cycle=baseline.cycles).generate(40)
        built = []
        original = SimDesign.__init__

        def counting(self, *args, **kwargs):
            built.append(self)
            original(self, *args, **kwargs)

        monkeypatch.setattr(SimDesign, "__init__", counting)
        report = run_campaign(design, case.func, faults, inputs,
                              backend="compiled", jobs=1)
        assert len(report.results) == 40
        assert len(built) == 1

    def test_rewind_restores_the_post_elaboration_state(self, fdct1):
        """After injections through every mechanism, a rewound
        testbench is indistinguishable from a freshly built one."""
        case, design, inputs = fdct1

        def state(bench):
            sim, controller = bench.design.sim, bench.design.controller
            return (
                {name: signal.value
                 for name, signal in sim._signals.items()},
                (controller.state, controller.transitions,
                 controller._idle, controller.invocations),
                sim.stats.as_dict(), sim.now,
                [(domain.name, domain.cycles,
                  sorted(component.name for component in domain._armed))
                 for domain in sim._domains.values()],
                {name: image.words()
                 for name, image in bench.design.memories.items()},
                list(sim._worklist), list(sim._staged))

        def bench():
            return campaign_mod._Testbench(design, inputs,
                                           backend="compiled",
                                           fsm_mode="generated")

        fresh, used = bench(), bench()
        output = next(name for name, spec in design.arrays.items()
                      if spec.role == "output")
        faults = [
            None, HANG_FAULT,
            FaultDescriptor(fault_id="done-sa1", kind="stuck",
                            target="done", bit=0, stuck_value=1),
            FaultDescriptor(fault_id="any-state", kind="reg_flip",
                            target=HANG_FAULT.target, bit=0, state=None,
                            cycle_lo=1, cycle_hi=50),
            FaultDescriptor(fault_id="m", kind="mem_flip", target=output,
                            bit=0, word=0),
        ]
        for fault in faults:
            run_injection(design, case.func, fault, inputs,
                          max_cycles=5000, testbench=used)
        used.rewind()
        assert state(used) == state(fresh)

    def test_rewound_runs_match_fresh_elaborations(self):
        """Every injection of a campaign starts from its one rewound
        elaboration; each must classify exactly as a one-off run on a
        fresh elaboration.  The faultload leads with the event-kernel
        mechanisms (and, on fdct1, a hang), so state an event-kernel,
        hung or crashed run leaves behind would show up in the kernel
        runs that follow it."""
        verdicts, mechanisms = set(), set()
        for name in sorted(CASE_BUILDERS):
            case = suite_case(name, **SMALL_SIZES[name])
            design = case.compile()
            if design.multi_configuration:
                continue
            inputs = case.inputs(0)
            baseline = run_injection(design, case.func, None, inputs,
                                     backend="compiled")
            drawn = FaultloadGenerator(design, seed=13,
                                       max_cycle=baseline.cycles) \
                .generate(40)
            flip = next(fault for fault in drawn
                        if fault.kind == "reg_flip")
            lead = [FaultDescriptor(fault_id="done-sa1", kind="stuck",
                                    target="done", bit=0, stuck_value=1),
                    replace(flip, fault_id="any-state", state=None)]
            if name == "fdct1":
                lead.append(HANG_FAULT)
            report = run_campaign(design, case.func, lead + drawn, inputs,
                                  backend="compiled", jobs=1)
            assert len(report.results) == len(lead) + len(drawn)
            for result in report.results:
                fresh = run_injection(design, case.func, result.fault,
                                      inputs, backend="compiled",
                                      max_cycles=report.cycle_budget)
                assert (result.fault.fault_id, result.verdict,
                        result.cycles, result.mechanism, result.note) \
                    == (fresh.fault.fault_id, fresh.verdict, fresh.cycles,
                        fresh.mechanism, fresh.note), \
                    f"{name}: {result.fault.describe()}"
            verdicts.update(result.verdict for result in report.results)
            mechanisms.update(result.mechanism
                              for result in report.results)
        assert {"crash", "hang"} <= verdicts
        assert mechanisms == {"kernel", "watcher", "cycle-hook", "image"}


def _pre_edge_states(design, inputs, cycles):
    """The fault-free run's FSM state before each cycle's edge, indexed
    by 1-based cycle (what a ``reg_flip``'s pinned state is matched
    against)."""
    bench = campaign_mod._Testbench(design, inputs, backend="event",
                                    fsm_mode="generated")
    sim, controller = bench.design.sim, bench.design.controller
    sim.settle()
    states = [None]
    for _ in range(cycles):
        states.append(controller.state)
        sim.step_cycle()
    return states


@pytest.fixture(scope="module")
def boundary_plan(fdct1):
    """Transient upsets placed around every checkpoint boundary of the
    fdct1 fixture: windows that open one cycle before, on and one cycle
    after a boundary, upsets that strike on their window's first cycle
    and ones that strike on its last, and windows that open only after
    ``done``.  The placed upsets are drawn until two per slot change the
    run's outcome, so a window or a checkpoint off by one cycle shows.

    Returns ``(fault-free cycles, faults)``.
    """
    case, design, inputs = fdct1
    cycles = run_injection(design, case.func, None, inputs).cycles
    states = _pre_edge_states(design, inputs, cycles)
    # no fault-free run recorded on it: every injection starts at cycle 0
    bench = campaign_mod._Testbench(design, inputs, backend="compiled",
                                    fsm_mode="generated")
    golden = campaign_mod._golden_images(design, case.func, inputs)
    registers = FaultloadGenerator(design).space.registers
    rng = random.Random(0)
    flips = []

    def strikes(fault):
        result = run_injection(design, case.func, fault, inputs,
                               golden_images=golden, testbench=bench)
        return (result.verdict, result.cycles) != ("masked", cycles)

    def place(tag, lo, hi, state):
        drawn = (FaultDescriptor(fault_id=f"{tag}-{name}", kind="reg_flip",
                                 target=name, bit=rng.randrange(width),
                                 state=state, cycle_lo=lo, cycle_hi=hi)
                 for name, width in rng.sample(registers, len(registers)))
        placed = list(itertools.islice(filter(strikes, drawn), 2))
        assert placed, f"no upset in slot {tag} changes the outcome"
        flips.extend(placed)

    stride = campaign_mod.CHECKPOINT_STRIDE
    for boundary in range(stride, cycles, stride):
        for at in (boundary - 1, boundary, boundary + 1):
            place(f"first@{at}", at, at + 8, states[at])
            # a window that holds its pinned state on its last cycle only
            lo = at - 1
            while lo > max(at - 64, 0) and states[lo] != states[at]:
                lo -= 1
            place(f"last@{at}", lo + 1, at, states[at])
    flips += [
        FaultDescriptor(fault_id="after-done", kind="reg_flip",
                        target=registers[0][0], state=states[1],
                        cycle_lo=cycles + 1, cycle_hi=cycles + 40),
        FaultDescriptor(fault_id="any-state-after-done", kind="reg_flip",
                        target=registers[0][0], state=None,
                        cycle_lo=cycles + 2, cycle_hi=cycles + 3),
    ]
    return cycles, flips


class TestCheckpoints:
    """A campaign starts each ``reg_flip`` from the fault-free
    checkpoint before its window and stops an upset that has not struck
    when its window closes; every such run must report exactly what the
    one-off run from cycle 0 reports."""

    @pytest.mark.parametrize("backend", ["event", "oblivious", "compiled",
                                         "traced"])
    def test_chunked_fault_free_run_matches_one_run(self, fdct1, backend):
        case, design, inputs = fdct1
        bench = campaign_mod._Testbench(design, inputs, backend=backend,
                                        fsm_mode="generated")
        cycles = bench.record(10_000)
        assert bench.checkpoints == list(
            range(0, cycles, campaign_mod.CHECKPOINT_STRIDE))
        whole = campaign_mod._Testbench(design, inputs, backend=backend,
                                        fsm_mode="generated")
        assert whole.design.run_to_done(max_cycles=10_000) == cycles
        assert {name: image.words()
                for name, image in bench.design.memories.items()} == \
            {name: image.words()
             for name, image in whole.design.memories.items()}

    @pytest.mark.parametrize("backend", ["compiled", "traced", "event"])
    def test_campaign_matches_one_off_runs(self, fdct1, boundary_plan,
                                           backend):
        case, design, inputs = fdct1
        cycles, placed = boundary_plan
        # two checkpoint boundaries, three windows and two slots each
        assert cycles > 2 * campaign_mod.CHECKPOINT_STRIDE
        assert len(placed) >= 2 * 3 * 2 + 2
        faults = placed + FaultloadGenerator(
            design, seed=21, max_cycle=cycles).generate(24)
        report = run_campaign(design, case.func, faults, inputs,
                              backend=backend, jobs=1)
        assert report.baseline.cycles == cycles
        assert len(report.results) == len(faults)
        for result in report.results:
            fresh = run_injection(design, case.func, result.fault, inputs,
                                  backend=backend,
                                  max_cycles=report.cycle_budget)
            assert _row(result) == _row(fresh), result.fault.describe()

    @fork_only
    def test_each_fault_kernel_is_built_in_one_worker(self, threshold,
                                                      tmp_path,
                                                      monkeypatch):
        """The pool hands the signal faults out one kind per task, so
        with two workers no fault kernel is generated twice."""
        case, design, inputs = threshold
        baseline = run_injection(design, case.func, None, inputs,
                                 backend="compiled")
        faults = FaultloadGenerator(design, seed=23,
                                    max_cycle=baseline.cycles).generate(30)
        log = tmp_path / "builds.log"
        original = compiled_mod._build_program

        def logged(sim):
            program = original(sim)
            with open(log, "a") as sink:
                sink.write(f"{os.getpid()} "
                           f"{sim.instrumentation.token}\n")
            return program

        monkeypatch.setattr(compiled_mod, "_build_program", logged)
        previous = set_default_cache(KernelCache(None))
        try:
            report = run_campaign(design, case.func, faults, inputs,
                                  backend="compiled", jobs=2)
        finally:
            set_default_cache(previous)
        assert len(report.results) == len(faults)
        builders = defaultdict(list)
        for line in log.read_text().splitlines():
            pid, _, kind = line.partition(" ")
            builders[kind].append(int(pid))
        assert builders["stuck"] and builders["flip"]
        for kind in ("stuck", "flip"):
            assert len(builders[kind]) == 1, (kind, builders)
            assert builders[kind] != [os.getpid()]

    def test_pool_batches_group_signal_faults_by_kind(self, threshold):
        case, design, inputs = threshold
        faults = FaultloadGenerator(design, seed=24,
                                    max_cycle=100).generate(60)
        pending = list(range(len(faults)))
        batches = campaign_mod._pool_batches(faults, pending, 2)
        assert sorted(index for batch in batches for index in batch) \
            == pending
        kinds = [{faults[index].kind for index in batch}
                 for batch in batches]
        assert kinds[:2] == [{"stuck"}, {"reg_flip"}]
        assert all(kind == {"mem_flip"} for kind in kinds[2:])
        assert len(kinds) > 4  # mem_flips come in small chunks
        # a kind beyond an even share of the work is split into shares
        stuck = [index for index in pending
                 if faults[index].kind == "stuck"]
        assert campaign_mod._pool_batches(faults, stuck, 2) \
            == [stuck[:10], stuck[10:]]


class TestMutants:
    """E5's compiler-bug mutants run on the same engine as hardware
    faults: an elaboration of their own, the campaign's hang budget."""

    def test_runaway_mutant_hangs_at_the_budget(self):
        # at 64 px the budget is 4x the baseline; at 32 px the
        # 1000-cycle floor would set it
        case = suite_case("threshold", n_pixels=64)
        design = case.compile()
        (mutant,) = [fault for fault in enumerate_mutants(design)
                     if (fault.kind, fault.target) == ("mux_swap", "mux_i")]
        report = run_campaign(design, case.func, [mutant], case.inputs(0),
                              backend="event")
        (result,) = report.results
        assert report.cycle_budget == 4 * report.baseline.cycles
        assert (result.verdict, result.cycles, result.mechanism) \
            == ("hang", report.cycle_budget, "design")
        assert result.seconds < 1.0

    def test_a_mutant_that_does_not_apply_is_a_crash(self, threshold):
        case, design, inputs = threshold
        ghost = FaultDescriptor("m", "cmp_op", "no_such_comparator")
        result = run_injection(design, case.func, ghost, inputs)
        assert result.verdict == "crash"
        assert result.note.startswith("KeyError")

    @fork_only
    def test_pool_rows_match_serial(self, threshold):
        case, design, inputs = threshold
        mutants = enumerate_mutants(design)

        def rows(jobs):
            report = run_campaign(design, case.func, mutants, inputs,
                                  backend="event", jobs=jobs)
            return [(result.fault.fault_id, result.verdict, result.cycles,
                     result.note) for result in report.results]

        serial = rows(1)
        assert len(serial) == len(mutants)
        assert {row[1] for row in serial} >= {"masked", "sdc", "hang"}
        assert rows(2) == serial

    def test_pool_batches_chunk_mutants_after_the_hardware_faults(
            self, threshold):
        case, design, inputs = threshold
        hardware = FaultloadGenerator(design, seed=24,
                                      max_cycle=100).generate(60)
        faults = hardware + enumerate_mutants(design)
        pending = list(range(len(faults)))
        batches = campaign_mod._pool_batches(faults, pending, 2)
        assert sorted(index for batch in batches for index in batch) \
            == pending
        mutant = [{faults[index].kind in MUTATION_KINDS for index in batch}
                  for batch in batches]
        assert all(len(flags) == 1 for flags in mutant)  # never mixed
        flags = [flags.pop() for flags in mutant]
        assert flags == sorted(flags)  # the hardware faults first
        assert flags.count(True) > 4  # mutants come in small chunks


class TestTimeBudget:
    def test_zero_budget_classifies_nothing(self, threshold):
        case, design, inputs = threshold
        faults = [FaultDescriptor(fault_id=f"f{i}", kind="mem_flip",
                                  target=next(iter(design.arrays)),
                                  bit=0, word=0)
                  for i in range(4)]
        report = run_campaign(design, case.func, faults, inputs,
                              backend="compiled", time_budget=0.0)
        assert report.planned == 4
        assert report.results == []
        assert "time budget hit: 0/4" in report.summary()

    def test_no_budget_classifies_everything(self, threshold):
        case, design, inputs = threshold
        faults = FaultloadGenerator(design, seed=5, max_cycle=100) \
            .generate(4, kinds=("mem_flip",))
        report = run_campaign(design, case.func, faults, inputs,
                              backend="compiled")
        assert len(report.results) == report.planned == 4
        assert "time budget" not in report.summary()


class TestLedgerRecording:
    def test_campaign_lands_in_the_ledger(self, threshold, tmp_path):
        case, design, inputs = threshold
        baseline = run_injection(design, case.func, None, inputs,
                                 backend="compiled")
        faults = FaultloadGenerator(design, seed=7,
                                    max_cycle=baseline.cycles).generate(5)
        path = tmp_path / "campaign.sqlite"
        report = run_campaign(design, case.func, faults, inputs,
                              app="threshold", backend="compiled",
                              ledger=path)
        with Ledger(path) as ledger:
            runs = ledger.runs()
            assert len(runs) == 1
            assert runs[0].kind == "inject"
            assert runs[0].extra["verdicts"] == report.tally()
            rows = ledger.fault_rows(runs[0].run_id)
            # one row per fault plus the fault-free baseline
            assert len(rows) == 6
            baseline_rows = [row for row in rows if row.kind == "none"]
            assert len(baseline_rows) == 1
            assert baseline_rows[0].verdict == "masked"
            by_id = {row.fault_id: row for row in rows
                     if row.kind != "none"}
            for result in report.results:
                row = by_id[result.fault.fault_id]
                assert row.verdict == result.verdict
                assert row.descriptor == result.fault.to_dict()
