"""Tests for the campaign runner: classification, replay, pooling."""

import multiprocessing
from dataclasses import replace

import pytest

from repro.apps import CASE_BUILDERS, suite_case
from repro.core import verify_design
from repro.inject import (FaultDescriptor, FaultloadGenerator, run_campaign,
                          run_injection)
from repro.inject import campaign as campaign_mod
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
        # forked workers inherit and must bind to each fault's own target
        def rows(report):
            return [(r.fault.fault_id, r.verdict, r.cycles, r.mechanism)
                    for r in report.results]

        assert rows(serial) == rows(pooled)
        assert campaign_mod._ACTIVE_CAMPAIGN is None

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

    def test_worker_never_raises(self):
        """A broken worker state must come back as a crash verdict, not
        an exception that would poison the whole pool."""
        assert campaign_mod._ACTIVE_CAMPAIGN is None
        result = campaign_mod._pool_inject(0)
        assert result.verdict == "crash"
        assert result.fault is None
        assert "TypeError" in result.note or "Error" in result.note

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


class TestBatched:
    def test_batched_mem_flips_match_serial(self, threshold):
        case, design, inputs = threshold
        baseline = run_injection(design, case.func, None, inputs,
                                 backend="compiled")
        faults = FaultloadGenerator(design, seed=6,
                                    max_cycle=baseline.cycles) \
            .generate(6, kinds=("mem_flip",))
        serial = run_campaign(design, case.func, faults, inputs,
                              backend="compiled")
        batched = run_campaign(design, case.func, faults, inputs,
                               backend="batched")
        assert [r.verdict for r in serial.results] \
            == [r.verdict for r in batched.results]
        assert all(r.mechanism == "image" for r in batched.results)


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
