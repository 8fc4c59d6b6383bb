"""Differential-harness classification tests.

Each test hand-builds a :class:`FuzzProgram` engineered to land in one
classification bucket, so the harness's verdicts — the thing CI trusts —
are themselves pinned by the suite.
"""

import pytest

from repro.compiler.spec import MemorySpec
from repro.fuzz import FuzzProgram, Outcome, generate, run_campaign, run_program
from repro.fuzz.harness import _run_one_seed
from repro.rtg.executor import RtgExecutor
from repro.sim.errors import SimulationError


def _program(source, arrays, name="probe", **kwargs):
    return FuzzProgram(name=name, arrays=arrays, raw_source=source,
                       **kwargs)


def test_generated_program_passes():
    assert run_program(generate(0)).kind == "pass"


def test_traced_runs_start_fused(monkeypatch):
    """Fuzz programs are far too short to promote a traced elaboration,
    so the harness starts it fused: otherwise ``traced`` would run the
    compiled kernel a second time."""
    from repro.fuzz import harness
    from repro.sim import TracedSimulator
    from repro.sim.trace import PROMOTE_AFTER

    # the real threshold: tests/conftest.py starts every traced run fused
    monkeypatch.setattr(TracedSimulator, "promote_after", PROMOTE_AFTER)
    sims = []
    original = harness._start_fused

    def spy(design):
        original(design)
        sims.append(design.sim)

    monkeypatch.setattr(harness, "_start_fused", spy)
    assert run_program(generate(0), backends=("event", "traced")).kind \
        == "pass"
    assert sims and all(sim.promoted_at == 0 for sim in sims)


def test_compile_crash_classification():
    # 'y' is used before assignment: the frontend must reject, and the
    # harness must classify that as a compile crash (generator programs
    # are valid by contract, so any rejection is a finding)
    program = _program(
        "def probe(dst):\n    x = y\n",
        {"dst": MemorySpec(width=8, depth=4, role="output")},
    )
    outcome = run_program(program)
    assert outcome.kind == "compile-crash"
    assert outcome.exc_type == "CompileError"
    assert "y" in outcome.detail


def test_golden_crash_classification():
    # constant index beyond the array depth: golden raises IndexError
    # before any simulation runs
    program = _program(
        "def probe(dst):\n    dst[99] = 1\n",
        {"dst": MemorySpec(width=8, depth=4, role="output")},
    )
    outcome = run_program(program)
    assert outcome.kind == "golden-crash"
    assert outcome.exc_type == "IndexError"


def test_timeout_classification():
    source = (
        "def probe(dst):\n"
        "    w1 = 0\n"
        "    while w1 < 50000:\n"
        "        dst[0] = w1\n"
        "        w1 = w1 + 1\n"
    )
    program = _program(
        source, {"dst": MemorySpec(width=32, depth=4, role="output")})
    outcome = run_program(program, max_cycles=200)
    assert outcome.kind == "timeout"
    assert outcome.backend is not None


def test_mismatch_classification(monkeypatch):
    # deliberately outside the generator's overflow contract: golden
    # computes (2**20)**2 // 3 in unbounded Python while the 32-bit
    # datapath wraps the square first, so the stored words differ —
    # precisely the class of divergence the oracle exists to catch
    source = "def probe(src, dst):\n    dst[0] = ((src[0] * src[0]) // 3)\n"
    program = _program(
        source,
        {"src": MemorySpec(width=32, depth=2, role="input"),
         "dst": MemorySpec(width=16, depth=2, role="output")},
    )

    import repro.fuzz.harness as harness_module

    original = harness_module.make_images

    def overflowing_inputs(prog, input_seed=0):
        images = original(prog, input_seed)
        images["src"].write(0, 1 << 20)
        return images

    monkeypatch.setattr(harness_module, "make_images", overflowing_inputs)
    outcome = run_program(program)
    assert (outcome.kind, outcome.backend) == ("mismatch", "compiled")
    assert outcome.detail == "memory 'dst': @0000: expected 0x5555, got 0x0000"


def test_sim_crash_classification(monkeypatch):
    program = generate(3)

    def explode(self):
        raise SimulationError("injected kernel fault")

    monkeypatch.setattr(RtgExecutor, "run", explode)
    outcome = run_program(program)
    assert outcome.kind == "sim-crash"
    assert outcome.exc_type == "SimulationError"


def test_outcome_matching_rules():
    crash_a = Outcome("compile-crash", exc_type="CompileError")
    crash_b = Outcome("compile-crash", exc_type="CompileError")
    crash_c = Outcome("compile-crash", exc_type="KeyError")
    assert crash_a.matches(crash_b)
    assert not crash_a.matches(crash_c)
    assert not crash_a.matches(Outcome("mismatch"))
    assert Outcome("mismatch", backend="event").matches(
        Outcome("mismatch", backend="compiled"))


class TestCampaign:
    def test_deterministic_across_jobs(self):
        serial = run_campaign(6, seed=42, jobs=1)
        parallel = run_campaign(6, seed=42, jobs=2)
        assert serial.iterations == parallel.iterations == 6
        assert serial.counts == parallel.counts

    def test_failures_carry_program(self, monkeypatch):
        import repro.fuzz.harness as harness_module

        def always_mismatch(program, **kwargs):
            return Outcome("mismatch", backend="event", detail="forced")

        monkeypatch.setattr(harness_module, "run_program", always_mismatch)
        report = run_campaign(3, seed=0, jobs=1)
        assert len(report.failures) == 3
        assert all(f.program is not None for f in report.failures)
        assert not report.passed
        assert "mismatch=3" in report.summary()

    def test_time_budget_stops_early(self):
        report = run_campaign(10_000, seed=0, jobs=1, time_budget=0.5)
        assert report.iterations < 10_000

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            run_campaign(-1)
        with pytest.raises(ValueError):
            run_campaign(1, jobs=0)

    def test_worker_state_round_trip(self):
        from repro.fuzz.generator import GeneratorConfig

        result = _run_one_seed((GeneratorConfig(), ("event",), 10_000, 0,
                                False), 5)
        assert result.seed == 5
        assert result.outcome.kind == "pass"
        assert result.program is None  # only failures ship the program
