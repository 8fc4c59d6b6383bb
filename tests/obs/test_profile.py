"""The kernel hot-spot profiler: cycle attribution and flamegraph export.

The acceptance bar from the issue: profiling ``fdct1`` on the traced
backend must attribute at least 95% of simulated cycles to named FSM
states / fused trace segments, and the collapsed-stack export must be
the exact ``frame;frame;frame count`` format flamegraph.pl accepts.
"""

import json
import re

import pytest

from repro.obs.profile import (KernelProfiler, ProfileError,
                               profile_case)

#: flamegraph.pl input: semicolon-joined frames, one space, integer
_COLLAPSED = re.compile(r"^[^ ;]+(;[^ ;]+)* \d+$")


@pytest.fixture(scope="module")
def fdct1_report():
    return profile_case("fdct1", size={"pixels": 64}, seed=0,
                        backend="traced")


class TestAttribution:
    def test_meets_the_95_percent_bar(self, fdct1_report):
        assert fdct1_report.total_cycles > 0
        assert fdct1_report.attribution >= 0.95

    def test_leaf_cycles_conserve_the_attributed_total(self,
                                                       fdct1_report):
        leaves = [frame for frame in fdct1_report.frames
                  if frame.kind != "trace" and frame.cycles > 0]
        assert sum(frame.cycles for frame in leaves) == \
            fdct1_report.attributed_cycles

    def test_frames_name_real_fsm_states(self, fdct1_report):
        states = {frame.path[-1] for frame in fdct1_report.frames
                  if frame.kind != "trace"}
        assert any(state.startswith("S_") for state in states)

    def test_traced_backend_surfaces_fused_segments(self, fdct1_report):
        traces = [frame for frame in fdct1_report.frames
                  if frame.kind == "trace"]
        assert traces, "fdct1 has fusable loops; none were attributed"
        hottest = max(traces, key=lambda frame: frame.cycles)
        assert hottest.path[-1].startswith(("loop:", "line:"))

    def test_wall_time_rides_along(self, fdct1_report):
        assert any(frame.wall_ns > 0 for frame in fdct1_report.frames)


class TestExports:
    def test_collapsed_is_flamegraph_input(self, tmp_path, fdct1_report):
        out = fdct1_report.write_collapsed(tmp_path / "out.collapsed")
        lines = out.read_text().splitlines()
        assert lines
        for line in lines:
            assert _COLLAPSED.match(line), line
        assert all(line.startswith("fdct1;") for line in lines)
        # leaf weights add up to everything that was attributed
        total = sum(int(line.rsplit(" ", 1)[1]) for line in lines)
        assert total == fdct1_report.attributed_cycles

    def test_json_round_trips(self, tmp_path, fdct1_report):
        out = fdct1_report.write_json(tmp_path / "profile.json")
        payload = json.loads(out.read_text())
        assert payload["case"] == "fdct1"
        assert payload["backend"] == "traced"
        assert payload["total_cycles"] == fdct1_report.total_cycles
        assert payload["frames"]

    def test_format_is_a_table(self, fdct1_report):
        text = fdct1_report.format(top=5)
        assert "fdct1" in text and "cycles" in text


class TestCompiledBackend:
    def test_compiled_attributes_per_state(self):
        report = profile_case("threshold", size={"n_pixels": 32},
                              backend="compiled")
        assert report.attribution >= 0.95
        assert all(frame.kind != "trace" for frame in report.frames)


class TestSharedTally:
    @pytest.mark.parametrize("coverage_first", [True, False],
                             ids=["coverage-first", "profiler-first"])
    @pytest.mark.parametrize("backend", ["compiled", "traced"])
    def test_coverage_and_profiler_share(self, backend, coverage_first):
        """Coverage and the profiler on one fdct1 elaboration, attached
        in either order: neither switches the other off, both see the
        same per-state cycles, and those add up to the run's cycles."""
        from repro.apps import suite_case
        from repro.core import prepare_images
        from repro.obs.coverage import CoverageCollector
        from repro.translate import build_simulation

        case = suite_case("fdct1", pixels=64)
        design = case.compile()
        config = design.configurations[0]
        dut = build_simulation(config.datapath, config.fsm,
                               prepare_images(design, case.inputs(0)),
                               backend=backend)
        dut.sim.promote_after = 0
        coverage, profiler = CoverageCollector(), KernelProfiler()
        observers = [coverage, profiler]
        if not coverage_first:
            observers.reverse()
        for observer in observers:
            observer.attach(dut)
        start = dut.controller.state
        assert dut.run_to_done() == dut.sim.stats.cycles == 333
        instrumentation = dut.sim.instrumentation
        assert instrumentation.tallies and instrumentation.timers
        assert dut.sim.fallback_reason is None
        if backend == "traced":
            assert dut.sim.fusion_report()["promoted_at"] == 0
        for observer in observers:
            observer.collect(dut)

        name = config.datapath.name
        profiled = {state: entry["cycles"] for state, entry
                    in profiler.configurations[name]["states"].items()}
        # coverage also counts entering the reset state and the state
        # the run rests in, which no kernel cycle ran
        visits = dict(coverage.report.configurations[name].fsm.states)
        visits[start] -= 1
        visits[dut.controller.state] -= 1
        assert {state: count for state, count in visits.items()
                if count} == profiled
        assert sum(profiled.values()) == dut.sim.stats.cycles
        transitions = coverage.report.configurations[name].fsm.transitions
        assert sum(transitions.values()) == dut.controller.transitions


class TestErrors:
    def test_unknown_case(self):
        with pytest.raises(ProfileError, match="unknown case"):
            profile_case("nonesuch")

    def test_interpreter_backend_rejected(self):
        with pytest.raises(ProfileError, match="backend"):
            profile_case("fdct1", backend="interpreter")

    def test_report_without_data(self):
        with pytest.raises(ProfileError):
            KernelProfiler().report(case="x", backend="traced",
                                    total_cycles=0, wall_seconds=0.0)


class TestCli:
    def test_obs_profile_needs_no_ledger(self, tmp_path, capsys,
                                         monkeypatch):
        from repro.cli import main

        monkeypatch.chdir(tmp_path)  # no ledger anywhere in sight
        out = tmp_path / "p.collapsed"
        assert main(["obs", "profile", "threshold",
                     "--collapsed", str(out), "--top", "5"]) == 0
        printed = capsys.readouterr().out
        assert "kernel profile: threshold" in printed
        assert "% attributed" in printed
        assert out.exists()

    def test_unknown_case_exits_two(self, capsys):
        from repro.cli import main

        assert main(["obs", "profile", "nonesuch"]) == 2
        assert "unknown case" in capsys.readouterr().err
