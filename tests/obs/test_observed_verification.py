"""Observation during verification: probes, VCD waveforms, compiled kernel."""

from repro.apps import suite_case
from repro.core import verify_design
from repro.sim import CompiledSimulator


def _case(name="threshold", **sizes):
    return suite_case(name, **(sizes or {"n_pixels": 32}))


class TestProbeSignals:
    def test_probe_samples_recorded(self):
        case = _case()
        result = verify_design(case.compile(), case.func, case.inputs(0),
                               probe_signals=["done"])
        assert result.passed
        samples = result.probe_samples["done"]
        assert samples[0][1] == 0  # not done at reset
        assert samples[-1][1] == 1  # done when the run ends
        times = [t for t, _ in samples]
        assert times == sorted(times)

    def test_unknown_signal_names_are_skipped(self):
        case = _case()
        result = verify_design(case.compile(), case.func, case.inputs(0),
                               probe_signals=["no_such_signal"])
        assert result.passed
        assert result.probe_samples == {}

    def test_probing_compiled_backend_still_verifies(self):
        # a probe is a foreign watcher: the compiled kernel must fall
        # back to the event kernel rather than miss samples
        case = _case()
        result = verify_design(case.compile(), case.func, case.inputs(0),
                               backend="compiled", probe_signals=["done"])
        assert result.passed
        assert result.probe_samples["done"][-1][1] == 1


class TestVcdCompiledRoundTrip:
    def test_vcd_written_under_compiled_backend(self, tmp_path):
        # waveform dumping needs signal watchers, so this also exercises
        # the compiled kernel's conservative fallback — the verdict,
        # the waveform and the coverage must all still be produced
        case = _case()
        result = verify_design(case.compile(), case.func, case.inputs(0),
                               backend="compiled", trace_dir=tmp_path,
                               coverage=True)
        assert result.passed
        vcds = sorted(tmp_path.glob("*.vcd"))
        assert len(vcds) == 1
        text = vcds[0].read_text()
        assert "$enddefinitions $end" in text
        assert "#" in text  # at least one timestamped change section
        assert result.coverage.state_coverage == 1.0

    def test_vcd_matches_event_backend_waveform(self, tmp_path):
        case = _case()
        event_dir = tmp_path / "event"
        compiled_dir = tmp_path / "compiled"
        verify_design(case.compile(), case.func, case.inputs(0),
                      backend="event", trace_dir=event_dir)
        verify_design(case.compile(), case.func, case.inputs(0),
                      backend="compiled", trace_dir=compiled_dir)
        (event_vcd,) = sorted(event_dir.glob("*.vcd"))
        (compiled_vcd,) = sorted(compiled_dir.glob("*.vcd"))
        assert event_vcd.read_text() == compiled_vcd.read_text()


class TestCompiledStaysFastWhenUnobserved:
    def test_coverage_alone_keeps_fast_path(self):
        # coverage uses instrumented codegen, not watchers: no fallback
        case = _case()
        result = verify_design(case.compile(), case.func, case.inputs(0),
                               backend="compiled", coverage=True)
        assert result.passed
        assert result.coverage.state_coverage == 1.0

    def test_tallies_rebuild_once(self):
        from repro.core import prepare_images
        from repro.translate import build_simulation

        case = _case()
        design = case.compile()
        config = design.configurations[0]
        sd = build_simulation(config.datapath, config.fsm,
                              prepare_images(design, case.inputs(0)),
                              backend="compiled")
        assert isinstance(sd.sim, CompiledSimulator)
        sd.sim.instrument(tallies=True)
        sd.run_to_done()
        assert sd.sim.fallback_reason is None
        assert sd.sim.tally.cycles
        assert sd.sim.tally.transitions
