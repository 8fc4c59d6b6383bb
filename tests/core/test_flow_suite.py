"""Tests for the flow, suite runner and infrastructure façade."""

import pytest

from repro.compiler import MemorySpec
from repro.core import (Flow, FlowStage, SuiteCase, TestInfrastructure,
                        TestSuite, standard_flow)
from repro.util.files import MemoryImage

ARRAYS = {
    "src": MemorySpec(16, 8, signed=False, role="input"),
    "dst": MemorySpec(32, 8, role="output"),
}


def double(src, dst, n=8):
    for i in range(n):
        dst[i] = src[i] * 2


def inputs_factory(seed):
    return {"src": MemoryImage(16, 8, words=[seed + i for i in range(8)],
                               name="src")}


class TestFlow:
    def test_stage_order_and_timing(self):
        log = []
        flow = Flow([
            FlowStage("one", lambda ctx: log.append("one")),
            FlowStage("two", lambda ctx: log.append("two")),
        ])
        report = flow.run()
        assert log == ["one", "two"]
        assert [stage.name for stage in report.stages] == ["one", "two"]
        assert all(stage.seconds >= 0 for stage in report.stages)
        assert report.total_seconds >= 0

    def test_context_shared(self):
        flow = Flow([
            FlowStage("set", lambda ctx: ctx.__setitem__("x", 41)),
            FlowStage("use", lambda ctx: ctx.__setitem__("y", ctx["x"] + 1)),
        ])
        report = flow.run()
        assert report.context["y"] == 42

    def test_stage_lookup(self):
        report = Flow([FlowStage("only", lambda ctx: "detail")]).run()
        assert report.stage("only").detail == "detail"
        with pytest.raises(KeyError):
            report.stage("ghost")


class TestStandardFlow:
    def test_full_flow_produces_artifacts(self, tmp_path):
        flow = standard_flow(double, ARRAYS, workdir=tmp_path,
                             inputs=inputs_factory(1))
        report = flow.run()
        assert report.context["passed"], report.summary()
        stage_names = [stage.name for stage in report.stages]
        assert stage_names == ["compile", "emit-xml", "emit-dot",
                               "emit-python", "stimulus", "golden",
                               "simulate", "compare"]
        produced = {path.name for path in tmp_path.iterdir()}
        assert "double_cfg0_datapath.xml" in produced
        assert "double_cfg0_fsm.xml" in produced
        assert "double_rtg.xml" in produced
        assert "double_cfg0_datapath.dot" in produced
        assert "double_cfg0_fsm.py" in produced
        assert "src.mem" in produced
        assert report.stage("compare").detail == "PASS"
        assert "total" in report.summary()

    def test_flow_detects_divergence(self, tmp_path):
        # the 32-bit datapath wraps the cube before dividing, golden's
        # unbounded integers do not: every stored word differs
        def cube_third(src, dst, n=8):
            for i in range(n):
                dst[i] = (src[i] * src[i] * src[i]) // 3

        inputs = {"src": MemoryImage(16, 8, name="src",
                                     words=[2000 + i for i in range(8)])}
        report = standard_flow(cube_third, ARRAYS, workdir=tmp_path,
                               inputs=inputs).run()
        assert not report.context["passed"]
        assert report.stage("compare").detail == "FAIL: ['dst']"
        (failed,) = [check for check in report.context["checks"]
                     if not check.passed]
        assert failed.mismatches[0].expected == 2000 ** 3 // 3


class TestSuiteRunner:
    def case(self, name="double", **overrides):
        options = dict(name=name, func=double, arrays=ARRAYS,
                       params={"n": 8}, inputs=inputs_factory)
        options.update(overrides)
        return SuiteCase(**options)

    def test_run_reports_pass(self):
        suite = TestSuite()
        suite.add(self.case())
        report = suite.run(seed=1)
        assert report.passed
        assert report.results[0].verification.cycles > 0
        assert "PASS" in report.summary()
        assert "double" in report.metrics_table()

    def test_duplicate_case_rejected(self):
        suite = TestSuite()
        suite.add(self.case())
        with pytest.raises(ValueError, match="duplicate"):
            suite.add(self.case())

    def test_error_capture(self):
        def broken(src, dst, n=8):
            return [x for x in src]  # unsupported construct

        suite = TestSuite()
        suite.add(self.case(name="broken", func=broken))
        report = suite.run()
        assert not report.passed
        assert report.results[0].error is not None
        assert "ERROR" in report.summary()

    def test_stop_on_failure(self):
        def broken(src, dst, n=8):
            return [x for x in src]

        suite = TestSuite()
        suite.add(self.case(name="bad", func=broken))
        suite.add(self.case(name="good"))
        report = suite.run(stop_on_failure=True)
        assert len(report.results) == 1


class TestInfrastructureFacade:
    def test_register_and_run_all(self, tmp_path):
        infra = TestInfrastructure(tmp_path)
        infra.register("double", double, ARRAYS, {"n": 8},
                       inputs=inputs_factory)
        assert infra.case_names == ["double"]
        report = infra.run_all(seed=2)
        assert report.passed

    def test_run_case_produces_artifacts(self, tmp_path):
        infra = TestInfrastructure(tmp_path)
        infra.register("double", double, ARRAYS, {"n": 8},
                       inputs=inputs_factory)
        flow_report = infra.run_case("double")
        assert flow_report.context["passed"]
        assert (tmp_path / "double" / "double_rtg.xml").exists()

    def test_metrics_table(self, tmp_path):
        infra = TestInfrastructure(tmp_path)
        infra.register("double", double, ARRAYS, {"n": 8})
        table = infra.metrics_table()
        assert "double" in table

    def test_unknown_case(self, tmp_path):
        infra = TestInfrastructure(tmp_path)
        with pytest.raises(KeyError):
            infra.run_case("ghost")


class TestSuiteParallelAndCache:
    def _suite(self):
        from repro.apps import suite_case

        suite = TestSuite("par")
        suite.add(suite_case("threshold", n_pixels=32))
        suite.add(suite_case("popcount", n_words=16))
        suite.add(suite_case("hamming", n_words=16))
        return suite

    def test_jobs_must_be_positive(self):
        with pytest.raises(ValueError, match="jobs"):
            self._suite().run(jobs=0)

    def test_parallel_matches_serial(self):
        serial = self._suite().run(seed=3)
        parallel = self._suite().run(seed=3, jobs=2)
        assert parallel.passed
        assert parallel.jobs == 2
        for one, two in zip(serial.results, parallel.results):
            assert one.case == two.case
            assert one.passed and two.passed
            assert one.verification.cycles == two.verification.cycles
            assert one.metrics.total_operators() == \
                two.metrics.total_operators()

    def test_cache_skips_second_run(self, tmp_path):
        first = self._suite().run(seed=3, cache=tmp_path)
        assert first.passed and first.cache_hits == 0
        second = self._suite().run(seed=3, cache=tmp_path)
        assert second.passed
        assert second.cache_hits == len(second.results)
        assert all(result.cached for result in second.results)
        assert "cached" in second.summary()
        # a different seed must miss
        third = self._suite().run(seed=4, cache=tmp_path)
        assert third.cache_hits == 0

    def test_backend_recorded_in_report(self):
        suite = TestSuite("one")
        from repro.apps import suite_case

        suite.add(suite_case("threshold", n_pixels=32))
        report = suite.run(backend="compiled")
        assert report.passed
        assert report.backend == "compiled"
        assert "backend=compiled" in report.summary()
