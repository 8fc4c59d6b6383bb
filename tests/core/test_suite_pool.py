"""Regression tests for worker-failure reporting in the parallel suite.

Before the fix, an exception escaping a pool worker surfaced in the
parent as an opaque ``BrokenProcessPool`` with the worker's traceback
lost.  Now every task error folds into an error :class:`CaseResult`
carrying the original traceback, and a genuinely dead worker (hard
crash) raises a ``RuntimeError`` naming the cases that were in flight
(``tests/util/test_pool.py`` checks that for every runner).
"""

import inspect
import multiprocessing
import os
import weakref

import pytest

import repro.core.testsuite as testsuite_module
import repro.util.loc as loc_module
from repro.compiler.spec import MemorySpec
from repro.core.testsuite import (CaseResult, SuiteCase, TestSuite,
                                  _run_pending_case)

fork_only = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="parallel suite requires the fork start method")


def _tiny(dst):
    dst[0] = 1


def _make_case(name, inputs=None):
    return SuiteCase(name=name, func=_tiny,
                     arrays={"dst": MemorySpec(width=8, depth=4,
                                               role="output")},
                     inputs=inputs)


@fork_only
def test_worker_exception_keeps_original_traceback(monkeypatch):
    def kapow(case, *, seed, fsm_mode, backend, coverage=False,
              batch=0):
        raise ValueError("kapow from the worker")

    # fork workers inherit the patched module state from the parent
    monkeypatch.setattr(testsuite_module, "_run_case", kapow)
    suite = TestSuite("pool")
    suite.add(_make_case("alpha"))
    suite.add(_make_case("beta"))

    report = suite.run(jobs=2)

    assert not report.passed
    assert len(report.results) == 2
    for result in report.results:
        assert "kapow from the worker" in result.error
        assert "ValueError" in result.traceback
        assert "kapow" in result.traceback


@fork_only
def test_dead_worker_raises_informative_error():
    def die(seed):
        os._exit(42)  # kills the worker before it can return a result

    suite = TestSuite("pool")
    suite.add(_make_case("alpha", inputs=die))
    suite.add(_make_case("beta", inputs=die))

    with pytest.raises(RuntimeError) as excinfo:
        suite.run(jobs=2)
    message = str(excinfo.value)
    assert "worker process died" in message
    assert "alpha" in message or "beta" in message
    assert "jobs=1" in message  # tells the user how to reproduce


def _other_tiny(dst):
    dst[1] = 2


@fork_only
def test_workers_inherit_the_source_reads(monkeypatch, tmp_path):
    """The parent reads every pending case's source before the pool
    forks, so no worker tokenizes a source file again."""
    readers = tmp_path / "readers"
    original = inspect.getsource

    def recording_getsource(obj):
        with open(readers, "a") as handle:
            handle.write(f"{os.getpid()}\n")
        return original(obj)

    monkeypatch.setattr(loc_module, "_SOURCES", weakref.WeakKeyDictionary())
    monkeypatch.setattr(inspect, "getsource", recording_getsource)
    suite = TestSuite("pool")
    suite.add(_make_case("alpha"))
    beta = _make_case("beta")
    beta.func = _other_tiny
    suite.add(beta)

    report = suite.run(jobs=2)

    assert report.passed, report.summary()
    pids = set(readers.read_text().split())
    assert pids == {str(os.getpid())}


def test_pool_run_survives_broken_suite_state():
    # an error from outside run_case (here, a bad option) must come back
    # as an error result, not an exception that would poison the pool
    result = _run_pending_case(([_make_case("alpha")], {"no_such": 1}), 0)
    assert isinstance(result, CaseResult)
    assert result.case == "alpha"
    assert "TypeError" in result.error
    assert "no_such" in result.traceback


def test_serial_error_also_records_traceback(monkeypatch):
    def kapow(self):
        raise ValueError("kapow serial")

    monkeypatch.setattr(SuiteCase, "compile", kapow)
    suite = TestSuite("serial")
    suite.add(_make_case("alpha"))
    report = suite.run(jobs=1)
    assert not report.passed
    assert "kapow serial" in report.results[0].error
    assert "ValueError" in report.results[0].traceback
