"""The shared fork pool and the three runners built on it.

A worker that dies mid-task must surface as one ``RuntimeError`` that
names the unfinished work and the way to reproduce it, whichever runner
owns the pool; a budget-stopped parallel run must return what it
classified.  No worker may outlive a runner that is killed outright or
stopped with Ctrl-C, and a task's exception, or the reply to a task of
an abandoned ``map``, must reach the caller as exactly that.
"""

import multiprocessing
import os
import re
import signal
import time
from pathlib import Path

import pytest

import repro.fuzz.harness as harness_mod
import repro.inject.campaign as campaign_mod
from repro.apps import suite_case
from repro.compiler.spec import MemorySpec
from repro.core.testsuite import SuiteCase, TestSuite
from repro.fuzz import run_campaign as run_fuzz_campaign
from repro.inject import FaultDescriptor, run_campaign
from repro.util.pool import ForkPool
from tests.serve.test_server import _children, _running

fork_only = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="the pool forks only where fork exists")


def _whose(state, task):
    return os.getpid(), state["scale"](task)


def _logged(log_path, task):
    with open(log_path, "a") as log:
        log.write(f"{task}\n")
    time.sleep(0.05)
    return task


def test_inline_when_serial():
    state = {"scale": lambda task: task * 10}
    with ForkPool(2, state) as pool:
        assert list(pool.map(_whose, [4])) == [(os.getpid(), 40)]
    with ForkPool(1, state) as pool:
        assert list(pool.map(_whose, [1, 2, 3])) \
            == [(os.getpid(), 10), (os.getpid(), 20), (os.getpid(), 30)]


@fork_only
def test_workers_inherit_the_state_and_keep_task_order():
    # a lambda does not pickle: the workers can only have inherited it
    state = {"scale": lambda task: task * 10}
    with ForkPool(2, state) as pool:
        first = list(pool.map(_whose, range(6)))
        second = list(pool.map(_whose, [7, 8]))
    assert [value for _, value in first] == [0, 10, 20, 30, 40, 50]
    assert [value for _, value in second] == [70, 80]
    workers = {pid for pid, _ in first + second}
    assert os.getpid() not in workers and len(workers) <= 2


@fork_only
def test_closing_early_cancels_pending_tasks(tmp_path):
    log = tmp_path / "ran"
    with ForkPool(2, log) as pool:
        for result in pool.map(_logged, range(60)):
            break
    assert result == 0
    # the head result, the tasks running beside it and the few already
    # queued to the workers; never the whole submission
    assert len(log.read_text().split()) < 20


def _raise_on_odd(state, task):
    if task % 2:
        raise KeyError(task)
    return task


def _first_one_fast(state, task):
    time.sleep(0 if task[1] == 0 else 0.3)
    return task


@fork_only
def test_a_task_exception_reaches_the_caller():
    with ForkPool(2, None) as pool:
        results = pool.map(_raise_on_odd, range(4))
        assert next(results) == 0
        with pytest.raises(KeyError) as excinfo:
            next(results)
    assert excinfo.value.args == (1,)


@fork_only
def test_an_abandoned_map_leaves_the_pool_usable():
    with ForkPool(2, None) as pool:
        first = pool.map(_first_one_fast, [("first", n) for n in range(6)])
        assert next(first) == ("first", 0)
        first.close()
        # a worker is still on ("first", 1): its reply must not pass for
        # a result of the next map
        second = [("second", n) for n in range(6)]
        assert list(pool.map(_first_one_fast, second)) == second


# ----------------------------------------------------------------------
# A dead worker, in each runner
# ----------------------------------------------------------------------
def _tiny(dst):
    dst[0] = 1


def _die_in_suite(monkeypatch):
    def die(seed):
        os._exit(42)

    suite = TestSuite("pool")
    for name in ("alpha", "beta"):
        suite.add(SuiteCase(name=name, func=_tiny,
                            arrays={"dst": MemorySpec(width=8, depth=4,
                                                      role="output")},
                            inputs=die))
    suite.run(jobs=2)


def _die_in_campaign(monkeypatch):
    case = suite_case("threshold", n_pixels=32)
    design = case.compile()
    original = campaign_mod.run_injection

    def run_injection(design, func, fault, *args, **kwargs):
        if fault is not None and fault.fault_id == "die":
            os._exit(42)
        return original(design, func, fault, *args, **kwargs)

    monkeypatch.setattr(campaign_mod, "run_injection", run_injection)
    faults = [FaultDescriptor(fault_id=fault_id, kind="mem_flip",
                              target=next(iter(design.arrays)),
                              bit=0, word=0)
              for fault_id in ("live", "die")]
    run_campaign(design, case.func, faults, case.inputs(0),
                 backend="compiled", jobs=2)


def _die_in_fuzz(monkeypatch):
    original = harness_mod.generate

    def generate(seed, config):
        if seed == 3:
            os._exit(42)
        return original(seed, config)

    monkeypatch.setattr(harness_mod, "generate", generate)
    run_fuzz_campaign(8, seed=0, jobs=2, backends=("event",))


@fork_only
@pytest.mark.parametrize("runner, dead", [(_die_in_suite, "alpha"),
                                          (_die_in_campaign, "die"),
                                          (_die_in_fuzz, "3")],
                         ids=["suite", "campaign", "fuzz"])
def test_dead_worker_names_the_unfinished_work(runner, dead, monkeypatch):
    with pytest.raises(RuntimeError) as excinfo:
        runner(monkeypatch)
    assert type(excinfo.value) is RuntimeError  # not a bare pool error
    message = str(excinfo.value)
    assert "worker process died" in message
    assert "jobs=1" in message  # tells the user how to reproduce
    # the task whose worker died never returns, so it is always named
    assert dead in re.split(r"[:;,]\s*", message), message


@fork_only
def test_parallel_fuzz_stops_at_its_time_budget():
    seeds = []
    report = run_fuzz_campaign(
        100_000, seed=7, jobs=2, backends=("event",), time_budget=1.0,
        on_progress=lambda result: seeds.append(result.seed))
    assert 0 < report.iterations == len(seeds) < 100_000
    assert seeds == list(range(7, 7 + len(seeds)))
    assert report.wall_seconds < 30


# ----------------------------------------------------------------------
# A runner killed outright, or stopped with Ctrl-C, in each runner
# ----------------------------------------------------------------------
def _slow_suite(seconds):
    def slow(seed):
        time.sleep(seconds)
        return {}

    suite = TestSuite("pool")
    for name in ("alpha", "beta", "gamma", "delta"):
        suite.add(SuiteCase(name=name, func=_tiny,
                            arrays={"dst": MemorySpec(width=8, depth=4,
                                                      role="output")},
                            inputs=slow))
    suite.run(jobs=2)


def _slow_campaign(seconds):
    case = suite_case("threshold", n_pixels=32)
    design = case.compile()
    original = campaign_mod.run_injection

    def run_injection(design, func, fault, *args, **kwargs):
        if fault is not None:
            time.sleep(seconds)
        return original(design, func, fault, *args, **kwargs)

    campaign_mod.run_injection = run_injection  # in the forked runner only
    faults = [FaultDescriptor(fault_id=f"f{word}", kind="mem_flip",
                              target=next(iter(design.arrays)),
                              bit=0, word=word)
              for word in range(8)]
    run_campaign(design, case.func, faults, case.inputs(0),
                 backend="compiled", jobs=2)


def _slow_fuzz(seconds):
    original = harness_mod.generate

    def generate(seed, config):
        time.sleep(seconds)
        return original(seed, config)

    harness_mod.generate = generate  # in the forked runner only
    run_fuzz_campaign(8, seed=0, jobs=2, backends=("event",))


def _start_runner(runner, seconds, session=False):
    """Fork a process running *runner* on tasks of *seconds* each; return
    it and its two pool workers, once both are up."""
    def main():
        if session:
            os.setsid()
        runner(seconds)

    parent = multiprocessing.get_context("fork").Process(target=main)
    parent.start()
    deadline = time.monotonic() + 60
    while len(_children(parent.pid)) < 2:
        assert parent.is_alive() and time.monotonic() < deadline
        time.sleep(0.05)
    return parent, _children(parent.pid)


def _none_running_within(workers, seconds):
    deadline = time.monotonic() + seconds
    while any(map(_running, workers)) and time.monotonic() < deadline:
        time.sleep(0.05)
    return not [pid for pid in workers if _running(pid)]


def _kill_all(parent, workers):
    for pid in [parent.pid] + workers:
        try:
            os.kill(pid, signal.SIGKILL)
        except OSError:
            pass
    parent.join(timeout=10)


runners = pytest.mark.parametrize(
    "runner", [_slow_suite, _slow_campaign, _slow_fuzz],
    ids=["suite", "campaign", "fuzz"])
reads_proc = pytest.mark.skipif(not Path("/proc/self/stat").exists(),
                                reason="reads worker pids from /proc")


@fork_only
@reads_proc
@runners
def test_workers_exit_when_the_runner_is_killed(runner):
    parent, workers = _start_runner(runner, 1)
    try:
        os.kill(parent.pid, signal.SIGKILL)
        parent.join(timeout=10)
        assert _none_running_within(workers, 5)
    finally:
        _kill_all(parent, workers)


@fork_only
@reads_proc
@runners
def test_ctrl_c_stops_the_run_and_its_workers(runner):
    parent, workers = _start_runner(runner, 30, session=True)
    try:
        os.killpg(parent.pid, signal.SIGINT)
        parent.join(timeout=5)
        assert parent.exitcode is not None, "still running 5 s after Ctrl-C"
        assert _none_running_within(workers, 1)
    finally:
        _kill_all(parent, workers)
