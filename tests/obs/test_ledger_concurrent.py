"""Concurrent ledger writers: two processes appending to one file.

The ledger's recorders are the harvest points of every long-running
entry point (suite, fuzz, inject, serve), and nothing stops two of
them — a serve daemon and a CI suite run, say — from sharing one
database.  WAL mode plus ``busy_timeout`` plus the one-shot
``_retry_once`` guard must make interleaved appends lossless."""

import multiprocessing
import sqlite3

import pytest

from repro.obs.ledger import Ledger, _retry_once

fork_only = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="two-process append test requires the fork start method")


# ----------------------------------------------------------------------
# The retry guard itself (deterministic, no timing games)
# ----------------------------------------------------------------------
class FlakyRecorder:
    def __init__(self, failures, message):
        self.failures = failures
        self.message = message
        self.calls = 0

    @_retry_once
    def record(self):
        self.calls += 1
        if self.calls <= self.failures:
            raise sqlite3.OperationalError(self.message)
        return "recorded"


class TestRetryOnce:
    def test_lock_error_is_retried_exactly_once(self):
        recorder = FlakyRecorder(1, "database is locked")
        assert recorder.record() == "recorded"
        assert recorder.calls == 2

    def test_busy_error_is_retried(self):
        recorder = FlakyRecorder(1, "database is busy")
        assert recorder.record() == "recorded"

    def test_persistent_lock_propagates_after_one_retry(self):
        recorder = FlakyRecorder(5, "database is locked")
        with pytest.raises(sqlite3.OperationalError):
            recorder.record()
        assert recorder.calls == 2

    def test_other_operational_errors_are_not_retried(self):
        recorder = FlakyRecorder(1, "no such table: runs")
        with pytest.raises(sqlite3.OperationalError):
            recorder.record()
        assert recorder.calls == 1

    def test_every_recorder_is_guarded(self):
        for name in ("record_suite", "record_flow",
                     "record_fuzz", "record_bench",
                     "record_injection_campaign", "record_triage",
                     "record_serve"):
            assert hasattr(getattr(Ledger, name), "__wrapped__"), \
                f"Ledger.{name} lost its _retry_once guard"


# ----------------------------------------------------------------------
# Two real processes, one real database
# ----------------------------------------------------------------------
def _append_runs(path, tag, count):
    with Ledger(path) as ledger:
        for i in range(count):
            ledger.record_triage({"design": f"{tag}-{i}", "mode": "cycle",
                                  "backend_sub": "event"},
                                 wall_seconds=0.01)


@fork_only
class TestTwoProcessAppend:
    def test_interleaved_appends_are_lossless(self, tmp_path):
        path = tmp_path / "shared.sqlite"
        count = 25
        context = multiprocessing.get_context("fork")
        writers = [
            context.Process(target=_append_runs,
                            args=(path, tag, count))
            for tag in ("alpha", "beta")
        ]
        for proc in writers:
            proc.start()
        for proc in writers:
            proc.join(timeout=120)
            assert proc.exitcode == 0, \
                "a concurrent writer crashed (lost-update or lock error)"
        with Ledger(path) as ledger:
            runs = ledger.runs()
            apps = sorted(run.extra["design"] for run in runs)
        assert len(runs) == 2 * count
        assert apps == sorted([f"alpha-{i}" for i in range(count)]
                              + [f"beta-{i}" for i in range(count)])
