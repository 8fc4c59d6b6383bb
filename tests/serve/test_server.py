"""Daemon end-to-end: NDJSON protocol, HTTP shim, ledger harvest.

Each test boots a real :class:`ServeDaemon` (fork workers and all) in a
background thread and talks to it exactly as the CLI/client would —
over the Unix socket or the HTTP shim — then drives a clean shutdown
and asserts on what the daemon left behind.
"""

import asyncio
import json
import os
import signal
import subprocess
import sys
import threading
import time
import urllib.request
from pathlib import Path

import pytest

import repro
from repro.obs.ledger import Ledger
from repro.serve import ServeClient, ServeDaemon, ServeScheduler, \
    wait_for_socket

TINY = {"case": "threshold", "size": {"n_pixels": 32}}


class Harness:
    """One daemon in one thread; ``stop()`` is idempotent."""

    def __init__(self, tmp_path, *, jobs=1, http=False, ledger=False,
                 cache=None):
        self.socket_path = tmp_path / "serve.sock"
        self.ledger_path = tmp_path / "ledger.sqlite" if ledger else None
        self.scheduler = ServeScheduler(jobs=jobs, batch_max=4,
                                        cache=cache)
        self.daemon = ServeDaemon(
            self.scheduler, socket_path=self.socket_path,
            http_port=0 if http else None,
            ledger_path=self.ledger_path)
        self.stats = None
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()
        wait_for_socket(self.socket_path, timeout=30)

    def _run(self):
        self.stats = asyncio.run(
            self.daemon.run(install_signal_handlers=False))

    def client(self):
        return ServeClient(self.socket_path)

    def http_url(self, path):
        port = self.daemon.http_bound_port
        assert port, "daemon has no HTTP shim"
        return f"http://127.0.0.1:{port}{path}"

    def stop(self):
        if self._thread.is_alive():
            try:
                with self.client() as client:
                    client.shutdown()
            except (OSError, ConnectionError):
                pass
        self._thread.join(timeout=60)
        assert not self._thread.is_alive(), "daemon failed to exit"


@pytest.fixture
def harness(tmp_path):
    started = []

    def boot(**kwargs):
        h = Harness(tmp_path, **kwargs)
        started.append(h)
        return h

    yield boot
    for h in started:
        h.stop()


def test_ping_and_status(harness):
    h = harness()
    with h.client() as client:
        assert client.ping()
        stats = client.status()
    assert stats["submitted"] == 0
    assert stats["workers"] == 1


def test_submit_streams_results_and_coalesces(harness):
    h = harness(jobs=2)
    with h.client() as client:
        events = client.run_jobs([dict(TINY), dict(TINY),
                                  {**TINY, "seed": 1}])
    assert [e["event"] for e in events] == ["result"] * 3
    assert events[0]["served"] == "queued"
    assert events[1]["served"] == "coalesced"
    assert events[2]["served"] == "queued"
    # duplicates share the execution: identical key, identical verdict
    assert events[0]["key"] == events[1]["key"]
    assert events[0]["result"] == events[1]["result"]
    for event in events:
        v = event["result"]["verification"]
        assert event["result"]["error"] is None
        assert all(not c["mismatches"] for c in v["checks"])


def test_invalid_job_is_an_error_result_not_a_dead_connection(harness):
    h = harness()
    with h.client() as client:
        events = client.run_jobs([{"case": "nonesuch"}, dict(TINY)])
        assert events[0]["served"] == "invalid"
        assert "unknown case" in events[0]["result"]["error"]
        assert events[1]["result"]["error"] is None
        assert client.ping()  # connection survived the bad job


def test_malformed_submits_are_invalid_results(harness):
    """A submit whose job is missing, null, not an object, or sized
    outside what its builder accepts resolves to an ``invalid`` result;
    the connection (and the HTTP request) stays answerable."""
    h = harness(http=True)
    with h.client() as client:
        client._send({"op": "submit", "id": "missing"})
        client._send({"op": "submit", "id": "null", "job": None})
        client._send({"op": "submit", "id": "list", "job": [1]})
        client._send({"op": "submit", "id": "size",
                      "job": {"case": "threshold",
                              "size": {"n_pixels": 0}}})
        events = client.collect(4)
        assert sorted(events) == ["list", "missing", "null", "size"]
        for event in events.values():
            assert event["served"] == "invalid"
            assert event["result"]["error"]
        assert "must be an object" in events["null"]["result"]["error"]
        assert "bad size options" in events["size"]["result"]["error"]
        assert client.ping()
    request = urllib.request.Request(
        h.http_url("/jobs"), data=json.dumps({"jobs": [None]}).encode(),
        method="POST")
    with urllib.request.urlopen(request, timeout=30) as r:
        assert r.status == 200
        reply = json.load(r)
    assert [x["served"] for x in reply["results"]] == ["invalid"]
    assert reply["stats"]["invalid"] == 5


def test_bad_line_and_unknown_op_keep_the_stream_alive(harness):
    h = harness()
    with h.client() as client:
        client._stream.write(b"this is not json\n")
        client._stream.flush()
        event = client._read_event()
        assert event["event"] == "error"
        assert "bad JSON" in event["error"]
        client._send({"op": "frobnicate"})
        event = client._read_event()
        assert event["event"] == "error"
        assert "unknown op" in event["error"]
        assert client.ping()


def test_http_shim(harness):
    h = harness(http=True)
    with urllib.request.urlopen(h.http_url("/healthz"), timeout=30) as r:
        assert json.load(r) == {"ok": True}
    body = json.dumps({"jobs": [dict(TINY), dict(TINY)]}).encode()
    request = urllib.request.Request(
        h.http_url("/jobs"), data=body, method="POST",
        headers={"Content-Type": "application/json"})
    with urllib.request.urlopen(request, timeout=120) as r:
        reply = json.load(r)
    assert [x["served"] for x in reply["results"]] \
        == ["queued", "coalesced"]
    assert reply["results"][0]["result"]["error"] is None
    with urllib.request.urlopen(h.http_url("/status"), timeout=30) as r:
        stats = json.load(r)["stats"]
    assert stats["submitted"] == 2
    with pytest.raises(urllib.error.HTTPError) as info:
        urllib.request.urlopen(h.http_url("/nope"), timeout=30)
    assert info.value.code == 404


def test_http_rejects_malformed_bodies(harness):
    h = harness(http=True)
    for body, expect in [(b"not json", "bad JSON"),
                         (b'{"nope": 1}', "'jobs'")]:
        request = urllib.request.Request(
            h.http_url("/jobs"), data=body, method="POST")
        with pytest.raises(urllib.error.HTTPError) as info:
            urllib.request.urlopen(request, timeout=30)
        assert info.value.code == 400
        assert expect in json.load(info.value)["error"]


def test_shutdown_harvests_the_ledger(harness, tmp_path):
    h = harness(jobs=1, ledger=True)
    with h.client() as client:
        events = client.run_jobs([dict(TINY), dict(TINY),
                                  {**TINY, "seed": 1}])
        assert all(e["result"]["error"] is None for e in events)
        stats = client.shutdown()
    assert stats["submitted"] == 3
    h.stop()
    assert h.stats is not None  # run() returned its final snapshot
    assert h.daemon.ledger_run_id is not None
    with Ledger(h.ledger_path) as ledger:
        run = ledger.run(h.daemon.ledger_run_id)
        cases = ledger.case_rows(h.daemon.ledger_run_id)
    assert run.kind == "serve"
    assert run.passed
    assert len(cases) == 3
    assert all(c.passed for c in cases)


def _children(pid):
    """PIDs whose parent is *pid*, read from /proc."""
    found = []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                stat = Path(f"/proc/{entry}/stat").read_text()
            except OSError:
                continue
            if int(stat.rsplit(")", 1)[1].split()[1]) == pid:
                found.append(int(entry))
    return found


def _running(pid):
    """Alive and not a zombie waiting for its new parent to reap it."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


@pytest.mark.skipif(not Path("/proc/self/stat").exists(),
                    reason="reads worker pids from /proc")
def test_workers_exit_when_the_daemon_is_killed(tmp_path):
    socket_path = tmp_path / "serve.sock"
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ, REPRO_KERNEL_CACHE="off",
               PYTHONPATH=os.pathsep.join(
                   filter(None, [src, os.environ.get("PYTHONPATH")])))
    daemon = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve",
         "--socket", str(socket_path), "--jobs", "2"],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    workers = []
    try:
        wait_for_socket(socket_path, timeout=60)
        workers = _children(daemon.pid)
        assert len(workers) == 2
        os.kill(daemon.pid, signal.SIGKILL)
        daemon.wait(timeout=10)
        deadline = time.monotonic() + 5
        while any(map(_running, workers)) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not [pid for pid in workers if _running(pid)]
    finally:
        for pid in [daemon.pid] + workers:
            try:
                os.kill(pid, signal.SIGKILL)
            except OSError:
                pass
        daemon.wait(timeout=10)
