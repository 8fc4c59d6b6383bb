"""The open-loop serve workload: a real ``repro serve`` daemon under a
fixed arrival schedule.

Independent CI pushes arrive on their own clock, so requests are sent
at fixed due times whatever the daemon's state (an open loop) and every
latency is measured from the request's due time: a stall is charged to
every request it delays.  One asyncio loop in the benchmark's main
thread sends and receives over one NDJSON connection.  The generator
records how late each send ran; a run whose p99 lateness exceeds
``MAX_LATE`` measured the generator, not the daemon, and is invalid.

No recorded serve traffic exists to replay, so the mix is an
assumption (see README): ``serve-zipf`` is the Zipf catalog of
``benchmarks/test_bench_serve.py`` with a tenth of fresh seeds.  Its
fixed rate is half the sustainable rate ``calibrate.py`` measured for
the mix, and every traced run reports the workers' measured
utilization.

At the end the load reads the daemon's ``status`` (the serve per-layer
metrics), asks for ``shutdown``, reads the reply before closing the
connection, and gives the daemon ``EXIT_TIMEOUT`` seconds to exit; a
daemon that overstays is killed and the run fails.  The daemon is shut
down whatever the load raised.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import random
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path
from typing import List, Tuple

from repro.obs.metrics import Histogram

from workloads import JOBS, Outcome, percentile

#: catalog: every app at these sizes (benchmarks/test_bench_serve.py)
SIZES = {
    "fdct1": {"pixels": 1024},
    "fdct2": {"pixels": 512},
    "idct": {"pixels": 512},
    "hamming": {"n_words": 512},
    "fir": {"n_out": 256, "taps": 8},
    "matmul": {"n": 8},
    "threshold": {"n_pixels": 1024},
    "popcount": {"n_words": 512},
}
SEEDS_PER_APP = 4
#: Zipf exponent over catalog popularity ranks
ZIPF_S = 1.1
#: the share of requests for a never-seen seed (a fresh execution)
FRESH = 0.10
#: a request answered PASS within this many seconds counts as goodput
DEADLINE = 0.250
#: p99 generator lateness above which the run is invalid, seconds
MAX_LATE = 0.020
READY_TIMEOUT = 60.0
EXIT_TIMEOUT = 30.0
#: replies and the status must all arrive within this long after the
#: last due time (with the exit wait, a hung daemon fails in 3 minutes)
DRAIN_TIMEOUT = 60.0


def schedule(seed: int, count: int) -> List[dict]:
    """*count* jobs: Zipf draws over the catalog, a ``FRESH`` share of
    never-seen seeds.

    The mix is the same for every seed: the popularity order is one
    fixed shuffle (a memo hit costs several times more on the fdct
    apps than on the small ones) and the fresh jobs rotate through
    the apps.  The seed picks the stimulus seeds, the draws and where
    the fresh jobs fall.
    """
    rng = random.Random(seed)
    catalog = [(name, k) for name in sorted(SIZES)
               for k in range(SEEDS_PER_APP)]
    random.Random(3).shuffle(catalog)  # popularity must not follow names
    weights = [1.0 / (rank + 1) ** ZIPF_S for rank in range(len(catalog))]
    rotation = itertools.cycle(sorted(SIZES))
    fresh_at = set(rng.sample(range(count), round(count * FRESH)))
    jobs = []
    for index in range(count):
        if index in fresh_at:
            name = next(rotation)
            job_seed = 1_000_000 + seed * 100_000 + index
        else:
            name, k = rng.choices(catalog, weights)[0]
            job_seed = seed * SEEDS_PER_APP + k
        jobs.append({"case": name, "size": dict(SIZES[name]),
                     "seed": job_seed})
    return jobs


# ----------------------------------------------------------------------
# Daemon lifecycle
# ----------------------------------------------------------------------
def spawn(argv: List[str], sock: Path, env: dict, cwd: Path,
          log) -> Tuple[subprocess.Popen, float]:
    """Start a daemon; return it with the seconds until its socket
    accepted a connection."""
    started = time.perf_counter()
    proc = subprocess.Popen(argv, env=env, cwd=cwd, stdout=log,
                            stderr=subprocess.STDOUT)
    while True:
        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as probe:
            try:
                probe.connect(str(sock))
                return proc, time.perf_counter() - started
            except OSError:
                pass
        if proc.poll() is not None:
            raise RuntimeError(f"serve daemon exited with {proc.returncode} "
                               f"before accepting connections")
        if time.perf_counter() - started > READY_TIMEOUT:
            stop(proc, None)
            raise RuntimeError("serve daemon never accepted connections")
        time.sleep(0.002)


def _request(stream, op: str) -> dict:
    stream.write(json.dumps({"op": op}).encode("utf-8") + b"\n")
    stream.flush()
    while True:
        line = stream.readline()
        if not line:
            raise ConnectionError(f"daemon closed before the {op} reply")
        reply = json.loads(line)
        if reply.get("event") == op:
            return reply


def stop(proc: subprocess.Popen, sock) -> List[str]:
    """Shut a daemon down and wait for it; returns problems found.

    The shutdown reply is read before the connection closes, so the
    request cannot be lost with the connection.
    """
    problems = []
    if sock is not None and proc.poll() is None:
        try:
            with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as conn:
                conn.settimeout(EXIT_TIMEOUT)
                conn.connect(str(sock))
                with conn.makefile("rwb") as stream:
                    _request(stream, "shutdown")
        except (OSError, ValueError) as exc:
            problems.append(f"shutdown request failed: {exc}")
    try:
        proc.wait(timeout=EXIT_TIMEOUT)
    except subprocess.TimeoutExpired:
        problems.append(f"daemon still running {EXIT_TIMEOUT:.0f}s after "
                        f"shutdown; killed")
        proc.send_signal(signal.SIGKILL)
        proc.wait()
    if proc.returncode not in (0, None) and not problems:
        problems.append(f"daemon exited with {proc.returncode}")
    return problems


# ----------------------------------------------------------------------
# The open loop
# ----------------------------------------------------------------------
async def _drive(sock: Path, jobs: List[dict], rate: float):
    """Send every job at its due time, collect every reply, then read
    the daemon's status.  Returns (due, sent, arrived, events, stats)."""
    reader, writer = await asyncio.open_unix_connection(
        str(sock), limit=1 << 24)
    count = len(jobs)
    lines = [json.dumps({"op": "submit", "id": index, "job": job})
             .encode("utf-8") + b"\n" for index, job in enumerate(jobs)]
    start = time.perf_counter() + 0.05
    due = [start + index / rate for index in range(count)]
    sent = [0.0] * count
    arrived = [0.0] * count
    events: List[dict] = [{}] * count

    async def send() -> None:
        for index, line in enumerate(lines):
            delay = due[index] - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            sent[index] = time.perf_counter()
            writer.write(line)
            await writer.drain()

    async def receive() -> None:
        pending = count
        while pending:
            line = await reader.readline()
            if not line:
                raise ConnectionError("daemon closed the connection")
            event = json.loads(line)
            if event.get("event") != "result":
                raise RuntimeError(f"unexpected reply {event}")
            arrived[event["id"]] = time.perf_counter()
            events[event["id"]] = event
            pending -= 1

    async def load() -> dict:
        await asyncio.gather(send(), receive())
        writer.write(b'{"op": "status"}\n')
        await writer.drain()
        reply = json.loads(await reader.readline() or b"{}")
        if reply.get("event") != "status":
            raise RuntimeError(f"no status reply, got {reply}")
        return reply["stats"]

    try:
        stats = await asyncio.wait_for(load(),
                                       timeout=count / rate + DRAIN_TIMEOUT)
    finally:
        writer.close()
        await writer.wait_closed()
    return due, sent, arrived, events, stats


def _passed(payload: dict) -> bool:
    verification = payload.get("verification")
    return payload.get("error") is None and verification is not None \
        and all(not check["mismatches"]
                for check in verification["checks"])


def _histogram(stats: dict, name: str) -> Histogram:
    data = stats.get("histograms", {}).get(name)
    return Histogram.from_dict(data) if data else Histogram(name)


def serve(seed: int, requests: int, *, rate: float,
          daemon_argv: List[str], env: dict, work: Path,
          setup_samples: int) -> Tuple[Outcome, List[float]]:
    """Run the open loop against a fresh daemon.

    ``setup_samples`` > 1 also boots and stops that many minus one
    throwaway daemons, half before the load and half after it, so one
    slow moment of the host cannot move every sample.  The seconds
    until each socket accepted (the measured daemon's among them) are
    returned alongside the outcome.
    """
    outcome = Outcome()
    jobs = schedule(seed, requests)
    setups = []
    with open(work / "serve.log", "wb") as log:
        def boot(index: int):
            sock = work / f"serve-{index}.sock"
            proc, seconds = spawn(daemon_argv + ["--socket", str(sock),
                                                 "--jobs", str(JOBS)],
                                  sock, env, work, log)
            setups.append(seconds)
            return proc, sock

        def throwaway(indices) -> None:
            for index in indices:
                outcome.problems.extend(f"setup daemon: {problem}"
                                        for problem in stop(*boot(index)))

        extra = range(1, setup_samples)
        throwaway(extra[:len(extra) // 2])
        proc, sock = boot(0)
        try:
            due, sent, arrived, events, stats = asyncio.run(
                _drive(sock, jobs, rate))
        except (OSError, RuntimeError, ValueError,
                asyncio.TimeoutError) as exc:
            outcome.problems.append(
                f"load failed: {type(exc).__name__}: {exc}")
            return outcome, setups
        finally:
            outcome.problems.extend(stop(proc, sock))
        throwaway(extra[len(extra) // 2:])

    good = 0
    for index, event in enumerate(events):
        payload = event["result"]
        latency = arrived[index] - due[index]
        outcome.attempted += 1
        outcome.latencies.append(latency)
        verification = payload.get("verification") or {}
        passed = _passed(payload)
        outcome.records.append((index, passed, verification.get("cycles")))
        if not passed:
            outcome.fail(1, f"request {index} {jobs[index]}: "
                            f"{payload.get('error') or 'FAIL'}")
        elif latency <= DEADLINE:
            good += 1
    late_p99 = percentile([s - d for s, d in zip(sent, due)], 99)
    if late_p99 > MAX_LATE:
        outcome.problems.append(
            f"generator p99 lateness {late_p99 * 1e3:.1f} ms exceeds "
            f"{MAX_LATE * 1e3:.0f} ms: the run measured the generator")
    execute = _histogram(stats, "execute_seconds")
    queue_wait = _histogram(stats, "queue_wait_seconds")
    outcome.extra = {
        "serve.dedup_ratio": stats["cache_served_rate"],
        "serve.executed": stats["executed"],
        # worker busy time over worker time, from the first due time to
        # the last reply
        "serve.utilization":
            execute.total / (JOBS * (max(arrived) - due[0])),
        "serve.gate_memo_p99_us":
            _histogram(stats, "gate_memo_seconds").quantile(0.99) * 1e6,
        "serve.queue_wait_p50_ms": queue_wait.quantile(0.50) * 1e3,
        "serve.queue_wait_p99_ms": queue_wait.quantile(0.99) * 1e3,
        "serve.execute_p50_ms": execute.quantile(0.50) * 1e3,
        "serve.execute_p99_ms": execute.quantile(0.99) * 1e3,
        "serve.steals": stats["steals"],
        "serve.batched_jobs": stats["batched_jobs"],
        "serve.respawns": stats["respawns"],
        "serve.gen_late_p99_ms": late_p99 * 1e3,
        "serve.goodput": good / len(jobs),
        "serve.p99_ms": percentile(outcome.latencies, 99) * 1e3,
    }
    return outcome, setups


def daemon_command(traced_events=None) -> List[str]:
    """The daemon's argv: ``python -m repro serve``, or the launcher
    that installs the benchmark's layer spans first."""
    if traced_events is None:
        return [sys.executable, "-m", "repro", "serve"]
    launcher = Path(__file__).with_name("traced_daemon.py")
    return [sys.executable, str(launcher), str(traced_events)]
