"""The ``repro serve`` daemon: verification as a long-lived service.

One asyncio process owns a :class:`~repro.serve.scheduler.ServeScheduler`
and exposes it two ways:

**NDJSON socket** (the primary protocol) — a Unix-domain stream socket
where every request and every reply is one JSON object per line:

* ``{"op": "submit", "id": <any>, "job": {...}}`` — admit a job; the
  verdict arrives later (in completion order, not submit order) as
  ``{"event": "result", "id": <echoed>, "served": ..., "result": ...}``
* ``{"op": "status"}`` → ``{"event": "status", "stats": {...}}``
* ``{"op": "ping"}`` → ``{"event": "pong"}``
* ``{"op": "shutdown"}`` → ``{"event": "shutdown", "stats": {...}}``,
  then the daemon drains in-flight work and exits.
* malformed input → ``{"event": "error", "error": ...}`` (the
  connection stays up; one bad line never kills a stream of good ones)

**HTTP shim** (optional, ``--http PORT``) — a minimal hand-rolled
HTTP/1.0 layer for curl-ability, serving ``GET /healthz``,
``GET /status``, ``GET /metrics`` (live Prometheus text exposition:
serve counters, gauges and the latency histogram families rendered by
:meth:`~repro.serve.scheduler.ServeScheduler.prometheus`) and
``POST /jobs`` (body ``{"jobs": [...]}``; the response blocks until
every submitted job resolves).

A submit op (or a job object) may carry a ``trace`` span context; the
scheduler threads it through the job's entire lifetime, so a tracing
client's timeline continues inside the daemon and its workers.

On shutdown the daemon harvests its ledger exactly as
:meth:`TestSuite.run <repro.core.testsuite.TestSuite.run>` does — one
``serve`` run row plus one row per job — in the parent process only,
after the worker pool has drained, so worker concurrency never reaches
SQLite.
"""

from __future__ import annotations

import asyncio
import json
import signal
from pathlib import Path
from typing import Optional, Union

from .scheduler import ServeScheduler, Submission

__all__ = ["ServeDaemon"]

#: max length of one NDJSON line / HTTP body (a job spec is < 1 KB;
#: this is headroom, not a promise)
_LIMIT = 1 << 20


class ServeDaemon:
    """Bind a scheduler to its sockets and run until told to stop."""

    def __init__(self, scheduler: ServeScheduler, *,
                 socket_path: Union[str, Path],
                 http_port: Optional[int] = None,
                 http_host: str = "127.0.0.1",
                 ledger_path: Optional[Union[str, Path]] = None) -> None:
        self.scheduler = scheduler
        self.socket_path = Path(socket_path)
        self.http_port = http_port
        self.http_host = http_host
        self.ledger_path = ledger_path
        if ledger_path is not None:
            scheduler.ledger_rows = []  # the rows run() harvests
        self._stop = asyncio.Event()
        self._tasks: set = set()
        #: run id of the harvested ledger row (set after run() returns)
        self.ledger_run_id: Optional[int] = None
        #: actual HTTP port once bound (``--http 0`` asks the kernel)
        self.http_bound_port: Optional[int] = None

    # -- lifecycle ------------------------------------------------------
    def request_stop(self) -> None:
        self._stop.set()

    async def run(self, *, install_signal_handlers: bool = True) -> dict:
        """Serve until shutdown is requested; returns the final stats."""
        await self.scheduler.start()
        # bind HTTP before the Unix socket: readiness probes wait for
        # the socket path, so by the time it exists http_bound_port is
        # already published
        http_server = None
        if self.http_port is not None:
            http_server = await asyncio.start_server(
                self._handle_http, host=self.http_host,
                port=self.http_port, limit=_LIMIT)
            self.http_bound_port = \
                http_server.sockets[0].getsockname()[1]
        self.socket_path.parent.mkdir(parents=True, exist_ok=True)
        if self.socket_path.exists():
            self.socket_path.unlink()
        server = await asyncio.start_unix_server(
            self._handle_ndjson, path=str(self.socket_path), limit=_LIMIT)
        loop = asyncio.get_running_loop()
        installed = []
        if install_signal_handlers:
            for signum in (signal.SIGINT, signal.SIGTERM):
                try:
                    loop.add_signal_handler(signum, self._stop.set)
                    installed.append(signum)
                except (NotImplementedError, RuntimeError):
                    pass
        try:
            await self._stop.wait()
            await self.scheduler.shutdown()
            stats = self.scheduler.stats()
        finally:
            for signum in installed:
                loop.remove_signal_handler(signum)
            server.close()
            await server.wait_closed()
            if http_server is not None:
                http_server.close()
                await http_server.wait_closed()
            for task in list(self._tasks):
                task.cancel()
            if self.socket_path.exists():
                self.socket_path.unlink()
        if self.ledger_path is not None:
            from ..obs.ledger import Ledger
            with Ledger(self.ledger_path) as ledger:
                self.ledger_run_id = ledger.record_serve(
                    stats, self.scheduler.ledger_rows)
        return stats

    def _track(self, coro) -> "asyncio.Task":
        task = asyncio.get_running_loop().create_task(coro)
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)
        return task

    # -- NDJSON protocol ------------------------------------------------
    async def _handle_ndjson(self, reader, writer) -> None:
        lock = asyncio.Lock()
        try:
            while True:
                try:
                    line = await reader.readline()
                except (ValueError, ConnectionError):
                    break  # oversized line or peer reset
                if not line:
                    break
                line = line.strip()
                if not line:
                    continue
                await self._handle_op(line, writer, lock)
        except asyncio.CancelledError:
            pass  # daemon shut down with this connection still open
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError, asyncio.CancelledError):
                pass

    async def _handle_op(self, line: bytes, writer, lock) -> None:
        try:
            request = json.loads(line)
        except ValueError as exc:
            await self._write(writer, lock,
                              {"event": "error",
                               "error": f"bad JSON: {exc}"})
            return
        op = request.get("op") if isinstance(request, dict) else None
        if op == "submit":
            job = request.get("job")
            if isinstance(job, dict) and "trace" not in job \
                    and isinstance(request.get("trace"), dict):
                job = dict(job, trace=request["trace"])
            submission = self.scheduler.submit(job)
            self._track(self._deliver(request.get("id"), submission,
                                      writer, lock))
        elif op == "status":
            await self._write(writer, lock,
                              {"event": "status",
                               "stats": self.scheduler.stats()})
        elif op == "ping":
            await self._write(writer, lock, {"event": "pong"})
        elif op == "shutdown":
            await self._write(writer, lock,
                              {"event": "shutdown",
                               "stats": self.scheduler.stats()})
            self._stop.set()
        else:
            await self._write(writer, lock,
                              {"event": "error",
                               "error": f"unknown op {op!r}"})

    async def _deliver(self, request_id, submission: Submission,
                       writer, lock) -> None:
        payload = await submission.future
        event = {"event": "result", "id": request_id,
                 "served": submission.served, "key": submission.key,
                 "result": payload}
        try:
            await self._write(writer, lock, event)
        except (ConnectionError, OSError):
            pass  # client went away; the result stays memoized

    async def _write(self, writer, lock, obj: dict) -> None:
        data = json.dumps(obj, sort_keys=True).encode("utf-8") + b"\n"
        async with lock:
            writer.write(data)
            await writer.drain()

    # -- HTTP shim ------------------------------------------------------
    async def _handle_http(self, reader, writer) -> None:
        try:
            response = await self._http_response(reader)
        except (ValueError, ConnectionError):
            response = (400, {"error": "malformed request"})
        status, body = response[0], response[1]
        content_type = response[2] if len(response) > 2 \
            else "application/json"
        if isinstance(body, str):
            blob = body.encode("utf-8")
        else:
            blob = json.dumps(body, sort_keys=True).encode("utf-8")
        reason = {200: "OK", 400: "Bad Request",
                  404: "Not Found", 405: "Method Not Allowed"}
        head = (f"HTTP/1.0 {status} {reason.get(status, 'Error')}\r\n"
                f"Content-Type: {content_type}\r\n"
                f"Content-Length: {len(blob)}\r\n"
                f"Connection: close\r\n\r\n").encode("ascii")
        try:
            writer.write(head + blob)
            await writer.drain()
        except (ConnectionError, OSError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _http_response(self, reader) -> tuple:
        request_line = (await reader.readline()).decode("ascii",
                                                        "replace")
        parts = request_line.split()
        if len(parts) < 2:
            return 400, {"error": "malformed request line"}
        method, path = parts[0].upper(), parts[1]
        content_length = 0
        while True:
            header = await reader.readline()
            if header in (b"\r\n", b"\n", b""):
                break
            name, _, value = header.decode("ascii", "replace") \
                                   .partition(":")
            if name.strip().lower() == "content-length":
                try:
                    content_length = int(value.strip())
                except ValueError:
                    return 400, {"error": "bad Content-Length"}
        if method == "GET" and path == "/healthz":
            return 200, {"ok": True}
        if method == "GET" and path == "/status":
            return 200, {"stats": self.scheduler.stats()}
        if method == "GET" and path == "/metrics":
            return 200, self.scheduler.prometheus(), \
                "text/plain; version=0.0.4; charset=utf-8"
        if path == "/jobs":
            if method != "POST":
                return 405, {"error": "POST /jobs"}
            if content_length <= 0 or content_length > _LIMIT:
                return 400, {"error": "body required (Content-Length)"}
            body = await reader.readexactly(content_length)
            try:
                parsed = json.loads(body)
            except ValueError as exc:
                return 400, {"error": f"bad JSON body: {exc}"}
            if isinstance(parsed, dict) and "jobs" in parsed:
                jobs = parsed["jobs"]
            elif isinstance(parsed, dict) and "job" in parsed:
                jobs = [parsed["job"]]
            else:
                return 400, {"error": "body must be {'jobs': [...]} "
                                      "or {'job': {...}}"}
            if not isinstance(jobs, list):
                return 400, {"error": "'jobs' must be a list"}
            submissions = [self.scheduler.submit(job) for job in jobs]
            payloads = await asyncio.gather(
                *(s.future for s in submissions))
            return 200, {"results": [
                {"served": s.served, "key": s.key, "result": p}
                for s, p in zip(submissions, payloads)],
                "stats": self.scheduler.stats()}
        return 404, {"error": f"no route {method} {path}"}
