"""The serve scheduler: dedup, coalescing, sharding, stealing, batching.

The parent process owns all scheduling state; workers are pure
executors.  A submitted job flows through four gates, cheapest first:

1. **memo** — a passing payload already produced this session is
   answered immediately, no worker touched.
2. **artifact cache** — the on-disk :class:`ArtifactCache` (shared with
   ``repro suite --cache``) is probed by the identical content-hash
   key; a hit is promoted into the memo and answered immediately.
3. **coalesce** — a job whose key is already in flight (queued or
   executing) attaches its future to the existing execution instead of
   queueing a duplicate; one execution fans out to every waiter.
4. **queue** — the job lands on the deque of the worker its *group*
   key shards to, so same-structure jobs hit the same warm kernel
   cache.

Idle workers first drain their own deque; an empty deque *steals* from
the tail of the longest other deque (the head is the victim's warm,
soon-to-run work; the tail is the coldest).  When a dispatch is taken,
the scheduler gathers up to ``batch_max - 1`` more same-group jobs from
the same deque into one batched dispatch, which the worker runs on the
jobs' own backend, one after another on one elaboration per
configuration.

The workers come from a :class:`~repro.util.pool.ForkPool` (the one
the batch runners use): the scheduler forks one per shard, sends each
dispatch as the pool task ``(workers.execute_jobs, specs)`` and reads
the replies from the event loop.  A worker that dies is forked again
and its jobs go back to the front of its deque, up to ``max_respawns``
times ``jobs`` deaths; past that budget its jobs, and once no worker is
left every queued and later job, resolve to an error payload.  Workers
ignore SIGINT; they exit when the daemon closes their pipes at
shutdown, or at their next read of the pipe once the daemon is gone,
even by SIGKILL.

Results are finalized in the parent: futures resolve, passing payloads
enter the memo, singly-executed passes are written to the artifact
cache (batched lanes are memo-only — their ``simulation_seconds`` is a
share of the batch, which must not masquerade on disk as a plain run),
and one ledger row per job is accumulated for
:meth:`repro.obs.Ledger.record_serve` at shutdown.

Every job is telemetered end to end.  When a trace recorder is
installed, submit opens a detached ``serve.job`` span (adopting the
client's ``trace`` context if the request carried one), the gate
verdict and the queue wait get child spans, and the job's span context
rides the wire to the worker, whose ``serve.execute`` span lands in
the same trace — one Perfetto timeline per job across both processes.
Independently of tracing, the scheduler feeds a fixed set of
:class:`~repro.obs.metrics.Histogram` instruments (per-gate latency,
queue wait, execute time, end-to-end job latency, batch size) whose
snapshots ride :meth:`stats` and whose Prometheus rendering is
:meth:`prometheus`.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import time
from collections import deque
from typing import Deque, Dict, List, Optional, Union

from ..core.cache import ArtifactCache, payload_passed, result_to_payload
from ..core.testsuite import CaseResult
from ..obs.metrics import Histogram, render_prometheus_histogram
from ..obs.trace import start_span
from ..util.pool import ForkPool
from . import workers
from .jobs import JobError, JobSpec, ResolvedJob, resolve_job

__all__ = ["ServeScheduler", "Submission"]

#: admission gates, cheapest first — the order of the latency series in
#: the ``repro_serve_gate_seconds`` histogram family
_GATES = ("memo", "artifact", "coalesce", "queue")

#: stats() keys exported as Prometheus gauges rather than counters
_GAUGE_KEYS = frozenset({
    "workers", "batch_max", "inflight", "memo_entries",
    "wall_seconds", "coalesce_rate", "cache_served_rate",
})


def _make_histograms() -> Dict[str, Histogram]:
    names = [f"gate_{gate}_seconds" for gate in _GATES]
    names += ["queue_wait_seconds", "execute_seconds",
              "job_latency_seconds", "batch_size"]
    return {name: Histogram(name) for name in names}

#: memo entries kept before oldest-first eviction; passing payloads are
#: a few KB each, so this bounds parent memory at a few tens of MB
_MEMO_LIMIT = 4096


class Submission:
    """Handle returned by :meth:`ServeScheduler.submit`.

    ``served`` says how the job was answered: ``queued`` (a worker will
    execute it), ``coalesced`` (rides an in-flight execution),
    ``memo`` / ``artifact`` (answered from cache), or ``invalid`` (the
    request never became a job).  ``future`` resolves to the result
    payload dict (:func:`repro.core.cache.result_to_payload` layout).
    """

    __slots__ = ("key", "served", "future")

    def __init__(self, key: Optional[str], served: str,
                 future: "asyncio.Future") -> None:
        self.key = key
        self.served = served
        self.future = future


class _Queued:
    """One scheduled execution; carries every waiter's future.

    Also carries the telemetry of the execution: the owning job's
    detached span and submit time, the queue-wait span opened at
    enqueue, and the (span, submit-time) of every coalesced waiter —
    all closed at finalize so one reply resolves every timeline.
    """

    __slots__ = ("resolved", "futures", "span", "submitted_at",
                 "queue_span", "enqueued_at", "extra_spans")

    def __init__(self, resolved: ResolvedJob,
                 future: "asyncio.Future") -> None:
        self.resolved = resolved
        self.futures = [future]
        self.span = None
        self.submitted_at = 0.0
        self.queue_span = None
        self.enqueued_at = 0.0
        self.extra_spans: List[tuple] = []

    @property
    def spec(self) -> JobSpec:
        return self.resolved.spec

    @property
    def key(self) -> str:
        return self.resolved.key

    @property
    def group(self) -> str:
        return self.resolved.group


class ServeScheduler:
    """Owns the worker pool and every scheduling decision."""

    def __init__(self, *, jobs: int = 1, batch_max: int = 8,
                 cache: Optional[Union[ArtifactCache, str]] = None,
                 max_respawns: int = 3) -> None:
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        if batch_max < 1:
            raise ValueError(f"batch_max must be >= 1, got {batch_max}")
        if "fork" not in multiprocessing.get_all_start_methods():
            raise RuntimeError(
                "repro serve needs the 'fork' start method (workers "
                "inherit the case registry and kernel caches)")
        self.jobs = jobs
        self.batch_max = batch_max
        if isinstance(cache, str):
            cache = ArtifactCache(cache)
        self.cache = cache
        self.max_respawns = max_respawns
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        #: a worker's ``task`` is the list of jobs it is executing
        self._pool = ForkPool(jobs, None)
        self._deques: List[Deque[_Queued]] = [deque()
                                              for _ in range(jobs)]
        self._inflight: Dict[str, _Queued] = {}
        self._memo: Dict[str, dict] = {}
        self._started: Optional[float] = None
        self._respawns = 0
        self._kick_scheduled = False
        self._closed = False
        self.ledger_rows: List[dict] = []
        self.histograms: Dict[str, Histogram] = _make_histograms()
        self.counters = {
            "submitted": 0, "executed": 0, "completed": 0,
            "coalesced": 0, "memo_hits": 0, "artifact_hits": 0,
            "invalid": 0, "failed": 0,
            "dispatches": 0, "batches": 0, "batched_jobs": 0,
            "steals": 0, "stolen_jobs": 0, "respawns": 0,
        }

    # -- lifecycle ------------------------------------------------------
    async def start(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._started = time.perf_counter()
        for index in range(self.jobs):
            self._spawn(index)

    def _spawn(self, index: int) -> None:
        conn = self._pool.fork(index).conn
        self._loop.add_reader(conn.fileno(), self._on_readable, index)

    async def shutdown(self) -> None:
        """Drain every in-flight job, then stop the workers."""
        while self._inflight:
            futures = [future for queued in self._inflight.values()
                       for future in queued.futures]
            await asyncio.gather(*futures, return_exceptions=True)
        self._closed = True
        for worker in self._pool.workers:
            if not worker.conn.closed:
                self._loop.remove_reader(worker.conn.fileno())
        self._pool.close()

    # -- submission -----------------------------------------------------
    def submit(self, spec: Union[JobSpec, dict]) -> Submission:
        """Admit one job; returns immediately with a Submission whose
        future resolves to the result payload.  Never raises on bad
        requests — anything but a :class:`JobSpec` is validated as wire
        data (a ``null`` or a list included), and a bad request
        resolves to an error payload with ``served='invalid'``.

        A dict spec may carry a ``trace`` context dict (as produced by
        :attr:`repro.obs.trace.Span.context`); the job's span becomes a
        child of the client's span, so the client's own trace file and
        the daemon's stitch into one timeline."""
        loop = asyncio.get_running_loop()
        future = loop.create_future()
        self.counters["submitted"] += 1
        parent = None
        if isinstance(spec, dict) and isinstance(spec.get("trace"), dict):
            parent = spec["trace"]
        job_span = start_span("serve.job", category="serve",
                              parent=parent)
        submitted_at = time.perf_counter()
        try:
            if not isinstance(spec, JobSpec):
                spec = JobSpec.from_dict(spec)
            resolved = resolve_job(spec)
        except JobError as exc:
            self.counters["invalid"] += 1
            if isinstance(spec, JobSpec):
                name = spec.case
            elif isinstance(spec, dict):
                name = spec.get("case", "?")
            else:
                name = "?"
            payload = result_to_payload(
                CaseResult(str(name), None, None, 0.0, error=str(exc)))
            future.set_result(payload)
            job_span.set("case", str(name)).set("served", "invalid")
            job_span.finish()
            # no ledger row: a rejected request never became a job, and
            # a client typo must not mark the serve run as failed (the
            # ``invalid`` counter in the run's extra carries the tally)
            return Submission(None, "invalid", future)

        job_span.set("case", spec.case).set("key", resolved.key[:16])
        gate_span = start_span("serve.gates", category="serve",
                               parent=job_span.context, case=spec.case)
        served, queued = self._admit(resolved, future, job_span,
                                     submitted_at)
        gate_span.set("verdict", served)
        gate_span.finish()
        if served in ("memo", "artifact"):
            # answered on the spot: the job's whole life was the gates
            self.histograms["job_latency_seconds"].observe(
                time.perf_counter() - submitted_at)
            job_span.set("served", served)
            job_span.finish()
        # coalesced/queued spans close at _finalize, with the execution
        return Submission(resolved.key, served, future)

    def _admit(self, resolved: ResolvedJob, future: "asyncio.Future",
               job_span, submitted_at: float) -> tuple:
        """Run the four admission gates, cheapest first, timing each.

        Returns ``(served, queued-or-None)``; resolves *future* itself
        when a gate answers without execution.
        """
        key = resolved.key
        hist = self.histograms
        t0 = time.perf_counter()
        payload = self._memo.get(key)
        hist["gate_memo_seconds"].observe(time.perf_counter() - t0)
        if payload is not None:
            self.counters["memo_hits"] += 1
            future.set_result(payload)
            self._record(payload, cached=True, batch_size=0)
            return "memo", None
        if self.cache is not None:
            t0 = time.perf_counter()
            hit = self.cache.load(key)
            hist["gate_artifact_seconds"].observe(
                time.perf_counter() - t0)
            if hit is not None:
                payload = result_to_payload(hit)
                self._remember(key, payload)
                self.counters["artifact_hits"] += 1
                future.set_result(payload)
                self._record(payload, cached=True, batch_size=0)
                return "artifact", None
        t0 = time.perf_counter()
        queued = self._inflight.get(key)
        hist["gate_coalesce_seconds"].observe(time.perf_counter() - t0)
        if queued is not None:
            self.counters["coalesced"] += 1
            queued.futures.append(future)
            queued.extra_spans.append((job_span, submitted_at))
            return "coalesced", queued

        t0 = time.perf_counter()
        queued = _Queued(resolved, future)
        queued.span = job_span
        queued.submitted_at = submitted_at
        queued.queue_span = start_span("serve.queue", category="serve",
                                       parent=job_span.context,
                                       case=resolved.spec.case)
        queued.enqueued_at = time.perf_counter()
        self._inflight[key] = queued
        shard = resolved.shard(self.jobs)
        self._deques[shard].append(queued)
        self._kick()
        hist["gate_queue_seconds"].observe(time.perf_counter() - t0)
        return "queued", queued

    def _kick(self) -> None:
        """Schedule one dispatch pass per event-loop tick, so a burst
        of submits queues fully before work is handed out — that is
        what gives the batcher same-group jobs to gather."""
        if self._kick_scheduled or self._closed:
            return
        self._kick_scheduled = True
        self._loop.call_soon(self._dispatch_pass)

    def _dispatch_pass(self) -> None:
        self._kick_scheduled = False
        self._dispatch_all()

    # -- dispatch / stealing / batching ---------------------------------
    def _dispatch_all(self) -> None:
        for index, worker in enumerate(self._pool.workers):
            if not worker.conn.closed and worker.task is None:
                batch = self._take_work(index)
                if batch:
                    self._send(index, batch)
        if all(worker.conn.closed for worker in self._pool.workers):
            # the respawn budget is spent and no worker is left
            for shard in self._deques:
                while shard:
                    self._fail(shard.popleft())

    def _take_work(self, index: int) -> List[_Queued]:
        source = self._deques[index]
        stolen = False
        if source:
            first = source.popleft()
        else:
            victim = max(
                (i for i in range(self.jobs) if i != index),
                key=lambda i: len(self._deques[i]), default=None)
            if victim is None or not self._deques[victim]:
                return []
            source = self._deques[victim]
            first = source.pop()
            stolen = True
            self.counters["steals"] += 1
            self.counters["stolen_jobs"] += 1
        batch = [first]
        if self.batch_max > 1 and source and first.resolved.batchable:
            matches = [queued for queued in source
                       if queued.group == first.group]
            matches = matches[:self.batch_max - 1]
            if matches:
                taken = {id(queued) for queued in matches}
                keep = [queued for queued in source
                        if id(queued) not in taken]
                source.clear()
                source.extend(keep)
                batch.extend(matches)
                if stolen:
                    self.counters["stolen_jobs"] += len(matches)
        return batch

    def _send(self, index: int, batch: List[_Queued]) -> None:
        worker = self._pool.workers[index]
        worker.task = batch
        now = time.perf_counter()
        self.histograms["batch_size"].observe(len(batch))
        specs = []
        for queued in batch:
            self.histograms["queue_wait_seconds"].observe(
                now - queued.enqueued_at)
            if queued.queue_span is not None:
                queued.queue_span.set("worker", index)
                queued.queue_span.finish()
                queued.queue_span = None
            spec_dict = queued.spec.to_dict()
            if queued.span is not None \
                    and queued.span.span_id is not None:
                # the job span's context rides the wire; the worker's
                # execute span adopts it on the far side
                spec_dict["trace"] = queued.span.context
            specs.append(spec_dict)
        try:
            worker.conn.send((workers.execute_jobs, specs))
        except OSError:
            self._on_worker_death(index)
            return
        self.counters["dispatches"] += 1
        self.counters["executed"] += len(batch)
        if len(batch) > 1:
            self.counters["batches"] += 1
            self.counters["batched_jobs"] += len(batch)

    # -- results --------------------------------------------------------
    def _on_readable(self, index: int) -> None:
        worker = self._pool.workers[index]
        try:
            while worker.conn.poll():
                ok, entries = worker.conn.recv()
                if not ok:  # execute_jobs raised: handled as a dead worker
                    raise EOFError(entries)
                batch, worker.task = worker.task or [], None
                for queued, entry in zip(batch, entries):
                    self._finalize(queued, entry)
        except (EOFError, OSError):
            self._on_worker_death(index)
            return
        self._dispatch_all()

    def _finalize(self, queued: _Queued, entry: dict) -> None:
        payload = entry["payload"]
        self._inflight.pop(queued.key, None)
        passed = payload_passed(payload)
        if passed:
            self._remember(queued.key, payload)
            if self.cache is not None and entry.get("batch_size", 1) == 1:
                from ..core.cache import result_from_payload
                self.cache.store(queued.key,
                                 result_from_payload(payload))
        else:
            self.counters["failed"] += 1
        self.counters["completed"] += 1
        self._record(payload, cached=False,
                     batch_size=entry.get("batch_size", 1))
        for extra in queued.futures[1:]:
            self._record(payload, cached=True, batch_size=0)
        execute_seconds = entry.get("execute_seconds")
        if execute_seconds is not None:
            self.histograms["execute_seconds"].observe(execute_seconds)
        now = time.perf_counter()
        if queued.queue_span is not None:
            # never dispatched (worker died, budget exhausted): the
            # queue wait still ends here
            queued.queue_span.finish()
            queued.queue_span = None
        if queued.span is not None:
            self.histograms["job_latency_seconds"].observe(
                now - queued.submitted_at)
            queued.span.set("served", "queued").set("passed", passed)
            queued.span.finish()
            queued.span = None
        for job_span, submitted_at in queued.extra_spans:
            self.histograms["job_latency_seconds"].observe(
                now - submitted_at)
            job_span.set("served", "coalesced").set("passed", passed)
            job_span.finish()
        queued.extra_spans = []
        for future in queued.futures:
            if not future.done():
                future.set_result(payload)

    def _on_worker_death(self, index: int) -> None:
        worker = self._pool.workers[index]
        if worker.conn.closed:
            return
        self._loop.remove_reader(worker.conn.fileno())
        worker.conn.close()
        worker.process.join(timeout=5)
        orphans, worker.task = worker.task or [], None
        self._respawns += 1
        self.counters["respawns"] += 1
        if self._closed or self._respawns > self.max_respawns * self.jobs:
            # give up: fail the orphans instead of looping a crash; once
            # no worker is left, a dispatch pass fails the queued jobs
            for queued in orphans:
                self._fail(queued)
            self._kick()
            return
        # put the interrupted jobs back at the front of their shard's
        # deque (they were next in line) and bring up a replacement
        for queued in reversed(orphans):
            self._deques[index].appendleft(queued)
        self._spawn(index)
        self._kick()

    def _fail(self, queued: _Queued) -> None:
        payload = result_to_payload(CaseResult(
            queued.spec.case, None, None, 0.0,
            error="serve worker died and respawn budget is exhausted"))
        self._finalize(queued, {"payload": payload, "batch_size": 1})

    # -- memo / accounting ----------------------------------------------
    def _remember(self, key: str, payload: dict) -> None:
        if key not in self._memo and len(self._memo) >= _MEMO_LIMIT:
            self._memo.pop(next(iter(self._memo)))
        self._memo[key] = payload

    def _record(self, payload: dict, *, cached: bool,
                batch_size: int) -> None:
        v = payload.get("verification") or {}
        self.ledger_rows.append({
            "case": payload.get("case", "?"),
            "passed": payload_passed(payload),
            "cached": cached,
            "error": payload.get("error"),
            "backend": v.get("backend"),
            "cycles": v.get("cycles", 0),
            "evaluations": v.get("evaluations", 0),
            "simulation_seconds": v.get("simulation_seconds", 0.0),
            "golden_seconds": v.get("golden_seconds", 0.0),
            "compile_seconds": payload.get("compile_seconds", 0.0),
            "batch_size": batch_size,
        })

    def stats(self) -> dict:
        counters = dict(self.counters)
        submitted = counters["submitted"] or 1
        served_without_execution = (counters["coalesced"]
                                    + counters["memo_hits"]
                                    + counters["artifact_hits"])
        counters.update({
            "wall_seconds": (time.perf_counter() - self._started
                             if self._started is not None else 0.0),
            "workers": self.jobs,
            "batch_max": self.batch_max,
            "queue_depths": [len(dq) for dq in self._deques],
            "inflight": len(self._inflight),
            "memo_entries": len(self._memo),
            "coalesce_rate": counters["coalesced"] / submitted,
            "cache_served_rate": served_without_execution / submitted,
            "histograms": {name: hist.as_dict()
                           for name, hist in self.histograms.items()
                           if hist.count},
        })
        return counters

    def prometheus(self) -> str:
        """The scheduler's live state as Prometheus text exposition.

        Counters become ``repro_serve_<name>_total``, derived/config
        values become gauges, and every histogram renders as a full
        ``_bucket``/``_sum``/``_count`` family — the four gate
        histograms fold into one ``repro_serve_gate_seconds`` family
        labelled by gate.
        """
        stats = self.stats()
        lines: List[str] = []
        for name in sorted(stats):
            value = stats[name]
            if isinstance(value, bool) or not isinstance(value,
                                                         (int, float)):
                continue
            if name in _GAUGE_KEYS:
                lines.append(f"# TYPE repro_serve_{name} gauge")
                lines.append(f"repro_serve_{name} {value:.9g}")
            else:
                lines.append(f"# TYPE repro_serve_{name}_total counter")
                lines.append(f"repro_serve_{name}_total {value}")
        lines.extend(render_prometheus_histogram(
            "repro_serve_gate_seconds",
            [({"gate": gate}, self.histograms[f"gate_{gate}_seconds"])
             for gate in _GATES],
            "Admission gate latency by gate, seconds"))
        for name, help_text in (
                ("queue_wait_seconds",
                 "Time from enqueue to worker dispatch, seconds"),
                ("execute_seconds",
                 "Per-job worker execution wall time, seconds"),
                ("job_latency_seconds",
                 "End-to-end submit-to-reply latency, seconds"),
                ("batch_size", "Jobs per worker dispatch")):
            lines.extend(render_prometheus_histogram(
                f"repro_serve_{name}", [({}, self.histograms[name])],
                help_text))
        return "\n".join(lines) + "\n"

