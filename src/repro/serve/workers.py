"""Worker-process side of the verification service.

Each worker is a long-lived ``fork`` child holding warm caches — the
kernel codegen cache (:mod:`repro.core.kernelcache`) and every imported
module — so repeat structures skip codegen entirely.  The parent talks
to it over a :func:`multiprocessing.Pipe`:

* parent → worker: ``("run", dispatch_id, [spec_dict, ...])``
* worker → parent: ``("done", dispatch_id, [entry, ...])``
* parent → worker: ``("exit",)`` (or just closing the pipe)

Spec dicts may carry a ``trace`` span context injected by the
scheduler; the worker adopts it around execution, so its
``serve.execute`` spans (written through the fork-inherited O_APPEND
recorder) nest under the parent's job span in the stitched timeline.
Every result entry reports its ``execute_seconds`` wall share, which
the parent feeds into the serve latency histograms.

A dispatch of one job runs :func:`repro.core.testsuite.run_case` — the
same unit of work the suite runner schedules.  A dispatch of several
jobs is a *batched* dispatch: the scheduler guarantees they share a
group key (same structure, backend, fsm_mode; different seeds), so the
worker compiles once and advances every stimulus set in lockstep
through :func:`repro.core.verification.verify_design_batch`.  Any
failure of the batch path degrades to per-job single execution with
identical verdict semantics; the worker itself never raises — every
outcome, including harness bugs, is folded into an error payload so the
parent always gets one entry per job.
"""

from __future__ import annotations

import dataclasses
import signal
import time
import traceback
from typing import List, Optional, Sequence

from ..core.cache import result_to_payload
from ..core.report import collect_metrics
from ..core.testsuite import CaseResult, run_case
from ..core.verification import verify_design_batch
from ..obs.trace import start_span
from .jobs import JobError, JobSpec, resolve_job

__all__ = ["worker_main", "execute_jobs"]


def _pop_contexts(spec_dicts: List[dict]) -> List[Optional[dict]]:
    """Strip the scheduler-injected trace contexts off the specs."""
    contexts: List[Optional[dict]] = []
    for spec_dict in spec_dicts:
        context = spec_dict.pop("trace", None) \
            if isinstance(spec_dict, dict) else None
        contexts.append(context if isinstance(context, dict) else None)
    return contexts


def _error_entry(name: str, error: str,
                 trace: Optional[str] = None) -> dict:
    result = CaseResult(name, None, None, 0.0, error=error,
                        traceback=trace)
    return {"payload": result_to_payload(result),
            "batch_size": 1, "batch_ok": True}


def _execute_single(spec_dict: dict) -> dict:
    try:
        spec = JobSpec.from_dict(spec_dict)
        resolved = resolve_job(spec)
    except JobError as exc:
        name = spec_dict.get("case", "?") \
            if isinstance(spec_dict, dict) else "?"
        return _error_entry(str(name), str(exc))
    result = run_case(resolved.case, seed=spec.seed,
                      fsm_mode=spec.fsm_mode, backend=spec.backend)
    return {"payload": result_to_payload(result),
            "batch_size": 1, "batch_ok": True}


def _execute_batch(spec_dicts: List[dict]) -> List[dict]:
    """One compile, N lockstep lanes, one entry per job (in order)."""
    specs = [JobSpec.from_dict(d) for d in spec_dicts]
    resolved = [resolve_job(s) for s in specs]
    case = resolved[0].case
    started = time.perf_counter()
    design = case.compile()
    compile_share = (time.perf_counter() - started) / len(specs)
    inputs_list = [r.case.inputs(r.spec.seed) for r in resolved]
    batch = verify_design_batch(design, case.func, inputs_list,
                                fsm_mode=specs[0].fsm_mode,
                                max_cycles=case.max_cycles)
    base = collect_metrics(design, simulation_seconds=0.0, cycles=0,
                           backend=batch.backend)
    entries = []
    for lane in batch.lanes:
        metrics = dataclasses.replace(
            base, simulation_seconds=lane.simulation_seconds,
            cycles=lane.cycles)
        result = CaseResult(case.name, lane, metrics, compile_share)
        entries.append({"payload": result_to_payload(result),
                        "batch_size": len(specs),
                        "batch_ok": batch.batched})
    return entries


def execute_jobs(spec_dicts: List[dict]) -> List[dict]:
    """Run a dispatch; always returns one entry per job, never raises.

    Each returned entry carries ``execute_seconds`` (this job's share
    of the dispatch wall time), and when trace contexts rode in, one
    ``serve.execute`` span per job is recorded in this worker's pid.
    """
    contexts = _pop_contexts(spec_dicts)
    if len(spec_dicts) > 1:
        spans = [start_span("serve.execute", category="serve",
                            parent=context,
                            case=spec_dict.get("case", "?")
                            if isinstance(spec_dict, dict) else "?",
                            batch=len(spec_dicts))
                 for spec_dict, context in zip(spec_dicts, contexts)]
        started = time.perf_counter()
        try:
            entries = _execute_batch(spec_dicts)
        except Exception:  # noqa: BLE001 - degrade, don't die
            entries = None
        wall = time.perf_counter() - started
        if entries is not None:
            for entry in entries:
                entry["execute_seconds"] = wall / len(entries)
            for span in spans:
                span.finish()
            return entries
        for span in spans:
            # the lockstep path refused; singles follow with their own
            # spans, so this one records only the failed attempt
            span.set("degraded", True)
            span.finish()
    entries = []
    for spec_dict, context in zip(spec_dicts, contexts):
        span = start_span("serve.execute", category="serve",
                          parent=context,
                          case=spec_dict.get("case", "?")
                          if isinstance(spec_dict, dict) else "?",
                          batch=1)
        started = time.perf_counter()
        try:
            entry = _execute_single(spec_dict)
        except Exception as exc:  # noqa: BLE001 - worker boundary
            name = spec_dict.get("case", "?") \
                if isinstance(spec_dict, dict) else "?"
            entry = _error_entry(
                str(name), f"{type(exc).__name__}: {exc}",
                traceback.format_exc())
        entry["execute_seconds"] = time.perf_counter() - started
        span.finish()
        entries.append(entry)
    return entries


def worker_main(conn, inherited: Sequence = ()) -> None:
    """Child-process loop: receive dispatches until exit/EOF.

    SIGINT is ignored so a Ctrl-C aimed at the daemon can't kill a
    worker mid-result; shutdown arrives as an ``exit`` message or pipe
    close, both of which exit cleanly.  *inherited* are the daemon's
    ends of the worker pipes that came along over ``fork``; they are
    closed first, because while any copy of this worker's daemon end
    stays open, ``recv`` never sees EOF and a daemon that dies by
    SIGKILL leaves the worker running.
    """
    for other in inherited:
        other.close()
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    except (ValueError, OSError):  # not the main thread of the child
        pass
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError, KeyboardInterrupt):
            break
        if not isinstance(message, tuple) or not message \
                or message[0] != "run":
            break
        _, dispatch_id, spec_dicts = message
        entries = execute_jobs(spec_dicts)
        try:
            conn.send(("done", dispatch_id, entries))
        except (BrokenPipeError, OSError):
            break
    try:
        conn.close()
    except OSError:
        pass
