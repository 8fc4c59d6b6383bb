"""Worker-process side of the verification service.

Each worker is a long-lived ``fork`` child of the daemon's
:class:`~repro.util.pool.ForkPool`, holding warm caches — the kernel
codegen cache (:mod:`repro.core.kernelcache`) and every imported module
— so repeat structures skip codegen entirely.  The scheduler sends it a
dispatch as the pool task ``(execute_jobs, [spec_dict, ...])`` and reads
back one entry per job; the pool's rules stop it (it ignores SIGINT and
exits once the daemon closes its pipe or dies).

Spec dicts may carry a ``trace`` span context injected by the
scheduler; the worker adopts it around execution, so its
``serve.execute`` spans (written through the fork-inherited O_APPEND
recorder) nest under the parent's job span in the stitched timeline.
Every result entry reports its ``execute_seconds`` wall share, which
the parent feeds into the serve latency histograms.

A dispatch of one job runs :func:`run_job`, which parses and resolves
the spec and calls :func:`repro.core.testsuite.run_case` — the same
unit of work the suite runner schedules, and the one
``python -m repro.serve.oneshot`` runs.  A dispatch of several
jobs is a *batched* dispatch: the scheduler guarantees they share a
group key (same structure, backend, fsm_mode; different seeds), so the
worker compiles once and runs every stimulus set on the jobs' backend,
one after another on one elaboration per configuration, through
:func:`repro.core.verification.verify_design_batch`.  A batch that
raises (a compile error, a lane that times out) is re-run one job at a
time on the same backend, so each job gets its own verdict or error;
:func:`execute_jobs` itself never raises — every outcome, including
harness bugs, is folded into an error payload so the parent always
gets one entry per job.
"""

from __future__ import annotations

import dataclasses
import time
import traceback
from typing import Any, List, Optional

from ..core.cache import result_to_payload
from ..core.report import collect_metrics
from ..core.testsuite import CaseResult, run_case
from ..core.verification import verify_design_batch
from ..obs.trace import start_span
from .jobs import JobError, JobSpec, resolve_job

__all__ = ["run_job", "execute_jobs", "error_payload"]


def _pop_contexts(spec_dicts: List[dict]) -> List[Optional[dict]]:
    """Strip the scheduler-injected trace contexts off the specs."""
    contexts: List[Optional[dict]] = []
    for spec_dict in spec_dicts:
        context = spec_dict.pop("trace", None) \
            if isinstance(spec_dict, dict) else None
        contexts.append(context if isinstance(context, dict) else None)
    return contexts


def _case_name(spec_dict) -> str:
    return str(spec_dict.get("case", "?")) \
        if isinstance(spec_dict, dict) else "?"


def error_payload(name: str, error: str,
                  trace: Optional[str] = None) -> dict:
    """The payload of a job that never reached a verdict."""
    return result_to_payload(CaseResult(name, None, None, 0.0, error=error,
                                        traceback=trace))


def run_job(spec_dict: dict) -> dict:
    """Run one job spec dict and return its result payload; a spec that
    does not resolve comes back as an error payload naming its case."""
    try:
        spec = JobSpec.from_dict(spec_dict)
        resolved = resolve_job(spec)
    except JobError as exc:
        return error_payload(_case_name(spec_dict), str(exc))
    result = run_case(resolved.case, seed=spec.seed,
                      fsm_mode=spec.fsm_mode, backend=spec.backend)
    return result_to_payload(result)


def _execute_batch(spec_dicts: List[dict]) -> List[dict]:
    """One compile, N lanes on one elaboration per configuration, one
    entry per job (in order)."""
    specs = [JobSpec.from_dict(d) for d in spec_dicts]
    resolved = [resolve_job(s) for s in specs]
    case = resolved[0].case
    started = time.perf_counter()
    design = case.compile()
    compile_share = (time.perf_counter() - started) / len(specs)
    inputs_list = [r.case.inputs(r.spec.seed) for r in resolved]
    batch = verify_design_batch(design, case.func, inputs_list,
                                fsm_mode=specs[0].fsm_mode,
                                backend=specs[0].backend,
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
                        "batch_size": len(specs)})
    return entries


def execute_jobs(state: Any, spec_dicts: List[dict]) -> List[dict]:
    """Run a dispatch; always returns one entry per job, never raises.

    A serve pool task: *state* is the pool's (``None``).  Each returned
    entry carries ``execute_seconds`` (this job's share of the dispatch
    wall time), and when trace contexts rode in, one ``serve.execute``
    span per job is recorded in this worker's pid.
    """
    contexts = _pop_contexts(spec_dicts)
    if len(spec_dicts) > 1:
        spans = [start_span("serve.execute", category="serve",
                            parent=context, case=_case_name(spec_dict),
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
            # the batch raised; singles follow with their own spans,
            # so this one records only the failed attempt
            span.set("degraded", True)
            span.finish()
    entries = []
    for spec_dict, context in zip(spec_dicts, contexts):
        span = start_span("serve.execute", category="serve",
                          parent=context, case=_case_name(spec_dict),
                          batch=1)
        started = time.perf_counter()
        try:
            payload = run_job(spec_dict)
        except Exception as exc:  # noqa: BLE001 - worker boundary
            payload = error_payload(
                _case_name(spec_dict), f"{type(exc).__name__}: {exc}",
                traceback.format_exc())
        entries.append({"payload": payload, "batch_size": 1,
                        "execute_seconds": time.perf_counter() - started})
        span.finish()
    return entries
