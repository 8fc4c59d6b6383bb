"""Per-layer spans for the traced benchmark run, and their accounting.

:func:`wrap_layers` rebinds each layer's public call site to a wrapper
that opens a ``bench.<layer>`` span while a
:class:`repro.obs.trace.TraceRecorder` is installed.  Fork workers
(suite pool, campaign pool, serve workers) inherit both, and their
spans land in the same O_APPEND events file.  Nothing inside ``src/``
changes: the spans live at the boundaries the benchmark can reach from
outside.

:func:`account` turns the events file into per-layer metrics.  A span's
self time is its duration minus the union of the intervals of the bench
spans nested directly inside it in the same process.  (The program's
own spans sit between bench spans, so nesting is read from the
intervals, not from parent ids.)  Self times of the layer spans
partition the traced busy time of every process; what the layers leave
uncovered inside a unit of work is reported as ``unattributed.s``.
"""

from __future__ import annotations

import bisect
import contextlib
import functools
import json
import os
import time
from collections import defaultdict
from typing import Dict, Iterable, List, Optional, Tuple

from repro.obs import trace

CATEGORY = "bench"

#: one unit of work in the benchmark process (a suite run, a campaign)
ROOT = "bench.iteration"

#: instant event for one kernel-cache lookup
LOOKUP = "bench.kernel_lookup"

#: spans that run one pool task; their self time is harness overhead
TASKS = ("bench.case", "bench.inject_run", "bench.serve_execute")

#: span name -> per-layer metric fed by the span's self time
LAYER_OF = {
    "bench.compile": "compiler.glue.s",
    "bench.compile.frontend": "compiler.frontend.s",
    "bench.compile.passes": "compiler.passes.s",
    "bench.compile.schedule": "compiler.schedule.s",
    "bench.compile.datapath": "compiler.datapath.s",
    "bench.compile.fsm": "compiler.fsm.s",
    "bench.elaborate": "translate.elaborate.s",
    "bench.kernel_build": "sim.kernel_build.s",
    "bench.sim_run": "sim.run.s",
    "bench.inject_arm": "inject.arm.s",
    "bench.inject_run": "inject.run.s",
    "bench.golden": "golden.s",
    "bench.compare": "compare.s",
    "bench.report": "report.s",
    "bench.rtg": "rtg.self.s",
    "bench.stimulus": "suite.stimulus.s",
    "bench.serve_resolve": "serve.resolve.s",
}


# ----------------------------------------------------------------------
# Wrappers
# ----------------------------------------------------------------------
def _traced(name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if trace.active_recorder() is None:
            return fn(*args, **kwargs)
        with trace.span(name, CATEGORY):
            return fn(*args, **kwargs)
    return wrapper


def _traced_run_to_done(original):
    @functools.wraps(original)
    def run_to_done(self, *args, **kwargs):
        if trace.active_recorder() is None:
            return original(self, *args, **kwargs)
        # run_cycles(0) forces codegen or a kernel-cache load and then
        # settles, which the original call does first anyway
        with trace.span("bench.kernel_build", CATEGORY):
            self.sim.run_cycles(0)
        with trace.span("bench.sim_run", CATEGORY) as span:
            cycles = original(self, *args, **kwargs)
            span.set("cycles", cycles)
        return cycles
    return run_to_done


def _traced_lane_batch(original):
    @functools.wraps(original)
    def run(self, *args, **kwargs):
        if trace.active_recorder() is None:
            return original(self, *args, **kwargs)
        with trace.span("bench.sim_run", CATEGORY) as span:
            report = original(self, *args, **kwargs)
            span.set("cycles", sum(report.cycles))
        return report
    return run


def _traced_cache_get(original):
    @functools.wraps(original)
    def get(self, kind, key):
        found = original(self, kind, key)
        if trace.active_recorder() is not None:
            # one event per lookup, in whichever process made it: the
            # keys tell a kernel built twice in two workers from two
            # kernels, which the per-process counters cannot
            trace.event(LOOKUP, CATEGORY, key=f"{kind}:{key}",
                        hit=found[0] is not None)
        return found
    return get


def _traced_suite_case(original):
    @functools.wraps(original)
    def suite_case(*args, **kwargs):
        case = original(*args, **kwargs)
        if case.inputs is not None:
            case.inputs = _traced("bench.stimulus", case.inputs)
        return case
    return suite_case


def _patch(owner, attr: str, make) -> None:
    setattr(owner, attr, make(getattr(owner, attr)))


def wrap_layers() -> None:
    """Wrap every layer call site, for the life of the process (and of
    its fork children).  A wrapper records only while a recorder is
    installed and otherwise calls straight through."""
    import repro.apps.registry as registry
    import repro.compiler.pipeline as pipeline
    import repro.core.testsuite as testsuite
    import repro.core.verification as verification
    import repro.inject.campaign as campaign
    import repro.rtg.executor as executor
    import repro.serve.jobs as jobs
    import repro.serve.workers as workers
    from repro.core.kernelcache import KernelCache
    from repro.sim.batched import LaneBatch
    from repro.translate.to_sim import SimDesign

    def span_as(name):
        return lambda fn: _traced(name, fn)

    _patch(testsuite, "compile_function", span_as("bench.compile"))
    for attr, name in (("parse_function", "bench.compile.frontend"),
                       ("optimize", "bench.compile.passes"),
                       ("schedule_cfg", "bench.compile.schedule"),
                       ("generate_datapath", "bench.compile.datapath"),
                       ("generate_fsm", "bench.compile.fsm")):
        _patch(pipeline, attr, span_as(name))
    _patch(testsuite, "_run_case", span_as("bench.case"))
    _patch(workers, "execute_jobs", span_as("bench.serve_execute"))
    # a worker resolves each job again: the case build and key hashing
    _patch(workers, "resolve_job", span_as("bench.serve_resolve"))
    for module in (testsuite, workers):
        _patch(module, "collect_metrics", span_as("bench.report"))
    for module in (verification, campaign):
        _patch(module, "run_golden", span_as("bench.golden"))
        _patch(module, "compare_images", span_as("bench.compare"))
    _patch(executor, "build_simulation", span_as("bench.elaborate"))
    _patch(executor.RtgExecutor, "run", span_as("bench.rtg"))
    _patch(executor.RtgBatchExecutor, "run", span_as("bench.rtg"))
    _patch(campaign, "attach_fault", span_as("bench.inject_arm"))
    _patch(campaign, "run_injection", span_as("bench.inject_run"))
    _patch(SimDesign, "run_to_done", _traced_run_to_done)
    _patch(LaneBatch, "run", _traced_lane_batch)
    _patch(KernelCache, "get", _traced_cache_get)
    _patch(registry, "suite_case", _traced_suite_case)
    _patch(jobs, "suite_case", _traced_suite_case)


class UnitTracer:
    """Opens one ``bench.iteration`` root per unit of work.

    With an events path, every other unit records (odd indices) and the
    rest run bare, so one run yields both the per-layer split and an
    interleaved measure of what tracing costs.  Without one, no unit
    records, and warm-up units (negative indices) never do.  Pool
    workers forked inside a unit inherit its state.
    """

    def __init__(self, events_path=None) -> None:
        self.recorder = (trace.TraceRecorder(events_path)
                         if events_path is not None else None)

    @contextlib.contextmanager
    def unit(self, index: int):
        """Yields whether this unit records."""
        if self.recorder is None or index < 0 or index % 2 == 0:
            yield False
            return
        trace.install(self.recorder)
        try:
            with trace.span(ROOT, CATEGORY):
                yield True
        finally:
            trace.uninstall()

    def close(self) -> None:
        if self.recorder is not None:
            self.recorder.close()


def span_cost(scratch_path, samples: int = 2000) -> float:
    """Seconds one wrapped call adds over a bare call, with a recorder.

    A lower bound on the cost of one recorded event (the real spans
    carry attributes and cold caches).  Measured on a throwaway
    recorder, which is uninstalled again afterwards.
    """
    def noop():
        return None

    wrapped = _traced("bench.calibrate", noop)
    recorder = trace.install(trace.TraceRecorder(scratch_path))
    try:
        started = time.perf_counter()
        for _ in range(samples):
            wrapped()
        traced = time.perf_counter() - started
        started = time.perf_counter()
        for _ in range(samples):
            noop()
        bare = time.perf_counter() - started
    finally:
        trace.uninstall()
        recorder.close()
        os.unlink(scratch_path)
    return max(traced - bare, 0.0) / samples


# ----------------------------------------------------------------------
# Accounting
# ----------------------------------------------------------------------
class _Span:
    __slots__ = ("name", "pid", "start", "end", "args")

    def __init__(self, event: dict) -> None:
        self.name = event["name"]
        self.pid = event["pid"]
        self.start = event["ts"] / 1e6
        self.end = self.start + event.get("dur", 0) / 1e6
        self.args = event.get("args") or {}

    @property
    def duration(self) -> float:
        return self.end - self.start


def read_events(path) -> Tuple[List[_Span], int]:
    """Bench spans (kernel-cache lookups as zero-length ones) from a
    JSONL events file, plus the count of every recorded event (the
    program's own spans cost time too)."""
    spans: List[_Span] = []
    total = 0
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            try:
                event = json.loads(line)
            except ValueError:
                continue  # a torn line from a killed worker
            total += 1
            if event.get("cat") == CATEGORY:
                spans.append(_Span(event))
    return spans, total


def _union(intervals: Iterable[Tuple[float, float]]) -> float:
    covered = 0.0
    reach = None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            covered += end - start
            reach = end
        elif end > reach:
            covered += end - reach
            reach = end
    return covered


def _self_times(spans: List[_Span]) -> Dict[int, float]:
    """Self time per span (keyed by ``id``), nesting read per process."""
    by_pid: Dict[int, List[_Span]] = defaultdict(list)
    for span in spans:
        by_pid[span.pid].append(span)
    covered: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for group in by_pid.values():
        group.sort(key=lambda s: (s.start, -s.end))
        stack: List[_Span] = []
        for span in group:
            while stack and span.start >= stack[-1].end:
                stack.pop()
            if stack:
                parent = stack[-1]
                covered[id(parent)].append(
                    (span.start, min(span.end, parent.end)))
            stack.append(span)
    return {id(span): span.duration - _union(covered[id(span)])
            for span in spans}


def _pool_window(tasks: List[_Span], lanes: int) -> Tuple[float, float]:
    """Idle lane time and the longest task within one pool window."""
    if not tasks:
        return 0.0, 0.0
    lo = min(task.start for task in tasks)
    hi = max(task.end for task in tasks)
    by_pid: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for task in tasks:
        by_pid[task.pid].append((task.start, task.end))
    busy = sum(_union(group) for group in by_pid.values())
    return (max(lanes * (hi - lo) - busy, 0.0),
            max(task.duration for task in tasks))


def _by_root(spans: List[_Span]) -> List[Tuple[_Span, List[_Span]]]:
    """Each ``bench.iteration`` root with the spans that start inside it
    (in any process); spans outside every root are set-up work."""
    roots = sorted((s for s in spans if s.name == ROOT),
                   key=lambda s: s.start)
    starts = [root.start for root in roots]
    members: List[List[_Span]] = [[] for _ in roots]
    for span in spans:
        slot = bisect.bisect_right(starts, span.start) - 1
        if span.name != ROOT and slot >= 0 \
                and span.start < roots[slot].end:
            members[slot].append(span)
    return list(zip(roots, members))


def account(spans: List[_Span], *, units: int, lanes: int,
            main_pid: Optional[int]) -> Dict[str, float]:
    """Per-layer metrics, in seconds per unit of work unless noted.

    ``main_pid`` recorded the ``bench.iteration`` roots; each root is
    one unit, only spans inside a root count, and tasks in any other
    pid ran on one of ``lanes`` pool workers.  Without roots (the serve
    daemon) the whole trace is one pool window over ``units`` units.
    ``trace.busy.s`` is the summed self time of every counted span: the
    process time the trace explains.  ``kernelcache.misses`` counts the
    distinct kernels missed per unit, wherever they missed: a pool
    worker's memory cache misses a kernel its sibling already built,
    so raw miss counts depend on which worker ran which task.
    """
    groups = _by_root(spans)
    unattributed = idle = critical = 0.0
    if groups:
        units = len(groups)
        units_of_work = [members for _, members in groups]
        wall = sum(root.duration for root, _ in groups)
        for root, members in groups:
            # wall time during which no process ran any traced layer:
            # pool start-up and teardown, result transfer, bookkeeping
            unattributed += root.duration - _union(
                (s.start, min(s.end, root.end)) for s in members)
            window_idle, longest = _pool_window(
                [s for s in members
                 if s.name in TASKS and s.pid != main_pid], lanes)
            idle += window_idle
            critical += longest / len(groups)
    else:
        units_of_work = [spans]
        idle, critical = _pool_window(
            [s for s in spans if s.name in TASKS], lanes)
        wall = (max(s.end for s in spans) - min(s.start for s in spans)
                if spans else 0.0)

    counted = [span for members in units_of_work for span in members]
    lookups = [span.args["hit"] for span in counted if span.name == LOOKUP]
    missed = sum(len({span.args["key"] for span in members
                      if span.name == LOOKUP and not span.args["hit"]})
                 for members in units_of_work)
    self_time = _self_times(counted)
    totals: Dict[str, float] = defaultdict(float)
    compiler = 0.0
    cycles = 0
    for span in counted:
        layer = LAYER_OF.get(span.name)
        if layer is not None:
            totals[layer] += self_time[id(span)]
        elif span.name in TASKS:
            unattributed += self_time[id(span)]
        if span.name == "bench.compile":
            compiler += span.duration
        cycles += int(span.args.get("cycles") or 0)

    per_unit = 1.0 / max(units, 1)
    metrics = {layer: totals[layer] * per_unit
               for layer in LAYER_OF.values()}
    sim_run = totals["sim.run.s"]
    metrics.update({
        # the compiler as a whole: its stages plus the glue between them
        "compiler.s": compiler * per_unit,
        "kernelcache.hit_ratio": sum(lookups) / len(lookups)
        if lookups else 0.0,
        "kernelcache.misses": missed * per_unit,
        "sim.cycles": cycles * per_unit,
        "sim.cycles_per_s": cycles / sim_run if sim_run else 0.0,
        "suite.pool_idle.s": idle * per_unit,
        "suite.critical_case.s": critical,
        "unattributed.s": unattributed * per_unit,
        "trace.wall.s": wall * per_unit,
        "trace.busy.s": sum(self_time.values()) * per_unit,
    })
    return metrics
