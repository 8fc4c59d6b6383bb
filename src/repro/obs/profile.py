"""Kernel hot-spot profiler: where do the simulated cycles go?

The compiled/traced backends already maintain per-FSM-state occupancy
counts inside the generated runner (they are how ``_post_run`` computes
evaluation totals), and coverage threads extra instrumentation through
codegen without touching the event kernel.  This module combines the
two into a profiler: instrumenting the kernel with timers
(``sim.instrument(timers=True)``) regenerates it with a wall-clock
accumulator per FSM state and per fused trace segment, folded into the
simulator's :class:`~repro.sim.compiled.KernelTally` next to the
per-state cycles, so after a run every simulated cycle is attributable
to a *named* piece of the design — ``S3`` or ``loop:S2->S4`` — and the
wall time tells which of them the Python kernel actually spends its
time in.

:class:`KernelProfiler` is an attach/collect observer with the same
duck-typed shape as :class:`repro.obs.coverage.CoverageCollector`, so
:class:`repro.rtg.executor.RtgExecutor` drives it per configuration
with zero executor changes.  :func:`profile_case` runs one registered
benchmark under it and returns a :class:`ProfileReport`, which renders
a terminal table and a collapsed-stack file (``frame;frame count``
lines) that flamegraph.pl / speedscope / inferno accept directly.

Cycle attribution is exact: the per-state counts cover every fast-path
cycle, and fused-trace cycles are redistributed to their member states
(one cycle per state per iteration), so the attributed total equals
the kernel's cycle count whenever the fast path ran.  A fallback to
the event kernel shows up as a low attribution ratio and is reported,
never silently absorbed.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Tuple, Union

__all__ = ["ProfileError", "KernelProfiler", "ProfileFrame",
           "ProfileReport", "profile_case"]


class ProfileError(RuntimeError):
    """The request cannot be profiled (unknown case, no compiled
    kernel, event-kernel fallback with nothing attributed)."""


class KernelProfiler:
    """Attach/collect observer enabling profiled codegen per design.

    Mirrors the :class:`~repro.obs.coverage.CoverageCollector` protocol
    (``attach(design)`` before a configuration runs, ``collect(design)``
    after), so it plugs into :class:`repro.rtg.executor.RtgExecutor`'s
    ``coverage`` seat.  Snapshots merge by configuration name across
    reconfigurations.
    """

    def __init__(self) -> None:
        #: configuration name -> {"states", "traces"}
        self.configurations: Dict[str, Dict[str, Any]] = {}
        #: human-readable reasons any configuration escaped profiling
        self.fallbacks: List[str] = []

    # ------------------------------------------------------------------
    @staticmethod
    def _name(design) -> str:
        datapath = getattr(design, "datapath", None)
        return getattr(datapath, "name", None) \
            or getattr(design.sim, "name", "design")

    def attach(self, design) -> None:
        from ..sim.compiled import CompiledSimulator
        from ..sim.trace import TracedSimulator

        sim = design.sim
        if isinstance(sim, CompiledSimulator):
            sim.instrument(timers=True)
            if isinstance(sim, TracedSimulator):
                # profile the fused traces, however short the run
                sim.promote_after = 0
        else:
            self.fallbacks.append(
                f"{self._name(design)}: backend {type(sim).__name__} "
                f"has no compiled kernel to instrument")

    def collect(self, design) -> None:
        from ..sim.compiled import CompiledSimulator

        sim = design.sim
        if not isinstance(sim, CompiledSimulator):
            return
        if sim.fallback_reason is not None:
            self.fallbacks.append(
                f"{self._name(design)}: fell back to the event kernel "
                f"({sim.fallback_reason})")
        # per-state cycles include the cycles run inside fused traces,
        # which :meth:`report` takes off again
        tally = sim.tally
        if not tally.cycles and not tally.traces:
            return
        slot = self.configurations.setdefault(
            self._name(design), {"states": {}, "traces": {}})
        for state, cycles in tally.cycles.items():
            into = slot["states"].setdefault(
                state, {"cycles": 0, "wall_ns": 0})
            into["cycles"] += cycles
            into["wall_ns"] += tally.wall_ns.get(state, 0)
        for name, entry in tally.traces.items():
            into = slot["traces"].setdefault(
                name, {"cycles": 0, "wall_ns": 0,
                       "states": list(entry["states"]),
                       "kind": entry["kind"],
                       "cycles_per_iteration":
                           entry["cycles_per_iteration"]})
            into["cycles"] += entry["cycles"]
            into["wall_ns"] += entry["wall_ns"]

    # ------------------------------------------------------------------
    def report(self, *, case: str, backend: str, total_cycles: int,
               wall_seconds: float = 0.0) -> "ProfileReport":
        """Fold every collected configuration into one report.

        ``total_cycles`` is the executor-reported cycle total — the
        denominator of the attribution ratio, so event-kernel cycles
        the profiler never saw lower the score instead of hiding.
        """
        if not self.configurations:
            detail = "; ".join(self.fallbacks) \
                or "no kernel cycles were attributed"
            raise ProfileError(f"nothing to profile for {case!r}: "
                               f"{detail}")
        frames: List[ProfileFrame] = []
        attributed = 0
        wall_ns = 0
        multi = len(self.configurations) > 1
        for cfg_name in sorted(self.configurations):
            snapshot = self.configurations[cfg_name]
            root: Tuple[str, ...] = (cfg_name,) if multi else ()
            residual = {state: entry["cycles"]
                        for state, entry in snapshot["states"].items()}
            for trace_name in sorted(snapshot["traces"]):
                entry = snapshot["traces"][trace_name]
                span = entry["cycles_per_iteration"] \
                    or len(entry["states"]) or 1
                iterations = entry["cycles"] // span
                frames.append(ProfileFrame(
                    path=root + (trace_name,), kind="trace",
                    cycles=entry["cycles"], wall_ns=entry["wall_ns"]))
                wall_ns += entry["wall_ns"]
                for state in entry["states"]:
                    frames.append(ProfileFrame(
                        path=root + (trace_name, state),
                        kind="trace-state", cycles=iterations,
                        wall_ns=0))
                    residual[state] = residual.get(state, 0) - iterations
            for state in sorted(snapshot["states"]):
                cycles = max(residual.get(state, 0), 0)
                state_wall = snapshot["states"][state]["wall_ns"]
                if cycles or state_wall:
                    frames.append(ProfileFrame(
                        path=root + (state,), kind="state",
                        cycles=cycles, wall_ns=state_wall))
                wall_ns += state_wall
            attributed += sum(entry["cycles"]
                              for entry in snapshot["states"].values())
        return ProfileReport(
            case=case, backend=backend, total_cycles=total_cycles,
            attributed_cycles=attributed, wall_ns=wall_ns,
            wall_seconds=wall_seconds, frames=frames,
            fallbacks=list(self.fallbacks))


@dataclass
class ProfileFrame:
    """One attribution frame: a state, a fused trace, or a state
    inside a fused trace (``path`` is the stack under the case root)."""

    path: Tuple[str, ...]
    kind: str  # "state" | "trace" | "trace-state"
    cycles: int
    wall_ns: int


@dataclass
class ProfileReport:
    """Everything :func:`profile_case` learned about one benchmark."""

    case: str
    backend: str
    #: executor-reported cycles (attribution denominator)
    total_cycles: int
    #: cycles the instrumented kernels accounted to named frames
    attributed_cycles: int
    #: wall time accounted to frames by the in-kernel clocks
    wall_ns: int
    #: end-to-end wall of the profiled execution
    wall_seconds: float
    frames: List[ProfileFrame] = field(default_factory=list)
    fallbacks: List[str] = field(default_factory=list)

    @property
    def attribution(self) -> float:
        """Fraction of simulated cycles attributed to named frames."""
        if self.total_cycles <= 0:
            return 1.0 if self.attributed_cycles else 0.0
        return self.attributed_cycles / self.total_cycles

    # ------------------------------------------------------------------
    def collapsed_lines(self) -> List[str]:
        """Flamegraph collapsed-stack lines, cycle-weighted.

        Leaf frames only (a trace's cycles are the sum of its member
        states' lines, so emitting both would double the trace), each
        ``case;frame[;frame] <cycles>``.
        """
        lines = []
        for frame in self.frames:
            if frame.kind == "trace" or frame.cycles <= 0:
                continue
            stack = ";".join((self.case,) + frame.path)
            lines.append(f"{stack} {frame.cycles}")
        return lines

    def write_collapsed(self, path: Union[str, Path]) -> Path:
        path = Path(path)
        if path.parent and not path.parent.exists():
            path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("\n".join(self.collapsed_lines()) + "\n")
        return path

    def as_dict(self) -> Dict[str, Any]:
        return {
            "case": self.case,
            "backend": self.backend,
            "total_cycles": self.total_cycles,
            "attributed_cycles": self.attributed_cycles,
            "attribution": round(self.attribution, 6),
            "wall_ns": self.wall_ns,
            "wall_seconds": round(self.wall_seconds, 6),
            "fallbacks": self.fallbacks,
            "frames": [{"path": list(frame.path), "kind": frame.kind,
                        "cycles": frame.cycles,
                        "wall_ns": frame.wall_ns}
                       for frame in self.frames],
        }

    def write_json(self, path: Union[str, Path]) -> Path:
        path = Path(path)
        if path.parent and not path.parent.exists():
            path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.as_dict(), indent=2) + "\n")
        return path

    def format(self, top: int = 15) -> str:
        """Terminal table: hottest frames by cycles, wall alongside."""
        rows = [frame for frame in self.frames
                if frame.kind != "trace-state"]
        rows.sort(key=lambda frame: (-frame.cycles, -frame.wall_ns))
        total = max(self.total_cycles, 1)
        total_wall = max(self.wall_ns, 1)
        lines = [
            f"kernel profile: {self.case} ({self.backend}) — "
            f"{self.total_cycles} cycle(s), "
            f"{self.attribution:.1%} attributed, "
            f"{self.wall_ns / 1e6:.1f} ms in-kernel wall",
            f"  {'frame':<34} {'cycles':>12} {'cyc%':>6} "
            f"{'wall ms':>9} {'wall%':>6}",
        ]
        for frame in rows[:top]:
            label = "/".join(frame.path)
            lines.append(
                f"  {label:<34} {frame.cycles:>12} "
                f"{frame.cycles / total:>6.1%} "
                f"{frame.wall_ns / 1e6:>9.2f} "
                f"{frame.wall_ns / total_wall:>6.1%}")
        if len(rows) > top:
            rest = rows[top:]
            lines.append(
                f"  {'… ' + str(len(rest)) + ' more':<34} "
                f"{sum(frame.cycles for frame in rest):>12}")
        for reason in self.fallbacks:
            lines.append(f"  [fallback] {reason}")
        return "\n".join(lines)


def profile_case(name: str, *, size: Optional[Mapping[str, int]] = None,
                 seed: int = 0, backend: str = "traced",
                 fsm_mode: str = "generated",
                 max_cycles: int = 50_000_000) -> ProfileReport:
    """Profile one registered benchmark app end to end.

    Compiles the case, runs its RTG with profiled kernels (golden model
    and memory comparison are skipped — this measures the simulator,
    not the verdict) and returns the attribution report.
    """
    from ..apps.registry import CASE_BUILDERS, suite_case
    from ..core.verification import prepare_images
    from ..rtg.context import ReconfigurationContext
    from ..rtg.executor import RtgExecutor

    if name not in CASE_BUILDERS:
        raise ProfileError(f"unknown case {name!r} "
                           f"(known: {sorted(CASE_BUILDERS)})")
    if backend not in ("compiled", "traced"):
        raise ProfileError(
            f"profiling instruments the compiled kernel family; "
            f"backend must be 'compiled' or 'traced', got {backend!r}")
    try:
        case = suite_case(name, **dict(size or {}))
    except TypeError as exc:
        raise ProfileError(f"bad size options for {name!r}: {exc}") \
            from None
    design = case.compile()
    inputs = case.inputs(seed) if case.inputs is not None else None
    profiler = KernelProfiler()
    context = ReconfigurationContext.from_rtg(
        design.rtg, initial=prepare_images(design, inputs))
    executor = RtgExecutor(
        design.rtg, context, fsm_mode=fsm_mode, backend=backend,
        max_cycles_per_configuration=case.max_cycles or max_cycles,
        coverage=profiler)
    started = time.perf_counter()
    rtg_result = executor.run()
    wall = time.perf_counter() - started
    return profiler.report(case=name, backend=backend,
                           total_cycles=rtg_result.total_cycles,
                           wall_seconds=wall)
