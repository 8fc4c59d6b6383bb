"""The reconfiguration executor: run a design through its RTG.

This is the paper's generated "rtg.java": it sequences the simulation
through the temporal partitions — load a configuration, simulate it to
``done``, evaluate the RTG transition guards, reconfigure, repeat.  Each
configuration gets a fresh simulator (new hardware after reconfiguration)
but shares the context's memory images (state that survives on the
platform's RAMs).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

from ..hdl.model.rtg import ConfigurationRef, Rtg, RtgError
from ..hdl.xmlio.datapath_xml import load_datapath
from ..hdl.xmlio.fsm_xml import load_fsm
from ..obs.trace import span
from ..sim.batched import LaneBatch
from ..sim.errors import SimulationTimeout
from ..translate.to_python import InterpretedRtgControl, compile_rtg
from ..translate.to_sim import SimDesign, build_simulation
from ..util.files import MemoryImage
from .context import ReconfigurationContext

__all__ = ["ConfigurationRun", "RtgRunResult", "RtgExecutor",
           "RtgBatchRunResult", "RtgBatchExecutor"]


@dataclass
class ConfigurationRun:
    """Timing record of one configuration execution."""

    configuration: str
    cycles: int
    evaluations: int
    final_state: str
    #: kernel counters harvested after the run (``SimulationStats``
    #: plus the controller's transition count) — obs.metrics raw input
    stats: Dict[str, int] = field(default_factory=dict)


@dataclass
class RtgRunResult:
    """Aggregate record of a complete RTG execution."""

    runs: List[ConfigurationRun] = field(default_factory=list)
    reconfigurations: int = 0

    @property
    def total_cycles(self) -> int:
        return sum(run.cycles for run in self.runs)

    @property
    def total_evaluations(self) -> int:
        return sum(run.evaluations for run in self.runs)

    @property
    def trace(self) -> List[str]:
        return [run.configuration for run in self.runs]


def _control(rtg: Rtg, control_mode: str):
    """The RTG's transition logic: generated Python or the interpreter."""
    if control_mode == "generated":
        return compile_rtg(rtg)
    if control_mode == "interpreted":
        return InterpretedRtgControl(rtg)
    raise ValueError(
        f"control_mode must be 'generated' or 'interpreted', "
        f"got {control_mode!r}"
    )


def _resolve(ref: ConfigurationRef, base_dir: Optional[Path]):
    """A configuration's datapath and FSM: attached, else loaded from
    the XML files it names under *base_dir*."""
    datapath = ref.datapath
    fsm = ref.fsm
    if datapath is None or fsm is None:
        if base_dir is None:
            raise RtgError(
                f"configuration {ref.name!r} has no attached design "
                f"and no base_dir to load XML from"
            )
        datapath = datapath or load_datapath(base_dir / ref.datapath_file)
        fsm = fsm or load_fsm(base_dir / ref.fsm_file)
    return datapath, fsm


class RtgExecutor:
    """Executes an RTG over a :class:`ReconfigurationContext`."""

    def __init__(self, rtg: Rtg,
                 context: Optional[ReconfigurationContext] = None,
                 *,
                 base_dir: Optional[Union[str, Path]] = None,
                 fsm_mode: str = "generated",
                 control_mode: str = "generated",
                 backend: str = "event",
                 max_cycles_per_configuration: int = 50_000_000,
                 max_reconfigurations: int = 10_000,
                 trace_dir: Optional[Union[str, Path]] = None,
                 coverage=None) -> None:
        rtg.validate()
        self.rtg = rtg
        self.context = context or ReconfigurationContext.from_rtg(rtg)
        self.base_dir = Path(base_dir) if base_dir is not None else None
        self.fsm_mode = fsm_mode
        self.backend = backend
        self.max_cycles = max_cycles_per_configuration
        self.max_reconfigurations = max_reconfigurations
        #: when set, each configuration run dumps a VCD waveform
        #: ``<trace_dir>/<run#>_<configuration>.vcd``
        self.trace_dir = Path(trace_dir) if trace_dir is not None else None
        self.control = _control(rtg, control_mode)
        #: observer hook: called with the live SimDesign before each run
        self.on_configure = None
        #: optional :class:`repro.obs.CoverageCollector`; attached to
        #: each configuration before it runs, harvested afterwards (even
        #: after a timeout, so partial coverage survives)
        self.coverage = coverage

    # ------------------------------------------------------------------
    def _configure(self, name: str) -> SimDesign:
        """Reconfiguration: elaborate fresh hardware on shared memories."""
        datapath, fsm = _resolve(self.rtg.configurations[name],
                                 self.base_dir)
        return build_simulation(datapath, fsm, memories=self.context.memories,
                                fsm_mode=self.fsm_mode, backend=self.backend)

    def run(self) -> RtgRunResult:
        """Execute from the start configuration until a final one ends."""
        result = RtgRunResult()
        current: Optional[str] = self.control.start
        while current is not None:
            if len(result.runs) > self.max_reconfigurations:
                raise RtgError(
                    f"exceeded {self.max_reconfigurations} "
                    f"reconfigurations — runaway RTG?"
                )
            with span("rtg.configure", "rtg", configuration=current):
                design = self._configure(current)
            if self.coverage is not None:
                self.coverage.attach(design)
            if self.on_configure is not None:
                self.on_configure(design)
            simulate = span("rtg.simulate", "rtg", configuration=current,
                            run=len(result.runs), backend=self.backend)
            try:
                with simulate:
                    if self.trace_dir is not None:
                        self.trace_dir.mkdir(parents=True, exist_ok=True)
                        trace_path = self.trace_dir / \
                            f"{len(result.runs)}_{current}.vcd"
                        with design.trace(trace_path):
                            cycles = design.run_to_done(
                                max_cycles=self.max_cycles)
                    else:
                        cycles = design.run_to_done(
                            max_cycles=self.max_cycles)
                    simulate.set("cycles", cycles)
            finally:
                if self.coverage is not None:
                    self.coverage.collect(design)
                design.release()  # retire SRAM ports before reconfiguring
            stats = design.sim.stats.as_dict()
            stats["fsm_transitions"] = design.controller.transitions
            result.runs.append(ConfigurationRun(
                configuration=current,
                cycles=cycles,
                evaluations=design.sim.stats.evaluations,
                final_state=design.controller.state,
                stats=stats,
            ))
            env = {name: signal.value
                   for name, signal in design.output_signals.items()}
            next_configuration = self.control.next_configuration(current, env)
            if next_configuration is not None:
                result.reconfigurations += 1
            current = next_configuration
        return result


@dataclass
class RtgBatchRunResult:
    """Per-lane RTG results of one batch."""

    lanes: List[RtgRunResult] = field(default_factory=list)
    #: elaborations performed (vs ``batch_size * runs`` for serial)
    elaborations: int = 0

    @property
    def batch_size(self) -> int:
        return len(self.lanes)


class RtgBatchExecutor:
    """Executes one RTG over N reconfiguration contexts, elaborating
    each configuration once per group of lanes that enters it.

    Each context is an independent *lane*: its own stimulus memories,
    its own RTG trajectory.  Lanes whose next configuration matches are
    grouped, the configuration is elaborated **once** on *backend* over
    scratch memories, and a :class:`~repro.sim.LaneBatch` runs the
    group's lanes one after another on that elaboration, rewound before
    each.  A lane's cycles, memories and trajectory are those of a
    serial :class:`RtgExecutor` run on the same backend; lanes whose
    RTG guards pick different successors simply land in different
    groups next round.  A traced elaboration starts fused: a batch runs
    many short runs on one elaboration, which repay the fused build.

    The name is kept from the lockstep executor this class replaced:
    the end-to-end benchmark's per-layer spans wrap :meth:`run` under
    it.
    """

    def __init__(self, rtg: Rtg,
                 contexts: Sequence[ReconfigurationContext],
                 *,
                 base_dir: Optional[Union[str, Path]] = None,
                 fsm_mode: str = "generated",
                 control_mode: str = "generated",
                 backend: str = "event",
                 max_cycles_per_configuration: int = 50_000_000,
                 max_reconfigurations: int = 10_000) -> None:
        rtg.validate()
        self.rtg = rtg
        self.contexts = list(contexts)
        self.base_dir = Path(base_dir) if base_dir is not None else None
        self.fsm_mode = fsm_mode
        self.backend = backend
        self.max_cycles = max_cycles_per_configuration
        self.max_reconfigurations = max_reconfigurations
        self.control = _control(rtg, control_mode)
        #: observer hook: called with each group's live SimDesign
        self.on_configure = None

    def run(self) -> RtgBatchRunResult:
        result = RtgBatchRunResult(
            lanes=[RtgRunResult() for _ in self.contexts])
        current: List[Optional[str]] = [self.control.start] * len(
            self.contexts)
        while True:
            groups: Dict[str, List[int]] = {}
            for lane, name in enumerate(current):
                if name is not None:
                    groups.setdefault(name, []).append(lane)
            if not groups:
                break
            for name in sorted(groups):
                lanes = groups[name]
                for lane in lanes:
                    if len(result.lanes[lane].runs) > \
                            self.max_reconfigurations:
                        raise RtgError(
                            f"lane {lane} exceeded "
                            f"{self.max_reconfigurations} "
                            f"reconfigurations — runaway RTG?"
                        )
                datapath, fsm = _resolve(self.rtg.configurations[name],
                                         self.base_dir)
                # scratch images: LaneBatch copies each lane's words in
                # and out of these, so the contexts keep ownership
                scratch = {mem_name: MemoryImage(decl.width, decl.depth,
                                                 name=mem_name)
                           for mem_name, decl in self.rtg.memories.items()}
                with span("rtg.configure", "rtg", configuration=name,
                          batch=len(lanes)):
                    design = build_simulation(
                        datapath, fsm, memories=scratch,
                        fsm_mode=self.fsm_mode, backend=self.backend)
                if self.backend == "traced":
                    design.sim.promote_after = 0
                result.elaborations += 1
                if self.on_configure is not None:
                    self.on_configure(design)
                batch = LaneBatch(
                    design, [self.contexts[lane].memories for lane in lanes])
                simulate = span("rtg.simulate", "rtg", configuration=name,
                                backend=self.backend, batch=len(lanes))
                try:
                    with simulate:
                        report = batch.run(max_cycles=self.max_cycles)
                        simulate.set("cycles", sum(report.cycles))
                finally:
                    design.release()
                for slot, lane in enumerate(lanes):
                    if report.timed_out[slot]:
                        raise SimulationTimeout(
                            f"lane {lane} did not assert done within "
                            f"{self.max_cycles} cycles in configuration "
                            f"{name!r}")
                    stats = report.stats[slot]
                    result.lanes[lane].runs.append(ConfigurationRun(
                        configuration=name,
                        cycles=report.cycles[slot],
                        evaluations=stats["evaluations"],
                        final_state=report.final_states[slot],
                        stats=stats,
                    ))
                    next_configuration = self.control.next_configuration(
                        name, report.samples[slot])
                    if next_configuration is not None:
                        result.lanes[lane].reconfigurations += 1
                    current[lane] = next_configuration
        return result
