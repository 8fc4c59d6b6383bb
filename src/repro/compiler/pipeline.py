"""The compiler pipeline: Python function → Design (XML-ready IR).

This is the repository's stand-in for the Galadriel & Nenya compiler:
frontend → CFG → optimization passes → temporal partitioning → per-
partition scheduling, binding and control generation → a :class:`Design`
holding every configuration plus the Reconfiguration Transition Graph.

:func:`compile_function` is the one-call public entry point; the
:class:`Design` it returns knows how to serialise itself into the three
XML dialects of the test infrastructure (``design.save(directory)``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Union

from ..hdl.model.datapath import Datapath
from ..hdl.model.fsm import Fsm
from ..hdl.model.rtg import Rtg
from ..hdl.xmlio.datapath_xml import save_datapath
from ..hdl.xmlio.fsm_xml import save_fsm
from ..hdl.xmlio.rtg_xml import save_rtg
from .cfg import Cfg, build_cfg
from .datapath_gen import BindingResult, generate_datapath
from .errors import CompileError
from .frontend import parse_function
from .fsm_gen import generate_fsm
from .hir import Function
from .partitioning import SPILL_MEMORY, PartitionPlan, split_function
from .passes.manager import optimize
from .scheduling import Schedule, schedule_cfg
from .spec import MemorySpec

__all__ = ["Configuration", "Design", "compile_function"]


@dataclass
class Configuration:
    """One temporal partition: datapath, control unit and build records."""

    name: str
    datapath: Datapath
    fsm: Fsm
    cfg: Cfg
    schedule: Schedule
    binding: BindingResult
    opt_log: List[str] = field(default_factory=list)

    def operator_count(self) -> int:
        return self.datapath.operator_count()

    def state_count(self) -> int:
        return self.fsm.state_count()


@dataclass
class Design:
    """A compiled design: all configurations plus the RTG tying them."""

    name: str
    word_width: int
    arrays: Dict[str, MemorySpec]
    params: Dict[str, int]
    configurations: List[Configuration]
    rtg: Rtg
    function: Function
    source: str

    @property
    def multi_configuration(self) -> bool:
        return len(self.configurations) > 1

    def configuration(self, name: str) -> Configuration:
        for config in self.configurations:
            if config.name == name:
                return config
        raise CompileError(f"design has no configuration {name!r}")

    def total_operators(self) -> int:
        return sum(c.operator_count() for c in self.configurations)

    # ------------------------------------------------------------------
    def save(self, directory: Union[str, Path]) -> List[Path]:
        """Write all XML documents (Figure 1's compiler outputs).

        Produces ``<cfg>_datapath.xml`` / ``<cfg>_fsm.xml`` per
        configuration plus ``<design>_rtg.xml``; returns the paths.
        """
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        written: List[Path] = []
        for config in self.configurations:
            ref = self.rtg.configurations[config.name]
            written.append(save_datapath(config.datapath,
                                         directory / ref.datapath_file))
            written.append(save_fsm(config.fsm, directory / ref.fsm_file))
        written.append(save_rtg(self.rtg,
                                directory / f"{self.name}_rtg.xml"))
        return written

    def __repr__(self) -> str:
        return (f"Design({self.name!r}, configurations="
                f"{len(self.configurations)}, "
                f"operators={self.total_operators()})")


def compile_function(func: Union[Callable, str],
                     arrays: Mapping[str, MemorySpec],
                     params: Optional[Mapping[str, int]] = None,
                     *,
                     name: Optional[str] = None,
                     word_width: int = 32,
                     opt_level: int = 2,
                     chain_limit: int = 0,
                     n_partitions: int = 1,
                     partition_after: Optional[Sequence[int]] = None,
                     sharing: str = "none",
                     assume_nonnegative: bool = False) -> Design:
    """Compile a restricted-Python algorithm into a :class:`Design`.

    Parameters
    ----------
    func
        The algorithm (function object or source text).
    arrays
        :class:`MemorySpec` per array parameter.
    params
        Values for scalar parameters (specialised into the hardware).
    word_width
        The datapath word width.
    opt_level
        0 (none), 1 (fold + DCE) or 2 (adds CSE and strength reduction).
    chain_limit
        Maximum combinational chain depth per control step (0 = chain
        freely).
    n_partitions / partition_after
        Temporal partitioning: automatic size-balanced split into N
        configurations, or explicit split points after the given
        top-level statement indices.
    sharing
        Binding style: ``"none"`` (fully spatial, one FU per operation —
        the default), ``"expensive"`` (share multipliers/dividers) or
        ``"all"`` (share every operator type).
    assume_nonnegative
        Allow ``//``/``%`` by powers of two to become shifts/masks
        (exact only for non-negative dividends).
    """
    if word_width <= 0:
        raise CompileError("word_width must be positive")
    function = parse_function(func, arrays, params)
    design_name = name or function.name

    plan: PartitionPlan = split_function(
        function, word_width, n_partitions=n_partitions,
        partition_after=partition_after,
    )
    all_arrays: Dict[str, MemorySpec] = dict(arrays)
    if plan.spill_spec is not None:
        all_arrays[SPILL_MEMORY] = plan.spill_spec

    configurations: List[Configuration] = []
    rtg = Rtg(design_name)
    for index, part in enumerate(plan.functions):
        config_name = f"cfg{index}" if plan.count > 1 else "cfg0"
        cfg = build_cfg(part, all_arrays, word_width)
        opt_log = optimize(cfg, opt_level,
                           assume_nonnegative=assume_nonnegative)
        schedule = schedule_cfg(cfg, chain_limit=chain_limit)
        binding = generate_datapath(
            cfg, schedule, name=f"{design_name}_{config_name}",
            sharing=sharing)
        fsm = generate_fsm(cfg, schedule, binding,
                           name=f"{design_name}_{config_name}_ctl")
        configurations.append(Configuration(
            config_name, binding.datapath, fsm, cfg, schedule, binding,
            opt_log,
        ))
        rtg.add_configuration(
            config_name,
            datapath_file=f"{design_name}_{config_name}_datapath.xml",
            fsm_file=f"{design_name}_{config_name}_fsm.xml",
            datapath=binding.datapath,
            fsm=fsm,
            final=index == plan.count - 1,
        )
        if index > 0:
            rtg.add_transition(f"cfg{index - 1}", config_name)

    # shared memory resources live at RTG level (they survive
    # reconfiguration); every array belongs there, roles included
    for array, spec in all_arrays.items():
        rtg.add_memory(array, spec.width, spec.depth, role=spec.role)
    rtg.validate()

    return Design(design_name, word_width, all_arrays,
                  dict(params or {}), configurations, rtg, function,
                  function.source)
