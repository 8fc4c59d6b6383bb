"""Design metrics and the Table I report format.

The paper's Table I reports, per example: lines of input source
(``loJava``), lines of the XML FSM and datapath descriptions, lines of
the generated FSM code (``loJava FSM``), the number of datapath
operators, and the simulation time.  :func:`collect_metrics` computes the
same quantities for a compiled :class:`Design`; multi-configuration
designs report one value per configuration, stacked like the paper's
FDCT2 row.  The XML columns count the lines the dialect writers would
print from the element trees they build
(:func:`~repro.hdl.xmlio.common.count_pretty_lines`), without printing
them.  The line counts are memoised on the design, so a design taken
from the compile stage (:meth:`repro.core.testsuite.SuiteCase.compile`)
arrives with them and builds neither trees nor FSM code.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from ..compiler.pipeline import Configuration, Design
from ..hdl.xmlio.common import count_pretty_lines
from ..hdl.xmlio.datapath_xml import datapath_tree
from ..hdl.xmlio.fsm_xml import fsm_tree
from ..translate.to_python import fsm_to_python
from ..util.loc import count_lines
from .kernelcache import datapath_digest, fsm_digest

__all__ = ["ConfigurationMetrics", "DesignMetrics", "collect_metrics",
           "format_table"]


@dataclass
class ConfigurationMetrics:
    """Table I columns for one configuration."""

    name: str
    lo_xml_fsm: int
    lo_xml_datapath: int
    lo_generated_fsm: int
    operators: int
    states: int


@dataclass
class DesignMetrics:
    """Table I row (or stacked rows) for one design."""

    name: str
    lo_source: int
    configurations: List[ConfigurationMetrics] = field(default_factory=list)
    simulation_seconds: Optional[float] = None
    cycles: Optional[int] = None
    #: which simulation kernel produced ``simulation_seconds``
    backend: Optional[str] = None
    #: aggregate FSM state coverage (0..1) when coverage was collected
    state_coverage: Optional[float] = None

    def total_operators(self) -> int:
        return sum(c.operators for c in self.configurations)


def _line_counts(design: Design,
                 config: Configuration) -> Tuple[int, int, int]:
    """loXML FSM, loXML datapath and loGen FSM of *config*, memoised on
    *design* by the configuration's structural digests (a mutated
    datapath or FSM clears its digest, so the memo never goes stale)."""
    memo = design.__dict__.setdefault("_line_count_memo", {})
    key = (datapath_digest(config.datapath), fsm_digest(config.fsm))
    counts = memo.get(key)
    if counts is None:
        counts = memo[key] = (
            count_pretty_lines(fsm_tree(config.fsm)),
            count_pretty_lines(datapath_tree(config.datapath)),
            count_lines(fsm_to_python(config.fsm)))
    return counts


def collect_metrics(design: Design,
                    simulation_seconds: Optional[float] = None,
                    cycles: Optional[int] = None,
                    backend: Optional[str] = None,
                    state_coverage: Optional[float] = None) -> DesignMetrics:
    """Compute the Table I quantities for *design*."""
    metrics = DesignMetrics(
        name=design.name,
        lo_source=count_lines(design.source),
        simulation_seconds=simulation_seconds,
        cycles=cycles,
        backend=backend,
        state_coverage=state_coverage,
    )
    for config in design.configurations:
        lo_xml_fsm, lo_xml_datapath, lo_generated_fsm = \
            _line_counts(design, config)
        metrics.configurations.append(ConfigurationMetrics(
            name=config.name,
            lo_xml_fsm=lo_xml_fsm,
            lo_xml_datapath=lo_xml_datapath,
            lo_generated_fsm=lo_generated_fsm,
            operators=config.datapath.operator_count(),
            states=config.fsm.state_count(),
        ))
    return metrics


_HEADER = ("Example", "loSource", "loXML FSM", "loXML datapath",
           "loGen FSM", "Operators", "States", "Sim time (s)")
_OPTIONAL_COLUMNS = ("Backend", "FSM cov (%)")


def format_table(rows: Sequence[DesignMetrics]) -> str:
    """Render metrics in the layout of the paper's Table I.

    Multi-configuration designs occupy one line per configuration, with
    the design-level columns only on the first line — exactly how the
    paper prints FDCT2.  The measured columns the paper reports but we
    previously dropped — which kernel produced the simulation time, and
    FSM state coverage — appear when any row carries them.
    """
    with_backend = any(m.backend is not None for m in rows)
    with_coverage = any(m.state_coverage is not None for m in rows)
    header = list(_HEADER)
    if with_backend:
        header.append(_OPTIONAL_COLUMNS[0])
    if with_coverage:
        header.append(_OPTIONAL_COLUMNS[1])
    table: List[List[str]] = [header]
    for metrics in rows:
        for index, config in enumerate(metrics.configurations):
            first = index == 0
            sim_time = ""
            if first and metrics.simulation_seconds is not None:
                seconds = metrics.simulation_seconds
                sim_time = f"{seconds:.3f}" if seconds < 10 else \
                    f"{seconds:.1f}"
            row = [
                metrics.name if first else "",
                str(metrics.lo_source) if first else "",
                str(config.lo_xml_fsm),
                str(config.lo_xml_datapath),
                str(config.lo_generated_fsm),
                str(config.operators),
                str(config.states),
                sim_time,
            ]
            if with_backend:
                row.append(metrics.backend
                           if first and metrics.backend is not None else "")
            if with_coverage:
                row.append(f"{100 * metrics.state_coverage:.1f}"
                           if first and metrics.state_coverage is not None
                           else "")
            table.append(row)
    widths = [max(len(row[col]) for row in table)
              for col in range(len(header))]
    lines = []
    for index, row in enumerate(table):
        lines.append("  ".join(cell.ljust(width)
                               for cell, width in zip(row, widths)).rstrip())
        if index == 0:
            lines.append("  ".join("-" * width for width in widths))
    return "\n".join(lines)
