"""Functional coverage: how much of a design did a test exercise?

Three coverage models, collected per configuration:

* **FSM state coverage** — which control states were ever occupied;
* **FSM transition coverage** — which declared guarded edges were ever
  taken (final states halt the machine, so their implicit self-loops
  are excluded from the possible set);
* **operator activation coverage** — which datapath operator instances
  ever did observable work (``const`` components are excluded: they
  drive their value once during elaboration and never again).

Collection is backend-aware, chosen by :meth:`CoverageCollector.attach`:

* event/oblivious kernels: a per-edge hook on the FSM controller
  records ``(state, next_state)`` pairs, and one watcher per datapath
  net marks its source operator active when the net toggles;
* compiled kernel: signal watchers would force the fast path to fall
  back (see :meth:`CompiledSimulator._fastpath_blocked`), so the
  collector instead instruments the kernel with transition tallies
  (``sim.instrument(tallies=True)``), which re-generates the per-state
  specialized code with cheap transition counters; it reads state
  occupancy and transitions from the simulator's
  :class:`~repro.sim.compiled.KernelTally`, and per-state live-cone
  operator sets come out of the machinery the kernel maintains anyway.

Because the backends observe different things, operator "activation"
means *output toggled* under the event kernels and *evaluated in an
occupied state's live cone* under the compiled kernel — a documented
lower/upper bound pair around the same idea (docs/observability.md).
State and transition coverage are exact under every backend.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

__all__ = ["FsmCoverage", "OperatorCoverage", "ConfigurationCoverage",
           "CoverageReport", "CoverageCollector", "format_coverage"]


def _fraction(covered: int, total: int) -> float:
    return covered / total if total else 1.0


@dataclass
class FsmCoverage:
    """State + transition coverage of one Moore machine."""

    fsm: str
    possible_states: List[str] = field(default_factory=list)
    possible_transitions: List[Tuple[str, str]] = field(default_factory=list)
    states: Dict[str, int] = field(default_factory=dict)
    transitions: Dict[Tuple[str, str], int] = field(default_factory=dict)

    @classmethod
    def for_fsm(cls, fsm) -> "FsmCoverage":
        possible = []
        for name, state in fsm.states.items():
            for transition in state.transitions:
                edge = (name, transition.target)
                if edge not in possible:
                    possible.append(edge)
        return cls(fsm=fsm.name,
                   possible_states=list(fsm.states),
                   possible_transitions=possible)

    # ------------------------------------------------------------------
    def visit(self, state: str, count: int = 1) -> None:
        self.states[state] = self.states.get(state, 0) + count

    def take(self, source: str, target: str, count: int = 1) -> None:
        key = (source, target)
        self.transitions[key] = self.transitions.get(key, 0) + count

    # ------------------------------------------------------------------
    @property
    def visited_states(self) -> List[str]:
        return [name for name in self.possible_states
                if self.states.get(name, 0) > 0]

    @property
    def taken_transitions(self) -> List[Tuple[str, str]]:
        return [edge for edge in self.possible_transitions
                if self.transitions.get(edge, 0) > 0]

    @property
    def state_coverage(self) -> float:
        return _fraction(len(self.visited_states),
                         len(self.possible_states))

    @property
    def transition_coverage(self) -> float:
        return _fraction(len(self.taken_transitions),
                         len(self.possible_transitions))

    def missing_states(self) -> List[str]:
        return [name for name in self.possible_states
                if self.states.get(name, 0) == 0]

    def merge(self, other: "FsmCoverage") -> None:
        for name in other.possible_states:
            if name not in self.possible_states:
                self.possible_states.append(name)
        for edge in other.possible_transitions:
            if edge not in self.possible_transitions:
                self.possible_transitions.append(edge)
        for name, count in other.states.items():
            self.visit(name, count)
        for (source, target), count in other.transitions.items():
            self.take(source, target, count)

    # ------------------------------------------------------------------
    def as_dict(self) -> Dict[str, Any]:
        return {
            "fsm": self.fsm,
            "possible_states": list(self.possible_states),
            "possible_transitions": [f"{a}->{b}" for a, b
                                     in self.possible_transitions],
            "states": dict(sorted(self.states.items())),
            "transitions": {f"{a}->{b}": count for (a, b), count
                            in sorted(self.transitions.items())},
            "state_coverage": round(self.state_coverage, 4),
            "transition_coverage": round(self.transition_coverage, 4),
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "FsmCoverage":
        def edge(text: str) -> Tuple[str, str]:
            source, _, target = text.partition("->")
            return source, target

        return cls(
            fsm=payload["fsm"],
            possible_states=list(payload.get("possible_states", [])),
            possible_transitions=[edge(t) for t
                                  in payload.get("possible_transitions", [])],
            states=dict(payload.get("states", {})),
            transitions={edge(t): count for t, count
                         in payload.get("transitions", {}).items()},
        )


@dataclass
class OperatorCoverage:
    """Datapath operator-activation coverage."""

    datapath: str
    possible: List[str] = field(default_factory=list)
    activations: Dict[str, int] = field(default_factory=dict)

    @classmethod
    def for_datapath(cls, datapath) -> "OperatorCoverage":
        names = [decl.name for decl in datapath.components.values()
                 if decl.type != "const"]
        return cls(datapath=datapath.name, possible=names)

    def activate(self, operator: str, count: int = 1) -> None:
        self.activations[operator] = \
            self.activations.get(operator, 0) + count

    @property
    def active_operators(self) -> List[str]:
        return [name for name in self.possible
                if self.activations.get(name, 0) > 0]

    @property
    def operator_coverage(self) -> float:
        return _fraction(len(self.active_operators), len(self.possible))

    def merge(self, other: "OperatorCoverage") -> None:
        for name in other.possible:
            if name not in self.possible:
                self.possible.append(name)
        for name, count in other.activations.items():
            self.activate(name, count)

    def as_dict(self) -> Dict[str, Any]:
        return {
            "datapath": self.datapath,
            "possible": list(self.possible),
            "activations": dict(sorted(self.activations.items())),
            "operator_coverage": round(self.operator_coverage, 4),
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "OperatorCoverage":
        return cls(datapath=payload["datapath"],
                   possible=list(payload.get("possible", [])),
                   activations=dict(payload.get("activations", {})))


@dataclass
class ConfigurationCoverage:
    """Coverage of one configuration: its FSM plus its datapath."""

    name: str
    fsm: FsmCoverage
    operators: OperatorCoverage

    def merge(self, other: "ConfigurationCoverage") -> None:
        self.fsm.merge(other.fsm)
        self.operators.merge(other.operators)

    def as_dict(self) -> Dict[str, Any]:
        return {"name": self.name, "fsm": self.fsm.as_dict(),
                "operators": self.operators.as_dict()}

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "ConfigurationCoverage":
        return cls(name=payload["name"],
                   fsm=FsmCoverage.from_dict(payload["fsm"]),
                   operators=OperatorCoverage.from_dict(
                       payload["operators"]))


class CoverageReport:
    """Per-configuration coverage, mergeable across runs and designs."""

    def __init__(self) -> None:
        self.configurations: Dict[str, ConfigurationCoverage] = {}

    def add(self, coverage: ConfigurationCoverage) -> None:
        existing = self.configurations.get(coverage.name)
        if existing is None:
            self.configurations[coverage.name] = coverage
        else:
            existing.merge(coverage)

    def merge(self, other: "CoverageReport") -> None:
        for coverage in other.configurations.values():
            self.add(coverage)

    # -- aggregates ----------------------------------------------------
    def _totals(self) -> Tuple[int, int, int, int, int, int]:
        states = visited = transitions = taken = operators = active = 0
        for config in self.configurations.values():
            states += len(config.fsm.possible_states)
            visited += len(config.fsm.visited_states)
            transitions += len(config.fsm.possible_transitions)
            taken += len(config.fsm.taken_transitions)
            operators += len(config.operators.possible)
            active += len(config.operators.active_operators)
        return states, visited, transitions, taken, operators, active

    @property
    def state_coverage(self) -> float:
        states, visited, *_ = self._totals()
        return _fraction(visited, states)

    @property
    def transition_coverage(self) -> float:
        _, _, transitions, taken, _, _ = self._totals()
        return _fraction(taken, transitions)

    @property
    def operator_coverage(self) -> float:
        *_, operators, active = self._totals()
        return _fraction(active, operators)

    def items(self) -> List[str]:
        """Canonical covered-item labels (the fuzz coverage signature)."""
        labels: List[str] = []
        for config in self.configurations.values():
            labels.extend(f"s:{name}" for name in config.fsm.visited_states)
            labels.extend(f"t:{a}>{b}" for a, b
                          in config.fsm.taken_transitions)
        return sorted(set(labels))

    # -- serialization ---------------------------------------------------
    def as_dict(self) -> Dict[str, Any]:
        return {
            "configurations": [config.as_dict() for config
                               in self.configurations.values()],
            "state_coverage": round(self.state_coverage, 4),
            "transition_coverage": round(self.transition_coverage, 4),
            "operator_coverage": round(self.operator_coverage, 4),
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "CoverageReport":
        report = cls()
        for config in payload.get("configurations", []):
            report.add(ConfigurationCoverage.from_dict(config))
        return report

    def summary(self) -> str:
        return (f"coverage: states {100 * self.state_coverage:.1f}%, "
                f"transitions {100 * self.transition_coverage:.1f}%, "
                f"operators {100 * self.operator_coverage:.1f}%")

    def format(self) -> str:
        return format_coverage(self)


def format_coverage(report: CoverageReport) -> str:
    """Render per-configuration coverage as a Table I-style text table."""
    header = ("Configuration", "States", "Visited", "State%",
              "Transitions", "Taken", "Trans%", "Operators", "Active",
              "Op%")
    rows: List[List[str]] = [list(header)]

    def row(name, states, visited, transitions, taken, operators, active):
        rows.append([
            name, str(states), str(visited),
            f"{100 * _fraction(visited, states):.1f}",
            str(transitions), str(taken),
            f"{100 * _fraction(taken, transitions):.1f}",
            str(operators), str(active),
            f"{100 * _fraction(active, operators):.1f}",
        ])

    for config in report.configurations.values():
        row(config.name,
            len(config.fsm.possible_states),
            len(config.fsm.visited_states),
            len(config.fsm.possible_transitions),
            len(config.fsm.taken_transitions),
            len(config.operators.possible),
            len(config.operators.active_operators))
    if len(report.configurations) != 1:
        row("TOTAL", *report._totals())
    widths = [max(len(entry[column]) for entry in rows)
              for column in range(len(header))]
    lines = []
    for index, entry in enumerate(rows):
        lines.append("  ".join(cell.ljust(width)
                               for cell, width
                               in zip(entry, widths)).rstrip())
        if index == 0:
            lines.append("  ".join("-" * width for width in widths))
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Collection
# ----------------------------------------------------------------------
class _Attachment:
    """Live hooks for one attached design (detached at collect time)."""

    __slots__ = ("coverage", "controller", "watchers", "compiled")

    def __init__(self, coverage: ConfigurationCoverage, controller,
                 watchers, compiled: bool) -> None:
        self.coverage = coverage
        self.controller = controller
        self.watchers = watchers
        self.compiled = compiled


class CoverageCollector:
    """Attach to live :class:`SimDesign` instances, harvest after runs.

    Usage (what :class:`repro.rtg.RtgExecutor` does per configuration)::

        collector = CoverageCollector()
        collector.attach(design)     # before the design runs
        design.run_to_done()
        collector.collect(design)    # harvest + detach hooks

    ``collect`` is exception-safe to call after a timeout or crash: it
    harvests whatever partial coverage accumulated.
    """

    def __init__(self) -> None:
        self.report = CoverageReport()
        self._attached: Dict[int, _Attachment] = {}

    # ------------------------------------------------------------------
    def attach(self, design) -> None:
        from ..sim.compiled import CompiledSimulator

        sim = design.sim
        coverage = ConfigurationCoverage(
            name=design.datapath.name,
            fsm=FsmCoverage.for_fsm(design.fsm),
            operators=OperatorCoverage.for_datapath(design.datapath),
        )
        controller = design.controller
        fsm_coverage = coverage.fsm
        # entering the reset state counts as a visit under every backend
        fsm_coverage.visit(controller.state)

        def hook(state: str, next_state: str,
                 _cov: FsmCoverage = fsm_coverage) -> None:
            _cov.visit(next_state)
            _cov.take(state, next_state)

        controller.coverage_hook = hook

        watchers = []
        compiled = isinstance(sim, CompiledSimulator)
        if compiled:
            # a foreign signal watcher would block the compiled fast
            # path; instrumented codegen supplies the tallies instead
            sim.instrument(tallies=True)
        else:
            operators = coverage.operators
            for net in design.datapath.nets.values():
                try:
                    signal = sim.get_signal(net.name)
                except Exception:  # noqa: BLE001 - unconnected net
                    continue
                source = net.source.component

                def on_change(sig, old, new, _name=source,
                              _ops=operators) -> None:
                    _ops.activate(_name)

                signal.watch(on_change)
                watchers.append((signal, on_change))

        self._attached[id(design)] = _Attachment(
            coverage, controller, watchers, compiled)

    # ------------------------------------------------------------------
    def collect(self, design) -> Optional[ConfigurationCoverage]:
        """Harvest coverage from *design*, detach hooks, fold into report."""
        attachment = self._attached.pop(id(design), None)
        if attachment is None:
            return None
        for signal, watcher in attachment.watchers:
            try:
                signal.unwatch(watcher)
            except ValueError:
                pass
        attachment.controller.coverage_hook = None

        coverage = attachment.coverage
        if attachment.compiled:
            sim = design.sim
            fsm_coverage = coverage.fsm
            for state, visits in sim.tally.cycles.items():
                fsm_coverage.visit(state, visits)
            for (source, target), count in sim.tally.transitions.items():
                fsm_coverage.take(source, target, count)
            # the generated loop stops *before* counting occupancy of a
            # stop state, so the state the controller rests in gets its
            # entry counted here
            fsm_coverage.visit(attachment.controller.state)
            for name, count in sim.coverage_active_ops().items():
                coverage.operators.activate(name, count)
        self.report.add(coverage)
        return coverage

    def detach_all(self) -> None:
        """Drop every outstanding attachment without harvesting."""
        for attachment in self._attached.values():
            for signal, watcher in attachment.watchers:
                try:
                    signal.unwatch(watcher)
                except ValueError:
                    pass
            attachment.controller.coverage_hook = None
        self._attached.clear()
