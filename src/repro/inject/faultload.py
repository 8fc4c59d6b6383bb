"""Seeded, reproducible faultloads for a compiled design.

A *faultload* is a list of :class:`FaultDescriptor` entries — concrete,
replayable single faults.  :class:`FaultloadGenerator` enumerates the
target spaces of one design (register output nets, all named nets,
memory resources, FSM states) and draws descriptors with a seeded RNG,
so the same ``(design, seed, n)`` always yields the same campaign.
Descriptors serialise to JSON (:func:`save_faultload` /
:func:`load_faultload`) so a hang reproducer from CI can be replayed
locally with ``repro inject --replay``.

Three fault kinds:

``stuck``
    A named signal's bit is stuck at 0 or 1 for the whole run
    (permanent fault: a shorted or broken line in the fabric).
``reg_flip``
    A transient upset: one bit of a register output is XOR-flipped
    once, while the FSM sits in a pinned state within a cycle window
    (an SEU striking a flip-flop).
``mem_flip``
    One bit of one memory word is flipped before the run starts (an
    SEU striking a BRAM cell between configuration and execution).

Six mutation kinds (:data:`MUTATION_KINDS`) model compiler bugs rather
than hardware faults: each edits a copy of the design before it is
elaborated (see :func:`repro.inject.hooks.mutate_design`), and
:func:`enumerate_mutants` lists every applicable one:

``const_value``
    A constant generator emits a wrong value (``value ^ 1``: a
    wrong-literal or off-by-one codegen bug).
``cmp_op``
    A comparator uses the adjacent operator (``lt``/``le``,
    ``gt``/``ge``, ``eq``/``ne``: the classic loop-bound bug).
``mux_swap``
    A mux's first two inputs are wired in the wrong order (a binding
    bug).
``branch_swap``
    A conditional FSM transition's target is exchanged with the
    state's default target (a control-generation bug).
``stuck_control``
    One state forgets one control assignment (an enable or select
    dropped by FSM generation).
``wrong_state_order``
    A state's default transition goes one state too far (a skipped
    control step).

The generator draws hardware kinds only; mutants come from the
enumerator.
"""

from __future__ import annotations

import json
import random
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

from ..compiler.partitioning import SPILL_MEMORY
from ..compiler.pipeline import Design
from ..hdl.model.fsm import DONE_OUTPUT

__all__ = ["FaultDescriptor", "FaultloadGenerator", "save_faultload",
           "load_faultload", "output_adjacent_nets", "enumerate_mutants"]

FAULT_KINDS = ("stuck", "reg_flip", "mem_flip")
MUTATION_KINDS = ("const_value", "cmp_op", "mux_swap", "branch_swap",
                  "stuck_control", "wrong_state_order")

#: the comparator a ``cmp_op`` mutant swaps in
CMP_NEIGHBOUR = {"lt": "le", "le": "lt", "gt": "ge", "ge": "gt",
                 "eq": "ne", "ne": "eq"}


@dataclass(frozen=True)
class FaultDescriptor:
    """One concrete, replayable fault."""

    fault_id: str
    kind: str  # one of FAULT_KINDS or MUTATION_KINDS
    #: signal (net) name or memory name; a mutant's component or state
    target: str
    bit: int = 0
    #: stuck-at value (``stuck`` only)
    stuck_value: int = 0
    #: word address (``mem_flip`` only)
    word: int = 0
    #: pinned FSM state (``reg_flip`` only)
    state: Optional[str] = None
    #: inclusive 1-based cycle window (``reg_flip`` only)
    cycle_lo: int = 1
    cycle_hi: int = 1
    #: what a mutant changes; ``stuck_control`` reads the dropped
    #: output and ``wrong_state_order`` the new target from it
    detail: str = ""

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS + MUTATION_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r} "
                             f"(known: {FAULT_KINDS + MUTATION_KINDS})")
        if self.bit < 0:
            raise ValueError(f"bit must be >= 0, got {self.bit}")
        if self.stuck_value not in (0, 1):
            raise ValueError(f"stuck_value must be 0 or 1, "
                             f"got {self.stuck_value}")

    def describe(self) -> str:
        if self.kind == "stuck":
            return (f"{self.fault_id}: stuck-at-{self.stuck_value} "
                    f"{self.target}[{self.bit}]")
        if self.kind == "reg_flip":
            return (f"{self.fault_id}: flip {self.target}[{self.bit}] "
                    f"in state {self.state} "
                    f"cycles [{self.cycle_lo}, {self.cycle_hi}]")
        if self.kind == "mem_flip":
            return (f"{self.fault_id}: flip {self.target}"
                    f"[{self.word}] bit {self.bit}")
        text = f"{self.fault_id}: {self.kind} @ {self.target}"
        return f"{text} ({self.detail})" if self.detail else text

    def to_dict(self) -> Dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Dict) -> "FaultDescriptor":
        known = {f for f in cls.__dataclass_fields__}  # noqa: C416
        extra = set(data) - known
        if extra:
            raise ValueError(f"unknown descriptor field(s) {sorted(extra)}")
        return cls(**data)


def save_faultload(faults: Sequence[FaultDescriptor],
                   path: Union[str, Path]) -> Path:
    """Write a faultload as a JSON file (one replayable document)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    document = {"format": "repro-faultload-v1",
                "faults": [fault.to_dict() for fault in faults]}
    path.write_text(json.dumps(document, indent=2) + "\n",
                    encoding="utf-8")
    return path


def load_faultload(path: Union[str, Path]) -> List[FaultDescriptor]:
    """Read a faultload written by :func:`save_faultload`.

    Also accepts a bare descriptor object or a bare list, so a single
    hang reproducer pasted from a CI artifact replays directly.
    """
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    if isinstance(data, dict) and "faults" in data:
        entries = data["faults"]
    elif isinstance(data, dict):
        entries = [data]
    elif isinstance(data, list):
        entries = data
    else:
        raise ValueError(f"{path}: not a faultload document")
    return [FaultDescriptor.from_dict(entry) for entry in entries]


# ----------------------------------------------------------------------
# Target enumeration
# ----------------------------------------------------------------------
def _single_configuration(design: Design):
    if design.multi_configuration:
        raise ValueError("fault injection supports single-configuration "
                         "designs")
    return design.configurations[0]


def output_adjacent_nets(design: Design) -> List[str]:
    """Nets wired into the data port of an output-memory write port.

    A stuck-at on one of these corrupts output words directly, so it is
    the canonical SDC-producing target (used by the CI smoke gate).
    """
    config = _single_configuration(design)
    datapath = config.datapath
    names: List[str] = []
    for net in datapath.nets.values():
        for sink in net.sinks:
            comp = datapath.components.get(sink.component)
            if comp is None or comp.type != "sram":
                continue
            memory = datapath.memories.get(comp.param("memory", ""))
            if memory is not None and memory.role == "output" \
                    and sink.port == "din":
                names.append(net.name)
                break
    return names


@dataclass
class _TargetSpace:
    """Everything the generator can aim at, in deterministic order."""

    nets: List[tuple] = field(default_factory=list)  # (name, width)
    registers: List[tuple] = field(default_factory=list)  # (name, width)
    memories: List[tuple] = field(default_factory=list)  # (name, w, depth)
    states: List[str] = field(default_factory=list)


class FaultloadGenerator:
    """Draw reproducible faultloads from one compiled design.

    ``max_cycle`` bounds the transient-upset windows; pass the design's
    fault-free cycle count so upsets land while the design is live.
    """

    def __init__(self, design: Design, *, seed: int = 0,
                 max_cycle: int = 1000) -> None:
        config = _single_configuration(design)
        self.design = design
        self.seed = seed
        self.max_cycle = max(int(max_cycle), 1)
        space = _TargetSpace()
        datapath = config.datapath
        for net in datapath.nets.values():
            space.nets.append((net.name, net.width))
            source = datapath.components.get(net.source.component)
            if source is not None and source.type == "reg":
                space.registers.append((net.name, net.width))
        for name, spec in sorted(design.arrays.items()):
            if name != SPILL_MEMORY:
                space.memories.append((name, spec.width, spec.depth))
        space.states = list(config.fsm.states)
        self.space = space

    # ------------------------------------------------------------------
    def generate(self, n: int, *,
                 kinds: Sequence[str] = FAULT_KINDS) -> List[FaultDescriptor]:
        """*n* descriptors, deterministic for (design, seed, n, kinds)."""
        for kind in kinds:
            if kind not in FAULT_KINDS:
                raise ValueError(f"unknown fault kind {kind!r}")
        draw = {"stuck": self._draw_stuck,
                "reg_flip": self._draw_reg_flip,
                "mem_flip": self._draw_mem_flip}
        usable = [kind for kind in kinds if self._has_targets(kind)]
        if not usable:
            raise ValueError(
                f"design {self.design.name!r} has no targets for any of "
                f"{list(kinds)}")
        rng = random.Random(self.seed)
        faults: List[FaultDescriptor] = []
        for index in range(n):
            kind = usable[index % len(usable)]
            faults.append(draw[kind](rng, f"f{index:05d}"))
        return faults

    def _has_targets(self, kind: str) -> bool:
        if kind == "stuck":
            return bool(self.space.nets)
        if kind == "reg_flip":
            return bool(self.space.registers) and bool(self.space.states)
        return bool(self.space.memories)

    def _draw_stuck(self, rng: random.Random,
                    fault_id: str) -> FaultDescriptor:
        name, width = rng.choice(self.space.nets)
        return FaultDescriptor(
            fault_id=fault_id, kind="stuck", target=name,
            bit=rng.randrange(width), stuck_value=rng.randrange(2))

    def _draw_reg_flip(self, rng: random.Random,
                       fault_id: str) -> FaultDescriptor:
        name, width = rng.choice(self.space.registers)
        state = rng.choice(self.space.states)
        lo = rng.randrange(1, self.max_cycle + 1)
        hi = min(lo + rng.randrange(1, 65), self.max_cycle)
        return FaultDescriptor(
            fault_id=fault_id, kind="reg_flip", target=name,
            bit=rng.randrange(width), state=state,
            cycle_lo=lo, cycle_hi=max(lo, hi))

    def _draw_mem_flip(self, rng: random.Random,
                       fault_id: str) -> FaultDescriptor:
        name, width, depth = rng.choice(self.space.memories)
        return FaultDescriptor(
            fault_id=fault_id, kind="mem_flip", target=name,
            bit=rng.randrange(width), word=rng.randrange(depth))


def enumerate_mutants(design: Design, *,
                      limit_per_kind: Optional[int] = None
                      ) -> List[FaultDescriptor]:
    """Every applicable single mutant of *design*, kind by kind.

    A mutant's id is its position in the full enumeration (``m00000``
    on), so it names the same mutant whatever *limit_per_kind* keeps:
    the first that many mutants of each kind.
    """
    config = _single_configuration(design)
    components = config.datapath.components.values()
    states = config.fsm.states.values()
    found = [("const_value", decl.name, f"value {decl.param('value')} ^ 1")
             for decl in components if decl.type == "const"]
    found += [("cmp_op", decl.name,
               f"{decl.type} -> {CMP_NEIGHBOUR[decl.type]}")
              for decl in components if decl.type in CMP_NEIGHBOUR]
    found += [("mux_swap", decl.name, "in0 <-> in1")
              for decl in components
              if decl.type == "mux" and int(decl.param("inputs", "0")) >= 2]
    found += [("branch_swap", state.name, "first guard's target <-> default")
              for state in states if len(state.transitions) >= 2
              and any(not t.unconditional for t in state.transitions)]
    found += [("stuck_control", state.name, output)
              for state in states for output in state.assigns
              if output != DONE_OUTPUT]
    order = list(config.fsm.states)
    for state in states:
        default = next((t for t in state.transitions if t.unconditional),
                       None)
        after = order.index(default.target) + 1 if default else len(order)
        if after < len(order):
            found.append(("wrong_state_order", state.name,
                          f"default {default.target} -> {order[after]}"))

    mutants: List[FaultDescriptor] = []
    kept: Dict[str, int] = {}
    for index, (kind, target, detail) in enumerate(found):
        kept[kind] = kept.get(kind, 0) + 1
        if limit_per_kind is None or kept[kind] <= limit_per_kind:
            mutants.append(FaultDescriptor(f"m{index:05d}", kind, target,
                                           detail=detail))
    return mutants
