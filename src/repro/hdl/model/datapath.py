"""Structural datapath model — the object form of ``datapath.xml``.

A datapath is a netlist of operator instances (see
:mod:`repro.operators.catalog` for the type vocabulary) plus its *control
interface*: the control lines the FSM drives into the datapath (register
enables, mux selects, SRAM write enables) and the status lines the
datapath feeds back (comparator outputs).

Memory *resources* (the SRAMs holding input/output/intermediate data) are
declared separately from the ``sram`` port components that access them, so
the reconfiguration runtime can share one resource across several temporal
partitions — the paper's FDCT2 keeps its intermediate image alive across
two configurations.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

__all__ = ["PortRef", "ComponentDecl", "Net", "ControlLine", "StatusLine",
           "MemoryDecl", "Datapath", "DatapathError"]


class DatapathError(ValueError):
    """The datapath description is malformed."""


@dataclass(frozen=True)
class PortRef:
    """A reference to one port of one component, e.g. ``add_1.y``."""

    component: str
    port: str

    @classmethod
    def parse(cls, text: str) -> "PortRef":
        component, sep, port = text.partition(".")
        if not sep or not component or not port:
            raise DatapathError(
                f"bad port reference {text!r} (expected 'component.port')"
            )
        return cls(component, port)

    def __str__(self) -> str:
        return f"{self.component}.{self.port}"


@dataclass
class ComponentDecl:
    """One operator instance: its catalog type, width and parameters."""

    name: str
    type: str
    width: int
    params: Dict[str, str] = field(default_factory=dict)

    def param(self, key: str, default: Optional[str] = None) -> Optional[str]:
        return self.params.get(key, default)


@dataclass
class Net:
    """A connection from one source port to one or more sink ports."""

    name: str
    width: int
    source: PortRef
    sinks: List[PortRef] = field(default_factory=list)


@dataclass
class ControlLine:
    """An FSM output wired into datapath ports (enables, selects)."""

    name: str
    width: int
    targets: List[PortRef] = field(default_factory=list)


@dataclass
class StatusLine:
    """A 1-bit datapath output wired back to the FSM (compare results)."""

    name: str
    source: PortRef


@dataclass
class MemoryDecl:
    """A memory resource: width, depth, and optional init file name."""

    name: str
    width: int
    depth: int
    init: Optional[str] = None
    #: role shown in reports: input / output / intermediate / spill
    role: str = "data"

    @property
    def address_width(self) -> int:
        return max(1, (self.depth - 1).bit_length())


class Datapath:
    """A named netlist with a control interface and memory resources."""

    def __init__(self, name: str, width: int) -> None:
        if width <= 0:
            raise DatapathError(f"datapath {name!r}: width must be positive")
        self.name = name
        #: the design word width (default width of nets and operators)
        self.width = width
        self.components: Dict[str, ComponentDecl] = {}
        self.nets: Dict[str, Net] = {}
        self.controls: Dict[str, ControlLine] = {}
        self.statuses: Dict[str, StatusLine] = {}
        self.memories: Dict[str, MemoryDecl] = {}
        #: memoised structural digest (see repro.core.kernelcache);
        #: cleared by every add_* mutator — code that mutates the decls
        #: directly must clear it too, or stale kernel-cache keys result
        self._digest_memo: Optional[str] = None

    def __deepcopy__(self, memo) -> "Datapath":
        # a deep copy is made to be edited, often directly, so it starts
        # without the digest memo; a pickle keeps it (the design stage's
        # warm path relies on that)
        clone = object.__new__(type(self))
        memo[id(self)] = clone
        clone.__dict__.update(copy.deepcopy(
            dict(self.__dict__, _digest_memo=None), memo))
        return clone

    # ------------------------------------------------------------------
    # Construction helpers (used by the compiler and by tests)
    # ------------------------------------------------------------------
    def add_component(self, name: str, type: str,
                      width: Optional[int] = None,
                      **params: object) -> ComponentDecl:
        self._digest_memo = None
        if name in self.components:
            raise DatapathError(f"duplicate component {name!r}")
        decl = ComponentDecl(name, type, width or self.width,
                             {k: str(v) for k, v in params.items()})
        self.components[name] = decl
        return decl

    def add_net(self, name: str, source: str, sinks: List[str],
                width: Optional[int] = None) -> Net:
        self._digest_memo = None
        if name in self.nets:
            raise DatapathError(f"duplicate net {name!r}")
        net = Net(name, width or self.width, PortRef.parse(source),
                  [PortRef.parse(s) for s in sinks])
        self.nets[name] = net
        return net

    def add_control(self, name: str, targets: List[str],
                    width: int = 1) -> ControlLine:
        self._digest_memo = None
        if name in self.controls:
            raise DatapathError(f"duplicate control line {name!r}")
        line = ControlLine(name, width, [PortRef.parse(t) for t in targets])
        self.controls[name] = line
        return line

    def add_status(self, name: str, source: str) -> StatusLine:
        self._digest_memo = None
        if name in self.statuses:
            raise DatapathError(f"duplicate status line {name!r}")
        line = StatusLine(name, PortRef.parse(source))
        self.statuses[name] = line
        return line

    def add_memory(self, name: str, width: int, depth: int,
                   init: Optional[str] = None,
                   role: str = "data") -> MemoryDecl:
        self._digest_memo = None
        if name in self.memories:
            raise DatapathError(f"duplicate memory {name!r}")
        decl = MemoryDecl(name, width, depth, init, role)
        self.memories[name] = decl
        return decl

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def operator_count(self) -> int:
        """Number of operator instances (the paper's "operators" column)."""
        return len(self.components)

    def operator_histogram(self) -> Dict[str, int]:
        histogram: Dict[str, int] = {}
        for decl in self.components.values():
            histogram[decl.type] = histogram.get(decl.type, 0) + 1
        return dict(sorted(histogram.items()))

    def port_connections(self) -> Dict[Tuple[str, str], str]:
        """Map every connected (component, port) to its net/control name."""
        connections: Dict[Tuple[str, str], str] = {}

        def connect(ref: PortRef, wire: str) -> None:
            key = (ref.component, ref.port)
            if key in connections:
                raise DatapathError(
                    f"port {ref} wired to both {connections[key]!r} "
                    f"and {wire!r}"
                )
            connections[key] = wire

        for net in self.nets.values():
            connect(net.source, net.name)
            for sink in net.sinks:
                connect(sink, net.name)
        for line in self.controls.values():
            for target in line.targets:
                connect(target, line.name)
        return connections

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Raise :class:`DatapathError` on any structural inconsistency."""
        for net in self.nets.values():
            self._check_ref(net.source, f"net {net.name!r} source")
            if not net.sinks:
                raise DatapathError(f"net {net.name!r} has no sinks")
            for sink in net.sinks:
                self._check_ref(sink, f"net {net.name!r} sink")
        for line in self.controls.values():
            if not line.targets:
                raise DatapathError(
                    f"control line {line.name!r} has no targets"
                )
            for target in line.targets:
                self._check_ref(target, f"control {line.name!r}")
        for status in self.statuses.values():
            self._check_ref(status.source, f"status {status.name!r}")
        for decl in self.components.values():
            if decl.type in ("sram", "rom"):
                memory = decl.param("memory")
                if memory is None:
                    raise DatapathError(
                        f"component {decl.name!r}: {decl.type} needs a "
                        f"'memory' parameter"
                    )
                if memory not in self.memories:
                    raise DatapathError(
                        f"component {decl.name!r} references undeclared "
                        f"memory {memory!r}"
                    )
        self.port_connections()  # raises on doubly-wired ports

    def _check_ref(self, ref: PortRef, context: str) -> None:
        if ref.component not in self.components:
            raise DatapathError(
                f"{context} references unknown component {ref.component!r}"
            )

    def __repr__(self) -> str:
        return (f"Datapath({self.name!r}, width={self.width}, "
                f"components={len(self.components)}, nets={len(self.nets)})")
