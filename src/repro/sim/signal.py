"""Signals: the nets connecting simulated components.

A :class:`Signal` carries a fixed-width unsigned integer value as a plain
``int``, masked to the width on every write: the kernel updates signals
millions of times while simulating an image-sized workload.  The operator
library computes on the same masked ``int``s and reads their two's-
complement value where it needs one
(:func:`repro.operators.base.signed_value`).

Two observer lists hang off each signal:

* ``sinks`` — combinational components re-evaluated when the value changes
  (the event-driven core of the kernel, mirroring Hades);
* ``watchers`` — ``callback(signal, old, new)`` hooks used by probes, VCD
  dumpers and the clock-enable arming machinery.
"""

from __future__ import annotations

from typing import Callable, List, Optional

__all__ = ["Signal"]

Watcher = Callable[["Signal", int, int], None]


class Signal:
    """A named, fixed-width net with change notification."""

    __slots__ = ("name", "width", "value", "mask", "sinks", "watchers",
                 "driver")

    #: bumped by every :meth:`watch` on any signal, so a simulator that
    #: found only its own bookkeeping watchers can tell that none was
    #: added since (removing one cannot add a foreign watcher)
    watch_epoch = 0

    def __init__(self, name: str, width: int, init: int = 0) -> None:
        if width <= 0:
            raise ValueError(f"signal {name!r}: width must be positive")
        self.name = name
        self.width = width
        self.mask = (1 << width) - 1
        self.value = init & self.mask
        #: combinational components to re-evaluate when the value changes
        self.sinks: List[object] = []
        #: observer callbacks ``(signal, old, new)``; change it through
        #: :meth:`watch` and :meth:`unwatch` only
        self.watchers: List[Watcher] = []
        #: the component driving this signal, if any (single-driver rule)
        self.driver: Optional[object] = None

    # ------------------------------------------------------------------
    def add_sink(self, component: object) -> None:
        """Re-evaluate *component* whenever this signal changes."""
        if component not in self.sinks:
            self.sinks.append(component)

    def watch(self, callback: Watcher) -> None:
        self.watchers.append(callback)
        Signal.watch_epoch += 1

    def unwatch(self, callback: Watcher) -> None:
        self.watchers.remove(callback)

    def set_driver(self, component: object) -> None:
        from .errors import DriveConflictError

        if self.driver is not None and self.driver is not component:
            raise DriveConflictError(
                f"signal {self.name!r} already driven by "
                f"{getattr(self.driver, 'name', self.driver)!r}; "
                f"{getattr(component, 'name', component)!r} cannot drive it too"
            )
        self.driver = component

    # ------------------------------------------------------------------
    @property
    def signed(self) -> int:
        """Current value under two's-complement interpretation."""
        if self.value & (1 << (self.width - 1)):
            return self.value - (1 << self.width)
        return self.value

    def __repr__(self) -> str:
        digits = (self.width + 3) // 4
        return f"Signal({self.name!r}, {self.width}'h{self.value:0{digits}x})"
