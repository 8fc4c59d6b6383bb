"""Backend registry: one name per simulation kernel.

The infrastructure's higher layers (flow, verification, RTG executor,
CLI, test suite) select a kernel by name rather than by class, so a
backend choice can travel through configuration, subprocess boundaries
and cache keys as a plain string.
"""

from __future__ import annotations

from .compiled import CompiledSimulator
from .kernel import Simulator
from .oblivious import ObliviousSimulator
from .trace import TracedSimulator

__all__ = ["SIMULATOR_BACKENDS", "create_simulator"]

#: name -> Simulator subclass; "event" is the default everywhere
SIMULATOR_BACKENDS = {
    "event": Simulator,
    "oblivious": ObliviousSimulator,
    "compiled": CompiledSimulator,
    "traced": TracedSimulator,
}


def create_simulator(backend: str = "event", *,
                     name: str = "sim", **kwargs) -> Simulator:
    """Instantiate the kernel registered under *backend*."""
    try:
        factory = SIMULATOR_BACKENDS[backend]
    except KeyError:
        raise ValueError(
            f"unknown simulation backend {backend!r} "
            f"(have: {', '.join(sorted(SIMULATOR_BACKENDS))})"
        ) from None
    return factory(name, **kwargs)
