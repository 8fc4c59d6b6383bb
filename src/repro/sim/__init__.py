"""Event-driven functional simulation kernel (the Hades substitute).

Public surface:

* :class:`Simulator` — the hybrid event/cycle kernel
* :class:`ObliviousSimulator` — evaluate-everything reference kernel
* :class:`CompiledSimulator` — levelized, per-state-specialized kernel
* :class:`TracedSimulator` — compiled kernel + hot FSM-loop trace fusion
* :class:`LaneBatch` — N stimulus sets run in turn on one rewound
  elaboration, on any backend
* :data:`SIMULATOR_BACKENDS` / :func:`create_simulator` — select by name
* :class:`Signal`, :class:`Combinational`, :class:`Sequential`,
  :class:`ClockDomain` — the structural model
* :class:`Probe`, :class:`Assertion`, :class:`StopCondition`,
  :class:`VcdWriter` — observation facilities
"""

from .clock import ClockDomain
from .component import Combinational, Component, Sequential
from .errors import (CombinationalLoopError, DriveConflictError,
                     ElaborationError, SimulationError, SimulationTimeout)
from .kernel import SimulationStats, Simulator
from .levelize import levelize
from .oblivious import ObliviousSimulator
from .probe import Assertion, Probe, StopCondition
from .signal import Signal
from .vcd import VcdWriter, write_vcd_window
from .wavecapture import WaveCapture, WaveSample
# compiled imports repro.operators (for its code emitters), which in turn
# imports sim submodules — keep this import last so those are complete
from .compiled import CompiledSimulator
from .trace import TracedSimulator
from .batched import BatchReport, LaneBatch
from .backends import SIMULATOR_BACKENDS, create_simulator

__all__ = [
    "Simulator",
    "ObliviousSimulator",
    "CompiledSimulator",
    "TracedSimulator",
    "BatchReport",
    "LaneBatch",
    "SIMULATOR_BACKENDS",
    "create_simulator",
    "levelize",
    "SimulationStats",
    "Signal",
    "Component",
    "Combinational",
    "Sequential",
    "ClockDomain",
    "Probe",
    "Assertion",
    "StopCondition",
    "VcdWriter",
    "write_vcd_window",
    "WaveCapture",
    "WaveSample",
    "SimulationError",
    "ElaborationError",
    "CombinationalLoopError",
    "SimulationTimeout",
    "DriveConflictError",
]
