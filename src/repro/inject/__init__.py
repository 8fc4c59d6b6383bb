"""Simulation-based fault injection (SBFI) over compiled designs.

This package injects *hardware-fault-shaped* upsets into the running
simulation — bit-flips in registers and memory words, stuck-at lines,
transient upsets pinned to an FSM state — and *compiler-bug-shaped*
mutants into a copy of the design before it is elaborated (experiment
E5, which asks whether golden comparison would catch a compiler
regression), and classifies each run against the golden software
execution as ``masked``, ``sdc`` (silent data corruption), ``hang``
(cycle-budget timeout) or ``crash``.

The three layers:

* :mod:`~repro.inject.faultload` — seeded, reproducible fault
  descriptors enumerated from a compiled design, serialisable to JSON
  for replay, and the enumeration of a design's mutants;
* :mod:`~repro.inject.hooks` — how a descriptor takes effect in a
  simulator: compiled/traced kernels regenerate with forcing/flip
  lines (the ``fault`` field of the simulator's instrumentation, next
  to coverage tallies and profiler timers), the event kernel uses
  signal watchers and post-settle cycle hooks, and a mutant is an
  edited XML copy of the design;
* :mod:`~repro.inject.campaign` — fans a faultload across the fork
  pool, tallies verdicts, and records per-fault rows into the run
  ledger (schema v4) and the dashboard.
"""

from .campaign import (CampaignReport, InjectionResult, run_campaign,
                       run_injection)
from .faultload import (FaultDescriptor, FaultloadGenerator,
                        enumerate_mutants, load_faultload,
                        output_adjacent_nets, save_faultload)
from .hooks import attach_fault, kernel_spec, mutate_design

__all__ = [
    "FaultDescriptor", "FaultloadGenerator", "load_faultload",
    "save_faultload", "output_adjacent_nets", "enumerate_mutants",
    "attach_fault", "kernel_spec", "mutate_design",
    "InjectionResult", "CampaignReport", "run_injection", "run_campaign",
]
