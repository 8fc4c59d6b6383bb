"""Bounded ring-buffer waveform capture for any simulation backend.

The observation layers built so far (:class:`~repro.sim.probe.Probe`,
:class:`~repro.sim.vcd.VcdWriter`) attach signal watchers, which the
compiled/traced kernels treat as a reason to fall back to the event
kernel.  :class:`WaveCapture` takes the opposite approach: it never
installs a watcher.  It advances the simulator one cycle at a time with
``run_cycles(1)`` and samples the post-settle signal values at each
cycle boundary.  The fast kernels fully resynchronise the signal/FSM
state after every ``run_cycles`` exit (see
``CompiledSimulator._resync``), so the captured values are bit-exact
with what the event kernel would show — and the fast path stays armed,
which is what makes cycle-accurate capture affordable on the compiled
and traced backends.

Memory is bounded: samples land in a ring of ``window`` entries, and
once the ring wraps a truncation marker is recorded (``truncated`` /
``dropped``), mirroring the span-attribute clipping convention in
:mod:`repro.obs.trace` — huge designs degrade gracefully instead of
OOMing.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from .signal import Signal

__all__ = ["WaveSample", "WaveCapture", "DEFAULT_WINDOW"]

#: default ring size: enough context around a divergence to read the
#: waveform, small enough that capturing every signal stays cheap
DEFAULT_WINDOW = 64


@dataclass
class WaveSample:
    """Post-settle snapshot of one cycle boundary."""

    cycle: int
    state: str
    values: Dict[str, int] = field(default_factory=dict)


class WaveCapture:
    """Per-cycle signal capture over a :class:`SimDesign`-like object.

    *design* needs ``sim`` (a :class:`~repro.sim.kernel.Simulator` or
    subclass) and ``controller`` (``.state``) attributes —
    :class:`repro.translate.to_sim.SimDesign` provides both.

    ``signals`` restricts capture to the named subset (default: every
    signal).  ``post_step`` is an optional callable invoked with the
    simulator after every advance, *before* sampling — the triage layer
    uses it to re-force stuck-at faults that the fast kernels' post-run
    settle would otherwise wash out of the observable view.
    """

    def __init__(self, design, *, window: int = DEFAULT_WINDOW,
                 signals: Optional[Sequence[str]] = None,
                 post_step: Optional[Callable] = None) -> None:
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        self.design = design
        self.sim = design.sim
        table = self.sim.signals
        if signals is None:
            names = sorted(table)
        else:
            names = list(signals)
            missing = [name for name in names if name not in table]
            if missing:
                raise ValueError(f"unknown signal(s) {missing}")
        self._signals: List[Tuple[str, Signal]] = [
            (name, table[name]) for name in names]
        self.window = window
        self.samples: deque = deque(maxlen=window)
        self.post_step = post_step
        #: cycles advanced through this capture (skip + step)
        self.cycle = 0
        #: samples pushed out of the ring (the truncation marker)
        self.dropped = 0

    # ------------------------------------------------------------------
    @property
    def signal_names(self) -> List[str]:
        return [name for name, _ in self._signals]

    @property
    def widths(self) -> Dict[str, int]:
        return {name: sig.width for name, sig in self._signals}

    @property
    def truncated(self) -> bool:
        return self.dropped > 0

    def truncation_note(self) -> str:
        """Human-readable marker, mirroring the obs.trace clip format."""
        if not self.truncated:
            return ""
        return f"… [{self.dropped} cycles dropped]"

    @property
    def last(self) -> Optional[WaveSample]:
        return self.samples[-1] if self.samples else None

    def values(self) -> Dict[str, int]:
        """Current post-settle values (without recording a sample)."""
        return {name: sig.value for name, sig in self._signals}

    # ------------------------------------------------------------------
    def sample(self) -> WaveSample:
        """Record the current cycle boundary into the ring."""
        if len(self.samples) == self.window:
            self.dropped += 1
        entry = WaveSample(self.cycle, self.design.controller.state,
                           {name: sig.value for name, sig in self._signals})
        self.samples.append(entry)
        return entry

    def step(self, n: int = 1) -> None:
        """Advance *n* cycles, sampling after each one."""
        for _ in range(n):
            self.sim.run_cycles(1)
            self.cycle += 1
            if self.post_step is not None:
                self.post_step(self.sim)
            self.sample()

    def skip(self, n: int) -> None:
        """Fast-forward *n* cycles without sampling.

        A single ``run_cycles(n)`` call, so the compiled/traced fast
        path covers the whole stretch in one kernel entry.
        """
        if n <= 0:
            return
        self.sim.run_cycles(n)
        self.cycle += n
        if self.post_step is not None:
            self.post_step(self.sim)

    # ------------------------------------------------------------------
    def state_timeline(self) -> List[Tuple[int, str]]:
        """``(cycle, fsm_state)`` for every retained sample."""
        return [(entry.cycle, entry.state) for entry in self.samples]

    def to_vcd(self, path: Union[str, Path], *,
               signals: Optional[Sequence[str]] = None,
               module: str = "design", timescale: str = "1ns",
               period: int = 10) -> Path:
        """Dump the retained window as a VCD file.

        Unlike :class:`~repro.sim.vcd.VcdWriter` this needs no watchers,
        so it works on the compiled and traced backends without knocking
        them off their fast path; each retained cycle becomes one
        timestamp (``cycle * period``).
        """
        from .vcd import write_vcd_window
        names = self.signal_names if signals is None else list(signals)
        widths = self.widths
        return write_vcd_window(path, list(self.samples),
                                {name: widths[name] for name in names},
                                module=module, timescale=timescale,
                                period=period)
