"""How a fault descriptor takes effect inside a simulator.

Two mechanisms, chosen per design at attach time:

* **Kernel spec** — on a :class:`~repro.sim.compiled.CompiledSimulator`
  (and its traced subclass) the fault is *compiled into* the generated
  kernel, exactly like coverage instrumentation: a
  :class:`KernelFaultSpec` on the simulator makes codegen emit forcing
  lines (stuck-at) or a windowed one-shot XOR (transient flip).  The
  fast path keeps running at full speed.
* **Event hooks** — on the plain event kernel (or when the compiled
  subset rejects the target, e.g. a Moore control line) the stuck-at
  becomes a signal watcher that re-forces the value before the fanout
  is queued, and the transient flip becomes a post-settle cycle hook
  (see ``Simulator._cycle_hooks``).  Both deliberately block the
  compiled fast path, so the hooks always take effect.

Either way the observable semantics are identical for register-output
targets; :func:`attach_fault` returns a :class:`FaultHandle` whose
``mechanism`` records which path was taken.

``mem_flip`` descriptors never reach this module — they mutate memory
images before the run (see :func:`repro.inject.campaign.apply_mem_flip`).
"""

from __future__ import annotations

from typing import Optional

from ..sim.compiled import CompiledSimulator
from ..sim.signal import Signal
from .faultload import FaultDescriptor

__all__ = ["KernelFaultSpec", "FaultHandle", "kernel_spec", "attach_fault"]


class KernelFaultSpec:
    """The codegen-facing form of a signal fault (see sim.compiled).

    ``kind`` is ``"stuck"`` or ``"flip"``; the masks are pre-widened to
    the target signal, and ``latch`` is the one-shot fired flag shared
    with the generated code (a fresh list per spec, so replays rearm).
    """

    __slots__ = ("kind", "signal", "state", "and_mask", "or_mask",
                 "xor_mask", "lo", "hi", "latch")

    def __init__(self, kind: str, signal: str, *, state: Optional[str] = None,
                 and_mask: int = -1, or_mask: int = 0, xor_mask: int = 0,
                 lo: int = 0, hi: int = 0) -> None:
        self.kind = kind
        self.signal = signal
        self.state = state
        self.and_mask = and_mask
        self.or_mask = or_mask
        self.xor_mask = xor_mask
        self.lo = lo
        self.hi = hi
        self.latch = [0]

    def __repr__(self) -> str:
        return f"KernelFaultSpec({self.kind!r}, {self.signal!r})"


def kernel_spec(fault: FaultDescriptor, signal: Signal) -> KernelFaultSpec:
    """Build the kernel spec for a signal fault on *signal*."""
    if fault.kind == "stuck":
        if fault.stuck_value:
            return KernelFaultSpec("stuck", fault.target,
                                   and_mask=signal.mask,
                                   or_mask=(1 << fault.bit) & signal.mask)
        return KernelFaultSpec("stuck", fault.target,
                               and_mask=signal.mask & ~(1 << fault.bit))
    if fault.kind == "reg_flip":
        return KernelFaultSpec("flip", fault.target, state=fault.state,
                               xor_mask=(1 << fault.bit) & signal.mask,
                               lo=fault.cycle_lo, hi=fault.cycle_hi)
    raise ValueError(f"{fault.kind!r} faults are not signal faults")


class FaultHandle:
    """An attached fault; ``detach()`` restores the clean simulator."""

    def __init__(self, sim, *, mechanism: str,
                 watcher=None, hook=None, spec=None, latch=None) -> None:
        self.sim = sim
        self.mechanism = mechanism  # "kernel" | "watcher" | "cycle-hook"
        self._watcher = watcher  # (signal, callback)
        self._hook = hook
        self._spec = spec
        #: a transient flip's one-shot fired flag, shared with the
        #: kernel or the cycle hook (None for a stuck-at)
        self._latch = latch

    @property
    def fired(self) -> bool:
        """Whether the fault has taken effect: a stuck-at always has, a
        transient flip once it has struck."""
        return self._latch is None or bool(self._latch[0])

    def detach(self) -> None:
        if self._spec is not None:
            self.sim.set_fault_spec(None)
            self._spec = None
        if self._watcher is not None:
            signal, callback = self._watcher
            signal.unwatch(callback)
            self._watcher = None
        if self._hook is not None:
            try:
                self.sim._cycle_hooks.remove(self._hook)
            except ValueError:
                pass
            self._hook = None

    def __enter__(self) -> "FaultHandle":
        return self

    def __exit__(self, *exc) -> None:
        self.detach()


def attach_fault(design, fault: FaultDescriptor) -> FaultHandle:
    """Arm *fault* on an elaborated :class:`SimDesign`.

    Prefers the compiled kernel spec; falls back to event-kernel hooks
    when the simulator is not compiled or the target is outside the
    compiled subset.  Raises :class:`ValueError` for descriptors that
    cannot apply to this design (unknown signal, bit out of range).
    """
    if fault.kind == "mem_flip":
        raise ValueError("mem_flip faults mutate memory images before "
                         "the run; use campaign.apply_mem_flip")
    sim = design.sim
    signal = sim._signals.get(fault.target)
    if signal is None:
        raise ValueError(
            f"design {design.datapath.name!r} has no signal "
            f"{fault.target!r}")
    if fault.bit >= signal.width:
        raise ValueError(
            f"bit {fault.bit} out of range for {fault.target!r} "
            f"(width {signal.width})")
    if fault.kind == "reg_flip" and fault.state is not None \
            and fault.state not in design.fsm.states:
        raise ValueError(
            f"design {design.datapath.name!r} has no FSM state "
            f"{fault.state!r}")

    if isinstance(sim, CompiledSimulator):
        spec = kernel_spec(fault, signal)
        sim.set_fault_spec(spec)
        if sim._ensure_program() is not None:
            return FaultHandle(sim, mechanism="kernel", spec=spec,
                               latch=spec.latch if spec.kind == "flip"
                               else None)
        # outside the compiled subset: clear the spec (which also
        # clears the fallback reason) and fault the event kernel the
        # design will now run on
        sim.set_fault_spec(None)

    if fault.kind == "stuck":
        if fault.stuck_value:
            and_mask, or_mask = signal.mask, (1 << fault.bit) & signal.mask
        else:
            and_mask, or_mask = signal.mask & ~(1 << fault.bit), 0

        def force(sig, old, new, _a=and_mask, _o=or_mask):
            # runs inside Simulator._apply before the fanout is queued,
            # so every consumer reads the forced value
            sig.value = (new & _a) | _o

        signal.watch(force)
        forced = (signal.value & and_mask) | or_mask
        if forced != signal.value:
            signal.value = forced
            sim._worklist.extend(signal.sinks)
        return FaultHandle(sim, mechanism="watcher",
                           watcher=(signal, force))

    # transient flip: post-settle cycle hook.  The pinned state is
    # matched against the *pre-edge* state of each cycle (what the
    # compiled kernel's per-state edge block specializes on), which at
    # hook time — after the edge — is the state recorded one call ago.
    controller = design.controller
    xor_mask = (1 << fault.bit) & signal.mask
    box = {"cycle": 0, "prev": controller.state}
    latch = [0]

    def upset(sim_, _sig=signal, _box=box, _latch=latch, _state=fault.state,
              _lo=fault.cycle_lo, _hi=fault.cycle_hi, _x=xor_mask):
        _box["cycle"] += 1
        pre = _box["prev"]
        _box["prev"] = controller.state
        if _latch[0] or (_state is not None and pre != _state):
            return
        if not (_lo <= _box["cycle"] <= _hi):
            return
        _latch[0] = 1
        _sig.value = (_sig.value ^ _x) & _sig.mask
        sim_._worklist.extend(_sig.sinks)

    sim._cycle_hooks.append(upset)
    return FaultHandle(sim, mechanism="cycle-hook", hook=upset, latch=latch)
