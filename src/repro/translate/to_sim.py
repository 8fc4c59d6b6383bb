"""Build a live simulation from a datapath + FSM — the paper's "to hds".

The datapath netlist is instantiated through the operator catalog, the
control unit becomes a :class:`FsmController` (driving control lines and
sampling status lines at every clock edge), and the result is wrapped in
a :class:`SimDesign` handle the test harness runs until ``done``.

Memory resources are bound to live :class:`MemoryImage` objects supplied
by the caller (or created/loaded from ``init`` files), so the golden
comparison and cross-configuration sharing operate on the same storage
the simulated SRAM ports read and write.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from ..hdl.model.datapath import Datapath
from ..hdl.model.fsm import DONE_OUTPUT, Fsm
from ..operators.catalog import BuildContext, build_operator
from ..sim.backends import create_simulator
from ..sim.component import Sequential
from ..sim.errors import ElaborationError, SimulationTimeout
from ..sim.kernel import Simulator
from ..sim.signal import Signal
from ..util.files import MemoryImage, load_memory_file
from .engine import register_translation
from .to_python import InterpretedFsmBehavior, compile_fsm

__all__ = ["FsmController", "SimDesign", "build_simulation",
           "check_interface"]


def check_interface(datapath: Datapath, fsm: Fsm) -> None:
    """The FSM and datapath must agree on control and status lines."""
    for line in datapath.controls.values():
        decl = fsm.outputs.get(line.name)
        if decl is None:
            raise ElaborationError(
                f"datapath control line {line.name!r} is not an FSM output"
            )
        if decl.width != line.width:
            raise ElaborationError(
                f"control line {line.name!r}: datapath expects width "
                f"{line.width}, FSM declares {decl.width}"
            )
    for name in fsm.inputs:
        if name not in datapath.statuses:
            raise ElaborationError(
                f"FSM input {name!r} is not a datapath status line"
            )


class FsmController(Sequential):
    """The control unit as a simulation component.

    At every clock edge it samples the status signals (pre-edge values),
    advances the state via the behaviour object, and stages the *diff*
    between the old and new states' Moore output vectors (sound because
    control lines have no other driver; diffs are cached per state pair).
    """

    def __init__(self, name: str, behavior,
                 status_signals: Dict[str, Signal],
                 output_signals: Dict[str, Signal],
                 start_signal: Optional[Signal] = None) -> None:
        super().__init__(name, clock_enable=None)
        self.behavior = behavior
        self.status_signals = status_signals
        self.output_signals = output_signals
        self.state = behavior.reset_state
        self.transitions = 0
        #: optional per-edge observer called ``hook(state, next_state)``
        #: (self-loops included) — how :class:`repro.obs.CoverageCollector`
        #: sees transitions under the event-driven kernels; ``None`` costs
        #: a single identity check per edge
        self.coverage_hook = None
        #: optional start/done handshake for processor coupling: while
        #: idle the FSM holds its reset state until ``start`` rises; once
        #: finished it holds ``done`` until ``start`` falls, then returns
        #: to idle so the accelerator can be invoked again
        self.start_signal = start_signal
        self.invocations = 0
        self._idle = start_signal is not None
        # generated behaviours expose a per-state dispatch table; using
        # it directly saves a call per clock edge on the hot path
        self._dispatch = getattr(behavior, "transitions", None)
        # per-state drive lists, built on first visit: eager construction
        # was O(states x outputs) per elaboration, and the compiled
        # backends only ever touch the current state's list
        self._vectors: Dict[str, List[Tuple[Signal, int]]] = {}
        # per state-pair output *diffs*, built lazily: control lines are
        # driven only by this controller, so two consecutive Moore
        # vectors differ exactly where the signals must change — driving
        # the diff instead of the full vector is the controller's main
        # per-cycle saving on wide control interfaces
        self._diffs: Dict[Tuple[str, str], List[Tuple[Signal, int]]] = {}

    # ------------------------------------------------------------------
    def _vector_items(self, state: str) -> List[Tuple[Signal, int]]:
        items = self._vectors.get(state)
        if items is None:
            items = [(self.output_signals[output], value)
                     for output, value
                     in self.behavior.output_vectors[state].items()]
            self._vectors[state] = items
        return items

    def apply_state_outputs(self, sim: Simulator) -> None:
        for signal, value in self._vector_items(self.state):
            sim.drive(signal, value)

    def reset(self, sim: Simulator) -> None:
        self.state = self.behavior.reset_state
        self.apply_state_outputs(sim)

    @property
    def in_final_state(self) -> bool:
        return self.state in self.behavior.finals

    def on_edge(self, sim: Simulator) -> None:
        if self.start_signal is not None:
            if self._idle:
                if not self.start_signal.value:
                    return  # parked in the reset state, waiting for start
                self._idle = False
                self.invocations += 1
            elif self.in_final_state:
                if self.start_signal.value:
                    return  # hold done high until the host drops start
                # handshake complete: back to idle for the next call
                self._idle = True
                self.state = self.behavior.reset_state
                self.transitions += 1
                for signal, value in self._vector_items(self.state):
                    sim.drive(signal, value)
                return
        env = {name: signal.value
               for name, signal in self.status_signals.items()}
        if self._dispatch is not None:
            next_state = self._dispatch[self.state](env)
        else:
            next_state = self.behavior.next_state(self.state, env)
        if self.coverage_hook is not None:
            self.coverage_hook(self.state, next_state)
        if next_state != self.state:
            key = (self.state, next_state)
            diff = self._diffs.get(key)
            if diff is None:
                current = self.behavior.output_vectors[self.state]
                upcoming = self.behavior.output_vectors[next_state]
                diff = [(self.output_signals[name], value)
                        for name, value in upcoming.items()
                        if current[name] != value]
                self._diffs[key] = diff
            self.state = next_state
            self.transitions += 1
            for signal, value in diff:
                sim.drive(signal, value)

    def signals(self):
        return (*self.status_signals.values(),
                *self.output_signals.values())


class SimDesign:
    """A built design: simulator, controller, memories and run helpers."""

    def __init__(self, sim: Simulator, datapath: Datapath, fsm: Fsm,
                 controller: FsmController,
                 memories: Dict[str, MemoryImage],
                 output_signals: Dict[str, Signal],
                 status_signals: Dict[str, Signal]) -> None:
        self.sim = sim
        self.datapath = datapath
        self.fsm = fsm
        self.controller = controller
        self.memories = memories
        self.output_signals = output_signals
        self.status_signals = status_signals

    @property
    def done_signal(self) -> Optional[Signal]:
        return self.output_signals.get(DONE_OUTPUT)

    @property
    def done(self) -> bool:
        done = self.done_signal
        return bool(done.value) if done is not None else \
            self.controller.in_final_state

    def run_to_done(self, max_cycles: int = 10_000_000) -> int:
        """Run until the design asserts ``done``; returns cycles used."""
        try:
            return self._run_until_done(max_cycles)
        except SimulationTimeout:
            raise SimulationTimeout(
                f"design {self.datapath.name!r} did not finish within "
                f"{max_cycles} cycles (state {self.controller.state!r})",
                max_cycles,
            ) from None

    def _run_until_done(self, max_cycles: int) -> int:
        """The kernel call of :meth:`run_to_done`; raises the kernel's
        own :class:`SimulationTimeout`."""
        done = self.done_signal
        if done is not None:
            # signal-based form: identical semantics to the generic
            # predicate, but backends that compile the design (the
            # CompiledSimulator) can recognise a Moore control line and
            # run their specialized loop
            return self.sim.run_until_high(done, max_cycles=max_cycles)
        return self.sim.run_until(lambda: self.done, max_cycles=max_cycles)

    def snapshot(self) -> tuple:
        """The live state of this elaboration, for :meth:`restore`.

        It holds every signal value, the controller's state and
        counters, the kernel's statistics, simulated time, each clock
        domain's cycle count and every memory's words.  SRAM
        ``reads``/``writes`` counters are not saved.
        """
        sim = self.sim
        controller = self.controller
        return ([signal.value for signal in sim._signals.values()],
                (controller.state, controller.transitions,
                 controller._idle, controller.invocations),
                sim.stats.as_dict(), sim.now,
                [domain.cycles for domain in sim._domains.values()],
                [list(image._words) for image in self.memories.values()])

    def restore(self, state: tuple) -> None:
        """Return this elaboration to a :meth:`snapshot` of it, so the
        next run behaves as it did from there; the statistics rewind
        too, so a traced kernel's promotion count does not add up over
        rewound runs."""
        values, control, stats, now, cycles, words = state
        sim = self.sim
        # in place: compiled kernels are bound to these very lists
        for image, saved in zip(self.memories.values(), words):
            image._words[:] = saved
        for signal, value in zip(sim._signals.values(), values):
            signal.value = value
        controller = self.controller
        (controller.state, controller.transitions, controller._idle,
         controller.invocations) = control
        for name, value in stats.items():
            setattr(sim.stats, name, value)
        sim.now = now
        for domain, count in zip(sim._domains.values(), cycles):
            domain.cycles = count
            domain.rearm()  # enables were restored without their watchers
        sim._worklist.clear()
        sim._staged.clear()

    def resettle(self) -> None:
        """Re-derive every combinational value from the memory words, as
        elaborating on them would; call it after writing the bound
        images directly.

        Only the memory read ports are queued: the rest of the network
        is already settled for the values those ports drive (a restored
        snapshot was taken settled), so the settle re-evaluates just
        the fanout of the read words that changed.
        """
        sim = self.sim
        sim._worklist.extend(component
                             for component in sim._components.values()
                             if hasattr(component, "image")
                             and hasattr(component, "evaluate"))
        sim.settle()

    def memory(self, name: str) -> MemoryImage:
        try:
            return self.memories[name]
        except KeyError:
            raise ElaborationError(
                f"design has no memory {name!r} "
                f"(have: {sorted(self.memories)})"
            ) from None

    def trace(self, path: Union[str, Path],
              signals: Optional[List[Signal]] = None):
        """Open a VCD waveform dump of this design (context manager).

        The paper lists "access to values on certain connections" among
        the facilities simulation provides over on-FPGA testing; this
        exposes it as an industry-standard artifact::

            with design.trace("run.vcd"):
                design.run_to_done()
        """
        from ..sim.vcd import VcdWriter

        return VcdWriter(self.sim, path, signals=signals,
                         module=self.datapath.name)

    def release(self) -> None:
        """Retire this elaboration: detach SRAM ports from their images.

        Call when the hardware is replaced (reconfiguration) while the
        memory images live on — otherwise stale ports keep observing
        image writes.
        """
        for component in self.sim.components.values():
            detach = getattr(component, "detach", None)
            if detach is not None:
                detach()

    def __repr__(self) -> str:
        return (f"SimDesign({self.datapath.name!r}, "
                f"state={self.controller.state!r}, done={self.done})")


def _resolve_memories(datapath: Datapath,
                      memories: Optional[Dict[str, MemoryImage]],
                      init_dir: Optional[Union[str, Path]]) -> Dict[str, MemoryImage]:
    """Bind every declared memory resource to a live image."""
    bound: Dict[str, MemoryImage] = dict(memories or {})
    for decl in datapath.memories.values():
        image = bound.get(decl.name)
        if image is None:
            if decl.init and init_dir is not None:
                image = load_memory_file(Path(init_dir) / decl.init,
                                         name=decl.name)
            else:
                image = MemoryImage(decl.width, decl.depth, name=decl.name)
            bound[decl.name] = image
        if image.width != decl.width or image.depth != decl.depth:
            raise ElaborationError(
                f"memory {decl.name!r}: bound image is "
                f"{image.width}x{image.depth}, declaration says "
                f"{decl.width}x{decl.depth}"
            )
    return bound


def build_simulation(datapath: Datapath, fsm: Fsm,
                     memories: Optional[Dict[str, MemoryImage]] = None,
                     *,
                     sim: Optional[Simulator] = None,
                     fsm_mode: str = "generated",
                     backend: str = "event",
                     clock_period: int = 10,
                     init_dir: Optional[Union[str, Path]] = None,
                     start_signal: Optional[Signal] = None) -> SimDesign:
    """Elaborate *datapath* + *fsm* into a runnable :class:`SimDesign`.

    ``fsm_mode`` selects the control-unit execution strategy:
    ``"generated"`` (XML → Python source → compiled, the paper's approach)
    or ``"interpreted"`` (object-model walk, the ablation baseline).

    ``backend`` selects the simulation kernel by name (see
    :data:`repro.sim.SIMULATOR_BACKENDS`); ignored when an explicit
    *sim* instance is passed.

    ``start_signal`` (a 1-bit signal in *sim*) enables the start/done
    handshake used when coupling the accelerator to a host processor
    (see :mod:`repro.cosim`): the control unit idles until start rises
    and re-arms once the host acknowledges ``done`` by dropping start.
    """
    datapath.validate()
    fsm.validate()
    check_interface(datapath, fsm)

    if sim is None:
        sim = create_simulator(backend, name=datapath.name)
    sim.clock_domain("clk", period=clock_period)

    bound_memories = _resolve_memories(datapath, memories, init_dir)

    # --- signals -------------------------------------------------------
    port_signals: Dict[Tuple[str, str], Signal] = {}

    def bind(component: str, port: str, signal: Signal) -> None:
        key = (component, port)
        if key in port_signals:
            raise ElaborationError(
                f"port {component}.{port} bound twice during elaboration"
            )
        port_signals[key] = signal

    for net in datapath.nets.values():
        signal = sim.signal(net.name, net.width)
        bind(net.source.component, net.source.port, signal)
        for sink in net.sinks:
            bind(sink.component, sink.port, signal)

    output_signals: Dict[str, Signal] = {}
    for line in datapath.controls.values():
        signal = sim.signal(line.name, line.width)
        output_signals[line.name] = signal
        for target in line.targets:
            bind(target.component, target.port, signal)
    # FSM outputs with no datapath target (e.g. 'done') still get signals
    for decl in fsm.outputs.values():
        if decl.name not in output_signals:
            output_signals[decl.name] = sim.signal(decl.name, decl.width)

    status_signals: Dict[str, Signal] = {}
    for status in datapath.statuses.values():
        key = (status.source.component, status.source.port)
        existing = port_signals.get(key)
        if existing is None:
            signal = sim.signal(status.name, 1)
            bind(status.source.component, status.source.port, signal)
            status_signals[status.name] = signal
        else:
            status_signals[status.name] = existing

    # --- components ----------------------------------------------------
    # group port bindings per component in one pass: the per-component
    # filtering comprehension this replaces was O(components x ports) and
    # dominated elaboration on large datapaths
    ports_by_component: Dict[str, Dict[str, Signal]] = {}
    for (component, port), signal in port_signals.items():
        ports_by_component.setdefault(component, {})[port] = signal
    ctx = BuildContext(sim, bound_memories)
    for decl in datapath.components.values():
        ports = ports_by_component.get(decl.name, {})
        build_operator(ctx, decl.type, decl.name, ports, dict(decl.params))

    # --- control unit ----------------------------------------------------
    if fsm_mode == "generated":
        behavior = compile_fsm(fsm)
    elif fsm_mode == "interpreted":
        behavior = InterpretedFsmBehavior(fsm)
    else:
        raise ValueError(
            f"fsm_mode must be 'generated' or 'interpreted', got {fsm_mode!r}"
        )
    fsm_status = {name: status_signals[name] for name in fsm.inputs}
    controller = FsmController(f"{fsm.name}__ctl", behavior, fsm_status,
                               output_signals, start_signal=start_signal)
    sim.add(controller)
    controller.apply_state_outputs(sim)
    sim.settle()

    # Structural identity of what was just elaborated; the compiled and
    # traced backends use it as the persistent kernel-cache key.  Cleared
    # by the simulator if the design is mutated after elaboration.
    # (Imported here: repro.core pulls in translate at import time.)
    from ..core.kernelcache import datapath_digest, digest_parts, fsm_digest

    sim.design_digest = digest_parts(
        "design-v1", datapath_digest(datapath), fsm_digest(fsm),
        fsm_mode, start_signal is not None)

    return SimDesign(sim, datapath, fsm, controller, bound_memories,
                     output_signals, status_signals)


@register_translation(Datapath, "sim")
def _datapath_to_sim(datapath: Datapath, *, fsm: Fsm,
                     **options) -> SimDesign:
    return build_simulation(datapath, fsm, **options)
