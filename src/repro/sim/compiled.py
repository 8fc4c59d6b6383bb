"""The compiled (levelized, specialized) simulation backend.

Instead of dispatching events through a worklist, this backend turns an
elaborated design into one generated Python function per elaboration —
the approach of compiled-code simulators such as Verilator, transplanted
to the paper's language-level setting:

* the combinational network is **levelized** once
  (:mod:`repro.sim.levelize`), so a settle wave is straight-line code
  with producers ahead of consumers — no worklist, no dict dispatch;
* the generated code is **specialized per FSM state**: control lines are
  Moore outputs, i.e. compile-time constants within a state, so muxes
  with constant selects collapse to aliases, disabled registers and
  write ports vanish, and dead code elimination keeps only the cone
  that the state's enabled sinks and the status lines actually read;
* signal values live in Python **locals** inside the generated loop
  (the cheapest storage CPython offers), synced with the
  :class:`~repro.sim.signal.Signal` objects at entry and exit, one
  statement each way.

The backend is *conservative*: any construct outside the supported
subset — a foreign signal watcher (probe, VCD), a start/done handshake,
multiple clock domains, an operator type without a registered emitter —
falls back to the inherited event-driven kernel, so
:class:`CompiledSimulator` is always safe to select.  The fallback
reason is recorded on the simulator for inspection.

Semantics match the event kernel exactly: per cycle the sequential
elements sample pre-edge values (two-phase), SRAM writes are strict,
the controller samples pre-edge statuses, and the post-edge
combinational wave settles before the next cycle.  On leaving the fast
path every signal is written back and a full event-driven settle runs,
so external observers cannot distinguish the kernels.  Aggregate
:class:`~repro.sim.kernel.SimulationStats` counters are maintained from
per-state static work counts times visit counts (per-wave accounting
rather than per-event, as the counters' consumers expect).

Coverage, the hot-spot profiler and fault injection are compiled in
too, as one :class:`Instrumentation` value per simulator whose token
names the kernel variant; instrumented calls fold into one
:class:`KernelTally`.
"""

from __future__ import annotations

import time
from types import CodeType
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

from .clock import ClockDomain
from .component import Sequential
from .errors import (CombinationalLoopError, SimulationError,
                     SimulationTimeout)
from .kernel import Simulator
from .levelize import levelize
from .signal import Signal

__all__ = ["CompiledSimulator", "Instrumentation", "KernelTally"]


class _Unsupported(Exception):
    """The design is outside the compiled subset; fall back."""


# ----------------------------------------------------------------------
# Transition classification
# ----------------------------------------------------------------------
class _ProbeEnv(dict):
    """An env that records whether a transition function reads it."""

    def __init__(self) -> None:
        super().__init__()
        self.touched = False

    def __getitem__(self, key):
        self.touched = True
        return 0

    def __missing__(self, key):
        self.touched = True
        return 0

    def get(self, key, default=None):
        self.touched = True
        return 0

    def __contains__(self, key) -> bool:
        self.touched = True
        return True


def _classify_transition(fn: Callable) -> Optional[str]:
    """The static target state if *fn* ignores its env, else ``None``.

    Transition functions are pure over their env (generated from the FSM
    guards), so a call that reads nothing from the env always returns
    the same state.
    """
    probe = _ProbeEnv()
    try:
        target = fn(probe)
    except Exception:
        return None
    if probe.touched or not isinstance(target, str):
        return None
    return target


# ----------------------------------------------------------------------
# Expression emitters (one per exact operator type)
# ----------------------------------------------------------------------
# Each emitter returns a list of (relative_indent, line) statements that
# recompute the operator's output local from its input expressions.
# ``val(sig)`` renders a signal as either its local name or, for FSM
# control lines, the state's constant value as a literal.

def _signed(expr: str, width: int) -> str:
    half = 1 << (width - 1)
    full = 1 << width
    return f"(({expr}) - {full} if ({expr}) & {half} else ({expr}))"


def _e_add(op, val, gen):
    return [(0, f"{val(op.y)} = ({val(op.a)} + {val(op.b)}) & {op.y.mask}")]


def _e_sub(op, val, gen):
    return [(0, f"{val(op.y)} = ({val(op.a)} - {val(op.b)}) & {op.y.mask}")]


def _e_mul(op, val, gen):
    return [(0, f"{val(op.y)} = ({val(op.a)} * {val(op.b)}) & {op.y.mask}")]


def _e_mulfull(op, val, gen):
    a = _signed(val(op.a), op.width)
    b = _signed(val(op.b), op.width)
    return [(0, f"{val(op.y)} = ({a} * {b}) & {op.y.mask}")]


def _e_div(op, val, gen):
    # the div/rem family keeps its exact semantics (truncate/floor,
    # strict or counted zero divisors) by calling a bound helper that
    # wraps the component's own compute()
    helper = gen.helper(op.name)
    return [(0, f"{val(op.y)} = {helper}({val(op.a)}, {val(op.b)})")]


def _make_div_helper(op):
    compute = op.compute
    mask = op.y.mask

    def div_helper(a: int, b: int) -> int:
        return compute(a, b) & mask

    return div_helper


def _e_neg(op, val, gen):
    return [(0, f"{val(op.y)} = (-{val(op.a)}) & {op.y.mask}")]


def _e_abs(op, val, gen):
    half = 1 << (op.width - 1)
    full = 1 << op.width
    return [(0, f"{val(op.y)} = ({full} - {val(op.a)}) & {op.y.mask} "
                f"if {val(op.a)} & {half} else {val(op.a)}")]


def _e_min(op, val, gen):
    half = 1 << (op.width - 1)
    return [(0, f"{val(op.y)} = {val(op.a)} if ({val(op.a)} ^ {half}) <= "
                f"({val(op.b)} ^ {half}) else {val(op.b)}")]


def _e_max(op, val, gen):
    half = 1 << (op.width - 1)
    return [(0, f"{val(op.y)} = {val(op.a)} if ({val(op.a)} ^ {half}) >= "
                f"({val(op.b)} ^ {half}) else {val(op.b)}")]


def _e_and(op, val, gen):
    return [(0, f"{val(op.y)} = {val(op.a)} & {val(op.b)}")]


def _e_or(op, val, gen):
    return [(0, f"{val(op.y)} = {val(op.a)} | {val(op.b)}")]


def _e_xor(op, val, gen):
    return [(0, f"{val(op.y)} = {val(op.a)} ^ {val(op.b)}")]


def _e_not(op, val, gen):
    return [(0, f"{val(op.y)} = {val(op.a)} ^ {op.y.mask}")]


def _e_shl(op, val, gen):
    return [(0, f"{val(op.y)} = (({val(op.a)} << {val(op.b)}) & {op.y.mask}) "
                f"if {val(op.b)} < {op.width} else 0")]


def _e_lshr(op, val, gen):
    return [(0, f"{val(op.y)} = ({val(op.a)} >> {val(op.b)}) "
                f"if {val(op.b)} < {op.width} else 0")]


def _e_ashr(op, val, gen):
    half = 1 << (op.width - 1)
    sa = _signed(val(op.a), op.width)
    return [
        (0, f"if {val(op.b)} < {op.width}:"),
        (1, f"{val(op.y)} = ({sa} >> {val(op.b)}) & {op.y.mask}"),
        (0, "else:"),
        (1, f"{val(op.y)} = {op.y.mask} if {val(op.a)} & {half} else 0"),
    ]


_CMP = {"eq": "==", "ne": "!=", "lt": "<", "le": "<=", "gt": ">", "ge": ">="}


def _e_cmp(op, val, gen):
    symbol = _CMP[op.op]
    a, b = val(op.a), val(op.b)
    if op.signed_mode and op.op not in ("eq", "ne"):
        half = 1 << (op.width - 1)
        a, b = f"({a} ^ {half})", f"({b} ^ {half})"
    return [(0, f"{val(op.y)} = 1 if {a} {symbol} {b} else 0")]


def _e_zext(op, val, gen):
    return [(0, f"{val(op.y)} = {val(op.a)}")]


def _e_sext(op, val, gen):
    ext = op.y.mask ^ op.a.mask
    half = 1 << (op.a.width - 1)
    return [(0, f"{val(op.y)} = ({val(op.a)} | {ext}) "
                f"if {val(op.a)} & {half} else {val(op.a)}")]


def _e_trunc(op, val, gen):
    return [(0, f"{val(op.y)} = {val(op.a)} & {op.y.mask}")]


def _e_slice(op, val, gen):
    return [(0, f"{val(op.y)} = ({val(op.a)} >> {op.low}) & {op.y.mask}")]


def _e_concat(op, val, gen):
    expr = val(op.inputs[0])
    for sig in op.inputs[1:]:
        expr = f"(({expr} << {sig.width}) | {val(sig)})"
    return [(0, f"{val(op.y)} = {expr}")]


def _e_mux(op, val, gen):
    sel = val(op.sel)
    if not sel.lstrip("-").isdigit():
        # dynamic select: guard chain, out-of-range falls back to input 0
        expr = val(op.inputs[0])
        for index in range(len(op.inputs) - 1, 0, -1):
            expr = f"{val(op.inputs[index])} if {sel} == {index} else {expr}"
        return [(0, f"{val(op.y)} = {expr}")]
    index = int(sel)
    if index >= len(op.inputs):
        index = 0
    return [(0, f"{val(op.y)} = {val(op.inputs[index])}")]


def _e_sram_read(op, val, gen):
    words = gen.mem(op.image, op.name)
    comp = gen.comp(op)
    return [
        (0, f"if {val(op.addr)} < {op.image.depth}:"),
        (1, f"{val(op.dout)} = {words}[{val(op.addr)}]"),
        (0, "else:"),
        (1, f"{val(op.dout)} = 0"),
        (1, f"{comp}.oob_reads += 1"),
    ]


def _e_rom_read(op, val, gen):
    words = gen.mem(op.image, op.name)
    comp = gen.comp(op)
    return [(0, f"{val(op.dout)} = {words}[{val(op.addr)}] "
                f"if {val(op.addr)} < {op.image.depth} "
                f"else {comp}.image.read({val(op.addr)})")]


# The emitter tables are built lazily: this module is imported from the
# ``repro.sim`` package __init__, which the operator modules themselves
# import (for Combinational/Sequential/Signal), so importing operators
# at module scope here would be circular.
_EMITTERS: Dict[type, Callable] = {}
_T: Dict[str, type] = {}


def _ensure_tables() -> None:
    if _EMITTERS:
        return
    from ..operators.arithmetic import (
        AbsValue, Adder, Constant, DividerFloor, DividerSigned,
        DividerUnsigned, MaxSigned, MinSigned, Multiplier, MultiplierFull,
        Negate, RemainderFloor, RemainderSigned, RemainderUnsigned,
        Subtractor)
    from ..operators.comparison import Comparator
    from ..operators.conversion import (Concat, SignExtend, Slice, Truncate,
                                        ZeroExtend)
    from ..operators.logic import (BitwiseAnd, BitwiseNot, BitwiseOr,
                                   BitwiseXor, ShiftLeft, ShiftRightArith,
                                   ShiftRightLogical)
    from ..operators.memory import Rom, Sram
    from ..operators.mux import Mux
    from ..operators.registers import Register

    _EMITTERS.update({
        Adder: _e_add, Subtractor: _e_sub, Multiplier: _e_mul,
        MultiplierFull: _e_mulfull,
        DividerSigned: _e_div, RemainderSigned: _e_div,
        DividerFloor: _e_div, RemainderFloor: _e_div,
        DividerUnsigned: _e_div, RemainderUnsigned: _e_div,
        Negate: _e_neg, AbsValue: _e_abs,
        MinSigned: _e_min, MaxSigned: _e_max,
        BitwiseAnd: _e_and, BitwiseOr: _e_or, BitwiseXor: _e_xor,
        BitwiseNot: _e_not,
        ShiftLeft: _e_shl, ShiftRightLogical: _e_lshr,
        ShiftRightArith: _e_ashr,
        Comparator: _e_cmp,
        ZeroExtend: _e_zext, SignExtend: _e_sext, Truncate: _e_trunc,
        Slice: _e_slice, Concat: _e_concat,
        Mux: _e_mux,
        Sram: _e_sram_read, Rom: _e_rom_read,
    })
    _T.update({
        "Register": Register, "Sram": Sram, "Rom": Rom,
        "Constant": Constant, "Mux": Mux, "Concat": Concat,
    })
    _T["unary"] = (Negate, AbsValue, BitwiseNot, ZeroExtend, SignExtend,
                   Truncate, Slice)  # type: ignore[assignment]


def _op_inputs(op, const_of) -> List[Signal]:
    """The input signals whose values the emitted code for *op* reads."""
    kind = type(op)
    if kind is _T["Mux"]:
        value = const_of(op.sel)
        if value is None:
            return [op.sel, *op.inputs]
        index = value if value < len(op.inputs) else 0
        return [op.inputs[index]]
    if kind is _T["Sram"] or kind is _T["Rom"]:
        return [op.addr]
    if kind is _T["Concat"]:
        return list(op.inputs)
    if kind in _T["unary"]:
        return [op.a]
    return [op.a, op.b]


def _op_output(op) -> Signal:
    kind = type(op)
    if kind is _T["Sram"] or kind is _T["Rom"]:
        return op.dout
    return op.y


# ----------------------------------------------------------------------
# Program construction
# ----------------------------------------------------------------------
class _Codegen:
    """Name registry for objects the generated module binds from ctx.

    Each registry records the *component name* that owns a bound object,
    so :func:`_bind_program` can bind the kernel to any elaboration of
    the same design, the one it was generated from included.
    """

    def __init__(self) -> None:
        self.mem_owners: List[str] = []
        self._mem_index: Dict[int, str] = {}
        self.comp_owners: List[str] = []
        self._comp_index: Dict[int, str] = {}
        self.helper_owners: List[str] = []

    def mem(self, image, owner: str) -> str:
        name = self._mem_index.get(id(image))
        if name is None:
            name = f"_m{len(self.mem_owners)}"
            self._mem_index[id(image)] = name
            self.mem_owners.append(owner)
        return name

    def comp(self, component) -> str:
        name = self._comp_index.get(id(component))
        if name is None:
            name = f"_c{len(self.comp_owners)}"
            self._comp_index[id(component)] = name
            self.comp_owners.append(component.name)
        return name

    def helper(self, owner: str) -> str:
        self.helper_owners.append(owner)
        return f"_f{len(self.helper_owners) - 1}"


class _StateIR:
    """Structured per-state facts, consumed by the trace fuser (only a
    fusing build records them).

    ``samples`` holds ``(reg_key, d_key, d_text, en_text, q_text,
    q_key)`` tuples — ``en_text`` is ``None`` for unconditional samples,
    ``d_key`` is ``None`` when the D input is a state constant.
    ``sram_writes`` holds ``(lines, mem_key, read_tokens)``;
    ``settle_ops`` holds ``(op_key, out_key, in_keys, lines)`` in
    topological order, where ``in_keys`` mixes signal keys with
    memory-image pseudo-keys.  Expression texts are single tokens
    (a local name or a literal), which the fuser relies on when it
    reorders commits.
    """

    __slots__ = ("name", "dynamic", "env_tokens", "samples", "sram_writes",
                 "settle_ops")

    def __init__(self, name: str) -> None:
        self.name = name
        self.dynamic = False
        self.env_tokens: tuple = ()
        self.samples: List[tuple] = []
        self.sram_writes: List[tuple] = []
        self.settle_ops: List[tuple] = []


class CompiledProgram:
    """Everything one compiled elaboration needs at run time."""

    def __init__(self) -> None:
        self.runner: Callable = None  # type: ignore[assignment]
        self.controller = None
        self.domain: Optional[ClockDomain] = None
        self.names: List[str] = []
        self.sid: Dict[str, int] = {}
        self.n_states = 0
        self.control_names: Dict[int, str] = {}  # id(signal) -> output name
        self.eval_static: List[int] = []
        self.edge_static: List[int] = []
        self.comb_components: List[object] = []
        self.images: List[object] = []
        self.component_ids: set = set()
        self.instrumentation = Instrumentation()
        self.state_active_ops: List[frozenset] = []
        self.source = ""
        self.empty_stop: frozenset = frozenset()
        self._stop_cache: Dict[int, Optional[frozenset]] = {}
        self._vectors: Dict[str, Dict[str, int]] = {}
        #: the kernel kind it was generated as: ``compiled`` (the generic
        #: per-state program) or a trace-fusing kind
        self.kind = "compiled"
        #: trace-fusion summary (trace-fusing kinds only)
        self.fusion: Optional[dict] = None

    def stop_states(self, signal: Signal) -> Optional[frozenset]:
        """States in which *signal* is high, or None if not a Moore line."""
        cached = self._stop_cache.get(id(signal))
        if cached is not None or id(signal) in self._stop_cache:
            return cached
        name = self.control_names.get(id(signal))
        if name is None:
            self._stop_cache[id(signal)] = None
            return None
        stop = frozenset(
            index for index, state in enumerate(self.names)
            if self._vectors[state][name]
        )
        self._stop_cache[id(signal)] = stop
        return stop


def _is_controller(component) -> bool:
    """Duck-typed FsmController check (sim must not import translate)."""
    return (isinstance(component, Sequential)
            and hasattr(component, "behavior")
            and hasattr(component, "status_signals")
            and hasattr(component, "output_signals")
            and hasattr(component, "state"))


class _DesignFacts:
    """The cheap live-object walk shared by fresh builds and cache loads."""

    __slots__ = ("components", "comb_components", "component_ids",
                 "controller", "domain", "behavior", "names", "sid",
                 "vectors", "control_signals", "registers", "srams", "roms",
                 "comb_ops", "tracked", "local")


def _analyze_design(sim: Simulator) -> _DesignFacts:
    _ensure_tables()
    facts = _DesignFacts()
    facts.components = components = list(sim._components.values())
    facts.comb_components = [c for c in components if hasattr(c, "evaluate")]
    facts.component_ids = {id(c) for c in components}
    controllers = [c for c in components if _is_controller(c)]
    if len(controllers) != 1:
        raise _Unsupported(f"{len(controllers)} FSM controllers (need 1)")
    facts.controller = controller = controllers[0]
    if controller.start_signal is not None:
        raise _Unsupported("start/done handshake in use")
    if len(sim._domains) > 1:
        raise _Unsupported("multiple clock domains")
    facts.domain = domain = sim._default_domain or sim.default_domain

    facts.behavior = behavior = controller.behavior
    facts.names = names = list(behavior.output_vectors)
    facts.sid = {name: index for index, name in enumerate(names)}
    if behavior.reset_state not in facts.sid:
        raise _Unsupported("reset state missing from output vectors")
    facts.vectors = {name: dict(behavior.output_vectors[name])
                     for name in names}

    # classify components ------------------------------------------------
    control_signals: Dict[int, str] = {}
    for output, signal in controller.output_signals.items():
        if signal.driver is not None:
            raise _Unsupported(f"control line {output!r} has a driver")
        control_signals[id(signal)] = output
    facts.control_signals = control_signals

    facts.registers = registers = []
    facts.srams = srams = []
    facts.roms = roms = []
    facts.comb_ops = comb_ops = []
    for component in components:
        if component is controller:
            continue
        kind = type(component)
        if kind is _T["Register"]:
            registers.append(component)
        elif kind is _T["Sram"]:
            srams.append(component)
            comb_ops.append(component)  # combinational read path
        elif kind is _T["Rom"]:
            roms.append(component)
            comb_ops.append(component)
        elif kind is _T["Constant"]:
            continue  # outputs never change after elaboration
        elif kind in _EMITTERS:
            comb_ops.append(component)
        else:
            raise _Unsupported(f"no emitter for {kind.__name__} "
                               f"({component.name!r})")
        if isinstance(component, Sequential) \
                and component not in domain.members:
            raise _Unsupported(
                f"{component.name!r} outside the default clock domain")

    # signal locals ------------------------------------------------------
    facts.tracked = tracked = [sig for sig in sim._signals.values()
                               if id(sig) not in control_signals]
    facts.local = {id(sig): f"v{index}"
                   for index, sig in enumerate(tracked)}
    return facts


class Instrumentation(NamedTuple):
    """What a generated kernel observes besides the design: ``tallies``
    (per-transition counters, for coverage), ``timers`` (a wall clock
    per FSM state and per fused trace, for the hot-spot profiler) and
    at most one ``fault`` spec (see :mod:`repro.inject.hooks`).

    Codegen specializes on the fault's kind alone; its target, state,
    masks, window and latch are bound at load time
    (:func:`_fault_runtime`), so one cached kernel serves every fault of
    one kind on a design.
    """

    tallies: bool = False
    timers: bool = False
    fault: Optional[object] = None

    @property
    def token(self) -> str:
        """The kernel variant: the cache key's and the binder's part."""
        parts = [name for name in ("tallies", "timers")
                 if getattr(self, name)]
        if self.fault is not None:
            parts.append(self.fault.kind)
        return "+".join(parts) or "plain"


class KernelTally:
    """What one simulator's instrumented kernel calls added up, read by
    coverage and the hot-spot profiler: ``cycles`` (state -> cycles,
    fused ones included), ``transitions`` (``(state, next)`` -> times
    taken; ``tallies``), ``wall_ns`` (state -> generic-path wall time)
    and ``traces`` (fused trace label -> ``cycles``, ``wall_ns``,
    ``states``, ``kind``, ``cycles_per_iteration``; both ``timers``).
    """

    __slots__ = ("cycles", "transitions", "wall_ns", "traces")

    def __init__(self) -> None:
        self.cycles: Dict[str, int] = {}
        self.transitions: Dict[Tuple[str, str], int] = {}
        self.wall_ns: Dict[str, int] = {}
        self.traces: Dict[str, Dict[str, object]] = {}


def _fault_runtime(spec, sim: Simulator,
                   facts: _DesignFacts) -> Optional[dict]:
    """Bind *spec* to one elaboration: the kernel's ``ctx["fault"]``.

    Runs on every build and every cache load.  A target outside
    ``facts.tracked`` (e.g. a Moore control line) or a pinned state
    that is not an FSM state raises :class:`_Unsupported`, so no kernel
    is ever armed for a fault it cannot reach.
    """
    if spec is None:
        return None
    signal = sim._signals.get(spec.signal)
    if signal is None or id(signal) not in facts.local:
        raise _Unsupported(
            f"fault target {spec.signal!r} is not a tracked signal")
    target = facts.tracked.index(signal)
    if spec.kind == "stuck":
        return {"target": target, "and_mask": spec.and_mask,
                "or_mask": spec.or_mask}
    if spec.kind == "flip":
        state = getattr(spec, "state", None)
        if state not in facts.sid:
            raise _Unsupported(f"fault state {state!r} not an FSM state")
        return {"target": target, "state": facts.sid[state],
                "xor_mask": spec.xor_mask, "mask": signal.mask,
                "lo": spec.lo, "hi": spec.hi, "latch": spec.latch}
    raise _Unsupported(f"unknown fault kind {spec.kind!r}")


def _stuck_force(name: str) -> str:
    """Re-force local *name* if it is the stuck-at target (locals are
    named ``v<index into facts.tracked>``, the index ``_ft`` holds)."""
    return f"if _ft == {name[1:]}: {name} = ({name} & _fa) | _fo"


def _transition_fns(behavior) -> Callable:
    """Per-state transition-callable factory for *behavior*."""
    dispatch = getattr(behavior, "transitions", None)

    def transition_fn(state: str) -> Callable:
        if dispatch is not None:
            return dispatch[state]
        return lambda env, _s=state: behavior.next_state(_s, env)

    return transition_fn


def _build_program(sim: "CompiledSimulator", *,
                   fuse: bool = False) -> Tuple[dict, CodeType]:
    """Generate the kernel for *sim*'s elaboration and return the
    artifact ``(payload, code)`` that the kernel cache stores and
    :func:`_bind_program` binds; the payload carries the source.  With
    *fuse*, hot FSM traces are fused into the dispatch loop
    (:mod:`repro.sim.trace`)."""
    facts = sim._design_facts()
    instrumentation = sim.instrumentation
    tallies, timers, fault = instrumentation
    controller = facts.controller
    behavior = facts.behavior
    names = facts.names
    sid = facts.sid
    vectors = facts.vectors
    control_signals = facts.control_signals
    registers = facts.registers
    srams = facts.srams
    roms = facts.roms
    tracked = facts.tracked
    local = facts.local

    # --- fault instrumentation (see repro.inject) -----------------------
    # ``_ft`` indexes ``tracked``.  A stuck-at forces _S[_ft] before the
    # locals load, then every register commit and settle op re-forces
    # the local it wrote when that local is the target.  A transient
    # flip tests the pre-edge state, window and latch once per cycle,
    # after the edge tree (so a flipped register output survives the
    # edge); when it fires it spills the locals to _S, XORs _S[_ft] and
    # reloads them.
    _fault_runtime(fault, sim, facts)  # refuse an unreachable target now
    stuck = fault is not None and fault.kind == "stuck"
    flip = fault is not None and fault.kind == "flip"

    try:
        topo = levelize(facts.comb_ops)
    except CombinationalLoopError as exc:
        raise _Unsupported(f"not levelizable: {exc}") from exc

    # transitions --------------------------------------------------------
    transition_fn = _transition_fns(behavior)
    static_target: Dict[str, Optional[str]] = {}
    dynamic_fns: Dict[int, Callable] = {}
    for name in names:
        fn = transition_fn(name)
        target = _classify_transition(fn)
        if target is not None and target not in sid:
            target = None
        static_target[name] = target
        if target is None:
            dynamic_fns[sid[name]] = fn

    gen = _Codegen()
    status_items = list(controller.status_signals.items())

    def make_val(vector: Dict[str, int]):
        def val(sig: Signal) -> str:
            name = control_signals.get(id(sig))
            if name is not None:
                return str(vector[name])
            return local[id(sig)]
        return val

    def make_const_of(vector: Dict[str, int]):
        def const_of(sig: Signal) -> Optional[int]:
            name = control_signals.get(id(sig))
            return None if name is None else vector[name]
        return const_of

    # per-state analysis -------------------------------------------------
    n_states = len(names)
    eval_static = [0] * n_states
    edge_static = [0] * n_states
    settle_blocks: List[List[Tuple[int, str]]] = []
    edge_blocks: List[List[Tuple[int, str]]] = []
    state_active_ops: List[frozenset] = []
    # fused trace bodies are built from the structured _StateIR, which
    # cannot see raw injected fault lines — so a kernel with a fault
    # spec never fuses, and only a fusing build records the IR
    fusing = fuse and fault is None
    state_ir: List[_StateIR] = []
    always_armed = 1 + len(roms)  # controller + no-op ROM members
    # (op, id of its output) in reverse topological order, for the
    # per-state live-cone walks
    cone_order = [(op, id(_op_output(op))) for op in reversed(topo)]
    is_mem_read = (_T["Sram"], _T["Rom"])

    for index, state in enumerate(names):
        vector = vectors[state]
        val = make_val(vector)
        const_of = make_const_of(vector)
        dynamic = static_target[state] is None
        if fusing:
            ir = _StateIR(state)
            ir.dynamic = dynamic
            state_ir.append(ir)

        # --- edge phase (state's constants, pre-edge values) ----------
        lines: List[Tuple[int, str]] = []
        commits: List[Tuple[int, str]] = []
        roots: List[Signal] = []
        active_names: set = set()
        armed = always_armed
        temp = 0
        for register in registers:
            enable = register.en
            mode = None if enable is None else const_of(enable)
            if enable is not None and mode == 0:
                continue
            active_names.add(register.name)
            d, q = val(register.d), local[id(register.q)]
            roots.append(register.d)
            if enable is None or mode == 1:
                armed += 1
                if d == q:
                    continue
                lines.append((0, f"_q{temp} = {d}"))
                en_text = None
            else:  # dynamic enable
                armed += 1  # estimate: counted as armed
                roots.append(enable)
                en_text = val(enable)
                lines.append((0, f"_q{temp} = {d} if {en_text} else {q}"))
            if fusing:
                d_key = (None if id(register.d) in control_signals
                         else id(register.d))
                ir.samples.append(
                    (id(register), d_key, d, en_text, q, id(register.q)))
            commits.append((0, f"{q} = _q{temp}"))
            if stuck:
                commits.append((0, _stuck_force(q)))
            temp += 1
        for sram in srams:
            mode = const_of(sram.we)
            if mode == 0:
                continue
            active_names.add(sram.name)
            roots.extend((sram.addr, sram.din))
            words = gen.mem(sram.image, sram.name)
            comp = gen.comp(sram)
            block = [
                (0, f"if {val(sram.addr)} < {sram.image.depth}:"),
                (1, f"{words}[{val(sram.addr)}] = {val(sram.din)}"),
                (1, f"{comp}.writes += 1"),
                (0, "else:"),
                (1, f"_wo({comp}, {val(sram.addr)})"),
            ]
            reads = (val(sram.addr), val(sram.din))
            if mode == 1:
                armed += 1
            else:  # dynamic write enable
                roots.append(sram.we)
                reads += (val(sram.we),)
                block = [(0, f"if {val(sram.we)}:"),
                         *((ind + 1, text) for ind, text in block)]
            lines.extend(block)
            if fusing:
                ir.sram_writes.append((tuple(block), words, reads))
        # controller transition (pre-edge statuses)
        if dynamic:
            roots.extend(sig for _, sig in status_items)
            env = "{" + ", ".join(f"{name!r}: {val(sig)}"
                                  for name, sig in status_items) + "}"
            if fusing:
                ir.env_tokens = tuple(val(sig) for _, sig in status_items)
            lines.append((0, f"_e = _t{index}({env})"))
            lines.append((0, f"if _e != {state!r}:"))
            lines.append((1, "_nt += 1"))
            lines.append((0, "s = _sid[_e]"))
            if tallies:
                lines.append((0, f"tc[{index * n_states} + s] += 1"))
        else:
            target = static_target[state]
            if target != state:
                lines.append((0, f"s = {sid[target]}"))
                lines.append((0, "_nt += 1"))
                if tallies:
                    lines.append(
                        (0, f"tc[{index * n_states + sid[target]}] += 1"))
            elif tallies:
                lines.append((0, f"tc[{index * n_states + index}] += 1"))
        lines.extend(commits)
        edge_blocks.append(lines)
        edge_static[index] = armed

        # --- settle phase: live cone under this state's constants -----
        live = {id(sig) for sig in roots}
        cone: List[tuple] = []
        for op, out_id in cone_order:
            if out_id in live:
                inputs = _op_inputs(op, const_of)
                cone.append((op, out_id, inputs))
                live.update(map(id, inputs))
        cone.reverse()  # back to topological order
        block = []
        for op, out_id, inputs in cone:
            op_lines = _EMITTERS[type(op)](op, val, gen)
            block.extend(op_lines)
            if stuck:
                block.append((0, _stuck_force(local[out_id])))
            active_names.add(op.name)
            if fusing:
                in_keys = [id(sig) for sig in inputs
                           if id(sig) not in control_signals]
                if type(op) in is_mem_read:
                    # reads also depend on the memory contents
                    in_keys.append(gen.mem(op.image, op.name))
                ir.settle_ops.append((id(op), out_id, tuple(in_keys),
                                      tuple(op_lines)))
        settle_blocks.append(block)
        state_active_ops.append(frozenset(active_names))
        eval_static[index] = len(cone)

    # --- trace fusion --------------------------------------------------
    fusion = None
    if fusing:
        from .trace import build_fusion  # sibling module imports us back

        fusion = build_fusion(
            state_ir=state_ir, names=names, sid=sid,
            static_target=static_target, dynamic_fns=dynamic_fns,
            statuses=[(name, signal.width)
                      for name, signal in status_items],
            settle_blocks=settle_blocks, n_states=n_states,
            instrumentation=instrumentation)

    # --- assemble the module -------------------------------------------
    out: List[str] = []

    def emit(indent: int, text: str) -> None:
        out.append("    " * indent + text)

    def emit_tree(indent: int, ids: List[int],
                  blocks: List[List[Tuple[int, str]]]) -> None:
        if len(ids) == 1:
            body = blocks[ids[0]]
            if not body:
                emit(indent, "pass")
            else:
                for rel, text in body:
                    emit(indent + rel, text)
            return
        mid = len(ids) // 2
        emit(indent, f"if s < {ids[mid]}:")
        emit_tree(indent + 1, ids[:mid], blocks)
        emit(indent, "else:")
        emit_tree(indent + 1, ids[mid:], blocks)

    emit(0, "def _make(ctx):")
    emit(1, '_sid = ctx["sid"]')
    emit(1, '_S = ctx["signals"]')
    emit(1, '_wo = ctx["write_oob"]')
    for position in range(len(gen.mem_owners)):
        emit(1, f'_m{position} = ctx["mems"][{position}]')
    for position in range(len(gen.comp_owners)):
        emit(1, f'_c{position} = ctx["comps"][{position}]')
    for position in range(len(gen.helper_owners)):
        emit(1, f'_f{position} = ctx["helpers"][{position}]')
    for state_id in sorted(dynamic_fns):
        emit(1, f'_t{state_id} = ctx["transitions"][{state_id}]')
    if fault is not None:
        emit(1, '_flt = ctx["fault"]')
        emit(1, '_ft = _flt["target"]')
        if stuck:
            emit(1, '_fa = _flt["and_mask"]')
            emit(1, '_fo = _flt["or_mask"]')
        else:
            emit(1, '_fs = _flt["state"]')
            emit(1, '_fx = _flt["xor_mask"]')
            emit(1, '_fm = _flt["mask"]')
            emit(1, '_fc0 = _flt["lo"]')
            emit(1, '_fc1 = _flt["hi"]')
            emit(1, '_fb = _flt["latch"]')
    if timers:
        # the hot-spot clock: one perf_counter_ns per plain-path cycle
        # (fused traces read it once per trace entry/exit instead)
        emit(1, '_pc = ctx["perf"]')
    if fusion is not None:
        for text in fusion.prelude:
            emit(1, text)
    # one statement loads every tracked local, one stores them all back
    targets = "".join(f"v{index}," for index in range(len(tracked)))
    load_locals = f"({targets}) = [_x.value for _x in _S]"
    store_locals = f"for _x, _v in zip(_S, ({targets})): _x.value = _v"
    emit(1, "def _run(s, max_cycles, stop, counts, tc, box%s):"
            % (", pw" if timers else ""))
    if stuck:
        emit(2, "_S[_ft].value = (_S[_ft].value & _fa) | _fo")
    emit(2, load_locals)
    emit(2, "n = 0")
    emit(2, "_nt = 0")
    if fusion is not None:
        for text in fusion.entry:
            emit(2, text)
    emit(2, "try:")
    emit(3, "while n < max_cycles:")
    emit(4, "if s in stop:")
    emit(5, "break")
    if fusion is not None:
        for rel, text in fusion.dispatch:
            emit(4 + rel, text)
    emit(4, "counts[s] += 1")
    emit(4, "n += 1")
    if timers or flip:
        # the edge tree rewrites ``s``; remember whose cycle this was
        emit(4, "_ps = s")
    if timers:
        emit(4, "_pt = _pc()")
    state_ids = list(range(n_states))
    emit_tree(4, state_ids, edge_blocks)
    if flip:
        emit(4, "if _ps == _fs and _fb[0] == 0 and _fc0 <= n <= _fc1:")
        emit(5, "_fb[0] = 1")
        emit(5, store_locals)
        emit(5, "_S[_ft].value = (_S[_ft].value ^ _fx) & _fm")
        emit(5, load_locals)
    emit_tree(4, state_ids, settle_blocks)
    if timers:
        emit(4, "pw[_ps] += _pc() - _pt")
    emit(2, "finally:")
    emit(3, "box[0] = s")
    emit(3, "box[1] = n")
    emit(3, "box[2] = _nt")
    emit(3, store_locals)
    emit(1, "return _run")
    source = "\n".join(out) + "\n"

    code = compile(source, f"<compiled-sim:{sim.name}>", "exec")
    payload = {
        "kind": "kernel",
        "names": names,
        "n_tracked": len(tracked),
        "mems": gen.mem_owners,
        "comps": gen.comp_owners,
        "helpers": gen.helper_owners,
        "images": list({id(m.image): m.name
                        for m in (*srams, *roms)}.values()),
        "dynamic": sorted(dynamic_fns),
        "eval_static": eval_static,
        "edge_static": edge_static,
        "active_ops": [sorted(active) for active in state_active_ops],
        "instrumentation": instrumentation.token,
        "fusion": fusion.summary if fusion is not None else None,
        "source": source,
    }
    return payload, code


def _write_oob(comp, address):
    raise SimulationError(
        f"{comp.name!r}: write address {address} exceeds depth "
        f"{comp.image.depth}"
    )


def _bind_program(sim: "CompiledSimulator", payload: dict,
                  code) -> CompiledProgram:
    """Bind a kernel artifact — the payload and code object a build
    returns or the kernel cache holds — to *sim*'s elaboration.

    Every program, fresh or cached, is bound here.  An artifact built
    for another structure or another kernel variant (see
    :attr:`Instrumentation.token`) raises.
    """
    facts = sim._design_facts()
    instrumentation = sim.instrumentation
    if (facts.names != payload["names"]
            or len(facts.tracked) != payload["n_tracked"]
            or payload["instrumentation"] != instrumentation.token):
        raise ValueError("kernel artifact does not fit this elaboration")
    by_name = sim._components
    transition_fn = _transition_fns(facts.behavior)
    namespace: Dict[str, object] = {}
    exec(code, namespace)
    ctx = {
        "sid": facts.sid,
        "signals": facts.tracked,
        "mems": [by_name[owner].image._words for owner in payload["mems"]],
        "comps": [by_name[owner] for owner in payload["comps"]],
        "helpers": [_make_div_helper(by_name[owner])
                    for owner in payload["helpers"]],
        "transitions": {int(index): transition_fn(facts.names[int(index)])
                        for index in payload["dynamic"]},
        "write_oob": _write_oob,
        "fault": _fault_runtime(instrumentation.fault, sim, facts),
        "perf": time.perf_counter_ns,
    }
    program = CompiledProgram()
    program.runner = namespace["_make"](ctx)
    program.controller = facts.controller
    program.domain = facts.domain
    program.names = facts.names
    program.sid = facts.sid
    program.n_states = len(facts.names)
    program.control_names = facts.control_signals
    program.eval_static = list(payload["eval_static"])
    program.edge_static = list(payload["edge_static"])
    program.comb_components = facts.comb_components
    program.images = [by_name[owner].image for owner in payload["images"]]
    program.component_ids = facts.component_ids
    program.instrumentation = instrumentation
    program.state_active_ops = [frozenset(active)
                                for active in payload["active_ops"]]
    program.source = payload["source"]
    program._vectors = facts.vectors
    program.fusion = payload["fusion"]
    return program


# ----------------------------------------------------------------------
# The simulator
# ----------------------------------------------------------------------
class CompiledSimulator(Simulator):
    """Drop-in :class:`Simulator` with a compiled specialized fast path.

    ``run_until_high`` (when the target is a Moore control line, e.g. a
    design's ``done``) and ``run_cycles`` execute through the generated
    per-design function; everything else — and any unsupported design —
    uses the inherited event-driven kernel.  ``fallback_reason`` records
    why compilation was declined, if it was.
    """

    #: distinguishes kernel flavours in codegen and the kernel cache
    _kernel_kind = "compiled"

    def __init__(self, name: str = "compiled-sim", **kwargs) -> None:
        super().__init__(name, **kwargs)
        self._program: Optional[CompiledProgram] = None
        self.fallback_reason: Optional[str] = None
        #: what the generated kernel observes (see :meth:`instrument`)
        self.instrumentation = Instrumentation()
        #: what instrumented kernel calls added up (see :class:`KernelTally`)
        self.tally = KernelTally()
        #: structural hash set by build_simulation; keys the kernel cache
        self.design_digest: Optional[str] = None
        #: memoized design walk (see :meth:`_design_facts`)
        self._facts: Optional[_DesignFacts] = None
        #: ``Signal.watch_epoch`` when every signal watcher was last
        #: found to be arming bookkeeping (see :meth:`_fastpath_blocked`)
        self._watchers_clean_at: Optional[int] = None

    # -- instrumentation ------------------------------------------------
    def instrument(self, **fields) -> None:
        """Set fields of :attr:`instrumentation` (``tallies``, ``timers``,
        ``fault``); the others keep their value.

        Watchers would block the fast path (:meth:`_fastpath_blocked`),
        so observers are compiled into the kernel instead: a changed
        value drops the program, and the next run binds the variant it
        names.  A fault outside the compiled subset (e.g. on a Moore
        control line) makes compilation fall back to the event kernel;
        :func:`repro.inject.hooks.attach_fault` then clears it.
        """
        value = self.instrumentation._replace(**fields)
        if value != self.instrumentation:
            self.instrumentation = value
            self._invalidate_program()

    def coverage_active_ops(self) -> Dict[str, int]:
        """Operator activation weights: live-cone membership × visits.

        An operator counts as active in a state when the state's
        specialized code evaluates it (its live cone) or samples/writes
        it (armed register, enabled SRAM port).
        """
        out: Dict[str, int] = {}
        program = self._program
        if program is None or not program.state_active_ops:
            return out
        for state, visits in self.tally.cycles.items():
            index = program.sid.get(state)
            if index is None:
                continue
            for name in program.state_active_ops[index]:
                out[name] = out.get(name, 0) + visits
        return out

    # -- program lifecycle ---------------------------------------------
    def signal(self, name: str, width: int, init: int = 0) -> Signal:
        self._invalidate_program()
        self.design_digest = None  # structure changed after elaboration
        self._facts = None
        return super().signal(name, width, init)

    def _register(self, component):
        self._invalidate_program()
        self.design_digest = None
        self._facts = None
        return super()._register(component)

    def clock_domain(self, name: str = "clk", period: int = 10) -> ClockDomain:
        if name not in self._domains:
            self._invalidate_program()
            self.design_digest = None
            self._facts = None
        return super().clock_domain(name, period)

    def _design_facts(self) -> _DesignFacts:
        """The live-object walk every build and cache load binds to.

        Kept until the design is mutated (a new signal, component or
        clock domain), so re-binding a kernel to the same elaboration —
        a fault campaign swaps one fault's parameters for the next's —
        does not walk the design again.  An unsupported design raises
        :class:`_Unsupported` and is not memoized.
        """
        if self._facts is None:
            self._facts = _analyze_design(self)
        return self._facts

    def _invalidate_program(self) -> None:
        self._program = None
        self.fallback_reason = None

    def _ensure_program(self) -> Optional[CompiledProgram]:
        if self._program is None and self.fallback_reason is None:
            try:
                self._program = self._load_or_build_program()
            except _Unsupported as exc:
                self.fallback_reason = str(exc)
        return self._program

    def _cache_key(self, kind: Optional[str] = None) -> Optional[str]:
        """The kernel-cache key of this simulator's *kind* program
        (default: its own kernel kind).

        It covers everything codegen depends on: the structural design
        digest, the kernel kind, the instrumentation token (see
        :attr:`Instrumentation.token`) and the generators' own source
        (:func:`~repro.core.kernelcache.kernel_fingerprint`);
        the cache layer adds the interpreter's bytecode magic.  None
        for designs without a digest (hand-built sims,
        post-elaboration mutations), which always build fresh.
        """
        from ..core.kernelcache import digest_parts, kernel_fingerprint

        if not self.design_digest:
            return None
        return digest_parts("kernel", kernel_fingerprint(),
                            self.design_digest, kind or self._kernel_kind,
                            self.instrumentation.token)

    def _load_or_build_program(self) -> CompiledProgram:
        """Check the persistent kernel cache (see :meth:`_cache_key`)
        before generating code."""
        program = self._cached_program(self._kernel_kind)
        if program is None:
            program = self._file_program(self._kernel_kind,
                                         *_build_program(self))
        return program

    def _cached_program(self, kind: str) -> Optional[CompiledProgram]:
        """The *kind* program the kernel cache holds for this
        elaboration, bound to it; ``None`` on a miss (a cached kernel
        that does not bind is a miss)."""
        from ..core.kernelcache import default_cache

        key = self._cache_key(kind)
        if key is None:
            return None
        payload, code = default_cache().get("kernel", key)
        if payload is None or code is None:
            return None
        try:
            program = _bind_program(self, payload, code)
        except Exception:  # noqa: BLE001 - any mismatch: build
            return None
        program.kind = kind
        return program

    def _file_program(self, kind: str, payload: dict,
                      code: CodeType) -> CompiledProgram:
        """Bind a fresh *kind* build and file it in the kernel cache."""
        from ..core.kernelcache import default_cache

        program = _bind_program(self, payload, code)
        program.kind = kind
        key = self._cache_key(kind)
        if key is not None:
            default_cache().put("kernel", key, payload, code)
        return program

    # -- per-call safety checks ----------------------------------------
    def _fastpath_blocked(self, program: CompiledProgram) -> Optional[str]:
        if len(self._domains) > 1 or self._default_domain is not program.domain:
            return "clock domain changed"
        if self._cycle_hooks:
            return "cycle hooks installed"
        if self._watchers_clean_at != Signal.watch_epoch:
            for sig in self._signals.values():
                for watcher in sig.watchers:
                    if not getattr(watcher, "_arming", False):
                        return f"foreign watcher on signal {sig.name!r}"
            # only a clean walk is remembered: it holds until a watch
            self._watchers_clean_at = Signal.watch_epoch
        for image in program.images:
            for watcher in image._watchers:
                owner = getattr(watcher, "__self__", None)
                if id(owner) not in program.component_ids:
                    return f"foreign watcher on memory {image.name!r}"
        return None

    # -- fast-path entry points ----------------------------------------
    def run_until_high(self, signal: Signal, *,
                       max_cycles: int = 1_000_000,
                       domain: Optional[ClockDomain] = None) -> int:
        program = self._ensure_program()
        if program is None or \
                (domain is not None and domain is not program.domain) or \
                self._fastpath_blocked(program) is not None:
            return super().run_until_high(signal, max_cycles=max_cycles,
                                          domain=domain)
        stop = program.stop_states(signal)
        start = program.sid.get(program.controller.state)
        if stop is None or start is None:
            return super().run_until_high(signal, max_cycles=max_cycles,
                                          domain=domain)
        self.settle()
        cycles, final = self._run(program, start, stop, max_cycles)
        if final not in stop:
            raise SimulationTimeout(
                f"condition not met within {max_cycles} cycles", max_cycles
            )
        return cycles

    def run_cycles(self, cycles: int,
                   domain: Optional[ClockDomain] = None) -> None:
        program = self._ensure_program()
        if program is None or cycles <= 0 or \
                (domain is not None and domain is not program.domain) or \
                self._fastpath_blocked(program) is not None:
            return super().run_cycles(cycles, domain)
        start = program.sid.get(program.controller.state)
        if start is None:
            return super().run_cycles(cycles, domain)
        self.settle()
        self._run(program, start, program.empty_stop, cycles)

    # -- execution ------------------------------------------------------
    def _run(self, program: CompiledProgram, start: int, stop: frozenset,
             max_cycles: int) -> Tuple[int, int]:
        """Run the fast path from *start* until a *stop* state or
        *max_cycles*; returns ``(cycles, final state id)``."""
        return self._execute(program, start, stop, max_cycles)

    def _execute(self, program: CompiledProgram, start: int,
                 stop: frozenset, max_cycles: int, *,
                 resync: bool = True) -> Tuple[int, int]:
        """One call of *program*'s runner.  The controller, statistics
        and locals are written back either way; without *resync* the
        event-kernel invariants are left for the caller to restore
        (:meth:`_resync`), so a second runner can take over as if the
        first had kept going."""
        counts = [0] * program.n_states
        tcounts = ([0] * (program.n_states * program.n_states)
                   if program.instrumentation.tallies else None)
        box = [start, 0, 0]
        pw = None
        if program.instrumentation.timers:
            # layout: [0..n_states) per-state wall ns, then two slots
            # per fused trace: [n_states + 2j] wall ns,
            # [n_states + 2j + 1] cycles
            n_traces = len((program.fusion or {}).get("traces", ()))
            pw = [0] * (program.n_states + 2 * n_traces)
        try:
            if pw is not None:
                program.runner(start, max_cycles, stop, counts, tcounts,
                               box, pw)
            else:
                program.runner(start, max_cycles, stop, counts, tcounts,
                               box)
        except BaseException:
            self._post_run(program, box, counts, tcounts, pw)
            self._resync(program, best_effort=True)
            raise
        self._post_run(program, box, counts, tcounts, pw)
        if resync:
            self._resync(program)
        return box[1], box[0]

    def _post_run(self, program: CompiledProgram, box: List[int],
                  counts: List[int], tcounts: Optional[List[int]],
                  pw: Optional[List[int]] = None) -> None:
        final, cycles, transitions = box
        controller = program.controller
        controller.state = program.names[final]
        controller.transitions += transitions
        vector = program._vectors[controller.state]
        for output, signal in controller.output_signals.items():
            signal.value = vector[output] & signal.mask
        evaluations = 0
        dispatches = 0
        for index, visits in enumerate(counts):
            if visits:
                evaluations += visits * program.eval_static[index]
                dispatches += visits * program.edge_static[index]
        if tcounts is not None or pw is not None:
            self._fold_tally(program, counts, tcounts, pw)
        stats = self.stats
        stats.cycles += cycles
        stats.evaluations += evaluations
        stats.edge_dispatches += dispatches
        stats.signal_updates += evaluations
        domain = program.domain
        domain.cycles += cycles
        self.now += domain.period * cycles

    def _fold_tally(self, program: CompiledProgram, counts: List[int],
                    tcounts: Optional[List[int]],
                    pw: Optional[List[int]]) -> None:
        """Add one instrumented call's counters to :attr:`tally`."""
        tally = self.tally
        names = program.names
        for index, visits in enumerate(counts):
            if visits:
                name = names[index]
                tally.cycles[name] = tally.cycles.get(name, 0) + visits
        if tcounts is not None:
            n = program.n_states
            for flat, taken in enumerate(tcounts):
                if taken:
                    edge = (names[flat // n], names[flat % n])
                    tally.transitions[edge] = \
                        tally.transitions.get(edge, 0) + taken
        if pw is None:
            return
        for index, name in enumerate(names):
            if pw[index]:
                tally.wall_ns[name] = tally.wall_ns.get(name, 0) + pw[index]
        traces = (program.fusion or {}).get("traces", ())
        for j, trace in enumerate(traces):
            t_wall = pw[program.n_states + 2 * j]
            t_cycles = pw[program.n_states + 2 * j + 1]
            if not (t_wall or t_cycles):
                continue
            states = list(trace["states"])
            label = trace["kind"] + ":" + (
                states[0] if len(states) < 2
                else f"{states[0]}->{states[-1]}")
            entry = tally.traces.setdefault(label, {
                "cycles": 0, "wall_ns": 0, "states": states,
                "kind": trace["kind"],
                "cycles_per_iteration": trace.get("cycles_per_iteration",
                                                  trace.get("cycles")),
            })
            entry["cycles"] += t_cycles
            entry["wall_ns"] += t_wall

    def _resync(self, program: CompiledProgram, *,
                best_effort: bool = False) -> None:
        """Restore the event-kernel invariants after a fast-path run:
        arming reflects enables, and one full settle leaves every signal
        exactly as the event kernel would (also firing any lagging
        watchers).

        The settle recomputes a stuck-at target from its driver, without
        the forcing the kernel applied.  So after a run that did not
        raise, the target is forced again and its fanout settled, as
        the event kernel's watcher forces it during its own settle."""
        for each in self._domains.values():
            each.rearm()
        self._worklist.clear()
        self._worklist.extend(program.comb_components)
        if best_effort:
            try:
                self.settle()
            except Exception:  # noqa: BLE001 - already propagating an error
                pass
            return
        self.settle()
        if program.instrumentation.fault is not None:
            fault = program.instrumentation.fault
            if fault.kind == "stuck":
                signal = self._signals[fault.signal]
                forced = (signal.value & fault.and_mask) | fault.or_mask
                if forced != signal.value:
                    signal.value = forced
                    self._worklist.extend(signal.sinks)
                    self.settle()
