"""Divergence triage: explain *where* and *why* a failing run diverged.

The infrastructure's verdicts — fuzz ``mismatch``, inject ``sdc``,
differential backend disagreement — say only that two executions ended
differently.  This module turns a verdict into an explanation:

1. **Lockstep replay.**  The failing pair (fault-vs-fault-free,
   backend-vs-backend, or failing-backend-vs-golden) is re-elaborated
   as two independent simulations of the same configuration and driven
   forward together.
2. **First-divergence bisection.**  A coarse checkpoint pass advances
   both sides in ``stride``-cycle chunks on the fast kernel path and
   compares cheap state snapshots (FSM state, every signal value, the
   output memories) at each boundary.  On the first differing
   checkpoint, both sides are re-elaborated, fast-forwarded to the last
   agreeing checkpoint, and replayed cycle-by-cycle under a bounded
   :class:`~repro.sim.wavecapture.WaveCapture` ring until the **first
   divergent cycle and nets** are pinned — no full trace is ever
   stored, so the cost is O(signals × window), not O(signals × cycles).
3. **Cone-of-influence ranking.**  From the first divergent nets the
   datapath graph is walked backwards (net → source component → its
   input nets) to rank suspect operators, registers and FSM states:
   divergence *origins* (divergent nets none of whose fan-in is
   divergent, or register outputs that newly diverged across an edge)
   score highest, then other divergent nets, then upstream cone members
   decaying with distance.
4. **Reports.**  A machine-readable JSON triage record (attached to the
   run ledger as a ``triage`` row) and a self-contained offline HTML
   report: waveform window around the divergence with divergent cells
   highlighted, the suspect cone, and the FSM state timeline of both
   sides.

Works identically on the event, compiled and traced kernels: capture
never installs watchers, and the fast kernels' post-run resync forces
a stuck-at target again after its settle
(``CompiledSimulator._resync``), so the boundary view shows the fault
as the event kernel's watcher does.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from ..sim.wavecapture import DEFAULT_WINDOW, WaveCapture
from .trace import span

__all__ = [
    "TRIAGE_SCHEMA", "TriageError", "Suspect", "TriageRecord",
    "TriageResult", "Divergence", "locate_divergence", "triage_fault",
    "triage_backends", "triage_fuzz_entry", "render_triage_html",
]

TRIAGE_SCHEMA = 1
DEFAULT_MAX_CYCLES = 1_000_000
#: suspect-list length cap in records and reports
SUSPECT_LIMIT = 24
#: waveform rows shown in the HTML report
REPORT_SIGNAL_LIMIT = 14


class TriageError(RuntimeError):
    """Triage could not run on this target (unsupported shape)."""


# ----------------------------------------------------------------------
# Records
# ----------------------------------------------------------------------
@dataclass
class Suspect:
    """One ranked member of the cone of influence."""

    name: str
    #: "net" | "register" | "control" | "state" | "memory"
    kind: str
    #: source component of the net ("" for states/controls)
    component: str = ""
    #: component type — the operator ("reg", "add", "mux", "sram", ...)
    operator: str = ""
    #: BFS distance upstream from the first divergent nets
    distance: int = 0
    #: whether this signal actually differed at the divergence cycle
    divergent: bool = False
    #: whether this is a divergence *origin* (no divergent fan-in)
    origin: bool = False
    score: float = 0.0

    def to_dict(self) -> Dict[str, Any]:
        return {"name": self.name, "kind": self.kind,
                "component": self.component, "operator": self.operator,
                "distance": self.distance, "divergent": self.divergent,
                "origin": self.origin, "score": round(self.score, 4)}


@dataclass
class TriageRecord:
    """The machine-readable triage verdict (ledger ``extra`` payload)."""

    kind: str            # fault | backend | fuzz-mismatch | campaign-sdc
    app: str
    backend_ref: str
    backend_sub: str
    #: "cycle" (net-level first divergence), "memory" (memories differ
    #: with no observed net divergence), "none" (no divergence found)
    mode: str
    cycle: Optional[int] = None
    net: Optional[str] = None
    nets: List[str] = field(default_factory=list)
    suspects: List[Suspect] = field(default_factory=list)
    state_ref: Optional[str] = None
    state_sub: Optional[str] = None
    window: Dict[str, Any] = field(default_factory=dict)
    checkpoints: int = 0
    stride: int = 0
    compared_cycles: int = 0
    fault: Optional[Dict[str, Any]] = None
    memory: Optional[Dict[str, Any]] = None
    detail: str = ""

    @property
    def top_suspect(self) -> Optional[str]:
        return self.suspects[0].name if self.suspects else None

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema": TRIAGE_SCHEMA, "kind": self.kind, "app": self.app,
            "backend_ref": self.backend_ref, "backend_sub": self.backend_sub,
            "mode": self.mode, "cycle": self.cycle, "net": self.net,
            "nets": list(self.nets),
            "suspects": [s.to_dict() for s in self.suspects],
            "top_suspect": self.top_suspect,
            "state_ref": self.state_ref, "state_sub": self.state_sub,
            "window": dict(self.window), "checkpoints": self.checkpoints,
            "stride": self.stride, "compared_cycles": self.compared_cycles,
            "fault": self.fault, "memory": self.memory,
            "detail": self.detail,
        }

    def describe(self) -> str:
        if self.mode == "cycle":
            head = (f"first divergence at cycle {self.cycle} on "
                    f"{self.net or '<fsm state>'}")
        elif self.mode == "memory":
            where = self.memory or {}
            head = (f"memory divergence in {where.get('name')!r} "
                    f"word {where.get('word')}")
        else:
            head = "no divergence located"
        top = f"; top suspect {self.top_suspect}" if self.suspects else ""
        return (f"[{self.kind}] {self.app} "
                f"{self.backend_ref} vs {self.backend_sub}: {head}{top}")


@dataclass
class TriageResult:
    """Record plus the captured waveform windows backing the report."""

    record: TriageRecord
    capture_ref: Optional[WaveCapture] = None
    capture_sub: Optional[WaveCapture] = None

    def write(self, out_dir: Union[str, Path], basename: str, *,
              html: bool = True) -> Dict[str, Path]:
        """Write ``<basename>.json`` (+ ``.html``) under *out_dir*."""
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        paths: Dict[str, Path] = {}
        json_path = out_dir / f"{basename}.json"
        json_path.write_text(
            json.dumps(self.record.to_dict(), indent=2) + "\n",
            encoding="utf-8")
        paths["json"] = json_path
        if html:
            html_path = out_dir / f"{basename}.html"
            html_path.write_text(render_triage_html(self), encoding="utf-8")
            paths["html"] = html_path
        return paths


# ----------------------------------------------------------------------
# Lockstep sides
# ----------------------------------------------------------------------
class _Side:
    """One side of a lockstep pair: a fresh single-config elaboration."""

    def __init__(self, datapath, fsm, rtg, images, *, backend: str,
                 fault=None, fsm_mode: str = "generated",
                 compare_memories: Sequence[str] = ()) -> None:
        from ..inject.faultload import FAULT_KINDS
        from ..rtg.context import ReconfigurationContext
        from ..translate.to_sim import build_simulation
        if fault is not None and fault.kind not in FAULT_KINDS:
            raise TriageError(f"cannot arm a {fault.kind!r} fault: triage "
                              f"arms the kinds {list(FAULT_KINDS)}")
        if fault is not None and fault.kind == "mem_flip":
            from ..inject.campaign import apply_mem_flip
            apply_mem_flip(images, fault)
        self.context = ReconfigurationContext.from_rtg(rtg, initial=images)
        self.design = build_simulation(
            datapath, fsm, memories=self.context.memories,
            fsm_mode=fsm_mode, backend=backend)
        self.handle = None
        if fault is not None and fault.kind != "mem_flip":
            from ..inject.hooks import attach_fault
            self.handle = attach_fault(self.design, fault)
        self.backend = backend
        self._signals = sorted(self.design.sim.signals.items())
        self._memory_names = list(compare_memories)
        self._memories = [self.context.memory(name)
                          for name in self._memory_names]

    @property
    def signal_names(self) -> List[str]:
        return [name for name, _ in self._signals]

    @property
    def done(self) -> bool:
        signal = self.design.done_signal
        return bool(signal is not None and signal.value)

    def advance(self, n: int) -> None:
        self.design.sim.run_cycles(n)

    def snapshot(self) -> Tuple:
        return (self.design.controller.state,
                tuple(sig.value for _, sig in self._signals),
                self.memory_words())

    def memory_words(self) -> Tuple:
        return tuple(tuple(image) for image in self._memories)

    def memory_diff(self, other: "_Side"):
        """First differing (name, word, ours, theirs) among compared
        memories, or None."""
        for name, mine, theirs in zip(self._memory_names, self._memories,
                                      other._memories):
            for word, (a, b) in enumerate(zip(mine, theirs)):
                if a != b:
                    return (name, word, a, b)
        return None

    def release(self) -> None:
        if self.handle is not None:
            self.handle.detach()
            self.handle = None
        self.design.release()


# ----------------------------------------------------------------------
# First-divergence bisection
# ----------------------------------------------------------------------
@dataclass
class Divergence:
    """Raw output of :func:`locate_divergence`."""

    mode: str                     # "cycle" | "memory" | "none"
    cycle: Optional[int] = None
    nets: List[str] = field(default_factory=list)
    state_ref: Optional[str] = None
    state_sub: Optional[str] = None
    capture_ref: Optional[WaveCapture] = None
    capture_sub: Optional[WaveCapture] = None
    checkpoints: int = 0
    stride: int = 0
    compared_cycles: int = 0
    memory: Optional[Dict[str, Any]] = None
    detail: str = ""


def locate_divergence(make_ref, make_sub, *,
                      window: int = DEFAULT_WINDOW,
                      stride: Optional[int] = None,
                      max_cycles: int = DEFAULT_MAX_CYCLES) -> Divergence:
    """Two-pass first-divergence search over a lockstep pair.

    *make_ref* / *make_sub* are zero-argument factories returning fresh
    :class:`_Side` objects — elaboration must be deterministic, which
    every backend guarantees (the differential tests lock it).

    Pass 1 advances both sides ``stride`` cycles at a time (defaulting
    to *window*, so the replay fits the capture ring) comparing cheap
    snapshots at each checkpoint.  Pass 2 re-elaborates, fast-forwards
    to the last agreeing checkpoint, and replays cycle-by-cycle under
    wave capture to pin the exact divergence.
    """
    stride = stride if stride else window
    # ---- pass 1: coarse checkpoints on the fast path
    ref, sub = make_ref(), make_sub()
    checkpoints = 0
    agreed = 0
    cycle = 0
    interval = None
    crash = ""
    try:
        while cycle < max_cycles:
            n = min(stride, max_cycles - cycle)
            ref.advance(n)
            try:
                sub.advance(n)
            except Exception as exc:  # noqa: BLE001 - crash is a verdict
                crash = f"{type(exc).__name__}: {exc}"
                interval = (agreed, cycle + n)
                break
            cycle += n
            checkpoints += 1
            if ref.snapshot() != sub.snapshot():
                interval = (agreed, cycle)
                break
            agreed = cycle
            if ref.done and sub.done:
                break
    finally:
        ref.release()
        sub.release()

    if interval is None:
        return Divergence("none", checkpoints=checkpoints, stride=stride,
                          compared_cycles=cycle,
                          detail="sides agree at every checkpoint")

    # ---- pass 2: fine-grained window replay
    lo, hi = interval
    ref, sub = make_ref(), make_sub()
    capture_ref = WaveCapture(ref.design, window=window)
    capture_sub = WaveCapture(sub.design, window=window)
    names = [name for name in capture_ref.signal_names
             if name in set(capture_sub.signal_names)]
    try:
        capture_ref.skip(lo)
        capture_sub.skip(lo)
        planted = sub.memory_diff(ref) if lo == 0 else None
        capture_ref.sample()
        capture_sub.sample()
        div_cycle = None
        div_nets: List[str] = []
        detail = crash
        while capture_ref.cycle < hi:
            capture_ref.step(1)
            try:
                capture_sub.step(1)
            except Exception as exc:  # noqa: BLE001 - crash is a verdict
                detail = detail or f"{type(exc).__name__}: {exc}"
                div_cycle = capture_ref.cycle
                break
            a, b = capture_ref.last, capture_sub.last
            div_nets = [name for name in names
                        if a.values[name] != b.values[name]]
            if div_nets or a.state != b.state:
                div_cycle = capture_ref.cycle
                break
        if div_cycle is not None:
            # a little aftermath context, without evicting pre-context
            tail = min(8, window - len(capture_ref.samples))
            for _ in range(tail):
                capture_ref.step(1)
                try:
                    capture_sub.step(1)
                except Exception:  # noqa: BLE001 - already located
                    break
            return Divergence(
                "cycle", cycle=div_cycle, nets=div_nets,
                state_ref=_state_at(capture_ref, div_cycle),
                state_sub=_state_at(capture_sub, div_cycle),
                capture_ref=capture_ref, capture_sub=capture_sub,
                checkpoints=checkpoints, stride=stride,
                compared_cycles=max(cycle, div_cycle), detail=detail)
        # no net/state divergence inside the window: memory-level only
        memory = planted or sub.memory_diff(ref)
        where = None
        if memory is not None:
            name, word, ours, theirs = memory
            where = {"name": name, "word": word,
                     "sub": ours, "ref": theirs}
        return Divergence(
            "memory", cycle=0 if planted else hi, memory=where,
            capture_ref=capture_ref, capture_sub=capture_sub,
            checkpoints=checkpoints, stride=stride, compared_cycles=hi,
            detail=detail or "memories differ with no net divergence "
                             "in the replay window")
    finally:
        ref.release()
        sub.release()


def _state_at(capture: WaveCapture, cycle: int) -> Optional[str]:
    for entry in capture.samples:
        if entry.cycle == cycle:
            return entry.state
    return capture.last.state if capture.last is not None else None


# ----------------------------------------------------------------------
# Cone-of-influence suspect ranking
# ----------------------------------------------------------------------
def rank_suspects(datapath, divergent: Sequence[str], *,
                  state_ref: Optional[str] = None,
                  state_sub: Optional[str] = None,
                  roots: Sequence[str] = (),
                  limit: int = SUSPECT_LIMIT) -> List[Suspect]:
    """Walk the cone of influence backwards and rank suspects.

    *divergent* are the nets that differed at the first divergent
    cycle.  *roots* optionally seeds the walk when there are no
    divergent nets (memory-mode triage walks back from the memory's
    write-data net).  Origins — divergent nets with no divergent
    fan-in, and register outputs (a register that newly diverged across
    an edge is where the corruption entered, since the previous
    boundary was bit-exact) — outrank everything else.
    """
    nets = datapath.nets
    components = datapath.components
    # component name -> nets feeding any of its input ports
    feeds: Dict[str, List[str]] = {}
    for net in nets.values():
        for sink in net.sinks:
            feeds.setdefault(sink.component, []).append(net.name)

    divergent_set = set(divergent)
    control_names = set(getattr(datapath, "controls", {}) or {})
    suspects: Dict[str, Suspect] = {}

    def classify(name: str) -> Tuple[str, str, str]:
        net = nets.get(name)
        if net is None:
            kind = "control" if name in control_names else "state-output"
            return kind, "", ""
        comp = components.get(net.source.component)
        operator = comp.type if comp is not None else ""
        kind = "register" if operator == "reg" else "net"
        return kind, net.source.component, operator

    def fan_in(name: str) -> List[str]:
        net = nets.get(name)
        if net is None:
            return []
        return feeds.get(net.source.component, [])

    origins: List[str] = []
    others: List[str] = []
    for name in sorted(divergent_set):
        kind, _, operator = classify(name)
        preds = (set(fan_in(name)) & divergent_set) - {name}
        if operator == "reg" or not preds:
            origins.append(name)
        else:
            others.append(name)

    frontier: List[Tuple[str, int]] = [(name, 0) for name in origins]
    frontier += [(name, 0) for name in others]
    frontier += [(name, 0) for name in sorted(roots)
                 if name not in divergent_set]
    origin_set = set(origins)
    while frontier:
        name, distance = frontier.pop(0)
        if name in suspects:
            continue
        kind, component, operator = classify(name)
        is_div = name in divergent_set
        is_origin = name in origin_set
        base = 2.0 if is_origin else (1.2 if is_div else 1.0)
        suspects[name] = Suspect(
            name=name, kind=kind, component=component, operator=operator,
            distance=distance, divergent=is_div, origin=is_origin,
            score=base / (1 + distance))
        for upstream in sorted(set(fan_in(name))):
            if upstream not in suspects:
                frontier.append((upstream, distance + 1))

    ranked = sorted(suspects.values(), key=lambda s: (-s.score, s.name))
    if state_ref is not None and state_sub is not None \
            and state_ref != state_sub:
        ranked.insert(0 if not divergent_set else len(
            [s for s in ranked if s.origin]), Suspect(
                name=f"{state_sub} (vs {state_ref})", kind="state",
                operator="fsm", distance=0, divergent=True,
                origin=not divergent_set, score=1.9))
    return ranked[:limit]


def memory_write_cone(datapath, memory_name: str) -> List[str]:
    """Nets wired into write-data ports of *memory_name*'s SRAM ports."""
    names: List[str] = []
    for net in datapath.nets.values():
        for sink in net.sinks:
            comp = datapath.components.get(sink.component)
            if comp is None or comp.type != "sram":
                continue
            if comp.param("memory", "") == memory_name \
                    and sink.port == "din":
                names.append(net.name)
                break
    return sorted(set(names))


# ----------------------------------------------------------------------
# Producers
# ----------------------------------------------------------------------
def _single_config(design):
    if design.multi_configuration:
        raise TriageError(
            f"lockstep triage supports single-configuration designs; "
            f"{design.name!r} has {len(design.configurations)}")
    return design.configurations[0]


def _output_arrays(design) -> List[str]:
    from ..compiler.partitioning import SPILL_MEMORY
    return sorted(name for name, spec in design.arrays.items()
                  if name != SPILL_MEMORY and spec.role == "output")


def _window_info(window: int, capture: Optional[WaveCapture]) -> Dict:
    info: Dict[str, Any] = {"size": window, "truncated": False,
                            "dropped": 0, "note": ""}
    if capture is not None and capture.samples:
        info.update(start=capture.samples[0].cycle,
                    end=capture.samples[-1].cycle,
                    truncated=capture.truncated, dropped=capture.dropped,
                    note=capture.truncation_note())
    return info


def _build_record(kind: str, app: str, datapath, div: Divergence, *,
                  backend_ref: str, backend_sub: str, window: int,
                  fault=None) -> TriageRecord:
    if div.mode == "cycle":
        suspects = rank_suspects(datapath, div.nets,
                                 state_ref=div.state_ref,
                                 state_sub=div.state_sub)
        net = suspects[0].name if suspects and div.nets else None
        if net is None and div.nets:
            net = sorted(div.nets)[0]
    elif div.mode == "memory" and div.memory is not None:
        roots = memory_write_cone(datapath, div.memory["name"])
        suspects = rank_suspects(datapath, (), roots=roots)
        suspects.insert(0, Suspect(
            name=div.memory["name"], kind="memory", operator="sram",
            distance=0, divergent=True, origin=True, score=2.0))
        net = roots[0] if roots else None
    else:
        suspects, net = [], None
    return TriageRecord(
        kind=kind, app=app, backend_ref=backend_ref,
        backend_sub=backend_sub, mode=div.mode, cycle=div.cycle,
        net=net, nets=sorted(div.nets), suspects=suspects,
        state_ref=div.state_ref, state_sub=div.state_sub,
        window=_window_info(window, div.capture_sub),
        checkpoints=div.checkpoints, stride=div.stride,
        compared_cycles=div.compared_cycles,
        fault=fault.to_dict() if fault is not None else None,
        memory=div.memory, detail=div.detail)


def triage_fault(design, func, fault, inputs=None, *,
                 backend: str = "compiled",
                 window: int = DEFAULT_WINDOW,
                 stride: Optional[int] = None,
                 max_cycles: int = DEFAULT_MAX_CYCLES,
                 fsm_mode: str = "generated",
                 app: Optional[str] = None,
                 kind: str = "fault") -> TriageResult:
    """Triage one fault descriptor: fault-free vs faulted lockstep."""
    from ..core.verification import prepare_images
    config = _single_config(design)
    compare = _output_arrays(design)
    name = app or design.name

    def side(with_fault):
        return _Side(config.datapath, config.fsm, design.rtg,
                     prepare_images(design, inputs), backend=backend,
                     fault=fault if with_fault else None,
                     fsm_mode=fsm_mode, compare_memories=compare)

    with span("triage.fault", "triage", app=name, backend=backend,
              fault=fault.fault_id):
        div = locate_divergence(lambda: side(False), lambda: side(True),
                                window=window, stride=stride,
                                max_cycles=max_cycles)
    record = _build_record(kind, name, config.datapath, div,
                           backend_ref=backend, backend_sub=backend,
                           window=window, fault=fault)
    return TriageResult(record, div.capture_ref, div.capture_sub)


def triage_backends(design, inputs=None, *,
                    backend_ref: str = "event",
                    backend_sub: str = "compiled",
                    window: int = DEFAULT_WINDOW,
                    stride: Optional[int] = None,
                    max_cycles: int = DEFAULT_MAX_CYCLES,
                    fsm_mode: str = "generated",
                    app: Optional[str] = None,
                    kind: str = "backend") -> TriageResult:
    """Triage a backend disagreement: two kernels, same design."""
    from ..core.verification import prepare_images
    config = _single_config(design)
    compare = _output_arrays(design)
    name = app or design.name

    def side(backend):
        return _Side(config.datapath, config.fsm, design.rtg,
                     prepare_images(design, inputs), backend=backend,
                     fsm_mode=fsm_mode, compare_memories=compare)

    with span("triage.backends", "triage", app=name,
              ref=backend_ref, sub=backend_sub):
        div = locate_divergence(lambda: side(backend_ref),
                                lambda: side(backend_sub),
                                window=window, stride=stride,
                                max_cycles=max_cycles)
    record = _build_record(kind, name, config.datapath, div,
                           backend_ref=backend_ref,
                           backend_sub=backend_sub, window=window)
    return TriageResult(record, div.capture_ref, div.capture_sub)


def triage_fuzz_entry(entry, *,
                      window: int = DEFAULT_WINDOW,
                      stride: Optional[int] = None,
                      max_cycles: int = 250_000,
                      reference: str = "event") -> TriageResult:
    """Triage a fuzz-corpus mismatch reproducer.

    The failing backend is paired against a reference backend in
    lockstep; if the kernels agree with each other (a compiler bug, not
    a kernel bug), the final memories are compared against the golden
    software execution instead and the suspect cone is walked back from
    the mismatching output memory's write port.
    """
    from ..compiler.pipeline import compile_function
    from ..fuzz.generator import make_images
    program = entry.program
    design = compile_function(
        program.source, program.arrays, dict(program.params),
        name=program.name, word_width=program.word_width,
        n_partitions=program.n_partitions)
    failing = entry.backend or "compiled"
    backend_ref = reference if failing != reference else "compiled"

    div: Optional[Divergence] = None
    datapath = design.configurations[0].datapath
    if not design.multi_configuration:
        compare = [name for name in sorted(design.arrays)
                   if name != _spill()]

        def side(backend):
            return _Side(datapath, design.configurations[0].fsm,
                         design.rtg, make_images(program, entry.input_seed),
                         backend=backend, compare_memories=compare)

        with span("triage.fuzz", "triage", app=program.name,
                  seed=getattr(entry, "path", "")):
            div = locate_divergence(lambda: side(backend_ref),
                                    lambda: side(failing),
                                    window=window, stride=stride,
                                    max_cycles=max_cycles)
    if div is None or div.mode == "none":
        # kernels agree (or multi-config): divergence is vs golden
        golden_div = _golden_memory_divergence(
            design, program, entry.input_seed, failing, max_cycles)
        if golden_div is not None:
            golden_div.checkpoints = div.checkpoints if div else 0
            golden_div.stride = stride or window
            record = _build_record(
                "fuzz-mismatch", program.name, datapath, golden_div,
                backend_ref="golden", backend_sub=failing, window=window)
            return TriageResult(record)
    record = _build_record(
        "fuzz-mismatch", program.name, datapath,
        div if div is not None else Divergence(
            "none", detail="multi-configuration program and no golden "
                           "memory mismatch reproduced"),
        backend_ref=backend_ref, backend_sub=failing, window=window)
    return TriageResult(record,
                        div.capture_ref if div else None,
                        div.capture_sub if div else None)


def _spill() -> str:
    from ..compiler.partitioning import SPILL_MEMORY
    return SPILL_MEMORY


def _golden_memory_divergence(design, program, input_seed: int,
                              backend: str,
                              max_cycles: int) -> Optional[Divergence]:
    """Run golden + failing backend to completion; first memory diff."""
    from ..fuzz.generator import make_images
    from ..golden.runner import run_golden
    from ..rtg.context import ReconfigurationContext
    from ..rtg.executor import RtgExecutor
    from ..util.files import compare_images
    inputs = make_images(program, input_seed)
    golden = {name: image.copy() for name, image in inputs.items()}
    run_golden(program.func(), program.arrays, golden,
               dict(program.params))
    context = ReconfigurationContext.from_rtg(design.rtg, initial=inputs)
    executor = RtgExecutor(design.rtg, context, backend=backend,
                           max_cycles_per_configuration=max_cycles)
    try:
        executor.run()
    except Exception as exc:  # noqa: BLE001 - still triageable
        return Divergence("none",
                          detail=f"replay {type(exc).__name__}: {exc}")
    for name in sorted(program.arrays):
        if name == _spill():
            continue
        mismatches = compare_images(golden[name], context.memory(name),
                                    limit=1)
        if mismatches:
            hit = mismatches[0]
            return Divergence(
                "memory",
                memory={"name": name, "word": hit.address,
                        "ref": hit.expected, "sub": hit.actual},
                detail=f"{name}: {hit.describe(program.arrays[name].width)}")
    return None


# ----------------------------------------------------------------------
# HTML report
# ----------------------------------------------------------------------
_REPORT_CSS = """
body{font-family:ui-monospace,Menlo,Consolas,monospace;background:#11151a;
color:#d8dee6;margin:1.5rem;font-size:13px}
h1{font-size:1.15rem}h2{font-size:0.95rem;margin-top:1.4rem}
table{border-collapse:collapse;margin:0.4rem 0}
td,th{border:1px solid #2a3340;padding:2px 7px;text-align:right}
th{background:#1a2129;color:#9fb0c3}
td.sig{text-align:left;color:#9fb0c3}
td.div{background:#5b1f24;color:#ffb3b8;font-weight:bold}
td.first{outline:2px solid #ff5560}
.mut{color:#67788c}.origin{color:#ffd479;font-weight:bold}
.badge{display:inline-block;background:#1a2129;border:1px solid #2a3340;
border-radius:4px;padding:1px 8px;margin-right:6px}
.trunc{color:#ffd479}
"""


def _esc(text) -> str:
    import html
    return html.escape(str(text))


def render_triage_html(result: TriageResult) -> str:
    """Self-contained offline HTML report for one triage result."""
    record = result.record
    out: List[str] = []
    out.append("<!doctype html><html><head><meta charset='utf-8'>")
    out.append(f"<title>triage: {_esc(record.app)}</title>")
    out.append(f"<style>{_REPORT_CSS}</style></head><body>")
    out.append(f"<h1>Divergence triage — {_esc(record.app)}</h1>")
    out.append("<p>")
    out.append(f"<span class='badge'>kind {_esc(record.kind)}</span>")
    out.append(f"<span class='badge'>{_esc(record.backend_ref)} vs "
               f"{_esc(record.backend_sub)}</span>")
    out.append(f"<span class='badge'>mode {_esc(record.mode)}</span>")
    if record.cycle is not None:
        out.append(f"<span class='badge'>first divergent cycle "
                   f"{record.cycle}</span>")
    if record.net:
        out.append(f"<span class='badge'>net {_esc(record.net)}</span>")
    out.append("</p>")
    if record.fault:
        out.append(f"<p class='mut'>fault: "
                   f"{_esc(json.dumps(record.fault))}</p>")
    if record.memory:
        out.append(f"<p>memory divergence: <b>{_esc(record.memory['name'])}"
                   f"</b> word {record.memory['word']} — reference "
                   f"{record.memory.get('ref')}, subject "
                   f"{record.memory.get('sub')}</p>")
    if record.detail:
        out.append(f"<p class='mut'>{_esc(record.detail)}</p>")

    # suspect cone ----------------------------------------------------
    out.append("<h2>Suspect cone</h2>")
    if record.suspects:
        out.append("<table><tr><th>#</th><th>suspect</th><th>kind</th>"
                   "<th>operator</th><th>component</th><th>dist</th>"
                   "<th>score</th></tr>")
        for rank, suspect in enumerate(record.suspects, 1):
            cls = " class='origin'" if suspect.origin else ""
            out.append(
                f"<tr><td>{rank}</td><td class='sig'{cls}>"
                f"{_esc(suspect.name)}</td><td>{_esc(suspect.kind)}</td>"
                f"<td>{_esc(suspect.operator)}</td>"
                f"<td class='sig'>{_esc(suspect.component)}</td>"
                f"<td>{suspect.distance}</td>"
                f"<td>{suspect.score:.2f}</td></tr>")
        out.append("</table>")
    else:
        out.append("<p class='mut'>no suspects ranked</p>")

    # waveform window -------------------------------------------------
    ref, sub = result.capture_ref, result.capture_sub
    if ref is not None and sub is not None and ref.samples:
        ref_at = {s.cycle: s for s in ref.samples}
        sub_at = {s.cycle: s for s in sub.samples}
        cycles = sorted(set(ref_at) & set(sub_at))
        shown = [s.name for s in record.suspects
                 if s.kind in ("net", "register", "control")]
        for name in record.nets:
            if name not in shown:
                shown.append(name)
        shown = [name for name in shown
                 if name in (ref.samples[-1].values
                             if ref.samples else {})][:REPORT_SIGNAL_LIMIT]
        out.append("<h2>Waveform window</h2>")
        if record.window.get("truncated"):
            out.append(f"<p class='trunc'>window truncated "
                       f"{_esc(record.window.get('note', ''))}</p>")
        out.append("<table><tr><th>signal</th>")
        for cycle in cycles:
            mark = " class='first'" if cycle == record.cycle else ""
            out.append(f"<th{mark}>{cycle}</th>")
        out.append("</tr>")
        for name in shown:
            out.append(f"<tr><td class='sig'>{_esc(name)}</td>")
            for cycle in cycles:
                a = ref_at[cycle].values.get(name)
                b = sub_at[cycle].values.get(name)
                if a != b:
                    first = " first" if cycle == record.cycle \
                        and name in record.nets else ""
                    out.append(f"<td class='div{first}'>{b:x}≠{a:x}</td>")
                else:
                    out.append(f"<td>{b:x}</td>")
            out.append("</tr>")
        out.append("</table>")

        # FSM timeline -------------------------------------------------
        out.append("<h2>FSM state timeline</h2>")
        out.append("<table><tr><th>cycle</th>")
        for cycle in cycles:
            mark = " class='first'" if cycle == record.cycle else ""
            out.append(f"<th{mark}>{cycle}</th>")
        out.append("</tr>")
        for label, table in (("reference", ref_at), ("subject", sub_at)):
            out.append(f"<tr><td class='sig'>{label}</td>")
            for cycle in cycles:
                a = ref_at[cycle].state
                b = table[cycle].state
                cls = " class='div'" if a != sub_at[cycle].state \
                    and label == "subject" else ""
                out.append(f"<td{cls}>{_esc(table[cycle].state)}</td>")
            out.append("</tr>")
        out.append("</table>")
    else:
        out.append("<p class='mut'>no waveform window captured "
                   "(memory-level divergence)</p>")
    out.append(f"<p class='mut'>checkpoints {record.checkpoints} · "
               f"stride {record.stride} · compared "
               f"{record.compared_cycles} cycles · generated by "
               f"repro triage</p>")
    out.append("</body></html>")
    return "".join(out)


# ----------------------------------------------------------------------
# Ledger attachment
# ----------------------------------------------------------------------
def attach_to_ledger(ledger, result: TriageResult, *,
                     wall_seconds: float = 0.0,
                     argv: Optional[Sequence[str]] = None,
                     paths: Optional[Mapping[str, Path]] = None):
    """Record *result* as a ``triage`` run row; returns the run id.

    *ledger* may be a :class:`repro.obs.ledger.Ledger` or a path (or
    None, in which case nothing is recorded).
    """
    if ledger is None:
        return None
    from .ledger import ledger_sink
    extra = result.record.to_dict()
    if paths:
        extra["artifacts"] = {key: str(path)
                              for key, path in paths.items()}
    with ledger_sink(ledger) as sink:
        return sink.record_triage(extra, wall_seconds=wall_seconds,
                                  argv=list(argv) if argv else None)
