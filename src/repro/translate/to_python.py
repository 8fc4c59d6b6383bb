"""Python code generation — the paper's "to java" stylesheets.

The paper translates the behavioural FSM XML into Java source that Hades
executes directly, and the RTG into Java that sequences the simulation
through the temporal partitions.  Here the targets are Python modules:

* :func:`fsm_to_python` emits the source of an executable FSM module
  (whose line count is the Table I "loJava FSM" analogue);
* :func:`compile_fsm` executes that source and wraps it in a
  :class:`GeneratedFsmBehavior`;
* :class:`InterpretedFsmBehavior` walks the FSM object model directly —
  the ablation baseline quantifying what code generation buys (A1);
* :func:`rtg_to_python` / :func:`compile_rtg` do the same for the RTG.

Both behaviour flavours satisfy one protocol consumed by the simulator
glue (:mod:`repro.translate.to_sim`): ``reset_state``, ``finals``,
``output_vectors`` and ``next_state(state, env)``.
"""

from __future__ import annotations

from typing import Callable, Dict, FrozenSet, List, Optional

from ..hdl.model.fsm import Fsm
from ..hdl.model.rtg import Rtg
from .engine import register_translation

__all__ = ["fsm_to_python", "fsm_module_source", "compile_fsm",
           "GeneratedFsmBehavior", "InterpretedFsmBehavior",
           "rtg_to_python", "compile_rtg", "GeneratedRtgControl",
           "InterpretedRtgControl"]


# ----------------------------------------------------------------------
# FSM code generation
# ----------------------------------------------------------------------
@register_translation(Fsm, "python")
def fsm_to_python(fsm: Fsm) -> str:
    """Emit an executable Python module for *fsm*.

    The module contains the reset state, the final-state set, the
    outputs' defaults and each state's own assignments (what ``fsm.xml``
    lists), and a ``next_state`` function compiled from the transition
    guards.  The full output vector of every state is built from the two
    tables when the module loads: spelling it out would make the module
    states x outputs long, and ``compile()`` would pay for every entry.
    Assignments are listed in output-declaration order, so the text
    depends only on what :func:`~repro.core.kernelcache.fsm_digest`
    hashes.
    """
    fsm.validate()
    lines: List[str] = [
        f'"""Control unit {fsm.name!r} -- generated, do not edit."""',
        "",
        f"NAME = {fsm.name!r}",
        f"RESET = {fsm.reset_state!r}",
        f"FINALS = frozenset({sorted(fsm.final_states)!r})",
        f"INPUTS = {list(fsm.inputs)!r}",
        "",
        "OUTPUT_WIDTHS = {",
    ]
    for decl in fsm.outputs.values():
        lines.append(f"    {decl.name!r}: {decl.width},")
    lines.append("}")
    lines.append("")
    lines.append("OUTPUT_DEFAULTS = {")
    for decl in fsm.outputs.values():
        lines.append(f"    {decl.name!r}: {decl.default},")
    lines.append("}")
    lines.append("")
    lines.append("STATE_ASSIGNS = {")
    for state in fsm.states.values():
        if not state.assigns:
            lines.append(f"    {state.name!r}: {{}},")
            continue
        lines.append(f"    {state.name!r}: {{")
        for output in fsm.outputs:
            if output in state.assigns:
                lines.append(f"        {output!r}: {state.assigns[output]},")
        lines.append("    },")
    lines.append("}")
    lines.append("")
    lines.append("OUTPUT_VECTORS = {state: {**OUTPUT_DEFAULTS, **assigns}")
    lines.append("                  for state, assigns in STATE_ASSIGNS.items()}")
    lines.append("")
    # one native transition function per state, dispatched through a
    # dict: O(1) per clock edge regardless of the FSM size (the reason
    # the paper generates Java instead of interpreting the XML)
    for index, state in enumerate(fsm.states.values()):
        lines.append("")
        lines.append(f"def _next_{index}(env):")
        lines.append(f'    """Transitions out of {state.name!r}."""')
        emitted_default = False
        for transition in state.transitions:
            if transition.unconditional:
                lines.append(f"    return {transition.target!r}")
                emitted_default = True
                break
            lines.append(f"    if {transition.condition.to_python()}:")
            lines.append(f"        return {transition.target!r}")
        if not emitted_default:
            # final states self-loop
            lines.append(f"    return {state.name!r}")
    lines.append("")
    lines.append("")
    lines.append("TRANSITIONS = {")
    for index, state_name in enumerate(fsm.states):
        lines.append(f"    {state_name!r}: _next_{index},")
    lines.append("}")
    lines.append("")
    lines.append("")
    lines.append("def next_state(state, env):")
    lines.append('    """Transition function; guards are tried in order."""')
    lines.append("    try:")
    lines.append("        return TRANSITIONS[state](env)")
    lines.append("    except KeyError:")
    lines.append("        raise ValueError(f\"unknown state {state!r}\") "
                 "from None")
    return "\n".join(lines) + "\n"


class GeneratedFsmBehavior:
    """Wraps an exec()'d generated FSM module in the behaviour protocol.

    ``code`` lets callers supply pre-compiled bytecode for *source* (the
    kernel cache does); when omitted the source is compiled here.
    """

    def __init__(self, source: str, code=None) -> None:
        self.source = source
        namespace: Dict[str, object] = {}
        if code is None:
            code = compile(source, "<generated-fsm>", "exec")
        exec(code, namespace)
        self.name: str = namespace["NAME"]  # type: ignore[assignment]
        self.reset_state: str = namespace["RESET"]  # type: ignore[assignment]
        self.finals: FrozenSet[str] = namespace["FINALS"]  # type: ignore[assignment]
        self.inputs: List[str] = namespace["INPUTS"]  # type: ignore[assignment]
        self.output_widths: Dict[str, int] = namespace["OUTPUT_WIDTHS"]  # type: ignore[assignment]
        self.output_vectors: Dict[str, Dict[str, int]] = \
            namespace["OUTPUT_VECTORS"]  # type: ignore[assignment]
        #: direct per-state dispatch table (hot path for the controller)
        self.transitions: Dict[str, Callable] = \
            namespace["TRANSITIONS"]  # type: ignore[assignment]
        self._next: Callable = namespace["next_state"]  # type: ignore[assignment]

    def next_state(self, state: str, env: Dict[str, int]) -> str:
        return self._next(state, env)


#: process-level behaviour memo — GeneratedFsmBehavior instances are
#: immutable (pure dispatch tables), so identical sources share one;
#: bounded like the kernel cache's memory layer
#: (:data:`~repro.core.kernelcache.MEMO_ENTRIES`)
_BEHAVIOR_MEMO: Dict[str, GeneratedFsmBehavior] = {}


def _fsm_key(fsm: Fsm) -> str:
    """Memo and kernel-cache key of *fsm*'s generated module: the FSM
    digest plus the generator's own source (see
    :func:`~repro.core.kernelcache.fsm_fingerprint`)."""
    from ..core.kernelcache import digest_parts, fsm_digest, fsm_fingerprint

    return digest_parts("fsm-module", fsm_fingerprint(), fsm_digest(fsm))


def compile_fsm(fsm: Fsm) -> GeneratedFsmBehavior:
    """Generate and load executable behaviour for *fsm*.

    Behaviour objects are stateless, so one per FSM is memoised per
    process: reconfiguration loops and campaigns elaborate the same
    configuration many times.  The bytecode also persists in the kernel
    cache, so a fresh process skips ``compile()``.  The memo key is the
    structural FSM digest with the generator's fingerprint — cheaper to
    compute than regenerating the module source, which a memo hit skips
    entirely.
    """
    from ..core.kernelcache import default_cache, memo_get, memo_put

    key = _fsm_key(fsm)
    behavior = memo_get(_BEHAVIOR_MEMO, key)
    if behavior is not None:
        return behavior
    source = fsm_to_python(fsm)
    cache = default_cache()
    _, code = cache.get("fsm", key)
    if code is None:
        code = compile(source, "<generated-fsm>", "exec")
        cache.put("fsm", key, {"kind": "fsm"}, code)
    behavior = GeneratedFsmBehavior(source, code=code)
    memo_put(_BEHAVIOR_MEMO, key, behavior)
    return behavior


def fsm_module_source(fsm: Fsm) -> str:
    """The module text :func:`compile_fsm` generates for *fsm*: taken
    from the behaviour memo when an elaboration in this process already
    loaded it, generated otherwise (nothing is compiled either way)."""
    behavior = _BEHAVIOR_MEMO.get(_fsm_key(fsm))
    return behavior.source if behavior is not None else fsm_to_python(fsm)


class InterpretedFsmBehavior:
    """Walks the FSM object model directly (no code generation).

    Kept as the ablation baseline: identical semantics, slower transition
    evaluation because every guard re-walks its expression tree.
    """

    def __init__(self, fsm: Fsm) -> None:
        fsm.validate()
        self._fsm = fsm
        self.name = fsm.name
        self.reset_state = fsm.reset_state
        self.finals = frozenset(fsm.final_states)
        self.inputs = list(fsm.inputs)
        self.output_widths = {d.name: d.width for d in fsm.outputs.values()}
        self.output_vectors = {
            name: fsm.output_vector(name) for name in fsm.states
        }

    def next_state(self, state: str, env: Dict[str, int]) -> str:
        return self._fsm.next_state(state, env)


# ----------------------------------------------------------------------
# RTG code generation
# ----------------------------------------------------------------------
@register_translation(Rtg, "python")
def rtg_to_python(rtg: Rtg) -> str:
    """Emit the Python module sequencing a multi-configuration design."""
    rtg.validate()
    lines: List[str] = [
        f'"""Reconfiguration controller {rtg.name!r} -- generated."""',
        "",
        f"NAME = {rtg.name!r}",
        f"START = {rtg.start!r}",
        f"FINALS = frozenset({sorted(rtg.final_configurations)!r})",
        "",
        "CONFIGURATIONS = {",
    ]
    for ref in rtg.configurations.values():
        lines.append(
            f"    {ref.name!r}: ({ref.datapath_file!r}, {ref.fsm_file!r}),"
        )
    lines.append("}")
    lines.append("")
    lines.append("")
    lines.append("def next_configuration(configuration, env):")
    lines.append('    """The partition to load next, or None when done."""')
    keyword = "if"
    for name in rtg.configurations:
        lines.append(f"    {keyword} configuration == {name!r}:")
        keyword = "elif"
        emitted_default = False
        for transition in rtg.transitions_from(name):
            if transition.unconditional:
                lines.append(f"        return {transition.target!r}")
                emitted_default = True
                break
            lines.append(
                f"        if {transition.condition.to_python()}:"
            )
            lines.append(f"            return {transition.target!r}")
        if not emitted_default:
            lines.append("        return None")
    lines.append(
        "    raise ValueError(f\"unknown configuration {configuration!r}\")"
    )
    return "\n".join(lines) + "\n"


class GeneratedRtgControl:
    """Wraps an exec()'d generated RTG module."""

    def __init__(self, source: str) -> None:
        self.source = source
        namespace: Dict[str, object] = {}
        exec(compile(source, "<generated-rtg>", "exec"), namespace)
        self.name: str = namespace["NAME"]  # type: ignore[assignment]
        self.start: str = namespace["START"]  # type: ignore[assignment]
        self.finals: FrozenSet[str] = namespace["FINALS"]  # type: ignore[assignment]
        self.configurations: Dict[str, tuple] = \
            namespace["CONFIGURATIONS"]  # type: ignore[assignment]
        self._next: Callable = namespace["next_configuration"]  # type: ignore[assignment]

    def next_configuration(self, configuration: str,
                           env: Dict[str, int]) -> Optional[str]:
        return self._next(configuration, env)


def compile_rtg(rtg: Rtg) -> GeneratedRtgControl:
    return GeneratedRtgControl(rtg_to_python(rtg))


class InterpretedRtgControl:
    """Direct object-model walk of the RTG (ablation baseline)."""

    def __init__(self, rtg: Rtg) -> None:
        rtg.validate()
        self._rtg = rtg
        self.name = rtg.name
        self.start = rtg.start
        self.finals = frozenset(rtg.final_configurations)
        self.configurations = {
            ref.name: (ref.datapath_file, ref.fsm_file)
            for ref in rtg.configurations.values()
        }

    def next_configuration(self, configuration: str,
                           env: Dict[str, int]) -> Optional[str]:
        return self._rtg.next_configuration(configuration, env)
