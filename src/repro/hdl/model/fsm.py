"""Behavioural FSM model — the object form of ``fsm.xml``.

The control unit is a Moore machine: each state asserts a set of control
output values (unlisted outputs take their declared defaults, so the XML
stays compact), and transitions are guarded by boolean conditions over the
datapath's status lines.  Guards are evaluated in document order; the last
transition of every non-final state must be unconditional so the machine
is total.  Final states implicitly self-loop and conventionally assert the
``done`` output the test harness and the reconfiguration runtime watch.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from .expressions import Const, Expr, TRUE

__all__ = ["OutputDecl", "Transition", "State", "Fsm", "FsmError",
           "DONE_OUTPUT"]

#: conventional name of the completion output
DONE_OUTPUT = "done"


class FsmError(ValueError):
    """The FSM description is malformed."""


@dataclass
class OutputDecl:
    """A control output: name, width and its default (idle) value."""

    name: str
    width: int = 1
    default: int = 0


@dataclass
class Transition:
    """Guarded edge to another state; guards are tried in order."""

    condition: Expr
    target: str

    @property
    def unconditional(self) -> bool:
        return isinstance(self.condition, Const) and self.condition.value == 1


@dataclass
class State:
    """One control step: asserted outputs and outgoing transitions."""

    name: str
    assigns: Dict[str, int] = field(default_factory=dict)
    transitions: List[Transition] = field(default_factory=list)

    def assign(self, output: str, value: int) -> "State":
        self.assigns[output] = value
        owner = getattr(self, "_owner", None)
        if owner is not None:
            owner._digest_memo = None
        return self

    def transition(self, target: str,
                   condition: Optional[Expr] = None) -> "State":
        self.transitions.append(Transition(condition or TRUE, target))
        owner = getattr(self, "_owner", None)
        if owner is not None:
            owner._digest_memo = None
        return self


class Fsm:
    """A named Moore machine over declared inputs and outputs."""

    def __init__(self, name: str, reset_state: Optional[str] = None) -> None:
        self.name = name
        self.inputs: List[str] = []
        self.outputs: Dict[str, OutputDecl] = {}
        self.states: Dict[str, State] = {}
        self.reset_state = reset_state
        self.final_states: Set[str] = set()
        #: memoised structural digest (see repro.core.kernelcache);
        #: cleared by the mutators here and on owned states — direct
        #: attribute mutation must clear it too, or kernel-cache keys
        #: go stale
        self._digest_memo: Optional[str] = None

    def __deepcopy__(self, memo) -> "Fsm":
        # a deep copy is made to be edited, often directly, so it starts
        # without the digest memo; a pickle keeps it (the design stage's
        # warm path relies on that)
        clone = object.__new__(type(self))
        memo[id(self)] = clone
        clone.__dict__.update(copy.deepcopy(
            dict(self.__dict__, _digest_memo=None), memo))
        return clone

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    def add_input(self, name: str) -> None:
        self._digest_memo = None
        if name in self.inputs:
            raise FsmError(f"duplicate input {name!r}")
        self.inputs.append(name)

    def add_output(self, name: str, width: int = 1,
                   default: int = 0) -> OutputDecl:
        self._digest_memo = None
        if name in self.outputs:
            raise FsmError(f"duplicate output {name!r}")
        decl = OutputDecl(name, width, default)
        self.outputs[name] = decl
        return decl

    def add_state(self, name: str, *, final: bool = False) -> State:
        self._digest_memo = None
        if name in self.states:
            raise FsmError(f"duplicate state {name!r}")
        state = State(name)
        state._owner = self  # digest invalidation on state mutation
        self.states[name] = state
        if self.reset_state is None:
            self.reset_state = name
        if final:
            self.final_states.add(name)
        return state

    def mark_final(self, name: str) -> None:
        self._digest_memo = None
        if name not in self.states:
            raise FsmError(f"cannot mark unknown state {name!r} as final")
        self.final_states.add(name)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def state_names(self) -> List[str]:
        return list(self.states)

    def state_count(self) -> int:
        return len(self.states)

    def output_vector(self, state_name: str) -> Dict[str, int]:
        """The complete output assignment in *state_name* (with defaults)."""
        state = self._state(state_name)
        vector = {name: decl.default for name, decl in self.outputs.items()}
        vector.update(state.assigns)
        return vector

    def next_state(self, state_name: str, env: Dict[str, int]) -> str:
        """Evaluate guards in order; final states self-loop."""
        state = self._state(state_name)
        for transition in state.transitions:
            if transition.condition.evaluate(env):
                return transition.target
        if state_name in self.final_states:
            return state_name
        raise FsmError(
            f"state {state_name!r}: no transition matched and the state "
            f"is not final"
        )

    def _state(self, name: str) -> State:
        try:
            return self.states[name]
        except KeyError:
            raise FsmError(f"unknown state {name!r}") from None

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def validate(self) -> None:
        if not self.states:
            raise FsmError(f"fsm {self.name!r} has no states")
        if self.reset_state not in self.states:
            raise FsmError(
                f"fsm {self.name!r}: reset state {self.reset_state!r} "
                f"does not exist"
            )
        declared_inputs = set(self.inputs)
        for state in self.states.values():
            for output, value in state.assigns.items():
                decl = self.outputs.get(output)
                if decl is None:
                    raise FsmError(
                        f"state {state.name!r} assigns undeclared output "
                        f"{output!r}"
                    )
                if not 0 <= value < (1 << decl.width):
                    raise FsmError(
                        f"state {state.name!r}: value {value} does not fit "
                        f"output {output!r} ({decl.width} bits)"
                    )
            for transition in state.transitions:
                if transition.target not in self.states:
                    raise FsmError(
                        f"state {state.name!r} transitions to unknown "
                        f"state {transition.target!r}"
                    )
                undeclared = transition.condition.names() - declared_inputs
                if undeclared:
                    raise FsmError(
                        f"state {state.name!r}: condition references "
                        f"undeclared inputs {sorted(undeclared)}"
                    )
            is_total = state.transitions and \
                state.transitions[-1].unconditional
            if not is_total and state.name not in self.final_states:
                raise FsmError(
                    f"state {state.name!r} has no default transition and "
                    f"is not final"
                )

    def reachable_states(self) -> Set[str]:
        """States reachable from reset (for lint-style diagnostics)."""
        seen: Set[str] = set()
        frontier = [self.reset_state]
        while frontier:
            name = frontier.pop()
            if name in seen or name is None:
                continue
            seen.add(name)
            for transition in self._state(name).transitions:
                frontier.append(transition.target)
        return seen

    def __repr__(self) -> str:
        return (f"Fsm({self.name!r}, states={len(self.states)}, "
                f"inputs={len(self.inputs)}, outputs={len(self.outputs)})")
