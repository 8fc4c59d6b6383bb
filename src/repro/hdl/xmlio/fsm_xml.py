"""Reader and writer for the ``fsm.xml`` dialect.

Document shape::

    <fsm name="fdct1_ctl" reset="S0">
      <inputs>
        <input name="st_lt"/>
      </inputs>
      <outputs>
        <output name="en_r_x" width="1" default="0"/>
      </outputs>
      <states>
        <state name="S0">
          <assign output="en_r_x" value="1"/>
          <transition when="st_lt" next="S1"/>
          <transition next="S_done"/>
        </state>
        <state name="S_done" final="true">
          <assign output="done" value="1"/>
        </state>
      </states>
    </fsm>

The ``when`` attribute uses the condition grammar of
:mod:`repro.hdl.model.expressions`; omitting it means "always".
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from pathlib import Path
from typing import Union

from ..model.expressions import parse_condition
from ..model.fsm import Fsm
from .common import (bool_attr, int_attr, parse_root, require_attr,
                     to_pretty_xml)

__all__ = ["fsm_tree", "write_fsm", "read_fsm", "save_fsm", "load_fsm"]


def fsm_tree(fsm: Fsm) -> ET.Element:
    """The XML dialect's element tree for *fsm*."""
    root = ET.Element("fsm", name=fsm.name, reset=fsm.reset_state or "")

    inputs = ET.SubElement(root, "inputs")
    for name in fsm.inputs:
        ET.SubElement(inputs, "input", name=name)

    outputs = ET.SubElement(root, "outputs")
    for decl in fsm.outputs.values():
        ET.SubElement(outputs, "output", name=decl.name,
                      width=str(decl.width), default=str(decl.default))

    states = ET.SubElement(root, "states")
    for state in fsm.states.values():
        attrs = {"name": state.name}
        if state.name in fsm.final_states:
            attrs["final"] = "true"
        element = ET.SubElement(states, "state", attrs)
        for output, value in state.assigns.items():
            ET.SubElement(element, "assign", output=output, value=str(value))
        for transition in state.transitions:
            t_attrs = {"next": transition.target}
            if not transition.unconditional:
                t_attrs["when"] = transition.condition.to_text()
            ET.SubElement(element, "transition", t_attrs)

    return root


def write_fsm(fsm: Fsm) -> str:
    """Serialise to the XML dialect (pretty-printed)."""
    return to_pretty_xml(fsm_tree(fsm))


def read_fsm(source: Union[str, Path]) -> Fsm:
    root = parse_root(source, "fsm")
    fsm = Fsm(require_attr(root, "name"))

    for element in root.findall("./inputs/input"):
        fsm.add_input(require_attr(element, "name", "input"))

    for element in root.findall("./outputs/output"):
        fsm.add_output(
            require_attr(element, "name", "output"),
            width=int_attr(element, "width", default=1),
            default=int_attr(element, "default", default=0),
        )

    for element in root.findall("./states/state"):
        name = require_attr(element, "name", "state")
        state = fsm.add_state(name, final=bool_attr(element, "final"))
        for assign in element.findall("assign"):
            state.assign(
                require_attr(assign, "output", f"state {name!r} assign"),
                int_attr(assign, "value", context=f"state {name!r} assign"),
            )
        for transition in element.findall("transition"):
            state.transition(
                require_attr(transition, "next", f"state {name!r} transition"),
                parse_condition(transition.get("when", "")),
            )

    reset = root.get("reset")
    if reset:
        fsm.reset_state = reset
    fsm.validate()
    return fsm


def save_fsm(fsm: Fsm, path: Union[str, Path]) -> Path:
    path = Path(path)
    path.write_text(write_fsm(fsm))
    return path


def load_fsm(path: Union[str, Path]) -> Fsm:
    return read_fsm(Path(path))
