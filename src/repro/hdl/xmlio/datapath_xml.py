"""Reader and writer for the ``datapath.xml`` dialect.

Document shape::

    <datapath name="fdct1" width="32">
      <memories>
        <memory name="img_in" width="16" depth="4096" init="img_in.mem"
                role="input"/>
      </memories>
      <components>
        <component name="add_1" type="add" width="32"/>
        <component name="c5" type="const" width="32" value="5"/>
      </components>
      <nets>
        <net name="n1" width="32" from="add_1.y" to="r_x.d mux_1.in0"/>
      </nets>
      <control>
        <line name="en_r_x" width="1" to="r_x.en"/>
      </control>
      <status>
        <line name="st_lt" from="cmp_1.y"/>
      </status>
    </datapath>

Component parameters beyond ``name``/``type``/``width`` are free-form
attributes interpreted by the operator catalog (``value`` for constants,
``memory`` for SRAM ports, ``high``/``low`` for slices...).
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from pathlib import Path
from typing import Union

from ..model.datapath import Datapath
from .common import (XmlFormatError, int_attr, parse_root, require_attr,
                     to_pretty_xml)

__all__ = ["datapath_tree", "write_datapath", "read_datapath",
           "save_datapath", "load_datapath"]

_RESERVED_COMPONENT_ATTRS = ("name", "type", "width")


def datapath_tree(datapath: Datapath) -> ET.Element:
    """The XML dialect's element tree for *datapath*."""
    root = ET.Element("datapath", name=datapath.name,
                      width=str(datapath.width))

    if datapath.memories:
        memories = ET.SubElement(root, "memories")
        for decl in datapath.memories.values():
            attrs = {"name": decl.name, "width": str(decl.width),
                     "depth": str(decl.depth), "role": decl.role}
            if decl.init:
                attrs["init"] = decl.init
            ET.SubElement(memories, "memory", attrs)

    components = ET.SubElement(root, "components")
    for decl in datapath.components.values():
        attrs = {"name": decl.name, "type": decl.type,
                 "width": str(decl.width)}
        for key, value in sorted(decl.params.items()):
            if key in _RESERVED_COMPONENT_ATTRS:
                raise XmlFormatError(
                    f"component {decl.name!r}: parameter {key!r} collides "
                    f"with a reserved attribute"
                )
            attrs[key] = value
        ET.SubElement(components, "component", attrs)

    nets = ET.SubElement(root, "nets")
    for net in datapath.nets.values():
        ET.SubElement(nets, "net", name=net.name, width=str(net.width),
                      **{"from": str(net.source),
                         "to": " ".join(str(s) for s in net.sinks)})

    if datapath.controls:
        control = ET.SubElement(root, "control")
        for line in datapath.controls.values():
            ET.SubElement(control, "line", name=line.name,
                          width=str(line.width),
                          to=" ".join(str(t) for t in line.targets))

    if datapath.statuses:
        status = ET.SubElement(root, "status")
        for line in datapath.statuses.values():
            ET.SubElement(status, "line", name=line.name,
                          **{"from": str(line.source)})

    return root


def write_datapath(datapath: Datapath) -> str:
    """Serialise to the XML dialect (pretty-printed)."""
    return to_pretty_xml(datapath_tree(datapath))


def read_datapath(source: Union[str, Path]) -> Datapath:
    """Parse the XML dialect back into a validated :class:`Datapath`."""
    root = parse_root(source, "datapath")
    datapath = Datapath(require_attr(root, "name"), int_attr(root, "width"))

    for element in root.findall("./memories/memory"):
        datapath.add_memory(
            require_attr(element, "name", "memory"),
            int_attr(element, "width", context="memory"),
            int_attr(element, "depth", context="memory"),
            init=element.get("init"),
            role=element.get("role", "data"),
        )

    for element in root.findall("./components/component"):
        name = require_attr(element, "name", "component")
        params = {key: value for key, value in element.attrib.items()
                  if key not in _RESERVED_COMPONENT_ATTRS}
        datapath.add_component(
            name, require_attr(element, "type", f"component {name!r}"),
            width=int_attr(element, "width", default=datapath.width),
            **params,
        )

    for element in root.findall("./nets/net"):
        name = require_attr(element, "name", "net")
        sinks = require_attr(element, "to", f"net {name!r}").split()
        if not sinks:
            raise XmlFormatError(f"net {name!r}: empty 'to' attribute")
        datapath.add_net(
            name, require_attr(element, "from", f"net {name!r}"), sinks,
            width=int_attr(element, "width", default=datapath.width),
        )

    for element in root.findall("./control/line"):
        name = require_attr(element, "name", "control line")
        targets = require_attr(element, "to", f"control {name!r}").split()
        datapath.add_control(name, targets,
                             width=int_attr(element, "width", default=1))

    for element in root.findall("./status/line"):
        name = require_attr(element, "name", "status line")
        datapath.add_status(name,
                            require_attr(element, "from", f"status {name!r}"))

    datapath.validate()
    return datapath


def save_datapath(datapath: Datapath, path: Union[str, Path]) -> Path:
    path = Path(path)
    path.write_text(write_datapath(datapath))
    return path


def load_datapath(path: Union[str, Path]) -> Datapath:
    return read_datapath(Path(path))
