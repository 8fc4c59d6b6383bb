"""Shared helpers for the XML dialects."""

from __future__ import annotations

import xml.etree.ElementTree as ET
from pathlib import Path
from typing import Optional, Union

__all__ = ["XmlFormatError", "require_attr", "int_attr", "bool_attr",
           "to_pretty_xml", "count_pretty_lines", "parse_root"]


class XmlFormatError(ValueError):
    """An XML document does not conform to its dialect."""


def require_attr(element: ET.Element, name: str, context: str = "") -> str:
    value = element.get(name)
    if value is None:
        where = context or f"<{element.tag}>"
        raise XmlFormatError(f"{where}: missing required attribute {name!r}")
    return value


def int_attr(element: ET.Element, name: str,
             default: Optional[int] = None, context: str = "") -> int:
    raw = element.get(name)
    if raw is None:
        if default is None:
            where = context or f"<{element.tag}>"
            raise XmlFormatError(
                f"{where}: missing required attribute {name!r}"
            )
        return default
    try:
        return int(raw, 0)
    except ValueError:
        where = context or f"<{element.tag}>"
        raise XmlFormatError(
            f"{where}: attribute {name!r} is not an integer: {raw!r}"
        ) from None


def bool_attr(element: ET.Element, name: str, default: bool = False) -> bool:
    raw = element.get(name)
    if raw is None:
        return default
    return raw.lower() in ("1", "true", "yes")


def to_pretty_xml(root: ET.Element) -> str:
    """Serialise with indentation (line counts in Table I are meaningful)."""
    ET.indent(root, space="  ")
    return ET.tostring(root, encoding="unicode") + "\n"


def count_pretty_lines(root: ET.Element) -> int:
    """The non-blank lines :func:`to_pretty_xml` prints for *root*,
    without printing it: one per element, plus a closing-tag line for
    each element with children.  The dialects put attributes and no
    text in their elements, and attribute values print with their line
    breaks escaped."""
    return sum(2 if len(element) else 1 for element in root.iter())


def parse_root(source: Union[str, Path], expected_tag: str) -> ET.Element:
    """Parse *source* (a path or an XML string) and check the root tag."""
    if isinstance(source, Path):
        text = source.read_text()
    elif "\n" in source or source.lstrip().startswith("<"):
        text = source
    else:
        text = Path(source).read_text()
    try:
        root = ET.fromstring(text)
    except ET.ParseError as exc:
        raise XmlFormatError(f"not well-formed XML: {exc}") from None
    if root.tag != expected_tag:
        raise XmlFormatError(
            f"expected root element <{expected_tag}>, got <{root.tag}>"
        )
    return root
