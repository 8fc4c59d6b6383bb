"""Line counting, as used in Table I of the paper, and the source reader.

The paper reports "number of lines" for the input source (loJava), the XML
descriptions (loXML) and the generated FSM code (loJava FSM).  We follow the
simplest reading: every non-blank line counts.  A stricter variant that also
drops comment-only lines is provided for completeness.

:func:`function_source` is the one place the program reads an algorithm's
source text: the cache keys, the compiler frontend and loJava all take it
from there.
"""

from __future__ import annotations

import inspect
import weakref
from typing import Callable

__all__ = ["count_lines", "count_code_lines", "count_source_lines",
           "function_source"]

#: source text per function object, as first read by this process
_SOURCES: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def function_source(func) -> str:
    """``inspect.getsource(func)``, read once per function object.

    Returns exactly what :func:`inspect.getsource` returns and raises what
    it raises.  Later calls return the text of the first read even if the
    file has since been edited on disk, so a process keys, compiles and
    counts the same code it loaded and runs as the golden model; a new
    process picks up the edit.  The memo holds functions weakly: one that
    goes out of scope leaves it.
    """
    try:
        return _SOURCES[func]
    except (KeyError, TypeError):
        # TypeError: not weakly referenceable (a frame, a traceback, or
        # no source at all); such objects are read on every call
        pass
    source = inspect.getsource(func)
    try:
        _SOURCES[func] = source
    except TypeError:
        pass
    return source


def count_lines(text: str) -> int:
    """Number of non-blank lines in *text*."""
    return sum(1 for line in text.splitlines() if line.strip())


def count_code_lines(text: str, comment_prefixes: tuple = ("#", "<!--")) -> int:
    """Non-blank lines that are not comment-only lines."""
    count = 0
    for line in text.splitlines():
        stripped = line.strip()
        if stripped and not any(stripped.startswith(p) for p in comment_prefixes):
            count += 1
    return count


def count_source_lines(func: Callable) -> int:
    """Non-blank source lines of a Python function (the paper's loJava)."""
    return count_lines(function_source(func))
