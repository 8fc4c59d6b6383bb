"""Tests for line counting (Table I's lo* columns) and the source reader."""

import functools
import gc
import inspect
import sys
import weakref

import pytest

from repro.util import loc
from repro.util.loc import (count_code_lines, count_lines, count_source_lines,
                            function_source)


def test_count_lines_skips_blanks():
    assert count_lines("a\n\n  \nb\n") == 2


def test_count_lines_empty():
    assert count_lines("") == 0


def test_count_code_lines_skips_comments():
    text = "# comment\nx = 1\n  # indented comment\n<!-- xml -->\ny = 2\n"
    assert count_code_lines(text) == 2


def test_count_code_lines_keeps_trailing_comment_lines():
    assert count_code_lines("x = 1  # ok\n") == 1


def test_count_source_lines():
    def sample():
        a = 1

        return a

    # def line + two statements (blank line skipped)
    assert count_source_lines(sample) == 3


def test_function_source_memo_holds_functions_weakly(monkeypatch):
    monkeypatch.setattr(loc, "_SOURCES", weakref.WeakKeyDictionary())

    def scratch():
        return 1

    assert function_source(scratch) == inspect.getsource(scratch)
    assert len(loc._SOURCES) == 1
    alive = weakref.ref(scratch)
    del scratch
    gc.collect()
    assert alive() is None
    assert len(loc._SOURCES) == 0


def _sourceless():
    namespace = {}
    exec(compile("def f():\n    return 1\n", "<generated>", "exec"),
         namespace)
    return namespace["f"]


@pytest.mark.parametrize("obj", [len, 7, functools.partial(print),
                                 _sourceless()],
                         ids=["builtin", "int", "partial", "sourceless"])
def test_function_source_raises_what_getsource_raises(obj):
    with pytest.raises((OSError, TypeError)) as expected:
        inspect.getsource(obj)
    with pytest.raises(expected.type) as got:
        function_source(obj)
    assert str(got.value) == str(expected.value)


def test_function_source_reads_unreferenceable_objects():
    frame = sys._getframe()
    assert function_source(frame) == inspect.getsource(frame)
