"""A tiny mutable IR for fuzzer-generated programs.

The generator does not emit source text directly: it builds programs out
of the small node algebra below, and the renderer turns a tree into the
restricted-Python source the compiler frontend accepts.  Keeping the
tree around (rather than only text) is what makes the delta-debugging
minimizer tractable — reductions are tree edits (drop a statement,
unwrap a loop, replace an expression by a constant) that can never
produce syntactically broken candidates.

The node set mirrors the frontend subset one-to-one (see
``repro.compiler.frontend``): integer expressions, conditions, scalar
assignment, array load/store, ``for``/``while``/``if``.  ``While`` is a
*counted* loop — it renders as an init/test/increment idiom — so every
generated program provably terminates.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Union

from ..compiler.spec import MemorySpec

__all__ = [
    "Const", "Var", "Load", "Bin", "Un", "Expr",
    "Cmp", "BoolC", "NotC", "Cond",
    "Assign", "Store", "AugStore", "If", "For", "While", "Stmt",
    "FuzzProgram", "render_body", "subst_var", "iter_stmts",
    "referenced_arrays", "referenced_names",
]


# ----------------------------------------------------------------------
# Expressions
# ----------------------------------------------------------------------
@dataclass
class Const:
    value: int


@dataclass
class Var:
    name: str


@dataclass
class Load:
    array: str
    index: "Expr"


@dataclass
class Bin:
    """Binary operator; ``op`` is one of the frontend's integer operators
    (``+ - * // % << >> & | ^``) or the ``min``/``max`` intrinsics."""

    op: str
    a: "Expr"
    b: "Expr"


@dataclass
class Un:
    """Unary operator: ``-``, ``~`` or the ``abs`` intrinsic."""

    op: str
    a: "Expr"


Expr = Union[Const, Var, Load, Bin, Un]


# ----------------------------------------------------------------------
# Conditions
# ----------------------------------------------------------------------
@dataclass
class Cmp:
    op: str  # < <= > >= == !=
    a: Expr
    b: Expr


@dataclass
class BoolC:
    op: str  # and / or
    parts: List["Cond"]


@dataclass
class NotC:
    part: "Cond"


Cond = Union[Cmp, BoolC, NotC]


# ----------------------------------------------------------------------
# Statements
# ----------------------------------------------------------------------
@dataclass
class Assign:
    name: str
    value: Expr


@dataclass
class Store:
    array: str
    index: Expr
    value: Expr


@dataclass
class AugStore:
    """``array[index] op= value`` — exercises the frontend's augmented
    subscript path (load + op + store through one memory port pair)."""

    array: str
    index: Expr
    op: str
    value: Expr


@dataclass
class If:
    cond: Cond
    then: List["Stmt"] = field(default_factory=list)
    orelse: List["Stmt"] = field(default_factory=list)


@dataclass
class For:
    """``for var in range(start, stop, step)`` with constant bounds.

    ``stop_param`` optionally names a scalar parameter whose value equals
    ``stop``; when set the rendered range uses the parameter name, which
    the frontend specialises back into the same constant.
    """

    var: str
    start: int
    stop: int
    step: int
    body: List["Stmt"] = field(default_factory=list)
    stop_param: Optional[str] = None


@dataclass
class While:
    """Counted while loop; renders as::

        var = 0
        while var < limit:
            <body>
            var = var + 1
    """

    var: str
    limit: int
    body: List["Stmt"] = field(default_factory=list)


Stmt = Union[Assign, Store, AugStore, If, For, While]


# ----------------------------------------------------------------------
# Rendering
# ----------------------------------------------------------------------
_CALL_OPS = ("min", "max")


def _render_expr(e: Expr) -> str:
    if isinstance(e, Const):
        return str(e.value) if e.value >= 0 else f"({e.value})"
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Load):
        return f"{e.array}[{_render_expr(e.index)}]"
    if isinstance(e, Bin):
        if e.op in _CALL_OPS:
            return f"{e.op}({_render_expr(e.a)}, {_render_expr(e.b)})"
        return f"({_render_expr(e.a)} {e.op} {_render_expr(e.b)})"
    if isinstance(e, Un):
        if e.op == "abs":
            return f"abs({_render_expr(e.a)})"
        return f"({e.op}{_render_expr(e.a)})"
    raise TypeError(f"not an expression node: {e!r}")


def _render_cond(c: Cond) -> str:
    if isinstance(c, Cmp):
        return f"({_render_expr(c.a)} {c.op} {_render_expr(c.b)})"
    if isinstance(c, BoolC):
        return "(" + f" {c.op} ".join(_render_cond(p) for p in c.parts) + ")"
    if isinstance(c, NotC):
        return f"(not {_render_cond(c.part)})"
    raise TypeError(f"not a condition node: {c!r}")


def _render_stmt(s: Stmt, indent: str, out: List[str]) -> None:
    if isinstance(s, Assign):
        out.append(f"{indent}{s.name} = {_render_expr(s.value)}")
    elif isinstance(s, Store):
        out.append(f"{indent}{s.array}[{_render_expr(s.index)}] = "
                   f"{_render_expr(s.value)}")
    elif isinstance(s, AugStore):
        out.append(f"{indent}{s.array}[{_render_expr(s.index)}] {s.op}= "
                   f"{_render_expr(s.value)}")
    elif isinstance(s, If):
        out.append(f"{indent}if {_render_cond(s.cond)}:")
        _render_block(s.then, indent + "    ", out)
        if s.orelse:
            out.append(f"{indent}else:")
            _render_block(s.orelse, indent + "    ", out)
    elif isinstance(s, For):
        stop = s.stop_param if s.stop_param is not None else str(s.stop)
        if s.step == 1:
            rng = f"range({s.start}, {stop})"
        else:
            rng = f"range({s.start}, {stop}, {s.step})"
        out.append(f"{indent}for {s.var} in {rng}:")
        _render_block(s.body, indent + "    ", out)
    elif isinstance(s, While):
        out.append(f"{indent}{s.var} = 0")
        out.append(f"{indent}while {s.var} < {s.limit}:")
        inner = indent + "    "
        _render_block(s.body, inner, out, allow_empty=True)
        out.append(f"{inner}{s.var} = {s.var} + 1")
    else:
        raise TypeError(f"not a statement node: {s!r}")


def _render_block(stmts: List[Stmt], indent: str, out: List[str],
                  allow_empty: bool = False) -> None:
    if not stmts and not allow_empty:
        out.append(f"{indent}pass")
        return
    for s in stmts:
        _render_stmt(s, indent, out)


def render_body(body: List[Stmt], indent: str = "    ") -> str:
    out: List[str] = []
    _render_block(body, indent, out)
    return "\n".join(out)


# ----------------------------------------------------------------------
# Traversal / substitution helpers (used by the minimizer)
# ----------------------------------------------------------------------
def subst_var(node, name: str, replacement: Expr):
    """Return *node* with every ``Var(name)`` replaced (recursively)."""
    if isinstance(node, Var):
        return copy.deepcopy(replacement) if node.name == name else node
    if isinstance(node, Const):
        return node
    if isinstance(node, Load):
        return Load(node.array, subst_var(node.index, name, replacement))
    if isinstance(node, Bin):
        return Bin(node.op, subst_var(node.a, name, replacement),
                   subst_var(node.b, name, replacement))
    if isinstance(node, Un):
        return Un(node.op, subst_var(node.a, name, replacement))
    if isinstance(node, Cmp):
        return Cmp(node.op, subst_var(node.a, name, replacement),
                   subst_var(node.b, name, replacement))
    if isinstance(node, BoolC):
        return BoolC(node.op,
                     [subst_var(p, name, replacement) for p in node.parts])
    if isinstance(node, NotC):
        return NotC(subst_var(node.part, name, replacement))
    if isinstance(node, Assign):
        return Assign(node.name, subst_var(node.value, name, replacement))
    if isinstance(node, Store):
        return Store(node.array, subst_var(node.index, name, replacement),
                     subst_var(node.value, name, replacement))
    if isinstance(node, AugStore):
        return AugStore(node.array,
                        subst_var(node.index, name, replacement), node.op,
                        subst_var(node.value, name, replacement))
    if isinstance(node, If):
        return If(subst_var(node.cond, name, replacement),
                  [subst_var(s, name, replacement) for s in node.then],
                  [subst_var(s, name, replacement) for s in node.orelse])
    if isinstance(node, For):
        return For(node.var, node.start, node.stop, node.step,
                   [subst_var(s, name, replacement) for s in node.body],
                   node.stop_param)
    if isinstance(node, While):
        return While(node.var, node.limit,
                     [subst_var(s, name, replacement) for s in node.body])
    raise TypeError(f"cannot substitute in {node!r}")


def iter_stmts(body: List[Stmt]) -> Iterator[Stmt]:
    """Yield every statement in *body*, depth first."""
    for s in body:
        yield s
        if isinstance(s, If):
            yield from iter_stmts(s.then)
            yield from iter_stmts(s.orelse)
        elif isinstance(s, (For, While)):
            yield from iter_stmts(s.body)


def _iter_exprs(node) -> Iterator[Expr]:
    if isinstance(node, (Const, Var)):
        yield node
    elif isinstance(node, Load):
        yield node
        yield from _iter_exprs(node.index)
    elif isinstance(node, Bin):
        yield node
        yield from _iter_exprs(node.a)
        yield from _iter_exprs(node.b)
    elif isinstance(node, Un):
        yield node
        yield from _iter_exprs(node.a)
    elif isinstance(node, Cmp):
        yield from _iter_exprs(node.a)
        yield from _iter_exprs(node.b)
    elif isinstance(node, BoolC):
        for p in node.parts:
            yield from _iter_exprs(p)
    elif isinstance(node, NotC):
        yield from _iter_exprs(node.part)


def _stmt_exprs(s: Stmt) -> Iterator[Expr]:
    if isinstance(s, Assign):
        yield from _iter_exprs(s.value)
    elif isinstance(s, (Store, AugStore)):
        yield from _iter_exprs(s.index)
        yield from _iter_exprs(s.value)
    elif isinstance(s, If):
        yield from _iter_exprs(s.cond)


def referenced_arrays(body: List[Stmt]) -> set:
    """Names of arrays loaded from or stored to anywhere in *body*."""
    names = set()
    for s in iter_stmts(body):
        if isinstance(s, (Store, AugStore)):
            names.add(s.array)
        for e in _stmt_exprs(s):
            if isinstance(e, Load):
                names.add(e.array)
    return names


def referenced_names(body: List[Stmt]) -> set:
    """All scalar names read anywhere in *body* (params included)."""
    names = set()
    for s in iter_stmts(body):
        for e in _stmt_exprs(s):
            if isinstance(e, Var):
                names.add(e.name)
        if isinstance(s, For) and s.stop_param is not None:
            names.add(s.stop_param)
    return names


# ----------------------------------------------------------------------
# The program container
# ----------------------------------------------------------------------
@dataclass
class FuzzProgram:
    """One generated (or corpus-loaded) test program.

    Carries everything the differential harness needs: the function
    source (rendered from ``body``, or verbatim for corpus entries that
    only store text), the memory specs, the specialised scalar
    parameters and the compile options that apply.
    """

    name: str
    arrays: Dict[str, MemorySpec]
    params: Dict[str, int] = field(default_factory=dict)
    body: Optional[List[Stmt]] = None
    seed: Optional[int] = None
    n_partitions: int = 1
    word_width: int = 32
    #: verbatim source for corpus entries loaded without a tree
    raw_source: Optional[str] = None

    @property
    def source(self) -> str:
        if self.body is None:
            if self.raw_source is None:
                raise ValueError("program has neither a body nor raw source")
            return self.raw_source
        args = list(self.arrays) + list(self.params)
        header = f"def {self.name}({', '.join(args)}):"
        return header + "\n" + render_body(self.body) + "\n"

    def func(self):
        """Exec the source and return the plain-Python callable (the
        golden reference the compiled design is checked against)."""
        namespace: Dict[str, object] = {}
        code = compile(self.source, f"<fuzz:{self.name}>", "exec")
        exec(code, namespace)  # noqa: S102 - the fuzzer's own program
        return namespace[self.name]

    def clone(self) -> "FuzzProgram":
        return copy.deepcopy(self)
