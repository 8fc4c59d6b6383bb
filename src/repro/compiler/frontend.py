"""Frontend: restricted-Python AST → HIR.

The input algorithm is a plain Python function over integer scalars and
flat integer arrays (the paper compiles Java methods of the same shape).
Array parameters are described by :class:`~repro.compiler.spec.MemorySpec`
and become SRAM resources; scalar parameters are *specialised* — replaced
by compile-time constants — because hardware is generated per application
instance.

Supported subset:

* ``for var in range(...)`` with a constant step, ``while``, ``if``/
  ``elif``/``else``
* assignments and augmented assignments to scalar locals and to array
  elements (1-D indexing)
* integer expressions with ``+ - * // % << >> & | ^ ~`` and unary minus,
  plus the intrinsics ``abs(x)``, ``min(a, b)``, ``max(a, b)``
* conditions built from comparisons with ``and`` / ``or`` / ``not``
  (evaluated without short-circuit, as parallel hardware)

Everything else raises :class:`UnsupportedConstructError` with the source
line, so compiler users learn exactly which construct to rewrite.
"""

from __future__ import annotations

import ast
import textwrap
from typing import Callable, Dict, List, Mapping, Optional, Union

from ..util.loc import function_source
from .errors import CompileError, UnsupportedConstructError
from .hir import (Cond, EBin, EBoolOp, ECmp, EConst, ELoad, ENot, EUn,
                  EVar, Expr, Function, SAssign, SFor, SIf, SStore, SWhile,
                  Stmt)
from .spec import MemorySpec

__all__ = ["parse_function", "FrontendContext"]

_BINOP_MAP = {
    ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.FloorDiv: "//",
    ast.Mod: "%", ast.LShift: "<<", ast.RShift: ">>",
    ast.BitAnd: "&", ast.BitOr: "|", ast.BitXor: "^",
}

_CMPOP_MAP = {
    ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=",
    ast.Eq: "==", ast.NotEq: "!=",
}


class FrontendContext:
    """Name environment while lowering one function."""

    def __init__(self, arrays: Mapping[str, MemorySpec],
                 params: Mapping[str, int]) -> None:
        self.arrays = dict(arrays)
        self.params = dict(params)
        self.locals: set = set()
        #: loop variables of the enclosing ``for`` statements: hardware
        #: loop counters cannot be reassigned from the loop body (Python
        #: would rebind them from the range iterator; the datapath
        #: register would actually change), so assignment is rejected
        self.active_loop_vars: list = []

    def is_array(self, name: str) -> bool:
        return name in self.arrays

    def is_param(self, name: str) -> bool:
        return name in self.params

    def is_local(self, name: str) -> bool:
        return name in self.locals


def parse_function(func: Union[Callable, str],
                   arrays: Mapping[str, MemorySpec],
                   params: Optional[Mapping[str, int]] = None) -> Function:
    """Lower *func* (a function object or its source) into HIR.

    Every function parameter must appear in *arrays* or *params*; default
    values in the signature provide fallbacks for missing *params*
    entries.
    """
    params = dict(params or {})
    if callable(func):
        source = textwrap.dedent(function_source(func))
    else:
        source = textwrap.dedent(func)
    try:
        module = ast.parse(source)
    except SyntaxError as exc:
        raise CompileError(f"cannot parse source: {exc}") from None
    functions = [node for node in module.body
                 if isinstance(node, ast.FunctionDef)]
    if len(functions) != 1:
        raise CompileError(
            f"expected exactly one function definition, found "
            f"{len(functions)}"
        )
    fn = functions[0]
    _check_signature(fn, arrays, params)
    ctx = FrontendContext(arrays, params)
    body = _lower_body(fn.body, ctx)
    return Function(fn.name, list(arrays), body, source=source)


def _check_signature(fn: ast.FunctionDef, arrays: Mapping[str, MemorySpec],
                     params: Dict[str, int]) -> None:
    if fn.args.vararg or fn.args.kwarg or fn.args.kwonlyargs \
            or fn.args.posonlyargs:
        raise UnsupportedConstructError(
            "only plain positional parameters are supported", fn.lineno
        )
    names = [arg.arg for arg in fn.args.args]
    defaults = fn.args.defaults
    default_map: Dict[str, int] = {}
    for name, default in zip(names[len(names) - len(defaults):], defaults):
        if isinstance(default, ast.Constant) and \
                isinstance(default.value, int):
            default_map[name] = default.value
    for name in names:
        if name in arrays:
            continue
        if name not in params:
            if name in default_map:
                params[name] = default_map[name]
            else:
                raise CompileError(
                    f"parameter {name!r} is neither an array nor given a "
                    f"scalar value", fn.lineno
                )
        if not isinstance(params[name], int) or isinstance(params[name], bool):
            raise CompileError(
                f"scalar parameter {name!r} must be an int, got "
                f"{params[name]!r}", fn.lineno
            )
    for name in arrays:
        if name not in names:
            raise CompileError(
                f"array {name!r} is not a parameter of {fn.name!r}",
                fn.lineno,
            )


# ----------------------------------------------------------------------
# Statements
# ----------------------------------------------------------------------
def _lower_body(stmts: List[ast.stmt], ctx: FrontendContext) -> List[Stmt]:
    lowered: List[Stmt] = []
    for index, stmt in enumerate(stmts):
        node = _lower_stmt(stmt, ctx, is_last=index == len(stmts) - 1)
        if node is not None:
            lowered.append(node)
    return lowered


def _lower_stmt(stmt: ast.stmt, ctx: FrontendContext,
                is_last: bool = False) -> Optional[Stmt]:
    if isinstance(stmt, ast.Assign):
        return _lower_assign(stmt, ctx)
    if isinstance(stmt, ast.AugAssign):
        return _lower_augassign(stmt, ctx)
    if isinstance(stmt, ast.AnnAssign):
        if stmt.value is None:
            raise UnsupportedConstructError(
                "annotated declaration without a value", stmt.lineno
            )
        fake = ast.Assign(targets=[stmt.target], value=stmt.value)
        fake.lineno = stmt.lineno
        return _lower_assign(fake, ctx)
    if isinstance(stmt, ast.For):
        return _lower_for(stmt, ctx)
    if isinstance(stmt, ast.While):
        return _lower_while(stmt, ctx)
    if isinstance(stmt, ast.If):
        return _lower_if(stmt, ctx)
    if isinstance(stmt, ast.Pass):
        return None
    if isinstance(stmt, ast.Expr):
        if isinstance(stmt.value, ast.Constant) and \
                isinstance(stmt.value.value, str):
            return None  # docstring
        raise UnsupportedConstructError(
            "expression statements have no effect in hardware", stmt.lineno
        )
    if isinstance(stmt, ast.Return):
        if stmt.value is not None:
            raise UnsupportedConstructError(
                "return values are not supported; write results to an "
                "output array", stmt.lineno
            )
        if not is_last:
            raise UnsupportedConstructError(
                "early return is not supported", stmt.lineno
            )
        return None
    raise UnsupportedConstructError(
        f"unsupported statement {type(stmt).__name__}", stmt.lineno
    )


def _lower_assign(stmt: ast.Assign, ctx: FrontendContext) -> Stmt:
    if len(stmt.targets) != 1:
        raise UnsupportedConstructError(
            "chained assignment is not supported", stmt.lineno
        )
    target = stmt.targets[0]
    value = _lower_expr(stmt.value, ctx)
    if isinstance(target, ast.Name):
        name = target.id
        if ctx.is_array(name) or ctx.is_param(name):
            raise CompileError(
                f"cannot reassign parameter {name!r}", stmt.lineno
            )
        if name in ctx.active_loop_vars:
            raise CompileError(
                f"cannot assign loop variable {name!r} inside its loop "
                f"(a hardware loop counter cannot be rebound)", stmt.lineno
            )
        ctx.locals.add(name)
        return SAssign(name, value, line=stmt.lineno)
    if isinstance(target, ast.Subscript):
        array, index = _lower_subscript(target, ctx)
        return SStore(array, index, value, line=stmt.lineno)
    raise UnsupportedConstructError(
        f"unsupported assignment target {type(target).__name__}",
        stmt.lineno,
    )


def _lower_augassign(stmt: ast.AugAssign, ctx: FrontendContext) -> Stmt:
    op = _BINOP_MAP.get(type(stmt.op))
    if op is None:
        raise UnsupportedConstructError(
            f"unsupported augmented operator {type(stmt.op).__name__}",
            stmt.lineno,
        )
    value = _lower_expr(stmt.value, ctx)
    if isinstance(stmt.target, ast.Name):
        name = stmt.target.id
        if not ctx.is_local(name):
            raise CompileError(
                f"augmented assignment to undefined variable {name!r}",
                stmt.lineno,
            )
        if name in ctx.active_loop_vars:
            raise CompileError(
                f"cannot assign loop variable {name!r} inside its loop "
                f"(a hardware loop counter cannot be rebound)", stmt.lineno
            )
        return SAssign(name, EBin(op, EVar(name), value, line=stmt.lineno),
                       line=stmt.lineno)
    if isinstance(stmt.target, ast.Subscript):
        array, index = _lower_subscript(stmt.target, ctx)
        load = ELoad(array, index, line=stmt.lineno)
        return SStore(array, index, EBin(op, load, value, line=stmt.lineno),
                      line=stmt.lineno)
    raise UnsupportedConstructError(
        "unsupported augmented assignment target", stmt.lineno
    )


def _lower_for(stmt: ast.For, ctx: FrontendContext) -> Stmt:
    if stmt.orelse:
        raise UnsupportedConstructError(
            "for/else is not supported", stmt.lineno
        )
    if not isinstance(stmt.target, ast.Name):
        raise UnsupportedConstructError(
            "loop target must be a plain variable", stmt.lineno
        )
    call = stmt.iter
    if not (isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
            and call.func.id == "range" and not call.keywords):
        raise UnsupportedConstructError(
            "for loops must iterate over range(...)", stmt.lineno
        )
    args = [_lower_expr(arg, ctx) for arg in call.args]
    if len(args) == 1:
        start: Expr = EConst(0)
        stop = args[0]
        step = 1
    elif len(args) == 2:
        start, stop = args
        step = 1
    elif len(args) == 3:
        start, stop = args[0], args[1]
        step_expr = args[2]
        if not isinstance(step_expr, EConst) or step_expr.value == 0:
            raise UnsupportedConstructError(
                "range step must be a non-zero constant", stmt.lineno
            )
        step = step_expr.value
    else:
        raise UnsupportedConstructError(
            "range() takes 1 to 3 arguments", stmt.lineno
        )
    var = stmt.target.id
    if var in ctx.active_loop_vars:
        raise CompileError(
            f"loop variable {var!r} shadows an enclosing loop's variable",
            stmt.lineno,
        )
    ctx.locals.add(var)
    ctx.active_loop_vars.append(var)
    try:
        body = _lower_body(stmt.body, ctx)
    finally:
        ctx.active_loop_vars.pop()
    return SFor(var, start, stop, step, body, line=stmt.lineno)


def _lower_while(stmt: ast.While, ctx: FrontendContext) -> Stmt:
    if stmt.orelse:
        raise UnsupportedConstructError(
            "while/else is not supported", stmt.lineno
        )
    condition = _lower_cond(stmt.test, ctx)
    body = _lower_body(stmt.body, ctx)
    return SWhile(condition, body, line=stmt.lineno)


def _lower_if(stmt: ast.If, ctx: FrontendContext) -> Stmt:
    condition = _lower_cond(stmt.test, ctx)
    then_body = _lower_body(stmt.body, ctx)
    else_body = _lower_body(stmt.orelse, ctx)
    return SIf(condition, then_body, else_body, line=stmt.lineno)


# ----------------------------------------------------------------------
# Expressions
# ----------------------------------------------------------------------
def _lower_subscript(node: ast.Subscript, ctx: FrontendContext):
    if not isinstance(node.value, ast.Name):
        raise UnsupportedConstructError(
            "only direct array indexing is supported", node.lineno
        )
    name = node.value.id
    if not ctx.is_array(name):
        raise CompileError(f"{name!r} is not an array parameter", node.lineno)
    index_node = node.slice
    if isinstance(index_node, ast.Slice):
        raise UnsupportedConstructError(
            "array slicing is not supported", node.lineno
        )
    return name, _lower_expr(index_node, ctx)


def _lower_expr(node: ast.expr, ctx: FrontendContext) -> Expr:
    if isinstance(node, ast.Constant):
        if isinstance(node.value, bool) or not isinstance(node.value, int):
            raise UnsupportedConstructError(
                f"only integer constants are supported, got "
                f"{node.value!r}", node.lineno
            )
        return EConst(node.value, line=node.lineno)
    if isinstance(node, ast.Name):
        name = node.id
        if ctx.is_param(name):
            return EConst(ctx.params[name], line=node.lineno)
        if ctx.is_array(name):
            raise CompileError(
                f"array {name!r} used as a scalar value", node.lineno
            )
        if not ctx.is_local(name):
            raise CompileError(
                f"variable {name!r} used before assignment", node.lineno
            )
        return EVar(name, line=node.lineno)
    if isinstance(node, ast.Subscript):
        array, index = _lower_subscript(node, ctx)
        return ELoad(array, index, line=node.lineno)
    if isinstance(node, ast.BinOp):
        op = _BINOP_MAP.get(type(node.op))
        if op is None:
            raise UnsupportedConstructError(
                f"unsupported operator {type(node.op).__name__}",
                node.lineno,
            )
        return EBin(op, _lower_expr(node.left, ctx),
                    _lower_expr(node.right, ctx), line=node.lineno)
    if isinstance(node, ast.UnaryOp):
        if isinstance(node.op, ast.USub):
            operand = _lower_expr(node.operand, ctx)
            if isinstance(operand, EConst):
                return EConst(-operand.value, line=node.lineno)
            return EUn("-", operand, line=node.lineno)
        if isinstance(node.op, ast.Invert):
            return EUn("~", _lower_expr(node.operand, ctx), line=node.lineno)
        if isinstance(node.op, ast.UAdd):
            return _lower_expr(node.operand, ctx)
        raise UnsupportedConstructError(
            f"unsupported unary operator {type(node.op).__name__} in a "
            f"value expression", node.lineno
        )
    if isinstance(node, ast.Call):
        return _lower_call(node, ctx)
    if isinstance(node, (ast.Compare, ast.BoolOp)):
        raise UnsupportedConstructError(
            "comparison results cannot be used as integer values; use "
            "if/else instead", node.lineno
        )
    raise UnsupportedConstructError(
        f"unsupported expression {type(node).__name__}", node.lineno
    )


def _lower_call(node: ast.Call, ctx: FrontendContext) -> Expr:
    if not isinstance(node.func, ast.Name) or node.keywords:
        raise UnsupportedConstructError(
            "only abs/min/max intrinsic calls are supported", node.lineno
        )
    name = node.func.id
    if name not in ("abs", "min", "max"):
        raise UnsupportedConstructError(
            f"unsupported call {name}(); only abs/min/max intrinsics are "
            f"available", node.lineno
        )
    args = [_lower_expr(arg, ctx) for arg in node.args]
    if name == "abs" and len(args) == 1:
        return EUn("abs", args[0], line=node.lineno)
    if name in ("min", "max") and len(args) == 2:
        return EBin(name, args[0], args[1], line=node.lineno)
    if name in ("min", "max") and len(args) > 2:
        result = args[0]
        for arg in args[1:]:
            result = EBin(name, result, arg, line=node.lineno)
        return result
    raise UnsupportedConstructError(
        f"unsupported call {name}() with {len(args)} argument(s)",
        node.lineno,
    )


def _lower_cond(node: ast.expr, ctx: FrontendContext) -> Cond:
    if isinstance(node, ast.Compare):
        if len(node.ops) == 1:
            op = _CMPOP_MAP.get(type(node.ops[0]))
            if op is None:
                raise UnsupportedConstructError(
                    f"unsupported comparison "
                    f"{type(node.ops[0]).__name__}", node.lineno
                )
            return ECmp(op, _lower_expr(node.left, ctx),
                        _lower_expr(node.comparators[0], ctx),
                        line=node.lineno)
        # chained comparison a < b < c  ->  (a < b) and (b < c)
        parts: List[Cond] = []
        left = node.left
        for cmp_op, right in zip(node.ops, node.comparators):
            op = _CMPOP_MAP.get(type(cmp_op))
            if op is None:
                raise UnsupportedConstructError(
                    f"unsupported comparison {type(cmp_op).__name__}",
                    node.lineno,
                )
            parts.append(ECmp(op, _lower_expr(left, ctx),
                              _lower_expr(right, ctx), line=node.lineno))
            left = right
        return EBoolOp("and", parts, line=node.lineno)
    if isinstance(node, ast.BoolOp):
        op = "and" if isinstance(node.op, ast.And) else "or"
        return EBoolOp(op, [_lower_cond(v, ctx) for v in node.values],
                       line=node.lineno)
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
        return ENot(_lower_cond(node.operand, ctx), line=node.lineno)
    if isinstance(node, ast.Constant) and isinstance(node.value, bool):
        return ECmp("==", EConst(1 if node.value else 0), EConst(1),
                    line=node.lineno)
    # bare value used as a condition: implicit "!= 0"
    return ECmp("!=", _lower_expr(node, ctx), EConst(0),
                line=getattr(node, "lineno", None))
