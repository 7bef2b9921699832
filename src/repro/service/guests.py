"""Front-end guest registry: many surfaces, one IR.

Modeled on the hub/guest architecture of agnostic decomposition hubs
(one hub, pluggable front ends): the compile service is the hub and
each *guest* is a lowering from some source surface into the shared
:class:`~repro.lang.ast.Program` IR.  Because every guest lands in the
same IR and the cache key is computed from the *canonicalized* IR, a
Jacobi written in the Fortran-style DSL, as a decorated Python loop
nest and as a JSON document all hit the same cache entry.

Built-in guests
---------------
``dsl``
    The Fortran-style Do-loop DSL (:func:`repro.lang.parse_program`).
    Accepts source text or an already-built :class:`Program`.
``python-ast``
    Decorated Python functions whose bodies are 1-based ``for ... in
    range(...)`` nests over subscripted arrays — see :func:`loop_nest`.
    Accepts the decorated function object.
``json-ir``
    A JSON document (dict or text) in the ``repro-json-ir/1`` schema —
    the tool-integration surface.  :func:`program_to_json` is its exact
    inverse, so foreign tools can round-trip programs loss-free.

Register additional guests with :func:`register_guest`; docs/API.md has
the authoring guide.
"""

from __future__ import annotations

import ast as python_ast
import inspect
import json
import textwrap
from typing import Callable

from repro.errors import ParseError, ReproError
from repro.lang.affine import Affine
from repro.lang.ast import (
    ArrayDecl,
    ArrayRef,
    Assign,
    BinOp,
    Call,
    DoLoop,
    Expr,
    Num,
    Program,
    ScalarRef,
    Stmt,
    UnaryOp,
)
from repro.lang.parser import INTRINSICS, expr_to_affine, parse_program

#: JSON-IR document version (independent of the cache's IR_SCHEMA).
JSON_SCHEMA = "repro-json-ir/1"

_GUESTS: dict[str, Callable[[object], Program]] = {}


def register_guest(name: str):
    """Decorator registering a lowering ``fn(source) -> Program``.

    If the guest accepts ``str`` sources, its result must depend on the
    text alone: the compile service remembers the canonical form of a
    text it has lowered (:mod:`repro.service.compiler`, source-text
    memo) and will not call the guest again for the same bytes.
    """

    def decorate(fn: Callable[[object], Program]):
        if name in _GUESTS:
            raise ReproError(f"guest {name!r} is already registered")
        _GUESTS[name] = fn
        return fn

    return decorate


def available_guests() -> tuple[str, ...]:
    return tuple(sorted(_GUESTS))


def get_guest(name: str) -> Callable[[object], Program]:
    try:
        return _GUESTS[name]
    except KeyError:
        raise ReproError(
            f"unknown guest {name!r}; registered: {', '.join(available_guests())}"
        ) from None


def lower(source: object, guest: str = "dsl") -> Program:
    """Lower *source* through the named guest into the shared IR."""
    program = get_guest(guest)(source)
    if not isinstance(program, Program):
        raise ReproError(
            f"guest {guest!r} returned {type(program).__name__}, expected Program"
        )
    return program


# ---------------------------------------------------------------------------
# dsl guest
# ---------------------------------------------------------------------------


@register_guest("dsl")
def _dsl_guest(source: object) -> Program:
    if isinstance(source, Program):
        return source
    if isinstance(source, str):
        return parse_program(source)
    raise ReproError(
        f"dsl guest takes DSL text or a Program, got {type(source).__name__}"
    )


# ---------------------------------------------------------------------------
# python-ast guest
# ---------------------------------------------------------------------------


def loop_nest(
    *,
    params: str = "",
    arrays: str = "",
    scalars: str = "",
    name: str | None = None,
):
    """Mark a Python function as a loop nest for the ``python-ast`` guest.

    The declaration strings use the DSL's own syntax::

        @loop_nest(params="m, maxiter", arrays="A(m, m), V(m), B(m), X(m)")
        def jacobi(m, maxiter, A, V, B, X):
            for k in range(1, maxiter + 1):
                for i in range(1, m + 1):
                    V[i] = 0.0
                    for j in range(1, m + 1):
                        V[i] = V[i] + A[i, j] * X[j]
                for i in range(1, m + 1):
                    X[i] = X[i] + (B[i] - V[i]) / A[i, i]

    The body must be 1-based ``for ... in range(lb, ub + 1[, step])``
    nests of subscripted assignments with affine subscripts — exactly
    the DSL's program class, spelled in Python.  The decorated function
    is returned unchanged with the lowered :class:`Program` attached as
    ``__repro_program__`` (lowered lazily on first access).
    """

    def decorate(fn):
        fn.__repro_loop_nest__ = {
            "params": params,
            "arrays": arrays,
            "scalars": scalars,
            "name": name or fn.__name__,
        }
        return fn

    return decorate


def _parse_decls(meta: dict) -> tuple[tuple, dict, tuple]:
    """Harvest (params, arrays, scalars) by parsing a decl-only program."""
    lines = [f"PROGRAM {meta['name']}"]
    if meta["params"]:
        lines.append(f"PARAM {meta['params']}")
    if meta["scalars"]:
        lines.append(f"SCALAR {meta['scalars']}")
    if meta["arrays"]:
        lines.append(f"ARRAY {meta['arrays']}")
    lines.append("END")
    shell = parse_program("\n".join(lines))
    return shell.params, shell.arrays, shell.scalars


class _PyLowering:
    """Convert a restricted Python AST into the Do-loop IR."""

    def __init__(self, arrays: dict[str, ArrayDecl]) -> None:
        self.arrays = arrays
        self.loop_seq = 0

    def fail(self, node: python_ast.AST, why: str) -> ParseError:
        line = getattr(node, "lineno", 0)
        return ParseError(f"python-ast guest: {why}", line)

    def stmts(self, body: list[python_ast.stmt]) -> list[Stmt]:
        out: list[Stmt] = []
        for node in body:
            if isinstance(node, python_ast.Expr) and isinstance(
                node.value, python_ast.Constant
            ):
                continue  # docstring
            out.append(self.stmt(node))
        return out

    def stmt(self, node: python_ast.stmt) -> Stmt:
        if isinstance(node, python_ast.For):
            return self.for_loop(node)
        if isinstance(node, python_ast.Assign):
            if len(node.targets) != 1:
                raise self.fail(node, "chained assignment is not in the IR")
            lhs = self.expr(node.targets[0])
            if not isinstance(lhs, (ArrayRef, ScalarRef)):
                raise self.fail(node, "assignment target must be a scalar or subscript")
            return Assign(lhs=lhs, rhs=self.expr(node.value), line=node.lineno)
        raise self.fail(
            node, f"only for/assign statements lower; got {type(node).__name__}"
        )

    def for_loop(self, node: python_ast.For) -> DoLoop:
        if node.orelse:
            raise self.fail(node, "for/else has no IR equivalent")
        if not isinstance(node.target, python_ast.Name):
            raise self.fail(node, "loop target must be a plain name")
        it = node.iter
        if not (
            isinstance(it, python_ast.Call)
            and isinstance(it.func, python_ast.Name)
            and it.func.id == "range"
            and 1 <= len(it.args) <= 3
            and not it.keywords
        ):
            raise self.fail(node, "loop iterator must be range(lb, ub[, step])")
        if len(it.args) == 1:
            lb: Affine = Affine.constant(0)
            stop = self.affine(it.args[0])
        else:
            lb = self.affine(it.args[0])
            stop = self.affine(it.args[1])
        step = 1
        if len(it.args) == 3:
            step_aff = self.affine(it.args[2])
            if not step_aff.is_constant or step_aff.const == 0:
                raise self.fail(node, "range step must be a nonzero constant")
            step = step_aff.const
        # range() stops *before* its bound; DO is inclusive.
        ub = stop - 1 if step > 0 else stop + 1
        return DoLoop(
            var=node.target.id,
            lb=lb,
            ub=ub,
            step=step,
            body=self.stmts(node.body),
            line=node.lineno,
        )

    def affine(self, node: python_ast.expr) -> Affine:
        return expr_to_affine(self.expr(node))

    def expr(self, node: python_ast.expr) -> Expr:
        if isinstance(node, python_ast.Constant):
            if not isinstance(node.value, (int, float)):
                raise self.fail(node, f"literal {node.value!r} is not numeric")
            return Num(node.value)
        if isinstance(node, python_ast.Name):
            return ScalarRef(node.id)
        if isinstance(node, python_ast.UnaryOp):
            op = {"USub": "-", "UAdd": "+"}.get(type(node.op).__name__)
            if op is None:
                raise self.fail(node, f"unary {type(node.op).__name__} not in the IR")
            operand = self.expr(node.operand)
            return operand if op == "+" else UnaryOp("-", operand)
        if isinstance(node, python_ast.BinOp):
            op = {
                "Add": "+", "Sub": "-", "Mult": "*", "Div": "/",
            }.get(type(node.op).__name__)
            if op is None:
                raise self.fail(node, f"operator {type(node.op).__name__} not in the IR")
            return BinOp(op, self.expr(node.left), self.expr(node.right))
        if isinstance(node, python_ast.Subscript):
            if not isinstance(node.value, python_ast.Name):
                raise self.fail(node, "subscripted value must be a plain array name")
            arr = node.value.id
            decl = self.arrays.get(arr)
            if decl is None:
                raise self.fail(node, f"subscript of undeclared array {arr!r}")
            sl = node.slice
            elems = list(sl.elts) if isinstance(sl, python_ast.Tuple) else [sl]
            if len(elems) != decl.rank:
                raise self.fail(
                    node, f"array {arr!r} has rank {decl.rank}, got {len(elems)}"
                )
            return ArrayRef(arr, tuple(self.affine(e) for e in elems))
        if isinstance(node, python_ast.Call):
            if not isinstance(node.func, python_ast.Name) or node.keywords:
                raise self.fail(node, "only plain intrinsic calls lower")
            fname = node.func.id.lower()
            if fname not in INTRINSICS:
                raise self.fail(node, f"{node.func.id!r} is not an intrinsic")
            return Call(fname, tuple(self.expr(a) for a in node.args))
        raise self.fail(node, f"{type(node).__name__} has no IR equivalent")


def _meta_from_decorator(fndef: python_ast.FunctionDef) -> dict | None:
    """Recover @loop_nest keyword strings from the decorator AST (used
    when lowering source *text*, where the decorator never ran)."""
    for dec in fndef.decorator_list:
        if not (
            isinstance(dec, python_ast.Call)
            and isinstance(dec.func, python_ast.Name)
            and dec.func.id == "loop_nest"
        ):
            continue
        meta = {"params": "", "arrays": "", "scalars": "", "name": fndef.name}
        for kw in dec.keywords:
            if kw.arg in meta and isinstance(kw.value, python_ast.Constant):
                meta[kw.arg] = kw.value.value or meta[kw.arg]
        meta["name"] = meta["name"] or fndef.name
        return meta
    return None


@register_guest("python-ast")
def _python_ast_guest(source: object) -> Program:
    """Lower a :func:`loop_nest`-decorated function, or Python source
    text containing one (for contexts where :func:`inspect.getsource`
    cannot see the body, e.g. a REPL)."""
    meta = None
    if callable(source):
        meta = getattr(source, "__repro_loop_nest__", None)
        if meta is None:
            raise ReproError(
                "python-ast guest needs a @loop_nest-decorated function"
            )
        cached = getattr(source, "__repro_program__", None)
        if cached is not None:
            return cached
        try:
            text = textwrap.dedent(inspect.getsource(source))
        except OSError:
            raise ReproError(
                "python-ast guest cannot recover the function body "
                f"of {meta['name']!r} (no source file); pass the "
                "function's source text instead"
            ) from None
    elif isinstance(source, str):
        text = textwrap.dedent(source)
    else:
        raise ReproError(
            "python-ast guest takes a decorated function or its source "
            f"text, got {type(source).__name__}"
        )

    module = python_ast.parse(text)
    fndefs = [n for n in module.body if isinstance(n, python_ast.FunctionDef)]
    if len(fndefs) != 1:
        raise ReproError("python-ast guest expects exactly one function definition")
    if meta is None:
        meta = _meta_from_decorator(fndefs[0])
        if meta is None:
            raise ReproError(
                "python-ast guest source text must carry a "
                "@loop_nest(...) decorator"
            )
    params, arrays, scalars = _parse_decls(meta)
    lowering = _PyLowering(arrays)
    program = Program(
        name=meta["name"],
        params=params,
        arrays=arrays,
        scalars=scalars,
        body=lowering.stmts(fndefs[0].body),
    )
    if callable(source):
        source.__repro_program__ = program
    return program


# ---------------------------------------------------------------------------
# json-ir guest
# ---------------------------------------------------------------------------


def _affine_to_json(aff: Affine) -> dict:
    return {"const": aff.const, "coeffs": dict(sorted(aff.coeffs.items()))}


def _affine_from_json(doc: dict) -> Affine:
    return Affine(dict(doc.get("coeffs", {})), doc.get("const", 0))


def _expr_to_json(expr: Expr) -> dict:
    if isinstance(expr, Num):
        return {"num": expr.value}
    if isinstance(expr, ScalarRef):
        return {"var": expr.name}
    if isinstance(expr, ArrayRef):
        return {
            "ref": expr.name,
            "subs": [_affine_to_json(s) for s in expr.subscripts],
        }
    if isinstance(expr, UnaryOp):
        return {"unary": expr.op, "operand": _expr_to_json(expr.operand)}
    if isinstance(expr, BinOp):
        return {
            "op": expr.op,
            "left": _expr_to_json(expr.left),
            "right": _expr_to_json(expr.right),
        }
    if isinstance(expr, Call):
        return {"call": expr.name, "args": [_expr_to_json(a) for a in expr.args]}
    raise TypeError(f"unknown expression node {expr!r}")


def _expr_from_json(doc: dict) -> Expr:
    if "num" in doc:
        return Num(doc["num"])
    if "var" in doc:
        return ScalarRef(doc["var"])
    if "ref" in doc:
        return ArrayRef(
            doc["ref"], tuple(_affine_from_json(s) for s in doc.get("subs", []))
        )
    if "unary" in doc:
        return UnaryOp(doc["unary"], _expr_from_json(doc["operand"]))
    if "op" in doc:
        return BinOp(
            doc["op"], _expr_from_json(doc["left"]), _expr_from_json(doc["right"])
        )
    if "call" in doc:
        return Call(doc["call"], tuple(_expr_from_json(a) for a in doc.get("args", [])))
    raise ReproError(f"json-ir: unrecognized expression {doc!r}")


def _stmt_to_json(stmt: Stmt) -> dict:
    if isinstance(stmt, Assign):
        return {
            "assign": {
                "lhs": _expr_to_json(stmt.lhs),
                "rhs": _expr_to_json(stmt.rhs),
            }
        }
    if isinstance(stmt, DoLoop):
        return {
            "do": {
                "var": stmt.var,
                "lb": _affine_to_json(stmt.lb),
                "ub": _affine_to_json(stmt.ub),
                "step": stmt.step,
                "body": [_stmt_to_json(s) for s in stmt.body],
            }
        }
    raise TypeError(f"unknown statement node {stmt!r}")


def _stmt_from_json(doc: dict) -> Stmt:
    if "assign" in doc:
        inner = doc["assign"]
        lhs = _expr_from_json(inner["lhs"])
        if not isinstance(lhs, (ArrayRef, ScalarRef)):
            raise ReproError("json-ir: assignment lhs must be a var or ref")
        return Assign(lhs=lhs, rhs=_expr_from_json(inner["rhs"]))
    if "do" in doc:
        inner = doc["do"]
        return DoLoop(
            var=inner["var"],
            lb=_affine_from_json(inner["lb"]),
            ub=_affine_from_json(inner["ub"]),
            step=inner.get("step", 1),
            body=[_stmt_from_json(s) for s in inner.get("body", [])],
        )
    raise ReproError(f"json-ir: unrecognized statement {doc!r}")


def program_to_json(program: Program) -> dict:
    """Serialize a program as a ``repro-json-ir/1`` document (exact
    inverse of :func:`program_from_json`)."""
    return {
        "schema": JSON_SCHEMA,
        "name": program.name,
        "params": list(program.params),
        "scalars": list(program.scalars),
        "arrays": {
            name: [_affine_to_json(e) for e in decl.extents]
            for name, decl in program.arrays.items()
        },
        "directives": {k: list(v) for k, v in program.directives.items()},
        "alignments": [
            [[sa, sd], [ta, td]] for (sa, sd), (ta, td) in program.alignments
        ],
        "body": [_stmt_to_json(s) for s in program.body],
    }


def program_from_json(doc: dict | str) -> Program:
    """Build a :class:`Program` from a ``repro-json-ir/1`` document."""
    if isinstance(doc, str):
        try:
            doc = json.loads(doc)
        except json.JSONDecodeError as err:
            raise ParseError(
                f"json-ir text is not JSON: {err.msg}", err.lineno, err.colno
            ) from None
    if not isinstance(doc, dict):
        raise ParseError(
            f"json-ir document must be a JSON object, got {type(doc).__name__}"
        )
    if doc.get("schema") != JSON_SCHEMA:
        raise ReproError(
            f"json-ir document has schema {doc.get('schema')!r}, expected {JSON_SCHEMA!r}"
        )
    arrays = {
        name: ArrayDecl(name, tuple(_affine_from_json(e) for e in extents))
        for name, extents in doc.get("arrays", {}).items()
    }
    return Program(
        name=doc.get("name", "anonymous"),
        params=tuple(doc.get("params", ())),
        arrays=arrays,
        scalars=tuple(doc.get("scalars", ())),
        body=[_stmt_from_json(s) for s in doc.get("body", [])],
        directives={k: tuple(v) for k, v in doc.get("directives", {}).items()},
        alignments=tuple(
            ((sa, sd), (ta, td)) for (sa, sd), (ta, td) in doc.get("alignments", [])
        ),
    )


@register_guest("json-ir")
def _json_ir_guest(source: object) -> Program:
    if isinstance(source, (dict, str)):
        return program_from_json(source)
    raise ReproError(
        f"json-ir guest takes a dict or JSON text, got {type(source).__name__}"
    )
