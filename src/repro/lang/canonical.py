"""Canonical serialization of a loop-nest body.

Two loop nests that differ only in spelling serialize to the same text:

* **alpha-renaming** — arrays, parameters, scalars and loop indices are
  renamed to positional names (``a0``, ``p0``, ``w0``, ``i0``) in order
  of first use during a pre-order walk of the body;
* **commutative sorting** — chains of ``+`` and ``*`` are flattened and
  their operands sorted by canonical serialization, so ``a + b`` and
  ``b + a`` coincide (``-`` and ``/`` keep their order).

:func:`serialize_body` is the one entry point.  Its two callers are the
compile service's content addressing
(:func:`repro.service.normalize.canonicalize` appends the declarations
and hashes the result) and the code generator's recognizers
(:mod:`repro.codegen.patterns` compares the body text with the paper's
listings and reads the matched names off the namer).

The rename map is global, so *which loops share an index name* is part
of the text: ``DO i … END DO / DO i …`` and ``DO i … END DO / DO l …``
serialize apart.  That only splits a cache key; a caller that must not
see it (the recognizers) serializes :func:`scope_loops` of the program.

Known limit: commutative operands are ordered by a *name-blind* key
before first-use naming, so swaps like ``A(i,j)*X(j)`` vs
``X(j)*A(i,j)`` coincide even when both symbols are first used inside
the swapped chain.  When two operands are blind-identical (same shape,
both unseen — e.g. ``V(i) + W(i)``), ties resolve in syntactic order,
and an exotic twin that also swaps the rest of the uses may still
serialize apart.  Splits never coincide wrongly, which is the side
correctness needs: a collision would serve the wrong plan or emit the
wrong kernel, a split merely misses the cache or the recognizer.
"""

from __future__ import annotations

from dataclasses import fields, is_dataclass, replace
from itertools import count

from repro.lang.affine import Affine
from repro.lang.ast import (
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

_ROLE_PREFIX = {"array": "a", "param": "p", "scalar": "w", "loop": "i"}


class _Namer:
    """First-use positional renaming, one counter per role."""

    def __init__(self, program: Program) -> None:
        self.role: dict[str, str] = {}
        for name in program.arrays:
            self.role[name] = "array"
        for name in program.params:
            self.role[name] = "param"
        for name in program.scalars:
            self.role[name] = "scalar"
        self.assigned: dict[str, str] = {}
        self.counters: dict[str, int] = {p: 0 for p in _ROLE_PREFIX}

    def canon(self, name: str, role: str | None = None) -> str:
        got = self.assigned.get(name)
        if got is not None:
            return got
        role = role or self.role.get(name, "scalar")
        prefix = _ROLE_PREFIX[role]
        idx = self.counters[role]
        self.counters[role] = idx + 1
        fresh = f"{prefix}{idx}"
        self.assigned[name] = fresh
        return fresh


def _affine(aff: Affine, namer: _Namer) -> str:
    # Name unseen variables in a deterministic order (coefficient, then
    # original spelling — the documented tie-break) before sorting the
    # serialized terms by canonical name.
    for var, _coeff in sorted(aff.coeffs.items(), key=lambda kv: (kv[1], kv[0])):
        namer.canon(var)
    terms = sorted((namer.canon(v), c) for v, c in aff.coeffs.items())
    inner = " ".join(f"({v} {c})" for v, c in terms)
    return f"(aff {aff.const}{' ' + inner if inner else ''})"


_COMMUTATIVE = {"+", "*"}


def _blind_affine(aff: Affine, namer: _Namer) -> str:
    """Affine serialization with unassigned names erased to role marks."""
    terms = sorted(
        (namer.assigned.get(v) or _ROLE_PREFIX[namer.role.get(v, "scalar")] + "?", c)
        for v, c in aff.coeffs.items()
    )
    inner = " ".join(f"({v} {c})" for v, c in terms)
    return f"(aff {aff.const}{' ' + inner if inner else ''})"


def _blind(expr: Expr, namer: _Namer) -> str:
    """Name-blind serialization: already-canonicalized names appear (they
    are rename-invariant), not-yet-named symbols collapse to their role
    mark.  Used to order commutative operands *before* first-use naming
    touches them, so ``a + b`` and ``b + a`` name their operands in the
    same order even when both are first used inside the swapped chain."""
    if isinstance(expr, Num):
        return f"(num {expr.value!r})"
    if isinstance(expr, ScalarRef):
        got = namer.assigned.get(expr.name)
        return got or _ROLE_PREFIX[namer.role.get(expr.name, "scalar")] + "?"
    if isinstance(expr, ArrayRef):
        name = namer.assigned.get(expr.name) or "a?"
        subs = " ".join(_blind_affine(s, namer) for s in expr.subscripts)
        return f"(ref {name} {subs})"
    if isinstance(expr, UnaryOp):
        return f"(u{expr.op} {_blind(expr.operand, namer)})"
    if isinstance(expr, Call):
        args = " ".join(_blind(a, namer) for a in expr.args)
        return f"(call {expr.name} {args})"
    if isinstance(expr, BinOp):
        if expr.op in _COMMUTATIVE:
            keys = sorted(_blind(e, namer) for e in _flatten(expr, expr.op))
            return f"({expr.op} {' '.join(keys)})"
        return f"({expr.op} {_blind(expr.left, namer)} {_blind(expr.right, namer)})"
    raise TypeError(f"unknown expression node {expr!r}")


def _expr(expr: Expr, namer: _Namer) -> str:
    if isinstance(expr, Num):
        return f"(num {expr.value!r})"
    if isinstance(expr, ScalarRef):
        return namer.canon(expr.name)
    if isinstance(expr, ArrayRef):
        subs = " ".join(_affine(s, namer) for s in expr.subscripts)
        return f"(ref {namer.canon(expr.name, 'array')} {subs})"
    if isinstance(expr, UnaryOp):
        return f"(u{expr.op} {_expr(expr.operand, namer)})"
    if isinstance(expr, Call):
        args = " ".join(_expr(a, namer) for a in expr.args)
        return f"(call {expr.name} {args})"
    if isinstance(expr, BinOp):
        if expr.op in _COMMUTATIVE:
            # Blind keys first (computed before any naming below mutates
            # the namer), then name + serialize in blind order; ties
            # keep syntactic order (sorted() is stable).
            operands = sorted(
                _flatten(expr, expr.op), key=lambda e: _blind(e, namer)
            )
            texts = [_expr(e, namer) for e in operands]
            return f"({expr.op} {' '.join(sorted(texts))})"
        return f"({expr.op} {_expr(expr.left, namer)} {_expr(expr.right, namer)})"
    raise TypeError(f"unknown expression node {expr!r}")


def _flatten(expr: Expr, op: str) -> list[Expr]:
    if isinstance(expr, BinOp) and expr.op == op:
        return _flatten(expr.left, op) + _flatten(expr.right, op)
    return [expr]


def _stmt(stmt: Stmt, namer: _Namer) -> str:
    if isinstance(stmt, Assign):
        return f"(= {_expr(stmt.lhs, namer)} {_expr(stmt.rhs, namer)})"
    if isinstance(stmt, DoLoop):
        var = namer.canon(stmt.var, "loop")
        lb = _affine(stmt.lb, namer)
        ub = _affine(stmt.ub, namer)
        body = " ".join(_stmt(s, namer) for s in stmt.body)
        return f"(do {var} {lb} {ub} {stmt.step} ({body}))"
    raise TypeError(f"unknown statement node {stmt!r}")


def serialize_body(program: Program) -> tuple[str, _Namer]:
    """Canonical text of *program*'s body, and the namer that produced it
    (``namer.assigned`` maps every name the body uses to its canonical one)."""
    namer = _Namer(program)
    return " ".join(_stmt(s, namer) for s in program.body), namer


def scope_loops(program: Program) -> Program:
    """*program* with every ``DO`` index spelled uniquely (``#0``, ``#1``,
    … in pre-order; a name is bound inside its loop's body only), so the
    text no longer says which loops reuse an index name."""
    return replace(program, body=_scoped(program.body, {}, count()))


def _scoped(node, names: dict[str, str], fresh):
    """*node* under :func:`scope_loops`: *names* maps the indices bound
    here to their unique spellings, *fresh* numbers the next loop."""
    if isinstance(node, Affine):
        return Affine({names.get(v, v): c for v, c in node.coeffs.items()}, node.const)
    if isinstance(node, ScalarRef):
        return ScalarRef(names.get(node.name, node.name))
    if isinstance(node, DoLoop):
        inner = names | {node.var: f"#{next(fresh)}"}
        lb, ub = _scoped(node.lb, names, fresh), _scoped(node.ub, names, fresh)
        return replace(node, var=inner[node.var], lb=lb, ub=ub, body=_scoped(node.body, inner, fresh))
    if isinstance(node, (list, tuple)):
        return type(node)(_scoped(n, names, fresh) for n in node)
    if is_dataclass(node):
        return type(node)(*(_scoped(getattr(node, f.name), names, fresh) for f in fields(node)))
    return node
