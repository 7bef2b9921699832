"""IR for the Do-loop DSL.

The IR is deliberately small: it models exactly the program class the
paper's compilation method is defined on — sequences of (possibly
imperfectly) nested ``DO`` loops whose statements are assignments with
affine array subscripts.

Nodes
-----
* :class:`Program` — declarations + a statement list.
* :class:`DoLoop` — ``DO var = lb, ub[, step]`` with affine bounds.
* :class:`Assign` — ``lhs = rhs`` where lhs is an array or scalar ref.
* Expressions: :class:`Num`, :class:`ScalarRef`, :class:`ArrayRef`,
  :class:`UnaryOp`, :class:`BinOp`, :class:`Call`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Union

from repro.errors import AffineError
from repro.lang.affine import Affine
from repro.util.lazy import Lazy

# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Num:
    """A numeric literal (int or float)."""

    value: float

    def __str__(self) -> str:
        return repr(self.value) if isinstance(self.value, float) else str(self.value)


@dataclass(frozen=True)
class ScalarRef:
    """A reference to a scalar variable (loop index, parameter or scalar)."""

    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class ArrayRef:
    """``name(sub1, sub2, ...)`` with affine subscripts."""

    name: str
    subscripts: tuple[Affine, ...]

    @property
    def rank(self) -> int:
        return len(self.subscripts)

    def __str__(self) -> str:
        inner = ", ".join(str(s) for s in self.subscripts)
        return f"{self.name}({inner})"


@dataclass(frozen=True)
class UnaryOp:
    """Unary ``-`` or ``+``."""

    op: str
    operand: "Expr"

    def __str__(self) -> str:
        return f"{self.op}({self.operand})"


@dataclass(frozen=True)
class BinOp:
    """Binary arithmetic: ``+ - * /``."""

    op: str
    left: "Expr"
    right: "Expr"

    def __str__(self) -> str:
        return f"({self.left} {self.op} {self.right})"


@dataclass(frozen=True)
class Call:
    """Intrinsic call, e.g. ``min(a, b)`` or ``ceiling(k / N)``."""

    name: str
    args: tuple["Expr", ...]

    def __str__(self) -> str:
        return f"{self.name}({', '.join(str(a) for a in self.args)})"


Expr = Union[Num, ScalarRef, ArrayRef, UnaryOp, BinOp, Call]
LValue = Union[ArrayRef, ScalarRef]

# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------


@dataclass
class Assign:
    """Assignment statement with an optional source line number.

    The line number tracks the paper's listings so component-affinity edges
    can be attributed exactly like Fig 2 ("line 5", "line 8", ...).
    """

    lhs: LValue
    rhs: Expr
    line: int = -1

    def __str__(self) -> str:
        return f"{self.lhs} = {self.rhs}"


@dataclass
class DoLoop:
    """``DO var = lb, ub, step`` over integer affine bounds."""

    var: str
    lb: Affine
    ub: Affine
    step: int = 1
    body: list["Stmt"] = field(default_factory=list)
    line: int = -1

    def trip_count(self, env: dict[str, int]) -> int:
        """Number of iterations under a parameter binding."""
        lo = self.lb.evaluate(env)
        hi = self.ub.evaluate(env)
        if self.step > 0:
            return max(0, (hi - lo) // self.step + 1)
        return max(0, (lo - hi) // (-self.step) + 1)

    def iter_values(self, env: dict[str, int]) -> range:
        lo = self.lb.evaluate(env)
        hi = self.ub.evaluate(env)
        if self.step > 0:
            return range(lo, hi + 1, self.step)
        return range(lo, hi - 1, self.step)

    def __str__(self) -> str:
        step = f", {self.step}" if self.step != 1 else ""
        return f"DO {self.var} = {self.lb}, {self.ub}{step}"


Stmt = Union[Assign, DoLoop]

# ---------------------------------------------------------------------------
# Declarations and programs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ArrayDecl:
    """An array declaration; extents are affine in program parameters."""

    name: str
    extents: tuple[Affine, ...]

    @property
    def rank(self) -> int:
        return len(self.extents)

    def shape(self, env: dict[str, int]) -> tuple[int, ...]:
        return tuple(e.evaluate(env) for e in self.extents)

    def __str__(self) -> str:
        return f"{self.name}({', '.join(str(e) for e in self.extents)})"


@dataclass
class Program(Lazy):
    """A parsed DSL program.

    Attributes
    ----------
    name:
        Program name from the ``PROGRAM`` header.
    params:
        Symbolic integer parameters (problem sizes, iteration limits).
    arrays:
        Declared arrays by name.
    scalars:
        Declared scalar variables (e.g. ``OMEGA``).
    body:
        Top-level statement list.
    directives:
        Fortran-D style distribution directives, per array: one specifier
        per dimension, each ``"BLOCK"``, ``"CYCLIC"`` or ``"*"``
        (replicated).  Parsed from ``DISTRIBUTE A(BLOCK, *)`` lines.
    alignments:
        HPF-style alignment constraints parsed from
        ``ALIGN V(i) WITH A(i, *)`` lines: pairs of (array, dim) nodes
        that must map to the same grid dimension.
    """

    name: str
    params: tuple[str, ...]
    arrays: dict[str, ArrayDecl]
    scalars: tuple[str, ...]
    body: list[Stmt]
    directives: dict[str, tuple[str, ...]] = field(default_factory=dict)
    alignments: tuple[tuple[tuple[str, int], tuple[str, int]], ...] = field(default_factory=tuple)

    def array(self, name: str) -> ArrayDecl:
        try:
            return self.arrays[name]
        except KeyError:
            raise AffineError(f"unknown array {name!r} in program {self.name!r}") from None

    def loops(self) -> list[DoLoop]:
        """Top-level loops of the program body, in order."""
        return [s for s in self.body if isinstance(s, DoLoop)]

    def walk(self) -> Iterator[Stmt]:
        """Yield every statement in the program, pre-order."""
        yield from walk_stmts(self.body)


def walk_stmts(stmts: list[Stmt]) -> Iterator[Stmt]:
    """Pre-order walk over a statement list."""
    for stmt in stmts:
        yield stmt
        if isinstance(stmt, DoLoop):
            yield from walk_stmts(stmt.body)


def walk_exprs(expr: Expr) -> Iterator[Expr]:
    """Pre-order walk over an expression tree."""
    yield expr
    if isinstance(expr, BinOp):
        yield from walk_exprs(expr.left)
        yield from walk_exprs(expr.right)
    elif isinstance(expr, UnaryOp):
        yield from walk_exprs(expr.operand)
    elif isinstance(expr, Call):
        for arg in expr.args:
            yield from walk_exprs(arg)


def array_refs(expr: Expr) -> list[ArrayRef]:
    """All array references in an expression tree, left to right."""
    return [e for e in walk_exprs(expr) if isinstance(e, ArrayRef)]
