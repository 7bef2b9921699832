"""Recognizers: the paper's listings are the templates.

The code generator does not key on program names.  A program belongs to
one of the paper's families when its *body* (:func:`body_of`: every loop
index scoped to its loop, then serialized by
:func:`repro.lang.canonical.serialize_body`, which erases spelling and
the order of commuted ``+`` / ``*`` operands) equals the body of that
family's listing in :mod:`repro.lang.programs`.  Equality covers every
loop bound, step, subscript and operator, so the generator can trust the
match; the two rename maps then say which of the program's names plays
each role of the listing.

:data:`TEMPLATES` is the whole of it: per family, each accepted listing
and the pattern *that listing itself* is.  A matched program gets the
same pattern with its own names substituted.  Renaming is one-to-one, so
a program in which one name plays two roles matches only a listing that
says so: the two such programs the emitters are right for (``m`` sweeps,
``B x B``) are listings of their own (:func:`_also`).

* :func:`match_iterative_solve` — §3 Jacobi (two inner loops) or §5 SOR
  (one fused loop, Gauss-Seidel order; the relaxation factor may be a
  ``SCALAR``, a ``PARAM`` or absent);
* :func:`match_matmul` — the §2.1 triple loop;
* :func:`match_gauss` — §6 triangularization + backward solve.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache
from typing import ClassVar

from repro.lang.ast import Program
from repro.lang.canonical import scope_loops, serialize_body
from repro.lang.parser import parse_program
from repro.lang.programs import GAUSS_SOURCE, JACOBI_SOURCE, MATMUL_SOURCE, SOR_SOURCE
from repro.util.lazy import Lazy


@dataclass(frozen=True)
class IterativeSolvePattern(Lazy):
    """A recognized Jacobi- or SOR-shaped program."""

    kind: str  # "jacobi" or "sor"
    m: str  # size parameter name
    iterations: str  # iteration-count parameter name
    A: str
    V: str
    B: str
    X: str
    omega: str | None  # relaxation scalar (SOR only)


@dataclass(frozen=True)
class MatmulPattern(Lazy):
    """A recognized ``A = B x C`` triple loop."""

    kind: ClassVar[str] = "matmul"
    n: str  # size parameter
    out: str  # result array (A)
    left: str  # B
    right: str  # C


@dataclass(frozen=True)
class GaussPattern(Lazy):
    """A recognized §6 Gauss-elimination program."""

    kind: ClassVar[str] = "gauss"
    m: str
    A: str
    L: str
    B: str
    V: str
    X: str


def _also(templates: dict[str, object], old: str, new: str, **roles: str) -> dict[str, object]:
    """*templates* plus each listing respelled *old* -> *new*, where one
    name then plays the given *roles* too."""
    return templates | {
        source.replace(old, new): replace(proto, **roles) for source, proto in templates.items()
    }


_JACOBI = IterativeSolvePattern("jacobi", "m", "maxiter", "A", "V", "B", "X", omega=None)
_SOR = replace(_JACOBI, kind="sor", omega="omega")
_SOR_UNDECLARED = SOR_SOURCE.replace("SCALAR omega\n", "")
_M_SWEEPS = dict(old="DO k = 1, maxiter", new="DO k = 1, m", iterations="m")

#: family -> {listing: the pattern that listing is}.  A pattern field
#: holding one of the listing's names is a role; anything else (``kind``,
#: an absent ``omega``) is a constant of the listing.
TEMPLATES: dict[str, dict[str, object]] = {
    "jacobi": _also({JACOBI_SOURCE: _JACOBI}, **_M_SWEEPS),
    "sor": _also(
        {
            SOR_SOURCE: _SOR,
            _SOR_UNDECLARED.replace("PARAM m, maxiter", "PARAM m, maxiter, omega"): _SOR,
            _SOR_UNDECLARED.replace("omega * ", ""): replace(_SOR, omega=None),
        },
        **_M_SWEEPS,
    ),
    "matmul": _also(
        {MATMUL_SOURCE: MatmulPattern(n="n", out="A", left="B", right="C")},
        old="C(k, j)",
        new="B(k, j)",
        right="B",
    ),
    "gauss": {GAUSS_SOURCE: GaussPattern("m", "A", "L", "B", "V", "X")},
}


def body_of(program: Program) -> tuple:
    """What recognition compares: *program*'s canonical body text and the
    namer that spelled it, with no loop index shared between loops."""
    return serialize_body(scope_loops(program))


@lru_cache(maxsize=None)
def _listing_body(source: str) -> tuple[str, dict[str, str]]:
    text, namer = body_of(parse_program(source))
    return text, namer.assigned


def match_templates(templates: dict[str, object], body: tuple) -> object | None:
    """The pattern of the first listing whose body equals *body* (a
    :func:`body_of` result), spelled with the program's names."""
    text, namer = body
    for source, proto in templates.items():
        listing_text, canon = _listing_body(source)
        if text == listing_text:
            spelled = {c: name for name, c in namer.assigned.items()}
            return replace(
                proto,
                **{f: spelled[canon[v]] for f, v in vars(proto).items() if v in canon},
            )
    return None


def match_iterative_solve(program: Program) -> IterativeSolvePattern | None:
    """Recognize the §3 (Jacobi) or §5 (SOR) program shape."""
    return match_templates(TEMPLATES["jacobi"] | TEMPLATES["sor"], body_of(program))


def match_matmul(program: Program) -> MatmulPattern | None:
    """Recognize ``DO i / DO j { A(i,j)=0; DO k { A += B(i,k)*C(k,j) } }``."""
    return match_templates(TEMPLATES["matmul"], body_of(program))


def match_gauss(program: Program) -> GaussPattern | None:
    """Recognize triangularization + backward triangular solve."""
    return match_templates(TEMPLATES["gauss"], body_of(program))
