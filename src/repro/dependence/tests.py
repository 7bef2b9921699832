"""Dependence decision procedures: GCD test, SIV test, Banerjee bounds.

These answer "can subscript expressions ``f(I)`` and ``g(I')`` be equal
for iteration points within the loop bounds?" — the building block for
:mod:`repro.dependence.analysis`.
"""

from __future__ import annotations

import math
from collections.abc import Mapping

from repro.lang.affine import Affine


def gcd_test(src: Affine, dst: Affine, shared: frozenset[str] | set[str] = frozenset()) -> bool:
    """GCD test: may ``src(I) == dst(I')`` have an integer solution?

    Variables in *shared* are treated as the *same* instance on both sides
    (loop-invariant symbols such as the problem size ``m``); all other
    variables are independent unknowns.  Returns False only when the
    dependence is definitely impossible.
    """
    coeffs: list[int] = []
    for var, c in src.coeffs.items():
        if var in shared:
            d = dst.coeff(var)
            if c != d:
                coeffs.append(c - d)
        else:
            coeffs.append(c)
    for var, c in dst.coeffs.items():
        if var in shared and var in src.coeffs:
            continue  # counted above, as a difference
        coeffs.append(-c)
    const = dst.const - src.const
    if not coeffs:
        return const == 0
    g = 0
    for c in coeffs:
        g = math.gcd(g, abs(c))
    if g == 0:
        return const == 0
    return const % g == 0


def siv_test(a: int, c1: int, c2: int, lo: int, hi: int) -> int | None:
    """Strong SIV test for ``a*i + c1 == a*i' + c2`` with ``lo <= i <= hi``.

    Returns the dependence distance ``i' - i = (c1 - c2)/a`` when it is an
    integer whose magnitude fits within the loop range, else ``None``.
    """
    if a == 0:
        return 0 if c1 == c2 else None
    diff = c1 - c2
    if diff % a != 0:
        return None
    dist = diff // a
    if abs(dist) > max(hi - lo, 0):
        return None
    return dist


def affine_range(
    expr: Affine,
    ordered_bounds: list[tuple[str, Affine, Affine]],
) -> tuple[Affine, Affine]:
    """Symbolic (min, max) of *expr* under affine loop-variable bounds.

    *ordered_bounds* lists ``(var, low, high)`` innermost first; each
    variable is eliminated in turn (its bound expressions may reference
    outer variables, which are eliminated later).  The result is a pair
    of affine forms over the remaining symbols (program parameters).
    """
    lo, lo_const = dict(expr.coeffs), expr.const
    hi, hi_const = dict(expr.coeffs), expr.const
    for var, low, high in ordered_bounds:
        c_lo = lo.pop(var, 0)
        if c_lo:
            lo_const += _add_scaled(lo, low if c_lo > 0 else high, c_lo)
        c_hi = hi.pop(var, 0)
        if c_hi:
            hi_const += _add_scaled(hi, high if c_hi > 0 else low, c_hi)
    return Affine._trusted(lo, lo_const), Affine._trusted(hi, hi_const)


def _add_scaled(coeffs: dict[str, int], bound: Affine, factor: int) -> int:
    """Add ``factor * bound``'s coefficients into *coeffs*; return its constant.

    A coefficient that cancels is deleted and a new one appended, so the
    dict keeps the order ``Affine`` arithmetic would give it.
    """
    for var, coeff in bound.coeffs.items():
        total = coeffs.get(var, 0) + coeff * factor
        if total:
            coeffs[var] = total
        else:
            del coeffs[var]
    return bound.const * factor


def definitely_negative(expr: Affine) -> bool:
    """Is *expr* provably < 0, assuming every free symbol is >= 1?

    Sound but incomplete: with all coefficients nonpositive the maximum
    is attained at symbol value 1, so the form is negative exactly when
    ``const + sum(coeffs) < 0``.  Any positive coefficient makes the form
    unbounded above, so we answer False.
    """
    if any(c > 0 for c in expr.coeffs.values()):
        return False
    return expr.const + sum(expr.coeffs.values()) < 0


def ranges_disjoint(
    range_a: tuple[Affine, Affine],
    range_b: tuple[Affine, Affine],
) -> bool:
    """Are two symbolic integer ranges provably disjoint?

    True when ``max_a < min_b`` or ``max_b < min_a`` under the
    symbols-are-positive assumption of :func:`definitely_negative`.
    """
    lo_a, hi_a = range_a
    lo_b, hi_b = range_b
    return definitely_negative(hi_a - lo_b) or definitely_negative(hi_b - lo_a)


def banerjee_bounds_test(
    expr: Affine,
    bounds: Mapping[str, tuple[int, int]],
) -> tuple[int, int]:
    """Banerjee-style extreme values of an affine form under variable bounds.

    Returns ``(min, max)`` of ``expr`` with each variable confined to its
    inclusive ``(lo, hi)`` range.  A dependence equation ``expr == 0`` is
    impossible when ``0`` falls outside this interval.
    """
    lo_total = expr.const
    hi_total = expr.const
    for var, coeff in expr.coeffs.items():
        if var not in bounds:
            raise KeyError(f"no bounds for variable {var!r}")
        vlo, vhi = bounds[var]
        if vlo > vhi:
            raise ValueError(f"empty range for {var!r}: ({vlo}, {vhi})")
        if coeff >= 0:
            lo_total += coeff * vlo
            hi_total += coeff * vhi
        else:
            lo_total += coeff * vhi
            hi_total += coeff * vlo
    return (lo_total, hi_total)
