"""Symbolic range analysis for the bounds-aware dependence test."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dependence.analysis import find_dependences
from repro.dependence.tests import affine_range, definitely_negative, ranges_disjoint
from repro.lang import parse_program
from repro.lang.affine import Affine

i, j, k, m = (Affine.var(v) for v in "ijkm")


class TestAffineRange:
    def test_constant(self):
        lo, hi = affine_range(Affine.constant(5), [])
        assert lo == 5 and hi == 5

    def test_single_var(self):
        lo, hi = affine_range(i, [("i", Affine.constant(1), m)])
        assert lo == 1 and hi == m

    def test_negative_coefficient(self):
        lo, hi = affine_range(-i, [("i", Affine.constant(1), m)])
        assert lo == -m and hi == Affine.constant(-1)

    def test_nested_bounds(self):
        """j in [k+1, m], k in [1, m]: range of j is [2, m]."""
        lo, hi = affine_range(
            j,
            [("j", k + 1, m), ("k", Affine.constant(1), m)],
        )
        assert lo == 2 and hi == m

    def test_difference_gauss_case(self):
        """j - k with j >= k+1: minimum is 1 — provably nonzero."""
        lo, _hi = affine_range(
            j - k,
            [("j", k + 1, m), ("k", Affine.constant(1), m)],
        )
        assert lo == 1

    def test_unbound_symbols_pass_through(self):
        lo, hi = affine_range(i + m, [("i", Affine.constant(0), Affine.constant(3))])
        assert lo == m and hi == m + 3

    @settings(max_examples=40, deadline=None)
    @given(
        c=st.integers(-3, 3),
        const=st.integers(-5, 5),
        lo_v=st.integers(1, 5),
        hi_v=st.integers(5, 12),
    )
    def test_range_contains_all_concrete_values(self, c, const, lo_v, hi_v):
        expr = Affine({"i": c}, const)
        lo, hi = affine_range(
            expr, [("i", Affine.constant(lo_v), Affine.constant(hi_v))]
        )
        assert lo.is_constant and hi.is_constant
        for v in range(lo_v, hi_v + 1):
            value = expr.evaluate({"i": v})
            assert lo.const <= value <= hi.const


class TestSignRules:
    def test_negative_constant(self):
        assert definitely_negative(Affine.constant(-1))

    def test_positive_constant(self):
        assert not definitely_negative(Affine.constant(0))

    def test_nonpositive_coeffs(self):
        # -m - 1 <= -2 for m >= 1.
        assert definitely_negative(-m - 1)
        # 1 - m can be zero at m = 1.
        assert not definitely_negative(1 - m)
        # -m can be -1 < 0 at m = 1... -m + 0: const + sum = -1 < 0.
        assert definitely_negative(-m)

    def test_positive_coeff_unknown(self):
        assert not definitely_negative(m - 100)

    def test_ranges_disjoint(self):
        # [k, k] vs [k+1, m]
        assert ranges_disjoint((k, k), (k + 1, m))
        assert not ranges_disjoint((Affine.constant(1), m), (Affine.constant(2), m))


class TestBoundsAwareDependences:
    def test_gauss_pivot_column_independent(self):
        """A(i, k) (pivot column read) vs A(i, j), j >= k+1 (update
        write): provably disjoint within one elimination step."""
        src = (
            "PROGRAM g\nPARAM m\nARRAY A(m, m), L(m, m)\n"
            "DO i = 2, m\n"
            "  L(i, 1) = A(i, 1)\n"
            "  DO j = 2, m\n"
            "    A(i, j) = A(i, j) - L(i, 1) * A(1, j)\n"
            "  END DO\n"
            "END DO\nEND\n"
        )
        deps = find_dependences(parse_program(src))
        # No dependence may link A(i, 1) with the A(i, j>=2) writes.
        for d in deps:
            if d.array != "A":
                continue
            subs = {str(d.source.ref), str(d.sink.ref)}
            assert not ("A(i, 1)" in subs and "A(i, j)" in subs), d

    def test_disjoint_halves(self):
        src = (
            "PROGRAM h\nPARAM m\nARRAY U(2 * m)\n"
            "DO i = 1, m\n"
            "  U(i) = U(i + m)\n"
            "END DO\nEND\n"
        )
        deps = find_dependences(parse_program(src))
        # Reads [1+m, 2m] and writes [1, m] never overlap (m >= 1).
        assert deps == []

    def test_overlapping_halves_still_found(self):
        src = (
            "PROGRAM h\nPARAM m\nARRAY U(2 * m)\n"
            "DO i = 1, m\n"
            "  U(i) = U(i + m - 1)\n"
            "END DO\nEND\n"
        )
        # At m=1 offset is 0: ranges touch, dependence must be kept.
        deps = find_dependences(parse_program(src))
        assert deps
