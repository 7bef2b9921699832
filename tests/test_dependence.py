"""Dependence tests: decision procedures, vectors, program analysis."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dependence import (
    DistanceVector,
    banerjee_bounds_test,
    find_dependences,
    gcd_test,
    live_loop_carried_arrays,
    loop_carried_arrays,
    siv_test,
)
from repro.lang import gauss_program, jacobi_program, parse_program, sor_program
from repro.lang.affine import Affine


class TestGcdTest:
    def test_same_expression_dependent(self):
        i = Affine.var("i")
        assert gcd_test(i, i)

    def test_offset_multiple_of_stride(self):
        # 2i + 0 == 2i' + 4 solvable (distance 2)
        assert gcd_test(Affine({"i": 2}, 0), Affine({"i": 2}, 4))

    def test_offset_not_multiple(self):
        # 2i == 2i' + 1 has no integer solution
        assert not gcd_test(Affine({"i": 2}, 0), Affine({"i": 2}, 1))

    def test_shared_symbol_cancels(self):
        # i + m vs i' + m with m shared: dependence possible
        a = Affine({"i": 1, "m": 1}, 0)
        b = Affine({"i": 1, "m": 1}, 0)
        assert gcd_test(a, b, shared={"m"})

    def test_shared_symbol_on_one_side_only(self):
        # 2i + 1 == 2j + m has a solution whenever m is odd
        src, dst = Affine({"i": 2}, 1), Affine({"j": 2, "m": 1}, 0)
        assert gcd_test(src, dst, shared={"m"})
        assert gcd_test(dst, src, shared={"m"})

    @settings(max_examples=60)
    @given(
        st.dictionaries(st.sampled_from(["i", "m"]), st.integers(-3, 3), max_size=2),
        st.dictionaries(st.sampled_from(["j", "m"]), st.integers(-3, 3), max_size=2),
        st.integers(-6, 6),
        st.integers(-6, 6),
    )
    def test_never_rules_out_a_solution(self, src_coeffs, dst_coeffs, src_const, dst_const):
        src, dst = Affine(src_coeffs, src_const), Affine(dst_coeffs, dst_const)
        box = range(-6, 7)
        solvable = any(
            src.evaluate({"i": i, "m": m}) == dst.evaluate({"j": j, "m": m})
            for i in box for j in box for m in box
        )
        for a, b in ((src, dst), (dst, src)):
            assert gcd_test(a, b, shared={"m"}) or not solvable

    def test_constants(self):
        assert gcd_test(Affine.constant(3), Affine.constant(3))
        assert not gcd_test(Affine.constant(3), Affine.constant(4))

    @given(st.integers(1, 9), st.integers(-30, 30))
    def test_single_var_consistency(self, a, c):
        lhs = Affine({"i": a}, 0)
        rhs = Affine({"i": a}, c)
        assert gcd_test(lhs, rhs) == (c % a == 0)


class TestSivTest:
    def test_distance(self):
        assert siv_test(1, 0, 2, 1, 10) == -2

    def test_zero_distance(self):
        assert siv_test(3, 5, 5, 1, 10) == 0

    def test_non_divisible(self):
        assert siv_test(2, 0, 1, 1, 10) is None

    def test_out_of_range(self):
        assert siv_test(1, 0, 100, 1, 10) is None

    def test_zero_coefficient(self):
        assert siv_test(0, 5, 5, 1, 10) == 0
        assert siv_test(0, 5, 6, 1, 10) is None


class TestBanerjee:
    def test_bounds(self):
        expr = Affine({"i": 2, "j": -1}, 3)
        lo, hi = banerjee_bounds_test(expr, {"i": (0, 5), "j": (0, 4)})
        assert (lo, hi) == (3 - 4, 3 + 10)

    def test_excludes_zero(self):
        expr = Affine({"i": 1}, 10)
        lo, hi = banerjee_bounds_test(expr, {"i": (0, 5)})
        assert lo > 0  # dependence equation expr == 0 impossible

    def test_missing_bounds(self):
        with pytest.raises(KeyError):
            banerjee_bounds_test(Affine.var("i"), {})

    def test_empty_range(self):
        with pytest.raises(ValueError):
            banerjee_bounds_test(Affine.var("i"), {"i": (5, 1)})


class TestDistanceVector:
    def test_zero(self):
        assert DistanceVector((0, 0)).is_zero

    def test_carried_level(self):
        assert DistanceVector((0, 1)).carried_level() == 1
        assert DistanceVector(("*", 0)).carried_level() == 0
        assert DistanceVector((0, 0)).carried_level() is None

    def test_directions(self):
        assert DistanceVector((1, 0, -2, "*")).directions() == ("<", "=", ">", "*")

    def test_lexicographic_positive(self):
        assert DistanceVector((0, 1)).is_lexicographically_positive()
        assert not DistanceVector((0, -1)).is_lexicographically_positive()
        assert DistanceVector(("*", -5)).is_lexicographically_positive()

    def test_invalid_entry(self):
        with pytest.raises(ValueError):
            DistanceVector(("bogus",))


class TestProgramDependences:
    def test_stencil_distance(self):
        p = parse_program(
            "PROGRAM s\nPARAM m\nARRAY A(m)\n"
            "DO i = 2, m\nA(i) = A(i - 1)\nEND DO\nEND\n"
        )
        deps = find_dependences(p)
        flow = [d for d in deps if d.kind == "flow"]
        assert len(flow) == 1
        assert flow[0].distance.entries == (1,)

    def test_anti_dependence(self):
        p = parse_program(
            "PROGRAM s\nPARAM m\nARRAY A(m)\n"
            "DO i = 1, m - 1\nA(i) = A(i + 1)\nEND DO\nEND\n"
        )
        deps = find_dependences(p)
        assert any(d.kind == "anti" and d.distance.entries == (1,) for d in deps)

    def test_independent_columns(self):
        p = parse_program(
            "PROGRAM s\nPARAM m\nARRAY A(m, m)\n"
            "DO i = 1, m\nA(i, 1) = A(i, 2)\nEND DO\nEND\n"
        )
        deps = find_dependences(p)
        assert deps == []  # columns 1 and 2 never overlap

    def test_jacobi_x_loop_carried(self):
        outer = jacobi_program().loops()[0]
        assert "X" in loop_carried_arrays(outer)

    def test_jacobi_live_carried_excludes_v(self):
        """V is zeroed at the top of each sweep — killed, not live."""
        outer = jacobi_program().loops()[0]
        live = live_loop_carried_arrays(outer)
        assert "X" in live and "V" not in live

    def test_sor_live_carried(self):
        outer = sor_program().loops()[0]
        live = live_loop_carried_arrays(outer)
        assert "X" in live and "V" not in live

    def test_gauss_triangularization_deps(self):
        tri = gauss_program().loops()[0]
        deps = find_dependences([tri])
        arrays = {d.array for d in deps}
        assert {"A", "B", "L"} <= arrays

    @pytest.mark.parametrize("read, inner", [("A(i)", 0), ("A(i - 1)", 1)])
    def test_loop_absent_from_both_references_carries_at_any_distance(self, read, inner):
        """``k`` subscripts neither reference: the distance along it is
        unknown whether the other subscripts agree or are offset."""
        p = parse_program(
            "PROGRAM s\nPARAM m, t\nARRAY A(m)\n"
            f"DO k = 1, t\nDO i = 2, m\nA(i) = {read} + 1\nEND DO\nEND DO\nEND\n"
        )
        flow = [d for d in find_dependences(p) if d.kind == "flow"]
        assert len(flow) == 1
        along_k, along_i = flow[0].distance.entries
        assert along_k == "*" and abs(along_i) == inner
        assert loop_carried_arrays(p.loops()[0]) == frozenset({"A"})

    def test_output_dependence_detected(self):
        p = parse_program(
            "PROGRAM s\nPARAM m\nARRAY A(m)\n"
            "DO i = 1, m\nA(1) = 0.0\nA(1) = 1\nEND DO\nEND\n"
        )
        deps = find_dependences(p)
        assert any(d.kind == "output" for d in deps)

    def test_sources_precede_sinks(self):
        deps = find_dependences(jacobi_program())
        for d in deps:
            assert d.source.line <= d.sink.line or d.loop_carried
