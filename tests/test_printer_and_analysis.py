"""Printer round-trips and lang-level analysis queries."""

from __future__ import annotations

import pytest

from repro.lang import (
    gauss_program,
    jacobi_program,
    matmul_program,
    parse_program,
    program_to_text,
    sor_program,
)
from repro.lang.analysis import (
    arrays_used,
    assignments,
    collect_ref_sites,
    iteration_count,
    loop_depth,
    scalars_used,
)

ALL_PROGRAMS = [jacobi_program, sor_program, gauss_program, matmul_program]


class TestPrinterRoundTrip:
    @pytest.mark.parametrize("maker", ALL_PROGRAMS)
    def test_roundtrip_fixpoint(self, maker):
        p = maker()
        text = program_to_text(p)
        again = program_to_text(parse_program(text))
        assert text == again

    def test_minimal_parens(self):
        p = parse_program(
            "PROGRAM t\nPARAM m\nARRAY V(m)\nV(1) = 1 + 2 * 3\nEND\n"
        )
        assert "V(1) = 1 + 2 * 3" in program_to_text(p)

    def test_parens_kept_when_needed(self):
        p = parse_program(
            "PROGRAM t\nPARAM m\nARRAY V(m)\nV(1) = (1 + 2) * 3\nEND\n"
        )
        assert "(1 + 2) * 3" in program_to_text(p)

    def test_negative_step_printed(self):
        p = gauss_program()
        assert ", -1" in program_to_text(p)


class TestRefSites:
    def test_jacobi_site_count(self):
        sites = collect_ref_sites(jacobi_program())
        # V=0; V=V+A*X (4 refs); X=X+(B-V)/A (5 refs) -> 1+4+5 = 10
        assert len(sites) == 10

    def test_write_flags(self):
        sites = collect_ref_sites(jacobi_program())
        writes = [s for s in sites if s.is_write]
        assert {s.array for s in writes} == {"V", "X"}

    def test_loop_context(self):
        sites = collect_ref_sites(jacobi_program())
        acc = [s for s in sites if s.array == "A" and not s.is_write][0]
        assert acc.loop_vars == ("k", "i", "j")

    def test_line_numbers_increase(self):
        sites = collect_ref_sites(jacobi_program())
        lines = [s.line for s in sites]
        assert lines == sorted(lines)


class TestQueries:
    def test_arrays_used(self):
        assert arrays_used(gauss_program()) == frozenset("ALBVX")

    def test_scalars_used_finds_omega(self):
        used = scalars_used(sor_program())
        assert "omega" in used

    def test_scalars_used_excludes_subscript_vars(self):
        # Loop indices appear only inside affine subscripts, not as scalar
        # value references.
        assert "j" not in scalars_used(jacobi_program())

    def test_assignments_count_jacobi(self):
        assert len(assignments(jacobi_program())) == 3

    def test_loop_depth(self):
        outer = jacobi_program().loops()[0]
        assert loop_depth(outer) == 3  # k -> i -> j

    def test_iteration_count_rectangular(self):
        outer = matmul_program().loops()[0]
        # i*j*(init + k-loop body) = n*n*(1 + n)
        assert iteration_count(outer, {"n": 4}) == 4 * 4 * (1 + 4)

    def test_iteration_count_triangular(self):
        tri = gauss_program().loops()[0]
        m = 6
        expected = sum(
            (2 + (m - k)) for k in range(1, m + 1) for _i in range(k + 1, m + 1)
        )
        assert iteration_count(tri, {"m": m}) == expected

    def test_iteration_count_descending(self):
        back = gauss_program().loops()[2]
        m = 5
        # per j: X stmt (1) + (j-1) accumulate stmts
        assert iteration_count(back, {"m": m}) == sum(1 + (j - 1) for j in range(1, m + 1))
