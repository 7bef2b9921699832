"""DISTRIBUTE directives: parsing, schemes, cost comparison vs the DP."""

from __future__ import annotations

import pytest

from repro.costmodel import estimate_loop_cost
from repro.distribution import Kind
from repro.distribution.schemes import scheme_from_directives
from repro.dp import solve_program_distribution
from repro.errors import DistributionError, ParseError
from repro.lang import parse_program, program_to_text
from repro.machine.model import MachineModel

DIRECTIVE_JACOBI = """\
PROGRAM jacobi
PARAM m, maxiter
ARRAY A(m, m), V(m), B(m), X(m)
DISTRIBUTE A(BLOCK, *)
DISTRIBUTE V(BLOCK)
DISTRIBUTE B(BLOCK)
DISTRIBUTE X(*)
DO k = 1, maxiter
  DO i = 1, m
    V(i) = 0.0
    DO j = 1, m
      V(i) = V(i) + A(i, j) * X(j)
    END DO
  END DO
  DO i = 1, m
    X(i) = X(i) + (B(i) - V(i)) / A(i, i)
  END DO
END DO
END
"""


class TestParsing:
    def test_directives_recorded(self):
        p = parse_program(DIRECTIVE_JACOBI)
        assert p.directives["A"] == ("BLOCK", "*")
        assert p.directives["X"] == ("*",)

    def test_cyclic_spec(self):
        p = parse_program(
            "PROGRAM t\nPARAM m\nARRAY A(m, m)\nDISTRIBUTE A(CYCLIC, BLOCK)\nEND\n"
        )
        assert p.directives["A"] == ("CYCLIC", "BLOCK")

    def test_case_insensitive_spec(self):
        p = parse_program(
            "PROGRAM t\nPARAM m\nARRAY V(m)\nDISTRIBUTE V(block)\nEND\n"
        )
        assert p.directives["V"] == ("BLOCK",)

    def test_undeclared_array_rejected(self):
        with pytest.raises(ParseError):
            parse_program("PROGRAM t\nPARAM m\nDISTRIBUTE Q(BLOCK)\nEND\n")

    def test_duplicate_rejected(self):
        with pytest.raises(ParseError):
            parse_program(
                "PROGRAM t\nPARAM m\nARRAY V(m)\n"
                "DISTRIBUTE V(BLOCK)\nDISTRIBUTE V(CYCLIC)\nEND\n"
            )

    def test_rank_mismatch_rejected(self):
        with pytest.raises(ParseError):
            parse_program(
                "PROGRAM t\nPARAM m\nARRAY A(m, m)\nDISTRIBUTE A(BLOCK)\nEND\n"
            )

    def test_bad_specifier_rejected(self):
        with pytest.raises(ParseError):
            parse_program(
                "PROGRAM t\nPARAM m\nARRAY V(m)\nDISTRIBUTE V(DIAGONAL)\nEND\n"
            )

    def test_printer_roundtrip(self):
        p = parse_program(DIRECTIVE_JACOBI)
        text = program_to_text(p)
        assert "DISTRIBUTE A(BLOCK, *)" in text
        again = parse_program(text)
        assert again.directives == p.directives


class TestSchemeFromDirectives:
    def test_placements(self):
        p = parse_program(DIRECTIVE_JACOBI)
        scheme = scheme_from_directives(p)
        a = scheme.placement("A")
        assert a.dim_map == (1, None)
        assert scheme.placement("V").dim_map == (1,)
        # X(*): 1-D with no distributed dim.
        assert scheme.placement("X").dim_map == (None,)

    def test_cyclic_kind(self):
        p = parse_program(
            "PROGRAM t\nPARAM m\nARRAY A(m, m)\nDISTRIBUTE A(CYCLIC, BLOCK)\nEND\n"
        )
        scheme = scheme_from_directives(p)
        assert scheme.placement("A").kinds == (Kind.CYCLIC, Kind.BLOCK)
        assert scheme.placement("A").dim_map == (1, 2)

    def test_undirected_arrays_replicated(self):
        p = parse_program(DIRECTIVE_JACOBI)
        # Remove X's directive to exercise the default.
        del p.directives["X"]
        scheme = scheme_from_directives(p)
        assert scheme.placement("X").is_fully_replicated()

    def test_non_program_rejected(self):
        with pytest.raises(DistributionError):
            scheme_from_directives("not a program")  # type: ignore[arg-type]


class TestDirectivesVsDp:
    def test_dp_never_loses_to_user_directives(self):
        """The automatically derived plan costs no more than the
        hand-written Fortran-D-style directives — the paper's motivation
        for deriving distributions instead of asking the programmer."""
        model = MachineModel(tf=1, tc=10)
        m, n = 64, 8
        p = parse_program(DIRECTIVE_JACOBI)
        scheme = scheme_from_directives(p)
        outer = p.loops()[0]
        l1, l2 = outer.body
        env = {"m": m, "maxiter": 1}
        c1 = estimate_loop_cost(l1, scheme, (n, 1), env, model)
        c2 = estimate_loop_cost(l2, scheme, (n, 1), env, model)
        directive_total = c1.total + c2.total
        assert directive_total > 0

        _tables, result = solve_program_distribution(p, n, env, model)
        # DP total includes the loop-carried boundary cost; the directive
        # scheme pays its X traffic inside the loops instead.
        assert result.cost <= directive_total

    def test_directive_computation_is_sound(self):
        """The directive scheme still gets the computation split right."""
        model = MachineModel(tf=1, tc=10)
        m, n = 64, 8
        p = parse_program(DIRECTIVE_JACOBI)
        scheme = scheme_from_directives(p)
        l1 = p.loops()[0].body[0]
        c1 = estimate_loop_cost(l1, scheme, (n, 1), {"m": m, "maxiter": 1}, model)
        assert c1.comp == 2 * m * m / n
