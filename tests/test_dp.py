"""Algorithm 1 tests: DP vs brute force, paper's Jacobi walkthrough."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.costmodel import jacobi_dp_time
from repro.dp import algorithm1, build_phase_tables, solve_program_distribution
from repro.dp.algorithm1 import brute_force_min_cost
from repro.errors import CostModelError
from repro.lang import jacobi_program, parse_program
from repro.machine.model import MachineModel

MODEL = MachineModel(tf=1, tc=10)


def table_oracles(costs: dict, schemes: dict | None = None):
    """Build M/P callables from dicts keyed by (i, j)."""
    schemes = schemes or {key: key for key in costs}
    return (lambda i, j: costs[(i, j)]), (lambda i, j: schemes[(i, j)])


class TestAlgorithm1Mechanics:
    def test_single_loop(self):
        M, P = table_oracles({(1, 1): 7.0})
        res = algorithm1(1, M, P, lambda a, b: 0, lambda a, b: 3)
        assert res.cost == 10.0
        assert res.segments == ((1, 1),)

    def test_fusion_wins_when_change_expensive(self):
        costs = {(1, 1): 5, (2, 1): 5, (1, 2): 12}
        M, P = table_oracles(costs)
        res = algorithm1(2, M, P, lambda a, b: 100, lambda a, b: 0)
        assert res.segments == ((1, 2),)
        assert res.cost == 12

    def test_split_wins_when_change_cheap(self):
        costs = {(1, 1): 5, (2, 1): 5, (1, 2): 12}
        M, P = table_oracles(costs)
        res = algorithm1(2, M, P, lambda a, b: 1, lambda a, b: 0)
        assert res.segments == ((1, 1), (2, 1))
        assert res.cost == 11

    def test_loop_carried_breaks_tie(self):
        costs = {(1, 1): 5, (2, 1): 5, (1, 2): 10}

        def lc(first, last):
            # Penalize the fused scheme's boundary.
            return 100 if first == (1, 2) else 0

        M, P = table_oracles(costs)
        res = algorithm1(2, M, P, lambda a, b: 0, lc)
        assert res.segments == ((1, 1), (2, 1))

    def test_change_costs_recorded(self):
        costs = {(1, 1): 1, (2, 1): 1, (1, 2): 100}
        M, P = table_oracles(costs)
        res = algorithm1(2, M, P, lambda a, b: 7, lambda a, b: 0)
        assert res.change_costs == (7,)
        assert res.cost == 1 + 7 + 1

    def test_describe(self):
        costs = {(1, 1): 1, (2, 1): 2, (1, 2): 9}
        M, P = table_oracles(costs)
        res = algorithm1(2, M, P, lambda a, b: 0, lambda a, b: 0)
        assert "L1" in res.describe() and "total" in res.describe()

    def test_invalid_s(self):
        with pytest.raises(CostModelError):
            algorithm1(0, lambda i, j: 0, lambda i, j: 0, lambda a, b: 0, lambda a, b: 0)

    @settings(max_examples=40, deadline=None)
    @given(s=st.integers(1, 6), seed=st.integers(0, 10_000))
    def test_dp_equals_brute_force(self, s, seed):
        """Property: the DP minimum equals exhaustive enumeration."""
        import random

        rnd = random.Random(seed)
        costs = {}
        for i in range(1, s + 1):
            for j in range(1, s - i + 2):
                costs[(i, j)] = rnd.randint(0, 50)
        M, P = table_oracles(costs)

        def change(a, b):
            return (hash((a, b)) % 7)

        def lc(first, last):
            return (hash((last, first)) % 5)

        dp = algorithm1(s, M, P, change, lc)
        bf_cost, _bf_segs = brute_force_min_cost(s, M, P, change, lc)
        assert dp.cost == bf_cost


class TestJacobiWalkthrough:
    """The paper's §4 worked example, m=256, N=16."""

    @pytest.fixture(scope="class")
    def solved(self):
        return solve_program_distribution(
            jacobi_program(), 16, {"m": 256, "maxiter": 1}, MODEL
        )

    def test_chooses_per_loop_schemes(self, solved):
        _tables, result = solved
        assert result.segments == ((1, 1), (2, 1))

    def test_ctime1_zero(self, solved):
        """No communication is needed to change layouts L1 -> L2."""
        _tables, result = solved
        assert result.change_costs == (0.0,)

    def test_loop_carried_is_m_tc(self, solved):
        """CTime2 = ManyToManyMulticast(m/N, N) ~ m * tc."""
        _tables, result = solved
        m, n, tc = 256, 16, 10
        assert result.loop_carried == (n - 1) * (m / n) * tc

    def test_total_matches_paper_formula(self, solved):
        """(2 m^2/N + 3 m/N) tf + m tc — §4's headline result."""
        _tables, result = solved
        expected = jacobi_dp_time(256, 16, MODEL).total
        assert result.cost == pytest.approx(expected)

    def test_fused_segment_costlier(self, solved):
        tables, result = solved
        assert tables.M(1, 2) > tables.M(1, 1) + tables.M(2, 1)

    def test_grids_are_Nx1(self, solved):
        tables, _ = solved
        assert tables.entry(1, 1).grid == (16, 1)
        assert tables.entry(2, 1).grid == (16, 1)

    def test_dp_equals_brute_force_on_jacobi(self, solved):
        tables, result = solved
        bf_cost, bf_segs = brute_force_min_cost(
            tables.s, tables.M, tables.P, tables.change_cost, tables.loop_carried_cost
        )
        assert result.cost == bf_cost
        assert result.segments == bf_segs


class TestPhaseTables:
    def test_entry_missing(self):
        tables = build_phase_tables(jacobi_program(), 4, {"m": 32, "maxiter": 1}, MODEL)
        with pytest.raises(CostModelError):
            tables.entry(9, 9)

    def test_array_sizes(self):
        tables = build_phase_tables(jacobi_program(), 4, {"m": 32, "maxiter": 1}, MODEL)
        sizes = tables.array_sizes()
        assert sizes["A"] == 32 * 32 and sizes["X"] == 32

    def test_three_loop_sequence(self):
        """A synthetic three-phase program exercises deeper DP tables."""
        src = (
            "PROGRAM three\nPARAM m, t\nARRAY A(m, m), U(m), V(m), W(m)\n"
            "DO k = 1, t\n"
            "  DO i = 1, m\n    U(i) = 0.0\n    DO j = 1, m\n"
            "      U(i) = U(i) + A(i, j) * V(j)\n    END DO\n  END DO\n"
            "  DO i = 1, m\n    W(i) = W(i) + U(i)\n  END DO\n"
            "  DO i = 1, m\n    V(i) = V(i) + W(i)\n  END DO\n"
            "END DO\nEND\n"
        )
        program = parse_program(src)
        tables = build_phase_tables(program, 8, {"m": 64, "t": 1}, MODEL)
        assert tables.s == 3
        result = tables.solve()
        bf_cost, _ = brute_force_min_cost(
            3, tables.M, tables.P, tables.change_cost, tables.loop_carried_cost
        )
        assert result.cost == bf_cost

    def test_no_loops_raises(self):
        program = parse_program("PROGRAM t\nPARAM m\nARRAY V(m)\nV(1) = 0.0\nEND\n")
        with pytest.raises(CostModelError):
            build_phase_tables(program, 4, {"m": 8}, MODEL)
