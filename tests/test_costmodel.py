"""Cost model tests: Table 1 primitives, Table 2 formulas, grid search."""

from __future__ import annotations

import math

import pytest

from repro.costmodel import (
    gauss_pipelined_time,
    grid_candidates,
    jacobi_dp_time,
    jacobi_section3_time,
    sor_naive_time,
    sor_pipelined_time,
)
from repro.costmodel.gridsearch import best_grid
from repro.costmodel.formulas import gauss_broadcast_time
from repro.costmodel.primitives import (
    AFFINE_TRANSFORM,
    GATHER,
    MANY_TO_MANY,
    ONE_TO_MANY,
    REDUCTION,
    SCATTER,
    SHIFT,
    TRANSFER,
)
from repro.errors import CostModelError
from repro.machine.model import MachineModel

MODEL = MachineModel(tf=1, tc=10)


def cost(row, m, nprocs=2, model=MODEL):
    """One invocation of a Table 1 row, priced by *model*."""
    return row.cost(model, m, nprocs)


class TestPrimitives:
    def test_transfer_linear_in_m(self):
        assert cost(TRANSFER, 64) == 2 * cost(TRANSFER, 32)

    def test_shift_equals_transfer(self):
        assert cost(SHIFT, 7) == cost(TRANSFER, 7)

    def test_one_to_many_log(self):
        assert cost(ONE_TO_MANY, 8, 16) == 8 * 10 * 4

    def test_reduction_log(self):
        assert cost(REDUCTION, 8, 16) == cost(ONE_TO_MANY, 8, 16)

    def test_affine_transform_log(self):
        assert cost(AFFINE_TRANSFORM, 8, 16) == cost(ONE_TO_MANY, 8, 16)

    def test_scatter_linear_in_p(self):
        assert cost(SCATTER, 8, 5) == 4 * 8 * 10

    def test_gather_equals_scatter(self):
        assert cost(GATHER, 8, 5) == cost(SCATTER, 8, 5)

    def test_many_to_many_linear(self):
        assert cost(MANY_TO_MANY, 8, 5) == 4 * 8 * 10

    def test_single_processor_free(self):
        for row in (ONE_TO_MANY, REDUCTION, SCATTER, GATHER, MANY_TO_MANY):
            assert cost(row, 100, 1) == 0

    def test_alpha_included(self):
        model = MachineModel(tf=1, tc=1, alpha=100)
        assert cost(TRANSFER, 1, model=model) == 101
        assert cost(SCATTER, 1, 3, model=model) == 2 * 101

    def test_invalid_nprocs(self):
        with pytest.raises(CostModelError):
            cost(ONE_TO_MANY, 1, 0)

    def test_table1_ordering(self):
        """Log collectives cheaper than linear ones for big P, same m."""
        m, P = 32, 64
        assert cost(ONE_TO_MANY, m, P) < cost(MANY_TO_MANY, m, P)
        assert cost(REDUCTION, m, P) < cost(GATHER, m, P)

    def test_a_row_counts_rounds_of_m_words(self):
        assert ONE_TO_MANY.counts(8, 16) == (4, 32)
        assert SCATTER.counts(8, 5, times=3) == (12, 96)
        assert TRANSFER.counts(8, 1000) == (1, 8)

    def test_a_model_prices_a_count_vector(self):
        model = MachineModel(tf=2, tc=3, alpha=5)
        assert model.seconds(7, 11, 13) == 7 * 2 + 11 * 5 + 13 * 3
        assert cost(ONE_TO_MANY, 6, 8, model=model) == model.seconds(0, 3, 18)


class TestMachineModelValidation:
    def test_negative_tf(self):
        with pytest.raises(CostModelError):
            MachineModel(tf=-1)

    def test_negative_tc(self):
        with pytest.raises(CostModelError):
            MachineModel(tc=-0.1)

    @pytest.mark.parametrize("field", ["tf", "tc", "alpha", "hop_cost"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, field, value):
        with pytest.raises(CostModelError, match=field):
            MachineModel(**{field: value})

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_machine_stops_before_a_session_is_built(self, value):
        """The user path that reached a bare ``AssertionError`` in Algorithm 1
        now stops at ``MachineModel`` construction, before ``Session`` or
        ``compile`` runs, with the typed error."""
        from repro.api import Session
        from repro.lang.programs import JACOBI_SOURCE

        with pytest.raises(CostModelError):
            Session(machine=MachineModel(tf=value)).compile(
                JACOBI_SOURCE, nprocs=16, env={"m": 64, "maxiter": 1}
            )

    def test_flops_words(self):
        m = MachineModel(tf=2, tc=3, alpha=1)
        assert m.flops(10) == 20
        assert m.words(10) == 31


class TestJacobiFormulas:
    """Table 2 of the paper, m=256, N=16, tf=1, tc=10."""

    M, N = 256, 16

    @pytest.fixture
    def model(self):
        return MachineModel(tf=1, tc=10)

    def test_row1_grid_1xN(self, model):
        t = jacobi_section3_time(self.M, 1, self.N, model)
        assert t.comp == 2 * self.M**2 / self.N + 3 * self.M / self.N
        assert t.comm == 2 * self.M * math.log2(self.N) * 10

    def test_row2_grid_Nx1(self, model):
        t = jacobi_section3_time(self.M, self.N, 1, model)
        assert t.comp == 2 * self.M**2 / self.N + 3 * self.M
        assert t.comm == (self.M + self.M * math.log2(self.N)) * 10

    def test_row3_grid_sqrt(self, model):
        t = jacobi_section3_time(self.M, 4, 4, model)
        assert t.comp == 2 * self.M**2 / self.N + 3 * self.M / 4
        # Reduction(m/4, 4) + 4*OneToMany(m/4, 4) + OneToMany(m, 4)
        expected = (self.M / 4) * 2 * 10 + 4 * (self.M / 4) * 2 * 10 + self.M * 2 * 10
        assert t.comm == expected

    def test_paper_conclusion_1xN_best_comp_worst_comm(self, model):
        """§3: (1, N) wins computation but loses to the others on
        communication — 'this distribution scheme cannot be satisfied'."""
        rows = {
            (1, self.N): jacobi_section3_time(self.M, 1, self.N, model),
            (self.N, 1): jacobi_section3_time(self.M, self.N, 1, model),
            (4, 4): jacobi_section3_time(self.M, 4, 4, model),
        }
        comp_best = min(rows, key=lambda k: rows[k].comp)
        comm_worst = max(rows, key=lambda k: rows[k].comm)
        assert comp_best == (1, self.N)
        assert comm_worst == (1, self.N)

    def test_dp_formula(self, model):
        """§4: (2 m^2/N + 3 m/N) tf + m tc."""
        t = jacobi_dp_time(self.M, self.N, model)
        assert t.comp == (2 * self.M**2 + 3 * self.M) / self.N
        assert t.comm == (self.N - 1) / self.N * self.M * 10  # ring allgather ~ m tc

    def test_dp_beats_all_section3_grids(self, model):
        dp = jacobi_dp_time(self.M, self.N, model).total
        for n1, n2 in [(1, self.N), (self.N, 1), (4, 4)]:
            assert dp < jacobi_section3_time(self.M, n1, n2, model).total

    def test_invalid_size(self, model):
        with pytest.raises(CostModelError):
            jacobi_dp_time(0, 4, model)


class TestSorFormulas:
    @pytest.fixture
    def model(self):
        return MachineModel(tf=1, tc=10)

    def test_naive_formula(self, model):
        m, n = 256, 16
        t = sor_naive_time(m, n, model)
        assert t.comp == 2 * m**2 / n + 4 * m
        assert t.comm == m * (math.log2(n) + 1) * 10

    def test_pipelined_formula(self, model):
        m, n = 256, 16
        t = sor_pipelined_time(m, n, model)
        assert t.total == (m + n) * (2 * (m / n) * 1 + 2 * 10)

    def test_paper_conclusion_pipelined_wins(self, model):
        """§5: pipelined beats naive for the paper's regime."""
        for m, n in [(64, 4), (256, 16), (1024, 32)]:
            assert sor_pipelined_time(m, n, model).total < sor_naive_time(m, n, model).total

    def test_pipeline_fill_term(self, model):
        """The (m + N) factor: more processors = longer fill."""
        t8 = sor_pipelined_time(64, 8, model)
        t64 = sor_pipelined_time(64, 64, model)
        assert t64.comm > t8.comm


class TestGaussFormulas:
    @pytest.fixture
    def model(self):
        return MachineModel(tf=1, tc=10)

    def test_same_computation(self, model):
        b = gauss_broadcast_time(128, 8, model)
        p = gauss_pipelined_time(128, 8, model)
        assert b.comp == p.comp

    def test_pipelined_wins_at_scale(self, model):
        """§6's point: multicast per pivot is excessive for large N."""
        b = gauss_broadcast_time(256, 32, model)
        p = gauss_pipelined_time(256, 32, model)
        assert p.comm < b.comm

    def test_comm_ratio_grows_with_n(self, model):
        def ratio(n):
            return (
                gauss_broadcast_time(256, n, model).comm
                / gauss_pipelined_time(256, n, model).comm
            )

        assert ratio(64) > ratio(8) > ratio(2)


class TestGridSearch:
    def test_candidates_cover_divisors(self):
        assert grid_candidates(12) == [(12, 1), (6, 2), (4, 3), (3, 4), (2, 6), (1, 12)]

    def test_candidates_prime(self):
        assert grid_candidates(7) == [(7, 1), (1, 7)]

    def test_invalid(self):
        with pytest.raises(CostModelError):
            grid_candidates(0)

    def test_best_grid_beats_paper_table2_shapes(self):
        """The search at least matches the best of the paper's three
        canonical Table 2 shapes (it may find a better intermediate one;
        the paper only compared (1,N), (N,1) and (sqrtN, sqrtN))."""
        model = MachineModel(tf=1, tc=10)

        def time_fn(n1, n2):
            return jacobi_section3_time(256, n1, n2, model).total

        shape, best, evals = best_grid(16, time_fn)
        canonical = min(time_fn(*s) for s in [(1, 16), (16, 1), (4, 4)])
        assert best <= canonical
        assert len(evals) == len(grid_candidates(16))

    def test_table2_canonical_ordering(self):
        """Among the paper's three shapes, (N,1) has the lowest total."""
        model = MachineModel(tf=1, tc=10)
        totals = {
            s: jacobi_section3_time(256, *s, model).total
            for s in [(1, 16), (16, 1), (4, 4)]
        }
        assert min(totals, key=totals.get) in [(16, 1), (4, 4)]
        assert max(totals, key=totals.get) == (1, 16)

    def test_best_grid_accepts_floats(self):
        shape, value, _ = best_grid(4, lambda a, b: a + 2 * b)
        assert shape == (4, 1) and value == 6

    def test_best_grid_nothing_finite_keeps_the_first_candidate(self):
        """As Algorithm 1's table builder always did: ``(N, 1)`` at ``inf``."""
        shape, value, evals = best_grid(12, lambda a, b: math.inf)
        assert (shape, value) == ((12, 1), math.inf)
        assert [s for s, _ in evals] == grid_candidates(12)
