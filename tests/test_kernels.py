"""SPMD kernel tests: numerics vs sequential references, timing shapes."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import EvaluationError, MachineError
from repro.kernels import (
    cannon_matmul,
    gauss_broadcast,
    gauss_pipelined,
    jacobi_coldist,
    jacobi_grid2d,
    jacobi_rowdist,
    make_spd_system,
    sor_naive,
    sor_pipelined,
)
from repro.kernels.cannon import assemble_blocks
from repro.lang.interp import interpret
from repro.lang.parser import parse_program
from repro.lang.programs import GAUSS_SOURCE, JACOBI_SOURCE, SOR_SOURCE
from repro.machine import Grid2D, MachineModel, Ring, run_spmd
from tests.test_source_lattice import solution

MODEL = MachineModel(tf=1, tc=10)


class TestSequentialReferences:
    """The paper's listings, run by the interpreter, are the references."""

    def test_jacobi_converges(self, medium_system):
        A, b, x_true = medium_system
        np.testing.assert_allclose(solution(JACOBI_SOURCE, A, b, 60), x_true, atol=1e-8)

    def test_sor_converges_faster_than_jacobi(self, medium_system):
        """The paper motivates SOR as converging faster than Jacobi."""
        A, b, x_true = medium_system
        ej = np.linalg.norm(solution(JACOBI_SOURCE, A, b, 12) - x_true)
        es = np.linalg.norm(solution(SOR_SOURCE, A, b, 12, omega=1.0) - x_true)
        assert es < ej

    def test_gauss_solves(self, medium_system):
        A, b, _ = medium_system
        np.testing.assert_allclose(solution(GAUSS_SOURCE, A, b), np.linalg.solve(A, b), atol=1e-8)

    def test_gauss_zero_pivot_rejected(self):
        A = np.array([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(EvaluationError, match=r"A\(k, k\)\) divides by zero"):
            solution(GAUSS_SOURCE, A, np.ones(2))

    def test_jacobi_zero_diag_rejected(self):
        A = np.array([[0.0, 1.0], [1.0, 1.0]])
        with pytest.raises(EvaluationError, match=r"A\(i, i\)\) divides by zero"):
            solution(JACOBI_SOURCE, A, np.ones(2), 1)

    def test_out_of_range_subscript_rejected(self):
        """NumPy would read ``W(0)`` as the last element; the source has no such element."""
        program = parse_program("PROGRAM t\nPARAM m\nARRAY U(m), W(m)\nDO i = 1, m\nU(i) = W(i - 1)\nEND DO\nEND\n")
        with pytest.raises(EvaluationError, match=r"W\(i - 1\) is element \(0,\), outside W\(4,\)"):
            interpret(program, {"m": 4}, {"W": np.arange(4.0)})

    def test_zero_divisor_rejected(self):
        program = parse_program("PROGRAM t\nPARAM m\nSCALAR s\nARRAY U(m)\nDO i = 1, m\nU(i) = mod(i, s)\nEND DO\nEND\n")
        np.testing.assert_array_equal(interpret(program, {"m": 3}, {}, {"s": 2})["U"], [1, 0, 1])
        with pytest.raises(EvaluationError, match="divides by zero"):
            interpret(program, {"m": 3}, {}, {"s": 0})

    def test_make_spd_system_consistent(self):
        A, b, x = make_spd_system(10, seed=5)
        np.testing.assert_allclose(A @ x, b)

    def test_make_spd_diagonally_dominant(self):
        A, _, _ = make_spd_system(12, seed=1)
        off = np.abs(A).sum(axis=1) - np.abs(np.diag(A))
        assert (np.abs(np.diag(A)) > off).all()


class TestJacobiKernels:
    ITERS = 15

    @pytest.mark.parametrize("nprocs", [1, 2, 4, 8])
    def test_rowdist_matches_seq(self, medium_system, nprocs):
        A, b, _ = medium_system
        ref = solution(JACOBI_SOURCE, A, b, self.ITERS)
        res = run_spmd(jacobi_rowdist, Ring(nprocs), MODEL, args=(A, b, np.zeros(32), self.ITERS))
        for rank in range(nprocs):
            np.testing.assert_allclose(res.value(rank), ref, atol=1e-12)

    @pytest.mark.parametrize("nprocs", [1, 2, 4, 8])
    def test_coldist_matches_seq(self, medium_system, nprocs):
        A, b, _ = medium_system
        ref = solution(JACOBI_SOURCE, A, b, self.ITERS)
        res = run_spmd(jacobi_coldist, Ring(nprocs), MODEL, args=(A, b, np.zeros(32), self.ITERS))
        np.testing.assert_allclose(res.value(0), ref, atol=1e-12)

    @pytest.mark.parametrize("shape", [(1, 1), (2, 2), (4, 2), (1, 4)])
    def test_grid2d_matches_seq(self, medium_system, shape):
        A, b, _ = medium_system
        ref = solution(JACOBI_SOURCE, A, b, self.ITERS)
        res = run_spmd(
            jacobi_grid2d,
            Grid2D(*shape),
            MODEL,
            args=(A, b, np.zeros(32), self.ITERS, shape),
        )
        for rank in range(shape[0] * shape[1]):
            np.testing.assert_allclose(res.value(rank), ref, atol=1e-12)

    def test_grid2d_shape_mismatch(self, medium_system):
        A, b, _ = medium_system
        with pytest.raises(MachineError):
            run_spmd(jacobi_grid2d, Grid2D(2, 2), MODEL, args=(A, b, np.zeros(32), 1, (3, 1)))

    def test_rowdist_fastest_of_three(self, medium_system):
        """§4's claim: the DP (row) scheme beats §3's alternatives."""
        A, b, _ = medium_system
        args = (A, b, np.zeros(32), self.ITERS)
        t_row = run_spmd(jacobi_rowdist, Ring(4), MODEL, args=args).makespan
        t_col = run_spmd(jacobi_coldist, Ring(4), MODEL, args=args).makespan
        t_2d = run_spmd(
            jacobi_grid2d, Grid2D(2, 2), MODEL, args=args + ((2, 2),)
        ).makespan
        assert t_row < t_2d
        assert t_row < t_col

    def test_rowdist_scales(self, medium_system):
        A, b, _ = medium_system
        args = (A, b, np.zeros(32), self.ITERS)
        t1 = run_spmd(jacobi_rowdist, Ring(1), MODEL, args=args).makespan
        t4 = run_spmd(jacobi_rowdist, Ring(4), MODEL, args=args).makespan
        assert t4 < t1


class TestSorKernels:
    ITERS = 8

    @pytest.mark.parametrize("nprocs", [1, 2, 4, 8])
    @pytest.mark.parametrize("omega", [1.0, 1.2])
    def test_naive_matches_seq(self, medium_system, nprocs, omega):
        A, b, _ = medium_system
        ref = solution(SOR_SOURCE, A, b, self.ITERS, omega)
        res = run_spmd(sor_naive, Ring(nprocs), MODEL, args=(A, b, np.zeros(32), omega, self.ITERS))
        np.testing.assert_allclose(res.value(0), ref, atol=1e-12)

    @pytest.mark.parametrize("nprocs", [1, 2, 4, 8])
    @pytest.mark.parametrize("omega", [1.0, 1.2])
    def test_pipelined_matches_seq(self, medium_system, nprocs, omega):
        A, b, _ = medium_system
        ref = solution(SOR_SOURCE, A, b, self.ITERS, omega)
        res = run_spmd(
            sor_pipelined, Ring(nprocs), MODEL, args=(A, b, np.zeros(32), omega, self.ITERS)
        )
        np.testing.assert_allclose(res.value(0), ref, atol=1e-12)

    def test_pipelined_requires_divisible(self, medium_system):
        A, b, _ = medium_system
        with pytest.raises(MachineError):
            run_spmd(sor_pipelined, Ring(5), MODEL, args=(A, b, np.zeros(32), 1.0, 1))

    def test_pipelined_beats_naive(self, medium_system):
        """§5's claim, measured on the simulator."""
        A, b, _ = medium_system
        args = (A, b, np.zeros(32), 1.0, self.ITERS)
        t_naive = run_spmd(sor_naive, Ring(4), MODEL, args=args).makespan
        t_pipe = run_spmd(sor_pipelined, Ring(4), MODEL, args=args).makespan
        assert t_pipe < t_naive

    def test_pipelined_within_paper_bound(self, medium_system):
        """Per-iteration time <= (m + N)(2 (m/N) tf + 2 tc) + slack for
        the final allgather."""
        from repro.costmodel import sor_pipelined_time

        A, b, _ = medium_system
        m, n, iters = 32, 4, self.ITERS
        res = run_spmd(sor_pipelined, Ring(n), MODEL, args=(A, b, np.zeros(m), 1.0, iters))
        bound = iters * sor_pipelined_time(m, n, MODEL).total
        allgather_slack = 2 * m * MODEL.tc
        assert res.makespan <= bound + allgather_slack

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 1000))
    def test_pipelined_equals_seq_random_systems(self, seed):
        """Property: pipeline reordering never changes the numerics."""
        A, b, _ = make_spd_system(16, seed=seed)
        ref = solution(SOR_SOURCE, A, b, 4, 1.1)
        res = run_spmd(sor_pipelined, Ring(4), MODEL, args=(A, b, np.zeros(16), 1.1, 4))
        np.testing.assert_allclose(res.value(0), ref, atol=1e-12)


class TestGaussKernels:
    @pytest.mark.parametrize("nprocs", [1, 2, 3, 4, 8])
    def test_broadcast_matches_seq(self, medium_system, nprocs):
        A, b, _ = medium_system
        ref = solution(GAUSS_SOURCE, A, b)
        res = run_spmd(gauss_broadcast, Ring(nprocs), MODEL, args=(A, b))
        for rank in range(nprocs):
            np.testing.assert_allclose(res.value(rank), ref, atol=1e-9)

    @pytest.mark.parametrize("nprocs", [1, 2, 3, 4, 8])
    def test_pipelined_matches_seq(self, medium_system, nprocs):
        A, b, _ = medium_system
        ref = solution(GAUSS_SOURCE, A, b)
        res = run_spmd(gauss_pipelined, Ring(nprocs), MODEL, args=(A, b))
        for rank in range(nprocs):
            np.testing.assert_allclose(res.value(rank), ref, atol=1e-9)

    def test_pipelined_wins_at_large_n(self):
        """§6: Shift pipelining beats multicast once log N grows."""
        A, b, _ = make_spd_system(96, seed=9)
        t_b = run_spmd(gauss_broadcast, Ring(16), MODEL, args=(A, b)).makespan
        t_p = run_spmd(gauss_pipelined, Ring(16), MODEL, args=(A, b)).makespan
        assert t_p < t_b

    def test_pipelined_fewer_bytes_than_broadcast(self):
        A, b, _ = make_spd_system(32, seed=9)
        rb = run_spmd(gauss_broadcast, Ring(8), MODEL, args=(A, b))
        rp = run_spmd(gauss_pipelined, Ring(8), MODEL, args=(A, b))
        assert rp.message_words <= rb.message_words

    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(0, 1000))
    def test_pipelined_equals_broadcast_numerics(self, seed):
        A, b, _ = make_spd_system(20, seed=seed)
        rb = run_spmd(gauss_broadcast, Ring(4), MODEL, args=(A, b))
        rp = run_spmd(gauss_pipelined, Ring(4), MODEL, args=(A, b))
        np.testing.assert_allclose(rb.value(0), rp.value(0), atol=1e-10)


class TestCannon:
    @pytest.mark.parametrize("q", [1, 2, 3, 4])
    def test_matches_numpy(self, rng, q):
        n = 12 * q if q != 3 else 12
        B = rng.random((n, n))
        C = rng.random((n, n))
        res = run_spmd(cannon_matmul, Grid2D(q, q), MODEL, args=(B, C, q))
        got = assemble_blocks(res.values, q)
        np.testing.assert_allclose(got, B @ C, atol=1e-10)

    def test_requires_square_grid(self, rng):
        B = rng.random((8, 8))
        with pytest.raises(MachineError):
            run_spmd(cannon_matmul, Grid2D(2, 3), MODEL, args=(B, B, 2))

    def test_requires_divisible(self, rng):
        B = rng.random((9, 9))
        with pytest.raises(MachineError):
            run_spmd(cannon_matmul, Grid2D(2, 2), MODEL, args=(B, B, 2))

    def test_message_count_is_2q_shifts(self, rng):
        """Cannon does (q-1) rounds of 2 shifts; each shift = q^2 messages."""
        q, n = 3, 12
        B = rng.random((n, n))
        res = run_spmd(cannon_matmul, Grid2D(q, q), MODEL, args=(B, B, q))
        assert res.message_count == (q - 1) * 2 * q * q

    def test_no_initial_skew_communication(self, rng):
        """The rotated layout (Fig 1 b/c) removes the skew phase: a 1-step
        grid (q=1) communicates nothing at all."""
        B = rng.random((4, 4))
        res = run_spmd(cannon_matmul, Grid2D(1, 1), MODEL, args=(B, B, 1))
        assert res.message_count == 0
