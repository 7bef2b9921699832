"""Partially-pivoted parallel Gauss elimination (extension kernel)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.kernels import gauss_broadcast
from repro.kernels.gauss import gauss_pivoted
from repro.machine import MachineModel, Ring, run_spmd

MODEL = MachineModel(tf=1, tc=10)


def adversarial_system(m: int, seed: int = 3):
    """A random system whose leading pivot is catastrophically small."""
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((m, m))
    A[0, 0] = 1e-14
    x_true = rng.standard_normal(m)
    return A, A @ x_true, x_true


class TestPivoted:
    @pytest.mark.parametrize("nprocs", [1, 2, 3, 4, 8])
    def test_matches_numpy_on_general_matrices(self, nprocs):
        A, b, _ = adversarial_system(24)
        res = run_spmd(gauss_pivoted, Ring(nprocs), MODEL, args=(A, b))
        expected = np.linalg.solve(A, b)
        for rank in range(nprocs):
            np.testing.assert_allclose(res.value(rank), expected, atol=1e-10)

    def test_beats_unpivoted_on_small_pivot(self):
        A, b, x_true = adversarial_system(24)
        err_np = np.max(np.abs(
            run_spmd(gauss_broadcast, Ring(4), MODEL, args=(A, b)).value(0) - x_true
        ))
        err_p = np.max(np.abs(
            run_spmd(gauss_pivoted, Ring(4), MODEL, args=(A, b)).value(0) - x_true
        ))
        assert err_p < 1e-10
        assert err_np > 1e-4  # the paper's pivot-free algorithm fails here

    def test_block_distribution_variant(self):
        A, b, _ = adversarial_system(24, seed=9)
        res = run_spmd(gauss_pivoted, Ring(4), MODEL, args=(A, b, "block"))
        np.testing.assert_allclose(res.value(0), np.linalg.solve(A, b), atol=1e-10)

    def test_matches_on_dominant_systems_too(self, medium_system):
        A, b, _ = medium_system
        res = run_spmd(gauss_pivoted, Ring(4), MODEL, args=(A, b))
        np.testing.assert_allclose(res.value(0), np.linalg.solve(A, b), atol=1e-9)

    def test_singular_matrix_rejected(self):
        m = 8
        A = np.zeros((m, m))
        b = np.zeros(m)
        with pytest.raises(ZeroDivisionError):
            run_spmd(gauss_pivoted, Ring(2), MODEL, args=(A, b))

    def test_costs_more_than_pipelined(self, medium_system):
        """Pivot search is a per-step global sync: measurably slower than
        the §6 pipeline on matrices that do not need pivoting."""
        from repro.kernels import gauss_pipelined

        A, b, _ = medium_system
        t_pivot = run_spmd(gauss_pivoted, Ring(8), MODEL, args=(A, b)).makespan
        t_pipe = run_spmd(gauss_pipelined, Ring(8), MODEL, args=(A, b)).makespan
        assert t_pivot > t_pipe

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_general_matrices(self, seed):
        rng = np.random.default_rng(seed)
        m = 20
        A = rng.standard_normal((m, m))
        b = rng.standard_normal(m)
        res = run_spmd(gauss_pivoted, Ring(4), MODEL, args=(A, b))
        np.testing.assert_allclose(res.value(0), np.linalg.solve(A, b), atol=1e-8)
