"""Adaptive Jacobi (reduction-step convergence) and Fortran listings."""

from __future__ import annotations

import numpy as np
import pytest

from repro.codegen import generate_spmd
from repro.codegen.fortran_listing import fortran_listing
from repro.errors import CodegenError
from repro.kernels.jacobi import jacobi_rowdist_adaptive
from repro.lang import gauss_program, jacobi_program, matmul_program, sor_program
from repro.lang.programs import JACOBI_SOURCE
from repro.machine import MachineModel, Ring, run_spmd
from tests.test_source_lattice import solution

MODEL = MachineModel(tf=1, tc=10)


class TestAdaptiveJacobi:
    def test_converges_to_solution(self, medium_system):
        A, b, x_true = medium_system
        res = run_spmd(
            jacobi_rowdist_adaptive, Ring(4), MODEL, args=(A, b, np.zeros(32), 1e-10, 200)
        )
        x, iters = res.value(0)
        np.testing.assert_allclose(x, x_true, atol=1e-8)
        assert iters < 200

    def test_all_ranks_agree_on_iteration_count(self, medium_system):
        A, b, _ = medium_system
        res = run_spmd(
            jacobi_rowdist_adaptive, Ring(8), MODEL, args=(A, b, np.zeros(32), 1e-8, 100)
        )
        counts = {v[1] for v in res.values}
        assert len(counts) == 1

    def test_respects_max_iterations(self, medium_system):
        A, b, _ = medium_system
        res = run_spmd(
            jacobi_rowdist_adaptive, Ring(4), MODEL, args=(A, b, np.zeros(32), 0.0, 7)
        )
        _x, iters = res.value(0)
        assert iters == 7

    def test_matches_fixed_iteration_kernel(self, medium_system):
        """With an unreachable tolerance, N sweeps = plain Jacobi N sweeps."""
        A, b, _ = medium_system
        res = run_spmd(
            jacobi_rowdist_adaptive, Ring(4), MODEL, args=(A, b, np.zeros(32), 0.0, 9)
        )
        x, _ = res.value(0)
        np.testing.assert_allclose(x, solution(JACOBI_SOURCE, A, b, 9), atol=1e-12)

    def test_tight_tolerance_stops_early_vs_loose(self, medium_system):
        A, b, _ = medium_system
        loose = run_spmd(
            jacobi_rowdist_adaptive, Ring(4), MODEL, args=(A, b, np.zeros(32), 1e-2, 100)
        ).value(0)[1]
        tight = run_spmd(
            jacobi_rowdist_adaptive, Ring(4), MODEL, args=(A, b, np.zeros(32), 1e-12, 100)
        ).value(0)[1]
        assert loose < tight


class TestFortranListing:
    def test_sor_listing_shape(self):
        text = fortran_listing(generate_spmd(sor_program()))
        assert "receive_from_left( V(i) )" in text
        assert "send_to_right( V(current) )" in text
        assert "omega" in text
        assert text.splitlines()[0].strip().startswith("1")

    def test_gauss_listing_shape(self):
        text = fortran_listing(generate_spmd(gauss_program()))
        assert "L(i, k) = A(i, k) / Apipeline(k)" in text
        assert "receive_from_right( Xpipeline )" in text

    def test_jacobi_listing_shape(self):
        text = fortran_listing(generate_spmd(jacobi_program()))
        assert "many_to_many_multicast" in text
        assert "V(i) = V(i) + A(i, j) * X(j)" in text

    def test_renamed_arrays_propagate(self):
        from repro.lang import parse_program

        text_src = (
            "PROGRAM t\nPARAM size, steps\nSCALAR w\n"
            "ARRAY K(size, size), R(size), F(size), U(size)\n"
            "DO t = 1, steps\n  DO i = 1, size\n    R(i) = 0.0\n"
            "    DO j = 1, size\n      R(i) = R(i) + K(i, j) * U(j)\n    END DO\n"
            "    U(i) = U(i) + w * (F(i) - R(i)) / K(i, i)\n  END DO\nEND DO\nEND\n"
        )
        listing = fortran_listing(generate_spmd(parse_program(text_src)))
        assert "K(current, j) * U(j)" in listing
        assert "w *" in listing

    def test_cannon_has_no_listing(self):
        with pytest.raises(CodegenError):
            fortran_listing(generate_spmd(matmul_program()))
