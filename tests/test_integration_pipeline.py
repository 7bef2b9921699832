"""Whole-pipeline integration tests across all paper programs."""

from __future__ import annotations

import numpy as np
import pytest

from repro.dp import build_phase_tables, solve_program_distribution
from repro.lang import gauss_program, jacobi_program, matmul_program, sor_program
from repro.machine import MachineModel, Ring, run_spmd

MODEL = MachineModel(tf=1, tc=10)


class TestDpFrontEndOnAllPrograms:
    def test_sor_single_segment(self):
        """SOR's iterative body is one fused loop: s = 1, one scheme."""
        tables, result = solve_program_distribution(
            sor_program(), 8, {"m": 64, "maxiter": 1}, MODEL
        )
        assert tables.s == 1
        assert result.segments == ((1, 1),)
        assert result.loop_carried > 0  # X flows across sweeps

    def test_gauss_top_level_sequence(self):
        """Gauss has three top-level loops and no enclosing iterative
        loop: the DP sequences them with zero loop-carried cost."""
        tables = build_phase_tables(gauss_program(), 8, {"m": 64}, MODEL)
        assert tables.s == 3
        result = tables.solve()
        assert result.loop_carried == 0.0
        assert sum(length for _start, length in result.segments) == 3

    def test_matmul_single_nest(self):
        tables, result = solve_program_distribution(
            matmul_program(), 4, {"n": 32}, MODEL
        )
        assert result.cost > 0

    def test_jacobi_scheme_consistent_across_n(self):
        """The per-loop split is scale-free: chosen for every N."""
        for n in (2, 4, 8, 32):
            _tables, result = solve_program_distribution(
                jacobi_program(), n, {"m": 64, "maxiter": 1}, MODEL
            )
            assert result.segments == ((1, 1), (2, 1)), n


class TestEngineErrorPropagation:
    def test_exception_in_program_surfaces(self):
        def prog(p):
            if p.rank == 1:
                raise RuntimeError("kernel bug")
            return None
            yield  # pragma: no cover

        with pytest.raises(RuntimeError, match="kernel bug"):
            run_spmd(prog, Ring(2), MODEL)

    def test_exception_mid_communication(self):
        def prog(p):
            if p.rank == 0:
                p.send(1, 1.0)
                raise ValueError("after send")
            value = yield from p.recv(0)
            return value

        with pytest.raises(ValueError, match="after send"):
            run_spmd(prog, Ring(2), MODEL)


class TestAnalyticVsSimulatedAgreement:
    """The compiler's predictions must track the machine it targets."""

    def test_jacobi_prediction_within_2x(self):
        from repro.costmodel import jacobi_dp_time
        from repro.kernels import jacobi_rowdist, make_spd_system

        m, n, iters = 64, 8, 4
        A, b, _ = make_spd_system(m, seed=0)
        res = run_spmd(jacobi_rowdist, Ring(n), MODEL, args=(A, b, np.zeros(m), iters))
        predicted = iters * jacobi_dp_time(m, n, MODEL).total
        assert 0.5 <= predicted / res.makespan <= 2.0

    def test_sor_prediction_within_2x(self):
        from repro.costmodel import sor_pipelined_time
        from repro.kernels import make_spd_system, sor_pipelined

        m, n, iters = 64, 8, 4
        A, b, _ = make_spd_system(m, seed=0)
        res = run_spmd(
            sor_pipelined, Ring(n), MODEL, args=(A, b, np.zeros(m), 1.0, iters)
        )
        predicted = iters * sor_pipelined_time(m, n, MODEL).total
        assert 0.4 <= predicted / res.makespan <= 2.5
