"""2-D stencil lowering tests (row blocks + halo-row exchange)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.codegen import generate_spmd, load_generated
from repro.codegen.stencil2d import match_stencil_2d
from repro.errors import CodegenError
from repro.lang import gauss_program, jacobi_program, matmul_program, parse_program
from repro.machine import MachineModel, Ring, run_spmd

MODEL = MachineModel(tf=1, tc=10)

HEAT2D = """\
PROGRAM heat2d
PARAM m, steps
SCALAR alpha
ARRAY Unew(m, m), Uold(m, m)
DO t = 1, steps
  DO i = 2, m - 1
    DO j = 2, m - 1
      Unew(i, j) = Uold(i, j) + alpha * (Uold(i - 1, j) + Uold(i + 1, j) + Uold(i, j - 1) + Uold(i, j + 1) - 4 * Uold(i, j))
    END DO
  END DO
  DO i = 2, m - 1
    DO j = 2, m - 1
      Uold(i, j) = Unew(i, j)
    END DO
  END DO
END DO
END
"""


def heat2d_reference(u0: np.ndarray, alpha: float, steps: int) -> np.ndarray:
    u = u0.copy()
    m = u.shape[0]
    for _ in range(steps):
        new = u.copy()
        new[1 : m - 1, 1 : m - 1] = u[1 : m - 1, 1 : m - 1] + alpha * (
            u[: m - 2, 1 : m - 1]
            + u[2:, 1 : m - 1]
            + u[1 : m - 1, : m - 2]
            + u[1 : m - 1, 2:]
            - 4 * u[1 : m - 1, 1 : m - 1]
        )
        u = new
    return u


class TestRecognition:
    def test_heat2d_recognized(self):
        pat = match_stencil_2d(parse_program(HEAT2D))
        assert pat is not None
        assert pat.time_param == "steps"
        assert pat.row_halo["Uold"] == (1, 1)
        assert pat.col_halo["Uold"] == (1, 1)
        assert pat.row_halo["Unew"] == (0, 0)

    def test_paper_programs_not_swallowed(self):
        assert match_stencil_2d(jacobi_program()) is None
        assert match_stencil_2d(gauss_program()) is None
        assert match_stencil_2d(matmul_program()) is None

    def test_row_dependent_sweep_rejected(self):
        src = (
            "PROGRAM t\nPARAM m\nARRAY U(m, m)\n"
            "DO i = 2, m\nDO j = 1, m\nU(i, j) = U(i - 1, j)\nEND DO\nEND DO\nEND\n"
        )
        assert match_stencil_2d(parse_program(src)) is None

    def test_transpose_rejected(self):
        src = (
            "PROGRAM t\nPARAM m\nARRAY U(m, m), W(m, m)\n"
            "DO i = 1, m\nDO j = 1, m\nU(i, j) = W(j, i)\nEND DO\nEND DO\nEND\n"
        )
        assert match_stencil_2d(parse_program(src)) is None

    def test_triangular_inner_bounds_rejected(self):
        src = (
            "PROGRAM t\nPARAM m\nARRAY U(m, m), W(m, m)\n"
            "DO i = 1, m\nDO j = i, m\nU(i, j) = W(i, j)\nEND DO\nEND DO\nEND\n"
        )
        assert match_stencil_2d(parse_program(src)) is None

    @pytest.mark.parametrize("loop", ["DO i = 2, m - 1\n", "DO j = 2, m - 1\n", "DO t = 1, steps\n"])
    def test_strided_loop_is_refused(self, loop):
        """The lowering computes dense row and column ranges for ``steps``
        time steps; a step other than 1 on any loop is another program."""
        assert loop in HEAT2D
        program = parse_program(HEAT2D.replace(loop, loop.replace("\n", ", 2\n"), 1))
        assert match_stencil_2d(program) is None
        with pytest.raises(CodegenError, match="does not match any generatable pattern"):
            generate_spmd(program)


class TestExecution:
    @pytest.mark.parametrize("nprocs", [1, 2, 4, 8])
    def test_heat2d_matches_reference(self, nprocs):
        m, steps, alpha = 16, 8, 0.1
        rng = np.random.default_rng(7)
        u0 = rng.random((m, m))
        gen = generate_spmd(parse_program(HEAT2D))
        assert gen.strategy == "stencil-2d"
        fn = load_generated(gen)
        env = {"m": m, "steps": steps, "alpha": alpha,
               "Unew": np.zeros((m, m)), "Uold": u0.copy()}
        res = run_spmd(fn, Ring(nprocs), MODEL, args=(env,))
        expected = heat2d_reference(u0, alpha, steps)
        for rank in range(nprocs):
            np.testing.assert_allclose(res.value(rank)["Uold"], expected, atol=1e-12)

    def test_halo_rows_only(self):
        """Each exchanged message is a full halo *row* (m words), and only
        the read array's halos travel."""
        m = 16
        gen = generate_spmd(parse_program(HEAT2D))
        fn = load_generated(gen)
        u0 = np.zeros((m, m))
        env = {"m": m, "steps": 1, "alpha": 0.1,
               "Unew": np.zeros((m, m)), "Uold": u0}
        res = run_spmd(fn, Ring(4), MODEL, args=(env,))
        # Per step: 4 procs x 2 directions x 1 row of m words (Uold only)
        # plus the final allgathers.
        halo_words = 4 * 2 * m  # 4 procs x 2 directions x 1 row (Uold only)
        # Two ring allgathers: each of the 4 procs forwards 3 blocks of
        # (m/4) x m words per array.
        gather_words = 2 * 4 * 3 * (m // 4) * m
        assert res.message_words == halo_words + gather_words

    def test_anisotropic_offsets(self):
        """Row halo 2 upward only; columns reach 3 to the right."""
        src = (
            "PROGRAM a\nPARAM m\nARRAY U(m, m), W(m, m)\n"
            "DO i = 3, m\nDO j = 1, m - 3\n"
            "U(i, j) = W(i - 2, j + 3)\nEND DO\nEND DO\nEND\n"
        )
        program = parse_program(src)
        pat = match_stencil_2d(program)
        assert pat.row_halo["W"] == (2, 0)
        assert pat.col_halo["W"] == (0, 3)
        fn = load_generated(generate_spmd(program))
        m = 12
        w0 = np.random.default_rng(1).random((m, m))
        env = {"m": m, "U": np.zeros((m, m)), "W": w0}
        res = run_spmd(fn, Ring(4), MODEL, args=(env,))
        expected = np.zeros((m, m))
        expected[2:m, 0 : m - 3] = w0[0 : m - 2, 3:m]
        np.testing.assert_allclose(res.value(0)["U"], expected, atol=1e-12)
