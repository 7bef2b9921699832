"""2-D stencil lowering tests (row blocks + halo-row exchange)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.codegen import generate_spmd, load_generated
from repro.codegen.stencil import match_stencil
from repro.errors import CodegenError
from repro.lang import gauss_program, jacobi_program, matmul_program, parse_program
from repro.lang.interp import interpret
from repro.machine import MachineModel, Ring, run_spmd
from tests.test_source_lattice import ANISOTROPIC, check_cell

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


def column_overhang(pattern, name: str) -> tuple[int, int]:
    """(left, right) columns the sweeps read of *name* beyond the written
    element; rows are stored whole, so no column travels."""
    cols = [cj for sweep in pattern.sweeps for st in sweep.stmts
            for array, _ci, cj in st.offsets if array == name]
    return max([0, *(-c for c in cols)]), max([0, *cols])


class TestRecognition:
    def test_heat2d_recognized(self):
        pat = match_stencil(parse_program(HEAT2D), 2)
        assert pat is not None
        assert pat.time_param == "steps"
        assert pat.halo["Uold"] == (1, 1)
        assert column_overhang(pat, "Uold") == (1, 1)
        assert pat.halo["Unew"] == (0, 0)

    def test_paper_programs_not_swallowed(self):
        assert match_stencil(jacobi_program(), 2) is None
        assert match_stencil(gauss_program(), 2) is None
        assert match_stencil(matmul_program(), 2) is None

    def test_row_dependent_sweep_rejected(self):
        src = (
            "PROGRAM t\nPARAM m\nARRAY U(m, m)\n"
            "DO i = 2, m\nDO j = 1, m\nU(i, j) = U(i - 1, j)\nEND DO\nEND DO\nEND\n"
        )
        assert match_stencil(parse_program(src), 2) is None

    def test_transpose_rejected(self):
        src = (
            "PROGRAM t\nPARAM m\nARRAY U(m, m), W(m, m)\n"
            "DO i = 1, m\nDO j = 1, m\nU(i, j) = W(j, i)\nEND DO\nEND DO\nEND\n"
        )
        assert match_stencil(parse_program(src), 2) is None

    def test_triangular_inner_bounds_rejected(self):
        src = (
            "PROGRAM t\nPARAM m\nARRAY U(m, m), W(m, m)\n"
            "DO i = 1, m\nDO j = i, m\nU(i, j) = W(i, j)\nEND DO\nEND DO\nEND\n"
        )
        assert match_stencil(parse_program(src), 2) is None

    @pytest.mark.parametrize("loop", ["DO i = 2, m - 1\n", "DO j = 2, m - 1\n", "DO t = 1, steps\n"])
    def test_strided_loop_is_refused(self, loop):
        """The lowering computes dense row and column ranges for ``steps``
        time steps; a step other than 1 on any loop is another program."""
        assert loop in HEAT2D
        program = parse_program(HEAT2D.replace(loop, loop.replace("\n", ", 2\n"), 1))
        assert match_stencil(program, 2) is None
        with pytest.raises(CodegenError, match="does not match any generatable pattern"):
            generate_spmd(program)


    def test_read_past_the_rows_is_refused(self):
        """``U(m, j) = W(m + 1, j)`` reads past ``W``; the lowering read row
        1, wrapped round the ring."""
        program = parse_program(
            "PROGRAM t\nPARAM m\nARRAY U(m, m), W(m, m)\n"
            "DO i = 1, m\nDO j = 1, m\nU(i, j) = W(i + 1, j)\nEND DO\nEND DO\nEND\n"
        )
        assert match_stencil(program, 2) is None
        with pytest.raises(CodegenError, match="does not match any generatable pattern"):
            generate_spmd(program)


class TestExecution:
    @pytest.mark.parametrize("nprocs", [1, 2, 4, 8])
    def test_heat2d_matches_reference(self, nprocs):
        check_cell("stencil-2d", "stencil-2d", 16, nprocs, HEAT2D)

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
        program = parse_program(ANISOTROPIC)
        pat = match_stencil(program, 2)
        assert pat.halo["W"] == (2, 0)
        assert column_overhang(pat, "W") == (0, 3)
        fn = load_generated(generate_spmd(program))
        m = 12
        w0 = np.random.default_rng(1).random((m, m))
        env = {"m": m, "U": np.zeros((m, m)), "W": w0}
        res = run_spmd(fn, Ring(4), MODEL, args=(env,))
        np.testing.assert_array_equal(res.value(0)["U"], interpret(program, {"m": m}, {"W": w0})["U"])
