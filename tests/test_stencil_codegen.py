"""Generic stencil lowering tests (halo exchange + vectorized sweeps)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.codegen import generate_spmd, load_generated
from repro.codegen.stencil import match_stencil_sweep
from repro.errors import CodegenError
from repro.lang import parse_program
from repro.machine import MachineModel, Ring, run_spmd

MODEL = MachineModel(tf=1, tc=10)

HEAT = """\
PROGRAM heat
PARAM m, steps
SCALAR alpha
ARRAY Unew(m), Uold(m)
DO t = 1, steps
  DO i = 2, m - 1
    Unew(i) = Uold(i) + alpha * (Uold(i - 1) - 2 * Uold(i) + Uold(i + 1))
  END DO
  DO i = 2, m - 1
    Uold(i) = Unew(i)
  END DO
END DO
END
"""


def heat_reference(u0: np.ndarray, alpha: float, steps: int) -> np.ndarray:
    u = u0.copy()
    m = len(u)
    for _ in range(steps):
        new = u.copy()
        new[1 : m - 1] = u[1 : m - 1] + alpha * (
            u[: m - 2] - 2 * u[1 : m - 1] + u[2:]
        )
        u = new
    return u


class TestRecognition:
    def test_heat_recognized(self):
        pat = match_stencil_sweep(parse_program(HEAT))
        assert pat is not None
        assert pat.time_param == "steps" and pat.size_param == "m"
        assert pat.halo["Uold"] == (1, 1)
        assert pat.halo["Unew"] == (0, 0)

    def test_gauss_seidel_inplace_rejected(self):
        """In-place U(i) from U(i-1) carries a dependence — not parallel."""
        src = (
            "PROGRAM gs\nPARAM m\nARRAY U(m)\n"
            "DO i = 2, m\nU(i) = U(i - 1)\nEND DO\nEND\n"
        )
        assert match_stencil_sweep(parse_program(src)) is None

    def test_off_owner_write_rejected(self):
        src = (
            "PROGRAM t\nPARAM m\nARRAY U(m), W(m)\n"
            "DO i = 1, m - 1\nU(i + 1) = W(i)\nEND DO\nEND\n"
        )
        assert match_stencil_sweep(parse_program(src)) is None

    def test_2d_arrays_rejected(self):
        src = (
            "PROGRAM t\nPARAM m\nARRAY A(m, m)\n"
            "DO i = 1, m\nA(i, 1) = 0.0\nEND DO\nEND\n"
        )
        assert match_stencil_sweep(parse_program(src)) is None

    def test_single_application_without_time_loop(self):
        src = (
            "PROGRAM t\nPARAM m\nARRAY U(m), W(m)\n"
            "DO i = 2, m - 1\nU(i) = W(i - 1) + W(i + 1)\nEND DO\nEND\n"
        )
        pat = match_stencil_sweep(parse_program(src))
        assert pat is not None and pat.time_param is None

    def test_strided_sweep_is_refused_not_compiled_dense(self):
        """``DO i = 2, m - 1, 2`` writes every other element (on ``m = 8``,
        ``W = 0..7``: ``[0 -2 0 -2 0 -2 0 0]``); the lowering vectorizes a
        dense range and wrote ``[0 -2 -2 -2 -2 -2 -2 0]``."""
        program = parse_program(
            "PROGRAM t\nPARAM m\nARRAY U(m), W(m)\n"
            "DO i = 2, m - 1, 2\nU(i) = W(i - 1) - W(i + 1)\nEND DO\nEND\n"
        )
        assert match_stencil_sweep(program) is None
        with pytest.raises(CodegenError, match="does not match any generatable pattern"):
            generate_spmd(program)

    def test_strided_time_loop_is_refused(self):
        """``DO t = 1, steps, 2`` is half the steps; the lowering ran all of them."""
        program = parse_program(HEAT.replace("DO t = 1, steps\n", "DO t = 1, steps, 2\n"))
        assert match_stencil_sweep(program) is None
        with pytest.raises(CodegenError, match="does not match any generatable pattern"):
            generate_spmd(program)


class TestExecution:
    @pytest.mark.parametrize("nprocs", [1, 2, 4, 8])
    def test_heat_matches_reference(self, nprocs):
        m, steps, alpha = 32, 25, 0.25
        u0 = np.zeros(m)
        u0[m // 2] = 1.0
        gen = generate_spmd(parse_program(HEAT))
        assert gen.strategy == "stencil"
        fn = load_generated(gen)
        env = {
            "m": m, "steps": steps, "alpha": alpha,
            "Unew": np.zeros(m), "Uold": u0,
        }
        res = run_spmd(fn, Ring(nprocs), MODEL, args=(env,))
        expected = heat_reference(u0, alpha, steps)
        for rank in range(nprocs):
            np.testing.assert_allclose(res.value(rank)["Uold"], expected, atol=1e-12)

    def test_halo_messages_scale_with_steps(self):
        gen = generate_spmd(parse_program(HEAT))
        fn = load_generated(gen)
        m = 32
        u0 = np.random.default_rng(0).random(m)

        def msgs(steps, nprocs):
            env = {"m": m, "steps": steps, "alpha": 0.1,
                   "Unew": np.zeros(m), "Uold": u0.copy()}
            return run_spmd(fn, Ring(nprocs), MODEL, args=(env,)).message_count

        base = msgs(1, 4)
        assert msgs(2, 4) - base == base - msgs(0, 4)
        # Single processor: no halo traffic at all (only the final gather,
        # which is trivial on one rank).
        assert msgs(5, 1) == 0

    def test_wider_stencil(self):
        """A radius-2 stencil exchanges two-element halos."""
        src = (
            "PROGRAM w\nPARAM m, steps\nARRAY U(m), W(m)\n"
            "DO t = 1, steps\n"
            "  DO i = 3, m - 2\n"
            "    U(i) = W(i - 2) + W(i + 2)\n  END DO\n"
            "  DO i = 3, m - 2\n    W(i) = U(i)\n  END DO\n"
            "END DO\nEND\n"
        )
        program = parse_program(src)
        pat = match_stencil_sweep(program)
        assert pat.halo["W"] == (2, 2)
        fn = load_generated(generate_spmd(program))
        m = 24
        w0 = np.arange(m, dtype=float)
        env = {"m": m, "steps": 3, "U": np.zeros(m), "W": w0.copy()}
        res = run_spmd(fn, Ring(4), MODEL, args=(env,))
        # Sequential reference.
        w = w0.copy()
        u = np.zeros(m)
        for _ in range(3):
            u[2 : m - 2] = w[: m - 4] + w[4:]
            w[2 : m - 2] = u[2 : m - 2]
        np.testing.assert_allclose(res.value(0)["W"], w, atol=1e-12)

    def test_divisibility_assert(self):
        gen = generate_spmd(parse_program(HEAT))
        fn = load_generated(gen)
        env = {"m": 30, "steps": 1, "alpha": 0.1,
               "Unew": np.zeros(30), "Uold": np.zeros(30)}
        with pytest.raises(AssertionError):
            run_spmd(fn, Ring(4), MODEL, args=(env,))

    def test_flops_accounted(self):
        gen = generate_spmd(parse_program(HEAT))
        fn = load_generated(gen)
        m = 16
        env = {"m": m, "steps": 2, "alpha": 0.1,
               "Unew": np.zeros(m), "Uold": np.zeros(m)}
        res = run_spmd(fn, Ring(2), MODEL, args=(env,), trace=True)
        from repro.machine.trace import busy_time

        assert all(busy_time(lane) > 0 for lane in res.trace)
