"""Generic stencil lowering tests (halo exchange + vectorized sweeps)."""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.codegen import generate_spmd, load_generated
from repro.codegen.stencil import match_stencil
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
        pat = match_stencil(parse_program(HEAT), 1)
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
        assert match_stencil(parse_program(src), 1) is None

    def test_off_owner_write_rejected(self):
        src = (
            "PROGRAM t\nPARAM m\nARRAY U(m), W(m)\n"
            "DO i = 1, m - 1\nU(i + 1) = W(i)\nEND DO\nEND\n"
        )
        assert match_stencil(parse_program(src), 1) is None

    def test_2d_arrays_rejected(self):
        src = (
            "PROGRAM t\nPARAM m\nARRAY A(m, m)\n"
            "DO i = 1, m\nA(i, 1) = 0.0\nEND DO\nEND\n"
        )
        assert match_stencil(parse_program(src), 1) is None

    def test_single_application_without_time_loop(self):
        src = (
            "PROGRAM t\nPARAM m\nARRAY U(m), W(m)\n"
            "DO i = 2, m - 1\nU(i) = W(i - 1) + W(i + 1)\nEND DO\nEND\n"
        )
        pat = match_stencil(parse_program(src), 1)
        assert pat is not None and pat.time_param is None

    def test_strided_sweep_is_refused_not_compiled_dense(self):
        """``DO i = 2, m - 1, 2`` writes every other element (on ``m = 8``,
        ``W = 0..7``: ``[0 -2 0 -2 0 -2 0 0]``); the lowering vectorizes a
        dense range and wrote ``[0 -2 -2 -2 -2 -2 -2 0]``."""
        program = parse_program(
            "PROGRAM t\nPARAM m\nARRAY U(m), W(m)\n"
            "DO i = 2, m - 1, 2\nU(i) = W(i - 1) - W(i + 1)\nEND DO\nEND\n"
        )
        assert match_stencil(program, 1) is None
        with pytest.raises(CodegenError, match="does not match any generatable pattern"):
            generate_spmd(program)

    def test_strided_time_loop_is_refused(self):
        """``DO t = 1, steps, 2`` is half the steps; the lowering ran all of them."""
        program = parse_program(HEAT.replace("DO t = 1, steps\n", "DO t = 1, steps, 2\n"))
        assert match_stencil(program, 1) is None
        with pytest.raises(CodegenError, match="does not match any generatable pattern"):
            generate_spmd(program)


    def test_extent_other_than_the_size_parameter_is_refused(self):
        """``W(m + 2)`` is not cut into the blocks of ``U(m)``: on ``m = 8``,
        ``Ring(4)`` the lowering ran ``U(i) = W(i + 2)`` as
        ``[3 4 5 6 7 8 1 2]`` where the source computes ``[3 ... 10]``."""
        program = parse_program(
            "PROGRAM t\nPARAM m\nARRAY U(m), W(m + 2)\n"
            "DO i = 1, m\nU(i) = W(i + 2)\nEND DO\nEND\n"
        )
        assert match_stencil(program, 1) is None
        with pytest.raises(CodegenError, match="does not match any generatable pattern"):
            generate_spmd(program)

    def test_read_past_the_array_is_refused(self):
        """``U(m) = W(m + 1)`` reads past ``W``; the lowering read ``W(1)``,
        wrapped round the ring."""
        program = parse_program(
            "PROGRAM t\nPARAM m\nARRAY U(m), W(m)\n"
            "DO i = 1, m\nU(i) = W(i + 1)\nEND DO\nEND\n"
        )
        assert match_stencil(program, 1) is None
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
        pat = match_stencil(program, 1)
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


ARRAYS = ("U", "V", "W")


def _subscripts(offsets) -> str:
    return ", ".join(f"{var} + {c}" if c else var for var, c in zip("ij", offsets))


@st.composite
def stencil_programs(draw):
    """``(rank, time loop?, sweeps)``: every sweep is ``(bounds, stmts)``, a
    statement ``(lhs, [(array, offsets)], ops, scaled)``.  A sweep reads
    what it writes at the written element only (anything else carries a
    dependence), and its bounds keep every reference inside ``1 .. m``."""
    rank = draw(st.sampled_from((1, 2)))
    arrays = ARRAYS[: draw(st.integers(2, 3))]
    sweeps = []
    for _ in range(draw(st.integers(1, 3))):
        written = draw(st.lists(st.sampled_from(arrays), min_size=1, max_size=2))
        stmts = []
        for lhs in written:
            refs = []
            for name in draw(st.lists(st.sampled_from(arrays), min_size=1, max_size=3)):
                offsets = (0,) * rank if name in written else tuple(
                    draw(st.integers(-2, 2)) for _ in range(rank)
                )
                refs.append((name, offsets))
            ops = [draw(st.sampled_from("+-*")) for _ in refs[1:]]
            stmts.append((lhs, refs, ops, draw(st.booleans())))
        bounds = []
        for dim in range(rank):
            reach = [0, *(offs[dim] for _, refs, _, _ in stmts for _, offs in refs)]
            bounds.append((1 - min(reach) + draw(st.integers(0, 1)),
                           max(reach) + draw(st.integers(0, 1))))
        sweeps.append((bounds, stmts))
    return rank, draw(st.booleans()), sweeps


def stencil_source(rank: int, timed: bool, sweeps) -> str:
    extents = ", ".join(["m"] * rank)
    lines = ["PROGRAM r", "PARAM m, steps" if timed else "PARAM m", "SCALAR alpha",
             "ARRAY " + ", ".join(f"{a}({extents})" for a in ARRAYS)]
    if timed:
        lines.append("DO t = 1, steps")
    for bounds, stmts in sweeps:
        for var, (lo, hi) in zip("ij", bounds):
            lines.append(f"DO {var} = {lo}, m - {hi}" if hi else f"DO {var} = {lo}, m")
        for lhs, refs, ops, scaled in stmts:
            rhs = f"{refs[0][0]}({_subscripts(refs[0][1])})"
            for op, (name, offsets) in zip(ops, refs[1:]):
                rhs = f"({rhs} {op} {name}({_subscripts(offsets)}))"
            lines.append(f"{lhs}({_subscripts((0,) * rank)}) = {'alpha * ' if scaled else ''}{rhs}")
        lines += ["END DO"] * rank
    if timed:
        lines.append("END DO")
    return "\n".join([*lines, "END", ""])


def loop_reference(rank, steps, sweeps, alpha, arrays):
    """The source run element by element, in its own loop order."""
    arrays = {name: value.copy() for name, value in arrays.items()}
    m = len(arrays["U"])
    for _ in range(steps):
        for bounds, stmts in sweeps:
            ranges = [range(lo - 1, m - hi) for lo, hi in bounds]
            for point in itertools.product(*ranges):
                for lhs, refs, ops, scaled in stmts:
                    read = [arrays[name][tuple(p + c for p, c in zip(point, offs))]
                            for name, offs in refs]
                    value = read[0]
                    for op, operand in zip(ops, read[1:]):
                        value = {"+": value + operand, "-": value - operand,
                                 "*": value * operand}[op]
                    arrays[lhs][point] = alpha * value if scaled else value
    return arrays


class TestRandomSweeps:
    @given(stencil_programs(), st.integers(1, 4), st.integers(1, 3), st.integers(0, 2**16))
    @settings(max_examples=60, deadline=None)
    def test_generated_program_equals_the_loops(self, drawn, nprocs, steps, seed):
        """Any in-range stencil program of rank 1 or 2 compiles, and its
        SPMD program on ``Ring(1..4)`` computes what its loops compute."""
        rank, timed, sweeps = drawn
        gen = generate_spmd(parse_program(stencil_source(rank, timed, sweeps)))
        assert gen.strategy == ("stencil", "stencil-2d")[rank - 1]
        m, alpha = 12, 0.5
        rng = np.random.default_rng(seed)
        arrays = {name: rng.random((m,) * rank) for name in ARRAYS}
        env = {"m": m, "alpha": alpha, **arrays, **({"steps": steps} if timed else {})}
        res = run_spmd(load_generated(gen), Ring(nprocs), MODEL, args=(env,))
        expected = loop_reference(rank, steps if timed else 1, sweeps, alpha, arrays)
        # Same operations in the same order per element: equal, not close.
        for name in ARRAYS:
            np.testing.assert_array_equal(res.value(nprocs - 1)[name], expected[name])
