"""Generic stencil lowering tests (halo exchange + vectorized sweeps)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.codegen import generate_spmd, load_generated
from repro.codegen.stencil import match_stencil
from repro.errors import CodegenError
from repro.lang import parse_program
from repro.lang.interp import interpret
from repro.machine import MachineModel, Ring, run_spmd
from repro.service.plan import Plan
from tests.test_source_lattice import WIDE, check_cell

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
        check_cell("stencil", "stencil", 32, nprocs, HEAT)

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
        program = parse_program(WIDE)
        pat = match_stencil(program, 1)
        assert pat.halo["W"] == (2, 2)
        fn = load_generated(generate_spmd(program))
        m = 24
        w0 = np.arange(m, dtype=float)
        env = {"m": m, "steps": 3, "U": np.zeros(m), "W": w0.copy()}
        res = run_spmd(fn, Ring(4), MODEL, args=(env,))
        expected = interpret(program, {"m": m, "steps": 3}, {"W": w0})
        np.testing.assert_array_equal(res.value(0)["W"], expected["W"])

    def test_divisibility_assert(self):
        """``Plan.run`` checks the listing's ``assert m % n == 0`` before any
        rank runs, and raises a typed error instead."""
        program = parse_program(HEAT)
        env = {"m": 30, "steps": 1, "alpha": 0.1,
               "Unew": np.zeros(30), "Uold": np.zeros(30)}
        with pytest.raises(CodegenError, match=r"'stencil' is right only when N \| m, got m = 30, N = 4"):
            Plan(program, generate_spmd(program)).run(4, {}, inputs=env, model=MODEL)

    @pytest.mark.parametrize("strategy", ["stencil", "stencil-overlap"])
    def test_halo_wider_than_block_is_refused(self, strategy):
        """``U(i) = W(i - 2) + W(i + 2)`` at m = 8: a block of one element
        cannot hold a halo of two, and the listing, which asserts only
        N | m, returned zeros on ``Ring(8)``."""
        program = parse_program(
            "PROGRAM w\nPARAM m\nARRAY U(m), W(m)\n"
            "DO i = 3, m - 2\nU(i) = W(i - 2) + W(i + 2)\nEND DO\nEND\n"
        )
        plan = Plan(program, generate_spmd(program, strategy))
        w0 = np.arange(8.0)
        inputs = {"m": 8, "U": np.zeros(8), "W": w0}
        with pytest.raises(CodegenError, match="halo 2 > m / N = 8 / 8"):
            plan.run(8, {}, inputs=inputs, model=MODEL)
        expected = interpret(program, {"m": 8}, {"W": w0})
        for nprocs in (1, 2, 4):
            res = plan.run(nprocs, {}, inputs=inputs, model=MODEL)
            np.testing.assert_array_equal(res.value(0)["U"], expected["U"])

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


class TestRandomSweeps:
    @given(stencil_programs(), st.sampled_from((6, 8, 12)), st.integers(1, 8), st.integers(1, 3),
           st.integers(0, 2**16))
    @settings(max_examples=60, deadline=None)
    def test_generated_program_equals_the_loops(self, drawn, m, nprocs, steps, seed):
        """Any in-range stencil program of rank 1 or 2 compiles.  On
        ``Ring(1..8)`` its SPMD program computes what the interpreter
        computes from its source, or, exactly where N does not divide m or
        a halo is wider than a block, ``Plan.run`` refuses it."""
        rank, timed, sweeps = drawn
        program = parse_program(stencil_source(rank, timed, sweeps))
        gen = generate_spmd(program)
        assert gen.strategy == ("stencil", "stencil-2d")[rank - 1]
        rng = np.random.default_rng(seed)
        arrays = {name: rng.random((m,) * rank) for name in ARRAYS}
        env = {"m": m, **({"steps": steps} if timed else {})}
        run = Plan(program, gen).run
        halo = max(width for pair in gen.pattern.halo.values() for width in pair)
        if m % nprocs or (nprocs > 1 and halo > m // nprocs):
            with pytest.raises(CodegenError, match="is right only when"):
                run(nprocs, env, inputs={**env, "alpha": 0.5, **arrays}, model=MODEL)
            return
        res = run(nprocs, env, inputs={**env, "alpha": 0.5, **arrays}, model=MODEL)
        expected = interpret(program, env, arrays, {"alpha": 0.5})
        # Same operations in the same order per element: equal, not close.
        for name in ARRAYS:
            np.testing.assert_array_equal(res.value(nprocs - 1)[name], expected[name])
