"""Code generation tests: recognizers, emitted source, end-to-end runs."""

from __future__ import annotations

import numpy as np
import pytest

from repro.codegen.patterns import match_gauss, match_iterative_solve
from repro.codegen import generate_spmd, load_generated
from repro.errors import CodegenError
from repro.kernels import make_spd_system
from repro.lang.interp import interpret
from repro.lang import gauss_program, jacobi_program, matmul_program, parse_program, sor_program
from repro.lang.programs import GAUSS_SOURCE, JACOBI_SOURCE, MATMUL_SOURCE, SOR_SOURCE
from repro.machine import MachineModel, Ring, run_spmd
from tests.test_source_lattice import check_cell

MODEL = MachineModel(tf=1, tc=10)


class TestRecognizers:
    def test_jacobi_recognized(self):
        pat = match_iterative_solve(jacobi_program())
        assert pat is not None
        assert pat.kind == "jacobi"
        assert (pat.A, pat.V, pat.B, pat.X) == ("A", "V", "B", "X")
        assert pat.omega is None

    def test_sor_recognized(self):
        pat = match_iterative_solve(sor_program())
        assert pat is not None
        assert pat.kind == "sor" and pat.omega == "omega"

    def test_renamed_arrays_recognized(self):
        """The recognizer keys on structure, not names."""
        src = jacobi_program()
        text = (
            "PROGRAM other\nPARAM size, steps\n"
            "ARRAY Mat(size, size), Acc(size), Rhs(size), Sol(size)\n"
            "DO it = 1, steps\n"
            "  DO r = 1, size\n    Acc(r) = 0.0\n    DO c = 1, size\n"
            "      Acc(r) = Acc(r) + Mat(r, c) * Sol(c)\n    END DO\n  END DO\n"
            "  DO r = 1, size\n    Sol(r) = Sol(r) + (Rhs(r) - Acc(r)) / Mat(r, r)\n  END DO\n"
            "END DO\nEND\n"
        )
        pat = match_iterative_solve(parse_program(text))
        assert pat is not None
        assert pat.A == "Mat" and pat.X == "Sol" and pat.m == "size"

    def test_gauss_recognized(self):
        pat = match_gauss(gauss_program())
        assert pat is not None
        assert (pat.A, pat.L, pat.B, pat.V, pat.X) == ("A", "L", "B", "V", "X")

    def test_matmul_not_an_iterative_solve(self):
        assert match_iterative_solve(matmul_program()) is None
        assert match_gauss(matmul_program()) is None

    def test_matmul_recognized(self):
        from repro.codegen.patterns import match_matmul

        pat = match_matmul(matmul_program())
        assert pat is not None
        assert (pat.out, pat.left, pat.right, pat.n) == ("A", "B", "C", "n")

    def test_matmul_transposed_operand_rejected(self):
        from repro.codegen.patterns import match_matmul
        from repro.lang import parse_program

        text = (
            "PROGRAM t\nPARAM n\nARRAY A(n, n), B(n, n), C(n, n)\n"
            "DO i = 1, n\n  DO j = 1, n\n    A(i, j) = 0.0\n    DO k = 1, n\n"
            "      A(i, j) = A(i, j) + B(k, i) * C(k, j)\n    END DO\n  END DO\nEND DO\nEND\n"
        )
        assert match_matmul(parse_program(text)) is None

    def test_perturbed_jacobi_rejected(self):
        """Changing the update denominator breaks the pattern."""
        text = (
            "PROGRAM t\nPARAM m, it\nARRAY A(m, m), V(m), B(m), X(m)\n"
            "DO k = 1, it\n"
            "  DO i = 1, m\n    V(i) = 0.0\n    DO j = 1, m\n"
            "      V(i) = V(i) + A(i, j) * X(j)\n    END DO\n  END DO\n"
            "  DO i = 1, m\n    X(i) = X(i) + (B(i) - V(i)) / A(i, 1)\n  END DO\n"
            "END DO\nEND\n"
        )
        assert match_iterative_solve(parse_program(text)) is None

    def test_mismatched_accumulator_rejected(self):
        text = (
            "PROGRAM t\nPARAM m, it\nARRAY A(m, m), V(m), W(m), B(m), X(m)\n"
            "DO k = 1, it\n"
            "  DO i = 1, m\n    V(i) = 0.0\n    DO j = 1, m\n"
            "      V(i) = V(i) + A(i, j) * X(j)\n    END DO\n  END DO\n"
            "  DO i = 1, m\n    X(i) = X(i) + (B(i) - W(i)) / A(i, i)\n  END DO\n"
            "END DO\nEND\n"
        )
        assert match_iterative_solve(parse_program(text)) is None

    def test_gauss_without_back_substitution_rejected(self):
        text = (
            "PROGRAM t\nPARAM m\nARRAY A(m, m), L(m, m), B(m)\n"
            "DO k = 1, m\n  DO i = k + 1, m\n"
            "    L(i, k) = A(i, k) / A(k, k)\n"
            "    B(i) = B(i) - L(i, k) * B(k)\n"
            "    DO j = k + 1, m\n      A(i, j) = A(i, j) - L(i, k) * A(k, j)\n    END DO\n"
            "  END DO\nEND DO\nEND\n"
        )
        assert match_gauss(parse_program(text)) is None


# Variants the hand-written recognizers accepted because none of them looked
# at an inner loop's ``step`` (or the Gauss V-initialization's bounds): each
# was compiled to the dense kernel of the listing it resembles.
STRIDED = {
    "jacobi": (JACOBI_SOURCE, "DO j = 1, m\n", "DO j = 1, m, 2\n"),
    "sor": (SOR_SOURCE, "DO i = 1, m\n", "DO i = 1, m, 3\n"),
    "matmul": (MATMUL_SOURCE, "DO k = 1, n\n", "DO k = 1, n, 2\n"),
    "gauss": (GAUSS_SOURCE, "DO i = m, 1, -1\n  V(i)", "DO i = m, 2, -1\n  V(i)"),
}


class TestTemplateRecognizers:
    """Recognition is equality with a paper listing, up to renaming and
    commuted operands (ISSUE 24)."""

    @pytest.mark.parametrize("family", sorted(STRIDED))
    def test_strided_or_partial_variant_is_not_matched(self, family):
        from repro.codegen.patterns import match_matmul

        listing, old, new = STRIDED[family]
        assert old in listing
        program = parse_program(listing.replace(old, new, 1))
        for match in (match_iterative_solve, match_matmul, match_gauss):
            assert match(program) is None
        with pytest.raises(CodegenError, match="does not match any generatable pattern"):
            generate_spmd(program)

    def test_damped_jacobi_is_not_plain_jacobi(self):
        """Two separate loops with a relaxation factor: the Jacobi emitter
        has no ``omega``, so this used to run undamped."""
        text = JACOBI_SOURCE.replace("PARAM m, maxiter\n", "PARAM m, maxiter\nSCALAR w\n")
        text = text.replace("(B(i) - V(i))", "w * (B(i) - V(i))")
        assert match_iterative_solve(parse_program(text)) is None
        with pytest.raises(CodegenError):
            generate_spmd(parse_program(text))

    def test_sor_with_param_omega_recognized(self):
        text = SOR_SOURCE.replace("SCALAR omega\n", "").replace("PARAM m, maxiter", "PARAM m, maxiter, omega")
        pat = match_iterative_solve(parse_program(text))
        assert pat is not None and pat.kind == "sor" and pat.omega == "omega"
        assert "omega = float(env['omega'])" in generate_spmd(parse_program(text)).source

    def test_omega_less_sor_emits_unit_relaxation(self):
        text = SOR_SOURCE.replace("SCALAR omega\n", "").replace("omega * ", "")
        pat = match_iterative_solve(parse_program(text))
        assert pat is not None and pat.kind == "sor" and pat.omega is None
        gen = generate_spmd(parse_program(text))
        assert gen.strategy == "ring-pipeline" and "omega = 1.0" in gen.source
        assert "omega" not in gen.env_keys()

    def test_commuted_accumulate_recognized_and_byte_identical(self):
        commuted = JACOBI_SOURCE.replace("A(i, j) * X(j)", "X(j) * A(i, j)")
        assert commuted != JACOBI_SOURCE
        assert match_iterative_solve(parse_program(commuted)) == match_iterative_solve(
            jacobi_program()
        )
        assert generate_spmd(parse_program(commuted)).source == generate_spmd(
            jacobi_program()
        ).source


class TestIndexNamesAndSharedRoles:
    """Which loops share an index name is spelling, not structure; a name
    playing two roles is structure, and two such programs are listings."""

    # every nest of the listing with index names of its own, and two
    # sibling loops sharing a name the listing keeps apart
    RESPELLED = {
        "jacobi-second-loop": (JACOBI_SOURCE, "  DO i = 1, m\n    X(i) = X(i) + (B(i) - V(i)) / A(i, i)", "  DO l = 1, m\n    X(l) = X(l) + (B(l) - V(l)) / A(l, l)"),
        "jacobi-all-apart": (JACOBI_SOURCE, "DO j = 1, m\n      V(i) = V(i) + A(i, j) * X(j)", "DO q = 1, m\n      V(i) = V(i) + A(i, q) * X(q)"),
        "jacobi-inner-is-outer's-sibling": (JACOBI_SOURCE, "  DO i = 1, m\n    X(i) = X(i) + (B(i) - V(i)) / A(i, i)", "  DO j = 1, m\n    X(j) = X(j) + (B(j) - V(j)) / A(j, j)"),
        "gauss-back-substitution": (GAUSS_SOURCE, "DO j = m, 1, -1\n  X(j) = (B(j) - V(j)) / A(j, j)\n  DO i = j - 1, 1, -1\n    V(i) = V(i) + A(i, j) * X(j)", "DO c = m, 1, -1\n  X(c) = (B(c) - V(c)) / A(c, c)\n  DO r = c - 1, 1, -1\n    V(r) = V(r) + A(r, c) * X(c)"),
        "gauss-back-substitution-swapped": (GAUSS_SOURCE, "DO j = m, 1, -1\n  X(j) = (B(j) - V(j)) / A(j, j)\n  DO i = j - 1, 1, -1\n    V(i) = V(i) + A(i, j) * X(j)", "DO i = m, 1, -1\n  X(i) = (B(i) - V(i)) / A(i, i)\n  DO j = i - 1, 1, -1\n    V(j) = V(j) + A(j, i) * X(i)"),
        "gauss-v-init": (GAUSS_SOURCE, "DO i = m, 1, -1\n  V(i) = 0.0", "DO k = m, 1, -1\n  V(k) = 0.0"),
    }

    @pytest.mark.parametrize("case", sorted(RESPELLED))
    def test_respelled_indices_emit_the_listing_s_source(self, case):
        listing, old, new = self.RESPELLED[case]
        assert old in listing
        respelled = parse_program(listing.replace(old, new, 1))
        assert generate_spmd(respelled).source == generate_spmd(parse_program(listing)).source

    def test_shadowed_index_is_not_the_outer_one(self):
        """``DO i`` inside ``DO i``: the accumulate reads the inner index
        twice, which is not the listing's ``A(i, j) * X(j)``."""
        text = JACOBI_SOURCE.replace(
            "DO j = 1, m\n      V(i) = V(i) + A(i, j) * X(j)", "DO i = 1, m\n      V(i) = V(i) + A(i, i) * X(i)"
        )
        assert text != JACOBI_SOURCE
        assert match_iterative_solve(parse_program(text)) is None

    def test_index_named_like_a_parameter_keeps_both(self):
        text = JACOBI_SOURCE.replace(
            "  DO i = 1, m\n    X(i) = X(i) + (B(i) - V(i)) / A(i, i)",
            "  DO maxiter = 1, m\n    X(maxiter) = X(maxiter) + (B(maxiter) - V(maxiter)) / A(maxiter, maxiter)",
        )
        assert text != JACOBI_SOURCE
        assert match_iterative_solve(parse_program(text)) == match_iterative_solve(jacobi_program())

    @pytest.mark.parametrize("listing", [JACOBI_SOURCE, SOR_SOURCE], ids=["jacobi", "sor"])
    def test_m_sweeps_recognized_and_run(self, listing):
        program = parse_program(listing.replace("DO k = 1, maxiter", "DO k = 1, m"))
        pat = match_iterative_solve(program)
        assert pat is not None and pat.iterations == pat.m == "m"
        assert generate_spmd(program).source == generate_spmd(parse_program(listing)).source

    def test_matmul_squares_one_operand(self):
        from repro.codegen.patterns import match_matmul
        from repro.machine import Grid2D

        program = parse_program(MATMUL_SOURCE.replace("C(k, j)", "B(k, j)"))
        pat = match_matmul(program)
        assert pat is not None and (pat.out, pat.left, pat.right) == ("A", "B", "B")
        B = np.random.default_rng(3).random((8, 8))
        res = run_spmd(load_generated(generate_spmd(program)), Grid2D(2, 2), MODEL, args=({"B": B},))
        np.testing.assert_allclose(res.value(0), B @ B, atol=1e-10)

    def test_one_array_in_two_roles_the_emitters_keep_apart_is_refused(self):
        """``B`` and ``X`` are separate inputs of the emitted solver; the
        old matcher returned ``B == X`` and ran with an unrelated ``X0``."""
        from repro.codegen.patterns import match_matmul

        text = JACOBI_SOURCE.replace("(B(i) - V(i))", "(X(i) - V(i))")
        assert match_iterative_solve(parse_program(text)) is None
        accumulates_into_operand = MATMUL_SOURCE.replace("B(i, k)", "A(i, k)")
        assert match_matmul(parse_program(accumulates_into_operand)) is None


class TestGeneration:
    def test_unknown_program_raises(self):
        from repro.lang import parse_program

        transpose = parse_program(
            "PROGRAM t\nPARAM n\nARRAY A(n, n), B(n, n)\n"
            "DO i = 1, n\nDO j = 1, n\nA(i, j) = B(j, i)\nEND DO\nEND DO\nEND\n"
        )
        with pytest.raises(CodegenError):
            generate_spmd(transpose)

    def test_matmul_generates_cannon(self):
        gen = generate_spmd(matmul_program())
        assert gen.strategy == "cannon"
        assert "shift(p, B_loc" in gen.source

    def test_matmul_cannon_runs(self, rng):
        from repro.machine import Grid2D

        gen = generate_spmd(matmul_program())
        fn = load_generated(gen)
        n, q = 12, 3
        B = rng.random((n, n))
        C = rng.random((n, n))
        res = run_spmd(fn, Grid2D(q, q), MODEL, args=({"B": B, "C": C},))
        np.testing.assert_allclose(res.value(0), B @ C, atol=1e-10)
        assert all(v is None for v in res.values[1:])

    def test_strategy_mismatch_raises(self):
        with pytest.raises(CodegenError):
            generate_spmd(sor_program(), strategy="bogus")

    def test_jacobi_default_strategy(self):
        assert generate_spmd(jacobi_program()).strategy == "data-parallel"

    def test_sor_default_strategy(self):
        assert generate_spmd(sor_program()).strategy == "ring-pipeline"

    def test_gauss_pipeline_justified_by_analysis(self):
        gen = generate_spmd(gauss_program())
        assert gen.strategy == "cyclic-pipeline"

    def test_source_is_valid_python(self):
        for program in (jacobi_program(), sor_program(), gauss_program()):
            gen = generate_spmd(program)
            compile(gen.source, "<test>", "exec")

    def test_source_references_pattern_names(self):
        gen = generate_spmd(jacobi_program())
        assert "env['A']" in gen.source and "env['B']" in gen.source

    @pytest.mark.parametrize("program, strategy", [(jacobi_program, "ring-pipeline"), (sor_program, "data-parallel")])
    def test_strategy_that_changes_the_meaning_is_refused(self, program, strategy):
        """Jacobi under the ring pipeline ran Gauss-Seidel, and SOR under
        data-parallel blocks ran Jacobi without reading omega."""
        with pytest.raises(CodegenError, match=f"strategy '{strategy}' not applicable"):
            generate_spmd(program(), strategy=strategy)

    def test_env_keys(self):
        gen = generate_spmd(sor_program())
        assert set(gen.env_keys()) == {"A", "B", "X0", "iterations", "omega"}
        gen2 = generate_spmd(gauss_program())
        assert set(gen2.env_keys()) == {"A", "B"}


class TestGeneratedExecution:
    @pytest.mark.parametrize("nprocs", [1, 2, 4])
    def test_jacobi_runs_and_matches(self, nprocs):
        check_cell("jacobi", "data-parallel", 32, nprocs)

    @pytest.mark.parametrize("nprocs", [1, 2, 4, 8])
    def test_sor_runs_and_matches(self, nprocs):
        check_cell("sor", "ring-pipeline", 32, nprocs)

    @pytest.mark.parametrize("strategy", ["cyclic-pipeline", "cyclic-multicast"])
    def test_gauss_runs_and_matches(self, strategy):
        check_cell("gauss", strategy, 32, 4)

    def test_generated_matches_handwritten_timing(self, medium_system):
        """Generated and hand-written kernels produce identical simulated
        times — they implement the same schedule."""
        from repro.kernels import sor_pipelined

        A, b, _ = medium_system
        fn = load_generated(generate_spmd(sor_program()))
        env = {"A": A, "B": b, "X0": np.zeros(32), "iterations": 4, "omega": 1.0}
        t_gen = run_spmd(fn, Ring(4), MODEL, args=(env,)).makespan
        t_hand = run_spmd(
            sor_pipelined, Ring(4), MODEL, args=(A, b, np.zeros(32), 1.0, 4)
        ).makespan
        assert t_gen == t_hand

    def test_renamed_program_generates_and_runs(self):
        text = (
            "PROGRAM other\nPARAM size, steps\n"
            "ARRAY Mat(size, size), Acc(size), Rhs(size), Sol(size)\n"
            "DO it = 1, steps\n"
            "  DO r = 1, size\n    Acc(r) = 0.0\n    DO c = 1, size\n"
            "      Acc(r) = Acc(r) + Mat(r, c) * Sol(c)\n    END DO\n  END DO\n"
            "  DO r = 1, size\n    Sol(r) = Sol(r) + (Rhs(r) - Acc(r)) / Mat(r, r)\n  END DO\n"
            "END DO\nEND\n"
        )
        gen = generate_spmd(parse_program(text))
        fn = load_generated(gen)
        A, b, _ = make_spd_system(16, seed=3)
        env = {"Mat": A, "Rhs": b, "X0": np.zeros(16), "iterations": 10}
        res = run_spmd(fn, Ring(4), MODEL, args=(env,))
        expected = interpret(parse_program(text), {"size": 16, "steps": 10}, {"Mat": A, "Rhs": b})["Sol"]
        np.testing.assert_allclose(res.value(0), expected, atol=1e-12)
