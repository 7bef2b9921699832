"""Guest front ends (repro.service.guests).

Three surfaces — DSL text, decorated Python loop nests, JSON-IR
documents — must all lower to the *same* IR, which the digest tests pin
by asserting content-address equality against the reference programs.
"""

from __future__ import annotations

import json

import pytest

from repro.api import Session
from repro.errors import ParseError, ReproError
from repro.lang import (
    gauss_program,
    jacobi_program,
    matmul_program,
    program_to_text,
    sor_program,
)
from repro.service.guests import available_guests, get_guest, loop_nest, program_from_json
from repro.service import lower, program_digest, program_to_json, register_guest

CORPUS = [jacobi_program, sor_program, gauss_program, matmul_program]


@loop_nest(params="m, maxiter", arrays="A(m, m), V(m), B(m), X(m)")
def py_jacobi(m, maxiter, A, V, B, X):
    for k in range(1, maxiter + 1):
        for i in range(1, m + 1):
            V[i] = 0.0
            for j in range(1, m + 1):
                V[i] = V[i] + A[i, j] * X[j]
        for i in range(1, m + 1):
            X[i] = X[i] + (B[i] - V[i]) / A[i, i]


PY_JACOBI_TEXT = '''
@loop_nest(params="m, maxiter", arrays="A(m, m), V(m), B(m), X(m)")
def jacobi(m, maxiter, A, V, B, X):
    for k in range(1, maxiter + 1):
        for i in range(1, m + 1):
            V[i] = 0.0
            for j in range(1, m + 1):
                V[i] = V[i] + A[i, j] * X[j]
        for i in range(1, m + 1):
            X[i] = X[i] + (B[i] - V[i]) / A[i, i]
'''


class TestRegistry:
    def test_builtin_guests_present(self):
        assert set(available_guests()) >= {"dsl", "python-ast", "json-ir"}

    def test_unknown_guest(self):
        with pytest.raises(ReproError, match="unknown guest"):
            get_guest("cobol")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ReproError, match="already registered"):
            register_guest("dsl")(lambda s: s)

    def test_custom_guest_roundtrip(self):
        @register_guest("upper-dsl")
        def _upper(source):
            return lower(source.lower().upper())

        try:
            p = lower(program_to_text(jacobi_program()), guest="upper-dsl")
            assert program_digest(p) == program_digest(jacobi_program())
        finally:
            from repro.service import guests

            del guests._GUESTS["upper-dsl"]

    def test_guest_must_return_program(self):
        @register_guest("broken")
        def _broken(source):
            return 42

        try:
            with pytest.raises(ReproError, match="expected Program"):
                lower("x", guest="broken")
        finally:
            from repro.service import guests

            del guests._GUESTS["broken"]


class TestDslGuest:
    @pytest.mark.parametrize("maker", CORPUS, ids=lambda m: m.__name__)
    def test_text_roundtrip(self, maker):
        program = maker()
        assert program_digest(lower(program_to_text(program))) == program_digest(
            program
        )

    def test_program_passthrough(self):
        p = jacobi_program()
        assert lower(p) is p

    def test_rejects_other_types(self):
        with pytest.raises(ReproError, match="dsl guest"):
            lower(42)


class TestPythonAstGuest:
    def test_decorated_function_matches_dsl(self):
        p = lower(py_jacobi, guest="python-ast")
        assert program_digest(p) == program_digest(jacobi_program())

    def test_program_object_is_cached_on_function(self):
        first = lower(py_jacobi, guest="python-ast")
        assert lower(py_jacobi, guest="python-ast") is first
        assert py_jacobi.__repro_program__ is first

    def test_source_text_matches_dsl(self):
        p = lower(PY_JACOBI_TEXT, guest="python-ast")
        assert program_digest(p) == program_digest(jacobi_program())

    def test_range_step_lowers(self):
        src = '''
@loop_nest(params="m", arrays="A(m)")
def skip(m, A):
    for i in range(1, m + 1, 2):
        A[i] = 0.0
'''
        p = lower(src, guest="python-ast")
        loop = p.body[0]
        assert loop.step == 2
        # range stop is exclusive; DO bound is inclusive.
        assert str(loop.ub) == "m"

    def test_undecorated_function_rejected(self):
        def plain():
            pass

        with pytest.raises(ReproError, match="loop_nest"):
            lower(plain, guest="python-ast")

    def test_text_without_decorator_rejected(self):
        with pytest.raises(ReproError, match="decorator"):
            lower("def f():\n    pass\n", guest="python-ast")

    @pytest.mark.parametrize(
        "body,why",
        [
            ("    while m:\n        pass", "only for/assign"),
            ("    for i in items:\n        A[i] = 0.0", "range"),
            ("    for i in range(1, m + 1):\n        A[i] = A[i] < 1", "no IR equivalent"),
            ("    for i in range(1, m + 1):\n        A[i] = foo(A[i])", "intrinsic"),
            ("    for i in range(1, m + 1):\n        B[i] = 0.0", "undeclared"),
            ("    for i in range(1, m + 1):\n        A[i, i] = 0.0", "rank"),
        ],
    )
    def test_restriction_diagnostics(self, body, why):
        src = (
            '@loop_nest(params="m", arrays="A(m)")\n'
            "def f(m, A):\n" + body + "\n"
        )
        with pytest.raises((ReproError, ParseError), match=why):
            lower(src, guest="python-ast")

    def test_intrinsic_calls_lower(self):
        src = '''
@loop_nest(params="m", arrays="A(m)")
def clamp(m, A):
    for i in range(1, m + 1):
        A[i] = max(A[i], 0.0)
'''
        p = lower(src, guest="python-ast")
        assert "max(" in program_to_text(p)


class TestJsonIrGuest:
    @pytest.mark.parametrize("maker", CORPUS, ids=lambda m: m.__name__)
    def test_exact_roundtrip(self, maker):
        program = maker()
        doc = program_to_json(program)
        back = program_from_json(doc)
        assert program_to_text(back) == program_to_text(program)
        assert program_digest(back) == program_digest(program)
        # And the document itself survives a JSON text round trip.
        again = program_from_json(json.dumps(doc))
        assert program_to_json(again) == doc

    def test_directives_and_alignments_survive(self):
        from repro.lang import parse_program

        src = program_to_text(jacobi_program()).replace(
            "ARRAY A(m, m), V(m), B(m), X(m)",
            "ARRAY A(m, m), V(m), B(m), X(m)\n"
            "DISTRIBUTE A(BLOCK, *)\n"
            "ALIGN B(i) WITH A(*, i)",
        )
        program = parse_program(src)
        back = program_from_json(program_to_json(program))
        assert back.directives == program.directives
        assert back.alignments == program.alignments

    def test_lower_accepts_dict_and_text(self):
        doc = program_to_json(sor_program())
        assert program_digest(lower(doc, guest="json-ir")) == program_digest(
            lower(json.dumps(doc), guest="json-ir")
        )

    def test_schema_mismatch_rejected(self):
        doc = program_to_json(jacobi_program())
        doc["schema"] = "repro-json-ir/0"
        with pytest.raises(ReproError, match="schema"):
            program_from_json(doc)

    def test_malformed_nodes_rejected(self):
        with pytest.raises(ReproError, match="expected"):
            program_from_json({"name": "x"})
        doc = program_to_json(jacobi_program())
        doc["body"][0] = {"mystery": True}
        with pytest.raises(ReproError, match="unrecognized statement"):
            program_from_json(doc)

    def test_rejects_other_types(self):
        with pytest.raises(ReproError, match="json-ir guest"):
            lower(42, guest="json-ir")

    def test_text_that_is_not_json_raises_a_located_parse_error(self):
        with pytest.raises(ParseError, match="not JSON") as err:
            lower("program p\nend", "json-ir")
        assert (err.value.line, err.value.column) == (1, 1)
        text = json.dumps(program_to_json(sor_program()), indent=1)
        lines = text.splitlines()
        lines[3] = lines[3].replace(":", " ", 1)
        with pytest.raises(ParseError, match="not JSON") as err:
            program_from_json("\n".join(lines))
        assert err.value.line == 4 and err.value.column > 1
        with pytest.raises(ParseError, match="JSON object, got list"):
            program_from_json("[1, 2]")

    def test_session_memoises_nothing_for_text_that_is_not_json(self):
        session = Session(cache="memory")
        for _ in range(2):
            with pytest.raises(ParseError, match="not JSON"):
                session.compile("program p\nend", guest="json-ir")
        assert not session._forms
        assert session.stats.lookups == 0
