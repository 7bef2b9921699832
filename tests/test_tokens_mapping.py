"""Token analysis and index-processor mapping (paper §6, Table 5)."""

from __future__ import annotations

import pytest

from repro.dependence.tokens import analyze_tokens, classify_token
from repro.errors import DependenceError
from repro.lang import gauss_program, parse_program, sor_program
from repro.pipeline.mapping import choose_mapping, mapping_table
from repro.pipeline.transform import (
    pipeline_decisions,
    pipeline_savings,
    savings_table,
)
from repro.machine.model import MachineModel


@pytest.fixture
def gauss_tri():
    return gauss_program().loops()[0]


@pytest.fixture
def gauss_back():
    return gauss_program().loops()[2]


class TestTokenAnalysis:
    def test_triangularization_tokens(self, gauss_tri):
        tokens = analyze_tokens(gauss_tri)
        texts = {str(t.site.ref) for t in tokens}
        # Table 5's tokens (plus the divisor A(i,k) / L(i,k) operands).
        assert {"A(k, k)", "B(k)", "A(k, j)"} <= texts

    def test_free_vars(self, gauss_tri):
        tokens = {str(t.site.ref): t for t in analyze_tokens(gauss_tri)}
        assert tokens["B(k)"].free_vars == ("i",)
        assert tokens["A(k, j)"].free_vars == ("i",)
        assert tokens["A(i, k)"].free_vars == ()

    def test_accumulation_operand_skipped(self, gauss_back):
        tokens = analyze_tokens(gauss_back)
        # V(i) appears as LHS and identically on the RHS of the accumulate:
        # only non-identical refs are tokens.
        for t in tokens:
            lhs = t.site.stmt.lhs
            assert not (
                getattr(lhs, "name", None) == t.array
                and getattr(lhs, "subscripts", None) == t.site.ref.subscripts
            )

    def test_use_family_format(self, gauss_tri):
        tokens = {str(t.site.ref): t for t in analyze_tokens(gauss_tri)}
        fam = tokens["B(k)"].use_family()
        assert "+ i*(0, 1)^t" in fam

    def test_array_filter(self, gauss_tri):
        tokens = analyze_tokens(gauss_tri, arrays=frozenset({"B"}))
        assert all(t.array == "B" for t in tokens)


class TestClassification:
    def test_table5_pipeline_tokens(self, gauss_tri):
        """The paper's Table 5: B(k), A(k,k), A(k,j) pipeline; rest local."""
        expect = {
            "A(i, k)": "local",
            "A(k, k)": "pipeline",
            "L(i, k)": "local",
            "B(k)": "pipeline",
            "A(k, j)": "pipeline",
        }
        for token in analyze_tokens(gauss_tri):
            pi = tuple(1 if v == "i" else 0 for v in token.nest_vars)
            cls = classify_token(token, pi)
            assert cls.pattern == expect[str(token.site.ref)], str(token.site.ref)

    def test_back_substitution_x_pipelines(self, gauss_back):
        tokens = {str(t.site.ref): t for t in analyze_tokens(gauss_back)}
        cls = classify_token(tokens["X(j)"], (0, 1))
        assert cls.pattern == "pipeline"

    def test_mapping_k_would_broadcast_nothing_but_misown(self, gauss_tri):
        """Mapping by k makes B(i)-style tokens pipelined instead, but the
        writes land off-owner — choose_mapping must prefer i."""
        choice = choose_mapping(gauss_tri)
        assert choice.var == "i"
        assert choice.broadcasts == 0

    def test_used_in_pes_text(self, gauss_tri):
        tokens = {str(t.site.ref): t for t in analyze_tokens(gauss_tri)}
        local = classify_token(tokens["A(i, k)"], (0, 1))
        assert "mod N" in local.used_in_pes()
        pipe = classify_token(tokens["B(k)"], (0, 1))
        assert pipe.used_in_pes() == "all PEs"

    def test_short_mapping_padded(self, gauss_tri):
        tokens = {str(t.site.ref): t for t in analyze_tokens(gauss_tri)}
        # 2-entry mapping against the 3-deep A(k,j) token pads with zeros.
        cls = classify_token(tokens["A(k, j)"], (0, 1))
        assert cls.mapping == (0, 1, 0)

    def test_broadcast_classification(self):
        p = parse_program(
            "PROGRAM t\nPARAM m\nARRAY A(m, m), C(m)\n"
            "DO i = 1, m\nDO j = 1, m\nA(i, j) = C(1)\nEND DO\nEND DO\nEND\n"
        )
        nest = p.loops()[0]
        tokens = analyze_tokens(nest)
        (c_token,) = [t for t in tokens if t.array == "C"]
        # C(1) is free in both i and j; mapping by i gives dot 1 on one
        # direction and 0 on the other -> still pipelinable; a mixed
        # mapping (1, 1) gives two nonzero dots -> broadcast.
        assert classify_token(c_token, (1, 1)).pattern == "broadcast"
        assert classify_token(c_token, (1, 0)).pattern == "pipeline"


class TestChooseMapping:
    def test_gauss_mapping_table_renders(self, gauss_tri, gauss_back):
        choice_tri = choose_mapping(gauss_tri)
        choice_back = choose_mapping(gauss_back)
        text = mapping_table([choice_tri, choice_back])
        assert "B(k)" in text and "all PEs" in text and "(i - 1) mod N" in text

    def test_sor_inner_nest(self):
        outer = sor_program().loops()[0]
        choice = choose_mapping(outer)
        assert choice.broadcasts == 0

    def test_no_loops_raises(self):
        p = parse_program("PROGRAM t\nPARAM m\nARRAY V(m)\nV(1) = 0.0\nEND\n")
        with pytest.raises((DependenceError, IndexError, AttributeError)):
            choose_mapping(p.body[0])  # type: ignore[arg-type]


class TestTransform:
    def test_decisions_shift_direction(self, gauss_tri):
        _choice, decisions = pipeline_decisions(gauss_tri)
        shifts = [d for d in decisions if d.pattern == "shift"]
        assert shifts and all(d.direction == 1 for d in shifts)

    def test_back_substitution_shifts(self, gauss_back):
        _choice, decisions = pipeline_decisions(gauss_back)
        xdec = [d for d in decisions if d.token_text == "X(j)"]
        assert xdec and xdec[0].pattern == "shift"

    def test_savings_positive(self, gauss_tri):
        rows, naive, pipe = pipeline_savings(
            gauss_tri, {"m": 64}, MachineModel(tf=1, tc=10), nprocs=16
        )
        assert naive > pipe > 0

    def test_savings_grow_with_n(self, gauss_tri):
        model = MachineModel(tf=1, tc=10)

        def ratio(n):
            _, naive, pipe = pipeline_savings(gauss_tri, {"m": 64}, model, n)
            return naive / pipe

        assert ratio(64) > ratio(4)

    def test_local_tokens_free(self, gauss_tri):
        rows, _, _ = pipeline_savings(
            gauss_tri, {"m": 32}, MachineModel(tf=1, tc=10), nprocs=8
        )
        for r in rows:
            if r.pattern == "none":
                assert r.naive_cost == 0 and r.pipelined_cost == 0

    def test_savings_table_renders(self, gauss_tri):
        rows, _, _ = pipeline_savings(
            gauss_tri, {"m": 32}, MachineModel(tf=1, tc=10), nprocs=8
        )
        text = savings_table(rows)
        assert "B(k)" in text and "pattern" in text
