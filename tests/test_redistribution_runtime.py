"""The executable redistribution runtime (ISSUE 2 tentpole).

Every analytic :class:`RedistTerm` kind must lower to real message
traffic, run on both engines, land the exact destination sections on
every rank, and measure words inside the documented slack band
(``docs/REDISTRIBUTION.md``): for exact literal lowerings on divisible
extents, ``analytic <= measured <= 2 * analytic``.
"""

from __future__ import annotations

import functools
import itertools
from math import prod

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.costmodel import CommCosts
from repro.costmodel.bands import REDIST_WORDS
from repro.distribution.redistribution import RULES, TERM_KINDS, change_rule
from repro.distribution import (
    ArrayPlacement,
    Kind,
    lower_placement_delta,
    pack_section,
    placement_change_plan,
    redistribute,
)
from repro.distribution.sections import assemble, section_table
from repro.dp import solve_program_distribution
from repro.dp.validate import validate_transitions
from repro.errors import DistributionError
from repro.lang import jacobi_program
from repro.machine import Grid2D, MachineModel, run_spmd
from repro.machine.threaded import run_spmd_threaded

MODEL = MachineModel(tf=1, tc=10)
RUNNERS = {"engine": run_spmd, "threaded": run_spmd_threaded}


def pl(dim_map, kinds=None, rest="fixed", array="T"):
    kinds = kinds or tuple(Kind.BLOCK for _ in dim_map)
    return ArrayPlacement(array, tuple(dim_map), kinds=tuple(kinds), rest=rest)


def run_move(src, dst, extents, grid, backend="engine"):
    """Execute one placement change; return (per-rank sections, result)."""
    total = prod(extents)
    data = np.arange(1, total + 1, dtype=np.float64)

    def prog(p):
        local = pack_section(data, src, extents, grid, p.rank)
        out = yield from redistribute(p, local, src, dst, extents, grid)
        return out

    res = RUNNERS[backend](prog, Grid2D(*grid), MODEL)
    return data, res


def check_sections(data, res, dst, extents, grid):
    for rank in range(grid[0] * grid[1]):
        want = pack_section(data, dst, extents, grid, rank)
        got = np.asarray(res.values[rank])
        assert np.array_equal(want, got), f"rank {rank}: {got} != {want}"


def measured_words(res):
    return res.metrics.scope_totals("redist").words


def analytic_words(src, dst, extents, grid):
    plan = placement_change_plan(src, dst, prod(extents), grid, CommCosts(MODEL))
    return plan.analytic_words


class TestSections:
    def test_block_partition_covers_exactly(self):
        t = section_table(pl((1,)), (12,), (4, 1))
        assert [len(s) for s in t] == [3, 3, 3, 3]
        assemble({r: t[r].astype(float) for r in range(4)}, pl((1,)), (12,), (4, 1))

    def test_cyclic_partition(self):
        t = section_table(pl((1,), kinds=(Kind.CYCLIC,)), (8,), (4, 1))
        assert list(t[0]) == [0, 4]
        assert list(t[3]) == [3, 7]

    def test_fixed_rest_pins_copies_at_origin(self):
        t = section_table(pl((1,)), (8,), (4, 2))
        # Only column p2 == 0 holds data; the rest are empty.
        for rank in range(8):
            p1, p2 = divmod(rank, 2)
            assert (len(t[rank]) > 0) == (p2 == 0)

    def test_replicated_rest_everywhere(self):
        t = section_table(pl((None,), rest="replicated"), (8,), (2, 2))
        for sec in t:
            assert list(sec) == list(range(8))

    def test_pack_section_values(self):
        data = np.arange(100, 108, dtype=float)
        got = pack_section(data, pl((1,)), (8,), (4, 1), 2)
        assert list(got) == [104.0, 105.0]


class TestEveryTermKindExecutes:
    """One executable lowering per analytic primitive, both backends."""

    CASES = {
        # dst_kind_change: block -> cyclic on the same grid dim.
        "AffineTransform": (
            pl((1,)), pl((1,), kinds=(Kind.CYCLIC,)), (16,), (4, 1), "RegridOp"
        ),
        # departition to the pinned home: all sections to coordinate 0.
        "Gather": (pl((1,)), pl((None,)), (16,), (4, 1), "GatherOp"),
        # split from the pinned home.
        "Scatter": (pl((None,)), pl((1,)), (16,), (4, 1), "ScatterOp"),
        # departition with replication: the paper's CTime2 move.
        "ManyToManyMulticast": (
            pl((1,)), pl((None,), rest="replicated"), (16,), (4, 1), "AllgatherOp"
        ),
        # remap onto a differently-sized grid dim: per-holder multicast.
        "OneToManyMulticast": (
            pl((1,)), pl((2,)), (16,), (2, 4), "BcastOp"
        ),
        # aligned remap between equal-extent grid dims: point-to-point.
        "Transfer": (pl((1,)), pl((2,)), (16,), (4, 4), "TransferOp"),
    }

    @pytest.mark.parametrize("kind", sorted(CASES))
    @pytest.mark.parametrize("backend", sorted(RUNNERS))
    def test_kind(self, kind, backend):
        src, dst, extents, grid, opname = self.CASES[kind]
        lowering = lower_placement_delta(src, dst, extents, grid)
        assert lowering.exact
        assert any(type(op).__name__ == opname for op in lowering.ops)

        data, res = run_move(src, dst, extents, grid, backend)
        check_sections(data, res, dst, extents, grid)
        analytic = analytic_words(src, dst, extents, grid)
        measured = measured_words(res)
        assert analytic <= measured <= 2 * analytic

    def test_plan_kind_matches_lowering(self):
        """The analytic term kinds appear among the lowered op kinds."""
        for kind, (src, dst, extents, grid, _op) in self.CASES.items():
            plan = placement_change_plan(
                src, dst, prod(extents), grid, CommCosts(MODEL)
            )
            assert kind in {t.primitive for t in plan.terms}, kind
            lowering = lower_placement_delta(src, dst, extents, grid)
            assert kind in lowering.kinds, kind


class TestFallbackExchange:
    def test_compound_remap_is_correct_but_inexact(self):
        """A two-dim swap has no literal lowering; the generic exchange
        still lands exact sections (words are not banded)."""
        src = pl((1, 2), kinds=(Kind.BLOCK, Kind.BLOCK))
        dst = pl((2, 1), kinds=(Kind.BLOCK, Kind.BLOCK))
        extents, grid = (8, 8), (2, 2)
        lowering = lower_placement_delta(src, dst, extents, grid)
        assert not lowering.exact
        for backend in RUNNERS:
            data, res = run_move(src, dst, extents, grid, backend)
            check_sections(data, res, dst, extents, grid)

    def test_mismatched_placements_rejected(self):
        with pytest.raises(DistributionError, match="arrays differ"):
            lower_placement_delta(
                pl((1,), array="T"), pl((1,), array="U"), (8,), (4, 1)
            )

    def test_uneven_extent_still_exact_sections(self):
        """Non-divisible extents (ragged blocks) stay element-correct."""
        src, dst = pl((1,)), pl((1,), kinds=(Kind.CYCLIC,))
        data, res = run_move(src, dst, (17,), (4, 1))
        check_sections(data, res, dst, (17,), (4, 1))


def _divisible_extent(grid, lo=1, hi=4):
    n = grid[0] * grid[1]
    return st.integers(lo, hi).map(lambda k: k * n * 2)


PLACEMENT_1D = st.tuples(
    st.sampled_from([None, 1, 2]),
    st.sampled_from([Kind.BLOCK, Kind.CYCLIC]),
    st.sampled_from(["fixed", "replicated"]),
)


@st.composite
def move_case(draw):
    grid = draw(st.sampled_from([(1, 4), (4, 1), (2, 2), (2, 4)]))
    extent = draw(_divisible_extent(grid))
    placements = [
        pl((g,), kinds=(kind,), rest=rest)
        for g, kind, rest in (draw(PLACEMENT_1D), draw(PLACEMENT_1D))
    ]
    return grid, extent, placements[0], placements[1]


def check_move(src, dst, extents, grid):
    """Run one move: exact destination sections always; a lowering flagged
    ``exact`` runs only primitives its plan names and lands in the band."""
    plan = placement_change_plan(src, dst, prod(extents), grid, CommCosts(MODEL))
    planned = {t.primitive for t in plan.terms}
    assert planned <= set(TERM_KINDS)
    lowering = lower_placement_delta(src, dst, extents, grid)
    data, res = run_move(src, dst, extents, grid)
    check_sections(data, res, dst, extents, grid)
    if lowering.exact:
        assert lowering.kinds <= planned
        analytic, measured = plan.analytic_words, measured_words(res)
        if src.rest == "replicated" and dst.rest == "fixed":
            # The runtime exploits the spare copies and may move less
            # than the aggregate analytic rule charges (upper bound
            # only — see docs/REDISTRIBUTION.md).
            assert measured <= REDIST_WORDS.upper * analytic
        elif analytic == 0:
            assert measured == 0
        else:
            assert REDIST_WORDS.lower * analytic <= measured <= REDIST_WORDS.upper * analytic
    return plan, lowering


class TestPropertyRandomMoves:
    @settings(max_examples=60, deadline=None)
    @given(case=move_case())
    def test_executed_move_reaches_exact_dst_sections(self, case):
        grid, extent, src, dst = case
        check_move(src, dst, (extent,), grid)


SWEEP_GRIDS = [(1, 4), (4, 1), (2, 2), (2, 4), (4, 4)]
SWEEP_PLACEMENTS = [
    pl((g,), kinds=(kind,), rest=rest)
    for g in (None, 1, 2)
    for kind in (Kind.BLOCK, Kind.CYCLIC)
    for rest in ("fixed", "replicated")
]


@functools.cache
def sweep(grid):
    """Every ordered pair of the 12 one-dimensional placements on *grid*,
    exactly as written — extent-1 grid dimensions are *not* rewritten to
    ``None`` first.  Returns ``{rule name: cases hit}``; ``replicate`` (the
    per-array completion) is hit when the plan charges beyond the
    dimension's own rule."""
    hits = {rule.name: 0 for rule in RULES}
    for src, dst in itertools.permutations(SWEEP_PLACEMENTS, 2):
        plan, lowering = check_move(src, dst, (16,), grid)
        rule = change_rule(src, dst, 0, grid)
        hits[rule.name] += 1
        hits["replicate"] += len(plan.terms) > len(rule.price)
        assert rule.literal or not lowering.exact
    return hits


class TestExhaustiveSingleDimensionSweep:
    @pytest.mark.parametrize("grid", SWEEP_GRIDS, ids=lambda g: f"{g[0]}x{g[1]}")
    def test_every_pair_on_grid(self, grid):
        hits = sweep(grid)  # the assertions are check_move's, per pair
        assert sum(hits.values()) - hits["replicate"] == 12 * 11

    @pytest.mark.parametrize("rule", RULES, ids=lambda r: r.name)
    def test_every_rule_row_is_hit(self, rule):
        assert sum(sweep(grid)[rule.name] for grid in SWEEP_GRIDS) > 0

    def test_non_literal_rules_need_an_extent_one_grid_dimension(self):
        for grid in ((2, 2), (2, 4), (4, 4)):
            assert not any(sweep(grid)[r.name] for r in RULES if not r.literal)


class TestDpExecuteMode:
    def test_jacobi_chain_validates_on_both_backends(self):
        """Algorithm 1's Fig 3/Table 3 answer, re-validated by execution:
        the loop-carried ManyToManyMulticast costs 2400 analytic and
        moves exactly its analytic 3840 words on the wire."""
        tables, result, validation = solve_program_distribution(
            jacobi_program(), 16, {"m": 256, "maxiter": 1}, MODEL, execute=True
        )
        assert result.loop_carried == 2400.0
        assert validation.ok
        assert set(validation.backends) == {"engine", "threaded"}
        loop = [t for t in validation.transitions if t.label == "loop[X]"]
        assert len(loop) == 1
        (t,) = loop
        assert t.exact
        assert t.analytic_words == 3840
        assert t.measured_words("engine") == 3840
        assert t.measured_words("threaded") == 3840

    def test_validate_transitions_standalone(self):
        tables, result = solve_program_distribution(
            jacobi_program(), 4, {"m": 64, "maxiter": 1}, MODEL
        )
        validation = validate_transitions(tables, result, backends=("engine",))
        assert validation.ok
        assert "loop[X]" in validation.describe()


class TestMultiphaseKernel:
    @pytest.mark.parametrize("backend", sorted(RUNNERS))
    def test_matches_sequential_reference(self, backend):
        from repro.distribution.sections import assemble
        from repro.kernels.multiphase import (
            Y_CYCLIC,
            multiphase_gemv,
            multiphase_gemv_seq,
        )

        rng = np.random.default_rng(7)
        m, n = 24, 4
        A = rng.random((m, m))
        res = RUNNERS[backend](multiphase_gemv, Grid2D(n, 1), MODEL, args=(A,))
        full = assemble(
            {r: res.values[r] for r in range(n)}, Y_CYCLIC, (m,), (n, 1)
        )
        assert np.allclose(full, multiphase_gemv_seq(A))
        # Boundary 1 is the CTime2 many-to-many: exact words.
        assert res.metrics.scope_totals("phase1to2").words == (m // n) * n * (n - 1)
        # Boundary 2 is a regrid: 2(N-1)m/N words, inside the band.
        assert res.metrics.scope_totals("phase2to3").words == 2 * (n - 1) * (m // n)


class TestGeneratedRedistProgram:
    def test_emitted_source_round_trips(self):
        from repro.codegen.redist import RedistMove, emit_redistribution_program
        from repro.codegen import load_generated

        mv = RedistMove("T", pl((1,)), pl((None,), rest="replicated"), (16,))
        gen = emit_redistribution_program([mv], (4, 1))
        assert "redistribute(" in gen.source
        fn = load_generated(gen)
        data = {"T": np.arange(16, dtype=float)}
        res = run_spmd(fn, Grid2D(4, 1), MODEL, args=(data,))
        for rank in range(4):
            got = res.values[rank]["T"]
            assert np.array_equal(got, data["T"])
        assert res.metrics.scope_totals("redist:T").words == 4 * 3 * 4

    def test_duplicate_moves_rejected(self):
        from repro.codegen.redist import RedistMove, emit_redistribution_program
        from repro.errors import CodegenError

        mv = RedistMove("T", pl((1,)), pl((None,)), (8,))
        with pytest.raises(CodegenError, match="duplicate"):
            emit_redistribution_program([mv, mv], (4, 1))
