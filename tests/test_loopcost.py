"""Rule-based loop-cost estimator tests against the paper's formulas."""

from __future__ import annotations

import random

import pytest

import repro.dp.phases as phases
from repro.alignment.graph import cag_part, merge_cag
from repro.costmodel import estimate_loop_cost, grid_candidates
from repro.costmodel.loopcost import loop_facts, loop_time
from repro.costmodel.primitives import ONE_TO_MANY, PRIMITIVES, REDUCTION, SHIFT
from repro.distribution import ArrayPlacement, Scheme
from repro.dp import build_phase_tables
from repro.lang import jacobi_program, parse_program, sor_program
from repro.machine.model import MachineModel
from tests.test_canonical_text_golden import perf_corpus
from tests.test_phase_tables_incremental import PROGRAMS as PAPER_PROGRAMS
from tests.test_phase_tables_incremental import SUBSCRIPTS, chain_source

MODEL = MachineModel(tf=1, tc=10)
M, N = 256, 16
ENV = {"m": M, "maxiter": 1}


def jacobi_loops():
    outer = jacobi_program().loops()[0]
    l1, l2 = outer.body
    return l1, l2


def section3_scheme(x_replicated=True):
    """{A1, V} -> dim 1, {A2, B, X} -> dim 2 (paper §3)."""
    return Scheme.of(
        ArrayPlacement("A", (1, 2)),
        ArrayPlacement("V", (1,)),
        ArrayPlacement("B", (2,)),
        ArrayPlacement("X", (2,), rest="replicated" if x_replicated else "fixed"),
    )


class TestJacobiL1:
    def test_comp_2m2_over_N(self):
        l1, _ = jacobi_loops()
        cost = estimate_loop_cost(l1, section3_scheme(), (1, N), ENV, MODEL)
        assert cost.comp == 2 * M * M / N

    def test_reduction_term_grid_1xN(self):
        """Reduction(m/N1, N2) with N1=1: Reduction(m, N) = m log N tc."""
        l1, _ = jacobi_loops()
        cost = estimate_loop_cost(l1, section3_scheme(), (1, N), ENV, MODEL)
        assert cost.comm == M * 4 * 10

    def test_no_reduction_grid_Nx1(self):
        """With N2=1 the reduction dimension collapses: comm free."""
        l1, _ = jacobi_loops()
        cost = estimate_loop_cost(l1, section3_scheme(), (N, 1), ENV, MODEL)
        assert cost.comm == 0
        assert cost.comp == 2 * M * M / N

    def test_2d_grid_splits_both(self):
        l1, _ = jacobi_loops()
        cost = estimate_loop_cost(l1, section3_scheme(), (4, 4), ENV, MODEL)
        assert cost.comp == 2 * M * M / 16
        # Reduction(m/4, 4) = (m/4) * 2 * tc
        assert cost.comm == (M / 4) * 2 * 10


class TestJacobiL2:
    def test_comp_3m_over_N2(self):
        _, l2 = jacobi_loops()
        cost = estimate_loop_cost(l2, section3_scheme(), (1, N), ENV, MODEL)
        assert cost.comp == 3 * M / N

    def test_realignment_v_to_x_on_Nx1(self):
        """V on dim 1 read by X owners: with N2=1 the LHS is effectively
        undistributed, so V must be allgathered: ManyToMany(m/N, N)."""
        _, l2 = jacobi_loops()
        cost = estimate_loop_cost(l2, section3_scheme(), (N, 1), ENV, MODEL)
        assert cost.comp == 3 * M  # replicated computation
        assert cost.comm > 0

    def test_aligned_everything_free(self):
        """§4's L2 scheme: all 1-D arrays on dim 1 — no communication."""
        _, l2 = jacobi_loops()
        scheme = Scheme.of(
            ArrayPlacement("A", (1, 2)),
            ArrayPlacement("V", (1,)),
            ArrayPlacement("B", (1,)),
            ArrayPlacement("X", (1,)),
        )
        cost = estimate_loop_cost(l2, scheme, (N, 1), ENV, MODEL)
        assert cost.comm == 0
        assert cost.comp == 3 * M / N


class TestSequentialVars:
    def test_sor_reduction_per_step(self):
        """§5: marking i sequential gives m x Reduction(1, N)."""
        outer = sor_program().loops()[0]
        scheme = Scheme.of(
            ArrayPlacement("A", (1, 2)),
            ArrayPlacement("V", (1,)),
            ArrayPlacement("B", (2,)),
            ArrayPlacement("X", (2,), rest="replicated"),
        )
        counts = loop_facts(outer.body[0], ENV, {"i"}).price(scheme, (1, N))
        red_terms = [t for t in counts if t[0] == REDUCTION.name]
        assert red_terms
        # m x Reduction(1, N) = m * log N * tc
        assert sum(MODEL.seconds(*t[1:4]) for t in red_terms) == M * 4 * 10


class TestStencilShift:
    def test_offset_neighbor_shift(self):
        p = parse_program(
            "PROGRAM s\nPARAM m\nARRAY U(m), W(m)\n"
            "DO i = 2, m\nU(i) = W(i - 1)\nEND DO\nEND\n"
        )
        scheme = Scheme.of(ArrayPlacement("U", (1,)), ArrayPlacement("W", (1,)))
        counts = loop_facts(p.loops()[0], {"m": 64}).price(scheme, (4, 1))
        shift_terms = [t for t in counts if t[0] == SHIFT.name]
        assert len(shift_terms) == 1

    def test_zero_offset_free(self):
        p = parse_program(
            "PROGRAM s\nPARAM m\nARRAY U(m), W(m)\n"
            "DO i = 1, m\nU(i) = W(i)\nEND DO\nEND\n"
        )
        scheme = Scheme.of(ArrayPlacement("U", (1,)), ArrayPlacement("W", (1,)))
        cost = estimate_loop_cost(p.loops()[0], scheme, (4, 1), {"m": 64}, MODEL)
        assert cost.comm == 0


class TestPinnedMulticast:
    def test_gauss_style_broadcast_counted(self):
        """B(k) read by owners spanning the same grid dim: per-element
        OneToManyMulticast (the §6 naive compiler cost)."""
        p = parse_program(
            "PROGRAM g\nPARAM m\nARRAY B(m), L(m, m)\n"
            "DO k = 1, m\nDO i = k + 1, m\n"
            "L(i, k) = B(i) - B(k)\nEND DO\nEND DO\nEND\n"
        )
        scheme = Scheme.of(
            ArrayPlacement("B", (1,)),
            ArrayPlacement("L", (1, 2)),
        )
        counts = loop_facts(p.loops()[0], {"m": 64}).price(scheme, (8, 1))
        mc = [t for t in counts if t[0] == ONE_TO_MANY.name]
        assert mc
        # 64 distinct B(k) tokens, each multicast over 8 procs (log = 3).
        assert sum(MODEL.seconds(*t[1:4]) for t in mc) == 64 * 3 * 10


class TestUnknownArraysIgnored:
    def test_scheme_subset(self):
        """Arrays absent from the scheme contribute nothing (treated as
        replicated scalars)."""
        l1, _ = jacobi_loops()
        scheme = Scheme.of(ArrayPlacement("A", (1, 2)), ArrayPlacement("V", (1,)))
        cost = estimate_loop_cost(l1, scheme, (N, 1), ENV, MODEL)
        assert cost.comp > 0


def _pricing_programs() -> dict[str, tuple[str, dict]]:
    programs = {f"perf/{e.label}": (e.source, e.env) for e in perf_corpus().build_corpus(0)}
    programs.update({f"tables/{label}": program for label, program in PAPER_PROGRAMS.items()})
    return programs


PRICING_PROGRAMS = _pricing_programs()


class TestFactsOnce:
    """The table builder gathers each loop's facts once and prices from them."""

    @pytest.mark.parametrize("label", sorted(PRICING_PROGRAMS))
    def test_builder_prices_equal_one_shot_estimates(self, label, monkeypatch):
        built = []
        real = phases.loop_facts

        def recording(nest, env, *args):
            facts = real(nest, env, *args)
            built.append((nest, facts))
            return facts

        monkeypatch.setattr(phases, "loop_facts", recording)
        source, env = PRICING_PROGRAMS[label]
        nprocs = 16
        tables = build_phase_tables(parse_program(source), nprocs, env, MODEL)
        assert [nest for nest, _ in built] == tables.loops
        for entry in tables.entries.values():
            for grid in grid_candidates(nprocs):
                for nest, facts in built:
                    counts = facts.price(entry.scheme, grid)
                    memoised = loop_time(counts, MODEL)
                    fresh = estimate_loop_cost(nest, entry.scheme, grid, env, MODEL)
                    assert memoised.comp == fresh.comp and memoised.comm == fresh.comm
                    assert counts == loop_facts(nest, env).price(entry.scheme, grid)


def _seeded_chain(seed: int, s: int = 6) -> str:
    rng = random.Random(seed)
    return chain_source(
        [(rng.choice(SUBSCRIPTS), rng.random() < 0.5, rng.random() < 0.5) for _ in range(s)]
    )


RULE_PROGRAMS = {**PAPER_PROGRAMS, "chain-seed-0": (_seeded_chain(0), {"m": 64, "t": 1})}


class TestCountTermRules:
    """A count term names what it charged: ``"comp"`` or a Table 1 row."""

    @pytest.mark.parametrize("label", sorted(RULE_PROGRAMS))
    def test_every_term_names_comp_or_a_table1_row(self, label):
        source, env = RULE_PROGRAMS[label]
        nprocs = 16
        tables = build_phase_tables(parse_program(source), nprocs, env, MODEL)
        facts = [loop_facts(loop, env) for loop in tables.loops]
        seen = set()
        for entry in tables.entries.values():
            for grid in grid_candidates(nprocs):
                for nest_facts in facts:
                    for term in nest_facts.price(entry.scheme, grid):
                        assert len(term) == 5, term
                        assert term[0] == "comp" or term[0] in PRIMITIVES, term
                        seen.add(term[0])
        assert "comp" in seen


#: Two machines whose CAG weights are proportional (every weight counts
#: one-word messages), so both solves align every segment alike.
TWO_MODELS = (MachineModel(tf=1, tc=10), MachineModel(tf=0.5, tc=3, alpha=40))


class TestCountsOnce:
    """Counts depend on the program and the layouts, never on the machine:
    counted once, a program's CAG weights, loops and redistributions take
    seconds under any model, bit for bit what a full pass under it gives."""

    @pytest.mark.parametrize("label", sorted(PAPER_PROGRAMS))
    def test_counts_priced_under_two_models_equal_full_passes(self, label):
        source, env = PAPER_PROGRAMS[label]
        program = parse_program(source)
        nprocs = 16
        grids = grid_candidates(nprocs)
        first = build_phase_tables(program, nprocs, env, TWO_MODELS[0])
        parts = [cag_part(loop, program, env, nprocs) for loop in first.loops]
        facts = [loop_facts(loop, env) for loop in first.loops]
        counts = {
            (key, idx, grid): facts[idx].price(entry.scheme, grid)
            for key, entry in first.entries.items()
            for idx in range(key[0] - 1, sum(key) - 1)
            for grid in grids
        }
        pairs = [
            ((a.scheme, a.grid), (b.scheme, b.grid))
            for a in first.entries.values() for b in first.entries.values()
        ]
        plans = [(first.change_plan(*pair), first.loop_carried_plans(*pair)) for pair in pairs]

        for model in TWO_MODELS:
            full = build_phase_tables(program, nprocs, env, model)
            for key, entry in full.entries.items():
                assert entry.scheme == first.entries[key].scheme, key
                assert merge_cag(parts[key[0] - 1 : sum(key) - 1], model) == entry.cag, key
                totals = {
                    grid: sum(
                        loop_time(counts[key, idx, grid], model).total
                        for idx in range(key[0] - 1, sum(key) - 1)
                    )
                    for grid in grids
                }
                best = min(grids, key=lambda grid: totals[grid])
                assert (best, totals[best]) == (entry.grid, entry.cost), key
                for idx in range(key[0] - 1, sum(key) - 1):
                    one_shot = estimate_loop_cost(full.loops[idx], entry.scheme, entry.grid, env, model)
                    assert loop_time(counts[key, idx, entry.grid], model) == one_shot
            for pair, (change, carried) in zip(pairs, plans):
                assert change.seconds(model) == full.change_cost(*pair)
                assert sum(plan.seconds(model) for plan in carried) == full.loop_carried_cost(*pair)
