"""The table builder computes each fact once — and nothing else changes.

``build_phase_tables`` prices every segment from per-loop facts (CAG
parts, memoised per-loop costs) and ``algorithm1`` prices each scheme
pair once (ISSUE 13).  Three kinds of evidence that this is only a
change of *when* things are computed:

* **equivalence** — every table entry equals, with ``==``, a reference
  assembled segment by segment from the public functions, the way
  ``perf/staged.py`` replays a compile;
* **byte identity** — the pickled ``SolveOutcome`` (what the plan cache
  stores) has the sha256 and length recorded in
  ``tests/goldens/solve_pickles.json`` at the commit before the
  restructuring.  Pickle memoises by identity, so a memo left on a
  pickled object grows the bytes and an object shared between two
  segments' graphs shrinks them;
* **work counts** — deterministic call counters, not timings, guard the
  saving.

Regenerate the golden (only for a deliberate format change) with
``PYTHONPATH=src python tests/test_phase_tables_incremental.py``.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import pickle
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.alignment.graph as graph
import repro.dependence.analysis as dependence_analysis
import repro.distribution.redistribution as redistribution
import repro.dp.phases as phases
from repro.alignment import alignment_to_scheme, build_cag, exact_alignment, greedy_alignment
from repro.alignment.solver import Alignment
from repro.costmodel.loopcost import LoopFacts
from repro.costmodel import estimate_loop_cost, grid_candidates
from repro.dp import algorithm1, build_phase_tables
from repro.dependence.analysis import live_loop_carried_arrays
from repro.dp.algorithm1 import brute_force_min_cost
from repro.dp.phases import PhaseEntry, solve_program_distribution
from repro.errors import AlignmentError
from repro.lang import parse_program
from repro.lang.analysis import collect_ref_sites
from repro.lang.ast import DoLoop, array_refs
from repro.lang.programs import GAUSS_SOURCE, JACOBI_SOURCE, MATMUL_SOURCE, SOR_SOURCE
from repro.machine.model import MachineModel
from repro.service.plan import SolveOutcome

MODEL = MachineModel(tf=1, tc=10)
NPROCS = 16
GOLDEN_PATH = pathlib.Path(__file__).parent / "goldens" / "solve_pickles.json"

#: how a loop reads its operands: aligned, shifted, strided
SUBSCRIPTS = ("i", "i + 1", "2 * i")


def chain_source(loops: list[tuple]) -> str:
    """A ``k`` loop around ``len(loops)`` loops chained through vectors.

    Loop ``idx`` writes ``V{idx+1}``; its spec is ``(subscript, second,
    matvec)``: the subscript its operands are read with, whether it also
    reads the vector before its source, and whether it is a mat-vec
    accumulation over ``M`` instead of an elementwise update.
    """
    s = len(loops)
    arrays = ", ".join(f"V{idx}(m)" for idx in range(s + 1))
    lines = ["PROGRAM chain", "PARAM m, t", f"ARRAY {arrays}, M(m, m)", "DO k = 1, t"]
    for idx, (sub, second, matvec) in enumerate(loops):
        dst, src = f"V{idx + 1}", f"V{idx}"
        lines.append("  DO i = 1, m")
        if matvec:
            lines += ["    DO j = 1, m", f"      {dst}(i) = {dst}(i) + M(i, j) * {src}(j)",
                      "    END DO"]
        else:
            rhs = f"{dst}(i) + {src}({sub})"
            if second and idx:
                rhs += f" * V{idx - 1}({sub})"
            lines.append(f"    {dst}(i) = {rhs}")
        lines.append("  END DO")
    lines += ["END DO", "END"]
    return "\n".join(lines) + "\n"


def fixed_chain(s: int) -> str:
    """The deterministic chain of the goldens and the work counts: every
    second loop reads two operands, every third reads them shifted."""
    return chain_source([(SUBSCRIPTS[idx % 3 == 2], idx % 2 == 1, False) for idx in range(s)])


PROGRAMS = {
    "jacobi": (JACOBI_SOURCE, {"m": 256, "maxiter": 1}),
    "sor": (SOR_SOURCE, {"m": 128, "maxiter": 1}),
    "gauss": (GAUSS_SOURCE, {"m": 96}),
    "matmul": (MATMUL_SOURCE, {"n": 48}),
    "chain-s2": (fixed_chain(2), {"m": 128, "t": 1}),
    "chain-s5": (fixed_chain(5), {"m": 256, "t": 1}),
    "chain-s8": (fixed_chain(8), {"m": 512, "t": 1}),
}


def reference_entries(tables) -> dict[tuple[int, int], PhaseEntry]:
    """Every (i, j) entry from the public per-segment functions alone."""
    program, loops, env = tables.program, tables.loops, tables.env
    entries = {}
    s = len(loops)
    for i in range(1, s + 1):
        for j in range(1, s - i + 2):
            stmts = list(loops[i - 1 : i - 1 + j])
            cag = build_cag(stmts, program, env, tables.model, tables.nprocs)
            try:
                alignment = exact_alignment(cag, q=2)
            except AlignmentError:
                alignment = greedy_alignment(cag, q=2)
            written = {site.array for site in collect_ref_sites(stmts) if site.is_write}
            scheme = alignment_to_scheme(
                alignment, cag, replicated_reads=frozenset(set(cag.arrays) - written),
                name=f"P[{i},{j}]",
            )
            best_cost, best_grid = float("inf"), (tables.nprocs, 1)
            for grid in grid_candidates(tables.nprocs):
                total = 0.0
                for loop in stmts:
                    total += estimate_loop_cost(loop, scheme, grid, env, tables.model).total
                if total < best_cost:
                    best_cost, best_grid = total, grid
            entries[(i, j)] = PhaseEntry(scheme, best_grid, best_cost, alignment, cag)
    return entries


def assert_tables_match_reference(tables) -> None:
    reference = reference_entries(tables)
    assert list(tables.entries) == list(reference)
    for key, want in reference.items():
        got = tables.entries[key]
        assert got.scheme == want.scheme, key
        assert got.grid == want.grid, key
        assert got.cost == want.cost, key
        assert got.alignment == want.alignment, key
        # dict equality ignores order; the graph's orders are part of the
        # cached bytes and of the solvers' tie-breaks
        assert got.cag.nodes == want.cag.nodes, key
        assert list(got.cag.arrays.items()) == list(want.cag.arrays.items()), key
        assert list(got.cag.edges) == list(want.cag.edges), key
        for edge_key, edge in want.cag.edges.items():
            assert got.cag.edges[edge_key] == edge, (key, edge_key)  # terms in order, weight
        assert got == want, key


def assert_dp_matches_brute_force(tables) -> None:
    result = tables.solve()
    best, segments = brute_force_min_cost(
        tables.s, tables.M, tables.P, tables.change_cost, tables.loop_carried_cost
    )
    assert result.cost == best
    assert result.segments == segments


@pytest.mark.parametrize("label", sorted(PROGRAMS))
def test_tables_equal_the_segment_by_segment_reference(label):
    source, env = PROGRAMS[label]
    tables = build_phase_tables(parse_program(source), NPROCS, env, MODEL)
    assert_tables_match_reference(tables)
    assert_dp_matches_brute_force(tables)


@settings(max_examples=25, deadline=None)
@given(
    loops=st.lists(
        st.tuples(st.sampled_from(SUBSCRIPTS), st.booleans(), st.booleans()),
        min_size=1, max_size=8,
    ),
    nprocs=st.sampled_from([4, 8, 16]),
)
def test_random_chains_equal_the_reference(loops, nprocs):
    program = parse_program(chain_source(loops))
    tables = build_phase_tables(program, nprocs, {"m": 64, "t": 1}, MODEL)
    assert_tables_match_reference(tables)
    assert_dp_matches_brute_force(tables)


# ---------------------------------------------------------------------------
# byte identity of what the plan cache stores
# ---------------------------------------------------------------------------


#: programs whose golden also covers an ``execute=True`` solve, whose
#: outcome pickles the validation's plans, terms and reports too
EXECUTED = ("jacobi",)


def solve_pickle_facts() -> dict[str, dict]:
    facts = {}
    runs = [(label, False) for label in PROGRAMS] + [(label, True) for label in EXECUTED]
    for label, execute in runs:
        source, env = PROGRAMS[label]
        solved = solve_program_distribution(
            parse_program(source), NPROCS, env, MODEL, execute=execute
        )
        data = pickle.dumps(SolveOutcome(*solved), pickle.HIGHEST_PROTOCOL)
        key = f"{label}-execute" if execute else label
        facts[key] = {"sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data)}
    return facts


def test_pickled_outcomes_reproduce_the_parent_commits_bytes():
    assert solve_pickle_facts() == json.loads(GOLDEN_PATH.read_text())


def test_oracle_memos_stay_out_of_the_pickle():
    source, env = PROGRAMS["jacobi"]
    tables, result = solve_program_distribution(parse_program(source), NPROCS, env, MODEL)
    fresh = pickle.dumps(tables, pickle.HIGHEST_PROTOCOL)
    tables.transition_plans(result)  # every oracle has run by now
    assert pickle.dumps(tables, pickle.HIGHEST_PROTOCOL) == fresh
    clone = pickle.loads(fresh)
    assert clone == tables
    assert clone.loop_carried_cost(*[clone.P(1, 1)] * 2) == tables.loop_carried_cost(
        *[tables.P(1, 1)] * 2
    )


# ---------------------------------------------------------------------------
# work counts
# ---------------------------------------------------------------------------


def counting(fn, calls: list):
    def wrapper(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    return wrapper


def test_s8_chain_computes_each_fact_once(monkeypatch):
    pair_calls: list = []
    fact_calls: list = []
    estimator_calls: list = []
    move_calls: list = []
    weight_calls: list = []
    dim_of_calls: list = []
    monkeypatch.setattr(
        dependence_analysis, "find_dependences",
        counting(dependence_analysis.find_dependences, pair_calls),
    )
    monkeypatch.setattr(
        dependence_analysis, "_pair_dependences",
        counting(dependence_analysis._pair_dependences, pair_calls),
    )
    monkeypatch.setattr(phases, "loop_facts", counting(phases.loop_facts, fact_calls))
    monkeypatch.setattr(LoopFacts, "price", counting(LoopFacts.price, estimator_calls))
    # wherever a layout change is priced from
    for module in (phases, redistribution):
        if hasattr(module, "placement_change_terms"):
            monkeypatch.setattr(
                module, "placement_change_terms",
                counting(redistribution.placement_change_terms, move_calls),
            )
    seconds = MachineModel.seconds

    def counted_seconds(self, *args):
        if sys._getframe(1).f_code.co_filename == graph.__file__:
            weight_calls.append(args)
        return seconds(self, *args)

    monkeypatch.setattr(MachineModel, "seconds", counted_seconds)
    monkeypatch.setattr(Alignment, "dim_of", counting(Alignment.dim_of, dim_of_calls))
    source, env = PROGRAMS["chain-s8"]
    tables, result = solve_program_distribution(parse_program(source), NPROCS, env, MODEL)
    priced_moves = list(move_calls)
    tables.transition_plans(result)

    # the loop-carried term: no full pairwise analysis of the outer loop,
    # only pairs of a write and a read of one array
    assert pair_calls and all(len(args) == 3 for args in pair_calls)
    for a, b, _order in pair_calls:
        assert a.array == b.array and a.is_write != b.is_write
    sites = collect_ref_sites([tables.outer])
    full = sum(
        a.array == b.array and (a.is_write or b.is_write)
        for idx, a in enumerate(sites) for b in sites[idx + 1 :]
    )
    assert len(pair_calls) < full

    # per loop: one gathering of its pricing facts
    assert [args[0] for args in fact_calls] == tables.loops

    # per loop part: each CAG term priced once, not once per segment
    parts = [graph.cag_part(loop, tables.program, env, NPROCS) for loop in tables.loops]
    assert len(weight_calls) == sum(len(part.terms) for part in parts)

    # a scheme's dimension map is read from the assignment once
    assert dim_of_calls == []

    # per distinct (src placement, dst placement, size, grid): one pricing
    assert priced_moves
    assert len(priced_moves) == len(set(priced_moves))

    # per (loop, placements of the arrays it references, grid): one estimate
    s, grids = tables.s, grid_candidates(NPROCS)
    restrictions = set()
    for (i, j), entry in tables.entries.items():
        for idx in range(i - 1, i - 1 + j):
            arrays = {site.array for site in collect_ref_sites([tables.loops[idx]])}
            restrictions.add(
                (idx, tuple(p for p in entry.scheme.placements if p.array in arrays))
            )
    assert len(estimator_calls) <= len(restrictions) * len(grids)
    assert len(restrictions) <= 3 * s  # not one per segment containing the loop
    segment_loops = s * (s + 1) * (s + 2) // 6
    assert len(estimator_calls) * 4 < segment_loops * len(grids)  # what it used to cost


def reference_live_carried(loop) -> frozenset[str]:
    """Loop-carried arrays from the full pairwise analysis
    (``loop_carried_arrays``: every level-0 flow dependence
    ``find_dependences`` reports), killed ones dropped."""
    carried = dependence_analysis.loop_carried_arrays(loop)
    first = {}
    for site in collect_ref_sites([loop]):
        first.setdefault(site.array, site)
    live = set()
    for array in carried:
        site = first[array]
        accumulates = any(
            ref.name == array and ref.subscripts == site.ref.subscripts
            for ref in array_refs(site.stmt.rhs)
        )
        if not site.is_write or accumulates:
            live.add(array)
    return frozenset(live)


def every_loop(stmts):
    for stmt in stmts:
        if isinstance(stmt, DoLoop):
            yield stmt
            yield from every_loop(stmt.body)


@pytest.mark.parametrize("label", sorted(PROGRAMS))
def test_live_carried_arrays_equal_the_full_analysis(label):
    program = parse_program(PROGRAMS[label][0])
    loops = list(every_loop(program.body))
    assert loops
    for loop in loops:
        assert live_loop_carried_arrays(loop) == reference_live_carried(loop)


@settings(max_examples=40, deadline=None)
@given(
    loops=st.lists(
        st.tuples(st.sampled_from(SUBSCRIPTS), st.booleans(), st.booleans()),
        min_size=1, max_size=8,
    ),
)
def test_live_carried_arrays_of_random_chains_equal_the_full_analysis(loops):
    program = parse_program(chain_source(loops))
    for loop in every_loop(program.body):
        assert live_loop_carried_arrays(loop) == reference_live_carried(loop)


def test_algorithm1_prices_each_pair_once():
    source, env = PROGRAMS["chain-s8"]
    tables = build_phase_tables(parse_program(source), NPROCS, env, MODEL)
    change_calls: list = []
    carried_calls: list = []
    result = algorithm1(
        tables.s, tables.M, tables.P,
        counting(tables.change_cost, change_calls),
        counting(tables.loop_carried_cost, carried_calls),
    )
    assert result == tables.solve()
    for calls in (change_calls, carried_calls):
        pairs = [(prev[0].name, nxt[0].name) for prev, nxt in calls]
        assert len(pairs) == len(set(pairs))
    s = tables.s
    # adjacent (i-k, k) -> (i, j) pairs: independent of the first segment
    assert len(change_calls) == sum((i - 1) * (s - i + 1) for i in range(2, s + 1))
    # (first, last) pairs: a last segment starting after the first, or the whole sequence
    assert len(carried_calls) == s * (s - 1) // 2 + 1


if __name__ == "__main__":
    GOLDEN_PATH.write_text(json.dumps(solve_pickle_facts(), indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")
