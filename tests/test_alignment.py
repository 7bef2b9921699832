"""Component affinity graph and alignment solver tests (paper §3)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.alignment import (
    alignment_to_scheme,
    build_cag,
    exact_alignment,
    greedy_alignment,
)
from repro.alignment.graph import CAG, CagEdge
from repro.distribution.function import Kind
from repro.errors import AlignmentError
from repro.lang import gauss_program, jacobi_program, parse_program, sor_program
from repro.machine.model import MachineModel

ENV = {"m": 256, "maxiter": 1}
MODEL = MachineModel(tf=1, tc=10)


def jacobi_cag():
    p = jacobi_program()
    return build_cag(p.loops()[0].body, p, ENV, MODEL, nprocs=16)


class TestCagConstruction:
    def test_jacobi_nodes(self):
        cag = jacobi_cag()
        assert set(cag.nodes) == {
            ("A", 1), ("A", 2), ("V", 1), ("B", 1), ("X", 1),
        }

    def test_jacobi_fig2_edges_exist(self):
        cag = jacobi_cag()
        labels = {tuple(sorted((cag.node_label(e.u), cag.node_label(e.v))))
                  for e in cag.edges.values()}
        assert ("A1", "V") in labels
        assert ("A2", "X") in labels
        assert ("B", "X") in labels
        assert ("V", "X") in labels

    def test_no_same_array_edges(self):
        cag = jacobi_cag()
        for e in cag.edges.values():
            assert e.u[0] != e.v[0]

    def test_matvec_edge_heaviest(self):
        """Fig 2 / §5: the A1--V edge (m^2 transfers) dominates."""
        cag = jacobi_cag()
        heaviest = cag.edge_list()[0]
        names = {heaviest.u, heaviest.v}
        assert names == {("A", 1), ("V", 1)}

    def test_c1_greater_than_c4(self):
        """The paper's explicit remark: c1 > c4."""
        cag = jacobi_cag()
        w = {frozenset({cag.node_label(e.u), cag.node_label(e.v)}): e.weight
             for e in cag.edges.values()}
        assert w[frozenset({"A1", "V"})] > w[frozenset({"B", "X"})]

    def test_sor_weights_match_paper_e_terms(self):
        """§5: e1 = m^2 Transfer(1), e2 = m OneToMany(1,N),
        e3 = e4 = m Transfer(1) with m=256, N=16, tc=10."""
        p = sor_program()
        cag = build_cag(p.loops()[0].body, p, ENV, MODEL, nprocs=16)
        w = {frozenset({cag.node_label(e.u), cag.node_label(e.v)}): e.weight
             for e in cag.edges.values()}
        m, logN, tc = 256, 4, 10
        # e1 accumulates the line-5 m^2 term plus the line-7 diagonal term.
        assert w[frozenset({"A1", "V"})] >= m * m * tc
        assert w[frozenset({"A2", "X"})] >= m * logN * tc
        assert w[frozenset({"B", "X"})] == m * tc
        assert w[frozenset({"V", "X"})] == m * tc

    def test_accumulation_refs_not_double_counted(self):
        """V appears twice in ``V(i) = V(i) + ...`` — one edge term only."""
        p = parse_program(
            "PROGRAM t\nPARAM m\nARRAY V(m), W(m)\n"
            "DO i = 1, m\nV(i) = V(i) + W(i)\nEND DO\nEND\n"
        )
        cag = build_cag(p.body, p, {"m": 8}, MODEL, nprocs=4)
        (edge,) = cag.edges.values()
        assert len(edge.terms) == 1

    def test_render(self):
        text = jacobi_cag().render(title="CAG")
        assert "A1 -- V" in text and "Transfer" in text

    def test_gauss_fig7_nodes(self):
        p = gauss_program()
        cag = build_cag(p.body, p, {"m": 64}, MODEL, nprocs=8)
        assert ("L", 1) in cag.nodes and ("L", 2) in cag.nodes


class TestExactAlignment:
    def test_jacobi_partition(self):
        """§3's result: {A1, V} and {A2, X} split across the two grid
        dimensions (B can sit on either side at equal cost)."""
        cag = jacobi_cag()
        al = exact_alignment(cag, q=2)
        assert al.dim_of(("A", 1)) == al.dim_of(("V", 1))
        assert al.dim_of(("A", 2)) == al.dim_of(("X", 1))
        assert al.dim_of(("A", 1)) != al.dim_of(("A", 2))

    def test_constraint_never_violated(self):
        cag = jacobi_cag()
        al = exact_alignment(cag, q=2)
        assert al.dim_of(("A", 1)) != al.dim_of(("A", 2))

    def test_cut_weight_reported(self):
        cag = jacobi_cag()
        al = exact_alignment(cag, q=2)
        # Only the A2--X edge (and B ties) can be cut... the optimal cut
        # equals the A2--X weight when B goes with A1.
        assert al.cut_weight > 0

    def test_infeasible_when_rank_exceeds_q(self):
        p = parse_program(
            "PROGRAM t\nPARAM m\nARRAY T(m, m, m), V(m)\n"
            "DO i = 1, m\nV(i) = T(i, i, i)\nEND DO\nEND\n"
        )
        cag = build_cag(p.body, p, {"m": 8}, MODEL, nprocs=4)
        with pytest.raises(AlignmentError):
            exact_alignment(cag, q=2)

    def test_three_way(self):
        p = parse_program(
            "PROGRAM t\nPARAM m\nARRAY T(m, m, m), V(m)\n"
            "DO i = 1, m\nV(i) = T(i, i, i)\nEND DO\nEND\n"
        )
        cag = build_cag(p.body, p, {"m": 8}, MODEL, nprocs=4)
        al = exact_alignment(cag, q=3)
        dims = {al.dim_of(("T", d)) for d in (1, 2, 3)}
        assert len(dims) == 3

    def test_describe(self):
        cag = jacobi_cag()
        text = exact_alignment(cag).describe(cag)
        assert "grid dim 1" in text and "grid dim 2" in text


def brute_force_alignment(cag: CAG, q: int) -> tuple[tuple, float]:
    """The first minimum-cut feasible assignment of the sorted nodes in
    lexicographic order of their grid dimensions, the first node on
    dimension 1 — the optimum a depth-first search in that order finds."""
    import itertools

    nodes = sorted(cag.nodes)
    best, best_cut = None, float("inf")
    for dims in itertools.product(range(1, q + 1), repeat=len(nodes) - 1):
        assign = dict(zip(nodes, (1, *dims)))
        if len({(a, assign[(a, d)]) for a, d in nodes}) < len(nodes):
            continue  # two dimensions of one array share a grid dimension
        cut = sum(e.weight for e in cag.edges.values() if assign[e.u] != assign[e.v])
        if cut < best_cut:
            best, best_cut = tuple(assign.items()), cut
    return best, best_cut


class TestExactIsTheFirstOptimum:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10_000), st.sampled_from([2, 3]))
    def test_exact_equals_brute_force_on_random_graphs(self, seed, q):
        """Integer weights add exactly, so the search's order of sums
        cannot matter; ties go to the first assignment in DFS order."""
        import random

        rnd = random.Random(seed)
        arrays = {f"ar{i}": rnd.choice([1, 1, 2]) for i in range(rnd.randint(1, 5))}
        nodes = [(a, d) for a, r in arrays.items() for d in range(1, r + 1)]
        rnd.shuffle(nodes)
        edges = {}
        for _ in range(rnd.randint(0, 8)):
            u, v = rnd.sample(nodes, 2) if len(nodes) > 1 else (nodes[0],) * 2
            if u[0] == v[0]:
                continue
            key = (u, v) if u <= v else (v, u)
            e = edges.setdefault(key, CagEdge(u=key[0], v=key[1]))
            e.weight += rnd.randint(1, 3)
        cag = CAG(nodes=nodes, edges=edges, arrays=arrays)
        assignment, cut = brute_force_alignment(cag, q)
        exact = exact_alignment(cag, q=q)
        assert (exact.assignment, exact.cut_weight) == (assignment, cut)


class TestGreedyAlignment:
    def test_matches_exact_on_paper_programs(self):
        for maker in (jacobi_program, sor_program):
            p = maker()
            cag = build_cag(p.loops()[0].body, p, ENV, MODEL, nprocs=16)
            exact = exact_alignment(cag, q=2)
            greedy = greedy_alignment(cag, q=2)
            assert greedy.cut_weight == exact.cut_weight

    def test_greedy_on_gauss(self):
        p = gauss_program()
        cag = build_cag(p.body, p, {"m": 64}, MODEL, nprocs=8)
        al = greedy_alignment(cag, q=2)
        assert al.dim_of(("A", 1)) == al.dim_of(("L", 1))
        assert al.dim_of(("A", 2)) == al.dim_of(("L", 2))

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10_000))
    def test_greedy_feasible_on_random_graphs(self, seed):
        """Greedy always returns a constraint-respecting alignment and is
        never better than exact (sanity of both solvers)."""
        import random

        rnd = random.Random(seed)
        arrays = {f"ar{i}": rnd.choice([1, 1, 2]) for i in range(rnd.randint(2, 5))}
        nodes = [(a, d) for a, r in arrays.items() for d in range(1, r + 1)]
        edges = {}
        for _ in range(rnd.randint(1, 8)):
            u, v = rnd.sample(nodes, 2)
            if u[0] == v[0]:
                continue
            key = (u, v) if u <= v else (v, u)
            e = edges.setdefault(key, CagEdge(u=key[0], v=key[1]))
            e.weight += rnd.randint(1, 100)
        cag = CAG(nodes=nodes, edges=edges, arrays=arrays)
        greedy = greedy_alignment(cag, q=2)
        exact = exact_alignment(cag, q=2)
        assert exact.cut_weight <= greedy.cut_weight + 1e-9
        for a, r in arrays.items():
            if r == 2:
                assert greedy.dim_of((a, 1)) != greedy.dim_of((a, 2))


class TestAlignmentToScheme:
    def test_jacobi_scheme(self):
        cag = jacobi_cag()
        al = exact_alignment(cag)
        scheme = alignment_to_scheme(al, cag, replicated_reads={"X", "B"})
        a = scheme.placement("A")
        assert set(a.dim_map) == {1, 2}
        assert scheme.placement("X").rest == "replicated"
        assert scheme.placement("V").rest == "fixed"

    def test_cyclic_kind_override(self):
        cag = jacobi_cag()
        al = exact_alignment(cag)
        scheme = alignment_to_scheme(al, cag, kinds={"A": Kind.CYCLIC})
        assert scheme.placement("A").kinds == (Kind.CYCLIC, Kind.CYCLIC)
        assert scheme.placement("V").kinds == (Kind.BLOCK,)
