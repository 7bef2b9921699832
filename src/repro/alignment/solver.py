"""Component alignment solvers.

The component alignment problem (§3): partition the CAG's node set into
``q`` disjoint subsets minimizing the total weight of edges *across*
subsets, such that no two nodes of the same array share a subset.  The
general problem is NP-hard; Li & Chen solve it heuristically.  We provide

* :func:`exact_alignment` — branch-and-bound over subset assignments,
  optimal for the paper-sized graphs (<= ~16 nodes);
* :func:`greedy_alignment` — a Li-Chen-style heuristic: merge node
  clusters in decreasing edge-weight order when no array constraint is
  violated, then color clusters onto grid dimensions.

Both return an :class:`Alignment` mapping each node to a grid dimension.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

from repro.alignment.graph import CAG, Node
from repro.distribution.function import Kind
from repro.distribution.schemes import ArrayPlacement, Scheme
from repro.errors import AlignmentError
from repro.util.spans import spanned


@dataclass(frozen=True)
class Alignment:
    """A solved alignment: node -> grid dimension (1-based)."""

    assignment: tuple[tuple[Node, int], ...]
    cut_weight: float
    method: str

    def dim_of(self, node: Node) -> int:
        for n, g in self.assignment:
            if n == node:
                return g
        raise AlignmentError(f"node {node} not in alignment")

    def subsets(self) -> dict[int, list[Node]]:
        out: dict[int, list[Node]] = {}
        for node, g in self.assignment:
            out.setdefault(g, []).append(node)
        return {g: sorted(nodes) for g, nodes in sorted(out.items())}

    def describe(self, cag: CAG | None = None) -> str:
        label = (lambda n: cag.node_label(n)) if cag else (lambda n: f"{n[0]}{n[1]}")
        parts = []
        for g, nodes in self.subsets().items():
            names = ", ".join(label(n) for n in nodes)
            parts.append(f"grid dim {g}: {{{names}}}")
        return "; ".join(parts) + f"  (cut={self.cut_weight:g}, {self.method})"


def _cut_weight(cag: CAG, assign: dict[Node, int]) -> float:
    total = 0.0
    for edge in cag.edges.values():
        if assign[edge.u] != assign[edge.v]:
            total += edge.weight
    return total


def _validate(assign: Iterable[tuple[Node, int]]) -> None:
    seen: dict[tuple[str, int], Node] = {}
    for (array, dim), g in assign:
        key = (array, g)
        if key in seen:
            raise AlignmentError(
                f"dimensions {seen[key]} and {(array, dim)} of array {array!r} "
                f"share grid dimension {g}"
            )
        seen[key] = (array, dim)


def _find(parent: dict[Node, Node], n: Node) -> Node:
    """Union-find root of *n*, halving the path on the way."""
    while parent[n] != n:
        parent[n] = parent[parent[n]]
        n = parent[n]
    return n


def _merge_groups(
    cag: CAG, must_align: tuple[tuple[Node, Node], ...]
) -> dict[Node, int]:
    """Union-find pre-merge of must-co-align nodes; returns node -> group."""
    parent: dict[Node, Node] = {n: n for n in cag.nodes}

    for u, v in must_align:
        if u not in parent or v not in parent:
            raise AlignmentError(f"ALIGN constraint references unknown node {u} or {v}")
        ru, rv = _find(parent, u), _find(parent, v)
        if ru != rv:
            parent[rv] = ru
    groups: dict[Node, int] = {}
    roots: dict[Node, int] = {}
    for n in sorted(cag.nodes):
        r = _find(parent, n)
        if r not in roots:
            roots[r] = len(roots)
        groups[n] = roots[r]
    # A group may not contain two dims of one array.
    seen: dict[tuple[str, int], Node] = {}
    for n, g in groups.items():
        key = (n[0], g)
        if key in seen:
            raise AlignmentError(
                f"ALIGN constraints force {seen[key]} and {n} of array {n[0]!r} together"
            )
        seen[key] = n
    return groups


class _BranchAndBound:
    """Depth-first search over grid dimensions for the groups in order,
    pruned by the best cut so far: the first optimum in DFS order wins a
    tie.  (A class, not a self-recursive closure: a closure that calls
    itself is a reference cycle that outlives every call.)

    Groups are assigned in index order, so at depth ``idx`` exactly the
    groups before ``idx`` hold a dimension: ``earlier[idx]`` maps each of
    them to its edge weight to group ``idx``, in the order the cut adds
    them.
    """

    def __init__(
        self, arrays: list[list[str]], earlier: list[dict[int, float]], q: int,
    ) -> None:
        self.arrays, self.earlier, self.q = arrays, earlier, q
        self.best_cut = float("inf")
        self.best_assign: list[int] | None = None
        self.assign: list[int] = [0] * len(arrays)
        #: arrays holding each grid dimension (index 0 unused)
        self.used: list[set[str]] = [set() for _ in range(q + 1)]

    def solve(self) -> None:
        if self.assign:
            self.recurse(0, 0.0)
        else:
            self.best_cut, self.best_assign = 0.0, []

    def recurse(self, idx: int, cut: float) -> None:
        """Try each dimension for group *idx*; a branch whose cut reaches
        the best so far is not entered."""
        assign = self.assign
        arrays = self.arrays[idx]
        earlier = self.earlier[idx]
        last = idx + 1 == len(assign)
        for dim in range(1, 2 if idx == 0 else self.q + 1):
            used = self.used[dim]
            if not used.isdisjoint(arrays):
                continue
            extra = 0.0
            for other, w in earlier.items():
                if assign[other] != dim:
                    extra += w
            branch = cut + extra
            if branch >= self.best_cut:
                continue
            assign[idx] = dim
            if last:
                self.best_cut = branch
                self.best_assign = list(assign)
                continue
            used.update(arrays)
            self.recurse(idx + 1, branch)
            used.difference_update(arrays)


@spanned("alignment/solve")
def exact_alignment(
    cag: CAG,
    q: int = 2,
    must_align: tuple[tuple[Node, Node], ...] = (),
) -> Alignment:
    """Optimal alignment by branch and bound (small graphs).

    *must_align* pairs (e.g. from HPF-style ``ALIGN`` directives) are
    pre-merged: both nodes of each pair always land in the same subset.
    Without them every node is its own group, numbered in sorted order.
    """
    nodes = sorted(cag.nodes)
    if len(nodes) > 24:
        raise AlignmentError(
            f"exact solver limited to 24 nodes, got {len(nodes)}; use greedy_alignment"
        )
    arrays: list[list[str]]
    if must_align:
        groups = _merge_groups(cag, must_align)
        arrays = [[] for _ in range(max(groups.values(), default=-1) + 1)]
        for n, g in groups.items():
            arrays[g].append(n[0])
    else:
        groups = {n: g for g, n in enumerate(dict.fromkeys(nodes))}
        arrays = [[n[0]] for n in groups]
    # earlier[g]: edge weight to each group before g, summed per group,
    # in the order the edges first join them
    earlier: list[dict[int, float]] = [{} for _ in arrays]
    for e in cag.edges.values():
        gu, gv = groups[e.u], groups[e.v]
        if gu == gv:
            continue  # co-aligned by constraint: this edge is never cut
        if gu > gv:
            gu, gv = gv, gu
        row = earlier[gv]
        row[gu] = row.get(gu, 0.0) + e.weight

    search = _BranchAndBound(arrays, earlier, q)
    search.solve()
    best_cut, best_assign = search.best_cut, search.best_assign
    if best_assign is None:
        raise AlignmentError(
            f"no feasible {q}-way alignment (an array has more than {q} dimensions,"
            " or ALIGN constraints conflict)"
        )
    # groups is keyed by the sorted nodes
    assignment = tuple((n, best_assign[g]) for n, g in groups.items())
    _validate(assignment)
    return Alignment(assignment=assignment, cut_weight=best_cut, method="exact")


@spanned("alignment/solve")
def greedy_alignment(
    cag: CAG,
    q: int = 2,
    must_align: tuple[tuple[Node, Node], ...] = (),
) -> Alignment:
    """Li-Chen-style heuristic: cluster by descending edge weight, color.

    Clusters start as singleton nodes (pre-merged by any *must_align*
    constraints); an edge merges its endpoints' clusters when the merged
    cluster would contain at most one dimension of each array.  Finally
    clusters are assigned grid dimensions greedily (largest accumulated
    weight first); needing more than ``q`` colors is an error.
    """
    parent: dict[Node, Node] = {n: n for n in cag.nodes}

    members: dict[Node, set[Node]] = {n: {n} for n in cag.nodes}

    for u, v in must_align:
        if u not in parent or v not in parent:
            raise AlignmentError(f"ALIGN constraint references unknown node {u} or {v}")
        ru, rv = _find(parent, u), _find(parent, v)
        if ru == rv:
            continue
        merged_arrays = [a for (a, _) in members[ru]] + [a for (a, _) in members[rv]]
        if len(merged_arrays) != len(set(merged_arrays)):
            raise AlignmentError(
                f"ALIGN constraints force two dimensions of one array together: {u}, {v}"
            )
        parent[rv] = ru
        members[ru] |= members.pop(rv)

    for edge in cag.edge_list():
        ru, rv = _find(parent, edge.u), _find(parent, edge.v)
        if ru == rv:
            continue
        if {a for (a, _) in members[ru]} & {a for (a, _) in members[rv]}:
            continue  # would co-locate two dims of one array
        parent[rv] = ru
        members[ru] |= members.pop(rv)

    clusters = [members[r] for r in members if _find(parent, r) == r]
    # Weight of a cluster: total weight of internal edges (bigger first).
    def cluster_weight(cluster: set[Node]) -> float:
        return sum(
            e.weight for e in cag.edges.values() if e.u in cluster and e.v in cluster
        )

    clusters.sort(key=lambda c: (-cluster_weight(c), sorted(c)[0]))
    assign: dict[Node, int] = {}
    used_arrays: dict[int, set[str]] = {g: set() for g in range(1, q + 1)}
    for cluster in clusters:
        arrays = {a for (a, _) in cluster}
        placed = False
        for g in range(1, q + 1):
            if used_arrays[g] & arrays:
                continue
            for node in cluster:
                assign[node] = g
            used_arrays[g] |= arrays
            placed = True
            break
        if not placed:
            raise AlignmentError(
                f"greedy alignment needs more than q={q} grid dimensions"
            )
    _validate(assign.items())
    return Alignment(
        assignment=tuple(sorted(assign.items())),
        cut_weight=_cut_weight(cag, assign),
        method="greedy",
    )


def alignment_to_scheme(
    alignment: Alignment,
    cag: CAG,
    kinds: dict[str, Kind] | None = None,
    replicated_reads: frozenset[str] | set[str] = frozenset(),
    name: str = "",
) -> Scheme:
    """Materialize an alignment into a :class:`Scheme`.

    *kinds* optionally overrides the partitioning kind per array (default
    contiguous, per §3's "as the iteration space is rectangular");
    arrays in *replicated_reads* get ``rest="replicated"`` (values needed
    by every processor row, like ``X`` in Jacobi's L1).
    """
    kinds = kinds or {}
    dims = dict(alignment.assignment)
    placements = []
    for array, rank in sorted(cag.arrays.items()):
        try:
            dim_map = tuple([dims[(array, d)] for d in range(1, rank + 1)])
        except KeyError as missing:
            raise AlignmentError(f"node {missing.args[0]} not in alignment") from None
        placements.append(
            ArrayPlacement(
                array=array,
                dim_map=dim_map,
                kinds=(kinds.get(array, Kind.BLOCK),) * rank,
                rest="replicated" if array in replicated_reads else "fixed",
            )
        )
    return Scheme(tuple(placements), name=name)  # in array order already
