"""Component affinity graph construction (paper §3, Figs 2 and 7).

Nodes are array *dimensions* ``(array, dim)``; an edge joins two
dimensions whose subscripts (within one statement) differ by a constant —
the paper's affinity relation.  Edge weights accumulate the priced
occurrences over all statements (see :mod:`repro.alignment.weights`).
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field

from repro.costmodel.primitives import CommCosts
from repro.lang.affine import difference_is_constant
from repro.lang.analysis import RefSite, collect_ref_sites
from repro.lang.ast import ArrayRef, Program, Stmt
from repro.machine.model import MachineModel
from repro.alignment.weights import WeightTerm, edge_weight
from repro.util.spans import spanned
from repro.util.tables import Table

Node = tuple[str, int]  # (array name, 1-based dimension)


@dataclass
class CagEdge:
    """An affinity edge with its accumulated weight."""

    u: Node
    v: Node
    weight: float = 0.0
    terms: list[WeightTerm] = field(default_factory=list)

    def key(self) -> tuple[Node, Node]:
        return (self.u, self.v) if self.u <= self.v else (self.v, self.u)

    def describe(self) -> str:
        body = " + ".join(t.describe() for t in self.terms)
        return f"{_node_name(self.u)} -- {_node_name(self.v)}: {body} = {self.weight:g}"


def _node_name(node: Node) -> str:
    name, dim = node
    return f"{name}{dim}" if dim > 0 else name


@dataclass
class CAG:
    """A component affinity graph."""

    nodes: list[Node]
    edges: dict[tuple[Node, Node], CagEdge]
    arrays: dict[str, int]  # array -> rank

    def edge_list(self) -> list[CagEdge]:
        return sorted(self.edges.values(), key=lambda e: (-e.weight, e.key()))

    def node_label(self, node: Node) -> str:
        name, dim = node
        return f"{name}{dim}" if self.arrays.get(name, 1) > 1 else name

    def total_weight(self) -> float:
        return sum(e.weight for e in self.edges.values())

    def render(self, title: str | None = None) -> str:
        table = Table(["edge", "weight", "terms"], title=title)
        for e in self.edge_list():
            terms = " + ".join(t.describe() for t in e.terms)
            table.add_row(
                [f"{self.node_label(e.u)} -- {self.node_label(e.v)}", f"{e.weight:g}", terms]
            )
        return table.render()


def _edge_pairs(site_a: RefSite, site_b: RefSite) -> list[tuple[int, int]]:
    """(dim_a, dim_b) pairs whose subscripts differ by a constant."""
    pairs: list[tuple[int, int]] = []
    for da, sa in enumerate(site_a.ref.subscripts, start=1):
        if not sa.variables():
            continue  # constant subscripts carry no alignment information
        for db, sb in enumerate(site_b.ref.subscripts, start=1):
            if not sb.variables():
                continue
            if difference_is_constant(sa, sb) is not None:
                pairs.append((da, db))
    return pairs


@dataclass(frozen=True)
class CagPart:
    """One statement's contribution to any CAG it takes part in."""

    arrays: dict[str, int]  # referenced array -> rank, first-reference order
    written: frozenset[str]
    terms: list[tuple[tuple[Node, Node], WeightTerm]]  # program order


def cag_part(
    stmt: Stmt, program: Program, env: dict[str, int], costs: CommCosts, nprocs: int
) -> CagPart:
    """Everything :func:`merge_cag` needs to know about *stmt*."""
    sites = collect_ref_sites([stmt])
    arrays: dict[str, int] = {}
    by_stmt: dict[int, list[RefSite]] = {}
    for site in sites:
        arrays.setdefault(site.array, site.ref.rank)
        by_stmt.setdefault(id(site.stmt), []).append(site)

    terms: list[tuple[tuple[Node, Node], WeightTerm]] = []
    for raw_sites in by_stmt.values():
        # Deduplicate textually identical references within one statement
        # (the accumulation pattern ``V(i) = V(i) + ...``), preferring the
        # write so owner-computes pins correctly.
        unique: dict[tuple[str, tuple], RefSite] = {}
        for site in raw_sites:
            key2 = (site.array, site.ref.subscripts)
            if key2 not in unique or site.is_write:
                unique[key2] = site
        stmt_sites = list(unique.values())
        for i, sa in enumerate(stmt_sites):
            for sb in stmt_sites[i + 1 :]:
                if sa.array == sb.array:
                    continue  # same-array dims may never co-align (constraint)
                for da, db in _edge_pairs(sa, sb):
                    u: Node = (sa.array, da)
                    v: Node = (sb.array, db)
                    key = (u, v) if u <= v else (v, u)
                    terms.append((key, edge_weight(sa, sb, program, env, costs, nprocs)))
    written = frozenset(site.array for site in sites if site.is_write)
    return CagPart(arrays, written, terms)


def merge_cag(parts: Iterable[CagPart]) -> CAG:
    """The CAG of consecutive statements, from their parts in order.

    Every merged graph owns fresh node tuples, edge keys and terms: a
    part feeds many segments' graphs, those are pickled into the plan
    cache, and pickle writes a shared object once — sharing would change
    the cached bytes (DESIGN.md, "computed once").
    """
    nodes: list[Node] = []
    arrays: dict[str, int] = {}
    edges: dict[tuple[Node, Node], CagEdge] = {}
    for part in parts:
        for array, rank in part.arrays.items():
            if array not in arrays:
                arrays[array] = rank
                nodes.extend((array, d) for d in range(1, rank + 1))
        for key, term in part.terms:
            edge = edges.get(key)
            if edge is None:
                (ua, ud), (va, vd) = key
                edge = CagEdge(u=(ua, ud), v=(va, vd))
                edges[(edge.u, edge.v)] = edge
            edge.terms.append(
                WeightTerm(term.count, term.primitive, term.nprocs, term.cost, term.line)
            )
            edge.weight += term.cost
    return CAG(nodes=nodes, edges=edges, arrays=arrays)


@spanned("alignment/cag")
def build_cag(
    fragment: Program | list[Stmt],
    program: Program,
    env: dict[str, int],
    model: MachineModel,
    nprocs: int,
) -> CAG:
    """Build the CAG of *fragment* (whole program or a statement subset).

    *program* supplies array declarations; *env* binds the size parameters
    used for weighting; *nprocs* is the assumed processor count N (the
    paper prices weights before the grid shape is known, assuming equal
    extents per §2.2).
    """
    costs = CommCosts(model)
    stmts = fragment.body if isinstance(fragment, Program) else fragment
    return merge_cag(cag_part(stmt, program, env, costs, nprocs) for stmt in stmts)
