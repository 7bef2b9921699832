"""Component affinity graph construction (paper §3, Figs 2 and 7).

Nodes are array *dimensions* ``(array, dim)``; an edge joins two
dimensions whose subscripts (within one statement) differ by a constant —
the paper's affinity relation.  Edge weights accumulate the counted
occurrences over all statements (see :mod:`repro.alignment.weights`),
priced by the machine when the graph is merged.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field

from repro.lang.affine import difference_is_constant
from repro.lang.analysis import RefSite, collect_ref_sites
from repro.lang.ast import Program, Stmt
from repro.machine.model import MachineModel
from repro.alignment.weights import WeightCounts, WeightTerm, edge_weight
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
    terms: list[tuple[tuple[Node, Node], WeightCounts]]  # program order


def cag_part(stmt: Stmt, program: Program, env: dict[str, int], nprocs: int) -> CagPart:
    """Everything :func:`merge_cag` needs to know about *stmt*."""
    sites = collect_ref_sites([stmt])
    arrays: dict[str, int] = {}
    by_stmt: dict[int, list[RefSite]] = {}
    for site in sites:
        arrays.setdefault(site.array, site.ref.rank)
        by_stmt.setdefault(id(site.stmt), []).append(site)

    terms: list[tuple[tuple[Node, Node], WeightCounts]] = []
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
                    terms.append((key, edge_weight(sa, sb, program, env, nprocs)))
    written = frozenset(site.array for site in sites if site.is_write)
    return CagPart(arrays, written, terms)


#: A :class:`WeightTerm`'s fields, its counts priced:
#: ``(count, primitive, nprocs, cost, line)``.
PricedTerm = tuple[float, str, int, float, int]


def priced_terms(
    part: CagPart, model: MachineModel
) -> list[tuple[tuple[Node, Node], PricedTerm]]:
    """*part*'s ``(edge key, counts)`` list with each count priced by *model*."""
    return [
        (key, (count, primitive, nprocs, model.seconds(0, messages, words), line))
        for key, (count, primitive, nprocs, messages, words, line) in part.terms
    ]


class CagMerge:
    """The CAG of consecutive statements, grown one statement's part at a
    time: the graph of ``L_i .. L_{j+1}`` is the graph of ``L_i .. L_j``
    and one more part, in the same array, node, edge and term order.

    :meth:`graph` returns a graph that owns fresh node tuples, edge keys
    and terms: a part feeds many segments' graphs, those are pickled into
    the plan cache, and pickle writes a shared object once — sharing
    would change the cached bytes (DESIGN.md, "computed once").  What is
    kept across calls are the first reference's ``str`` objects, as a
    one-shot build keeps them.
    """

    def __init__(self) -> None:
        self.arrays: dict[str, int] = {}
        self.edges: dict[tuple[Node, Node], list[PricedTerm]] = {}

    def add(self, part: CagPart, terms: list[tuple[tuple[Node, Node], PricedTerm]]) -> None:
        """Append *part*, whose terms :func:`priced_terms` priced."""
        arrays, edges = self.arrays, self.edges
        for array, rank in part.arrays.items():
            if array not in arrays:
                arrays[array] = rank
        for key, fields in terms:
            edge_terms = edges.get(key)
            if edge_terms is None:
                edges[key] = [fields]
            else:
                edge_terms.append(fields)

    def graph(self) -> CAG:
        """The graph of the parts added so far, in objects of its own."""
        nodes = [(array, d) for array, rank in self.arrays.items() for d in range(1, rank + 1)]
        edges: dict[tuple[Node, Node], CagEdge] = {}
        for ((ua, ud), (va, vd)), fields in self.edges.items():
            weight = 0.0
            for term in fields:
                weight += term[3]
            edge = CagEdge((ua, ud), (va, vd), weight, [WeightTerm(*term) for term in fields])
            edges[(edge.u, edge.v)] = edge
        return CAG(nodes=nodes, edges=edges, arrays=dict(self.arrays))


def merge_cag(parts: Iterable[CagPart], model: MachineModel) -> CAG:
    """The CAG of consecutive statements, from their parts in order, each
    weight priced by *model*."""
    merged = CagMerge()
    for part in parts:
        merged.add(part, priced_terms(part, model))
    return merged.graph()


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
    stmts = fragment.body if isinstance(fragment, Program) else fragment
    return merge_cag((cag_part(stmt, program, env, nprocs) for stmt in stmts), model)
