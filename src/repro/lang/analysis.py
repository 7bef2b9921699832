"""Loop-nest queries over the IR.

These helpers feed the component-affinity-graph builder (§3) and the
dependence analyzer (§6): they enumerate array reference *sites* together
with their loop context, and classify reads vs. writes under the
owner-computes rule.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.lang.ast import (
    ArrayRef,
    Assign,
    DoLoop,
    Program,
    ScalarRef,
    Stmt,
    array_refs,
    walk_exprs,
)


@dataclass(frozen=True)
class RefSite:
    """One textual occurrence of an array reference.

    Attributes
    ----------
    ref:
        The :class:`ArrayRef` node.
    stmt:
        The enclosing assignment.
    loops:
        Enclosing loops, outermost first.
    is_write:
        True when the reference is the assignment's left-hand side.
    """

    ref: ArrayRef
    stmt: Assign
    loops: tuple[DoLoop, ...]
    is_write: bool

    @property
    def array(self) -> str:
        return self.ref.name

    @property
    def loop_vars(self) -> tuple[str, ...]:
        return tuple(loop.var for loop in self.loops)

    @property
    def line(self) -> int:
        return self.stmt.line


def collect_ref_sites(stmts: list[Stmt] | Program, _loops: tuple[DoLoop, ...] = ()) -> list[RefSite]:
    """All array reference sites in *stmts*, pre-order, with loop context."""
    if isinstance(stmts, Program):
        stmts = stmts.body
    sites: list[RefSite] = []
    for stmt in stmts:
        if isinstance(stmt, DoLoop):
            sites.extend(collect_ref_sites(stmt.body, _loops + (stmt,)))
        elif isinstance(stmt, Assign):
            if isinstance(stmt.lhs, ArrayRef):
                sites.append(RefSite(stmt.lhs, stmt, _loops, True))
            sites.extend(RefSite(r, stmt, _loops, False) for r in array_refs(stmt.rhs))
    return sites


def assignments(stmts: list[Stmt] | Program) -> list[Assign]:
    """All assignments, pre-order."""
    if isinstance(stmts, Program):
        stmts = stmts.body
    out: list[Assign] = []
    for stmt in stmts:
        if isinstance(stmt, Assign):
            out.append(stmt)
        else:
            out.extend(assignments(stmt.body))
    return out


def loop_depth(stmt: Stmt) -> int:
    """Maximum DO-nest depth of a statement (assignment = 0)."""
    if isinstance(stmt, Assign):
        return 0
    return 1 + max((loop_depth(s) for s in stmt.body), default=0)


def arrays_used(stmts: list[Stmt] | Program) -> frozenset[str]:
    """Names of all arrays referenced."""
    return frozenset(site.array for site in collect_ref_sites(stmts))


def scalars_used(stmts: list[Stmt] | Program) -> frozenset[str]:
    """Names of scalar *value* references (e.g. ``omega``).

    Loop indices used only inside affine subscripts are not included —
    they are part of the iteration space, not data.
    """
    if isinstance(stmts, Program):
        stmts = stmts.body
    return frozenset(_scalar_names(stmts, set()))


def _scalar_names(body: list[Stmt], names: set[str]) -> set[str]:
    """*names* plus the scalar references of *body*."""
    for stmt in body:
        if isinstance(stmt, DoLoop):
            _scalar_names(stmt.body, names)
        else:
            for node in walk_exprs(stmt.rhs):
                if isinstance(node, ScalarRef):
                    names.add(node.name)
            if isinstance(stmt.lhs, ScalarRef):
                names.add(stmt.lhs.name)
    return names


def mean_trips(loops: tuple[DoLoop, ...], env: dict[str, int]) -> dict[str, float]:
    """Average trip count per loop of a nest, outermost first.

    Each loop's bounds are evaluated with the loops outside it bound to
    their midpoints, so a triangular inner loop counts its mean length.
    """
    bind = dict(env)
    trips: dict[str, float] = {}
    for loop in loops:
        trips[loop.var] = float(loop.trip_count(bind))
        bind[loop.var] = (loop.lb.evaluate(bind) + loop.ub.evaluate(bind)) // 2
    return trips


def nest_runs(loops: tuple[DoLoop, ...], env: dict[str, int]) -> bool:
    """Whether the body of a loop nest (outermost first) runs at least once.

    Exact, unlike reading a 0 off :func:`mean_trips`: a triangular inner
    loop can be empty at its outer loop's midpoint and still run at
    another outer index.  The walk stops at the first instance.
    """
    bind = dict(env)
    pending = [iter(loops[0].iter_values(bind))] if loops else []
    while pending:
        value = next(pending[-1], None)
        if value is None:
            pending.pop()
            continue
        bind[loops[len(pending) - 1].var] = value
        if len(pending) == len(loops):
            return True
        pending.append(iter(loops[len(pending)].iter_values(bind)))
    return not loops


def iteration_count(loop: DoLoop, env: dict[str, int]) -> int:
    """Total number of innermost iterations executed by a loop nest.

    For triangular nests the bounds depend on outer indices, so we count by
    enumeration; the paper's programs are small enough for this to be exact
    rather than symbolic.
    """
    return _count_iterations([loop], env)


def _count_iterations(stmts: list[Stmt], bind: dict[str, int]) -> int:
    """Assignments *stmts* execute under the loop indices bound in *bind*."""
    total = 0
    for stmt in stmts:
        if isinstance(stmt, Assign):
            total += 1
        else:
            for value in stmt.iter_values(bind):
                inner = dict(bind)
                inner[stmt.var] = value
                total += _count_iterations(stmt.body, inner)
    return total
