"""Pairwise data-dependence analysis over the IR.

For every (write, read/write) pair of references to the same array inside
a statement list, decide whether a dependence may exist and, for uniform
subscript pairs (same loop variable plus constant offsets), compute the
exact distance vector over the common enclosing loops.  Non-uniform pairs
fall back to the GCD test and an unknown (``*``) distance — conservative
but safe, which is all the paper's method needs (it treats such arrays as
loop-carried, e.g. ``X`` between Jacobi's two inner loops).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.dependence.tests import affine_range, gcd_test, ranges_disjoint
from repro.dependence.vectors import DistanceVector, Entry
from repro.lang.analysis import RefSite, collect_ref_sites
from repro.lang.ast import DoLoop, Program, Stmt


@dataclass(frozen=True)
class Dependence:
    """A may-dependence between two reference sites of one array."""

    array: str
    source: RefSite  # the site that executes first (program order)
    sink: RefSite
    kind: str  # "flow", "anti", or "output"
    distance: DistanceVector  # over the common enclosing loops

    @property
    def loop_carried(self) -> bool:
        return not self.distance.is_zero

    def carried_level(self) -> int | None:
        return self.distance.carried_level()

    def __str__(self) -> str:
        return (
            f"{self.kind} dep on {self.array}: "
            f"line {self.source.line} -> line {self.sink.line}, d={self.distance}"
        )


def _common_loops(a: RefSite, b: RefSite) -> list[DoLoop]:
    common = []
    for la, lb in zip(a.loops, b.loops):
        if la is lb:
            common.append(la)
        else:
            break
    return common


def _site_order(stmts: list[Stmt], order: dict[int, int] | None = None) -> dict[int, int]:
    """Map id(stmt) -> program order index (pre-order), into *order*."""
    if order is None:
        order = {}
    for stmt in stmts:
        order[id(stmt)] = len(order)
        if isinstance(stmt, DoLoop):
            _site_order(stmt.body, order)
    return order


def _distance_entry(site_a: RefSite, site_b: RefSite, loop: DoLoop) -> Entry:
    """Distance along *loop* between the two reference instances.

    Exact when every subscript pair that mentions ``loop.var`` is uniform
    (``c*var + const`` with equal coefficients on both sides and the same
    dimension); ``*`` otherwise.
    """
    var = loop.var
    entries: list[int] = []
    a_subs = site_a.ref.subscripts
    b_subs = site_b.ref.subscripts
    if len(a_subs) != len(b_subs):
        return "*"
    for sa, sb in zip(a_subs, b_subs):
        ca, cb = sa.coeff(var), sb.coeff(var)
        if ca == 0 and cb == 0:
            continue
        if ca != cb or ca == 0:
            return "*"
        # Equality c*i_sink + k_a == c*i_src + k_b gives the distance
        # d = i_sink - i_src = (k_b - k_a) / c.
        diff = sb - sa
        others = {v for v in diff.variables() if v != var}
        if others:
            return "*"
        if diff.const % ca != 0:
            return "*"  # can only align at fractional distance: unknown
        entries.append(diff.const // ca)
    if not entries:
        # var not used by either reference: whatever the other subscripts
        # say, the same elements are touched in every iteration of this
        # loop, so the dependence may be carried at any distance of it.
        return "*"
    first = entries[0]
    if any(e != first for e in entries[1:]):
        return "*"
    return first


def _ordered_bounds(site: RefSite) -> list[tuple]:
    """(var, low, high) per enclosing loop of the site, innermost first."""
    out = []
    for loop in reversed(site.loops):
        if loop.step > 0:
            out.append((loop.var, loop.lb, loop.ub))
        else:
            out.append((loop.var, loop.ub, loop.lb))
    return out


def _may_alias(a: RefSite, b: RefSite) -> bool:
    """May the two references touch a common element?

    Per subscript dimension we apply (1) the GCD test and (2) a symbolic
    range-disjointness test: each side's loop variables are eliminated
    through their own affine bounds (independently — two dynamic
    instances never share loop-variable values a priori), leaving forms
    over program parameters that are compared with the symbols-positive
    sign rules.  The range test is what proves e.g. that ``A(k, j)`` with
    ``j >= k+1`` never collides with the pivot column ``A(i, k)`` when
    ``k`` is a fixed outer symbol (Gauss's elimination step).
    """
    if a.ref.name != b.ref.name or a.ref.rank != b.ref.rank:
        return False
    # Symbols that are identical instances on both sides: anything that is
    # not a loop variable of either site (program parameters).
    loop_vars = {loop.var for loop in a.loops} | {loop.var for loop in b.loops}
    bounds_a = _ordered_bounds(a)
    bounds_b = _ordered_bounds(b)
    for sa, sb in zip(a.ref.subscripts, b.ref.subscripts):
        shared = (sa.variables() | sb.variables()) - loop_vars
        if not gcd_test(sa, sb, shared=shared):
            return False
        if ranges_disjoint(affine_range(sa, bounds_a), affine_range(sb, bounds_b)):
            return False
    return True


def _pair_dependences(a: RefSite, b: RefSite, order: dict[int, int]) -> list[Dependence]:
    """The may-dependences between sites *a* and *b* of one array, *a*
    first in site order and at least one of them a write."""
    first, second = a, b
    if order[id(b.stmt)] < order[id(a.stmt)]:
        first, second = b, a
    elif a.stmt is b.stmt and a.is_write and not b.is_write:
        # Within one statement instance the RHS read executes
        # before the LHS write.
        first, second = b, a
    if not _may_alias(first, second):
        return []
    common = _common_loops(first, second)
    entries = tuple(_distance_entry(second, first, loop) for loop in common)
    dvec = DistanceVector(entries)
    if not dvec.is_lexicographically_positive():
        # The real dependence is the mirrored pair with the
        # negated distance (which is lexicographically positive).
        first, second = second, first
        entries = tuple(
            (-e if isinstance(e, int) else e) for e in entries
        )
        dvec = DistanceVector(entries)
    if dvec.is_zero and first.stmt is second.stmt:
        # Same statement instance, zero distance: the pair is the
        # accumulation pattern; it only matters when a loop can
        # carry it, which the nonzero/unknown entries would show.
        return []
    if first.is_write and second.is_write:
        kind = "output"
    elif first.is_write:
        kind = "flow"
    else:
        kind = "anti"
    deps = [Dependence(first.array, first, second, kind, dvec)]
    # An unknown distance is a may-dependence in *both* directions:
    # e.g. X read in L1 and written in L2 is an anti dep within one
    # sweep and a flow dep into the next sweep (the paper's
    # loop-carried dependence of X).
    if "*" in dvec.entries and first.is_write != second.is_write:
        mirror_kind = "anti" if kind == "flow" else "flow"
        deps.append(Dependence(first.array, second, first, mirror_kind, dvec))
    return deps


def find_dependences(stmts: list[Stmt] | Program) -> list[Dependence]:
    """All may-dependences among array references in *stmts*.

    Pairs are reported in program order (source first).  Dependences whose
    computed distance vector is lexicographically negative are discarded
    (they are the mirror image of a valid dependence in the other
    direction).
    """
    if isinstance(stmts, Program):
        stmts = stmts.body
    sites = collect_ref_sites(stmts)
    order = _site_order(stmts)
    deps: list[Dependence] = []
    for ai, a in enumerate(sites):
        for b in sites[ai + 1 :]:
            if a.ref.name != b.ref.name:
                continue
            if not (a.is_write or b.is_write):
                continue
            deps.extend(_pair_dependences(a, b, order))
    return deps


def loop_carried_arrays(loop: DoLoop) -> frozenset[str]:
    """Arrays with a flow dependence carried by *loop* itself (level 0)."""
    carried: set[str] = set()
    for dep in find_dependences([loop]):
        if dep.carried_level() == 0 and dep.kind == "flow":
            carried.add(dep.array)
    return frozenset(carried)


def live_loop_carried_arrays(loop: DoLoop) -> frozenset[str]:
    """Loop-carried arrays whose value actually crosses the iteration.

    Refines :func:`loop_carried_arrays` with a kill heuristic: an array
    whose textually-first reference in the loop body is a non-accumulating
    write (e.g. ``V(i) = 0.0`` at the top of Jacobi's body) is re-defined
    before any cross-iteration read, so it carries no communication.  This
    matches the paper, which charges the §4 loop-carried cost for ``X``
    only, not ``V``.

    Only the pairs that can decide the answer are analysed: a flow
    dependence joins a write and a read, so write–write pairs are
    skipped, as are killed arrays and an array's remaining pairs once
    one of them carries a level-0 flow dependence.
    """
    sites = collect_ref_sites([loop])
    first_site: dict[str, RefSite] = {}
    for site in sites:
        if site.array not in first_site:
            first_site[site.array] = site
    candidates = set()
    for array, site in first_site.items():
        if site.is_write:
            lhs = site.stmt.lhs
            rhs_repeats = any(
                r.name == array and r.subscripts == getattr(lhs, "subscripts", None)
                for r in _rhs_refs(site.stmt)
            )
            if not rhs_repeats:
                continue  # killed before any read: not live across iterations
        candidates.add(array)
    order = _site_order([loop])
    live: set[str] = set()
    for ai, a in enumerate(sites):
        array = a.array
        if array not in candidates or array in live:
            continue
        for b in sites[ai + 1 :]:
            if b.ref.name != array or b.is_write == a.is_write:
                continue
            if any(
                dep.kind == "flow" and dep.carried_level() == 0
                for dep in _pair_dependences(a, b, order)
            ):
                live.add(array)
                break
    return frozenset(live)


def _rhs_refs(stmt) -> list:
    from repro.lang.ast import array_refs

    return array_refs(stmt.rhs)
