"""Build Algorithm 1's tables from a program (the compiler front half).

For every segment ``L_i .. L_{i+j-1}`` of the loop sequence:

1. build the segment's component affinity graph and align it (§3);
2. materialize the alignment into a scheme, replicating read-only arrays
   along their unused grid dimensions (so e.g. ``X`` is readable anywhere
   during Jacobi's L1);
3. price the segment under every candidate grid shape ``N1 x N2 = N``
   with the rule-based loop-cost estimator, keeping the best
   (:func:`~repro.costmodel.gridsearch.best_grid`).

Each step is assembled from facts computed once at the granularity they
vary at — per loop, per (loop, dimension maps, grid), per outer loop, per
array move — and a segment's graph grows from its prefix's; see
DESIGN.md §3.1, which also says why none of those memos may be pickled.

``M[i][j]`` is that best cost, ``P[i][j]`` the (scheme, grid) pair.  The
redistribution oracle prices layout changes between consecutive segments;
the loop-carried oracle prices the iteration boundary of the enclosing
iterative loop: every live loop-carried array must travel from its
placement in the *last* scheme to its placement in the *first* scheme
**with replication along unused grid dimensions** (its readers there span
them).  On Jacobi this reproduces the paper exactly:
``CTime1 = 0`` and ``CTime2 = ManyToManyMulticast(m/N1, N1) +
OneToManyMulticast(m, N2) = m tc`` at grid ``(N, 1)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from functools import cached_property

from repro.alignment.graph import CAG, CagMerge, cag_part, priced_terms
from repro.alignment.solver import (
    Alignment,
    alignment_to_scheme,
    exact_alignment,
    greedy_alignment,
)
from repro.costmodel.gridsearch import best_grid
from repro.costmodel.loopcost import loop_facts, loop_time
from repro.dependence.analysis import live_loop_carried_arrays
from repro.distribution.redistribution import (
    RedistPlan,
    placement_change_plan,
    placement_change_terms,
    redistribution_cost,
)
from repro.distribution.schemes import ArrayPlacement, Scheme
from repro.dp.algorithm1 import DPResult, algorithm1
from repro.errors import AlignmentError, CostModelError, DistributionError
from repro.lang.ast import DoLoop, Program
from repro.machine.model import MachineModel
from repro.util.lazy import Lazy
from repro.util.spans import span


def segment_label(start: int, length: int) -> str:
    """``L3`` for one loop, ``L1..L2`` for a segment of several."""
    return f"L{start}" if length == 1 else f"L{start}..L{start + length - 1}"


@dataclass(frozen=True)
class PhaseEntry:
    """One (i, j) table entry: segment scheme, grid shape and cost."""

    scheme: Scheme
    grid: tuple[int, int]
    cost: float
    alignment: Alignment
    cag: CAG


@dataclass
class PhaseTables(Lazy):
    """All Algorithm 1 inputs derived from a program."""

    program: Program
    loops: list[DoLoop]
    nprocs: int
    env: dict[str, int]
    model: MachineModel
    entries: dict[tuple[int, int], PhaseEntry] = field(default_factory=dict)
    outer: DoLoop | None = field(default_factory=lambda: None)

    @property
    def s(self) -> int:
        return len(self.loops)

    def entry(self, i: int, j: int) -> PhaseEntry:
        key = (i, j)
        if key not in self.entries:
            raise CostModelError(f"no phase entry for segment ({i}, {j})")
        return self.entries[key]

    def M(self, i: int, j: int) -> float:
        return self.entry(i, j).cost

    def P(self, i: int, j: int) -> tuple[Scheme, tuple[int, int]]:
        e = self.entry(i, j)
        return (e.scheme, e.grid)

    # -- oracles ---------------------------------------------------------
    # The oracles' inputs that depend on the program and the outer loop
    # alone are worked out once per tables object.  They are derived, so
    # the pickled state (what the plan cache stores) is the fields only.
    def __getstate__(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @cached_property
    def _sizes(self) -> dict[str, int]:
        return {name: math.prod(decl.shape(self.env)) for name, decl in self.program.arrays.items()}

    @cached_property
    def _carried(self) -> list[str]:
        if self.outer is None:
            return []
        return sorted(live_loop_carried_arrays(self.outer))

    @cached_property
    def _moves(self) -> dict[tuple, tuple[float, ...]]:
        """``(src, dst, grid)`` → the seconds of each term of one array's
        move: the cost oracles price each distinct move once."""
        return {}

    def _move_seconds(
        self, src: ArrayPlacement, dst: ArrayPlacement, grid: tuple[int, int]
    ) -> tuple[float, ...]:
        key = (src, dst, grid)
        seconds = self._moves.get(key)
        if seconds is None:
            if src.array not in self._sizes:
                raise DistributionError(f"no size known for array {src.array!r}")
            terms = placement_change_terms(src, dst, self._sizes[src.array], grid)
            seconds = self._moves[key] = tuple(t.seconds(self.model) for t in terms)
        return seconds

    def array_sizes(self) -> dict[str, int]:
        return dict(self._sizes)

    def change_plan(self, p_prev, p_next) -> RedistPlan:
        """The redistribution plan between two adjacent chosen segments.

        Adjacent segments legitimately reference different array sets
        (an array may be dead in one of them), so the comparison is
        explicitly scoped to the intersection — the bare oracle would
        reject source-only arrays as silently-vanishing.
        """
        scheme_prev, _grid_prev = p_prev
        scheme_next, grid_next = p_next
        next_arrays = scheme_next.arrays()
        shared = tuple(a for a in scheme_prev.arrays() if a in next_arrays)
        return redistribution_cost(
            scheme_prev, scheme_next, self._sizes, grid_next, arrays=shared
        )

    def change_cost(self, p_prev, p_next) -> float:
        """``change_plan(p_prev, p_next).seconds(model)``: the priced moves'
        seconds summed in the plan's term order."""
        scheme_prev, _grid_prev = p_prev
        scheme_next, grid_next = p_next
        dst_of = {p.array: p for p in scheme_next.placements}
        seconds: list[float] = []
        for src in scheme_prev.placements:
            dst = dst_of.get(src.array)
            if dst is not None and src != dst:
                seconds.extend(self._move_seconds(src, dst, grid_next))
        return sum(seconds)

    def _carried_moves(self, p_first, p_last):
        """``(src, dst, grid)`` of each live loop-carried array: from the
        last scheme to the first, replicated along unused grid dimensions."""
        scheme_first, grid_first = p_first
        scheme_last, _ = p_last
        firsts = {p.array: p for p in scheme_first.placements}
        lasts = {p.array: p for p in scheme_last.placements}
        for array in self._carried:
            src, dst = lasts.get(array), firsts.get(array)
            if src is None or dst is None:
                continue
            dst = ArrayPlacement(
                array=dst.array, dim_map=dst.dim_map, kinds=dst.kinds, rest="replicated"
            )
            yield src, dst, grid_first

    def loop_carried_plans(self, p_first, p_last) -> list[RedistPlan]:
        """Per-array plans for the iteration boundary of the outer loop."""
        return [
            placement_change_plan(src, dst, self._sizes[src.array], grid)
            for src, dst, grid in self._carried_moves(p_first, p_last)
        ]

    def loop_carried_cost(self, p_first, p_last) -> float:
        """The seconds of :meth:`loop_carried_plans`, summed plan by plan."""
        return sum(
            sum(self._move_seconds(*move)) for move in self._carried_moves(p_first, p_last)
        )

    def transition_plans(self, result: DPResult) -> list[tuple[str, RedistPlan]]:
        """Every redistribution along the DP's chosen chain, labeled.

        One plan per adjacent segment boundary, then one per loop-carried
        array at the iteration boundary (labels ``loop[X]``).
        """
        out: list[tuple[str, RedistPlan]] = []
        with span("redist/plan"):
            chain = result.schemes
            bounds = result.segments
            for k in range(len(chain) - 1):
                label = f"{segment_label(*bounds[k])} -> {segment_label(*bounds[k + 1])}"
                out.append((label, self.change_plan(chain[k], chain[k + 1])))
            if chain:
                for plan in self.loop_carried_plans(chain[0], chain[-1]):
                    out.append((f"loop[{plan.src.array}]", plan))
        return out

    def solve(self) -> DPResult:
        with span("dp/solve"):
            return algorithm1(
                self.s, self.M, self.P, self.change_cost, self.loop_carried_cost
            )


def _segment_scheme(
    merged: CagMerge, written: frozenset[str], name: str
) -> tuple[Scheme, Alignment, CAG]:
    with span("alignment/cag"):
        cag = merged.graph()
    try:
        alignment = exact_alignment(cag, q=2)
    except AlignmentError:
        alignment = greedy_alignment(cag, q=2)
    scheme = alignment_to_scheme(
        alignment, cag, replicated_reads=frozenset(cag.arrays) - written, name=name
    )
    return scheme, alignment, cag


def build_phase_tables(
    program: Program,
    nprocs: int,
    env: dict[str, int],
    model: MachineModel,
) -> PhaseTables:
    """Construct all (i, j) entries for Algorithm 1.

    The loop sequence is the body of the program's only top-level loop
    (the iterative ``k`` loop of Jacobi/SOR, whose carried dependences
    price the iteration boundary), else the top-level loops themselves.
    Every entry is built from this program's declarations: §3's edge
    weights compare the arrays' declared sizes, so an entry is a function
    of the whole program, not of its segment's text.
    """
    top = program.loops()
    outer = top[0] if len(top) == 1 else None
    loops = [s for s in outer.body if isinstance(s, DoLoop)] if outer is not None else top
    if not loops:
        raise CostModelError("no loops to distribute")

    with span("dp/tables"):
        return _build_entries(program, nprocs, env, model, outer, loops)


def _build_entries(
    program: Program,
    nprocs: int,
    env: dict[str, int],
    model: MachineModel,
    outer: DoLoop | None,
    loops: list[DoLoop],
) -> PhaseTables:
    tables = PhaseTables(
        program=program,
        loops=list(loops),
        nprocs=nprocs,
        env=dict(env),
        model=model,
        outer=outer,
    )
    # Per loop, once: its CAG part, its weights priced, and its pricing
    # facts.  A segment's graph is its prefix's graph and one more part.
    # Per (loop, grid dimensions of the arrays it references, grid),
    # once: its counts, priced by the machine — a segment prices as a sum.
    with span("alignment/cag"):
        parts = [cag_part(loop, program, env, nprocs) for loop in loops]
        terms = [priced_terms(part, model) for part in parts]
    facts = [loop_facts(loop, env) for loop in loops]
    loop_costs: dict[tuple, dict[tuple[int, int], float]] = {}
    s = len(loops)
    for i in range(1, s + 1):
        lo = i - 1
        merged = CagMerge()
        written: frozenset[str] = frozenset()
        for j in range(1, s - i + 2):
            hi = lo + j
            with span("alignment/segment"):
                merged.add(parts[hi - 1], terms[hi - 1])
                written |= parts[hi - 1].written
                scheme, alignment, cag = _segment_scheme(merged, written, f"P[{i},{j}]")
            # A loop's counts read only where its arrays' dimensions go.
            dim_maps = {p.array: p.dim_map for p in scheme.placements}
            per_loop = [
                (
                    facts[idx],
                    loop_costs.setdefault(
                        (idx, *[dim_maps[a] for a in parts[idx].arrays]), {}
                    ),
                )
                for idx in range(lo, hi)
            ]

            def segment_time(n1: int, n2: int) -> float:
                grid = (n1, n2)
                total = 0.0
                for nest_facts, by_grid in per_loop:
                    cost = by_grid.get(grid)
                    if cost is None:
                        counts = nest_facts.price(scheme, grid)
                        cost = by_grid[grid] = loop_time(counts, model).total
                    total += cost
                return total

            # One grid list per search: entries own their grid tuple.
            grid, cost, _ = best_grid(nprocs, segment_time)
            tables.entries[(i, j)] = PhaseEntry(
                scheme=scheme, grid=grid, cost=cost, alignment=alignment, cag=cag
            )
    return tables


def solve_program_distribution(
    program: Program,
    nprocs: int,
    env: dict[str, int],
    model: MachineModel,
    execute: bool = False,
    backends: tuple[str, ...] = ("engine", "threaded"),
):
    """End-to-end §4 pipeline: tables + Algorithm 1 solution.

    With ``execute=True`` the chosen chain's redistributions are also
    lowered and run on the simulator (:mod:`repro.dp.validate`) and a
    third element — the :class:`~repro.dp.validate.RedistValidation` —
    is returned, so Algorithm 1's analytic cost model is checked against
    measured message traffic, not just trusted.
    """
    tables = build_phase_tables(program, nprocs, env, model)
    result = tables.solve()
    if not execute:
        return tables, result
    from repro.dp.validate import validate_transitions

    with span("redist/execute"):
        validation = validate_transitions(tables, result, backends=backends)
    return tables, result, validation
