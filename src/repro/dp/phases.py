"""Build Algorithm 1's tables from a program (the compiler front half).

For every segment ``L_i .. L_{i+j-1}`` of the loop sequence:

1. build the segment's component affinity graph and align it (§3);
2. materialize the alignment into a scheme, replicating read-only arrays
   along their unused grid dimensions (so e.g. ``X`` is readable anywhere
   during Jacobi's L1);
3. price the segment under every candidate grid shape ``N1 x N2 = N``
   with the rule-based loop-cost estimator, keeping the best.

Each step is assembled from facts computed once at the granularity they
vary at — per loop, per (loop, placements, grid), per outer loop — see
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

from dataclasses import dataclass, field, fields
from functools import cached_property

from repro.alignment.graph import CAG, CagPart, cag_part, merge_cag
from repro.alignment.solver import (
    Alignment,
    alignment_to_scheme,
    exact_alignment,
    greedy_alignment,
)
from repro.costmodel.gridsearch import grid_candidates
from repro.costmodel.loopcost import estimate_loop_cost
from repro.costmodel.primitives import CommCosts
from repro.dependence.analysis import live_loop_carried_arrays
from repro.distribution.redistribution import (
    RedistPlan,
    placement_change_plan,
    redistribution_cost,
)
from repro.distribution.schemes import ArrayPlacement, Scheme
from repro.dp.algorithm1 import DPResult, algorithm1
from repro.errors import AlignmentError, CostModelError
from repro.lang.ast import DoLoop, Program, Stmt
from repro.machine.model import MachineModel
from repro.util.spans import span


@dataclass(frozen=True)
class PhaseEntry:
    """One (i, j) table entry: segment scheme, grid shape and cost."""

    scheme: Scheme
    grid: tuple[int, int]
    cost: float
    alignment: Alignment
    cag: CAG


@dataclass
class PhaseTables:
    """All Algorithm 1 inputs derived from a program."""

    program: Program
    loops: list[DoLoop]
    nprocs: int
    env: dict[str, int]
    model: MachineModel
    entries: dict[tuple[int, int], PhaseEntry] = field(default_factory=dict)
    outer: DoLoop | None = None

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
        sizes = {}
        for name, decl in self.program.arrays.items():
            total = 1
            for extent in decl.extents:
                total *= extent.evaluate(self.env)
            sizes[name] = total
        return sizes

    @cached_property
    def _carried(self) -> list[str]:
        if self.outer is None:
            return []
        return sorted(live_loop_carried_arrays(self.outer))

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
        shared = tuple(a for a in scheme_prev.arrays() if a in scheme_next.arrays())
        return redistribution_cost(
            scheme_prev, scheme_next, self._sizes, grid_next, CommCosts(self.model),
            arrays=shared,
        )

    def change_cost(self, p_prev, p_next) -> float:
        return self.change_plan(p_prev, p_next).total

    def loop_carried_plans(self, p_first, p_last) -> list[RedistPlan]:
        """Per-array plans for the iteration boundary of the outer loop."""
        scheme_first, grid_first = p_first
        scheme_last, _ = p_last
        costs = CommCosts(self.model)
        plans: list[RedistPlan] = []
        for array in self._carried:
            if array not in scheme_first.arrays() or array not in scheme_last.arrays():
                continue
            src = scheme_last.placement(array)
            dst = scheme_first.placement(array)
            dst = ArrayPlacement(
                array=dst.array, dim_map=dst.dim_map, kinds=dst.kinds, rest="replicated"
            )
            plans.append(
                placement_change_plan(src, dst, self._sizes[array], grid_first, costs)
            )
        return plans

    def loop_carried_cost(self, p_first, p_last) -> float:
        return sum(p.total for p in self.loop_carried_plans(p_first, p_last))

    def transition_plans(self, result: DPResult) -> list[tuple[str, RedistPlan]]:
        """Every redistribution along the DP's chosen chain, labeled.

        One plan per adjacent segment boundary, then one per loop-carried
        array at the iteration boundary (labels ``loop[X]``).
        """
        def seg_label(start: int, length: int) -> str:
            return f"L{start}" if length == 1 else f"L{start}..L{start + length - 1}"

        out: list[tuple[str, RedistPlan]] = []
        with span("redist/plan"):
            chain = result.schemes
            bounds = result.segments
            for k in range(len(chain) - 1):
                label = f"{seg_label(*bounds[k])} -> {seg_label(*bounds[k + 1])}"
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
    parts: list[CagPart], name: str
) -> tuple[Scheme, Alignment, CAG]:
    with span("alignment/cag"):
        cag = merge_cag(parts)
    try:
        alignment = exact_alignment(cag, q=2)
    except AlignmentError:
        alignment = greedy_alignment(cag, q=2)
    written = frozenset().union(*(part.written for part in parts))
    scheme = alignment_to_scheme(
        alignment, cag, replicated_reads=frozenset(cag.arrays) - written, name=name
    )
    return scheme, alignment, cag


def build_phase_tables(
    program: Program,
    nprocs: int,
    env: dict[str, int],
    model: MachineModel,
    outer: DoLoop | None = None,
    loops: list[DoLoop] | None = None,
    segment_memo: dict | None = None,
) -> PhaseTables:
    """Construct all (i, j) entries for Algorithm 1.

    By default the loop sequence is the body of the program's first
    top-level loop (the iterative ``k`` loop of Jacobi/SOR); pass *loops*
    to override, and *outer* for the loop whose carried dependences price
    the iteration boundary.

    *segment_memo* is a caller-owned dict shared across programs of one
    ``compile_batch``: (i, j) entries are reused between programs whose
    segments print identically under the same ``(N, env, machine)``.
    Keys embed array *names* (a :class:`Scheme` does too), so only
    textually identical segments share — alpha-twins are handled one
    level up by the whole-plan cache.
    """
    if loops is None:
        if outer is None:
            top = program.loops()
            if len(top) == 1:
                outer = top[0]
                loops = [s for s in outer.body if isinstance(s, DoLoop)]
            else:
                loops = top
        else:
            loops = [s for s in outer.body if isinstance(s, DoLoop)]
    if not loops:
        raise CostModelError("no loops to distribute")

    with span("dp/tables"):
        return _build_entries(
            program, nprocs, env, model, outer, loops, segment_memo
        )


def _print_deep(stmt: Stmt) -> str:
    # DoLoop.__str__ prints only the header; segment identity needs the
    # whole subtree.
    if isinstance(stmt, DoLoop):
        body = "; ".join(_print_deep(s) for s in stmt.body)
        return f"{stmt} [{body}]"
    return str(stmt)


def _segment_key(
    stmts: list[Stmt],
    nprocs: int,
    env: dict[str, int],
    model: MachineModel,
) -> tuple:
    return (
        tuple(_print_deep(s) for s in stmts),
        nprocs,
        tuple(sorted(env.items())),
        (model.tf, model.tc, model.alpha, model.hop_cost, model.overlap),
    )


def _build_entries(
    program: Program,
    nprocs: int,
    env: dict[str, int],
    model: MachineModel,
    outer: DoLoop | None,
    loops: list[DoLoop],
    segment_memo: dict | None = None,
) -> PhaseTables:
    tables = PhaseTables(
        program=program,
        loops=list(loops),
        nprocs=nprocs,
        env=dict(env),
        model=model,
        outer=outer,
    )
    # Per loop, once: its CAG part.  Per (loop, placements of the arrays
    # it references, grid), once: its cost — a segment prices as a sum.
    with span("alignment/cag"):
        costs = CommCosts(model)
        parts = [cag_part(loop, program, env, costs, nprocs) for loop in loops]
    loop_costs: dict[tuple, dict[tuple[int, int], float]] = {}
    s = len(loops)
    for i in range(1, s + 1):
        for j in range(1, s - i + 2):
            lo, hi = i - 1, i - 1 + j
            memo_key = None
            if segment_memo is not None:
                memo_key = _segment_key(loops[lo:hi], nprocs, env, model)
                hit = segment_memo.get(memo_key)
                if hit is not None:
                    tables.entries[(i, j)] = hit
                    continue
            with span("alignment/segment"):
                scheme, alignment, cag = _segment_scheme(parts[lo:hi], name=f"P[{i},{j}]")
            per_loop = [
                (
                    loops[idx],
                    loop_costs.setdefault(
                        (idx, *map(scheme.placement, parts[idx].arrays)), {}
                    ),
                )
                for idx in range(lo, hi)
                if isinstance(loops[idx], DoLoop)
            ]
            best_cost = float("inf")
            best_grid = (nprocs, 1)
            # One grid list per segment: entries own their grid tuple.
            for grid in grid_candidates(nprocs):
                total = 0.0
                for loop, by_grid in per_loop:
                    cost = by_grid.get(grid)
                    if cost is None:
                        cost = by_grid[grid] = estimate_loop_cost(
                            loop, scheme, grid, env, model
                        ).total
                    total += cost
                if total < best_cost:
                    best_cost = total
                    best_grid = grid
            entry = PhaseEntry(
                scheme=scheme,
                grid=best_grid,
                cost=best_cost,
                alignment=alignment,
                cag=cag,
            )
            tables.entries[(i, j)] = entry
            if memo_key is not None:
                segment_memo[memo_key] = entry
    return tables


def solve_program_distribution(
    program: Program,
    nprocs: int,
    env: dict[str, int],
    model: MachineModel,
    execute: bool = False,
    backends: tuple[str, ...] = ("engine", "threaded"),
    segment_memo: dict | None = None,
):
    """End-to-end §4 pipeline: tables + Algorithm 1 solution.

    With ``execute=True`` the chosen chain's redistributions are also
    lowered and run on the simulator (:mod:`repro.dp.validate`) and a
    third element — the :class:`~repro.dp.validate.RedistValidation` —
    is returned, so Algorithm 1's analytic cost model is checked against
    measured message traffic, not just trusted.
    """
    tables = build_phase_tables(program, nprocs, env, model, segment_memo=segment_memo)
    result = tables.solve()
    if not execute:
        return tables, result
    from repro.dp.validate import validate_transitions

    with span("redist/execute"):
        validation = validate_transitions(tables, result, backends=backends)
    return tables, result, validation
