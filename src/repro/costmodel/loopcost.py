"""Rule-based cost estimation of a loop nest under a distribution scheme.

This is the compiler-side oracle feeding component-alignment edge weights
(§3) and the dynamic-programming tables ``M_{i,j}`` (§4).  Given a loop
nest, a :class:`~repro.distribution.schemes.Scheme` and a grid shape, it
counts computation and communication using the owner-computes rule and the
Table 1 primitives; a machine model prices the counts
(:func:`loop_time`).

Rules (derived from the paper's worked examples; see DESIGN.md):

* **computation** — flops of a statement times its execution count,
  divided by the product of grid extents over all grid dimensions that
  *split* the statement's iterations (a grid dimension splits when some
  reference's distributed dimension is subscripted by a loop variable);

* **reduction** — an accumulation statement (LHS appears identically in
  the RHS) whose RHS is subscripted by a loop variable absent from the
  LHS, along a distributed dimension, pays
  ``Reduction(lhs_block, N_g)`` (Jacobi line 5);

* **realignment** — an RHS reference whose distributed dimension is
  driven by a loop variable that drives an *LHS* dimension mapped to a
  different grid dimension pays
  ``N_src x OneToManyMulticast(block, N_dst)`` (Jacobi line 8);

* **offset shift** — same grid dimension but subscripts differing by a
  nonzero constant pays ``Shift(block)`` (stencil patterns);

* **pinned-element multicast** — an RHS element pinned to one position
  along grid dimension ``g`` but read by LHS owners spanning ``g``
  (a loop variable in the LHS's ``g``-subscript that is absent from the
  RHS reference) pays ``OneToManyMulticast(1, N_g)`` per distinct
  element (the naive Gauss broadcasts of §6).

Loops carrying a sequential dependence (e.g. SOR's ``i`` loop) must be
named in *sequential_vars*; their trip count multiplies the invocation
count of reductions/realignments while dividing the per-invocation
message size, reproducing §5's ``m x Reduction(1, N)``.

Most of what the rules read depends on the statement alone: trip counts,
flops, which subscripts use which loop variables, and whether two
subscripts differ by a constant.  :func:`loop_facts` gathers that once
per loop nest; :meth:`LoopFacts.price` reads only placements and grid
extents, so Algorithm 1's sweep over (scheme, grid) pairs re-derives
nothing (a communication pattern is a function of the distribution
pair, priced apart from the machine — Eijkhout, arXiv 1602.02409).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.costmodel.primitives import (
    MANY_TO_MANY,
    ONE_TO_MANY,
    REDUCTION,
    SHIFT,
    TRANSFER,
    Primitive,
    TimeBreakdown,
)
from repro.distribution.schemes import Scheme
from repro.errors import CostModelError
from repro.lang.affine import difference_is_constant
from repro.lang.analysis import mean_trips, nest_runs
from repro.lang.ast import ArrayRef, Assign, DoLoop, Stmt, array_refs, walk_exprs
from repro.lang.ast import BinOp, Call, UnaryOp
from repro.machine.model import MachineModel


#: One counted contribution, before a machine prices it:
#: ``(rule, flops, messages, words, line)``, where *rule* is ``"comp"`` or
#: the name of the Table 1 row it charges.
CountTerm = tuple[str, float, float, float, int]


def loop_time(counts: list[CountTerm], model: MachineModel) -> TimeBreakdown:
    """*counts* (what :meth:`LoopFacts.price` returns) priced by *model*: the
    comp and the comm terms summed apart, in term order."""
    comp = comm = 0.0
    for rule, flops, messages, words, _line in counts:
        seconds = model.seconds(flops, messages, words)
        if rule == "comp":
            comp += seconds
        else:
            comm += seconds
    return TimeBreakdown(comp, comm)


def _charge(primitive: Primitive, m: float, nprocs: int, times: float, line: int) -> CountTerm:
    """*times* invocations of a Table 1 row with *m*-word messages."""
    return (primitive.name, 0, *primitive.counts(m, nprocs, times), line)


def _count_flops(expr) -> int:
    """Arithmetic operations in an expression tree."""
    flops = 0
    for node in walk_exprs(expr):
        if isinstance(node, (BinOp, Call)):
            flops += 1
        elif isinstance(node, UnaryOp) and node.op == "-":
            flops += 1
    return flops


def _grid_extent(grid: tuple[int, int], g: int) -> int:
    if g == 1:
        return grid[0]
    if g == 2:
        return grid[1]
    raise CostModelError(f"grid dimension must be 1 or 2, got {g}")


def _distinct_elements(ref: ArrayRef, trips: dict[str, float]) -> float:
    """Distinct elements of *ref* touched over the nest (product of trips)."""
    seen_vars: set[str] = set()
    total = 1.0
    for sub in ref.subscripts:
        for var in sub.variables():
            if var in trips and var not in seen_vars:
                seen_vars.add(var)
                total *= trips[var]
    return total


@dataclass(frozen=True)
class _DimFacts:
    """One dimension of an RHS reference, as the rules see it."""

    sub_vars: frozenset[str]  # loop variables of its subscript
    foreign: bool  # driven only by loop variables absent from the LHS
    reduces: bool  # driven by some loop variable absent from the LHS
    shifted: tuple[bool, ...]  # per LHS dim: subscripts differ by a nonzero constant


@dataclass(frozen=True)
class _RefFacts:
    """One RHS array reference of a statement."""

    name: str
    same_array: bool  # reads the LHS array
    is_lhs: bool  # reads exactly the LHS element
    distinct: float
    dims: tuple[_DimFacts, ...]


@dataclass(frozen=True)
class _StmtFacts:
    """One array assignment: everything its price needs but placements and grid."""

    line: int
    lhs: str
    lhs_dims: tuple[frozenset[str], ...]  # loop variables of each LHS subscript
    refs: tuple[_RefFacts, ...]  # every RHS array reference, in order
    flops: int
    executions: float
    runs: bool  # some instance executes (``executions`` is a mean: it may read 0)
    accumulates: bool
    lhs_distinct: float
    seq_factor: float

    def price(
        self,
        layout: dict[str, tuple[tuple[int | None, int], ...]],
        grid: tuple[int, int],
        terms: list[CountTerm],
    ) -> None:
        """Append this statement's count terms to *terms*, in the rules' order.

        *layout* maps each placed array to ``(grid dim, extent)`` per
        array dimension (extent 1 for an undistributed one).
        """
        lhs_layout = layout.get(self.lhs)
        if lhs_layout is None:
            return
        refs = [ref for ref in self.refs if ref.name in layout]
        line = self.line
        seq_factor = self.seq_factor

        # ---- computation -----------------------------------------------
        # Owner computes: the work of a statement is split across the grid
        # dimensions its LHS owners span.  An accumulation additionally
        # splits across grid dimensions driven by its reduction variables
        # (partial sums computed where the RHS data lives, then combined) —
        # this is how the paper gets 2 m^2/(N1 N2) for Jacobi's line 5.
        # The same pass records the LHS-distributed loop variables' grid
        # dims and, for an accumulation, the reduction rule's grid dims.
        split_dims: set[int] = set()
        lhs_var_dims: dict[str, int] = {}
        for (g, n), sub_vars in zip(lhs_layout, self.lhs_dims):
            if n > 1 and sub_vars:
                split_dims.add(g)
                for var in sub_vars:
                    lhs_var_dims[var] = g
        lhs_procs = 1.0
        for g in set(lhs_var_dims.values()):
            lhs_procs *= grid[g - 1]
        red_dims: set[int] = set()
        if self.accumulates:
            for ref in refs:
                if ref.same_array:
                    continue
                for (g, n), dim in zip(layout[ref.name], ref.dims):
                    if n > 1:
                        if dim.foreign:
                            split_dims.add(g)  # reduction variable dimension
                        if dim.reduces:
                            red_dims.add(g)
        if self.flops:
            split = 1.0
            for g in split_dims:
                split *= grid[g - 1]
            terms.append(("comp", self.flops * self.executions / split, 0, 0, line))

        # ---- reduction rule --------------------------------------------
        for g in red_dims:
            n = grid[g - 1]
            words = max(self.lhs_distinct / max(lhs_procs, 1.0) / seq_factor, 1.0)
            terms.append(_charge(REDUCTION, words, n, seq_factor, line))

        lhs_undistributed = not lhs_var_dims

        # ---- per-RHS-reference rules -----------------------------------
        for ref in refs:
            if ref.is_lhs:
                continue
            distinct = ref.distinct
            for (g, n_src), dim in zip(layout[ref.name], ref.dims):
                if n_src <= 1:
                    continue
                sub_vars = dim.sub_vars

                # Reduction variables are handled by the reduction rule
                # above: the operand stays where it is and partial sums
                # travel.  LHS work that is replicated (no distributed
                # owner dimension) gathers the distributed operand first.
                if lhs_undistributed and sub_vars and not (self.accumulates and dim.foreign):
                    words = max(distinct / n_src / seq_factor, 1.0)
                    terms.append(_charge(MANY_TO_MANY, words, n_src, seq_factor, line))
                    continue

                # pinned-element multicast (naive Gauss broadcasts), of
                # elements a statement instance reads: none when none runs
                if any(gg == g and var not in sub_vars for var, gg in lhs_var_dims.items()):
                    sent = distinct if self.runs else 0.0
                    terms.append(_charge(ONE_TO_MANY, 1, n_src, sent, line))
                    continue

                # alignment with an LHS dimension driven by the same variable
                for var in sub_vars:
                    g_lhs = lhs_var_dims.get(var)
                    if g_lhs is None:
                        continue  # reduction variable or LHS-undistributed: local
                    if g_lhs == g:
                        # same grid dimension: check subscript offset
                        for (gl, _), shifted in zip(lhs_layout, dim.shifted):
                            if gl == g and shifted:
                                words = max(distinct / n_src / seq_factor, 1.0)
                                terms.append(_charge(SHIFT, words, 2, seq_factor, line))
                    else:
                        # realignment across grid dimensions (a Transfer's
                        # one round ignores the processor count)
                        n_dst = grid[g_lhs - 1]
                        words = max(distinct / n_src / seq_factor, 1.0)
                        primitive = ONE_TO_MANY if n_dst > 1 else TRANSFER
                        terms.append(_charge(primitive, words, n_dst, seq_factor * n_src, line))


@dataclass(frozen=True)
class LoopFacts:
    """What the estimator reads of a loop nest that no scheme or grid changes.

    Built once per nest by :func:`loop_facts`; :meth:`price` then costs
    the nest under any number of (scheme, grid) pairs.
    """

    stmts: tuple[_StmtFacts, ...]  # array assignments, in program order
    arrays: frozenset[str]  # every array the assignments name

    def price(self, scheme: Scheme, grid: tuple[int, int]) -> list[CountTerm]:
        """The nest's count terms under *scheme* on *grid* (arrays it omits
        are free), in the order :func:`loop_time` sums them."""
        arrays = self.arrays
        layout = {
            p.array: tuple((g, 1 if g is None else _grid_extent(grid, g)) for g in p.dim_map)
            for p in scheme.placements
            if p.array in arrays
        }
        terms: list[CountTerm] = []
        for stmt in self.stmts:
            stmt.price(layout, grid, terms)
        return terms


def loop_facts(
    nest: DoLoop | list[Stmt],
    env: dict[str, int],
    sequential_vars: frozenset[str] | set[str] = frozenset(),
) -> LoopFacts:
    """Gather the scheme-independent facts of every assignment in *nest*."""
    stmts = nest.body if isinstance(nest, DoLoop) else list(nest)
    outer = (nest,) if isinstance(nest, DoLoop) else ()
    facts: list[_StmtFacts] = []
    _walk(stmts, outer, env, sequential_vars, facts)
    arrays = frozenset(
        name for stmt in facts for name in (stmt.lhs, *(ref.name for ref in stmt.refs))
    )
    return LoopFacts(tuple(facts), arrays)


def estimate_loop_cost(
    nest: DoLoop | list[Stmt],
    scheme: Scheme,
    grid: tuple[int, int],
    env: dict[str, int],
    model: MachineModel,
    sequential_vars: frozenset[str] | set[str] = frozenset(),
) -> TimeBreakdown:
    """Estimate the cost of executing *nest* once under *scheme*."""
    return loop_time(loop_facts(nest, env, sequential_vars).price(scheme, grid), model)


def _walk(
    stmts: list[Stmt],
    loops: tuple[DoLoop, ...],
    env: dict[str, int],
    sequential_vars: frozenset[str] | set[str],
    facts: list[_StmtFacts],
) -> None:
    for stmt in stmts:
        if isinstance(stmt, DoLoop):
            _walk(stmt.body, loops + (stmt,), env, sequential_vars, facts)
        elif isinstance(stmt, Assign) and isinstance(stmt.lhs, ArrayRef):
            facts.append(_stmt_facts(stmt, loops, env, sequential_vars))


def _stmt_facts(
    stmt: Assign,
    loops: tuple[DoLoop, ...],
    env: dict[str, int],
    sequential_vars: frozenset[str] | set[str],
) -> _StmtFacts:
    lhs = stmt.lhs
    trips = mean_trips(loops, env)
    loop_vars = set(trips)
    executions = 1.0
    for count in trips.values():
        executions *= count
    seq_factor = 1.0
    for var in sequential_vars:
        if var in trips:
            seq_factor *= trips[var]

    lhs_dims = tuple(sub.variables() & loop_vars for sub in lhs.subscripts)
    lhs_sub_vars: set[str] = set().union(*lhs_dims)
    refs = []
    for ref in array_refs(stmt.rhs):
        dims = []
        for sub in ref.subscripts:
            sub_vars = sub.variables() & loop_vars
            dims.append(
                _DimFacts(
                    sub_vars=sub_vars,
                    foreign=bool(sub_vars) and not (sub_vars & lhs_sub_vars),
                    reduces=not sub_vars <= lhs_sub_vars,
                    shifted=tuple(
                        difference_is_constant(sub, lhs_sub) not in (None, 0)
                        for lhs_sub in lhs.subscripts
                    ),
                )
            )
        same_array = ref.name == lhs.name
        refs.append(
            _RefFacts(
                name=ref.name,
                same_array=same_array,
                is_lhs=same_array and ref.subscripts == lhs.subscripts,
                distinct=_distinct_elements(ref, trips),
                dims=tuple(dims),
            )
        )
    return _StmtFacts(
        line=stmt.line,
        lhs=lhs.name,
        lhs_dims=lhs_dims,
        refs=tuple(refs),
        flops=_count_flops(stmt.rhs),
        executions=executions,
        runs=nest_runs(loops, env),
        accumulates=any(ref.is_lhs for ref in refs),
        lhs_distinct=_distinct_elements(lhs, trips),
        seq_factor=seq_factor,
    )
