"""Cost and plan of changing data layouts between loop nests.

Algorithm 1 (§4) needs two communication-cost oracles:

* ``cost(P, P')`` — changing layouts from scheme ``P`` to scheme ``P'``
  between two adjacent loop nests (:func:`redistribution_cost`);
* ``loop_carried_dependence(T)`` — the communication at the boundary of
  the enclosing iterative loop, i.e. the cost of making the arrays
  *written* under the final scheme available where the *first* scheme
  reads them (:func:`loop_carried_cost` in :mod:`repro.dp.phases` builds
  on the same per-array primitive here).

Every per-dimension change is classified once, by :func:`change_rule`,
into a row of :data:`RULES`; a row carries what the planner charges
(*price*) and which :mod:`repro.distribution.runtime` op executes it
(*lower*).  The rules derive from the paper's §4 worked example, where
``CTime1 = 0`` and
``CTime2 = ManyToManyMulticast(m/N1, N1) + OneToManyMulticast(m, N2)``:

==================  ==================================================
rule                transition of one array dimension, and its price
==================  ==================================================
same                same mapping, same kind: 0
free                not distributed -> distributed while copies exist
                    along the target grid dimension (or either extent
                    is 1): 0
scatter             not distributed -> grid h from a copy pinned
                    (rest fixed) at coordinate 0 of h: Scatter(D/Nh, Nh)
regrid              same grid dimension, kind change:
                    AffineTransform(D/Ng, Ng)
gather              grid g -> not distributed, destination pinned
                    (rest fixed) at coordinate 0: Gather(D/Ng, Ng)
allgather           grid g -> not distributed, destination keeps or
                    replicates copies: ManyToManyMulticast(D/Ng, Ng)
departition         grid g -> grid h, rest replicated:
                    ManyToManyMulticast(D/Ng, Ng)
departition-spread  the same from a pinned source:
                    ManyToManyMulticast(D/Ng, Ng), then each copy pays
                    OneToManyMulticast(D, Nh) along h
relabel             grid g -> grid h, Ng == Nh, same kind, both rests
                    fixed, nothing else moves: Transfer(D/Ng) x (Ng - 1)
                    pairwise section moves (pure rank relabeling)
remap               grid g -> grid h otherwise, rest fixed:
                    Ng x OneToManyMulticast(D/Ng, Nh)
collapse            grid g -> grid h with Nh == 1, rest fixed: priced
                    ManyToManyMulticast(D/Ng, Ng), executed as remap
                    (not literal)
unsplit             pinned source on a grid dimension of extent 1 ->
                    another grid dimension: priced 0, the runtime has
                    to move the data (not literal)
replicate           rest fixed -> replicated (per array, after the
                    dimensions): OneToManyMulticast over each unused
                    grid dimension, one root per holder
==================  ==================================================

``D`` is the total element count of the array.  These match the paper's
terms exactly on its examples and degrade gracefully (all costs are zero
when the relevant grid extent is 1).

Every plan is an executable object: :mod:`repro.distribution.runtime`
lowers the same classification to real message traffic on the SPMD
engine, and ``repro.tools.report --redist`` reconciles the measured word
counts against :attr:`RedistTerm.volume` (see ``docs/REDISTRIBUTION.md``
for the slack band).  The two rules marked *not literal* execute a
different primitive than they price; their lowerings are flagged
``exact=False`` and stay outside the band.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod

from repro.costmodel import primitives as table1
from repro.costmodel.primitives import Primitive
from repro.distribution.schemes import ArrayPlacement, Scheme
from repro.errors import DistributionError
from repro.machine.model import MachineModel


@dataclass(frozen=True)
class RedistTerm:
    """One primitive invocation in a redistribution plan: ``serial`` times
    ``primitive(words, nprocs)``.

    ``serial`` is how many times the invocation's time is taken (e.g. the
    ``Ng x OneToManyMulticast`` remap rule); :attr:`counts` is what that
    puts on the critical path.  ``count`` is the number of *parallel*
    instances the term stands for — parallel instances do not add time,
    but they do add traffic, so :attr:`volume` scales with it.
    """

    array: str
    primitive: str
    words: float
    nprocs: int
    serial: int
    count: int = 1

    @property
    def counts(self) -> tuple[float, float]:
        """``(messages, words)`` on the critical path (Table 1's row)."""
        return table1.PRIMITIVES[self.primitive].counts(self.words, self.nprocs, self.serial)

    @property
    def volume(self) -> float:
        """Analytic words put on the wire by this term (all instances)."""
        return self.count * table1.PRIMITIVES[self.primitive].volume(self.words, self.nprocs)

    def seconds(self, model: MachineModel) -> float:
        return model.seconds(0, *self.counts)

    def describe(self, model: MachineModel) -> str:
        head = f"{self.primitive}({self.words:g}, {self.nprocs})"
        if self.count != 1:
            head = f"{self.count} x {head}"
        return f"{head} on {self.array} = {self.seconds(model):g}"


@dataclass(frozen=True)
class RedistPlan:
    """A full redistribution plan: the unified return shape of this module."""

    src: Scheme | ArrayPlacement
    dst: Scheme | ArrayPlacement
    grid: tuple[int, int]
    terms: tuple[RedistTerm, ...] = ()

    @property
    def analytic_words(self) -> float:
        """Total words the analytic model says this plan moves."""
        return sum(t.volume for t in self.terms)

    def seconds(self, model: MachineModel) -> float:
        """The plan's analytic time: its terms priced by *model*, summed."""
        return sum(t.seconds(model) for t in self.terms)

    def describe(self, model: MachineModel) -> str:
        lines = [f"redistribution on grid {self.grid[0]}x{self.grid[1]}:"]
        if not self.terms:
            lines.append("  (free: no data movement)")
        for t in self.terms:
            lines.append(f"  {t.describe(model)}")
        lines.append(
            f"  total = {self.seconds(model):g}, analytic words = {self.analytic_words:g}"
        )
        return "\n".join(lines)


def _n_of(grid: tuple[int, int], g: int) -> int:
    if g == 1:
        return grid[0]
    if g == 2:
        return grid[1]
    raise DistributionError(f"grid dimension must be 1 or 2, got {g}")


# What a priced term scales with: positions in the tuple
# ``(1, Ng, Nh, Ng - 1, parallel copy groups)`` of the dimension at hand.
_ONE, _NG, _NH, _NG_LESS_1, _COPIES = range(5)


@dataclass(frozen=True)
class ChangeRule:
    """One row of the layout-change table.

    ``price`` lists the terms the planner charges, each as ``(primitive,
    split, over, serial, count)``: a message of ``D / split`` words over
    ``over`` processors, its time taken ``serial`` times, standing for
    ``count`` parallel instances (the last four are ``_ONE`` .. ``_COPIES``
    positions).  ``lower`` names the runtime op class that executes the
    rule.  ``literal`` is False where the two columns disagree.
    """

    name: str
    price: tuple[tuple[Primitive, int, int, int, int], ...] = ()
    lower: str | None = None
    literal: bool = True


_ALLGATHER = (table1.MANY_TO_MANY, _NG, _NG, _ONE, _COPIES)

SAME = ChangeRule("same")
FREE = ChangeRule("free")
SCATTER = ChangeRule("scatter", ((table1.SCATTER, _NH, _NH, _ONE, _ONE),), "ScatterOp")
REGRID = ChangeRule(
    "regrid", ((table1.AFFINE_TRANSFORM, _NG, _NG, _ONE, _COPIES),), "RegridOp"
)
GATHER = ChangeRule("gather", ((table1.GATHER, _NG, _NG, _ONE, _ONE),), "GatherOp")
ALLGATHER = ChangeRule("allgather", (_ALLGATHER,), "AllgatherOp")
DEPARTITION = ChangeRule("departition", (_ALLGATHER,), "AllgatherOp")
# After the departition, copies exist at every coordinate of g; each
# multicasts along h in parallel (same time, Ng times the traffic).  A
# replicated source already has copies along h, so the spread is free there.
DEPARTITION_SPREAD = ChangeRule(
    "departition-spread",
    (_ALLGATHER, (table1.ONE_TO_MANY, _ONE, _NH, _ONE, _NG)),
    "AllgatherOp",
)
# Section k moves from coordinate k of g to coordinate k of h; section 0 is
# already in place, the other Ng - 1 move in parallel between disjoint pairs.
RELABEL = ChangeRule(
    "relabel", ((table1.TRANSFER, _NG, _NG, _ONE, _NG_LESS_1),), "TransferOp"
)
REMAP = ChangeRule("remap", ((table1.ONE_TO_MANY, _NG, _NH, _NG, _NG),), "BcastOp")
COLLAPSE = ChangeRule(
    "collapse", ((table1.MANY_TO_MANY, _NG, _NG, _ONE, _ONE),), "BcastOp", literal=False
)
UNSPLIT = ChangeRule("unsplit", literal=False)
# Per array, not per dimension: here Ng stands for the holders sharing D,
# Nh for the unused grid dimension being filled, the count for the copies
# that each multicast along it in parallel.
REPLICATE = ChangeRule(
    "replicate", ((table1.ONE_TO_MANY, _NG, _NH, _ONE, _COPIES),), "BcastOp"
)

RULES = (
    SAME, FREE, SCATTER, REGRID, GATHER, ALLGATHER, DEPARTITION, DEPARTITION_SPREAD,
    RELABEL, REMAP, COLLAPSE, UNSPLIT, REPLICATE,
)

#: The complete set of primitives a planner may emit.
TERM_KINDS = tuple(
    dict.fromkeys(term[0].name for rule in RULES for term in rule.price)
)


def change_rule(
    src: ArrayPlacement, dst: ArrayPlacement, d: int, grid: tuple[int, int]
) -> ChangeRule:
    """Classify the change of array dimension *d* from *src* to *dst*.

    The one place that decides what kind of move a layout change is; the
    planner prices the answer, the runtime lowers it.  ``REPLICATE`` is
    the per-array completion both apply after the dimensions.
    """
    gs, gd = src.dim_map[d], dst.dim_map[d]
    same_kind = src.kinds[d] is dst.kinds[d]
    if gs is None:
        if gd is None:
            return SAME if same_kind else FREE
        if _n_of(grid, gd) > 1 and src.rest == "fixed" and gd not in src.grid_dims():
            # The source pinned its copies at coordinate 0 of the
            # (previously unused) target dimension.
            return SCATTER
        return FREE  # copies already exist along gd (replication)
    ns = _n_of(grid, gs)
    if gd == gs:
        if same_kind:
            return SAME
        return REGRID if ns > 1 else FREE
    if ns <= 1:
        # A grid dimension of extent 1 means the array was never really
        # split along it.  The planner moves nothing; that is only right
        # while copies exist wherever the destination wants them.
        return UNSPLIT if gd is not None and src.rest == "fixed" else FREE
    if gd is None:
        if dst.rest == "fixed" and gs not in dst.grid_dims():
            return GATHER  # toward the rank pinned at coordinate 0 of gs
        return ALLGATHER
    nd = _n_of(grid, gd)
    if dst.rest == "replicated":
        return DEPARTITION_SPREAD if nd > 1 and src.rest == "fixed" else DEPARTITION
    if (
        ns == nd
        and same_kind
        and src.rest == "fixed"
        and all(
            src.dim_map[e] == dst.dim_map[e] and src.kinds[e] is dst.kinds[e]
            for e in range(src.rank)
            if e != d
        )
    ):
        return RELABEL
    return REMAP if nd > 1 else COLLAPSE


def _charge(
    rule: ChangeRule,
    scale: tuple[int, int, int, int, int],
    array: str,
    D: float,
    terms: list[RedistTerm],
) -> None:
    """Append *rule*'s price column, scaled for one dimension, to *terms*."""
    for primitive, split, over, serial, count in rule.price:
        terms.append(RedistTerm(
            array, primitive.name, D / scale[split], scale[over], scale[serial], scale[count]
        ))


def placement_change_terms(
    src: ArrayPlacement,
    dst: ArrayPlacement,
    total_elements: int,
    grid: tuple[int, int],
) -> list[RedistTerm]:
    """Redistribution terms for one array moving from *src* to *dst*."""
    if src.array != dst.array:
        raise DistributionError(f"placement arrays differ: {src.array} vs {dst.array}")
    if src.rank != dst.rank:
        raise DistributionError(f"{src.array}: placement ranks differ")
    terms: list[RedistTerm] = []
    D = float(total_elements)
    # A replicated source keeps one full copy of the data per coordinate
    # of every unused grid dimension.  When the destination is also
    # replicated, each copy group performs the per-dimension collective
    # independently (same time, ncopies times the traffic) — mirror of
    # the runtime's parallel-group execution.  Toward a "fixed"
    # destination only the group holding the pinned home acts, so the
    # count stays 1 (and the runtime may even move *less* than the
    # aggregate rule charges by exploiting the spare copies).
    ncopies = 1
    if src.rest == "replicated" and dst.rest == "replicated":
        ncopies = prod(
            _n_of(grid, g) for g in (1, 2) if g not in src.grid_dims()
        )

    for d in range(src.rank):
        rule = change_rule(src, dst, d, grid)
        if rule.price:
            gs, gd = src.dim_map[d], dst.dim_map[d]
            ns = _n_of(grid, gs) if gs else 1
            nd = _n_of(grid, gd) if gd else 1
            _charge(rule, (1, ns, nd, ns - 1, ncopies), src.array, D, terms)

    if src.rest == "fixed" and dst.rest == "replicated":
        dst_used = dst.grid_dims()
        # Dimensions along which copies already spread: ones the
        # destination uses, plus ones a departition multicast just covered.
        spread = set(dst_used) | set(src.grid_dims())
        holders = prod(_n_of(grid, g) for g in dst_used)
        for g in (1, 2):
            if g in spread:
                continue
            n = _n_of(grid, g)
            if n > 1:
                # One multicast per existing copy, all in parallel.
                count = prod(_n_of(grid, gg) for gg in spread)
                _charge(REPLICATE, (1, holders, n, 0, count), src.array, D, terms)
            spread.add(g)
    return terms


def placement_change_plan(
    src: ArrayPlacement,
    dst: ArrayPlacement,
    total_elements: int,
    grid: tuple[int, int],
) -> RedistPlan:
    """:func:`placement_change_terms` wrapped in a :class:`RedistPlan`."""
    terms = placement_change_terms(src, dst, total_elements, grid)
    return RedistPlan(src, dst, tuple(grid), tuple(terms))


def redistribution_cost(
    src: Scheme,
    dst: Scheme,
    array_sizes: dict[str, int],
    grid: tuple[int, int],
    arrays: tuple[str, ...] | None = None,
) -> RedistPlan:
    """The plan (the terms to price) of changing layouts from *src* to *dst*.

    When *arrays* is None every array of *src* must also appear in *dst*
    — an array that silently vanishes from the destination scheme would
    make the move look free, so it raises :class:`DistributionError`
    instead.  Pass an explicit *arrays* tuple to scope the comparison
    (the DP does this for the intersection of adjacent segments).
    """
    terms: list[RedistTerm] = []
    if arrays is not None:
        names = arrays
    else:
        names = tuple(a for a in src.arrays() if a in dst.arrays())
        missing = tuple(a for a in src.arrays() if a not in dst.arrays())
        if missing:
            raise DistributionError(
                f"arrays {missing!r} appear in the source scheme but not the "
                "destination; pass arrays=... explicitly to scope the move"
            )
    for name in names:
        sp = src.placement(name)
        dp = dst.placement(name)
        if sp == dp:
            continue
        if name not in array_sizes:
            raise DistributionError(f"no size known for array {name!r}")
        terms.extend(placement_change_terms(sp, dp, array_sizes[name], grid))
    return RedistPlan(src, dst, tuple(grid), tuple(terms))


def replication_cost(
    placement: ArrayPlacement,
    total_elements: int,
    grid: tuple[int, int],
) -> RedistPlan:
    """Plan for making an array fully replicated from *placement*.

    Used for loop-carried dependences where the next iteration reads the
    whole array everywhere (the paper's
    ``ManyToManyMulticast(m/N1, N1) + OneToManyMulticast(m, N2)``).
    """
    dst = ArrayPlacement(
        array=placement.array,
        dim_map=tuple(None for _ in placement.dim_map),
        kinds=placement.kinds,
        rest="replicated",
    )
    return placement_change_plan(placement, dst, total_elements, grid)
