"""Executable redistribution: lower layout deltas to real message traffic.

:mod:`repro.distribution.redistribution` prices a layout change with
closed-form :class:`~repro.distribution.redistribution.RedistTerm`s; this
module *executes* the same change on the SPMD engine so the analytic model
can be validated end-to-end (ISSUE 2, after Rink et al. 2021's framing of
redistribution as lowering layout deltas to collective sequences).

The lowering is **literal**: it walks the *lower* column of the same
:data:`~repro.distribution.redistribution.RULES` row the planner priced,
and each op runs the engine collective of the Table 1 primitive the paper
prices it with, even where a cleverer exchange would move fewer words —
the point is to measure the traffic the model claims.

=====================  ================================================
analytic term          executable lowering
=====================  ================================================
Transfer               pairwise :class:`TransferOp` (disjoint pairs)
Gather                 :class:`GatherOp` toward the pinned rank
Scatter                :class:`ScatterOp` from each pinned holder
AffineTransform        :class:`RegridOp` — gather + scatter inside each
                       holder group (a block<->cyclic regrid is not a
                       rank permutation, so the permutation collective
                       cannot realize it; this is its documented cost
                       within 2x of the analytic ``N * m`` words)
OneToManyMulticast     :class:`BcastOp` (binomial tree)
ManyToManyMulticast    :class:`AllgatherOp` (ring)
=====================  ================================================

Every op declares its data movement once, as :meth:`stages` of
``(holder, receivers, indices)`` moves; who takes part and the plan-time
coverage proof both follow from that.  The proof replays the stages over
per-rank boolean masks of the flat element space and shows each rank
ends holding a superset of its destination section.  Compound moves
the literal rules cannot express (several array dimensions remapped at
once) fall back to a generic pairwise :class:`ExchangeOp`.  Those plans,
and the ones whose rule is marked not literal (an extent-1 grid
dimension: the runtime runs a different primitive than the planner
priced), are flagged ``exact=False`` — correct, but outside the
word-count slack band documented in ``docs/REDISTRIBUTION.md``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import prod
from typing import Any, Generator, Iterator, get_args

import numpy as np

from repro.costmodel import primitives as table1
from repro.distribution.redistribution import SAME, change_rule
from repro.distribution.schemes import ArrayPlacement
from repro.distribution.sections import (
    groups_along,
    local_indices,
    section_table,
)
from repro.errors import DistributionError
from repro.machine.collectives import (
    PLAIN_TRANSPORT,
    Transport,
    allgather,
    bcast,
    exchange,
    gather,
    scatter,
)
from repro.machine.engine import Proc

#: Tags consumed per op slot (RegridOp needs two: gather then scatter).
TAG_STRIDE = 2
DEFAULT_TAG_BASE = 7000

#: One data movement: *holder* sends *indices* to every rank of *receivers*.
_Move = tuple[int, tuple[int, ...], np.ndarray]


class _Staged:
    """What every op derives from the ``stages()`` it declares.

    A stage is a list of moves whose holders all hold their indices when
    the stage starts; a later stage may forward what an earlier delivered.
    """

    @cached_property
    def _members(self) -> frozenset[int]:
        return frozenset(
            r for stage in self.stages() for h, to, _ in stage for r in (h, *to)
        )

    def ranks(self) -> frozenset[int]:
        return self._members


@dataclass(frozen=True)
class TransferOp(_Staged):
    """Point-to-point section move (the paper's Transfer primitive)."""

    source: int
    dest: int
    indices: np.ndarray

    kind = table1.TRANSFER.name

    def stages(self) -> list[list[_Move]]:
        return [[(self.source, (self.dest,), self.indices)]]

    def execute(
        self, p: Proc, buf, have, tag: int, transport: Transport | None = None
    ) -> Generator:
        tx = transport or PLAIN_TRANSPORT
        with p.scoped("transfer"):
            if p.rank == self.source and self.dest != self.source:
                yield from tx.send(p, self.dest, buf[self.indices], tag=tag)
            if p.rank == self.dest and self.dest != self.source:
                buf[self.indices] = yield from tx.recv(p, self.source, tag=tag)
                have[self.indices] = True
        return None

    @staticmethod
    def plan(cov: "_Coverage", gs: int, gd: int) -> Iterator["TransferOp"]:
        """Pure rank relabeling: each needy rank takes its section whole
        from a rank that holds it, in parallel between disjoint pairs."""
        for r, need in enumerate(cov.dst_secs):
            if need.size == 0 or cov.holds(r, need):
                continue
            donor = next(
                (s for s in range(len(cov.dst_secs)) if cov.holds(s, need)), None
            )
            if donor is None:
                return  # r stays uncovered: the lowering falls back
            yield TransferOp(donor, r, need)


@dataclass(frozen=True)
class BcastOp(_Staged):
    """OneToManyMulticast of one index set from *root* over *group*."""

    root: int
    group: tuple[int, ...]
    indices: np.ndarray

    kind = table1.ONE_TO_MANY.name

    def stages(self) -> list[list[_Move]]:
        return [[(self.root, self.group, self.indices)]]

    def execute(
        self, p: Proc, buf, have, tag: int, transport: Transport | None = None
    ) -> Generator:
        data = buf[self.indices] if p.rank == self.root else None
        values = yield from bcast(
            p, data, self.root, self.group, tag=tag, transport=transport
        )
        buf[self.indices] = values
        have[self.indices] = True
        return None

    @staticmethod
    def plan(cov: "_Coverage", gs: int, gd: int) -> Iterator["BcastOp"]:
        """Literal Ng x OneToManyMulticast: every holder multicasts its
        whole section over the destination holders — the Table 1
        primitive the analytic rule charges.  Holders whose data no
        destination still lacks are redundant copies (replicated
        sources); they stay silent."""
        dst_holders = [r for r, sec in enumerate(cov.dst_secs) if sec.size]
        for h in cov.holders():
            held = cov.held(h)
            if not any(
                r != h
                and not cov.holds(
                    r, np.intersect1d(cov.dst_secs[r], held, assume_unique=True)
                )
                for r in dst_holders
            ):
                continue
            group = tuple(sorted({h, *dst_holders}))
            if len(group) > 1:
                yield BcastOp(root=h, group=group, indices=held)


@dataclass(frozen=True)
class AllgatherOp(_Staged):
    """ManyToManyMulticast: every member ends with every contribution."""

    group: tuple[int, ...]
    indices: tuple[np.ndarray, ...]  # per-member contribution, group order

    kind = table1.MANY_TO_MANY.name

    def stages(self) -> list[list[_Move]]:
        return [[(r, self.group, idx) for r, idx in zip(self.group, self.indices)]]

    def execute(
        self, p: Proc, buf, have, tag: int, transport: Transport | None = None
    ) -> Generator:
        me = self.group.index(p.rank)
        blocks = yield from allgather(
            p, buf[self.indices[me]], self.group, tag=tag, transport=transport
        )
        for idx, values in zip(self.indices, blocks):
            buf[idx] = values
            have[idx] = True
        return None

    @staticmethod
    def plan(cov: "_Coverage", gs: int, gd: int) -> Iterator["AllgatherOp"]:
        """Departition along gs (REPLICATE's completion spreads the
        copies along the remaining dimensions afterwards)."""
        for group in cov.active_groups(gs):
            yield AllgatherOp(group=group, indices=tuple(cov.held(r) for r in group))


@dataclass(frozen=True)
class GatherOp(_Staged):
    """Gather each member's contribution to *root* (serialized at root)."""

    root: int
    group: tuple[int, ...]
    indices: tuple[np.ndarray, ...]  # per-member contribution, group order

    kind = table1.GATHER.name

    def stages(self) -> list[list[_Move]]:
        return [[(r, (self.root,), idx) for r, idx in zip(self.group, self.indices)]]

    def execute(
        self, p: Proc, buf, have, tag: int, transport: Transport | None = None
    ) -> Generator:
        me = self.group.index(p.rank)
        out = yield from gather(
            p, buf[self.indices[me]], self.root, self.group, tag=tag,
            transport=transport,
        )
        if p.rank == self.root:
            for idx, values in zip(self.indices, out):
                buf[idx] = values
                have[idx] = True
        return None

    @staticmethod
    def plan(cov: "_Coverage", gs: int, gd: int) -> Iterator["GatherOp"]:
        """Collapse the split toward the pinned coordinate-0 rank."""
        for group in cov.active_groups(gs):
            root = group[0]  # coordinate 0 along gs
            grp = tuple(r for r in group if r == root or cov.masks[r].any())
            if len(grp) > 1:
                yield GatherOp(root, grp, tuple(cov.held(r) for r in grp))


@dataclass(frozen=True)
class ScatterOp(_Staged):
    """Scatter per-member index sets from *root* (which must hold them)."""

    root: int
    group: tuple[int, ...]
    indices: tuple[np.ndarray, ...]  # per-member delivery, group order

    kind = table1.SCATTER.name

    def stages(self) -> list[list[_Move]]:
        return [[(self.root, (r,), idx) for r, idx in zip(self.group, self.indices)]]

    def execute(
        self, p: Proc, buf, have, tag: int, transport: Transport | None = None
    ) -> Generator:
        items = [buf[idx] for idx in self.indices] if p.rank == self.root else None
        mine = yield from scatter(
            p, items, self.root, self.group, tag=tag, transport=transport
        )
        me = self.group.index(p.rank)
        buf[self.indices[me]] = mine
        have[self.indices[me]] = True
        return None

    @staticmethod
    def plan(cov: "_Coverage", gs: int, gd: int) -> Iterator["ScatterOp"]:
        """Copies pinned at coordinate 0 of gd: scatter along it."""
        for group in groups_along(cov.grid, gd):
            root = group[0]
            if not cov.masks[root].any():
                continue
            held = cov.held(root)
            targets = tuple(
                np.intersect1d(cov.dst_secs[r], held, assume_unique=True)
                for r in group
            )
            if any(t.size for t in targets):
                yield ScatterOp(root=root, group=group, indices=targets)


@dataclass(frozen=True)
class RegridOp(_Staged):
    """AffineTransform lowering: gather to a root, scatter the new split.

    A block<->cyclic change within one holder group is not a rank
    permutation of equal sections, so it cannot ride the permutation
    collective; the documented lowering funnels the group's data through
    its first member and redeals it, ``2 (N-1) m`` measured words against
    the analytic ``N m``.
    """

    root: int
    group: tuple[int, ...]
    gather_indices: tuple[np.ndarray, ...]
    scatter_indices: tuple[np.ndarray, ...]

    kind = table1.AFFINE_TRANSFORM.name

    @cached_property
    def _halves(self) -> tuple[GatherOp, ScatterOp]:
        return (
            GatherOp(self.root, self.group, self.gather_indices),
            ScatterOp(self.root, self.group, self.scatter_indices),
        )

    def stages(self) -> list[list[_Move]]:
        return [stage for half in self._halves for stage in half.stages()]

    def execute(
        self, p: Proc, buf, have, tag: int, transport: Transport | None = None
    ) -> Generator:
        with p.scoped("affine"):
            for k, half in enumerate(self._halves):
                yield from half.execute(p, buf, have, tag + k, transport)
        return None

    @staticmethod
    def plan(cov: "_Coverage", gs: int, gd: int) -> Iterator["RegridOp"]:
        """Kind change: regrid each group along gs that holds data and
        still needs some (replicated rests leave parallel copy groups;
        pinned destinations leave whole groups with nothing to do, and
        holder-less groups are fed by REPLICATE's completion)."""
        for group in cov.active_groups(gs):
            grp = tuple(
                r for r in group if cov.masks[r].any() or cov.dst_secs[r].size
            )
            if len(grp) > 1:
                yield RegridOp(
                    root=grp[0],
                    group=grp,
                    gather_indices=tuple(cov.held(r) for r in grp),
                    scatter_indices=tuple(cov.dst_secs[r] for r in grp),
                )


@dataclass(frozen=True)
class ExchangeOp(_Staged):
    """Generic pairwise fallback: every move ``(source, dest, indices)``.

    Used when no literal lowering covers the delta; flagged by
    ``RedistLowering.exact == False``.
    """

    moves: tuple[tuple[int, int, np.ndarray], ...]

    kind = "Exchange"

    def stages(self) -> list[list[_Move]]:
        return [[(s, (d,), idx) for s, d, idx in self.moves]]

    def execute(
        self, p: Proc, buf, have, tag: int, transport: Transport | None = None
    ) -> Generator:
        sends = [
            (d, buf[idx]) for s, d, idx in self.moves if s == p.rank and d != p.rank
        ]
        expect = [(s, idx) for s, d, idx in self.moves if d == p.rank and s != p.rank]
        received = yield from exchange(
            p, sends, [s for s, _ in expect], tag=tag, transport=transport
        )
        for s, idx in expect:
            buf[idx] = received[s]
            have[idx] = True
        return None


RedistOp = (
    TransferOp | BcastOp | AllgatherOp | GatherOp | ScatterOp | RegridOp | ExchangeOp
)
_OPS = {cls.__name__: cls for cls in get_args(RedistOp)}


@dataclass(frozen=True)
class RedistLowering:
    """An executable plan for one array's placement change."""

    src: ArrayPlacement
    dst: ArrayPlacement
    extents: tuple[int, ...]
    grid: tuple[int, int]
    ops: tuple[RedistOp, ...]
    exact: bool

    @property
    def kinds(self) -> frozenset[str]:
        return frozenset(op.kind for op in self.ops)

    def describe(self) -> str:
        n1, n2 = self.grid
        head = (
            f"{self.src.array}: {len(self.ops)} op(s) on grid {n1}x{n2}"
            f" ({'literal' if self.exact else 'not literal'})"
        )
        lines = [head]
        for op in self.ops:
            lines.append(f"  {op.kind}: ranks {sorted(op.ranks())}")
        return "\n".join(lines)


class _Coverage:
    """Plan-time replay of ops over per-rank boolean element masks."""

    def __init__(
        self,
        src_secs: tuple[np.ndarray, ...],
        dst_secs: tuple[np.ndarray, ...],
        grid: tuple[int, int],
        total: int,
    ) -> None:
        self.dst_secs, self.grid = dst_secs, grid
        self.masks = np.zeros((len(src_secs), total), dtype=bool)
        for mask, idx in zip(self.masks, src_secs):
            mask[idx] = True

    def held(self, rank: int) -> np.ndarray:
        return np.flatnonzero(self.masks[rank])

    def holds(self, rank: int, indices: np.ndarray) -> bool:
        return bool(self.masks[rank][indices].all())

    def holders(self) -> list[int]:
        return [r for r, m in enumerate(self.masks) if m.any()]

    def needy(self, group) -> bool:
        """Some member of *group* is still missing destination data."""
        return any(
            self.dst_secs[r].size and not self.holds(r, self.dst_secs[r])
            for r in group
        )

    def active_groups(self, g: int) -> Iterator[tuple[int, ...]]:
        """Groups along grid dimension *g* that hold data and need some."""
        for group in groups_along(self.grid, g):
            if self.needy(group) and any(self.masks[r].any() for r in group):
                yield group

    def covered(self) -> bool:
        """Every rank holds its whole destination section."""
        return not self.needy(range(len(self.dst_secs)))

    def apply(self, op: RedistOp) -> bool:
        """Replay *op*; False when a sender lacks the data it would send."""
        for stage in op.stages():
            if not all(self.holds(h, idx) for h, _, idx in stage):
                return False
            gains: dict[tuple[int, ...], np.ndarray] = {}  # per receiver set
            for _, receivers, idx in stage:
                gains.setdefault(receivers, np.zeros_like(self.masks[0]))[idx] = True
            for receivers, gained in gains.items():
                self.masks[list(receivers)] |= gained
        return True


def _completion(cov: _Coverage) -> Iterator[BcastOp]:
    """REPLICATE's lowering: make copies exist along every grid dimension
    the destination leaves unused, dimensions in the planner's order."""
    for g in (1, 2):
        if cov.grid[g - 1] <= 1:
            continue
        for group in groups_along(cov.grid, g):
            if not cov.needy(group):
                continue
            need = np.unique(np.concatenate([cov.dst_secs[r] for r in group]))
            root = next((r for r in group if cov.holds(r, need)), None)
            if root is not None:  # else another dimension's pass may enable it
                yield BcastOp(root=root, group=group, indices=need)


def _literal_ops(
    src: ArrayPlacement, dst: ArrayPlacement, cov: _Coverage
) -> tuple[list[RedistOp], bool] | None:
    """Walk the lower column of the rules the planner prices.

    Returns the ops and whether the one rule applied is literal; None
    when the rules cannot express the delta (compound multi-dimension
    remaps) or a planned op would send data its sender lacks.
    """
    changed = [
        (d, rule)
        for d in range(src.rank)
        if (rule := change_rule(src, dst, d, cov.grid)) is not SAME
    ]
    if len(changed) > 1:
        return None
    planned = [
        _OPS[rule.lower].plan(cov, src.dim_map[d], dst.dim_map[d])
        for d, rule in changed
        if rule.lower
    ]
    if dst.rest == "replicated":
        # Not only from a fixed rest: it is a no-op wherever copies exist.
        planned.append(_completion(cov))
    ops: list[RedistOp] = []
    for plan in planned:
        for op in plan:  # lazily: each op is planned on the coverage so far
            if not cov.apply(op):
                return None
            ops.append(op)
    return ops, all(rule.literal for _, rule in changed)


def _exchange_ops(
    src_secs: tuple[np.ndarray, ...],
    dst_secs: tuple[np.ndarray, ...],
    total: int,
    array: str,
) -> list[RedistOp]:
    """Canonical pairwise moves: each element travels from its min-rank
    holder to every rank that needs and lacks it."""
    nranks = len(src_secs)
    first = np.full(total, -1, dtype=np.int64)
    for r in range(nranks - 1, -1, -1):
        first[src_secs[r]] = r
    moves: list[tuple[int, int, np.ndarray]] = []
    for r in range(nranks):
        need = np.setdiff1d(dst_secs[r], src_secs[r], assume_unique=True)
        if need.size == 0:
            continue
        senders = first[need]
        if (senders < 0).any():
            raise DistributionError(
                f"{array}: source placement holds no copy of some elements"
            )
        for s in np.unique(senders):
            moves.append((int(s), r, need[senders == s]))
    moves.sort(key=lambda m: (m[0], m[1]))
    return [ExchangeOp(tuple(moves))] if moves else []


@lru_cache(maxsize=256)
def _lower_cached(
    src: ArrayPlacement,
    dst: ArrayPlacement,
    extents: tuple[int, ...],
    grid: tuple[int, int],
) -> RedistLowering:
    if src.array != dst.array:
        raise DistributionError(f"placement arrays differ: {src.array} vs {dst.array}")
    if src.rank != dst.rank:
        raise DistributionError(f"{src.array}: placement ranks differ")
    total = prod(extents)
    src_secs = section_table(src, extents, grid)
    dst_secs = section_table(dst, extents, grid)

    cov = _Coverage(src_secs, dst_secs, grid, total)
    lowered = _literal_ops(src, dst, cov)
    if lowered is not None and cov.covered():
        ops, literal = lowered
        return RedistLowering(src, dst, extents, grid, tuple(ops), exact=literal)

    cov = _Coverage(src_secs, dst_secs, grid, total)
    ops = _exchange_ops(src_secs, dst_secs, total, src.array)
    for op in ops:
        if not cov.apply(op):  # pragma: no cover - exchange is total by construction
            raise DistributionError(f"{src.array}: fallback exchange is incoherent")
    if not cov.covered():
        raise DistributionError(
            f"{src.array}: no lowering reaches the destination placement"
        )
    return RedistLowering(src, dst, extents, grid, tuple(ops), exact=False)


def lower_placement_delta(
    src: ArrayPlacement,
    dst: ArrayPlacement,
    extents: tuple[int, ...],
    grid: tuple[int, int],
) -> RedistLowering:
    """Executable lowering of one array's ``src -> dst`` placement change.

    The result is cached (placements and shapes are hashable); its ops
    and index arrays are shared — treat them as read-only.
    """
    return _lower_cached(src, dst, tuple(extents), tuple(grid))


def redistribute(
    p: Proc,
    local: np.ndarray,
    src: ArrayPlacement,
    dst: ArrayPlacement,
    extents: tuple[int, ...],
    grid: tuple[int, int],
    tag_base: int = DEFAULT_TAG_BASE,
    label: str = "redist",
    transport: Transport | None = None,
) -> Generator[Any, None, np.ndarray]:
    """SPMD runtime call: move this rank's *local* section from layout
    *src* to layout *dst*, returning the new local section.

    Every rank of the ``N1 x N2`` grid must call it collectively (with
    ``yield from``), in the same order relative to other communication.
    *local* must be the rank's current section in flat index order
    (:func:`repro.distribution.sections.pack_section` produces it).
    Passing a :class:`repro.machine.resilient.ReliableTransport` as
    *transport* runs every underlying collective over acked transfers.
    """
    grid = tuple(grid)
    extents = tuple(extents)
    nranks = grid[0] * grid[1]
    if p.nprocs != nranks:
        raise DistributionError(
            f"redistribute on a {grid[0]}x{grid[1]} grid needs {nranks} ranks, "
            f"engine has {p.nprocs}"
        )
    lowering = lower_placement_delta(src, dst, extents, grid)
    total = prod(extents)
    buf = np.zeros(total, dtype=np.float64)
    have = np.zeros(total, dtype=bool)
    mine = local_indices(src, extents, grid, p.rank)
    values = np.asarray(local, dtype=np.float64).reshape(-1)
    if values.size != mine.size:
        raise DistributionError(
            f"{src.array}: rank {p.rank} passed {values.size} values for a "
            f"section of {mine.size}"
        )
    buf[mine] = values
    have[mine] = True
    with p.scoped(label):
        for i, op in enumerate(lowering.ops):
            if p.rank in op.ranks():
                yield from op.execute(
                    p, buf, have, tag=tag_base + TAG_STRIDE * i, transport=transport
                )
    out = local_indices(dst, extents, grid, p.rank)
    if not have[out].all():  # pragma: no cover - coverage is proven at plan time
        raise DistributionError(
            f"{src.array}: rank {p.rank} missing elements after redistribution"
        )
    return buf[out]
