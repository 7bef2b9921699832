"""Inspector–executor communication schedules for sparse kernels.

Dense kernels know their communication at compile time; a sparse
operator's traffic depends on an indirection array, so the classic
inspector/executor split applies (docs/SPARSE.md):

* the **inspector** walks the indirection structure *once* and
  precomputes a :class:`CommSchedule` — per-rank gather lists, pack and
  unpack index vectors, per-nnz local column positions — everything the
  communication and the local SpMV need;
* the **executor** (:func:`gather_ghosts` + :func:`spmv_local`) replays
  the schedule every iteration with **zero re-analysis**: no index
  arithmetic beyond applying the precomputed vectors, one aggregated
  message per neighbor pair, exactly ``schedule.gather_words`` words on
  the wire per sweep.

Schedules are a pure function of ``(pattern, placement)`` — building
twice yields bit-identical index vectors — and are content-addressed by
the placement digest, so they cache in the PR 7
:class:`~repro.service.cache.PlanCache` (:func:`cached_comm_schedule`):
a repeated sparsity pattern is served its schedule without re-running
the inspector, across services and processes.

:func:`inspector_exchange` additionally *measures* the inspector on the
simulated machine: each rank derives its needs from its own rows and
ships the request lists to their owners, bundling the per-neighbor
count+index messages through the PR 4 ``aggregate_words`` path, under
the ``sparse-inspect`` metrics scope.  The executor's traffic lands
under ``sparse-gather``, so measured words reconcile against the
schedule's analytic counts per scope (the ``sparse-redist-words``
band).
"""

from __future__ import annotations

from collections.abc import Generator
from dataclasses import dataclass

import numpy as np

from repro.distribution.sparse import SparsePlacement
from repro.errors import DistributionError
from repro.machine.engine import Proc
from repro.machine.nonblocking import NBComm, waitall
from repro.obs.context import stamp_current

#: Default tag bases; kernels may override to avoid collisions.
INSPECT_TAG = 900
GATHER_TAG = 920


@dataclass(frozen=True, eq=False)
class RankSchedule:
    """One rank's precomputed slice of a :class:`CommSchedule`."""

    rank: int
    row_lo: int
    row_hi: int
    col_lo: int
    col_hi: int
    #: Sorted global operand indices this rank gathers (its halo).
    ghosts: np.ndarray
    #: ``(source, global indices)`` pairs, ascending source order.
    recv_from: tuple[tuple[int, np.ndarray], ...]
    #: ``(dest, global indices)`` pairs, ascending dest order.
    send_to: tuple[tuple[int, np.ndarray], ...]
    #: ``(dest, positions into the local operand block)`` — the pack
    #: vectors: ``x_loc[pack]`` is the exact payload for *dest*.
    pack: tuple[tuple[int, np.ndarray], ...]
    #: ``(source, positions into the ghost buffer)`` — the unpack
    #: vectors: ``ghosts[unpack] = payload`` lands values in place.
    unpack: tuple[tuple[int, np.ndarray], ...]
    #: Per-nonzero position into ``concat(owned block, ghosts)``.
    local_cols: np.ndarray
    #: Per-nonzero local row index (0-based within the row block).
    local_rows: np.ndarray

    @property
    def rows(self) -> int:
        return self.row_hi - self.row_lo

    @property
    def owned(self) -> int:
        return self.col_hi - self.col_lo


@dataclass(frozen=True, eq=False)
class CommSchedule:
    """A replayable gather schedule for one (pattern, placement) pair.

    Immutable and pickleable; ``digest`` is the content address under
    which :func:`cached_comm_schedule` stores it.
    """

    nrows: int
    ncols: int
    nprocs: int
    digest: str
    ranks: tuple[RankSchedule, ...]

    # -- analytic cost-model entries (docs/SPARSE.md) -------------------
    @property
    def gather_words(self) -> int:
        """Words one executor sweep moves: one per (rank, ghost) pair."""
        return sum(len(r.ghosts) for r in self.ranks)

    @property
    def gather_messages(self) -> int:
        """Messages per sweep: one aggregated message per neighbor pair."""
        return sum(len(r.recv_from) for r in self.ranks)

    @property
    def inspector_words(self) -> int:
        """Words the on-machine inspector exchange moves (once).

        Every ordered rank pair ships a one-word request count; pairs
        with a nonempty request additionally ship the index list.
        """
        pairs = self.nprocs * (self.nprocs - 1)
        return pairs + self.gather_words

    def rank_schedule(self, rank: int) -> RankSchedule:
        if not (0 <= rank < self.nprocs):
            raise DistributionError(f"rank {rank} outside 0..{self.nprocs - 1}")
        return self.ranks[rank]

    def content_equal(self, other: "CommSchedule") -> bool:
        """Bit-level equality of every precomputed index vector."""
        if (self.nrows, self.ncols, self.nprocs, self.digest) != (
            other.nrows, other.ncols, other.nprocs, other.digest,
        ):
            return False
        for a, b in zip(self.ranks, other.ranks):
            if (a.rank, a.row_lo, a.row_hi, a.col_lo, a.col_hi) != (
                b.rank, b.row_lo, b.row_hi, b.col_lo, b.col_hi,
            ):
                return False
            pairs = [
                (a.ghosts, b.ghosts),
                (a.local_cols, b.local_cols),
                (a.local_rows, b.local_rows),
            ]
            for lists_a, lists_b in (
                (a.recv_from, b.recv_from), (a.send_to, b.send_to),
                (a.pack, b.pack), (a.unpack, b.unpack),
            ):
                if [p for p, _ in lists_a] != [p for p, _ in lists_b]:
                    return False
                pairs.extend(
                    (va, vb) for (_, va), (_, vb) in zip(lists_a, lists_b)
                )
            if any(va.tobytes() != vb.tobytes() for va, vb in pairs):
                return False
        return True

    def describe(self) -> str:
        return (
            f"CommSchedule[{self.nrows}x{self.ncols} on {self.nprocs} ranks: "
            f"{self.gather_words} gather words / {self.gather_messages} "
            f"messages per sweep, inspector {self.inspector_words} words]"
        )


def build_comm_schedule(placement: SparsePlacement) -> CommSchedule:
    """The inspector proper: one pass over the indirection structure.

    A pure function of ``(pattern, placement)``: equal digests imply
    bit-identical schedules (pinned by the hypothesis sweep in
    ``tests/test_inspector_executor.py``).
    """
    pat = placement.pattern
    nprocs = placement.nprocs
    col_owner = placement.col_owner
    # Pass 1: each rank's needs, grouped by owning neighbor.
    needs: list[list[tuple[int, np.ndarray]]] = []
    ghosts_per_rank: list[np.ndarray] = []
    for rank in range(nprocs):
        ghosts = placement.ghost_indices(rank)
        ghosts_per_rank.append(ghosts)
        owners = col_owner[ghosts] if len(ghosts) else ghosts
        needs.append(
            [(int(o), ghosts[owners == o]) for o in np.unique(owners)]
        )
    # Pass 2: mirror into send/pack lists on the owning side.
    send_lists: list[list[tuple[int, np.ndarray]]] = [[] for _ in range(nprocs)]
    for rank, pairs in enumerate(needs):
        for owner, idx in pairs:
            send_lists[owner].append((rank, idx))
    ranks = []
    for rank in range(nprocs):
        row_lo, row_hi = placement.row_block(rank)
        col_lo, col_hi = placement.col_block(rank)
        ghosts = ghosts_per_rank[rank]
        recv_from = tuple(needs[rank])
        send_to = tuple(sorted(send_lists[rank], key=lambda pair: pair[0]))
        pack = tuple((dest, idx - col_lo) for dest, idx in send_to)
        unpack = tuple(
            (src, np.searchsorted(ghosts, idx)) for src, idx in recv_from
        )
        seg = pat.indices[pat.indptr[row_lo] : pat.indptr[row_hi]]
        owned = col_hi - col_lo
        in_block = (seg >= col_lo) & (seg < col_hi)
        local_cols = np.where(
            in_block, seg - col_lo, owned + np.searchsorted(ghosts, seg)
        ).astype(np.int64)
        local_rows = np.repeat(
            np.arange(row_hi - row_lo, dtype=np.int64),
            np.diff(pat.indptr[row_lo : row_hi + 1]),
        )
        ranks.append(
            RankSchedule(
                rank=rank, row_lo=row_lo, row_hi=row_hi,
                col_lo=col_lo, col_hi=col_hi, ghosts=ghosts,
                recv_from=recv_from, send_to=send_to,
                pack=pack, unpack=unpack,
                local_cols=local_cols, local_rows=local_rows,
            )
        )
    return CommSchedule(
        nrows=pat.nrows, ncols=pat.ncols, nprocs=nprocs,
        digest=placement.digest, ranks=tuple(ranks),
    )


def schedule_digest(placement: SparsePlacement) -> str:
    """The content address a schedule is cached under."""
    return placement.digest


def cached_comm_schedule(
    placement: SparsePlacement, cache=None
) -> tuple[CommSchedule, bool]:
    """Serve the placement's schedule through a PR 7 plan cache.

    Returns ``(schedule, hit)``; *cache* is any
    :class:`repro.service.cache.PlanCache`-shaped object (or ``None``
    to build uncached).  On a hit the inspector does not run at all —
    the whole point of content-addressing sparsity patterns.
    """
    if cache is None:
        return build_comm_schedule(placement), False
    key = schedule_digest(placement)
    found = cache.get(key)
    if isinstance(found, CommSchedule):
        return found, True
    schedule = build_comm_schedule(placement)
    cache.put(key, schedule)
    return schedule, False


# -- the on-machine inspector ------------------------------------------
def inspector_exchange(
    p: Proc,
    placement: SparsePlacement,
    tag_base: int = INSPECT_TAG,
    aggregate_words: int = 64,
) -> Generator:
    """Run the inspector as SPMD traffic and return the local schedule.

    Each rank derives its ghost needs from its *own* rows only (charging
    one flop per local nonzero for the pattern walk), then ships each
    owner the request list — a one-word count plus the index vector,
    coalesced into a single wire message per neighbor by the PR 4
    aggregation path.  The result is this rank's :class:`RankSchedule`,
    bit-identical to the offline :func:`build_comm_schedule` slice
    (asserted by the executor tests); traffic lands under the
    ``sparse-inspect`` scope for reconciliation against
    ``CommSchedule.inspector_words``.
    """
    schedule = build_comm_schedule(placement)
    local = schedule.rank_schedule(p.rank)
    nprocs = placement.nprocs
    if nprocs == 1:
        return local
    with p.scoped("sparse-inspect"):
        p.compute(len(local.local_cols), label="inspect")
        comm = NBComm(p, aggregate_words=aggregate_words)
        count_reqs = [
            comm.irecv(src, tag_base) for src in range(nprocs) if src != p.rank
        ]
        wanted = dict(local.recv_from)
        for dest in range(nprocs):
            if dest == p.rank:
                continue
            idx = wanted.get(dest)
            if idx is None:
                comm.isend(dest, 0, words=1, tag=tag_base)
            else:
                # Count + indices on one channel: with aggregation on,
                # both buffer and ship as one bundled wire message.
                comm.isend(dest, len(idx), words=1, tag=tag_base)
                comm.isend(dest, idx, words=len(idx), tag=tag_base)
        counts = yield from waitall(count_reqs)
        index_reqs = []
        sources = [src for src in range(nprocs) if src != p.rank]
        for src, count in zip(sources, counts):
            if count:
                index_reqs.append((src, comm.irecv(src, tag_base)))
        served: list[tuple[int, np.ndarray]] = []
        for src, req in index_reqs:
            idx = yield from req.wait()
            served.append((src, np.asarray(idx, dtype=np.int64)))
    served.sort(key=lambda pair: pair[0])
    expected = [(dest, idx.tobytes()) for dest, idx in local.send_to]
    if [(src, idx.tobytes()) for src, idx in served] != expected:
        raise DistributionError(
            f"rank {p.rank}: inspector exchange disagrees with the offline "
            "schedule — indirection arrays changed between build and run"
        )
    return local


# -- the executor -------------------------------------------------------
def gather_ghosts(
    p: Proc,
    local: RankSchedule,
    x_loc: np.ndarray,
    tag_base: int = GATHER_TAG,
    aggregate_words: int = 0,
) -> Generator:
    """Replay one gather sweep; returns the rank's ghost value buffer.

    Zero re-analysis: the pack/unpack vectors were precomputed by the
    inspector.  One message per neighbor pair, ``len(indices)`` words
    each, under the ``sparse-gather`` scope — so a run's measured scope
    words equal ``iterations * schedule.gather_words`` exactly.
    """
    ghosts = np.empty(len(local.ghosts), dtype=np.float64)
    if not local.recv_from and not local.send_to:
        return ghosts
    with p.scoped("sparse-gather"):
        comm = NBComm(p, aggregate_words=aggregate_words)
        reqs = [(src, pos, comm.irecv(src, tag_base)) for (src, _), (_, pos)
                in zip(local.recv_from, local.unpack)]
        for (dest, _), (_, pos) in zip(local.send_to, local.pack):
            payload = np.ascontiguousarray(x_loc[pos])
            comm.isend(dest, payload, words=len(pos), tag=tag_base)
        for _src, pos, req in reqs:
            values = yield from req.wait()
            ghosts[pos] = values
    return ghosts


def spmv_local(
    local: RankSchedule,
    data_loc: np.ndarray,
    x_loc: np.ndarray,
    ghosts: np.ndarray,
) -> np.ndarray:
    """Owner-computes rows: ``y_loc = A_loc @ concat(x_loc, ghosts)``.

    Per-row summation is unbuffered in CSR order — the same order as
    :func:`repro.sparse.csr.spmv_reference` — so the distributed result
    is bit-identical to the single-rank reference.
    """
    xcat = np.concatenate([x_loc, ghosts]) if len(ghosts) else np.asarray(
        x_loc, dtype=np.float64
    )
    y = np.zeros(local.rows)
    np.add.at(y, local.local_rows, data_loc * xcat[local.local_cols])
    return y


def stamp_sparse(
    metrics,
    schedule: CommSchedule,
    *,
    iterations: int,
    schedule_builds: int = 0,
    schedule_reuses: int = 0,
    inspector_runs: int = 0,
) -> None:
    """Fold one sparse run into ``Metrics.sparse`` (rank 0 stamps).

    Mirrors how the compile service stamps ``Metrics.service``: pure
    counters, rendered by :meth:`repro.machine.metrics.Metrics.sparse_table`
    and on their own Perfetto lane by
    :func:`repro.machine.export.sparse_lane_events`.
    """
    metrics.sparse.update(
        {
            "iterations": int(iterations),
            "gather_words_per_iter": schedule.gather_words,
            "gather_messages_per_iter": schedule.gather_messages,
            "inspector_words": schedule.inspector_words * int(inspector_runs),
            "inspector_runs": int(inspector_runs),
            "schedule_builds": int(schedule_builds),
            "schedule_reuses": int(schedule_reuses),
        }
    )
    # Sparse drivers stamp metrics after the engine returns, so runs
    # launched outside Plan.run still pick up the installed trace
    # context (harmless re-stamp of the same keys otherwise).
    stamp_current(metrics)
