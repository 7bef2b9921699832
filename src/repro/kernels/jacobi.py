"""SPMD Jacobi kernels for the three grid shapes of Table 2 and §4.

All kernels take the *full* problem (A, b, x0) on every rank and slice
their local blocks — the paper treats the initial layout as given, so no
distribution cost is charged.  Simulated time is charged for every flop
(via ``p.compute``) and every message.

* :func:`jacobi_rowdist` — grid ``(N, 1)``: the §4 DP scheme (Table 3
  layout).  Per iteration: local GEMV (``2 m^2/N`` flops), local update
  (``3 m/N``), then an allgather of the new X blocks
  (ManyToManyMulticast, the paper's ``CTime2 = m tc``).
* :func:`jacobi_coldist` — grid ``(1, N)``: §3's computation-optimal but
  communication-heavy scheme.  Per iteration: local partial GEMV, an
  allreduce of V (Reduction + OneToManyMulticast = ``2 m log N tc``),
  local update of the owned X block.
* :func:`jacobi_grid2d` — grid ``(sqrt N, sqrt N)``: 2-D blocks; row
  reduction of partials to diagonal blocks, X update there, column
  broadcast of the new X blocks.
"""

from __future__ import annotations

from collections.abc import Generator

import numpy as np

from repro.errors import MachineError
from repro.machine.collectives import Transport, allgather, allreduce, bcast, reduce
from repro.machine.engine import Proc
from repro.machine.resilient import NO_CHECKPOINTS, CheckpointHooks


def _row_block(m: int, nprocs: int, rank: int) -> tuple[int, int]:
    """Contiguous block bounds [lo, hi) of ``floor((i-1)/ceil(m/N))``."""
    size = -(-m // nprocs)
    lo = min(rank * size, m)
    hi = min(lo + size, m)
    return lo, hi


def _allgather_vector(
    p: Proc, block: np.ndarray, group: tuple[int, ...], **options
) -> Generator:
    """ManyToManyMulticast of the ranks' vector blocks, joined in group order.

    *options* are :func:`allgather`'s ``tag`` and ``transport``.
    """
    blocks = yield from allgather(p, block, group, **options)
    return np.concatenate([np.atleast_1d(blk) for blk in blocks])


def _rowdist_setup(p: Proc, A: np.ndarray, b: np.ndarray, x0: np.ndarray) -> tuple:
    """Table 3 layout: replicated X, the group, and this rank's local step.

    ``step(x)`` charges the local GEMV and update of one sweep and
    returns the new local X block and the correction it added.
    """
    m = len(b)
    n = p.nprocs
    lo, hi = _row_block(m, n, p.rank)
    A_loc = np.ascontiguousarray(A[lo:hi, :])
    b_loc = b[lo:hi].copy()
    diag_loc = np.diag(A)[lo:hi].copy()
    rows = hi - lo

    def step(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        v_loc = A_loc @ x
        p.compute(2 * rows * m, label="gemv")
        delta = (b_loc - v_loc) / diag_loc
        x_loc = x[lo:hi] + delta
        p.compute(3 * rows, label="update")
        return x_loc, delta

    return np.array(x0, dtype=np.float64), tuple(range(n)), step


def _rowdist_sweeps(
    p: Proc,
    A: np.ndarray,
    b: np.ndarray,
    x0: np.ndarray,
    iterations: int,
    tx: Transport | None = None,
    checkpoints: CheckpointHooks = NO_CHECKPOINTS,
) -> Generator:
    """Fixed-count row-block Jacobi over *tx*; X is the checkpointed state."""
    x, group, step = _rowdist_setup(p, A, b, x0)
    restore, save = checkpoints
    start, state = restore(p)
    if state is not None:
        x = np.asarray(state)
    for it in range(start, iterations):
        x_loc, _ = step(x)
        x = yield from _allgather_vector(p, x_loc, group, transport=tx)
        save(p, it + 1, iterations, x)
    return x


def jacobi_rowdist(
    p: Proc,
    A: np.ndarray,
    b: np.ndarray,
    x0: np.ndarray,
    iterations: int,
) -> Generator:
    """Row-block Jacobi on a linear array of ``nprocs`` (§4 / Table 3)."""
    return _rowdist_sweeps(p, A, b, x0, iterations)


def jacobi_rowdist_adaptive(
    p: Proc,
    A: np.ndarray,
    b: np.ndarray,
    x0: np.ndarray,
    tol: float,
    max_iterations: int,
) -> Generator:
    """Row-block Jacobi with a convergence test — §1's iterative shape.

    The paper's introduction describes the canonical iterative loop as
    "(1) parallel computation step; (2) reduction step; (3) updating
    step".  This kernel makes the reduction step explicit: after each
    sweep, the squared residual-update norm is combined with an
    Allreduce and every processor stops at the same iteration.

    Returns ``(x, iterations_used)``.
    """
    x, group, step = _rowdist_setup(p, A, b, x0)
    used = 0
    for it in range(max_iterations):
        x_loc, delta = step(x)  # (1) parallel computation step
        local_sq = float(delta @ delta)
        p.compute(2 * len(delta), label="norm")
        total_sq = yield from allreduce(p, local_sq, group)  # (2) reduction
        x = yield from _allgather_vector(p, x_loc, group)  # (3) updating step
        used = it + 1
        if total_sq**0.5 <= tol:
            break
    return x, used


#: Tag of the systolic ring traffic.
_TAG_RING = 70


def _jacobi_ring(
    p: Proc,
    A: np.ndarray,
    b: np.ndarray,
    x0: np.ndarray,
    iterations: int,
    tx: Transport,
) -> Generator:
    """Row-block Jacobi with the X blocks circulated on a ring over *tx*.

    Unlike :func:`jacobi_rowdist` (allgather per iteration), X stays
    distributed: each iteration performs ``N`` systolic steps in post ->
    compute -> complete order — post the next block's receive, send the
    block in hand one hop right, accumulate ``A[:, blk] @ x_blk``,
    complete the receive.  Blocks are visited in ring order ``me, me-1,
    ..., me-N+1`` whatever the transport, so results are bit-identical.
    """
    m = len(b)
    n = p.nprocs
    if m % n != 0:
        raise MachineError(f"ring Jacobi needs N | m, got m={m}, N={n}")
    lo, hi = _row_block(m, n, p.rank)
    A_loc = np.ascontiguousarray(A[lo:hi, :])
    b_loc = b[lo:hi].copy()
    diag_loc = np.diag(A)[lo:hi].copy()
    x_loc = np.array(x0[lo:hi], dtype=np.float64)
    rows = hi - lo
    right = (p.rank + 1) % n
    left = (p.rank - 1) % n
    for _ in range(iterations):
        v = np.zeros(rows)
        cur = x_loc
        cur_owner = p.rank
        for s in range(n):
            incoming = None
            if n > 1 and s < n - 1:
                incoming = tx.post_recv(p, left, tag=_TAG_RING)
                yield from tx.send(p, right, cur, tag=_TAG_RING)
            blo, bhi = _row_block(m, n, cur_owner)
            v += A_loc[:, blo:bhi] @ cur
            p.compute(2 * rows * (bhi - blo), label="gemv-block")
            if incoming is not None:
                cur = yield from tx.complete(p, incoming)
                cur_owner = (cur_owner - 1) % n
        x_loc = x_loc + (b_loc - v) / diag_loc
        p.compute(3 * rows, label="update")
    return x_loc


def jacobi_coldist(
    p: Proc,
    A: np.ndarray,
    b: np.ndarray,
    x0: np.ndarray,
    iterations: int,
) -> Generator:
    """Column-block Jacobi on grid ``(1, N)`` (§3, Table 2 row 1)."""
    m = len(b)
    n = p.nprocs
    lo, hi = _row_block(m, n, p.rank)  # same block arithmetic, on columns
    A_loc = np.ascontiguousarray(A[:, lo:hi])
    b_loc = b[lo:hi].copy()
    diag_loc = np.diag(A)[lo:hi].copy()
    x_loc = np.array(x0[lo:hi], dtype=np.float64)
    group = tuple(range(n))
    cols = hi - lo

    for _ in range(iterations):
        partial = A_loc @ x_loc
        p.compute(2 * m * cols, label="partial-gemv")
        v = yield from allreduce(p, partial, group)
        x_loc = x_loc + (b_loc - v[lo:hi]) / diag_loc
        p.compute(3 * cols, label="update")
    return (yield from _allgather_vector(p, x_loc, group))


def jacobi_grid2d(
    p: Proc,
    A: np.ndarray,
    b: np.ndarray,
    x0: np.ndarray,
    iterations: int,
    shape: tuple[int, int],
) -> Generator:
    """2-D block Jacobi on an ``n1 x n2`` grid (Table 2 row 3).

    Rank layout is row-major over *shape*.  Per iteration:

    1. local partial GEMV on the ``(m/n1) x (m/n2)`` block;
    2. Reduction of partials across each grid row to its column-0
       processor (``Reduction(m/n1, n2)``);
    3. X-block update there (``3 m/n1`` flops);
    4. ManyToManyMulticast of the new blocks within grid column 0, then
       OneToManyMulticast of the full X along each grid row — the
       loop-carried redistribution of X, mirroring the paper's
       ``N1 x OneToManyMulticast`` + multicast terms for this grid.

    Returns the full X vector on every rank.
    """
    n1, n2 = shape
    if n1 * n2 != p.nprocs:
        raise MachineError(f"grid {shape} does not match {p.nprocs} processors")
    m = len(b)
    p1, p2 = divmod(p.rank, n2)
    rlo, rhi = _row_block(m, n1, p1)
    clo, chi = _row_block(m, n2, p2)
    A_loc = np.ascontiguousarray(A[rlo:rhi, clo:chi])
    rows = rhi - rlo
    cols = chi - clo
    x = np.array(x0, dtype=np.float64)

    row_group = tuple(p1 * n2 + q for q in range(n2))
    col0_group = tuple(q * n2 for q in range(n1))
    row_root = p1 * n2  # column-0 processor of this grid row
    b_loc = b[rlo:rhi].copy()
    diag_loc = np.diag(A)[rlo:rhi].copy()

    for _ in range(iterations):
        partial = A_loc @ x[clo:chi]
        p.compute(2 * rows * cols, label="partial-gemv")
        v = yield from reduce(p, partial, root=row_root, group=row_group)
        if p.rank == row_root:
            x_blk = x[rlo:rhi] + (b_loc - v) / diag_loc
            p.compute(3 * rows, label="update")
            x = yield from _allgather_vector(p, x_blk, col0_group)
            x = yield from bcast(p, x, root=row_root, group=row_group)
        else:
            x = yield from bcast(p, None, root=row_root, group=row_group)
    return x
