"""SPMD SOR kernels (paper §5).

Both kernels use the §5 layout (Table 4): the ``j``-th *column* of A and
the ``j``-th elements of B and X live on the block owner of ``j``; the V
accumulator is transient.

* :func:`sor_naive` — the paper's naive schedule: for every row ``i``,
  each processor computes a partial inner product over its column block,
  a Reduction combines them, and the owner of ``X(i)`` updates it.  Per
  iteration: ``(2 m^2/N + 4 m) tf + ~m (log N + 1) tc``.

* :func:`sor_pipelined` — the Fig 5/Fig 6 software pipeline on a ring:
  row ``i``'s partial sum is started by the owner of ``X(i)`` (columns
  ``j >= i`` of its block, still-old values), circulates the ring where
  every processor adds its column-block contribution with its *current*
  X values, and returns to the owner, which adds the contributions of
  already-updated in-block elements and updates ``X(i)``.  The pipeline
  timing makes the Gauss-Seidel update order exact, and the per-iteration
  time drops to ``<= (m + N)(2 (m/N) tf + 2 tc)``.

Numerically both equal the §5 listing, run by
:func:`repro.lang.interp.interpret`, to roundoff.
"""

from __future__ import annotations

from collections.abc import Generator

import numpy as np

from repro.errors import MachineError
from repro.machine.collectives import PLAIN_TRANSPORT, Transport, reduce
from repro.machine.engine import Proc
from repro.machine.resilient import NO_CHECKPOINTS, CheckpointHooks
from repro.kernels.jacobi import _allgather_vector, _row_block


def sor_naive(
    p: Proc,
    A: np.ndarray,
    b: np.ndarray,
    x0: np.ndarray,
    omega: float,
    iterations: int,
) -> Generator:
    """Naive SOR: Reduction + owner update per row (§5's first schedule)."""
    m = len(b)
    n = p.nprocs
    lo, hi = _row_block(m, n, p.rank)
    A_loc = np.ascontiguousarray(A[:, lo:hi])
    b_loc = b[lo:hi].copy()
    diag = np.diag(A).copy()
    x_loc = np.array(x0[lo:hi], dtype=np.float64)
    group = tuple(range(n))
    cols = hi - lo

    def owner(i: int) -> int:
        size = -(-m // n)
        return i // size

    for _ in range(iterations):
        for i in range(m):
            partial = float(A_loc[i, :] @ x_loc)
            p.compute(2 * cols, label=f"partial V({i + 1})")
            # Reduction to rank 0 (binomial root), then Transfer to the
            # owner of X(i) — the paper's Reduction(1, N) + Transfer(1).
            total = yield from reduce(p, partial, root=0, group=group)
            own = owner(i)
            if p.rank == 0 and own != 0:
                p.send(own, total, tag=50)
            if p.rank == own:
                if own != 0:
                    total = yield from p.recv(0, tag=50)
                x_loc[i - lo] += omega * (b_loc[i - lo] - total) / diag[i]
                p.compute(4, label=f"update X({i + 1})")
    return (yield from _allgather_vector(p, x_loc, group))


def _sor_ring(
    p: Proc,
    A: np.ndarray,
    b: np.ndarray,
    x0: np.ndarray,
    omega: float,
    iterations: int,
    tx: Transport,
    checkpoints: CheckpointHooks = NO_CHECKPOINTS,
) -> Generator:
    """Table 4 setup plus *iterations* Fig 6 sweeps over *tx*.

    Each sweep runs in post -> compute -> complete order: a hop's
    incoming partial sum is posted before the local partial product is
    computed — free under the plain and reliable transports (the
    blocking schedule), hidden behind the ``2 m/N`` multiply-adds under
    a posted one.  Returns this rank's X block, which is also the state
    checkpointed between sweeps.
    """
    m = len(b)
    n = p.nprocs
    if m % n != 0:
        raise MachineError(f"pipelined SOR needs N | m, got m={m}, N={n}")
    block = m // n
    before = p.rank * block
    right = (p.rank + 1) % n
    left = (p.rank - 1) % n
    tag = 60

    # Table 4 layout: my column block of A, my elements of B and X.
    A_loc = np.ascontiguousarray(A[:, before : before + block])
    b_loc = b[before : before + block].copy()
    diag_loc = np.diag(A)[before : before + block].copy()
    x_loc = np.array(x0[before : before + block], dtype=np.float64)

    def sweep() -> Generator:
        """One pipelined Gauss-Seidel sweep (Fig 6 body); mutates ``x_loc``."""
        if n == 1:
            # Degenerate ring: plain sequential sweep.
            for ii in range(block):
                v = float(A_loc[ii, :] @ x_loc)
                p.compute(2 * block + 4, label=f"row {ii + 1}")
                x_loc[ii] += omega * (b_loc[ii] - v) / diag_loc[ii]
            return
        with p.scoped("sor-pipeline"):
            # Phase 1 (Fig 6 lines 7-15): rows owned by earlier processors.
            # Their partials arrive from the left; my X block is still old,
            # which is exactly what rows i < before need from columns j > i.
            for i in range(before):
                incoming = tx.post_recv(p, left, tag=tag)
                temp = float(A_loc[i, :] @ x_loc)
                p.compute(2 * block, label=f"row {i + 1} partial")
                v = yield from tx.complete(p, incoming)
                v += temp
                yield from tx.send(p, right, v, tag=tag)
            # Phase 2 (lines 16-23): start my own rows with columns j >= i.
            for ii in range(block):
                cur = before + ii
                v_start = float(A_loc[cur, ii:] @ x_loc[ii:])
                p.compute(2 * (block - ii), label=f"row {cur + 1} start")
                yield from tx.send(p, right, v_start, tag=tag)
            # Phase 3 (lines 24-34): my rows come back around the ring;
            # add contributions of already-updated in-block predecessors,
            # then update X.
            for ii in range(block):
                cur = before + ii
                incoming = tx.post_recv(p, left, tag=tag)
                temp = float(A_loc[cur, :ii] @ x_loc[:ii])
                p.compute(2 * ii, label=f"row {cur + 1} finish")
                v = yield from tx.complete(p, incoming)
                v += temp
                x_loc[ii] += omega * (b_loc[ii] - v) / diag_loc[ii]
                p.compute(4, label=f"X({cur + 1})")
            # Phase 4 (lines 35-43): rows owned by later processors; my X
            # block is now new, which rows i > before+block need (j < i).
            for i in range(before + block, m):
                incoming = tx.post_recv(p, left, tag=tag)
                temp = float(A_loc[i, :] @ x_loc)
                p.compute(2 * block, label=f"row {i + 1} partial")
                v = yield from tx.complete(p, incoming)
                v += temp
                yield from tx.send(p, right, v, tag=tag)

    restore, save = checkpoints
    start, state = restore(p)
    if state is not None:
        x_loc = np.asarray(state)
    for it in range(start, iterations):
        yield from sweep()
        save(p, it + 1, iterations, x_loc)
    return x_loc


def _sor_gathered(
    p: Proc,
    A: np.ndarray,
    b: np.ndarray,
    x0: np.ndarray,
    omega: float,
    iterations: int,
    tx: Transport,
    checkpoints: CheckpointHooks = NO_CHECKPOINTS,
) -> Generator:
    """:func:`_sor_ring`, then the full X assembled on every rank over *tx*."""
    x_loc = yield from _sor_ring(p, A, b, x0, omega, iterations, tx, checkpoints)
    group = tuple(range(p.nprocs))
    return (yield from _allgather_vector(p, x_loc, group, transport=tx))


def sor_pipelined(
    p: Proc,
    A: np.ndarray,
    b: np.ndarray,
    x0: np.ndarray,
    omega: float,
    iterations: int,
    transport: Transport | None = None,
) -> Generator:
    """Pipelined SOR on a ring — the generated program of Fig 6.

    Requires ``m`` divisible by the processor count (as the paper's
    ``block = m/N`` does).
    """
    return _sor_gathered(p, A, b, x0, omega, iterations, transport or PLAIN_TRANSPORT)
