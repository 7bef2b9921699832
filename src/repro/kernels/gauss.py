"""SPMD Gauss elimination kernels (paper §6).

Layout per §6: cyclic row distribution on a ring,
``f(i) = (i - 1) mod N`` for the rows of A/L and the elements of B, V, X
— cyclic because the triangular iteration space would leave contiguous
blocks badly imbalanced.

* :func:`gauss_broadcast` — what "a naive compiler" generates: for every
  pivot ``k`` the owner OneToManyMulticasts the pivot row and ``B(k)``;
  in back substitution every ``X(j)`` is multicast too.

* :func:`gauss_pipelined` — the Fig 8 program: every multicast is
  replaced by a neighbor Shift justified by the dependence information of
  Table 5 (all tokens map to dot-product 0 or 1 under the index-processor
  mapping ``i -> PE (i-1) mod N``).  Pivot rows travel rightward around
  the ring, X values leftward, and processors overlap their update work
  with the propagation — software pipelining.

Both kernels return the solution vector on every rank and agree with
:func:`repro.kernels.linalg.gauss_seq` to roundoff.
"""

from __future__ import annotations

from collections.abc import Generator

import numpy as np

from repro.machine.collectives import allreduce, bcast
from repro.machine.engine import Proc


def _row_setup(p: Proc, A: np.ndarray, b: np.ndarray, distribution: str):
    """Local row set under cyclic or contiguous-block distribution.

    The paper chooses *cyclic* (``f(i) = (i-1) mod N``) "because the index
    space includes an oblique pyramid and a triangle" — contiguous blocks
    leave low-rank processors idle once their rows are eliminated.  The
    block option exists for the ablation that demonstrates this.
    """
    m = len(b)
    n = p.nprocs
    if distribution == "cyclic":
        mine = np.arange(p.rank, m, n)
    elif distribution == "block":
        size = -(-m // n)
        mine = np.arange(min(p.rank * size, m), min((p.rank + 1) * size, m))
    else:
        raise ValueError(f"distribution must be cyclic|block, got {distribution!r}")
    A_loc = np.ascontiguousarray(A[mine, :]).astype(np.float64)
    b_loc = b[mine].astype(np.float64).copy()
    return m, n, mine, A_loc, b_loc


def _owner_of(k: int, m: int, n: int, distribution: str) -> int:
    if distribution == "cyclic":
        return k % n
    size = -(-m // n)
    return k // size


def _multicast(p: Proc, tag: int):
    """Propagation by OneToManyMulticast from the owner over the whole ring."""
    group = tuple(range(p.nprocs))
    return lambda owner, value: bcast(p, value, root=owner, group=group, tag=tag)


def _ring_shift(p: Proc, step: int, tag: int):
    """Propagation by neighbor Shift: the value leaves its owner toward
    ``rank + step``, every processor forwards it *before* using it (so the
    successor starts while we update), and it dies at the owner's other
    neighbor, having visited every processor exactly once."""
    n = p.nprocs
    ahead, behind = (p.rank + step) % n, (p.rank - step) % n

    def spread(owner: int, value):
        if n > 1:
            if p.rank != owner:
                value = yield from p.recv(behind, tag=tag)
            if ahead != owner:
                p.send(ahead, value, tag=tag)
        return value

    return spread


def _eliminate(p: Proc, A_loc, b_loc, mine, k: int, owner: int, spread) -> Generator:
    """One pivot step: row ``k`` and ``B(k)`` reach everyone through
    *spread*, then the local rows below ``k`` are updated."""
    m = A_loc.shape[1]
    packet = None
    if p.rank == owner:
        li = int(np.searchsorted(mine, k))  # local index of global row k
        packet = (A_loc[li, k:].copy(), float(b_loc[li]))
    pivot_row, pivot_b = yield from spread(owner, packet)
    below = mine > k
    if below.any():
        rows = np.nonzero(below)[0]
        ell = A_loc[rows, k] / pivot_row[0]
        b_loc[rows] -= ell * pivot_b
        A_loc[np.ix_(rows, range(k, m))] -= np.outer(ell, pivot_row)
        p.compute(len(rows) * (2 * (m - k) + 3), label=f"elim k={k + 1}")


def _back_substitute(p: Proc, A_loc, b_loc, mine, distribution: str, spread) -> Generator:
    """Solve the triangular system bottom-up; every ``X(j)`` reaches
    everyone through *spread* and updates the partial sums ``V`` above it."""
    m, n = A_loc.shape[1], p.nprocs
    x = np.zeros(m)
    v_loc = np.zeros(len(mine))
    for j in range(m - 1, -1, -1):
        owner = _owner_of(j, m, n, distribution)
        xj = None
        if p.rank == owner:
            lj = int(np.searchsorted(mine, j))
            xj = float((b_loc[lj] - v_loc[lj]) / A_loc[lj, j])
            p.compute(2, label=f"X({j + 1})")
        xj = yield from spread(owner, xj)
        x[j] = xj
        above = mine < j
        if above.any():
            rows = np.nonzero(above)[0]
            v_loc[rows] += A_loc[rows, j] * xj
            p.compute(2 * len(rows), label=f"V update j={j + 1}")
    return x


def gauss_broadcast(
    p: Proc, A: np.ndarray, b: np.ndarray, distribution: str = "cyclic"
) -> Generator:
    """Naive Gauss elimination: OneToManyMulticast per pivot (§6)."""
    m, n, mine, A_loc, b_loc = _row_setup(p, A, b, distribution)
    spread = _multicast(p, tag=101)
    for k in range(m):
        yield from _eliminate(
            p, A_loc, b_loc, mine, k, _owner_of(k, m, n, distribution), spread
        )
    return (yield from _back_substitute(p, A_loc, b_loc, mine, distribution, spread))


def gauss_pivoted(
    p: Proc, A: np.ndarray, b: np.ndarray, distribution: str = "cyclic"
) -> Generator:
    """Gauss elimination with partial pivoting — an extension.

    The paper's algorithm does not pivot (its kernels are diagonally
    dominant).  This variant adds the standard parallel partial pivoting:
    at every step an Allreduce picks the global maximum-magnitude
    candidate in the pivot column, the owning processors swap rows, and
    the pivot row is multicast.  Note the structural consequence: pivot
    *selection* is a global synchronization per step, so the §6 Shift
    pipeline no longer applies — pivoting and pipelining are at odds,
    which is why the paper's method targets the pivot-free kernels.
    """
    m, n, mine, A_loc, b_loc = _row_setup(p, A, b, distribution)
    group = tuple(range(n))

    def best_pair(x, y):
        return x if (x[0], -x[1]) >= (y[0], -y[1]) else y

    def swap_with(slot: int, other_row: int):
        """Trade the row in local *slot* with *other_row*'s remote owner."""
        other = _owner_of(other_row, m, n, distribution)
        p.send(other, (A_loc[slot, :].copy(), float(b_loc[slot])), tag=74)
        A_loc[slot, :], b_loc[slot] = yield from p.recv(other, tag=74)

    spread = _multicast(p, tag=75)
    for k in range(m):
        # 1. global pivot search over rows >= k (tie: smallest index).
        cand_rows = np.nonzero(mine >= k)[0]
        if len(cand_rows):
            vals = np.abs(A_loc[cand_rows, k])
            p.compute(len(cand_rows), label=f"pivot scan k={k + 1}")
            best_local = int(cand_rows[np.argmax(vals)])
            local_best = (float(vals.max()), int(mine[best_local]))
        else:
            local_best = (-1.0, m)
        best_val, pivot_row = yield from allreduce(
            p, local_best, group, op=best_pair, tag=73
        )
        if best_val == 0.0:
            raise ZeroDivisionError(f"matrix is singular at step {k + 1}")

        # 2. swap rows k and pivot_row (locally, or by an explicit
        #    exchange when they live on different processors).
        slot_k = np.nonzero(mine == k)[0]
        slot_p = np.nonzero(mine == pivot_row)[0]
        if pivot_row != k:
            if len(slot_k) and len(slot_p):
                i1, i2 = int(slot_k[0]), int(slot_p[0])
                A_loc[[i1, i2], :] = A_loc[[i2, i1], :]
                b_loc[[i1, i2]] = b_loc[[i2, i1]]
            elif len(slot_k):
                yield from swap_with(int(slot_k[0]), pivot_row)
            elif len(slot_p):
                yield from swap_with(int(slot_p[0]), k)

        # 3. multicast the pivot row and eliminate below.
        yield from _eliminate(
            p, A_loc, b_loc, mine, k, _owner_of(k, m, n, distribution), spread
        )
    return (
        yield from _back_substitute(
            p, A_loc, b_loc, mine, distribution, _multicast(p, tag=76)
        )
    )


def gauss_pipelined(
    p: Proc, A: np.ndarray, b: np.ndarray, distribution: str = "cyclic"
) -> Generator:
    """Pipelined Gauss elimination — the generated program of Fig 8.

    Pivot packets shift rightward; each processor receives a packet,
    forwards it immediately (send before update, so the successor can
    start while we eliminate), then updates its local rows.  The packet
    dies at the owner's left neighbor, having visited every other
    processor exactly once.  Back substitution shifts X values leftward
    the same way.
    """
    m, n, mine, A_loc, b_loc = _row_setup(p, A, b, distribution)
    rightward = _ring_shift(p, +1, tag=70)
    for k in range(m):
        yield from _eliminate(
            p, A_loc, b_loc, mine, k, _owner_of(k, m, n, distribution), rightward
        )
    return (
        yield from _back_substitute(
            p, A_loc, b_loc, mine, distribution, _ring_shift(p, -1, tag=71)
        )
    )
