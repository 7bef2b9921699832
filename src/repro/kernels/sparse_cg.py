"""Conjugate gradient on the distributed sparse operator.

The dense :mod:`repro.kernels.cg` re-replicates the full search
direction with an allgather every iteration — O(n) words per rank per
sweep regardless of structure.  Here the matvec goes through the
inspector/executor path instead: each rank gathers only its **halo**
(``schedule.gather_words`` words total per sweep), which is the entire
point of compiling the indirection structure.

Bit-identity contract: a row-partitioned CG cannot reproduce the plain
``r @ r`` of a sequential solver (numpy's dot uses pairwise summation
over the full vector, which does not factor over blocks).  So the
sequential reference :func:`sparse_cg_seq` takes a ``blocks`` parameter:
it computes every inner product as per-block ``np.dot`` partials summed
left to right.  ``blocks=1`` is ordinary CG; ``blocks=P`` is the exact
arithmetic the parallel solver performs (each rank's partial is a local
``np.dot``, allgathered, summed in rank order on every rank) — and the
parallel solver on *P* ranks matches ``sparse_cg_seq(..., blocks=P)``
**bit for bit**, on both engines.  The matvec itself is bit-identical to
the unblocked reference (rows are never split), so ``blocks`` only
perturbs inner products — both references converge to the same answer
within normal CG tolerance, and the tests pin both facts.
"""

from __future__ import annotations

from collections.abc import Generator

import numpy as np

from repro.errors import ReproError
from repro.kernels.cg import _cg_recurrence
from repro.kernels.jacobi import _allgather_vector
from repro.kernels.spmv import _acquire_schedule, _stamp_run
from repro.machine.collectives import allgather
from repro.machine.engine import Proc
from repro.pipeline.inspector import CommSchedule, gather_ghosts, spmv_local
from repro.sparse.csr import CSRMatrix, spmv_reference


def _block_bounds(n: int, blocks: int) -> list[tuple[int, int]]:
    size = -(-n // blocks)
    return [(min(b * size, n), min((b + 1) * size, n)) for b in range(blocks)]


def _blocked_dot(u: np.ndarray, v: np.ndarray, bounds) -> float:
    """Per-block ``np.dot`` partials summed left to right.

    The scalar arithmetic of a distributed inner product: partial dots
    in rank order, accumulated sequentially — reproducible bitwise by
    summing an allgathered partial list the same way.
    """
    acc = 0.0
    for lo, hi in bounds:
        acc += float(np.dot(u[lo:hi], v[lo:hi]))
    return acc


def sparse_cg_seq(
    csr: CSRMatrix,
    b: np.ndarray,
    tol: float = 1e-12,
    max_iterations: int | None = None,
    blocks: int = 1,
) -> tuple[np.ndarray, int]:
    """Single-rank sparse CG reference.

    ``blocks=P`` makes every inner product use the P-rank distributed
    summation order, so the parallel solver on *P* ranks is bit-identical
    to this function; ``blocks=1`` is the ordinary sequential solver.
    """
    n = csr.nrows
    if csr.ncols != n:
        raise ReproError(f"CG needs a square matrix, got {n}x{csr.ncols}")
    b = np.asarray(b, dtype=np.float64)
    max_iterations = max_iterations or 2 * n
    bounds = _block_bounds(n, blocks)
    x = np.zeros(n)
    r = b.copy()
    d = r.copy()
    rs = _blocked_dot(r, r, bounds)
    used = 0
    for _ in range(max_iterations):
        if rs**0.5 <= tol:
            break
        Ad = spmv_reference(csr, d)
        denom = _blocked_dot(d, Ad, bounds)
        if denom <= 0:
            raise ReproError("matrix is not positive definite")
        alpha = rs / denom
        x += alpha * d
        r -= alpha * Ad
        rs_new = _blocked_dot(r, r, bounds)
        d = r + (rs_new / rs) * d
        rs = rs_new
        used += 1
    return x, used


def sparse_cg_parallel(
    p: Proc,
    csr: CSRMatrix,
    b: np.ndarray,
    tol: float = 1e-12,
    max_iterations: int | None = None,
    schedule: CommSchedule | None = None,
    aggregate_words: int = 0,
) -> Generator:
    """Distributed sparse CG; returns ``(x, iterations)`` on every rank.

    :func:`repro.kernels.cg._cg_recurrence` on the CSR operator: the
    search direction's halo is gathered through the schedule each
    iteration (``sparse-gather`` scope); inner products allgather scalar
    partials (tags 930-932) and sum them in rank order, matching
    ``sparse_cg_seq(..., blocks=p.nprocs)`` bit for bit.
    """
    n = csr.nrows
    if csr.ncols != n:
        raise ReproError(f"CG needs a square matrix, got {n}x{csr.ncols}")
    _, schedule, local, counters = yield from _acquire_schedule(p, csr, schedule)
    group = tuple(range(p.nprocs))
    rows = local.rows
    data_loc = csr.data[
        csr.pattern.indptr[local.row_lo] : csr.pattern.indptr[local.row_hi]
    ]

    def matvec(d_loc):
        ghosts = yield from gather_ghosts(
            p, local, d_loc, aggregate_words=aggregate_words
        )
        Ad_loc = spmv_local(local, data_loc, d_loc, ghosts)
        p.compute(2 * len(data_loc), label="spmv")
        return Ad_loc

    def ordered_dot(u_loc, v_loc, k):
        local_partial = float(np.dot(u_loc, v_loc))
        p.compute(2 * rows, label="dot")
        partials = yield from allgather(p, local_partial, group, tag=930 + k)
        acc = 0.0
        for partial in partials:
            acc += float(partial)
        return acc

    b_loc = np.asarray(b, dtype=np.float64)[local.row_lo : local.row_hi]
    x_loc, used = yield from _cg_recurrence(
        p, b_loc, matvec, ordered_dot, tol, max_iterations or 2 * n
    )
    x = yield from _allgather_vector(p, x_loc, group, tag=933)
    _stamp_run(p, schedule, used, counters)
    return x, used
