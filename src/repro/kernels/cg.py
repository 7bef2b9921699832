"""Parallel conjugate gradient — the reduction-heavy iterative kernel.

The paper's taxonomy (§1) casts scientific iterative loops as parallel
computation + reduction + update.  Conjugate gradient is the extreme
case: *two inner products per iteration* (Allreduce each) on top of the
distributed matvec, which is why CG became the canonical bandwidth/latency
benchmark for exactly the machines the paper targets.  Included as a
fourth solver validating the machine and collective layers on a kernel
the paper does not cover.

Layout: row blocks of A with matching vector blocks (the §4 Jacobi
layout); the search direction ``d`` is re-replicated for the matvec by an
allgather, the inner products by Allreduce.
"""

from __future__ import annotations

from collections.abc import Callable, Generator

import numpy as np

from repro.errors import ReproError
from repro.machine.collectives import Transport, allreduce
from repro.machine.engine import Proc
from repro.machine.resilient import NO_CHECKPOINTS, CheckpointHooks
from repro.kernels.jacobi import _allgather_vector, _row_block


def cg_seq(
    A: np.ndarray, b: np.ndarray, tol: float = 1e-12, max_iterations: int | None = None
) -> tuple[np.ndarray, int]:
    """Sequential CG reference; A must be symmetric positive definite."""
    m = len(b)
    max_iterations = max_iterations or 2 * m
    x = np.zeros(m)
    r = b.copy()
    d = r.copy()
    rs = float(r @ r)
    used = 0
    for _ in range(max_iterations):
        if rs**0.5 <= tol:
            break
        Ad = A @ d
        denom = float(d @ Ad)
        if denom <= 0:
            raise ReproError("matrix is not positive definite")
        alpha = rs / denom
        x += alpha * d
        r -= alpha * Ad
        rs_new = float(r @ r)
        d = r + (rs_new / rs) * d
        rs = rs_new
        used += 1
    return x, used


def _cg_recurrence(
    p: Proc,
    b_loc: np.ndarray,
    matvec: Callable[[np.ndarray], Generator],
    dot: Callable[[np.ndarray, np.ndarray, int], Generator],
    tol: float,
    max_iterations: int,
    checkpoints: CheckpointHooks = NO_CHECKPOINTS,
) -> Generator:
    """The distributed CG recurrence on one rank's block; ``(x_loc, used)``.

    The operator plugs in as two generators: ``matvec(d_loc)`` gives
    this rank's rows of ``A d``, ``dot(u_loc, v_loc, k)`` the global
    inner product (``k`` = 0 initial ``r.r``, 1 ``d.Ad``, 2 new ``r.r``
    — each operator keeps its own tags).  The checkpointed state is
    ``(x_loc, r_loc, d_loc, rs, used)``.
    """
    rows = len(b_loc)
    restore, save = checkpoints
    start, state = restore(p)
    if state is not None:
        x_loc, r_loc, d_loc, rs, used = state
    else:
        x_loc = np.zeros(rows)
        r_loc = b_loc.copy()
        d_loc = r_loc.copy()
        rs = yield from dot(r_loc, r_loc, 0)
        used = 0
    for it in range(start, max_iterations):
        if rs**0.5 <= tol:
            break
        Ad_loc = yield from matvec(d_loc)
        denom = yield from dot(d_loc, Ad_loc, 1)
        if denom <= 0:
            raise ReproError("matrix is not positive definite")
        alpha = rs / denom
        x_loc += alpha * d_loc
        r_loc -= alpha * Ad_loc
        p.compute(4 * rows, label="axpy")
        rs_new = yield from dot(r_loc, r_loc, 2)
        d_loc = r_loc + (rs_new / rs) * d_loc
        p.compute(2 * rows, label="update d")
        rs = rs_new
        used += 1
        save(p, it + 1, max_iterations, (x_loc, r_loc, d_loc, rs, used))
    return x_loc, used


def _dense_cg(
    p: Proc,
    A: np.ndarray,
    b: np.ndarray,
    tol: float,
    max_iterations: int | None,
    tx: Transport | None = None,
    checkpoints: CheckpointHooks = NO_CHECKPOINTS,
) -> Generator:
    """Row-block CG on the dense operator over *tx*.

    Matvec: allgather of the search direction (tag 141); inner products:
    Allreduce (tags 140, 142, 143); solution assembled on tag 144.
    """
    m = len(b)
    n = p.nprocs
    lo, hi = _row_block(m, n, p.rank)
    rows = hi - lo
    A_loc = np.ascontiguousarray(np.asarray(A, dtype=np.float64)[lo:hi, :])
    group = tuple(range(n))

    def matvec(d_loc):
        d_full = yield from _allgather_vector(p, d_loc, group, tag=141, transport=tx)
        Ad_loc = A_loc @ d_full
        p.compute(2 * rows * m, label="matvec")
        return Ad_loc

    def dot(u_loc, v_loc, k):
        local = float(u_loc @ v_loc)
        p.compute(2 * rows, label="dot")
        tag = (140, 142, 143)[k]
        return (yield from allreduce(p, local, group, tag=tag, transport=tx))

    b_loc = np.asarray(b, dtype=np.float64)[lo:hi]
    x_loc, used = yield from _cg_recurrence(
        p, b_loc, matvec, dot, tol, max_iterations or 2 * m, checkpoints
    )
    x = yield from _allgather_vector(p, x_loc, group, tag=144, transport=tx)
    return x, used


def cg_parallel(
    p: Proc,
    A: np.ndarray,
    b: np.ndarray,
    tol: float = 1e-12,
    max_iterations: int | None = None,
) -> Generator:
    """Row-block parallel CG; returns ``(x, iterations)`` on every rank."""
    return _dense_cg(p, A, b, tol, max_iterations)
