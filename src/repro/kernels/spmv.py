"""Distributed CSR sparse matrix–vector product (inspector/executor).

Owner-computes on the row partition: each rank stores its CSR row block
and the conformal operand block, gathers its halo through the
precomputed :class:`~repro.pipeline.inspector.CommSchedule`, and applies
its rows locally.  Because rows are never split and the local kernel
sums nonzeros in CSR order, the assembled result is **bit-identical** to
the single-rank :func:`~repro.sparse.csr.spmv_reference` — no tolerance
anywhere in the sparse test suite.

``spmv_parallel(iterations=k)`` replays the executor *k* times against
the same schedule, which is what the inspector-amortization band
measures: analysis cost is paid once, communication per sweep is exactly
``schedule.gather_words``.
"""

from __future__ import annotations

from collections.abc import Generator

import numpy as np

from repro.distribution.sparse import SparsePlacement
from repro.errors import DistributionError
from repro.kernels.jacobi import _allgather_vector
from repro.machine.engine import Proc
from repro.pipeline.inspector import (
    GATHER_TAG,
    CommSchedule,
    build_comm_schedule,
    gather_ghosts,
    inspector_exchange,
    spmv_local,
    stamp_sparse,
)
from repro.sparse.csr import CSRMatrix, spmv_reference


def spmv_seq(csr: CSRMatrix, x: np.ndarray) -> np.ndarray:
    """Sequential oracle — alias of :func:`repro.sparse.csr.spmv_reference`."""
    return spmv_reference(csr, x)


def _acquire_schedule(
    p: Proc, csr: CSRMatrix, schedule: CommSchedule | None
) -> Generator:
    """Settle the run's schedule: ``(placement, schedule, local, counters)``.

    Without a *schedule* the inspector runs once on-machine and the
    schedule is built; a supplied one is replayed after checking it was
    built for this rank count and this very pattern (a foreign one
    otherwise dies deep in the engine or in NumPy broadcasting).
    *counters* are the :func:`stamp_sparse` keywords of the run.
    """
    placement = SparsePlacement(csr.pattern, p.nprocs)
    if schedule is None:
        local = yield from inspector_exchange(p, placement)
        schedule = build_comm_schedule(placement)
        counters = {"schedule_builds": 1, "inspector_runs": 1}
    else:
        pat = csr.pattern
        built_for = (schedule.nprocs, schedule.nrows, schedule.ncols, schedule.digest)
        if built_for != (p.nprocs, pat.nrows, pat.ncols, placement.digest):
            raise DistributionError(
                f"schedule {schedule.digest} was built for a "
                f"{schedule.nrows}x{schedule.ncols} pattern on "
                f"{schedule.nprocs} ranks; this {pat.nrows}x{pat.ncols} "
                f"pattern on {p.nprocs} ranks has digest {placement.digest}"
            )
        local = schedule.rank_schedule(p.rank)
        counters = {"schedule_reuses": 1, "inspector_runs": 0}
    return placement, schedule, local, counters


def _stamp_run(
    p: Proc, schedule: CommSchedule, iterations: int, counters: dict
) -> None:
    """Rank 0 folds the finished run into ``Metrics.sparse``."""
    if p.rank == 0:
        stamp_sparse(p._engine.metrics, schedule, iterations=iterations, **counters)


def spmv_parallel(
    p: Proc,
    csr: CSRMatrix,
    x: np.ndarray,
    schedule: CommSchedule | None = None,
    iterations: int = 1,
    aggregate_words: int = 0,
    reinspect_every_iteration: bool = False,
) -> Generator:
    """Row-partitioned SpMV; returns the full ``y = A @ x`` on every rank.

    With *schedule* supplied (e.g. from a warm
    :func:`~repro.pipeline.inspector.cached_comm_schedule`) the inspector
    does not run at all — the executor replays the precomputed gather.
    Without one, the inspector runs **once** on-machine
    (:func:`inspector_exchange`) and the schedule is reused for every
    subsequent iteration.  ``reinspect_every_iteration=True`` is the
    deliberately naive strawman the X13 amortization bench compares
    against: it re-derives the schedule before every sweep, the way an
    uncompiled irregular loop would.
    """
    placement, schedule, local, counters = yield from _acquire_schedule(
        p, csr, schedule
    )
    x = np.asarray(x, dtype=np.float64)
    x_loc = x[local.col_lo : local.col_hi]
    data_loc = csr.data[
        csr.pattern.indptr[local.row_lo] : csr.pattern.indptr[local.row_hi]
    ]
    y_loc = np.zeros(local.rows)
    for _ in range(max(1, iterations)):
        if reinspect_every_iteration:
            local = yield from inspector_exchange(p, placement)
            counters["inspector_runs"] += 1
        ghosts = yield from gather_ghosts(
            p, local, x_loc, aggregate_words=aggregate_words
        )
        y_loc = spmv_local(local, data_loc, x_loc, ghosts)
        p.compute(2 * len(data_loc), label="spmv")
    group = tuple(range(p.nprocs))
    y = yield from _allgather_vector(p, y_loc, group, tag=GATHER_TAG + 10)
    _stamp_run(p, schedule, max(1, iterations), counters)
    return y
