"""Fault-tolerant entry points of the iterative kernels (Jacobi, SOR, CG).

Policy only: each entry point runs the plain kernel's own body
(:mod:`repro.kernels.jacobi`, :mod:`repro.kernels.sor`,
:mod:`repro.kernels.cg`) over a
:class:`repro.machine.resilient.ReliableTransport` (acked, retransmitted
point-to-point transfers) and hands it the checkpoint hook pair built
here, which layers this protocol on the iteration loop:

* at kernel start, every rank asks the shared
  :class:`repro.machine.resilient.CheckpointStore` for the newest step
  *all* ranks have saved and, if one exists, restores its state from it
  and resumes the loop there — this is how a program restarted by
  :func:`repro.machine.resilient.run_resilient` after an injected crash
  avoids recomputing from scratch;
* every ``interval`` iterations, right after the sweep's closing
  collective (so ranks are causally within one interval of each other),
  each rank saves its state.

Checkpoint reads happen before any rank's first save of a run (a save
sits behind a collective every rank has entered after reading), so all
ranks always restore the *same* step: the protocol is consistent on both
engine backends without any extra synchronization.

Under a crash-free fault plan the reliable transport delivers exactly
the plain kernel's payload sequence (see ``docs/RESILIENCE.md``), so
these kernels return results bit-identical to their plain counterparts
— the determinism contract the property tests pin down.
"""

from __future__ import annotations

from collections.abc import Generator

import numpy as np

from repro.errors import MachineError
from repro.kernels.cg import _dense_cg
from repro.kernels.jacobi import _rowdist_sweeps
from repro.kernels.sor import _sor_gathered
from repro.machine.engine import Proc
from repro.machine.resilient import (
    NO_CHECKPOINTS,
    CheckpointHooks,
    CheckpointStore,
    ReliableTransport,
    RetryPolicy,
)


def _checkpoint_hooks(store: CheckpointStore | None, interval: int) -> CheckpointHooks:
    """The ``(restore, save)`` pair that layers the protocol on a body.

    ``restore(p)`` loads the newest step all ranks have saved;
    ``save(p, step, total, state)`` checkpoints after iteration *step*
    when *interval* says so.  Without a *store* nothing is kept (and
    *interval* is not looked at).
    """
    if store is None:
        return NO_CHECKPOINTS
    if interval < 1:
        raise MachineError(f"checkpoint interval must be >= 1, got {interval}")

    def restore(p: Proc) -> tuple[int, object]:
        step = store.latest_common_step()
        if step is None:
            return 0, None
        state = store.load(p.rank, step)
        p.mark("restore")
        return step, state

    def save(p: Proc, step: int, total: int, state: object) -> None:
        if step % interval != 0 or step >= total:
            return
        store.save(p.rank, step, state)
        p.mark("checkpoint")

    return restore, save


def resilient_jacobi(
    p: Proc,
    A: np.ndarray,
    b: np.ndarray,
    x0: np.ndarray,
    iterations: int,
    checkpoints: CheckpointStore | None = None,
    interval: int = 2,
    policy: RetryPolicy | None = None,
) -> Generator:
    """Row-block Jacobi over reliable transfers with checkpoint/restart.

    :func:`repro.kernels.jacobi.jacobi_rowdist`'s body under the
    reliable transport; checkpoints the full X vector every *interval*
    iterations (X is replicated after the allgather, so it is the
    complete loop-carried state).
    """
    tx = ReliableTransport(policy)
    hooks = _checkpoint_hooks(checkpoints, interval)
    return _rowdist_sweeps(p, A, b, x0, iterations, tx, hooks)


def resilient_sor(
    p: Proc,
    A: np.ndarray,
    b: np.ndarray,
    x0: np.ndarray,
    omega: float,
    iterations: int,
    checkpoints: CheckpointStore | None = None,
    interval: int = 1,
    policy: RetryPolicy | None = None,
) -> Generator:
    """Pipelined SOR (Fig 6 ring schedule) over reliable transfers.

    Checkpoints this rank's X block between sweeps.  One full sweep
    keeps the ring causally coupled, so the drift between ranks is below
    one sweep and any ``interval >= 1`` yields consistent restore
    points.
    """
    tx = ReliableTransport(policy)
    hooks = _checkpoint_hooks(checkpoints, interval)
    return _sor_gathered(p, A, b, x0, omega, iterations, tx, hooks)


def resilient_cg(
    p: Proc,
    A: np.ndarray,
    b: np.ndarray,
    tol: float = 1e-12,
    max_iterations: int | None = None,
    checkpoints: CheckpointStore | None = None,
    interval: int = 2,
    policy: RetryPolicy | None = None,
) -> Generator:
    """Row-block CG over reliable transfers with checkpoint/restart.

    The loop-carried state is ``(x_loc, r_loc, d_loc, rs, used)``; it is
    checkpointed after the iteration's closing allreduce.  Returns
    ``(x, iterations)`` like :func:`repro.kernels.cg.cg_parallel`.
    """
    tx = ReliableTransport(policy)
    hooks = _checkpoint_hooks(checkpoints, interval)
    return _dense_cg(p, A, b, tol, max_iterations, tx, hooks)
