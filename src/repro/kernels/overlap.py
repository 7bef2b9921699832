"""Kernels run with communication/computation overlap (§5).

Each overlapped kernel performs the identical floating-point operations
in the identical order as its blocking counterpart, so the pair is
bit-identical numerically and differs only in communication structure:

* :func:`heat_stencil_blocking` / :func:`heat_stencil_overlap` — 1-D
  three-point heat sweep, block-distributed with one-element halos.
  The overlapped one posts its halo ``irecv``/``isend`` first, updates
  the *interior* (which needs no halo) while the transfers fly, then
  waits and updates the two boundary elements.  The compute structure
  differs (one sweep against interior + boundary), so these stay two
  functions.
* :func:`jacobi_ring_blocking` / :func:`jacobi_ring_overlap` — Jacobi
  with the X vector block-distributed and circulated around a ring
  (systolic GEMV).  One body, :func:`repro.kernels.jacobi._jacobi_ring`,
  under the plain and the posted transport: the overlapped run's
  per-block GEMV hides the block transfer.
* :func:`sor_pipelined_overlap` — the Fig 6 SOR ring pipeline
  (:func:`repro.kernels.sor._sor_ring`) under the posted transport:
  each incoming partial sum is posted before the local partial-product
  computation, hiding each hop's wire time behind the ``2 m/N`` flops
  of the local contribution.  Numerically identical to
  :func:`repro.kernels.sor.sor_pipelined`.

Timing contract (the ``report.py --overlap`` reconciliation): a posted
transfer costs ``alpha`` at each endpoint with the full ``alpha + w tc``
on the wire — exactly the ``overlap=True`` split of the machine model —
so running the *blocking* kernel on ``replace(model, overlap=True)``
predicts the overlapped one's makespan (exactly for the ring Jacobi,
whose runs have identical event sequences; within a documented band
for the stencil, whose interior/boundary split reorders compute).
"""

from __future__ import annotations

from collections.abc import Generator

import numpy as np

from repro.errors import MachineError
from repro.kernels.jacobi import _jacobi_ring
from repro.kernels.sor import _sor_ring
from repro.machine.collectives import PLAIN_TRANSPORT
from repro.machine.engine import Proc
from repro.machine.nonblocking import NBComm, PostedTransport

#: Tags of the halo exchange (left-going / right-going).
_TAG_TO_LEFT = 90
_TAG_TO_RIGHT = 91


def _heat_update(pad: np.ndarray, coeff: float, j0: int, j1: int) -> np.ndarray:
    """New values of local elements ``[j0, j1)`` of a 1-halo pad.

    One vectorized expression shared by both kernels and by both the
    interior and boundary slices of the overlapped one — NumPy
    elementwise ops are elementwise-identical under slicing, which is
    what makes the pair bit-identical.
    """
    center = pad[1 + j0 : 1 + j1]
    left = pad[j0 : j1]
    right = pad[2 + j0 : 2 + j1]
    return coeff * (left + right) + (1.0 - 2.0 * coeff) * center


#: Flops per updated element of :func:`_heat_update` (add, mul, mul, add).
_HEAT_FLOPS = 4


def _heat_setup(p: Proc, u0: np.ndarray) -> tuple:
    m = len(u0)
    n = p.nprocs
    if m % n != 0:
        raise MachineError(f"heat stencil needs N | m, got m={m}, N={n}")
    cnt = m // n
    if n > 1 and cnt < 2:
        raise MachineError(
            f"heat stencil needs blocks of >= 2 elements, got m/N={cnt}"
        )
    lo = p.rank * cnt
    pad = np.zeros(cnt + 2)
    pad[1 : 1 + cnt] = np.asarray(u0, dtype=np.float64)[lo : lo + cnt]
    left = p.rank - 1 if p.rank > 0 else None
    right = p.rank + 1 if p.rank < n - 1 else None
    # Dirichlet ends: global elements 0 and m-1 are never updated.
    j0 = 1 if left is None else 0
    j1 = cnt - 1 if right is None else cnt
    return cnt, pad, left, right, j0, j1


def heat_stencil_blocking(
    p: Proc, u0: np.ndarray, steps: int, coeff: float = 0.25
) -> Generator:
    """Three-point heat sweep, blocking halo exchange (the reference)."""
    cnt, pad, left, right, j0, j1 = _heat_setup(p, u0)
    for _ in range(steps):
        if left is not None:
            p.send(left, pad[1], words=1, tag=_TAG_TO_LEFT)
        if right is not None:
            p.send(right, pad[cnt], words=1, tag=_TAG_TO_RIGHT)
        if left is not None:
            pad[0] = yield from p.recv(left, tag=_TAG_TO_RIGHT)
        if right is not None:
            pad[cnt + 1] = yield from p.recv(right, tag=_TAG_TO_LEFT)
        new = _heat_update(pad, coeff, j0, j1)
        p.compute(_HEAT_FLOPS * (j1 - j0), label="sweep")
        pad[1 + j0 : 1 + j1] = new
    return pad[1 : 1 + cnt].copy()


def heat_stencil_overlap(
    p: Proc, u0: np.ndarray, steps: int, coeff: float = 0.25
) -> Generator:
    """Three-point heat sweep with halo transfers hidden behind the interior.

    Per step: post ``irecv`` for both halos, ``isend`` both boundary
    elements, update the interior (no halo needed), ``wait`` the
    receives, then update the one boundary element per side.
    """
    cnt, pad, left, right, j0, j1 = _heat_setup(p, u0)
    comm = NBComm(p)
    for _ in range(steps):
        rl = comm.irecv(left, tag=_TAG_TO_RIGHT) if left is not None else None
        rr = comm.irecv(right, tag=_TAG_TO_LEFT) if right is not None else None
        if left is not None:
            comm.isend(left, pad[1], words=1, tag=_TAG_TO_LEFT)
        if right is not None:
            comm.isend(right, pad[cnt], words=1, tag=_TAG_TO_RIGHT)
        # Interior: local elements whose 3-point window stays inside the
        # block.  Element j reads pad[j] .. pad[j+2], so j >= 1 avoids
        # the left halo and j <= cnt - 2 avoids the right one.
        i0 = max(j0, 1)
        i1 = min(j1, cnt - 1)
        interior = _heat_update(pad, coeff, i0, i1)
        p.compute(_HEAT_FLOPS * (i1 - i0), label="interior")
        if rl is not None:
            pad[0] = yield from rl.wait()
        if rr is not None:
            pad[cnt + 1] = yield from rr.wait()
        edges = []
        if j0 < i0:  # left boundary element (needs the left halo)
            edges.append((j0, _heat_update(pad, coeff, j0, i0)))
        if i1 < j1:  # right boundary element (needs the right halo)
            edges.append((i1, _heat_update(pad, coeff, i1, j1)))
        pad[1 + i0 : 1 + i1] = interior
        for jb, vals in edges:
            pad[1 + jb : 1 + jb + len(vals)] = vals
        if edges:
            p.compute(
                _HEAT_FLOPS * sum(len(vals) for _, vals in edges),
                label="boundary",
            )
    return pad[1 : 1 + cnt].copy()


def jacobi_ring_blocking(
    p: Proc, A: np.ndarray, b: np.ndarray, x0: np.ndarray, iterations: int
) -> Generator:
    """Ring Jacobi over the plain transport (the blocking reference)."""
    return _jacobi_ring(p, A, b, x0, iterations, PLAIN_TRANSPORT)


def jacobi_ring_overlap(
    p: Proc, A: np.ndarray, b: np.ndarray, x0: np.ndarray, iterations: int
) -> Generator:
    """Ring Jacobi with each block transfer hidden behind its GEMV."""
    return _jacobi_ring(p, A, b, x0, iterations, PostedTransport(p))


def sor_pipelined_overlap(
    p: Proc,
    A: np.ndarray,
    b: np.ndarray,
    x0: np.ndarray,
    omega: float,
    iterations: int,
) -> Generator:
    """Fig 6 pipelined SOR with pre-posted ring receives.

    The four-phase ring schedule of
    :func:`repro.kernels.sor._sor_ring` under the posted
    transport: each hop's incoming partial sum is ``irecv``-ed *before*
    the local partial product is computed, so the hop's wire time hides
    behind the ``2 m/N`` multiply-adds, and the outgoing sum is posted
    rather than injected synchronously.  Returns this rank's X block.
    """
    return _sor_ring(p, A, b, x0, omega, iterations, PostedTransport(p))
