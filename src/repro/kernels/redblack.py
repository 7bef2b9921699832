"""Red-black SOR for the 2-D Poisson problem — the reordering alternative.

§5 parallelizes a Gauss-Seidel-type recurrence by *pipelining* it.  When
the operator is a local stencil there is a second classic route the
HPF-era compilers knew: *reorder* the sweep red-black, making each
half-sweep fully parallel (every red point depends only on black
neighbors and vice versa), at the price of a different — usually slightly
slower — convergence trajectory.  This kernel provides that comparison
point for the pipelining discussion.

The problem: ``-laplace(u) = f`` on an ``(m+2) x (m+2)`` grid with
Dirichlet boundary, solved by SOR with relaxation ``omega``:

    u[i,j] += omega/4 * (u[i-1,j] + u[i+1,j] + u[i,j-1] + u[i,j+1]
                         + h^2 f[i,j] - 4 u[i,j])

Distribution: interior row blocks on a linear array; each half-sweep
exchanges one halo row per direction (Shift), so a full sweep costs
``4 m`` halo words total versus the dense pipeline's circulating sums.
"""

from __future__ import annotations

from collections.abc import Generator

import numpy as np

from repro.errors import MachineError
from repro.machine.collectives import allgather
from repro.machine.engine import Proc


def redblack_sor_seq(
    f: np.ndarray, omega: float, sweeps: int, u0: np.ndarray | None = None
) -> np.ndarray:
    """Sequential red-black SOR reference (grid includes the boundary)."""
    mp2 = f.shape[0]
    u = np.zeros_like(f) if u0 is None else u0.copy()
    h2 = 1.0 / (mp2 - 1) ** 2
    ii, jj = np.meshgrid(np.arange(mp2), np.arange(mp2), indexing="ij")
    interior = (ii > 0) & (ii < mp2 - 1) & (jj > 0) & (jj < mp2 - 1)
    for _ in range(sweeps):
        for color in (0, 1):
            mask = interior & (((ii + jj) % 2) == color)
            residual = (
                np.roll(u, 1, axis=0)
                + np.roll(u, -1, axis=0)
                + np.roll(u, 1, axis=1)
                + np.roll(u, -1, axis=1)
                + h2 * f
                - 4.0 * u
            )
            u[mask] += (omega / 4.0) * residual[mask]
    return u


def redblack_sor(
    p: Proc,
    f: np.ndarray,
    omega: float,
    sweeps: int,
) -> Generator:
    """Parallel red-black SOR on a linear array of row blocks.

    Returns the full grid on every rank.  Interior rows (1..m) must
    divide evenly by the processor count.
    """
    mp2 = f.shape[0]
    m = mp2 - 2  # interior rows
    n = p.nprocs
    if m % n != 0:
        raise MachineError(f"red-black SOR needs N | m, got m={m}, N={n}")
    cnt = m // n
    lo = 1 + p.rank * cnt  # first interior row owned (global index)
    up = (p.rank - 1) % n
    down = (p.rank + 1) % n

    h2 = 1.0 / (mp2 - 1) ** 2
    # Local pad: one halo row above and below the owned rows.
    u_pad = np.zeros((cnt + 2, mp2))
    f_loc = np.asarray(f, dtype=np.float64)[lo : lo + cnt, :]
    ii = (np.arange(lo, lo + cnt))[:, None]
    jj = np.arange(mp2)[None, :]
    colors = (ii + jj) % 2
    interior_cols = (jj > 0) & (jj < mp2 - 1)

    for _ in range(sweeps):
        for color in (0, 1):
            if n > 1:
                # Halo exchange: owned boundary rows to both neighbors.
                if p.rank > 0:
                    p.send(up, u_pad[1, :].copy(), tag=130)
                if p.rank < n - 1:
                    p.send(down, u_pad[cnt, :].copy(), tag=131)
                if p.rank < n - 1:
                    u_pad[cnt + 1, :] = yield from p.recv(down, tag=130)
                if p.rank > 0:
                    u_pad[0, :] = yield from p.recv(up, tag=131)
            body = u_pad[1 : cnt + 1, :]
            residual = (
                u_pad[0:cnt, :]
                + u_pad[2 : cnt + 2, :]
                + np.roll(body, 1, axis=1)
                + np.roll(body, -1, axis=1)
                + h2 * f_loc
                - 4.0 * body
            )
            mask = (colors == color) & interior_cols
            body[mask] += (omega / 4.0) * residual[mask]
            p.compute(7 * int(mask.sum()), label=f"half sweep color {color}")

    blocks = yield from allgather(p, u_pad[1 : cnt + 1, :].copy(), tuple(range(n)))
    full = np.zeros((mp2, mp2))
    full[1 : mp2 - 1, :] = np.vstack(blocks)
    return full
