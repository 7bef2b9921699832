"""2-D distribution functions (paper §2.1, Case 2).

The paper generalizes prior work by allowing the two dimensions of a 2-D
distribution to be *dependent*::

    f_A(i, j) = (z1, z2)                               independent
    f_A(i, j) = (z1, (d1*z1 + d2*z2) mod N_map(A2))    A2 rotated by A1
    f_A(i, j) = ((d1*z1 + d2*z2) mod N_map(A1), z2)    A1 rotated by A2

where ``z1``/``z2`` come from 1-D distribution functions and
``d1, d2 in {-1, +1}``.  Rotation expresses Cannon-style skewed layouts
(Fig 1 (b), (c)) that an independent-per-dimension model cannot.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.errors import DistributionError
from repro.distribution.function import Dist1D


class Coupling(enum.Enum):
    INDEPENDENT = "independent"
    ROTATE_DIM2 = "rotate-dim2"  # second coordinate skewed by the first
    ROTATE_DIM1 = "rotate-dim1"  # first coordinate skewed by the second


@dataclass(frozen=True)
class Dist2D:
    """Distribution of a 2-D array ``A(i, j)``, ``1 <= i, j <= extents``."""

    rows: Dist1D
    cols: Dist1D
    coupling: Coupling = Coupling.INDEPENDENT
    d1: int = 1
    d2: int = 1

    def __post_init__(self) -> None:
        if self.d1 not in (1, -1) or self.d2 not in (1, -1):
            raise DistributionError("rotation signs d1, d2 must be +-1")
        if self.coupling is not Coupling.INDEPENDENT:
            if self.rows.is_replicated or self.cols.is_replicated:
                raise DistributionError("rotated distributions require both dims partitioned")

    # -- constructors ----------------------------------------------------
    @staticmethod
    def block_block(m: int, n: int, n1: int, n2: int) -> "Dist2D":
        """Fig 1 (a): independent contiguous blocks on an n1 x n2 grid."""
        return Dist2D(
            rows=Dist1D.block_dist(m, n1, grid_dim=1),
            cols=Dist1D.block_dist(n, n2, grid_dim=2),
        )

    @staticmethod
    def row_blocks(m: int, n: int, n1: int) -> "Dist2D":
        """Fig 1 (d): rows partitioned on dim 1, columns replicated."""
        return Dist2D(
            rows=Dist1D.block_dist(m, n1, grid_dim=1),
            cols=Dist1D.replicated(n),
        )

    @staticmethod
    def col_blocks(m: int, n: int, n2: int) -> "Dist2D":
        """Columns partitioned on dim 2, rows replicated (SOR layout)."""
        return Dist2D(
            rows=Dist1D.replicated(m),
            cols=Dist1D.block_dist(n, n2, grid_dim=2),
        )

    @property
    def n1(self) -> int:
        return 1 if self.rows.is_replicated else self.rows.nprocs

    @property
    def n2(self) -> int:
        return 1 if self.cols.is_replicated else self.cols.nprocs

    @property
    def extents(self) -> tuple[int, int]:
        return (self.rows.extent, self.cols.extent)

    # -- the distribution function ----------------------------------------
    def owner(self, i: int, j: int) -> tuple[int | None, int | None]:
        """``f_A(i, j)``: (grid-dim-1, grid-dim-2) coordinates of A(i, j)."""
        z1 = self.rows.owner(i)
        z2 = self.cols.owner(j)
        if self.coupling is Coupling.INDEPENDENT:
            return (z1, z2)
        assert z1 is not None and z2 is not None
        mix = self.d1 * z1 + self.d2 * z2
        if self.coupling is Coupling.ROTATE_DIM2:
            return (z1, mix % self.cols.nprocs)
        return (mix % self.rows.nprocs, z2)

    @cached_property
    def owner_grids(self) -> tuple[np.ndarray, np.ndarray]:
        """(P1, P2) integer grids over the full array (-1 = replicated)."""
        m, n = self.extents
        z1 = self.rows.owners()[:, None] * np.ones((1, n), dtype=np.int64)
        z2 = np.ones((m, 1), dtype=np.int64) * self.cols.owners()[None, :]
        if self.coupling is Coupling.INDEPENDENT:
            return (z1, z2)
        mix = self.d1 * z1 + self.d2 * z2
        if self.coupling is Coupling.ROTATE_DIM2:
            return (z1, np.mod(mix, self.cols.nprocs))
        return (np.mod(mix, self.rows.nprocs), z2)

    def indices_of(self, p1: int, p2: int) -> list[tuple[int, int]]:
        """All (i, j) subscript pairs stored at processor (p1, p2)."""
        g1, g2 = self.owner_grids
        mask = np.ones(g1.shape, dtype=bool)
        if not self.rows.is_replicated or self.coupling is not Coupling.INDEPENDENT:
            mask &= (g1 == p1) | (g1 == -1)
        if not self.cols.is_replicated or self.coupling is not Coupling.INDEPENDENT:
            mask &= (g2 == p2) | (g2 == -1)
        ii, jj = np.nonzero(mask)
        return [(int(i) + 1, int(j) + 1) for i, j in zip(ii, jj)]

    def local_count(self, p1: int, p2: int) -> int:
        return len(self.indices_of(p1, p2))

    def is_partition(self) -> bool:
        """True when every element has exactly one owner (no replication)."""
        return not (self.rows.is_replicated or self.cols.is_replicated)

    def __str__(self) -> str:
        base = f"rows[{self.rows}] x cols[{self.cols}]"
        if self.coupling is Coupling.INDEPENDENT:
            return base
        return f"{base}, {self.coupling.value}(d1={self.d1:+d}, d2={self.d2:+d})"


def cannon_a_layout(n: int, p: int) -> Dist2D:
    """The initially-skewed layout of A in Cannon's algorithm (Fig 1 (b)).

    Block row ``z1`` is rotated left by ``z1`` positions:
    ``f(i, j) = (z1, (z2 - z1) mod p)`` — stored *at* processor
    ``(z1, (z2 - z1) mod p)`` so the paper's form with ``d1 = d2 = -1``
    applied to the *home* coordinate gives the same picture read as "which
    block sits on processor column c".
    """
    return Dist2D(
        rows=Dist1D.block_dist(n, p, grid_dim=1),
        cols=Dist1D.block_dist(n, p, grid_dim=2),
        coupling=Coupling.ROTATE_DIM2,
        d1=-1,
        d2=1,
    )


def cannon_b_layout(n: int, p: int) -> Dist2D:
    """The initially-skewed layout of B in Cannon: column-wise rotation.

    ``f(i, j) = ((z1 - z2) mod p, z2)`` — block column ``z2`` rotated up by
    ``z2`` positions (Fig 1 (c) mirror).
    """
    return Dist2D(
        rows=Dist1D.block_dist(n, p, grid_dim=1),
        cols=Dist1D.block_dist(n, p, grid_dim=2),
        coupling=Coupling.ROTATE_DIM1,
        d1=1,
        d2=-1,
    )
