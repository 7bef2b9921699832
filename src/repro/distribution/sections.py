"""Local-section enumeration: which elements each rank holds under a placement.

The executable redistribution runtime (:mod:`repro.distribution.runtime`)
needs the *extensional* meaning of an :class:`ArrayPlacement` on a concrete
``(N1, N2)`` grid: for every rank, the exact set of array elements stored
there.  This module derives it from the paper's distribution functions:

* an array dimension mapped to grid dimension ``g`` constrains the rank's
  coordinate along ``g`` to the :class:`~repro.distribution.function.Dist1D`
  owner of the subscript (block or cyclic:
  :func:`~repro.distribution.schemes.dim_distribution`, the rule
  :meth:`~repro.distribution.schemes.Scheme.materialize` builds with);
* an *unmapped* array dimension is never split — every holder stores the
  full extent along it;
* a grid dimension used by no array dimension is governed by ``rest``:
  ``"replicated"`` places a copy at every coordinate, ``"fixed"`` pins the
  single copy at coordinate 0 (the placement's *home* position).

Ranks are row-major over the grid, ``rank = p1 * N2 + p2``, matching
:class:`repro.machine.topology.Grid2D`.  Sections are reported as sorted
0-based **flat** indices in C order, so a rank's local values of a global
array ``a`` are ``a.reshape(-1)[local_indices(...)]``.
"""

from __future__ import annotations

from functools import lru_cache
from math import prod

import numpy as np

from repro.distribution.schemes import ArrayPlacement, dim_distribution
from repro.errors import DistributionError
from repro.machine.topology import Grid2D


def grid_coords(rank: int, grid: tuple[int, int]) -> tuple[int, int]:
    """Grid coordinates ``(p1, p2)`` of *rank* (row-major, like Grid2D)."""
    n1, n2 = grid
    if not (0 <= rank < n1 * n2):
        raise DistributionError(f"rank {rank} outside grid {n1}x{n2}")
    return divmod(rank, n2)


def groups_along(grid: tuple[int, int], g: int) -> list[tuple[int, ...]]:
    """All rank groups that vary only along grid dimension *g*, in order.

    The topology's own definition (:meth:`~repro.machine.topology.Grid2D.
    dim_group`): for ``g == 1`` a group is one grid column (``col_ranks``,
    ``p2`` fixed), for ``g == 2`` one grid row (``row_ranks``).
    """
    if g not in (1, 2):
        raise DistributionError(f"grid dimension must be 1 or 2, got {g}")
    topology = Grid2D(*grid)
    if g == 1:
        return [topology.col_ranks(p2) for p2 in range(topology.n2)]
    return [topology.row_ranks(p1) for p1 in range(topology.n1)]


def _owner_vectors(
    placement: ArrayPlacement, extents: tuple[int, ...], grid: tuple[int, int]
) -> tuple[np.ndarray, ...]:
    """Per-dimension owner vectors (−1 where the dimension is unsplit)."""
    out = []
    for d, extent in enumerate(extents):
        dist = dim_distribution(placement, d, extent, grid)
        out.append(dist.owners())
    return tuple(out)


@lru_cache(maxsize=512)
def _section_table_cached(
    placement: ArrayPlacement, extents: tuple[int, ...], grid: tuple[int, int]
) -> tuple[np.ndarray, ...]:
    if len(extents) != placement.rank:
        raise DistributionError(
            f"{placement.array}: placement rank {placement.rank} but extents {extents}"
        )
    if placement.rank not in (1, 2):
        raise DistributionError(
            f"{placement.array}: only rank 1 and 2 arrays supported, got {placement.rank}"
        )
    n1, n2 = grid
    owners = _owner_vectors(placement, extents, grid)
    used = placement.grid_dims()
    sections: list[np.ndarray] = []
    for rank in range(n1 * n2):
        coords = grid_coords(rank, grid)
        # A grid dimension used by no array dimension is governed by `rest`:
        # fixed pins the copy at coordinate 0 of that dimension.
        empty = False
        for g in (1, 2):
            if g in used or grid[g - 1] <= 1:
                continue
            if placement.rest == "fixed" and coords[g - 1] != 0:
                empty = True
        if empty:
            sections.append(np.empty(0, dtype=np.int64))
            continue
        masks = []
        for d in range(placement.rank):
            g = placement.dim_map[d]
            if g is None:
                masks.append(np.ones(extents[d], dtype=bool))
            else:
                masks.append(owners[d] == coords[g - 1])
        if placement.rank == 1:
            flat = np.flatnonzero(masks[0])
        else:
            flat = np.flatnonzero(np.outer(masks[0], masks[1]).reshape(-1))
        sections.append(flat.astype(np.int64))
    return tuple(sections)


def section_table(
    placement: ArrayPlacement, extents: tuple[int, ...], grid: tuple[int, int]
) -> tuple[np.ndarray, ...]:
    """Per-rank local sections: sorted flat indices, one array per rank.

    The returned arrays are shared and cached — treat them as read-only.
    """
    return _section_table_cached(placement, tuple(extents), tuple(grid))


def local_indices(
    placement: ArrayPlacement,
    extents: tuple[int, ...],
    grid: tuple[int, int],
    rank: int,
) -> np.ndarray:
    """Sorted flat global indices stored at *rank* under *placement*."""
    return section_table(placement, extents, grid)[rank]


def pack_section(
    values: np.ndarray,
    placement: ArrayPlacement,
    extents: tuple[int, ...],
    grid: tuple[int, int],
    rank: int,
) -> np.ndarray:
    """Local values of *rank*: the global array filtered to its section."""
    flat = np.asarray(values, dtype=np.float64).reshape(-1)
    if flat.size != prod(extents):
        raise DistributionError(
            f"{placement.array}: array has {flat.size} elements, extents say {prod(extents)}"
        )
    return flat[local_indices(placement, extents, grid, rank)]


def assemble(
    sections: dict[int, np.ndarray],
    placement: ArrayPlacement,
    extents: tuple[int, ...],
    grid: tuple[int, int],
) -> np.ndarray:
    """Rebuild the full (flat) global array from per-rank local values.

    Raises :class:`DistributionError` when the sections do not cover the
    array (a partition must; a fixed placement needs every holder present).
    """
    total = prod(extents)
    out = np.zeros(total, dtype=np.float64)
    have = np.zeros(total, dtype=bool)
    table = section_table(placement, extents, grid)
    for rank, local in sections.items():
        idx = table[rank]
        if len(local) != len(idx):
            raise DistributionError(
                f"{placement.array}: rank {rank} supplied {len(local)} values "
                f"for a section of {len(idx)}"
            )
        out[idx] = local
        have[idx] = True
    if not have.all():
        raise DistributionError(
            f"{placement.array}: sections cover {int(have.sum())}/{total} elements"
        )
    return out
