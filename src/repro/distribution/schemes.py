"""Distribution schemes — the ``P_{i,j}`` objects of Algorithm 1 (§4).

A :class:`Scheme` records, for every array of a program, which grid
dimension each array dimension is mapped to (or replication), the
partitioning kind per dimension (contiguous vs cyclic), and how the array
behaves along grid dimensions it is *not* mapped to (the "remaining
dimensions" rule at the end of §2.1: a specific location, or replicated).

Schemes are immutable and hashable so the dynamic-programming algorithm
can use them as table entries, and they can be *materialized* into
concrete :class:`~repro.distribution.function.Dist1D` /
:class:`~repro.distribution.function2d.Dist2D` objects for a given grid
shape and problem size.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import DistributionError
from repro.distribution.function import Dist1D, Kind
from repro.distribution.function2d import Coupling, Dist2D


@dataclass(frozen=True)
class ArrayPlacement:
    """Placement of one array.

    ``dim_map[d]`` is the grid dimension (1-based) that array dimension
    ``d`` maps to, or ``None`` when that array dimension is not
    distributed.  ``kinds[d]`` selects contiguous vs cyclic.  ``rest``
    says what happens along grid dimensions the array does not occupy:
    ``"replicated"`` (a copy in every position) or ``"fixed"`` (one
    location).
    """

    array: str
    dim_map: tuple[int | None, ...]
    kinds: tuple[Kind, ...] = ()
    rest: str = "fixed"

    def __post_init__(self) -> None:
        if not self.kinds:
            object.__setattr__(
                self, "kinds", tuple(Kind.BLOCK for _ in self.dim_map)
            )
        if len(self.kinds) != len(self.dim_map):
            raise DistributionError(
                f"{self.array}: kinds and dim_map lengths differ "
                f"({len(self.kinds)} vs {len(self.dim_map)})"
            )
        if self.rest not in ("fixed", "replicated"):
            raise DistributionError(f"rest must be fixed|replicated, got {self.rest!r}")
        used = [g for g in self.dim_map if g is not None]
        if len(used) != len(set(used)):
            raise DistributionError(
                f"{self.array}: two array dimensions mapped to one grid dimension"
            )

    @property
    def rank(self) -> int:
        return len(self.dim_map)

    def grid_dims(self) -> frozenset[int]:
        return frozenset(g for g in self.dim_map if g is not None)

    def is_fully_replicated(self) -> bool:
        return all(g is None for g in self.dim_map) and self.rest == "replicated"

    def describe(self) -> str:
        parts = []
        for d, (g, k) in enumerate(zip(self.dim_map, self.kinds), start=1):
            if g is None:
                parts.append(f"dim{d}:*")
            else:
                parts.append(f"dim{d}->grid{g}({k.value})")
        return f"{self.array}[{', '.join(parts)}; rest={self.rest}]"


@dataclass(frozen=True)
class Scheme:
    """A whole-program distribution scheme on an ``N1 x N2`` grid shape.

    The grid shape here is *symbolic* (how many grid dimensions are used);
    concrete ``(N1, N2)`` values are chosen later by the grid search, as
    the paper prescribes (§2.2: first align assuming equal Ni, then pick
    the Ni by minimizing total time).
    """

    placements: tuple[ArrayPlacement, ...]
    name: str = ""

    def __post_init__(self) -> None:
        names = [p.array for p in self.placements]
        if len(names) != len(set(names)):
            raise DistributionError("duplicate array placement in scheme")

    @staticmethod
    def of(*placements: ArrayPlacement, name: str = "") -> "Scheme":
        return Scheme(tuple(sorted(placements, key=lambda p: p.array)), name=name)

    def placement(self, array: str) -> ArrayPlacement:
        for p in self.placements:
            if p.array == array:
                return p
        raise DistributionError(f"scheme has no placement for array {array!r}")

    def arrays(self) -> tuple[str, ...]:
        return tuple(p.array for p in self.placements)

    def describe(self) -> str:
        label = f"{self.name}: " if self.name else ""
        return label + "; ".join(p.describe() for p in self.placements)

    # -- materialization -------------------------------------------------
    def materialize(
        self,
        array: str,
        extents: tuple[int, ...],
        grid: tuple[int, int],
    ) -> Dist1D | Dist2D:
        """Concrete distribution of *array* for grid shape ``(N1, N2)``."""
        p = self.placement(array)
        if len(extents) != p.rank:
            raise DistributionError(
                f"{array}: placement rank {p.rank} but extents {extents}"
            )
        dists = [dim_distribution(p, d, extent, grid) for d, extent in enumerate(extents)]
        if p.rank == 1:
            return dists[0]
        if p.rank == 2:
            return Dist2D(rows=dists[0], cols=dists[1], coupling=Coupling.INDEPENDENT)
        raise DistributionError(f"{array}: only rank 1 and 2 arrays supported")


def dim_distribution(
    placement: ArrayPlacement, d: int, extent: int, grid: tuple[int, int]
) -> Dist1D:
    """The concrete 1-D distribution of array dimension *d* (paper §2.1)."""
    g = placement.dim_map[d]
    if g is None:
        return Dist1D.replicated(extent)
    n = grid[g - 1]
    if placement.kinds[d] is Kind.CYCLIC:
        return Dist1D.cyclic_dist(extent, n, grid_dim=g)
    return Dist1D.block_dist(extent, n, grid_dim=g)


def scheme_from_directives(program, name: str = "directives") -> Scheme:
    """Build a :class:`Scheme` from a program's DISTRIBUTE directives.

    Distributed dimensions are assigned grid dimensions in order (first
    distributed dimension -> grid dim 1, second -> grid dim 2); ``*``
    dimensions stay undistributed.  Arrays without a directive are fully
    replicated (the paper's rule for scalars and small arrays).  1-D
    arrays whose single specifier is ``*`` are replicated outright.
    """
    from repro.lang.ast import Program  # local import to avoid a cycle

    if not isinstance(program, Program):
        raise DistributionError("scheme_from_directives expects a parsed Program")
    placements = []
    for arr_name, decl in program.arrays.items():
        specs = program.directives.get(arr_name)
        if specs is None:
            placements.append(
                ArrayPlacement(
                    array=arr_name,
                    dim_map=tuple(None for _ in range(decl.rank)),
                    rest="replicated",
                )
            )
            continue
        dim_map: list[int | None] = []
        kinds: list[Kind] = []
        next_grid = 1
        for spec in specs:
            if spec == "*":
                dim_map.append(None)
                kinds.append(Kind.BLOCK)
            else:
                if next_grid > 2:
                    raise DistributionError(
                        f"{arr_name}: more than two distributed dimensions"
                    )
                dim_map.append(next_grid)
                kinds.append(Kind.CYCLIC if spec == "CYCLIC" else Kind.BLOCK)
                next_grid += 1
        placements.append(
            ArrayPlacement(
                array=arr_name,
                dim_map=tuple(dim_map),
                kinds=tuple(kinds),
                rest="fixed",
            )
        )
    return Scheme.of(*placements, name=name)
