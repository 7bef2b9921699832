"""Grid-shape selection (§2.2, step two of Gupta & Banerjee's recipe).

After component alignment fixes *which* grid dimension each array
dimension maps to, the values ``N1, N2`` (with ``N1 * N2 = N``) are chosen
by minimizing the formulated total execution time — exactly how the paper
evaluates Table 2 and concludes ``N1 = N, N2 = 1`` for §4's scheme.
"""

from __future__ import annotations

from collections.abc import Callable

from repro.errors import CostModelError


def grid_candidates(nprocs: int) -> list[tuple[int, int]]:
    """All factorizations ``N1 * N2 = nprocs`` in decreasing-N1 order."""
    if nprocs < 1:
        raise CostModelError(f"nprocs must be >= 1, got {nprocs}")
    pairs = []
    for n1 in range(nprocs, 0, -1):
        if nprocs % n1 == 0:
            pairs.append((n1, nprocs // n1))
    return pairs


def best_grid(
    nprocs: int,
    time_fn: Callable[[int, int], float],
) -> tuple[tuple[int, int], float, list[tuple[tuple[int, int], float]]]:
    """Minimize ``time_fn(N1, N2)`` over factorizations of *nprocs*.

    Returns ``(best_shape, best_time, all_evaluations)``; ties break toward
    larger ``N1`` (the paper's preferred row-major orientation), and when
    no candidate is finite the first one, ``(nprocs, 1)``, stands at ``inf``.
    """
    candidates = grid_candidates(nprocs)
    evaluations: list[tuple[tuple[int, int], float]] = []
    best_shape, best_time = candidates[0], float("inf")
    for shape in candidates:
        total = time_fn(*shape)
        evaluations.append((shape, total))
        if total < best_time:
            best_time = total
            best_shape = shape
    return best_shape, best_time, evaluations
