"""Algorithm 1 — minimum-cost order of data distribution schemes.

Given ``s`` Do-loops ``L1 .. Ls`` in sequence, ``M[i][j]`` the cost of
computing the segment ``L_i .. L_{i+j-1}`` under its (alignment-derived)
scheme ``P[i][j]``, a redistribution oracle ``cost(P, P')`` and a
loop-carried oracle, compute::

    T[i][j] = min_{1 <= k <= i-1} ( T[i-k][k] + M[i][j] + cost(P[i-k][k], P[i][j]) )
    T[1][j] = M[1][j]
    Minimum_Cost = min_{1 <= k <= s} ( T[s-k+1][k] + loop_carried(T[s-k+1][k]) )

The paper's statement has a subtle gap: the loop-carried term couples the
*last* scheme of a sequence with the *first*, but ``T`` as written does
not remember which first segment a chain started with, so applying
``loop_carried`` after the fact can miss the optimum (a chain with
slightly larger ``T`` but a cheaper iteration boundary).  We therefore
index the table by the first segment as well —
``T[first][(i, j)]`` — which restores exact optimality at negligible cost
(the first segment is always ``(1, j0)``, so there are only ``s`` choices).
A brute-force enumerator over all ``2^(s-1)`` segmentations is provided
and tested against the DP.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from typing import Any

from repro.errors import CostModelError
from repro.util.lazy import Lazy

CostFn = Callable[[Any, Any], float]


@dataclass(frozen=True)
class DPResult(Lazy):
    """Outcome of Algorithm 1.

    ``segments`` is the chosen partition as (start, length) pairs,
    1-based, in execution order; ``schemes`` the corresponding ``P``
    entries; ``cost`` the minimum total including the loop-carried term
    (``loop_carried`` reported separately for Fig 3-style breakdowns).

    ``schemes`` is derived — ``P`` read along ``segments`` — so a cached
    result holds the other fields and rebuilds it from the tables on
    first read (:class:`repro.service.plan.SolveOutcome`).
    """

    cost: float
    segments: tuple[tuple[int, int], ...]
    schemes: tuple[Any, ...]
    segment_costs: tuple[float, ...]
    change_costs: tuple[float, ...]
    loop_carried: float

    def describe(self) -> str:
        parts = []
        for (start, length), m in zip(self.segments, self.segment_costs):
            rng = f"L{start}" if length == 1 else f"L{start}..L{start + length - 1}"
            parts.append(f"{rng}: M={m:g}")
        changes = " + ".join(f"{c:g}" for c in self.change_costs) or "0"
        return (
            f"segments [{'; '.join(parts)}], layout changes {changes}, "
            f"loop-carried {self.loop_carried:g}, total {self.cost:g}"
        )


def algorithm1(
    s: int,
    M: Callable[[int, int], float],
    P: Callable[[int, int], Any],
    change_cost: CostFn,
    loop_carried_cost: CostFn,
) -> DPResult:
    """Run Algorithm 1.

    Parameters
    ----------
    s:
        Number of loops in the sequence.
    M, P:
        Oracles over 1-based ``(i, j)`` with ``1 <= i <= s`` and
        ``1 <= j <= s - i + 1``: segment cost and segment scheme.
    change_cost:
        ``cost(P_prev, P_next)`` — communication to change layouts.
    loop_carried_cost:
        ``loop_carried(P_first, P_last)`` — communication at the iteration
        boundary of the enclosing loop when the sequence starts with
        ``P_first`` and ends with ``P_last``.
    """
    if s < 1:
        raise CostModelError(f"need at least one loop, got {s}")

    Key = tuple[int, int]
    # M and P read once per segment, in the tables' (i, j) order.
    keys = [(i, j) for i in range(1, s + 1) for j in range(1, s - i + 2)]
    m = {key: float(M(*key)) for key in keys}
    p = {key: P(*key) for key in keys}
    # cost(P, P') is a function of the two segments alone, not of the first
    # segment the chain started with: price each adjacent pair once.
    # c[(i, j)][k - 1] = cost(P[i-k][k], P[i][j]); every pair is some
    # chain's step.
    c = {
        (i, j): [change_cost(p[(i - k, k)], p[(i, j)]) for k in range(1, i)]
        for (i, j) in keys
        if i > 1
    }

    # T[first][(i, j)] = best cost of computing L1..L_{i+j-1} starting with
    # segment `first` and ending with segment (i, j).
    T: dict[Key, dict[Key, float]] = {}
    parent: dict[Key, dict[Key, Key | None]] = {}
    for j0 in range(1, s + 1):
        first = (1, j0)
        t_first = T[first] = {first: m[first]}
        p_first = parent[first] = {first: None}
        for i in range(j0 + 1, s + 1):
            for j in range(1, s - i + 2):
                seg = (i, j)
                m_seg = m[seg]
                costs = c[seg]
                best = float("inf")
                best_prev: Key | None = None
                for k in range(1, i):
                    prev = (i - k, k)
                    t_prev = t_first.get(prev)
                    if t_prev is None:
                        continue
                    cand = t_prev + m_seg + costs[k - 1]
                    if cand < best:
                        best = cand
                        best_prev = prev
                if best_prev is not None:
                    t_first[seg] = best
                    p_first[seg] = best_prev

    best_total = float("inf")
    best_first: Key | None = None
    best_final: Key | None = None
    best_lc = 0.0
    for j0 in range(1, s + 1):
        first = (1, j0)
        for k in range(1, s + 1):
            final = (s - k + 1, k)
            if final not in T[first]:
                continue
            lc = float(loop_carried_cost(p[first], p[final]))
            total = T[first][final] + lc
            if total < best_total:
                best_total = total
                best_first = first
                best_final = final
                best_lc = lc
    assert best_first is not None and best_final is not None

    # Traceback.
    chain: list[Key] = []
    cursor: Key | None = best_final
    while cursor is not None:
        chain.append(cursor)
        cursor = parent[best_first][cursor]
    chain.reverse()

    segment_costs = tuple(m[key] for key in chain)
    schemes = tuple(p[key] for key in chain)
    # the step prev -> (i, j) has k = prev's length
    change_costs = tuple(c[nxt][prev[1] - 1] for prev, nxt in zip(chain, chain[1:]))
    return DPResult(
        cost=best_total,
        segments=tuple(chain),
        schemes=schemes,
        segment_costs=segment_costs,
        change_costs=change_costs,
        loop_carried=best_lc,
    )


def _compositions(total: int) -> list[list[int]]:
    """Every ordered way to write *total* as a sum of positive parts."""
    if total == 0:
        return [[]]
    out = []
    for first in range(1, total + 1):
        for rest in _compositions(total - first):
            out.append([first] + rest)
    return out


def brute_force_min_cost(
    s: int,
    M: Callable[[int, int], float],
    P: Callable[[int, int], Any],
    change_cost: CostFn,
    loop_carried_cost: CostFn,
) -> tuple[float, tuple[tuple[int, int], ...]]:
    """Enumerate all 2^(s-1) segmentations (testing oracle for the DP)."""
    if s < 1:
        raise CostModelError(f"need at least one loop, got {s}")
    best = (float("inf"), ())
    for lengths in _compositions(s):
        segments: list[tuple[int, int]] = []
        start = 1
        for length in lengths:
            segments.append((start, length))
            start += length
        total = 0.0
        for idx, (i, j) in enumerate(segments):
            total += M(i, j)
            if idx > 0:
                pi, pj = segments[idx - 1]
                total += change_cost(P(pi, pj), P(i, j))
        first_i, first_j = segments[0]
        last_i, last_j = segments[-1]
        total += loop_carried_cost(P(first_i, first_j), P(last_i, last_j))
        if total < best[0]:
            best = (total, tuple(segments))
    return best
