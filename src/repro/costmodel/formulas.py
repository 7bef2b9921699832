"""Closed-form execution times from the paper.

Each function returns a :class:`TimeBreakdown` with separate computation
and communication components, so benchmarks can print Table 2-style rows.

Derivations (using the Table 1 primitive costs and writing ``log`` for
``ceil(log2)``):

* :func:`jacobi_section3_time` — §3's single global alignment
  ({A1, V} -> grid dim 1, {A2, B, X} -> grid dim 2) on an ``N1 x N2``
  grid::

      Time = 2 m^2/(N1 N2) tf + Reduction(m/N1, N2)          (line 5)
           + 3 m/N2 tf + N1 * OneToManyMulticast(m/N1, N2)   (line 8)
             (or N1 * Transfer(m/N1) when N2 = 1)
           + OneToManyMulticast(m, N1)                       (loop-carried X)

  which reproduces Table 2:
  ``(1, N)``: comp (2m^2/N + 3m/N) tf, comm 2 m log N tc;
  ``(N, 1)``: comp (2m^2/N + 3m) tf, comm (m + m log N) tc;
  ``(sqrt N, sqrt N)``: comp (2m^2/N + 3m/sqrt N) tf,
  comm (m log N)(1/2 + 1/sqrt N + 1/(2 sqrt N)) tc.

* :func:`jacobi_dp_time` — §4's per-loop schemes with the DP: grid
  ``(N, 1)``; ``Time1 = 2 m^2/N tf``, ``Time2 = 3 m/N tf``,
  ``CTime1 = 0``,
  ``CTime2 = ManyToManyMulticast(m/N, N) + OneToManyMulticast(m, 1)
  = m tc``.

* :func:`sor_naive_time` — §5's reduction-per-step schedule:
  ``(2 m^2/N + 4 m) tf + m (log N + 1) tc``.

* :func:`sor_pipelined_time` — §5's pipeline bound:
  ``(m + N)(2 (m/N) tf + 2 tc)``.

* :func:`gauss_broadcast_time` / :func:`gauss_pipelined_time` — §6.  The
  paper gives no closed form; we derive one from its naive-vs-pipelined
  discussion.  Triangularization does ``sum_k 2 (m-k)^2 / N ~ 2 m^3 / (3N)``
  flops (+ lower-order row work); the naive compiler broadcasts the pivot
  row and pivot B for every k (``sum_k OneToMany(m-k+1, N) ~
  (m^2/2 + 3m/2) log N``) and X(j) during back-substitution
  (``m log N``); the pipelined version replaces every multicast by a
  neighbor Shift, paying instead one send and one receive per datum
  (``2 tc`` per word) plus an O(N) pipeline-fill term.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.costmodel.primitives import CommCosts
from repro.errors import CostModelError
from repro.machine.model import MachineModel


@dataclass(frozen=True)
class TimeBreakdown:
    """Computation/communication split of a predicted execution time."""

    comp: float
    comm: float
    terms: tuple[str, ...] = field(default_factory=tuple)

    @property
    def total(self) -> float:
        return self.comp + self.comm

    def __str__(self) -> str:
        return f"comp={self.comp:g} comm={self.comm:g} total={self.total:g}"


def _check(m: int, *procs: int) -> None:
    if m < 1:
        raise CostModelError(f"problem size must be >= 1, got {m}")
    for n in procs:
        if n < 1:
            raise CostModelError(f"processor count must be >= 1, got {n}")


def jacobi_section3_time(m: int, n1: int, n2: int, model: MachineModel) -> TimeBreakdown:
    """Per-iteration time of Jacobi under §3's global alignment on (N1, N2)."""
    _check(m, n1, n2)
    c = CommCosts(model)
    comp = (2.0 * m * m / (n1 * n2) + 3.0 * m / n2) * model.tf
    terms = [f"comp: (2m^2/{n1 * n2} + 3m/{n2}) tf"]
    comm = c.reduction(m / n1, n2)
    terms.append(f"Reduction({m}/{n1}, {n2})")
    if n2 == 1:
        if n1 > 1:
            comm += n1 * c.transfer(m / n1)
            terms.append(f"{n1} x Transfer({m}/{n1})")
    else:
        comm += n1 * c.one_to_many(m / n1, n2)
        terms.append(f"{n1} x OneToManyMulticast({m}/{n1}, {n2})")
    comm += c.one_to_many(m, n1)
    terms.append(f"OneToManyMulticast({m}, {n1}) [loop-carried X]")
    return TimeBreakdown(comp, comm, tuple(terms))


def jacobi_dp_time(m: int, n: int, model: MachineModel) -> TimeBreakdown:
    """Per-iteration time of Jacobi under §4's DP scheme (grid (N, 1)).

    ``(2 m^2/N + 3 m/N) tf + m tc`` — the paper's headline improvement.
    """
    _check(m, n)
    c = CommCosts(model)
    comp = (2.0 * m * m / n + 3.0 * m / n) * model.tf
    comm = c.many_to_many(m / n, n) + c.one_to_many(m, 1)
    return TimeBreakdown(
        comp,
        comm,
        (
            f"comp: (2m^2/{n} + 3m/{n}) tf",
            f"ManyToManyMulticast({m}/{n}, {n}) [loop-carried X]",
        ),
    )


def sor_naive_time(m: int, n: int, model: MachineModel) -> TimeBreakdown:
    """Per-iteration time of the naive SOR schedule (§5, grid (1, N))."""
    _check(m, n)
    c = CommCosts(model)
    comp = (2.0 * m * m / n + 4.0 * m) * model.tf
    comm = m * (c.reduction(1, n) + c.transfer(1))
    return TimeBreakdown(
        comp,
        comm,
        (
            f"comp: (2m^2/{n} + 4m) tf",
            f"{m} x (Reduction(1, {n}) + Transfer(1))",
        ),
    )


def sor_pipelined_time(m: int, n: int, model: MachineModel) -> TimeBreakdown:
    """§5's pipelined SOR bound ``(m + N)(2 (m/N) tf + 2 tc)``."""
    _check(m, n)
    steps = m + n
    comp = steps * (2.0 * m / n) * model.tf
    comm = steps * 2.0 * (model.alpha + model.tc)
    return TimeBreakdown(
        comp,
        comm,
        (f"(m + N) = {steps} steps x (2 (m/N) tf + 2 tc)",),
    )


def _gauss_comp(m: int, n: int, model: MachineModel) -> float:
    """Shared computation term of both Gauss variants.

    Triangularization: for each k, each of the ~(m-k)/N locally owned rows
    does 1 division + 2 ops on B + 2(m-k) ops on the row.  Back
    substitution: ~m^2/N multiply-adds + 2m scalar updates.
    """
    tri = sum((m - k) * (2 * (m - k) + 3) for k in range(1, m + 1)) / n
    back = (m * m / n) + 2.0 * m
    return (tri + back) * model.tf


def gauss_broadcast_time(m: int, n: int, model: MachineModel) -> TimeBreakdown:
    """Naive Gauss elimination: multicast pivot data at every step (§6)."""
    _check(m, n)
    c = CommCosts(model)
    comp = _gauss_comp(m, n, model)
    comm = sum(c.one_to_many(m - k + 2, n) for k in range(1, m + 1))  # pivot row + B(k)
    comm += m * c.one_to_many(1, n)  # X(j) broadcasts in back substitution
    return TimeBreakdown(
        comp,
        comm,
        (
            "sum_k OneToManyMulticast(m-k+2, N) [pivot row + B]",
            f"{m} x OneToManyMulticast(1, {n}) [X in back subst]",
        ),
    )


def gauss_pipelined_time(m: int, n: int, model: MachineModel) -> TimeBreakdown:
    """Pipelined Gauss: every multicast becomes a neighbor Shift (§6).

    Each pivot datum is received once and forwarded once per processor on
    the ring; the critical path pays ~2 endpoint costs per datum plus an
    O(N) pipeline-fill delay per wavefront.
    """
    _check(m, n)
    c = CommCosts(model)
    comp = _gauss_comp(m, n, model)
    comm = sum(2 * c.shift(m - k + 2) for k in range(1, m + 1))
    comm += m * 2 * c.shift(1)
    comm += n * c.shift(2)  # pipeline fill/drain
    return TimeBreakdown(
        comp,
        comm,
        (
            "sum_k 2 x Shift(m-k+2) [pivot row + B forwarded]",
            f"{m} x 2 x Shift(1) [X in back subst]",
            f"{n} x Shift(2) [pipeline fill]",
        ),
    )

