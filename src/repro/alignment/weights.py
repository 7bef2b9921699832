"""Edge weights for the component affinity graph.

The weight of an affinity edge is "the communication cost [that] is
necessary if two dimensions of arrays are distributed along different
dimensions of the processor grid" (§3).  We price it with the rule
implied by the paper's examples (Fig 2's ``c1..c4``, §5's ``e1..e4``):

* the **mover** is the array whose data would have to travel — the RHS
  array when the edge involves the left-hand side (owner computes pins
  the LHS), otherwise the smaller of the two arrays;
* the mover contributes one message per *distinct element* accessed by
  the statement (the product of the trip counts of the loop variables in
  its subscripts);
* each message is a ``Transfer(1)`` when the element has a single
  consumer, and a ``OneToManyMulticast(1, N)`` when the other reference
  is additionally driven by a loop variable absent from the mover (the
  element is consumed across a grid dimension).

This reproduces §5's ``e1 = m^2 * Transfer(1)`` (A against the LHS ``V``),
``e2 = m * OneToManyMulticast(1, N)`` (X against A's second dimension) and
``e3 = e4 = m * Transfer(1)`` (B, V against X), and Fig 2's ordering
``c1 > c4``.

A weight is counted here and priced where the alignment solver compares
it (:func:`repro.alignment.graph.merge_cag`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.costmodel.primitives import ONE_TO_MANY, TRANSFER
from repro.lang.analysis import RefSite, mean_trips, nest_runs
from repro.lang.ast import Program


@dataclass(frozen=True)
class WeightTerm:
    """A priced affinity occurrence, printable in the paper's notation."""

    count: float
    primitive: str
    nprocs: int
    cost: float
    line: int

    def describe(self) -> str:
        if self.primitive == TRANSFER.name:
            return f"{self.count:g} x Transfer(1) (line {self.line})"
        return f"{self.count:g} x {self.primitive}(1, N) (line {self.line})"


#: A :class:`WeightTerm` with its counts in place of its cost:
#: ``(count, primitive, nprocs, messages, words, line)``.
WeightCounts = tuple[float, str, int, float, float, int]


def _subscript_vars(site: RefSite) -> set[str]:
    out: set[str] = set()
    loop_vars = set(site.loop_vars)
    for sub in site.ref.subscripts:
        out |= set(sub.variables()) & loop_vars
    return out


def edge_weight(
    site_a: RefSite,
    site_b: RefSite,
    program: Program,
    env: dict[str, int],
    nprocs: int,
) -> WeightCounts:
    """Count the affinity between two reference sites of one statement."""
    # Decide which array moves if the two dimensions are misaligned.
    if site_a.is_write:
        mover, other = site_b, site_a
    elif site_b.is_write:
        mover, other = site_a, site_b
    else:
        size_a = math.prod(program.arrays[site_a.array].shape(env))
        size_b = math.prod(program.arrays[site_b.array].shape(env))
        mover, other = (site_a, site_b) if size_a <= size_b else (site_b, site_a)

    trips = mean_trips(mover.loops, env)
    mover_vars = _subscript_vars(mover)
    distinct = 1.0
    for var in mover_vars:
        distinct *= trips.get(var, 1.0)
    if not nest_runs(mover.loops, env):
        distinct = 0.0  # the statement never runs: nothing is read, nothing moves

    other_vars = _subscript_vars(other)
    spans = bool(other_vars - mover_vars)
    primitive = ONE_TO_MANY if spans and nprocs > 1 else TRANSFER
    return (distinct, primitive.name, nprocs, *primitive.counts(1, nprocs, distinct), site_a.line)
