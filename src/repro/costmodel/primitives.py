"""Communication primitives on the hypercube (paper Table 1), written once.

+------------------------------+-------------+--------+-----------------+
| primitive                    | cost        | rounds | words on wire   |
+==============================+=============+========+=================+
| Transfer(m)                  | O(m)        | 1      | m               |
| Shift(m)                     | O(m)        | 1      | P m             |
| OneToManyMulticast(m, seq)   | O(m log P)  | log P  | (P - 1) m       |
| Reduction(m, seq)            | O(m log P)  | log P  | (P - 1) m       |
| AffineTransform(m, seq)      | O(m log P)  | log P  | P m             |
| Scatter(m, seq)              | O(m P)      | P - 1  | (P - 1) m       |
| Gather(m, seq)               | O(m P)      | P - 1  | (P - 1) m       |
| ManyToManyMulticast(m, seq)  | O(m P)      | P - 1  | P (P - 1) m     |
+------------------------------+-------------+--------+-----------------+

``m`` is the message size in words, ``P = num(seq)`` the number of
processors the collective spans.  We realize the O(.) shapes with unit
constants, which is exactly how the paper evaluates Table 2 and §4-§6: a
primitive is ``rounds(P)`` messages of ``m`` words (:meth:`Primitive.counts`),
and only :meth:`~repro.machine.model.MachineModel.seconds` turns counts
into time (``messages * alpha + words * tc``).

Each row of :data:`TABLE1` is the one definition of its primitive: the
loop-cost rules, the CAG edge weights and the layout-change rules count
with it, and the volume of a redistribution term, the ``kind`` of a
runtime op, the Table 1 benchmark and the documentation tables read it
(``tests/test_doc_tables.py`` checks the tables).

A priced time is a :class:`TimeBreakdown`: its computation and
communication seconds, apart.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

from repro.errors import CostModelError
from repro.machine.model import MachineModel


def _once(n: int) -> int:
    return 1


def _log2_ceil(n: int) -> int:
    """Number of rounds of a binomial/recursive-doubling algorithm."""
    if n < 1:
        raise CostModelError(f"processor count must be >= 1, got {n}")
    return max(0, math.ceil(math.log2(n)))


def _to_each_other(n: int) -> int:
    return max(0, n - 1)


@dataclass(frozen=True)
class TimeBreakdown:
    """Computation/communication split of a predicted execution time."""

    comp: float
    comm: float

    @property
    def total(self) -> float:
        return self.comp + self.comm


@dataclass(frozen=True)
class Primitive:
    """One row of Table 1."""

    name: str  # the paper's name
    shape: str  # the paper's O(.) cost
    rounds: Callable[[int], int]  # serialized messages over n processors
    volume: Callable[[float, int], float]  # words on the wire, all members
    collective: str  # the repro.machine.collectives function that runs it

    def counts(self, m: float, nprocs: int = 2, times: float = 1) -> tuple[float, float]:
        """``(messages, words)`` on the critical path of *times* invocations
        with *m*-word messages (the point-to-point rows take one round
        whatever *nprocs*)."""
        messages = times * self.rounds(nprocs)
        return messages, messages * m

    def cost(self, model: MachineModel, m: float, nprocs: int = 2) -> float:
        """Analytic time of one invocation: its counts, priced by *model*."""
        return model.seconds(0, *self.counts(m, nprocs))


TRANSFER = Primitive("Transfer", "O(m)", _once, lambda m, n: m, "Proc.send")
SHIFT = Primitive("Shift", "O(m)", _once, lambda m, n: n * m, "shift")
ONE_TO_MANY = Primitive(
    "OneToManyMulticast", "O(m log P)", _log2_ceil, lambda m, n: (n - 1) * m, "bcast"
)
REDUCTION = Primitive(
    "Reduction", "O(m log P)", _log2_ceil, lambda m, n: (n - 1) * m, "reduce"
)
AFFINE_TRANSFORM = Primitive(
    "AffineTransform", "O(m log P)", _log2_ceil, lambda m, n: n * m, "affine_transform"
)
SCATTER = Primitive("Scatter", "O(m P)", _to_each_other, lambda m, n: (n - 1) * m, "scatter")
GATHER = Primitive("Gather", "O(m P)", _to_each_other, lambda m, n: (n - 1) * m, "gather")
MANY_TO_MANY = Primitive(
    "ManyToManyMulticast", "O(m P)", _to_each_other, lambda m, n: n * (n - 1) * m, "allgather"
)

#: Table 1 in the paper's row order.
TABLE1 = (
    TRANSFER, SHIFT, ONE_TO_MANY, REDUCTION, AFFINE_TRANSFORM, SCATTER, GATHER, MANY_TO_MANY,
)
PRIMITIVES = {row.name: row for row in TABLE1}

