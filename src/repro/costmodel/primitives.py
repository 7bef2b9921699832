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
constants and the machine's per-word time ``tc`` (plus the optional
per-message ``alpha``), which is exactly how the paper evaluates Table 2
and §4-§6: a primitive costs ``rounds(P)`` messages of ``m`` words.

Each row of :data:`TABLE1` is the one definition of its primitive: the
:class:`CommCosts` methods, the volume of a redistribution term, the
``kind`` of a runtime op, the Table 1 benchmark and the documentation
tables all read it (``tests/test_doc_tables.py`` checks the tables).
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
class Primitive:
    """One row of Table 1."""

    name: str  # the paper's name
    shape: str  # the paper's O(.) cost
    rounds: Callable[[int], int]  # serialized messages over n processors
    volume: Callable[[float, int], float]  # words on the wire, all members
    collective: str  # the repro.machine.collectives function that runs it

    def cost(self, model: MachineModel, m: float, nprocs: int = 2) -> float:
        """Analytic time of one invocation with *m*-word messages (the
        point-to-point rows take one round whatever *nprocs*)."""
        return self.rounds(nprocs) * (model.alpha + m * model.tc)


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


@dataclass(frozen=True)
class CommCosts:
    """Analytic primitive costs for a given :class:`MachineModel`."""

    model: MachineModel

    def transfer(self, m: float) -> float:
        """Transfer(m): one message of m words to another processor."""
        return TRANSFER.cost(self.model, m)

    def shift(self, m: float) -> float:
        """Shift(m): circular shift among neighbors — one message each."""
        return SHIFT.cost(self.model, m)

    def one_to_many(self, m: float, nprocs: int) -> float:
        """OneToManyMulticast(m, seq): binomial broadcast."""
        return ONE_TO_MANY.cost(self.model, m, nprocs)

    def reduction(self, m: float, nprocs: int) -> float:
        """Reduction(m, seq): binomial combine (comm cost only)."""
        return REDUCTION.cost(self.model, m, nprocs)

    def affine_transform(self, m: float, nprocs: int) -> float:
        """AffineTransform(m, seq): permutation routing, log-round cost."""
        return AFFINE_TRANSFORM.cost(self.model, m, nprocs)

    def scatter(self, m: float, nprocs: int) -> float:
        """Scatter(m, seq): root sends a distinct m-word message to each."""
        return SCATTER.cost(self.model, m, nprocs)

    def gather(self, m: float, nprocs: int) -> float:
        """Gather(m, seq): root receives an m-word message from each."""
        return GATHER.cost(self.model, m, nprocs)

    def many_to_many(self, m: float, nprocs: int) -> float:
        """ManyToManyMulticast(m, seq): ring allgather, P-1 steps."""
        return MANY_TO_MANY.cost(self.model, m, nprocs)
