"""Machine timing model.

The paper characterizes the target machine by two constants (§3):

* ``tf`` — average time of a floating point operation;
* ``tc`` — average time of transferring one word.

We add two optional refinements that default to the paper's assumptions:

* ``alpha`` — fixed per-message overhead (0 in the paper's asymptotic
  model; real hypercubes had a large alpha, which is why the paper worries
  about *numbers of messages* when pipelining);
* ``hop_cost`` — extra latency per additional hop between non-neighbor
  processors (0 models the wormhole/cut-through routing the paper's
  cost table assumes).

``overlap=True`` models hardware that overlays computation with
communication (§5's closing remark): send/receive *occupancy* drops to
``alpha``, while message latency is unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import CostModelError


@dataclass(frozen=True)
class MachineModel:
    """Timing parameters of the simulated machine.

    The defaults (``tf=1, tc=10``) reflect the era's typical ratio:
    communication an order of magnitude slower than computation per word.
    """

    tf: float = 1.0
    tc: float = 10.0
    alpha: float = 0.0
    hop_cost: float = 0.0
    overlap: bool = False

    def __post_init__(self) -> None:
        for field_name in ("tf", "tc", "alpha", "hop_cost"):
            value = getattr(self, field_name)
            if not 0 <= value < math.inf:  # NaN fails both comparisons
                raise CostModelError(f"{field_name} must be finite and nonnegative, got {value}")

    # -- endpoint occupancy -------------------------------------------
    def send_occupancy(self, words: int) -> float:
        """Time the sender is busy injecting a *words*-word message."""
        if self.overlap:
            return self.alpha
        return self.alpha + words * self.tc

    def recv_occupancy(self, words: int) -> float:
        """Time the receiver is busy draining a *words*-word message."""
        if self.overlap:
            return self.alpha
        return self.alpha + words * self.tc

    def wire_latency(self, words: int, hops: int) -> float:
        """In-flight time after the sender finishes injecting.

        With ``hop_cost=0`` (the paper's model) a message is available as
        soon as the sender has paid its occupancy.
        """
        extra = self.alpha + words * self.tc if self.overlap else 0.0
        return extra + max(hops - 1, 0) * self.hop_cost

    # -- nonblocking (posted) transfers --------------------------------
    def post_occupancy(self, words: int) -> float:
        """Endpoint cost of *posting* a nonblocking transfer.

        An ``isend`` hands a descriptor to the NIC and an ``irecv`` wait
        drains an already-landed message: both cost only the per-message
        startup ``alpha``, never the per-word time — this is §5's
        "hardware supports overlaying the computation and the
        communication" realized at the runtime level, so it matches
        :meth:`send_occupancy` / :meth:`recv_occupancy` under
        ``overlap=True`` regardless of the flag.
        """
        return self.alpha

    def posted_wire_latency(self, words: int, hops: int) -> float:
        """In-flight time of a posted transfer after the post completes.

        The NIC performs the full ``alpha + words * tc`` transfer while
        the processor computes — identical to :meth:`wire_latency` under
        ``overlap=True``, so a nonblocking program on a plain model and a
        blocking program on an ``overlap=True`` model see the same
        per-message availability times.
        """
        return self.alpha + words * self.tc + max(hops - 1, 0) * self.hop_cost

    def seconds(self, flops: float, messages: float, words: float) -> float:
        """The analytic time of a count vector, ``flops tf + messages alpha
        + words tc``: the one place the cost model meets the machine."""
        return flops * self.tf + messages * self.alpha + words * self.tc

    def flops(self, count: float) -> float:
        """Time for *count* floating-point operations."""
        return count * self.tf

    def words(self, count: float) -> float:
        """Time to transfer *count* words point-to-point (paper Transfer)."""
        return self.alpha + count * self.tc
