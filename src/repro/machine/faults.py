"""Seeded, declarative fault injection for the SPMD machine.

The paper's compiled programs assume a perfect machine; this module is
the opposite.  A :class:`FaultPlan` describes, declaratively, how the
machine misbehaves:

* **message faults** — ``delay`` (extra wire latency), ``drop`` (the
  message never arrives) and ``duplicate`` (two copies arrive).  Drops
  and duplicates target *reliable* (sequence-numbered) traffic by
  default, because an unsequenced program has no retransmit path — set
  ``include_plain=True`` to chaos-test plain programs into a forensic
  deadlock on purpose;
* **rank slowdown** — a per-rank factor ``>= 1`` that stretches every
  local duration (compute, send/recv occupancy), perturbing the
  effective ``tf``/``tc`` of that processor;
* **crashes** — ``CrashFault(rank, at_time)`` kills the rank the first
  time its local clock reaches ``at_time``
  (:class:`repro.errors.RankCrashedError`).

Both engine backends consume the same plan at the ``send``/``deliver``
layer of :class:`repro.machine.engine.Proc`, so no program code changes.

Determinism contract
--------------------
Every per-message decision is drawn from a private RNG seeded by
``(plan.seed, source, dest, tag, attempt)`` — *not* from shared RNG
state — so the fate of a message is independent of scheduling order.
Consequently a seeded, crash-free plan yields bit-identical numeric
results on both backends, under any order of ready ranks, and
identical results to the fault-free run (faults move clocks, never
payloads; see ``docs/RESILIENCE.md``).
"""

from __future__ import annotations

import random
from collections.abc import Mapping
from dataclasses import dataclass, field

from repro.errors import FaultError


@dataclass(frozen=True)
class CrashFault:
    """Kill *rank* the first time its local clock reaches *at_time*."""

    rank: int
    at_time: float


@dataclass(frozen=True)
class MessageFate:
    """The plan's verdict for one message copy."""

    delay: float = 0.0
    drop: bool = False
    duplicate: bool = False

    @property
    def clean(self) -> bool:
        return self.delay == 0.0 and not self.drop and not self.duplicate


def _normalize_slowdown(
    slowdown: Mapping[int, float] | tuple[tuple[int, float], ...],
) -> tuple[tuple[int, float], ...]:
    items = sorted(dict(slowdown).items()) if slowdown else []
    for rank, factor in items:
        if rank < 0:
            raise FaultError(f"slowdown rank must be nonnegative, got {rank}")
        if factor < 1.0:
            raise FaultError(
                f"slowdown factor for P{rank} must be >= 1, got {factor}"
            )
    return tuple(items)


@dataclass(frozen=True)
class FaultPlan:
    """Declarative description of how the machine misbehaves.

    ``slowdown`` accepts a ``{rank: factor}`` mapping (normalized to a
    sorted tuple so plans stay hashable).  Probabilities are per message
    attempt; ``delay_max`` is the upper bound of the uniform extra
    latency, in simulated seconds.
    """

    seed: int = 0
    delay_prob: float = 0.0
    delay_max: float = 0.0
    drop_prob: float = 0.0
    duplicate_prob: float = 0.0
    slowdown: tuple[tuple[int, float], ...] = field(default=())
    crashes: tuple[CrashFault, ...] = ()
    include_plain: bool = False

    def __post_init__(self) -> None:
        for name in ("delay_prob", "drop_prob", "duplicate_prob"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise FaultError(f"{name} must be a probability, got {value}")
        if self.delay_max < 0:
            raise FaultError(f"delay_max must be nonnegative, got {self.delay_max}")
        object.__setattr__(self, "slowdown", _normalize_slowdown(self.slowdown))
        object.__setattr__(self, "crashes", tuple(self.crashes))
        for crash in self.crashes:
            if crash.rank < 0:
                raise FaultError(f"crash rank must be nonnegative, got {crash.rank}")
            if crash.at_time < 0:
                raise FaultError(
                    f"crash time must be nonnegative, got {crash.at_time}"
                )

    # -- queries ---------------------------------------------------------
    @property
    def crash_free(self) -> bool:
        return not self.crashes

    @property
    def quiet(self) -> bool:
        """True when the plan injects nothing at all."""
        return (
            self.crash_free
            and not self.slowdown
            and self.delay_prob == self.drop_prob == self.duplicate_prob == 0.0
        )

    def slowdown_factor(self, rank: int) -> float:
        for r, factor in self.slowdown:
            if r == rank:
                return factor
        return 1.0

    # -- derivation ------------------------------------------------------
    def with_crash(self, rank: int, at_time: float) -> "FaultPlan":
        from dataclasses import replace

        return replace(self, crashes=self.crashes + (CrashFault(rank, at_time),))

    def without_crash(self, rank: int, at_time: float) -> "FaultPlan":
        """The same plan minus one crash — used across restarts."""
        from dataclasses import replace

        kept = tuple(
            c for c in self.crashes if not (c.rank == rank and c.at_time == at_time)
        )
        return replace(self, crashes=kept)


class FaultState:
    """Per-run instantiation of a :class:`FaultPlan`.

    Owns the fired-crash bookkeeping (a crash fires once) and derives
    message fates.  Message-fate queries are pure functions of
    ``(seed, source, dest, tag, attempt)`` so they are
    scheduling-independent; a rank's crash state is only advanced by
    that rank.
    """

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        # At most one pending crash per rank: the earliest wins.
        pending: dict[int, CrashFault] = {}
        for crash in plan.crashes:
            cur = pending.get(crash.rank)
            if cur is None or crash.at_time < cur.at_time:
                pending[crash.rank] = crash
        self._pending = pending
        self._initial = dict(pending)
        self._fired: list[CrashFault] = []

    # -- crashes ---------------------------------------------------------
    def crash_due(self, rank: int, clock: float) -> CrashFault | None:
        crash = self._pending.get(rank)
        if crash is not None and clock >= crash.at_time:
            del self._pending[rank]
            self._fired.append(crash)
            return crash
        return None

    @property
    def fired_crashes(self) -> tuple[CrashFault, ...]:
        return tuple(self._fired)

    def fired_crash(self, rank: int) -> CrashFault | None:
        """The fired crash that killed *rank*, or ``None`` if it is alive.

        Used by the nonblocking layer to fail a request against a dead
        peer with the crash as context instead of letting it wedge into a
        deadlock.
        """
        for crash in self._fired:
            if crash.rank == rank:
                return crash
        return None

    def crashed_by(self, rank: int, time: float) -> CrashFault | None:
        """The plan's crash that has killed *rank* by simulated *time*.

        Unlike :meth:`fired_crash` this is a pure function of the plan —
        it does not depend on whether the doomed rank has actually
        reached its crash point yet — so scheduling-sensitive
        decisions (e.g. whether a message gets hardware-acked) stay
        deterministic across backends.
        """
        crash = self._initial.get(rank)
        if crash is not None and time >= crash.at_time:
            return crash
        return None

    # -- slowdown --------------------------------------------------------
    def slowdown(self, rank: int) -> float:
        return self.plan.slowdown_factor(rank)

    # -- message fates ---------------------------------------------------
    def fate(
        self,
        source: int,
        dest: int,
        tag: int,
        attempt: int,
        reliable: bool,
        is_ack: bool = False,
    ) -> MessageFate:
        """Deterministic verdict for one message attempt on one channel."""
        plan = self.plan
        rng = random.Random(
            f"{plan.seed}|{source}|{dest}|{tag}|{attempt}|{int(is_ack)}"
        )
        # Draw in a fixed order so verdicts never depend on branch shape.
        r_delay, r_mag, r_drop, r_dup = (rng.random() for _ in range(4))
        delay = r_mag * plan.delay_max if r_delay < plan.delay_prob else 0.0
        droppable = reliable or is_ack or plan.include_plain
        drop = droppable and r_drop < plan.drop_prob
        duplicable = (reliable and not is_ack) or (plan.include_plain and not is_ack)
        duplicate = duplicable and r_dup < plan.duplicate_prob
        return MessageFate(delay=delay, drop=drop, duplicate=duplicate)
