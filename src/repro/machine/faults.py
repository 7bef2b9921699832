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
  local duration (compute, delay, send/recv/post occupancy) of that
  processor; wire latency belongs to the NIC and is never stretched;
* **crashes** — ``CrashFault(rank, at_time)`` kills the rank the first
  time its local clock reaches ``at_time``
  (:class:`repro.errors.RankCrashedError`).

The engine core (:class:`repro.machine.engine.Proc`) knows none of this.
``Engine(…, faults=plan)`` builds :class:`FaultProc` processors instead,
whose every step is the core's step, then the fault; both backends run
them, so no program code changes.

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
from collections.abc import Generator, Mapping
from dataclasses import dataclass, field, replace
from typing import Any

from repro.errors import FaultError, MachineError, RankCrashedError
from repro.machine.engine import Channel, Engine, Proc, _Message, _payload_copy
from repro.machine.model import MachineModel


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
        return replace(self, crashes=self.crashes + (CrashFault(rank, at_time),))

    def without_crash(self, rank: int, at_time: float) -> "FaultPlan":
        """The same plan minus one crash — used across restarts."""
        kept = tuple(
            c for c in self.crashes if not (c.rank == rank and c.at_time == at_time)
        )
        return replace(self, crashes=kept)


class FaultState:
    """Per-run instantiation of a :class:`FaultPlan`.

    Owns the fired-crash bookkeeping (a crash fires once), the
    per-channel attempt counters and derives message fates.  Message-fate
    queries are pure functions of ``(seed, source, dest, tag, attempt)``
    so they are scheduling-independent; a rank's crash state and its
    channels' attempt counters are only advanced by that rank.
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
        self._send_attempts: dict[Channel, int] = {}

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

    # -- message fates ---------------------------------------------------
    def next_attempt(self, channel: Channel) -> int:
        """Per-channel attempt counter feeding the fault plan's RNG."""
        attempt = self._send_attempts.get(channel, 0)
        self._send_attempts[channel] = attempt + 1
        return attempt

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


@dataclass(frozen=True)
class _Slowed(MachineModel):
    """A slowed rank's machine: each endpoint occupancy is the machine's
    own, times *factor*.  Wire latency belongs to the NIC: not slowed."""

    factor: float = 1.0

    def send_occupancy(self, words: int) -> float:
        return super().send_occupancy(words) * self.factor

    def recv_occupancy(self, words: int) -> float:
        return super().recv_occupancy(words) * self.factor

    def post_occupancy(self, words: int) -> float:
        return super().post_occupancy(words) * self.factor


class FaultProc(Proc):
    """A processor of the machine a :class:`FaultPlan` describes.

    Every step is the core's, then the fault: ``compute`` and ``delay``
    stretch the duration the machine computes by the rank's slowdown
    factor, the occupancies come from a :class:`_Slowed` model, each
    message copy passes through :meth:`_fates`, a dead receiver sends no
    ack, and every step ends by firing a crash that is due.
    """

    def __init__(self, engine: Engine, rank: int) -> None:
        super().__init__(engine, rank)
        self._factor = factor = engine.fault_plan.slowdown_factor(rank)
        if factor != 1.0:
            self._model = _Slowed(**vars(engine.model), factor=factor)

    def _maybe_crash(self) -> None:
        """Fire a pending injected crash once the local clock reaches it."""
        crash = self._engine.faults.crash_due(self.rank, self.clock)
        if crash is not None:
            self.mark("crash")
            raise RankCrashedError(crash.rank, crash.at_time)

    # -- local work -------------------------------------------------------
    def compute(self, flops: float, label: str = "") -> None:
        if flops < 0:
            raise MachineError(f"negative flops: {flops}")
        self._stretch("compute", flops * self._engine.model.tf, label)

    def delay(self, seconds: float, label: str = "") -> None:
        if seconds < 0:
            raise MachineError(f"negative delay: {seconds}")
        self._stretch("delay", seconds, label)

    def _stretch(self, kind: str, seconds: float, label: str) -> None:
        start = self.clock
        self.clock = start + seconds * self._factor
        self._engine.record(
            self.rank, kind, start, self.clock, None, 0, 0, label, self.scope
        )
        self._maybe_crash()

    # -- point-to-point ---------------------------------------------------
    def send(
        self,
        dest: int,
        data: Any,
        words: int | None = None,
        tag: int = 0,
        *,
        seq: int | None = None,
        posted: bool = False,
    ) -> None:
        super().send(dest, data, words, tag, seq=seq, posted=posted)
        self._maybe_crash()

    def _recv_impl(
        self, source: int, tag: int, deadline: float | None
    ) -> Generator[Any, None, Any]:
        data = yield from super()._recv_impl(source, tag, deadline)
        self._maybe_crash()
        return data

    def _fates(self, msg: _Message) -> Generator[_Message, None, None]:
        """The copies of *msg* the plan lets through, each fate marked as
        it is decided: none (dropped), one (maybe delayed), or that one
        and then a duplicate.  Runs on the sending rank, inside ``send``,
        so each channel's attempts are counted in its sender's order."""
        faults = self._engine.faults
        channel: Channel = (msg.source, msg.dest, msg.tag)
        fate = faults.fate(
            msg.source, msg.dest, msg.tag, faults.next_attempt(channel),
            reliable=msg.seq is not None, is_ack=msg.system,
        )
        prefix = "ack-" if msg.system else ""
        if fate.drop:
            self.mark(f"{prefix}drop", msg.dest, msg.tag)
            return
        if fate.delay > 0.0:
            msg.available += fate.delay
            self.mark(f"{prefix}delay", msg.dest, msg.tag)
        yield msg
        if fate.duplicate:
            self.mark("duplicate", msg.dest, msg.tag)
            yield replace(msg, data=_payload_copy(msg.data))

    def _deliver(self, engine: Engine, msg: _Message) -> None:
        deliver = engine.deliver
        for copy in self._fates(msg):
            deliver(copy)

    def _commit(self, msg: _Message) -> None:
        for copy in self._fates(msg):
            super()._commit(copy)

    def _ack(self, data_msg: _Message) -> None:
        """The core's ack, unless the plan has killed the receiver by the
        time the data lands: then the sender's retries go unanswered and
        it raises :class:`repro.errors.RetryExhaustedError`, the crash
        symptom the resilient supervisor restarts on.  (The check reads
        the *plan*, not the fired state, so it does not depend on how far
        the doomed rank has actually run.)"""
        faults = self._engine.faults
        if faults.crashed_by(data_msg.dest, data_msg.available) is not None:
            self.mark("ack-dead", data_msg.dest, data_msg.tag)
            return
        super()._ack(data_msg)
