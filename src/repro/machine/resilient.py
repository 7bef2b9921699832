"""Resilience layer: reliable transfers, checkpoints, crash supervision.

Three cooperating pieces turn the perfect-machine SPMD programs of the
paper into programs that survive the faults :mod:`repro.machine.faults`
injects:

* :class:`ReliableTransport` — a stop-and-wait reliable-transfer
  protocol over :class:`repro.machine.engine.Proc`: every data message
  carries a per-channel sequence number, the engine's deliver layer
  synthesizes a hardware-level ack (tag ``ACK_TAG_BASE + tag``) and
  deduplicates retransmissions, and the sender waits for the ack with a
  timeout, retransmitting with exponential backoff up to
  ``RetryPolicy.max_retries`` before raising
  :class:`repro.errors.RetryExhaustedError`.  Because it subclasses
  :class:`repro.machine.collectives.Transport`, every collective (and
  :func:`repro.distribution.runtime.redistribute`) can run over it via
  the ``transport=`` parameter without algorithm changes.
* :class:`CheckpointStore` — stable storage for per-rank kernel state,
  saved every few iterations.  The consistent restore point is the
  *minimum over ranks of each rank's newest step*: bulk-synchronous
  kernels keep ranks within one checkpoint interval of each other, so
  ``keep=2`` retained steps always cover it.
* :func:`run_resilient` — the crash supervisor.  It runs a program under
  a :class:`FaultPlan` on either backend; when an injected crash kills a
  rank (surfacing as :class:`RankCrashedError`, or as a consequential
  deadlock/retry-exhaustion in the survivors), it disables the fired
  crash — that machine "came back" — and restarts the program, which
  resumes from the last consistent checkpoint.  Fault counters from the
  failed attempts and the restart count are folded into the final
  :class:`repro.machine.metrics.Metrics`.

Determinism: a crash-free plan never alters payload bytes or delivery
*order* (stop-and-wait delivers each sequence number exactly once, in
order), so numeric results stay bit-identical to the fault-free run —
see ``docs/RESILIENCE.md``.
"""

from __future__ import annotations

import copy
import threading
from collections.abc import Callable, Generator
from dataclasses import dataclass
from typing import Any

from repro.errors import (
    CommunicationError,
    DeadlockError,
    FaultError,
    PeerCrashedError,
    RankCrashedError,
    RetryExhaustedError,
)
from repro.machine.collectives import Transport
from repro.machine.engine import (
    ACK_TAG_BASE,
    TIMED_OUT,
    Proc,
    RunResult,
    _payload_words,
)
from repro.machine.faults import CrashFault, FaultPlan
from repro.machine.model import MachineModel
from repro.machine.threaded import BACKENDS, ThreadedEngine
from repro.machine.topology import Topology


@dataclass(frozen=True)
class RetryPolicy:
    """Timeout/retry/backoff knobs of the reliable-transfer protocol.

    ``timeout`` is the ack deadline of the first attempt in simulated
    seconds; when ``None`` it is derived from the machine model as a
    generous multiple of the message round-trip
    (:meth:`timeout_for`).  Each retransmission multiplies the deadline
    by ``backoff``, so the total wait before
    :class:`repro.errors.RetryExhaustedError` grows geometrically and
    outlasts any bounded injected delay.
    """

    timeout: float | None = None
    max_retries: int = 8
    backoff: float = 2.0

    def __post_init__(self) -> None:
        if self.timeout is not None and not self.timeout > 0:  # NaN fails too
            raise FaultError(f"retry timeout must be positive, got {self.timeout}")
        if self.max_retries < 0:
            raise FaultError(f"max_retries must be >= 0, got {self.max_retries}")
        if not self.backoff >= 1.0:
            raise FaultError(f"backoff must be >= 1, got {self.backoff}")

    def timeout_for(self, model: MachineModel, words: int) -> float:
        """Ack deadline for a *words*-word message on *model*.

        Covers data transfer + one-word ack, with a 4x margin for rank
        slowdowns and a constant floor so zero-word messages still get a
        real window.
        """
        if self.timeout is not None:
            return self.timeout
        return 4.0 * (model.words(words) + model.words(1)) + 4.0 * model.alpha + 1.0


class ReliableTransport(Transport):
    """Acked, sequence-numbered sends over the plain engine primitives.

    One instance may be shared by every rank of a run: sequence counters
    are keyed by ``(sender, dest, tag)``, and each key is only ever
    touched by the owning sender's thread.  Receives are inherited
    unchanged — all reliability machinery (dedup, ack synthesis) lives
    on the send path and in the engine's deliver layer.
    """

    def __init__(self, policy: RetryPolicy | None = None) -> None:
        self.policy = policy or RetryPolicy()
        self._next_seq: dict[tuple[int, int, int], int] = {}
        self._outstanding: dict[tuple[int, int, int], "ReliableSendRequest"] = {}

    def send(
        self, p: Proc, dest: int, data: Any, words: int | None = None, tag: int = 0
    ) -> Generator[Any, None, None]:
        key = (p.rank, dest, tag)
        seq = self._next_seq.get(key, 0)
        self._next_seq[key] = seq + 1
        p.send(dest, data, words=words, tag=tag, seq=seq)
        return self._await_ack(
            p, dest, data, words, tag, seq, posted=False, anchor=p.clock
        )

    def _await_ack(
        self, p: Proc, dest: int, data: Any, words: int | None, tag: int,
        seq: int, posted: bool, anchor: float,
    ) -> Generator[Any, None, None]:
        """The stop-and-wait loop: the first copy left at *anchor*; wait for
        its ack, retransmitting (``posted`` like the first copy) with
        exponential backoff each time the deadline passes."""
        policy = self.policy
        nwords = _payload_words(data) if words is None else int(words)
        base_timeout = policy.timeout_for(p.model, nwords)
        ack_tag = ACK_TAG_BASE + tag
        attempts = policy.max_retries + 1
        for attempt in range(attempts):
            if attempt > 0:
                p.mark("retry", peer=dest, tag=tag)
                p.send(dest, data, words=words, tag=tag, seq=seq, posted=posted)
                anchor = p.clock
            deadline = anchor + base_timeout * (policy.backoff**attempt)
            while True:
                ack = yield from p.recv_deadline(dest, tag=ack_tag, deadline=deadline)
                if ack is TIMED_OUT:
                    break
                if isinstance(ack, int) and ack >= seq:
                    return  # acknowledged
                # Stale ack of an earlier sequence number (a re-ack of a
                # suppressed duplicate): drain it and keep waiting.
        raise RetryExhaustedError(p.rank, dest, tag, attempts)

    def isend(
        self, p: Proc, dest: int, data: Any, words: int | None = None, tag: int = 0
    ) -> "ReliableSendRequest":
        """Nonblocking reliable send: post now, ack-wait at ``wait()``.

        The data message goes out through the posted (``isend``) path —
        the sender pays only ``alpha`` — and the returned request's
        :meth:`~ReliableSendRequest.wait` runs the stop-and-wait
        ack/retry loop with deadlines anchored at the *post* time, so
        compute performed between ``isend`` and ``wait`` counts toward
        the ack window: the ack is serviced while compute proceeds, and
        ``wait`` merely drains it.

        At most one reliable request may be outstanding per ``(dest,
        tag)`` channel: a second concurrent one would consume the
        first's acks (they share the ack tag), so overlapping posts on
        one channel raise :class:`repro.errors.CommunicationError` —
        complete the previous request first.
        """
        key = (p.rank, dest, tag)
        outstanding = self._outstanding.get(key)
        if outstanding is not None and not outstanding.done:
            raise CommunicationError(
                f"P{p.rank} already has an outstanding reliable isend to "
                f"P{dest} on tag {tag}; wait() it before posting another"
            )
        seq = self._next_seq.get(key, 0)
        self._next_seq[key] = seq + 1
        request = ReliableSendRequest(self, p, dest, data, words, tag, seq)
        self._outstanding[key] = request
        return request


class ReliableSendRequest:
    """Outstanding reliable transfer posted by :meth:`ReliableTransport.isend`.

    Mirrors the :class:`repro.machine.nonblocking.Request` protocol
    (``done`` flag, generator ``wait()``) so it composes with
    :func:`repro.machine.nonblocking.waitall`.
    """

    def __init__(
        self,
        transport: ReliableTransport,
        p: Proc,
        dest: int,
        data: Any,
        words: int | None,
        tag: int,
        seq: int,
    ) -> None:
        self._transport = transport
        self._p = p
        self._data = data
        self._words = words
        self.dest = dest
        self.tag = tag
        self.seq = seq
        self.done = False
        self.value: Any = None
        p.send(dest, data, words=words, tag=tag, seq=seq, posted=True)
        self._posted_clock = p.clock

    def wait(self) -> Generator[Any, None, None]:
        """Wait for the ack, retransmitting on timeout like ``send``."""
        if not self.done:
            yield from self._transport._await_ack(
                self._p, self.dest, self._data, self._words, self.tag,
                self.seq, posted=True, anchor=self._posted_clock,
            )
            self.done = True

    def test(self) -> bool:
        """True (and completed) iff the ack has already arrived.

        Never retransmits — retries are driven by :meth:`wait`'s
        simulated-time deadlines, which a zero-cost poll must not touch.
        """
        if self.done:
            return True
        p = self._p
        ack_tag = ACK_TAG_BASE + self.tag
        ack_channel = (self.dest, p.rank, ack_tag)
        while p._engine.has_arrived(ack_channel, p.clock):
            msg = p._engine.try_pop(ack_channel)
            ack = msg.data
            if isinstance(ack, int) and ack >= self.seq:
                self.done = True
                return True
        return False


class CheckpointStore:
    """Stable storage for per-rank, per-step kernel state.

    Survives engine restarts (it lives outside the run), so a program
    restarted by :func:`run_resilient` finds the checkpoints of the
    crashed attempt.  States are deep-copied on the way in and out —
    a checkpoint must not alias live kernel arrays.

    Only the newest ``keep`` steps per rank are retained.  ``keep=2``
    suffices for bulk-synchronous kernels: a rank can be at most one
    checkpoint interval ahead of any other (each save happens behind a
    collective every rank participates in), so the consistent restore
    step — ``min`` over ranks of each rank's newest step — is always
    still retained on every rank.
    """

    def __init__(self, nprocs: int, keep: int = 2) -> None:
        if nprocs <= 0:
            raise FaultError(f"nprocs must be positive, got {nprocs}")
        if keep < 1:
            raise FaultError(f"keep must be >= 1, got {keep}")
        self.nprocs = nprocs
        self.keep = keep
        self._states: list[dict[int, Any]] = [{} for _ in range(nprocs)]
        self._lock = threading.Lock()
        self.saves = 0
        self.restores = 0

    def save(self, rank: int, step: int, state: Any) -> None:
        """Checkpoint *state* for *rank* at iteration *step*."""
        with self._lock:
            saved = self._states[rank]
            saved[step] = copy.deepcopy(state)
            while len(saved) > self.keep:
                del saved[min(saved)]
            self.saves += 1

    def latest_common_step(self) -> int | None:
        """Newest step every rank has saved, or ``None`` before the first.

        ``min`` over ranks of each rank's newest saved step: the unique
        consistent restore point (see class docstring).
        """
        with self._lock:
            if any(not saved for saved in self._states):
                return None
            return min(max(saved) for saved in self._states)

    def load(self, rank: int, step: int) -> Any:
        """Fetch *rank*'s state at *step* (deep copy)."""
        with self._lock:
            saved = self._states[rank]
            if step not in saved:
                raise FaultError(
                    f"P{rank} has no checkpoint for step {step} "
                    f"(retained: {sorted(saved)})"
                )
            self.restores += 1
            return copy.deepcopy(saved[step])

    def clear(self) -> None:
        with self._lock:
            self._states = [{} for _ in range(self.nprocs)]


#: The checkpoint policy an iterative kernel body takes: ``(restore,
#: save)``.  ``restore(p)`` gives the consistent restart step and this
#: rank's state there, ``(0, None)`` when there is nothing to resume;
#: ``save(p, step, total, state)`` is offered the state after every
#: iteration.  :mod:`repro.kernels.resilient` builds the store-backed pair.
CheckpointHooks = tuple[
    Callable[[Proc], tuple[int, Any]], Callable[[Proc, int, int, Any], None]
]

#: The pair of a kernel that keeps no checkpoints (the plain entry points).
NO_CHECKPOINTS: CheckpointHooks = (
    lambda p: (0, None),
    lambda p, step, total, state: None,
)


@dataclass
class ResilientResult:
    """Outcome of a supervised run: the final result plus restart history."""

    result: RunResult
    restarts: int
    fired_crashes: tuple[CrashFault, ...] = ()
    plan: FaultPlan | None = None  # plan of the final (successful) attempt

    @property
    def values(self) -> list[Any]:
        return self.result.values

    def value(self, rank: int = 0) -> Any:
        return self.result.value(rank)

    @property
    def makespan(self) -> float:
        return self.result.makespan

    @property
    def metrics(self):
        return self.result.metrics


#: Errors that may be the *symptom* of an injected crash: the crash
#: itself, the survivors deadlocking on the dead rank, a nonblocking
#: request failing against it, or a reliable sender exhausting retries
#: against it.
_RESTARTABLE = (
    RankCrashedError,
    DeadlockError,
    PeerCrashedError,
    RetryExhaustedError,
)


def run_resilient(
    program: Callable[..., Generator],
    topology: Topology,
    model: MachineModel | None = None,
    args: tuple = (),
    kwargs: dict | None = None,
    per_rank_args: list[tuple] | None = None,
    plan: FaultPlan | None = None,
    backend: str = "engine",
    trace: bool = False,
    max_restarts: int = 4,
    deadlock_timeout: float = 5.0,
) -> ResilientResult:
    """Run *program* under *plan*, restarting across injected crashes.

    A failed attempt whose engine fired at least one injected crash is
    restarted with those crashes removed from the plan (the machine
    recovered); programs using a caller-owned :class:`CheckpointStore`
    (passed through *kwargs*) resume from their last consistent
    checkpoint instead of from scratch.  Errors with no fired crash —
    genuine deadlocks, retry exhaustion under pure message loss — are
    re-raised unchanged.

    The returned metrics fold in the fault counters of every failed
    attempt plus a ``restart`` counter, so ``metrics.faults`` accounts
    for the whole supervised run, not just the successful attempt.
    """
    engine_cls = BACKENDS.get(backend)
    if engine_cls is None:
        raise FaultError(f"unknown backend {backend!r}: use one of {sorted(BACKENDS)}")
    # Only the threaded driver has a watchdog interval to pass on.
    options = (
        {"deadlock_timeout": deadlock_timeout} if engine_cls is ThreadedEngine else {}
    )
    current = plan if plan is not None else FaultPlan()
    restarts = 0
    fired_total: list[CrashFault] = []
    carried_faults: dict[str, int] = {}

    while True:
        engine = engine_cls(
            topology, model=model, trace=trace, faults=current, **options
        )
        try:
            result = engine.run(
                program, args=args, kwargs=kwargs, per_rank_args=per_rank_args
            )
            break
        except _RESTARTABLE:
            fired = engine.faults.fired_crashes if engine.faults is not None else ()
            if not fired or restarts >= max_restarts:
                raise
            for key, count in engine.metrics.faults.items():
                carried_faults[key] = carried_faults.get(key, 0) + count
            for crash in fired:
                current = current.without_crash(crash.rank, crash.at_time)
            fired_total.extend(fired)
            restarts += 1

    metrics = result.metrics
    if metrics is not None:
        for key, count in carried_faults.items():
            metrics.faults[key] = metrics.faults.get(key, 0) + count
        if restarts:
            metrics.faults["restart"] = metrics.faults.get("restart", 0) + restarts
    return ResilientResult(
        result=result,
        restarts=restarts,
        fired_crashes=tuple(fired_total),
        plan=current,
    )
