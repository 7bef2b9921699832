"""Threaded execution backend: the same SPMD programs, real concurrency.

The deterministic generator engine (:mod:`repro.machine.engine`) is the
primary substrate, but nothing about the programs is simulator-specific:
this module runs the *same* generator functions with one OS thread per
logical processor, blocking receives on condition variables.  Numeric
results are identical (message matching is FIFO per (source, dest, tag)
channel and receives name their source), and the simulated clocks are
still maintained, so analytic comparisons keep working — only the
*scheduling* is now genuinely concurrent.

This stands in for what an mpi4py port would look like, without the MPI
launcher awkwardness: ``run_spmd_threaded(prog, topology, model, ...)``
is a drop-in replacement for :func:`repro.machine.engine.run_spmd`.

Fault injection composes unchanged: message fates are pure functions of
``(seed, channel, attempt)`` (see :mod:`repro.machine.faults`), and the
per-channel attempt/dedup state the Proc layer keeps on the engine is
only ever touched by the single sending thread of that channel.

Deadlock handling: a watchdog flags the run when every live thread has
been blocked on an empty channel for ``deadlock_timeout`` seconds and
raises :class:`repro.errors.DeadlockError` (with a forensics report) in
the caller.  Timed receives (:meth:`Proc.recv_deadline`) piggyback on
the same global-stall detection: when the machine stalls, the timed
waiter with the earliest simulated deadline fires instead of a deadlock
— exactly the generator engine's rule, so both backends time out in the
same simulated order.
"""

from __future__ import annotations

import threading
from collections import deque
from collections.abc import Callable, Generator
from typing import Any

from repro.errors import DeadlockError, MachineError, RankCrashedError
from repro.machine.engine import Channel, Engine, Proc, RunResult, _Message
from repro.machine.faults import FaultPlan, FaultState
from repro.machine.forensics import RECENT_EVENTS, DeadlockReport, build_report
from repro.machine.metrics import Metrics
from repro.machine.model import MachineModel
from repro.machine.topology import Topology
from repro.machine.trace import Trace, TraceLane


class ThreadedEngine:
    """Duck-type of :class:`repro.machine.engine.Engine` over threads."""

    def __init__(
        self,
        topology: Topology,
        model: MachineModel | None = None,
        trace: bool = False,
        deadlock_timeout: float = 5.0,
        faults: FaultPlan | None = None,
    ) -> None:
        self.topology = topology
        self.model = model or MachineModel()
        self.procs = [Proc(self, r) for r in range(topology.size)]
        self._queues: dict[Channel, deque[_Message]] = {}
        self._cv = threading.Condition()
        # rank -> tuple of channels it is parked on (several for waitany)
        self._wait_channels: dict[int, tuple[Channel, ...]] = {}
        self._live = 0
        self._deadlocked = False
        self._deadlock_timeout = deadlock_timeout
        self.message_count = 0
        self.message_words = 0
        self._tracing = trace
        self.trace = Trace(TraceLane() for _ in range(topology.size))
        self.metrics = Metrics(topology.size, threadsafe=True)
        self._observe = self.metrics.observe  # what the shared record() calls
        self.fault_plan = faults
        self.faults: FaultState | None = None
        self._timed: dict[int, float] = {}  # waiting rank -> recv deadline
        self._timeout_fired: set[int] = set()
        # Route-length cache shared with Proc.send (reads are GIL-atomic;
        # a racing double-compute stores the same deterministic value).
        self._hops: dict[tuple[int, int], int] = {}
        # Attempt counters and reliable-dedup state are keyed by channel;
        # each channel has exactly one sending rank, so each key is only
        # ever touched by that rank's thread (GIL-atomic dict ops).
        self._send_attempts: dict[Channel, int] = {}
        self._reliable_last: dict[Channel, int] = {}
        self._recent: list[deque] = [
            deque(maxlen=RECENT_EVENTS) for _ in range(topology.size)
        ]
        self._deadlock_report: DeadlockReport | None = None

    def _reset_run_state(self) -> None:
        """Reset clocks, queues, counters and lanes before each run."""
        for proc in self.procs:
            proc.clock = 0.0
            proc.scope = ""
        self._queues = {}
        self._wait_channels = {}
        self._deadlocked = False
        self.message_count = 0
        self.message_words = 0
        self.trace = Trace(TraceLane() for _ in self.procs)
        self.metrics = Metrics(self.topology.size, threadsafe=True)
        self._observe = self.metrics.observe
        self.faults = (
            FaultState(self.fault_plan) if self.fault_plan is not None else None
        )
        self._timed = {}
        self._timeout_fired = set()
        self._send_attempts = {}
        self._reliable_last = {}
        self._recent = [deque(maxlen=RECENT_EVENTS) for _ in self.procs]
        self._deadlock_report = None

    # -- messaging (same protocol the Proc handle expects) ----------------
    def deliver(self, msg: _Message) -> None:
        with self._cv:
            channel: Channel = (msg.source, msg.dest, msg.tag)
            self._queues.setdefault(channel, deque()).append(msg)
            if not msg.system:
                self.message_count += 1
                self.message_words += msg.words
            self._cv.notify_all()

    def try_pop(self, channel: Channel):
        with self._cv:
            queue = self._queues.get(channel)
            if not queue:
                return None
            return queue.popleft()

    def try_pop_before(
        self, channel: Channel, deadline: float
    ) -> tuple[str, _Message | None]:
        """Locked counterpart of :meth:`Engine.try_pop_before`."""
        with self._cv:
            queue = self._queues.get(channel)
            if not queue:
                return "empty", None
            if queue[0].available <= deadline:
                return "msg", queue.popleft()
            return "late", None

    def has_message(self, channel: Channel) -> bool:
        with self._cv:
            return bool(self._queues.get(channel))

    def peek_available(self, channel: Channel) -> float | None:
        """Availability time of the FIFO head, or ``None`` when empty."""
        with self._cv:
            queue = self._queues.get(channel)
            if not queue:
                return None
            return queue[0].available

    def has_arrived(self, channel: Channel, now: float) -> bool:
        """True when the FIFO head exists and is available by *now*."""
        avail = self.peek_available(channel)
        return avail is not None and avail <= now

    # -- fault bookkeeping ------------------------------------------------
    def next_attempt(self, channel: Channel) -> int:
        """Per-channel attempt counter (thread-confined to the sender)."""
        attempt = self._send_attempts.get(channel, 0)
        self._send_attempts[channel] = attempt + 1
        return attempt

    def consume_timeout(self, rank: int) -> bool:
        """Check-and-clear the 'your timed receive expired' flag."""
        with self._cv:
            if rank in self._timeout_fired:
                self._timeout_fired.discard(rank)
                return True
            return False

    record = Engine.record
    _result = Engine._result

    # -- stall detection ---------------------------------------------------
    def _true_deadlock(self) -> bool:
        """All live threads blocked *and* none has a pending wake-up.

        Must be called with the condition lock held.  A thread whose
        message has already arrived but which has not yet woken up still
        counts as waiting, so emptiness of every waited channel is the
        decisive test; a thread whose timeout has fired but which has not
        resumed yet counts as *runnable*, so only one timed waiter fires
        per stall (matching the generator engine's one-event-at-a-time
        rule).
        """
        if len(self._wait_channels) < self._live:
            return False
        if any(rank in self._timeout_fired for rank in self._wait_channels):
            return False
        return all(
            not self._queues.get(ch)
            for chans in self._wait_channels.values()
            for ch in chans
        )

    def _peer_crashed_locked(self, chans: tuple[Channel, ...]) -> bool:
        """True when any source rank of *chans* has a fired injected crash."""
        if self.faults is None:
            return False
        return any(self.faults.fired_crash(ch[0]) is not None for ch in chans)

    def _fire_earliest_timeout_locked(self) -> int | None:
        """Wake the timed waiter with the smallest deadline (lock held)."""
        if not self._timed:
            return None
        rank = min(self._timed, key=lambda r: (self._timed[r], r))
        del self._timed[rank]
        self._timeout_fired.add(rank)
        self._cv.notify_all()
        return rank

    def _build_report_locked(self) -> DeadlockReport:
        waiting = {
            ch: rank for rank, chans in self._wait_channels.items() for ch in chans
        }
        return build_report(
            nprocs=len(self.procs),
            waiting=waiting,
            clocks=[p.clock for p in self.procs],
            timed=dict(self._timed),
            recent=self._recent,
        )

    # -- scheduler ----------------------------------------------------------
    def run(
        self,
        program: Callable[..., Generator],
        args: tuple = (),
        kwargs: dict | None = None,
        per_rank_args: list[tuple] | None = None,
    ) -> RunResult:
        self._reset_run_state()
        kwargs = kwargs or {}
        values: list[Any] = [None] * len(self.procs)
        errors: list[BaseException | None] = [None] * len(self.procs)

        def worker(proc: Proc) -> None:
            rank = proc.rank
            try:
                rank_args = per_rank_args[rank] if per_rank_args is not None else args
                result = program(proc, *rank_args, **kwargs)
                if not isinstance(result, Generator):
                    values[rank] = result
                    return
                while True:
                    try:
                        channel, deadline = next(result)
                    except StopIteration as stop:
                        values[rank] = stop.value
                        return
                    # Blocked receive: wait until a message shows up (or,
                    # for timed receives, until the stall watchdog fires
                    # this rank's deadline).  A nonblocking wait parks on
                    # a *tuple* of channels (waitany) and additionally
                    # wakes when a waited-on peer crashed, so its request
                    # can fail with the crash context instead of wedging.
                    nb_park = isinstance(channel[0], tuple)
                    chans = channel if nb_park else (channel,)
                    blocked_desc = " | ".join(
                        f"recv(source={ch[0]}, tag={ch[2]})" for ch in chans
                    )
                    with self._cv:
                        self._wait_channels[rank] = chans
                        if deadline is not None:
                            self._timed[rank] = deadline
                        try:
                            while not any(self._queues.get(ch) for ch in chans):
                                if rank in self._timeout_fired:
                                    break  # resume; recv will consume it
                                if nb_park and self._peer_crashed_locked(chans):
                                    # Resume; the nonblocking wait loop
                                    # raises PeerCrashedError.
                                    break
                                if self._deadlocked:
                                    raise DeadlockError({rank: blocked_desc})
                                if self._true_deadlock():
                                    # Global stall: an expired timed recv
                                    # is the only way forward; none left
                                    # means a true deadlock.
                                    fired = self._fire_earliest_timeout_locked()
                                    if fired is not None:
                                        if fired == rank:
                                            break
                                        continue
                                    self._deadlocked = True
                                    if self._deadlock_report is None:
                                        self._deadlock_report = (
                                            self._build_report_locked()
                                        )
                                    self._cv.notify_all()
                                    raise DeadlockError({rank: blocked_desc})
                                # A wait timeout alone is not a deadlock —
                                # another thread may simply be computing;
                                # loop and re-check the global condition.
                                self._cv.wait(timeout=self._deadlock_timeout)
                        finally:
                            self._wait_channels.pop(rank, None)
                            self._timed.pop(rank, None)
            except BaseException as exc:  # noqa: BLE001 - reported to caller
                errors[rank] = exc
            finally:
                with self._cv:
                    self._live -= 1
                    self._cv.notify_all()

        threads = [
            threading.Thread(target=worker, args=(proc,), name=f"spmd-{proc.rank}")
            for proc in self.procs
        ]
        self._live = len(threads)
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        # Error priority: an injected crash is the root cause (consequent
        # deadlocks in peers are collateral), then any other program
        # error, then deadlock.
        for e in errors:
            if isinstance(e, RankCrashedError):
                raise e
        for e in errors:
            if e is not None and not isinstance(e, DeadlockError):
                raise e
        deadlocks = [e for e in errors if isinstance(e, DeadlockError)]
        if deadlocks:
            blocked: dict[int, str] = {}
            for e in deadlocks:
                blocked.update(e.blocked)
            raise DeadlockError(blocked, report=self._deadlock_report)

        # Same packaging as the calendar engine: the twins must produce
        # identical metrics, obs group included.
        return self._result(values)


def run_spmd_threaded(
    program: Callable[..., Generator],
    topology: Topology,
    model: MachineModel | None = None,
    args: tuple = (),
    kwargs: dict | None = None,
    per_rank_args: list[tuple] | None = None,
    trace: bool = False,
    deadlock_timeout: float = 5.0,
    faults: FaultPlan | None = None,
) -> RunResult:
    """Drop-in threaded counterpart of :func:`repro.machine.run_spmd`."""
    if topology.size > 256:
        raise MachineError(
            f"threaded backend capped at 256 threads, got {topology.size}"
        )
    engine = ThreadedEngine(
        topology, model=model, trace=trace, deadlock_timeout=deadlock_timeout,
        faults=faults,
    )
    return engine.run(program, args=args, kwargs=kwargs, per_rank_args=per_rank_args)
