"""Discrete-event SPMD engine.

An SPMD program is a generator function ``def prog(p: Proc, *args)``.
Each of the ``P`` logical processors runs one instance of the program.
Local computation is accounted with :meth:`Proc.compute`; communication
uses :meth:`Proc.send` (plain call, buffered/non-blocking, like the
paper's ``send_to_right``) and :meth:`Proc.recv` (blocking, must be
invoked as ``value = yield from p.recv(src)``).

Clock semantics (see :mod:`repro.machine.model`):

* ``compute(flops)`` advances the local clock by ``flops * tf``;
* ``send`` advances the sender by its occupancy and stamps the message
  with its availability time;
* ``recv`` waits (in simulated time) until the message is available,
  then pays the receiver occupancy.

Because sends never block and receives name their source, the simulated
timestamps and all numeric results are independent of the engine's
scheduling order — the simulation is deterministic.

This module is the reliable machine of the paper (§2.2): no method of
:class:`Proc` reads a fault plan.  ``Engine(…, faults=plan)`` builds
:class:`repro.machine.faults.FaultProc` processors instead, which add
slowdown, crashes and message fates around the core's steps; the one
thing a sequenced send (``seq=``) gets from the core is the NIC's
per-channel dedup and ack, which reliable runs need with or without a
plan.

The scheduler is an indexed event calendar (:class:`EventCalendar`): a
FIFO of ready ranks and a heap of timed-receive deadlines (ordered by
``(deadline, rank)``), plus reverse indexes from parked ranks to their
channels and from source ranks to the nonblocking waiters listening on
them.  Picking the next runnable rank is O(1), firing a deadline
O(log N) — no full scans — while reproducing the historic deque
scheduler's event order bit-exactly (see ``docs/ENGINE.md`` for the
tie-break contract and the parity goldens that pin it).

The engine detects deadlock (every live processor blocked on an empty
channel) and raises :class:`repro.errors.DeadlockError` carrying a
:class:`repro.machine.forensics.DeadlockReport`.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Callable, Generator
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.errors import (
    CommunicationError,
    DeadlockError,
    MachineError,
)
from repro.machine.forensics import RECENT_EVENTS, build_report
from repro.machine.metrics import Metrics
from repro.machine.model import MachineModel
from repro.machine.topology import Topology
from repro.machine.trace import Trace, TraceLane
from repro.obs.context import stamp_current

if TYPE_CHECKING:
    from repro.machine.faults import FaultPlan

Channel = tuple[int, int, int]  # (source, dest, tag)


#: Tag offset for engine-synthesized acknowledgements of reliable sends.
#: Program sends must stay below this (``Proc.send`` rejects the rest);
#: the reliable layer listens on ``ACK_TAG_BASE + tag`` for the ack of a
#: data message sent on ``tag``.
ACK_TAG_BASE = 1 << 20


class _TimedOut:
    """Singleton sentinel returned by :meth:`Proc.recv_deadline` on timeout."""

    _instance = None

    def __new__(cls) -> "_TimedOut":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "TIMED_OUT"

    def __bool__(self) -> bool:
        return False


TIMED_OUT = _TimedOut()


class EventCalendar:
    """Indexed event calendar: a ready FIFO and a deadline heap.

    * ``ready`` is a deque of runnable ranks, popped in exact push order
      (the historic deque scheduler's order);
    * timeout events ``(deadline, rank)`` sit on a heap — among due
      timeouts it pops the smallest ``(deadline, rank)``, the historic
      ``min(self._timed, ...)`` tie-break, reproduced bit-exactly.

    Ready work always drains before a timeout may fire.  ``timed`` is the
    live rank → deadline view (consumed by the deadlock forensics report)
    and the only liveness record: a heap entry is live iff ``timed`` still
    maps its rank to its deadline.  Cancelling or re-arming just rewrites
    ``timed``; the stale heap entry is discarded when it surfaces.  (A
    re-arm with an *equal* deadline leaves two entries with one key, so
    whichever surfaces first fires at the same place in the order.)
    """

    __slots__ = ("ready", "push_ready", "_heap", "timed")

    def __init__(self) -> None:
        self.ready: deque[int] = deque()
        self.push_ready = self.ready.append
        self._heap: list[tuple[float, int]] = []
        self.timed: dict[int, float] = {}

    def push_timeout(self, rank: int, deadline: float) -> None:
        self.timed[rank] = deadline
        heappush(self._heap, (deadline, rank))

    def cancel_timeout(self, rank: int) -> None:
        self.timed.pop(rank, None)  # the heap entry is now stale

    def pop_ready(self) -> int | None:
        """Next runnable rank in FIFO order, or ``None`` when drained."""
        return self.ready.popleft() if self.ready else None

    def pop_due_timeout(self) -> int | None:
        """Disarm and return the earliest live timed waiter, if any."""
        if self.ready:
            return None
        heap = self._heap
        timed = self.timed
        while heap:
            deadline, rank = heappop(heap)
            if timed.get(rank) == deadline:
                del timed[rank]
                return rank
        return None


class _Unsizable(CommunicationError):
    """Raised at a payload leaf that cannot be sized.  Containers add
    their subscript as it passes, so the message names the full path
    (``payload['a'][2]``) and nothing builds paths on the success path."""

    def __init__(self, type_name: str) -> None:
        super().__init__(type_name)
        self.subscripts: list[Any] = []  # innermost first

    def __str__(self) -> str:
        path = "".join(f"[{key!r}]" for key in reversed(self.subscripts))
        return (
            f"cannot infer word count for payload{path} of type "
            f"{self.args[0]}; pass words="
        )


def _sum_words(items: Any) -> int:
    """Total words of ``(subscript, item)`` pairs."""
    total = 0
    for key, item in items:
        try:
            total += _payload_words(item)
        except _Unsizable as err:
            err.subscripts.append(key)
            raise
    return total


def _payload_words(data: Any) -> int:
    """Number of machine words a payload occupies on the wire."""
    if isinstance(data, np.ndarray):
        dtype = data.dtype
        if dtype.kind == "O":
            # An object array (e.g. a ragged list of gather index
            # vectors) stores references; count the referents.
            return _sum_words(enumerate(data.flat))
        if dtype.names:
            # Structured gather payloads: .size counts records, not
            # fields — charge each named field's column separately.
            return _sum_words((name, data[name]) for name in dtype.names)
        return data.size
    if isinstance(data, (bool, int, float, complex, np.bool_, np.integer, np.floating)):
        return 1
    if isinstance(data, np.void):
        # One record of a structured array (e.g. msg[0]): per-field.
        return _sum_words((name, data[name]) for name in data.dtype.names or ())
    if isinstance(data, dict):
        return _sum_words(data.items())
    if isinstance(data, (tuple, list)):
        return _sum_words(enumerate(data))
    if data is None:
        return 0
    raise _Unsizable(type(data).__name__)


def _payload_copy(data: Any) -> Any:
    """Snapshot a payload so later sender-side mutation cannot corrupt it."""
    if isinstance(data, np.ndarray):
        return data.copy()
    if isinstance(data, dict):
        return {key: _payload_copy(value) for key, value in data.items()}
    if isinstance(data, list):
        return [_payload_copy(item) for item in data]
    if isinstance(data, tuple):
        return tuple(_payload_copy(item) for item in data)
    return data


@dataclass(slots=True)
class _Message:
    data: Any
    words: int
    available: float  # simulated time at which the receiver may consume it
    sent_at: float
    source: int
    dest: int
    tag: int
    seq: int | None = None  # sequence number of reliable transfers
    system: bool = False  # engine-synthesized (acks): excluded from counters


@dataclass
class RunResult:
    """Outcome of an SPMD run.

    Attributes
    ----------
    values:
        Per-rank return value of the program generator.
    finish_times:
        Per-rank simulated clock at termination.
    makespan:
        ``max(finish_times)`` — the paper's "total execution time".
    message_count / message_words:
        Aggregate communication volume (program messages only; the acks
        synthesized for reliable transfers are accounted in
        ``metrics.faults`` instead).
    trace:
        Per-rank event lanes (only when tracing was enabled): a
        :class:`repro.machine.trace.Trace`, a list of
        :class:`~repro.machine.trace.TraceLane` sequences that
        materialize :class:`~repro.machine.trace.TraceEvent` objects
        lazily, owning the run's :class:`~repro.machine.trace.TraceIndex`.
    metrics:
        Aggregated per-rank / per-tag / per-collective counters
        (:class:`repro.machine.metrics.Metrics`), always populated.
    """

    values: list[Any]
    finish_times: list[float]
    message_count: int
    message_words: int
    trace: Trace | None = None
    metrics: Metrics | None = None

    @property
    def makespan(self) -> float:
        return max(self.finish_times) if self.finish_times else 0.0

    def value(self, rank: int = 0) -> Any:
        return self.values[rank]


class _Scope:
    """Context manager of :meth:`Proc.scoped`: pushes a label on entry and
    restores the previous scope on exit, exceptions and ``GeneratorExit``
    of a rank closed mid-collective included."""

    __slots__ = ("_proc", "_label", "_prev")

    def __init__(self, proc: "Proc", label: str) -> None:
        self._proc = proc
        self._label = label

    def __enter__(self) -> "Proc":
        proc = self._proc
        self._prev = prev = proc.scope
        proc.scope = f"{prev}/{self._label}" if prev else self._label
        return proc

    def __exit__(self, *exc: object) -> None:
        self._proc.scope = self._prev


class Proc:
    """Handle through which an SPMD program interacts with the machine."""

    def __init__(self, engine: "Engine", rank: int) -> None:
        self._engine = engine
        # The occupancy model, bound once: the fault layer gives a slowed
        # rank its own (:class:`repro.machine.faults.FaultProc`).
        self._model = engine.model
        self.rank = rank
        self.clock = 0.0
        self.scope = ""  # active collective label stack (see scoped())
        # Channel endpoints already validated by _check_channel; endpoint
        # validity is stateless, so successes are cached per direction.
        self._ok_send: set[tuple[int, int]] = set()
        self._ok_recv: set[tuple[int, int]] = set()

    # -- identity -------------------------------------------------------
    @property
    def nprocs(self) -> int:
        return self._engine.topology.size

    @property
    def topology(self) -> Topology:
        return self._engine.topology

    @property
    def model(self) -> MachineModel:
        return self._engine.model

    def __repr__(self) -> str:
        return f"Proc(rank={self.rank}, clock={self.clock:.3f})"

    def scoped(self, label: str) -> "_Scope":
        """Label every event recorded inside the ``with`` block with *label*.

        Nested scopes join with ``/`` (``allreduce/reduce``), so metrics
        can attribute time and volume to the primitive that caused it.
        """
        return _Scope(self, label)

    def mark(self, detail: str, peer: int | None = None, tag: int = 0) -> None:
        """Record a zero-duration resilience marker (``fault`` event).

        Used by the NIC's acks, the fault layer and the reliable-transfer
        and checkpoint layers to surface ``ack`` / ``drop`` / ``retry`` /
        ``checkpoint`` / ``restore`` events into :attr:`Metrics.faults`
        and the Chrome-trace export.
        """
        self._engine.record(
            self.rank, "fault", self.clock, self.clock, peer=peer, tag=tag,
            detail=detail, scope=self.scope,
        )

    # -- local work -------------------------------------------------------
    def compute(self, flops: float, label: str = "") -> None:
        """Account *flops* floating-point operations of local work."""
        if flops < 0:
            raise MachineError(f"negative flops: {flops}")
        engine = self._engine
        start = self.clock
        self.clock = start + flops * engine.model.tf
        engine.record(
            self.rank, "compute", start, self.clock, None, 0, 0, label, self.scope
        )

    def delay(self, seconds: float, label: str = "") -> None:
        """Advance the local clock by raw simulated seconds."""
        if seconds < 0:
            raise MachineError(f"negative delay: {seconds}")
        engine = self._engine
        start = self.clock
        self.clock = start + seconds
        engine.record(
            self.rank, "delay", start, self.clock, None, 0, 0, label, self.scope
        )

    # -- point-to-point ---------------------------------------------------
    def _endpoint(self, peer: int, tag: int, sending: bool) -> None:
        """Validate a channel endpoint unless this rank already has (the
        hot callers test the cache themselves and call this on a miss)."""
        ok = self._ok_send if sending else self._ok_recv
        if (peer, tag) not in ok:
            self._check_channel(peer, tag, sending)
            ok.add((peer, tag))

    def _check_channel(self, peer: int, tag: int, sending: bool) -> None:
        """Validate a point-to-point endpoint; identical in both backends."""
        verb = "send to" if sending else "receive from"
        if type(peer) is not int and (
            isinstance(peer, bool) or not isinstance(peer, (int, np.integer))
        ):
            raise CommunicationError(
                f"P{self.rank} cannot {verb} rank {peer!r}: rank must be an integer"
            )
        nprocs = self._engine.topology.size
        if not 0 <= peer < nprocs:
            raise CommunicationError(
                f"P{self.rank} cannot {verb} rank {int(peer)}: "
                f"valid ranks are 0..{nprocs - 1}"
            )
        if peer == self.rank:
            raise CommunicationError(f"P{self.rank} attempted to {verb} itself")
        if type(tag) is not int and (
            isinstance(tag, bool) or not isinstance(tag, (int, np.integer))
        ):
            raise CommunicationError(
                f"P{self.rank} cannot {verb} P{int(peer)} with tag {tag!r}: "
                "tag must be an integer"
            )
        if tag < 0:
            raise CommunicationError(
                f"P{self.rank} cannot {verb} P{int(peer)} with negative tag {tag}"
            )
        if sending and tag >= ACK_TAG_BASE:
            raise CommunicationError(
                f"P{self.rank} cannot {verb} P{int(peer)} with tag {tag}: tags from "
                f"{ACK_TAG_BASE} up are reserved for acknowledgements"
            )

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
        """Buffered non-blocking send (plain call — do *not* ``yield from``).

        *seq* marks the message as reliable traffic: the engine assigns
        sequence-number deduplication and synthesizes an ack on
        ``ACK_TAG_BASE + tag`` (see :mod:`repro.machine.resilient`).

        *posted* injects the message through the nonblocking path
        (:mod:`repro.machine.nonblocking`): the sender pays only the
        per-message startup (:meth:`MachineModel.post_occupancy`) and the
        NIC streams the body concurrently
        (:meth:`MachineModel.posted_wire_latency`); the event is recorded
        as ``isend`` instead of ``send``.
        """
        engine = self._engine
        if (dest, tag) not in self._ok_send:
            self._endpoint(dest, tag, True)
        nwords = _payload_words(data) if words is None else int(words)
        if nwords < 0:
            raise CommunicationError(f"negative message size {nwords}")
        model = self._model
        start = self.clock
        hops_cache = engine._hops
        key = (self.rank, dest)
        hops = hops_cache.get(key)
        if hops is None:
            hops = hops_cache[key] = engine.topology.hops(self.rank, dest)
        if posted:
            self.clock = start + model.post_occupancy(nwords)
            available = self.clock + model.posted_wire_latency(nwords, hops)
            kind = "isend"
        else:
            self.clock = start + model.send_occupancy(nwords)
            available = self.clock + model.wire_latency(nwords, hops)
            kind = "send"
        msg = _Message(
            _payload_copy(data), nwords, available, start, self.rank, dest, tag, seq
        )
        # Record the send before delivering: acks and fault markers are
        # zero-duration events at the send's end time, and lanes must stay
        # time-ordered for the critical-path walker.
        engine.record(
            self.rank, kind, start, self.clock, dest, nwords, tag, "", self.scope
        )
        if seq is None:
            self._deliver(engine, msg)
        else:
            self._commit(msg)

    def _commit(self, msg: _Message) -> None:
        """Deliver one copy of a sequenced message, with receiver-side
        dedup and the ack.

        Copies are deduplicated per channel; a suppressed duplicate is
        still re-acked, otherwise a sender whose ack was lost would retry
        forever.  Runs on the sending rank (synchronously inside
        ``send``), so each channel's dedup state advances in that rank's
        program order alone.
        """
        engine = self._engine
        channel: Channel = (msg.source, msg.dest, msg.tag)
        if msg.seq <= engine._reliable_last.get(channel, -1):
            self.mark("dup-suppressed", msg.dest, msg.tag)
        else:
            engine._reliable_last[channel] = msg.seq
            engine.deliver(msg)
        self._ack(msg)

    def _ack(self, data_msg: _Message) -> None:
        """Synthesize the hardware-level ack for a sequenced data message.

        The ack is a *system* message: it models the NIC acknowledging
        receipt, costs no occupancy on either rank, is excluded from the
        program's message counters, and becomes available one word-time
        after the data did.  It is never duplicated or deduplicated.
        """
        ack = _Message(
            data=data_msg.seq,
            words=1,
            available=data_msg.available + self._engine.model.words(1),
            sent_at=data_msg.available,
            source=data_msg.dest,
            dest=data_msg.source,
            tag=ACK_TAG_BASE + data_msg.tag,
            seq=data_msg.seq,
            system=True,
        )
        self.mark("ack", data_msg.dest, data_msg.tag)
        self._deliver(self._engine, ack)

    def _recv_impl(
        self, source: int, tag: int, deadline: float | None
    ) -> Generator[Any, None, Any]:
        """Shared receive loop; parks by yielding ``(channel, deadline)``."""
        channel: Channel = (source, self.rank, tag)
        block_start = self.clock
        engine = self._engine
        if deadline is None:
            msg = engine.try_pop(channel)
            while msg is None:
                yield (channel, None)  # parked by the engine until a send arrives
                msg = engine.try_pop(channel)
        else:
            msg = engine.try_pop_by(channel, deadline)
            while msg is None:
                yield (channel, deadline)
                msg = engine.try_pop_by(channel, deadline)
            if msg is TIMED_OUT:
                # Expired: idle until the deadline (``recv_deadline``
                # clamped it to the clock or later), then the marker.
                if deadline > block_start:
                    engine.record(
                        self.rank, "wait", block_start, deadline, source, 0, tag,
                        "", self.scope,
                    )
                    self.clock = deadline
                engine.record(
                    self.rank, "fault", self.clock, self.clock, source, 0, tag,
                    "timeout", self.scope,
                )
                return TIMED_OUT
        arrival = msg.available
        if arrival > block_start:
            engine.record(
                self.rank, "wait", block_start, arrival, source, msg.words, tag,
                "", self.scope,
            )
        else:
            arrival = block_start
        self.clock = arrival + self._model.recv_occupancy(msg.words)
        engine.record(
            self.rank, "recv", arrival, self.clock, source, msg.words, tag,
            "", self.scope,
        )
        return msg.data

    def recv(self, source: int, tag: int = 0) -> Generator[Any, None, Any]:
        """Blocking receive — use as ``value = yield from p.recv(source)``.

        Accounting is split: the interval from blocking until the message
        became available is recorded as an idle ``wait`` event (omitted
        when the message was already there), and only the receiver
        occupancy (drain) is recorded as the ``recv`` event.

        (A plain function returning the receive generator — one generator
        per receive instead of a delegating pair, and endpoint errors
        surface at the call site.)
        """
        if (source, tag) not in self._ok_recv:
            self._endpoint(source, tag, False)
        return self._recv_impl(source, tag, None)

    def recv_deadline(
        self, source: int, tag: int = 0, *, deadline: float
    ) -> Generator[Any, None, Any]:
        """Receive with a simulated-time deadline.

        Returns the payload, or the :data:`TIMED_OUT` sentinel if no
        matching message becomes available by *deadline* — in which case
        the local clock advances to the deadline.  This is the primitive
        the reliable-transfer layer builds ack-wait/retry on.
        """
        if (source, tag) not in self._ok_recv:
            self._endpoint(source, tag, False)
        if type(deadline) is not float and (
            isinstance(deadline, bool)
            or not isinstance(deadline, (int, float, np.integer, np.floating))
        ) or deadline != deadline:
            raise CommunicationError(
                f"P{self.rank} cannot receive from P{source} by deadline "
                f"{deadline!r}: deadline must be a real number"
            )
        if deadline < self.clock:
            deadline = self.clock
        return self._recv_impl(source, tag, deadline)

    def probe(self, source: int, tag: int = 0) -> bool:
        """True when a matching message has *arrived* (no time cost).

        A message counts as arrived only once its availability time —
        which includes any :class:`~repro.machine.faults.FaultPlan`
        injected delay — is at or before this rank's local clock, so a
        delayed message stays invisible until its delayed arrival on both
        backends.  (Channels are FIFO: only the head is considered, a
        receive would have to drain it first anyway.)
        """
        if (source, tag) not in self._ok_recv:
            self._endpoint(source, tag, False)
        return self._engine.has_arrived((source, self.rank, tag), self.clock)


class Engine:
    """The machine core — processor state, the message store and the park /
    wake / stall rules — plus the deterministic event-calendar driver
    (:meth:`run`), which raises the first program error in ready order.
    :class:`repro.machine.threaded.ThreadedEngine` drains errors instead."""

    def __init__(
        self,
        topology: Topology,
        model: MachineModel | None = None,
        trace: bool = False,
        faults: FaultPlan | None = None,
    ) -> None:
        self.topology = topology
        self.model = model or MachineModel()
        self.procs: list[Proc] = []
        self._tracing = trace
        self.fault_plan = faults
        # Route lengths belong to the topology, not to a run.
        self._hops: dict[tuple[int, int], int] = {}
        self._reset_run_state()

    def _reset_run_state(self) -> None:
        """Start every :meth:`run` from a clean slate.

        Clocks, message counters, queues and trace lanes used to leak
        across repeated ``run()`` calls on the same engine; new lists are
        bound (not cleared) so results returned from earlier runs stay
        valid.  The processors are new too: each points back at the
        engine, so a run releases them when it ends (see :meth:`run`), and
        the next one builds its own.  A fault plan makes them
        :class:`~repro.machine.faults.FaultProc` processors over a fresh
        :class:`~repro.machine.faults.FaultState` (``faults``, ``None`` on
        the reliable machine).
        """
        proc_cls: type[Proc] = Proc
        self.faults = None
        if self.fault_plan is not None:
            from repro.machine.faults import FaultProc, FaultState

            proc_cls = FaultProc
            self.faults = FaultState(self.fault_plan)
        if not self.procs:
            self.procs = [proc_cls(self, r) for r in range(self.topology.size)]
        self._queues: dict[Channel, deque[_Message]] = {}
        self._waiting: dict[Channel, int] = {}  # channel -> parked rank
        self._parked_on: dict[int, Channel] = {}  # rank in a blocking receive
        self._nb_channels: dict[int, tuple[Channel, ...]] = {}  # rank in an nb wait
        self._nb_by_source: dict[int, set[int]] = {}  # source -> nb listeners
        self._calendar = EventCalendar()
        self.message_count = 0
        self.message_words = 0
        # Lanes exist only in a traced run; record() appends each row
        # straight onto its lane's row list.
        self.trace: Trace | None = None
        if self._tracing:
            self.trace = Trace([TraceLane() for _ in self.procs])
            self._lane_appends = [lane.append_raw for lane in self.trace]
        self.metrics = Metrics(self.topology.size)
        self._observe = self.metrics.observe  # what record() calls
        self._timeout_fired = [False] * len(self.procs)  # rank -> expired at a stall
        # Sequenced-dedup state is keyed by channel; each channel has
        # exactly one sending rank.
        self._reliable_last: dict[Channel, int] = {}
        self._recent = [deque(maxlen=RECENT_EVENTS) for _ in self.procs]

    # -- messaging ------------------------------------------------------
    def _unpark(self, rank: int) -> None:
        """Drop every park registration of *rank* (O(channels of rank)).

        A blocking receive registered one channel.  A waitany park
        registers several: waking it must clear every registration, or a
        later send on a sibling channel would "wake" a rank that is long
        gone.
        """
        channel = self._parked_on.pop(rank, None)
        if channel is not None:
            del self._waiting[channel]
        else:
            waiting = self._waiting
            by_source = self._nb_by_source
            for ch in self._nb_channels.pop(rank, ()):
                del waiting[ch]
                by_source[ch[0]].discard(rank)
        calendar = self._calendar
        if rank in calendar.timed:
            calendar.cancel_timeout(rank)

    def _park_nb(self, rank: int, channels: tuple[Channel, ...]) -> bool:
        """Register a nonblocking wait on *any* of *channels*; False when
        a message is already queued on one of them (nothing registered)."""
        queues = self._queues
        for ch in channels:
            if queues.get(ch):
                return False
        waiting = self._waiting
        by_source = self._nb_by_source
        for ch in channels:
            if ch in waiting:
                raise CommunicationError(
                    f"two processors waiting on the same channel {ch}"
                )
            waiting[ch] = rank
            listeners = by_source.get(ch[0])
            if listeners is None:
                listeners = by_source[ch[0]] = set()
            listeners.add(rank)
        self._nb_channels[rank] = channels
        return True

    def deliver(self, msg: _Message) -> None:
        channel: Channel = (msg.source, msg.dest, msg.tag)
        queues = self._queues
        queue = queues.get(channel)
        if queue is None:
            queue = queues[channel] = deque()
        queue.append(msg)
        if not msg.system:
            self.message_count += 1
            self.message_words += msg.words
        parked = self._waiting.get(channel)
        if parked is not None:
            self._unpark(parked)
            self._calendar.push_ready(parked)

    def try_pop(self, channel: Channel) -> _Message | None:
        queue = self._queues.get(channel)
        if not queue:
            return None
        return queue.popleft()

    def try_pop_by(
        self, channel: Channel, deadline: float
    ) -> _Message | _TimedOut | None:
        """The one question of a timed receive: the FIFO head if it arrives
        by *deadline*, :data:`TIMED_OUT` when the receive has expired, or
        ``None`` to park.

        Expired means the stall step fired this rank's timeout (the flag
        is consumed here, exactly once), or the head exists but becomes
        available only after the deadline — in simulated time the timeout
        fires first, so the message stays queued for the next receive.
        """
        if self._timeout_fired[channel[1]]:
            self._timeout_fired[channel[1]] = False
            return TIMED_OUT
        queue = self._queues.get(channel)
        if not queue:
            return None
        if queue[0].available <= deadline:
            return queue.popleft()
        return TIMED_OUT

    def peek_available(self, channel: Channel) -> float | None:
        """Availability time of the FIFO head, or ``None`` when empty."""
        queue = self._queues.get(channel)
        if not queue:
            return None
        return queue[0].available

    def has_arrived(self, channel: Channel, now: float) -> bool:
        """True when the FIFO head exists and is available by *now*."""
        avail = self.peek_available(channel)
        return avail is not None and avail <= now

    def record(
        self,
        rank: int,
        kind: str,
        start: float,
        end: float,
        peer: int | None = None,
        words: int = 0,
        tag: int = 0,
        detail: str = "",
        scope: str = "",
    ) -> None:
        """Account one event on *rank*'s metrics, recent ring and lane."""
        self._observe(rank, kind, start, end, peer, words, tag, scope, detail)
        self._recent[rank].append((kind, start, end, peer, tag, detail))
        if self._tracing:
            self._lane_appends[rank](
                (rank, kind, start, end, peer, words, tag, detail, scope)
            )

    def _result(self, values: list) -> RunResult:
        """Package a finished run.

        Correlates the run with the compile request that produced it
        (docs/OBSERVABILITY.md): the installed trace context — none
        outside ``tracing_context`` — is stamped into ``Metrics.obs``,
        and its run id onto the lanes, so every event materializes
        carrying it.
        """
        stamp_current(self.metrics)
        trace = self.trace
        if trace is not None:
            run = self.metrics.obs.get("run_id", "")
            for lane in trace:
                lane.run = run
        return RunResult(
            values=values,
            finish_times=[p.clock for p in self.procs],
            message_count=self.message_count,
            message_words=self.message_words,
            trace=trace,
            metrics=self.metrics,
        )

    # -- park / wake / stall rules -----------------------------------------
    def _park(self, rank: int, channel: Any, deadline: float | None) -> bool:
        """Register the park *rank*'s generator yielded; False when a
        message raced in while it was yielding (nothing registered — the
        receive retries).  A registered park arms *deadline* on the
        calendar.  :meth:`run` inlines the single-channel case: a call per
        park is measurable on its hot path.
        """
        if type(channel[0]) is tuple:
            # A waitany park (:mod:`repro.machine.nonblocking`) lists
            # several channels: wake on a message on *any* of them.
            if not self._park_nb(rank, channel):
                return False
        elif self._queues.get(channel):
            return False
        else:
            if channel in self._waiting:
                raise CommunicationError(
                    f"two processors waiting on the same channel {channel}"
                )
            self._waiting[channel] = rank
            self._parked_on[rank] = channel
        if deadline is not None:
            self._calendar.push_timeout(rank, deadline)
        return True

    def _deadlock(self) -> DeadlockError:
        """The error of a true deadlock: every parked rank, described by
        every channel it waits on (a waitany park lists several)."""
        blocked: dict[int, str] = {}
        for ch, rank in self._waiting.items():
            desc = f"recv(source={ch[0]}, tag={ch[2]})"
            blocked[rank] = f"{blocked[rank]} | {desc}" if rank in blocked else desc
        report = build_report(
            nprocs=len(self.procs),
            waiting=self._waiting,
            clocks=[p.clock for p in self.procs],
            timed=dict(self._calendar.timed),
            recent=self._recent,
        )
        return DeadlockError(blocked, report=report)

    def _stall_step(self) -> bool:
        """The machine has globally stalled: wake the nonblocking waiters
        of a crashed peer (they must fail, not hang), else the timed waiter
        with the smallest deadline; False when neither exists — a true
        deadlock.

        No future send can beat a deadline once every live rank is parked,
        so firing the earliest timeout is the unique next event in
        simulated time, which keeps the timeout semantics identical across
        backends and scheduling orders.  *One* timeout fires per stall:
        the woken rank may send to a waiter whose equal deadline is still
        armed, and that message — not a timeout — is what it must see.
        The waiter comes straight off the deadline heap (O(log N)), in the
        same ``(deadline, rank)`` order the historic scan produced.
        """
        if self.faults is not None and self._nb_channels and self._wake_crashed_nb():
            return True
        rank = self._calendar.pop_due_timeout()
        if rank is None:
            return False
        channel = self._parked_on.pop(rank, None)
        if channel is not None:
            del self._waiting[channel]
        else:
            self._unpark(rank)  # a hand-yielded waitany park with a deadline
        self._timeout_fired[rank] = True
        self._calendar.push_ready(rank)
        return True

    def _wake_crashed_nb(self) -> bool:
        """Wake nonblocking waiters parked on a crashed peer's channel
        (the stall step calls this only under a fault plan).

        Only nonblocking parks are woken: their wait loop re-checks the
        fault state before re-parking and raises
        :class:`repro.errors.PeerCrashedError` with the crash as context.
        (A plain blocked ``recv`` has no such check, so waking it would
        spin; it surfaces as a deadlock instead, exactly as before.)

        The ``_nb_by_source`` reverse index maps each fired crash straight
        to its listeners; wakeups happen in ascending rank order, the same
        deterministic order the historic sorted scan produced.
        """
        candidates: set[int] = set()
        for crash in self.faults.fired_crashes:
            listeners = self._nb_by_source.get(crash.rank)
            if listeners:
                candidates |= listeners
        if not candidates:
            return False
        for rank in sorted(candidates):
            self._unpark(rank)
            self._calendar.push_ready(rank)
        return True

    # -- scheduler --------------------------------------------------------
    def run(
        self,
        program: Callable[..., Generator],
        args: tuple = (),
        kwargs: dict | None = None,
        per_rank_args: list[tuple] | None = None,
    ) -> RunResult:
        """Run one instance of *program* per rank to completion.

        Returned or raised, the run releases its processors: each points
        back at the engine, so the whole per-rank state (processors, lanes,
        metrics, recent-event rings) would otherwise be a reference cycle
        that only a full collection frees.  The next run builds new ones.
        """
        self._reset_run_state()
        try:
            kwargs = kwargs or {}
            gens: list[Generator | None] = []
            values: list[Any] = [None] * len(self.procs)
            for proc in self.procs:
                rank_args = per_rank_args[proc.rank] if per_rank_args is not None else args
                result = program(proc, *rank_args, **kwargs)
                if not isinstance(result, Generator):
                    # Pure-compute programs may be plain functions.
                    values[proc.rank] = result
                    gens.append(None)
                else:
                    gens.append(result)

            calendar = self._calendar
            ready = calendar.ready
            live = 0
            for rank, gen in enumerate(gens):
                if gen is not None:
                    ready.append(rank)
                    live += 1

            queues = self._queues
            waiting = self._waiting
            parked_on = self._parked_on
            timed, heap = calendar.timed, calendar._heap
            while live:
                if not ready:
                    if not self._stall_step():
                        raise self._deadlock()
                    continue
                rank = ready.popleft()
                try:
                    channel, deadline = next(gens[rank])
                except StopIteration as stop:
                    values[rank] = stop.value
                    gens[rank] = None
                    live -= 1
                    continue
                if type(channel[0]) is tuple:
                    # A waitany park (:mod:`repro.machine.nonblocking`) lists
                    # several channels: wake on a message on *any* of them.
                    raced = not self._park_nb(rank, channel)
                else:
                    raced = queues.get(channel)
                    if not raced:
                        if channel in waiting:
                            raise CommunicationError(
                                f"two processors waiting on the same channel {channel}"
                            )
                        waiting[channel] = rank
                        parked_on[rank] = channel
                if raced:
                    # Message raced in while the generator was yielding: retry.
                    ready.append(rank)
                elif deadline is not None:
                    timed[rank] = deadline  # calendar.push_timeout, inlined
                    heappush(heap, (deadline, rank))

            return self._result(values)
        finally:
            self.procs = []


# A processor's delivery route is looked up on its class, so no
# processor holds a bound method of the engine: the core's is the bare
# wire, ``route(engine, msg)``; ``FaultProc._deliver`` routes each copy
# through its fates.
Proc._deliver = staticmethod(Engine.deliver)


def run_spmd(
    program: Callable[..., Generator],
    topology: Topology,
    model: MachineModel | None = None,
    args: tuple = (),
    kwargs: dict | None = None,
    per_rank_args: list[tuple] | None = None,
    trace: bool = False,
    faults: FaultPlan | None = None,
) -> RunResult:
    """Convenience front end: build an :class:`Engine` and run *program*.

    Parameters
    ----------
    program:
        Generator function ``def program(p: Proc, *args, **kwargs)``.
    per_rank_args:
        Optional per-rank positional arguments (e.g. scattered input
        blocks); overrides *args* when given.
    faults:
        Optional :class:`repro.machine.faults.FaultPlan`, injected by the
        fault layer's processors (see ``docs/RESILIENCE.md``).
    """
    engine = Engine(topology, model=model, trace=trace, faults=faults)
    return engine.run(program, args=args, kwargs=kwargs, per_rank_args=per_rank_args)
