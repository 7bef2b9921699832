"""Nonblocking point-to-point primitives with message aggregation.

The paper's closing remark in §5 observes that "some multiprocessors
allow overlaying the computation and the communication": the compiler
can then hide the transfer time of a pipelined loop behind the interior
computation.  This module realizes that capability at the runtime level
as MPI-style *requests*:

* :meth:`NBComm.isend` — posts a send.  The sender pays only the
  per-message startup :meth:`~repro.machine.model.MachineModel.post_occupancy`
  (``alpha``); the NIC streams the body concurrently, so the message
  becomes available :meth:`~repro.machine.model.MachineModel.posted_wire_latency`
  after the post.  These formulas are exactly the ``overlap=True``
  occupancy/latency split of the machine model, so a nonblocking program
  on a *plain* model sees the same per-message timing a blocking program
  sees on an ``overlap=True`` model — the basis of the analytic
  reconciliation in ``report.py --overlap``.
* :meth:`NBComm.irecv` — posts a receive for free (a zero-duration
  ``irecv`` trace marker) and returns a :class:`RecvRequest` whose
  :meth:`~Request.wait` delivers the payload later, accounting the idle
  gap (if any) as a ``wait`` event and the drain as an ``alpha``-only
  ``recv`` event.
* :func:`waitall` / :func:`waitany` — completion primitives.
  ``waitany`` parks on *all* pending channels at once (both backends
  understand multi-channel parks) and deterministically completes the
  request whose message has the smallest ``(available, index)``.

Aggregation
-----------
``NBComm(p, aggregate_words=W)`` coalesces small sends: an ``isend``
of fewer than ``W`` words is buffered per ``(dest, tag)`` channel and
shipped later as one :class:`_Bundle` wire message — one ``alpha`` for
the whole batch, amortizing the startup cost the paper worries about
when pipelining ("the number of messages matters, not only the
volume").  A channel's buffer is flushed when it reaches ``W`` words,
on any ``wait``/``test``/``waitall``/``waitany`` (so completion never
deadlocks on data parked in a local buffer), or explicitly via
:meth:`NBComm.flush`.  The receiving side must also use ``NBComm``:
its requests transparently unbundle, queuing the remaining parts in a
local inbox (FIFO order is preserved — the inbox is always drained
before the wire queue).  With nothing buffered — the default, and every
kernel in the repo — none of this is on the message's path: an empty
outbox is not flushed, an empty inbox not searched, endpoints are
validated once per ``(peer, tag)`` (:meth:`Proc._endpoint`) and the
crash / slowdown hooks are skipped without a fault plan.

Crashed peers
-------------
A request against a rank killed by an injected
:class:`~repro.machine.faults.CrashFault` fails with
:class:`repro.errors.PeerCrashedError` carrying the crash as context —
on both backends — instead of hanging until the deadlock watchdog.

Determinism
-----------
Everything here preserves the engine's contract: completion order and
timestamps are pure functions of the program and the fault plan, never
of scheduler interleaving, so event and threaded backends agree on
makespans and produce bit-identical numerics.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Generator
from dataclasses import dataclass
from typing import Any

from repro.errors import CommunicationError, PeerCrashedError
from repro.machine.collectives import Transport
from repro.machine.engine import (
    Channel,
    Proc,
    _payload_copy,
    _payload_words,
)


@dataclass(frozen=True)
class _Bundle:
    """Wire payload of an aggregated send: ``((data, words), ...)``.

    Receivers never see this type — :class:`RecvRequest` unbundles it
    into the communicator's inbox and hands out the parts one request at
    a time, in the order they were buffered.
    """

    parts: tuple[tuple[Any, int], ...]


class Request:
    """Handle for one outstanding nonblocking operation.

    ``done``/``value`` are set once the operation completes; complete a
    request with ``yield from req.wait()`` (returns the payload for
    receives), or poll it with ``req.test()`` (plain call, no simulated
    time cost).
    """

    def __init__(self, comm: "NBComm") -> None:
        self._comm = comm
        self.done = False
        self.value: Any = None

    def wait(self) -> Generator[Any, None, Any]:
        raise NotImplementedError

    def test(self) -> bool:
        raise NotImplementedError


class SendRequest(Request):
    """Handle for an :meth:`NBComm.isend`.

    The engine snapshots payloads at injection time, so a *posted* send
    completes immediately; a send parked in the aggregation buffer
    completes when its channel is flushed.  ``wait``/``test`` force that
    flush (flush-on-wait), so completing a send request is always
    instantaneous in simulated time.
    """

    def __init__(self, comm: "NBComm", dest: int, tag: int, words: int) -> None:
        super().__init__(comm)
        self.dest = dest
        self.tag = tag
        self.words = words

    def _mark_done(self) -> None:
        self.done = True

    def wait(self) -> Generator[Any, None, Any]:
        if not self.done:
            self._comm.flush(dest=self.dest, tag=self.tag)
        return None
        yield  # unreachable; makes wait() a generator like RecvRequest's

    def test(self) -> bool:
        if not self.done:
            self._comm.flush(dest=self.dest, tag=self.tag)
        return self.done


class RecvRequest(Request):
    """Handle for an :meth:`NBComm.irecv`."""

    def __init__(self, comm: "NBComm", source: int, tag: int) -> None:
        super().__init__(comm)
        self.source = source
        self.tag = tag
        p = comm.proc
        self.channel: Channel = (source, p.rank, tag)
        self.posted_at = p.clock

    # -- completion helpers ---------------------------------------------
    def _raise_if_peer_crashed(self, faults: Any) -> None:
        """Fail if the fault state (not ``None``) has crashed the source."""
        crash = faults.fired_crash(self.source)
        if crash is not None:
            raise PeerCrashedError(self._comm.proc.rank, crash)

    def _complete(
        self, data: Any, words: int, available: float, block_start: float,
        drain: bool,
    ) -> Any:
        """Account the delivery and finish this request.

        *drain* is True for a wire message (charge one ``alpha`` — the
        posted-receive drain) and False for an inbox part (its bundle's
        drain was already charged when the bundle was popped).
        """
        p = self._comm.proc
        engine = p._engine
        faults = engine.faults
        arrival = block_start
        if available > block_start:
            arrival = available
            engine.record(
                p.rank, "wait", block_start, arrival, self.source,
                words, self.tag, "", p.scope,
            )
        p.clock = arrival
        if drain:
            occupancy = engine.model.post_occupancy(words)
            p.clock += occupancy if faults is None else p._scaled(occupancy)
        engine.record(
            p.rank, "recv", arrival, p.clock, self.source, words,
            self.tag, "nb", p.scope,
        )
        # Overlap accounting: of the message's in-flight time after the
        # post, how much was hidden behind local work vs. exposed as
        # blocked waiting?
        inflight = max(0.0, available - self.posted_at)
        blocked = arrival - block_start
        hidden = max(0.0, inflight - blocked)
        engine.metrics.observe_overlap(p.rank, inflight, hidden)
        self.done = True
        self.value = data
        if faults is not None:
            p._maybe_crash()
        return data

    def _complete_message(self, msg: Any, block_start: float) -> Any:
        """Complete from a wire message, unbundling aggregates."""
        if isinstance(msg.data, _Bundle):
            parts = msg.data.parts
            data, words = parts[0]
            for extra_data, extra_words in parts[1:]:
                self._comm._push_inbox(
                    self.channel, extra_data, extra_words, msg.available
                )
            return self._complete(data, words, msg.available, block_start, drain=True)
        return self._complete(
            msg.data, msg.words, msg.available, block_start, drain=True
        )

    # -- public API ------------------------------------------------------
    def wait(self) -> Generator[Any, None, Any]:
        """Block (in simulated time) until the payload is delivered."""
        if self.done:
            return self.value
        comm = self._comm
        if comm._outbox:
            comm.flush()  # flush-on-wait: our buffered sends must not starve peers
        p = comm.proc
        engine = p._engine
        faults = engine.faults
        block_start = p.clock
        while True:
            if faults is not None:
                self._raise_if_peer_crashed(faults)
            part = comm._pop_inbox(self.channel) if comm._inbox else None
            if part is not None:
                data, words, available = part
                return self._complete(
                    data, words, available, block_start, drain=False
                )
            msg = engine.try_pop(self.channel)
            if msg is not None:
                return self._complete_message(msg, block_start)
            # Nonblocking parks always use the tuple form, even for a
            # single channel: both backends use it to tell nb waits
            # (crash-wakeable) apart from plain blocked receives.
            yield ((self.channel,), None)

    def test(self) -> bool:
        """True (and completed) iff the payload has already arrived.

        A queued message whose availability time lies in this rank's
        simulated future does *not* count — at the current local time
        the request is still in flight.
        """
        if self.done:
            return True
        comm = self._comm
        if comm._outbox:
            comm.flush()
        p = comm.proc
        engine = p._engine
        if engine.faults is not None:
            self._raise_if_peer_crashed(engine.faults)
        part = comm._pop_inbox(self.channel) if comm._inbox else None
        if part is not None:
            data, words, available = part
            self._complete(data, words, available, p.clock, drain=False)
            return True
        if engine.has_arrived(self.channel, p.clock):
            msg = engine.try_pop(self.channel)
            self._complete_message(msg, p.clock)
            return True
        return False


class NBComm:
    """Nonblocking communicator bound to one :class:`Proc`.

    Create one per rank inside the program body::

        def prog(p):
            comm = NBComm(p, aggregate_words=64)
            req = comm.irecv(left, tag=1)
            comm.isend(right, block, tag=1)
            p.compute(interior_flops)          # overlaps the transfer
            halo = yield from req.wait()

    ``aggregate_words=0`` (the default) disables aggregation: every
    ``isend`` is posted immediately.
    """

    def __init__(self, p: Proc, aggregate_words: int = 0) -> None:
        if aggregate_words < 0:
            raise CommunicationError(
                f"aggregate_words must be nonnegative, got {aggregate_words}"
            )
        self.proc = p
        self.aggregate_words = int(aggregate_words)
        # (dest, tag) -> [(data, words, request), ...] not yet on the wire
        self._outbox: dict[tuple[int, int], list[tuple[Any, int, SendRequest]]] = {}
        self._outbox_words: dict[tuple[int, int], int] = {}
        # channel -> unbundled parts awaiting their irecv, FIFO
        self._inbox: dict[Channel, deque[tuple[Any, int, float]]] = {}

    # -- inbox (unbundled aggregate parts) -------------------------------
    def _push_inbox(
        self, channel: Channel, data: Any, words: int, available: float
    ) -> None:
        self._inbox.setdefault(channel, deque()).append((data, words, available))

    def _pop_inbox(self, channel: Channel) -> tuple[Any, int, float] | None:
        queue = self._inbox.get(channel)
        if not queue:
            return None
        return queue.popleft()

    def _peek_inbox_available(self, channel: Channel) -> float | None:
        queue = self._inbox.get(channel)
        if not queue:
            return None
        return queue[0][2]

    # -- sends -----------------------------------------------------------
    def isend(
        self, dest: int, data: Any, words: int | None = None, tag: int = 0
    ) -> SendRequest:
        """Post (or buffer) a send; returns a :class:`SendRequest`.

        Small sends (fewer than ``aggregate_words`` words) are buffered
        per channel and coalesced into one wire message; everything else
        is posted immediately, after flushing any buffered predecessors
        on the same channel so FIFO order holds.
        """
        p = self.proc
        p._endpoint(dest, tag, True)
        nwords = _payload_words(data) if words is None else int(words)
        if nwords < 0:
            raise CommunicationError(f"negative message size {nwords}")
        req = SendRequest(self, dest, tag, nwords)
        key = (dest, tag)
        if 0 < nwords < self.aggregate_words:
            self._outbox.setdefault(key, []).append(
                (_payload_copy(data), nwords, req)
            )
            total = self._outbox_words.get(key, 0) + nwords
            self._outbox_words[key] = total
            if total >= self.aggregate_words:
                self._flush_channel(dest, tag)
            return req
        if self._outbox:
            self._flush_channel(dest, tag)
        p.send(dest, data, words=nwords, tag=tag, posted=True)
        req._mark_done()
        return req

    def flush(self, dest: int | None = None, tag: int | None = None) -> None:
        """Ship buffered sends now (all channels, or one ``dest``/``tag``)."""
        keys = [
            key for key in self._outbox
            if (dest is None or key[0] == dest) and (tag is None or key[1] == tag)
        ]
        for key in sorted(keys):
            self._flush_channel(*key)

    def _flush_channel(self, dest: int, tag: int) -> None:
        entries = self._outbox.pop((dest, tag), None)
        self._outbox_words.pop((dest, tag), None)
        if not entries:
            return
        p = self.proc
        if len(entries) == 1:
            data, nwords, req = entries[0]
            p.send(dest, data, words=nwords, tag=tag, posted=True)
        else:
            parts = tuple((data, nwords) for data, nwords, _ in entries)
            total = sum(nwords for _, nwords, _ in entries)
            p.send(dest, _Bundle(parts), words=total, tag=tag, posted=True)
        for _, _, req in entries:
            req._mark_done()

    # -- receives --------------------------------------------------------
    def irecv(self, source: int, tag: int = 0) -> RecvRequest:
        """Post a receive; returns a :class:`RecvRequest` (no time cost)."""
        p = self.proc
        p._endpoint(source, tag, False)
        req = RecvRequest(self, source, tag)
        p._engine.record(
            p.rank, "irecv", p.clock, p.clock, source, 0, tag, "", p.scope,
        )
        return req

    # -- conveniences ----------------------------------------------------
    def waitall(self, requests: list[Request]) -> Generator[Any, None, list]:
        return (yield from waitall(requests))

    def waitany(
        self, requests: list[Request]
    ) -> Generator[Any, None, tuple[int, Any]]:
        return (yield from waitany(requests))


class PostedTransport(Transport):
    """The overlap policy: a :class:`Transport` over one rank's requests.

    ``send`` posts (``isend``), ``post_recv`` is an ``irecv`` and
    ``complete`` its ``wait``, so a kernel body written in post ->
    compute -> complete order hides each transfer behind the compute in
    between; ``recv`` posts and waits at once, which lets the
    collectives run over it too.  Bound to one rank like the
    :class:`NBComm` it wraps: build it inside the program body.
    """

    def __init__(self, p: Proc) -> None:
        self.comm = NBComm(p)

    def send(
        self, p: Proc, dest: int, data: Any, words: int | None = None, tag: int = 0
    ) -> tuple:
        self.comm.isend(dest, data, words=words, tag=tag)
        return ()

    def recv(self, p: Proc, source: int, tag: int = 0) -> Generator[Any, None, Any]:
        return self.comm.irecv(source, tag=tag).wait()

    def post_recv(self, p: Proc, source: int, tag: int = 0) -> RecvRequest:
        return self.comm.irecv(source, tag=tag)

    def complete(self, p: Proc, handle: RecvRequest) -> Generator[Any, None, Any]:
        return handle.wait()


def waitall(requests: list[Request]) -> Generator[Any, None, list]:
    """Complete every request; returns their values in request order.

    Simulated time only moves forward, so completing in index order is
    equivalent to completing in arrival order — the final clock is the
    max over all completions either way.
    """
    values = []
    for req in requests:
        yield from req.wait()
        values.append(req.value)
    return values


def waitany(requests: list[Request]) -> Generator[Any, None, tuple[int, Any]]:
    """Complete one not-yet-complete request; returns ``(index, value)``.

    Requests already complete on entry are ignored (so repeated
    ``waitany`` calls over the same list drain it one request per call);
    when every request is already complete the call is an error.

    Completion rule: among requests whose message has been *delivered*
    (queued on the wire channel or sitting in the aggregation inbox),
    the one with the smallest ``(available, index)`` wins.  Messages not
    yet sent cannot be candidates — the simulator has no global clock to
    rank them against — so when no candidate exists the caller parks on
    every pending channel and the rule re-applies at the next delivery.
    On the threaded backend, which messages are already delivered when a
    non-parked ``waitany`` inspects its channels can depend on real
    scheduling; programs that need strict cross-backend determinism
    should synchronize so candidates are in flight before calling (or
    use :func:`waitall`).
    """
    if not requests:
        raise CommunicationError("waitany() requires at least one request")
    active = [(index, req) for index, req in enumerate(requests) if not req.done]
    if not active:
        raise CommunicationError("waitany(): every request is already complete")
    for comm in {req._comm for _, req in active}:
        if comm._outbox:
            comm.flush()
    for index, req in active:  # buffered sends completed by the flush
        if req.done:
            return index, req.value
    while True:
        pending: list[Channel] = []
        candidates: list[tuple[float, int]] = []
        for index, req in active:
            assert isinstance(req, RecvRequest)  # sends completed above
            comm = req._comm
            engine = comm.proc._engine
            if engine.faults is not None:
                req._raise_if_peer_crashed(engine.faults)
            available = comm._peek_inbox_available(req.channel) if comm._inbox else None
            if available is None:
                available = engine.peek_available(req.channel)
            if available is not None:
                candidates.append((available, index))
            pending.append(req.channel)
        if candidates:
            _, index = min(candidates)
            req = requests[index]
            yield from req.wait()  # completes immediately: message is queued
            return index, req.value
        # Park on every pending channel at once; dedup in case two
        # requests name the same channel (FIFO gives them distinct
        # messages, but the engine registers one waiter per channel).
        channels = tuple(dict.fromkeys(pending))
        yield (channels, None)
