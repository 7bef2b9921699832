"""Event traces and schedule rendering (Fig 5-style step tables)."""

from __future__ import annotations

from array import array
from operator import attrgetter
from typing import Any, NamedTuple

from repro.errors import TraceError

#: Event kinds in glyph-priority order (highest first): when two events
#: share a gantt cell, the earlier kind in this tuple wins.  ``fault``
#: events are zero-duration markers emitted by the fault-injection layer
#: (drops, delays, retries, crashes — see :mod:`repro.machine.faults`).
KINDS = ("fault", "compute", "delay", "send", "isend", "recv", "irecv", "wait")


class TraceEvent(NamedTuple):
    """One timed event on one lane — the repo's only event record.

    ``lane`` is ``"rank"`` for simulated events: ``rank`` is the
    processor, ``start``/``end`` are simulated times and ``kind`` is one
    of :data:`KINDS`.  For communication events, ``peer`` is the other
    endpoint and ``words`` the message size.  A blocking receive
    produces up to two events: a ``wait`` covering the idle interval
    from the moment the processor blocked to the moment the message
    became available (omitted when zero), then a ``recv`` covering only
    the receiver occupancy (drain).  ``scope`` is the collective label
    stack (e.g. ``"bcast"``, ``"allreduce/reduce"``) active when the
    event was recorded, empty for bare point-to-point.

    ``lane`` ``"compiler"`` holds the wall-clock spans of
    :class:`repro.util.spans.SpanRecorder`: ``rank`` is -1, ``kind`` is
    ``span`` or ``instant``, ``detail`` the span name and the times are
    seconds since the recorder epoch.  ``run`` is the correlation id
    (:class:`~repro.obs.context.TraceContext`) the event was recorded
    under, empty outside any context.

    The record is a named tuple — immutable, hashable, compared by
    value — because a traced run builds tens of thousands of them:
    :class:`TraceLane` makes one from the row the engine appended
    (``TraceEvent._make``, a quarter of a microsecond) where a frozen
    dataclass ``__init__`` paid one ``object.__setattr__`` per field.
    Read it through the field names; that it also unpacks and indexes
    like a tuple is not part of the contract.
    """

    rank: int
    kind: str
    start: float
    end: float
    peer: int | None = None
    words: int = 0
    tag: int = 0
    detail: str = ""
    scope: str = ""
    lane: str = "rank"
    run: str = ""

    @property
    def clock(self) -> str:
        """Which clock ``start``/``end`` read: ``"sim"`` or ``"wall"``."""
        return "sim" if self.lane == "rank" else "wall"

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_dict(self) -> dict:
        """JSON-ready form (one ``repro-obs/1`` event line)."""
        return {
            "lane": self.lane, "rank": self.rank, "kind": self.kind,
            "start": self.start, "end": self.end,
            "peer": self.peer, "words": self.words, "tag": self.tag,
            "detail": self.detail, "scope": self.scope, "run": self.run,
        }

    def overlaps(self, t0: float, t1: float) -> bool:
        """Half-open window test ``[t0, t1)``.

        Zero-duration events are points (included iff ``t0 <= start <
        t1``); extended events are included iff they overlap the window.
        """
        if self.end == self.start:
            return t0 <= self.start < t1
        return self.start < t1 and self.end > t0

    def label(self) -> str:
        if self.kind == "compute":
            return self.detail or "compute"
        if self.kind == "delay":
            return self.detail or "delay"
        if self.kind == "send":
            return f"send->{self.peer}({self.words}w)"
        if self.kind == "isend":
            return f"isend->{self.peer}({self.words}w)"
        if self.kind == "recv":
            return f"recv<-{self.peer}({self.words}w)"
        if self.kind == "irecv":
            return f"irecv<-{self.peer}"
        if self.kind == "wait":
            return f"wait<-{self.peer}"
        if self.kind == "fault":
            return f"fault:{self.detail or '?'}"
        if self.lane != "rank":
            return self.detail
        return self.kind


class TraceLane:
    """One rank's event lane with lazily materialized :class:`TraceEvent`\\ s.

    The engine's hot path appends raw tuples (the first nine
    ``TraceEvent`` fields, in field order) — a tuple append instead of a
    record allocation per recorded event, which is what makes tracing
    affordable at N=1024+.  Consumers see a normal read-only sequence of
    ``TraceEvent`` objects: events are built on first access — the row
    plus ``("rank", run)``, the lane's ``run`` id being set by the engine
    when the run finishes — and cached, so repeated iteration returns
    the *same* objects and :class:`repro.obs.TraceStore` holds these
    very objects rather than copies.  Lanes only ever grow, in simulated
    time order (see :class:`TraceIndex`).
    """

    __slots__ = ("_raw", "_cache", "run")

    def __init__(self) -> None:
        self._raw: list[tuple] = []
        self._cache: list[TraceEvent] = []
        self.run = ""

    def append_raw(self, row: tuple) -> None:
        """Record one event as its leading-fields tuple (hot path)."""
        self._raw.append(row)

    def _materialize(self) -> list[TraceEvent]:
        raw = self._raw
        if raw:
            make = TraceEvent._make
            tail = ("rank", self.run)
            built = [make(row + tail) for row in raw]
            self._cache.extend(built)
            # The event holds everything its row did: the rows go, so a
            # lane never keeps two copies of what it recorded.
            del raw[:len(built)]
        return self._cache

    def __len__(self) -> int:
        return len(self._cache) + len(self._raw)

    def __bool__(self) -> bool:
        return bool(self._cache or self._raw)

    def __iter__(self):
        return iter(self._materialize())

    def __getitem__(self, index: Any) -> Any:
        return self._materialize()[index]

    def __eq__(self, other: Any) -> bool:
        if isinstance(other, TraceLane):
            return self._materialize() == other._materialize()
        if isinstance(other, list):
            return self._materialize() == other
        return NotImplemented

    def __repr__(self) -> str:
        return f"TraceLane({self._materialize()!r})"


class TraceIndex:
    """What every consumer of a trace needs, from one pass over its lanes.

    ``ends[r]``
        Lane *r*'s end times, by position.  A rank's lane is recorded in
        simulated-time order — every event starts at or after the end of
        the one before it, zero-duration markers included (the engine
        records a send before dispatching it for exactly that reason) —
        so start and end times never decrease along a lane, and the
        events overlapping a time window are one contiguous run, found
        by bisecting this array.  The pass checks
        the end times and raises :class:`~repro.errors.TraceError` for a
        rank lane that is out of order (lanes of several runs glued
        together, typically).
    ``pairs``
        The delivered messages as ``(send, recv)`` event pairs in
        ``(send.start, send.rank)`` order — what
        :func:`repro.machine.export.match_messages` returns and the
        Chrome exporter numbers its flow arrows by.
    :meth:`send_of`
        Position ``(rank, i)`` of a matched ``recv`` -> position of its
        send, so the critical-path walk crosses lanes without a map
        over every event.
    ``makespan`` / ``last``
        The latest end time, and the position of the event that reaches
        it (lowest rank, first on its lane; ``None`` for an empty trace).
    ``faults`` / ``waits`` / ``runs``
        What the wait attribution reads, noted by the same pass: the
        ``fault`` markers (events, lane by lane), the positions ``(rank,
        i)`` of the ``wait`` events, and the run ids on the lanes in
        first-seen order.

    An index describes the lanes as they were when it was built;
    ``events`` is their total length then (see :func:`trace_index`).
    It holds positions and the pairs, never a second copy of the events.
    """

    __slots__ = ("events", "ends", "pairs", "makespan", "last", "faults", "waits", "runs",
                 "_senders", "_stride")

    def __init__(self, trace) -> None:
        lanes = [list(lane) for lane in trace]
        self.events = sum(map(len, lanes))
        self.ends: list[list[float]] = []
        self.makespan = 0.0
        self.last: tuple[int, int] | None = None
        best = None
        for r, lane in enumerate(lanes):
            ends = [e.end for e in lane]
            self.ends.append(ends)
            if not ends:
                continue
            if lane[0].lane == "rank" and ends != sorted(ends):
                raise TraceError(
                    f"lane {r} is not in simulated-time order (end times "
                    f"decrease along it); analyse one run at a time"
                )
            top = max(ends)
            i = ends.index(top)
            key = (top, -lane[i].rank)
            if best is None or key > best:
                best, self.last = key, (r, i)
        if best is not None:
            self.makespan = best[0]
        self._stride = max(map(len, lanes), default=0) + 1
        self.pairs, self._senders, self.faults, self.waits, self.runs = _fifo_pairs(
            lanes, self._stride
        )

    def send_of(self, rank: int, i: int) -> tuple[int, int] | None:
        """Position of the send matched to the ``recv`` at ``(rank, i)``."""
        at = self._senders[rank * self._stride + i]
        return None if at < 0 else divmod(at, self._stride)


_START = attrgetter("start")
_RANK = attrgetter("rank")


def _fifo_pairs(lanes: list[list[TraceEvent]], stride: int):
    """The index's one pass over every event.

    Pairs each delivered ``recv`` with its ``send`` (see
    ``match_messages``) and notes the fault markers, the waits and the
    run ids on the way.  Positions are flat: ``rank * stride + i``.
    Returns the ``(send, recv)`` event pairs in ``(send.start,
    send.rank)`` order, an array holding at each matched recv's position
    its send's position (-1 elsewhere), the ``fault`` events, the
    ``(rank, i)`` of each ``wait``, and the run ids in first-seen order.
    """
    sends: dict[tuple, list[int]] = {}
    recvs: dict[tuple, list[int]] = {}
    faults: list[TraceEvent] = []
    waits: list[tuple[int, int]] = []
    runs: dict[str, None] = {}
    run = None
    for r, lane in enumerate(lanes):
        base = r * stride
        sent = None  # the send whose trailing fault markers we are reading
        for at, e in enumerate(lane, base):
            if e.run != run:
                run = e.run
                runs[run] = None
            kind = e.kind
            if kind == "recv":
                sent = None
                channel = (e.peer, e.rank, e.tag)
                arrived = recvs.get(channel)
                if arrived is None:
                    recvs[channel] = [at]
                else:
                    arrived.append(at)
            elif kind == "send" or kind == "isend":
                sent, sent_at = e, at
                channel = (e.rank, e.peer, e.tag)
                copies = sends.get(channel)
                if copies is None:
                    copies = sends[channel] = [at]
                else:
                    copies.append(at)
            elif kind != "fault":
                sent = None
                if kind == "wait":
                    waits.append((r, at - base))
            else:
                faults.append(e)
                if (
                    sent is not None
                    and e.start == sent.end
                    and e.peer == sent.peer
                    and e.tag == sent.tag
                ):
                    if e.detail == "duplicate":
                        copies.append(sent_at)
                    elif e.detail in ("drop", "dup-suppressed"):
                        copies.pop()
    send_at: list[int] = []
    recv_at: list[int] = []
    for channel, arrived in recvs.items():
        copies = sends.get(channel)
        if copies:
            n = min(len(copies), len(arrived))
            send_at += copies[:n]
            recv_at += arrived[:n]
    senders = array("q", [-1]) * (stride * len(lanes))
    for at, sent_at in zip(recv_at, send_at):
        senders[at] = sent_at
    snds = [lanes[at // stride][at % stride] for at in send_at]
    rcvs = [lanes[at // stride][at % stride] for at in recv_at]
    # Stable sort by (send.start, send.rank), keys built without a call
    # per pair.
    keys = list(zip(map(_START, snds), map(_RANK, snds)))
    order = sorted(range(len(keys)), key=keys.__getitem__)
    return [(snds[k], rcvs[k]) for k in order], senders, faults, waits, list(runs)


class Trace(list):
    """The per-rank lanes of one traced run — ``RunResult.trace``.

    A plain list of :class:`TraceLane` to every reader; it also owns the
    run's :class:`TraceIndex`, so the exporter, the critical-path walker
    and the store-based diagnostics of one run share one matching pass
    (:func:`trace_index`).
    """

    __slots__ = ("_index",)

    def __init__(self, lanes=()) -> None:
        super().__init__(lanes)
        self._index: TraceIndex | None = None


def trace_index(trace) -> TraceIndex:
    """The :class:`TraceIndex` of *trace*.

    An engine-returned :class:`Trace` keeps its index: lanes are
    append-only and final once the run has been packaged, so an index is
    current exactly when it covers as many events as the lanes hold now,
    and a consumer reads the index the previous consumer built.  Any
    other list of lanes is indexed afresh on every call.
    """
    if not isinstance(trace, Trace):
        return TraceIndex(trace)
    index = trace._index
    if index is None or index.events != sum(map(len, trace)):
        index = trace._index = TraceIndex(trace)
    return index


def nesting_depths(events: list[TraceEvent]) -> list[int]:
    """Nesting depth of each event of one wall-clock lane, by containment.

    An event is nested in every ``span`` whose interval contains its
    own: ``span.start <= start`` and ``span.end >= end``.  *events* are
    in recording order — a span is recorded as it closes, so a parent
    follows its children — and that order settles the one tie time
    cannot: of two events ending together the later-recorded one is the
    container.  Containers are therefore the spans ranked above the
    event by ``(end, position)`` among those starting no later, counted
    in one sweep over the events in start order with a Fenwick tree over
    the ranks — O(n log n) for any set of intervals, grafted worker
    spans (recorded in start order, not as they close) included.
    """
    n = len(events)
    by_end = sorted(range(n), key=lambda i: (events[i].end, i))
    rank_of = [0] * n
    for rank, i in enumerate(by_end):
        rank_of[i] = rank
    tree = [0] * (n + 1)  # spans seen so far, by rank
    seen = 0
    depths = [0] * n
    by_start = sorted(range(n), key=lambda i: events[i].start)
    lo = 0
    while lo < n:
        start = events[by_start[lo]].start
        hi = lo
        while hi < n and events[by_start[hi]].start == start:
            i = by_start[hi]
            hi += 1
            if events[i].kind == "span":
                seen += 1
                k = rank_of[i] + 1
                while k <= n:
                    tree[k] += 1
                    k += k & -k
        for i in by_start[lo:hi]:
            k = rank_of[i] + 1  # spans ranked at or below the event itself
            below = 0
            while k:
                below += tree[k]
                k -= k & -k
            depths[i] = seen - below
        lo = hi
    return depths


def busy_time(events: list[TraceEvent], kinds: tuple[str, ...] = ("compute",)) -> float:
    """Total duration of the given event kinds."""
    return sum(e.duration for e in events if e.kind in kinds)


def comm_time(events: list[TraceEvent]) -> float:
    """Total time spent transferring data (send + recv occupancy).

    Blocked waiting is *not* included — it is recorded as separate
    ``wait`` events; see :func:`wait_time`.
    """
    return busy_time(events, ("send", "isend", "recv"))


def wait_time(events: list[TraceEvent]) -> float:
    """Total time spent idle, blocked on an empty channel."""
    return busy_time(events, ("wait",))


def trace_table(
    trace: list[list[TraceEvent]],
    kinds: tuple[str, ...] = ("compute", "send", "isend", "recv", "irecv", "wait"),
    max_events: int | None = None,
) -> str:
    """Render a per-processor event table ordered by start time."""
    # Imported here: repro.util's package import pulls in
    # repro.util.spans, which imports TraceEvent from this module.
    from repro.util.tables import Table

    table = Table(["t_start", "t_end", "proc", "event"])
    events = sorted(
        (e for lane in trace for e in lane if e.kind in kinds),
        key=lambda e: (e.start, e.rank),
    )
    if max_events is not None:
        events = events[:max_events]
    for e in events:
        table.add_row([f"{e.start:.2f}", f"{e.end:.2f}", f"P{e.rank}", e.label()])
    return table.render()


#: Gantt glyphs; priority resolves overlaps deterministically
#: (fault > compute/delay > send > recv > wait) — a fault marker must
#: stay visible even when it lands inside a busy interval.
_GANTT_GLYPHS = {
    "compute": "#", "delay": "#", "send": ">", "isend": "^", "recv": "<",
    "irecv": "v", "wait": "~", "fault": "!",
}
_GANTT_PRIORITY = {
    "compute": 4, "delay": 4, "send": 3, "isend": 3, "recv": 2, "irecv": 1,
    "wait": 1, "fault": 5,
}


def gantt(
    trace: list[list[TraceEvent]],
    width: int = 72,
    kinds: tuple[str, ...] = ("compute", "send", "isend", "recv", "irecv", "wait"),
) -> str:
    """Render an ASCII Gantt chart: one row per processor.

    ``#`` marks compute, ``>`` send, ``<`` recv (drain), ``~`` blocked
    waiting, ``.`` idle.  Useful to *see* the SOR pipeline fill and drain
    (paper Fig 5).  When several events map to the same cell the glyph
    with the highest priority wins (``compute`` > ``send`` > ``recv`` >
    ``wait``), independent of lane insertion order.
    """
    horizon = max((e.end for lane in trace for e in lane), default=0.0)
    if horizon <= 0:
        return "(empty trace)"
    scale = width / horizon
    lines = []
    for rank, lane in enumerate(trace):
        row = ["."] * width
        prio = [0] * width
        for e in lane:
            if e.kind not in kinds:
                continue
            if e.start >= horizon:
                # Zero-duration event exactly at the horizon: it occupies
                # no time, so it must not repaint the final cell.
                continue
            lo = int(e.start * scale)  # e.start < horizon => lo < width
            hi = min(width, max(lo + 1, int(e.end * scale)))
            p = _GANTT_PRIORITY.get(e.kind, 0)
            g = _GANTT_GLYPHS.get(e.kind, "?")
            for x in range(lo, hi):
                if p > prio[x]:
                    row[x] = g
                    prio[x] = p
        lines.append(f"P{rank:<3}|{''.join(row)}|")
    lines.append(f"    0{' ' * (width - 10)}{horizon:9.1f}")
    return "\n".join(lines)
