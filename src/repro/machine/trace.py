"""Event traces and schedule rendering (Fig 5-style step tables)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

#: Event kinds in glyph-priority order (highest first): when two events
#: share a gantt cell, the earlier kind in this tuple wins.  ``fault``
#: events are zero-duration markers emitted by the fault-injection layer
#: (drops, delays, retries, crashes — see :mod:`repro.machine.faults`).
KINDS = ("fault", "compute", "delay", "send", "isend", "recv", "irecv", "wait")


@dataclass(frozen=True, slots=True)
class TraceEvent:
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
    ``TraceEvent`` constructor arguments, in field order) — a tuple
    append instead of a dataclass allocation per recorded event, which
    is what makes tracing affordable at N=1024+.  Consumers see a normal
    read-only sequence of ``TraceEvent`` objects: events are built on
    first access, stamped with the lane's ``run`` id (set by the engine
    when the run finishes) and cached, so repeated iteration returns the
    *same* objects — the critical-path walker keys its maps by
    ``id(event)``, and :class:`repro.obs.TraceStore` holds these very
    objects rather than copies.
    """

    __slots__ = ("_raw", "_cache", "run")

    def __init__(self) -> None:
        self._raw: list[tuple] = []
        self._cache: list[TraceEvent] = []
        self.run = ""

    def append_raw(self, row: tuple) -> None:
        """Record one event as its constructor-argument tuple (hot path)."""
        self._raw.append(row)

    def _materialize(self) -> list[TraceEvent]:
        cache = self._cache
        raw = self._raw
        if len(cache) < len(raw):
            run = self.run
            cache.extend(
                TraceEvent(*row, "rank", run) for row in raw[len(cache):]
            )
        return cache

    def __len__(self) -> int:
        return len(self._raw)

    def __bool__(self) -> bool:
        return bool(self._raw)

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


def nesting_depths(events: list[TraceEvent]) -> list[int]:
    """Nesting depth of each event of one wall-clock lane, by containment.

    An event is nested in every ``span`` whose interval contains its
    own.  *events* are in recording order — a span is recorded as it
    closes, so a parent follows its children — and that order settles
    the one tie time cannot: of two events ending together the
    later-recorded one is the container.
    """
    spans = [(j, s) for j, s in enumerate(events) if s.kind == "span"]
    return [
        sum(
            s.start <= e.start and (s.end > e.end or (s.end == e.end and j > i))
            for j, s in spans
        )
        for i, e in enumerate(events)
    ]


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
