"""Wall-clock span instrumentation for the compiler passes.

The simulator side of the repo measures *simulated* seconds; this module
is the real-time twin for the compiler itself (ISSUE 5): alignment, the
Algorithm 1 DP, redistribution planning and code generation are wrapped
in :func:`span` context managers which are free when no recorder is
installed (one context-variable read, then one shared do-nothing
object) and record nested wall-clock intervals when run under
:func:`recording`.

Usage::

    with recording() as rec:
        tables, result = solve_program_distribution(...)
    rec.totals()        # {"alignment/cag": 0.012, "dp/solve": ...}
    rec.spans           # TraceEvents (lane "compiler"), recording order
    rec.as_dicts()      # JSON-ready row list, sorted by start time

A span is the repo's one event record,
:class:`~repro.machine.trace.TraceEvent`, on ``lane="compiler"``:
``kind`` ``span`` or ``instant``, ``detail`` the name, ``rank`` -1,
times in seconds since the recorder epoch, ``run`` the trace context it
was recorded under.  Nesting is not stored — it is the time containment
Perfetto draws, and :func:`~repro.machine.trace.nesting_depths` derives
it wherever a depth is rendered — so the list goes straight into a
:class:`repro.obs.TraceStore` or onto the *compiler* lane of
:func:`repro.machine.export.chrome_trace_json`, next to the
simulated-run lanes on one Perfetto timeline.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from contextvars import ContextVar

from repro.machine.trace import TraceEvent, nesting_depths
from repro.obs.context import current_context


class SpanRecorder:
    """Collects spans; install one with :func:`recording`."""

    def __init__(self) -> None:
        self.spans: list[TraceEvent] = []
        self._epoch = time.perf_counter()

    def now(self) -> float:
        """Current time on this recorder's clock (seconds since epoch)."""
        return time.perf_counter() - self._epoch

    def _record(self, kind: str, name: str, start: float, end: float) -> None:
        ctx = current_context()
        self.spans.append(
            TraceEvent(
                -1, kind, start, end, detail=name, lane="compiler",
                run=ctx.run_id if ctx is not None else "",
            )
        )

    @contextmanager
    def span(self, name: str):
        start = self.now()
        try:
            yield
        finally:
            self._record("span", name, start, self.now())

    def instant(self, name: str) -> None:
        """Record a zero-duration marker (crash, respawn, fallback, ...).

        Instants render as thread-scoped instant events on the compiler
        Perfetto lane — the wall-clock twin of the simulator's ``fault``
        markers.
        """
        t = self.now()
        self._record("instant", name, t, t)

    def graft(self, rows, *, at: float, prefix: str = "") -> None:
        """Splice :meth:`as_dicts` rows recorded on *another* clock in.

        Used by the worker supervisor (docs/OBSERVABILITY.md): a worker
        process records spans against its own epoch; the hub re-anchors
        them so the earliest grafted span starts at *at* on the hub's
        clock (typically the dispatch time from :meth:`now`), optionally
        prefixing names (``worker0/``) so lanes stay distinguishable.
        The rows' worker-relative ``depth`` is not carried over: grafted
        spans nest, by containment, under the hub span that was open at
        dispatch.
        """
        rows = list(rows)
        if not rows:
            return
        base = min(float(r["start"]) for r in rows)
        for r in rows:
            start = float(r["start"]) - base + at
            end = float(r["end"]) - base + at
            self._record(
                "instant" if end == start else "span",
                prefix + str(r["name"]), start, end,
            )

    # -- views -----------------------------------------------------------
    def totals(self) -> dict[str, float]:
        """Summed duration per span name, deterministically ordered."""
        out: dict[str, float] = {}
        for s in self.spans:
            out[s.detail] = out.get(s.detail, 0.0) + s.duration
        return dict(sorted(out.items()))

    @property
    def wall_seconds(self) -> float:
        """End of the latest span (total instrumented wall clock)."""
        return max((s.end for s in self.spans), default=0.0)

    def as_dicts(self) -> list[dict]:
        """``{name, start, end, depth, duration}`` rows in start order.

        The shape ``BENCH_<sha>.json`` and the worker reply carry.  The
        name tie-break makes the order deterministic even when instants
        share a timestamp; exact duplicates keep recording order (the
        sort is stable).
        """
        rows = [
            {"name": s.detail, "start": s.start, "end": s.end,
             "depth": depth, "duration": s.duration}
            for s, depth in zip(self.spans, nesting_depths(self.spans))
        ]
        rows.sort(key=lambda r: (r["start"], r["depth"], r["name"]))
        return rows


_current: ContextVar[SpanRecorder | None] = ContextVar(
    "repro_span_recorder", default=None
)


def current_recorder() -> SpanRecorder | None:
    return _current.get()


@contextmanager
def recording():
    """Install a fresh :class:`SpanRecorder` for the enclosed block."""
    rec = SpanRecorder()
    token = _current.set(rec)
    try:
        yield rec
    finally:
        _current.reset(token)


class _NoSpan:
    """What :func:`span` returns when nothing records: one shared object
    whose two methods do nothing (no generator, no allocation)."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc: object) -> None:
        return None


_NO_SPAN = _NoSpan()


def span(name: str):
    """Record *name* if a recorder is installed; otherwise do nothing."""
    rec = _current.get()
    if rec is None:
        return _NO_SPAN
    return rec.span(name)


def instant(name: str) -> None:
    """Record a zero-duration marker if a recorder is installed."""
    rec = _current.get()
    if rec is not None:
        rec.instant(name)


def spanned(name: str):
    """Decorator form of :func:`span` for whole-function phases."""

    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with span(name):
                return fn(*args, **kwargs)

        return wrapper

    return decorate
