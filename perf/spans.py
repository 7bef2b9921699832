"""In-memory span recorder for the traced pass.

The benchmark opens a span around every call it makes into a public
function of ``repro``; the span's name is the layer (the module that
owns the function).  Spans nest by call order, every span of one request
carries the request's id, and nothing is written until the run ends.

A layer's *self time* is its spans' duration minus the part their direct
children cover, so the self times of one request tree sum to the root's
duration exactly.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from dataclasses import dataclass, field


@dataclass
class Span:
    id: int
    name: str
    parent: int  # -1 for a request root
    request: int
    start: float
    end: float = 0.0
    calls: int = 1  # public-function calls this span stands for
    args: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def self_times(spans: list[Span]) -> dict[str, float]:
    """Seconds of self time per layer name over *spans* (whole request
    trees: a recorder's full list or one operation's slice of it)."""
    covered: dict[int, float] = defaultdict(float)
    for sp in spans:
        if sp.parent >= 0:
            covered[sp.parent] += sp.duration
    out: dict[str, float] = defaultdict(float)
    for sp in spans:
        out[sp.name] += sp.duration - covered[sp.id]
    return dict(out)


def calls(spans: list[Span]) -> dict[str, int]:
    out: dict[str, int] = defaultdict(int)
    for sp in spans:
        out[sp.name] += sp.calls
    return dict(out)


def request_seconds(spans: list[Span]) -> float:
    return sum(sp.duration for sp in spans if sp.parent < 0)


class _Open:
    __slots__ = ("rec", "span")

    def __init__(self, rec: "Recorder", span: Span) -> None:
        self.rec, self.span = rec, span

    def __enter__(self) -> Span:
        return self.span

    def __exit__(self, *exc) -> None:
        self.span.end = time.perf_counter()
        self.rec._stack.pop()


class _NoSpans:
    """Stands in for a recorder where the same code also runs untraced."""

    def span(self, name: str, calls: int = 1, **args) -> "_NoSpans":
        return self

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc) -> None:
        return None


NO_SPANS = _NoSpans()


class Recorder:
    """Collects spans; one instance per traced run."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._requests = 0

    def span(self, name: str, calls: int = 1, **args) -> _Open:
        """Open a span under the innermost open one.  A span with no
        open parent starts a new request."""
        if self._stack:
            parent = self._stack[-1]
            parent_id, request = parent.id, parent.request
        else:
            self._requests += 1
            parent_id, request = -1, self._requests
        sp = Span(len(self.spans), name, parent_id, request, 0.0, calls=calls, args=args)
        self.spans.append(sp)
        self._stack.append(sp)
        sp.start = time.perf_counter()
        return _Open(self, sp)

    # -- export ----------------------------------------------------------
    def write_perfetto(self, path, metadata: dict | None = None) -> None:
        """Chrome/Perfetto JSON-object trace: one complete (``X``) event
        per span on a single thread lane; nesting follows from the
        timestamps."""
        t0 = self.spans[0].start if self.spans else 0.0
        events = [
            {
                "name": sp.name,
                "ph": "X",
                "pid": 1,
                "tid": 1,
                "ts": (sp.start - t0) * 1e6,
                "dur": sp.duration * 1e6,
                "args": {"id": sp.id, "parent": sp.parent, "request": sp.request,
                         "calls": sp.calls, **sp.args},
            }
            for sp in self.spans
        ]
        events.append({"name": "process_name", "ph": "M", "pid": 1, "tid": 1,
                       "args": {"name": "perf harness (wall clock)"}})
        doc = {"traceEvents": events, "displayTimeUnit": "ms", "otherData": metadata or {}}
        with open(path, "w") as fh:
            json.dump(doc, fh)
