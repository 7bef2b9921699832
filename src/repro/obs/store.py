"""TraceStore — the unified, queryable JSONL event sink (docs/OBSERVABILITY.md).

Every telemetry source in the repo records the same
:class:`~repro.machine.trace.TraceEvent`, and the store is a flat list
of those very objects — ingesting copies nothing:

* simulated rank lanes (``RunResult.trace``) arrive as ``lane="rank"``
  events in per-rank recording order (the FIFO discipline
  :func:`~repro.machine.export.match_messages` and the critical-path
  walker depend on);
* compiler wall-clock spans (``SpanRecorder.spans``) arrive as
  ``lane="compiler"`` events (``kind`` ``span``/``instant``, ``rank``
  -1), so compile time and simulated time live in the same store;
* every event carries the ``run`` correlation id
  (:class:`~repro.obs.context.TraceContext`) it was recorded under, so
  one store can hold many runs and still answer per-run questions.

The query API filters by lane/rank/kind/peer/tag/scope/collective/
time-window/run and aggregates wait time, message volume and per-rank
send/recv matrices — replacing the ad-hoc trace-list plumbing that
``tools/report.py`` used to do by hand.  The on-disk form is JSONL
(one header line, one event per line) and round-trips exactly.
"""

from __future__ import annotations

import json
import pathlib

from repro.errors import TraceError
from repro.machine.trace import TraceEvent

#: Schema tag written on the JSONL header line.
SCHEMA = "repro-obs/1"


def _scope_matches(scope: str, prefix: str) -> bool:
    """Exact-or-nested scope match, same rule as ``Metrics.scope_totals``."""
    return scope == prefix or scope.startswith(prefix + "/")


class TraceStore:
    """A flat store of :class:`TraceEvent` with filters and aggregations."""

    def __init__(self, nprocs: int = 0) -> None:
        self.events: list[TraceEvent] = []
        self.nprocs = nprocs
        # The ingested trace while it is the only source of rank events
        # (None: none yet; False: several sources), see rank_lanes.
        self._sole = None

    # -- ingestion -------------------------------------------------------
    def add(self, event: TraceEvent) -> None:
        self.events.append(event)
        if event.lane == "rank":
            self._sole = False
            if event.rank >= self.nprocs:
                self.nprocs = event.rank + 1

    def add_trace(self, trace) -> None:
        """Ingest simulator lanes (``RunResult.trace``), preserving
        per-rank recording order."""
        for lane in trace:
            self.events.extend(lane)
        self.nprocs = max(self.nprocs, len(trace))
        self._sole = trace if self._sole is None else False

    def add_spans(self, spans) -> None:
        """Ingest compiler wall-clock spans (``SpanRecorder.spans``)."""
        self.events.extend(spans)

    @classmethod
    def from_run(cls, result) -> "TraceStore":
        """Build a store from one traced :class:`RunResult`.

        The events already carry the ``run_id`` the engine stamped into
        ``result.metrics.obs`` (empty when the run carried no context).
        """
        store = cls()
        if result.trace is not None:
            store.add_trace(result.trace)
        return store

    # -- queries ---------------------------------------------------------
    def query(
        self,
        *,
        lane: str | None = None,
        rank: int | None = None,
        kind: str | tuple[str, ...] | None = None,
        peer: int | None = None,
        tag: int | None = None,
        scope: str | None = None,
        detail: str | None = None,
        run: str | None = None,
        between: tuple[float, float] | None = None,
    ) -> list[TraceEvent]:
        """Filter events; all given criteria must hold (AND semantics).

        ``kind`` accepts one kind or a tuple; ``scope`` matches the
        scope itself or anything nested under it (``"redist"`` matches
        ``"redist/bcast"``); ``between`` is a half-open time window
        ``[t0, t1)`` using :meth:`TraceEvent.overlaps`.  Events come back
        in insertion order (per-rank program order for rank lanes).
        """
        # One pass per criterion actually given, most selective first.
        out = self.events
        if kind is not None:
            kinds = (kind,) if isinstance(kind, str) else kind
            out = [e for e in out if e.kind in kinds]
        if rank is not None:
            out = [e for e in out if e.rank == rank]
        if peer is not None:
            out = [e for e in out if e.peer == peer]
        if tag is not None:
            out = [e for e in out if e.tag == tag]
        if detail is not None:
            out = [e for e in out if e.detail == detail]
        if scope is not None:
            out = [e for e in out if _scope_matches(e.scope, scope)]
        if run is not None:
            out = [e for e in out if e.run == run]
        if lane is not None:
            out = [e for e in out if e.lane == lane]
        if between is not None:
            out = [e for e in out if e.overlaps(*between)]
        return out if out is not self.events else list(out)

    def rank_lanes(self, run: str | None = None) -> list[list[TraceEvent]]:
        """The stored rank events grouped back into per-rank lanes.

        The inverse of :meth:`add_trace`, insertion order preserved —
        diagnostics reuse the lane-shaped analyses (critical path,
        message matching) on stored events.  A store whose rank events
        all came from one ``add_trace`` hands that trace itself back
        (read-only, like the lanes), so the analyses of a run read the
        index its ``RunResult.trace`` already owns.  Lanes of several
        runs glued together (``run=None`` on a multi-run store) are not
        in time order; the analyses take one run at a time.
        """
        if run is None and self._sole and len(self._sole) == self.nprocs:
            return self._sole
        lanes: list[list[TraceEvent]] = [[] for _ in range(self.nprocs)]
        for e in self.events:
            if e.lane == "rank" and (run is None or e.run == run):
                lanes[e.rank].append(e)
        return lanes

    def runs(self) -> list[str]:
        """Distinct run ids present, in first-seen order."""
        seen: dict[str, None] = {}
        for e in self.events:
            seen.setdefault(e.run)
        return list(seen)

    # -- aggregations ----------------------------------------------------
    def wait_seconds(self, **filters) -> float:
        """Total blocked-wait time over the matching events."""
        return sum(e.duration for e in self.query(kind="wait", **filters))

    def busy_by_rank(
        self, kinds: tuple[str, ...] = ("compute", "delay"), **filters
    ) -> dict[int, float]:
        """Per-rank summed duration of the given kinds (ranks 0..N-1)."""
        out = {r: 0.0 for r in range(self.nprocs)}
        for e in self.query(lane="rank", kind=kinds, **filters):
            out[e.rank] += e.duration
        return out

    def message_words(self, **filters) -> int:
        """Total injected words over matching ``send``/``isend`` events."""
        return sum(
            e.words for e in self.query(kind=("send", "isend"), **filters)
        )

    def send_matrix(self, run: str | None = None) -> list[list[int]]:
        """``matrix[src][dst]`` = words injected src -> dst."""
        n = self.nprocs
        matrix = [[0] * n for _ in range(n)]
        for e in self.query(lane="rank", kind=("send", "isend"), run=run):
            if e.peer is not None and 0 <= e.peer < n:
                matrix[e.rank][e.peer] += e.words
        return matrix

    def recv_matrix(self, run: str | None = None) -> list[list[int]]:
        """``matrix[src][dst]`` = words drained at dst from src."""
        n = self.nprocs
        matrix = [[0] * n for _ in range(n)]
        for e in self.query(lane="rank", kind=("recv",), run=run):
            if e.peer is not None and 0 <= e.peer < n:
                matrix[e.peer][e.rank] += e.words
        return matrix

    # -- persistence -----------------------------------------------------
    def write_jsonl(self, path) -> pathlib.Path:
        """Write the store as JSONL: a header line, then one event/line."""
        path = pathlib.Path(path)
        lines = [json.dumps({"schema": SCHEMA, "nprocs": self.nprocs})]
        lines.extend(
            json.dumps(e.as_dict(), sort_keys=True) for e in self.events
        )
        path.write_text("\n".join(lines) + "\n")
        return path

    @classmethod
    def read_jsonl(cls, path) -> "TraceStore":
        """Exact inverse of :meth:`write_jsonl`.

        The file is outside input: anything but a well-formed
        ``repro-obs/1`` document raises :class:`~repro.errors.TraceError`
        naming the path and line.
        """
        store = None
        text = pathlib.Path(path).read_text()
        for lineno, line in enumerate(text.splitlines(), start=1):
            if store is not None and not line.strip():
                continue
            try:
                d = json.loads(line)
                if store is None:
                    if d.get("schema") != SCHEMA:
                        raise ValueError(f"header schema {d.get('schema')!r}")
                    store = cls(nprocs=int(d.get("nprocs", 0)))
                    continue
                store.add(
                    TraceEvent(
                        rank=int(d["rank"]), kind=str(d["kind"]),
                        start=float(d["start"]), end=float(d["end"]),
                        peer=None if d["peer"] is None else int(d["peer"]),
                        words=int(d["words"]), tag=int(d["tag"]),
                        detail=str(d["detail"]), scope=str(d["scope"]),
                        lane=str(d["lane"]), run=str(d["run"]),
                    )
                )
            except (ValueError, KeyError, TypeError, AttributeError) as exc:
                raise TraceError(
                    f"not a {SCHEMA} event file: {path}, line {lineno}: "
                    f"{type(exc).__name__}: {exc}"
                ) from None
        if store is None:
            raise TraceError(f"not a {SCHEMA} event file: {path} is empty")
        return store

    def __len__(self) -> int:
        return len(self.events)
