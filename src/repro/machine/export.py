"""Chrome trace-event export for simulator traces.

Writes the `Trace Event Format
<https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU>`_
consumed by ``chrome://tracing`` and `Perfetto <https://ui.perfetto.dev>`_:

* one *thread* per simulated processor (``tid`` = rank) inside a single
  *process* (``pid`` = 0), named via ``M`` metadata events;
* one *request lane* per rank that posted nonblocking operations
  (``tid`` = 1000 + rank, named ``P<rank> requests``): ``isend`` posts
  and ``irecv`` markers render there, keeping the compute lane clean
  while making the post→completion span of each request visible;
* one complete-duration event (``ph": "X"``) per trace event, with the
  simulated seconds scaled to microseconds (Perfetto's native unit);
* one flow-arrow pair (``ph": "s"`` / ``"f"``) per delivered message,
  binding the send's end to the matching recv's start, so the pipeline
  fill/drain of the paper's Fig 5 is visible as arrows between lanes;
* one *compiler* thread (``tid`` :data:`COMPILER_TID`) for a lane of
  wall-clock spans (:class:`repro.util.spans.SpanRecorder`): nesting is
  time containment, which Perfetto renders as a flame graph.  Compile
  time and simulated run time thereby share one timeline (both start
  at t=0; the units differ — wall vs simulated seconds — which
  ``args.clock`` records).

Messages are matched FIFO per ``(source, dest, tag)`` channel — exactly
the engine's delivery discipline — by :func:`match_messages`.
"""

from __future__ import annotations

import json
import pathlib
from operator import attrgetter

from repro.machine.trace import TraceEvent, nesting_depths, trace_index

#: Simulated seconds -> Chrome trace microseconds.
TIME_SCALE = 1e6

#: ``tid`` offset of the per-rank nonblocking request lanes.
REQUEST_TID_BASE = 1000

#: ``tid`` of the compiler-phase lane (wall-clock spans, ISSUE 5).
COMPILER_TID = 2000

#: ``tid`` of the sparse inspector/executor counter lane (docs/SPARSE.md).
SPARSE_TID = 3000

#: Event kinds drawn on the request lane instead of the rank's main lane.
_REQUEST_KINDS = frozenset(("isend", "irecv"))
_KIND = attrgetter("kind")


def _tid(e: TraceEvent) -> int:
    if e.lane != "rank":
        return COMPILER_TID
    return REQUEST_TID_BASE + e.rank if e.kind in _REQUEST_KINDS else e.rank


def match_messages(
    trace: list[list[TraceEvent]],
) -> list[tuple[TraceEvent, TraceEvent]]:
    """Pair each ``recv`` event with the ``send`` that produced it.

    Lanes are recorded in per-rank program order, which is also FIFO
    order per ``(source, dest, tag)`` channel, so position-wise zipping
    of the per-channel *delivered* send and recv lists reproduces the
    engine's matching exactly.  A send the fault layer dropped, or a
    reliable retry the receiver had already seen, is recorded but never
    delivered: the lane says so itself, with ``drop`` / ``dup-suppressed``
    markers at the send's end time on the same ``(peer, tag)``
    (``duplicate`` adds a copy, which an unreliable receiver drains as a
    second message).

    The pairing is part of the trace's index
    (:func:`repro.machine.trace.trace_index`): computed once for an
    engine-returned trace, however many consumers ask.
    """
    return list(trace_index(trace).pairs)


def _draw(e: TraceEvent, depth: int = 0) -> dict:
    """One trace event as a Chrome ``X`` event, or ``i`` for a marker."""
    kind = e.kind
    start = e.start
    if e.lane == "rank":
        scope = e.scope
        peer = e.peer
        if peer is None:
            args: dict = {"kind": kind}
        else:
            args = {"kind": kind, "peer": peer, "words": e.words, "tag": e.tag}
        if scope:
            args["scope"] = scope
        # Zero-duration markers (drops, retries, crashes, irecv posts)
        # render as thread-scoped instant events — visible ticks on the
        # rank's lane (or request lane) in Perfetto.
        instant = kind == "fault" or kind == "irecv"
        if instant:
            cat = "request" if kind == "irecv" else "fault"
            args["detail"] = e.detail
        else:
            cat = scope or kind
    else:
        # Wall-clock markers (worker crashes, respawns, fallback to
        # in-process compilation — see repro.service.supervisor) mirror
        # the simulator's "fault" instants on the rank lanes.
        instant = kind == "instant"
        cat = "service-fault" if instant else "compile"
        args = {"clock": e.clock}
        if not instant:
            args["depth"] = depth
    tid = _tid(e)
    if instant:
        return {
            "name": e.label(), "cat": cat, "ph": "i", "s": "t",
            "ts": start * TIME_SCALE, "pid": 0, "tid": tid, "args": args,
        }
    return {
        "name": e.label(), "cat": cat, "ph": "X", "ts": start * TIME_SCALE,
        "dur": (e.end - start) * TIME_SCALE, "pid": 0, "tid": tid, "args": args,
    }


def _lane_events(trace, pairs, process_name: str) -> list[dict]:
    """Metadata, one drawn event per trace event, one arrow pair per
    ``(send, recv)`` in *pairs*."""
    events: list[dict] = [
        {"name": "process_name", "ph": "M", "pid": 0, "tid": 0,
         "args": {"name": process_name}},
    ]
    drawn: list[dict] = []
    for index, lane in enumerate(trace):
        if lane and lane[0].lane != "rank":
            threads = [(COMPILER_TID, lane[0].lane)]
            drawn.extend(map(_draw, lane, nesting_depths(lane)))
        else:
            threads = [(index, f"P{index}")]
            if not _REQUEST_KINDS.isdisjoint(map(_KIND, lane)):
                threads.append((REQUEST_TID_BASE + index, f"P{index} requests"))
            drawn.extend(map(_draw, lane))
        events.extend(
            {"name": "thread_name", "ph": "M", "pid": 0, "tid": tid,
             "args": {"name": name}}
            for tid, name in threads
        )
    events.extend(drawn)
    for flow_id, (snd, rcv) in enumerate(pairs):
        events.append(
            {"name": "msg", "cat": "msg", "pid": 0, "id": flow_id, "ph": "s",
             "ts": snd.end * TIME_SCALE, "tid": _tid(snd)}
        )
        events.append(
            {"name": "msg", "cat": "msg", "pid": 0, "id": flow_id, "ph": "f",
             "bp": "e", "ts": rcv.start * TIME_SCALE, "tid": rcv.rank}
        )
    return events


def sparse_lane_events(sparse: dict, lane_name: str = "sparse") -> list[dict]:
    """Draw ``Metrics.sparse`` counters as one extra Perfetto lane.

    *sparse* is the counter dict a sparse kernel stamped
    (:func:`repro.pipeline.inspector.stamp_sparse`).  Counters have no
    time extent, so each renders as a t=0 thread-scoped instant event
    under ``tid`` :data:`SPARSE_TID` with its value in ``args`` —
    mirroring how service-fault markers land on the compiler lane, and
    keeping schedule provenance (built vs cache-served, words per sweep)
    in the same document as the traffic it explains.
    """
    events: list[dict] = [
        {"name": "thread_name", "ph": "M", "pid": 0, "tid": SPARSE_TID,
         "args": {"name": lane_name}},
    ]
    for key in sorted(sparse):
        events.append(
            {
                "name": f"sparse/{key}",
                "cat": "sparse",
                "ph": "i",
                "s": "t",
                "ts": 0,
                "pid": 0,
                "tid": SPARSE_TID,
                "args": {"value": int(sparse[key])},
            }
        )
    return events


def merge_events(*event_lists: list[dict]) -> list[dict]:
    """Concatenate trace-event lists, deduplicating ``M`` metadata.

    Every ``traceEvents`` list carries its own ``process_name``/
    ``thread_name`` metadata so it is loadable standalone; when several
    are combined — or an exporter is invoked twice over the same run —
    the repeats would pile up.  Only the first metadata event per
    ``(name, pid, tid, args)`` identity survives; all non-metadata
    events pass through in order.
    """
    seen: set[tuple] = set()
    out: list[dict] = []
    for events in event_lists:
        for e in events:
            if e.get("ph") == "M":
                key = (
                    e.get("name"), e.get("pid"), e.get("tid"),
                    tuple(sorted(e.get("args", {}).items())),
                )
                if key in seen:
                    continue
                seen.add(key)
            out.append(e)
    return out


def _flow_id(run_id: str) -> int:
    """A stable flow-arrow id for a run's compile→run boundary arrow.

    Message flow arrows are numbered 0..N-1, so boundary arrows live in
    a disjoint high range derived deterministically from the run id (no
    ``hash()`` — that is salted per process).
    """
    acc = 0
    for ch in run_id:
        acc = (acc * 131 + ord(ch)) % 1_000_000
    return 10_000_000 + acc


def chrome_trace_json(
    trace: list[list[TraceEvent]],
    process_name: str = "spmd",
    metadata: dict | None = None,
    spans=None,
    sparse: dict | None = None,
    context=None,
) -> dict:
    """A complete JSON-object-format trace document: one merged timeline.

    Pass *spans* (``SpanRecorder.spans``) to add the compiler-phase lane
    next to the simulated rank lanes, and *sparse* (``Metrics.sparse``)
    to add the inspector/executor counter lane.  *context* (a
    :class:`~repro.obs.context.TraceContext`) is recorded under
    ``otherData.trace_context`` and, when there are spans, bound
    visually by a flow-arrow pair named ``compile->run`` from the end of
    the last compiler span to the first simulated event — the
    one-id-links-everything story of docs/OBSERVABILITY.md, drawn.
    """
    # The arrows come from the rank lanes' own index, so a run's
    # export shares its matching pass with the other consumers even
    # when a compiler lane rides along.
    events = _lane_events(
        [*trace, spans] if spans else trace, trace_index(trace).pairs,
        process_name,
    )
    if sparse:
        events.extend(sparse_lane_events(sparse))
    if context is not None and spans:
        first = min(
            (e for lane in trace for e in lane),
            key=lambda e: (e.start, e.rank),
            default=None,
        )
        common = {
            "name": "compile->run",
            "cat": "obs",
            "pid": 0,
            "id": _flow_id(context.run_id),
        }
        events.append(
            {**common, "ph": "s",
             "ts": max(s.end for s in spans) * TIME_SCALE, "tid": COMPILER_TID}
        )
        events.append(
            {**common, "ph": "f", "bp": "e",
             "ts": (first.start if first else 0.0) * TIME_SCALE,
             "tid": _tid(first) if first else 0}
        )
    doc = {
        "traceEvents": events,
        "displayTimeUnit": "ms",
    }
    other = dict(metadata) if metadata else {}
    if context is not None:
        other["trace_context"] = context.as_dict()
    if other:
        doc["otherData"] = other
    return doc


def write_chrome_trace(
    path: str | pathlib.Path,
    trace: list[list[TraceEvent]],
    process_name: str = "spmd",
    metadata: dict | None = None,
    spans=None,
    sparse: dict | None = None,
) -> pathlib.Path:
    """Write a Perfetto-loadable trace file and return its path."""
    path = pathlib.Path(path)
    doc = chrome_trace_json(
        trace, process_name=process_name, metadata=metadata, spans=spans,
        sparse=sparse,
    )
    path.write_text(json.dumps(doc, indent=1))
    return path
