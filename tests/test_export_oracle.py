"""The Chrome export against a reference renderer, dict for dict.

``machine/export.py`` draws each lane in one loop over its events.  The
renderer below is the per-event drawing it replaced — ``_draw`` with its
``_tid`` rule and one :meth:`TraceEvent.label` call per event, and a
separate scan of each rank lane for request kinds — kept here as the
oracle.  The export must equal it in value *and* in key order
(``json.dumps`` without ``sort_keys``): ``tests/goldens/trace_export.json``
hashes sorted keys, so it does not pin the order.

Covered: request lanes (``isend`` / ``irecv``), a seeded fault plan
with drops, duplicates, delays and a slowed rank, the compiler lane
(spans and instants, hand-built and recorded from a compile), and the
sparse counter lane beside the ``compile->run`` context arrow.
"""

from __future__ import annotations

import json
from collections import Counter

import pytest

from repro.api import Session
from repro.lang.programs import JACOBI_SOURCE
from repro.machine import Ring, run_spmd
from repro.machine.engine import Engine
from repro.machine.export import (
    COMPILER_TID,
    REQUEST_TID_BASE,
    TIME_SCALE,
    _flow_id,
    chrome_trace_json,
    sparse_lane_events,
)
from repro.machine.faults import FaultPlan
from repro.machine.trace import TraceEvent, nesting_depths, trace_index
from repro.obs import tracing_context
from repro.obs.context import TraceContext
from repro.tools.runs import RUNS
from repro.util import spans

CTX = TraceContext(run_id="run-oracle")


# -- the reference renderer ---------------------------------------------------


def _tid(e: TraceEvent) -> int:
    if e.lane != "rank":
        return COMPILER_TID
    return REQUEST_TID_BASE + e.rank if e.kind in ("isend", "irecv") else e.rank


def _draw(e: TraceEvent, depth: int = 0) -> dict:
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
        instant = kind == "fault" or kind == "irecv"
        if instant:
            cat = "request" if kind == "irecv" else "fault"
            args["detail"] = e.detail
        else:
            cat = scope or kind
    else:
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
            if any(e.kind in ("isend", "irecv") for e in lane):
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


def reference_json(trace, process_name="spmd", metadata=None, spans=None,
                   sparse=None, context=None) -> dict:
    """``chrome_trace_json`` as the per-event renderer built it."""
    events = _lane_events(
        [*trace, spans] if spans else trace, trace_index(trace).pairs, process_name
    )
    if sparse:
        events.extend(sparse_lane_events(sparse))
    if context is not None and spans:
        first = min(
            (e for lane in trace for e in lane),
            key=lambda e: (e.start, e.rank),
            default=None,
        )
        common = {"name": "compile->run", "cat": "obs", "pid": 0,
                  "id": _flow_id(context.run_id)}
        events.append(
            {**common, "ph": "s",
             "ts": max(s.end for s in spans) * TIME_SCALE, "tid": COMPILER_TID}
        )
        events.append(
            {**common, "ph": "f", "bp": "e",
             "ts": (first.start if first else 0.0) * TIME_SCALE,
             "tid": _tid(first) if first else 0}
        )
    doc = {"traceEvents": events, "displayTimeUnit": "ms"}
    other = dict(metadata) if metadata else {}
    if context is not None:
        other["trace_context"] = context.as_dict()
    if other:
        doc["otherData"] = other
    return doc


def assert_same_document(trace, **kwargs) -> dict:
    doc = chrome_trace_json(trace, **kwargs)
    ref = reference_json(trace, **kwargs)
    assert len(doc["traceEvents"]) == len(ref["traceEvents"])
    for got, want in zip(doc["traceEvents"], ref["traceEvents"]):
        assert got == want
        assert list(got) == list(want)
        if "args" in want:
            assert list(got["args"]) == list(want["args"])
    assert json.dumps(doc) == json.dumps(ref)
    return doc


def _kinds(trace) -> Counter:
    return Counter(e.kind for lane in trace for e in lane)


# -- traces -------------------------------------------------------------------


@pytest.mark.parametrize("name", ["sparse-cg", "heat-overlap"])
def test_request_lanes(name):
    res = RUNS[name]()
    kinds = _kinds(res.trace)
    assert kinds["isend"] and kinds["irecv"]
    doc = assert_same_document(res.trace, process_name=name)
    assert any(e["tid"] >= REQUEST_TID_BASE for e in doc["traceEvents"] if e["ph"] == "M")


def _one_sided(p):
    from repro.machine.nonblocking import NBComm

    nb = NBComm(p)
    if p.rank % 2 == 0:
        req = nb.irecv(p.rank + 1)
        yield from nb.waitall([req])
        yield from p.recv(p.rank + 1, tag=1)
    else:
        p.send(p.rank - 1, 1.0)
        nb.isend(p.rank - 1, 2.0, tag=1)


def test_request_lane_of_posts_alone_or_sends_alone():
    """Even ranks only post receives, odd ranks only post sends: each
    kind must open its lane's request thread on its own."""
    res = run_spmd(_one_sided, Ring(4), trace=True)
    kinds = [{e.kind for e in lane} for lane in res.trace]
    assert all(("irecv" in k) != ("isend" in k) for k in kinds)
    doc = assert_same_document(res.trace)
    threads = {e["tid"] for e in doc["traceEvents"] if e["name"] == "thread_name"}
    assert threads == {0, 1, 2, 3} | {REQUEST_TID_BASE + r for r in range(4)}


def test_seeded_fault_plan():
    res = RUNS["jacobi-chaos"]()
    plan = RUNS["jacobi-chaos"].faults
    assert plan.slowdown and plan.drop_prob and plan.duplicate_prob and plan.delay_prob
    details = {e.detail for lane in res.trace for e in lane if e.kind == "fault"}
    assert {"drop", "duplicate", "delay"} <= details
    assert_same_document(res.trace, process_name="jacobi", metadata={"plan": "chaos"})


def _nb_with_faults(p):
    from repro.machine.nonblocking import NBComm

    nb = NBComm(p)
    right, left = (p.rank + 1) % p.nprocs, (p.rank - 1) % p.nprocs
    for step in range(6):
        req = nb.irecv(left, tag=step)
        nb.isend(right, [p.rank, step], tag=step)
        p.compute(5 + p.rank)
        p.delay(1.5, label="pause")
        yield from nb.waitall([req])
        with p.scoped("exchange"):
            p.send(right, step, tag=100 + step)
            yield from p.recv(left, tag=100 + step)


def test_posted_traffic_under_a_fault_plan():
    plan = FaultPlan(seed=5, delay_prob=0.3, delay_max=8.0, duplicate_prob=0.2,
                     slowdown=((1, 2.0),))
    res = run_spmd(_nb_with_faults, Ring(4), trace=True, faults=plan)
    kinds = _kinds(res.trace)
    assert kinds["fault"] and kinds["irecv"] and kinds["delay"]
    assert_same_document(res.trace)


def _span(kind: str, name: str, start: float, end: float) -> TraceEvent:
    return TraceEvent(-1, kind, start, end, detail=name, lane="compiler")


HAND_BUILT = [
    _span("span", "codegen/emit", 0.002, 0.004),
    _span("instant", "service/worker-crash#0", 0.005, 0.005),
    _span("span", "dp/solve", 0.006, 0.008),
    _span("span", "service/request", 0.001, 0.009),
    _span("instant", "service/fallback", 0.011, 0.011),
]


def test_compiler_lane_alone():
    assert_same_document([], spans=HAND_BUILT)


@pytest.fixture(scope="module")
def compiled_and_run():
    with spans.recording() as rec:
        with tracing_context(CTX):
            Session(cache="memory").compile(
                JACOBI_SOURCE, nprocs=4, env={"m": 16, "maxiter": 2}
            )
            spans.instant("service/fallback")
            res = RUNS["sparse-cg"]()
    return rec.spans, res


def test_sparse_lane_and_context_arrow(compiled_and_run):
    recorded, res = compiled_and_run
    assert {e.kind for e in recorded} == {"span", "instant"}
    assert res.metrics.sparse
    doc = assert_same_document(
        res.trace, process_name="sparse-cg", spans=recorded,
        sparse=res.metrics.sparse, context=CTX,
    )
    names = {e["name"] for e in doc["traceEvents"]}
    assert "compile->run" in names and any(n.startswith("sparse/") for n in names)


def test_context_arrow_onto_a_request_lane():
    """The first simulated event is an ``irecv`` post: the arrow lands on
    the request thread."""
    res = run_spmd(_nb_with_faults, Ring(4), trace=True)
    first = min((e for lane in res.trace for e in lane), key=lambda e: (e.start, e.rank))
    assert first.kind == "irecv"
    doc = assert_same_document(res.trace, spans=HAND_BUILT, context=CTX)
    (arrow,) = [e for e in doc["traceEvents"] if e["name"] == "compile->run" and e["ph"] == "f"]
    assert arrow["tid"] == REQUEST_TID_BASE + first.rank


def test_empty_trace():
    assert_same_document([[], []], spans=HAND_BUILT, context=CTX)


# -- what the exporter and the lanes rely on ----------------------------------


def test_event_fields_are_in_the_order_the_exporter_unpacks():
    assert TraceEvent._fields == (
        "rank", "kind", "start", "end", "peer", "words", "tag", "detail", "scope",
        "lane", "run",
    )


def test_materialised_events_are_the_rows_plus_lane_and_run():
    with tracing_context(CTX):
        res = RUNS["jacobi-chaos"]()
    rows = [list(lane._raw) for lane in res.trace]
    assert sum(map(len, rows)) > 0
    for lane, lane_rows in zip(res.trace, rows):
        made = [TraceEvent._make(row + ("rank", CTX.run_id)) for row in lane_rows]
        assert list(lane) == made
        assert all(type(e) is TraceEvent for e in lane)


def test_untraced_runs_build_no_lanes():
    engine = Engine(Ring(8))
    assert engine.trace is None
    res = engine.run(_nb_with_faults)
    assert res.trace is None and engine.trace is None


def test_no_processor_holds_a_bound_delivery_route():
    from repro.machine.faults import FaultProc

    for plan in (None, FaultPlan(seed=1, drop_prob=0.1)):
        engine = Engine(Ring(4), faults=plan)
        assert engine.procs
        for proc in engine.procs:
            assert "_deliver" not in vars(proc)
            assert isinstance(proc, FaultProc) == (plan is not None)
