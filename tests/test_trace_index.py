"""The trace index and the event record it indexes (ISSUE 15).

One pass over a run's lanes serves the exporter, the critical-path
walker and the diagnostics; these tests pin who owns that pass and how
long it lives, the lane time-order invariant the windowed wait
attribution depends on, and the contract of the tuple-backed
``TraceEvent``.  What the analyses *return* is pinned byte for byte by
``test_trace_analysis_goldens.py``.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dp import solve_program_distribution
from repro.errors import TraceError
from repro.kernels import make_spd_system, sor_pipelined
from repro.lang import jacobi_program
from repro.machine.engine import Engine
from repro.machine import MachineModel, Ring, chrome_trace_json, critical_path, run_spmd
from repro.machine.export import match_messages
from repro.machine.threaded import run_spmd_threaded
from repro.machine.trace import (
    Trace,
    TraceEvent,
    TraceIndex,
    TraceLane,
    nesting_depths,
    trace_index,
)
from repro.obs import TraceStore, attribute_waits, load_imbalance
from repro.tools.runs import RUNS
from repro.util.spans import recording

MODEL = MachineModel(tf=1, tc=1)


def _sor(runner=run_spmd):
    A, b, _ = make_spd_system(16, seed=2)
    return runner(sor_pipelined, Ring(4), MODEL,
                  args=(A, b, np.zeros(16), 1.0, 2), trace=True)


def _chaos(runner=run_spmd):
    """The chaos Jacobi drill of ``report --diagnose jacobi``, under *runner*."""
    run = RUNS["jacobi-chaos"]
    return runner(run.fn, run.topology, run.model, args=run.args(),
                  faults=run.faults, trace=True)


def _path(trace):
    return [(s.event, s.wire) for s in critical_path(trace).steps]


class TestOwnerAndLifetime:
    def test_engine_trace_owns_its_index(self):
        res = _sor()
        assert isinstance(res.trace, Trace) and isinstance(res.trace, list)
        assert all(isinstance(lane, TraceLane) for lane in res.trace)
        index = trace_index(res.trace)
        assert isinstance(index, TraceIndex)
        assert trace_index(res.trace) is index
        assert index.events == sum(len(lane) for lane in res.trace)

    def test_every_consumer_reads_the_index_the_first_one_built(self):
        res = _chaos()
        chrome_trace_json(res.trace)  # first consumer builds it
        index = res.trace._index
        assert index is not None
        store = TraceStore.from_run(res)
        assert store.rank_lanes() is res.trace
        attribute_waits(store)
        load_imbalance(store)
        critical_path(res.trace)
        match_messages(res.trace)
        assert res.trace._index is index

    def test_plain_lists_are_indexed_per_call(self):
        lanes = [list(lane) for lane in _sor().trace]
        assert trace_index(lanes) is not trace_index(lanes)

    def test_index_follows_lanes_that_grew(self):
        # lanes are append-only: the event count is the whole validity check
        trace = Trace([TraceLane(), TraceLane()])
        trace[0].append_raw((0, "send", 0.0, 1.0, 1, 1, 0, "", ""))
        stale = trace_index(trace)
        assert stale.pairs == []
        trace[1].append_raw((1, "recv", 1.0, 2.0, 0, 1, 0, "", ""))
        fresh = trace_index(trace)
        assert fresh is not stale and len(fresh.pairs) == 1
        assert trace_index(trace) is fresh

    def test_second_run_on_one_engine_gets_a_fresh_trace_and_index(self):
        def prog(p, rounds):
            for _ in range(rounds):
                p.compute(10 * (p.rank + 1))
                p.send((p.rank + 1) % p.nprocs, [1.0])
                yield from p.recv((p.rank - 1) % p.nprocs)

        engine = Engine(Ring(3), model=MODEL, trace=True)
        first = engine.run(prog, args=(3,))
        pairs_first = match_messages(first.trace)
        second = engine.run(prog, args=(1,))
        assert second.trace is not first.trace
        assert second.trace._index is None  # nothing carried over
        assert len(match_messages(second.trace)) == 3
        # the earlier result is still whole, with its own index
        assert match_messages(first.trace) == pairs_first and len(pairs_first) == 9
        assert trace_index(first.trace) is not trace_index(second.trace)

    def test_store_copes_with_more_than_one_source(self):
        res = _sor()
        store = TraceStore.from_run(res)
        store.add_trace(res.trace)  # same run twice: lanes no longer one trace
        assert store.rank_lanes() is not res.trace
        padded = TraceStore(nprocs=6)
        padded.add_trace(res.trace)
        assert len(padded.rank_lanes()) == 6


@pytest.mark.parametrize("build", [_sor, _chaos], ids=["sor", "chaos"])
def test_engine_trace_and_plain_lists_agree(build):
    res = build()
    lanes = [list(lane) for lane in res.trace]
    assert json.dumps(chrome_trace_json(lanes)) == json.dumps(chrome_trace_json(res.trace))
    assert match_messages(lanes) == match_messages(res.trace)
    assert _path(lanes) == _path(res.trace)
    copied = TraceStore()
    copied.add_trace(lanes)
    own = TraceStore.from_run(res)
    assert attribute_waits(copied).as_dict() == attribute_waits(own).as_dict()
    assert load_imbalance(copied).as_dict() == load_imbalance(own).as_dict()


class TestLaneTimeOrder:
    """Every event starts at or after the end of the one before it on its
    lane — what lets wait attribution bisect instead of scanning."""

    @pytest.mark.parametrize("runner", [run_spmd, run_spmd_threaded],
                             ids=["engine", "threaded"])
    @pytest.mark.parametrize("build", [_sor, _chaos], ids=["sor", "chaos"])
    def test_engines_record_lanes_in_time_order(self, build, runner):
        for lane in build(runner).trace:
            events = list(lane)
            assert all(b.start >= a.end for a, b in zip(events, events[1:]))

    def test_index_refuses_a_lane_that_is_out_of_order(self):
        lane = list(_sor().trace[1])
        with pytest.raises(TraceError, match="lane 1 is not in simulated-time order"):
            trace_index([[], lane + lane])

    def test_wall_clock_lanes_are_not_held_to_it(self):
        spans = [TraceEvent(-1, "span", 2.0, 3.0, detail="b", lane="compiler"),
                 TraceEvent(-1, "span", 0.0, 1.0, detail="a", lane="compiler")]
        assert trace_index([spans]).pairs == []


class TestTraceLane:
    def test_iteration_returns_the_same_objects_and_frees_the_rows(self):
        lane = _sor().trace[0]
        n = len(lane)
        first = list(lane)
        assert len(first) == n == len(lane) and bool(lane)
        assert all(a is b for a, b in zip(first, lane))
        assert lane[0] is first[0] and lane[-1] is first[-1]
        assert lane._raw == []  # one copy of what was recorded, not two

    def test_events_carry_the_lane_and_run(self):
        lane = TraceLane()
        lane.append_raw((2, "compute", 0.0, 4.0, None, 0, 0, "gemv", "bcast"))
        lane.run = "run-7"
        (e,) = lane
        assert e == TraceEvent(2, "compute", 0.0, 4.0, detail="gemv",
                               scope="bcast", lane="rank", run="run-7")


class TestTraceEventContract:
    def test_field_order_and_defaults(self):
        assert TraceEvent._fields == (
            "rank", "kind", "start", "end", "peer", "words", "tag",
            "detail", "scope", "lane", "run",
        )
        e = TraceEvent(1, "send", 0.5, 2.0)
        assert (e.peer, e.words, e.tag, e.detail, e.scope, e.lane, e.run) == (
            None, 0, 0, "", "", "rank", "")
        assert e.duration == 1.5 and e.clock == "sim"
        assert list(e.as_dict()) == [
            "lane", "rank", "kind", "start", "end", "peer", "words", "tag",
            "detail", "scope", "run",
        ]

    def test_keyword_construction_as_the_span_recorder_uses_it(self):
        e = TraceEvent(-1, "span", 0.0, 1.0, detail="dp/solve", lane="compiler",
                       run="run-1")
        assert (e.rank, e.kind, e.detail, e.lane, e.run) == (
            -1, "span", "dp/solve", "compiler", "run-1")
        assert e.clock == "wall" and e.label() == "dp/solve"

    def test_immutable(self):
        e = TraceEvent(0, "compute", 0.0, 1.0)
        with pytest.raises(AttributeError):
            e.start = 5.0
        with pytest.raises(AttributeError):
            e.extra = 1

    def test_hashable_and_compared_by_value(self):
        a = TraceEvent(0, "recv", 1.0, 2.0, peer=1, words=3)
        b = TraceEvent(0, "recv", 1.0, 2.0, peer=1, words=3)
        assert a == b and hash(a) == hash(b) and len({a, b}) == 1
        assert a != TraceEvent(0, "recv", 1.0, 2.0, peer=1, words=4)

    def test_overlaps_and_labels(self):
        e = TraceEvent(0, "send", 1.0, 2.0, peer=3, words=8)
        assert e.overlaps(1.5, 1.6) and not e.overlaps(2.0, 3.0)
        assert e.label() == "send->3(8w)"
        assert TraceEvent(0, "fault", 1.0, 1.0).overlaps(1.0, 2.0)


# -- nesting depths ----------------------------------------------------------


def _depths_by_definition(events):
    """The quadratic containment count ``nesting_depths`` used to be."""
    spans = [(j, s) for j, s in enumerate(events) if s.kind == "span"]
    return [
        sum(
            s.start <= e.start and (s.end > e.end or (s.end == e.end and j > i))
            for j, s in spans
        )
        for i, e in enumerate(events)
    ]


_TICKS = st.integers(min_value=0, max_value=12)


@st.composite
def _wall_lane(draw):
    events = []
    for _ in range(draw(st.integers(min_value=0, max_value=24))):
        start = draw(_TICKS)
        if draw(st.booleans()):
            events.append(TraceEvent(-1, "instant", start, start, lane="compiler"))
        else:
            end = start + draw(_TICKS)
            events.append(TraceEvent(-1, "span", start, end, lane="compiler"))
    return events


@settings(max_examples=300, deadline=None)
@given(_wall_lane())
def test_nesting_depths_match_the_containment_count(events):
    # any intervals at all: crossing ones, equal ones, any recording order
    assert nesting_depths(events) == _depths_by_definition(events)


def test_nesting_depths_of_a_recorded_compile():
    with recording() as rec:
        solve_program_distribution(
            jacobi_program(), 4, {"m": 16, "maxiter": 2}, MachineModel(tf=1, tc=10)
        )
    assert len(rec.spans) > 5
    assert nesting_depths(rec.spans) == _depths_by_definition(rec.spans)
    assert max(nesting_depths(rec.spans)) >= 1
