"""Observability layer: metrics registry, Chrome-trace export, critical path."""

from __future__ import annotations

import json

import numpy as np

from repro.kernels import jacobi_rowdist, make_spd_system, sor_pipelined
from repro.machine import (
    MachineModel,
    Ring,
    allreduce,
    bcast,
    chrome_trace_json,
    critical_path,
    run_spmd,
)
from repro.machine.export import match_messages
from repro.machine.threaded import run_spmd_threaded
from repro.machine.trace import TraceEvent, gantt, wait_time

UNIT = MachineModel(tf=1, tc=1)


def relay(p):
    """P0 computes then sends; P1 blocks, waits, drains, sends back."""
    if p.rank == 0:
        p.compute(10)
        p.send(1, np.zeros(4), tag=3)
        value = yield from p.recv(1, tag=4)
        return value
    value = yield from p.recv(0, tag=3)
    p.send(0, 1.0, tag=4)
    return value


class TestMetricsRegistry:
    def test_per_rank_counters(self):
        res = run_spmd(relay, Ring(2), UNIT)
        m = res.metrics
        r0, r1 = m.ranks
        assert r0.compute_seconds == 10.0
        assert r0.messages_sent == 1 and r0.words_sent == 4
        assert r0.messages_received == 1 and r0.words_received == 1
        assert r1.messages_sent == 1 and r1.words_sent == 1
        assert r1.messages_received == 1 and r1.words_received == 4
        # P1 blocked from t=0 until P0's message became available.
        assert r1.wait_seconds > 0
        assert m.message_count == 2 and m.message_words == 5

    def test_metrics_match_run_result_counters(self):
        res = run_spmd(relay, Ring(2), UNIT)
        assert res.metrics.message_count == res.message_count
        assert res.metrics.message_words == res.message_words

    def test_by_kind_and_by_tag(self):
        res = run_spmd(relay, Ring(2), UNIT)
        m = res.metrics
        assert m.by_kind["compute"].events == 1
        assert m.by_kind["send"].events == 2
        assert m.by_kind["recv"].events == 2
        assert m.by_tag[3].messages == 1 and m.by_tag[3].words == 4
        assert m.by_tag[4].messages == 1 and m.by_tag[4].words == 1

    def test_by_collective_from_scope(self):
        group = (0, 1, 2, 3)

        def prog(p):
            data = np.zeros(8) if p.rank == 0 else None
            value = yield from bcast(p, data, root=0, group=group)
            return value

        res = run_spmd(prog, Ring(4), UNIT)
        stats = res.metrics.by_collective["bcast"]
        assert stats.messages == 3  # binomial tree: n-1 sends
        assert stats.words == 3 * 8

    def test_nested_collective_scopes(self):
        def prog(p):
            value = yield from allreduce(p, 1.0, (0, 1, 2, 3))
            return value

        res = run_spmd(prog, Ring(4), UNIT)
        keys = set(res.metrics.by_collective)
        assert "allreduce/reduce" in keys and "allreduce/bcast" in keys

    def test_busy_plus_wait_covers_finish(self):
        res = run_spmd(relay, Ring(2), UNIT)
        for rank, r in enumerate(res.metrics.ranks):
            assert r.busy_seconds + r.wait_seconds >= res.finish_times[rank] - 1e-9

    def test_slack(self):
        res = run_spmd(relay, Ring(2), UNIT)
        slack = res.metrics.slack(res.makespan)
        assert all(s >= -1e-9 for s in slack)
        assert min(slack) < res.makespan  # someone was busy

    def test_as_dict_json_serializable(self):
        res = run_spmd(relay, Ring(2), UNIT)
        blob = json.dumps(res.metrics.as_dict())
        back = json.loads(blob)
        assert back["message_count"] == 2
        assert len(back["ranks"]) == 2

    def test_summary_renders_tables(self):
        res = run_spmd(relay, Ring(2), UNIT)
        text = res.metrics.summary()
        assert "Per-rank accounting" in text
        assert "Per-tag accounting" in text

    def test_threaded_backend_populates_metrics(self):
        det = run_spmd(relay, Ring(2), UNIT)
        thr = run_spmd_threaded(relay, Ring(2), UNIT)
        assert thr.metrics is not None
        assert thr.metrics.message_count == det.metrics.message_count
        assert thr.metrics.message_words == det.metrics.message_words


class TestChromeTraceExport:
    def _trace(self):
        return run_spmd(relay, Ring(2), UNIT, trace=True)

    def test_schema_validity(self):
        res = self._trace()
        doc = chrome_trace_json(res.trace, process_name="relay")
        assert doc["displayTimeUnit"] == "ms"
        events = doc["traceEvents"]
        assert {e["ph"] for e in events} <= {"X", "M", "s", "f"}
        for e in events:
            assert isinstance(e["pid"], int) and isinstance(e["tid"], int)
            if e["ph"] == "X":
                assert e["ts"] >= 0 and e["dur"] >= 0
                assert e["args"]["kind"] in ("compute", "delay", "send", "recv", "wait")

    def test_one_complete_event_per_trace_event(self):
        res = self._trace()
        events = chrome_trace_json(res.trace)["traceEvents"]
        n_complete = sum(1 for e in events if e["ph"] == "X")
        assert n_complete == sum(len(lane) for lane in res.trace)

    def test_metadata_names_every_lane(self):
        res = self._trace()
        events = chrome_trace_json(res.trace, process_name="relay")["traceEvents"]
        meta = [e for e in events if e["ph"] == "M"]
        names = {e["args"]["name"] for e in meta}
        assert "relay" in names and {"P0", "P1"} <= names

    def test_one_flow_pair_per_message(self):
        res = self._trace()
        events = chrome_trace_json(res.trace)["traceEvents"]
        starts = [e for e in events if e["ph"] == "s"]
        ends = [e for e in events if e["ph"] == "f"]
        assert len(starts) == len(ends) == res.message_count
        # Each flow binds the send's end to the matching recv's start.
        for s, f in zip(sorted(starts, key=lambda e: e["id"]),
                        sorted(ends, key=lambda e: e["id"])):
            assert s["id"] == f["id"]
            assert s["ts"] <= f["ts"]

    def test_match_messages_pairs_sends_with_recvs(self):
        res = self._trace()
        pairs = match_messages(res.trace)
        assert len(pairs) == res.message_count
        for snd, rcv in pairs:
            assert snd.kind == "send" and rcv.kind == "recv"
            assert snd.peer == rcv.rank and rcv.peer == snd.rank
            assert snd.tag == rcv.tag
            assert snd.end <= rcv.start + 1e-9


class TestCriticalPath:
    def test_sor_pipeline_path_equals_makespan(self):
        m, n = 16, 4
        A, b, _ = make_spd_system(m, seed=2)
        res = run_spmd(
            sor_pipelined, Ring(n), UNIT, args=(A, b, np.zeros(m), 1.0, 1), trace=True
        )
        cp = critical_path(res.trace)
        assert abs(cp.length - res.makespan) < 1e-9
        assert all(s >= -1e-9 for s in cp.slack)
        # The path tiles [0, makespan]: starts at zero, no overlaps.
        assert cp.steps[0].event.start == 0.0
        assert cp.steps[-1].event.end == res.makespan

    def test_jacobi_path_equals_makespan(self):
        m, n = 32, 4
        A, b, _ = make_spd_system(m, seed=1)
        res = run_spmd(
            jacobi_rowdist,
            Ring(n),
            MachineModel(tf=1, tc=10),
            args=(A, b, np.zeros(m), 2),
            trace=True,
        )
        cp = critical_path(res.trace)
        assert abs(cp.length - res.makespan) < 1e-9

    def test_path_crosses_ranks_on_message_bound_run(self):
        res = run_spmd(relay, Ring(2), UNIT, trace=True)
        cp = critical_path(res.trace)
        assert abs(cp.length - res.makespan) < 1e-9
        assert set(cp.ranks_visited()) == {0, 1}

    def test_wait_events_not_on_path(self):
        res = run_spmd(relay, Ring(2), UNIT, trace=True)
        cp = critical_path(res.trace)
        assert all(s.event.kind != "wait" for s in cp.steps)

    def test_wire_gap_accounted_with_hop_cost(self):
        model = MachineModel(tf=1, tc=1, hop_cost=5)

        def prog(p):
            if p.rank == 0:
                p.send(2, 1.0)
            elif p.rank == 2:
                yield from p.recv(0)

        from repro.machine import Linear

        res = run_spmd(prog, Linear(3), model, trace=True)
        cp = critical_path(res.trace)
        assert abs(cp.length - res.makespan) < 1e-9
        assert cp.time_by_kind().get("wire", 0.0) > 0

    def test_empty_trace(self):
        cp = critical_path([[], []])
        assert cp.length == 0 and cp.steps == []

    def test_describe_mentions_makespan(self):
        res = run_spmd(relay, Ring(2), UNIT, trace=True)
        text = critical_path(res.trace).describe()
        assert "critical path" in text and "slack" in text


class TestGanttRendering:
    def test_wait_glyph_rendered(self):
        trace = [
            [
                TraceEvent(0, "wait", 0.0, 5.0, peer=1),
                TraceEvent(0, "recv", 5.0, 10.0, peer=1, words=5),
            ]
        ]
        row = gantt(trace, width=10).splitlines()[0]
        assert "~" in row and "<" in row

    def test_priority_compute_over_recv(self):
        # Both events land in the single cell; compute must win regardless
        # of lane insertion order.
        trace = [
            [
                TraceEvent(0, "recv", 0.0, 1.0, peer=1, words=1),
                TraceEvent(0, "compute", 0.5, 1.0),
            ]
        ]
        row = gantt(trace, width=1).splitlines()[0]
        assert "#" in row and "<" not in row

    def test_event_at_horizon_does_not_paint(self):
        # A zero-duration event exactly at the horizon used to clamp into
        # the final cell and overwrite the real occupant.
        trace = [
            [
                TraceEvent(0, "compute", 0.0, 10.0),
                TraceEvent(0, "recv", 10.0, 10.0, peer=1),
            ]
        ]
        row = gantt(trace, width=5).splitlines()[0]
        assert "<" not in row and row.count("#") == 5

    def test_empty_trace(self):
        assert gantt([[]]) == "(empty trace)"

    def test_wait_time_helper(self):
        lane = [
            TraceEvent(0, "wait", 0.0, 3.0, peer=1),
            TraceEvent(0, "recv", 3.0, 4.0, peer=1, words=1),
            TraceEvent(0, "compute", 4.0, 6.0),
        ]
        assert wait_time(lane) == 3.0
