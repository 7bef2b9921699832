"""TraceStore: structured event sink, query API, aggregations, JSONL.

The hypothesis sweep is the load-bearing piece: every query the store
answers must equal brute-force filtering over the same event list, so
the indexless implementation can never drift from its contract.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import TraceError
from repro.machine import MachineModel, Ring, run_spmd
from repro.machine.trace import TraceEvent
from repro.obs.context import TraceContext
from repro.obs import TraceStore, tracing_context
from repro.obs.store import SCHEMA, _scope_matches

MODEL = MachineModel(tf=1, tc=10)


def _ring_kernel(p):
    p.compute(30 * (p.rank + 1))
    p.send((p.rank + 1) % p.nprocs, list(range(4 + p.rank)), tag=7)
    yield from p.recv((p.rank - 1) % p.nprocs, tag=7)


@pytest.fixture(scope="module")
def store():
    with tracing_context(TraceContext(run_id="r1")):
        res = run_spmd(_ring_kernel, Ring(4), MODEL, trace=True)
    return TraceStore.from_run(res), res


class TestIngest:
    def test_from_run_mirrors_the_trace(self, store):
        s, res = store
        flat = [e for lane in res.trace for e in lane]
        assert len(s.query(lane="rank")) == len(flat)
        assert s.nprocs == 4

    def test_rank_lanes_round_trip(self, store):
        s, res = store
        lanes = s.rank_lanes()
        assert [[e.as_dict() for e in lane] for lane in lanes] == [
            [e.as_dict() for e in lane] for lane in res.trace
        ]

    @pytest.mark.parametrize("ctx", [None, TraceContext(run_id="r7")])
    def test_store_holds_the_engines_own_events(self, ctx):
        # no copy in either direction: what the diagnostics and the
        # critical-path walker read are the objects the lanes cached
        with tracing_context(ctx):
            res = run_spmd(_ring_kernel, Ring(4), MODEL, trace=True)
        run = res.metrics.obs.get("run_id", "")
        assert run == (ctx.run_id if ctx else "")
        s = TraceStore.from_run(res)
        lanes = s.rank_lanes()
        assert len(s) == sum(len(lane) for lane in res.trace)
        for r, lane in enumerate(res.trace):
            assert len(lanes[r]) == len(lane)
            for i, e in enumerate(lane):
                assert lanes[r][i] is e
                assert e.run == run and e.lane == "rank" and e.clock == "sim"

    def test_add_spans_lands_on_compiler_lane(self):
        s = TraceStore(nprocs=2)
        s.add_spans(
            [TraceEvent(-1, "span", 0.0, 2.0, detail="dp/solve",
                        lane="compiler", run="r9")]
        )
        (e,) = s.query(lane="compiler")
        assert e.detail == "dp/solve" and e.run == "r9" and e.rank == -1


class TestQuery:
    def test_kind_accepts_str_or_tuple(self, store):
        s, _ = store
        sends = s.query(kind="send")
        both = s.query(kind=("send", "recv"))
        assert sends and set(sends) <= set(both)

    def test_scope_prefix_matching(self):
        assert _scope_matches("redist/bcast", "redist")
        assert _scope_matches("redist", "redist")
        assert not _scope_matches("redistribute", "redist")

    def test_between_is_half_open(self):
        s = TraceStore(nprocs=1)
        s.add(TraceEvent(lane="rank", rank=0, kind="compute", start=0.0, end=10.0))
        s.add(TraceEvent(lane="rank", rank=0, kind="compute", start=10.0, end=20.0))
        assert len(s.query(between=(0.0, 10.0))) == 1
        assert len(s.query(between=(5.0, 15.0))) == 2

    def test_zero_duration_events_are_points(self):
        s = TraceStore(nprocs=1)
        s.add(TraceEvent(lane="rank", rank=0, kind="send", start=5.0, end=5.0))
        assert len(s.query(between=(0.0, 5.0))) == 0
        assert len(s.query(between=(5.0, 6.0))) == 1


class TestAggregations:
    def test_wait_seconds_matches_metrics(self, store):
        s, res = store
        assert s.wait_seconds() == pytest.approx(res.metrics.wait_seconds)

    def test_busy_by_rank_is_monotone_here(self, store):
        s, _ = store
        busy = s.busy_by_rank()
        assert busy[0] < busy[1] < busy[2] < busy[3]

    def test_send_matrix_totals_message_words(self, store):
        s, _ = store
        matrix = s.send_matrix()
        assert sum(map(sum, matrix)) == s.message_words()
        # ring: rank r sends 4+r words to r+1
        for r in range(4):
            assert matrix[r][(r + 1) % 4] == 4 + r

    def test_recv_matrix_conserves_delivered_words(self, store):
        s, _ = store
        # nothing dropped in a clean run: drained == injected per channel
        assert s.recv_matrix() == s.send_matrix()


class TestJsonl:
    def test_round_trip(self, store, tmp_path):
        s, _ = store
        path = s.write_jsonl(tmp_path / "events.jsonl")
        again = TraceStore.read_jsonl(path)
        assert again.nprocs == s.nprocs
        assert [e.as_dict() for e in again.events] == [
            e.as_dict() for e in s.events
        ]

    def test_header_carries_schema(self, store, tmp_path):
        s, _ = store
        path = s.write_jsonl(tmp_path / "events.jsonl")
        header = json.loads(path.read_text().splitlines()[0])
        assert header == {"schema": SCHEMA, "nprocs": 4}

    def test_schema_mismatch_rejected(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"schema": "other/9", "nprocs": 1}\n')
        with pytest.raises(ValueError, match="other/9"):
            TraceStore.read_jsonl(bad)

    @pytest.mark.parametrize(
        "text,line",
        [
            ("", "empty"),                                    # empty file
            ("not json\n", "line 1"),                         # foreign file
            ("[1, 2]\n", "line 1"),                           # JSON, not a header
            ('HEADER\n{"lane": "rank", "rank": 0', "line 2"),  # truncated line
            ('HEADER\n\n{"lane": "rank", "rank": 0}\n', "line 3"),  # missing keys
            ('HEADER\nLINE\n{"rank": "x"}\n', "line 3"),      # wrong types
        ],
    )
    def test_malformed_file_raises_one_typed_error(self, store, tmp_path, text, line):
        s, _ = store
        good = s.write_jsonl(tmp_path / "good.jsonl").read_text().splitlines()
        bad = tmp_path / "bad.jsonl"
        bad.write_text(text.replace("HEADER", good[0]).replace("LINE", good[1]))
        with pytest.raises(TraceError, match=line) as info:
            TraceStore.read_jsonl(bad)
        assert str(bad) in str(info.value)

    def test_understated_nprocs_header_still_covers_every_rank(self, store, tmp_path):
        s, _ = store
        path = s.write_jsonl(tmp_path / "events.jsonl")
        lines = path.read_text().splitlines()
        lines[0] = json.dumps({"schema": SCHEMA, "nprocs": 1})
        path.write_text("\n".join(lines) + "\n")
        again = TraceStore.read_jsonl(path)
        assert again.nprocs == 4
        assert [len(lane) for lane in again.rank_lanes()] == [
            len(lane) for lane in s.rank_lanes()
        ]


# -- hypothesis sweep: query == brute force ------------------------------

_KINDS = ("compute", "send", "recv", "wait", "fault")

_events = st.lists(
    st.builds(
        TraceEvent,
        lane=st.sampled_from(("rank", "compiler")),
        rank=st.integers(min_value=-1, max_value=3),
        kind=st.sampled_from(_KINDS),
        start=st.integers(min_value=0, max_value=40).map(float),
        end=st.integers(min_value=0, max_value=20).map(float),
        peer=st.one_of(st.none(), st.integers(min_value=0, max_value=3)),
        words=st.integers(min_value=0, max_value=9),
        tag=st.integers(min_value=0, max_value=3),
        scope=st.sampled_from(("", "redist", "redist/bcast", "cg")),
        run=st.sampled_from(("", "r1", "r2")),
    ).map(
        # make end >= start so durations are well-formed
        lambda e: TraceEvent(
            lane=e.lane, rank=e.rank, kind=e.kind, start=e.start,
            end=e.start + e.end, peer=e.peer, words=e.words, tag=e.tag,
            detail=e.detail, scope=e.scope, run=e.run,
        )
    ),
    max_size=40,
)

_filters = st.fixed_dictionaries(
    {},
    optional={
        "lane": st.sampled_from(("rank", "compiler")),
        "rank": st.integers(min_value=-1, max_value=3),
        "kind": st.one_of(
            st.sampled_from(_KINDS),
            st.tuples(st.sampled_from(_KINDS), st.sampled_from(_KINDS)),
        ),
        "peer": st.integers(min_value=0, max_value=3),
        "tag": st.integers(min_value=0, max_value=3),
        "scope": st.sampled_from(("redist", "cg")),
        "run": st.sampled_from(("", "r1", "r2")),
        "between": st.tuples(
            st.integers(min_value=0, max_value=30).map(float),
            st.integers(min_value=30, max_value=70).map(float),
        ),
    },
)


def _brute_force(events, f):
    kinds = (f["kind"],) if isinstance(f.get("kind"), str) else f.get("kind")
    out = []
    for e in events:
        if "lane" in f and e.lane != f["lane"]:
            continue
        if "rank" in f and e.rank != f["rank"]:
            continue
        if kinds is not None and e.kind not in kinds:
            continue
        if "peer" in f and e.peer != f["peer"]:
            continue
        if "tag" in f and e.tag != f["tag"]:
            continue
        if "scope" in f and not (
            e.scope == f["scope"] or e.scope.startswith(f["scope"] + "/")
        ):
            continue
        if "run" in f and e.run != f["run"]:
            continue
        if "between" in f:
            t0, t1 = f["between"]
            if e.start == e.end:
                if not (t0 <= e.start < t1):
                    continue
            elif not (e.start < t1 and e.end > t0):
                continue
        out.append(e)
    return out


class TestQueryEqualsBruteForce:
    @settings(max_examples=120, deadline=None)
    @given(events=_events, filters=_filters)
    def test_sweep(self, events, filters):
        s = TraceStore(nprocs=4)
        for e in events:
            s.add(e)
        assert s.query(**filters) == _brute_force(events, filters)

    @settings(max_examples=60, deadline=None)
    @given(events=_events)
    def test_aggregations_consistent(self, events):
        s = TraceStore(nprocs=4)
        for e in events:
            s.add(e)
        assert s.wait_seconds() == pytest.approx(
            sum(e.end - e.start for e in events if e.kind == "wait")
        )
        assert s.message_words() == sum(
            e.words for e in events if e.kind in ("send", "isend")
        )
        assert len(s) == len(events)
