"""Trace-context propagation: one id from CompileRequest to rank lanes.

The acceptance chain under test: a cold ``CompileRequest`` served
through a supervised worker mints a :class:`TraceContext`; the same
run id appears (a) on the ``CompileResult``, (b) in the spans grafted
back from the worker process, and (c) in ``Metrics.obs`` of the
simulated execution — and the merged Perfetto export carries a
``compile->run`` flow arrow from the compiler lane into the rank lanes.
"""

from __future__ import annotations

import json

import pytest

from repro.lang import jacobi_program
from repro.machine import MachineModel, Ring, chrome_trace_json, run_spmd
from repro.machine.export import COMPILER_TID
from repro.obs import (
    TraceContext,
    current_context,
    mint_context,
    stamp_current,
    tracing_context,
)
from repro.service import CompileService, WorkerSupervisor
from repro.util import spans

MODEL = MachineModel(tf=1, tc=10)
ENV = {"m": 32, "maxiter": 2}


def _two_rank_exchange(p):
    p.compute(40)
    p.send((p.rank + 1) % p.nprocs, list(range(8)))
    yield from p.recv((p.rank - 1) % p.nprocs)


class TestTraceContext:
    def test_mint_is_sequential_and_carries_digest(self):
        a = mint_context(request_digest="deadbeefcafe")
        b = mint_context(request_digest="deadbeefcafe")
        assert a.run_id != b.run_id
        assert a.run_id.endswith("deadbeef"[:8]) or "deadbeef" in a.run_id
        assert a.request_digest == "deadbeefcafe"

    def test_round_trip_and_child(self):
        ctx = mint_context(request_digest="abc123")
        again = TraceContext.from_dict(ctx.as_dict())
        assert again == ctx
        kid = ctx.child("run-9999")
        assert kid.run_id == "run-9999"
        assert kid.parent == ctx.run_id
        assert TraceContext.from_dict(kid.as_dict()) == kid

    def test_tracing_context_installs_and_restores(self):
        assert current_context() is None
        ctx = mint_context()
        with tracing_context(ctx):
            assert current_context() == ctx
            inner = mint_context()
            with tracing_context(inner):
                assert current_context() == inner
            assert current_context() == ctx
        assert current_context() is None

    def test_stamp_current_is_noop_outside_context(self):
        res = run_spmd(_two_rank_exchange, Ring(2), MODEL, trace=True)
        stamp_current(res.metrics)
        # run_spmd already stamped (or not) inside the engine; with no
        # ambient context nothing may appear.
        assert "run_id" not in res.metrics.obs


class TestFreeWhenNothingRecords:
    """``span`` and ``tracing_context`` are slotted objects, not
    ``@contextmanager`` generators: the compile service enters three of
    them per request whether or not anything records."""

    def test_neither_is_a_generator_context_manager(self):
        import contextlib

        for cm in (spans.span("x"), tracing_context(mint_context()), tracing_context(None)):
            assert not isinstance(cm, contextlib._GeneratorContextManager)

    def test_without_a_recorder_every_span_is_one_shared_no_op(self):
        assert spans.current_recorder() is None
        shared = spans.span("a")
        assert spans.span("b") is shared
        with shared as entered, shared:  # nests: it holds no state
            assert entered is None
            with spans.recording() as rec:
                with spans.span("inner"):
                    pass
        assert [s.detail for s in rec.spans] == ["inner"]  # "a" recorded nowhere
        with pytest.raises(KeyError):
            with spans.span("c"):
                raise KeyError("propagates")

    def test_a_recorded_compile_records_the_same_spans(self):
        from repro.lang.programs import JACOBI_SOURCE

        svc = CompileService(machine=MODEL)
        with spans.recording() as rec:
            cold = svc.compile(JACOBI_SOURCE, nprocs=4, env=ENV)
            warm = svc.compile(JACOBI_SOURCE, nprocs=4, env=ENV)
        solve = [("alignment/segment", 2), ("alignment/cag", 3), ("alignment/solve", 3)]
        assert [(r["name"], r["depth"]) for r in rec.as_dicts()] == [
            ("service/request", 0), ("service/frontend", 1), ("service/lookup", 1),
            ("codegen/emit", 1), ("service/lookup", 1), ("dp/tables", 1),
            ("alignment/cag", 2), *solve * 3, ("dp/solve", 1),
            ("service/request", 0), ("service/lookup", 1), ("service/lookup", 1),
        ]
        # the lookups run under the request's context, the request span outside it
        runs = [(s.detail, s.run) for s in rec.spans if s.detail.startswith("service/")]
        assert runs[-3:] == [
            ("service/lookup", warm.trace_context.run_id),
            ("service/lookup", warm.trace_context.run_id),
            ("service/request", ""),
        ]
        assert ("service/lookup", cold.trace_context.run_id) in runs

    def test_tracing_context_restores_the_outer_one_after_an_exception(self):
        outer, inner = mint_context(), mint_context()
        with tracing_context(outer):
            with pytest.raises(KeyError):
                with tracing_context(inner) as entered:
                    assert entered is inner and current_context() is inner
                    raise KeyError("propagates")
            assert current_context() is outer
        assert current_context() is None

    def test_tracing_context_of_none_installs_nothing(self):
        with tracing_context(None) as entered:
            assert entered is None and current_context() is None
        outer = mint_context()
        with tracing_context(outer):
            with tracing_context(None) as entered:
                assert entered is None and current_context() is outer
            assert current_context() is outer
        assert current_context() is None


class TestEngineStamping:
    def test_engine_stamps_metrics_obs(self):
        ctx = mint_context(request_digest="feedface")
        with tracing_context(ctx):
            res = run_spmd(_two_rank_exchange, Ring(2), MODEL, trace=True)
        assert res.metrics.obs["run_id"] == ctx.run_id
        assert res.metrics.obs["request_digest"] == "feedface"

    def test_threaded_twin_stamps_identically(self):
        from repro.machine import run_spmd_threaded

        ctx = mint_context()
        with tracing_context(ctx):
            res = run_spmd_threaded(_two_rank_exchange, Ring(2), MODEL)
        assert res.metrics.obs["run_id"] == ctx.run_id


class TestWorkerCarry:
    def test_trace_echo_round_trips_across_the_pickle_boundary(self):
        ctx = mint_context(request_digest="0123456789ab")
        with WorkerSupervisor(1, MODEL) as pool:
            assert pool.call({"kind": "trace-echo"}) is None
            with tracing_context(ctx):
                echoed = pool.call({"kind": "trace-echo"})
        assert echoed == ctx.as_dict()

    def test_graft_reanchors_and_prefixes(self):
        rec = spans.SpanRecorder()
        rec.graft(
            [
                {"name": "dp/solve", "start": 5.0, "end": 7.0, "depth": 0},
                {"name": "codegen/emit", "start": 7.0, "end": 8.5, "depth": 0},
            ],
            at=100.0,
            prefix="worker0/",
        )
        names = sorted(s.detail for s in rec.spans)
        assert names == ["worker0/codegen/emit", "worker0/dp/solve"]
        first = min(rec.spans, key=lambda s: s.start)
        assert first.start == 100.0  # re-anchored to dispatch time
        assert max(s.end for s in rec.spans) == 103.5

    def test_grafted_spans_nest_under_the_dispatching_hub_span(self):
        # worker rows arrive with worker-relative depths (0 = the
        # worker's outermost span); on the hub they render one level
        # below the span that was open at dispatch — the containment
        # Perfetto draws
        class Scripted(spans.SpanRecorder):
            t = 0.0

            def now(self):
                return self.t

        rec = Scripted()
        with rec.span("service/request"):
            rec.t = 1.0
            rec.graft(
                [
                    {"name": "codegen/generate", "start": 7.0, "end": 9.0, "depth": 0},
                    {"name": "codegen/emit", "start": 7.5, "end": 8.0, "depth": 1},
                    {"name": "service/fallback", "start": 8.5, "end": 8.5, "depth": 1},
                ],
                at=rec.now(),
                prefix="worker0/",
            )
            rec.t = 4.0
        depth = {r["name"]: r["depth"] for r in rec.as_dicts()}
        assert depth == {
            "service/request": 0,
            "worker0/codegen/generate": 1,
            "worker0/codegen/emit": 2,
            "worker0/service/fallback": 2,
        }


class TestCompileServiceCorrelation:
    @pytest.fixture(scope="class")
    def served(self):
        with CompileService(machine=MODEL, workers=1) as svc:
            with spans.recording() as rec:
                result = svc.compile(jacobi_program(), nprocs=4, env=ENV)
            run = result.run(model=MODEL, trace=True)
        return result, run, rec

    def test_cold_compile_mints_context(self, served):
        result, _, _ = served
        ctx = result.trace_context
        assert ctx is not None
        assert ctx.request_digest  # the plan key
        assert ctx.run_id.startswith("run-")

    def test_one_id_links_compile_worker_and_run(self, served):
        result, run, rec = served
        ctx = result.trace_context
        # (b) worker spans came back grafted into the hub recorder
        names = [s.detail for s in rec.spans]
        assert any(n.startswith("worker0/") for n in names), names
        # ... nested under the hub's request span, carrying its run id
        depth = {r["name"]: r["depth"] for r in rec.as_dicts()}
        assert all(
            d > depth["service/request"]
            for n, d in depth.items() if n.startswith("worker0/")
        )
        assert {s.run for s in rec.spans if s.detail.startswith("worker0/")} == {
            ctx.run_id
        }
        # (c) the simulated execution carries the same id
        assert run.metrics.obs["run_id"] == ctx.run_id
        assert run.metrics.obs["request_digest"] == ctx.request_digest

    def test_merged_export_has_flow_arrow_across_boundary(self, served):
        result, run, rec = served
        ctx = result.trace_context
        # json round-trip proves the export is a valid Perfetto document
        doc = json.loads(
            json.dumps(
                chrome_trace_json(run.trace, spans=rec.spans, context=ctx)
            )
        )
        events = doc["traceEvents"]
        tids = {e.get("tid") for e in events if e.get("ph") == "X"}
        assert COMPILER_TID in tids  # compiler lane present
        assert 0 in tids and 3 in tids  # rank lanes present
        flows = [
            e for e in events
            if e.get("ph") in ("s", "f") and e.get("cat") == "obs"
        ]
        starts = [e for e in flows if e["ph"] == "s"]
        finishes = [e for e in flows if e["ph"] == "f"]
        assert len(starts) == 1 and len(finishes) == 1
        assert starts[0]["name"] == finishes[0]["name"] == "compile->run"
        assert starts[0]["id"] == finishes[0]["id"]
        assert starts[0]["tid"] == COMPILER_TID
        assert finishes[0]["tid"] != COMPILER_TID  # lands on a rank lane
        assert doc["otherData"]["trace_context"]["run_id"] == ctx.run_id

    def test_export_without_context_has_no_flow_arrow(self, served):
        _, run, _ = served
        doc = chrome_trace_json(run.trace)
        assert not [
            e for e in doc["traceEvents"]
            if e.get("ph") in ("s", "f") and e.get("cat") == "obs"
        ]


class TestExportDeduplication:
    def test_metadata_emitted_once_when_merged_twice(self):
        from repro.machine.export import merge_events

        res = run_spmd(_two_rank_exchange, Ring(2), MODEL, trace=True)
        doc_a = chrome_trace_json(res.trace)
        doc_b = chrome_trace_json(res.trace)
        merged = merge_events(doc_a["traceEvents"], doc_b["traceEvents"])
        meta = [e for e in merged if e.get("ph") == "M"]
        keys = [(e["name"], e["pid"], e["tid"], tuple(sorted(e["args"].items())))
                for e in meta]
        assert len(keys) == len(set(keys))

    def test_export_is_deterministic(self):
        res = run_spmd(_two_rank_exchange, Ring(2), MODEL, trace=True)
        rec = spans.SpanRecorder()
        with rec.span("alpha"):
            pass
        with rec.span("beta"):
            pass
        one = json.dumps(chrome_trace_json(res.trace, spans=rec.spans),
                         sort_keys=True)
        two = json.dumps(chrome_trace_json(res.trace, spans=rec.spans),
                         sort_keys=True)
        assert one == two  # byte-identical exports
