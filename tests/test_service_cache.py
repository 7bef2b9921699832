"""PlanCache tiers + CompileService/Session behavior.

The headline guarantees under test:

* a cached Plan is *bit-identical* to a fresh compile (same generated
  source, same run values on both engines, same solve cost);
* the memory tier is a bounded LRU that spills to disk and promotes
  back;
* alpha-twins share entries, with env/input keys translated through the
  composed rename map;
* batch compiles share DP sub-results; the job queue delivers results
  (and exceptions) through CompileJob handles;
* a cached solve outcome decodes its DP tables on first read and is
  otherwise indistinguishable from the cold one (ISSUE 16).
"""

from __future__ import annotations

import hashlib
import json
import pickle

import numpy as np
import pytest

from repro.api import Session, SolveOutcome, compile_program
from repro.dp.phases import solve_program_distribution
from repro.errors import ReproError
from repro.lang import (
    gauss_program,
    jacobi_program,
    matmul_program,
    parse_program,
    program_to_text,
    sor_program,
)
from repro.machine.model import MachineModel
from repro.service import CompileService, PlanCache, make_cache
from repro.util import spans
from tests.test_phase_tables_incremental import GOLDEN_PATH
from tests.test_phase_tables_incremental import MODEL as GOLDEN_MODEL
from tests.test_phase_tables_incremental import NPROCS as GOLDEN_NPROCS
from tests.test_phase_tables_incremental import PROGRAMS as GOLDEN_PROGRAMS

MODEL = MachineModel(tf=1, tc=10)
ENV = {"m": 32, "maxiter": 2}

CORPUS = [
    (jacobi_program, {"m": 32, "maxiter": 2}),
    (sor_program, {"m": 32, "maxiter": 2}),
    (gauss_program, {"m": 24}),
    (matmul_program, {"n": 16}),
]


class TestPlanCache:
    def test_lru_eviction_and_counters(self):
        cache = PlanCache(capacity=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refresh a
        cache.put("c", 3)  # evicts b
        assert cache.get("b") is None
        assert cache.get("a") == 1 and cache.get("c") == 3
        assert cache.stats.evictions == 1
        assert cache.stats.hits == 3 and cache.stats.misses == 1
        assert cache.stats.hit_rate == pytest.approx(0.75)

    def test_values_are_isolated_copies(self):
        cache = PlanCache()
        value = {"xs": [1, 2]}
        cache.put("k", value)
        got = cache.get("k")
        got["xs"].append(3)
        assert cache.get("k") == {"xs": [1, 2]}  # put-time snapshot
        # The deferred section of a solve outcome is as isolated as the
        # eager one: each hit decodes its own tables.
        cold = compile_program(jacobi_program()).solve(4, ENV, model=MODEL)
        cache.put("s", cold)
        hit = cache.get("s")
        hit.tables.entries.clear()
        hit.tables.env["m"] = -1
        later = cache.get("s")
        assert later.tables.entries.keys() == cold.tables.entries.keys()
        assert later.tables.env == cold.tables.env

    def test_disk_spill_and_promotion(self, tmp_path):
        cache = PlanCache(capacity=1, disk_dir=tmp_path)
        cache.put("a", "A")
        cache.put("b", "B")  # a evicted to disk
        assert len(cache) == 1
        assert (tmp_path / "a.pkl").exists()
        assert cache.get("a") == "A"  # promoted back
        assert cache.stats.disk_hits == 1
        assert cache.prune() == 2
        assert not list(tmp_path.glob("*.pkl"))

    def test_clear_keeps_disk(self, tmp_path):
        cache = PlanCache(capacity=4, disk_dir=tmp_path)
        cache.put("a", "A")
        cache.clear()
        assert len(cache) == 0 and cache.stats.lookups == 0
        assert cache.get("a") == "A"  # from disk

    def test_make_cache_modes(self, tmp_path):
        assert make_cache("off") is None
        assert make_cache("memory").disk_dir is None
        assert make_cache("disk", disk_dir=tmp_path).disk_dir == tmp_path
        with pytest.raises(ReproError, match="disk"):
            make_cache("disk")
        with pytest.raises(ReproError, match="unknown cache mode"):
            make_cache("sideways")
        with pytest.raises(ReproError, match="capacity"):
            PlanCache(capacity=0)


class TestColdWarmParity:
    @pytest.mark.parametrize("maker,env", CORPUS, ids=lambda v: getattr(v, "__name__", ""))
    def test_cached_plan_bit_identical(self, maker, env):
        program = maker()
        svc = CompileService(machine=MODEL)
        nprocs = 4
        cold = svc.compile(program, nprocs=nprocs, env=env)
        warm = svc.compile(program, nprocs=nprocs, env=env)
        assert not cold.cached and warm.cached and warm.solve_cached
        # Identical artifacts...
        assert warm.source == cold.source
        assert pickle.dumps(warm.generated) == pickle.dumps(cold.generated)
        assert warm.outcome.cost == cold.outcome.cost
        # ...and identical executions on both engines.
        for backend in ("engine", "threaded"):
            a = cold.run(backend=backend, seed=3)
            b = warm.run(backend=backend, seed=3)
            assert a.makespan == b.makespan
            assert a.message_words == b.message_words
            va, vb = a.values[0], b.values[0]
            if isinstance(va, dict):
                assert all(np.array_equal(va[k], vb[k]) for k in va)
            else:
                assert np.array_equal(np.asarray(va), np.asarray(vb))

    def test_cache_off_recompiles(self):
        svc = CompileService(machine=MODEL, cache="off")
        a = svc.compile(jacobi_program())
        b = svc.compile(jacobi_program())
        assert not a.cached and not b.cached
        assert svc.stats.lookups == 0
        # ... and a service told to keep nothing keeps no source-text
        # memo either: byte-identical text is parsed every time, alone
        # and in a batch (whose ephemeral cache still coalesces plans).
        text = program_to_text(jacobi_program())
        with spans.recording() as rec:
            c = svc.compile(text)
            d = svc.compile(text)
            batch = svc.compile_batch([text, text])
        assert not c.cached and not d.cached
        assert [r.cached for r in batch] == [False, True]
        assert not svc._forms
        assert d.service_stats["frontend_skips"] == 0
        assert batch[-1].service_stats["frontend_skips"] == 0
        assert sum(s.detail == "service/frontend" for s in rec.spans) == 4


def golden_solve(label):
    """``(cold outcome, its canonical pickle)`` of one program
    pinned by ``tests/goldens/solve_pickles.json``."""
    source, env = GOLDEN_PROGRAMS[label]
    tables, result = solve_program_distribution(
        parse_program(source), GOLDEN_NPROCS, env, GOLDEN_MODEL
    )
    cold = SolveOutcome(tables=tables, result=result)
    return cold, pickle.dumps(cold, pickle.HIGHEST_PROTOCOL)


def undecoded(outcome) -> bool:
    return "tables" not in vars(outcome)


class TestDeferredTables:
    """A cached ``SolveOutcome`` keeps its ``tables`` as bytes until they
    are read; every observable of it equals the cold outcome's."""

    @pytest.mark.parametrize("label", sorted(GOLDEN_PROGRAMS))
    def test_hit_pickles_to_the_golden_bytes_before_and_after_touch(self, label):
        cold, cold_bytes = golden_solve(label)
        golden = json.loads(GOLDEN_PATH.read_text())[label]
        assert hashlib.sha256(cold_bytes).hexdigest() == golden["sha256"]
        # What the single-pickle layout served for these bytes.  (Not
        # cold_bytes themselves: a solve that did not come through the
        # service pickles a few bytes longer than any round trip of it,
        # because the unpickler returns CPython's cached one-character
        # str for every "m" where the direct call passes its own.)
        plain = pickle.dumps(pickle.loads(cold_bytes), pickle.HIGHEST_PROTOCOL)
        cache = PlanCache()
        cache.put("s", cold)
        untouched, touched = cache.get("s"), cache.get("s")
        assert undecoded(untouched) and undecoded(touched)
        assert touched.tables.entries.keys() == cold.tables.entries.keys()
        assert not undecoded(touched)
        for hit in (untouched, touched):
            assert pickle.dumps(hit, pickle.HIGHEST_PROTOCOL) == plain

    @pytest.mark.parametrize("maker,env", CORPUS, ids=lambda v: getattr(v, "__name__", ""))
    def test_served_hit_pickles_to_the_cold_outcomes_bytes(self, maker, env):
        svc = CompileService(machine=MODEL)
        text = program_to_text(maker())
        cold = svc.compile(text, nprocs=4, env=env)
        cold_bytes = pickle.dumps(cold.outcome, pickle.HIGHEST_PROTOCOL)
        untouched = svc.compile(text, nprocs=4, env=env).outcome
        touched = svc.compile(text, nprocs=4, env=env).outcome
        assert touched.tables.s == cold.outcome.tables.s
        assert undecoded(untouched) and not undecoded(touched)
        assert pickle.dumps(untouched, pickle.HIGHEST_PROTOCOL) == cold_bytes
        assert pickle.dumps(touched, pickle.HIGHEST_PROTOCOL) == cold_bytes

    @pytest.mark.parametrize("label", sorted(GOLDEN_PROGRAMS))
    def test_objects_shared_between_head_and_rest_stay_shared(self, label):
        cold, _ = golden_solve(label)
        cache = PlanCache()
        cache.put("s", cold)
        hit = cache.get("s")

        def shares(outcome):
            return {
                (i, seg)
                for i, (scheme, _grid) in enumerate(outcome.result.schemes)
                for seg, entry in outcome.tables.entries.items()
                if scheme is entry.scheme
            }

        assert shares(cold)  # Algorithm 1 returns the tables' own schemes
        assert shares(hit) == shares(cold)

    def test_result_is_served_without_decoding_tables(self):
        svc = CompileService(machine=MODEL)
        cold = svc.compile(jacobi_program(), nprocs=4, env=ENV)
        warm = svc.compile(jacobi_program(), nprocs=4, env=ENV)
        assert warm.solve_cached
        assert warm.outcome.cost == cold.outcome.cost
        assert warm.outcome.loop_carried == cold.outcome.loop_carried
        assert warm.outcome.result == cold.outcome.result
        assert undecoded(warm.outcome)

    def test_unpacking_equality_and_explain_still_work(self):
        svc = CompileService(machine=MODEL)
        cold = svc.compile(jacobi_program(), nprocs=4, env=ENV, execute=True)
        warm = svc.compile(jacobi_program(), nprocs=4, env=ENV, execute=True)
        tables, result, validation = warm.outcome
        assert result == cold.outcome.result
        assert tables.entries.keys() == cold.outcome.tables.entries.keys()
        assert validation is not None
        assert warm.solve(execute=True) is warm.outcome
        explanation = warm.explain()
        assert explanation.total_cost == cold.outcome.cost
        assert str(explanation) == str(cold.explain())
        with pytest.raises(AttributeError, match="no_such_field"):
            warm.outcome.no_such_field

    def test_reput_of_a_hit_roundtrips_without_decoding(self):
        cold, _ = golden_solve("chain-s5")
        cache = PlanCache()
        cache.put("s", cold)
        hit = cache.get("s")
        cache.put("again", hit)
        assert undecoded(hit)
        assert cache._mem["again"] is cache._mem["s"]
        assert pickle.dumps(cache.get("again")) == pickle.dumps(cache.get("s"))

    def test_reput_after_changing_the_head_stores_the_change(self):
        cold, _ = golden_solve("jacobi")
        cache = PlanCache()
        cache.put("s", cold)
        hit = cache.get("s")
        object.__setattr__(hit.result, "cost", -1.0)
        cache.put("edited", hit)
        edited = cache.get("edited")
        assert edited.cost == -1.0
        assert edited.tables.entries.keys() == cold.tables.entries.keys()
        assert cache.get("s").cost == cold.cost

    def test_other_tenants_are_all_head(self):
        from repro.distribution.sparse import SparsePlacement
        from repro.pipeline.inspector import cached_comm_schedule
        from repro.sparse.csr import random_pattern

        cache = PlanCache()
        placement = SparsePlacement(random_pattern(16, 16, 0.3, seed=6), 4)
        built, _ = cached_comm_schedule(placement, cache)
        served, hit = cached_comm_schedule(placement, cache)
        assert hit and built.content_equal(served)
        assert pickle.dumps(served) == pickle.dumps(built)


class TestAlphaTwinServing:
    TWIN = """\
PROGRAM heatstep
PARAM size, steps
ARRAY Stiff(size, size), Resid(size), Load(size), Temp(size)
DO t = 1, steps
  DO row = 1, size
    Resid(row) = 0.0
    DO col = 1, size
      Resid(row) = Resid(row) + Stiff(row, col) * Temp(col)
    END DO
  END DO
  DO row = 1, size
    Temp(row) = Temp(row) + (Load(row) - Resid(row)) / Stiff(row, row)
  END DO
END DO
END
"""

    def test_twin_hits_and_translates(self):
        svc = CompileService(machine=MODEL)
        first = svc.compile(jacobi_program(), nprocs=4, env=ENV)
        twin = svc.compile(self.TWIN, nprocs=4, env={"size": 32, "steps": 2})
        assert twin.cached and twin.solve_cached
        assert twin.digest == first.digest
        assert twin.rename["Stiff"] == "A" and twin.rename["size"] == "m"
        # Run with the twin's own names; result matches the original.
        a = first.run(seed=1)
        b = twin.run(4, {"size": 32, "steps": 2}, seed=1)
        assert a.makespan == b.makespan
        assert np.array_equal(np.asarray(a.values[0]), np.asarray(b.values[0]))

    def test_twin_solve_outcome_shared(self):
        svc = CompileService(machine=MODEL)
        first = svc.compile(jacobi_program(), nprocs=8, env={"m": 64, "maxiter": 1})
        twin = svc.compile(self.TWIN, nprocs=8, env={"size": 64, "steps": 1})
        assert twin.outcome.cost == first.outcome.cost

    def test_identity_rename_on_miss(self):
        svc = CompileService(machine=MODEL)
        res = svc.compile(jacobi_program())
        assert all(k == v for k, v in res.rename.items())


class TestBatchAndQueue:
    def test_batch_shares_segments_and_coalesces_twins(self):
        svc = CompileService(machine=MODEL, cache="off")
        twin = program_to_text(jacobi_program()).replace("V", "TMP")
        out = svc.compile_batch(
            [jacobi_program(), twin, sor_program()], nprocs=4, env=ENV
        )
        assert [r.cached for r in out] == [False, True, False]
        assert out[1].outcome.cost == out[0].outcome.cost

    def test_batch_results_match_individual_compiles(self):
        batch_svc = CompileService(machine=MODEL)
        solo_svc = CompileService(machine=MODEL, cache="off")
        batch = batch_svc.compile_batch(
            [m() for m, _ in CORPUS[:2]], nprocs=4, env=ENV
        )
        for res, (maker, _) in zip(batch, CORPUS[:2]):
            solo = solo_svc.compile(maker(), nprocs=4, env=ENV)
            assert res.outcome.cost == solo.outcome.cost
            assert res.source == solo.source

    def test_job_queue_roundtrip(self):
        with CompileService(machine=MODEL) as svc:
            jobs = [svc.submit(m()) for m, _ in CORPUS]
            results = [j.wait(120) for j in jobs]
        assert [r.strategy for r in results] == [
            "data-parallel", "ring-pipeline", "cyclic-pipeline", "cannon",
        ]

    def test_job_queue_delivers_exceptions(self):
        bad = parse_program(
            "PROGRAM t\nPARAM n\nARRAY A(n, n)\n"
            "DO i = 1, n\nDO j = 1, n\nA(i, j) = A(j, i)\nEND DO\nEND DO\nEND\n"
        )
        with CompileService(machine=MODEL) as svc:
            job = svc.submit(bad)
            with pytest.raises(ReproError):
                job.wait(120)

    def test_submit_after_close_rejected(self):
        svc = CompileService(machine=MODEL)
        svc.close()
        with pytest.raises(ReproError, match="closed"):
            svc.submit(jacobi_program())

    def test_parallel_workers(self):
        with CompileService(machine=MODEL).start(workers=3) as svc:
            jobs = [svc.submit(m(), nprocs=4, env=e) for m, e in CORPUS]
            results = [j.wait(240) for j in jobs]
        assert all(r.outcome is not None and r.outcome.cost > 0 for r in results)


class TestSessionApi:
    def test_session_veneer(self, tmp_path):
        session = Session(machine=MODEL, cache="disk", cache_dir=tmp_path)
        res = session.compile(jacobi_program(), nprocs=4, env=ENV)
        assert res.outcome.cost > 0
        assert session.stats.puts == 2  # plan + solve entries
        # A second session over the same directory warm-starts from disk.
        other = Session(machine=MODEL, cache="disk", cache_dir=tmp_path)
        again = other.compile(jacobi_program(), nprocs=4, env=ENV)
        assert again.cached and again.solve_cached
        assert other.stats.disk_hits == 2
        assert again.source == res.source

    def test_session_defaults_match_compile_program(self):
        plan = compile_program(jacobi_program())
        res = Session(machine=MODEL).compile(jacobi_program())
        assert res.source == plan.source
        assert res.outcome is None  # no nprocs/env on the request

    def test_session_machine_changes_solve_key(self):
        fast = Session(machine=MachineModel(tf=1, tc=1))
        slow = Session(machine=MachineModel(tf=1, tc=100))
        a = fast.compile(jacobi_program(), nprocs=4, env=ENV)
        b = slow.compile(jacobi_program(), nprocs=4, env=ENV)
        assert a.solve_key != b.solve_key
        assert a.outcome.cost < b.outcome.cost

    def test_session_shared_cache_object(self):
        shared = PlanCache(capacity=16)
        s1 = Session(machine=MODEL, cache=shared)
        s2 = Session(machine=MODEL, cache=shared)
        s1.compile(jacobi_program())
        assert s2.compile(jacobi_program()).cached

    def test_session_context_manager_queue(self):
        with Session(machine=MODEL) as session:
            job = session.submit(jacobi_program(), nprocs=4, env=ENV)
            res = job.wait(120)
        assert res.outcome.cost > 0

    def test_run_metrics_carry_cache_counters(self):
        from repro.machine.metrics import Metrics

        session = Session(machine=MODEL)
        session.compile(jacobi_program(), nprocs=4, env=ENV)
        warm = session.compile(jacobi_program(), nprocs=4, env=ENV)
        res = warm.run(seed=0)
        assert res.metrics.service["cache_hit"] == 1
        assert res.metrics.service["solve_cache_hit"] == 1
        assert res.metrics.service["cache_hits"] == 2
        assert res.metrics.service["cache_puts"] == 2
        # The counters survive the snapshot round trip and render.
        snap = res.metrics.as_dict()
        assert Metrics.from_dict(snap).as_dict() == snap
        assert "Compile-service cache" in res.metrics.summary()

    def test_the_service_observes_its_own_hit_path(self):
        text = program_to_text(jacobi_program())
        session = Session(machine=MODEL)
        with spans.recording() as cold_rec:
            cold = session.compile(text, nprocs=4, env=ENV)
        with spans.recording() as warm_rec:
            warm = session.compile(text, nprocs=4, env=ENV)
        names = [s.detail for s in cold_rec.spans]
        assert names.count("service/frontend") == 1
        assert names.count("service/lookup") == 2  # plan key, solve key
        assert cold.service_stats["frontend_skips"] == 0
        names = [s.detail for s in warm_rec.spans]
        assert "service/frontend" not in names
        assert names.count("service/lookup") == 2 and "service/request" in names
        assert warm.cached and warm.solve_cached
        assert warm.service_stats["frontend_skips"] == 1
        assert warm.run(seed=0).metrics.service["frontend_skips"] == 1
        # memo traffic is not cache traffic
        assert (session.stats.hits, session.stats.misses) == (2, 2)
