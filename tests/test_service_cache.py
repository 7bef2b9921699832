"""PlanCache tiers + CompileService/Session behavior.

The headline guarantees under test:

* a cached Plan is *bit-identical* to a fresh compile (same generated
  source, same run values on both engines, same solve cost);
* the memory tier is a bounded LRU that spills to disk and promotes
  back;
* alpha-twins share entries, with env/input keys translated through the
  composed rename map;
* a batch serves each program what a solo compile serves, sharing the
  plan cache only; the job queue delivers results (and exceptions)
  through CompileJob handles;
* a served result solves and explains under the service's machine;
* a cached solve outcome decodes its DP tables (and rebuilds its chosen
  schemes from them), and a cached plan its program and pattern, on
  first read and is otherwise indistinguishable from the cold value.
"""

from __future__ import annotations

import copy
import gc
import hashlib
import io
import json
import pickle
import pickletools
import sys
import threading
from dataclasses import dataclass, fields, replace

import numpy as np
import pytest

from repro.api import Session, SolveOutcome, compile_program
from repro.codegen import generate_spmd
from repro.codegen.families import FAMILIES
from repro.dp.phases import solve_program_distribution
from repro.errors import ReproError, ServiceError
from repro.lang import (
    gauss_program,
    jacobi_program,
    matmul_program,
    parse_program,
    program_to_text,
    sor_program,
)
from repro.lang.programs import JACOBI_SOURCE
from repro.machine.model import MachineModel
from repro.service import CompileService, PlanCache, canonicalize
from repro.service.cache import make_cache
from repro.service import cache as cache_mod
from repro.service.plan import PlanEntry
from repro.util import spans
from repro.util.lazy import Lazy, lazy, pending
from tests.test_canonical_text_golden import perf_corpus
from tests.test_phase_tables_incremental import GOLDEN_PATH
from tests.test_phase_tables_incremental import MODEL as GOLDEN_MODEL
from tests.test_phase_tables_incremental import NPROCS as GOLDEN_NPROCS
from tests.test_phase_tables_incremental import PROGRAMS as GOLDEN_PROGRAMS
from tests.test_stencil2d_codegen import HEAT2D

MODEL = MachineModel(tf=1, tc=10)
ENV = {"m": 32, "maxiter": 2}

CORPUS = [
    (jacobi_program, {"m": 32, "maxiter": 2}),
    (sor_program, {"m": 32, "maxiter": 2}),
    (gauss_program, {"m": 24}),
    (matmul_program, {"n": 16}),
]

#: Pickle looks a function up by its qualified name; this one has none.
UNPICKLABLE = lambda: 0  # noqa: E731


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

    @pytest.mark.parametrize(
        "value,kind,cause",
        [(UNPICKLABLE, "function", pickle.PicklingError), (threading.Lock(), "lock", TypeError)],
        ids=["lambda", "lock"],
    )
    def test_unpicklable_put_is_a_typed_error_and_not_counted(self, value, kind, cause):
        cache = PlanCache()
        with pytest.raises(ServiceError, match=f"{kind} under cache key 'k'") as info:
            cache.put("k", value)
        assert isinstance(info.value.__cause__, cause)
        assert cache.stats.puts == 0 and len(cache) == 0

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


def plan_sources() -> dict[str, str]:
    """The paper's four listings, the 2-D heat stencil, and the perf
    corpus (programs and alpha-twins) at seeds 0 and 23."""
    texts = {maker.__name__: program_to_text(maker()) for maker, _ in CORPUS}
    texts["heat2d"] = HEAT2D
    for seed in (0, 23):
        for e in perf_corpus().build_corpus(seed):
            texts[f"seed{seed}/{e.label}"] = e.source
            texts[f"seed{seed}/{e.label}/twin"] = e.twin
    return texts


PLAN_SOURCES = plan_sources()


def solve_sources() -> dict[str, tuple[str, dict]]:
    """``(text, env)`` of the paper's four listings and of the perf
    corpus (programs and alpha-twins) at seeds 0 and 23."""
    texts = {maker.__name__: (program_to_text(maker()), env) for maker, env in CORPUS}
    for seed in (0, 23):
        for e in perf_corpus().build_corpus(seed):
            texts[f"seed{seed}/{e.label}"] = (e.source, e.env)
            texts[f"seed{seed}/{e.label}/twin"] = (e.twin, e.twin_env)
    return texts


SOLVE_SOURCES = solve_sources()


def stored_plan(text: str):
    """``(the PlanEntry a cold compile of *text* stores, the bytes the
    all-head layout served for it)``."""
    program = parse_program(text)
    entry = PlanEntry(program, generate_spmd(program), dict(canonicalize(program).rename))
    plain = pickle.dumps(entry._asdict(), pickle.HIGHEST_PROTOCOL)
    return entry, pickle.dumps(pickle.loads(plain), pickle.HIGHEST_PROTOCOL)


def unfilled(plan: dict) -> bool:
    return pending(plan["program"]) is not None and pending(plan["generated"].pattern) is not None


def undecoded(outcome) -> bool:
    """*outcome*'s tables are still bytes: an unfilled lazy instance
    whose deferred section nobody has decoded."""
    rest = pending(vars(outcome)["tables"])
    return rest is not None and rest.blob is not None


class TestDeferredTables:
    """A cached ``SolveOutcome`` keeps its ``tables``, and a cached plan
    its ``program`` and ``pattern``, as bytes until they are read; every
    observable of them equals the cold value's."""

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

    @pytest.mark.parametrize("label", sorted(SOLVE_SOURCES))
    def test_rebuilt_chain_is_the_tables_own(self, label):
        text, env = SOLVE_SOURCES[label]
        svc = CompileService(machine=MODEL)
        cold = svc.compile(text, nprocs=16, env=env).outcome
        hit = svc.compile(text, nprocs=16, env=env).outcome
        assert undecoded(hit) and pending(hit.result) is not None
        schemes = hit.result.schemes
        assert pending(hit.result) is None and not undecoded(hit)
        assert len(schemes) == len(hit.result.segments)
        for (scheme, grid), seg in zip(schemes, hit.result.segments):
            assert scheme is hit.tables.entries[seg].scheme
            assert grid is hit.tables.entries[seg].grid
        assert schemes == cold.result.schemes
        assert pickle.dumps(hit, pickle.HIGHEST_PROTOCOL) == pickle.dumps(
            cold, pickle.HIGHEST_PROTOCOL
        )

    def test_a_result_that_is_not_the_tables_chain_is_refused_on_put(self):
        cold, _ = golden_solve("chain-s5")
        copied = replace(cold.result, schemes=copy.deepcopy(cold.result.schemes))
        assert copied == cold.result  # equal, but not the tables' own objects
        shuffled = replace(cold.result, schemes=cold.result.schemes[::-1])
        short = replace(cold.result, schemes=cold.result.schemes[:-1])
        cache = PlanCache()
        for result in (copied, shuffled, short):
            with pytest.raises(ServiceError, match="SolveOutcome under cache key 's'") as info:
                cache.put("s", SolveOutcome(tables=cold.tables, result=result))
            assert isinstance(info.value.__cause__, TypeError)
        assert cache.stats.puts == 0 and len(cache) == 0
        cache.put("s", cold)
        assert cache.stats.puts == 1

    def test_an_entry_whose_terms_held_seconds_is_not_decoded(self):
        """``repro-entry/3`` pickled ``RedistTerm.cost`` (seconds) where a
        term now counts (``serial``): served, its validation could not be
        described, so the tag rejects it (and the disk tier quarantines it)."""
        text = program_to_text(sor_program())
        outcome = CompileService(machine=MODEL).compile(
            text, nprocs=4, env={"m": 32, "maxiter": 2}, execute=True
        ).outcome
        blob = cache_mod._encode(outcome)
        assert outcome.validation.describe(MODEL) and blob.startswith(b"repro-entry/4\n")
        with pytest.raises(pickle.UnpicklingError, match="layout tag"):
            cache_mod._decode(b"repro-entry/3\n" + blob[len(b"repro-entry/4\n"):])

    def test_previous_layout_solve_entry_quarantines_and_recompiles(self, tmp_path):
        text = program_to_text(sor_program())
        env = {"m": 32, "maxiter": 2}
        cold = CompileService(machine=MODEL, cache="disk", cache_dir=tmp_path).compile(
            text, nprocs=4, env=env
        )
        cold_bytes = pickle.dumps(cold.outcome, pickle.HIGHEST_PROTOCOL)
        # What the previous layout wrote: the whole result in the head.
        outcome = cold.outcome
        buf = io.BytesIO()
        buf.write(b"repro-entry/2\n")
        pickler = pickle.Pickler(buf, protocol=pickle.HIGHEST_PROTOCOL)
        pickler.dump((SolveOutcome, (outcome.result, outcome.validation)))
        pickler.dump(outcome.tables)
        with pytest.raises(pickle.UnpicklingError, match="layout tag"):
            cache_mod._decode(buf.getvalue())[0]
        path = tmp_path / f"{cold.solve_key}.pkl"
        cache_mod._write_atomic(path, cache_mod._seal(buf.getvalue()))
        warm = CompileService(machine=MODEL, cache="disk", cache_dir=tmp_path).compile(
            text, nprocs=4, env=env
        )
        assert warm.cached and not warm.solve_cached
        stats = warm.service_stats
        assert stats["cache_corrupt"] == 1 and stats["cache_misses"] == 1, stats
        assert [q.name.split(".")[0] for q in (tmp_path / "quarantine").iterdir()] == [
            cold.solve_key
        ]
        assert warm.source == cold.source
        assert pickle.dumps(warm.outcome, pickle.HIGHEST_PROTOCOL) == cold_bytes
        # the recompiled entry is in the current layout and serves
        again = CompileService(machine=MODEL, cache="disk", cache_dir=tmp_path).compile(
            text, nprocs=4, env=env
        )
        assert again.solve_cached and again.service_stats["cache_corrupt"] == 0
        assert pickle.dumps(again.outcome, pickle.HIGHEST_PROTOCOL) == cold_bytes

    def test_result_is_served_without_decoding_tables(self):
        svc = CompileService(machine=MODEL)
        cold = svc.compile(jacobi_program(), nprocs=4, env=ENV)
        warm = svc.compile(jacobi_program(), nprocs=4, env=ENV)
        assert warm.solve_cached
        assert warm.outcome.cost == cold.outcome.cost
        assert warm.outcome.loop_carried == cold.outcome.loop_carried
        for name in ("segments", "segment_costs", "change_costs"):
            assert getattr(warm.outcome.result, name) == getattr(cold.outcome.result, name)
        assert warm.outcome.result.describe() == cold.outcome.result.describe()
        assert undecoded(warm.outcome)
        # nor its program or pattern: a hit reads the generated source only
        assert warm.source == cold.source and warm.strategy == cold.strategy
        assert unfilled({"program": warm.program, "generated": warm.generated})
        # full equality reads the derived schemes, rebuilt from the tables
        assert warm.outcome.result == cold.outcome.result

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
        assert cache._mem["again"].blob is cache._mem["s"].blob
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


    # -- the plan entry: program and pattern deferred ----------------------
    @pytest.mark.parametrize("label", sorted(PLAN_SOURCES))
    def test_served_plan_pickles_to_the_cold_bytes_before_and_after_touch(self, label):
        entry, plain = stored_plan(PLAN_SOURCES[label])
        cache = PlanCache()
        cache.put("p", entry)
        untouched, touched = cache.get("p"), cache.get("p")
        assert unfilled(untouched) and unfilled(touched)
        assert touched["program"].body == entry.program.body
        assert touched["generated"].pattern == entry.generated.pattern
        assert not unfilled(touched)
        assert touched["program"] == entry.program
        for hit in (untouched, touched):
            assert pickle.dumps(hit, pickle.HIGHEST_PROTOCOL) == plain

    def test_unfilled_instances_compare_hash_copy_and_pickle_like_filled_ones(self):
        entry, _ = stored_plan(program_to_text(matmul_program()))
        program, pattern = entry.program, entry.generated.pattern
        cache = PlanCache()
        cache.put("p", entry)
        fresh = cache.get("p")
        # the class answers for itself without a fill
        assert type(fresh["generated"].pattern) is type(pattern)
        assert fresh["generated"].pattern.kind == "matmul" and unfilled(fresh)
        probes = [
            lambda x: x,
            hash,
            repr,
            copy.copy,
            copy.deepcopy,
            lambda x: pickle.loads(pickle.dumps(x)),
        ]
        for probe in probes:
            assert probe(cache.get("p")["generated"].pattern) == probe(pattern)
        for probe in probes[2:]:
            assert probe(cache.get("p")["program"]) == probe(program)
        assert cache.get("p")["program"] == program
        # a partly eager result, before and after its schemes are rebuilt
        cold, _ = golden_solve("jacobi")
        plain = pickle.dumps(pickle.loads(pickle.dumps(cold.result)))
        cache.put("s", cold)
        for filled in (False, True):
            for probe in probes + [pickle.dumps]:
                result = cache.get("s").result
                if filled:
                    result.schemes
                assert (pending(result) is None) is filled
                expected = plain if probe is pickle.dumps else probe(cold.result)
                assert probe(result) == expected

    def test_lazy_classes_give_no_field_a_class_level_default(self):
        # A class attribute would answer an unfilled instance's read
        # without filling it.  Subclasses of subclasses use the mixin too.
        lazy_classes, todo = {}, [Lazy]
        while todo:
            for cls in todo.pop().__subclasses__():
                lazy_classes[cls.__name__] = cls
                todo.append(cls)
        assert {"Program", "PhaseTables", "DPResult", "IterativeSolvePattern", "MatmulPattern",
                "GaussPattern", "StencilPattern", "Stencil2DPattern"} <= set(lazy_classes)
        for cls in lazy_classes.values():
            assert [f.name for f in fields(cls) if f.name in vars(cls)] == []

    def test_every_generated_pattern_class_is_lazy(self):
        # A plan entry defers its pattern, so each family's must fill.
        kinds = set()
        for text in PLAN_SOURCES.values():
            pattern = generate_spmd(parse_program(text)).pattern
            assert isinstance(pattern, Lazy), type(pattern).__name__
            kinds.add(pattern.kind)
        assert kinds == set(FAMILIES)

    def test_a_pattern_without_the_mixin_is_refused_on_put(self):
        @dataclass(frozen=True)
        class Plain:
            kind: str

        with pytest.raises(TypeError, match="Plain does not use the Lazy mixin"):
            lazy(Plain, lambda: Plain("x"))
        entry, _ = stored_plan(program_to_text(jacobi_program()))
        entry = entry._replace(generated=replace(entry.generated, pattern=Plain("x")))
        cache = PlanCache()
        with pytest.raises(ServiceError, match="PlanEntry under cache key 'p'") as info:
            cache.put("p", entry)
        assert isinstance(info.value.__cause__, TypeError)
        assert cache.stats.puts == 0 and len(cache) == 0

    def test_served_program_is_isolated_and_keeps_assignments(self):
        entry, _ = stored_plan(program_to_text(jacobi_program()))
        cache = PlanCache()
        cache.put("p", entry)
        cache.get("p")["program"].body.clear()
        assert cache.get("p")["program"].body == entry.program.body
        program = cache.get("p")["program"]
        program.name = "renamed"  # assigned before any field was read
        assert program.body == entry.program.body
        assert program.arrays == entry.program.arrays
        assert program.name == "renamed"

    def test_threads_reading_unread_parts_all_get_them(self):
        entry, plain = stored_plan(program_to_text(jacobi_program()))
        cold, _ = golden_solve("jacobi")
        cache = PlanCache()
        cache.put("p", entry)
        cache.put("s", cold)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as possible
        try:
            for _ in range(20):
                plan, outcome = cache.get("p"), cache.get("s")
                readers = 4  # more threads than a 2-core runner has cores
                seen, errors = [], []

                renames = []

                def read():
                    barrier.wait()
                    try:
                        seen.append((plan["program"].body, plan["generated"].pattern.A,
                                     outcome.result.schemes, outcome.tables.entries))
                    except Exception as exc:  # reported by the asserts below
                        errors.append(exc)

                def read_rename():
                    barrier.wait()
                    for _ in range(50):  # while the other threads fill
                        renames.append(dict(plan["rename"]))

                threads = [threading.Thread(target=read) for _ in range(readers)]
                threads += [threading.Thread(target=read_rename) for _ in range(2)]
                barrier = threading.Barrier(len(threads), timeout=10)
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=10)
                assert not any(t.is_alive() for t in threads)
                assert errors == [] and len(seen) == readers
                first = seen[0]
                assert all(a is b for other in seen[1:] for a, b in zip(first, other))
                body, array, schemes, entries = first
                assert body == entry.program.body and array == entry.generated.pattern.A
                assert entries.keys() == cold.tables.entries.keys()
                assert outcome.result.schemes is schemes and outcome.tables.entries is entries
                # every hit after the first shares its head: a fill leaves
                # its rename as served, the strings the program speaks
                assert renames == [entry.rename] * 100 and plan["rename"] == entry.rename
                assert pickle.dumps(plan, pickle.HIGHEST_PROTOCOL) == plain
                assert all(
                    scheme is entries[seg].scheme
                    for (scheme, _grid), seg in zip(schemes, outcome.result.segments)
                )
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("tier", ["memory", "disk"])
    def test_dropped_warm_hit_leaves_no_cyclic_garbage(self, tier, tmp_path):
        text = program_to_text(sor_program())
        env = {"m": 32, "maxiter": 2}
        options = {"cache": "disk", "cache_dir": tmp_path} if tier == "disk" else {}
        svc = CompileService(machine=MODEL, **options)
        svc.compile(text, nprocs=4, env=env)
        if tier == "disk":  # a fresh session's first touch reads the files
            svc = CompileService(machine=MODEL, **options)
        gc.collect()
        gc.disable()
        try:
            for touch in (False, True):
                hit = svc.compile(text, nprocs=4, env=env)
                assert hit.cached and hit.solve_cached
                if touch:
                    hit.program.body, hit.generated.pattern.A, hit.outcome.result.schemes
                del hit
                assert gc.collect() == 0
        finally:
            gc.enable()

    def test_all_head_plan_entry_on_disk_still_serves(self, tmp_path):
        text = program_to_text(gauss_program())
        env = {"m": 24}
        cold = CompileService(machine=MODEL, cache="disk", cache_dir=tmp_path).compile(
            text, nprocs=4, env=env
        )
        # Rewrite the plan file as the plain dict earlier releases stored.
        served = PlanCache(disk_dir=tmp_path).get(cold.digest)
        blob = cache_mod._encode(dict(served))
        assert pickle.loads(blob[len(cache_mod._LAYOUT):])[0] is None  # all head
        cache_mod._write_atomic(tmp_path / f"{cold.digest}.pkl", cache_mod._seal(blob))
        warm = CompileService(machine=MODEL, cache="disk", cache_dir=tmp_path).compile(
            text, nprocs=4, env=env
        )
        assert warm.cached and warm.service_stats["cache_disk_hits"] == 2
        assert warm.service_stats["cache_corrupt"] == 0
        assert warm.program == cold.program and warm.generated == cold.generated
        assert warm.outcome.cost == cold.outcome.cost


class TestSharedHeads:
    """A memory entry keeps its decoded head beside its bytes: the first
    hit decodes it, every later hit is joined from it with no unpickler,
    and what the hits share is immutable to the leaves."""

    @staticmethod
    def warm_requests(seed: int = 0) -> list[tuple[str, str, dict]]:
        """``compile-warm``'s requests: each corpus program as DSL text,
        as a json-ir document and as its alpha-twin."""
        from repro.service import program_to_json

        requests = []
        for e in perf_corpus().build_corpus(seed):
            doc = json.dumps(program_to_json(parse_program(e.source)))
            requests += [(e.source, "dsl", e.env), (doc, "json-ir", e.env), (e.twin, "dsl", e.twin_env)]
        return requests

    @staticmethod
    def counting_unpicklers(monkeypatch) -> list[int]:
        built = [0]

        class Counting(pickle.Unpickler):
            def __init__(self, *args, **kwargs):
                built[0] += 1
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(pickle, "Unpickler", Counting)
        return built

    def test_a_memory_hit_decodes_its_head_once(self, monkeypatch):
        requests = self.warm_requests()
        svc = CompileService(machine=MODEL)
        for source, _guest, env in requests[::3]:
            svc.compile(source, nprocs=16, env=env)
        built = self.counting_unpicklers(monkeypatch)
        per_request = []
        for _ in range(3):  # three passes: each entry's hits 1..9
            for source, guest, env in requests:
                before = built[0]
                res = svc.compile(source, guest=guest, nprocs=16, env=env)
                assert res.cached and res.solve_cached
                per_request.append(built[0] - before)
        # the first hit of each plan and solve entry decodes, no other
        assert per_request[: len(requests)][::3] == [2] * (len(requests) // 3)
        assert sum(per_request) == 2 * len(requests) // 3
        # and a hit's rest, read, is decoded by an unpickler of its own
        before = built[0]
        source, guest, env = requests[0]
        res = svc.compile(source, guest=guest, nprocs=16, env=env)
        res.program.body, res.outcome.tables.entries
        assert built[0] - before == 2

    @staticmethod
    def frozen(value) -> bool:
        """Whether *value* is immutable to the leaves."""
        if isinstance(value, tuple):
            return all(TestSharedHeads.frozen(v) for v in value)
        return value is None or isinstance(value, (str, int, float, type))

    def test_shared_heads_are_immutable_to_the_leaves(self):
        svc = CompileService(machine=MODEL)
        for source, guest, env in self.warm_requests()[::3] * 2:
            svc.compile(source, guest=guest, nprocs=16, env=env)
        shared = [entry.head for entry in svc.cache._mem.values()]
        assert len(shared) == 24 and all(type(head) is tuple for head in shared)
        for (cls, head, end, memo), entry in zip(shared, svc.cache._mem.values()):
            if cls is PlanEntry:
                head, rename = head[:4], head[4]  # served as a per-hit copy
                assert all(type(k) is str and type(v) is str for k, v in rename.items())
            assert self.frozen(head), cls
            # a rest's references into the head, which its hits share, are
            # strings and classes
            memo = memo.copy()
            back = {
                arg for op, arg, _pos in pickletools.genops(io.BytesIO(entry.blob[end:]))
                if op.name.endswith("GET") and arg in memo
            }
            assert all(self.frozen(memo[index]) for index in back), cls

    def test_mutating_a_served_value_leaves_the_next_hit_alone(self):
        svc = CompileService(machine=MODEL)
        text = program_to_text(jacobi_program())
        cold = svc.compile(text, nprocs=4, env=ENV, execute=True)
        plan_bytes = pickle.dumps(svc.cache.get(cold.digest), pickle.HIGHEST_PROTOCOL)
        for touch in (False, True):
            hit = svc.cache.get(cold.digest)
            if touch:
                hit["program"].body
            hit["rename"].clear()
            hit["rename"]["A"] = "B"
            hit["program"].body.clear()
            hit["program"].name = "edited"
            served = svc.cache.get(cold.digest)
            assert served["rename"] == dict(canonicalize(jacobi_program()).rename)
            assert served["program"] == cold.program
            assert pickle.dumps(served, pickle.HIGHEST_PROTOCOL) == plan_bytes
        # an execute=True outcome holds dicts: its head decodes per hit
        warm = svc.compile(text, nprocs=4, env=ENV, execute=True)
        assert warm.solve_cached and svc.cache._mem[cold.solve_key].head is cache_mod._PER_HIT
        report = warm.outcome.validation.transitions[0]
        report.makespan.clear()
        again = svc.compile(text, nprocs=4, env=ENV, execute=True).outcome.validation
        assert again == cold.outcome.validation and again.transitions[0].makespan

    def test_an_evicted_entry_drops_its_head_with_its_bytes(self, tmp_path):
        entry, _ = stored_plan(program_to_text(sor_program()))
        cache = PlanCache(capacity=1, disk_dir=tmp_path)
        cache.put("a", entry)
        cache.get("a")
        shared = cache._mem["a"].head
        assert shared[0] is PlanEntry
        held = sys.getrefcount(shared)
        cache.put("b", entry)  # evicts "a" to disk
        assert list(cache._mem) == ["b"] and cache.stats.evictions == 1
        assert sys.getrefcount(shared) == held - 1  # only this frame holds it now
        cache.get("a")  # promoted back: the disk read seeds a head of its own
        assert cache._mem["a"].head[1] is not shared[1]
        assert cache._mem["a"].head[1] == shared[1]

    def test_a_disk_first_touch_seeds_the_head(self, tmp_path, monkeypatch):
        text = program_to_text(gauss_program())
        env = {"m": 24}
        cold = CompileService(machine=MODEL, cache="disk", cache_dir=tmp_path).compile(
            text, nprocs=4, env=env
        )
        svc = CompileService(machine=MODEL, cache="disk", cache_dir=tmp_path)
        first = svc.compile(text, nprocs=4, env=env)
        assert first.service_stats["cache_disk_hits"] == 2
        for key in (cold.digest, cold.solve_key):
            assert type(svc.cache._mem[key].head) is tuple
        built = self.counting_unpicklers(monkeypatch)
        again = svc.compile(text, nprocs=4, env=env)
        assert built[0] == 0 and again.cached and again.solve_cached
        assert pickle.dumps(again.outcome) == pickle.dumps(cold.outcome)
        assert pickle.dumps(again.plan.program) == pickle.dumps(cold.plan.program)


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


class TestServedResultMachine:
    """A served result answers under the machine its solve key hashed."""

    MACHINE = MachineModel(tf=1, tc=2, alpha=5)
    ENV = {"m": 32, "maxiter": 1}

    @pytest.mark.parametrize("execute", [False, True])
    def test_warm_explain_renders_the_held_outcome(self, execute):
        svc = CompileService(machine=self.MACHINE)
        cold = svc.compile(JACOBI_SOURCE, nprocs=4, env=self.ENV, execute=execute)
        warm = svc.compile(JACOBI_SOURCE, nprocs=4, env=self.ENV, execute=execute)
        assert warm.solve_cached and warm.machine is svc.machine
        with spans.recording() as rec:
            explanation = warm.explain()
        assert explanation.total_cost == warm.outcome.cost == cold.outcome.cost
        assert not [s for s in rec.spans if s.detail in ("dp/tables", "dp/solve")]
        assert str(explanation) == str(cold.explain())

    def test_solve_and_explain_elsewhere_match_the_service(self):
        svc = CompileService(machine=self.MACHINE)
        res = svc.compile(JACOBI_SOURCE, nprocs=4, env=self.ENV)
        there = svc.compile(JACOBI_SOURCE, nprocs=8, env=self.ENV).outcome
        assert res.solve(nprocs=8).cost == there.cost
        assert res.explain(nprocs=8).total_cost == there.cost
        # an explicit model still wins over the service's
        default = svc.compile(JACOBI_SOURCE, nprocs=8, env=self.ENV).plan.solve(
            8, self.ENV, model=MachineModel()
        )
        assert res.solve(nprocs=8, model=MachineModel()).cost == default.cost


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
        # The second batch's programs share every loop and differ in one
        # declaration: §3's edge weights compare declared sizes, so X(n)
        # makes A, not X, the cheaper array to move, and no table entry
        # may pass from one program to the other.
        wide = JACOBI_SOURCE.replace("PARAM m, maxiter", "PARAM m, n, maxiter")
        batches = [
            ([m() for m, _ in CORPUS[:2]], ENV),
            ([wide, wide.replace("X(m)\n", "X(n)\n")], {"m": 64, "n": 10000, "maxiter": 1}),
        ]
        for sources, env in batches:
            batch_svc = CompileService(machine=MODEL)
            solo_svc = CompileService(machine=MODEL, cache="off")
            batch = batch_svc.compile_batch(sources, nprocs=4, env=env)
            for res, source in zip(batch, sources):
                solo = solo_svc.compile(source, nprocs=4, env=env)
                assert res.outcome.cost == solo.outcome.cost
                assert res.source == solo.source
                tables = pickle.dumps(solo.outcome.tables, pickle.HIGHEST_PROTOCOL)
                assert pickle.dumps(res.outcome.tables, pickle.HIGHEST_PROTOCOL) == tables
                # ... and the batch's cache serves the solo answer later
                later = batch_svc.compile(source, nprocs=4, env=env)
                assert later.solve_cached and later.outcome.cost == solo.outcome.cost
                assert pickle.dumps(later.outcome.tables, pickle.HIGHEST_PROTOCOL) == tables

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
