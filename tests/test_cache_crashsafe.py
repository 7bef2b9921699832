"""Crash-safety of the PlanCache disk tier (ISSUE 8).

* writes are atomic (tmp + ``os.replace``): no ``.tmp`` droppings, and
  a reader never sees a torn entry;
* corrupt, truncated or bit-flipped entries fail the sha256 trailer
  check, are quarantined to ``disk_dir/quarantine/`` and served as
  misses (counted in ``CacheStats.corrupt``) — then recompiled
  identically;
* an entry whose *deferred* section is damaged, or that predates the
  tagged entry layout, is caught the same way at ``lookup`` — never
  later, at attribute access (ISSUE 16);
* a disk *read* takes the shared lock only: promoting a hit into memory
  is not a write;
* repeated disk ``OSError`` faults degrade the cache to memory-only
  (``disk_disabled``) instead of failing requests;
* N processes hammering one cache directory with mixed
  put/lookup/prune traffic never observe a torn value (the
  multiprocessing stress drill);
* the compile service's persisted canonical forms (``form-<key>.pkl``,
  ISSUE 20) are entries of this tier like any other: every guarantee
  above holds for them, and damage costs a re-parse, never an answer.
"""

from __future__ import annotations

import multiprocessing
import os
import pathlib
import pickle
import shutil

import pytest

from repro.api import compile_program
from repro.lang import jacobi_program
from repro.lang.programs import JACOBI_SOURCE, SOR_SOURCE
from repro.machine.model import MachineModel
from repro.service.compiler import CompileRequest
from repro.service import CompileService, PlanCache, cache as cache_mod
from repro.util import spans
from repro.util.lazy import pending
from tests.test_service_normalize import answer

MODEL = MachineModel(tf=1, tc=10)


def entry_path(cache: PlanCache, key: str):
    return cache.disk_dir / f"{key}.pkl"


class TestAtomicWrites:
    def test_no_temp_droppings_after_writes(self, tmp_path):
        cache = PlanCache(capacity=2, disk_dir=tmp_path)
        for n in range(8):  # spills through the eviction path too
            cache.put(f"k{n}", {"value": n})
        leftovers = [p.name for p in tmp_path.iterdir() if p.suffix == ".tmp"]
        assert leftovers == []
        assert cache.get("k0") == {"value": 0}  # spilled entry readable

    def test_interrupted_write_leaves_old_entry_intact(self, tmp_path, monkeypatch):
        cache = PlanCache(capacity=1, disk_dir=tmp_path)
        cache.put("a", "old")
        cache.put("b", "spill-a-to-disk")  # a -> disk
        assert cache.get("a") == "old"

        # crash mid-write: os.replace never happens (and not being an
        # OSError, the crash propagates rather than counting as a fault)
        class Crash(BaseException):
            pass

        def boom(path, data):
            raise Crash

        monkeypatch.setattr(cache_mod, "_write_atomic", boom)
        with pytest.raises(Crash):
            cache.put("c", "evicts")  # spill path hits the crash...
        monkeypatch.undo()
        assert cache.get("a") == "old"  # ...but the old entry survived

    def test_prune_removes_a_killed_writers_temp_file(self, tmp_path):
        cache = PlanCache(capacity=4, disk_dir=tmp_path)
        cache.put("key", "value")
        # SIGKILL between mkstemp and os.replace: the temp file stays
        dropping = tmp_path / ".key.w1x2y3z4.tmp"
        dropping.write_bytes(b"half an entr")
        assert cache.prune() == 1  # live entries only
        assert sorted(p.name for p in tmp_path.iterdir()) == [".lock"]

    def test_checksum_trailer_roundtrip(self):
        blob = pickle.dumps({"x": 1})
        sealed = cache_mod._seal(blob)
        assert cache_mod._unseal(sealed) == blob
        assert cache_mod._unseal(sealed[:-1]) is None  # truncated
        assert cache_mod._unseal(b"") is None
        flipped = bytearray(sealed)
        flipped[0] ^= 0xFF
        assert cache_mod._unseal(bytes(flipped)) is None


class TestCorruptEntries:
    @pytest.mark.parametrize(
        "mangle",
        [
            lambda data: data[: len(data) // 2],  # truncated
            lambda data: b"garbage",  # replaced
            lambda data: bytes([data[0] ^ 0xFF]) + data[1:],  # bit flip
            lambda data: b"",  # emptied
        ],
        ids=["truncated", "garbage", "bitflip", "empty"],
    )
    def test_corrupt_entry_is_quarantined_miss(self, tmp_path, mangle):
        cache = PlanCache(capacity=4, disk_dir=tmp_path)
        cache.put("key", {"payload": 123})
        path = entry_path(cache, "key")
        path.write_bytes(mangle(path.read_bytes()))

        fresh = PlanCache(capacity=4, disk_dir=tmp_path)  # cold memory tier
        assert fresh.get("key") is None
        assert fresh.stats.corrupt == 1
        assert fresh.stats.misses == 1
        assert not path.exists()  # moved aside, not re-read forever
        assert list(fresh.quarantine_dir.iterdir())

    def test_unpicklable_entry_behind_valid_checksum(self, tmp_path):
        cache = PlanCache(capacity=4, disk_dir=tmp_path)
        path = entry_path(cache, "key")
        cache_mod._write_atomic(path, cache_mod._seal(b"not a pickle"))
        assert cache.get("key") is None
        assert cache.stats.corrupt == 1
        assert not path.exists()

    def test_garbage_rest_behind_valid_checksum(self, tmp_path):
        outcome = compile_program(jacobi_program()).solve(
            4, {"m": 32, "maxiter": 2}, model=MODEL
        )
        blob = cache_mod._encode(outcome)
        bad = blob[:-64] + bytes(64)  # the tables are the tail of the entry
        # Decoded lazily, as a memory hit is, the damage would only show
        # when the tables are read ...
        lazy = cache_mod._decode(bad)
        assert lazy.cost == outcome.cost
        with pytest.raises(Exception):
            lazy.tables.entries
        # ... so the disk tier's first touch decodes both sections.
        cache = PlanCache(capacity=4, disk_dir=tmp_path)
        path = entry_path(cache, "key")
        cache_mod._write_atomic(path, cache_mod._seal(bad))
        assert cache.get("key") is None
        assert (cache.stats.corrupt, cache.stats.misses) == (1, 1)
        assert not path.exists() and "key" not in cache
        # the intact entry is served, with its tables already decoded
        cache_mod._write_atomic(path, cache_mod._seal(blob))
        hit = cache.get("key")
        assert pending(vars(hit)["tables"]).blob is None  # nothing left to decode
        assert hit.cost == outcome.cost
        assert hit.tables.entries.keys() == outcome.tables.entries.keys()
        assert cache.stats.disk_hits == 1

    def test_old_layout_entry_is_quarantined_miss(self, tmp_path):
        # What PR 7..15 wrote: a bare pickle, no layout tag.
        cache = PlanCache(capacity=4, disk_dir=tmp_path)
        path = entry_path(cache, "key")
        old = pickle.dumps({"payload": 123}, protocol=pickle.HIGHEST_PROTOCOL)
        cache_mod._write_atomic(path, cache_mod._seal(old))
        assert cache.get("key") is None
        assert (cache.stats.corrupt, cache.stats.misses) == (1, 1)
        assert not path.exists()
        cache.put("key", {"payload": 123})  # recompiled and rewritten
        assert PlanCache(capacity=4, disk_dir=tmp_path).get("key") == {"payload": 123}

    def test_corrupt_plan_recompiles_identically(self, tmp_path):
        """ISSUE 8 drill: corrupt a disk entry, recompile, bit-identity."""
        env = {"m": 32, "maxiter": 2}
        svc = CompileService(machine=MODEL, cache="disk", cache_dir=tmp_path)
        ref = svc.compile(jacobi_program(), nprocs=4, env=env)
        ref_bytes = pickle.dumps(ref.plan.generated)

        path = entry_path(svc.cache, ref.digest)
        assert path.exists()
        path.write_bytes(b"\x00" * 40)  # corrupt the codegen artifact

        again = CompileService(machine=MODEL, cache="disk", cache_dir=tmp_path)
        res = again.compile(jacobi_program(), nprocs=4, env=env)
        assert not res.cached  # served as a miss, not as garbage
        assert pickle.dumps(res.plan.generated) == ref_bytes
        assert again.stats.corrupt == 1
        assert res.service_stats["cache_corrupt"] == 1

    def test_prune_clears_quarantine_too(self, tmp_path):
        cache = PlanCache(capacity=4, disk_dir=tmp_path)
        cache.put("key", "value")
        entry_path(cache, "key").write_bytes(b"junk")
        PlanCache(capacity=4, disk_dir=tmp_path).get("key")  # quarantines
        assert list(cache.quarantine_dir.iterdir())
        cache.prune()
        assert not list(cache.quarantine_dir.iterdir())


class TestReadLocking:
    @pytest.fixture
    def flocks(self, monkeypatch):
        """Every ``flock`` operation the cache module issues."""
        if cache_mod.fcntl is None:
            pytest.skip("no fcntl on this platform")
        ops = []
        real = cache_mod.fcntl.flock

        def counting(handle, op):
            ops.append(op)
            return real(handle, op)

        monkeypatch.setattr(cache_mod.fcntl, "flock", counting)
        return ops

    def test_a_pass_of_disk_hits_takes_no_exclusive_lock(self, tmp_path, flocks):
        keys = [f"k{n}" for n in range(6)]
        writer = PlanCache(capacity=8, disk_dir=tmp_path)
        for key in keys:
            writer.put(key, {"value": key})
        assert flocks.count(cache_mod.fcntl.LOCK_EX) == len(keys)

        del flocks[:]
        reader = PlanCache(capacity=8, disk_dir=tmp_path)
        assert [reader.get(key) for key in keys] == [{"value": key} for key in keys]
        assert reader.stats.disk_hits == len(keys) and len(reader) == len(keys)
        assert flocks.count(cache_mod.fcntl.LOCK_EX) == 0
        assert flocks.count(cache_mod.fcntl.LOCK_SH) == len(keys)
        # promoted: the second pass is memory hits and touches no lock
        del flocks[:]
        assert all(reader.get(key) is not None for key in keys)
        assert reader.stats.disk_hits == len(keys) and flocks == []

    def test_a_warm_service_pass_takes_no_exclusive_lock(self, tmp_path, flocks):
        env = {"m": 32, "maxiter": 2}
        texts = [JACOBI_SOURCE, SOR_SOURCE]
        writer = CompileService(machine=MODEL, cache="disk", cache_dir=tmp_path)
        for text in texts:
            writer.compile(text, nprocs=4, env=env)
        # per text: its form, its plan, its solve
        assert flocks.count(cache_mod.fcntl.LOCK_EX) == 3 * len(texts)

        del flocks[:]
        reader = CompileService(machine=MODEL, cache="disk", cache_dir=tmp_path)
        for text in texts:
            res = reader.compile(text, nprocs=4, env=env)
        assert res.service_stats["memo_disk_hits"] == len(texts)
        assert flocks.count(cache_mod.fcntl.LOCK_EX) == 0
        assert flocks.count(cache_mod.fcntl.LOCK_SH) == 3 * len(texts)

    def test_an_entry_quarantined_under_a_reader_is_a_miss_not_a_fault(
        self, tmp_path, monkeypatch
    ):
        PlanCache(capacity=4, disk_dir=tmp_path).put("key", "value")
        reader = PlanCache(capacity=4, disk_dir=tmp_path, disk_fault_limit=1)
        racer = PlanCache(capacity=4, disk_dir=tmp_path)  # another process
        path = entry_path(reader, "key")

        # quarantine takes no lock, so it can land between any two steps
        # of a read: after an exists() probe, or just before the open
        def lose_the_race(found):
            if found:
                racer._quarantine(path)
            return found

        real_exists, real_open = pathlib.Path.exists, open
        monkeypatch.setattr(
            pathlib.Path, "exists",
            lambda self: lose_the_race(real_exists(self)) if self == path else real_exists(self),
        )

        def racing_open(file, *args, **kwargs):
            if file == path:
                lose_the_race(real_exists(path))
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr(cache_mod, "open", racing_open, raising=False)
        assert reader.get("key") is None
        assert (reader.stats.misses, reader.stats.disk_faults, reader.stats.corrupt) == (1, 0, 0)
        assert not reader.disk_disabled and racer.stats.corrupt == 1

    def test_an_eviction_caused_by_promotion_still_spills(self, tmp_path):
        PlanCache(capacity=4, disk_dir=tmp_path).put("b", "B")
        cache = PlanCache(capacity=1, disk_dir=tmp_path)
        cache.put("a", "A")
        entry_path(cache, "a").unlink()  # "a" now lives in memory only
        assert cache.get("b") == "B"  # disk hit; promotion evicts "a"
        assert cache.stats.evictions == 1
        assert entry_path(cache, "a").exists()
        assert cache.get("a") == "A"


class TestDiskFaultDegradation:
    def test_repeated_faults_degrade_to_memory_only(self, tmp_path, monkeypatch):
        cache = PlanCache(capacity=2, disk_dir=tmp_path, disk_fault_limit=3)

        def boom(path, data):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(cache_mod, "_write_atomic", boom)
        for n in range(6):
            cache.put(f"k{n}", n)  # spill writes keep faulting
        assert cache.disk_disabled
        assert cache.stats.disk_faults >= 3
        # the cache still works, memory-only
        cache.put("live", "value")
        assert cache.get("live") == "value"
        monkeypatch.undo()
        # disabled stays disabled: no more disk traffic
        cache.put("later", "value")
        assert not entry_path(cache, "later").exists()

    def test_one_transient_fault_does_not_degrade(self, tmp_path, monkeypatch):
        cache = PlanCache(capacity=1, disk_dir=tmp_path, disk_fault_limit=3)
        real = cache_mod._write_atomic
        calls = {"n": 0}

        def flaky(path, data):
            calls["n"] += 1
            if calls["n"] == 1:
                raise OSError(5, "transient")
            real(path, data)

        monkeypatch.setattr(cache_mod, "_write_atomic", flaky)
        cache.put("a", 1)
        cache.put("b", 2)  # spills "a"; first write faulted, later ones land
        assert not cache.disk_disabled
        assert cache.stats.disk_faults == 1
        assert PlanCache(capacity=1, disk_dir=tmp_path).get("b") == 2


class TestFormFiles:
    """The source-text memo's disk tier (ISSUE 20) under the drills above."""

    ENV = {"m": 32, "maxiter": 2}

    def service(self, cache_dir, **kwargs):
        return CompileService(machine=MODEL, cache="disk", cache_dir=cache_dir, **kwargs)

    def form_path(self, svc, text):
        key = svc._text_key(CompileRequest(source=text))
        return entry_path(svc.cache, cache_mod._MEMO_PREFIX + key)

    def serve(self, svc, text=JACOBI_SOURCE):
        with spans.recording() as rec:
            res = svc.compile(text, nprocs=4, env=self.ENV)
        parsed = [s.detail for s in rec.spans].count("service/frontend")
        return res, parsed, (answer(res), res.cached and res.solve_cached)

    @pytest.mark.parametrize(
        "damage",
        [
            lambda data, other, plan: data[: len(data) // 2],
            lambda data, other, plan: data[:40] + bytes([data[40] ^ 0xFF]) + data[41:],
            lambda data, other, plan: cache_mod._seal(b"not a pickle"),
            lambda data, other, plan: cache_mod._seal(
                pickle.dumps(cache_mod._decode(data[: -cache_mod._TRAILER]))
            ),
            lambda data, other, plan: other,
            lambda data, other, plan: plan,
        ],
        ids=["truncated", "bitflip", "sealed-garbage", "old-layout", "another-texts-form",
             "a-plan-entry"],
    )
    def test_a_damaged_form_costs_a_parse_never_an_answer(self, tmp_path, damage):
        writer = self.service(tmp_path)
        cold, _, _ = self.serve(writer)
        self.serve(writer, SOR_SOURCE)
        _, _, warm = self.serve(writer)
        path = self.form_path(writer, JACOBI_SOURCE)
        good = path.read_bytes()
        path.write_bytes(damage(
            good,
            self.form_path(writer, SOR_SOURCE).read_bytes(),
            entry_path(writer.cache, cold.digest).read_bytes(),
        ))

        svc = self.service(tmp_path)
        res, parsed, answer = self.serve(svc)
        assert answer == warm and parsed == 1
        assert res.service_stats["frontend_skips"] == 0 == res.service_stats["memo_disk_hits"]
        assert (svc.stats.corrupt, svc.stats.misses, svc.stats.disk_hits) == (1, 0, 2)
        assert len(list(svc.cache.quarantine_dir.iterdir())) == 1
        # re-derived and rewritten: the next process skips its front end again
        assert path.read_bytes() == good
        res, parsed, answer = self.serve(self.service(tmp_path))
        assert answer == warm and parsed == 0
        assert res.service_stats["memo_disk_hits"] == 1

    def test_an_interrupted_form_write_leaves_no_form(self, tmp_path, monkeypatch):
        real = cache_mod._write_atomic

        class Crash(BaseException):
            pass

        def crash_on_forms(path, data):
            if path.name.startswith(cache_mod._MEMO_PREFIX):
                raise Crash
            real(path, data)

        monkeypatch.setattr(cache_mod, "_write_atomic", crash_on_forms)
        with pytest.raises(Crash):
            self.service(tmp_path).compile(JACOBI_SOURCE)
        monkeypatch.undo()
        assert not list(tmp_path.glob("*.pkl")) and not list(tmp_path.glob(".*.tmp"))
        _, parsed, _ = self.serve(self.service(tmp_path))
        assert parsed == 1

    def test_faults_on_form_files_degrade_to_parsing(self, tmp_path, monkeypatch):
        _, _, cold = self.serve(self.service(tmp_path))
        _, _, warm = self.serve(self.service(tmp_path))
        real_open, real_write = open, cache_mod._write_atomic

        def is_form(path):
            return pathlib.Path(path).name.startswith(cache_mod._MEMO_PREFIX)

        def faulty_open(file, *args, **kwargs):
            if is_form(file):
                raise PermissionError(13, "Permission denied")
            return real_open(file, *args, **kwargs)

        def faulty_write(path, data):
            if is_form(path):
                raise OSError(28, "No space left on device")
            real_write(path, data)

        # reads: the form is there but unreadable — parse, answer, carry on
        monkeypatch.setattr(cache_mod, "open", faulty_open, raising=False)
        svc = self.service(tmp_path)
        res, parsed, answer = self.serve(svc)
        assert answer == warm and parsed == 1
        assert (svc.stats.disk_faults, svc.stats.corrupt, svc.stats.misses) == (1, 0, 0)
        assert not svc.cache.disk_disabled
        monkeypatch.undo()

        # writes: a never-seen text cannot be persisted — it is still served
        shutil.rmtree(tmp_path)
        monkeypatch.setattr(cache_mod, "_write_atomic", faulty_write)
        svc = self.service(tmp_path)
        res, parsed, answer = self.serve(svc)
        assert answer == cold and parsed == 1
        assert svc.stats.disk_faults == 1 and not list(tmp_path.glob("form-*"))
        _, parsed, _ = self.serve(svc)  # the memory tier of the memo still works
        assert parsed == 0

    def test_a_disabled_disk_tier_parses_and_serves(self, tmp_path, monkeypatch):
        _, _, cold = self.serve(self.service(tmp_path))

        def unreadable(file, *args, **kwargs):
            raise OSError(5, "Input/output error")

        monkeypatch.setattr(cache_mod, "open", unreadable, raising=False)
        cache = PlanCache(capacity=256, disk_dir=tmp_path, disk_fault_limit=1)
        svc = CompileService(machine=MODEL, cache=cache)
        res, parsed, answer = self.serve(svc)  # the form read is the first fault
        assert cache.disk_disabled and cache.stats.disk_faults == 1
        assert parsed == 1 and answer == cold
        assert res.service_stats["memo_disk_hits"] == 0
        monkeypatch.undo()
        # disabled stays disabled: a new text is served and not persisted
        before = sorted(tmp_path.iterdir())
        _, parsed, _ = self.serve(svc, SOR_SOURCE)
        assert parsed == 1 and sorted(tmp_path.iterdir()) == before


def _hammer(disk_dir, proc: int, rounds: int, failures):
    """One stress process: mixed put/lookup/prune on a shared dir."""
    try:
        cache = PlanCache(capacity=4, disk_dir=disk_dir)
        for n in range(rounds):
            key = f"key{(proc + n) % 8}"
            value = cache.get(key)
            if value is not None and value != {"owner": key}:
                failures.put(f"proc {proc}: torn read {key} -> {value!r}")
                return
            cache.put(key, {"owner": key})
            if n % 17 == 0:
                cache.clear()  # drop the memory tier, force disk reads
            if proc == 0 and n % 23 == 22:
                cache.prune()
    except BaseException as exc:  # pragma: no cover - failure path
        failures.put(f"proc {proc}: {exc!r}")


class TestMultiprocessSharing:
    def test_n_processes_share_one_cache_dir(self, tmp_path):
        """The ISSUE 8 stress drill: concurrent services on one disk
        cache never see torn or cross-keyed values."""
        ctx = multiprocessing.get_context(
            "fork" if "fork" in multiprocessing.get_all_start_methods()
            else "spawn"
        )
        failures = ctx.Queue()
        procs = [
            ctx.Process(target=_hammer, args=(tmp_path, p, 50, failures))
            for p in range(4)
        ]
        for p in procs:
            p.start()
        for p in procs:
            p.join(timeout=60)
            assert p.exitcode == 0
        assert failures.empty(), failures.get()
        # whatever survived the prunes must still unseal cleanly
        survivor = PlanCache(capacity=4, disk_dir=tmp_path)
        for path in tmp_path.glob("*.pkl"):
            key = path.stem
            value = survivor.get(key)
            assert value is None or value == {"owner": key}
        assert survivor.stats.corrupt == 0

    def test_two_services_share_plans_across_processes(self, tmp_path):
        env = {"m": 32, "maxiter": 2}
        first = CompileService(machine=MODEL, cache="disk", cache_dir=tmp_path)
        ref = first.compile(jacobi_program(), nprocs=4, env=env)
        assert not ref.cached

        def other(out):
            svc = CompileService(machine=MODEL, cache="disk", cache_dir=tmp_path)
            res = svc.compile(jacobi_program(), nprocs=4, env=env)
            out.put((res.cached, pickle.dumps(res.plan.generated)))

        ctx = multiprocessing.get_context(
            "fork" if "fork" in multiprocessing.get_all_start_methods()
            else "spawn"
        )
        out = ctx.Queue()
        proc = ctx.Process(target=other, args=(out,))
        proc.start()
        cached, blob = out.get(timeout=60)
        proc.join(timeout=60)
        assert cached  # the second process hit the first one's entry
        assert blob == pickle.dumps(ref.plan.generated)
