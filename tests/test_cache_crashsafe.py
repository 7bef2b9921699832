"""Crash-safety of the PlanCache disk tier (ISSUE 8).

* writes are atomic (tmp + ``os.replace``): no ``.tmp`` droppings, and
  a reader never sees a torn entry;
* corrupt, truncated or bit-flipped entries fail the sha256 trailer
  check, are quarantined to ``disk_dir/quarantine/`` and served as
  misses (counted in ``CacheStats.corrupt``) — then recompiled
  identically;
* an entry whose *deferred* section is damaged, or that predates the
  tagged entry layout, is caught the same way at ``lookup`` — never
  later, at attribute access (ISSUE 16) — unless this very code wrote
  it: such an entry carries this code's *vouch* and its first touch
  decodes the head only, like a memory hit (the trust matrix below);
* a disk *read* is one ``open`` and one ``read`` and takes no lock:
  writers publish whole files by atomic replace and never rewrite one,
  every read verifies the checksum, and a file removed under a reader
  is a miss; writes and ``prune`` hold the exclusive lock, and promoting
  a hit into memory is not a write;
* repeated disk ``OSError`` faults degrade the cache to memory-only
  (``disk_disabled``) instead of failing requests;
* N processes hammering one cache directory with mixed
  put/lookup/prune traffic, and a reader beside them that never writes,
  never observe a torn value (the multiprocessing stress drill);
* the compile service's persisted canonical forms (``form-<key>.pkl``,
  ISSUE 20) are entries of this tier like any other: every guarantee
  above holds for them, and damage costs a re-parse, never an answer.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import os
import pathlib
import pickle
import shutil

import pytest

from repro.api import compile_program
from repro.errors import ServiceError
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


def garbage_rest(blob: bytes) -> bytes:
    return blob[:-64] + bytes(64)  # a solve entry's tables are its tail


@pytest.fixture(scope="module")
def outcome():
    """A cold solve served through the service, so a hit of it pickles
    to its bytes (a direct ``Plan.solve`` pickles a few bytes longer)."""
    svc = CompileService(machine=MODEL)
    return svc.compile(JACOBI_SOURCE, nprocs=4, env={"m": 32, "maxiter": 2}).outcome


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
        lazy = cache_mod._decode(bad)[0]
        assert lazy.cost == outcome.cost
        with pytest.raises(ServiceError):
            lazy.tables.entries
        # ... so the first touch of an entry this code did not vouch for
        # (here a raw seal) decodes both sections.
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

    def test_a_damaged_rest_read_late_is_a_service_error_every_time(self, outcome):
        hit = cache_mod._decode(garbage_rest(cache_mod._encode(outcome)))[0]
        for read in (lambda: hit.tables.entries, lambda: hit.result.schemes) * 2:
            with pytest.raises(
                ServiceError, match="deferred section of a repro-entry/4 cache entry is damaged"
            ):
                read()

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


class TestVouch:
    """Who wrote a disk entry decides what its first touch decodes.  An
    entry ends in the vouch of the code that wrote it; this code's vouch
    decodes the head only, any other entry is verified by a full decode."""

    OTHER = cache_mod._VOUCH_TAG + hashlib.sha256(b"another code version").digest()
    PACKAGE = pathlib.Path(cache_mod.__file__).resolve().parents[1]

    @pytest.fixture
    def fresh_vouch(self):
        cache_mod._vouch.cache_clear()
        yield
        cache_mod._vouch.cache_clear()

    @pytest.mark.parametrize("rest", ["intact", "garbage"])
    @pytest.mark.parametrize("writer", ["this-code", "raw-seal", "other-code", "parent"])
    def test_trust_matrix(self, tmp_path, monkeypatch, outcome, writer, rest):
        blob = cache_mod._encode(outcome)
        if rest == "garbage":
            blob = garbage_rest(blob)
        path = tmp_path / "key.pkl"
        if writer == "raw-seal":
            cache_mod._write_atomic(path, cache_mod._seal(blob))
        else:
            # put's own write, under the vouch of the code that writes
            vouch = {
                "this-code": cache_mod._vouch,
                "other-code": lambda: self.OTHER,
                "parent": lambda: b"",  # one trailer, nothing before it
            }[writer]
            monkeypatch.setattr(cache_mod, "_vouch", vouch)
            PlanCache(capacity=4, disk_dir=tmp_path)._disk_write("key", blob)
            monkeypatch.undo()
        own = writer == "this-code"

        reader = PlanCache(capacity=4, disk_dir=tmp_path)
        hit = reader.get("key")
        if rest == "intact":
            assert (reader.stats.disk_hits, reader.stats.corrupt) == (1, 0)
            assert (pending(vars(hit)["tables"]).blob is not None) == own
            assert pickle.dumps(hit, pickle.HIGHEST_PROTOCOL) == pickle.dumps(
                outcome, pickle.HIGHEST_PROTOCOL
            )
        elif own:
            # The documented boundary: this code's vouch is taken on trust,
            # so damage sealed behind it surfaces at the first read.
            assert (reader.stats.disk_hits, reader.stats.corrupt) == (1, 0)
            assert hit.cost == outcome.cost
            with pytest.raises(ServiceError, match="deferred section"):
                hit.tables.entries
        else:
            assert hit is None
            assert (reader.stats.corrupt, reader.stats.misses) == (1, 1)
            assert not path.exists()

    def test_an_entry_this_code_writes_ends_in_its_vouch(self, tmp_path):
        PlanCache(capacity=4, disk_dir=tmp_path).put("key", {"value": 1})
        data = (tmp_path / "key.pkl").read_bytes()
        blob = cache_mod._encode({"value": 1})
        assert data == cache_mod._seal(blob + cache_mod._vouch())
        assert cache_mod._vouched(cache_mod._unseal(data)) == (blob, True)
        assert cache_mod._vouched(blob + self.OTHER) == (blob, False)
        assert cache_mod._vouched(blob) == (blob, False)

    def test_the_vouch_is_computed_once_per_process(self, tmp_path, monkeypatch, fresh_vouch):
        roots = []
        real = cache_mod._source_digest
        monkeypatch.setattr(cache_mod, "_source_digest", lambda root: roots.append(root) or real(root))
        PlanCache(capacity=4, disk_dir=tmp_path).put("key", {"value": 1})
        assert PlanCache(capacity=4, disk_dir=tmp_path).get("key") == {"value": 1}
        assert cache_mod._vouch() == cache_mod._VOUCH_TAG + real(self.PACKAGE)
        assert roots == [self.PACKAGE]

    def test_one_byte_of_any_source_file_changes_the_vouch(self, tmp_path, monkeypatch):
        copy = tmp_path / "repro"
        shutil.copytree(self.PACKAGE, copy, ignore=shutil.ignore_patterns("__pycache__"))
        base = cache_mod._source_digest(copy)
        assert base is not None and base == cache_mod._source_digest(self.PACKAGE)
        sources = sorted(copy.rglob("*.py"))
        seen = {base}
        for path in sources:
            data = path.read_bytes()
            path.write_bytes(data[:-1] + bytes([data[-1] ^ 1]))
            seen.add(cache_mod._source_digest(copy))
            path.write_bytes(data)
        assert len(seen) == 1 + len(sources)
        # a moved module (to a name that keeps the sorted order of the bytes)
        (copy / "service" / "cache.py").rename(copy / "service" / "cache_.py")
        seen.add(cache_mod._source_digest(copy))
        monkeypatch.setattr(cache_mod.sys, "version", "another interpreter")
        seen.add(cache_mod._source_digest(self.PACKAGE))
        assert len(seen) == 3 + len(sources)

    def test_no_source_is_no_vouch_and_every_first_touch_verifies(
        self, tmp_path, monkeypatch, fresh_vouch, outcome
    ):
        assert cache_mod._source_digest(tmp_path / "missing") is None
        assert cache_mod._source_digest(tmp_path) is None  # no .py file
        (tmp_path / "pkg" / "module.py").mkdir(parents=True)  # unreadable as a file
        assert cache_mod._source_digest(tmp_path / "pkg") is None
        monkeypatch.setattr(cache_mod, "_source_digest", lambda root: None)
        assert cache_mod._vouch() == b""
        disk = tmp_path / "cache"
        PlanCache(capacity=4, disk_dir=disk).put("key", outcome)
        assert (disk / "key.pkl").read_bytes() == cache_mod._seal(cache_mod._encode(outcome))
        hit = PlanCache(capacity=4, disk_dir=disk).get("key")
        assert pending(vars(hit)["tables"]).blob is None  # decoded at lookup


class TestReadLocking:
    """A disk hit is one ``open`` and no ``flock``; writes still hold the
    exclusive lock."""

    @pytest.fixture
    def calls(self, monkeypatch):
        """Every ``flock`` operation the cache module issues, and the path
        of every file it opens."""
        if cache_mod.fcntl is None:
            pytest.skip("no fcntl on this platform")
        flocks, opened = [], []
        real_flock = cache_mod.fcntl.flock

        def counting_flock(handle, op):
            flocks.append(op)
            return real_flock(handle, op)

        def counting_open(file, *args, **kwargs):
            opened.append(os.fspath(file))
            return open(file, *args, **kwargs)

        monkeypatch.setattr(cache_mod.fcntl, "flock", counting_flock)
        monkeypatch.setattr(cache_mod, "open", counting_open, raising=False)
        return flocks, opened

    def test_a_pass_of_disk_hits_takes_no_exclusive_lock(self, tmp_path, calls):
        flocks, opened = calls
        keys = [f"k{n}" for n in range(6)]
        writer = PlanCache(capacity=8, disk_dir=tmp_path)
        for key in keys:
            writer.put(key, {"value": key})
        # each write-once insert holds the exclusive lock
        assert flocks == [cache_mod.fcntl.LOCK_EX, cache_mod.fcntl.LOCK_UN] * len(keys)

        del flocks[:], opened[:]
        reader = PlanCache(capacity=8, disk_dir=tmp_path)
        assert [reader.get(key) for key in keys] == [{"value": key} for key in keys]
        assert reader.stats.disk_hits == len(keys) and len(reader) == len(keys)
        assert flocks == []
        assert opened == [os.fspath(entry_path(reader, key)) for key in keys]
        # promoted: the second pass is memory hits and touches no file
        assert all(reader.get(key) is not None for key in keys)
        assert reader.stats.disk_hits == len(keys) and flocks == []
        assert len(opened) == len(keys)

    def test_a_warm_service_pass_takes_no_exclusive_lock(self, tmp_path, calls):
        flocks, opened = calls
        env = {"m": 32, "maxiter": 2}
        texts = [JACOBI_SOURCE, SOR_SOURCE]
        writer = CompileService(machine=MODEL, cache="disk", cache_dir=tmp_path)
        for text in texts:
            writer.compile(text, nprocs=4, env=env)
        # per text: its form, its plan, its solve
        assert flocks.count(cache_mod.fcntl.LOCK_EX) == 3 * len(texts)

        del flocks[:], opened[:]
        reader = CompileService(machine=MODEL, cache="disk", cache_dir=tmp_path)
        for text in texts:
            res = reader.compile(text, nprocs=4, env=env)
        assert res.service_stats["memo_disk_hits"] == len(texts)
        assert reader.stats.disk_hits == 2 * len(texts)
        assert flocks == []
        entries = {os.fspath(path) for path in tmp_path.glob("*.pkl")}
        assert len(entries) == 3 * len(texts)
        assert sorted(opened) == sorted(entries)

    def test_an_entry_quarantined_under_a_reader_is_a_miss_not_a_fault(
        self, tmp_path, monkeypatch
    ):
        PlanCache(capacity=4, disk_dir=tmp_path).put("key", "value")
        reader = PlanCache(capacity=4, disk_dir=tmp_path, disk_fault_limit=1)
        racer = PlanCache(capacity=4, disk_dir=tmp_path)  # another process
        path = entry_path(reader, "key")

        # quarantine takes no lock, and neither does a read: it can land
        # just before the open
        def racing_open(file, *args, **kwargs):
            if os.fspath(file) == os.fspath(path):
                racer._quarantine(path)
            return open(file, *args, **kwargs)

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
                pickle.dumps(cache_mod._decode(data[: -cache_mod._TRAILER])[0])
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
            if os.path.basename(path).startswith(cache_mod._MEMO_PREFIX):
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


def _read_only(disk_dir, done, failures, hits):
    """A reader that never writes: drop the memory tier, read every key
    from disk, until the writers are done.  Reads take no lock, so this
    is what they race against: a put, a spill, a prune, a quarantine."""
    total = 0
    try:
        cache = PlanCache(capacity=8, disk_dir=disk_dir)
        while True:
            last = done.is_set()
            cache.clear()
            for n in range(8):
                key = f"key{n}"
                value = cache.get(key)
                if value is not None and value != {"owner": key}:
                    failures.put(f"reader: torn read {key} -> {value!r}")
                    return
            stats = cache.stats
            if stats.disk_faults or stats.corrupt:
                failures.put(f"reader: {stats.disk_faults} faults, {stats.corrupt} corrupt")
                return
            total += stats.disk_hits
            if last:
                return
    except BaseException as exc:  # pragma: no cover - failure path
        failures.put(f"reader: {exc!r}")
    finally:
        hits.put(total)


class TestMultiprocessSharing:
    def test_n_processes_share_one_cache_dir(self, tmp_path):
        """The ISSUE 8 stress drill: concurrent services on one disk
        cache never see torn or cross-keyed values — nor does a reader
        that takes no lock while they put and prune."""
        ctx = multiprocessing.get_context(
            "fork" if "fork" in multiprocessing.get_all_start_methods()
            else "spawn"
        )
        failures, hits, done = ctx.Queue(), ctx.Queue(), ctx.Event()
        seed = PlanCache(capacity=8, disk_dir=tmp_path)
        for n in range(8):
            seed.put(f"key{n}", {"owner": f"key{n}"})
        reader = ctx.Process(target=_read_only, args=(tmp_path, done, failures, hits), daemon=True)
        procs = [
            ctx.Process(target=_hammer, args=(tmp_path, p, 50, failures))
            for p in range(4)
        ]
        reader.start()
        for p in procs:
            p.start()
        for p in procs:
            p.join(timeout=60)
            assert p.exitcode == 0
        done.set()
        total = hits.get(timeout=60)  # drained before the join
        reader.join(timeout=60)
        assert reader.exitcode == 0
        assert failures.empty(), failures.get()
        assert total > 0  # the reader did read entries from disk
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
