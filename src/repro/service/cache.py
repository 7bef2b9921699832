"""Two-tier content-addressed plan cache with a crash-safe disk tier.

:class:`PlanCache` maps a digest (:mod:`repro.service.normalize`) to a
pickled compile artifact.  Values are stored *as pickle bytes* in both
tiers — every ``get`` deserializes a fresh object, so cached plans are
bit-identical to (and isolated from) what was ``put``, and the warm
path decodes only what its caller reads.

**Entry layout.**  An entry is the :data:`_LAYOUT` tag, then an *eager
head*, then — for values that opt in — a *deferred rest*, both written
by one ``pickle.Pickler`` (two ``dump()`` calls share one memo, so an
object referenced from both sections is one object again after
decoding).  ``lookup`` decodes the head; the rest is decoded by the
same ``Unpickler`` the first time the value asks for it.  A class opts
in with a ``_cache_split()`` method returning ``(head, rest)`` and a
``_cache_join(head, rest)`` classmethod taking the head and a zero-arg
callable that yields the rest;
:class:`~repro.service.plan.SolveOutcome` is the one that does (head
``(result, validation)``, rest the :class:`~repro.dp.phases.PhaseTables`
— 98 % of a solve entry, which a served hit never reads).  Every other
value is all head.  Isolation and bit-identity are unchanged: each
``get`` owns its decoder, and a looked-up value pickles to the bytes
the cold value does, before and after the rest is touched.  The first
touch from the *disk* tier decodes both sections before promotion, so a
damaged or old-layout entry is caught at ``lookup``, never at attribute
access.

* **memory tier** — an ``OrderedDict`` LRU bounded by ``capacity``;
* **disk tier** — one ``<digest>.pkl`` file per entry under
  ``disk_dir`` (enabled by passing a directory); memory evictions spill
  to disk, disk hits are promoted back into memory.  Beside them the
  tier keeps **memo entries** (``form-<key>.pkl``, :meth:`PlanCache.recall`
  / :meth:`PlanCache.remember`): same file format, locks, quarantine and
  fault accounting, but disk-only and outside the hit/miss counters.

The disk tier is hardened for concurrent multi-process sharing and for
crashes mid-write (ISSUE 8):

* **atomic writes** — every entry is written to a same-directory temp
  file, fsynced, then ``os.replace``d into place, so a crash mid-write
  can never leave a torn entry under the content address;
* **checksum trailers** — each file ends in a 32-byte sha256 of the
  entry, verified on every disk read; a mismatched, truncated,
  unpicklable or old-layout (untagged) entry is **quarantined** (moved
  to ``disk_dir/quarantine/``) and served as a miss, never as garbage;
* **advisory file locking** — disk reads take a shared ``flock`` and
  writes an exclusive one on ``disk_dir/.lock``, so any number of
  services and supervised worker processes share one cache directory
  without corruption (no-op where ``fcntl`` is unavailable); promoting
  a disk hit into memory is not a write and takes no exclusive lock;
* **graceful degradation** — after ``disk_fault_limit`` *consecutive*
  ``OSError`` faults the disk tier is disabled and the cache continues
  memory-only (counted in ``CacheStats.disk_faults`` /
  ``disk_disabled``, logged, never silently wrong).

Counters live in :class:`CacheStats` — the compile-side twin of the
simulator's :class:`repro.machine.metrics.Metrics` registry — and are
surfaced by :attr:`repro.api.Session.stats` and the X11/X12 benchmark
records.

Keys embed :data:`repro.service.normalize.IR_SCHEMA`, so a schema bump
orphans (never corrupts) previously persisted entries; ``prune`` clears
them from disk.
"""

from __future__ import annotations

import hashlib
import io
import logging
import os
import pathlib
import pickle
import tempfile
import threading
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass, field

from repro.errors import ReproError

try:  # advisory locking is POSIX-only; the tier degrades to lockless
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None

logger = logging.getLogger("repro.service")

_MISS = object()

#: Bytes of the sha256 trailer appended to every disk entry.
_TRAILER = hashlib.sha256().digest_size


@dataclass
class CacheStats:
    """Hit/miss/eviction counters for one :class:`PlanCache`."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    disk_hits: int = 0
    puts: int = 0
    #: Disk entries that failed the checksum/unpickle check and were
    #: quarantined (each served as a miss — the drift oracle and the
    #: X12 bench watch this).
    corrupt: int = 0
    #: OSError faults in the disk tier (reads and writes).
    disk_faults: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from either tier (0.0 when idle)."""
        if not self.lookups:
            return 0.0
        return self.hits / self.lookups

    def as_dict(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "disk_hits": self.disk_hits,
            "puts": self.puts,
            "corrupt": self.corrupt,
            "disk_faults": self.disk_faults,
            "hit_rate": self.hit_rate,
        }


#: Leading tag of every entry, naming the layout in the module
#: docstring.  An entry without it (the pre-PR-16 bare pickle) is not
#: decodable and quarantines like any other corrupt entry; the digests
#: — and with them :data:`~repro.service.normalize.IR_SCHEMA` — stay put.
_LAYOUT = b"repro-entry/2\n"

#: File-name prefix of a memo entry (:meth:`PlanCache.recall`): the
#: compile service's persisted canonical forms are ``form-<key>.pkl``.
_MEMO_PREFIX = "form-"


class _Rest:
    """The deferred section of a two-part entry: decoded on first call,
    by the unpickler that decoded the head (its memo resolves what the
    sections share)."""

    __slots__ = ("blob", "head_end", "_unpickler", "_value", "_lock")

    def __init__(self, blob: bytes, head_end: int, unpickler: pickle.Unpickler) -> None:
        #: The entry this section is the tail of; ``blob[:head_end]`` is
        #: tag + head.  Both are dropped once the rest is decoded.
        self.blob: bytes | None = blob
        self.head_end = head_end
        self._unpickler: pickle.Unpickler | None = unpickler
        self._lock = threading.Lock()

    def __call__(self) -> object:
        with self._lock:
            if self._unpickler is not None:
                self._value = self._unpickler.load()
                self._unpickler = self.blob = None
            return self._value


def _encode(value: object) -> bytes:
    """The one serialiser: tag, eager head, and the deferred rest of a
    value that has one (see the module docstring)."""
    buf = io.BytesIO()
    buf.write(_LAYOUT)
    pickler = pickle.Pickler(buf, protocol=pickle.HIGHEST_PROTOCOL)
    split = getattr(value, "_cache_split", None)
    if split is None:
        pickler.dump((None, value))
        return buf.getvalue()
    head, rest = split()
    pickler.dump((type(value), head))
    if isinstance(rest, _Rest):
        # A looked-up value whose rest nobody has read.  If its head
        # still pickles to the bytes it was decoded from, the entry is
        # unchanged (and the rest's memo references still resolve):
        # hand the blob back without decoding anything.
        blob = rest.blob
        if blob is not None and buf.getvalue() == blob[: rest.head_end]:
            return blob
        rest = rest()
    pickler.dump(rest)
    return buf.getvalue()


def _decode(blob: bytes, *, eager: bool = False) -> object:
    """The one deserialiser; *eager* also decodes a deferred rest now
    (the disk tier's first touch, which must surface damage here)."""
    if not blob.startswith(_LAYOUT):
        raise pickle.UnpicklingError("cache entry lacks the layout tag")
    buf = io.BytesIO(blob)
    buf.seek(len(_LAYOUT))
    unpickler = pickle.Unpickler(buf)
    cls, head = unpickler.load()
    if cls is None:
        return head
    rest = _Rest(blob, buf.tell(), unpickler)
    if eager:
        rest()
    return cls._cache_join(head, rest)


def _seal(blob: bytes) -> bytes:
    """Append the sha256 trailer the disk tier verifies on every read."""
    return blob + hashlib.sha256(blob).digest()


def _unseal(data: bytes) -> bytes | None:
    """Strip and verify the trailer; ``None`` marks a corrupt entry."""
    if len(data) <= _TRAILER:
        return None
    blob, trailer = data[:-_TRAILER], data[-_TRAILER:]
    if hashlib.sha256(blob).digest() != trailer:
        return None
    return blob


def _write_atomic(path: pathlib.Path, data: bytes) -> None:
    """Same-directory temp file + fsync + ``os.replace``: readers see
    either the old entry or the complete new one, never a torn write."""
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.stem}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


@dataclass
class PlanCache:
    """LRU-over-disk store from content digest to pickled artifact."""

    capacity: int = 256
    disk_dir: pathlib.Path | None = None
    #: Consecutive disk OSErrors tolerated before the disk tier is
    #: disabled and the cache degrades to memory-only.
    disk_fault_limit: int = 3
    stats: CacheStats = field(default_factory=CacheStats)

    def __post_init__(self) -> None:
        if self.capacity < 1:
            raise ReproError(f"cache capacity must be >= 1, got {self.capacity}")
        if self.disk_dir is not None:
            self.disk_dir = pathlib.Path(self.disk_dir)
            self.disk_dir.mkdir(parents=True, exist_ok=True)
        self._mem: OrderedDict[str, bytes] = OrderedDict()
        self._disk_disabled = False
        self._consecutive_faults = 0

    # -- disk plumbing --------------------------------------------------
    @property
    def disk_disabled(self) -> bool:
        """True once repeated disk faults degraded the cache to memory-only."""
        return self._disk_disabled

    @property
    def quarantine_dir(self) -> pathlib.Path | None:
        if self.disk_dir is None:
            return None
        return self.disk_dir / "quarantine"

    def _disk_path(self, key: str) -> pathlib.Path | None:
        if self.disk_dir is None or self._disk_disabled:
            return None
        return self.disk_dir / f"{key}.pkl"

    @contextmanager
    def _disk_lock(self, exclusive: bool):
        """Advisory flock on ``disk_dir/.lock`` (no-op without fcntl)."""
        if fcntl is None or self.disk_dir is None:
            yield
            return
        try:
            handle = open(self.disk_dir / ".lock", "a+b")
        except OSError:
            yield  # the op itself will hit (and count) the fault
            return
        try:
            fcntl.flock(handle, fcntl.LOCK_EX if exclusive else fcntl.LOCK_SH)
            yield
        finally:
            try:
                fcntl.flock(handle, fcntl.LOCK_UN)
            finally:
                handle.close()

    def _disk_fault(self, what: str, exc: OSError) -> None:
        self.stats.disk_faults += 1
        self._consecutive_faults += 1
        if self._consecutive_faults >= self.disk_fault_limit and not self._disk_disabled:
            self._disk_disabled = True
            logger.warning(
                "plan cache disk tier disabled after %d consecutive faults "
                "(last: %s during %s); continuing memory-only",
                self._consecutive_faults, exc, what,
            )
        else:
            logger.warning("plan cache disk %s fault: %s", what, exc)

    def _quarantine(self, path: pathlib.Path) -> None:
        """Move a corrupt entry aside so it is never served (or re-read)."""
        self.stats.corrupt += 1
        qdir = self.quarantine_dir
        try:
            qdir.mkdir(exist_ok=True)
            os.replace(path, qdir / f"{path.name}.{os.getpid()}")
        except OSError:
            # Another process quarantined it first (or the dir is gone);
            # either way the entry is no longer addressable — that is all
            # quarantine has to guarantee.
            pass
        logger.warning("plan cache quarantined corrupt entry %s", path.name)

    def _disk_read(self, key: str) -> bytes | None:
        """Checksum-verified read; corrupt entries quarantine as misses."""
        path = self._disk_path(key)
        if path is None:
            return None
        try:
            with self._disk_lock(exclusive=False):
                # One open, no exists() probe first: quarantine renames
                # outside the lock, so an entry may vanish under a reader
                # — that is a miss, not a fault of the tier.
                try:
                    with open(path, "rb") as handle:
                        data = handle.read()
                except FileNotFoundError:
                    return None
        except OSError as exc:
            self._disk_fault("read", exc)
            return None
        self._consecutive_faults = 0
        blob = _unseal(data)
        if blob is None:
            self._quarantine(path)
            return None
        return blob

    def _disk_load(self, key: str) -> tuple[object, bytes] | None:
        """The disk half of a probe, counting nothing but damage: read,
        unseal, decode both sections.  An entry whose checksum holds but
        whose payload predates the current layout (or was poisoned before
        sealing) is quarantined like a corrupt one."""
        blob = self._disk_read(key)
        if blob is None:
            return None
        try:
            return _decode(blob, eager=True), blob
        except Exception:
            self._discard(key)
            return None

    def _discard(self, key: str) -> None:
        path = self._disk_path(key)
        if path is not None:
            self._quarantine(path)

    def _disk_write(self, key: str, blob: bytes) -> None:
        """Atomic, checksummed, write-once disk insert."""
        path = self._disk_path(key)
        if path is None:
            return
        try:
            with self._disk_lock(exclusive=True):
                if not path.exists():
                    _write_atomic(path, _seal(blob))
        except OSError as exc:
            self._disk_fault("write", exc)
            return
        self._consecutive_faults = 0

    # -- tiers ----------------------------------------------------------
    def lookup(self, key: str) -> object:
        """The raw two-tier probe; returns the module-level miss sentinel."""
        blob = self._mem.get(key)
        if blob is not None:
            self._mem.move_to_end(key)
            self.stats.hits += 1
            return _decode(blob)
        loaded = self._disk_load(key)
        if loaded is not None:
            value, blob = loaded
            self._promote(key, blob)
            self.stats.hits += 1
            self.stats.disk_hits += 1
            return value
        self.stats.misses += 1
        return _MISS

    def get(self, key: str, default: object | None = None) -> object | None:
        value = self.lookup(key)
        return default if value is _MISS else value

    def __contains__(self, key: str) -> bool:
        if key in self._mem:
            return True
        path = self._disk_path(key)
        return path is not None and path.exists()

    def put(self, key: str, value: object) -> None:
        self.stats.puts += 1
        blob = _encode(value)
        if self._promote(key, blob):
            self._disk_write(key, blob)

    def _promote(self, key: str, blob: bytes) -> bool:
        """Make *key* the most recent memory entry, spilling what that
        evicts to disk; True when the key is new to the memory tier.
        Writes nothing for *key* itself — a disk hit promoted through
        here was just read from the file a write would target."""
        mem = self._mem
        if key in mem:
            mem.move_to_end(key)
            mem[key] = blob
            return False
        mem[key] = blob
        while len(mem) > self.capacity:
            old_key, old_blob = mem.popitem(last=False)
            self.stats.evictions += 1
            self._disk_write(old_key, old_blob)
        return True

    # -- memo entries ---------------------------------------------------
    def recall(self, key: str) -> object | None:
        """What :meth:`remember` stored under *key*, or ``None``.

        Memo entries are derived facts a caller keeps *beside* the plans
        (the compile service's source-text memo is the one tenant): they
        live in the disk tier only — never in the memory LRU — and their
        traffic moves no ``hits`` / ``misses`` / ``disk_hits`` / ``puts``.
        Everything else is the disk tier's: same sealed file format, same
        locks, same quarantine and fault accounting.  Each entry carries
        the key it was stored under, so a file that decodes but answers
        for another key (copied, or not a memo entry at all) is
        quarantined too.  Without a usable disk tier this is ``None``.
        """
        name = _MEMO_PREFIX + key
        loaded = self._disk_load(name)
        if loaded is None:
            return None
        entry = loaded[0]
        if type(entry) is tuple and len(entry) == 2 and entry[0] == key:
            return entry[1]
        self._discard(name)
        return None

    def remember(self, key: str, value: object) -> None:
        """Write-once store of a memo entry (see :meth:`recall`); a
        no-op without a usable disk tier.  *value* must not be ``None``."""
        name = _MEMO_PREFIX + key
        if self._disk_path(name) is not None:
            self._disk_write(name, _encode((key, value)))

    # -- maintenance ----------------------------------------------------
    def __len__(self) -> int:
        return len(self._mem)

    def clear(self) -> None:
        """Drop the memory tier (disk entries survive, counters reset)."""
        self._mem.clear()
        self.stats = CacheStats()

    def prune(self) -> int:
        """Delete every on-disk entry (memo and quarantined ones
        included) and the temp files of writers that died mid-write;
        returns the number of live entries removed."""
        if self.disk_dir is None:
            return 0
        removed = 0
        try:
            with self._disk_lock(exclusive=True):
                for path in self.disk_dir.glob("*.pkl"):
                    path.unlink(missing_ok=True)
                    removed += 1
                # Writers hold this lock from mkstemp to os.replace, so a
                # temp file seen from inside it has no live owner.
                for path in self.disk_dir.glob(".*.tmp"):
                    path.unlink(missing_ok=True)
                qdir = self.quarantine_dir
                if qdir.is_dir():
                    for path in qdir.iterdir():
                        path.unlink(missing_ok=True)
        except OSError as exc:
            self._disk_fault("prune", exc)
        return removed


def make_cache(
    mode: str = "memory",
    capacity: int = 256,
    disk_dir: str | pathlib.Path | None = None,
) -> PlanCache | None:
    """Build a cache from the public ``cache="off|memory|disk"`` knob.

    ``disk`` requires *disk_dir*; ``off`` returns ``None`` (the service
    then compiles every request from scratch).
    """
    if mode == "off":
        return None
    if mode == "memory":
        return PlanCache(capacity=capacity)
    if mode == "disk":
        if disk_dir is None:
            raise ReproError('cache="disk" needs cache_dir=')
        return PlanCache(capacity=capacity, disk_dir=pathlib.Path(disk_dir))
    raise ReproError(
        f"unknown cache mode {mode!r}; expected 'off', 'memory' or 'disk'"
    )
