"""Two-tier content-addressed plan cache with a crash-safe disk tier.

:class:`PlanCache` maps a digest (:mod:`repro.service.normalize`) to a
pickled compile artifact.  Values are stored *as pickle bytes* in both
tiers — every ``get`` serves a fresh object, so cached plans are
bit-identical to (and isolated from) what was ``put``, and the warm
path decodes only what its caller reads, once per entry where it can
(see "Shared heads").

**Entry layout.**  An entry is the :data:`_LAYOUT` tag, then an *eager
head*, then — for values that opt in — a *deferred rest*, both written
by one ``pickle.Pickler`` (two ``dump()`` calls share one memo, so an
object referenced from both sections is one object again after
decoding).  ``lookup`` decodes the head; the rest is decoded, after a
head, the first time the value asks for it.  A class opts in with a
``_cache_split()`` method returning ``(head, rest)``, a
``_cache_join(head, rest)`` classmethod taking the head and a zero-arg
callable that yields the rest, and a ``_cache_shares(head)`` predicate
(see "Shared heads").  The parts that wait for the rest are
lazy instances (:mod:`repro.util.lazy`) made in ``_cache_join`` — never
by the unpickler, whose memo would then hold objects pointing back at
it, a reference cycle per hit.  Two values opt in, each deferring what a
served hit does not read:

* :class:`~repro.service.plan.PlanEntry` — head ``(source, entry,
  strategy, type(pattern), rename)``, rest ``(program, pattern)``; it
  is served as the plain dict ``{"program", "generated", "rename"}``
  whose ``program`` and ``generated.pattern`` are lazy;
* :class:`~repro.service.plan.SolveOutcome` — head ``((cost,
  segments, segment_costs, change_costs, loop_carried), validation)``,
  rest the :class:`~repro.dp.phases.PhaseTables` (98 % of a solve
  entry), served as a lazy ``tables`` and a partly eager ``result``
  whose ``schemes`` — derived data, ``tables.P`` along ``segments`` —
  are rebuilt from them on first read.

Every other value is all head, as is a dict-shaped plan entry written
before plans deferred.  A looked-up value pickles to the bytes the cold
value does, before and after the rest is touched.  A rest that does not
decode raises :class:`~repro.errors.ServiceError` when it is read, on
that read and every later one.

**Shared heads.**  A memory entry (:class:`_Entry`) is the bytes plus,
after its first hit, the decoded head, so it is evicted, spilled and
promoted with them; a disk first touch seeds the promoted entry with the
head it decoded.  Every later hit calls ``_cache_join`` on that head and
constructs no ``Unpickler``.  What is shared must be immutable to the
leaves, and ``_cache_shares(head)`` — asked once per entry — says
whether it is:

* a plan head is strings and a class, and the one mutable part,
  ``rename``, is served as a per-hit copy: shared;
* a solve head is numbers in tuples: shared — unless it holds an
  ``execute=True`` validation (its reports hold dicts), which decodes
  per hit, its rest read on by the same unpickler;
* an all-head value decodes per hit.

A rest's memo references point into its head, so the entry also keeps
the memo of the unpickler that decoded the shared head, and a shared-head
hit's rest is decoded by an unpickler that starts from it (:class:`_Rest`):
the references resolve to the shared head's own objects.  A plan's rest
refers back to the array-name strings of ``rename`` and to the pattern's
module and class; a solve's refers back to nothing.  Both are immutable,
so the served program speaks the very strings its per-hit ``rename``
copy does, and the served value pickles as one decode of the entry does.
A class whose rest referred back to a mutable part of its head could not
share it.

**Who wrote a disk entry.**  Each disk entry ends, inside its checksum,
in the *vouch* of the code that wrote it (:func:`_vouch`: a tag and a
sha256 of ``sys.version`` and every ``.py`` file of the ``repro``
package).  The first touch of an entry that carries *this* code's vouch
decodes the head only, as a memory hit does: this code's own
``_encode`` wrote it, so it decodes.  Every other entry — another code
version's (a class moved without a layout-tag bump), one without a
vouch (written before entries carried one, or sealed by hand) — decodes
both sections before promotion, so a damaged, old-layout or
other-classes entry is caught at ``lookup``, never at attribute access.
The vouch is not a MAC: see :func:`_vouch` for the trust boundary.

* **memory tier** — an ``OrderedDict`` LRU of :class:`_Entry` (bytes
  and shared head) bounded by ``capacity``;
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
* **checksum trailers** — each file ends in a 32-byte sha256 of
  everything before it (the entry and its vouch), verified on every disk
  read; a mismatched or truncated entry, and one that the first touch
  verifies and finds unpicklable or in an old layout (untagged), is
  **quarantined** (moved to ``disk_dir/quarantine/``) and served as a
  miss, never as garbage;
* **lock-free reads, locked writes** — a write's write-once check and
  atomic replace, and ``prune``, hold an exclusive ``flock`` on
  ``disk_dir/.lock`` (no-op where ``fcntl`` is unavailable), so any
  number of services and supervised worker processes share one cache
  directory without corruption.  A read is one ``open`` and one
  ``read`` and takes no lock: a visible file is always whole (atomic
  replace) and never rewritten (write-once), its checksum is verified
  anyway, and a file that quarantine or ``prune`` removes under a
  reader is either still read whole through the open handle or a
  ``FileNotFoundError`` — a miss.  Promoting a disk hit into memory is
  not a write;
* **graceful degradation** — after ``disk_fault_limit`` *consecutive*
  ``OSError`` faults the disk tier is disabled and the cache continues
  memory-only (counted in ``CacheStats.disk_faults``, flagged by
  ``PlanCache.disk_disabled``, logged, never silently wrong).

Counters live in :class:`CacheStats` — the compile-side twin of the
simulator's :class:`repro.machine.metrics.Metrics` registry — and are
surfaced by :attr:`repro.api.Session.stats` and the X11/X12 benchmark
records.

Keys embed :data:`repro.service.normalize.IR_SCHEMA`, so a schema bump
orphans (never corrupts) previously persisted entries; ``prune`` clears
them from disk.
"""

from __future__ import annotations

import functools
import hashlib
import io
import logging
import os
import pathlib
import pickle
import sys
import tempfile
import threading
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass, field

from repro.errors import ReproError, ServiceError
from repro.util.lazy import pending

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
#: docstring.  An entry under another tag (the bare pickle before tags,
#: ``repro-entry/2``, whose solve head held the whole ``result``, or
#: ``repro-entry/3``, whose redistribution terms held seconds where a
#: ``RedistTerm`` now holds counts) is not decodable and quarantines like
#: any other corrupt entry; the digests — and with them
#: :data:`~repro.service.normalize.IR_SCHEMA` — stay put.
_LAYOUT = b"repro-entry/4\n"

#: File-name prefix of a memo entry (:meth:`PlanCache.recall`): the
#: compile service's persisted canonical forms are ``form-<key>.pkl``.
_MEMO_PREFIX = "form-"


#: Leading bytes of a vouch (:func:`_vouch`), which follows the blob
#: inside a disk entry's checksummed content.
_VOUCH_TAG = b"repro-vouch/1\n"
_VOUCH = len(_VOUCH_TAG) + hashlib.sha256().digest_size


#: An :class:`_Entry`'s ``head`` once a hit found that the head cannot
#: be shared: every hit decodes the entry.
_PER_HIT = object()


class _Rest:
    """The deferred section of a two-part entry, decoded on first call.

    The rest refers into its head's pickle memo, so it is read after a
    head by one unpickler.  Given the *unpickler* that decoded the served
    head (a head decoded per hit), that unpickler reads on.  Without one
    (a shared head), a fresh unpickler starts at the rest holding *memo*,
    the memo of the unpickler that decoded the shared head: the rest's
    references resolve to the shared head's own objects.  A section that
    does not decode raises :class:`~repro.errors.ServiceError`, on that
    call and every later one."""

    __slots__ = ("blob", "head_end", "_unpickler", "_memo", "_value", "_damage", "_lock")

    def __init__(
        self, blob: bytes, head_end: int,
        unpickler: pickle.Unpickler | None = None, memo: object = None,
    ) -> None:
        #: The entry this section is the tail of; ``blob[:head_end]`` is
        #: tag + head.  Both are dropped once the rest is decoded.
        self.blob: bytes | None = blob
        self.head_end = head_end
        self._unpickler = unpickler
        self._memo = memo
        self._damage: Exception | None = None
        self._lock = threading.Lock()

    def __call__(self) -> object:
        with self._lock:
            if self.blob is not None:
                try:
                    unpickler = self._unpickler
                    if unpickler is None:
                        # The memo's entries are numbered in order, and the
                        # rest numbers its own after the head's.  Assigning
                        # ``memo`` copies the entries but (CPython 3.11) not
                        # their count, so a prefix first memoizes as many
                        # placeholders as the head has entries.
                        count = len(self._memo.copy())
                        unpickler = pickle.Unpickler(
                            io.BytesIO(b"N\x940" * count + b"N." + self.blob[self.head_end:])
                        )
                        unpickler.load()
                        unpickler.memo = self._memo
                    self._value = unpickler.load()
                except Exception as exc:
                    # without its traceback, whose frame holds self
                    self._damage = exc.with_traceback(None)
                finally:
                    self._unpickler = self._memo = self.blob = None
            if self._damage is not None:
                raise ServiceError(
                    f"the deferred section of a {_LAYOUT.decode().strip()} cache entry "
                    f"is damaged: {self._damage}"
                ) from self._damage
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
    source = pending(rest)
    if isinstance(source, _Rest):
        # A looked-up value whose rest nobody has read.  If its head
        # still pickles to the bytes it was decoded from, the entry is
        # unchanged (and the rest's memo references still resolve):
        # hand the blob back without decoding anything.
        blob = source.blob
        if blob is not None and buf.getvalue() == blob[: source.head_end]:
            return blob
    pickler.dump(rest)
    return buf.getvalue()


def _unpickler(blob: bytes) -> tuple[pickle.Unpickler, io.BytesIO]:
    """An unpickler positioned at the head of *blob*, and its buffer."""
    if not blob.startswith(_LAYOUT):
        raise pickle.UnpicklingError("cache entry lacks the layout tag")
    buf = io.BytesIO(blob)
    buf.seek(len(_LAYOUT))
    return pickle.Unpickler(buf), buf


def _decode(blob: bytes, *, eager: bool = False) -> tuple[object, object]:
    """The one deserialiser: the value, and the ``head`` of the
    :class:`_Entry` that holds *blob* (checked here, once).  *eager*
    also decodes a deferred rest now: the disk tier's first touch of an
    entry this code did not vouch for (:func:`_vouched`) is eager, so its
    damage surfaces here; any other decode leaves the rest to its first
    read."""
    unpickler, buf = _unpickler(blob)
    cls, head = unpickler.load()
    if cls is None:
        return head, _PER_HIT
    head_end = buf.tell()
    if cls._cache_shares(head):
        memo = unpickler.memo  # every later rest's references into the head
        shared = (cls, head, head_end, memo)
        rest = _Rest(blob, head_end, memo=memo)
    else:
        shared = _PER_HIT
        rest = _Rest(blob, head_end, unpickler)
    if eager:
        rest()
    return cls._cache_join(head, rest), shared


class _Entry:
    """A memory-tier entry: its bytes, and the head its hits share.

    ``head`` is ``None`` until a hit decodes the entry, then ``(cls,
    head, head_end, memo)`` when ``cls._cache_shares(head)``, else
    :data:`_PER_HIT` (all-head values too).  It is evicted, spilled and
    promoted with the bytes, never kept beside them."""

    __slots__ = ("blob", "head")

    def __init__(self, blob: bytes, head: object = None) -> None:
        self.blob = blob
        self.head = head

    def serve(self) -> object:
        """A hit's value: joined from the shared head, constructing no
        unpickler, when there is one; decoded otherwise."""
        shared = self.head
        if shared is None or shared is _PER_HIT:
            value, self.head = _decode(self.blob)
            return value
        cls, head, head_end, memo = shared
        return cls._cache_join(head, _Rest(self.blob, head_end, memo=memo))


def _seal(blob: bytes) -> bytes:
    """Append the sha256 trailer the disk tier verifies on every read."""
    return blob + hashlib.sha256(blob).digest()


def _source_digest(root: pathlib.Path) -> bytes | None:
    """sha256 of ``sys.version`` and every ``*.py`` file under *root*,
    in sorted relative-path order, each as its path and its bytes;
    ``None`` when there is no such file or one cannot be read."""
    try:
        files = sorted((path.relative_to(root).as_posix(), path) for path in root.rglob("*.py"))
        if not files:
            return None
        digest = hashlib.sha256(sys.version.encode())
        for name, path in files:
            data = path.read_bytes()
            digest.update(b"%d:%s%d:" % (len(name), name.encode(), len(data)))
            digest.update(data)
        return digest.digest()
    except (OSError, ValueError):
        return None


@functools.cache
def _vouch() -> bytes:
    """This code's signature on the disk entries it writes: the tag and
    the :func:`_source_digest` of the ``repro`` package, computed once
    per process, on first disk use; ``b""`` (no vouch) for a package
    without ``.py`` source.

    A version string would not do: it does not change between commits,
    so an entry pickled before a class moved would still be trusted.
    The vouch is not a MAC.  A hostile writer can forge it, as it can
    already forge the checksum or store a pickle that runs code: the
    cache directory is trusted like the code itself.  A rest sealed as
    garbage behind this code's vouch is therefore served, and raises
    :class:`~repro.errors.ServiceError` when it is first read.
    """
    digest = _source_digest(pathlib.Path(__file__).resolve().parents[1])
    return b"" if digest is None else _VOUCH_TAG + digest


def _vouched(content: bytes) -> tuple[bytes, bool]:
    """Split an unsealed entry into its blob and whether this code
    vouched for it.  Another code's vouch is stripped and answers
    False, as does content without one (a raw :func:`_seal`, or a file
    written before entries carried vouches)."""
    own = _vouch()
    if own and content.endswith(own):
        return content[: -len(own)], True
    if len(content) >= _VOUCH and content[-_VOUCH:].startswith(_VOUCH_TAG):
        return content[:-_VOUCH], False
    return content, False


def _unseal(data: bytes) -> bytes | None:
    """Strip and verify the trailer; ``None`` marks a corrupt entry."""
    if len(data) <= _TRAILER:
        return None
    blob, trailer = data[:-_TRAILER], data[-_TRAILER:]
    if hashlib.sha256(blob).digest() != trailer:
        return None
    return blob


def _write_atomic(path: str | os.PathLike, data: bytes) -> None:
    """Same-directory temp file + fsync + ``os.replace``: readers see
    either the old entry or the complete new one, never a torn write."""
    directory, name = os.path.split(path)
    stem = os.path.splitext(name)[0]
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=f".{stem}.", suffix=".tmp")
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
        #: ``disk_dir`` as a string ending in a separator: every entry's
        #: path is this plus ``<key>.pkl``, joined without ``pathlib``.
        self._disk_root: str | None = None
        if self.disk_dir is not None:
            self.disk_dir = pathlib.Path(self.disk_dir)
            self.disk_dir.mkdir(parents=True, exist_ok=True)
            self._disk_root = os.path.join(self.disk_dir, "")
        self._mem: OrderedDict[str, _Entry] = OrderedDict()
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

    def _disk_path(self, key: str) -> str | None:
        if self._disk_root is None or self._disk_disabled:
            return None
        return f"{self._disk_root}{key}.pkl"

    @contextmanager
    def _disk_lock(self):
        """Exclusive advisory flock on ``disk_dir/.lock`` (no-op without
        fcntl), held by writers and ``prune``; readers take none."""
        if fcntl is None or self._disk_root is None:
            yield
            return
        try:
            handle = open(f"{self._disk_root}.lock", "a+b")
        except OSError:
            yield  # the op itself will hit (and count) the fault
            return
        try:
            fcntl.flock(handle, fcntl.LOCK_EX)
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

    def _quarantine(self, path: str) -> None:
        """Move a corrupt entry aside so it is never served (or re-read)."""
        self.stats.corrupt += 1
        qdir = self.quarantine_dir
        name = os.path.basename(path)
        try:
            qdir.mkdir(exist_ok=True)
            os.replace(path, qdir / f"{name}.{os.getpid()}")
        except OSError:
            # Another process quarantined it first (or the dir is gone);
            # either way the entry is no longer addressable — that is all
            # quarantine has to guarantee.
            pass
        logger.warning("plan cache quarantined corrupt entry %s", name)

    def _disk_read(self, key: str) -> bytes | None:
        """Checksum-verified read of an entry's content (blob and vouch);
        corrupt entries quarantine as misses."""
        path = self._disk_path(key)
        if path is None:
            return None
        try:
            # One open, no lock and no exists() probe first: quarantine
            # and prune may remove an entry under a reader — that is a
            # miss, not a fault of the tier.
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

    def _disk_load(self, key: str) -> tuple[object, _Entry] | None:
        """The disk half of a probe, counting nothing but damage: read,
        unseal, decode; the value and the memory entry it seeds with its
        head.  An entry this code vouched for (:func:`_vouch`) decodes its
        head only, as a memory hit does; any other entry decodes both
        sections, and one whose checksum holds but whose payload another
        code's classes or layout wrote (or that was poisoned before
        sealing) is quarantined like a corrupt one."""
        content = self._disk_read(key)
        if content is None:
            return None
        blob, own = _vouched(content)
        try:
            value, head = _decode(blob, eager=not own)
        except Exception:
            self._discard(key)
            return None
        return value, _Entry(blob, head)

    def _discard(self, key: str) -> None:
        path = self._disk_path(key)
        if path is not None:
            self._quarantine(path)

    def _disk_write(self, key: str, blob: bytes) -> None:
        """Atomic, checksummed, write-once disk insert."""
        path = self._disk_path(key)
        if path is None:
            return
        vouch = _vouch()  # first disk use hashes the package: not under the lock
        try:
            with self._disk_lock():
                if not os.path.exists(path):
                    _write_atomic(path, _seal(blob + vouch))
        except OSError as exc:
            self._disk_fault("write", exc)
            return
        self._consecutive_faults = 0

    # -- tiers ----------------------------------------------------------
    def lookup(self, key: str) -> object:
        """The raw two-tier probe; returns the module-level miss sentinel."""
        entry = self._mem.get(key)
        if entry is not None:
            self._mem.move_to_end(key)
            self.stats.hits += 1
            return entry.serve()
        loaded = self._disk_load(key)
        if loaded is not None:
            value, entry = loaded
            self._promote(key, entry)
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
        return path is not None and os.path.exists(path)

    def put(self, key: str, value: object) -> None:
        """Store *value* under *key*; a value that does not pickle is a
        :class:`~repro.errors.ServiceError`, and is neither stored nor
        counted."""
        try:
            blob = _encode(value)
        except (pickle.PicklingError, TypeError, AttributeError) as exc:
            raise ServiceError(
                f"cannot store {type(value).__name__} under cache key {key!r}: {exc}"
            ) from exc
        self.stats.puts += 1
        if self._promote(key, _Entry(blob)):
            self._disk_write(key, blob)

    def _promote(self, key: str, entry: _Entry) -> bool:
        """Make *entry* the most recent memory entry under *key*, spilling
        what that evicts to disk; True when the key is new to the memory
        tier.  Writes nothing for *key* itself — a disk hit promoted
        through here was just read from the file a write would target."""
        mem = self._mem
        if key in mem:
            mem.move_to_end(key)
            mem[key] = entry
            return False
        mem[key] = entry
        while len(mem) > self.capacity:
            old_key, old = mem.popitem(last=False)
            self.stats.evictions += 1
            self._disk_write(old_key, old.blob)
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
            with self._disk_lock():
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
