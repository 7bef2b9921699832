"""Measurement registry for the SPMD machine.

The paper's method (alignment §3 and the DP over loop sequences §4)
chooses data layouts by *predicted* communication cost; this module is
the measurement side of that bargain.  A :class:`Metrics` instance is
populated automatically by :meth:`repro.machine.engine.Engine.record`
for every simulated event and aggregates:

* per-rank accounting — compute / communication / blocked-wait seconds,
  messages and words sent/received (:class:`RankMetrics`);
* per-kind, per-tag and per-collective histograms (:class:`GroupStats`)
  — collectives label their events (``bcast``, ``reduce``, ``allgather``,
  ``allreduce/reduce`` when nested, ...), so measured volumes can be
  compared against the Table 1 cost formulas primitive by primitive.

``words``/``messages`` in the histograms count *injections* (send
events) so a message is never double-counted; ``seconds`` accumulate
over send + recv + wait + labelled compute, i.e. the total simulated
time attributable to that key.
"""

from __future__ import annotations

import threading
from collections.abc import Iterable
from dataclasses import dataclass, field, fields

from repro.util.tables import Table


@dataclass(slots=True)
class RankMetrics:
    """Aggregated accounting for one logical processor."""

    rank: int
    compute_seconds: float = 0.0
    delay_seconds: float = 0.0
    comm_seconds: float = 0.0  # send + recv occupancy (transfer only)
    wait_seconds: float = 0.0  # idle, blocked on an empty channel
    messages_sent: int = 0
    messages_received: int = 0
    words_sent: int = 0
    words_received: int = 0
    #: Nonblocking overlap accounting (populated by the request layer of
    #: :mod:`repro.machine.nonblocking`): total in-flight seconds of
    #: completed receives after their post, and the portion of that time
    #: hidden behind local work rather than exposed as blocked waiting.
    inflight_seconds: float = 0.0
    hidden_seconds: float = 0.0

    @property
    def busy_seconds(self) -> float:
        """Time the processor was doing something (not blocked waiting)."""
        return self.compute_seconds + self.delay_seconds + self.comm_seconds

    @property
    def overlap_ratio(self) -> float:
        """Fraction of nonblocking in-flight time hidden behind compute."""
        if self.inflight_seconds <= 0.0:
            return 0.0
        return self.hidden_seconds / self.inflight_seconds


@dataclass(slots=True)
class GroupStats:
    """One histogram bucket (per kind, per tag or per collective)."""

    events: int = 0
    seconds: float = 0.0
    messages: int = 0
    words: int = 0


def _field_values(record: RankMetrics | GroupStats) -> dict:
    """The dataclass fields of *record* by name, in declaration order —
    the order (and the only list) of the keys a snapshot carries."""
    return {f.name: getattr(record, f.name) for f in fields(record)}


def _set_fields(
    record: RankMetrics | GroupStats, data: dict
) -> RankMetrics | GroupStats:
    """Inverse of :func:`_field_values`: each value coerced to the type of
    the field's default (``int`` counters, ``float`` seconds)."""
    for f in fields(record):
        setattr(record, f.name, type(getattr(record, f.name))(data[f.name]))
    return record


def _sorted_groups(groups: dict) -> dict:
    return {k: _field_values(v) for k, v in sorted(groups.items())}


def _table(title: str, headers: list[str], rows: Iterable) -> str:
    """Render *rows* under *headers*: the one row loop of every table below."""
    table = Table(headers, title=title)
    for row in rows:
        table.add_row(row)
    return table.render()


def _group_table(title: str, key_header: str, groups: dict) -> str:
    return _table(
        title,
        [key_header, "events", "seconds", "messages", "words"],
        (
            [key, s.events, f"{s.seconds:g}", s.messages, s.words]
            for key, s in sorted(groups.items())
        ),
    )


def _counter_table(title: str, key_header: str, counters: dict) -> str:
    return _table(title, [key_header, "count"], sorted(counters.items()))


@dataclass
class Metrics:
    """Registry of counters for one engine run.

    Per-rank fields are only ever touched by the owning rank (thread), so
    they need no synchronization; the shared histograms take a lock when
    ``threadsafe`` is set (used by the threaded backend).
    """

    nprocs: int
    threadsafe: bool = False
    ranks: list[RankMetrics] = field(init=False)
    by_kind: dict[str, GroupStats] = field(init=False, default_factory=dict)
    by_tag: dict[int, GroupStats] = field(init=False, default_factory=dict)
    by_collective: dict[str, GroupStats] = field(init=False, default_factory=dict)
    #: Fault/resilience counters keyed by detail: ``drop``, ``delay``,
    #: ``duplicate``, ``dup-suppressed``, ``ack``, ``ack-drop``,
    #: ``ack-delay``, ``retry``, ``timeout``, ``crash``, ``checkpoint``,
    #: ``restore``, ``restart`` (see docs/RESILIENCE.md).
    faults: dict[str, int] = field(init=False, default_factory=dict)
    #: Compile-service counters stamped by
    #: :meth:`repro.service.compiler.CompileResult.run` so a run's
    #: snapshot records how its plan was served (docs/API.md): cache
    #: counters (``cache_hits``, ``cache_misses``, ``cache_evictions``,
    #: ``cache_disk_hits``, ``cache_puts``, ``cache_corrupt``,
    #: ``cache_disk_faults``) plus, when the service runs a supervised
    #: process pool, its fault counters (``pool_dispatched``,
    #: ``pool_crashes``, ``pool_respawns``, ``pool_retries``,
    #: ``pool_deadline_kills``) and ``fallbacks`` — requests that
    #: degraded to in-process compilation (docs/RESILIENCE.md).
    service: dict[str, int] = field(init=False, default_factory=dict)
    #: Sparse inspector/executor counters stamped (rank 0 only) by
    #: :func:`repro.pipeline.inspector.stamp_sparse` (docs/SPARSE.md):
    #: ``iterations``, ``gather_words_per_iter``,
    #: ``gather_messages_per_iter``, ``inspector_words``,
    #: ``inspector_runs``, ``schedule_builds``, ``schedule_reuses`` —
    #: how a run's communication schedule was obtained (built on-machine
    #: vs replayed from a warm plan cache) and what the executor moves
    #: per sweep.
    sparse: dict[str, int] = field(init=False, default_factory=dict)
    #: Correlation keys stamped by :func:`repro.obs.context.stamp_current`
    #: when the run executed under a :class:`~repro.obs.context.TraceContext`
    #: (docs/OBSERVABILITY.md): ``run_id`` plus optionally
    #: ``request_digest`` and ``parent``.  String-valued, unlike the
    #: counter groups above.
    obs: dict[str, str] = field(init=False, default_factory=dict)

    def __post_init__(self) -> None:
        self.ranks = [RankMetrics(r) for r in range(self.nprocs)]
        # None instead of a nullcontext: entering a context manager per
        # observed event is measurable on the calendar engine's hot path.
        self._lock = threading.Lock() if self.threadsafe else None

    # -- population (called by Engine.record) ---------------------------
    def observe(
        self,
        rank: int,
        kind: str,
        start: float,
        end: float,
        peer: int | None = None,
        words: int = 0,
        tag: int = 0,
        scope: str = "",
        detail: str = "",
    ) -> None:
        duration = end - start
        # One pass, one body: the threaded backend holds the lock across
        # it (per-rank fields are thread-confined and would not need it).
        # The float sums accumulate in the same order as always (rank
        # field, by_kind, by_tag, by_collective), so serialized metrics
        # stay bit-identical; only a send carries messages and words
        # into the histograms, every other kind would add zeros.
        lock = self._lock
        if lock is not None:
            lock.acquire()
        try:
            sent = comm = False
            if kind == "send" or kind == "isend":
                r = self.ranks[rank]
                r.comm_seconds += duration
                r.messages_sent += 1
                r.words_sent += words
                sent = comm = True
            elif kind == "recv":
                r = self.ranks[rank]
                r.comm_seconds += duration
                r.messages_received += 1
                r.words_received += words
                comm = True
            elif kind == "wait":
                self.ranks[rank].wait_seconds += duration
            elif kind == "compute":
                self.ranks[rank].compute_seconds += duration
            elif kind == "delay":
                self.ranks[rank].delay_seconds += duration
            elif kind == "fault":
                key = detail or "fault"
                self.faults[key] = self.faults.get(key, 0) + 1
                scope = ""  # fault markers count by kind only
            group = self.by_kind
            stats = group.get(kind)
            if stats is None:
                stats = group[kind] = GroupStats()
            stats.events += 1
            stats.seconds += duration
            if sent:
                stats.messages += 1
                stats.words += words
            if comm:
                group = self.by_tag
                stats = group.get(tag)
                if stats is None:
                    stats = group[tag] = GroupStats()
                stats.events += 1
                stats.seconds += duration
                if sent:
                    stats.messages += 1
                    stats.words += words
            if scope:
                group = self.by_collective
                stats = group.get(scope)
                if stats is None:
                    stats = group[scope] = GroupStats()
                stats.events += 1
                stats.seconds += duration
                if sent:
                    stats.messages += 1
                    stats.words += words
        finally:
            if lock is not None:
                lock.release()

    def observe_overlap(self, rank: int, inflight: float, hidden: float) -> None:
        """Fold one completed nonblocking receive into the overlap stats.

        Called by :class:`repro.machine.nonblocking.RecvRequest` at
        completion time; per-rank fields are thread-confined, so no lock
        is needed even on the threaded backend.
        """
        r = self.ranks[rank]
        r.inflight_seconds += inflight
        r.hidden_seconds += hidden

    # -- aggregates ------------------------------------------------------
    @property
    def message_count(self) -> int:
        return sum(r.messages_sent for r in self.ranks)

    @property
    def message_words(self) -> int:
        return sum(r.words_sent for r in self.ranks)

    @property
    def compute_seconds(self) -> float:
        return sum(r.compute_seconds for r in self.ranks)

    @property
    def comm_seconds(self) -> float:
        return sum(r.comm_seconds for r in self.ranks)

    @property
    def wait_seconds(self) -> float:
        return sum(r.wait_seconds for r in self.ranks)

    def slack(self, makespan: float) -> list[float]:
        """Per-rank idle time: makespan minus the rank's busy seconds."""
        return [makespan - r.busy_seconds for r in self.ranks]

    def scope_totals(self, prefix: str) -> GroupStats:
        """Aggregate stats over every collective scope under *prefix*.

        Scopes nest with ``/`` (``redist/bcast``), so the traffic of one
        labelled phase — e.g. a ``redistribute(..., label="redist")``
        call — is the sum over the label itself and everything nested
        inside it.  Only top-level matches count: ``allreduce/reduce``
        is *not* part of prefix ``reduce``.
        """
        out = GroupStats()
        needle = prefix + "/"
        for key, s in self.by_collective.items():
            if key == prefix or key.startswith(needle):
                out.events += s.events
                out.seconds += s.seconds
                out.messages += s.messages
                out.words += s.words
        return out

    # -- reporting -------------------------------------------------------
    def rank_table(self) -> str:
        return _table(
            "Per-rank accounting (simulated seconds)",
            ["rank", "compute", "comm", "wait", "msgs out", "msgs in", "words out"],
            (
                [
                    f"P{r.rank}",
                    f"{r.compute_seconds:g}",
                    f"{r.comm_seconds:g}",
                    f"{r.wait_seconds:g}",
                    r.messages_sent,
                    r.messages_received,
                    r.words_sent,
                ]
                for r in self.ranks
            ),
        )

    def collective_table(self) -> str:
        return _group_table("Per-collective accounting", "collective", self.by_collective)

    def tag_table(self) -> str:
        return _group_table("Per-tag accounting", "tag", self.by_tag)

    def overlap_table(self) -> str:
        return _table(
            "Nonblocking overlap (simulated seconds)",
            ["rank", "inflight", "hidden", "overlap ratio"],
            (
                [
                    f"P{r.rank}",
                    f"{r.inflight_seconds:g}",
                    f"{r.hidden_seconds:g}",
                    f"{r.overlap_ratio:.3f}",
                ]
                for r in self.ranks
            ),
        )

    def fault_table(self) -> str:
        return _counter_table("Fault / resilience events", "fault", self.faults)

    def service_table(self) -> str:
        return _counter_table("Compile-service cache", "counter", self.service)

    def sparse_table(self) -> str:
        return _counter_table("Sparse inspector/executor", "counter", self.sparse)

    def obs_table(self) -> str:
        return _table("Trace correlation", ["key", "value"], sorted(self.obs.items()))

    def summary(self) -> str:
        parts = [self.rank_table()]
        if any(r.inflight_seconds > 0.0 for r in self.ranks):
            parts.append(self.overlap_table())
        if self.by_collective:
            parts.append(self.collective_table())
        if self.by_tag:
            parts.append(self.tag_table())
        if self.faults:
            parts.append(self.fault_table())
        if self.service:
            parts.append(self.service_table())
        if self.sparse:
            parts.append(self.sparse_table())
        if self.obs:
            parts.append(self.obs_table())
        return "\n\n".join(parts)

    def as_dict(self) -> dict:
        """JSON-serializable snapshot (for artifact files and tooling).

        Fully round-trippable through :meth:`from_dict` and deterministic:
        every histogram is emitted in sorted key order (tags numerically,
        kinds/collectives/faults lexically), so two runs with identical
        traffic serialize to byte-identical JSON regardless of dict
        insertion order.
        """

        out = {
            "nprocs": self.nprocs,
            "message_count": self.message_count,
            "message_words": self.message_words,
            "ranks": [
                {**_field_values(r), "overlap_ratio": r.overlap_ratio}
                for r in self.ranks
            ],
            "by_kind": _sorted_groups(self.by_kind),
            "by_tag": {str(k): v for k, v in _sorted_groups(self.by_tag).items()},
            "by_collective": _sorted_groups(self.by_collective),
            "faults": {k: self.faults[k] for k in sorted(self.faults)},
        }
        # Only present when a compile service / a sparse kernel / a trace
        # context stamped them, keeping earlier snapshots byte-identical.
        for name in ("service", "sparse", "obs"):
            stamped = getattr(self, name)
            if stamped:
                out[name] = {k: stamped[k] for k in sorted(stamped)}
        return out

    @classmethod
    def from_dict(cls, data: dict, threadsafe: bool = False) -> "Metrics":
        """Rebuild a registry from an :meth:`as_dict` snapshot.

        The inverse is exact: ``Metrics.from_dict(m.as_dict()).as_dict()
        == m.as_dict()`` (the derived ``message_count``/``message_words``
        and ``overlap_ratio`` entries are recomputed, not trusted).
        """

        def stats(group: dict) -> dict:
            return {k: _set_fields(GroupStats(), v) for k, v in group.items()}

        m = cls(nprocs=int(data["nprocs"]), threadsafe=threadsafe)
        for entry in data.get("ranks", []):
            _set_fields(m.ranks[int(entry["rank"])], entry)
        m.by_kind = stats(data.get("by_kind", {}))
        m.by_tag = {int(k): v for k, v in stats(data.get("by_tag", {})).items()}
        m.by_collective = stats(data.get("by_collective", {}))
        m.faults = {k: int(v) for k, v in data.get("faults", {}).items()}
        m.service = {k: int(v) for k, v in data.get("service", {}).items()}
        m.sparse = {k: int(v) for k, v in data.get("sparse", {}).items()}
        m.obs = {k: str(v) for k, v in data.get("obs", {}).items()}
        return m
