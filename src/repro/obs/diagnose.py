"""Automated performance diagnostics over a :class:`~repro.obs.store.TraceStore`.

Four passes turn recorded telemetry into *named* causes
(docs/OBSERVABILITY.md, "diagnostics gallery"):

* :func:`attribute_waits` — for every blocked-wait interval, decide who
  kept the message away: an injected channel fault (drop/delay/
  duplicate), a crashed or deadline-killed peer, or simply a straggling
  sender — and report the attributed share of total idle time;
* :func:`load_imbalance` — per-scope compute dispersion across ranks
  with the offending rank named;
* :func:`critical_path_diff` — which message edges moved between two
  runs' critical paths (blocking vs overlapped, clean vs chaos, ...);
* :func:`drift_terms` / :func:`explain_drift` — decompose a run into
  the cost model's terms (compute, per-message alpha, per-word
  transfer, blocked wait) and name the dominant drifting term when a
  :mod:`repro.costmodel.bands` band is checked, so a violation comes
  with a culprit instead of a bare ratio.

All inputs are simulated-time events, so every number here is
deterministic and test-assertable.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass, field

from repro.costmodel.bands import SlackBand, get_band
from repro.errors import TraceError
from repro.machine.critpath import critical_path
from repro.machine.trace import Trace, trace_index
from repro.util.tables import Table

_EPS = 1e-9

#: Channel-fault details that explain a receiver's wait, in blame
#: priority order (a dropped message forces a full retry round-trip; a
#: delay only stretches delivery; a duplicate never delays anything but
#: is reported when it is all that happened on the channel).
_DATA_FAULTS = ("drop", "delay", "duplicate")


@dataclass(frozen=True)
class WaitAttribution:
    """One attributed idle interval on one rank."""

    rank: int
    peer: int | None
    tag: int
    start: float
    end: float
    cause: str      # "fault:drop", "fault:delay", "fault:duplicate",
    #                 "crash", "timeout", "straggler", "sender-blocked",
    #                 "unattributed"
    culprit: str    # "P<rank>" of the blamed sender, or "" when unknown

    @property
    def seconds(self) -> float:
        return self.end - self.start

    def as_dict(self) -> dict:
        return {
            "rank": self.rank, "peer": self.peer, "tag": self.tag,
            "start": self.start, "end": self.end, "seconds": self.seconds,
            "cause": self.cause, "culprit": self.culprit,
        }


@dataclass
class WaitAttributionReport:
    """Every wait interval of a run, with causes and coverage."""

    attributions: list[WaitAttribution]

    @property
    def total_seconds(self) -> float:
        return sum(a.seconds for a in self.attributions)

    @property
    def attributed_seconds(self) -> float:
        return sum(
            a.seconds for a in self.attributions if a.cause != "unattributed"
        )

    @property
    def coverage(self) -> float:
        """Attributed share of total idle time (1.0 when there is none)."""
        total = self.total_seconds
        return self.attributed_seconds / total if total > 0 else 1.0

    def by_cause(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for a in self.attributions:
            out[a.cause] = out.get(a.cause, 0.0) + a.seconds
        return dict(sorted(out.items(), key=lambda kv: (-kv[1], kv[0])))

    def by_culprit(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for a in self.attributions:
            if a.culprit:
                out[a.culprit] = out.get(a.culprit, 0.0) + a.seconds
        return dict(sorted(out.items(), key=lambda kv: (-kv[1], kv[0])))

    def describe(self) -> str:
        head = (
            f"wait attribution: {self.total_seconds:g}s idle, "
            f"{self.coverage:.1%} attributed to named causes"
        )
        table = Table(["cause", "seconds", "share"], title="Idle time by cause")
        total = self.total_seconds or 1.0
        for cause, seconds in self.by_cause().items():
            table.add_row([cause, f"{seconds:g}", f"{seconds / total:.1%}"])
        culprits = " ".join(
            f"{who}={sec:g}s" for who, sec in self.by_culprit().items()
        )
        return f"{head}\n{table.render()}\nblamed senders: {culprits or '(none)'}"

    def as_dict(self) -> dict:
        return {
            "total_seconds": self.total_seconds,
            "attributed_seconds": self.attributed_seconds,
            "coverage": self.coverage,
            "by_cause": self.by_cause(),
            "by_culprit": self.by_culprit(),
            "waits": [a.as_dict() for a in self.attributions],
        }


def _runs_in(store, lanes) -> list[str]:
    """Ids of the runs *lanes* mix, in :meth:`TraceStore.runs` order.

    A run's own :class:`~repro.machine.trace.Trace` has them in its
    index; lanes a store glued together from several sources are not in
    time order (the index would refuse them) and are walked here.
    """
    if isinstance(lanes, Trace):
        return trace_index(lanes).runs
    runs = {e.run for lane in lanes for e in lane}
    if len(runs) <= 1:
        return list(runs)
    return [r for r in store.runs() if r in runs]


def _lanes_per_run(store, run: str | None) -> list[list[list]]:
    """The rank lanes to analyse, one set of lanes per run.

    The analyses read lanes in simulated-time order, and every run
    starts its own clock at zero: several runs glued into the same
    lanes would be out of order and would have one run's waits judged
    against another's senders.  So with no *run* asked for, each run the
    store holds is analysed on its own.
    """
    if run is not None:
        return [store.rank_lanes(run=run)]
    lanes = store.rank_lanes()
    runs = _runs_in(store, lanes)
    if len(runs) <= 1:
        return [lanes]
    return [store.rank_lanes(run=r) for r in runs]


def attribute_waits(store, run: str | None = None) -> WaitAttributionReport:
    """Name the cause of every blocked-wait interval in *store*.

    For a wait on rank ``r`` for channel ``(s -> r, tag)`` the blame
    order is: an own-lane ``timeout`` marker ending the wait (deadline
    kill); a ``crash`` of the sender before the wait resolved; an
    injected channel fault (drop > delay > duplicate) since the
    channel's previous wait; otherwise the sender itself — ``straggler``
    when it was computing (or fault-slowed) during the idle interval,
    ``sender-blocked`` when it was stuck communicating or waiting on its
    own peers.  Faults are consumed per channel so one injected fault
    never explains two different idle intervals.

    A store holding several runs is attributed run by run (waits in
    :meth:`TraceStore.runs` order) unless *run* picks one.
    """
    attributions: list[WaitAttribution] = []
    for lanes in _lanes_per_run(store, run):
        attributions.extend(_attribute_run(lanes))
    return WaitAttributionReport(attributions=attributions)


def _attribute_run(lanes) -> list[WaitAttribution]:
    # The index's pass already noted the fault markers and the waits.
    index = trace_index(lanes)
    ends = index.ends
    lanes = [list(lane) for lane in lanes]
    channel_faults: dict[tuple[int, int, int], list] = {}
    crash_at: dict[int, float] = {}
    for e in index.faults:
        if e.detail in _DATA_FAULTS and e.peer is not None:
            channel_faults.setdefault((e.rank, e.peer, e.tag), []).append(e)
        elif e.detail == "crash":
            crash_at[e.rank] = min(crash_at.get(e.rank, float("inf")), e.start)
    for faults in channel_faults.values():
        faults.sort(key=lambda e: e.start)
    consumed: dict[tuple[int, int, int], int] = {}

    attributions: list[WaitAttribution] = []
    for r, i in index.waits:
        lane = lanes[r]
        w = lane[i]
        if w.end - w.start <= 0:
            continue
        nxt = lane[i + 1] if i + 1 < len(lane) else None
        cause, culprit = _classify_wait(
            w, nxt, lanes, ends, channel_faults, consumed, crash_at
        )
        attributions.append(
            WaitAttribution(
                rank=w.rank, peer=w.peer, tag=w.tag,
                start=w.start, end=w.end, cause=cause, culprit=culprit,
            )
        )
    return attributions


def _classify_wait(w, nxt, lanes, ends, channel_faults, consumed, crash_at):
    culprit = f"P{w.peer}" if w.peer is not None else ""
    # 1. Deadline kill: the engine records the timeout marker right
    #    after the wait it ended, on the waiter's own lane.
    if (
        nxt is not None
        and nxt.kind == "fault"
        and nxt.detail == "timeout"
        and abs(nxt.start - w.end) <= _EPS
    ):
        return "timeout", culprit
    if w.peer is None:
        return "unattributed", ""
    # 2. Dead sender.
    if crash_at.get(w.peer, float("inf")) <= w.end + _EPS:
        return "crash", culprit
    # 3. Injected channel faults not yet blamed for an earlier wait.
    channel = (w.peer, w.rank, w.tag)
    faults = channel_faults.get(channel, ())
    start = consumed.get(channel, 0)
    hit: dict[str, int] = {}
    idx = start
    for idx in range(start, len(faults)):
        f = faults[idx]
        if f.start > w.end + _EPS:
            idx -= 1
            break
        hit.setdefault(f.detail, 0)
        hit[f.detail] += 1
    if hit:
        consumed[channel] = idx + 1
        for detail in _DATA_FAULTS:
            if detail in hit:
                return f"fault:{detail}", culprit
    # 4. The sender itself: what was it doing while we idled?  Its lane
    #    is in time order, so the events overlapping the idle interval
    #    are one run of it, from the first that ends after the wait began
    #    (found in the index's end times) to the first that starts after
    #    it was over.
    blocked = False
    sender = lanes[w.peer]
    until = w.end - _EPS
    for j in range(bisect_right(ends[w.peer], w.start + _EPS), len(sender)):
        e = sender[j]
        if e.start >= until:
            break
        if e.kind in ("compute", "delay"):
            return "straggler", culprit
        if e.kind in ("send", "isend", "recv", "wait"):
            blocked = True
    if blocked:
        return "sender-blocked", culprit
    return "unattributed", ""


# -- load imbalance ------------------------------------------------------


@dataclass(frozen=True)
class ImbalanceEntry:
    """Compute dispersion across ranks for one scope (or the whole run)."""

    scope: str                      # "" = all compute
    per_rank: dict[int, float]
    offender: int                   # rank with the most compute time

    @property
    def mean(self) -> float:
        vals = list(self.per_rank.values())
        return sum(vals) / len(vals) if vals else 0.0

    @property
    def peak(self) -> float:
        return max(self.per_rank.values(), default=0.0)

    @property
    def dispersion(self) -> float:
        """Peak over mean (1.0 = perfectly balanced)."""
        mean = self.mean
        return self.peak / mean if mean > 0 else 1.0

    def as_dict(self) -> dict:
        return {
            "scope": self.scope,
            "per_rank": {str(r): v for r, v in sorted(self.per_rank.items())},
            "mean": self.mean,
            "peak": self.peak,
            "dispersion": self.dispersion,
            "offender": self.offender,
        }


@dataclass
class ImbalanceReport:
    entries: list[ImbalanceEntry]

    @property
    def worst(self) -> ImbalanceEntry | None:
        return max(self.entries, key=lambda e: e.dispersion, default=None)

    def describe(self) -> str:
        table = Table(
            ["scope", "mean", "peak", "dispersion", "offender"],
            title="Compute load balance (simulated seconds)",
        )
        for e in self.entries:
            table.add_row([
                e.scope or "(all)", f"{e.mean:g}", f"{e.peak:g}",
                f"{e.dispersion:.3f}", f"P{e.offender}",
            ])
        return table.render()

    def as_dict(self) -> dict:
        return {"entries": [e.as_dict() for e in self.entries]}


def load_imbalance(store, run: str | None = None) -> ImbalanceReport:
    """Per-scope compute dispersion, with the slowest rank named.

    The first entry aggregates all compute/delay time; one entry follows
    per collective scope that recorded compute (sorted by scope name).
    ``delay`` counts as compute — a fault-slowed rank shows up as the
    offender, which is exactly the point.  A store holding several runs
    reports that block once per run that computed anything, in
    :meth:`TraceStore.runs` order, unless *run* picks one.
    """
    nprocs = store.nprocs
    by_run: dict[str, dict[str, dict[int, float]]] = {}
    by_scope = None
    for e in store.query(lane="rank", kind=("compute", "delay"), run=run):
        if by_scope is None or e.run != run_id:
            run_id = e.run
            by_scope = by_run.setdefault(run_id, {"": {r: 0.0 for r in range(nprocs)}})
            overall = by_scope[""]
        seconds = e.end - e.start
        overall[e.rank] += seconds
        if e.scope:
            per = by_scope.setdefault(e.scope, {r: 0.0 for r in range(nprocs)})
            per[e.rank] += seconds

    def entry(scope: str, per: dict[int, float]) -> ImbalanceEntry:
        offender = max(per, key=lambda r: (per[r], -r), default=0)
        return ImbalanceEntry(scope=scope, per_rank=per, offender=offender)

    if not by_run:
        by_run[""] = {"": {r: 0.0 for r in range(nprocs)}}
    runs = by_run if len(by_run) == 1 else [r for r in store.runs() if r in by_run]
    entries = [
        entry(scope, by_run[r][scope]) for r in runs for scope in sorted(by_run[r])
    ]
    return ImbalanceReport(entries=entries)


# -- critical-path diff --------------------------------------------------


def _path_edges(report) -> Counter:
    """Message edges on a critical path, as a labelled multiset."""
    edges: Counter = Counter()
    steps = report.steps
    for prev, step in zip(steps, steps[1:]):
        if (
            step.event.kind == "recv"
            and prev.event.kind in ("send", "isend")
            and prev.event.rank != step.event.rank
        ):
            e = step.event
            label = f"P{e.peer}->P{e.rank} tag={e.tag}"
            if e.scope:
                label += f" [{e.scope}]"
            edges[label] += 1
    return edges


@dataclass
class PathDiff:
    """Which time and which message edges moved between two runs."""

    label_a: str
    label_b: str
    makespan_a: float
    makespan_b: float
    by_kind_a: dict[str, float]
    by_kind_b: dict[str, float]
    edges_a: dict[str, int]
    edges_b: dict[str, int]

    def kind_delta(self) -> dict[str, float]:
        """Per-kind path time change (b - a), every kind either side saw."""
        keys = sorted(set(self.by_kind_a) | set(self.by_kind_b))
        return {
            k: self.by_kind_b.get(k, 0.0) - self.by_kind_a.get(k, 0.0)
            for k in keys
        }

    def edges_gained(self) -> dict[str, int]:
        """Edges on b's path but not (as often) on a's."""
        delta = Counter(self.edges_b)
        delta.subtract(self.edges_a)
        return {k: v for k, v in sorted(delta.items()) if v > 0}

    def edges_lost(self) -> dict[str, int]:
        delta = Counter(self.edges_a)
        delta.subtract(self.edges_b)
        return {k: v for k, v in sorted(delta.items()) if v > 0}

    def describe(self) -> str:
        head = (
            f"critical-path diff {self.label_a} -> {self.label_b}: makespan "
            f"{self.makespan_a:g} -> {self.makespan_b:g} "
            f"({self.makespan_b - self.makespan_a:+g})"
        )
        table = Table(
            ["kind", self.label_a, self.label_b, "delta"],
            title="Path time by kind",
        )
        for k, d in self.kind_delta().items():
            table.add_row([
                k, f"{self.by_kind_a.get(k, 0.0):g}",
                f"{self.by_kind_b.get(k, 0.0):g}", f"{d:+g}",
            ])
        lost = ", ".join(f"{k} x{v}" for k, v in self.edges_lost().items())
        gained = ", ".join(f"{k} x{v}" for k, v in self.edges_gained().items())
        return (
            f"{head}\n{table.render()}\n"
            f"edges lost: {lost or '(none)'}\n"
            f"edges gained: {gained or '(none)'}"
        )

    def as_dict(self) -> dict:
        return {
            "label_a": self.label_a, "label_b": self.label_b,
            "makespan_a": self.makespan_a, "makespan_b": self.makespan_b,
            "by_kind_a": dict(sorted(self.by_kind_a.items())),
            "by_kind_b": dict(sorted(self.by_kind_b.items())),
            "kind_delta": self.kind_delta(),
            "edges_a": dict(sorted(self.edges_a.items())),
            "edges_b": dict(sorted(self.edges_b.items())),
            "edges_gained": self.edges_gained(),
            "edges_lost": self.edges_lost(),
        }


def _one_run_lanes(trace):
    """*trace* as lanes: itself, or a single-run store's rank lanes."""
    if not hasattr(trace, "rank_lanes"):
        return trace
    lanes = trace.rank_lanes()
    runs = _runs_in(trace, lanes)
    if len(runs) > 1:
        raise TraceError(
            f"critical_path_diff needs one run per store, this one holds "
            f"{len(runs)}: {', '.join(map(repr, runs))}; pass "
            f"store.rank_lanes(run=...)"
        )
    return lanes


def critical_path_diff(
    trace_a, trace_b, label_a: str = "a", label_b: str = "b"
) -> PathDiff:
    """Diff the critical paths of two traced runs (lane lists or stores).

    A store must hold one run: a critical path belongs to a run, and
    lanes of several runs glued together have none.
    """
    pa = critical_path(_one_run_lanes(trace_a))
    pb = critical_path(_one_run_lanes(trace_b))
    return PathDiff(
        label_a=label_a, label_b=label_b,
        makespan_a=pa.makespan, makespan_b=pb.makespan,
        by_kind_a=pa.time_by_kind(), by_kind_b=pb.time_by_kind(),
        edges_a=dict(_path_edges(pa)), edges_b=dict(_path_edges(pb)),
    )


# -- cost-model term decomposition and drift root-causing ----------------

#: The decomposition's term names, in reporting order.
TERMS = ("compute", "alpha", "transfer", "wait")


def drift_terms(metrics, model) -> dict[str, float]:
    """Split a run's rank-seconds into the cost model's terms.

    ``alpha`` is the per-message startup charge — ``model.alpha`` per
    occupancy-paying event (``send``/``isend`` injections and ``recv``
    drains, matching :meth:`MachineModel.send_occupancy` and friends);
    ``transfer`` is the remaining communication occupancy (the per-word
    ``tc`` charges); ``compute`` includes fault-injected ``delay`` time;
    ``wait`` is blocked idling.  Summed over ranks, not wall time.
    """
    paying = sum(
        metrics.by_kind[k].events
        for k in ("send", "isend", "recv")
        if k in metrics.by_kind
    )
    alpha_term = model.alpha * paying
    comm = metrics.comm_seconds
    return {
        "compute": metrics.compute_seconds
        + sum(r.delay_seconds for r in metrics.ranks),
        "alpha": min(alpha_term, comm),
        "transfer": max(comm - alpha_term, 0.0),
        "wait": metrics.wait_seconds,
    }


@dataclass
class DriftDiagnosis:
    """A band check with a named culprit term."""

    band: SlackBand
    measured: float
    analytic: float
    terms_measured: dict[str, float]
    terms_analytic: dict[str, float] | None = None
    label: str = ""

    @property
    def ratio(self) -> float:
        return self.measured / self.analytic if self.analytic else float("inf")

    @property
    def ok(self) -> bool:
        return self.band.check(self.ratio)

    def gaps(self) -> dict[str, float]:
        """Per-term slack: measured minus analytic (or measured shares
        when no analytic decomposition is available)."""
        if self.terms_analytic is None:
            return dict(self.terms_measured)
        keys = sorted(set(self.terms_measured) | set(self.terms_analytic))
        return {
            k: self.terms_measured.get(k, 0.0) - self.terms_analytic.get(k, 0.0)
            for k in keys
        }

    @property
    def dominant_term(self) -> str:
        """The term carrying the largest absolute gap (the culprit)."""
        gaps = self.gaps()
        return max(gaps, key=lambda k: (abs(gaps[k]), k)) if gaps else ""

    def describe(self) -> str:
        gaps = self.gaps()
        gap_total = sum(gaps.values())
        parts = ", ".join(f"{k}={v:+g}" for k, v in sorted(gaps.items()))
        verdict = "within" if self.ok else "OUTSIDE"
        what = f" ({self.label})" if self.label else ""
        return (
            f"band {self.band.describe()}{what}: measured {self.measured:g} "
            f"vs analytic {self.analytic:g} — ratio {self.ratio:.3f} "
            f"{verdict} band; dominant term: {self.dominant_term} "
            f"(term gaps: {parts}; total {gap_total:+g})"
        )

    def as_dict(self) -> dict:
        return {
            "band": self.band.name,
            "bounds": [self.band.lower, self.band.upper],
            "label": self.label,
            "measured": self.measured,
            "analytic": self.analytic,
            "ratio": self.ratio,
            "ok": self.ok,
            "terms_measured": dict(sorted(self.terms_measured.items())),
            "terms_analytic": (
                dict(sorted(self.terms_analytic.items()))
                if self.terms_analytic is not None
                else None
            ),
            "gaps": self.gaps(),
            "dominant_term": self.dominant_term,
        }


def explain_drift(
    band: str | SlackBand,
    measured: float,
    analytic: float,
    terms_measured: dict[str, float],
    terms_analytic: dict[str, float] | None = None,
    label: str = "",
) -> DriftDiagnosis:
    """Check a measured/analytic ratio against a registered band and
    name the dominant drifting cost-model term."""
    if isinstance(band, str):
        band = get_band(band)
    return DriftDiagnosis(
        band=band, measured=measured, analytic=analytic,
        terms_measured=terms_measured, terms_analytic=terms_analytic,
        label=label,
    )


# -- run-level diff ------------------------------------------------------


@dataclass
class RunDiff:
    """Everything that moved between two traced runs."""

    label_a: str
    label_b: str
    makespan_a: float
    makespan_b: float
    terms_a: dict[str, float]
    terms_b: dict[str, float]
    path: PathDiff
    drift: DriftDiagnosis | None = field(default=None)

    def term_delta(self) -> dict[str, float]:
        keys = sorted(set(self.terms_a) | set(self.terms_b))
        return {
            k: self.terms_b.get(k, 0.0) - self.terms_a.get(k, 0.0)
            for k in keys
        }

    def describe(self) -> str:
        table = Table(
            ["term", self.label_a, self.label_b, "delta"],
            title="Cost-model terms (rank-seconds)",
        )
        for k, d in self.term_delta().items():
            table.add_row([
                k, f"{self.terms_a.get(k, 0.0):g}",
                f"{self.terms_b.get(k, 0.0):g}", f"{d:+g}",
            ])
        parts = [
            f"run diff {self.label_a} -> {self.label_b}: makespan "
            f"{self.makespan_a:g} -> {self.makespan_b:g} "
            f"({self.makespan_b - self.makespan_a:+g})",
            table.render(),
            self.path.describe(),
        ]
        if self.drift is not None:
            parts.append(self.drift.describe())
        return "\n\n".join(parts)

    def as_dict(self) -> dict:
        return {
            "label_a": self.label_a, "label_b": self.label_b,
            "makespan_a": self.makespan_a, "makespan_b": self.makespan_b,
            "terms_a": dict(sorted(self.terms_a.items())),
            "terms_b": dict(sorted(self.terms_b.items())),
            "term_delta": self.term_delta(),
            "path": self.path.as_dict(),
            "drift": self.drift.as_dict() if self.drift is not None else None,
        }


def diff_runs(
    res_a,
    res_b,
    model_a,
    model_b=None,
    label_a: str = "a",
    label_b: str = "b",
    drift: DriftDiagnosis | None = None,
) -> RunDiff:
    """Diff two traced :class:`RunResult`\\ s end to end."""
    if res_a.trace is None or res_b.trace is None:
        raise TraceError("diff_runs needs traced runs (trace=True)")
    return RunDiff(
        label_a=label_a, label_b=label_b,
        makespan_a=res_a.makespan, makespan_b=res_b.makespan,
        terms_a=drift_terms(res_a.metrics, model_a),
        terms_b=drift_terms(res_b.metrics, model_b or model_a),
        path=critical_path_diff(res_a.trace, res_b.trace, label_a, label_b),
        drift=drift,
    )
