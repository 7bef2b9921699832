"""Automated diagnostics: wait attribution, imbalance, diffs, drift.

The two acceptance anchors live here: (1) on the chaos Jacobi drill the
attribution pass explains >= 90% of total idle time by named cause
(the ``wait-attribution`` band); (2) the blocking-vs-overlapped heat
diff shows the per-word transfer occupancy eliminated while the alpha
term is conserved, and the measured overlapped makespan reconciles with
the X10 ``overlap=True`` prediction inside the ``overlap-makespan``
band.
"""

from __future__ import annotations

from dataclasses import replace
from itertools import takewhile

import pytest

from repro.costmodel.bands import get_band
from repro.errors import ReproError, TraceError
from repro.machine import MachineModel, Ring, critical_path, match_messages, run_spmd
from repro.machine.faults import FaultPlan
from repro.machine.trace import TraceEvent, nesting_depths
from repro.obs import (
    TraceContext,
    TraceStore,
    attribute_waits,
    critical_path_diff,
    diff_runs,
    drift_terms,
    explain_drift,
    load_imbalance,
    mint_context,
    tracing_context,
)
from repro.tools.runs import RUNS

@pytest.fixture(scope="module")
def chaos_run():
    """The chaos Jacobi drill, as ``report --diagnose jacobi`` runs it."""
    return RUNS["jacobi-chaos"]()


@pytest.fixture(scope="module")
def heat_pair():
    """The X10 heat pair of ``report --diff`` plus its overlap=True prediction."""
    model = RUNS["heat-blocking"].model
    predicted = RUNS["heat-blocking"](model=replace(model, overlap=True))
    return RUNS["heat-blocking"](), RUNS["heat-overlap"](), predicted, model


class TestWaitAttribution:
    def test_chaos_jacobi_meets_the_coverage_band(self, chaos_run):
        report = attribute_waits(TraceStore.from_run(chaos_run))
        band = get_band("wait-attribution")
        assert report.total_seconds > 0
        assert band.check(report.coverage), (
            f"coverage {report.coverage:.3f} below {band.describe()}"
        )

    def test_injected_faults_show_up_as_named_causes(self, chaos_run):
        report = attribute_waits(TraceStore.from_run(chaos_run))
        causes = report.by_cause()
        # the drill injects drops, delays and duplicates; the recovery
        # protocol turns some losses into timeouts
        assert causes.get("fault:drop", 0) > 0
        assert causes.get("timeout", 0) > 0
        assert "unattributed" not in causes or (
            causes["unattributed"] / report.total_seconds <= 0.1
        )

    def test_clean_run_has_no_fault_blame(self):
        res = RUNS["jacobi-clean"]()
        report = attribute_waits(TraceStore.from_run(res))
        assert not any(c.startswith("fault:") for c in report.by_cause())
        assert report.coverage >= 0.9

    def test_straggler_blamed_by_name(self):
        def kernel(p):
            p.compute(500 if p.rank == 0 else 10)
            p.send((p.rank + 1) % 2, [1.0])
            yield from p.recv((p.rank - 1) % 2)

        report = attribute_waits(
            TraceStore.from_run(
                run_spmd(kernel, Ring(2), MachineModel(tf=1, tc=1), trace=True)
            )
        )
        assert report.by_cause().get("straggler", 0) > 0
        assert report.by_culprit().get("P0", 0) > 0  # rank 0 named
        assert report.coverage == pytest.approx(1.0)

    def test_empty_store_is_fully_covered(self):
        report = attribute_waits(TraceStore(nprocs=2))
        assert report.total_seconds == 0
        assert report.coverage == 1.0

    def test_as_dict_is_json_shaped(self, chaos_run):
        import json

        report = attribute_waits(TraceStore.from_run(chaos_run))
        doc = json.loads(json.dumps(report.as_dict()))
        assert doc["coverage"] == pytest.approx(report.coverage)


class TestLoadImbalance:
    def test_uneven_compute_names_the_offender(self):
        def kernel(p):
            p.compute(100 * (p.rank + 1))
            p.send((p.rank + 1) % p.nprocs, [1.0])
            yield from p.recv((p.rank - 1) % p.nprocs)

        res = run_spmd(kernel, Ring(4), MachineModel(tf=1, tc=1), trace=True)
        report = load_imbalance(TraceStore.from_run(res))
        overall = report.entries[0]
        assert overall.scope == ""
        assert overall.offender == 3
        assert overall.dispersion == pytest.approx(400 / 250)

    def test_balanced_run_has_unit_dispersion(self):
        def kernel(p):
            p.compute(100)
            p.send((p.rank + 1) % p.nprocs, [1.0])
            yield from p.recv((p.rank - 1) % p.nprocs)

        res = run_spmd(kernel, Ring(4), MachineModel(tf=1, tc=1), trace=True)
        report = load_imbalance(TraceStore.from_run(res))
        assert report.entries[0].dispersion == pytest.approx(1.0)


class TestCriticalPathDiff:
    def test_heat_pair_shifts_path_time_from_send_to_isend(self, heat_pair):
        blocking, overlapped, _, _ = heat_pair
        diff = critical_path_diff(
            blocking.trace, overlapped.trace,
            label_a="blocking", label_b="overlap",
        )
        delta = diff.kind_delta()
        assert diff.makespan_b < diff.makespan_a
        assert delta.get("send", 0) < 0  # blocking sends left the path
        assert "blocking" in diff.describe() and "overlap" in diff.describe()

    def test_accepts_stores_and_lanes(self, heat_pair):
        blocking, overlapped, _, _ = heat_pair
        via_lanes = critical_path_diff(blocking.trace, overlapped.trace)
        via_stores = critical_path_diff(
            TraceStore.from_run(blocking), TraceStore.from_run(overlapped)
        )
        assert via_lanes.as_dict() == via_stores.as_dict()


class TestDeliveredOnlyPairing:
    """``match_messages`` on faulty traces: a dropped send, or a retry
    the receiver already had, is recorded but never received, so it must
    not take a slot in its channel's FIFO pairing."""

    def test_chaos_drill_pairs_only_delivered_sends(self, chaos_run):
        lanes = TraceStore.from_run(chaos_run).rank_lanes()
        pairs = match_messages(lanes)
        assert len(pairs) == chaos_run.message_count
        sends = sum(e.kind == "send" for lane in lanes for e in lane)
        assert sends > len(pairs)  # the drill did lose messages
        position = {id(e): i for lane in lanes for i, e in enumerate(lane)}
        for snd, rcv in pairs:
            assert rcv.start >= snd.end
            # no cancelling marker right behind a paired send: neither a
            # drop, nor a dup-suppressed of the original (one that no
            # duplicate precedes)
            behind = takewhile(
                lambda e: e.kind == "fault",
                lanes[snd.rank][position[id(snd)] + 1:],
            )
            markers = [
                e.detail for e in behind if (e.peer, e.tag) == (snd.peer, snd.tag)
            ]
            assert "drop" not in markers, snd
            if "dup-suppressed" in markers:
                assert "duplicate" in markers[:markers.index("dup-suppressed")], snd
        path = critical_path(lanes)
        assert path.length == pytest.approx(chaos_run.makespan)

    def test_unreliable_duplicate_pairs_both_copies(self):
        def kernel(p):
            if p.rank == 0:
                p.send(1, [1.0, 2.0], tag=1)
                p.compute(5)
                p.send(1, [3.0], tag=1)
                return None
            got = []
            for _ in range(4):
                got.append((yield from p.recv(0, tag=1)))
            return got

        res = run_spmd(
            kernel, Ring(2), MachineModel(tf=1, tc=1), trace=True,
            faults=FaultPlan(seed=1, duplicate_prob=1.0, include_plain=True),
        )
        assert res.values[1] == [[1.0, 2.0], [1.0, 2.0], [3.0], [3.0]]
        pairs = match_messages(res.trace)
        assert len(pairs) == res.message_count == 4
        assert [(s.words, r.words) for s, r in pairs] == [(2, 2), (2, 2), (1, 1), (1, 1)]


class TestDriftTerms:
    def test_terms_cover_busy_and_wait(self, heat_pair):
        blocking, _, _, model = heat_pair
        terms = drift_terms(blocking.metrics, model)
        assert set(terms) == {"compute", "alpha", "transfer", "wait"}
        assert terms["wait"] == pytest.approx(blocking.metrics.wait_seconds)
        assert terms["alpha"] + terms["transfer"] >= 0
        assert all(v >= 0 for v in terms.values())

    def test_overlap_eliminates_the_transfer_term(self, heat_pair):
        blocking, overlapped, _, model = heat_pair
        t_blk = drift_terms(blocking.metrics, model)
        t_ovl = drift_terms(overlapped.metrics, model)
        # same message count either way: the alpha term is conserved,
        # the per-word occupancy is what latency hiding removes
        assert t_ovl["alpha"] == pytest.approx(t_blk["alpha"])
        assert t_blk["transfer"] > 0
        assert t_ovl["transfer"] == pytest.approx(0.0)
        assert t_ovl["compute"] == pytest.approx(t_blk["compute"])

    def test_heat_overlap_reconciles_with_the_x10_prediction(self, heat_pair):
        _, overlapped, predicted, model = heat_pair
        drift = explain_drift(
            "overlap-makespan",
            measured=overlapped.makespan,
            analytic=predicted.makespan,
            terms_measured=drift_terms(overlapped.metrics, model),
            terms_analytic=drift_terms(
                predicted.metrics, replace(model, overlap=True)
            ),
        )
        assert drift.ok, drift.describe()
        assert get_band("overlap-makespan").check(drift.ratio)
        assert drift.dominant_term in ("wait", "transfer")


class TestDiffRuns:
    def test_heat_pair_diff(self, heat_pair):
        blocking, overlapped, _, model = heat_pair
        diff = diff_runs(
            blocking, overlapped, model, label_a="blk", label_b="ovl"
        )
        delta = diff.term_delta()
        assert delta["transfer"] == pytest.approx(
            -drift_terms(blocking.metrics, model)["transfer"]
        )
        assert delta["alpha"] == pytest.approx(0.0)
        assert diff.makespan_b < diff.makespan_a
        doc = diff.as_dict()
        assert doc["label_a"] == "blk" and "terms_a" in doc

    def test_requires_traces(self):
        def kernel(p):
            p.compute(10)
            p.send((p.rank + 1) % 2, [1.0])
            yield from p.recv((p.rank - 1) % 2)

        model = MachineModel(tf=1, tc=1)
        res = run_spmd(kernel, Ring(2), model)  # no trace
        with pytest.raises(ValueError, match="trace") as info:
            diff_runs(res, res, model)
        assert isinstance(info.value, ReproError)  # typed, not bare


class TestMetricsRoundTrip:
    def test_all_optional_groups_survive(self, chaos_run):
        from repro.machine.metrics import Metrics

        m = chaos_run.metrics
        ctx = mint_context(request_digest="abcdef012345")
        with tracing_context(ctx):
            from repro.obs import stamp_current

            stamp_current(m)
        m.service["cache_hits"] = 3
        m.service["worker_crashes"] = 1
        m.sparse["gather_words"] = 128
        doc = m.as_dict()
        for group in ("faults", "service", "sparse", "obs"):
            assert group in doc, group
        again = Metrics.from_dict(doc)
        assert again.as_dict() == doc
        assert again.obs["run_id"] == ctx.run_id
        assert again.service == m.service
        assert again.sparse == m.sparse

    def test_empty_groups_stay_out_of_the_dict(self):
        def kernel(p):
            p.compute(10)
            p.send((p.rank + 1) % 2, [1.0])
            yield from p.recv((p.rank - 1) % 2)

        res = run_spmd(kernel, Ring(2), MachineModel(tf=1, tc=1))
        doc = res.metrics.as_dict()
        for group in ("service", "sparse", "obs"):
            assert group not in doc


class TestSyntheticAttribution:
    """Hand-built stores exercise each classifier branch precisely."""

    @staticmethod
    def _store(events):
        s = TraceStore(nprocs=2)
        for e in events:
            s.add(e)
        return s

    def test_channel_fault_consumed_once(self):
        # two waits on the same channel, one injected drop: only the
        # first wait may blame it, the second falls through
        s = self._store([
            TraceEvent(lane="rank", rank=0, kind="fault", start=0.0, end=0.0,
                       peer=1, tag=0, detail="drop"),
            TraceEvent(lane="rank", rank=1, kind="wait", start=0.0, end=5.0,
                       peer=0, tag=0),
            TraceEvent(lane="rank", rank=1, kind="recv", start=5.0, end=6.0,
                       peer=0, tag=0),
            TraceEvent(lane="rank", rank=1, kind="wait", start=6.0, end=9.0,
                       peer=0, tag=0),
            TraceEvent(lane="rank", rank=1, kind="recv", start=9.0, end=10.0,
                       peer=0, tag=0),
        ])
        report = attribute_waits(s)
        blamed = [a.cause for a in report.attributions]
        assert blamed.count("fault:drop") == 1

    def test_timeout_wins_over_fault(self):
        s = self._store([
            TraceEvent(lane="rank", rank=0, kind="fault", start=0.0, end=0.0,
                       peer=1, tag=0, detail="drop"),
            TraceEvent(lane="rank", rank=1, kind="wait", start=0.0, end=5.0,
                       peer=0, tag=0),
            TraceEvent(lane="rank", rank=1, kind="fault", start=5.0, end=5.0,
                       peer=0, tag=0, detail="timeout"),
        ])
        (a,) = attribute_waits(s).attributions
        assert a.cause == "timeout"


# -- one store, several runs (ISSUE 15) --------------------------------------


def _run_a(p):
    """Rank 0 computes, then feeds rank 1."""
    if p.rank == 0:
        p.compute(1000)
        p.send(1, [1.0])
    elif p.rank == 1:
        yield from p.recv(0)


def _run_b(p):
    """Rank 0 is itself stuck on rank 2 before it can feed rank 1."""
    if p.rank == 2:
        p.delay(1000)
        p.send(0, [1.0])
    elif p.rank == 0:
        yield from p.recv(2)
        p.send(1, [1.0])
    else:
        yield from p.recv(0)


class TestSeveralRunsInOneStore:
    """Every run starts its clock at zero, so lanes of two runs glued
    together judged B's waits against A's senders."""

    @pytest.fixture(scope="class")
    def runs(self):
        out = []
        for run_id, prog in (("run-a", _run_a), ("run-b", _run_b)):
            with tracing_context(TraceContext(run_id=run_id)):
                out.append(run_spmd(prog, Ring(3), MachineModel(tf=1, tc=1), trace=True))
        return out

    @staticmethod
    def _both(runs):
        store = TraceStore()
        for res in runs:
            store.add_trace(res.trace)
        assert store.runs() == ["run-a", "run-b"]
        return store

    @staticmethod
    def _cause(report, rank, peer):
        (a,) = [a for a in report.attributions if (a.rank, a.peer) == (rank, peer)
                and a.start == 0.0 and a.end >= 1000.0]
        return a.cause

    def test_a_wait_is_judged_against_its_own_runs_sender(self, runs):
        alone = attribute_waits(TraceStore.from_run(runs[1]))
        assert self._cause(alone, 1, 0) == "sender-blocked"
        assert self._cause(alone, 0, 2) == "straggler"
        mixed = attribute_waits(self._both(runs))  # used to say "straggler"
        b_waits = [a for a in mixed.attributions if a in alone.attributions]
        assert b_waits == alone.attributions

    def test_each_run_is_reported_in_runs_order(self, runs):
        store = self._both(runs)
        apart = [attribute_waits(TraceStore.from_run(r)).attributions for r in runs]
        assert attribute_waits(store).attributions == apart[0] + apart[1]
        assert attribute_waits(store, run="run-b").attributions == apart[1]
        entries = [load_imbalance(TraceStore.from_run(r)).entries for r in runs]
        assert load_imbalance(store).entries == entries[0] + entries[1]
        assert load_imbalance(store, run="run-a").entries == entries[0]
        # rank 0 paces run A, rank 2 run B: one offender each, not a blend
        assert [e.offender for e in load_imbalance(store).entries] == [0, 2]

    def test_critical_path_diff_refuses_a_store_of_several_runs(self, runs):
        with pytest.raises(TraceError, match="'run-a', 'run-b'"):
            critical_path_diff(self._both(runs), TraceStore.from_run(runs[0]))
        diff = critical_path_diff(
            self._both(runs).rank_lanes(run="run-a"), TraceStore.from_run(runs[1])
        )
        assert (diff.makespan_a, diff.makespan_b) == (runs[0].makespan, runs[1].makespan)


# -- scaling guard (ISSUE 15) ------------------------------------------------


def _ping_pong_lanes(rounds: int):
    """Two ranks trading messages: rank 1 blocks on every one."""
    lanes = [[], []]
    t = 0.0
    for _ in range(rounds):
        lanes[0].append(TraceEvent(0, "compute", t, t + 4.0))
        lanes[0].append(TraceEvent(0, "send", t + 4.0, t + 5.0, peer=1, words=1))
        lanes[1].append(TraceEvent(1, "wait", t, t + 5.0, peer=0))
        lanes[1].append(TraceEvent(1, "recv", t + 5.0, t + 6.0, peer=0, words=1))
        lanes[1].append(TraceEvent(1, "send", t + 6.0, t + 7.0, peer=0, words=1))
        lanes[0].append(TraceEvent(0, "wait", t + 5.0, t + 7.0, peer=1))
        lanes[0].append(TraceEvent(0, "recv", t + 7.0, t + 8.0, peer=1, words=1))
        t += 8.0
    return lanes


def _nested_spans(n: int):
    """Recording (close) order: runs of siblings under ever wider parents."""
    spans, t = [], 0.0
    for k in range(n):
        spans.append(TraceEvent(-1, "span", t, t + 1.0, detail="leaf", lane="compiler"))
        t += 1.0
        if k % 8 == 7:
            spans.append(TraceEvent(-1, "span", t - 8.0, t, detail="parent", lane="compiler"))
    spans.append(TraceEvent(-1, "span", 0.0, t, detail="root", lane="compiler"))
    return spans


def _store_of(lanes):
    store = TraceStore()
    store.add_trace(lanes)
    return store


@pytest.mark.parametrize("build, analyse", [
    pytest.param(lambda n: _store_of(_ping_pong_lanes(n)), attribute_waits,
                 id="attribute_waits"),
    pytest.param(_ping_pong_lanes, critical_path, id="critical_path"),
    pytest.param(lambda n: _nested_spans(7 * n), nesting_depths, id="nesting_depths"),
])
def test_trace_analyses_scale_linearly(build, analyse):
    """4x the events may cost at most 8x the time (a quadratic pass reads 16x)."""
    import time

    def cost(n):
        data = build(n)
        best = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            analyse(data)
            best = min(best, time.perf_counter() - t0)
        return best

    small, large = cost(600), cost(2400)
    assert large <= 8 * small, f"{small * 1e3:.1f} ms -> {large * 1e3:.1f} ms"
