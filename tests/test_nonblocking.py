"""Nonblocking communication layer: requests, aggregation, fault paths.

Every behavioral test runs on both backends (discrete-event and
threaded) and asserts identical values and makespans — the layer's core
contract.  Threaded-backend cases that depend on *which* messages have
been delivered when a query runs (probe, test, waitany) synchronize
first with a trailing "ready" message, per the documented caveat: real
thread scheduling decides delivery order, simulated clocks do not.
"""

from __future__ import annotations

import numpy as np

from repro.errors import (
    CommunicationError,
    PeerCrashedError,
    RankCrashedError,
    RetryExhaustedError,
)
from repro.machine import MachineModel, NBComm, Ring, run_spmd, waitall, waitany
from repro.machine.resilient import ReliableTransport, RetryPolicy
from repro.machine.threaded import run_spmd_threaded
from repro.machine.faults import CrashFault, FaultPlan

RUNNERS = [run_spmd, run_spmd_threaded]


def both(program, nprocs, model=None, **kw):
    """Run on both backends; assert value and makespan parity; return one."""
    results = [r(program, Ring(nprocs), model, **kw) for r in RUNNERS]
    ev, th = results
    assert ev.makespan == th.makespan
    for a, b in zip(ev.values, th.values):
        if isinstance(a, np.ndarray):
            np.testing.assert_array_equal(a, b)
        else:
            assert a == b
    return ev


class TestRequests:
    def test_isend_irecv_overlap_matches_overlap_model(self):
        """Posted transfers realize the overlap=True timing split."""

        def prog(p):
            comm = NBComm(p)
            other = 1 - p.rank
            req = comm.irecv(other, tag=1)
            comm.isend(other, float(p.rank) + 0.5, words=5, tag=1)
            p.compute(100)
            return (yield from req.wait())

        model = MachineModel(tf=1.0, tc=1.0, alpha=10.0)
        res = both(prog, 2, model)
        assert res.values == [1.5, 0.5]
        # post (10) + compute (100) + drain (10); the wire (alpha + 5 tc
        # = 15, done by t=25) hid entirely under the compute.
        assert res.makespan == 120.0
        assert all(r.overlap_ratio == 1.0 for r in res.metrics.ranks)

    def test_test_before_and_after_arrival(self):
        """test() is False while the queued message is still in flight."""

        def prog(p):
            if p.rank == 0:
                comm = NBComm(p)
                comm.isend(1, np.arange(50.0), words=50, tag=2)
                p.send(1, "ready", words=1, tag=9)
                return None
            comm = NBComm(p)
            req = comm.irecv(0, tag=2)
            yield from p.recv(0, tag=9)  # data message is enqueued by now
            first = req.test()
            p.compute(200)
            second = req.test()
            val = yield from req.wait()
            return (first, second, float(val.sum()))

        model = MachineModel(tf=1.0, tc=1.0, alpha=5.0)
        res = both(prog, 2, model)
        first, second, total = res.value(1)
        assert first is False  # wire latency outruns the ready message
        assert second is True  # compute pushed the clock past arrival
        assert total == float(np.arange(50.0).sum())

    def test_wait_is_idempotent_and_value_cached(self):
        def prog(p):
            comm = NBComm(p)
            if p.rank == 0:
                req = comm.isend(1, 7.0, tag=1)
                yield from req.wait()
                yield from req.wait()
                assert req.test()
                return None
            req = comm.irecv(0, tag=1)
            a = yield from req.wait()
            b = yield from req.wait()
            return (a, b)

        res = both(prog, 2)
        assert res.value(1) == (7.0, 7.0)

    def test_waitall_returns_values_in_request_order(self):
        def prog(p):
            comm = NBComm(p)
            if p.rank == 0:
                reqs = [comm.isend(1, float(i), tag=i) for i in range(4)]
                yield from waitall(reqs)
                return None
            reqs = [comm.irecv(0, tag=i) for i in range(4)]
            return (yield from waitall(reqs))

        res = both(prog, 2)
        assert res.value(1) == [0.0, 1.0, 2.0, 3.0]

    def test_waitany_orders_by_arrival_and_drains(self):
        """waitany picks the earliest-available request, then the rest."""

        def prog(p):
            if p.rank == 1:  # late sender: computes first
                p.compute(500)
                p.send(0, "late", words=1, tag=5)
                p.send(0, "ready", words=1, tag=9)
                return None
            if p.rank == 2:  # early sender
                p.send(0, "early", words=1, tag=5)
                p.send(0, "ready", words=1, tag=9)
                return None
            comm = NBComm(p)
            reqs = [comm.irecv(1, tag=5), comm.irecv(2, tag=5)]
            # Synchronize: both data messages are enqueued once the
            # trailing ready messages (sent after them) are received.
            yield from p.recv(1, tag=9)
            yield from p.recv(2, tag=9)
            first = yield from waitany(reqs)
            second = yield from waitany(reqs)
            return (first, second)

        res = both(prog, 3)
        assert res.value(0) == ((1, "early"), (0, "late"))

    def test_waitany_ranks_an_inbox_part_by_its_bundle_arrival(self):
        """A bundle part left in the inbox by ``wait`` is a candidate too:
        it beats a later wire message at a smaller index."""

        def prog(p):
            if p.rank == 0:  # two one-word sends, shipped as one bundle
                comm = NBComm(p, aggregate_words=4)
                yield from waitall([comm.isend(1, float(i), words=1, tag=3) for i in (1, 2)])
                return None
            if p.rank == 2:  # late sender
                p.compute(500)
                p.send(1, "late", words=1, tag=5)
                p.send(1, "ready", words=1, tag=9)
                return None
            comm = NBComm(p)
            reqs = [comm.irecv(2, tag=5), comm.irecv(0, tag=3), comm.irecv(0, tag=3)]
            yield from reqs[1].wait()  # unbundles: the second part waits in the inbox
            yield from p.recv(2, tag=9)  # the late message is on the wire by now
            first = yield from waitany(reqs)
            second = yield from waitany(reqs)
            return (reqs[1].value, first, second)

        res = both(prog, 3)
        assert res.value(1) == (1.0, (2, 2.0), (0, "late"))

    def test_waitany_all_done_raises(self):
        def prog(p):
            comm = NBComm(p)
            if p.rank == 0:
                comm.isend(1, 1.0, tag=1)
                return None
            req = comm.irecv(0, tag=1)
            yield from req.wait()
            try:
                yield from waitany([req])
            except CommunicationError:
                return "raised"
            return "no error"

        assert both(prog, 2).value(1) == "raised"


class TestAggregation:
    def test_small_sends_coalesce_into_bundles(self):
        """5 one-word isends, threshold 4: one bundle + one flushed single."""

        def prog(p):
            comm = NBComm(p, aggregate_words=4)
            if p.rank == 0:
                reqs = [comm.isend(1, float(i), words=1, tag=3) for i in range(5)]
                yield from waitall(reqs)  # flush-on-wait ships the tail
                return None
            reqs = [comm.irecv(0, tag=3) for _ in range(5)]
            return (yield from waitall(reqs))

        res = both(prog, 2, MachineModel(tf=1, tc=1, alpha=50.0))
        assert res.value(1) == [0.0, 1.0, 2.0, 3.0, 4.0]
        assert res.message_count == 2

    def test_aggregation_pays_one_alpha_per_bundle(self):
        def chatter(p, aggregate):
            comm = NBComm(p, aggregate_words=aggregate)
            if p.rank == 0:
                reqs = [comm.isend(1, float(i), words=1, tag=3) for i in range(8)]
                yield from waitall(reqs)
                return None
            reqs = [comm.irecv(0, tag=3) for _ in range(8)]
            return (yield from waitall(reqs))

        model = MachineModel(tf=1, tc=1, alpha=100.0)
        plain = run_spmd(chatter, Ring(2), model, args=(0,))
        bundled = run_spmd(chatter, Ring(2), model, args=(8,))
        assert plain.value(1) == bundled.value(1)
        assert plain.message_count == 8 and bundled.message_count == 1
        assert bundled.makespan < plain.makespan

    def test_large_sends_bypass_the_buffer(self):
        def prog(p):
            comm = NBComm(p, aggregate_words=4)
            if p.rank == 0:
                req = comm.isend(1, np.arange(16.0), words=16, tag=3)
                yield from req.wait()
                return None
            return (yield from comm.irecv(0, tag=3).wait())

        res = both(prog, 2)
        np.testing.assert_array_equal(res.value(1), np.arange(16.0))
        assert res.message_count == 1


class TestProbe:
    def test_probe_respects_injected_delay_on_both_backends(self):
        """A delayed message stays invisible to probe until it arrives."""

        def prog(p):
            if p.rank == 0:
                p.send(1, 2.5, words=1, tag=2)
                p.send(1, "ready", words=1, tag=9)
                return None
            yield from p.recv(0, tag=9)  # data message is enqueued by now
            early = p.probe(0, tag=2)
            p.compute(5000)  # beyond any injected delay
            late = p.probe(0, tag=2)
            val = yield from p.recv(0, tag=2)
            return (early, late, val, p.clock)

        model = MachineModel(tf=1.0, tc=1.0)
        plan = FaultPlan(seed=11, delay_prob=1.0, delay_max=800.0,
                         include_plain=True)
        delayed = both(prog, 2, model, faults=plan)
        early, late, val, clock = delayed.value(1)
        assert late is True and val == 2.5
        quiet = both(prog, 2, model)
        q_early, q_late, q_val, q_clock = quiet.value(1)
        assert q_early is True and q_late is True and q_val == 2.5
        # The injected delay moved arrival but not the payload.
        assert clock >= q_clock


class TestFaultPaths:
    def test_wait_on_crashed_peer_raises_with_context(self):
        """An nb wait on a dead rank fails fast instead of deadlocking."""

        def prog(p):
            if p.rank == 1:
                try:
                    p.compute(100)  # crosses the crash time
                except RankCrashedError:
                    return "died"
                return "survived"
            comm = NBComm(p)
            req = comm.irecv(1, tag=1)
            try:
                yield from req.wait()
            except PeerCrashedError as err:
                return ("peer-crashed", err.crash.rank, err.crash.at_time)
            return "no error"

        plan = FaultPlan(crashes=(CrashFault(1, at_time=5.0),))
        res = both(prog, 2, faults=plan)
        assert res.values == [("peer-crashed", 1, 5.0), "died"]

    def test_reliable_isend_acks_while_compute_proceeds(self):
        """The posted reliable send's ack window covers the compute."""

        def prog(p):
            tx = ReliableTransport(RetryPolicy(timeout=400.0, max_retries=4))
            if p.rank == 0:
                req = tx.isend(p, 1, 3.5, tag=4)
                p.compute(120)
                yield from req.wait()
                return "acked"
            return (yield from tx.recv(p, 0, tag=4))

        plan = FaultPlan(seed=5, drop_prob=0.3)
        res = both(prog, 2, faults=plan)
        assert res.values == ["acked", 3.5]

    def test_reliable_isend_to_crashed_rank_exhausts_retries(self):
        """No acks come back from a dead rank: the request fails, not hangs."""

        def prog(p):
            tx = ReliableTransport(RetryPolicy(timeout=50.0, max_retries=2))
            if p.rank == 1:
                try:
                    p.compute(100)
                except RankCrashedError:
                    return "died"
                return "survived"
            req = tx.isend(p, 1, 9.0, tag=4)
            try:
                yield from req.wait()
            except RetryExhaustedError as err:
                return ("exhausted", err.attempts)
            return "acked"

        plan = FaultPlan(crashes=(CrashFault(1, at_time=1.0),))
        res = both(prog, 2, faults=plan)
        assert res.values == [("exhausted", 3), "died"]

    def test_outstanding_reliable_channel_is_exclusive(self):
        def prog(p):
            tx = ReliableTransport(RetryPolicy(timeout=50.0))
            if p.rank == 0:
                tx.isend(p, 1, 1.0, tag=4)
                try:
                    tx.isend(p, 1, 2.0, tag=4)
                except CommunicationError:
                    return "exclusive"
                return "allowed"
            a = yield from tx.recv(p, 0, tag=4)
            return a

        res = run_spmd(prog, Ring(2))
        assert res.value(0) == "exclusive"


class TestObservability:
    def test_trace_and_chrome_export_have_request_lanes(self):
        from repro.machine import chrome_trace_json

        def prog(p):
            comm = NBComm(p)
            other = 1 - p.rank
            req = comm.irecv(other, tag=1)
            comm.isend(other, 1.0, tag=1)
            p.compute(10)
            yield from req.wait()
            return None

        res = run_spmd(prog, Ring(2), trace=True)
        kinds = {e.kind for lane in res.trace for e in lane}
        assert {"isend", "irecv"} <= kinds
        doc = chrome_trace_json(res.trace)
        names = {
            e["args"]["name"]
            for e in doc["traceEvents"]
            if e.get("ph") == "M" and e.get("name") == "thread_name"
        }
        assert "P0 requests" in names and "P1 requests" in names

    def test_overlap_metrics_exported(self):
        def prog(p):
            comm = NBComm(p)
            other = 1 - p.rank
            req = comm.irecv(other, tag=1)
            comm.isend(other, 1.0, words=20, tag=1)
            p.compute(500)
            yield from req.wait()
            return None

        res = run_spmd(prog, Ring(2), MachineModel(tf=1, tc=1, alpha=10.0))
        as_dict = res.metrics.as_dict()
        for rank in range(2):
            entry = as_dict["ranks"][rank]
            assert entry["inflight_seconds"] > 0
            assert entry["overlap_ratio"] == 1.0
        assert "overlap" in res.metrics.summary().lower()
