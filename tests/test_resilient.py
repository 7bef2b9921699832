"""Resilience layer: reliable transfers, checkpoint/restart, supervision."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import FaultError, MachineError, RetryExhaustedError
from repro.kernels.cg import cg_parallel
from repro.kernels import jacobi_rowdist, make_spd_system, resilient_jacobi, sor_pipelined
from repro.kernels.resilient import resilient_cg, resilient_sor
from repro.machine import (
    CheckpointStore,
    MachineModel,
    Ring,
    chrome_trace_json,
    run_resilient,
    run_spmd,
)
from repro.machine.resilient import ReliableTransport, RetryPolicy
from repro.machine.faults import FaultPlan
from repro.machine.threaded import run_spmd_threaded

MODEL = MachineModel(tf=1, tc=10)


@pytest.fixture
def system():
    return make_spd_system(16, seed=4)


class TestRetryPolicy:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"timeout": 0.0},
            {"timeout": -1.0},
            {"max_retries": -1},
            {"backoff": 0.5},
            {"timeout": float("nan")},  # fails every comparison, "<= 0" included
            {"backoff": float("nan")},
        ],
    )
    def test_bad_policy_rejected(self, kwargs):
        with pytest.raises(FaultError):
            RetryPolicy(**kwargs)

    def test_derived_timeout_scales_with_words(self):
        policy = RetryPolicy()
        assert policy.timeout_for(MODEL, 100) > policy.timeout_for(MODEL, 1)

    def test_explicit_timeout_wins(self):
        assert RetryPolicy(timeout=7.5).timeout_for(MODEL, 100) == 7.5


class TestReliableTransport:
    def _pingpong(self, tx):
        def prog(p):
            if p.rank == 0:
                yield from tx.send(p, 1, np.arange(4.0), tag=3)
                return None
            return (yield from tx.recv(p, 0, tag=3))

        return prog

    @pytest.mark.parametrize("runner", [run_spmd, run_spmd_threaded])
    def test_delivers_under_heavy_drops(self, runner):
        plan = FaultPlan(seed=21, drop_prob=0.5)
        res = runner(self._pingpong(ReliableTransport()), Ring(2), MODEL,
                     faults=plan)
        np.testing.assert_array_equal(res.value(1), np.arange(4.0))

    @pytest.mark.parametrize("runner", [run_spmd, run_spmd_threaded])
    def test_retry_exhaustion_surfaces(self, runner):
        plan = FaultPlan(seed=21, drop_prob=1.0)
        tx = ReliableTransport(RetryPolicy(max_retries=2))
        with pytest.raises(RetryExhaustedError) as err:
            runner(self._pingpong(tx), Ring(2), MODEL, faults=plan)
        assert err.value.attempts == 3
        assert "P0->P1" in str(err.value)
        assert "unacknowledged after 3 attempts" in str(err.value)

    def test_duplicates_suppressed_exactly_once_delivery(self):
        plan = FaultPlan(seed=8, duplicate_prob=1.0)
        tx = ReliableTransport()

        def prog(p):
            if p.rank == 0:
                for k in range(5):
                    yield from tx.send(p, 1, float(k), tag=2)
                return None
            got = []
            for _ in range(5):
                got.append((yield from tx.recv(p, 0, tag=2)))
            return got

        res = run_spmd(prog, Ring(2), MODEL, faults=plan)
        assert res.value(1) == [0.0, 1.0, 2.0, 3.0, 4.0]
        assert res.metrics.faults["dup-suppressed"] > 0

    def test_sequence_numbers_are_per_channel(self):
        tx = ReliableTransport()

        def prog(p):
            if p.rank == 0:
                yield from tx.send(p, 1, 1.0, tag=0)
                yield from tx.send(p, 2, 2.0, tag=0)
                yield from tx.send(p, 1, 3.0, tag=9)
                return None
            if p.rank in (1, 2):
                first = yield from tx.recv(p, 0, tag=0)
                if p.rank == 1:
                    second = yield from tx.recv(p, 0, tag=9)
                    return (first, second)
                return first
            return None

        res = run_spmd(prog, Ring(3), MODEL)
        assert res.value(1) == (1.0, 3.0)
        assert res.value(2) == 2.0
        assert tx._next_seq == {(0, 1, 0): 1, (0, 2, 0): 1, (0, 1, 9): 1}


class TestCheckpointStore:
    def test_validation(self):
        with pytest.raises(FaultError):
            CheckpointStore(0)
        with pytest.raises(FaultError):
            CheckpointStore(2, keep=0)

    def test_latest_common_step(self):
        store = CheckpointStore(2)
        assert store.latest_common_step() is None
        store.save(0, 2, "a")
        assert store.latest_common_step() is None  # rank 1 unsaved
        store.save(1, 2, "b")
        store.save(0, 4, "c")
        assert store.latest_common_step() == 2

    def test_eviction_keeps_newest(self):
        store = CheckpointStore(1, keep=2)
        for step in (1, 2, 3):
            store.save(0, step, step * 10)
        assert store.load(0, 3) == 30
        with pytest.raises(FaultError) as err:
            store.load(0, 1)
        assert "retained: [2, 3]" in str(err.value)

    def test_states_are_isolated_copies(self):
        store = CheckpointStore(1)
        state = np.zeros(3)
        store.save(0, 1, state)
        state[0] = 99.0
        loaded = store.load(0, 1)
        assert loaded[0] == 0.0
        loaded[1] = 77.0
        assert store.load(0, 1)[1] == 0.0


class TestRunResilient:
    @pytest.mark.parametrize("backend", ["engine", "threaded"])
    def test_crash_restart_reconverges_jacobi(self, system, backend):
        A, b, _ = system
        args = (A, b, np.zeros(16), 6)
        ref = run_spmd(jacobi_rowdist, Ring(4), MODEL, args=args).value(0)
        base = run_spmd(resilient_jacobi, Ring(4), MODEL, args=args)
        store = CheckpointStore(4)
        plan = FaultPlan(seed=2).with_crash(1, at_time=base.makespan * 0.6)
        res = run_resilient(
            resilient_jacobi, Ring(4), MODEL, args=args,
            kwargs={"checkpoints": store, "interval": 2},
            plan=plan, backend=backend, deadlock_timeout=0.2,
        )
        np.testing.assert_array_equal(res.value(0), ref)
        assert res.restarts == 1
        assert res.fired_crashes[0].rank == 1
        faults = res.metrics.faults
        assert faults["crash"] == 1
        assert faults["restart"] == 1
        assert faults["restore"] == 4  # every rank resumed from checkpoint
        assert faults["checkpoint"] > 0

    def test_crash_restart_reconverges_cg(self, system):
        A, b, _ = system
        kwargs = {"max_iterations": 8}
        ref, used = run_spmd(
            cg_parallel, Ring(4), MODEL, args=(A, b), kwargs=kwargs
        ).value(0)
        base = run_spmd(resilient_cg, Ring(4), MODEL, args=(A, b),
                        kwargs=kwargs)
        store = CheckpointStore(4)
        plan = FaultPlan().with_crash(2, at_time=base.makespan * 0.6)
        res = run_resilient(
            resilient_cg, Ring(4), MODEL, args=(A, b),
            kwargs={**kwargs, "checkpoints": store}, plan=plan,
        )
        x, used_r = res.value(0)
        np.testing.assert_array_equal(x, ref)
        assert used_r == used

    def test_error_without_fired_crash_reraises(self, system):
        A, b, _ = system
        plan = FaultPlan(seed=21, drop_prob=1.0)

        def prog(p):
            tx = ReliableTransport(RetryPolicy(max_retries=1))
            if p.rank == 0:
                yield from tx.send(p, 1, 1.0)
                return None
            return (yield from tx.recv(p, 0))

        with pytest.raises(RetryExhaustedError):
            run_resilient(prog, Ring(2), MODEL, plan=plan)

    def test_restart_budget_exhausted_reraises(self, system):
        from repro.errors import RankCrashedError

        A, b, _ = system
        args = (A, b, np.zeros(16), 6)
        base = run_spmd(resilient_jacobi, Ring(4), MODEL, args=args)
        plan = FaultPlan().with_crash(1, at_time=base.makespan * 0.5)
        with pytest.raises(RankCrashedError):
            run_resilient(resilient_jacobi, Ring(4), MODEL, args=args,
                          plan=plan, max_restarts=0)

    @pytest.mark.parametrize("runner", [run_spmd, run_spmd_threaded])
    @pytest.mark.parametrize("interval", [0, -1])
    @pytest.mark.parametrize(
        "kernel, args",
        [(resilient_jacobi, (np.zeros(16), 4)), (resilient_sor, (np.zeros(16), 1.2, 2)),
         (resilient_cg, ())],
    )
    def test_checkpoint_interval_is_validated(self, system, kernel, args, interval, runner):
        # Unvalidated, 0 is a ZeroDivisionError inside the SPMD body and
        # -1 checkpoints after every step (step % -1 == 0).
        A, b, _ = system
        with pytest.raises(MachineError, match=f"interval must be >= 1, got {interval}"):
            runner(kernel, Ring(4), MODEL, args=(A, b, *args),
                   kwargs={"checkpoints": CheckpointStore(4), "interval": interval})

    @pytest.mark.parametrize("runner", [run_spmd, run_spmd_threaded])
    @pytest.mark.parametrize(
        "kernel, plain, args",
        [(resilient_jacobi, jacobi_rowdist, (np.zeros(16), 4)),
         (resilient_sor, sor_pipelined, (np.zeros(16), 1.2, 2)),
         (resilient_cg, cg_parallel, ())],
    )
    def test_interval_is_not_looked_at_without_a_store(self, system, kernel, plain, args, runner):
        # Nothing is checkpointed without a store, so any interval runs
        # and gives the plain kernel's result.
        A, b, _ = system
        res = runner(kernel, Ring(4), MODEL, args=(A, b, *args), kwargs={"interval": 0})
        ref = runner(plain, Ring(4), MODEL, args=(A, b, *args))
        for got, want in zip(res.values, ref.values):
            got, want = (got[0], want[0]) if isinstance(got, tuple) else (got, want)
            np.testing.assert_array_equal(got, want)

    def test_unknown_backend_rejected(self):
        with pytest.raises(FaultError):
            run_resilient(resilient_jacobi, Ring(2), backend="mpi")


class TestObservabilityIntegration:
    def test_fault_events_reach_metrics_and_chrome_trace(self, system):
        A, b, _ = system
        plan = FaultPlan(seed=13, delay_prob=0.3, delay_max=30.0,
                         drop_prob=0.15, duplicate_prob=0.15)
        res = run_spmd(
            resilient_jacobi, Ring(4), MODEL,
            args=(A, b, np.zeros(16), 3), faults=plan, trace=True,
        )
        faults = res.metrics.faults
        assert faults["retry"] > 0 and faults["drop"] > 0
        assert faults["ack"] > 0
        summary = res.metrics.summary()
        assert "Fault / resilience events" in summary
        assert "retry" in summary

        events = chrome_trace_json(res.trace)["traceEvents"]
        instants = [e for e in events if e.get("ph") == "i"]
        assert instants, "fault events must export as Chrome instant events"
        assert {e["cat"] for e in instants} == {"fault"}
        details = {e["args"]["detail"] for e in instants}
        assert "retry" in details and "drop" in details

    def test_restart_counter_folds_failed_attempts(self, system):
        A, b, _ = system
        args = (A, b, np.zeros(16), 6)
        base = run_spmd(resilient_jacobi, Ring(4), MODEL, args=args)
        store = CheckpointStore(4)
        plan = FaultPlan(seed=3, drop_prob=0.1).with_crash(
            0, at_time=base.makespan * 0.7
        )
        res = run_resilient(
            resilient_jacobi, Ring(4), MODEL, args=args,
            kwargs={"checkpoints": store, "interval": 2}, plan=plan,
        )
        # The folded counters cover both attempts: the crash of the first
        # plus the retries of both.
        assert res.metrics.faults["crash"] == 1
        assert res.metrics.faults["restart"] == 1
        assert res.restarts == 1
        assert res.plan.crash_free  # final attempt ran without the crash
