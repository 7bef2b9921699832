"""Fault injection: plan validation, determinism, crashes, slowdowns.

The headline property (ISSUE 3's determinism contract): a seeded,
crash-free :class:`~repro.machine.faults.FaultPlan` may stretch the
simulated clock but never changes what a resilient kernel computes —
results stay bit-identical to the fault-free run on both backends.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import FaultError, RankCrashedError
from repro.kernels import jacobi_rowdist, resilient_jacobi
from repro.kernels.resilient import resilient_sor
from repro.machine import MachineModel, Ring, run_spmd
from repro.machine.faults import CrashFault, FaultPlan, FaultState
from repro.machine.threaded import run_spmd_threaded

MODEL = MachineModel(tf=1, tc=10)


class TestFaultPlanValidation:
    def test_defaults_are_quiet(self):
        plan = FaultPlan()
        assert plan.quiet and plan.crash_free

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"delay_prob": -0.1},
            {"delay_prob": 1.5},
            {"drop_prob": 2.0},
            {"duplicate_prob": -1e-9},
            {"delay_prob": 0.5, "delay_max": -1.0},
            {"slowdown": ((0, 0.5),)},
            {"slowdown": ((-1, 2.0),)},
            {"crashes": (CrashFault(-1, 5.0),)},
            {"crashes": (CrashFault(0, -5.0),)},
        ],
    )
    def test_bad_plan_rejected(self, kwargs):
        with pytest.raises(FaultError):
            FaultPlan(seed=1, **kwargs)

    def test_slowdown_normalized_and_queried(self):
        plan = FaultPlan(slowdown=((3, 2.0), (1, 1.5)))
        assert plan.slowdown == ((1, 1.5), (3, 2.0))
        assert plan.slowdown_factor(3) == 2.0
        assert plan.slowdown_factor(0) == 1.0

    def test_with_without_crash(self):
        plan = FaultPlan().with_crash(2, at_time=10.0)
        assert not plan.crash_free
        assert plan.without_crash(2, 10.0).crash_free


class TestFateDeterminism:
    def test_fate_is_a_pure_function_of_the_key(self):
        plan = FaultPlan(
            seed=7, delay_prob=0.4, delay_max=20.0, drop_prob=0.3,
            duplicate_prob=0.3,
        )
        a = FaultState(plan)
        b = FaultState(plan)
        for attempt in range(8):
            assert a.fate(0, 1, 5, attempt, reliable=True) == b.fate(
                0, 1, 5, attempt, reliable=True
            )

    def test_different_seed_differs_somewhere(self):
        kw = dict(delay_prob=0.4, delay_max=20.0, drop_prob=0.3,
                  duplicate_prob=0.3)
        a = FaultState(FaultPlan(seed=1, **kw))
        b = FaultState(FaultPlan(seed=2, **kw))
        fates_a = [a.fate(0, 1, 0, i, reliable=True) for i in range(32)]
        fates_b = [b.fate(0, 1, 0, i, reliable=True) for i in range(32)]
        assert fates_a != fates_b

    def test_plain_traffic_untouched_unless_included(self):
        plan = FaultPlan(seed=3, drop_prob=1.0, duplicate_prob=1.0)
        state = FaultState(plan)
        assert state.fate(0, 1, 0, 0, reliable=False).clean
        loud = FaultState(
            FaultPlan(seed=3, drop_prob=1.0, include_plain=True)
        )
        assert loud.fate(0, 1, 0, 0, reliable=False).drop


class TestClockOnlyPerturbations:
    """Delays and slowdowns stretch time, never values."""

    def _run(self, runner, plan):
        A, b, _ = make_system()
        return runner(
            jacobi_rowdist, Ring(4), MODEL, args=(A, b, np.zeros(16), 4),
            faults=plan,
        )

    @pytest.mark.parametrize("runner", [run_spmd, run_spmd_threaded])
    def test_slowdown_stretches_makespan_only(self, runner):
        base = self._run(runner, None)
        slow = self._run(runner, FaultPlan(slowdown=((0, 3.0),)))
        assert slow.makespan > base.makespan
        np.testing.assert_array_equal(base.value(0), slow.value(0))

    @pytest.mark.parametrize("runner", [run_spmd, run_spmd_threaded])
    def test_plain_delays_preserve_numerics(self, runner):
        base = self._run(runner, None)
        plan = FaultPlan(
            seed=5, delay_prob=0.5, delay_max=30.0, include_plain=True
        )
        delayed = self._run(runner, plan)
        assert delayed.makespan >= base.makespan
        np.testing.assert_array_equal(base.value(0), delayed.value(0))
        assert delayed.metrics.faults.get("delay", 0) > 0


def _slowed_probe(p, flops, seconds, words):
    """Rank 0 (the slowed one) computes, delays, sends plain to P2 and
    posted to P3, then drains a plain message from P4 and a posted one
    from P5.  The other ranks start idle, so each receive begins at the
    message's availability."""
    from repro.machine import NBComm

    if p.rank == 0:
        p.compute(flops)
        p.delay(seconds)
        p.send(2, None, words=words, tag=1)
        p.send(3, None, words=words, tag=1, posted=True)
        yield from p.recv(4, tag=1)
        yield from NBComm(p).irecv(5, tag=1).wait()
    elif p.rank in (2, 3):
        yield from p.recv(0, tag=1)
    elif p.rank in (4, 5):
        p.send(0, None, words=words, tag=1, posted=p.rank == 5)


def _slowed_machines(count: int = 120):
    rng = np.random.default_rng(52)
    for _ in range(count):
        model = MachineModel(
            tf=float(rng.uniform(0.01, 3.0)),
            tc=float(rng.uniform(0.01, 30.0)),
            alpha=float(rng.choice([0.0, rng.uniform(0.0, 50.0)])),
            hop_cost=float(rng.choice([0.0, rng.uniform(0.0, 5.0)])),
            overlap=bool(rng.random() < 0.5),
        )
        factor = float(rng.uniform(1.0, 4.0))
        args = (float(rng.uniform(1.0, 1000.0)), float(rng.uniform(0.0, 100.0)),
                int(rng.integers(0, 64)))
        yield model, factor, args


class TestSlowdownFloatOrder:
    """A slowed rank's durations are the machine's own, times the factor.

    Bit for bit: ``(flops tf) s``, ``seconds s`` and ``occupancy(w) s``,
    while the wire latency is the NIC's and never slowed.  Folding the
    factor into ``tf`` / ``tc`` / ``alpha`` rounds differently and slows
    the wire under ``overlap=True`` and for posted sends."""

    @pytest.mark.parametrize("runner", [run_spmd, run_spmd_threaded])
    def test_clocks_are_the_machines_durations_times_the_factor(self, runner):
        topology = Ring(8)
        for model, s, (flops, seconds, w) in _slowed_machines():
            res = runner(_slowed_probe, topology, model, args=(flops, seconds, w),
                         trace=True, faults=FaultPlan(slowdown={0: s}))
            lane = [e for e in res.trace[0] if e.kind not in ("wait", "irecv")]
            compute, delay, send, isend, recv, drain = lane
            assert compute.end == compute.start + (flops * model.tf) * s
            assert delay.end == delay.start + seconds * s
            assert send.end == send.start + model.send_occupancy(w) * s
            assert isend.end == isend.start + model.post_occupancy(w) * s
            assert recv.end == recv.start + model.recv_occupancy(w) * s
            assert drain.end == drain.start + model.post_occupancy(w) * s
            arrivals = {r: e.start for r in (2, 3) for e in res.trace[r] if e.kind == "recv"}
            assert arrivals[2] == send.end + model.wire_latency(w, topology.hops(0, 2))
            assert arrivals[3] == isend.end + model.posted_wire_latency(
                w, topology.hops(0, 3))


class TestCrash:
    @pytest.mark.parametrize("runner", [run_spmd, run_spmd_threaded])
    def test_crash_surfaces_with_rank_and_time(self, runner):
        A, b, _ = make_system()
        plan = FaultPlan(crashes=(CrashFault(2, at_time=50.0),))
        with pytest.raises(RankCrashedError) as err:
            runner(jacobi_rowdist, Ring(4), MODEL,
                   args=(A, b, np.zeros(16), 4), faults=plan)
        assert err.value.rank == 2
        assert "P2 crashed at simulated time 50" in str(err.value)

    def test_crash_fires_once_per_state(self):
        state = FaultState(FaultPlan(crashes=(CrashFault(1, 5.0),)))
        assert state.crash_due(1, 10.0) is not None
        assert state.crash_due(1, 20.0) is None
        assert state.fired_crashes == (CrashFault(1, 5.0),)

    def test_crash_before_due_time_does_not_fire(self):
        state = FaultState(FaultPlan(crashes=(CrashFault(1, 5.0),)))
        assert state.crash_due(1, 4.9) is None
        assert state.crash_due(0, 10.0) is None


def make_system(m: int = 16):
    from repro.kernels import make_spd_system

    return make_spd_system(m, seed=11)


#: Bounded chaos: drop_prob stays low enough that the default retry
#: budget (8 retries, doubling timeouts) always gets a message through.
chaos_plans = st.builds(
    FaultPlan,
    seed=st.integers(0, 2**16),
    delay_prob=st.floats(0.0, 0.4),
    delay_max=st.floats(1.0, 80.0),
    drop_prob=st.floats(0.0, 0.15),
    duplicate_prob=st.floats(0.0, 0.2),
    slowdown=st.one_of(
        st.just(()),
        st.tuples(st.tuples(st.integers(0, 3), st.floats(1.0, 3.0))),
    ),
)


class TestDeterminismContract:
    """Crash-free plans leave resilient kernels bit-identical."""

    @settings(max_examples=15, deadline=None)
    @given(plan=chaos_plans)
    def test_resilient_jacobi_engine(self, plan):
        A, b, _ = make_system()
        args = (A, b, np.zeros(16), 3)
        base = run_spmd(resilient_jacobi, Ring(4), MODEL, args=args)
        chaos = run_spmd(resilient_jacobi, Ring(4), MODEL, args=args,
                         faults=plan)
        np.testing.assert_array_equal(base.value(0), chaos.value(0))

    @settings(max_examples=10, deadline=None)
    @given(plan=chaos_plans)
    def test_resilient_sor_engine(self, plan):
        A, b, _ = make_system()
        args = (A, b, np.zeros(16), 1.2, 2)
        base = run_spmd(resilient_sor, Ring(4), MODEL, args=args)
        chaos = run_spmd(resilient_sor, Ring(4), MODEL, args=args,
                         faults=plan)
        np.testing.assert_array_equal(base.value(0), chaos.value(0))

    @settings(max_examples=5, deadline=None)
    @given(plan=chaos_plans)
    def test_resilient_jacobi_threaded(self, plan):
        A, b, _ = make_system()
        args = (A, b, np.zeros(16), 3)
        base = run_spmd(resilient_jacobi, Ring(4), MODEL, args=args)
        chaos = run_spmd_threaded(resilient_jacobi, Ring(4), MODEL,
                                  args=args, faults=plan)
        np.testing.assert_array_equal(base.value(0), chaos.value(0))
        assert base.makespan <= chaos.makespan

    def test_backends_agree_on_fault_counters(self):
        plan = FaultPlan(seed=99, delay_prob=0.2, delay_max=40.0,
                         drop_prob=0.1, duplicate_prob=0.1)
        A, b, _ = make_system()
        args = (A, b, np.zeros(16), 3)
        eng = run_spmd(resilient_jacobi, Ring(4), MODEL, args=args,
                       faults=plan)
        thr = run_spmd_threaded(resilient_jacobi, Ring(4), MODEL, args=args,
                                faults=plan)
        assert eng.metrics.faults == thr.metrics.faults
        assert eng.makespan == thr.makespan
