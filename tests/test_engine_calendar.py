"""Regression tests for the indexed event calendar (docs/ENGINE.md).

The calendar rewrite replaced three O(N) scheduler scans — the ready
deque's companion full-state scans, the ``min()`` over timed parks and
the ``sorted()`` rebuild of the nb-parked set — with indexed structures.
These tests pin the *ordering contract* those scans implicitly defined:

* timed receives fire in earliest-deadline order, ties broken by
  ascending rank (the old ``min((deadline, rank))`` order);
* crash wakeups of nonblocking waiters happen in ascending rank order
  (the old ``sorted(self._nb_parked)`` order), independent of the order
  the ranks parked in;
* the ready FIFO + deadline heap calendar answers any interleaving of
  its five operations exactly as the one-heap calendar it replaced
  (kept here as the reference model).

These orders are part of the engine's determinism contract: the stress
parity suite (``test_engine_parity_stress``) checks timestamps stay
bit-identical, these tests check the *mechanism* directly so a future
calendar change fails with a readable message rather than a digest
mismatch.
"""

from __future__ import annotations

from heapq import heappop, heappush

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import PeerCrashedError, RankCrashedError
from repro.machine import MachineModel, Ring, run_spmd
from repro.machine.engine import TIMED_OUT, EventCalendar
from repro.machine.faults import CrashFault, FaultPlan
from repro.machine.nonblocking import NBComm

MODEL = MachineModel(tf=1.0, tc=1.0)


class TestTimeoutFiringOrder:
    def test_timeouts_fire_in_deadline_order_with_rank_ties(self):
        """N timed parks fire earliest-deadline first, rank-ascending ties.

        16 ranks park simultaneously at t=0 on receives that never
        complete.  Deadlines form four tie groups (10, 15, 20, 25), each
        shared by four ranks.  The engine stalls immediately and must
        drain the calendar in (deadline, rank) order — the exact order
        the seed scheduler's ``min(self._timed.items())`` scan produced.
        """
        n = 16
        fired: list[tuple[float, int]] = []

        def prog(p):
            deadline = 10.0 + 5.0 * (p.rank % 4)
            got = yield from p.recv_deadline(
                (p.rank + 1) % p.nprocs, tag=7, deadline=deadline
            )
            assert got is TIMED_OUT
            fired.append((p.clock, p.rank))
            return p.clock

        res = run_spmd(prog, Ring(n), MODEL)
        expected = sorted(
            ((10.0 + 5.0 * (r % 4), r) for r in range(n)),
            key=lambda t: (t[0], t[1]),
        )
        assert fired == expected
        # The clock each rank resumed at is exactly its deadline.
        assert res.values == [10.0 + 5.0 * (r % 4) for r in range(n)]

    def test_rearmed_timeout_does_not_fire_stale_entry(self):
        """A fed-then-re-parked rank fires at its *new* deadline only.

        Rank 1 parks with an early deadline, is fed before it expires,
        then parks again with a later deadline.  The lazily-invalidated
        calendar still holds the stale early entry; it must be skipped,
        not fired — rank 1's second receive times out at 40, after rank
        2's 30.
        """
        order: list[int] = []

        def prog(p):
            if p.rank == 0:
                p.send(1, "food", words=1, tag=1)
                return None
            if p.rank == 1:
                got = yield from p.recv_deadline(0, tag=1, deadline=20.0)
                assert got == "food"
                got = yield from p.recv_deadline(0, tag=2, deadline=40.0)
                assert got is TIMED_OUT
                order.append(p.rank)
                return p.clock
            got = yield from p.recv_deadline(0, tag=3, deadline=30.0)
            assert got is TIMED_OUT
            order.append(p.rank)
            return p.clock

        res = run_spmd(prog, Ring(3), MODEL)
        assert order == [2, 1]
        assert res.values[1] == 40.0
        assert res.values[2] == 30.0

    def test_many_timed_parks_single_winner(self):
        """Only the earliest deadline fires when one message resolves it.

        All other ranks are fed before their deadlines; exactly one
        timeout event must fire.
        """
        n = 8
        timeouts = []

        def prog(p):
            if p.rank == 0:
                for dest in range(2, n):
                    p.send(dest, dest, words=1, tag=5)
                return None
            got = yield from p.recv_deadline(0, tag=5, deadline=100.0 + p.rank)
            if got is TIMED_OUT:
                timeouts.append(p.rank)
                return None
            return got

        res = run_spmd(prog, Ring(n), MODEL)
        assert timeouts == [1]
        assert res.values[2:] == list(range(2, n))


class TestCrashWakeupOrder:
    def _run(self, park_order: list[int]) -> list[int]:
        """5 ranks nb-park on a rank that crashes; return wakeup order.

        ``park_order`` staggers each rank's pre-park compute so the
        parked set is *built* in that order; wakeups must come out in
        ascending rank order regardless.
        """
        woken: list[int] = []
        stagger = {r: i for i, r in enumerate(park_order)}

        def prog(p):
            if p.rank == 0:
                try:
                    p.compute(100)  # crosses the crash time
                except RankCrashedError:
                    return "died"
                return "survived"
            p.compute(1 + stagger[p.rank])
            comm = NBComm(p)
            req = comm.irecv(0, tag=1)
            try:
                yield from req.wait()
            except PeerCrashedError as err:
                woken.append(p.rank)
                return ("crashed-peer", err.crash.rank)
            return "no error"

        plan = FaultPlan(crashes=(CrashFault(0, at_time=50.0),))
        res = run_spmd(prog, Ring(6), MODEL, faults=plan)
        assert res.values[0] == "died"
        assert res.values[1:] == [("crashed-peer", 0)] * 5
        return woken

    @pytest.mark.parametrize(
        "park_order",
        [[1, 2, 3, 4, 5], [5, 4, 3, 2, 1], [3, 1, 5, 2, 4]],
        ids=["ascending", "descending", "shuffled"],
    )
    def test_crash_wakeups_ascending_rank(self, park_order):
        assert self._run(park_order) == [1, 2, 3, 4, 5]


class OneHeapCalendar:
    """The calendar as it was before the ready FIFO: one heap holding
    ``(READY, seq, rank)`` and ``(deadline, rank, gen)`` entries, READY
    sorting before every (nonnegative) deadline."""

    READY = -1.0

    def __init__(self):
        self._heap, self._seq, self.timed, self._gen = [], 0, {}, {}

    def push_ready(self, rank):
        self._seq += 1
        heappush(self._heap, (self.READY, self._seq, rank))

    def push_timeout(self, rank, deadline):
        self.timed[rank] = deadline
        gen = self._gen[rank] = self._gen.get(rank, 0) + 1
        heappush(self._heap, (deadline, rank, gen))

    def cancel_timeout(self, rank):
        if self.timed.pop(rank, None) is not None:
            self._gen[rank] += 1

    def pop_ready(self):
        if self._heap and self._heap[0][0] == self.READY:
            return heappop(self._heap)[2]
        return None

    def pop_due_timeout(self):
        while self._heap:
            time, rank, g = self._heap[0]
            if time == self.READY:
                return None
            heappop(self._heap)
            if self._gen.get(rank) == g:
                del self.timed[rank]
                return rank
        return None


RANKS = st.integers(0, 5)
CALENDAR_OPS = st.one_of(
    st.tuples(st.just("push_ready"), RANKS),
    # few distinct deadlines, so (deadline, rank) ties and re-arms are common
    st.tuples(st.just("push_timeout"), RANKS, st.sampled_from([0.0, 5.0, 5.5, 20.0])),
    # re-arm while armed: one rank, pushed again and again with an equal, an
    # earlier or a later deadline and no cancel between — liveness is "timed
    # still maps the rank to this deadline", so the heap holds duplicate and
    # stale keys for it that must fire once, in the same place in the order
    st.tuples(st.just("push_timeout"), st.just(0), st.sampled_from([5.0, 5.0, 0.0, 20.0])),
    st.tuples(st.just("cancel_timeout"), RANKS),
    st.tuples(st.just("pop_ready")),
    st.tuples(st.just("pop_due_timeout")),
)


class TestCalendarAgainstOneHeapModel:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(CALENDAR_OPS, max_size=60))
    def test_same_pops_and_same_timed_view(self, ops):
        new, old = EventCalendar(), OneHeapCalendar()
        for step, (op, *args) in enumerate(ops):
            got, want = getattr(new, op)(*args), getattr(old, op)(*args)
            assert got == want, (step, op, args)
            assert new.timed == old.timed, (step, op, args)
        # drained, both hand back the same tail: ready ranks, then deadlines
        for op in ("pop_ready", "pop_due_timeout"):
            while (got := getattr(new, op)()) is not None:
                assert got == getattr(old, op)()
            assert getattr(old, op)() is None
