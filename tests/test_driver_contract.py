"""The driver contract: what both drivers of the machine core must do.

``Engine.run`` (event calendar) and ``ThreadedEngine.run`` (one thread per
rank) step generators over the *same* message store, park registrations,
deadline calendar and stall rules (docs/ENGINE.md, "One core, two
drivers").  Every case here runs on both and pins a rule of the shared
core by its observable outcome, so a driver that re-implements one of
them differently fails by name rather than by a golden digest.
"""

from __future__ import annotations

import sys

import pytest

from repro.errors import DeadlockError, PeerCrashedError, RankCrashedError
from repro.machine import BACKENDS, MachineModel, NBComm, Ring, allreduce
from repro.machine.engine import TIMED_OUT
from repro.machine.faults import CrashFault, FaultPlan

MODEL = MachineModel(tf=1.0, tc=1.0)


@pytest.fixture(params=sorted(BACKENDS))
def driver(request):
    return BACKENDS[request.param]


def test_mixed_timed_receives_expire_in_deadline_then_rank_order(driver):
    """Fed, tied and staggered deadlines: only the unfed ones expire, one
    per stall, smallest ``(deadline, rank)`` first, each at its deadline."""
    n = 12
    fed = {3, 8}
    fired: list[tuple[float, int]] = []

    def deadline_of(rank):
        return 10.0 + 5.0 * (rank % 3)

    def prog(p):
        if p.rank == 0:
            for dest in sorted(fed):
                p.send(dest, dest, words=1, tag=7)
            return p.clock
        got = yield from p.recv_deadline(0, tag=7, deadline=deadline_of(p.rank))
        if got is TIMED_OUT:
            fired.append((p.clock, p.rank))
        return p.clock

    res = driver(Ring(n), MODEL).run(prog)
    unfed = [r for r in range(1, n) if r not in fed]
    assert fired == sorted((deadline_of(r), r) for r in unfed)
    assert [res.values[r] for r in unfed] == [deadline_of(r) for r in unfed]
    assert all(res.values[r] < deadline_of(r) for r in fed)
    assert res.metrics.faults == {"timeout": len(unfed)}


def test_timed_receive_takes_a_message_at_its_deadline_and_leaves_a_later_one(driver):
    """The one question a timed receive asks the core (``try_pop_by``): a
    head available *at* the deadline is received; one a tick later means
    the timeout comes first in simulated time — the receive expires at
    its deadline and the message stays queued for the next receive."""

    def prog(p):
        if p.rank == 0:
            p.send(1, "on time", words=10, tag=1)  # available at 10.0
            p.send(2, "late", words=1, tag=1)  # available at 11.0
            return None
        first = yield from p.recv_deadline(0, tag=1, deadline=10.0)
        expired_at = p.clock
        if first is TIMED_OUT:
            first = ("expired", (yield from p.recv(0, tag=1)))
        return first, expired_at, p.clock

    res = driver(Ring(3), MODEL).run(prog)
    assert res.values[1] == ("on time", 20.0, 20.0)  # 10.0 + its 10-word drain
    assert res.values[2] == (("expired", "late"), 10.0, 12.0)
    assert res.metrics.faults == {"timeout": 1}


def test_a_fired_timeout_is_consumed_exactly_once(driver):
    """The stall step flags the rank it fires; the resumed receive consumes
    the flag.  A second timed receive on the same channel must park again
    and take the message — a flag left behind would expire it unasked."""

    def prog(p):
        if p.rank == 0:
            yield from p.recv(1, tag=6)
            p.send(1, "second try", words=1, tag=5)
            return None
        first = yield from p.recv_deadline(0, tag=5, deadline=10.0)
        p.send(0, "go", words=1, tag=6)
        second = yield from p.recv_deadline(0, tag=5, deadline=1000.0)
        return first, second

    res = driver(Ring(2), MODEL).run(prog)
    assert res.values[1] == (TIMED_OUT, "second try")
    assert res.metrics.faults == {"timeout": 1}


def test_a_rank_woken_by_a_timeout_can_still_feed_an_equal_deadline(driver):
    """Why timeouts fire one per stall, never in batches: ranks 1 and 2
    share a deadline; rank 1 fires first (``(deadline, rank)`` order),
    resumes at clock 10.0 and sends rank 2 a zero-cost message that is
    available at 10.0 — by rank 2's deadline.  Rank 2 must receive it;
    had the stall fired every due timeout at once, it would have been
    flagged expired before the message existed."""

    def prog(p):
        if p.rank == 0:
            return None
        if p.rank == 1:
            got = yield from p.recv_deadline(0, tag=3, deadline=10.0)
            p.send(2, "baton", words=0, tag=4)
            return got
        return (yield from p.recv_deadline(1, tag=4, deadline=10.0))

    res = driver(Ring(3), MachineModel(tf=1.0, tc=1.0, alpha=0.0)).run(prog)
    assert res.values == [None, TIMED_OUT, "baton"]
    assert res.finish_times == [0.0, 10.0, 10.0]
    assert res.metrics.faults == {"timeout": 1}


def test_timeout_storm_fires_in_deadline_then_rank_order(driver):
    """64 ranks, three rounds of receives nobody feeds, deadlines that tie
    across ranks and interleave across rounds: every expiry is its own
    stall, and the global firing order is sorted by ``(deadline, rank)``."""
    n, rounds = 64, 3
    fired: list[tuple[float, int]] = []

    def prog(p):
        for _ in range(rounds):
            deadline = p.clock + 5.0 + (p.rank * 7) % 4
            got = yield from p.recv_deadline((p.rank + 1) % n, tag=9, deadline=deadline)
            assert got is TIMED_OUT
            fired.append((p.clock, p.rank))
            p.compute(p.rank % 3)
        return p.clock

    res = driver(Ring(n), MODEL).run(prog)
    assert len(fired) == n * rounds and fired == sorted(fired)
    assert res.values == [
        rounds * (5.0 + (r * 7) % 4 + r % 3) for r in range(n)
    ]
    assert res.metrics.faults == {"timeout": n * rounds}


def test_waitany_parked_on_a_crashed_peer_fails_with_the_crash(driver):
    """The peer can only crash after everyone else has parked — its timed
    receive expires at a stall, past its crash time — so the waiters are
    woken by the stall rule, not by their pre-park check."""
    crash = CrashFault(0, at_time=50.0)

    def prog(p):
        if p.rank == 0:
            try:
                yield from p.recv_deadline(1, tag=9, deadline=60.0)
            except RankCrashedError:
                return "died"
            return "survived"
        comm = NBComm(p)
        requests = [comm.irecv(src, tag=1) for src in range(p.nprocs) if src != p.rank]
        try:
            yield from comm.waitany(requests)
        except PeerCrashedError as err:
            return (err.crash, p.clock)
        return "no error"

    res = driver(Ring(4), MODEL, faults=FaultPlan(crashes=(crash,))).run(prog)
    assert res.values == ["died"] + [(crash, 0.0)] * 3


@pytest.mark.parametrize("form", ["recv", "waitany"])
def test_a_message_that_raced_the_park_is_consumed_without_parking(driver, form):
    """A park yielded for a channel that already holds a message registers
    nothing and the rank retries at once: were it parked, nobody would
    ever wake it and the run would deadlock."""
    channel = (0, 1, 3)

    def prog(p):
        if p.rank == 0:
            p.send(1, "early", words=1, tag=3)
            p.send(1, "go", words=1, tag=1)  # after it: tag 3 is delivered
            return None
        yield from p.recv(0, tag=1)
        yield (channel, None) if form == "recv" else ((channel,), None)
        return (yield from p.recv(0, tag=3))

    engine = driver(Ring(2), MODEL)
    assert engine.run(prog).values == [None, "early"]
    assert not engine._waiting and not engine._calendar.ready


def test_program_error_outranks_the_deadlocks_it_causes(driver):
    def prog(p):
        if p.rank == 1:
            raise ValueError("boom")
        yield from p.recv(1, tag=2)

    with pytest.raises(ValueError, match="boom"):
        driver(Ring(3), MODEL).run(prog)


def test_injected_crash_outranks_program_errors_and_deadlocks(driver):
    def prog(p):
        if p.rank == 0:
            p.compute(100)  # crosses the crash time
        if p.rank == 1:
            raise ValueError("collateral")
        yield from p.recv(0, tag=2)

    plan = FaultPlan(crashes=(CrashFault(0, at_time=50.0),))
    with pytest.raises(RankCrashedError):
        driver(Ring(3), MODEL, faults=plan).run(prog)


def test_true_deadlock_is_one_error_naming_every_parked_rank(driver):
    def prog(p):
        if p.rank == 0:
            return "done"
        yield from p.recv(0, tag=p.rank)

    with pytest.raises(DeadlockError) as err:
        driver(Ring(4), MODEL).run(prog)
    assert err.value.blocked == {
        r: f"recv(source=0, tag={r})" for r in (1, 2, 3)
    }
    assert err.value.report.blocked_ranks() == (1, 2, 3)


def test_oversubscribed_threads_keep_the_cores_counters_exact():
    """More threads than cores, switching every few bytecodes: a store
    operation that escaped the driver's lock would lose a message or a
    histogram update, and the snapshot would differ from the event run."""

    def prog(p):
        total = 0.0
        for _ in range(6):
            total = yield from allreduce(p, total + p.rank, tuple(range(p.nprocs)))
        return total

    reference = BACKENDS["engine"](Ring(48), MODEL).run(prog)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        res = BACKENDS["threaded"](Ring(48), MODEL).run(prog)
    finally:
        sys.setswitchinterval(interval)
    assert res.values == reference.values
    assert res.finish_times == reference.finish_times
    assert res.message_count == reference.message_count
    assert res.metrics.as_dict() == reference.metrics.as_dict()
