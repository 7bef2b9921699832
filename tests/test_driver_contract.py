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
