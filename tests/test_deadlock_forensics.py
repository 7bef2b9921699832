"""Deadlock forensics: both backends attach a full wait-for report."""

from __future__ import annotations

import pytest

from repro.errors import DeadlockError
from repro.machine import NBComm, Ring, run_spmd
from repro.machine.forensics import RECENT_EVENTS, build_report
from repro.machine.threaded import run_spmd_threaded

RUNNERS = [
    pytest.param(run_spmd, id="engine"),
    pytest.param(run_spmd_threaded, id="threaded"),
]


def _deadlock_report(runner, prog, n, **kwargs):
    if runner is run_spmd:  # the generator engine needs no watchdog timeout
        kwargs.pop("deadlock_timeout", None)
    with pytest.raises(DeadlockError) as err:
        runner(prog, Ring(n), **kwargs)
    return err.value.report


def ring_wait(p):
    """Everyone receives from the left; nobody sends: a full cycle."""
    yield from p.recv((p.rank - 1) % p.nprocs, tag=4)


def one_sided(p):
    """P1 waits on P0, which finishes: acyclic starvation, not a cycle."""
    if p.rank == 1:
        yield from p.recv(0, tag=1)
    return None
    yield  # pragma: no cover


class TestReportContents:
    @pytest.mark.parametrize("runner", RUNNERS)
    def test_cycle_names_every_rank_and_channel(self, runner):
        report = _deadlock_report(runner, ring_wait, 4, deadlock_timeout=0.2)
        assert report is not None
        assert report.blocked_ranks() == (0, 1, 2, 3)
        assert report.wait_for() == {0: 3, 1: 0, 2: 1, 3: 2}
        assert report.cycles() == [(0, 3, 2, 1)]
        for blocked in report.blocked:
            source = (blocked.rank - 1) % 4
            assert blocked.waiting_on() == f"recv(source={source}, tag=4)"

    @pytest.mark.parametrize("runner", RUNNERS)
    def test_describe_renders_ranks_channels_and_cycle(self, runner):
        report = _deadlock_report(runner, ring_wait, 3, deadlock_timeout=0.2)
        text = report.describe()
        assert "3/3 ranks blocked" in text
        for rank in range(3):
            assert f"P{rank}" in text
            assert f"recv(source={(rank - 1) % 3}, tag=4)" in text
        assert "wait-for cycles: P0 -> P2 -> P1 -> P0" in text

    @pytest.mark.parametrize("runner", RUNNERS)
    def test_acyclic_starvation_reported_without_cycle(self, runner):
        report = _deadlock_report(runner, one_sided, 2, deadlock_timeout=0.2)
        assert report.blocked_ranks() == (1,)
        assert report.cycles() == []
        assert "wait-for graph is acyclic" in report.describe()

    @pytest.mark.parametrize("runner", RUNNERS)
    def test_recent_events_recorded(self, runner):
        def busy_then_stuck(p):
            p.compute(10, label="warmup")
            if p.rank == 0:
                p.send(1, 1.0, tag=6)
            yield from p.recv((p.rank - 1) % 2, tag=7)  # wrong tag: stuck

        report = _deadlock_report(runner, busy_then_stuck, 2,
                                  deadlock_timeout=0.2)
        text = report.describe()
        assert "compute" in text  # the warmup shows up in recent events
        recents = {b.rank: b.recent for b in report.blocked}
        assert all(len(r) <= RECENT_EVENTS for r in recents.values())
        assert any("warmup" in str(r) for r in recents.values())

    @pytest.mark.parametrize("runner", RUNNERS)
    def test_as_dict_round_trip(self, runner):
        report = _deadlock_report(runner, ring_wait, 3, deadlock_timeout=0.2)
        payload = report.as_dict()
        assert payload["nprocs"] == 3
        assert len(payload["blocked"]) == 3
        assert payload["cycles"] == [[0, 2, 1]]

    @pytest.mark.parametrize("runner", RUNNERS)
    def test_waitany_park_names_every_waited_channel(self, runner):
        """Three ranks each ``waitany`` on both peers and nobody sends: a
        multi-channel park is described by all its channels, ``|``-joined,
        identically on both drivers (the event engine used to keep one)."""

        def waitany_ring(p):
            comm = NBComm(p)
            requests = [
                comm.irecv(src, tag=src) for src in range(p.nprocs) if src != p.rank
            ]
            yield from comm.waitany(requests)

        kwargs = {} if runner is run_spmd else {"deadlock_timeout": 0.2}
        with pytest.raises(DeadlockError) as err:
            runner(waitany_ring, Ring(3), **kwargs)
        assert err.value.blocked == {
            0: "recv(source=1, tag=1) | recv(source=2, tag=2)",
            1: "recv(source=0, tag=0) | recv(source=2, tag=2)",
            2: "recv(source=0, tag=0) | recv(source=1, tag=1)",
        }
        report = err.value.report
        assert report.blocked_ranks() == (0, 1, 2)
        assert len(report.blocked) == 6  # one entry per waited channel
        text = report.describe()
        assert "3/3 ranks blocked" in text
        assert "recv(source=1, tag=1) | recv(source=2, tag=2)" in text

    def test_error_message_still_lists_blocked_ranks(self):
        with pytest.raises(DeadlockError) as err:
            run_spmd(ring_wait, Ring(2))
        message = str(err.value)
        assert "P0" in message and "P1" in message


class TestBuildReport:
    def test_partial_deadlock_only_blocked_ranks_listed(self):
        report = build_report(
            nprocs=4,
            waiting={(2, 1, 0): 1, (1, 2, 5): 2},
            clocks=[0.0, 3.0, 7.0, 0.0],
            timed={2: 9.0},
            recent=[[] for _ in range(4)],
        )
        assert report.blocked_ranks() == (1, 2)
        assert report.cycles() == [(1, 2)]
        b2 = next(b for b in report.blocked if b.rank == 2)
        assert b2.deadline == 9.0
        assert "deadline=9" in b2.waiting_on()


class TestManyRankStress:
    def test_32_rank_threaded_ring_deadlock(self):
        report = _deadlock_report(run_spmd_threaded, ring_wait, 32,
                                  deadlock_timeout=0.1)
        assert report is not None
        assert report.blocked_ranks() == tuple(range(32))
        cycle = report.cycles()
        assert len(cycle) == 1 and len(cycle[0]) == 32
        text = report.describe()
        for rank in range(32):
            assert f"P{rank} " in text or f"P{rank}  " in text

    def test_32_rank_engine_matches_threaded(self):
        threaded = _deadlock_report(run_spmd_threaded, ring_wait, 32,
                                    deadlock_timeout=0.1)
        engine = _deadlock_report(run_spmd, ring_wait, 32)
        assert engine.as_dict() == threaded.as_dict()
