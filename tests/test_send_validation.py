"""Endpoint validation parity: both backends reject bad channels alike.

The two backends share :meth:`Proc._check_channel`, so an out-of-range
destination, a self-send, a boolean rank, a negative or non-integer tag,
or a send on a tag reserved for acknowledgements must raise the *same*
:class:`~repro.errors.CommunicationError` text on the generator engine
and on real threads.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import CommunicationError
from repro.machine.engine import ACK_TAG_BASE, TIMED_OUT
from repro.machine import Ring, run_spmd
from repro.machine.threaded import run_spmd_threaded

RUNNERS = [
    pytest.param(run_spmd, id="engine"),
    pytest.param(run_spmd_threaded, id="threaded"),
]

N = 4


def _error_of(runner, prog):
    with pytest.raises(CommunicationError) as err:
        runner(prog, Ring(N))
    return str(err.value)


def _send_prog(dest, tag=0):
    def prog(p):
        if p.rank == 0:
            p.send(dest, 1.0, tag=tag)
        return None
        yield  # pragma: no cover - makes prog a generator

    return prog


def _recv_prog(source, tag=0):
    def prog(p):
        if p.rank == 0:
            yield from p.recv(source, tag=tag)

    return prog


BAD_CASES = [
    pytest.param(_send_prog(-1), "cannot send to rank -1", id="send-negative"),
    pytest.param(_send_prog(N), f"valid ranks are 0..{N - 1}", id="send-overflow"),
    pytest.param(_send_prog(0), "P0 attempted to send to itself", id="send-self"),
    pytest.param(_send_prog(True), "rank must be an integer", id="send-bool"),
    pytest.param(_send_prog("1"), "rank must be an integer", id="send-str"),
    pytest.param(_send_prog(1, tag=-3), "negative tag -3", id="send-negative-tag"),
    pytest.param(_recv_prog(-2), "cannot receive from rank -2", id="recv-negative"),
    pytest.param(_recv_prog(N + 1), f"valid ranks are 0..{N - 1}", id="recv-overflow"),
    pytest.param(
        _recv_prog(0), "P0 attempted to receive from itself", id="recv-self"
    ),
    pytest.param(_recv_prog(False), "rank must be an integer", id="recv-bool"),
    pytest.param(_recv_prog(1, tag=-1), "negative tag -1", id="recv-negative-tag"),
    pytest.param(_send_prog(1, tag=None), "tag None: tag must be an integer", id="send-none-tag"),
    pytest.param(_send_prog(1, tag="x"), "tag 'x': tag must be an integer", id="send-str-tag"),
    pytest.param(_send_prog(1, tag=1.5), "tag 1.5: tag must be an integer", id="send-float-tag"),
    pytest.param(_send_prog(1, tag=True), "tag True: tag must be an integer", id="send-bool-tag"),
    pytest.param(_recv_prog(1, tag=None), "tag None: tag must be an integer", id="recv-none-tag"),
    pytest.param(_recv_prog(1, tag="x"), "tag 'x': tag must be an integer", id="recv-str-tag"),
    pytest.param(_recv_prog(1, tag=1.5), "tag 1.5: tag must be an integer", id="recv-float-tag"),
    pytest.param(_recv_prog(1, tag=False), "tag False: tag must be an integer", id="recv-bool-tag"),
    pytest.param(
        _send_prog(1, tag=ACK_TAG_BASE), "reserved for acknowledgements", id="send-ack-tag"
    ),
    pytest.param(
        _send_prog(1, tag=ACK_TAG_BASE + 7), f"with tag {ACK_TAG_BASE + 7}", id="send-above-ack-tag"
    ),
]


class TestEndpointValidation:
    @pytest.mark.parametrize("runner", RUNNERS)
    @pytest.mark.parametrize("prog,fragment", BAD_CASES)
    def test_bad_endpoint_rejected(self, runner, prog, fragment):
        assert fragment in _error_of(runner, prog)

    @pytest.mark.parametrize("prog,fragment", BAD_CASES)
    def test_backends_raise_identical_messages(self, prog, fragment):
        assert _error_of(run_spmd, prog) == _error_of(run_spmd_threaded, prog)

    @pytest.mark.parametrize("runner", RUNNERS)
    def test_numpy_integer_rank_accepted(self, runner):
        def prog(p):
            if p.rank == 0:
                p.send(np.int64(1), 7.0, tag=int(np.int64(2)))
                return None
            if p.rank == 1:
                return (yield from p.recv(0, tag=2))
            return None

        assert runner(prog, Ring(N)).value(1) == 7.0

    @pytest.mark.parametrize("runner", RUNNERS)
    def test_receive_on_an_ack_tag_stays_legal(self, runner):
        """The reliable layer waits for acks with a plain timed receive."""

        def prog(p):
            if p.rank == 0:
                return (yield from p.recv_deadline(1, ACK_TAG_BASE + 3, deadline=5.0))
            return None

        assert runner(prog, Ring(N)).value(0) is TIMED_OUT

    @pytest.mark.parametrize("runner", RUNNERS)
    def test_validated_endpoints_are_cached(self, runner):
        """A second send or receive on a channel skips ``_check_channel``."""
        seen = {}

        def prog(p):
            if p.rank == 0:
                p.send(1, 1.0, tag=4)
                p.send(1, 2.0, tag=4)
                seen["send"] = set(p._ok_send)
                return None
            if p.rank == 1:
                yield from p.recv(0, tag=4)
                yield from p.recv(0, tag=4)
                seen["recv"] = set(p._ok_recv)
            return None

        runner(prog, Ring(N))
        assert seen == {"send": {(1, 4)}, "recv": {(0, 4)}}

    @pytest.mark.parametrize("runner", RUNNERS)
    def test_recv_deadline_validates_endpoint(self, runner):
        def prog(p):
            if p.rank == 0:
                yield from p.recv_deadline(0, deadline=10.0)

        assert "itself" in _error_of(runner, prog)

    @pytest.mark.parametrize("runner", RUNNERS)
    @pytest.mark.parametrize(
        "deadline", ["5", None, float("nan"), True, 2 + 0j], ids=repr
    )
    def test_bad_deadline_is_a_communication_error(self, runner, deadline):
        """Not a raw ``TypeError`` from the clock comparison — and a NaN,
        which compares false with everything, must not reach the deadline
        heap, where it would break every other waiter's order."""

        def prog(p):
            if p.rank == 2:
                yield from p.recv_deadline(1, tag=3, deadline=deadline)

        message = _error_of(runner, prog)
        assert message == (
            f"P2 cannot receive from P1 by deadline {deadline!r}: "
            "deadline must be a real number"
        )

    @pytest.mark.parametrize("runner", RUNNERS)
    def test_real_deadlines_of_any_numeric_type_stay_legal(self, runner):
        """Ints, numpy scalars and ``inf`` (wait until the machine stalls)."""

        def prog(p):
            if p.rank != 0:
                return None
            clocks = []
            for deadline in (3, np.float64(4.5), np.int64(6), float("inf")):
                got = yield from p.recv_deadline(1, tag=3, deadline=deadline)
                assert got is TIMED_OUT
                clocks.append(p.clock)
            return clocks

        assert runner(prog, Ring(N)).value(0) == [3, 4.5, 6, float("inf")]
