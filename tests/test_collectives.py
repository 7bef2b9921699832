"""Collective correctness and Table 1 cost shapes on the simulator."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CommunicationError
from repro.machine import (
    Hypercube,
    MachineModel,
    Ring,
    allgather,
    allreduce,
    bcast,
    reduce,
    run_spmd,
    shift,
)
from repro.machine.nonblocking import PostedTransport
from repro.machine.resilient import ReliableTransport
from repro.machine.collectives import Transport, affine_transform, barrier, gather, scatter
from repro.machine.threaded import run_spmd_threaded
from repro.machine.faults import FaultPlan


def run_collective(prog, nprocs, model=None, topo=None):
    topo = topo or Ring(nprocs)
    return run_spmd(prog, topo, model or MachineModel(tf=1, tc=1))


class TestBcast:
    @pytest.mark.parametrize("nprocs", [1, 2, 3, 4, 7, 8])
    @pytest.mark.parametrize("root", [0, 1])
    def test_value_everywhere(self, nprocs, root):
        root = min(root, nprocs - 1)
        group = tuple(range(nprocs))

        def prog(p):
            data = np.arange(3.0) if p.rank == root else None
            value = yield from bcast(p, data, root=root, group=group)
            return value.tolist()

        res = run_collective(prog, nprocs)
        assert all(v == [0.0, 1.0, 2.0] for v in res.values)

    def test_log_rounds_cost(self):
        """Broadcast of m words to P procs: O(m log P) critical path.

        Each tree level costs one send + one receive occupancy (2 m tc),
        so the makespan is exactly 2 * m * ceil(log2 P) with tc=1.
        """
        m, P = 64, 8
        group = tuple(range(P))

        def prog(p):
            data = np.zeros(m) if p.rank == 0 else None
            yield from bcast(p, data, root=0, group=group)
            return p.clock

        res = run_collective(prog, P, topo=Hypercube(3))
        assert res.makespan == 2 * m * math.ceil(math.log2(P))

    def test_subgroup(self):
        group = (1, 3)

        def prog(p):
            if p.rank in group:
                value = yield from bcast(p, p.rank if p.rank == 3 else None, root=3, group=group)
                return value
            return "outside"

        res = run_collective(prog, 4)
        assert res.values == ["outside", 3, "outside", 3]

    def test_nonmember_error(self):
        def prog(p):
            # Rank 2 calls a collective over a group it is not part of.
            group = (0, 1) if p.rank < 2 else (0, 1)
            if p.rank == 2:
                value = yield from bcast(p, None, root=0, group=group)
            else:
                value = yield from bcast(p, 5 if p.rank == 0 else None, root=0, group=group)
            return value

        with pytest.raises(CommunicationError):
            run_collective(prog, 3)


class TestReduce:
    @pytest.mark.parametrize("nprocs", [1, 2, 5, 8])
    def test_sum_scalar(self, nprocs):
        group = tuple(range(nprocs))

        def prog(p):
            total = yield from reduce(p, float(p.rank + 1), root=0, group=group)
            return total

        res = run_collective(prog, nprocs)
        assert res.values[0] == nprocs * (nprocs + 1) / 2
        assert all(v is None for v in res.values[1:])

    def test_sum_arrays(self):
        group = (0, 1, 2, 3)

        def prog(p):
            total = yield from reduce(p, np.full(4, float(p.rank)), root=2, group=group)
            return None if total is None else total.tolist()

        res = run_collective(prog, 4)
        assert res.values[2] == [6.0, 6.0, 6.0, 6.0]

    def test_custom_op(self):
        group = (0, 1, 2)

        def prog(p):
            value = yield from reduce(p, p.rank + 5, root=0, group=group, op=max)
            return value

        res = run_collective(prog, 3)
        assert res.values[0] == 7

    def test_reduce_charges_flops(self):
        """Combining partial arrays costs one flop per element."""
        group = (0, 1)

        def prog(p):
            yield from reduce(p, np.zeros(8), root=0, group=group)
            return p.clock

        res = run_collective(prog, 2)
        # root waits for sender injection (8), pays recv occupancy (8),
        # then 8 combine flops.
        assert res.values[0] == 24.0


class TestRootAndMembershipValidation:
    """Regression: bad roots raised a bare ValueError from list.index, and
    single-member early returns skipped membership validation entirely."""

    def test_bcast_root_outside_group(self):
        def prog(p):
            if p.rank in (0, 1):
                value = yield from bcast(p, p.rank, root=2, group=(0, 1))
                return value
            return None

        with pytest.raises(CommunicationError, match="root"):
            run_collective(prog, 3)

    def test_reduce_root_outside_group(self):
        def prog(p):
            if p.rank in (0, 1):
                value = yield from reduce(p, 1.0, root=2, group=(0, 1))
                return value
            return None

        with pytest.raises(CommunicationError, match="root"):
            run_collective(prog, 3)

    def test_gather_single_member_group_rejects_nonmember(self):
        def prog(p):
            if p.rank == 1:
                out = yield from gather(p, 1.0, root=0, group=(0,))
                return out
            return None

        with pytest.raises(CommunicationError):
            run_collective(prog, 2)

    def test_scatter_single_member_group_rejects_nonmember(self):
        def prog(p):
            if p.rank == 1:
                value = yield from scatter(p, [1.0], root=0, group=(0,))
                return value
            return None

        with pytest.raises(CommunicationError):
            run_collective(prog, 2)

    def test_scatter_single_member_root_outside_group(self):
        def prog(p):
            if p.rank == 0:
                value = yield from scatter(p, [1.0], root=1, group=(0,))
                return value
            return None

        with pytest.raises(CommunicationError, match="root"):
            run_collective(prog, 2)

    def test_shift_identity_rejects_nonmember(self):
        def prog(p):
            if p.rank == 2:
                # delta % n == 0: previously returned the data untouched
                # without checking membership at all.
                value = yield from shift(p, p.rank, (0, 1), delta=2)
                return value
            return None

        with pytest.raises(CommunicationError):
            run_collective(prog, 3)


class TestAllreduceGatherScatter:
    def test_allreduce(self):
        group = tuple(range(6))

        def prog(p):
            value = yield from allreduce(p, 1.0, group)
            return value

        res = run_collective(prog, 6)
        assert all(v == 6.0 for v in res.values)

    def test_gather_in_group_order(self):
        group = (2, 0, 1)

        def prog(p):
            out = yield from gather(p, p.rank * 10, root=0, group=group)
            return out

        res = run_collective(prog, 3)
        assert res.values[0] == [20, 0, 10]
        assert res.values[1] is None

    def test_scatter(self):
        group = tuple(range(4))

        def prog(p):
            items = [10, 11, 12, 13] if p.rank == 0 else None
            value = yield from scatter(p, items, root=0, group=group)
            return value

        res = run_collective(prog, 4)
        assert res.values == [10, 11, 12, 13]

    def test_scatter_wrong_count(self):
        def prog(p):
            items = [1] if p.rank == 0 else None
            value = yield from scatter(p, items, root=0, group=(0, 1))
            return value

        with pytest.raises(CommunicationError):
            run_collective(prog, 2)

    def test_gather_linear_cost(self):
        """Gather(m, P) ~ (P-1) * m * tc at the root."""
        m, P = 32, 4
        group = tuple(range(P))

        def prog(p):
            yield from gather(p, np.zeros(m), root=0, group=group)
            return p.clock

        res = run_collective(prog, P)
        # P-1 receive occupancies, plus the initial m-word injection wait.
        assert res.values[0] == (P - 1) * m + m


class TestAllgatherShift:
    @pytest.mark.parametrize("nprocs", [1, 2, 4, 5])
    def test_allgather_order(self, nprocs):
        group = tuple(range(nprocs))

        def prog(p):
            blocks = yield from allgather(p, p.rank, group)
            return blocks

        res = run_collective(prog, nprocs)
        assert all(v == list(range(nprocs)) for v in res.values)

    def test_allgather_cost_linear(self):
        m, P = 16, 8
        group = tuple(range(P))

        def prog(p):
            yield from allgather(p, np.zeros(m), group)
            return p.clock

        res = run_collective(prog, P, topo=Hypercube(3))
        # ring allgather: P-1 steps, each send m + recv m on the critical path
        assert res.makespan == (P - 1) * 2 * m

    @pytest.mark.parametrize("delta", [1, -1, 2])
    def test_shift(self, delta):
        group = tuple(range(5))

        def prog(p):
            value = yield from shift(p, p.rank, group, delta=delta)
            return value

        res = run_collective(prog, 5)
        assert res.values == [(r - delta) % 5 for r in range(5)]

    def test_shift_identity(self):
        group = tuple(range(3))

        def prog(p):
            value = yield from shift(p, p.rank, group, delta=3)
            return value

        res = run_collective(prog, 3)
        assert res.values == [0, 1, 2]


class TestAffineTransformBarrier:
    def test_permutation(self):
        group = tuple(range(4))

        def prog(p):
            value = yield from affine_transform(p, p.rank, group, lambda i: (i + 2) % 4)
            return value

        res = run_collective(prog, 4)
        assert res.values == [2, 3, 0, 1]

    def test_non_permutation_rejected(self):
        def prog(p):
            value = yield from affine_transform(p, p.rank, (0, 1), lambda i: 0)
            return value

        with pytest.raises(CommunicationError):
            run_collective(prog, 2)

    @pytest.mark.parametrize("nprocs", [2, 3, 5, 8])
    def test_barrier_synchronizes_clocks(self, nprocs):
        group = tuple(range(nprocs))

        def prog(p):
            p.compute(100 * (p.rank + 1))
            yield from barrier(p, group)
            return p.clock

        res = run_collective(prog, nprocs)
        assert all(v >= 100 * nprocs for v in res.values)


class TestPropertyBased:
    @settings(max_examples=25, deadline=None)
    @given(
        nprocs=st.integers(1, 9),
        root=st.integers(0, 8),
        payload=st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=8),
    )
    def test_bcast_any_root(self, nprocs, root, payload):
        root %= nprocs
        group = tuple(range(nprocs))

        def prog(p):
            data = list(payload) if p.rank == root else None
            value = yield from bcast(p, data, root=root, group=group)
            return value

        res = run_collective(prog, nprocs)
        assert all(v == payload for v in res.values)

    @settings(max_examples=25, deadline=None)
    @given(nprocs=st.integers(1, 9), seed=st.integers(0, 100))
    def test_reduce_equals_numpy(self, nprocs, seed):
        rng = np.random.default_rng(seed)
        locals_ = rng.integers(-100, 100, size=(nprocs, 3)).astype(float)
        group = tuple(range(nprocs))

        def prog(p):
            total = yield from reduce(p, locals_[p.rank].copy(), root=0, group=group)
            return total

        res = run_collective(prog, nprocs)
        np.testing.assert_allclose(res.values[0], locals_.sum(axis=0))


class TestTransportSeam:
    """``post_recv`` / ``complete``: one kernel body, three transports."""

    RUNNERS = [run_spmd, run_spmd_threaded]

    @pytest.mark.parametrize("runner", RUNNERS)
    @pytest.mark.parametrize("alpha", [0.0, 25.0])
    def test_posted_transport_under_collectives_equals_plain(self, runner, alpha):
        group = tuple(range(5))

        def prog(p, posted):
            tx = PostedTransport(p) if posted else None
            blocks = yield from allgather(
                p, np.arange(3.0) + 10 * p.rank, group, transport=tx
            )
            word = yield from bcast(
                p, 42.0 if p.rank == 2 else None, 2, group, transport=tx
            )
            return np.concatenate(blocks), word

        model = MachineModel(tf=1, tc=10, alpha=alpha)
        plain = runner(prog, Ring(5), model, args=(False,))
        posted = runner(prog, Ring(5), model, args=(True,))
        for (a, wa), (b, wb) in zip(plain.values, posted.values):
            np.testing.assert_array_equal(a, b)
            assert wa == wb == 42.0
        assert posted.message_words == plain.message_words
        assert posted.message_count == plain.message_count

    @pytest.mark.parametrize("runner", RUNNERS)
    def test_plain_complete_after_intervening_sends_keeps_channel_fifo(self, runner):
        tx = Transport()

        def prog(p):
            if p.rank == 0:
                for k in range(3):
                    yield from tx.send(p, 1, (1, k), tag=1)
                    yield from tx.send(p, 1, (2, k), tag=2)
                first = yield from tx.recv(p, 1, tag=3)
                return [first, (yield from tx.recv(p, 1, tag=3))]
            # Post both channels up front, then send before completing:
            # a plain handle defers the receive, so nothing is consumed
            # out of order and each channel still drains first-in first-out.
            ha, hb = tx.post_recv(p, 0, tag=1), tx.post_recv(p, 0, tag=2)
            yield from tx.send(p, 0, -1, tag=3)
            got = [(yield from tx.complete(p, hb))]
            yield from tx.send(p, 0, -2, tag=3)
            got.append((yield from tx.complete(p, ha)))
            for tag in (1, 2, 1, 2):
                got.append((yield from tx.complete(p, tx.post_recv(p, 0, tag=tag))))
            return got

        res = runner(prog, Ring(2), MachineModel(tf=1, tc=1))
        assert res.value(0) == [-1, -2]
        assert res.value(1) == [(2, 0), (1, 0), (1, 1), (2, 1), (1, 2), (2, 2)]

    @pytest.mark.parametrize("runner", RUNNERS)
    def test_reliable_post_complete_is_its_recv(self, runner):
        plan = FaultPlan(seed=5, drop_prob=0.3, duplicate_prob=0.3)

        def prog(p, split):
            tx = ReliableTransport()
            if p.rank == 0:
                for k in range(6):
                    yield from tx.send(p, 1, float(k), tag=4)
                return None
            got = []
            for _ in range(6):
                if split:
                    handle = tx.post_recv(p, 0, tag=4)
                    p.compute(7, label="work")
                    got.append((yield from tx.complete(p, handle)))
                else:
                    p.compute(7, label="work")
                    got.append((yield from tx.recv(p, 0, tag=4)))
            return got

        model = MachineModel(tf=1, tc=10)
        whole = runner(prog, Ring(2), model, args=(False,), faults=plan, trace=True)
        split = runner(prog, Ring(2), model, args=(True,), faults=plan, trace=True)
        assert split.value(1) == whole.value(1) == [float(k) for k in range(6)]
        assert split.makespan == whole.makespan
        assert split.metrics.faults == whole.metrics.faults
        for lane_a, lane_b in zip(whole.trace, split.trace):
            assert [e.as_dict() for e in lane_a] == [e.as_dict() for e in lane_b]
