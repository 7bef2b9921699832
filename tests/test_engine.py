"""Engine semantics: message passing, clocks, determinism, deadlock."""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.errors import CommunicationError, DeadlockError
from repro.machine import Linear, MachineModel, Ring, allreduce, run_spmd
from repro.machine.engine import Engine, _payload_words


class TestPayloadWords:
    def test_array(self):
        assert _payload_words(np.zeros((3, 4))) == 12

    def test_scalar(self):
        assert _payload_words(3.14) == 1
        assert _payload_words(np.float64(1.0)) == 1

    def test_tuple(self):
        assert _payload_words((np.zeros(5), 1.0)) == 6

    def test_none(self):
        assert _payload_words(None) == 0

    def test_unknown_type_rejected(self):
        with pytest.raises(CommunicationError):
            _payload_words(object())

    def test_bool(self):
        assert _payload_words(True) == 1
        assert _payload_words(np.bool_(False)) == 1

    def test_dict(self):
        assert _payload_words({"x": np.zeros(4), "flag": True, "n": 2}) == 6
        assert _payload_words({}) == 0

    def test_nested_dict_failure_names_offending_key(self):
        with pytest.raises(CommunicationError) as err:
            _payload_words({"meta": {"bad": object()}})
        assert "payload['meta']['bad']" in str(err.value)
        assert "object" in str(err.value)

    def test_nested_list_failure_names_offending_index(self):
        with pytest.raises(CommunicationError) as err:
            _payload_words([1.0, (2.0, object())])
        assert "payload[1][1]" in str(err.value)

    def test_index_array(self):
        # The inspector ships int64 gather index vectors verbatim.
        assert _payload_words(np.arange(7, dtype=np.int64)) == 7
        assert _payload_words(np.array([], dtype=np.int64)) == 0

    def test_object_array_counts_referents(self):
        # A ragged object array of index vectors stores references;
        # size alone (3) would undercount the 2+4+1 referent words.
        ragged = np.empty(3, dtype=object)
        ragged[0] = np.arange(2, dtype=np.int64)
        ragged[1] = np.arange(4, dtype=np.int64)
        ragged[2] = 5.0
        assert _payload_words(ragged) == 7

    def test_object_array_failure_names_offending_index(self):
        ragged = np.empty(2, dtype=object)
        ragged[0] = 1.0
        ragged[1] = object()
        with pytest.raises(CommunicationError) as err:
            _payload_words(ragged)
        assert "payload[1]" in str(err.value)

    def test_structured_array_counts_fields(self):
        # .size counts records (3), not the 2 fields per record.
        rec = np.zeros(3, dtype=[("idx", np.int64), ("val", np.float64)])
        assert _payload_words(rec) == 6

    def test_structured_scalar(self):
        rec = np.zeros(2, dtype=[("idx", np.int64), ("val", np.float64)])
        assert _payload_words(rec[0]) == 2

    def test_structured_failure_names_offending_field(self):
        rec = np.zeros(2, dtype=[("idx", np.int64), ("blob", object)])
        rec["blob"][1] = object()
        with pytest.raises(CommunicationError) as err:
            _payload_words({"msg": rec})
        assert "payload['msg']['blob'][1]" in str(err.value)

    REC = np.zeros(3, dtype=[("idx", np.int64), ("val", np.float64, (2,))])
    RAGGED = np.empty(2, dtype=object)
    RAGGED[0], RAGGED[1] = (np.zeros(3), 1), {"k": [None, 2.0]}

    @pytest.mark.parametrize(
        "payload,words",
        [
            (np.float64(2.0) * np.ones(()), 1),  # 0-d array
            (np.zeros((2, 0, 3)), 0),
            (np.ones(5, dtype=np.float32), 5),
            (np.ones(4, dtype=bool), 4),
            (np.ones(3, dtype=complex), 3),
            (np.array([b"ab", b"c"]), 2),  # neither numeric, object nor structured
            (np.zeros(6)[::2], 3),  # a view sizes like the array it shows
            (REC, 3 + 6),  # a sub-array field counts every element
            (REC[1], 1 + 2),
            (RAGGED, 3 + 1 + 0 + 1),
            (2 + 3j, 1),
            (np.int32(4), 1),
            ([], 0),
            ([None, None], 0),
            ({"a": [1.0, (np.zeros(2), {"b": REC[0]})], 7: np.zeros(())}, 1 + 2 + 3 + 1),
        ],
    )
    def test_word_count_table(self, payload, words):
        assert _payload_words(payload) == words

    def test_unsizable_leaf_reports_its_full_path(self):
        with pytest.raises(CommunicationError) as err:
            _payload_words({"a": [1.0, np.zeros(2), "text"]})
        assert str(err.value) == (
            "cannot infer word count for payload['a'][2] of type str; pass words="
        )
        # ... and keeps it across a process boundary (pool workers pickle errors)
        assert str(pickle.loads(pickle.dumps(err.value))) == str(err.value)
        with pytest.raises(CommunicationError, match=r"for payload of type set;"):
            _payload_words({1, 2})

    def test_dict_payload_round_trips(self, unit_model):
        def prog(p):
            if p.rank == 0:
                p.send(1, {"x": np.arange(3.0), "ok": True})
                return None
            got = yield from p.recv(0)
            return got

        got = run_spmd(prog, Ring(2), unit_model).value(1)
        assert got["ok"] is True
        np.testing.assert_array_equal(got["x"], np.arange(3.0))


class TestScoped:
    def test_nests_and_restores(self, unit_model):
        p = Engine(Ring(2), unit_model).procs[0]
        with p.scoped("allreduce") as entered:
            assert entered is p and p.scope == "allreduce"
            with p.scoped("reduce"):
                assert p.scope == "allreduce/reduce"
            assert p.scope == "allreduce"
        assert p.scope == ""

    def test_label_applies_on_entry_not_on_call(self, unit_model):
        p = Engine(Ring(2), unit_model).procs[0]
        scope = p.scoped("bcast")
        assert p.scope == ""
        with scope:
            assert p.scope == "bcast"

    def test_exception_inside_the_block_restores(self, unit_model):
        p = Engine(Ring(2), unit_model).procs[0]
        with p.scoped("outer"):
            with pytest.raises(ZeroDivisionError):
                with p.scoped("inner"):
                    1 / 0
            assert p.scope == "outer"
        assert p.scope == ""

    def test_closing_a_rank_parked_mid_collective_restores(self, unit_model):
        """``gen.close()`` raises ``GeneratorExit`` at the parked receive,
        two scopes deep; both must unwind."""
        p = Engine(Ring(2), unit_model).procs[0]
        gen = allreduce(p, 1.0, (0, 1))
        next(gen)  # rank 0 parks in the reduce phase waiting for rank 1
        assert p.scope == "allreduce/reduce"
        gen.close()
        assert p.scope == ""

    def test_collective_events_carry_the_nested_label(self, unit_model):
        def prog(p):
            return (yield from allreduce(p, float(p.rank), tuple(range(p.nprocs))))

        res = run_spmd(prog, Ring(4), unit_model)
        assert res.values == [6.0] * 4
        assert set(res.metrics.by_collective) == {"allreduce/reduce", "allreduce/bcast"}


class TestPointToPoint:
    def test_basic_send_recv(self, unit_model):
        def prog(p):
            if p.rank == 0:
                p.send(1, 42.0)
                return None
            value = yield from p.recv(0)
            return value

        res = run_spmd(prog, Ring(2), unit_model)
        assert res.values[1] == 42.0

    def test_fifo_per_channel(self, unit_model):
        def prog(p):
            if p.rank == 0:
                for i in range(5):
                    p.send(1, float(i))
                return None
            got = []
            for _ in range(5):
                value = yield from p.recv(0)
                got.append(value)
            return got

        res = run_spmd(prog, Ring(2), unit_model)
        assert res.values[1] == [0.0, 1.0, 2.0, 3.0, 4.0]

    def test_tags_separate_channels(self, unit_model):
        def prog(p):
            if p.rank == 0:
                p.send(1, "a", words=1, tag=1)
                p.send(1, "b", words=1, tag=2)
                return None
            second = yield from p.recv(0, tag=2)
            first = yield from p.recv(0, tag=1)
            return (first, second)

        res = run_spmd(prog, Ring(2), unit_model)
        assert res.values[1] == ("a", "b")

    def test_payload_snapshot(self, unit_model):
        """Mutating the array after send must not corrupt the message."""

        def prog(p):
            if p.rank == 0:
                data = np.ones(4)
                p.send(1, data)
                data[:] = -1
                return None
            value = yield from p.recv(0)
            return value.tolist()

        res = run_spmd(prog, Ring(2), unit_model)
        assert res.values[1] == [1.0, 1.0, 1.0, 1.0]

    def test_self_send_rejected(self, unit_model):
        def prog(p):
            p.send(p.rank, 1.0)
            return None
            yield  # pragma: no cover

        with pytest.raises(CommunicationError):
            run_spmd(prog, Ring(2), unit_model)

    def test_self_recv_rejected(self, unit_model):
        def prog(p):
            value = yield from p.recv(p.rank)
            return value

        with pytest.raises(CommunicationError):
            run_spmd(prog, Ring(2), unit_model)


class TestClocks:
    def test_compute_advances_clock(self, unit_model):
        def prog(p):
            p.compute(100)
            return p.clock
            yield  # pragma: no cover

        res = run_spmd(prog, Ring(1), unit_model)
        assert res.finish_times[0] == 100.0

    def test_send_occupancy(self):
        model = MachineModel(tf=1, tc=2, alpha=5)

        def prog(p):
            if p.rank == 0:
                p.send(1, np.zeros(10))  # 5 + 10*2 = 25
            else:
                yield from p.recv(0)
            return p.clock

        res = run_spmd(prog, Ring(2), model)
        assert res.values[0] == 25.0
        # receiver: waits until 25, pays 5 + 20 again
        assert res.values[1] == 50.0

    def test_recv_does_not_wait_if_message_early(self, unit_model):
        def prog(p):
            if p.rank == 0:
                p.send(1, 1.0)  # available at t=1
            else:
                p.compute(100)
                value = yield from p.recv(0)
                assert value == 1.0
            return p.clock

        res = run_spmd(prog, Ring(2), unit_model)
        assert res.values[1] == 101.0  # no waiting, just 1 word recv

    def test_overlap_reduces_occupancy(self):
        model = MachineModel(tf=1, tc=2, alpha=3, overlap=True)

        def prog(p):
            if p.rank == 0:
                p.send(1, np.zeros(10))
            else:
                yield from p.recv(0)
            return p.clock

        res = run_spmd(prog, Ring(2), model)
        assert res.values[0] == 3.0  # alpha only
        # latency unchanged: 3 (occupancy) + 3+20 (wire) then alpha recv
        assert res.values[1] == 26.0 + 3.0

    def test_hop_cost(self):
        model = MachineModel(tf=1, tc=1, hop_cost=7)

        def prog(p):
            if p.rank == 0:
                p.send(2, 1.0)  # 2 hops on a linear array -> 1 extra hop
            elif p.rank == 2:
                yield from p.recv(0)
            return p.clock

        res = run_spmd(prog, Linear(3), model)
        assert res.values[2] == 1.0 + 7.0 + 1.0

    def test_makespan(self, unit_model):
        def prog(p):
            p.compute(10 * (p.rank + 1))
            return None
            yield  # pragma: no cover

        res = run_spmd(prog, Ring(3), unit_model)
        assert res.makespan == 30.0


class TestDeterminism:
    def test_identical_reruns(self, model, small_system):
        from repro.kernels import sor_pipelined

        A, b, _ = small_system
        runs = [
            run_spmd(sor_pipelined, Ring(4), model, args=(A, b, np.zeros(16), 1.0, 3))
            for _ in range(2)
        ]
        assert runs[0].finish_times == runs[1].finish_times
        assert np.array_equal(runs[0].value(0), runs[1].value(0))
        assert runs[0].message_count == runs[1].message_count


class TestDeadlock:
    def test_mutual_recv_deadlocks(self, unit_model):
        def prog(p):
            other = 1 - p.rank
            value = yield from p.recv(other)
            return value

        with pytest.raises(DeadlockError) as exc:
            run_spmd(prog, Ring(2), unit_model)
        assert 0 in exc.value.blocked and 1 in exc.value.blocked

    def test_partial_deadlock_detected(self, unit_model):
        def prog(p):
            if p.rank == 0:
                return "done"
            value = yield from p.recv(0, tag=99)
            return value

        with pytest.raises(DeadlockError):
            run_spmd(prog, Ring(2), unit_model)


class TestRunHarness:
    def test_per_rank_args(self, unit_model):
        def prog(p, value):
            return value * 2
            yield  # pragma: no cover

        res = run_spmd(prog, Ring(3), unit_model, per_rank_args=[(1,), (2,), (3,)])
        assert res.values == [2, 4, 6]

    def test_plain_function_program(self, unit_model):
        def prog(p):
            p.compute(5)
            return p.rank

        res = run_spmd(prog, Ring(2), unit_model)
        assert res.values == [0, 1]

    def test_message_stats(self, unit_model):
        def prog(p):
            if p.rank == 0:
                p.send(1, np.zeros(7))
            else:
                yield from p.recv(0)

        res = run_spmd(prog, Ring(2), unit_model)
        assert res.message_count == 1 and res.message_words == 7

    def test_trace_collection(self, unit_model):
        def prog(p):
            p.compute(3, label="work")
            if p.rank == 0:
                p.send(1, 1.0)
            else:
                yield from p.recv(0)

        res = run_spmd(prog, Ring(2), unit_model, trace=True)
        kinds0 = [e.kind for e in res.trace[0]]
        assert kinds0 == ["compute", "send"]
        # The message becomes available at t=4 while P1 blocks at t=3:
        # the receive splits into an idle wait and the actual drain.
        kinds1 = [e.kind for e in res.trace[1]]
        assert kinds1 == ["compute", "wait", "recv"]
        wait, recv = res.trace[1][1], res.trace[1][2]
        assert (wait.start, wait.end) == (3.0, 4.0)
        assert (recv.start, recv.end) == (4.0, 5.0)

    def test_recv_trace_no_wait_when_message_early(self, unit_model):
        def prog(p):
            if p.rank == 0:
                p.send(1, 1.0)
            else:
                p.compute(100)
                yield from p.recv(0)

        res = run_spmd(prog, Ring(2), unit_model, trace=True)
        assert [e.kind for e in res.trace[1]] == ["compute", "recv"]

    def test_engine_reuse_resets_state(self, unit_model):
        """Regression: counters, clocks and traces must not leak between
        repeated run() calls on the same Engine."""
        from repro.machine.engine import Engine

        def prog(p):
            p.compute(2)
            if p.rank == 0:
                p.send(1, np.zeros(7))
            else:
                yield from p.recv(0)

        engine = Engine(Ring(2), unit_model, trace=True)
        first = engine.run(prog)
        second = engine.run(prog)
        assert second.message_count == first.message_count == 1
        assert second.message_words == first.message_words == 7
        assert second.finish_times == first.finish_times
        assert [len(lane) for lane in second.trace] == [len(lane) for lane in first.trace]
        # Results of the first run must stay intact after the second.
        assert first.message_count == 1 and len(first.trace[0]) == 2
        assert first.metrics is not second.metrics
        assert first.metrics.message_count == second.metrics.message_count == 1
