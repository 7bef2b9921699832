"""The ``threaded`` backend: same programs, same numbers, errors drained.

The name is historical: the backend is the event engine plus its
error-draining rule and starts no OS thread (docs/ENGINE.md).
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.errors import DeadlockError
from repro.kernels import (
    cannon_matmul,
    gauss_pipelined,
    jacobi_rowdist,
    sor_pipelined,
)
from repro.kernels.cannon import assemble_blocks
from repro.machine import Grid2D, MachineModel, Ring, run_resilient, run_spmd
from repro.machine.threaded import ThreadedEngine, run_spmd_threaded

MODEL = MachineModel(tf=1, tc=10)


class TestParityWithDeterministicEngine:
    def test_jacobi_identical_results_and_clocks(self, medium_system):
        A, b, _ = medium_system
        args = (A, b, np.zeros(32), 10)
        det = run_spmd(jacobi_rowdist, Ring(4), MODEL, args=args)
        thr = run_spmd_threaded(jacobi_rowdist, Ring(4), MODEL, args=args)
        np.testing.assert_array_equal(det.value(0), thr.value(0))
        assert det.finish_times == thr.finish_times
        assert det.message_count == thr.message_count

    def test_sor_pipeline_identical(self, medium_system):
        A, b, _ = medium_system
        args = (A, b, np.zeros(32), 1.1, 5)
        det = run_spmd(sor_pipelined, Ring(8), MODEL, args=args)
        thr = run_spmd_threaded(sor_pipelined, Ring(8), MODEL, args=args)
        np.testing.assert_array_equal(det.value(0), thr.value(0))
        assert det.makespan == thr.makespan

    def test_gauss_pipeline_identical(self, medium_system):
        A, b, _ = medium_system
        det = run_spmd(gauss_pipelined, Ring(4), MODEL, args=(A, b))
        thr = run_spmd_threaded(gauss_pipelined, Ring(4), MODEL, args=(A, b))
        np.testing.assert_array_equal(det.value(0), thr.value(0))

    def test_cannon_identical(self, rng):
        n, q = 12, 2
        B = rng.random((n, n))
        C = rng.random((n, n))
        det = run_spmd(cannon_matmul, Grid2D(q, q), MODEL, args=(B, C, q))
        thr = run_spmd_threaded(cannon_matmul, Grid2D(q, q), MODEL, args=(B, C, q))
        np.testing.assert_array_equal(
            assemble_blocks(det.values, q), assemble_blocks(thr.values, q)
        )

    def test_generated_code_runs_threaded(self, medium_system):
        from repro.codegen import generate_spmd, load_generated
        from repro.lang import sor_program

        A, b, _ = medium_system
        fn = load_generated(generate_spmd(sor_program()))
        env = {"A": A, "B": b, "X0": np.zeros(32), "iterations": 4, "omega": 1.0}
        det = run_spmd(fn, Ring(4), MODEL, args=(env,))
        thr = run_spmd_threaded(fn, Ring(4), MODEL, args=(env,))
        np.testing.assert_array_equal(det.value(0), thr.value(0))


class TestThreadedSemantics:
    def test_plain_function_program(self):
        def prog(p):
            p.compute(10)
            return p.rank * 2

        res = run_spmd_threaded(prog, Ring(3), MODEL)
        assert res.values == [0, 2, 4]

    def test_per_rank_args(self):
        def prog(p, value):
            return value + p.rank
            yield  # pragma: no cover

        res = run_spmd_threaded(
            prog, Ring(2), MODEL, per_rank_args=[(10,), (20,)]
        )
        assert res.values == [10, 21]

    def test_trace_collection(self):
        def prog(p):
            p.compute(5, label="w")
            if p.rank == 0:
                p.send(1, 1.0)
            else:
                yield from p.recv(0)

        res = run_spmd_threaded(prog, Ring(2), MODEL, trace=True)
        assert [e.kind for e in res.trace[0]] == ["compute", "send"]
        assert [e.kind for e in res.trace[1]] == ["compute", "wait", "recv"]

    def test_worker_exception_propagates(self):
        def prog(p):
            if p.rank == 1:
                raise ValueError("boom")
            return None

        with pytest.raises(ValueError, match="boom"):
            run_spmd_threaded(prog, Ring(2), MODEL)

    def test_deadlock_detected(self):
        def prog(p):
            other = 1 - p.rank
            value = yield from p.recv(other)
            return value

        with pytest.raises(DeadlockError):
            run_spmd_threaded(prog, Ring(2), MODEL)

    def test_partial_deadlock_detected(self):
        def prog(p):
            if p.rank == 0:
                return "done"
            value = yield from p.recv(0, tag=9)
            return value

        with pytest.raises(DeadlockError):
            run_spmd_threaded(prog, Ring(2), MODEL)

    # No rank gets an OS thread, so no way in caps the machine size (the
    # thread backend stopped at 256) and every rank sees the thread count
    # the caller had.
    def _runs_without_threads(self, run):
        before = threading.active_count()
        res = run(lambda p: (p.rank, threading.active_count()))
        assert res.values == [(rank, before) for rank in range(300)]
        assert threading.active_count() == before

    def test_thread_cap(self):
        self._runs_without_threads(lambda prog: run_spmd_threaded(prog, Ring(300), MODEL))

    def test_thread_cap_direct_construction(self):
        self._runs_without_threads(ThreadedEngine(Ring(300), MODEL).run)

    def test_thread_cap_run_resilient(self):
        self._runs_without_threads(
            lambda prog: run_resilient(prog, Ring(300), MODEL, backend="threaded").result
        )
