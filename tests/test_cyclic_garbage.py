"""Runs and cold compiles free what they built by reference counting.

Reference cycles outlive their last use until a full collection finds
them, and a full collection walks every live object.  Three sources made
one per operation: every engine run (``Engine.procs`` and each
``Proc._engine`` point at each other, so a run's whole per-rank state
waited for the collector), every loaded generated program (its entry
function and the namespace it was defined in) and compile helpers that
recursed through a closure calling itself (a function and its own
cell).  Under ``gc.DEBUG_SAVEALL`` a collection keeps what it found in
``gc.garbage``.  Processors and engines are matched by class, so a
subclass (the fault layer's ``FaultProc``, the ``threaded`` backend's
engine) cannot escape the check.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager

import numpy as np
import pytest

from repro.api import Session
from repro.codegen.runtime_api import RUNTIME_NAMESPACE
from repro.dp.algorithm1 import brute_force_min_cost
from repro.kernels import make_spd_system, resilient_jacobi
from repro.lang import gauss_program, jacobi_program, matmul_program, program_to_text, sor_program
from repro.lang.analysis import iteration_count, scalars_used
from repro.lang.transforms import specialize
from repro.machine import CheckpointStore, MachineModel, Ring, allreduce, run_resilient, run_spmd
from repro.errors import DeadlockError
from repro.machine.engine import Engine, Proc
from repro.machine.faults import FaultPlan
from repro.machine.resilient import ReliableTransport
from repro.machine.threaded import BACKENDS, run_spmd_threaded
from repro.pipeline.mapping import choose_mapping
from repro.service.plan import compile_plan

MODEL = MachineModel(tf=1, tc=10)

#: The compile helpers that once recursed through a self-referencing closure.
CLOSURES = {
    "exact_alignment.<locals>.recurse",
    "exact_alignment.<locals>.arrays_of",
    "_site_order.<locals>.visit",
    "scope_loops.<locals>.visit",
    "choose_mapping.<locals>.visit",
    "specialize.<locals>.visit",
    "scalars_used.<locals>.visit_stmts",
    "iteration_count.<locals>.count",
    "brute_force_min_cost.<locals>.compositions",
}

PAPER_RUNS = {
    "jacobi": (jacobi_program, {"m": 16, "maxiter": 2}),
    "sor": (sor_program, {"m": 16, "maxiter": 2}),
    "gauss": (gauss_program, {"m": 16}),
    "matmul": (matmul_program, {"n": 8}),
}


@contextmanager
def saved_garbage():
    """Collect, then yield the list the next collection fills."""
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        yield gc.garbage
    finally:
        gc.set_debug(0)
        gc.garbage.clear()


def summed(p, value):
    total = yield from allreduce(p, value, tuple(range(p.nprocs)))
    return total


#: A seeded plan that injects every message fate and a slowdown.
CHAOS = FaultPlan(
    seed=7, delay_prob=0.3, delay_max=20.0, drop_prob=0.2, duplicate_prob=0.2,
    slowdown=((1, 1.5),),
)


def machine_parts(garbage) -> list:
    """Processors and engines, subclasses included."""
    return [obj for obj in garbage if isinstance(obj, (Proc, Engine))]


def reliable_ring(p, value):
    """One sequenced transfer around the ring, then a plain allreduce."""
    tx = ReliableTransport()
    n = p.nprocs
    yield from tx.send(p, (p.rank + 1) % n, value, tag=2)
    got = yield from tx.recv(p, (p.rank - 1) % n, tag=2)
    return (yield from allreduce(p, got, tuple(range(n))))


def closures(garbage) -> set[str]:
    return {getattr(obj, "__qualname__", None) for obj in garbage if callable(obj)} & CLOSURES


def generated(garbage) -> list:
    """Generated entry functions, and the namespaces they were defined in."""
    return [
        obj for obj in garbage
        if getattr(getattr(obj, "__code__", None), "co_filename", "").startswith("<generated:")
        or (isinstance(obj, dict) and RUNTIME_NAMESPACE.keys() <= obj.keys())
    ]


@pytest.mark.parametrize("runner", [run_spmd, run_spmd_threaded], ids=["engine", "threaded"])
def test_a_run_leaves_no_processor_or_engine_behind(runner):
    with saved_garbage() as garbage:
        res = runner(summed, Ring(8), MODEL, args=(1.0,), trace=True)
        assert res.values == [8.0] * 8
        gc.collect()
        assert machine_parts(garbage) == []


@pytest.mark.parametrize("backend", ["engine", "threaded"])
def test_plan_run_leaves_no_processor_or_engine_behind(backend):
    plan = compile_plan(jacobi_program())
    with saved_garbage() as garbage:
        res = plan.run(4, {"m": 16, "maxiter": 2}, model=MODEL, backend=backend)
        assert res.values[0] is not None
        gc.collect()
        assert machine_parts(garbage) == []


@pytest.mark.parametrize("backend", sorted(BACKENDS))
def test_an_engine_the_caller_keeps_runs_again_and_frees_each_run(backend):
    engine = BACKENDS[backend](Ring(4), MODEL)
    with saved_garbage() as garbage:
        first = engine.run(summed, args=(2.0,))
        second = engine.run(summed, args=(2.0,))
        assert first.values == second.values == [8.0] * 4
        assert first.makespan == second.makespan
        gc.collect()
        assert machine_parts(garbage) == []


def test_a_failed_run_leaves_no_processor_behind():
    def stuck(p):
        yield from p.recv((p.rank - 1) % p.nprocs, tag=9)

    with saved_garbage() as garbage:
        for engine_cls in BACKENDS.values():
            with pytest.raises(DeadlockError):
                engine_cls(Ring(4)).run(stuck)
        gc.collect()
        assert machine_parts(garbage) == []


@pytest.mark.parametrize("runner", [run_spmd, run_spmd_threaded], ids=["engine", "threaded"])
def test_a_faulted_run_leaves_no_processor_or_engine_behind(runner):
    with saved_garbage() as garbage:
        res = runner(reliable_ring, Ring(8), MODEL, args=(1.0,), trace=True, faults=CHAOS)
        assert res.values == [8.0] * 8
        assert {"drop", "delay", "duplicate"} <= res.metrics.faults.keys()
        gc.collect()
        assert machine_parts(garbage) == []


@pytest.mark.parametrize("backend", sorted(BACKENDS))
def test_a_crash_and_restart_leave_no_processor_or_engine_behind(backend):
    A, b, _ = make_spd_system(16, seed=4)
    args = (A, b, np.zeros(16), 6)
    base = run_spmd(resilient_jacobi, Ring(4), MODEL, args=args)
    plan = FaultPlan(seed=2).with_crash(1, at_time=base.makespan * 0.6)
    with saved_garbage() as garbage:
        res = run_resilient(
            resilient_jacobi, Ring(4), MODEL, args=args,
            kwargs={"checkpoints": CheckpointStore(4), "interval": 2},
            plan=plan, backend=backend,
        )
        assert res.restarts == 1
        gc.collect()
        assert machine_parts(garbage) == []


def test_cold_compiles_leave_no_recursive_closure_behind():
    programs = [jacobi_program(), sor_program(), gauss_program(), matmul_program()]
    envs = [{"m": 32, "maxiter": 2}, {"m": 32, "maxiter": 2}, {"m": 24}, {"n": 16}]
    with saved_garbage() as garbage:
        session = Session(machine=MODEL, cache="off")
        for program, env in zip(programs, envs):
            assert session.compile(program_to_text(program), nprocs=4, env=env).outcome.cost > 0
        gc.collect()
        assert not closures(garbage)


def test_the_other_recursive_helpers_leave_no_closure_behind():
    gauss = gauss_program()
    with saved_garbage() as garbage:
        assert choose_mapping(gauss.loops()[0]).var == "i"
        assert specialize(gauss.loops()[0], {"m": 4}).ub.const == 4
        assert "omega" in scalars_used(sor_program())
        assert iteration_count(matmul_program().loops()[0], {"n": 2}) == 2 * 2 * (1 + 2)
        cost, segments = brute_force_min_cost(
            3, lambda i, j: j, lambda i, j: (i, j), lambda a, b: 1.0, lambda a, b: 0.0
        )
        assert (cost, segments) == (3.0, ((1, 3),))
        gc.collect()
        assert not closures(garbage)


@pytest.mark.parametrize("name", sorted(PAPER_RUNS))
def test_a_plan_run_leaves_no_generated_program_behind(name):
    program, env = PAPER_RUNS[name]
    plan = compile_plan(program())
    with saved_garbage() as garbage:
        assert plan.run(4, env, model=MODEL).values[0] is not None
        gc.collect()
        assert generated(garbage) == []
