"""Runs and cold compiles free what they built by reference counting.

Reference cycles outlive their last use until a full collection finds
them, and a full collection walks every live object.  Two sources made
one per operation: every engine run (``Engine.procs`` and each
``Proc._engine`` point at each other, so a run's whole per-rank state
waited for the collector) and three compile helpers that recursed
through a closure calling itself (a function and its own cell).  Under
``gc.DEBUG_SAVEALL`` a collection keeps what it found in ``gc.garbage``.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager

import pytest

from repro.api import Session
from repro.lang import gauss_program, jacobi_program, matmul_program, program_to_text, sor_program
from repro.machine import MachineModel, Ring, allreduce, run_spmd
from repro.errors import DeadlockError
from repro.machine.threaded import BACKENDS, run_spmd_threaded
from repro.service.plan import compile_plan

MODEL = MachineModel(tf=1, tc=10)

#: The compile helpers that once recursed through a self-referencing closure.
CLOSURES = {
    "exact_alignment.<locals>.recurse",
    "exact_alignment.<locals>.arrays_of",
    "_site_order.<locals>.visit",
    "scope_loops.<locals>.visit",
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


def kinds(garbage) -> set[str]:
    return {type(obj).__name__ for obj in garbage}


@pytest.mark.parametrize("runner", [run_spmd, run_spmd_threaded], ids=["engine", "threaded"])
def test_a_run_leaves_no_processor_or_engine_behind(runner):
    with saved_garbage() as garbage:
        res = runner(summed, Ring(8), MODEL, args=(1.0,), trace=True)
        assert res.values == [8.0] * 8
        gc.collect()
        assert not kinds(garbage) & {"Proc", "Engine", "ThreadedEngine"}


@pytest.mark.parametrize("backend", ["engine", "threaded"])
def test_plan_run_leaves_no_processor_or_engine_behind(backend):
    plan = compile_plan(jacobi_program())
    with saved_garbage() as garbage:
        res = plan.run(4, {"m": 16, "maxiter": 2}, model=MODEL, backend=backend)
        assert res.values[0] is not None
        gc.collect()
        assert not kinds(garbage) & {"Proc", "Engine", "ThreadedEngine"}


@pytest.mark.parametrize("backend", sorted(BACKENDS))
def test_an_engine_the_caller_keeps_runs_again_and_frees_each_run(backend):
    engine = BACKENDS[backend](Ring(4), MODEL)
    with saved_garbage() as garbage:
        first = engine.run(summed, args=(2.0,))
        second = engine.run(summed, args=(2.0,))
        assert first.values == second.values == [8.0] * 4
        assert first.makespan == second.makespan
        gc.collect()
        assert "Proc" not in kinds(garbage)


def test_a_failed_run_leaves_no_processor_behind():
    def stuck(p):
        yield from p.recv((p.rank - 1) % p.nprocs, tag=9)

    with saved_garbage() as garbage:
        for engine_cls in BACKENDS.values():
            with pytest.raises(DeadlockError):
                engine_cls(Ring(4)).run(stuck)
        gc.collect()
        assert not kinds(garbage) & {"Proc", "Engine", "ThreadedEngine"}


def test_cold_compiles_leave_no_recursive_closure_behind():
    programs = [jacobi_program(), sor_program(), gauss_program(), matmul_program()]
    envs = [{"m": 32, "maxiter": 2}, {"m": 32, "maxiter": 2}, {"m": 24}, {"n": 16}]
    with saved_garbage() as garbage:
        session = Session(machine=MODEL, cache="off")
        for program, env in zip(programs, envs):
            assert session.compile(program_to_text(program), nprocs=4, env=env).outcome.cost > 0
        gc.collect()
        qualnames = {getattr(obj, "__qualname__", None) for obj in garbage if callable(obj)}
        assert not qualnames & CLOSURES
