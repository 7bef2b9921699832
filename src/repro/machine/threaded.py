"""The ``"threaded"`` backend: the event engine with error draining.

The name is historical.  This backend once ran one OS thread per rank
to check that results do not depend on the order in which ready ranks
run; a host thread schedule neither reproduces nor, in practice,
perturbs that order, so the order contract is now checked by seeded
shuffles of the engine's ready order in the tests (docs/ENGINE.md).
What stays is the one rule that is observably this backend's own:

* **error draining** — a program error stops only its rank; the other
  ranks run on until they finish or block, and the run then raises the
  lowest rank's injected crash (the root cause: peers that deadlock or
  fail on it are collateral), else the lowest rank's error, else the
  deadlock.

:class:`~repro.machine.engine.Engine` itself raises the first error in
ready order and stops there.
"""

from __future__ import annotations

from collections.abc import Callable, Generator
from typing import Any

from repro.errors import DeadlockError, RankCrashedError
from repro.machine.engine import Engine, Proc, RunResult
from repro.machine.faults import FaultPlan
from repro.machine.model import MachineModel
from repro.machine.topology import Topology


class ThreadedEngine(Engine):
    """:class:`~repro.machine.engine.Engine` whose program errors drain."""

    def run(
        self,
        program: Callable[..., Generator],
        args: tuple = (),
        kwargs: dict | None = None,
        per_rank_args: list[tuple] | None = None,
    ) -> RunResult:
        errors: list[Exception | None] = [None] * self.topology.size

        def drained(proc: Proc, *rank_args: Any, **rank_kwargs: Any) -> Generator:
            """*program* on one rank, its error recorded instead of raised."""
            try:
                result = program(proc, *rank_args, **rank_kwargs)
                return (yield from result) if isinstance(result, Generator) else result
            except Exception as exc:  # noqa: BLE001 - raised by ``run``
                errors[proc.rank] = exc

        try:
            try:
                result = super().run(drained, args, kwargs, per_rank_args)
            except DeadlockError:
                if not any(errors):
                    raise
            crashes = [exc for exc in errors if isinstance(exc, RankCrashedError)]
            failed = crashes or [exc for exc in errors if exc is not None]
            if failed:
                raise failed[0]
            return result
        finally:
            # Each error's traceback holds this frame and ``drained``'s,
            # which hold the error lists: drop them, or every failed run
            # is a reference cycle.
            errors = failed = crashes = None  # noqa: F841


#: The execution backends by name.  Every boundary that takes a backend
#: name (``Plan.run``, ``run_resilient``, ``dp.validate``, the report
#: tool) looks it up here.
BACKENDS: dict[str, type[Engine]] = {"engine": Engine, "threaded": ThreadedEngine}


def run_spmd_threaded(
    program: Callable[..., Generator],
    topology: Topology,
    model: MachineModel | None = None,
    args: tuple = (),
    kwargs: dict | None = None,
    per_rank_args: list[tuple] | None = None,
    trace: bool = False,
    faults: FaultPlan | None = None,
) -> RunResult:
    """:func:`repro.machine.run_spmd` on the draining backend."""
    engine = ThreadedEngine(topology, model=model, trace=trace, faults=faults)
    return engine.run(program, args=args, kwargs=kwargs, per_rank_args=per_rank_args)
