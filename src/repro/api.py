"""The stable facade over the compile service.

Two journeys cover most uses::

    from repro.api import Session, compile_program

    # stateless: recognize + emit SPMD code, no cache
    plan = compile_program(jacobi_source)
    result = plan.run(4, {"m": 32, "maxiter": 10})

    # stateful: content-addressed cache + any front-end guest
    with Session(cache="memory") as session:
        res = session.compile(jacobi_source, nprocs=8, env={"m": 64, "maxiter": 10})
        print(res.explain())          # Explanation dataclass; str() renders it
        print(session.stats.hit_rate)

* :func:`compile_program` — one program in (any guest surface), one
  :class:`Plan` out;
* :class:`Session` — :class:`repro.service.CompileService` under its
  user-facing name (one class, two names): the ``cache="off|memory|disk"``
  knob, ``compile``/``compile_batch``, the ``submit``/``wait`` job
  queue, and cache counters under ``Session.stats``;
* :meth:`Plan.run` / :meth:`Plan.solve` / :meth:`Plan.explain` — the
  compiled-artifact surface (machine parameters keyword-only;
  ``solve`` returns :class:`SolveOutcome`, ``explain`` returns
  :class:`Explanation`).

Migration from the pre-service API
----------------------------------
==================================  =========================================
old name                            new name
==================================  =========================================
``repro.api.compile``               :func:`compile_program` (alias removed)
``repro.compile``                   :func:`repro.compile_program`
``repro.compile_and_run``           :func:`repro.api.compile_and_run`
``repro.solve_program_distribution``:meth:`Plan.solve` /
                                    :func:`repro.dp.phases.solve_program_distribution`
``repro.generate_spmd``             :func:`repro.codegen.spmd.generate_spmd`
``repro.run_spmd``                  :func:`repro.machine.engine.run_spmd`
``plan.run(n, env, model)``         ``plan.run(n, env, model=...)`` (kw-only)
``tables, result = plan.solve(...)``unchanged (``SolveOutcome`` iterates)
``plan.explain(...)`` (str)         ``str(plan.explain(...))``
==================================  =========================================

docs/API.md walks through each row.
"""

from __future__ import annotations

from repro.lang.ast import Program
from repro.machine.engine import RunResult
from repro.machine.model import MachineModel
from repro.service.cache import CacheStats
from repro.service.compiler import (
    CompileJob,
    CompileRequest,
    CompileResult,
    CompileService,
)
from repro.service.plan import (
    Explanation,
    Plan,
    SegmentChoice,
    SolveOutcome,
    TransitionCost,
)
from repro.service.guests import (
    available_guests,
    loop_nest,
    lower,
    register_guest,
)

__all__ = [
    "Plan",
    "Session",
    "CompileRequest",
    "CompileResult",
    "CompileJob",
    "Explanation",
    "SolveOutcome",
    "SegmentChoice",
    "TransitionCost",
    "CacheStats",
    "compile_program",
    "compile_and_run",
    "loop_nest",
    "lower",
    "register_guest",
    "available_guests",
]


def compile_program(
    source: Program | str | object,
    *,
    guest: str = "dsl",
    strategy: str | None = None,
) -> Plan:
    """Recognize *source* (lowered through *guest*) and generate its
    SPMD code.  Stateless — no cache; use :class:`Session` for that."""
    from repro.service.plan import compile_plan

    return compile_plan(lower(source, guest), strategy=strategy)


#: The compile session — the service class itself, not a wrapper: the
#: seven settings, ``compile`` / ``compile_batch`` / ``submit``, the job
#: queue's ``start`` / ``close`` and the cache counters under ``stats``.
Session = CompileService


def compile_and_run(
    source: Program | str,
    nprocs: int,
    env: dict[str, int],
    *,
    model: MachineModel | None = None,
    inputs: dict | None = None,
    seed: int = 0,
    backend: str = "engine",
    guest: str = "dsl",
) -> RunResult:
    """One call: :func:`compile_program` then :meth:`Plan.run`."""
    return compile_program(source, guest=guest).run(
        nprocs, env, model=model, inputs=inputs, seed=seed, backend=backend
    )
