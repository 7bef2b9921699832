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
* :class:`Session` — a veneer over
  :class:`repro.service.CompileService`: the ``cache="off|memory|disk"``
  knob, ``compile``/``compile_batch``, the ``submit``/``wait`` job
  queue, and cache counters under :attr:`Session.stats`;
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
from repro.service.cache import CacheStats, PlanCache
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


class Session:
    """An explicit compile session: machine + cache + service.

    Parameters (all keyword-only):

    machine:
        The :class:`MachineModel` whose ``tf``/``tc``/``alpha``
        parameters are folded into every solve's cache key.
    cache:
        ``"off"``, ``"memory"`` (default), ``"disk"`` — or a
        :class:`PlanCache` instance to share between sessions.
    cache_capacity:
        Memory-tier LRU bound.
    cache_dir:
        Directory for the disk tier (required for ``cache="disk"``).
        It holds the plans and the source-text memo's canonical forms,
        so a new session over a populated directory starts warm: a text
        any earlier process compiled is answered without a front end.
    workers:
        ``> 0`` runs codegen and Algorithm 1 solves on a supervised
        pool of that many subprocesses (crashes are detected, workers
        respawned, requests retried; on pool exhaustion the session
        degrades to in-process compilation).  ``0`` (default) keeps
        everything in-process.
    deadline_s:
        Service-wide per-request deadline — straggling pool workers
        are killed and :class:`repro.errors.DeadlineExceededError`
        raised; overridable per request via ``deadline_s=`` on
        :meth:`compile`'s request.
    queue_limit:
        Bound on queued-but-unserved :meth:`submit` jobs; excess
        submissions shed load with
        :class:`repro.errors.ServiceOverloadedError`.

    A session is also a context manager; entering starts the job-queue
    workers and exiting drains them (and stops the process pool).
    See docs/API.md §"Operating the service".
    """

    def __init__(
        self,
        *,
        machine: MachineModel | None = None,
        cache: str | PlanCache | None = "memory",
        cache_capacity: int = 256,
        cache_dir=None,
        workers: int = 0,
        deadline_s: float | None = None,
        queue_limit: int | None = None,
    ) -> None:
        self.service = CompileService(
            machine=machine or MachineModel(),
            cache=cache,
            cache_capacity=cache_capacity,
            cache_dir=cache_dir,
            workers=workers,
            deadline_s=deadline_s,
            queue_limit=queue_limit,
        )

    @property
    def machine(self) -> MachineModel:
        return self.service.machine

    @property
    def cache(self) -> PlanCache | None:
        return self.service.cache

    @property
    def stats(self) -> CacheStats:
        """Cache hit/miss/eviction counters for this session."""
        return self.service.stats

    # -- compile surface -------------------------------------------------
    def compile(
        self,
        source: object,
        *,
        guest: str = "dsl",
        strategy: str | None = None,
        nprocs: int | None = None,
        env: dict[str, int] | None = None,
        execute: bool = False,
        label: str | None = None,
        deadline_s: float | None = None,
    ) -> CompileResult:
        """Serve one :class:`CompileRequest` (or build one from the
        keyword arguments) through the cache."""
        return self.service.compile(
            source, guest=guest, strategy=strategy, nprocs=nprocs,
            env=env, execute=execute, label=label, deadline_s=deadline_s,
        )

    def compile_batch(
        self,
        sources,
        *,
        guest: str = "dsl",
        strategy: str | None = None,
        nprocs: int | None = None,
        env: dict[str, int] | None = None,
        execute: bool = False,
    ) -> list[CompileResult]:
        """Compile many programs, sharing alignment/DP sub-results
        across programs whose segments coincide."""
        return self.service.compile_batch(
            sources, guest=guest, strategy=strategy, nprocs=nprocs,
            env=env, execute=execute,
        )

    # -- job queue -------------------------------------------------------
    def submit(self, source: object, **kwargs) -> CompileJob:
        return self.service.submit(source, **kwargs)

    def start(self, workers: int = 1) -> "Session":
        self.service.start(workers)
        return self

    def close(self) -> None:
        self.service.close()

    def __enter__(self) -> "Session":
        self.service.__enter__()
        return self

    def __exit__(self, *exc) -> None:
        self.service.__exit__(*exc)


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
