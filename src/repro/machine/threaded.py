"""Threaded execution backend: the same SPMD programs, real concurrency.

The deterministic generator engine (:mod:`repro.machine.engine`) is the
primary substrate, but nothing about the programs is simulator-specific:
this module runs the *same* generator functions with one OS thread per
logical processor.  Numeric results are identical (message matching is
FIFO per (source, dest, tag) channel and receives name their source),
and the simulated clocks are still maintained, so analytic comparisons
keep working — only the *scheduling* is now genuinely concurrent.

This stands in for what an mpi4py port would look like, without the MPI
launcher awkwardness: ``run_spmd_threaded(prog, topology, model, ...)``
is a drop-in replacement for :func:`repro.machine.engine.run_spmd`.

:class:`ThreadedEngine` is a second *driver* over the machine core
:class:`~repro.machine.engine.Engine` owns — the message store, the park
registrations, the deadline calendar and the stall rules exist once, in
``engine.py``.  The driver adds a condition lock around the store
operations and a worker loop per thread: step the generator, register
the park it yields (exactly as ``Engine.run`` does), sleep until the
core pushes the rank ready.  When every live thread is parked the
machine has *stalled* and the thread that notices runs the core's stall
step — wake nonblocking waiters of a crashed peer, else fire the
earliest timed receive, else declare the deadlock — so timeouts fire in
``(deadline, rank)`` heap order and the forensics report has one builder
on both drivers.  Fault injection composes unchanged: message fates are
pure functions of ``(seed, channel, attempt)`` (see
:mod:`repro.machine.faults`).
"""

from __future__ import annotations

import threading
from collections.abc import Callable, Generator
from typing import Any

from repro.errors import DeadlockError, MachineError, RankCrashedError
from repro.machine.engine import Engine, Proc, RunResult, _Message
from repro.machine.faults import FaultPlan
from repro.machine.model import MachineModel
from repro.machine.topology import Topology

#: One OS thread per rank: larger machines belong on the event engine.
MAX_THREADS = 256


def _locked(method: Callable) -> Callable:
    """*method* of the core, run under the driver's condition lock."""

    def call(self: "ThreadedEngine", *args: Any) -> Any:
        with self._cv:
            return method(self, *args)

    return call


class ThreadedEngine(Engine):
    """The core of :class:`repro.machine.engine.Engine`, driven by threads."""

    _threadsafe = True  # the metrics histograms are shared between threads

    def __init__(
        self,
        topology: Topology,
        model: MachineModel | None = None,
        trace: bool = False,
        deadlock_timeout: float = 5.0,
        faults: FaultPlan | None = None,
    ) -> None:
        if topology.size > MAX_THREADS:
            raise MachineError(
                f"threaded backend capped at {MAX_THREADS} threads, "
                f"got {topology.size}"
            )
        super().__init__(topology, model=model, trace=trace, faults=faults)
        self._cv = threading.Condition()
        # Safety-net wait interval only: every wake-up is notified.
        self._deadlock_timeout = deadlock_timeout

    # The message store and the timeout flag are shared between threads.
    # (``next_attempt`` and the dedup map are not: see ``_reset_run_state``.)
    try_pop = _locked(Engine.try_pop)
    try_pop_by = _locked(Engine.try_pop_by)
    peek_available = _locked(Engine.peek_available)

    def deliver(self, msg: _Message) -> None:
        with self._cv:
            super().deliver(msg)
            self._cv.notify_all()  # the core may have pushed a rank ready

    def run(
        self,
        program: Callable[..., Generator],
        args: tuple = (),
        kwargs: dict | None = None,
        per_rank_args: list[tuple] | None = None,
    ) -> RunResult:
        self._reset_run_state()
        kwargs = kwargs or {}
        procs = self.procs
        values: list[Any] = [None] * len(procs)
        errors: list[BaseException | None] = [None] * len(procs)
        cv = self._cv
        ready = self._calendar.ready  # ranks woken but not yet resumed
        live = len(procs)
        deadlock: DeadlockError | None = None

        def sleep_until_ready(rank: int) -> bool:
            """Park is registered, lock held: False once deadlocked."""
            nonlocal deadlock
            while rank not in ready:
                if deadlock is not None:
                    return False
                if len(self._parked_on) + len(self._nb_channels) == live:
                    # Global stall, the same step as ``Engine.run``'s.
                    if not self._stall_step():
                        deadlock = self._deadlock()
                    cv.notify_all()
                else:
                    # A wait timeout alone means nothing — another
                    # thread may simply be computing; re-check.
                    cv.wait(timeout=self._deadlock_timeout)
            ready.remove(rank)
            return True

        def worker(proc: Proc) -> None:
            nonlocal live
            rank = proc.rank
            try:
                rank_args = per_rank_args[rank] if per_rank_args is not None else args
                result = program(proc, *rank_args, **kwargs)
                if not isinstance(result, Generator):
                    values[rank] = result
                    return
                while True:
                    try:
                        channel, deadline = next(result)
                    except StopIteration as stop:
                        values[rank] = stop.value
                        return
                    with cv:
                        # A message that raced the park: retry the receive.
                        if self._park(rank, channel, deadline):
                            if not sleep_until_ready(rank):
                                return
            except BaseException as exc:  # noqa: BLE001 - reported to caller
                errors[rank] = exc
            finally:
                with cv:
                    live -= 1
                    cv.notify_all()

        threads = [
            threading.Thread(target=worker, args=(proc,), name=f"spmd-{proc.rank}")
            for proc in procs
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        # Error priority: an injected crash is the root cause (consequent
        # deadlocks in peers are collateral), then any other program
        # error, then deadlock.
        failed = [e for e in errors if e is not None]
        if failed:
            crashes = [e for e in failed if isinstance(e, RankCrashedError)]
            raise (crashes or failed)[0]
        if deadlock is not None:
            raise deadlock
        return self._result(values)


#: The execution backends by name: one machine core, two drivers.  Every
#: boundary that takes a backend name (``Plan.run``, ``run_resilient``,
#: ``dp.validate``, the report tool) looks it up here.
BACKENDS: dict[str, type[Engine]] = {"engine": Engine, "threaded": ThreadedEngine}


def run_spmd_threaded(
    program: Callable[..., Generator],
    topology: Topology,
    model: MachineModel | None = None,
    args: tuple = (),
    kwargs: dict | None = None,
    per_rank_args: list[tuple] | None = None,
    trace: bool = False,
    deadlock_timeout: float = 5.0,
    faults: FaultPlan | None = None,
) -> RunResult:
    """Drop-in threaded counterpart of :func:`repro.machine.run_spmd`."""
    engine = ThreadedEngine(
        topology, model=model, trace=trace, deadlock_timeout=deadlock_timeout,
        faults=faults,
    )
    return engine.run(program, args=args, kwargs=kwargs, per_rank_args=per_rank_args)
