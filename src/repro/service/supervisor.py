"""Supervised worker processes for the compile service (ISSUE 8).

:class:`WorkerSupervisor` is the process-pool execution tier behind
:class:`repro.service.compiler.CompileService`: each worker is a
subprocess speaking a tiny pickled request/reply protocol over a pipe,
and the supervisor watches it the way
:func:`repro.machine.resilient.run_resilient` watches simulated ranks —
a crash (signal, OOM-kill, poison request) is *detected*, the worker is
respawned with capped exponential backoff, and the in-flight request is
retried up to a budget before a typed
:class:`~repro.errors.WorkerCrashedError` surfaces carrying the
forensic tail (spawn argv, last request digest, exit status).

Design points:

* **Determinism** — compile tasks are pure functions of their pickled
  payload, so a retried request returns a bit-identical result; a run
  with injected crashes and a crash-free run produce the same
  ``CompileResult``\\s (the X12 bench and the CI ``service-chaos`` leg
  pin this).
* **Deadlines** — ``call(task, deadline_s=...)`` bounds queue wait plus
  worker wall-clock; a straggling worker is killed (and respawned), so
  a stuck compile can never orphan a pool slot.  Misses raise
  :class:`~repro.errors.DeadlineExceededError`.
* **Isolation** — workers never share interpreter state with the hub;
  an unpicklable compile product or a crashing request takes down one
  subprocess, not the service.
* **Chaos injection** — ``chaos_kill_requests={n, ...}`` SIGKILLs the
  worker serving the *n*-th dispatched request (0-based, retries count
  as new dispatches), giving tests and CI a deterministic worker-kill
  drill with no sleeps or races.

Worker replies are ``("ok", payload_bytes)`` or ``("err",
pickled_exception)``; anything else — EOF, a half-written reply, a dead
process — is treated as a crash.  Remote compile errors re-raise in the
caller unchanged (pickled round-trip), so the job queue's error
delivery semantics are identical on the thread and process tiers.
"""

from __future__ import annotations

import hashlib
import logging
import multiprocessing
import os
import pickle
import queue
import signal
import sys
import threading
import time

from repro.errors import DeadlineExceededError, ReproError, WorkerCrashedError
from repro.obs import context as obs_context
from repro.util import spans

logger = logging.getLogger("repro.service")

#: How often (seconds) the parent re-checks a busy worker's liveness
#: while waiting for a reply with no (or a distant) deadline.
_POLL_S = 0.05


def _task_digest(blob: bytes) -> str:
    """Content digest of one pickled task (the forensic request id)."""
    return hashlib.sha256(blob).hexdigest()


def _run_task(task: dict, machine) -> object:
    """Execute one task dict; shared by the worker loop and fallback.

    Kinds: ``compile`` (program+strategy -> generated code), ``solve``
    (Algorithm 1 under the task's ``model``, else the supervisor's), plus the
    diagnostic kinds ``ping``/``sleep``/``unpicklable`` used by health
    checks and the test suite.
    """
    from repro.service.plan import Plan, compile_plan

    kind = task["kind"]
    if kind == "compile":
        plan = compile_plan(task["program"], strategy=task["strategy"])
        return {"generated": plan.generated}
    if kind == "solve":
        plan = Plan(program=task["program"], generated=task["generated"])
        return plan.solve(
            task["nprocs"], task["env"], model=task.get("model", machine),
            execute=task["execute"],
        )
    if kind == "ping":
        return "pong"
    if kind == "sleep":  # deadline/straggler tests
        time.sleep(task["seconds"])
        return "slept"
    if kind == "unpicklable":  # unpicklable-result tests
        return lambda: None
    if kind == "trace-echo":
        # Observability probe: report the TraceContext installed in
        # *this* process, proving the id crossed the pickled protocol.
        ctx = obs_context.current_context()
        return ctx.as_dict() if ctx is not None else None
    raise ReproError(f"unknown worker task kind {task['kind']!r}")


def _worker_main(conn, machine_blob: bytes) -> None:
    """The subprocess loop: recv task, run, reply — until EOF/stop.

    Runs with SIGINT ignored (the hub owns shutdown) and replies with
    pre-pickled payloads so an unpicklable compile product turns into a
    typed remote error instead of a torn pipe.
    """
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    except (ValueError, OSError):  # pragma: no cover - exotic hosts
        pass
    machine = pickle.loads(machine_blob)
    while True:
        try:
            blob = conn.recv_bytes()
        except (EOFError, OSError):
            return
        task = pickle.loads(blob)
        if task is None:  # orderly stop
            return
        if task.get("chaos") == "sigkill":
            # Injected crash: die exactly as an OOM-kill would, before
            # any reply bytes are written.
            os.kill(os.getpid(), signal.SIGKILL)
        trace = task.pop("trace", None)
        try:
            if trace is not None:
                # The hub's TraceContext rode along in the task dict:
                # reinstall it here and record this process's spans so
                # the hub can graft them onto its own compiler lane
                # (docs/OBSERVABILITY.md).
                ctx = obs_context.TraceContext.from_dict(trace)
                with obs_context.tracing_context(ctx), spans.recording() as rec:
                    payload = _run_task(task, machine)
                payload = {
                    "__obs__": {"spans": rec.as_dicts()},
                    "value": payload,
                }
            else:
                payload = _run_task(task, machine)
            try:
                ok_blob = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
            except Exception as exc:
                raise ReproError(
                    f"worker produced an unpicklable result for task "
                    f"{task['kind']!r}: {exc}"
                ) from None
            reply = ("ok", ok_blob)
        except BaseException as exc:
            try:
                blob_exc = pickle.dumps(exc)
            except Exception:
                blob_exc = pickle.dumps(
                    ReproError(f"worker result/error not picklable: {exc!r}")
                )
            reply = ("err", blob_exc)
        try:
            conn.send_bytes(pickle.dumps(reply))
        except (BrokenPipeError, OSError):
            return


class _WorkerDied(Exception):
    """Internal: the subprocess serving a request is gone."""

    def __init__(self, exitcode: int | None) -> None:
        super().__init__(f"worker died (exit status {exitcode})")
        self.exitcode = exitcode


class _Worker:
    """One supervised subprocess plus its pipe endpoint."""

    def __init__(self, index: int, ctx, machine_blob: bytes) -> None:
        self.index = index
        parent, child = ctx.Pipe(duplex=True)
        self.conn = parent
        self.process = ctx.Process(
            target=_worker_main,
            args=(child, machine_blob),
            name=f"repro-compile-worker-{index}",
            daemon=True,
        )
        self.process.start()
        child.close()  # the parent keeps only its end
        #: Spawn argv recorded for crash forensics.  Fork workers share
        #: the parent's argv; spawn workers re-exec the interpreter.
        self.argv = [sys.executable, *sys.argv]

    @property
    def pid(self) -> int | None:
        return self.process.pid

    def call(self, blob: bytes, deadline_at: float | None):
        """Send one task and wait for its reply.

        Raises :class:`_WorkerDied` when the subprocess vanishes and
        :class:`TimeoutError` when *deadline_at* (a ``monotonic`` stamp)
        passes first — the caller decides who to blame.
        """
        try:
            self.conn.send_bytes(blob)
        except (BrokenPipeError, OSError):
            raise _WorkerDied(self._reap()) from None
        while True:
            timeout = _POLL_S
            if deadline_at is not None:
                timeout = min(timeout, deadline_at - time.monotonic())
                if timeout <= 0:
                    raise TimeoutError
            try:
                if self.conn.poll(max(timeout, 0.0)):
                    reply = pickle.loads(self.conn.recv_bytes())
                    if (
                        not isinstance(reply, tuple)
                        or len(reply) != 2
                        or reply[0] not in ("ok", "err")
                    ):
                        raise _WorkerDied(self._reap())
                    return reply
            except (EOFError, OSError):
                raise _WorkerDied(self._reap()) from None
            if not self.process.is_alive() and not self.conn.poll(0):
                raise _WorkerDied(self._reap())

    def _reap(self) -> int | None:
        self.process.join(timeout=1.0)
        return self.process.exitcode

    def stop(self) -> None:
        """Orderly shutdown: send the stop sentinel, then escalate."""
        try:
            self.conn.send_bytes(pickle.dumps(None))
        except (BrokenPipeError, OSError):
            pass
        self.process.join(timeout=1.0)
        if self.process.is_alive():
            self.kill()
        self.conn.close()

    def kill(self) -> None:
        if self.process.is_alive():
            self.process.kill()
            self.process.join(timeout=5.0)
        try:
            self.conn.close()
        except OSError:
            pass


class WorkerSupervisor:
    """A crash-supervised pool of compile worker subprocesses.

    Parameters:

    workers:
        Pool size (>= 1).
    machine:
        The :class:`~repro.machine.model.MachineModel` every worker
        solves under (pickled once at spawn).
    retry_budget:
        Crash retries per request beyond the first attempt before
        :class:`WorkerCrashedError` surfaces.
    max_respawns:
        Respawns per worker *slot* before the slot is abandoned; when
        every slot is gone the pool is ``broken`` and all calls raise.
    backoff_s / backoff_cap_s:
        Capped exponential respawn backoff (slot respawn count *k*
        sleeps ``min(backoff_s * 2**(k-1), backoff_cap_s)``).
    start_method:
        ``multiprocessing`` start method; defaults to ``fork`` where
        available (cheap respawns), else ``spawn``.
    chaos_kill_requests:
        Dispatch sequence numbers whose worker SIGKILLs itself
        mid-request (deterministic crash injection for tests/CI).
    """

    def __init__(
        self,
        workers: int,
        machine,
        *,
        retry_budget: int = 2,
        max_respawns: int = 3,
        backoff_s: float = 0.05,
        backoff_cap_s: float = 1.0,
        start_method: str | None = None,
        chaos_kill_requests=(),
    ) -> None:
        if workers < 1:
            raise ReproError(f"workers must be >= 1, got {workers}")
        if start_method is None:
            methods = multiprocessing.get_all_start_methods()
            start_method = "fork" if "fork" in methods else "spawn"
        self._ctx = multiprocessing.get_context(start_method)
        self._machine_blob = pickle.dumps(machine, protocol=pickle.HIGHEST_PROTOCOL)
        self.workers = workers
        self.retry_budget = retry_budget
        self.max_respawns = max_respawns
        self.backoff_s = backoff_s
        self.backoff_cap_s = backoff_cap_s
        self.chaos_kill_requests = set(chaos_kill_requests)
        self._lock = threading.Lock()
        self._idle: queue.Queue[_Worker] = queue.Queue()
        self._respawns: dict[int, int] = {}  # per-slot respawn counts
        self._live = 0
        self._dispatch_seq = 0
        self._closed = False
        self.counters = {
            "dispatched": 0,
            "crashes": 0,
            "respawns": 0,
            "retries": 0,
            "deadline_kills": 0,
        }
        for index in range(workers):
            self._idle.put(_Worker(index, self._ctx, self._machine_blob))
            self._respawns[index] = 0
            self._live += 1

    # -- introspection ---------------------------------------------------
    @property
    def broken(self) -> bool:
        """True once every worker slot exhausted its respawn budget."""
        with self._lock:
            return self._live == 0

    def stats(self) -> dict[str, int]:
        with self._lock:
            return dict(self.counters)

    def pids(self) -> list[int]:
        """Live worker pids (for external-kill stress tests)."""
        with self._lock:
            drained = []
            while True:
                try:
                    drained.append(self._idle.get_nowait())
                except queue.Empty:
                    break
            for w in drained:
                self._idle.put(w)
            return [w.pid for w in drained if w.process.is_alive()]

    # -- supervision ------------------------------------------------------
    def _count(self, key: str, n: int = 1) -> None:
        with self._lock:
            self.counters[key] += n

    def _next_seq(self) -> int:
        with self._lock:
            seq = self._dispatch_seq
            self._dispatch_seq += 1
            self.counters["dispatched"] += 1
            return seq

    def _respawn(self, slot: int) -> None:
        """Replace a dead worker in *slot*, honoring budget and backoff."""
        with self._lock:
            count = self._respawns[slot] + 1
            if count > self.max_respawns:
                self._live -= 1
                logger.warning(
                    "compile worker slot %d exhausted its %d respawns; "
                    "abandoning the slot (%d live workers remain)",
                    slot, self.max_respawns, self._live,
                )
                return
            self._respawns[slot] = count
            self.counters["respawns"] += 1
        delay = min(self.backoff_s * (2.0 ** (count - 1)), self.backoff_cap_s)
        if delay > 0:
            time.sleep(delay)
        spans.instant(f"service/worker-respawn#{slot}")
        self._idle.put(_Worker(slot, self._ctx, self._machine_blob))

    def call(self, task: dict, deadline_s: float | None = None) -> object:
        """Run *task* on a worker, supervising crashes and the deadline.

        The deadline covers queue wait plus execution; a worker still
        busy at the deadline is killed and respawned (cancelled, not
        orphaned).  Crashes retry up to ``retry_budget`` times; budget
        exhaustion (or a broken pool) raises
        :class:`WorkerCrashedError` with the forensic tail.
        """
        if self._closed:
            raise ReproError("worker pool is closed")
        ctx = obs_context.current_context()
        if ctx is not None and "trace" not in task:
            # Carry the hub's TraceContext across the process boundary
            # inside the task dict itself (the protocol's only channel).
            task = {**task, "trace": ctx.as_dict()}
        blob = pickle.dumps(task, protocol=pickle.HIGHEST_PROTOCOL)
        digest = _task_digest(blob)
        deadline_at = (
            time.monotonic() + deadline_s if deadline_s is not None else None
        )
        attempts = 0
        last_crash: tuple[int, int | None, int | None, list[str]] | None = None
        while attempts <= self.retry_budget:
            if self.broken:
                break
            seq = self._next_seq()
            send = blob
            if seq in self.chaos_kill_requests:
                send = pickle.dumps(
                    {**task, "chaos": "sigkill"},
                    protocol=pickle.HIGHEST_PROTOCOL,
                )
            try:
                timeout = None
                if deadline_at is not None:
                    timeout = deadline_at - time.monotonic()
                    if timeout <= 0:
                        raise queue.Empty
                worker = self._idle.get(timeout=timeout)
            except queue.Empty:
                self._count("deadline_kills")
                raise DeadlineExceededError(
                    f"request {digest[:12]}", deadline_s or 0.0,
                    "no worker became idle in time",
                ) from None
            attempts += 1
            hub_rec = spans.current_recorder()
            dispatched_at = hub_rec.now() if hub_rec is not None else 0.0
            try:
                kind, payload = worker.call(send, deadline_at)
            except _WorkerDied as died:
                last_crash = (worker.index, worker.pid, died.exitcode, worker.argv)
                self._count("crashes")
                spans.instant(f"service/worker-crash#{worker.index}")
                logger.warning(
                    "compile worker %d (pid %s) died with exit status %s "
                    "serving request %s (attempt %d/%d)",
                    worker.index, worker.pid, died.exitcode,
                    digest[:12], attempts, self.retry_budget + 1,
                )
                worker.kill()
                self._respawn(worker.index)
                if attempts <= self.retry_budget:
                    self._count("retries")
                continue
            except TimeoutError:
                # Straggler: cancel it hard so the slot comes back clean.
                self._count("deadline_kills")
                spans.instant(f"service/deadline-kill#{worker.index}")
                logger.warning(
                    "compile worker %d (pid %s) missed the %.3gs deadline on "
                    "request %s; killing and respawning",
                    worker.index, worker.pid, deadline_s, digest[:12],
                )
                worker.kill()
                self._respawn(worker.index)
                raise DeadlineExceededError(
                    f"request {digest[:12]}", deadline_s or 0.0,
                    f"worker {worker.index} killed and respawned",
                ) from None
            self._idle.put(worker)
            if kind == "err":
                raise pickle.loads(payload)
            result = pickle.loads(payload)
            if isinstance(result, dict) and "__obs__" in result:
                rec = spans.current_recorder()
                if rec is not None:
                    # Re-anchor the worker's spans at this dispatch's
                    # point on the hub clock; the worker-side offsets
                    # within the task are preserved relative to it.
                    rec.graft(
                        result["__obs__"].get("spans", ()),
                        at=dispatched_at,
                        prefix=f"worker{worker.index}/",
                    )
                return result["value"]
            return result
        index, pid, exitcode, argv = last_crash or (
            -1, None, None, [sys.executable, *sys.argv],
        )
        raise WorkerCrashedError(
            worker=index,
            pid=pid,
            exitcode=exitcode,
            argv=argv,
            request_digest=digest,
            attempts=attempts,
            respawns=self.stats()["respawns"],
        )

    # -- lifecycle --------------------------------------------------------
    def close(self) -> None:
        """Stop every idle worker (idempotent).  Busy workers finish
        their in-flight request first — callers drain before closing."""
        if self._closed:
            return
        self._closed = True
        while True:
            try:
                worker = self._idle.get_nowait()
            except queue.Empty:
                break
            worker.stop()
        with self._lock:
            self._live = 0

    def __enter__(self) -> "WorkerSupervisor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
