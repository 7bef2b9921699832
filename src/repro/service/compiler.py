"""The compile service: requests in, content-addressed results out.

:class:`CompileService` is the hub behind :class:`repro.api.Session`.
A request names a source (in any registered guest surface), an optional
forced strategy, and — when the caller wants Algorithm 1's answer — the
machine context ``(nprocs, env)``.  The service lowers, canonicalizes,
and serves from the :class:`~repro.service.cache.PlanCache` at two
granularities:

* the **plan key** (canonical IR + strategy) addresses the codegen
  artifact — recognized pattern and emitted SPMD source;
* the **solve key** (plan key + machine parameters + ``N`` + env)
  addresses the alignment/DP tables and Algorithm 1's chosen chain.

Both keys are functions of the program's
:class:`~repro.service.normalize.CanonicalForm` alone, and for ``str``
sources the service keeps a **source-text memo** in front of the front
ends: ``sha256(IR_SCHEMA, guest, text)`` → the form, an LRU bounded by
``cache_capacity`` and, when the cache has a disk tier, written through
to it (:meth:`PlanCache.remember` / :meth:`PlanCache.recall` — the
cache's own files, locks and quarantine), so the memo is as warm as the
cache directory, not as the process.  In memory each entry also keeps
the plan and solve keys it served, so a repeated request hashes its
text once and its canonical form not at all.  A byte-identical resubmission
that is also a plan hit therefore never parses; if its plan was evicted
it is lowered and compiled as any miss.  Alpha-twins and whitespace
variants miss the memo, take the full path and still hit the plan
cache; non-``str`` sources and ``cache="off"`` bypass it; a source that
fails to lower is never memoised, in either tier.

Because keys are computed from the *canonicalized* IR, a cached plan
compiled from one program serves every alpha-twin of it.  The cached
artifact still speaks the first writer's names, so each hit carries a
``rename`` map (requester name → stored name, composed from the two
canonical rename maps); :class:`CompileResult` translates env and input
keys through it transparently.

``compile_batch`` additionally threads one ``segment_memo`` dict through
every solve in the batch, sharing per-segment alignment/pricing entries
across *different* programs whose segments coincide (see
:func:`repro.dp.phases.build_phase_tables`).

The job-queue runner (``submit``/``start``/``close``) services requests
from worker threads; every request — queued or direct — is wrapped in a
``service/request`` span on the compiler Perfetto lane, with
``service/frontend`` (lower + canonicalize; absent when the memo served
the form) and ``service/lookup`` (one per cache probe) inside it.

With ``workers > 0`` the expensive phases (codegen, the Algorithm 1
solve) additionally run on a **supervised process pool**
(:class:`repro.service.supervisor.WorkerSupervisor`): a worker crash is
detected, respawned with capped backoff and the request retried; when
the pool exhausts its budget the service *degrades* to in-process
compilation (logged and counted in ``service_stats["fallbacks"]``,
never silently wrong).  ``queue_limit`` bounds the admission queue
(:class:`~repro.errors.ServiceOverloadedError` sheds excess load) and
``deadline_s`` — per request or service-wide — cancels stragglers with
:class:`~repro.errors.DeadlineExceededError` instead of orphaning them.
See docs/API.md §"Operating the service".
"""

from __future__ import annotations

import contextvars
import hashlib
import logging
import queue
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field, fields, replace

from repro.errors import (
    DeadlineExceededError,
    ReproError,
    ServiceOverloadedError,
    WorkerCrashedError,
)
from repro.lang.ast import Program
from repro.machine.model import MachineModel
from repro.obs.context import current_context, mint_context, tracing_context
from repro.service.cache import _MISS, CacheStats, PlanCache, make_cache
from repro.service.guests import lower
from repro.service.normalize import IR_SCHEMA, CanonicalForm, canonicalize
from repro.service.plan import Plan, SolveOutcome, check_env, compile_plan
from repro.util import spans
from repro.util.spans import span

logger = logging.getLogger("repro.service")

#: Internal sentinel: the pool crashed out and the caller should run
#: the task in-process (graceful degradation).
_FALLBACK = object()

#: ``service_stats`` key and :class:`CacheStats` field of each cache counter.
_CACHE_STATS = tuple((f"cache_{f.name}", f.name) for f in fields(CacheStats))

#: Digest pairs one memo entry remembers before it forgets them all.
_DIGESTS_PER_FORM = 16


class _Memo:
    """One source-text memo entry: the form, and the digests served from it.

    ``digests`` maps what a request's digests hash besides the form —
    strategy, ``nprocs`` and its type (``True`` and ``1`` format apart),
    execute, env items — to ``(machine, plan key, solve key)``.  An
    answer counts only while its ``machine`` *is* the service's, so a
    reassigned :attr:`CompileService.machine` re-derives the solve key.
    The digests live as long as the entry; the disk tier stores the form
    alone.
    """

    __slots__ = ("form", "digests")

    def __init__(self, form: CanonicalForm) -> None:
        self.form = form
        self.digests: dict[tuple, tuple] = {}


@dataclass(frozen=True)
class CompileRequest:
    """One immutable unit of work for the service.

    ``source`` is whatever the named *guest* accepts (DSL text, a
    :class:`Program`, a decorated function, a JSON document).  With
    *nprocs* and *env* the request also asks for Algorithm 1's
    distribution (``wants_solve``); *execute* additionally validates the
    chosen redistributions on the simulator.  ``deadline_s`` bounds the
    request's time on the process-pool tier (straggling workers are
    killed, not orphaned); it overrides the service-wide default.
    """

    source: object
    guest: str = "dsl"
    strategy: str | None = None
    nprocs: int | None = None
    env: dict[str, int] | None = None
    execute: bool = False
    label: str | None = None
    deadline_s: float | None = None

    def __post_init__(self) -> None:
        if self.env is not None:  # typed, and plain ints before any digest
            object.__setattr__(self, "env", check_env(self.env))

    @property
    def wants_solve(self) -> bool:
        return self.nprocs is not None and self.env is not None


#: Every :class:`CompileRequest` field but ``source``, with its default —
#: the keywords ``compile`` builds a request from.
_REQUEST_DEFAULTS = {f.name: f.default for f in fields(CompileRequest) if f.name != "source"}


@dataclass(frozen=True)
class CompileResult:
    """A served request: the plan plus its cache provenance.

    ``plan`` is the *stored* artifact — when the request hit a cache
    entry written by an alpha-twin, the plan speaks the twin's names and
    ``rename`` maps the requester's names onto them.  The delegating
    surface (:meth:`run`, :meth:`solve`, :meth:`explain`) translates env
    and input keys through ``rename``, so callers never see the twin.
    """

    request: CompileRequest
    digest: str
    plan: Plan
    rename: dict[str, str]
    cached: bool
    outcome: SolveOutcome | None = None
    solve_key: str | None = None
    solve_cached: bool = False
    wall_seconds: float = 0.0
    #: Integer service counters snapshotted at serve time — cache
    #: counters (``cache_hits``, ``cache_misses``, ``cache_evictions``,
    #: ``cache_disk_hits``, ``cache_puts``, ``cache_corrupt``,
    #: ``cache_disk_faults``) plus, when a process pool is active, the
    #: supervisor's fault counters (``pool_dispatched``,
    #: ``pool_crashes``, ``pool_respawns``, ``pool_retries``,
    #: ``pool_deadline_kills``) and ``fallbacks`` (requests that
    #: degraded to in-process compilation) — and ``frontend_skips``,
    #: the requests this service answered without running a front end
    #: (source-text memo hit *and* plan hit), and ``memo_disk_hits``,
    #: the forms it recalled from the cache directory rather than from
    #: its own memory.  Stamped into ``RunResult.metrics.service`` by
    #: :meth:`run`.
    service_stats: dict = field(default_factory=dict)
    #: The :class:`~repro.obs.context.TraceContext` the service minted
    #: (or adopted) for this request.  :meth:`run` reinstalls it around
    #: plan execution so the engine stamps the same ``run_id`` into
    #: ``RunResult.metrics.obs`` — one id from compile to rank lanes
    #: (docs/OBSERVABILITY.md).
    trace_context: object | None = None

    # -- convenience passthroughs ---------------------------------------
    @property
    def program(self) -> Program:
        return self.plan.program

    @property
    def generated(self):
        return self.plan.generated

    @property
    def strategy(self) -> str:
        return self.plan.strategy

    @property
    def source(self) -> str:
        return self.plan.source

    def translate(self, mapping: dict | None) -> dict | None:
        """Rewrite requester-side keys (env entries, input arrays) into
        the stored plan's names; unknown keys pass through untouched."""
        if mapping is None:
            return None
        return {self.rename.get(k, k): v for k, v in mapping.items()}

    # -- delegating surface ---------------------------------------------
    def run(
        self,
        nprocs: int | None = None,
        env: dict[str, int] | None = None,
        *,
        model: MachineModel | None = None,
        inputs: dict | None = None,
        seed: int = 0,
        backend: str = "engine",
        trace: bool = False,
    ):
        """Execute the plan; *nprocs*/*env* default to the request's."""
        nprocs = self.request.nprocs if nprocs is None else nprocs
        env = self.request.env if env is None else env
        if nprocs is None or env is None:
            raise ReproError("run() needs nprocs and env (none on the request)")
        with tracing_context(self.trace_context):
            result = self.plan.run(
                nprocs,
                self.translate(env),
                model=model,
                inputs=self.translate(inputs),
                seed=seed,
                backend=backend,
                trace=trace,
            )
        metrics = getattr(result, "metrics", None)
        if metrics is not None:
            metrics.service.update(
                {
                    "cache_hit": int(self.cached),
                    "solve_cache_hit": int(self.solve_cached),
                    **{k: int(v) for k, v in self.service_stats.items()},
                }
            )
        return result

    def solve(
        self,
        nprocs: int | None = None,
        env: dict[str, int] | None = None,
        *,
        model: MachineModel | None = None,
        execute: bool = False,
        backends: tuple[str, ...] = ("engine", "threaded"),
    ) -> SolveOutcome:
        """Algorithm 1's answer; returns the request-time outcome when
        the arguments match what the service already solved."""
        nprocs = self.request.nprocs if nprocs is None else nprocs
        env = self.request.env if env is None else env
        if nprocs is None or env is None:
            raise ReproError("solve() needs nprocs and env (none on the request)")
        if (
            self.outcome is not None
            and model is None
            and nprocs == self.request.nprocs
            and env == self.request.env
            and execute == self.request.execute
        ):
            return self.outcome
        return self.plan.solve(
            nprocs, self.translate(env), model=model,
            execute=execute, backends=backends,
        )

    def explain(
        self,
        nprocs: int | None = None,
        env: dict[str, int] | None = None,
        *,
        model: MachineModel | None = None,
    ):
        nprocs = self.request.nprocs if nprocs is None else nprocs
        env = self.request.env if env is None else env
        return self.plan.explain(
            nprocs, self.translate(env) if env is not None else None, model=model
        )


class CompileJob:
    """Handle for a queued request; ``wait()`` blocks for the result.

    A job is *pending* until a worker claims it, then *running*, then
    *done* (result or error).  A pending job can be :meth:`cancel`\\led
    — workers skip cancelled jobs, so a timed-out ``wait`` leaves
    nothing orphaned in the queue.
    """

    def __init__(self, request: CompileRequest) -> None:
        self.request = request
        self._event = threading.Event()
        self._lock = threading.Lock()
        self._state = "pending"
        self._result: CompileResult | None = None
        self._error: BaseException | None = None

    def _claim(self) -> bool:
        """Worker-side: move pending -> running; False if cancelled."""
        with self._lock:
            if self._state != "pending":
                return False
            self._state = "running"
            return True

    def _finish(self, result: CompileResult | None, error: BaseException | None) -> None:
        with self._lock:
            self._state = "done"
        self._result = result
        self._error = error
        self._event.set()

    @property
    def done(self) -> bool:
        return self._event.is_set()

    @property
    def cancelled(self) -> bool:
        with self._lock:
            return self._state == "cancelled"

    def cancel(self) -> bool:
        """Cancel the job if no worker has claimed it yet.

        Returns True when the job was still pending (it will never run;
        waiters get a :class:`DeadlineExceededError`).  A running or
        finished job returns False — the thread tier cannot preempt.
        """
        with self._lock:
            if self._state != "pending":
                return False
            self._state = "cancelled"
        self._error = DeadlineExceededError(
            f"compile job {self.request.label or self.request.guest!r}",
            self.request.deadline_s or 0.0,
            "cancelled before a worker claimed it",
        )
        self._event.set()
        return True

    def wait(self, timeout: float | None = None) -> CompileResult:
        """Block for the result; on timeout the job is cancelled if
        still pending (cleanly — never orphaned in the queue)."""
        if not self._event.wait(timeout):
            cancelled = self.cancel()
            detail = (
                "cancelled before a worker claimed it"
                if cancelled
                else "already running; its result will be discarded"
            )
            raise DeadlineExceededError(
                f"compile job {self.request.label or self.request.guest!r}",
                timeout if timeout is not None else 0.0,
                detail,
            )
        if self._error is not None:
            raise self._error
        assert self._result is not None
        return self._result


@dataclass
class CompileService:
    """Cache-backed compiler hub (see module docstring).

    *cache* is a mode string (``"off"``/``"memory"``/``"disk"``) or an
    already-built :class:`PlanCache` to share between services.

    *workers* > 0 adds the supervised process-pool tier (codegen and
    solves run in subprocesses; crashes are retried and respawned);
    *queue_limit* bounds the ``submit`` admission queue; *deadline_s*
    is the service-wide per-request deadline (overridable per request);
    *degrade* controls whether pool failure falls back to in-process
    compilation (the default) or surfaces
    :class:`~repro.errors.WorkerCrashedError`.  The ``worker_*`` knobs
    and *chaos_kill_requests* pass through to
    :class:`~repro.service.supervisor.WorkerSupervisor`.
    """

    machine: MachineModel = field(default_factory=MachineModel)
    cache: PlanCache | str | None = "memory"
    cache_capacity: int = 256
    cache_dir: object = None
    workers: int = 0
    queue_limit: int | None = None
    deadline_s: float | None = None
    degrade: bool = True
    worker_retry_budget: int = 2
    worker_max_respawns: int = 3
    worker_backoff_s: float = 0.05
    chaos_kill_requests: tuple = ()

    def __post_init__(self) -> None:
        if isinstance(self.cache, str):
            self.cache = make_cache(
                self.cache, capacity=self.cache_capacity, disk_dir=self.cache_dir
            )
        self._lock = threading.Lock()
        self._queue: queue.Queue = queue.Queue()
        self._workers: list[threading.Thread] = []
        self._closed = False
        self._pool_lock = threading.Lock()
        self._supervisor = None
        self._fallbacks = 0
        self._pending = 0
        #: source-text memo, memory tier: sha256(IR_SCHEMA, guest, text)
        #: -> the form and its digests (the disk tier is the cache's)
        self._forms: OrderedDict[str, _Memo] = OrderedDict()
        self._frontend_skips = 0
        self._memo_disk_hits = 0

    # -- the process-pool tier -------------------------------------------
    def _pool(self):
        """The lazily-spawned :class:`WorkerSupervisor` (None when
        ``workers=0`` or the service is closed)."""
        if not self.workers or self._closed:
            return None
        with self._pool_lock:
            if self._supervisor is None:
                from repro.service.supervisor import WorkerSupervisor

                self._supervisor = WorkerSupervisor(
                    self.workers,
                    self.machine,
                    retry_budget=self.worker_retry_budget,
                    max_respawns=self.worker_max_respawns,
                    backoff_s=self.worker_backoff_s,
                    chaos_kill_requests=self.chaos_kill_requests,
                )
            return self._supervisor

    def _pool_call(self, pool, task: dict, deadline_s: float | None):
        """One supervised dispatch; crashes degrade to :data:`_FALLBACK`
        (unless ``degrade=False``), deadline misses always propagate."""
        try:
            return pool.call(task, deadline_s=deadline_s)
        except WorkerCrashedError as exc:
            if not self.degrade:
                raise
            with self._lock:
                self._fallbacks += 1
            spans.instant("service/fallback")
            logger.warning(
                "process pool unavailable (%s); compiling in-process", exc
            )
            return _FALLBACK

    def _compile_generated(self, program, strategy, deadline_s):
        """Codegen on the pool tier, in-process otherwise (or on fallback)."""
        pool = self._pool()
        if pool is not None:
            result = self._pool_call(
                pool,
                {"kind": "compile", "program": program, "strategy": strategy},
                deadline_s,
            )
            if result is not _FALLBACK:
                return result["generated"]
        return compile_plan(program, strategy=strategy).generated

    def _solve_plan(self, plan, req, env_stored, machine, segment_memo, deadline_s):
        """Algorithm 1 on the pool tier (segment memos stay per-worker
        there), in-process otherwise (or on fallback) — on either, under
        *machine*, the model the solve key was derived from (the pool's
        workers were spawned with whatever model the service had then)."""
        pool = self._pool()
        if pool is not None:
            result = self._pool_call(
                pool,
                {
                    "kind": "solve",
                    "program": plan.program,
                    "generated": plan.generated,
                    "nprocs": req.nprocs,
                    "env": env_stored,
                    "execute": req.execute,
                    "model": machine,
                },
                deadline_s,
            )
            if result is not _FALLBACK:
                return result
        return plan.solve(
            req.nprocs, env_stored, model=machine,
            execute=req.execute, segment_memo=segment_memo,
        )

    # -- cache plumbing --------------------------------------------------
    @property
    def stats(self) -> CacheStats:
        """Counters of the backing cache (all-zero when ``cache="off"``)."""
        return self.cache.stats if self.cache is not None else CacheStats()

    def _cache_lookup(self, cache: PlanCache | None, key: str) -> object:
        if cache is None:
            return _MISS
        with span("service/lookup"), self._lock:
            return cache.lookup(key)

    def _cache_put(self, cache: PlanCache | None, key: str, value: object) -> None:
        if cache is None:
            return
        with self._lock:
            cache.put(key, value)

    # -- the source-text memo --------------------------------------------
    def _text_key(self, req: CompileRequest) -> str | None:
        """The memo key of *req*, or None when it bypasses the memo
        (non-``str`` source, or ``cache="off"``: a service told to keep
        nothing keeps no forms either)."""
        if self.cache is None or not isinstance(req.source, str):
            return None
        h = hashlib.sha256(IR_SCHEMA.encode())
        h.update(b"\x00" + req.guest.encode() + b"\x00")
        h.update(req.source.encode())
        return h.hexdigest()

    def _recall_form(self, text_key: str | None) -> _Memo | None:
        if text_key is None:
            return None
        with self._lock:
            memo = self._forms.get(text_key)
            if memo is not None:
                self._forms.move_to_end(text_key)
                return memo
            # Not in this process's memo: a previous one may have left
            # the form in the cache directory.
            form = self.cache.recall(text_key)
            if form is None:
                return None
            self._memo_disk_hits += 1
            return self._keep_form(text_key, form)

    def _remember_form(self, text_key: str | None, form: CanonicalForm) -> _Memo | None:
        if text_key is None:
            return None
        with self._lock:
            memo = self._keep_form(text_key, form)
            self.cache.remember(text_key, form)
            return memo

    def _keep_form(self, text_key: str, form: CanonicalForm) -> _Memo:
        """Memory tier of the memo (caller holds the service lock)."""
        memo = self._forms[text_key] = _Memo(form)
        while len(self._forms) > self.cache_capacity:
            self._forms.popitem(last=False)
        return memo

    @staticmethod
    def _digests(
        form: CanonicalForm, memo: _Memo | None, req: CompileRequest, machine: MachineModel
    ) -> tuple[str, str | None]:
        """``(plan key, solve key or None)`` of *req* over *form*,
        remembered on *memo* — the request's memo entry, None when it
        bypasses the memo (see :class:`_Memo`)."""
        if memo is not None:
            env = req.env
            key = (req.strategy, req.nprocs, type(req.nprocs), req.execute,
                   None if env is None else tuple(env.items()))
            known = memo.digests.get(key)
            if known is not None and known[0] is machine:
                return known[1], known[2]
        plan_key = form.program_digest(req.strategy)
        solve_key = (
            form.solve_digest(req.nprocs, req.env, machine, req.strategy, execute=req.execute)
            if req.wants_solve else None
        )
        if memo is not None:
            if len(memo.digests) >= _DIGESTS_PER_FORM:
                memo.digests.clear()
            memo.digests[key] = (machine, plan_key, solve_key)
        return plan_key, solve_key

    @staticmethod
    def _front_end(req: CompileRequest) -> tuple[Program, CanonicalForm]:
        with span("service/frontend"):
            program = lower(req.source, req.guest)
            return program, canonicalize(program)

    # -- the request path ------------------------------------------------
    @staticmethod
    def request(source: object, **kwargs) -> CompileRequest:
        """Coerce *source* (or pass a :class:`CompileRequest` through)."""
        if isinstance(source, CompileRequest):
            return replace(source, **kwargs) if kwargs else source
        return CompileRequest(source=source, **kwargs)

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
        """Serve one request (coalescing keyword args into one if
        *source* is not already a :class:`CompileRequest`).

        A :class:`CompileRequest` carries its own fields: passing one
        together with a keyword that differs from its default is a
        :class:`ReproError` naming each such keyword, never a silent drop.
        """
        if isinstance(source, CompileRequest):
            given = dict(
                guest=guest, strategy=strategy, nprocs=nprocs, env=env,
                execute=execute, label=label, deadline_s=deadline_s,
            )
            clashes = [
                f"{name}={value!r}" for name, value in given.items()
                if value != _REQUEST_DEFAULTS[name]
            ]
            if clashes:
                raise ReproError(
                    f"compile() got a CompileRequest and also {', '.join(clashes)}; "
                    "set them on the request (dataclasses.replace) instead"
                )
            req = source
        else:
            req = CompileRequest(
                source=source, guest=guest, strategy=strategy,
                nprocs=nprocs, env=env, execute=execute, label=label,
                deadline_s=deadline_s,
            )
        return self._serve(req, self.cache, None)

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
        """Serve many requests, sharing sub-results across the batch.

        All solves share one segment memo (identical segments of
        *different* programs are aligned and priced once), and with
        ``cache="off"`` an ephemeral batch-local cache still coalesces
        duplicate programs within the batch.
        """
        requests = [
            s if isinstance(s, CompileRequest) else CompileRequest(
                source=s, guest=guest, strategy=strategy,
                nprocs=nprocs, env=env, execute=execute,
            )
            for s in sources
        ]
        cache = self.cache
        if cache is None and len(requests) > 1:
            cache = PlanCache(capacity=max(len(requests) * 2, 8))
        segment_memo: dict = {}
        with span("service/batch"):
            return [self._serve(req, cache, segment_memo) for req in requests]

    def _remaining(self, deadline_at: float | None, req: CompileRequest) -> float | None:
        """Seconds left on the request's deadline (None = unbounded);
        raises once the budget is already spent."""
        if deadline_at is None:
            return None
        left = deadline_at - time.monotonic()
        if left <= 0:
            raise DeadlineExceededError(
                f"compile request {req.label or req.guest!r}",
                req.deadline_s if req.deadline_s is not None else (self.deadline_s or 0.0),
                "deadline expired between service stages",
            )
        return left

    def _serve(
        self,
        req: CompileRequest,
        cache: PlanCache | None,
        segment_memo: dict | None,
    ) -> CompileResult:
        t0 = time.perf_counter()
        deadline_s = req.deadline_s if req.deadline_s is not None else self.deadline_s
        deadline_at = None if deadline_s is None else time.monotonic() + deadline_s
        machine = self.machine  # one model per request: the solve key's and the solve's
        with span("service/request"):
            program: Program | None = None
            text_key = self._text_key(req)
            memo = self._recall_form(text_key)
            if memo is None:
                # A source that fails to lower raises here, before
                # anything is remembered.
                program, form = self._front_end(req)
                memo = self._remember_form(text_key, form)
            else:
                form = memo.form
            plan_key, solve_key = self._digests(form, memo, req, machine)

            # Mint (or adopt the caller's) trace context keyed by the
            # request digest: everything below — cache traffic, pool
            # dispatches, the eventual plan.run — correlates to one id
            # (docs/OBSERVABILITY.md).
            ctx = current_context()
            if ctx is None:
                ctx = mint_context(request_digest=plan_key)
            elif not ctx.request_digest:
                ctx = replace(ctx, request_digest=plan_key)

            with tracing_context(ctx):
                entry = self._cache_lookup(cache, plan_key)
                if entry is _MISS:
                    if program is None:
                        # The memo knew the text but the cache lost the
                        # plan: start over as any miss does, so what is
                        # compiled and stored shares its strings with
                        # this parse, not with a remembered one.
                        program, form = self._front_end(req)
                    generated = self._compile_generated(
                        program, req.strategy, self._remaining(deadline_at, req)
                    )
                    plan = Plan(program=program, generated=generated)
                    rename = {name: name for name in form.rename}
                    self._cache_put(
                        cache, plan_key,
                        {"program": program, "generated": plan.generated,
                         "rename": dict(form.rename)},
                    )
                    cached = False
                else:
                    plan = Plan(program=entry["program"], generated=entry["generated"])
                    # requester orig -> canon -> stored orig
                    from_canon = {c: o for o, c in entry["rename"].items()}
                    rename = {
                        orig: from_canon[canon]
                        for orig, canon in form.rename.items()
                        if canon in from_canon
                    }
                    cached = True

                outcome: SolveOutcome | None = None
                solve_cached = False
                if solve_key is not None:
                    hit = self._cache_lookup(cache, solve_key)
                    if hit is _MISS:
                        env_stored = {rename.get(k, k): v for k, v in req.env.items()}
                        outcome = self._solve_plan(
                            plan, req, env_stored, machine, segment_memo,
                            self._remaining(deadline_at, req),
                        )
                        self._cache_put(cache, solve_key, outcome)
                    else:
                        outcome = hit
                        solve_cached = True

        stats = cache.stats if cache is not None else None
        service_stats: dict = (
            {key: getattr(stats, name) for key, name in _CACHE_STATS}
            if stats is not None
            else {}
        )
        with self._pool_lock:
            supervisor = self._supervisor
        if supervisor is not None:
            service_stats.update(
                {f"pool_{k}": v for k, v in supervisor.stats().items()}
            )
        if self.workers:
            service_stats["fallbacks"] = self._fallbacks
        with self._lock:
            if program is None:
                self._frontend_skips += 1
            service_stats["frontend_skips"] = self._frontend_skips
            service_stats["memo_disk_hits"] = self._memo_disk_hits
        return CompileResult(
            request=req,
            digest=plan_key,
            plan=plan,
            rename=rename,
            cached=cached,
            outcome=outcome,
            solve_key=solve_key,
            solve_cached=solve_cached,
            wall_seconds=time.perf_counter() - t0,
            service_stats=service_stats,
            trace_context=ctx,
        )

    # -- job queue -------------------------------------------------------
    def submit(self, source: object, **kwargs) -> CompileJob:
        """Enqueue a request for the worker pool; returns its handle.

        Call :meth:`start` (or enter the service as a context manager)
        to spin up workers; jobs submitted earlier are picked up then.
        """
        if self._closed:
            raise ReproError("service is closed")
        job = CompileJob(self.request(source, **kwargs))
        with self._lock:
            if self.queue_limit is not None and self._pending >= self.queue_limit:
                raise ServiceOverloadedError(self._pending, self.queue_limit)
            self._pending += 1
        self._queue.put(job)
        return job

    def start(self, workers: int = 1) -> "CompileService":
        """Start *workers* daemon threads draining the job queue."""
        if workers < 1:
            raise ReproError(f"workers must be >= 1, got {workers}")
        for n in range(workers):
            # Give each worker a copy of the caller's context so spans
            # recorded inside jobs land on the caller's recorder.
            ctx = contextvars.copy_context()
            thread = threading.Thread(
                target=ctx.run,
                args=(self._worker_loop,),
                name=f"compile-service-{len(self._workers) + n}",
                daemon=True,
            )
            thread.start()
            self._workers.append(thread)
        return self

    def _worker_loop(self) -> None:
        while True:
            job = self._queue.get()
            if job is None:
                self._queue.task_done()
                return
            try:
                if not job._claim():  # cancelled while queued
                    continue
                try:
                    job._finish(self._serve(job.request, self.cache, None), None)
                except BaseException as exc:  # delivered via job.wait()
                    job._finish(None, exc)
            finally:
                with self._lock:
                    self._pending -= 1
                self._queue.task_done()

    def close(self) -> None:
        """Stop the workers (and the process pool) after the queue
        drains (idempotent)."""
        if self._closed:
            return
        self._closed = True
        for _ in self._workers:
            self._queue.put(None)
        for thread in self._workers:
            thread.join()
        self._workers.clear()
        with self._pool_lock:
            supervisor, self._supervisor = self._supervisor, None
        if supervisor is not None:
            supervisor.close()

    def __enter__(self) -> "CompileService":
        if not self._workers:
            self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.close()
