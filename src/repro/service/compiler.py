"""The compile service: requests in, content-addressed results out.

:class:`CompileService` is the compile hub; :class:`repro.api.Session`
is the same class.  A request names a source (in any registered guest
surface), an optional forced strategy, and — when the caller wants
Algorithm 1's answer — the machine context ``(nprocs, env)``.  The
service lowers, canonicalizes, and serves from the
:class:`~repro.service.cache.PlanCache` at two granularities:

* the **plan key** (canonical IR + strategy) addresses the codegen
  artifact — recognized pattern and emitted SPMD source;
* the **solve key** (plan key + machine parameters + ``N`` + env)
  addresses the alignment/DP tables and Algorithm 1's chosen chain.

Both keys are functions of the program's
:class:`~repro.service.normalize.CanonicalForm` alone, and for ``str``
sources the service keeps a **source-text memo** in front of the front
ends: ``(guest, text)`` → the form, an LRU bounded by ``cache_capacity``
and, when the cache has a disk tier, written through to it under
``sha256(IR_SCHEMA, guest, text)`` (:meth:`PlanCache.remember` /
:meth:`PlanCache.recall` — the cache's own files, locks and quarantine),
so the memo is as warm as the cache directory, not as the process.  In
memory each entry also keeps the plan and solve keys it served, so a
repeated request hashes neither its text nor its canonical form.  A byte-identical resubmission
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

``compile_batch`` serves each item as :meth:`CompileService.compile`
would and shares only the plan cache between them: Algorithm 1's tables
are a function of the whole program (its declarations price §3's edges),
so no part of them is shared between different programs.

``compile``, ``compile_batch`` and ``submit`` build their request one
way (:func:`_request`): keyword options fill a bare source's request,
and beside a :class:`CompileRequest` they must agree with it.

The job queue (``submit``/``start``/``close``) is a
:class:`concurrent.futures.ThreadPoolExecutor`; each job runs in the
context its ``submit`` saw.  Every request — queued or direct — is
wrapped in a ``service/request`` span on the compiler Perfetto lane,
with ``service/frontend`` (lower + canonicalize; absent when the memo
served the form) and ``service/lookup`` (one per cache probe) inside it.

With ``workers`` set the expensive phases (codegen, the Algorithm 1
solve) additionally run on a **supervised process pool**
(:class:`repro.service.supervisor.WorkerSupervisor`, spawned from an
``int`` or passed ready-built with its own retry, respawn, backoff and
chaos knobs): a worker crash is detected, respawned with capped backoff
and the request retried; when the pool exhausts its budget the service
compiles in-process instead (logged and counted in
``service_stats["fallbacks"]``, never silently wrong).  ``queue_limit``
bounds the admission queue
(:class:`~repro.errors.ServiceOverloadedError` sheds excess load) and
``deadline_s`` — per request or service-wide — cancels stragglers with
:class:`~repro.errors.DeadlineExceededError` instead of orphaning them.
See docs/API.md §"Operating the service".
"""

from __future__ import annotations

import contextvars
import hashlib
import logging
import threading
import time
from collections import OrderedDict
from concurrent import futures
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
from repro.service.plan import Explanation, Plan, PlanEntry, SolveOutcome, check_env, check_nprocs
from repro.service.supervisor import WorkerSupervisor, _run_task
from repro.util import spans
from repro.util.spans import span

logger = logging.getLogger("repro.service")

#: ``service_stats`` key and :class:`CacheStats` field of each cache counter.
_CACHE_STATS = tuple((f"cache_{f.name}", f.name) for f in fields(CacheStats))

#: Digest pairs one memo entry remembers before it forgets them all.
_DIGESTS_PER_FORM = 16


class _Memo:
    """One source-text memo entry: the form, and the digests served from it.

    ``digests`` maps what a request's digests hash besides the form —
    strategy, ``nprocs``, execute, env items — to ``(machine, plan key,
    solve key)``.  An answer counts only while its ``machine`` *is* the
    service's, so a reassigned :attr:`CompileService.machine` re-derives
    the solve key.
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
        # typed, and plain ints before any digest
        if self.nprocs is not None:
            object.__setattr__(self, "nprocs", check_nprocs(self.nprocs))
        if self.env is not None:
            object.__setattr__(self, "env", check_env(self.env))

    @property
    def wants_solve(self) -> bool:
        return self.nprocs is not None and self.env is not None


@dataclass(frozen=True)
class CompileResult:
    """A served request: the plan plus its cache provenance.

    ``plan`` is the *stored* artifact — when the request hit a cache
    entry written by an alpha-twin, the plan speaks the twin's names and
    ``rename`` maps the requester's names onto them.  The delegating
    surface (:meth:`run`, :meth:`solve`, :meth:`explain`) translates env
    and input keys through ``rename``, so callers never see the twin.
    :meth:`solve` and :meth:`explain` answer under ``machine``, the model
    the service derived the solve key from, unless given another.
    """

    request: CompileRequest
    digest: str
    plan: Plan
    rename: dict[str, str]
    cached: bool
    outcome: SolveOutcome | None = None
    solve_key: str | None = None
    solve_cached: bool = False
    machine: MachineModel | None = None
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

    def _holds(self, nprocs, env, model) -> bool:
        """Whether the held outcome is Algorithm 1's answer under
        ``(nprocs, env, model)`` (requester-side *env*; *model* None is
        ``machine``)."""
        return (
            self.outcome is not None
            and nprocs == self.request.nprocs
            and env == self.request.env
            and (model is None or model == self.machine)
        )

    def solve(
        self,
        nprocs: int | None = None,
        env: dict[str, int] | None = None,
        *,
        model: MachineModel | None = None,
        execute: bool = False,
        backends: tuple[str, ...] = ("engine", "threaded"),
    ) -> SolveOutcome:
        """Algorithm 1's answer under *model* (default: ``machine``);
        returns the request-time outcome when the arguments match what
        the service already solved."""
        nprocs = self.request.nprocs if nprocs is None else nprocs
        env = self.request.env if env is None else env
        if nprocs is None or env is None:
            raise ReproError("solve() needs nprocs and env (none on the request)")
        if self._holds(nprocs, env, model) and execute == self.request.execute:
            return self.outcome
        return self.plan.solve(
            nprocs, self.translate(env), model=model or self.machine,
            execute=execute, backends=backends,
        )

    def explain(
        self,
        nprocs: int | None = None,
        env: dict[str, int] | None = None,
        *,
        model: MachineModel | None = None,
    ) -> Explanation:
        """Render what :meth:`solve` answers — the held outcome, whatever
        the request's ``execute``, when the arguments match the request."""
        nprocs = self.request.nprocs if nprocs is None else nprocs
        env = self.request.env if env is None else env
        if nprocs is None or env is None:
            return self.plan.explain(nprocs)
        execute = self.request.execute and self._holds(nprocs, env, model)
        outcome = self.solve(nprocs, env, model=model, execute=execute)
        return Explanation.of(self.plan, outcome, check_nprocs(nprocs), self.translate(env))


class CompileJob:
    """Handle for a queued request; ``wait()`` blocks for the result.

    A thin handle over a :class:`concurrent.futures.Future`: *pending*
    until an executor thread claims it, then running, then done (result
    or error).  A pending job can be :meth:`cancel`\\led — it never runs
    and its admission slot frees at once.  ``wait`` raises what the
    request raised or a :class:`~repro.errors.ReproError`, never the
    futures module's ``TimeoutError`` or ``CancelledError``.
    """

    __slots__ = ("request", "_future")

    def __init__(self, request: CompileRequest) -> None:
        self.request = request
        self._future: futures.Future = futures.Future()

    @property
    def done(self) -> bool:
        return self._future.done()

    @property
    def cancelled(self) -> bool:
        return self._future.cancelled()

    def cancel(self) -> bool:
        """Cancel the job if no worker has claimed it yet.

        Returns True when the job was still pending (it will never run;
        waiters get a :class:`DeadlineExceededError`).  A running,
        finished or already cancelled job returns False — the thread
        tier cannot preempt.
        """
        return not self._future.cancelled() and self._future.cancel()

    def _deadline(self, seconds: float, detail: str) -> DeadlineExceededError:
        return DeadlineExceededError(
            f"compile job {self.request.label or self.request.guest!r}", seconds, detail
        )

    def wait(self, timeout: float | None = None) -> CompileResult:
        """Block for the result; on timeout the job is cancelled if
        still pending (cleanly — never orphaned in the queue)."""
        try:
            error = self._future.exception(timeout)
        except futures.CancelledError:
            raise self._deadline(
                self.request.deadline_s or 0.0, "cancelled before a worker claimed it"
            ) from None
        except futures.TimeoutError:
            detail = (
                "cancelled before a worker claimed it"
                if self.cancel()
                else "already running; its result will be discarded"
            )
            raise self._deadline(timeout if timeout is not None else 0.0, detail) from None
        if error is not None:
            raise error
        return self._future.result()


def _request(verb: str, source: object, options: dict) -> CompileRequest:
    """The one way ``compile``, ``compile_batch`` and ``submit`` turn a
    source and keyword *options* (any :class:`CompileRequest` field but
    ``source``) into a request.

    A :class:`CompileRequest` carries its own fields: an option that
    differs from the request's is a :class:`ReproError` naming it, never
    a silent drop or override; options equal to the request's pass.
    """
    if not isinstance(source, CompileRequest):
        return CompileRequest(source=source, **options)
    clashes = [
        f"{name}={value!r}" for name, value in options.items()
        if getattr(source, name, _MISS) != value
    ]
    if clashes:
        raise ReproError(
            f"{verb}() got a CompileRequest and also {', '.join(clashes)}; "
            "set them on the request (dataclasses.replace) instead"
        )
    return source


@dataclass(kw_only=True, eq=False)
class CompileService:
    """Cache-backed compiler hub (see module docstring); also exported
    as :class:`repro.api.Session`.

    Seven settings, all keyword-only:

    machine:
        The :class:`MachineModel` whose ``tf``/``tc``/``alpha`` are
        folded into every solve key (``None``: ``MachineModel()``).
    cache:
        ``"off"``, ``"memory"`` (default), ``"disk"`` — or a
        :class:`PlanCache` to share between services.
    cache_capacity:
        Memory-tier LRU bound (also bounds the source-text memo).
    cache_dir:
        Directory for the disk tier (required for ``cache="disk"``).
        It holds the plans and the memo's canonical forms, so a new
        service over a populated directory starts warm.
    workers:
        ``0`` (default) keeps everything in-process.  An ``int > 0``
        lazily spawns a :class:`WorkerSupervisor` of that many
        subprocesses for codegen and Algorithm 1 solves; a ready
        :class:`WorkerSupervisor` is used as given — build one to set
        ``retry_budget``, ``max_respawns``, ``backoff_s`` or
        ``chaos_kill_requests``.  When the pool fails, the request is
        compiled in-process and counted in ``fallbacks``.
    deadline_s:
        Service-wide per-request deadline (overridable per request):
        straggling pool workers are killed and
        :class:`~repro.errors.DeadlineExceededError` raised.
    queue_limit:
        Bound on submitted-but-unfinished :meth:`submit` jobs; excess
        submissions shed load with
        :class:`~repro.errors.ServiceOverloadedError`.

    Construction starts nothing: the job queue's threads start with
    :meth:`start` (or entering the service as a context manager), the
    pool with the first request that needs it.  :meth:`close` (or
    exiting) stops both.  See docs/API.md §"Operating the service".
    """

    machine: MachineModel | None = None
    cache: PlanCache | str | None = "memory"
    cache_capacity: int = 256
    cache_dir: object = None
    workers: int | WorkerSupervisor = 0
    deadline_s: float | None = None
    queue_limit: int | None = None

    def __post_init__(self) -> None:
        if self.machine is None:
            self.machine = MachineModel()
        if isinstance(self.cache, str):
            self.cache = make_cache(
                self.cache, capacity=self.cache_capacity, disk_dir=self.cache_dir
            )
        self._lock = threading.Lock()
        self._pool_lock = threading.Lock()
        self._supervisor = self.workers if isinstance(self.workers, WorkerSupervisor) else None
        self._fallbacks = 0
        #: the job queue: its executor (from :meth:`start`), the jobs
        #: submitted before it, and (with ``queue_limit``) the admitted ones
        self._executor: futures.ThreadPoolExecutor | None = None
        self._backlog: list[tuple[contextvars.Context, CompileJob]] = []
        self._admitted: list[CompileJob] = []
        self._closed = False
        #: source-text memo, memory tier: (guest, text) -> the form and
        #: its digests (the disk tier, keyed by :meth:`_text_key`, is the
        #: cache's)
        self._forms: OrderedDict[tuple[str, str], _Memo] = OrderedDict()
        self._frontend_skips = 0
        self._memo_disk_hits = 0

    # -- the process-pool tier -------------------------------------------
    def _pool(self) -> WorkerSupervisor | None:
        """The supervisor — given, or spawned on first use (None when
        ``workers=0`` or the service is closed)."""
        if not self.workers or self._closed:
            return None
        with self._pool_lock:
            if self._supervisor is None:
                self._supervisor = WorkerSupervisor(self.workers, self.machine)
            return self._supervisor

    def _call(self, task: dict, deadline_s: float | None):
        """Run one codegen or solve *task* under its ``model``: on the pool
        tier when there is one, else — or when the pool crashes out
        (counted in ``fallbacks``) — in-process through the same
        :func:`~repro.service.supervisor._run_task`.  Deadline misses
        propagate."""
        pool = self._pool()
        if pool is not None:
            try:
                return pool.call(task, deadline_s=deadline_s)
            except WorkerCrashedError as exc:
                with self._lock:
                    self._fallbacks += 1
                spans.instant("service/fallback")
                logger.warning("process pool unavailable (%s); compiling in-process", exc)
        return _run_task(task, task["model"])

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
        """The disk key of *req*'s memo entry, or None when it bypasses
        the memo (non-``str`` source, or ``cache="off"``: a service told
        to keep nothing keeps no forms either).  Computed only on a
        memory miss: the memory tier is keyed by ``(guest, text)``."""
        if self.cache is None or not isinstance(req.source, str):
            return None
        h = hashlib.sha256(IR_SCHEMA.encode())
        h.update(b"\x00" + req.guest.encode() + b"\x00")
        h.update(req.source.encode())
        return h.hexdigest()

    def _recall_form(self, req: CompileRequest) -> _Memo | None:
        """*req*'s memo entry, or None: a miss, or a request that bypasses
        the memo (see :meth:`_text_key`)."""
        if self.cache is None or not isinstance(req.source, str):
            return None
        with self._lock:
            memo = self._forms.get((req.guest, req.source))
            if memo is not None:
                self._forms.move_to_end((req.guest, req.source))
                return memo
            # Not in this process's memo: a previous one may have left
            # the form in the cache directory.
            form = self.cache.recall(self._text_key(req))
            if form is None:
                return None
            self._memo_disk_hits += 1
            return self._keep_form(req, form)

    def _remember_form(self, req: CompileRequest, form: CanonicalForm) -> _Memo | None:
        text_key = self._text_key(req)
        if text_key is None:
            return None
        with self._lock:
            memo = self._keep_form(req, form)
            self.cache.remember(text_key, form)
            return memo

    def _keep_form(self, req: CompileRequest, form: CanonicalForm) -> _Memo:
        """Memory tier of the memo (caller holds the service lock)."""
        memo = self._forms[req.guest, req.source] = _Memo(form)
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
            key = (req.strategy, req.nprocs, req.execute, None if env is None else tuple(env.items()))
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
    def compile(self, source: object, **options) -> CompileResult:
        """Serve one request: *source* is a :class:`CompileRequest` or
        anything its guest lowers, *options* the request's other fields
        (``guest``, ``strategy``, ``nprocs``, ``env``, ``execute``,
        ``label``, ``deadline_s``; see :func:`_request`)."""
        return self._serve(_request("compile", source, options), self.cache)

    def compile_batch(self, sources, **options) -> list[CompileResult]:
        """Serve many requests, sharing the plan cache across the batch.

        Each item is built and served as :meth:`compile` builds and serves
        one: a bare source takes *options*, a :class:`CompileRequest` is
        served as it is.  With ``cache="off"`` an ephemeral batch-local
        cache still coalesces duplicate programs (and their alpha-twins)
        within the batch.
        """
        requests = [_request("compile_batch", s, options) for s in sources]
        cache = self.cache
        if cache is None and len(requests) > 1:
            cache = PlanCache(capacity=max(len(requests) * 2, 8))
        with span("service/batch"):
            return [self._serve(req, cache) for req in requests]

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

    def _serve(self, req: CompileRequest, cache: PlanCache | None) -> CompileResult:
        t0 = time.perf_counter()
        deadline_s = req.deadline_s if req.deadline_s is not None else self.deadline_s
        deadline_at = None if deadline_s is None else time.monotonic() + deadline_s
        machine = self.machine  # one model per request: the solve key's and the solve's
        with span("service/request"):
            program: Program | None = None
            memo = self._recall_form(req)
            if memo is None:
                # A source that fails to lower raises here, before
                # anything is remembered.
                program, form = self._front_end(req)
                memo = self._remember_form(req, form)
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
                    generated = self._call(
                        {"kind": "compile", "program": program, "strategy": req.strategy,
                         "model": machine},
                        self._remaining(deadline_at, req),
                    )["generated"]
                    plan = Plan(program=program, generated=generated)
                    rename = {name: name for name in form.rename}
                    self._cache_put(
                        cache, plan_key,
                        PlanEntry(program, plan.generated, dict(form.rename)),
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
                        outcome = self._call(
                            {
                                "kind": "solve",
                                "program": plan.program,
                                "generated": plan.generated,
                                "nprocs": req.nprocs,
                                "env": {rename.get(k, k): v for k, v in req.env.items()},
                                "execute": req.execute,
                                "model": machine,
                            },
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
            machine=machine,
            wall_seconds=time.perf_counter() - t0,
            service_stats=service_stats,
            trace_context=ctx,
        )

    # -- job queue -------------------------------------------------------
    def submit(self, source: object, **options) -> CompileJob:
        """Queue a request (built as :meth:`compile` builds one); returns
        its handle.

        The job runs on the executor :meth:`start` creates, in a copy of
        the caller's context taken here (spans land on the caller's
        recorder); jobs submitted before :meth:`start` wait for it.
        """
        job = CompileJob(_request("submit", source, options))
        context = contextvars.copy_context()
        with self._lock:
            if self._closed:
                raise ReproError("service is closed")
            if self.queue_limit is not None:
                # a finished, failed or cancelled job holds no slot
                self._admitted = [j for j in self._admitted if not j.done]
                if len(self._admitted) >= self.queue_limit:
                    raise ServiceOverloadedError(len(self._admitted), self.queue_limit)
                self._admitted.append(job)
            if self._executor is None:
                self._backlog.append((context, job))
            else:
                self._executor.submit(context.run, self._run, job)
        return job

    def _run(self, job: CompileJob) -> None:
        if job._future.set_running_or_notify_cancel():  # False: cancelled while queued
            try:
                job._future.set_result(self._serve(job.request, self.cache))
            except BaseException as exc:  # delivered via job.wait()
                job._future.set_exception(exc)

    def start(self, workers: int = 1) -> "CompileService":
        """Start the job queue's executor with *workers* threads; it
        takes every job submitted so far.  A service starts once."""
        if workers < 1:
            raise ReproError(f"workers must be >= 1, got {workers}")
        with self._lock:
            if self._closed:
                raise ReproError("service is closed")
            if self._executor is not None:
                raise ReproError("the job queue is already started")
            self._executor = futures.ThreadPoolExecutor(workers, thread_name_prefix="compile-service")
            for context, job in self._backlog:
                self._executor.submit(context.run, self._run, job)
            self._backlog.clear()
        return self

    def close(self) -> None:
        """Drain the job queue, then stop its threads and the process
        pool (idempotent).  Jobs no thread will claim — the queue never
        started — fail with ``ReproError("service is closed")``."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            executor, backlog, self._backlog = self._executor, self._backlog, []
        if executor is not None:
            executor.shutdown()
        closed = ReproError("service is closed")
        for _, job in backlog:
            if job._future.set_running_or_notify_cancel():
                job._future.set_exception(closed)
        with self._pool_lock:
            supervisor, self._supervisor = self._supervisor, None
        if supervisor is not None:
            supervisor.close()

    def __enter__(self) -> "CompileService":
        if self._executor is None:
            self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.close()
