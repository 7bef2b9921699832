"""The eight workloads.

Each class builds its inputs from the seed, runs one *operation* at a
time (``op`` plain, ``traced_op`` with a span around every public call),
times only the call into the program, and checks every output after the
clock has stopped against a reference that is not the code under test.
Why each exists is recorded in ``BENCHMARK.json`` and ``README.md``.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import shutil
import tempfile
import time

import numpy as np

import corpus
import staged
from spans import NO_SPANS
from repro import Grid2D, MachineModel, Ring, Session
from repro.codegen import load_generated
from repro.costmodel import sparse_gather_words
from repro.distribution.sparse import SparsePlacement
from repro.kernels import (
    jacobi_grid2d,
    multiphase_gemv,
    multiphase_sections,
    sparse_cg_parallel,
    sparse_cg_seq,
    spmv_parallel,
)
from repro.lang import parse_program
from repro.machine import TIMED_OUT, allreduce, chrome_trace_json, critical_path, run_spmd
from repro.obs import TraceStore, attribute_waits, load_imbalance
from repro.pipeline.inspector import cached_comm_schedule
from repro.service import PlanCache, program_to_json
from repro.sparse.csr import csr_from_dense, spmv_reference

MODEL = MachineModel(tf=1, tc=10)
SPARSE_MODEL = MachineModel(tf=1, tc=10, alpha=10)
NPROCS = corpus.NPROCS
EXPECTED = json.loads((pathlib.Path(__file__).parent / "expected.json").read_text())

clock = time.perf_counter


def events_of(res) -> int:
    return sum(group.events for group in res.metrics.by_kind.values())


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class Workload:
    """Base: operation accounting and the golden/reference checks."""

    name = ""
    unit = "operation"  # what ``units_per_op`` counts
    units_per_op = 1

    def __init__(self, seed: int, workdir: pathlib.Path) -> None:
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        #: exact, seed-determined facts of one operation (model.* metrics)
        self.model = {"cost": 0.0, "events": 0, "message_words": 0}

    def verdict(self, ok: bool, what: str) -> None:
        """Count one operation; a wrong output is a failed operation."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.note(what)

    def note(self, what: str) -> None:
        if len(self.failures) < 8:  # enough to see what broke
            self.failures.append(f"{self.name}: {what}")

    def golden(self, section: str, got: dict, key: str | None = None) -> bool:
        """Compare *got* with the hand-recorded values of *section* (of
        its entry *key*, when the section is keyed).  ``any_seed``
        goldens do not depend on the seed; ``seed0`` ones are skipped
        for every other seed."""
        for scope in ("any_seed", "seed0") if self.seed == 0 else ("any_seed",):
            want = EXPECTED[scope].get(section, {})
            want = want.get(key) if key is not None else want
            if want and any(got[k] != v for k, v in want.items()):
                self.note(f"{section}/{key}: {got} is not the golden {want}")
                return False
        return True

    def close(self) -> None:
        pass


# ---------------------------------------------------------------------------
# compile workloads
# ---------------------------------------------------------------------------


class _Compile(Workload):
    unit = "request"

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.corpus = corpus.build_corpus(seed)
        self.units_per_op = len(self.corpus)


class CompileCold(_Compile):
    name = "compile-cold"

    def check_cold(self, entry, source: str, strategy: str, cost: float) -> bool:
        ok = self.golden(
            "compile", {"cost": cost, "strategy": strategy, "source_sha256": sha256(source)},
            entry.label,
        )
        if entry.ref_cost is not None:
            ok = ok and cost == entry.ref_cost
        return ok

    def op(self):
        t0 = clock()
        session = Session(machine=MODEL, cache="memory")
        results = [session.compile(e.source, nprocs=NPROCS, env=e.env) for e in self.corpus]
        dt = clock() - t0
        for e, r in zip(self.corpus, results):
            self.verdict(
                not r.cached and not r.solve_cached
                and self.check_cold(e, r.source, r.strategy, r.outcome.cost),
                f"cold compile of {e.label}",
            )
        self.model["cost"] = sum(r.outcome.cost for r in results)
        return dt

    def traced_op(self, rec):
        cache = PlanCache(capacity=256)
        t0 = clock()
        served = [
            staged.serve(rec, cache, MODEL, e.source, "dsl", NPROCS, e.env, e.label)
            for e in self.corpus
        ]
        dt = clock() - t0
        for e, (gen, outcome, plan_hit, solve_hit) in zip(self.corpus, served):
            self.verdict(
                not plan_hit and not solve_hit
                and self.check_cold(e, gen.source, gen.strategy, outcome.cost),
                f"staged cold compile of {e.label}",
            )
        return dt


class CompileWarm(_Compile):
    """All-hit passes on a pre-warmed memory-tier session."""

    name = "compile-warm"
    PASSES = 3  # per operation, so that one lasts ~0.14 s like the others

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        #: each program through three surfaces: DSL text, json-ir document, alpha-twin
        self.requests = []
        for e in self.corpus:
            doc = json.dumps(program_to_json(parse_program(e.source)))
            self.requests += [(e.label, e.source, "dsl", e.env), (e.label, doc, "json-ir", e.env),
                              (e.label, e.twin, "dsl", e.twin_env)]
        self.units_per_op = self.PASSES * len(self.requests)
        self.session = self.new_session()
        self.cold = [self.session.compile(e.source, nprocs=NPROCS, env=e.env) for e in self.corpus]
        self.model["cost"] = sum(r.outcome.cost for r in self.cold)
        self.base_misses = self.session.stats.misses

    def new_session(self):
        return Session(machine=MODEL, cache="memory")

    # what one pass is served by, plain and staged
    def pass_session(self):
        return self.session

    def pass_cache(self):
        return self.session.cache

    def tier_ok(self, stats) -> bool:
        return True  # the memory tier is judged once, in close()

    def check_warm(self, answers, tier_ok=True) -> None:
        """Warm answers must be bit-identical to the cold ones."""
        for idx, (source, outcome, hit) in enumerate(answers):
            cold = self.cold[idx // 3]
            self.verdict(
                tier_ok and hit and source == cold.source and outcome.cost == cold.outcome.cost
                and outcome.result.segments == cold.outcome.result.segments,
                f"warm request {idx % 3} of {self.corpus[idx // 3].label}",
            )

    # Each pass is checked (clock stopped) before the next starts: keeping
    # three passes of results alive makes the collector's full sweeps, and
    # with them the operation, a third slower.
    def op(self):
        dt = 0.0
        for _ in range(self.PASSES):
            t0 = clock()
            session = self.pass_session()
            results = [
                session.compile(src, guest=guest, nprocs=NPROCS, env=env)
                for _label, src, guest, env in self.requests
            ]
            dt += clock() - t0
            self.check_warm(
                [(r.source, r.outcome, r.cached and r.solve_cached) for r in results],
                self.tier_ok(session.stats),
            )
        return dt

    def traced_op(self, rec):
        dt = 0.0
        for _ in range(self.PASSES):
            t0 = clock()
            cache = self.pass_cache()
            served = [
                staged.serve(rec, cache, MODEL, src, guest, NPROCS, env, label)
                for label, src, guest, env in self.requests
            ]
            dt += clock() - t0
            self.check_warm([(gen.source, out, plan_hit and solve_hit)
                             for gen, out, plan_hit, solve_hit in served])
        return dt

    def close(self):
        # the measured phase must not have missed once
        self.verdict(self.session.stats.misses == self.base_misses, "warm hit rate below 1.0")


class CompileDiskWarm(CompileWarm):
    """The same passes, each on a *fresh* disk-tier session over a
    directory populated in set-up: every first touch of a key is a disk
    read, a checksum and a promotion."""

    name = "compile-disk-warm"

    def __init__(self, seed, workdir):
        self.dir = pathlib.Path(tempfile.mkdtemp(prefix="plancache-", dir=workdir))
        super().__init__(seed, workdir)

    def new_session(self):
        return Session(machine=MODEL, cache="disk", cache_dir=self.dir)

    pass_session = new_session

    def pass_cache(self):
        return PlanCache(capacity=256, disk_dir=self.dir)

    def tier_ok(self, stats) -> bool:
        return stats.misses == 0 and stats.disk_hits == 2 * len(self.corpus)

    def close(self):
        shutil.rmtree(self.dir, ignore_errors=True)


# ---------------------------------------------------------------------------
# simulator workloads
# ---------------------------------------------------------------------------


def stress(p, rounds, vec, group):
    """X5's allreduce stress, contributing a seeded vector."""
    total = np.zeros_like(vec)
    for _ in range(rounds):
        total = total + (yield from allreduce(p, vec, group))
    return total


def storm(p, rounds):
    """X5's timeout storm: every timed receive expires (nobody sends on
    tag 9), so each step goes through the deadline calendar and the
    stall path.  No collectives, no payloads."""
    fired = 0
    for _ in range(rounds):
        got = yield from p.recv_deadline((p.rank + 1) % p.nprocs, tag=9, deadline=p.clock + 50.0)
        if got is TIMED_OUT:
            fired += 1
        p.compute(1, label="tick")
    return fired


class _Sim(Workload):
    unit = "event"
    section = ""
    #: (label, kernel, topology, args, kwargs, model, check(values) -> bool)
    runs: list

    def run_one(self, run, trace=False):
        label, kernel, topo, args, kwargs, model, _ = run
        return run_spmd(kernel, topo, model, args=args, kwargs=kwargs, trace=trace)

    def judge(self, run, res) -> None:
        label, check = run[0], run[-1]
        got = {"makespan": res.makespan, "events": events_of(res), "words": res.message_words}
        self.verdict(
            self.golden(self.section, got, label) and check(res.values) and self.extra_ok(run, res),
            label,
        )

    def extra_ok(self, run, res) -> bool:
        return True

    def totals(self, results) -> None:
        self.model = {
            "cost": sum(r.makespan for r in results),
            "events": sum(events_of(r) for r in results),
            "message_words": sum(r.message_words for r in results),
        }
        self.units_per_op = self.model["events"]

    def traced_op(self, rec):
        dt, results = 0.0, []
        for run in self.runs:
            t0 = clock()
            with rec.span("bench.request", label=run[0]):
                with rec.span("machine.engine", kernel=run[0]):
                    res = self.run_one(run)
            dt += clock() - t0
            results.append(res)
        for run, res in zip(self.runs, results):
            self.judge(run, res)
        self.totals(results)
        return dt

    def op(self):
        return self.traced_op(NO_SPANS)


class SimCollective(_Sim):
    name = "sim-collective"
    section = "sim"

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        m, rounds = 1024, 4
        A, b = corpus.spd_system(seed, m)
        x0 = np.zeros(m)
        vec = corpus.vector(seed, 8, stream=0)
        diag = np.diag(A)
        x_ref = x0
        for _ in range(2):
            x_ref = x_ref + (b - A @ x_ref) / diag
        y_ref = 2.0 * (A @ A.sum(axis=1))
        sections = multiphase_sections(m, 64)

        def gemv_ok(values):
            y = np.empty(m)
            for idx, part in zip(sections, values):
                y[idx] = part
            return np.allclose(y, y_ref, rtol=1e-10, atol=0.0)

        self.runs = [
            ("stress_n1024", stress, Ring(1024), (rounds, vec, tuple(range(1024))), None, MODEL,
             lambda vs: all(np.allclose(v, rounds * 1024 * vec, rtol=1e-10, atol=0.0) for v in vs)),
            ("grid2d_n1024", jacobi_grid2d, Grid2D(32, 32), (A, b, x0, 2, (32, 32)), None, MODEL,
             lambda vs: all(np.allclose(v, x_ref, rtol=1e-9, atol=1e-12) for v in vs)),
            ("multiphase_n64", multiphase_gemv, Ring(64), (A,), None, MODEL, gemv_ok),
        ]


class SimScheduler(_Sim):
    name = "sim-scheduler"
    section = "sim"

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        rounds = 12
        self.runs = [
            ("storm_n4096", storm, Ring(4096), (rounds,), None, MODEL,
             lambda vs: all(v == rounds for v in vs)),
        ]


class SparseCG(_Sim):
    """Inspect (empty cache) + CG + SpMV sweep on a seeded sparse SPD system."""

    name = "sparse-cg"
    section = "sparse"
    ITER, SWEEPS, N, DENSITY = 20, 8, 512, 0.06

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.csr = csr_from_dense(corpus.sparse_spd_dense(seed, self.N, self.DENSITY))
        b = corpus.vector(seed, self.N, stream=1)
        x = corpus.vector(seed, self.N, stream=2)
        x_ref, iters = sparse_cg_seq(self.csr, b, max_iterations=self.ITER, blocks=NPROCS)
        y_ref = spmv_reference(self.csr, x)
        self.schedule = None
        self.runs = [
            ("cg", sparse_cg_parallel, Ring(NPROCS), (self.csr, b),
             {"max_iterations": self.ITER}, SPARSE_MODEL,
             lambda vs: all(v[1] == iters and (v[0] == x_ref).all() for v in vs)),
            ("spmv", spmv_parallel, Ring(NPROCS), (self.csr, x),
             {"iterations": self.SWEEPS}, SPARSE_MODEL,
             lambda vs: all((v == y_ref).all() for v in vs)),
        ]
        self.sweeps = {"cg": iters, "spmv": self.SWEEPS}

    def inspect(self):
        schedule, hit = cached_comm_schedule(SparsePlacement(self.csr.pattern, NPROCS),
                                             PlanCache(capacity=8))
        self.verdict(not hit, "inspector skipped on an empty cache")
        return schedule

    def run_one(self, run, trace=False):
        label, kernel, topo, args, kwargs, model, _ = run
        return run_spmd(kernel, topo, model, args=args,
                        kwargs={**kwargs, "schedule": self.schedule}, trace=trace)

    def extra_ok(self, run, res):
        """Executor traffic must equal the schedule's analytic volume."""
        gathered = res.metrics.scope_totals("sparse-gather").words
        return gathered == sparse_gather_words(self.schedule, iterations=self.sweeps[run[0]])

    def traced_op(self, rec):
        t0 = clock()
        with rec.span("bench.request", label="inspect"):
            with rec.span("pipeline.inspector"):
                self.schedule = self.inspect()
        return clock() - t0 + super().traced_op(rec)


# ---------------------------------------------------------------------------
# journeys
# ---------------------------------------------------------------------------


def _jacobi_ref(A, b, iters):
    x, diag = np.zeros(len(b)), np.diag(A)
    for _ in range(iters):
        x = x + (b - A @ x) / diag
    return x


def _sor_ref(A, b, omega, iters):
    x = np.zeros(len(b))
    for _ in range(iters):
        for i in range(len(b)):
            x[i] += omega * (b[i] - A[i] @ x) / A[i, i]
    return x


class Journey(Workload):
    """Source text -> ``Session.compile`` (cold) -> ``run``; the traced
    subclass goes on to the trace artifact and its diagnosis."""

    name = "journey"
    unit = "event"
    want_trace = False
    SIZES = {"jacobi": {"m": 256, "maxiter": 10}, "sor": {"m": 128, "maxiter": 2},
             "gauss": {"m": 64}, "matmul": {"n": 48}}

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.programs = []
        for label, env in self.SIZES.items():
            source = corpus.PAPER[label][0]
            if label == "matmul":
                B, C = corpus.matrix_pair(seed, env["n"])
                inputs, ref = {"B": B, "C": C}, B @ C
            else:
                A, b = corpus.spd_system(seed, env["m"])
                inputs = {"A": A, "B": b}
                if label == "gauss":
                    ref = np.linalg.solve(A, b)
                else:
                    inputs |= {"X0": np.zeros(env["m"]), "iterations": env["maxiter"]}
                    if label == "sor":
                        inputs["omega"] = 1.1
                        ref = _sor_ref(A, b, 1.1, env["maxiter"])
                    else:
                        ref = _jacobi_ref(A, b, env["maxiter"])
            self.programs.append((label, source, env, inputs, ref))

    def judge(self, label, ref, res, extra=True):
        got = {"makespan": res.makespan, "events": events_of(res), "words": res.message_words}
        ok = self.golden("journey", got, label) and extra
        # Cannon gathers the product on rank 0 only; the solvers return x everywhere.
        answers = [v for v in res.values if v is not None]
        self.verdict(
            ok and answers and all(np.allclose(v, ref, rtol=1e-8, atol=1e-11) for v in answers),
            f"{label} result",
        )
        return got

    def op(self):
        dt, done = 0.0, []
        for label, source, env, inputs, ref in self.programs:
            t0 = clock()
            result = Session(machine=MODEL, cache="memory").compile(source, nprocs=NPROCS, env=env)
            res = result.run(model=MODEL, inputs=inputs, trace=self.want_trace)
            artifact = self.artifact(res) if self.want_trace else None
            dt += clock() - t0
            done.append((label, ref, res, artifact))
        self.settle(done)
        return dt

    def traced_op(self, rec):
        dt, done = 0.0, []
        for label, source, env, inputs, ref in self.programs:
            t0 = clock()
            with rec.span("bench.request", label=label):
                with rec.span("service.compiler"):
                    result = Session(machine=MODEL, cache="memory").compile(
                        source, nprocs=NPROCS, env=env)
                # CompileResult.run, unfolded: load the generated code, pick
                # the topology, hand the inputs to the engine.
                with rec.span("codegen.load"):
                    fn = load_generated(result.generated)
                q = int(round(NPROCS ** 0.5))
                topo = Grid2D(q, q) if result.strategy == "cannon" else Ring(NPROCS)
                with rec.span("machine.engine", kernel=label, trace=self.want_trace):
                    res = run_spmd(fn, topo, MODEL, args=(result.translate(inputs),),
                                   trace=self.want_trace)
                artifact = self.artifact(res, rec) if self.want_trace else None
            dt += clock() - t0
            done.append((label, ref, res, artifact))
        self.settle(done)
        return dt

    def settle(self, done):
        facts = [self.judge(label, ref, res, self.artifact_ok(res, art))
                 for label, ref, res, art in done]
        self.model = {
            "cost": sum(f["makespan"] for f in facts),
            "events": sum(f["events"] for f in facts),
            "message_words": sum(f["words"] for f in facts),
        }
        self.units_per_op = self.model["events"]

    def artifact_ok(self, res, artifact) -> bool:
        return True


class JourneyTrace(Journey):
    name = "journey-trace"
    want_trace = True

    def artifact(self, res, rec=NO_SPANS):
        with rec.span("machine.export"):
            doc = chrome_trace_json(res.trace)
        with rec.span("obs.store"):
            store = TraceStore.from_run(res)
        with rec.span("obs.diagnose"):
            waits = attribute_waits(store)
            imbalance = load_imbalance(store)
        with rec.span("machine.critpath"):
            path = critical_path(res.trace)
        return doc, store, waits, imbalance, path

    def artifact_ok(self, res, artifact) -> bool:
        doc, store, waits, imbalance, path = artifact
        flows = sum(1 for e in doc["traceEvents"] if e.get("ph") == "s")
        recorded = sum(len(lane) for lane in res.trace)
        return (
            flows == res.message_count
            and len(store) == recorded
            and abs(path.length - res.makespan) <= 1e-9 * res.makespan
            and 0.0 <= waits.coverage <= 1.0
            and len(imbalance.entries) > 0
        )


WORKLOADS = {
    cls.name: cls
    for cls in (CompileCold, CompileWarm, CompileDiskWarm, SimCollective, SimScheduler,
                Journey, JourneyTrace, SparseCG)
}
