"""Layer probes: one small fixed measurement per layer metric that the
workload's own spans cannot resolve (the engine by kernel shape and
machine size, one collective at a time, payload kinds, cache tiers,
trace capture on/off, the worker pool, ...).

Probes take their data from the seed but not their sizes, run the same
in every workload's traced pass, and time calls into public functions
only.  One *round* runs every probe once; the caller repeats rounds
while its time budget lasts and reports the median.
"""

from __future__ import annotations

import json
import pathlib
import pickle
import shutil
import tempfile
import time

import numpy as np

import corpus
from workloads import MODEL, NPROCS, SPARSE_MODEL, Journey, events_of, storm, stress
from repro import Grid2D, Ring, Session
from repro.costmodel import sparse_gather_words
from repro.distribution.runtime import lower_placement_delta
from repro.distribution.sparse import SparsePlacement
from repro.kernels import (
    heat_stencil_blocking,
    heat_stencil_overlap,
    jacobi_grid2d,
    jacobi_rowdist,
    multiphase_gemv,
    sor_pipelined,
    sparse_cg_parallel,
    spmv_parallel,
)
from repro.kernels.multiphase import S_BLOCK, S_REPL, Y_BLOCK, Y_CYCLIC
from repro.lang import parse_program
from repro.machine import (
    allgather,
    allreduce,
    bcast,
    chrome_trace_json,
    critical_path,
    reduce,
    run_spmd,
    shift,
)
from repro.machine.collectives import exchange
from repro.obs import TraceStore, attribute_waits, load_imbalance
from repro.pipeline.inspector import build_comm_schedule, cached_comm_schedule
from repro.service import PlanCache, lower, program_to_json
from repro.service.normalize import canonicalize
from repro.sparse.csr import csr_from_dense

clock = time.perf_counter

JACOBI_PY = '''\
@loop_nest(params="m, maxiter", arrays="A(m, m), V(m), B(m), X(m)")
def jacobi(m, maxiter, A, V, B, X):
    for k in range(1, maxiter + 1):
        for i in range(1, m + 1):
            V[i] = 0.0
            for j in range(1, m + 1):
                V[i] = V[i] + A[i, j] * X[j]
        for i in range(1, m + 1):
            X[i] = X[i] + (B[i] - V[i]) / A[i, i]
'''


def timed(fn, *args, **kwargs):
    t0 = clock()
    out = fn(*args, **kwargs)
    return clock() - t0, out


def sim(kernel, topo, args=(), kwargs=None, model=MODEL, trace=False):
    """-> (seconds, events, result) of one simulation."""
    dt, res = timed(run_spmd, kernel, topo, model, args=args, kwargs=kwargs, trace=trace)
    return dt, events_of(res), res


# -- tiny SPMD programs ----------------------------------------------------


def noop(p):
    return p.rank
    yield  # pragma: no cover - makes this a generator


def pingpong(p, trips, payload):
    for _ in range(trips):
        if p.rank == 0:
            p.send(1, payload, tag=5)
            payload = yield from p.recv(1, tag=6)
        else:
            payload = yield from p.recv(0, tag=5)
            p.send(0, payload, tag=6)
    return None


def one_collective(p, which, rounds, vec):
    group = tuple(range(p.nprocs))
    for _ in range(rounds):
        if which == "bcast":
            yield from bcast(p, vec, 0, group)
        elif which == "reduce":
            yield from reduce(p, vec, 0, group)
        elif which == "allreduce":
            yield from allreduce(p, vec, group)
        elif which == "allgather":
            yield from allgather(p, vec[:1], group)
        elif which == "shift":
            yield from shift(p, vec, group)
        else:
            peers = [(p.rank + d) % p.nprocs for d in (1, 2, 3)]
            yield from exchange(p, [(q, vec) for q in peers],
                                [(p.rank - d) % p.nprocs for d in (1, 2, 3)])
    return None


class Probes:
    """Inputs are built once (from the seed); :meth:`round` measures."""

    def __init__(self, seed: int, workdir: pathlib.Path) -> None:
        self.workdir = workdir
        self.corpus = corpus.build_corpus(seed)
        self.docs = [json.dumps(program_to_json(parse_program(e.source))) for e in self.corpus]
        self.paper = {label: (src, env) for label, (src, env, _) in corpus.PAPER.items()}
        self.journey = {p[0]: p for p in Journey(seed, workdir).programs}
        self.A, self.b = corpus.spd_system(seed, 1024)
        self.vec = corpus.vector(seed, 8, stream=0)
        self.heat = corpus.vector(seed, 4096, stream=3)
        self.csr = csr_from_dense(corpus.sparse_spd_dense(seed, 512, 0.06))
        self.sb = corpus.vector(seed, 512, stream=1)
        self.lowerings = 0  # keeps every cold lowering on an unseen key

    def round(self) -> dict[str, float]:
        m: dict[str, float] = {}
        self.front_end(m)
        self.cache_tiers(m)
        self.compiler(m)
        self.redistribution(m)
        self.generated_code(m)
        self.engine(m)
        self.collectives(m)
        self.trace_and_obs(m)
        self.sparse(m)
        return m

    # -- lang / guests / normalize ----------------------------------------
    def front_end(self, m):
        sources = [e.source for e in self.corpus]
        dt, programs = timed(lambda: [parse_program(s) for s in sources])
        m["lang.parse_kchars_per_s"] = sum(map(len, sources)) / 1e3 / dt
        m["service.guests.lower_ms.dsl"] = timed(lambda: [lower(s, "dsl") for s in sources])[0] * 1e3
        m["service.guests.lower_ms.json-ir"] = (
            timed(lambda: [lower(d, "json-ir") for d in self.docs])[0] * 1e3
        )
        m["service.guests.lower_ms.python-ast"] = timed(lower, JACOBI_PY, "python-ast")[0] * 1e3
        m["service.normalize.canonical_bytes"] = sum(len(canonicalize(p).text) for p in programs)

    # -- service.cache ------------------------------------------------------
    def cache_tiers(self, m):
        session = Session(machine=MODEL, cache="memory")
        self.cold = [session.compile(e.source, nprocs=NPROCS, env=e.env) for e in self.corpus]
        items = [(k, session.cache.get(k)) for r in self.cold for k in (r.digest, r.solve_key)]

        def put_all(cache):
            return timed(lambda: [cache.put(k, v) for k, v in items])[0] * 1e3

        def get_all(cache):
            dt, got = timed(lambda: [cache.get(k) for k, _ in items])
            if any(g is None for g in got):
                raise RuntimeError("cache probe: an entry just written was not served")
            return dt * 1e3

        memory = PlanCache(capacity=256)
        m["service.cache.put_ms"] = put_all(memory)
        m["service.cache.lookup_ms"] = get_all(memory)
        m["service.cache.hit_rate"] = memory.stats.hit_rate
        disk = pathlib.Path(tempfile.mkdtemp(prefix="probe-cache-", dir=self.workdir))
        try:
            m["service.cache.disk_put_ms"] = put_all(PlanCache(capacity=256, disk_dir=disk))
            # a fresh cache over the same directory has to go to the files
            m["service.cache.disk_lookup_ms"] = get_all(PlanCache(capacity=256, disk_dir=disk))
        finally:
            shutil.rmtree(disk, ignore_errors=True)
        m["service.cache.entry_bytes"] = sum(
            len(pickle.dumps(v, protocol=pickle.HIGHEST_PROTOCOL)) for _, v in items
        )
        m["codegen.source_bytes"] = sum(len(r.source) for r in self.cold)

    # -- service.compiler / supervisor --------------------------------------
    def compiler(self, m):
        inproc = {}
        for label, (src, env) in self.paper.items():
            inproc[label], _ = timed(
                Session(machine=MODEL, cache="off").compile, src, nprocs=NPROCS, env=env
            )
            m[f"service.compiler.cold_ms.{label}"] = inproc[label] * 1e3
        # The pool spawns on the first request; the later ones show the
        # per-request cost of crossing the process boundary.
        pooled = Session(machine=MODEL, cache="off", workers=2)
        try:
            walls = [
                timed(pooled.compile, src, nprocs=NPROCS, env=env)[0]
                for src, env in self.paper.values()
            ]
        finally:
            pooled.close()
        base = list(inproc.values())
        m["service.supervisor.spawn_ms"] = (walls[0] - base[0]) * 1e3
        m["service.supervisor.roundtrip_ms"] = (sum(walls[1:]) - sum(base[1:])) / 3 * 1e3

    # -- distribution ---------------------------------------------------------
    def redistribution(self, m):
        m["distribution.redistribution.plan_ms"] = timed(
            lambda: [r.outcome.tables.transition_plans(r.outcome.result) for r in self.cold]
        )[0] * 1e3
        self.lowerings += 1
        extents, grid = (4096 + 64 * self.lowerings,), (64, 1)
        m["distribution.runtime.lower_cold_ms"] = timed(lambda: [
            lower_placement_delta(S_BLOCK, S_REPL, extents, grid),
            lower_placement_delta(Y_BLOCK, Y_CYCLIC, extents, grid),
        ])[0] * 1e3
        m["distribution.runtime.lower_warm_us"] = timed(lambda: [
            lower_placement_delta(Y_BLOCK, Y_CYCLIC, extents, grid) for _ in range(1000)
        ])[0] * 1e3

    # -- codegen ----------------------------------------------------------------
    def generated_code(self, m):
        session = Session(machine=MODEL, cache="memory")
        self.sor_result = None
        for label, (_, source, env, inputs, _ref) in self.journey.items():
            result = session.compile(source, nprocs=NPROCS, env=env)
            dt, _ = timed(result.run, model=MODEL, inputs=inputs)
            m[f"codegen.run_ms.{label}"] = dt * 1e3
            if label in ("jacobi", "sor"):
                A, b, x0, iters = inputs["A"], inputs["B"], inputs["X0"], inputs["iterations"]
                if label == "jacobi":
                    lib, _, _ = sim(jacobi_rowdist, Ring(NPROCS), (A, b, x0, iters))
                    dt_threaded, _ = timed(result.run, model=MODEL, inputs=inputs,
                                           backend="threaded")
                    m["machine.threaded.run_ms.jacobi_n16"] = dt_threaded * 1e3
                else:
                    lib, _, _ = sim(sor_pipelined, Ring(NPROCS), (A, b, x0, inputs["omega"], iters))
                    self.sor_result, self.sor_inputs = result, inputs
                m[f"codegen.generated_vs_library.{label}"] = dt / lib

    # -- machine.engine ----------------------------------------------------------
    def engine(self, m):
        us = {}
        x0 = np.zeros(1024)
        cases = [
            ("stress_n256", stress, Ring(256), (4, self.vec, tuple(range(256)))),
            ("stress_n1024", stress, Ring(1024), (4, self.vec, tuple(range(1024)))),
            ("stress_n4096", stress, Ring(4096), (4, self.vec, tuple(range(4096)))),
            ("grid2d_n1024", jacobi_grid2d, Grid2D(32, 32), (self.A, self.b, x0, 2, (32, 32))),
            ("multiphase_n64", multiphase_gemv, Ring(64), (self.A,)),
            ("storm_n256", storm, Ring(256), (12,)),
            ("storm_n4096", storm, Ring(4096), (6,)),
            ("pingpong_w8", pingpong, Ring(2), (1000, np.ones(8))),
            ("pingpong_w8192", pingpong, Ring(2), (1000, np.ones(8192))),
            ("pingpong_dict", pingpong, Ring(2),
             (1000, {"a": np.ones(8), "b": [1.0, 2.0, {"c": np.ones(8)}]})),
        ]
        self.untraced = {}
        for label, kernel, topo, args in cases:
            dt, events, res = sim(kernel, topo, args)
            us[label] = dt * 1e6 / events
            m[f"machine.engine.us_per_event.{label}"] = us[label]
            self.untraced[label] = (dt, kernel, topo, args)
            if label in ("stress_n1024", "grid2d_n1024", "multiphase_n64", "storm_n4096"):
                m[f"machine.engine.events.{label}"] = events
            if label == "multiphase_n64":
                m["distribution.runtime.redist_words.multiphase_n64"] = sum(
                    res.metrics.scope_totals(scope).words for scope in ("phase1to2", "phase2to3")
                )
        m["machine.engine.flatness.stress"] = us["stress_n4096"] / us["stress_n256"]
        m["machine.engine.flatness.storm"] = us["storm_n4096"] / us["storm_n256"]
        m["machine.engine.setup_us_per_rank"] = sim(noop, Ring(4096))[0] * 1e6 / 4096

    # -- machine.collectives / nonblocking ----------------------------------------
    def collectives(self, m):
        for which in ("bcast", "reduce", "allreduce", "allgather", "shift", "exchange"):
            # one allgather on 256 ranks is already 65k events
            rounds = 1 if which == "allgather" else 4
            dt, events, _ = sim(one_collective, Ring(256), (which, rounds, self.vec))
            m[f"machine.collectives.us_per_event.{which}"] = dt * 1e6 / events
        for label, kernel in (("heat_overlap", heat_stencil_overlap),
                              ("heat_blocking", heat_stencil_blocking)):
            dt, events, _ = sim(kernel, Ring(NPROCS), (self.heat, 50), model=SPARSE_MODEL)
            m[f"machine.nonblocking.us_per_event.{label}"] = dt * 1e6 / events

    # -- machine.trace / export / obs -------------------------------------------------
    def trace_and_obs(self, m):
        for label in ("grid2d_n1024", "stress_n1024"):
            plain, kernel, topo, args = self.untraced[label]
            m[f"machine.trace.overhead_ratio.{label}"] = sim(kernel, topo, args, trace=True)[0] / plain
        run = self.sor_result.run
        plain, _ = timed(run, model=MODEL, inputs=self.sor_inputs)
        traced, res = timed(run, model=MODEL, inputs=self.sor_inputs, trace=True)
        m["machine.trace.overhead_ratio.sor_n16"] = traced / plain
        kevents = sum(len(lane) for lane in res.trace) / 1e3
        m["machine.metrics.as_dict_ms"] = timed(res.metrics.as_dict)[0] * 1e3
        m["machine.critpath.ms_per_kevent"] = timed(critical_path, res.trace)[0] * 1e3 / kevents
        m["machine.export.chrome_ms_per_kevent"] = (
            timed(chrome_trace_json, res.trace)[0] * 1e3 / kevents
        )
        dt, store = timed(TraceStore.from_run, res)
        m["obs.store.from_run_ms_per_kevent"] = dt * 1e3 / kevents
        m["obs.store.query_ms"] = timed(lambda: (
            store.query(kind="recv"), store.query(rank=3), store.query(kind=("send", "compute"),
                                                                       between=(0.0, 1000.0)),
            store.wait_seconds(), store.send_matrix(),
        ))[0] * 1e3
        m["obs.diagnose.attribute_waits_ms"] = timed(attribute_waits, store)[0] * 1e3
        m["obs.diagnose.load_imbalance_ms"] = timed(load_imbalance, store)[0] * 1e3

    # -- pipeline.inspector / sparse kernels ---------------------------------------------
    def sparse(self, m):
        placement = SparsePlacement(self.csr.pattern, NPROCS)
        dt, schedule = timed(build_comm_schedule, placement)
        m["pipeline.inspector.build_ms"] = dt * 1e3
        cache = PlanCache(capacity=8)
        cached_comm_schedule(placement, cache)
        dt, (_, hit) = timed(cached_comm_schedule, SparsePlacement(self.csr.pattern, NPROCS), cache)
        if not hit:
            raise RuntimeError("inspector probe: warm cache did not serve the schedule")
        m["pipeline.inspector.cache_hit_us"] = dt * 1e6
        m["pipeline.inspector.schedule_bytes"] = len(
            pickle.dumps(schedule, protocol=pickle.HIGHEST_PROTOCOL)
        )
        dt, events, res = sim(sparse_cg_parallel, Ring(NPROCS), (self.csr, self.sb),
                              {"max_iterations": 20, "schedule": schedule}, SPARSE_MODEL)
        m["kernels.sparse_cg.us_per_event"] = dt * 1e6 / events
        m["kernels.sparse_cg.iterations"] = res.values[0][1]
        dt, events, res = sim(spmv_parallel, Ring(NPROCS), (self.csr, self.sb),
                              {"iterations": 8, "schedule": schedule}, SPARSE_MODEL)
        m["kernels.spmv.us_per_event"] = dt * 1e6 / events
        gathered = res.metrics.scope_totals("sparse-gather").words
        if gathered != sparse_gather_words(schedule, iterations=8):
            raise RuntimeError("sparse probe: gather words differ from the analytic volume")
        m["sparse.gather_words"] = gathered
