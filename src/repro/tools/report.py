"""Regenerate the paper's key artifacts without pytest.

Usage::

    python -m repro.tools.report [outdir]
    python -m repro.tools.report --trace {sor,jacobi,cannon,spmv,sparse-cg} [--out DIR]
    python -m repro.tools.report --redist [--out DIR]
    python -m repro.tools.report --diagnose KERNEL [--out DIR]
    python -m repro.tools.report --diff RUN_A RUN_B [--out DIR]

Without ``--trace``, writes the analytic Table 1/2, the Table 3/4
layouts, the Table 5 token analysis, the Fig 2/7 affinity graphs, the
Fig 3 decomposition, the Fig 5 schedule, the generated Fig 6/8 programs,
and a headline summary of the measured §4/§5/§6 comparisons.  The full
sweeps (with shape assertions) live in ``benchmarks/``; this tool is the
quick console/CI variant.

With ``--trace KERNEL``, runs one reference kernel with tracing on and
prints the observability report — per-rank/per-collective metrics, the
critical path, an ASCII gantt, and the TraceStore aggregations (wait
time, message volume, the per-rank send matrix) — and, when ``--out``
(or the positional outdir) is given, writes the queryable event store
as JSONL, a Perfetto-loadable correlated Chrome-trace JSON, and a
metrics JSON snapshot.  Unknown kernels exit 2 with the known listing.

With ``--diagnose KERNEL``, runs one diagnosable kernel traced and
prints the automated diagnostics (docs/OBSERVABILITY.md): per-wait
attribution with named culprits, compute load balance with the
offending rank, and the cost-model term decomposition.  On the chaos
``jacobi`` drill the attributed share of idle time is checked against
the ``wait-attribution`` band; misses exit nonzero.  ``--out`` writes
the machine-readable ``diagnose_<kernel>.json`` twin.

With ``--diff A B``, runs two registered runs traced and reports what
moved: makespans, cost-model terms (compute/alpha/transfer/wait), and
the critical-path edge diff.  The ``heat-blocking``/``heat-overlap``
pair additionally reconciles the measured overlapped makespan against
the X10 ``overlap=True`` prediction under the ``overlap-makespan``
band.  ``--out`` writes ``diff_<a>_vs_<b>.json``.

With ``--redist``, runs Algorithm 1 on the Fig 3 Jacobi program
(m=256, N=16), lowers every redistribution of the chosen chain to real
message traffic on both engines, and prints the calibration table —
analytic vs measured words per transition with the documented slack band.
Exits nonzero if any transition misses the band or lands wrong sections.

With ``--chaos``, runs the resilient Jacobi kernel on both backends under
a seeded :class:`~repro.machine.faults.FaultPlan` (delays, drops,
duplicates, a rank slowdown) and checks the determinism contract — the
chaotic result must be bit-identical to the fault-free run — then injects
a mid-run crash and shows checkpoint/restart re-convergence, printing the
fault/resilience counters per backend.  Exits nonzero on any mismatch.

With ``--deadlock``, forces a ring-recv deadlock on both backends and
prints the forensics report (blocked ranks, waited channels, wait-for
cycles, recent per-rank events), verifying both backends name every
blocked rank.
"""

from __future__ import annotations

import argparse
import json
import pathlib

import numpy as np

from repro.alignment import build_cag, exact_alignment
from repro.codegen import generate_spmd
from repro.costmodel import (
    jacobi_dp_time,
    jacobi_section3_time,
)
from repro.costmodel.bands import OVERLAP_MAKESPAN, REDIST_WORDS, get_band
from repro.distribution import Dist1D, Dist2D
from repro.distribution.layout import ownership_table
from repro.dp import solve_program_distribution
from repro.kernels import (
    cannon_matmul,
    gauss_broadcast,
    gauss_pipelined,
    jacobi_rowdist,
    make_spd_system,
    sor_naive,
    sor_pipelined,
)
from repro.lang import gauss_program, jacobi_program, sor_program
from repro.machine import (
    BACKENDS,
    Grid2D,
    MachineModel,
    Ring,
    chrome_trace_json,
    critical_path,
    run_spmd,
)
from repro.machine.trace import gantt
from repro.obs import (
    TraceStore,
    attribute_waits,
    diff_runs,
    drift_terms,
    explain_drift,
    load_imbalance,
    mint_context,
    tracing_context,
)
from repro.pipeline.mapping import choose_mapping, mapping_table
from repro.pipeline.sor_schedule import render_schedule, sor_schedule_from_trace
from repro.util.tables import Table

MODEL = MachineModel(tf=1.0, tc=10.0)


def table2(m: int = 256, n: int = 16) -> str:
    table = Table(
        ["N1 x N2", "computation", "communication", "total"],
        title=f"Table 2 (analytic) — Jacobi, m={m}, N={n}",
    )
    sq = int(round(n**0.5))
    for shape in [(1, n), (n, 1), (sq, sq)]:
        t = jacobi_section3_time(m, *shape, MODEL)
        table.add_row([f"{shape[0]} x {shape[1]}", f"{t.comp:g}", f"{t.comm:g}", f"{t.total:g}"])
    dp = jacobi_dp_time(m, n, MODEL)
    table.add_row(["S4 DP schemes", f"{dp.comp:g}", f"{dp.comm:g}", f"{dp.total:g}"])
    return table.render()


def layouts() -> str:
    m = n = 4
    t3 = ownership_table(
        [
            ("A", Dist2D.row_blocks(m, m, n)),
            ("V", Dist1D.block_dist(m, n)),
            ("B", Dist1D.block_dist(m, n)),
            ("X", Dist1D.block_dist(m, n)),
            ("Xrepl", Dist1D.replicated(m)),
        ],
        n,
        title="Table 3 — Jacobi layout",
    )
    t4 = ownership_table(
        [
            ("A", Dist2D.col_blocks(m, m, n)),
            ("B", Dist1D.block_dist(m, n)),
            ("X", Dist1D.block_dist(m, n)),
            ("V", Dist1D.replicated(m)),
        ],
        n,
        title="Table 4 — SOR layout",
    )
    return t3 + "\n\n" + t4


def table5() -> str:
    g = gauss_program()
    return mapping_table([choose_mapping(g.loops()[0]), choose_mapping(g.loops()[2])])


def affinity_graphs() -> str:
    out = []
    for maker, fragment_of in [
        (jacobi_program, lambda p: p.loops()[0].body),
        (gauss_program, lambda p: p.body),
    ]:
        program = maker()
        cag = build_cag(
            fragment_of(program), program, {"m": 256, "maxiter": 1}, MODEL, nprocs=16
        )
        alignment = exact_alignment(cag, q=2)
        out.append(cag.render(title=f"CAG of {program.name}"))
        out.append("alignment: " + alignment.describe(cag))
    return "\n".join(out)


def dp_walkthrough() -> str:
    tables, result = solve_program_distribution(
        jacobi_program(), 16, {"m": 256, "maxiter": 1}, MODEL
    )
    return "Algorithm 1 on Jacobi (m=256, N=16):\n" + result.describe()


def fig5_schedule() -> str:
    m, n = 16, 4
    A, b, _ = make_spd_system(m, seed=2)
    res = run_spmd(
        sor_pipelined,
        Ring(n),
        MachineModel(tf=1, tc=1),
        args=(A, b, np.zeros(m), 1.0, 1),
        trace=True,
    )
    cells = sor_schedule_from_trace(res.trace, m, n)
    return "Fig 5 — pipelined SOR schedule:\n" + render_schedule(cells, n)


def generated_programs() -> str:
    out = []
    for program in (sor_program(), gauss_program()):
        gen = generate_spmd(program)
        out.append(f"--- generated ({gen.strategy}) for {program.name} ---")
        out.append(gen.source)
    return "\n".join(out)


def headline_measurements() -> str:
    table = Table(["experiment", "baseline", "improved", "speedup"],
                  title="Headline measured comparisons (simulator)")
    m, n, iters = 64, 8, 2
    A, b, _ = make_spd_system(m, seed=0)
    x0 = np.zeros(m)
    t_naive = run_spmd(sor_naive, Ring(n), MODEL, args=(A, b, x0, 1.0, iters)).makespan
    t_pipe = run_spmd(sor_pipelined, Ring(n), MODEL, args=(A, b, x0, 1.0, iters)).makespan
    table.add_row(
        [f"S5 SOR (m={m}, N={n})", f"{t_naive:g}", f"{t_pipe:g}", f"{t_naive / t_pipe:.2f}x"]
    )
    A2, b2, _ = make_spd_system(96, seed=0)
    t_b = run_spmd(gauss_broadcast, Ring(16), MODEL, args=(A2, b2)).makespan
    t_p = run_spmd(gauss_pipelined, Ring(16), MODEL, args=(A2, b2)).makespan
    table.add_row([f"S6 Gauss (m=96, N=16)", f"{t_b:g}", f"{t_p:g}", f"{t_b / t_p:.2f}x"])
    a_s3 = jacobi_section3_time(256, 16, 1, MODEL).total
    a_dp = jacobi_dp_time(256, 16, MODEL).total
    table.add_row(["S4 Jacobi analytic (m=256, N=16)", f"{a_s3:g}", f"{a_dp:g}",
                   f"{a_s3 / a_dp:.2f}x"])
    return table.render()


SECTIONS = [
    ("table2_analytic", table2),
    ("layouts_tables_3_4", layouts),
    ("table5_tokens", table5),
    ("affinity_graphs", affinity_graphs),
    ("algorithm1", dp_walkthrough),
    ("fig5_schedule", fig5_schedule),
    ("generated_programs", generated_programs),
    ("headline_measurements", headline_measurements),
]


def _trace_sor():
    m, n = 16, 4
    A, b, _ = make_spd_system(m, seed=2)
    return run_spmd(
        sor_pipelined,
        Ring(n),
        MachineModel(tf=1, tc=1),
        args=(A, b, np.zeros(m), 1.0, 1),
        trace=True,
    )


def _trace_jacobi():
    m, n = 32, 4
    A, b, _ = make_spd_system(m, seed=2)
    return run_spmd(
        jacobi_rowdist, Ring(n), MODEL, args=(A, b, np.zeros(m), 2), trace=True
    )


def _trace_cannon():
    q, nb = 2, 8
    rng = np.random.default_rng(0)
    size = q * nb
    B = rng.random((size, size))
    C = rng.random((size, size))
    return run_spmd(cannon_matmul, Grid2D(q, q), MODEL, args=(B, C, q), trace=True)


def _trace_spmv():
    from repro.kernels.spmv import spmv_parallel
    from repro.sparse.csr import random_spd_csr

    n, p = 128, 8
    csr = random_spd_csr(n, density=0.06, seed=42)
    rng = np.random.default_rng(7)
    x = rng.standard_normal(n)
    return run_spmd(
        spmv_parallel, Ring(p), MODEL, args=(csr, x),
        kwargs={"iterations": 3}, trace=True,
    )


def _trace_sparse_cg():
    from repro.kernels.sparse_cg import sparse_cg_parallel
    from repro.sparse.csr import random_spd_csr

    n, p = 64, 8
    csr = random_spd_csr(n, density=0.06, seed=42)
    rng = np.random.default_rng(7)
    b = rng.standard_normal(n)
    return run_spmd(
        sparse_cg_parallel, Ring(p), MODEL, args=(csr, b),
        kwargs={"tol": 1e-8, "max_iterations": 8}, trace=True,
    )


TRACED = {
    "sor": _trace_sor,
    "jacobi": _trace_jacobi,
    "cannon": _trace_cannon,
    "spmv": _trace_spmv,
    "sparse-cg": _trace_sparse_cg,
}


def _unknown_target(kind: str, name: str, known) -> int:
    """Reject an unknown CLI target with the known listing (exit 2)."""
    import sys

    print(
        f"error: unknown {kind} target {name!r}; "
        f"known: {', '.join(sorted(known))}",
        file=sys.stderr,
    )
    return 2


def _send_matrix_table(store: TraceStore) -> str:
    matrix = store.send_matrix()
    table = Table(
        ["src \\ dst", *[f"P{d}" for d in range(store.nprocs)]],
        title="Send matrix (words injected src -> dst)",
    )
    for src, row in enumerate(matrix):
        table.add_row([f"P{src}", *[str(w) for w in row]])
    return table.render()


def trace_report(kernel: str, outdir: pathlib.Path | None = None) -> int:
    """Run one traced kernel and print/write the observability report."""
    if kernel not in TRACED:
        return _unknown_target("--trace", kernel, TRACED)
    ctx = mint_context()
    with tracing_context(ctx):
        res = TRACED[kernel]()
    report = critical_path(res.trace)
    store = TraceStore.from_run(res)
    print(f"\n{'=' * 72}\ntraced run: {kernel} (makespan {res.makespan:g}, "
          f"run {ctx.run_id})\n{'=' * 72}")
    print(res.metrics.summary())
    print()
    print(report.describe())
    print()
    print(gantt(res.trace))
    print()
    print(_send_matrix_table(store))
    print(f"\nstore: {len(store)} events, "
          f"wait {store.wait_seconds():g}s, "
          f"{store.message_words()} words injected")
    if outdir is not None:
        outdir.mkdir(parents=True, exist_ok=True)
        events_path = store.write_jsonl(outdir / f"{kernel}_events.jsonl")
        trace_path = outdir / f"{kernel}_chrome_trace.json"
        trace_path.write_text(
            json.dumps(
                chrome_trace_json(res.trace, context=ctx, process_name=kernel)
            ) + "\n"
        )
        metrics_path = outdir / f"{kernel}_metrics.json"
        metrics_path.write_text(json.dumps(res.metrics.as_dict(), indent=2) + "\n")
        print(f"\nwrote {events_path}, {trace_path} and {metrics_path}")
    return 0


def redist_report(outdir: pathlib.Path | None = None) -> int:
    """Validate Algorithm 1's cost model by executing its chosen chain."""
    m, n = 256, 16
    tables, result, validation = solve_program_distribution(
        jacobi_program(), n, {"m": m, "maxiter": 1}, MODEL, execute=True
    )
    print(f"\n{'=' * 72}\nredistribution calibration — Jacobi, m={m}, N={n}\n{'=' * 72}")
    print(f"Algorithm 1 total {result.cost:g} "
          f"(loop-carried {result.loop_carried:g}); executing "
          f"{len(validation.transitions)} transitions on "
          f"{', '.join(validation.backends)}\n")
    table = Table(
        ["transition", "grid", "lowering", "analytic", *validation.backends,
         "ratio", "sections", "band"],
        title=f"measured vs analytic words "
              f"(band: {REDIST_WORDS.lower:g}x..{REDIST_WORDS.upper:g}x for "
              f"literal lowerings)",
    )
    for t in validation.transitions:
        measured = {b: t.measured_words(b) for b in validation.backends}
        ref = measured[validation.backends[0]]
        ratio = "n/a" if t.analytic_words == 0 else f"{ref / t.analytic_words:.3f}"
        sections = all(
            ok for c in t.checks for ok in c.sections_ok.values()
        )
        table.add_row([
            t.label,
            f"{t.grid[0]}x{t.grid[1]}",
            "literal" if t.exact else "fallback",
            f"{t.analytic_words:g}",
            *[str(measured[b]) for b in validation.backends],
            ratio,
            "exact" if sections else "WRONG",
            "ok" if t.ok() else "MISS",
        ])
    print(table.render())
    print()
    print(validation.describe())
    status = 0 if validation.ok else 1
    print(f"\ncalibration {'PASSED' if status == 0 else 'FAILED'}")
    if outdir is not None:
        outdir.mkdir(parents=True, exist_ok=True)
        payload = {
            "program": "jacobi",
            "m": m,
            "nprocs": n,
            "dp_cost": result.cost,
            "loop_carried": result.loop_carried,
            "band": [REDIST_WORDS.lower, REDIST_WORDS.upper],
            "ok": validation.ok,
            "transitions": [
                {
                    "label": t.label,
                    "grid": list(t.grid),
                    "exact": t.exact,
                    "analytic_words": t.analytic_words,
                    "measured_words": {
                        b: t.measured_words(b) for b in validation.backends
                    },
                    "makespan": t.makespan,
                    "ok": t.ok(),
                    "arrays": [
                        {
                            "array": c.array,
                            "kinds": list(c.kinds),
                            "exact": c.exact,
                            "analytic_words": c.analytic_words,
                            "measured_words": c.measured_words,
                            "sections_ok": c.sections_ok,
                        }
                        for c in t.checks
                    ],
                }
                for t in validation.transitions
            ],
        }
        path = outdir / "redist_calibration.json"
        path.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"wrote {path}")
    return status


def _chaos_plan():
    """The seeded crash-free plan of ``--chaos`` and the ``jacobi`` drill."""
    from repro.machine.faults import FaultPlan

    return FaultPlan(
        seed=42,
        delay_prob=0.15,
        delay_max=60.0,
        drop_prob=0.08,
        duplicate_prob=0.08,
        slowdown=((3, 1.5),),
    )


def chaos_report(outdir: pathlib.Path | None = None) -> int:
    """Chaos smoke: seeded faults + crash/restart on both backends."""
    from repro.kernels import resilient_jacobi
    from repro.machine import CheckpointStore, run_resilient

    m, n, iters = 24, 8, 6
    A, b, _ = make_spd_system(m, seed=7)
    x0 = np.zeros(m)
    topo = Ring(n)
    plan = _chaos_plan()
    print(f"\n{'=' * 72}\nchaos smoke — resilient Jacobi, m={m}, N={n}, "
          f"{iters} iterations\n{'=' * 72}")
    print(f"plan: {plan}\n")

    base = run_spmd(resilient_jacobi, topo, args=(A, b, x0, iters))
    runs = {
        name: engine(topo, faults=plan).run(resilient_jacobi, args=(A, b, x0, iters))
        for name, engine in BACKENDS.items()
    }
    status = 0
    table = Table(
        ["backend", "bit-identical", "makespan", "retries", "drops", "dups",
         "timeouts"],
        title="determinism contract under the crash-free plan",
    )
    payload: dict = {"plan_seed": plan.seed, "backends": {}}
    for name, res in runs.items():
        identical = all(
            np.array_equal(a, c) for a, c in zip(base.values, res.values)
        )
        if not identical:
            status = 1
        f = res.metrics.faults
        table.add_row([
            name, "yes" if identical else "NO", f"{res.makespan:g}",
            f.get("retry", 0), f.get("drop", 0), f.get("duplicate", 0),
            f.get("timeout", 0),
        ])
        payload["backends"][name] = {
            "bit_identical": identical,
            "makespan": res.makespan,
            "faults": dict(f),
        }
    print(table.render())

    # Past the halfway point of the *chaotic* run, so at least one
    # checkpoint interval has completed on every rank before the crash.
    crash_at = runs["engine"].makespan * 0.6
    crash_plan = plan.with_crash(2, at_time=crash_at)
    print(f"\ninjecting crash(rank=2, at_time={crash_at:g}) "
          f"with checkpoint interval 2:")
    table = Table(
        ["backend", "re-converged", "restarts", "checkpoints", "restores",
         "crashes"],
        title="checkpoint/restart across an injected crash",
    )
    for name in runs:
        store = CheckpointStore(n)
        res = run_resilient(
            resilient_jacobi, topo, args=(A, b, x0, iters),
            kwargs={"checkpoints": store, "interval": 2},
            plan=crash_plan, backend=name,
        )
        ok = all(np.array_equal(a, c) for a, c in zip(base.values, res.values))
        f = res.metrics.faults
        if not ok or res.restarts < 1 or not f.get("restore"):
            status = 1
        table.add_row([
            name, "yes" if ok else "NO", res.restarts,
            f.get("checkpoint", 0), f.get("restore", 0), f.get("crash", 0),
        ])
        payload["backends"][name]["crash"] = {
            "re_converged": ok,
            "restarts": res.restarts,
            "faults": dict(f),
        }
    print(table.render())
    print(f"\nchaos smoke {'PASSED' if status == 0 else 'FAILED'}")
    if outdir is not None:
        outdir.mkdir(parents=True, exist_ok=True)
        payload["ok"] = status == 0
        path = outdir / "chaos_smoke.json"
        path.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"wrote {path}")
    return status


#: The X10 heat pair shared by ``--overlap`` and ``--diff``: machine size,
#: stencil length, sweeps, and the seed of the initial field.
HEAT_N, HEAT_M, HEAT_STEPS, HEAT_SEED = 8, 256, 5, 3
HEAT_MODEL = MachineModel(tf=1.0, tc=10.0, alpha=100.0)


def _heat_field() -> np.ndarray:
    return np.random.default_rng(HEAT_SEED).normal(size=HEAT_M)


def overlap_report(outdir: pathlib.Path | None = None) -> int:
    """Reconcile overlapped kernels against the analytic overlap=True model.

    For each kernel pair (heat stencil, ring Jacobi, pipelined SOR) and
    alpha in {10, 100}: run the blocking twin and the overlapped twin on
    the base model (both backends for the overlapped one), check
    bit-identical numerics and backend-identical makespans, check the
    overlapped makespan beats blocking (stencil/Jacobi; SOR's crossover
    at large alpha is documented, not asserted), and check the measured
    overlapped makespan lands within the slack band of the prediction —
    the blocking twin run on ``replace(model, overlap=True)``.
    """
    from dataclasses import replace

    from repro.kernels import (
        heat_stencil_blocking,
        heat_stencil_overlap,
        jacobi_ring_blocking,
        jacobi_ring_overlap,
        sor_pipelined_overlap,
    )
    n, m_heat, steps = HEAT_N, HEAT_M, HEAT_STEPS
    m_ring, iters = 64, 4
    u0 = _heat_field()
    A, b, _ = make_spd_system(m_ring, seed=3)
    x0 = np.zeros(m_ring)
    blk = m_ring // n

    def heat_slice(full, rank):
        return full[rank * (m_heat // n) : (rank + 1) * (m_heat // n)]

    def ring_slice(full, rank):
        return full[rank * blk : (rank + 1) * blk]

    kernels = {
        "stencil": (
            heat_stencil_blocking, heat_stencil_overlap, (u0, steps),
            heat_slice, True,
        ),
        "jacobi": (
            jacobi_ring_blocking, jacobi_ring_overlap, (A, b, x0, iters),
            ring_slice, True,
        ),
        "sor": (
            sor_pipelined, sor_pipelined_overlap, (A, b, x0, 1.1, iters),
            ring_slice, False,
        ),
    }

    print(f"\n{'=' * 72}\noverlap reconciliation — N={n}, "
          f"band {OVERLAP_MAKESPAN.lower:g}x..{OVERLAP_MAKESPAN.upper:g}x\n"
          f"{'=' * 72}")
    table = Table(
        ["kernel", "alpha", "T_block", "T_overlap", "T_pred", "ratio",
         "bit", "backends", "faster", "band"],
        title="measured overlapped vs blocking twin and analytic prediction",
    )
    payload: dict = {
        "nprocs": n,
        "band": [OVERLAP_MAKESPAN.lower, OVERLAP_MAKESPAN.upper],
        "runs": [],
    }
    status = 0
    ratios: dict[str, list[float]] = {}
    for name, (blocking, overlapped, args, slice_of, must_win) in kernels.items():
        # The SOR blocking reference allgather-finishes (full X vector);
        # the overlapped kernels return their local block.
        whole = blocking is sor_pipelined
        for alpha in (10.0, 100.0):
            model = MachineModel(tf=1.0, tc=10.0, alpha=alpha)
            rb = run_spmd(blocking, Ring(n), model, args=args)
            ro = run_spmd(overlapped, Ring(n), model, args=args)
            rt = BACKENDS["threaded"](Ring(n), model).run(overlapped, args=args)
            rp = run_spmd(blocking, Ring(n), replace(model, overlap=True), args=args)
            bit = all(
                np.array_equal(
                    slice_of(rb.value(r), r) if whole else rb.value(r),
                    ro.value(r),
                )
                for r in range(n)
            )
            backends = (
                all(np.array_equal(rt.value(r), ro.value(r)) for r in range(n))
                and rt.makespan == ro.makespan
            )
            ratio = ro.makespan / rp.makespan
            faster = ro.makespan < rb.makespan
            band_ok = OVERLAP_MAKESPAN.check(ratio)
            ok = bit and backends and band_ok and (faster or not must_win)
            if not ok:
                status = 1
            ratios.setdefault(name, []).append(ratio)
            table.add_row([
                name, f"{alpha:g}", f"{rb.makespan:g}", f"{ro.makespan:g}",
                f"{rp.makespan:g}", f"{ratio:.3f}",
                "yes" if bit else "NO", "ok" if backends else "DIVERGE",
                ("yes" if faster else "NO") if must_win
                else ("yes" if faster else "n/a"),
                "ok" if band_ok else "MISS",
            ])
            payload["runs"].append({
                "kernel": name,
                "alpha": alpha,
                "t_block": rb.makespan,
                "t_overlap": ro.makespan,
                "t_overlap_threaded": rt.makespan,
                "t_pred": rp.makespan,
                "ratio": ratio,
                "bit_identical": bit,
                "backends_agree": backends,
                "faster_than_blocking": faster,
                "band_ok": band_ok,
                "ok": ok,
            })
    print(table.render())

    # Per-rank latency hiding of the overlapped stencil (alpha=100).
    model = HEAT_MODEL
    ro = run_spmd(heat_stencil_overlap, Ring(n), model, args=(u0, steps))
    print()
    print(ro.metrics.overlap_table())
    payload["overlap_ratio"] = {
        r.rank: r.overlap_ratio for r in ro.metrics.ranks
    }

    # The scheduling pass's view of the same rewrite (generated-code side).
    from repro.lang import parse_program
    from repro.pipeline.overlap import overlap_schedule, overlap_table
    from repro.codegen.stencil import match_stencil_sweep

    heat_src = (
        "PROGRAM heat\nPARAM m, steps\nSCALAR alpha\nARRAY Unew(m), Uold(m)\n"
        "DO t = 1, steps\n"
        "  DO i = 2, m - 1\n"
        "    Unew(i) = Uold(i) + alpha * (Uold(i - 1) - 2 * Uold(i) + Uold(i + 1))\n"
        "  END DO\n"
        "  DO i = 2, m - 1\n    Uold(i) = Unew(i)\n  END DO\n"
        "END DO\nEND\n"
    )
    pattern = match_stencil_sweep(parse_program(heat_src))
    sched = overlap_schedule(pattern)
    print()
    print("overlap pass on the generated heat stencil "
          f"(per-sweep, cnt={m_heat // n}):")
    print(overlap_table(sched, model, m_heat // n))

    print(f"\noverlap reconciliation {'PASSED' if status == 0 else 'FAILED'}")
    if outdir is not None:
        outdir.mkdir(parents=True, exist_ok=True)
        payload["ok"] = status == 0
        path = outdir / "overlap_reconcile.json"
        path.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"wrote {path}")
    return status


def deadlock_report() -> int:
    """Force a ring-recv deadlock and print the forensics on both backends."""
    from repro.errors import DeadlockError

    n = 4

    def ring_wait(p):
        # Everyone receives from the left neighbour; nobody ever sends.
        yield from p.recv((p.rank - 1) % p.nprocs, tag=9)

    print(f"\n{'=' * 72}\ndeadlock forensics — {n}-rank receive ring, "
          f"no sender\n{'=' * 72}")
    status = 0
    for name, engine in BACKENDS.items():
        try:
            engine(Ring(n)).run(ring_wait)
        except DeadlockError as err:
            report = err.report
            print(f"\n--- {name} backend ---")
            if report is None:
                print("no forensics report attached!")
                status = 1
                continue
            print(report.describe())
            if set(report.blocked_ranks()) != set(range(n)):
                print(f"FAILED: expected all {n} ranks blocked, "
                      f"got {report.blocked_ranks()}")
                status = 1
        else:
            print(f"{name}: expected DeadlockError, none raised")
            status = 1
    print(f"\ndeadlock forensics {'PASSED' if status == 0 else 'FAILED'}")
    return status


def _chaos_jacobi(faults: bool):
    """The chaos-drill Jacobi config (same numbers as ``--chaos``)."""
    from repro.kernels import resilient_jacobi

    m, n, iters = 24, 8, 6
    A, b, _ = make_spd_system(m, seed=7)
    model = MachineModel()
    res = run_spmd(
        resilient_jacobi, Ring(n), model, args=(A, b, np.zeros(m), iters),
        faults=_chaos_plan() if faults else None, trace=True,
    )
    return res, model


def _heat_run(overlapped: bool, model: MachineModel = HEAT_MODEL):
    """One twin of the X10 heat pair, traced, on *model*."""
    from repro.kernels import heat_stencil_blocking, heat_stencil_overlap

    fn = heat_stencil_overlap if overlapped else heat_stencil_blocking
    res = run_spmd(
        fn, Ring(HEAT_N), model, args=(_heat_field(), HEAT_STEPS), trace=True
    )
    return res, model


#: ``--diagnose`` targets: the chaos Jacobi drill plus clean reference
#: kernels (each builder returns a traced run and its machine model).
DIAGNOSED = {
    "jacobi": lambda: _chaos_jacobi(faults=True),
    "jacobi-clean": lambda: _chaos_jacobi(faults=False),
    "sor": lambda: (_trace_sor(), MachineModel(tf=1, tc=1)),
    "spmv": lambda: (_trace_spmv(), MODEL),
}

#: ``--diff`` targets (any pair diffs; the heat pair also reconciles
#: against the X10 ``overlap=True`` prediction).
DIFF_RUNS = {
    "heat-blocking": lambda: _heat_run(overlapped=False),
    "heat-overlap": lambda: _heat_run(overlapped=True),
    "jacobi-clean": lambda: _chaos_jacobi(faults=False),
    "jacobi-chaos": lambda: _chaos_jacobi(faults=True),
}


def diagnose_report(kernel: str, outdir: pathlib.Path | None = None) -> int:
    """Run one kernel traced and print/write the automated diagnostics."""
    if kernel not in DIAGNOSED:
        return _unknown_target("--diagnose", kernel, DIAGNOSED)
    ctx = mint_context()
    with tracing_context(ctx):
        res, model = DIAGNOSED[kernel]()
    store = TraceStore.from_run(res)
    waits = attribute_waits(store)
    imbalance = load_imbalance(store)
    terms = drift_terms(res.metrics, model)
    band = get_band("wait-attribution")
    band_ok = band.check(waits.coverage)

    print(f"\n{'=' * 72}\ndiagnosis: {kernel} "
          f"(makespan {res.makespan:g}, run {ctx.run_id})\n{'=' * 72}")
    print(waits.describe())
    print()
    print(imbalance.describe())
    print()
    terms_table = Table(
        ["term", "rank-seconds"],
        title="Cost-model decomposition",
    )
    for key, value in terms.items():
        terms_table.add_row([key, f"{value:g}"])
    print(terms_table.render())
    print(f"\nattribution coverage {waits.coverage:.3f} vs band "
          f"{band.describe()}: {'ok' if band_ok else 'MISS'}")
    status = 0 if band_ok else 1
    print(f"diagnosis {'PASSED' if status == 0 else 'FAILED'}")
    if outdir is not None:
        outdir.mkdir(parents=True, exist_ok=True)
        payload = {
            "kernel": kernel,
            "run_id": ctx.run_id,
            "makespan": res.makespan,
            "coverage_band": [band.lower, band.upper],
            "coverage_ok": band_ok,
            "ok": status == 0,
            "attribution": waits.as_dict(),
            "imbalance": imbalance.as_dict(),
            "terms": terms,
            "faults": dict(res.metrics.faults),
        }
        path = outdir / f"diagnose_{kernel}.json"
        path.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"wrote {path}")
    return status


def diff_report(a: str, b: str, outdir: pathlib.Path | None = None) -> int:
    """Diff two registered traced runs; print/write what moved."""
    from dataclasses import replace

    for name in (a, b):
        if name not in DIFF_RUNS:
            return _unknown_target("--diff", name, DIFF_RUNS)
    res_a, model_a = DIFF_RUNS[a]()
    res_b, model_b = DIFF_RUNS[b]()

    drift = None
    if {a, b} == {"heat-blocking", "heat-overlap"}:
        # Reconcile the measured overlapped run against the X10
        # prediction: the blocking twin executed on overlap=True.
        overlap_res, overlap_model = (
            (res_b, model_b) if b == "heat-overlap" else (res_a, model_a)
        )
        pred_res, pred_model = _heat_run(
            overlapped=False, model=replace(overlap_model, overlap=True)
        )
        drift = explain_drift(
            "overlap-makespan",
            measured=overlap_res.makespan,
            analytic=pred_res.makespan,
            terms_measured=drift_terms(overlap_res.metrics, overlap_model),
            terms_analytic=drift_terms(pred_res.metrics, pred_model),
            label="measured overlapped vs blocking twin on overlap=True",
        )

    diff = diff_runs(
        res_a, res_b, model_a, model_b, label_a=a, label_b=b, drift=drift,
    )
    print(f"\n{'=' * 72}\nrun diff: {a} vs {b}\n{'=' * 72}")
    print(diff.describe())
    status = 0 if (drift is None or drift.ok) else 1
    print(f"\ndiff {'PASSED' if status == 0 else 'FAILED'}")
    if outdir is not None:
        outdir.mkdir(parents=True, exist_ok=True)
        payload = diff.as_dict()
        payload["ok"] = status == 0
        path = outdir / f"diff_{a}_vs_{b}.json"
        path.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"wrote {path}")
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.tools.report", description=__doc__
    )
    parser.add_argument("outdir", nargs="?", default=None,
                        help="directory for artifact files (optional)")
    parser.add_argument("--trace", metavar="KERNEL",
                        help="trace one reference kernel instead of the full "
                             f"report ({', '.join(sorted(TRACED))})")
    parser.add_argument("--redist", action="store_true",
                        help="execute Algorithm 1's chosen redistribution chain "
                             "and reconcile measured vs analytic words")
    parser.add_argument("--chaos", action="store_true",
                        help="run the chaos smoke: seeded fault plan + crash/"
                             "restart on both backends, exit nonzero on any "
                             "determinism or re-convergence failure")
    parser.add_argument("--deadlock", action="store_true",
                        help="force a ring-recv deadlock on both backends and "
                             "print the forensics report")
    parser.add_argument("--overlap", action="store_true",
                        help="reconcile the overlapped kernels against the "
                             "analytic overlap=True prediction on both "
                             "backends; exit nonzero on any numeric, parity, "
                             "speedup or slack-band failure")
    parser.add_argument("--diagnose", metavar="KERNEL",
                        help="run one kernel traced and print the automated "
                             "diagnostics (wait attribution, load imbalance, "
                             f"cost-model terms): {', '.join(sorted(DIAGNOSED))}")
    parser.add_argument("--diff", nargs=2, metavar=("RUN_A", "RUN_B"),
                        help="critical-path + cost-model diff between two "
                             f"registered runs: {', '.join(sorted(DIFF_RUNS))}")
    parser.add_argument("--out", default=None,
                        help="output directory (alias for outdir)")
    ns = parser.parse_args(argv)
    outdir = pathlib.Path(ns.out or ns.outdir) if (ns.out or ns.outdir) else None
    if ns.trace:
        return trace_report(ns.trace, outdir)
    if ns.diagnose:
        return diagnose_report(ns.diagnose, outdir)
    if ns.diff:
        return diff_report(ns.diff[0], ns.diff[1], outdir)
    if ns.redist:
        return redist_report(outdir)
    if ns.chaos:
        return chaos_report(outdir)
    if ns.overlap:
        return overlap_report(outdir)
    if ns.deadlock:
        return deadlock_report()
    if outdir:
        outdir.mkdir(parents=True, exist_ok=True)
    for name, builder in SECTIONS:
        text = builder()
        print(f"\n{'=' * 72}\n{name}\n{'=' * 72}\n{text}")
        if outdir:
            (outdir / f"{name}.txt").write_text(text + "\n")
    if outdir:
        print(f"\nwrote {len(SECTIONS)} artifacts to {outdir}/")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
