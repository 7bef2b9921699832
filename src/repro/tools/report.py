"""Regenerate the paper's key artifacts without pytest.

Usage::

    python -m repro.tools.report [outdir]
    python -m repro.tools.report --trace {sor,jacobi,cannon,spmv,sparse-cg} [--out DIR]
    python -m repro.tools.report --diagnose {jacobi,jacobi-clean,sor,spmv} [--out DIR]
    python -m repro.tools.report --diff RUN_A RUN_B [--out DIR]
    python -m repro.tools.report --redist [--out DIR]
    python -m repro.tools.report --chaos [--out DIR]
    python -m repro.tools.report --overlap [--out DIR]
    python -m repro.tools.report --deadlock

Three definitions carry every mode: :data:`MODES` (flag, help, handler,
targets — the parser and the dispatch are built from it),
:data:`repro.tools.runs.RUNS` (every simulator run a mode executes, by
name; ``TRACED`` / ``DIAGNOSED`` / ``DIFF_RUNS`` are views over it) and
:class:`Emitter` (banner, record table + JSON twin, verdict, artifact
files).  The usage block above and the tables in docs/OBSERVABILITY.md
are checked against them by ``tests/test_doc_tables.py``.

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
import sys
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from repro.alignment import build_cag, exact_alignment
from repro.codegen import generate_spmd
from repro.codegen.stencil import match_stencil
from repro.costmodel import jacobi_dp_time, jacobi_section3_time
from repro.costmodel.bands import OVERLAP_MAKESPAN, REDIST_WORDS, get_band
from repro.distribution import Dist1D, Dist2D
from repro.distribution.layout import ownership_table
from repro.dp import solve_program_distribution
from repro.errors import DeadlockError
from repro.kernels import sor_pipelined
from repro.lang import gauss_program, jacobi_program, parse_program, sor_program
from repro.machine import BACKENDS, CheckpointStore, Ring, chrome_trace_json, critical_path, run_resilient
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
from repro.pipeline.overlap import overlap_schedule, overlap_table
from repro.pipeline.sor_schedule import render_schedule, sor_schedule_from_trace
from repro.tools.runs import HEAT_MODEL, MODEL, RUNS
from repro.util.tables import Table


# -- the emitter ----------------------------------------------------------
def write_artifact(path, content, indent: int | None = 2) -> pathlib.Path:
    """Write one artifact file, creating its directory.

    The only filesystem write under ``repro.tools``.  *content* is text
    (written as is), a writer ``content(path)`` that owns its format
    (``TraceStore.write_jsonl``), or a JSON-ready document.
    """
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    if callable(content):
        content(path)
    else:
        path.write_text(
            content if isinstance(content, str)
            else json.dumps(content, indent=indent) + "\n"
        )
    return path


def _cell(record: dict, key, fmt="") -> str:
    value = key(record) if callable(key) else record[key]
    return fmt[not value] if isinstance(fmt, tuple) else format(value, fmt)


class Emitter:
    """One mode's output: banner, record tables, verdict, artifact files.

    A reconciliation row is one *record* — the dict that goes into the
    JSON twin — and a table is a column spec over records: ``(header,
    key)`` or ``(header, key, fmt)``, *key* a record field or a function
    of the record, *fmt* a format spec or a ``(true, false)`` word pair.
    Nothing is written without an *outdir*.
    """

    def __init__(self, outdir: pathlib.Path | None = None) -> None:
        self.outdir = outdir
        self.written: list[pathlib.Path] = []

    @staticmethod
    def banner(title: str) -> None:
        print(f"\n{'=' * 72}\n{title}\n{'=' * 72}")

    @staticmethod
    def table(title: str, columns: list[tuple], records: list) -> None:
        table = Table([header for header, *_ in columns], title=title)
        for record in records:
            table.add_row([_cell(record, *spec) for _, *spec in columns])
        print(table.render())

    def write(self, name: str, content, indent: int | None = 2) -> None:
        if self.outdir is not None:
            self.written.append(write_artifact(self.outdir / name, content, indent))

    def close(self, verdict: str | None = None, ok: bool = True, lead: str = "\n") -> int:
        """Print the verdict and what was written (*lead* before the
        first line printed); return the exit status."""
        if verdict:
            print(f"{lead}{verdict} {'PASSED' if ok else 'FAILED'}")
        if self.written:
            *head, last = map(str, self.written)
            print(f"{'' if verdict else lead}wrote "
                  f"{', '.join(head) + ' and ' if head else ''}{last}")
        return 0 if ok else 1


# -- the default mode: the paper's sections --------------------------------
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
    block, whole = Dist1D.block_dist(m, n), Dist1D.replicated(m)
    t3 = ownership_table(
        [("A", Dist2D.row_blocks(m, m, n)), ("V", block), ("B", block), ("X", block), ("Xrepl", whole)],
        n, title="Table 3 — Jacobi layout",
    )
    t4 = ownership_table(
        [("A", Dist2D.col_blocks(m, m, n)), ("B", block), ("X", block), ("V", whole)],
        n, title="Table 4 — SOR layout",
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
    run = RUNS["sor"]
    n = run.topology.size
    cells = sor_schedule_from_trace(run().trace, run.m, n)
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

    def row(label: str, t_base: float, t_improved: float) -> None:
        table.add_row([label, f"{t_base:g}", f"{t_improved:g}",
                       f"{t_base / t_improved:.2f}x"])

    for what, base, improved in (
        ("S5 SOR", "headline-sor-naive", "headline-sor-pipelined"),
        ("S6 Gauss", "headline-gauss-broadcast", "headline-gauss-pipelined"),
    ):
        run = RUNS[base]
        row(f"{what} (m={run.m}, N={run.topology.size})",
            run(trace=False).makespan, RUNS[improved](trace=False).makespan)
    row("S4 Jacobi analytic (m=256, N=16)",
        jacobi_section3_time(256, 16, 1, MODEL).total, jacobi_dp_time(256, 16, MODEL).total)
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


def sections_report(out: Emitter) -> int:
    """Print every section; with an outdir, one ``<section>.txt`` each."""
    for name, builder in SECTIONS:
        text = builder()
        out.banner(name)
        print(text)
        out.write(f"{name}.txt", text + "\n")
    if out.written:
        print(f"\nwrote {len(out.written)} artifacts to {out.outdir}/")
    return 0


# -- views over the run registry: the targets each mode accepts ------------
TRACED = {name: RUNS[name] for name in ("sor", "jacobi", "cannon", "spmv", "sparse-cg")}

#: ``--diagnose`` targets: the chaos Jacobi drill plus clean reference kernels.
DIAGNOSED = {
    "jacobi": RUNS["jacobi-chaos"],
    "jacobi-clean": RUNS["jacobi-clean"],
    "sor": RUNS["sor"],
    "spmv": RUNS["spmv"],
}

#: ``--diff`` targets (any pair diffs; the heat pair also reconciles
#: against the X10 ``overlap=True`` prediction).
DIFF_RUNS = {
    name: RUNS[name]
    for name in ("heat-blocking", "heat-overlap", "jacobi-clean", "jacobi-chaos")
}

#: ``--overlap`` kernels: blocking run, overlapped run, and whether the
#: overlapped one must win (SOR's crossover at large alpha is documented,
#: not asserted).
OVERLAP_PAIRS = {
    "stencil": ("heat-blocking", "heat-overlap", True),
    "jacobi": ("ring-jacobi-blocking", "ring-jacobi-overlap", True),
    "sor": ("ring-sor-blocking", "ring-sor-overlap", False),
}


def _chaos_jacobi(faults: bool):
    """The chaos-drill Jacobi, traced, and its model (golden-test entry)."""
    run = RUNS["jacobi-chaos" if faults else "jacobi-clean"]
    return run(), run.model


# -- the modes ---------------------------------------------------------------
def trace_report(out: Emitter, kernel: str) -> int:
    """Run one traced kernel and print/write the observability report."""
    ctx = mint_context()
    with tracing_context(ctx):
        res = TRACED[kernel]()
    store = TraceStore.from_run(res)
    out.banner(f"traced run: {kernel} (makespan {res.makespan:g}, run {ctx.run_id})")
    print(res.metrics.summary())
    print()
    print(critical_path(res.trace).describe())
    print()
    print(gantt(res.trace))
    print()
    ranks = range(store.nprocs)
    out.table(
        "Send matrix (words injected src -> dst)",
        [("src \\ dst", lambda row: f"P{row[0]}"),
         *[(f"P{d}", lambda row, d=d: row[1][d]) for d in ranks]],
        list(enumerate(store.send_matrix())),
    )
    print(f"\nstore: {len(store)} events, "
          f"wait {store.wait_seconds():g}s, "
          f"{store.message_words()} words injected")
    out.write(f"{kernel}_events.jsonl", store.write_jsonl)
    out.write(f"{kernel}_chrome_trace.json",
              chrome_trace_json(res.trace, context=ctx, process_name=kernel), indent=None)
    out.write(f"{kernel}_metrics.json", res.metrics.as_dict())
    return out.close()


#: What the calibration twin keeps of each :class:`~repro.dp.validate.ArrayCheck`.
_CHECK_FIELDS = ("array", "kinds", "exact", "analytic_words", "measured_words", "sections_ok")


def _sections_exact(row: dict) -> bool:
    return all(ok for check in row["arrays"] for ok in check["sections_ok"].values())


def redist_report(out: Emitter) -> int:
    """Validate Algorithm 1's cost model by executing its chosen chain."""
    m, n = 256, 16
    tables, result, validation = solve_program_distribution(
        jacobi_program(), n, {"m": m, "maxiter": 1}, MODEL, execute=True
    )
    backends = validation.backends
    out.banner(f"redistribution calibration — Jacobi, m={m}, N={n}")
    print(f"Algorithm 1 total {result.cost:g} "
          f"(loop-carried {result.loop_carried:g}); executing "
          f"{len(validation.transitions)} transitions on "
          f"{', '.join(backends)}\n")
    rows = [
        {
            "label": t.label,
            "grid": t.grid,
            "exact": t.exact,
            "analytic_words": t.analytic_words,
            "measured_words": {b: t.measured_words(b) for b in backends},
            "makespan": t.makespan,
            "ok": t.ok(),
            "arrays": [{key: getattr(check, key) for key in _CHECK_FIELDS} for check in t.checks],
        }
        for t in validation.transitions
    ]

    def ratio(row: dict) -> str:
        analytic = row["analytic_words"]
        return "n/a" if analytic == 0 else f"{row['measured_words'][backends[0]] / analytic:.3f}"

    out.table(
        f"measured vs analytic words "
        f"(band: {REDIST_WORDS.lower:g}x..{REDIST_WORDS.upper:g}x for "
        f"literal lowerings)",
        [("transition", "label"),
         ("grid", lambda row: "{}x{}".format(*row["grid"])),
         ("lowering", "exact", ("literal", "fallback")),
         ("analytic", "analytic_words", "g"),
         *[(b, lambda row, b=b: row["measured_words"][b]) for b in backends],
         ("ratio", ratio),
         ("sections", _sections_exact, ("exact", "WRONG")),
         ("band", "ok", ("ok", "MISS"))],
        rows,
    )
    print()
    print(validation.describe(MODEL))
    out.write("redist_calibration.json", {
        "program": "jacobi",
        "m": m,
        "nprocs": n,
        "dp_cost": result.cost,
        "loop_carried": result.loop_carried,
        "band": [REDIST_WORDS.lower, REDIST_WORDS.upper],
        "ok": validation.ok,
        "transitions": rows,
    })
    return out.close("calibration", validation.ok)


def _fault(kind: str) -> Callable[[dict], int]:
    return lambda row: row["faults"].get(kind, 0)


def chaos_report(out: Emitter) -> int:
    """Chaos smoke: seeded faults + crash/restart on both backends."""
    clean, chaos = RUNS["jacobi-clean"], RUNS["jacobi-chaos"]
    plan, n = chaos.faults, chaos.topology.size
    out.banner(f"chaos smoke — resilient Jacobi, m={chaos.m}, N={n}, "
               f"{chaos.args()[-1]} iterations")
    print(f"plan: {plan}\n")
    base = clean(trace=False)

    def same(res) -> bool:
        return all(np.array_equal(a, c) for a, c in zip(base.values, res.values))

    runs = {name: chaos(name, trace=False) for name in BACKENDS}
    rows = [
        {"backend": name, "bit_identical": same(res), "makespan": res.makespan,
         "faults": dict(res.metrics.faults)}
        for name, res in runs.items()
    ]
    out.table(
        "determinism contract under the crash-free plan",
        [("backend", "backend"), ("bit-identical", "bit_identical", ("yes", "NO")),
         ("makespan", "makespan", "g"), ("retries", _fault("retry")),
         ("drops", _fault("drop")), ("dups", _fault("duplicate")),
         ("timeouts", _fault("timeout"))],
        rows,
    )
    # Past the halfway point of the *chaotic* run, so at least one
    # checkpoint interval has completed on every rank before the crash.
    crash_at = runs["engine"].makespan * 0.6
    print(f"\ninjecting crash(rank=2, at_time={crash_at:g}) "
          f"with checkpoint interval 2:")
    crashes = []
    for name in runs:
        res = run_resilient(
            chaos.fn, chaos.topology, args=chaos.args(),
            kwargs={"checkpoints": CheckpointStore(n), "interval": 2},
            plan=plan.with_crash(2, at_time=crash_at), backend=name,
        )
        crashes.append({"backend": name, "re_converged": same(res),
                        "restarts": res.restarts, "faults": dict(res.metrics.faults)})
    out.table(
        "checkpoint/restart across an injected crash",
        [("backend", "backend"), ("re-converged", "re_converged", ("yes", "NO")),
         ("restarts", "restarts"), ("checkpoints", _fault("checkpoint")),
         ("restores", _fault("restore")), ("crashes", _fault("crash"))],
        crashes,
    )
    ok = all(r["bit_identical"] for r in rows) and all(
        r["re_converged"] and r["restarts"] >= 1 and bool(r["faults"].get("restore"))
        for r in crashes
    )
    # the JSON twin keys the same rows by backend
    backends = {r.pop("backend"): r for r in rows}
    for r in crashes:
        backends[r.pop("backend")]["crash"] = r
    out.write("chaos_smoke.json",
              {"plan_seed": plan.seed, "backends": backends, "ok": ok})
    return out.close("chaos smoke", ok)


#: The heat program the overlap pass is shown on (generated-code side).
_HEAT_SOURCE = (
    "PROGRAM heat\nPARAM m, steps\nSCALAR alpha\nARRAY Unew(m), Uold(m)\n"
    "DO t = 1, steps\n"
    "  DO i = 2, m - 1\n"
    "    Unew(i) = Uold(i) + alpha * (Uold(i - 1) - 2 * Uold(i) + Uold(i + 1))\n"
    "  END DO\n"
    "  DO i = 2, m - 1\n    Uold(i) = Unew(i)\n  END DO\n"
    "END DO\nEND\n"
)


def _faster(row: dict) -> str:
    if row["faster_than_blocking"]:
        return "yes"
    return "NO" if OVERLAP_PAIRS[row["kernel"]][2] else "n/a"


def overlap_report(out: Emitter) -> int:
    """Reconcile overlapped kernels against the analytic overlap=True model.

    For each pair of :data:`OVERLAP_PAIRS` and alpha in {10, 100}: run
    the blocking twin and the overlapped twin on the base model (both
    backends for the overlapped one), check bit-identical numerics and
    backend-identical makespans, check the overlapped makespan beats
    blocking where it must, and check the measured overlapped makespan
    lands within the slack band of the prediction — the blocking twin
    run on ``replace(model, overlap=True)``.
    """
    heat = RUNS["heat-overlap"]
    n = heat.topology.size
    ranks = range(n)
    out.banner(f"overlap reconciliation — N={n}, "
               f"band {OVERLAP_MAKESPAN.lower:g}x..{OVERLAP_MAKESPAN.upper:g}x")
    rows = []
    for name, (blocking, overlapped, must_win) in OVERLAP_PAIRS.items():
        blocking, overlapped = RUNS[blocking], RUNS[overlapped]
        blk = blocking.m // n
        # The SOR blocking reference allgather-finishes (full X vector);
        # the overlapped kernels return their local block.
        whole = blocking.fn is sor_pipelined
        for alpha in (10.0, 100.0):
            model = replace(HEAT_MODEL, alpha=alpha)
            rb = blocking(model=model, trace=False)
            ro = overlapped(model=model, trace=False)
            rt = overlapped("threaded", model=model, trace=False)
            rp = blocking(model=replace(model, overlap=True), trace=False)
            bit = all(
                np.array_equal(
                    rb.value(r)[r * blk:(r + 1) * blk] if whole else rb.value(r),
                    ro.value(r),
                )
                for r in ranks
            )
            backends = (
                all(np.array_equal(rt.value(r), ro.value(r)) for r in ranks)
                and rt.makespan == ro.makespan
            )
            ratio = ro.makespan / rp.makespan
            faster = ro.makespan < rb.makespan
            band_ok = OVERLAP_MAKESPAN.check(ratio)
            rows.append({
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
                "ok": bit and backends and band_ok and (faster or not must_win),
            })
    out.table(
        "measured overlapped vs blocking twin and analytic prediction",
        [("kernel", "kernel"), ("alpha", "alpha", "g"), ("T_block", "t_block", "g"),
         ("T_overlap", "t_overlap", "g"), ("T_pred", "t_pred", "g"),
         ("ratio", "ratio", ".3f"), ("bit", "bit_identical", ("yes", "NO")),
         ("backends", "backends_agree", ("ok", "DIVERGE")), ("faster", _faster),
         ("band", "band_ok", ("ok", "MISS"))],
        rows,
    )
    # Per-rank latency hiding of the overlapped stencil (alpha=100).
    ro = heat(trace=False)
    print()
    print(ro.metrics.overlap_table())
    # The scheduling pass's view of the same rewrite (generated-code side).
    sched = overlap_schedule(match_stencil(parse_program(_HEAT_SOURCE), 1))
    print()
    print("overlap pass on the generated heat stencil "
          f"(per-sweep, cnt={heat.m // n}):")
    print(overlap_table(sched, heat.model, heat.m // n))
    ok = all(row["ok"] for row in rows)
    out.write("overlap_reconcile.json", {
        "nprocs": n,
        "band": [OVERLAP_MAKESPAN.lower, OVERLAP_MAKESPAN.upper],
        "runs": rows,
        "overlap_ratio": {r.rank: r.overlap_ratio for r in ro.metrics.ranks},
        "ok": ok,
    })
    return out.close("overlap reconciliation", ok)


def deadlock_report(out: Emitter) -> int:
    """Force a ring-recv deadlock and print the forensics on both backends."""
    n = 4

    def ring_wait(p):
        # Everyone receives from the left neighbour; nobody ever sends.
        yield from p.recv((p.rank - 1) % p.nprocs, tag=9)

    out.banner(f"deadlock forensics — {n}-rank receive ring, no sender")
    ok = True
    for name, engine in BACKENDS.items():
        try:
            engine(Ring(n)).run(ring_wait)
        except DeadlockError as err:
            report = err.report
            print(f"\n--- {name} backend ---")
            if report is None:
                print("no forensics report attached!")
                ok = False
                continue
            print(report.describe())
            if set(report.blocked_ranks()) != set(range(n)):
                print(f"FAILED: expected all {n} ranks blocked, "
                      f"got {report.blocked_ranks()}")
                ok = False
        else:
            print(f"{name}: expected DeadlockError, none raised")
            ok = False
    return out.close("deadlock forensics", ok)


def diagnose_report(out: Emitter, kernel: str) -> int:
    """Run one kernel traced and print/write the automated diagnostics."""
    run = DIAGNOSED[kernel]
    ctx = mint_context()
    with tracing_context(ctx):
        res = run()
    store = TraceStore.from_run(res)
    waits = attribute_waits(store)
    imbalance = load_imbalance(store)
    terms = drift_terms(res.metrics, run.model)
    band = get_band("wait-attribution")
    band_ok = band.check(waits.coverage)

    out.banner(f"diagnosis: {kernel} (makespan {res.makespan:g}, run {ctx.run_id})")
    print(waits.describe())
    print()
    print(imbalance.describe())
    print()
    out.table("Cost-model decomposition",
              [("term", lambda kv: kv[0]), ("rank-seconds", lambda kv: kv[1], "g")],
              list(terms.items()))
    print(f"\nattribution coverage {waits.coverage:.3f} vs band "
          f"{band.describe()}: {'ok' if band_ok else 'MISS'}")
    out.write(f"diagnose_{kernel}.json", {
        "kernel": kernel,
        "run_id": ctx.run_id,
        "makespan": res.makespan,
        "coverage_band": [band.lower, band.upper],
        "coverage_ok": band_ok,
        "ok": band_ok,
        "attribution": waits.as_dict(),
        "imbalance": imbalance.as_dict(),
        "terms": terms,
        "faults": dict(res.metrics.faults),
    })
    return out.close("diagnosis", band_ok, lead="")


def diff_report(out: Emitter, a: str, b: str) -> int:
    """Diff two registered traced runs; print/write what moved."""
    run_a, run_b = DIFF_RUNS[a], DIFF_RUNS[b]
    res_a, res_b = run_a(), run_b()
    drift = None
    if {a, b} == {"heat-blocking", "heat-overlap"}:
        # Reconcile the measured overlapped run against the X10
        # prediction: the blocking twin executed on overlap=True.
        overlap_res, model = (res_b, run_b.model) if b == "heat-overlap" else (res_a, run_a.model)
        pred_model = replace(model, overlap=True)
        pred_res = RUNS["heat-blocking"](model=pred_model)
        drift = explain_drift(
            "overlap-makespan",
            measured=overlap_res.makespan,
            analytic=pred_res.makespan,
            terms_measured=drift_terms(overlap_res.metrics, model),
            terms_analytic=drift_terms(pred_res.metrics, pred_model),
            label="measured overlapped vs blocking twin on overlap=True",
        )
    diff = diff_runs(
        res_a, res_b, run_a.model, run_b.model, label_a=a, label_b=b, drift=drift,
    )
    out.banner(f"run diff: {a} vs {b}")
    print(diff.describe())
    ok = drift is None or drift.ok
    out.write(f"diff_{a}_vs_{b}.json", {**diff.as_dict(), "ok": ok})
    return out.close("diff", ok)


# -- the mode table ------------------------------------------------------------
@dataclass(frozen=True)
class Mode:
    """One row of the CLI: its flag, what it accepts, who handles it.

    *flag* ``None`` is the default mode.  *metavar* names the positional
    targets the flag takes (none: a switch), each of which must be a key
    of *targets*; *outdir* says whether ``--out`` / the positional outdir
    applies.  ``handler(emitter, *targets)`` returns the exit status.
    """

    flag: str | None
    handler: Callable[..., int]
    help: str
    metavar: tuple[str, ...] = ()
    targets: dict | None = None
    outdir: bool = True


MODES = (
    Mode(None, sections_report,
         "regenerate the paper's tables, figures and headline measurements"),
    Mode("--trace", trace_report,
         "trace one reference kernel instead of the full report",
         ("KERNEL",), TRACED),
    Mode("--diagnose", diagnose_report,
         "run one kernel traced and print the automated diagnostics "
         "(wait attribution, load imbalance, cost-model terms)",
         ("KERNEL",), DIAGNOSED),
    Mode("--diff", diff_report,
         "critical-path + cost-model diff between two registered runs",
         ("RUN_A", "RUN_B"), DIFF_RUNS),
    Mode("--redist", redist_report,
         "execute Algorithm 1's chosen redistribution chain and reconcile "
         "measured vs analytic words"),
    Mode("--chaos", chaos_report,
         "run the chaos smoke: seeded fault plan + crash/restart on both "
         "backends, exit nonzero on any determinism or re-convergence failure"),
    Mode("--overlap", overlap_report,
         "reconcile the overlapped kernels against the analytic overlap=True "
         "prediction on both backends; exit nonzero on any numeric, parity, "
         "speedup or slack-band failure"),
    Mode("--deadlock", deadlock_report,
         "force a ring-recv deadlock on both backends and print the "
         "forensics report", outdir=False),
)


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.tools.report", description=__doc__
    )
    parser.add_argument("outdir", nargs="?", default=None,
                        help="directory for artifact files (optional)")
    for mode in MODES[1:]:
        if mode.metavar:
            parser.add_argument(
                mode.flag, nargs=len(mode.metavar), metavar=mode.metavar,
                help=f"{mode.help}: {', '.join(sorted(mode.targets))}",
            )
        else:
            parser.add_argument(mode.flag, action="store_true", help=mode.help)
    parser.add_argument("--out", default=None,
                        help="output directory (alias for outdir)")
    return parser


def main(argv: list[str] | None = None) -> int:
    ns = _parser().parse_args(argv)
    mode = next((m for m in MODES[1:] if getattr(ns, m.flag[2:])), MODES[0])
    targets = getattr(ns, mode.flag[2:]) if mode.metavar else ()
    unknown = [name for name in targets if name not in mode.targets]
    if unknown:  # rejected with the known listing, exit 2
        print(f"error: unknown {mode.flag} target {unknown[0]!r}; "
              f"known: {', '.join(sorted(mode.targets))}", file=sys.stderr)
        return 2
    outdir = ns.out or ns.outdir
    out = Emitter(pathlib.Path(outdir) if outdir and mode.outdir else None)
    return mode.handler(out, *targets)


if __name__ == "__main__":
    raise SystemExit(main())
