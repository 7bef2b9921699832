"""F8 — Fig 8: generated parallel Gauss elimination program.

The compiler recognizes the §6 source, *proves* via the Table 5 token
analysis that no token needs a true multicast, and emits the cyclic
pipelined program (Shift-based, the analogue of Fig 8).  The benchmark
runs it across sizes and ring widths against the §6 listing run by the
interpreter and numpy, and compares against the multicast variant.
"""

from __future__ import annotations

import numpy as np

from repro.codegen import generate_spmd, load_generated
from repro.costmodel import gauss_pipelined_time
from repro.kernels import make_spd_system
from repro.lang import gauss_program
from repro.lang.interp import interpret
from repro.machine import MachineModel, Ring, run_spmd

MODEL = MachineModel(tf=1, tc=10)


def build_and_run():
    gen = generate_spmd(gauss_program())
    fn = load_generated(gen)
    gen_mc = generate_spmd(gauss_program(), strategy="cyclic-multicast")
    fn_mc = load_generated(gen_mc)
    rows = []
    for m, n in [(24, 3), (32, 4), (64, 16)]:
        A, b, _ = make_spd_system(m, seed=m)
        res = run_spmd(fn, Ring(n), MODEL, args=({"A": A, "B": b},))
        res_mc = run_spmd(fn_mc, Ring(n), MODEL, args=({"A": A, "B": b},))
        err_np = float(np.max(np.abs(res.value(0) - np.linalg.solve(A, b))))
        rows.append((m, n, res.makespan, res_mc.makespan, res.value(0), err_np))
    return gen, rows


def listing_error(m, x):
    """max |x - X|, X what the §6 listing computes on the size-*m* system."""
    A, b, _ = make_spd_system(m, seed=m)
    return float(np.max(np.abs(x - interpret(gauss_program(), {"m": m}, {"A": A, "B": b})["X"])))


def test_fig8_generated_gauss_program(benchmark, emit, record):
    gen, runs = benchmark(build_and_run)
    rows = [(m, n, tp, tm, listing_error(m, x), err_np) for m, n, tp, tm, x, err_np in runs]
    for m, n, t_pipe, t_mc, err, _err_np in rows:
        record(
            f"gauss-gen-m{m}-N{n}",
            makespan=t_pipe,
            analytic=gauss_pipelined_time(m, n, MODEL).total,
            band="gauss-pipeline-makespan",
            extra={"t_multicast": t_mc, "err": err},
        )
    from repro.codegen.fortran_listing import fortran_listing

    report = [
        "Fig 8 — generated parallel Gauss elimination",
        "",
        "paper-style listing:",
        fortran_listing(gen),
        "",
        "executable SPMD form:",
        gen.source,
        "runs:",
    ]
    for m, n, t_pipe, t_mc, err, err_np in rows:
        report.append(
            f"  m={m:3} N={n:2}  T(pipeline)={t_pipe:10.1f}  "
            f"T(multicast)={t_mc:10.1f}  max|err|={err:.2e}  vs numpy={err_np:.2e}"
        )
    emit("fig8_gauss_codegen", "\n".join(report))

    # The strategy was justified by the dependence analysis.
    assert gen.strategy == "cyclic-pipeline"
    # Fig 8's structure: pivot rows shift right, X values shift left.
    assert "p.send(right, (pivot_row, pivot_b)" in gen.source
    assert "p.send(left, xj" in gen.source
    assert "mine = np.arange(p.rank, m, n)" in gen.source  # cyclic rows

    for m, n, _tp, _tm, err, err_np in rows:
        assert err < 1e-9
        assert err_np < 1e-7
    # At the largest ring the pipeline beats the multicast variant.
    m, n, t_pipe, t_mc, _, _ = rows[-1]
    assert t_pipe < t_mc
