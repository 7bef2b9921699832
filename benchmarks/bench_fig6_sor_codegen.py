"""F6 — Fig 6: generated parallel SOR program.

Regenerates the SPMD program the compiler emits for the SOR source
(the analogue of the paper's Fig 6 listing), executes it on the
simulator across a parameter sweep, and checks numerics against the §5
listing run by the interpreter plus the expected pipeline structure in
the source.
"""

from __future__ import annotations

import numpy as np

from repro.codegen import generate_spmd, load_generated
from repro.costmodel import sor_pipelined_time
from repro.kernels import make_spd_system
from repro.lang import sor_program
from repro.lang.interp import interpret
from repro.machine import MachineModel, Ring, run_spmd

MODEL = MachineModel(tf=1, tc=10)


def build_and_run():
    gen = generate_spmd(sor_program())
    fn = load_generated(gen)
    results = []
    for m, n in [(16, 2), (32, 4), (64, 8)]:
        A, b, _ = make_spd_system(m, seed=m)
        env = {"A": A, "B": b, "X0": np.zeros(m), "iterations": 5, "omega": 1.1}
        res = run_spmd(fn, Ring(n), MODEL, args=(env,))
        results.append((m, n, res.makespan, res.value(0)))
    return gen, results


def listing_error(m, x):
    """max |x - X|, X what the §5 listing computes on the size-*m* system."""
    A, b, _ = make_spd_system(m, seed=m)
    ref = interpret(sor_program(), {"m": m, "maxiter": 5}, {"A": A, "B": b}, {"omega": 1.1})["X"]
    return float(np.max(np.abs(x - ref)))


def test_fig6_generated_sor_program(benchmark, emit, record):
    gen, runs = benchmark(build_and_run)
    results = [(m, n, makespan, listing_error(m, x)) for m, n, makespan, x in runs]
    for m, n, makespan, err in results:
        record(
            f"sor-gen-m{m}-N{n}",
            makespan=makespan,
            analytic=5 * sor_pipelined_time(m, n, MODEL).total,
            band="sor-pipeline-makespan",
            extra={"err": err},
        )
    from repro.codegen.fortran_listing import fortran_listing

    report = [
        "Fig 6 — generated parallel SOR program",
        "",
        "paper-style listing:",
        fortran_listing(gen),
        "",
        "executable SPMD form:",
        gen.source,
        "runs:",
    ]
    for m, n, makespan, err in results:
        report.append(f"  m={m:3} N={n:2}  T={makespan:10.1f}  max|err|={err:.2e}")
    emit("fig6_sor_codegen", "\n".join(report))

    # Structure of the Fig 6 listing: four ring-pipeline phases.
    assert gen.strategy == "ring-pipeline"
    assert "lines 7-15" in gen.source
    assert "lines 16-23" in gen.source
    assert "lines 24-34" in gen.source
    assert "lines 35-43" in gen.source
    assert "p.recv(left" in gen.source and "p.send(right" in gen.source

    # Numerics exact at every size.
    for _m, _n, _t, err in results:
        assert err < 1e-10
