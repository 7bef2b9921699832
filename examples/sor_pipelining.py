"""SOR pipelining walkthrough (§5, Figs 5-6).

Run:  python examples/sor_pipelining.py

Compares the naive reduction-per-row SOR schedule with the software
pipeline on a ring, prints the Fig 5 step schedule reconstructed from
the simulator trace, an ASCII Gantt chart, and the measured speedups
(including the hardware compute/communication overlap ablation).
"""

from __future__ import annotations

import numpy as np

from repro import MachineModel, Ring
from repro.machine import run_spmd
from repro.costmodel import sor_naive_time, sor_pipelined_time
from repro.kernels import make_spd_system, sor_naive, sor_pipelined
from repro.lang import sor_program
from repro.lang.interp import interpret
from repro.machine.trace import gantt
from repro.pipeline.sor_schedule import render_schedule, sor_schedule_from_trace
from repro.util.tables import Table


def schedule_figure() -> None:
    m, n = 16, 4
    model = MachineModel(tf=1, tc=1)
    A, b, _ = make_spd_system(m, seed=2)
    res = run_spmd(
        sor_pipelined, Ring(n), model, args=(A, b, np.zeros(m), 1.0, 1), trace=True
    )
    cells = sor_schedule_from_trace(res.trace, m, n)
    print("Fig 5 — pipelined SOR schedule (one sweep, 16x16 on a 4-ring):")
    print(render_schedule(cells, n))
    print("\nGantt ('#' compute, '>' send, '<' recv/wait):")
    print(gantt(res.trace, width=72))


def speedup_sweep() -> None:
    model = MachineModel(tf=1, tc=10)
    overlap = MachineModel(tf=1, tc=10, overlap=True)
    iters = 3
    table = Table(
        ["m", "N", "naive", "pipelined", "+overlap", "speedup", "paper bound"],
        title="\nnaive vs pipelined SOR (per sweep, simulated time)",
    )
    for m, n in [(32, 4), (64, 8), (128, 16)]:
        A, b, _ = make_spd_system(m, seed=m)
        x0 = np.zeros(m)
        ref = interpret(sor_program(), {"m": m, "maxiter": iters}, {"A": A, "B": b}, {"omega": 1.0})["X"]
        args = (A, b, x0, 1.0, iters)
        r_naive = run_spmd(sor_naive, Ring(n), model, args=args)
        r_pipe = run_spmd(sor_pipelined, Ring(n), model, args=args)
        r_over = run_spmd(sor_pipelined, Ring(n), overlap, args=args)
        assert np.allclose(r_naive.value(0), ref) and np.allclose(r_pipe.value(0), ref)
        table.add_row(
            [
                m,
                n,
                f"{r_naive.makespan / iters:g}",
                f"{r_pipe.makespan / iters:g}",
                f"{r_over.makespan / iters:g}",
                f"{r_naive.makespan / r_pipe.makespan:.2f}x",
                f"{sor_pipelined_time(m, n, model).total:g}",
            ]
        )
    print(table.render())
    times = {"naive": sor_naive_time(128, 16, model), "pipelined": sor_pipelined_time(128, 16, model)}
    print(
        "\nanalytic (m=128, N=16):",
        " | ".join(f"{k} comp={t.comp:g} comm={t.comm:g} total={t.total:g}" for k, t in times.items()),
    )


if __name__ == "__main__":
    schedule_figure()
    speedup_sweep()
