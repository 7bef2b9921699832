"""X8 — redistribution calibration: measured vs analytic words, per primitive.

Every Table 1 primitive the analytic redistribution planner charges is
executed for real by the runtime lowering (``repro.distribution.runtime``)
across a sweep of sizes and grids; the table reports the measured/analytic
word ratio per case, which must sit in the documented band
(``docs/REDISTRIBUTION.md``): ``1 <= ratio <= 2`` for literal lowerings.
The final section re-validates Algorithm 1's chosen Jacobi chain
(Fig 3 / Table 3, m=256, N=16) by execution on both engines.
"""

from __future__ import annotations

import numpy as np

from repro.distribution import (
    ArrayPlacement,
    Kind,
    lower_placement_delta,
    pack_section,
    placement_change_plan,
    redistribute,
)
from repro.dp import solve_program_distribution
from repro.lang import jacobi_program
from repro.machine import Grid2D, MachineModel, run_spmd
from repro.util.tables import Table

MODEL = MachineModel(tf=1, tc=10)


def pl(dim_map, kinds=None, rest="fixed"):
    kinds = kinds or tuple(Kind.BLOCK for _ in dim_map)
    return ArrayPlacement("T", tuple(dim_map), kinds=tuple(kinds), rest=rest)


CASES = [
    ("AffineTransform", pl((1,)), pl((1,), kinds=(Kind.CYCLIC,)), (16, 1)),
    ("Gather", pl((1,)), pl((None,)), (16, 1)),
    ("Scatter", pl((None,)), pl((1,)), (16, 1)),
    ("ManyToManyMulticast", pl((1,)), pl((None,), rest="replicated"), (16, 1)),
    ("OneToManyMulticast", pl((1,)), pl((2,)), (4, 8)),
    ("Transfer", pl((1,)), pl((2,)), (4, 4)),
]


def sweep():
    rows = []
    for label, src, dst, grid in CASES:
        for scale in (1, 4):
            n = grid[0] * grid[1]
            extent = 2 * n * scale
            total = extent
            data = np.arange(1, total + 1, dtype=np.float64)
            lowering = lower_placement_delta(src, dst, (extent,), grid)
            plan = placement_change_plan(src, dst, total, grid)

            def prog(p, _s=src, _d=dst, _e=(extent,), _g=grid):
                local = pack_section(data, _s, _e, _g, p.rank)
                out = yield from redistribute(p, local, _s, _d, _e, _g)
                return out

            res = run_spmd(prog, Grid2D(*grid), MODEL)
            correct = all(
                np.array_equal(
                    pack_section(data, dst, (extent,), grid, r),
                    np.asarray(res.values[r]),
                )
                for r in range(n)
            )
            measured = res.metrics.scope_totals("redist").words
            rows.append(
                (label, grid, extent, lowering.exact, plan.analytic_words,
                 measured, correct)
            )
    return rows


def test_x8_primitive_calibration(benchmark, emit, record):
    rows = benchmark(sweep)
    for label, grid, extent, exact, analytic, measured, _correct in rows:
        if exact and analytic:
            record(
                f"{label}-{grid[0]}x{grid[1]}-m{extent}",
                measured=measured,
                analytic=analytic,
                band="redist-words",
                message_words=measured,
            )
    table = Table(
        ["primitive", "grid", "m", "lowering", "analytic", "measured", "ratio",
         "sections"],
        title="X8 — measured vs analytic words per redistribution primitive",
    )
    for label, grid, extent, exact, analytic, measured, correct in rows:
        ratio = measured / analytic if analytic else float("nan")
        table.add_row([
            label, f"{grid[0]}x{grid[1]}", extent,
            "literal" if exact else "fallback",
            f"{analytic:g}", measured, f"{ratio:.3f}",
            "exact" if correct else "WRONG",
        ])
    emit("x8_redist_calibration", table.render())

    for label, grid, extent, exact, analytic, measured, correct in rows:
        assert correct, (label, grid, extent)
        assert exact, (label, grid, extent)
        assert analytic <= measured <= 2 * analytic, (label, grid, extent)


def test_x8_jacobi_chain_validates(emit, record):
    tables, result, validation = solve_program_distribution(
        jacobi_program(), 16, {"m": 256, "maxiter": 1}, MODEL, execute=True
    )
    emit("x8_jacobi_chain", validation.describe(MODEL))
    assert validation.ok
    loop = next(t for t in validation.transitions if t.label == "loop[X]")
    record(
        "jacobi-chain-loopX",
        measured=loop.measured_words("engine"),
        analytic=loop.analytic_words,
        band="redist-words",
        message_words=loop.measured_words("engine"),
    )
    # The paper's CTime2 move: measured words equal the analytic volume.
    assert loop.measured_words("engine") == loop.analytic_words == 3840
    assert loop.measured_words("threaded") == 3840
