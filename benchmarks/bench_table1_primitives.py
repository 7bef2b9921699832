"""T1 — Table 1: communication-primitive costs on the hypercube.

Regenerates the paper's cost table twice from the rows of
:data:`repro.costmodel.primitives.TABLE1` — analytically (each row's
``cost``) and *measured* (each row's collective run on the simulator's
hypercube) — then checks the asymptotic shapes —
Transfer/Shift linear in m; OneToManyMulticast/Reduction/AffineTransform
O(m log P); Scatter/Gather/ManyToManyMulticast O(m P).
"""

from __future__ import annotations

import numpy as np

from repro.costmodel.primitives import (
    GATHER,
    MANY_TO_MANY,
    ONE_TO_MANY,
    REDUCTION,
    SHIFT,
    TABLE1,
    TRANSFER,
)
from repro.machine import Hypercube, collectives, run_spmd
from repro.util.tables import Table


def measured_costs(m: int, dim: int, model):
    """Simulated makespan of each primitive, m words, 2**dim processors."""
    topo = Hypercube(dim)
    group = tuple(range(topo.size))
    payload = np.zeros(m)

    def point_to_point(p):
        if p.rank == 0:
            p.send(topo.size - 1, payload)
        elif p.rank == topo.size - 1:
            yield from p.recv(0)

    # How to call the collective a Table 1 row names, by function name.
    calls = {
        "Proc.send": point_to_point,
        "shift": lambda p: collectives.shift(p, payload, group),
        "bcast": lambda p: collectives.bcast(
            p, payload if p.rank == 0 else None, root=0, group=group
        ),
        "reduce": lambda p: collectives.reduce(p, payload.copy(), root=0, group=group),
        "affine_transform": lambda p: collectives.affine_transform(
            p, payload, group, lambda i: (i + 1) % len(group)
        ),
        "scatter": lambda p: collectives.scatter(
            p, [payload] * len(group) if p.rank == 0 else None, root=0, group=group
        ),
        "gather": lambda p: collectives.gather(p, payload, root=0, group=group),
        "allgather": lambda p: collectives.allgather(p, payload, group),
    }
    return {
        row.name: run_spmd(calls[row.collective], topo, model).makespan
        for row in TABLE1
    }


def analytic_costs(m: int, nprocs: int, model):
    return {row.name: row.cost(model, m, nprocs) for row in TABLE1}


def test_table1_primitive_costs(benchmark, emit, unit_model, record):
    m, dim = 64, 4
    P = 2**dim

    measured = benchmark(measured_costs, m, dim, unit_model)
    analytic = analytic_costs(m, P, unit_model)
    for name in measured:
        record(
            name,
            makespan=measured[name],
            analytic=analytic[name],
            band="primitive-makespan",
        )
    emit.json(
        "table1_primitives",
        {
            "m": m,
            "nprocs": P,
            "primitives": {
                name: {"analytic": analytic[name], "simulated": measured[name]}
                for name in sorted(measured)
            },
        },
    )

    table = Table(
        ["Primitive", "paper cost", "analytic", "simulated"],
        title=f"Table 1 — primitive costs (m={m} words, P={P} hypercube, tc=1)",
    )
    for row in TABLE1:
        table.add_row(
            [row.name, row.shape, f"{analytic[row.name]:g}", f"{measured[row.name]:g}"]
        )
    emit("table1_primitives", table.render())

    # --- shape assertions -------------------------------------------------
    # Linear primitives scale with m.
    measured_2m = measured_costs(2 * m, dim, unit_model)
    for row in (TRANSFER, SHIFT):
        assert 1.8 <= measured_2m[row.name] / measured[row.name] <= 2.2
    # Logarithmic collectives scale with log P.
    small = measured_costs(m, 2, unit_model)
    for row in (ONE_TO_MANY, REDUCTION):
        grow = measured[row.name] / small[row.name]
        assert 1.5 <= grow <= 2.5  # log 16 / log 4 = 2
    # Linear-in-P collectives grow ~4x from P=4 to P=16.
    for row in (GATHER, MANY_TO_MANY):
        grow = measured[row.name] / small[row.name]
        assert 3.0 <= grow <= 6.0
    # Within a machine size: log collectives cheaper than linear ones.
    assert measured[ONE_TO_MANY.name] < measured[MANY_TO_MANY.name]
    assert measured[REDUCTION.name] < measured[GATHER.name]
