"""One trip-count rule: every estimator counts an empty loop as zero trips.

Gauss's triangularization at ``m = 1`` runs ``k = 1`` once, and its
``DO i = k + 1, m`` is then empty (``DoLoop.trip_count`` is 0).  The CAG
edge weights (§3), the loop-cost estimator behind ``M[i, j]`` (§4) and
§6's naive-vs-pipelined pricing all count an instance as the product of
its loops' mean trip counts (``repro.lang.analysis.mean_trips``), so in
each of them every instance the empty ``i`` loop drives is free.  What is
left is the same two single-element broadcasts at ``N = 4`` (40 at
``tc = 10``) the pivots ``A(k, k)`` / ``B(k)`` need.
"""

from __future__ import annotations

import pytest

from repro.alignment.graph import cag_part
from repro.costmodel.loopcost import loop_facts
from repro.costmodel.primitives import CommCosts
from repro.dp import build_phase_tables
from repro.lang import gauss_program
from repro.lang.analysis import mean_trips
from repro.machine.model import MachineModel
from repro.pipeline.transform import pipeline_savings

ENV = {"m": 1}
NPROCS = 4
MODEL = MachineModel()


def cag_weight(program, nest):
    part = cag_part(nest, program, ENV, CommCosts(MODEL), NPROCS)
    return [term.cost for _, term in part.terms]


def loop_facts_price(program, nest):
    entry = build_phase_tables(program, NPROCS, ENV, MODEL).entry(1, 1)
    cost = loop_facts(nest, ENV).price(entry.scheme, entry.grid, MODEL)
    return [term.cost for term in cost.terms]


def naive_pipeline(program, nest):
    rows, _naive, _pipelined = pipeline_savings(nest, ENV, MODEL, NPROCS)
    return [row.naive_cost for row in rows]


@pytest.mark.parametrize(
    "estimator, costs",
    [
        (cag_weight, [0.0, 0.0, 20.0, 20.0, 0.0, 0.0, 0.0, 0.0]),
        (loop_facts_price, [0.0, 20.0, 0.0, 20.0, 0.0, 0.0]),
        (naive_pipeline, [0.0, 20.0, 0.0, 20.0, 0.0, 0.0]),
    ],
    ids=["cag-weight", "loop-facts", "pipeline-savings"],
)
def test_an_empty_loop_counts_zero_trips(estimator, costs):
    program = gauss_program()
    nest = program.loops()[0]
    inner = nest.body[0]
    assert inner.trip_count({**ENV, nest.var: 1}) == 0
    assert mean_trips((nest, inner), ENV) == {"k": 1.0, "i": 0.0}
    assert estimator(program, nest) == costs
    assert sum(costs) == 40.0

