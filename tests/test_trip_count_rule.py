"""One trip-count rule: every estimator counts an empty loop as zero trips.

Gauss's triangularization at ``m = 1`` runs ``k = 1`` once, and its
``DO i = k + 1, m`` is then empty (``DoLoop.trip_count`` is 0).  The CAG
edge weights (§3), the loop-cost estimator behind ``M[i, j]`` (§4) and
§6's naive-vs-pipelined pricing all count an instance as the product of
its loops' mean trip counts (``repro.lang.analysis.mean_trips``), so in
each of them every instance the empty ``i`` loop drives is free.  So are
the single-element broadcasts of the pivots ``A(k, k)`` / ``B(k)``: each
is charged only when a statement that reads it runs, and none does.

Whether a statement runs is decided exactly (``nest_runs``), not read off
the mean: back-substitution at ``m = 2`` fixes ``j`` at its midpoint 1,
where ``DO i = j - 1, 1, -1`` is empty, yet ``j = 2, i = 1`` runs, so its
two broadcasts of ``X(j)`` stay charged.
"""

from __future__ import annotations

import pytest

from repro.alignment.graph import cag_part
from repro.costmodel.loopcost import loop_facts
from repro.costmodel.primitives import ONE_TO_MANY
from repro.dp import build_phase_tables
from repro.lang import gauss_program
from repro.lang.analysis import mean_trips, nest_runs
from repro.machine.model import MachineModel
from repro.pipeline.transform import pipeline_savings

ENV = {"m": 1}
BACK_ENV = {"m": 2}
NPROCS = 4
MODEL = MachineModel()


def cag_weight(program, index, env):
    part = cag_part(program.loops()[index], program, env, NPROCS)
    return [MODEL.seconds(0, messages, words) for _, (*_, messages, words, _) in part.terms]


def loop_facts_price(program, index, env):
    entry = build_phase_tables(program, NPROCS, env, MODEL).entry(index + 1, 1)
    counts = loop_facts(program.loops()[index], env).price(entry.scheme, entry.grid)
    return [MODEL.seconds(*term[1:4]) for term in counts]


def naive_pipeline(program, index, env):
    rows, _naive, _pipelined = pipeline_savings(program.loops()[index], env, MODEL, NPROCS)
    return [row.naive_cost for row in rows]


@pytest.mark.parametrize(
    "estimator, costs",
    [
        (cag_weight, [0.0] * 8),
        (loop_facts_price, [0.0] * 6),
        (naive_pipeline, [0.0] * 6),
    ],
    ids=["cag-weight", "loop-facts", "pipeline-savings"],
)
def test_an_empty_loop_counts_zero_trips(estimator, costs):
    program = gauss_program()
    nest = program.loops()[0]
    inner = nest.body[0]
    assert inner.trip_count({**ENV, nest.var: 1}) == 0
    assert mean_trips((nest, inner), ENV) == {"k": 1.0, "i": 0.0}
    assert not nest_runs((nest, inner), ENV)
    assert estimator(program, 0, ENV) == costs
    assert sum(costs) == 0.0


@pytest.mark.parametrize(
    "estimator, costs",
    [
        (cag_weight, [20.0] * 9 + [0.0, 40.0]),
        (loop_facts_price, [1.0, 0.0, 20.0, 0.0, 40.0]),
        (naive_pipeline, [0.0, 0.0, 0.0, 0.0, 40.0]),
    ],
    ids=["cag-weight", "loop-facts", "pipeline-savings"],
)
def test_a_nest_empty_at_its_mean_still_broadcasts_what_it_reads(estimator, costs):
    program = gauss_program()
    nest = program.loops()[2]
    inner = nest.body[1]
    assert mean_trips((nest, inner), BACK_ENV) == {"j": 2.0, "i": 0.0}
    assert nest_runs((nest, inner), BACK_ENV)
    assert estimator(program, 2, BACK_ENV) == costs
    assert costs[-1] == 2 * ONE_TO_MANY.cost(MODEL, 1, NPROCS)
