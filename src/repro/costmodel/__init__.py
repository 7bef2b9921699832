"""Analytic cost model: Table 1 primitives, loop-nest costs, grid search."""

from repro.costmodel.bands import BANDS, SlackBand, check_ratio, get_band
from repro.costmodel.primitives import CommCosts
from repro.costmodel.formulas import (
    gauss_broadcast_time,
    gauss_pipelined_time,
    jacobi_dp_time,
    jacobi_section3_time,
    sor_naive_time,
    sor_pipelined_time,
)
from repro.costmodel.loopcost import (
    CostTerm,
    LoopCost,
    LoopFacts,
    estimate_loop_cost,
    loop_facts,
)
from repro.costmodel.gridsearch import best_grid, grid_candidates
from repro.costmodel.sparse import (
    amortization_ratio,
    inspector_words,
    sparse_gather_words,
    spmv_sweep_time,
)

__all__ = [
    "BANDS",
    "SlackBand",
    "check_ratio",
    "get_band",
    "CommCosts",
    "jacobi_section3_time",
    "jacobi_dp_time",
    "sor_naive_time",
    "sor_pipelined_time",
    "gauss_broadcast_time",
    "gauss_pipelined_time",
    "CostTerm",
    "LoopCost",
    "LoopFacts",
    "estimate_loop_cost",
    "loop_facts",
    "best_grid",
    "grid_candidates",
    "amortization_ratio",
    "inspector_words",
    "sparse_gather_words",
    "spmv_sweep_time",
]
