"""Analytic cost model: Table 1 primitives, loop-nest costs, grid search."""

from repro.costmodel.formulas import (
    gauss_pipelined_time,
    jacobi_dp_time,
    jacobi_section3_time,
    sor_naive_time,
    sor_pipelined_time,
)
from repro.costmodel.loopcost import estimate_loop_cost
from repro.costmodel.gridsearch import grid_candidates
from repro.costmodel.sparse import sparse_gather_words

__all__ = [
    "jacobi_section3_time",
    "jacobi_dp_time",
    "sor_naive_time",
    "sor_pipelined_time",
    "gauss_pipelined_time",
    "estimate_loop_cost",
    "grid_candidates",
    "sparse_gather_words",
]
