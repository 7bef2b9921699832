"""SPMD code generation (paper Figs 6 and 8).

The generator recognizes the paper's program classes by comparing the
program's canonical body with the paper's listings
(:mod:`~repro.codegen.patterns`), reads the family's row
(:mod:`~repro.codegen.families`) for a strategy (data-parallel blocks,
ring pipeline, cyclic pipeline) justified by the alignment and
dependence analyses, and emits a runnable Python SPMD program targeting
the :mod:`repro.machine` runtime (:mod:`~repro.codegen.spmd`).
"""

from repro.codegen.patterns import (
    GaussPattern,
    IterativeSolvePattern,
    MatmulPattern,
    match_gauss,
    match_iterative_solve,
    match_matmul,
)
from repro.codegen.redist import RedistMove, emit_redistribution_program
from repro.codegen.sparse import SparsePattern, emit_sparse_spmv
from repro.codegen.spmd import GeneratedProgram, generate_spmd, load_generated

__all__ = [
    "IterativeSolvePattern",
    "GaussPattern",
    "MatmulPattern",
    "match_iterative_solve",
    "match_gauss",
    "match_matmul",
    "GeneratedProgram",
    "generate_spmd",
    "load_generated",
    "RedistMove",
    "emit_redistribution_program",
    "SparsePattern",
    "emit_sparse_spmv",
]
