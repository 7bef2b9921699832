"""Reference and SPMD kernels for the paper's three algorithms (+ Cannon).

Each parallel kernel is an SPMD generator function for
:func:`repro.machine.run_spmd`; numerics are computed with NumPy on local
blocks while simulated time is accounted through ``p.compute`` and the
message costs.  Sequential references live in
:mod:`repro.kernels.linalg`.
"""

from repro.kernels.linalg import gauss_seq, jacobi_seq, make_spd_system, sor_seq
from repro.kernels.jacobi import jacobi_coldist, jacobi_grid2d, jacobi_rowdist
from repro.kernels.overlap import (
    heat_stencil_blocking,
    heat_stencil_overlap,
    jacobi_ring_blocking,
    jacobi_ring_overlap,
    sor_pipelined_overlap,
)
from repro.kernels.sor import sor_naive, sor_pipelined
from repro.kernels.gauss import gauss_broadcast, gauss_pipelined
from repro.kernels.cannon import cannon_matmul
from repro.kernels.multiphase import multiphase_gemv, multiphase_sections
from repro.kernels.resilient import resilient_jacobi
from repro.kernels.sparse_cg import sparse_cg_parallel, sparse_cg_seq
from repro.kernels.spmv import spmv_parallel

__all__ = [
    "jacobi_seq",
    "sor_seq",
    "gauss_seq",
    "make_spd_system",
    "jacobi_rowdist",
    "jacobi_coldist",
    "jacobi_grid2d",
    "sor_naive",
    "sor_pipelined",
    "sor_pipelined_overlap",
    "heat_stencil_blocking",
    "heat_stencil_overlap",
    "jacobi_ring_blocking",
    "jacobi_ring_overlap",
    "gauss_broadcast",
    "gauss_pipelined",
    "cannon_matmul",
    "multiphase_gemv",
    "multiphase_sections",
    "resilient_jacobi",
    "spmv_parallel",
    "sparse_cg_seq",
    "sparse_cg_parallel",
]
