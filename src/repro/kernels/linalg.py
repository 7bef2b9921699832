"""Test systems for the paper's solvers.

What a solver computes is its source listing's meaning:
:func:`repro.lang.interp.interpret` runs the listings of
:mod:`repro.lang.programs`, and every SPMD kernel is checked against it.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ReproError


def make_spd_system(
    m: int, seed: int = 0, dominance: float = 2.0
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A random diagonally-dominant system (A, b, x_true).

    Diagonal dominance guarantees Jacobi/SOR convergence and pivot-free
    Gauss elimination stability — the implicit assumption behind the
    paper's kernels.
    """
    if m < 1:
        raise ReproError(f"system size must be >= 1, got {m}")
    rng = np.random.default_rng(seed)
    A = rng.uniform(-1.0, 1.0, size=(m, m))
    A[np.diag_indices(m)] = np.abs(A).sum(axis=1) + dominance
    x_true = rng.uniform(-1.0, 1.0, size=m)
    b = A @ x_true
    return A, b, x_true
