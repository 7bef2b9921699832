"""Sequential reference implementations (the paper's source listings).

These are the ground truth every SPMD kernel is checked against.  They
follow the paper's loop structures (including the explicit ``V``
accumulator arrays) but are vectorized with NumPy where the loop order
permits, per the HPC-Python guides.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ReproError


def jacobi_seq(
    A: np.ndarray, b: np.ndarray, x0: np.ndarray, iterations: int
) -> np.ndarray:
    """Jacobi iteration exactly as the §3 listing.

    ``V = A @ X; X = X + (B - V) / diag(A)`` repeated *iterations* times.
    """
    A = np.asarray(A, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    x = np.array(x0, dtype=np.float64)
    diag = np.diag(A).copy()
    if np.any(diag == 0):
        raise ReproError("Jacobi requires a nonzero diagonal")
    for _ in range(iterations):
        v = A @ x
        x = x + (b - v) / diag
    return x


def sor_seq(
    A: np.ndarray,
    b: np.ndarray,
    x0: np.ndarray,
    omega: float,
    iterations: int,
) -> np.ndarray:
    """SOR exactly as the §5 listing (Gauss-Seidel order with relaxation).

    At step ``i``, ``V(i) = sum_j A(i,j) X(j)`` uses the *current* X —
    already-updated values for ``j < i``, old values for ``j >= i``.
    """
    A = np.asarray(A, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    x = np.array(x0, dtype=np.float64)
    m = len(x)
    diag = np.diag(A).copy()
    if np.any(diag == 0):
        raise ReproError("SOR requires a nonzero diagonal")
    for _ in range(iterations):
        for i in range(m):
            v = A[i, :] @ x
            x[i] = x[i] + omega * (b[i] - v) / diag[i]
    return x


def gauss_seq(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Gauss elimination + back substitution as the §6 listing.

    No pivoting (the paper's algorithm); the caller must supply a system
    whose leading minors are nonsingular (e.g. diagonally dominant).
    Returns ``x`` with ``A x = b``.
    """
    U = np.array(A, dtype=np.float64)
    y = np.array(b, dtype=np.float64)
    m = len(y)
    if U.shape != (m, m):
        raise ReproError(f"A must be {m}x{m}, got {U.shape}")
    # Triangularization (paper lines 2-8).
    for k in range(m - 1):
        pivot = U[k, k]
        if pivot == 0:
            raise ReproError(f"zero pivot at k={k + 1}; the paper's method does not pivot")
        ell = U[k + 1 :, k] / pivot
        y[k + 1 :] -= ell * y[k]
        U[k + 1 :, k + 1 :] -= np.outer(ell, U[k, k + 1 :])
        U[k + 1 :, k] = 0.0
    # Triangular system U x = y (paper lines 9-17, with the V accumulator).
    x = np.zeros(m)
    v = np.zeros(m)
    for j in range(m - 1, -1, -1):
        x[j] = (y[j] - v[j]) / U[j, j]
        v[:j] += U[:j, j] * x[j]
    return x


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
