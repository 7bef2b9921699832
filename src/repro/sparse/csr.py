"""Compressed-sparse-row containers for the irregular workload class.

The paper's kernels are dense affine loop nests; the sparse subsystem
(docs/SPARSE.md) opens the indirection-array class, and this module is
its data side: a :class:`CSRPattern` (the *structure* — ``indptr`` /
``indices`` — which is what communication schedules depend on) kept
separate from a :class:`CSRMatrix` (structure + values), so the
inspector (:mod:`repro.pipeline.inspector`) can content-address a
sparsity pattern independently of the numbers stored in it.

Determinism contract: patterns are canonical on construction — indices
are ``int64``, sorted and unique within each row — so two patterns with
the same structure are byte-identical (``digest`` equal) no matter how
they were built, and every consumer (schedule builder, SpMV) walks the
nonzeros in one well-defined order.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from repro.errors import DistributionError

#: Schema tag folded into every pattern/schedule digest; bumping it
#: orphans previously cached :class:`~repro.pipeline.inspector.CommSchedule`
#: entries, mirroring ``repro.service.normalize.IR_SCHEMA``.
SPARSE_SCHEMA = "repro-sparse/1"


def _as_index(arr, name: str) -> np.ndarray:
    out = np.ascontiguousarray(np.asarray(arr, dtype=np.int64))
    if out.ndim != 1:
        raise DistributionError(f"{name} must be 1-D, got shape {out.shape}")
    return out


@dataclass(frozen=True, eq=False)
class CSRPattern:
    """The sparsity structure of an ``nrows x ncols`` matrix.

    ``indices[indptr[i]:indptr[i+1]]`` are the column indices of row
    ``i``, sorted ascending and unique (enforced here, so downstream
    index arithmetic — and therefore the summation order of every SpMV
    — is canonical).
    """

    nrows: int
    ncols: int
    indptr: np.ndarray = field(repr=False)
    indices: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "indptr", _as_index(self.indptr, "indptr"))
        object.__setattr__(self, "indices", _as_index(self.indices, "indices"))
        if self.nrows < 0 or self.ncols < 0:
            raise DistributionError(
                f"pattern shape must be nonnegative, got {self.nrows}x{self.ncols}"
            )
        if len(self.indptr) != self.nrows + 1:
            raise DistributionError(
                f"indptr has {len(self.indptr)} entries for {self.nrows} rows"
            )
        if self.indptr[0] != 0 or (np.diff(self.indptr) < 0).any():
            raise DistributionError("indptr must start at 0 and be nondecreasing")
        if self.indptr[-1] != len(self.indices):
            raise DistributionError(
                f"indptr ends at {self.indptr[-1]} but there are "
                f"{len(self.indices)} column indices"
            )
        if len(self.indices) and (
            (self.indices < 0).any() or (self.indices >= self.ncols).any()
        ):
            bad = int(
                self.indices[(self.indices < 0) | (self.indices >= self.ncols)][0]
            )
            raise DistributionError(
                f"column index {bad} outside 0..{self.ncols - 1}"
            )
        for i in range(self.nrows):
            row = self.indices[self.indptr[i] : self.indptr[i + 1]]
            if len(row) > 1 and (np.diff(row) <= 0).any():
                raise DistributionError(
                    f"row {i} column indices must be sorted and unique"
                )

    @property
    def nnz(self) -> int:
        return int(self.indptr[-1])

    def row_cols(self, i: int) -> np.ndarray:
        """Column indices of row *i* (a read-only view)."""
        return self.indices[self.indptr[i] : self.indptr[i + 1]]

    @cached_property
    def digest(self) -> str:
        """Content address of the structure (schema-tagged sha256).

        Hashed once per pattern object — every rank of a run checks its
        schedule against the same pattern — and kept out of pickles.
        """
        h = hashlib.sha256()
        h.update(f"{SPARSE_SCHEMA}|pattern|{self.nrows}|{self.ncols}|".encode())
        h.update(self.indptr.tobytes())
        h.update(self.indices.tobytes())
        return h.hexdigest()

    def __getstate__(self) -> dict:
        return {k: v for k, v in self.__dict__.items() if k != "digest"}

    def transpose_pattern(self) -> "CSRPattern":
        """The structure of the transpose (CSC view of this pattern)."""
        counts = np.bincount(self.indices, minlength=self.ncols)
        indptr = np.zeros(self.ncols + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        order = np.argsort(self.indices, kind="stable")
        rows = np.repeat(
            np.arange(self.nrows, dtype=np.int64), np.diff(self.indptr)
        )
        return CSRPattern(self.ncols, self.nrows, indptr, rows[order])

    @staticmethod
    def from_coo(
        nrows: int, ncols: int, rows, cols
    ) -> "CSRPattern":
        """Canonical pattern from (possibly unsorted, duplicated) COO."""
        rows = _as_index(rows, "rows")
        cols = _as_index(cols, "cols")
        if len(rows) != len(cols):
            raise DistributionError(
                f"COO rows/cols length mismatch ({len(rows)} vs {len(cols)})"
            )
        flat = np.unique(rows * np.int64(ncols) + cols)
        r, c = np.divmod(flat, np.int64(ncols))
        indptr = np.zeros(nrows + 1, dtype=np.int64)
        np.cumsum(np.bincount(r, minlength=nrows), out=indptr[1:])
        return CSRPattern(nrows, ncols, indptr, c)


@dataclass(frozen=True, eq=False)
class CSRMatrix:
    """A CSR matrix: a :class:`CSRPattern` plus float64 values."""

    pattern: CSRPattern
    data: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        data = np.ascontiguousarray(np.asarray(self.data, dtype=np.float64))
        object.__setattr__(self, "data", data)
        if data.ndim != 1 or len(data) != self.pattern.nnz:
            raise DistributionError(
                f"data has {data.size} values for {self.pattern.nnz} nonzeros"
            )

    @property
    def nrows(self) -> int:
        return self.pattern.nrows

    @property
    def ncols(self) -> int:
        return self.pattern.ncols

    @property
    def nnz(self) -> int:
        return self.pattern.nnz

    def to_dense(self) -> np.ndarray:
        out = np.zeros((self.nrows, self.ncols))
        rows = np.repeat(
            np.arange(self.nrows, dtype=np.int64), np.diff(self.pattern.indptr)
        )
        out[rows, self.pattern.indices] = self.data
        return out


def csr_from_dense(A, tol: float = 0.0) -> CSRMatrix:
    """CSR form of a dense matrix, dropping entries with ``|a| <= tol``."""
    A = np.asarray(A, dtype=np.float64)
    if A.ndim != 2:
        raise DistributionError(f"expected a matrix, got shape {A.shape}")
    mask = np.abs(A) > tol
    indptr = np.zeros(A.shape[0] + 1, dtype=np.int64)
    np.cumsum(mask.sum(axis=1), out=indptr[1:])
    rows, cols = np.nonzero(mask)
    pattern = CSRPattern(A.shape[0], A.shape[1], indptr, cols.astype(np.int64))
    return CSRMatrix(pattern, A[rows, cols])


def spmv_reference(csr: CSRMatrix, x) -> np.ndarray:
    """Single-rank SpMV, the bit-exactness oracle for the executor.

    Each row is summed over its nonzeros in CSR (ascending-column)
    order via unbuffered ``np.add.at`` — exactly the order the
    distributed executor uses on its local rows, so a row-partitioned
    parallel SpMV reproduces this result *bit for bit* (rows are never
    split across ranks).
    """
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (csr.ncols,):
        raise DistributionError(
            f"operand has shape {x.shape}, matrix needs ({csr.ncols},)"
        )
    y = np.zeros(csr.nrows)
    rows = np.repeat(
        np.arange(csr.nrows, dtype=np.int64), np.diff(csr.pattern.indptr)
    )
    np.add.at(y, rows, csr.data * x[csr.pattern.indices])
    return y


def random_pattern(
    nrows: int, ncols: int, density: float, seed: int = 0
) -> CSRPattern:
    """A seeded random pattern with at least one entry per row."""
    rng = np.random.default_rng(seed)
    mask = rng.random((nrows, ncols)) < density
    empty = ~mask.any(axis=1)
    if empty.any():
        mask[empty, rng.integers(0, ncols, size=int(empty.sum()))] = True
    rows, cols = np.nonzero(mask)
    return CSRPattern.from_coo(nrows, ncols, rows, cols)


def random_spd_csr(n: int, density: float = 0.1, seed: int = 0) -> CSRMatrix:
    """A seeded sparse symmetric positive-definite matrix (for CG).

    Symmetrized random structure with a diagonally dominant diagonal:
    ``A = (M + M^T)/2 + (n + 1) I`` restricted to the drawn pattern,
    which is SPD by Gershgorin (values lie in [-1, 1]).
    """
    rng = np.random.default_rng(seed)
    mask = rng.random((n, n)) < density
    vals = rng.uniform(-1.0, 1.0, size=(n, n))
    dense = np.where(mask, vals, 0.0)
    dense = (dense + dense.T) / 2.0
    np.fill_diagonal(dense, np.abs(dense).sum(axis=1) + 1.0)
    return csr_from_dense(dense)
