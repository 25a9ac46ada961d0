"""Input validation helpers used across the public API.

All solvers accept either dense :class:`numpy.ndarray` matrices or
:class:`scipy.sparse.csr_matrix`/``csr_array`` — the same two layouts the
paper's C++ implementation supports (dense BLAS and 3-array CSR).
"""

from __future__ import annotations

from typing import Any

import numpy as np
import scipy.sparse as sp

from repro.errors import SolverError

__all__ = [
    "check_dense_or_csr",
    "check_positive",
    "check_in_range",
    "check_vector",
    "as_float64_array",
    "is_sparse",
    "nnz_of",
]


def is_sparse(A: Any) -> bool:
    """True if ``A`` is any scipy sparse container."""
    return sp.issparse(A)


def nnz_of(A: Any) -> int:
    """Number of stored non-zeros (dense arrays count every entry)."""
    if sp.issparse(A):
        return int(A.nnz)
    return int(np.asarray(A).size)


def check_dense_or_csr(A: Any, name: str = "A"):
    """Validate and normalise a data matrix.

    Returns a 2-D ``float64`` ndarray or a canonical-format
    ``csr_matrix`` with ``float64`` data. Raises :class:`SolverError`
    otherwise.
    """
    if sp.issparse(A):
        A = A.tocsr().astype(np.float64, copy=False)
        if A.ndim != 2:
            raise SolverError(f"{name} must be 2-D, got shape {A.shape}")
        A.sum_duplicates()
        if not np.all(np.isfinite(A.data)):
            raise SolverError(f"{name} contains non-finite entries")
        return A
    arr = np.asarray(A, dtype=np.float64)
    if arr.ndim != 2:
        raise SolverError(f"{name} must be 2-D, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise SolverError(f"{name} contains non-finite entries")
    return arr


def check_vector(v: Any, length: int, name: str = "b") -> np.ndarray:
    """Validate a 1-D float vector of the given length."""
    arr = np.asarray(v, dtype=np.float64).ravel()
    if arr.shape[0] != length:
        raise SolverError(f"{name} must have length {length}, got {arr.shape[0]}")
    if not np.all(np.isfinite(arr)):
        raise SolverError(f"{name} contains non-finite entries")
    return arr


def check_positive(value: float, name: str, strict: bool = True) -> float:
    """Validate a (strictly) positive scalar."""
    v = float(value)
    if strict and not v > 0:
        raise SolverError(f"{name} must be > 0, got {v}")
    if not strict and v < 0:
        raise SolverError(f"{name} must be >= 0, got {v}")
    return v


def check_in_range(value: int, lo: int, hi: int, name: str) -> int:
    """Validate an integer in the inclusive range [lo, hi]."""
    v = int(value)
    if not (lo <= v <= hi):
        raise SolverError(f"{name} must be in [{lo}, {hi}], got {v}")
    return v


def as_float64_array(x: Any) -> np.ndarray:
    """Contiguous float64 copy-if-needed view of ``x``."""
    return np.ascontiguousarray(x, dtype=np.float64)
