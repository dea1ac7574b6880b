"""Small float-side linear algebra helpers shared by the numeric modules."""

from __future__ import annotations

import numpy as np

RANK_RTOL = 1e-9  # singular values below this share of the largest count as zero


def numeric_rank(a: np.ndarray) -> int:
    """Rank by singular values, thresholded relative to the largest one."""
    a = np.asarray(a, dtype=float)
    if a.size == 0:
        return 0
    sv = np.linalg.svd(a, compute_uv=False)
    if sv.size == 0 or sv[0] == 0.0:
        return 0
    return int(np.sum(sv > RANK_RTOL * sv[0]))


def orthonormal_columns(basis_rows: np.ndarray) -> np.ndarray:
    """Orthonormal columns spanning the row space of `basis_rows`."""
    a = np.atleast_2d(np.asarray(basis_rows, dtype=float))
    q, r = np.linalg.qr(a.T)
    keep = np.abs(np.diag(r)) > 1e-12 * max(1.0, np.abs(r).max(initial=0.0))
    return q[:, keep]


def complement_basis_rows(basis_rows: np.ndarray, dim: int) -> np.ndarray:
    """Rows spanning the orthogonal complement of the given row space."""
    a = np.atleast_2d(np.asarray(basis_rows, dtype=float))
    if a.size == 0:
        return np.eye(dim)
    _, sv, vt = np.linalg.svd(a, full_matrices=True)
    rank = int(np.sum(sv > 1e-12 * sv[0])) if sv.size else 0
    return vt[rank:, :]


def projection_norm(v: np.ndarray, onto_columns: np.ndarray) -> float:
    """Euclidean norm of the component of v inside span(onto_columns)."""
    if onto_columns.size == 0:
        return 0.0
    coeffs = onto_columns.T @ v
    return float(np.linalg.norm(onto_columns @ coeffs))
