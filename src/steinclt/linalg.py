"""Small matrix helpers used across modules."""
from __future__ import annotations

import numpy as np


# the smallest eigenvalue a covariance must exceed to be inverted
MIN_EIGENVALUE = 1e-10


class DegenerateCovariance(ValueError):
    """Raised when a covariance matrix is (numerically) singular."""


def spectral_norm(a: np.ndarray) -> float:
    """Largest singular value of a matrix."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2:
        raise ValueError("spectral_norm expects a 2-d array")
    return float(np.linalg.norm(a, 2))


def check_symmetric(a: np.ndarray, tol: float = 1e-10) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("expected a square matrix")
    scale = max(1.0, float(np.abs(a).max()))
    if np.abs(a - a.T).max() > tol * scale:
        raise ValueError("matrix is not symmetric within tolerance")
    return 0.5 * (a + a.T)


def symmetric_sqrt(sigma: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Symmetric square root via eigendecomposition.

    Returns (b, b_inv) with b = V diag(sqrt(lam)) V^T.  Raises
    DegenerateCovariance when the smallest eigenvalue does not clear
    `MIN_EIGENVALUE`.
    """
    sym = check_symmetric(sigma)
    vals, vecs = np.linalg.eigh(sym)
    if float(vals.min()) <= MIN_EIGENVALUE:
        raise DegenerateCovariance(
            f"covariance is singular: smallest eigenvalue {vals.min():.3e} "
            f"<= {MIN_EIGENVALUE:.1e}; increase N or the sample count"
        )
    root = np.sqrt(vals)
    b = (vecs * root) @ vecs.T
    b_inv = (vecs / root) @ vecs.T
    return b, b_inv
