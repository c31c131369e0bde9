"""Small dense symmetric positive definite solves.

The solver and the information-matrix pipeline only ever factor matrices of
the order of the support size (a few dozen at most).  Every solve and inverse
goes through one LAPACK Cholesky factorization (``dpotrf``), and failure
reports the offending pivot instead of silently regularizing.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotri, dpotrs

from .errors import SingularMatrixError


def check_symmetric(a: np.ndarray, tol: float = 1e-12) -> None:
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("expected a square matrix")
    scale = max(1.0, float(np.abs(a).max()) if a.size else 1.0)
    if a.size and float(np.abs(a - a.T).max()) > tol * scale:
        raise ValueError("matrix is not symmetric")


def cholesky_factor(a: np.ndarray) -> np.ndarray:
    """Lower-triangular L with L L^T = a; raises on the first bad pivot.

    LAPACK stops at the first non-positive pivot, but some implementations
    let a NaN pivot through, so the factor's diagonal up to the stopping
    point is also checked for non-finite entries.
    """
    check_symmetric(a)
    low, info = dpotrf(np.asarray(a, dtype=float), lower=1)
    if info < 0:
        raise ValueError(f"dpotrf: illegal argument {-info}")
    stop = info - 1 if info > 0 else low.shape[0]
    bad = np.flatnonzero(~np.isfinite(np.diagonal(low)[:stop]))
    if bad.size:
        raise SingularMatrixError(pivot=int(bad[0]))
    if info > 0:
        raise SingularMatrixError(pivot=info - 1)
    return low


def spd_solve(a: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    rhs = np.asarray(rhs, dtype=float)
    if rhs.shape[0] == 0:
        return rhs.copy()
    x, info = dpotrs(cholesky_factor(a), rhs, lower=1)
    if info != 0:
        raise ValueError(f"dpotrs: illegal argument {-info}")
    return x


def spd_invert(a: np.ndarray) -> np.ndarray:
    if np.shape(a)[0] == 0:
        return np.zeros((0, 0))
    inv, info = dpotri(cholesky_factor(a), lower=1)
    if info != 0:
        raise SingularMatrixError(pivot=info - 1)
    # dpotri fills the lower triangle only
    return np.tril(inv) + np.tril(inv, -1).T
