"""Small dense symmetric positive definite solves on numpy alone.

The solver and the information-matrix pipeline only ever factor matrices of
the order of the support size (a few dozen at most).  A Cholesky
factorization tests every matrix before its solve or inverse, and failure
reports the offending pivot instead of silently regularizing.  A pivot
fails when it is non-finite or when L_jj**2 <= PIVOT_TOL * a_jj: the
factorization of an exactly singular matrix can end on a rounding-sized
positive pivot, and the solve or inverse behind it would then fail or
return noise.
"""

from __future__ import annotations

import numpy as np

from .errors import SingularMatrixError

PIVOT_TOL = 1e-10  # least accepted ratio of a squared pivot to its diagonal entry


def check_symmetric(a: np.ndarray, tol: float = 1e-12) -> None:
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("expected a square matrix")
    scale = max(1.0, float(np.abs(a).max()) if a.size else 1.0)
    if a.size and float(np.abs(a - a.T).max()) > tol * scale:
        raise ValueError("matrix is not symmetric")


def _factor(a: np.ndarray) -> np.ndarray | None:
    try:
        low = np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        return None
    # OpenBLAS lets a NaN pivot through; every comparison with NaN is false,
    # so this one test also fails a non-finite pivot
    pivots = np.diagonal(low)
    return low if (pivots * pivots > PIVOT_TOL * np.diagonal(a)).all() else None


def cholesky_factor(a: np.ndarray) -> np.ndarray:
    """Lower-triangular L with L L^T = a; raises on the first bad pivot.

    The leading blocks that end before that pivot factor and the others
    fail, so on failure a bisection over them finds it.
    """
    low = _factor(a)
    if low is not None:
        return low
    good, bad = 0, np.shape(a)[0]  # orders of a leading block that factors / fails
    while bad - good > 1:
        mid = (good + bad) // 2
        if _factor(a[:mid, :mid]) is None:
            bad = mid
        else:
            good = mid
    raise SingularMatrixError(pivot=bad - 1)


def spd_solve(a: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    cholesky_factor(a)
    return np.linalg.solve(a, rhs)


def spd_invert(a: np.ndarray) -> np.ndarray:
    check_symmetric(a)
    cholesky_factor(a)
    return np.linalg.inv(a)
