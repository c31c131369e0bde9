"""Small dense symmetric positive definite solves on numpy alone.

The solver and the information-matrix pipeline only ever factor matrices of
the order of the support size (a few dozen at most).  A Cholesky
factorization tests every matrix before its solve or inverse, and failure
reports the offending pivot instead of silently regularizing.  A pivot
fails when it is non-finite or when L_jj**2 <= PIVOT_TOL * a_jj: the
factorization of an exactly singular matrix can end on a rounding-sized
positive pivot, and the solve or inverse behind it would then fail or
return noise.

``spd_solve_stack`` is the one path: it tests and solves a stack of such
matrices, one per replicate, at once, and the single solve and the inverse
are its stacks of one.  An inverse is the solve against the identity, the
same LAPACK ``gesv`` call that ``np.linalg.inv`` makes, so it is bit for bit
``np.linalg.inv`` of the matrix.
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


def _failing_pivot(a: np.ndarray) -> int:
    """First bad pivot of a matrix that does not factor.

    The leading blocks that end before that pivot factor and the others
    fail, so a bisection over them finds it.
    """
    good, bad = 0, np.shape(a)[0]  # orders of a leading block that factors / fails
    while bad - good > 1:
        mid = (good + bad) // 2
        if _factor(a[:mid, :mid]) is None:
            bad = mid
        else:
            good = mid
    return bad - 1


def cholesky_pivots(a: np.ndarray) -> dict[int, int]:
    """First bad pivot of each matrix of a stack (g, k, k) that fails to
    factor, keyed by its position in the stack.

    One stacked factorization tests the whole stack.  numpy raises for the
    whole stack when one matrix fails, so then each matrix is factored on
    its own, and each one that fails has its pivot found by bisection.
    """
    try:
        low = np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        factors = [_factor(one) is not None for one in a]
    else:
        pivots = low.diagonal(0, -2, -1)
        passed = pivots * pivots > PIVOT_TOL * a.diagonal(0, -2, -1)
        if np.count_nonzero(passed) == passed.size:
            return {}
        factors = passed.all(axis=-1)
    return {i: _failing_pivot(a[i]) for i, ok in enumerate(factors) if not ok}


def spd_solve_stack(a: np.ndarray, rhs: np.ndarray) -> tuple[np.ndarray, dict]:
    """Solve a[i] x[i] = rhs[i] for a stack (g, k, k) of same-order matrices.

    ``rhs`` stacks one right-hand side per matrix, a vector (g, k) or a
    matrix (g, k, r).  Returns ``(x, failed)`` with ``failed`` from
    ``cholesky_pivots``; the solutions of the matrices that fail are zero.
    numpy solves a stack one matrix at a time, so each solution is bit for
    bit the solution of its matrix alone, whatever else the stack holds.
    """
    vectors = rhs.ndim == a.ndim - 1
    if vectors:
        rhs = rhs[..., None]
    failed = cholesky_pivots(a)
    if not failed:
        x = np.linalg.solve(a, rhs)
    else:
        x = np.zeros(rhs.shape)
        ok = np.ones(len(a), dtype=bool)
        ok[list(failed)] = False
        if ok.any():
            x[ok] = np.linalg.solve(a[ok], rhs[ok])
    return (x[..., 0] if vectors else x), failed


def spd_solve(a: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve a x = rhs for one matrix; raises on the first bad pivot."""
    x, failed = spd_solve_stack(a[None], rhs[None])
    if failed:
        raise SingularMatrixError(pivot=failed[0])
    return x[0]


def spd_invert(a: np.ndarray) -> np.ndarray:
    """Inverse of a symmetric matrix, the solve against the identity."""
    check_symmetric(a)
    return spd_solve(a, np.eye(len(a)))
