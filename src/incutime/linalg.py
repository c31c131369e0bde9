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

``PairProducts`` forms the matrices that these solves take, the weighted
Gram matrices sum_i s_i w_i w_i' of the quadratic models and of the
observed information, a stack at a time.
"""

from __future__ import annotations

import numpy as np

from .errors import SingularMatrixError

PIVOT_TOL = 1e-10  # least accepted ratio of a squared pivot to its diagonal entry
# Most bytes of one ``PairProducts`` table.  Past it, each matrix is formed
# from the scaled columns instead, so a wide grid costs no more memory.
TABLE_BYTES = 4 * 2**20


def check_symmetric(a: np.ndarray, tol: float = 1e-12) -> None:
    """Raise ValueError unless a, a matrix or a stack (..., k, k), is symmetric."""
    a = np.asarray(a)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError("expected a square matrix")
    if not a.size:
        return
    scale = np.maximum(1.0, np.abs(a).max(axis=(-2, -1)))
    gap = np.abs(a - np.swapaxes(a, -2, -1)).max(axis=(-2, -1))
    if (gap > tol * scale).any():
        raise ValueError("matrix is not symmetric")


class PairProducts:
    """Weighted Gram matrices of the columns of one matrix w (rows, K).

    ``grams(counts, terms)`` returns, for each row of counts c and positive
    denominators d (B, rows), the matrix sum_i c_i w_i(k) w_i(l) / d_i^2
    (B, K, K).  When it fits in ``TABLE_BYTES``, the table T of the row
    products w_i(k) w_i(l), one row per pair k <= l, is built once, and
    each matrix is the one matrix-vector product T (c / d^2), whose values
    fill both triangles.  Otherwise each matrix is that of the rows scaled
    by sqrt(c_i) / d_i, one replicate at a time, so that no (B, rows, K)
    array is formed.  The choice depends on the shape of w alone, and
    numpy runs a stacked product one replicate at a time, so a replicate's
    matrix is that of its batch of one, bit for bit; every matrix is
    exactly symmetric.
    """

    def __init__(self, columns: np.ndarray):
        rows, k = columns.shape
        self.columns = columns
        self.table = None
        if 4 * rows * k * (k + 1) > TABLE_BYTES:  # 8 bytes per product
            return
        # block j holds the rows of the pairs (j, l), l = j, ..., K - 1, so the
        # rows run in the order of np.triu_indices(K)
        by_column = np.ascontiguousarray(columns.T)
        self.table = np.empty((k * (k + 1) // 2, rows))
        first = 0
        for j in range(k):
            np.multiply(by_column[j], by_column[j:], out=self.table[first : first + k - j])
            first += k - j
        self._upper = np.triu_indices(k)

    def grams(self, counts: np.ndarray, terms: np.ndarray) -> np.ndarray:
        k = self.columns.shape[1]
        grams = np.empty((len(counts), k, k))
        if self.table is None:
            for r, (c, d) in enumerate(zip(counts, terms)):
                scaled = self.columns * (np.sqrt(c) / d)[:, None]
                grams[r] = scaled.T @ scaled
            return grams
        scales = counts / terms
        scales /= terms
        upper = np.matmul(self.table, scales[:, :, None])[..., 0]
        low, high = self._upper
        grams[:, low, high] = upper
        grams[:, high, low] = upper
        return grams


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
