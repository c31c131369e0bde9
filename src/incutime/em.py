"""Self-consistency (EM) iteration, kept as an independent reference solver.

One step rescales each mass by the average responsibility it earns across
observations.  The map is monotone in the solver criterion and converges to
the same optimum, only far more slowly, which makes it a useful correctness
oracle for the support reduction solver; it is not meant for production use.
"""

from __future__ import annotations

import warnings

import numpy as np

from .model import Dataset, Grid, MassFunction
from .solver import _positive_terms
from .weights import WeightMatrix, build_weight_matrix

FREEZE_EPS = 1e-15  # masses below this are frozen at zero


def _responsibility(p: np.ndarray, weights: WeightMatrix) -> np.ndarray:
    """(1/n) sum_i w_i(j) / (sum_k p_k w_i(k)), as a count-weighted pattern sum."""
    terms = _positive_terms(p, weights)
    return (weights.dense.T @ (weights.counts / terms)) / weights.n


def em_step(p: np.ndarray, weights: WeightMatrix) -> np.ndarray:
    """p_j <- p_j * (1/n) sum_i w_i(j) / (sum_k p_k w_i(k))."""
    out = p * _responsibility(p, weights)
    out[out < FREEZE_EPS] = 0.0
    return out


def fit_em(
    data: Dataset,
    grid: Grid,
    tol: float = 1e-10,
    max_iter: int = 500_000,
) -> MassFunction:
    """Iterate em_step from the uniform start until the optimality residuals
    (restricted to the surviving support) drop below tol.

    Issues a warning and returns the partial result if max_iter is reached.
    """
    weights = build_weight_matrix(data, grid)
    p = np.full(weights.m, 1.0 / weights.m)
    for _ in range(max_iter):
        ratio = _responsibility(p, weights)
        grad = 1.0 - ratio
        alive = p > 0.0
        if grad[alive].min() >= -tol and abs(p @ grad) <= tol:
            return MassFunction(support=grid.points[alive], probs=p[alive])
        p = p * ratio
        p[p < FREEZE_EPS] = 0.0
    warnings.warn(
        f"self-consistency iteration did not reach tol={tol} in {max_iter} steps; "
        "returning the partial fit",
        RuntimeWarning,
        stacklevel=2,
    )
    alive = p > 0.0
    return MassFunction(support=grid.points[alive], probs=p[alive])
