"""Reference computations that the tests compare the library against.

Nothing here comes from the support reduction solver or its linear algebra.
The criterion, its gradient and the certificate residuals are written out
in numpy from a weight matrix, so a fit's certificate is checked by code
that shares no arithmetic with the engine that produced it.

The self-consistency (EM) iteration fits the same masses by another
algorithm.  One step rescales each mass by the average responsibility it
earns across observations.  The map is monotone in the solver criterion and
converges to the same optimum, only far more slowly, which makes it a
useful correctness oracle for the support reduction solver.
"""

from __future__ import annotations

import warnings

import numpy as np

from incutime.bootstrap import _replicate_indices
from incutime.model import Dataset, Grid, MassFunction
from incutime.weights import WeightMatrix, build_weight_matrix

FREEZE_EPS = 1e-15  # masses below this are frozen at zero


def _terms(p: np.ndarray, weights: WeightMatrix) -> np.ndarray:
    """sum_j p_j w_i(j) per row; raises ValueError if any of them is <= 0."""
    terms = weights.dense @ p
    bad = np.flatnonzero(terms <= 0.0)
    if bad.size:
        record = weights.record_of(int(bad[0]))
        raise ValueError(f"zero likelihood term at record {record}")
    return terms


def _responsibility(p: np.ndarray, weights: WeightMatrix) -> np.ndarray:
    """(1/n) sum_i w_i(j) / (sum_k p_k w_i(k)), as a count-weighted pattern sum."""
    return (weights.dense.T @ (weights.counts / _terms(p, weights))) / weights.n


def phi(p: np.ndarray, weights: WeightMatrix) -> float:
    """-(1/n) sum_i log(sum_j p_j w_i(j)) + sum_j p_j - 1."""
    logs = np.log(_terms(p, weights))
    return float(-(weights.counts @ logs) / weights.n + p.sum() - 1.0)


def phi_gradient(p: np.ndarray, weights: WeightMatrix) -> np.ndarray:
    """dphi/dp_j = 1 - (1/n) sum_i w_i(j) / (sum_k p_k w_i(k))."""
    return 1.0 - _responsibility(p, weights)


def fenchel_residuals(p: np.ndarray, weights: WeightMatrix) -> tuple[float, float]:
    """(min over the grid of dphi/dp_j, |<p, grad phi>|)."""
    grad = phi_gradient(p, weights)
    return float(grad.min()), float(abs(p @ grad))


def resample(data: Dataset, seed, replicate_index: int) -> Dataset:
    """The records that the bootstrap's replicate ``replicate_index`` draws."""
    return data.take(_replicate_indices(seed, replicate_index, data.n))


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
