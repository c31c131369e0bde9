"""Nonparametric bootstrap confidence intervals for the day CDF.

Records are resampled with replacement, the estimator is refitted on each
replicate, and percentile intervals are built from the replicate deltas
F*_b(t) - F_hat(t): the level-alpha interval at day t is

    [F_hat(t) - q_{1-alpha/2}(deltas), F_hat(t) - q_{alpha/2}(deltas)].

A resample is a multinomial reweighting of the records (Efron & Tibshirani,
1993), so a replicate never materializes a dataset: its drawn record indices
are reduced to counts over the distinct-record rows of the fit's weight
matrix, and the refit runs on the rows that occur.  Those rows are a subset
of the fit's, so the point fit's masses give every one of them a positive
term, and each refit starts there (with an empty first working set) instead
of at the uniform vector: it needs fewer outer iterations to reach the same
certificate.  ``refit_replicates`` is the one replicate engine behind both
the bootstrap and Fisher averaging, and ``check_replicate_failures`` their
one failure policy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BootstrapFailureError, IncutimeError
from .inference import IntervalRow, IntervalTable
from .model import Dataset, cdf_from_mass
from .solver import SolverConfig, _minimize, fit_weights
from .weights import WeightMatrix


@dataclass(frozen=True)
class BootstrapConfig:
    b: int = 1000
    seed: int = 0
    points: tuple = None

    def __post_init__(self):
        if self.b < 2:
            raise ValueError("bootstrap needs at least 2 replicates")


def _replicate_rng(seed, replicate_index: int) -> np.random.Generator:
    # Child streams keyed on (seed, index) so replicates are independent and
    # any single one can be reproduced in isolation.
    if isinstance(seed, (tuple, list)):
        return np.random.default_rng([*seed, replicate_index])
    return np.random.default_rng([seed, replicate_index])


def _replicate_indices(seed, replicate_index: int, n: int) -> np.ndarray:
    return _replicate_rng(seed, replicate_index).integers(0, n, size=n)


def resample(data: Dataset, seed, replicate_index: int) -> Dataset:
    return data.take(_replicate_indices(seed, replicate_index, data.n))


def _refit_rows(
    W: WeightMatrix, idx: np.ndarray, config: SolverConfig, start: np.ndarray
) -> tuple[WeightMatrix, np.ndarray]:
    """Refit on the records idx from the grid masses start.

    Returns the records' weight matrix and the fitted grid masses.
    """
    sub = W.take(idx)
    masses, _ = _minimize(sub, config, start)
    return sub, masses


def refit_replicates(
    W: WeightMatrix, seed, b: int, config: SolverConfig, start: np.ndarray
):
    """Refit b bootstrap resamples of the records behind W.

    Replicate k draws the records of ``resample(data, seed, k)``, and its
    refit starts at ``start``, the point fit's grid masses.  Returns an
    iterator that yields, in replicate order, ``(sub, masses)`` with the
    replicate's weight matrix and fitted grid masses, or None when the refit
    raises any IncutimeError; the caller decides how many failures it
    tolerates.

    Raises ValueError, before any replicate is drawn, when ``start`` gives
    some record of W a zero likelihood term: every refit would fail there.
    """
    bad = np.flatnonzero(W.dense @ start <= 0.0)
    if bad.size:
        raise ValueError(
            f"start masses give record {W.record_of(int(bad[0]))} zero probability"
        )

    def refits():
        for k in range(b):
            idx = _replicate_indices(seed, k, W.n)
            try:
                result = _refit_rows(W, idx, config, start)
            except IncutimeError:
                result = None
            yield result

    return refits()


def check_replicate_failures(failed: int, total: int, what: str) -> None:
    """Raise BootstrapFailureError when more than 10 percent of replicates failed.

    ``what`` completes the message "<failed> of <total> ...".
    """
    if failed > 0.1 * total:
        raise BootstrapFailureError(
            f"{failed} of {total} {what}", failed=failed, total=total
        )


def bootstrap_ci(
    weights: WeightMatrix,
    config: BootstrapConfig,
    solver_config: SolverConfig | None = None,
    level: float = 0.95,
    mass=None,
) -> IntervalTable:
    """Percentile bootstrap intervals at the requested days.

    ``weights`` is the fit's matrix; the point estimate is refitted from it
    when ``mass`` is omitted.  Every replicate refit starts at the point
    estimate's masses, so a supplied ``mass`` must give every record a
    positive probability (ValueError otherwise).  Raises
    BootstrapFailureError when more than 10 percent of replicates fail to
    refit; failures below that threshold are dropped from the quantiles.
    """
    if not 0.0 < level < 1.0:
        raise ValueError("level must be in (0, 1)")
    solver_config = solver_config or SolverConfig()
    grid = weights.grid
    if mass is None:
        mass, _ = fit_weights(weights, solver_config)
    fhat = cdf_from_mass(mass, grid)
    m1 = grid.m1 if grid.m1 is not None else int(grid.points[-1])
    points = config.points if config.points is not None else range(1, m1 + 1)
    points = [int(p) for p in points]
    for day in points:
        if day < 1 or day > m1:
            raise ValueError(f"evaluation day {day} outside 1..{m1}")

    estimates = np.array([fhat.value(d) for d in points])
    # grid point j covers days grid.points[j] ..; value at day d is the
    # partial sum over grid points <= d.
    below = np.searchsorted(grid.points, points, side="right")
    deltas = np.empty((config.b, len(points)))
    failed = 0
    kept = 0
    replicates = refit_replicates(
        weights, config.seed, config.b, solver_config, mass.as_vector(grid)
    )
    for result in replicates:
        if result is None:
            failed += 1
            continue
        _, probs = result
        rep_cdf = np.minimum(np.cumsum(probs), 1.0)
        rep_values = np.where(below > 0, rep_cdf[np.maximum(below - 1, 0)], 0.0)
        deltas[kept] = rep_values - estimates
        kept += 1
    check_replicate_failures(failed, config.b, "bootstrap replicates failed to refit")
    deltas = deltas[:kept]
    alpha = 1.0 - level
    lo_q = np.quantile(deltas, alpha / 2.0, axis=0)
    hi_q = np.quantile(deltas, 1.0 - alpha / 2.0, axis=0)
    variances = weights.n * np.var(deltas, axis=0, ddof=1)
    rows = []
    for j, day in enumerate(points):
        rows.append(
            IntervalRow(
                day=day,
                estimate=float(estimates[j]),
                lower=max(float(estimates[j] - hi_q[j]), 0.0),
                upper=min(float(estimates[j] - lo_q[j]), 1.0),
                method="bootstrap",
                variance=float(variances[j]),
                raw_lower=float(estimates[j] - hi_q[j]),
                raw_upper=float(estimates[j] - lo_q[j]),
            )
        )
    return IntervalTable(
        rows=rows,
        metadata={
            "n": weights.n,
            "level": level,
            "replicates": config.b,
            "failed": failed,
        },
    )
