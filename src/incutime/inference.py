"""Observed information matrices and Wald-type confidence intervals.

With fitted mass points i_1 < ... < i_l, the free parameters are the masses
at the first l - 1 points (the last one is determined by normalization).
The observed information matrix is inverted and mapped through partial sums
to a covariance for the day CDF values at the mass points; step-function
extension then yields a variance for every day up to m1, and Wald intervals
follow after dividing by the sample size.

Everything here consumes the fit's ``WeightMatrix`` and its grid mass
vector: the information matrix is a count-weighted sum over the matrix rows
with the fitted masses in the denominators, so the likelihood terms behind
the intervals are the very ones the solver maximised, and Fisher averaging
resamples the same matrix.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateFitError, SingularMatrixError
from .linalg import spd_invert
from .model import DayCdf, MassFunction
from .solver import SolverConfig
from .weights import WeightMatrix


@dataclass(frozen=True)
class IntervalRow:
    day: int
    estimate: float
    lower: float
    upper: float
    method: str
    variance: float
    raw_lower: float = None
    raw_upper: float = None

    def __post_init__(self):
        if self.raw_lower is None:
            object.__setattr__(self, "raw_lower", self.lower)
        if self.raw_upper is None:
            object.__setattr__(self, "raw_upper", self.upper)


@dataclass
class IntervalTable:
    """Per-day point estimates with confidence bounds and method metadata."""

    rows: list
    metadata: dict = field(default_factory=dict)

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(
                ["day", "estimate", "lower", "upper", "method", "variance"]
            )
            for r in self.rows:
                writer.writerow(
                    [
                        r.day,
                        f"{r.estimate:.12g}",
                        f"{r.lower:.12g}",
                        f"{r.upper:.12g}",
                        r.method,
                        f"{r.variance:.12g}",
                    ]
                )


@dataclass(frozen=True)
class FisherResult:
    """Observed information pipeline output for one fitted distribution."""

    support: np.ndarray
    variances: np.ndarray
    used_pseudo_inverse: bool = False
    replicates_skipped: int = 0


def observed_fisher(
    weights: WeightMatrix, masses: np.ndarray, support
) -> np.ndarray:
    """Count-weighted observed information from weight-matrix columns.

    f_jk = (1/n) sum_i c_i (w_i(j) - w_i(m)) (w_i(k) - w_i(m)) / d_i^2

    over the distinct records i with counts c_i, where j and k run over the
    first l - 1 mass points, m is the last one, w_i is the record's weight
    row (interval indicator in single mode, window kernel in double mode)
    and d_i = sum_t w_i(t) p_t its fitted probability under ``masses``,
    the fitted mass vector over the grid.
    """
    support = np.asarray(support, dtype=int)
    if support.size < 2:
        raise DegenerateFitError("information matrix needs at least 2 mass points")
    points = weights.grid.points
    if not np.isin(support, points).all():
        raise ValueError("support days must be grid points")
    cols = np.searchsorted(points, support)
    denom = weights.dense @ masses
    bad = np.flatnonzero(denom <= 0.0)
    if bad.size:
        raise DegenerateFitError(
            f"record {weights.record_of(int(bad[0]))} has zero fitted probability"
        )
    at_support = weights.dense[:, cols]
    centered = (at_support[:, :-1] - at_support[:, [-1]]) * (
        weights.root_counts / denom
    )[:, None]
    fisher = (centered.T @ centered) / weights.n
    return 0.5 * (fisher + fisher.T)


def averaged_inverse_information(
    weights: WeightMatrix,
    solver_config: SolverConfig,
    masses: np.ndarray,
    b: int,
    seed,
) -> tuple[np.ndarray, int]:
    """Mean inverse observed information over resampled-and-refitted datasets.

    ``masses`` is the point fit's grid mass vector.  Each replicate resamples
    the records, refits the masses, evaluates the observed information on the
    point fit's support with the replicate's own fit in the denominators, and
    inverts it.  The inverses are averaged, not the matrices: a mean of
    inverses dominates the inverse of the mean, and that inflation is what
    widens the intervals relative to the single-sample matrix (averaging the
    matrices reproduces the single-sample variances almost exactly and gains
    nothing).  Replicates whose refit fails, degenerates, or yields a
    singular matrix are skipped and counted; more than 10 percent of them
    skipped raises BootstrapFailureError, the bootstrap's policy.  Averaging
    over b = 1 reproduces the inverse of the plain matrix of that single
    resample.

    Replicates come from the bootstrap's replicate engine: each one reweights
    the rows of the fit's weight matrix, so no dataset is copied and no
    weight is evaluated twice, and refits them starting at ``masses`` with
    an empty first working set.
    """
    from .bootstrap import check_replicate_failures, refit_replicates

    if b < 1:
        raise ValueError("averaging count b must be >= 1")
    support = weights.grid.points[masses > 0.0]
    total = None
    used = 0
    skipped = 0
    for result in refit_replicates(weights, seed, b, solver_config, masses):
        if result is None:
            skipped += 1
            continue
        sub, refit = result
        try:
            fisher = observed_fisher(sub, refit, support)
            inverse = spd_invert(fisher)
        except (DegenerateFitError, SingularMatrixError):
            skipped += 1
            continue
        total = inverse if total is None else total + inverse
        used += 1
    check_replicate_failures(skipped, b, "Fisher averaging replicates were skipped")
    return total / used, skipped


def _invert_information(fisher: np.ndarray) -> tuple[np.ndarray, bool]:
    try:
        return spd_invert(fisher), False
    except SingularMatrixError as exc:
        warnings.warn(
            f"observed information matrix is numerically singular ({exc}); "
            "falling back to a pseudo-inverse. Bootstrap intervals are more "
            "reliable for this fit.",
            RuntimeWarning,
            stacklevel=3,
        )
        return np.linalg.pinv(fisher), True


def _partial_sum_covariance(inverse: np.ndarray) -> np.ndarray:
    """A F^{-1} A' with A the lower-triangular all-ones partial sum matrix."""
    ones = np.tril(np.ones_like(inverse))
    return ones @ inverse @ ones.T


def cdf_covariance(fisher: np.ndarray) -> np.ndarray:
    """Covariance of the day CDF at the mass points from the information."""
    return _partial_sum_covariance(_invert_information(fisher)[0])


def extend_variances(
    cdf_cov: np.ndarray, support: np.ndarray, m1: int
) -> np.ndarray:
    """Step-function extension of the mass point variances to days 1..m1.

    Days before the first mass point and from the last mass point onward get
    variance 0 (the fitted day CDF is exactly 0 or 1 there); any other day
    inherits the variance of the nearest mass point at or below it.
    """
    support = np.asarray(support, dtype=int)
    diag = np.diag(cdf_cov)
    if diag.size != support.size - 1:
        raise ValueError("covariance order must be one less than the support size")
    out = np.zeros(m1)
    for j in range(support.size - 1):
        lo = support[j]
        hi = min(int(support[j + 1]), m1 + 1)
        if lo <= m1:
            out[lo - 1 : hi - 1] = diag[j]
    return out


def wald_intervals(
    fhat: DayCdf,
    variances: np.ndarray,
    n: int,
    points,
    level: float = 0.95,
    method: str = "wald",
) -> IntervalTable:
    """Symmetric intervals F(t) +/- z * sqrt(variance_t / n), clipped to [0, 1].

    z is the standard normal quantile at (1 + level) / 2.  The unclipped
    bounds are retained on each row as raw_lower/raw_upper.
    """
    # imported here to keep scipy.special out of every command's start-up
    from scipy.special import ndtri

    if not 0.0 < level < 1.0:
        raise ValueError("level must be in (0, 1)")
    z = float(ndtri(0.5 + level / 2.0))
    points = list(points)
    m1 = variances.shape[0]
    rows = []
    for day in points:
        day = int(day)
        if day < 1 or day > m1:
            raise ValueError(f"evaluation day {day} outside 1..{m1}")
        est = fhat.value(day)
        var = float(variances[day - 1])
        half = z * np.sqrt(var / n)
        raw_lo, raw_hi = est - half, est + half
        rows.append(
            IntervalRow(
                day=day,
                estimate=est,
                lower=max(raw_lo, 0.0),
                upper=min(raw_hi, 1.0),
                method=method,
                variance=var,
                raw_lower=raw_lo,
                raw_upper=raw_hi,
            )
        )
    return IntervalTable(rows=rows, metadata={"n": n, "level": level})


def fisher_result(
    weights: WeightMatrix,
    mass: MassFunction,
    m1: int,
    averaging: int | None = None,
    solver_config: SolverConfig | None = None,
    seed=0,
) -> FisherResult:
    """Full pipeline from a fitted mass function to per-day variances.

    ``weights`` is the matrix the masses were fitted on.  With ``averaging``
    the inverse information is averaged over that many resampled refits.
    """
    support = mass.support
    if support.size < 2:
        raise DegenerateFitError(
            "variance estimation needs at least 2 fitted mass points"
        )
    skipped = 0
    used_pinv = False
    masses = mass.as_vector(weights.grid)
    if averaging is None:
        fisher = observed_fisher(weights, masses, support)
        inverse, used_pinv = _invert_information(fisher)
    else:
        inverse, skipped = averaged_inverse_information(
            weights, solver_config or SolverConfig(), masses, averaging, seed
        )
    variances = extend_variances(_partial_sum_covariance(inverse), support, m1)
    return FisherResult(
        support=support,
        variances=variances,
        used_pseudo_inverse=used_pinv,
        replicates_skipped=skipped,
    )
