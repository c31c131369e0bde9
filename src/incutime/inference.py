"""Observed information matrices and Wald-type confidence intervals.

With fitted mass points i_1 < ... < i_l, the free parameters are the masses
at the first l - 1 points (the last one is determined by normalization).
The observed information matrix is inverted and mapped through partial sums
to a covariance for the day CDF values at the mass points; step-function
extension then yields a variance for every day up to the grid's horizon
(``Grid.horizon``: m1 when it is set, else the grid's top day), and Wald
intervals follow after dividing by the sample size.

Everything here consumes the fit's ``WeightMatrix`` and its grid mass
vector: the information matrix is a count-weighted sum over the matrix rows
with the fitted masses in the denominators, so the likelihood terms behind
the intervals are the very ones the solver maximised, and Fisher averaging
resamples the same matrix.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .bootstrap import check_replicate_failures, refit_replicates
from .errors import DegenerateFitError, SingularMatrixError
from .linalg import PairProducts, check_symmetric, spd_invert, spd_solve_stack
from .model import DayCdf, IntervalTable, MassFunction, _check_level_and_days
from .solver import _terms
from .weights import WeightMatrix


@dataclass(frozen=True)
class FisherResult:
    """Observed information pipeline output for one fitted distribution."""

    support: np.ndarray
    variances: np.ndarray
    used_pseudo_inverse: bool = False
    replicates_skipped: int = 0


def observed_fisher(
    weights: WeightMatrix, masses: np.ndarray, support, counts=None
) -> np.ndarray:
    """Count-weighted observed information from weight-matrix columns.

    f_jk = (1/n) sum_i c_i (w_i(j) - w_i(m)) (w_i(k) - w_i(m)) / d_i^2

    over the distinct records i with counts c_i, where j and k run over the
    first l - 1 mass points, m is the last one, w_i is the record's weight
    row (interval indicator in single mode, window kernel in double mode)
    and d_i = sum_t w_i(t) p_t its fitted probability under ``masses``,
    the fitted mass vector over the grid.  ``counts`` replaces the matrix's
    own counts with a replicate's count vector over its rows; the rows the
    replicate did not draw drop out.  The batch of one of ``_informations``.
    """
    counts = weights.counts if counts is None else counts
    products = PairProducts(_centered_columns(weights, support))
    fisher, vanished = _informations(weights, products, masses[None], counts[None])
    bad = vanished[0].nonzero()[0]
    if bad.size:
        raise DegenerateFitError(
            f"record {weights.record_of(int(bad[0]))} has zero fitted probability"
        )
    return fisher[0]


def _centered_columns(weights: WeightMatrix, support) -> np.ndarray:
    """The columns w_i(j) - w_i(m) of the information matrix, (rows, l - 1)."""
    support = np.asarray(support, dtype=int)
    if support.size < 2:
        raise DegenerateFitError("information matrix needs at least 2 mass points")
    if support.min() < 1 or support.max() > weights.m:
        raise ValueError("support days must be grid points")
    at_support = weights.dense[:, support - 1]
    return at_support[:, :-1] - at_support[:, [-1]]


def _informations(
    weights: WeightMatrix, products: PairProducts, masses, counts
) -> tuple[np.ndarray, np.ndarray]:
    """``observed_fisher`` of each row of ``masses`` and ``counts``.

    ``products`` are the ``PairProducts`` of the support's
    ``_centered_columns``.  Returns the matrices (B, l - 1, l - 1) and the
    mask (B, rows) of the drawn rows with zero fitted probability; a
    replicate with one has a meaningless matrix.
    """
    denom = _terms(masses, weights.dense)
    drawn = counts > 0.0
    vanished = drawn & (denom <= 0.0)
    fishers = products.grams(counts, np.where(drawn & ~vanished, denom, 1.0))
    fishers /= counts.sum(axis=1)[:, None, None]
    return fishers, vanished


def averaged_inverse_information(
    weights: WeightMatrix, masses: np.ndarray, b: int, seed
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

    Replicates come from the bootstrap's replicate engine: each one is a
    count vector over the rows of the fit's weight matrix, so no dataset is
    copied and no weight is evaluated twice, and the engine refits them
    together at the solver's one tolerance, starting at ``masses`` with
    their support as the first working set.  The ``PairProducts`` of the
    support's centered columns are built once, and the matrices of each
    batch of refits the engine yields are formed together from them, then
    tested and inverted together, in one ``spd_solve_stack`` against the
    identity.  Each matrix is ``observed_fisher`` of its replicate alone,
    and each inverse that of ``spd_invert`` on it, bit for bit.
    """
    if b < 1:
        raise ValueError("averaging count b must be >= 1")
    products = PairProducts(
        _centered_columns(weights, weights.grid.points[masses > 0.0])
    )
    identity = np.eye(products.columns.shape[1])
    total = None
    used = 0
    skipped = 0
    replicates = refit_replicates(weights, seed, b, masses)
    for counts, refits, ok in replicates:
        fishers, vanished = _informations(weights, products, refits[ok], counts[ok])
        # a replicate with a drawn row at zero fitted probability degenerates
        kept = ~vanished.any(axis=1)
        skipped += int(np.count_nonzero(~ok)) + int(np.count_nonzero(~kept))
        if not kept.any():
            continue
        stack = fishers[kept]
        check_symmetric(stack)
        inverses, failed = spd_solve_stack(stack, np.broadcast_to(identity, stack.shape))
        skipped += len(failed)
        for i, inverse in enumerate(inverses):
            if i not in failed:
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
    fhat: DayCdf, variances: np.ndarray, n: int, points, level: float = 0.95
) -> IntervalTable:
    """Symmetric intervals F(t) +/- z * sqrt(variance_t / n), clipped to [0, 1].

    z is the standard normal quantile at (1 + level) / 2, and ``variances``
    holds one variance a day from day 1.  The unclipped bounds are retained
    on each row as raw_lower/raw_upper.
    """
    days = np.array(_check_level_and_days(level, points, variances.shape[0]), int)
    z = NormalDist().inv_cdf(0.5 + level / 2.0)
    estimates = fhat.value_at(days)
    day_variances = variances[days - 1]
    half = z * np.sqrt(day_variances / n)
    return IntervalTable.from_bounds(
        days,
        estimates,
        estimates - half,
        estimates + half,
        day_variances,
        "wald",
        {"n": n, "level": level},
    )


def fisher_result(
    weights: WeightMatrix, mass: MassFunction, averaging: int | None = None, seed=0
) -> FisherResult:
    """Full pipeline from a fitted mass function to per-day variances.

    ``weights`` is the matrix the masses were fitted on; the variances run
    over days 1..``weights.grid.horizon``.  With ``averaging`` the inverse
    information is averaged over that many resampled refits.
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
            weights, masses, averaging, seed
        )
    variances = extend_variances(
        _partial_sum_covariance(inverse), support, weights.grid.horizon
    )
    return FisherResult(
        support=support,
        variances=variances,
        used_pseudo_inverse=used_pinv,
        replicates_skipped=skipped,
    )
