"""Nonparametric bootstrap confidence intervals for the day CDF.

Records are resampled with replacement, the estimator is refitted on each
replicate, and percentile intervals are built from the replicate deltas
F*_b(t) - F_hat(t): the level-alpha interval at day t is

    [F_hat(t) - q_{1-alpha/2}(deltas), F_hat(t) - q_{alpha/2}(deltas)].

A resample is a multinomial reweighting of the records (Efron & Tibshirani,
1993), so a replicate never materializes a dataset: its drawn record indices
are reduced to a count vector over the rows of the fit's weight matrix, 0
on every row it did not draw.  The replicates are refitted together, up to
``BATCH_CAP`` at a time, by the solver's lockstep engine, which drops a
zero-count row out of every sum; ``refit_replicates`` is the one place
that splits them into batches, and its callers take one batch at a time.
Every row a replicate draws is a row of the fit's, so the point fit's
masses give it a positive term, and each refit starts there, with their
support as its first working set, instead of at the uniform vector: it
needs fewer outer iterations and fewer normal-equation solves to reach the
same certificate.
``refit_replicates`` is the one replicate engine behind both the bootstrap
and Fisher averaging, certifying every refit at the solver's one tolerance
as the point fit does, and ``check_replicate_failures`` their one failure
policy.  ``bootstrap_ci`` takes the point fit and its weight matrix, as
``fisher_result`` does, and never fits one itself.  The interval rows are
built by ``IntervalTable.from_bounds``, as the Wald rows are, so this
module needs nothing from ``inference``, which imports the engine from
here.
"""

from __future__ import annotations

import numpy as np

from .errors import BootstrapFailureError
from .model import IntervalTable, MassFunction, _check_level_and_days, cdf_from_mass
from .solver import _minimize_batch
from .weights import WeightMatrix


def _replicate_rng(seed, replicate_index: int) -> np.random.Generator:
    # Child streams keyed on (seed, index) so replicates are independent and
    # any single one can be reproduced in isolation.
    if isinstance(seed, (tuple, list)):
        return np.random.default_rng([*seed, replicate_index])
    return np.random.default_rng([seed, replicate_index])


def _replicate_indices(seed, replicate_index: int, n: int) -> np.ndarray:
    return _replicate_rng(seed, replicate_index).integers(0, n, size=n)


# Replicates refitted in one batch.  The batch's arrays grow with it (B x rows
# counts and terms, B x m x m model matrices), so the cap bounds memory at
# any replicate count.
BATCH_CAP = 256


def _replicate_counts(W: WeightMatrix, seed, replicate_index: int) -> np.ndarray:
    """Replicate's count of drawn records on each row of W."""
    drawn = W.record_rows[_replicate_indices(seed, replicate_index, W.n)]
    return np.bincount(drawn, minlength=W.dense.shape[0])


def refit_replicates(W: WeightMatrix, seed, b: int, start: np.ndarray):
    """Refit b bootstrap resamples of the records behind W.

    Replicate k draws the records ``_replicate_indices(seed, k, W.n)``, and
    its refit starts at ``start``, the point fit's grid masses.  Returns an
    iterator over the batches of at most ``BATCH_CAP`` replicates, in
    replicate order.  Each yields ``(counts, masses, ok)``: the replicates'
    count vectors over the rows of W (B, rows), their fitted grid masses
    (B, m), and (B,) whether each refit succeeded.  A replicate whose refit
    raised any IncutimeError has ``ok`` False and meaningless masses; the
    caller decides how many failures it tolerates.  A failed replicate
    leaves the others unchanged.

    Raises ValueError, before any replicate is drawn, when ``start`` gives
    some record of W a zero likelihood term: every refit would fail there.
    """
    bad = np.flatnonzero(W.dense @ start <= 0.0)
    if bad.size:
        raise ValueError(
            f"start masses give record {W.record_of(int(bad[0]))} zero probability"
        )

    def refits():
        for first in range(0, b, BATCH_CAP):
            batch = range(first, min(b, first + BATCH_CAP))
            counts = np.array([_replicate_counts(W, seed, k) for k in batch], float)
            masses, errors, _ = _minimize_batch(W, counts, start)
            yield counts, masses, np.array([error is None for error in errors])

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
    weights: WeightMatrix, mass: MassFunction, b: int, seed=0, points=None, level=0.95
) -> IntervalTable:
    """Percentile bootstrap intervals from ``b`` replicates at the requested days.

    ``weights`` is the matrix the point estimate ``mass`` was fitted on;
    the days default to 1..the grid's horizon.  ``b`` (at least 2), the
    level and the days are checked before any replicate is drawn.  Every
    replicate refit starts at the point estimate's masses, so ``mass`` must
    give every record a positive probability (ValueError otherwise).
    Raises BootstrapFailureError when more than 10 percent of replicates
    fail to refit; failures below that threshold are dropped from the
    quantiles.
    """
    if b < 2:
        raise ValueError("bootstrap needs at least 2 replicates")
    grid = weights.grid
    horizon = grid.horizon
    if points is None:
        points = range(1, horizon + 1)
    days = np.array(_check_level_and_days(level, points, horizon), int)
    estimates = cdf_from_mass(mass, grid).value_at(days)
    deltas = []
    failed = 0
    for _, probs, ok in refit_replicates(weights, seed, b, mass.as_vector(grid)):
        failed += int(np.count_nonzero(~ok))
        rep_cdf = np.minimum(np.cumsum(probs[ok], axis=1), 1.0)
        deltas.append(rep_cdf[:, days - 1] - estimates)
    check_replicate_failures(failed, b, "bootstrap replicates failed to refit")
    deltas = np.concatenate(deltas)
    alpha = 1.0 - level
    lo_q = np.quantile(deltas, alpha / 2.0, axis=0)
    hi_q = np.quantile(deltas, 1.0 - alpha / 2.0, axis=0)
    return IntervalTable.from_bounds(
        days,
        estimates,
        estimates - hi_q,
        estimates - lo_q,
        weights.n * np.var(deltas, axis=0, ddof=1),
        "bootstrap",
        {"n": weights.n, "level": level, "replicates": b, "failed": failed},
    )
