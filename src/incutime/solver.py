"""Support reduction solver for the day-resolution maximum likelihood problem.

The estimator minimizes, over nonnegative mass vectors p on the grid,

    phi(p) = -(1/n) sum_i log(sum_j p_j w_i(j)) + sum_j p_j - 1,

whose unit-slope linear term acts as a built-in Lagrange multiplier: at the
minimum the masses sum to one without explicit renormalization.  A solution
is certified by the two cone optimality conditions

    (i)  dphi/dp_j >= 0 for every grid point j,
    (ii) sum_j p_j dphi/dp_j = 0,

both enforced at ``SolverConfig.tol``.  Each outer iteration minimizes the
local quadratic expansion of phi over the cone by alternately growing and
shrinking a candidate support set, then takes a backtracking (Armijo) step
toward the subproblem solution.  A fit starts at the uniform vector, and a
bootstrap or Fisher-averaging replicate refit at the point fit's masses,
which give every replicate record a positive term.  Either way the first
inner pass starts from an empty support, so it admits the day with the most
negative model gradient first; a day no record can explain has gradient +1
and is never admitted.  Later passes start from the previous support.  Each
subproblem is solved exactly, so no other first working set could change a
non-degenerate fit.  The likelihood terms sum_j p_j w_i(j) of an iterate are
computed once, where the line search accepts it, and handed on to the
certificate check, the trace row and the next quadratic model.

Identical records give identical terms, so every sum over records is taken
as a count-weighted sum over the distinct records (the rows of the
``WeightMatrix``); the cost of an iteration scales with the number of
distinct records, not with n.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    InfeasiblePointError,
    LineSearchError,
    NonConvergenceError,
    SingularMatrixError,
)
from .linalg import spd_solve
from .model import Dataset, Grid, MassFunction
from .weights import WeightMatrix, build_weight_matrix


ARMIJO_C = 1e-4  # sufficient-decrease constant of the line search
ARMIJO_SHRINK = 0.5  # step shrink factor of the line search
INNER_TOL = 1e-12  # gradient tolerance of the quadratic subproblem


@dataclass(frozen=True)
class SolverConfig:
    """Tunable knobs for the support reduction solver.

    tol:         certificate tolerance for both optimality conditions
    max_outer:   outer iteration cap
    """

    tol: float = 1e-10
    max_outer: int = 500


@dataclass(frozen=True)
class TraceRow:
    iteration: int
    criterion: float
    min_gradient: float
    complementarity: float
    support_size: int


@dataclass
class IterationTrace:
    """Per-outer-iteration progress record."""

    rows: list = field(default_factory=list)
    converged: bool = False
    final_masses: np.ndarray | None = None

    def to_text(self) -> str:
        lines = ["iter,criterion,min_grad,complementarity,support_size"]
        for r in self.rows:
            lines.append(
                f"{r.iteration},{r.criterion:.10f},{r.min_gradient:.10f},"
                f"{r.complementarity:.10f},{r.support_size}"
            )
        return "\n".join(lines) + "\n"

    def write(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(self.to_text())


def _positive_terms(p: np.ndarray, weights: WeightMatrix) -> np.ndarray:
    """sum_j p_j w_i(j) per pattern; raises if any of them vanishes.

    The functions below that take ``terms`` take these terms of their point
    p from a caller that already holds them, and compute them when omitted.
    """
    terms = weights.dense @ p
    bad = np.flatnonzero(terms <= 0.0)
    if bad.size:
        raise InfeasiblePointError(weights.record_of(int(bad[0])))
    return terms


def phi(p: np.ndarray, weights: WeightMatrix, terms=None) -> float:
    """Criterion value; raises if any likelihood term vanishes."""
    if terms is None:
        terms = _positive_terms(p, weights)
    return float(-(weights.counts @ np.log(terms)) / weights.n + p.sum() - 1.0)


def phi_gradient(p: np.ndarray, weights: WeightMatrix, terms=None) -> np.ndarray:
    """dphi/dp_j = 1 - (1/n) sum_i w_i(j) / (sum_k p_k w_i(k))."""
    if terms is None:
        terms = _positive_terms(p, weights)
    return 1.0 - (weights.dense.T @ (weights.counts / terms)) / weights.n


def fenchel_residuals(
    p: np.ndarray, weights: WeightMatrix, terms=None
) -> tuple[float, float]:
    """(min over the full grid of dphi/dp_j, |<p, grad phi>|)."""
    grad = phi_gradient(p, weights, terms)
    return float(grad.min()), float(abs(p @ grad))


class _QuadraticModel:
    """Second-order expansion of phi at p0, shared across one inner pass.

    With d_i = sum_j p0_j w_i(j) the model is Q(p) = (1/2) p'Gp - b'p where
    G_kl = (1/n) sum_i c_i w_i(k) w_i(l) / d_i^2 and
    b_k  = (2/n) sum_i c_i w_i(k) / d_i - 1,
    summed over the distinct records i with counts c_i.
    G is the exact Hessian and grad Q(p0) = grad phi(p0), so minimizing Q
    over the cone is a projected Newton step.
    """

    def __init__(self, weights: WeightMatrix, p0: np.ndarray, terms=None):
        d = _positive_terms(p0, weights) if terms is None else terms
        # rows scaled by sqrt(count) / d_i, so that the count-weighted sums
        # are plain products and the Gram matrix is exactly symmetric
        root = weights.root_counts
        scaled = weights.dense * (root / d)[:, None]
        self.b = 2.0 * (root @ scaled) / weights.n - 1.0
        self.gram = (scaled.T @ scaled) / weights.n

    def solve(self, support: list[int]) -> np.ndarray:
        """Unconstrained normal-equation solve restricted to the support.

        A weight column (over the distinct records) that is a linear
        combination of the support columns before it makes the normal matrix
        singular, and the Cholesky factorization stops at its pivot.  Such a
        column is dropped with zero mass and the rest is solved again.
        """
        idx = np.asarray(support, dtype=int)
        out = np.zeros(len(support))
        kept = np.arange(len(support))
        while True:
            cols = idx[kept]
            try:
                out[kept] = spd_solve(self.gram[np.ix_(cols, cols)], self.b[cols])
                return out
            except SingularMatrixError as exc:
                kept = np.delete(kept, exc.pivot)

    def gradient(self, support: list[int], masses: np.ndarray) -> np.ndarray:
        """Model gradient over the full grid at the embedded support solution."""
        if len(support) == 0:
            return -self.b.copy()
        idx = np.asarray(support, dtype=int)
        return self.gram[:, idx] @ masses - self.b


def _inner_loop(
    model: _QuadraticModel,
    start_support: list[int],
    m: int,
    inner_tol: float,
) -> tuple[np.ndarray, list[int]]:
    """Minimize the quadratic model over the nonnegative cone.

    Alternates between dropping the most negative mass point and adding the
    off-support point with the most negative model gradient, re-solving the
    normal equations after every change.  ``start_support`` holds sorted,
    distinct grid indices: empty on a fit's first pass, the previous pass's
    support after that.
    """
    support = list(start_support)
    masses = model.solve(support)
    just_added: int | None = None
    for _ in range(10 * m + 100):
        while masses.size and masses.min() < 0.0:
            worst = int(np.argmin(masses))
            if support[worst] == just_added:
                # the freshly added point cannot be the one removed in exact
                # arithmetic (the active-set exchange argument for nonnegative
                # least squares), so reaching here means rounding took over
                raise NonConvergenceError(
                    "inner loop attempted to remove the point it just added"
                )
            support.pop(worst)
            masses = model.solve(support) if support else np.empty(0)
        grad = model.gradient(support, masses)
        if support:
            grad = grad.copy()
            grad[np.asarray(support, dtype=int)] = np.inf
        candidate = int(np.argmin(grad))
        if grad[candidate] >= -inner_tol:
            break
        position = int(np.searchsorted(np.asarray(support, dtype=int), candidate))
        support.insert(position, candidate)
        just_added = candidate
        masses = model.solve(support)
    else:
        raise NonConvergenceError("quadratic subproblem did not settle on a support")
    full = np.zeros(m)
    if support:
        full[np.asarray(support, dtype=int)] = masses
    return full, support


def armijo_search(
    p0: np.ndarray,
    p_target: np.ndarray,
    weights: WeightMatrix,
    terms=None,
) -> tuple[np.ndarray, float, np.ndarray, float]:
    """Backtrack along the segment from p0 to p_target until phi decreases enough.

    ``terms`` are p0's likelihood terms.  Returns ``(p, alpha, terms, value)``:
    the accepted iterate, the step length, and the iterate's likelihood terms
    and criterion value, which the caller reuses instead of evaluating them
    again.  Infeasible trial points count as infinite criterion values.
    Gives up below alpha = 1e-15.
    """
    if terms is None:
        terms = _positive_terms(p0, weights)
    base = phi(p0, weights, terms)
    delta = p_target - p0
    if not np.any(delta):
        return p0.copy(), 1.0, terms, base
    slope = float(phi_gradient(p0, weights, terms) @ delta)
    resolution = 8.0 * np.finfo(float).eps * max(1.0, abs(base))
    if ARMIJO_C * abs(slope) <= resolution:
        # the predicted decrease is below the floating point resolution of
        # the criterion, so no backtracking test can verify it; take the
        # full step unless it visibly increases the criterion
        try:
            target_terms = _positive_terms(p_target, weights)
            value = phi(p_target, weights, target_terms)
        except InfeasiblePointError:
            value = np.inf
        if value <= base + resolution:
            return p_target.copy(), 1.0, target_terms, value
    alpha = 1.0
    while alpha >= 1e-15:
        trial = p0 + alpha * delta
        try:
            trial_terms = _positive_terms(trial, weights)
            value = phi(trial, weights, trial_terms)
        except InfeasiblePointError:
            value = np.inf
        if value <= base + ARMIJO_C * alpha * slope:
            return trial, alpha, trial_terms, value
        alpha *= ARMIJO_SHRINK
    raise LineSearchError("no acceptable step length above 1e-15")


def _minimize(
    weights: WeightMatrix, config: SolverConfig, start: np.ndarray | None = None
) -> tuple[np.ndarray, IterationTrace]:
    """Certified minimizer of phi over the cone and the outer iteration trace.

    ``start`` is the first iterate, the uniform vector when omitted; every
    likelihood term must be positive there.  The first inner pass starts
    from an empty support whatever the start.
    """
    m = weights.m
    current = np.full(m, 1.0 / m) if start is None else np.array(start, dtype=float)
    terms = _positive_terms(current, weights)
    support: list[int] = []
    trace = IterationTrace()
    min_grad, comp = fenchel_residuals(current, weights, terms)
    iteration = 0
    while min_grad < -config.tol or comp > config.tol:
        iteration += 1
        if iteration > config.max_outer:
            trace.final_masses = current
            raise NonConvergenceError(
                f"no optimality certificate after {config.max_outer} outer iterations",
                trace=trace,
            )
        model = _QuadraticModel(weights, current, terms)
        target, support = _inner_loop(model, support, m, INNER_TOL)
        try:
            current, _, terms, value = armijo_search(current, target, weights, terms)
        except LineSearchError:
            trace.final_masses = current
            raise NonConvergenceError(
                "line search stalled before reaching the certificate tolerance",
                trace=trace,
            ) from None
        min_grad, comp = fenchel_residuals(current, weights, terms)
        trace.rows.append(
            TraceRow(
                iteration=iteration,
                criterion=value,
                min_gradient=min_grad,
                complementarity=comp,
                support_size=int(np.count_nonzero(current > 0.0)),
            )
        )
    trace.converged = True
    trace.final_masses = current.copy()
    return current, trace


def fit_weights(
    weights: WeightMatrix, config: SolverConfig | None = None
) -> tuple[MassFunction, IterationTrace]:
    """Maximum likelihood masses for the records behind a weight matrix.

    The matrix is the one likelihood representation of a fit: the Wald
    information, Fisher averaging and the bootstrap take the same matrix.
    ``config`` holds the solver tolerances; the defaults certify optimality
    at 1e-10.

    Returns
    -------
    (MassFunction, IterationTrace)
        The fitted masses and the outer iteration trace, which also carries
        the raw converged grid vector in ``final_masses``.

    Raises
    ------
    NonConvergenceError
        If no certificate is reached within ``config.max_outer`` iterations,
        or the quadratic subproblem does not settle.
    """
    masses, trace = _minimize(weights, config or SolverConfig())
    positive = masses > 0.0
    fitted = MassFunction(support=weights.grid.points[positive], probs=masses[positive])
    return fitted, trace


def fit_npmle(
    data: Dataset, grid: Grid, config: SolverConfig | None = None
) -> tuple[MassFunction, IterationTrace]:
    """Maximum likelihood masses for a validated dataset on a grid.

    ``fit_weights`` of ``build_weight_matrix(data, grid)``; raises
    InfeasibleRecordError if some record has zero weight at every grid
    point, and otherwise what ``fit_weights`` raises.
    """
    return fit_weights(build_weight_matrix(data, grid), config)
