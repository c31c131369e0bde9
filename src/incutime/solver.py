"""Support reduction solver for the day-resolution maximum likelihood problem.

The estimator minimizes, over nonnegative mass vectors p on the grid,

    phi(p) = -(1/n) sum_i log(sum_j p_j w_i(j)) + sum_j p_j - 1,

whose unit-slope linear term acts as a built-in Lagrange multiplier: at the
minimum the masses sum to one without explicit renormalization.  A solution
is certified by the two cone optimality conditions

    (i)  dphi/dp_j >= 0 for every grid point j,
    (ii) sum_j p_j dphi/dp_j = 0,

both enforced at ``TOL``.  Each outer iteration minimizes the
local quadratic expansion of phi over the cone by alternately growing and
shrinking a candidate support set, then takes a backtracking (Armijo) step
toward the subproblem solution.  Every fit's first inner pass starts on
its start's positive days among the kept columns (below).  A point fit
starts at the uniform vector, so that pass begins on every kept day and
drops the days it does not need; every weight row has a positive entry
(``WeightMatrix`` checks it), so each record's term is positive there.  A
bootstrap or Fisher-averaging replicate refit starts at the point fit's
masses, which give every record a positive term, and so begins on their
support, which is usually close to the replicate's own.  Later passes
start from the previous support.  The working support is kept linearly
independent, so a support column that a replicate's records make dependent
on the others (or zero) leaves it instead of stalling the active-set rules.
An iterate's likelihood terms sum_j p_j w_i(j), its
criterion value and its gradient are each computed once and handed on to the
certificate check, the trace row, the next quadratic model and the next line
search.

Identical records give identical terms, so every sum over records is taken
as a count-weighted sum over the distinct records (the rows of the
``WeightMatrix``); the cost of an iteration scales with the number of
distinct records, not with n.

The quadratic models, the inner passes and the exchange step run only on
the kept columns of the weight matrix (``_kept_columns``): the days that no
other day dominates, plus the start's positive days.  Some maximizer puts
no mass on a dominated day, and the gradient there is never below that of
the day dominating it, so the certificate, which like the terms, criteria,
gradients and line search trials runs on the full grid, still holds there.

One engine, ``_minimize_batch``, fits a batch of count vectors over the rows
of one matrix in lockstep: every uncertified member advances through each
outer iteration together, and its terms, criterion, gradient, certificate
and line search trials are stacked products.  The members' working
supports are one boolean mask, a row per member over the kept columns,
from the start support to the end of the fit.  Each round of the inner
passes (``_inner_loop``) solves the supports that changed, one stacked
solve per support size, then moves every member's support by one drop or
add, or ends its pass, with a few array operations over the mask.  The
point fit is the batch of one with the matrix's own counts; bootstrap and
Fisher-averaging replicates are larger batches, whose members give 0 to
the rows they did not draw.  The kept columns stay fixed for a fit, so
the table of their row products (``PairProducts``) is built once, and
each model's Gram matrix is one matrix-vector product against it; where
the table would pass ``linalg.TABLE_BYTES`` (a wide grid with most days
kept), each Gram matrix is formed from the scaled columns instead, one
member at a time.  Every stacked product, solve and
factorization runs one member at a time inside numpy, so a member's
arithmetic is that of its batch of one, and a member that fails leaves
the batch, at the top of the next outer iteration, without touching the
others.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import IncutimeError, NonConvergenceError
from .linalg import PairProducts, spd_solve, spd_solve_stack
from .model import Dataset, Grid, MassFunction
from .weights import WeightMatrix, build_weight_matrix


TOL = 1e-10  # certificate tolerance of both optimality conditions
MAX_OUTER = 500  # outer iteration cap
ARMIJO_C = 1e-4  # sufficient-decrease constant of the line search
ARMIJO_SHRINK = 0.5  # step shrink factor of the line search
INNER_TOL = 1e-12  # gradient tolerance of the quadratic subproblem
_TINY = np.nextafter(0.0, 1.0)
_RESOLUTION = 8.0 * np.finfo(float).eps  # relative resolution of a criterion value


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


# The batch functions below take one row per replicate: masses (B, m), and
# terms and counts (B, rows) over the rows of one weight matrix.  Their
# stacked products run one matrix-vector product or dot per replicate, so a
# replicate's arithmetic is that of a batch of one, whatever else the batch
# holds.


def _terms(p: np.ndarray, dense: np.ndarray) -> np.ndarray:
    """Likelihood terms sum_j p_j w_i(j) of every replicate, (B, rows)."""
    return np.matmul(dense, p[:, :, None])[..., 0]


def _dots(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Row-wise inner products."""
    return np.matmul(x[:, None, :], y[:, :, None])[:, 0, 0]


def _drawn_terms(terms: np.ndarray) -> np.ndarray:
    """The terms floored at the least positive double.

    A row a replicate did not draw (count 0) drops out of every
    count-weighted sum, but its term may be zero or negative; the floor
    keeps its log and reciprocal finite, and leaves every positive term
    alone.
    """
    return np.fmax(terms, _TINY)


def _criteria(p, terms, counts, n) -> np.ndarray:
    """phi of every replicate; ``n`` holds the replicates' record counts."""
    logs = _drawn_terms(terms)
    np.log(logs, out=logs)
    return -_dots(counts, logs) / n + p.sum(axis=1) - 1.0


def _gradients(terms, counts, n, dense: np.ndarray) -> np.ndarray:
    """Gradients of phi of every replicate, (B, m)."""
    ratios = _drawn_terms(terms)
    np.divide(counts, ratios, out=ratios)
    return 1.0 - np.matmul(dense.T, ratios[:, :, None])[..., 0] / n[:, None]


def _residuals(p: np.ndarray, grad: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Both certificate residuals of every replicate."""
    return grad.min(axis=1), np.abs(_dots(p, grad))


class _QuadraticModel:
    """Second-order expansions of phi at every replicate's iterate p0,
    shared across one inner pass.

    With d_i = sum_j p0_j w_i(j) a replicate's model is
    Q(p) = (1/2) p'Gp - b'p where
    G_kl = (1/n) sum_i c_i w_i(k) w_i(l) / d_i^2 and
    b_k  = (2/n) sum_i c_i w_i(k) / d_i - 1 = 1 - 2 dphi/dp_k(p0),
    summed over the rows i with the replicate's counts c_i.
    G is the exact Hessian and grad Q(p0) = grad phi(p0), so minimizing Q
    over the cone is a projected Newton step.  The model's days are the
    columns of ``products``, the ``PairProducts`` of the batch's kept
    columns of the weight matrix, which a fit builds once for all its
    models.  ``gram`` stacks the G and ``b`` the b of the replicates, one
    per row of ``terms``; ``grad`` holds p0's gradients on the model's days.
    """

    def __init__(self, products: PairProducts, terms, counts, n, grad):
        self.gram = products.grams(counts, _drawn_terms(terms))
        self.gram /= n[:, None, None]
        self.b = 1.0 - 2.0 * grad
        self._columns = np.arange(grad.shape[1])[:, None]

    def solve(self, reps: np.ndarray, supports: np.ndarray):
        """Unconstrained normal-equation solves restricted to supports.

        Row i of ``supports`` holds the k sorted grid indices of replicate
        ``reps[i]``.  Returns ``(solutions, failed)`` as ``spd_solve_stack``
        does: a weight column (over the drawn rows) that is a linear
        combination of the support columns before it makes its normal
        matrix singular, and ``failed`` maps i to that column's position.
        """
        a = self.gram[reps[:, None, None], supports[:, :, None], supports[:, None, :]]
        return spd_solve_stack(a, self.b[reps[:, None], supports])

    def gradient(self, reps: np.ndarray, supports: np.ndarray, masses: np.ndarray):
        """Model gradients on all the model's days at the support solutions."""
        at_support = self.gram[reps[:, None, None], self._columns, supports[:, None, :]]
        return np.matmul(at_support, masses[:, :, None])[..., 0] - self.b[reps]


def _exchange_position(
    model: _QuadraticModel, r: int, support: np.ndarray, masses: np.ndarray, added: int
) -> int:
    """Position in ``support`` of the point that a dependent added point replaces.

    The added column is a combination c of the support columns, so moving
    the masses along e_added - c leaves every model term alone and changes
    the model at the rate 1 - sum(c) < 0 (the added point's model gradient,
    since the support's vanishes).  The move ends where the first support
    mass reaches zero: the exchange step of active-set nonnegative least
    squares in the degenerate case (Lawson & Hanson, 1974, ch. 23).
    """
    gram = model.gram[r]
    c = spd_solve(gram[np.ix_(support, support)], gram[support, added])
    rising = np.flatnonzero(c > 0.0)
    if not rising.size:
        raise NonConvergenceError(
            "inner loop found no support point to exchange for a dependent one"
        )
    return int(rising[np.argmin(masses[rising] / c[rising])])


def _inner_loop(model: _QuadraticModel, on: np.ndarray, inner_tol: float):
    """Every replicate's minimization of its quadratic model over the cone.

    Row r of the boolean mask ``on`` (B, K) is replicate r's start support
    over the model's K days: the start's positive days on a fit's first
    pass (every day from the uniform start), the previous pass's support
    after that.
    A pass alternates between dropping the most negative mass point and
    adding the off-support point with the most negative model gradient,
    re-solving the normal equations after every change, until no mass is
    negative and no model gradient is below ``-inner_tol``.

    The working support stays linearly independent, as the active-set rules
    need: a column the factorization finds dependent on the columns before
    it leaves the support, so the gradient test can bring it back later,
    and a dependent added point takes the place of the support point its
    exchange step picks.

    The passes advance in rounds.  A round first solves every support that
    changed: the supports of one size share one stacked solve and one
    stacked gradient.  Grouping by size rather than padding the supports to
    one order keeps each replicate's arithmetic that of a batch of one:
    LAPACK blocks a padded matrix differently, which moves the last bits.
    Then every replicate whose solve succeeded takes its next step, a drop,
    an add or the end of its pass, all in the same few array operations.

    Returns ``(targets, on, errors)``: the target masses (B, K), zero off
    the final supports ``on``, and for each replicate the IncutimeError
    that ended its pass, or None.  A failed pass leaves the others alone.
    """
    count, days = on.shape
    on = on.copy()
    masses = np.zeros((count, days))
    errors: list = [None] * count
    pending = np.ones(count, dtype=bool)  # the support changed since its last solve
    grew = np.zeros(count, dtype=bool)  # that change added a point
    added = np.full(count, -1)  # the point each pass added last
    adds = np.zeros(count, dtype=int)  # the points each pass has added
    cap = 10 * days + 100
    changed = np.arange(count)
    while changed.size:
        sizes = on[changed].sum(axis=1)
        for k in np.bincount(sizes).nonzero()[0]:
            rows = changed[sizes == k]
            held = on[rows]
            cols = held.nonzero()[1].reshape(rows.size, k)
            solutions, failed = model.solve(rows, cols)
            for i, pivot in failed.items():
                # a dependent column leaves the support, which is solved
                # again next round; a just grown one loses the point its
                # exchange step picks instead
                r, out = rows[i], cols[i, pivot]
                if grew[r]:
                    before = cols[i][cols[i] != added[r]]
                    try:
                        position = _exchange_position(
                            model, r, before, masses[r, before], added[r]
                        )
                    except IncutimeError as exc:
                        errors[r], pending[r] = exc, False
                        continue
                    out, grew[r] = before[position], False
                on[r, out] = False
            if failed:
                solved = np.ones(rows.size, dtype=bool)
                solved[list(failed)] = False
                rows, held, cols = rows[solved], held[solved], cols[solved]
                solutions = solutions[solved]
            grads = model.gradient(rows, cols, solutions)
            x = np.zeros(held.shape)
            x[held] = solutions.ravel()
            masses[rows] = x
            grads[held] = np.inf
            at = np.arange(rows.size)
            worst, best = x.argmin(axis=1), grads.argmin(axis=1)
            negative = x[at, worst] < 0.0
            # a NaN gradient does not settle a pass
            move = negative | ~(grads[at, best] >= -inner_tol)
            capped = adds[rows] == cap
            refused = negative & (worst == added[rows])
            for i in (capped | refused).nonzero()[0]:
                # the freshly added point cannot be the one removed in exact
                # arithmetic (the active-set exchange argument for
                # nonnegative least squares), so a refusal means rounding
                # took over
                errors[rows[i]] = NonConvergenceError(
                    "quadratic subproblem did not settle on a support"
                    if capped[i]
                    else "inner loop attempted to remove the point it just added"
                )
                move[i] = False
            grow = move & ~negative
            on[rows[move], np.where(negative, worst, best)[move]] = grow[move]
            added[rows[grow]] = best[grow]
            adds[rows] += grow
            grew[rows] = grow
            pending[rows] = move
        changed = pending.nonzero()[0]
    return masses, on, errors


def _trial(p: np.ndarray, weights: WeightMatrix, counts, n):
    """Line search trials' likelihood terms and criterion values.

    A value is infinite when a term of a drawn row vanishes; no error is
    built, so a rejected trial costs no scan of the records.
    """
    terms = _terms(p, weights.dense)
    values = _criteria(p, terms, counts, n)
    vanished = terms <= 0.0
    if np.count_nonzero(vanished):
        values[(vanished & (counts > 0.0)).any(axis=1)] = np.inf
    return terms, values


def armijo_search(p0, p_target, weights: WeightMatrix, counts, n, terms, grad, base):
    """Backtrack along each segment from p0 to p_target until phi decreases enough.

    Every argument but ``weights`` holds one row per replicate: ``terms``
    are p0's likelihood terms, ``grad`` its gradient and ``base`` its
    criterion value.  Returns ``(p, alpha, terms, values, stalled)``: the
    accepted iterates, the step lengths, and the iterates' likelihood terms
    and criterion values, which the caller reuses instead of evaluating
    them again.  Infeasible trial points count as infinite criterion
    values.  A replicate gives up below alpha = 1e-15: it is ``stalled``
    and keeps p0.  The trials of all replicates still searching run
    together.
    """
    delta = p_target - p0
    slope = _dots(grad, delta)
    resolution = _RESOLUTION * np.maximum(1.0, np.abs(base))
    alpha = np.ones(len(p0))
    stalled = np.zeros(len(p0), dtype=bool)
    p = p0 + delta
    bound = base + ARMIJO_C * slope
    # where the predicted decrease is below the floating point resolution of
    # the criterion, no backtracking test can verify it; the full step is
    # tried first and taken unless it visibly increases the criterion, and
    # tried again as an ordinary trial if it does
    unverifiable = ARMIJO_C * np.abs(slope) <= resolution
    if np.count_nonzero(unverifiable):
        p[unverifiable] = p_target[unverifiable]
        bound[unverifiable] = base[unverifiable] + resolution[unverifiable]
    p_terms, values = _trial(p, weights, counts, n)
    rows = (~(values <= bound)).nonzero()[0]
    if not rows.size:
        # the common case: every row takes its first trial, and no array
        # is copied or gathered
        return p, alpha, p_terms, values, stalled
    # the rejected rows go back to p0 in the returned arrays and backtrack
    # from there, a rejected unverifiable step first as an ordinary trial
    # of length 1
    p[rows], p_terms[rows], values[rows] = p0[rows], terms[rows], base[rows]
    step = np.where(unverifiable[rows], 1.0, ARMIJO_SHRINK)
    while rows.size:
        trial = p0[rows] + step[:, None] * delta[rows]
        trial_terms, trial_values = _trial(trial, weights, counts[rows], n[rows])
        accepted = trial_values <= base[rows] + ARMIJO_C * step * slope[rows]
        done = rows[accepted]
        p[done], p_terms[done] = trial[accepted], trial_terms[accepted]
        values[done], alpha[done] = trial_values[accepted], step[accepted]
        rows, step = rows[~accepted], step[~accepted] * ARMIJO_SHRINK
        gave_up = step < 1e-15
        stalled[rows[gave_up]] = True
        rows, step = rows[~gave_up], step[~gave_up]
    return p, alpha, p_terms, values, stalled


def _kept_columns(dense: np.ndarray, start: np.ndarray | None) -> np.ndarray:
    """The grid columns a batch's quadratic models and inner passes run on.

    A column entrywise no larger than another is dominated: moving its mass
    to the other raises no likelihood term, so some maximizer puts none on
    it, and its gradient is never below the other's.  The undominated
    columns are the maximal intersections of Turnbull (1976).  A record's
    weights are unimodal in the day, so a dominated column is no larger
    than its neighbour on that side, or than the nearest column on that
    side that differs from it; of a run of equal columns the first is kept.
    On any matrix, each dropped column lies below a kept one.  Every column
    where ``start`` is positive is kept too, so a warm start stays a point
    of the reduced problem.
    """
    # below[j] / above[j]: column j is entrywise <= / >= column j + 1; a run
    # is compared with its neighbours through its first and last columns
    below = (dense[:, :-1] <= dense[:, 1:]).all(axis=0)
    above = (dense[:, :-1] >= dense[:, 1:]).all(axis=0)
    heads = np.flatnonzero(np.r_[True, ~(below & above)])
    ends = np.r_[heads[1:] - 1, dense.shape[1] - 1]
    dominated = np.r_[False, above][heads] | np.r_[below, False][ends]
    kept = np.zeros(dense.shape[1], dtype=bool)
    kept[heads[~dominated]] = True
    if start is not None:
        kept |= start > 0.0
    return np.flatnonzero(kept)


def _trace(history: list, r: int, final_masses: np.ndarray, converged=False):
    """Replicate r's outer iteration trace from the batch's history."""
    trace = IterationTrace(converged=converged, final_masses=final_masses)
    for iteration, (ids, values, min_grads, comps, sizes) in enumerate(history, 1):
        i = int(np.searchsorted(ids, r))
        if i < ids.size and ids[i] == r:
            trace.rows.append(
                TraceRow(
                    iteration=iteration,
                    criterion=float(values[i]),
                    min_gradient=float(min_grads[i]),
                    complementarity=float(comps[i]),
                    support_size=int(sizes[i]),
                )
            )
    return trace


def _minimize_batch(
    weights: WeightMatrix, counts: np.ndarray, start: np.ndarray | None = None
) -> tuple[np.ndarray, list, list]:
    """Certified minimizers of phi for a batch of replicates, in lockstep.

    Replicate r reweights the rows of ``weights`` by ``counts[r]``, its
    count of records per row; a row it did not draw (count 0) drops out of
    every sum.  Every replicate starts at ``start``, the uniform vector
    when omitted, which gives every row a positive likelihood term; a given
    ``start`` must do so too, as ``refit_replicates`` checks.  The first
    inner pass starts on the start's positive days among the kept columns,
    and each later pass on the support mask the pass before it ended on.
    Each outer iteration builds the quadratic models, runs the inner passes
    and line searches of every uncertified replicate together.  The models
    and inner passes run on the ``_kept_columns`` of the batch, and their
    targets get zero mass on the other days; everything else runs on the
    full grid.

    A replicate leaves the batch only at the top of an outer iteration:
    once certified, or when its inner pass or line search failed in the
    iteration before.  A failed inner pass gets the replicate's iterate as
    its target, so the line search takes a zero step, and a stalled line
    search keeps the iterate.

    Returns ``(masses, errors, history)``: the certified masses (B, m);
    for each replicate the IncutimeError that ended its fit (its row of
    masses is then meaningless), or None; and the per-iteration record
    that ``_trace`` turns into a replicate's trace.  A failed replicate
    leaves the others' arithmetic bit for bit unchanged.
    """
    counts = np.asarray(counts, dtype=float)
    dense = weights.dense
    m = weights.m
    kept = _kept_columns(dense, start)
    products = PairProducts(dense[:, kept])  # the kept columns stay fixed for the fit
    first = np.full(m, 1.0 / m) if start is None else np.asarray(start, dtype=float)
    start_support = first[kept] > 0.0
    masses = np.tile(first, (len(counts), 1))
    errors: list = [None] * len(counts)
    history: list = []

    ids = np.arange(len(counts))
    p = masses.copy()
    terms = _terms(p, dense)
    n = counts.sum(axis=1)
    grad = _gradients(terms, counts, n, dense)
    min_grad, comp = _residuals(p, grad)
    value = _criteria(p, terms, counts, n)
    supports = np.tile(start_support, (ids.size, 1))
    failed = np.zeros(ids.size, dtype=bool)
    iteration = 0
    while True:
        # the one place where replicates leave the batch: those certified,
        # and those that failed in the previous iteration
        leaving = failed | ~((min_grad < -TOL) | (comp > TOL))
        if np.count_nonzero(leaving):
            masses[ids[leaving]] = p[leaving]
            keep = (~leaving).nonzero()[0]
            if not keep.size:
                break
            ids, p, terms, counts, n, grad, value, supports = (
                a[keep] for a in (ids, p, terms, counts, n, grad, value, supports)
            )
        iteration += 1
        if iteration > MAX_OUTER:
            for i, r in enumerate(ids):
                errors[r] = NonConvergenceError(
                    f"no optimality certificate after {MAX_OUTER} outer iterations",
                    trace=_trace(history, r, p[i]),
                )
            break
        model = _QuadraticModel(products, terms, counts, n, grad[:, kept])
        kept_targets, supports, inner_errors = _inner_loop(model, supports, INNER_TOL)
        del model  # B Gram matrices; the next ones are built without them
        targets = np.zeros((len(kept_targets), m))
        targets[:, kept] = kept_targets
        # a failed inner pass targets the current iterate: a zero step
        failed = np.array([error is not None for error in inner_errors])
        for i in failed.nonzero()[0]:
            errors[ids[i]] = inner_errors[i]
            targets[i] = p[i]
        p, _, terms, value, stalled = armijo_search(
            p, targets, weights, counts, n, terms, grad, value
        )
        for i in (stalled & ~failed).nonzero()[0]:
            errors[ids[i]] = NonConvergenceError(
                "line search stalled before reaching the certificate tolerance",
                trace=_trace(history, ids[i], p[i]),
            )
        failed |= stalled
        grad = _gradients(terms, counts, n, dense)
        min_grad, comp = _residuals(p, grad)
        history.append((ids, value, min_grad, comp, (p > 0.0).sum(axis=1)))
    return masses, errors, history


def _minimize(
    weights: WeightMatrix, start: np.ndarray | None = None
) -> tuple[np.ndarray, IterationTrace]:
    """Certified minimizer of phi over the cone and the outer iteration trace.

    The batch of one with the matrix's own counts; raises what ends its
    fit.  ``start`` is as for ``_minimize_batch``.
    """
    masses, errors, history = _minimize_batch(weights, weights.counts[None], start)
    if errors[0] is not None:
        raise errors[0]
    return masses[0], _trace(history, 0, masses[0].copy(), converged=True)


def fit_weights(weights: WeightMatrix) -> tuple[MassFunction, IterationTrace]:
    """Maximum likelihood masses for the records behind a weight matrix.

    The matrix is the one likelihood representation of a fit: the Wald
    information, Fisher averaging and the bootstrap take the same matrix.
    Every fit is certified at ``TOL`` = 1e-10.

    Returns
    -------
    (MassFunction, IterationTrace)
        The fitted masses and the outer iteration trace, which also carries
        the raw converged grid vector in ``final_masses``.

    Raises
    ------
    NonConvergenceError
        If no certificate is reached within ``MAX_OUTER`` iterations, or the
        quadratic subproblem does not settle.
    """
    masses, trace = _minimize(weights)
    positive = masses > 0.0
    fitted = MassFunction(support=weights.grid.points[positive], probs=masses[positive])
    return fitted, trace


def fit_npmle(data: Dataset, grid: Grid) -> tuple[MassFunction, IterationTrace]:
    """Maximum likelihood masses for a validated dataset on a grid.

    ``fit_weights`` of ``build_weight_matrix(data, grid)``; raises
    InfeasibleRecordError if some record has zero weight at every grid
    point, and otherwise what ``fit_weights`` raises.
    """
    return fit_weights(build_weight_matrix(data, grid))
