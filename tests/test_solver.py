import time
import tracemalloc

import numpy as np
import pytest

import incutime.linalg as linalg_module
from incutime import (
    Dataset,
    Grid,
    NonConvergenceError,
    build_weight_matrix,
    candidate_grid,
    fit_npmle,
    validate_dataset,
)
from incutime.simulate import (
    WEIBULL_A,
    WEIBULL_B,
    ExposureSpec,
    TruthSpec,
    draw_doubly,
    draw_singly,
)
from incutime.linalg import PairProducts
from incutime.solver import (
    _gradients,
    _inner_loop,
    _QuadraticModel,
    armijo_search,
    fenchel_residuals,
    fit_weights,
    phi,
    phi_gradient,
)
from incutime.weights import WeightMatrix


def one_record_weights():
    data = validate_dataset(Dataset.singly([1], [1]))
    return build_weight_matrix(data, Grid(1))


def split_row_weights():
    # one record whose interval covers only the first of two grid points
    data = validate_dataset(Dataset.singly([1], [1]))
    return build_weight_matrix(data, Grid(2))


def two_block_weights():
    # three records supported on day 1 only, one on day 2 only; the maximum
    # likelihood masses are the multinomial proportions (0.75, 0.25)
    dense = np.array([[1.0, 0.0], [1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    return WeightMatrix(dense=dense, grid=Grid(2))


def point_model(W, p, model=_QuadraticModel):
    """The quadratic model of W's own fit at p, a batch of one."""
    return model(
        PairProducts(W.dense),
        (W.dense @ p)[None],
        W.counts[None],
        np.array([float(W.n)]),
        phi_gradient(p, W)[None],
    )


def replicate_model(dense, terms, counts, n):
    """The replicates' quadratic models at their terms, on every column."""
    return _QuadraticModel(
        PairProducts(dense), terms, counts, n, _gradients(terms, counts, n, dense)
    )


def model_solve(model, support):
    solutions, failed = model.solve(np.array([0]), np.array([support]).reshape(1, -1))
    assert not failed
    return solutions[0]


def support_mask(supports, m):
    """The (B, m) mask of B supports given as lists of days."""
    on = np.zeros((len(supports), m), dtype=bool)
    for r, support in enumerate(supports):
        on[r, support] = True
    return on


def inner_loop(model, start_support, m, inner_tol):
    """The batch-of-one inner loop: raises what ends its pass."""
    targets, on, errors = _inner_loop(model, support_mask([start_support], m), inner_tol)
    if errors[0] is not None:
        raise errors[0]
    return targets[0], np.flatnonzero(on[0]).tolist()


def line_search(p0, p_target, W):
    """The batch-of-one line search from p0 on W's own fit."""
    p, alpha, terms, values, stalled = armijo_search(
        p0[None],
        p_target[None],
        W,
        W.counts[None],
        np.array([float(W.n)]),
        (W.dense @ p0)[None],
        phi_gradient(p0, W)[None],
        np.array([phi(p0, W)]),
    )
    assert not stalled[0]
    return p[0], alpha[0], terms[0], values[0]


def test_phi_at_point_mass():
    assert phi(np.array([1.0]), one_record_weights()) == pytest.approx(0.0, abs=1e-15)


def test_phi_split_mass():
    value = phi(np.array([0.5, 0.5]), split_row_weights())
    assert value == pytest.approx(np.log(2.0), abs=1e-12)


def test_phi_gradient_split_mass():
    grad = phi_gradient(np.array([0.5, 0.5]), split_row_weights())
    assert np.allclose(grad, [-1.0, 1.0], atol=1e-12)


def test_phi_gradient_vanishes_for_uniform_all_ones():
    dense = np.ones((5, 4))
    W = WeightMatrix(dense=dense, grid=Grid(4))
    grad = phi_gradient(np.full(4, 0.25), W)
    assert np.allclose(grad, 0.0, atol=1e-14)


def test_fenchel_residuals_split_mass():
    min_grad, comp = fenchel_residuals(np.array([0.5, 0.5]), split_row_weights())
    assert min_grad == pytest.approx(-1.0, abs=1e-12)
    assert comp == pytest.approx(0.0, abs=1e-12)


def test_fenchel_residuals_at_optimum():
    min_grad, comp = fenchel_residuals(np.array([1.0]), one_record_weights())
    assert min_grad == pytest.approx(0.0, abs=1e-15)
    assert comp == pytest.approx(0.0, abs=1e-15)


def test_quadratic_subproblem_unit_denominators():
    W = one_record_weights()
    sol = model_solve(point_model(W, np.array([1.0])), [0])
    assert sol == pytest.approx([1.0], abs=1e-12)


def test_quadratic_subproblem_constant_denominators():
    # with every denominator equal to c the normal equations give 2c - c^2
    W = one_record_weights()
    for c in (0.5, 0.8, 1.5):
        sol = model_solve(point_model(W, np.array([c])), [0])
        assert sol == pytest.approx([2 * c - c * c], abs=1e-12)


def test_inner_loop_reaches_both_blocks():
    # denominators from a lopsided start make the uncovered block's model
    # gradient negative, so the inner loop must add it
    W = two_block_weights()
    model = point_model(W, np.array([0.9, 0.1]))
    target, support = inner_loop(model, [0], W.m, 1e-12)
    assert sorted(support) == [0, 1]
    assert np.all(target >= 0)
    assert target[1] > 0


def test_outer_iterations_converge_to_multinomial_proportions():
    W = two_block_weights()
    from incutime.solver import _minimize

    masses, trace = _minimize(W)
    assert trace.converged
    assert np.allclose(masses, [0.75, 0.25], atol=1e-9)


def replicate_model_inputs():
    """A double-mode weight matrix and five replicates' terms, counts and
    record counts on it; each replicate leaves some rows undrawn."""
    truth = TruthSpec(family="truncexp", a=6.0, m1=15)
    data = draw_doubly(300, truth, ExposureSpec(m2=15), seed=91)
    W = build_weight_matrix(data, candidate_grid(data, m1=15))
    rng = np.random.default_rng(5)
    counts = rng.multinomial(W.n, W.counts / W.n, size=5).astype(float)
    assert (counts == 0.0).any(axis=1).all()
    terms = rng.dirichlet(np.ones(W.m), size=5) @ W.dense.T
    return W.dense, terms, counts, counts.sum(axis=1)


def test_table_and_loop_models_agree(monkeypatch):
    # the table of row products and the per-replicate scaled products give
    # the same models to rounding, and every Gram matrix exactly symmetric
    dense, terms, counts, n = replicate_model_inputs()
    assert PairProducts(dense).table is not None
    table = replicate_model(dense, terms, counts, n)
    monkeypatch.setattr(linalg_module, "TABLE_BYTES", 0)
    assert PairProducts(dense).table is None
    loop = replicate_model(dense, terms, counts, n)
    for model in (table, loop):
        assert np.array_equal(model.gram, model.gram.transpose(0, 2, 1))
    np.testing.assert_allclose(table.gram, loop.gram, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(table.b, loop.b, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("bound", [None, 0], ids=["table", "loop"])
def test_batch_member_model_is_its_batch_of_one(monkeypatch, bound):
    dense, terms, counts, n = replicate_model_inputs()
    if bound is not None:
        monkeypatch.setattr(linalg_module, "TABLE_BYTES", bound)
    assert (PairProducts(dense).table is None) == (bound == 0)
    batch = replicate_model(dense, terms, counts, n)
    for r in range(len(counts)):
        one = slice(r, r + 1)
        alone = replicate_model(dense, terms[one], counts[one], n[one])
        assert np.array_equal(batch.gram[r], alone.gram[0])
        assert np.array_equal(batch.b[r], alone.b[0])


class AddThenRefuseModel(_QuadraticModel):
    """Invites grid point 0 into the support, then gives it negative mass,
    which the active-set exchange rules out in exact arithmetic."""

    def solve(self, reps, supports):
        return np.where(supports == 0, -1.0, 1.0), {}

    def gradient(self, reps, supports, masses):
        grad = np.zeros((len(reps), self.b.shape[1]))
        grad[:, 0] = -1.0
        return grad


def test_inner_loop_refusing_the_added_point_is_a_typed_error():
    W = two_block_weights()
    model = point_model(W, np.array([0.5, 0.5]), AddThenRefuseModel)
    with pytest.raises(NonConvergenceError, match="just added"):
        inner_loop(model, [1], W.m, 1e-12)


def test_only_the_replicate_with_a_dependent_support_column_drops_it(monkeypatch):
    # the three replicates start on both days; the second drew no record
    # on day 2, so its normal matrix alone fails to factor, and only its
    # pass drops day 2; each pass gives the target of its batch of one
    W = two_block_weights()
    counts = np.array([[1.0, 1, 1, 1], [1, 1, 1, 0], [0, 1, 1, 1]])
    terms = np.tile(W.dense @ np.array([0.5, 0.5]), (3, 1))
    model = replicate_model(W.dense, terms, counts, counts.sum(axis=1))
    solve = _QuadraticModel.solve
    failures = []

    def recorded(self, reps, supports):
        solutions, failed = solve(self, reps, supports)
        failures.extend((int(reps[i]), pivot) for i, pivot in failed.items())
        return solutions, failed

    monkeypatch.setattr(_QuadraticModel, "solve", recorded)
    targets, on, errors = _inner_loop(model, support_mask([[0, 1]] * 3, W.m), 1e-12)
    supports = [np.flatnonzero(row).tolist() for row in on]
    assert failures == [(1, 1)]
    assert errors == [None] * 3
    assert supports == [[0, 1], [0], [0, 1]]
    for r in range(3):
        one = slice(r, r + 1)
        alone = replicate_model(
            W.dense, terms[one], counts[one], counts[one].sum(axis=1)
        )
        target, _ = inner_loop(alone, [0, 1], W.m, 1e-12)
        assert np.array_equal(targets[r], target)


def test_batch_whose_passes_take_different_paths_matches_its_batches_of_one(
    monkeypatch,
):
    # day 2's column is day 0's plus day 1's on rows 0 and 1.  Replicate 0
    # draws those rows and starts on days 0 and 1: it adds day 2, finds it
    # dependent and exchanges it for day 1, then drops day 0's negative
    # mass.  Replicate 1 starts on all three days, drops day 2, which its
    # rows make dependent on the others, then day 1's negative mass.
    # Replicate 2 starts on its optimum and settles on its first solve.
    # Replicate 3's model is set by hand: day 2's column is day 0's plus
    # 1e-6 times day 1's, so the support {0, 2} its exchange step leaves is
    # dependent at the pivot tolerance too; that solve drops day 2 at its
    # pivot, and day 2's next add is exchanged for day 0.
    dense = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0], [1.0, 1.0, 0.0]])
    counts = np.array(
        [[2.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 0.0, 1.0], [1.0, 1.0, 1.0]]
    )
    terms = np.tile(dense @ np.array([0.5, 0.5, 0.0]), (4, 1))
    near = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1e-6]])
    starts = support_mask([[0, 1], [0, 1, 2], [0], [0, 1]], 3)

    def model_of(reps):
        model = replicate_model(dense, terms[reps], counts[reps], counts[reps].sum(axis=1))
        for i in np.flatnonzero(reps == 3):
            model.gram[i], model.b[i] = near.T @ near, [0.5, 1e-13, 1.0]
        return model

    solve = _QuadraticModel.solve
    solved, failures = [], []

    def recorded(self, reps, supports):
        solutions, failed = solve(self, reps, supports)
        solved.extend((int(r), support.tolist()) for r, support in zip(reps, supports))
        failures.extend((int(reps[i]), pivot) for i, pivot in failed.items())
        return solutions, failed

    monkeypatch.setattr(_QuadraticModel, "solve", recorded)
    targets, on, errors = _inner_loop(model_of(np.arange(4)), starts, 1e-12)
    paths = [[support for q, support in solved if q == r] for r in range(4)]
    assert paths == [
        [[0, 1], [0, 1, 2], [0, 2], [2]],
        [[0, 1, 2], [0, 1], [0]],
        [[0]],
        [[0, 1], [0, 1, 2], [0, 2], [0], [0, 2], [2]],
    ]
    assert sorted(failures) == [(0, 2), (1, 2), (3, 1), (3, 1), (3, 2)]
    assert errors == [None] * 4
    assert [np.flatnonzero(row).tolist() for row in on] == [[2], [0], [0], [2]]
    for r in range(4):
        alone = model_of(np.array([r]))
        target, on_alone, errors_alone = _inner_loop(alone, starts[r : r + 1], 1e-12)
        assert errors_alone == [None]
        assert np.array_equal(on[r], on_alone[0])
        assert np.array_equal(targets[r], target[0])


class CyclingModel(_QuadraticModel):
    """On three days: the support {j} has a negative model gradient at day
    j + 1 (mod 3), and the support {j, j + 1} a negative mass at day j, so
    a pass adds and drops around the days without settling."""

    def solve(self, reps, supports):
        if supports.shape[1] != 2:
            return np.ones(supports.shape), {}
        low, high = supports[:, 0], supports[:, 1]
        older = np.where(high == low + 1, low, high)
        return np.where(supports == older[:, None], -1.0, 1.0), {}

    def gradient(self, reps, supports, masses):
        grad = np.ones((len(reps), 3))
        if supports.shape[1] == 1:
            grad[np.arange(len(reps)), (supports[:, 0] + 1) % 3] = -1.0
        return grad


def test_inner_loop_that_never_settles_is_a_typed_error():
    W = WeightMatrix(dense=np.eye(3), grid=Grid(3))
    model = point_model(W, np.full(3, 1.0 / 3.0), CyclingModel)
    with pytest.raises(NonConvergenceError, match="did not settle on a support"):
        inner_loop(model, [0], W.m, 1e-12)


def test_inner_loop_solves_through_an_empty_support():
    # the pass starts on day 2, the one kept day with b < 0; its solve gives
    # day 2 a negative mass, so the support empties, and the empty support's
    # solve and gradient (the stacked numpy calls at order 0) bring in day 1
    from incutime.solver import _kept_columns

    data = validate_dataset(Dataset.singly([1, 1, 1, 2], [1, 1, 1, 3]))
    W = build_weight_matrix(data, candidate_grid(data))
    kept = _kept_columns(W.dense, None)
    assert kept.tolist() == [0, 1]
    p0 = np.array([0.05, 0.05, 0.9])
    terms, counts, n = (W.dense @ p0)[None], W.counts[None], np.array([float(W.n)])
    sizes = []

    class SizeRecordingModel(_QuadraticModel):
        def solve(self, reps, supports):
            sizes.append(supports.shape[1])
            return super().solve(reps, supports)

    model = SizeRecordingModel(
        PairProducts(W.dense[:, kept]),
        terms,
        counts,
        n,
        _gradients(terms, counts, n, W.dense)[:, kept],
    )
    start = model.b < 0.0
    assert start.tolist() == [[False, True]]
    targets, on, errors = _inner_loop(model, start, 1e-12)
    assert sizes == [1, 0, 1]
    np.testing.assert_allclose(targets, [[29.0 / 300.0, 0.0]], rtol=1e-12)
    assert on.tolist() == [[True, False]]
    assert errors == [None]


def test_armijo_zero_direction_returns_start():
    W = split_row_weights()
    p0 = np.array([0.5, 0.5])
    p, alpha, terms, value = line_search(p0, p0.copy(), W)
    assert np.array_equal(p, p0)
    assert np.array_equal(terms, W.dense @ p0) and value == phi(p0, W)


def test_armijo_accepts_full_step_on_clean_descent():
    W = split_row_weights()
    p0 = np.array([0.5, 0.5])
    target = np.array([0.9, 0.1])
    p, alpha, _, _ = line_search(p0, target, W)
    assert alpha == 1.0
    assert phi(p, W) < phi(p0, W)


def test_armijo_backtracks_past_infeasible_target():
    # a descent direction overshooting into negative mass: the full step is
    # infeasible and backtracking must settle on a shorter decreasing step
    W = two_block_weights()
    p0 = np.array([0.5, 0.5])
    target = np.array([1.2, -0.2])
    p, alpha, terms, value = line_search(p0, target, W)
    assert alpha < 1.0
    assert phi(p, W) < phi(p0, W)
    # the accepted iterate comes with its own terms and criterion value
    assert np.array_equal(terms, W.dense @ p) and value == phi(p, W)


def test_armijo_batch_rows_are_their_batches_of_one():
    # rows accepted at once, backtracking past an infeasible target, with a
    # zero direction (unverifiable, accepted), and along a direction the
    # gradient at the optimum cannot see (unverifiable, rejected, then
    # backtracking); each row's result is that of its batch of one
    W = two_block_weights()
    optimum = np.array([0.75, 0.25])
    p0 = np.array([[0.5, 0.5], [0.5, 0.5], [0.6, 0.4], optimum])
    targets = np.array([optimum, [1.2, -0.2], [0.6, 0.4], [0.95, 0.05]])
    counts = np.tile(W.counts, (4, 1))
    n = counts.sum(axis=1)
    terms = np.array([W.dense @ p for p in p0])
    grads = np.array([phi_gradient(p, W) for p in p0])
    values = np.array([phi(p, W) for p in p0])
    args = (p0, targets, W, counts, n, terms, grads, values)
    batch = armijo_search(*args)
    assert batch[1][1] < 1.0 and batch[1][3] > 0.0
    for r in range(4):
        one = [a if a is W else a[r : r + 1] for a in args]
        for got, alone in zip(batch, armijo_search(*one)):
            assert np.array_equal(got[r : r + 1], alone)


def test_stalled_line_search_ends_only_its_replicate(monkeypatch):
    # replicate 2's trials all fail from its second line search on; it ends
    # with a stall, its trace holds its first iteration, and the others'
    # masses are those of the run in which it does not stall
    import incutime.solver as solver_module
    from incutime.bootstrap import _replicate_counts

    truth = TruthSpec(family="weibull", a=WEIBULL_A, b=WEIBULL_B, m1=15)
    data = draw_singly(300, truth, ExposureSpec(m2=15), 41)
    W = build_weight_matrix(data, candidate_grid(data, m1=15))
    start, _ = solver_module._minimize(W)
    counts = np.array([_replicate_counts(W, 9, k) for k in range(5)], float)
    unforced, errors, history = solver_module._minimize_batch(W, counts, start)
    assert errors == [None] * 5
    assert len(solver_module._trace(history, 2, None).rows) >= 2
    # the iterate replicate 2 holds after its first iteration
    with monkeypatch.context() as capped_run:
        capped_run.setattr(solver_module, "MAX_OUTER", 1)
        _, capped, _ = solver_module._minimize_batch(W, counts, start)
    first_iterate = capped[2].trace.final_masses

    searches = []
    search = solver_module.armijo_search
    trial = solver_module._trial

    def counted(*args):
        searches.append(len(args[0]))
        return search(*args)

    def failing_for_replicate_2(p, weights, drawn, n):
        trial_terms, values = trial(p, weights, drawn, n)
        if len(searches) >= 2:
            values[(drawn == counts[2]).all(axis=1)] = np.inf
        return trial_terms, values

    monkeypatch.setattr(solver_module, "armijo_search", counted)
    monkeypatch.setattr(solver_module, "_trial", failing_for_replicate_2)
    forced, errors, _ = solver_module._minimize_batch(W, counts, start)
    assert isinstance(errors[2], NonConvergenceError)
    assert "line search stalled" in str(errors[2])
    expected = solver_module._trace(history, 2, None).rows[:1]
    assert errors[2].trace.rows == expected
    assert np.array_equal(errors[2].trace.final_masses, first_iterate)
    for k in (0, 1, 3, 4):
        assert errors[k] is None
        assert np.array_equal(forced[k], unforced[k])


def test_infeasible_line_search_trial_looks_up_no_record(monkeypatch):
    # a full step of this fit's line search leaves a record with no mass;
    # the trial is rejected without scanning the records for its index.  No
    # grid day is dominated, so the first inner pass runs on the full grid
    # and its target leaves day 2 empty
    import incutime.solver as solver_module

    data = validate_dataset(Dataset.singly([1] * 5, [1, 2, 2, 2, 2]))
    W = build_weight_matrix(data, candidate_grid(data))
    assert solver_module._kept_columns(W.dense, None).size == W.m
    record_of = WeightMatrix.record_of
    lookups = []
    values = []

    def counted(self, row):
        lookups.append(row)
        return record_of(self, row)

    trial = solver_module._trial

    def recorded(p, weights, counts, n):
        terms, value = trial(p, weights, counts, n)
        values.extend(value)
        return terms, value

    monkeypatch.setattr(WeightMatrix, "record_of", counted)
    monkeypatch.setattr(solver_module, "_trial", recorded)
    masses, _ = solver_module._minimize(W)
    assert np.inf in values
    assert lookups == []
    np.testing.assert_allclose(masses, [0.2, 0.8], rtol=0, atol=1e-15)


def test_fit_trivial_dataset_converges_without_iterations():
    data = validate_dataset(Dataset.singly([1, 1, 1], [1, 1, 1]))
    grid = candidate_grid(data)
    mass, trace = fit_npmle(data, grid)
    assert np.array_equal(mass.support, [1])
    assert mass.probs[0] == 1.0
    assert trace.converged
    assert trace.rows == []  # uniform start on {1} is already optimal


def _simulated_fit(seed, n=300):
    truth = TruthSpec(family="weibull", a=WEIBULL_A, b=WEIBULL_B, m1=15)
    data = draw_singly(n, truth, ExposureSpec(m2=15), seed)
    grid = candidate_grid(data, m1=15)
    W = build_weight_matrix(data, grid)
    mass, trace = fit_npmle(data, grid)
    return mass, trace, W, grid


def test_fit_monotone_descent_and_certificate():
    mass, trace, W, grid = _simulated_fit(seed=21)
    crits = [row.criterion for row in trace.rows]
    diffs = np.diff(crits)
    assert np.all(diffs[:-1] < 0)
    # the terminating step may move within the floating point resolution of
    # the criterion (the line search accepts it without a verified decrease)
    resolution = 8.0 * np.finfo(float).eps * max(1.0, abs(crits[-1]))
    assert diffs.size == 0 or diffs[-1] <= resolution
    # recompute the optimality certificate from the returned masses
    min_grad, comp = fenchel_residuals(mass.as_vector(grid), W)
    assert min_grad >= -1e-10
    assert comp <= 1e-10


def test_fit_mass_normalization_without_renormalizing():
    _, trace, _, _ = _simulated_fit(seed=22)
    assert abs(trace.final_masses.sum() - 1.0) <= 1e-10


def test_fit_subproblem_fixed_point():
    mass, trace, W, grid = _simulated_fit(seed=23)
    p = trace.final_masses
    support = list(np.flatnonzero(p > 0.0))
    again = model_solve(point_model(W, p), support)
    assert np.allclose(again, p[support], atol=1e-9)


def test_fit_raises_with_trace_on_iteration_cap(monkeypatch):
    import incutime.solver as solver_module

    truth = TruthSpec(family="weibull", a=WEIBULL_A, b=WEIBULL_B, m1=15)
    data = draw_singly(200, truth, ExposureSpec(m2=15), 24)
    grid = candidate_grid(data, m1=15)
    monkeypatch.setattr(solver_module, "MAX_OUTER", 1)
    with pytest.raises(NonConvergenceError) as err:
        fit_npmle(data, grid)
    assert err.value.trace is not None
    assert len(err.value.trace.rows) == 1


def test_trace_serialization_round_trip(tmp_path):
    _, trace, _, _ = _simulated_fit(seed=25)
    path = tmp_path / "trace.txt"
    trace.write(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "iter,criterion,min_grad,complementarity,support_size"
    assert len(lines) == len(trace.rows) + 1


def test_resampled_refits_converge_despite_tiny_predicted_decrease():
    # row-resampled refits can reach points where the Newton step's predicted
    # decrease is smaller than one ulp of the criterion; the line search must
    # accept the step on resolution grounds instead of stalling
    from incutime.bootstrap import bootstrap_ci

    truth = TruthSpec(family="weibull", a=WEIBULL_A, b=WEIBULL_B, m1=15)
    data = draw_singly(1000, truth, ExposureSpec(m2=15), 12345)
    grid = candidate_grid(data, m1=15)
    weights = build_weight_matrix(data, grid)
    table = bootstrap_ci(
        weights, fit_weights(weights)[0], b=300, seed=0, points=(4, 6, 8)
    )
    assert table.metadata["failed"] == 0


@pytest.mark.parametrize(
    "rows",
    [
        [(2, 2, 3), (2, 4, 7)],
        [(2, 4, 8), (5, 1, 5)],
        [(3, 5, 8), (4, 3, 4)],
    ],
    ids=["2,2,3+2,4,7", "2,4,8+5,1,5", "3,5,8+4,3,4"],
)
def test_two_record_double_datasets_with_non_unique_optimum_converge(rows):
    # two distinct records make the likelihood optimum non-unique in p; only
    # the pattern probabilities W @ p are determined, and fit_em reaches them
    from incutime.em import fit_em

    e, s_l, s_r = zip(*rows)
    data = validate_dataset(Dataset.doubly(e, s_l, s_r))
    grid = candidate_grid(data)
    W = build_weight_matrix(data, grid)
    _, trace = fit_npmle(data, grid)
    p = trace.final_masses
    min_grad, comp = fenchel_residuals(p, W)
    assert min_grad >= -1e-10
    assert comp <= 1e-10
    reference = fit_em(data, grid).as_vector(grid)
    np.testing.assert_allclose(W.dense @ p, W.dense @ reference, rtol=0, atol=1e-8)


def _one_window_record_started_on_days_3_and_5():
    # one double-mode record with kernel weights 1, 2, 3, 3, 3, 2, 1 on days
    # 4..10; half the mass on days 3 and 5 gives its term the value 1
    data = validate_dataset(Dataset.doubly([5], [7], [10]))
    W = build_weight_matrix(data, candidate_grid(data, 10))
    start = np.zeros(W.m)
    start[np.searchsorted(W.grid.points, [3, 5])] = 0.5
    return W, start


def test_warm_start_with_an_empty_first_working_set_reaches_the_certificate(
    monkeypatch,
):
    # no fit starts from an empty working set; emptied here by hand, the
    # first inner pass of a warm start still reaches the certificate
    import incutime.solver as solver_module

    W, start = _one_window_record_started_on_days_3_and_5()
    inner_loop = solver_module._inner_loop
    passes = []

    def emptied(model, on, inner_tol):
        if not passes:
            on = np.zeros_like(on)
        passes.append(np.flatnonzero(on[0]).tolist())
        return inner_loop(model, on, inner_tol)

    monkeypatch.setattr(solver_module, "_inner_loop", emptied)
    masses, trace = solver_module._minimize(W, start=start)
    assert passes[0] == []
    assert trace.converged
    min_grad, comp = fenchel_residuals(masses, W)
    assert min_grad >= -1e-10 and comp <= 1e-10
    assert W.dense[0] @ masses == pytest.approx(3.0, abs=1e-9)


def test_point_fit_first_inner_pass_starts_on_every_kept_day(monkeypatch):
    # the uniform start is positive on every day, so the first working set
    # is every kept column; later passes start where the one before ended
    import incutime.solver as solver_module

    _, _, W, _ = _simulated_fit(seed=21)
    kept = solver_module._kept_columns(W.dense, None)
    assert kept.size < W.m
    inner_loop = solver_module._inner_loop
    starts = []

    def recorded(model, on, inner_tol):
        starts.append(on.copy())
        return inner_loop(model, on, inner_tol)

    monkeypatch.setattr(solver_module, "_inner_loop", recorded)
    solver_module._minimize(W)
    assert starts[0].shape == (1, kept.size)
    assert starts[0].all()
    assert len(starts) > 1 and not starts[-1].all()


def test_warm_start_with_its_support_as_first_working_set_reaches_the_certificate():
    # the first inner pass starts on days 3 and 5; day 3's column is zero on
    # the only record, so it must leave the working support instead of
    # staying there with zero mass and a masked gradient
    from incutime.solver import _minimize

    W, start = _one_window_record_started_on_days_3_and_5()
    masses, trace = _minimize(W, start=start)
    assert trace.converged
    min_grad, comp = fenchel_residuals(masses, W)
    assert min_grad >= -1e-10 and comp <= 1e-10
    assert W.dense[0] @ masses == pytest.approx(3.0, abs=1e-9)


def test_refit_whose_added_point_depends_on_the_start_support_converges():
    # the replicate's records make a day added to the seeded support a
    # combination of the support's days; it takes the place of the support
    # day its exchange step picks instead of being refused as just added
    from incutime.bootstrap import _replicate_counts, _replicate_indices
    from incutime.em import fit_em
    from incutime.solver import _minimize, _minimize_batch

    data = validate_dataset(Dataset.doubly([5, 5, 2, 2], [4, 0, 2, 1], [9, 3, 3, 8]))
    grid = candidate_grid(data)
    W = build_weight_matrix(data, grid)
    p_hat, _ = _minimize(W)
    counts = _replicate_counts(W, 1003, 1)
    masses, errors, _ = _minimize_batch(W, counts[None], start=p_hat)
    assert errors == [None]
    idx = _replicate_indices(1003, 1, W.n)
    sub = build_weight_matrix(data.take(idx), grid)
    min_grad, comp = fenchel_residuals(masses[0], sub)
    assert min_grad >= -1e-10 and comp <= 1e-10
    reference = fit_em(data.take(idx), grid).as_vector(grid)
    np.testing.assert_allclose(
        sub.dense @ masses[0], sub.dense @ reference, rtol=0, atol=1e-8
    )


def test_warm_start_mass_on_a_dominated_day_stays_feasible_and_certifies():
    # day 1's column is zero and day 2's lies below day 3's, so neither is
    # kept from the weights alone; the start's mass on day 2 keeps day 2,
    # and the fit moves it to day 3 and certifies on the full grid
    from incutime.solver import _kept_columns, _minimize, _minimize_batch

    data = validate_dataset(Dataset.singly([2, 1], [3, 3]))
    W = build_weight_matrix(data, candidate_grid(data))
    start = np.array([0.0, 0.9, 0.1])
    assert _kept_columns(W.dense, None).tolist() == [2]
    assert _kept_columns(W.dense, start).tolist() == [1, 2]
    masses, trace = _minimize(W, start=start)
    assert trace.converged
    assert masses[:2].tolist() == [0.0, 0.0]
    assert masses[2] == pytest.approx(1.0, abs=1e-10)
    min_grad, comp = fenchel_residuals(masses, W)
    assert min_grad >= -1e-10 and comp <= 1e-10
    counts = np.array([[2.0, 0.0], [1.0, 1.0]])
    batch, errors, _ = _minimize_batch(W, counts, start=start)
    assert errors == [None, None]
    for r in range(2):
        alone, _, _ = _minimize_batch(W, counts[r : r + 1], start=start)
        assert np.array_equal(batch[r], alone[0])


def test_fit_on_a_2000_day_grid_certifies():
    # one late onset stretches the grid to 2,000 days, of which only the
    # undominated ones enter the quadratic models
    from incutime.solver import _kept_columns

    truth = TruthSpec(family="weibull", a=WEIBULL_A, b=WEIBULL_B, m1=15)
    drawn = draw_singly(399, truth, ExposureSpec(m2=15), 31)
    data = validate_dataset(
        Dataset.singly([*drawn.e.tolist(), 1], [*drawn.s.tolist(), 2000])
    )
    grid = candidate_grid(data)
    W = build_weight_matrix(data, grid)
    assert W.m == 2000 and _kept_columns(W.dense, None).size < 50
    mass, trace = fit_npmle(data, grid)
    assert trace.converged
    min_grad, comp = fenchel_residuals(trace.final_masses, W)
    assert min_grad >= -1e-10 and comp <= 1e-10
    assert mass.support[-1] == 2000
    assert mass.probs[-1] == pytest.approx(1 / 400, abs=1e-12)


def test_wide_grid_fit_certifies_in_bounded_time_and_memory(monkeypatch):
    # one-day exposures with onsets uniform over 250 days leave almost every
    # day undominated, so the quadratic models run on about 250 columns.
    # A table of all their pair products would take about 57 MB here; the
    # fit forms its Gram matrices from the scaled columns instead.  The
    # first inner pass starts on every kept day and drops the days the fit
    # does not need, so it takes far fewer solves than adding one day each
    import incutime.solver as solver_module

    rng = np.random.default_rng(0)
    m, n = 250, 1000
    data = validate_dataset(Dataset.singly(np.ones(n, dtype=int), rng.integers(1, m + 1, n)))
    W = build_weight_matrix(data, candidate_grid(data))
    assert W.m == m
    solve = solver_module.spd_solve_stack
    calls = []

    def counted(a, rhs):
        calls.append(len(a))
        return solve(a, rhs)

    monkeypatch.setattr(solver_module, "spd_solve_stack", counted)
    tracemalloc.start()
    try:
        start = time.perf_counter()
        _, trace = fit_weights(W)
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert trace.converged
    min_grad, comp = fenchel_residuals(trace.final_masses, W)
    assert min_grad >= -1e-10 and comp <= 1e-10
    assert elapsed < 60.0
    assert peak < 16 * 2**20
    assert len(calls) <= 100
