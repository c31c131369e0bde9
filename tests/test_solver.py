import numpy as np
import pytest

from incutime import (
    Dataset,
    Grid,
    NonConvergenceError,
    SolverConfig,
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
    draw_singly,
)
from incutime.solver import (
    _inner_loop,
    _QuadraticModel,
    armijo_search,
    fenchel_residuals,
    phi,
    phi_gradient,
)
from incutime.weights import WeightMatrix


def one_record_weights():
    data = validate_dataset(Dataset.singly([1], [1]))
    return build_weight_matrix(data, Grid(points=[1]))


def split_row_weights():
    # one record whose interval covers only the first of two grid points
    data = validate_dataset(Dataset.singly([1], [1]))
    return build_weight_matrix(data, Grid(points=[1, 2]))


def two_block_weights():
    # three records supported on day 1 only, one on day 2 only; the maximum
    # likelihood masses are the multinomial proportions (0.75, 0.25)
    dense = np.array([[1.0, 0.0], [1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    return WeightMatrix(dense=dense, grid=Grid(points=[1, 2]))


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
    W = WeightMatrix(dense=dense, grid=Grid(points=np.arange(1, 5)))
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
    sol = _QuadraticModel(W, np.array([1.0])).solve([0])
    assert sol == pytest.approx([1.0], abs=1e-12)


def test_quadratic_subproblem_constant_denominators():
    # with every denominator equal to c the normal equations give 2c - c^2
    W = one_record_weights()
    for c in (0.5, 0.8, 1.5):
        sol = _QuadraticModel(W, np.array([c])).solve([0])
        assert sol == pytest.approx([2 * c - c * c], abs=1e-12)


def test_inner_loop_reaches_both_blocks():
    # denominators from a lopsided start make the uncovered block's model
    # gradient negative, so the inner loop must add it
    W = two_block_weights()
    model = _QuadraticModel(W, np.array([0.9, 0.1]))
    target, support = _inner_loop(model, [0], W.m, 1e-12)
    assert sorted(support) == [0, 1]
    assert np.all(target >= 0)
    assert target[1] > 0


def test_outer_iterations_converge_to_multinomial_proportions():
    W = two_block_weights()
    config = SolverConfig()
    from incutime.solver import _minimize

    masses, trace = _minimize(W, config)
    assert trace.converged
    assert np.allclose(masses, [0.75, 0.25], atol=1e-9)


class AddThenRefuseModel(_QuadraticModel):
    """Invites grid point 0 into the support, then gives it negative mass,
    which the active-set exchange rules out in exact arithmetic."""

    def solve(self, support):
        return np.where(np.asarray(support) == 0, -1.0, 1.0)

    def gradient(self, support, masses):
        grad = np.zeros(self.b.size)
        grad[0] = -1.0
        return grad


def test_inner_loop_refusing_the_added_point_is_a_typed_error():
    W = two_block_weights()
    model = AddThenRefuseModel(W, np.array([0.5, 0.5]))
    with pytest.raises(NonConvergenceError, match="just added"):
        _inner_loop(model, [1], W.m, 1e-12)


def test_armijo_zero_direction_returns_start():
    W = split_row_weights()
    p0 = np.array([0.5, 0.5])
    p, alpha, terms, value = armijo_search(p0, p0.copy(), W)
    assert np.array_equal(p, p0)
    assert np.array_equal(terms, W.dense @ p0) and value == phi(p0, W)


def test_armijo_accepts_full_step_on_clean_descent():
    W = split_row_weights()
    p0 = np.array([0.5, 0.5])
    target = np.array([0.9, 0.1])
    p, alpha, _, _ = armijo_search(p0, target, W)
    assert alpha == 1.0
    assert phi(p, W) < phi(p0, W)


def test_armijo_backtracks_past_infeasible_target():
    # a descent direction overshooting into negative mass: the full step is
    # infeasible and backtracking must settle on a shorter decreasing step
    W = two_block_weights()
    p0 = np.array([0.5, 0.5])
    target = np.array([1.2, -0.2])
    p, alpha, terms, value = armijo_search(p0, target, W)
    assert alpha < 1.0
    assert phi(p, W) < phi(p0, W)
    # the accepted iterate comes with its own terms and criterion value
    assert np.array_equal(terms, W.dense @ p) and value == phi(p, W)


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
    again = _QuadraticModel(W, p).solve(support)
    assert np.allclose(again, p[support], atol=1e-9)


def test_fit_raises_with_trace_on_iteration_cap():
    truth = TruthSpec(family="weibull", a=WEIBULL_A, b=WEIBULL_B, m1=15)
    data = draw_singly(200, truth, ExposureSpec(m2=15), 24)
    grid = candidate_grid(data, m1=15)
    with pytest.raises(NonConvergenceError) as err:
        fit_npmle(data, grid, SolverConfig(max_outer=1))
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
    from incutime.bootstrap import BootstrapConfig, bootstrap_ci

    truth = TruthSpec(family="weibull", a=WEIBULL_A, b=WEIBULL_B, m1=15)
    data = draw_singly(1000, truth, ExposureSpec(m2=15), 12345)
    grid = candidate_grid(data, m1=15)
    table = bootstrap_ci(
        build_weight_matrix(data, grid),
        BootstrapConfig(b=300, seed=0, points=(4, 6, 8)),
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


def test_warm_start_with_an_empty_first_working_set_reaches_the_certificate():
    from incutime.solver import _minimize

    W, start = _one_window_record_started_on_days_3_and_5()
    masses, trace = _minimize(W, SolverConfig(), start=start)
    assert trace.converged
    min_grad, comp = fenchel_residuals(masses, W)
    assert min_grad >= -1e-10 and comp <= 1e-10
    assert W.dense[0] @ masses == pytest.approx(3.0, abs=1e-9)


def test_warm_start_with_its_support_as_first_working_set_stalls(monkeypatch):
    # why a warm start keeps the empty first working set: seeding the first
    # inner pass with the start's support keeps day 3, whose column is zero
    # on the only record, and the fit never certifies
    import incutime.solver as solver_module

    W, start = _one_window_record_started_on_days_3_and_5()
    inner_loop = solver_module._inner_loop
    passes = []

    def seeded(model, start_support, m, inner_tol):
        if not passes:
            start_support = list(np.flatnonzero(start > 0.0))
        passes.append(start_support)
        return inner_loop(model, start_support, m, inner_tol)

    monkeypatch.setattr(solver_module, "_inner_loop", seeded)
    with pytest.raises(NonConvergenceError):
        solver_module._minimize(W, SolverConfig(), start=start)
