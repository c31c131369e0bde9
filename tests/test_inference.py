import numpy as np
import pytest

from incutime import (
    BootstrapFailureError,
    Dataset,
    DayCdf,
    DegenerateFitError,
    FisherResult,
    Grid,
    MassFunction,
    NonConvergenceError,
    SingularMatrixError,
    build_weight_matrix,
    candidate_grid,
    extend_variances,
    fisher_result,
    fit_npmle,
    observed_fisher,
    validate_dataset,
    wald_intervals,
)
from incutime.bootstrap import bootstrap_ci
from incutime.inference import (
    _invert_information,
    _partial_sum_covariance,
    averaged_inverse_information,
)
from incutime.linalg import spd_invert
from incutime.solver import _inner_loop, _minimize
from incutime.simulate import ExposureSpec, TruthSpec, draw_doubly, draw_singly

from oracle import resample


def day_weights(data, masses):
    """The weight matrix of the records over days 1..len(masses)."""
    return build_weight_matrix(data, Grid(len(masses)))


def test_observed_fisher_singly_two_point_toy():
    # two disjoint one-day records with masses (0.5, 0.5): both contribute
    # 1/0.25, so f_11 = 4 and the implied variance 1/f_11 is binomial p(1-p)
    data = validate_dataset(Dataset.singly([1, 1], [1, 2]))
    masses = np.array([0.5, 0.5])
    fisher = observed_fisher(day_weights(data, masses), masses, np.array([1, 2]))
    assert fisher.shape == (1, 1)
    assert fisher[0, 0] == pytest.approx(4.0, abs=1e-12)
    assert 1.0 / fisher[0, 0] == pytest.approx(0.25, abs=1e-12)


def test_observed_fisher_singly_rejects_zero_fitted_probability():
    data = validate_dataset(Dataset.singly([1, 1], [1, 3]))
    masses = np.array([0.5, 0.5, 0.0])  # record at day 3 has zero fitted mass
    with pytest.raises(DegenerateFitError):
        observed_fisher(day_weights(data, masses), masses, np.array([1, 2]))


def test_observed_fisher_singly_needs_two_mass_points():
    data = validate_dataset(Dataset.singly([1], [1]))
    masses = np.array([1.0])
    with pytest.raises(DegenerateFitError):
        observed_fisher(day_weights(data, masses), masses, np.array([1]))


def test_observed_fisher_doubly_matches_singly_structure():
    # one-day windows at days 1 and 2 with e=1 put unit kernel weight on
    # those days, reproducing the disjoint-indicator toy above
    data = validate_dataset(Dataset.doubly([1, 1], [0, 1], [1, 2]))
    masses = np.array([0.5, 0.5])
    fisher = observed_fisher(day_weights(data, masses), masses, np.array([1, 2]))
    assert fisher[0, 0] == pytest.approx(4.0, abs=1e-12)


def test_observed_fisher_doubly_hand_computed_three_records():
    # kernel rows on days 1..3 are (1,0,0), (0,1,0) and (1,1,1); the third row
    # is centered away entirely, leaving a diagonal matrix
    data = validate_dataset(Dataset.doubly([1, 1, 1], [0, 1, 0], [1, 2, 3]))
    masses = MassFunction([1, 2, 3], [0.5, 0.3, 0.2]).as_vector(Grid(3))
    fisher = observed_fisher(day_weights(data, masses), masses, np.array([1, 2, 3]))
    expected = np.array([[4.0 / 3.0, 0.0], [0.0, 100.0 / 27.0]])
    assert np.allclose(fisher, expected, atol=1e-12)


def test_observed_fisher_symmetric_psd_on_simulated_fit():
    truth = TruthSpec(family="truncexp", a=6.0, m1=15)
    data = draw_singly(400, truth, ExposureSpec(m2=15), seed=61)
    grid = candidate_grid(data, m1=15)
    weights = build_weight_matrix(data, grid)
    mass, _ = fit_npmle(data, grid)
    fisher = observed_fisher(weights, mass.as_vector(grid), mass.support)
    assert np.allclose(fisher, fisher.T, atol=1e-12)
    assert np.linalg.eigvalsh(fisher).min() >= -1e-9


def test_averaged_single_replicate_equals_inverse_of_that_resample():
    truth = TruthSpec(family="truncexp", a=6.0, m1=15)
    data = draw_doubly(400, truth, ExposureSpec(m2=15), seed=71)
    grid = candidate_grid(data, m1=15)
    mass, _ = fit_npmle(data, grid)
    p_hat = mass.as_vector(grid)
    averaged, skipped = averaged_inverse_information(
        build_weight_matrix(data, grid), p_hat, b=1, seed=63
    )
    assert skipped == 0
    replicate = build_weight_matrix(resample(data, 63, 0), grid)
    rep_masses, _ = _minimize(replicate, start=p_hat)
    plain = observed_fisher(replicate, rep_masses, mass.support)
    # the replicate's sums run over the fit's rows, the rebuilt matrix's in
    # their own order, so the two agree to rounding
    np.testing.assert_allclose(averaged, spd_invert(plain), rtol=1e-10, atol=0)


def test_averaged_inverse_dominates_inverse_of_plain_matrix():
    # mean of inverses minus inverse of the mean is positive semidefinite;
    # with resampling noise the averaged intervals come out wider, which is
    # the point of averaging
    truth = TruthSpec(family="truncexp", a=6.0, m1=15)
    data = draw_doubly(500, truth, ExposureSpec(m2=15), seed=72)
    grid = candidate_grid(data, m1=15)
    weights = build_weight_matrix(data, grid)
    mass, _ = fit_npmle(data, grid)
    averaged, _ = averaged_inverse_information(
        weights, mass.as_vector(grid), b=50, seed=64
    )
    plain = observed_fisher(weights, mass.as_vector(grid), mass.support)
    gap_diag = np.diag(averaged - spd_invert(plain))
    assert gap_diag.sum() > 0


def test_averaged_inverse_is_the_loop_of_single_inverses(monkeypatch):
    # each batch's matrices are tested and inverted together; the mean is
    # bit for bit that of inverting them one at a time, and a replicate
    # whose matrix fails the pivot test is skipped without touching the
    # others' sum.  The batches here hold 8 replicates, so the bad one
    # shares a batch with good ones
    import incutime.bootstrap as bootstrap_module
    import incutime.inference as inference_module

    truth = TruthSpec(family="truncexp", a=6.0, m1=15)
    data = draw_doubly(400, truth, ExposureSpec(m2=15), seed=74)
    grid = candidate_grid(data, m1=15)
    weights = build_weight_matrix(data, grid)
    mass, _ = fit_npmle(data, grid)
    p_hat = mass.as_vector(grid)
    batches = list(bootstrap_module.refit_replicates(weights, 65, 20, p_hat))
    assert all(ok.all() for _, _, ok in batches)
    results = [
        pair for counts, refits, _ in batches for pair in zip(counts, refits)
    ]
    expected = None
    for counts, masses in results:
        inverse = spd_invert(observed_fisher(weights, masses, mass.support, counts))
        expected = inverse if expected is None else expected + inverse
    expected = expected / len(results)
    # all records on one row make a rank-one matrix
    one_row = np.zeros(weights.dense.shape[0])
    one_row[0] = weights.n
    with pytest.raises(SingularMatrixError):
        spd_invert(observed_fisher(weights, p_hat, mass.support, one_row))

    def batches_of_8(replicates):
        for first in range(0, len(replicates), 8):
            counts, refits = zip(*replicates[first : first + 8])
            yield np.array(counts), np.array(refits), np.ones(len(counts), bool)

    for replicates in (results, [*results[:10], (one_row, p_hat), *results[10:]]):
        monkeypatch.setattr(
            inference_module,
            "refit_replicates",
            lambda *args, r=replicates: batches_of_8(r),
        )
        averaged, skipped = averaged_inverse_information(
            weights, p_hat, b=len(replicates), seed=65
        )
        assert skipped == len(replicates) - len(results)
        assert np.array_equal(averaged, expected)


@pytest.mark.parametrize("bound", [None, 0], ids=["table", "loop"])
def test_fisher_replicate_at_zero_fitted_probability_is_skipped(monkeypatch, bound):
    # a replicate whose refit gives one of its drawn rows zero probability
    # has no information matrix; it is skipped and counted, and the others'
    # mean is bit for bit that of their own inverses, on either way of
    # forming the matrices
    import incutime.bootstrap as bootstrap_module
    import incutime.inference as inference_module
    import incutime.linalg as linalg_module

    if bound is not None:
        monkeypatch.setattr(linalg_module, "TABLE_BYTES", bound)
    truth = TruthSpec(family="truncexp", a=6.0, m1=15)
    data = draw_doubly(400, truth, ExposureSpec(m2=15), seed=75)
    grid = candidate_grid(data, m1=15)
    weights = build_weight_matrix(data, grid)
    mass, _ = fit_npmle(data, grid)
    p_hat = mass.as_vector(grid)
    counts, refits, ok = next(bootstrap_module.refit_replicates(weights, 66, 10, p_hat))
    assert ok.all()
    expected = sum(
        spd_invert(observed_fisher(weights, masses, mass.support, drawn))
        for drawn, masses in zip(counts, refits)
    ) / len(counts)
    # all the mass on the last support day: some drawn row has none there
    point = np.zeros(weights.m)
    point[p_hat.nonzero()[0][-1]] = 1.0
    with pytest.raises(DegenerateFitError, match="zero fitted probability"):
        observed_fisher(weights, point, mass.support, counts[2])
    counts = np.insert(counts, 2, counts[2], axis=0)
    refits = np.insert(refits, 2, point, axis=0)
    monkeypatch.setattr(
        inference_module,
        "refit_replicates",
        lambda *args: iter([(counts, refits, np.ones(len(counts), bool))]),
    )
    averaged, skipped = averaged_inverse_information(weights, p_hat, b=11, seed=66)
    assert skipped == 1
    assert np.array_equal(averaged, expected)


def test_cdf_covariance_identity_information():
    cov = _partial_sum_covariance(spd_invert(np.eye(2)))
    assert np.allclose(cov, [[1.0, 1.0], [1.0, 2.0]], atol=1e-12)


def test_cdf_covariance_diagonal_information():
    cov = _partial_sum_covariance(spd_invert(np.diag([4.0, 4.0])))
    assert np.allclose(cov, [[0.25, 0.25], [0.25, 0.5]], atol=1e-12)


def test_cdf_covariance_matches_partial_sum_monte_carlo():
    rng = np.random.default_rng(64)
    b = rng.normal(size=(3, 3))
    fisher = b.T @ b + np.eye(3)
    cov = _partial_sum_covariance(spd_invert(fisher))
    draws = rng.multivariate_normal(
        np.zeros(3), np.linalg.inv(fisher), size=200_000
    )
    partial = np.cumsum(draws, axis=1)
    sample_cov = np.cov(partial.T)
    assert np.allclose(sample_cov, cov, atol=0.05)
    assert np.allclose(cov, cov.T, atol=1e-12)
    assert np.linalg.eigvalsh(cov).min() >= -1e-9


def test_extend_variances_step_function():
    cov = np.diag([0.11, 0.22])
    out = extend_variances(cov, np.array([3, 5, 9]), m1=10)
    expected = [0, 0, 0.11, 0.11, 0.22, 0.22, 0.22, 0.22, 0, 0]
    assert np.allclose(out, expected, atol=1e-15)


def test_extend_variances_support_reaching_horizon():
    out = extend_variances(np.diag([0.5]), np.array([2, 4]), m1=4)
    assert np.allclose(out, [0, 0.5, 0.5, 0])


def test_extend_variances_rejects_mismatched_order():
    with pytest.raises(ValueError):
        extend_variances(np.diag([0.5]), np.array([2, 4, 6]), m1=6)


def test_wald_interval_arithmetic():
    fhat = DayCdf([0.2, 0.5, 1.0])
    variances = np.array([0.0, 1.0, 0.0])
    table = wald_intervals(fhat, variances, n=100, points=[2])
    row = table.rows[0]
    # 0.5 -/+ z * sqrt(1 / 100) with z = 1.959963984540054, the 0.975 normal quantile
    assert row.lower == pytest.approx(0.3040036015459946, abs=1e-12)
    assert row.upper == pytest.approx(0.6959963984540054, abs=1e-12)
    assert row.variance == 1.0


def test_wald_interval_zero_variance_degenerates():
    fhat = DayCdf([0.2, 0.5, 1.0])
    table = wald_intervals(fhat, np.zeros(3), n=50, points=[1, 2, 3])
    for row in table.rows:
        assert row.lower == row.upper == row.estimate


def test_wald_interval_clipping_keeps_raw_bounds():
    fhat = DayCdf([0.99, 1.0])
    table = wald_intervals(fhat, np.array([1.0, 0.0]), n=10, points=[1])
    row = table.rows[0]
    assert row.upper == 1.0
    assert row.raw_upper > 1.0
    assert row.lower == max(row.raw_lower, 0.0)


def test_wald_interval_levels():
    fhat = DayCdf([0.5, 1.0])
    variances = np.array([1.0, 0.0])
    # standard normal quantiles at (1 + level) / 2
    for level, z in ((0.90, 1.6448536269514722), (0.99, 2.5758293035489004)):
        table = wald_intervals(fhat, variances, n=100, points=[1], level=level)
        assert table.rows[0].upper == pytest.approx(0.5 + z / 10.0, abs=1e-12)
    # any level in (0, 1) is accepted, not only a tabulated few
    mid = wald_intervals(fhat, variances, n=100, points=[1], level=0.93).rows[0]
    assert 0.5 + 1.6448536269514722 / 10.0 < mid.upper < 0.5 + 2.5758293035489004 / 10.0
    for level in (0.0, 1.0):
        with pytest.raises(ValueError):
            wald_intervals(fhat, variances, n=100, points=[1], level=level)


def test_wald_interval_rejects_day_outside_horizon():
    fhat = DayCdf([0.5, 1.0])
    with pytest.raises(ValueError):
        wald_intervals(fhat, np.array([1.0]), n=100, points=[2])


def test_interval_table_csv_schema(tmp_path):
    fhat = DayCdf([0.5, 1.0])
    table = wald_intervals(fhat, np.array([1.0, 0.0]), n=100, points=[1, 2])
    path = tmp_path / "intervals.csv"
    table.to_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "day,estimate,lower,upper,method,variance"
    assert len(lines) == 3
    assert lines[1].split(",")[4] == "wald"


def test_fisher_result_end_to_end_singly():
    truth = TruthSpec(family="truncexp", a=6.0, m1=15)
    data = draw_singly(500, truth, ExposureSpec(m2=15), seed=65)
    grid = candidate_grid(data, m1=15)
    mass, _ = fit_npmle(data, grid)
    result = fisher_result(build_weight_matrix(data, grid), mass)
    assert isinstance(result, FisherResult)
    assert result.variances.shape == (15,)
    assert np.all(result.variances >= 0)
    assert not result.used_pseudo_inverse
    # variances vanish off the fitted support range
    first, last = mass.support[0], mass.support[-1]
    assert np.all(result.variances[: first - 1] == 0)
    assert np.all(result.variances[last - 1 :] == 0)


def test_fisher_result_rejects_single_point_fit():
    data = validate_dataset(Dataset.singly([1, 1], [1, 1]))
    grid = candidate_grid(data)
    mass, _ = fit_npmle(data, grid)
    with pytest.raises(DegenerateFitError):
        fisher_result(build_weight_matrix(data, grid), mass)


def test_fisher_averaging_fails_loudly_when_refits_collapse(monkeypatch):
    import incutime.solver as solver_module

    def always_stalls(model, on, inner_tol):
        targets, on, errors = _inner_loop(model, on, inner_tol)
        return targets, on, [NonConvergenceError("forced failure")] * len(errors)

    data = draw_doubly(200, TruthSpec(family="truncexp", a=6.0, m1=15),
                       ExposureSpec(m2=15), seed=73)
    grid = candidate_grid(data, m1=15)
    weights = build_weight_matrix(data, grid)
    mass, _ = fit_npmle(data, grid)
    monkeypatch.setattr(solver_module, "_inner_loop", always_stalls)
    with pytest.raises(BootstrapFailureError) as err:
        fisher_result(weights, mass, averaging=20)
    assert err.value.failed == 20
    assert err.value.total == 20


def test_replicate_failure_counts_are_python_ints():
    # the counts reach JSON reports, which take no numpy integer
    data = draw_doubly(200, TruthSpec(family="truncexp", a=6.0, m1=15),
                       ExposureSpec(m2=15), seed=73)
    grid = candidate_grid(data, m1=15)
    weights = build_weight_matrix(data, grid)
    mass, _ = fit_npmle(data, grid)
    result = fisher_result(weights, mass, averaging=10)
    assert type(result.replicates_skipped) is int
    table = bootstrap_ci(weights, mass, b=10, seed=0)
    assert type(table.metadata["failed"]) is int


def test_singular_information_falls_back_to_pseudo_inverse():
    singular = np.array([[1.0, 1.0], [1.0, 1.0]])
    with pytest.warns(RuntimeWarning):
        inverse, used_pseudo_inverse = _invert_information(singular)
    assert used_pseudo_inverse is True
    assert np.all(np.isfinite(_partial_sum_covariance(inverse)))
