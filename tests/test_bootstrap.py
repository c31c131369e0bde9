import numpy as np
import pytest

from incutime import (
    BootstrapFailureError,
    Dataset,
    MassFunction,
    NonConvergenceError,
    bootstrap_ci,
    build_weight_matrix,
    candidate_grid,
    fit_npmle,
    validate_dataset,
)
from incutime.bootstrap import (
    BATCH_CAP,
    _replicate_counts,
    refit_replicates,
    resample,
)
from incutime.simulate import ExposureSpec, TruthSpec, draw_doubly, draw_singly
from incutime.solver import (
    _inner_loop,
    _minimize,
    _minimize_batch,
    fenchel_residuals,
    fit_weights,
)

TRUNCEXP = TruthSpec(family="truncexp", a=6.0, m1=15)


def replicate_results(*args):
    """``refit_replicates``'s batches as one (counts, masses) per replicate,
    None where the refit failed."""
    return [
        (row, probs) if good else None
        for counts, masses, ok in refit_replicates(*args)
        for row, probs, good in zip(counts, masses, ok)
    ]


def test_resample_is_deterministic_per_replicate():
    data = draw_singly(50, TRUNCEXP, ExposureSpec(m2=15), seed=81)
    assert resample(data, 5, 3) == resample(data, 5, 3)
    assert not (resample(data, 5, 3) == resample(data, 5, 4))
    assert not (resample(data, 6, 3) == resample(data, 5, 3))


def test_resample_single_record_repeats_it():
    data = validate_dataset(Dataset.singly([2], [4]))
    out = resample(data, 0, 0)
    assert out.n == 1 and out == data


def test_resample_record_frequencies():
    data = validate_dataset(Dataset.singly([1, 1], [1, 2]))
    hits = 0
    draws = 10_000
    for k in range(draws):
        hits += int(np.sum(resample(data, 7, k).s == 1))
    total = 2 * draws
    sigma = np.sqrt(total * 0.25)
    assert abs(hits - total / 2) < 3 * sigma


def test_bootstrap_degenerate_single_record_dataset():
    data = validate_dataset(Dataset.singly([1], [1]))
    weights = build_weight_matrix(data, candidate_grid(data))
    table = bootstrap_ci(weights, fit_weights(weights)[0], b=20, seed=0)
    row = table.rows[0]
    assert row.day == 1
    assert row.lower == row.upper == row.estimate == 1.0
    assert table.metadata["failed"] == 0


def test_bootstrap_interval_contains_estimate():
    data = draw_singly(300, TRUNCEXP, ExposureSpec(m2=15), seed=82)
    grid = candidate_grid(data, m1=15)
    weights = build_weight_matrix(data, grid)
    table = bootstrap_ci(
        weights, fit_weights(weights)[0], b=200, seed=1, points=(4, 6, 8)
    )
    for row in table.rows:
        assert row.lower <= row.estimate <= row.upper
        assert row.variance >= 0


def test_bootstrap_is_deterministic():
    data = draw_singly(200, TRUNCEXP, ExposureSpec(m2=15), seed=83)
    grid = candidate_grid(data, m1=15)
    weights = build_weight_matrix(data, grid)
    mass = fit_weights(weights)[0]
    a = bootstrap_ci(weights, mass, b=60, seed=9, points=(5, 7))
    b = bootstrap_ci(weights, mass, b=60, seed=9, points=(5, 7))
    assert a.rows == b.rows


def stall(model, on, inner_tol):
    """An inner loop whose every pass fails its replicate."""
    targets, on, errors = _inner_loop(model, on, inner_tol)
    return targets, on, [NonConvergenceError("forced failure")] * len(errors)


def test_bootstrap_fails_loudly_when_refits_collapse(monkeypatch):
    import incutime.solver as solver_module

    data = draw_singly(100, TRUNCEXP, ExposureSpec(m2=15), seed=85)
    grid = candidate_grid(data, m1=15)
    mass, _ = fit_npmle(data, grid)
    monkeypatch.setattr(solver_module, "_inner_loop", stall)
    with pytest.raises(BootstrapFailureError) as err:
        bootstrap_ci(build_weight_matrix(data, grid), mass, b=20, seed=0)
    assert err.value.failed == 20


def test_bootstrap_counts_inner_loop_failures(monkeypatch):
    import incutime.solver as solver_module

    from test_solver import AddThenRefuseModel

    data = draw_singly(100, TRUNCEXP, ExposureSpec(m2=15), seed=87)
    grid = candidate_grid(data, m1=15)
    mass, _ = fit_npmle(data, grid)
    monkeypatch.setattr(solver_module, "_QuadraticModel", AddThenRefuseModel)
    with pytest.raises(BootstrapFailureError) as err:
        bootstrap_ci(build_weight_matrix(data, grid), mass, b=10, seed=0)
    assert err.value.failed == 10


def test_bootstrap_rejects_points_outside_horizon():
    data = draw_singly(50, TRUNCEXP, ExposureSpec(m2=15), seed=86)
    weights = build_weight_matrix(data, candidate_grid(data, m1=15))
    with pytest.raises(ValueError):
        bootstrap_ci(weights, fit_weights(weights)[0], b=10, seed=0, points=(16,))


@pytest.mark.parametrize(
    "b, points, message",
    [(1, None, "at least 2 replicates"), (2, (99,), "outside 1..15")],
    ids=["b-1", "day-past-horizon"],
)
def test_bootstrap_checks_its_arguments_before_any_draw(
    monkeypatch, b, points, message
):
    # too few replicates or a day past the horizon is refused before the
    # first replicate is drawn
    import incutime.bootstrap as bootstrap_module

    draws = []
    replicate_indices = bootstrap_module._replicate_indices

    def counted(seed, k, n):
        draws.append(k)
        return replicate_indices(seed, k, n)

    monkeypatch.setattr(bootstrap_module, "_replicate_indices", counted)
    data = draw_singly(50, TRUNCEXP, ExposureSpec(m2=15), seed=86)
    weights = build_weight_matrix(data, candidate_grid(data, m1=15))
    mass = fit_weights(weights)[0]
    with pytest.raises(ValueError, match=message):
        bootstrap_ci(weights, mass, b, seed=0, points=points)
    assert draws == []


@pytest.mark.parametrize("draw", [draw_singly, draw_doubly], ids=["single", "double"])
def test_replicate_refits_are_fits_of_the_drawn_rows(draw):
    # a replicate refit in the batch is the batch of one on its count vector,
    # started at the point fit's masses; it meets the certificate on the
    # drawn records and agrees with a cold fit of them up to the
    # certificate's slack
    data = draw(300, TRUNCEXP, ExposureSpec(m2=15), seed=88)
    grid = candidate_grid(data, m1=15)
    W = build_weight_matrix(data, grid)
    _, point_trace = fit_weights(W)
    p_hat = point_trace.final_masses
    replicates = replicate_results(W, 3, 4, p_hat)
    for k, (counts, masses) in enumerate(replicates):
        assert np.array_equal(counts, _replicate_counts(W, 3, k))
        alone, errors, _ = _minimize_batch(W, counts[None], p_hat)
        assert errors == [None]
        assert np.array_equal(masses, alone[0])
        drawn = build_weight_matrix(resample(data, 3, k), grid)
        min_grad, comp = fenchel_residuals(masses, drawn)
        assert min_grad >= -1e-10 and comp <= 1e-10
        _, cold = fit_weights(drawn)
        np.testing.assert_allclose(
            drawn.dense @ masses, drawn.dense @ cold.final_masses, rtol=0, atol=1e-8
        )


@pytest.mark.parametrize("bound", [None, 0], ids=["table", "loop"])
def test_replicate_refits_are_their_batches_of_one_on_both_gram_paths(monkeypatch, bound):
    # the models' Gram matrices come from the fit's table of row products,
    # or, with no room for the table, from the scaled columns; on either
    # path a replicate's refit is its batch of one, bit for bit
    import incutime.linalg as linalg_module

    data = draw_doubly(300, TRUNCEXP, ExposureSpec(m2=15), seed=92)
    W = build_weight_matrix(data, candidate_grid(data, m1=15))
    if bound is not None:
        monkeypatch.setattr(linalg_module, "TABLE_BYTES", bound)
    assert (linalg_module.PairProducts(W.dense).table is None) == (bound == 0)
    _, point_trace = fit_weights(W)
    p_hat = point_trace.final_masses
    for counts, masses in replicate_results(W, 9, 6, p_hat):
        alone, errors, _ = _minimize_batch(W, counts[None], p_hat)
        assert errors == [None]
        assert np.array_equal(masses, alone[0])


@pytest.mark.parametrize("draw", [draw_singly, draw_doubly], ids=["single", "double"])
def test_batched_replicates_across_the_batch_cap_are_fits_of_their_resamples(draw):
    # two batches run; every replicate meets the certificate on its drawn
    # records, gives them the probabilities of the refit of a matrix rebuilt
    # from the resample, started at the same masses, and those of a cold fit
    # of it up to the certificate's slack (two certified fits of one double
    # mode resample can differ by a few 1e-10)
    data = draw(120, TRUNCEXP, ExposureSpec(m2=15), seed=89)
    grid = candidate_grid(data, m1=15)
    W = build_weight_matrix(data, grid)
    _, point_trace = fit_weights(W)
    p_hat = point_trace.final_masses
    b = BATCH_CAP + 44
    replicates = replicate_results(W, 5, b, p_hat)
    assert len(replicates) == b
    for k, (_, masses) in enumerate(replicates):
        drawn = build_weight_matrix(resample(data, 5, k), grid)
        min_grad, comp = fenchel_residuals(masses, drawn)
        assert min_grad >= -1e-10 and comp <= 1e-10
        warm, _ = _minimize(drawn, start=p_hat)
        np.testing.assert_allclose(
            drawn.dense @ masses, drawn.dense @ warm, rtol=0, atol=1e-10
        )
        _, cold = fit_weights(drawn)
        np.testing.assert_allclose(
            drawn.dense @ masses, drawn.dense @ cold.final_masses, rtol=0, atol=1e-8
        )


def test_replicate_failing_mid_batch_leaves_the_others_bit_for_bit(monkeypatch):
    # replicate 3 fails on the batch's second outer iteration; the others'
    # masses are those of the run in which it does not
    import incutime.solver as solver_module

    data = draw_doubly(300, TRUNCEXP, ExposureSpec(m2=15), seed=90)
    W = build_weight_matrix(data, candidate_grid(data, m1=15))
    mass, _ = fit_weights(W)
    start = mass.as_vector(W.grid)
    unforced = replicate_results(W, 7, 12, start)
    models = []

    def second_pass_of_replicate_3_stalls(model, on, inner_tol):
        models.append(model)
        targets, on, errors = _inner_loop(model, on, inner_tol)
        if len(models) == 2:
            # every replicate is still fitting, so model row 3 is replicate 3
            assert len(model.b) == 12
            errors[3] = NonConvergenceError("forced failure")
        return targets, on, errors

    monkeypatch.setattr(solver_module, "_inner_loop", second_pass_of_replicate_3_stalls)
    forced = replicate_results(W, 7, 12, start)
    assert len(models) > 2
    assert forced[3] is None and unforced[3] is not None
    for k in range(12):
        if k != 3:
            assert np.array_equal(forced[k][1], unforced[k][1])


def test_replicate_start_without_positive_terms_is_rejected_before_any_draw(
    monkeypatch,
):
    # a supplied point estimate is the start of every refit; one that gives a
    # record zero probability would fail all of them, so it is refused first
    import incutime.bootstrap as bootstrap_module

    draws = []
    replicate_indices = bootstrap_module._replicate_indices

    def counted(seed, k, n):
        draws.append(k)
        return replicate_indices(seed, k, n)

    monkeypatch.setattr(bootstrap_module, "_replicate_indices", counted)
    data = validate_dataset(Dataset.singly([1, 1], [1, 2]))
    grid = candidate_grid(data)
    weights = build_weight_matrix(data, grid)
    with pytest.raises(ValueError, match="zero probability"):
        bootstrap_ci(weights, MassFunction([1], [1.0]), b=20, seed=0)
    with pytest.raises(ValueError, match="zero probability"):
        refit_replicates(weights, 0, 20, np.array([1.0, 0.0]))
    assert draws == []
