import numpy as np
import pytest

from incutime import (
    BootstrapConfig,
    BootstrapFailureError,
    Dataset,
    NonConvergenceError,
    bootstrap_ci,
    build_weight_matrix,
    candidate_grid,
    fit_npmle,
    validate_dataset,
)
from incutime.bootstrap import _replicate_indices, refit_replicates, resample
from incutime.simulate import ExposureSpec, TruthSpec, draw_doubly, draw_singly
from incutime.solver import SolverConfig, fit_weights

TRUNCEXP = TruthSpec(family="truncexp", a=6.0, m1=15)


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


def test_bootstrap_config_rejects_tiny_replicate_count():
    with pytest.raises(ValueError):
        BootstrapConfig(b=1)


def test_bootstrap_degenerate_single_record_dataset():
    data = validate_dataset(Dataset.singly([1], [1]))
    grid = candidate_grid(data)
    table = bootstrap_ci(build_weight_matrix(data, grid), BootstrapConfig(b=20, seed=0))
    row = table.rows[0]
    assert row.day == 1
    assert row.lower == row.upper == row.estimate == 1.0
    assert table.metadata["failed"] == 0


def test_bootstrap_interval_contains_estimate():
    data = draw_singly(300, TRUNCEXP, ExposureSpec(m2=15), seed=82)
    grid = candidate_grid(data, m1=15)
    table = bootstrap_ci(
        build_weight_matrix(data, grid),
        BootstrapConfig(b=200, seed=1, points=(4, 6, 8)),
    )
    for row in table.rows:
        assert row.lower <= row.estimate <= row.upper
        assert row.variance >= 0


def test_bootstrap_is_deterministic():
    data = draw_singly(200, TRUNCEXP, ExposureSpec(m2=15), seed=83)
    grid = candidate_grid(data, m1=15)
    config = BootstrapConfig(b=60, seed=9, points=(5, 7))
    weights = build_weight_matrix(data, grid)
    a = bootstrap_ci(weights, config)
    b = bootstrap_ci(weights, config)
    assert a.rows == b.rows


def test_bootstrap_internal_fit_matches_supplied_mass():
    data = draw_singly(200, TRUNCEXP, ExposureSpec(m2=15), seed=84)
    grid = candidate_grid(data, m1=15)
    mass, _ = fit_npmle(data, grid)
    config = BootstrapConfig(b=40, seed=2, points=(6,))
    weights = build_weight_matrix(data, grid)
    assert bootstrap_ci(weights, config) == bootstrap_ci(weights, config, mass=mass)


def test_bootstrap_fails_loudly_when_refits_collapse(monkeypatch):
    import incutime.bootstrap as bootstrap_module

    def always_stalls(W, idx, config):
        raise NonConvergenceError("forced failure")

    monkeypatch.setattr(bootstrap_module, "_refit_rows", always_stalls)
    data = draw_singly(100, TRUNCEXP, ExposureSpec(m2=15), seed=85)
    grid = candidate_grid(data, m1=15)
    with pytest.raises(BootstrapFailureError) as err:
        bootstrap_ci(build_weight_matrix(data, grid), BootstrapConfig(b=20, seed=0))
    assert err.value.failed == 20


def test_bootstrap_counts_inner_loop_failures(monkeypatch):
    import incutime.solver as solver_module

    from test_solver import AddThenRefuseModel

    data = draw_singly(100, TRUNCEXP, ExposureSpec(m2=15), seed=87)
    grid = candidate_grid(data, m1=15)
    mass, _ = fit_npmle(data, grid)
    monkeypatch.setattr(solver_module, "_QuadraticModel", AddThenRefuseModel)
    with pytest.raises(BootstrapFailureError) as err:
        bootstrap_ci(
            build_weight_matrix(data, grid), BootstrapConfig(b=10, seed=0), mass=mass
        )
    assert err.value.failed == 10


def test_bootstrap_rejects_points_outside_horizon():
    data = draw_singly(50, TRUNCEXP, ExposureSpec(m2=15), seed=86)
    grid = candidate_grid(data, m1=15)
    with pytest.raises(ValueError):
        bootstrap_ci(
            build_weight_matrix(data, grid), BootstrapConfig(b=10, seed=0, points=(16,))
        )


@pytest.mark.parametrize("draw", [draw_singly, draw_doubly], ids=["single", "double"])
def test_replicate_refits_are_fits_of_the_drawn_rows(draw):
    # one start for every fit: the bootstrap and Fisher averaging refit a
    # replicate exactly as fit_weights fits its rows
    data = draw(300, TRUNCEXP, ExposureSpec(m2=15), seed=88)
    W = build_weight_matrix(data, candidate_grid(data, m1=15))
    config = SolverConfig()
    replicates = refit_replicates(W, 3, 4, config)
    for k, (_, masses) in enumerate(replicates):
        _, trace = fit_weights(W.take(_replicate_indices(3, k, W.n)), config)
        assert np.array_equal(masses, trace.final_masses)
