import numpy as np
import pytest

from incutime import Dataset, Grid, build_weight_matrix, candidate_grid, validate_dataset
from incutime.weights import WeightMatrix

from oracle import em_step, fit_em, phi


def split_row_weights():
    data = validate_dataset(Dataset.singly([1], [1]))
    return build_weight_matrix(data, Grid(2))


def two_block_weights():
    # three records supported on day 1 only, one on day 2 only, one row each
    dense = np.array([[1.0, 0.0], [1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    return WeightMatrix(dense=dense, grid=Grid(2))


def test_em_step_absorbs_uncovered_mass_in_one_step():
    out = em_step(np.array([0.5, 0.5]), split_row_weights())
    assert np.array_equal(out, [1.0, 0.0])


def test_em_step_two_block_hand_value():
    out = em_step(np.array([0.5, 0.5]), two_block_weights())
    assert np.allclose(out, [0.75, 0.25], atol=1e-15)


def test_em_step_fixed_point_at_optimum():
    p = np.array([0.75, 0.25])
    out = em_step(p, two_block_weights())
    assert np.allclose(out, p, atol=1e-15)


def test_em_step_conserves_total_mass():
    rng = np.random.default_rng(31)
    data = validate_dataset(
        Dataset.singly(rng.integers(1, 8, size=50), rng.integers(1, 15, size=50))
    )
    grid = candidate_grid(data)
    W = build_weight_matrix(data, grid)
    p = np.full(W.m, 1.0 / W.m)
    for _ in range(100):
        p = em_step(p, W)
        assert p.sum() == pytest.approx(1.0, abs=1e-12)


def test_em_step_never_increases_criterion():
    rng = np.random.default_rng(32)
    data = validate_dataset(
        Dataset.singly(rng.integers(1, 8, size=30), rng.integers(1, 12, size=30))
    )
    grid = candidate_grid(data)
    W = build_weight_matrix(data, grid)
    checked = 0
    while checked < 10_000:
        # random strictly positive starting masses, then follow the map
        p = rng.dirichlet(np.ones(W.m))
        p = np.maximum(p, 1e-12)
        p /= p.sum()
        for _ in range(20):
            before = phi(p, W)
            p = em_step(p, W)
            if not np.any(p > 0):
                break
            after = phi(p, W)
            assert after <= before + 1e-12
            checked += 1


def test_fit_em_trivial_dataset():
    data = validate_dataset(Dataset.singly([1, 1], [1, 1]))
    mass = fit_em(data, Grid(1))
    assert np.array_equal(mass.support, [1])
    assert mass.probs[0] == 1.0


def test_fit_em_two_block_closed_form():
    # disjoint single-day records: record i covers exactly day s_i, so the
    # optimum is the multinomial proportion per day
    data = validate_dataset(Dataset.singly([1, 1, 1, 1], [2, 2, 2, 1]))
    grid = Grid(2)
    mass = fit_em(data, grid)
    assert np.allclose(mass.as_vector(grid), [0.25, 0.75], atol=1e-9)


def test_fit_em_warns_and_returns_partial_on_iteration_cap():
    rng = np.random.default_rng(33)
    data = validate_dataset(
        Dataset.singly(rng.integers(1, 8, size=60), rng.integers(1, 15, size=60))
    )
    grid = candidate_grid(data)
    with pytest.warns(RuntimeWarning):
        mass = fit_em(data, grid, max_iter=3)
    assert mass.probs.sum() == pytest.approx(1.0, abs=1e-9)
