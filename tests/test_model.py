import numpy as np
import pytest

from incutime import (
    Dataset,
    DatasetValidationError,
    DayCdf,
    Grid,
    IntervalTable,
    MassFunction,
    candidate_grid,
    cdf_from_mass,
    validate_dataset,
)


def test_validate_keeps_valid_singly_record():
    data = validate_dataset(Dataset.singly([5], [8]))
    assert data == Dataset.singly([5], [8])


def test_validate_clamps_exposure_when_onset_precedes_window_end():
    # onset before the exposure window closed: the window is shortened so the
    # likelihood interval becomes (0, s]
    data = validate_dataset(Dataset.singly([5], [2]))
    assert data == Dataset.singly([2], [2])


def test_validate_clips_negative_left_onset_bound():
    data = validate_dataset(Dataset.doubly([3], [-1], [2]))
    assert data == Dataset.doubly([3], [0], [2])


def test_validate_is_idempotent():
    raw = Dataset.singly([5, 3, 1], [2, 7, 1])
    once = validate_dataset(raw)
    twice = validate_dataset(once)
    assert once == twice


def test_validate_rejects_empty_dataset():
    with pytest.raises(DatasetValidationError):
        validate_dataset(Dataset.singly([], []))


def test_validate_rejects_non_integer_cells_with_record_index():
    with pytest.raises(DatasetValidationError) as err:
        validate_dataset(Dataset.singly([2, 2.5], [3, 3]))
    assert err.value.record_index == 1


@pytest.mark.parametrize("dtype", [np.int64, np.uint64, np.float64])
def test_validate_rejects_days_of_magnitude_2_53(dtype):
    below = Dataset.doubly([1, 1], [0, 0], np.array([2**53 - 1, 3], dtype=dtype))
    assert validate_dataset(below).s_r[0] == 2**53 - 1
    above = Dataset.doubly([1, 1], [0, 0], np.array([3, 2**53], dtype=dtype))
    with pytest.raises(DatasetValidationError) as err:
        validate_dataset(above)
    assert err.value.record_index == 1


def test_validate_rejects_nonpositive_exposure():
    with pytest.raises(DatasetValidationError) as err:
        validate_dataset(Dataset.singly([0], [3]))
    assert err.value.record_index == 0


def test_validate_rejects_nonpositive_onset():
    with pytest.raises(DatasetValidationError):
        validate_dataset(Dataset.singly([1], [0]))


def test_validate_rejects_empty_onset_window():
    with pytest.raises(DatasetValidationError) as err:
        validate_dataset(Dataset.doubly([1, 1], [0, 4], [2, 4]))
    assert err.value.record_index == 1


def test_dataset_take_preserves_mode_and_rows():
    data = validate_dataset(Dataset.doubly([1, 2, 3], [0, 1, 2], [2, 3, 4]))
    sub = data.take([2, 0, 2])
    assert sub == Dataset.doubly([3, 1, 3], [2, 0, 2], [4, 2, 4])


def test_dataset_columns_follow_the_mode():
    single = Dataset.singly([1, 2], [3, 4])
    double = Dataset.doubly([1, 2], [0, 1], [3, 4])
    assert [c.tolist() for c in single.columns] == [[1, 2], [3, 4]]
    assert [c.tolist() for c in double.columns] == [[1, 2], [0, 1], [3, 4]]
    assert Dataset.from_columns("double", double.columns) == double
    assert single != Dataset.singly([1, 2], [3, 5]) and single != double


def test_cdf_from_mass_single_atom():
    grid = Grid(5)
    fbar = cdf_from_mass(MassFunction([3], [1.0]), grid)
    assert np.array_equal(fbar.values, [0.0, 0.0, 1.0, 1.0, 1.0])


def test_cdf_from_mass_two_atoms():
    grid = Grid(2)
    fbar = cdf_from_mass(MassFunction([1, 2], [0.25, 0.75]), grid)
    assert fbar.value(1) == 0.25
    assert fbar.value(2) == 1.0


def test_cdf_from_mass_partial_sums():
    grid = Grid(9)
    fbar = cdf_from_mass(MassFunction([2, 5, 9], [0.2, 0.5, 0.3]), grid)
    # value at day i is the sum of masses at support points <= i
    assert fbar.value(4) == pytest.approx(0.2, abs=1e-15)
    assert fbar.value(5) == pytest.approx(0.7, abs=1e-15)
    assert fbar.value(9) == pytest.approx(1.0, abs=1e-15)


def test_cdf_from_mass_reaches_one_exactly():
    rng = np.random.default_rng(7)
    grid = Grid(20)
    for _ in range(20):
        size = rng.integers(1, 8)
        support = np.sort(rng.choice(np.arange(1, 21), size=size, replace=False))
        probs = rng.dirichlet(np.ones(size))
        fbar = cdf_from_mass(MassFunction(support, probs), grid)
        assert fbar.values[-1] == pytest.approx(1.0, abs=1e-12)


def test_cdf_from_mass_monotone_under_added_mass():
    grid = Grid(10)
    base = MassFunction([4, 8], [0.6, 0.4])
    bumped = MassFunction([2, 4, 8], [0.2, 0.6, 0.4])  # renormalized inside
    f0 = cdf_from_mass(base, grid).values
    f1 = cdf_from_mass(bumped, grid).values
    # extra early mass can only raise the early values after renormalization
    assert f1[0] >= f0[0] and f1[1] >= f0[1]
    assert np.all(np.diff(f1) >= 0)


def test_candidate_grid_runs_to_max_onset():
    data = validate_dataset(Dataset.singly([3, 4], [12, 30]))
    grid = candidate_grid(data)
    assert np.array_equal(grid.points, np.arange(1, 31))


def test_candidate_grid_single_trivial_record():
    data = validate_dataset(Dataset.singly([1], [1]))
    grid = candidate_grid(data)
    assert np.array_equal(grid.points, [1])


def test_candidate_grid_doubly_uses_right_bound():
    data = validate_dataset(Dataset.doubly([2, 3], [1, 4], [7, 12]))
    grid = candidate_grid(data)
    assert np.array_equal(grid.points, np.arange(1, 13))


def test_candidate_grid_with_known_support_bound():
    data = validate_dataset(Dataset.singly([3, 5], [4, 9]))
    grid = candidate_grid(data, m1=15)
    assert np.array_equal(grid.points, np.arange(1, 21))
    assert grid.m1 == 15


def test_grid_horizon_is_m1_or_the_last_point():
    data = validate_dataset(Dataset.singly([3, 5], [4, 9]))
    assert candidate_grid(data, m1=15).horizon == 15
    assert candidate_grid(data).horizon == 9


def test_interval_table_from_bounds_clips_and_keeps_raw_bounds():
    table = IntervalTable.from_bounds(
        [1, 2], [0.1, 0.9], [-0.2, 0.7], [0.4, 1.3], [0.5, 0.25], "wald", {"n": 4}
    )
    assert [(r.lower, r.upper) for r in table.rows] == [(0.0, 0.4), (0.7, 1.0)]
    assert [(r.raw_lower, r.raw_upper) for r in table.rows] == [(-0.2, 0.4), (0.7, 1.3)]
    assert [(r.day, r.estimate, r.variance, r.method) for r in table.rows] == [
        (1, 0.1, 0.5, "wald"),
        (2, 0.9, 0.25, "wald"),
    ]
    assert table.metadata == {"n": 4}


@pytest.mark.parametrize("top", [0, -1, 2.5, np.nan, np.inf])
def test_grid_rejects_a_top_that_is_not_a_positive_integer(top):
    with pytest.raises(ValueError, match="grid top"):
        Grid(top)


def test_grid_points_are_the_days_1_to_top():
    grid = Grid(3)
    assert np.array_equal(grid.points, [1, 2, 3])
    assert grid.top == 3 and grid.horizon == 3


@pytest.mark.parametrize("m1", [0, -20])
def test_grid_rejects_m1_below_1_first(m1):
    # checked before the top, so a negative m1 is not reported as a bad top
    with pytest.raises(ValueError, match="m1 must be >= 1"):
        Grid(m1 + 5, m1=m1)


def test_mass_function_prunes_zero_masses():
    mass = MassFunction([1, 2, 3], [0.5, 0.0, 0.5])
    assert np.array_equal(mass.support, [1, 3])
    assert np.array_equal(mass.as_vector(Grid(3)), [0.5, 0.0, 0.5])


def test_mass_function_renormalizes_drift():
    mass = MassFunction([1, 2], [0.2, 0.2])
    assert mass.probs.sum() == pytest.approx(1.0, abs=1e-15)
    assert mass.probs[0] == pytest.approx(0.5, abs=1e-15)


@pytest.mark.parametrize("first", [0, -1])
def test_mass_function_rejects_support_days_below_1(first):
    # a day-0 or negative mass would otherwise be put on a wrong grid day,
    # or lost, by the column d - 1 of day d
    with pytest.raises(ValueError, match="support days must be positive"):
        MassFunction([first, 2], [0.5, 0.5])


def test_mass_function_rejects_all_zero():
    with pytest.raises(ValueError):
        MassFunction([1, 2], [0.0, 0.0])


def test_mass_function_as_vector_embeds_into_grid():
    grid = Grid(5)
    vec = MassFunction([2, 4], [0.3, 0.7]).as_vector(grid)
    assert np.array_equal(vec, [0.0, 0.3, 0.0, 0.7, 0.0])


def test_mass_function_as_vector_rejects_foreign_support():
    grid = Grid(3)
    with pytest.raises(ValueError):
        MassFunction([2, 4], [0.5, 0.5]).as_vector(grid)


def test_day_cdf_lookup_outside_tabulated_range():
    fbar = DayCdf(values=[0.25, 0.75, 1.0])
    assert fbar.value(0) == 0.0
    assert fbar.value(-3) == 0.0
    assert fbar.value(4) == 1.0
    assert np.array_equal(fbar.value_at([0, 1, 2, 3, 9]), [0.0, 0.25, 0.75, 1.0, 1.0])


def test_day_cdf_rejects_decreasing_values():
    with pytest.raises(ValueError):
        DayCdf(values=[0.5, 0.4])
