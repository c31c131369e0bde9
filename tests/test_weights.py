import numpy as np
import pytest

from incutime import (
    Dataset,
    Grid,
    InfeasibleRecordError,
    MassFunction,
    build_weight_matrix,
    psi_weight,
    validate_dataset,
)
from incutime.weights import WeightMatrix, _compact, _group_records


def window_integral_by_step_sums(e, s_l, s_r, mass):
    """Oracle: integrate F(u) - F(u - e) over (s_l, s_r] by splitting at
    integers, where F is the step CDF of ``mass``.  F is constant on [k, k+1),
    so the integral is a plain sum of unit-width slabs."""
    def step_cdf(x):
        return float(mass.probs[mass.support <= x].sum())

    total = 0.0
    for k in range(s_l, s_r):
        total += step_cdf(k) - step_cdf(k - e)
    return total


def single_row(e, s, top):
    """Single-mode weight row of the record (e, s) over days 1..top."""
    data = validate_dataset(Dataset.singly([e], [s]))
    return build_weight_matrix(data, Grid(top)).dense[0]


def test_indicator_weight_examples():
    row = single_row(5, 6, top=7)
    assert row[3 - 1] == 1.0  # 3 in (1, 6]
    assert row[1 - 1] == 0.0  # left endpoint excluded
    assert row[7 - 1] == 0.0  # beyond right endpoint


def test_psi_weight_examples():
    assert psi_weight(10, 2, 5, 1) == 3.0  # plateau: (5-1) - (2-1)
    assert psi_weight(10, 2, 5, 4) == 1.0  # ramp: only (5-4) survives
    assert psi_weight(10, 2, 5, 5) == 0.0  # right endpoint carries no weight
    assert psi_weight(1, 4, 5, 3) == 0.0   # all four terms cancel


def test_psi_weight_one_day_window_differs_from_indicator():
    # a one-day onset window gives the right endpoint zero integral weight,
    # while the single-mode indicator gives the onset day weight 1; the two
    # kernels are intentionally not interchangeable
    assert psi_weight(2, 4, 5, 5) == 0.0
    assert single_row(2, 5, top=5)[5 - 1] == 1.0


def test_psi_weight_vanishes_at_and_beyond_right_bound():
    rng = np.random.default_rng(3)
    for _ in range(50):
        e = int(rng.integers(1, 12))
        s_r = int(rng.integers(1, 20))
        s_l = int(rng.integers(0, s_r))
        for t in range(s_r, 51):
            assert psi_weight(e, s_l, s_r, t) == 0.0


def test_psi_weight_bounds():
    rng = np.random.default_rng(4)
    for _ in range(200):
        e = int(rng.integers(1, 12))
        s_r = int(rng.integers(1, 25))
        s_l = int(rng.integers(0, s_r))
        t = int(rng.integers(1, 30))
        w = psi_weight(e, s_l, s_r, t)
        assert 0.0 <= w <= s_r - s_l


def test_psi_weight_matches_window_integral():
    rng = np.random.default_rng(5)
    for _ in range(200):
        e = int(rng.integers(1, 12))
        s_r = int(rng.integers(2, 25))
        s_l = int(rng.integers(0, s_r))
        size = int(rng.integers(1, 6))
        support = np.sort(rng.choice(np.arange(1, 30), size=size, replace=False))
        mass = MassFunction(support, rng.dirichlet(np.ones(size)))
        weighted = sum(
            psi_weight(e, s_l, s_r, int(t)) * p
            for t, p in zip(mass.support, mass.probs)
        )
        exact = window_integral_by_step_sums(e, s_l, s_r, mass)
        assert weighted == pytest.approx(exact, abs=1e-12)


def test_build_weight_matrix_singly_row():
    data = validate_dataset(Dataset.singly([2], [3]))
    W = build_weight_matrix(data, Grid(5))
    assert np.array_equal(W.dense[0], [0.0, 1.0, 1.0, 0.0, 0.0])
    assert np.array_equal(np.flatnonzero(W.dense[W.record_rows[0]]), [1, 2])


def test_build_weight_matrix_trivial_record():
    data = validate_dataset(Dataset.singly([1], [1]))
    W = build_weight_matrix(data, Grid(1))
    assert np.array_equal(W.dense, [[1.0]])


def test_build_weight_matrix_doubly_row():
    # onset day in {3, 4, 5}; day-1 and day-2 mass count in all three terms,
    # day-4 mass in two, day-5 mass in one
    data = validate_dataset(Dataset.doubly([10], [2], [5]))
    W = build_weight_matrix(data, Grid(5))
    assert np.array_equal(W.dense[0], [3.0, 3.0, 3.0, 2.0, 1.0])


def test_doubly_row_sums_singly_rows_over_window_days():
    # the window likelihood is the sum of known-onset-day likelihoods over
    # the integer days the window contains
    rng = np.random.default_rng(11)
    grid = Grid(30)
    for _ in range(50):
        e = int(rng.integers(1, 12))
        s_l = int(rng.integers(0, 20))
        s_r = s_l + int(rng.integers(1, 8))
        double_row = build_weight_matrix(
            validate_dataset(Dataset.doubly([e], [s_l], [s_r])), grid
        ).dense[0]
        days = list(range(s_l + 1, s_r + 1))
        single = build_weight_matrix(
            validate_dataset(Dataset.singly([e] * len(days), days)), grid
        ).dense
        assert np.array_equal(double_row, single.sum(axis=0))


def test_one_day_window_row_equals_indicator_row():
    grid = Grid(9)
    double = build_weight_matrix(
        validate_dataset(Dataset.doubly([3], [4], [5])), grid
    )
    single = build_weight_matrix(
        validate_dataset(Dataset.singly([3], [5])), grid
    )
    assert np.array_equal(double.dense, single.dense)


def test_build_weight_matrix_singly_rows_are_contiguous_ones():
    rng = np.random.default_rng(6)
    e = rng.integers(1, 10, size=40)
    s = rng.integers(1, 25, size=40)
    data = validate_dataset(Dataset.singly(e, s))
    grid = Grid(25)
    W = build_weight_matrix(data, grid)
    for i in range(data.n):
        row = W.dense[W.record_rows[i]]
        idx = np.flatnonzero(row)
        assert np.array_equal(np.sort(row[idx]), np.ones(idx.size))
        assert np.array_equal(idx, np.arange(idx[0], idx[-1] + 1))


def test_build_weight_matrix_flags_record_outside_grid():
    # a grid that misses every day of a record's window leaves that record
    # with an all-zero row, which must be reported, not silently ignored
    data = validate_dataset(Dataset.singly([1, 1], [1, 5]))
    with pytest.raises(InfeasibleRecordError) as err:
        build_weight_matrix(data, Grid(3))
    assert err.value.record_index == 1


def test_hand_built_matrix_with_an_all_zero_row_names_its_first_record():
    # the matrix is refused when it is built, before any fit could start at
    # the uniform masses and find a zero likelihood term there
    with pytest.raises(InfeasibleRecordError) as err:
        WeightMatrix(dense=np.array([[0.0, 0.0], [1.0, 0.0]]), grid=Grid(2))
    assert err.value.record_index == 0
    # rows 1 and 2 are empty; record 1 (on row 2) comes before record 3
    # (on row 1)
    dense = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]])
    with pytest.raises(InfeasibleRecordError) as err:
        WeightMatrix(
            dense=dense, grid=Grid(2), counts=[2, 1, 2],
            record_rows=[0, 2, 0, 1, 2],
        )
    assert err.value.record_index == 1


@pytest.mark.parametrize("width", [1, 3], ids=["narrow", "wide"])
def test_hand_built_matrix_needs_one_column_per_grid_day(width):
    # day d is column d - 1, so a block of another width is refused when it
    # is built, not by an IndexError deep in a fit
    with pytest.raises(ValueError, match="one column per grid day"):
        WeightMatrix(dense=np.eye(3)[:, :width], grid=Grid(2))


@pytest.mark.parametrize("bad", [-1.0, np.nan, np.inf], ids=["negative", "nan", "inf"])
def test_hand_built_matrix_with_a_negative_or_non_finite_weight_is_refused(bad):
    with pytest.raises(ValueError, match="finite and nonnegative"):
        WeightMatrix(dense=np.array([[1.0, bad], [1.0, 0.0]]), grid=Grid(2))


def _repeated_rows(*columns, n=500, seed=8):
    """``n`` records drawn from the distinct rows given as columns, so
    patterns repeat."""
    pick = np.random.default_rng(seed).integers(0, len(columns[0]), n)
    return [np.asarray(col)[pick] for col in columns]


GROUPING_CASES = {
    "span below 2**8": (
        _repeated_rows([1, 3, 200, 3, 1, 7], [4, 4, 250, 9, 4, 1]), [np.uint8] * 2
    ),
    "span below 2**16": (
        _repeated_rows([1, 2, 65_000, 2], [40_000, 5, 7, 5]), [np.uint16] * 2
    ),
    "span of 2**16": (
        _repeated_rows([0, 2**16, 5, 0], [1, 1, 2, 1]), [np.int64, np.uint8]
    ),
    "negative minimum": (
        _repeated_rows([-7, 0, -7, 3], [-30_000, 30_000, -30_000, 0], [1, 1, 2, 1]),
        [np.uint8, np.uint16, np.uint8],
    ),
    "float column": (
        _repeated_rows([1.5, 2.0, 1.5, -3.0], [2, 2, 3, 2]), [np.float64, np.uint8]
    ),
}


@pytest.mark.parametrize("columns, dtypes", GROUPING_CASES.values(),
                         ids=list(GROUPING_CASES))
def test_group_records_matches_sorted_unique_rows(columns, dtypes):
    assert [_compact(col).dtype for col in columns] == [np.dtype(t) for t in dtypes]
    first, record_rows, counts = _group_records(columns)
    _, index, inverse, unique_counts = np.unique(
        np.column_stack(columns), axis=0,
        return_index=True, return_inverse=True, return_counts=True,
    )
    assert np.array_equal(first, index)
    assert np.array_equal(record_rows, inverse.reshape(-1))
    assert np.array_equal(counts, unique_counts)
