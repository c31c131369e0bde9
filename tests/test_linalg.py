import numpy as np
import pytest

from incutime import SingularMatrixError
from incutime.linalg import (
    check_symmetric,
    cholesky_pivots,
    spd_invert,
    spd_solve,
    spd_solve_stack,
)


def test_spd_solve_identity():
    rhs = np.array([3.0, 7.0])
    assert np.array_equal(spd_solve(np.eye(2), rhs), rhs)


def test_spd_solve_small_system():
    a = np.array([[2.0, 1.0], [1.0, 2.0]])
    x = spd_solve(a, np.array([3.0, 3.0]))
    assert np.allclose(x, [1.0, 1.0], atol=1e-14)


def test_spd_solve_random_system_residual():
    rng = np.random.default_rng(11)
    b = rng.normal(size=(8, 8))
    a = b.T @ b + np.eye(8)
    rhs = rng.normal(size=8)
    x = spd_solve(a, rhs)
    assert np.linalg.norm(a @ x - rhs) <= 1e-9


def test_cholesky_pivots_pass_an_spd_matrix():
    rng = np.random.default_rng(12)
    b = rng.normal(size=(6, 6))
    a = b.T @ b + 0.5 * np.eye(6)
    assert cholesky_pivots(a[None]) == {}


def test_cholesky_pivots_report_failing_pivot():
    a = np.array([[1.0, 2.0], [2.0, 1.0]])  # indefinite; second pivot fails
    assert cholesky_pivots(a[None]) == {0: 1}


def test_spd_invert_diagonal():
    assert np.allclose(spd_invert(np.diag([4.0, 4.0])), np.diag([0.25, 0.25]))


def test_spd_invert_round_trip():
    rng = np.random.default_rng(13)
    b = rng.normal(size=(10, 10))
    a = b.T @ b + np.eye(10)
    assert np.allclose(a @ spd_invert(a), np.eye(10), atol=1e-8)


@pytest.mark.parametrize("order", range(1, 31))
def test_spd_invert_is_numpy_inv_bit_for_bit(order):
    # the inverse is the solve against the identity, the same LAPACK call
    # np.linalg.inv makes
    for seed in range(3):
        b = np.random.default_rng([seed, order]).normal(size=(order + 2, order))
        a = b.T @ b
        assert np.array_equal(spd_invert(a), np.linalg.inv(a))


def test_check_symmetric():
    check_symmetric(np.array([[1.0, 2.0], [2.0, 3.0]]))
    with pytest.raises(ValueError):
        check_symmetric(np.array([[1.0, 2.0], [2.1, 3.0]]))
    with pytest.raises(ValueError):
        check_symmetric(np.ones((2, 3)))


def test_spd_invert_rejects_an_asymmetric_matrix():
    with pytest.raises(ValueError, match="not symmetric"):
        spd_invert(np.array([[2.0, 1.0], [1.1, 2.0]]))


@pytest.mark.parametrize(
    "entry_point",
    [lambda a: spd_solve(a, np.ones(3)), spd_invert],
    ids=["spd_solve", "spd_invert"],
)
def test_singular_matrix_with_a_rounding_sized_pivot_is_reported(entry_point):
    # the last pivot comes out at about 1e-8 instead of 0; a solve or an
    # inverse behind it would raise numpy's own LinAlgError
    a = np.array([[10 / 3, 0.0, 0.0], [0.0, 2 / 3, 2 / 3], [0.0, 2 / 3, 2 / 3]])
    with pytest.raises(SingularMatrixError) as err:
        entry_point(a)
    assert err.value.pivot == 2


def _spd(seed, order):
    b = np.random.default_rng(seed).normal(size=(order + 2, order))
    return b.T @ b


@pytest.mark.parametrize(
    "singular",
    [
        # indefinite: numpy's stacked factorization raises for the stack
        np.array([[1.0, 2.0, 0.0], [2.0, 1.0, 0.0], [0.0, 0.0, 1.0]]),
        # exactly singular with a rounding-sized last pivot: it factors and
        # fails the pivot floor
        np.array([[10 / 3, 0.0, 0.0], [0.0, 2 / 3, 2 / 3], [0.0, 2 / 3, 2 / 3]]),
    ],
    ids=["raises", "pivot-floor"],
)
def test_stacked_cholesky_names_only_the_failing_matrix(singular):
    stack = np.array([_spd(1, 3), _spd(2, 3), singular, _spd(3, 3)])
    rhs = np.random.default_rng(4).normal(size=(4, 3))
    pivot = cholesky_pivots(singular[None])[0]
    assert cholesky_pivots(stack) == {2: pivot}
    x, failed = spd_solve_stack(stack, rhs)
    assert failed == {2: pivot}
    assert not x[2].any()
    for i in (0, 1, 3):
        assert np.array_equal(x[i], spd_solve(stack[i], rhs[i]))
