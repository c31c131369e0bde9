"""Property tests over small random datasets in both observation modes.

The pattern-compressed likelihood must agree with the per-record sums it
replaces, resampling by counts must reproduce the weights of the resampled
records exactly, and the fit must not depend on the order of the records.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, assume, example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from incutime import (  # noqa: E402
    Dataset,
    IncutimeError,
    InfeasibleRecordError,
    NonConvergenceError,
    SingularMatrixError,
    build_weight_matrix,
    candidate_grid,
    fenchel_residuals,
    fit_npmle,
    phi,
    phi_gradient,
    validate_dataset,
)
from incutime.linalg import spd_solve  # noqa: E402
from incutime.bootstrap import _replicate_indices  # noqa: E402
from incutime.solver import SolverConfig, _minimize, _QuadraticModel  # noqa: E402
from incutime.weights import window_weight  # noqa: E402

SETTINGS = settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


@st.composite
def datasets(draw):
    n = draw(st.integers(1, 14))
    e = draw(st.lists(st.integers(1, 5), min_size=n, max_size=n))
    if draw(st.booleans()):
        s = draw(st.lists(st.integers(1, 9), min_size=n, max_size=n))
        return validate_dataset(Dataset.singly(e, s))
    s_r = draw(st.lists(st.integers(1, 9), min_size=n, max_size=n))
    s_l = [draw(st.integers(0, hi - 1)) for hi in s_r]
    return validate_dataset(Dataset.doubly(e, s_l, s_r))


def weights_or_skip(data, grid):
    try:
        return build_weight_matrix(data, grid)
    except InfeasibleRecordError:
        assume(False)


def per_record_rows(data, grid):
    """One weight row per record, straight from the kernel definitions."""
    pts = grid.points[None, :]
    if data.mode == "single":
        lo = (data.s - data.e)[:, None]
        return ((pts > lo) & (pts <= data.s[:, None])).astype(float)
    return window_weight(data.e[:, None], data.s_l[:, None], data.s_r[:, None], pts)


@SETTINGS
@given(data=datasets(), seed=st.integers(0, 2**32 - 1))
def test_count_weighted_sums_equal_per_record_sums(data, seed):
    grid = candidate_grid(data)
    W = weights_or_skip(data, grid)
    rows = per_record_rows(data, grid)
    rng = np.random.default_rng(seed)
    p = 0.5 * rng.dirichlet(np.ones(W.m)) + 0.5 / W.m
    terms = rows @ p
    value = -np.mean(np.log(terms)) + p.sum() - 1.0
    grad = 1.0 - (rows.T @ (1.0 / terms)) / data.n
    scaled = rows / terms[:, None]
    hessian = (scaled.T @ scaled) / data.n
    assert W.n == data.n
    assert phi(p, W) == pytest.approx(value, rel=1e-12, abs=1e-12)
    np.testing.assert_allclose(phi_gradient(p, W), grad, rtol=1e-12, atol=1e-12)
    model = _QuadraticModel(W, p)
    np.testing.assert_allclose(model.gram, hessian, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(model.b, 1.0 - 2.0 * grad, rtol=1e-12, atol=1e-12)


@SETTINGS
@given(data=datasets(), draws=st.lists(st.integers(0, 10**6), min_size=1, max_size=30))
def test_resampled_weights_equal_reweighted_rows_bit_for_bit(data, draws):
    grid = candidate_grid(data)
    W = weights_or_skip(data, grid)
    idx = np.array(draws) % data.n
    rebuilt = build_weight_matrix(data.take(idx), grid)
    taken = W.take(idx)
    assert np.array_equal(taken.dense, rebuilt.dense)
    assert np.array_equal(taken.counts, rebuilt.counts)
    assert np.array_equal(taken.record_rows, rebuilt.record_rows)


@SETTINGS
@given(data=datasets())
def test_patterns_follow_sorted_unique_order(data):
    W = weights_or_skip(data, candidate_grid(data))
    columns = (data.e, data.s) if data.mode == "single" else (data.e, data.s_l, data.s_r)
    keys = np.column_stack(columns)
    unique, inverse, counts = np.unique(
        keys, axis=0, return_inverse=True, return_counts=True
    )
    assert np.array_equal(W.counts, counts)
    assert np.array_equal(W.record_rows, inverse.reshape(-1))
    for i in range(data.n):
        assert np.array_equal(W.dense[W.record_rows[i]], per_record_rows(data.take([i]), W.grid)[0])


@SETTINGS
@given(data=datasets(), perm_seed=st.integers(0, 2**32 - 1))
def test_fit_is_invariant_to_record_order(data, perm_seed):
    grid = candidate_grid(data)
    W = weights_or_skip(data, grid)
    shuffled = data.take(np.random.default_rng(perm_seed).permutation(data.n))
    try:
        mass, trace = fit_npmle(data, grid)
    except IncutimeError as exc:
        with pytest.raises(type(exc)):
            fit_npmle(shuffled, grid)
        return
    again, _ = fit_npmle(shuffled, grid)
    assert np.array_equal(mass.support, again.support)
    assert np.array_equal(mass.probs, again.probs)
    min_grad, comp = fenchel_residuals(trace.final_masses, W)
    assert min_grad >= -1e-10 and comp <= 1e-10


@SETTINGS
@given(data=datasets())
@example(data=validate_dataset(Dataset.doubly([4], [0], [4])))
@example(data=validate_dataset(Dataset.doubly([5], [2], [7])))
def test_fit_meets_the_certificate_or_does_not_converge(data):
    # a support column that depends linearly on the others gets zero mass,
    # so a singular normal matrix is no longer a failure of the fit
    grid = candidate_grid(data)
    W = weights_or_skip(data, grid)
    try:
        _, trace = fit_npmle(data, grid)
    except NonConvergenceError:
        return
    min_grad, comp = fenchel_residuals(trace.final_masses, W)
    assert min_grad >= -1e-10 and comp <= 1e-10


@SETTINGS
@given(data=datasets(), seed=st.integers(0, 2**32 - 1))
def test_refit_started_at_the_fit_certifies_whenever_a_cold_refit_does(data, seed):
    # a replicate's rows are a subset of the fit's, so the fit's masses are a
    # feasible start for every refit
    grid = candidate_grid(data)
    W = weights_or_skip(data, grid)
    sub = W.take(_replicate_indices(seed, 0, W.n))
    config = SolverConfig()
    try:
        p_hat, _ = _minimize(W, config)
        _minimize(sub, config)
    except NonConvergenceError:
        assume(False)
    warm, trace = _minimize(sub, config, start=p_hat)
    min_grad, comp = fenchel_residuals(warm, sub)
    assert trace.converged
    assert min_grad >= -1e-10 and comp <= 1e-10


@SETTINGS
@given(data=datasets())
@example(data=validate_dataset(Dataset.singly([2, 3, 1], [3, 5, 5])))
@example(data=validate_dataset(Dataset.doubly([5], [7], [10])))
def test_last_trace_row_is_evaluated_at_the_returned_masses(data):
    # the solver reuses each accepted iterate's likelihood terms for its
    # trace row; they must be the terms of the masses it returns
    grid = candidate_grid(data)
    W = weights_or_skip(data, grid)
    try:
        _, trace = fit_npmle(data, grid)
    except NonConvergenceError:
        assume(False)
    assume(trace.rows)
    last = trace.rows[-1]
    p = trace.final_masses
    assert last.criterion == phi(p, W)
    assert (last.min_gradient, last.complementarity) == fenchel_residuals(p, W)


def reference_pivot(a):
    """Failing pivot of a plain column Cholesky loop, or None if it succeeds."""
    n = a.shape[0]
    low = np.zeros_like(a)
    for j in range(n):
        d = a[j, j] - low[j, :j] @ low[j, :j]
        if not np.isfinite(d) or d <= 0.0:
            return j
        low[j, j] = np.sqrt(d)
        if j + 1 < n:
            low[j + 1 :, j] = (a[j + 1 :, j] - low[j + 1 :, :j] @ low[j, :j]) / low[j, j]
    return None


def solve_pivot(a):
    try:
        spd_solve(a, np.ones(a.shape[0]))
    except SingularMatrixError as exc:
        return exc.pivot
    return None


@st.composite
def ldl_matrices(draw):
    """a = L D L' with unit lower L and pivots D bounded away from zero."""
    k = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    low = np.tril(rng.uniform(-1.0, 1.0, size=(k, k)), -1) + np.eye(k)
    pivots = rng.uniform(0.5, 2.0, size=k)
    return low, pivots, rng


@SETTINGS
@given(factors=ldl_matrices(), data=st.data())
def test_spd_solve_reports_the_reference_pivot_on_indefinite_matrices(factors, data):
    low, pivots, _ = factors
    bad = data.draw(st.integers(0, pivots.size - 1))
    pivots[bad] = -pivots[bad]
    a = (low * pivots) @ low.T
    a = 0.5 * (a + a.T)
    assert reference_pivot(a) == bad
    assert solve_pivot(a) == bad


@SETTINGS
@given(factors=ldl_matrices(), data=st.data())
def test_spd_solve_reports_the_reference_pivot_on_nan_matrices(factors, data):
    low, pivots, _ = factors
    a = (low * pivots) @ low.T
    a = 0.5 * (a + a.T)
    i = data.draw(st.integers(0, pivots.size - 1))
    j = data.draw(st.integers(0, pivots.size - 1))
    a[i, j] = a[j, i] = np.nan
    expected = reference_pivot(a)
    assert expected is not None
    assert solve_pivot(a) == expected
