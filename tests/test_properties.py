"""Property tests over small random datasets in both observation modes.

The pattern-compressed likelihood must agree with the per-record sums it
replaces, a resample's count vector over the rows must reproduce the
weights of the resampled records exactly, and the fit must not depend on
the order of the records.  The one-pass CSV reader must decline a body or
read it to the general parse's int64 array.
"""

import io

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
from incutime.linalg import PairProducts, spd_invert, spd_solve  # noqa: E402
from incutime.bootstrap import _replicate_counts, _replicate_indices  # noqa: E402
from incutime.cli import _parse_body, _read_canonical  # noqa: E402
from incutime.em import fit_em  # noqa: E402
from incutime.solver import (  # noqa: E402
    _minimize,
    _minimize_batch,
    _kept_columns,
    _QuadraticModel,
)
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
    model = _QuadraticModel(
        PairProducts(W.dense),
        (W.dense @ p)[None],
        W.counts[None],
        np.array([W.n]),
        phi_gradient(p, W)[None],
    )
    np.testing.assert_allclose(model.gram[0], hessian, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(model.b[0], 1.0 - 2.0 * grad, rtol=1e-12, atol=1e-12)


@SETTINGS
@given(data=datasets(), draws=st.lists(st.integers(0, 10**6), min_size=1, max_size=30))
def test_resampled_weights_equal_reweighted_rows_bit_for_bit(data, draws):
    grid = candidate_grid(data)
    W = weights_or_skip(data, grid)
    idx = np.array(draws) % data.n
    rebuilt = build_weight_matrix(data.take(idx), grid)
    counts = np.bincount(W.record_rows[idx], minlength=W.dense.shape[0])
    # every drawn record's row, and every row with its count, in either order
    drawn_rows = W.dense[W.record_rows[idx]]
    assert np.array_equal(drawn_rows, rebuilt.dense[rebuilt.record_rows])
    drawn = np.flatnonzero(counts)
    rows, weights = W.dense[drawn], counts[drawn]
    order = np.lexsort(rows.T[::-1])
    rebuilt_order = np.lexsort(rebuilt.dense.T[::-1])
    assert np.array_equal(rows[order], rebuilt.dense[rebuilt_order])
    assert np.array_equal(weights[order], rebuilt.counts[rebuilt_order])


@SETTINGS
@given(data=datasets())
def test_patterns_follow_sorted_unique_order(data):
    # the distinct records in sorted order, each record whose weight row
    # equals an earlier one's merged into that one's row
    W = weights_or_skip(data, candidate_grid(data))
    columns = (data.e, data.s) if data.mode == "single" else (data.e, data.s_l, data.s_r)
    keys = np.column_stack(columns)
    unique, first, inverse = np.unique(
        keys, axis=0, return_index=True, return_inverse=True
    )
    distinct, row_of_pattern = [], []
    for row in per_record_rows(data.take(first), W.grid):
        same = [j for j, seen in enumerate(distinct) if np.array_equal(seen, row)]
        if not same:
            distinct.append(row)
        row_of_pattern.append(same[0] if same else len(distinct) - 1)
    record_rows = np.array(row_of_pattern)[inverse.reshape(-1)]
    assert np.array_equal(W.dense, np.array(distinct))
    assert np.array_equal(W.record_rows, record_rows)
    assert np.array_equal(W.counts, np.bincount(record_rows))
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
@example(data=validate_dataset(Dataset.singly([1, 1, 2, 2], [5, 7, 6, 7])))
def test_fit_meets_the_certificate_or_does_not_converge(data):
    # a support column that depends linearly on the others leaves the
    # working support, so a singular normal matrix is no longer a failure of
    # the fit; where p is not unique, the pattern probabilities W @ p still
    # are, and the self-consistency iteration must reach the same ones.  It
    # stops at a 1e-10 gradient residual, which pins its criterion to about
    # 1e-10 but W @ p only to about the square root of that (the last
    # example stops 5e-6 away, and 1,500 random datasets up to 5e-5 away)
    grid = candidate_grid(data)
    W = weights_or_skip(data, grid)
    try:
        _, trace = fit_npmle(data, grid)
    except NonConvergenceError:
        return
    p = trace.final_masses
    min_grad, comp = fenchel_residuals(p, W)
    assert min_grad >= -1e-10 and comp <= 1e-10
    reference = fit_em(data, grid).as_vector(grid)
    assert phi(p, W) <= phi(reference, W) + 1e-12
    np.testing.assert_allclose(W.dense @ p, W.dense @ reference, rtol=0, atol=1e-3)


@SETTINGS
@given(data=datasets(), seed=st.integers(0, 2**32 - 1))
@example(
    data=validate_dataset(Dataset.singly([2, 2, 5, 2, 4, 2], [8, 7, 6, 4, 4, 9])),
    seed=16,
)
@example(
    data=validate_dataset(
        Dataset.doubly([1, 1, 4, 3, 3], [0, 2, 0, 4, 0], [1, 3, 2, 9, 1])
    ),
    seed=153,
)
@example(
    data=validate_dataset(
        Dataset.doubly([3, 3, 4, 1, 1, 1], [4, 1, 6, 0, 0, 0], [7, 4, 8, 1, 4, 3])
    ),
    seed=963,
)
def test_refit_started_at_the_fit_certifies_whenever_a_cold_refit_does(data, seed):
    # a replicate's rows are a subset of the fit's, so the fit's masses are a
    # feasible start for every refit, and their support its first working
    # set; the examples are replicates on which that support holds columns
    # the replicate makes dependent or zero
    grid = candidate_grid(data)
    W = weights_or_skip(data, grid)
    counts = _replicate_counts(W, seed, 0)[None]
    try:
        p_hat, _ = _minimize(W)
    except NonConvergenceError:
        assume(False)
    _, cold_errors, _ = _minimize_batch(W, counts)
    assume(cold_errors == [None])
    warm, errors, _ = _minimize_batch(W, counts, start=p_hat)
    assert errors == [None]
    sub = build_weight_matrix(data.take(_replicate_indices(seed, 0, W.n)), grid)
    min_grad, comp = fenchel_residuals(warm[0], sub)
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


@SETTINGS
@given(data=datasets(), m1=st.none() | st.integers(1, 9))
@example(data=validate_dataset(Dataset.singly([3, 1], [3, 3])), m1=None)
@example(data=validate_dataset(Dataset.doubly([5], [7], [10])), m1=None)
def test_kept_columns_are_the_columns_no_other_column_dominates(data, m1):
    # a column is dropped when another column is entrywise at least as
    # large and differs from it or comes before it; comparing runs of equal
    # columns with their neighbouring runs finds exactly those columns (the
    # first example's days 1 and 2 are equal and below day 3)
    W = weights_or_skip(data, candidate_grid(data, m1))
    cols = W.dense.T
    below = (cols[:, None, :] <= cols[None, :, :]).all(axis=2)
    equal = below & below.T
    j, k = np.indices(below.shape)
    dominated = ((below & ~equal) | (equal & (k < j))).any(axis=1)
    assert np.array_equal(_kept_columns(W.dense, None), np.flatnonzero(~dominated))


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


ENTRY_POINTS = {
    "spd_solve": lambda a: spd_solve(a, np.ones(a.shape[0])),
    "spd_invert": spd_invert,
}


def failing_pivot(entry_point, a):
    try:
        ENTRY_POINTS[entry_point](a)
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


@pytest.mark.parametrize("entry_point", sorted(ENTRY_POINTS))
@SETTINGS
@given(factors=ldl_matrices(), data=st.data())
def test_spd_entry_point_reports_the_reference_pivot_on_indefinite_matrices(
    entry_point, factors, data
):
    low, pivots, _ = factors
    bad = data.draw(st.integers(0, pivots.size - 1))
    pivots[bad] = -pivots[bad]
    a = (low * pivots) @ low.T
    a = 0.5 * (a + a.T)
    assert reference_pivot(a) == bad
    assert failing_pivot(entry_point, a) == bad


@pytest.mark.parametrize("entry_point", sorted(ENTRY_POINTS))
@SETTINGS
@given(factors=ldl_matrices(), data=st.data())
def test_spd_entry_point_reports_the_reference_pivot_on_nan_matrices(
    entry_point, factors, data
):
    low, pivots, _ = factors
    a = (low * pivots) @ low.T
    a = 0.5 * (a + a.T)
    i = data.draw(st.integers(0, pivots.size - 1))
    j = data.draw(st.integers(0, pivots.size - 1))
    a[i, j] = a[j, i] = np.nan
    expected = reference_pivot(a)
    assert expected is not None
    assert failing_pivot(entry_point, a) == expected


READER_BYTES = '0123456789,\n\r -+."'


@st.composite
def csv_bodies(draw):
    """(header, line end, body, canonical): a canonical body, one with a
    byte replaced, dropped or inserted, or bytes drawn from the CSV alphabet."""
    header = draw(st.sampled_from([["e", "s"], ["e", "sl", "sr"]]))
    line_end = draw(st.sampled_from(["\n", "\r\n"]))
    cell = st.text("0123456789", min_size=1, max_size=18)
    rows = draw(st.lists(
        st.lists(cell, min_size=len(header), max_size=len(header)),
        min_size=1, max_size=6,
    ))
    body = line_end.join(",".join(row) for row in rows)
    body += draw(st.sampled_from([line_end, ""]))
    kind = draw(st.sampled_from(["canonical", "changed", "drawn"]))
    if kind == "changed":
        at = draw(st.integers(0, len(body) - 1))
        byte = draw(st.sampled_from([*READER_BYTES, ""]))
        body = body[:at] + byte + body[at + draw(st.integers(0, 1)):]
    elif kind == "drawn":
        body = draw(st.text(READER_BYTES, max_size=40))
    return header, line_end, body, kind == "canonical"


@settings(max_examples=300, deadline=None)
@given(case=csv_bodies())
@example(case=(["e", "s"], "\r\n", "1,\r5\n2,3\r\n", False))
@example(case=(["e", "s"], "\n", "1,9999999999999999999\n", False))
@example(case=(["e", "s"], "\n", "", False))
def test_canonical_reader_declines_or_matches_the_general_parse(case):
    header, line_end, body, canonical = case
    fast = _read_canonical((",".join(header) + line_end + body).encode(), header)
    assert fast is not None or not canonical
    if fast is not None:
        general = _parse_body(io.StringIO(body, newline=""), "d.csv", len(header))
        assert general.dtype == fast.dtype == np.int64
        assert general.shape == fast.shape and (general == fast).all()
