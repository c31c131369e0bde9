"""Likelihood weights linking observations to candidate mass points.

Each observation contributes a likelihood term that is linear in the masses:
``sum_j p_j * w_i(j)``.  In single mode the weight is an indicator of the
onset interval; in double mode it is the piecewise-linear kernel obtained by
integrating the day CDF over the onset window.

Identical records contribute identical terms, so the weights are stored once
per distinct record (a pattern) together with how many records share it.
Every likelihood sum is then a count-weighted sum over patterns, and its cost
scales with the number of distinct records rather than with n.  Finding the
patterns is the one pass over all n records: a stable lexicographic sort of
the record columns.  Each integer column whose span is below 2**16 is sorted
as an offset from its minimum in an 8- or 16-bit unsigned copy, where
numpy's stable sort is a radix sort; the day columns of the simulated and
benchmark datasets span a few dozen values.  A wider column is sorted as
int64, at the cost of the comparison sort.  Distinct records whose weight
rows are equal then share one row, so a row is a distinct weight row and
its count the number of records with that row.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleRecordError
from .model import SINGLE, Dataset, Grid


def _ramp(c, t):
    # (c - t) on 0 < t <= c, else 0; the building block of the window kernel
    return (c - t) * ((t > 0) & (t <= c))


def psi_weight(e, s_l, s_r, t):
    """Window kernel for a doubly censored record.

    psi(e, s_l, s_r, t) = (s_r - t)1{t in (0, s_r]} - (s_l - t)1{t in (0, s_l]}
                          - (s_r - e - t)1{t in (0, s_r - e]}
                          + (s_l - e - t)1{t in (0, s_l - e]}

    Summed against masses it reproduces the integral of F(u) - F(u - e) over
    the onset window (s_l, s_r] for any distribution with masses on positive
    integer days.  Broadcasts over array arguments.
    """
    e = np.asarray(e, dtype=float)
    s_l = np.asarray(s_l, dtype=float)
    s_r = np.asarray(s_r, dtype=float)
    t = np.asarray(t, dtype=float)
    out = (
        _ramp(s_r, t)
        - _ramp(s_l, t)
        - _ramp(s_r - e, t)
        + _ramp(s_l - e, t)
    )
    if out.ndim == 0:
        return float(out)
    return out


def window_weight(e, s_l, s_r, t):
    """Likelihood weight of the day-t mass for an onset window (s_l, s_r].

    With day-averaged masses the exact window likelihood is
    sum_{u=s_l+1}^{s_r} {Fbar(u) - Fbar(u-e)}, which is psi_weight with both
    bounds advanced by one day.  This pairing also collapses a one-day window
    onto the known-onset-day indicator row, keeping the two modes consistent.
    """
    return psi_weight(e, np.asarray(s_l) + 1, np.asarray(s_r) + 1, t)


@dataclass(frozen=True)
class WeightMatrix:
    """Per-pattern weights over the grid, with pattern counts.

    ``dense`` has one row per distinct weight row (pattern) and one column
    per grid day, day d in column d - 1 (ValueError for another width);
    ``counts`` says how many records share each row, and
    ``record_rows`` maps every record to its row.  A matrix built by hand
    from per-record rows needs neither: counts default to ones and the
    record map lists the records row by row.

    Every weight must be finite and nonnegative (ValueError otherwise), and
    every row must have a positive one: InfeasibleRecordError names the
    first record of a row without.  So the uniform masses give every row a
    positive likelihood term, and a fit can start there.

    Rows touch only a handful of grid points, but at these sizes dense
    vectorized products beat sparse row iteration, so the dense block is the
    working representation.
    """

    dense: np.ndarray
    grid: Grid
    counts: np.ndarray | None = None
    record_rows: np.ndarray | None = None

    def __post_init__(self):
        rows, width = self.dense.shape
        if width != self.grid.top:
            raise ValueError("weights need one column per grid day")
        counts = np.ones(rows) if self.counts is None else np.asarray(self.counts, float)
        if counts.shape != (rows,) or np.any(counts <= 0.0):
            raise ValueError("counts must be positive, one per row")
        if self.record_rows is None:
            record_rows = np.repeat(np.arange(rows), counts.astype(np.intp))
        else:
            record_rows = np.asarray(self.record_rows)
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "record_rows", record_rows)
        dense = self.dense
        # a NaN fails both comparisons
        if not (dense.min(initial=0.0) >= 0.0 and dense.max(initial=0.0) < np.inf):
            raise ValueError("weights must be finite and nonnegative")
        filled = dense.any(axis=1)
        if not filled.all():
            raise InfeasibleRecordError(int(np.flatnonzero(~filled[record_rows])[0]))

    @property
    def n(self) -> int:
        """Number of records, the total count."""
        return int(self.record_rows.size)

    @property
    def m(self) -> int:
        return int(self.dense.shape[1])

    def record_of(self, row: int) -> int:
        """The first record whose pattern is the given row."""
        return int(np.flatnonzero(self.record_rows == row)[0])


def _compact(col: np.ndarray) -> np.ndarray:
    """An integer column shifted to start at 0 and cast to the narrowest
    unsigned type when its span is below 2**16; any other column as it is.

    The shift keeps the order of the values, and numpy's stable sort of a
    16-bit or narrower column is a radix sort instead of a comparison sort.
    """
    if col.dtype.kind not in "iu" or not col.size:
        return col
    low = col.min()
    span = int(col.max()) - int(low)
    if span >= 2**16:
        return col
    return (col - low).astype(np.min_scalar_type(span))


def _group_records(columns):
    """Distinct rows of the stacked columns, in sorted ``np.unique(axis=0)`` order.

    Returns (first record of each pattern, record -> pattern map, counts).
    The sort and the pattern boundaries run on compact copies of the
    columns, which order and compare the records exactly as the columns do.
    """
    columns = [_compact(col) for col in columns]
    order = np.lexsort(columns[::-1])
    new = np.zeros(order.size, dtype=bool)
    new[:1] = True
    for col in columns:
        ranked = col[order]
        new[1:] |= ranked[1:] != ranked[:-1]
    starts = np.flatnonzero(new)
    record_rows = np.empty(order.size, dtype=np.intp)
    record_rows[order] = np.cumsum(new) - 1
    counts = np.diff(np.append(starts, order.size))
    return order[starts], record_rows, counts


def build_weight_matrix(data: Dataset, grid: Grid) -> WeightMatrix:
    """Evaluate the weights of every distinct record on the grid.

    Raises InfeasibleRecordError, from the ``WeightMatrix`` check, naming
    the first record with zero weight at every grid point; all such records
    share one merged row.
    """
    first, record_rows, counts = _group_records(data.columns)
    pts = grid.points[None, :]
    picked = [col[first][:, None] for col in data.columns]
    if data.mode == SINGLE:
        e, s = picked
        dense = ((pts > s - e) & (pts <= s)).astype(float)
    else:
        dense = window_weight(*picked, pts)
    kept, merged = _merge_equal_rows(dense)
    if kept.size < dense.shape[0]:
        dense = dense[kept]
        counts = np.bincount(merged, weights=counts)
        record_rows = merged[record_rows]
    return WeightMatrix(dense=dense, grid=grid, counts=counts, record_rows=record_rows)


def _merge_equal_rows(dense: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rows of dense that first show each distinct row, in order, and the
    map from every row to its distinct row.

    Distinct records can share one weight row, as double-mode windows whose
    kernels agree on the grid do.  Merging them leaves every likelihood sum
    the same but shorter.  The rows are sorted on a projection onto the
    weights 1 / (j + pi), which no two distinct rows of small integers share,
    and a row merges into the row before it in that order when their keys
    and all their entries are equal; so unequal rows never merge.  Each key
    is summed row by row, the same way for every row, so that equal rows
    get equal keys and end up next to each other.
    """
    rows = dense.shape[0]
    keys = (dense / (np.arange(dense.shape[1]) + np.pi)).sum(axis=1)
    order = np.argsort(keys)
    ranked = keys[order]
    tied = np.flatnonzero(ranked[1:] == ranked[:-1])
    if not tied.size:
        return np.arange(rows), np.arange(rows)
    new = np.ones(rows, dtype=bool)
    new[tied + 1] = (dense[order[tied + 1]] != dense[order[tied]]).any(axis=1)
    first = np.minimum.reduceat(order, np.flatnonzero(new))
    merged = np.empty(rows, dtype=np.intp)
    merged[order] = np.cumsum(new) - 1
    by_first = np.argsort(first)
    rank = np.empty_like(by_first)
    rank[by_first] = np.arange(by_first.size)
    return first[by_first], rank[merged]
