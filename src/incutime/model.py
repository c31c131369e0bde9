"""Core data types for day-resolution incubation time estimation.

Observations pair an exposure window length ``e`` (days) with either a single
symptom onset day ``s`` or an onset window ``(s_l, s_r]``.  Estimates are
discrete probability masses on integer days; their partial sums form the
day-averaged distribution function reported to users.
"""

from __future__ import annotations

import csv
import logging
from dataclasses import dataclass, field

import numpy as np

from .errors import DatasetValidationError

logger = logging.getLogger(__name__)

SINGLE = "single"
DOUBLE = "double"
# the record columns of each mode, by field name
_COLUMNS = {SINGLE: ("e", "s"), DOUBLE: ("e", "s_l", "s_r")}


@dataclass(frozen=True)
class Dataset:
    """A homogeneous collection of observations, stored column-wise.

    Column storage keeps resampling and weight construction vectorized.
    """

    mode: str
    e: np.ndarray
    s: np.ndarray | None = None
    s_l: np.ndarray | None = None
    s_r: np.ndarray | None = None

    def __post_init__(self):
        if self.mode not in (SINGLE, DOUBLE):
            raise DatasetValidationError(f"unknown mode {self.mode!r}")
        object.__setattr__(self, "e", np.asarray(self.e))
        if self.mode == SINGLE:
            if self.s is None:
                raise DatasetValidationError("single mode requires onset days s")
            object.__setattr__(self, "s", np.asarray(self.s))
            if self.s.shape != self.e.shape:
                raise DatasetValidationError("e and s must have equal length")
        else:
            if self.s_l is None or self.s_r is None:
                raise DatasetValidationError("double mode requires s_l and s_r")
            object.__setattr__(self, "s_l", np.asarray(self.s_l))
            object.__setattr__(self, "s_r", np.asarray(self.s_r))
            if self.s_l.shape != self.e.shape or self.s_r.shape != self.e.shape:
                raise DatasetValidationError("e, s_l and s_r must have equal length")

    @classmethod
    def singly(cls, e, s) -> "Dataset":
        return cls(mode=SINGLE, e=e, s=s)

    @classmethod
    def doubly(cls, e, s_l, s_r) -> "Dataset":
        return cls(mode=DOUBLE, e=e, s_l=s_l, s_r=s_r)

    @property
    def n(self) -> int:
        return int(self.e.shape[0])

    @classmethod
    def from_columns(cls, mode: str, columns) -> "Dataset":
        """The dataset of ``mode`` whose ``columns`` are the given ones."""
        return cls(mode=mode, **dict(zip(_COLUMNS[mode], columns)))

    @property
    def columns(self) -> tuple:
        """The record columns: (e, s) in single mode, (e, s_l, s_r) in double."""
        return tuple(getattr(self, name) for name in _COLUMNS[self.mode])

    def take(self, indices) -> "Dataset":
        """Row subset (used by resampling); preserves mode."""
        idx = np.asarray(indices)
        return Dataset.from_columns(self.mode, [col[idx] for col in self.columns])

    def __eq__(self, other) -> bool:
        if not isinstance(other, Dataset):
            return NotImplemented
        return self.mode == other.mode and all(
            np.array_equal(a, b) for a, b in zip(self.columns, other.columns)
        )


# Up to this magnitude every integer is exact in float64, the weight kernels'
# arithmetic; no grid that long could be fitted anyway.
_DAY_LIMIT = 2**53


def _as_int_column(values: np.ndarray, name: str) -> np.ndarray:
    """Coerce a column to int64, rejecting by record any entry that is not
    an integer of magnitude below 2**53.

    A non-finite entry is rejected the same way, so the cast never wraps
    anything around.  An int64 column is returned as it is, not copied.
    """
    arr = np.asarray(values)
    if arr.dtype.kind in "iu":
        # min and max neither wrap at -2**63, as np.abs does, nor leave
        # n-sized temporaries on the heap for a valid column
        if not arr.size or (-_DAY_LIMIT < arr.min() and arr.max() < _DAY_LIMIT):
            return arr.astype(np.int64, copy=False)
        bad = np.flatnonzero((arr <= -_DAY_LIMIT) | (arr >= _DAY_LIMIT))
    else:
        rounded = np.floor(arr)
        bad = np.flatnonzero((arr != rounded) | ~(np.abs(rounded) < _DAY_LIMIT))
    if bad.size:
        raise DatasetValidationError(
            f"{name} = {arr[bad[0]]} is not an integer of magnitude below 2**53",
            record_index=int(bad[0]),
        )
    return arr.astype(np.int64, copy=False)


def validate_dataset(data: Dataset) -> Dataset:
    """Check and normalize raw records.

    Single mode requires ``e >= 1`` and ``s >= 1``; records reporting onset
    before the exposure window closed (``s < e``) are normalized by clamping
    the window to ``e = s``, so the record means "exposed throughout (0, s]".
    Double mode requires ``e >= 1``, ``s_r >= 1`` and ``s_l < s_r``; negative
    ``s_l`` is clipped to 0.  Validation is idempotent.
    """
    if data.n == 0:
        raise DatasetValidationError("empty dataset")
    e = _as_int_column(data.e, "e")
    bad = np.flatnonzero(e < 1)
    if bad.size:
        raise DatasetValidationError(
            f"exposure length e = {e[bad[0]]} must be >= 1", record_index=int(bad[0])
        )
    if data.mode == SINGLE:
        s = _as_int_column(data.s, "s")
        bad = np.flatnonzero(s < 1)
        if bad.size:
            raise DatasetValidationError(
                f"onset day s = {s[bad[0]]} must be >= 1", record_index=int(bad[0])
            )
        clamped = np.flatnonzero(s < e)
        if clamped.size:
            for i in clamped:
                logger.debug(
                    "record %d: onset day %d precedes end of exposure window %d; "
                    "clamping e to %d",
                    i, s[i], e[i], s[i],
                )
            logger.info("clamped exposure window on %d record(s)", clamped.size)
            e = np.minimum(e, s)
        return Dataset.singly(e, s)

    s_l = _as_int_column(data.s_l, "s_l")
    s_r = _as_int_column(data.s_r, "s_r")
    bad = np.flatnonzero(s_r < 1)
    if bad.size:
        raise DatasetValidationError(
            f"right onset bound s_r = {s_r[bad[0]]} must be >= 1",
            record_index=int(bad[0]),
        )
    bad = np.flatnonzero(s_l >= s_r)
    if bad.size:
        raise DatasetValidationError(
            f"onset window requires s_l < s_r, got ({s_l[bad[0]]}, {s_r[bad[0]]})",
            record_index=int(bad[0]),
        )
    if s_l.min() < 0:
        s_l = np.maximum(s_l, 0)
    return Dataset.doubly(e, s_l, s_r)


@dataclass(frozen=True)
class Grid:
    """Candidate mass point days 1..``top``: day d is column d - 1 of every
    weight matrix and grid mass vector."""

    top: int
    m1: int | None = None  # upper bound of the incubation support, if known

    def __post_init__(self):
        if self.m1 is not None and self.m1 < 1:
            raise ValueError("m1 must be >= 1")
        if not 1 <= self.top < _DAY_LIMIT or int(self.top) != self.top:
            raise ValueError("grid top must be an integer >= 1")
        object.__setattr__(self, "top", int(self.top))

    @property
    def points(self) -> np.ndarray:
        """The grid days 1..top."""
        return np.arange(1, self.top + 1)

    @property
    def horizon(self) -> int:
        """Last day that intervals cover: ``m1`` when set, else ``top``."""
        return self.m1 if self.m1 is not None else self.top


def candidate_grid(data: Dataset, m1: int | None = None) -> Grid:
    """Default mass point grid for a dataset.

    Without ``m1`` the grid runs over all days up to the largest observed
    onset (right onset bound in double mode); with ``m1`` it runs up to
    ``m1 + max(e)``, covering every day the model can place mass on.
    """
    if m1 is None:
        top = int(data.columns[-1].max())
    else:
        top = int(m1) + int(data.e.max())
    return Grid(top, m1)


@dataclass(frozen=True)
class MassFunction:
    """Discrete probability masses on days >= 1 (ValueError otherwise).

    Zero-mass points are pruned on construction; the remaining masses are
    renormalized only when their sum drifts from 1 by more than 1e-12.
    """

    support: np.ndarray
    probs: np.ndarray

    def __post_init__(self):
        support = _as_int_column(np.asarray(self.support), "support day")
        probs = np.asarray(self.probs, dtype=float)
        if support.shape != probs.shape:
            raise ValueError("support and probs must have equal length")
        keep = probs > 0.0
        support, probs = support[keep], probs[keep]
        if support.size == 0:
            raise ValueError("mass function needs at least one positive mass")
        if np.any(np.diff(support) <= 0):
            order = np.argsort(support)
            support, probs = support[order], probs[order]
            if np.any(np.diff(support) <= 0):
                raise ValueError("support days must be distinct")
        if support[0] < 1:
            raise ValueError("support days must be positive")
        total = probs.sum()
        if abs(total - 1.0) > 1e-12:
            probs = probs / total
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "probs", probs)

    @property
    def size(self) -> int:
        return int(self.support.size)

    def as_vector(self, grid: Grid) -> np.ndarray:
        """Masses embedded into a full grid vector."""
        if self.support[-1] > grid.top:
            raise ValueError("mass support is not contained in the grid")
        vec = np.zeros(grid.top)
        vec[self.support - 1] = self.probs
        return vec


@dataclass(frozen=True)
class DayCdf:
    """Day-averaged distribution function tabulated at days 1..M."""

    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.size == 0:
            raise ValueError("day CDF needs at least one value")
        if np.any(np.diff(vals) < -1e-9):
            raise ValueError("day CDF must be nondecreasing")
        if vals[0] < -1e-9 or vals[-1] > 1.0 + 1e-9:
            raise ValueError("day CDF values must lie in [0, 1]")
        object.__setattr__(self, "values", vals)

    def value(self, day: int) -> float:
        return float(self.value_at(np.asarray(day)))

    def value_at(self, days) -> np.ndarray:
        """Vectorized lookup; 0 before day 1 and 1 beyond the last day."""
        days = np.asarray(days)
        idx = np.clip(days - 1, 0, self.values.size - 1)
        out = self.values[idx]
        return np.where(days <= 0, 0.0, np.where(days > self.values.size, 1.0, out))


def cdf_from_mass(mass: MassFunction, grid: Grid) -> DayCdf:
    """Partial sums of the masses over the grid days 1..top."""
    if mass.support[-1] > grid.top:
        raise ValueError("mass support extends beyond the grid")
    increments = np.zeros(grid.top)
    increments[mass.support - 1] = mass.probs
    return DayCdf(values=np.minimum(np.cumsum(increments), 1.0))


@dataclass(frozen=True)
class IntervalRow:
    day: int
    estimate: float
    lower: float
    upper: float
    method: str
    variance: float
    raw_lower: float
    raw_upper: float


@dataclass
class IntervalTable:
    """Per-day point estimates with confidence bounds and method metadata."""

    rows: list
    metadata: dict = field(default_factory=dict)

    @classmethod
    def from_bounds(
        cls, points, estimates, raw_lower, raw_upper, variances, method, metadata
    ) -> "IntervalTable":
        """One row a day, its bounds clipped to [0, 1]; the unclipped bounds
        are kept as ``raw_lower`` and ``raw_upper``."""
        rows = [
            IntervalRow(
                day=int(day),
                estimate=float(est),
                lower=max(float(lo), 0.0),
                upper=min(float(hi), 1.0),
                method=method,
                variance=float(var),
                raw_lower=float(lo),
                raw_upper=float(hi),
            )
            for day, est, lo, hi, var in zip(
                points, estimates, raw_lower, raw_upper, variances
            )
        ]
        return cls(rows=rows, metadata=metadata)

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(
                ["day", "estimate", "lower", "upper", "method", "variance"]
            )
            for r in self.rows:
                writer.writerow(
                    [
                        r.day,
                        f"{r.estimate:.12g}",
                        f"{r.lower:.12g}",
                        f"{r.upper:.12g}",
                        r.method,
                        f"{r.variance:.12g}",
                    ]
                )


def _check_level_and_days(level: float, points, horizon: int) -> list:
    """The evaluation days as ints; ValueError for a ``level`` outside
    (0, 1) or a day outside 1..``horizon``."""
    if not 0.0 < level < 1.0:
        raise ValueError("level must be in (0, 1)")
    days = [int(day) for day in points]
    for day in days:
        if day < 1 or day > horizon:
            raise ValueError(f"evaluation day {day} outside 1..{horizon}")
    return days
