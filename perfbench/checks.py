"""Output checks, computed without the program's own code.

The likelihood weights are rebuilt here from their definitions (interval
indicator in single mode, window kernel in double mode) over the distinct
records, so a check costs little memory even at n = 100,000 and does not
trust the code it checks.
"""

from __future__ import annotations

import csv
import io

import numpy as np

CERT_TOL = 1e-9
ESTIMATE_TOL = 1e-9


def _ramp(c, t):
    return np.where((t > 0) & (t <= c), c - t, 0.0)


def patterns(columns):
    """Distinct records (rows of the stacked columns) and their counts."""
    return np.unique(np.column_stack(columns), axis=0, return_counts=True)


def weights(mode, rows, days):
    """Likelihood weight of each day's mass for each distinct record.

    single (e, s):      1 if s - e < day <= s
    double (e, sl, sr): sum over onset days u in (sl, sr] of
                        Fbar(u) - Fbar(u - e), as a kernel in the mass day
    """
    t = days[None, :].astype(float)
    if mode == "single":
        e, s = rows[:, 0:1], rows[:, 1:2]
        e = np.minimum(e, s)
        return ((t > s - e) & (t <= s)).astype(float)
    e, lo, hi = (rows[:, k : k + 1].astype(float) for k in range(3))
    lo, hi = np.maximum(lo, 0) + 1, hi + 1
    return _ramp(hi, t) - _ramp(lo, t) - _ramp(hi - e, t) + _ramp(lo - e, t)


def certificate(mode, rows, counts, days, masses):
    """(min gradient, |<p, gradient>|) of the criterion at masses on days."""
    w = weights(mode, rows, days)
    terms = w @ masses
    if np.any(terms <= 0.0):
        return -np.inf, np.inf
    grad = 1.0 - (w.T @ (counts / terms)) / counts.sum()
    return float(grad.min()), float(abs(masses @ grad))


def certificate_error(mode, rows, counts, days, masses):
    """None if both optimality conditions hold within CERT_TOL, else a message."""
    min_grad, comp = certificate(mode, rows, counts, days, masses)
    if min_grad < -CERT_TOL or comp > CERT_TOL:
        return f"certificate fails: min gradient {min_grad:.3g}, complementarity {comp:.3g}"
    return None


def _rows(text, header):
    reader = csv.reader(io.StringIO(text))
    if next(reader, None) != header:
        raise ValueError(f"expected header {','.join(header)}")
    return [row for row in reader if row]


def fit_error(text, mode, rows, counts, days):
    """Check a `fit` CSV (day,mass,fbar): the written masses meet the certificate."""
    try:
        table = _rows(text, ["day", "mass", "fbar"])
        by_day = {int(r[0]): float(r[1]) for r in table}
        fbar = np.array([float(r[2]) for r in table])
    except (ValueError, IndexError) as exc:
        return f"unreadable fit output: {exc}"
    masses = np.array([by_day.get(int(d), 0.0) for d in days])
    if np.any(masses < 0.0):
        return "negative mass"
    if np.max(np.abs(np.cumsum(masses)[: fbar.size] - fbar)) > CERT_TOL:
        return "fbar column is not the partial sum of the masses"
    return certificate_error(mode, rows, counts, days, masses)


def ci_error(text, method, fbar, points):
    """Check a `ci` CSV against the point fit's day CDF ``fbar`` (day -> value)."""
    try:
        table = _rows(text, ["day", "estimate", "lower", "upper", "method", "variance"])
        days = [int(r[0]) for r in table]
        values = np.array([[float(x) for x in (r[1], r[2], r[3], r[5])] for r in table])
    except (ValueError, IndexError) as exc:
        return f"unreadable ci output: {exc}"
    if days != list(points):
        return f"days {days} differ from the requested points"
    if any(r[4] != method for r in table):
        return f"method column is not {method}"
    estimate, lower, upper, variance = values.T
    reference = np.array([fbar[d] for d in days])
    if np.max(np.abs(estimate - reference)) > ESTIMATE_TOL:
        return "estimate differs from the point fit"
    if not (np.all(0.0 <= lower) and np.all(lower <= estimate)):
        return "lower bound outside [0, estimate]"
    if not (np.all(estimate <= upper) and np.all(upper <= 1.0)):
        return "upper bound outside [estimate, 1]"
    if np.any(variance < 0.0):
        return "negative variance"
    return None
