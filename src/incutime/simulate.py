"""Simulation engine: ground-truth distributions and censored-data samplers.

The generative model draws an exposure window length E, an infection moment
I uniform on [0, E], and an incubation time U from the truth distribution;
symptom onset happens at I + U.  Single mode reports the onset day
ceil(I + U); double mode reports an integer onset window around it.

The truth is a truncated Weibull or a truncated exponential on [0, m1].
Both have closed-form day integrals, so the coverage targets Fbar(i) need
no quadrature and the module runs on numpy and ``math`` alone.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .model import Dataset, validate_dataset
from .parametric import TruncExpParams, trunc_exp_cdf, trunc_exp_fbar

FAMILIES = ("weibull", "truncexp")

# Defaults matching the simulation studies in the acceptance suite.  The
# Weibull truth uses cdf (1 - exp(-b x^a)) / (1 - exp(-b m1^a)) on [0, m1],
# i.e. shape a and rate b acting on x**a.
WEIBULL_A = 3.035
WEIBULL_B = 0.0026


@dataclass(frozen=True)
class TruthSpec:
    """Ground-truth incubation distribution on [0, m1].

    ``family`` is ``"weibull"``, with cdf proportional to 1 - exp(-b x^a),
    or ``"truncexp"``, an exponential with scale ``a`` (``b`` unused).
    """

    family: str
    a: float | None = None
    b: float | None = None
    m1: int = 15

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if self.m1 < 1:
            raise ValueError("m1 must be >= 1")
        if self.family == "weibull":
            if self.a is None or self.b is None:
                raise ValueError("weibull truth needs both a and b")
            if self.a <= 0 or self.b <= 0:
                raise ValueError("weibull parameters must be positive")
        elif self.a is None or self.a <= 0:
            raise ValueError("truncexp truth needs a positive scale a")


@dataclass(frozen=True)
class ExposureSpec:
    """Exposure window length, uniform on {1, ..., m2}."""

    m2: int = 15

    def __post_init__(self):
        if self.m2 < 1:
            raise ValueError("m2 must be >= 1")


def truth_cdf(x, spec: TruthSpec):
    """Truth distribution function at x (scalar or array)."""
    if spec.family == "truncexp":
        return trunc_exp_cdf(x, TruncExpParams(a=spec.a, m1=spec.m1))
    x = np.asarray(x, dtype=float)
    inside = np.clip(x, 0.0, spec.m1)
    body = -np.expm1(-spec.b * inside**spec.a)
    body = body / -np.expm1(-spec.b * float(spec.m1) ** spec.a)
    out = np.where(x <= 0.0, 0.0, np.where(x >= spec.m1, 1.0, body))
    return float(out) if out.ndim == 0 else out


_EPS = 2.0**-52  # float64 machine epsilon


def _survival_integral(end: float, a: float, b: float) -> float:
    """Integral of exp(-b u^a) over [0, end], for a, b > 0 and end >= 0.

    With s = 1/a and x = b end^a this is b^-s / a * gamma_lower(s, x)
    (Abramowitz & Stegun 6.5.29).  As in Numerical Recipes (3rd ed.,
    section 6.2), gamma_lower is the series x^s e^-x sum_k x^k / (s (s+1)
    ... (s+k)) below x = s + 1, and Gamma(s) minus the upper function
    x^s e^-x h, h a continued fraction evaluated by Lentz's method, above.
    The factor b^-s x^s / (a s) is exactly ``end`` and is not formed, so a
    small shape a neither overflows b^-s or Gamma(s) nor loses digits.
    """
    s = 1.0 / a
    x = b * end**a
    if x < s + 1.0:
        term = total = 1.0
        k = s
        while term > total * _EPS:
            k += 1.0
            term *= x / k
            total += term
        return end * math.exp(-x) * total
    # for x >= s + 1 no denominator comes near 0 and h converges within
    # about 100 terms
    bn = x + 1.0 - s
    d = h = 1.0 / bn
    c = math.inf
    for n in range(1, 1000):
        an = -n * (n - s)
        bn += 2.0
        d = 1.0 / (an * d + bn)
        c = bn + an / c
        delta = d * c
        h *= delta
        if abs(delta - 1.0) <= _EPS:
            break
    # Gamma(s) b^-s / a = Gamma(s + 1) b^-s, the integral over [0, inf)
    whole = math.exp(math.lgamma(s + 1.0) - s * math.log(b))
    return whole - end * math.exp(-x) * h / a


def true_fbar(spec: TruthSpec, i: int) -> float:
    """Day-averaged truth value: integral of the truth cdf over (i-1, i]."""
    if i < 1:
        raise ValueError("day index must be >= 1")
    if spec.family == "truncexp":
        return trunc_exp_fbar(i, TruncExpParams(a=spec.a, m1=spec.m1))
    if i > spec.m1:
        return 1.0
    a, b = spec.a, spec.b
    day = _survival_integral(i, a, b) - _survival_integral(i - 1, a, b)
    return (1.0 - day) / -math.expm1(-b * float(spec.m1) ** a)


def draw_incubation(n: int, spec: TruthSpec, rng: np.random.Generator) -> np.ndarray:
    """Inverse-cdf sampling by bisection (family-agnostic, 1e-12 accurate)."""
    targets = rng.random(n)
    lo = np.zeros(n)
    hi = np.full(n, float(spec.m1))
    for _ in range(52):
        mid = 0.5 * (lo + hi)
        below = truth_cdf(mid, spec) < targets
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return 0.5 * (lo + hi)


def _check_identifiable(truth: TruthSpec, exposure: ExposureSpec) -> None:
    if exposure.m2 <= truth.m1 / 2:
        warnings.warn(
            f"exposure windows up to m2={exposure.m2} are short relative to the "
            f"incubation support m1={truth.m1}; late masses may be poorly "
            "identified",
            UserWarning,
            stacklevel=3,
        )


def _draw_exposures(n: int, exposure: ExposureSpec, rng: np.random.Generator):
    days = np.arange(1, exposure.m2 + 1)
    return rng.choice(days, size=n)


def singly_records_from_draws(e, infection, incubation):
    """Assemble raw single mode records: onset day is the ceiling of I + U."""
    s = np.ceil(np.asarray(infection) + np.asarray(incubation)).astype(np.int64)
    return np.asarray(e, dtype=np.int64), np.maximum(s, 1)


def doubly_records_from_draws(e, onset, left_offsets, right_offsets):
    """Assemble raw double mode records around the continuous onset moment.

    The window right end is uniform on {ceil(onset), ..., ceil(onset) + 3} and
    the left end uniform on {floor(onset) - 3, ..., floor(onset)} clipped at 0.
    The floor is taken as ceil - 1 so the window is nonempty even in the
    measure-zero case of an integer onset.
    """
    upper = np.ceil(np.asarray(onset)).astype(np.int64)
    upper = np.maximum(upper, 1)
    s_r = upper + np.asarray(right_offsets, dtype=np.int64)
    s_l = np.maximum(upper - 1 - np.asarray(left_offsets, dtype=np.int64), 0)
    return np.asarray(e, dtype=np.int64), s_l, s_r


def draw_singly(
    n: int, truth: TruthSpec, exposure: ExposureSpec, seed
) -> Dataset:
    """n validated single mode records; identical seeds give identical data."""
    _check_identifiable(truth, exposure)
    rng = np.random.default_rng(seed)
    e = _draw_exposures(n, exposure, rng)
    infection = rng.random(n) * e
    incubation = draw_incubation(n, truth, rng)
    e, s = singly_records_from_draws(e, infection, incubation)
    return validate_dataset(Dataset.singly(e, s))


def draw_doubly(
    n: int, truth: TruthSpec, exposure: ExposureSpec, seed
) -> Dataset:
    """n validated double mode records; identical seeds give identical data."""
    _check_identifiable(truth, exposure)
    rng = np.random.default_rng(seed)
    e = _draw_exposures(n, exposure, rng)
    infection = rng.random(n) * e
    incubation = draw_incubation(n, truth, rng)
    right_offsets = rng.integers(0, 4, size=n)
    left_offsets = rng.integers(0, 4, size=n)
    e, s_l, s_r = doubly_records_from_draws(
        e, infection + incubation, left_offsets, right_offsets
    )
    return validate_dataset(Dataset.doubly(e, s_l, s_r))
