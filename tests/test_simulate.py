import numpy as np
import pytest
from scipy import integrate

import incutime.simulate
from incutime import (
    ExposureSpec,
    TruncExpParams,
    TruthSpec,
    draw_doubly,
    draw_singly,
    trunc_exp_fbar,
    true_fbar,
    truth_cdf,
)
from incutime.simulate import (
    WEIBULL_A,
    WEIBULL_B,
    doubly_records_from_draws,
    draw_incubation,
    singly_records_from_draws,
)

WEIBULL = TruthSpec(family="weibull", a=WEIBULL_A, b=WEIBULL_B, m1=15)
TRUNCEXP = TruthSpec(family="truncexp", a=6.0, m1=15)
EXPOSURE = ExposureSpec(m2=15)

# frozen by direct evaluation of the truncated distribution functions
WEIBULL_CDF_AT_6 = 0.4500893430367442
TRUNCEXP_CDF_AT_6 = 0.6886482494358498
TRUNCEXP_FBAR_AT_6 = 0.6533147351194363


def test_truth_cdf_boundaries():
    for spec in (WEIBULL, TRUNCEXP):
        assert truth_cdf(0.0, spec) == 0.0
        assert truth_cdf(-1.0, spec) == 0.0
        assert truth_cdf(15.0, spec) == 1.0
        assert truth_cdf(99.0, spec) == 1.0


def test_truth_cdf_interior_values():
    assert truth_cdf(6.0, WEIBULL) == pytest.approx(WEIBULL_CDF_AT_6, abs=1e-13)
    assert truth_cdf(6.0, TRUNCEXP) == pytest.approx(TRUNCEXP_CDF_AT_6, abs=1e-13)


@pytest.mark.parametrize("a", [0.005, 0.1, 0.3, 0.5, 1.0, 2.0, WEIBULL_A, 5.0, 8.0])
@pytest.mark.parametrize("b", [WEIBULL_B, 0.05, 0.5])
def test_weibull_true_fbar_matches_quadrature(a, b):
    # the grid spans both branches of the incomplete gamma evaluation; at
    # a = 0.005, b^(-1/a) and Gamma(1/a) would overflow if they were formed
    spec = TruthSpec(family="weibull", a=a, b=b, m1=15)
    for i in range(1, 16):
        exact, _ = integrate.quad(
            lambda x: truth_cdf(x, spec), i - 1, i, epsabs=1e-13, limit=200
        )
        assert true_fbar(spec, i) == pytest.approx(exact, abs=1e-10)


def test_weibull_shape_one_is_the_truncated_exponential():
    # two closed forms checked against each other: 1 - exp(-b x) is the
    # exponential cdf with scale 1/b
    for b in (WEIBULL_B, 0.05, 0.5, 2.0):
        spec = TruthSpec(family="weibull", a=1.0, b=b, m1=15)
        params = TruncExpParams(a=1.0 / b, m1=15)
        for i in range(1, 17):
            assert true_fbar(spec, i) == pytest.approx(
                trunc_exp_fbar(i, params), abs=1e-13
            )


def test_truncexp_true_fbar_is_the_parametric_closed_form():
    for i in range(1, 17):
        assert true_fbar(TRUNCEXP, i) == trunc_exp_fbar(i, TruncExpParams(6.0, 15))


def test_true_fbar_truncexp_value():
    assert true_fbar(TRUNCEXP, 6) == pytest.approx(TRUNCEXP_FBAR_AT_6, abs=1e-10)


def test_true_fbar_beyond_support_is_one():
    assert true_fbar(TRUNCEXP, 16) == 1.0
    with pytest.raises(ValueError):
        true_fbar(TRUNCEXP, 0)


def test_draw_incubation_matches_cdf():
    rng = np.random.default_rng(51)
    draws = draw_incubation(100_000, TRUNCEXP, rng)
    xs = np.sort(draws)
    empirical = np.arange(1, xs.size + 1) / xs.size
    ks = np.max(np.abs(empirical - truth_cdf(xs, TRUNCEXP)))
    # 1% critical value of the Kolmogorov statistic
    assert ks < 1.628 / np.sqrt(xs.size)


@pytest.mark.parametrize("truth", [WEIBULL, TRUNCEXP], ids=["weibull", "truncexp"])
def test_draw_incubation_is_the_truth_quantile_of_its_uniform_draw(truth):
    u = np.random.default_rng(52).random(10_000)
    draws = draw_incubation(u.size, truth, np.random.default_rng(52))
    assert ((draws >= 0.0) & (draws <= truth.m1)).all()
    np.testing.assert_allclose(truth_cdf(draws, truth), u, rtol=0, atol=1e-12)


def test_singly_record_assembly_from_forced_draws():
    e, s = singly_records_from_draws([3], [0.4], [2.3])
    assert e[0] == 3 and s[0] == 3  # ceil(2.7)


def test_singly_normalizes_short_onsets():
    # forced draw with E=5 and I+U=1.2: validation clamps the window to (0, 2]
    from incutime import Dataset, validate_dataset

    e, s = singly_records_from_draws([5], [1.0], [0.2])
    assert validate_dataset(Dataset.singly(e, s)) == Dataset.singly([2], [2])


def test_doubly_window_candidates():
    # S = 5.3: right ends ceil(S)+{0..3}, left ends floor(S)-{0..3}
    for roff in range(4):
        for loff in range(4):
            e, s_l, s_r = doubly_records_from_draws([2], [5.3], [loff], [roff])
            assert s_r[0] == 6 + roff
            assert s_l[0] == 5 - loff


def test_doubly_window_left_end_clips_at_zero():
    e, s_l, s_r = doubly_records_from_draws([2], [0.4], [3], [0])
    assert s_l[0] == 0 and s_r[0] == 1


def test_doubly_offset_frequencies(monkeypatch):
    # every incubation time at day 5 and one-day exposure windows pin ceil(S)
    # at 6, so the window ends expose the offsets directly
    def at_day_5(n, spec, rng):
        rng.random(n)  # the draw's share of the stream, as inverse-cdf sampling
        return np.full(n, 5.0)

    monkeypatch.setattr(incutime.simulate, "draw_incubation", at_day_5)
    n = 40_000
    with pytest.warns(UserWarning):  # m2=1 trips the identifiability warning
        data = draw_doubly(n, TRUNCEXP, ExposureSpec(m2=1), seed=52)
    sigma = np.sqrt(n * 0.25 * 0.75)
    for d in range(4):
        assert abs(np.sum(data.s_r == 6 + d) - n / 4) < 3 * sigma
        assert abs(np.sum(data.s_l == 5 - d) - n / 4) < 3 * sigma


def test_draws_are_deterministic():
    a = draw_singly(200, WEIBULL, EXPOSURE, seed=53)
    b = draw_singly(200, WEIBULL, EXPOSURE, seed=53)
    assert a == b
    c = draw_doubly(200, WEIBULL, EXPOSURE, seed=53)
    d = draw_doubly(200, WEIBULL, EXPOSURE, seed=53)
    assert c == d
    assert not (draw_singly(200, WEIBULL, EXPOSURE, seed=54) == a)


def test_short_exposure_windows_warn():
    with pytest.warns(UserWarning):
        draw_singly(10, TRUNCEXP, ExposureSpec(m2=7), seed=55)


def test_monte_carlo_day_average_matches_quadrature():
    # F-bar(i) = P(U + V <= i) for V uniform on (0,1) independent of U
    rng = np.random.default_rng(56)
    draws = draw_incubation(100_000, TRUNCEXP, rng) + rng.random(100_000)
    assert np.mean(draws <= 6.0) == pytest.approx(TRUNCEXP_FBAR_AT_6, abs=0.01)
