"""End-to-end acceptance checks for the estimator, its uncertainty
quantification, and the command line tools.

Each check prints a single PASS/FAIL verdict line on the real stdout so the
outcome per criterion stays visible even under pytest's output capture.
Simulation studies run at reduced replication counts chosen to keep the whole
module to a few minutes; the bands they assert are the corresponding binomial
3-sigma intervals.
"""

import os
import sys
import time

import numpy as np
import pytest
from scipy import integrate

from incutime import (
    BootstrapFailureError,
    DegenerateFitError,
    InfeasibleRecordError,
    MassFunction,
    bootstrap_ci,
    candidate_grid,
    cdf_from_mass,
    fit_npmle,
)
from incutime.cli import main, read_dataset_csv
from incutime.inference import fisher_result, wald_intervals
from incutime.parametric import (
    TruncExpParams,
    day_band_integral,
    fit_trunc_exp,
    trunc_exp_cdf,
    trunc_exp_fbar,
)
from incutime.simulate import (
    WEIBULL_A,
    WEIBULL_B,
    ExposureSpec,
    TruthSpec,
    draw_doubly,
    draw_singly,
    true_fbar,
)
from incutime.solver import fit_weights
from incutime.weights import build_weight_matrix, psi_weight

from oracle import fenchel_residuals, fit_em

TOL = 1e-10
DAYS = (4, 5, 6, 7, 8, 9)
WEIBULL = TruthSpec(family="weibull", a=WEIBULL_A, b=WEIBULL_B, m1=15)
TRUNCEXP = TruthSpec(family="truncexp", a=6.0, m1=15)
EXPOSURE = ExposureSpec(m2=15)


def _verdict(label: str, ok: bool, detail: str) -> None:
    line = f"[acceptance] {label}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line, file=sys.__stdout__, flush=True)
    assert ok, line


def _draw_until_feasible(draw, n, seed_base, attempt):
    """Windowed draws can produce a record whose onset window closes before
    day 1; such a record carries no likelihood weight, the draw is rejected,
    and the next sequential seed is used instead.  Feasibility only shows up
    when the weights are evaluated, so probe them here."""
    while True:
        seed = [seed_base, attempt]
        attempt += 1
        try:
            data = draw(n, WEIBULL, EXPOSURE, seed)
            build_weight_matrix(data, candidate_grid(data, 15))
            return data, attempt
        except InfeasibleRecordError:
            continue


@pytest.fixture(scope="session")
def certificate_fits():
    out = []
    for seed_base, draw in ((211, draw_singly), (231, draw_doubly)):
        attempt = 0
        for _ in range(50):
            data, attempt = _draw_until_feasible(draw, 500, seed_base, attempt)
            grid = candidate_grid(data, 15)
            start = time.perf_counter()
            mass, trace = fit_npmle(data, grid)
            elapsed = time.perf_counter() - start
            weights = build_weight_matrix(data, grid)
            residuals = fenchel_residuals(mass.as_vector(grid), weights)
            out.append(
                {
                    "mode": data.mode,
                    "trace": trace,
                    "elapsed": elapsed,
                    "residuals": residuals,
                }
            )
    return out


def test_criterion_01_optimality_certificate(certificate_fits):
    worst_grad = min(fit["residuals"][0] for fit in certificate_fits)
    worst_comp = max(abs(fit["residuals"][1]) for fit in certificate_fits)
    slowest = max(fit["elapsed"] for fit in certificate_fits)
    converged = all(fit["trace"].converged for fit in certificate_fits)
    ok = (
        converged
        and worst_grad >= -TOL
        and worst_comp <= TOL
        and slowest < 1.0
    )
    _verdict(
        "criterion 01 optimality certificate",
        ok,
        f"100 fits (50 single, 50 double, n=500): min partial "
        f"{worst_grad:.2e} >= -1e-10, complementarity {worst_comp:.2e} "
        f"<= 1e-10, slowest fit {slowest:.3f}s < 1s",
    )


def test_criterion_02_solver_agrees_with_self_consistency():
    worst = 0.0
    for rep in range(20):
        data = draw_singly(200, WEIBULL, EXPOSURE, [241, rep])
        grid = candidate_grid(data, 15)
        mass, _ = fit_npmle(data, grid)
        em_mass = fit_em(data, grid, tol=1e-10)
        f_solver = cdf_from_mass(mass, grid)
        f_em = cdf_from_mass(em_mass, grid)
        gap = max(
            abs(f_solver.value(int(day)) - f_em.value(int(day)))
            for day in grid.points
        )
        worst = max(worst, gap)
    ok = worst <= 1e-6
    _verdict(
        "criterion 02 solver cross-validation",
        ok,
        f"20 single-mode fits (n=200): sup-norm day-CDF gap to the "
        f"self-consistency fixed point {worst:.2e} <= 1e-6",
    )


def test_criterion_03_monotone_descent(certificate_fits):
    # the terminating step is exempt from strict decrease: the line search
    # accepts it once the predicted decrease falls below the floating point
    # resolution of the criterion, so that one difference may sit within a
    # few ulp of zero on either side
    ok = True
    for fit in certificate_fits:
        values = np.array([row.criterion for row in fit["trace"].rows])
        if values.size < 2:
            continue
        diffs = np.diff(values)
        resolution = 8.0 * np.finfo(float).eps * max(1.0, abs(values[-1]))
        if not (np.all(diffs[:-1] < 0.0) and diffs[-1] <= resolution):
            ok = False
            break
    _verdict(
        "criterion 03 monotone descent",
        ok,
        "criterion strictly decreasing until the final iteration in all "
        "100 traces",
    )


def test_criterion_04_kernel_matches_exact_integral():
    rng = np.random.default_rng(4)
    worst = 0.0
    for _ in range(1000):
        e = int(rng.integers(1, 21))
        s_l = int(rng.integers(0, 26))
        s_r = s_l + int(rng.integers(1, 13))
        size = int(rng.integers(1, 7))
        support = np.sort(rng.choice(np.arange(1, 31), size=size, replace=False))
        probs = rng.dirichlet(np.ones(size))
        mass = MassFunction(support=support, probs=probs)

        weighted = sum(
            psi_weight(e, s_l, s_r, int(t)) * p
            for t, p in zip(mass.support, mass.probs)
        )
        # the mass CDF is a step function, so the window integral of
        # F(t) - F(t - e) is an exact sum of unit-interval values
        step = lambda day: float(mass.probs[mass.support <= day].sum())
        exact = sum(step(k) - step(k - e) for k in range(s_l, s_r))
        worst = max(worst, abs(weighted - exact))
    ok = worst <= 1e-12
    _verdict(
        "criterion 04 kernel quadrature",
        ok,
        f"1000 random (e, s_l, s_r, mass) tuples: max |sum(psi * p) - exact "
        f"integral| = {worst:.2e} <= 1e-12",
    )


def test_criterion_05_band_integrals_match_quadrature():
    worst = 0.0
    for a in (0.5, 2.0, 6.0, 20.0):
        params = TruncExpParams(a=a, m1=15)
        cdf = lambda x: trunc_exp_cdf(x, params)
        for k in range(1, 21):
            for e in (1, 3, 7, 20):
                hi, _ = integrate.quad(cdf, k - 1, k)
                lo, _ = integrate.quad(cdf, k - e - 1, k - e)
                exact = hi - lo
                worst = max(worst, abs(day_band_integral(k, e, params) - exact))
    ok = worst <= 1e-10
    _verdict(
        "criterion 05 closed-form day integrals",
        ok,
        f"a in {{0.5, 2, 6, 20}} x k in 1..20 x e in {{1, 3, 7, 20}}: max "
        f"quadrature gap {worst:.2e} <= 1e-10",
    )


def test_criterion_06_mean_estimates_recover_truth():
    params = TruncExpParams(a=6.0, m1=15)
    truth = trunc_exp_fbar(6, params)
    check, _ = integrate.quad(lambda x: trunc_exp_cdf(x, params), 5.0, 6.0)
    assert abs(truth - check) <= 1e-10

    np_vals = np.empty(200)
    param_vals = np.empty(200)
    for rep in range(200):
        data = draw_singly(500, TRUNCEXP, EXPOSURE, [261, rep])
        grid = candidate_grid(data, 15)
        mass, _ = fit_npmle(data, grid)
        np_vals[rep] = cdf_from_mass(mass, grid).value(6)
        fit = fit_trunc_exp(data, 15)
        param_vals[rep] = trunc_exp_fbar(6, TruncExpParams(a=fit.a, m1=15))

    np_bias = abs(np_vals.mean() - truth)
    param_bias = abs(param_vals.mean() - truth)
    np_var = np_vals.var(ddof=1)
    param_var = param_vals.var(ddof=1)
    ok = np_bias < 0.02 and param_bias < 0.01 and np_var >= param_var
    _verdict(
        "criterion 06 mean recovery at day 6",
        ok,
        f"200 samples (n=500), truth {truth:.10f} (quadrature-checked): "
        f"|NPMLE mean - truth| = {np_bias:.4f} < 0.02, |parametric mean - "
        f"truth| = {param_bias:.4f} < 0.01, variances {np_var:.2e} >= "
        f"{param_var:.2e}",
    )


@pytest.fixture(scope="session")
def wald_study():
    reps = 200
    n = 1000
    fhat_at_days = np.empty((reps, len(DAYS)))
    var_at_days = np.empty((reps, len(DAYS)))
    hits = np.zeros(len(DAYS), dtype=int)
    target = np.array([true_fbar(WEIBULL, day) for day in DAYS])
    attempt = 0
    for rep in range(reps):
        while True:
            data, attempt = _draw_until_feasible(draw_singly, n, 271, attempt)
            grid = candidate_grid(data, 15)
            try:
                mass, _ = fit_npmle(data, grid)
                result = fisher_result(build_weight_matrix(data, grid), mass)
            except DegenerateFitError:
                continue
            break
        fhat = cdf_from_mass(mass, grid)
        table = wald_intervals(fhat, result.variances, data.n, DAYS, 0.95)
        for j, row in enumerate(table.rows):
            fhat_at_days[rep, j] = row.estimate
            var_at_days[rep, j] = result.variances[row.day - 1]
            if row.lower <= target[j] <= row.upper:
                hits[j] += 1
    return {
        "n": n,
        "reps": reps,
        "coverage": hits / reps,
        "fhat": fhat_at_days,
        "variances": var_at_days,
    }


def test_criterion_07_wald_coverage_single(wald_study):
    coverage = wald_study["coverage"]
    ok = bool(np.all((coverage >= 0.90) & (coverage <= 0.99)))
    pairs = ", ".join(f"day {d}: {c:.3f}" for d, c in zip(DAYS, coverage))
    _verdict(
        "criterion 07 Wald coverage (single)",
        ok,
        f"200 reps (n=1000), nominal 0.95, band [0.90, 0.99]: {pairs}",
    )


def test_criterion_08_bootstrap_coverage_single():
    reps = 100
    n = 1000
    b = 300
    hits = np.zeros(len(DAYS), dtype=int)
    target = np.array([true_fbar(WEIBULL, day) for day in DAYS])
    attempt = 0
    for rep in range(reps):
        while True:
            data, attempt = _draw_until_feasible(draw_singly, n, 281, attempt)
            grid = candidate_grid(data, 15)
            try:
                weights = build_weight_matrix(data, grid)
                mass = fit_weights(weights)[0]
                table = bootstrap_ci(weights, mass, b, seed=[282, rep], points=DAYS)
            except (BootstrapFailureError, DegenerateFitError):
                continue
            break
        for j, row in enumerate(table.rows):
            if row.lower <= target[j] <= row.upper:
                hits[j] += 1
    coverage = hits / reps
    ok = bool(np.all((coverage >= 0.88) & (coverage <= 0.99)))
    pairs = ", ".join(f"day {d}: {c:.3f}" for d, c in zip(DAYS, coverage))
    _verdict(
        "criterion 08 bootstrap coverage (single)",
        ok,
        f"{reps} reps (n={n}, B={b}), nominal 0.95, band [0.88, 0.99]: "
        f"{pairs}",
    )


def test_criterion_09_variance_estimates_track_sampling_variance(wald_study):
    n = wald_study["n"]
    mean_est = wald_study["variances"].mean(axis=0)
    empirical = n * wald_study["fhat"].var(axis=0, ddof=1)
    ratios = mean_est / empirical
    ok = bool(np.all((ratios >= 0.7) & (ratios <= 1.3)))
    pairs = ", ".join(f"day {d}: {r:.3f}" for d, r in zip(DAYS, ratios))
    _verdict(
        "criterion 09 variance fidelity",
        ok,
        f"mean estimated variance over n x empirical variance of the "
        f"estimate, band [0.7, 1.3]: {pairs}",
    )


def test_criterion_10_averaged_wald_coverage_double():
    reps = 100
    n = 1000
    averaging = 200
    hits = np.zeros(len(DAYS), dtype=int)
    target = np.array([true_fbar(WEIBULL, day) for day in DAYS])
    attempt = 0
    for rep in range(reps):
        while True:
            data, attempt = _draw_until_feasible(draw_doubly, n, 291, attempt)
            grid = candidate_grid(data, 15)
            try:
                mass, _ = fit_npmle(data, grid)
                result = fisher_result(
                    build_weight_matrix(data, grid), mass,
                    averaging=averaging,
                    seed=[292, rep],
                )
            except DegenerateFitError:
                continue
            break
        fhat = cdf_from_mass(mass, grid)
        table = wald_intervals(fhat, result.variances, data.n, DAYS, 0.95)
        for j, row in enumerate(table.rows):
            if row.lower <= target[j] <= row.upper:
                hits[j] += 1
    coverage = hits / reps
    ok = bool(np.all((coverage >= 0.88) & (coverage <= 0.99)))
    pairs = ", ".join(f"day {d}: {c:.3f}" for d, c in zip(DAYS, coverage))
    _verdict(
        "criterion 10 averaged Wald coverage (double)",
        ok,
        f"{reps} reps (n={n}, information averaged over {averaging} "
        f"resamples), nominal 0.95, band [0.88, 0.99]: {pairs}",
    )


def test_criterion_11_reference_dataset_trace():
    path = os.environ.get("INCUTIME_REFERENCE_DATA")
    if not path:
        _verdict(
            "criterion 11 reference dataset",
            True,
            "skipped: set INCUTIME_REFERENCE_DATA to a single-mode CSV to "
            "enable",
        )
        pytest.skip("reference dataset not supplied")
    data = read_dataset_csv(path, "single")
    grid = candidate_grid(data)
    mass, trace = fit_npmle(data, grid)
    row7 = next(row for row in trace.rows if row.iteration == 7)
    gap = abs(row7.criterion - 1.4522973319)
    support_ok = mass.support.tolist() == [3, 4, 5, 6, 7, 8, 9]
    ok = gap <= 5e-10 and support_ok
    _verdict(
        "criterion 11 reference dataset",
        ok,
        f"iteration-7 criterion {row7.criterion:.10f} (|gap| = {gap:.1e} <= "
        f"5e-10), support {mass.support.tolist()} == days 3..9",
    )


def test_criterion_12_runs_are_reproducible(tmp_path):
    outputs = []
    for run in ("a", "b"):
        base = tmp_path / run
        base.mkdir()
        single = str(base / "single.csv")
        double = str(base / "double.csv")
        boot = str(base / "boot.csv")
        wald = str(base / "wald.csv")
        assert main(["simulate", "--mode", "single", "--n", "400",
                     "--seed", "9", "--out", single]) == 0
        assert main(["simulate", "--mode", "double", "--n", "300",
                     "--seed", "9", "--out", double]) == 0
        assert main(["ci", "--mode", "single", "--data", single, "--method",
                     "bootstrap", "--b", "40", "--seed", "1", "--m1", "15",
                     "--points", "4:9", "--out", boot]) == 0
        assert main(["ci", "--mode", "double", "--data", double, "--method",
                     "wald", "--fisher-averaged", "--b", "50", "--seed", "2",
                     "--m1", "15", "--points", "4:9", "--out", wald]) == 0
        outputs.append(
            tuple((base / name).read_bytes()
                  for name in ("single.csv", "double.csv", "boot.csv",
                               "wald.csv"))
        )
    ok = outputs[0] == outputs[1]
    _verdict(
        "criterion 12 reproducibility",
        ok,
        "simulate / bootstrap ci / averaged wald ci re-runs with the same "
        "seeds are byte-identical",
    )
