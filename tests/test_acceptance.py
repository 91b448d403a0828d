"""End-to-end acceptance checks for the shipped guarantees.

Every test here exercises one user-facing promise at its stated tolerance
and prints a single PASS/FAIL line carrying the measured quantities, so
``pytest tests/test_acceptance.py -s`` reads as a checklist.  All
configurations are frozen (derived seeds, fixed grids), which makes each
measured number reproducible bit for bit.  The high-dimensional benchmark
(d=2500 > n) is the longest check: about 23 s for its five repetitions on a
2-core x86-64 machine.
"""

import csv
import itertools
import math
import time
import warnings
from dataclasses import replace

import numpy as np
import pytest

from conftest import random_spec, rng_for
from smooth_threshold import tuning
from smooth_threshold.cli import main
from smooth_threshold.diagnostics import (
    bias_probe,
    gradient_check,
    restricted_curvature_probe,
    variance_probe,
)
from smooth_threshold.kernels import (
    BUILTIN_KERNELS,
    SurrogateLoss,
    get_kernel,
    kernel_moment,
    make_higher_order_gaussian,
    verify_proper,
)
from smooth_threshold.optimizer import PathConfig, path_following, suboptimality
from smooth_threshold.risk import SmoothedRiskSpec, empirical_gradient
from smooth_threshold.simulate import (
    SimSpec,
    derive_seed,
    estimation_error,
    generate,
    run_benchmark,
    top_support,
)
from smooth_threshold.tuning import (
    LepskiFit,
    build_lepski_grid,
    lepski_bandwidth,
    lepski_sparsity,
    select_lepski_bandwidth,
    select_lepski_sparsity,
)

GAUSS = get_kernel("gaussian")
GAUSS_FAMILY = ("gaussian", "gaussian-order-2", "gaussian-order-4",
                "gaussian-order-6")

# The moderate-dimensional benchmark instance reused by several checks.
BENCH_SIM = SimSpec(model="conditional_mean", n=2000, d=64, s=8, mu=2.0,
                    noise_sd=0.1, seed=20260815)


def report(name: str, ok: bool, detail: str) -> None:
    """One checklist line per guarantee; the assert repeats the detail."""
    print(("PASS " if ok else "FAIL ") + name + ": " + detail)
    assert ok, f"{name}: {detail}"


def test_toy_risk_derivatives_and_argmin(tmp_path):
    # The scalar two-atom example: hinge and exponential population risks
    # have strictly negative slope at the true threshold (so their minimizers
    # sit elsewhere) while the 0-1 risk is minimized exactly at 1.
    out = tmp_path / "toy.csv"
    t0 = time.perf_counter()
    code = main(["toy-risks", "--grid-start", "0", "--grid-stop", "2",
                 "--grid-step", "0.01", "--out", str(out)])
    elapsed = time.perf_counter() - t0
    assert code == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    thetas = np.array([float(r["theta"]) for r in rows])
    at_one = int(np.flatnonzero(thetas == 1.0)[0])
    d_hinge = float(rows[at_one]["hinge_derivative"])
    d_exp = float(rows[at_one]["exp_derivative"])
    risk01 = np.array([float(r["risk01"]) for r in rows])
    argmin_theta = float(thetas[int(np.argmin(risk01))])
    ok = (abs(d_hinge + 0.035) <= 0.003 and abs(d_exp + 0.059) <= 0.003
          and argmin_theta == 1.0 and elapsed < 5.0)
    report("toy risk slopes and 0-1 argmin", ok,
           f"dR_hinge(1) = {d_hinge:.4f} (target -0.035 +/- 0.003), "
           f"dR_exp(1) = {d_exp:.4f} (target -0.059 +/- 0.003), "
           f"argmin = {argmin_theta} (want 1.0), {elapsed:.2f}s")


def test_moderate_dimension_benchmark_accuracy():
    # 20 repetitions of generate -> 5-fold CV (one-SE rule) -> fit at the
    # frozen seed; mean errors must land in the published bands.
    t0 = time.perf_counter()
    res = run_benchmark(BENCH_SIM, GAUSS, tune="cv", delta=1.0, folds=5,
                        repetitions=20, seed=20260815)
    elapsed = time.perf_counter() - t0
    l2 = float(res.errors("l2").mean())
    linf = float(res.errors("linf").mean())
    ok = (0.05 <= l2 <= 0.12 and 0.015 <= linf <= 0.045 and elapsed < 600.0)
    report("benchmark accuracy (n=2000, d=64, s=8)", ok,
           f"mean l2 = {l2:.4f} in [0.05, 0.12], "
           f"mean linf = {linf:.4f} in [0.015, 0.045], {elapsed:.1f}s")


def test_high_dimension_benchmark_accuracy():
    # Same protocol at d=2500, s=50; five repetitions.
    sim = SimSpec(model="conditional_mean", n=2000, d=2500, s=50, mu=2.0,
                  noise_sd=0.1, seed=20260815)
    t0 = time.perf_counter()
    res = run_benchmark(sim, GAUSS, tune="cv", delta=1.0, folds=5,
                        repetitions=5, seed=20260815)
    elapsed = time.perf_counter() - t0
    l2 = float(res.errors("l2").mean())
    ok = 0.15 <= l2 <= 0.35 and elapsed < 7200.0
    report("benchmark accuracy (n=2000, d=2500, s=50)", ok,
           f"mean l2 = {l2:.4f} in [0.15, 0.35], {elapsed:.0f}s")


def test_path_objective_monotone_with_linear_tail():
    # Each homotopy stage must never increase the objective, and the final
    # stage should converge linearly: log(f(theta_k) - f(theta_final)) is
    # close to affine in k.  At the default tolerance the final stage takes
    # too few iterations to fit a line, so the tail is read off a path run
    # to eps_tgt = 1e-9.
    data, _ = generate(BENCH_SIM)
    spec = SmoothedRiskSpec(data=data, loss=SurrogateLoss(GAUSS, 1.0))
    path = path_following(spec, PathConfig(lambda_tgt=0.01))
    worst_rise = max(float(np.max(np.diff(st.objective_trace), initial=-np.inf))
                     for st in path.stages)
    tight = path_following(spec, PathConfig(lambda_tgt=0.01, eps_tgt=1e-9))
    trace = tight.stages[-1].objective_trace
    gap = trace - trace[-1]
    keep = np.flatnonzero(gap > max(1e-14, 1e-10 * abs(trace[-1])))
    r2 = float("nan")
    if keep.size >= 4:
        log_gap = np.log(gap[keep])
        slope, intercept = np.polyfit(keep, log_gap, 1)
        resid = log_gap - (slope * keep + intercept)
        r2 = 1.0 - float(resid.var() / log_gap.var())
    ok = worst_rise <= 1e-12 and keep.size >= 4 and r2 >= 0.9
    report("path monotonicity and linear convergence", ok,
           f"max objective rise = {worst_rise:.2e} (tol 1e-12), "
           f"log-gap R^2 = {r2:.4f} (want >= 0.9) over {keep.size} "
           f"iterations (want >= 4)")


def test_analytic_gradient_matches_finite_differences():
    # 100 random instances across the gaussian kernel family.
    devs = []
    for trial in range(100):
        rng = rng_for(9100 + trial)
        kern = GAUSS_FAMILY[trial % 4]
        n = int(rng.integers(20, 60))
        d = int(rng.integers(2, 8))
        delta = float(rng.uniform(0.4, 2.0))
        spec = random_spec(n=n, d=d, seed=9100 + trial, kernel=kern,
                           delta=delta)
        theta = rng.normal(scale=0.8, size=d)
        devs.append(gradient_check(spec, theta).values["max_relative_deviation"])
    worst = max(devs)
    ok = worst < 1e-6
    report("analytic vs finite-difference gradients", ok,
           f"max relative deviation = {worst:.2e} over 100 instances "
           f"(tol 1e-6)")


def test_builtin_kernels_satisfy_contracts():
    # Every registered kernel passes its declared-order checks; the
    # constructed order-2 gaussian has vanishing second moment and unit mass.
    worst = 0.0
    all_passed = True
    for name in BUILTIN_KERNELS:
        rep = verify_proper(get_kernel(name))
        all_passed &= rep.passed
        for label, (_, resid) in rep.checks.items():
            if label != "square_integrable":  # that entry stores the integral
                worst = max(worst, resid)
    k2 = make_higher_order_gaussian(2)
    m2 = abs(kernel_moment(k2, 2))
    mass = abs(kernel_moment(k2, 0) - 1.0)
    ok = all_passed and worst < 1e-8 and m2 < 1e-8 and mass <= 1e-8
    report("kernel contracts", ok,
           f"{len(BUILTIN_KERNELS)} builtins passed = {all_passed}, "
           f"max residual = {worst:.2e} (tol 1e-8), constructed order-2: "
           f"|moment2| = {m2:.2e}, |mass - 1| = {mass:.2e}")


def _brute_force_omega(spec, theta, lam, points=201):
    # Grid search over valid l1 subgradients: fixed sign on the support,
    # a [-1, 1] sweep on each free coordinate, then min over the product
    # of the coordinatewise sup-norm.
    g = empirical_gradient(spec, theta)
    axes = []
    for j, tj in enumerate(theta):
        if tj != 0.0:
            axes.append(np.array([abs(g[j] + lam * np.sign(tj))]))
        else:
            axes.append(np.abs(g[j] + lam * np.linspace(-1.0, 1.0, points)))
    tensor = axes[0]
    for a in axes[1:]:
        tensor = np.maximum(tensor[..., None], a)
    return float(tensor.min())


def test_suboptimality_matches_brute_force():
    # 40 random instances with d <= 5 and at most three free coordinates
    # (keeps the subgradient grid product tractable); the closed-form gap
    # must agree with the grid search up to its discretization error.
    worst = 0.0
    for trial in range(40):
        rng = rng_for(9500 + trial)
        d = int(rng.integers(2, 6))
        spec = random_spec(n=30, d=d, seed=9500 + trial,
                           kernel=GAUSS_FAMILY[trial % 4],
                           delta=float(rng.uniform(0.5, 1.5)))
        theta = rng.normal(size=d)
        zeroed = rng.random(d) < 0.5
        theta[zeroed] = 0.0
        free = np.flatnonzero(theta == 0.0)
        if free.size > 3:
            theta[free[3:]] = rng.normal(size=free.size - 3)
        lam = float(rng.uniform(0.0, 0.4))
        gap = abs(suboptimality(spec, theta, lam)
                  - _brute_force_omega(spec, theta, lam))
        worst = max(worst, gap)

    spec0 = random_spec(n=50, d=8, seed=4242)
    lam0 = float(np.abs(empirical_gradient(spec0, np.zeros(8))).max())
    omega_zero = suboptimality(spec0, np.zeros(8), lam0)
    ok = worst < 2e-3 and omega_zero == 0.0
    report("suboptimality gap vs subgradient grid search", ok,
           f"worst |omega - brute force| = {worst:.2e} over 40 instances "
           f"(tol 2e-3), omega(0, lambda0) = {omega_zero!r} (want exactly 0.0)")


def test_error_decreases_with_sample_size():
    # Closed-form schedules (beta = 2, honest constants) at growing n; the
    # median l2 error over ten repetitions must never increase.
    t0 = time.perf_counter()
    medians = []
    for n in (500, 1000, 2000, 4000):
        sim = SimSpec(model="conditional_mean", n=n, d=200, s=10, mu=2.0,
                      noise_sd=0.1, seed=0)
        res = run_benchmark(sim, GAUSS, tune="theory", beta=2.0, c_delta=1.0,
                            c_lambda=0.25, repetitions=10, seed=414)
        medians.append(float(np.median(res.errors("l2"))))
    elapsed = time.perf_counter() - t0
    monotone = all(b <= a + 1e-12 for a, b in zip(medians, medians[1:]))
    ok = monotone and elapsed < 1200.0
    report("median error monotone in n (theory tuning)", ok,
           "medians " + ", ".join(f"{m:.4f}" for m in medians)
           + f" at n = 500/1000/2000/4000, {elapsed:.1f}s")


def test_adaptive_selection_near_oracle(forked_grid):
    # (a) bandwidth adaptation lands within 2x of the best grid fit;
    # (b) sparsity adaptation lands within 2x of the fit at the true level;
    # (c) on sign responses at n=2000, d=256, s=8 with the same constants,
    # both selectors stay under an absolute l2 bound;
    # (d) selection among fits that all failed has an empty feasible set.
    data_a, star_a = generate(SimSpec(model="conditional_mean", n=1000, d=100,
                                      s=5, mu=2.0, noise_sd=0.1, seed=77))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # small-delta grid fits are null
        _, theta_a, fits_a = lepski_bandwidth(data_a, GAUSS, s=5, c_sel=2.0,
                                              c_lambda=0.25)
    errs_a = [estimation_error(f.theta, star_a) for f in fits_a
              if f.status == "ok"]
    ratio_a = estimation_error(theta_a, star_a) / min(errs_a)

    data_b, star_b = generate(SimSpec(model="conditional_mean", n=1000, d=128,
                                      s=8, mu=2.0, noise_sd=0.1, seed=78))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        _, theta_b, fits_b = lepski_sparsity(data_b, GAUSS, beta=2.0,
                                             c_delta=0.32, c_lambda=0.06,
                                             c_bar=1.0)
    at_true = next(f.theta for f in fits_b
                   if f.status == "ok" and f.grid_value == 8)
    ratio_b = estimation_error(theta_b, star_b) / estimation_error(at_true,
                                                                   star_b)

    # Over root seeds 1-12, instances 0-2, the sparsity selector's l2 was
    # 0.105-0.180 and the bandwidth selector's (always delta=1) 0.214-0.429;
    # a null fit has l2 1.
    data_c, star_c = generate(SimSpec(model="binary_response", n=2000, d=256,
                                      s=8, noise_sd=0.1, seed=79))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        _, theta_cs, _ = lepski_sparsity(data_c, make_higher_order_gaussian(2),
                                         beta=2.0, c_delta=0.32,
                                         c_lambda=0.06, c_bar=1.0)
        _, theta_cb, _ = lepski_bandwidth(data_c, GAUSS, s=8, c_sel=2.0,
                                          c_lambda=0.25)
    l2_cs = estimation_error(theta_cs, star_c)
    l2_cb = estimation_error(theta_cb, star_c)

    # Selection on an all-failed fit list has an empty feasible set.
    dead = [LepskiFit(grid_value=g, delta=float(g), lam=0.1, theta=None,
                      status="failed", detail="constructed failure")
            for g in build_lepski_grid("bandwidth", 40)]
    none_a = select_lepski_bandwidth(dead, n=40, d=4, s=2, c_sel=2.0)
    dead_s = [LepskiFit(grid_value=g, delta=0.5, lam=0.1, theta=None,
                        status="failed", detail="constructed failure")
              for g in build_lepski_grid("sparsity", 8)]
    none_b = select_lepski_sparsity(dead_s, n=40, d=8, beta=2.0, c_bar=2.0)

    ok = (ratio_a <= 2.0 and ratio_b <= 2.0 and l2_cs <= 0.25
          and l2_cb <= 0.55 and none_a is None and none_b is None)
    report("adaptive bandwidth and sparsity selection", ok,
           f"bandwidth error ratio = {ratio_a:.2f} (<= 2), sparsity error "
           f"ratio = {ratio_b:.2f} (<= 2), sign-response l2 = {l2_cs:.3f} "
           f"(sparsity, <= 0.25) and {l2_cb:.3f} (bandwidth, <= 0.55), "
           f"empty feasible sets -> None/None")


def test_one_bit_noiseless_support_recovery():
    # Sign-only measurements without noise: theory-tuned fits must put the
    # s largest coefficients on the true support in at least 8 of 10 runs.
    n, d, s = 500, 1000, 5
    delta = tuning.theoretical_bandwidth(n, d, s, beta=2.0, c_delta=1.0)
    lam = tuning.target_lambda(n, d, delta, 0.25)
    t0 = time.perf_counter()
    hits = 0
    for r in range(10):
        data, star = generate(SimSpec(model="one_bit_noiseless", n=n, d=d,
                                      s=s, noise_sd=0.0,
                                      seed=derive_seed(606, r)))
        spec = SmoothedRiskSpec(data=data, loss=SurrogateLoss(GAUSS, delta))
        path = path_following(spec, PathConfig(lambda_tgt=lam))
        hits += bool(np.array_equal(top_support(path.theta_final, s),
                                    np.flatnonzero(star)))
    elapsed = time.perf_counter() - t0
    ok = hits >= 8 and elapsed < 300.0
    report("one-bit noiseless support recovery", ok,
           f"{hits}/10 runs recovered the exact support (want >= 8), "
           f"{elapsed:.1f}s")


def _quadratic_instance():
    rng = np.random.default_rng(5)
    d = 6
    mat = rng.standard_normal((d, d))
    a = mat @ mat.T / d + 0.3 * np.eye(d)
    return a, lambda theta: 0.5 * float(theta @ a @ theta)


def _sparse_extremes(a, k):
    lo, hi = math.inf, -math.inf
    for support in itertools.combinations(range(a.shape[0]), k):
        eigs = np.linalg.eigvalsh(a[np.ix_(support, support)])
        lo = min(lo, eigs[0])
        hi = max(hi, eigs[-1])
    return lo, hi


def test_probe_scaling_laws():
    # Variance probe follows 1/sqrt(n delta); bias probe decays at least
    # quadratically for a symmetric order-1 kernel; curvature probe brackets
    # the exact sparse eigenvalue range of a quadratic.
    sim = SimSpec(model="conditional_mean", n=1600, d=10, s=3, mu=2.0,
                  noise_sd=1.0, seed=5)
    rep = variance_probe(sim, GAUSS, [0.5, 0.25], repetitions=60, seed=9,
                         n_pop=400_000)
    dev = rep.values["mean_sup_deviation"]
    ratio_delta = float(dev[1] / dev[0])
    quarter = variance_probe(replace(sim, n=400), GAUSS, [0.5],
                             repetitions=60, seed=9, n_pop=400_000)
    ratio_n = float(quarter.values["mean_sup_deviation"][0] / dev[0])

    bias_sim = SimSpec(model="conditional_mean", n=300, d=12, s=3, mu=2.0,
                       noise_sd=1.0, seed=31)
    slope = bias_probe(bias_sim, GAUSS, [0.5, 0.25, 0.125],
                       seed=7).values["loglog_slope"]

    a, risk = _quadratic_instance()
    lo, hi = _sparse_extremes(a, 2)
    curvature = restricted_curvature_probe(
        risk, 2, num_directions=800, ball_radius=1.0, seed=1, dim=6).values
    rho_minus, rho_plus = curvature["rho_minus"], curvature["rho_plus"]
    err_lo = abs(rho_minus - lo) / abs(lo)
    err_hi = abs(rho_plus - hi) / abs(hi)

    ok = (math.sqrt(2) * 0.75 <= ratio_delta <= math.sqrt(2) * 1.25
          and 2 * 0.75 <= ratio_n <= 2 * 1.25
          and slope >= 1.8
          and err_lo <= 0.05 and err_hi <= 0.05)
    report("diagnostic probe scaling laws", ok,
           f"deviation ratios: delta-halving {ratio_delta:.2f} "
           f"(want ~{math.sqrt(2):.2f}), n-quartering {ratio_n:.2f} (want ~2) "
           f"both within 25%; bias log-log slope = {slope:.2f} (>= 1.8); "
           f"curvature bracket errors = {err_lo:.3f}/{err_hi:.3f} (<= 0.05)")
