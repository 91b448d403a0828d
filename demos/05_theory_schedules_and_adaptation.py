"""
Closed-form tuning schedules and Lepski adaptation
==================================================

When the smoothness beta and sparsity s are known, bandwidth and penalty
come from closed forms: delta ~ (s log(d)/n)^(1/(2 beta + 1)) and
lambda ~ sqrt(log(d)/(n delta)).  The first part shows the estimation
error falling as n grows under these schedules.  When s or beta is
unknown, Lepski's method picks the most permissive grid value whose fit
stays within a deviation bound of all more conservative fits; the second
part runs both adaptive selectors and compares them to oracle choices.
"""

import warnings

import numpy as np

from smooth_threshold import (
    SimSpec,
    estimation_error,
    generate,
    get_kernel,
    lepski_bandwidth,
    lepski_sparsity,
    run_benchmark,
    target_lambda,
    theoretical_bandwidth,
)

kernel = get_kernel("gaussian")

print("part 1: theory-driven schedules, beta = 2, d = 200, s = 10")
print("  n      delta    lambda    median l2 (10 reps)")
for n in (500, 1000, 2000, 4000):
    delta = theoretical_bandwidth(n, 200, 10, beta=2.0, c_delta=1.0)
    lam = target_lambda(n, 200, delta, 0.25)
    sim = SimSpec(model="conditional_mean", n=n, d=200, s=10, mu=2.0,
                  noise_sd=0.1, seed=0)
    res = run_benchmark(sim, kernel, tune="theory", beta=2.0, c_delta=1.0,
                        c_lambda=0.25, repetitions=10, seed=414)
    med = float(np.median(res.errors("l2")))
    print(f"  {n:<5}  {delta:.3f}    {lam:.4f}    {med:.4f}")

print()
print("part 2a: Lepski bandwidth selection (s known, smoothness not)")
data, star = generate(SimSpec(model="conditional_mean", n=1000, d=100, s=5,
                              mu=2.0, noise_sd=0.1, seed=77))
with warnings.catch_warnings():
    warnings.simplefilter("ignore")  # tiny-bandwidth grid fits are null
    delta_hat, theta, fits = lepski_bandwidth(data, kernel, s=5, c_sel=2.0,
                                              c_lambda=0.25)
errs = {f.grid_value: estimation_error(f.theta, star) for f in fits
        if f.status == "ok"}
best = min(errs, key=errs.get)
print(f"  selected delta = {delta_hat:g} with l2 error {errs[delta_hat]:.4f}")
print(f"  best grid point delta = {best:g} with l2 error {errs[best]:.4f}")

print()
print("part 2b: Lepski sparsity selection (beta known, s not; true s = 8)")
data2, star2 = generate(SimSpec(model="conditional_mean", n=1000, d=128, s=8,
                                mu=2.0, noise_sd=0.1, seed=78))
with warnings.catch_warnings():
    warnings.simplefilter("ignore")
    s_hat, theta2, fits2 = lepski_sparsity(data2, kernel, beta=2.0,
                                           c_delta=0.32, c_lambda=0.06,
                                           c_bar=1.0)
print("  level   delta    l2 error")
for f in fits2:
    if f.status == "ok":
        mark = "  <- selected" if f.grid_value == s_hat else ""
        print(f"  {int(f.grid_value):>5}   {f.delta:.3f}    "
              f"{estimation_error(f.theta, star2):.4f}{mark}")
