"""
Numerical diagnostics for the smoothed risk
===========================================

Four probes that check the machinery on simulated instances rather than
trusting it: (1) analytic gradients against central differences, (2) the
Monte Carlo noise of the smoothed gradient, which should shrink like
1/sqrt(n delta), (3) the smoothing bias, which should shrink like delta^2
for the plain gaussian kernel and delta^4 for its order-2 refinement, and
(4) sampled curvature bounds along sparse directions, verified here on a
quadratic whose sparse eigenvalue extremes are enumerable exactly.
"""

import itertools

import numpy as np

from smooth_threshold import (
    SimSpec,
    SmoothedRiskSpec,
    SurrogateLoss,
    bias_probe,
    generate,
    get_kernel,
    gradient_check,
    restricted_curvature_probe,
    variance_probe,
)

print("probe 1: gradient check on a simulated instance")
data, _ = generate(SimSpec(model="conditional_mean", n=200, d=10, s=3,
                           mu=2.0, noise_sd=0.5, seed=11))
spec = SmoothedRiskSpec(data=data, loss=SurrogateLoss(get_kernel("gaussian"), 0.7))
rep = gradient_check(spec, theta=np.zeros(10))
print("\n".join("  " + line for line in rep.lines()))

print()
print("probe 2: gradient deviation from its population value vs delta")
sim = SimSpec(model="conditional_mean", n=800, d=10, s=3, mu=2.0,
              noise_sd=1.0, seed=5)
rep = variance_probe(sim, get_kernel("gaussian"), [1.0, 0.5, 0.25],
                     repetitions=30, seed=9, n_pop=200_000)
dev = rep.values["mean_sup_deviation"]
for delta, v in zip(rep.values["delta"], dev):
    print(f"  delta = {delta:<5}: mean sup deviation {v:.5f}")
print(f"  halving delta multiplied the deviation by {dev[1]/dev[0]:.2f} then "
      f"{dev[2]/dev[1]:.2f} (1/sqrt(delta) predicts 1.41)")

print()
print("probe 3: smoothing bias vs delta, plain and higher-order kernel")
bias_sim = SimSpec(model="conditional_mean", n=300, d=12, s=3, mu=2.0,
                   noise_sd=1.0, seed=31)
for name in ("gaussian", "gaussian-order-2"):
    rep = bias_probe(bias_sim, get_kernel(name), [0.5, 0.25, 0.125], seed=7)
    print(f"  {name:<16}: max|bias| = "
          + ", ".join(f"{b:.2e}" for b in rep.values["max_abs_bias"])
          + f"  log-log slope {rep.values['loglog_slope']:.2f}")

print()
print("probe 4: sampled curvature vs exact sparse eigenvalue extremes")
rng = np.random.default_rng(5)
d = 6
mat = rng.standard_normal((d, d))
a = mat @ mat.T / d + 0.3 * np.eye(d)
lo = min(np.linalg.eigvalsh(a[np.ix_(s, s)])[0]
         for s in itertools.combinations(range(d), 2))
hi = max(np.linalg.eigvalsh(a[np.ix_(s, s)])[-1]
         for s in itertools.combinations(range(d), 2))
rep = restricted_curvature_probe(
    lambda th: 0.5 * float(th @ a @ th), 2, num_directions=800, seed=1, dim=d)
print(f"  probe bracket  : [{rep.values['rho_minus']:.4f}, "
      f"{rep.values['rho_plus']:.4f}]")
print(f"  exact extremes : [{lo:.4f}, {hi:.4f}]")
