"""Numerical probes for the smoothed-risk machinery.

Each probe measures one property the estimator relies on and returns its
:class:`ProbeReport`, which holds every number measured: gradients against
central differences, sampling variability of the empirical gradient around
its population value, the smoothing bias of the gradient for the
shifted-measurement model, and second-difference curvature over sparse
directions.  Probes are deterministic given their seeds; reports hold only
finite values so they can be printed and diffed verbatim.  ``PROBES`` and
``PROBE_DEFAULTS`` name what each probe reads on the command line.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import (InputError, NumericError, _fmt, _positive_int,
                     _positive_real)
from .kernels import Kernel, SurrogateLoss, _GAUSS_RANGE
from .risk import (SmoothedRiskSpec, _check_theta, _col_sum, _margins, _row_sum,
                   empirical_gradient, empirical_risk)
from .simulate import SimSpec, derive_seed, generate

__all__ = [
    "ProbeReport",
    "gradient_check",
    "population_gradient",
    "variance_probe",
    "bias_probe",
    "restricted_curvature_probe",
    "PROBES",
    "PROBE_DEFAULTS",
]

# the parameters each probe reads on the command line, in config-echo order:
# "input" stands for a CSV dataset and "model" for a simulated one, each with
# the flags that describe it; a probe reading both takes the CSV when given
PROBES = {
    "gradient": ("input", "delta", "step"),
    "variance": ("model", "delta_grid", "repetitions", "n_pop", "seed"),
    "bias": ("model", "delta_grid", "num_directions", "seed"),
    "curvature": ("input", "model", "delta", "support_size", "num_directions",
                  "ball_radius", "step", "seed"),
}
# their command-line defaults; a parameter without one must be given
PROBE_DEFAULTS = {
    "gradient": {"step": 1e-5},
    "variance": {"delta_grid": "0.5,0.25,0.125", "repetitions": 20,
                 "n_pop": 1_000_000},
    # at noise_sd 0.1 the density near |t| = mu is about e^-200, so the probe
    # would measure that far tail and not the delta^2 bias
    "bias": {"model": "conditional_mean", "noise_sd": 1.0,
             "delta_grid": "0.5,0.25,0.125", "num_directions": 20},
    "curvature": {"support_size": 5, "num_directions": 20, "ball_radius": 1.0,
                  "step": 1e-3},
}

_QUAD_NODES = 200
# largest relative deviation that gradient_check passes
_GRADIENT_TOL = 1e-6
# rows of a population-gradient chunk: about 4e6 values of z, at least 1000
_CHUNK_ROWS_MIN, _CHUNK_VALUES = 1000, 4_000_000


@dataclass(frozen=True, eq=False)
class ProbeReport:
    """Outcome of one numerical probe.

    ``inputs`` echoes the configuration, ``values`` holds the measurements
    (scalars or 1-d arrays).  ``passed`` is set only when a tolerance
    applies; measurement-only probes leave both as None.
    """

    probe: str
    inputs: dict
    values: dict
    tolerance: float | None = None
    passed: bool | None = None
    notes: tuple = ()

    def __post_init__(self):
        if (self.tolerance is None) != (self.passed is None):
            raise InputError("tolerance and passed must be set together")
        for key, val in self.values.items():
            arr = np.asarray(val, dtype=float)
            if not np.all(np.isfinite(arr)):
                raise NumericError(
                    f"probe {self.probe!r}: measured value {key!r} is not finite")
        object.__setattr__(self, "notes", tuple(str(s) for s in self.notes))

    def lines(self) -> list:
        """Stable text rendering, one ``key = value`` line per entry."""
        out = [f"probe: {self.probe}"]
        for key, val in self.inputs.items():
            out.append(f"input {key} = {_fmt(val)}")
        for key, val in self.values.items():
            out.append(f"value {key} = {_fmt(val)}")
        if self.tolerance is not None:
            verdict = "pass" if self.passed else "FAIL"
            out.append(f"checked: {verdict} (tolerance {_fmt(self.tolerance)})")
        for note in self.notes:
            out.append(f"note: {note}")
        return out


def _delta_grid_array(delta_grid) -> np.ndarray:
    grid = np.atleast_1d(np.asarray(delta_grid, dtype=float))
    if grid.ndim != 1 or grid.size == 0:
        raise InputError("delta_grid must be a nonempty 1-d sequence")
    if not np.all(np.isfinite(grid)) or np.any(grid <= 0):
        raise InputError("delta_grid entries must be positive and finite")
    if np.unique(grid).size != grid.size:  # a log-log slope needs distinct ones
        raise InputError(f"delta_grid repeats a bandwidth: {grid.tolist()}")
    return grid


def gradient_check(spec: SmoothedRiskSpec, theta, step: float = 1e-5) -> ProbeReport:
    """Compare the analytic risk gradient with central differences.

    The deviation is ``max_j |g_j - fd_j|`` over coordinates, divided by the
    larger of the two sup norms (0 when both gradients vanish); the check
    passes below ``_GRADIENT_TOL``.  For a compactly supported kernel,
    coordinates whose perturbation can push some margin across the support
    edge are skipped: the loss has a kink there and a finite difference is
    meaningless.
    """
    step = _positive_real(step, "step")
    theta = np.asarray(theta, dtype=float)
    grad = empirical_gradient(spec, theta)
    d = spec.data.d

    finite_diff = np.empty(d)
    for j in range(d):
        bump = np.zeros(d)
        bump[j] = step
        finite_diff[j] = (empirical_risk(spec, theta + bump)
                          - empirical_risk(spec, theta - bump)) / (2.0 * step)

    notes = []
    keep = np.ones(d, dtype=bool)
    radius = spec.loss.kernel.support_radius
    if math.isfinite(radius):
        edge_gap = np.abs(np.abs(spec.margins(theta))
                          - spec.loss.bandwidth * radius)
        z_abs = np.abs(spec.data.z)
        crossing = (edge_gap[:, None] <= step * z_abs) & (z_abs > 0)
        keep = ~crossing.any(axis=0)
        for j in np.flatnonzero(~keep):
            count = int(np.count_nonzero(crossing[:, j]))
            notes.append(f"nondifferentiable point skipped: coordinate {j} "
                         f"({count} margin(s) within one step of the "
                         f"support edge)")

    if keep.any():
        gap = np.abs(grad - finite_diff)[keep]
        scale = max(float(np.abs(grad[keep]).max()),
                    float(np.abs(finite_diff[keep]).max()))
        deviation = float(gap.max() / scale) if scale > 0 else float(gap.max())
    else:
        deviation = 0.0
        notes.append("no coordinate admitted a finite difference")

    inputs = {"n": spec.data.n, "d": d, "kernel": spec.loss.kernel.name,
              "bandwidth": float(spec.loss.bandwidth), "step": step}
    values = {"max_relative_deviation": deviation,
              "skipped_coordinates": int(np.count_nonzero(~keep))}
    return ProbeReport("gradient_check", inputs, values,
                       tolerance=_GRADIENT_TOL, passed=deviation < _GRADIENT_TOL,
                       notes=tuple(notes))


def population_gradient(sim: SimSpec, kernel: Kernel, delta_grid,
                        n_pop: int = 1_000_000, seed: int = 0) -> np.ndarray:
    """Monte Carlo population gradient of the smoothed risk at ``sim.theta_star``.

    Draws ``n_pop`` fresh samples from ``sim`` in chunks (one derived seed
    per chunk index) and averages the unit-weight gradient contributions
    w y z K(u/delta)/delta.  Returns shape ``(len(delta_grid), d)``; row a
    approximates the gradient at bandwidth ``delta_grid[a]``.
    """
    grid = _delta_grid_array(delta_grid)
    n_pop = _positive_int(n_pop, "n_pop")
    theta = sim.theta_star
    chunk_rows = max(_CHUNK_ROWS_MIN, _CHUNK_VALUES // max(sim.d, 1))

    totals = np.zeros((grid.size, sim.d))
    done = 0
    index = 0
    while done < n_pop:
        rows = min(chunk_rows, n_pop - done)
        data, _ = generate(replace(sim, n=rows, seed=derive_seed(seed, index)))
        u = _margins(data, theta)
        for a, delta in enumerate(grid):
            coeff = data.y * kernel.evaluate(u / delta) / delta
            totals[a] += _row_sum(coeff, data.z)
        done += rows
        index += 1
    return totals / n_pop


def variance_probe(sim: SimSpec, kernel: Kernel, delta_grid,
                   repetitions: int = 20, seed: int = 0,
                   n_pop: int = 1_000_000) -> ProbeReport:
    """Sup-norm deviation of the n-sample gradient around its population value.

    The population gradient at theta_star is approximated once per bandwidth
    from the same ``n_pop`` Monte Carlo draws; each repetition then draws a
    fresh n-sample dataset and records ||grad_n - grad_pop||_inf.  Mean
    deviations should scale like 1/sqrt(n delta): halving delta or quartering
    n roughly multiplies them by sqrt(2) and 2.
    """
    grid = _delta_grid_array(delta_grid)
    repetitions = _positive_int(repetitions, "repetitions")
    pop = population_gradient(sim, kernel, grid, n_pop=n_pop,
                              seed=derive_seed(seed, 0))

    deviations = np.empty((repetitions, grid.size))
    for r in range(repetitions):
        data, theta_star = generate(replace(sim, seed=derive_seed(seed, 1, r)))
        for a, delta in enumerate(grid):
            spec = SmoothedRiskSpec(data, SurrogateLoss(kernel, float(delta)))
            grad = empirical_gradient(spec, theta_star)
            deviations[r, a] = float(np.abs(grad - pop[a]).max())

    inputs = {"model": sim.model, "n": sim.n, "d": sim.d,
              "kernel": kernel.name, "repetitions": repetitions,
              "n_pop": int(n_pop), "seed": int(seed)}
    values = {"delta": grid, "mean_sup_deviation": deviations.mean(axis=0)}
    return ProbeReport("variance_probe", inputs, values)


def _smoothed_normal_density(kernel: Kernel, delta: float, sigma: float,
                             points: np.ndarray) -> np.ndarray:
    """(K_delta * phi_sigma)(t) by fixed-node Gauss-Legendre quadrature.

    The integrand K(s) phi_sigma(t - delta s) is analytic between kernel
    knots, so 200 nodes over the (effective) support resolve it to near
    machine precision.
    """
    half = kernel.support_radius
    if not math.isfinite(half):
        half = _GAUSS_RANGE
    nodes, weights = np.polynomial.legendre.leggauss(_QUAD_NODES)
    s = nodes * half
    w = weights * half * kernel.evaluate(s)
    dev = (points[:, None] - delta * s[None, :]) / sigma
    dens = np.exp(-0.5 * np.square(dev)) / (sigma * math.sqrt(2.0 * math.pi))
    return dens @ w


def _sparse_unit_directions(rng: np.random.Generator, count: int, d: int,
                            support_size: int) -> np.ndarray:
    """Draw unit vectors supported on ``support_size`` random coordinates.

    One draw consumes a fixed number of variates, so the first k rows agree
    for any requested count >= k under the same generator state.
    """
    out = np.zeros((count, d))
    for t in range(count):
        idx = rng.choice(d, size=support_size, replace=False)
        vals = rng.standard_normal(support_size)
        norm = np.linalg.norm(vals)
        while norm == 0.0:
            vals = rng.standard_normal(support_size)
            norm = np.linalg.norm(vals)
        out[t, idx] = vals / norm
    return out


def bias_probe(sim: SimSpec, kernel: Kernel, delta_grid, theta=None,
               directions=None, num_directions: int = 20,
               seed: int = 0) -> ProbeReport:
    """Smoothing bias of the risk gradient for the shifted-measurement model.

    Conditional on the drawn (y_i, z_i), the response is exactly Gaussian,
    so the smoothed and unsmoothed gradients of the risk over the response
    have closed quadrature forms: with t_i = theta'z_i - (mu y_i +
    theta_star'z_i),

        grad_delta = mean_i y_i z_i (K_delta * phi_sigma)(t_i)
        grad_0     = mean_i y_i z_i phi_sigma(t_i)

    The report records max_v |v'(grad_delta - grad_0)| per bandwidth over
    the direction set; the values shrink like delta**j as delta -> 0, where
    j is the kernel's first nonvanishing moment (2 for the base kernels,
    higher for the higher-order family).
    """
    if sim.model != "conditional_mean":
        raise InputError("bias_probe requires the conditional_mean model; "
                         f"got {sim.model!r}")
    grid = _delta_grid_array(delta_grid)
    num_directions = _positive_int(num_directions, "num_directions")
    sigma = float(sim.noise_sd)

    data, theta_star = generate(sim)
    if theta is None:
        theta = theta_star
    theta = _check_theta(theta, sim.d)

    if directions is None:
        rng = np.random.Generator(np.random.Philox(key=derive_seed(seed, 1)))
        directions = _sparse_unit_directions(
            rng, num_directions, sim.d, min(sim.s, sim.d))
    else:
        directions = np.atleast_2d(np.asarray(directions, dtype=float))
        if directions.ndim != 2 or directions.shape[1] != sim.d:
            raise InputError(f"directions must have shape (k, {sim.d})")
        if not np.all(np.isfinite(directions)):
            raise InputError("directions contain non-finite values")

    shift = _col_sum(data.z, theta) \
        - (sim.mu * data.y + _col_sum(data.z, theta_star))
    dens0 = np.exp(-0.5 * np.square(shift / sigma)) \
        / (sigma * math.sqrt(2.0 * math.pi))
    grad0 = _row_sum(data.y * dens0, data.z) / data.n

    max_bias = np.empty(grid.size)
    for a, delta in enumerate(grid):
        dens = _smoothed_normal_density(kernel, float(delta), sigma, shift)
        grad_delta = _row_sum(data.y * dens, data.z) / data.n
        max_bias[a] = float(np.abs(directions @ (grad_delta - grad0)).max())

    values = {"delta": grid, "max_abs_bias": max_bias}
    notes = []
    if grid.size >= 2 and np.all(max_bias > 0):
        slope = np.polyfit(np.log(grid), np.log(max_bias), 1)[0]
        values["loglog_slope"] = float(slope)
    elif grid.size >= 2:
        notes.append("log-log slope omitted: zero bias measured on the grid")

    inputs = {"model": sim.model, "n": sim.n, "d": sim.d,
              "kernel": kernel.name, "kernel_order": kernel.order,
              "noise_sd": sigma, "num_directions": int(directions.shape[0]),
              "seed": int(seed)}
    return ProbeReport("bias_probe", inputs, values, notes=tuple(notes))


def restricted_curvature_probe(spec, support_size: int,
                               num_directions: int = 500,
                               ball_radius: float = 1.0, seed: int = 0,
                               step: float = 1e-3, dim: int | None = None) -> ProbeReport:
    """Second-difference curvature of the risk over sparse directions.

    Samples sparse unit directions v and sparse base points theta with
    ||theta||_2 <= ball_radius, and evaluates

        [f(theta + h v) - 2 f(theta) + f(theta - h v)] / h**2.

    The report's values ``rho_minus`` and ``rho_plus`` are the smallest and
    largest observed values.  ``spec`` is a :class:`SmoothedRiskSpec`, or any
    callable theta -> risk for probing the probe itself (pass ``dim`` then).
    Trials are drawn sequentially from the seed, so growing num_directions
    extends the sample without changing earlier draws.
    """
    if isinstance(spec, SmoothedRiskSpec):
        d = spec.data.d
        risk = lambda th: empirical_risk(spec, th)  # noqa: E731
        described = f"empirical risk (n={spec.data.n}, kernel={spec.loss.kernel.name})"
    elif callable(spec):
        if dim is None:
            raise InputError("a callable risk requires the dim argument")
        d = _positive_int(dim, "dim")
        risk = spec
        described = "user-supplied risk callable"
    else:
        raise InputError("spec must be a SmoothedRiskSpec or a callable")

    support_size = _positive_int(support_size, "support_size")
    if support_size > d:
        raise InputError(f"support_size {support_size} exceeds dimension {d}")
    num_directions = _positive_int(num_directions, "num_directions")
    ball_radius = _positive_real(ball_radius, "ball_radius")
    step = _positive_real(step, "step")
    if not 0.0 < step * step < math.inf:  # else dividing by step ** 2 raises
        raise InputError(f"step**2 must be a positive finite float; step "
                         f"{step!r} squares to {step * step!r}")

    rng = np.random.Generator(np.random.Philox(key=seed))
    curvature = np.empty(num_directions)
    for t in range(num_directions):
        direction = _sparse_unit_directions(rng, 1, d, support_size)[0]
        base = _sparse_unit_directions(rng, 1, d, support_size)[0] \
            * rng.uniform(0.0, ball_radius)
        mid = float(risk(base))
        plus = float(risk(base + step * direction))
        minus = float(risk(base - step * direction))
        curvature[t] = (plus - 2.0 * mid + minus) / step ** 2

    rho_minus = float(curvature.min())
    rho_plus = float(curvature.max())
    notes = []
    if rho_minus <= 0:
        notes.append("restricted strong convexity not certified: "
                     "rho_minus <= 0 on the sampled directions")

    inputs = {"risk": described, "d": d, "support_size": support_size,
              "num_directions": num_directions, "ball_radius": ball_radius,
              "step": step, "seed": int(seed)}
    values = {"rho_minus": rho_minus, "rho_plus": rho_plus,
              "mean_curvature": float(curvature.mean())}
    return ProbeReport("restricted_curvature_probe", inputs, values,
                       notes=tuple(notes))
