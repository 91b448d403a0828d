"""Tests for the numerical probes.

Closed-form oracles: for the gaussian kernel the smoothed conditional
density is again gaussian, (K_delta * phi_sigma) = phi_sqrt(delta^2+sigma^2),
so the bias probe has an exact reference; for a quadratic risk 0.5 theta'A
theta every second difference equals v'Av exactly, so the curvature probe can
be checked against sparse eigenvalue extremes enumerated by brute force.
"""

import itertools
import math
from dataclasses import replace

import numpy as np
import pytest

from smooth_threshold.diagnostics import (
    ProbeReport,
    _sparse_unit_directions,
    bias_probe,
    gradient_check,
    population_gradient,
    restricted_curvature_probe,
    variance_probe,
)
from smooth_threshold.errors import InputError, NumericError
from smooth_threshold.kernels import SurrogateLoss, get_kernel
from smooth_threshold.risk import (
    Dataset,
    SmoothedRiskSpec,
    empirical_gradient,
    _row_sum,
)
from smooth_threshold.simulate import SimSpec, derive_seed, generate

from conftest import random_spec, rng_for


def normal_pdf(t, scale):
    return math.exp(-0.5 * (t / scale) ** 2) / (scale * math.sqrt(2 * math.pi))


class TestProbeReport:
    def test_rejects_non_finite_values(self):
        with pytest.raises(NumericError, match="not finite"):
            ProbeReport("p", {}, {"bad": float("nan")})
        with pytest.raises(NumericError, match="not finite"):
            ProbeReport("p", {}, {"bad": np.array([1.0, np.inf])})

    def test_tolerance_and_passed_travel_together(self):
        with pytest.raises(InputError):
            ProbeReport("p", {}, {}, tolerance=1e-6)
        with pytest.raises(InputError):
            ProbeReport("p", {}, {}, passed=True)

    def test_lines_are_stable_text(self):
        rep = ProbeReport("demo", {"n": 4}, {"dev": 0.25},
                          tolerance=0.5, passed=True, notes=["extra"])
        assert rep.lines() == [
            "probe: demo",
            "input n = 4",
            "value dev = 0.25",
            "checked: pass (tolerance 0.5)",
            "note: extra",
        ]

    def test_array_values_render_elementwise(self):
        rep = ProbeReport("demo", {}, {"grid": np.array([1.0, 0.5])})
        assert "value grid = [1.0, 0.5]" in rep.lines()

    def test_numpy_scalars_render_as_plain_numbers(self):
        rep = ProbeReport("demo", {"n": np.int64(4), "h": np.float64(0.1)},
                          {"dev": np.float64(0.25), "f32": np.float32(0.5)},
                          tolerance=np.float64(0.5), passed=np.bool_(True))
        assert rep.lines() == [
            "probe: demo",
            "input n = 4",
            "input h = 0.1",
            "value dev = 0.25",
            "value f32 = 0.5",
            "checked: pass (tolerance 0.5)",
        ]


def test_every_probe_returns_its_report():
    # each probe's numbers live in its report's values, and nowhere else
    sim = SimSpec(model="conditional_mean", n=60, d=4, s=2, noise_sd=1.0, seed=2)
    gauss = get_kernel("gaussian")
    spec = SmoothedRiskSpec(generate(sim)[0], SurrogateLoss(gauss, 0.5))
    reports = {
        "rho_minus": restricted_curvature_probe(spec, 2, num_directions=5),
        "max_relative_deviation": gradient_check(spec, np.zeros(4)),
        "mean_sup_deviation": variance_probe(sim, gauss, [0.5, 0.25],
                                             repetitions=2, n_pop=200),
        "max_abs_bias": bias_probe(sim, gauss, [0.5, 0.25], num_directions=3),
    }
    for key, rep in reports.items():
        assert type(rep) is ProbeReport
        assert key in rep.values


class TestGradientCheck:
    @pytest.mark.parametrize("kernel", ["gaussian", "gaussian-order-2",
                                        "gaussian-order-4", "gaussian-order-6"])
    def test_smooth_kernels_match_central_differences(self, kernel):
        for trial in range(3):
            spec = random_spec(n=80, d=6, seed=10 + trial, kernel=kernel,
                               delta=0.3 + 0.4 * trial)
            theta = rng_for(100 + trial).normal(size=6) * 0.5
            rep = gradient_check(spec, theta)
            assert rep.passed
            assert rep.values["max_relative_deviation"] < 1e-6
            assert rep.values["skipped_coordinates"] == 0

    def test_margin_on_rectangular_edge_is_skipped(self):
        # first sample sits exactly on the support edge |u| = delta; only
        # coordinates its covariates can move are excluded
        data = Dataset(x=np.array([0.5, 3.0]), y=np.array([1.0, 1.0]),
                       z=np.array([[1.0, 0.0, 2.0], [0.0, 0.0, 0.0]]))
        spec = SmoothedRiskSpec(data, SurrogateLoss(get_kernel("rectangular"), 0.5))
        rep = gradient_check(spec, np.zeros(3))
        assert rep.values["skipped_coordinates"] == 2
        assert any("nondifferentiable point skipped: coordinate 0" in s
                   for s in rep.notes)
        assert any("coordinate 2" in s for s in rep.notes)

    def test_compact_kernel_away_from_edge_needs_no_skip(self):
        data = Dataset(x=np.array([0.1, -0.2, 0.05]),
                       y=np.array([1.0, -1.0, 1.0]),
                       z=np.array([[0.3, 0.1], [0.2, -0.4], [-0.1, 0.2]]))
        spec = SmoothedRiskSpec(data, SurrogateLoss(get_kernel("epanechnikov"), 1.0))
        rep = gradient_check(spec, np.array([0.05, -0.03]))
        assert rep.passed
        assert rep.values["skipped_coordinates"] == 0
        assert rep.values["max_relative_deviation"] < 1e-8

    def test_zero_covariates_give_zero_deviation(self):
        data = Dataset(x=np.array([0.4, -0.2]), y=np.array([1.0, -1.0]),
                       z=np.zeros((2, 3)))
        spec = SmoothedRiskSpec(data, SurrogateLoss(get_kernel("gaussian"), 0.5))
        rep = gradient_check(spec, np.zeros(3))
        assert rep.values["max_relative_deviation"] == 0.0
        assert rep.passed

    def test_step_must_be_positive(self):
        spec = random_spec(n=10, d=2, seed=0)
        with pytest.raises(InputError, match="step"):
            gradient_check(spec, np.zeros(2), step=0.0)


class TestPopulationGradient:
    def test_single_chunk_equals_empirical_gradient(self):
        # n_pop == n with the matching derived seed reproduces the exact
        # sample, and the chunk reduction is the same tree sum
        sim = SimSpec(model="conditional_mean", n=500, d=8, s=3, mu=2.0,
                      noise_sd=1.0, seed=11)
        pop = population_gradient(sim, get_kernel("gaussian"), [0.5],
                                  n_pop=500, seed=77)
        data, theta_star = generate(replace(sim, n=500, seed=derive_seed(77, 0)))
        spec = SmoothedRiskSpec(data, SurrogateLoss(get_kernel("gaussian"), 0.5))
        emp = empirical_gradient(spec, theta_star)
        assert np.array_equal(pop[0], emp)

    def test_deterministic_and_shape(self):
        sim = SimSpec(model="binary_response", n=50, d=4, s=2, seed=3)
        a = population_gradient(sim, get_kernel("gaussian"), [1.0, 0.5],
                                n_pop=30_000, seed=3)
        b = population_gradient(sim, get_kernel("gaussian"), [1.0, 0.5],
                                n_pop=30_000, seed=3)
        assert a.shape == (2, 4)
        assert np.array_equal(a, b)

    def test_rejects_bad_grid(self):
        sim = SimSpec(model="binary_response", n=50, d=4, s=2, seed=3)
        with pytest.raises(InputError, match="delta_grid"):
            population_gradient(sim, get_kernel("gaussian"), [0.5, -1.0])
        with pytest.raises(InputError, match="n_pop"):
            population_gradient(sim, get_kernel("gaussian"), [0.5], n_pop=0)


class TestVarianceProbe:
    def test_deviation_scales_with_bandwidth_and_sample_size(self):
        # mean sup deviation follows 1/sqrt(n delta): halving delta should
        # multiply it by sqrt(2), quartering n by 2, both within 25%
        sim = SimSpec(model="conditional_mean", n=1600, d=10, s=3, mu=2.0,
                      noise_sd=1.0, seed=5)
        rep = variance_probe(sim, get_kernel("gaussian"), [0.5, 0.25],
                             repetitions=60, seed=9, n_pop=400_000)
        dev = rep.values["mean_sup_deviation"]
        ratio_delta = dev[1] / dev[0]
        assert math.sqrt(2) * 0.75 <= ratio_delta <= math.sqrt(2) * 1.25

        quarter = variance_probe(replace(sim, n=400), get_kernel("gaussian"),
                                 [0.5], repetitions=60, seed=9, n_pop=400_000)
        ratio_n = quarter.values["mean_sup_deviation"][0] / dev[0]
        assert 2 * 0.75 <= ratio_n <= 2 * 1.25

    def test_deterministic_given_seed(self):
        sim = SimSpec(model="conditional_mean", n=80, d=5, s=2, mu=2.0,
                      noise_sd=1.0, seed=4)
        a = variance_probe(sim, get_kernel("gaussian"), [1.0, 0.5],
                           repetitions=5, seed=2, n_pop=20_000)
        b = variance_probe(sim, get_kernel("gaussian"), [1.0, 0.5],
                           repetitions=5, seed=2, n_pop=20_000)
        assert np.array_equal(a.values["mean_sup_deviation"],
                              b.values["mean_sup_deviation"])
        assert a.passed is None and a.tolerance is None

    def test_repetitions_validated(self):
        sim = SimSpec(model="conditional_mean", n=80, d=5, s=2, seed=4)
        with pytest.raises(InputError, match="repetitions"):
            variance_probe(sim, get_kernel("gaussian"), [1.0], repetitions=0)


class TestBiasProbe:
    SIM = SimSpec(model="conditional_mean", n=300, d=12, s=3, mu=2.0,
                  noise_sd=1.0, seed=31)
    GRID = [0.5, 0.25, 0.125]

    def test_gaussian_kernel_matches_closed_form(self):
        # smoothing a gaussian by a gaussian widens it: the per-sample factor
        # is phi_sqrt(delta^2+1)(mu) - phi_1(mu), identical across samples at
        # theta_star, so the bias vector is that scalar times mean(y_i z_i)
        directions = np.zeros((3, self.SIM.d))
        directions[0, 0] = 1.0
        directions[1, 2] = 1.0
        directions[2] = 1.0 / math.sqrt(self.SIM.d)
        rep = bias_probe(self.SIM, get_kernel("gaussian"), self.GRID,
                         directions=directions)
        data, _ = generate(self.SIM)
        gbar = _row_sum(data.y, data.z) / data.n
        proj = np.abs(directions @ gbar).max()
        for delta, got in zip(self.GRID, rep.values["max_abs_bias"]):
            gap = abs(normal_pdf(2.0, math.hypot(delta, 1.0))
                      - normal_pdf(2.0, 1.0))
            assert got == pytest.approx(gap * proj, rel=1e-9)

    def test_zero_direction_has_exactly_zero_bias(self):
        rep = bias_probe(self.SIM, get_kernel("gaussian"), self.GRID,
                         directions=np.zeros((1, self.SIM.d)))
        assert np.array_equal(rep.values["max_abs_bias"], np.zeros(3))
        assert "loglog_slope" not in rep.values
        assert any("slope omitted" in s for s in rep.notes)

    def test_quadratic_decay_for_base_kernel(self):
        rep = bias_probe(self.SIM, get_kernel("gaussian"), self.GRID, seed=7)
        bias = rep.values["max_abs_bias"]
        assert np.all(np.diff(bias) < 0)  # shrinks with the bandwidth
        assert 1.8 < rep.values["loglog_slope"] < 2.2

    def test_higher_order_kernel_decays_faster(self):
        base = bias_probe(self.SIM, get_kernel("gaussian"), self.GRID, seed=7)
        high = bias_probe(self.SIM, get_kernel("gaussian-order-2"), self.GRID,
                          seed=7)
        assert high.values["loglog_slope"] > base.values["loglog_slope"] + 1.0
        assert 3.5 < high.values["loglog_slope"] < 4.5

    def test_requires_conditional_mean_gaussian(self):
        wrong_model = SimSpec(model="binary_response", n=50, d=4, s=2, seed=1)
        with pytest.raises(InputError, match="conditional_mean"):
            bias_probe(wrong_model, get_kernel("gaussian"), [0.5])
        with pytest.raises(InputError, match="does not draw logistic noise"):
            wrong_noise = replace(self.SIM, noise="logistic")
            bias_probe(wrong_noise, get_kernel("gaussian"), [0.5])

    def test_theta_shape_checked(self):
        with pytest.raises(InputError, match="theta"):
            bias_probe(self.SIM, get_kernel("gaussian"), [0.5],
                       theta=np.zeros(self.SIM.d + 1))

    def test_repeated_bandwidths_refused(self):
        # a log-log slope over a grid needs distinct bandwidths
        with pytest.raises(InputError, match="repeats a bandwidth"):
            bias_probe(self.SIM, get_kernel("gaussian"), [0.5, 0.5])

    def test_deterministic(self):
        a = bias_probe(self.SIM, get_kernel("gaussian"), self.GRID, seed=7)
        b = bias_probe(self.SIM, get_kernel("gaussian"), self.GRID, seed=7)
        assert np.array_equal(a.values["max_abs_bias"],
                              b.values["max_abs_bias"])


def quadratic_instance():
    rng = np.random.default_rng(5)
    d = 6
    mat = rng.standard_normal((d, d))
    a = mat @ mat.T / d + 0.3 * np.eye(d)

    def risk(theta):
        return 0.5 * float(theta @ a @ theta)

    return a, risk


def sparse_extremes(a, k):
    lo, hi = math.inf, -math.inf
    for support in itertools.combinations(range(a.shape[0]), k):
        eigs = np.linalg.eigvalsh(a[np.ix_(support, support)])
        lo = min(lo, eigs[0])
        hi = max(hi, eigs[-1])
    return lo, hi


class TestCurvatureProbe:
    def test_quadratic_harness_brackets_sparse_eigenvalues(self):
        # second differences of a quadratic are exact, so the probe estimates
        # min/max of v'Av over sparse unit v; brute-force eigenvalues over
        # all supports give the truth
        a, risk = quadratic_instance()
        lo, hi = sparse_extremes(a, 2)
        rep = restricted_curvature_probe(
            risk, 2, num_directions=800, ball_radius=1.0, seed=1, dim=6)
        rho_minus, rho_plus = rep.values["rho_minus"], rep.values["rho_plus"]
        assert rho_minus == pytest.approx(lo, rel=0.05)
        assert rho_plus == pytest.approx(hi, rel=0.05)
        assert rho_minus >= lo - 1e-8 and rho_plus <= hi + 1e-8
        assert rep.notes == ()

    @pytest.mark.parametrize("seed", [0, 1])
    def test_more_directions_never_widen_bracket_error(self, seed):
        a, risk = quadratic_instance()
        lo, hi = sparse_extremes(a, 2)
        errors = []
        for count in (50, 200, 800):
            values = restricted_curvature_probe(
                risk, 2, num_directions=count, seed=seed, dim=6).values
            errors.append((abs(values["rho_minus"] - lo),
                           abs(values["rho_plus"] - hi)))
        for prev, nxt in zip(errors, errors[1:]):
            assert nxt[0] <= prev[0]
            assert nxt[1] <= prev[1]

    def test_direction_stream_is_prefix_stable(self):
        first = _sparse_unit_directions(rng_for(9), 5, 8, 3)
        longer = _sparse_unit_directions(rng_for(9), 12, 8, 3)
        assert np.array_equal(first, longer[:5])
        norms = np.linalg.norm(longer, axis=1)
        assert np.allclose(norms, 1.0)
        assert np.all((longer != 0).sum(axis=1) <= 3)

    def test_empirical_risk_has_positive_sparse_curvature(self):
        sim = SimSpec(model="conditional_mean", n=400, d=30, s=5, mu=2.0,
                      noise_sd=1.0, seed=17)
        data, _ = generate(sim)
        spec = SmoothedRiskSpec(data, SurrogateLoss(get_kernel("gaussian"), 1.0))
        rep = restricted_curvature_probe(
            spec, 10, num_directions=200, ball_radius=1.0, seed=3)
        assert rep.values["rho_minus"] > 0
        assert rep.values["rho_plus"] >= rep.values["rho_minus"]
        assert rep.notes == ()

    def test_concave_risk_is_not_certified(self):
        rep = restricted_curvature_probe(
            lambda th: -0.5 * float(th @ th), 2, num_directions=50, seed=0,
            dim=4)
        assert rep.values["rho_minus"] == pytest.approx(-1.0, abs=1e-6)
        assert rep.values["rho_plus"] == pytest.approx(-1.0, abs=1e-6)
        assert any("not certified" in s for s in rep.notes)

    def test_callable_requires_dim(self):
        with pytest.raises(InputError, match="dim"):
            restricted_curvature_probe(lambda th: 0.0, 2)
        with pytest.raises(InputError, match="support_size"):
            restricted_curvature_probe(lambda th: 0.0, 9, dim=4)
        with pytest.raises(InputError, match="SmoothedRiskSpec or a callable"):
            restricted_curvature_probe("not a risk", 2, dim=4)

    @pytest.mark.parametrize("step", [1e300, 1e200, 1e-200])
    def test_step_whose_square_is_not_a_positive_float(self, step):
        # 1e300 ** 2 raises OverflowError, 1e200 * 1e200 is inf and the
        # square of 1e-200 is 0.0: none is a curvature step
        _, risk = quadratic_instance()
        with pytest.raises(InputError, match=r"step\*\*2 must be a positive finite"):
            restricted_curvature_probe(risk, 2, num_directions=3, dim=6, step=step)

    def test_deterministic_given_seed(self):
        _, risk = quadratic_instance()
        a1 = restricted_curvature_probe(risk, 2, num_directions=40, seed=6, dim=6)
        a2 = restricted_curvature_probe(risk, 2, num_directions=40, seed=6, dim=6)
        assert a1.values == a2.values


class TestBiasVarianceCrossover:
    def test_total_gradient_error_minimized_inside_grid(self):
        # deviation grows as delta shrinks, bias grows as delta grows, so
        # their sum turns over strictly inside a wide bandwidth grid
        grid = [4.0, 2.0, 1.0, 0.5, 0.25, 0.125]
        sim = SimSpec(model="conditional_mean", n=100, d=10, s=3, mu=2.0,
                      noise_sd=1.0, seed=21)
        theta = np.array(sim.theta_star, copy=True)
        theta[0] += 0.8
        dev = variance_probe(sim, get_kernel("gaussian"), grid,
                             repetitions=40, seed=13,
                             n_pop=300_000).values["mean_sup_deviation"]
        bias = bias_probe(sim, get_kernel("gaussian"), grid, theta=theta,
                          seed=13).values["max_abs_bias"]
        total = dev + bias
        best = int(np.argmin(total))
        assert 0 < best < len(grid) - 1
