"""Generators, the toy risk table, error metrics, and the benchmark harness.

The TOY_* constants were produced by an independent adaptive-quadrature
script (integrand split at the label kink x = z and at the hinge kinks,
scipy.integrate.quad, epsabs=1e-13) and are frozen here.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smooth_threshold import simulate
from smooth_threshold.errors import InputError, NumericError
from smooth_threshold.kernels import get_kernel
from smooth_threshold.optimizer import PathConfig
from smooth_threshold.risk import zero_one_risk
from smooth_threshold.simulate import (
    BenchmarkRow,
    SimSpec,
    estimation_error,
    generate,
    run_benchmark,
    top_support,
    toy_population_risks,
)

from conftest import rng_for


GAUSS = get_kernel("gaussian")

# independent quadrature oracles at theta = 0.0, 0.6, 1.0, 1.7
TOY_THETAS = [0.0, 0.6, 1.0, 1.7]
TOY_R01 = [0.345731087311221, 0.037450325232559, 0.0, 0.055437641127435]
TOY_HINGE = [0.772906992431687, 0.188944498902288, 0.165758637426389, 0.155690612251877]
TOY_EXP = [1.133753955975783, 0.303806596549550, 0.250623613028947, 0.237734989493054]
# central differences of the quadrature risks at theta = 1, h = 1e-5
TOY_HINGE_SLOPE = -0.035376393585362376
TOY_EXP_SLOPE = -0.05950519261777031


class TestSimSpec:
    def test_default_target_is_unit_norm(self):
        spec = SimSpec(model="binary_response", n=10, d=7, s=3)
        assert spec.theta_star.shape == (7,)
        assert np.all(spec.theta_star[3:] == 0.0)
        assert np.all(spec.theta_star[:3] == spec.theta_star[0])
        assert abs(np.linalg.norm(spec.theta_star) - 1.0) < 1e-12
        assert spec.theta_star.flags.writeable is False

    def test_validation(self):
        with pytest.raises(InputError, match="model"):
            SimSpec(model="linear", n=5, d=3, s=1)
        with pytest.raises(InputError, match="s must not exceed d"):
            SimSpec(model="binary_response", n=5, d=3, s=4)
        with pytest.raises(InputError, match="noise_sd"):
            SimSpec(model="binary_response", n=5, d=3, s=1, noise_sd=0.0)
        with pytest.raises(InputError, match="noise"):
            SimSpec(model="binary_response", n=5, d=3, s=1, noise="cauchy")
        with pytest.raises(InputError, match="seed"):
            SimSpec(model="binary_response", n=5, d=3, s=1, seed=-1)

    @pytest.mark.parametrize("field,value", [
        ("mu", "abc"), ("mu", None), ("noise_sd", "abc"), ("noise_sd", None),
        ("seed", "abc"), ("seed", None),
    ])
    def test_non_number_is_one_input_error_naming_its_field(self, field, value):
        with pytest.raises(InputError) as exc:
            SimSpec(model="conditional_mean", n=10, d=4, s=2, **{field: value})
        assert str(exc.value) == f"{field} must be a real number, got {value!r}"

    def test_numbers_are_stored_as_checked(self):
        spec = SimSpec(model="conditional_mean", n="10", d=4, s=2, mu="1.5",
                       noise_sd="0.5", seed="3.0")
        assert (spec.n, spec.mu, spec.noise_sd, spec.seed) == (10, 1.5, 0.5, 3)
        assert type(spec.seed) is int
        # an int or an integer's text keeps every digit, past float's 2**53
        for seed in (2 ** 64 - 1, "18446744073709551615", 2 ** 53 + 1, "9007199254740993"):
            top = SimSpec(model="binary_response", n=5, d=3, s=1, seed=seed)
            assert top.seed == int(seed) and type(top.seed) is int
        # the range messages stay as they were
        for seed in (-1, 2 ** 64, 10 ** 400, 1.5, "-1", float("inf"), float("nan")):
            with pytest.raises(InputError) as exc:
                SimSpec(model="binary_response", n=5, d=3, s=1, seed=seed)
            assert str(exc.value) == \
                f"seed must be an unsigned 64-bit integer, got {seed!r}"
        with pytest.raises(InputError) as exc:
            SimSpec(model="conditional_mean", n=5, d=3, s=1, mu=float("inf"))
        assert str(exc.value) == "mu must be a finite real, got inf"
        with pytest.raises(InputError) as exc:
            SimSpec(model="conditional_mean", n=5, d=3, s=1, noise_sd="-1")
        assert str(exc.value) == "noise_sd must be a positive real, got '-1'"

    def test_noiseless_model_allows_zero_sd(self):
        spec = SimSpec(model="one_bit_noiseless", n=5, d=3, s=1, noise_sd=0.0)
        assert spec.noise_sd == 0.0

    @pytest.mark.parametrize("model", ["conditional_mean", "one_bit_noiseless"])
    def test_logistic_noise_only_where_drawn(self, model):
        with pytest.raises(InputError,
                           match=f"model '{model}' does not draw logistic noise"):
            SimSpec(model=model, n=5, d=3, s=1, noise="logistic")
        assert SimSpec(model="binary_response", n=5, d=3, s=1,
                       noise="logistic").noise == "logistic"


class TestGenerators:
    def test_binary_response_shapes_and_labels(self):
        spec = SimSpec(model="binary_response", n=200, d=6, s=2, seed=4)
        data, theta_star = generate(spec)
        assert data.x.shape == (200,) and data.z.shape == (200, 6)
        assert set(np.unique(data.y)) <= {-1.0, 1.0}
        assert theta_star is spec.theta_star

    def test_fixed_seed_is_bit_exact(self):
        spec = SimSpec(model="binary_response", n=100, d=5, s=2, seed=77)
        a, _ = generate(spec)
        b, _ = generate(spec)
        assert np.array_equal(a.x, b.x)
        assert np.array_equal(a.y, b.y)
        assert np.array_equal(a.z, b.z)
        c, _ = generate(
            SimSpec(model="binary_response", n=100, d=5, s=2, seed=78)
        )
        assert not np.array_equal(a.z, c.z)

    def test_one_bit_noiseless_labels_exact(self):
        spec = SimSpec(model="one_bit_noiseless", n=300, d=6, s=2, seed=3)
        data, theta_star = generate(spec)
        margins = data.x - data.z @ theta_star
        assert np.array_equal(data.y, np.sign(margins))

    def test_logistic_noise_changes_draw(self):
        base = dict(model="binary_response", n=4000, d=2, s=1, seed=9, noise_sd=1.0)
        g, _ = generate(SimSpec(noise="gaussian", **base))
        l, _ = generate(SimSpec(noise="logistic", **base))
        # same x, z stream; labels flip more often under the heavier noise
        assert np.array_equal(g.x, l.x) and np.array_equal(g.z, l.z)
        assert not np.array_equal(g.y, l.y)
        spec = SimSpec(noise="logistic", **base)
        flips_logistic = np.mean(l.y != np.sign(l.x - l.z @ spec.theta_star))
        flips_gauss = np.mean(g.y != np.sign(g.x - g.z @ spec.theta_star))
        assert flips_logistic > flips_gauss

    def test_conditional_mean_margin_dominates_noise(self):
        spec = SimSpec(model="conditional_mean", n=2000, d=8, s=3, seed=5)
        data, theta_star = generate(spec)
        agree = np.mean(data.y == np.sign(data.x - data.z @ theta_star))
        assert agree == 1.0  # P(flip) = Phi(-mu/noise_sd) = Phi(-20)

    def test_conditional_mean_class_balance(self):
        n = 1000
        bound = 3.0 / (2.0 * math.sqrt(n))
        hits = 0
        for seed in range(100):
            spec = SimSpec(model="conditional_mean", n=n, d=2, s=1, seed=seed)
            data, _ = generate(spec)
            if abs(np.mean(data.y == 1.0) - 0.5) <= bound:
                hits += 1
        assert hits >= 95

    def test_generate_dispatch(self):
        for model in ("binary_response", "conditional_mean", "one_bit_noiseless"):
            spec = SimSpec(model=model, n=20, d=3, s=1, seed=0)
            data, _ = generate(spec)
            assert data.n == 20

    def test_target_is_zero_one_risk_minimizer(self):
        # at theta* only the noise flips labels; any unit-distance deviation
        # misclassifies a positive-probability slab
        wins = 0
        for rep in range(20):
            data, theta_star = generate(
                SimSpec(model="binary_response", n=5000, d=6, s=2, seed=1000 + rep)
            )
            rng = rng_for(rep)
            direction = rng.standard_normal(6)
            direction /= np.linalg.norm(direction)
            risk_star = zero_one_risk(data, theta_star)
            risk_other = zero_one_risk(data, theta_star + direction)
            wins += risk_star <= risk_other
        assert wins >= 11  # strict majority; in practice all 20


def unblocked_row_dot(z, theta):
    return (z * theta).sum(axis=1)


class TyingRng:
    """The generator's own draws, except that the first attempt gets
    x = z_1 and u = 0 in rows 0-2: zero margins when theta* = e_1."""

    def __init__(self, seed):
        self.real = np.random.Generator(np.random.Philox(key=seed))
        self.draws = []

    def standard_normal(self, size):
        out = self.real.standard_normal(size)
        self.draws.append(out)
        if len(self.draws) == 2:
            out[:3] = self.draws[0][:3, 0]
        elif len(self.draws) == 3:
            out[:3] = 0.0
        return out


class TestBlockedRowSums:
    """The generators sum z_ij theta_j over blocks of rows; every row keeps
    the bits of the unblocked ``(z * theta).sum(axis=1)``."""

    @pytest.mark.parametrize("model", list(simulate.SIM_MODELS))
    @pytest.mark.parametrize("n, d", [(1000, 7), (600, 300)])
    def test_same_bits_as_unblocked_sum(self, monkeypatch, model, n, d):
        spec = SimSpec(model=model, n=n, d=d, s=min(5, d), seed=11)
        blocked, _ = generate(spec)
        monkeypatch.setattr(simulate, "_row_dot", unblocked_row_dot)
        unblocked, _ = generate(spec)
        for name in ("x", "y", "z"):
            assert getattr(blocked, name).tobytes() == \
                getattr(unblocked, name).tobytes()

    def test_tied_rows_are_redrawn_with_the_same_bits(self, monkeypatch):
        spec = SimSpec(model="binary_response", n=600, d=5, s=1, seed=4)
        runs = []
        for row_dot in (simulate._row_dot, unblocked_row_dot):
            tying = []
            monkeypatch.setattr(simulate, "_row_dot", row_dot)
            monkeypatch.setattr(simulate, "_rng",
                                lambda seed: tying.append(TyingRng(seed)) or tying[-1])
            runs.append(generate(spec)[0])
            draws = tying[0].draws
            assert len(draws) == 6  # z, x, u, then the redraw of rows 0-2
            assert draws[3].shape == (3, 5)
            assert np.array_equal(runs[-1].z[:3], draws[3])
            assert np.all(runs[-1].y != 0.0)
        for name in ("x", "y", "z"):
            assert getattr(runs[0], name).tobytes() == getattr(runs[1], name).tobytes()


class TestToyRisks:
    def test_frozen_quadrature_oracles(self):
        table = toy_population_risks(TOY_THETAS)
        assert np.allclose(table.risk01, TOY_R01, atol=1e-9, rtol=0.0)
        assert np.allclose(table.risk_hinge, TOY_HINGE, atol=1e-9, rtol=0.0)
        assert np.allclose(table.risk_exp, TOY_EXP, atol=1e-9, rtol=0.0)

    def test_surrogate_slopes_at_target(self):
        h = 1e-5
        table = toy_population_risks([1.0 - h, 1.0 + h])
        hinge_slope = (table.risk_hinge[1] - table.risk_hinge[0]) / (2.0 * h)
        exp_slope = (table.risk_exp[1] - table.risk_exp[0]) / (2.0 * h)
        assert hinge_slope == pytest.approx(TOY_HINGE_SLOPE, abs=1e-8)
        assert exp_slope == pytest.approx(TOY_EXP_SLOPE, abs=1e-8)
        # the qualitative point: both slopes are negative at theta = 1
        assert hinge_slope < 0.0 and exp_slope < 0.0

    def test_zero_one_grid_argmin_exact(self):
        grid = np.round(np.arange(0.0, 2.0001, 0.01), 10)
        table = toy_population_risks(grid)
        assert grid[int(np.argmin(table.risk01))] == 1.0
        assert table.risk01[int(np.argmin(table.risk01))] == 0.0

    @given(st.floats(min_value=-3.0, max_value=3.0, allow_nan=False))
    @settings(max_examples=80, deadline=None)
    def test_zero_one_minimized_at_one(self, theta):
        table = toy_population_risks([theta, 1.0])
        assert table.risk01[0] >= table.risk01[1]

    def test_rejects_bad_grids(self):
        with pytest.raises(InputError):
            toy_population_risks([])
        with pytest.raises(InputError):
            toy_population_risks([0.1, np.nan])

    def test_overflowing_grid_raises_numeric_error(self):
        with pytest.raises(NumericError):
            toy_population_risks([400.0])

    def test_table_immutable(self):
        table = toy_population_risks([0.5, 1.0])
        with pytest.raises(ValueError):
            table.risk01[0] = 9.9


class TestEstimationError:
    def test_arithmetic(self):
        a = np.array([3.0, 0.0])
        b = np.array([0.0, 4.0])
        assert estimation_error(a, b, "l2") == 5.0
        assert estimation_error(a, b, "l1") == 7.0
        assert estimation_error(a, b, "linf") == 4.0
        assert estimation_error(a, a, "l2") == 0.0

    def test_validation(self):
        with pytest.raises(InputError, match="length mismatch"):
            estimation_error(np.ones(3), np.ones(4))
        with pytest.raises(InputError, match="norm"):
            estimation_error(np.ones(3), np.ones(3), "l3")

    @given(st.integers(min_value=0, max_value=10 ** 6))
    @settings(max_examples=40, deadline=None)
    def test_norm_ordering(self, seed):
        rng = rng_for(seed)
        a, b = rng.standard_normal((2, 8))
        linf = estimation_error(a, b, "linf")
        l2 = estimation_error(a, b, "l2")
        l1 = estimation_error(a, b, "l1")
        assert linf <= l2 + 1e-12 and l2 <= l1 + 1e-12

    def test_top_support_parses_its_size(self):
        theta = np.array([0.1, -2.0, 0.0, 1.5])
        assert np.array_equal(top_support(theta, "2"), [1, 3])
        assert np.array_equal(top_support(theta, 2.0), [1, 3])
        for s in ("abc", None):
            with pytest.raises(InputError) as exc:
                top_support(theta, s)
            assert str(exc.value) == f"s must be a real number, got {s!r}"
        for s in (0, 5, 1.5):
            with pytest.raises(InputError) as exc:
                top_support(theta, s)
            assert str(exc.value) == f"s must be an integer in [1, 4], got {s!r}"

    def test_top_support(self):
        assert np.array_equal(top_support(np.array([0.1, -2.0, 0.0, 1.5]), 2), [1, 3])
        # magnitude tie resolves to the smaller index
        assert np.array_equal(top_support(np.array([1.0, -1.0, 0.5]), 2), [0, 1])
        with pytest.raises(InputError):
            top_support(np.ones(3), 0)
        with pytest.raises(InputError):
            top_support(np.ones(3), 4)


def row_key(row: BenchmarkRow):
    return (row.repetition, row.l1, row.l2, row.linf, row.nnz,
            row.lambda_used, row.delta_used, row.messages)


class TestBenchmark:
    SPEC = SimSpec(model="conditional_mean", n=300, d=20, s=3, seed=0)

    def test_single_repetition_deterministic(self):
        a = run_benchmark(self.SPEC, GAUSS, tune="fixed", delta=1.0, lambda_tgt=0.02,
                          repetitions=1, seed=5)
        b = run_benchmark(self.SPEC, GAUSS, tune="fixed", delta=1.0, lambda_tgt=0.02,
                          repetitions=1, seed=5)
        assert len(a.rows) == 1
        assert row_key(a.rows[0]) == row_key(b.rows[0])
        assert a.rows[0].nnz >= 0 and a.rows[0].l2 >= 0.0

    def test_rows_ordered_and_summary(self):
        res = run_benchmark(self.SPEC, GAUSS, tune="fixed", delta=1.0, lambda_tgt=0.02,
                            repetitions=4, seed=5)
        assert [r.repetition for r in res.rows] == [0, 1, 2, 3]
        summ = res.summary()
        for norm in ("l1", "l2", "linf"):
            vals = res.errors(norm)
            assert summ[norm]["mean"] == pytest.approx(vals.mean())
            assert summ[norm]["sd"] == pytest.approx(vals.std(ddof=1))

    def test_theory_mode_uses_schedule(self):
        res = run_benchmark(self.SPEC, GAUSS, tune="theory", beta=1.0, c_lambda=0.5,
                            repetitions=1, seed=2)
        row = res.rows[0]
        base = self.SPEC.s * math.log(self.SPEC.d) / self.SPEC.n
        assert row.delta_used == pytest.approx(base ** (1.0 / 3.0), rel=1e-12)
        assert row.lambda_used == pytest.approx(
            0.5 * math.sqrt(math.log(self.SPEC.d) / (self.SPEC.n * row.delta_used)), rel=1e-12
        )

    def test_overpenalized_run_reports_null_fit(self):
        res = run_benchmark(self.SPEC, GAUSS, tune="fixed", delta=1.0, lambda_tgt=5.0,
                            repetitions=1, seed=2)
        row = res.rows[0]
        assert row.nnz == 0
        assert row.l2 == pytest.approx(1.0)  # theta* has unit norm
        assert any("exceeds the zero-solution penalty" in m for m in row.messages)

    def test_tuning_warnings_land_in_messages(self, monkeypatch):
        # a warning raised while tuning, as a cross-validation fold path
        # raises one, is recorded once and never escapes
        real = simulate.tuned_fit

        def noisy(*args, **kwargs):
            warnings.warn("fold path stopped early", UserWarning)
            return real(*args, **kwargs)

        monkeypatch.setattr(simulate, "tuned_fit", noisy)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = run_benchmark(self.SPEC, GAUSS, tune="fixed", delta=1.0,
                                lambda_tgt=5.0, repetitions=1, seed=2)
        messages = res.rows[0].messages
        assert messages.count("fold path stopped early") == 1
        # the null-fit warning is a path note and is listed once, as a note
        assert sum("exceeds the zero-solution penalty" in m for m in messages) == 1

    def test_cv_mode_and_reuse(self):
        res = run_benchmark(self.SPEC, GAUSS, tune="cv", repetitions=2, seed=11, folds=4)
        assert len({r.lambda_used for r in res.rows}) == 2  # re-tuned per repetition

    def test_logistic_noise_accuracy_band(self):
        # heavier-tailed noise roughly triples the error of the frozen
        # gaussian-noise run at the same size; the band brackets that level
        sim = SimSpec(model="binary_response", n=2000, d=64, s=8,
                      noise="logistic", noise_sd=1.0, seed=20260815)
        res = run_benchmark(sim, GAUSS, tune="cv", delta=1.0, folds=5,
                            repetitions=5, seed=20260815)
        mean_l2 = float(res.errors("l2").mean())
        assert 0.15 <= mean_l2 <= 0.40

    def test_validation(self):
        with pytest.raises(InputError, match="tune"):
            run_benchmark(self.SPEC, GAUSS, tune="oracle")
        with pytest.raises(InputError, match="lambda_tgt"):
            run_benchmark(self.SPEC, GAUSS, tune="fixed")
        with pytest.raises(InputError, match="beta"):
            run_benchmark(self.SPEC, GAUSS, tune="theory")
        with pytest.raises(InputError, match="does not use delta"):
            run_benchmark(self.SPEC, GAUSS, tune="theory", beta=1.0, delta=0.5)
        for tune, extra, unused in [
                ("fixed", {"lambda_tgt": 0.05, "beta": 3.0}, "beta"),
                ("fixed", {"lambda_tgt": 0.05, "folds": 9}, "folds"),
                ("cv", {"lambda_tgt": 5.0}, "lambda_tgt"),
                ("cv", {"beta": 3.0}, "beta"),
                ("cv", {"c_lambda": 5.0}, "c_lambda"),
                ("cv", {"c_delta": 7.0}, "c_delta"),
                ("theory", {"beta": 1.0, "lambda_tgt": 0.05}, "lambda_tgt")]:
            with pytest.raises(InputError, match=f"does not use {unused}"):
                run_benchmark(self.SPEC, GAUSS, tune=tune, **extra)
        # s is always the simulated sparsity, never a keyword
        for tune, extra in [("theory", {"beta": 2.0, "s": 50}), ("lepski-beta", {"s": 3}),
                            ("fixed", {"lambda_tgt": 0.05, "s": 3})]:
            with pytest.raises(InputError) as exc:
                run_benchmark(self.SPEC, GAUSS, tune=tune, **extra)
            assert str(exc.value) == "run_benchmark tunes with spec.s; do not pass s"
        # the arguments after tune are keyword-only
        with pytest.raises(TypeError):
            run_benchmark(self.SPEC, GAUSS, "fixed", 1.0, 0.05)
        with pytest.raises(InputError, match="repetitions"):
            run_benchmark(self.SPEC, GAUSS, tune="fixed", lambda_tgt=0.1, repetitions=0)
