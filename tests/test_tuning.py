"""Schedule formulas, cross-validation, and the adaptive grid procedures.

Arithmetic oracles below restate the closed-form definitions with
independently written expressions (math.pow / explicit roots) and were
cross-checked by hand.
"""

import inspect
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smooth_threshold.errors import (ConvergenceWarning, InputError, NumericError,
                                    read_settings)
from smooth_threshold.kernels import SurrogateLoss, get_kernel, make_higher_order_gaussian
from smooth_threshold.optimizer import PathConfig, path_following, suboptimality
from smooth_threshold.risk import (Dataset, SmoothedRiskSpec, empirical_gradient,
                                   empirical_risk)
from smooth_threshold import tuning
from smooth_threshold.tuning import (
    CvResult,
    LepskiFit,
    build_lepski_grid,
    cross_validate_lambda,
    default_lambda_grid,
    lepski_bandwidth,
    lepski_sparsity,
    select_lepski_bandwidth,
    select_lepski_sparsity,
    target_lambda,
    theoretical_bandwidth,
)
from smooth_threshold.simulate import SimSpec, generate

from conftest import assert_no_child, log_call, logged, rng_for


GAUSS = get_kernel("gaussian")


def make_dataset(n=60, d=4, seed=0, signal=True):
    rng = rng_for(seed)
    z = rng.standard_normal((n, d))
    if not signal:
        z = np.zeros((n, d))
    theta = np.zeros(d)
    theta[0] = 1.0
    x = rng.standard_normal(n)
    y = np.sign(x - z @ theta + 0.3 * rng.standard_normal(n))
    y[y == 0] = 1.0
    if not signal:
        y = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
    return Dataset(x=x, y=y, z=z)


class TestSchedules:
    def test_schedule_validation(self):
        with pytest.raises(InputError, match="n must be a positive integer"):
            theoretical_bandwidth(0, 10, 1, 1.0, 1.0)
        with pytest.raises(InputError, match="s must be a positive integer"):
            theoretical_bandwidth(10, 10, 0, 1.0, 1.0)
        with pytest.raises(InputError, match="beta must be a positive real"):
            theoretical_bandwidth(10, 10, 1, 0.0, 1.0)
        with pytest.raises(InputError, match="c_delta must be a positive real"):
            theoretical_bandwidth(10, 10, 1, 1.0, -1.0)
        with pytest.raises(InputError, match="c_delta must be a positive real"):
            theoretical_bandwidth(10, 10, 1, 1.0, math.inf)

    def test_bandwidth_arithmetic_oracle(self):
        # (50 ln 2500 / 2000)^(1/3), written as an explicit cube root
        val = theoretical_bandwidth(2000, 2500, 50, 1.0, 1.0)
        expected = math.pow(50.0 * math.log(2500.0) / 2000.0, 1.0 / 3.0)
        assert val == pytest.approx(expected, rel=1e-14)
        assert abs(val - 0.5800) < 1e-3

    def test_bandwidth_high_smoothness_oracle(self):
        val = theoretical_bandwidth(2000, 2500, 50, 50.0, 1.0)
        expected = math.exp(math.log(50.0 * math.log(2500.0) / 2000.0) / 101.0)
        assert val == pytest.approx(expected, rel=1e-14)
        assert abs(val - 0.9840) < 1e-3

    def test_bandwidth_unit_base_identity(self):
        # the formula is the pure power map base**(1/(2 beta + 1)); inverting
        # it recovers the base exactly, so a unit base returns 1 for any beta
        for n, d, s, beta in [(33, 64, 8, 0.5), (100, 7, 3, 2.0), (5000, 2500, 50, 7.0)]:
            val = theoretical_bandwidth(n, d, s, beta, 1.0)
            base = s * math.log(d) / n
            assert val ** (2.0 * beta + 1.0) == pytest.approx(base, rel=1e-12)
            assert (val - 1.0) * (base - 1.0) >= 0.0  # same side of 1

    def test_bandwidth_requires_d_at_least_2(self):
        with pytest.raises(InputError, match="d must be at least 2"):
            theoretical_bandwidth(10, 1, 1, 1.0, 1.0)

    def test_bandwidth_monotone_in_s_and_n(self):
        in_s = [theoretical_bandwidth(500, 100, s, 1.0, 1.0)
                for s in (1, 2, 5, 10, 20)]
        assert np.all(np.diff(in_s) > 0)
        in_n = [theoretical_bandwidth(n, 100, 5, 1.0, 1.0)
                for n in (100, 300, 1000, 3000)]
        assert np.all(np.diff(in_n) < 0)

    def test_target_lambda_oracle(self):
        val = target_lambda(2000, 2500, 0.58, 1.0)
        assert val == pytest.approx(math.sqrt(math.log(2500.0) / (2000.0 * 0.58)), rel=1e-14)
        assert abs(val - 0.0821) < 1e-3

    def test_target_lambda_refuses_a_zero_constant_and_an_overflow(self):
        with pytest.raises(InputError, match=r"c_lambda must be a positive real, got 0\.0"):
            target_lambda(100, 10, 0.5, 0.0)
        # log(5) / (10 * 1e-320) is past the largest float
        with pytest.raises(InputError, match=r"overflows at delta = 1e-320, c_lambda = 1\.0"):
            target_lambda(10, 5, 1e-320)
        with pytest.raises(InputError, match=r"overflows at delta = 1e-10, c_lambda = 1e\+308"):
            target_lambda(10, 5, 1e-10, 1e308)

    def test_target_lambda_root_two_scaling(self):
        lam_n = target_lambda(750, 40, 0.3)
        lam_2n = target_lambda(1500, 40, 0.3)
        assert lam_2n == pytest.approx(lam_n / math.sqrt(2.0), rel=1e-14)

    def test_target_lambda_monotone(self):
        in_n = [target_lambda(n, 100, 0.5) for n in (100, 200, 500, 1000)]
        assert np.all(np.diff(in_n) < 0)
        in_delta = [target_lambda(500, 100, delta) for delta in (0.1, 0.3, 0.9, 2.0)]
        assert np.all(np.diff(in_delta) < 0)

    def test_target_lambda_validation(self):
        with pytest.raises(InputError):
            target_lambda(100, 1, 0.5)
        with pytest.raises(InputError):
            target_lambda(100, 10, 0.0)
        with pytest.raises(InputError):
            target_lambda(100, 10, 0.5, -1.0)


class TestTuningModes:
    def test_fills_defaults_in_table_order(self):
        params = read_settings(tuning.TUNING_MODES["lepski-s"],
                               {"beta": 2.0, "c_bar": 1.5}, "caller", str,
                               tuning.TUNING_DEFAULTS)
        assert list(params) == list(tuning.TUNING_MODES["lepski-s"])
        assert params == {"beta": 2.0, "c_delta": 1.0, "c_lambda": 1.0,
                          "c_bar": 1.5}

    def test_rejects_unused_and_names_missing(self):
        spell = lambda name: "--" + name  # noqa: E731
        with pytest.raises(InputError) as exc:
            read_settings(tuning.TUNING_MODES["cv"], {"delta": 1.0, "c_sel": 2.0},
                          "who", spell, tuning.TUNING_DEFAULTS)
        assert str(exc.value) == "who does not use --c_sel; do not pass --c_sel"
        with pytest.raises(InputError) as exc:
            read_settings(tuning.TUNING_MODES["theory"], {"s": 3}, "who", spell,
                          tuning.TUNING_DEFAULTS)
        assert str(exc.value) == "who requires --beta"

    def test_tuned_fit_fixed_and_theory(self):
        data = make_dataset(n=80, d=6)
        kernel = get_kernel("gaussian")

        def direct(delta, lam):
            spec = SmoothedRiskSpec(data, SurrogateLoss(kernel, delta))
            return path_following(spec, PathConfig(lambda_tgt=lam))

        fit = tuning.tuned_fit(data, kernel, "fixed", {"delta": 0.5, "lambda_tgt": 0.1},
                               None, None, None)
        assert (fit.delta, fit.lam, fit.cv, fit.fits, fit.grid_value) == \
            (0.5, 0.1, None, (), None)
        assert fit.theta is fit.path.theta_final
        assert np.array_equal(fit.theta, direct(0.5, 0.1).theta_final)
        params = {"s": 2, "beta": 1.5, "c_delta": 1.0, "c_lambda": 1.0}
        fit = tuning.tuned_fit(data, kernel, "theory", params, None, None, None)
        expected = theoretical_bandwidth(80, 6, 2, 1.5, 1.0)
        assert (fit.delta, fit.lam, fit.cv, fit.fits, fit.grid_value) == \
            (expected, target_lambda(80, 6, expected), None, (), None)
        assert np.array_equal(fit.theta, direct(fit.delta, fit.lam).theta_final)
        with pytest.raises(InputError, match="tune must be one of"):
            tuning.tuned_fit(data, kernel, "oracle", {}, None, None, None)

    def test_tuned_fit_cv_takes_lambda_1se(self):
        data = make_dataset(n=80, d=4)
        kernel = get_kernel("gaussian")
        fit = tuning.tuned_fit(data, kernel, "cv", {"delta": 1.0, "folds": 3}, 7,
                               None, None)
        grid = default_lambda_grid(data, kernel, 1.0)
        direct = cross_validate_lambda(data, kernel, 1.0, 3, grid, 7)
        assert (fit.delta, fit.lam, fit.fits, fit.grid_value) == \
            (1.0, direct.lambda_1se, (), None)
        assert np.array_equal(fit.cv.mean_cv_loss, direct.mean_cv_loss)
        assert fit.path.config_echo.lambda_tgt == direct.lambda_1se

    @pytest.mark.parametrize("tune,params,select", [
        ("lepski-beta", {"s": 1, "c_sel": 2.0, "c_lambda": 1.0}, lepski_bandwidth),
        ("lepski-s", {"beta": 1.0, "c_delta": 1.0, "c_lambda": 1.0, "c_bar": 2.0},
         lepski_sparsity),
    ])
    def test_tuned_fit_takes_the_lepski_choice_with_its_path(self, tune, params, select):
        # the selector's chosen fit, whose path ends at its theta and is
        # certified at the final-stage tolerance
        data = make_dataset(n=80, d=4)
        fit = tuning.tuned_fit(data, GAUSS, tune, params, None, None, None)
        value, theta, fits = select(data, GAUSS, **params)
        chosen = next(f for f in fit.fits if f.path is fit.path)
        assert chosen.grid_value == fit.grid_value == value
        assert [f.grid_value for f in fit.fits] == [f.grid_value for f in fits]
        assert (fit.delta, fit.lam) == (chosen.delta, chosen.lam)
        assert fit.cv is None
        assert fit.theta is fit.path.theta_final
        assert np.array_equal(fit.theta, theta)
        last = fit.path.stages[-1]
        assert last.status == "converged"
        assert last.exit_omega <= fit.path.config_echo.eps_tgt
        assert all((f.path is None) == (f.theta is None) for f in fit.fits)

    def test_library_defaults_come_from_the_table(self):
        for func in (lepski_bandwidth, lepski_sparsity, target_lambda):
            for name, param in inspect.signature(func).parameters.items():
                if name in tuning.TUNING_DEFAULTS:
                    assert param.default == tuning.TUNING_DEFAULTS[name], name


class TestLepskiGrid:
    def test_bandwidth_grid_n1000(self):
        grid = build_lepski_grid("bandwidth", 1000)
        assert len(grid) == 11
        assert grid[0] == 1.0
        assert grid[-1] == 2.0 ** -10
        assert np.allclose(np.diff(np.log2(grid)), -1.0)

    def test_bandwidth_grid_boundary_n2(self):
        assert build_lepski_grid("bandwidth", 2) == (1.0, 0.5)

    def test_bandwidth_grid_power_of_two_tie(self):
        # n = 1024 satisfies the sandwich with m = 10 and m = 11; smaller wins
        assert build_lepski_grid("bandwidth", 1024)[-1] == 2.0 ** -10

    def test_sparsity_grid_d2500(self):
        grid = build_lepski_grid("sparsity", 2500)
        assert grid == tuple(2 ** k for k in range(12))
        assert grid[-1] == 2048

    def test_sparsity_grid_power_of_two_tie(self):
        assert build_lepski_grid("sparsity", 2048)[-1] == 1024
        assert build_lepski_grid("sparsity", 2) == (1,)

    @given(st.integers(min_value=2, max_value=10 ** 9))
    @settings(max_examples=60, deadline=None)
    def test_bandwidth_sandwich_property(self, n):
        m = len(build_lepski_grid("bandwidth", n)) - 1
        assert 2.0 ** -m <= 1.0 / n <= 2.0 ** -(m - 1)
        # minimality: m - 1 fails at least one side unless a tie was resolved
        if 2.0 ** -(m - 1) <= 1.0 / n <= 2.0 ** -(m - 2):
            assert 2.0 ** -(m - 1) == 1.0 / n

    @given(st.integers(min_value=2, max_value=10 ** 9))
    @settings(max_examples=60, deadline=None)
    def test_sparsity_sandwich_property(self, d):
        m = len(build_lepski_grid("sparsity", d)) - 1
        assert 2 ** m <= d <= 2 ** (m + 1)
        if m >= 1 and 2 ** (m - 1) <= d <= 2 ** m:
            assert d == 2 ** m  # only possible at a tie, resolved downward

    def test_grid_validation(self):
        with pytest.raises(InputError):
            build_lepski_grid("bandwidth", 1)
        with pytest.raises(InputError):
            build_lepski_grid("plaid", 100)


class TestDefaultLambdaGrid:
    def test_geometric_from_gradient_sup_norm(self):
        data = make_dataset(seed=3)
        grid = default_lambda_grid(data, GAUSS, 1.0)
        spec = SmoothedRiskSpec(data=data, loss=SurrogateLoss(kernel=GAUSS, bandwidth=1.0))
        lambda0 = np.max(np.abs(empirical_gradient(spec, np.zeros(data.d))))
        assert grid.shape == (20,)
        assert grid[0] == pytest.approx(lambda0, rel=1e-15)
        assert grid[-1] == pytest.approx(0.01 * lambda0, rel=1e-12)
        ratios = grid[1:] / grid[:-1]
        assert np.allclose(ratios, ratios[0], rtol=1e-12)
        assert np.all(np.diff(grid) < 0)

    def test_no_signal_rejected(self):
        data = make_dataset(signal=False)
        with pytest.raises(InputError, match="identically zero"):
            default_lambda_grid(data, GAUSS, 1.0)

    def test_parameter_validation(self):
        data = make_dataset()
        for delta in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(InputError, match="bandwidth"):
                default_lambda_grid(data, GAUSS, delta)
        with pytest.raises(InputError, match="weight"):
            default_lambda_grid(data, GAUSS, 1.0, weights=np.ones(data.n + 1))


class TestCrossValidation:
    def test_flat_curve_selects_largest(self):
        data = make_dataset(n=40, d=3, signal=False)
        cv = cross_validate_lambda(data, GAUSS, 1.0, 4, [0.1, 0.5, 0.25], seed=0)
        assert cv.lambda_1se == 0.5
        assert cv.lambda_min == 0.5  # ties resolve to the largest value
        # the fit is the zero vector at every lambda, so losses vary across
        # folds (different held-out samples) but not across the grid
        assert np.all(cv.mean_cv_loss == cv.mean_cv_loss[0])
        assert np.all(cv.se_cv_loss == cv.se_cv_loss[0])

    def test_single_point_grid(self):
        data = make_dataset(n=40, d=3)
        cv = cross_validate_lambda(data, GAUSS, 1.0, 3, [0.07], seed=1)
        assert cv.lambda_min == cv.lambda_1se == 0.07

    def test_grid_sorted_descending_in_result(self):
        data = make_dataset(n=40, d=3)
        cv = cross_validate_lambda(data, GAUSS, 1.0, 3, [0.01, 0.2, 0.05], seed=1)
        assert tuple(cv.lambda_grid) == (0.2, 0.05, 0.01)
        assert cv.lambda_grid.flags.writeable is False

    def test_fold_assignment_stratified(self):
        data = make_dataset(n=53, d=3, seed=9)
        folds = 5
        cv = cross_validate_lambda(data, GAUSS, 1.0, folds, [0.1], seed=4)
        assert cv.fold_assignment.shape == (53,)
        for k in range(folds):
            in_fold = cv.fold_assignment == k
            assert np.any(in_fold & (data.y == 1.0))
            assert np.any(in_fold & (data.y == -1.0))
        # class counts differ across folds by at most one
        for cls in (1.0, -1.0):
            counts = [np.sum((cv.fold_assignment == k) & (data.y == cls)) for k in range(folds)]
            assert max(counts) - min(counts) <= 1

    def test_more_folds_than_class_samples_rejected(self):
        rng = rng_for(2)
        z = rng.standard_normal((10, 2))
        y = np.full(10, 1.0)
        y[:2] = -1.0
        data = Dataset(x=rng.standard_normal(10), y=y, z=z)
        with pytest.raises(InputError, match="both classes"):
            cross_validate_lambda(data, GAUSS, 1.0, 3, [0.1], seed=0)

    def test_folds_are_one_draw_from_the_class_sizes(self):
        # the class of 4 fills 4 folds on the first draw; the ids are pinned
        y = np.array([1.0, -1, 1, 1, -1, 1, -1, 1, 1, -1, 1, 1])
        assert tuning._stratified_folds(y, 4, 7).tolist() == [
            2, 3, 1, 1, 1, 3, 0, 0, 3, 2, 0, 2]
        with pytest.raises(InputError) as info:
            tuning._stratified_folds(y, 5, 7)
        assert str(info.value) == ("could not assign 5 folds each containing "
                                   "both classes; a class has fewer samples "
                                   "than folds")

    def test_input_validation(self):
        data = make_dataset(n=30, d=2)
        with pytest.raises(InputError):
            cross_validate_lambda(data, GAUSS, 1.0, 1, [0.1], seed=0)
        with pytest.raises(InputError):
            cross_validate_lambda(data, GAUSS, 1.0, 3, [], seed=0)
        with pytest.raises(InputError):
            cross_validate_lambda(data, GAUSS, 1.0, 3, [0.1, -0.2], seed=0)
        with pytest.raises(InputError):
            cross_validate_lambda(data, GAUSS, 1.0, 3, [0.1], seed=-1)

    def test_bit_reproducible(self):
        data = make_dataset(n=48, d=4, seed=12)
        grid = [0.15, 0.08, 0.04, 0.02]
        a = cross_validate_lambda(data, GAUSS, 1.0, 4, grid, seed=7)
        b = cross_validate_lambda(data, GAUSS, 1.0, 4, grid, seed=7)
        assert np.array_equal(a.mean_cv_loss, b.mean_cv_loss)
        assert np.array_equal(a.se_cv_loss, b.se_cv_loss)
        assert np.array_equal(a.fold_assignment, b.fold_assignment)
        assert a.lambda_min == b.lambda_min
        assert a.lambda_1se == b.lambda_1se

    def test_conditional_mean_example(self):
        # n=400, d=50, s=5: the one-SE rule backs off from the minimizer and
        # the full-data fit at lambda_1se recovers the true support exactly
        spec = SimSpec(model="conditional_mean", n=400, d=50, s=5, seed=20260815)
        data, theta_star = generate(spec)
        grid = default_lambda_grid(data, GAUSS, 1.0)
        cv = cross_validate_lambda(data, GAUSS, 1.0, 5, grid, seed=101)
        assert cv.lambda_1se >= cv.lambda_min
        fit = path_following(
            SmoothedRiskSpec(data=data, loss=SurrogateLoss(kernel=GAUSS, bandwidth=1.0)),
            PathConfig(lambda_tgt=cv.lambda_1se),
        )
        assert set(np.flatnonzero(fit.theta_final)) == set(np.flatnonzero(theta_star))

    def test_one_warm_started_path_per_fold(self, monkeypatch):
        # each fold walks the whole descending grid in one path; every grid
        # stage carries the final-stage certificate, recomputed here from
        # outside the solver, and is scored on that fold's held-out split;
        # run unweighted and with random weights, which each split slices
        data = make_dataset(n=80, d=5, seed=3)
        folds = 4
        calls = []
        real = tuning.path_following

        def recording(spec, cfg, **kw):
            path = real(spec, cfg, **kw)
            calls.append((spec, path))
            return path

        monkeypatch.setattr(tuning, "path_following", recording)
        for w in (None, rng_for(17).uniform(0.2, 3.0, size=data.n)):
            calls.clear()
            grid = default_lambda_grid(data, GAUSS, 1.0, weights=w)
            cv = cross_validate_lambda(data, GAUSS, 1.0, folds, grid, seed=2, weights=w)
            assert len(calls) == folds
            w_full = np.ones(data.n) if w is None else w
            losses = np.empty((grid.size, folds))
            for k, (train, path) in enumerate(calls):
                held_out = cv.fold_assignment == k
                assert train.data.n == data.n - np.count_nonzero(held_out)
                assert np.array_equal(train.weights, w_full[~held_out])
                stages = path.stages[1:]
                assert [stage.lam for stage in stages] == list(cv.lambda_grid)
                for stage in stages:
                    assert stage.status == "converged"
                    assert suboptimality(train, stage.theta, stage.lam) <= 0.1 * 0.25 * stage.lam
                test = SmoothedRiskSpec(
                    data=Dataset(x=data.x[held_out], y=data.y[held_out], z=data.z[held_out]),
                    loss=SurrogateLoss(kernel=GAUSS, bandwidth=1.0),
                    weights=None if w is None else w[held_out])
                losses[:, k] = [empirical_risk(test, stage.theta) for stage in stages]
            assert np.array_equal(cv.mean_cv_loss, losses.mean(axis=1))
            assert any(stage.nnz > 0 for _, path in calls for stage in path.stages)

    def test_repeated_grid_values_share_one_stage(self):
        data = make_dataset(n=48, d=4, seed=12)
        once = cross_validate_lambda(data, GAUSS, 1.0, 4, [0.15, 0.04, 0.01], seed=7)
        twice = cross_validate_lambda(data, GAUSS, 1.0, 4, [0.04, 0.15, 0.04, 0.01], seed=7)
        assert tuple(twice.lambda_grid) == (0.15, 0.04, 0.04, 0.01)
        assert np.array_equal(twice.mean_cv_loss, once.mean_cv_loss[[0, 1, 1, 2]])
        assert np.array_equal(twice.se_cv_loss, once.se_cv_loss[[0, 1, 1, 2]])
        assert (twice.lambda_min, twice.lambda_1se) == (once.lambda_min, once.lambda_1se)

    def test_result_invariant_checked(self):
        ones = np.ones(2)
        with pytest.raises(InputError, match="lambda_1se"):
            CvResult(
                lambda_grid=ones, mean_cv_loss=ones, se_cv_loss=ones,
                lambda_min=0.5, lambda_1se=0.2, fold_assignment=np.zeros(4, dtype=np.int64),
            )


def synthetic_fits(kind, thetas):
    """Wrap raw vectors as successful grid fits on a dyadic grid."""
    if kind == "bandwidth":
        values = [2.0 ** -k for k in range(len(thetas))]
    else:
        values = [2 ** k for k in range(len(thetas))]
    return [
        LepskiFit(grid_value=v, delta=1.0, lam=0.1, theta=np.asarray(t, dtype=float), status="ok")
        for v, t in zip(values, thetas)
    ]


class TestLepskiSelection:
    def test_identical_fits_pick_extremes(self):
        thetas = [np.array([0.3, -0.2])] * 5
        fits_b = synthetic_fits("bandwidth", thetas)
        assert select_lepski_bandwidth(fits_b, 100, 10, 2, 2.0) is fits_b[0]
        assert fits_b[0].grid_value == 1.0
        fits_s = synthetic_fits("sparsity", thetas)
        assert select_lepski_sparsity(fits_s, 100, 10, 1.0, 2.0) is fits_s[0]
        assert fits_s[0].grid_value == 1

    def test_zero_constant_with_distinct_fits(self):
        # with a zero constant every cross-fit bound fails, so only the most
        # conservative grid point (compared solely against itself) survives
        thetas = [np.array([float(i), 0.0]) for i in range(4)]
        fits_b = synthetic_fits("bandwidth", thetas)
        assert select_lepski_bandwidth(fits_b, 100, 10, 2, 0.0) is fits_b[-1]
        fits_s = synthetic_fits("sparsity", thetas)
        assert select_lepski_sparsity(fits_s, 100, 10, 1.0, 0.0) is fits_s[-1]

    def test_bandwidth_bound_uses_comparator_scale(self):
        # distances sit between the bounds at delta'=1 and delta'=1/2, so the
        # candidate at 1 fails against 1/2 but 1/2 survives against 1/4
        n, d, s = 100, 20, 2
        bound_at = lambda delta: math.sqrt(s * math.log(d) / (n * delta))
        gap_big = 1.2 * bound_at(0.5)
        theta0 = np.zeros(3)
        fits = synthetic_fits("bandwidth", [
            theta0,
            theta0 + np.array([gap_big, 0.0, 0.0]),
            theta0 + np.array([gap_big, 0.0, 0.0]),
        ])
        assert select_lepski_bandwidth(fits, n, d, s, 1.0).grid_value == 0.5

    def test_failed_fits_are_skipped(self):
        thetas = [np.array([0.0, 0.0])] * 3
        fits = synthetic_fits("bandwidth", thetas)
        fits[0] = replace(fits[0], theta=None, status="failed", detail="boom")
        assert select_lepski_bandwidth(fits, 100, 10, 2, 2.0) is fits[1]

    def test_empty_when_all_failed(self):
        fits = [
            LepskiFit(grid_value=1.0, delta=1.0, lam=0.1, theta=None, status="failed"),
        ]
        assert select_lepski_bandwidth(fits, 100, 10, 2, 2.0) is None
        assert select_lepski_sparsity(fits, 100, 10, 1.0, 2.0) is None

    def test_selection_monotone_in_constant(self):
        rng = rng_for(33)
        for trial in range(5):
            thetas = [rng.normal(size=4) * 0.3 for _ in range(6)]
            fits_b = synthetic_fits("bandwidth", thetas)
            fits_s = synthetic_fits("sparsity", thetas)
            consts = [0.0, 0.3, 0.8, 1.5, 3.0, 8.0]
            deltas = [select_lepski_bandwidth(fits_b, 200, 30, 3, c).grid_value for c in consts]
            assert np.all(np.diff(deltas) >= 0)
            esses = [select_lepski_sparsity(fits_s, 200, 30, 1.0, c).grid_value for c in consts]
            assert np.all(np.diff(esses) <= 0)


class TestLepskiProcedures:
    def test_no_signal_selects_largest_bandwidth(self):
        data = make_dataset(n=24, d=3, signal=False)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            delta_hat, theta, fits = lepski_bandwidth(data, GAUSS, s=2)
        assert delta_hat == 1.0 and type(delta_hat) is float
        assert np.all(theta == 0.0)
        assert len(fits) == len(build_lepski_grid("bandwidth", 24))
        assert all(f.status == "ok" for f in fits)

    def test_no_signal_selects_smallest_sparsity(self):
        data = make_dataset(n=24, d=8, signal=False)
        k2 = make_higher_order_gaussian(2)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            s_hat, theta, fits = lepski_sparsity(data, k2, beta=2.0)
        assert s_hat == 1 and type(s_hat) is int
        assert np.all(theta == 0.0)
        # d = 8 is a sandwich tie (4 <= 8 <= 8 and 8 <= 8 <= 16); smaller m wins
        assert [f.grid_value for f in fits] == [1, 2, 4]

    def test_null_fits_above_lambda0_do_not_warn(self):
        # on this fixture some bandwidths' schedule penalties exceed lambda0:
        # routine null fits, noted by path_following and warned by nobody
        data = make_dataset(seed=0)

        def spec_at(delta):
            return SmoothedRiskSpec(data=data, loss=SurrogateLoss(kernel=GAUSS, bandwidth=delta))

        over = [delta for delta in build_lepski_grid("bandwidth", data.n)
                if target_lambda(data.n, data.d, delta)
                > np.max(np.abs(empirical_gradient(spec_at(delta), np.zeros(data.d))))]
        assert over
        lam = target_lambda(data.n, data.d, over[-1])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            path = path_following(spec_at(over[-1]), PathConfig(lambda_tgt=lam))
            _, _, fits = lepski_bandwidth(data, GAUSS, s=2)
        assert caught == []
        assert any("exceeds the zero-solution penalty" in n for n in path.notes)
        assert all(f.status == "ok" for f in fits)
        assert all(not np.any(f.theta) for f in fits if f.grid_value in over)

    def test_fits_reused_not_recomputed(self, monkeypatch, tmp_path, forked_grid):
        data = make_dataset(n=40, d=4, seed=5)
        log = tmp_path / "calls"
        real = tuning.path_following

        def counting(spec, cfg):
            log_call(log, repr(spec.loss.bandwidth))
            return real(spec, cfg)

        monkeypatch.setattr(tuning, "path_following", counting)
        delta_hat, _, fits = lepski_bandwidth(data, GAUSS, s=2)
        calls = [float(line) for line in logged(log)]
        grid = build_lepski_grid("bandwidth", 40)
        assert len(calls) == len(grid)
        assert sorted(calls) == sorted(grid)
        assert delta_hat in grid
        assert len(fits) == len(grid)

    @pytest.mark.parametrize("workers", ["in_turn", "forked"])
    def test_every_failed_fit_is_one_numeric_error(self, monkeypatch, request, workers):
        # each grid value is fitted once and warned about in grid order; no
        # fit is made after the grid, and no worker outlives the call
        request.getfixturevalue("forked_grid" if workers == "forked" else "fits_in_turn")
        data = make_dataset(n=40, d=8, seed=6)

        def failing(spec, cfg):
            raise NumericError("synthetic failure")

        monkeypatch.setattr(tuning, "path_following", failing)
        runs = [("bandwidth", build_lepski_grid("bandwidth", 40),
                 lambda: lepski_bandwidth(data, GAUSS, s=2)),
                ("sparsity level", build_lepski_grid("sparsity", 8),
                 lambda: lepski_sparsity(data, make_higher_order_gaussian(2), beta=2.0))]
        for label, grid, run in runs:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                with pytest.raises(NumericError) as failed:
                    run()
            assert str(failed.value) == (
                f"every {label} fit failed ({', '.join(f'{v:g}' for v in grid)}); "
                "nothing to select")
            assert [str(w.message) for w in caught] == [
                f"{label} {v:g}: fit failed and is excluded from selection "
                f"(synthetic failure)" for v in grid]
            assert_no_child()

    @pytest.mark.parametrize("workers", ["in_turn", "forked"])
    def test_fit_stopped_on_its_budget_is_excluded(self, request, workers):
        # a grid fit whose last stage stops on its iteration budget fails like
        # one that raised: warned about in grid order with its status, gap and
        # tolerance, and left out of the selection; with no converged fit the
        # call raises the one NumericError
        request.getfixturevalue("forked_grid" if workers == "forked" else "fits_in_turn")
        data, _ = generate(SimSpec(model="conditional_mean", n=300, d=16, s=2,
                                   mu=2.0, noise_sd=0.1, seed=3))
        cfg = PathConfig(lambda_tgt=1.0, max_inner_iters=1)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            delta_hat, theta, fits = lepski_bandwidth(data, GAUSS, s=2, c_lambda=0.1,
                                                      path_cfg=cfg)
        assert_no_child()
        ok = [f for f in fits if f.status == "ok"]
        assert [f.grid_value for f in ok] == [1.0, 2.0 ** -6, 2.0 ** -9]
        excluded = []
        for fit in fits:
            if fit.status == "ok":
                continue
            spec = SmoothedRiskSpec(data, SurrogateLoss(GAUSS, fit.delta))
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", ConvergenceWarning)
                path = path_following(spec, replace(cfg, lambda_tgt=fit.lam))
            last = path.stages[-1]
            assert fit.theta is None and last.status == "max_iter"
            assert fit.detail == (f"last stage max_iter with omega={last.exit_omega:.3e}"
                                  f" > eps={path.config_echo.eps_tgt:.3e}")
            excluded.append(f"bandwidth {fit.grid_value:g}: fit failed and is "
                            f"excluded from selection ({fit.detail})")
        assert len(excluded) == 7
        assert [str(w.message) for w in caught if w.category is UserWarning] == excluded
        chosen = select_lepski_bandwidth(ok, n=300, d=16, s=2, c_sel=2.0)
        assert delta_hat == chosen.grid_value == 1.0
        assert np.array_equal(theta, chosen.theta)

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(NumericError) as failed:
                lepski_sparsity(data, make_higher_order_gaussian(2), beta=2.0,
                                c_delta=0.32, c_lambda=0.06, c_bar=1.0, path_cfg=cfg)
        assert_no_child()
        assert str(failed.value) == ("every sparsity level fit failed (1, 2, 4, 8); "
                                     "nothing to select")
        assert [str(w.message).split(":")[0] for w in caught if w.category is UserWarning] \
            == ["sparsity level 1", "sparsity level 2", "sparsity level 4", "sparsity level 8"]

    def test_unusable_constants_are_refused_before_any_fork(self, monkeypatch, forked_grid):
        data = make_dataset(n=40, d=8, seed=6)

        def no_fork(*args):
            pytest.fail("a grid fit started before the constants were checked")

        monkeypatch.setattr(tuning, "fork_map", no_fork)
        with pytest.raises(InputError, match="overflows at delta = "):
            lepski_sparsity(data, make_higher_order_gaussian(2), beta=2.0, c_delta=1e-322)
        with pytest.raises(InputError, match="overflows at delta = "):
            lepski_bandwidth(data, GAUSS, s=2, c_lambda=1e308)
        with pytest.raises(InputError, match=r"c_lambda must be a positive real, got 0\.0"):
            lepski_bandwidth(data, GAUSS, s=2, c_lambda=0.0)

    def test_partial_failure_warns_and_excludes(self, monkeypatch):
        data = make_dataset(n=24, d=3, signal=False)
        real = tuning.path_following

        def flaky(spec, cfg):
            if spec.loss.bandwidth == 1.0:
                raise NumericError("synthetic failure")
            return real(spec, cfg)

        monkeypatch.setattr(tuning, "path_following", flaky)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            delta_hat, _, fits = lepski_bandwidth(data, GAUSS, s=2)
        assert delta_hat == 0.5  # largest surviving point of the flat fits
        assert any("excluded from selection" in str(w.message) for w in caught)
        assert fits[0].status == "failed"

    def test_sparsity_precondition(self):
        data = make_dataset(n=24, d=4)
        with pytest.raises(InputError, match="c_delta"):
            lepski_sparsity(data, GAUSS, beta=1.0, c_delta=2.0, c_lambda=1.0)

    def test_sparsity_precondition_whose_power_overflows(self):
        # 10 ** 400.5 overflows a float, so it exceeds every c_lambda
        data = make_dataset(n=24, d=4)
        with pytest.raises(InputError, match=r"c_delta\*\*\(beta \+ 1/2\).*\(inf > 1\)"):
            lepski_sparsity(data, GAUSS, beta=400.0, c_delta=10.0)

    def test_sparsity_warns_on_low_kernel_order(self):
        data = make_dataset(n=24, d=4, signal=False)
        with pytest.warns(UserWarning, match="kernel order"):
            lepski_sparsity(data, GAUSS, beta=2.0)

    def test_dimension_requirement(self):
        rng = rng_for(0)
        data = Dataset(
            x=rng.standard_normal(10),
            y=np.where(np.arange(10) % 2 == 0, 1.0, -1.0),
            z=rng.standard_normal((10, 1)),
        )
        with pytest.raises(InputError, match="at least 2"):
            lepski_bandwidth(data, GAUSS, s=1)
