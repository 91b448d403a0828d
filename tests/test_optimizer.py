import collections
import contextlib
import itertools
import math
import os
import pathlib
import subprocess
import sys
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import smooth_threshold
from smooth_threshold import optimizer
from smooth_threshold.errors import ConvergenceWarning, InputError
from smooth_threshold.kernels import SurrogateLoss, get_kernel
from smooth_threshold.optimizer import (PathConfig, path_following, suboptimality,
                                        _project_ball, _soft_threshold,
                                        _subopt_from_grad)
from smooth_threshold.risk import (Dataset, SmoothedRiskSpec, empirical_gradient,
                                   empirical_risk, objective)
from smooth_threshold.simulate import SimSpec, generate

from conftest import random_spec, rng_for


def _one_stage(spec, theta0, lam, eps, *, eta=1.0, radius=math.inf,
               max_iters=10000):
    """The record of one stage of the path's loop from ``theta0``, with its
    margins and gradient evaluated there and first trial step ``eta``."""
    u = spec.margins(theta0)
    state = optimizer._State(theta0, empirical_gradient(spec, theta0, u=u), u,
                             eta, 0)
    return optimizer._solve_stage(spec, state, lam, eps, radius, max_iters, [])[0]


def test_soft_threshold_exact_zero_at_boundary():
    v = np.array([0.3, -0.3, 0.300001, -5.0, 0.0])
    out = _soft_threshold(v, 0.3)
    assert out[0] == 0.0 and out[1] == 0.0
    assert out[2] == pytest.approx(1e-6, rel=1e-6)
    assert out[3] == -4.7
    assert out[4] == 0.0


def test_soft_threshold_against_grid_prox_oracle():
    # scalar prox of tau |.| : argmin over a 1e-6 grid on [-2, 2]
    grid = np.arange(-2.0, 2.0, 1e-6)
    for w, tau in [(0.8, 0.3), (-1.4, 0.5), (0.2, 0.45), (1.9, 0.0)]:
        vals = 0.5 * (grid - w) ** 2 + tau * np.abs(grid)
        oracle = grid[np.argmin(vals)]
        assert _soft_threshold(np.array([w]), tau)[0] == pytest.approx(
            oracle, abs=2e-6)


@settings(max_examples=80, deadline=None)
@given(st.floats(-50, 50), st.floats(0, 10))
def test_soft_threshold_properties(v, tau):
    out = float(_soft_threshold(np.array([v]), tau)[0])
    assert abs(out) == pytest.approx(max(abs(v) - tau, 0.0), abs=0)
    if out != 0.0:
        assert math.copysign(1.0, out) == math.copysign(1.0, v)


def test_project_ball():
    v = np.array([3.0, 0.0, 4.0])  # norm 5
    out, outside = _project_ball(v, 2.5)
    assert outside
    assert np.linalg.norm(out) == pytest.approx(2.5, rel=1e-14)
    assert out[1] == 0.0  # sparsity pattern kept
    assert out == pytest.approx(v * 0.5)
    for radius in (5.0, 10.0, math.inf):  # on or inside the ball: unchanged
        same, outside = _project_ball(v, radius)
        assert not outside and np.array_equal(same, v)


def brute_force_omega(g, theta, lam, step=1e-3):
    """Independent route: grid minimization over the l1 subdifferential."""
    choices = []
    for gj, tj in zip(g, theta):
        if tj != 0:
            choices.append([math.copysign(1.0, tj)])
        else:
            choices.append(np.arange(-1.0, 1.0 + step / 2, step))
    best = math.inf
    for xi in itertools.product(*choices):
        best = min(best, float(np.max(np.abs(g + lam * np.asarray(xi)))))
    return best


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4, 5])
def test_suboptimality_matches_bruteforce(seed):
    rng = np.random.Generator(np.random.Philox(key=seed))
    d = int(rng.integers(1, 4))
    g = rng.normal(scale=0.5, size=d)
    theta = rng.normal(size=d) * (rng.random(d) < 0.6)
    lam = float(rng.uniform(0.05, 0.8))
    closed = _subopt_from_grad(g, theta, lam)
    assert closed == pytest.approx(brute_force_omega(g, theta, lam), abs=2e-3)


def test_suboptimality_formula_example():
    # theta = (1, 0), grad = (-0.5, 0.1), lam = 0.5: both coordinates optimal
    assert _subopt_from_grad(np.array([-0.5, 0.1]), np.array([1.0, 0.0]),
                             0.5) == 0.0


def test_suboptimality_zero_at_origin_with_lambda0():
    spec = random_spec(n=50, d=4, seed=13)
    lam0 = float(np.max(np.abs(empirical_gradient(spec, np.zeros(4)))))
    assert suboptimality(spec, np.zeros(4), lam0) == 0.0


@pytest.mark.parametrize("lam", [-0.5, math.inf, math.nan])
def test_bad_penalty_level_has_one_message(lam):
    # objective and suboptimality check it alike
    spec = random_spec(n=20, d=3, seed=2)
    message = f"penalty level must be a nonnegative real, got {lam}"
    for call in (lambda: objective(spec, np.zeros(3), lam),
                 lambda: suboptimality(spec, np.zeros(3), lam)):
        with pytest.raises(InputError) as exc:
            call()
        assert str(exc.value) == message


def test_proximal_gradient_returns_warm_start_unchanged():
    spec = random_spec(n=50, d=4, seed=13)
    lam0 = float(np.max(np.abs(empirical_gradient(spec, np.zeros(4)))))
    res = _one_stage(spec, np.zeros(4), lam0 * 1.01, eps=1e-9)
    assert res.iterations == 0
    assert res.exit_omega == 0.0
    assert np.array_equal(res.theta, np.zeros(4))
    assert res.status == "converged"


def test_pure_shrinkage_reaches_exact_zero():
    # all-zero covariates: the gradient vanishes and steps are pure shrinkage
    data = Dataset(x=[0.5, -0.3], y=[1.0, -1.0], z=np.zeros((2, 3)))
    spec = SmoothedRiskSpec(data=data,
                            loss=SurrogateLoss(kernel=get_kernel("gaussian"),
                                               bandwidth=1.0))
    theta0 = np.array([0.95, -0.1, 0.4])
    lam, eta = 0.3, 1.0
    res = _one_stage(spec, theta0, lam, eps=lam / 2, eta=eta)
    assert np.array_equal(res.theta, np.zeros(3))
    assert res.iterations == math.ceil(0.95 / (lam * eta))
    assert res.status == "converged"
    assert np.all(np.diff(res.objective_trace) < 0)


def test_prox_step_fixed_point_at_zero():
    spec = random_spec(n=40, d=3, seed=8)
    lam0 = float(np.max(np.abs(empirical_gradient(spec, np.zeros(3)))))
    out = _one_stage(spec, np.zeros(3), lam0, eps=0.0)
    assert out.iterations == 0
    assert np.array_equal(out.theta, np.zeros(3))
    moved = _one_stage(spec, np.zeros(3), lam0 * 0.5, eps=1e-8)
    assert moved.iterations > 0 and np.any(moved.theta != 0.0)


def test_monotone_trace_and_stage_tolerances():
    spec = random_spec(n=120, d=6, seed=31)
    cfg = PathConfig(lambda_tgt=0.02, num_stages=8)
    path = path_following(spec, cfg)
    for rec in path.stages:
        assert np.all(np.diff(rec.objective_trace) <= 1e-12)
        if rec.stage_index == 0:
            continue
        eps = cfg.nu * rec.lam if rec.stage_index < 8 else path.config_echo.eps_tgt
        assert rec.exit_omega <= eps
        assert rec.status == "converged"
    # final solution beats the zero vector on the target objective
    assert objective(spec, path.theta_final, 0.02) <= objective(
        spec, np.zeros(6), 0.02) + 1e-12


def test_fixed_stage_count_schedule_is_geometric():
    spec = random_spec(n=60, d=4, seed=3)
    cfg = PathConfig(lambda_tgt=0.1, lambda0=1.0, num_stages=10)
    path = path_following(spec, cfg)
    lams = [rec.lam for rec in path.stages]
    assert len(lams) == 11
    expect = [10 ** (-t / 10) for t in range(11)]
    assert lams == pytest.approx(expect, rel=1e-12)
    assert lams[-1] == 0.1  # final stage hits the target exactly
    assert path.stages[0].iterations == 0
    assert path.stages[0].status == "initial"
    assert all(a > b for a, b in zip(lams, lams[1:]))


def test_fixed_ratio_schedule_stage_count():
    spec = random_spec(n=60, d=4, seed=3)
    cfg = PathConfig(lambda_tgt=0.1, lambda0=1.0, phi=0.9)
    path = path_following(spec, cfg)
    num = math.ceil(math.log(0.1) / math.log(0.9))  # 22
    assert num == 22
    # stage 0 plus stages 1..N
    assert len(path.stages) == num + 1
    inner = [rec.lam for rec in path.stages[1:-1]]
    assert inner == pytest.approx([0.9 ** t for t in range(1, num)], rel=1e-12)
    assert path.stages[-1].lam == 0.1


def test_target_equal_to_lambda0_is_single_stage():
    spec = random_spec(n=50, d=4, seed=13)
    lam0 = float(np.max(np.abs(empirical_gradient(spec, np.zeros(4)))))
    path = path_following(spec, PathConfig(lambda_tgt=lam0, lambda0=lam0))
    assert len(path.stages) == 1
    assert path.stages[0].iterations == 0
    assert np.array_equal(path.theta_final, np.zeros(4))


def test_target_above_lambda0_notes_and_runs_single_stage():
    # a note, not a warning: the stage meets its tolerance, no budget runs out
    spec = random_spec(n=50, d=4, seed=13)
    lam0 = float(np.max(np.abs(empirical_gradient(spec, np.zeros(4)))))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        path = path_following(spec, PathConfig(lambda_tgt=lam0 * 2))
    assert caught == []
    assert len(path.stages) == 1
    assert np.array_equal(path.theta_final, np.zeros(4))
    assert path.notes == (
        f"lambda_tgt={lam0 * 2:.6g} exceeds the zero-solution penalty "
        f"lambda0={lam0:.6g}; running a single stage at lambda_tgt",)


def test_max_inner_iters_warns_with_status():
    spec = random_spec(n=100, d=5, seed=41)
    cfg_lam = 0.001
    with pytest.warns(ConvergenceWarning):
        res = _one_stage(spec, np.zeros(5), cfg_lam, eps=1e-14, max_iters=3)
    assert res.status == "max_iter"
    assert res.iterations == 3


def test_boundary_contact_is_noted():
    spec = random_spec(n=60, d=3, seed=11)
    cfg = PathConfig(lambda_tgt=0.005, num_stages=6, omega_radius=0.05,
                     max_inner_iters=200)
    # the interior optimum lies outside the tiny ball, so the interior-form
    # omega cannot reach its tolerance and the stage stops on the budget
    with pytest.warns(ConvergenceWarning):
        path = path_following(spec, cfg)
    assert any("boundary" in note for note in path.notes)
    assert np.linalg.norm(path.theta_final) <= 0.05 + 1e-12


def test_backtracking_keeps_trace_monotone_with_large_eta():
    spec = random_spec(n=80, d=4, seed=19)
    cfg = PathConfig(lambda_tgt=0.02, num_stages=6, eta=50.0)
    path = path_following(spec, cfg)
    for rec in path.stages:
        assert np.all(np.diff(rec.objective_trace) <= 1e-12)


def test_one_margin_evaluation_per_candidate(monkeypatch):
    # a candidate's margins serve its objective and, once it is accepted,
    # its gradient; the gradient does not evaluate them again
    spec = random_spec(n=80, d=4, seed=19)
    counts = {"margins": 0, "objective": 0}

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(SmoothedRiskSpec, "margins",
                        counting("margins", SmoothedRiskSpec.margins))
    monkeypatch.setattr(optimizer, "objective",
                        counting("objective", optimizer.objective))
    res = _one_stage(spec, np.zeros(4), 0.02, 1e-6, eta=50.0)
    assert res.iterations > 0
    # eta=50 forces step halvings, so some candidates are rejected
    assert counts["margins"] == counts["objective"] > res.iterations + 1


def test_halvings_count_every_rejected_trial_step(monkeypatch):
    # a stage evaluates the objective at its warm start, then once per trial
    # step: each accepted one makes an iteration, each rejected one a halving
    spec = random_spec(n=80, d=4, seed=19)
    calls = collections.Counter()

    def counting(spec, theta, lam, **kwargs):
        calls[lam] += 1
        return real(spec, theta, lam, **kwargs)

    real = optimizer.objective
    monkeypatch.setattr(optimizer, "objective", counting)
    path = path_following(spec, PathConfig(lambda_tgt=0.02, num_stages=6,
                                           eta=50.0))
    first, *stages = path.stages
    assert first.halvings == 0 and calls[first.lam] == 1
    assert all(rec.status == "converged" for rec in stages)
    for rec in stages:
        assert calls[rec.lam] == 1 + rec.iterations + rec.halvings
    assert sum(rec.halvings for rec in stages) > 0  # eta=50 forces some


_RISING_TRACE = """
import numpy as np
from smooth_threshold.errors import NumericError
from smooth_threshold.kernels import SurrogateLoss, get_kernel
from smooth_threshold import optimizer
from smooth_threshold.optimizer import PathConfig, path_following
from smooth_threshold.risk import SmoothedRiskSpec
from smooth_threshold.simulate import SimSpec, generate

data, _ = generate(SimSpec(model="conditional_mean", n=200, d=8, s=2, seed=3))
spec = SmoothedRiskSpec(data, SurrogateLoss(get_kernel("gaussian"), 0.2))
optimizer._BACKTRACK_SLACK = float("inf")  # accept every step: no backtracking
try:
    path_following(spec, PathConfig(lambda_tgt=1e-3, eps_tgt=1e-9, eta=1e4,
                                    omega_radius=float("inf"),
                                    max_inner_iters=50), lambdas=[1e-3])
except NumericError as exc:
    print("NumericError:", exc)
"""


def test_rising_trace_raises_under_python_O():
    # without backtracking a huge step overshoots; the monotone-trace check
    # must survive -O, which strips assert statements
    src = pathlib.Path(smooth_threshold.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, "-O", "-W", "ignore", "-c",
                          _RISING_TRACE], env=env, capture_output=True,
                         text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.startswith("NumericError: objective trace"), out.stdout


def test_path_is_deterministic():
    spec = random_spec(n=90, d=5, seed=23)
    cfg = PathConfig(lambda_tgt=0.03)
    p1 = path_following(spec, cfg)
    p2 = path_following(spec, cfg)
    assert np.array_equal(p1.theta_final, p2.theta_final)
    assert [r.iterations for r in p1.stages] == [r.iterations for r in p2.stages]


def test_stage_count_above_the_cap_is_bad_input():
    with pytest.raises(InputError, match="num_stages must be at most 10000, got 100000000"):
        PathConfig(lambda_tgt=0.1, num_stages=10 ** 8)
    assert PathConfig(lambda_tgt=0.1, num_stages=10_000).num_stages == 10_000


def test_phi_implying_too_many_stages_is_bad_input():
    # log(1e-3) / log(phi) is about 6.9e10 stages, refused before the
    # schedule is built
    spec = random_spec(n=30, d=3, seed=4)
    cfg = PathConfig(lambda_tgt=1e-3, lambda0=1.0, phi=0.9999999999)
    with pytest.raises(InputError) as exc:
        path_following(spec, cfg)
    assert str(exc.value) == (
        "phi=0.9999999999 takes 69077547071 stages from lambda0=1 to "
        "lambda_tgt=0.001; at most 10000 are allowed")


def test_config_validation():
    with pytest.raises(InputError):
        PathConfig(lambda_tgt=0.0)
    with pytest.raises(InputError):
        PathConfig(lambda_tgt=0.1, num_stages=5, phi=0.9)
    with pytest.raises(InputError):
        PathConfig(lambda_tgt=0.1, phi=1.0)
    with pytest.raises(InputError):
        PathConfig(lambda_tgt=0.1, nu=0.0)
    with pytest.raises(InputError):
        PathConfig(lambda_tgt=0.1, eta=-1.0)
    with pytest.raises(InputError):
        PathConfig(lambda_tgt=0.1, eps_tgt=0.0)
    with pytest.raises(InputError):
        PathConfig(lambda_tgt=0.1, omega_radius=-2.0)
    with pytest.raises(InputError):
        PathConfig(lambda_tgt=0.1, max_inner_iters=0)
    # unchecked, a zero radius or step runs the whole budget without
    # progress; each refusal names its field
    for kwargs, name in ((dict(eta=0.0), "eta"), (dict(eta=math.inf), "eta"),
                         (dict(omega_radius=0.0), "omega_radius"),
                         (dict(omega_radius=-1.0), "omega_radius"),
                         (dict(max_inner_iters=-5), "max_inner_iters")):
        with pytest.raises(InputError, match=f"^{name} must be"):
            PathConfig(lambda_tgt=0.1, **kwargs)


def test_config_echo_reports_resolved_values():
    spec = random_spec(n=50, d=4, seed=13)
    path = path_following(spec, PathConfig(lambda_tgt=0.05))
    echo = path.config_echo
    lam0 = float(np.max(np.abs(empirical_gradient(spec, np.zeros(4)))))
    assert echo.lambda0 == pytest.approx(lam0, rel=1e-14)
    assert echo.num_stages == 10
    assert echo.eps_tgt == pytest.approx(0.1 * 0.25 * 0.05)


def test_geometric_objective_decay_in_final_stage():
    spec = random_spec(n=150, d=8, seed=57)
    cfg = PathConfig(lambda_tgt=0.02, num_stages=8, eps_tgt=1e-9)
    path = path_following(spec, cfg)
    assert path.config_echo.lambda0 > 0.02  # a real multi-stage path
    rec = path.stages[-1]
    trace = rec.objective_trace
    f_star = trace[-1]
    gaps = trace[:-1] - f_star
    gaps = gaps[gaps > 1e-14]
    assert len(gaps) >= 5
    k = np.arange(len(gaps))
    logg = np.log(gaps)
    slope, intercept = np.polyfit(k, logg, 1)
    pred = slope * k + intercept
    ss_res = np.sum((logg - pred) ** 2)
    ss_tot = np.sum((logg - logg.mean()) ** 2)
    assert 1 - ss_res / ss_tot >= 0.9
    assert slope < 0


def test_stage_margins_carried_to_next_stage(monkeypatch):
    # each stage starts from the margins of the previous stage's last accepted
    # candidate, and the margins at zero are y * x, so margins are computed
    # exactly once per candidate
    spec = random_spec(n=80, d=4, seed=19)
    counts = {"margins": 0, "candidates": 0}

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(SmoothedRiskSpec, "margins",
                        counting("margins", SmoothedRiskSpec.margins))
    # the stage loop shrinks each candidate exactly once
    monkeypatch.setattr(optimizer, "_soft_threshold",
                        counting("candidates", optimizer._soft_threshold))
    path = path_following(spec, PathConfig(lambda_tgt=0.02, num_stages=6, eta=50.0))
    assert len(path.stages) == 7
    assert counts["candidates"] > sum(r.iterations for r in path.stages)
    assert counts["margins"] == counts["candidates"]


@pytest.mark.parametrize("d", [64, 256, 2500])
def test_margins_at_zero_are_y_times_x(d):
    # path_following takes y * x as the margins at theta = 0, without a z pass
    spec = random_spec(n=2000, d=d, seed=d)
    zero = np.zeros(d)
    assert (spec.data.y * spec.data.x).tobytes() == spec.margins(zero).tobytes()


def _geometric_path_oracle(spec, cfg):
    """The geometric path rebuilt stage by stage from ``_one_stage``, each
    stage's first trial step being the step the stage before carried."""
    zero = np.zeros(spec.data.d)
    g0 = empirical_gradient(spec, zero)
    lam0 = float(np.max(np.abs(g0)))
    eps_tgt = 0.1 * cfg.nu * cfg.lambda_tgt
    num = cfg.num_stages
    phi = (cfg.lambda_tgt / lam0) ** (1.0 / num)
    lams = [lam0 * phi ** t for t in range(1, num)] + [cfg.lambda_tgt]
    stages = [(0, lam0, 0, _subopt_from_grad(g0, zero, lam0), zero,
               np.array([objective(spec, zero, lam0)]), 0, "initial", cfg.eta)]
    theta, step = zero, cfg.eta
    for t, lam in enumerate(lams, start=1):
        eps = cfg.nu * lam if t < num else eps_tgt
        res = _one_stage(spec, theta, lam, eps, eta=step,
                         radius=cfg.omega_radius)
        theta, step = res.theta, res.step
        stages.append((t, lam, res.iterations, res.exit_omega, theta,
                       res.objective_trace, int(np.count_nonzero(theta)),
                       res.status, step))
    return stages


@pytest.mark.parametrize("eta", [1.0, 50.0])
def test_default_ladder_stages_are_byte_identical(eta):
    # without an explicit ladder the path is the geometric schedule, each
    # stage warm-started from the last, exactly as independent stage solves
    spec = random_spec(n=120, d=6, seed=31)
    cfg = PathConfig(lambda_tgt=0.02, num_stages=8, eta=eta)
    path = path_following(spec, cfg)
    expect = _geometric_path_oracle(spec, cfg)
    assert len(path.stages) == len(expect)
    for rec, (t, lam, iters, omega, theta, trace, nnz, status, step) in zip(
            path.stages, expect):
        assert (rec.stage_index, rec.lam, rec.iterations, rec.exit_omega,
                rec.nnz, rec.status, rec.step) == (t, lam, iters, omega, nnz,
                                                    status, step)
        assert rec.theta.tobytes() == theta.tobytes()
        assert rec.objective_trace.tobytes() == trace.tobytes()
    assert path.theta_final.tobytes() == expect[-1][4].tobytes()


def test_explicit_ladder_stages_and_echo():
    spec = random_spec(n=120, d=6, seed=31)
    lam0 = float(np.max(np.abs(empirical_gradient(spec, np.zeros(6)))))
    ladder = [2.0 * lam0, lam0, 0.5 * lam0, 0.2 * lam0, 0.02]
    cfg = PathConfig(lambda_tgt=1.0)  # lambda_tgt is unused with a ladder
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # values above lambda0 are routine
        path = path_following(spec, cfg, lambdas=ladder)
    assert [r.lam for r in path.stages] == [lam0] + ladder
    assert [r.stage_index for r in path.stages] == list(range(6))
    for rec in path.stages[1:3]:
        # at or above lambda0 the zero vector is already stationary
        assert rec.iterations == 0 and rec.nnz == 0 and rec.exit_omega == 0.0
    for rec in path.stages[1:]:
        assert rec.status == "converged"
        assert rec.exit_omega <= 0.1 * cfg.nu * rec.lam
        assert np.all(np.diff(rec.objective_trace) <= 1e-12)
    assert path.stages[-1].nnz > 0
    echo = path.config_echo
    assert (echo.lambda_tgt, echo.num_stages, echo.phi) == (0.02, 5, None)
    assert echo.lambda0 == lam0
    assert echo.eps_tgt == 0.1 * cfg.nu * 0.02
    # an explicit eps_tgt is the tolerance of every ladder stage
    fixed = path_following(spec, replace(cfg, eps_tgt=1e-8), lambdas=ladder)
    assert all(r.exit_omega <= 1e-8 for r in fixed.stages[1:])
    assert fixed.config_echo.eps_tgt == 1e-8


@pytest.mark.parametrize("ladder", [
    [], [0.01, 0.1], [0.1, 0.1], [0.1, 0.0], [0.1, -0.05], [math.inf, 0.1],
    [0.1, math.nan],
], ids=["empty", "ascending", "repeated", "zero", "negative", "inf", "nan"])
def test_invalid_ladder_rejected(ladder):
    spec = random_spec(n=50, d=4, seed=13)
    with pytest.raises(InputError, match="penalty ladder"):
        path_following(spec, PathConfig(lambda_tgt=0.05), lambdas=ladder)


def test_step_kept_when_curvature_is_not_positive():
    # all-zero covariates: the gradient never changes, so s'r = 0 and the
    # Barzilai-Borwein step is undefined; the loop keeps the step it has
    data = Dataset(x=[0.5, -0.3], y=[1.0, -1.0], z=np.zeros((2, 3)))
    spec = SmoothedRiskSpec(data=data,
                            loss=SurrogateLoss(kernel=get_kernel("gaussian"),
                                               bandwidth=1.0))
    for eta in (1.0, 0.25):
        res = _one_stage(spec, np.array([0.95, -0.1, 0.4]), 0.3, eps=0.15,
                         eta=eta)
        assert res.iterations == math.ceil(0.95 / (0.3 * eta)) > 1
        assert res.step == eta


def test_stage_starts_at_step_carried_from_previous_stage(monkeypatch):
    spec = random_spec(n=120, d=6, seed=31)
    real = optimizer._solve_stage
    calls = []

    def spy(spec, state, *args):
        record, after = real(spec, state, *args)
        calls.append((state.step, record.step))
        return record, after

    monkeypatch.setattr(optimizer, "_solve_stage", spy)
    cfg = PathConfig(lambda_tgt=0.02, num_stages=8, eta=0.5)
    path = path_following(spec, cfg)
    assert len(calls) == 8
    assert calls[0][0] == 0.5
    for (_, carried), (first, _) in zip(calls, calls[1:]):
        assert first == carried
    assert [rec.step for rec in path.stages] == [0.5] + [c[1] for c in calls]
    # the step adapts: it does not stay at eta
    assert any(c[1] != 0.5 for c in calls)


def test_barzilai_borwein_step_is_clipped(monkeypatch):
    spec = random_spec(n=120, d=6, seed=31)
    zero = np.zeros(6)
    lam = 0.02

    def one_step():
        with pytest.warns(ConvergenceWarning):
            return _one_stage(spec, zero, lam, eps=1e-12, max_iters=1)

    res = one_step()
    assert res.iterations == 1
    s = res.theta - zero
    r = empirical_gradient(spec, res.theta) - empirical_gradient(spec, zero)
    assert s @ r > 0
    bb = (s @ s) / (s @ r)
    assert optimizer._STEP_RANGE == (1e-10, 1024.0)
    assert res.step == pytest.approx(bb, rel=1e-12)
    monkeypatch.setattr(optimizer, "_STEP_RANGE", (1e-10, bb / 4))
    assert one_step().step == bb / 4
    monkeypatch.setattr(optimizer, "_STEP_RANGE", (4 * bb, 8 * bb))
    assert one_step().step == 4 * bb


# total iterations of PathConfig(lambda_tgt=0.005) on random_spec(n=200,
# d=20, seed=5) with the fixed step eta=1 at every iteration of every stage
_FIXED_STEP_ITERATIONS = 187


def test_adaptive_step_needs_fewer_iterations_than_fixed_step():
    spec = random_spec(n=200, d=20, seed=5)
    path = path_following(spec, PathConfig(lambda_tgt=0.005))
    assert path.stages[-1].status == "converged"
    assert sum(rec.iterations for rec in path.stages) < _FIXED_STEP_ITERATIONS


def _record_bytes(rec):
    return [(f.name, v.tobytes() if isinstance(v, np.ndarray) else v)
            for f in fields(rec) for v in [getattr(rec, f.name)]]


@pytest.mark.parametrize("explicit", [False, True], ids=["geometric", "ladder"])
def test_stored_stage_state_resumes_bit_for_bit(explicit):
    # a path run one stage at a time keeps the state before every stage; any
    # stored state, re-solved after all later stages ran, gives that stage's
    # record, notes and next state again
    spec = random_spec(n=120, d=6, seed=31)
    zero, u0 = np.zeros(6), spec.data.y * spec.data.x
    g0 = empirical_gradient(spec, zero, u=u0)
    lam0 = float(np.max(np.abs(g0)))
    if explicit:
        cfg = PathConfig(lambda_tgt=1.0)
        ladder = [2.0 * lam0, lam0, 0.5 * lam0, 0.2 * lam0, 0.02]
    else:
        cfg, ladder = PathConfig(lambda_tgt=0.02, num_stages=4), None
    path = path_following(spec, cfg, ladder)
    lams = [rec.lam for rec in path.stages[1:]]
    # every ladder value is solved to the final-stage tolerance
    epss = [(0.1 if explicit else 1.0) * cfg.nu * lam for lam in lams[:-1]] \
        + [path.config_echo.eps_tgt]
    assert path.notes  # the warm-start notes are part of what must repeat

    def solve(state, t, notes):
        return optimizer._solve_stage(spec, state, lams[t - 1], epss[t - 1],
                                      cfg.omega_radius, cfg.max_inner_iters,
                                      notes)

    states, notes = [optimizer._State(zero, g0, u0, cfg.eta, 1)], []
    for t in range(1, len(path.stages)):
        rec, state = solve(states[-1], t, notes)
        assert _record_bytes(rec) == _record_bytes(path.stages[t])
        states.append(state)
    assert tuple(notes) == path.notes
    for t in (1, len(lams) // 2, len(lams)):
        notes = []
        rec, state = solve(states[t - 1], t, notes)
        assert _record_bytes(rec) == _record_bytes(path.stages[t])
        assert notes == [n for n in path.notes if n.startswith(f"stage {t}:")]
        assert _record_bytes(state) == _record_bytes(states[t])


# (spec, config, ladder) of each path whose certificate is checked
_CONTRACT_CASES = {
    "geometric": lambda: (random_spec(n=120, d=6, seed=31),
                          PathConfig(lambda_tgt=0.02, num_stages=8), None),
    "ladder": lambda: (random_spec(n=120, d=6, seed=31), PathConfig(lambda_tgt=1.0),
                       [0.3, 0.1, 0.05, 0.02, 0.01]),
    "above-lambda0": lambda: (random_spec(n=120, d=6, seed=31),
                              PathConfig(lambda_tgt=10.0), None),
    "order-2": lambda: (random_spec(n=80, d=4, seed=19, kernel="gaussian-order-2"),
                        PathConfig(lambda_tgt=0.02, num_stages=6, eta=50.0), None),
    "weighted": lambda: (random_spec(n=100, d=5, seed=7,
                                     weights=rng_for(7).uniform(0.5, 2.0, 100)),
                         PathConfig(lambda_tgt=0.01), None),
    "ball": lambda: (random_spec(n=60, d=3, seed=11),
                     PathConfig(lambda_tgt=0.005, num_stages=6, omega_radius=0.05,
                                max_inner_iters=200), None),
}


@pytest.mark.parametrize("name", list(_CONTRACT_CASES))
def test_exit_omega_is_the_gap_of_the_stage_solution(name, monkeypatch):
    # the gradient and margins a stage carries belong to its iterate: the
    # recorded gap is the one recomputed from theta, bit for bit, and a path
    # evaluates the gradient once at zero and once per accepted step
    spec, cfg, ladder = _CONTRACT_CASES[name]()
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[1])
        return empirical_gradient(*args, **kwargs)

    monkeypatch.setattr(optimizer, "empirical_gradient", counting)
    # in the small ball the interior gap cannot meet its tolerance
    with pytest.warns(ConvergenceWarning) if name == "ball" \
            else contextlib.nullcontext():
        path = path_following(spec, cfg, ladder)
    assert len(calls) == 1 + sum(rec.iterations for rec in path.stages)
    for rec in path.stages:
        assert rec.exit_omega == suboptimality(spec, rec.theta, rec.lam)
    if name == "order-2":
        assert sum(rec.halvings for rec in path.stages) > 0
    if name == "ball":
        assert any("boundary" in note for note in path.notes)
    if name == "above-lambda0":
        assert len(path.stages) == 1
