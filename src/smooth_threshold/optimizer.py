"""Path-following proximal gradient solver for the l1-penalized smoothed risk.

The penalized objective is f_lam(theta) = risk(theta) + lam * ||theta||_1,
minimized over an l2 ball of radius ``omega_radius``.  A stage solves one
penalty level with proximal gradient steps (gradient step, soft threshold,
ball projection) from a stage state: the iterate, its gradient and margins,
the first trial step and the stage index.  ``_solve_stage`` runs one stage
and returns the state the next one starts from, so a path can stop after
any stage and resume bit for bit.  ``path_following`` runs one stage per
value of a descending penalty ladder, geometric by default, from the zero
vector at a penalty where it is optimal.

Step sizes follow Barzilai & Borwein (1988) inside a monotone backtracking,
as SpaRSA (Wright, Nowak & Figueiredo 2009) does for l1 problems.  After
each accepted step the next first trial step is BB1, s's / s'r, where s is
the change in theta and r the change in the gradient, clipped to
``_STEP_RANGE``; when s'r <= 0 the last accepted step is kept.  A trial step
that would raise the objective is halved until it does not, so every stage's
objective trace is monotone.  The step a stage ends with is the first trial
step of the next stage; ``PathConfig.eta`` is the first stage's.

Stage accuracy is measured by the subgradient optimality gap

    omega(theta) = min over xi in the l1 subdifferential at theta of
                   || grad risk(theta) + lam * xi ||_inf,

which is zero exactly at interior stationary points.  The ball constraint is
deliberately ignored in this measure even when an iterate sits on the
boundary; boundary contact is noted instead.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import (ConvergenceWarning, InputError, NumericError, _nonneg_real,
                     _positive_int, _positive_real, _real)
from .risk import (SmoothedRiskSpec, empirical_gradient, objective, _check_theta,
                   _l2_norm)

_TRACE_TOL = 1e-12
_BACKTRACK_SLACK = 1e-15
_MAX_HALVINGS = 60
# range of the Barzilai-Borwein first trial step
_STEP_RANGE = (1e-10, 1024.0)
# most stages of a geometric schedule; a stage keeps its own iterate
_MAX_STAGES = 10_000


def _subopt_from_grad(g: np.ndarray, theta: np.ndarray, lam: float) -> float:
    on_support = theta != 0.0
    vals = np.where(on_support,
                    np.abs(g + lam * np.sign(theta)),
                    np.maximum(np.abs(g) - lam, 0.0))
    return float(np.max(vals))


def suboptimality(spec: SmoothedRiskSpec, theta, lam: float) -> float:
    """Optimality gap omega_lam(theta); exactly 0 at theta = 0 when lam >= ||grad||_inf."""
    lam = _nonneg_real(lam, "penalty level")
    theta = _check_theta(theta, spec.data.d)
    return _subopt_from_grad(empirical_gradient(spec, theta), theta, lam)


@dataclass(frozen=True)
class PathConfig:
    """Solver settings for one penalized fit.

    Exactly one of ``num_stages`` / ``phi`` drives the stage schedule; with
    both unset the path uses num_stages = 10.  A schedule of more than
    ``_MAX_STAGES`` stages, given or implied by ``phi``, is bad input, and
    so are a ``lambda_tgt`` or given ``eps_tgt`` that is not a positive
    finite real and a given ``lambda0`` that is not a nonnegative finite
    one; only ``omega_radius`` may be inf.  Each field keeps the number it
    was checked as, a float or for a count an int, so a string such as
    ``"0.01"`` fits as its float does and a non-number is bad input.
    ``lambda0 = None`` resolves to
    ||grad risk(0)||_inf, the smallest penalty whose solution is exactly 0.
    ``eps_tgt = None`` resolves to 0.1 * nu * lambda_tgt.  ``eta`` is the
    first trial step of the first stage; later trial steps are
    Barzilai-Borwein steps, and each stage starts from the step the one
    before ended with.  The solver halves the step whenever a step would
    increase the objective, so each stage's trace is monotone at any
    ``eta``.
    """

    lambda_tgt: float
    lambda0: float | None = None
    num_stages: int | None = None
    phi: float | None = None
    nu: float = 0.25
    eta: float = 1.0
    eps_tgt: float | None = None
    omega_radius: float = 10.0
    max_inner_iters: int = 10000

    def __post_init__(self):
        def store(name, check):
            object.__setattr__(self, name, check(getattr(self, name), name))

        store("lambda_tgt", _positive_real)
        if self.lambda0 is not None:
            store("lambda0", _nonneg_real)
        if self.num_stages is not None and self.phi is not None:
            raise InputError("set num_stages or phi, not both")
        if self.num_stages is not None:
            store("num_stages", _positive_int)
            if self.num_stages > _MAX_STAGES:
                raise InputError(f"num_stages must be at most {_MAX_STAGES}, "
                                 f"got {self.num_stages}")
        if self.phi is not None:
            store("phi", _real)
            if not (0.0 < self.phi < 1.0):
                raise InputError(f"phi must lie in (0, 1), got {self.phi}")
        store("nu", _real)
        if not (0.0 < self.nu < 1.0):
            raise InputError(f"nu must lie in (0, 1), got {self.nu}")
        if self.eps_tgt is not None:
            store("eps_tgt", _positive_real)
        store("eta", _positive_real)
        store("omega_radius", _real)
        if not self.omega_radius > 0:
            raise InputError(
                f"omega_radius must be positive, got {self.omega_radius!r}")
        store("max_inner_iters", _positive_int)


# solver defaults for callers that set lambda_tgt per fit themselves
_DEFAULT_CONFIG = PathConfig(lambda_tgt=1.0)


@dataclass(frozen=True)
class StageRecord:
    """Solution and trace of one penalty stage."""

    stage_index: int
    lam: float
    iterations: int
    exit_omega: float
    theta: np.ndarray
    objective_trace: np.ndarray
    nnz: int
    status: str  # "initial" | "converged" | "max_iter" | "stalled"
    step: float  # first trial step carried into the next stage
    halvings: int  # trial steps rejected, each then halved


@dataclass(frozen=True)
class SolutionPath:
    """Ordered stage records, the final iterate, and the fully resolved config."""

    stages: tuple
    theta_final: np.ndarray
    config_echo: PathConfig
    notes: tuple = field(default_factory=tuple)


@dataclass(frozen=True)
class _State:
    """A stage's start: iterate, gradient, margins, first trial step, stage index."""

    theta: np.ndarray
    grad: np.ndarray
    margins: np.ndarray
    step: float
    index: int


def _soft_threshold(v: np.ndarray, tau: float) -> np.ndarray:
    """Elementwise shrinkage toward zero by tau; |v| <= tau maps to exactly 0."""
    return np.sign(v) * np.maximum(np.abs(v) - tau, 0.0)


def _project_ball(v: np.ndarray, radius: float) -> tuple:
    """Euclidean projection onto the l2 ball, and whether ``v`` lay outside
    it; rescaling keeps the sparsity pattern."""
    norm = _l2_norm(v)
    outside = norm > radius
    return (v * (radius / norm) if outside else v), outside


def _solve_stage(spec, state, lam, eps, radius, max_iters, notes):
    """One stage from ``state``: its record and the next stage's state.  A warm
    start with gap above lambda/2 and ball contact are appended to ``notes``."""
    theta = np.array(state.theta, dtype=float)
    g, u, step = state.grad, state.margins, state.step
    f = objective(spec, theta, lam, u=u)
    trace = [f]
    omega = _subopt_from_grad(g, theta, lam)
    if state.index > 0 and omega > 0.5 * lam + 1e-12:
        notes.append(f"stage {state.index}: warm-start omega {omega:.3e} exceeds "
                     f"lambda/2 = {0.5 * lam:.3e}")
    status = "converged"
    boundary_hit = False
    iterations = halvings = 0
    while omega > eps:
        if iterations >= max_iters:
            status = "max_iter"
            warnings.warn(
                f"proximal loop at lambda={lam:.6g} stopped after {max_iters} "
                f"iterations with omega={omega:.3e} > eps={eps:.3e}",
                ConvergenceWarning, stacklevel=3)
            break
        accepted = False
        for _ in range(_MAX_HALVINGS + 1):
            cand, outside = _project_ball(
                _soft_threshold(theta - step * g, lam * step), radius)
            boundary_hit = boundary_hit or outside
            u_cand = spec.margins(cand)  # serve its objective and its gradient
            f_cand = objective(spec, cand, lam, u=u_cand)
            if f_cand <= f + _BACKTRACK_SLACK * max(1.0, abs(f)):
                accepted = True
                break
            step *= 0.5
            halvings += 1
        if not accepted:
            status = "stalled"
            warnings.warn(
                f"proximal loop at lambda={lam:.6g} could not decrease the "
                f"objective after {_MAX_HALVINGS} step halvings; stopping with "
                f"omega={omega:.3e}", ConvergenceWarning, stacklevel=3)
            break
        s, g_prev = cand - theta, g
        theta, f, u = cand, f_cand, u_cand
        trace.append(f)
        iterations += 1
        g = empirical_gradient(spec, theta, u=u)
        omega = _subopt_from_grad(g, theta, lam)
        # BB1 first trial step s's / s'r, summed in einsum's fixed order
        sr = float(np.einsum("i,i->", s, g - g_prev))
        if sr > 0:
            step = min(max(float(np.einsum("i,i->", s, s)) / sr,
                           _STEP_RANGE[0]), _STEP_RANGE[1])

    trace = np.asarray(trace)
    # monotone stage contract: each accepted step may not increase the objective
    rise = np.diff(trace)
    if np.any(rise > _TRACE_TOL):
        raise NumericError(
            f"objective trace at lambda={lam:.6g} increased by up to "
            f"{float(rise.max()):.3e} over an accepted step")
    if boundary_hit:
        notes.append(f"stage {state.index}: iterate touched the feasible ball boundary")
    record = StageRecord(stage_index=state.index, lam=lam, iterations=iterations,
                         exit_omega=omega, theta=theta, objective_trace=trace,
                         nnz=int(np.count_nonzero(theta)), status=status,
                         step=step, halvings=halvings)
    return record, _State(theta, g, u, step, state.index + 1)


def _stage_schedule(lambda0: float, cfg: PathConfig) -> list:
    """Geometric penalty levels for stages 1..N (stage 0 is the zero solution at lambda0)."""
    ratio = cfg.lambda_tgt / lambda0
    if cfg.phi is not None:
        num = max(int(math.ceil(math.log(ratio) / math.log(cfg.phi))), 1)
        if num > _MAX_STAGES:  # checked before the list is built
            raise InputError(f"phi={cfg.phi!r} takes {num} stages from "
                             f"lambda0={lambda0:.6g} to lambda_tgt="
                             f"{cfg.lambda_tgt:.6g}; at most {_MAX_STAGES} are allowed")
        phi = cfg.phi
    else:
        num = cfg.num_stages if cfg.num_stages is not None else 10
        phi = ratio ** (1.0 / num)
    lams = [lambda0 * phi ** t for t in range(1, num)]
    lams.append(cfg.lambda_tgt)
    return lams


def _check_ladder(lambdas) -> list:
    lams = np.asarray(lambdas, dtype=float).ravel()
    if lams.size == 0 or not np.all(np.isfinite(lams) & (lams > 0)) \
            or np.any(np.diff(lams) >= 0):
        raise InputError("penalty ladder must be a non-empty, strictly "
                         "descending sequence of positive finite reals")
    return [float(lam) for lam in lams]


def path_following(spec: SmoothedRiskSpec, config: PathConfig,
                   lambdas=None) -> SolutionPath:
    """Solve the penalized problem along a descending penalty ladder.

    Stage 0 is the exact zero solution at lambda0; each later stage is warm
    started from the one before.  By default the ladder runs geometrically to
    lambda_tgt, to tolerance nu * lambda_t and eps_tgt at the last stage.  An
    explicit strictly descending ``lambdas`` replaces it and lambda_tgt; each
    value is solved to the final-stage tolerance (eps_tgt if set, else
    0.1 * nu * lambda).  A lambda_tgt at or above lambda0 runs one stage at
    lambda_tgt.  Warm starts with gap above lambda/2 and a lambda_tgt above
    lambda0 are noted in ``SolutionPath.notes``, not warned; only a stage
    that stops on its budget warns, with ``ConvergenceWarning``.
    Stage 1 starts at step ``config.eta`` and every later stage at the step
    the one before ended with, recorded as ``StageRecord.step``;
    ``StageRecord.halvings`` counts the trial steps the stage rejected.
    """
    ladder = None if lambdas is None else _check_ladder(lambdas)
    zero = np.zeros(spec.data.d)
    notes = []
    u0 = spec.data.y * spec.data.x  # margins at theta = 0, without the z pass
    g0 = empirical_gradient(spec, zero, u=u0)
    lambda0 = config.lambda0 if config.lambda0 is not None \
        else float(np.max(np.abs(g0)))

    def final_eps(lam: float) -> float:
        return config.eps_tgt if config.eps_tgt is not None \
            else 0.1 * config.nu * lam

    single = ladder is None and lambda0 <= config.lambda_tgt
    if ladder is not None:
        lams, epss = ladder, [final_eps(lam) for lam in ladder]
        echo = replace(config, lambda_tgt=lams[-1], num_stages=len(lams), phi=None)
    elif single:
        if lambda0 < config.lambda_tgt:
            notes.append(
                f"lambda_tgt={config.lambda_tgt:.6g} exceeds the zero-solution "
                f"penalty lambda0={lambda0:.6g}; running a single stage at lambda_tgt")
        lams, echo = [config.lambda_tgt], config
    else:
        lams = _stage_schedule(lambda0, config)
        echo = replace(config, num_stages=None if config.phi is not None else len(lams))
    if ladder is None:
        epss = [config.nu * lam for lam in lams[:-1]] + [final_eps(lams[-1])]

    stages = [] if single else [StageRecord(
        stage_index=0, lam=lambda0, iterations=0,
        exit_omega=_subopt_from_grad(g0, zero, lambda0), theta=zero.copy(),
        objective_trace=np.array([objective(spec, zero, lambda0, u=u0)]),
        nnz=0, status="initial", step=config.eta, halvings=0)]
    state = _State(zero, g0, u0, config.eta, len(stages))
    for lam, eps in zip(lams, epss):
        record, state = _solve_stage(spec, state, lam, eps, config.omega_radius,
                                     config.max_inner_iters, notes)
        stages.append(record)

    echo = replace(echo, lambda0=lambda0, eps_tgt=epss[-1])
    return SolutionPath(stages=tuple(stages), theta_final=state.theta,
                        config_echo=echo, notes=tuple(notes))
