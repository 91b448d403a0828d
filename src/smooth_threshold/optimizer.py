"""Path-following proximal gradient solver for the l1-penalized smoothed risk.

The penalized objective is f_lam(theta) = risk(theta) + lam * ||theta||_1,
minimized over an l2 ball of radius ``omega_radius``.  A stage solves one
penalty level with proximal gradient steps (gradient step, soft threshold,
ball projection); the path starts at a penalty large enough that the zero
vector is optimal and walks a descending penalty ladder, geometric by
default, warm starting every stage at the previous solution.

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

from .errors import ConvergenceWarning, InputError, NumericError
from .risk import (SmoothedRiskSpec, empirical_gradient, objective, _check_theta,
                   _l2_norm)

_TRACE_TOL = 1e-12
_BACKTRACK_SLACK = 1e-15
_MAX_HALVINGS = 60
# range of the Barzilai-Borwein first trial step
_STEP_RANGE = (1e-10, 1024.0)


def soft_threshold(v, tau: float) -> np.ndarray:
    """Elementwise shrinkage toward zero by tau; |v| <= tau maps to exactly 0."""
    if not (np.isfinite(tau) and tau >= 0):
        raise InputError(f"threshold must be a nonnegative real, got {tau}")
    v = np.asarray(v, dtype=float)
    return np.sign(v) * np.maximum(np.abs(v) - tau, 0.0)


def project_ball(v, radius: float) -> np.ndarray:
    """Euclidean projection onto the l2 ball; rescaling keeps the sparsity pattern."""
    if not radius > 0:
        raise InputError(f"ball radius must be positive, got {radius}")
    v = np.asarray(v, dtype=float)
    if math.isinf(radius):
        return v.copy()
    norm = _l2_norm(v)
    if norm <= radius:
        return v.copy()
    return v * (radius / norm)


def _subopt_from_grad(g: np.ndarray, theta: np.ndarray, lam: float) -> float:
    on_support = theta != 0.0
    vals = np.where(on_support,
                    np.abs(g + lam * np.sign(theta)),
                    np.maximum(np.abs(g) - lam, 0.0))
    return float(np.max(vals))


def suboptimality(spec: SmoothedRiskSpec, theta, lam: float) -> float:
    """Optimality gap omega_lam(theta); exactly 0 at theta = 0 when lam >= ||grad||_inf."""
    if not (np.isfinite(lam) and lam >= 0):
        raise InputError(f"penalty level must be a nonnegative real, got {lam}")
    theta = _check_theta(theta, spec.data.d)
    return _subopt_from_grad(empirical_gradient(spec, theta), theta, lam)


@dataclass(frozen=True)
class PathConfig:
    """Solver settings for one penalized fit.

    Exactly one of ``num_stages`` / ``phi`` drives the stage schedule; with
    both unset the path uses num_stages = 10.  ``lambda0 = None`` resolves to
    ||grad risk(0)||_inf, the smallest penalty whose solution is exactly 0.
    ``eps_tgt = None`` resolves to 0.1 * nu * lambda_tgt.  ``eta`` is the
    first trial step of the first stage; later trial steps are Barzilai-
    Borwein steps, and each stage starts from the step the one before ended
    with.  The solver halves the step whenever a step would increase the
    objective, so each stage's trace is monotone at any ``eta``.
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
        if not (np.isfinite(self.lambda_tgt) and self.lambda_tgt > 0):
            raise InputError(f"lambda_tgt must be positive, got {self.lambda_tgt}")
        if self.lambda0 is not None and not (np.isfinite(self.lambda0)
                                             and self.lambda0 >= 0):
            raise InputError(f"lambda0 must be a nonnegative real when given, "
                             f"got {self.lambda0}")
        if self.num_stages is not None and self.phi is not None:
            raise InputError("set num_stages or phi, not both")
        if self.num_stages is not None and self.num_stages < 1:
            raise InputError(f"num_stages must be >= 1, got {self.num_stages}")
        if self.phi is not None and not (0.0 < self.phi < 1.0):
            raise InputError(f"phi must lie in (0, 1), got {self.phi}")
        if not (0.0 < self.nu < 1.0):
            raise InputError(f"nu must lie in (0, 1), got {self.nu}")
        if not (np.isfinite(self.eta) and self.eta > 0):
            raise InputError(f"eta must be positive, got {self.eta}")
        if self.eps_tgt is not None and not self.eps_tgt > 0:
            raise InputError(f"eps_tgt must be positive when given, got {self.eps_tgt}")
        if not self.omega_radius > 0:
            raise InputError(f"omega_radius must be positive, got {self.omega_radius}")
        if self.max_inner_iters < 1:
            raise InputError("max_inner_iters must be >= 1")


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
class InnerResult:
    theta: np.ndarray
    iterations: int
    exit_omega: float
    objective_trace: np.ndarray
    status: str
    gradient: np.ndarray
    margins: np.ndarray
    eta_final: float
    boundary_hit: bool
    halvings: int


def _inner_loop(spec, theta0, lam, eps, *, eta, radius, max_iters,
                g0=None, u0=None) -> InnerResult:
    theta = np.array(theta0, dtype=float)
    # one margin evaluation per iterate serves its objective and its gradient
    u = spec.margins(theta) if u0 is None else u0
    f = objective(spec, theta, lam, u=u)
    trace = [f]
    g = empirical_gradient(spec, theta, u=u) if g0 is None else g0
    omega = _subopt_from_grad(g, theta, lam)
    step = eta
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
            shrunk = soft_threshold(theta - step * g, lam * step)
            # project_ball, with the norm it takes kept for the boundary check
            norm = _l2_norm(shrunk)
            cand = shrunk if norm <= radius else shrunk * (radius / norm)
            boundary_hit = boundary_hit or norm > radius
            u_cand = spec.margins(cand)
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
    return InnerResult(theta=theta, iterations=iterations, exit_omega=omega,
                       objective_trace=trace, status=status, gradient=g,
                       margins=u, eta_final=step, boundary_hit=boundary_hit,
                       halvings=halvings)


def proximal_gradient(spec: SmoothedRiskSpec, theta0, lam: float, eps: float,
                      *, eta: float = 1.0, radius: float = math.inf,
                      max_iters: int = 10000) -> InnerResult:
    """Run proximal gradient at a single penalty level until omega <= eps.

    Returns the first iterate whose own optimality gap meets ``eps`` (checked
    after each update, and before the first), so a warm start that already
    satisfies the tolerance is returned unchanged with 0 iterations.
    ``eta`` is the first trial step; ``eta_final`` is the trial step the loop
    would try next.
    """
    if not (np.isfinite(lam) and lam >= 0):
        raise InputError(f"penalty level must be a nonnegative real, got {lam}")
    if not eps >= 0:
        raise InputError(f"tolerance must be nonnegative, got {eps}")
    return _inner_loop(spec, theta0, lam, eps, eta=eta, radius=radius,
                       max_iters=max_iters)


def _stage_schedule(lambda0: float, cfg: PathConfig) -> list:
    """Geometric penalty levels for stages 1..N (stage 0 is the zero solution at lambda0)."""
    ratio = cfg.lambda_tgt / lambda0
    if cfg.phi is not None:
        num = max(int(math.ceil(math.log(ratio) / math.log(cfg.phi))), 1)
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
    theta, grad, u, step = zero, g0, u0, config.eta
    for t, (lam, eps) in enumerate(zip(lams, epss), start=len(stages)):
        warm_omega = _subopt_from_grad(grad, theta, lam)
        if t > 0 and warm_omega > 0.5 * lam + 1e-12:
            notes.append(f"stage {t}: warm-start omega {warm_omega:.3e} exceeds "
                         f"lambda/2 = {0.5 * lam:.3e}")
        res = _inner_loop(spec, theta, lam, eps, eta=step,
                          radius=config.omega_radius,
                          max_iters=config.max_inner_iters,
                          g0=grad, u0=u)
        if res.boundary_hit:
            notes.append(f"stage {t}: iterate touched the feasible ball boundary")
        stages.append(StageRecord(stage_index=t, lam=lam, iterations=res.iterations,
                                  exit_omega=res.exit_omega, theta=res.theta,
                                  objective_trace=res.objective_trace,
                                  nnz=int(np.count_nonzero(res.theta)),
                                  status=res.status, step=res.eta_final,
                                  halvings=res.halvings))
        theta, grad, u, step = res.theta, res.gradient, res.margins, res.eta_final

    echo = replace(echo, lambda0=lambda0, eps_tgt=epss[-1])
    return SolutionPath(stages=tuple(stages), theta_final=theta,
                        config_echo=echo, notes=tuple(notes))
