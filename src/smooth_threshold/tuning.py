"""Bandwidth and penalty selection.

Three routes to the pair (delta, lambda_tgt):

* closed-form schedules ``theoretical_bandwidth`` / ``target_lambda`` for
  known smoothness and sparsity,
* K-fold cross-validation of lambda_tgt at a fixed bandwidth with the
  one-standard-error rule,
* two Lepski-style procedures on dyadic grids: ``lepski_bandwidth`` adapts
  delta when the smoothness is unknown, ``lepski_sparsity`` adapts the
  sparsity input when the support size is unknown.

The grid points of a Lepski procedure are independent fits, which
``_parallel.fork_map`` spreads over forked worker processes with the same
fits, selection and warnings.  Cross-validation folds are fitted in turn.

``TUNING_MODES`` names the parameters each ``--tune`` mode reads and
``TUNING_DEFAULTS`` the defaults of the constants among them; a caller
checks its parameters against both with ``errors.read_settings``.
``tuned_fit`` is the one way from a mode and its parameters to a fit, a
``TunedFit``: theta, (delta, lambda_tgt), the ``SolutionPath`` certifying
theta, and the ``CvResult`` or the Lepski grid fits behind the choice.

All logarithms are natural.  Every formula involving log d requires d >= 2.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from ._parallel import fork_map
from .errors import (InputError, NumericError, _nonneg_int, _nonneg_real,
                     _positive_int, _positive_real)
from .kernels import Kernel, SurrogateLoss
from .optimizer import PathConfig, SolutionPath, _DEFAULT_CONFIG, path_following
from .risk import (Dataset, SmoothedRiskSpec, _l2_norm, empirical_gradient,
                   empirical_risk)

__all__ = [
    "CvResult", "LepskiFit", "TunedFit",
    "theoretical_bandwidth", "target_lambda", "default_lambda_grid",
    "cross_validate_lambda", "build_lepski_grid", "lepski_bandwidth",
    "lepski_sparsity", "select_lepski_bandwidth", "select_lepski_sparsity",
    "TUNING_MODES", "TUNING_DEFAULTS", "tuned_fit"
]

# the parameters each tuning mode reads, in the order a config echo prints them
TUNING_MODES = {
    "fixed": ("delta", "lambda_tgt"),
    "theory": ("s", "beta", "c_delta", "c_lambda"),
    "cv": ("delta", "folds"),
    "lepski-beta": ("s", "c_sel", "c_lambda"),
    "lepski-s": ("beta", "c_delta", "c_lambda", "c_bar"),
}

# defaults of the tuning constants, filled in only where a mode reads them
TUNING_DEFAULTS = {"folds": 5, "c_delta": 1.0, "c_lambda": 1.0, "c_sel": 2.0,
                   "c_bar": 2.0}

# points of the default penalty grid, and its smallest value over lambda0
_GRID_POINTS = 20
_GRID_MIN_RATIO = 0.01


def _readonly(values, dtype) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class CvResult:
    """Cross-validation summary over a penalty grid (sorted descending)."""

    lambda_grid: np.ndarray
    mean_cv_loss: np.ndarray
    se_cv_loss: np.ndarray
    lambda_min: float
    lambda_1se: float
    fold_assignment: np.ndarray

    def __post_init__(self):
        if not (self.lambda_grid.shape == self.mean_cv_loss.shape == self.se_cv_loss.shape):
            raise InputError("grid and loss vectors must have equal length")
        if self.lambda_1se < self.lambda_min:
            raise InputError("lambda_1se must be at least lambda_min")


@dataclass(frozen=True)
class LepskiFit:
    """One grid-point fit inside an adaptive procedure.

    ``grid_value`` is the grid coordinate (a bandwidth, or a sparsity
    level).  ``theta`` and ``path``, the ``SolutionPath`` that ends at it,
    are None when the fit failed; ``detail`` then holds the error message,
    or the status, gap and tolerance of a last stage that stopped short of
    its tolerance.  A procedure returns one per grid value, in grid order.
    """

    grid_value: float
    delta: float
    lam: float
    theta: Optional[np.ndarray]
    status: str
    detail: str = ""
    path: Optional[SolutionPath] = None


@dataclass(frozen=True)
class TunedFit:
    """One fit tuned by a ``TUNING_MODES`` mode: ``theta`` at bandwidth
    ``delta`` and penalty ``lam``, ``path`` the ``SolutionPath`` ending at it,
    ``cv`` the cross-validation of a cv fit (else None); ``fits`` the grid
    fits of a Lepski mode and ``grid_value`` the one chosen (else () and None).
    """

    theta: np.ndarray
    delta: float
    lam: float
    path: SolutionPath
    cv: Optional[CvResult]
    fits: Tuple[LepskiFit, ...]
    grid_value: Optional[float]


def theoretical_bandwidth(n: int, d: int, s: int, beta: float, c_delta: float) -> float:
    """Closed-form bandwidth c_delta * (s log(d) / n)**(1 / (2 beta + 1))."""
    n = _positive_int(n, "n")
    d = _positive_int(d, "d")
    s = _positive_int(s, "s")
    beta = _positive_real(beta, "beta")
    c_delta = _positive_real(c_delta, "c_delta")
    if d < 2:
        raise InputError("d must be at least 2 so that log d is positive")
    return c_delta * (s * math.log(d) / n) ** (1.0 / (2.0 * beta + 1.0))


def target_lambda(n: int, d: int, delta: float,
                  c_lambda: float = TUNING_DEFAULTS["c_lambda"]) -> float:
    """Closed-form penalty target c_lambda * sqrt(log(d) / (n delta)); a
    target that overflows is bad input."""
    n = _positive_int(n, "n")
    d = _positive_int(d, "d")
    if d < 2:
        raise InputError("d must be at least 2 so that log d is positive")
    delta = _positive_real(delta, "delta")
    c_lambda = _positive_real(c_lambda, "c_lambda")
    lam = c_lambda * math.sqrt(math.log(d) / (n * delta))
    if not math.isfinite(lam):
        raise InputError(f"the penalty target c_lambda * sqrt(log(d) / (n delta)) "
                         f"overflows at delta = {delta!r}, c_lambda = {c_lambda!r}")
    return lam


def _theory_schedule(n: int, d: int, s: int, beta: float, c_delta: float,
                     c_lambda: float) -> Tuple[float, float]:
    """The closed-form (delta, lambda_tgt) for sparsity ``s``."""
    delta = theoretical_bandwidth(n, d, s, beta, c_delta)
    return delta, target_lambda(n, d, delta, c_lambda)


def build_lepski_grid(kind: str, size: int) -> tuple:
    """The values of a dyadic grid whose exponent m is pinned by a sandwich
    inequality, in the order a procedure fits them.

    bandwidth: 2**-m <= 1/n <= 2**-(m-1), values (1, 1/2, ..., 2**-m).
    sparsity:  2**m <= d <= 2**(m+1), values (1, 2, ..., 2**m).
    When both sides admit two exponents (size a power of two) the smaller
    m is used.
    """
    size = _positive_int(size, "size")
    if size < 2:
        raise InputError(f"{kind} grid requires size >= 2, got {size}")
    if kind == "bandwidth":
        m = (size - 1).bit_length()
        return tuple(2.0 ** -k for k in range(m + 1))
    if kind == "sparsity":
        m = (size - 1).bit_length() - 1
        return tuple(2 ** k for k in range(m + 1))
    raise InputError(f"unknown grid kind {kind!r}")


def default_lambda_grid(
    data: Dataset,
    kernel: Kernel,
    delta: float,
    weights: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Geometric penalty grid from lambda0 = ||grad R(0)||_inf down to
    ``_GRID_MIN_RATIO * lambda0``, descending, with ``_GRID_POINTS`` points.

    At the top value the zero vector is already stationary, so the grid
    brackets the whole path from the null model downward.
    """
    spec = SmoothedRiskSpec(data=data, loss=SurrogateLoss(kernel=kernel, bandwidth=delta), weights=weights)
    lambda0 = float(np.max(np.abs(empirical_gradient(spec, np.zeros(data.d)))))
    if lambda0 <= 0.0:
        raise InputError(
            "cannot build a default penalty grid: the risk gradient at the "
            "zero vector is identically zero; supply an explicit grid"
        )
    expo = np.arange(_GRID_POINTS) / (_GRID_POINTS - 1.0)
    return lambda0 * _GRID_MIN_RATIO ** expo


def _stratified_folds(y: np.ndarray, folds: int, seed: int) -> np.ndarray:
    """Random fold ids, shuffled per class so every fold sees both labels.

    Fold k gets a sample of a class exactly when the class has more than k
    samples, so every fold sees both labels exactly when each class has at
    least ``folds`` samples; that is checked before the one draw.
    """
    classes = [np.flatnonzero(y == cls) for cls in (-1.0, 1.0)]
    if min(idx.size for idx in classes) < folds:
        raise InputError(
            f"could not assign {folds} folds each containing both classes; "
            "a class has fewer samples than folds"
        )
    rng = np.random.Generator(np.random.Philox(key=seed))
    fold_id = np.full(y.shape[0], -1, dtype=np.int64)
    for idx in classes:
        fold_id[idx[rng.permutation(idx.size)]] = np.arange(idx.size) % folds
    return fold_id


def cross_validate_lambda(
    data: Dataset,
    kernel: Kernel,
    delta: float,
    folds: int,
    grid: Sequence[float],
    seed: int,
    weights: Optional[np.ndarray] = None,
    path_cfg: Optional[PathConfig] = None,
) -> CvResult:
    """K-fold cross-validation of lambda_tgt at a fixed bandwidth.

    One path is fit per training split, walking the descending grid with
    each grid value as one warm-started stage solved to the final-stage
    tolerance; every stage is scored by the held-out weighted surrogate
    loss, and the losses are averaged over folds.  ``lambda_min`` minimizes
    the mean curve; ``lambda_1se`` is the largest grid value whose mean is
    within one standard error of that minimum.  Per-sample weights are
    validated once on the full dataset and sliced with the folds.
    """
    folds = _positive_int(folds, "folds")
    if folds < 2:
        raise InputError(f"folds must be at least 2, got {folds}")
    seed = _nonneg_int(seed, "seed")
    grid_arr = np.asarray(grid, dtype=float).ravel()
    if grid_arr.size == 0:
        raise InputError("lambda grid must be non-empty")
    if not np.all(np.isfinite(grid_arr)) or np.any(grid_arr <= 0.0):
        raise InputError("lambda grid values must be positive finite reals")
    grid_desc = np.sort(grid_arr)[::-1].copy()

    loss = SurrogateLoss(kernel=kernel, bandwidth=delta)
    wfull = SmoothedRiskSpec(data=data, loss=loss, weights=weights).weights
    fold_id = _stratified_folds(data.y, folds, seed)

    def subset(rows: np.ndarray) -> SmoothedRiskSpec:
        # rows gathered column by column keep z column-major; z[rows] would not
        z = np.take(data.z.T, rows, axis=1).T
        return SmoothedRiskSpec(data=Dataset(x=data.x[rows], y=data.y[rows], z=z),
                                loss=loss, weights=wfull[rows])

    base = path_cfg or _DEFAULT_CONFIG

    # one ladder stage per distinct grid value; rank maps the grid onto them
    neg_ladder, rank = np.unique(-grid_desc, return_inverse=True)

    def run(k: int) -> List[float]:
        # split built here, so one split's copy of z is alive at a time
        train = subset(np.flatnonzero(fold_id != k))
        test = subset(np.flatnonzero(fold_id == k))
        path = path_following(train, base, lambdas=-neg_ladder)
        return [empirical_risk(test, stage.theta) for stage in path.stages[1:]]

    # losses[i, k]: held-out loss of grid value i on fold k
    losses = np.array([run(k) for k in range(folds)], dtype=float).T[rank]

    mean = losses.mean(axis=1)
    se = losses.std(axis=1, ddof=1) / math.sqrt(folds)
    i_min = int(np.argmin(mean))
    cutoff = mean[i_min] + se[i_min]
    i_1se = int(np.flatnonzero(mean <= cutoff)[0])
    return CvResult(
        lambda_grid=_readonly(grid_desc, float),
        mean_cv_loss=_readonly(mean, float),
        se_cv_loss=_readonly(se, float),
        lambda_min=float(grid_desc[i_min]),
        lambda_1se=float(grid_desc[i_1se]),
        fold_assignment=_readonly(fold_id, np.int64),
    )


def _select_lepski(
    fits: Sequence[LepskiFit], key: Callable[[float], float], bound: Callable[[float], float]
) -> Optional[LepskiFit]:
    """Lepski's rule: walk the successful fits in increasing ``key`` of their
    grid value and keep the first one within ``bound(value')`` of every fit
    at a grid value' further along (or equal).  None when every fit failed.
    """
    ok = [f for f in fits if f.status == "ok"]
    for cand in sorted(ok, key=lambda f: key(f.grid_value)):
        if not any(
            _l2_norm(cand.theta - other.theta) > bound(other.grid_value)
            for other in ok
            if key(other.grid_value) >= key(cand.grid_value)
        ):
            return cand
    return None


def select_lepski_bandwidth(
    fits: Sequence[LepskiFit], n: int, d: int, s: int, c_sel: float
) -> Optional[LepskiFit]:
    """The fit at the largest bandwidth that stays within the deviation
    bound of all fits at smaller (or equal) bandwidths.

    The bound for comparator delta' is c_sel * sqrt(s log(d) / (n delta')).
    Failed fits are ignored.  Returns None when no successful fit is
    feasible, which (since a fit is always within bound of itself when
    c_sel >= 0) only happens when every fit failed.
    """
    log_d = math.log(d)
    return _select_lepski(fits, lambda delta: -delta,
                          lambda delta: c_sel * math.sqrt(s * log_d / (n * delta)))


def select_lepski_sparsity(
    fits: Sequence[LepskiFit], n: int, d: int, beta: float, c_bar: float
) -> Optional[LepskiFit]:
    """The fit at the smallest sparsity level that stays within the
    deviation bound of all fits at larger (or equal) levels.

    The bound for comparator s' is c_bar * (s' log(d) / n)**(beta / (2 beta + 1)).
    Failed fits are ignored; None means every fit failed.
    """
    log_d = math.log(d)
    expo = beta / (2.0 * beta + 1.0)
    return _select_lepski(fits, lambda level: level,
                          lambda level: c_bar * (level * log_d / n) ** expo)


def _lepski(
    data: Dataset,
    kernel: Kernel,
    weights: Optional[np.ndarray],
    path_cfg: Optional[PathConfig],
    grid_values: Sequence[float],
    schedule: Callable[[float], Tuple[float, float]],
    label: str,
    select: Callable[[Sequence[LepskiFit]], Optional[LepskiFit]],
) -> Tuple[float, np.ndarray, List[LepskiFit]]:
    """Fit one path per grid value at its ``schedule`` (delta, lambda), warn
    about and exclude failed fits, and return the grid value and theta of the
    fit ``select`` chose, with every fit.  A fit fails when it raises or when
    its last stage does not converge.  Every value's risk and ``PathConfig``
    are built, and so checked, before any fit; each value is fitted once.  A
    fit lies within its own bound, so nothing is selected only when every fit
    failed: one ``NumericError`` naming the grid.
    """
    base = path_cfg or _DEFAULT_CONFIG
    planned = {}
    for value in grid_values:
        delta, lam = schedule(value)
        loss = SurrogateLoss(kernel=kernel, bandwidth=delta)
        spec = SmoothedRiskSpec(data=data, loss=loss, weights=weights)
        planned[value] = delta, lam, spec, replace(base, lambda_tgt=lam)

    def fit_one(value: float) -> LepskiFit:
        delta, lam, spec, cfg = planned[value]
        try:
            path = path_following(spec, cfg)
        except Exception as exc:  # noqa: BLE001 - any failure excludes the point
            return LepskiFit(grid_value=value, delta=delta, lam=lam, theta=None,
                             status="failed", detail=str(exc))
        last = path.stages[-1]
        if last.status != "converged":
            detail = (f"last stage {last.status} with omega={last.exit_omega:.3e}"
                      f" > eps={path.config_echo.eps_tgt:.3e}")
            return LepskiFit(grid_value=value, delta=delta, lam=lam, theta=None,
                             status="failed", detail=detail)
        path.theta_final.setflags(write=False)
        return LepskiFit(grid_value=value, delta=delta, lam=lam, theta=path.theta_final,
                         status="ok", path=path)

    fits = fork_map(fit_one, grid_values, label)
    for fit in fits:
        if fit.status == "failed":
            warnings.warn(
                f"{label} {fit.grid_value:g}: fit failed and is excluded from "
                f"selection ({fit.detail})",
                stacklevel=3,
            )

    chosen = select(fits)
    if chosen is None:
        raise NumericError(
            f"every {label} fit failed "
            f"({', '.join(f'{v:g}' for v in grid_values)}); nothing to select")
    return chosen.grid_value, chosen.theta, fits


def lepski_bandwidth(
    data: Dataset,
    kernel: Kernel,
    s: int,
    c_sel: float = TUNING_DEFAULTS["c_sel"],
    c_lambda: float = TUNING_DEFAULTS["c_lambda"],
    path_cfg: Optional[PathConfig] = None,
    weights: Optional[np.ndarray] = None,
) -> Tuple[float, np.ndarray, List[LepskiFit]]:
    """Adaptive bandwidth selection over the dyadic grid {1, ..., 2**-m}.

    Fits one path per grid bandwidth with penalty
    c_lambda * sqrt(log(d) / (n delta)), then keeps the largest bandwidth
    consistent with all smaller ones (``select_lepski_bandwidth``).  The
    selection step reuses the stored fits and computes only pairwise
    distances.  Bad constants are refused before any fit, and a call whose
    every grid fit failed raises one ``NumericError``.

    Returns ``(delta_hat, theta, per_delta_fits)``, one fit per grid value.
    """
    s = _positive_int(s, "s")
    c_sel = _nonneg_real(c_sel, "c_sel")

    n, d = data.n, data.d
    return _lepski(
        data, kernel, weights, path_cfg, build_lepski_grid("bandwidth", n),
        schedule=lambda delta: (delta, target_lambda(n, d, delta, c_lambda)),
        label="bandwidth",
        select=lambda fits: select_lepski_bandwidth(fits, n=n, d=d, s=s, c_sel=c_sel),
    )


def lepski_sparsity(
    data: Dataset,
    kernel: Kernel,
    beta: float,
    c_delta: float = TUNING_DEFAULTS["c_delta"],
    c_lambda: float = TUNING_DEFAULTS["c_lambda"],
    c_bar: float = TUNING_DEFAULTS["c_bar"],
    path_cfg: Optional[PathConfig] = None,
    weights: Optional[np.ndarray] = None,
) -> Tuple[int, np.ndarray, List[LepskiFit]]:
    """Adaptive sparsity selection over the dyadic grid {1, 2, ..., 2**m}.

    Each level s gets the closed-form bandwidth
    delta_s = c_delta * (s log(d) / n)**(1 / (2 beta + 1)) and penalty
    c_lambda * sqrt(log(d) / (n delta_s)); the smallest level consistent
    with all larger ones wins (``select_lepski_sparsity``).  Requires
    c_delta**(beta + 1/2) <= c_lambda.  Bad constants are refused before
    any fit, and a call whose every grid fit failed raises one
    ``NumericError``.

    Returns ``(s_hat, theta, per_s_fits)``, one fit per grid level.
    """
    beta = _positive_real(beta, "beta")
    c_delta = _positive_real(c_delta, "c_delta")
    c_lambda = _positive_real(c_lambda, "c_lambda")
    c_bar = _nonneg_real(c_bar, "c_bar")
    try:
        bound = c_delta ** (beta + 0.5)
    except OverflowError:  # then above every finite c_lambda
        bound = math.inf
    if bound > c_lambda:
        raise InputError(
            "c_delta**(beta + 1/2) must not exceed c_lambda "
            f"({bound:g} > {c_lambda:g})"
        )
    if data.d < 2:
        raise InputError("d must be at least 2 so that log d is positive")
    if kernel.order < math.floor(beta):
        warnings.warn(
            f"kernel order {kernel.order} is below floor(beta) = {math.floor(beta)}; "
            "the adaptation guarantee assumes a matching higher-order kernel",
            stacklevel=2,
        )

    n, d = data.n, data.d
    return _lepski(
        data, kernel, weights, path_cfg, build_lepski_grid("sparsity", d),
        schedule=lambda level: _theory_schedule(n, d, level, beta, c_delta, c_lambda),
        label="sparsity level",
        select=lambda fits: select_lepski_sparsity(fits, n=n, d=d, beta=beta, c_bar=c_bar),
    )


def tuned_fit(data: Dataset, kernel: Kernel, tune: str, params: dict, seed: Optional[int],
              weights: Optional[np.ndarray], path_cfg: Optional[PathConfig]) -> TunedFit:
    """The fit ``tune`` picks with the ``params`` ``TUNING_MODES`` lists for
    it: one path at the given (delta, lambda_tgt) ("fixed"), the closed-form
    schedules ("theory") or cross-validation's ``lambda_1se`` at the given
    delta, folds keyed by ``seed`` ("cv"); or the fit, path included, that
    ``lepski_bandwidth`` or ``lepski_sparsity`` chose ("lepski-beta", "-s").
    """
    if tune in ("lepski-beta", "lepski-s"):
        select = lepski_bandwidth if tune == "lepski-beta" else lepski_sparsity
        value, _, fits = select(data, kernel, **params, path_cfg=path_cfg, weights=weights)
        chosen = next(fit for fit in fits if fit.grid_value == value)
        return TunedFit(chosen.theta, chosen.delta, chosen.lam, chosen.path, None, tuple(fits), value)
    cv = None
    if tune == "fixed":
        delta, lam = float(params["delta"]), float(params["lambda_tgt"])
    elif tune == "theory":
        delta, lam = _theory_schedule(data.n, data.d, params["s"], params["beta"],
                                      params["c_delta"], params["c_lambda"])
    elif tune == "cv":
        delta = float(params["delta"])
        grid = default_lambda_grid(data, kernel, delta, weights=weights)
        cv = cross_validate_lambda(data, kernel, delta, params["folds"], grid, seed,
                                   weights=weights, path_cfg=path_cfg)
        lam = cv.lambda_1se
    else:
        raise InputError(f"tune must be one of {tuple(TUNING_MODES)}, got {tune!r}")
    spec = SmoothedRiskSpec(data, SurrogateLoss(kernel, delta), weights)
    path = path_following(spec, replace(path_cfg or _DEFAULT_CONFIG, lambda_tgt=lam))
    return TunedFit(path.theta_final, delta, lam, path, cv, (), None)
