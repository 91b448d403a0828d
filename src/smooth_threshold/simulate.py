"""Synthetic data generators, a closed-form toy risk table, error metrics,
and a repetition benchmark harness.

Two model classes generate (x, y, z) with a known unit-norm target:

* binary response: y = sign(x - theta'z + u) with Gaussian or logistic
  noise u, plus a noiseless variant (one_bit_noiseless),
* conditional mean: x = mu y + theta'z + u with balanced labels.

``toy_population_risks`` evaluates the scalar toy problem (Z on two atoms)
where hinge and exponential surrogates point away from the 0-1 minimizer.

All generators are pure functions of ``SimSpec``: the counter-based Philox
generator keyed by ``spec.seed`` makes outputs bit-identical across runs
and platforms.  Benchmark repetitions derive child seeds through
``numpy.random.SeedSequence(entropy=seed, spawn_key=...)``.
"""

from __future__ import annotations

import math
import time
import warnings
from dataclasses import dataclass, replace
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from .errors import InputError, NumericError, _positive_int, read_settings
from .kernels import Kernel, SurrogateLoss
from .optimizer import PathConfig, _DEFAULT_CONFIG, path_following
from .risk import Dataset, SmoothedRiskSpec, _l2_norm
from .tuning import TUNING_DEFAULTS, TUNING_MODES, tuned_penalty

__all__ = [
    "SimSpec",
    "ToyRiskTable",
    "BenchmarkRow",
    "BenchmarkResult",
    "gen_binary_response",
    "gen_conditional_mean",
    "generate",
    "toy_population_risks",
    "estimation_error",
    "top_support",
    "derive_seed",
    "run_benchmark",
    "SIM_MODELS",
    "SIM_DEFAULTS",
    "BENCH_MODES",
    "BENCH_DEFAULTS",
]

# the noise parameters each model's generator reads, besides n, d, s and seed
SIM_MODELS = {
    "binary_response": ("noise_sd", "noise"),
    "conditional_mean": ("mu", "noise_sd"),
    "one_bit_noiseless": (),
}
SIM_DEFAULTS = {"mu": 2.0, "noise_sd": 0.1, "noise": "gaussian"}
# the tuning modes of run_benchmark, and the bandwidth of fixed and cv tuning
# when none is given
BENCH_MODES = ("fixed", "cv", "theory")
BENCH_DEFAULTS = {"delta": 1.0}
_NOISES = ("gaussian", "logistic")


@dataclass(frozen=True, eq=False)
class SimSpec:
    """Full description of one synthetic dataset.

    ``theta_star`` defaults to the first ``s`` coordinates equal and
    positive, normalized to unit Euclidean norm.  ``SIM_MODELS`` names the
    parameters among ``mu``, ``noise_sd`` and ``noise`` that each model
    reads.  ``noise`` selects the binary-response noise law: "gaussian"
    draws noise_sd * N(0,1), "logistic" draws noise_sd times a standard
    logistic variate (so noise_sd=1 gives the standard logistic
    distribution); the other models refuse "logistic", since they draw
    Gaussian noise or none.
    """

    model: str
    n: int
    d: int
    s: int
    mu: float = SIM_DEFAULTS["mu"]
    noise_sd: float = SIM_DEFAULTS["noise_sd"]
    noise: str = SIM_DEFAULTS["noise"]
    theta_star: Optional[np.ndarray] = None
    seed: int = 0

    def __post_init__(self):
        if self.model not in SIM_MODELS:
            raise InputError(f"model must be one of {tuple(SIM_MODELS)}, got {self.model!r}")
        for name in ("n", "d", "s"):
            object.__setattr__(self, name, _positive_int(getattr(self, name), name))
        if self.s > self.d:
            raise InputError(f"s must not exceed d, got s={self.s}, d={self.d}")
        mu = float(self.mu)
        if not math.isfinite(mu):
            raise InputError(f"mu must be a finite real, got {self.mu!r}")
        object.__setattr__(self, "mu", mu)
        sd = float(self.noise_sd)
        if not math.isfinite(sd) or sd < 0.0 or (sd == 0.0 and self.model != "one_bit_noiseless"):
            raise InputError(f"noise_sd must be a positive real, got {self.noise_sd!r}")
        object.__setattr__(self, "noise_sd", sd)
        if self.noise not in _NOISES:
            raise InputError(f"noise must be one of {_NOISES}, got {self.noise!r}")
        if self.noise != "gaussian" and "noise" not in SIM_MODELS[self.model]:
            raise InputError(f"model {self.model!r} does not draw {self.noise} noise")
        seed = self.seed
        if not float(seed).is_integer() or int(seed) < 0 or int(seed) >= 2 ** 64:
            raise InputError(f"seed must be an unsigned 64-bit integer, got {seed!r}")
        object.__setattr__(self, "seed", int(seed))
        if self.theta_star is None:
            theta = np.zeros(self.d)
            theta[: self.s] = 1.0 / math.sqrt(self.s)
        else:
            theta = np.array(self.theta_star, dtype=float)
            if theta.shape != (self.d,):
                raise InputError(
                    f"theta_star must have shape ({self.d},), got {theta.shape}"
                )
            if not np.all(np.isfinite(theta)):
                raise InputError("theta_star must be finite")
        theta.setflags(write=False)
        object.__setattr__(self, "theta_star", theta)


@dataclass(frozen=True, eq=False)
class ToyRiskTable:
    """Population risks of the scalar toy problem on a grid of thresholds."""

    theta_grid: np.ndarray
    risk01: np.ndarray
    risk_hinge: np.ndarray
    risk_exp: np.ndarray

    def __post_init__(self):
        arrays = (self.theta_grid, self.risk01, self.risk_hinge, self.risk_exp)
        if len({a.shape for a in arrays}) != 1:
            raise InputError("risk table columns must have equal length")
        if not all(np.all(np.isfinite(a)) for a in arrays):
            raise NumericError("risk table contains non-finite values")


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=seed))


_ROW_BLOCK = 256


def _row_dot(z: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """z theta as each row's own sum of z_ij theta_j, the bits of
    ``(z * theta).sum(axis=1)`` without its n x d product: the rows are
    taken in blocks, and each row is still reduced alone."""
    out = np.empty(z.shape[0])
    for i in range(0, z.shape[0], _ROW_BLOCK):
        block = slice(i, i + _ROW_BLOCK)
        np.sum(z[block] * theta, axis=1, out=out[block])
    return out


def _margins(x: np.ndarray, z: np.ndarray, theta: np.ndarray) -> np.ndarray:
    return x - _row_dot(z, theta)


def gen_binary_response(spec: SimSpec) -> Tuple[Dataset, np.ndarray]:
    """Draw the sign-response model y = sign(x - theta*'z + u).

    Draw order per attempt: z (row-major), then x, then u.  Rows with a
    zero margin (probability zero under continuous noise) are redrawn.
    one_bit_noiseless sets u = 0, so y depends on (x, z) alone.
    """
    if spec.model not in ("binary_response", "one_bit_noiseless"):
        raise InputError(f"expected a sign-response model, got {spec.model!r}")
    noiseless = spec.model == "one_bit_noiseless"
    rng = _rng(spec.seed)

    def draw(count: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        z = rng.standard_normal((count, spec.d))
        x = rng.standard_normal(count)
        if noiseless:
            u = np.zeros(count)
        elif spec.noise == "gaussian":
            u = spec.noise_sd * rng.standard_normal(count)
        else:
            u = spec.noise_sd * rng.logistic(size=count)
        return z, x, u

    z, x, u = draw(spec.n)
    y = np.sign(_margins(x, z, spec.theta_star) + u)
    tied = np.flatnonzero(y == 0.0)
    while tied.size:
        z_new, x_new, u_new = draw(tied.size)
        z[tied], x[tied], u[tied] = z_new, x_new, u_new
        y[tied] = np.sign(_margins(x_new, z_new, spec.theta_star) + u_new)
        tied = np.flatnonzero(y == 0.0)
    return Dataset(x=x, y=y, z=z), spec.theta_star


def gen_conditional_mean(spec: SimSpec) -> Tuple[Dataset, np.ndarray]:
    """Draw the shifted-measurement model x = mu y + theta*'z + u.

    Labels are uniform on {-1, +1}; draw order: y, then z (row-major),
    then u.
    """
    if spec.model != "conditional_mean":
        raise InputError(f"expected model 'conditional_mean', got {spec.model!r}")
    rng = _rng(spec.seed)
    y = rng.integers(0, 2, size=spec.n).astype(float) * 2.0 - 1.0
    z = rng.standard_normal((spec.n, spec.d))
    u = spec.noise_sd * rng.standard_normal(spec.n)
    x = spec.mu * y + _row_dot(z, spec.theta_star) + u
    return Dataset(x=x, y=y, z=z), spec.theta_star


def generate(spec: SimSpec) -> Tuple[Dataset, np.ndarray]:
    """Dispatch to the generator matching ``spec.model``."""
    if spec.model == "conditional_mean":
        return gen_conditional_mean(spec)
    return gen_binary_response(spec)


_TOY_ATOMS = (0.5, 5.0)
_SQRT_E = math.exp(0.5)


def _phi(t: np.ndarray) -> np.ndarray:
    return np.exp(-0.5 * t * t) / math.sqrt(2.0 * math.pi)


def toy_population_risks(theta_grid: Sequence[float]) -> ToyRiskTable:
    """Population 0-1, hinge and exponential risks of the scalar toy
    problem: X ~ N(0,1), Z uniform on {1/2, 5}, Y = sign(X - Z), with
    predictions sign(X - theta Z).

    The label is a deterministic function of (X, Z), so each risk splits
    at X = Z and reduces to Gaussian integrals with closed forms; each
    value is exact to machine precision, well inside the 1e-6 contract.
    Per atom with a = theta z:

    * 0-1:      |Phi(a) - Phi(z)|,
    * hinge:    integral of (1 + a - x) phi(x) over [z, 1 + a] plus
                (1 - a + x) phi(x) over [a - 1, z] (empty ranges drop),
    * exp:      e^a sqrt(e) Phi(-(z+1)) + e^{-a} sqrt(e) Phi(z - 1).
    """
    grid = np.asarray(theta_grid, dtype=float).ravel()
    if grid.size == 0:
        raise InputError("theta grid must be non-empty")
    if not np.all(np.isfinite(grid)):
        raise InputError("theta grid must be finite")
    from scipy.special import ndtr

    risk01 = np.zeros_like(grid)
    hinge = np.zeros_like(grid)
    rexp = np.zeros_like(grid)
    with np.errstate(over="ignore"):
        for z in _TOY_ATOMS:
            a = grid * z
            risk01 += 0.5 * np.abs(ndtr(a) - ndtr(z))

            upper = np.maximum(1.0 + a, z)
            plus = (1.0 + a) * (ndtr(upper) - ndtr(z)) - _phi(z) + _phi(upper)
            lower = np.minimum(a - 1.0, z)
            minus = (1.0 - a) * (ndtr(z) - ndtr(lower)) + _phi(lower) - _phi(z)
            hinge += 0.5 * (plus + minus)

            rexp += 0.5 * _SQRT_E * (np.exp(a) * ndtr(-(z + 1.0)) + np.exp(-a) * ndtr(z - 1.0))

    table = ToyRiskTable(theta_grid=grid.copy(), risk01=risk01, risk_hinge=hinge, risk_exp=rexp)
    for arr in (table.theta_grid, table.risk01, table.risk_hinge, table.risk_exp):
        arr.setflags(write=False)
    return table


_NORM_ORDERS = {"l1": 1, "l2": 2, "linf": np.inf}


def estimation_error(theta_hat: np.ndarray, theta_star: np.ndarray, norm: str = "l2") -> float:
    """Norm of theta_hat - theta_star; ``norm`` is one of l1, l2, linf."""
    if norm not in _NORM_ORDERS:
        raise InputError(f"norm must be one of {tuple(_NORM_ORDERS)}, got {norm!r}")
    hat = np.asarray(theta_hat, dtype=float).ravel()
    star = np.asarray(theta_star, dtype=float).ravel()
    if hat.shape != star.shape:
        raise InputError(f"length mismatch: {hat.shape[0]} vs {star.shape[0]}")
    if norm == "l2":  # in einsum's own loop, whatever the BLAS thread count
        return _l2_norm(hat - star)
    return float(np.linalg.norm(hat - star, ord=_NORM_ORDERS[norm]))


def top_support(theta: np.ndarray, s: int) -> np.ndarray:
    """Indices of the s largest-magnitude coordinates, ascending.

    Ties are broken toward the smaller index, so the result is a pure
    function of the input.
    """
    theta = np.asarray(theta, dtype=float).ravel()
    if not float(s).is_integer() or not (1 <= int(s) <= theta.size):
        raise InputError(f"s must be an integer in [1, {theta.size}], got {s!r}")
    order = np.lexsort((np.arange(theta.size), -np.abs(theta)))
    return np.sort(order[: int(s)])


@dataclass(frozen=True)
class BenchmarkRow:
    """One repetition: errors, sparsity, wall time, and tuned parameters.

    ``messages`` holds the final path's notes, then the text of every
    warning the repetition raised (cross-validation folds included), among
    them one for each stage that ended without converging.
    """

    repetition: int
    l1: float
    l2: float
    linf: float
    nnz: int
    runtime: float
    lambda_used: float
    delta_used: float
    messages: Tuple[str, ...] = ()


@dataclass(frozen=True, eq=False)
class BenchmarkResult:
    """All repetition rows, with their error summaries."""

    rows: Tuple[BenchmarkRow, ...]

    def errors(self, norm: str) -> np.ndarray:
        if norm not in _NORM_ORDERS:
            raise InputError(f"norm must be one of {tuple(_NORM_ORDERS)}, got {norm!r}")
        return np.array([getattr(row, norm) for row in self.rows])

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Mean and standard deviation (ddof=1 when possible) per norm."""
        out = {}
        for norm in _NORM_ORDERS:
            vals = self.errors(norm)
            sd = float(vals.std(ddof=1)) if vals.size > 1 else 0.0
            out[norm] = {"mean": float(vals.mean()), "sd": sd}
        return out


def derive_seed(root: int, *key: int) -> int:
    """Child seed via SeedSequence spawn keys, the documented stream split."""
    ss = np.random.SeedSequence(entropy=int(root), spawn_key=tuple(int(k) for k in key))
    return int(ss.generate_state(1, np.uint64)[0])


def run_benchmark(
    spec: SimSpec,
    kernel: Kernel,
    tune: str = "cv",
    delta: Optional[float] = None,
    lambda_tgt: Optional[float] = None,
    beta: Optional[float] = None,
    c_delta: Optional[float] = None,
    c_lambda: Optional[float] = None,
    folds: Optional[int] = None,
    path_cfg: Optional[PathConfig] = None,
    repetitions: int = 1,
    seed: int = 0,
) -> BenchmarkResult:
    """Repeat generate -> tune -> fit -> score with derived seeds.

    ``tune`` selects how ``tuning.tuned_penalty`` finds (delta, lambda_tgt)
    per repetition, reading the parameters ``TUNING_MODES`` lists for it
    (delta defaults to 1, s is ``spec.s``); any other must stay None:

    * "fixed": both supplied by the caller,
    * "cv": K-fold cross-validation of lambda at the fixed delta using the
      one-standard-error rule over a geometric sweep from the gradient
      sup-norm at zero,
    * "theory": closed-form schedules from (s, beta) and the constants.

    Repetition i draws data with seed spawn_key (i, 0) and cross-validates
    with spawn_key (i, 1) off the benchmark seed, so every repetition is
    tuned on its own data.  Solver warnings never abort a repetition and
    never reach stderr: the path's notes and the text of each warning land
    in the row's ``messages``.  Runtime covers tuning plus fitting.
    """
    if tune not in BENCH_MODES:
        raise InputError(f"tune must be one of {BENCH_MODES}, got {tune!r}")
    repetitions = _positive_int(repetitions, "repetitions")
    given = {"delta": delta, "lambda_tgt": lambda_tgt, "beta": beta,
             "c_delta": c_delta, "c_lambda": c_lambda, "folds": folds}
    params = read_settings(TUNING_MODES[tune], given, f"tune={tune!r}", str,
                           {**TUNING_DEFAULTS, **BENCH_DEFAULTS, "s": spec.s})
    base = path_cfg or _DEFAULT_CONFIG

    def one_rep(i: int) -> BenchmarkRow:
        data, theta_star = generate(replace(spec, seed=derive_seed(seed, i, 0)))
        t0 = time.perf_counter()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            delta_used, lam, _ = tuned_penalty(data, kernel, tune, params,
                                               derive_seed(seed, i, 1), path_cfg=base)
            fit_spec = SmoothedRiskSpec(
                data=data, loss=SurrogateLoss(kernel=kernel, bandwidth=delta_used))
            path = path_following(fit_spec, replace(base, lambda_tgt=lam))
        runtime = time.perf_counter() - t0
        theta = path.theta_final
        return BenchmarkRow(
            repetition=i,
            l1=estimation_error(theta, theta_star, "l1"),
            l2=estimation_error(theta, theta_star, "l2"),
            linf=estimation_error(theta, theta_star, "linf"),
            nnz=int(np.count_nonzero(theta)),
            runtime=runtime,
            lambda_used=float(lam),
            delta_used=delta_used,
            messages=path.notes + tuple(str(w.message) for w in caught),
        )

    return BenchmarkResult(rows=tuple(one_rep(i) for i in range(repetitions)))
