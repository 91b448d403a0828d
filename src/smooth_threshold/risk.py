"""Weighted empirical risk of a linear threshold rule under a smoothed margin loss.

The estimand is a coefficient vector theta scoring covariates z against a
scalar response threshold: a unit predicts +1 when x exceeds theta'z.  The
margin of sample i is u_i = y_i (x_i - theta'z_i); classification risk is the
weighted mean of a margin loss, here the kernel-smoothed step from
:mod:`.kernels` or the exact 0-1 loss.

Margins are the BLAS product ``z @ theta``; the gradient sums over samples in
one fixed-order pass without BLAS, so results are bit-identical for any BLAS
thread count.  Risk, gradient and objective take ``u = spec.margins(theta)``
from callers that have it (margins validated theta).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import InputError
from .kernels import SurrogateLoss


def _row_sum(coeff: np.ndarray, z: np.ndarray) -> np.ndarray:
    # sum_i coeff_i z_i in einsum's own loop; BLAS's varies with its thread count
    return np.einsum("i,ij->j", coeff, z)


def _margins(data: Dataset, theta: np.ndarray) -> np.ndarray:
    return data.y * (data.x - data.z @ theta)


def _frozen_array(a, dtype=float, ndim=None, name="array"):
    out = np.array(a, dtype=dtype, order="C")
    if ndim is not None and out.ndim != ndim:
        raise InputError(f"{name} must have {ndim} dimension(s), got {out.ndim}")
    if not np.all(np.isfinite(out)):
        raise InputError(f"{name} contains non-finite values")
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class Dataset:
    """Immutable sample container: responses x, labels y in {-1, +1}, covariates z."""

    x: np.ndarray
    y: np.ndarray
    z: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "x", _frozen_array(self.x, ndim=1, name="x"))
        object.__setattr__(self, "y", _frozen_array(self.y, ndim=1, name="y"))
        object.__setattr__(self, "z", _frozen_array(self.z, ndim=2, name="z"))
        n = self.x.shape[0]
        if n == 0:
            raise InputError("dataset is empty")
        if self.y.shape[0] != n or self.z.shape[0] != n:
            raise InputError(f"inconsistent sample counts: x has {n}, "
                             f"y has {self.y.shape[0]}, z has {self.z.shape[0]}")
        bad = ~np.isin(self.y, (-1.0, 1.0))
        if np.any(bad):
            raise InputError(f"labels must be -1 or +1; offending rows "
                             f"{np.flatnonzero(bad)[:10].tolist()}")

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def d(self) -> int:
        return self.z.shape[1]


@dataclass(frozen=True)
class WeightScheme:
    """Label weighting rule: unit, inverse class probability, or explicit per sample.

    ``class_weights`` stores resolved (w(+1), w(-1)) values for the inverse
    scheme; when absent they are recomputed from whatever dataset the scheme
    is resolved against.
    """

    kind: str = "unit"
    per_sample: np.ndarray | None = field(default=None)
    class_weights: tuple[float, float] | None = None

    _KINDS = ("unit", "inverse_class_probability", "per_sample")

    def __post_init__(self):
        if self.kind not in self._KINDS:
            raise InputError(f"unknown weight scheme {self.kind!r}")
        if self.kind == "per_sample":
            if self.per_sample is None:
                raise InputError("per_sample scheme requires a weight vector")
            w = _frozen_array(self.per_sample, ndim=1, name="weights")
            if np.any(w < 0):
                raise InputError("per-sample weights must be nonnegative")
            object.__setattr__(self, "per_sample", w)

    @staticmethod
    def unit() -> "WeightScheme":
        return WeightScheme(kind="unit")

    @staticmethod
    def inverse_class() -> "WeightScheme":
        return WeightScheme(kind="inverse_class_probability")

    @staticmethod
    def samples(w) -> "WeightScheme":
        return WeightScheme(kind="per_sample", per_sample=w)

    def resolve(self, data: Dataset) -> np.ndarray:
        """Per-sample weight vector for ``data``."""
        if self.kind == "unit":
            return np.ones(data.n)
        if self.kind == "per_sample":
            if self.per_sample.shape[0] != data.n:
                raise InputError(f"weight vector length {self.per_sample.shape[0]} "
                                 f"does not match n={data.n}")
            return self.per_sample
        if self.class_weights is not None:
            w_plus, w_minus = self.class_weights
        else:
            w_plus, w_minus = _inverse_class_weights(data)
        return np.where(data.y > 0, w_plus, w_minus)


def _scheme_or_unit(weights: WeightScheme | None) -> WeightScheme:
    return WeightScheme.unit() if weights is None else weights


def _inverse_class_weights(data: Dataset) -> tuple[float, float]:
    n_plus = int(np.count_nonzero(data.y > 0))
    n_minus = data.n - n_plus
    if n_plus == 0 or n_minus == 0:
        missing = "+1" if n_plus == 0 else "-1"
        raise InputError(f"class {missing} is absent; inverse-probability "
                         f"weights are undefined")
    return data.n / n_plus, data.n / n_minus


def class_weights(data: Dataset) -> WeightScheme:
    """Inverse class probability scheme w(y) = n / #{i: y_i = y}, resolved on ``data``."""
    return WeightScheme(kind="inverse_class_probability",
                        class_weights=_inverse_class_weights(data))


@dataclass(frozen=True)
class SmoothedRiskSpec:
    """Bundle of data, smoothed loss, and weight scheme defining one risk function.

    ``weights = None`` means unit weights.
    """

    data: Dataset
    loss: SurrogateLoss
    weights: WeightScheme | None = None

    def __post_init__(self):
        object.__setattr__(self, "weights", _scheme_or_unit(self.weights))

    @cached_property
    def weight_vector(self) -> np.ndarray:
        w = self.weights.resolve(self.data)
        if w.flags.owndata:
            w.setflags(write=False)
        return w

    def margins(self, theta: np.ndarray) -> np.ndarray:
        return _margins(self.data, _check_theta(theta, self.data.d))


def _check_theta(theta, d: int) -> np.ndarray:
    theta = np.asarray(theta, dtype=float)
    if theta.ndim != 1 or theta.shape[0] != d:
        raise InputError(f"theta must be a vector of length {d}, "
                         f"got shape {theta.shape}")
    if not np.all(np.isfinite(theta)):
        raise InputError("theta contains non-finite values")
    return theta


def empirical_risk(spec: SmoothedRiskSpec, theta, *, u=None) -> float:
    """Weighted mean of the smoothed margin loss at theta."""
    u = spec.margins(theta) if u is None else u
    vals = spec.weight_vector * spec.loss.value(u)
    return float(np.sum(vals)) / spec.data.n


def empirical_gradient(spec: SmoothedRiskSpec, theta, *, u=None) -> np.ndarray:
    """Gradient of ``empirical_risk`` in theta.

    The margin enters the loss as y(x - theta'z), so each sample contributes
    w y z K(u/delta)/delta; signs follow from the loss derivative -K(u/delta)/delta.
    """
    u = spec.margins(theta) if u is None else u
    delta = spec.loss.bandwidth
    coeff = spec.weight_vector * spec.data.y \
        * spec.loss.kernel.evaluate(u / delta) / delta
    return _row_sum(coeff, spec.data.z) / spec.data.n


def objective(spec: SmoothedRiskSpec, theta, lam: float, *, u=None) -> float:
    """Penalized objective: empirical risk plus lam * l1 norm."""
    if not (np.isfinite(lam) and lam >= 0):
        raise InputError(f"penalty level must be a nonnegative real, got {lam}")
    u = spec.margins(theta) if u is None else u
    return empirical_risk(spec, theta, u=u) + lam * float(np.sum(np.abs(theta)))


def zero_one_risk(data: Dataset, theta, weights: WeightScheme | None = None) -> float:
    """Weighted misclassification risk; a zero margin counts as half an error."""
    u = _margins(data, _check_theta(theta, data.d))
    w = _scheme_or_unit(weights).resolve(data)
    vals = w * 0.5 * (1.0 - np.sign(u))
    return float(np.sum(vals)) / data.n
