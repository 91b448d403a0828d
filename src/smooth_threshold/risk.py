"""Weighted empirical risk of a linear threshold rule under a smoothed margin loss.

The estimand is a coefficient vector theta scoring covariates z against a
scalar response threshold: a unit predicts +1 when x exceeds theta'z.  The
margin of sample i is u_i = y_i (x_i - theta'z_i); classification risk is the
weighted mean of a margin loss, here the kernel-smoothed step from
:mod:`.kernels` or the exact 0-1 loss.  Weights are one read-only
per-sample vector: unit when none is given, or for instance the inverse class
probability vector from ``class_weights``.

Covariates are stored column-major, so each column of z is one contiguous
run of memory.  Path-following keeps theta sparse, and the margins sum
theta_j z_j over the support of theta only, one column after another; when
the support exceeds a quarter of d they sum over every column, which skips
no work but gathers none.  Both add the columns in the same order, and a
zero coordinate adds an exact zero, so on two or more samples both give the
same bits.  The gradient sums over samples down each column, split over
the usable CPUs in blocks of columns when large (``_parallel.split``), with
the same bits.  Neither, nor the l2 norm of the ball projection and the
Lepski rules, calls BLAS, whose sums change in the last bits with its
thread count.  Risk, gradient and objective take ``u = spec.margins(theta)``
from callers that have it (margins validated theta).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._parallel import split
from .errors import InputError, _nonneg_real
from .kernels import SurrogateLoss

# largest share of d on which margins gather the support columns of theta
_SPARSE_SHARE = 0.25


def _row_sum(coeff: np.ndarray, z: np.ndarray) -> np.ndarray:
    # sum_i coeff_i z_i down each column in einsum's own loop, in blocks of
    # columns once the pass is large
    return split(
        lambda a, b, out: np.einsum("i,ij->j", coeff, z[:, a:b], out=out),
        z.shape[1], z.size)


def _col_sum(z: np.ndarray, theta: np.ndarray) -> np.ndarray:
    # z @ theta as sum_j theta_j z_j in einsum's own loop, one column after
    # another; with z column-major, row j of z.T is column j, contiguous
    support = np.flatnonzero(theta)
    cols = z.T
    if support.size <= _SPARSE_SHARE * z.shape[1]:
        cols, theta = cols[support], theta[support]
    return np.einsum("ji,j->i", cols, theta)


def _l2_norm(v: np.ndarray) -> float:
    # sqrt(v'v) in einsum's own loop; numpy.linalg.norm's BLAS dot varies
    # with its thread count
    return math.sqrt(np.einsum("i,i->", v, v))


def _margins(data: Dataset, theta: np.ndarray) -> np.ndarray:
    return data.y * (data.x - _col_sum(data.z, theta))


def _frozen_array(a, dtype=float, ndim=None, name="array", order="C"):
    out = np.array(a, dtype=dtype, order=order)
    if ndim is not None and out.ndim != ndim:
        raise InputError(f"{name} must have {ndim} dimension(s), got {out.ndim}")
    # NaN and +-inf carry through min and max, without an n x d mask
    if out.size and not (np.isfinite(out.min()) and np.isfinite(out.max())):
        raise InputError(f"{name} contains non-finite values")
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class Dataset:
    """Immutable sample container: responses x, labels y in {-1, +1}, covariates z.

    Each array is one read-only copy of its input.  ``z`` is n x d and
    column-major (Fortran order): the margins read only the columns on the
    support of theta, and the gradient sums down each column, both in
    contiguous memory.
    """

    x: np.ndarray
    y: np.ndarray
    z: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "x", _frozen_array(self.x, ndim=1, name="x"))
        object.__setattr__(self, "y", _frozen_array(self.y, ndim=1, name="y"))
        object.__setattr__(self, "z", _frozen_array(self.z, ndim=2, name="z",
                                                      order="F"))
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


def _weight_vector(data: Dataset, weights) -> np.ndarray:
    """Read-only per-sample weights for ``data``; ``None`` means unit weights."""
    w = _frozen_array(np.ones(data.n) if weights is None else weights,
                      ndim=1, name="weights")
    if w.shape[0] != data.n:
        raise InputError(f"weight vector length {w.shape[0]} "
                         f"does not match n={data.n}")
    if np.any(w < 0):
        raise InputError("per-sample weights must be nonnegative")
    return w


def class_weights(data: Dataset) -> np.ndarray:
    """Inverse class probability weights w_i = n / #{j: y_j = y_i} for ``data``."""
    n_plus = int(np.count_nonzero(data.y > 0))
    n_minus = data.n - n_plus
    if n_plus == 0 or n_minus == 0:
        missing = "+1" if n_plus == 0 else "-1"
        raise InputError(f"class {missing} is absent; inverse-probability "
                         f"weights are undefined")
    return np.where(data.y > 0, data.n / n_plus, data.n / n_minus)


@dataclass(frozen=True)
class SmoothedRiskSpec:
    """Bundle of data, smoothed loss, and per-sample weights defining one risk function.

    ``weights`` is a length-n nonnegative vector, or ``None`` for unit
    weights; it is validated here and stored as a read-only array.
    """

    data: Dataset
    loss: SurrogateLoss
    weights: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "weights", _weight_vector(self.data, self.weights))

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
    vals = spec.weights * spec.loss.value(u)
    return float(np.sum(vals)) / spec.data.n


def empirical_gradient(spec: SmoothedRiskSpec, theta, *, u=None) -> np.ndarray:
    """Gradient of ``empirical_risk`` in theta.

    The margin enters the loss as y(x - theta'z), so each sample contributes
    w y z K(u/delta)/delta; signs follow from the loss derivative -K(u/delta)/delta.
    """
    u = spec.margins(theta) if u is None else u
    delta = spec.loss.bandwidth
    coeff = spec.weights * spec.data.y \
        * spec.loss.kernel.evaluate(u / delta) / delta
    return _row_sum(coeff, spec.data.z) / spec.data.n


def objective(spec: SmoothedRiskSpec, theta, lam: float, *, u=None) -> float:
    """Penalized objective: empirical risk plus lam * l1 norm."""
    lam = _nonneg_real(lam, "penalty level")
    u = spec.margins(theta) if u is None else u
    return empirical_risk(spec, theta, u=u) + lam * float(np.sum(np.abs(theta)))


def zero_one_risk(data: Dataset, theta, weights=None) -> float:
    """Weighted misclassification risk; a zero margin counts as half an error."""
    u = _margins(data, _check_theta(theta, data.d))
    vals = _weight_vector(data, weights) * 0.5 * (1.0 - np.sign(u))
    return float(np.sum(vals)) / data.n
