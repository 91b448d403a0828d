"""Smoothing kernels and the survival-function surrogate loss built from them.

A kernel here is a real function K used to smooth the indicator of a negative
margin: the surrogate loss at margin u with bandwidth delta is the upper tail

    loss(u) = integral of K(t) dt over t in [u/delta, infinity).

For a nonnegative kernel integrating to one this is a sigmoid-like relaxation
of the step function, equal to 1/2 at u = 0 when K is symmetric.  Higher order
kernels (vanishing moments beyond the first) trade positivity for smaller
smoothing bias.

A kernel is its closed forms: every ``Kernel`` declares its tail, so fitting
never integrates numerically.  ``scipy.integrate`` is imported only where
quadrature runs, in ``kernel_moment`` and ``verify_proper``.
A gaussian-family kernel (``get_kernel("gaussian")``,
``make_higher_order_gaussian``) binds scipy's ``ndtr`` ufunc when it is
built, and its tail keeps it.  ``_ndtr`` loads that ufunc from the one
extension that defines it, so a fit never runs ``scipy.special``'s
``__init__`` and its array-API layer, which cost far more time and memory
than the extension; the ufunc is ``scipy.special.ndtr`` itself, so tails
keep their bits.  Importing this module loads numpy only.
"""

from __future__ import annotations

import importlib.util
import math
import os
import sys
from dataclasses import dataclass, field
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder
from typing import Callable

import numpy as np

from .errors import InputError, NumericError, _positive_real

_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)

# Gaussian-type integrands decay below 1e-30 outside [-12, 12]; quadrature on
# infinite supports is truncated there.
_GAUSS_RANGE = 12.0
_QUAD_TOL = 1e-10
# largest residual of unit mass or of a vanishing moment in verify_proper
_PROPER_TOL = 1e-8


# the extension that defines scipy.special.ndtr; older scipy releases keep
# ndtr in _ufuncs, which does not load alone
_NDTR_EXTENSION = "scipy.special._special_ufuncs"


def _ndtr():
    """scipy's ``ndtr`` ufunc, the standard normal cdf, loaded from
    ``_NDTR_EXTENSION`` without importing ``scipy.special``.

    The module stays in ``sys.modules``, so a later ``import scipy.special``
    reuses it and ``scipy.special.ndtr is _ndtr()``.
    """
    module = sys.modules.get(_NDTR_EXTENSION)
    if module is None:
        import scipy

        finder = FileFinder(os.path.join(os.path.dirname(scipy.__file__), "special"),
                            (ExtensionFileLoader, EXTENSION_SUFFIXES))
        spec = finder.find_spec(_NDTR_EXTENSION)
        if spec is not None:
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            sys.modules[_NDTR_EXTENSION] = module
    ndtr = getattr(module, "ndtr", None)
    if ndtr is None:  # no such extension, or no ndtr in it
        from scipy.special import ndtr
    return ndtr


def _phi(t):
    return _INV_SQRT_2PI * np.exp(-0.5 * np.square(t))


@dataclass(frozen=True)
class Kernel:
    """A smoothing kernel with its declared analytic properties.

    Arguments
    ---------
    name : str
        Identifier used in registries and reports.
    evaluate : callable
        Vectorized map t -> K(t).  Must return exactly 0.0 outside the
        declared support for compactly supported kernels.
    order : int
        Declared vanishing-moment order: moments 1..order integrate to zero.
    sup_bound : float
        Upper bound on |K|.
    support_radius : float
        Half-width of the support; ``math.inf`` for full-line kernels.
    tail : callable
        Closed form for integral of K over [a, infinity), vectorized in a.
    """

    name: str
    evaluate: Callable[[np.ndarray], np.ndarray] = field(repr=False)
    order: int
    sup_bound: float
    support_radius: float
    tail: Callable[[np.ndarray], np.ndarray] = field(repr=False)


@dataclass(frozen=True)
class KernelReport:
    """Outcome of ``verify_proper``: one (passed, residual) entry per condition."""

    name: str
    order_checked: int
    checks: dict
    passed: bool


def _quad(func, lo, hi):
    """``scipy.integrate.quad`` of func over [lo, hi] with the shared settings;
    the import stays here so that fitting never loads ``scipy.integrate``."""
    from scipy import integrate

    return integrate.quad(func, lo, hi, epsabs=_QUAD_TOL, limit=200, full_output=1)


@dataclass(frozen=True)
class SurrogateLoss:
    """Smoothed margin loss: ``value(u)`` integrates the kernel over [u/delta, inf).

    For symmetric nonnegative kernels this is nonincreasing in u with
    value(0) = 1/2 and limits 1 / 0 at -inf / +inf.
    """

    kernel: Kernel
    bandwidth: float

    def __post_init__(self):
        object.__setattr__(self, "bandwidth", _positive_real(self.bandwidth, "bandwidth"))

    def value(self, u):
        arr = np.asarray(u, dtype=float)
        if not np.all(np.isfinite(arr)):
            raise InputError("margin must be finite")
        out = self.kernel.tail(arr / self.bandwidth)
        if np.isscalar(u) or arr.ndim == 0:
            return float(out)
        return np.asarray(out, dtype=float)


def kernel_moment(kernel: Kernel, j: int) -> float:
    """j-th moment: integral of t**j K(t) dt, by adaptive quadrature.

    Raises NumericError when the integral does not converge (heavy tails).
    """
    if j < 0 or int(j) != j:
        raise InputError(f"moment index must be a nonnegative integer, got {j}")
    r = kernel.support_radius
    if math.isfinite(r):
        lo, hi = -r, r
    else:
        lo, hi = -np.inf, np.inf
    res = _quad(lambda t: t ** j * kernel.evaluate(t), lo, hi)
    if len(res) > 3:
        raise NumericError(f"moment {j} of kernel {kernel.name!r} did not "
                           f"converge: {res[3]}")
    return float(res[0])


def verify_proper(kernel: Kernel) -> KernelReport:
    """Check the defining kernel conditions numerically.

    Conditions: symmetry on a probe grid, the declared sup bound, unit mass,
    finite square integral, and vanishing moments 1..order of the kernel's
    declared order, mass and moments each to within ``_PROPER_TOL``.
    """
    order = kernel.order
    checks = {}
    r_eff = min(kernel.support_radius, _GAUSS_RANGE)
    ts = np.linspace(0.0, r_eff, 2001)
    vals_pos = kernel.evaluate(ts)
    vals_neg = kernel.evaluate(-ts)

    sym_resid = float(np.max(np.abs(vals_pos - vals_neg)))
    checks["symmetric"] = (sym_resid <= 1e-12, sym_resid)

    bound_excess = float(np.max(np.abs(vals_pos)) - kernel.sup_bound)
    checks["bounded"] = (bound_excess <= 1e-12, max(bound_excess, 0.0))

    if math.isfinite(kernel.support_radius):
        outside = np.abs(kernel.evaluate(
            kernel.support_radius + np.array([1e-9, 0.5, 3.0])))
        out_resid = float(np.max(outside))
        checks["vanishes_outside_support"] = (out_resid == 0.0, out_resid)

    mass_resid = abs(kernel_moment(kernel, 0) - 1.0)
    checks["unit_mass"] = (mass_resid <= _PROPER_TOL, mass_resid)

    sq = _quad(lambda t: kernel.evaluate(t) ** 2, -r_eff, r_eff)
    square_ok = len(sq) == 3 and np.isfinite(sq[0])
    checks["square_integrable"] = (square_ok, float(sq[0]) if square_ok else np.inf)

    for j in range(1, order + 1):
        resid = abs(kernel_moment(kernel, j))
        checks[f"moment_{j}_vanishes"] = (resid <= _PROPER_TOL, resid)

    passed = all(ok for ok, _ in checks.values())
    return KernelReport(name=kernel.name, order_checked=order,
                        checks=checks, passed=passed)


def _double_factorial_odd(k: int) -> int:
    # (2k - 1)!! with the empty-product convention at k = 0
    return math.prod(range(1, 2 * k, 2))


def make_higher_order_gaussian(order: int) -> Kernel:
    """Gaussian kernel multiplied by an even polynomial with vanishing moments.

    Solves the small linear moment system so that moments 1..order are zero
    while keeping unit mass.  ``order`` must be a positive even integer; the
    result has negative lobes, so the matching surrogate loss is not monotone.
    """
    if order < 2 or order % 2 != 0:
        raise InputError(f"order must be a positive even integer, got {order}")
    ndtr = _ndtr()

    half = order // 2
    # M[i, j] = integral of t^(2i) * t^(2j) * phi(t) dt = (2(i+j) - 1)!!
    m = np.array([[_double_factorial_odd(i + j) for j in range(half + 1)]
                  for i in range(half + 1)], dtype=float)
    rhs = np.zeros(half + 1)
    rhs[0] = 1.0
    coeffs = np.linalg.solve(m, rhs)  # K(t) = sum_j coeffs[j] t^(2j) phi(t)

    poly_desc = coeffs[::-1]  # np.polyval wants highest degree first

    def evaluate(t, _c=poly_desc):
        t = np.asarray(t, dtype=float)
        return np.polyval(_c, np.square(t)) * _phi(t)

    def tail(a, _c=coeffs):
        # integral of t^(2m) phi over [a, inf) satisfies
        # I_{2m} = a^(2m-1) phi(a) + (2m - 1) I_{2m-2},  I_0 = ndtr(-a)
        a = np.asarray(a, dtype=float)
        pa = _phi(a)
        i_even = ndtr(-a)
        total = _c[0] * i_even
        for mth in range(1, len(_c)):
            i_even = a ** (2 * mth - 1) * pa + (2 * mth - 1) * i_even
            total = total + _c[mth] * i_even
        return total

    # stationary points of K solve t * (2 p'(t^2) - p(t^2)) = 0; the exact sup
    # follows from the real nonnegative roots of that cubic-or-smaller factor
    dp = np.polyder(poly_desc)
    stationary = np.polysub(2.0 * dp, poly_desc)
    cands = [0.0]
    if len(stationary) > 1:
        roots = np.roots(stationary)
        cands += [math.sqrt(r.real) for r in roots
                  if abs(r.imag) < 1e-12 and r.real >= 0.0]
    sup_bound = float(max(abs(evaluate(c)) for c in cands))

    return Kernel(name=f"gaussian-order-{order}", evaluate=evaluate, order=order,
                  sup_bound=sup_bound, support_radius=math.inf, tail=tail)


def _gaussian_kernel() -> Kernel:
    ndtr = _ndtr()

    def tail(a):
        return ndtr(-np.asarray(a, dtype=float))

    return Kernel(name="gaussian", evaluate=_phi, order=1,
                  sup_bound=_INV_SQRT_2PI, support_radius=math.inf, tail=tail)


def _rectangular_kernel() -> Kernel:
    def evaluate(t):
        t = np.asarray(t, dtype=float)
        return np.where(np.abs(t) <= 1.0, 0.5, 0.0)

    def tail(a):
        a = np.asarray(a, dtype=float)
        return np.clip(0.5 * (1.0 - a), 0.0, 1.0)

    return Kernel(name="rectangular", evaluate=evaluate, order=1,
                  sup_bound=0.5, support_radius=1.0, tail=tail)


def _epanechnikov_kernel() -> Kernel:
    def evaluate(t):
        t = np.asarray(t, dtype=float)
        return np.where(np.abs(t) <= 1.0, 0.75 * (1.0 - np.square(t)), 0.0)

    def tail(a):
        a = np.asarray(a, dtype=float)
        inner = 0.5 - 0.75 * a + 0.25 * a ** 3
        return np.where(a <= -1.0, 1.0, np.where(a >= 1.0, 0.0, inner))

    return Kernel(name="epanechnikov", evaluate=evaluate, order=1,
                  sup_bound=0.75, support_radius=1.0, tail=tail)


_BUILTIN_FACTORIES = {
    "gaussian": _gaussian_kernel,
    "rectangular": _rectangular_kernel,
    "epanechnikov": _epanechnikov_kernel,
    "gaussian-order-2": lambda: make_higher_order_gaussian(2),
    "gaussian-order-4": lambda: make_higher_order_gaussian(4),
    "gaussian-order-6": lambda: make_higher_order_gaussian(6),
}

BUILTIN_KERNELS = tuple(_BUILTIN_FACTORIES)


def get_kernel(name: str) -> Kernel:
    """Look up a built-in kernel by name."""
    try:
        factory = _BUILTIN_FACTORIES[name]
    except KeyError:
        raise InputError(f"unknown kernel {name!r}; available: "
                         f"{', '.join(BUILTIN_KERNELS)}") from None
    return factory()
