import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smooth_threshold.errors import InputError
from smooth_threshold.kernels import (BUILTIN_KERNELS, Kernel, SurrogateLoss,
                                      get_kernel, kernel_moment,
                                      make_higher_order_gaussian, verify_proper)

# Frozen oracles (computed independently from scipy primitives; see notes).
PHI0 = 0.3989422804014327            # standard normal density at 0
GAUSS_TAIL_1 = 0.15865525393145707   # Phi(-1)
GAUSS_TAIL_M2 = 0.9772498680518208   # Phi(2)
K2_AT_0 = 0.5984134206021491         # (3/2) phi(0)
K2_TAIL_07 = 0.13267477554470658     # integral of order-2 kernel over [0.7, inf)
K4_TAIL_M03 = 0.7167385398701631     # order-4 kernel over [-0.3, inf)


def test_builtin_registry_contents():
    assert set(BUILTIN_KERNELS) == {
        "gaussian", "rectangular", "epanechnikov",
        "gaussian-order-2", "gaussian-order-4", "gaussian-order-6"}
    with pytest.raises(InputError):
        get_kernel("triweight")


def test_gaussian_kernel_values():
    k = get_kernel("gaussian")
    assert k.evaluate(0.0) == pytest.approx(PHI0, rel=1e-14)
    assert k.sup_bound == pytest.approx(PHI0, rel=1e-14)
    assert math.isinf(k.support_radius)
    loss = SurrogateLoss(kernel=k, bandwidth=1.0)
    assert loss.value(1.0) == pytest.approx(GAUSS_TAIL_1, rel=1e-13)
    assert loss.value(-2.0) == pytest.approx(GAUSS_TAIL_M2, rel=1e-13)
    # bandwidth only rescales the argument
    wide = SurrogateLoss(kernel=k, bandwidth=2.0)
    assert wide.value(2.0) == pytest.approx(GAUSS_TAIL_1, rel=1e-13)


def test_compact_kernels_vanish_outside_support_exactly():
    for name in ("rectangular", "epanechnikov"):
        k = get_kernel(name)
        assert k.support_radius == 1.0
        assert k.evaluate(1.0 + 1e-9) == 0.0
        assert k.evaluate(-3.7) == 0.0


def test_rectangular_loss_piecewise():
    loss = SurrogateLoss(kernel=get_kernel("rectangular"), bandwidth=1.0)
    assert loss.value(0.5) == 0.25
    assert loss.value(1.0) == 0.0
    assert loss.value(-1.0) == 1.0
    assert loss.value(37.0) == 0.0


def test_epanechnikov_loss_value():
    loss = SurrogateLoss(kernel=get_kernel("epanechnikov"), bandwidth=1.0)
    assert loss.value(0.5) == pytest.approx(0.15625, abs=1e-15)
    assert loss.value(np.array([-2.0, 2.0])) == pytest.approx([1.0, 0.0], abs=0)


@pytest.mark.parametrize("name", BUILTIN_KERNELS)
def test_loss_is_half_at_zero(name):
    loss = SurrogateLoss(kernel=get_kernel(name), bandwidth=0.7)
    assert loss.value(0.0) == pytest.approx(0.5, abs=1e-12)


@pytest.mark.parametrize("name", ["gaussian", "rectangular", "epanechnikov"])
def test_loss_monotone_and_limits_for_nonnegative_kernels(name):
    loss = SurrogateLoss(kernel=get_kernel(name), bandwidth=1.3)
    u = np.linspace(-6, 6, 401)
    vals = loss.value(u)
    assert np.all(np.diff(vals) <= 1e-15)
    assert np.all((vals >= 0) & (vals <= 1))
    assert loss.value(-60.0) == pytest.approx(1.0, abs=1e-12)
    assert loss.value(60.0) == pytest.approx(0.0, abs=1e-12)


def test_higher_order_gaussian_coefficients():
    k2 = get_kernel("gaussian-order-2")
    # p(u) = 3/2 - u/2 against the standard normal density
    assert k2.evaluate(0.0) == pytest.approx(K2_AT_0, rel=1e-12)
    assert k2.evaluate(1.0) == pytest.approx(1.0 * math.exp(-0.5) * PHI0,
                                                 rel=1e-12)
    assert k2.sup_bound == pytest.approx(K2_AT_0, rel=1e-12)
    # larger at the origin than the plain gaussian
    assert k2.evaluate(0.0) > PHI0


def test_higher_order_moments():
    k2 = get_kernel("gaussian-order-2")
    assert abs(kernel_moment(k2, 1)) < 1e-10
    assert abs(kernel_moment(k2, 2)) < 1e-10
    assert kernel_moment(k2, 4) == pytest.approx(-3.0, rel=1e-8)
    k4 = get_kernel("gaussian-order-4")
    for j in range(1, 5):
        assert abs(kernel_moment(k4, j)) < 1e-8
    assert kernel_moment(k4, 6) == pytest.approx(15.0, rel=1e-7)


def test_higher_order_tails_closed_form():
    k2 = get_kernel("gaussian-order-2")
    loss2 = SurrogateLoss(kernel=k2, bandwidth=1.0)
    assert loss2.value(0.7) == pytest.approx(K2_TAIL_07, abs=1e-12)
    k4 = get_kernel("gaussian-order-4")
    loss4 = SurrogateLoss(kernel=k4, bandwidth=1.0)
    assert loss4.value(-0.3) == pytest.approx(K4_TAIL_M03, abs=1e-10)
    # loss overshoots [0, 1] somewhere because the kernel has negative lobes
    u = np.linspace(-6, 6, 2001)
    vals = loss4.value(u)
    assert vals.min() < -1e-6 or vals.max() > 1 + 1e-6


def test_make_higher_order_rejects_bad_order():
    for bad in (0, 1, 3, -2):
        with pytest.raises(InputError):
            make_higher_order_gaussian(bad)


@pytest.mark.parametrize("name", BUILTIN_KERNELS)
def test_verify_proper_builtin(name):
    report = verify_proper(get_kernel(name))
    assert report.passed, report.checks
    for key, (ok, resid) in report.checks.items():
        assert ok, (key, resid)
        if key.startswith("moment") or key == "unit_mass":
            assert resid < 1e-8


def test_verify_proper_rejects_asymmetric_candidate():
    def one_sided(t):
        t = np.asarray(t, dtype=float)
        return np.where(t > 0, np.exp(-np.clip(t, 0, None)), 0.0)

    def tail(a):
        return np.exp(-np.clip(np.asarray(a, dtype=float), 0, None))

    cand = Kernel(name="one-sided-exp", evaluate=one_sided, order=1,
                  sup_bound=1.0, support_radius=math.inf, tail=tail)
    report = verify_proper(cand)
    assert not report.passed
    assert not report.checks["symmetric"][0]
    assert not report.checks["moment_1_vanishes"][0]
    # mass is still one, so that check alone is not enough
    assert report.checks["unit_mass"][0]


def test_moment_oracle_values():
    assert kernel_moment(get_kernel("rectangular"), 2) == pytest.approx(1 / 3,
                                                                        rel=1e-9)
    assert kernel_moment(get_kernel("epanechnikov"), 2) == pytest.approx(0.2,
                                                                         rel=1e-9)
    assert kernel_moment(get_kernel("gaussian"), 2) == pytest.approx(1.0,
                                                                     rel=1e-9)
    with pytest.raises(InputError):
        kernel_moment(get_kernel("gaussian"), -1)


def test_bandwidth_validation():
    # the positive-real rule and message of every other constant
    for bad, shown in ((0.0, "0.0"), (-1, "-1.0"), (math.nan, "nan"),
                       (math.inf, "inf")):
        with pytest.raises(InputError) as refused:
            SurrogateLoss(kernel=get_kernel("gaussian"), bandwidth=bad)
        assert str(refused.value) == f"bandwidth must be a positive real, got {shown}"
    # the checked float is stored: an int, a numpy float or a string fits
    # exactly as its float does, and a non-number is refused by name
    u = np.linspace(-3.0, 3.0, 13)
    reference = SurrogateLoss(kernel=get_kernel("gaussian"), bandwidth=2.0)
    for given in (2, np.float64(2.0), "2", "2.0"):
        loss = SurrogateLoss(kernel=get_kernel("gaussian"), bandwidth=given)
        assert type(loss.bandwidth) is float and loss.bandwidth == 2.0
        assert loss.value(u).tobytes() == reference.value(u).tobytes()
    for bad in ("abc", None):
        with pytest.raises(InputError) as refused:
            SurrogateLoss(kernel=get_kernel("gaussian"), bandwidth=bad)
        assert str(refused.value) == f"bandwidth must be a real number, got {bad!r}"


@settings(max_examples=60, deadline=None)
@given(st.floats(-30, 30), st.floats(0.05, 8))
def test_gaussian_loss_range_property(u, delta):
    loss = SurrogateLoss(kernel=get_kernel("gaussian"), bandwidth=delta)
    v = loss.value(u)
    assert 0.0 <= v <= 1.0
    # complementary margins sum to one for symmetric kernels
    assert v + loss.value(-u) == pytest.approx(1.0, abs=1e-12)
