import numpy as np
import pytest

from smooth_threshold import risk, tuning
from smooth_threshold.errors import InputError
from smooth_threshold.kernels import SurrogateLoss, get_kernel
from smooth_threshold.risk import (Dataset, SmoothedRiskSpec, class_weights,
                                   empirical_gradient,
                                   empirical_risk, objective, zero_one_risk)

from conftest import random_spec

# Hand-checked three-sample instance (margins 0.3, -2.0, 0.1); oracle values
# computed independently with scipy before this module was written.
X3 = np.array([0.3, -0.2, 1.1])
Y3 = np.array([1.0, -1.0, 1.0])
Z3 = np.array([[1.0, 0.5], [-0.4, 2.0], [0.0, -1.0]])
TH3 = np.array([0.5, -1.0])

RECT_D2_RISK = 0.6333333333333333
RECT_D2_GRAD = [0.11666666666666665, -0.20833333333333334]
GAUSS_D1_RISK = 0.6065035361952796
GAUSS_D1_GRAD = [0.13432806735526645, -0.10474685759104196]
PHI0 = 0.3989422804014327


def spec3(kernel, delta):
    data = Dataset(x=X3, y=Y3, z=Z3)
    return SmoothedRiskSpec(data=data,
                            loss=SurrogateLoss(kernel=get_kernel(kernel),
                                               bandwidth=delta))


def test_frozen_rectangular_risk_and_gradient():
    spec = spec3("rectangular", 2.0)
    assert empirical_risk(spec, TH3) == pytest.approx(RECT_D2_RISK, rel=1e-14)
    assert empirical_gradient(spec, TH3) == pytest.approx(RECT_D2_GRAD, rel=1e-14)


def test_frozen_gaussian_risk_and_gradient():
    spec = spec3("gaussian", 1.0)
    assert empirical_risk(spec, TH3) == pytest.approx(GAUSS_D1_RISK, rel=1e-13)
    assert empirical_gradient(spec, TH3) == pytest.approx(GAUSS_D1_GRAD, rel=1e-13)


def test_single_sample_at_zero():
    data = Dataset(x=[0.0], y=[1.0], z=[[1.0]])
    spec = SmoothedRiskSpec(data=data,
                            loss=SurrogateLoss(kernel=get_kernel("gaussian"),
                                               bandwidth=1.0))
    theta = np.zeros(1)
    assert empirical_risk(spec, theta) == pytest.approx(0.5, abs=1e-15)
    assert empirical_gradient(spec, theta) == pytest.approx([PHI0], rel=1e-14)


def test_dataset_validation():
    with pytest.raises(InputError):
        Dataset(x=[1.0, 2.0], y=[1.0], z=[[1.0], [2.0]])
    with pytest.raises(InputError):
        Dataset(x=[1.0], y=[1.0], z=[1.0])  # z must be 2-d
    with pytest.raises(InputError):
        Dataset(x=[np.nan], y=[1.0], z=[[1.0]])
    with pytest.raises(InputError) as err:
        Dataset(x=[1.0, 2.0], y=[1.0, 0.5], z=[[1.0], [2.0]])
    assert "1" in str(err.value)  # offending row index is reported
    with pytest.raises(InputError):
        Dataset(x=[], y=[], z=np.zeros((0, 2)))


@pytest.mark.parametrize("at", [0, -1], ids=["first", "last"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("name", ["x", "y", "z", "weights"])
def test_non_finite_value_is_refused_at_either_end(name, bad, at):
    # the first and last element of x, y, the weights and a column-major z
    n = 6
    arrays = {"x": np.linspace(-1.0, 1.0, n), "y": np.resize([1.0, -1.0], n),
              "z": np.asfortranarray(np.arange(3.0 * n).reshape(n, 3)),
              "weights": np.ones(n)}
    arrays[name][(at,) * arrays[name].ndim] = bad
    loss = SurrogateLoss(kernel=get_kernel("gaussian"), bandwidth=1.0)
    with pytest.raises(InputError) as err:
        data = Dataset(x=arrays["x"], y=arrays["y"], z=arrays["z"])
        SmoothedRiskSpec(data=data, loss=loss, weights=arrays["weights"])
    assert str(err.value) == f"{name} contains non-finite values"


def test_empty_dataset_is_reported_as_empty():
    for z in (np.zeros((0, 2)), np.zeros((0, 0))):
        with pytest.raises(InputError, match="^dataset is empty$"):
            Dataset(x=[], y=[], z=z)


def test_dataset_is_immutable():
    data = Dataset(x=[1.0], y=[1.0], z=[[1.0, 2.0]])
    assert data.n == 1 and data.d == 2
    with pytest.raises(ValueError):
        data.z[0, 0] = 5.0


def test_class_weights_balanced_and_imbalanced():
    data = Dataset(x=np.zeros(4), y=[1.0, -1.0, 1.0, -1.0], z=np.ones((4, 1)))
    assert np.array_equal(class_weights(data), np.full(4, 2.0))

    data5 = Dataset(x=np.zeros(5), y=[1.0, 1.0, -1.0, -1.0, -1.0],
                    z=np.ones((5, 1)))
    assert class_weights(data5) == pytest.approx([2.5, 2.5, 5 / 3, 5 / 3, 5 / 3])

    one_class = Dataset(x=np.zeros(3), y=[1.0, 1.0, 1.0], z=np.ones((3, 1)))
    with pytest.raises(InputError) as err:
        class_weights(one_class)
    assert "-1" in str(err.value)


def test_weight_validation():
    data = Dataset(x=[0.0, 0.0], y=[1.0, -1.0], z=np.ones((2, 1)))
    loss = SurrogateLoss(kernel=get_kernel("gaussian"), bandwidth=1.0)
    for bad, reason in [([-0.5, 1.0], "nonnegative"), ([1.0, 2.0, 3.0], "length"),
                        ([[1.0, 2.0]], "dimension"), ([1.0, np.nan], "non-finite")]:
        with pytest.raises(InputError, match=reason):
            SmoothedRiskSpec(data=data, loss=loss, weights=bad)
    spec = SmoothedRiskSpec(data=data, loss=loss, weights=[2.0, 0.5])
    assert np.array_equal(spec.weights, [2.0, 0.5])
    with pytest.raises(ValueError):
        spec.weights[0] = 1.0  # stored read-only


def test_weight_doubling_scales_risk_and_gradient_exactly():
    base = random_spec(n=60, d=4, seed=7)
    w = np.abs(np.random.Generator(np.random.Philox(key=11)).normal(
        size=60)) + 0.1
    spec1 = SmoothedRiskSpec(data=base.data, loss=base.loss, weights=w)
    spec2 = SmoothedRiskSpec(data=base.data, loss=base.loss, weights=2.0 * w)
    theta = np.array([0.2, -0.1, 0.4, 0.0])
    # doubling is a power of two, so the scaling is exact in floating point
    assert empirical_risk(spec2, theta) == 2.0 * empirical_risk(spec1, theta)
    assert np.array_equal(empirical_gradient(spec2, theta),
                          2.0 * empirical_gradient(spec1, theta))


def test_translation_identity_with_intercept_column():
    spec = random_spec(n=50, d=3, seed=3)
    data = spec.data
    ones = np.ones((data.n, 1))
    z_aug = np.hstack([ones, data.z])
    theta = np.array([0.3, 0.1, -0.2, 0.5])
    shift = 1.25
    base = Dataset(x=data.x, y=data.y, z=z_aug)
    moved = Dataset(x=data.x + shift, y=data.y, z=z_aug)
    spec_base = SmoothedRiskSpec(data=base, loss=spec.loss)
    spec_moved = SmoothedRiskSpec(data=moved, loss=spec.loss)
    theta_moved = theta.copy()
    theta_moved[0] += shift
    assert empirical_risk(spec_moved, theta_moved) == pytest.approx(
        empirical_risk(spec_base, theta), rel=1e-12)
    assert empirical_gradient(spec_moved, theta_moved) == pytest.approx(
        empirical_gradient(spec_base, theta), abs=1e-12)


def test_zero_one_risk_margins_and_ties():
    data = Dataset(x=[1.0, 1.0], y=[1.0, -1.0], z=np.zeros((2, 1)))
    # margins +1 and -1
    assert zero_one_risk(data, np.zeros(1)) == 0.5
    # an exact tie contributes one half
    tie = Dataset(x=[2.0], y=[1.0], z=[[1.0]])
    assert zero_one_risk(tie, np.array([2.0])) == 0.5
    assert zero_one_risk(tie, np.array([1.0])) == 0.0
    assert zero_one_risk(tie, np.array([3.0])) == 1.0


def test_zero_one_risk_weighted():
    data = Dataset(x=[1.0, -1.0, 5.0], y=[1.0, -1.0, 1.0], z=np.zeros((3, 1)))
    w = [3.0, 1.0, 1.0]
    # margins 1, 1, 5: no errors
    assert zero_one_risk(data, np.zeros(1), w) == 0.0
    flipped = Dataset(x=[-1.0, 1.0, 5.0], y=[1.0, -1.0, 1.0], z=np.zeros((3, 1)))
    # first two samples are misclassified, weights 3 and 1
    assert zero_one_risk(flipped, np.zeros(1), w) == pytest.approx(4 / 3)


def test_objective_adds_scaled_l1():
    spec = spec3("gaussian", 1.0)
    val = objective(spec, TH3, 0.25)
    assert val == pytest.approx(GAUSS_D1_RISK + 0.25 * 1.5, rel=1e-13)
    with pytest.raises(InputError):
        objective(spec, TH3, -0.1)


def test_theta_validation():
    spec = spec3("gaussian", 1.0)
    with pytest.raises(InputError):
        empirical_risk(spec, np.zeros(3))
    with pytest.raises(InputError):
        empirical_gradient(spec, np.array([np.inf, 0.0]))


@pytest.mark.parametrize("kernel,delta", [("gaussian", 1.0), ("gaussian", 0.3),
                                          ("gaussian-order-2", 0.7),
                                          ("epanechnikov", 2.5)])
def test_gradient_matches_central_differences(kernel, delta):
    spec = random_spec(n=35, d=4, seed=21, kernel=kernel, delta=delta)
    rng = np.random.Generator(np.random.Philox(key=5))
    theta = 0.5 * rng.normal(size=4)
    g = empirical_gradient(spec, theta)
    fd = np.empty_like(g)
    for j in range(4):
        h = 1e-5 * (1.0 + abs(theta[j]))
        e = np.zeros(4)
        e[j] = h
        fd[j] = (empirical_risk(spec, theta + e)
                 - empirical_risk(spec, theta - e)) / (2 * h)
    assert g == pytest.approx(fd, abs=2e-8)


def test_risk_nonnegative_and_bounded_for_unit_weights():
    spec = random_spec(n=80, d=5, seed=9)
    rng = np.random.Generator(np.random.Philox(key=17))
    for _ in range(5):
        theta = rng.normal(size=5)
        r = empirical_risk(spec, theta)
        assert 0.0 <= r <= 1.0


def test_determinism_bitwise():
    spec = random_spec(n=300, d=6, seed=2)
    theta = np.full(6, 0.1)
    g1 = empirical_gradient(spec, theta)
    g2 = empirical_gradient(spec, theta)
    assert np.array_equal(g1, g2)
    assert empirical_risk(spec, theta) == empirical_risk(spec, theta)


def test_given_margins_match_recomputed_ones():
    spec = random_spec(n=50, d=4, seed=3)
    theta = np.array([0.3, 0.0, -0.2, 0.1])
    u = spec.margins(theta)
    assert empirical_risk(spec, theta, u=u) == empirical_risk(spec, theta)
    assert np.array_equal(empirical_gradient(spec, theta, u=u),
                          empirical_gradient(spec, theta))
    assert objective(spec, theta, 0.1, u=u) == objective(spec, theta, 0.1)


def _theta_with_support(d, size, seed):
    theta = np.zeros(d)
    rng = np.random.default_rng(seed)
    theta[rng.choice(d, size, replace=False)] = rng.normal(size=size)
    return theta


@pytest.mark.parametrize("size", [0, 3, 10, 11, 40])
def test_margins_match_the_full_product(size):
    # d=40: supports of 3 and 10 are gathered, 11 and 40 sum every column
    spec = random_spec(n=501, d=40, seed=11)
    data = spec.data
    theta = _theta_with_support(data.d, size, seed=size)
    u = spec.margins(theta)
    if size == 0:
        assert u.tobytes() == (data.y * data.x).tobytes()
    full = data.y * (data.x - data.z @ theta)
    scale = np.abs(data.x) + np.abs(data.z) @ np.abs(theta)
    assert np.all(np.abs(u - full) <= 1e-12 * scale)


@pytest.mark.parametrize("size", [1, 3, 10, 11, 40])
def test_gathered_and_full_margins_agree_bitwise(monkeypatch, size):
    # a zero coordinate adds an exact zero, so the support size that picks
    # the branch cannot change a result
    spec = random_spec(n=501, d=40, seed=12)
    theta = _theta_with_support(40, size, seed=size)
    monkeypatch.setattr(risk, "_SPARSE_SHARE", 1.0)
    gathered = spec.margins(theta)
    monkeypatch.setattr(risk, "_SPARSE_SHARE", 0.0)
    assert spec.margins(theta).tobytes() == gathered.tobytes()


def test_covariates_are_one_read_only_column_major_copy():
    z = np.arange(12.0).reshape(4, 3)
    for given in (z, np.asfortranarray(z)):
        data = Dataset(x=np.zeros(4), y=[1.0, -1.0, 1.0, -1.0], z=given)
        assert data.z.flags.f_contiguous and not data.z.flags.writeable
        assert given.flags.writeable and not np.shares_memory(data.z, given)
        assert np.array_equal(data.z, z)


def test_every_fold_keeps_covariates_column_major(monkeypatch):
    spec = random_spec(n=120, d=5, seed=13)
    seen = []

    def recording(module, name):
        original = getattr(module, name)

        def wrapped(fold_spec, *args, **kwargs):
            seen.append(fold_spec.data.z)
            return original(fold_spec, *args, **kwargs)
        monkeypatch.setattr(module, name, wrapped)

    recording(tuning, "path_following")
    recording(tuning, "empirical_risk")
    cv = tuning.cross_validate_lambda(spec.data, get_kernel("gaussian"), 1.0,
                                      3, [0.1, 0.05], seed=4)
    # per fold: the training fit, then one held-out score per grid value
    assert len(seen) == 9
    for k in range(3):
        train, *tests = seen[3 * k:3 * k + 3]
        held_out = cv.fold_assignment == k
        assert np.array_equal(train, spec.data.z[~held_out])
        for z in tests:
            assert np.array_equal(z, spec.data.z[held_out])
    for z in seen:
        assert z.flags.f_contiguous and not z.flags.writeable
