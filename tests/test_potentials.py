"""Potential values, analytic gradients, and their invariants."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from steiner import (ConfigError, NonSmoothEvaluationWarning, PotentialSpec,
                     potential_gradient, potential_value)

from steiner.potentials import batch_gradients, batch_roots, batch_value_changes, batch_values
from util import make_objective, random_rotation

ISOTROPIC = [
    PotentialSpec("euclidean", epsilon=1e-6),
    PotentialSpec("p_norm", p=2.0, epsilon=1e-6),
    PotentialSpec("squared"),
    PotentialSpec("weighted_euclidean", epsilon=1e-6, weights=(1.7,)),
    PotentialSpec("gaussian_well", sigma=1.3),
]


def test_euclidean_value_is_plain_distance_without_smoothing():
    assert potential_value(PotentialSpec("euclidean", epsilon=0.0), [3.0, 4.0]) == 5.0


def test_squared_value():
    assert potential_value(PotentialSpec("squared"), [1.0, 1.0, 1.0]) == 3.0


def test_gaussian_value_zero_at_anchor():
    assert potential_value(PotentialSpec("gaussian_well", sigma=1.0), [0.0, 0.0]) == 0.0


def test_smoothed_value_is_zero_at_anchor():
    for spec in (PotentialSpec("euclidean", epsilon=0.5),
                 PotentialSpec("p_norm", p=3.0, epsilon=0.5)):
        assert potential_value(spec, [0.0, 0.0]) == 0.0


def test_squared_gradient():
    np.testing.assert_allclose(
        potential_gradient(PotentialSpec("squared"), [1.0, 2.0]), [2.0, 4.0])


def test_euclidean_gradient_is_unit_radial():
    g = potential_gradient(PotentialSpec("euclidean", epsilon=0.0), [3.0, 4.0])
    np.testing.assert_allclose(g, [0.6, 0.8], rtol=1e-15)


def test_gaussian_gradient_matches_analytic_form():
    # d/dv (1 - exp(-|v|^2/s^2)) = (2 v / s^2) exp(-|v|^2/s^2); at v=(1,0), s=2
    # that is 0.5 * exp(-0.25) in the first coordinate.
    g = potential_gradient(PotentialSpec("gaussian_well", sigma=2.0), [1.0, 0.0])
    np.testing.assert_allclose(g, [0.5 * math.exp(-0.25), 0.0], rtol=1e-14)
    assert abs(g[0] - 0.38940) < 5e-6


def test_weighted_gradient_scales_by_anchor_weight():
    spec = PotentialSpec("weighted_euclidean", epsilon=0.0, weights=(2.0, 5.0))
    g = potential_gradient(spec, [3.0, 4.0], anchor_index=1)
    np.testing.assert_allclose(g, [3.0, 4.0], rtol=1e-15)


@pytest.mark.parametrize("spec", [
    PotentialSpec("euclidean", epsilon=0.0),
    PotentialSpec("weighted_euclidean", epsilon=0.0, weights=(1.0,)),
    PotentialSpec("p_norm", p=1.5, epsilon=0.0),
])
def test_kink_gradient_warns_and_returns_zero(spec):
    with pytest.warns(NonSmoothEvaluationWarning):
        g = potential_gradient(spec, [0.0, 0.0])
    np.testing.assert_array_equal(g, [0.0, 0.0])


def test_smoothing_removes_the_kink():
    g = potential_gradient(PotentialSpec("euclidean", epsilon=1e-6), [0.0, 0.0])
    np.testing.assert_array_equal(g, [0.0, 0.0])  # symmetric, and no warning


def test_p_norm_gradient_finite_on_coordinate_planes():
    # p < 2 with eps = 0 has an integrable kink at v_k = 0; the limit is 0.
    g = potential_gradient(PotentialSpec("p_norm", p=1.5, epsilon=0.0), [1.0, 0.0])
    assert np.all(np.isfinite(g))
    assert g[1] == 0.0


@pytest.mark.parametrize("kwargs, field", [
    (dict(kind="mahalanobis"), "kind"),
    (dict(kind="p_norm", p=0.5), "p"),
    (dict(kind="p_norm", p=float("nan")), "p"),
    (dict(kind="euclidean", epsilon=-1.0), "epsilon"),
    (dict(kind="gaussian_well", sigma=0.0), "sigma"),
    (dict(kind="weighted_euclidean", weights=(1.0, -2.0)), "weights"),
    (dict(kind="euclidean", weights=(1.0,)), "weights"),
    (dict(kind="euclidean", p=3.0), "p"),
    (dict(kind="squared", sigma=-1.0), "sigma"),
])
def test_invalid_specs_fail_at_construction(kwargs, field):
    with pytest.raises(ConfigError, match=field):
        PotentialSpec(**kwargs)


def test_kind_parameters_default_only_for_their_kind():
    assert PotentialSpec("p_norm").p == 2.0
    assert PotentialSpec("gaussian_well").sigma == 1.0
    spec = PotentialSpec("euclidean")
    assert spec.p is None and spec.sigma is None


def test_weights_are_bound_to_anchor_count():
    spec = PotentialSpec("weighted_euclidean", weights=(1.0, 2.0))
    with pytest.raises(ConfigError, match="weights"):
        spec.bound(1.0, 3)
    assert spec.bound(1.0, 2).epsilon == 1e-9


@pytest.mark.parametrize("spec", ISOTROPIC)
def test_rotation_invariance_of_isotropic_kinds(spec):
    rng = np.random.default_rng(11)
    for _ in range(40):
        d = int(rng.integers(2, 5))
        v = rng.normal(size=d) * rng.uniform(0.1, 5.0)
        base = potential_value(spec, v)
        rotated = potential_value(spec, random_rotation(rng, d) @ v)
        assert abs(rotated - base) <= 1e-12 * max(abs(base), 1e-30)


def test_p_norm_with_p_not_2_is_anisotropic():
    # Not a symmetry bug: the per-coordinate norm is genuinely axis-aligned.
    spec = PotentialSpec("p_norm", p=1.0, epsilon=0.0)
    v = np.array([1.0, 0.0])
    r = np.sqrt(0.5) * np.array([1.0, 1.0])
    assert abs(potential_value(spec, v) - potential_value(spec, r)) > 0.1


@pytest.mark.parametrize("spec", ISOTROPIC + [PotentialSpec("p_norm", p=3.0, epsilon=1e-6)])
def test_value_nondecreasing_along_rays(spec):
    rng = np.random.default_rng(3)
    for _ in range(25):
        d = int(rng.integers(1, 5))
        u = rng.normal(size=d)
        u /= np.linalg.norm(u)
        radii = np.sort(rng.uniform(0.0, 6.0, size=12))
        vals = [potential_value(spec, r * u) for r in radii]
        assert np.all(np.diff(vals) >= -1e-14)


@pytest.mark.parametrize("spec", ISOTROPIC + [PotentialSpec("p_norm", p=3.0, epsilon=1e-6)])
def test_values_are_nonnegative(spec):
    rng = np.random.default_rng(5)
    for _ in range(200):
        d = int(rng.integers(1, 5))
        assert potential_value(spec, rng.normal(size=d) * 3.0) >= 0.0


def test_epsilon_consistency_of_the_hyperbolic_kernel():
    # sqrt(r^2 + eps^2) approaches r from above with gap at most eps^2/(2r)
    # once r >= 10 eps; the reported value subtracts the constant offset eps.
    # A few ulps of allowance cover the rounding of evaluating the kernel,
    # which exceeds the analytic gap itself once eps^2/r^2 is below eps_mach.
    rng = np.random.default_rng(9)
    ulps = 8.0 * np.finfo(float).eps
    for eps in (1e-3, 1e-4, 1e-5):
        spec = PotentialSpec("euclidean", epsilon=eps)
        for _ in range(50):
            d = int(rng.integers(1, 4))
            v = rng.normal(size=d)
            r = np.linalg.norm(v)
            if r < 10.0 * eps:
                continue
            kernel = potential_value(spec, v) + eps
            assert abs(kernel - r) <= (eps * eps) / (2.0 * r) * (1.0 + 1e-6) + ulps * r


coords = hst.lists(
    hst.floats(min_value=-30.0, max_value=30.0, allow_nan=False, allow_infinity=False),
    min_size=2, max_size=2)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(a=coords, b=coords)
@pytest.mark.parametrize("spec", [
    PotentialSpec("euclidean", epsilon=1e-4),
    PotentialSpec("p_norm", p=1.5, epsilon=1e-4),
    PotentialSpec("p_norm", p=3.0, epsilon=1e-4),
    PotentialSpec("squared"),
])
def test_midpoint_convexity(spec, a, b):
    a, b = np.asarray(a), np.asarray(b)
    mid = potential_value(spec, (a + b) / 2.0)
    avg = (potential_value(spec, a) + potential_value(spec, b)) / 2.0
    assert mid <= avg + 1e-12


@pytest.mark.parametrize("kind, kwargs", [
    ("euclidean", {}),
    ("weighted_euclidean", dict(weights=tuple(np.linspace(0.3, 4.0, 7)))),
])
@pytest.mark.parametrize("epsilon", [0.0, 1e-9, 0.7])
def test_carried_root_changes_no_bit(kind, kwargs, epsilon):
    # The descent hands the roots of the gradient at x to the line search's
    # value changes; both must equal the kernels that compute them alone.
    spec = PotentialSpec(kind, epsilon=epsilon, **kwargs)
    weights = None if spec.weights is None else np.asarray(spec.weights)
    rng = np.random.default_rng(29)
    disp = rng.normal(scale=[[[1.0, 1e-8, 1e6]]], size=(5, 7, 3))
    disp[0, 0] = 0.0  # at its anchor: the kink; unmoved, a zero denominator at eps = 0
    moves = rng.normal(size=(5, 3)) * np.array([[0.0], [1e-12], [1e3], [1.0], [1.0]])
    root = batch_roots(spec, disp)
    assert root.shape == disp.shape[:-1]
    np.testing.assert_array_equal(
        batch_value_changes(spec, disp, moves, weights, root),
        batch_value_changes(spec, disp, moves, weights), strict=True)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NonSmoothEvaluationWarning)
        np.testing.assert_array_equal(batch_gradients(spec, disp, weights, root),
                                      batch_gradients(spec, disp, weights), strict=True)


def test_roots_are_none_for_kinds_without_them():
    disp = np.ones((2, 3, 2))
    for spec in (PotentialSpec("squared"), PotentialSpec("p_norm"),
                 PotentialSpec("gaussian_well")):
        assert batch_roots(spec, disp) is None


@pytest.mark.parametrize("kind, kwargs", [
    ("euclidean", {}),
    ("weighted_euclidean", dict(weights=(2.5,))),
])
def test_smoothed_euclidean_value_is_inf_where_the_squared_norm_overflows(kind, kwargs):
    # r^2 / (sqrt(r^2 + eps^2) + eps) was inf / inf = nan once r^2 overflowed.
    obj = make_objective([[0.0, -2.0]], kind, **kwargs)
    assert obj.potential.epsilon > 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert obj.value([1e300, 1e300]) == np.inf
        # Finite values keep every bit of the formula.
        spec = PotentialSpec(kind, epsilon=1e-3, **kwargs)
        scale = np.array([1e-6, 1.0, 1e150])[:, None, None]
        disp = np.random.default_rng(3).normal(scale=scale, size=(3, 40, 2))
        r2 = np.einsum("...i,...i->...", disp, disp)
        weight = spec.weights[0] if spec.weights else 1.0
        expected = r2 / (np.sqrt(r2 + 1e-6) + 1e-3) * weight
        np.testing.assert_array_equal(batch_values(spec, disp), expected, strict=True)
