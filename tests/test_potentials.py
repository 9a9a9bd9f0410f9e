"""Potential values, analytic gradients, and their invariants."""

import math
import warnings
from decimal import MAX_EMAX, MIN_EMIN, Decimal, localcontext

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hst

from steiner import (ConfigError, InputError, NonSmoothEvaluationWarning, PotentialSpec,
                     potential_gradient, potential_value, trace_flow)

from steiner.critical_set import _negative_curvature
from steiner.potentials import (KINDS, _term_kernel, batch_gradients, batch_value_changes,
                                batch_values, kernel)
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


@pytest.mark.parametrize("d", [1, 2, 3])
def test_gaussian_hessian_matches_central_differences_of_the_gradient(d):
    # Column k of the Hessian is (g(x + h e_k) - g(x - h e_k)) / 2h up to
    # O(h^2). Random points, a well (an anchor) and a plateau point, where
    # every entry is below 1e-12.
    rng = np.random.default_rng(20 + d)
    obj = make_objective(rng.uniform(0.0, 4.0, size=(6, d)), kind="gaussian_well", sigma=0.8)
    points = np.concatenate([rng.uniform(-1.0, 5.0, size=(8, d)), obj.anchors.points[:1],
                             np.full((1, d), 9.0)])
    hessians = obj._per_row(obj._kernel.hessian, points)
    h = 1e-5
    columns = [(obj.gradient_many(points + h * e) - obj.gradient_many(points - h * e)) / (2 * h)
               for e in np.eye(d)]
    for hess, ref in zip(hessians, np.stack(columns, axis=-1)):
        assert np.abs(hess - ref).max() <= 1e-7 * np.abs(hess).max()
    assert 0.0 < np.abs(hessians[-1]).max() < 1e-12


def test_gaussian_hessian_is_finite_where_its_curvature_factor_is_not():
    # sigma = 1e-80: 4 phi'' = -(2 / sigma^2)^2 damp overflowed, though the
    # Hessian at 0, 2e160 (1 - 17 e^-9) from the anchors 0 and 3e-80, is finite.
    obj = make_objective([[0.0], [3e-80]], kind="gaussian_well", sigma=1e-80)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        hessian = obj._per_row(obj._kernel.hessian, np.array([[0.0]]))
        flags = _negative_curvature(obj, np.array([[0.0]]))
    assert hessian[0, 0, 0] == pytest.approx(2e160 * (1.0 - 17.0 * math.exp(-9.0)), rel=1e-12)
    assert flags.tolist() == [False]


def test_weighted_gradient_scales_by_anchor_weight():
    spec = PotentialSpec("weighted_euclidean", epsilon=0.0, weights=(2.0, 5.0))
    g = potential_gradient(spec, [3.0, 4.0], anchor_index=1)
    np.testing.assert_allclose(g, [3.0, 4.0], rtol=1e-15)


def _per_term(method, spec, disp, *args):
    """Each term's result alone, the kernel ``method`` of its one-term kernel
    on its one-anchor slice of ``disp``, stacked on the last axis."""
    return np.stack([getattr(_term_kernel(spec, i), method)(disp[..., i:i + 1], *args)
                     for i in range(disp.shape[-1])], axis=-1)


def test_batch_kernels_apply_the_spec_weights():
    # The weights of a weighted_euclidean spec scale its terms, as they do
    # potential_value's and an Objective's.
    spec = PotentialSpec("weighted_euclidean", epsilon=0.0, weights=(2.0,))
    np.testing.assert_array_equal(batch_values(spec, np.array([[3.0]])), 6.0, strict=True)
    weights = np.array([2.0, 5.0, 0.5])
    weighted = PotentialSpec("weighted_euclidean", epsilon=0.1, weights=tuple(weights))
    plain = PotentialSpec("euclidean", epsilon=0.1)
    disp = np.random.default_rng(5).normal(size=(4, 2, 3))
    move = np.random.default_rng(6).normal(size=(4, 2))
    np.testing.assert_array_equal(_per_term("values", weighted, disp),
                                  _per_term("values", plain, disp) * weights, strict=True)
    np.testing.assert_allclose(_per_term("gradient", weighted, disp),
                               _per_term("gradient", plain, disp) * weights, rtol=1e-15)
    np.testing.assert_array_equal(_per_term("changes", weighted, disp, move),
                                  _per_term("changes", plain, disp, move) * weights,
                                  strict=True)


@pytest.mark.parametrize("spec", [
    PotentialSpec("euclidean", epsilon=0.0),
    PotentialSpec("weighted_euclidean", epsilon=0.0, weights=(1.0,)),
    PotentialSpec("p_norm", p=1.5, epsilon=0.0),
])
def test_kink_gradient_warns_and_returns_zero(spec):
    with pytest.warns(NonSmoothEvaluationWarning):
        g = potential_gradient(spec, [0.0, 0.0])
    np.testing.assert_array_equal(g, [0.0, 0.0])


@pytest.mark.parametrize("kind, kwargs", [("euclidean", {}), ("p_norm", dict(p=1.5))])
def test_the_kink_warning_names_the_line_that_asked(kind, kwargs):
    # Each entry point reaches the kernels by its own path; the warning
    # points past all of them, at the caller's line.
    obj = make_objective([[0.0, 0.0], [4.0, 0.0]], kind, epsilon=0.0, **kwargs)
    spec = PotentialSpec(kind, epsilon=0.0, **kwargs)
    for call in (lambda: obj.gradient([0.0, 0.0]),
                 lambda: obj.gradient_many([[0.0, 0.0], [1.0, 1.0]]),
                 lambda: trace_flow(obj, [0.0, 0.0]),
                 lambda: potential_gradient(spec, [0.0, 0.0])):
        with pytest.warns(NonSmoothEvaluationWarning) as record:
            call()
        assert {(w.filename, w.lineno) for w in record} == {(__file__,
                                                            call.__code__.co_firstlineno)}


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
    # sigma^2 underflows to 0, or 2 / sigma^2 overflows, or sigma^2 does.
    (dict(kind="gaussian_well", sigma=1e-170), "sigma"),
    (dict(kind="gaussian_well", sigma=1.05e-154), "sigma"),
    (dict(kind="gaussian_well", sigma=1e160), "sigma"),
])
def test_invalid_specs_fail_at_construction(kwargs, field):
    with pytest.raises(ConfigError, match=field):
        PotentialSpec(**kwargs)


@pytest.mark.parametrize("sigma", [1.1e-154, 1e-100, 1e100, 1e154])
def test_well_widths_inside_the_float_range_are_accepted(sigma):
    spec = PotentialSpec("gaussian_well", sigma=sigma)
    assert np.isfinite(2.0 / (spec.sigma * spec.sigma))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert potential_value(spec, [sigma, 0.0]) == pytest.approx(-math.expm1(-1.0))


@pytest.mark.parametrize("call, error, message", [
    (lambda: potential_value(PotentialSpec("euclidean"), [[1.0, 2.0]]), InputError,
     "displacement: expected a non-empty 1-D"),
    (lambda: potential_gradient(PotentialSpec("euclidean"), [math.nan, 0.0]), InputError,
     "displacement: coordinates must be finite"),
    (lambda: potential_value(PotentialSpec("weighted_euclidean"), [1.0, 0.0]), ConfigError,
     "potential.weights: required for the weighted_euclidean kind"),
    pytest.param(lambda: kernel(PotentialSpec("weighted_euclidean")), ConfigError,
                 "potential.weights: required for the weighted_euclidean kind",
                 id="kernel-without-weights"),
    (lambda: potential_gradient(PotentialSpec("weighted_euclidean", weights=(1.0, 2.0)),
                                [1.0, 0.0], anchor_index=2), InputError,
     r"anchor_index: 2 outside \[0, 2\)"),
])
def test_single_term_arguments_are_checked(call, error, message):
    with pytest.raises(error, match=message):
        call()


def test_a_weighted_spec_requires_its_weights_when_built():
    with pytest.raises(ConfigError, match="potential.weights: required for the weighted"):
        PotentialSpec("weighted_euclidean", epsilon=0.1)


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


def test_weights_are_checked_as_one_array():
    given = [1, 2.5, 0.5]
    specs = [PotentialSpec("weighted_euclidean", weights=w)
             for w in (np.array(given), given, tuple(given))]
    assert specs[0] == specs[1] == specs[2]
    assert specs[0].weights == (1.0, 2.5, 0.5)
    for weights, message in [([], "must be non-empty when present"),
                             ([1.0, math.inf], "all entries must be finite and > 0"),
                             ([1.0, math.nan], "all entries must be finite and > 0"),
                             ([1.0, 0.0], "all entries must be finite and > 0"),
                             ([[1.0, 2.0]], "must be a flat list of numbers"),
                             ([[1.0], [2.0, 3.0]], "must be a flat list of numbers")]:
        with pytest.raises(ConfigError, match=f"^potential.weights: {message}$"):
            PotentialSpec("weighted_euclidean", weights=weights)


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
    # The descent carries r^2 and the roots of the gradient at x into the
    # line search's value changes; both must equal what the kernels compute
    # alone, and the roots those of the formula sqrt(|v|^2 + eps^2).
    spec = PotentialSpec(kind, epsilon=epsilon, **kwargs)
    weights = None if spec.weights is None else np.asarray(spec.weights)
    rng = np.random.default_rng(29)
    disp = rng.normal(scale=[[[1.0], [1e-8], [1e6]]], size=(5, 3, 7))
    disp[0, :, 0] = 0.0  # at its anchor: the kink; unmoved, a zero denominator at eps = 0
    moves = rng.normal(size=(5, 3)) * np.array([[0.0], [1e-12], [1e3], [1.0], [1.0]])
    kern = kernel(spec)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NonSmoothEvaluationWarning)
        # At c = 0.4, (5/3) (1 - c) is exactly 1: t_safe is 1/S.
        g, (r2, root, _), inv_s = kern.descent_state(disp, armijo_c=0.4)
        per_anchor = _per_term("gradient", spec, disp)
    assert root.shape == (5, 7)
    np.testing.assert_array_equal(
        root, np.sqrt(np.einsum("...dn,...dn->...n", disp, disp) + epsilon * epsilon),
        strict=True)
    dr2 = 2.0 * np.einsum("...dn,...d->...n", disp, moves) + np.vecdot(moves, moves)[:, None]
    carried = kern.change(r2, root, dr2)
    np.testing.assert_array_equal(
        (carried if weights is None else carried * weights).sum(axis=-1),
        batch_value_changes(spec, disp, moves), strict=True)
    # The gradient is one contraction with the slopes w / root, 0 at the kink.
    slope = np.divide(1.0, root, out=np.zeros_like(root), where=root != 0.0)
    if weights is not None:
        slope = slope * weights
    np.testing.assert_array_equal(per_anchor, disp * slope[:, None, :], strict=True)
    np.testing.assert_array_equal(g, np.einsum("...dn,...n->...d", disp, slope), strict=True)
    # 1/S, S the sum of those slopes, sets the line search's guaranteed step.
    np.testing.assert_array_equal(inv_s, 1.0 / slope.sum(axis=-1), strict=True)


# Every kind over six anchors, weighted and at eps = 0 too, with weights that
# take the terms past the float range.
STATE_SPECS = [
    PotentialSpec("euclidean", epsilon=1e-3),
    PotentialSpec("euclidean", epsilon=0.0),
    PotentialSpec("weighted_euclidean", epsilon=1e-3, weights=tuple(np.geomspace(1e-3, 1e300, 6))),
    PotentialSpec("weighted_euclidean", epsilon=0.0, weights=(0.5, 2.0, 3.0, 1e308, 7.0, 1.0)),
    PotentialSpec("squared"),
    PotentialSpec("gaussian_well", sigma=1.3),
    PotentialSpec("p_norm", p=2.0, epsilon=1e-3),
    PotentialSpec("p_norm", p=3.5, epsilon=0.0),
]
STATE_IDS = ["euclidean", "euclidean-eps0", "weighted", "weighted-eps0", "squared",
             "gaussian_well", "p_norm", "p_norm-eps0"]


def _state_displacements():
    """Rows of 3-D displacements to six anchors: ordinary, subnormal, near
    1e300, and ordinary with zeros, one at an anchor and one whole row."""
    scale = np.array([1.0, 1e-310, 1e300, 5e-324, 1.0, 1.0])[:, None, None]
    disp = np.random.default_rng(31).normal(size=(6, 3, 6)) * scale
    disp[4, :, 0] = 0.0
    disp[5] = 0.0
    return disp


@pytest.mark.parametrize("spec", STATE_SPECS, ids=STATE_IDS)
def test_values_at_the_descent_state_equal_the_values(spec):
    # The tracer takes U at its starts from the state their gradient leaves:
    # the same bits as the values from the displacements, row by row.
    kern, disp = kernel(spec), _state_displacements()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NonSmoothEvaluationWarning)
        block = kern.descent_state(disp, armijo_c=0.25)[1]
        rows = [kern.descent_state(disp[k:k + 1])[1] for k in range(len(disp))]
    expected = kern.values(disp)
    np.testing.assert_array_equal(kern.values_at(block), expected, strict=True)
    np.testing.assert_array_equal(np.concatenate([kern.values_at(state) for state in rows]),
                                  expected, strict=True)


@pytest.mark.parametrize("spec", STATE_SPECS, ids=STATE_IDS)
def test_the_gradient_alone_equals_the_descent_state_gradient(spec):
    kern, disp = kernel(spec), _state_displacements()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NonSmoothEvaluationWarning)
        g = kern.descent_state(disp, armijo_c=0.25)[0]
        np.testing.assert_array_equal(kern.gradient(disp), g, strict=True)


@pytest.mark.parametrize("kind, kwargs", [
    ("euclidean", {}), ("squared", {}), ("gaussian_well", dict(sigma=3.0)),
    ("p_norm", dict(p=3.0)), ("weighted_euclidean", dict(weights=(1.0, 2.0, 1e300, 0.5, 3.0))),
])
def test_objective_values_at_a_spanned_descent_state_equal_value_many(kind, kwargs):
    # With kernel spans of one row, the state is joined from five kernel calls.
    rng = np.random.default_rng(8)
    obj = make_objective(rng.normal(size=(5, 3)), kind, **kwargs)
    object.__setattr__(obj, "block_rows", 1)
    points = rng.normal(scale=[[1.0], [1e3], [1e150], [1e200], [1.0]], size=(5, 3))
    state = obj._descent_state(points, 0.25)[1]
    np.testing.assert_array_equal(obj._kernel.values_at(state), obj.value_many(points),
                                  strict=True)
    np.testing.assert_array_equal(obj._descent_state(points)[0], obj.gradient_many(points),
                                  strict=True)


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
        disp = np.random.default_rng(3).normal(scale=scale, size=(3, 2, 40))
        r2 = np.einsum("...dn,...dn->...n", disp, disp)
        weights = np.asarray(spec.weights or (1.0,))
        expected = r2 / (np.sqrt(r2 + 1e-6) + 1e-3) * weights
        np.testing.assert_array_equal(kernel(spec).value(r2) * weights, expected, strict=True)
        np.testing.assert_array_equal(batch_values(spec, disp), expected.sum(axis=-1),
                                      strict=True)


def test_p_norm_far_from_the_anchor_is_finite_and_right():
    # The power sum sum_k (v_k^2 + eps^2)^(p/2) overflows at these points,
    # though the norm and the gradient are finite.
    obj = make_objective([[0.0, -2.0]], "p_norm", p=3.0)
    cases = [([1e103, 1e103], 2 ** (1 / 3) * 1e103, [2 ** (-2 / 3)] * 2),
             ([1e300, 1e300], 2 ** (1 / 3) * 1e300, [2 ** (-2 / 3)] * 2),
             ([1e160, 0.0], 1e160, [1.0, 0.0])]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for point, value, grad in cases:
            assert obj.value(point) == pytest.approx(value, rel=1e-14)
            np.testing.assert_allclose(obj.gradient(point), grad, rtol=1e-14, atol=1e-300)
        # The value change was nan there: both power chains overflowed.
        change = obj.value_change([1e103, 1e103], [-1e100, -1e100])
        assert change == pytest.approx(-(2 ** (1 / 3)) * 1e100, rel=1e-13)
        # Far below one ulp of U, where a difference of values reads 0.
        change = obj.value_change([1e103, 1e103], [-1.0, -1.0])
        assert change == pytest.approx(-(2 ** (1 / 3)), rel=1e-13)
        # Across magnitudes, where the power sums of (v_k^2 + eps^2)^(p/2)
        # overflow and where they do not, all three are finite. The (400, 5, 2)
        # draw is laid out (rows, D, n).
        spec = PotentialSpec("p_norm", p=3.0, epsilon=1e-3)
        rng = np.random.default_rng(4)
        size = 10.0 ** rng.uniform(-8, 200, size=(400, 1, 1))
        disp = np.swapaxes(rng.normal(size=(400, 5, 2)) * size, -1, -2)
        moves = rng.normal(size=(400, 2)) * size[:, 0] * rng.choice([1e-9, 1.0], size=(400, 1))
        new = disp + moves[..., None]
        with np.errstate(over="ignore"):
            s = np.power(disp * disp + 1e-6, 1.5).sum(axis=-2)
            sn = np.power(new * new + 1e-6, 1.5).sum(axis=-2)
        plain = np.isfinite(s)
        assert 0 < plain.sum() < plain.size
        values, grads = _per_term("values", spec, disp), _per_term("gradient", spec, disp)
        changes = _per_term("changes", spec, disp, moves)
        assert np.isfinite(values).all() and np.isfinite(grads).all()
        assert np.isfinite(changes).all()
        plain &= np.isfinite(sn)
        # The far ones agree with the difference of the (far-field) values to
        # its roundoff, a few ulps of the larger value.
        far = ~plain
        after = _per_term("values", spec, new)
        np.testing.assert_array_less(np.abs(changes - (after - values))[far],
                                     4.0 * np.finfo(float).eps * np.maximum(after, values)[far])
        # Up to the float maximum, where the power of two that rescales the
        # power sums would itself overflow (the change was nan here): all three
        # are finite wherever the true ones are, and a move of -v/2 changes U
        # by -U(v)/2.
        for p in (1.0, 3.0):
            near_max = make_objective([[0.0, -2.0]], "p_norm", p=p)
            for point in ([1.5e308, 0.0], [9e307, 9e307]):
                v = np.array(point) - [0.0, -2.0]
                with localcontext() as ctx:
                    ctx.prec = 60
                    norm = sum(Decimal(x) ** Decimal(p) for x in v.tolist()) ** (1 / Decimal(p))
                    grad = [float((Decimal(x) / norm) ** Decimal(p - 1)) for x in v.tolist()]
                value = near_max.value(point)
                if norm < Decimal(np.finfo(float).max):
                    assert value == pytest.approx(float(norm), rel=1e-14)
                else:
                    assert value == np.inf
                np.testing.assert_allclose(near_max.gradient(point), grad, rtol=1e-14)
                for move in ([-1e300, -1e300], [-1.0, -1.0]):
                    assert np.isfinite(near_max.value_change(point, move))
                assert near_max.value_change(point, -v / 2) == pytest.approx(
                    float(-norm / 2), rel=1e-13)
        # Normalised by its largest term the far power sum holds for every p,
        # also past p = 1 074, where 2^-p underflows, and a coordinate whose
        # square underflows keeps its gradient component.
        spec = PotentialSpec("p_norm", p=5000.0, epsilon=0.0)
        assert potential_value(spec, [10.0, 0.0]) == 10.0
        assert potential_value(spec, [10.0, 3.0]) == 10.0
        np.testing.assert_array_equal(potential_gradient(spec, [10.0, 3.0]), [1.0, 0.0])
        spec = PotentialSpec("p_norm", p=1.0, epsilon=0.0)
        np.testing.assert_array_equal(potential_gradient(spec, [1e200, 1e-170]), [1.0, 1.0])


def test_p_norm_is_right_where_a_power_underflows():
    # Each of these read wrong while a power (v_k^2 + eps^2)^(p/2), or 0.5^p
    # after a power-of-two rescale, underflowed.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        spec = PotentialSpec("p_norm", p=100.0, epsilon=1e-9)
        assert potential_value(spec, [1e-4, 0.0]) == pytest.approx(9.99989930e-05, rel=1e-9)
        assert potential_value(spec, [1e-4, 0.0]) == pytest.approx(
            _p_norm_exact(100.0, 1e-9, np.array([1e-4, 0.0]), np.zeros(2))[0], rel=1e-14)
        np.testing.assert_allclose(potential_gradient(spec, [1e-4, 0.0]), [1.0, 0.0], rtol=1e-9)
        obj = make_objective([[0.0, 0.0], [4.0, 0.0], [0.0, 3.0]], "p_norm", p=100.0)
        np.testing.assert_allclose(obj.gradient([1e-4, 0.0]), [-1.25e-9, -1.0], rtol=1e-6)
        for p in (1500.0, 5000.0):
            spec = PotentialSpec("p_norm", p=p, epsilon=0.0)
            change = batch_value_changes(spec, np.array([[10.0], [0.0]]), np.array([-1.0, 0.0]))
            assert change.tolist() == pytest.approx(-1.0, rel=1e-14)
        assert potential_value(PotentialSpec("p_norm", p=8.0, epsilon=0.0), [1e-50, 0.0]) == 1e-50
        spec = PotentialSpec("p_norm", p=1.0, epsilon=0.0)
        np.testing.assert_array_equal(potential_gradient(spec, [1.0, 1e-170]), [1.0, 1.0])
    # Exactly at the anchor without smoothing it still warns and returns 0.
    for p in (1.0, 100.0):
        spec = PotentialSpec("p_norm", p=p, epsilon=0.0)
        with pytest.warns(NonSmoothEvaluationWarning):
            np.testing.assert_array_equal(potential_gradient(spec, [0.0, 0.0]), [0.0, 0.0])
        assert potential_value(spec, [0.0, 0.0]) == 0.0


# The accuracy of the radial kinds' value changes, against 50-digit decimal
# arithmetic on the same float inputs. A change is formed from r^2 = |v|^2 and
# dr^2 = |v + m|^2 - |v|^2, so its error has two sources, each a few ulps
# times a conditioning factor:
#   - dr^2 = 2 v.m + |m|^2 is off by ~ulp |m| (2|v| + |m|), which the change
#     scales by the divided difference q = Delta / dr^2: relative to Delta
#     that is c = |m| (2|v| + |m|) / |dr^2| >= 1, near 1 unless the move
#     nearly keeps the distance to the anchor;
#   - r^2 + dr^2 is off by ~ulp (|v| + |m|)^2, which the euclidean kinds
#     scale to |v| / max(|v + m|, eps) (floored at sqrt(ulp) |v|, where the
#     landing distance rounds away) and gaussian_well, through exp, to
#     (|v| + |m|)^2 / sigma^2; squared has no such term.
# So |error| <= K ulp (c + a) |Delta|, with a the kind's second factor, plus
# K subnormal ulps where Delta underflows. For gaussian_well that holds while
# ulp a is small, that is while |v| + |m| is below about 10^7 sigma; beyond,
# the rounding of r^2 + dr^2 moves the exponent by more than 1/100, and a
# term's change is bounded only by its range, [-w, w].
CHANGE_ERROR_K = 8.0
_ULP = np.finfo(float).eps
RADIAL_KINDS = ("euclidean", "weighted_euclidean", "squared", "gaussian_well")


def _expm1_over_x(x):
    """(exp(x) - 1) / x in decimal, 1 at x = 0."""
    if abs(x) >= Decimal("0.1"):
        return (x.exp() - 1) / x
    term = total = Decimal(1)
    k = 1
    while abs(term) > Decimal("1e-60"):
        k += 1
        term = term * x / k
        total += term
    return total


def _exact_change(spec, weight, v, m):
    """(Delta, q, a) of one term: its change, Delta / dr^2, and the kind's factor a."""
    with localcontext() as ctx:
        ctx.prec = 50
        vd, md = [Decimal(x) for x in v.tolist()], [Decimal(x) for x in m.tolist()]
        r2 = sum(x * x for x in vd)
        new2 = sum((x + y) * (x + y) for x, y in zip(vd, md))
        dr2 = sum((2 * x + y) * y for x, y in zip(vd, md))
        w = Decimal(weight)
        if spec.kind == "squared":
            q, a = w, 0.0
        elif spec.kind == "gaussian_well":
            s2 = Decimal(spec.sigma) ** 2
            damp = (-r2 / s2).exp()
            if abs(dr2 / s2) < Decimal("0.1"):
                q = w * damp * _expm1_over_x(-dr2 / s2) / s2
            else:
                q = w * (damp - (-new2 / s2).exp()) / dr2
            a = float((r2.sqrt() + sum(y * y for y in md).sqrt()) ** 2 / s2)
        else:
            e2 = Decimal(spec.epsilon) ** 2
            root_sum = (new2 + e2).sqrt() + (r2 + e2).sqrt()
            q = w / root_sum if root_sum else Decimal(0)  # 0 only for v = m = 0, eps = 0
            landing = max(float(new2.sqrt()), spec.epsilon, math.sqrt(_ULP) * float(r2.sqrt()))
            a = float(r2.sqrt()) / landing if landing > 0.0 else 0.0
        return float(q * dr2), float(abs(q)), a


@hst.composite
def _radial_moves(draw):
    """A radial kind, displacements v (D, n) over many magnitudes, and a move m
    that is free or lands on or near one anchor from far away."""
    kind = draw(hst.sampled_from(RADIAL_KINDS))
    d, n = draw(hst.integers(1, 4)), draw(hst.integers(1, 4))
    # Coordinates are 0 or of magnitude 1e-90 to 1e60, so that no square
    # under- or overflows: there r^2 itself is lost, for every formula.
    unit = hst.just(0.0) | hst.floats(1e-30, 1.0).flatmap(lambda x: hst.sampled_from([x, -x]))
    magnitude = hst.integers(-60, 60).map(lambda k: 10.0 ** k)
    disp = np.array(draw(hst.lists(unit, min_size=d * n, max_size=d * n))).reshape(d, n)
    disp *= np.array(draw(hst.lists(magnitude, min_size=n, max_size=n)))
    kwargs = {}
    if kind in ("euclidean", "weighted_euclidean"):
        kwargs["epsilon"] = draw(hst.sampled_from([0.0]) | hst.integers(-70, 60).map(
            lambda k: 10.0 ** k))
    if kind == "weighted_euclidean":
        kwargs["weights"] = tuple(draw(hst.lists(hst.floats(0.1, 10.0), min_size=n,
                                                 max_size=n)))
    if kind == "gaussian_well":
        kwargs["sigma"] = draw(magnitude)
    target = draw(hst.none() | hst.integers(0, n - 1))
    if target is None:
        move = np.array(draw(hst.lists(unit, min_size=d, max_size=d))) * draw(magnitude)
    else:
        offset = draw(hst.sampled_from([0.0]) | hst.integers(-16, -1).map(lambda k: 10.0 ** k))
        jitter = np.array(draw(hst.lists(unit, min_size=d, max_size=d)))
        move = -disp[:, target] * (1.0 + offset * jitter)
    return PotentialSpec(kind, **kwargs), disp, move


# A step onto an unsmoothed anchor whose r^2 + dr^2 rounds to -7.3e-12.
_LANDING = np.array([[-39.57785651047325], [191.8669391406884], [31.427471185977133],
                     [-160.48346033466203]])


@settings(max_examples=400, deadline=None, derandomize=True)
@given(case=_radial_moves(), line_search=hst.booleans(), t_exponent=hst.integers(-30, 30))
@example(case=(PotentialSpec("euclidean", epsilon=0.0), _LANDING, -_LANDING[:, 0]),
         line_search=False, t_exponent=1)
@example(case=(PotentialSpec("euclidean", epsilon=0.0), _LANDING, -_LANDING[:, 0]),
         line_search=True, t_exponent=1)
def test_radial_value_change_accuracy_property(case, line_search, t_exponent):
    spec, disp, move = case
    # The line-search form takes x - t g from r^2, the carry and 2 p_i = 2 g.v,
    # with t a power of two so that -t g is exactly ``move``.
    t = 2.0 ** t_exponent
    g = -move / t
    gn = np.sqrt(np.vecdot(g, g))
    gsq = np.array([gn * gn])
    for i in range(disp.shape[1]):
        # Each term alone, by its kernel on its one-anchor slice of ``disp``.
        kern, v = _term_kernel(spec, i), disp[:, i]
        if line_search:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", NonSmoothEvaluationWarning)
                _, (r2, carry, _), _ = kern.descent_state(v[None, :, None])
            proj2 = 2.0 * np.einsum("...dn,...d->...n", v[None, :, None], g[None])
            got = kern.trials([r2, carry, proj2], np.array([t]), gsq)[0]
        else:
            got = kern.changes(v[:, None], move)
        weight = 1.0 if spec.weights is None else spec.weights[i]
        delta, q, a = _exact_change(spec, weight, v, move)
        if spec.kind == "gaussian_well" and _ULP * a > 1e-2:
            assert abs(got - delta) <= weight
            continue
        scale = np.linalg.norm(move) * (2.0 * np.linalg.norm(v) + np.linalg.norm(move))
        bound = CHANGE_ERROR_K * (_ULP * (scale * q + a * abs(delta)) + 5e-324)
        assert abs(got - delta) <= bound, (i, got, delta, q, a)


# The p_norm kernel against 80-digit decimal arithmetic. It takes every term
# from r_k = hypot(v_k, eps) over R = max_k r_k, and q_k^p carries p times
# the rounding of q_k, so each bound has (p + 1) ulps where the radial ones
# have 1. A change sums the changes Delta_k of the coordinates' powers, each
# as conditioned as 2 v_k m_k + m_k^2 is (c), and their sum can cancel
# (kappa).
def _log1p(x):
    """log(1 + x) in decimal, free of cancellation for small x."""
    if abs(x) >= Decimal("0.1"):
        return (1 + x).ln()
    term = total = x
    k = 1
    while abs(term) > Decimal("1e-60") * abs(total):
        k += 1
        term = -term * x
        total += term / k
    return total


def _p_norm_exact(p, eps, v, m):
    """U(v), N(v), grad U(v), N(v + m) - N(v), kappa |N(v + m) - N(v)| and c of
    one p_norm term. kappa |Delta N| is sum_k |Delta_k| |Delta N / Delta S|, its
    limit sum_k |Delta_k| S^(1/p-1) / p where the Delta_k cancel exactly."""
    with localcontext() as ctx:
        ctx.prec, ctx.Emax, ctx.Emin = 80, MAX_EMAX, MIN_EMIN
        pd, e2 = Decimal(p), Decimal(eps) ** 2
        vd, md = [Decimal(x) for x in v.tolist()], [Decimal(x) for x in m.tolist()]
        r2 = [x * x + e2 for x in vd]
        d2 = [(2 * x + y) * y for x, y in zip(vd, md)]  # r_k'^2 - r_k^2
        power = [a ** (pd / 2) if a else Decimal(0) for a in r2]
        landing = [((x + y) ** 2 + e2) ** (pd / 2) if x + y or e2 else Decimal(0)
                   for x, y in zip(vd, md)]
        deltas = []
        for a, b, start, end in zip(r2, d2, power, landing):
            step = pd / 2 * _log1p(b / a) if a and b / a > -1 else None
            small = step is not None and abs(step) < 1
            deltas.append(start * step * _expm1_over_x(step) if small else end - start)
        s, ds = sum(power), sum(deltas)
        norm = s ** (1 / pd) if s else Decimal(0)
        grad = [(a.sqrt() / norm) ** (pd - 1) * x / a.sqrt() if a else Decimal(0)
                for a, x in zip(r2, vd)]
        if s and abs(ds / s) < Decimal("0.5"):
            step = _log1p(ds / s) / pd
            change = norm * step * _expm1_over_x(step)
        else:
            change = sum(landing) ** (1 / pd) - norm
        slope = abs(change / ds) if ds else s ** (1 / pd - 1) / pd if s else Decimal(0)
        spread = sum(abs(x) for x in deltas) * slope
        c = max(abs(y) * (2 * abs(x) + abs(y)) / abs(b) if y else Decimal(1)
                for x, y, b in zip(vd, md, d2))
        value = max(norm - Decimal(len(vd)) ** (1 / pd) * Decimal(eps), Decimal(0))
        return (float(value), float(norm), np.array([float(x) for x in grad]), float(change),
                float(spread), float(c))


@hst.composite
def _p_norm_moves(draw):
    """p in [1, 1e4], a displacement v of D <= 3 coordinates at a scale
    10^k, |k| <= 300, some of them 0, eps 0 or 1e-9, 1e-3 or 1e3 times that
    scale, and a move of 1e-12 to 1 times |v| along every coordinate."""
    p = draw(hst.floats(0.0, 4.0).map(lambda k: 10.0 ** k))
    d = draw(hst.integers(1, 3))
    signed = hst.floats(1e-20, 1.0).flatmap(lambda x: hst.sampled_from([x, -x]))
    unit = np.array(draw(hst.lists(hst.just(0.0) | signed, min_size=d, max_size=d)))
    direction = np.array(draw(hst.lists(signed, min_size=d, max_size=d)))
    scale = 10.0 ** draw(hst.integers(-280, 300))
    eps = draw(hst.sampled_from([0.0, 1e-9, 1e-3, 1e3])) * scale
    size = 10.0 ** draw(hst.floats(-12.0, 0.0)) * np.linalg.norm(unit)
    move = direction / np.linalg.norm(direction) * size * scale
    return p, eps, unit * scale, move


@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=_p_norm_moves())
@example(case=(5000.0, 0.0, np.array([10.0, 0.0]), np.array([-1.0, 1e-300])))
@example(case=(1.0, 0.0, np.array([1.0, 1e-170]), np.array([-1e-12, 1e-180])))
@example(case=(1.0, 0.0, np.array([-7.53682164e-273, 0.0]), np.array([1.29684721e-276] * 2)))
def test_p_norm_accuracy_property(case):
    p, eps, v, m = case
    spec = PotentialSpec("p_norm", p=p, epsilon=eps)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        warnings.simplefilter("ignore", NonSmoothEvaluationWarning)  # at v = 0, eps = 0
        value = batch_values(spec, v[:, None])
        grad = batch_gradients(spec, v[:, None])
        change = batch_value_changes(spec, v[:, None], m)
    exact, norm, exact_grad, exact_change, spread, c = _p_norm_exact(p, eps, v, m)
    units = CHANGE_ERROR_K * (p + 1.0) * _ULP
    assert abs(value - exact) <= units * norm, (value, exact)
    assert np.abs(grad - exact_grad).max() <= units * np.abs(exact_grad).max(), (grad, exact_grad)
    bound = units * spread * c + CHANGE_ERROR_K * 5e-324
    assert abs(change - exact_change) <= bound, (change, exact_change, spread, c)


@hst.composite
def _kernel_cases(draw):
    """A spec of any kind, weights up to 1e308 and eps = 0 included, rows of
    displacements to several anchors with zero, subnormal, ordinary and ~1e300
    coordinates, and a move and a trial multiplier per row."""
    kind = draw(hst.sampled_from(KINDS))
    rows, d, n = draw(hst.integers(1, 3)), draw(hst.integers(1, 3)), draw(hst.integers(2, 5))
    magnitude = hst.sampled_from([0.0, 5e-324, 1e-310, 1e-3, 1.0, 1e3, 1e300])
    coord = hst.tuples(magnitude, hst.floats(-1.0, 1.0)).map(lambda mx: mx[0] * mx[1])
    disp = np.array(draw(hst.lists(coord, min_size=rows * d * n, max_size=rows * d * n)))
    move = np.array(draw(hst.lists(coord, min_size=rows * d, max_size=rows * d)))
    t = np.array(draw(hst.lists(hst.floats(1e-12, 1e3), min_size=rows, max_size=rows)))
    kwargs = {}
    if kind in ("euclidean", "weighted_euclidean", "p_norm"):
        kwargs["epsilon"] = draw(hst.sampled_from([0.0, 1e-9, 0.5]))
    if kind == "weighted_euclidean":
        weight = hst.sampled_from([1e300, 1e308]) | hst.floats(0.1, 10.0)
        kwargs["weights"] = tuple(draw(hst.lists(weight, min_size=n, max_size=n)))
    if kind == "p_norm":
        kwargs["p"] = draw(hst.sampled_from([1.0, 1.5, 2.0, 3.0, 100.0]))
    if kind == "gaussian_well":
        kwargs["sigma"] = draw(hst.sampled_from([1e-3, 1.3, 1e100]))
    return PotentialSpec(kind, **kwargs), disp.reshape(rows, d, n), move.reshape(rows, d), t


@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=_kernel_cases())
def test_kernels_sum_their_terms_property(case):
    # A kernel's per-row totals add up its terms, each the one-term kernel's
    # on its one-anchor slice: values, changes and trials bit for bit, as
    # .sum(axis=-1) adds them; the gradient, a contraction over the anchors,
    # within n ulps of the sum of the terms' magnitudes.
    spec, disp, move, t = case
    kern, n = kernel(spec), disp.shape[-1]
    with warnings.catch_warnings(), np.errstate(all="ignore"):
        warnings.simplefilter("ignore", NonSmoothEvaluationWarning)
        g, state, _ = kern.descent_state(disp)
        gn = np.sqrt(np.vecdot(g, g))
        gsq = gn * gn
        totals = [kern.values(disp), kern.changes(disp, move), kern.trials(state, t, gsq)]
        terms = [[] for _ in range(4)]
        for i in range(n):
            term, v = _term_kernel(spec, i), disp[..., i:i + 1]
            # Anchor i's part of the state; p_norm's last entry, g, is shared.
            part = [None if a is None else a[..., i:i + 1] for a in state]
            if spec.kind == "p_norm":
                part[-1] = g
            for column, result in zip(terms, (term.values(v), term.changes(v, move),
                                              term.trials(part, t, gsq), term.gradient(v))):
                column.append(result)
        terms = [np.stack(column, axis=-1) for column in terms]
        for total, column in zip(totals, terms):
            np.testing.assert_array_equal(total, column.sum(axis=-1), strict=True)
        gradient, grads = kern.gradient(disp), terms[3]
        magnitude = np.abs(grads).sum(axis=-1)
    np.testing.assert_array_equal(gradient, g, strict=True)
    finite = np.isfinite(magnitude)
    exact = np.array([math.fsum(grads[k, j]) if finite[k, j] else 0.0
                      for k, j in np.ndindex(finite.shape)]).reshape(finite.shape)
    error = np.abs(gradient - exact)[finite]
    assert (error <= n * np.spacing(magnitude[finite])).all(), (error, magnitude[finite])


def test_gaussian_change_far_out_lands_by_the_moved_radius():
    # |v| and |m| are about 1.75e25 sigma and |v + m| still 4.8e12 sigma, so
    # the term starts and ends on its plateau: the change is 0. r^2 + dr^2
    # rounds to 0 or below instead, which lands the term on its anchor, -1.
    spec = PotentialSpec("gaussian_well", sigma=1e-39)
    v, m = -1.7532702955138192e-14, 1.75327029551334e-14
    assert batch_value_changes(spec, np.array([[v]]), np.array([m])).tolist() == 0.0
    obj = make_objective([[0.0]], "gaussian_well", sigma=1e-39)
    assert obj.value_change([v], [m]) == 0.0
    assert obj.value_change_many([[v]], [[m]]).tolist() == [0.0]
