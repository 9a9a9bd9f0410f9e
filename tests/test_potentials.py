"""Potential values, analytic gradients, and their invariants."""

import math
import warnings
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hst

from steiner import (ConfigError, InputError, NonSmoothEvaluationWarning, PotentialSpec,
                     potential_gradient, potential_value)

from steiner.potentials import batch_gradients, batch_value_changes, batch_values, kernel
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
    (lambda: potential_gradient(PotentialSpec("weighted_euclidean", weights=(1.0, 2.0)),
                                [1.0, 0.0], anchor_index=2), InputError,
     r"anchor_index: 2 outside \[0, 2\)"),
])
def test_single_term_arguments_are_checked(call, error, message):
    with pytest.raises(error, match=message):
        call()


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
    # The descent carries r^2 and the roots of the gradient at x into the
    # line search's value changes; both must equal what the kernels compute
    # alone, and the roots those of the formula sqrt(|v|^2 + eps^2).
    spec = PotentialSpec(kind, epsilon=epsilon, **kwargs)
    weights = None if spec.weights is None else np.asarray(spec.weights)
    rng = np.random.default_rng(29)
    disp = rng.normal(scale=[[[1.0], [1e-8], [1e6]]], size=(5, 3, 7))
    disp[0, :, 0] = 0.0  # at its anchor: the kink; unmoved, a zero denominator at eps = 0
    moves = rng.normal(size=(5, 3)) * np.array([[0.0], [1e-12], [1e3], [1.0], [1.0]])
    kern = kernel(spec, weights)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NonSmoothEvaluationWarning)
        g, (r2, root, _) = kern.descent_state(disp)
        per_anchor = batch_gradients(spec, disp, weights)
        total = kern.gradient(disp)
    assert root.shape == (5, 7)
    np.testing.assert_array_equal(
        root, np.sqrt(np.einsum("...dn,...dn->...n", disp, disp) + epsilon * epsilon),
        strict=True)
    dr2 = 2.0 * np.einsum("...dn,...d->...n", disp, moves) + np.vecdot(moves, moves)[:, None]
    carried = kern.change(r2, root, dr2)
    np.testing.assert_array_equal(
        carried if weights is None else carried * weights,
        batch_value_changes(spec, disp, moves, weights), strict=True)
    # The gradient is one contraction with the slopes w / root, 0 at the kink.
    slope = np.divide(1.0, root, out=np.zeros_like(root), where=root != 0.0)
    if weights is not None:
        slope = slope * weights
    np.testing.assert_array_equal(per_anchor, disp * slope[:, None, :], strict=True)
    np.testing.assert_array_equal(g, np.einsum("...dn,...n->...d", disp, slope), strict=True)
    np.testing.assert_array_equal(total, g, strict=True)


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
        np.testing.assert_array_equal(batch_values(spec, disp, weights), expected, strict=True)


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
        # Wherever the power sums are finite, all three keep every bit of the
        # formula. The (400, 5, 2) draw is laid out (rows, D, n).
        spec = PotentialSpec("p_norm", p=3.0, epsilon=1e-3)
        rng = np.random.default_rng(4)
        size = 10.0 ** rng.uniform(-8, 200, size=(400, 1, 1))
        disp = np.swapaxes(rng.normal(size=(400, 5, 2)) * size, -1, -2)
        moves = rng.normal(size=(400, 2)) * size[:, 0] * rng.choice([1e-9, 1.0], size=(400, 1))
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            t = disp * disp + 1e-6
            s = np.power(t, 1.5).sum(axis=-2)
            value = np.maximum(np.power(s, 1.0 / 3.0) - 2 ** (1.0 / 3.0) * 1e-3, 0.0)
            grad = np.power(s, 1.0 / 3.0 - 1.0)[..., None, :] * np.power(t, 0.5) * disp
            new = disp + moves[..., None]
            tn = new * new + 1e-6
            sn = np.power(tn, 1.5).sum(axis=-2)
            ratio = np.maximum((2.0 * disp * moves[..., None] + moves[..., None] ** 2) / t, -1.0)
            dpow = np.where((t > 0.0) & (np.abs(ratio) < 0.5),
                            np.power(t, 1.5) * np.expm1(1.5 * np.log1p(ratio)),
                            np.power(tn, 1.5) - np.power(t, 1.5))
            sratio = np.maximum(dpow.sum(axis=-2) / s, -1.0)
            change = np.where((s > 0.0) & (np.abs(sratio) < 0.5),
                              np.power(s, 1.0 / 3.0) * np.expm1(np.log1p(sratio) / 3.0),
                              np.power(sn, 1.0 / 3.0) - np.power(s, 1.0 / 3.0))
        plain = np.isfinite(s)
        assert 0 < plain.sum() < plain.size
        values, grads = batch_values(spec, disp), batch_gradients(spec, disp)
        changes = batch_value_changes(spec, disp, moves)
        assert np.isfinite(values).all() and np.isfinite(grads).all()
        assert np.isfinite(changes).all()
        np.testing.assert_array_equal(values[plain], value[plain])
        np.testing.assert_array_equal(np.moveaxis(grads, -2, -1)[plain],
                                      np.moveaxis(grad, -2, -1)[plain])
        plain &= np.isfinite(sn)
        np.testing.assert_array_equal(changes[plain], change[plain])
        # The far ones agree with the difference of the (far-field) values to
        # its roundoff, a few ulps of the larger value.
        far = ~plain
        after = batch_values(spec, new)
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
    weights = None if spec.weights is None else np.asarray(spec.weights)
    if line_search:
        # The line-search form: x - t g from r^2, the carry and 2 p_i = 2 g.v,
        # with t a power of two so that -t g is exactly ``move``.
        t = 2.0 ** t_exponent
        g = -move / t
        kern = kernel(spec, weights)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", NonSmoothEvaluationWarning)
            _, (r2, carry, _) = kern.descent_state(disp[None])
        proj2 = 2.0 * np.einsum("...dn,...d->...n", disp[None], g[None])
        gn = np.sqrt(np.vecdot(g, g))
        got = kern.trials([r2, carry, proj2], np.array([t]), np.array([gn * gn]))[0]
    else:
        got = batch_value_changes(spec, disp, move, weights)
    for i in range(disp.shape[1]):
        v = disp[:, i]
        weight = 1.0 if weights is None else weights[i]
        delta, q, a = _exact_change(spec, weight, v, move)
        if spec.kind == "gaussian_well" and _ULP * a > 1e-2:
            assert abs(got[i] - delta) <= weight
            continue
        scale = np.linalg.norm(move) * (2.0 * np.linalg.norm(v) + np.linalg.norm(move))
        bound = CHANGE_ERROR_K * (_ULP * (scale * q + a * abs(delta)) + 5e-324)
        assert abs(got[i] - delta) <= bound, (i, got[i], delta, q, a)


def test_gaussian_change_far_out_lands_by_the_moved_radius():
    # |v| and |m| are about 1.75e25 sigma and |v + m| still 4.8e12 sigma, so
    # the term starts and ends on its plateau: the change is 0. r^2 + dr^2
    # rounds to 0 or below instead, which lands the term on its anchor, -1.
    spec = PotentialSpec("gaussian_well", sigma=1e-39)
    v, m = -1.7532702955138192e-14, 1.75327029551334e-14
    assert batch_value_changes(spec, np.array([[v]]), np.array([m])).tolist() == [0.0]
    obj = make_objective([[0.0]], "gaussian_well", sigma=1e-39)
    assert obj.value_change([v], [m]) == 0.0
    assert obj.value_change_many([[v]], [[m]]).tolist() == [0.0]
