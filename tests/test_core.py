"""Objective evaluation, analytic gradients, and the finite-difference check."""

import math
import warnings
from decimal import Decimal, localcontext

import numpy as np
import pytest

from steiner import (AnchorSet, InputError, Objective, PotentialSpec,
                     finite_difference_gradient, gradient, max_relative_gradient_error,
                     objective_value, weiszfeld)

from steiner.core import distances
from steiner.critical_set import box_geometry, default_domain_box
from util import make_objective

# Computed once with the Weiszfeld oracle (tol 1e-12) on the 3-4-5 right
# triangle and frozen; the oracle is re-run below as a cross-check.
RIGHT_TRIANGLE = [[0.0, 0.0], [4.0, 0.0], [0.0, 3.0]]
RT_MEDIAN = (0.69578853408851, 0.7511761065063941)
RT_OBJECTIVE = 6.766432567522308


def test_as_point_rejects_nan_and_empty():
    obj = make_objective([[0.0, 0.0]])
    with pytest.raises(InputError, match="finite"):
        obj.value([float("nan"), 1.0])
    with pytest.raises(InputError):
        obj.value([])


def test_anchorset_validation():
    with pytest.raises(InputError, match="anchors"):
        AnchorSet([])
    with pytest.raises(InputError, match=r"anchors\[1\]"):
        AnchorSet([[0.0, 0.0], [float("inf"), 0.0]])
    a = AnchorSet([[1.0, 2.0], [1.0, 2.0]])  # duplicates are allowed
    assert a.n == 2 and a.dimension == 2
    with pytest.raises(ValueError):
        a.points[0, 0] = 9.0  # read-only storage


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("row", [0, 4_321, 9_999])
def test_anchorset_names_the_first_row_not_finite(bad, row):
    pts = np.random.default_rng(3).uniform(0.0, 10.0, size=(10_000, 8))
    pts[row, 5] = bad
    pts[row + 1:, 0] = np.nan  # later rows do not count
    with pytest.raises(InputError) as caught:
        AnchorSet(pts)
    assert str(caught.value) == f"anchors[{row}]: coordinates must be finite"


@pytest.mark.parametrize("k", [200, -200])
def test_diagonals_neither_overflow_nor_underflow(k):
    # Squared, these gaps overflow (at 1e200 the automatic epsilon became inf)
    # or underflow (at 1e-200 the diagonal read 0).
    def exact(lo, hi):
        with localcontext() as ctx:
            ctx.prec = 40
            return float(sum((Decimal(b) - Decimal(a)) ** 2 for a, b in zip(lo, hi)).sqrt())

    anchors = AnchorSet(np.array([[0.0, 0.0], [4.0, 0.0], [0.0, 3.0], [1.0, 1.0]]) * 10.0 ** k)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert anchors.diagonal() == pytest.approx(exact(*anchors.bounding_box()), rel=1e-15)
        lo, hi, diagonal = box_geometry(default_domain_box(anchors))
        assert diagonal == pytest.approx(exact(lo, hi), rel=1e-15)
        obj = Objective(anchors, PotentialSpec("euclidean"))
        assert obj.length_scale == anchors.diagonal()
        assert obj.potential.epsilon == 1e-9 * anchors.diagonal()
    # Wherever the squared sum is normal, every bit of np.linalg.norm stays.
    rng = np.random.default_rng(2)
    for d in (1, 2, 3, 8):
        lo = rng.normal(size=(200, d)) * 10.0 ** rng.integers(-150, 150, size=(200, 1))
        hi = lo + rng.exponential(size=(200, d)) * 10.0 ** rng.integers(-150, 150, size=(200, 1))
        assert [float(distances(a, b)[0]) for a, b in zip(lo, hi)] == [
            float(np.linalg.norm(b - a)) for a, b in zip(lo, hi)]


def test_dimension_mismatch_is_rejected():
    obj = make_objective([[0.0, 0.0]])
    with pytest.raises(InputError, match="dimension"):
        obj.value([1.0, 2.0, 3.0])
    with pytest.raises(InputError, match="dimension"):
        obj.gradient([1.0])


def test_single_anchor_objective_is_distance():
    obj = make_objective([[0.0, 0.0]], epsilon=0.0)
    assert objective_value(obj, [3.0, 4.0]) == 5.0


def test_two_anchor_midpoint_value():
    obj = make_objective([[0.0, 0.0], [2.0, 0.0]], epsilon=0.0)
    assert objective_value(obj, [1.0, 0.0]) == 2.0


def test_duplicate_anchors_double_the_term():
    single = make_objective([[1.0, 1.0]], epsilon=0.0)
    double = make_objective([[1.0, 1.0], [1.0, 1.0]], epsilon=0.0)
    x = [4.0, 5.0]
    assert double.value(x) == 2.0 * single.value(x)


def test_objective_accepts_raw_anchor_rows():
    obj = Objective([[0.0, 0.0], [2.0, 0.0]], PotentialSpec("euclidean", epsilon=0.0))
    assert isinstance(obj.anchors, AnchorSet)
    assert obj.value([1.0, 0.0]) == 2.0


def test_objective_minimum_matches_weiszfeld_oracle():
    obj = make_objective(RIGHT_TRIANGLE, epsilon=0.0)
    report = weiszfeld(obj.anchors, tol=1e-12)
    np.testing.assert_allclose(report.location, RT_MEDIAN, atol=1e-10)
    assert abs(report.value - RT_OBJECTIVE) <= 1e-12 * RT_OBJECTIVE
    assert abs(objective_value(obj, report.location) - RT_OBJECTIVE) <= 1e-6 * RT_OBJECTIVE
    # No nearby point does better: the oracle value is the minimum.
    rng = np.random.default_rng(0)
    for _ in range(100):
        probe = np.array(RT_MEDIAN) + rng.normal(size=2) * 1e-3
        assert objective_value(obj, probe) >= RT_OBJECTIVE - 1e-12


def test_gradient_unit_radial_single_anchor():
    obj = make_objective([[0.0, 0.0]], epsilon=0.0)
    np.testing.assert_allclose(gradient(obj, [3.0, 4.0]), [0.6, 0.8], rtol=1e-15)


def test_gradient_of_squared_potential():
    obj = make_objective([[0.0, 0.0]], kind="squared")
    np.testing.assert_allclose(gradient(obj, [1.0, 2.0]), [2.0, 4.0])


def test_smoothed_gradient_vanishes_at_anchor():
    obj = make_objective([[0.0, 0.0]], epsilon=1e-6)
    np.testing.assert_array_equal(gradient(obj, [0.0, 0.0]), [0.0, 0.0])


def test_finite_difference_on_quadratic_is_exact():
    obj = make_objective([[0.0, 0.0]], kind="squared")
    fd = finite_difference_gradient(obj, [1.0, 2.0], h=1e-5)
    np.testing.assert_allclose(fd, [2.0, 4.0], atol=1e-8)


def test_finite_difference_on_smoothed_distance():
    obj = make_objective([[0.0, 0.0]], epsilon=1e-6)
    fd = finite_difference_gradient(obj, [3.0, 4.0], h=1e-5)
    np.testing.assert_allclose(fd, [0.6, 0.8], atol=1e-6)


def test_finite_difference_on_gaussian_matches_analytic():
    obj = make_objective([[0.0, 0.0]], kind="gaussian_well", sigma=1.0)
    fd = finite_difference_gradient(obj, [1.0, 0.0], h=1e-5)
    np.testing.assert_allclose(fd, [2.0 * math.exp(-1.0), 0.0], atol=1e-6)


def test_finite_difference_rejects_bad_step():
    # 1 + 1e-300 == 1, so every difference would be 0; 1e300 squared
    # overflows, so U is inf at every probe and a difference would be nan.
    obj = make_objective([[0.0, 0.0]])
    for h, message in ((0.0, "h: step must be finite and > 0"),
                       (1e-300, "h: must move each coordinate of every sampled point"),
                       (1e300, "h: must keep U finite at every central-difference probe")):
        with pytest.raises(InputError, match=f"^{message}, got "):
            finite_difference_gradient(obj, [1.0, 1.0], h=h)


def _random_instance(rng, kind):
    d = int(rng.integers(1, 4))
    n = int(rng.integers(1, 9))
    anchors = rng.uniform(0.0, 10.0, size=(n, d))
    kwargs = {}
    if kind == "p_norm":
        kwargs = dict(p=float(rng.uniform(1.0, 4.0)), epsilon=1e-6)
    elif kind == "weighted_euclidean":
        kwargs = dict(weights=tuple(float(w) for w in rng.uniform(0.5, 3.0, size=n)))
    elif kind == "gaussian_well":
        kwargs = dict(sigma=float(rng.uniform(2.0, 6.0)))
    return make_objective(anchors, kind=kind, **kwargs)


@pytest.mark.parametrize("kind", ["euclidean", "p_norm", "squared",
                                  "weighted_euclidean", "gaussian_well"])
def test_gradient_agrees_with_finite_differences(kind):
    # 1000 random (anchor set, point) pairs per kind: 100 instances x 10
    # points, sampled clear of the anchors. For p_norm with p < 2 the
    # samples also keep clear of the anchors' coordinate planes, where the
    # third derivative of the smoothed norm grows like |v_k|^(p-4) and a
    # central difference at this h cannot resolve the gradient.
    rng = np.random.default_rng(int.from_bytes(kind.encode(), "little") % 2**32)
    worst = 0.0
    for _ in range(100):
        obj = _random_instance(rng, kind)
        lo, hi = obj.anchors.bounding_box()
        span = np.where(hi > lo, hi - lo, 1.0)
        lo, hi = lo - 0.2 * span, hi + 0.2 * span
        scale = float(np.linalg.norm(hi - lo))
        h = 1e-5 * scale
        eps = obj.potential.epsilon or 0.0
        keep_away = max(10.0 * eps, 1e-3 * scale)
        plane_clear = 5e-3 * scale if kind == "p_norm" else 0.0
        points = []
        while len(points) < 10:
            x = rng.uniform(lo, hi)
            if np.min(np.linalg.norm(obj.anchors.points - x, axis=1)) < keep_away:
                continue
            if plane_clear and np.min(np.abs(obj.anchors.points - x)) < plane_clear:
                continue
            points.append(x)
        worst = max(worst, max_relative_gradient_error(obj, np.array(points), h))
    assert worst <= 1e-5


def test_linearity_over_anchor_union():
    rng = np.random.default_rng(21)
    a = rng.uniform(0.0, 10.0, size=(4, 3))
    b = rng.uniform(0.0, 10.0, size=(3, 3))
    spec = PotentialSpec("euclidean", epsilon=1e-6)
    obj_a = Objective(AnchorSet(a), spec)
    obj_b = Objective(AnchorSet(b), spec)
    obj_ab = Objective(AnchorSet(np.vstack([a, b])), spec)
    for _ in range(50):
        x = rng.uniform(-2.0, 12.0, size=3)
        total = obj_ab.value(x)
        parts = obj_a.value(x) + obj_b.value(x)
        assert abs(total - parts) <= 4.0 * np.finfo(float).eps * abs(total)


def test_objective_nonnegative_and_zero_at_lone_anchor():
    rng = np.random.default_rng(2)
    for kind in ("euclidean", "p_norm", "weighted_euclidean", "gaussian_well"):
        obj = _random_instance(rng, kind)
        for _ in range(20):
            assert obj.value(rng.uniform(-5.0, 15.0, size=obj.dimension)) >= 0.0
    lone = make_objective([[2.0, 3.0]], epsilon=0.0)
    assert lone.value([2.0, 3.0]) == 0.0


def test_value_change_matches_plain_difference_at_resolvable_scales():
    rng = np.random.default_rng(17)
    for kind in ("euclidean", "p_norm", "squared", "weighted_euclidean", "gaussian_well"):
        obj = _random_instance(rng, kind)
        for _ in range(20):
            x = rng.uniform(0.0, 10.0, size=obj.dimension)
            m = rng.normal(size=obj.dimension) * rng.uniform(1e-3, 1.0)
            direct = obj.value(x + m) - obj.value(x)
            stable = obj.value_change(x, m)
            assert abs(stable - direct) <= 1e-9 * max(1.0, abs(direct))


def test_value_change_resolves_below_one_ulp_of_the_value():
    # The whole point of the stable path: a decrease far below one ulp of
    # the value must still come out signed and sized correctly. For the
    # squared kind the exact change is g.s + n |s|^2.
    obj = make_objective(np.full((20, 2), 5.0) + np.arange(40).reshape(20, 2) * 0.1,
                         kind="squared")
    c = obj.anchors.points.mean(axis=0)
    x = c + np.array([1e-7, 0.0])
    g = obj.gradient(x)
    step = -1e-4 * g
    change = obj.value_change(x, step)
    exact = float(np.dot(g, step)) + obj.anchors.n * float(np.dot(step, step))
    assert change < 0.0
    assert abs(change) < np.spacing(obj.value(x))  # plain subtraction would round away
    assert abs(change - exact) <= 1e-6 * abs(exact)


# (block_rows, lockstep_rows) at n anchors in D = 3, for the radial kinds
# and for p_norm: at n = 4 000 a radial kernel call holds 3 rows and at
# n = 1 500 a p_norm one 2, at n = 100 000 a kernel call holds one, and each
# anchor sum runs over more than 8192 anchors. A lockstep block is no
# narrower than a kernel call (n = 5), is raised to the floor of 8 where a
# kernel call is narrower (n = 2 000), has that floor capped by its rows'
# kept floats, 32 n each for p_norm (n = 4 000), and has no floor where one
# row keeps more than 2^19 floats (n = 100 000).
BLOCK_ROWS = {
    5: ((2912, 2912), (728, 728)),
    1_500: ((9, 9), (2, 8)),
    2_000: ((7, 8), (1, 8)),
    4_000: ((3, 8), (1, 4)),
    100_000: ((1, 1), (1, 1)),
}


@pytest.mark.parametrize("kind, kwargs", [
    ("euclidean", {}),
    ("squared", {}),
    ("p_norm", dict(p=3.0)),
    ("gaussian_well", dict(sigma=2.0)),
    ("weighted_euclidean", dict(weights=(1.0, 2.0, 0.5, 3.0, 1.5))),
])
@pytest.mark.parametrize("n", list(BLOCK_ROWS))
def test_many_methods_match_single_point_methods_bit_for_bit(kind, kwargs, n):
    rng = np.random.default_rng(n)
    anchors = rng.uniform(0.0, 10.0, size=(n, 3))
    if kind == "weighted_euclidean":
        kwargs = dict(weights=tuple(rng.uniform(0.5, 2.0, size=n)))
    obj = make_objective(anchors, kind=kind, **kwargs)
    assert (obj.block_rows, obj.lockstep_rows) == BLOCK_ROWS[n][kind == "p_norm"]
    points = rng.uniform(-2.0, 12.0, size=(7, 3))
    points[0] = anchors[0]
    moves = rng.normal(size=(7, 3)) * 10.0 ** rng.uniform(-12.0, 0.0, size=(7, 1))
    values = obj.value_many(points)
    grads = obj.gradient_many(points)
    changes = obj.value_change_many(points, moves)
    for k, (p, mv) in enumerate(zip(points, moves)):
        assert values[k] == obj.value(p)
        np.testing.assert_array_equal(grads[k], obj.gradient(p))
        assert changes[k] == obj.value_change(p, mv)


def test_many_methods_check_shapes():
    obj = make_objective([[0.0, 0.0], [1.0, 1.0]])
    with pytest.raises(InputError, match="points"):
        obj.gradient_many([1.0, 2.0])
    with pytest.raises(InputError, match="moves"):
        obj.value_change_many([[1.0, 2.0]], [1.0, 2.0])
    with pytest.raises(InputError, match=r"points\[1\]: coordinates must be finite"):
        obj.check_points([[1.0, 2.0], [np.inf, 0.0]])
    assert obj.gradient_many(np.empty((0, 2))).shape == (0, 2)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
@pytest.mark.parametrize("method, where", [
    ("value_many", "points"),
    ("gradient_many", "points"),
    ("value_change_many", "points"),
    ("value_change_many", "moves"),
])
def test_many_methods_reject_non_finite_coordinates(method, where, bad):
    # The batched methods check coordinates as the single-point methods do,
    # and name the first bad row.
    obj = make_objective([[0.0, 0.0], [1.0, 1.0]])
    rows = {"points": np.array([[1.0, 2.0], [0.5, 0.5], [3.0, 1.0]]),
            "moves": np.full((3, 2), 0.25)}
    rows[where][1, 1] = bad
    rows[where][2, 0] = bad
    args = [rows["points"], rows["moves"]] if method == "value_change_many" else [rows["points"]]
    with pytest.raises(InputError, match=rf"^{where}\[1\]: coordinates must be finite$"):
        getattr(obj, method)(*args)


def test_block_spans_split_batches_into_near_equal_blocks():
    obj = make_objective([[0.0, 0.0], [1.0, 1.0]])
    object.__setattr__(obj, "block_rows", 5)
    assert list(obj.block_spans(0)) == [(0, 0)]
    assert list(obj.block_spans(9)) == [(0, 9)]
    assert list(obj.block_spans(17)) == [(0, 5), (5, 11), (11, 17)]
    for m in range(60):
        spans = list(obj.block_spans(m))
        assert spans[0][0] == 0 and spans[-1][1] == m
        assert all(a[1] == b[0] for a, b in zip(spans, spans[1:]))
        sizes = [hi - lo for lo, hi in spans]
        assert max(sizes) - min(sizes) <= 1 and max(sizes) < 2 * obj.block_rows


@pytest.mark.parametrize("move, message", [
    pytest.param(0.5, r"move: expected shape \(2,\), got \(\)", id="scalar"),
    pytest.param([1.0, 2.0, 3.0], r"move: expected shape \(2,\), got \(3,\)", id="3-vector"),
    pytest.param([[1.0, 2.0]], r"move: expected shape \(2,\), got \(1, 2\)", id="row"),
    pytest.param([np.nan, 0.0], "move: coordinates must be finite", id="nan"),
    pytest.param([0.0, -np.inf], "move: coordinates must be finite", id="inf"),
])
def test_value_change_rejects_bad_moves(move, message):
    obj = make_objective([[0.0, 0.0], [1.0, 1.0]])
    with pytest.raises(InputError, match=message):
        obj.value_change([1.0, 1.0], move)
