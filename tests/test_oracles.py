"""Reference solvers: Weiszfeld iteration, centroid, brute-force grid scan."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest

from steiner import (AnchorSet, ConfigError, InputError, PotentialSpec, centroid,
                     grid_search, weiszfeld)

from steiner.core import distances
from steiner.critical_set import default_domain_box
from util import make_objective


def test_weiszfeld_collinear_returns_middle_anchor():
    report = weiszfeld(AnchorSet([[0.0, 0.0], [1.0, 0.0], [5.0, 0.0]]))
    np.testing.assert_array_equal(report.location, [1.0, 0.0])
    assert report.converged
    assert report.value == pytest.approx(5.0, abs=1e-12)  # 1 + 4


def test_weiszfeld_equilateral_triangle_center():
    anchors = AnchorSet([[0.0, 0.0], [1.0, 0.0], [0.5, math.sqrt(3.0) / 2.0]])
    report = weiszfeld(anchors, tol=1e-12)
    np.testing.assert_allclose(report.location, [0.5, math.sqrt(3.0) / 6.0], atol=1e-9)


def test_weiszfeld_single_anchor():
    report = weiszfeld(AnchorSet([[2.0, 7.0]]))
    np.testing.assert_array_equal(report.location, [2.0, 7.0])
    assert report.value == 0.0 and report.iterations == 0


def test_weiszfeld_agrees_with_fine_grid():
    anchors = AnchorSet([[0.0, 0.0], [4.0, 0.0], [0.0, 3.0]])
    obj = make_objective(anchors.points, epsilon=0.0)
    grid = grid_search(obj, [(0.0, 4.0), (0.0, 3.0)], spacing=1e-3)
    report = weiszfeld(anchors, tol=1e-12)
    np.testing.assert_allclose(report.location, grid.location, atol=2e-3)
    assert report.value <= grid.value + 1e-12


def test_weiszfeld_objective_never_increases():
    rng = np.random.default_rng(31)
    for _ in range(10):
        anchors = AnchorSet(rng.uniform(0.0, 10.0, size=(int(rng.integers(3, 12)), 2)))
        report = weiszfeld(anchors, tol=1e-10, collect_history=True)
        vals = np.array(report.history)
        assert np.all(np.diff(vals) <= 1e-12 * np.maximum(1.0, np.abs(vals[:-1])))


def test_weiszfeld_escapes_a_non_optimal_anchor():
    # The centroid of this set coincides with the anchor at the origin,
    # where the residual pull (4 others: -1 -1 -1 +1 along x) has norm 2 > 1,
    # so the iteration starts exactly on a non-optimal anchor and must pull
    # away; the median is the middle anchor (1, 0).
    anchors = AnchorSet([[1.0, 0.0], [2.0, 0.0], [3.0, 0.0], [-6.0, 0.0], [0.0, 0.0]])
    report = weiszfeld(anchors, tol=1e-12)
    assert report.converged
    np.testing.assert_allclose(report.location, [1.0, 0.0], atol=1e-9)
    assert report.value == pytest.approx(11.0, abs=1e-9)


def test_weiszfeld_weighted_pull():
    # Weight 100 on one anchor makes it dominant: the optimality condition
    # holds there and the oracle returns it exactly.
    anchors = AnchorSet([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0]])
    report = weiszfeld(anchors, weights=[100.0, 1.0, 1.0])
    np.testing.assert_array_equal(report.location, [0.0, 0.0])


def test_weiszfeld_unconverged_flag():
    rng = np.random.default_rng(5)
    anchors = AnchorSet(rng.uniform(0.0, 10.0, size=(9, 2)))
    report = weiszfeld(anchors, tol=1e-14, max_iter=3)
    assert not report.converged
    assert report.iterations == 3


@pytest.mark.parametrize("max_iter", [0, -5, 2.5])
def test_weiszfeld_rejects_a_budget_below_one_iteration(max_iter):
    with pytest.raises(InputError, match="max_iter"):
        weiszfeld(AnchorSet([[0.0, 0.0], [1.0, 0.0]]), max_iter=max_iter)


@pytest.mark.parametrize("kwargs, message", [
    (dict(tol=0.0), "tol: must be finite and > 0"),
    (dict(tol=math.nan), "tol: must be finite and > 0"),
    (dict(weights=[1.0, -1.0]), "weights: expected 2 finite positive entries"),
    (dict(weights=[1.0]), "weights: expected 2 finite positive entries"),
    (dict(tol=1.0), r"tol: must be below the anchors' bounding-box diagonal 1\.0, got 1\.0"),
])
def test_weiszfeld_rejects_a_bad_tolerance_or_weights(kwargs, message):
    with pytest.raises(InputError, match=message):
        weiszfeld(AnchorSet([[0.0, 0.0], [1.0, 0.0]]), **kwargs)


def test_weiszfeld_value_is_reevaluated_objective():
    rng = np.random.default_rng(8)
    anchors = AnchorSet(rng.uniform(0.0, 10.0, size=(7, 3)))
    report = weiszfeld(anchors)
    obj = make_objective(anchors.points, epsilon=0.0)
    assert report.value == pytest.approx(obj.value(report.location), rel=1e-12)


def test_weiszfeld_near_the_float_maximum():
    # The plain anchor mean overflows here, and so do |x - a_j|^2; the median
    # is the anchor (1.3e308, 1), whose distances, about 3e307 and 4e307, sum
    # to a finite value. The solver's kernel squared them and read inf.
    report = weiszfeld(AnchorSet([[1e308, 0.0], [1.7e308, 0.0], [1.3e308, 1.0]]))
    assert report.location.tolist() == [1.3e308, 1.0] and report.converged
    assert report.value == 6.999999999999999e307
    # The iteration does not depend on the weights' scale: w_j / d_j and the
    # weight sums overflowed at these weights, whose median is that of unit weights.
    anchors = AnchorSet([[0.0], [0.1], [5.0]])
    unit = weiszfeld(anchors, weights=[1.0] * 3)
    for weight, value in ((1e300, 5.0000000000000009e+300), (1e308, math.inf)):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            report = weiszfeld(anchors, weights=[weight] * 3)
        assert report.location.tolist() == unit.location.tolist() == [0.1]
        assert report.iterations == unit.iterations == 11 and report.converged
        assert report.value == value


def test_weiszfeld_at_a_tiny_scale():
    # The 3-4-5 triangle times 1e-300: the squared distances underflow, their
    # lengths do not. The kernel's squares read the value as 0.
    anchors = AnchorSet(np.array([[0.0, 0.0], [4.0, 0.0], [0.0, 3.0]]) * 1e-300)
    report = weiszfeld(anchors, tol=1e-310)
    assert report.converged
    np.testing.assert_allclose(report.location, [6.958e-301, 7.512e-301], rtol=1e-3)
    assert report.value == 6.766432567522309e-300
    # The default tol of 1e-10 holds every anchor within tol of the start,
    # which then snapped to one of them.
    with pytest.raises(InputError, match="tol: must be below the anchors' bounding-box "
                                         "diagonal 5e-300, got 1e-10"):
        weiszfeld(anchors)


def test_weiszfeld_near_an_anchor_below_the_float_scale():
    # The obtuse vertex (1.065e-301, 1.892e-300), of angle about 122 degrees,
    # is the median. Within about 1e-308 of it, but farther than tol, w_j / d_j
    # overflowed to inf and the step to nan.
    anchors = AnchorSet([[-3.877e-301, -7.795e-302], [-3.887e-300, 6.086e-300],
                         [1.065e-301, 1.892e-300]])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        report = weiszfeld(anchors, tol=1e-311)
    assert report.converged
    vertex = anchors.points[2]
    assert np.abs(report.location - vertex).max() <= 1e-309
    assert report.value == pytest.approx(distances(vertex, anchors.points).sum(), rel=1e-9)
    assert report.value == pytest.approx(7.8221664453131097e-300, rel=1e-9)


def test_weiszfeld_on_coincident_anchors_returns_their_point():
    # Their diagonal is 0, which bounds no tol.
    report = weiszfeld(AnchorSet([[1.0, 2.0], [1.0, 2.0]]), tol=5.0)
    assert report.location.tolist() == [1.0, 2.0] and report.value == 0.0


def test_centroid_examples():
    np.testing.assert_array_equal(
        centroid(AnchorSet([[0.0, 0.0], [2.0, 0.0], [1.0, 3.0]])).location, [1.0, 1.0])
    np.testing.assert_array_equal(centroid(AnchorSet([[4.0, 5.0]])).location, [4.0, 5.0])
    np.testing.assert_array_equal(
        centroid(AnchorSet([[-1.0, -1.0], [1.0, 1.0]])).location, [0.0, 0.0])
    # A raw array is read as the anchor set it makes.
    raw = [[0.1, 0.7], [2.0, 0.3], [1.0, 3.0]]
    report, expected = centroid(np.array(raw)), centroid(AnchorSet(raw))
    np.testing.assert_array_equal(report.location, expected.location, strict=True)
    assert (report.value, report.iterations, report.method) == \
        (expected.value, expected.iterations, expected.method)


def test_centroid_of_anchors_whose_sum_overflows():
    # The plain sum of each first coordinate overflows; the mean does not.
    report = centroid(AnchorSet([[1.7e308, 0.0], [1.7e308, 2.0]]))
    assert report.location.tolist() == [1.7e308, 1.0] and report.value == 2.0
    # Here U ~ 1e616 overflows too; whether numpy warns of that depends on its
    # summation loop, so only the value is checked.
    with np.errstate(over="ignore"):
        report = centroid(AnchorSet([[1e308, 0.0], [1.7e308, 0.0], [1.3e308, 1.0]]))
    assert report.location.tolist() == [1.3333333333333333e308, 0.3333333333333333]
    assert report.value == math.inf


def test_centroid_is_a_local_minimum_of_squared_objective():
    rng = np.random.default_rng(13)
    anchors = AnchorSet(rng.uniform(0.0, 10.0, size=(6, 3)))
    report = centroid(anchors)
    obj = make_objective(anchors.points, kind="squared")
    for k in range(3):
        for delta in (-1e-3, 1e-3):
            probe = report.location.copy()
            probe[k] += delta
            assert obj.value(probe) >= report.value


def test_grid_search_finds_centroid_on_lattice():
    obj = make_objective([[0.0, 0.0], [2.0, 0.0], [1.0, 3.0]], kind="squared")
    report = grid_search(obj, [(0.0, 2.0), (0.0, 3.0)], spacing=0.5)
    np.testing.assert_array_equal(report.location, [1.0, 1.0])
    assert report.iterations == 5 * 7


def test_grid_search_exact_anchor_on_lattice():
    obj = make_objective([[1.0, 1.0]], epsilon=0.0)
    report = grid_search(obj, [(0.0, 2.0), (0.0, 2.0)], spacing=0.25)
    np.testing.assert_array_equal(report.location, [1.0, 1.0])
    assert report.value == 0.0


def test_grid_search_tie_breaks_lexicographically():
    # Both anchors are lattice points with identical objective value 1.
    obj = make_objective([[0.0, 0.0], [1.0, 0.0]], epsilon=0.0)
    report = grid_search(obj, [(0.0, 1.0), (0.0, 0.0)], spacing=0.5)
    np.testing.assert_array_equal(report.location, [0.0, 0.0])


def test_grid_search_report_does_not_depend_on_the_block_size():
    # About 900 cells over 3 anchors: one block at the default block_rows,
    # 131 blocks at 7. The scan keeps the first lowest cell either way.
    anchors = [[0.0, 0.0], [4.0, 0.0], [0.0, 3.0]]
    box = [(-0.5, 4.5), (-0.5, 3.5)]
    default = grid_search(make_objective(anchors), box, spacing=0.15)
    obj = make_objective(anchors)
    object.__setattr__(obj, "block_rows", 7)
    small = grid_search(obj, box, spacing=0.15)
    assert default.iterations == small.iterations == 34 * 27
    np.testing.assert_array_equal(small.location, default.location, strict=True)
    assert small.value == default.value


def test_grid_search_lattice_guard():
    obj = make_objective([[0.0, 0.0]], kind="squared")
    with pytest.raises(ConfigError, match="cells"):
        grid_search(obj, [(0.0, 1e6), (0.0, 1e6)], spacing=1e-3)


@pytest.mark.parametrize("anchors, spacing", [
    ([[0.0, 0.0], [4.0, 0.0], [0.0, 3.0]], 1e-9),  # 2.35e19 cells: past int64
    ([[0.0, 0.0], [4.0, 0.0], [0.0, 3.0]], 1.5e-9),  # an int64 product wraps below 0
    ([[0.0, 0.0], [4.0, 0.0], [0.0, 3.0]], 1e-300),  # each axis past int64
    ([[0.0, 0.0], [4.0, 0.0], [0.0, 3.0]], 1e-320),  # each axis past the float range
    (np.eye(3, 30), 0.01),  # D = 30: an int64 product wraps
    (np.eye(3, 15), 1e-300),  # a count of more digits than str() writes
], ids=["1e-9", "1.5e-9", "1e-300", "1e-320", "D30", "D15-1e-300"])
def test_grid_search_counts_the_lattice_exactly_before_allocating(anchors, spacing):
    obj = make_objective(anchors)
    tracemalloc.start()
    try:
        with pytest.raises(ConfigError, match=r"^box.* exceeds the 100000000 cell guard$"):
            grid_search(obj, default_domain_box(obj.anchors), spacing)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


def test_grid_search_rejects_bad_spacing():
    obj = make_objective([[0.0, 0.0]], kind="squared")
    with pytest.raises(ConfigError, match="spacing"):
        grid_search(obj, [(0.0, 1.0), (0.0, 1.0)], spacing=0.0)


@pytest.mark.parametrize("box, message", [
    ([(0.0, 1.0)], r"box: expected 2 axes, got 1"),
    ([(0.0, 1.0), (1.0, 0.0)], r"box\[1\]: expected finite lo <= hi"),
    ([(0.0, math.inf), (0.0, 1.0)], r"box\[0\]: expected finite lo <= hi"),
])
def test_grid_search_rejects_a_bad_box(box, message):
    obj = make_objective([[0.0, 0.0]], kind="squared")
    with pytest.raises(ConfigError, match=message):
        grid_search(obj, box, spacing=0.5)


def test_grid_value_brackets_the_true_minimum():
    # grid best >= true minimum, and within L * spacing * sqrt(D) of it for
    # the euclidean family (L = sum of weights).
    rng = np.random.default_rng(23)
    for _ in range(5):
        n = int(rng.integers(3, 9))
        anchors = AnchorSet(rng.uniform(0.0, 10.0, size=(n, 2)))
        obj = make_objective(anchors.points, epsilon=0.0)
        true = weiszfeld(anchors, tol=1e-12)
        spacing = 0.05
        lo, hi = anchors.bounding_box()
        report = grid_search(obj, list(zip(lo, hi)), spacing=spacing)
        lipschitz = float(n)
        assert true.value - 1e-9 <= report.value <= true.value + lipschitz * spacing * math.sqrt(2.0)


def test_reports_reevaluate_their_value():
    rng = np.random.default_rng(29)
    anchors = AnchorSet(rng.uniform(0.0, 5.0, size=(5, 2)))
    sq = make_objective(anchors.points, kind="squared")
    grid = grid_search(sq, [(0.0, 5.0), (0.0, 5.0)], spacing=0.5)
    assert grid.value == pytest.approx(sq.value(grid.location), rel=1e-12)
    cen = centroid(anchors)
    assert cen.value == pytest.approx(sq.value(cen.location), rel=1e-12)
