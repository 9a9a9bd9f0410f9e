"""Testing-point generation, multi-start enumeration, and Steiner selection."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as hst

from steiner import (MAX_STEPS, STALLED, AnchorSet, ConfigError, CriticalPoint, FlowConfig,
                     InputError, NoCriticalPointError, TestingPlan, default_domain_box,
                     enumerate_critical_points, generate_testing_points, grid_search,
                     select_steiner, weiszfeld)

from steiner.critical_set import (DEGENERACY_RTOL, _degenerate, _probe_negative_curvature,
                                  _row_norms, _single_linkage)
from steiner.flow import trace_flow
from util import make_objective, random_rotation

RIGHT_TRIANGLE = [[0.0, 0.0], [4.0, 0.0], [0.0, 3.0]]


def test_grid_plan_nine_points_on_unit_square():
    plan = TestingPlan("grid", count=9, domain_box=((0.0, 1.0), (0.0, 1.0)))
    pts = generate_testing_points(plan)
    expected = {(a, b) for a in (0.0, 0.5, 1.0) for b in (0.0, 0.5, 1.0)}
    assert {tuple(p) for p in pts} == expected


def test_grid_plan_rounds_count_up_to_full_lattice():
    plan = TestingPlan("grid", count=5, domain_box=((0.0, 1.0), (0.0, 1.0)))
    assert len(generate_testing_points(plan)) == 9  # 3 x 3 is the next lattice


def test_uniform_random_plan_is_deterministic():
    plan = TestingPlan("uniform_random", count=5, domain_box=((0.0, 2.0), (-1.0, 1.0)),
                       seed=123)
    a = generate_testing_points(plan)
    b = generate_testing_points(plan)
    np.testing.assert_array_equal(a, b)
    assert len(a) == 5
    assert np.all(a >= [0.0, -1.0]) and np.all(a <= [2.0, 1.0])


def test_jittered_plan_stays_near_anchors():
    anchors = AnchorSet([[0.0, 0.0], [4.0, 0.0], [0.0, 3.0]])
    box = ((-1.0, 5.0), (-1.0, 4.0))
    plan = TestingPlan("anchors_jittered", count=99, domain_box=box, seed=7)
    pts = generate_testing_points(plan, anchors)
    assert len(pts) == 3
    diagonal = np.linalg.norm([6.0, 5.0])
    for p, a in zip(pts, anchors.points):
        assert np.linalg.norm(p - a) <= 0.01 * diagonal


def test_degenerate_box_is_rejected():
    with pytest.raises(ConfigError, match="domain_box"):
        TestingPlan("grid", count=4, domain_box=((0.0, 0.0), (0.0, 1.0)))


@pytest.mark.parametrize("box", [((-1.0, 5.0),), ((-1.0, 5.0), (-1.0, 5.0), (-1.0, 5.0))])
@pytest.mark.parametrize("strategy", ["grid", "uniform_random", "anchors_jittered"])
def test_domain_box_of_another_dimension_is_rejected(box, strategy):
    # A box whose axis count differs from the anchors' dimension once gave
    # 1-D testing points, a broadcast clip or numpy's broadcast error.
    obj = make_objective(RIGHT_TRIANGLE)
    plan = TestingPlan(strategy, count=4, domain_box=box)
    message = r"^testing_plan\.domain_box: expected 2 \[lo, hi\] pairs$"
    with pytest.raises(ConfigError, match=message):
        generate_testing_points(plan, obj.anchors)
    with pytest.raises(ConfigError, match=message):
        enumerate_critical_points(obj, plan)
    if strategy != "anchors_jittered":
        # Without anchors the box sets the dimension.
        assert generate_testing_points(plan).shape[1] == len(box)


def test_bad_strategy_count_and_seed_are_rejected():
    with pytest.raises(ConfigError, match="strategy"):
        TestingPlan("sobol", count=4)
    with pytest.raises(ConfigError, match="count"):
        TestingPlan("grid", count=0)
    with pytest.raises(ConfigError, match="seed"):
        TestingPlan("grid", count=4, seed=-1)
    for count in (2.5, True):
        with pytest.raises(ConfigError, match="count"):
            TestingPlan("uniform_random", count=count)
    for seed in (1.5, True):
        with pytest.raises(ConfigError, match="seed"):
            TestingPlan("grid", count=4, seed=seed)
    plan = TestingPlan("uniform_random", count=np.int64(4), seed=np.uint64(3))
    assert len(generate_testing_points(plan, AnchorSet([[0.0, 0.0], [1.0, 1.0]]))) == 4


def test_default_domain_box_adds_margin_and_contains_anchors():
    anchors = AnchorSet([[0.0, 0.0], [10.0, 5.0]])
    box = default_domain_box(anchors)
    np.testing.assert_allclose(box, [(-2.0, 12.0), (-1.0, 6.0)])
    single = default_domain_box(AnchorSet([[3.0, 3.0]]))
    lo, hi = np.array([b[0] for b in single]), np.array([b[1] for b in single])
    assert np.all(lo < 3.0) and np.all(hi > 3.0)


@pytest.mark.parametrize("anchors, centroid", [
    ([[1e16, 0.0]], [1e16, 0.0]),
    ([[1e20, 1e20]], [1e20, 1e20]),
    ([[1e16, 0.0], [1e16, 4.0]], [1e16, 2.0]),
])
def test_default_domain_box_pads_coinciding_axes_at_large_magnitudes(anchors, centroid):
    # 0.2 x (diagonal or 1) is below one ulp of 1e16: that pad left a
    # degenerate box the caller never set.
    obj = make_objective(anchors, kind="squared")
    for (lo, hi), c in zip(default_domain_box(obj.anchors), centroid):
        assert lo < c < hi
    result = enumerate_critical_points(obj)
    np.testing.assert_allclose(result.steiner.location, centroid, rtol=1e-15, atol=1e-8)
    # At desk scale the pad of a coinciding axis is unchanged.
    assert default_domain_box(AnchorSet([[3.0, -5.0]])) == ((2.8, 3.2), (-5.2, -4.8))


def test_anchor_outside_explicit_box_is_rejected():
    obj = make_objective(RIGHT_TRIANGLE)
    plan = TestingPlan("grid", count=4, domain_box=((0.0, 1.0), (0.0, 1.0)))
    with pytest.raises(ConfigError, match="anchor"):
        enumerate_critical_points(obj, plan)


def test_squared_potential_yields_single_cluster_at_centroid():
    rng = np.random.default_rng(3)
    anchors = rng.uniform(0.0, 10.0, size=(7, 3))
    obj = make_objective(anchors, kind="squared")
    result = enumerate_critical_points(obj, TestingPlan("uniform_random", count=6, seed=1),
                                       FlowConfig(grad_tol=1e-8))
    assert len(result.critical_set) == 1
    np.testing.assert_allclose(result.steiner.location, anchors.mean(axis=0), atol=1e-8)


def test_euclidean_grid_multistart_matches_weiszfeld():
    obj = make_objective(RIGHT_TRIANGLE)
    result = enumerate_critical_points(obj, TestingPlan("grid", count=16, seed=0))
    assert len(result.critical_set) == 1
    oracle = weiszfeld(obj.anchors, tol=1e-12)
    np.testing.assert_allclose(result.steiner.location, oracle.location, atol=1e-5)
    assert result.diagnostics["converged"] == 16
    assert sum(c.basin_count for c in result.critical_set) == 16


def test_two_well_landscape_reports_both_minima():
    obj = make_objective([[0.0, 0.0], [10.0, 0.0]], kind="gaussian_well", sigma=0.5)
    plan = TestingPlan("grid", count=25, domain_box=((-2.0, 12.0), (-2.0, 2.0)), seed=0)
    cfg = FlowConfig(grad_tol=1e-8, initial_step=50.0, max_steps=2000)
    result = enumerate_critical_points(obj, plan, cfg)
    assert len(result.critical_set) >= 2
    near_left = min(np.linalg.norm(c.location - [0.0, 0.0]) for c in result.critical_set)
    near_right = min(np.linalg.norm(c.location - [10.0, 0.0]) for c in result.critical_set)
    assert near_left <= 1e-6 and near_right <= 1e-6
    # The two wells tie to machine precision; the lexicographic rule picks
    # the one near the origin.
    assert np.linalg.norm(result.steiner.location - [0.0, 0.0]) <= 1e-6
    assert result.diagnostics["degenerate_clusters"] is True


def test_saddle_is_reported_flagged_and_not_selected():
    # Wide wells overlap, so the midpoint (5, 0) is a genuine saddle; a
    # start on the symmetry line flows straight into it.
    obj = make_objective([[0.0, 0.0], [10.0, 0.0]], kind="gaussian_well", sigma=4.0)
    box = ((-2.0, 12.0), (-2.0, 2.0))
    plan = TestingPlan("grid", count=4, domain_box=box, seed=0)
    starts = np.array([[5.0, 1.0], [1.0, 0.5], [9.0, -0.5]])
    result = enumerate_critical_points(obj, plan, points=starts)
    saddle = [c for c in result.critical_set
              if np.linalg.norm(c.location - [5.0, 0.0]) < 1e-4]
    assert len(saddle) == 1
    assert saddle[0].negative_curvature
    assert not np.allclose(result.steiner.location, [5.0, 0.0], atol=1e-3)
    minima = [c for c in result.critical_set if not c.negative_curvature]
    assert all(result.steiner.value <= c.value + 1e-15 for c in minima)


def test_every_critical_point_is_at_rest_and_deduplicated():
    rng = np.random.default_rng(11)
    obj = make_objective(rng.uniform(0.0, 10.0, size=(5, 2)),
                         kind="gaussian_well", sigma=1.5)
    cfg = FlowConfig(grad_tol=1e-8, initial_step=5.0)
    result = enumerate_critical_points(obj, TestingPlan("grid", count=16, seed=0), cfg)
    radius = 1e-4 * np.linalg.norm(np.ptp(generate_testing_points(
        TestingPlan("grid", count=4, domain_box=default_domain_box(obj.anchors)),
        obj.anchors), axis=0))
    for c in result.critical_set:
        assert c.grad_norm <= cfg.grad_tol
    locs = [c.location for c in result.critical_set]
    for i in range(len(locs)):
        for j in range(i + 1, len(locs)):
            assert np.linalg.norm(locs[i] - locs[j]) > radius


def test_steiner_value_never_exceeds_testing_point_values():
    rng = np.random.default_rng(19)
    obj = make_objective(rng.uniform(0.0, 10.0, size=(6, 2)))
    plan = TestingPlan("uniform_random", count=8, seed=4)
    result = enumerate_critical_points(obj, plan)
    pts = generate_testing_points(plan, obj.anchors)
    assert result.steiner.value <= min(obj.value(p) for p in pts) + 1e-12


def test_no_converged_trace_raises_with_diagnostics():
    obj = make_objective([[0.0, 0.0]], kind="squared")
    cfg = FlowConfig(initial_step=1.0, min_step=0.9, grad_tol=1e-12)
    starts = np.array([[3.0, 4.0], [1.0, 2.0]])  # full steps bounce x -> -x
    plan = TestingPlan("grid", count=4, domain_box=((-10.0, 10.0), (-10.0, 10.0)))
    with pytest.raises(NoCriticalPointError) as info:
        enumerate_critical_points(obj, plan, cfg, points=starts)
    assert info.value.diagnostics["stalled"] == 2
    assert info.value.diagnostics["converged"] == 0


def test_empty_start_set_is_rejected():
    obj = make_objective(RIGHT_TRIANGLE)
    with pytest.raises(InputError, match=r"^points: expected at least one row$"):
        enumerate_critical_points(obj, points=np.zeros((0, 2)))


def test_diagnostics_report_the_work_and_every_unconverged_trace():
    # The lockstep fixture of test_flow: starts that converge, stall on a
    # step that cannot move, run out of steps, and stall on an anchor.
    obj = make_objective([[0.0, 0.0], [10.0, 0.0], [0.8, 0.0]], kind="gaussian_well",
                         sigma=0.5)
    starts = np.array([[40.0, 40.0], [5.0, 1.5], [3.0, 0.5], [10.0, 0.0], [0.0, 0.0]])
    plan = TestingPlan(domain_box=((-1.0, 41.0), (-1.0, 41.0)))
    result = enumerate_critical_points(obj, plan, FlowConfig(grad_tol=1e-300, max_steps=40),
                                       points=starts, keep_traces=True)
    d, traces = result.diagnostics, result.traces
    assert (d["accepted_steps"], d["value_changes"], d["gradients"], d["backtracks"]) == \
        (49, 68, 52, 19)
    assert d["value_changes"] == sum(t.n_value_changes for t in traces)
    assert d["gradients"] == sum(t.n_gradients for t in traces)
    assert d["backtracks"] == sum(t.n_backtracks for t in traces)
    assert d["unconverged"] == [
        {"start": 1, "status": STALLED, "terminal": [5.0, 1.5]},
        {"start": 2, "status": MAX_STEPS, "terminal": traces[2].terminal_point.tolist()},
        {"start": 3, "status": STALLED, "terminal": [10.0, 0.0]},
    ]
    assert (d["converged"], d["stalled"], d["max_steps"]) == (2, 2, 1)


def test_threaded_enumeration_matches_sequential():
    rng = np.random.default_rng(23)
    obj = make_objective(rng.uniform(0.0, 10.0, size=(8, 2)))
    plan = TestingPlan("grid", count=9, seed=2)
    seq = enumerate_critical_points(obj, plan)
    with pytest.warns(DeprecationWarning, match="threads is ignored"):
        par = enumerate_critical_points(obj, plan, threads=4)
    assert len(seq.critical_set) == len(par.critical_set)
    np.testing.assert_array_equal(seq.steiner.location, par.steiner.location)
    assert seq.steiner.value == par.steiner.value


# Euclidean medians can sit at an anchor, where the eps-smoothed spike has
# curvature ~1/eps; resolving the gradient below curvature * coordinate-ulp
# is impossible, so euclidean runs use a tolerance the geometry supports.
EUCLIDEAN_CFG = FlowConfig(grad_tol=1e-6)


def test_translation_equivariance():
    rng = np.random.default_rng(31)
    anchors = rng.uniform(0.0, 10.0, size=(5, 2))
    shift = np.array([113.0, -40.0])
    cfg = EUCLIDEAN_CFG
    base = enumerate_critical_points(make_objective(anchors),
                                     TestingPlan("grid", count=9, seed=0), cfg)
    moved_box = tuple((lo + s, hi + s) for (lo, hi), s in
                      zip(default_domain_box(AnchorSet(anchors)), shift))
    moved = enumerate_critical_points(
        make_objective(anchors + shift),
        TestingPlan("grid", count=9, domain_box=moved_box, seed=0), cfg)
    assert np.linalg.norm(moved.steiner.location - (base.steiner.location + shift)) \
        <= 10.0 * cfg.grad_tol


def test_rotation_equivariance():
    rng = np.random.default_rng(37)
    anchors = rng.uniform(0.0, 10.0, size=(5, 2))
    rot = random_rotation(np.random.default_rng(5), 2)
    cfg = EUCLIDEAN_CFG
    plan = TestingPlan("grid", count=9, seed=0)
    starts = generate_testing_points(plan, AnchorSet(anchors))
    box = default_domain_box(AnchorSet(anchors))
    radius = 1e-4 * np.linalg.norm([hi - lo for lo, hi in box])
    base = enumerate_critical_points(make_objective(anchors), plan, cfg, radius,
                                     points=starts)
    rot_box_pts = starts @ rot.T
    lo = rot_box_pts.min(axis=0) - 1.0
    hi = rot_box_pts.max(axis=0) + 1.0
    rotated = enumerate_critical_points(
        make_objective(anchors @ rot.T),
        TestingPlan("grid", count=9, domain_box=tuple(zip(lo, hi)), seed=0),
        cfg, radius, points=rot_box_pts)
    assert np.linalg.norm(rotated.steiner.location - rot @ base.steiner.location) \
        <= 10.0 * cfg.grad_tol


def test_scale_equivariance():
    rng = np.random.default_rng(41)
    anchors = rng.uniform(0.0, 10.0, size=(5, 2))
    s = 3.0
    cfg = EUCLIDEAN_CFG
    eps = 1e-8
    plan = TestingPlan("grid", count=9, seed=0)
    starts = generate_testing_points(plan, AnchorSet(anchors))
    base = enumerate_critical_points(make_objective(anchors, epsilon=eps), plan, cfg,
                                     points=starts)
    box = tuple((lo * s, hi * s) for lo, hi in default_domain_box(AnchorSet(anchors)))
    scaled = enumerate_critical_points(
        make_objective(anchors * s, epsilon=eps * s),
        TestingPlan("grid", count=9, domain_box=box, seed=0), cfg,
        points=starts * s)
    assert np.linalg.norm(scaled.steiner.location - s * base.steiner.location) \
        <= 10.0 * cfg.grad_tol * max(1.0, s)


def test_steiner_value_dominates_coarse_grid_oracle():
    rng = np.random.default_rng(43)
    anchors = rng.uniform(0.0, 10.0, size=(6, 2))
    obj = make_objective(anchors)
    result = enumerate_critical_points(obj, TestingPlan("grid", count=9, seed=0))
    spacing = 0.1
    lo, hi = obj.anchors.bounding_box()
    grid = grid_search(obj, list(zip(lo, hi)), spacing)
    lipschitz = float(obj.anchors.n)
    assert result.steiner.value <= grid.value + 1e-12
    assert grid.value - result.steiner.value <= lipschitz * spacing * np.sqrt(2.0)


def _cp(x, y, value):
    return CriticalPoint(location=np.array([x, y]), value=value, grad_norm=0.0,
                         basin_count=1)


def test_select_steiner_picks_minimum():
    assert select_steiner([_cp(0, 0, 1.0), _cp(1, 1, 2.0)]).value == 1.0


def test_select_steiner_single_element():
    only = _cp(2, 3, 5.0)
    assert select_steiner([only]) is only


def test_select_steiner_breaks_ties_lexicographically():
    chosen = select_steiner([_cp(1.0, 0.0, 7.0), _cp(0.0, 1.0, 7.0)])
    np.testing.assert_array_equal(chosen.location, [0.0, 1.0])


def test_select_steiner_rejects_empty():
    with pytest.raises(InputError):
        select_steiner([])


def _connected_components(points, radius):
    """Brute force: propagate the smallest index over every pair within radius."""
    near = np.linalg.norm(points[:, None, :] - points[None, :, :], axis=-1) <= radius
    label = np.arange(len(points))
    while True:
        spread = np.where(near, label[None, :], len(points)).min(axis=1)
        if np.array_equal(spread, label):
            break
        label = spread
    groups: dict[int, list[int]] = {}
    for i, lab in enumerate(label.tolist()):
        groups.setdefault(lab, []).append(i)
    return list(groups.values())


def _lexicographic_clusters(points, radius):
    """The components in the order of their smallest index, members in the
    lexicographic order of their points and equal points in input order."""
    rank = np.empty(len(points), dtype=int)
    rank[np.lexsort(points.T[::-1])] = np.arange(len(points))
    return [sorted(c, key=rank.__getitem__) for c in _connected_components(points, radius)]


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("lattice", [False, True])
def test_single_linkage_matches_brute_force_components(d, lattice):
    rng = np.random.default_rng(100 * d + lattice)
    for _ in range(20):
        m = int(rng.integers(1, 80))
        if lattice:
            # Integer points put many pairs at exactly the radius, and many
            # points on one another.
            points, radius = rng.integers(0, 6, size=(m, d)).astype(float), 1.0
        else:
            points, radius = rng.uniform(0.0, 10.0, size=(m, d)), float(rng.uniform(0.1, 2.0))
        shuffled = points
        points = points[np.lexsort(points.T[::-1])]
        assert _single_linkage(points, radius) == _connected_components(points, radius)
        assert _single_linkage(shuffled, radius) == _lexicographic_clusters(shuffled, radius)


def test_single_linkage_joins_a_long_shuffled_chain():
    # 500 points, each 0.9 from the next within 60 degrees of the x axis:
    # the ends are more than 200 apart and still one cluster at radius 1.
    rng = np.random.default_rng(11)
    angles = rng.uniform(-np.pi / 3.0, np.pi / 3.0, size=499)
    steps = 0.9 * np.column_stack([np.cos(angles), np.sin(angles)])
    points = np.cumsum(np.vstack([[0.0, 0.0], steps]), axis=0)[rng.permutation(500)]
    assert _single_linkage(points, 1.0) == [np.lexsort(points.T[::-1]).tolist()]


def test_single_linkage_keeps_equal_points_in_input_order():
    points = np.array([[1.0, 2.0], [0.0, 0.0], [1.0, 2.0], [5.0, 5.0], [0.0, 0.0], [1.0, 2.0]])
    assert _single_linkage(points, 0.5) == [[0, 2, 5], [1, 4], [3]]
    assert _single_linkage(points, 3.0) == [[1, 4, 0, 2, 5], [3]]


@pytest.mark.parametrize("direction", [[1.0, 0.0], [0.0, 1.0], [0.6, 0.8]])
def test_single_linkage_chains_past_the_radius(direction):
    # Neighbours are 0.9 apart, the chain's ends 9 apart: one cluster. A
    # point 1.1 past the end starts a second one.
    radius = 1.0
    points = np.outer(np.append(0.9 * np.arange(11), 10.1), direction) + [3.0, -2.0]
    far = points[-1]
    points = points[np.lexsort(points.T[::-1])]
    clusters = _single_linkage(points, radius)
    assert clusters == _connected_components(points, radius)
    assert sorted(map(len, clusters)) == [1, 11]
    [alone] = [c for c in clusters if len(c) == 1]
    np.testing.assert_array_equal(points[alone[0]], far)


# U = |x|^2 around one anchor at the origin: a start with |x| <= 0.5 is at
# rest for grad_tol 1, and the polish (grad_tol 0.1) takes it in one step of
# t = 0.45 to x - 0.45 * 2x = x / 10.
AT_REST_CFG = FlowConfig(grad_tol=1.0, initial_step=0.225)
AT_REST_PLAN = TestingPlan("grid", count=4, domain_box=((-1.0, 1.0), (-1.0, 1.0)))


def _polished(obj, start):
    return trace_flow(obj, start, FlowConfig(grad_tol=0.1, initial_step=0.225)).terminal_point


def test_polished_representatives_pulled_together_merge():
    obj = make_objective([[0.0, 0.0]], kind="squared")
    right = [[0.4, 0.0], [0.4, 0.01], [0.41, 0.0]]
    left = [[-0.3, 0.0], [-0.3, 0.01]]
    result = enumerate_critical_points(obj, AT_REST_PLAN, AT_REST_CFG, 0.1,
                                       points=np.array(right + left))
    # The two basins are 0.7 apart before the polish and 0.07 after it.
    [merged] = result.critical_set
    assert merged.basin_count == 5
    assert result.diagnostics["clusters"] == 1
    reps = [_polished(obj, [0.4, 0.0]), _polished(obj, [-0.3, 0.0])]
    assert np.linalg.norm(reps[0] - reps[1]) <= 0.1
    best = min(reps, key=lambda p: (obj.value(p), tuple(p)))
    np.testing.assert_array_equal(merged.location, best)
    np.testing.assert_array_equal(best, reps[1])
    assert merged.value == obj.value(best)
    assert merged.grad_norm <= 0.1


def test_chain_of_polished_representatives_merges_into_one():
    # Polished to 0.04 along three directions: neighbours 0.057 apart, the
    # ends 0.08 apart, against a radius of 0.06. All three values tie, so
    # the lexicographically smallest location is kept.
    obj = make_objective([[0.0, 0.0]], kind="squared")
    starts = np.array([[0.4, 0.0], [0.0, 0.4], [-0.4, 0.0]])
    result = enumerate_critical_points(obj, AT_REST_PLAN, AT_REST_CFG, 0.06, points=starts)
    reps = [_polished(obj, s) for s in starts]
    assert np.linalg.norm(reps[0] - reps[2]) > 0.06
    [merged] = result.critical_set
    assert merged.basin_count == 3
    np.testing.assert_array_equal(merged.location, reps[2])


def _degenerate_all_pairs(values):
    return any(abs(a - b) <= DEGENERACY_RTOL * max(abs(a), abs(b))
               for i, a in enumerate(values) for b in values[i + 1:])


@given(hst.lists(hst.floats(min_value=-1e300, max_value=1e300), max_size=12),
       hst.lists(hst.tuples(hst.integers(0, 11), hst.integers(-3, 3)), max_size=6))
def test_adjacent_degeneracy_rule_matches_all_pairs(values, near):
    # Add near-ties: copies of drawn values moved by -3..3 units of 0.5e-9.
    values = values + [values[i % len(values)] * (1.0 + 0.5e-9 * k)
                       for i, k in near if values]
    values.sort()
    assert _degenerate(values) == _degenerate_all_pairs(values)


def test_row_norms_match_norm_of_each_row_bit_for_bit():
    rng = np.random.default_rng(5)
    for d in range(1, 9):
        v = rng.normal(size=(50, d, d)) * 10.0 ** rng.uniform(-5.0, 5.0, size=(50, d, 1))
        expected = np.array([[np.linalg.norm(row) for row in block] for block in v])
        np.testing.assert_array_equal(_row_norms(v), expected)


def _probe_one_point(obj, x, scale, rng):
    """The per-point probe: D axes and D random unit directions, in turn."""
    d = x.size
    delta = max(1e-5 * scale, 1e-9)
    dirs = list(np.eye(d))
    for _ in range(d):
        v = rng.normal(size=d)
        dirs.append(v / np.linalg.norm(v))
    steps = delta * np.array(dirs)
    u = [obj.value(p) for p in np.concatenate([x[None, :], x + steps, x - steps])]
    diffs = (np.array(u[1:2 * d + 1]) - 2.0 * u[0] + np.array(u[2 * d + 1:])) / (delta * delta)
    return bool(diffs.min() < -1e-7 * max(1.0, float(np.abs(diffs).max())))


@pytest.mark.parametrize("kind, kw", [("euclidean", {}), ("gaussian_well", dict(sigma=0.8)),
                                      ("p_norm", dict(p=3.0)), ("squared", {})])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_batched_probe_matches_per_point_probe(kind, kw, d):
    rng = np.random.default_rng(10 * d)
    obj = make_objective(rng.uniform(0.0, 4.0, size=(6, d)), kind=kind, **kw)
    points = np.concatenate([rng.uniform(-1.0, 5.0, size=(9, d)), obj.anchors.points[:1]])
    flags = _probe_negative_curvature(obj, points, 4.0, np.random.default_rng(3))
    ref_rng = np.random.default_rng(3)
    assert flags.tolist() == [_probe_one_point(obj, x, 4.0, ref_rng) for x in points]
