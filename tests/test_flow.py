"""Descent tracing, termination statuses, and curve residual checks."""

import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as hst

import steiner.flow
import steiner.potentials
from steiner import (CONVERGED, MAX_STEPS, STALLED, ConfigError, FlowConfig, FlowTrace,
                     InputError, NumericalError, Objective, TestingPlan, enumerate_critical_points,
                     generate_testing_points, graph_residual, tangency_residual, trace_flow,
                     weiszfeld)
from steiner.flow import _longest_monotone_run, rest_points

from util import curve_trace, make_objective


@pytest.mark.parametrize("kwargs", [
    dict(grad_tol=0.0),
    dict(max_steps=0),
    dict(initial_step=-1.0),
    dict(armijo_c=1.0),
    dict(backtrack_factor=0.0),
    dict(min_step=2.0, initial_step=1.0),
    dict(grad_tol=float("inf")),
    dict(grad_tol=float("nan")),
    dict(initial_step=float("inf")),
    dict(min_step=float("inf")),
    dict(max_steps=2.5),
    dict(max_steps=True),
])
def test_flow_config_validation(kwargs):
    # A max_steps that is not an int fails its type check, every other case a range.
    error = ConfigError if type(kwargs.get("max_steps", 0)) is int else InputError
    with pytest.raises(error, match=f"^flow.{next(iter(kwargs))}: "):
        FlowConfig(**kwargs)


def test_squared_flow_reaches_centroid():
    obj = make_objective([[0.0, 0.0], [2.0, 0.0], [1.0, 3.0]], kind="squared")
    trace = trace_flow(obj, [10.0, 10.0], FlowConfig(grad_tol=1e-8))
    assert trace.status == CONVERGED
    np.testing.assert_allclose(trace.terminal_point, [1.0, 1.0], atol=1e-8)


def test_equilateral_triangle_flow_reaches_center():
    anchors = [[0.0, 0.0], [1.0, 0.0], [0.5, math.sqrt(3.0) / 2.0]]
    obj = make_objective(anchors)
    trace = trace_flow(obj, [5.0, 5.0])
    assert trace.status == CONVERGED
    np.testing.assert_allclose(trace.terminal_point, [0.5, math.sqrt(3.0) / 6.0],
                               atol=1e-6)


def test_flow_terminal_matches_weiszfeld():
    anchors = [[0.0, 0.0], [4.0, 0.0], [0.0, 3.0]]
    obj = make_objective(anchors, epsilon=1e-9)
    trace = trace_flow(obj, [1.0, 1.0])
    oracle = weiszfeld(obj.anchors, tol=1e-12)
    assert trace.status == CONVERGED
    np.testing.assert_allclose(trace.terminal_point, oracle.location, atol=1e-5)


def test_first_sample_is_the_start_and_values_strictly_decrease():
    obj = make_objective([[0.0, 0.0], [4.0, 0.0], [0.0, 3.0]])
    start = np.array([7.0, -3.0])
    trace = trace_flow(obj, start)
    np.testing.assert_array_equal(trace.points[0], start)
    assert trace.step_lens[0] == 0.0
    assert np.all(np.diff(trace.values) < 0.0)
    assert trace.status == CONVERGED
    assert trace.terminal_grad_norm <= FlowConfig().grad_tol


def test_converged_at_start_gives_single_sample():
    obj = make_objective([[3.0, 3.0]], kind="squared")
    trace = trace_flow(obj, [3.0, 3.0])
    assert trace.status == CONVERGED
    assert len(trace) == 1


def test_max_steps_status():
    obj = make_objective([[0.0, 0.0]], kind="squared")
    cfg = FlowConfig(max_steps=3, initial_step=0.01)
    trace = trace_flow(obj, [100.0, 100.0], cfg)
    assert trace.status == MAX_STEPS
    assert np.all(np.diff(trace.values) < 0.0)


def test_stalled_when_backtracking_range_runs_out():
    # With min_step just below initial_step only t = 1 is tried; a full
    # step on |x|^2 maps x to -x with zero decrease, so no Armijo success
    # is possible inside the allowed range.
    obj = make_objective([[0.0, 0.0]], kind="squared")
    cfg = FlowConfig(initial_step=1.0, min_step=0.9)
    trace = trace_flow(obj, [3.0, 4.0], cfg)
    assert trace.status == STALLED
    assert len(trace) == 1


def test_flat_plateau_stalls_below_coordinate_resolution():
    # Far from narrow wells the gradient is ~1e-46: above this absurdly
    # small tolerance, but adding a step of that size to coordinates of
    # order one cannot change them, so no representable progress exists.
    obj = make_objective([[0.0, 0.0], [10.0, 0.0]], kind="gaussian_well", sigma=0.5)
    cfg = FlowConfig(grad_tol=1e-300, max_steps=50)
    trace = trace_flow(obj, [5.0, 1.5], cfg)
    assert trace.status == STALLED
    assert len(trace) == 1


def test_numerical_failure_carries_partial_trace():
    obj = make_objective([[0.0, 0.0]], kind="squared")
    with pytest.raises(NumericalError):
        trace_flow(obj, [1e200, 1e200])


def test_tangency_residual_of_produced_traces_is_tiny():
    rng = np.random.default_rng(41)
    for kind, kwargs in (("euclidean", {}), ("squared", {}),
                         ("gaussian_well", dict(sigma=2.0))):
        anchors = rng.uniform(0.0, 10.0, size=(5, 2))
        obj = make_objective(anchors, kind=kind, **kwargs)
        trace = trace_flow(obj, rng.uniform(0.0, 10.0, size=2))
        if len(trace) >= 2:
            assert tangency_residual(obj, trace) <= 1e-12


@pytest.mark.parametrize("scale", [1.0, 1e-200, 1e200])
def test_tangency_residual_perpendicular_step_is_one(scale):
    obj = make_objective([[0.0, 0.0]], kind="squared")
    # At (1, 0) the force is (-2, 0); step due +y is perpendicular. Squared,
    # the step and force lengths under- or overflow at the two extremes.
    pts = np.array([[1.0, 0.0], [1.0, 0.5]]) * scale
    trace = FlowTrace(pts, [1.0, 0.9], [2.0, 2.0], [0.0, 0.5], CONVERGED)
    assert tangency_residual(obj, trace) == pytest.approx(1.0, abs=1e-12)


def test_tangency_residual_thirty_degree_step():
    obj = make_objective([[0.0, 0.0]], kind="squared")
    ang = math.radians(30.0)
    step = 0.1 * np.array([-math.cos(ang), math.sin(ang)])  # 30 deg off -grad
    pts = np.array([[1.0, 0.0], [1.0, 0.0] + step])
    trace = FlowTrace(pts, [1.0, 0.9], [2.0, 2.0], [0.0, 0.1], CONVERGED)
    assert tangency_residual(obj, trace) == pytest.approx(0.5, abs=1e-12)


def test_tangency_residual_skips_zero_steps():
    obj = make_objective([[0.0, 0.0]], kind="squared")
    pts = np.array([[1.0, 0.0], [1.0, 0.0], [0.9, 0.0]])
    trace = FlowTrace(pts, [1.0, 1.0, 0.8], [2.0, 2.0, 1.8], [0.0, 0.0, 0.1], CONVERGED)
    assert tangency_residual(obj, trace) <= 1e-12


def test_tangency_residual_needs_two_samples():
    obj = make_objective([[0.0, 0.0]], kind="squared")
    trace = FlowTrace(np.array([[1.0, 0.0]]), [1.0], [2.0], [0.0], CONVERGED)
    with pytest.raises(InputError):
        tangency_residual(obj, trace)


def test_graph_residual_without_two_samples_is_none():
    obj = make_objective([[0.0, 0.0]], kind="squared")
    for points in (np.zeros((0, 2)), np.array([[1.0, 0.0]])):
        zeros = np.zeros(len(points))
        assert graph_residual(obj, FlowTrace(points, zeros, zeros, zeros, CONVERGED)) is None


def test_graph_residual_on_radial_ray_of_quadratic():
    # The flow line of an isotropic quadratic from (2, 1) is the straight
    # ray toward the anchor: Z_2 = 0.5 Z_1 along the whole curve.
    obj = make_objective([[0.0, 0.0]], kind="squared")
    trace = trace_flow(obj, [2.0, 1.0], FlowConfig(initial_step=0.05))
    res = graph_residual(obj, trace, axis=0)
    assert res is not None and res.shape == (1,)
    assert res[0] <= 1e-9


def test_graph_residual_one_dimension_is_empty():
    obj = make_objective([[0.0]], kind="squared")
    trace = trace_flow(obj, [3.0])
    res = graph_residual(obj, trace, axis=0)
    assert res is not None and res.shape == (0,)


def test_graph_residual_on_symmetry_axis():
    # Two anchors at (0,0) and (4,0): on the axis x = 2 the x-derivative is
    # (2-0)/d + (2-4)/d = 0 analytically, so the flow from (2, 3) is the
    # vertical line; the x coordinate never moves and only the y axis
    # qualifies.
    obj = make_objective([[0.0, 0.0], [4.0, 0.0]], epsilon=1e-9)
    g = obj.gradient([2.0, 3.0])
    assert abs(g[0]) < 1e-15
    trace = trace_flow(obj, [2.0, 3.0], FlowConfig(grad_tol=1e-6))
    assert graph_residual(obj, trace, axis=0) is None
    res = graph_residual(obj, trace, axis=1)
    assert res is not None
    assert res[0] <= 1e-9


def test_graph_residual_second_order_on_exact_curves():
    # Samples on the exact flow curve make the residual a pure trapezoid
    # error: halving the spacing divides it by about four.
    obj = make_objective([[0.0, 0.0], [3.0, 1.0], [1.0, 4.0]],
                         kind="gaussian_well", sigma=2.5)
    coarse = graph_residual(obj, curve_trace(obj, [4.0, 3.5], 2.4, 0.04), axis=0)
    fine = graph_residual(obj, curve_trace(obj, [4.0, 3.5], 2.4, 0.02), axis=0)
    assert 3.0 <= coarse[0] / fine[0] <= 5.0


def _euler_polyline(obj, start, h, steps) -> FlowTrace:
    """Fixed-step explicit Euler x <- x - h grad U(x), as a hand-built trace."""
    pts = [np.asarray(start, dtype=float)]
    for _ in range(steps):
        pts.append(pts[-1] - h * obj.gradient_many(pts[-1][None, :])[0])
    zeros = np.zeros(len(pts))
    return FlowTrace(np.array(pts), zeros, zeros, zeros, MAX_STEPS)


def test_graph_residual_shrinks_as_euler_traces_refine():
    # Over the same flow time 4, an Euler polyline's residual is a left
    # Riemann sum against the trapezoid rule: first order in h, so halving
    # h about halves it.
    obj = make_objective([[0.0, 0.0], [3.0, 1.0], [1.0, 4.0]],
                         kind="gaussian_well", sigma=2.5)
    res = [graph_residual(obj, _euler_polyline(obj, [4.0, 3.5], h, steps), axis=0)[0]
           for h, steps in ((0.4, 10), (0.2, 20), (0.1, 40))]
    assert res[2] < res[1] < res[0]
    assert 1.5 <= res[0] / res[1] <= 2.5 and 1.5 <= res[1] / res[2] <= 2.5
    # The tracer's own steps are set by its line search, not by a spacing;
    # the residual of its trace is still applicable and finite.
    trace = trace_flow(obj, [4.0, 3.5], FlowConfig(grad_tol=1e-6))
    traced = graph_residual(obj, trace, axis=0)
    assert traced is not None and traced.shape == (1,) and np.isfinite(traced).all()


def test_graph_residual_picks_longest_monotone_run():
    # Hand-built zig-zag in the axis coordinate: samples 0..3 increase,
    # then 3..5 decrease; the longer increasing run must be used, and a
    # slope floor above the field magnitude makes the check inapplicable.
    obj = make_objective([[10.0, 10.0]], kind="squared")
    pts = np.array([[0.0, 0.0], [1.0, 0.5], [2.0, 1.0], [3.0, 1.5],
                    [2.5, 1.2], [2.0, 1.0]])
    m = len(pts)
    trace = FlowTrace(pts, np.linspace(1.0, 0.5, m), np.ones(m), np.zeros(m), MAX_STEPS)
    res = graph_residual(obj, trace, axis=0)
    assert res is not None
    assert graph_residual(obj, trace, axis=0, slope_floor=1e9) is None


def _longest_monotone_run_scan(qualify, dz):
    """The sample-by-sample scan that _longest_monotone_run replaced, kept as
    its reference."""
    m = len(qualify)
    best = None
    i = 0
    while i < m:
        if not qualify[i]:
            i += 1
            continue
        j = i
        sign = 0
        while j + 1 < m and qualify[j + 1] and dz[j] != 0.0:
            step_sign = 1 if dz[j] > 0.0 else -1
            if sign == 0:
                sign = step_sign
            elif step_sign != sign:
                break
            j += 1
        if j > i and (best is None or j - i > best[1] - best[0]):
            best = (i, j)
        i = j + 1 if j == i else j  # a monotone run may restart at its last sample
    return best


@settings(max_examples=300, deadline=None, derandomize=True)
@given(samples=hst.lists(hst.tuples(hst.booleans(), hst.sampled_from([-1.5, -0.0, 0.0, 2.0])),
                         min_size=2, max_size=30))
def test_longest_monotone_run_matches_the_scan_property(samples):
    # Few distinct steps make zero edges, sign flips and tied runs common.
    qualify = np.array([q for q, _ in samples])
    dz = np.array([z for _, z in samples[:-1]])
    assert _longest_monotone_run(qualify, dz) == _longest_monotone_run_scan(qualify, dz)


def test_graph_residual_rejects_bad_axis():
    obj = make_objective([[0.0, 0.0]], kind="squared")
    trace = trace_flow(obj, [1.0, 1.0])
    with pytest.raises(InputError, match="axis"):
        graph_residual(obj, trace, axis=2)


@pytest.mark.parametrize("kind, kwargs", [
    ("euclidean", {}),
    ("squared", {}),
    ("p_norm", dict(p=3.0, epsilon=1e-6)),
])
def test_start_independence_on_convex_objectives(kind, kwargs):
    rng = np.random.default_rng(53)
    obj = make_objective(rng.uniform(0.0, 10.0, size=(6, 2)), kind=kind, **kwargs)
    values = []
    for _ in range(20):
        trace = trace_flow(obj, rng.uniform(-2.0, 12.0, size=2))
        assert trace.status == CONVERGED
        values.append(obj.value(trace.terminal_point))
    values = np.array(values)
    spread = values.max() - values.min()
    assert spread <= 1e-8 * max(1.0, abs(values.min()))


def test_trace_csv_round_trip(tmp_path):
    obj = make_objective([[0.0, 0.0], [4.0, 0.0], [0.0, 3.0]])
    trace = trace_flow(obj, [6.0, 6.0])
    path = tmp_path / "trace.csv"
    trace.write_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "step,Z_1,Z_2,U,grad_norm,step_len"
    assert len(lines) == len(trace) + 1
    for k, line in enumerate(lines[1:]):
        cells = line.split(",")
        assert int(cells[0]) == k
        np.testing.assert_array_equal([float(cells[1]), float(cells[2])], trace.points[k])
        assert float(cells[3]) == trace.values[k]  # 17 significant digits round-trip


def test_compressed_tail_keeps_strict_decrease_and_converges_deep():
    # Near the bottom the per-step decrease falls below one ulp of U; the
    # tracer must keep refining the terminal point without recording value
    # ties, and still reach the tight gradient tolerance.
    rng = np.random.default_rng(77)
    anchors = rng.uniform(0.0, 10.0, size=(30, 2))
    obj = make_objective(anchors, kind="squared")
    trace = trace_flow(obj, [9.0, 9.0], FlowConfig(grad_tol=1e-9))
    assert trace.status == CONVERGED
    assert trace.terminal_grad_norm <= 1e-9
    assert np.all(np.diff(trace.values) < 0.0)
    assert tangency_residual(obj, trace) <= 1e-12  # holds through the folded tail
    centroid = anchors.mean(axis=0)
    np.testing.assert_allclose(trace.terminal_point, centroid, atol=1e-9)


def test_line_search_counters_add_up():
    obj = make_objective([[0.0, 0.0], [4.0, 0.0], [0.0, 3.0]])
    trace = trace_flow(obj, [6.0, 6.0])
    assert trace.status == CONVERGED
    # One gradient at the start and one per accepted step; every
    # value_change call is either the accepted trial or a backtrack.
    assert trace.n_value_changes - trace.n_backtracks == trace.n_gradients - 1
    assert len(trace) <= trace.n_gradients
    hand_built = FlowTrace(trace.points, trace.values, trace.grad_norms, trace.step_lens,
                           trace.status)
    assert (hand_built.n_value_changes, hand_built.n_gradients,
            hand_built.n_backtracks) == (0, 0, 0)


def test_warm_started_search_needs_few_value_changes_per_step():
    # The criterion-9 instance. A search restarting at initial_step every
    # step backtracks about ten times per accepted step here.
    anchors = np.random.default_rng(909).uniform(0.0, 10.0, size=(10_000, 8))
    obj = make_objective(anchors)
    starts = generate_testing_points(TestingPlan("uniform_random", count=8, seed=1),
                                     obj.anchors)
    traces = [trace_flow(obj, s) for s in starts]
    assert all(t.status == CONVERGED for t in traces)
    steps = sum(t.n_gradients - 1 for t in traces)
    assert sum(t.n_value_changes for t in traces) <= 4 * steps


def test_guaranteed_steps_leave_few_backtracks():
    # The first search tries at most the guaranteed step: without it, these 8
    # traces backtracked 57 times.
    anchors = np.random.default_rng(2000).uniform(0.0, 10.0, size=(2_000, 8))
    obj = make_objective(anchors)
    starts = generate_testing_points(TestingPlan("uniform_random", count=8, seed=3),
                                     obj.anchors)
    ends = rest_points(obj, starts, FlowConfig(), False)
    assert ends.statuses == [CONVERGED] * len(starts)
    assert ends.counts[:, 2].sum() <= len(starts)


@hst.composite
def _majorized_points(draw):
    d, n = draw(hst.integers(1, 4)), draw(hst.integers(1, 6))
    scale = 2.0 ** draw(hst.sampled_from([-300, 300]) | hst.integers(-300, 300))
    coord = hst.floats(-10.0, 10.0, allow_nan=False)
    anchors = np.array(draw(hst.lists(hst.lists(coord, min_size=d, max_size=d),
                                      min_size=n, max_size=n))) * scale
    point = np.array(draw(hst.lists(coord, min_size=d, max_size=d))) * scale
    assume(not (anchors == point).all(axis=1).any())
    kind = draw(hst.sampled_from(["euclidean", "weighted_euclidean", "squared"]))
    kwargs = {}
    if kind != "squared":
        kwargs["epsilon"] = draw(hst.sampled_from([None, 0.7]))
    if kind == "weighted_euclidean":
        kwargs["weights"] = tuple(draw(hst.lists(hst.floats(0.1, 10.0), min_size=n,
                                                 max_size=n)))
    return make_objective(anchors, kind, **kwargs), point


@pytest.mark.parametrize("anchors, kwargs, x, cfg", [
    # r^2 and eps^2 underflow: S = 0.
    ([[0.0], [1.69e-199]], dict(epsilon=1.69e-208), [0.0], FlowConfig()),
    # t_safe = 1 / 2 is below min_step.
    ([[0.0, 0.0]], dict(kind="squared"), [4.0, 4.0], FlowConfig(min_step=0.9)),
])
def test_guaranteed_step_caps_nothing_where_it_cannot_apply(monkeypatch, anchors, kwargs, x,
                                                            cfg):
    obj = make_objective(anchors, **kwargs)
    safe = obj._descent_state(np.array([x]), cfg.armijo_c)[2]
    assert safe[0] == np.inf or safe[0] < cfg.min_step
    # So the trace is the one made without a guaranteed step.
    trace = trace_flow(obj, x, cfg)
    monkeypatch.setattr(type(obj._kernel), "majorizes", False)
    assert obj._descent_state(np.array([x]), cfg.armijo_c)[2] is None
    _assert_same_trace(trace, trace_flow(obj, x, cfg))


@pytest.mark.parametrize("kind, armijo_c, factor", [
    # squared's majorizer is U itself: 1/S, its line minimum, passes with
    # margin for c <= 1/2, and (5/3) (1 - c) is the smaller above c = 0.4.
    ("squared", 0.25, 1.0), ("squared", 1e-4, 1.0), ("squared", 0.9, 5.0 / 3.0 * (1.0 - 0.9)),
    ("euclidean", 0.25, 1.25), ("weighted_euclidean", 1e-4, 5.0 / 3.0 * (1.0 - 1e-4)),
])
def test_guaranteed_step_is_at_most_the_exact_line_minimum(kind, armijo_c, factor):
    kwargs = dict(weights=(1.0, 2.0, 0.5, 1.5)) if kind == "weighted_euclidean" else {}
    obj = make_objective(_PINNED_ANCHORS, kind, **kwargs)
    # At c = 0.4, (5/3) (1 - c) is exactly 1: t_safe is 1/S.
    inv_s = obj._descent_state(_PINNED_STARTS[:3], 0.4)[2]
    safe = obj._descent_state(_PINNED_STARTS[:3], armijo_c)[2]
    assert safe.tobytes() == (inv_s * factor).tobytes()


@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=_majorized_points(), armijo_c=hst.sampled_from([0.25, 1e-4, 0.9]))
def test_guaranteed_step_passes_the_armijo_test_property(case, armijo_c):
    obj, x = case
    cfg = FlowConfig(armijo_c=armijo_c, min_step=5e-324)
    g, state, safe = obj._descent_state(x[None], cfg.armijo_c)
    # Each term's gradient, w_i 2 phi'(r_i^2) v_i, from the kernel's weighted
    # slopes, one row per anchor: (1, n, D).
    disp = obj._displacements(x[None])
    terms = (disp * obj._kernel._slopes(disp)[2][..., None, :]).swapaxes(-1, -2)
    gn = np.sqrt(np.vecdot(g, g))
    # The bound holds in exact arithmetic. Where the terms' gradients cancel
    # almost to 0 (near a rest point), the trial's rounding, about ulp(1)
    # t |g| sum_i |grad U_i|, outgrows the margin t |g|^2 (1 - c) / 6 that
    # 5/6 of the bound leaves, and the line search backtracks as before.
    assume(gn[0] > 1e-9 * np.sqrt(np.vecdot(terms, terms)).sum())
    assert 0.0 < safe[0] < np.inf
    gsq = gn * gn
    trial = obj._kernel.trials(state, safe, gsq)
    assert np.isfinite(trial[0]) and trial[0] < 0.0
    assert trial[0] <= -cfg.armijo_c * safe[0] * gsq[0]


def test_steps_grow_across_a_plateau():
    # Between two narrow wells the field is nearly flat; with t capped at
    # initial_step this trace crawls through its whole step budget.
    obj = make_objective([[0.0, 0.0], [10.0, 0.0]], kind="gaussian_well", sigma=0.5)
    trace = trace_flow(obj, [2.0, 0.0])
    assert trace.status == CONVERGED
    assert len(trace) <= 200
    assert np.linalg.norm(trace.terminal_point) <= 1e-6


@pytest.mark.parametrize("kind, kwargs", [
    ("euclidean", {}),
    ("squared", {}),
    ("p_norm", dict(p=3.0)),
    ("gaussian_well", dict(sigma=0.5)),
    ("gaussian_well", dict(sigma=5.0)),
])
@pytest.mark.parametrize("initial_step", [0.01, 1.0, 100.0])
def test_steps_stay_within_the_growth_cap(kind, kwargs, initial_step):
    rng = np.random.default_rng(61)
    obj = make_objective(rng.uniform(0.0, 10.0, size=(6, 2)), kind=kind, **kwargs)
    cfg = FlowConfig(initial_step=initial_step, max_steps=2_000)
    for _ in range(5):
        trace = trace_flow(obj, rng.uniform(-5.0, 15.0, size=2), cfg)
        lengths = np.linalg.norm(trace.step_vectors, axis=1)
        caps = np.maximum(initial_step * trace.grad_norms[:-1], obj.length_scale)
        assert np.all(lengths <= caps * (1.0 + 1e-12))


@pytest.mark.parametrize("start, grad_tol", [
    ([3.9, 0.0], 1e-6),     # |grad U| ~ 2e-6, just above the tolerance
    ([5.0, 0.0], 1e-12),    # |grad U| ~ 1e-10: many doublings before the well
    ([26.0, 0.0], 1e-300),  # |grad U| ~ 1e-292: the cap L/|g| is near overflow
])
def test_nearly_flat_objective_stops(start, grad_tol):
    obj = make_objective([[0.0, 0.0]], kind="gaussian_well")
    trace = trace_flow(obj, start, FlowConfig(grad_tol=grad_tol))
    assert trace.status in (CONVERGED, STALLED, MAX_STEPS)
    assert np.all(np.isfinite(trace.points))


_KIND_PARAMETERS = {
    "euclidean": hst.just({}),
    "squared": hst.just({}),
    "p_norm": hst.builds(dict, p=hst.floats(1.0, 4.0)),
    "gaussian_well": hst.builds(dict, sigma=hst.floats(0.5, 8.0)),
}


@hst.composite
def _descents(draw):
    d = draw(hst.integers(1, 3))
    n = draw(hst.integers(1, 5))
    coord = hst.floats(-10.0, 10.0, allow_nan=False)
    anchors = draw(hst.lists(hst.lists(coord, min_size=d, max_size=d),
                             min_size=n, max_size=n))
    kind = draw(hst.sampled_from([*_KIND_PARAMETERS, "weighted_euclidean"]))
    if kind == "weighted_euclidean":
        kwargs = dict(weights=tuple(draw(hst.lists(hst.floats(0.1, 10.0),
                                                   min_size=n, max_size=n))))
    else:
        kwargs = draw(_KIND_PARAMETERS[kind])
    start = draw(hst.lists(coord, min_size=d, max_size=d))
    return make_objective(anchors, kind=kind, **kwargs), start


@settings(max_examples=60, deadline=None, derandomize=True)
@given(case=_descents())
def test_descent_invariants_property(case):
    obj, start = case
    trace = trace_flow(obj, start, FlowConfig(max_steps=2_000))
    assert np.all(np.diff(trace.values)[1:] < 0.0)
    if len(trace) >= 2:
        assert tangency_residual(obj, trace) <= 1e-12


def _assert_same_trace(a, b):
    for field in ("points", "values", "grad_norms", "step_lens", "step_vectors"):
        np.testing.assert_array_equal(getattr(a, field), getattr(b, field), strict=True)
    assert a.status == b.status
    assert (a.n_value_changes, a.n_gradients, a.n_backtracks) == \
        (b.n_value_changes, b.n_gradients, b.n_backtracks)


@hst.composite
def _blocks(draw):
    obj, start = draw(_descents())
    d = obj.dimension
    coord = hst.floats(-10.0, 10.0, allow_nan=False)
    more = draw(hst.lists(hst.one_of(
        hst.lists(coord, min_size=d, max_size=d),
        hst.sampled_from(obj.anchors.points.tolist())), max_size=7))
    max_steps = draw(hst.sampled_from([1, 4, 2_000]))
    return obj, np.array([start, *more]), FlowConfig(max_steps=max_steps)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(case=_blocks())
# r^2 and eps^2 underflow, so both slopes, and their sum S, are 0: the
# guaranteed step 1/S is inf and the search backtracks as without it.
@example(case=(make_objective([[0.0], [1.69e-199]], epsilon=1.69e-208), np.array([[0.0]]),
               FlowConfig(max_steps=1)))
def test_lockstep_block_equals_single_traces_property(case):
    obj, starts, cfg = case
    assert len(starts) <= obj.block_rows  # one lockstep block
    block = rest_points(obj, starts, cfg, True).traces
    assert len(block) == len(starts)
    for start, trace in zip(starts, block):
        _assert_same_trace(trace, trace_flow(obj, start, cfg))


def _every_way_a_trace_ends():
    obj = make_objective([[0.0, 0.0], [10.0, 0.0], [0.8, 0.0]], kind="gaussian_well",
                         sigma=0.5)
    cfg = FlowConfig(grad_tol=1e-300, max_steps=40)
    starts = np.array([
        [40.0, 40.0],  # every term underflows: at rest before the first step
        [5.0, 1.5],    # |grad U| ~ 1e-33: the accepted step cannot move the point
        [3.0, 0.5],    # still crossing the plateau when the step budget runs out
        [10.0, 0.0],   # on an anchor, |grad U| ~ 1e-145: accepted after 4 backtracks, no move
        [0.0, 0.0],    # on an anchor, descending to the well between two anchors
    ])
    return obj, cfg, starts


def test_lockstep_block_mixes_every_way_a_trace_ends():
    obj, cfg, starts = _every_way_a_trace_ends()
    block = rest_points(obj, starts, cfg, True).traces
    assert [t.status for t in block] == [CONVERGED, STALLED, MAX_STEPS, STALLED, CONVERGED]
    assert len(block[0]) == len(block[1]) == len(block[3]) == 1
    assert block[2].n_gradients == cfg.max_steps + 1
    assert len(block[2]) < block[2].n_gradients  # sub-ulp steps slid the terminal
    for start, trace in zip(starts, block):
        _assert_same_trace(trace, trace_flow(obj, start, cfg))
    # Logging only the terminal samples ends every row at its trace's end.
    ends = rest_points(obj, starts, cfg, False)
    assert ends.traces is None
    assert ends.statuses == [t.status for t in block]
    np.testing.assert_array_equal(ends.points, [t.terminal_point for t in block], strict=True)
    np.testing.assert_array_equal(ends.values, [t.terminal_value for t in block])
    np.testing.assert_array_equal(ends.grad_norms, [t.terminal_grad_norm for t in block])
    np.testing.assert_array_equal(
        ends.counts, [[t.n_value_changes, t.n_gradients, t.n_backtracks] for t in block])


# One small instance of each kind, with the counters and sample counts of its
# traces: gaussian_well's is the one above, the others share these anchors and
# starts, the last of which sits on an anchor.
_PINNED_ANCHORS = [[0.0, 0.0], [4.0, 0.0], [0.0, 3.0], [1.0, 1.0]]
_PINNED_STARTS = np.array([[-1.0, 2.0], [3.0, 3.0], [5.0, -1.0], [1.0, 1.0]])
_PINNED = [
    ("gaussian_well", None,
     [[0, 1, 0], [1, 1, 0], [52, 41, 12], [5, 1, 4], [10, 8, 3]], [1, 1, 38, 1, 6]),
    ("euclidean", {}, [[39, 22, 18], [38, 21, 18], [42, 21, 22], [4, 5, 0]], [20, 20, 19, 4]),
    ("weighted_euclidean", dict(weights=(1.0, 2.0, 0.5, 1.5)),
     [[125, 62, 64], [124, 54, 71], [143, 62, 82], [10, 9, 2]], [57, 52, 57, 7]),
    ("squared", {}, [[1, 2, 0], [1, 2, 0], [1, 2, 0], [1, 2, 0]], [2, 2, 2, 2]),
    ("p_norm", dict(p=3.0), [[48, 27, 22], [44, 23, 22], [46, 23, 24], [33, 6, 28]],
     [25, 22, 21, 4]),
]


@pytest.mark.parametrize("kind, kwargs, counts, samples",
                         [pytest.param(*case, id=case[0]) for case in _PINNED])
def test_lockstep_block_counters_are_pinned(kind, kwargs, counts, samples):
    # The comparisons with trace_flow above run the same loop on both sides,
    # so they cannot see a change that alters both alike. Literal counters
    # (value changes, gradients, backtracks) and sample counts can.
    if kwargs is None:
        obj, cfg, starts = _every_way_a_trace_ends()
    else:
        obj = make_objective(_PINNED_ANCHORS, kind, **kwargs)
        cfg, starts = FlowConfig(), _PINNED_STARTS
    ends = rest_points(obj, starts, cfg, True)
    assert ends.counts.tolist() == counts
    assert [len(t) for t in ends.traces] == samples


def test_barzilai_borwein_trial_skips_coordinates_the_step_left_unchanged():
    # Near the bottom of the well the x component of the gradient is
    # roundoff that cannot move x, while y still descends. With that
    # component in s.s the Barzilai-Borwein trial was huge, only the cap
    # bounded it, and the 40 steps took 468 value changes (428 backtracks).
    obj, cfg, _ = _every_way_a_trace_ends()
    trace = trace_flow(obj, [0.6, 0.5], cfg)
    assert trace.status == STALLED and trace.terminal_point[1] == 0.0
    assert (trace.n_value_changes, trace.n_gradients, trace.n_backtracks) == (39, 29, 10)


def test_lockstep_failure_names_lowest_failing_start(monkeypatch):
    # Corrupt the gradient right of x = 0.5 near the anchor: starts 1 and 3
    # walk into that region (start 3 after fewer steps), 0 and 2 never do.
    obj, one_row_spans, one_row_blocks = (make_objective([[0.0, -2.0]]) for _ in range(3))
    for narrowed, lockstep in ((one_row_spans, 8), (one_row_blocks, 1)):
        object.__setattr__(narrowed, "block_rows", 1)
        object.__setattr__(narrowed, "lockstep_rows", lockstep)
    exact = steiner.potentials._Radial.descent_state

    def corrupted(kernel, disp, armijo_c=None):
        g, state, inv_s = exact(kernel, disp, armijo_c)
        with np.errstate(over="ignore"):  # the far start below reaches the kernel too
            near = (np.linalg.norm(disp, axis=-2) < 3.0) & (disp[..., 0, :] > 0.5)
        g[near.any(axis=-1)] = np.nan
        return g, state, inv_s

    monkeypatch.setattr(steiner.potentials._Radial, "descent_state", corrupted)
    starts = np.array([[-3.0, 4.0], [5.0, 6.0], [-1.0, 1.0], [6.0, 0.5]])
    with pytest.raises(NumericalError) as alone:
        trace_flow(obj, starts[1])
    # Once more with kernel spans of one row, and with one start per block as
    # well, so that a later block raises, with traces and without (where the
    # failing start is traced again alone).
    for obj in (obj, one_row_spans, one_row_blocks):
        with pytest.raises(NumericalError) as info:
            rest_points(obj, starts, FlowConfig(), True)
        assert str(info.value) == f"start 1: {alone.value}"
        assert str(alone.value) == "gradient turned non-finite during descent"
        assert len(info.value.trace) > 1
        _assert_same_trace(info.value.trace, alone.value.trace)
        # Without traces the block logs only terminals; the failing start is
        # traced again alone for its partial trace.
        with pytest.raises(NumericalError) as rest:
            enumerate_critical_points(obj, points=starts)
        assert str(rest.value) == str(info.value)
        _assert_same_trace(rest.value.trace, alone.value.trace)
        with pytest.raises(NumericalError, match="^start 3: "):
            rest_points(obj, starts[[0, 2, 2, 3]], FlowConfig(), True)
        # A higher start whose U is non-finite where it starts does not hide a
        # lower one that fails later, nor the other way round.
        far = [1e300, 1e300]
        with pytest.raises(NumericalError, match="^start 1: gradient turned") as info:
            rest_points(obj, np.array([starts[0], starts[1], far, starts[2]]), FlowConfig(), True)
        _assert_same_trace(info.value.trace, alone.value.trace)
        message = r"^start 1: objective is non-finite .*\(U=inf\)$"
        with pytest.raises(NumericalError, match=message) as info:
            rest_points(obj, np.array([starts[0], far, starts[1], starts[2]]), FlowConfig(), True)
        assert info.value.trace is None
        with pytest.raises(NumericalError, match=message) as info:
            enumerate_critical_points(obj, points=np.array([starts[0], far, starts[1], starts[2]]))
        assert info.value.trace is None


def test_p_norm_descent_from_far_away_reaches_the_anchor():
    # Every Armijo trial was nan here, so the trace stalled at its start. A
    # step of the anchor set's length cannot move a coordinate of 1e103, so
    # initial_step allows longer ones.
    obj = make_objective([[0.0, -2.0]], "p_norm", p=3.0)
    trace = trace_flow(obj, [1e103, 1e103], FlowConfig(initial_step=1e103))
    assert trace.status == CONVERGED and len(trace) > 1
    np.testing.assert_allclose(trace.terminal_point, [0.0, -2.0], atol=1e-6)


def test_lockstep_failure_at_a_start_without_trace():
    obj = make_objective([[0.0, 0.0]], kind="squared")
    starts = np.array([[1.0, 1.0], [1e200, 1e200], [1e300, 0.0]])
    with pytest.raises(NumericalError, match="^start 1: objective is non-finite") as info:
        rest_points(obj, starts, FlowConfig(), True)
    assert info.value.trace is None


def test_a_start_whose_gradient_overflows_is_named():
    # U ~ 1.3e308 is finite at 0.7 and 0.8, but each anchor pulls with its
    # weight, 1e308, and the two pulls add past the float range: the start's
    # own gradient stops the trace.
    obj = make_objective([[0.0], [0.1]], "weighted_euclidean", weights=(1e308, 1e308))
    message = "gradient is non-finite at the starting point"
    with pytest.raises(NumericalError, match=f"^{message}$") as info:
        trace_flow(obj, [0.7])
    trace = info.value.trace
    assert len(trace) == 1 and trace.status == STALLED
    assert (trace.n_value_changes, trace.n_gradients, trace.n_backtracks) == (0, 1, 0)
    for keep_traces in (True, False):
        with pytest.raises(NumericalError, match=f"^start 0: {message}$") as info:
            rest_points(obj, np.array([[0.7], [0.8]]), FlowConfig(), keep_traces)
        _assert_same_trace(info.value.trace, trace)


def test_a_gradient_whose_square_overflows_is_named(monkeypatch):
    # Weights of 1e300 give a finite gradient near 1e300, whose square
    # overflowed with a warning and left the row running on |g| = inf.
    obj = make_objective([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], "weighted_euclidean",
                         weights=(1e300, 1e300, 1e300))
    message = "|grad U|^2 is past the float range at the starting point"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(NumericalError, match=f"^{re.escape(message)}$") as info:
            trace_flow(obj, [2.0, 2.0])
        trace = info.value.trace
        assert len(trace) == 1 and trace.status == STALLED
        assert (trace.n_value_changes, trace.n_gradients, trace.n_backtracks) == (0, 1, 0)
        # Below, g is inf left of -1.5, and finite but 1e300 times too large
        # right of 1.5 and within 0.2 of the anchor. The lowest failing start
        # names its cause; a non-finite component keeps its old message.
        exact = steiner.potentials._Radial.descent_state

        def scaled(kernel, disp, armijo_c=None):
            g, state, inv_s = exact(kernel, disp, armijo_c)
            x = disp[..., 0, 0]
            g[x < -1.5] = np.inf
            g[(x > 1.5) | (np.abs(x) < 0.2)] *= 1e300  # past the float range once squared
            return g, state, inv_s

        monkeypatch.setattr(steiner.potentials._Radial, "descent_state", scaled)
        unit = make_objective([[0.0, 0.0]])
        for starts, message in (([[-2.0, 0.0], [2.0, 0.0]], "gradient is non-finite"),
                                ([[2.0, 0.0], [-2.0, 0.0]], r"\|grad U\|\^2 is past the float")):
            with pytest.raises(NumericalError, match=f"^start 0: {message}"):
                rest_points(unit, np.array(starts), FlowConfig(), True)
        # The first step from 0.5 lands within 0.2 of the anchor.
        with pytest.raises(NumericalError) as info:
            trace_flow(unit, [0.5, 0.0])
        assert str(info.value) == "|grad U|^2 is past the float range during descent"
        trace = info.value.trace
        assert len(trace) == 1 and trace.status == STALLED
        assert (trace.n_value_changes, trace.n_gradients, trace.n_backtracks) == (1, 2, 0)


@pytest.mark.parametrize("kind, kwargs, anchors, far, near", [
    ("euclidean", {}, [[0.0, 0.0], [1.0, 0.0]], [1.7e308, 1.7e308], [0.3, 0.2]),
    ("squared", {}, [[0.0, 0.0], [1.0, 0.0]], [1e200, 1e200], [0.3, 0.2]),
    # At -0.5 the nearer pull, 2e308, is inf as well; U ~ 1.2e308 at the
    # median 0.6, where the pulls, 1.7e308 each, cancel.
    ("weighted_euclidean", dict(weights=(1e308, 1e308)), [[0.0], [1.2]], [-0.5], [0.6]),
    ("p_norm", {}, [[0.0, 0.0], [1.0, 0.0]], [1.7e308, 1.7e308], [0.3, 0.2]),
])
def test_a_start_whose_value_is_non_finite_fails_first_without_warnings(kind, kwargs, anchors,
                                                                         far, near):
    # U at the starts comes from the state their gradient leaves, so the
    # gradient at ``far`` is formed too; U still fails first, and quietly.
    obj = make_objective(anchors, kind, **kwargs)
    message = r"objective is non-finite at the starting point \(U=inf\)$"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(NumericalError, match=f"^{message}") as info:
            trace_flow(obj, far)
        assert info.value.trace is None
        for keep_traces in (True, False):
            for starts, k in (([near, far], 1), ([far, near], 0)):
                with pytest.raises(NumericalError, match=f"^start {k}: {message}"):
                    rest_points(obj, np.array(starts), FlowConfig(), keep_traces)
        # The finite start beside it starts at value()'s U and traces as in a
        # block of its own.
        alone = trace_flow(obj, near)
        together = rest_points(obj, np.array([near, near]), FlowConfig(), True).traces
    assert alone.values[0] == obj.value(near)
    for trace in together:
        _assert_same_trace(trace, alone)


@pytest.mark.parametrize("kind, kwargs, n", [
    ("euclidean", {}, 5_000),
    ("squared", {}, 5_000),  # its carry is None in every span
    ("gaussian_well", dict(sigma=2.0), 5_000),
    ("p_norm", dict(p=3.0), 1_700),
], ids=["euclidean", "squared", "gaussian_well", "p_norm"])
def test_kernel_spans_narrower_than_the_block_keep_single_traces(kind, kwargs, n):
    # A row's footprint, 8 n floats for the radial kinds and 24 n for p_norm
    # at D = 2, leaves block_rows 3: the 11 starts are one lockstep block
    # whose state is formed in spans of 3 and 4 rows, fewer as rows stop.
    rng = np.random.default_rng(26)
    obj = make_objective(rng.uniform(0.0, 10.0, size=(n, 2)), kind, **kwargs)
    assert obj.block_rows == 3
    starts = rng.uniform(-2.0, 12.0, size=(11, 2))
    starts[-1] = obj.anchors.points[0]
    cfg = FlowConfig(max_steps=200)
    singles = [trace_flow(obj, start, cfg) for start in starts]
    block = rest_points(obj, starts, cfg, True)
    for trace, single in zip(block.traces, singles, strict=True):
        _assert_same_trace(trace, single)
    ends = rest_points(obj, starts, cfg, False)
    assert ends.statuses == block.statuses == [t.status for t in singles]
    np.testing.assert_array_equal(ends.points, [t.terminal_point for t in singles], strict=True)
    np.testing.assert_array_equal(
        ends.counts, [[t.n_value_changes, t.n_gradients, t.n_backtracks] for t in singles])


@pytest.mark.parametrize("kind, kwargs, n, d, m, blocks", [
    ("euclidean", {}, 16, 3, 2048, 2),
    ("p_norm", dict(p=3.0), 16, 3, 2048, 9),
    ("euclidean", {}, 10_000, 8, 8, 1),
    ("gaussian_well", dict(sigma=2.0), 10_000, 8, 8, 1),
    ("p_norm", dict(p=3.0), 2_000, 8, 8, 2),
    ("p_norm", dict(p=3.0), 10_000, 8, 2, 2),
    ("euclidean", {}, 100_000, 3, 4, 4),
], ids=["euclidean", "p_norm", "euclidean-large-n", "gaussian_well-large-n", "p_norm-large-n",
        "p_norm-huge-n", "euclidean-huge-n"])
def test_lockstep_blocks_stay_within_the_footprint_that_sizes_them(monkeypatch, kind, kwargs,
                                                                   n, d, m, blocks):
    # Objective sizes block_rows and lockstep_rows from one float budget and
    # the kernel's two figures, row_floats (a row's peak footprint) and
    # kept_floats (what each further row of a lockstep block adds). Each
    # block of a 2048-start, n = 16, D = 3 solve must peak within its rows'
    # footprints and a fixed slack; a step that kept the searched state alive
    # while forming the next one would hold about 3 n more per row. Where
    # block_rows is 1, a block of several starts is formed one row per kernel
    # span: only the widest span peaks at its footprint, and every other row
    # adds its kept floats. A block that kept all its rows' displacements
    # alive would hold D n more per row. lockstep_rows is 6 at n = 10 000,
    # D = 8 (the 8 starts are still one block), 3 for p_norm at n = 2 000,
    # D = 8, and 1 for p_norm at 10 000 and for the radial kinds at 100 000,
    # where each start is its own block.
    rng = np.random.default_rng(0)
    obj = make_objective(rng.uniform(0.0, 10.0, size=(n, d)), kind, **kwargs)
    footprint, kept = obj._kernel.row_floats(n, d), obj._kernel.kept_floats(n, d)
    starts = rng.uniform(-2.0, 12.0, size=(m, d))
    peaks = []
    descend = steiner.flow._descend

    def traced(obj, block, *args):
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        out = descend(obj, block, *args)
        peaks.append((len(block), tracemalloc.get_traced_memory()[1] - base))
        return out

    monkeypatch.setattr(steiner.flow, "_descend", traced)
    tracemalloc.start()
    try:
        rest_points(obj, starts, FlowConfig(), False)
    finally:
        tracemalloc.stop()
    assert [rows for rows, _ in peaks] == [m * (k + 1) // blocks - m * k // blocks
                                           for k in range(blocks)]
    for rows, peak in peaks:
        widest = max(hi - lo for lo, hi in obj.block_spans(rows))
        bound = widest * footprint + (rows - widest) * kept
        assert peak <= bound * 8 + 16 * 1024, (rows, peak / (rows * n * 8))


@pytest.mark.parametrize("d, m, sizes", [
    (2, 17, [8, 9]),      # 2 * 8 + 1 starts: no 1-row tail block
    (2, 4, [4]),          # fewer starts than the lockstep width: one block
    (8, 3, [3]),          # block_rows 1: one block, one row per kernel span
])
def test_rest_points_splits_starts_into_near_equal_blocks(monkeypatch, d, m, sizes):
    # A lockstep block is Objective.lockstep_rows wide and its kernel calls
    # block_rows: 8 and 5 for D = 2 at 3 000 anchors, 6 and 1 for D = 8 at
    # 10 000.
    n = {2: 3_000, 8: 10_000}[d]
    obj = make_objective(np.random.default_rng(8).uniform(0.0, 10.0, size=(n, d)))
    assert (obj.lockstep_rows, obj.block_rows) == {2: (8, 5), 8: (6, 1)}[d]
    starts = np.random.default_rng(9).uniform(0.0, 10.0, size=(m, d))
    cfg = FlowConfig(max_steps=30)
    blocks, steps = [], []
    descend, state_of = steiner.flow._descend, Objective._descent_state
    descent_state = steiner.potentials._Radial.descent_state

    def counted(obj, starts, *args):
        blocks.append(len(starts))
        return descend(obj, starts, *args)

    def spanned(kernel, disp, armijo_c=None):
        steps[-1][1].append(len(disp))
        return descent_state(kernel, disp, armijo_c)

    def stepped(obj, points, armijo_c=None):
        steps.append((len(points), []))
        return state_of(obj, points, armijo_c)

    monkeypatch.setattr(steiner.flow, "_descend", counted)
    monkeypatch.setattr(steiner.potentials._Radial, "descent_state", spanned)
    monkeypatch.setattr(Objective, "_descent_state", stepped)
    ends = rest_points(obj, starts, cfg, True)
    assert blocks == sizes
    # Each step forms the running rows' state in kernel calls of one row at
    # D = 8 and of all of them at D = 2, where a block is under 2 * block_rows.
    assert len(steps) > len(sizes)
    for rows, spans in steps:
        assert spans == ([1] * rows if d == 8 else [rows])
    monkeypatch.undo()
    singles = [trace_flow(obj, start, cfg) for start in starts]
    for trace, single in zip(ends.traces, singles):
        _assert_same_trace(trace, single)
    assert ends.statuses == [t.status for t in singles]
    np.testing.assert_array_equal(ends.points, [t.terminal_point for t in singles], strict=True)
    np.testing.assert_array_equal(
        ends.counts, [[t.n_value_changes, t.n_gradients, t.n_backtracks] for t in singles])
    # A start that fails in the last block is named by its index among all starts.
    starts[-1] = 1e200
    with pytest.raises(NumericalError, match=f"^start {m - 1}: objective is non-finite"):
        rest_points(obj, starts, cfg, False)
