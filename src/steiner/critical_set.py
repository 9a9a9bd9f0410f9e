"""Multi-start enumeration of rest points and selection of the Steiner point.

One descent trace finds one member of the critical set {x : grad U(x) = 0};
running traces from a whole plan of testing points, clustering the rest
points they reach, and comparing cluster values identifies the Steiner
point as the argmin. Saddles and maxima reached from symmetric starts are
legitimate members of the set: they stay in the reported critical set,
flagged where the analytic Hessian of U has a negative eigenvalue, and
lose the value comparison unless they genuinely are the minimum.
"""

from dataclasses import dataclass, replace

import numpy as np

from .core import GRID_CELL_LIMIT, AnchorSet, Objective, distances, is_integer
from .errors import ConfigError, InputError, NoCriticalPointError
from .flow import CONVERGED, MAX_STEPS, STALLED, FlowConfig, FlowTrace, rest_points
from .flow import trace_flow  # noqa: F401  (benchmarks/spans.py wraps it here)
from .potentials import CONVEX_KINDS

STRATEGIES = ("grid", "uniform_random", "anchors_jittered")

DEFAULT_CLUSTER_RADIUS_FACTOR = 1e-4
DEGENERACY_RTOL = 1e-9


@dataclass(frozen=True)
class TestingPlan:
    """How to scatter descent starting points over a domain box.

    ``domain_box=None`` derives the box from the anchors with a 20% margin
    per axis. ``grid`` rounds ``count`` up to the nearest full lattice;
    ``anchors_jittered`` ignores ``count`` and emits one point per anchor,
    jittered by up to 1% of the box diagonal.
    """

    strategy: str = "grid"
    count: int = 16
    domain_box: tuple[tuple[float, float], ...] | None = None
    seed: int = 0

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise ConfigError(
                f"testing_plan.strategy: unknown strategy {self.strategy!r}; "
                f"expected one of {', '.join(STRATEGIES)}")
        if not (is_integer(self.count) and self.count >= 1):
            raise ConfigError(f"testing_plan.count: must be an integer >= 1, got {self.count}")
        if not (is_integer(self.seed) and 0 <= self.seed < 2 ** 64):
            raise ConfigError(
                f"testing_plan.seed: must be a non-negative 64-bit integer, got {self.seed}")
        if self.domain_box is not None:
            box = tuple((float(lo), float(hi)) for lo, hi in self.domain_box)
            for k, (lo, hi) in enumerate(box):
                if not (np.isfinite(lo) and np.isfinite(hi)):
                    raise ConfigError(f"testing_plan.domain_box[{k}]: bounds must be finite")
                if lo >= hi:
                    raise ConfigError(
                        f"testing_plan.domain_box[{k}]: degenerate interval [{lo}, {hi}]")
            object.__setattr__(self, "domain_box", box)


@dataclass(frozen=True, eq=False)
class CriticalPoint:
    """One deduplicated rest point.

    ``basin_count`` is the number of testing points whose traces ended in
    this cluster; ``negative_curvature`` flags a saddle or maximum: the
    Hessian of U has an eigenvalue below -1e-7 of its largest magnitude (or
    of 1). A convex kind has none, so its points are not tested.
    """

    location: np.ndarray
    value: float
    grad_norm: float
    basin_count: int
    negative_curvature: bool = False


@dataclass(frozen=True, eq=False)
class SteinerResult:
    """Outcome of a multi-start enumeration.

    ``critical_set`` is sorted by (value, coordinates); ``steiner`` is its
    argmin by value with lexicographic tie-break. ``traces`` holds the
    per-testing-point traces when the caller kept them, in testing-point
    order.
    """

    steiner: CriticalPoint
    critical_set: list[CriticalPoint]
    diagnostics: dict
    traces: list[FlowTrace] | None = None


def default_domain_box(anchors: AnchorSet, margin: float = 0.2) -> tuple[tuple[float, float], ...]:
    """Anchor bounding box expanded by ``margin`` of each side length,
    clamped to the finite float range.

    Axes on which all anchors coincide fall back to the overall diagonal
    (or 1.0 for a single point), or to 2**-20 of the coordinate's magnitude
    where that is larger, so the box is never degenerate, not even where
    the fallback is below one ulp of the coordinate.
    """
    lo, hi = anchors.bounding_box()
    fallback = anchors.diagonal() or 1.0
    top = np.finfo(float).max
    with np.errstate(over="ignore"):  # a margin past the float range stops at its end
        span = hi - lo
        pad = margin * np.where(span > 0.0, span, np.maximum(fallback, 2.0 ** -20 * np.abs(lo)))
        lo, hi = np.maximum(lo - pad, -top), np.minimum(hi + pad, top)
    return tuple((float(l), float(h)) for l, h in zip(lo, hi))


def plan_domain_box(plan: TestingPlan,
                    anchors: AnchorSet | None) -> tuple[tuple[float, float], ...]:
    """The plan's domain box, else the anchor box with its margin. Either is
    refused where its diagonal is past the float range: no spread of points
    over it, nor a length scaled from it, is finite."""
    if plan.domain_box is not None:
        if anchors is not None and len(plan.domain_box) != anchors.dimension:
            raise ConfigError(
                f"testing_plan.domain_box: expected {anchors.dimension} [lo, hi] pairs")
        box = plan.domain_box
    elif anchors is None:
        raise ConfigError("testing_plan.domain_box: required when no anchors are supplied")
    else:
        box = default_domain_box(anchors)
    if box_geometry(box)[2] == np.inf:
        raise ConfigError("testing_plan.domain_box: the diagonal of "
                          f"{[list(pair) for pair in box]} is past the float range")
    return box


def box_geometry(box) -> tuple[np.ndarray, np.ndarray, float]:
    """Per-axis lower and upper bounds of ``box`` and its diagonal length."""
    lo, hi = np.array(box, dtype=float).T
    return lo, hi, float(distances(lo, hi)[0])


def generate_testing_points(plan: TestingPlan, anchors: AnchorSet | None = None) -> np.ndarray:
    """Deterministic testing points for ``plan``; shape (m, D).

    ``anchors`` supplies the default box and the jitter centers, so it is
    required when the plan has no explicit box or uses the
    ``anchors_jittered`` strategy. A ``grid`` or ``uniform_random`` plan of
    more than ``GRID_CELL_LIMIT`` points is refused before any is made.
    """
    lo, hi, diagonal = box_geometry(plan_domain_box(plan, anchors))
    d = len(lo)
    size = plan.count
    if plan.strategy == "grid":
        # The smallest side whose lattice holds count points: below the
        # guard, the rounded float root falls at most one short of it.
        per_axis = round(min(plan.count, GRID_CELL_LIMIT + 1) ** (1.0 / d))
        per_axis += per_axis ** d < plan.count
        size = per_axis ** d
    if plan.strategy != "anchors_jittered" and size > GRID_CELL_LIMIT:
        raise ConfigError(
            f"testing_plan.count: a {plan.strategy} plan of {plan.count} over {d} axes "
            f"makes more than {GRID_CELL_LIMIT} testing points")
    rng = np.random.default_rng(plan.seed)
    if plan.strategy == "grid":
        # Near the float maximum linspace's last sum may round past it;
        # linspace then sets that point to b.
        with np.errstate(over="ignore"):
            axes = [np.linspace(a, b, per_axis) if per_axis > 1 else np.array([(a + b) / 2.0])
                    for a, b in zip(lo, hi)]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack(mesh, axis=-1).reshape(-1, d)
    if plan.strategy == "uniform_random":
        return rng.uniform(lo, hi, size=(plan.count, d))
    # anchors_jittered
    if anchors is None:
        raise ConfigError("testing_plan.strategy: anchors_jittered needs anchors")
    jitter = rng.uniform(-1.0, 1.0, size=(anchors.n, d)) * (0.01 * diagonal / np.sqrt(d))
    return np.clip(anchors.points + jitter, lo, hi)


def _single_linkage(points: np.ndarray, radius: float) -> list[list[int]]:
    """Chains of points within ``radius`` of a member merge into one cluster.

    Two points are linked when, lexsorted, the later one's axis-0
    coordinate lies within ``2 * radius`` of the earlier one's (twice, so
    that rounding in this window bound never hides a pair the distance test
    accepts) and their Euclidean distance, as :func:`~steiner.core.distances`
    computes it without under- or overflow, is at most ``radius``. The
    clusters are the components of the links.

    One vectorised pass links each lexsorted point to its successor, and
    each maximal run of linked points starts as one component. A point
    whose window ends inside its own run links nothing new, so a sweep
    visits only the points whose window reaches past their run's end. Each
    run carries the label of its component, the smallest run index in it;
    the sweep compares a point with the points past its run in its window
    whose label differs from its own, and those within ``radius`` merge
    their components under the smallest label. Clusters are lists of
    indices into ``points`` in the order of their smallest index, members
    in the lexicographic order of their points (equal points in input
    order).
    """
    perm = np.lexsort(points.T[::-1])
    points = points[perm]
    with np.errstate(over="ignore"):
        ends = np.searchsorted(points[:, 0], points[:, 0] + 2.0 * radius, side="right")
    linked = ((np.arange(1, len(points)) < ends[:-1])
              & (distances(points[1:], points[:-1]) <= radius))
    run = np.append(0, np.cumsum(~linked))
    stops = np.append(np.flatnonzero(~linked) + 1, len(points))
    label = np.arange(len(stops))
    for i in np.flatnonzero(ends > stops[run]).tolist():
        own, end = run[i], ends[i]
        stop = stops[own]
        later = stop + np.flatnonzero(label[run[stop:end]] != label[own])
        if not later.size:
            continue
        near = later[distances(points[later], points[i]) <= radius]
        if near.size:
            merged = np.append(label[run[near]], label[own])
            last = run[end - 1] + 1
            member = np.zeros(last, dtype=bool)
            member[merged] = True
            # No run precedes its label; every linked run lies before last.
            span = label[merged.min():last]
            span[member[span]] = merged.min()
    label = label[run]
    order = np.argsort(label, kind="stable")
    clusters = np.split(perm[order], np.flatnonzero(np.diff(label[order])) + 1)
    return sorted((c.tolist() for c in clusters), key=min)


def _negative_curvature(obj: Objective, points: np.ndarray) -> np.ndarray:
    """True at each row of ``points`` where the smallest eigenvalue of the
    Hessian of U is below -1e-7 of the largest magnitude (or of 1)."""
    eig = np.linalg.eigvalsh(obj._per_row(obj._kernel.hessian, points))
    return eig[:, 0] < -1e-7 * np.maximum(1.0, np.abs(eig).max(axis=1))


def _degenerate(values: list[float]) -> bool:
    """Whether two of the ascending ``values`` agree within ``DEGENERACY_RTOL``.
    Adjacent pairs suffice: a pair within it has one sign, and the adjacent
    pair at its end nearer zero is no farther apart."""
    return any(abs(a - b) <= DEGENERACY_RTOL * max(abs(a), abs(b))
               for a, b in zip(values, values[1:]))


def enumerate_critical_points(obj: Objective, plan: TestingPlan | None = None,
                              cfg: FlowConfig | None = None,
                              cluster_radius: float | None = None, *,
                              points: np.ndarray | None = None,
                              keep_traces: bool = False) -> SteinerResult:
    """Trace descent from every testing point and reduce to the critical set.

    Converged terminals are clustered by single linkage at
    ``cluster_radius`` (default 1e-4 of the box diagonal, refused where that
    underflows to 0), and each cluster's lowest-value member is re-polished
    by continuing descent at a tenth of the gradient tolerance (the least
    subnormal where that rounds to 0); the same single linkage then merges
    polished representatives that came within the radius. Raises
    :class:`NoCriticalPointError` when no trace converges. ``points``
    overrides the generated testing points (the plan still supplies the
    box), which callers use to transform start sets consistently.
    The testing points, and then the cluster representatives, are traced
    in lockstep blocks (:func:`~steiner.flow.rest_points`).
    """
    plan = plan or TestingPlan()
    cfg = cfg or FlowConfig()
    box = plan_domain_box(plan, obj.anchors)
    lo, hi, diagonal = box_geometry(box)
    anchor_lo, anchor_hi = obj.anchors.bounding_box()
    if np.any(anchor_lo < lo) or np.any(anchor_hi > hi):
        outside = (obj.anchors.points < lo) | (obj.anchors.points > hi)
        bad = int(np.flatnonzero(outside.any(axis=1))[0])
        raise ConfigError(f"testing_plan.domain_box: anchor {bad} lies outside the box")

    if points is None:
        points = generate_testing_points(plan, obj.anchors)
    else:
        points = obj.check_points(points)
        if not len(points):
            raise InputError("points: expected at least one row")

    if cluster_radius is None:
        cluster_radius = DEFAULT_CLUSTER_RADIUS_FACTOR * diagonal
        if cluster_radius == 0.0:
            raise ConfigError(f"cluster_radius: the default, {DEFAULT_CLUSTER_RADIUS_FACTOR:g} of "
                              f"the domain box diagonal {diagonal!r}, underflows to 0")
    if not 0.0 < cluster_radius < np.inf:
        raise ConfigError(f"cluster_radius: must be finite and > 0, got {cluster_radius}")

    ends = rest_points(obj, points, cfg, keep_traces)
    statuses = ends.statuses
    value_changes, gradients, backtracks = ends.counts.sum(axis=0).tolist()
    diagnostics = {
        "testing_points": len(points),
        "converged": statuses.count(CONVERGED),
        "stalled": statuses.count(STALLED),
        "max_steps": statuses.count(MAX_STEPS),
        # Work of the testing-point traces: every value change is an
        # accepted step or a backtrack.
        "accepted_steps": value_changes - backtracks,
        "value_changes": value_changes,
        "gradients": gradients,
        "backtracks": backtracks,
        "unconverged": [{"start": k, "status": status, "terminal": ends.points[k].tolist()}
                        for k, status in enumerate(statuses) if status != CONVERGED],
    }
    converged = np.array(statuses) == CONVERGED
    if not converged.any():
        raise NoCriticalPointError(
            "no descent run reached a rest point; see diagnostics", diagnostics)

    terminals, values = ends.points[converged], ends.values[converged]

    # A tenth of a subnormal grad_tol may round to 0, which no tolerance is.
    polish_cfg = replace(cfg, grad_tol=max(cfg.grad_tol / 10.0,
                                           float(np.finfo(float).smallest_subnormal)))
    clusters = _single_linkage(terminals, cluster_radius)
    # Members come in lexicographic order, so an exact value tie picks the
    # lexicographically smallest terminal.
    reps = [members[int(np.argmin(values[members]))] for members in clusters]
    starts = terminals[reps]
    polished = rest_points(obj, starts, polish_cfg, False)
    locs, grad_norms = polished.points, polished.grad_norms
    failed = grad_norms > cfg.grad_tol
    locs[failed] = starts[failed]
    grad_norms[failed] = ends.grad_norms[converged][reps][failed]
    fresh = obj.value_many(locs)

    # Polishing can pull formerly distinct clusters together: re-cluster the
    # representatives. Each group keeps its lowest-(value, coordinates)
    # member (members come lexsorted, so argmin breaks value ties by
    # coordinates) and comes in the order of its first representative.
    groups = _single_linkage(locs, cluster_radius)
    keep = [g[int(np.argmin(fresh[g]))] for g in groups]
    basins = [sum(len(clusters[r]) for r in g) for g in groups]

    if obj.potential.kind in CONVEX_KINDS:
        flags = np.zeros(len(keep), dtype=bool)
    else:
        flags = _negative_curvature(obj, locs[keep])
    crit = [CriticalPoint(location=locs[r], value=float(fresh[r]),
                          grad_norm=float(grad_norms[r]), basin_count=count,
                          negative_curvature=bool(flag))
            for r, count, flag in zip(keep, basins, flags)]
    crit.sort(key=lambda c: (c.value, tuple(c.location)))

    diagnostics["clusters"] = len(crit)
    diagnostics["degenerate_clusters"] = _degenerate([c.value for c in crit])

    return SteinerResult(steiner=select_steiner(crit), critical_set=crit,
                         diagnostics=diagnostics, traces=ends.traces)


def select_steiner(critical_set: list[CriticalPoint]) -> CriticalPoint:
    """Argmin by value; ties within 1e-12 relative break to the
    lexicographically smallest coordinates."""
    if not critical_set:
        raise InputError("critical_set: cannot select from an empty set")
    vmin = min(c.value for c in critical_set)
    tied = [c for c in critical_set
            if abs(c.value - vmin) <= 1e-12 * max(abs(c.value), abs(vmin))]
    return min(tied, key=lambda c: tuple(c.location))
