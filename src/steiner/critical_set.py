"""Multi-start enumeration of rest points and selection of the Steiner point.

One descent trace finds one member of the critical set {x : grad U(x) = 0};
running traces from a whole plan of testing points, clustering the rest
points they reach, and comparing cluster values identifies the Steiner
point as the argmin. Saddles and maxima reached from symmetric starts are
legitimate members of the set: they stay in the reported critical set,
flagged by a negative-curvature probe, and lose the value comparison
unless they genuinely are the minimum.
"""

import warnings
from dataclasses import dataclass, replace

import numpy as np

from .core import AnchorSet, Objective
from .errors import ConfigError, InputError, NoCriticalPointError
from .flow import CONVERGED, MAX_STEPS, STALLED, FlowConfig, FlowTrace, trace_flows
from .flow import trace_flow  # noqa: F401  (benchmarks/spans.py wraps it here)

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

    __test__ = False  # keep pytest from collecting this Test*-named class

    strategy: str = "grid"
    count: int = 16
    domain_box: tuple[tuple[float, float], ...] | None = None
    seed: int = 0

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise ConfigError(
                f"testing_plan.strategy: unknown strategy {self.strategy!r}; "
                f"expected one of {', '.join(STRATEGIES)}")
        if not self.count >= 1:
            raise ConfigError(f"testing_plan.count: must be >= 1, got {self.count}")
        if not 0 <= self.seed < 2 ** 64:
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
    this cluster; ``negative_curvature`` flags points where a second
    difference probe found a descent direction (saddle or maximum).
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
    """Anchor bounding box expanded by ``margin`` of each side length.

    Axes on which all anchors coincide fall back to the overall diagonal
    (or 1.0 for a single point) so the box is never degenerate.
    """
    lo, hi = anchors.bounding_box()
    span = hi - lo
    fallback = anchors.diagonal() or 1.0
    pad = margin * np.where(span > 0.0, span, fallback)
    return tuple((float(l - p), float(h + p)) for l, h, p in zip(lo, hi, pad))


def _box_geometry(box):
    lo = np.array([b[0] for b in box])
    hi = np.array([b[1] for b in box])
    return lo, hi, float(np.linalg.norm(hi - lo))


def generate_testing_points(plan: TestingPlan, anchors: AnchorSet | None = None) -> np.ndarray:
    """Deterministic testing points for ``plan``; shape (m, D).

    ``anchors`` supplies the default box and the jitter centers, so it is
    required when the plan has no explicit box or uses the
    ``anchors_jittered`` strategy.
    """
    if plan.domain_box is None:
        if anchors is None:
            raise ConfigError(
                "testing_plan.domain_box: required when no anchors are supplied")
        box = default_domain_box(anchors)
    else:
        box = plan.domain_box
    lo, hi, diagonal = _box_geometry(box)
    d = len(box)
    if np.any(lo >= hi):
        k = int(np.flatnonzero(lo >= hi)[0])
        raise ConfigError(f"testing_plan.domain_box[{k}]: degenerate interval "
                          f"[{lo[k]}, {hi[k]}]")

    if plan.strategy == "grid":
        per_axis = 1
        while per_axis ** d < plan.count:
            per_axis += 1
        axes = [np.linspace(a, b, per_axis) if per_axis > 1 else np.array([(a + b) / 2.0])
                for a, b in zip(lo, hi)]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack(mesh, axis=-1).reshape(-1, d)
    if plan.strategy == "uniform_random":
        rng = np.random.default_rng(plan.seed)
        return rng.uniform(lo, hi, size=(plan.count, d))
    # anchors_jittered
    if anchors is None:
        raise ConfigError("testing_plan.strategy: anchors_jittered needs anchors")
    rng = np.random.default_rng(plan.seed)
    radius = 0.01 * diagonal
    jitter = rng.uniform(-1.0, 1.0, size=(anchors.n, d)) * (radius / np.sqrt(d))
    return np.clip(anchors.points + jitter, lo, hi)


def _single_linkage(points: np.ndarray, radius: float) -> list[list[int]]:
    """Chains of points within ``radius`` of a member merge into one cluster.

    ``points`` must be sorted on axis 0. A sweep compares each point with
    the later points whose axis-0 coordinate lies within ``2 * radius`` of
    its own (twice, so that rounding in the window bound never hides a pair
    the distance test accepts) and are not yet in its component, and
    unites it with those within ``radius`` (the Euclidean distance as
    ``np.linalg.norm`` computes it); every component's root is its smallest
    index. Clusters come in the order of their smallest member, members in
    ascending order. (The incremental merge this replaced listed merged
    members out of order, so where cluster members tie exactly in value the
    representative chosen from them may differ from before.)
    """
    parent = np.arange(len(points))

    def roots(idx):
        r = parent[idx]
        while True:
            up = parent[r]
            if np.array_equal(up, r):
                return r
            r = up

    ends = np.searchsorted(points[:, 0], points[:, 0] + 2.0 * radius, side="right")
    for i, end in enumerate(ends.tolist()):
        tops = roots(np.arange(i, end))
        # Pairs already in one component need no distance.
        later = i + 1 + np.flatnonzero(tops[1:] != tops[0])
        if not later.size:
            continue
        diff = points[later] - points[i]
        near = later[np.sqrt(np.add.reduce(diff * diff, axis=1)) <= radius]
        if near.size:
            linked = np.append(near, i)
            tops = roots(linked)
            parent[tops] = parent[linked] = tops.min()
    labels = roots(np.arange(len(points)))
    order = np.argsort(labels, kind="stable")
    return [c.tolist() for c in np.split(order, np.flatnonzero(np.diff(labels[order])) + 1)]


def _probe_negative_curvature(obj: Objective, x: np.ndarray, scale: float,
                              rng: np.random.Generator) -> bool:
    """Second-difference probe along axes and random directions."""
    d = x.size
    delta = max(1e-5 * scale, 1e-9)
    dirs = list(np.eye(d))
    for _ in range(d):
        v = rng.normal(size=d)
        dirs.append(v / np.linalg.norm(v))
    steps = delta * np.array(dirs)
    u = obj.value_many(np.concatenate([x[None, :], x + steps, x - steps]))
    u0, plus, minus = u[0], u[1:2 * d + 1], u[2 * d + 1:]
    diffs = (plus - 2.0 * u0 + minus) / (delta * delta)
    return bool(diffs.min() < -1e-7 * max(1.0, float(np.abs(diffs).max())))


def enumerate_critical_points(obj: Objective, plan: TestingPlan | None = None,
                              cfg: FlowConfig | None = None,
                              cluster_radius: float | None = None, *,
                              points: np.ndarray | None = None,
                              keep_traces: bool = False,
                              threads: int = 1) -> SteinerResult:
    """Trace descent from every testing point and reduce to the critical set.

    Converged terminals are sorted, clustered by single linkage at
    ``cluster_radius`` (default 1e-4 of the box diagonal), and each
    cluster's lowest-value member is re-polished by continuing descent at
    a tenth of the gradient tolerance. Raises
    :class:`NoCriticalPointError` when no trace converges. ``points``
    overrides the generated testing points (the plan still supplies box
    and seed), which callers use to transform start sets consistently.
    The testing points, and then the cluster representatives, are traced
    in lockstep blocks (:func:`~steiner.flow.trace_flows`). ``threads`` is
    deprecated and ignored.
    """
    if threads != 1:
        warnings.warn("enumerate_critical_points: threads is ignored; the testing points "
                      "are traced in lockstep", DeprecationWarning, stacklevel=2)
    plan = plan or TestingPlan()
    cfg = cfg or FlowConfig()
    box = plan.domain_box if plan.domain_box is not None else default_domain_box(obj.anchors)
    lo, hi, diagonal = _box_geometry(box)
    outside = (obj.anchors.points < lo) | (obj.anchors.points > hi)
    if np.any(outside):
        bad = int(np.flatnonzero(outside.any(axis=1))[0])
        raise ConfigError(f"testing_plan.domain_box: anchor {bad} lies outside the box")
    plan = replace(plan, domain_box=tuple((float(a), float(b)) for a, b in zip(lo, hi)))

    if points is None:
        points = generate_testing_points(plan, obj.anchors)
    else:
        points = obj.check_points(points)

    if cluster_radius is None:
        cluster_radius = DEFAULT_CLUSTER_RADIUS_FACTOR * diagonal
    if not cluster_radius > 0.0:
        raise ConfigError(f"cluster_radius: must be > 0, got {cluster_radius}")

    # Keep only each trace's end unless the caller wants the traces, so that
    # one block of traces is alive at a time.
    statuses: list[str] = []
    terminals = np.empty((len(points), obj.dimension))
    values = np.empty(len(points))
    traces = [] if keep_traces else None
    for k, trace in enumerate(trace_flows(obj, points, cfg)):
        statuses.append(trace.status)
        terminals[k], values[k] = trace.terminal_point, trace.terminal_value
        if keep_traces:
            traces.append(trace)

    diagnostics = {
        "testing_points": len(points),
        "converged": statuses.count(CONVERGED),
        "stalled": statuses.count(STALLED),
        "max_steps": statuses.count(MAX_STEPS),
    }
    converged = np.array(statuses) == CONVERGED
    if not converged.any():
        raise NoCriticalPointError(
            "no descent run reached a rest point; see diagnostics", diagnostics)

    terminals, values = terminals[converged], values[converged]
    # Sort terminals first so the reduction is deterministic regardless of
    # trace execution order.
    order = np.lexsort(terminals.T[::-1])
    terminals, values = terminals[order], values[order]

    polish_cfg = replace(cfg, grad_tol=cfg.grad_tol / 10.0)
    clusters = _single_linkage(terminals, cluster_radius)
    # Members are in ascending order, so an exact value tie picks the
    # lexicographically smallest terminal.
    bests = [members[int(np.argmin(values[members]))] for members in clusters]
    reps: list[tuple[np.ndarray, float, float, int]] = []
    for members, best, polished in zip(clusters, bests,
                                       trace_flows(obj, terminals[bests], polish_cfg)):
        loc, gn = polished.terminal_point, polished.terminal_grad_norm
        if gn > cfg.grad_tol:
            loc = terminals[best]
            gn = float(np.linalg.norm(obj.gradient(loc)))
        reps.append((loc, obj.value(loc), gn, len(members)))

    # Polishing can pull formerly distinct clusters together; merge until
    # all representatives are pairwise farther apart than the radius.
    merged = True
    while merged and len(reps) > 1:
        merged = False
        for i in range(len(reps)):
            for j in range(i + 1, len(reps)):
                if np.linalg.norm(reps[i][0] - reps[j][0]) <= cluster_radius:
                    keep, drop = reps[i], reps[j]
                    if (drop[1], tuple(drop[0])) < (keep[1], tuple(keep[0])):
                        keep, drop = drop, keep
                    reps[i] = (keep[0], keep[1], keep[2], keep[3] + drop[3])
                    del reps[j]
                    merged = True
                    break
            if merged:
                break

    probe_rng = np.random.default_rng(plan.seed + 0x5EED)
    crit = [CriticalPoint(location=loc, value=val, grad_norm=gn, basin_count=bc,
                          negative_curvature=_probe_negative_curvature(
                              obj, loc, diagonal, probe_rng))
            for loc, val, gn, bc in reps]
    crit.sort(key=lambda c: (c.value, tuple(c.location)))

    degenerate = any(
        abs(crit[i].value - crit[j].value)
        <= DEGENERACY_RTOL * max(abs(crit[i].value), abs(crit[j].value))
        for i in range(len(crit)) for j in range(i + 1, len(crit)))
    diagnostics["clusters"] = len(crit)
    diagnostics["degenerate_clusters"] = bool(degenerate)

    return SteinerResult(steiner=select_steiner(crit), critical_set=crit,
                         diagnostics=diagnostics,
                         traces=traces)


def select_steiner(critical_set: list[CriticalPoint]) -> CriticalPoint:
    """Argmin by value; ties within 1e-12 relative break to the
    lexicographically smallest coordinates."""
    if not critical_set:
        raise InputError("critical_set: cannot select from an empty set")
    vmin = min(c.value for c in critical_set)
    tied = [c for c in critical_set
            if abs(c.value - vmin) <= 1e-12 * max(abs(c.value), abs(vmin))]
    return min(tied, key=lambda c: tuple(c.location))
