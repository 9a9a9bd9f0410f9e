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

from .core import AnchorSet, Objective, is_integer
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
    (or 1.0 for a single point), or to 2**-20 of the coordinate's magnitude
    where that is larger, so the box is never degenerate, not even where
    the fallback is below one ulp of the coordinate.
    """
    lo, hi = anchors.bounding_box()
    span = hi - lo
    fallback = anchors.diagonal() or 1.0
    pad = margin * np.where(span > 0.0, span, np.maximum(fallback, 2.0 ** -20 * np.abs(lo)))
    return tuple((float(l - p), float(h + p)) for l, h, p in zip(lo, hi, pad))


def plan_domain_box(plan: TestingPlan | None,
                    anchors: AnchorSet | None) -> tuple[tuple[float, float], ...]:
    """The plan's domain box, else the anchor box with its margin."""
    if plan is not None and plan.domain_box is not None:
        if anchors is None or len(plan.domain_box) == anchors.dimension:
            return plan.domain_box
        raise ConfigError(f"testing_plan.domain_box: expected {anchors.dimension} [lo, hi] pairs")
    if anchors is None:
        raise ConfigError("testing_plan.domain_box: required when no anchors are supplied")
    return default_domain_box(anchors)


def box_geometry(box) -> tuple[np.ndarray, np.ndarray, float]:
    """Per-axis lower and upper bounds of ``box`` and its diagonal length."""
    lo, hi = np.array(box, dtype=float).T
    return lo, hi, float(np.linalg.norm(hi - lo))


def generate_testing_points(plan: TestingPlan, anchors: AnchorSet | None = None) -> np.ndarray:
    """Deterministic testing points for ``plan``; shape (m, D).

    ``anchors`` supplies the default box and the jitter centers, so it is
    required when the plan has no explicit box or uses the
    ``anchors_jittered`` strategy.
    """
    lo, hi, diagonal = box_geometry(plan_domain_box(plan, anchors))
    d = len(lo)
    rng = np.random.default_rng(plan.seed)
    if plan.strategy == "grid":
        per_axis = 1
        while per_axis ** d < plan.count:
            per_axis += 1
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

    The points are lexsorted; a sweep compares each with the later ones
    whose axis-0 coordinate lies within ``2 * radius`` of its own (twice, so
    that rounding in the window bound never hides a pair the distance test
    accepts) and whose label, the smallest sorted position in its component,
    differs from its own. Those within ``radius`` (the Euclidean distance as
    ``np.linalg.norm(..., axis=1)`` computes it) merge their components
    under the smallest label. Clusters are lists of indices into ``points``
    in the order of their smallest index, members in the lexicographic
    order of their points (equal points in input order).
    """
    perm = np.lexsort(points.T[::-1])
    points = points[perm]
    label = np.arange(len(points))
    ends = np.searchsorted(points[:, 0], points[:, 0] + 2.0 * radius, side="right")
    for i, end in enumerate(ends.tolist()):
        later = i + 1 + np.flatnonzero(label[i + 1:end] != label[i])
        if not later.size:
            continue
        diff = points[later] - points[i]
        near = later[np.sqrt(np.add.reduce(diff * diff, axis=1)) <= radius]
        if near.size:
            merged = np.append(label[near], label[i])
            member = np.zeros(end, dtype=bool)
            member[merged] = True
            # No member precedes its label; every linked point lies before end.
            span = label[merged.min():end]
            span[member[span]] = merged.min()
    order = np.argsort(label, kind="stable")
    clusters = np.split(perm[order], np.flatnonzero(np.diff(label[order])) + 1)
    return sorted((c.tolist() for c in clusters), key=min)


def _row_norms(v: np.ndarray) -> np.ndarray:
    """Norm of each row of ``v``, bit for bit ``np.linalg.norm(row)`` (the same
    BLAS dot product; ``np.linalg.norm(v, axis=-1)`` sums differently)."""
    return np.sqrt(np.vecdot(v, v))


def _probe_negative_curvature(obj: Objective, points: np.ndarray, scale: float,
                              rng: np.random.Generator) -> np.ndarray:
    """Second-difference probes along the axes and D random directions at each
    row of ``points``; True where some probe curves downward."""
    k, d = points.shape
    delta = max(1e-5 * scale, 1e-9)
    v = rng.normal(size=(k, d, d))
    dirs = np.concatenate([np.broadcast_to(np.eye(d), (k, d, d)),
                           v / _row_norms(v)[..., None]], axis=1)
    x, steps = points[:, None, :], delta * dirs
    probes = np.concatenate([x, x + steps, x - steps], axis=1)
    u = obj.value_many(probes.reshape(-1, d)).reshape(k, 1 + 4 * d)
    u0, plus, minus = u[:, :1], u[:, 1:2 * d + 1], u[:, 2 * d + 1:]
    diffs = (plus - 2.0 * u0 + minus) / (delta * delta)
    return diffs.min(axis=1) < -1e-7 * np.maximum(1.0, np.abs(diffs).max(axis=1))


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
                              keep_traces: bool = False,
                              threads: int = 1) -> SteinerResult:
    """Trace descent from every testing point and reduce to the critical set.

    Converged terminals are sorted, clustered by single linkage at
    ``cluster_radius`` (default 1e-4 of the box diagonal), and each
    cluster's lowest-value member is re-polished by continuing descent at
    a tenth of the gradient tolerance; the same single linkage then merges
    polished representatives that came within the radius. Raises
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
    box = plan_domain_box(plan, obj.anchors)
    lo, hi, diagonal = box_geometry(box)
    outside = (obj.anchors.points < lo) | (obj.anchors.points > hi)
    if np.any(outside):
        bad = int(np.flatnonzero(outside.any(axis=1))[0])
        raise ConfigError(f"testing_plan.domain_box: anchor {bad} lies outside the box")
    plan = replace(plan, domain_box=box)

    if points is None:
        points = generate_testing_points(plan, obj.anchors)
    else:
        points = obj.check_points(points)
        if not len(points):
            raise InputError("points: expected at least one row")

    if cluster_radius is None:
        cluster_radius = DEFAULT_CLUSTER_RADIUS_FACTOR * diagonal
    if not 0.0 < cluster_radius < np.inf:
        raise ConfigError(f"cluster_radius: must be finite and > 0, got {cluster_radius}")

    # Keep only each trace's end unless the caller wants the traces, so that
    # one block of traces is alive at a time.
    statuses: list[str] = []
    terminals = np.empty((len(points), obj.dimension))
    values = np.empty(len(points))
    work = np.zeros(3, dtype=int)
    traces = [] if keep_traces else None
    for k, trace in enumerate(trace_flows(obj, points, cfg)):
        statuses.append(trace.status)
        terminals[k], values[k] = trace.terminal_point, trace.terminal_value
        work += trace.n_value_changes, trace.n_gradients, trace.n_backtracks
        if keep_traces:
            traces.append(trace)

    value_changes, gradients, backtracks = work.tolist()
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
        "unconverged": [{"start": k, "status": status, "terminal": terminals[k].tolist()}
                        for k, status in enumerate(statuses) if status != CONVERGED],
    }
    converged = np.array(statuses) == CONVERGED
    if not converged.any():
        raise NoCriticalPointError(
            "no descent run reached a rest point; see diagnostics", diagnostics)

    terminals, values = terminals[converged], values[converged]
    # Sorted terminals order the clusters, and so the kept points, by their
    # lexicographically smallest member; the curvature probe draws its random
    # directions in that order.
    order = np.lexsort(terminals.T[::-1])
    terminals, values = terminals[order], values[order]

    polish_cfg = replace(cfg, grad_tol=cfg.grad_tol / 10.0)
    clusters = _single_linkage(terminals, cluster_radius)
    # Members come in lexicographic order, so an exact value tie picks the
    # lexicographically smallest terminal.
    starts = terminals[[members[int(np.argmin(values[members]))] for members in clusters]]
    locs, grad_norms = starts.copy(), np.empty(len(starts))
    for k, polished in enumerate(trace_flows(obj, starts, polish_cfg)):
        locs[k], grad_norms[k] = polished.terminal_point, polished.terminal_grad_norm
    failed = grad_norms > cfg.grad_tol
    locs[failed] = starts[failed]
    grad_norms[failed] = _row_norms(obj.gradient_many(starts[failed]))
    fresh = obj.value_many(locs)

    # Polishing can pull formerly distinct clusters together: re-cluster the
    # representatives. Each group keeps its lowest-(value, coordinates)
    # member (members come lexsorted, so argmin breaks value ties by
    # coordinates) and comes in the order of its first representative.
    groups = _single_linkage(locs, cluster_radius)
    keep = [g[int(np.argmin(fresh[g]))] for g in groups]
    basins = [sum(len(clusters[r]) for r in g) for g in groups]

    probe_rng = np.random.default_rng(plan.seed + 0x5EED)
    flags = _probe_negative_curvature(obj, locs[keep], diagonal, probe_rng)
    crit = [CriticalPoint(location=locs[r], value=float(fresh[r]),
                          grad_norm=float(grad_norms[r]), basin_count=count,
                          negative_curvature=bool(flag))
            for r, count, flag in zip(keep, basins, flags)]
    crit.sort(key=lambda c: (c.value, tuple(c.location)))

    diagnostics["clusters"] = len(crit)
    diagnostics["degenerate_clusters"] = _degenerate([c.value for c in crit])

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
