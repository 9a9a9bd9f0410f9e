"""Independent reference solvers used to validate the flow method.

Weiszfeld and the centroid measure U themselves, sharing only the anchor set
and ``core.distances`` with the solver, so agreement with a flow result is a
genuine cross-check. The lattice scan evaluates its caller's ``Objective``.
"""

import math
from dataclasses import dataclass

import numpy as np

from .core import GRID_CELL_LIMIT, AnchorSet, Objective, distances, is_integer
from .errors import ConfigError, InputError


@dataclass(frozen=True, eq=False)
class OracleReport:
    """Result of one oracle run.

    ``iterations`` counts fixed-point iterations for Weiszfeld and lattice
    cells scanned for the grid search (0 for the closed-form centroid).
    ``history`` carries per-iteration objective values when the caller
    requested them.
    """

    location: np.ndarray
    value: float
    iterations: int
    method: str
    converged: bool = True
    history: tuple[float, ...] | None = None


def weiszfeld(anchors: AnchorSet, weights=None, tol: float = 1e-10,
              max_iter: int = 10_000, collect_history: bool = False) -> OracleReport:
    """Geometric-median fixed-point iteration, started from the weighted mean.

    Each iteration is one Vardi-Zhang step (Vardi & Zhang, PNAS 97, 2000):
    with d_j = |x - a_j|, eta the weight of the anchors within ``tol`` of x
    (x first snapped to the nearest of them) and R = sum_j (w_j / d_j)(a_j - x)
    the pull of the others,

    x <- x if |R| <= eta, else x + (1 - eta / |R|) R / sum_j (w_j / d_j)

    Away from the anchors that is Weiszfeld's map; at an anchor, |R| <= eta
    is Kuhn's optimality test, so an optimal anchor is returned exactly.
    Stops when the step length drops to ``tol``, which must lie below the
    anchors' bounding-box diagonal unless they coincide; if the budget runs
    out the last iterate is returned flagged unconverged. The value and
    ``history`` are sum_j w_j d_j, with the caller's weights and the lengths
    of :func:`~steiner.core.distances`; inf past the float range.
    """
    if not isinstance(anchors, AnchorSet):
        anchors = AnchorSet(anchors)
    if not (np.isfinite(tol) and tol > 0.0):
        raise InputError(f"tol: must be finite and > 0, got {tol}")
    if not (is_integer(max_iter) and max_iter >= 1):
        raise InputError(f"max_iter: must be an integer >= 1, got {max_iter}")
    a, n = anchors.points, anchors.n
    w = np.ones(n) if weights is None else np.asarray(weights, dtype=float)
    if w.shape != (n,) or not np.all(np.isfinite(w)) or np.any(w <= 0.0):
        raise InputError(f"weights: expected {n} finite positive entries")
    if 0.0 < (diagonal := anchors.diagonal()) <= tol:  # all within tol of the start
        raise InputError(
            f"tol: must be below the anchors' bounding-box diagonal {diagonal}, got {tol}")
    # The iteration and _mean are homogeneous in w: a power of 2 that brings
    # its largest entry into [0.5, 1) moves no iterate, and keeps the weight
    # sums and w_j / d_j finite.
    scaled = np.ldexp(w, -np.frexp(w.max())[1])
    history: list[float] = []

    def value(x):
        with np.errstate(over="ignore"):
            return float((w * distances(x, a)).sum())

    def report(x, iterations, converged):
        return OracleReport(
            location=np.array(x), value=value(x), iterations=iterations,
            method="weiszfeld", converged=converged,
            history=tuple(history) if collect_history else None)

    if n == 1:
        return report(a[0], 0, True)

    x = _mean(a, scaled)
    if collect_history:
        history.append(value(x))
    for it in range(1, max_iter + 1):
        d = distances(x, a)
        i = int(np.argmin(d))
        if d[i] < tol:
            x = a[i]
        far = d >= tol
        # The step is homogeneous in the w_j / d_j and eta too: where the
        # nearest far anchor is within 0.5, a power of 2 that brings its d_j
        # into [0.5, 1) keeps every w_j / d_j at most 2. It is exact, so it
        # moves no iterate that was finite without it.
        shift = int(np.frexp(d[far].min(initial=0.5))[1])
        inv = np.ldexp(scaled[far], shift) / d[far]
        pull = inv @ (a[far] - x)
        r, eta = distances(pull, 0.0)[0], np.ldexp(scaled[~far].sum(), shift)
        x_new = x if r <= eta else x + (1.0 - eta / r) * pull / inv.sum()
        step = distances(x_new, x)[0]
        x = x_new
        if collect_history:
            history.append(value(x))
        if step <= tol:
            return report(x, it, True)
    return report(x, max_iter, False)


def _mean(a: np.ndarray, w: np.ndarray) -> np.ndarray:
    """The ``w``-weighted mean of the rows of ``a``. Where the plain one
    overflows, each axis is summed scaled by a power of 2 that brings its
    largest magnitude into [0.5, 1); only there, as a scaled sum drops terms
    that survive cancellation in the plain one."""
    with np.errstate(over="ignore"):
        mean = (w[:, None] * a).sum(axis=0) / w.sum()
    if np.isfinite(mean).all():
        return mean
    e = np.frexp(np.abs(a).max(axis=0))[1]
    return np.ldexp((w[:, None] * np.ldexp(a, -e)).sum(axis=0) / w.sum(), e)


def centroid(anchors: AnchorSet) -> OracleReport:
    """Closed-form minimizer of the squared potential: the anchor mean (see
    :func:`_mean`), with value sum_j |loc - a_j|^2; inf past the float range."""
    if not isinstance(anchors, AnchorSet):
        anchors = AnchorSet(anchors)
    loc = _mean(anchors.points, np.ones(anchors.n))
    with np.errstate(over="ignore"):
        diff = loc - anchors.points
        value = float(np.vecdot(diff, diff).sum())
    return OracleReport(location=loc, value=value, iterations=0, method="centroid")


def grid_search(obj: Objective, box, spacing: float) -> OracleReport:
    """Brute-force scan of a regular lattice over ``box``.

    The lattice runs from each axis ``lo`` in steps of ``spacing`` up to
    ``hi``; scan order is lexicographic in the coordinates and value ties
    keep the lexicographically smallest point. The cells are evaluated in
    the spans of :meth:`Objective.block_spans`. Refuses lattices above
    ``GRID_CELL_LIMIT`` cells.
    """
    if not (np.isfinite(spacing) and spacing > 0.0):
        raise ConfigError(f"spacing: must be finite and > 0, got {spacing}")
    box = [(float(lo), float(hi)) for lo, hi in box]
    d = obj.dimension
    if len(box) != d:
        raise ConfigError(f"box: expected {d} axes, got {len(box)}")
    counts = []
    for k, (lo, hi) in enumerate(box):
        if not (np.isfinite(lo) and np.isfinite(hi) and lo <= hi):
            raise ConfigError(f"box[{k}]: expected finite lo <= hi, got [{lo}, {hi}]")
        cells = (hi - lo) / spacing * (1.0 + 1e-12)
        if not np.isfinite(cells):
            raise ConfigError(f"box[{k}]: [{lo}, {hi}] in steps of {spacing} exceeds "
                              f"the {GRID_CELL_LIMIT} cell guard")
        counts.append(math.floor(cells) + 1)
    total = math.prod(counts)
    if total > GRID_CELL_LIMIT:
        # str() of an int stops at 4300 digits.
        shown = total if total < 10 ** 20 else f"about 10^{math.log10(total):.0f}"
        raise ConfigError(
            f"box: lattice of {shown} cells exceeds the {GRID_CELL_LIMIT} cell guard")

    axes = [lo + np.arange(c) * spacing for (lo, _), c in zip(box, counts)]
    best_val = np.inf
    best_flat = -1
    for lo, hi in obj.block_spans(total):
        flat = np.arange(lo, hi)
        multi = np.unravel_index(flat, counts)
        pts = np.column_stack([axes[k][multi[k]] for k in range(d)])
        vals = obj.value_many(pts)
        k = int(np.argmin(vals))  # first occurrence: lexicographic tie-break
        if vals[k] < best_val:
            best_val = float(vals[k])
            best_flat = int(flat[k])
    multi = np.unravel_index(best_flat, counts)
    loc = np.array([axes[k][multi[k]] for k in range(d)])
    return OracleReport(location=loc, value=best_val, iterations=total,
                        method="grid")
