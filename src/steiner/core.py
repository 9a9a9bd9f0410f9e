"""Points, anchor sets, and the total potential objective U(x) = sum_i U_i(x - a_i)."""

from dataclasses import dataclass
from numbers import Integral

import numpy as np

from .errors import InputError
from .potentials import PotentialSpec, as_vector, kernel
# benchmarks/spans.py wraps these here by name.
from .potentials import batch_gradients, batch_value_changes, batch_values  # noqa: F401

Point = np.ndarray
"""A D-dimensional coordinate vector (1-D float array)."""

# The float budget of a block, which sets both widths of
# ``Objective.block_spans`` from the two figures each kind's kernel gives
# (``potentials.kernel``, both traced with tracemalloc): ``row_floats``, what
# one row holds at the peak of a descent step, and ``kept_floats``, what each
# further row of a lockstep block adds to that peak.
# - A kernel call takes ``block_rows`` = max(1, _BLOCK_FLOATS // row_floats)
#   rows. On the benchmark's 2048-start, n = 16, D = 3 euclidean workload
#   (2-core x86 VM, medians of 6 runs) a solve took 0.034, 0.029 and 0.032 s
#   at 2**16, 2**17 and 2**18, in 4, 2 and 1 blocks, at a peak RSS of 39.1,
#   39.5 and 41.1 MiB: one block of all 2048 rows is both slower and larger.
# - A lockstep block (``flow.rest_points``) takes ``lockstep_rows`` =
#   max(block_rows, min(_LOCKSTEP_ROWS, 4 * _BLOCK_FLOATS // kept_floats))
#   starts, so where one row is over budget the starts still step together,
#   each row's state formed in its own kernel call. The floor of 8 shrinks
#   so that its rows keep at most four budgets (2**19 floats, 4 MiB), down
#   to none where one row would keep more. The 8 starts of the benchmark's
#   n = 10 000, D = 8 euclidean workload, whose block_rows is 1, took
#   27.6 ms to enumerate as eight blocks and 24.2 ms as one (medians of 40
#   alternating runs), at a tracemalloc peak of 0.9 and 3.1 MiB.
_BLOCK_FLOATS = 2 ** 17
_LOCKSTEP_ROWS = 8

# The most testing points a grid or random plan makes, and the most cells a
# lattice scan evaluates.
GRID_CELL_LIMIT = 100_000_000

_TINY = np.finfo(float).tiny  # the least normal float


def is_integer(value) -> bool:
    """Whether ``value`` is a Python or numpy integer (a bool is not)."""
    return isinstance(value, Integral) and not isinstance(value, bool)


def as_point(coords) -> np.ndarray:
    """Coerce ``coords`` to a finite 1-D float vector.

    Rejects empty, multi-dimensional, and non-finite input eagerly so that
    descent diagnostics never see NaN/Inf coordinates.
    """
    return as_vector(coords, "point")


def _check_finite_rows(rows: np.ndarray, name: str) -> None:
    """Raise :class:`InputError` naming ``name[k]``, k the first row of ``rows``
    not finite. The whole array is tested first, a tenth of the cost of a
    test per row, which runs only to find the row."""
    if not np.isfinite(rows).all():
        bad = np.flatnonzero(~np.isfinite(rows).all(axis=1))
        raise InputError(f"{name}[{bad[0]}]: coordinates must be finite")


def distances(a, b) -> np.ndarray:
    """|a - b| for each row (a pair of points is one row): bit for bit
    ``np.linalg.norm`` of the row where its squared sum is normal or the gap
    is 0, else from the gaps scaled by their largest magnitude, so that a
    length is 0 or inf only where it is itself; inf, without a warning, past
    the float range."""
    with np.errstate(over="ignore"):
        diff = np.atleast_2d(np.subtract(a, b, dtype=float))
        sq = np.vecdot(diff, diff)
        dist = np.sqrt(sq)
        if sq.min(initial=np.inf) >= _TINY and sq.max(initial=0.0) < np.inf:  # all normal
            return dist
        redo = np.flatnonzero((sq < _TINY) | (sq == np.inf))
        if redo.size:
            scale = np.abs(diff[redo]).max(axis=1)
            usable = (scale > 0.0) & (scale < np.inf)
            redo, scale = redo[usable], scale[usable]
            unit = diff[redo] / scale[:, None]
            dist[redo] = scale * np.sqrt(np.vecdot(unit, unit))
    return dist


@dataclass(frozen=True, eq=False)
class AnchorSet:
    """The n fixed points the objective sums distance potentials to.

    Duplicate anchors are allowed; they simply double that term. The
    coordinate array is made read-only so instances can be shared across
    concurrent evaluations. Construction checks it once, as a whole (a row
    is named only when that fails), and keeps its bounding box.
    """

    points: np.ndarray

    def __post_init__(self):
        arr = np.array(self.points, dtype=float)
        if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
            raise InputError(
                f"anchors: expected shape (n >= 1, dimension >= 1), got {arr.shape}")
        _check_finite_rows(arr, "anchors")
        arr.flags.writeable = False
        object.__setattr__(self, "points", arr)
        lo, hi = arr.min(axis=0), arr.max(axis=0)
        lo.flags.writeable = hi.flags.writeable = False
        object.__setattr__(self, "_box", (lo, hi))

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def dimension(self) -> int:
        return self.points.shape[1]

    def bounding_box(self):
        """(lo, hi) per-coordinate bounds of the anchors, read-only."""
        return self._box

    def diagonal(self) -> float:
        return float(distances(*self._box)[0])


@dataclass(frozen=True, eq=False)
class Objective:
    """Total field over an anchor set with one potential kind.

    Construction binds the potential spec to the anchors: the automatic
    smoothing length is resolved from the bounding-box diagonal (so a spec
    without one is refused where that diagonal is past the float range)
    and per-anchor weights are length-checked. ``length_scale`` keeps that
    diagonal (or, when all anchors coincide, the magnitude fallback that
    stands in for it); the descent tracer caps its steps with it.
    :meth:`block_spans` is the one rule by which batches are split into
    blocks, and construction sizes both its widths from one float budget
    (see ``_BLOCK_FLOATS``): ``block_rows``, its default, is the width of
    one kernel call's rows, and ``lockstep_rows``, never less, that of the
    lockstep blocks of :func:`~steiner.flow.rest_points`. Public methods
    check their input, the kernels do not. Instances are immutable and all
    evaluation methods are pure.
    """

    anchors: AnchorSet
    potential: PotentialSpec

    def __post_init__(self):
        anchors = self.anchors
        if not isinstance(anchors, AnchorSet):
            anchors = AnchorSet(anchors)
            object.__setattr__(self, "anchors", anchors)
        scale = anchors.diagonal()
        if scale == np.inf and self.potential.epsilon is None:
            raise InputError("anchors: the diagonal of their bounding box is past the float "
                             "range, so no smoothing length can be scaled from it")
        if scale == 0.0:
            scale = max(1.0, float(np.abs(anchors.points).max()))
        object.__setattr__(self, "length_scale", scale)
        # The anchors as (D, n), so the kernels reduce anchors contiguously.
        object.__setattr__(self, "_anchor_columns", np.ascontiguousarray(anchors.points.T))
        spec = self.potential.bound(scale, anchors.n)
        object.__setattr__(self, "potential", spec)
        object.__setattr__(self, "_kernel", kernel(spec))
        n, d = anchors.n, anchors.dimension
        block_rows = max(1, _BLOCK_FLOATS // self._kernel.row_floats(n, d))
        object.__setattr__(self, "block_rows", block_rows)
        kept_cap = 4 * _BLOCK_FLOATS // self._kernel.kept_floats(n, d)
        object.__setattr__(self, "lockstep_rows",
                           max(block_rows, min(_LOCKSTEP_ROWS, kept_cap)))

    @property
    def dimension(self) -> int:
        return self.anchors.dimension

    def check_point(self, point) -> np.ndarray:
        x = as_point(point)
        if x.size != self.anchors.dimension:
            raise InputError(
                f"point: dimension {x.size} does not match anchor dimension "
                f"{self.anchors.dimension}")
        return x

    def value(self, point) -> float:
        """U at ``point``."""
        return float(self._per_row(self._kernel.values, self.check_point(point)[None, :])[0])

    def gradient(self, point) -> np.ndarray:
        """Gradient of U at ``point`` (the force on a test particle is its negative)."""
        return self._per_row(self._kernel.gradient, self.check_point(point)[None, :])[0]

    def value_change(self, point, move) -> float:
        """U(point + move) - U(point), summed from each anchor's cancellation-free change.

        Decreases far below one ulp of U remain resolvable; plain
        subtraction of two evaluations would round them to zero. The
        README's "Accuracy of value changes" bounds each anchor's error.
        """
        x = self.check_point(point)
        m = np.asarray(move, dtype=float)
        if m.shape != x.shape:
            raise InputError(f"move: expected shape {x.shape}, got {m.shape}")
        if not np.all(np.isfinite(m)):
            raise InputError("move: coordinates must be finite")
        return float(self._per_row(self._kernel.changes, x[None, :], m[None, :])[0])

    def check_points(self, points) -> np.ndarray:
        """Coerce ``points`` to a finite (m, D) float array, as :meth:`check_point` does one."""
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != self.anchors.dimension:
            raise InputError(
                f"points: expected shape (m, {self.anchors.dimension}), got {pts.shape}")
        _check_finite_rows(pts, "points")
        return pts

    def block_spans(self, m: int, width: int | None = None):
        """Rows [lo, hi) of each block of a batch of ``m`` rows: max(1, m //
        ``width``) consecutive blocks of near-equal size, so each holds fewer
        than 2 * ``width`` rows and none is a short tail. ``width`` is
        ``block_rows`` unless given. An empty batch is one empty span."""
        count = max(1, m // (width or self.block_rows))
        return ((m * k // count, m * (k + 1) // count) for k in range(count))

    # Unchecked evaluation goes to ``_kernel`` (see ``potentials.kernel``),
    # whose methods take displacements x - a_i, shape (rows, D, n), and give
    # per-row totals; ``_descent_state`` forms the displacements span by span.

    def _displacements(self, points: np.ndarray) -> np.ndarray:
        return points[:, :, None] - self._anchor_columns

    def _descent_state(self, points: np.ndarray, armijo_c: float | None = None):
        """The kernel's ``descent_state`` over the spans of :meth:`block_spans`,
        so a lockstep block wider than ``block_rows`` holds one span's
        displacements at a time. The first span's results shape arrays for
        the whole block (a None column stays None), and the kernel writes
        each later span's rows into them."""
        spans = self.block_spans(len(points))
        lo, hi = next(spans)
        g, state, safe = self._kernel.descent_state(self._displacements(points[lo:hi]),
                                                    armijo_c)
        if hi == len(points):
            return g, state, safe
        joined = [None if c is None else np.empty((len(points), *c.shape[1:]), c.dtype)
                  for c in (g, *state, safe)]
        for out, column in zip(joined, (g, *state, safe)):
            if out is not None:
                out[lo:hi] = column
        del g, state, safe
        for lo, hi in spans:
            self._kernel.descent_state(self._displacements(points[lo:hi]), armijo_c,
                                       [None if out is None else out[lo:hi] for out in joined])
        return joined[0], joined[1:-1], joined[-1]

    def _per_row(self, kernel, points, *moves) -> np.ndarray:
        """Evaluate ``kernel`` at checked ``points`` (shape (m, D)) and
        ``moves`` (each one move per row) over the spans of
        :meth:`block_spans`: each row's result is bit for bit what the
        single-point method gives."""
        out = [kernel(self._displacements(points[lo:hi]), *(mv[lo:hi] for mv in moves))
               for lo, hi in self.block_spans(len(points))]
        return out[0] if len(out) == 1 else np.concatenate(out)

    def value_many(self, points) -> np.ndarray:
        """U at each row of ``points``."""
        return self._per_row(self._kernel.values, self.check_points(points))

    def gradient_many(self, points) -> np.ndarray:
        """Gradient of U at each row of ``points``; shape (m, D)."""
        return self._per_row(self._kernel.gradient, self.check_points(points))

    def value_change_many(self, points, moves) -> np.ndarray:
        """:meth:`value_change` for each row of ``points`` and the same row of ``moves``."""
        pts, mv = self.check_points(points), np.asarray(moves, dtype=float)
        if mv.shape != pts.shape:
            raise InputError(f"moves: expected shape {pts.shape}, got {mv.shape}")
        _check_finite_rows(mv, "moves")
        return self._per_row(self._kernel.changes, pts, mv)


def objective_value(obj: Objective, point) -> float:
    """Total potential at ``point``."""
    return obj.value(point)


def gradient(obj: Objective, point) -> np.ndarray:
    """Analytic gradient of the total potential at ``point``."""
    return obj.gradient(point)


def finite_difference_gradient(obj: Objective, point, h: float) -> np.ndarray:
    """Central-difference gradient, the independent check on :func:`gradient`.

    Deliberately naive (2 D plain evaluations of U) so it shares no
    derivative code with the analytic path.
    """
    x = obj.check_point(point)
    return _central_differences(obj, x[None, :], h)[0]


def _central_differences(obj: Objective, points: np.ndarray, h: float) -> np.ndarray:
    """Central-difference gradients at each row of ``points``; shape (m, D).

    ``h`` must move every coordinate it probes and keep U finite at every
    probe: else a difference is 0 or nan, and checks no gradient.
    """
    if not (np.isfinite(h) and h > 0.0):
        raise InputError(f"h: step must be finite and > 0, got {h}")
    m, d = points.shape
    probes = np.repeat(points[:, None, :], 2 * d, axis=1)
    idx = np.arange(d)
    with np.errstate(over="ignore"):
        probes[:, 2 * idx, idx] += h
        probes[:, 2 * idx + 1, idx] -= h
    if ((probes[:, 2 * idx, idx] == points) | (probes[:, 2 * idx + 1, idx] == points)).any():
        raise InputError(f"h: must move each coordinate of every sampled point, got {h}")
    flat = probes.reshape(-1, d)
    if not (np.isfinite(flat).all() and np.isfinite(vals := obj.value_many(flat)).all()):
        raise InputError(f"h: must keep U finite at every central-difference probe, got {h}")
    vals = vals.reshape(m, 2 * d)
    return (vals[:, 0::2] - vals[:, 1::2]) / (2.0 * h)


def max_relative_gradient_error(obj: Objective, points, h: float) -> float:
    """Worst relative disagreement between analytic and central-difference gradients.

    U must be finite and > 0 at every point (an InputError names the first
    that is not): where it is inf or underflows to 0 no gradient is checked.
    Each point's disagreement first loses sqrt(D) 2^-52 U(x) / h, the central
    difference's own rounding. The denominator is
    floored at 1e-5 of the largest gradient magnitude in the batch (and at
    1e-5 absolute) so that numerically flat regions do not dominate. Lengths
    are :func:`distances`, finite wherever they are representable.
    """
    pts = obj.check_points(points)
    u = obj.value_many(pts)
    bad = np.flatnonzero(~((u > 0.0) & (u < np.inf)))
    if bad.size:
        raise InputError(f"points[{bad[0]}]: U must be finite and > 0 at every sampled "
                         f"point to check its gradient, got {u[bad[0]]}")
    ga = obj.gradient_many(pts)
    gf = _central_differences(obj, pts, h)
    norms_a, norms_f = distances(ga, 0.0), distances(gf, 0.0)
    scale = max(1.0, float(norms_a.max()), float(norms_f.max()))
    denom = np.maximum(np.maximum(norms_a, norms_f), 1e-5 * scale)
    rounding = np.sqrt(pts.shape[1]) * 2.0 ** -52 * u / h
    error = np.maximum(distances(ga, gf) - rounding, 0.0)
    return float((error / denom).max())
