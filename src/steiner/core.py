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

# Floats one lockstep block may hold at its peak. ``Objective.block_rows`` is
# this budget over a row's footprint, which each kind's kernel gives: the
# floats one row holds at the peak of a descent step, as traced with
# tracemalloc (the displacements while the gradient is formed, the state the
# line search reuses, a trial's temporaries and the row's bookkeeping). A
# problem whose one row is over budget runs one row at a time, exactly like
# the single-point methods. On the benchmark's 2048-start, n = 16, D = 3
# euclidean workload (2-core x86 VM, medians of 6 runs) a solve took 0.034,
# 0.029 and 0.032 s at 2**16, 2**17 and 2**18, in 4, 2 and 1 blocks, at a
# peak RSS of 39.1, 39.5 and 41.1 MiB: one block of all 2048 rows is both
# slower and larger.
_BLOCK_FLOATS = 2 ** 17


def is_integer(value) -> bool:
    """Whether ``value`` is a Python or numpy integer (a bool is not)."""
    return isinstance(value, Integral) and not isinstance(value, bool)


def as_point(coords) -> np.ndarray:
    """Coerce ``coords`` to a finite 1-D float vector.

    Rejects empty, multi-dimensional, and non-finite input eagerly so that
    descent diagnostics never see NaN/Inf coordinates.
    """
    return as_vector(coords, "point")


@dataclass(frozen=True, eq=False)
class AnchorSet:
    """The n fixed points the objective sums distance potentials to.

    Duplicate anchors are allowed; they simply double that term. The
    coordinate array is made read-only so instances can be shared across
    concurrent evaluations.
    """

    points: np.ndarray

    def __post_init__(self):
        arr = np.array(self.points, dtype=float)
        if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
            raise InputError(
                f"anchors: expected shape (n >= 1, dimension >= 1), got {arr.shape}")
        finite_rows = np.isfinite(arr).all(axis=1)
        if not finite_rows.all():
            bad = int(np.flatnonzero(~finite_rows)[0])
            raise InputError(f"anchors[{bad}]: coordinates must be finite")
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
        lo, hi = self._box
        return float(np.linalg.norm(hi - lo))


@dataclass(frozen=True, eq=False)
class Objective:
    """Total field over an anchor set with one potential kind.

    Construction binds the potential spec to the anchors: the automatic
    smoothing length is resolved from the bounding-box diagonal and
    per-anchor weights are length-checked. ``length_scale`` keeps that
    diagonal (or, when all anchors coincide, the magnitude fallback that
    stands in for it); the descent tracer caps its steps with it.
    ``block_rows`` is how many points the batched ``*_many`` methods, and
    the lockstep tracer, evaluate per block. Instances are immutable and
    all evaluation methods are pure.
    """

    anchors: AnchorSet
    potential: PotentialSpec

    def __post_init__(self):
        anchors = self.anchors
        if not isinstance(anchors, AnchorSet):
            anchors = AnchorSet(anchors)
            object.__setattr__(self, "anchors", anchors)
        scale = anchors.diagonal()
        if scale == 0.0:
            scale = max(1.0, float(np.abs(anchors.points).max()))
        object.__setattr__(self, "length_scale", scale)
        # The anchors as (D, n), so the kernels reduce anchors contiguously.
        object.__setattr__(self, "_anchor_columns", np.ascontiguousarray(anchors.points.T))
        spec = self.potential.bound(scale, anchors.n)
        object.__setattr__(self, "potential", spec)
        w = None if spec.weights is None else np.asarray(spec.weights, dtype=float)
        object.__setattr__(self, "_kernel", kernel(spec, w))
        footprint = self._kernel.row_floats(anchors.n, anchors.dimension)
        object.__setattr__(self, "block_rows", max(1, _BLOCK_FLOATS // footprint))

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
        x = self.check_point(point)
        return float(self._values(self._displacements(x[None, :]))[0])

    def gradient(self, point) -> np.ndarray:
        """Gradient of U at ``point`` (the force on a test particle is its negative)."""
        x = self.check_point(point)
        return self._gradients(self._displacements(x[None, :]))[0]

    def value_change(self, point, move) -> float:
        """U(point + move) - U(point) from per-anchor cancellation-free changes.

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
        return float(self._value_changes(self._displacements(x[None, :]), m[None, :])[0])

    def check_points(self, points) -> np.ndarray:
        """Coerce ``points`` to a finite (m, D) float array, as :meth:`check_point` does one."""
        pts = self._rows(points)
        finite_rows = np.isfinite(pts).all(axis=1)
        if not finite_rows.all():
            bad = int(np.flatnonzero(~finite_rows)[0])
            raise InputError(f"points[{bad}]: coordinates must be finite")
        return pts

    def _rows(self, points) -> np.ndarray:
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != self.anchors.dimension:
            raise InputError(
                f"points: expected shape (m, {self.anchors.dimension}), got {pts.shape}")
        return pts

    # Unchecked kernels on displacements x - a_i of shape (rows, D, n): the
    # single-point and batched methods evaluate through these, and the descent
    # through the last two (see ``potentials.kernel``).

    def _displacements(self, points: np.ndarray) -> np.ndarray:
        return points[:, :, None] - self._anchor_columns

    def _values(self, disp: np.ndarray) -> np.ndarray:
        return self._kernel.values(disp).sum(axis=-1)

    def _gradients(self, disp: np.ndarray) -> np.ndarray:
        return self._kernel.gradient(disp)

    def _value_changes(self, disp: np.ndarray, moves: np.ndarray) -> np.ndarray:
        return self._kernel.changes(disp, moves).sum(axis=-1)

    def _descent_state(self, points: np.ndarray):
        return self._kernel.descent_state(self._displacements(points))

    def _trials(self, state, t: np.ndarray, gsq: np.ndarray) -> np.ndarray:
        return self._kernel.trials(state, t, gsq).sum(axis=-1)

    def _per_row(self, kernel, points, *moves) -> np.ndarray:
        """Evaluate ``kernel`` for each row of ``points`` (shape (m, D)).

        Rows go through in blocks of ``block_rows``, so each (rows, D, n)
        displacement array stays within the block budget. Each row's result
        is bit for bit what the single-point method gives for it. Shapes are
        checked; coordinates are not (see :meth:`check_points`).
        """
        pts = self._rows(points)
        moves = [np.asarray(mv, dtype=float) for mv in moves]
        for mv in moves:
            if mv.shape != pts.shape:
                raise InputError(f"moves: expected shape {pts.shape}, got {mv.shape}")
        step = self.block_rows
        out = [kernel(self._displacements(pts[lo:lo + step]), *(mv[lo:lo + step] for mv in moves))
               for lo in range(0, max(len(pts), 1), step)]
        return out[0] if len(out) == 1 else np.concatenate(out)

    def value_many(self, points) -> np.ndarray:
        """U at each row of ``points``."""
        return self._per_row(self._values, points)

    def gradient_many(self, points) -> np.ndarray:
        """Gradient of U at each row of ``points``; shape (m, D)."""
        return self._per_row(self._gradients, points)

    def value_change_many(self, points, moves) -> np.ndarray:
        """:meth:`value_change` for each row of ``points`` and the same row of ``moves``."""
        return self._per_row(self._value_changes, points, moves)


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
    """Central-difference gradients at each row of ``points``; shape (m, D)."""
    if not (np.isfinite(h) and h > 0.0):
        raise InputError(f"h: step must be finite and > 0, got {h}")
    m, d = points.shape
    probes = np.repeat(points[:, None, :], 2 * d, axis=1)
    idx = np.arange(d)
    probes[:, 2 * idx, idx] += h
    probes[:, 2 * idx + 1, idx] -= h
    vals = obj.value_many(probes.reshape(-1, d)).reshape(m, 2 * d)
    return (vals[:, 0::2] - vals[:, 1::2]) / (2.0 * h)


def max_relative_gradient_error(obj: Objective, points, h: float) -> float:
    """Worst relative disagreement between analytic and central-difference gradients.

    The denominator is floored at 1e-5 of the largest gradient magnitude in
    the batch (and at 1e-5 absolute) so that regions where the field is
    numerically flat, and the finite difference therefore measures only
    roundoff, do not dominate the statistic.
    """
    pts = obj.check_points(points)
    ga = obj.gradient_many(pts)
    gf = _central_differences(obj, pts, h)
    norms_a = np.linalg.norm(ga, axis=1)
    norms_f = np.linalg.norm(gf, axis=1)
    scale = max(1.0, float(norms_a.max()), float(norms_f.max()))
    denom = np.maximum(np.maximum(norms_a, norms_f), 1e-5 * scale)
    return float((np.linalg.norm(ga - gf, axis=1) / denom).max())
