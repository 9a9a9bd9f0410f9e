"""Points, anchor sets, and the total potential objective U(x) = sum_i U_i(x - a_i)."""

from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .potentials import PotentialSpec, batch_gradients, batch_value_changes, batch_values

Point = np.ndarray
"""A D-dimensional coordinate vector (1-D float array)."""


def as_point(coords) -> np.ndarray:
    """Coerce ``coords`` to a finite 1-D float vector.

    Rejects empty, multi-dimensional, and non-finite input eagerly so that
    descent diagnostics never see NaN/Inf coordinates.
    """
    arr = np.asarray(coords, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise InputError(
            f"point: expected a non-empty 1-D coordinate sequence, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise InputError("point: coordinates must be finite")
    return arr


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

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def dimension(self) -> int:
        return self.points.shape[1]

    def bounding_box(self):
        """(lo, hi) per-coordinate bounds of the anchors."""
        return self.points.min(axis=0), self.points.max(axis=0)

    def diagonal(self) -> float:
        lo, hi = self.bounding_box()
        return float(np.linalg.norm(hi - lo))


@dataclass(frozen=True, eq=False)
class Objective:
    """Total field over an anchor set with one potential kind.

    Construction binds the potential spec to the anchors: the automatic
    smoothing length is resolved from the bounding-box diagonal and
    per-anchor weights are length-checked. ``length_scale`` keeps that
    diagonal (or, when all anchors coincide, the magnitude fallback that
    stands in for it); the descent tracer caps its steps with it. Instances
    are immutable and all evaluation methods are pure, so a single
    objective may be shared by concurrent descent runs.
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
        spec = self.potential.bound(scale, anchors.n)
        object.__setattr__(self, "potential", spec)
        w = None if spec.weights is None else np.asarray(spec.weights, dtype=float)
        object.__setattr__(self, "_weights", w)

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
        disp = x - self.anchors.points
        return float(batch_values(self.potential, disp, self._weights).sum())

    def gradient(self, point) -> np.ndarray:
        """Gradient of U at ``point`` (the force on a test particle is its negative)."""
        x = self.check_point(point)
        disp = x - self.anchors.points
        return batch_gradients(self.potential, disp, self._weights).sum(axis=0)

    def value_change(self, point, move) -> float:
        """U(point + move) - U(point), accurate relative to the change itself.

        Uses per-anchor cancellation-free differences, so decreases far
        below one ulp of U remain resolvable; plain subtraction of two
        evaluations would round them to zero.
        """
        x = self.check_point(point)
        m = np.asarray(move, dtype=float)
        disp = x - self.anchors.points
        return float(batch_value_changes(self.potential, disp, m, self._weights).sum())

    def value_many(self, points) -> np.ndarray:
        """U at each row of ``points`` (shape (m, D)); used by batch scans."""
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != self.anchors.dimension:
            raise InputError(
                f"points: expected shape (m, {self.anchors.dimension}), got {pts.shape}")
        disp = pts[:, None, :] - self.anchors.points[None, :, :]
        return batch_values(self.potential, disp, self._weights).sum(axis=1)


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
    if not (np.isfinite(h) and h > 0.0):
        raise InputError(f"h: step must be finite and > 0, got {h}")
    d = x.size
    probes = np.repeat(x[None, :], 2 * d, axis=0)
    idx = np.arange(d)
    probes[2 * idx, idx] += h
    probes[2 * idx + 1, idx] -= h
    vals = obj.value_many(probes)
    return (vals[0::2] - vals[1::2]) / (2.0 * h)


def max_relative_gradient_error(obj: Objective, points, h: float) -> float:
    """Worst relative disagreement between analytic and central-difference gradients.

    The denominator is floored at 1e-5 of the largest gradient magnitude in
    the batch (and at 1e-5 absolute) so that regions where the field is
    numerically flat, and the finite difference therefore measures only
    roundoff, do not dominate the statistic.
    """
    pts = np.asarray(points, dtype=float)
    ga = np.array([obj.gradient(p) for p in pts])
    gf = np.array([finite_difference_gradient(obj, p, h) for p in pts])
    norms_a = np.linalg.norm(ga, axis=1)
    norms_f = np.linalg.norm(gf, axis=1)
    scale = max(1.0, float(norms_a.max()), float(norms_f.max()))
    denom = np.maximum(np.maximum(norms_a, norms_f), 1e-5 * scale)
    return float((np.linalg.norm(ga - gf, axis=1) / denom).max())
