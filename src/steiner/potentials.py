"""Distance potentials: per-anchor scalar fields with analytic gradients.

Each potential maps a displacement vector v = point - anchor to a
non-negative "distance" value. Built-in kinds:

    euclidean           sqrt(|v|^2 + eps^2) - eps
    p_norm              (sum_k (v_k^2 + eps^2)^(p/2))^(1/p) - D^(1/p) * eps
    squared             |v|^2
    weighted_euclidean  w_i * (sqrt(|v|^2 + eps^2) - eps)
    gaussian_well       1 - exp(-|v|^2 / sigma^2)

The eps > 0 hyperbolic smoothing restores differentiability of the norm
kinds at the anchor while keeping the value 0 there. ``squared`` and
``gaussian_well`` are smooth without it.

Besides values and gradients this module provides cancellation-free value
*changes* U(v + m) - U(v); descent loops need those to certify tiny
decreases that a float subtraction of two large values would round away.

All kinds but ``p_norm`` are radial, U_i = w_i phi(|v|^2): :func:`radial`
gives phi, its slope and its change as functions of r^2 = |v|^2, so a
gradient is one contraction of the displacements with per-anchor slopes
(:func:`radial_gradients`) and a change needs only r^2 and
dr^2 = |v + m|^2 - |v|^2 (:func:`batch_value_changes`, :func:`line_changes`).

The batch kernels take displacements anchor-contiguous, shape (..., D, n):
coordinate k of the displacement from anchor i is ``disp[..., k, i]``. They
reduce coordinates on axis -2 and return one entry per anchor on the last
axis, so a caller sums anchors over contiguous memory.
"""

import warnings
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, InputError, NonSmoothEvaluationWarning

KINDS = ("euclidean", "p_norm", "squared", "weighted_euclidean", "gaussian_well")
# The kinds whose every term is convex (p_norm for each p >= 1 it accepts), so
# that U curves downward in no direction.
CONVEX_KINDS = ("euclidean", "p_norm", "squared", "weighted_euclidean")

# Auto epsilon when a spec without one is bound to anchors: this fraction of
# the anchor bounding-box diagonal.
AUTO_EPSILON_FACTOR = 1e-9

_NONSMOOTH_MSG = "gradient requested exactly at a norm kink; returning the zero subgradient"


def _require(cond, field, problem):
    if not cond:
        raise ConfigError(f"potential.{field}: {problem}")


# Parameters that one kind alone reads; every other kind rejects them.
KIND_PARAMETERS = {"p": "p_norm", "sigma": "gaussian_well", "weights": "weighted_euclidean"}


@dataclass(frozen=True)
class PotentialSpec:
    """Declarative choice of the per-anchor potential.

    ``epsilon=None`` means "pick automatically when bound to anchors"
    (see :meth:`bound`); unbound evaluation treats it as 0. ``p`` applies
    to ``p_norm`` only (default 2.0), ``sigma`` to ``gaussian_well`` only
    (default 1.0), and ``weights`` to ``weighted_euclidean`` only, where it
    must have one positive entry per anchor. Any other kind rejects a value
    given for them.
    """

    kind: str
    p: float | None = None
    epsilon: float | None = None
    sigma: float | None = None
    weights: tuple[float, ...] | None = None

    def __post_init__(self):
        _require(self.kind in KINDS, "kind",
                 f"unknown kind {self.kind!r}; expected one of {', '.join(KINDS)}")
        for name, owner in KIND_PARAMETERS.items():
            _require(getattr(self, name) is None or owner == self.kind, name,
                     f"only valid for the {owner} kind")
        if self.kind == "p_norm":
            if self.p is None:
                object.__setattr__(self, "p", 2.0)
            _require(np.isfinite(self.p) and self.p >= 1.0, "p",
                     f"exponent must be finite and >= 1, got {self.p}")
        if self.epsilon is not None:
            _require(np.isfinite(self.epsilon) and self.epsilon >= 0.0, "epsilon",
                     f"smoothing length must be finite and >= 0, got {self.epsilon}")
        if self.kind == "gaussian_well":
            if self.sigma is None:
                object.__setattr__(self, "sigma", 1.0)
            _require(np.isfinite(self.sigma) and self.sigma > 0.0, "sigma",
                     f"well width must be finite and > 0, got {self.sigma}")
            # The kernels divide by sigma^2 and scale slopes by 2 / sigma^2.
            s2 = self.sigma * self.sigma
            _require(0.0 < s2 < np.inf and 2.0 / s2 < np.inf, "sigma",
                     f"sigma^2 and 2 / sigma^2 must be finite and > 0, got sigma = {self.sigma}")
        if self.weights is not None:
            w = tuple(float(x) for x in self.weights)
            _require(len(w) >= 1, "weights", "must be non-empty when present")
            _require(all(np.isfinite(x) and x > 0.0 for x in w), "weights",
                     "all entries must be finite and > 0")
            object.__setattr__(self, "weights", w)

    def bound(self, scale: float, n_anchors: int) -> "PotentialSpec":
        """Return a copy with a concrete epsilon, validated against n anchors.

        ``scale`` is the anchor bounding-box diagonal (with a magnitude
        fallback when all anchors coincide, so the automatic smoothing
        length is never 0: an unsmoothed cone has no rest region at all).
        """
        if self.kind == "weighted_euclidean":
            _require(self.weights is not None, "weights",
                     "required for the weighted_euclidean kind")
            _require(len(self.weights) == n_anchors, "weights",
                     f"expected {n_anchors} entries (one per anchor), got {len(self.weights)}")
        eps = self.epsilon
        if eps is None:
            eps = AUTO_EPSILON_FACTOR * float(scale)
        return replace(self, epsilon=eps)


def _eps(spec):
    return 0.0 if spec.epsilon is None else spec.epsilon


def _sq_norm(arr):
    return np.einsum("...dn,...dn->...n", arr, arr)


def _weighted(per_anchor, weights):
    return per_anchor if weights is None else per_anchor * weights


# The radial kinds, U_i = w_i phi(r_i^2) with r_i^2 = |v_i|^2 (w_i = 1 but for
# weighted_euclidean), as functions of r^2. ``carry(r2)`` is what the slope
# and the change at r2 share. ``slope(r2, c)`` is 2 phi'(r^2), so a term's
# gradient is slope * v. ``change(r2, c, dr2, landing)`` is
# phi(r^2 + dr^2) - phi(r^2) free of cancellation, with r^2 + dr^2 clamped at
# 0; ``landing()``, where the caller has v and the move m, gives
# |v + m|^2 for a kind that needs the landing radius itself. The README's
# "Accuracy of value changes" bounds the error.

class _Hyperbolic:
    """phi(s) = sqrt(s + eps^2) - eps, the euclidean kinds; carries the root sqrt(s + eps^2)."""

    def __init__(self, eps):
        self.eps, self.eps2 = eps, eps * eps

    def value(self, r2):
        if self.eps > 0.0:
            # r2 / (sqrt(r2 + eps^2) + eps) == sqrt(r2 + eps^2) - eps, but
            # free of cancellation for r << eps; inf, not inf / inf, once r2
            # overflows.
            return np.divide(r2, np.sqrt(r2 + self.eps2) + self.eps,
                             out=np.full_like(r2, np.inf), where=r2 != np.inf)
        return np.sqrt(r2)

    def carry(self, r2):
        root = r2 + self.eps2
        return np.sqrt(root, out=root)

    def slope(self, r2, root):
        if root.all():
            return 1.0 / root
        warnings.warn(_NONSMOOTH_MSG, NonSmoothEvaluationWarning, stacklevel=3)
        return np.divide(1.0, root, out=np.zeros_like(root), where=root != 0.0)

    def change(self, r2, root, dr2, landing=None):
        denom = r2 + dr2
        np.maximum(denom, 0.0, out=denom)
        denom += self.eps2
        np.sqrt(denom, out=denom)
        denom += root
        if self.eps2 > 0.0:  # then denom >= eps > 0
            return np.divide(dr2, denom, out=denom)
        # 0 / 0 where an unsmoothed term stays at its anchor: no change.
        return np.divide(dr2, denom, out=np.zeros_like(dr2), where=denom != 0.0)


class _Squared:
    """phi(s) = s; carries nothing."""

    def value(self, r2):
        return r2

    def carry(self, r2):
        return None

    def slope(self, r2, _):
        return np.full_like(r2, 2.0)

    def change(self, r2, _, dr2, landing=None):
        return dr2


class _Gaussian:
    """phi(s) = 1 - exp(-s / sigma^2); carries the damping exp(-s / sigma^2)."""

    def __init__(self, sigma):
        self.s2 = sigma * sigma
        self.two_over_s2 = 2.0 / self.s2

    def value(self, r2):
        return -np.expm1(-r2 / self.s2)

    def carry(self, r2):
        return np.exp(-r2 / self.s2)

    def slope(self, r2, damp):
        return self.two_over_s2 * damp

    def change(self, r2, damp, dr2, landing=None):
        # -damp expm1(-dr^2 / sigma^2) where |dr^2| < sigma^2; elsewhere (nan
        # included) the difference of the two dampings, the one at landing
        # from |v + m|^2 where ``landing`` gives it: r^2 + dr^2 loses it to
        # rounding once |v| + |m| is far beyond sigma. The difference is only
        # formed when some term needs it; then for all, which at these sizes
        # costs less than picking the terms out.
        arg = dr2 / self.s2
        near = np.abs(arg) < 1.0
        with np.errstate(over="ignore", invalid="ignore"):
            small = np.expm1(np.negative(arg, out=arg), out=arg)
            small *= damp
            np.negative(small, out=small)
            if near.all():
                return small
            land = r2 + dr2 if landing is None else landing()
            np.maximum(land, 0.0, out=land)
            np.negative(land, out=land)
            land /= self.s2
            np.subtract(damp, np.exp(land, out=land), out=land)
        return np.where(near, small, land)


def radial(spec: PotentialSpec):
    """The functions of r^2 of a radial kind (see above); None for ``p_norm``."""
    if spec.kind in ("euclidean", "weighted_euclidean"):
        return _Hyperbolic(_eps(spec))
    if spec.kind == "squared":
        return _Squared()
    if spec.kind == "gaussian_well":
        return _Gaussian(spec.sigma)
    return None


def radial_gradients(kernel, disp: np.ndarray, weights=None):
    """(gradient of the sum over anchors, r^2, carry) at ``disp`` (shape (..., D, n)).

    ``kernel`` is a :func:`radial` kind. The gradient, shape (..., D), is one
    contraction of the displacements with the per-anchor slopes; each row
    of a batch gets the bits it gets alone.
    """
    r2 = _sq_norm(disp)
    carry = kernel.carry(r2)
    slope = _weighted(kernel.slope(r2, carry), weights)
    return np.einsum("...dn,...n->...d", disp, slope), r2, carry


def line_changes(kernel, r2, carry, proj2, t, gsq, weights=None) -> np.ndarray:
    """U_i(v - t g) - U_i(v) per anchor, for a line search along -g.

    ``r2`` and ``carry`` are those of :func:`radial_gradients` at v and
    ``proj2`` is 2 g.v, each of shape (rows, n); ``t`` and ``gsq`` = |g|^2
    hold one entry per row. With dr^2 = t (t |g|^2 - 2 g.v) a trial costs
    O(n) per row, whatever D is.
    """
    dr2 = np.subtract((t * gsq)[:, None], proj2)
    dr2 *= t[:, None]
    return _weighted(kernel.change(r2, carry, dr2), weights)


def _p_norm_far(spec: PotentialSpec, disp: np.ndarray):
    """S^(1/p) and the p_norm gradient per row of ``disp`` (shape (m, D)).

    For rows whose power sum S = sum_k (v_k^2 + eps^2)^(p/2) overflows
    though its p-th root does not: with r_k = hypot(v_k, eps), R = max_k r_k,
    q = r / R and S' = sum_k q_k^p, the root is R S'^(1/p) and the gradient
    S'^(1/p-1) q_j^(p-1) v_j / r_j, neither forming R^p.
    """
    r = np.hypot(disp, _eps(spec))
    top = r.max(axis=-1)
    q = r / top[:, None]
    s = np.power(q, spec.p).sum(axis=-1)
    norm = np.where(top == np.inf, np.inf, top * np.power(s, 1.0 / spec.p))
    return norm, np.power(s, 1.0 / spec.p - 1.0)[:, None] * np.power(q, spec.p - 1.0) * (disp / r)


def batch_values(spec: PotentialSpec, disp: np.ndarray, weights=None) -> np.ndarray:
    """Potential value per anchor; ``disp`` has shape (..., D, n), the result (..., n).

    ``weights`` (one per anchor, broadcast against the last axis of the
    result) multiply the radial kinds' terms; only ``weighted_euclidean``
    has them. The kernels below take them the same way.
    """
    kernel = radial(spec)
    if kernel is not None:
        return _weighted(kernel.value(_sq_norm(disp)), weights)
    # p_norm
    eps = _eps(spec)
    with np.errstate(over="ignore", invalid="ignore"):
        s = np.power(disp * disp + eps * eps, spec.p / 2.0).sum(axis=-2)
        norm = np.power(s, 1.0 / spec.p)
        far = s == np.inf
        if far.any():
            norm[far] = _p_norm_far(spec, np.moveaxis(disp, -2, -1)[far])[0]
    return np.maximum(norm - (disp.shape[-2] ** (1.0 / spec.p)) * eps, 0.0)


def batch_gradients(spec: PotentialSpec, disp: np.ndarray, weights=None) -> np.ndarray:
    """Analytic gradient of :func:`batch_values` per anchor, shape (..., D, n)."""
    kernel = radial(spec)
    if kernel is not None:
        r2 = _sq_norm(disp)
        return disp * _weighted(kernel.slope(r2, kernel.carry(r2)), weights)[..., None, :]
    eps = _eps(spec)
    # p_norm: d/dv_j (sum t_k^(p/2))^(1/p) = S^(1/p-1) t_j^(p/2-1) v_j
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        t = disp * disp + eps * eps
        s = np.power(t, spec.p / 2.0).sum(axis=-2)
        outer = np.power(s, 1.0 / spec.p - 1.0)
        g = outer[..., None, :] * np.power(t, spec.p / 2.0 - 1.0) * disp
        far = s == np.inf
        if far.any():
            np.moveaxis(g, -2, -1)[far] = _p_norm_far(spec, np.moveaxis(disp, -2, -1)[far])[1]
    g = np.where(t == 0.0, 0.0, g)
    at_kink = s == 0.0
    if np.any(at_kink):
        warnings.warn(_NONSMOOTH_MSG, NonSmoothEvaluationWarning, stacklevel=2)
        g = np.where(at_kink[..., None, :], 0.0, g)
    return g


def _p_norm_changes(p, eps, disp: np.ndarray, move: np.ndarray):
    """S(v + m)^(1/p) - S(v)^(1/p) per anchor of ``disp`` (shape (..., D, n)),
    ``move`` broadcasting against it, and where S(v) or S(v + m) overflows.

    Each per-coordinate change t_k^(p/2) goes through expm1/log1p of its
    relative change, and so does the root of the sum, whenever those are
    small; elsewhere a plain difference is exact enough.
    """
    halfp = p / 2.0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        new = disp + move
        t = disp * disp + eps * eps
        pow_t, pow_tn = np.power(t, halfp), np.power(new * new + eps * eps, halfp)
        ratio = np.maximum((2.0 * disp * move + move * move) / t, -1.0)
        dpow_small = pow_t * np.expm1(halfp * np.log1p(ratio))
        dpow = np.where((t > 0.0) & (np.abs(ratio) < 0.5), dpow_small, pow_tn - pow_t)
        s, sn = pow_t.sum(axis=-2), pow_tn.sum(axis=-2)
        sratio = np.maximum(dpow.sum(axis=-2) / s, -1.0)
        du_small = np.power(s, 1.0 / p) * np.expm1(np.log1p(sratio) / p)
        du_direct = np.power(sn, 1.0 / p) - np.power(s, 1.0 / p)
    du = np.where((s > 0.0) & (np.abs(sratio) < 0.5), du_small, du_direct)
    return du, ~(np.isfinite(s) & np.isfinite(sn))


def batch_value_changes(spec: PotentialSpec, disp: np.ndarray, move: np.ndarray,
                        weights=None) -> np.ndarray:
    """U(v + move) - U(v) per anchor, computed cancellation-free.

    ``disp`` has shape (..., D, n) and ``move`` shape (..., D): each move is
    shared by the n anchors at its leading index (for a (D, n) ``disp``, one
    D-vector moves them all). The radial kinds take the change from r^2 and
    dr^2 = 2 v.m + |m|^2, as :func:`line_changes` does from its own dr^2, and
    ``gaussian_well`` far from its anchor from |v + m|^2; the README's
    "Accuracy of value changes" bounds the error. Decreases far below one
    ulp of the total objective remain resolvable.
    """
    kernel = radial(spec)
    if kernel is not None:
        # |v + m|^2 - |v|^2 without forming the two large squares.
        r2 = _sq_norm(disp)
        dr2 = 2.0 * np.einsum("...dn,...d->...n", disp, move) + np.vecdot(move, move)[..., None]
        change = kernel.change(r2, kernel.carry(r2), dr2,
                               lambda: _sq_norm(disp + move[..., None]))
        return _weighted(change, weights)
    move = move[..., None]
    eps = _eps(spec)
    du, far = _p_norm_changes(spec.p, eps, disp, move)
    if far.any():
        # Where a power sum overflows, evaluate at v / c and m / c, with
        # eps / c, for a power of two c above every coordinate (exact
        # scaling), and scale the change back: S^(1/p) is homogeneous.
        v = np.moveaxis(disp, -2, -1)[far]
        m = np.moveaxis(np.broadcast_to(move, disp.shape), -2, -1)[far]
        top = np.maximum(np.abs(v).max(axis=-1), np.abs(v + m).max(axis=-1))
        c = np.ldexp(1.0, np.frexp(np.maximum(top, eps))[1])
        du[far] = c * _p_norm_changes(spec.p, eps / c, (v / c[:, None]).T,
                                      (m / c[:, None]).T)[0]
    return du


def _as_vector(coords) -> np.ndarray:
    arr = np.asarray(coords, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise InputError(
            f"displacement: expected a non-empty 1-D coordinate sequence, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise InputError("displacement: coordinates must be finite")
    return arr


def _single_weight(spec, anchor_index):
    if spec.kind != "weighted_euclidean":
        return None
    if spec.weights is None:
        raise ConfigError("potential.weights: required for the weighted_euclidean kind")
    if not 0 <= anchor_index < len(spec.weights):
        raise InputError(
            f"anchor_index: {anchor_index} outside [0, {len(spec.weights)})")
    return np.array([spec.weights[anchor_index]])


def potential_value(spec: PotentialSpec, displacement, anchor_index: int = 0) -> float:
    """Value of one potential term at the given displacement.

    ``anchor_index`` selects the weight for ``weighted_euclidean`` and is
    ignored by the other kinds.
    """
    v = _as_vector(displacement)
    return float(batch_values(spec, v[:, None], _single_weight(spec, anchor_index))[0])


def potential_gradient(spec: PotentialSpec, displacement, anchor_index: int = 0) -> np.ndarray:
    """Gradient of one potential term at the given displacement."""
    v = _as_vector(displacement)
    return batch_gradients(spec, v[:, None], _single_weight(spec, anchor_index))[:, 0]
