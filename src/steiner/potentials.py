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

:func:`kernel` gives one kind's kernels: a :class:`_Radial` for the radial
kinds, U_i = w_i phi(|v|^2), and a :class:`_PNorm`, which works per coordinate.

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


def _sq_norm(arr):
    return np.einsum("...dn,...dn->...n", arr, arr)


class _Radial:
    """A radial kind, U_i = w_i phi(r_i^2) with r_i^2 = |v_i|^2 (w_i = 1 but for
    weighted_euclidean). A subclass gives, as functions of r^2, ``value`` =
    phi; ``carry``, what the slope and the change share; ``slope(r2, c)`` =
    2 phi'(r^2), so a term's gradient is slope * v; and
    ``change(r2, c, dr2, landing)`` = phi(r^2 + dr^2) - phi(r^2) free of
    cancellation, with r^2 + dr^2 clamped at 0, where ``landing``, if given,
    returns |v + m|^2 for a kind that needs it. The README's "Accuracy of value
    changes" bounds the error. The descent state is r^2, the carry and 2 g.v:
    a trial, with dr^2 = t (t |g|^2 - 2 g.v), costs O(n) whatever D is.
    """

    def __init__(self, weights):
        self.weights = weights

    def _weighted(self, per_anchor):
        return per_anchor if self.weights is None else per_anchor * self.weights

    def row_floats(self, n, d):
        return (d + 6) * n

    def values(self, disp):
        return self._weighted(self.value(_sq_norm(disp)))

    def _slopes(self, disp):
        """r^2, the carry and the weighted slopes at ``disp``."""
        r2 = _sq_norm(disp)
        carry = self.carry(r2)
        return r2, carry, self._weighted(self.slope(r2, carry))

    def gradients(self, disp):
        return disp * self._slopes(disp)[2][..., None, :]

    def gradient(self, disp):
        # One contraction, so each row of a batch gets the bits it gets alone.
        return np.einsum("...dn,...n->...d", disp, self._slopes(disp)[2])

    def changes(self, disp, move):
        # |v + m|^2 - |v|^2 without forming the two large squares.
        r2 = _sq_norm(disp)
        dr2 = 2.0 * np.einsum("...dn,...d->...n", disp, move) + np.vecdot(move, move)[..., None]
        change = self.change(r2, self.carry(r2), dr2, lambda: _sq_norm(disp + move[..., None]))
        return self._weighted(change)

    def descent_state(self, disp):
        r2, carry, slope = self._slopes(disp)
        g = np.einsum("...dn,...n->...d", disp, slope)
        del slope  # before 2 g.v is formed: row_floats counts on it
        proj2 = np.einsum("...dn,...d->...n", disp, g)
        proj2 *= 2.0
        return g, [r2, carry, proj2]

    def trials(self, state, t, gsq):
        r2, carry, proj2 = state
        dr2 = np.subtract((t * gsq)[:, None], proj2)
        dr2 *= t[:, None]
        return self._weighted(self.change(r2, carry, dr2))


class _Hyperbolic(_Radial):
    """phi(s) = sqrt(s + eps^2) - eps, the euclidean kinds; carries the root sqrt(s + eps^2)."""

    def __init__(self, eps, weights):
        super().__init__(weights)
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
        warnings.warn(_NONSMOOTH_MSG, NonSmoothEvaluationWarning, stacklevel=4)
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


class _Squared(_Radial):
    """phi(s) = s; carries nothing."""

    def value(self, r2):
        return r2

    def carry(self, r2):
        return None

    def slope(self, r2, _):
        return np.full_like(r2, 2.0)

    def change(self, r2, _, dr2, landing=None):
        return dr2


class _Gaussian(_Radial):
    """phi(s) = 1 - exp(-s / sigma^2); carries the damping exp(-s / sigma^2)."""

    def __init__(self, sigma, weights):
        super().__init__(weights)
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


class _PNorm:
    """U_i = S^(1/p) - D^(1/p) eps with S = sum_k (v_k^2 + eps^2)^(p/2).

    Where a power sum S overflows though its root need not, values and
    gradients are taken from the sum normalised by its largest term (see
    :meth:`_far`), and changes at v / 2^e, m / 2^e and eps / 2^e (see
    :meth:`changes`). The descent state is the displacements and g; a trial
    forms about a dozen (rows, D, n) arrays.
    """

    def __init__(self, p, eps):
        self.p, self.eps = p, eps

    def row_floats(self, n, d):
        return 12 * d * n

    def _sums(self, disp):
        """t_k = v_k^2 + eps^2 per coordinate, S per anchor and where S overflowed."""
        with np.errstate(over="ignore"):
            t = disp * disp + self.eps * self.eps
            s = np.power(t, self.p / 2.0).sum(axis=-2)
        return t, s, s == np.inf

    def _far(self, disp, far):
        """S^(1/p) and its gradient at the ``far`` anchors of ``disp``, one row (D,) each.

        With r_k = hypot(v_k, eps), R = max_k r_k, q = r / R and S' = sum_k
        q_k^p, the root is R S'^(1/p) and the gradient S'^(1/p-1) q_j^(p-1)
        v_j / r_j, 0 where r_j = 0. The largest q is 1, so S' neither
        overflows nor underflows whatever p is; and no coordinate is squared,
        so a small one keeps its gradient component.
        """
        v = np.moveaxis(disp, -2, -1)[far]
        with np.errstate(over="ignore", invalid="ignore"):
            r = np.hypot(v, self.eps)
            top = r.max(axis=-1)
            q = r / top[:, None]
            s = np.power(q, self.p).sum(axis=-1)
            norm = np.where(top == np.inf, np.inf, top * np.power(s, 1.0 / self.p))
            unit = np.divide(v, r, out=np.zeros_like(v), where=r != 0.0)
            grad = np.power(s, 1.0 / self.p - 1.0)[:, None] * np.power(q, self.p - 1.0) * unit
        return norm, grad

    def values(self, disp):
        _, s, far = self._sums(disp)
        norm = np.power(s, 1.0 / self.p)
        if far.any():
            norm[far] = self._far(disp, far)[0]
        return np.maximum(norm - (disp.shape[-2] ** (1.0 / self.p)) * self.eps, 0.0)

    def gradients(self, disp):
        # d/dv_j (sum_k t_k^(p/2))^(1/p) = S^(1/p-1) t_j^(p/2-1) v_j, 0 where t_j = 0
        p = self.p
        t, s, far = self._sums(disp)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            g = np.power(s, 1.0 / p - 1.0)[..., None, :] * np.power(t, p / 2.0 - 1.0) * disp
        g = np.where(t == 0.0, 0.0, g)
        if far.any():
            np.moveaxis(g, -2, -1)[far] = self._far(disp, far)[1]
        at_kink = s == 0.0
        if np.any(at_kink):
            warnings.warn(_NONSMOOTH_MSG, NonSmoothEvaluationWarning, stacklevel=3)
            g = np.where(at_kink[..., None, :], 0.0, g)
        return g

    def gradient(self, disp):
        return self.gradients(disp).sum(axis=-1)

    def _changes(self, eps, disp, move):
        """S(v + m)^(1/p) - S(v)^(1/p) per anchor and where S(v) or S(v + m) overflows.

        Each per-coordinate change t_k^(p/2) goes through expm1/log1p of its
        relative change, and so does the root of the sum, whenever those are
        small; elsewhere a plain difference is exact enough.
        """
        p, halfp = self.p, self.p / 2.0
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

    def changes(self, disp, move):
        move = move[..., None]
        du, far = self._changes(self.eps, disp, move)
        if far.any():
            # Take it at v / 2^e, m / 2^e and eps / 2^e, for 2^e above eps and
            # every coordinate of v and v + m, and scale back by 2^e: S^(1/p) is
            # homogeneous of degree 1 in (v, eps), and a power of two scales
            # exactly, so the change stays cancellation-free.
            v, m = (np.moveaxis(np.broadcast_to(a, disp.shape), -2, -1)[far] for a in (disp, move))
            top = np.maximum(np.abs(v), np.abs(v + m)).max(axis=-1)
            # ldexp, not a division by 2^e: 2^e overflows once top reaches 2^1023.
            e = np.frexp(np.maximum(top, self.eps))[1]
            scaled = self._changes(np.ldexp(self.eps, -e), np.ldexp(v, -e[:, None]).T,
                                   np.ldexp(m, -e[:, None]).T)[0]
            with np.errstate(over="ignore"):
                du[far] = np.ldexp(scaled, e)
        return du

    def descent_state(self, disp):
        g = self.gradient(disp)
        return g, [disp, g]

    def trials(self, state, t, gsq):
        disp, g = state
        return self.changes(disp, -(t[:, None] * g))


def kernel(spec: PotentialSpec, weights=None):
    """The kernels of ``spec``'s kind, on displacements of shape (..., D, n):
    ``values``, ``gradients`` and ``changes`` per anchor, as the ``batch_*``
    functions below; ``gradient``, of the sum over anchors; ``descent_state``,
    that gradient g and a list of per-row arrays from which
    ``trials(state, t, gsq)`` gives U_i(x - t g) - U_i(x) per anchor for one t
    per row (``gsq`` = |g|^2); and ``row_floats(n, d)``, the floats one row
    holds at the peak of a descent step, as traced with tracemalloc.
    ``weights`` (one per anchor, broadcast against the last axis of a
    per-anchor result) multiply the terms of a radial kind; only
    ``weighted_euclidean`` has them.
    """
    eps = 0.0 if spec.epsilon is None else spec.epsilon
    if spec.kind == "p_norm":
        return _PNorm(spec.p, eps)
    if spec.kind == "squared":
        return _Squared(weights)
    if spec.kind == "gaussian_well":
        return _Gaussian(spec.sigma, weights)
    return _Hyperbolic(eps, weights)


def batch_values(spec: PotentialSpec, disp: np.ndarray, weights=None) -> np.ndarray:
    """Potential value per anchor; ``disp`` has shape (..., D, n), the result (..., n)."""
    return kernel(spec, weights).values(disp)


def batch_gradients(spec: PotentialSpec, disp: np.ndarray, weights=None) -> np.ndarray:
    """Analytic gradient of :func:`batch_values` per anchor, shape (..., D, n)."""
    return kernel(spec, weights).gradients(disp)


def batch_value_changes(spec: PotentialSpec, disp: np.ndarray, move: np.ndarray,
                        weights=None) -> np.ndarray:
    """U(v + move) - U(v) per anchor, computed cancellation-free.

    ``disp`` has shape (..., D, n) and ``move`` shape (..., D): each move is
    shared by the n anchors at its leading index (for a (D, n) ``disp``, one
    D-vector moves them all). Decreases far below one ulp of the total
    objective remain resolvable.
    """
    return kernel(spec, weights).changes(disp, move)


def as_vector(coords, field: str) -> np.ndarray:
    """Coerce ``coords`` to a finite, non-empty 1-D float vector; errors name ``field``."""
    arr = np.asarray(coords, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise InputError(
            f"{field}: expected a non-empty 1-D coordinate sequence, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise InputError(f"{field}: coordinates must be finite")
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
    v = as_vector(displacement, "displacement")
    return float(batch_values(spec, v[:, None], _single_weight(spec, anchor_index))[0])


def potential_gradient(spec: PotentialSpec, displacement, anchor_index: int = 0) -> np.ndarray:
    """Gradient of one potential term at the given displacement."""
    v = as_vector(displacement, "displacement")
    return batch_gradients(spec, v[:, None], _single_weight(spec, anchor_index))[:, 0]
