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
"""

import warnings
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, InputError, NonSmoothEvaluationWarning

KINDS = ("euclidean", "p_norm", "squared", "weighted_euclidean", "gaussian_well")

# Auto epsilon when a spec without one is bound to anchors: this fraction of
# the anchor bounding-box diagonal.
AUTO_EPSILON_FACTOR = 1e-9

_NONSMOOTH_MSG = "gradient requested exactly at a norm kink; returning the zero subgradient"


def _require(cond, field, problem):
    if not cond:
        raise ConfigError(f"potential.{field}: {problem}")


# Parameters that one kind alone reads; every other kind rejects them.
KIND_PARAMETERS = {"p": "p_norm", "sigma": "gaussian_well", "weights": "weighted_euclidean"}


def check_parameters(kind: str, names) -> None:
    """Raise ConfigError for the first of ``names`` that ``kind`` does not read."""
    for name in names:
        owner = KIND_PARAMETERS.get(name, kind)
        _require(owner == kind, name, f"only valid for the {owner} kind")


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
        check_parameters(self.kind, [name for name in KIND_PARAMETERS
                                     if getattr(self, name) is not None])
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


def _weights_array(spec, weights):
    if weights is not None:
        return weights
    if spec.weights is None:
        raise ConfigError("potential.weights: required for the weighted_euclidean kind")
    return np.asarray(spec.weights, dtype=float)


def _sq_norm(arr):
    return np.einsum("...i,...i->...", arr, arr)


def batch_roots(spec: PotentialSpec, disp: np.ndarray) -> np.ndarray | None:
    """sqrt(|v|^2 + eps^2) per displacement row for the euclidean kinds, else None.

    The gradient and the value changes at ``disp`` both need these roots;
    computing them once lets a caller hand them to both (``root=``), bit for
    bit what either would compute itself.
    """
    if spec.kind not in ("euclidean", "weighted_euclidean"):
        return None
    eps = _eps(spec)
    return np.sqrt(_sq_norm(disp) + eps * eps)


def batch_values(spec: PotentialSpec, disp: np.ndarray, weights=None) -> np.ndarray:
    """Potential value for each displacement row; ``disp`` has shape (..., D).

    For ``weighted_euclidean`` the weights broadcast against the last axis
    of the result (one weight per anchor row).
    """
    eps = _eps(spec)
    kind = spec.kind
    if kind in ("euclidean", "weighted_euclidean"):
        r2 = _sq_norm(disp)
        if eps > 0.0:
            # r2 / (sqrt(r2 + eps^2) + eps) == sqrt(r2 + eps^2) - eps, but
            # free of cancellation for r << eps; inf, not inf / inf, once r2
            # overflows.
            vals = np.divide(r2, np.sqrt(r2 + eps * eps) + eps,
                             out=np.full_like(r2, np.inf), where=r2 != np.inf)
        else:
            vals = np.sqrt(r2)
        if kind == "weighted_euclidean":
            vals = vals * _weights_array(spec, weights)
        return vals
    if kind == "squared":
        return _sq_norm(disp)
    if kind == "gaussian_well":
        s2 = spec.sigma * spec.sigma
        return -np.expm1(-_sq_norm(disp) / s2)
    # p_norm
    t = disp * disp + eps * eps
    s = np.power(t, spec.p / 2.0).sum(axis=-1)
    d = disp.shape[-1]
    vals = np.power(s, 1.0 / spec.p) - (d ** (1.0 / spec.p)) * eps
    return np.maximum(vals, 0.0)


def batch_gradients(spec: PotentialSpec, disp: np.ndarray, weights=None,
                    root=None) -> np.ndarray:
    """Analytic gradient of :func:`batch_values` w.r.t. each displacement row.

    ``root`` may carry :func:`batch_roots` of ``disp``; other kinds ignore it.
    """
    eps = _eps(spec)
    kind = spec.kind
    if kind in ("euclidean", "weighted_euclidean"):
        if root is None:
            root = batch_roots(spec, disp)
        with np.errstate(divide="ignore", invalid="ignore"):
            g = disp / root[..., None]
        at_kink = root == 0.0
        if np.any(at_kink):
            warnings.warn(_NONSMOOTH_MSG, NonSmoothEvaluationWarning, stacklevel=2)
            g = np.where(at_kink[..., None], 0.0, g)
        if kind == "weighted_euclidean":
            g = g * _weights_array(spec, weights)[..., None]
        return g
    if kind == "squared":
        return 2.0 * disp
    if kind == "gaussian_well":
        s2 = spec.sigma * spec.sigma
        damp = np.exp(-_sq_norm(disp) / s2)
        return (2.0 / s2) * disp * damp[..., None]
    # p_norm: d/dv_j (sum t_k^(p/2))^(1/p) = S^(1/p-1) t_j^(p/2-1) v_j
    t = disp * disp + eps * eps
    with np.errstate(divide="ignore", invalid="ignore"):
        s = np.power(t, spec.p / 2.0).sum(axis=-1)
        outer = np.power(s, 1.0 / spec.p - 1.0)
        g = outer[..., None] * np.power(t, spec.p / 2.0 - 1.0) * disp
    g = np.where(t == 0.0, 0.0, g)
    at_kink = s == 0.0
    if np.any(at_kink):
        warnings.warn(_NONSMOOTH_MSG, NonSmoothEvaluationWarning, stacklevel=2)
        g = np.where(at_kink[..., None], 0.0, g)
    return g


def batch_value_changes(spec: PotentialSpec, disp: np.ndarray, move: np.ndarray,
                        weights=None, root=None) -> np.ndarray:
    """U(v + move) - U(v) per displacement row, computed cancellation-free.

    ``disp`` has shape (..., n, D) and ``move`` shape (..., D): each move is
    shared by the n rows at its leading index (for a (n, D) ``disp``, one
    D-vector moves them all). Accuracy is relative to the *change* itself,
    not to the absolute potential values, so decreases far below one ulp of
    the total objective remain resolvable. ``root`` may carry
    :func:`batch_roots` of ``disp``, which saves the euclidean kinds one
    reduction and one sqrt per call without changing a bit; other kinds
    ignore it.
    """
    eps = _eps(spec)
    kind = spec.kind
    # |v + m|^2 - |v|^2 without forming the two large squares.
    dr2 = 2.0 * np.einsum("...ni,...i->...n", disp, move) + np.vecdot(move, move)[..., None]
    move = move[..., None, :]
    new = disp + move
    if kind in ("euclidean", "weighted_euclidean"):
        if root is None:
            root = batch_roots(spec, disp)
        denom = np.sqrt(_sq_norm(new) + eps * eps) + root
        with np.errstate(invalid="ignore"):
            delta = dr2 / denom
        delta = np.where(denom == 0.0, 0.0, delta)
        if kind == "weighted_euclidean":
            delta = delta * _weights_array(spec, weights)
        return delta
    if kind == "squared":
        return dr2
    if kind == "gaussian_well":
        s2 = spec.sigma * spec.sigma
        arg = dr2 / s2
        r2 = _sq_norm(disp)
        with np.errstate(over="ignore", invalid="ignore"):
            small = -np.exp(-r2 / s2) * np.expm1(-arg)
            direct = np.exp(-r2 / s2) - np.exp(-_sq_norm(new) / s2)
        return np.where(np.abs(arg) < 1.0, small, direct)
    # p_norm: propagate the per-coordinate change through both power chains.
    p = spec.p
    t = disp * disp + eps * eps
    tn = new * new + eps * eps
    dt_exact = 2.0 * disp * move + move * move
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        ratio = np.maximum(dt_exact / t, -1.0)
        halfp = p / 2.0
        dpow_small = np.power(t, halfp) * np.expm1(halfp * np.log1p(ratio))
        dpow_direct = np.power(tn, halfp) - np.power(t, halfp)
        dpow = np.where((t > 0.0) & (np.abs(ratio) < 0.5), dpow_small, dpow_direct)
        s = np.power(t, halfp).sum(axis=-1)
        ds = dpow.sum(axis=-1)
        sratio = np.maximum(ds / s, -1.0)
        du_small = np.power(s, 1.0 / p) * np.expm1(np.log1p(sratio) / p)
        du_direct = np.power(np.power(tn, halfp).sum(axis=-1), 1.0 / p) - np.power(s, 1.0 / p)
    return np.where((s > 0.0) & (np.abs(sratio) < 0.5), du_small, du_direct)


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
    return float(batch_values(spec, v[None, :], _single_weight(spec, anchor_index))[0])


def potential_gradient(spec: PotentialSpec, displacement, anchor_index: int = 0) -> np.ndarray:
    """Gradient of one potential term at the given displacement."""
    v = _as_vector(displacement)
    return batch_gradients(spec, v[None, :], _single_weight(spec, anchor_index))[0]
