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
reduce coordinates on axis -2 and anchors, over contiguous memory, on the
last axis, so each returns per-row totals.
"""

import sys
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, InputError, NonSmoothEvaluationWarning

# The kinds whose every term is convex (p_norm for each p >= 1 it accepts), so
# that U curves downward in no direction.
CONVEX_KINDS = ("euclidean", "p_norm", "squared", "weighted_euclidean")

# Auto epsilon when a spec without one is bound to anchors: this fraction of
# the anchor bounding-box diagonal.
AUTO_EPSILON_FACTOR = 1e-9

_NONSMOOTH_MSG = "gradient requested exactly at a norm kink; returning the zero subgradient"


def _warn_nonsmooth():
    """Warn of a gradient at a norm kink, at the first frame outside this
    package, whichever path of it asked for the gradient."""
    frame, level, package = sys._getframe(1), 2, f"{__package__}."
    while frame is not None and frame.f_globals.get("__name__", "").startswith(package):
        frame, level = frame.f_back, level + 1
    warnings.warn(_NONSMOOTH_MSG, NonSmoothEvaluationWarning, stacklevel=level)


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
    (default 1.0), and ``weights`` to ``weighted_euclidean`` only, which
    requires one positive entry per anchor. Any other kind rejects a value
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
        _require(self.weights is not None or self.kind != "weighted_euclidean", "weights",
                 "required for the weighted_euclidean kind")
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
            try:
                w = np.asarray(self.weights, dtype=float)
            except (TypeError, ValueError):
                w = None  # ragged or not numbers
            _require(w is not None and w.ndim == 1, "weights", "must be a flat list of numbers")
            _require(w.size >= 1, "weights", "must be non-empty when present")
            _require(((w > 0.0) & (w < np.inf)).all(), "weights",
                     "all entries must be finite and > 0")
            object.__setattr__(self, "weights", tuple(w.tolist()))

    def bound(self, scale: float, n_anchors: int) -> "PotentialSpec":
        """Return a copy with a concrete epsilon, validated against n anchors.

        ``scale`` is the anchor bounding-box diagonal (with a magnitude
        fallback when all anchors coincide, so the automatic smoothing
        length is never 0: an unsmoothed cone has no rest region at all).
        """
        if self.weights is not None:
            _require(len(self.weights) == n_anchors, "weights",
                     f"expected {n_anchors} entries (one per anchor), got {len(self.weights)}")
        eps = self.epsilon
        if eps is None:
            eps = AUTO_EPSILON_FACTOR * float(scale)
        return replace(self, epsilon=eps)


def _sq_norm(arr, out=None):
    return np.einsum("...dn,...dn->...n", arr, arr, out=out)


class _Radial:
    """A radial kind, U_i = w_i phi(r_i^2) with r_i^2 = |v_i|^2 (w_i = 1 but for
    weighted_euclidean). A subclass gives, as functions of r^2, ``value(r2,
    c)`` = phi, given the carry c where it is at hand; ``carry``, what the
    value, the slope and the change share; ``slope(r2, c)`` =
    2 phi'(r^2), so a term's gradient is slope * v; and
    ``change(r2, c, dr2, landing)`` = phi(r^2 + dr^2) - phi(r^2) free of
    cancellation, with r^2 + dr^2 clamped at 0, where ``landing``, if given,
    returns |v + m|^2 for a kind that needs it. The README's "Accuracy of value
    changes" bounds the error. The descent state is r^2, the carry and 2 g.v:
    a trial, with dr^2 = t (t |g|^2 - 2 g.v), costs O(n) whatever D is. A
    non-convex kind also gives ``bend(r2, c)`` = b = sqrt(-4 phi''(r^2)) for the
    Hessian: every phi here is concave in r^2, and a term's curvature along v
    is then -(b v)(b v)^T, whose factors stay finite where 4 phi'' is not.

    Where phi is concave in r^2, each term lies below its tangent in r^2, so
    U(x - t g) <= U(x) - t (1 - t S / 2) |g|^2 with S = sum_i w_i 2 phi'(r_i^2),
    the slope sum; 1/S is the step of that majorizer, Weiszfeld's for the
    euclidean kinds, and in exact arithmetic every t <= 2 (1 - c) / S passes
    the Armijo test with constant c. Given c (``armijo_c``), a kind that
    ``majorizes`` returns with its descent state each row's guaranteed step
    t_safe = (5/3) (1 - c) / S, 5/6 of that bound so that a trial's rounding
    keeps clear of the Armijo line (Weiszfeld's step times 5/4 at c = 1/4);
    else that is None. Where phi is linear in r^2 (``squared``) the majorizer
    is U itself, ``exact``, and 1/S is the exact minimum along -g, so t_safe
    is min(1, (5/3) (1 - c)) / S: 1/S passes with margin for c <= 1/2.
    t_safe is inf, 0 or nan where S is 0, inf or nan.
    """

    # gaussian_well's phi is concave in r^2 too, but a changed step moves
    # which well its traces reach, and on a landscape of many wells one start
    # may carry the answer; it keeps plain backtracking.
    majorizes = True
    exact = False

    def __init__(self, spec):
        self.weights = None if spec.weights is None else np.asarray(spec.weights, dtype=float)

    def _weighted(self, per_anchor):
        if self.weights is None:
            return per_anchor
        with np.errstate(over="ignore"):  # the tracer checks U, grad U and trials for inf
            return per_anchor * self.weights

    def row_floats(self, n, d):
        return (d + 6) * n

    def kept_floats(self, n, d):
        return 8 * n

    def values(self, disp):
        return self.values_at((_sq_norm(disp), None, None))

    def values_at(self, state):
        r2, carry, _ = state
        with np.errstate(over="ignore"):  # the tracer checks U for inf
            return self._weighted(self.value(r2, carry)).sum(axis=-1)

    def _slopes(self, disp, r2_out=None, carry_out=None):
        """r^2, the carry and the weighted slopes at ``disp``; r^2 and the
        carry are written to the arrays given for them."""
        r2 = _sq_norm(disp, r2_out)
        carry = self.carry(r2, carry_out)
        return r2, carry, self._weighted(self.slope(r2, carry))

    def _gradient(self, disp, g_out=None, r2_out=None, carry_out=None):
        """g, the gradient of the sum over anchors, with the r^2, carry and
        weighted slopes it is formed from; each ``*_out`` receives its array."""
        r2, carry, slope = self._slopes(disp, r2_out, carry_out)
        return np.einsum("...dn,...n->...d", disp, slope, out=g_out), r2, carry, slope

    def gradient(self, disp):
        return self._gradient(disp)[0]

    def hessian(self, disp):
        """Hessian of U, (..., D, D): sum_i w_i [2 phi'(r_i^2) I - (b_i v_i)(b_i v_i)^T]."""
        r2, carry, slope = self._slopes(disp)
        bent = disp * self.bend(r2, carry)[..., None, :]
        h = self._weighted(bent) @ bent.swapaxes(-1, -2)
        return slope.sum(axis=-1)[..., None, None] * np.eye(disp.shape[-2]) - h

    def changes(self, disp, move):
        # |v + m|^2 - |v|^2 without forming the two large squares.
        r2 = _sq_norm(disp)
        dr2 = 2.0 * np.einsum("...dn,...d->...n", disp, move) + np.vecdot(move, move)[..., None]
        change = self.change(r2, self.carry(r2), dr2, lambda: _sq_norm(disp + move[..., None]))
        return self._weighted(change).sum(axis=-1)

    def descent_state(self, disp, armijo_c=None, out=None):
        g_out, r2_out, carry_out, proj2_out, safe_out = (None,) * 5 if out is None else out
        g, r2, carry, slope = self._gradient(disp, g_out, r2_out, carry_out)
        safe = None
        if armijo_c is not None and self.majorizes:
            factor = 5.0 / 3.0 * (1.0 - armijo_c)
            with np.errstate(over="ignore", divide="ignore"):
                safe = np.divide(1.0, slope.sum(axis=-1), out=safe_out)
                safe *= min(1.0, factor) if self.exact else factor
        del slope  # before 2 g.v is formed: row_floats counts on it
        proj2 = np.einsum("...dn,...d->...n", disp, g, out=proj2_out)
        with np.errstate(over="ignore"):  # inf makes every trial from here inf
            proj2 *= 2.0
        return g, [r2, carry, proj2], safe

    def trials(self, state, t, gsq):
        r2, carry, proj2 = state
        dr2 = np.subtract((t * gsq)[:, None], proj2)
        dr2 *= t[:, None]
        return self._weighted(self.change(r2, carry, dr2)).sum(axis=-1)


class _Hyperbolic(_Radial):
    """phi(s) = sqrt(s + eps^2) - eps, the euclidean kinds; carries the root sqrt(s + eps^2)."""

    def __init__(self, spec):
        super().__init__(spec)
        self.eps = spec.epsilon or 0.0
        self.eps2 = self.eps * self.eps

    def value(self, r2, root=None):
        if root is None:
            root = self.carry(r2)
        if self.eps > 0.0:
            # r2 / (sqrt(r2 + eps^2) + eps) == sqrt(r2 + eps^2) - eps, but
            # free of cancellation for r << eps; inf, not inf / inf, once r2
            # overflows.
            return np.divide(r2, root + self.eps, out=np.full_like(r2, np.inf),
                             where=r2 != np.inf)
        return root

    def carry(self, r2, out=None):
        root = np.add(r2, self.eps2, out=out)
        return np.sqrt(root, out=root)

    def slope(self, r2, root):
        if root.all():
            return 1.0 / root
        _warn_nonsmooth()
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

    exact = True

    def value(self, r2, _=None):
        return r2

    def carry(self, r2, out=None):
        return None

    def slope(self, r2, _):
        return np.full_like(r2, 2.0)

    def change(self, r2, _, dr2, landing=None):
        return dr2


class _Gaussian(_Radial):
    """phi(s) = 1 - exp(-s / sigma^2); carries the damping exp(-s / sigma^2)."""

    majorizes = False

    def __init__(self, spec):
        super().__init__(spec)
        self.s2 = spec.sigma * spec.sigma
        self.two_over_s2 = 2.0 / self.s2

    def value(self, r2, _=None):
        return -np.expm1(-r2 / self.s2)

    def carry(self, r2, out=None):
        return np.exp(-r2 / self.s2, out=out)

    def slope(self, r2, damp):
        return self.two_over_s2 * damp

    def bend(self, r2, damp):
        return self.two_over_s2 * np.sqrt(damp)

    def change(self, r2, damp, dr2, landing=None):
        # -damp expm1(-dr^2 / sigma^2) where |dr^2| < sigma^2; elsewhere (nan
        # included) the difference of the two dampings, the one at landing
        # from |v + m|^2 where ``landing`` gives it: r^2 + dr^2 loses it to
        # rounding once |v| + |m| is far beyond sigma. The difference is only
        # formed when some term needs it; then for all, which at these sizes
        # costs less than picking the terms out.
        with np.errstate(over="ignore", invalid="ignore"):
            arg = dr2 / self.s2
            near = np.abs(arg) < 1.0
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
    """U_i = N - D^(1/p) eps with N = (sum_k r_k^p)^(1/p) and r_k = hypot(v_k, eps).

    Values, gradients and changes all come from the terms normalised by their
    largest (Blue, ACM TOMS 4, 1978; Anderson, ACM TOMS 44, 2017): with
    R = max_k r_k and q = r / R, N = R S^(1/p) for S = sum_k q_k^p, whose
    largest term is exactly 1. So S lies in [1, D] for any p >= 1 or
    magnitude, no coordinate is squared, and R multiplies last: a result is
    finite wherever it is representable. The descent state is the start side
    of a change (v, r, R, q^p and S) and g, so a trial normalises only the
    side where it lands.
    """

    def __init__(self, spec):
        self.p, self.eps = spec.p, spec.epsilon or 0.0

    def row_floats(self, n, d):
        return 12 * d * n

    def kept_floats(self, n, d):
        return 8 * (d + 1) * n

    def _normalised(self, disp):
        """r, R, q^(p-1), q^p and S at ``disp``. R = 0 (v = 0 at eps = 0) reads
        as the least positive float, so that every q and S are 0 there."""
        with np.errstate(over="ignore", invalid="ignore"):  # nan where hypot overflows
            r = np.hypot(disp, self.eps)
            top = np.maximum(r.max(axis=-2), 5e-324)
            q = r / top[..., None, :]
        qm = np.power(q, self.p - 1.0)
        q *= qm
        return r, top, qm, q, q.sum(axis=-2)

    def _value(self, top, s, d):
        """U, the sum of the terms, from R and S in D coordinates."""
        with np.errstate(over="ignore"):  # R multiplies last; the tracer checks U for inf
            norm = np.power(s, 1.0 / self.p) - d ** (1.0 / self.p) * (self.eps / top)
            return np.maximum(top * norm, 0.0).sum(axis=-1)

    def values(self, disp):
        _, top, _, _, s = self._normalised(disp)
        return self._value(top, s, disp.shape[-2])

    def values_at(self, state):
        disp, _, top, _, s, _ = state
        return self._value(top, s, disp.shape[-2])

    def _gradient(self, disp):
        """g, the gradient of the sum over anchors, with the r, R, q^p and S
        it is formed from."""
        r, top, qm, qp, s = self._normalised(disp)
        # d/dv_j R S^(1/p) = S^(1/p-1) q_j^(p-1) v_j / r_j, 0 where r_j = 0
        g = np.divide(disp, r, out=np.zeros_like(r), where=r > 0.0)
        g *= qm
        if not s.all():  # S is 0 at the kink and at least 1 elsewhere
            _warn_nonsmooth()
        g *= np.power(np.maximum(s, 1.0), 1.0 / self.p - 1.0)[..., None, :]
        return g.sum(axis=-1), r, top, qp, s

    def gradient(self, disp):
        return self._gradient(disp)[0]

    def _change(self, disp, r, top, qp, s, move):
        """N(v + m) - N(v) per anchor from the start side's r, R, q^p and S, for
        ``move`` of shape (..., D, 1). The landing side is normalised by its own
        R'. Where its power sum R'^p S' is within a factor of two of R^p S, R
        serves both: a term's change (r'_k / R)^p - q_k^p is q_k^p
        expm1(p/2 log1p(rho_k)), rho_k = (2 v_k m_k + m_k^2) / r_k^2, where that
        step is below 1, and the root of the sum goes through expm1/log1p too,
        free of cancellation. Elsewhere the powers, or the norms, differ by a
        factor e, or 2^(1/p), and their plain difference loses little to it.
        """
        p = self.p
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            rho = disp + move  # v + m, then rho in place
            qpn = np.hypot(rho, self.eps)
            top_new = np.maximum(qpn.max(axis=-2), 5e-324)
            qpn = np.power(qpn / top_new[..., None, :], p)
            s_new = qpn.sum(axis=-2)
            rise = np.power(top_new / top, p)  # (R' / R)^p
            near = np.abs(np.log2(rise * s_new / s)) <= 1.0
            # rho_k as (m_k / r_k) ((2 v_k + m_k) / r_k): no square to leave
            # the float range.
            rho += disp
            rho /= r
            rho *= move / r
            step = np.log1p(rho, out=rho)
            step *= p / 2.0
            small = np.abs(step) < 1.0
            np.expm1(step, out=step)
            step *= qp
            qpn = np.where(small, step, qpn * rise[..., None, :] - qp)
            root = np.power(s, 1.0 / p)
            change = top * (root * np.expm1(np.log1p(qpn.sum(axis=-2) / s) / p))
            if near.all():
                return change
            big = np.maximum(top, top_new)
            far = big * ((top_new / big) * np.power(s_new, 1.0 / p) - (top / big) * root)
        return np.where(near, change, far)

    def changes(self, disp, move):
        r, top, _, qp, s = self._normalised(disp)
        return self._change(disp, r, top, qp, s, move[..., None]).sum(axis=-1)

    def descent_state(self, disp, armijo_c=None, out=None):
        g, r, top, qp, s = self._gradient(disp)
        if out is not None:  # a copy costs little beside forming (rows, D, n) arrays
            for dest, column in zip(out, (g, disp, r, top, qp, s, g)):
                dest[...] = column
        return g, [disp, r, top, qp, s, g], None

    def trials(self, state, t, gsq):
        *start, g = state
        return self._change(*start, -(t[:, None] * g)[..., None]).sum(axis=-1)


_KERNELS = {"euclidean": _Hyperbolic, "p_norm": _PNorm, "squared": _Squared,
            "weighted_euclidean": _Hyperbolic, "gaussian_well": _Gaussian}
KINDS = tuple(_KERNELS)


def kernel(spec: PotentialSpec):
    """The kernels of ``spec``'s kind, on displacements of shape (..., D, n).
    Each sums its terms over the anchors to one total per row: ``values``,
    ``gradient`` and ``changes``, as the ``batch_*`` functions below;
    ``hessian``, the (..., D, D) Hessian of U, for ``gaussian_well`` alone
    (the other radial kinds have no ``bend`` yet and ``p_norm`` no
    ``hessian``; ``enumerate_critical_points`` probes only the non-convex
    kinds); ``descent_state``, g (bit for
    bit ``gradient``'s), a list of per-row arrays from which
    ``values_at(state)`` gives U (bit for bit ``values``') and
    ``trials(state, t, gsq)`` gives U(x - t g) - U(x) for one t per row
    (``gsq`` = |g|^2), and, given ``armijo_c``, for euclidean,
    weighted_euclidean and squared, the guaranteed step t_safe per row of
    :class:`_Radial` (None unasked and for the other kinds); given ``out``, a
    list of arrays shaped like g, the state's arrays and t_safe, None where
    those are None, ``descent_state`` also writes them there;
    ``row_floats(n, d)``, the floats one row holds at the peak of a descent
    step; and ``kept_floats(n, d)``, the floats each further row of a lockstep
    block adds to that peak (its line-search state and a trial's
    temporaries), both from tracemalloc traces, the latter with a margin;
    ``Objective`` sizes ``block_rows`` and ``lockstep_rows`` from them.
    The kind's parameters come from ``spec`` alone, and so do the weights
    that multiply the terms of ``weighted_euclidean``. A U past the float
    range is inf, without a warning.
    """
    return _KERNELS[spec.kind](spec)


def batch_values(spec: PotentialSpec, disp: np.ndarray) -> np.ndarray:
    """The sum of the potential's terms over the anchors; ``disp`` has shape
    (..., D, n), the result (...)."""
    return kernel(spec).values(disp)


def batch_gradients(spec: PotentialSpec, disp: np.ndarray) -> np.ndarray:
    """Analytic gradient of :func:`batch_values`, shape (..., D)."""
    return kernel(spec).gradient(disp)


def batch_value_changes(spec: PotentialSpec, disp: np.ndarray, move: np.ndarray) -> np.ndarray:
    """U(v + move) - U(v) summed over the anchors from each term's
    cancellation-free change; the result has shape (...).

    ``disp`` has shape (..., D, n) and ``move`` shape (..., D): each move is
    shared by the n anchors at its leading index (for a (D, n) ``disp``, one
    D-vector moves them all). Decreases far below one ulp of the total
    objective remain resolvable.
    """
    return kernel(spec).changes(disp, move)


def as_vector(coords, field: str) -> np.ndarray:
    """Coerce ``coords`` to a finite, non-empty 1-D float vector; errors name ``field``."""
    arr = np.asarray(coords, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise InputError(
            f"{field}: expected a non-empty 1-D coordinate sequence, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise InputError(f"{field}: coordinates must be finite")
    return arr


def _term_kernel(spec, anchor_index):
    """The kernel of one term: ``spec`` with only the weight of ``anchor_index``."""
    if spec.weights is not None:
        if not 0 <= anchor_index < len(spec.weights):
            raise InputError(f"anchor_index: {anchor_index} outside [0, {len(spec.weights)})")
        spec = replace(spec, weights=(spec.weights[anchor_index],))
    return kernel(spec)


def potential_value(spec: PotentialSpec, displacement, anchor_index: int = 0) -> float:
    """Value of one potential term at the given displacement.

    ``anchor_index`` selects the weight for ``weighted_euclidean`` and is
    ignored by the other kinds.
    """
    v = as_vector(displacement, "displacement")
    return float(_term_kernel(spec, anchor_index).values(v[:, None]))


def potential_gradient(spec: PotentialSpec, displacement, anchor_index: int = 0) -> np.ndarray:
    """Gradient of one potential term at the given displacement."""
    v = as_vector(displacement, "displacement")
    return _term_kernel(spec, anchor_index).gradient(v[:, None])
