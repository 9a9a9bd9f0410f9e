"""Quasi-static descent tracing and residual checks on traced curves.

A test particle released at a testing point moves along the force -grad U;
strong dissipation keeps the motion quasi-static, so only the path matters
and the trajectory is realized as first-order descent

    x <- x - t * grad U(x)

with a backtracking Armijo line search choosing t. The accepted iterates
form a polyline (the iterative curve) ending at a rest point where the
gradient norm falls below the configured tolerance.

Two residual operations verify traced curves against the defining
properties of flow lines: every step parallel to the local force
(:func:`tangency_residual`) and, on axis-monotone segments, the D-1
integral equations relating the remaining coordinates to the axis
coordinate (:func:`graph_residual`).
"""

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import Objective
from .errors import ConfigError, InputError, NumericalError

CONVERGED = "converged"
MAX_STEPS = "max_steps"
STALLED = "stalled"


def _g17(x) -> str:
    return format(float(x), ".17g")


@dataclass(frozen=True)
class FlowConfig:
    """Termination and line-search parameters for the descent tracer.

    ``grad_tol`` is the rest criterion on |grad U|; a step multiplier
    shrinking below ``min_step`` without an Armijo acceptance stalls the
    trace. ``initial_step`` is the first trial multiplier's seed (the first
    search tries up to ``initial_step / backtrack_factor``) and the floor of
    the growth cap, so steps of ``initial_step * |grad U|`` stay allowed
    however short the anchor set is; later searches start from the last
    accepted multiplier (see :func:`trace_flow`). The default tolerance is
    what eps-smoothed anchor spikes support in double precision (their
    curvature ~1/eps turns one coordinate ulp into a gradient jitter of
    order 1e-7 at desk scale); smooth objectives such as the squared
    potential certify much tighter tolerances when configured to.
    """

    grad_tol: float = 1e-6
    max_steps: int = 10_000
    initial_step: float = 1.0
    # 0.25 keeps accepted steps out of the overshoot zone t*curvature -> 2,
    # where a halving backtrack can land otherwise and bounce across narrow
    # minima with contraction ~1 per step.
    armijo_c: float = 0.25
    backtrack_factor: float = 0.5
    min_step: float = 1e-18

    def __post_init__(self):
        checks = [
            (self.grad_tol > 0.0, "grad_tol", "must be > 0"),
            (self.max_steps > 0, "max_steps", "must be > 0"),
            (self.initial_step > 0.0, "initial_step", "must be > 0"),
            (0.0 < self.armijo_c < 1.0, "armijo_c", "must lie in (0, 1)"),
            (0.0 < self.backtrack_factor < 1.0, "backtrack_factor", "must lie in (0, 1)"),
            (self.min_step > 0.0, "min_step", "must be > 0"),
            (self.min_step < self.initial_step, "min_step", "must be < initial_step"),
        ]
        for ok, field, problem in checks:
            if not ok:
                raise ConfigError(f"flow.{field}: {problem}, got {getattr(self, field)}")


@dataclass(frozen=True, eq=False)
class FlowTrace:
    """Ordered samples of one descent run.

    Arrays are index-aligned: sample k has ``points[k]``, ``values[k]``,
    ``grad_norms[k]`` and ``step_lens[k]`` (path length walked since sample
    k-1; 0 for the first sample). ``step_vectors[k]``, when present, is the
    exact step vector the tracer took leaving sample k; hand-built traces
    may omit it. Recorded values are strictly decreasing; iterates whose
    decrease is below one ulp of the running value are folded into the
    terminal sample rather than appended as value ties. The one unavoidable
    exception: when already the first step's decrease is unrepresentable,
    the terminal repeats the starting value (the testing point must stay
    recorded, and no correct recorder can make that pair strict).

    The counters record the tracer's work: ``n_value_changes`` and
    ``n_gradients`` count objective evaluations, ``n_backtracks`` the trial
    multipliers the Armijo test rejected. Hand-built traces leave them 0.
    """

    points: np.ndarray
    values: np.ndarray
    grad_norms: np.ndarray
    step_lens: np.ndarray
    status: str
    step_vectors: np.ndarray | None = None
    n_value_changes: int = 0
    n_gradients: int = 0
    n_backtracks: int = 0

    def __post_init__(self):
        object.__setattr__(self, "points", np.atleast_2d(np.asarray(self.points, dtype=float)))
        for name in ("values", "grad_norms", "step_lens"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))

    def __len__(self) -> int:
        return self.points.shape[0]

    @property
    def terminal_point(self) -> np.ndarray:
        return self.points[-1]

    @property
    def terminal_value(self) -> float:
        return float(self.values[-1])

    @property
    def terminal_grad_norm(self) -> float:
        return float(self.grad_norms[-1])

    def write_csv(self, path) -> None:
        """Write one row per sample: step,Z_1,...,Z_D,U,grad_norm,step_len."""
        d = self.points.shape[1]
        header = "step," + ",".join(f"Z_{i + 1}" for i in range(d)) + ",U,grad_norm,step_len"
        lines = [header]
        for k in range(len(self)):
            cells = [str(k)]
            cells += [_g17(c) for c in self.points[k]]
            cells += [_g17(self.values[k]), _g17(self.grad_norms[k]), _g17(self.step_lens[k])]
            lines.append(",".join(cells))
        Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def trace_flow(obj: Objective, start, cfg: FlowConfig | None = None) -> FlowTrace:
    """Trace the descent curve from ``start`` until rest, stall, or step budget.

    Each iteration backtracks t until the Armijo decrease
    U(x - t g) <= U(x) - c t |g|^2 holds; the decrease is measured with
    :meth:`Objective.value_change` so acceptance stays resolvable even when
    it is far below one ulp of U. The search starts from the previous
    accepted multiplier divided by ``backtrack_factor`` (``initial_step``
    standing in for it before the first step), so t grows on flat ground
    while Armijo keeps accepting and need not re-shrink after every step.
    The trial is capped at max(``initial_step``, L / |g|), where L is the
    objective's ``length_scale``: no step is longer than the anchor set
    unless ``initial_step`` asks for that. Raises :class:`NumericalError`
    (carrying the partial trace) if U or grad U turns non-finite at an
    accepted point.
    """
    cfg = cfg or FlowConfig()
    x = obj.check_point(start)

    u = obj.value(x)
    if not np.isfinite(u):
        raise NumericalError(f"objective is non-finite at the starting point (U={u})")
    g = obj.gradient(x)
    gn = float(np.linalg.norm(g))
    n_value_changes = n_backtracks = 0
    n_gradients = 1

    pts = [x]
    vals = [u]
    gnorms = [gn]
    slens = [0.0]
    svecs: list[np.ndarray] = []

    def partial(status):
        return FlowTrace(np.array(pts), np.array(vals), np.array(gnorms),
                         np.array(slens), status,
                         np.array(svecs) if svecs else np.empty((0, x.size)),
                         n_value_changes, n_gradients, n_backtracks)

    if not np.all(np.isfinite(g)):
        raise NumericalError("gradient is non-finite at the starting point",
                             trace=partial(STALLED))

    # Kahan-style carry keeps sub-ulp decreases from being lost before they
    # accumulate into a representable drop of the recorded value.
    pending_drop = 0.0
    pending_len = 0.0
    # The first step must not overwrite the testing-point sample even when
    # its decrease is below one ulp; the resulting value tie sits at the
    # terminal and is absorbed by the next resolvable drop.
    tie_at_terminal = False
    status = None

    t = cfg.initial_step  # the last accepted multiplier, carried between searches
    for _ in range(cfg.max_steps):
        if gn <= cfg.grad_tol:
            status = CONVERGED
            break

        gsq = gn * gn
        # The cap keeps t finite over a long run of acceptances (an infinite
        # t never backtracks below min_step), and keeps a step no longer than
        # the anchor set unless initial_step itself asks for that.
        t = min(t / cfg.backtrack_factor, max(cfg.initial_step, obj.length_scale / gn))
        accepted = False
        while t >= cfg.min_step:
            w = t * g
            delta = obj.value_change(x, -w)
            n_value_changes += 1
            if np.isfinite(delta) and delta < 0.0 and delta <= -cfg.armijo_c * t * gsq:
                accepted = True
                break
            n_backtracks += 1
            t *= cfg.backtrack_factor
        if not accepted:
            status = STALLED
            break

        x_new = x - w
        if np.array_equal(x_new, x):
            # The accepted step is below coordinate resolution: the iterate
            # cannot move, so stop rather than spin on an unchanged point.
            status = STALLED
            break
        x = x_new
        g = obj.gradient(x)
        n_gradients += 1
        if not np.all(np.isfinite(g)):
            raise NumericalError("gradient turned non-finite during descent",
                                 trace=partial(STALLED))
        gn = float(np.linalg.norm(g))

        pending_drop += delta
        pending_len += t * math.sqrt(gsq)
        u_new = vals[-1] + pending_drop
        if u_new < vals[-1] and not tie_at_terminal:
            # Resolvable decrease: append a new sample. The step just taken
            # departed the recorded terminal sample, so -w is its tangent
            # record.
            pending_drop -= u_new - vals[-1]
            pts.append(x)
            vals.append(u_new)
            gnorms.append(gn)
            slens.append(pending_len)
            svecs.append(-w)
            pending_len = 0.0
        elif u_new < vals[-1]:
            # A resolvable decrease absorbs the terminal value tie.
            pending_drop -= u_new - vals[-1]
            pts[-1] = x
            vals[-1] = u_new
            gnorms[-1] = gn
            slens[-1] += pending_len
            pending_len = 0.0
            tie_at_terminal = False
        elif len(pts) == 1:
            pts.append(x)
            vals.append(u_new)
            gnorms.append(gn)
            slens.append(pending_len)
            svecs.append(-w)
            pending_len = 0.0
            tie_at_terminal = True
        else:
            # Sub-ulp decrease: slide the terminal sample forward in place.
            pts[-1] = x
            gnorms[-1] = gn
            slens[-1] += pending_len
            pending_len = 0.0
    else:
        status = CONVERGED if gn <= cfg.grad_tol else MAX_STEPS

    return partial(status)


def tangency_residual(obj: Objective, trace: FlowTrace) -> float:
    """Largest sin of the angle between a trace step and the local force.

    0 means every recorded departure is exactly parallel to -grad U at its
    sample point. Uses the stored step vectors when the trace carries them
    (they are exact multiples of the gradient, immune to the rounding of
    point subtraction); falls back to consecutive point differences for
    hand-built traces. Zero-length steps are skipped.
    """
    pts = trace.points
    if len(trace) < 2:
        raise InputError("trace: tangency residual needs at least 2 samples")
    use_stored = trace.step_vectors is not None and len(trace.step_vectors) == len(trace) - 1
    worst = 0.0
    for k in range(len(trace) - 1):
        s = trace.step_vectors[k] if use_stored else pts[k + 1] - pts[k]
        ns = float(np.linalg.norm(s))
        if ns == 0.0:
            continue
        d = -obj.gradient(pts[k])
        nd = float(np.linalg.norm(d))
        if nd == 0.0:
            continue
        s_hat = s / ns
        d_hat = d / nd
        perp = s_hat - np.dot(s_hat, d_hat) * d_hat
        worst = max(worst, float(np.linalg.norm(perp)))
    return worst


def graph_residual(obj: Objective, trace: FlowTrace, axis: int = 0,
                   slope_floor: float | None = None) -> np.ndarray | None:
    """Residuals of the D-1 integral equations tying each coordinate to the axis one.

    On the longest run of consecutive samples where the axis coordinate is
    strictly monotone and |dU/dZ_axis| stays at or above ``slope_floor``
    (default: 1e-6 of its largest magnitude along the trace), evaluates for
    every other coordinate i

        | Z_i(end) - Z_i(start) - integral (dU/dZ_i / dU/dZ_axis) dZ_axis |

    with the trapezoid rule over the samples. Returns the D-1 residuals in
    coordinate order, an empty array when D == 1, and None when no
    qualifying segment of at least two samples exists (not applicable, as
    opposed to a zero residual).
    """
    pts = trace.points
    m, d = pts.shape
    if not 0 <= axis < d:
        raise InputError(f"axis: {axis} outside [0, {d})")
    if d == 1:
        return np.empty(0)
    if m < 2:
        return None

    grads = np.array([obj.gradient(p) for p in pts])
    ga = grads[:, axis]
    if slope_floor is None:
        peak = float(np.abs(ga).max())
        if peak == 0.0:
            return None
        slope_floor = 1e-6 * peak
    qualify = (np.abs(ga) >= slope_floor) & (ga != 0.0)
    dz = np.diff(pts[:, axis])

    best = None
    i = 0
    while i < m:
        if not qualify[i]:
            i += 1
            continue
        j = i
        sign = 0
        while j + 1 < m and qualify[j + 1] and dz[j] != 0.0:
            step_sign = 1 if dz[j] > 0.0 else -1
            if sign == 0:
                sign = step_sign
            elif step_sign != sign:
                break
            j += 1
        if j > i and (best is None or j - i > best[1] - best[0]):
            best = (i, j)
        i = j + 1 if j == i else j  # a monotone run may restart at its last sample

    if best is None:
        return None
    a, b = best
    z = pts[a:b + 1, axis]
    res = []
    for k in range(d):
        if k == axis:
            continue
        f = grads[a:b + 1, k] / grads[a:b + 1, axis]
        integral = float(np.trapezoid(f, z))
        res.append(abs(float(pts[b, k] - pts[a, k]) - integral))
    return np.asarray(res)
