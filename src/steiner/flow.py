"""Quasi-static descent tracing and residual checks on traced curves.

A test particle released at a testing point moves along the force -grad U;
strong dissipation keeps the motion quasi-static, so only the path matters
and the trajectory is realized as first-order descent

    x <- x - t * grad U(x)

with a backtracking Armijo line search choosing t. The accepted iterates
form a polyline (the iterative curve) ending at a rest point where the
gradient norm falls below the configured tolerance. Many starts are traced
in lockstep blocks (:func:`trace_flows`), bit for bit as one at a time.

Two residual operations verify traced curves against the defining
properties of flow lines: every step parallel to the local force
(:func:`tangency_residual`) and, on axis-monotone segments, the D-1
integral equations relating the remaining coordinates to the axis
coordinate (:func:`graph_residual`).
"""

from collections.abc import Iterator
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
    accepted point. This is the one-start case of :func:`trace_flows`.
    """
    traces, failure = _descend(obj, obj.check_point(start)[None, :], cfg or FlowConfig())
    if failure is not None:
        _, message, partial = failure
        raise NumericalError(message, trace=partial)
    return traces[0]


def trace_flows(obj: Objective, starts, cfg: FlowConfig | None = None) -> Iterator[FlowTrace]:
    """Trace descent from every row of ``starts`` (shape (m, D)); yield the traces in order.

    The starts advance in lockstep, ``obj.block_rows`` at a time, and each
    trace, its status and its counters equal those of :func:`trace_flow`
    from the same start bit for bit. A block's traces are yielded once the
    block is done, so a caller that keeps only what it needs of each trace
    holds one block of traces at a time. When a trace fails, the blocks
    before the failing one are yielded and then the lowest-index failing
    start's :class:`NumericalError` is raised, with "start <k>: " before
    its message and its partial trace. ``starts`` is checked before this
    returns.
    """
    cfg = cfg or FlowConfig()
    starts = obj.check_points(starts)

    def blocks():
        for lo in range(0, len(starts), obj.block_rows):
            traces, failure = _descend(obj, starts[lo:lo + obj.block_rows], cfg)
            if failure is not None:
                row, message, partial = failure
                raise NumericalError(f"start {lo + row}: {message}", trace=partial)
            yield from traces

    return blocks()


class _Running:
    """Per-row state of the rows of a lockstep block that are still running.

    One entry per row, in start order; :meth:`keep` drops rows that stop.
    ``row`` is the start index. The terminal sample of a row is (``x``,
    ``u``, ``gn``, ``length``): its point and gradient norm are always the
    current ones; earlier samples are committed to the log and never change.
    ``disp`` holds x - a_i, shared by the gradient at x and the line search
    that leaves x. ``w``, ``delta`` and ``gsq`` belong to the current step.
    """

    FIELDS = ("row", "x", "disp", "g", "gn", "t", "u", "length", "carry", "tie", "samples",
              "counts", "w", "delta", "gsq")

    def __init__(self, **fields):
        self.__dict__.update(fields)

    def keep(self, mask):
        for name in self.FIELDS:
            setattr(self, name, getattr(self, name)[mask])


def _descend(obj: Objective, starts: np.ndarray, cfg: FlowConfig):
    """The descent loop: trace every row of ``starts`` in lockstep.

    Each iteration takes one step on every running row: rows at rest
    converge, the rest run a backtracking search together (a row leaves it
    on acceptance, or stalls when t drops below ``min_step``), and the rows
    that moved get one batched gradient. All arithmetic is per row and in
    the order of a single-row run, so a row's trace does not depend on the
    others. Returns (traces, None), or (None, (row, message, partial
    trace)) for the lowest row whose U or grad U turned non-finite; rows
    above a failed one stop, as a sequential run would never reach them.
    """
    m, d = starts.shape
    status: list[str | None] = [None] * m
    failure = None
    # Committed samples, one list of per-step arrays per column: start index,
    # point, value, gradient norm, step length and the step that left it.
    log: list[list[np.ndarray]] = [[] for _ in range(6)]
    # The terminal sample and the counters (value changes, gradients,
    # backtracks) of each start, filled in when its row stops.
    end_x = np.empty((m, d))
    end_u, end_gn, end_len = np.empty(m), np.empty(m), np.empty(m)
    end_counts = np.zeros((m, 3), dtype=int)

    disp = obj._displacements(starts)
    run = _Running(
        row=np.arange(m), x=starts, disp=disp, g=np.zeros((m, d)), gn=np.zeros(m),
        t=np.full(m, cfg.initial_step),  # the last accepted multiplier, carried between searches
        u=obj._values(disp), length=np.zeros(m),
        # Kahan-style carry keeps sub-ulp decreases from being lost before
        # they accumulate into a representable drop of the recorded value.
        carry=np.zeros(m),
        # The first step must not overwrite the testing-point sample even
        # when its decrease is below one ulp; the resulting value tie sits at
        # the terminal and is absorbed by the next resolvable drop.
        tie=np.zeros(m, dtype=bool), samples=np.ones(m, dtype=int),
        counts=np.zeros((m, 3), dtype=int), w=np.zeros((m, d)), delta=np.zeros(m),
        gsq=np.zeros(m))

    def stop(mask, why):
        """End the masked rows with status ``why`` and drop them."""
        rows = run.row[mask]
        for row in rows.tolist():
            status[row] = why
        end_x[rows], end_u[rows], end_gn[rows] = run.x[mask], run.u[mask], run.gn[mask]
        end_len[rows], end_counts[rows] = run.length[mask], run.counts[mask]
        run.keep(~mask)

    def traces(rows, columns):
        """FlowTraces of ``rows`` (ascending) from ``columns`` of the log and
        the terminal samples.

        Consumes ``columns``: each is joined, put in row order and freed in
        turn, so the peak memory stays near that of the result.
        """
        owners = np.concatenate([*columns[0], np.empty(0, dtype=int)])
        mine = np.flatnonzero(np.isin(owners, rows))
        # Each row's committed samples in step order, then its terminal one.
        sample_at = np.concatenate([mine, len(owners) + np.arange(len(rows))])[
            np.argsort(np.concatenate([owners[mine], rows]), kind="stable")]
        step_at = mine[np.argsort(owners[mine], kind="stable")]
        sizes = np.bincount(owners[mine], minlength=m)[rows]
        sample_bounds = np.concatenate([[0], np.cumsum(sizes + 1)]).tolist()
        step_bounds = np.concatenate([[0], np.cumsum(sizes)]).tolist()

        def split(pieces, last, at, bounds):
            joined = np.concatenate([*pieces, last])[at]
            pieces.clear()
            return [joined[a:b] for a, b in zip(bounds[:-1], bounds[1:])]

        per_row = [split(pieces, terminal[rows], sample_at, sample_bounds)
                   for pieces, terminal in zip(columns[1:5], (end_x, end_u, end_gn, end_len))]
        per_row.append(split(columns[5], np.empty((0, d)), step_at, step_bounds))
        return [FlowTrace(p, v, g, s, status[r], sv, *end_counts[r].tolist())
                for r, p, v, g, s, sv in zip(rows.tolist(), *per_row)]

    def fail(bad, message, with_trace=True):
        """Record the first failing row; it and every later row stop.

        Returns the mask of the rows that keep running."""
        nonlocal failure
        first = int(np.flatnonzero(bad)[0])
        row = int(run.row[first])
        positions = np.arange(len(run.row))
        stop(positions == first, STALLED)
        run.keep(positions[:-1] < first)
        partial = (traces(np.array([row]), [list(column) for column in log])[0]
                   if with_trace else None)
        failure = (row, message, partial)
        return positions < first

    bad = ~np.isfinite(run.u)
    if bad.any():
        fail(bad, f"objective is non-finite at the starting point "
                  f"(U={float(run.u[np.flatnonzero(bad)[0]])})", with_trace=False)
    run.g = obj._gradients(run.disp)
    run.gn = np.sqrt(np.vecdot(run.g, run.g))
    run.counts[:, 1] = 1
    bad = ~np.isfinite(run.g).all(axis=1)
    if bad.any():
        fail(bad, "gradient is non-finite at the starting point")

    for _ in range(cfg.max_steps):
        at_rest = run.gn <= cfg.grad_tol
        if at_rest.any():
            stop(at_rest, CONVERGED)
        if not run.row.size:
            break

        run.gsq = run.gn * run.gn
        # The cap keeps t finite over a long run of acceptances (an infinite
        # t never backtracks below min_step), and keeps a step no longer than
        # the anchor set unless initial_step itself asks for that.
        run.t = np.minimum(run.t / cfg.backtrack_factor,
                           np.maximum(cfg.initial_step, obj.length_scale / run.gn))
        # Backtracking search; a row leaves it on its first accepted trial.
        k = len(run.row)
        run.w, run.delta = np.empty((k, d)), np.empty(k)
        tries, accepted = np.zeros(k, dtype=int), np.zeros(k, dtype=bool)
        pos, ts, gs, ds, gq = np.arange(k), run.t, run.g, run.disp, run.gsq
        trials = 0
        while True:
            short = ts < cfg.min_step
            if short.any():
                tries[pos[short]] = trials
                pos, ts, gs, ds, gq = (a[~short] for a in (pos, ts, gs, ds, gq))
                if not pos.size:
                    break
            ws = ts[:, None] * gs
            trial = obj._value_changes(ds, -ws)
            ok = np.isfinite(trial) & (trial < 0.0) & (trial <= -cfg.armijo_c * ts * gq)
            if ok.any():
                done = pos[ok]
                run.t[done], run.w[done], run.delta[done] = ts[ok], ws[ok], trial[ok]
                tries[done], accepted[done] = trials + 1, True
                if ok.all():
                    break
                pos, ts, gs, ds, gq = (a[~ok] for a in (pos, ts, gs, ds, gq))
            trials += 1
            ts = ts * cfg.backtrack_factor
        run.counts[:, 0] += tries
        run.counts[:, 2] += tries - accepted
        if not accepted.all():
            stop(~accepted, STALLED)

        x_new = run.x - run.w
        still = (x_new == run.x).all(axis=1)
        if still.any():
            # The accepted step is below coordinate resolution: the iterate
            # cannot move, so stop rather than spin on an unchanged point.
            stop(still, STALLED)
            x_new = x_new[~still]
        disp = obj._displacements(x_new)
        g = obj._gradients(disp)
        run.counts[:, 1] += 1
        bad = ~np.isfinite(g).all(axis=1)
        if bad.any():
            keep = fail(bad, "gradient turned non-finite during descent")
            x_new, disp, g = x_new[keep], disp[keep], g[keep]
        gn = np.sqrt(np.vecdot(g, g))

        pending = run.carry + run.delta
        u_new = run.u + pending
        drop = u_new < run.u
        run.carry = np.where(drop, pending - (u_new - run.u), pending)
        # A resolvable decrease appends a sample, or absorbs a terminal value
        # tie; the first step appends even a sub-ulp decrease (as a tie);
        # any later sub-ulp decrease slides the terminal sample forward.
        first = run.samples == 1
        append = (drop & ~run.tie) | (~drop & first)
        step_len = run.t * np.sqrt(run.gsq)
        if append.any():
            # The step just taken departed the terminal sample, so -w is its
            # tangent record.
            for column, value in zip(log, (run.row, run.x, run.u, run.gn, run.length, -run.w)):
                column.append(value[append])
            run.samples = run.samples + append
        run.length = np.where(append, step_len, run.length + step_len)
        run.u = np.where(drop | append, u_new, run.u)
        run.tie = np.where(drop, False, run.tie | (~drop & first))
        run.x, run.disp, run.g, run.gn = x_new, disp, g, gn

    at_rest = run.gn <= cfg.grad_tol
    stop(at_rest, CONVERGED)
    stop(np.ones(len(run.row), dtype=bool), MAX_STEPS)
    if failure is not None:
        return None, failure
    return traces(np.arange(m), log), None


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
    steps = trace.step_vectors if use_stored else np.diff(pts, axis=0)
    forces = -obj.gradient_many(obj.check_points(pts[:-1]))
    ns = np.sqrt(np.vecdot(steps, steps))
    nd = np.sqrt(np.vecdot(forces, forces))
    keep = (ns != 0.0) & (nd != 0.0)
    s_hat = steps[keep] / ns[keep, None]
    d_hat = forces[keep] / nd[keep, None]
    perp = s_hat - np.vecdot(s_hat, d_hat)[:, None] * d_hat
    return float(np.sqrt(np.vecdot(perp, perp)).max(initial=0.0))


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

    grads = obj.gradient_many(obj.check_points(pts))
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
