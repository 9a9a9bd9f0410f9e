"""Quasi-static descent tracing and residual checks on traced curves.

A test particle released at a testing point moves along the force -grad U;
strong dissipation keeps the motion quasi-static, so only the path matters
and the trajectory is realized as first-order descent

    x <- x - t * grad U(x)

with a backtracking Armijo line search choosing t; each search first tries
the Barzilai-Borwein two-point multiplier of the previous step. The
accepted iterates form a polyline (the iterative curve) ending at a rest
point where the gradient norm falls below the configured tolerance. Many
starts are traced in lockstep blocks (:func:`rest_points`), bit for bit as
one at a time.

Two residual operations verify traced curves against the defining
properties of flow lines: every step parallel to the local force
(:func:`tangency_residual`) and, on axis-monotone segments, the D-1
integral equations relating the remaining coordinates to the axis
coordinate (:func:`graph_residual`).
"""

from dataclasses import dataclass
from itertools import repeat
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .core import Objective, is_integer
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
    however short the anchor set is; later searches start from the
    Barzilai-Borwein multiplier of the previous step, or from the last
    accepted multiplier over ``backtrack_factor`` (see :func:`trace_flow`),
    so ``initial_step`` does not set the spacing of the traced samples. The
    default tolerance is what eps-smoothed anchor spikes support in double
    precision (their curvature ~1/eps turns one coordinate ulp into a
    gradient jitter of order 1e-7 at desk scale); smooth objectives such as
    the squared potential certify much tighter tolerances when configured
    to.
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
            (0.0 < self.grad_tol < np.inf, "grad_tol", "must be finite and > 0"),
            (is_integer(self.max_steps) and self.max_steps > 0, "max_steps",
             "must be an integer > 0"),
            (0.0 < self.initial_step < np.inf, "initial_step", "must be finite and > 0"),
            (0.0 < self.armijo_c < 1.0, "armijo_c", "must lie in (0, 1)"),
            (0.0 < self.backtrack_factor < 1.0, "backtrack_factor", "must lie in (0, 1)"),
            (0.0 < self.min_step < np.inf, "min_step", "must be finite and > 0"),
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
    multipliers the Armijo test rejected. Every value change is one trial,
    whether a Barzilai-Borwein, warm-start or backtracked one, and a trial
    made from the state carried from the gradient at x (r^2 and g.(x - a_i)
    for the radial kinds) still counts one. Hand-built traces leave them 0.
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
    it is far below one ulp of U. The search's first trial is the
    Barzilai-Borwein multiplier s.s / s.y of the previous step s and the
    change y of the gradient along it, where s.y > 0. Elsewhere it is the
    warm start: the previous accepted multiplier divided by
    ``backtrack_factor`` (``initial_step`` standing in for it before the
    first step), so t grows on flat ground while Armijo keeps accepting.
    Either trial is capped at max(``initial_step``, L / |g|), where L is the
    objective's ``length_scale``: no step is longer than the anchor set
    unless ``initial_step`` asks for that. The Armijo test keeps every step
    monotone, and every step is a multiple of -grad U. The gradient at x
    leaves the state every trial from x reuses: for the radial kinds r^2,
    the kind's carry and g.(x - a_i) per anchor, so a trial costs O(n)
    instead of O(nD). Raises :class:`NumericalError` (carrying the partial
    trace) if U or grad U turns non-finite at an accepted point. This is the
    one-start case of :func:`rest_points`.
    """
    block, failure = _descend(obj, obj.check_point(start)[None, :], cfg or FlowConfig(), True)
    if failure is not None:
        _, message, partial = failure
        raise NumericalError(message, trace=partial)
    return block.traces[0]


class RestPoints(NamedTuple):
    """Where the traces from a set of starts came to rest, one row per start.

    ``points``, ``values`` and ``grad_norms`` are each trace's terminal
    sample, ``statuses`` why it stopped, and ``counts`` its counters (value
    changes, gradients, backtracks) as columns. ``traces`` holds the traces
    themselves when they were asked for, else None.
    """

    points: np.ndarray
    values: np.ndarray
    grad_norms: np.ndarray
    statuses: list[str]
    counts: np.ndarray
    traces: list[FlowTrace] | None


def rest_points(obj: Objective, starts: np.ndarray, cfg: FlowConfig,
                keep_traces: bool) -> RestPoints:
    """Trace descent from every row of ``starts`` (shape (m >= 1, D)) and
    return where each came to rest, with the traces when ``keep_traces`` is set.

    The m starts advance in lockstep blocks: max(1, m // ``obj.block_rows``)
    consecutive blocks of near-equal size, so each holds fewer than
    2 * ``obj.block_rows`` rows and none is a short tail. A block runs until
    its slowest row stops, so a tail of a few rows would pay the per-step
    cost of a whole block for them. Rows do not interact: each trace, its
    status and its counters equal those of :func:`trace_flow` from the same
    start bit for bit. Without traces a block logs only each row's terminal
    sample. A start whose U or grad U turns non-finite stops only its own
    row; once its block is done the lowest-index failing start's
    :class:`NumericalError` is raised, with "start <k>: " before its
    message, k its index among all the starts, and its partial trace
    (traced again alone when the block kept no samples).
    """
    starts = obj.check_points(starts)
    m = len(starts)
    count = max(1, m // obj.block_rows)
    edges = [m * k // count for k in range(count + 1)]
    blocks = []
    for lo, hi in zip(edges, edges[1:]):
        block, failure = _descend(obj, starts[lo:hi], cfg, keep_traces)
        if failure is not None:
            row, message, partial = failure
            raise NumericalError(f"start {lo + row}: {message}", trace=partial)
        blocks.append(block)

    def joined(name):
        return np.concatenate([getattr(block, name) for block in blocks])

    return RestPoints(joined("points"), joined("values"), joined("grad_norms"),
                      [status for block in blocks for status in block.statuses],
                      joined("counts"),
                      [trace for block in blocks for trace in block.traces] if keep_traces
                      else None)


class _Running:
    """Per-row state of the rows of a lockstep block that are still running.

    Every attribute holds one entry per row, in start order; :meth:`keep`
    drops rows that stop. ``row`` is the start index. The current sample of
    a row is (``x``, ``u``, ``gn``, ``length``); earlier samples are in the
    log and never change. ``g`` is the gradient at x and ``state`` the tuple
    of per-row arrays that :meth:`Objective._descent_state` gave with it;
    every trial of the line search leaving x is made from them. ``t`` is the
    next search's first trial before the cap, and within a step the accepted
    multiplier. ``w``, ``delta`` and ``gsq`` belong to the current step.
    """

    def __init__(self, **fields):
        self.__dict__.update(fields)

    def keep(self, mask):
        self.__dict__.update({name: tuple(_rows_of(value, mask)) if isinstance(value, tuple)
                              else value[mask] for name, value in self.__dict__.items()})


def _descend(obj: Objective, starts: np.ndarray, cfg: FlowConfig, log_samples: bool):
    """The descent loop: trace every row of ``starts`` in lockstep.

    Each iteration takes one step on every running row: rows at rest
    converge, the rest run a backtracking search together that a row leaves
    once its trial is accepted or its next t is below ``min_step``, the
    rows that did not move stall, and the rest get one batched gradient.
    All arithmetic is per row and in the order of a single-row run, so a
    row's trace does not depend on the others. A start whose U or grad U
    turns non-finite stops only its own row. Only with ``log_samples`` set are
    the samples before each terminal logged and the traces built. Returns
    (:class:`RestPoints`, None), or (None, (row, message, partial trace))
    for the lowest failing row; the partial trace is None where U was
    non-finite at the start.
    """
    m, d = starts.shape
    status: list[str | None] = [None] * m
    failures: dict[int, str] = {}
    # The samples, one list of per-step arrays per column: start index,
    # point, value, gradient norm, step length and the step that left the
    # sample. A row's terminal sample goes in when the row stops, with a
    # placeholder step; without ``log_samples`` it is the only one.
    log: list[list[np.ndarray]] = [[] for _ in range(6)]
    # The counters (value changes, gradients, backtracks) of each start,
    # filled in when its row stops.
    counts = np.zeros((m, 3), dtype=int)

    run = _Running(
        row=np.arange(m), x=starts, state=(), g=np.zeros((m, d)),
        gn=np.zeros(m), t=np.full(m, cfg.initial_step / cfg.backtrack_factor),
        u=obj._values(obj._displacements(starts)), length=np.zeros(m),
        # Kahan-style carry keeps sub-ulp decreases from being lost before
        # they accumulate into a representable drop of the recorded value.
        carry=np.zeros(m),
        # The first step must not overwrite the testing-point sample even
        # when its decrease is below one ulp; the resulting value tie sits at
        # the terminal and is absorbed by the next resolvable drop.
        tie=np.zeros(m, dtype=bool), samples=np.ones(m, dtype=int),
        counts=np.zeros((m, 3), dtype=int), w=np.zeros((m, d)), delta=np.zeros(m),
        gsq=np.zeros(m))

    def commit(mask):
        """Log the current samples of the masked rows; -w is the step leaving them."""
        for column, value in zip(log, (run.row, run.x, run.u, run.gn, run.length, -run.w)):
            column.append(value[mask])

    def stop(mask, why):
        """End the masked rows with status ``why`` and drop them."""
        commit(mask)
        rows = run.row[mask]
        for row in rows.tolist():
            status[row] = why
        counts[rows] = run.counts[mask]
        run.keep(~mask)

    def fail(bad, messages):
        """Stop the masked rows, whose U or grad U turned non-finite."""
        failures.update(zip(run.row[bad].tolist(), messages))
        stop(bad, STALLED)

    bad = ~np.isfinite(run.u)
    fail(bad, [f"objective is non-finite at the starting point (U={u})"
               for u in run.u[bad].tolist()])
    run.g, run.state = obj._descent_state(run.x)
    run.gn = np.sqrt(np.vecdot(run.g, run.g))
    run.counts[:, 1] = 1
    bad = ~np.isfinite(run.g).all(axis=1)
    fail(bad, repeat("gradient is non-finite at the starting point"))

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
        run.t = np.minimum(run.t, np.maximum(cfg.initial_step, obj.length_scale / run.gn))
        # Backtracking search. One rule, ``keep``, drops a row: its trial was
        # accepted (delta < 0), or its next t is below min_step (w stays 0).
        k = len(run.row)
        run.w, run.delta, tries = np.zeros((k, d)), np.zeros(k), np.zeros(k, dtype=int)
        search = (np.arange(k), run.t, run.gsq, *run.state)
        keep = run.t >= cfg.min_step
        while keep.any():
            pos, ts, gq, *state = search = _rows_of(search, keep)
            trial = obj._trials(state, ts, gq)
            tries[pos] += 1
            ok = np.isfinite(trial) & (trial < 0.0) & (trial <= -cfg.armijo_c * ts * gq)
            if ok.any():
                done = pos[ok]
                run.t[done], run.delta[done] = ts[ok], trial[ok]
                run.w[done] = ts[ok, None] * run.g[done]
            ts = ts * cfg.backtrack_factor
            search, keep = (pos, ts, gq, *state), ~ok & (ts >= cfg.min_step)
        run.counts[:, 0] += tries
        run.counts[:, 2] += tries - (run.delta < 0.0)

        x_new = run.x - run.w
        still = (x_new == run.x).all(axis=1)
        if still.any():
            # No Armijo step, or one below coordinate resolution: the iterate
            # cannot move, so stop rather than spin on an unchanged point.
            stop(still, STALLED)
            x_new = x_new[~still]
        g, state = obj._descent_state(x_new)
        run.counts[:, 1] += 1
        bad = ~np.isfinite(g).all(axis=1)
        if bad.any():
            fail(bad, repeat("gradient turned non-finite during descent"))
            x_new, g, *state = _rows_of((x_new, g, *state), ~bad)
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
        if log_samples and append.any():
            commit(append)
        run.samples = run.samples + append
        run.length = np.where(append, step_len, run.length + step_len)
        run.u = np.where(drop | append, u_new, run.u)
        run.tie = np.where(drop, False, run.tie | (~drop & first))
        # The next search first tries the Barzilai-Borwein multiplier
        # s.s / s.y of this step s = -w and the gradient change y, where the
        # slope along s grew (s.y > 0) and the quotient is finite and
        # positive; elsewhere the warm start t / backtrack_factor.
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            t_bb = np.vecdot(run.w, run.w) / np.vecdot(run.w, run.g - g)
        run.t = np.where(np.isfinite(t_bb) & (t_bb > 0.0), t_bb, run.t / cfg.backtrack_factor)
        run.x, run.state, run.g, run.gn = x_new, tuple(state), g, gn

    stop(run.gn <= cfg.grad_tol, CONVERGED)
    stop(np.ones(len(run.row), dtype=bool), MAX_STEPS)

    # Each start's samples in the order they were logged, its terminal last.
    # Each column is joined, put in start order and freed in turn, so the
    # peak memory stays near that of the result.
    owners = np.concatenate(log[0])
    order = np.argsort(owners, kind="stable")
    ends = np.cumsum(np.bincount(owners, minlength=m))
    columns = []
    for pieces in log[1:]:
        columns.append(np.concatenate(pieces)[order])
        pieces.clear()
    points, values, grad_norms, lengths, steps = columns
    traces = None
    if log_samples:
        spans = zip([0, *ends[:-1].tolist()], ends.tolist())
        traces = [FlowTrace(points[a:b], values[a:b], grad_norms[a:b], lengths[a:b], status[r],
                            steps[a:b - 1], *counts[r].tolist())
                  for r, (a, b) in enumerate(spans)]
    if not failures:
        last = ends - 1
        return RestPoints(points[last], values[last], grad_norms[last], status, counts,
                          traces), None
    row = min(failures)
    if traces is None:
        # The failing start alone, its samples logged, fails as its row did
        # here, bit for bit.
        return None, (row, *_descend(obj, starts[row:row + 1], cfg, True)[1][1:])
    partial = traces[row] if np.isfinite(traces[row].values[0]) else None
    return None, (row, failures[row], partial)


def _rows_of(arrays, mask):
    """``arrays`` restricted to the masked rows, uncopied if all; a None stays None."""
    if mask.all():
        return arrays
    return [None if a is None else a[mask] for a in arrays]


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


def _longest_monotone_run(qualify: np.ndarray, dz: np.ndarray) -> tuple[int, int] | None:
    """First longest run of samples a..b joined by edges that move the axis
    coordinate (``dz``) one way between qualifying samples; None if no edge does.

    A run may start at the last sample of the run before it.
    """
    step = np.sign(dz) * (qualify[:-1] & qualify[1:])  # +-1 on usable edges, else 0
    starts = (step != 0.0) & (np.diff(step, prepend=0.0) != 0.0)
    if not starts.any():
        return None
    firsts = np.flatnonzero(starts)
    lengths = np.bincount((np.cumsum(starts) - 1)[step != 0.0], minlength=len(firsts))
    best = int(np.argmax(lengths))
    return int(firsts[best]), int(firsts[best] + lengths[best])


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
    best = _longest_monotone_run(qualify, np.diff(pts[:, axis]))
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
