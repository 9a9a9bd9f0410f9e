"""Quasi-static descent tracing and residual checks on traced curves.

A test particle released at a testing point moves along the force -grad U;
strong dissipation keeps the motion quasi-static, so only the path matters
and the trajectory is realized as first-order descent

    x <- x - t * grad U(x)

with a backtracking Armijo line search choosing t; each search first tries
the Barzilai-Borwein two-point multiplier of the previous step, and for the
euclidean kinds and ``squared`` the first search tries at most a step the
potential guarantees (see ``potentials._Radial``). The accepted iterates form a
polyline (the iterative curve) ending at a rest point where the gradient
norm falls below the configured tolerance. Many starts are traced in
lockstep blocks (:func:`rest_points`), bit for bit as one at a time.

Two residual operations verify traced curves against the defining
properties of flow lines: every step parallel to the local force
(:func:`tangency_residual`) and, on axis-monotone segments, the D-1
integral equations relating the remaining coordinates to the axis
coordinate (:func:`graph_residual`).
"""

from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from .core import Objective, distances
from .errors import ConfigError, InputError, NumericalError
from .potentials import _expect_int, _expect_number

CONVERGED = "converged"
MAX_STEPS = "max_steps"
STALLED = "stalled"


@dataclass(frozen=True)
class FlowConfig:
    """Termination and line-search parameters for the descent tracer.

    ``grad_tol`` is the rest criterion on |grad U|; a step multiplier
    shrinking below ``min_step`` without an Armijo acceptance stalls the
    trace. ``initial_step`` is the first trial multiplier's seed (the first
    search tries up to ``initial_step / backtrack_factor``, or less where the
    kind guarantees a shorter step, see :func:`trace_flow`) and the floor of
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
        for f in fields(self):  # every field's type, in declaration order, before any range
            value, path = getattr(self, f.name), f"flow.{f.name}"
            object.__setattr__(self, f.name, _expect_int(value, path) if f.type is int
                               else _expect_number(value, path, finite=False))
        checks = [
            (0.0 < self.grad_tol < np.inf, "grad_tol", "must be finite and > 0"),
            (self.max_steps > 0, "max_steps", "must be an integer > 0"),
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
    may omit it. The testing point is sample 0 and the first step appends
    a sample; a later step appends one only where the recorded value drops,
    and a sub-ulp decrease slides the terminal sample forward instead. So
    values strictly decrease, but for one unavoidable tie: when already the
    first step's decrease is unrepresentable, the terminal repeats the
    starting value (the testing point must stay recorded) until the next
    drop replaces it.

    The counters record the tracer's work: ``n_value_changes`` and
    ``n_gradients`` count objective evaluations, ``n_backtracks`` the trial
    multipliers the Armijo test rejected. Every value change is one trial,
    whether a Barzilai-Borwein, warm-start, guaranteed (see
    :func:`trace_flow`) or backtracked one, and a trial made from the state
    the gradient at x left still counts one. A trace stopping in step s (from 0) has 1 + s
    gradients, one more if the gradient of step s turned non-finite, and its
    backtracks are its value changes less its accepted steps. Hand-built
    traces leave the counters 0.
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
        header = "step," + ",".join(f"Z_{i + 1}" for i in range(d)) + ",U,grad_norm,step_len\n"
        line = "{}" + ",{:.17g}" * (d + 3) + "\n"
        rows = np.column_stack([self.points, self.values, self.grad_norms,
                                self.step_lens]).tolist()
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(header + "".join(line.format(k, *r) for k, r in enumerate(rows)))


def trace_flow(obj: Objective, start, cfg: FlowConfig | None = None) -> FlowTrace:
    """Trace the descent curve from ``start`` until rest, stall, or step budget.

    Each iteration backtracks t until the Armijo decrease
    U(x - t g) <= U(x) - c t |g|^2 holds; the decrease is the kernel's
    cancellation-free change in line-search form (its ``trials``), the
    change :meth:`Objective.value_change` takes, so acceptance stays
    resolvable even when it is far below one ulp of U.
    The search's first trial is the Barzilai-Borwein multiplier s.s / s.y of
    the previous step s, on the coordinates it moved, and the change y of
    the gradient along it, where s.y > 0. Elsewhere it is the warm start: the previous accepted
    multiplier divided by ``backtrack_factor`` (``initial_step`` standing in
    for it before the first step), so t grows on flat ground while Armijo
    keeps accepting. Either trial is capped at max(``initial_step``,
    L / |g|), where L is the objective's ``length_scale``: no step is longer
    than the anchor set unless ``initial_step`` asks for that.

    For the euclidean kinds and ``squared``, the step the potential
    guarantees to pass Armijo at the start, t_safe of ``potentials._Radial``,
    caps the first search's first trial where ``min_step`` <= t_safe < inf:
    a guaranteed trial, which is still tested and counts as a value change.
    Later searches start from the Barzilai-Borwein or warm-start trial, and every
    rejected trial t is followed by ``backtrack_factor`` t. The Armijo
    test keeps every step monotone, and every step is a multiple of -grad U.
    The gradient at x leaves the state every trial from x reuses, so a
    radial kind's trial costs O(n) instead of O(nD). Raises
    :class:`NumericalError` (carrying the partial trace) if U or grad U
    turns non-finite at an accepted point. This is the one-start case of
    :func:`rest_points`, with no "start k: " before the message.
    """
    return _descend(obj, obj.check_point(start)[None, :], cfg or FlowConfig(), True).traces[0]


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
    """Trace descent from every row of ``starts``, a checked (m >= 1, D)
    array (see :meth:`Objective.check_points`), and return where each came
    to rest, with the traces when ``keep_traces`` is set.

    The m starts advance in lockstep blocks, the spans of
    :meth:`Objective.block_spans` of width ``Objective.lockstep_rows``,
    while a step's kernel calls take ``block_rows``-wide spans of its block
    (see ``Objective._descent_state``); :class:`Objective` sizes both
    widths. A block runs until its slowest row stops, so a tail of a few
    rows would pay the per-step cost of a whole block for them; the spans
    have none. Rows do not interact: each trace, its status and its
    counters equal those of :func:`trace_flow` from the same start bit for
    bit. Without traces a block logs only each row's terminal sample. A
    start whose U or grad U turns non-finite stops only its own row; once
    its block is done the lowest-index failing start's
    :class:`NumericalError` is raised, with "start <k>: " before its
    message, k its index among all the starts, and its partial trace.
    """
    blocks = [_descend(obj, starts[lo:hi], cfg, keep_traces, lo)
              for lo, hi in obj.block_spans(len(starts), obj.lockstep_rows)]

    def joined(name):
        return np.concatenate([getattr(block, name) for block in blocks])

    return RestPoints(joined("points"), joined("values"), joined("grad_norms"),
                      [status for block in blocks for status in block.statuses],
                      joined("counts"),
                      [trace for block in blocks for trace in block.traces] if keep_traces
                      else None)


def _descend(obj: Objective, starts: np.ndarray, cfg: FlowConfig, log_samples: bool,
             offset: int | None = None) -> RestPoints:
    """The descent loop: trace every row of ``starts`` in lockstep.

    Each iteration takes one step on every running row: rows at rest
    converge, the rest run one backtracking search together, the rows that
    did not move stall, and the rest get one batched gradient.
    All arithmetic is per row and in the order of a single-row run, so a
    row's trace does not depend on the others. A start whose U or grad U
    turns non-finite stops only its own row. Only with ``log_samples`` set are
    the samples before each terminal logged and the traces built. Returns
    the block's :class:`RestPoints`, else raises the lowest failing row's
    :class:`NumericalError` with its partial trace (None where U was
    non-finite at the start) and, given the block's ``offset``, "start
    <offset + row>: " before its message. The counters, bar the value
    changes, follow from the step index when a row stops (see :class:`FlowTrace`).
    """
    m = len(starts)
    status: list[str | None] = [None] * m
    failures: dict[int, str] = {}
    # The samples, one list of per-step arrays per column: start index,
    # point, value, gradient norm and, with ``log_samples``, step length and
    # the step leaving the sample. A row's terminal sample, with a placeholder
    # step, goes in when the row stops; without ``log_samples`` it is alone.
    log: list[list[np.ndarray]] = [[] for _ in range(6 if log_samples else 4)]
    # Each start's value changes, gradients and backtracks, set as it stops.
    counts = np.zeros((m, 3), dtype=int)

    # The running rows, in start order, which ``stop`` drops: start index,
    # current sample (x, u, gn, length; length and tie only when logged), the
    # gradient g at x with the state the line search from x reuses, the next
    # first trial t before the cap and the value changes so far. ``carry``
    # keeps sub-ulp decreases until they add up to a drop of u (Kahan); a
    # ``tie`` is a terminal repeating the starting value. Each start's U comes
    # from the state its gradient leaves, in the one pass over the anchors.
    row, x = np.arange(m), starts
    g, state, safe = obj._descent_state(x, cfg.armijo_c)
    u = obj._kernel.values_at(state)
    gn = carry = np.zeros(m)
    t, tries = np.full(m, cfg.initial_step / cfg.backtrack_factor), np.zeros(m, dtype=int)
    length, tie = (np.zeros(m), np.zeros(m, dtype=bool)) if log_samples else (None, None)

    def stop(mask, why, gradients, accepted, *extra):
        """End the masked rows with status ``why`` and their counters; drop
        them from the running rows and return ``extra`` without them."""
        nonlocal row, x, u, gn, length, g, state, t, tries, carry, tie
        for column, value in zip(log, (row, x, u, gn, length, x)):
            column.append(value[mask])
        rows, made = row[mask], tries[mask]
        for r in rows.tolist():
            status[r] = why
        counts[rows, 0], counts[rows, 1], counts[rows, 2] = made, gradients, made - accepted
        row, x, u, gn, length, g, t, tries, carry, tie, *rest = _rows_of(
            (row, x, u, gn, length, g, t, tries, carry, tie, *state, *extra), ~mask)
        state, extra = rest[:len(state)], rest[len(state):]
        return extra

    def fail(bad, messages, gradients, accepted, *extra):
        """Stop the masked rows, whose U or grad U turned non-finite."""
        failures.update(zip(row[bad].tolist(), messages))
        return stop(bad, STALLED, gradients, accepted, *extra)

    bad = ~np.isfinite(u)
    if bad.any():
        safe, = fail(bad, [f"objective is non-finite at the starting point (U={v})"
                           for v in u[bad].tolist()], 0, 0, safe)
    if safe is not None:  # the first search's cap; inf, nan and short steps cap nothing
        t = np.minimum(t, np.where(safe >= cfg.min_step, safe, np.inf))
    with np.errstate(over="ignore"):
        gn = np.sqrt(np.vecdot(g, g))
    if not np.isfinite(gn).all():
        bad = ~np.isfinite(gn)
        fail(bad, _norm_failures(g[bad], "gradient is non-finite at the starting point",
                                 "at the starting point"), 1, 0)

    for step in range(cfg.max_steps):
        at_rest = gn <= cfg.grad_tol
        if at_rest.any():
            stop(at_rest, CONVERGED, 1 + step, step)
        if not len(row):
            break

        gsq = gn * gn
        # The cap keeps t finite over a long run of acceptances (an infinite
        # t never backtracks below min_step), and keeps a step no longer than
        # the anchor set unless initial_step itself asks for that.
        t = np.minimum(t, np.maximum(cfg.initial_step, obj.length_scale / gn))
        # The search empties ``state``: the state from x dies at its first
        # compaction, before the state from x_new is formed.
        t_ok, delta = _line_search(obj, cfg, t, gsq, state, tries)
        w = t_ok[:, None] * g

        x_new = x - w
        same = x_new == x
        still = same.all(axis=1)
        if still.any():
            # No Armijo step, or one below coordinate resolution: the iterate
            # cannot move, so stop rather than spin on an unchanged point.
            x_new, w, same, t_ok, delta, gsq = stop(
                still, STALLED, 1 + step, step + (delta[still] < 0.0),
                x_new, w, same, t_ok, delta, gsq)
        g_new, state, _ = obj._descent_state(x_new)
        # The next search first tries the Barzilai-Borwein multiplier
        # s.s / s.y of this step s = -w and the gradient change y, where the
        # slope along s grew (s.y > 0) and the quotient is finite and
        # positive; elsewhere the warm start t / backtrack_factor. Only the
        # coordinates the step moved count: a gradient component too small
        # to move its coordinate would otherwise swell s.s, and the trial.
        # |g_new| shares its errstate: a row whose |g_new| is not finite fails.
        moved = np.where(same, 0.0, w)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            gn_new = np.sqrt(np.vecdot(g_new, g_new))
            t_bb = np.vecdot(moved, moved) / np.vecdot(moved, g - g_new)
        if not np.isfinite(gn_new).all():
            bad = ~np.isfinite(gn_new)
            x_new, w, t_ok, delta, gsq, g_new, gn_new, t_bb = fail(
                bad, _norm_failures(g_new[bad], "gradient turned non-finite during descent",
                                    "during descent"), 2 + step,
                1 + step, x_new, w, t_ok, delta, gsq, g_new, gn_new, t_bb)

        pending = carry + delta
        u_new = u + pending
        drop = u_new < u
        carry = np.where(drop, pending - (u_new - u), pending)
        if log_samples:
            # The current sample, left by -w, is appended on step 0 and,
            # later, where u drops, unless the terminal is a tie it replaces.
            append = np.ones(len(row), dtype=bool) if step == 0 else drop & ~tie
            tie = ~drop if step == 0 else tie & ~drop
            if append.any():
                for column, value in zip(log, (row, x, u, gn, length, -w)):
                    column.append(value[append])
            step_len = t_ok * np.sqrt(gsq)
            length = np.where(append, step_len, length + step_len)
        u = np.where(drop, u_new, u)  # on step 0 too: there u_new == u elsewhere
        t = np.where(np.isfinite(t_bb) & (t_bb > 0.0), t_bb, t_ok / cfg.backtrack_factor)
        x, g, gn = x_new, g_new, gn_new

    stop(gn <= cfg.grad_tol, CONVERGED, 1 + cfg.max_steps, cfg.max_steps)
    stop(np.ones(len(row), dtype=bool), MAX_STEPS, 1 + cfg.max_steps, cfg.max_steps)

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
    points, values, grad_norms, *logged = columns
    traces = None
    if log_samples:
        lengths, steps = logged
        spans = zip([0, *ends[:-1].tolist()], ends.tolist())
        traces = [FlowTrace(points[a:b], values[a:b], grad_norms[a:b], lengths[a:b], status[r],
                            steps[a:b - 1], *counts[r].tolist())
                  for r, (a, b) in enumerate(spans)]
    if failures:
        row = min(failures)
        if traces is None:
            # The failing start alone, its samples logged, raises as its row
            # failed here, bit for bit.
            _descend(obj, starts[row:row + 1], cfg, True, offset + row)
        partial = traces[row] if np.isfinite(traces[row].values[0]) else None
        prefix = "" if offset is None else f"start {offset + row}: "
        raise NumericalError(prefix + failures[row], trace=partial)
    last = ends - 1
    return RestPoints(points[last], values[last], grad_norms[last], status, counts, traces)


def _line_search(obj: Objective, cfg: FlowConfig, t, gsq, state, tries):
    """Backtrack from the first trials ``t`` (``gsq`` = |g|^2, ``state`` as
    :meth:`Objective._descent_state` gave it) until each row accepts or its
    next t is below ``min_step``. Returns each row's accepted multiplier and
    value change, both 0 where none was accepted; counts trials in ``tries``.
    Takes the arrays out of the list ``state``, which it leaves empty, so
    each is freed as soon as the search has compacted it."""
    k = len(t)
    t_ok, delta = np.zeros(k), np.zeros(k)
    live = t >= cfg.min_step
    tries += live
    pos, ts, gq, *rows = _rows_of((np.arange(k), t, gsq, *state), live)
    state.clear()
    while len(pos):
        trial = obj._kernel.trials(rows, ts, gq)
        ok = np.isfinite(trial) & (trial < 0.0) & (trial <= -cfg.armijo_c * ts * gq)
        if ok.all():
            t_ok[pos], delta[pos] = ts, trial
            break
        t_ok[pos[ok]], delta[pos[ok]] = ts[ok], trial[ok]
        ts = ts * cfg.backtrack_factor
        pos, ts, gq, *rows = _rows_of((pos, ts, gq, *rows), ~ok & (ts >= cfg.min_step))
        tries[pos] += 1
    return t_ok, delta


def _rows_of(arrays, mask):
    """``arrays`` restricted to the masked rows, uncopied if all; a None stays None."""
    if mask.all():
        return arrays
    rows = np.flatnonzero(mask)  # one index for all: take is faster than a mask
    return [None if a is None else a.take(rows, axis=0) for a in arrays]


def _norm_failures(g, non_finite: str, where: str) -> list[str]:
    """A message per row of ``g``, a gradient whose |g| is not finite:
    ``non_finite`` where a component is not, else that |grad U|^2 is past
    the float range ``where``."""
    return [f"|grad U|^2 is past the float range {where}" if finite else non_finite
            for finite in np.isfinite(g).all(axis=1).tolist()]


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
    forces = -obj.gradient_many(pts[:-1])
    ns, nd = distances(steps, 0.0), distances(forces, 0.0)
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

    grads = obj.gradient_many(pts)
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
