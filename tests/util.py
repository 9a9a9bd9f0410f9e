"""Shared test helpers."""

import numpy as np

from steiner import AnchorSet, Objective, PotentialSpec
from steiner.flow import FlowTrace


def make_objective(anchors, kind="euclidean", **kw) -> Objective:
    return Objective(AnchorSet(anchors), PotentialSpec(kind, **kw))


def random_rotation(rng, d) -> np.ndarray:
    m = rng.normal(size=(d, d))
    q, r = np.linalg.qr(m)
    return q * np.sign(np.diag(r))


def curve_trace(obj, start, arc_len, spacing, substeps=16) -> FlowTrace:
    """Sample the exact descent curve at fixed arc-length spacing.

    Integrates the unit-speed flow dx/ds = -grad U / |grad U| with RK4 at
    spacing/substeps internal resolution (error far below the trapezoid
    error of the emitted polyline), so the emitted samples lie on the true
    curve for all practical purposes: criterion 5's coarse/fine residual
    ratios agree with those at 64 substeps to about 7 digits. Used to check
    residual operations at controlled sample spacings.
    """
    def f(x):
        g = obj.gradient(x)
        return -g / np.linalg.norm(g)

    x = np.asarray(start, dtype=float).copy()
    pts = [x.copy()]
    dt = spacing / substeps
    for _ in range(int(round(arc_len / spacing))):
        for _ in range(substeps):
            k1 = f(x)
            k2 = f(x + 0.5 * dt * k1)
            k3 = f(x + 0.5 * dt * k2)
            k4 = f(x + dt * k3)
            x = x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        pts.append(x.copy())
    pts = np.array(pts)
    zeros = np.zeros(len(pts))
    return FlowTrace(pts, zeros, zeros, zeros, "max_steps")
