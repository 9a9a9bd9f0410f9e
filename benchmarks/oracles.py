"""Independent answer checks for the benchmark's solves.

Nothing here imports ``steiner``: the objective, Weiszfeld's iteration and
the lattice scan are written out again from their definitions, so a fault
in the solver cannot also fault its check. Each check takes the parsed
result JSON of one solve and the instance dict it was given, and returns a
list of problems (empty when the result passes).
"""

import math

import numpy as np

WEISZFELD_REL_GAP = 1e-6     # criterion 1
GRID_SPACING = 0.01          # criterion 6
GRID_UPPER_SLACK = 1e-12     # criterion 6: Steiner value <= lattice value + this
# The reported value must be U at the reported location. Smoothing of the
# norm kinds (about 1e-9 of the anchor box per anchor) stays far below this.
VALUE_REL_TOL = 1e-7


def euclidean_values(anchors: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Sum of distances from each row of ``points`` to the anchors."""
    disp = points[:, None, :] - anchors[None, :, :]
    return np.sqrt(np.einsum("mnd,mnd->mn", disp, disp)).sum(axis=1)


def gaussian_values(anchors: np.ndarray, sigma: float, points: np.ndarray) -> np.ndarray:
    """Sum of 1 - exp(-|x - a|^2 / sigma^2) at each row of ``points``."""
    disp = points[:, None, :] - anchors[None, :, :]
    sq = np.einsum("mnd,mnd->mn", disp, disp)
    return (1.0 - np.exp(-sq / (sigma * sigma))).sum(axis=1)


def weiszfeld(anchors: np.ndarray, tol: float = 1e-13, max_iter: int = 100_000) -> np.ndarray:
    """Geometric median by Weiszfeld's iteration with the Vardi-Zhang step.

    At an anchor the plain update divides by zero; Vardi and Zhang move
    off it by the pull of the other anchors, or stay when that pull is
    at most the number of anchors sitting there (the optimality test).
    """
    x = anchors.mean(axis=0)
    scale = max(1.0, float(np.abs(anchors).max()))
    for _ in range(max_iter):
        disp = anchors - x
        dist = np.sqrt(np.einsum("nd,nd->n", disp, disp))
        at = dist <= 1e-15 * scale
        w = 1.0 / dist[~at]
        target = (w[:, None] * anchors[~at]).sum(axis=0) / w.sum()
        coincident = int(at.sum())
        if coincident:
            pull = float(np.linalg.norm((w[:, None] * disp[~at]).sum(axis=0)))
            if pull <= coincident:
                return x
            gamma = coincident / pull
            target = (1.0 - gamma) * target + gamma * x
        if np.linalg.norm(target - x) <= tol * scale:
            return target
        x = target
    return x


def _consistent(reported: float, recomputed: float, n: int) -> bool:
    return abs(reported - recomputed) <= VALUE_REL_TOL * max(abs(recomputed), float(n))


def check_euclidean(instance: dict, result: dict) -> list[str]:
    """Criterion 1: the Steiner value is within 1e-6 relative of Weiszfeld's."""
    anchors = np.asarray(instance["anchors"], dtype=float)
    loc = np.asarray(result["steiner"]["location"], dtype=float)
    reported = float(result["steiner"]["value"])
    at_loc = float(euclidean_values(anchors, loc[None, :])[0])
    # Near an anchor that is itself the median the iteration slows down;
    # that anchor is then the better candidate.
    x = weiszfeld(anchors)
    nearest = anchors[np.argmin(np.linalg.norm(anchors - x, axis=1))]
    oracle = float(euclidean_values(anchors, np.stack([x, nearest])).min())
    problems = []
    if not _consistent(reported, at_loc, len(anchors)):
        problems.append(f"reported value {reported!r} is not U at the reported "
                        f"location ({at_loc!r})")
    gap = (at_loc - oracle) / oracle
    if not gap <= WEISZFELD_REL_GAP:
        problems.append(f"Weiszfeld relative value gap {gap:.3e} > {WEISZFELD_REL_GAP}")
    return problems


def grid_minimum(anchors: np.ndarray, sigma: float, spacing: float = GRID_SPACING,
                 chunk: int = 4096) -> float:
    """Least gaussian_well value on a lattice over the anchors' bounding box.

    The global minimum lies in that box: outside it, moving back toward the
    box brings every anchor closer. Axis steps are at most ``spacing``.
    """
    lo, hi = anchors.min(axis=0), anchors.max(axis=0)
    axes = [np.linspace(a, b, max(2, math.ceil((b - a) / spacing) + 1))
            for a, b in zip(lo, hi)]
    counts = [len(a) for a in axes]
    total = math.prod(counts)
    best = math.inf
    for start in range(0, total, chunk):
        multi = np.unravel_index(np.arange(start, min(start + chunk, total)), counts)
        pts = np.column_stack([axes[k][multi[k]] for k in range(len(axes))])
        best = min(best, float(gaussian_values(anchors, sigma, pts).min()))
    return best


def check_gaussian(instance: dict, result: dict) -> list[str]:
    """Criterion 6: lattice value - Lipschitz slack <= Steiner value <= lattice value."""
    anchors = np.asarray(instance["anchors"], dtype=float)
    sigma = float(instance["potential"]["sigma"])
    loc = np.asarray(result["steiner"]["location"], dtype=float)
    reported = float(result["steiner"]["value"])
    at_loc = float(gaussian_values(anchors, sigma, loc[None, :])[0])
    grid = grid_minimum(anchors, sigma)
    slack = len(anchors) * math.sqrt(2.0 / math.e) / sigma * GRID_SPACING
    problems = []
    if not _consistent(reported, at_loc, len(anchors)):
        problems.append(f"reported value {reported!r} is not U at the reported "
                        f"location ({at_loc!r})")
    if not reported <= grid + GRID_UPPER_SLACK:
        problems.append(f"Steiner value {reported!r} is above the lattice minimum "
                        f"{grid!r}: the plan missed the global well")
    if not grid - reported <= slack:
        problems.append(f"Steiner value {reported!r} is more than the Lipschitz "
                        f"slack {slack:.3g} below the lattice minimum {grid!r}")
    return problems


CHECKS = {"euclidean": check_euclidean, "gaussian_well": check_gaussian}


def check(instance: dict, result: dict) -> list[str]:
    return CHECKS[instance["potential"]["kind"]](instance, result)
