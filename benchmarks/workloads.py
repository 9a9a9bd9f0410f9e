"""Workload definitions and the seeded instance generator.

Each workload is one `steiner solve` instance family. ``write_instance``
turns a workload and an integer seed into an instance JSON file; the same
seed always writes the same bytes. The generator only uses numpy and the
standard library, so the program under test receives nothing but the file.

Anchors are uniform in [0, 10]^D. On ``median_large_n`` every seed draws
fresh anchors: with 10 000 of them the landscape, and so the work of a
solve, barely changes between draws (value_change calls vary about 4%).
On the two small-n workloads the work is a property of the landscape
(fresh draws of ``multiwell_traced`` took 2.3 to 9.8 s, as 1 to 7 traces
ran the full step budget), so they keep one landscape, drawn from stream
0, and the seed picks a symmetry of the cube [0, 10]^D (axis permutation
and reflections), the anchor order and the testing-plan seed. A grid plan
follows the anchors' box, so every seed solves the same problem in another
orientation; random plans draw new starts.

Run it on its own to inspect the inputs:

    python3 benchmarks/workloads.py --workload median_large_n --seed 3 --out inst.json
"""

import argparse
import json
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str            # "euclidean" or "gaussian_well"
    n: int               # anchors
    dimension: int
    starts: int          # testing points
    strategy: str        # testing-plan strategy
    trace_csv: bool      # pass --trace so per-start CSVs are written
    fresh_landscape: bool  # draw new anchors per seed, else a symmetric copy
    sigma: float = 0.0   # gaussian_well width
    grad_tol: float | None = None
    salt: int = 0        # keeps workloads on distinct random streams


# Anchors are uniform in [0, 10]^D for every workload.
ANCHOR_LO, ANCHOR_HI = 0.0, 10.0

WORKLOADS = {
    w.name: w for w in (
        Workload("median_large_n", "euclidean", n=10_000, dimension=8, starts=8,
                 strategy="uniform_random", trace_csv=False, fresh_landscape=True,
                 grad_tol=1e-6, salt=1),
        Workload("median_many_starts", "euclidean", n=16, dimension=3, starts=2048,
                 strategy="uniform_random", trace_csv=False, fresh_landscape=False,
                 salt=2),
        Workload("multiwell_traced", "gaussian_well", n=50, dimension=2, starts=64,
                 strategy="grid", trace_csv=True, fresh_landscape=False, sigma=0.5,
                 salt=3),
    )
}


def make_instance(workload: Workload, seed: int) -> dict:
    """The instance dict for ``workload`` at ``seed`` (JSON-ready)."""
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    shape = (workload.n, workload.dimension)
    landscape = seed if workload.fresh_landscape else 0
    anchors = np.random.default_rng([landscape, workload.salt]).uniform(
        ANCHOR_LO, ANCHOR_HI, size=shape)
    if not workload.fresh_landscape:
        sym = np.random.default_rng([seed, workload.salt, 1])
        anchors = anchors[sym.permutation(shape[0])][:, sym.permutation(shape[1])]
        flip = sym.random(shape[1]) < 0.5
        anchors[:, flip] = (ANCHOR_LO + ANCHOR_HI) - anchors[:, flip]
    potential = {"kind": workload.kind}
    if workload.kind == "gaussian_well":
        potential["sigma"] = workload.sigma
    instance = {
        "dimension": workload.dimension,
        "anchors": anchors.tolist(),
        "potential": potential,
        "testing_plan": {"strategy": workload.strategy, "count": workload.starts,
                         "seed": seed},
    }
    if workload.grad_tol is not None:
        instance["flow"] = {"grad_tol": workload.grad_tol}
    return instance


def write_instance(workload: Workload, seed: int, path) -> dict:
    instance = make_instance(workload, seed)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(instance, fh)
    return instance


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, help="instance JSON file to write")
    args = parser.parse_args(argv)
    write_instance(WORKLOADS[args.workload], args.seed, args.out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
