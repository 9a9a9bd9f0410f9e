"""Command-line interface: solve instances, run oracles, check gradients.

Instances are JSON files:

    {
      "dimension": 2,
      "anchors": [[0, 0], [4, 0], [0, 3]],
      "potential": {"kind": "euclidean"},
      "testing_plan": {"strategy": "grid", "count": 16, "seed": 0},
      "flow": {"grad_tol": 1e-8}
    }

Results are JSON with a fixed key order and floats printed at 17
significant digits, so identical inputs produce byte-identical outputs.
Traces export to CSV for plotting. Exit codes: 0 success, 1 input or
configuration error, 2 no critical point found.
"""

import argparse
import json
import math
import sys
from dataclasses import MISSING, dataclass, fields, replace

import numpy as np

from .core import AnchorSet, Objective, max_relative_gradient_error
from .critical_set import TestingPlan, default_domain_box, enumerate_critical_points
from .errors import ConfigError, InputError, NoCriticalPointError, NumericalError
from .flow import FlowConfig
from .oracles import centroid, grid_search, weiszfeld
from .potentials import PotentialSpec

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_NO_CRITICAL_POINT = 2

# Exit code of each error a command reports; any other exception is a bug
# and propagates with its traceback.
EXIT_CODES = {InputError: EXIT_INPUT, ConfigError: EXIT_INPUT, FileNotFoundError: EXIT_INPUT,
              NoCriticalPointError: EXIT_NO_CRITICAL_POINT,
              NumericalError: EXIT_NO_CRITICAL_POINT}

GRADCHECK_TOLERANCE = 1e-5


# ---------------------------------------------------------------------------
# Canonical JSON: insertion-ordered keys, floats at 17 significant digits.

def _fmt_json(value, indent=0):
    pad = "  " * indent
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = ",\n".join(
            f"{pad}  {json.dumps(str(k))}: {_fmt_json(v, indent + 1)}"
            for k, v in value.items())
        return "{\n" + inner + "\n" + pad + "}"
    if isinstance(value, (list, tuple, np.ndarray)):
        items = [_fmt_json(v, indent) for v in value]
        return "[" + ", ".join(items) + "]"
    if isinstance(value, bool) or isinstance(value, np.bool_):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    if value is None:
        return "null"
    return json.dumps(value)


def dumps_result(data: dict) -> str:
    return _fmt_json(data) + "\n"


def _write_json(path, data: dict):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(dumps_result(data))


# ---------------------------------------------------------------------------
# Instance files.

@dataclass(frozen=True, eq=False)
class Instance:
    """Parsed instance file: anchors plus solver configuration."""

    dimension: int
    anchors: AnchorSet
    potential: PotentialSpec
    testing_plan: TestingPlan | None = None
    flow: FlowConfig | None = None


def _expect_object(value, field):
    if not isinstance(value, dict):
        raise InputError(f"{field}: expected a JSON object")
    return value


def _expect_number(value, field):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise InputError(f"{field}: expected a number")
    try:
        number = float(value)
    except OverflowError:  # an integer beyond the float range
        number = math.inf
    if not math.isfinite(number):
        raise InputError(f"{field}: not a finite number")
    return number


def _plain_numbers(values) -> bool:
    """Whether every entry is a plain int or float with a finite value.

    The fast path for long coordinate lists: callers fall back to
    :func:`_expect_number` per entry, formatting its field path, only when
    this is false.
    """
    try:
        return all((type(v) is float or type(v) is int) and math.isfinite(v) for v in values)
    except OverflowError:  # an integer beyond the float range
        return False


def _expect_int(value, field):
    if isinstance(value, bool) or not isinstance(value, int):
        raise InputError(f"{field}: expected an integer")
    return value


def _expect_str(value, field):
    if not isinstance(value, str):
        raise InputError(f"{field}: expected a string")
    return value


def _expect_numbers(value, field):
    if not isinstance(value, list) or not value:
        raise InputError(f"{field}: expected a non-empty list")
    if _plain_numbers(value):
        return tuple(map(float, value))
    return tuple(_expect_number(x, f"{field}[{j}]") for j, x in enumerate(value))


def _expect_box(value, field):
    if value is None:
        return None
    if not isinstance(value, list):
        raise InputError(f"{field}: expected a list of [lo, hi] pairs")
    pairs = []
    for k, pair in enumerate(value):
        if not isinstance(pair, list) or len(pair) != 2:
            raise InputError(f"{field}[{k}]: expected [lo, hi]")
        pairs.append(_expect_numbers(pair, f"{field}[{k}]"))
    return tuple(pairs)


def _reject_unknown(data, known, field):
    for key in data:
        if key not in known:
            raise InputError(f"{field}.{key}: unknown field")


# The configuration sections of an instance: the dataclass each one builds,
# and the JSON coercer of every field that is not a plain number. Field
# names, order and defaults come from the dataclass itself.
_SECTIONS = {
    "potential": (PotentialSpec, {"kind": _expect_str, "weights": _expect_numbers}),
    "testing_plan": (TestingPlan, {"strategy": _expect_str, "count": _expect_int,
                                   "domain_box": _expect_box, "seed": _expect_int}),
    "flow": (FlowConfig, {"max_steps": _expect_int}),
}


def _parse_section(raw, section):
    """Validate one section's JSON object into its dataclass."""
    cls, coercers = _SECTIONS[section]
    raw = _expect_object(raw, section)
    _reject_unknown(raw, {f.name for f in fields(cls)}, section)
    kwargs = {}
    for f in fields(cls):
        path = f"{section}.{f.name}"
        if f.name in raw:
            kwargs[f.name] = coercers.get(f.name, _expect_number)(raw[f.name], path)
        elif f.default is MISSING:
            raise InputError(f"{path}: missing required field")
    return cls(**kwargs)


def _section_json(config) -> dict:
    """A section dataclass as JSON data, fields in declaration order.

    Fields that are ``None`` are left out; these include the potential
    parameters that the kind does not read, which a spec never holds.
    """
    data = {}
    for f in fields(config):
        value = getattr(config, f.name)
        if value is not None:
            data[f.name] = _as_lists(value)
    return data


def _as_lists(value):
    return [_as_lists(v) for v in value] if isinstance(value, tuple) else value


def parse_instance(data) -> Instance:
    """Validate raw JSON data into an :class:`Instance`.

    Errors name the offending field, down to the anchor row index.
    """
    data = _expect_object(data, "instance")
    _reject_unknown(data, {"dimension", "anchors", *_SECTIONS}, "instance")
    for name in ("dimension", "anchors", "potential"):
        if name not in data:
            raise InputError(f"{name}: missing required field")
    dimension = _expect_int(data["dimension"], "dimension")
    if dimension < 1:
        raise InputError(f"dimension: must be >= 1, got {dimension}")

    rows = data["anchors"]
    if not isinstance(rows, list) or not rows:
        raise InputError("anchors: expected a non-empty list of coordinate rows")
    parsed_rows = []
    for i, row in enumerate(rows):
        if not isinstance(row, list):
            raise InputError(f"anchors[{i}]: expected a coordinate list")
        if len(row) != dimension:
            raise InputError(
                f"anchors[{i}]: expected {dimension} coordinates, got {len(row)}")
        if not _plain_numbers(row):
            row = [_expect_number(c, f"anchors[{i}][{j}]") for j, c in enumerate(row)]
        parsed_rows.append(row)
    anchors = AnchorSet(parsed_rows)

    potential = _parse_section(data["potential"], "potential")
    plan, flow = (_parse_section(data[s], s) if data.get(s) is not None else None
                  for s in ("testing_plan", "flow"))
    if plan is not None and plan.domain_box is not None and len(plan.domain_box) != dimension:
        raise InputError(f"testing_plan.domain_box: expected {dimension} [lo, hi] pairs")
    return Instance(dimension, anchors, potential, plan, flow)


def load_instance(path) -> Instance:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise InputError(f"{path}: malformed JSON: {exc}") from exc
    return parse_instance(data)


def serialize_instance(inst: Instance) -> dict:
    """Inverse of :func:`parse_instance` on semantic content."""
    data = {"dimension": inst.dimension, "anchors": inst.anchors.points.tolist()}
    for section in _SECTIONS:
        config = getattr(inst, section)
        if config is not None:
            data[section] = _section_json(config)
    return data


# ---------------------------------------------------------------------------
# Shared command plumbing.

def _domain_box(plan, anchors):
    """The plan's domain box, else the anchor bounding box with its margin."""
    if plan is not None and plan.domain_box is not None:
        return plan.domain_box
    return default_domain_box(anchors)


def _critical_point_json(cp) -> dict:
    return {"location": list(cp.location), "value": cp.value,
            "grad_norm": cp.grad_norm, "basin_count": cp.basin_count,
            "negative_curvature": cp.negative_curvature}


def cmd_solve(args) -> int:
    inst = load_instance(args.input)
    obj = Objective(inst.anchors, inst.potential)

    overrides = {key: value for key, value in
                 (("strategy", args.strategy), ("count", args.starts), ("seed", args.seed))
                 if value is not None}
    plan = replace(inst.testing_plan or TestingPlan(), **overrides)
    plan = replace(plan, domain_box=_domain_box(plan, obj.anchors))
    cfg = inst.flow or FlowConfig()
    if args.grad_tol is not None:
        cfg = replace(cfg, grad_tol=args.grad_tol)

    try:
        result = enumerate_critical_points(
            obj, plan, cfg, args.cluster_radius,
            keep_traces=args.trace is not None)
    except NoCriticalPointError as exc:
        _write_json(args.output, {"error": str(exc), "diagnostics": exc.diagnostics})
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_CRITICAL_POINT

    payload = {
        "steiner": {"location": list(result.steiner.location),
                    "value": result.steiner.value,
                    "grad_norm": result.steiner.grad_norm},
        "critical_set": [_critical_point_json(c) for c in result.critical_set],
        "diagnostics": result.diagnostics,
        "config_echo": {
            "dimension": obj.dimension,
            "n_anchors": obj.anchors.n,
            "potential": _section_json(obj.potential),
            "testing_plan": _section_json(plan),
            "flow": _section_json(cfg),
            "cluster_radius": args.cluster_radius,
            "threads": args.threads,
        },
    }
    _write_json(args.output, payload)
    if args.trace is not None:
        for k, tr in enumerate(result.traces):
            tr.write_csv(f"{args.trace}.{k}.csv")
    return EXIT_OK


def cmd_oracle(args) -> int:
    inst = load_instance(args.input)
    if args.method == "weiszfeld":
        report = weiszfeld(inst.anchors, weights=inst.potential.weights, tol=args.tol,
                           max_iter=args.max_iter)
    elif args.method == "centroid":
        report = centroid(inst.anchors)
    else:  # grid
        obj = Objective(inst.anchors, inst.potential)
        report = grid_search(obj, _domain_box(inst.testing_plan, inst.anchors), args.spacing)
    _write_json(args.output, {
        "method": report.method,
        "location": list(report.location),
        "value": report.value,
        "iterations": report.iterations,
        "converged": report.converged,
    })
    return EXIT_OK


def run_gradcheck(obj: Objective, box, samples: int, h: float, seed: int) -> dict:
    """Sample the box, keep points clear of the anchors, compare gradients."""
    lo = np.array([b[0] for b in box])
    hi = np.array([b[1] for b in box])
    exclusion = 10.0 * (obj.potential.epsilon or 0.0)
    rng = np.random.default_rng(seed)
    points = []
    attempts = 0
    while len(points) < samples and attempts < 100 * samples:
        attempts += 1
        x = rng.uniform(lo, hi)
        if exclusion > 0.0:
            if np.min(np.linalg.norm(obj.anchors.points - x, axis=1)) < exclusion:
                continue
        points.append(x)
    if len(points) < samples:
        raise ConfigError(
            "gradcheck: could not sample enough points away from the anchors")
    max_err = max_relative_gradient_error(obj, np.array(points), h)
    return {
        "samples": samples,
        "h": h,
        "seed": seed,
        "max_rel_error": max_err,
        "tolerance": GRADCHECK_TOLERANCE,
        "pass": bool(max_err <= GRADCHECK_TOLERANCE),
    }


def cmd_gradcheck(args) -> int:
    inst = load_instance(args.input)
    if args.samples < 1:
        raise InputError(f"samples: must be >= 1, got {args.samples}")
    obj = Objective(inst.anchors, inst.potential)
    box = _domain_box(inst.testing_plan, inst.anchors)
    h = args.h
    if h is None:
        lo, hi = np.array([b[0] for b in box]), np.array([b[1] for b in box])
        h = 1e-6 * float(np.linalg.norm(hi - lo))
    report = run_gradcheck(obj, box, args.samples, h, args.seed)
    _write_json(args.report, report)
    if not report["pass"]:
        print(f"gradcheck failed: max relative error {report['max_rel_error']:.3e} "
              f"> {GRADCHECK_TOLERANCE}", file=sys.stderr)
        return EXIT_INPUT
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="steiner",
        description="Minimize a sum of distance potentials to anchor points by "
                    "multi-start descent tracing, with independent oracles.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="run the multi-start flow solver")
    p_solve.add_argument("--input", required=True, help="instance JSON file")
    p_solve.add_argument("--output", required=True, help="result JSON file")
    p_solve.add_argument("--trace", default=None, metavar="PREFIX",
                         help="write per-start trace CSVs to PREFIX.<k>.csv")
    p_solve.add_argument("--grad-tol", type=float, default=None, dest="grad_tol")
    p_solve.add_argument("--starts", type=int, default=None,
                         help="override the testing-point count")
    p_solve.add_argument("--strategy", default=None,
                         choices=["grid", "uniform_random", "anchors_jittered"])
    p_solve.add_argument("--seed", type=int, default=None)
    p_solve.add_argument("--cluster-radius", type=float, default=None,
                         dest="cluster_radius")
    p_solve.add_argument("--threads", type=int, default=1,
                         help="ignored (deprecated); echoed in the result")
    p_solve.set_defaults(func=cmd_solve)

    p_oracle = sub.add_parser("oracle", help="run an independent reference solver")
    p_oracle.add_argument("method", choices=["weiszfeld", "centroid", "grid"])
    p_oracle.add_argument("--input", required=True)
    p_oracle.add_argument("--output", required=True)
    p_oracle.add_argument("--tol", type=float, default=1e-10)
    p_oracle.add_argument("--max-iter", type=int, default=10_000, dest="max_iter")
    p_oracle.add_argument("--spacing", type=float, default=0.01)
    p_oracle.set_defaults(func=cmd_oracle)

    p_grad = sub.add_parser("gradcheck",
                            help="compare analytic and finite-difference gradients")
    p_grad.add_argument("--input", required=True)
    p_grad.add_argument("--samples", type=int, default=1000)
    p_grad.add_argument("--h", type=float, default=None,
                        help="difference step (default: 1e-6 of the box diagonal)")
    p_grad.add_argument("--seed", type=int, default=0)
    p_grad.add_argument("--report", required=True, help="report JSON file")
    p_grad.set_defaults(func=cmd_gradcheck)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except tuple(EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in EXIT_CODES.items() if isinstance(exc, kind))


if __name__ == "__main__":
    sys.exit(main())
