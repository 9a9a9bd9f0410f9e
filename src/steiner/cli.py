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
import gc
import io
import json
import math
import sys
from dataclasses import MISSING, dataclass, fields, replace

import numpy as np
import orjson

from .core import AnchorSet, Objective, distances, max_relative_gradient_error
from .critical_set import (STRATEGIES, TestingPlan, box_geometry, enumerate_critical_points,
                           plan_domain_box)
from .errors import ConfigError, InputError, NoCriticalPointError, NumericalError
from .flow import FlowConfig
from .oracles import centroid, grid_search, weiszfeld
from .potentials import PotentialSpec, _expect_array, _expect_int
from .potentials import _expect_number  # noqa: F401  (tests check the list walk against it)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_NO_CRITICAL_POINT = 2

# Exit code of each error a command reports; any other exception is a bug
# and propagates with its traceback.
EXIT_CODES = {InputError: EXIT_INPUT, ConfigError: EXIT_INPUT, OSError: EXIT_INPUT,
              NoCriticalPointError: EXIT_NO_CRITICAL_POINT,
              NumericalError: EXIT_NO_CRITICAL_POINT}

GRADCHECK_TOLERANCE = 1e-5


# ---------------------------------------------------------------------------
# Canonical JSON: insertion-ordered keys, floats at 17 significant digits.

def _fmt_json(value, indent=0, key="result"):
    """``value`` as canonical JSON; a non-finite float, which JSON cannot
    hold, raises an :class:`InputError` naming the key it sits under."""
    pad = "  " * indent
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = ",\n".join(
            f"{pad}  {json.dumps(str(k))}: {_fmt_json(v, indent + 1, k)}"
            for k, v in value.items())
        return "{\n" + inner + "\n" + pad + "}"
    if isinstance(value, (list, tuple)):
        items = [_fmt_json(v, indent, key) for v in value]
        return "[" + ", ".join(items) + "]"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        if not math.isfinite(value):
            raise InputError(f"{key}: result is {float(value)}, which JSON cannot hold")
        return format(float(value), ".17g")
    if value is None:
        return "null"
    return json.dumps(value)


def dumps_result(data: dict) -> str:
    return _fmt_json(data) + "\n"


def _write_json(path, data: dict):
    # Formatted before opening: a result that cannot be written leaves no file.
    _write_text(path, dumps_result(data))


def _write_text(path, text: str):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


# ---------------------------------------------------------------------------
# Instance files.

@dataclass(frozen=True, eq=False)
class Instance:
    """Parsed instance file: anchors plus solver configuration. Every
    section is present; one the file leaves out holds its defaults."""

    anchors: AnchorSet
    potential: PotentialSpec
    testing_plan: TestingPlan
    flow: FlowConfig


def _expect_object(value, field):
    if not isinstance(value, dict):
        raise InputError(f"{field}: expected a JSON object")
    return value


def _reject_unknown(data, known, field):
    for key in data:
        if key not in known:
            raise InputError(f"{field}.{key}: unknown field")


# The configuration sections of an instance and the dataclass each one builds,
# which gives its field names, order and defaults and checks every field.
_SECTIONS = {"potential": PotentialSpec, "testing_plan": TestingPlan, "flow": FlowConfig}


def _parse_section(raw, section):
    """Build one section's dataclass from its JSON object, whose keys are
    checked here and whose values the dataclass checks. A field given as
    ``null`` whose default is ``None`` keeps that default, as if absent:
    serialization leaves such fields out."""
    cls = _SECTIONS[section]
    raw = _expect_object(raw, section)
    _reject_unknown(raw, {f.name for f in fields(cls)}, section)
    kwargs = {}
    for f in fields(cls):
        if f.name in raw and not (raw[f.name] is None and f.default is None):
            kwargs[f.name] = raw[f.name]
        elif f.default is MISSING:
            raise InputError(f"{section}.{f.name}: missing required field")
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

    Errors name the offending field, down to the entry of a number list.
    An absent or ``null`` ``testing_plan`` or ``flow`` section gets its
    defaults here; the domain box stays unresolved until a command needs it.
    """
    data = _expect_object(data, "instance")
    _reject_unknown(data, {"dimension", "anchors", *_SECTIONS}, "instance")
    for name in ("dimension", "anchors", "potential"):
        if name not in data:
            raise InputError(f"{name}: missing required field")
    dimension = _expect_int(data["dimension"], "dimension")
    if dimension < 1:
        raise InputError(f"dimension: must be >= 1, got {dimension}")

    anchors = AnchorSet(_expect_array(
        data["anchors"], "anchors", "a non-empty list of coordinate rows", dimension,
        lambda row: (f"expected {dimension} coordinates, got {len(row)}"
                     if isinstance(row, list) else "expected a coordinate list")))

    potential = _parse_section(data["potential"], "potential")
    plan, flow = (_parse_section({} if data.get(s) is None else data[s], s)
                  for s in ("testing_plan", "flow"))
    if plan.domain_box is not None:
        plan_domain_box(plan, anchors)  # rejects a box of another axis count
    return Instance(anchors, potential, plan, flow)


def _decode_json(path):
    """The JSON data in the file at ``path``.

    orjson decodes the file's bytes; its floats are correctly rounded, so
    they are the ones ``json`` gives. Bytes it rejects are read again as a
    text file is (UTF-8, universal newlines) and decoded by ``json``. That
    decoder accepts ``NaN``, ``Infinity`` and numbers past the float range,
    so these reach the field checks, and it words every other error.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        return orjson.loads(raw)
    except orjson.JSONDecodeError:
        pass
    try:
        return json.loads(io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8").read())
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: malformed JSON: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not UTF-8 text: {exc}") from exc
    except RecursionError as exc:
        raise InputError(f"{path}: JSON nested too deeply: {exc}") from exc


def load_instance(path) -> Instance:
    """The instance in the JSON file at ``path``, decoded and checked with the
    cyclic garbage collector paused.

    JSON data holds no reference cycles, so a collection in here finds
    nothing. Yet decoding 10 000 x 8 anchors allocates 10 001 lists, which
    set off 13 generation-0 passes and 1 generation-1 pass of the collector
    (counted with ``gc.callbacks``). The decoded lists are freed when
    ``parse_instance`` returns, before collection resumes, so they leave
    the next pass nothing to walk either. The caller's collector state is
    restored on every exit.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        return parse_instance(_decode_json(path))
    finally:
        if enabled:
            gc.enable()


def serialize_instance(inst: Instance) -> dict:
    """Inverse of :func:`parse_instance` on semantic content; writes every
    section, defaults included."""
    data = {"dimension": inst.anchors.dimension, "anchors": inst.anchors.points.tolist()}
    for section in _SECTIONS:
        data[section] = _section_json(getattr(inst, section))
    return data


# ---------------------------------------------------------------------------
# Shared command plumbing.

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
    plan = replace(inst.testing_plan, domain_box=plan_domain_box(inst.testing_plan, obj.anchors),
                   **overrides)
    cfg = inst.flow
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
    # The result is formatted first and written last, so that neither a value
    # JSON cannot hold nor a failed trace write leaves a result file.
    text = dumps_result(payload)
    if args.trace is not None:
        for k, tr in enumerate(result.traces):
            tr.write_csv(f"{args.trace}.{k}.csv")
    _write_text(args.output, text)
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
        report = grid_search(obj, plan_domain_box(inst.testing_plan, inst.anchors), args.spacing)
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
    lo, hi, _ = box_geometry(box)
    exclusion = 10.0 * (obj.potential.epsilon or 0.0)
    rng = np.random.default_rng(seed)
    points = []
    attempts = 0
    while len(points) < samples and attempts < 100 * samples:
        attempts += 1
        x = rng.uniform(lo, hi)
        if exclusion > 0.0:
            if np.min(distances(obj.anchors.points, x)) < exclusion:
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
    if args.seed < 0:
        raise InputError(f"seed: must be >= 0, got {args.seed}")
    obj = Objective(inst.anchors, inst.potential)
    box = plan_domain_box(inst.testing_plan, inst.anchors)
    h = args.h if args.h is not None else 1e-6 * box_geometry(box)[2]
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
    p_solve.add_argument("--strategy", default=None, choices=STRATEGIES)
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
