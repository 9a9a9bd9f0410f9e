"""Smoke tests of the benchmark at a tiny size: inputs, checks and spans.

    python3 -m pytest benchmarks/tests -q
"""

import argparse
import ast
import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import oracles
import run
import spans
import steiner.cli
from reference import Reference
from workloads import WORKLOADS, Workload, make_instance, write_instance

BENCH = Path(run.__file__).resolve().parent

# Sizes at which a solve takes at most a few seconds; the multiwell plan
# keeps its 8x8 grid so that it still finds the global well.
TINY = {
    "median_large_n": dict(n=200, starts=2),
    "median_many_starts": dict(starts=32),
    "multiwell_traced": dict(n=8),
}


def tiny(workload: Workload, **changes) -> Workload:
    return Workload(**{**workload.__dict__, **TINY[workload.name], **changes})


def _solver(tmp_path, workload, seed=5):
    instance_path = tmp_path / "instance.json"
    instance = write_instance(workload, seed, instance_path)
    return run.Solver(steiner.cli, workload, instance_path, tmp_path), instance


def test_generator_repeats_per_seed_and_imports_no_solver_code():
    for workload in WORKLOADS.values():
        w = tiny(workload)
        assert make_instance(w, 3) == make_instance(w, 3)
        assert make_instance(w, 3) != make_instance(w, 4)
    tree = ast.parse((BENCH / "workloads.py").read_text())
    imported = {alias.name.split(".")[0] for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                for alias in getattr(node, "names", [])}
    imported |= {node.module.split(".")[0] for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom) and node.module}
    assert "steiner" not in imported


@pytest.mark.parametrize("name", ["median_many_starts", "multiwell_traced"])
def test_fixed_landscape_seeds_are_symmetric_copies(name):
    def distances(seed):
        a = np.asarray(make_instance(WORKLOADS[name], seed)["anchors"])
        return np.sort(np.linalg.norm(a[:, None] - a[None], axis=-1), axis=None)

    np.testing.assert_allclose(distances(1), distances(2), rtol=0, atol=1e-12)
    assert make_instance(WORKLOADS[name], 1) != make_instance(WORKLOADS[name], 2)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_run_passes_checks_and_counts_repeat(tmp_path, name):
    workload = tiny(WORKLOADS[name])
    solver, instance = _solver(tmp_path, workload)
    recorder = spans.SpanRecorder()
    solves = [solver.solve()]
    layers = []
    for k in range(2):
        recorder.solve_id = k
        solves.append(solver.solve(recorder))
        layers.append(spans.layer_metrics(recorder, k, workload.dimension))

    assert run.check_solves(solves, instance, solver.outputs, oracles.check) == []
    assert set(layers[0]) == set(spans.LAYER_UNITS)
    for key in spans.DETERMINISTIC:
        assert layers[0][key] == layers[1][key], key
    first = layers[0]
    assert first["core.gradient.calls"] > first["flow.steps"] > 0
    assert (first["flow.csv_rows"] > 0) == workload.trace_csv
    # Tracing must leave the program exactly as it found it.
    assert steiner.cli.load_instance.__module__ == "steiner.cli"
    assert not hasattr(steiner.core.Objective.gradient, "__wrapped__")
    recorder.write_csv(tmp_path / "spans.csv")
    header, *rows = (tmp_path / "spans.csv").read_text().splitlines()
    assert header == "solve,span,parent,name,start_ns,end_ns"
    assert len(rows) == len(recorder.starts)


def test_solve_s_scales_each_solve_by_its_own_slowdown(tmp_path):
    workload = tiny(WORKLOADS["median_many_starts"])
    solver, _ = _solver(tmp_path, workload)
    reference = Reference()
    metrics, solves = run.untraced_run(argparse.Namespace(seconds=0.01), solver, reference)
    timed = solves[1:]
    assert len(timed) == run.MIN_SOLVES
    assert all(s.slowdown > 0 for s in timed)
    assert metrics["solve_s"] == statistics.median(s.seconds / s.slowdown for s in timed)
    assert metrics["solve_wall_s"] == statistics.median(s.seconds for s in timed)


def test_reported_metrics_match_benchmark_json():
    bench = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert bench["paths"] == [BENCH.name]
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    units = {**spans.LAYER_UNITS, "bench.trace_overhead_s": "s"}
    for metric in bench["per_layer"]:
        assert units[metric["name"]] == metric["unit"], metric


def test_self_time_subtracts_children():
    recorder = spans.SpanRecorder()
    recorder.solve_id = 0
    with recorder.span("outer"):
        with recorder.span("inner"):
            pass
        with recorder.span("inner"):
            pass
    parents = list(recorder.parents)
    assert parents == [-1, 0, 0]
    outer = recorder.ends[0] - recorder.starts[0]
    inner = sum(recorder.ends[i] - recorder.starts[i] for i in (1, 2))
    assert 0 <= inner <= outer


def _corruptions(instance, result):
    """Results that must all be refused: a wrong value, and a wrong point."""
    wrong_value = json.loads(json.dumps(result))
    wrong_value["steiner"]["value"] *= 1.0 - 1e-3
    anchors = np.asarray(instance["anchors"])
    loc = np.asarray(result["steiner"]["location"]) + 0.5
    if instance["potential"]["kind"] == "euclidean":
        value = oracles.euclidean_values(anchors, loc[None])[0]
    else:
        loc = anchors[np.argmax(np.linalg.norm(anchors - anchors.mean(0), axis=1))] + 3.0
        value = oracles.gaussian_values(anchors, instance["potential"]["sigma"], loc[None])[0]
    wrong_point = json.loads(json.dumps(result))
    wrong_point["steiner"]["location"] = loc.tolist()
    wrong_point["steiner"]["value"] = float(value)
    return wrong_value, wrong_point


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_checks_catch_a_corrupted_result(tmp_path, name):
    workload = tiny(WORKLOADS[name])
    solver, instance = _solver(tmp_path, workload)
    good = solver.solve()
    result = json.loads(solver.outputs[good.digest])
    assert oracles.check(instance, result) == []
    for bad in _corruptions(instance, result):
        assert oracles.check(instance, bad)

    # Every way a solve can fail is counted, none is skipped.
    bad_blob = json.dumps(_corruptions(instance, result)[1]).encode()
    solver.outputs["bad"] = bad_blob
    solves = [good, good,
              run.Solve(0, 1.0, "other"),      # bytes differ from the warm-up
              run.Solve(1, 1.0),               # non-zero exit
              run.Solve(None, 1.0, error="Traceback ...")]
    failures = run.check_solves(solves, instance, solver.outputs, oracles.check)
    assert [f.split(":")[0] for f in failures] == ["solve 2", "solve 3", "solve 4"]
    wrong = [run.Solve(0, 1.0, "bad"), run.Solve(0, 1.0, "bad")]
    assert len(run.check_solves(wrong, instance, solver.outputs, oracles.check)) == 2


def test_check_catches_a_plan_that_misses_the_global_well(tmp_path):
    # A 3x3 grid over this landscape converges only to shallower wells.
    workload = tiny(WORKLOADS["multiwell_traced"], starts=9)
    solver, instance = _solver(tmp_path, workload)
    solve = solver.solve()
    assert solve.code == 0
    [failure] = run.check_solves([solve], instance, solver.outputs, oracles.check)
    assert "missed the global well" in failure


def test_failed_exit_code_is_recorded(tmp_path):
    workload = tiny(WORKLOADS["median_many_starts"])
    solver, instance = _solver(tmp_path, workload)
    solver.argv[solver.argv.index("--input") + 1] = str(tmp_path / "missing.json")
    solve = solver.solve()
    assert solve.code == 1
    assert run.check_solves([solve], instance, solver.outputs, oracles.check)


def test_weiszfeld_handles_a_median_at_an_anchor():
    # Three anchors with a 120+ degree angle: the median is the obtuse vertex.
    anchors = np.array([[0.0, 0.0], [10.0, 0.1], [-10.0, 0.1]])
    np.testing.assert_allclose(oracles.weiszfeld(anchors), [0.0, 0.0], atol=1e-9)


def test_run_refuses_a_directory_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "median_large_n",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
