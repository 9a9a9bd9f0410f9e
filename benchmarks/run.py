"""Benchmark `steiner solve` on seeded workloads, end to end or traced.

    python3 benchmarks/run.py                      # all workloads, end-to-end metrics
    python3 benchmarks/run.py --trace 1            # all workloads, per-layer metrics
    python3 benchmarks/run.py --workload median_large_n --seed 3 --seconds 30 --trace 0

Run from anywhere inside a source checkout; the solver is imported from its
``src`` directory. One workload run writes the instance from the seed,
times set-up in fresh interpreters, then calls ``steiner.cli.main`` with
``solve`` in this process (``threads=1``): one untimed warm-up, then timed
solves until ``--seconds`` have passed. After each timed solve (and each
set-up probe) a block of reference work measures how fast the machine ran
just then, and the reported times are scaled to a nominal machine speed
(see reference.py); the unscaled times are printed as ``*_wall_s``. Every
solve is checked after the timing ends: exit code 0, the same result
bytes (JSON and trace CSVs) as the warm-up, and the result's value against
an independent oracle.

With ``--trace 1`` the run alternates untraced solves with solves whose
calls into each module are recorded as spans (see spans.py) and reports
per-layer metrics instead. The spans are written to
``.bench_work/spans-<workload>.csv`` when the run ends.

The last line printed is one JSON object: correct, attempted, failed and
the metrics. The exit code is 0 when every check passed, 1 when a check
failed, and 2 when the benchmark could not run.
"""

import argparse
import contextlib
import gc
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import oracles
from reference import Reference
from workloads import WORKLOADS, write_instance

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

SETUP_PROBES = 9       # timed fresh-interpreter set-ups, after one untimed
MIN_SOLVES = 3         # timed solves, even when --seconds runs out first
MIN_TRACED_PAIRS = 2   # untraced/traced solve pairs in a traced run
REF_SHARE = 0.1        # reference work after each timed solve, as a share of it
REF_SETUP_S = 0.15     # reference work after each set-up probe, in seconds


@dataclass
class Solve:
    """Exit code, wall time and output digest of one `steiner solve` call."""

    code: int | None
    seconds: float
    digest: str | None = None
    error: str | None = None
    slowdown: float = 1.0  # of the machine around the solve (reference.py)


class Solver:
    """Runs one workload's `steiner solve` in process and fingerprints its output."""

    def __init__(self, cli, workload, instance_path: Path, out_dir: Path):
        self.cli = cli
        self.result = out_dir / "result.json"
        self.trace_prefix = out_dir / "trace"
        self.argv = ["solve", "--input", str(instance_path), "--output", str(self.result)]
        if workload.trace_csv:
            self.argv += ["--trace", str(self.trace_prefix)]
        self.outputs: dict[str, bytes] = {}  # digest -> result JSON bytes

    def _csv_files(self):
        files = self.trace_prefix.parent.glob(self.trace_prefix.name + ".*.csv")
        return sorted(files, key=lambda p: int(p.name.split(".")[-2]))

    def solve(self, recorder=None) -> Solve:
        for path in [self.result, *self._csv_files()]:
            path.unlink(missing_ok=True)
        gc.collect()
        off = contextlib.nullcontext
        error = None
        with off() if recorder is None else recorder.installed():
            start = time.perf_counter()
            try:
                with off() if recorder is None else recorder.solve_span():
                    code = self.cli.main(self.argv)
            except Exception:  # a crash is a failed solve, reported below
                code, error = None, traceback.format_exc()
            seconds = time.perf_counter() - start
        if code != 0:
            return Solve(code, seconds, error=error)
        digest = hashlib.sha256()
        blob = self.result.read_bytes()
        digest.update(blob)
        for path in self._csv_files():
            digest.update(path.name.encode())
            digest.update(path.read_bytes())
        key = digest.hexdigest()
        self.outputs.setdefault(key, blob)
        return Solve(code, seconds, key)


def check_solves(solves, instance, outputs, oracle_check) -> list[str]:
    """One line per failed solve; the oracle runs once per distinct output.

    A solve fails on a non-zero exit code, on output bytes that differ from
    the warm-up's, or when its result fails the oracle check.
    """
    verdicts = {}
    failures = []
    reference = solves[0].digest
    for k, s in enumerate(solves):
        if s.code != 0:
            why = f"exit code {s.code}" + (f"\n{s.error}" if s.error else "")
        elif s.digest != reference:
            why = "result bytes differ from the warm-up solve"
        else:
            if s.digest not in verdicts:
                verdicts[s.digest] = _oracle(oracle_check, instance, outputs[s.digest])
            why = "; ".join(verdicts[s.digest])
        if why:
            failures.append(f"solve {k}: {why}")
    return failures


def _oracle(oracle_check, instance, blob: bytes) -> list[str]:
    try:
        return oracle_check(instance, json.loads(blob))
    except Exception:  # an unreadable result fails its solve, it must not end the run
        return [f"oracle check raised:\n{traceback.format_exc()}"]


def measure_setup(instance_path: Path, reference: Reference) -> dict[str, float]:
    """Set-up time in fresh interpreters, each scaled by the mean slowdown
    of the reference blocks just before and just after it."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"), str(SRC), str(instance_path)]
    times, scaled = [], []
    before = None
    for _ in range(SETUP_PROBES + 1):
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=60, check=True)
        seconds = float(proc.stdout.strip().splitlines()[-1])
        after = reference.slowdown(REF_SETUP_S)
        if before is not None:  # the first probe is untimed: it fills the file cache
            times.append(seconds)
            scaled.append(seconds / ((before + after) / 2))
        before = after
    return {"setup_s": statistics.median(scaled), "setup_wall_s": statistics.median(times)}


def spec():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def run_workload(args) -> int:
    import steiner.cli

    bench = spec()
    workload = WORKLOADS[args.workload]
    work = WORK / f"{workload.name}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        instance_path = work / "instance.json"
        instance = write_instance(workload, args.seed, instance_path)
        solver = Solver(steiner.cli, workload, instance_path, work)
        if args.trace:
            metrics, solves, problems = traced_run(args, workload, solver)
            names = bench["per_layer"]
        else:
            reference = Reference()
            setup = measure_setup(instance_path, reference)
            metrics, solves = untraced_run(args, solver, reference)
            metrics.update(setup)
            problems = []
            names = bench["end_to_end"]
        failures = check_solves(solves, instance, solver.outputs, oracles.check)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics["solved_frac"] = 1.0 - len(failures) / len(solves)
    metrics["failed_frac"] = len(failures) / len(solves)
    units = {"solved_frac": "frac", "failed_frac": "frac", "bench.trace_overhead_s": "s",
             "solve_q1_s": "s", "solve_q3_s": "s", "solve_wall_s": "s",
             "solve_wall_q1_s": "s", "solve_wall_q3_s": "s", "setup_wall_s": "s",
             "slowdown": "ratio"}
    if args.trace:
        from spans import LAYER_UNITS
        units.update(LAYER_UNITS)
    units.update((m["name"], m["unit"]) for m in names)
    print(f"# {workload.name} seed={args.seed} trace={args.trace}: {len(solves)} solves, "
          f"the first an untimed warm-up"
          + ("; times are medians over traced solves" if args.trace else
             f"; solve_s is the median timed solve, setup_s the median over "
             f"{SETUP_PROBES} fresh interpreters, both scaled to the nominal "
             f"machine speed (reference.py); *_wall_s are unscaled"))
    for name, value in metrics.items():
        print(f"{workload.name:20s} {name:32s} {value:>14.6g} {units.get(name, '')}")
    problems = failures + problems
    for p in problems:
        print(f"FAILED {workload.name}: {p}", file=sys.stderr)
    correct = not problems
    print(json.dumps({
        "correct": correct, "attempted": len(solves), "failed": len(failures),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in names},
    }))
    return 0 if correct else 1


def untraced_run(args, solver, reference):
    """Timed solves with a reference block after each, which says how fast
    the machine ran just then; solve_s scales each solve by the mean
    slowdown of the blocks just before and just after it."""
    solves = [solver.solve()]  # warm-up
    before = reference.slowdown(REF_SHARE * solves[0].seconds)
    deadline = time.perf_counter() + args.seconds
    while len(solves) <= MIN_SOLVES or time.perf_counter() < deadline:
        solve = solver.solve()
        after = reference.slowdown(REF_SHARE * solve.seconds)
        solve.slowdown = (before + after) / 2
        before = after
        solves.append(solve)
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    timed = solves[1:]
    scaled = [s.seconds / s.slowdown for s in timed]
    wall = [s.seconds for s in timed]
    q1, _, q3 = statistics.quantiles(scaled, n=4)
    wq1, _, wq3 = statistics.quantiles(wall, n=4)
    return {"solve_s": statistics.median(scaled), "peak_rss_mib": peak_rss_mib,
            "solve_q1_s": q1, "solve_q3_s": q3, "solve_wall_s": statistics.median(wall),
            "solve_wall_q1_s": wq1, "solve_wall_q3_s": wq3,
            "slowdown": statistics.median(s.slowdown for s in timed)}, solves


def traced_run(args, workload, solver):
    from spans import DETERMINISTIC, SpanRecorder, layer_metrics, median_metrics

    recorder = SpanRecorder()
    solves = [solver.solve()]  # warm-up
    plain, traced, layers = [], [], []
    deadline = time.perf_counter() + args.seconds
    while len(traced) < MIN_TRACED_PAIRS or time.perf_counter() < deadline:
        plain.append(solver.solve())
        recorder.solve_id = len(traced)
        traced.append(solver.solve(recorder))
        if traced[-1].code == 0:
            layers.append(layer_metrics(recorder, recorder.solve_id, workload.dimension))
    solves += plain + traced
    recorder.write_csv(WORK / f"spans-{workload.name}.csv")

    if not layers:
        return {}, solves, ["no traced solve succeeded"]
    problems = [f"{k} differs between traced solves: {[d[k] for d in layers]}"
                for k in DETERMINISTIC if len({d[k] for d in layers}) > 1]
    metrics = median_metrics(layers)
    metrics["bench.trace_overhead_s"] = (statistics.median(s.seconds for s in traced)
                                         - statistics.median(s.seconds for s in plain))
    return metrics, solves, problems


def run_all(args) -> int:
    """Each workload in its own interpreter, so peak memory is per workload."""
    ok = True
    rows = []
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"{name}: no result (exit code {proc.returncode})", file=sys.stderr)
            ok = False
            continue
        ok = ok and proc.returncode == 0 and result["correct"]
        rows.append((name, result))
    print()
    for name, result in rows:
        print(f"{name:20s} correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "steiner" / "cli.py").is_file():
        print(f"error: no steiner sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    if args.workload not in WORKLOADS:
        parser.error(f"--workload: expected all or one of {', '.join(WORKLOADS)}")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
