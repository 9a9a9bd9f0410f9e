"""Span recorder for the traced run, and the per-layer metrics it yields.

``SpanRecorder.installed()`` replaces the public entry points of each
``steiner`` module with wrappers that record one span per call, and puts
the originals back on exit; the program's own files are not changed. A
span holds its name, start and end (``perf_counter_ns``), the index of the
span that was open when it started (its parent, -1 for none) and the id of
the solve it belongs to. Spans stay in memory until ``write_csv`` is called
at the end of the run. Solves run on one thread, so an open-span stack
gives parents.
"""

import contextlib
import statistics
import time
from array import array

import steiner.cli
import steiner.core
import steiner.critical_set
from steiner.core import Objective
from steiner.flow import FlowTrace

SOLVE = "solve"
LOAD = "steiner.cli.load_instance"
ENUMERATE = "steiner.cli.enumerate_critical_points"
DUMPS = "steiner.cli.dumps_result"
WRITE_CSV = "FlowTrace.write_csv"
TRACE_FLOW = "steiner.critical_set.trace_flow"
OBJECTIVE = tuple(f"Objective.{m}" for m in ("value", "gradient", "value_change", "value_many"))
KERNELS = tuple(f"steiner.core.batch_{k}" for k in ("values", "gradients", "value_changes"))


def _rows(args, _result):
    disp = args[1]
    return disp.size // disp.shape[-1]


def _samples(_args, result):
    return len(result)


def _csv_rows(args, _result):
    return len(args[0])


def _diagnostics(_args, result):
    return result.diagnostics


# (owner, attribute, span name, note) for every wrapped entry point. A note
# function keeps one fact about the call, e.g. the anchor rows a kernel saw.
TARGETS = (
    (steiner.cli, "load_instance", LOAD, None),
    (steiner.cli, "enumerate_critical_points", ENUMERATE, _diagnostics),
    (steiner.cli, "dumps_result", DUMPS, None),
    (FlowTrace, "write_csv", WRITE_CSV, _csv_rows),
    (steiner.critical_set, "trace_flow", TRACE_FLOW, _samples),
    *((Objective, name.split(".")[1], name, None) for name in OBJECTIVE),
    *((steiner.core, name.rsplit(".", 1)[1], name, _rows) for name in KERNELS),
)


class SpanRecorder:
    def __init__(self):
        self.names: list[str] = []
        self.code: dict[str, int] = {}
        self.name_ids = array("i")
        self.parents = array("q")
        self.solves = array("q")
        self.starts = array("q")
        self.ends = array("q")
        self.notes: dict[int, object] = {}
        self.solve_id = -1
        self._open: list[int] = []

    def _begin(self, name: str) -> int:
        idx = len(self.starts)
        if name not in self.code:
            self.code[name] = len(self.names)
            self.names.append(name)
        self.name_ids.append(self.code[name])
        self.parents.append(self._open[-1] if self._open else -1)
        self.solves.append(self.solve_id)
        self.ends.append(0)
        self._open.append(idx)
        self.starts.append(time.perf_counter_ns())
        return idx

    def _end(self, idx: int):
        self.ends[idx] = time.perf_counter_ns()
        self._open.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self._begin(name)
        try:
            yield
        finally:
            self._end(idx)

    def solve_span(self):
        """The root span of one solve; set ``solve_id`` first."""
        return self.span(SOLVE)

    @contextlib.contextmanager
    def installed(self):
        """Route every call in ``TARGETS`` through this recorder while active."""
        saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _, _ in TARGETS]
        try:
            for owner, attr, name, note in TARGETS:
                setattr(owner, attr, self.wrap(getattr(owner, attr), name, note))
            yield self
        finally:
            for owner, attr, original in saved:
                setattr(owner, attr, original)

    def wrap(self, fn, name: str, note=None):
        begin, end, notes = self._begin, self._end, self.notes

        def wrapper(*args, **kwargs):
            idx = begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                end(idx)
            if note is not None:
                notes[idx] = note(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def spans(self, solve_id: int):
        """(index, name, parent, start_ns, end_ns) of one solve, in start order."""
        for i, s in enumerate(self.solves):
            if s == solve_id:
                yield (i, self.names[self.name_ids[i]], self.parents[i],
                       self.starts[i], self.ends[i])

    def write_csv(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("solve,span,parent,name,start_ns,end_ns\n")
            for i in range(len(self.starts)):
                fh.write(f"{self.solves[i]},{i},{self.parents[i]},"
                         f"{self.names[self.name_ids[i]]},{self.starts[i]},{self.ends[i]}\n")


# name -> unit, in report order. ``layer_metrics`` fills every one.
LAYER_UNITS = {
    "cli.load_instance_s": "s",
    "cli.dumps_result_s": "s",
    "cli.write_output_s": "s",
    "flow.write_csv_s": "s",
    "flow.csv_rows": "count",
    "flow.steps": "count",
    "flow.evals_per_step": "ratio",
    "flow.samples": "count",
    "flow.trace_self_s": "s",
    "critical_set.enumerate_s": "s",
    "critical_set.trace_s": "s",
    "critical_set.polish_s": "s",
    "critical_set.reduce_s": "s",
    "critical_set.clusters": "count",
    "critical_set.converged_frac": "frac",
    "critical_set.max_steps_traces": "count",
    "core.value_change.calls": "count",
    "core.value_change_s": "s",
    "core.gradient.calls": "count",
    "core.gradient_s": "s",
    "core.value.calls": "count",
    "core.value_s": "s",
    "core.value_many.calls": "count",
    "core.overhead_s": "s",
    "potentials.kernel_s": "s",
    "potentials.rows": "count",
    "potentials.computed_bytes": "B",
    "potentials.ns_per_row": "ns",
}

# Metrics made only of counts: they must repeat exactly from solve to solve.
DETERMINISTIC = tuple(k for k, unit in LAYER_UNITS.items() if unit not in ("s", "ns"))


def layer_metrics(recorder: SpanRecorder, solve_id: int, dimension: int) -> dict[str, float]:
    """Per-layer metrics of one traced solve (see LAYER_UNITS).

    Self time is a span's duration minus the durations of its children;
    calls on one thread nest, so children never overlap. Kernel bytes are
    computed as anchor rows x dimension x 8, not measured.
    """
    spans = list(recorder.spans(solve_id))
    name_of = {i: name for i, name, *_ in spans}
    dur = {i: (end - start) * 1e-9 for i, _, _, start, end in spans}
    child = dict.fromkeys(dur, 0.0)
    for i, _, parent, _, _ in spans:
        if parent in child:
            child[parent] += dur[i]

    def total(names):
        return sum(dur[i] for i, name, *_ in spans if name in names)

    def calls(name, parent_name=None):
        return sum(1 for i, n, parent, *_ in spans
                   if n == name and (parent_name is None or name_of.get(parent) == parent_name))

    [(enum_idx, *_, enum_end)] = [s for s in spans if s[1] == ENUMERATE]
    [solve_end] = [s[4] for s in spans if s[1] == SOLVE]
    diagnostics = recorder.notes[enum_idx]
    m = diagnostics["testing_points"]
    traces = [i for i, name, *_ in spans if name == TRACE_FLOW]
    steps = calls("Objective.gradient", TRACE_FLOW) - len(traces)
    kernel_s = total(KERNELS)
    rows = sum(recorder.notes[i] for i, name, *_ in spans if name in KERNELS)
    return {
        "cli.load_instance_s": total({LOAD}),
        "cli.dumps_result_s": total({DUMPS}),
        "cli.write_output_s": (solve_end - enum_end) * 1e-9,
        "flow.write_csv_s": total({WRITE_CSV}),
        "flow.csv_rows": sum(recorder.notes[i] for i, name, *_ in spans if name == WRITE_CSV),
        "flow.steps": steps,
        "flow.evals_per_step": calls("Objective.value_change", TRACE_FLOW) / max(steps, 1),
        "flow.samples": sum(recorder.notes[i] for i in traces),
        "flow.trace_self_s": sum(dur[i] - child[i] for i in traces),
        "critical_set.enumerate_s": dur[enum_idx],
        "critical_set.trace_s": sum(dur[i] for i in traces[:m]),
        "critical_set.polish_s": sum(dur[i] for i in traces[m:]),
        "critical_set.reduce_s": dur[enum_idx] - child[enum_idx],
        "critical_set.clusters": diagnostics["clusters"],
        "critical_set.converged_frac": diagnostics["converged"] / m,
        "critical_set.max_steps_traces": diagnostics["max_steps"],
        "core.value_change.calls": calls("Objective.value_change"),
        "core.value_change_s": total({"Objective.value_change"}),
        "core.gradient.calls": calls("Objective.gradient"),
        "core.gradient_s": total({"Objective.gradient"}),
        "core.value.calls": calls("Objective.value"),
        "core.value_s": total({"Objective.value"}),
        "core.value_many.calls": calls("Objective.value_many"),
        "core.overhead_s": total(set(OBJECTIVE)) - kernel_s,
        "potentials.kernel_s": kernel_s,
        "potentials.rows": rows,
        "potentials.computed_bytes": rows * dimension * 8,
        "potentials.ns_per_row": kernel_s * 1e9 / max(rows, 1),
    }


def median_metrics(per_solve: list[dict]) -> dict[str, float]:
    """Median of each metric over solves; counts are taken as they are."""
    return {k: v if k in DETERMINISTIC else statistics.median(d[k] for d in per_solve)
            for k, v in per_solve[0].items()}
