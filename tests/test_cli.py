"""Command-line interface: instance parsing, commands, exit codes, formats."""

import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from steiner import KINDS, InputError, Objective, SteinerError, weiszfeld
from steiner.cli import (EXIT_INPUT, EXIT_NO_CRITICAL_POINT, EXIT_OK, load_instance,
                         main, parse_instance, serialize_instance)
from steiner.critical_set import STRATEGIES

RIGHT_TRIANGLE_INSTANCE = {
    "dimension": 2,
    "anchors": [[0.0, 0.0], [4.0, 0.0], [0.0, 3.0]],
    "potential": {"kind": "euclidean"},
    "testing_plan": {"strategy": "grid", "count": 9, "seed": 0},
    "flow": {"grad_tol": 1e-8},
}


def write_instance(tmp_path, data, name="instance.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return path


def test_solve_right_triangle_matches_weiszfeld(tmp_path):
    inp = write_instance(tmp_path, RIGHT_TRIANGLE_INSTANCE)
    out = tmp_path / "result.json"
    code = main(["solve", "--input", str(inp), "--output", str(out)])
    assert code == EXIT_OK
    result = json.loads(out.read_text())
    oracle = weiszfeld(np.array(RIGHT_TRIANGLE_INSTANCE["anchors"]), tol=1e-12)
    np.testing.assert_allclose(result["steiner"]["location"], oracle.location, atol=1e-5)
    assert result["steiner"]["value"] == pytest.approx(oracle.value, rel=1e-6)
    assert result["diagnostics"]["converged"] == 9
    assert set(result) == {"steiner", "critical_set", "diagnostics", "config_echo"}


def test_solve_single_anchor_returns_the_anchor(tmp_path):
    inp = write_instance(tmp_path, {
        "dimension": 2,
        "anchors": [[2.0, 7.0]],
        "potential": {"kind": "euclidean"},
        "testing_plan": {"strategy": "anchors_jittered", "count": 1, "seed": 3},
    })
    out = tmp_path / "result.json"
    assert main(["solve", "--input", str(inp), "--output", str(out)]) == EXIT_OK
    result = json.loads(out.read_text())
    np.testing.assert_allclose(result["steiner"]["location"], [2.0, 7.0], atol=1e-7)
    assert abs(result["steiner"]["value"]) <= 1e-12


def test_solve_rejects_wrong_width_anchor_row(tmp_path, capsys):
    bad = dict(RIGHT_TRIANGLE_INSTANCE,
               anchors=[[0.0, 0.0], [4.0, 0.0], [0.0, 3.0, 1.0]])
    inp = write_instance(tmp_path, bad)
    out = tmp_path / "result.json"
    code = main(["solve", "--input", str(inp), "--output", str(out)])
    assert code == EXIT_INPUT
    err = capsys.readouterr().err
    assert "anchors[2]" in err
    assert not out.exists()


def test_solve_rejects_malformed_json(tmp_path, capsys):
    inp = tmp_path / "broken.json"
    inp.write_text('{"dimension": 2,,}')
    code = main(["solve", "--input", str(inp), "--output", str(tmp_path / "o.json")])
    assert code == EXIT_INPUT
    assert "JSON" in capsys.readouterr().err


def test_solve_rejects_unknown_potential_kind(tmp_path, capsys):
    bad = dict(RIGHT_TRIANGLE_INSTANCE, potential={"kind": "hyperbolic"})
    inp = write_instance(tmp_path, bad)
    code = main(["solve", "--input", str(inp), "--output", str(tmp_path / "o.json")])
    assert code == EXIT_INPUT
    assert "potential.kind" in capsys.readouterr().err


def test_solve_reports_no_critical_point(tmp_path):
    inp = write_instance(tmp_path, {
        "dimension": 2,
        "anchors": [[0.0, 0.0]],
        "potential": {"kind": "squared"},
        "testing_plan": {"strategy": "grid", "count": 4,
                         "domain_box": [[-4.0, 4.0], [-4.0, 4.0]], "seed": 0},
        # min_step just below initial_step: full steps bounce x -> -x and
        # nothing smaller may be tried, so every start stalls.
        "flow": {"initial_step": 1.0, "min_step": 0.9},
    })
    out = tmp_path / "result.json"
    code = main(["solve", "--input", str(inp), "--output", str(out)])
    assert code == EXIT_NO_CRITICAL_POINT
    payload = json.loads(out.read_text())
    assert payload["diagnostics"]["converged"] == 0
    assert payload["diagnostics"]["stalled"] == 4


def test_solve_writes_trace_csvs(tmp_path):
    inp = write_instance(tmp_path, RIGHT_TRIANGLE_INSTANCE)
    out = tmp_path / "result.json"
    prefix = tmp_path / "trace"
    code = main(["solve", "--input", str(inp), "--output", str(out),
                 "--trace", str(prefix)])
    assert code == EXIT_OK
    csvs = sorted(tmp_path.glob("trace.*.csv"))
    assert len(csvs) == 9
    header = csvs[0].read_text().splitlines()[0]
    assert header == "step,Z_1,Z_2,U,grad_norm,step_len"


def test_solve_flag_overrides_echoed(tmp_path):
    inp = write_instance(tmp_path, RIGHT_TRIANGLE_INSTANCE)
    out = tmp_path / "result.json"
    code = main(["solve", "--input", str(inp), "--output", str(out),
                 "--starts", "4", "--strategy", "uniform_random", "--seed", "9",
                 "--grad-tol", "1e-6", "--threads", "2"])
    assert code == EXIT_OK
    echo = json.loads(out.read_text())["config_echo"]
    assert echo["testing_plan"]["count"] == 4
    assert echo["testing_plan"]["strategy"] == "uniform_random"
    assert echo["testing_plan"]["seed"] == 9
    assert echo["flow"]["grad_tol"] == 1e-6
    assert echo["threads"] == 2


def test_solve_deterministic_output_bytes(tmp_path):
    inp = write_instance(tmp_path, RIGHT_TRIANGLE_INSTANCE)
    blobs = []
    for k in range(3):
        out = tmp_path / f"result{k}.json"
        assert main(["solve", "--input", str(inp), "--output", str(out),
                     "--seed", "7"]) == EXIT_OK
        blobs.append(out.read_bytes())
    assert blobs[0] == blobs[1] == blobs[2]


# Instance sections and solve flags per case: one case per potential kind,
# with and without testing_plan/flow, and one with every override flag.
ECHO_CASES = {
    "euclidean": ({"potential": {"kind": "euclidean"}}, []),
    "p_norm": ({"potential": {"kind": "p_norm", "p": 3, "epsilon": 1e-6},
                "testing_plan": {"strategy": "grid", "count": 4,
                                 "domain_box": [[-1, 5], [-1, 4]], "seed": 1},
                "flow": {"grad_tol": 1e-7, "max_steps": 2000}}, []),
    "squared": ({"potential": {"kind": "squared"},
                 "testing_plan": {"strategy": "uniform_random", "count": 3, "seed": 5}}, []),
    "weighted_euclidean": ({"potential": {"kind": "weighted_euclidean",
                                          "weights": [1, 2.5, 0.5]},
                            "flow": {"armijo_c": 0.1, "backtrack_factor": 0.3}}, []),
    "gaussian_well": ({"potential": {"kind": "gaussian_well", "sigma": 2},
                       "testing_plan": {"strategy": "anchors_jittered", "seed": 2}}, []),
    "overrides": ({k: RIGHT_TRIANGLE_INSTANCE[k] for k in ("potential", "testing_plan", "flow")},
                  ["--starts", "4", "--strategy", "uniform_random", "--seed", "9",
                   "--grad-tol", "1e-6", "--cluster-radius", "0.01", "--threads", "2"]),
}

# The tail of each result file from the config_echo key on, byte for byte.
ECHO_GOLDEN = {
    "euclidean": """\
  "config_echo": {
    "dimension": 2,
    "n_anchors": 3,
    "potential": {
      "kind": "euclidean",
      "epsilon": 5.0000000000000001e-09
    },
    "testing_plan": {
      "strategy": "grid",
      "count": 16,
      "domain_box": [[-0.80000000000000004, 4.7999999999999998], [-0.60000000000000009, 3.6000000000000001]],
      "seed": 0
    },
    "flow": {
      "grad_tol": 9.9999999999999995e-07,
      "max_steps": 10000,
      "initial_step": 1,
      "armijo_c": 0.25,
      "backtrack_factor": 0.5,
      "min_step": 1.0000000000000001e-18
    },
    "cluster_radius": null,
    "threads": 1
  }
}
""",
    "p_norm": """\
  "config_echo": {
    "dimension": 2,
    "n_anchors": 3,
    "potential": {
      "kind": "p_norm",
      "p": 3,
      "epsilon": 9.9999999999999995e-07
    },
    "testing_plan": {
      "strategy": "grid",
      "count": 4,
      "domain_box": [[-1, 5], [-1, 4]],
      "seed": 1
    },
    "flow": {
      "grad_tol": 9.9999999999999995e-08,
      "max_steps": 2000,
      "initial_step": 1,
      "armijo_c": 0.25,
      "backtrack_factor": 0.5,
      "min_step": 1.0000000000000001e-18
    },
    "cluster_radius": null,
    "threads": 1
  }
}
""",
    "squared": """\
  "config_echo": {
    "dimension": 2,
    "n_anchors": 3,
    "potential": {
      "kind": "squared",
      "epsilon": 5.0000000000000001e-09
    },
    "testing_plan": {
      "strategy": "uniform_random",
      "count": 3,
      "domain_box": [[-0.80000000000000004, 4.7999999999999998], [-0.60000000000000009, 3.6000000000000001]],
      "seed": 5
    },
    "flow": {
      "grad_tol": 9.9999999999999995e-07,
      "max_steps": 10000,
      "initial_step": 1,
      "armijo_c": 0.25,
      "backtrack_factor": 0.5,
      "min_step": 1.0000000000000001e-18
    },
    "cluster_radius": null,
    "threads": 1
  }
}
""",
    "weighted_euclidean": """\
  "config_echo": {
    "dimension": 2,
    "n_anchors": 3,
    "potential": {
      "kind": "weighted_euclidean",
      "epsilon": 5.0000000000000001e-09,
      "weights": [1, 2.5, 0.5]
    },
    "testing_plan": {
      "strategy": "grid",
      "count": 16,
      "domain_box": [[-0.80000000000000004, 4.7999999999999998], [-0.60000000000000009, 3.6000000000000001]],
      "seed": 0
    },
    "flow": {
      "grad_tol": 9.9999999999999995e-07,
      "max_steps": 10000,
      "initial_step": 1,
      "armijo_c": 0.10000000000000001,
      "backtrack_factor": 0.29999999999999999,
      "min_step": 1.0000000000000001e-18
    },
    "cluster_radius": null,
    "threads": 1
  }
}
""",
    "gaussian_well": """\
  "config_echo": {
    "dimension": 2,
    "n_anchors": 3,
    "potential": {
      "kind": "gaussian_well",
      "epsilon": 5.0000000000000001e-09,
      "sigma": 2
    },
    "testing_plan": {
      "strategy": "anchors_jittered",
      "count": 16,
      "domain_box": [[-0.80000000000000004, 4.7999999999999998], [-0.60000000000000009, 3.6000000000000001]],
      "seed": 2
    },
    "flow": {
      "grad_tol": 9.9999999999999995e-07,
      "max_steps": 10000,
      "initial_step": 1,
      "armijo_c": 0.25,
      "backtrack_factor": 0.5,
      "min_step": 1.0000000000000001e-18
    },
    "cluster_radius": null,
    "threads": 1
  }
}
""",
    "overrides": """\
  "config_echo": {
    "dimension": 2,
    "n_anchors": 3,
    "potential": {
      "kind": "euclidean",
      "epsilon": 5.0000000000000001e-09
    },
    "testing_plan": {
      "strategy": "uniform_random",
      "count": 4,
      "domain_box": [[-0.80000000000000004, 4.7999999999999998], [-0.60000000000000009, 3.6000000000000001]],
      "seed": 9
    },
    "flow": {
      "grad_tol": 9.9999999999999995e-07,
      "max_steps": 10000,
      "initial_step": 1,
      "armijo_c": 0.25,
      "backtrack_factor": 0.5,
      "min_step": 1.0000000000000001e-18
    },
    "cluster_radius": 0.01,
    "threads": 2
  }
}
""",
}


@pytest.mark.parametrize("name", list(ECHO_CASES))
def test_solve_config_echo_bytes(tmp_path, name):
    sections, flags = ECHO_CASES[name]
    anchors = RIGHT_TRIANGLE_INSTANCE["anchors"]
    inp = write_instance(tmp_path, {"dimension": 2, "anchors": anchors, **sections})
    out = tmp_path / "result.json"
    assert main(["solve", "--input", str(inp), "--output", str(out), *flags]) == EXIT_OK
    text = out.read_bytes().decode()
    assert text[text.index('  "config_echo": '):] == ECHO_GOLDEN[name]


def test_oracle_centroid(tmp_path):
    inp = write_instance(tmp_path, {
        "dimension": 2,
        "anchors": [[0.0, 0.0], [2.0, 0.0], [1.0, 3.0]],
        "potential": {"kind": "squared"},
    })
    out = tmp_path / "oracle.json"
    code = main(["oracle", "centroid", "--input", str(inp), "--output", str(out)])
    assert code == EXIT_OK
    report = json.loads(out.read_text())
    assert report["location"] == [1.0, 1.0]
    assert report["method"] == "centroid"


def test_oracle_weiszfeld_collinear(tmp_path):
    inp = write_instance(tmp_path, {
        "dimension": 2,
        "anchors": [[0.0, 0.0], [1.0, 0.0], [5.0, 0.0]],
        "potential": {"kind": "euclidean"},
    })
    out = tmp_path / "oracle.json"
    code = main(["oracle", "weiszfeld", "--input", str(inp), "--output", str(out)])
    assert code == EXIT_OK
    report = json.loads(out.read_text())
    assert report["location"] == [1.0, 0.0]
    assert report["converged"] is True


def test_oracle_weiszfeld_uses_instance_weights(tmp_path):
    # Weight 100 makes the first anchor dominant, so the weighted median is
    # that anchor exactly; unweighted it would sit in the interior.
    inp = write_instance(tmp_path, {
        "dimension": 2,
        "anchors": [[0.0, 0.0], [10.0, 0.0], [0.0, 10.0]],
        "potential": {"kind": "weighted_euclidean", "weights": [100.0, 1.0, 1.0]},
    })
    out = tmp_path / "oracle.json"
    code = main(["oracle", "weiszfeld", "--input", str(inp), "--output", str(out)])
    assert code == EXIT_OK
    assert json.loads(out.read_text())["location"] == [0.0, 0.0]


def test_oracle_grid_respects_cell_guard(tmp_path, capsys):
    inp = write_instance(tmp_path, {
        "dimension": 2,
        "anchors": [[0.0, 0.0], [1000.0, 1000.0]],
        "potential": {"kind": "euclidean"},
    })
    code = main(["oracle", "grid", "--input", str(inp),
                 "--output", str(tmp_path / "o.json"), "--spacing", "1e-4"])
    assert code == EXIT_INPUT
    assert "cells" in capsys.readouterr().err


def test_oracle_grid_two_well_fixture(tmp_path):
    inp = write_instance(tmp_path, {
        "dimension": 2,
        "anchors": [[0.0, 0.0], [10.0, 0.0]],
        "potential": {"kind": "gaussian_well", "sigma": 0.5},
        "testing_plan": {"domain_box": [[-2.0, 12.0], [-2.0, 2.0]]},
    })
    out = tmp_path / "oracle.json"
    code = main(["oracle", "grid", "--input", str(inp), "--output", str(out),
                 "--spacing", "0.5"])
    assert code == EXIT_OK
    report = json.loads(out.read_text())
    assert report["value"] == pytest.approx(1.0, abs=1e-12)
    assert report["location"] == [0.0, 0.0]


def test_gradcheck_passes_and_reports(tmp_path):
    inp = write_instance(tmp_path, RIGHT_TRIANGLE_INSTANCE)
    rep = tmp_path / "gradcheck.json"
    code = main(["gradcheck", "--input", str(inp), "--samples", "200",
                 "--report", str(rep)])
    assert code == EXIT_OK
    report = json.loads(rep.read_text())
    assert report["pass"] is True
    assert report["max_rel_error"] <= 1e-5


def test_gradcheck_detects_corrupted_gradient(tmp_path, monkeypatch):
    exact = Objective.gradient_many

    def corrupted(self, points):
        g = exact(self, points)
        return g + 1e-3 * (1.0 + np.linalg.norm(g, axis=1, keepdims=True))

    monkeypatch.setattr(Objective, "gradient_many", corrupted)
    inp = write_instance(tmp_path, RIGHT_TRIANGLE_INSTANCE)
    rep = tmp_path / "gradcheck.json"
    code = main(["gradcheck", "--input", str(inp), "--samples", "50",
                 "--report", str(rep)])
    assert code != EXIT_OK
    assert json.loads(rep.read_text())["pass"] is False


def test_missing_input_file_is_input_error(tmp_path, capsys):
    code = main(["solve", "--input", str(tmp_path / "nope.json"),
                 "--output", str(tmp_path / "o.json")])
    assert code == EXIT_INPUT


@pytest.mark.parametrize("mutate, field", [
    (lambda d: d.pop("dimension"), "dimension"),
    (lambda d: d.pop("anchors"), "anchors"),
    (lambda d: d.pop("potential"), "potential"),
    (lambda d: d.update(dimension=0), "dimension"),
    (lambda d: d.update(anchors=[]), "anchors"),
    (lambda d: d.update(anchors=[[0.0, float("nan")]]), "anchors[0]"),
    (lambda d: d.update(potential={"kind": "p_norm", "p": 0.5}), "potential.p"),
    (lambda d: d.update(extra=1), "instance.extra"),
    (lambda d: d.update(testing_plan={"strategy": "grid", "n": 3}), "testing_plan.n"),
    (lambda d: d.update(flow={"grad_tol": "tight"}), "flow.grad_tol"),
    # Integers beyond the float range are not finite numbers.
    pytest.param(lambda d: d["anchors"][0].__setitem__(0, 10 ** 400), "anchors[0][0]",
                 id="huge-anchor-coordinate"),
    pytest.param(lambda d: d.update(potential={"kind": "gaussian_well", "sigma": 10 ** 400}),
                 "potential.sigma", id="huge-sigma"),
    # Booleans and strings are not numbers, wherever they sit in a list.
    pytest.param(lambda d: d["anchors"][2].__setitem__(1, True), "anchors[2][1]: expected",
                 id="bool-anchor-coordinate"),
    pytest.param(lambda d: d.update(potential={"kind": "weighted_euclidean",
                                               "weights": [1.0, "2", 1.0]}),
                 "potential.weights[1]: expected", id="string-weight"),
    # A parameter the kind does not read would be lost by serialization.
    pytest.param(lambda d: d.update(potential={"kind": "euclidean", "p": 3}), "potential.p",
                 id="p-for-euclidean"),
    pytest.param(lambda d: d.update(potential={"kind": "squared", "sigma": 2}),
                 "potential.sigma", id="sigma-for-squared"),
])
def test_parse_instance_field_errors(mutate, field):
    data = json.loads(json.dumps(RIGHT_TRIANGLE_INSTANCE))
    mutate(data)
    with pytest.raises(SteinerError, match=re.escape(field)):
        parse_instance(data)


def test_instance_round_trip_is_identity(tmp_path):
    data = {
        "dimension": 3,
        "anchors": [[0.0, 1.5, -2.0], [3.25, 0.0, 9.0]],
        "potential": {"kind": "weighted_euclidean", "epsilon": 1e-7,
                      "weights": [1.0, 2.5]},
        "testing_plan": {"strategy": "uniform_random", "count": 7,
                         "domain_box": [[-5.0, 10.0], [-5.0, 10.0], [-5.0, 10.0]],
                         "seed": 42},
        "flow": {"grad_tol": 1e-9, "max_steps": 500, "initial_step": 2.0,
                 "armijo_c": 1e-3, "backtrack_factor": 0.25, "min_step": 1e-15},
    }
    first = parse_instance(data)
    second = parse_instance(serialize_instance(first))
    assert second.dimension == first.dimension
    np.testing.assert_array_equal(second.anchors.points, first.anchors.points)
    assert second.potential == first.potential
    assert second.testing_plan == first.testing_plan
    assert second.flow == first.flow


_positive = hst.floats(min_value=1e-6, max_value=1e6)
_coordinate = hst.floats(min_value=-1e6, max_value=1e6)


@hst.composite
def _instances(draw):
    """Valid instance JSON: every kind, with optional plan, flow and box."""
    dimension = draw(hst.integers(1, 3))
    n = draw(hst.integers(1, 4))
    row = hst.lists(_coordinate, min_size=dimension, max_size=dimension)
    kind = draw(hst.sampled_from(KINDS))
    potential = {"kind": kind, **draw(hst.fixed_dictionaries(
        {}, optional={"epsilon": hst.floats(min_value=0.0, max_value=1.0)}))}
    if kind == "p_norm":
        potential.update(draw(hst.fixed_dictionaries(
            {}, optional={"p": hst.floats(min_value=1.0, max_value=10.0)})))
    if kind == "gaussian_well":
        potential.update(draw(hst.fixed_dictionaries({}, optional={"sigma": _positive})))
    if kind == "weighted_euclidean":
        potential["weights"] = draw(hst.lists(_positive, min_size=n, max_size=n))
    interval = hst.lists(_coordinate, min_size=2, max_size=2, unique=True).map(sorted)
    plan = hst.fixed_dictionaries({}, optional={
        "strategy": hst.sampled_from(STRATEGIES),
        "count": hst.integers(1, 100),
        "domain_box": hst.lists(interval, min_size=dimension, max_size=dimension),
        "seed": hst.integers(0, 2 ** 64 - 1),
    })
    flow = hst.fixed_dictionaries({}, optional={
        "grad_tol": _positive,
        "max_steps": hst.integers(1, 10 ** 6),
        "initial_step": hst.floats(min_value=1e-2, max_value=1e3),
        "armijo_c": hst.floats(min_value=1e-3, max_value=0.999),
        "backtrack_factor": hst.floats(min_value=1e-3, max_value=0.999),
        "min_step": hst.floats(min_value=1e-18, max_value=1e-3),
    })
    return {"dimension": dimension,
            "anchors": draw(hst.lists(row, min_size=n, max_size=n)),
            "potential": potential,
            **draw(hst.fixed_dictionaries({}, optional={"testing_plan": plan, "flow": flow}))}


@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=_instances())
def test_instance_round_trip_property(data):
    first = parse_instance(data)
    second = parse_instance(json.loads(json.dumps(serialize_instance(first))))
    assert second.dimension == first.dimension
    np.testing.assert_array_equal(second.anchors.points, first.anchors.points)
    assert second.potential == first.potential
    assert second.testing_plan == first.testing_plan
    assert second.flow == first.flow


def test_result_floats_survive_json_round_trip(tmp_path):
    # 17 significant digits reproduce every double exactly.
    inp = write_instance(tmp_path, RIGHT_TRIANGLE_INSTANCE)
    out = tmp_path / "result.json"
    main(["solve", "--input", str(inp), "--output", str(out)])
    result = json.loads(out.read_text())
    from steiner import AnchorSet, Objective, PotentialSpec
    obj = Objective(AnchorSet(RIGHT_TRIANGLE_INSTANCE["anchors"]),
                    PotentialSpec("euclidean"))
    loc = np.array(result["steiner"]["location"])
    assert obj.value(loc) == result["steiner"]["value"]


def test_load_instance_validates(tmp_path):
    path = write_instance(tmp_path, {"dimension": 2})
    with pytest.raises(InputError, match="anchors"):
        load_instance(path)
