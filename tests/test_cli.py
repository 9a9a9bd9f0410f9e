"""Command-line interface: instance parsing, commands, exit codes, formats."""

import gc
import hashlib
import itertools
import json
import math
import re
import subprocess
import sys
import warnings
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from steiner import (KINDS, FlowConfig, InputError, Objective, SteinerError, TestingPlan,
                     weiszfeld)
from steiner.cli import (EXIT_INPUT, EXIT_NO_CRITICAL_POINT, EXIT_OK, _expect_array,
                         _expect_number, _fmt_json, load_instance, main, parse_instance,
                         serialize_instance)
from steiner.core import distances
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


@pytest.mark.parametrize("command", ["solve", "oracle centroid"])
def test_domain_box_of_another_width_is_input_error(tmp_path, capsys, command):
    # parse_instance applies the rule, so commands that need no box reject it too.
    plan = dict(RIGHT_TRIANGLE_INSTANCE["testing_plan"], domain_box=[[-1, 5]] * 3)
    inp = write_instance(tmp_path, dict(RIGHT_TRIANGLE_INSTANCE, testing_plan=plan))
    out = tmp_path / "result.json"
    code = main([*command.split(), "--input", str(inp), "--output", str(out)])
    assert code == EXIT_INPUT
    assert "testing_plan.domain_box: expected 2 [lo, hi] pairs" in capsys.readouterr().err
    assert not out.exists()


def test_solve_rejects_malformed_json(tmp_path, capsys):
    inp = tmp_path / "broken.json"
    inp.write_text('{"dimension": 2,,}')
    code = main(["solve", "--input", str(inp), "--output", str(tmp_path / "o.json")])
    assert code == EXIT_INPUT
    assert "JSON" in capsys.readouterr().err


@pytest.mark.parametrize("flag, field", [("--grad-tol", "flow.grad_tol"),
                                         ("--cluster-radius", "cluster_radius")])
def test_solve_rejects_an_infinite_tolerance(tmp_path, capsys, flag, field):
    inp = write_instance(tmp_path, RIGHT_TRIANGLE_INSTANCE)
    out = tmp_path / "result.json"
    code = main(["solve", "--input", str(inp), "--output", str(out), flag, "inf"])
    assert code == EXIT_INPUT
    assert f"{field}: must be finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("grad_tol", [5e-324, 1e-323, 2e-323])
@pytest.mark.parametrize("kind", ["euclidean", "squared"])
def test_a_subnormal_tolerance_is_kept_by_the_polish_pass(tmp_path, capsys, kind, grad_tol):
    # The polish pass traces at a tenth of grad_tol, which rounded to 0 here
    # and was refused as "flow.grad_tol: ..., got 0.0". euclidean reaches a
    # gradient of 0 at the Weiszfeld point; no squared trace gets below
    # these tolerances.
    inp = write_instance(tmp_path, dict(RIGHT_TRIANGLE_INSTANCE, potential={"kind": kind}))
    out = tmp_path / "result.json"
    code = main(["solve", "--input", str(inp), "--output", str(out),
                 "--grad-tol", repr(grad_tol)])
    err = capsys.readouterr().err
    assert "got 0.0" not in err
    if kind == "euclidean":
        assert code == EXIT_OK
        oracle = weiszfeld(np.array(RIGHT_TRIANGLE_INSTANCE["anchors"]), tol=1e-12)
        location = json.loads(out.read_text())["steiner"]["location"]
        np.testing.assert_allclose(location, oracle.location, atol=1e-9)
    else:
        assert code == EXIT_NO_CRITICAL_POINT
        assert "no descent run reached a rest point" in err


def test_a_default_cluster_radius_that_underflows_is_refused(tmp_path, capsys):
    # 1e-4 of this box's diagonal is 0. The error blamed the radius the user
    # never gave; a radius clamped above 0 instead took every start for a
    # converged cluster of its own.
    inp = write_instance(tmp_path, {
        "dimension": 2, "anchors": [[0.0, 0.0], [4e-321, 0.0], [0.0, 3e-321]],
        "potential": {"kind": "squared"}})
    out = tmp_path / "result.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = main(["solve", "--input", str(inp), "--output", str(out)])
    assert code == EXIT_INPUT
    err = capsys.readouterr().err
    assert "cluster_radius: the default, 0.0001 of the domain box diagonal" in err
    assert "underflows to 0" in err and "got 0.0" not in err
    assert not out.exists()


def test_solve_rejects_unknown_potential_kind(tmp_path, capsys):
    bad = dict(RIGHT_TRIANGLE_INSTANCE, potential={"kind": "hyperbolic"})
    inp = write_instance(tmp_path, bad)
    code = main(["solve", "--input", str(inp), "--output", str(tmp_path / "o.json")])
    assert code == EXIT_INPUT
    assert "potential.kind" in capsys.readouterr().err


@pytest.mark.parametrize("sigma", [1e-170, 1e160])
def test_solve_rejects_a_well_width_whose_square_leaves_the_float_range(tmp_path, capsys,
                                                                         sigma):
    # 1e-170 squared is 0 (a division by zero); 1e160 squared is inf, and
    # every start then came to rest where it began.
    bad = dict(RIGHT_TRIANGLE_INSTANCE, potential={"kind": "gaussian_well", "sigma": sigma})
    inp = write_instance(tmp_path, bad)
    out = tmp_path / "o.json"
    code = main(["solve", "--input", str(inp), "--output", str(out)])
    assert code == EXIT_INPUT
    assert "potential.sigma" in capsys.readouterr().err
    assert not out.exists()


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
    # Each start tries t = 1 (the cap) and stops short of 0.5 < min_step.
    assert payload["diagnostics"]["value_changes"] == payload["diagnostics"]["backtracks"] == 4
    assert payload["diagnostics"]["unconverged"] == [
        {"start": k, "status": "stalled", "terminal": list(p)}
        for k, p in enumerate(itertools.product([-4.0, 4.0], repeat=2))]


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


def test_a_failed_trace_write_leaves_no_result_file(tmp_path, capsys):
    inp = write_instance(tmp_path, RIGHT_TRIANGLE_INSTANCE)
    out = tmp_path / "result.json"
    code = main(["solve", "--input", str(inp), "--output", str(out),
                 "--trace", str(tmp_path / "missing" / "tr")])
    assert code == EXIT_INPUT
    assert str(tmp_path / "missing" / "tr.0.csv") in capsys.readouterr().err
    assert not out.exists()


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


# Solves pinned by the sha256 of their result JSON followed by each trace
# CSV's name and bytes in start order. Any change to a sample, a counter or
# a digit of the descent changes the digest. The digests depend on the
# platform's exp and pow, so another numpy build may print other last
# digits for gaussian_well and p_norm.
PINNED_SOLVES = {
    "euclidean_grid": (RIGHT_TRIANGLE_INSTANCE, False,
                       "57788351364cf525728b3f332d53206f3206b826d26e1ee18edffb261a34b67d"),
    "gaussian_well_traced": ({
        "dimension": 2,
        "anchors": [[0.0, 0.0], [4.0, 0.0], [0.0, 3.0]],
        "potential": {"kind": "gaussian_well", "sigma": 1.5},
        "testing_plan": {"strategy": "grid", "count": 9, "seed": 0},
    }, True, "b9248b951dcf53dd11664e587be9c821b81ba32ad3417365c28a789443eeb6d3"),
    "p_norm": ({
        "dimension": 2,
        "anchors": [[0.0, 0.0], [4.0, 0.0], [0.0, 3.0]],
        "potential": {"kind": "p_norm", "p": 3},
        "testing_plan": {"strategy": "uniform_random", "count": 6, "seed": 2},
    }, False, "2974dcc56138473dcc088bd57aa2b56bf81d2894565989f79408a0ef02db15de"),
    # A row's footprint, 14 x 3 000 floats, leaves block_rows 3, and
    # lockstep_rows is 8: the 12 starts are one lockstep block whose kernel
    # calls take 3 rows each.
    "euclidean_over_budget": ({
        "dimension": 8,
        "anchors": np.random.default_rng(26).uniform(0.0, 10.0, size=(3_000, 8)).tolist(),
        "potential": {"kind": "euclidean"},
        "testing_plan": {"strategy": "uniform_random", "count": 12, "seed": 0},
    }, False, "964425738c24205f0aaa26619aee8948a97892c1ef5383fd5730403f65488e24"),
}


@pytest.mark.parametrize("name", list(PINNED_SOLVES))
def test_solve_output_digest_is_pinned(tmp_path, name):
    data, traced, expected = PINNED_SOLVES[name]
    out = tmp_path / "result.json"
    argv = ["solve", "--input", str(write_instance(tmp_path, data)), "--output", str(out)]
    if traced:
        argv += ["--trace", str(tmp_path / "trace")]
    assert main(argv) == EXIT_OK
    digest = hashlib.sha256(out.read_bytes())
    csvs = sorted(tmp_path.glob("trace.*.csv"), key=lambda p: int(p.name.split(".")[1]))
    assert len(csvs) == (9 if traced else 0)
    for path in csvs:
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    assert digest.hexdigest() == expected


# The first line search tries a guaranteed step for these kinds: where their
# descents end is checked against the Weiszfeld iteration, weighted or not,
# and the centroid. The over-budget starts step as one lockstep block whose
# kernel calls take 3 rows each. The integer anchors, 0 and 1 among them,
# must not be taken for the bools that the number-list reader refuses.
_FOUR_ANCHORS = [[0.0, 0.0], [4.0, 0.0], [0.0, 3.0], [5.0, 4.0]]
ORACLE_SOLVES = {
    "euclidean": ({"dimension": 2, "anchors": RIGHT_TRIANGLE_INSTANCE["anchors"],
                   "potential": {"kind": "euclidean"}}, "weiszfeld"),
    "squared": ({"dimension": 2, "anchors": _FOUR_ANCHORS, "potential": {"kind": "squared"}},
                "centroid"),
    "weighted_euclidean": ({"dimension": 2, "anchors": _FOUR_ANCHORS,
                            "potential": {"kind": "weighted_euclidean",
                                          "weights": [1, 2, 1.5, 1]}}, "weiszfeld"),
    "euclidean_over_budget": (PINNED_SOLVES["euclidean_over_budget"][0], "weiszfeld"),
    "integer_10000x8": ({
        "dimension": 8,
        "anchors": np.random.default_rng(0).integers(0, 10, size=(10_000, 8)).tolist(),
        "potential": {"kind": "euclidean"},
        "testing_plan": {"strategy": "uniform_random", "count": 2, "seed": 0},
    }, "weiszfeld"),
}


@pytest.mark.parametrize("name", list(ORACLE_SOLVES))
def test_solve_agrees_with_its_oracle(tmp_path, name):
    instance, method = ORACLE_SOLVES[name]
    inp = write_instance(tmp_path, instance)
    result, oracle = tmp_path / "result.json", tmp_path / "oracle.json"
    assert main(["solve", "--input", str(inp), "--output", str(result)]) == EXIT_OK
    assert main(["oracle", method, "--input", str(inp), "--output", str(oracle)]) == EXIT_OK
    got = json.loads(result.read_text())["steiner"]["location"]
    want = json.loads(oracle.read_text())["location"]
    assert math.dist(got, want) <= 1e-6 * math.hypot(*want)


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


def test_oracle_centroid(tmp_path, capsys):
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
    # The plain sum of these anchors overflows, their mean does not; U ~ 1e616 does.
    inp = write_instance(tmp_path, {
        "dimension": 2,
        "anchors": [[1e308, 0.0], [1.7e308, 0.0], [1.3e308, 1.0]],
        "potential": {"kind": "squared"},
    })
    out.unlink()
    code = main(["oracle", "centroid", "--input", str(inp), "--output", str(out)])
    assert code == EXIT_INPUT
    assert "value: result is inf, which JSON cannot hold" in capsys.readouterr().err
    assert not out.exists()


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
    # that anchor exactly; unweighted it would sit in the interior. The
    # iteration does not depend on the weights' scale: weights of 1e300 reach
    # the median of unit weights.
    for anchors, weights, median in (
            ([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0]], [100.0, 1.0, 1.0], [0.0, 0.0]),
            ([[0.0], [0.1], [5.0]], [1e300] * 3, [0.1])):
        inp = write_instance(tmp_path, {
            "dimension": len(median),
            "anchors": anchors,
            "potential": {"kind": "weighted_euclidean", "weights": weights},
        })
        out = tmp_path / "oracle.json"
        code = main(["oracle", "weiszfeld", "--input", str(inp), "--output", str(out)])
        assert code == EXIT_OK
        assert json.loads(out.read_text())["location"] == median


@pytest.mark.parametrize("command", ["solve", "oracle weiszfeld", "oracle centroid",
                                     "oracle grid", "gradcheck"])
def test_a_weighted_instance_without_weights_is_input_error(tmp_path, capsys, command):
    # The weiszfeld and centroid oracles build no Objective: they took the
    # unweighted median and the centroid of this instance.
    inp = write_instance(tmp_path, {"dimension": 1, "anchors": [[0.0], [1.0], [5.0]],
                                    "potential": {"kind": "weighted_euclidean"}})
    out = tmp_path / "out.json"
    flag = "--report" if command == "gradcheck" else "--output"
    code = main([*command.split(), "--input", str(inp), flag, str(out)])
    assert code == EXIT_INPUT
    assert ("potential.weights: required for the weighted_euclidean kind"
            in capsys.readouterr().err)
    assert not out.exists()


def test_a_result_that_json_cannot_hold_is_input_error(tmp_path, capsys):
    # The anchor (0, 1) is the median, and its distances, 1e308 each, sum past
    # the float range: the value is inf, which a JSON file cannot carry. In
    # the second set the median is 0.1, and its weighted distances sum past
    # the float range.
    for dimension, anchors, potential in (
            (2, [[-1e308, 0.0], [1e308, 0.0], [0.0, 1.0]], {"kind": "euclidean"}),
            (1, [[0.0], [0.1], [5.0]], {"kind": "weighted_euclidean", "weights": [1e308] * 3})):
        inp = write_instance(tmp_path, {"dimension": dimension, "anchors": anchors,
                                        "potential": potential})
        out = tmp_path / "oracle.json"
        code = main(["oracle", "weiszfeld", "--input", str(inp), "--output", str(out)])
        assert code == EXIT_INPUT
        assert "value: result is inf, which JSON cannot hold" in capsys.readouterr().err
        assert not out.exists()
    # Here the plain mean overflows, but the median (1.3e308, 1) has distances
    # of about 3e307 and 4e307, whose sum is finite.
    anchors = [[1e308, 0.0], [1.7e308, 0.0], [1.3e308, 1.0]]
    inp = write_instance(tmp_path, {"dimension": 2, "anchors": anchors,
                                    "potential": {"kind": "euclidean"}})
    out = tmp_path / "oracle.json"
    code = main(["oracle", "weiszfeld", "--input", str(inp), "--output", str(out)])
    assert code == EXIT_OK
    report = json.loads(out.read_text())
    assert report["location"] == [1.3e308, 1.0]
    assert report["value"] == float(distances(report["location"], anchors).sum())


def test_oracle_weiszfeld_tol_must_resolve_the_anchors(tmp_path, capsys):
    # The 3-4-5 triangle times 1e-300: at the default tol of 1e-10 every anchor
    # lay within tol of the start, which snapped to the anchor (0, 0).
    inp = write_instance(tmp_path, {"dimension": 2,
                                    "anchors": [[0.0, 0.0], [4e-300, 0.0], [0.0, 3e-300]],
                                    "potential": {"kind": "euclidean"}})
    out = tmp_path / "oracle.json"
    code = main(["oracle", "weiszfeld", "--input", str(inp), "--output", str(out)])
    assert code == EXIT_INPUT
    assert ("tol: must be below the anchors' bounding-box diagonal 5e-300, got 1e-10"
            in capsys.readouterr().err)
    assert not out.exists()
    code = main(["oracle", "weiszfeld", "--input", str(inp), "--output", str(out),
                 "--tol", "1e-310"])
    assert code == EXIT_OK
    report = json.loads(out.read_text())
    np.testing.assert_allclose(report["location"], [6.958e-301, 7.512e-301], rtol=1e-3)
    assert report["value"] == 6.766432567522309e-300


def test_oracle_weiszfeld_near_an_anchor_below_the_float_scale(tmp_path):
    # The obtuse vertex (1.065e-301, 1.892e-300) is the median. Near it the
    # inverse distances overflowed, and the command exited 1 with "location:
    # result is nan".
    anchors = [[-3.877e-301, -7.795e-302], [-3.887e-300, 6.086e-300], [1.065e-301, 1.892e-300]]
    inp = write_instance(tmp_path, {"dimension": 2, "anchors": anchors,
                                    "potential": {"kind": "euclidean"}})
    out = tmp_path / "oracle.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = main(["oracle", "weiszfeld", "--input", str(inp), "--output", str(out),
                     "--tol", "1e-311"])
    assert code == EXIT_OK
    report = json.loads(out.read_text())
    assert np.abs(np.subtract(report["location"], anchors[2])).max() <= 1e-309
    assert report["value"] == pytest.approx(7.8221664453131097e-300, rel=1e-9)


def test_oracle_grid_respects_cell_guard(tmp_path, capsys):
    # The second lattice has about 1e601 cells: counted in int64 it
    # overflowed into a traceback.
    for anchors, spacing in (([[0.0, 0.0], [1000.0, 1000.0]], "1e-4"),
                             (RIGHT_TRIANGLE_INSTANCE["anchors"], "1e-300")):
        inp = write_instance(tmp_path, {
            "dimension": 2,
            "anchors": anchors,
            "potential": {"kind": "euclidean"},
        })
        code = main(["oracle", "grid", "--input", str(inp),
                     "--output", str(tmp_path / "o.json"), "--spacing", spacing])
        assert code == EXIT_INPUT
        err = capsys.readouterr().err
        assert "cells" in err and "cell guard" in err


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
    # The second instance's gradients are near 1e300: their squared norms
    # overflow, their lengths do not.
    heavy = {"dimension": 2, "anchors": [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]],
             "potential": {"kind": "weighted_euclidean", "weights": [1e300, 1e300, 1e300]}}
    for instance in (RIGHT_TRIANGLE_INSTANCE, heavy):
        inp = write_instance(tmp_path, instance)
        rep = tmp_path / "gradcheck.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
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


# 50 wells of width 0.5 in [0, 10]^2: most of the box is a plateau with U near 50.
NARROW_WELLS_INSTANCE = {
    "dimension": 2,
    "anchors": np.random.default_rng([0, 3]).uniform(0.0, 10.0, (50, 2)).tolist(),
    "potential": {"kind": "gaussian_well", "sigma": 0.5},
}


def test_gradcheck_passes_on_a_plateau_of_narrow_wells(tmp_path):
    # On the plateau the central difference rounds U ~ 50 to an error near
    # ulp(U) / h, larger than the gradient; that rounding is not a gradient error.
    inp = write_instance(tmp_path, NARROW_WELLS_INSTANCE)
    rep = tmp_path / "gradcheck.json"
    assert main(["gradcheck", "--input", str(inp), "--report", str(rep)]) == EXIT_OK
    assert json.loads(rep.read_text())["max_rel_error"] <= 1e-8


@pytest.mark.parametrize("instance", [RIGHT_TRIANGLE_INSTANCE, NARROW_WELLS_INSTANCE],
                         ids=["right-triangle", "narrow-wells"])
def test_gradcheck_detects_a_gradient_scaled_by_1e_4(tmp_path, monkeypatch, instance):
    exact = Objective.gradient_many
    monkeypatch.setattr(Objective, "gradient_many",
                        lambda self, points: exact(self, points) * (1.0 + 1e-4))
    inp = write_instance(tmp_path, instance)
    rep = tmp_path / "gradcheck.json"
    code = main(["gradcheck", "--input", str(inp), "--samples", "50", "--report", str(rep)])
    assert code != EXIT_OK
    report = json.loads(rep.read_text())
    assert report["pass"] is False
    assert report["max_rel_error"] == pytest.approx(1e-4, rel=0.02)


def test_gradcheck_without_room_away_from_the_anchors_is_input_error(tmp_path, capsys):
    # Samples within 10 epsilon of an anchor are skipped; here that is the whole box.
    inp = write_instance(tmp_path, dict(RIGHT_TRIANGLE_INSTANCE,
                                        potential={"kind": "euclidean", "epsilon": 10.0}))
    rep = tmp_path / "gradcheck.json"
    code = main(["gradcheck", "--input", str(inp), "--samples", "5", "--report", str(rep)])
    assert code == EXIT_INPUT
    assert "could not sample enough points away from the anchors" in capsys.readouterr().err
    assert not rep.exists()


@pytest.mark.parametrize("anchors, got", [
    ([[1.7e308], [1.6e308]], "inf"),  # r^2 overflows: U is inf
    ([[0.0, 0.0], [4e-200, 0.0], [0.0, 3e-200], [1e-200, 1e-200]], "0.0"),  # r^2 underflows
])
def test_gradcheck_where_U_cannot_be_checked_is_input_error(tmp_path, capsys, anchors, got):
    # Whatever h is, such a point checks no gradient; the samples themselves
    # are found away from the anchors, without a warning.
    inp = write_instance(tmp_path, {"dimension": len(anchors[0]), "anchors": anchors,
                                    "potential": {"kind": "euclidean"}})
    rep = tmp_path / "gradcheck.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = main(["gradcheck", "--input", str(inp), "--samples", "5", "--report", str(rep)])
    assert code == EXIT_INPUT
    assert (f"points[0]: U must be finite and > 0 at every sampled point to check its "
            f"gradient, got {got}") in capsys.readouterr().err
    assert not rep.exists()


def test_missing_input_file_is_input_error(tmp_path, capsys):
    code = main(["solve", "--input", str(tmp_path / "nope.json"),
                 "--output", str(tmp_path / "o.json")])
    assert code == EXIT_INPUT


@pytest.mark.parametrize("command, flag, value, field", [
    ("gradcheck", "--seed", "-1", "seed"),
    ("gradcheck", "--samples", "0", "samples"),
    ("oracle weiszfeld", "--max-iter", "-5", "max_iter"),
    ("gradcheck", "--h", "1e-300", "h"),  # x + h == x: every difference is 0
    ("gradcheck", "--h", "1e300", "h"),   # U overflows: a difference is nan
])
def test_out_of_range_flag_is_input_error(tmp_path, capsys, command, flag, value, field):
    one_anchor = {"dimension": 1, "anchors": [[0.0]], "potential": {"kind": "euclidean"}}
    for instance in (RIGHT_TRIANGLE_INSTANCE, one_anchor):
        inp = write_instance(tmp_path, instance)
        out = tmp_path / "o.json"
        sink = "--report" if command == "gradcheck" else "--output"
        code = main([*command.split(), "--input", str(inp), sink, str(out), flag, value])
        assert code == EXIT_INPUT
        must = {"1e-300": "must move each coordinate", "1e300": "must keep U finite"}
        assert f"{field}: {must.get(value, 'must be')}" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("input_name, output_name, bad", [
    ("dir", "o.json", "dir"),            # --input names a directory
    ("instance.json", "dir", "dir"),     # --output names a directory
    ("latin1.json", "o.json", "latin1.json"),  # not UTF-8
])
def test_unusable_path_is_input_error(tmp_path, capsys, input_name, output_name, bad):
    write_instance(tmp_path, RIGHT_TRIANGLE_INSTANCE)
    (tmp_path / "dir").mkdir()
    (tmp_path / "latin1.json").write_bytes('{"dimension": "\u00e9"}'.encode("latin-1"))
    code = main(["solve", "--input", str(tmp_path / input_name),
                 "--output", str(tmp_path / output_name)])
    assert code == EXIT_INPUT
    assert str(tmp_path / bad) in capsys.readouterr().err


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
    # Each JSON type check names its field before a later check could.
    pytest.param(lambda d: d.update(flow=5), "flow: expected a JSON object",
                 id="section-not-object"),
    pytest.param(lambda d: d.update(dimension=2.5), "dimension: expected an integer",
                 id="fractional-dimension"),
    pytest.param(lambda d: d.update(potential={"kind": 3}),
                 "potential.kind: expected a string", id="numeric-kind"),
    pytest.param(lambda d: d.update(potential={"kind": "weighted_euclidean", "weights": []}),
                 "potential.weights: expected a non-empty list", id="empty-weights"),
    pytest.param(lambda d: d["testing_plan"].update(domain_box=5),
                 "testing_plan.domain_box: expected a list of [lo, hi] pairs", id="box-not-list"),
    pytest.param(lambda d: d["testing_plan"].update(domain_box=[[-1, 5], [-1, 4, 9]]),
                 "testing_plan.domain_box[1]: expected [lo, hi]", id="box-triple"),
    pytest.param(lambda d: d["testing_plan"].update(domain_box=[[-1, 5]] * 3),
                 "testing_plan.domain_box: expected 2 [lo, hi] pairs", id="box-of-3-axes"),
    pytest.param(lambda d: d.update(potential={}), "potential.kind: missing required field",
                 id="potential-without-kind"),
    pytest.param(lambda d: d["anchors"].__setitem__(1, 4.0),
                 "anchors[1]: expected a coordinate list", id="anchor-row-not-list"),
])
def test_parse_instance_field_errors(mutate, field):
    data = json.loads(json.dumps(RIGHT_TRIANGLE_INSTANCE))
    mutate(data)
    with pytest.raises(SteinerError, match=re.escape(field)):
        parse_instance(data)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(data=hst.data(), n=hst.integers(1, 5), d=hst.integers(1, 4),
       where=hst.sampled_from(["anchors", "testing_plan.domain_box", "potential.weights"]))
def test_parse_instance_names_a_bad_number_list_entry_wherever_it_sits(data, n, d, where):
    # Each number list is checked as one array first; an entry that fails
    # must still be named by its own path.
    entry = hst.one_of(hst.integers(-10 ** 6, 10 ** 6),
                       hst.floats(allow_nan=False, allow_infinity=False))
    rows = data.draw(hst.lists(hst.lists(entry, min_size=d, max_size=d), min_size=n, max_size=n))
    box = data.draw(hst.lists(hst.lists(entry, min_size=2, max_size=2), min_size=d, max_size=d))
    weight = hst.one_of(hst.integers(1, 10 ** 6), hst.floats(min_value=1e-300, max_value=1e300))
    weights = data.draw(hst.lists(weight, min_size=n, max_size=n))
    target = {"anchors": rows, "testing_plan.domain_box": box, "potential.weights": weights}[where]
    path = where
    if where != "potential.weights":  # a list of rows: pick the row first
        i = data.draw(hst.integers(0, len(target) - 1))
        target, path = target[i], f"{path}[{i}]"
    j = data.draw(hst.integers(0, len(target) - 1))
    target[j] = data.draw(hst.sampled_from(
        [True, False, "1.5", None, [1.0], 10 ** 400, -(10 ** 400), float("nan"), float("inf")]))
    text = json.dumps({"dimension": d, "anchors": rows,
                       "potential": {"kind": "weighted_euclidean", "weights": weights},
                       "testing_plan": {"domain_box": box}})
    with pytest.raises(InputError, match=re.escape(f"{path}[{j}]: ")):
        parse_instance(json.loads(text))


def _walked_array(value, field, width):
    """What the number-list coercer must give: a walk that sends every entry
    through ``_expect_number``, with the row messages of the anchors."""
    if not isinstance(value, list) or not value:
        raise InputError(f"{field}: expected a non-empty list")
    if width is None:
        return np.array([_expect_number(x, f"{field}[{i}]") for i, x in enumerate(value)])
    rows = []
    for i, row in enumerate(value):
        if not isinstance(row, list):
            raise InputError(f"{field}[{i}]: expected a coordinate list")
        if len(row) != width:
            raise InputError(f"{field}[{i}]: expected {width} coordinates, got {len(row)}")
        rows.append([_expect_number(x, f"{field}[{i}][{j}]") for j, x in enumerate(row)])
    return np.array(rows, dtype=float)


# Entries as JSON decodes them: plain numbers, mostly, and every kind numpy
# reads into a number array on its own (bools as 0 and 1, integers as int64
# or float64), reads as something else (strings, null, lists, integers past
# 64 bits) or cannot read.
_ODD_ENTRIES = [True, False, None, "1.5", "0", [], [1.0], [[0.0]], {}, 0, 1, -0.0, 0.0, 1.0,
                2 ** 53 + 1, -(2 ** 53 + 1), 2 ** 63 - 1, 2 ** 63, -(2 ** 63), -(2 ** 63) - 1,
                2 ** 64 - 1, 2 ** 64, 2 ** 64 + 1, 10 ** 400, -(10 ** 400),
                float("nan"), float("inf"), float("-inf")]
_ENTRIES = hst.one_of(hst.sampled_from(_ODD_ENTRIES), hst.floats(),
                      hst.integers(-(2 ** 66), 2 ** 66))


@hst.composite
def _number_lists(draw):
    """A number list of every shape the parser takes, flat or rows of 1 to 3
    entries, of plain numbers but for one to three drawn from ``_ENTRIES``
    or, in a list of rows, rows of any length or none."""
    width = draw(hst.sampled_from([None, 1, 2, 3]))
    plain = hst.one_of(hst.floats(-1e300, 1e300), hst.integers(-5, 5))
    n = draw(hst.integers(1, 12))
    item = plain if width is None else hst.lists(plain, min_size=width, max_size=width)
    value = draw(hst.lists(item, min_size=n, max_size=n))
    for _ in range(draw(hst.integers(1, 3))):
        i = draw(hst.integers(0, n - 1))
        row = value[i]
        if width is None:
            value[i] = draw(_ENTRIES)
        elif draw(hst.integers(0, 3)) and isinstance(row, list) and row:
            row[draw(hst.integers(0, len(row) - 1))] = draw(_ENTRIES)
        else:  # a row of another length, or no row at all
            value[i] = draw(hst.one_of(hst.lists(plain, max_size=4), _ENTRIES))
    return value, width


@settings(max_examples=600, deadline=None, derandomize=True)
@given(case=_number_lists())
def test_number_list_coercer_equals_the_entry_walk_property(case):
    value, width = case
    bad_row = lambda row: (f"expected {width} coordinates, got {len(row)}"  # noqa: E731
                           if isinstance(row, list) else "expected a coordinate list")
    try:
        want = _walked_array(value, "anchors", width)
    except InputError as exc:
        with pytest.raises(InputError) as caught:
            _expect_array(value, "anchors", width=width, bad_row=bad_row)
        assert str(caught.value) == str(exc)
        return
    got = _expect_array(value, "anchors", width=width, bad_row=bad_row)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("last", [True, "1.5"])
def test_a_bad_last_entry_of_a_large_anchor_list_is_named(last):
    anchors = np.random.default_rng(5).uniform(0.0, 10.0, size=(10_000, 8)).tolist()
    anchors[-1][-1] = last
    data = json.loads(json.dumps({"dimension": 8, "anchors": anchors,
                                  "potential": {"kind": "euclidean"}}))
    with pytest.raises(InputError) as caught:
        parse_instance(data)
    assert str(caught.value) == "anchors[9999][7]: expected a number"


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
    np.testing.assert_array_equal(second.anchors.points, first.anchors.points)
    assert second.potential == first.potential
    assert second.testing_plan == first.testing_plan
    assert second.flow == first.flow


@pytest.mark.parametrize("sections", [{}, {"testing_plan": None, "flow": None},
                                      {"testing_plan": {"domain_box": None}, "flow": {}}])
def test_absent_sections_parse_to_their_defaults(sections):
    # Parsing leaves the box to the commands that need one.
    anchors = [[1e308, 0.0], [1.7e308, 0.0], [1.3e308, 1.0]]
    inst = parse_instance({"dimension": 2, "anchors": anchors,
                           "potential": {"kind": "euclidean"}, **sections})
    assert inst.testing_plan == TestingPlan()
    assert inst.flow == FlowConfig()
    assert serialize_instance(inst) == {
        "dimension": 2, "anchors": anchors, "potential": {"kind": "euclidean"},
        "testing_plan": {"strategy": "grid", "count": 16, "seed": 0},
        "flow": {f.name: getattr(FlowConfig(), f.name) for f in fields(FlowConfig)}}


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
    np.testing.assert_array_equal(second.anchors.points, first.anchors.points)
    assert second.potential == first.potential
    assert second.testing_plan == first.testing_plan
    assert second.flow == first.flow


def test_an_empty_object_is_written_on_one_line():
    assert _fmt_json({}) == "{}"
    assert _fmt_json({"echo": {}, "n": 1}) == '{\n  "echo": {},\n  "n": 1\n}'
    assert json.loads(_fmt_json({"echo": {}})) == {"echo": {}}


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
    path = write_instance(tmp_path, [RIGHT_TRIANGLE_INSTANCE])
    with pytest.raises(InputError, match="^instance: expected a JSON object$"):
        load_instance(path)
    path.write_bytes(b'{"dimension": 2, "anchors": [[0, 0]], "potential": {"kind": "\xff"}}')
    with pytest.raises(InputError, match="not UTF-8"):
        load_instance(path)
    # Text outside strict JSON reaches the field checks, and every other
    # rejection keeps the json module's message, positions included.
    text = '{"dimension": 2,\n"anchors": [[0, 0], [4, %s]],\n"potential": {"kind": "euclidean"}}'
    malformed = f"{path}: malformed JSON: "
    for content, message in [
        (text % "true", "anchors[1][1]: expected a number"),
        (text % "NaN", "anchors[1][1]: not a finite number"),
        (text % "Infinity", "anchors[1][1]: not a finite number"),
        (text % "-Infinity", "anchors[1][1]: not a finite number"),
        (text % "1e400", "anchors[1][1]: not a finite number"),
        (text % ("9" * 400), "anchors[1][1]: not a finite number"),
        ("\ufeff" + text % "0", malformed + "Unexpected UTF-8 BOM (decode using utf-8-sig): "
         "line 1 column 1 (char 0)"),
        ((text % "0")[:40], malformed + "Expecting value: line 2 column 24 (char 40)"),
        ((text % "0,").replace("\n", "\r\n"),  # as with "\n": char 43, not 44
         malformed + "Expecting value: line 2 column 27 (char 43)"),
    ]:
        path.write_bytes(content.encode())
        with pytest.raises(InputError) as caught:
            load_instance(path)
        assert str(caught.value) == message


@pytest.mark.parametrize("enabled", [True, False])
def test_load_instance_restores_the_collector_state(tmp_path, enabled):
    good = write_instance(tmp_path, RIGHT_TRIANGLE_INSTANCE)
    bad = write_instance(tmp_path, {"dimension": 2}, "bad.json")
    (gc.enable if enabled else gc.disable)()
    try:
        load_instance(good)
        assert gc.isenabled() is enabled
        with pytest.raises(InputError, match="anchors"):
            load_instance(bad)
        assert gc.isenabled() is enabled
    finally:
        gc.enable()


def test_load_instance_sets_off_no_collection_on_a_large_instance(tmp_path):
    # 10 000 x 8 anchors decode into 10 001 lists, which set off 14 passes
    # of the cyclic collector before load_instance paused it, though JSON
    # data holds no cycles for a pass to find.
    rng = np.random.default_rng(0)
    path = write_instance(tmp_path, dict(RIGHT_TRIANGLE_INSTANCE, dimension=8,
                                         anchors=rng.uniform(0, 10, (10_000, 8)).tolist(),
                                         testing_plan=None))
    passes = []

    def count(phase, info):
        if phase == "start":
            passes.append(info["generation"])

    gc.collect()
    gc.callbacks.append(count)
    try:
        inst = load_instance(path)
    finally:
        gc.callbacks.remove(count)
    assert inst.anchors.n == 10_000
    assert passes == []


def test_a_gaussian_well_below_the_float_scale_is_refused_without_warnings(tmp_path, capsys):
    # dr^2 / sigma^2 overflowed in a value change here, and numpy warned
    # before the precise error.
    inp = write_instance(tmp_path, {
        "dimension": 2, "anchors": [[0, 0], [4e-80, 0], [0, 3e-80]],
        "potential": {"kind": "gaussian_well", "sigma": 1e-80}})
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = main(["solve", "--input", str(inp), "--output", str(tmp_path / "o.json")])
    assert code == EXIT_NO_CRITICAL_POINT
    assert "no descent run reached a rest point" in capsys.readouterr().err


def test_a_gradient_whose_square_overflows_is_named_without_warnings(tmp_path, capsys):
    # Weights of 1e300 give gradients near 1e300 at every start: finite, but
    # |grad U|^2 overflowed with a warning, the line search divided inf by
    # inf, and the solve ended with "no descent run reached a rest point".
    output = tmp_path / "o.json"
    inp = write_instance(tmp_path, {
        "dimension": 2, "anchors": [[0, 0], [1, 0], [0, 1]],
        "potential": {"kind": "weighted_euclidean", "weights": [1e300, 1e300, 1e300]}})
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = main(["solve", "--input", str(inp), "--output", str(output)])
    assert code == EXIT_NO_CRITICAL_POINT
    assert ("start 0: |grad U|^2 is past the float range at the starting point"
            in capsys.readouterr().err)
    assert not output.exists()


_DEEP = "[" * 100_000


@pytest.mark.parametrize("content, named", [
    ('{"dimension": 2, "anchors": ' + _DEEP, None),
    ('{"dimension": 2, "anchors": [[0, NaN]], "potential": {"kind": ' + _DEEP + "]" * 100_000
     + "}}", None),
    # orjson reads an integer beyond the 64-bit range as a float.
    ('{"dimension": 2, "anchors": [[0, 0]], "potential": {"kind": "euclidean"}, '
     '"testing_plan": {"seed": 18446744073709551616}}', "testing_plan.seed"),
], ids=["deep", "deep-with-nan", "seed-2**64"])
def test_deep_nesting_and_integers_past_64_bits_are_input_errors(tmp_path, capsys, content, named):
    inp = tmp_path / "instance.json"
    inp.write_text(content)
    code = main(["solve", "--input", str(inp), "--output", str(tmp_path / "o.json")])
    assert code == EXIT_INPUT
    assert (named or str(inp)) in capsys.readouterr().err


def test_solve_near_the_float_maximum_reaches_the_descent(tmp_path, capsys):
    # The default box stops at the float maximum instead of failing its own
    # finiteness check; U itself overflows at every start. In the second
    # instance a weight times a distance, and the sum of the terms, overflow
    # at the outer starts, and numpy warns of neither. In the third U
    # overflows at the second start alone.
    for instance, start in (
            ({"dimension": 2, "anchors": [[1e308, 0.0], [1.7e308, 0.0], [1.3e308, 1.0]],
              "potential": {"kind": "euclidean"}}, 0),
            ({"dimension": 1, "anchors": [[0], [0.1]],
              "potential": {"kind": "weighted_euclidean", "weights": [1e308, 1e308]},
              "testing_plan": {"strategy": "grid", "count": 3, "domain_box": [[-1, 2]]}}, 0),
            ({"dimension": 1, "anchors": [[0]], "potential": {"kind": "squared"},
              "testing_plan": {"strategy": "grid", "count": 2, "domain_box": [[-1, 1e200]]}}, 1)):
        inp = write_instance(tmp_path, instance)
        code = main(["solve", "--input", str(inp), "--output", str(tmp_path / "o.json")])
        assert code == EXIT_NO_CRITICAL_POINT
        assert (f"start {start}: objective is non-finite at the starting point (U=inf)"
                in capsys.readouterr().err)


# Anchors 1.6e308 apart have a finite diagonal, but the default box around
# them, with its 20% margin, has not: it is refused where it is made, under
# every strategy, as a given box past the float range is. Anchors 2e308
# apart leave no finite diagonal to scale a smoothing length from.
_WIDE = {"dimension": 2, "anchors": [[-8e307, 0.0], [8e307, 0.0], [0.0, 1.0]],
         "potential": {"kind": "euclidean"}}
_WIDER = dict(_WIDE, anchors=[[-1e308, 0.0], [1e308, 0.0], [0.0, 1.0]])
_GIVEN = dict(_WIDE, anchors=RIGHT_TRIANGLE_INSTANCE["anchors"],
              testing_plan={"domain_box": [[-1.7e308, 1.7e308], [-1, 2]]})
_BOX = "testing_plan.domain_box: the diagonal of %s is past the float range"
_WIDE_BOX = _BOX % "[[-1.12e+308, 1.12e+308], [-0.2, 1.2]]"
_WIDER_BOX = _BOX % "[[-1.7976931348623157e+308, 1.7976931348623157e+308], [-0.2, 1.2]]"
_GIVEN_BOX = _BOX % "[[-1.7e+308, 1.7e+308], [-1.0, 2.0]]"
_NO_EPSILON = ("anchors: the diagonal of their bounding box is past the float range, "
               "so no smoothing length can be scaled from it")
_UNHELD = "value: result is inf, which JSON cannot hold"
PAST_THE_FLOAT_RANGE = {
    **{f"solve-{strategy}": ("solve", dict(_WIDE, testing_plan={"strategy": strategy}),
                             _WIDE_BOX) for strategy in STRATEGIES},
    "solve-given-box": ("solve", _GIVEN, _GIVEN_BOX),
    "gradcheck": ("gradcheck", _WIDE, _WIDE_BOX),
    "gradcheck-given-box": ("gradcheck", _GIVEN, _GIVEN_BOX),
    "oracle-grid": ("oracle grid", _WIDE, _WIDE_BOX),
    **{f"solve-{kind}-wider": ("solve", dict(_WIDER, potential={"kind": kind}), _NO_EPSILON)
       for kind in ("euclidean", "squared", "p_norm", "gaussian_well")},
    "gradcheck-wider": ("gradcheck", _WIDER, _NO_EPSILON),
    "solve-wider-epsilon-0": ("solve", dict(_WIDER, potential={"kind": "euclidean",
                                                               "epsilon": 0}), _WIDER_BOX),
    "gradcheck-wider-epsilon-0": ("gradcheck", dict(_WIDER, potential={"kind": "euclidean",
                                                                       "epsilon": 0}),
                                  _WIDER_BOX),
    "centroid-wider": ("oracle centroid", _WIDER, _UNHELD),
    "centroid-wider-epsilon-0": ("oracle centroid", dict(_WIDER, potential={
        "kind": "euclidean", "epsilon": 0}), _UNHELD),
}


@pytest.mark.parametrize("name", list(PAST_THE_FLOAT_RANGE))
def test_anchors_or_a_box_past_the_float_range_are_input_errors(tmp_path, capsys, name):
    command, instance, message = PAST_THE_FLOAT_RANGE[name]
    inp = write_instance(tmp_path, instance)
    out = tmp_path / "out.json"
    sink = "--report" if command == "gradcheck" else "--output"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = main([*command.split(), "--input", str(inp), sink, str(out)])
    assert code == EXIT_INPUT
    assert message in capsys.readouterr().err
    assert not out.exists()


def _number_texts():
    """JSON number texts: random doubles written three ways, long decimals
    and integers beyond 2**64."""
    doubles = hst.integers(0, 2 ** 64 - 1).map(
        lambda bits: np.array(bits, dtype=np.uint64).view(np.float64).item()).filter(math.isfinite)
    decimals = hst.builds(
        lambda sign, digits, exponent: f"{sign}{digits[0]}.{digits[1:]}e{exponent}",
        hst.sampled_from(["", "-"]), hst.text("0123456789", min_size=15, max_size=40),
        hst.integers(-320, 300))
    return hst.one_of(
        doubles.map(repr), doubles.map(lambda x: "%.17g" % x), doubles.map(lambda x: "%.40e" % x),
        decimals, hst.integers(2 ** 64, 10 ** 300).map(str),
        hst.integers(-10 ** 300, -2 ** 64).map(str))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(numbers=hst.lists(_number_texts(), min_size=1, max_size=50))
def test_load_instance_reads_the_bits_json_reads(tmp_path_factory, numbers):
    text = '{"dimension": 1, "anchors": [[%s]], "potential": {"kind": "euclidean"}}' % (
        "], [".join(numbers))
    path = tmp_path_factory.mktemp("decode") / "instance.json"
    path.write_text(text)
    expected = np.array(json.loads(text)["anchors"], dtype=float)
    assert load_instance(path).anchors.points.tobytes() == expected.tobytes()


def test_importing_the_cli_leaves_numpy_random_unloaded():
    # numpy loads numpy.random on first use; the CLI's import should not
    # pay for it (about 9 ms) before a solve needs random draws.
    code = "import sys, steiner.cli; print('numpy.random' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
