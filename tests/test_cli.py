"""Command-line front end: reports, exit codes, overrides, determinism."""
import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from banachproj import solver
from banachproj.cli import main
from banachproj.verify import CheckResult, SuiteReport
from test_solver import FALLBACK as FALLBACK_SET, FALLBACK_P, FALLBACK_X

HARD_ROWS = [
    {"normal": [-2.138225589513189, -1.4499480667813884, 0.7959134126817742],
     "offset": -0.2744916906389562},
    {"normal": [-0.590149399040946, 0.5799149234726574, 0.5423442548146441],
     "offset": 0.1288005910347735},
    {"normal": [1.3222788582368146, 0.8118590596762011, 1.0169913501666112],
     "offset": -0.037102139865458905},
    {"normal": [-0.11167133066420938, -0.6982851765628781, -0.731558777725664],
     "offset": 0.3565871002342095},
    {"normal": [-0.4880439402887327, -1.1298291140131056, -0.5474435821203582],
     "offset": 0.1250428045750588},
]
HARD_X = [-2.574242744582038, -2.8951062404988717, 8.042390089502893]

# one config per command, and options of the wrong JSON type:
# (command, section holding the key or None for the root, key, value)
CONFIGS = {
    "project": {"space": {"p": 2, "n": 2}, "set": {"type": "ball", "center": [0, 0], "radius": 1},
                "inputs": {"x": [2, 0]}, "tolerances": {"max_iter": 10, "cert_tol": 1e-8}},
    "verify": {"suite": "hilbert", "count": 5, "seed": 1},
    "moduli": {"space": {"p": 2, "n": 2},
               "moduli": {"curve": "delta", "epsilons": [0.25, 0.5, 0.75, 1.0], "budget": 500,
                          "threads": 1}},
    "rate": {"space": {"p": 2, "n": 2}, "set": {"type": "positive_cone"}, "inputs": {"x": [1, -1]},
             "rate": {"count": 2, "k_min": 8, "k_max": 12}},
}
WRONG_TYPES = [
    ("moduli", "moduli", "budget", None),
    ("moduli", "moduli", "threads", [2]),
    ("moduli", "moduli", "epsilons", {"a": 1}),
    ("verify", None, "seed", None),
    ("verify", None, "count", None),
    ("rate", "rate", "count", [3]),
    ("rate", "rate", "k_min", None),
    ("project", "tolerances", "max_iter", [1]),
    ("project", "tolerances", "cert_tol", None),
    ("verify", None, "suite", ["hilbert"]),
    ("verify", None, "suite", {"name": "hilbert"}),
    ("verify", None, "output_path", 3),
    ("project", "space", "p", [3]),
    ("project", "space", "n", {"n": 2}),
    ("project", "inputs", "x", {"a": 1}),
    ("project", None, "tolerances", [1]),
    ("moduli", "moduli", "curve", ["delta"]),
    ("rate", "rate", "directions", "north"),
    # values a lax int, float or bool cast would take
    ("rate", "rate", "count", 2.9),
    ("rate", "rate", "k_min", "8"),
    ("rate", "rate", "directions", [[1, True]]),
    ("moduli", "moduli", "budget", "300"),
    ("moduli", "moduli", "threads", True),
    ("moduli", "moduli", "fit", "no"),
    ("moduli", "moduli", "epsilons", ["0.5", "1.0"]),
    ("project", "tolerances", "max_iter", 2.5),
    ("project", "tolerances", "cert_tol", "1e-8"),
    ("project", "space", "n", 2.7),
    ("project", "space", "p", "3"),
    ("project", "inputs", "x", ["2", "0"]),
    ("verify", None, "seed", True),
]


def run_cli(tmp_path, command, cfg, *extra):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([command, "--config", str(path), *extra])
    return code, out.getvalue(), err.getvalue()


class TestProject:
    def test_ball_point(self, tmp_path):
        code, out, _ = run_cli(tmp_path, "project", {
            "space": {"p": 3, "n": 3},
            "set": {"type": "ball", "center": [0, 0, 0], "radius": 1},
            "inputs": [[2, 2, 2]],
        })
        assert code == 0
        report = json.loads(out)
        np.testing.assert_allclose(report["point"], [0.6934] * 3, atol=1e-4)
        assert report["converged"] is True
        assert report["command"] == "project"

    def test_batch_inputs(self, tmp_path):
        code, out, _ = run_cli(tmp_path, "project", {
            "space": {"p": 2, "n": 2},
            "set": {"type": "positive_cone"},
            "inputs": [[1, -1], [-2, 3]],
        })
        assert code == 0
        results = json.loads(out)["results"]
        assert [r["point"] for r in results] == [[1, 0], [0, 3]]

    def test_tolerances_forwarded_and_exit_4(self, tmp_path):
        code, out, _ = run_cli(tmp_path, "project", {
            "space": {"p": 3, "n": 3},
            "set": {"type": "polytope_h", "rows": HARD_ROWS},
            "inputs": {"x": HARD_X},
            "tolerances": {"max_iter": 1},
        })
        # budget too small to certify, so the run must not claim success
        assert code == 4
        report = json.loads(out)
        assert report["converged"] is False

    @pytest.mark.parametrize("tolerances", [{"max_iter": 0}, {"max_iter": -3}, {"cert_tol": -1}],
                             ids=["max_iter-0", "max_iter-negative", "cert_tol-negative"])
    def test_unusable_tolerances_exit_2(self, tmp_path, tolerances):
        code, out, err = run_cli(tmp_path, "project", {
            "space": {"p": 3, "n": 3},
            "set": {"type": "positive_cone"},
            "inputs": {"x": [1, -2, 3]},
            "tolerances": tolerances,
        })
        assert code == 2
        assert "invalid input" in err
        assert out == ""

    def test_output_file(self, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = run_cli(tmp_path, "project", {
            "space": {"p": 2, "n": 2},
            "set": {"type": "singleton", "y": [1, 2]},
            "inputs": {"x": [0, 0]},
        }, "--out", str(target))
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text())["point"] == [1, 2]


class TestDerivative:
    def test_cone_clause(self, tmp_path):
        code, out, _ = run_cli(tmp_path, "derivative", {
            "space": {"p": 3, "n": 3},
            "set": {"type": "positive_cone"},
            "inputs": {"x": [2, 3, 0], "v": [1, -1, -5]},
        })
        assert code == 0
        report = json.loads(out)
        assert report["analytic"]["value"] == [1, -1, 0]
        assert report["analytic"]["case_label"].startswith("cone:")
        # the numeric cross-check rides along in the same report
        assert report["agreement"] is not None
        assert report["agreement"] <= 1e-6

    def test_numeric_sets_difference_once(self, tmp_path, monkeypatch):
        import banachproj.cli as cli_mod
        import banachproj.derivative as deriv_mod

        calls = []

        def counting(fn):
            def wrapped(*args, **kwargs):
                calls.append(fn.__module__)
                return fn(*args, **kwargs)
            return wrapped

        monkeypatch.setattr(cli_mod, "numdiff_derivative", counting(cli_mod.numdiff_derivative))
        monkeypatch.setattr(deriv_mod, "numdiff_derivative", counting(deriv_mod.numdiff_derivative))
        code, out, _ = run_cli(tmp_path, "derivative", {
            "space": {"p": 3, "n": 2},
            "set": {"type": "segment", "u": [0, 0], "w": [1, 0]},
            "inputs": {"x": [0.5, 1], "v": [1, 0]},
        })
        assert code == 0
        assert len(calls) == 1
        report = json.loads(out)
        # the analytic value is the numeric estimate itself here
        assert report["analytic"]["case_label"] == "numeric"
        assert report["agreement"] == 0.0

    def test_ball_report_shape(self, tmp_path):
        code, out, _ = run_cli(tmp_path, "derivative", {
            "space": {"p": 2, "n": 2},
            "set": {"type": "ball", "center": [0, 0], "radius": 1},
            "inputs": {"x": [2, 0], "v": [0, 1]},
        })
        assert code == 0
        report = json.loads(out)
        assert set(report) == {"command", "space", "set", "x", "v",
                               "analytic", "numeric", "agreement"}


class TestClassify:
    def test_cuticle_point(self, tmp_path):
        code, out, _ = run_cli(tmp_path, "classify", {
            "space": {"p": 2, "n": 2},
            "set": {"type": "ball", "center": [0, 0], "radius": 1},
            "inputs": {"x": [1, 0]},
        })
        assert code == 0
        report = json.loads(out)
        assert report["tag"] == "cuticle"
        assert report["witness"] == [1, 0]

    def test_internal_point(self, tmp_path):
        code, out, _ = run_cli(tmp_path, "classify", {
            "space": {"p": 2, "n": 2},
            "set": {"type": "ball", "center": [0, 0], "radius": 1},
            "inputs": {"x": [0.5, 0]},
        })
        assert code == 0
        report = json.loads(out)
        assert report["tag"] == "internal"
        assert report["witness"] is None

    def test_nonmember_is_a_config_error(self, tmp_path):
        code, _, err = run_cli(tmp_path, "classify", {
            "space": {"p": 2, "n": 2},
            "set": {"type": "ball", "center": [0, 0], "radius": 1},
            "inputs": {"x": [3, 0]},
        })
        assert code == 2
        assert "belong" in err


class TestVerify:
    def test_hilbert_suite_passes(self, tmp_path):
        code, out, _ = run_cli(tmp_path, "verify",
                               {"suite": "hilbert", "space": {"p": 2, "n": 4}})
        assert code == 0
        assert out.splitlines()[0] == "suite hilbert: 4/4 checks passed"

    def test_report_file(self, tmp_path):
        target = tmp_path / "suite.json"
        code, _, _ = run_cli(tmp_path, "verify",
                             {"suite": "cone", "count": 30}, "--out", str(target))
        assert code == 0
        report = json.loads(target.read_text())
        assert report["suite"] == "cone" and report["passed"] is True

    def test_unknown_suite(self, tmp_path):
        code, _, err = run_cli(tmp_path, "verify", {"suite": "nonsense"})
        assert code == 2
        assert "unknown suite" in err

    def test_failing_suite_exits_1(self, tmp_path, monkeypatch):
        import banachproj.cli as cli_mod
        broken = SuiteReport("cone", [CheckResult("planted failure", False)])
        monkeypatch.setattr(cli_mod, "run_suite", lambda name, **kw: broken)
        code, out, _ = run_cli(tmp_path, "verify", {"suite": "cone"})
        assert code == 1
        assert "FAIL" in out


class TestModuli:
    def test_dual_emission(self, tmp_path):
        target = tmp_path / "curves.csv"
        code, _, _ = run_cli(tmp_path, "moduli", {
            "space": {"p": 2, "n": 2},
            "moduli": {"curve": "both", "epsilons": [0.5, 1.0], "ts": [0.5, 1.0],
                       "budget": 800},
        }, "--out", str(target))
        assert code == 0
        assert (tmp_path / "curves.csv").exists()
        assert (tmp_path / "curves.json").exists()
        lines = target.read_text().splitlines()
        assert lines[0] == "curve,argument,value"
        assert len(lines) == 5
        report = json.loads((tmp_path / "curves.json").read_text())
        assert report["command"] == "moduli"
        assert len(report["delta_values"]) == 2

    def test_fit_included_on_request(self, tmp_path):
        code, out, _ = run_cli(tmp_path, "moduli", {
            "space": {"p": 2, "n": 2},
            "moduli": {"curve": "delta",
                       "epsilons": list(np.geomspace(0.05, 0.8, 6)),
                       "budget": 1500, "fit": True},
        })
        assert code == 0
        fit = json.loads(out)["fit"]
        assert 1.9 <= fit["p_fit"] <= 2.1
        # the rho side was never estimated; strict JSON has no NaN literal
        assert fit["q_fit"] is None

    def test_missing_grid(self, tmp_path):
        code, _, err = run_cli(tmp_path, "moduli", {
            "space": {"p": 2, "n": 2},
            "moduli": {"curve": "delta"},
        })
        assert code == 2
        assert "epsilons" in err

    def test_bad_grid_is_config_error(self, tmp_path):
        code, _, err = run_cli(tmp_path, "moduli", {
            "space": {"p": 2, "n": 2},
            "moduli": {"curve": "delta", "epsilons": [1.0, 0.5], "budget": 500},
        })
        assert code == 2
        assert "increasing" in err

    def test_dimension_past_the_supported_limit_is_config_error(self, tmp_path):
        # refused before any pair is drawn
        code, out, err = run_cli(tmp_path, "moduli", {
            "space": {"p": 3, "n": 10601},
            "moduli": {"curve": "delta", "epsilons": [0.5], "budget": 10, "threads": 1},
        })
        assert (code, out) == (2, "")
        assert "dimension <= 10600" in err


class TestRate:
    def test_json_report(self, tmp_path):
        code, out, _ = run_cli(tmp_path, "rate", {
            "space": {"p": 3, "n": 2},
            "set": {"type": "ball", "center": [0, 0], "radius": 1},
            "inputs": {"x": [2, 0.5]},
            "rate": {"count": 3, "k_min": 8, "k_max": 14},
        })
        assert code == 0
        report = json.loads(out)
        assert {"fitted_order", "uniform_sup", "uniform_sup_curve",
                "pairs"} <= set(report)

    def test_csv_emission(self, tmp_path):
        target = tmp_path / "rate.csv"
        code, _, _ = run_cli(tmp_path, "rate", {
            "space": {"p": 2, "n": 2},
            "set": {"type": "positive_cone"},
            "inputs": {"x": [1, -1]},
            "rate": {"count": 2, "k_min": 8, "k_max": 12},
        }, "--out", str(target))
        assert code == 0
        assert target.read_text().splitlines()[0] == "direction_id,t,s,deviation"

    def test_explicit_directions(self, tmp_path):
        code, out, _ = run_cli(tmp_path, "rate", {
            "space": {"p": 2, "n": 2},
            "set": {"type": "positive_cone"},
            "inputs": {"x": [1, -1]},
            "rate": {"directions": [[1, 0], [0, 1]], "k_min": 8, "k_max": 12},
        })
        assert code == 0
        assert json.loads(out)["pair_count"] > 0

    def test_bad_schedule(self, tmp_path):
        code, _, err = run_cli(tmp_path, "rate", {
            "space": {"p": 2, "n": 2},
            "set": {"type": "positive_cone"},
            "inputs": {"x": [1, -1]},
            "rate": {"count": 2, "k_min": 12, "k_max": 12},
        })
        assert code == 2
        assert "k_max" in err


class TestDeterminism:
    CONFIG = {
        "space": {"p": 3, "n": 3},
        "set": {"type": "ball", "center": [0, 0, 0], "radius": 1},
        "inputs": [[2, 2, 2]],
    }

    def test_byte_identical_reports(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run_cli(tmp_path, "project", self.CONFIG, "--out", str(a))
        run_cli(tmp_path, "project", self.CONFIG, "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_seed_override_changes_random_directions(self, tmp_path):
        cfg = {
            "space": {"p": 2, "n": 2},
            "set": {"type": "positive_cone"},
            "inputs": {"x": [1, -1]},
            "rate": {"count": 2, "k_min": 8, "k_max": 12},
        }
        _, out1, _ = run_cli(tmp_path, "rate", cfg, "--seed", "1")
        _, out2, _ = run_cli(tmp_path, "rate", cfg, "--seed", "2")
        assert out1 != out2

    def test_config_seed_matches_flag(self, tmp_path):
        cfg = {
            "space": {"p": 2, "n": 2},
            "set": {"type": "positive_cone"},
            "inputs": {"x": [1, -1]},
            "rate": {"count": 2, "k_min": 8, "k_max": 12},
        }
        _, flagged, _ = run_cli(tmp_path, "rate", cfg, "--seed", "5")
        cfg["seed"] = 5
        _, inline, _ = run_cli(tmp_path, "rate", cfg)
        assert flagged == inline


class TestErrors:
    def test_missing_config_file(self, tmp_path):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["project", "--config", str(tmp_path / "absent.json")])
        assert code == 2
        assert "cannot read" in err.getvalue()

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["project", "--config", str(path)])
        assert code == 2

    def test_root_must_be_object(self, tmp_path):
        code, _, err = run_cli(tmp_path, "project", [1, 2, 3])
        assert code == 2
        assert "object" in err

    def test_dimension_mismatch(self, tmp_path):
        code, _, err = run_cli(tmp_path, "project", {
            "space": {"p": 2, "n": 3},
            "set": {"type": "ball", "center": [0, 0], "radius": 1},
            "inputs": {"x": [0, 0, 0]},
        })
        assert code == 2
        assert "dimension" in err

    def test_unknown_set_type(self, tmp_path):
        code, _, err = run_cli(tmp_path, "project", {
            "space": {"p": 2, "n": 2},
            "set": {"type": "mystery"},
            "inputs": {"x": [0, 0]},
        })
        assert code == 2
        assert "mystery" in err

    @pytest.mark.parametrize("descriptor", [
        {"type": "ball", "center": ["0", "0"], "radius": "1"},
        {"type": "ball", "center": [0, 0], "radius": "1"},
        {"type": "ball", "center": [0, 0], "radius": True},
        {"type": "ball", "center": [0, False], "radius": 1},
        {"type": "coordinate_subspace", "free": ["no", ""]},
        {"type": "coordinate_subspace", "free": [1, 0]},
        {"type": "segment", "u": [0, 0], "w": [None, 1]},
        {"type": "polytope_h", "rows": [{"normal": [1, 0], "offset": "1"}]},
        {"type": "polytope_v", "vertices": [[0, 0], [1, "0"]]},
    ], ids=["ball-strings", "ball-string-radius", "ball-boolean-radius", "ball-boolean-center",
            "subspace-string-mask", "subspace-number-mask", "segment-null", "polytope-h-string",
            "polytope-v-string"])
    def test_wrong_typed_set_entries_exit_2(self, tmp_path, descriptor):
        # each once projected with exit 0: float() and np.asarray took them
        code, out, err = run_cli(tmp_path, "project", {
            "space": {"p": 2, "n": 2}, "set": descriptor, "inputs": {"x": [2, 0]},
        })
        assert code == 2
        assert "bad set descriptor" in err
        assert "must hold JSON" in err
        assert out == ""

    def test_infeasible_set_exit_3(self, tmp_path):
        code, _, err = run_cli(tmp_path, "project", {
            "space": {"p": 2, "n": 2},
            "set": {"type": "polytope_h", "rows": [
                {"normal": [1, 0], "offset": -1},
                {"normal": [-1, 0], "offset": -1},
            ]},
            "inputs": {"x": [0, 0]},
        })
        assert code == 3
        assert "infeasible" in err

    def test_bad_input_value_exit_2(self, tmp_path):
        code, _, err = run_cli(tmp_path, "derivative", {
            "space": {"p": 2, "n": 2},
            "set": {"type": "ball", "center": [0, 0], "radius": 1},
            "inputs": {"x": [2, 0], "v": [0, 0]},
        })
        assert code == 2
        assert "invalid input" in err

    @pytest.mark.parametrize("command", ["project", "derivative"])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf")], ids=["nan", "inf"])
    def test_non_finite_singleton_input_exit_2(self, tmp_path, command, bad):
        # a singleton's projection is constant, yet it refuses a non-finite
        # point like every other set type
        inputs = {"x": [bad, 0], "v": [1, 0]} if command == "derivative" else {"x": [bad, 0]}
        code, out, err = run_cli(tmp_path, command, {
            "space": {"p": 2, "n": 2},
            "set": {"type": "singleton", "y": [1, 2]},
            "inputs": inputs,
        })
        assert code == 2
        assert "coordinates must be finite" in err
        assert out == ""

    def test_uncertified_quotient_projection_exit_4(self, tmp_path, monkeypatch):
        # a derivative's quotients rest on certified projections only, and
        # the ConvergenceError it raises otherwise is exit 4
        certified = solver.project_with_certificate

        def uncertified(space, C, x, *args):
            cert = certified(space, C, x, *args)
            cert.converged = False
            return cert

        monkeypatch.setattr(solver, "project_with_certificate", uncertified)
        code, out, err = run_cli(tmp_path, "derivative", {
            "space": {"p": 3, "n": 2},
            "set": {"type": "segment", "u": [0, 0], "w": [1, 0]},
            "inputs": {"x": [0.5, 1], "v": [1, 0]},
        })
        assert code == 4
        assert "non-convergence" in err and "uncertified" in err
        assert out == ""

    def test_numeric_failure_exit_4(self, tmp_path):
        # the ray parameter would have to exceed 1e18 to reach x
        code, _, err = run_cli(tmp_path, "project", {
            "space": {"p": 2, "n": 2},
            "set": {"type": "ray", "v": [0, 0], "dir": [1e-20, 0]},
            "inputs": {"x": [1e3, 0]},
        })
        assert code == 4
        assert "overflow" in err

    def test_nan_line_search_slope_exit_4(self, tmp_path):
        # |r_i|^19 overflows on both sides of the slope's sum: a numeric
        # failure, not invalid input and not a wrong point
        code, out, err = run_cli(tmp_path, "project", {
            "space": {"p": 20, "n": 2},
            "set": {"type": "segment", "u": [0, 0], "w": [1e20, 1e20]},
            "inputs": {"x": [1e20, 0]},
        })
        assert (code, out) == (4, "")
        assert err.startswith("numeric failure") and "NaN" in err

    def test_overflow_leaves_one_line_on_stderr(self, tmp_path):
        # a fresh interpreter, where NumPy's overflow warnings would reach
        # stderr with their source lines ahead of the refusal
        path = tmp_path / "config.json"
        path.write_text(json.dumps({
            "space": {"p": 20, "n": 2},
            "set": {"type": "segment", "u": [0, 0], "w": [1e20, 1e20]},
            "inputs": {"x": [1e20, 0]},
        }))
        proc = subprocess.run([sys.executable, "-m", "banachproj.cli", "project",
                               "--config", str(path)],
                              capture_output=True, text=True, timeout=60, env=child_env())
        assert (proc.returncode, proc.stdout) == (4, "")
        assert proc.stderr.count("\n") == 1
        assert proc.stderr.startswith("numeric failure: ")

    def test_unknown_command_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["nonsense", "--config", "whatever.json"])

    @pytest.mark.parametrize("command, section, key, value", WRONG_TYPES,
                             ids=[f"{c}-{k}-{type(v).__name__}" for c, _, k, v in WRONG_TYPES])
    def test_wrong_typed_option_is_a_config_error(self, tmp_path, command, section, key, value):
        # each was once a TypeError traceback with exit code 1
        cfg = json.loads(json.dumps(CONFIGS[command]))
        (cfg[section] if section else cfg)[key] = value
        code, out, err = run_cli(tmp_path, command, cfg)
        assert code == 2
        assert f"config error: option {key!r}" in err
        assert "Traceback" not in err
        assert out == ""

    @pytest.mark.parametrize("command, section, key", [
        ("moduli", "moduli", "budgte"),       # misspelt: once ran the default 100,000 pairs
        ("moduli", "moduli", "rounds"),       # an option the moduli command no longer has
        ("project", None, "tolerance"),
        ("project", "inputs", "v"),           # read by derivative, not by project
        ("verify", None, "set"),
    ])
    def test_unknown_key_is_a_config_error(self, tmp_path, command, section, key):
        cfg = json.loads(json.dumps(CONFIGS[command]))
        (cfg[section] if section else cfg)[key] = 10
        code, out, err = run_cli(tmp_path, command, cfg)
        assert (code, out) == (2, "")
        assert err.startswith(f"config error: unknown config key {key!r}")


class TestReporting:
    def test_nonfinite_floats_become_null(self):
        from banachproj.reporting import dumps_stable
        text = dumps_stable({"a": float("nan"), "b": float("inf"), "c": 1.5})
        parsed = json.loads(text)
        assert parsed == {"a": None, "b": None, "c": 1.5}

    def test_numpy_values_write_as_the_python_values_they_hold(self):
        # np.int64 and np.bool_ are no int or bool: a list of them must
        # still print on one line
        from banachproj.reporting import dumps_stable
        numpy = {"a": np.arange(3), "b": [np.int64(1), np.bool_(True), np.float64(0.5)],
                 "c": np.array([[1.0, 2.0], [3.0, 4.0]]), "d": (np.float32(0.25), None)}
        plain = {"a": [0, 1, 2], "b": [1, True, 0.5], "c": [[1.0, 2.0], [3.0, 4.0]],
                 "d": [0.25, None]}
        assert dumps_stable(numpy) == dumps_stable(plain)
        assert '"b": [1, true, 0.5]' in dumps_stable(numpy)

    def test_float_round_trip(self):
        from banachproj.reporting import format_float
        x = 0.1 + 0.2
        assert float(format_float(x)) == x

    def test_csv_quoting(self, tmp_path):
        from banachproj.reporting import write_csv
        target = tmp_path / "t.csv"
        write_csv(target, [("a", "b"), ("with,comma", 1.5)])
        assert target.read_text().splitlines()[1] == '"with,comma",1.5'


def child_env() -> dict:
    """Environment for a fresh interpreter that imports the same package
    as this process, installed or not."""
    import banachproj
    src = str(Path(banachproj.__file__).resolve().parent.parent)
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))


class TestConsoleScript:
    def test_installed_entry_point(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "space": {"p": 2, "n": 2},
            "set": {"type": "singleton", "y": [1, 2]},
            "inputs": {"x": [0, 0]},
        }))
        proc = subprocess.run([sys.executable, "-m", "banachproj.cli", "project",
                               "--config", str(path)],
                              capture_output=True, text=True, timeout=60, env=child_env())
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["point"] == [1, 2]


SEGMENT = ([0.5, -1.0, 2.0], [1.5, 0.25, -0.5], [1.2, -0.3, 1.1])   # u, w, x: interior foot
# the H projection that only the support LP and simplicial decomposition certify: p, normals,
# offsets, x
FALLBACK = (FALLBACK_P, FALLBACK_SET.normals.tolist(), FALLBACK_SET.offsets.tolist(), FALLBACK_X.tolist())
MODULI_ARGS = (3.0, 2, [0.2, 0.5, 1.0])
MODULI_KW = {"budget": 500, "seed": 7, "threads": 2}

LAZY_PROBE = """
import contextlib, io, json, sys
import banachproj, banachproj.cli
codes = []
for command, path in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(banachproj.cli.main([command, "--config", path]))
loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
print(json.dumps({"codes": codes, "loaded": loaded}))
"""

POLYTOPE_PROBE = """
import json, sys
from banachproj import LpSpace, PolytopeH, project
p, normals, offsets, x = json.loads(sys.argv[1])
before = "scipy.optimize" in sys.modules
point = project(LpSpace(p), PolytopeH(normals=normals, offsets=offsets), x)
print(json.dumps({"before": before, "after": "scipy.optimize" in sys.modules,
                  "point": [repr(c) for c in point]}))
"""

MODULI_PROBE = """
import json, sys
from banachproj import estimate_convexity_modulus
args, kw = json.loads(sys.argv[1])
est = estimate_convexity_modulus(*args, **kw)
print(json.dumps([repr(d) for d in est.delta_values]))
"""


REFUSAL_PROBE = """
import json, sys
from banachproj import LpSpace, PolytopeV, classify_point
try:
    classify_point(LpSpace(3.0), PolytopeV(vertices=[[1, 0, 0], [0, 1, 0], [0, 0, 1]]), [0.5, 0.5, 0.0])
    message = None
except ValueError as exc:
    message = str(exc)
print(json.dumps({"message": message, "optimize": "scipy.optimize" in sys.modules}))
"""


class TestStartup:
    """Closed forms, both polytope types and moduli load no SciPy module;
    an H projection that its Newton weights leave uncertified loads
    scipy.optimize for the support LP."""

    def run_fresh(self, code, *args):
        proc = subprocess.run([sys.executable, "-c", code, *args], capture_output=True,
                              text=True, timeout=120, env=child_env())
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout)

    def test_closed_form_commands_load_no_scipy(self, tmp_path):
        # balls, segments, rays and V-polytopes: project, derivative,
        # classify and rate need only NumPy, and so does every verify suite
        # but properties4
        u, w, x = SEGMENT
        sets = {"ball": {"type": "ball", "center": [0, 0, 0], "radius": 1},
                "segment": {"type": "segment", "u": u, "w": w},
                "ray": {"type": "ray", "v": u, "dir": w},
                "polytope_v": {"type": "polytope_v",
                               "vertices": [[1, 0, 0], [0, 1, 0], [0, 0, 1], [-1, -1, -1]]}}
        runs = [("project", "ball", {"inputs": [[2, 2, 2], [0.1, 0.2, 0.3]]}),
                ("derivative", "ball", {"inputs": {"x": [2, 2, 2], "v": [1, 0, 0]}}),
                ("classify", "ball", {"inputs": {"x": [1, 0, 0]}})]
        for kind in ("segment", "ray", "polytope_v"):
            runs.append(("project", kind, {"inputs": {"x": x}}))
            runs.append(("derivative", kind, {"inputs": {"x": x, "v": [1, 0, 0]}}))
            runs.append(("rate", kind, {"inputs": {"x": x}, "rate": {"count": 2}}))
        configs = [(command, {"space": {"p": 3, "n": 3}, "set": sets[kind], **extra})
                   for command, kind, extra in runs]
        configs += [("verify", {"suite": suite, "count": 2})
                    for suite in ("duality", "ball", "cone", "subspace", "hilbert")]
        commands = []
        for i, (command, config) in enumerate(configs):
            path = tmp_path / f"{i}_{command}.json"
            path.write_text(json.dumps(config))
            commands.append((command, str(path)))
        out = self.run_fresh(LAZY_PROBE, json.dumps(commands))
        assert out == {"codes": [0] * len(configs), "loaded": []}

    def test_moduli_command_loads_no_scipy(self, tmp_path):
        # the closed forms and the check's Gaussian rows need only NumPy
        path = tmp_path / "moduli.json"
        path.write_text(json.dumps({
            "space": {"p": 3, "n": 2}, "seed": 5,
            "moduli": {"curve": "both", "epsilons": [0.1, 0.2, 0.4, 0.8, 1.6],
                       "ts": [0.05, 0.1, 0.2, 0.4, 0.8], "budget": 200, "threads": 2},
        }))
        out = self.run_fresh(LAZY_PROBE, json.dumps([("moduli", str(path))]))
        assert out == {"codes": [0], "loaded": []}

    def test_axis_box_commands_and_properties4_load_no_scipy(self, tmp_path):
        # the box's feasible point comes from NNLS and its projections are
        # certified from Newton's weights, so no LP runs
        box = {"type": "polytope_h", "rows": [
            {"normal": row, "offset": 1.0} for row in np.vstack([np.eye(3), -np.eye(3)]).tolist()]}
        x = [2.0, -0.4, 1.7]
        configs = [(command, {"space": {"p": 3, "n": 3}, "set": box, **extra}) for command, extra in (
            ("project", {"inputs": [x, [0.1, 0.2, 0.3], [-3.0, 2.0, 0.5]]}),
            ("derivative", {"inputs": {"x": x, "v": [1, 0, 0]}}),
            ("rate", {"inputs": {"x": x}, "rate": {"count": 2}}))]
        configs.append(("verify", {"suite": "properties4", "count": 3}))
        commands = []
        for i, (command, config) in enumerate(configs):
            path = tmp_path / f"{i}_{command}.json"
            path.write_text(json.dumps(config))
            commands.append((command, str(path)))
        out = self.run_fresh(LAZY_PROBE, json.dumps(commands))
        assert out == {"codes": [0] * len(configs), "loaded": []}

    def test_support_lp_fallback_loads_optimize_and_matches_a_warm_one(self):
        import scipy.optimize  # noqa: F401  (the reference answer runs with it loaded)
        from banachproj import LpSpace, PolytopeH, project

        out = self.run_fresh(POLYTOPE_PROBE, json.dumps(FALLBACK))
        assert (out["before"], out["after"]) == (False, True)
        p, normals, offsets, x = FALLBACK
        eager = project(LpSpace(p), PolytopeH(normals=normals, offsets=offsets), x)
        assert out["point"] == [repr(c) for c in eager]

    def test_classify_refuses_a_polytope_before_its_membership_lp(self):
        out = self.run_fresh(REFUSAL_PROBE)
        assert out == {"message": "no closed-form internal/cuticle classification for PolytopeV",
                       "optimize": False}

    def test_first_moduli_estimate_on_a_pool_matches_a_warm_one(self):
        from banachproj import estimate_convexity_modulus

        warm = estimate_convexity_modulus(*MODULI_ARGS, **MODULI_KW)
        fresh = self.run_fresh(MODULI_PROBE, json.dumps([MODULI_ARGS, MODULI_KW]))
        assert fresh == [repr(d) for d in warm.delta_values]
