"""Randomized self-check suites: pass at defaults, report shapes, failure paths."""
import numpy as np
import pytest

from banachproj import solver, verify
from banachproj.verify import CheckResult, SUITES, SuiteReport, run_suite


class TestSuitesPass:
    @pytest.mark.parametrize("name", sorted(SUITES))
    def test_default_parameters(self, name):
        report = run_suite(name)
        assert report.passed, report.summary()
        assert report.failures == 0
        assert report.total >= 4

    @pytest.mark.parametrize("p, n", [(1.5, 3), (2.0, 4), (4.0, 2)])
    def test_other_spaces(self, p, n):
        assert run_suite("duality", p=p, n=n, count=200).passed
        assert run_suite("cone", p=p, n=n, count=30).passed

    @pytest.mark.parametrize("seed", [0, 7])
    def test_properties4_at_the_seeds_hulls_once_failed(self, seed):
        # their V-polytope residuals were -7.9e-8 and -3.2e-8 under SLSQP;
        # the suite's least residual is now -2.6e-15 and -1.4e-14
        report = run_suite("properties4", seed=seed)
        assert report.passed, report.summary()

    def test_same_seed_reports_identically(self):
        a = run_suite("ball", count=20, seed=3).to_json()
        b = run_suite("ball", count=20, seed=3).to_json()
        assert a == b

    @pytest.mark.parametrize("name", sorted(SUITES))
    def test_one_instance_is_enough(self, name):
        report = run_suite(name, count=1)
        assert report.passed, report.summary()

    @pytest.mark.parametrize("count", [0, -2])
    @pytest.mark.parametrize("name", sorted(SUITES))
    def test_a_suite_that_would_check_nothing_is_refused(self, name, count):
        # it once passed with no checks run, or failed inside NumPy
        with pytest.raises(ValueError, match=f"count >= 1, got {count}"):
            run_suite(name, count=count)


class TestFailureAccounting:
    def test_impossible_tolerance_fails(self, monkeypatch):
        # a negative tolerance cannot be met by any deviation, so exactly
        # the round-trip check must flip
        monkeypatch.setattr(verify, "ROUNDTRIP_TOL", -1.0)
        report = run_suite("duality", count=50)
        assert not report.passed
        assert report.failures == 1
        assert "FAIL" in report.summary()

    def test_constant_projector_fixes_no_member(self, monkeypatch):
        # P(x) = P(0) lands in C and is idempotent, but moves every other
        # member of C: only the fixed-point check can see that
        certified, project = solver.project_with_certificate, solver.project
        monkeypatch.setattr(solver, "project_with_certificate",
                            lambda space, C, x: certified(space, C, np.zeros(len(x))))
        monkeypatch.setattr(solver, "project", lambda space, C, x: project(space, C, np.zeros(len(x))))
        checks = {c.name: c.passed for c in run_suite("properties4", count=3).checks}
        assert checks["projection lands in the set"]
        assert checks["idempotence P(Px) = Px"]
        assert not checks["points of the set are fixed"]

    def test_hand_built_report(self):
        report = SuiteReport("demo", [
            CheckResult("good", True),
            CheckResult("bad", False, "worst 1.0e+00"),
        ])
        assert report.total == 2
        assert report.failures == 1
        assert not report.passed


class TestSerialization:
    def test_check_result_json(self):
        js = CheckResult("name", True, "detail").to_json()
        assert js == {"name": "name", "passed": True, "detail": "detail"}

    def test_suite_report_json(self):
        js = run_suite("subspace", count=10).to_json()
        assert set(js) == {"suite", "total", "failures", "passed", "checks"}
        assert js["suite"] == "subspace"
        assert all(set(c) == {"name", "passed", "detail"} for c in js["checks"])

    def test_summary_lines(self):
        report = run_suite("hilbert", count=20)
        lines = report.summary().splitlines()
        assert lines[0] == f"suite hilbert: {report.total}/{report.total} checks passed"
        assert all(line.startswith("  [ok  ]") for line in lines[1:])


class TestRunSuite:
    def test_unknown_name(self):
        with pytest.raises(KeyError, match="unknown suite"):
            run_suite("nonsense")

    def test_error_lists_options(self):
        with pytest.raises(KeyError, match="ball"):
            run_suite("nope")

    def test_kwargs_forwarded(self):
        assert run_suite("duality", p=1.5, n=2, count=64, seed=12).passed
