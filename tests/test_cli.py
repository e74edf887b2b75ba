"""Tests for the pass/fail gates of the command-line reports."""

import json
from math import cos

from click.testing import CliRunner

from hyperform.cli import main


def _invert(*extra):
    args = ["invert", "--n", "3", "--p", "1", "--sigma", "q:1",
            "--seed", "1", "--samples", "2000", *extra]
    return CliRunner().invoke(main, args)


def test_invert_passes_at_its_defaults():
    res = _invert()
    assert res.exit_code == 0, res.output
    rows = {r["name"]: r for r in json.loads(res.output)["rows"]}
    # the error follows cos^2(R)/R, so the envelope is max cos^2(R)
    env = rows["error_envelope"]
    assert abs(env["value"] - max(cos(R) ** 2 for R in (20.0, 40.0, 80.0))) < 1e-6
    assert env["tol"] == 0.05 * 20.0
    assert all(r["pass"] for r in rows.values())


def test_invert_gate_fails_on_tight_tolerance():
    res = _invert("--tol", "0.01")
    assert res.exit_code == 1
    rows = {r["name"]: r for r in json.loads(res.output)["rows"]}
    assert not rows["error_envelope"]["pass"]


def test_limit_exits_cleanly_when_the_sweep_cannot_converge():
    # at n = 7 the profile underflows past t ~ 177, so the R = 200 sweep
    # of the default grid cannot meet its tolerance
    res = CliRunner().invoke(main, ["limit", "--n", "7", "--p", "2",
                                    "--sigma", "q:2"])
    assert res.exit_code == 1
    assert "did not converge" in res.output
    assert "Traceback" not in res.output
    assert not isinstance(res.exception, ArithmeticError)


def test_limit_passes_at_large_lambda():
    # at lambda = 25 the Pfaff series and the connection formula
    # together cover every radius of the sweep
    res = CliRunner().invoke(main, ["limit", "--n", "3", "--p", "1",
                                    "--sigma", "q:1", "--lambda", "25"])
    assert res.exit_code == 0, res.output
    rows = {r["name"]: r for r in json.loads(res.output)["rows"]}
    assert rows["extrapolated_limit"]["pass"]


def test_spherical_exits_cleanly_where_phi_cannot_be_evaluated():
    res = CliRunner().invoke(main, ["spherical", "--n", "3", "--p", "1", "--sigma", "q:1",
                                    "--lambda", "60", "--t", "0.3"])
    assert res.exit_code == 1
    assert "cannot be evaluated" in res.output
    assert not isinstance(res.exception, ArithmeticError)
