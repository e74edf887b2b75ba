"""Tests for the pass/fail gates of the command-line reports."""

import contextlib
import csv
import gc
import io
import json
import weakref
from math import cos

import mpmath
import numpy as np
import pytest
from click.testing import CliRunner

import hyperform.strichartz as st
from hyperform import (BundleSpec, SpectralPoint, asymptotic_head, bump_section,
                       fourier_batch, haar_sample_K, make_at, op_norm, plancherel_density,
                       spherical_at)
from hyperform.cli import main
from hyperform.extrep import MLabel, default_vector
from hyperform.liegroup import GroupElement
from hyperform.strichartz import inversion_mix
from hyperform.transforms import BoundaryAtom, BoundarySection

from oracles import group_mp


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


@pytest.mark.parametrize("args", [["--n", "6", "--p", "2", "--sigma", "q:2"],
                                  ["--n", "6", "--p", "2", "--sigma", "q:1"],
                                  ["--n", "8", "--p", "3", "--sigma", "q:3"],
                                  ["--n", "4", "--p", "2", "--chirality", "plus", "--sigma", "q:2"]])
def test_invert_passes_at_its_defaults_past_n3(args):
    # the default gate is the bundle's own envelope sup_R R err, which the
    # errors on the grid stay within
    res = CliRunner().invoke(main, ["invert", *args, "--lambda", "1"])
    assert res.exit_code == 0, res.output
    rows = {r["name"]: r for r in json.loads(res.output)["rows"]}
    env = rows["error_envelope"]
    assert env["value"] <= env["tol"] < 2.5


@pytest.mark.parametrize("spec, sigma", [(BundleSpec(6, 2), "q:2"),
                                         (BundleSpec(4, 2, "plus"), "q:2")])
def test_invert_default_envelope_is_the_sup_of_the_error_over_a_period(spec, sigma):
    # R err = |E_inf + Re(M e^{2 i R})| at lambda = 1, period pi in R
    _, rows = _rows(["invert", *_point_args(spec, sigma), "--lambda", "1"])
    bound = rows["error_envelope"]["tol"]
    pt = SpectralPoint(spec, MLabel.parse(sigma), 1.0)
    worst = max(R * abs(st.inversion_ratios(pt, R)[pt.sigma] - 1.0)
                for R in np.linspace(20.0, 20.0 + np.pi, 96))
    assert bound - 2e-3 <= worst <= bound


@pytest.mark.parametrize("args", [["--n", "3", "--p", "1", "--sigma", "q:1"],
                                  ["--n", "6", "--p", "2", "--sigma", "q:2"]])
def test_invert_default_gate_fails_on_a_scaled_density(monkeypatch, args):
    # nu off by 5 % inside the ratios leaves an error of about 0.05 that
    # does not decay, so R err outgrows the envelope
    density = st.plancherel_density
    monkeypatch.setattr(st, "plancherel_density", lambda pt: 1.05 * density(pt))
    res = CliRunner().invoke(main, ["invert", *args, "--lambda", "1"])
    assert res.exit_code == 1
    rows = {r["name"]: r for r in json.loads(res.output)["rows"]}
    assert not rows["error_envelope"]["pass"]


def test_invert_exits_cleanly_when_the_sweep_cannot_converge(monkeypatch):
    monkeypatch.setattr(st, "_SWEEP_RTOL", 0.0)
    res = _invert()
    assert res.exit_code == 1
    assert "radial quadrature to R=20 did not converge" in res.output
    assert "Traceback" not in res.output


def test_limit_exits_cleanly_when_the_sweep_cannot_converge(monkeypatch):
    monkeypatch.setattr(st, "_SWEEP_RTOL", 0.0)
    res = CliRunner().invoke(main, ["limit", "--n", "7", "--p", "2",
                                    "--sigma", "q:2"])
    assert res.exit_code == 1
    assert "did not converge" in res.output
    assert "Traceback" not in res.output
    assert not isinstance(res.exception, ArithmeticError)


@pytest.mark.parametrize("n, p", [(7, 2), (8, 3)])
def test_limit_passes_on_the_default_grid_at_large_n(n, p):
    # the components underflow past t ~ 157 at n = 8, but the sweep stops
    # at 2 R0 = 40 and the radii past it take the closed-form head plus
    # the residual constant
    res = CliRunner().invoke(main, ["limit", "--n", str(n), "--p", str(p), "--sigma", f"q:{p}"])
    assert res.exit_code == 0, res.output
    rows = {r["name"]: r for r in json.loads(res.output)["rows"]}
    assert rows["extrapolated_limit"]["pass"]
    assert all(np.isfinite(rows[f"ball_average[R={R:g}]"]["value"])
               for R in (12.5, 25, 50, 100, 200))


@pytest.mark.parametrize("n, p, sigma, lam", [(7, 2, "q:2", "0.3"), (4, 1, "q:1", "0.1")])
def test_limit_passes_at_small_lambda(n, p, sigma, lam):
    # the limit is the head's weight at frequency 0, not a fit of L + A/R,
    # which missed the 1 % gate at lambda <= 0.3
    res = CliRunner().invoke(main, ["limit", "--n", str(n), "--p", str(p), "--sigma", sigma,
                                    "--lambda", lam])
    assert res.exit_code == 0, res.output
    rows = {r["name"]: r for r in json.loads(res.output)["rows"]}
    assert rows["extrapolated_limit"]["pass"]


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


def test_bad_or_missing_sigma_is_a_usage_error():
    for sigma in (["--sigma", "bogus"], ["--sigma", "q:x"], []):
        res = CliRunner().invoke(main, ["density", "--n", "3", "--p", "1", *sigma])
        assert res.exit_code == 2, (sigma, res.output)
        assert "Traceback" not in res.output
        assert not isinstance(res.exception, ValueError)
    assert "--sigma is required" in res.output


def _rows(args):
    res = CliRunner().invoke(main, args)
    return res.exit_code, {r["name"]: r for r in json.loads(res.output)["rows"]}


@pytest.mark.parametrize("t", ["10", "12"])
def test_decompose_passes_far_from_the_origin(t):
    # the product-form Iwasawa step lost orthogonality here (defect
    # 3.5e-8 at t = 10)
    code, rows = _rows(["decompose", "--at", t, "--n", "3"])
    assert code == 0
    assert all(r["pass"] for r in rows.values())


def test_in_process_runs_leave_no_stdout_buffer_alive():
    # click.echo caches a wrapper per stdout object that keeps the object
    # alive, so every buffer an in-process caller redirected stdout to, with
    # its report, stayed in memory; the report is written without it
    refs = []
    for _ in range(3):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            main.main(args=["density", "--n", "3", "--p", "1", "--sigma", "q:1",
                            "--lambda", "1.0"], prog_name="hyperform", standalone_mode=False)
        assert json.loads(buf.getvalue())["rows"]
        refs.append(weakref.ref(buf))
        del buf
    gc.collect()
    assert all(ref() is None for ref in refs)


def test_decompose_matrix_passes_far_from_the_origin(tmp_path):
    # an exact k1 a_12 k2 rounded to floats; GroupElement's determinant
    # check refused it before it allowed for the rounding of g
    rng = np.random.default_rng(12)
    with mpmath.workdps(40):
        gm = group_mp(rng.normal(size=(4, 4)), 12.0, rng.normal(size=(4, 4)))
        g = np.array(gm.tolist(), dtype=float)
    path = tmp_path / "g.txt"
    np.savetxt(path, g, fmt="%.17g")
    code, rows = _rows(["decompose", "--matrix", str(path)])
    assert code == 0
    assert all(r["pass"] for r in rows.values())


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_decompose_exits_cleanly_where_the_boost_overflows():
    res = CliRunner().invoke(main, ["decompose", "--at", "700", "--n", "3"])
    assert res.exit_code == 1
    assert "lost orthogonality" in res.output
    assert not isinstance(res.exception, (ArithmeticError, ValueError))


def test_fourier_matches_the_sampled_coefficient_mean(rng):
    # the K-mean of |F f(lambda, k)|^2, sampled on the horocycle route,
    # against the command's Schur-reduced closed form
    _, rows = _rows(["fourier", "--n", "3", "--p", "1", "--sigma", "q:1", "--R-grid", "2"])
    spec = BundleSpec(3, 1)
    pt = SpectralPoint(spec, MLabel.parse("q:1"), 1.0)
    f = bump_section(spec, 2.0)
    sq = np.sum(np.abs(fourier_batch(f, pt, haar_sample_K(3, size=4000, rng=rng),
                                     t_nodes=64, grid=48)) ** 2, axis=-1)
    scale = plancherel_density(pt) / (2.0 * f.l2_norm() ** 2)
    got = rows["restriction_ratio[R=2]"]
    assert got["stderr"] is None
    assert abs(got["value"] - scale * sq.mean()) <= 4.0 * scale * sq.std() / np.sqrt(sq.size)


def test_fourier_is_exact_at_every_n():
    for spec, sigma in ((BundleSpec(6, 2), "q:1"), (BundleSpec(8, 3), "q:3"),
                        (BundleSpec(4, 2, "minus"), "q:2")):
        code, rows = _rows(["fourier", *_point_args(spec, sigma)])
        assert code == 0, (spec, sigma)
        assert all(r["stderr"] is None for r in rows.values())
    _, rows = _rows(["fourier", "--n", "3", "--p", "1", "--sigma", "q:1"])
    for R, want in ((2, 0.23507313), (4, 0.01191304), (8, 0.00048249)):
        assert abs(rows[f"restriction_ratio[R={R}]"]["value"] - want) <= 1e-8


def _point_args(spec, sigma):
    chir = [] if spec.chirality == "none" else ["--chirality", spec.chirality]
    return ["--n", str(spec.n), "--p", str(spec.p), *chir, "--sigma", sigma]


@pytest.mark.parametrize("spec, sigma", [(BundleSpec(5, 2), "q:2"),
                                         (BundleSpec(4, 2, "plus"), "q:2")])
def test_invert_rows_equal_the_sampled_reconstruction_error(spec, sigma, rng):
    _, rows = _rows(["invert", *_point_args(spec, sigma)])
    pt = SpectralPoint(spec, MLabel.parse(sigma), 1.0)
    atom = BoundaryAtom(GroupElement(np.eye(spec.n + 1)), default_vector(spec))
    want = BoundarySection.from_atoms(pt, [(atom, 1.0)]).eval_batch(
        haar_sample_K(spec.n, size=4000, rng=rng))
    for R in (20.0, 40.0, 80.0):
        got = want @ inversion_mix(pt, R).T
        err = np.sqrt(np.sum(np.abs(got - want) ** 2) / np.sum(np.abs(want) ** 2))
        assert abs(rows[f"rel_error[R={R:g}]"]["value"] - err) <= 1e-10


@pytest.mark.parametrize("spec, sigma", [(BundleSpec(6, 2), "q:2"), (BundleSpec(3, 1), "plus"),
                                         (BundleSpec(4, 2, "plus"), "q:2")])
def test_asympt_rows_equal_the_matrix_remainder(spec, sigma):
    _, rows = _rows(["asympt", *_point_args(spec, sigma)])
    pt = SpectralPoint(spec, MLabel.parse(sigma), 1.0)
    for t in np.linspace(1.0, 15.0, 57):
        g = make_at(float(t), spec.n)
        want = np.exp((pt.rho + 1.0) * t) * op_norm(spherical_at(pt, g) - asymptotic_head(pt, g))
        got = rows[f"remainder[t={t:g}]"]["value"]
        assert abs(got - want) <= 1e-9 * want, t


def _run(*args):
    return CliRunner().invoke(main, [str(a) for a in args])


def test_config_file_sits_between_the_defaults_and_the_flags(tmp_path):
    path = tmp_path / "point.cfg"
    path.write_text("# a spectral point at n = 6\n\nn = 6\np=2\n  sigma =  q:2   # trailing\n"
                    "lambda = 0.5\ntol = 1e-9\n")
    res = _run("density", "--config", path, "--lambda", "2")
    assert res.exit_code == 0, res.output
    # the flag beats the file, the file beats density's tol = 1e-10, and
    # the defaults fill in the rest
    assert json.loads(res.output)["meta"]["config"] == {
        "n": 6, "p": 2, "sigma": "q:2", "lambda": 2.0, "tol": 1e-9,
        "chirality": "none", "t": 1.0, "format": "json"}
    flags = _run("density", "--n", 6, "--p", 2, "--sigma", "q:2", "--lambda", 2, "--tol", 1e-9)
    assert res.output == flags.output


@pytest.mark.parametrize("text", ["bogus = 1\n", "n = six\n", "lambda = 1,2\n", "n 6\n", None])
def test_bad_config_file_is_a_usage_error(tmp_path, text):
    path = tmp_path / "run.cfg"
    if text is not None:
        path.write_text(text)
    res = _run("density", "--sigma", "q:1", "--config", path)
    assert res.exit_code == 2, res.output
    assert isinstance(res.exception, SystemExit)
    assert "Traceback" not in res.output
    if text is None:
        assert "cannot read config file" in res.output


def test_config_file_value_is_checked_like_its_flag(tmp_path):
    # a file value goes through the flag's click type, so a format the
    # flag refuses no longer falls back to JSON
    path = tmp_path / "run.cfg"
    path.write_text("format = xml\n")
    res = _run("density", "--sigma", "q:1", "--config", path)
    assert res.exit_code == 2, res.output
    assert "'xml' is not one of" in res.output


def test_csv_report_carries_the_json_rows():
    args = ["limit", "--n", 3, "--p", 1, "--sigma", "q:1", "--R-grid", "12.5,25,50,100"]
    rows = json.loads(_run(*args).output)["rows"]
    res = _run(*args, "--format", "csv")
    assert res.exit_code == 0, res.output
    table = list(csv.DictReader(io.StringIO(res.output)))
    assert [r["name"] for r in table] == [r["name"] for r in rows]
    assert any(r["stderr"] is not None for r in rows)
    for got, want in zip(table, rows):
        for key in ("target", "value", "stderr", "tol"):
            assert got[key] == ("" if want[key] is None else repr(want[key])), (got, key)
        assert got["pass"] == ("true" if want["pass"] else "false")


def test_out_writes_the_report_to_the_file_only(tmp_path):
    args = ["cfun", "--n", 3, "--p", 1, "--sigma", "q:1"]
    path = tmp_path / "report.json"
    res = _run(*args, "--out", path)
    assert res.exit_code == 0
    assert res.output == ""
    assert path.read_text() == _run(*args).output


def test_lower_case_r_grid_is_the_R_grid_flag():
    args = ["fourier", "--n", 3, "--p", 1, "--sigma", "q:1"]
    upper = _run(*args, "--R-grid", "2,4")
    assert upper.exit_code == 0, upper.output
    assert [r["name"] for r in json.loads(upper.output)["rows"]] == [
        "restriction_ratio[R=2]", "restriction_ratio[R=4]"]
    assert _run(*args, "--r-grid", "2,4").output == upper.output


@pytest.mark.parametrize("grid", ["", ",", "1,x", "two"])
def test_empty_or_non_numeric_grid_is_a_usage_error(grid):
    res = _run("fourier", "--sigma", "q:1", "--R-grid", grid)
    assert res.exit_code == 2, res.output
    assert isinstance(res.exception, SystemExit)
    assert "Traceback" not in res.output


@pytest.mark.parametrize("args, message", [
    (["--sigma", "q:1", "--R-grid", "400,25,50,100"], "strictly increasing"),
    (["--n", 4, "--p", 1, "--sigma", "q:1", "--R-grid", "0.5,25,50,300"], "n=4 cutoff"),
])
def test_limit_refuses_a_bad_grid_before_any_quadrature(args, message, monkeypatch):
    # neither sweep can converge out to R = 400 or 300, so a grid checked
    # after the sweep exited 1 with the quadrature's message
    def no_sweep(*_args, **_kwargs):
        raise AssertionError("the radial sweep ran on a refused grid")

    monkeypatch.setattr(st, "_radial_sweep", no_sweep)
    res = _run("limit", *args)
    assert res.exit_code == 2, res.output
    assert message in res.output
    assert "Traceback" not in res.output
