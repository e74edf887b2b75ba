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
from hyperform.extrep import MLabel, default_vector, dims
from hyperform.liegroup import GroupElement
from hyperform.specialfn import _Series
from hyperform.strichartz import inversion_mix
from hyperform.transforms import BoundaryAtom, BoundarySection

from conftest import bump_norm2, load_tool
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


def test_limit_bound_constant_is_informational(monkeypatch):
    # no derivation bounds the two-sided constant (over the coverage matrix
    # it lay in [1.29, 1.78]), so its row has no target or tol and passes
    # when the constant is finite, at any size
    args = ["limit", "--n", "3", "--p", "1", "--sigma", "q:1"]
    code, rows = _rows(args)
    row = rows["bstar_bound_constant"]
    assert code == 0 and row["pass"] and 1.0 <= row["value"] < 2.5
    assert row["target"] is None and row["tol"] is None
    limit = st.strichartz_limit

    def with_constant(value):
        def run(*a, **kw):
            rep = limit(*a, **kw)
            rep.bound_constant = value
            return rep
        return run

    for value, want in ((50.0, 0), (float("inf"), 1), (float("nan"), 1)):
        monkeypatch.setattr(st, "strichartz_limit", with_constant(value))
        code, rows = _rows(args)
        assert code == want and rows["bstar_bound_constant"]["pass"] == (want == 0), value


def test_spherical_exits_cleanly_where_phi_cannot_be_evaluated():
    # (n = 3 at the same lambda and t now takes the closed form; see below)
    res = CliRunner().invoke(main, ["spherical", "--n", "4", "--p", "1", "--sigma", "q:1",
                                    "--lambda", "60", "--t", "0.3"])
    assert res.exit_code == 1
    assert "cannot be evaluated" in res.output
    assert not isinstance(res.exception, ArithmeticError)


def test_spherical_matches_mpmath_where_odd_n_once_refused():
    # exited 1 in jacobi_phi; at (3, 1), sigma = q:1 the components are
    # b on q:0 and (3 a - cosh(t) b) / 2 on sigma^{+-}, with
    # a = phi^(1/2,-1/2)_lambda and b = phi^(3/2,-1/2)_lambda
    t, lam = 0.3, 60.0
    code, rows = _rows(["spherical", "--n", "3", "--p", "1", "--sigma", "q:1",
                        "--lambda", str(lam), "--t", str(t)])
    assert code == 0
    a, b = (complex(mpmath.hyp2f1((alpha + 0.5 - 1j * lam) / 2, (alpha + 0.5 + 1j * lam) / 2,
                                  alpha + 1.0, -mpmath.sinh(t) ** 2)).real for alpha in (0.5, 1.5))
    want = {"q:0": b, "plus": (3.0 * a - np.cosh(t) * b) / 2.0}
    want["minus"] = want["plus"]
    for eta, value in want.items():
        assert abs(rows[f"phi[{eta}].re"]["value"] - value) <= 1e-10 * abs(value), eta
        assert rows[f"phi[{eta}].im"]["value"] == 0.0


def test_spherical_n2_meets_the_full_circle_k_integral():
    # the K-integral integrated half of K = SO(2) and exited 1 on .im
    code, rows = _rows(["spherical", "--n", "2", "--p", "1", "--chirality", "plus",
                        "--sigma", "q:1", "--lambda", "1", "--t", "0.5"])
    assert code == 0, rows
    assert abs(rows["phi[q:1].im"]["target"]) <= 1e-12


_ODD_SLICE = [["--n", "3", "--p", "1", "--sigma", "q:1"],
              ["--n", "5", "--p", "2", "--sigma", "plus"],
              ["--n", "7", "--p", "3", "--sigma", "minus"]]


@pytest.mark.parametrize("cmd", ["limit", "invert"])
@pytest.mark.parametrize("lam", ["25", "40"])
@pytest.mark.parametrize("point", _ODD_SLICE)
def test_odd_n_commands_pass_at_large_lambda(cmd, lam, point):
    # at lambda = 40 jacobi_phi refused t in about [0.37, 0.5]; the odd-n
    # components now take the closed form there
    res = CliRunner().invoke(main, [cmd, *point, "--lambda", lam])
    assert res.exit_code == 0, res.output


@pytest.mark.parametrize("n, p, lam", [(3, 1, "25"), (5, 2, "0.1"), (7, 3, "5.5")])
@pytest.mark.parametrize("sigma", ["plus", "minus"])
def test_invert_default_bound_is_rounded_up(n, p, lam, sigma):
    # sigma^{+-} has no wave, so its error sits on the envelope; rounded to
    # the nearest six digits the bound fell below it (7.98722045e-5
    # against 7.9872e-5 at (3, 1), lambda = 25) and invert exited 1
    code, rows = _rows(["invert", "--n", str(n), "--p", str(p), "--sigma", sigma,
                        "--lambda", lam])
    assert code == 0, rows
    env = rows["error_envelope"]
    assert env["value"] <= env["tol"] <= env["value"] * (1.0 + 1e-5)


@pytest.mark.parametrize("t", ["12", "nan", "-9.5"])
def test_spherical_refuses_t_outside_the_domain_before_any_series(t, monkeypatch):
    # --t 12 and --t nan exited 1 with a ValueError traceback
    def no_series(*args):
        raise AssertionError("a series ran")

    monkeypatch.setattr(_Series, "sum", no_series)
    res = CliRunner().invoke(main, ["spherical", "--n", "3", "--p", "1", "--sigma", "q:1",
                                    "--t", t])
    assert res.exit_code == 2, res.output
    errors = [ln for ln in res.output.splitlines() if ln.startswith("Error:")]
    assert len(errors) == 1 and "|t| <= 9" in errors[0], res.output
    assert "Traceback" not in res.output
    assert isinstance(res.exception, SystemExit)


def test_spherical_answers_at_the_domain_edge():
    res = CliRunner().invoke(main, ["spherical", "--n", "3", "--p", "1", "--sigma", "q:1",
                                    "--t", "-9"])
    assert res.exit_code == 0, res.output


def test_spherical_meets_the_components_at_large_lambda():
    # on 32 nodes per panel the K-integral was 1.2e-6 off at lambda = 60, and
    # the command exited 1
    point = ["spherical", "--n", "4", "--p", "1", "--sigma", "q:1", "--t", "1.0"]
    code, rows = _rows([*point, "--lambda", "60"])
    assert code == 0, rows
    for row in rows.values():
        assert abs(row["value"] - row["target"]) <= 1e-12, row
    res = CliRunner().invoke(main, [*point, "--lambda", "100.5"])
    assert res.exit_code == 2 and "|lambda| <= 100" in res.output, res.output


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


def test_decompose_matrix_passes_on_a_zero_column_past_the_tie(tmp_path):
    # g_nn = 1 + 4e-13 with a zero upper right column: arccosh(g_nn) is past
    # TIE_EPS, and the Cartan direction 0 / 0 gave NaN factors and a warning
    path = tmp_path / "g.txt"
    np.savetxt(path, np.diag([1.0, 1.0, 1.0, 1.0 + 4e-13]), fmt="%.17g")
    code, rows = _rows(["decompose", "--matrix", str(path)])
    assert code == 0
    assert all(r["pass"] for r in rows.values())
    assert rows["cartan_roundtrip"]["value"] <= 1e-12


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
    scale = plancherel_density(pt) / (2.0 * bump_norm2(f))
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


def test_fourier_gates_its_transform_on_the_absolute_scale():
    # at lambda = 25 the bump's transform is a small part of its absolute
    # scale, which a relative gate refused; at lambda = 40, r = 8 the graded
    # sweep answers where the earlier 100- and 200-node rules parted
    args = ["fourier", "--n", "3", "--p", "1", "--sigma", "q:1", "--lambda"]
    for lam in ("25", "40"):
        res = CliRunner().invoke(main, [*args, lam])
        assert res.exit_code == 0, res.output
        assert len(json.loads(res.output)["rows"]) == 3


def test_fourier_gate_fails_on_a_mis_normalised_transform(monkeypatch):
    # restriction_ratio[R] <= nu A(R) by Cauchy-Schwarz, and (2,1,-) at
    # lambda = 1, R = 2 comes within 3 % of it; a b_sigma off by
    # sqrt(d_{tau,sigma}) (nu off by d_{tau,sigma} in the ratio) breaks it
    cases = [["--n", "2", "--p", "1", "--chirality", "minus", "--sigma", "q:1"],
             ["--n", "3", "--p", "1", "--sigma", "q:1"]]
    worst = 0.0
    for args in cases:
        code, rows = _rows(["fourier", *args])
        assert code == 0 and all(r["pass"] for r in rows.values())
        worst = max(worst, *(r["value"] / r["tol"] for r in rows.values()))
    assert worst > 0.95
    transform = st.bump_transform

    def scaled(f, lam_grid, R=None, sigmas=None):
        b, norm2, avgs = transform(f, lam_grid, R, sigmas)
        d_ts = [dims(f.spec, s)[2] for s in sigmas]
        return b * np.sqrt(d_ts), norm2, avgs

    monkeypatch.setattr(st, "bump_transform", scaled)
    code, rows = _rows(["fourier", *cases[1]])
    assert code == 1 and not rows["restriction_ratio[R=2]"]["pass"]


def test_fourier_refuses_a_bump_whose_radial_weight_overflows():
    # (2 sinh 120)^7 is not a finite float: exit 2 with the domain, where
    # the profile overflowed with a RuntimeWarning and the command exited 1
    res = _run("fourier", "--n", 8, "--p", 3, "--sigma", "q:3", "--R-grid", "2,4,120")
    assert res.exit_code == 2, res.output
    assert isinstance(res.exception, SystemExit)
    assert "outside the domain of bump_transform at n=8" in res.output


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


@pytest.mark.parametrize("cmd", ["invert", "fourier", "limit"])
@pytest.mark.parametrize("radius", ["0", "-1", "inf", "nan"])
def test_non_positive_or_non_finite_radius_is_a_usage_error(cmd, radius, tmp_path):
    # the flag and a config-file line alike; invert and fourier ended in
    # an uncaught ValueError from the quadrature when the parser let them by
    path = tmp_path / "run.cfg"
    path.write_text(f"R_grid = {radius},20\n")
    for where in ([f"--R-grid={radius},20"], ["--config", path]):
        res = _run(cmd, "--n", 3, "--p", 1, "--sigma", "q:1", *where)
        assert res.exit_code == 2, (where, res.output)
        assert isinstance(res.exception, SystemExit)
        assert "positive and finite" in res.output


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


def test_thin_slice_of_the_coverage_matrix_fails_only_with_a_reported_error():
    # spherical --t 1.5 and invert at the 38 points of the coverage matrix
    # and lambda in {1, 25}: every run exits 0, or 1 with an `Error:` line;
    # none exits 2 or raises
    cov = load_tool("coverage")
    runner = CliRunner()
    runs = [cov.run_one(runner, main, cmd, point, lam) for cmd in ("spherical", "invert")
            for point in cov.points() for lam in (1.0, 25.0)]
    assert len(runs) == 152
    bad = [r for r in runs if r["exit"] != 0 and (r["exit"] != 1 or r["cause"] == "no report"
                                                  or r["cause"].startswith(("rows: ", "raised ")))]
    assert not bad, bad
