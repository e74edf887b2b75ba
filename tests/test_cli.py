"""Tests for the pass/fail gates of the command-line reports."""

import json
from math import cos

import numpy as np
import pytest
from click.testing import CliRunner

from hyperform import (BundleSpec, SpectralPoint, asymptotic_head, bump_section,
                       fourier_batch, haar_sample_K, make_at, op_norm, plancherel_density,
                       spherical_at)
from hyperform.cli import main
from hyperform.extrep import MLabel, default_vector
from hyperform.liegroup import GroupElement
from hyperform.strichartz import inversion_mix
from hyperform.transforms import BoundaryAtom, BoundarySection


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
