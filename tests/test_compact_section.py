"""The radial bump section: its horocycle integrals against the
per-pair quadrature oracle, the left equivariance that the batched
route rests on, and its closed-form spherical transform against the
horocycle route of the Fourier coefficient and a Gauss-Legendre oracle,
with the absolute-scale gate of its sweep."""

from math import pi, sqrt

import numpy as np
import pytest

from hyperform import BundleSpec, SpectralPoint, bump_section, haar_sample_K
from hyperform import strichartz as st
from hyperform.extrep import (MLabel, branching, chirality_matrix, dims, proj_matrix,
                              tau_matrix, tau_matrix_batch)
from hyperform.liegroup import at_mats, embed_rotation, radial_weight
from hyperform.specialfn import gauss_legendre
from hyperform.spherical import component_grid
from hyperform.strichartz import bump_transform
from hyperform.transforms import fourier_batch, radon_batch

from conftest import bump_coefficient, bump_norm2
from oracles import radon_pairs

SPECS = [BundleSpec(3, 1), BundleSpec(4, 1), BundleSpec(4, 2, "plus"),
         BundleSpec(4, 2, "minus")]


def _complex_v0(spec, rng):
    v = rng.normal(size=spec.dim_full) + 1j * rng.normal(size=spec.dim_full)
    if spec.chirality != "none":
        v = chirality_matrix(spec.n, spec.chirality) @ v
    return v


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: f"{s.n}-{s.p}-{s.chirality}")
def test_radon_batch_matches_per_pair_quadrature(spec, rng):
    r = 1.3
    f = bump_section(spec, r, v0=_complex_v0(spec, rng))
    ks = haar_sample_K(spec.n, size=3, rng=rng)
    # radii inside the support, on its edge and outside it
    ts = np.array([-1.6, -0.8, 0.0, 0.5, 1.1, r, 1.9])
    grid = 8 if spec.n == 4 else 16
    got = radon_batch(f, ts, ks, grid=grid)
    want = radon_pairs(f, ts, ks, grid)
    assert np.all(got[:, np.abs(ts) >= r] == 0.0)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    # left equivariance: f(k g) is the bump with fiber vector tau(k)^T v0
    gs = (embed_rotation(haar_sample_K(spec.n, size=6, rng=rng))
          @ at_mats(rng.uniform(0.0, 1.5, 6), spec.n)
          @ embed_rotation(haar_sample_K(spec.n, size=6, rng=rng)))
    for k in ks:
        moved = bump_section(spec, r, v0=tau_matrix(k, spec.p).T @ f.v0)
        lhs = f.eval_batch(embed_rotation(k) @ gs)
        rhs = moved.eval_batch(gs)
        assert np.max(np.abs(lhs - rhs)) <= 1e-13 * max(np.max(np.abs(rhs)), 1e-300)


# (spec, sigma, horocycle grid, relative tolerance): the horocycle rule
# at 64 t-nodes is the limiting error, about 5e-8 at n = 3 and 2e-5 at n = 4
TRANSFORM_CASES = (
    [(BundleSpec(3, 1), sig, 48, 1e-7) for sig in ("q:0", "q:1", "plus", "minus")]
    + [(BundleSpec(4, 1), sig, 20, 5e-5) for sig in ("q:0", "q:1")]
    + [(BundleSpec(4, 2, chir), "q:2", 20, 5e-5) for chir in ("plus", "minus")])


@pytest.mark.parametrize("spec, sigma, grid, tol", TRANSFORM_CASES,
                         ids=[f"{s.n}-{s.p}-{s.chirality}-{sig}" for s, sig, _, _ in TRANSFORM_CASES])
def test_spherical_transform_matches_fourier_batch(spec, sigma, grid, tol, rng):
    # F f(lambda, k) = b_sigma(lambda) P_sigma tau(k)^T v0
    f = bump_section(spec, 1.5, v0=_complex_v0(spec, rng))
    ks = haar_sample_K(spec.n, size=3, rng=rng)
    for lam in (0.7, 2.5):
        pt = SpectralPoint(spec, MLabel.parse(sigma), lam)
        want = fourier_batch(f, pt, ks, t_nodes=64, grid=grid)
        vecs = np.einsum("kab,b->ka", np.swapaxes(tau_matrix_batch(ks, spec.p), -1, -2), f.v0)
        got = bump_coefficient(f, pt) * vecs @ proj_matrix(spec, pt.sigma).T
        assert np.max(np.abs(got - want)) <= tol * np.max(np.abs(want)), (sigma, lam)


def _transform_by_gauss_legendre(f, pt, nodes):
    """(b_sigma, its absolute scale S) by one nodes-point Gauss-Legendre rule
    on [0, r_supp]: the independent oracle of the sweep's value."""
    ts, ws = gauss_legendre(nodes)
    ts, ws = 0.5 * f.r_supp * (ts + 1.0), 0.5 * f.r_supp * ws
    d_tau, _, d_ts = dims(f.spec, pt.sigma)
    comps = component_grid(pt, ts)
    weight = ws * f.chi(ts) * radial_weight(ts, f.spec.n) / d_tau
    trace = sum(dims(f.spec, eta)[1] * v.real for eta, v in comps.items()) @ weight
    scale = sum(dims(f.spec, eta)[1] * np.abs(v) for eta, v in comps.items()) @ weight
    return sqrt(d_ts) * trace, sqrt(d_ts) * scale


def test_spherical_transform_meets_a_1600_node_rule():
    # the graded sweep against one 1,600-node Gauss-Legendre rule, to 1e-10
    # of the absolute scale S, wherever jacobi_phi returns; at lambda = 40,
    # r = 8 the 100/200-node rules of the earlier route refused to answer
    checked = 0
    for spec in (BundleSpec(3, 1), BundleSpec(5, 2), BundleSpec(6, 2), BundleSpec(4, 2, "plus")):
        for r in (1.0, 1.5, 8.0):
            f = bump_section(spec, r)
            for lam in (0.05, 1.0, 4.0, 25.0, 40.0):
                for sigma in branching(spec):
                    pt = SpectralPoint(spec, sigma, lam)
                    try:
                        want, scale = _transform_by_gauss_legendre(f, pt, 1600)
                    except ArithmeticError:
                        continue
                    got = bump_coefficient(f, pt)
                    assert abs(got - want) <= 1e-10 * scale, (spec, r, lam, str(sigma))
                    checked += 1
    assert checked >= 100, checked


def test_bump_transform_on_a_lambda_array_is_its_one_point_calls(rng):
    # one sweep per lambda serves every sigma: each entry is the one-point,
    # one-sigma call's bit for bit, and ||f||^2 is the sigma-free call's
    for spec in (BundleSpec(5, 2), BundleSpec(6, 2), BundleSpec(4, 2, "minus")):
        f = bump_section(spec, 1.5, v0=_complex_v0(spec, rng))
        lams = np.array([0.05, 0.7, 2.5, 11.0])
        b, norm2, avgs = bump_transform(f, lams)
        assert b.shape == avgs.shape == (lams.size, len(branching(spec)))
        assert np.array_equal(avgs, bump_transform(f, lams, R=1.5)[2])
        for i, lam in enumerate(lams):
            for j, sigma in enumerate(branching(spec)):
                assert b[i, j] == bump_coefficient(f, SpectralPoint(spec, sigma, lam))
        assert abs(norm2 - bump_norm2(f)) <= 1e-13 * norm2


def test_absolute_scale_gate_raises_on_a_profile_it_cannot_resolve(monkeypatch):
    # a row gated by a scale row may be far below its own relative gate
    # (sin(2 pi t) integrates to 0 on [0, 4]), but not past 1e-10 of the scale
    def rows(freq):
        return lambda ts: np.stack([np.sin(freq * ts), np.ones_like(ts)])

    vals, errs = st._radial_sweep(rows(2.0 * pi), [4.0], 1.0, gate=[1, None])
    assert abs(vals[0, 0]) <= 1e-14 and errs[0, 0] <= 1e-10 * vals[1, 0]
    with pytest.raises(ArithmeticError, match="did not converge"):
        st._radial_sweep(rows(2.0 * pi), [4.0], 1.0)
    # 60 t on panels of pi/2: 15 periods a panel, which G15 cannot follow
    with pytest.raises(ArithmeticError, match="did not converge"):
        st._radial_sweep(rows(60.0), [4.0], 1.0, gate=[1, None])
    # the bump's sweep holds its trace (row 1) to its scale: an oscillation of
    # 1e-6 S that the panels cannot follow is refused
    spec, sweep = BundleSpec(3, 1), st._radial_sweep
    pt = SpectralPoint(spec, MLabel.parse("q:1"), 1.0)
    f = bump_section(spec, 1.5)
    assert np.isfinite(bump_coefficient(f, pt))

    def unresolved(profile, *args, **kwargs):
        def perturbed(ts):
            out = profile(ts)
            out[1] += 1e-6 * np.max(out[2]) * np.cos(300.0 * ts)
            return out
        return sweep(perturbed, *args, **kwargs)

    monkeypatch.setattr(st, "_radial_sweep", unresolved)
    with pytest.raises(ArithmeticError, match="did not converge"):
        bump_coefficient(f, pt)


def test_spherical_transform_gates_on_the_absolute_scale():
    # at lambda = 25, r = 8 the value is a small part of the absolute scale
    # S = int chi sum_eta (d_eta/d_tau) |phi_eta| (2 sinh t)^(n-1) dt, which a
    # relative gate refused; it meets an 800-node rule to 1e-11 of S
    spec = BundleSpec(3, 1)
    pt = SpectralPoint(spec, MLabel.parse("q:1"), 25.0)
    f = bump_section(spec, 8.0)
    ts, ws = gauss_legendre(800)
    ts, ws = 4.0 * (ts + 1.0), 4.0 * ws
    d_tau, _, d_ts = dims(spec, pt.sigma)
    comps = component_grid(pt, ts)
    weight = ws * f.chi(ts) * radial_weight(ts, 3) / d_tau
    trace = sum(dims(spec, eta)[1] * v.real for eta, v in comps.items()) @ weight
    scale = sum(dims(spec, eta)[1] * np.abs(v) for eta, v in comps.items()) @ weight
    got = bump_coefficient(f, pt)
    assert abs(got - sqrt(d_ts) * trace) <= 1e-11 * sqrt(d_ts) * scale
