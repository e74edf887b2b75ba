"""The radial bump section: its horocycle integrals against the
per-pair quadrature oracle, the left equivariance that the batched
route rests on, and its closed-form spherical transform against the
horocycle route of the Fourier coefficient."""

from math import sqrt

import numpy as np
import pytest

from hyperform import BundleSpec, SpectralPoint, bump_section, haar_sample_K
from hyperform.extrep import (MLabel, chirality_matrix, dims, proj_matrix, tau_matrix,
                              tau_matrix_batch)
from hyperform.liegroup import at_mats, embed_rotation, radial_weight
from hyperform.specialfn import gauss_legendre
from hyperform.spherical import component_grid
from hyperform.transforms import fourier_batch, radon_batch

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
        got = f.spherical_transform(pt) * vecs @ proj_matrix(spec, pt.sigma).T
        assert np.max(np.abs(got - want)) <= tol * np.max(np.abs(want)), (sigma, lam)


def test_spherical_transform_raises_where_its_rules_disagree():
    # at lambda r = 320 the 100-point rule no longer resolves the oscillation:
    # the two rules part by 5.1e-10 of the absolute scale S
    spec = BundleSpec(3, 1)
    pt = SpectralPoint(spec, MLabel.parse("q:1"), 40.0)
    with pytest.raises(ArithmeticError, match="100/200 nodes"):
        bump_section(spec, 8.0).spherical_transform(pt)


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
    got = f.spherical_transform(pt)
    assert abs(got - sqrt(d_ts) * trace) <= 1e-11 * sqrt(d_ts) * scale
