"""Boundary sections, Poisson and Radon transforms, and the Fourier
coefficient: closed forms against their Monte Carlo twins."""

import tracemalloc

import mpmath
import numpy as np
import pytest
from math import comb, sqrt

from hyperform import (
    BoundaryAtom,
    BoundarySection,
    BundleSpec,
    FormVector,
    GroupElement,
    SpectralPoint,
    SIGMA_PLUS,
    bump_section,
    fourier_batch,
    fourier_direct_mc,
    fourier_helgason,
    gram_matrix,
    haar_sample_K,
    make_at,
    make_rotation,
    poisson_atom,
    poisson_mc,
    radon,
    sigma_q,
    spherical_at,
)
from hyperform.extrep import dims, proj_matrix, tau_matrix

from oracles import group_mp, iwasawa_mp, rotation_mp, spectral_projection, u_intertwine


def _random_atom(n, p, rng, spec=None, tmax=1.5):
    k1, k2 = haar_sample_K(n, size=2, rng=rng)
    g = make_rotation(k1) @ make_at(rng.uniform(0.2, tmax), n) @ make_rotation(k2)
    v = rng.normal(size=comb(n, p)) + 1j * rng.normal(size=comb(n, p))
    return BoundaryAtom(g, FormVector(n, p, v, spec=spec))


def _embed_m(u):
    n = u.shape[0] + 1
    out = np.eye(n)
    out[1:, 1:] = u
    return out


# ---------------------------------------------------------------------------
# sections


def test_atom_section_linearity(rng):
    pt = SpectralPoint(BundleSpec(3, 1), sigma_q(1), 1.0)
    a1 = _random_atom(3, 1, rng)
    a2 = _random_atom(3, 1, rng)
    ks = haar_sample_K(3, size=16, rng=rng)
    sec = BoundarySection.from_atoms(pt, [(a1, 2.0), (a2, -1.5j)])
    single = [BoundarySection.from_atoms(pt, [(a, 1.0)]) for a in (a1, a2)]
    combo = 2.0 * single[0].eval_batch(ks) - 1.5j * single[1].eval_batch(ks)
    assert np.max(np.abs(sec.eval_batch(ks) - combo)) <= 1e-12


def test_sampler_budget_enforced(rng):
    pt = SpectralPoint(BundleSpec(3, 1), sigma_q(1), 1.0)
    sec = BoundarySection.from_sampler(pt, lambda ks: np.zeros((ks.shape[0], 3)), budget=10)
    ks = haar_sample_K(3, size=8, rng=rng)
    sec.eval_batch(ks)
    with pytest.raises(RuntimeError):
        sec.eval_batch(ks)
    with pytest.raises(ValueError):
        poisson_mc(pt, BoundarySection.from_sampler(pt, lambda k: k, budget=5),
                   make_at(0.5, 3), samples=100)


def test_atom_values_lie_in_sigma_isotype(rng):
    from hyperform import proj_matrix

    pt = SpectralPoint(BundleSpec(5, 2), sigma_q(1), 1.0)
    atom = _random_atom(5, 2, rng)
    ks = haar_sample_K(5, size=8, rng=rng)
    sec = BoundarySection.from_atoms(pt, [(atom, 1.0)])
    vals = sec.eval_batch(ks)
    pr = proj_matrix(pt.spec, pt.sigma)
    assert np.max(np.abs(vals - vals @ pr.T)) <= 1e-12


# ---------------------------------------------------------------------------
# Poisson transform


@pytest.mark.parametrize("n,p", [(3, 1), (4, 1), (5, 2)])
def test_poisson_mc_matches_closed_form(n, p):
    # symmetric-formula check on random (g, v, x) within 3 sigma
    rng = np.random.default_rng(100 + n)
    pt = SpectralPoint(BundleSpec(n, p), sigma_q(p), 1.0)
    hits = 0
    for trial in range(7):
        atom = _random_atom(n, p, rng)
        sec = BoundarySection.from_atoms(pt, [(atom, 1.0)])
        k1, k2 = haar_sample_K(n, size=2, rng=rng)
        x = make_rotation(k1) @ make_at(rng.uniform(0.2, 1.0), n) @ make_rotation(k2)
        want = poisson_atom(pt, atom, x).coeffs
        got, se = poisson_mc(pt, sec, x, samples=20000, rng=rng)
        err = np.linalg.norm(got.coeffs - want)
        if err <= 3.0 * se:
            hits += 1
    # a 3 sigma miss on one trial out of seven is statistically benign
    assert hits >= 6


@pytest.mark.parametrize("n,p,sigma", [(3, 1, sigma_q(1)), (4, 1, sigma_q(1)),
                                       (5, 2, SIGMA_PLUS)])
def test_atom_routes_hold_far_from_the_origin(n, p, sigma):
    # atoms at distance 9 and 12, where the product-form Iwasawa step
    # raised: eval_batch within 8 eps e^t of the kernel on the 40-digit
    # Iwasawa data of g^{-1} k (relative to |weight| |v|; 0.5 eps e^t
    # measured), and poisson_mc finite and within 4 stderr of the
    # closed form
    rng = np.random.default_rng(90 + n)
    spec = BundleSpec(n, p)
    pt = SpectralPoint(spec, sigma, 1.0)
    jj = np.diag([1.0] * n + [-1.0])
    for t in (9.0, 12.0):
        with mpmath.workdps(40):
            gm = group_mp(rng.normal(size=(n, n)), t, rng.normal(size=(n, n)))
            ks = [rotation_mp(rng.normal(size=(n, n))) for _ in range(6)]
            data = [iwasawa_mp(mpmath.matrix(jj) * gm.T * mpmath.matrix(jj) * k) for k in ks]
            kmats = np.array([k.tolist() for k in ks], dtype=float)[:, :n, :n]
        # rounded from an exact element: at t = 12 its slogdet is off by
        # about 1e-6, beyond what GroupElement's check accepts
        g = GroupElement(np.array(gm.tolist(), dtype=float), check=False)
        v = rng.normal(size=comb(n, p)) + 1j * rng.normal(size=comb(n, p))
        atom = BoundaryAtom(g, FormVector(n, p, v))
        sec = BoundarySection.from_atoms(pt, [(atom, 1.0)])
        got = sec.eval_batch(kmats)
        tol = 8.0 * np.finfo(float).eps * np.exp(t)
        for (h, _, kappa), val in zip(data, got):
            w = sqrt(dims(spec, sigma)[2]) * np.exp(-(-1j * pt.lam + pt.rho) * h)
            want = (w * (tau_matrix(kappa, p).T @ v)) @ proj_matrix(spec, sigma).T
            assert np.max(np.abs(val - want)) <= tol * abs(w) * np.linalg.norm(v)
        x = make_at(0.5, n)
        mc, se = poisson_mc(pt, sec, x, samples=4000, rng=np.random.default_rng(1))
        assert np.all(np.isfinite(mc.coeffs)) and np.isfinite(se)
        assert np.linalg.norm(mc.coeffs - poisson_atom(pt, atom, x).coeffs) <= 4.0 * se


def test_poisson_mc_memory_is_bounded_at_large_degree():
    # C(8,3) = 56: a chunk of 4096 rotations would hold (4096, 56, 56)
    # Lambda^3 arrays of about 100 MB each
    rng = np.random.default_rng(8)
    pt = SpectralPoint(BundleSpec(8, 3), sigma_q(3), 1.0)
    sec = BoundarySection.from_atoms(pt, [(_random_atom(8, 3, rng), 1.0)])
    x = make_at(0.5, 8)
    tracemalloc.start()
    try:
        poisson_mc(pt, sec, x, samples=4096, rng=rng)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2 ** 20


def test_fourier_direct_mc_memory_is_bounded_at_large_degree():
    # C(8,3) = 56: 4096 draws in one block would hold (4096, 56, 56)
    # Lambda^3 arrays of about 100 MB each
    spec = BundleSpec(8, 3)
    pt = SpectralPoint(spec, sigma_q(3), 1.0)
    f = bump_section(spec, 1.0)
    (k,) = haar_sample_K(8, size=1, rng=np.random.default_rng(3))
    tracemalloc.start()
    try:
        fourier_direct_mc(f, pt, k, 4096, rng=np.random.default_rng(4))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2 ** 20


def test_poisson_atom_at_origin_is_spherical(rng):
    pt = SpectralPoint(BundleSpec(3, 1), sigma_q(1), 1.2)
    atom = _random_atom(3, 1, rng)
    x = make_at(0.9, 3)
    want = spherical_at(pt, atom.g.inv() @ x) @ atom.v.coeffs
    got = poisson_atom(pt, atom, x).coeffs
    assert np.max(np.abs(got - want)) <= 1e-12


# ---------------------------------------------------------------------------
# Gram forms and the intertwiner


def test_gram_is_hermitian_psd(rng):
    pt = SpectralPoint(BundleSpec(3, 1), sigma_q(1), 1.0)
    atoms = [_random_atom(3, 1, rng) for _ in range(4)]
    g = gram_matrix(pt, atoms)
    assert np.max(np.abs(g - g.conj().T)) <= 1e-10
    w = np.linalg.eigvalsh(g)
    assert w.min() >= -1e-10


def test_gram_against_monte_carlo(rng):
    pt = SpectralPoint(BundleSpec(3, 1), sigma_q(1), 1.0)
    a1 = _random_atom(3, 1, rng)
    a2 = _random_atom(3, 1, rng)
    want = gram_matrix(pt, [a1, a2])[0, 1]
    ks = haar_sample_K(3, size=200000, rng=rng)
    s1 = BoundarySection.from_atoms(pt, [(a1, 1.0)]).eval_batch(ks)
    s2 = BoundarySection.from_atoms(pt, [(a2, 1.0)]).eval_batch(ks)
    prods = np.sum(s2.conj() * s1, axis=1)
    mean = prods.mean()
    se = prods.std() / np.sqrt(len(prods))
    assert abs(mean - want) <= 3.0 * se


def test_intertwiner_preserves_gram(rng):
    # unitarity of the relabeling map on random spans
    spec = BundleSpec(5, 2)
    pt = SpectralPoint(spec, SIGMA_PLUS, 1.3)
    atoms = [_random_atom(5, 2, rng) for _ in range(5)]
    sec = BoundarySection.from_atoms(pt, [(a, 1.0) for a in atoms])
    sec2 = u_intertwine(pt, sec)
    assert sec2.pt.lam == -pt.lam
    g1 = gram_matrix(pt, atoms)
    g2 = gram_matrix(sec2.pt, atoms)
    assert np.max(np.abs(g1 - g2)) <= 1e-10


def test_intertwiner_rejects_samplers():
    pt = SpectralPoint(BundleSpec(3, 1), sigma_q(1), 1.0)
    sec = BoundarySection.from_sampler(pt, lambda k: k, budget=1)
    with pytest.raises(ValueError):
        u_intertwine(pt, sec)


# ---------------------------------------------------------------------------
# compact sections and the Radon transform


def test_bump_section_is_right_covariant(rng):
    spec = BundleSpec(3, 1)
    f = bump_section(spec, 2.0)
    k1, k2 = haar_sample_K(3, size=2, rng=rng)
    g = (make_rotation(k1) @ make_at(0.7, 3)).mat
    u = make_rotation(k2).mat
    lhs = f.eval_batch((g @ u)[None])[0]
    rhs = tau_matrix(k2, 1).T @ f.eval_batch(g[None])[0]
    assert np.max(np.abs(lhs - rhs)) <= 1e-12


def test_bump_section_support(rng):
    spec = BundleSpec(3, 1)
    f = bump_section(spec, 1.5)
    far = make_at(2.0, 3).mat
    assert np.max(np.abs(f.eval_batch(far[None]))) == 0.0
    inside = make_at(0.5, 3).mat
    assert np.max(np.abs(f.eval_batch(inside[None]))) > 0.0


def test_bump_l2_norm_against_monte_carlo():
    # int |f|^2 over the radial shell, sampled from the radial density
    spec = BundleSpec(3, 1)
    f = bump_section(spec, 2.0)
    rng = np.random.default_rng(12)
    R = f.r_supp
    samples = 200000
    ts = rng.uniform(0.0, R, samples)
    ks1 = haar_sample_K(3, size=samples, rng=rng)
    ks2 = haar_sample_K(3, size=samples, rng=rng)
    import hyperform.liegroup as lg

    gs = lg.embed_rotation(ks1) @ lg.at_mats(ts, 3) @ lg.embed_rotation(ks2)
    vals = np.sum(np.abs(f.eval_batch(gs)) ** 2, axis=1)
    w = (2.0 * np.sinh(ts)) ** 2  # radial weight, n = 3
    est = R * np.mean(vals * w)
    se = R * np.std(vals * w) / np.sqrt(samples)
    assert abs(est - f.l2_norm() ** 2) <= 3.0 * se


def test_radon_vanishes_off_support(rng):
    spec = BundleSpec(3, 1)
    f = bump_section(spec, 1.2)
    (k,) = haar_sample_K(3, size=1, rng=rng)
    out = radon(f, 1.3, k)
    assert np.max(np.abs(out.coeffs)) == 0.0


def test_radon_batch_matches_single_calls(rng):
    # one batched call over a (k, t) grid, two radii outside the support
    from hyperform.transforms import radon_batch

    f = bump_section(BundleSpec(3, 1), 1.5)
    ks = haar_sample_K(3, size=3, rng=rng)
    ts = np.array([-1.6, -0.9, 0.0, 0.4, 1.2, 1.5])
    got = radon_batch(f, ts, ks)
    for i, k in enumerate(ks):
        for j, t in enumerate(ts):
            want = radon(f, t, k).coeffs
            assert np.max(np.abs(got[i, j] - want)) <= 1e-13 * max(1.0, np.max(np.abs(want)))
    assert np.max(np.abs(got[:, [0, -1]])) == 0.0


def test_radon_covariance_under_m(rng):
    # Radon f(t, k m) = tau(m)^{-1} Radon f(t, k)
    spec = BundleSpec(3, 1)
    f = bump_section(spec, 1.5)
    (k,) = haar_sample_K(3, size=1, rng=rng)
    theta = rng.uniform(0, 2 * np.pi)
    m = _embed_m(np.array([[np.cos(theta), -np.sin(theta)],
                           [np.sin(theta), np.cos(theta)]]))
    lhs = radon(f, 0.4, k @ m).coeffs
    rhs = tau_matrix(m, 1).T @ radon(f, 0.4, k).coeffs
    assert np.max(np.abs(lhs - rhs)) <= 1e-10


# ---------------------------------------------------------------------------
# Fourier coefficients


def test_fourier_sigma_covariance(rng):
    # F(km) = sigma(m)^{-1} F(k) on the sigma-isotype
    spec = BundleSpec(3, 1)
    pt = SpectralPoint(spec, sigma_q(1), 1.0)
    f = bump_section(spec, 1.5)
    (k,) = haar_sample_K(3, size=1, rng=rng)
    theta = rng.uniform(0, 2 * np.pi)
    m = _embed_m(np.array([[np.cos(theta), -np.sin(theta)],
                           [np.sin(theta), np.cos(theta)]]))
    lhs = fourier_helgason(f, pt, k @ m).coeffs
    rhs = tau_matrix(m, 1).T @ fourier_helgason(f, pt, k).coeffs
    assert np.max(np.abs(lhs - rhs)) <= 1e-10


def test_fourier_linearity(rng):
    spec = BundleSpec(3, 1)
    pt = SpectralPoint(spec, sigma_q(1), 1.0)
    v1 = np.array([1.0, 0.0, 0.0], dtype=complex)
    v2 = np.array([0.0, 0.5, -0.5j], dtype=complex)
    f1 = bump_section(spec, 1.5, v0=v1)
    f2 = bump_section(spec, 1.5, v0=v2)
    f12 = bump_section(spec, 1.5, v0=v1 + v2)
    (k,) = haar_sample_K(3, size=1, rng=rng)
    lhs = fourier_helgason(f12, pt, k).coeffs
    rhs = fourier_helgason(f1, pt, k).coeffs + fourier_helgason(f2, pt, k).coeffs
    assert np.max(np.abs(lhs - rhs)) <= 1e-10


def test_fourier_batch_matches_single_rotations(rng):
    # one radon_batch over every rotation, against one call per rotation
    for spec, sigma in ((BundleSpec(3, 1), sigma_q(1)), (BundleSpec(4, 2, "minus"), sigma_q(2))):
        pt = SpectralPoint(spec, sigma, 1.0)
        f = bump_section(spec, 2.0)
        ks = haar_sample_K(spec.n, size=5, rng=rng)
        got = fourier_batch(f, pt, ks, t_nodes=16, grid=8)
        want = np.array([fourier_helgason(f, pt, k, t_nodes=16, grid=8).coeffs for k in ks])
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want)), spec


def test_fourier_radon_route_matches_group_integral(rng):
    # quadrature route vs the direct Monte Carlo of the defining
    # G-integral, within 4 sigma
    spec = BundleSpec(3, 1)
    pt = SpectralPoint(spec, sigma_q(1), 1.0)
    f = bump_section(spec, 1.5)
    (k,) = haar_sample_K(3, size=1, rng=rng)
    want = fourier_helgason(f, pt, k).coeffs
    got, se = fourier_direct_mc(f, pt, k, samples=60000, rng=rng)
    assert np.linalg.norm(got.coeffs - want) <= 4.0 * se + 1e-8


def test_spectral_projection_is_right_k_covariant(rng):
    # Q f(g k0) = tau(k0)^T Q f(g) sample by sample at a shared seed:
    # H(k0^-1 y) = H(y) and kappa(k0^-1 y) = k0^-1 kappa(y)
    spec = BundleSpec(3, 1)
    pt = SpectralPoint(spec, sigma_q(1), 1.0)
    f = bump_section(spec, 1.5)
    k1, k0 = haar_sample_K(3, size=2, rng=rng)
    g = make_rotation(k1) @ make_at(0.6, 3)
    kwargs = dict(k_samples=32, t_nodes=16, grid=12)
    lhs, _ = spectral_projection(f, pt, g @ make_rotation(k0),
                                 rng=np.random.default_rng(5), **kwargs)
    rhs, _ = spectral_projection(f, pt, g, rng=np.random.default_rng(5), **kwargs)
    want = tau_matrix(k0, 1).T @ rhs.coeffs
    assert np.linalg.norm(lhs.coeffs - want) <= 1e-12 * np.linalg.norm(want)


def test_fourier_rejects_large_n():
    spec = BundleSpec(6, 2)
    pt = SpectralPoint(spec, sigma_q(1), 1.0)
    f = bump_section(spec, 1.0)
    with pytest.raises(ValueError):
        fourier_helgason(f, pt, np.eye(6))
