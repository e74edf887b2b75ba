"""Tests for ball averages of Poisson images: the extrapolated radial
limits, the dual-pairing inversion, and the windowed energy capture."""

import tracemalloc

import numpy as np
import mpmath
import pytest
from math import ceil, pi, sqrt

import hyperform.extrep as xr
import hyperform.liegroup as lg
import hyperform.spherical as sph
import hyperform.transforms as tfm
import hyperform.strichartz as st
from hyperform.extrep import BundleSpec, FormVector, sigma_q, SIGMA_PLUS
from hyperform.specialfn import gauss_legendre
from hyperform.spherical import SpectralPoint
from conftest import bump_coefficient, bump_norm2, kernel_points
from oracles import energy_capture_loop, inversion_mc_loop, j_pair_grid


def _unit(spec, seed=3):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(spec.dim_full) \
        + 1j * rng.standard_normal(spec.dim_full)
    if spec.chirality != "none":
        v = xr.chirality_matrix(spec.n, spec.chirality) @ v
    return FormVector(spec.n, spec.p, v / np.linalg.norm(v), spec=spec)


def _e_atom_section(pt, seed=3):
    atom = tfm.BoundaryAtom(lg.GroupElement(np.eye(pt.n + 1)),
                            _unit(pt.spec, seed=seed))
    return tfm.BoundarySection.from_atoms(pt, [(atom, 1.0)])


def _transpose_dual(spec, eta):
    # the label whose projector is the transpose of eta's
    P = xr.proj_matrix(spec, eta)
    for cand in xr.branching(spec):
        if np.allclose(P.T, xr.proj_matrix(spec, cand), atol=1e-12):
            return cand
    raise AssertionError(f"no transpose dual for {eta}")


def test_pairing_kernel_is_transpose_dual_spherical_component():
    # j_{eta',eta}(t; mu) = (d_eta / d_tau) phi^{(T eta', mu)}_{T eta}(-t)
    cases = [
        (BundleSpec(6, 2), sigma_q(2), 0.9),
        (BundleSpec(5, 2), sigma_q(2), 0.7),
        (BundleSpec(5, 2), SIGMA_PLUS, 0.7),
        (BundleSpec(4, 2, "plus"), sigma_q(2), 0.8),
        (BundleSpec(3, 1), sigma_q(1), 1.0),
        (BundleSpec(3, 1), sigma_q(0), 0.6),
    ]
    ts = np.array([0.3, 1.0, 2.2, 8.0, 20.0])
    for spec, sigma, lam in cases:
        pt = SpectralPoint(spec, sigma, lam)
        pair = j_pair_grid(pt, ts, lam, n_panels=16, n_nodes=32)
        d_tau = xr.dims(spec, xr.branching(spec)[0])[0]
        for b in xr.sigma_blocks(spec, sigma):
            ref_pt = SpectralPoint(spec, _transpose_dual(spec, b), lam)
            ref = sph.component_grid(ref_pt, -ts)
            for eta in xr.branching(spec):
                d_eta = xr.dims(spec, eta)[1]
                want = (d_eta / d_tau) * ref[_transpose_dual(spec, eta)]
                got = pair[(b, eta)]
                assert np.all(np.isfinite(got))
                scale = max(1.0, float(np.max(np.abs(want))))
                assert np.max(np.abs(got - want)) < 2e-7 * scale, \
                    (spec, sigma, b, eta)


def _oracle_ratios(pt, R):
    # inversion_ratios with the pairing kernel from the zonal quadrature
    ts, ws = st._osc_nodes(0.0, R, pt.lam_real, gauss_legendre(20))
    pair = j_pair_grid(pt, ts, pt.lam_real)
    s = np.exp(0.5 * pt.rho * ts)
    weight = st._stable_weight(ts, pt.n) * ws * pi * sph.plancherel_density(pt) / R
    grid = sph.component_grid(pt, ts)
    return {b: complex(np.sum(weight * sum(
                st._rescale(phi, s) * st._rescale(pair[(b, eta)], s)
                for eta, phi in grid.items())))
            for b in xr.sigma_blocks(pt.spec, pt.sigma)}


def test_closed_form_pairing_kernel_matches_zonal_quadrature():
    # j_{eta',eta}(t; mu) = (d_eta / d_tau) conj phi^{(eta', mu)}_eta(t):
    # (6,3,minus) is a bundle whose projectors transpose into the other
    # chirality's; the other cases pair against a kernel at mu != lambda
    cases = [
        (BundleSpec(6, 3, "minus"), sigma_q(3), 1.0, (0.5, 2.0)),
        (BundleSpec(3, 1), sigma_q(1), 1.7, (0.5, 2.0, 6.0)),
        (BundleSpec(5, 2), SIGMA_PLUS, 1.7, (0.5, 2.0, 6.0)),
    ]
    for spec, sigma, mu, ts in cases:
        pt = SpectralPoint(spec, sigma, 1.0)
        want = j_pair_grid(pt, np.array(ts), mu)
        d_tau = xr.dims(spec, xr.branching(spec)[0])[0]
        got = {}
        for b in xr.sigma_blocks(spec, sigma):
            phi = sph.component_grid(SpectralPoint(spec, b, mu), np.array(ts))
            for eta in xr.branching(spec):
                got[(b, eta)] = xr.dims(spec, eta)[1] / d_tau * np.conj(phi[eta])
        assert got.keys() == want.keys()
        for key in want:
            assert np.max(np.abs(got[key] - want[key])) < 1e-13, (spec, key)
    pt = SpectralPoint(BundleSpec(3, 1), sigma_q(1), 1.0)
    got = st.inversion_ratios(pt, 2.0)
    want = _oracle_ratios(pt, 2.0)
    for b in want:
        assert abs(got[b] - want[b]) < 1e-13


def _cross_term(lam, n, R):
    """(1/R) int_0^R e^{2(i lam - rho) t} (2 sinh t)^{n-1} dt = I(2 lam, R),
    the head integral of frequency 2 lam."""
    ramp, (wave,) = st._head_integrals([2.0 * lam], n, R)
    return ramp + wave


def test_cross_term_matches_direct_quadrature():
    mpmath.mp.dps = 30
    for n in (2, 3, 4, 6):
        rho = (n - 1) / 2.0
        for lam in (0.7, 1.9):
            for R in (1.5, 4.0):
                got = _cross_term(lam, n, R)

                def f(t):
                    return mpmath.e ** ((2j * lam - 2 * rho) * t) \
                        * (2 * mpmath.sinh(t)) ** (n - 1)

                want = complex(mpmath.quad(f, [0, R])) / R
                assert abs(got - want) < 1e-9 * max(1.0, abs(want))


@pytest.mark.parametrize("R", [0.0, -2.0, float("nan"), float("inf"), [5.0, 0.0]])
def test_cross_term_refuses_radii_outside_its_domain(R):
    with pytest.raises(ValueError, match="finite R > 0"):
        _cross_term(1.0, 3, R)


def test_cross_term_on_an_array_of_radii_is_the_scalar_call():
    radii = np.array([0.25, 1.5, 20.0, 200.0])
    for n in (2, 5, 8):
        got = _cross_term(1.3, n, radii)
        assert got.shape == radii.shape
        want = np.array([_cross_term(1.3, n, R) for R in radii])
        assert all(np.shape(_cross_term(1.3, n, R)) == () for R in radii)
        assert np.array_equal(got, want), n


def test_cross_term_decays_like_inverse_radius():
    # the magnitude oscillates in R with period pi / lam, so the decay
    # is judged on maxima over a phase cluster at each decade
    def cluster(R):
        return max(abs(_cross_term(1.0, 3, R + off))
                   for off in (0.0, 0.8, 1.6, 2.4))

    v10, v40, v160 = cluster(10.0), cluster(40.0), cluster(160.0)
    assert np.isfinite(v10) and np.isfinite(v40) and np.isfinite(v160)
    assert v160 < v40 < v10
    # R * |cross| stays bounded
    for R, v in ((10.0, v10), (40.0, v40), (160.0, v160)):
        assert R * v < 6.0


def test_ball_average_rotated_atom_matches_radial_route():
    spec = BundleSpec(3, 1)
    pt = SpectralPoint(spec, sigma_q(1), 1.0)
    R = 3.0
    vals, _, method = st._ball_sweep(pt, _e_atom_section(pt), [R])
    v_exact = vals[0, 0]
    assert method == "schur_1d"
    # an atom at a rotated base point has the same average, but is
    # evaluated through the Monte Carlo route
    k = lg.embed_rotation(lg.haar_sample_K(3, rng=np.random.default_rng(9)))
    atom = tfm.BoundaryAtom(lg.GroupElement(k), _unit(spec))
    sec = tfm.BoundarySection.from_atoms(pt, [(atom, 1.0)])
    vals, errs, m2 = st._ball_sweep(pt, sec, [R], k_samples=800,
                                    rng=np.random.default_rng(11))
    v_mc, se = vals[0, 0], errs[0, 0]
    assert m2 == "mc_k"
    assert abs(v_mc - v_exact) < 4.0 * se


def test_ball_average_translated_atom_is_finite_positive():
    spec = BundleSpec(3, 1)
    pt = SpectralPoint(spec, sigma_q(1), 1.0)
    g1 = lg.make_at(0.6, 3).mat @ lg.ny_mats(np.array([0.2, -0.4]), 3)
    atom = tfm.BoundaryAtom(lg.GroupElement(g1), _unit(spec, seed=5))
    sec = tfm.BoundarySection.from_atoms(pt, [(atom, 0.8 + 0.3j)])
    vals, errs, method = st._ball_sweep(pt, sec, [3.0], k_samples=400,
                                        rng=np.random.default_rng(2))
    v, se = vals[0, 0], errs[0, 0]
    assert method == "mc_k"
    assert np.isfinite(v) and v > 0.0
    assert np.isfinite(se) and se > 0.0


def _translated_section(pt, rng):
    # one atom at k a_t n_y, with a complex weight
    n = pt.n
    k = lg.embed_rotation(lg.haar_sample_K(n, rng=rng))
    g = k @ lg.make_at(0.7, n).mat @ lg.ny_mats(rng.uniform(-0.4, 0.4, n - 1), n)
    atom = tfm.BoundaryAtom(lg.GroupElement(g), _unit(pt.spec, seed=5))
    return tfm.BoundarySection.from_atoms(pt, [(atom, 0.8 + 0.3j)])


@pytest.mark.parametrize("kernel", ["spherical", "residual"])
def test_mc_k_ball_average_equals_scalar_loop(kernel):
    # the same Haar draws and t-nodes, one spherical_at (and
    # asymptotic_head) call per group element; the residual on two cases
    R, k_samples = 1.5, 8
    pts = kernel_points(lam=1.0)
    for pt in (pts if kernel == "spherical" else pts[1::4]):
        sec = _translated_section(pt, np.random.default_rng(21))
        (atom, c), = sec.atoms
        vals, _, method = st._ball_sweep(pt, sec, [R], kinds=(kernel,), k_samples=k_samples,
                                         rng=np.random.default_rng(4))
        got = vals[0, 0]
        assert method == "mc_k"
        ks = lg.haar_sample_K(pt.n, size=k_samples, rng=np.random.default_rng(4))
        ts, ws = st._osc_nodes(0.0, R, 1.0, gauss_legendre(12))
        per_k = np.zeros(k_samples)
        for j, k in enumerate(lg.embed_rotation(ks)):
            for t, w in zip(ts, ws):
                g = atom.g.inv().mat @ k @ lg.make_at(t, pt.n).mat
                op = sph.spherical_at(pt, g)
                if kernel == "residual":
                    op = op - sph.asymptotic_head(pt, g)
                val = c * op @ atom.v.coeffs
                per_k[j] += w * lg.radial_weight(t, pt.n) * np.sum(np.abs(val) ** 2)
        want = float(np.mean(per_k / R))
        assert abs(got - want) <= 1e-12 * abs(want), (pt.spec, str(pt.sigma), got, want)


def _rotated_section(pt, seed=9, weight=1.0):
    k = lg.embed_rotation(lg.haar_sample_K(pt.n, rng=np.random.default_rng(seed)))
    atom = tfm.BoundaryAtom(lg.GroupElement(k), _unit(pt.spec))
    return tfm.BoundarySection.from_atoms(pt, [(atom, weight)])


def test_mc_k_ball_average_refuses_a_non_finite_radius():
    # the sampled route sized its t-rule from the radius, and inf raised
    # OverflowError there; it now refuses as the Schur route does
    pt = SpectralPoint(BundleSpec(3, 1), sigma_q(1), 1.0)
    for R in (np.inf, np.nan):
        with pytest.raises(ValueError, match="ball radii must be positive and finite"):
            st.ball_average_atom(pt, _rotated_section(pt), R, k_samples=8)


def test_bump_transform_refuses_a_bump_whose_radial_weight_overflows(monkeypatch):
    # (2 sinh 120)^7 is not a finite float: refused before any sweep, and
    # with no overflow warning (the suite turns warnings into errors)
    def no_sweep(*_args, **_kwargs):
        raise AssertionError("the radial sweep ran on a refused bump")

    monkeypatch.setattr(st, "_radial_sweep", no_sweep)
    for spec, r in ((BundleSpec(8, 3), 120.0), (BundleSpec(3, 1), 400.0)):
        with pytest.raises(ValueError, match=r"outside the domain .* \(2 sinh r_supp\)"):
            st.bump_transform(tfm.bump_section(spec, r), [1.0])


def test_mc_k_limit_sweep_shares_draws_with_single_radius_calls():
    # one set of rotations serves the whole grid: each value is the
    # one-radius average on the same seed, up to the node layout's rounding
    grid, k_samples = (1.0, 1.5, 2.0, 2.5), 64
    for pt in (SpectralPoint(BundleSpec(3, 1), sigma_q(1), 1.0),
               SpectralPoint(BundleSpec(6, 2), sigma_q(2), 1.0)):
        sec = _rotated_section(pt)
        rep = st.strichartz_limit(pt, sec, R_grid=grid, k_samples=k_samples,
                                  rng=np.random.default_rng(13))
        assert rep.method == "mc_k"
        for R, got in zip(grid, rep.values):
            want = st.ball_average_atom(pt, sec, R, k_samples=k_samples,
                                        rng=np.random.default_rng(13))
            assert abs(got - want) <= 1e-12 * abs(want), (pt.spec, R, got, want)


def test_translated_residual_sweep_takes_deviation_and_average_from_one_draw():
    # the average is the one-radius spherical sweep on the same seed and
    # the deviation the residual sweep on the same draws and grid.  Against
    # the one-radius residual sweep the deviation agrees only to the
    # t-quadrature error: the head is not scalar at t = 0, so the residual
    # changes fast along rays passing near the base point, and the two node
    # layouts differ there by far more than rounding (9e-11 here)
    pt = SpectralPoint(BundleSpec(3, 1), sigma_q(1), 1.0)
    (atom, _), = _translated_section(pt, np.random.default_rng(21)).atoms
    sec = tfm.BoundarySection.from_atoms(pt, [(atom, 1.0)])
    grid, k_samples = (1.0, 2.0, 3.0), 48
    rows = st.asymptotic_residual_sweep(pt, atom, R_grid=grid,
                                        k_samples=k_samples,
                                        rng=np.random.default_rng(17))
    (devs,), _, method = st._ball_sweep(pt, sec, grid, kinds=("residual",),
                                        k_samples=k_samples,
                                        rng=np.random.default_rng(17))
    assert method == "mc_k"
    for R, row, dev in zip(grid, rows, devs):
        avg = st.ball_average_atom(pt, sec, R, k_samples=k_samples,
                                   rng=np.random.default_rng(17))
        assert abs(row["average"] - avg) <= 1e-12 * avg, (R, row["average"], avg)
        assert abs(row["deviation"] - dev) <= 1e-12 * dev, (R, row["deviation"], dev)
        (one,), _, _ = st._ball_sweep(pt, sec, [R], kinds=("residual",),
                                      k_samples=k_samples,
                                      rng=np.random.default_rng(17))
        assert abs(row["deviation"] - one[0]) <= 1e-6 * one[0], (R, row["deviation"], one[0])


def test_mc_k_ball_average_memory_is_bounded_at_large_degree():
    # C(8,3) = 56: 48 t-nodes of 32 rotations in one slab would hold
    # (1536, 56, 56) Lambda^3 and operator stacks of 40 to 80 MB each
    pt = SpectralPoint(BundleSpec(8, 3), sigma_q(3), 1.0)
    k = lg.embed_rotation(lg.haar_sample_K(8, rng=np.random.default_rng(5)))
    sec = tfm.BoundarySection.from_atoms(
        pt, [(tfm.BoundaryAtom(lg.GroupElement(k), _unit(pt.spec)), 1.0)])
    tracemalloc.start()
    try:
        val = st.ball_average_atom(pt, sec, 1.0, k_samples=32,
                                   rng=np.random.default_rng(1))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.isfinite(val) and val > 0.0
    assert peak < 64 * 2 ** 20


def _rotation_atom_section(pt, seed):
    # one atom at a Haar rotation, with a complex weight
    return _rotated_section(pt, seed, weight=0.6 - 0.7j)


def _mixed_section(pt, seed):
    # the rotation atom plus an atom away from the base point
    rotated = _rotation_atom_section(pt, seed).atoms
    translated = _translated_section(pt, np.random.default_rng(seed + 1)).atoms
    return tfm.BoundarySection.from_atoms(pt, rotated + translated)


def _scalar_loop_averages(pt, sec, R, k_samples, seed):
    """(1/R) int_{B(R)} of |sum_a w_a Psi(g_a^{-1} k a_t) v_a|^2 for the kinds
    spherical, head and residual, on the draws and t-nodes of _ball_sweep:
    one spherical_at and one asymptotic_head call per atom and element."""
    ks = lg.haar_sample_K(pt.n, size=k_samples, rng=np.random.default_rng(seed))
    ts, ws = st._osc_nodes(0.0, R, 1.0, gauss_legendre(12))
    per_k = np.zeros((3, k_samples))
    for j, k in enumerate(lg.embed_rotation(ks)):
        for t, w in zip(ts, ws):
            vals = np.zeros((3, pt.spec.dim_full), dtype=complex)
            for atom, c in sec.atoms:
                g = atom.g.inv().mat @ k @ lg.make_at(t, pt.n).mat
                phi, head = sph.spherical_at(pt, g), sph.asymptotic_head(pt, g)
                vals += [c * op @ atom.v.coeffs for op in (phi, head, phi - head)]
            per_k[:, j] += w * lg.radial_weight(t, pt.n) * np.sum(np.abs(vals) ** 2, axis=-1)
    return np.mean(per_k / R, axis=-1)


@pytest.mark.parametrize("make_section", [_rotation_atom_section, _mixed_section])
def test_sheet_ball_average_equals_scalar_loop(make_section):
    # atoms at a rotation take the factored sheet Psi(a_t) tau(k_a^T k)^T,
    # others the Cartan geometry; both against the per-element operators
    R, k_samples = 1.5, 3
    kinds = ("spherical", "head", "residual")
    for pt in kernel_points(lam=1.0):
        sec = make_section(pt, 31)
        got, _, method = st._ball_sweep(pt, sec, [R], kinds=kinds, k_samples=k_samples,
                                        rng=np.random.default_rng(6))
        assert method == "mc_k"
        want = _scalar_loop_averages(pt, sec, R, k_samples, 6)
        for kind, g, w in zip(kinds, got[:, 0], want):
            assert abs(g - w) <= 1e-12 * abs(w), (pt.spec, str(pt.sigma), kind, g, w)


def test_rotation_block_needs_the_whole_last_row_and_column():
    # g[n, n] = 1 + eps alone does not pin the base point: a boost by
    # t ~ sqrt(2 eps) has it, so the whole row and column are tested
    n = 3
    k = lg.embed_rotation(lg.haar_sample_K(n, rng=np.random.default_rng(2)))
    assert np.array_equal(lg.rotation_block(lg.GroupElement(k)), k[:n, :n])
    boost = lg.GroupElement(k @ lg.make_at(2e-7, n).mat)
    assert abs(boost.mat[n, n] - 1.0) <= 1e-12
    assert lg.rotation_block(boost) is None
    assert st._is_identity_atom(tfm.BoundaryAtom(lg.GroupElement(np.eye(n + 1)),
                                                 _unit(BundleSpec(n, 1))))
    assert not st._is_identity_atom(tfm.BoundaryAtom(lg.GroupElement(k), _unit(BundleSpec(n, 1))))


def test_limit_hits_density_target_within_one_percent():
    cases = [
        (BundleSpec(6, 2), sigma_q(2), 1.0),
        (BundleSpec(4, 2, "plus"), sigma_q(2), 1.0),
        (BundleSpec(5, 2), SIGMA_PLUS, 0.5),
    ]
    for spec, sigma, lam in cases:
        pt = SpectralPoint(spec, sigma, lam)
        rep = st.strichartz_limit(pt, _e_atom_section(pt))
        assert rep.method == "schur_1d"
        rel = abs(rep.extrapolated_limit - rep.target) / rep.target
        assert rel < 0.01, (spec, sigma, rel)
        # two-sided comparison constant stays moderate
        assert 1.0 <= rep.bound_constant < 2.5


def test_limit_rejects_short_grid():
    spec = BundleSpec(3, 1)
    pt = SpectralPoint(spec, sigma_q(1), 1.0)
    with pytest.raises(ValueError):
        st.strichartz_limit(pt, _e_atom_section(pt), R_grid=(5.0, 10.0))


@pytest.mark.parametrize("n, grid, message", [
    (3, (5.0, 10.0), "too short"),
    (3, (0.0, 10.0, 20.0, 40.0), "positive"),
    (3, (400.0, 25.0, 50.0, 100.0), "strictly increasing"),
    (4, (0.5, 25.0, 50.0, 300.0), "n=4 cutoff"),
])
def test_fitted_sweeps_refuse_a_bad_grid_before_any_quadrature(n, grid, message, monkeypatch):
    def no_sweep(*_args, **_kwargs):
        raise AssertionError("the radial sweep ran on a refused grid")

    monkeypatch.setattr(st, "_radial_sweep", no_sweep)
    pt = SpectralPoint(BundleSpec(n, 1), sigma_q(1), 1.0)
    with pytest.raises(ValueError, match=message):
        st.strichartz_limit(pt, _e_atom_section(pt), R_grid=grid)
    with pytest.raises(ValueError, match=message):
        st.eisenstein_hs_limit(pt, R_grid=grid)
    ones = [1.0] * len(grid)
    with pytest.raises(ValueError, match=message):
        st.BallAverageReport(n, grid, ones, ones, 1.0, "schur_1d", 0.0)


def test_hilbert_schmidt_limit_matches_density_target():
    pt = SpectralPoint(BundleSpec(6, 2), sigma_q(2), 1.0)
    rep = st.eisenstein_hs_limit(pt)
    rel = abs(rep.extrapolated_limit - rep.target) / rep.target
    assert rel < 0.01


def test_inversion_ratios_match_closed_law():
    # single e-atom at n = 3, p = 1: r(R) = 1 - cos(lam R)^2 / R exactly
    pt = SpectralPoint(BundleSpec(3, 1), sigma_q(1), 1.0)
    for R in (20.0, 40.0):
        ratios = st.inversion_ratios(pt, R)
        law = 1.0 - np.cos(R) ** 2 / R
        vals = list(ratios.values())
        assert len(vals) == 2
        for r in vals:
            assert abs(r.imag) < 1e-13
            assert abs(r - law) < 1e-12
        assert abs(vals[0] - vals[1]) < 1e-12


def _every_point(lam):
    # each bundle at n = 2..8 with each of its labels, the unsplit
    # sigma_p of the half-odd bundles included
    for n in range(2, 9):
        for p in range(1, n // 2 + 1):
            for chi in (("plus", "minus") if 2 * p == n else ("none",)):
                spec = BundleSpec(n, p, chi)
                labels = list(xr.branching(spec))
                if spec.case == "half_odd":
                    labels.append(sigma_q(p))
                for sigma in labels:
                    yield SpectralPoint(spec, sigma, lam)


def test_matched_inversion_ratios_are_schur_ball_averages():
    # the pairing psi_eta conj phi^{(b, lambda)}_eta with each block's own
    # point is the square profile of sigma (for sigma_p the odd parts of
    # sigma^+- cancel), so every r_b'(R) is pi nu times the ball average of
    # a unit identity atom
    ts = np.linspace(0.05, 6.0, 40)
    for pt in _every_point(0.8):
        square = st._weighted_square_profile(pt, ts)
        d_tau = xr.dims(pt.spec, xr.branching(pt.spec)[0])[0]
        s = np.exp(0.5 * pt.rho * ts)
        psi = sph.component_grid(pt, ts)
        for b in xr.sigma_blocks(pt.spec, pt.sigma):
            phi = sph.component_grid(SpectralPoint(pt.spec, b, 0.8), ts)
            paired = st._stable_weight(ts, pt.n) * sum(
                xr.dims(pt.spec, eta)[1] / d_tau * st._rescale(vals, s)
                * np.conj(st._rescale(phi[eta], s)) for eta, vals in psi.items())
            assert np.max(np.abs(paired - square)) <= 1e-14 * np.max(square), (pt, b)
        nu = sph.plancherel_density(pt)
        sec = _e_atom_section(pt)
        for R in (3.0, 20.0):
            want = pi * nu * st.ball_average_atom(pt, sec, R)
            ratios = st.inversion_ratios(pt, R)
            assert ratios.keys() == set(xr.sigma_blocks(pt.spec, pt.sigma))
            for r in ratios.values():
                assert abs(r - want) <= 1e-13 * want, (pt, R)


def test_inversion_ratios_on_a_grid_are_the_single_radius_values():
    # one call over an array of radii (one sweep) gives each radius's
    # ratios as complex arrays; a scalar radius gives complex values
    radii = np.array([3.0, 20.0, 80.0])
    for pt in (SpectralPoint(BundleSpec(3, 1), sigma_q(1), 1.0),
               SpectralPoint(BundleSpec(5, 2), SIGMA_PLUS, 2.3),
               SpectralPoint(BundleSpec(4, 2, "plus"), sigma_q(2), 1.0)):
        grid = st.inversion_ratios(pt, radii)
        for i, R in enumerate(radii):
            one = st.inversion_ratios(pt, R)
            assert one.keys() == grid.keys()
            for b, r in one.items():
                assert type(r) is complex
                assert grid[b].dtype == complex and grid[b].shape == radii.shape
                assert abs(grid[b][i] - r) <= 1e-13 * max(abs(r), 1.0), (pt, R)


def test_inversion_ratios_raise_where_the_sweep_cannot_converge(monkeypatch):
    monkeypatch.setattr(st, "_SWEEP_RTOL", 0.0)
    pt = SpectralPoint(BundleSpec(3, 1), sigma_q(1), 1.0)
    with pytest.raises(ArithmeticError, match="radial quadrature to R=20 did not converge"):
        st.inversion_ratios(pt, 20.0)


def test_reconstruct_reduced_path_matches_literal_monte_carlo():
    # n = 2 too: the reduced reconstruction needs no zonal reduction
    for spec in (BundleSpec(3, 1), BundleSpec(2, 1, "plus"), BundleSpec(2, 1, "minus")):
        pt = SpectralPoint(spec, sigma_q(1), 1.0)
        sec = _e_atom_section(pt)
        red = st.inversion_reconstruct(pt, sec, 2.0, samples=64,
                                       method="reduced")
        mc = st.inversion_reconstruct(pt, sec, 2.0, samples=64, method="mc",
                                      mc_k1=4000, rng=np.random.default_rng(1))
        ks = lg.haar_sample_K(pt.n, size=16, rng=np.random.default_rng(7))
        a = red.eval_batch(ks)
        b = mc.eval_batch(ks)
        assert np.max(np.abs(a - b)) < 0.12 * np.max(np.abs(a)), spec


@pytest.mark.parametrize("make_section", [_rotation_atom_section, _mixed_section])
def test_reconstruct_mc_equals_per_node_oracle(make_section):
    # the factored sheet (and the Cartan slabs of a translated atom)
    # against one radial_batch per atom and t-node, on the same draws
    for pt in (SpectralPoint(BundleSpec(3, 1), sigma_q(1), 1.0),
               SpectralPoint(BundleSpec(5, 2), SIGMA_PLUS, 1.0)):
        ks = lg.haar_sample_K(pt.n, size=3, rng=np.random.default_rng(8))
        sec = make_section(pt, 41)
        rec = st.inversion_reconstruct(pt, sec, 1.5, samples=8, method="mc",
                                       mc_k1=300, rng=np.random.default_rng(12))
        got = rec.eval_batch(ks)
        want = inversion_mc_loop(pt, sec, 1.5, ks, 300, np.random.default_rng(12))
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want)), pt.spec


@pytest.mark.parametrize("spec, sigma, lam", [(BundleSpec(3, 1), sigma_q(1), 1.0),
                                           (BundleSpec(6, 2), sigma_q(2), 1.0),
                                           (BundleSpec(4, 2, "plus"), sigma_q(2), 1.3)])
def test_reconstruct_mc_of_a_base_point_atom_equals_per_node_oracle(spec, sigma, lam):
    # the benchmark's section: one atom at the identity, R = 2
    pt = SpectralPoint(spec, sigma, lam)
    sec = _e_atom_section(pt, seed=17)
    ks = lg.haar_sample_K(pt.n, size=2, rng=np.random.default_rng(18))
    rec = st.inversion_reconstruct(pt, sec, 2.0, samples=8, method="mc",
                                   mc_k1=500, rng=np.random.default_rng(19))
    got = rec.eval_batch(ks)
    want = inversion_mc_loop(pt, sec, 2.0, ks, 500, np.random.default_rng(19))
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("R, mc_k1, match", [
    (-1.0, 100, "ball radii must be positive"),
    (0.0, 100, "ball radii must be positive"),
    (float("nan"), 100, "ball radii must be positive"),
    (float("inf"), 100, "ball radii must be positive"),
    (2.0, 0, "mc_k1 must be a positive integer"),
    (2.0, -3, "mc_k1 must be a positive integer"),
    (2.0, 10.0, "mc_k1 must be a positive integer"),
    (2.0, True, "mc_k1 must be a positive integer"),
])
def test_reconstruct_mc_refuses_a_bad_radius_or_sample_count(R, mc_k1, match):
    pt = SpectralPoint(BundleSpec(3, 1), sigma_q(1), 1.0)
    with pytest.raises(ValueError, match=match):
        st.inversion_reconstruct(pt, _e_atom_section(pt), R, samples=8, method="mc",
                                 mc_k1=mc_k1)


@pytest.mark.parametrize("method", ["reduced", "mc"])
@pytest.mark.parametrize("R", [[2.0, 20.0], np.array([2.0]), 0.0, float("inf"), float("nan")],
                         ids=["list", "array", "zero", "inf", "nan"])
def test_reconstruct_takes_exactly_one_radius(method, R, monkeypatch):
    # refused before any sweep; at (2,1,+) two radii used to broadcast
    # against the C(2,1) = 2 coefficients and return neither F_2 nor F_20
    def no_sweep(*_args, **_kwargs):
        raise AssertionError("the reconstruction ran a sweep")

    monkeypatch.setattr(st, "_schur_sweep", no_sweep)
    monkeypatch.setattr(st, "_sweep_rule", no_sweep)
    for pt in (SpectralPoint(BundleSpec(2, 1, "plus"), sigma_q(1), 1.0),
               SpectralPoint(BundleSpec(3, 1), sigma_q(1), 1.0)):
        with pytest.raises(ValueError, match="ball radii must be positive"):
            st.inversion_reconstruct(pt, _e_atom_section(pt), R, samples=8, method=method)


def test_reconstruct_mc_memory_is_bounded_for_a_translated_atom():
    # 64 t-nodes of 4000 rotations: the image itself is 12.3 MB, and the
    # Cartan geometry of the whole sheet at once would hold about 190 MB
    pt = SpectralPoint(BundleSpec(3, 1), sigma_q(1), 1.0)
    sec = _translated_section(pt, np.random.default_rng(21))
    tracemalloc.start()
    try:
        st.inversion_reconstruct(pt, sec, 2.0, samples=8, method="mc", mc_k1=4000,
                                 rng=np.random.default_rng(1))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 24 * 2 ** 20


def test_inversion_mix_is_the_reduced_reconstruction():
    # F_R = r(R) F: one ratio for every block of sigma, the unsplit
    # sigma_2 of (5,2) included
    for sigma in (SIGMA_PLUS, sigma_q(2)):
        pt = SpectralPoint(BundleSpec(5, 2), sigma, 1.0)
        sec = _rotation_atom_section(pt, 3)
        (r,) = set(st.inversion_ratios(pt, 5.0).values())
        ks = lg.haar_sample_K(5, size=6, rng=np.random.default_rng(4))
        rec = st.inversion_reconstruct(pt, sec, 5.0, samples=6)
        assert np.array_equal(rec.eval_batch(ks), r * sec.eval_batch(ks)), sigma


def test_reconstruction_error_follows_cosine_squared_law():
    pt = SpectralPoint(BundleSpec(3, 1), sigma_q(1), 1.0)
    sec = _e_atom_section(pt)
    ks = lg.haar_sample_K(3, size=4000, rng=np.random.default_rng(3))
    truth = sec.eval_batch(ks)
    denom = np.mean(np.sum(np.abs(truth) ** 2, axis=-1))
    # `samples` is the evaluation budget of the returned sampler section
    for R in (20.0, 80.0):
        rec = st.inversion_reconstruct(pt, sec, R, samples=10000)
        got = rec.eval_batch(ks)
        err = sqrt(np.mean(np.sum(np.abs(got - truth) ** 2, axis=-1)) / denom)
        assert abs(err - np.cos(R) ** 2 / R) < 1e-6


def test_residual_sweep_deviation_halves_per_doubling():
    pt = SpectralPoint(BundleSpec(6, 2), sigma_q(2), 1.0)
    atom = tfm.BoundaryAtom(lg.GroupElement(np.eye(7)), _unit(pt.spec))
    rows = st.asymptotic_residual_sweep(pt, atom, R_grid=(10.0, 20.0, 40.0))
    devs = [r["deviation"] for r in rows]
    ratios = [r["ratio"] for r in rows]
    for a, b in zip(devs, devs[1:]):
        assert 1.9 < a / b < 2.1
    assert ratios[0] > ratios[1] > ratios[2] > 0.0


def _sweep_panel_edges(R_grid, lam):
    # an mpmath oracle's panel edges: each [R_{j-1}, R_j] split into at
    # least four equal panels no wider than a quarter period of
    # e^{2 i lam t} (the exact integral does not depend on the split)
    width = pi / max(2.0 * lam, 0.5) / 2.0
    edges = [0.0]
    for a, b in zip((0.0,) + tuple(R_grid[:-1]), R_grid):
        panels = max(ceil((b - a) / width), 4)
        edges += list(np.linspace(a, b, panels + 1)[1:])
    return edges


# one rule object, whose cache keeps the nodes of each degree on [-1, 1]
_MPMATH_GAUSS_LEGENDRE = mpmath.calculus.quadrature.GaussLegendre(mpmath.mp)


def _mpmath_panel_quad(profile, a, b):
    # mpmath's Gauss-Legendre nodes and weights of degree m (3 * 2^(m-1)
    # nodes) on [a, b], the profile taken on all of them in one call; the
    # node count doubles until two degrees agree to 1e-14
    rule = _MPMATH_GAUSS_LEGENDRE
    prev = None
    for degree in range(3, 10):
        nodes = rule.get_nodes(mpmath.mpf(a), mpmath.mpf(b), degree, mpmath.mp.prec)
        vals = profile(np.array([float(x) for x, _ in nodes]))
        total = mpmath.fsum(w * float(v) for (_, w), v in zip(nodes, vals))
        if prev is not None and abs(total - prev) <= 1e-14 * abs(total):
            return total
        prev = total
    raise AssertionError(f"mpmath quadrature on [{a}, {b}] did not settle")


def test_radial_sweep_matches_mpmath_quadrature():
    R_grid = (2.5, 5.0, 10.0)
    for spec, sigma in ((BundleSpec(6, 2), sigma_q(1)),
                        (BundleSpec(4, 2, "plus"), sigma_q(2))):
        pt = SpectralPoint(spec, sigma, 1.0)

        def profile(ts):
            return st._weighted_square_profile(pt, ts)

        got, _ = st._radial_sweep(profile, R_grid, 1.0)
        edges = _sweep_panel_edges(R_grid, 1.0)
        total = mpmath.mpf(0)
        want = []
        for a, b in zip(edges, edges[1:]):
            total += _mpmath_panel_quad(profile, a, b)
            if b in R_grid:
                want.append(float(total))
        assert len(want) == len(R_grid)
        for g, w in zip(got, want):
            assert abs(g - w) < 1e-12 * abs(w), (spec, g, w)


def test_radial_sweep_cumulative_equals_single_radius():
    pt = SpectralPoint(BundleSpec(5, 2), SIGMA_PLUS, 0.5)

    def profile(ts):
        return st._weighted_square_profile(pt, ts)

    R_grid = (1.5, 12.5, 25.0, 50.0)
    vals, errs = st._radial_sweep(profile, R_grid, 0.5)
    assert np.all(errs <= 1e-10 * vals)
    for R, v in zip(R_grid, vals):
        single, _ = st._radial_sweep(profile, [R], 0.5)
        assert abs(single[0] - v) < 1e-13 * v, R


def test_radial_sweep_raises_on_unresolved_or_nonfinite_profile():
    # cos^2(40 t) oscillates far above the panel scale set by lam = 1
    with pytest.raises(ArithmeticError):
        st._radial_sweep(lambda ts: np.cos(40.0 * ts) ** 2, (5.0, 10.0), 1.0)
    with pytest.raises(ArithmeticError):
        st._radial_sweep(lambda ts: np.where(ts > 7.0, np.inf, 1.0),
                         (5.0, 10.0), 1.0)


def test_radial_sweep_refuses_a_non_finite_radius():
    for radii in ([np.inf], [1.0, np.inf], [np.nan]):
        with pytest.raises(ValueError, match="ball radii must be positive and finite"):
            st._radial_sweep(lambda ts: np.exp(-ts), radii, 1.0)


def test_radial_sweep_takes_31_nodes_per_half_period_panel():
    # [0, 10] and [10, 40] in panels of pi/2 at lam = 1: 7 + 20 panels of
    # 31 nodes
    seen = []

    def spy(ts):
        seen.append(ts.size)
        return np.exp(-0.1 * ts) * (1.0 + np.cos(2.0 * ts) ** 2)

    vals, errs = st._radial_sweep(spy, (10.0, 40.0), 1.0)
    assert sum(seen) <= 27 * 31
    assert np.all(errs <= 1e-10 * vals)


def _kronrod_table_mpmath():
    """The G15/K31 pair on [-1, 1] at 40 digits: the 16 non-negative K31
    nodes ascending and their weights, from the roots of the Stieltjes
    polynomial E_16 of P_15 (orthogonal to every x^j, j < 16, under the
    weight P_15) and the moment solve; the 8 non-negative G15 nodes
    ascending and their Gauss weights."""
    from fractions import Fraction

    def legendre(n, x):   # P_{n-1}(x), P_n(x)
        prev, cur = 0, 1
        for k in range(n):
            prev, cur = cur, ((2 * k + 1) * x * cur - k * prev) / (k + 1)
        return prev, cur

    def moment(coeffs, m):
        return sum(c * Fraction(2, i + m + 1) for i, c in enumerate(coeffs) if (i + m) % 2 == 0)

    # P_15 in exact rational coefficients, ascending powers, by the
    # three-term recurrence
    prev, p15 = [Fraction(1)] + [Fraction(0)] * 15, [Fraction(0), Fraction(1)] + [Fraction(0)] * 14
    for k in range(1, 15):
        prev, p15 = p15, [((2 * k + 1) * (p15[i - 1] if i else 0) - k * prev[i]) / (k + 1)
                          for i in range(16)]
    # E_16 is even, x^16 + sum_{i<8} e_i x^{2i}; the even x^j are orthogonal
    # to it by parity, the odd ones give 8 equations, solved exactly
    rows = [[moment(p15, 2 * i + j) for i in range(8)] + [-moment(p15, 16 + j)]
            for j in range(1, 16, 2)]
    for c in range(8):
        piv = next(r for r in range(c, 8) if rows[r][c] != 0)
        rows[c], rows[piv] = rows[piv], rows[c]
        for r in range(8):
            if r != c:
                f = rows[r][c] / rows[c][c]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[c])]
    e16 = [rows[i][8] / rows[i][i] for i in range(8)] + [Fraction(1)]
    with mpmath.workdps(40):
        def roots(coeffs):   # non-negative roots x of a polynomial in x^2
            ys = mpmath.polyroots([mpmath.mpf(c.numerator) / c.denominator
                                   for c in reversed(coeffs)], maxsteps=200, extraprec=200)
            return sorted(mpmath.sqrt(y) for y in ys)

        gauss = [mpmath.mpf(0)] + roots(p15[1::2])
        nodes = sorted(gauss + roots(e16))
        # sum_i w_i P_2k(x_i) over all 31 nodes = 2 [k = 0], k < 16
        mat = mpmath.matrix([[(1 if i == 0 else 2) * legendre(2 * k, x)[1]
                              for i, x in enumerate(nodes)] for k in range(16)])
        weights = mpmath.lu_solve(mat, mpmath.matrix([2] + [0] * 15))
        g_weights = []
        for x in gauss:
            pm1, pn = legendre(15, x)
            dp = 15 * (x * pn - pm1) / (x * x - 1)
            g_weights.append(2 / ((1 - x * x) * dp * dp))
        return ([float(x) for x in nodes], [float(w) for w in weights],
                [float(x) for x in gauss], [float(w) for w in g_weights])


def test_kronrod_table_matches_mpmath_and_is_exact_to_its_degrees():
    nodes, weights, g_nodes, g_weights = _kronrod_table_mpmath()
    for lit, want in ((st._K31_NODES, nodes), (st._K31_WEIGHTS, weights),
                      (st._G15_WEIGHTS, g_weights)):
        want = np.array(want)
        assert lit.shape == want.shape
        assert np.all(np.abs(lit - want) <= 2 * np.spacing(np.abs(want))), (lit - want)
    xs, (wk, wg) = st._G15_K31
    assert xs.shape == (31,) and np.all(np.diff(xs) > 0.0)
    # G15 is K31 on its odd-indexed nodes, and costs no node of its own
    g_full = np.concatenate((-np.array(g_nodes[:0:-1]), g_nodes))
    assert np.all(np.abs(xs[1::2] - g_full) <= 2 * np.spacing(np.abs(g_full)))
    assert np.all(wg[::2] == 0.0)
    assert np.all(wk > 0.0) and np.all(wg[1::2] > 0.0)
    # exact on x^k up to degree 46 (K31) and 29 (G15)
    def miss(w, k):
        return abs(float(np.sum(w * xs ** k)) - (2.0 / (k + 1) if k % 2 == 0 else 0.0))

    assert all(miss(wk, k) < 1e-15 for k in range(47))
    assert all(miss(wg, k) < 1e-15 for k in range(30))


def _mpmath_sweep(profile, R_grid, lam):
    # int_0^R of the profile for every R of R_grid, panel by panel
    edges = _sweep_panel_edges(R_grid, lam)
    total = mpmath.mpf(0)
    want = []
    for a, b in zip(edges, edges[1:]):
        total += _mpmath_panel_quad(profile, a, b)
        if b in R_grid:
            want.append(float(total))
    assert len(want) == len(R_grid)
    return want


# past t = 0.25 at lam = 25 and 40 the (6,2) profile carries a rounding
# noise near 1e-14, which keeps the oracle's degrees from agreeing to 1e-14
@pytest.mark.parametrize("lam, R_grid", [(0.01, (2.5, 5.0, 10.0)), (0.1, (2.5, 5.0, 10.0)),
                                         (25.0, (0.125, 0.25)), (40.0, (0.125, 0.25))])
def test_radial_sweep_matches_mpmath_at_small_and_large_lambda(lam, R_grid):
    for spec, sigma in ((BundleSpec(3, 1), sigma_q(1)), (BundleSpec(6, 2), sigma_q(2))):
        pt = SpectralPoint(spec, sigma, lam)

        def profile(ts):
            return st._weighted_square_profile(pt, ts)

        got, _ = st._radial_sweep(profile, R_grid, lam)
        for g, w in zip(got, _mpmath_sweep(profile, R_grid, lam)):
            assert abs(g - w) < 1e-12 * abs(w), (spec, lam, g, w)

def test_head_ball_average_approaches_comparison_asymptote():
    spec = BundleSpec(6, 2)
    pt = SpectralPoint(spec, sigma_q(2), 1.0)
    c2 = abs(sph._c_sigma_scalar(spec, pt.sigma, pt.lam)) ** 2
    d_tau, d_sigma = xr.dims(spec, pt.sigma)[:2]
    asym = 2.0 * c2 * d_sigma / d_tau
    h25 = st.head_ball_average(pt, 25.0)
    h100 = st.head_ball_average(pt, 100.0)
    for h in (h25, h100):
        assert 0.9 * asym < h < 1.02 * asym
    assert abs(h100 - asym) < abs(h25 - asym)


@pytest.mark.parametrize("lam", [0.3, 1.0, 2.3, 5.0])
def test_closed_form_head_average_matches_the_head_sweep(lam, monkeypatch):
    # H(R) against the quadrature of the head kind at every point; the
    # closed form runs no sweep
    radii = np.array([1.0, 5.0, 20.0, 80.0])
    pts = list(_every_point(lam))
    sweeps = [st._radial_sweep(lambda ts, pt=pt: st._weighted_square_profile(pt, ts, kind="head"),
                               radii, lam)[0] / radii for pt in pts]

    def no_sweep(*_args, **_kwargs):
        raise AssertionError("the head average ran a radial sweep")

    monkeypatch.setattr(st, "_radial_sweep", no_sweep)
    for pt, want in zip(pts, sweeps):
        got = np.array([st.head_ball_average(pt, R) for R in radii])
        assert np.all(np.abs(got - want) <= 1e-12 * want), (pt, got, want)


@pytest.mark.parametrize("lam", [1.0, 2.3])
def test_averages_past_twice_r0_match_a_direct_sweep(lam):
    # the closed-form head plus the residual constant against the sweep
    # of the whole radius, for the spherical and the residual kind; the
    # components underflow past t ~ 157 at n = 8
    kinds = ("spherical", "residual")
    for pt in _every_point(lam):
        if pt.n < 3:
            continue
        radii = np.array([50.0, 100.0, 150.0] if pt.n >= 7 else [50.0, 100.0, 200.0])
        got, errs = st._schur_sweep(pt, radii, kinds=kinds)
        want, _ = st._radial_sweep(lambda ts, pt=pt: st._weighted_square_profile(pt, ts, kind=kinds),
                                   radii, lam)
        want = want / radii
        assert np.all(np.abs(got - want) <= 1e-10 * want), pt
        # the error estimate: quadrature plus the R0 / 2 R0 gap
        assert np.all(errs <= 1e-12 * got), (pt, errs / got)


def test_mismatched_inversion_ratios_reach_past_the_underflow():
    # a sweep of [0, 200] meets the component underflow at n = 8; the
    # closed-form head past 2 R0 does not
    ratios = st.inversion_ratios(SpectralPoint(BundleSpec(8, 3), sigma_q(3), 1.0), 200.0)
    assert ratios and all(np.isfinite(r) for r in ratios.values())


def test_head_integrals_raise_where_their_forms_cancel():
    # at large lambda and small R the binomial terms and the series steps
    # both cancel far below their sizes
    for lam, R in ((100.0, 0.1), (1000.0, 0.01)):
        with pytest.raises(ArithmeticError, match="cancel"):
            _cross_term(lam, 8, R)


@pytest.mark.parametrize("lam", [0.1, 0.3, 1.0])
def test_limit_is_the_head_weight_at_frequency_zero(lam, monkeypatch):
    # the limit is L_head ||F||^2 from the c-functions and the target
    # ||F||^2 / (pi nu) from the Plancherel density: they agree at every
    # point, and a density off by 1e-6 shows as a gap
    pts = [pt for pt in _every_point(lam) if pt.n >= 3]
    for pt in pts:
        rep = st.strichartz_limit(pt, _e_atom_section(pt))
        assert abs(rep.extrapolated_limit / rep.target - 1.0) <= 1e-13, pt
        hs = st.eisenstein_hs_limit(pt)
        assert abs(hs.extrapolated_limit / hs.target - 1.0) <= 1e-13, pt
    density = st.plancherel_density
    monkeypatch.setattr(st, "plancherel_density", lambda pt: density(pt) * (1.0 + 1e-6))
    for pt in pts:
        rep = st.strichartz_limit(pt, _e_atom_section(pt))
        assert abs(rep.extrapolated_limit / rep.target - 1.0) >= 5e-7, pt


@pytest.mark.parametrize("spec, sigma", [
    (BundleSpec(3, 1), sigma_q(1)),
    (BundleSpec(6, 2), sigma_q(2)),
    (BundleSpec(5, 2), SIGMA_PLUS),
    (BundleSpec(4, 2, "plus"), sigma_q(2)),
])
def test_a_wrong_head_coefficient_fails_the_limit_sweep(spec, sigma, monkeypatch):
    # a c_sigma off by delta leaves a residual of order delta |head|^2 that
    # does not decay, so the residual constants of [0, R0] and [0, 2 R0]
    # part by about delta R0
    pt = SpectralPoint(spec, sigma, 1.0)
    rep = st.strichartz_limit(pt, _e_atom_section(pt))
    assert max(s / v for s, v in zip(rep.stderrs, rep.values)) < 1e-12
    c_s = sph._c_sigma_scalar
    monkeypatch.setattr(sph, "_c_sigma_scalar", lambda *args: c_s(*args) * (1.0 + 1e-6))
    pt = SpectralPoint(spec, sigma, 1.0)
    with pytest.raises(ArithmeticError, match="residual constant"):
        st.strichartz_limit(pt, _e_atom_section(pt))


def test_energy_window_capture_is_one_sided():
    f = tfm.bump_section(BundleSpec(3, 1), 1.0)
    lam_grid = np.linspace(0.25, 4.0, 7)
    cap, det = st.spectral_projection_energy(
        f, lam_grid, R=4.0, g_samples=64, k_samples=300, t_nodes=24,
        grid=16, rng=np.random.default_rng(0), details=True)
    assert cap > 0.0
    assert np.isclose(det["norm_f2"], bump_norm2(f), rtol=1e-10)
    # window truncation keeps the captured fraction below one
    assert 0.5 < det["fraction"] < 1.05
    assert all(row["energy"] > 0.0 for row in det["rows"])
    assert det["window"] == (0.25, 4.0)


def test_energy_capture_matches_monte_carlo_loop_mean():
    # the Monte Carlo oracle is unbiased up to its horocycle quadrature, so
    # its mean over seeds meets every closed-form row within 4 stderr
    f = tfm.bump_section(BundleSpec(3, 1), 1.0)
    lam_grid = np.linspace(0.25, 4.0, 5)
    cap, det = st.spectral_projection_energy(f, lam_grid, R=2.0, details=True)
    runs = [energy_capture_loop(f, lam_grid, 2.0, 48, 120, 16, 12, np.random.default_rng(seed))
            for seed in range(24)]
    # and it is one value, whatever the draws the estimator once took
    assert st.spectral_projection_energy(f, lam_grid, R=2.0, g_samples=48, k_samples=120,
                                         t_nodes=16, grid=12, rng=np.random.default_rng(11),
                                         details=True) == (cap, det)
    assert len(det["rows"]) == len(runs[0])
    for i, got in enumerate(det["rows"]):
        assert got["lam"] == runs[0][i]["lam"]
        assert got["per_sigma"].keys() == runs[0][i]["per_sigma"].keys()
        assert got["energy"] == sum(got["per_sigma"].values())
        for key in ("energy", *got["per_sigma"]):
            vals = np.array([run[i][key] if key == "energy" else run[i]["per_sigma"][key]
                             for run in runs])
            want = got[key] if key == "energy" else got["per_sigma"][key]
            stderr = vals.std(ddof=1) / sqrt(vals.size)
            assert abs(vals.mean() - want) <= 4.0 * stderr, (got["lam"], key)


def test_spectral_projection_energy_memory_is_bounded():
    # the benchmark's configuration: 256 x 200 kernel elements, 7 window points
    f = tfm.bump_section(BundleSpec(3, 1), 1.0)
    tracemalloc.start()
    try:
        st.spectral_projection_energy(f, np.linspace(0.25, 4.0, 7), R=2.0, g_samples=256,
                                      k_samples=200, t_nodes=16, grid=12,
                                      rng=np.random.default_rng(2))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 48 * 2 ** 20


@pytest.mark.parametrize("spec", [BundleSpec(5, 2), BundleSpec(4, 2, "plus")],
                         ids=["5-2", "4-2-plus"])
def test_energy_capture_runs_at_higher_rank(spec):
    # the closed form reads none of the Monte Carlo sizes or the generator
    f = tfm.bump_section(spec, 1.0)
    caps = [st.spectral_projection_energy(f, [0.5, 1.0], R=2.0, g_samples=g, k_samples=k,
                                          t_nodes=t, grid=m, rng=np.random.default_rng(seed))
            for g, k, t, m, seed in ((160, 800, 32, 24, 0), (7, 9, 5, 3, 11))]
    assert np.isfinite(caps[0]) and caps[0] > 0.0
    assert caps[0] == caps[1]


def test_energy_rows_are_ball_averages_of_the_transform(rng):
    # each row is nu^2 b_sigma^2 / d_{tau,sigma} times the ball average of a
    # base-point atom with the bump's vector, by the one-point routes; R = 0.5
    # sits inside the support and R = 50 past 2 R0 (the extended sweep)
    for spec in (BundleSpec(3, 1), BundleSpec(5, 2), BundleSpec(6, 2), BundleSpec(4, 2, "plus")):
        v0 = rng.normal(size=spec.dim_full) + 1j * rng.normal(size=spec.dim_full)
        if spec.chirality != "none":
            v0 = xr.chirality_matrix(spec.n, spec.chirality) @ v0
        f = tfm.bump_section(spec, 1.0, v0=v0)
        atom = tfm.BoundaryAtom(lg.GroupElement(np.eye(spec.n + 1)), FormVector.of(spec, v0))
        for R in (0.5, 2.0, 50.0):
            _, det = st.spectral_projection_energy(f, [0.5, 2.0], R=R, g_samples=7, k_samples=9,
                                                   rng=np.random.default_rng(3), details=True)
            for lam, row in zip((0.5, 2.0), det["rows"]):
                for sigma in xr.branching(spec):
                    pt = SpectralPoint(spec, sigma, lam)
                    avg = st.ball_average_atom(pt, tfm.BoundarySection.from_atoms(
                        pt, [(atom, 1.0)]), R)
                    want = (sph.plancherel_density(pt) ** 2 * bump_coefficient(f, pt) ** 2
                            / xr.dims(spec, sigma)[2] * avg)
                    got = row["per_sigma"][str(sigma)]
                    assert abs(got - want) <= 1e-12 * want, (spec, R, lam, str(sigma))


def test_energy_plancherel_identity_is_two_sided():
    # over the whole line, pi times the capture's R -> infinity limit,
    # sum_sigma int nu |b_sigma|^2 / d_{tau,sigma} d lambda |v0|^2, is ||f||^2;
    # 20 panels of 16 Gauss-Legendre nodes on [0, 40], and the tail past
    # lambda = 40 is positive.  Even n at p = n/2 has a discrete part too
    xs, ws = gauss_legendre(16)
    edges = np.linspace(0.0, 40.0, 21)
    half = 0.5 * np.diff(edges)[:, None]
    lams = ((edges[:-1, None] + half) + half * xs).ravel()
    weights = (half * ws).ravel()
    for spec, r in ((BundleSpec(3, 1), 1.0), (BundleSpec(5, 2), 1.5)):
        f = tfm.bump_section(spec, r)
        total = 0.0
        for sigma in xr.branching(spec):
            vals = [sph.plancherel_density(pt) * bump_coefficient(f, pt) ** 2
                    for pt in (SpectralPoint(spec, sigma, lam) for lam in lams)]
            total += weights @ np.array(vals) / xr.dims(spec, sigma)[2]
        deficit = 1.0 - total * np.vdot(f.v0, f.v0).real / bump_norm2(f)
        assert 0.0 <= deficit <= 1e-5, (spec, deficit)


def test_section_norm_matches_boundary_monte_carlo():
    spec = BundleSpec(3, 1)
    pt = SpectralPoint(spec, sigma_q(1), 1.0)
    k = lg.embed_rotation(lg.haar_sample_K(3, rng=np.random.default_rng(4)))
    atoms = [(tfm.BoundaryAtom(lg.GroupElement(np.eye(4)), _unit(spec)), 1.0),
             (tfm.BoundaryAtom(lg.GroupElement(k), _unit(spec, seed=8)),
              0.5 - 0.25j)]
    sec = tfm.BoundarySection.from_atoms(pt, atoms)
    val = st.section_norm2(sec)
    assert val >= 0.0
    ks = lg.haar_sample_K(3, size=20000, rng=np.random.default_rng(12))
    sq = np.sum(np.abs(sec.eval_batch(ks)) ** 2, axis=-1)
    se = np.std(sq) / sqrt(len(sq))
    assert abs(val - np.mean(sq)) < 3.0 * se
