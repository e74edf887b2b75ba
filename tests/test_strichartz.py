"""Tests for ball averages of Poisson images: the extrapolated radial
limits, the dual-pairing inversion, and the windowed energy capture."""

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
from hyperform.spherical import SpectralPoint


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
        pair = st._j_pair_grid(pt, ts, lam, n_panels=16, n_nodes=32)
        d_tau = xr.dims(spec, xr.branching(spec)[0])[0]
        for b in st._sigma_blocks(spec, sigma):
            ref_pt = SpectralPoint(spec, _transpose_dual(spec, b), lam)
            ref = sph._component_grid(ref_pt, -ts)
            for eta in xr.branching(spec):
                d_eta = xr.dims(spec, eta)[1]
                want = (d_eta / d_tau) * ref[_transpose_dual(spec, eta)]
                got = pair[(b, eta)]
                assert np.all(np.isfinite(got))
                scale = max(1.0, float(np.max(np.abs(want))))
                assert np.max(np.abs(got - want)) < 2e-7 * scale, \
                    (spec, sigma, b, eta)


def _oracle_ratios(pt, R, mu):
    # inversion_ratios with the pairing kernel from the zonal quadrature
    ts, ws = st._osc_nodes(0.0, R, max(pt.lam_real, mu), order=20)
    pair = st._j_pair_grid(pt, ts, mu)
    s = np.exp(0.5 * pt.rho * ts)
    weight = st._stable_weight(ts, pt.n) * ws * pi * sph.plancherel_density(pt) / R
    grid = sph._component_grid(pt, ts)
    return {b: complex(np.sum(weight * sum(
                st._rescale(phi, s) * st._rescale(pair[(b, eta)], s)
                for eta, phi in grid.items())))
            for b in st._sigma_blocks(pt.spec, pt.sigma)}


def test_closed_form_pairing_kernel_matches_zonal_quadrature():
    # (6,3,minus): no label of the bundle is the transpose dual; the
    # other cases pair against a mismatched frequency mu != lambda
    cases = [
        (BundleSpec(6, 3, "minus"), sigma_q(3), 1.0, (0.5, 2.0)),
        (BundleSpec(3, 1), sigma_q(1), 1.7, (0.5, 2.0, 6.0)),
        (BundleSpec(5, 2), SIGMA_PLUS, 1.7, (0.5, 2.0, 6.0)),
    ]
    for spec, sigma, mu, ts in cases:
        pt = SpectralPoint(spec, sigma, 1.0)
        want = st._j_pair_grid(pt, np.array(ts), mu)
        got = st._pair_kernel(pt, np.array(ts), mu)
        assert got.keys() == want.keys()
        for key in want:
            assert np.max(np.abs(got[key] - want[key])) < 1e-13, (spec, key)
    pt = SpectralPoint(BundleSpec(3, 1), sigma_q(1), 1.0)
    got = st.inversion_ratios(pt, 2.0, mu=1.7)
    want = _oracle_ratios(pt, 2.0, 1.7)
    for b in want:
        assert abs(got[b] - want[b]) < 1e-13


def test_cross_term_matches_direct_quadrature():
    mpmath.mp.dps = 30
    for n in (2, 3, 4, 6):
        rho = (n - 1) / 2.0
        for lam in (0.7, 1.9):
            for R in (1.5, 4.0):
                got = st.cross_term(lam, n, R)

                def f(t):
                    return mpmath.e ** ((2j * lam - 2 * rho) * t) \
                        * (2 * mpmath.sinh(t)) ** (n - 1)

                want = complex(mpmath.quad(f, [0, R])) / R
                assert abs(got - want) < 1e-9 * max(1.0, abs(want))


def test_cross_term_decays_like_inverse_radius():
    # the magnitude oscillates in R with period pi / lam, so the decay
    # is judged on maxima over a phase cluster at each decade
    def cluster(R):
        return max(abs(st.cross_term(1.0, 3, R + off))
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
    v_exact, _, method = st._ball_average_detail(pt, _e_atom_section(pt), R)
    assert method == "schur_1d"
    # an atom at a rotated base point has the same average, but is
    # evaluated through the Monte Carlo route
    k = lg._embed_rotation(lg.haar_sample_K(3, rng=np.random.default_rng(9)))
    atom = tfm.BoundaryAtom(lg.GroupElement(k), _unit(spec))
    sec = tfm.BoundarySection.from_atoms(pt, [(atom, 1.0)])
    v_mc, se, m2 = st._ball_average_detail(pt, sec, R, k_samples=800,
                                           rng=np.random.default_rng(11))
    assert m2 == "mc_k"
    assert abs(v_mc - v_exact) < 4.0 * se


def test_ball_average_translated_atom_is_finite_positive():
    spec = BundleSpec(3, 1)
    pt = SpectralPoint(spec, sigma_q(1), 1.0)
    g1 = lg.make_at(0.6, 3).mat @ lg._ny_mat(np.array([0.2, -0.4]), 3)
    atom = tfm.BoundaryAtom(lg.GroupElement(g1), _unit(spec, seed=5))
    sec = tfm.BoundarySection.from_atoms(pt, [(atom, 0.8 + 0.3j)])
    v, se, method = st._ball_average_detail(pt, sec, 3.0, k_samples=400,
                                            rng=np.random.default_rng(2))
    assert method == "mc_k"
    assert np.isfinite(v) and v > 0.0
    assert np.isfinite(se) and se > 0.0


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


def test_inversion_ratio_for_mismatched_parameter_decays():
    pt = SpectralPoint(BundleSpec(3, 1), sigma_q(1), 1.0)
    r20 = max(abs(r) for r in st.inversion_ratios(pt, 20.0, mu=1.7).values())
    r80 = max(abs(r) for r in st.inversion_ratios(pt, 80.0, mu=1.7).values())
    assert r20 < 0.1
    assert r80 < 0.02
    assert r80 < r20 / 3.0


def test_reconstruct_reduced_path_matches_literal_monte_carlo():
    pt = SpectralPoint(BundleSpec(3, 1), sigma_q(1), 1.0)
    sec = _e_atom_section(pt)
    red = st.inversion_reconstruct(pt, sec, 2.0, samples=64,
                                   method="reduced")
    mc = st.inversion_reconstruct(pt, sec, 2.0, samples=64, method="mc",
                                  mc_k1=4000, rng=np.random.default_rng(1))
    ks = lg.haar_sample_K(3, size=16, rng=np.random.default_rng(7))
    a = red.eval_batch(ks)
    b = mc.eval_batch(ks)
    assert np.max(np.abs(a - b)) < 0.12 * np.max(np.abs(a))


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
    # the sweep's panel edges: each [R_{j-1}, R_j] split into at least
    # four equal panels no wider than a quarter period of e^{2 i lam t}
    width = pi / max(2.0 * lam, 0.5) / 2.0
    edges = [0.0]
    for a, b in zip((0.0,) + tuple(R_grid[:-1]), R_grid):
        panels = max(ceil((b - a) / width), 4)
        edges += list(np.linspace(a, b, panels + 1)[1:])
    return edges


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
            total += mpmath.quad(lambda t: profile(np.array([float(t)]))[0],
                                 [a, b])
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


def test_energy_window_capture_is_one_sided():
    f = tfm.bump_section(BundleSpec(3, 1), 1.0)
    lam_grid = np.linspace(0.25, 4.0, 7)
    cap, det = st.spectral_projection_energy(
        f, lam_grid, R=4.0, g_samples=64, k_samples=300, t_nodes=24,
        grid=16, rng=np.random.default_rng(0), details=True)
    assert cap > 0.0
    assert np.isclose(det["norm_f2"], f.l2_norm() ** 2, rtol=1e-10)
    # window truncation keeps the captured fraction below one
    assert 0.5 < det["fraction"] < 1.05
    assert all(row["energy"] > 0.0 for row in det["rows"])
    assert det["window"] == (0.25, 4.0)


def test_energy_window_rejects_higher_rank():
    f = tfm.bump_section(BundleSpec(5, 2), 1.0)
    with pytest.raises(ValueError):
        st.spectral_projection_energy(f, [0.5, 1.0], R=2.0)


def test_section_norm_matches_boundary_monte_carlo():
    spec = BundleSpec(3, 1)
    pt = SpectralPoint(spec, sigma_q(1), 1.0)
    k = lg._embed_rotation(lg.haar_sample_K(3, rng=np.random.default_rng(4)))
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
