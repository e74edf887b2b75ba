"""Operator spherical functions: scalar component formulas against the
defining compact-group integral, c-functions against the density, the
Weyl-head asymptotics, and the norm helper."""

import tracemalloc

import mpmath
import numpy as np
import pytest
from math import pi, sqrt

from hyperform import (
    BundleSpec,
    SpectralPoint,
    asymptotic_head,
    branching,
    c_sigma,
    dims,
    eisenstein_integral_at,
    haar_sample_K,
    make_at,
    make_rotation,
    op_norm,
    plancherel_density,
    proj_matrix,
    scalar_components,
    sigma_q,
    spherical_at,
    SIGMA_MINUS,
    SIGMA_PLUS,
)

import hyperform.extrep as xr
import hyperform.spherical as sph
from hyperform.extrep import default_vector
from hyperform.liegroup import GroupElement, iwasawa_translates
from hyperform.transforms import BoundaryAtom, BoundarySection, poisson_mc
from hyperform.extrep import MLabel, tau_matrix_batch
from hyperform.liegroup import at_mats, embed_rotation, plane_rotations
from hyperform.spherical import component_grid, head_components, radial_batch
from hyperform.specialfn import JacobiParams, jacobi_phi

from conftest import case_points, kernel_points, load_tool
from oracles import CartanGeometryK, c_sigma_formula, eisenstein_literal, weyl_reflect


# ---------------------------------------------------------------------------
# normalization and block structure


def test_components_are_one_at_origin():
    for pt in case_points(lam=1.0):
        comp = scalar_components(pt, 0.0).components
        for eta, val in comp.items():
            assert abs(val - 1.0) <= 1e-12, (pt.spec, str(eta))


def test_operator_value_at_identity():
    for pt in case_points(lam=0.7):
        got = spherical_at(pt, np.eye(pt.n + 1)[: pt.n + 1])
        want = sum(proj_matrix(pt.spec, s) for s in branching(pt.spec))
        assert np.max(np.abs(got - want)) <= 1e-12


def test_radial_value_commutes_with_projectors():
    for pt in case_points(lam=1.3):
        phi = spherical_at(pt, make_at(1.1, pt.n))
        for s in branching(pt.spec):
            pr = proj_matrix(pt.spec, s)
            assert np.max(np.abs(pr @ phi - phi @ pr)) <= 1e-12


def test_bi_covariance(rng):
    pt = case_points(lam=1.0)[2]  # half-odd bundle
    from hyperform.extrep import tau_matrix

    g = make_rotation(haar_sample_K(pt.n, size=1, rng=rng)[0]) @ make_at(0.9, pt.n)
    u1, u2 = haar_sample_K(pt.n, size=2, rng=rng)
    for radial in (spherical_at, asymptotic_head):
        lhs = radial(pt, make_rotation(u1) @ g @ make_rotation(u2))
        rhs = tau_matrix(u2, pt.p).T @ radial(pt, g) @ tau_matrix(u1, pt.p).T
        assert np.max(np.abs(lhs - rhs)) <= 1e-10, radial.__name__


# ---------------------------------------------------------------------------
# the batched kernel on vectors


def _group_stack(n, rng, shape=(2, 3)):
    # k1 a_t k2 over radii from 0 (the Cartan tie) to 6
    size = int(np.prod(shape))
    k1, k2 = (embed_rotation(haar_sample_K(n, size=size, rng=rng)) for _ in range(2))
    ts = np.linspace(0.0, 6.0, size)
    return (k1 @ at_mats(ts, n) @ k2).reshape(shape + (n + 1, n + 1))


def _vectors(dim, rng, shape):
    return rng.standard_normal(shape + (dim,)) + 1j * rng.standard_normal(shape + (dim,))


def test_vector_form_equals_matrix_times_vector(rng):
    for pt in kernel_points(lam=1.3):
        mats = _group_stack(pt.n, rng)
        dim = pt.spec.dim_full
        for kind in ("spherical", "head"):
            phi = radial_batch(pt, mats, kind)
            assert phi.shape == (2, 3, dim, dim)
            scale = np.linalg.norm(phi, 2, axis=(-2, -1))
            # one vector per element, and one vector shared by all
            for vecs in (_vectors(dim, rng, (2, 3)), _vectors(dim, rng, ())):
                got = radial_batch(pt, mats, kind, vecs)
                want = np.einsum("...ij,...j->...i", phi, np.broadcast_to(vecs, got.shape))
                err = np.linalg.norm(got - want, axis=-1)
                bound = 1e-13 * scale * np.linalg.norm(vecs, axis=-1)
                assert np.all(err <= bound), (pt.spec, str(pt.sigma), kind)


def test_scalar_calls_are_the_one_element_batch(rng):
    # one code path: spherical_at and asymptotic_head are radial_batch of
    # their kind on a one-element stack, bit for bit
    for pt in kernel_points(lam=1.3):
        for g in _group_stack(pt.n, rng).reshape(-1, pt.n + 1, pt.n + 1):
            assert np.array_equal(spherical_at(pt, g), radial_batch(pt, g[None])[0])
            assert np.array_equal(asymptotic_head(pt, g), radial_batch(pt, g[None], "head")[0])


def test_residual_form_equals_spherical_minus_head(rng):
    for pt in kernel_points(lam=0.8):
        mats = _group_stack(pt.n, rng)
        want = radial_batch(pt, mats) - radial_batch(pt, mats, "head")
        got = radial_batch(pt, mats, "residual")
        scale = np.linalg.norm(radial_batch(pt, mats), 2, axis=(-2, -1))
        err = np.linalg.norm(got - want, 2, axis=(-2, -1))
        assert np.all(err <= 1e-13 * scale), (pt.spec, str(pt.sigma))
        vecs = _vectors(pt.spec.dim_full, rng, (2, 3))
        got_v = radial_batch(pt, mats, "residual", vecs)
        want_v = np.einsum("...ij,...j->...i", want, vecs)
        err_v = np.linalg.norm(got_v - want_v, axis=-1)
        assert np.all(err_v <= 1e-13 * scale * np.linalg.norm(vecs, axis=-1))


def test_radial_operators_meet_the_k_factor_route(rng):
    # tau(pi0)^T Q(b) against tau(k2)^T (sum_eta psi_eta P_eta) tau(k1)^T at
    # every point of the coverage matrix, from the tie (t = 0, 1e-13) to
    # t = 9, to 1e-13 of the operator's largest entry
    ts = np.array([0.0, 1e-13, 0.3, 1.1, 2.7, 9.0])
    for n, p, chir, sigma in load_tool("coverage").points():
        spec = BundleSpec(n, p, chir)
        pt = SpectralPoint(spec, MLabel.parse(sigma), 1.3)
        ks = embed_rotation(haar_sample_K(n, size=2 * ts.size, rng=rng))
        mats = ks[: ts.size] @ at_mats(ts, n) @ ks[ts.size:]
        new, old = sph.CartanGeometry(mats, p), CartanGeometryK(mats, p)
        vecs = _vectors(spec.dim_full, rng, ts.shape)
        for kind in ("spherical", "head", "residual"):
            comps = sph.radial_kinds(pt, new.t, (kind,))[0]
            want = old.apply(spec, comps)
            scale = np.abs(want).max(axis=(-2, -1))
            err = np.abs(new.apply(spec, comps) - want).max(axis=(-2, -1))
            assert np.all(err <= 1e-13 * scale), (spec, sigma, kind, err / scale)
            err = np.abs(new.apply(spec, comps, vecs) - old.apply(spec, comps, vecs)).max(axis=-1)
            bound = 1e-13 * scale * np.linalg.norm(vecs, axis=-1)
            assert np.all(err <= bound), (spec, sigma, kind, "vectors")


def test_geometry_forms_one_tau_stack_and_no_projector_products(rng, monkeypatch):
    # one Lambda^p stack, of pi0, and no projector product per M-type:
    # only the chirality projector, once per operator
    stacks, projectors = [], []
    tau_batch, proj = xr.tau_matrix_batch, xr.proj_matrix
    monkeypatch.setattr(xr, "tau_matrix_batch", lambda us, p: stacks.append(us.shape) or tau_batch(us, p))
    monkeypatch.setattr(xr, "proj_matrix", lambda *a: projectors.append(a) or proj(*a))
    for pt in kernel_points(lam=0.9):
        stacks.clear()
        projectors.clear()
        mats = _group_stack(pt.n, rng)
        sph.radial_batch(pt, mats)
        sph.radial_batch(pt, mats, "head", _vectors(pt.spec.dim_full, rng, (2, 3)))
        assert stacks == [(6, pt.n, pt.n)] * 2, stacks
        assert len(projectors) == (2 if pt.spec.chirality != "none" else 0), pt.spec


def test_geometry_keeps_the_k_factor_gate():
    # a group matrix whose polar block is not a rotation
    bad = make_at(0.5, 3).mat
    bad[0, 1] += 1e-6
    with pytest.raises(ArithmeticError, match="lost orthogonality"):
        sph.CartanGeometry(bad[None], 1)


def test_radial_kind_is_checked():
    pt = kernel_points()[0]
    with pytest.raises(ValueError):
        radial_batch(pt, np.eye(pt.n + 1)[None], "tail")


def _translated_atoms(pt, rng, size):
    # one-atom sections at k1 a_t k2, t from 0 to 6, and Haar rotations to meet them
    sections = [BoundarySection.from_atoms(pt, [(BoundaryAtom(g, default_vector(pt.spec)), 1.0)])
                for g in _group_stack(pt.n, rng, shape=(size,))]
    return sections, haar_sample_K(pt.n, size=5, rng=rng)


def test_poisson_kernel_real_products_equal_complex_einsum(rng):
    # the dual kernel of the atoms, C = 3, 15, 56, on real products against
    # sqrt(d_{tau,sigma}) e^{(i lam - rho) H} P_sigma tau(kappa)^T v as a complex
    # einsum over the Lambda^p stack of the kernel's kappa
    for spec, sigma in ((BundleSpec(3, 1), sigma_q(1)), (BundleSpec(6, 2), sigma_q(2)),
                        (BundleSpec(8, 3), sigma_q(3))):
        pt = SpectralPoint(spec, sigma, 1.3)
        sections, ks = _translated_atoms(pt, rng, 4)
        for sec in sections:
            (atom, _), = sec.atoms
            h, _, kappa = iwasawa_translates(atom.g.mat, ks.transpose(1, 2, 0))
            taus = tau_matrix_batch(kappa.transpose(2, 0, 1), pt.p)
            weight = sqrt(dims(spec, sigma)[2]) * np.exp((1j * pt.lam - pt.rho) * h)
            want = (weight[:, None] * np.einsum("kba,b->ka", taus, atom.v.coeffs)
                    @ proj_matrix(spec, sigma).T)
            got = sec.eval_batch(ks)
            assert got.shape == (5, spec.dim_full)
            assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want)), spec


def test_poisson_kernel_vectors_form_no_minor_stack(rng):
    # at (8, 3) one (334, 56, 56) float stack of Lambda^p(kappa) is 8.4 MB;
    # a translated atom on 334 rotations and poisson_mc over one chunk of
    # 334 draws (the kernel applied to those values) must peak below it
    pt = SpectralPoint(BundleSpec(8, 3), sigma_q(3), 1.3)
    (sec,), _ = _translated_atoms(pt, rng, 1)
    ks = haar_sample_K(8, size=334, rng=rng)
    x = GroupElement(_group_stack(8, rng, shape=(2,))[1])
    tracemalloc.start()
    try:
        sec.eval_batch(ks)
        poisson_mc(pt, sec, x, 334, rng=np.random.default_rng(1))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 334 * 56 * 56 * 8


# ---------------------------------------------------------------------------
# defining integral oracle


@pytest.mark.parametrize("t", [0.5, 1.7])
def test_components_match_group_integral(t):
    for pt in case_points(lam=1.0):
        comp = scalar_components(pt, t).components
        oracle = eisenstein_integral_at(pt, t)
        for eta in comp:
            assert abs(comp[eta] - oracle[eta]) <= 1e-7, (pt.spec, str(eta), t)


@pytest.mark.parametrize("t", [-1.7, -4.5, 9.0, -9.0])
def test_group_integral_holds_on_its_whole_domain(t):
    # the zonal nodes are refined toward the kernel's layer on either side
    # of t = 0: with nodes refined toward theta = 0 only, the gap was
    # 9.3e-7 at t = -4.5 and 1.8e-5 at t = -8
    for pt in case_points(lam=2.3):
        comp = scalar_components(pt, t).components
        oracle = eisenstein_integral_at(pt, t)
        for eta in comp:
            assert abs(comp[eta] - oracle[eta]) <= 1e-7, (pt.spec, str(eta), t)


@pytest.mark.parametrize("lam", [60.0, 100.0])
def test_group_integral_holds_up_to_its_lambda_bound(lam, monkeypatch):
    # past |lambda| = 25 the panels take 64 nodes, against the same rule on
    # twice as many (32 were 1.2e-6 off at 60); the components are no
    # reference here, as jacobi_phi raises at 2 lambda on the chirality bundles
    pts, ts = case_points(lam=lam), (-9.0, -1.7, 1.0, 9.0)
    got = [eisenstein_integral_at(pt, t) for pt in pts for t in ts]
    monkeypatch.setattr(sph, "_ZONAL_NODES", 2 * sph._ZONAL_NODES)
    want = [eisenstein_integral_at(pt, t) for pt in pts for t in ts]
    for a, b in zip(got, want):
        assert max(abs(a[eta] - b[eta]) for eta in b) <= 1e-12, (lam, a, b)
    with pytest.raises(ValueError, match="lambda"):
        eisenstein_integral_at(SpectralPoint(BundleSpec(3, 1), sigma_q(1), 100.5), 1.0)


@pytest.mark.parametrize("chirality", ["plus", "minus"])
def test_group_integral_covers_the_whole_circle_at_n2(chirality):
    # M is trivial at n = 2, so K = SO(2) is not M A_K M: over theta in
    # [0, pi] alone the integral had an imaginary part (0.866495 +-
    # 0.289799i at lambda = 1, t = 0.5) against real components
    for lam in (0.3, 1.0, 5.0, 25.0):
        pt = SpectralPoint(BundleSpec(2, 1, chirality), sigma_q(1), lam)
        for t in (-2.0, 0.0, 0.5, 1.5, 4.0, 9.0):
            comp = scalar_components(pt, t).components
            oracle = eisenstein_integral_at(pt, t)
            for eta in comp:
                assert abs(oracle[eta].imag) <= 1e-12, (lam, t)
                assert abs(comp[eta] - oracle[eta]) <= 1e-12, (lam, t)


# n = 2..8 with every sigma label: sigma^{+-} and the unsplit middle
# isotype at p = (n-1)/2, and both chiralities at n = 2p
_LITERAL_BUNDLES = [BundleSpec(2, 1, "plus"), BundleSpec(2, 1, "minus"), BundleSpec(3, 1),
                    BundleSpec(4, 1), BundleSpec(4, 2, "plus"), BundleSpec(4, 2, "minus"),
                    BundleSpec(5, 2), BundleSpec(6, 2), BundleSpec(6, 3, "plus"),
                    BundleSpec(6, 3, "minus"), BundleSpec(7, 3), BundleSpec(8, 3)]
_LITERAL_LAMS = (0.3, 1.0, 5.0, 25.0)
_LITERAL_TS = (-9.0, -3.1, -0.4, 0.0, 0.5, 1.9, 4.0, 9.0)


@pytest.mark.parametrize("spec", _LITERAL_BUNDLES, ids=str)
def test_group_integral_meets_the_literal_route(spec):
    # the literal route reads H off c_1 + d of the product a_{-t} R(theta),
    # which is e^{|t|} ulps off near the e^{-|t|} layer; at n = 2 no
    # sin^{n-2} factor damps the layer, and there its value is 6.5e-11 from
    # the sum on exactly rounded node data at lambda = 25, |t| = 9, while
    # the closed form is 3e-17 from it (its node data are pinned below)
    tol = 1e-10 if spec.n == 2 else 1e-11
    sigmas = branching(spec) + ([sigma_q(spec.p)] if spec.case == "half_odd" else [])
    for sigma in sigmas:
        for t in _LITERAL_TS:
            wants = eisenstein_literal(SpectralPoint(spec, sigma, 1.0), t, _LITERAL_LAMS)
            for lam, want in zip(_LITERAL_LAMS, wants):
                got = eisenstein_integral_at(SpectralPoint(spec, sigma, lam), t)
                assert got.keys() == want.keys()
                for eta in want:
                    assert abs(got[eta] - want[eta]) <= tol, (str(sigma), lam, t, str(eta))


def test_zonal_iwasawa_data_are_exactly_rounded():
    # e^H = cosh t - sinh t cos(theta) and kappa e1 = (cos(theta) cosh t -
    # sinh t, sin(theta)) / e^H at 40 digits, on the integral's own nodes
    with mpmath.workdps(40):
        for t in (-9.0, -3.1, -0.4, 0.0, 0.5, 4.0, 9.0):
            thetas, _ = sph._zonal_nodes(t, sph._ZONAL_PANELS, sph._ZONAL_NODES)
            eh, rot, kap = sph._zonal_iwasawa(t, thetas)
            assert np.array_equal(rot, [np.ones_like(thetas), np.cos(thetas), np.sin(thetas)])
            ch, sh = mpmath.cosh(t), mpmath.sinh(t)
            for k, theta in enumerate(thetas):
                c, s = mpmath.cos(theta), mpmath.sin(theta)
                want = ch - sh * c
                assert abs(eh[k] - want) <= 1e-15 * want, (t, theta)
                assert abs(kap[1, k] - (c * ch - sh) / want) <= 1e-15, (t, theta)
                assert abs(kap[2, k] - s / want) <= 1e-15, (t, theta)
            assert np.all(kap[0] == 1.0)


def test_plane_rotation_minors_are_affine_in_cos_and_sin(rng):
    # tau(R_phi) = A + cos(phi) B + sin(phi) S, with A, B and S exact
    for n in range(2, 9):
        for p in range(0, min(n, 4) + 1):
            basis = sph._plane_tau_basis(n, p)
            assert np.all(np.isin(basis, (-1.0, 0.0, 1.0))), (n, p)
            phis = rng.uniform(-pi, pi, 16)
            want = tau_matrix_batch(plane_rotations(n, np.cos(phis), np.sin(phis)), p)
            got = np.einsum("ik,iab->kab", [np.ones_like(phis), np.cos(phis), np.sin(phis)],
                            basis)
            assert np.max(np.abs(got - want)) <= 1e-15, (n, p)


def test_components_flip_with_lambda_sign():
    # phi_eta(t; -lambda) = phi_eta(-t; lambda)
    spec = BundleSpec(5, 2)
    for sig in (sigma_q(1), SIGMA_PLUS, SIGMA_MINUS):
        a = scalar_components(SpectralPoint(spec, sig, -1.2), 0.8).components
        b = scalar_components(SpectralPoint(spec, sig, 1.2), -0.8).components
        for eta in a:
            assert abs(a[eta] - b[eta]) <= 1e-12


def test_unsplit_label_pairs_the_two_halves():
    # the reducible middle isotype at p = (n-1)/2 carries one scalar
    spec = BundleSpec(5, 2)
    pt = SpectralPoint(spec, sigma_q(2), 1.0)
    comp = scalar_components(pt, 1.3).components
    assert abs(comp[SIGMA_PLUS] - comp[SIGMA_MINUS]) <= 1e-12
    pr = proj_matrix(spec, sigma_q(2))
    want = proj_matrix(spec, SIGMA_PLUS) + proj_matrix(spec, SIGMA_MINUS)
    assert np.max(np.abs(pr - want)) == 0.0


# ---------------------------------------------------------------------------
# densities and c-functions


def _density_case_points(lam):
    pts = case_points(lam)
    # the unsplit pair label is admissible for the density as well
    pts.append(SpectralPoint(BundleSpec(5, 2), sigma_q(2), lam))
    return pts


@pytest.mark.parametrize("lam", [0.5, 1.0, 2.3])
def test_density_matches_c_function_route(lam):
    for pt in _density_case_points(lam):
        nu = plancherel_density(pt)
        d_tau, d_sig, _ = dims(pt.spec, pt.sigma)
        via_c = (d_tau / d_sig) / (2.0 * pi * abs(c_sigma(pt)) ** 2)
        assert abs(nu - via_c) <= 1e-10 * via_c, (pt.spec, str(pt.sigma))


def test_density_positive_with_polynomial_envelope():
    # the closed forms grow like lambda^(n-1), and the (rho - q) pole
    # in the denominator cancels the lambda^2 zero when q = rho, so the
    # two-sided envelope is lambda^2 (1+lambda)^(n-3) for q != rho and
    # (1+lambda)^(n-1) on the cancelled case
    lams = np.concatenate([np.linspace(0.1, 2.0, 20), np.linspace(2.5, 50.0, 20)])
    for pt0 in case_points():
        q = pt0.sigma.q if pt0.sigma.kind == "q" else pt0.spec.p
        ratios = []
        for lam in lams:
            nu = plancherel_density(SpectralPoint(pt0.spec, pt0.sigma, lam))
            assert nu > 0.0
            if q == pt0.rho:
                env = (1.0 + lam) ** (pt0.n - 1)
            else:
                env = lam**2 * (1.0 + lam) ** (pt0.n - 3)
            ratios.append(nu / env)
        ratios = np.array(ratios)
        assert ratios.max() / ratios.min() < 100.0


def test_density_hand_value_n3():
    # n=3, p=1, sigma q:1: nu(lambda) = (lambda^2 + 1) / (3 pi)
    pt = SpectralPoint(BundleSpec(3, 1), sigma_q(1), 1.0)
    assert abs(plancherel_density(pt) - 2.0 / (3.0 * pi)) <= 1e-12


def test_density_requires_real_lambda():
    pt = SpectralPoint(BundleSpec(3, 1), sigma_q(1), 1.0 + 0.2j)
    with pytest.raises(ValueError):
        plancherel_density(pt)


def test_weyl_reflection_swaps_middle_types():
    assert weyl_reflect(SIGMA_PLUS, 1.5) == (SIGMA_MINUS, -1.5)
    assert weyl_reflect(SIGMA_MINUS, 1.5) == (SIGMA_PLUS, -1.5)
    assert weyl_reflect(sigma_q(1), 2.0) == (sigma_q(1), -2.0)
    sig, lam = weyl_reflect(*weyl_reflect(SIGMA_PLUS, 0.7))
    assert (sig, lam) == (SIGMA_PLUS, 0.7)


def _every_sigma():
    """(spec, sigma) at n = 2..8 for every p, both chiralities, and every
    sigma of the branching or the unsplit sigma_p at p = (n-1)/2."""
    out = []
    for n in range(2, 9):
        for p in range(1, n // 2 + 1):
            for chir in ("plus", "minus") if 2 * p == n else ("none",):
                spec = BundleSpec(n, p, chir)
                extra = [sigma_q(p)] if spec.case == "half_odd" else []
                out += [(spec, sigma) for sigma in branching(spec) + extra]
    return out


@pytest.mark.parametrize("lam", [0.01, 0.3, 1.0, 5.5, 25.0, 300.0])
def test_c_sigma_meets_the_per_sigma_formulas(lam):
    # c_sigma reads h_+ of sigma's first block off the coefficient table
    for spec, sigma in _every_sigma():
        want = c_sigma_formula(spec, sigma, lam)
        got = c_sigma(SpectralPoint(spec, sigma, lam))
        assert abs(got - want) <= 1e-14 * abs(want), (spec, sigma, lam, got, want)


@pytest.mark.parametrize("lam", [0.3, 5.5])
def test_head_terms_are_the_weyl_sum_with_exact_zeros(lam):
    # h_+ is c_sigma(lambda) on the blocks of sigma and h_- is c_{s sigma}(-lambda)
    # on those of s sigma; elsewhere (the b-only rows, h_- of sigma^+- on its
    # own block) the table's rationals cancel to exactly 0
    for spec, sigma in _every_sigma():
        terms = SpectralPoint(spec, sigma, lam).head_terms
        assert list(terms) == branching(spec)
        for s, (sig, lam_s) in enumerate([(sigma, lam), weyl_reflect(sigma, lam)]):
            want = c_sigma_formula(spec, sig, lam_s)
            for eta, h in terms.items():
                if eta in xr.sigma_blocks(spec, sig):
                    assert abs(h[s] - want) <= 1e-14 * abs(want), (spec, sigma, eta, h, want)
                else:
                    assert h[s] == 0.0, (spec, sigma, eta, h)


@pytest.mark.parametrize("n", [2, 4, 6, 8])
def test_chirality_row_on_a_and_b_meets_the_component(n):
    # the chirality bundles evaluate cosh^2(t/2) phi^{(n/2-1, n/2+1)}_{2 lambda}(t/2);
    # their table row, read only by the head, must be the same function of t
    spec, sigma = BundleSpec(n, n // 2, "plus"), sigma_q(n // 2)
    ((eta, ((ka, kc, kb, ks), _)),) = sph._component_table(spec, sigma).items()
    ts = np.linspace(0.05, 10.0, 200)
    rho = (n - 1) / 2.0
    for lam in (0.1, 1.0, 5.5):
        pt = SpectralPoint(spec, sigma, lam)
        a, b = (jacobi_phi(JacobiParams(alpha, -0.5, lam), ts) for alpha in (n / 2 - 1, n / 2))
        row = ka * a + (kc * np.cosh(ts) + kb) * b + ks * 1j * lam * np.sinh(ts) * b
        assert np.all(np.isfinite(row))
        for t, r in zip(ts, row):
            try:
                phi = component_grid(pt, np.array([t]))[eta][0]
            except ArithmeticError:
                # the doubled-parameter Jacobi function refuses a few points
                # (n = 4, lambda = 5.5, t = 3.6); the row is finite there
                continue
            assert abs(r - phi) <= 1e-10 * max(abs(phi), np.exp(-rho * t)), (n, lam, t, r, phi)


def test_c_modulus_symmetric_under_reflection():
    for pt in case_points(lam=1.4):
        ssig, slam = weyl_reflect(pt.sigma, pt.lam)
        c1 = abs(c_sigma(pt))
        c2 = abs(c_sigma(SpectralPoint(pt.spec, ssig, slam)))
        assert abs(c1 - c2) <= 1e-12 * c1


# ---------------------------------------------------------------------------
# asymptotics


def test_weyl_head_residual_envelope():
    pt = SpectralPoint(BundleSpec(5, 2), SIGMA_PLUS, 1.0)
    rho = pt.rho
    ts = np.linspace(1.0, 15.0, 57)
    vals = []
    for t in ts:
        g = make_at(float(t), pt.n)
        vals.append(
            np.exp((rho + 1.0) * t) * op_norm(spherical_at(pt, g) - asymptotic_head(pt, g))
        )
    vals = np.array(vals)
    assert np.all(np.isfinite(vals))
    # oscillation of period pi/lambda rides on the decay, so the trend
    # is judged on half-interval suprema rather than pointwise
    early = vals[(ts >= 5.0) & (ts <= 10.0)].max()
    late = vals[(ts >= 10.0) & (ts <= 15.0)].max()
    assert late <= 1.1 * early


# ---------------------------------------------------------------------------
# operator norm helper


def test_op_norm_against_svd(rng):
    for shape in ((3, 3), (6, 6), (10, 10)):
        m = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        assert abs(op_norm(m) - np.linalg.norm(m, 2)) <= 1e-8 * np.linalg.norm(m, 2)
    v = rng.normal(size=5)
    rank1 = np.outer(v, v)
    assert abs(op_norm(rank1) - np.linalg.norm(rank1, 2)) <= 1e-8 * np.linalg.norm(rank1, 2)
    assert op_norm(np.zeros((4, 4))) == 0.0


# ---------------------------------------------------------------------------
# per-point tables


_TABLE_POINTS = [(BundleSpec(3, 1), sigma_q(0)), (BundleSpec(6, 2), sigma_q(1)),
                 (BundleSpec(5, 2), SIGMA_PLUS), (BundleSpec(4, 2, "plus"), sigma_q(2))]


@pytest.mark.parametrize("spec,sigma", _TABLE_POINTS)
def test_warm_point_equals_fresh_point(spec, sigma):
    # a SpectralPoint keeps its Jacobi tables and head coefficients; once
    # a sweep has grown them, single radii give a fresh point's values
    warm = SpectralPoint(spec, sigma, 1.7)
    component_grid(warm, np.linspace(0.0, 8.0, 81))
    head_components(warm, np.linspace(0.0, 8.0, 81))
    for ts in (np.array([0.3]), np.array([2.5]), np.array([0.1, 1.2, 4.0])):
        fresh = SpectralPoint(spec, sigma, 1.7)
        for got, want in ((component_grid(warm, ts), component_grid(fresh, ts)),
                          (head_components(warm, ts), head_components(fresh, ts))):
            assert got.keys() == want.keys()
            assert all(np.array_equal(got[eta], want[eta]) for eta in got)


def test_point_identity_ignores_its_tables():
    pt = SpectralPoint(BundleSpec(6, 2), sigma_q(1), 1.7)
    before = (repr(pt), hash(pt))
    component_grid(pt, np.array([0.5, 3.0]))
    head_components(pt, np.array([0.5]))
    fresh = SpectralPoint(BundleSpec(6, 2), sigma_q(1), 1.7)
    assert (repr(pt), hash(pt)) == before == (repr(fresh), hash(fresh))
    assert pt == fresh and {pt: 1}[fresh] == 1
