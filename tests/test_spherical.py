"""Operator spherical functions: scalar component formulas against the
defining compact-group integral, c-functions against the density, the
Weyl-head asymptotics, and the norm helper."""

import numpy as np
import pytest
from math import pi

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
    weyl_reflect,
    SIGMA_MINUS,
    SIGMA_PLUS,
)
from hyperform.spherical import _sigma_projector

from conftest import case_points


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
# defining integral oracle


@pytest.mark.parametrize("t", [0.5, 1.7])
def test_components_match_group_integral(t):
    for pt in case_points(lam=1.0):
        comp = scalar_components(pt, t).components
        oracle = eisenstein_integral_at(pt, t)
        for eta in comp:
            assert abs(comp[eta] - oracle[eta]) <= 1e-7, (pt.spec, str(eta), t)


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
    pr = _sigma_projector(spec, sigma_q(2))
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
