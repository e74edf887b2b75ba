"""Exterior-power representation layer: minors, Hodge star, wedge and
contraction, restricted-subgroup projectors, and the dimension table."""

import numpy as np
from itertools import combinations
from math import comb
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperform import (
    SIGMA_MINUS,
    SIGMA_PLUS,
    BundleSpec,
    FormVector,
    branching,
    chirality_matrix,
    contract_e1,
    dims,
    haar_sample_K,
    hodge_star,
    proj_matrix,
    project_M,
    sigma_q,
    tau_apply,
    tau_matrix,
    wedge_e1,
)
from hyperform.extrep import (
    MLabel,
    contract_e1_matrix,
    hodge_matrix,
    tau_matrix_batch,
    wedge_e1_matrix,
)


def _embed_m(u):
    """SO(n-2+1) element fixing the first axis of K-space."""
    n = u.shape[0] + 1
    out = np.eye(n)
    out[1:, 1:] = u
    return out


# ---------------------------------------------------------------------------
# the representation itself


def test_tau_is_a_homomorphism(rng):
    for n, p in ((4, 2), (5, 2), (6, 3)):
        u, v = haar_sample_K(n, size=2, rng=rng)
        lhs = tau_matrix(u @ v, p)
        rhs = tau_matrix(u, p) @ tau_matrix(v, p)
        assert np.max(np.abs(lhs - rhs)) <= 1e-12


def test_tau_identity_and_orthogonality(rng):
    for n, p in ((5, 2), (6, 3)):
        assert np.max(np.abs(tau_matrix(np.eye(n), p) - np.eye(tau_matrix(np.eye(n), p).shape[0]))) == 0.0
        (u,) = haar_sample_K(n, size=1, rng=rng)
        m = tau_matrix(u, p)
        assert np.max(np.abs(m.T @ m - np.eye(m.shape[0]))) <= 1e-12


def _minor_oracle(u, p):
    """Lambda^p(u) as the determinants of the p x p minors u[I, J], the
    p-subsets in colexicographic order."""
    subs = np.array(sorted(combinations(range(u.shape[0]), p), key=lambda s: s[::-1]))
    return np.linalg.det(u[subs[:, None, :, None], subs[None, :, None, :]])


def test_tau_batch_matches_minor_route(rng):
    for n, p in ((5, 2), (5, 3), (6, 2), (8, 3), (8, 4), (10, 5)):
        us = haar_sample_K(n, size=7, rng=rng)
        batch = tau_matrix_batch(us, p)
        for u, b in zip(us, batch):
            assert np.max(np.abs(b - _minor_oracle(u, p))) <= 1e-12


def test_tau_batch_fallback_high_degree(rng):
    us = haar_sample_K(8, size=2, rng=rng)
    batch = tau_matrix_batch(us, 4)
    assert np.max(np.abs(batch[0] - _minor_oracle(us[0], 4))) <= 1e-12


def test_tau_apply_preserves_norm(rng):
    for n, p in ((4, 1), (5, 2), (6, 3)):
        (u,) = haar_sample_K(n, size=1, rng=rng)
        xi = FormVector(n, p, rng.normal(size=comb(n, p))
                        + 1j * rng.normal(size=comb(n, p)))
        out = tau_apply(u, xi)
        assert abs(np.linalg.norm(out.coeffs) - np.linalg.norm(xi.coeffs)) <= 1e-12


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10**9))
def test_tau_composition_property(seed):
    rng = np.random.default_rng(seed)
    u, v = haar_sample_K(4, size=2, rng=rng)
    xi = FormVector(4, 2, rng.normal(size=6))
    a = tau_apply(u @ v, xi).coeffs
    b = tau_apply(u, tau_apply(v, xi)).coeffs
    assert np.max(np.abs(a - b)) <= 1e-12


# ---------------------------------------------------------------------------
# Hodge star, wedge, contraction


def test_hodge_star_squares_to_sign():
    for n, p in ((4, 2), (5, 2), (6, 3), (6, 2)):
        s1 = hodge_matrix(n, n - p) @ hodge_matrix(n, p)
        sign = (-1.0) ** (p * (n - p))
        assert np.max(np.abs(s1 - sign * np.eye(s1.shape[0]))) == 0.0


def test_hodge_star_is_isometric(rng):
    xi = FormVector(5, 2, rng.normal(size=10))
    assert abs(np.linalg.norm(hodge_star(xi).coeffs) - np.linalg.norm(xi.coeffs)) <= 1e-12
    assert hodge_star(xi).degree == 3


def test_wedge_contract_adjoint(rng):
    n, p = 6, 2
    a = rng.normal(size=comb(n, p))
    b = rng.normal(size=comb(n, p + 1))
    lhs = np.dot(wedge_e1_matrix(n, p) @ a, b)
    rhs = np.dot(a, contract_e1_matrix(n, p + 1) @ b)
    assert abs(lhs - rhs) <= 1e-12


def test_wedge_contract_anticommutator_is_identity(rng):
    # e_1 has unit norm, so wedge and contraction satisfy
    # iota(e1 ^ xi) + e1 ^ (iota xi) = xi on every degree
    for n, p in ((5, 2), (6, 3)):
        xi = FormVector(n, p, rng.normal(size=comb(n, p)))
        out = contract_e1(wedge_e1(xi)).coeffs + wedge_e1(contract_e1(xi)).coeffs
        assert np.max(np.abs(out - xi.coeffs)) <= 1e-12


def test_wedge_twice_vanishes(rng):
    xi = FormVector(6, 2, rng.normal(size=15))
    assert np.max(np.abs(wedge_e1(wedge_e1(xi)).coeffs)) == 0.0
    assert np.max(np.abs(contract_e1(contract_e1(xi)).coeffs)) == 0.0


def test_degree_bounds_raise():
    with pytest.raises(ValueError):
        wedge_e1(FormVector(4, 4, np.ones(1)))
    with pytest.raises(ValueError):
        contract_e1(FormVector(4, 0, np.ones(1)))


# ---------------------------------------------------------------------------
# chirality split


def test_chirality_projectors_split_middle_degree():
    for n in (4, 6):
        half = n // 2
        plus = chirality_matrix(n, "plus")
        minus = chirality_matrix(n, "minus")
        d = comb(n, half)
        eye = np.eye(d)
        assert np.max(np.abs(plus + minus - eye)) <= 1e-12
        assert np.max(np.abs(plus @ minus)) <= 1e-12
        assert abs(np.trace(plus).real - d / 2) <= 1e-12
        # eigenvalue of star on the range: +-1 for n/2 even, +-i for odd
        mu = 1.0 if half % 2 == 0 else 1.0j
        s = hodge_matrix(n, half)
        assert np.max(np.abs(s @ plus - mu * plus)) <= 1e-12
        assert np.max(np.abs(s @ minus + mu * minus)) <= 1e-12


def test_chirality_needs_even_n():
    with pytest.raises(ValueError):
        chirality_matrix(5, "plus")


# ---------------------------------------------------------------------------
# restricted-subgroup projectors


def _all_specs():
    return [
        BundleSpec(6, 2),
        BundleSpec(5, 2),
        BundleSpec(4, 2, "plus"),
        BundleSpec(4, 2, "minus"),
        BundleSpec(3, 1),
    ]


def test_projector_algebra():
    for spec in _all_specs():
        labels = branching(spec)
        projs = [proj_matrix(spec, s) for s in labels]
        for i, pi in enumerate(projs):
            assert np.max(np.abs(pi @ pi - pi)) <= 1e-12
            assert np.max(np.abs(pi - pi.conj().T)) <= 1e-12
            for pj in projs[i + 1:]:
                assert np.max(np.abs(pi @ pj)) <= 1e-12
        total = sum(projs)
        if spec.chirality == "none":
            want = np.eye(spec.dim_full)
        else:
            want = chirality_matrix(spec.n, spec.chirality)
        assert np.max(np.abs(total - want)) <= 1e-12


def test_projector_traces_match_dims():
    for spec in _all_specs():
        for s in branching(spec):
            _, d_sig, _ = dims(spec, s)
            tr = np.trace(proj_matrix(spec, s)).real
            assert abs(tr - d_sig) <= 1e-10


def test_lower_projector_is_wedge_contract():
    # the sigma_{p-1} isotype of Lambda^p is exactly the forms
    # containing e_1, so its projector factors through wedge o contract
    for n, p in ((6, 2), (3, 1), (5, 2)):
        spec = BundleSpec(n, p)
        want = wedge_e1_matrix(n, p - 1) @ contract_e1_matrix(n, p)
        got = proj_matrix(spec, sigma_q(p - 1))
        assert np.max(np.abs(got - want)) <= 1e-12


def test_m_equivariance_thousand_rotations():
    rng = np.random.default_rng(11)
    for spec in (BundleSpec(6, 2), BundleSpec(5, 2), BundleSpec(4, 2, "plus")):
        us = haar_sample_K(spec.n - 1, size=340, rng=rng)
        ms = np.stack([_embed_m(u) for u in us])
        tms = tau_matrix_batch(ms, spec.p)
        for s in branching(spec):
            pr = proj_matrix(spec, s)
            comm = np.einsum("ij,bjk->bik", pr, tms) - np.einsum("bij,jk->bik", tms, pr)
            assert np.max(np.abs(comm)) <= 1e-12


def test_dims_table():
    # d_tau = C(n,p) (halved under chirality), d_sigma = C(n-1,q)
    d_tau, d_sig, ratio = dims(BundleSpec(6, 2), sigma_q(1))
    assert (d_tau, d_sig, ratio) == (15, 5.0, 3.0)
    d_tau, d_sig, ratio = dims(BundleSpec(5, 2), SIGMA_PLUS)
    assert (d_tau, d_sig, ratio) == (10, 3.0, 10.0 / 3.0)
    d_tau, d_sig, ratio = dims(BundleSpec(4, 2, "plus"), sigma_q(2))
    assert (d_tau, d_sig, ratio) == (3, 3.0, 1.0)


def test_schur_average_of_projected_orbit():
    # Haar average of |P_sigma tau(k)^{-1} v|^2 = (d_sigma/d_tau)|v|^2,
    # within 3 standard errors at 1e5 samples
    rng = np.random.default_rng(404)
    spec = BundleSpec(3, 1)
    pt_sigma = sigma_q(1)
    pr = proj_matrix(spec, pt_sigma)
    v = np.array([1.0, 0.5j, -0.25])
    ks = haar_sample_K(3, size=100000, rng=rng)
    tks = tau_matrix_batch(ks, 1)
    vals = np.abs(np.einsum("ij,bkj,k->bi", pr, tks, v)) ** 2
    per_sample = vals.sum(axis=1)
    mean = per_sample.mean()
    se = per_sample.std() / np.sqrt(len(per_sample))
    d_tau, d_sig, _ = dims(spec, pt_sigma)
    want = (d_sig / d_tau) * np.vdot(v, v).real
    assert abs(mean - want) <= 3.0 * se


def test_projection_respects_vectors(rng):
    spec = BundleSpec(5, 2)
    xi = FormVector(5, 2, rng.normal(size=10), spec=spec)
    parts = [project_M(spec, s, xi).coeffs for s in branching(spec)]
    assert np.max(np.abs(sum(parts) - xi.coeffs)) <= 1e-12


# ---------------------------------------------------------------------------
# labels, specs, vectors


def test_mlabel_parse_roundtrip():
    for s in (sigma_q(2), SIGMA_PLUS, SIGMA_MINUS):
        assert MLabel.parse(str(s)) == s
    with pytest.raises(ValueError):
        MLabel.parse("bogus")


def test_bundle_spec_validation():
    with pytest.raises(ValueError):
        BundleSpec(4, 2)  # middle degree needs a chirality choice
    with pytest.raises(ValueError):
        BundleSpec(5, 3)  # p > n/2
    with pytest.raises(ValueError):
        BundleSpec(5, 2, "plus")  # chirality off the middle degree


def test_form_vector_validation():
    with pytest.raises(ValueError):
        FormVector(3, 1, np.ones(6))
    v = FormVector(4, 2, np.ones(6))
    assert v.degree == 2 and v.n == 4
