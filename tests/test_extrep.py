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
    dims,
    haar_sample_K,
    proj_matrix,
    sigma_q,
    tau_matrix,
)
import hyperform.extrep as xr
from hyperform.extrep import (
    MLabel,
    hodge_matrix,
    tau_matrix_batch,
    tau_vec_batch,
    wedge_batch,
)
from oracles import contract_e1_matrix


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


def test_tau_batch_is_bit_identical_across_block_boundaries(rng):
    # the kernel works the flattened stack in blocks of _TAU_BLOCK output
    # entries; a (2, B) stack with B past one block crosses two boundaries
    for n, p in ((6, 2), (8, 3)):
        step = xr._TAU_BLOCK // comb(n, p) ** 2
        size = step + 3
        us = haar_sample_K(n, size=2 * size, rng=rng).reshape(2, size, n, n)
        batch = tau_matrix_batch(us, p)
        assert batch.shape == (2, size, comb(n, p), comb(n, p))
        for u_row, b_row in zip(us, batch):
            for u, b in zip(u_row, b_row):
                assert np.array_equal(b, tau_matrix(u, p)), (n, p)


def test_tau_batch_fallback_high_degree(rng):
    us = haar_sample_K(8, size=2, rng=rng)
    batch = tau_matrix_batch(us, 4)
    assert np.max(np.abs(batch[0] - _minor_oracle(us[0], 4))) <= 1e-12


def _complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _rel_gap(got, want):
    return np.max(np.abs(got - want)) / max(np.max(np.abs(want)), 1e-300)


def test_tau_vec_matches_minors_times_vectors_for_general_matrices(rng):
    # the contraction is the Laplace expansion, an identity for any u, so
    # Gaussian (non-orthogonal) stacks test it at every degree 0..n
    for n in range(2, 9):
        us = rng.standard_normal((6, n, n))
        for p in range(n + 1):
            dim = comb(n, p)
            taus = tau_matrix_batch(us, p)
            per, shared = _complex(rng, (6, dim)), _complex(rng, dim)
            got = xr.tau_vec_batch(us, p, per)
            assert got.shape == (6, dim)
            assert _rel_gap(got, np.einsum("bij,bj->bi", taus, per)) <= 1e-13, (n, p)
            assert _rel_gap(xr.tau_vec_batch(us, p, shared), taus @ shared) <= 1e-13, (n, p)
            if p:
                want = _minor_oracle(us[0], p) @ per[0]
                assert _rel_gap(xr.tau_vec_batch(us[0], p, per[0]), want) <= 1e-12, (n, p)


def test_tau_vec_on_transposed_and_shaped_stacks(rng):
    for n, p in ((4, 2), (6, 3), (8, 3)):
        dim = comb(n, p)
        us = rng.standard_normal((2, 5, n, n))
        taus = tau_matrix_batch(us, p)
        for vecs in (_complex(rng, dim), _complex(rng, (2, 5, dim)), _complex(rng, (5, dim))):
            got = xr.tau_vec_batch(np.swapaxes(us, -1, -2), p, vecs)
            assert got.shape == (2, 5, dim)
            want = np.einsum("...ba,...b->...a", taus, np.broadcast_to(vecs, (2, 5, dim)))
            assert _rel_gap(got, want) <= 1e-13, (n, p, vecs.shape)


def test_tau_vec_across_a_block_boundary(rng):
    # blocks hold about _VEC_BLOCK entries of the widest level; each matrix
    # of a stack one past a block boundary equals its one-matrix call
    for n, p in ((6, 2), (8, 3)):
        widest = max(level.shape[-1] for level in xr._contract_tables(n, p))
        size = xr._VEC_BLOCK // widest + 3
        us = haar_sample_K(n, size=size, rng=rng)
        vecs = _complex(rng, (size, comb(n, p)))
        got = xr.tau_vec_batch(us, p, vecs)
        want = np.einsum("bij,bj->bi", tau_matrix_batch(us, p), vecs)
        assert _rel_gap(got, want) <= 1e-13
        for u, v, g in zip(us, vecs, got):
            assert np.array_equal(xr.tau_vec_batch(u, p, v), g), (n, p)


def test_tau_vec_degree_one_is_the_real_product(rng):
    # p <= 1 is tau_apply_batch on u itself, bit for bit
    us = haar_sample_K(3, size=50, rng=rng)
    vecs = _complex(rng, (50, 3))
    want = xr.tau_apply_batch(tau_matrix_batch(us, 1), vecs[..., None])[..., 0]
    assert np.array_equal(xr.tau_vec_batch(us, 1, vecs), want)
    assert np.array_equal(xr.tau_vec_batch(us, 0, vecs[:, :1]), vecs[:, :1])


def test_degree_zero_and_domain_errors():
    us = np.random.default_rng(5).standard_normal((2, 3, 4, 4))
    lam0 = tau_matrix_batch(us, 0)
    assert lam0.shape == (2, 3, 1, 1) and np.all(lam0 == 1.0)
    assert tau_matrix(np.eye(3), 0).shape == (1, 1)
    assert np.array_equal(xr.tau_vec_batch(us, 0, np.array([2.0 - 1j])),
                          np.full((2, 3, 1), 2.0 - 1j))
    for kernel in (lambda u, p: tau_matrix_batch(u, p),
                   lambda u, p: xr.tau_vec_batch(u, p, np.ones(1))):
        for p in (-1, 5):
            with pytest.raises(ValueError, match="0 <= p <= n"):
                kernel(us, p)
        for bad in (np.ones((2, 3, 4)), np.ones(4)):
            with pytest.raises(ValueError, match="square matrices"):
                kernel(bad, 1)


def test_tau_apply_preserves_norm(rng):
    for n, p in ((4, 1), (5, 2), (6, 3)):
        (u,) = haar_sample_K(n, size=1, rng=rng)
        xi = rng.normal(size=comb(n, p)) + 1j * rng.normal(size=comb(n, p))
        out = tau_vec_batch(u, p, xi)
        assert abs(np.linalg.norm(out) - np.linalg.norm(xi)) <= 1e-12


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10**9))
def test_tau_composition_property(seed):
    rng = np.random.default_rng(seed)
    u, v = haar_sample_K(4, size=2, rng=rng)
    xi = rng.normal(size=6)
    a = tau_vec_batch(u @ v, 2, xi)
    b = tau_vec_batch(u, 2, tau_vec_batch(v, 2, xi))
    assert np.max(np.abs(a - b)) <= 1e-12


# ---------------------------------------------------------------------------
# Hodge star, wedge, contraction


def test_hodge_star_squares_to_sign():
    for n, p in ((4, 2), (5, 2), (6, 3), (6, 2)):
        s1 = hodge_matrix(n, n - p) @ hodge_matrix(n, p)
        sign = (-1.0) ** (p * (n - p))
        assert np.max(np.abs(s1 - sign * np.eye(s1.shape[0]))) == 0.0


def test_hodge_star_is_isometric(rng):
    xi = rng.normal(size=10)
    star = hodge_matrix(5, 2)
    assert abs(np.linalg.norm(star @ xi) - np.linalg.norm(xi)) <= 1e-12
    assert star.shape == (comb(5, 3), comb(5, 2))


def test_wedge_contract_adjoint(rng):
    n, p = 6, 2
    a = rng.normal(size=comb(n, p))
    b = rng.normal(size=comb(n, p + 1))
    lhs = np.dot(wedge_batch(np.eye(n)[0], p) @ a, b)
    rhs = np.dot(a, contract_e1_matrix(n, p + 1) @ b)
    assert abs(lhs - rhs) <= 1e-12


def test_wedge_contract_anticommutator_is_identity(rng):
    # e_1 has unit norm, so wedge and contraction satisfy
    # iota(e1 ^ xi) + e1 ^ (iota xi) = xi on every degree
    for n, p in ((5, 2), (6, 3)):
        xi = rng.normal(size=comb(n, p))
        out = (contract_e1_matrix(n, p + 1) @ wedge_batch(np.eye(n)[0], p) @ xi
               + wedge_batch(np.eye(n)[0], p - 1) @ contract_e1_matrix(n, p) @ xi)
        assert np.max(np.abs(out - xi)) <= 1e-12


def test_wedge_twice_vanishes(rng):
    xi = rng.normal(size=15)
    assert np.max(np.abs(wedge_batch(np.eye(6)[0], 3) @ wedge_batch(np.eye(6)[0], 2) @ xi)) == 0.0
    assert np.max(np.abs(contract_e1_matrix(6, 1) @ contract_e1_matrix(6, 2) @ xi)) == 0.0


def test_wedge_of_a_direction_is_the_rotated_wedge_of_e1(rng):
    # for Haar k and b = k e_1, eps(b) iota(b) = tau(k) P_{q:p-1} tau(k)^T
    # and star eps(b) = tau(k) (star eps(e_1)) tau(k)^T, with P_{q:p-1} the
    # oracle's e_1 ^ iota_{e_1}; star eps(b) is the Hodge star of eps(b)
    for n in range(2, 9):
        ks = haar_sample_K(n, size=8, rng=rng)
        b = ks[..., 0]
        for p in range(1, n // 2 + 1):
            taus = tau_matrix_batch(ks, p)
            lower = wedge_batch(np.eye(n)[0], p - 1) @ contract_e1_matrix(n, p)
            eps = xr.wedge_batch(b, p - 1)
            assert eps.shape == (8, comb(n, p), comb(n, p - 1))
            want = taus @ lower @ taus.swapaxes(-1, -2)
            assert np.max(np.abs(eps @ eps.swapaxes(-1, -2) - want)) <= 1e-13, (n, p)
            star = xr.wedge_batch(b, p, star=True)
            assert np.array_equal(star, hodge_matrix(n, p + 1) @ xr.wedge_batch(b, p))
            if 2 * p + 1 == n:
                want = (taus @ (hodge_matrix(n, p + 1) @ wedge_batch(np.eye(n)[0], p))
                        @ taus.swapaxes(-1, -2))
                assert np.max(np.abs(star - want)) <= 1e-13, (n, p)


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


def _every_spec():
    """Every bundle at n = 2..8, both chiralities at p = n/2."""
    return [BundleSpec(n, p, chir) for n in range(2, 9) for p in range(1, n // 2 + 1)
            for chir in (("plus", "minus") if 2 * p == n else ("none",))]


def test_projectors_are_exact():
    # entries 0, +-1/2, +-i/2 or 1: idempotent and self-adjoint with no
    # rounding, and sigma^+ and sigma^- sum to the unsplit sigma_p
    for spec in _every_spec():
        labels = branching(spec)
        if spec.case == "half_odd":
            labels = labels + [sigma_q(spec.p)]
        projs = [proj_matrix(spec, s) for s in labels]
        if spec.chirality != "none":
            projs.append(chirality_matrix(spec.n, spec.chirality))
        for pm in projs:
            assert np.array_equal(pm @ pm, pm), spec
            assert np.array_equal(pm, pm.conj().T), spec
        if spec.case == "half_odd":
            assert np.array_equal(proj_matrix(spec, SIGMA_PLUS) + proj_matrix(spec, SIGMA_MINUS),
                                  proj_matrix(spec, sigma_q(spec.p)))


def test_admissible_labels_are_the_branching_and_its_sums():
    for spec in _every_spec():
        split = [sigma_q(spec.p)] if spec.case == "half_odd" else []
        for sigma in [sigma_q(q) for q in range(-1, spec.n)] + [SIGMA_PLUS, SIGMA_MINUS]:
            if sigma in branching(spec) + split:
                xr.check_sigma(spec, sigma)
            else:
                with pytest.raises(ValueError, match="not admissible"):
                    xr.check_sigma(spec, sigma)


def test_cached_tables_are_read_only():
    spec = BundleSpec(5, 2)
    tables = [hodge_matrix(5, 2), chirality_matrix(6, "plus"), proj_matrix(spec, SIGMA_PLUS),
              *xr.wedge_table(5, 2, star=True)[1:], *xr.wedge_table(5, 1)[1:]]
    before = [t.copy() for t in tables]
    for t in tables:
        with pytest.raises(ValueError, match="read-only"):
            t *= 0
    again = [hodge_matrix(5, 2), chirality_matrix(6, "plus"), proj_matrix(spec, SIGMA_PLUS),
             *xr.wedge_table(5, 2, star=True)[1:], *xr.wedge_table(5, 1)[1:]]
    for got, want in zip(again, before):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


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
        want = wedge_batch(np.eye(n)[0], p - 1) @ contract_e1_matrix(n, p)
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
    parts = [proj_matrix(spec, s) @ xi.coeffs for s in branching(spec)]
    assert np.max(np.abs(sum(parts) - xi.coeffs)) <= 1e-12


# ---------------------------------------------------------------------------
# labels, specs, vectors


def test_mlabel_parse_roundtrip():
    for s in (sigma_q(2), SIGMA_PLUS, SIGMA_MINUS):
        assert MLabel.parse(str(s)) == s
    with pytest.raises(ValueError):
        MLabel.parse("bogus")


def test_mlabel_parse_sign_aliases():
    assert MLabel.parse(" + ") == SIGMA_PLUS
    assert MLabel.parse("-") == SIGMA_MINUS
    with pytest.raises(ValueError):
        MLabel.parse("q:")


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
