"""Matrix group layer: factorizations, invariances, and the boundary
defect bound.  Everything here is exact linear algebra, so tolerances
sit at roundoff scale."""

import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperform import (
    BundleSpec,
    GroupElement,
    KElement,
    cartan,
    haar_sample_K,
    iwasawa,
    make_at,
    make_ny,
    make_rotation,
    polar_k,
    radial_weight,
    sigma_q,
)
import hyperform.liegroup as lg
from hyperform.liegroup import TIE_EPS, at_mats, embed_rotation, inv_mats, iwasawa_translates
from hyperform.spherical import SpectralPoint, radial_batch, spherical_at

from oracles import (
    cartan_batch_copy,
    e_defect,
    group_mp,
    haar_sample_K_qr,
    iwasawa_batch,
    iwasawa_batch_product,
    iwasawa_boosted_batch,
    iwasawa_mp,
)


def _random_g(n, rng, tmax=3.0):
    k1, k2 = haar_sample_K(n, size=2, rng=rng)
    t = rng.uniform(0.05, tmax)
    return make_rotation(k1) @ make_at(t, n) @ make_rotation(k2)


def _stack(n, t, size, rng):
    """k1 a_t k2 over `size` pairs of Haar rotations; t broadcasts
    against (size,)."""
    k1, k2 = (embed_rotation(haar_sample_K(n, size=size, rng=rng)) for _ in range(2))
    return k1 @ at_mats(t, n) @ k2


def _iwasawa_of(mats):
    """(H, y, kappa) of group matrices (..., n+1, n+1), stacked like them:
    iwasawa_translates at g^{-1} and r = I, as the scalar iwasawa takes it."""
    lead, n = mats.shape[:-2], mats.shape[-1] - 1
    ginv = inv_mats(mats.reshape(-1, n + 1, n + 1)).transpose(1, 2, 0)
    h, y, kappa = iwasawa_translates(ginv)
    return h.reshape(lead), y.T.reshape(lead + (n - 1,)), kappa.transpose(2, 0, 1).reshape(
        lead + (n, n))


def _bitwise_equal(a, b):
    """Equal values, shapes and signs of zeros."""
    a, b = np.asarray(a), np.asarray(b)
    return (a.shape == b.shape and np.array_equal(a, b)
            and np.array_equal(np.signbit(a), np.signbit(b)))


def _minkowski_defect(mat):
    n = mat.shape[0] - 1
    jj = np.diag([1.0] * n + [-1.0])
    return np.max(np.abs(mat.T @ jj @ mat - jj))


# ---------------------------------------------------------------------------
# constructors and validation


def test_generators_satisfy_quadratic_form(rng):
    for n in (2, 3, 5):
        assert _minkowski_defect(make_at(1.7, n).mat) <= 1e-12
        assert _minkowski_defect(make_ny(rng.uniform(-2, 2, n - 1)).mat) <= 1e-12
        (u,) = haar_sample_K(n, size=1, rng=rng)
        assert _minkowski_defect(make_rotation(u).mat) <= 1e-12


def test_group_element_rejects_garbage():
    with pytest.raises(ValueError):
        GroupElement(np.eye(3) * 2.0)
    with pytest.raises(ValueError):
        GroupElement(np.ones((2, 3)))


@pytest.mark.parametrize("t", [10.0, 11.0, 12.0])
def test_group_element_accepts_rounded_exact_elements_far_out(t):
    # exact k1 a_t k2 rounded to floats: rounding moves log det by about
    # eps max|g|^2, which the old 1e-9 (1 + log max|g|^2) slack refused
    # from t = 10 on (9 of 10 at t = 11)
    rng = np.random.default_rng(int(t))
    for n in (3, 4, 6):
        for _ in range(4):
            with mpmath.workdps(40):
                gm = group_mp(rng.normal(size=(n, n)), t, rng.normal(size=(n, n)))
                g = np.array(gm.tolist(), dtype=float)
            GroupElement(g)


def test_group_element_rejects_a_determinant_off_by_a_millionth():
    rng = np.random.default_rng(4)
    with mpmath.workdps(40):
        gm = group_mp(rng.normal(size=(4, 4)), 1.0, rng.normal(size=(4, 4)))
    g = np.array(gm.tolist(), dtype=float)
    GroupElement(g)
    with pytest.raises(ValueError):
        GroupElement(g * (1.0 + 1e-6) ** (1.0 / 5.0))
    # a reflection preserves the form and the time orientation
    with pytest.raises(ValueError, match="determinant"):
        GroupElement(np.diag([-1.0, 1.0, 1.0, 1.0, 1.0]) @ g)


def test_kelement_strict_mode_rejects_drift():
    u = np.eye(3) + 1e-5
    with pytest.raises(ValueError):
        KElement(u, mode="strict")


def test_ny_is_a_one_parameter_family(rng):
    y = rng.uniform(-1, 1, 3)
    z = rng.uniform(-1, 1, 3)
    lhs = (make_ny(y) @ make_ny(z)).mat
    rhs = make_ny(y + z).mat
    assert np.max(np.abs(lhs - rhs)) <= 1e-12


def test_boost_group_law():
    lhs = (make_at(0.8, 4) @ make_at(1.1, 4)).mat
    assert np.max(np.abs(lhs - make_at(1.9, 4).mat)) <= 1e-12


# ---------------------------------------------------------------------------
# decompositions


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_roundtrips_thousand_elements(n):
    # Iwasawa and Cartan reconstruct g to 1e-10, 10^3 random g per n
    rng = np.random.default_rng(31 + n)
    for _ in range(1000):
        g = _random_g(n, rng)
        scale = max(1.0, np.max(np.abs(g.mat)))
        iw = iwasawa(g)
        back = make_rotation(iw.kappa) @ make_at(iw.h, n) @ make_ny(iw.y)
        assert np.max(np.abs(back.mat - g.mat)) / scale <= 1e-10
        ca = cartan(g)
        back = make_rotation(ca.k1) @ make_at(ca.t, n) @ make_rotation(ca.k2)
        assert np.max(np.abs(back.mat - g.mat)) / scale <= 1e-10
        assert ca.t >= 0.0


@pytest.mark.parametrize("n", range(2, 9))
def test_iwasawa_matches_mpmath_oracle(n):
    # g = k1 a_t k2 built at 40 digits and rounded to floats; H, y and
    # kappa are within 4 eps e^t of the 40-digit decomposition (kappa
    # was measured at 0.5 eps e^t at most; the product route it
    # replaced reached 2500 eps e^t at t = 9 and raised at t = 12)
    rng = np.random.default_rng(40 + n)
    for t in (0.5, 3.0, 6.0, 9.0, 12.0):
        tol = 4.0 * np.finfo(float).eps * np.exp(t)
        for _ in range(4):
            with mpmath.workdps(40):
                gm = group_mp(rng.normal(size=(n, n)), t, rng.normal(size=(n, n)))
                h, y, kappa = iwasawa_mp(gm)
            got_h, got_y, got_kappa = _iwasawa_of(np.array(gm.tolist(), dtype=float))
            assert abs(got_h - h) <= tol
            assert np.all(np.abs(got_y - y) <= tol * np.maximum(1.0, np.abs(y)))
            assert np.max(np.abs(got_kappa - kappa)) <= tol


@pytest.mark.parametrize("n", range(2, 9))
def test_iwasawa_matches_the_product_route_up_to_radius_three(n):
    # H and y are computed as before; kappa agrees with g n_{-y} a_{-H}
    # to 1e-13 relative to the entry scale of g, which is the product
    # route's own e^{2t}-ulp error at t = 3
    mats = _stack(n, np.linspace(0.1, 3.0, 30)[:, None], 100, np.random.default_rng(n))
    mats = mats.reshape(-1, n + 1, n + 1)
    h, y, kappa = _iwasawa_of(mats)
    h0, y0, kappa0 = iwasawa_batch_product(mats)
    assert np.array_equal(h, h0) and np.array_equal(y, y0)
    scale = np.max(np.abs(mats), axis=(-1, -2))
    assert np.all(np.max(np.abs(kappa - kappa0), axis=(-1, -2)) <= 1e-13 * scale)


def test_iwasawa_raises_once_kappa_is_not_orthogonal():
    g = (make_rotation(haar_sample_K(4, rng=np.random.default_rng(3))) @ make_at(1.0, 4)).mat
    bent = g.copy()
    bent[0, 1] += 1e-10  # kappa e_1 moves by 1e-10: within the 1e-8 slack
    _iwasawa_of(bent)
    bent[0, 1] += 1e-7
    with pytest.raises(ArithmeticError, match="lost orthogonality"):
        _iwasawa_of(bent)
    # far out the rounding of g alone exceeds the slack
    with pytest.raises(ArithmeticError, match="lost orthogonality"):
        _iwasawa_of(_stack(4, 20.0, 2000, np.random.default_rng(5)))


def _sample_major(rots):
    return np.ascontiguousarray(rots.transpose(1, 2, 0))


@pytest.mark.parametrize("n", range(2, 9))
def test_iwasawa_boosted_batch_is_iwasawa_batch_on_the_product(n):
    # iwasawa_translates at g = a_t, t in [0, 12], is the closed form of
    # a_{-t} r (the retired iwasawa_boosted_batch) bit for bit, zeros' signs
    # included, except y's zeros at t = 0, where g = I; and it meets
    # iwasawa_batch on the explicit products to 1e-12
    rots = haar_sample_K(n, size=64, rng=np.random.default_rng(60 + n))
    for t in np.linspace(0.0, 12.0, 25):
        h1, y1, kappa1 = iwasawa_boosted_batch(t, _sample_major(rots))
        h0, y0, kappa0 = iwasawa_batch(at_mats(-t, n) @ embed_rotation(rots))
        h, y, kappa = iwasawa_translates(at_mats(t, n), _sample_major(rots))
        assert _bitwise_equal(h, h1) and _bitwise_equal(kappa, kappa1)
        assert _bitwise_equal(y, y1) if t > 0.0 else np.array_equal(y, y1)
        assert np.max(np.abs(h - h0)) <= 1e-12
        assert np.max(np.abs(kappa.transpose(2, 0, 1) - kappa0)) <= 1e-12
        assert np.all(np.abs(y.T - y0) <= 1e-12 * np.maximum(1.0, np.abs(y0)))
    # an array of radii, one boost per sample, against one rotation
    ts, rots = np.linspace(0.0, 12.0, 64), rots[:1].repeat(64, axis=0)
    h1, y1, kappa1 = iwasawa_boosted_batch(ts, _sample_major(rots))
    h0, _, kappa0 = iwasawa_batch(at_mats(-ts, n) @ embed_rotation(rots))
    h, y, kappa = iwasawa_translates(at_mats(ts, n).transpose(1, 2, 0), rots[0])
    assert _bitwise_equal(h, h1) and _bitwise_equal(kappa, kappa1)
    assert _bitwise_equal(y[:, 1:], y1[:, 1:]) and np.array_equal(y, y1)
    assert np.max(np.abs(h - h0)) <= 1e-12
    assert np.max(np.abs(kappa.transpose(2, 0, 1) - kappa0)) <= 1e-12


def _outcome(fn):
    try:
        fn()
    except (ValueError, ArithmeticError) as exc:
        return type(exc), str(exc)
    return None


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("n", [2, 4, 8])
def test_iwasawa_boosted_batch_raises_where_iwasawa_batch_raises(n):
    # rounding past the 1e-8 slack (t = 20, 30), S = cosh t - sinh t
    # rounding to 0 at r = I, and overflow (NaN defects); none at t = 12
    haar = haar_sample_K(n, size=200, rng=np.random.default_rng(2))
    eye = np.eye(n)[None].repeat(3, axis=0)
    raised = 0
    for t, rots in ((12.0, haar), (20.0, haar), (30.0, haar), (40.0, eye), (750.0, haar)):
        want = _outcome(lambda: iwasawa_batch(at_mats(-t, n) @ embed_rotation(rots)))
        got = _outcome(lambda: iwasawa_translates(at_mats(t, n), _sample_major(rots)))
        assert got == want, t
        raised += want is not None
    assert raised == 4


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_decompositions_raise_where_entries_overflow():
    # cosh 700 is finite but sinh^2 is not, and cosh 750 overflows: the
    # defects are NaN there, and a NaN defect must raise
    for t in (700.0, 750.0):
        with pytest.raises(ArithmeticError, match="lost orthogonality"):
            cartan(make_at(t, 3))
        with pytest.raises(ArithmeticError, match="lost orthogonality"):
            lg.cartan_axis(make_at(t, 3).mat[None])
    with pytest.raises(ArithmeticError, match="lost orthogonality"):
        iwasawa(make_at(750.0, 3))


def test_iwasawa_translates_memory():
    # 8192 matrices at n=6 (3.1 MB), one per sample, against one rotation:
    # the product route peaked 9.6 MB above its input, with two (n+1) x (n+1)
    # factor stacks; kappa and a term of A^T r are 2.4 MB each
    ginv = inv_mats(_stack(6, 2.0, 8192, np.random.default_rng(6))).transpose(1, 2, 0)
    tracemalloc.start()
    try:
        iwasawa_translates(ginv)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8.5 * 2 ** 20


def _point_elements(seed, n=6):
    """The elements of the benchmark's point workload: k1 a_t k2 at 200
    radii from 0 to 3 with Haar k1, k2 drawn in turn, then their inverses."""
    rng = np.random.default_rng(seed)
    out = []
    for t in np.linspace(0.0, 3.0, 200):
        k1 = make_rotation(haar_sample_K(n, rng=rng))
        out.append(k1 @ make_at(t, n) @ make_rotation(haar_sample_K(n, rng=rng)))
    return out + [g.inv() for g in out]


def test_scalar_iwasawa_is_the_literal_kernel_bit_for_bit():
    # iwasawa reads g back from g^{-1} and r = I: H, y and kappa are
    # iwasawa_batch's on g itself, signs of zeros included, on the point
    # workload's elements (t = 0 among them, where y is +-0) and on the
    # decompose command's boosts, the identity and a_t at t < 0
    elements = _point_elements(7) + _point_elements(1)
    elements += [make_at(t, n) for t, n in ((1.5, 3), (10.0, 6), (-1.5, 3), (0.0, 4))]
    elements.append(GroupElement(np.eye(5)))
    for g in elements:
        h0, y0, kappa0 = iwasawa_batch(g.mat)
        iw = iwasawa(g)
        assert _bitwise_equal(iw.h, h0) and _bitwise_equal(iw.y, y0)
        assert _bitwise_equal(iw.kappa.mat, kappa0)


def test_zero_column_is_a_cartan_tie():
    # g_nn = 1 + 4e-13 passes validation with a zero upper right column; its
    # radius arccosh(g_nn) = 8.9e-7 is past TIE_EPS, but b = 0 / 0 has no
    # direction: a tie at t = 0, with finite factors that rebuild g
    g = GroupElement(np.diag([1.0, 1.0, 1.0, 1.0 + 4e-13]))
    t, b, pol = lg.cartan_axis(g.mat[None])
    assert t[0] == 0.0 and np.array_equal(b[0], pol[0][:, 0])
    ca = cartan(g)
    assert ca.t == 0.0 and np.array_equal(ca.k1.mat, np.eye(3))
    back = make_rotation(ca.k1) @ make_at(ca.t, 3) @ make_rotation(ca.k2)
    assert np.max(np.abs(back.mat - g.mat)) <= 1e-12
    pt = SpectralPoint(BundleSpec(3, 1), sigma_q(1), 1.0)
    assert np.all(np.isfinite(spherical_at(pt, g)))
    for kind in ("spherical", "head", "residual"):
        assert np.all(np.isfinite(radial_batch(pt, g.mat[None], kind)))


def test_h_and_aplus_of_boost_are_exact():
    for t in (-2.5, -0.3, 0.4, 1.0, 7.0):
        g = make_at(t, 3)
        assert abs(iwasawa(g).h - t) <= 1e-13
        assert abs(cartan(g).t - abs(t)) <= 1e-13


def test_polar_factor_equals_cartan_product(rng):
    for n in (2, 4, 5):
        g = _random_g(n, rng)
        ca = cartan(g)
        assert np.max(np.abs(polar_k(g).mat - ca.k1.mat @ ca.k2.mat)) <= 1e-10


def test_h_invariances(rng):
    # H(k g) = H(g) and H(g n_y) = H(g)
    g = _random_g(4, rng)
    (u,) = haar_sample_K(4, size=1, rng=rng)
    assert abs(iwasawa(make_rotation(u) @ g).h - iwasawa(g).h) <= 1e-12
    ny = make_ny(rng.uniform(-1, 1, 3))
    assert abs(iwasawa(g @ ny).h - iwasawa(g).h) <= 1e-12


def test_inverse_and_product():
    rng = np.random.default_rng(7)
    g = _random_g(5, rng)
    assert np.max(np.abs((g @ g.inv()).mat - np.eye(6))) <= 1e-12


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10**9), n=st.sampled_from([2, 3, 4]))
def test_products_stay_in_group(seed, n):
    rng = np.random.default_rng(seed)
    g = _random_g(n, rng) @ _random_g(n, rng) @ _random_g(n, rng)
    scale = max(1.0, np.max(np.abs(g.mat))) ** 2
    assert _minkowski_defect(g.mat) / scale <= 1e-12


# ---------------------------------------------------------------------------
# Haar sampling


def test_haar_samples_are_rotations(rng):
    ks = haar_sample_K(5, size=64, rng=rng)
    assert ks.shape == (64, 5, 5)
    eye = np.eye(5)
    for k in ks:
        assert np.max(np.abs(k.T @ k - eye)) <= 1e-12
        assert abs(np.linalg.det(k) - 1.0) <= 1e-12


def test_haar_is_seed_deterministic():
    a = haar_sample_K(4, size=8, rng=np.random.default_rng(99))
    b = haar_sample_K(4, size=8, rng=np.random.default_rng(99))
    assert np.array_equal(a, b)


def test_haar_first_moment_vanishes():
    ks = haar_sample_K(3, size=20000, rng=np.random.default_rng(5))
    # entries of a Haar rotation have mean zero, variance 1/n
    assert np.max(np.abs(ks.mean(axis=0))) < 5.0 / np.sqrt(20000 / 3.0)


def _assert_in_SO(ks):
    n = ks.shape[-1]
    assert np.max(np.abs(np.swapaxes(ks, -1, -2) @ ks - np.eye(n))) <= 1e-13
    assert np.max(np.abs(np.linalg.det(ks) - 1.0)) <= 1e-12


@pytest.mark.parametrize("n", range(1, 10))
def test_haar_sweep_reproduces_the_lapack_recipe(n):
    switch = lg._SWEEP_PER_N * n
    for size in (None, 1, 2, switch - 1, switch, 4096):
        got = haar_sample_K(n, size=size, rng=np.random.default_rng(1900 + n))
        want = haar_sample_K_qr(n, size=size, rng=np.random.default_rng(1900 + n))
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-12
        _assert_in_SO(got.reshape(-1, n, n))
        if size is None or size < switch:
            assert np.array_equal(got, want)


class _StubRng:
    """Hands haar_sample_K a fixed stack as its Gaussian draw."""

    def __init__(self, z):
        self.z = z

    def standard_normal(self, shape):
        assert shape == self.z.shape
        return self.z.copy()


def _crafted_stacks(n, m, rng):
    """Gaussian draws that LAPACK's QR treats specially: upper
    triangular (every reflection skipped), zero parts below the
    diagonal in one or two columns (those reflections skipped), the
    same with the diagonal entry zero too (a skip with R_jj = 0, whose
    sign counts as +1), and negative diagonals (R's sign fix flips
    every column)."""
    upper = np.triu(rng.standard_normal((m, n, n)))
    holes = rng.standard_normal((m, n, n))
    for s in range(m):
        for j in {s % max(n - 1, 1), (s // 3) % max(n - 1, 1)}:
            holes[s, j + 1:, j] = 0.0
    singular = holes.copy()
    for s in range(m):
        j = s % max(n - 1, 1)
        singular[s, j:, j] = 0.0
    negative = rng.standard_normal((m, n, n))
    idx = np.arange(n)
    negative[:, idx, idx] = -np.abs(negative[:, idx, idx])
    return {"upper": upper, "holes": holes, "singular": singular,
            "negative_diagonal": negative, "negative_upper": np.triu(negative)}


@pytest.mark.parametrize("n", range(1, 10))
def test_haar_sweep_counts_only_the_reflections_it_applies(n):
    m = lg._SWEEP_PER_N * n
    for name, z in _crafted_stacks(n, m, np.random.default_rng(19 + n)).items():
        got = haar_sample_K(n, size=m, rng=_StubRng(z))
        want = haar_sample_K_qr(n, size=m, rng=_StubRng(z))
        _assert_in_SO(got)
        assert np.max(np.abs(got - want)) <= 1e-12, name


@pytest.mark.parametrize("n, size", [(0, 3), (-2, None), (2.5, 3), ("3", 3), (3, 2.7),
                                     (3, -1), (3, "4"), (3, 4.0)])
def test_haar_rejects_bad_arguments(n, size):
    with pytest.raises(ValueError):
        haar_sample_K(n, size=size, rng=np.random.default_rng(0))


def test_haar_empty_stack():
    assert haar_sample_K(3, size=0, rng=np.random.default_rng(0)).shape == (0, 3, 3)
    ks = haar_sample_K(4, size=np.int64(5), rng=np.random.default_rng(0))
    assert ks.shape == (5, 4, 4)


# ---------------------------------------------------------------------------
# radial weight and the defect bound


def test_plane_rotations_take_sequences_for_cos_and_sin():
    # a tuple s raised TypeError while a tuple c worked
    got = lg.plane_rotations(3, (1.0, 0.0), (0.0, 1.0))
    want = lg.plane_rotations(3, np.array([1.0, 0.0]), np.array([0.0, 1.0]))
    assert np.array_equal(got, want)
    assert np.array_equal(got[1], [[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])


def test_radial_weight_value():
    for n, t in ((3, 0.7), (5, 2.0)):
        assert abs(radial_weight(t, n) - (2.0 * np.sinh(t)) ** (n - 1)) <= 1e-12


def test_defect_bound_ten_thousand_pairs():
    # 0 <= E(g, x) <= e^{2(A+(g) - A+(x))} + 1e-9 on 10^4 random pairs
    rng = np.random.default_rng(2024)
    checked = 0
    for n in (3, 4):
        for _ in range(5000):
            g = _random_g(n, rng, tmax=2.0)
            x = _random_g(n, rng, tmax=2.0)
            e = e_defect(g, x)
            bound = np.exp(2.0 * (cartan(g).t - cartan(x).t))
            assert -1e-12 <= e <= bound + 1e-9
            checked += 1
    assert checked == 10000


def test_defect_strictly_positive_off_degenerate_set(rng):
    # generic pairs never land on K x stab, so E > 0 strictly
    vals = []
    for _ in range(50):
        g = _random_g(3, rng, tmax=2.0)
        x = _random_g(3, rng, tmax=2.0)
        vals.append(e_defect(g, x))
    assert min(vals) > 0.0


def _mixed_stack(n, rng):
    """Ties (t < TIE_EPS, one with t > 0), b exactly or nearly along +e_1
    and generic elements, in a random order."""
    ks = embed_rotation(haar_sample_K(n, size=12, rng=rng))
    tiny = make_rotation(lg.plane_rotations(n, np.cos(1e-16), np.sin(1e-16))).mat
    parts = [ks[0], ks[1] @ ks[2],                                   # ties
             make_at(1e-13, n).mat @ ks[3],                          # tie, t > 0
             make_at(0.7, n).mat @ ks[4], make_at(2.0, n).mat,       # b = +e_1 sinh t
             tiny @ make_at(1.3, n).mat @ ks[5]]                     # b nearly +e_1
    parts += [ks[6 + i] @ make_at(t, n).mat @ ks[9 + i % 3] for i, t in enumerate((0.2, 1.1, 2.9))]
    return np.stack([parts[i] for i in rng.permutation(len(parts))])


def test_cartan_is_the_one_element_batch():
    # each element of the mixed stacks alone, and k1 a_t k2 at t = 0, 0.4
    # and 2: the factors of the earlier stacked decomposition bit for bit,
    # the sign of every zero too
    rng = np.random.default_rng(21)
    mats = [g for n in (2, 3, 4, 5) for g in _mixed_stack(n, np.random.default_rng(31 + n))]
    for n in (2, 3, 5):
        for t in (0.0, 0.4, 2.0):
            k1, k2 = haar_sample_K(n, size=2, rng=rng)
            mats.append((make_rotation(k1) @ make_at(t, n) @ make_rotation(k2)).mat)
    ties = 0
    for g in mats:
        one = cartan(GroupElement(g))
        bt, bk1, bk2 = cartan_batch_copy(g[None])
        ties += one.t < TIE_EPS
        assert one.t == float(bt[0])
        for got, want in ((one.k1.mat, bk1[0]), (one.k2.mat, bk2[0])):
            assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))
    assert ties == 4 * 3 + 3


def test_cartan_axis_mixed_stack_is_each_element_alone():
    # ties (t < TIE_EPS), b exactly or nearly along +e_1, and generic
    # elements in one stack: each returns bit for bit what it returns
    # alone, and the axis data of the earlier stacked decomposition: the
    # same t, b = k1 e_1 (k1 = pi0 at the ties) and pi0 = k1 k2
    mats = _mixed_stack(4, np.random.default_rng(31))
    t, b, pol = lg.cartan_axis(mats)
    assert np.sum(t < TIE_EPS) == 3
    for i, g in enumerate(mats):
        for got, alone in zip((t, b, pol), lg.cartan_axis(g[None])):
            assert np.array_equal(got[i], alone[0])
            assert np.array_equal(np.signbit(got[i]), np.signbit(alone[0]))
    t_ref, k1, k2 = cartan_batch_copy(mats)
    assert np.array_equal(t, t_ref)
    tie = t < TIE_EPS
    assert np.array_equal(b[tie], k1[tie][..., 0]) and np.array_equal(pol[tie], k1[tie])
    assert np.max(np.abs(b - k1[..., 0])) <= 1e-15
    assert np.max(np.abs(pol - k1 @ k2)) <= 1e-14
