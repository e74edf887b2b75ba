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
)
import hyperform.liegroup as lg
from hyperform.liegroup import TIE_EPS, at_mats, cartan_batch, embed_rotation, iwasawa_batch

from oracles import (
    cartan_batch_copy,
    e_defect,
    group_mp,
    haar_sample_K_qr,
    iwasawa_batch_product,
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
            got_h, got_y, got_kappa = iwasawa_batch(np.array(gm.tolist(), dtype=float))
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
    h, y, kappa = iwasawa_batch(mats)
    h0, y0, kappa0 = iwasawa_batch_product(mats)
    assert np.array_equal(h, h0) and np.array_equal(y, y0)
    scale = np.max(np.abs(mats), axis=(-1, -2))
    assert np.all(np.max(np.abs(kappa - kappa0), axis=(-1, -2)) <= 1e-13 * scale)


def test_iwasawa_raises_once_kappa_is_not_orthogonal():
    g = (make_rotation(haar_sample_K(4, rng=np.random.default_rng(3))) @ make_at(1.0, 4)).mat
    bent = g.copy()
    bent[0, 1] += 1e-10  # kappa e_1 moves by 1e-10: within the 1e-8 slack
    iwasawa_batch(bent)
    bent[0, 1] += 1e-7
    with pytest.raises(ArithmeticError, match="lost orthogonality"):
        iwasawa_batch(bent)
    # far out the rounding of g alone exceeds the slack
    with pytest.raises(ArithmeticError, match="lost orthogonality"):
        iwasawa_batch(_stack(4, 20.0, 2000, np.random.default_rng(5)))


def _sample_major(rots):
    return np.ascontiguousarray(rots.transpose(1, 2, 0))


@pytest.mark.parametrize("n", range(2, 9))
def test_iwasawa_boosted_batch_is_iwasawa_batch_on_the_product(n):
    # the closed form of a_{-t} r against iwasawa_batch on the explicit
    # products, t in [0, 12]
    rots = haar_sample_K(n, size=64, rng=np.random.default_rng(60 + n))
    buf = np.empty((n, n, 64))
    for t in np.linspace(0.0, 12.0, 25):
        h0, y0, kappa0 = iwasawa_batch(at_mats(-t, n) @ embed_rotation(rots))
        h, y, kappa = lg.iwasawa_boosted_batch(t, _sample_major(rots), out=buf)
        assert kappa is buf
        assert np.max(np.abs(h - h0)) <= 1e-12
        assert np.max(np.abs(kappa.transpose(2, 0, 1) - kappa0)) <= 1e-12
        assert np.all(np.abs(y.T - y0) <= 1e-12 * np.maximum(1.0, np.abs(y0)))
    # an array of radii, one per sample
    ts = np.linspace(0.0, 12.0, 64)
    h0, _, kappa0 = iwasawa_batch(at_mats(-ts, n) @ embed_rotation(rots))
    h, _, kappa = lg.iwasawa_boosted_batch(ts, _sample_major(rots))
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
        got = _outcome(lambda: lg.iwasawa_boosted_batch(t, _sample_major(rots)))
        assert got == want, t
        raised += want is not None
    assert raised == 4


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_decompositions_raise_where_entries_overflow():
    # cosh 700 is finite but sinh^2 is not, and cosh 750 overflows: the
    # defects are NaN there, and a NaN defect must raise
    for t in (700.0, 750.0):
        mats = make_at(t, 3).mat[None]
        with pytest.raises(ArithmeticError, match="lost orthogonality"):
            cartan_batch(mats)
    with pytest.raises(ArithmeticError, match="lost orthogonality"):
        iwasawa_batch(make_at(750.0, 3).mat[None])


def test_iwasawa_batch_memory():
    # 8192 matrices at n=6 (3.1 MB): the product route peaked 9.6 MB
    # above its input, with two (n+1) x (n+1) factor stacks
    mats = _stack(6, 2.0, 8192, np.random.default_rng(6))
    tracemalloc.start()
    try:
        iwasawa_batch(mats)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8.5 * 2 ** 20


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


def _slab(n, t_nodes, rotations, rng):
    """g^{-1} k a_t over t_nodes radii and Haar rotations k, the group
    matrices of one mc_k slab for an atom g away from the base point,
    flattened to (t_nodes * rotations, n+1, n+1), with three ties and one
    a_t, whose Householder direction is e_1 itself."""
    g = _random_g(n, rng)
    ks = embed_rotation(haar_sample_K(n, size=rotations, rng=rng))
    ats = np.stack([make_at(t, n).mat for t in np.linspace(0.05, 4.0, t_nodes)])
    mats = (g.inv().mat @ ks)[None] @ ats[:, None]
    mats = mats.reshape((-1, n + 1, n + 1))
    mats[:3] = ks[:3]
    mats[3] = make_at(1.0, n).mat
    return mats


def test_cartan_batch_equals_earlier_version_with_less_memory():
    # 16 t-nodes x 4000 rotations at n=3: the earlier version peaked
    # 36 MB above its 8 MB input
    mats = _slab(3, 16, 4000, np.random.default_rng(12))
    tracemalloc.start()
    try:
        t, k1, k2 = cartan_batch(mats)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 24 * 2 ** 20
    t0, k10, k20 = cartan_batch_copy(mats)
    assert np.array_equal(t, t0) and np.array_equal(k1, k10) and np.array_equal(k2, k20)
    # the sign of every zero too
    assert np.array_equal(np.signbit(k1), np.signbit(k10))
    for n in (2, 4, 5):
        mats = _slab(n, 4, 50, np.random.default_rng(n))
        for got, want in zip(cartan_batch(mats), cartan_batch_copy(mats)):
            assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))


def test_cartan_is_the_one_element_batch():
    rng = np.random.default_rng(21)
    for n in (2, 3, 5):
        for t in (0.0, 0.4, 2.0):
            k1, k2 = haar_sample_K(n, size=2, rng=rng)
            g = make_rotation(k1) @ make_at(t, n) @ make_rotation(k2)
            one = cartan(g)
            bt, bk1, bk2 = cartan_batch(g.mat[None])
            assert one.t == float(bt[0])
            assert np.array_equal(one.k1.mat, bk1[0]) and np.array_equal(one.k2.mat, bk2[0])


def test_cartan_batch_mixed_stack_is_each_element_alone():
    # ties (t < TIE_EPS), b exactly or nearly along +e_1, and generic
    # elements in one stack: each returns bit for bit what it returns
    # alone, and the stack what the earlier version returns
    rng = np.random.default_rng(31)
    n = 4
    ks = embed_rotation(haar_sample_K(n, size=12, rng=rng))
    tiny = make_rotation(np.array([[np.cos(1e-16), -np.sin(1e-16), 0, 0],
                                   [np.sin(1e-16), np.cos(1e-16), 0, 0],
                                   [0, 0, 1, 0], [0, 0, 0, 1]])).mat
    parts = [ks[0], ks[1] @ ks[2],                                   # ties
             make_at(1e-13, n).mat @ ks[3],                          # tie, t > 0
             make_at(0.7, n).mat @ ks[4], make_at(2.0, n).mat,       # b = +e_1 sinh t
             tiny @ make_at(1.3, n).mat @ ks[5]]                     # b nearly +e_1
    parts += [ks[6 + i] @ make_at(t, n).mat @ ks[9 + i % 3] for i, t in enumerate((0.2, 1.1, 2.9))]
    mats = np.stack([parts[i] for i in rng.permutation(len(parts))])
    t, k1, k2 = cartan_batch(mats)
    assert np.sum(t < TIE_EPS) == 3
    for i, g in enumerate(mats):
        for got, alone in zip((t, k1, k2), cartan_batch(g[None])):
            assert np.array_equal(got[i], alone[0])
            assert np.array_equal(np.signbit(got[i]), np.signbit(alone[0]))
    for got, want in zip((t, k1, k2), cartan_batch_copy(mats)):
        assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))
