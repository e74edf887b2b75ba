"""Special-function layer against arbitrary-precision oracles.

mpmath supplies independent implementations of Gamma and 2F1; the
Jacobi functions and the c-coefficient are additionally checked
against their own defining identities (connection formula, recursion,
and a direct quadrature of the boundary-group integral).
"""

import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest

from hyperform import (
    BundleSpec,
    GroupElement,
    JacobiParams,
    SpectralPoint,
    bump_section,
    c_jacobi,
    c_sigma,
    eisenstein_integral_at,
    gamma_c,
    hyp2f1_negz,
    iwasawa,
    jacobi_phi,
    jacobi_phi_pair,
    jacobi_psi,
    make_ny,
    sigma_q,
)
from hyperform import specialfn as sf
from hyperform.specialfn import _Series, gauss_legendre

from oracles import c_jacobi_loop, log_gamma_loop, phi_half_odd, series_nterms_blocks

mpmath.mp.dps = 40


# ---------------------------------------------------------------------------
# gamma


def test_gamma_matches_mpmath_on_strip():
    zs = [0.5, 1.0, 2.5, 7.0, 2 + 3j, 0.5 - 4j, -1.5 + 0.3j, -6.3 - 2j, 12 + 9j]
    for z in zs:
        want = complex(mpmath.gamma(z))
        got = gamma_c(z)
        assert abs(got - want) <= 1e-12 * abs(want)


def test_gamma_recursion(rng):
    # Gamma(z+1) = z Gamma(z), relative 1e-12 on random complex z
    zs = rng.uniform(-8, 8, size=200) + 1j * rng.uniform(-8, 8, size=200)
    zs = zs[np.abs(zs.imag) > 1e-3]
    for z in zs:
        z = complex(z)
        lhs = gamma_c(z + 1.0)
        rhs = z * gamma_c(z)
        assert abs(lhs - rhs) <= 1e-12 * abs(rhs)


def test_gamma_pole_flags_infinity():
    assert not np.isfinite(gamma_c(0.0))
    assert not np.isfinite(gamma_c(-3.0))
    assert np.isfinite(gamma_c(-3.0 + 1e-9j))


def test_lanczos_sum_is_the_term_loop_bit_for_bit():
    """gamma_c and c_jacobi take their Lanczos sums in one step; on 12,000
    complex points (half with Re z < 1/2, the non-positive and positive
    integers and the real axis among them), one at a time and as one array,
    and on 2,500 (alpha, beta, lambda) triples, they equal the term loop
    of tests/oracles.py bit for bit."""
    rng = np.random.default_rng(37)
    z = rng.uniform(-30.0, 30.0, 12000) + 1j * rng.uniform(-30.0, 30.0, 12000)
    z[:60] = np.arange(-59, 1)
    z[60:120] = np.arange(1, 61)
    z[120:1000] = rng.uniform(-30.0, 30.0, 880)
    z[1000:2000] = rng.uniform(-3.0, 3.0, 1000) + 1j * rng.uniform(-1e-3, 1e-3, 1000)
    assert np.count_nonzero(z.real < 0.5) >= 5000
    with np.errstate(invalid="ignore", over="ignore"):
        want = np.exp(log_gamma_loop(z))
    assert _bits(gamma_c(z)) == _bits(want)
    assert _bits(gamma_c(z.reshape(100, 120))) == _bits(want.reshape(100, 120))
    for zi, wi in zip(z[::20], want[::20]):
        assert _bits(gamma_c(zi)) == _bits(wi)
    alphas = rng.choice([0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0, -0.5, 0.3 + 0.2j], 2500)
    betas = rng.choice([-0.5, 0.0, 0.5, 2.0, 5.0, -1.5], 2500)
    lams = rng.uniform(-50.0, 50.0, 2500) + 1j * rng.choice([0.0, 0.0, 1.0, -2.5], 2500)
    lams[:40] = 1j * np.arange(-20, 20)
    for alpha, beta, lam in zip(alphas, betas, lams):
        want = c_jacobi_loop(alpha, beta, lam)
        got = _outcome(c_jacobi, alpha, beta, lam)
        if want is None:
            assert isinstance(got, tuple) and got[0] is ValueError, (alpha, beta, lam)
        else:
            assert _bits(got) == _bits(want), (alpha, beta, lam)


# ---------------------------------------------------------------------------
# 2F1 on the negative real axis


def test_hyp2f1_matches_mpmath():
    cases = [
        (0.5 + 1j, 1.5 - 0.5j, 2.0, -0.3),
        (1.25, 0.75, 1.5 + 0.2j, -0.9),
        (2.0 + 0.1j, 0.5, 3.0, -5.0),
        (0.5, 0.5, 1.0, -80.0),
        (1.5 - 2j, 1.5 + 2j, 2.5, -40.0),
    ]
    for a, b, c, z in cases:
        want = complex(mpmath.hyp2f1(a, b, c, z))
        got = hyp2f1_negz(a, b, c, z)
        assert abs(got - want) <= 1e-10 * max(1.0, abs(want))


def test_hyp2f1_direct_series_inside_radius(rng):
    # |z| < 1: compare against the raw power series summed in double
    for _ in range(20):
        a = complex(rng.uniform(0.2, 2.0), rng.uniform(-1, 1))
        b = complex(rng.uniform(0.2, 2.0), rng.uniform(-1, 1))
        c = complex(rng.uniform(1.0, 3.0), 0.0)
        z = -0.5
        term, acc = 1.0 + 0j, 1.0 + 0j
        for k in range(200):
            term *= (a + k) * (b + k) / ((c + k) * (k + 1.0)) * z
            acc += term
            if abs(term) < 1e-18 * abs(acc):
                break
        got = hyp2f1_negz(a, b, c, z)
        assert abs(got - acc) <= 1e-12 * abs(acc)


def _series_w_loop(a, b, c, w):
    """The term-by-term loop the series kernel replaced, kept as its
    oracle: the sum and max_k |term_k| at each w."""
    w = np.asarray(w, dtype=float)
    term = np.ones(w.shape, dtype=complex)
    total = term.copy()
    peak = np.abs(term)
    wmax = float(np.max(w)) if w.size else 0.0
    geo = wmax / (1.0 - wmax) if wmax < 1.0 else np.inf
    for k in range(4000):
        term = term * ((a + k) * (b + k) / ((c + k) * (1.0 + k))) * w
        total += term
        peak = np.maximum(peak, np.abs(term))
        bound = np.abs(term) * max(geo, 1.0)
        if np.all(bound <= 1e-16 * (np.abs(total) + 1e-300)):
            return total, peak
    raise RuntimeError("2F1 series did not converge")


def test_series_kernel_matches_term_loop(rng):
    # Jacobi-type parameters (a, c - b, c) over both branches' ranges of
    # w, plus generic complex ones; arrays and single points
    for trial in range(60):
        if trial % 2:
            alpha, beta = rng.choice([0.5, 1.0, 1.5, 2.0, 3.0]), rng.choice([-0.5, 0.0, 3.0])
            lam = rng.uniform(0.0, 12.0)
            a = (1j * lam + alpha + beta + 1.0) / 2.0
            b = (1j * lam + alpha - beta + 1.0) / 2.0
            c = alpha + 1.0
        else:
            a = complex(rng.uniform(-1.5, 3.0), rng.uniform(-4.0, 4.0))
            b = complex(rng.uniform(-1.5, 3.0), rng.uniform(-4.0, 4.0))
            c = complex(rng.uniform(0.5, 4.0), rng.uniform(-1.0, 1.0))
        size = 1 if trial % 3 == 0 else 64
        w = rng.uniform(0.0, 0.9, size)
        want, peak = _series_w_loop(a, b, c, w)
        got, nterms, ratio = _Series(a, b, c).sum(w)
        assert np.all(nterms >= 1)
        # the reported ratio is max|term| / |sum|
        assert np.allclose(ratio, peak / np.abs(got), rtol=1e-12, atol=0.0)
        tame = ratio <= 10.0
        assert np.all(np.abs(got - want)[tame] <= 1e-13 * np.abs(want)[tame])


def test_series_kernel_extends_points_near_a_zero():
    # phi^(1/2,-1/2)_lambda(t) = sin(lambda t) / (lambda sinh t) (n = 3)
    # has zeros; a point next to one needs more terms than the largest w
    # does, and the per-point test must extend its sum
    lam = 4.0
    ts = np.array([0.2, np.pi / lam + 1e-9, np.pi / lam + 1e-3])
    got = jacobi_phi(JacobiParams(0.5, -0.5, lam), ts)
    want = np.sin(lam * ts) / (lam * np.sinh(ts))
    assert np.all(np.abs(got - want) <= 1e-13 * np.maximum(np.abs(want), np.exp(-ts)))
    _, nterms, _ = hyp2f1_negz((1j * lam + 1.0) / 2.0, (1.0 - 1j * lam) / 2.0, 1.5,
                               -np.sinh(ts) ** 2, full_output=True)
    assert nterms[1] > nterms[2]


def _count(series, w):
    return series.count(w, max(w / (1.0 - w), 1.0))


def test_term_count_matches_the_block_scan():
    # the scalar scan against the block scan it replaced, on both tables
    # of Jacobi triples with lambda up to 12, at w = 0, near 0 and near
    # 0.9; a count that differs must be a borderline stop, where both
    # truncated sums agree to 1e-15.  The count must not depend on the
    # order in which the tables were warmed
    rng = np.random.default_rng(16)
    checked = borderline = 0
    for _ in range(60):
        args = (rng.choice([0.5, 1.0, 1.5, 2.0, 3.0, 4.0]), rng.choice([-0.5, 0.0, 3.0, 5.0]),
                rng.uniform(0.0, 12.0))
        ws = [0.0, rng.uniform(0.0, 1e-3), rng.uniform(0.85, 0.9), rng.uniform(0.0, 0.9)]
        counts = []
        for order in (ws, ws[::-1], "warm"):
            tables = JacobiParams(*args)._series
            if order == "warm":
                for series in tables:
                    series.upto(3000)
            counts.append([[_count(series, w) for w in ws] for series in tables])
        assert counts[0] == counts[1] == counts[2]
        for series, got_row in zip(JacobiParams(*args)._series, counts[0]):
            for w, got in zip(ws, got_row):
                want = series_nterms_blocks(series, w)
                checked += 1
                if got != want:
                    borderline += 1
                    coef = series.upto(max(got, want))
                    a, b = (np.sum(coef[:m] * w ** np.arange(m)) for m in (got, want))
                    assert abs(a - b) <= 1e-15 * abs(b), (args, w, got, want)
    assert borderline <= checked // 100


def test_term_count_is_capped_next_to_w_one():
    # at w within 1e-12 of 1 the tail estimate asks for ~1e13 terms: the
    # scan must raise at the series cap, with a table of a few thousand
    tracemalloc.start()
    try:
        with pytest.raises(RuntimeError, match="did not converge"):
            hyp2f1_negz(0.5 + 1j, 0.7, 1.5, -1e12)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


def _bits(x):
    x = np.asarray(x)
    return x.dtype.str, x.shape, x.tobytes()


@pytest.mark.parametrize("alpha,beta,lam", [(2.0, -0.5, 1.0), (3.0, -0.5, 4.0),
                                            (1.0, 3.0, 2.5), (0.5, -0.5, 1.0 + 0.3j)])
def test_scalar_call_is_the_one_element_array_call(alpha, beta, lam):
    # one code path: a scalar is the array call on one element, bit for bit
    par = JacobiParams(alpha, beta, lam)
    for t in (0.0, 0.3, 1.0, 1.7, 2.2, 5.0):
        assert _bits(jacobi_phi(par, t)) == _bits(jacobi_phi(par, np.array([t]))[0])
        if t >= 0.5:
            one = jacobi_psi(par, t, full_output=True)
            arr = jacobi_psi(par, np.array([t]), full_output=True)
            assert [_bits(x) for x in one] == [_bits(x[0]) for x in arr]
    a, b, c = (1j * lam + alpha + beta + 1) / 2, (1j * lam + alpha - beta + 1) / 2, alpha + 1
    for z in (0.0, -0.3, -5.0, -40.0):
        one = hyp2f1_negz(a, b, c, z, full_output=True)
        arr = hyp2f1_negz(a, b, c, np.array([z]), full_output=True)
        assert [_bits(x) for x in one] == [_bits(x[0]) for x in arr]


# ---------------------------------------------------------------------------
# Jacobi functions


def _phi_mpmath(alpha, beta, lam, t):
    a = (alpha + beta + 1 - 1j * lam) / 2
    b = (alpha + beta + 1 + 1j * lam) / 2
    return complex(mpmath.hyp2f1(a, b, alpha + 1, -mpmath.sinh(t) ** 2))


@pytest.mark.parametrize("alpha,beta", [(0.5, -0.5), (1.5, -0.5), (2.0, -0.5), (1.0, 3.0)])
@pytest.mark.parametrize("lam", [0.5, 1.0, 2.0])
def test_phi_matches_mpmath(alpha, beta, lam):
    # spans both evaluation regimes (series and connection formula)
    for t in (0.3, 1.0, 1.9, 3.5, 8.0):
        want = _phi_mpmath(alpha, beta, lam, t)
        got = complex(jacobi_phi(JacobiParams(alpha, beta, lam), t))
        assert abs(got - want) <= 1e-10 * max(abs(want), 1e-300)


# (alpha, beta) of every Jacobi function the spherical components use, n <= 8
_PHI_FAMILIES = sorted({(1.0, 0.0)}
                       | {(n / 2 - 1, -0.5) for n in range(2, 9)}
                       | {(n / 2, -0.5) for n in range(2, 9)}
                       | {(n / 2 - 1, n / 2 + 1) for n in range(2, 9)})


def test_phi_right_or_raises_on_mpmath_grid():
    """Every value is within 1e-10 of mpmath relative to
    max(|phi|, e^{-(alpha+beta+1) t}), or the call raises ArithmeticError;
    it never raises at lambda <= 10."""
    lams = (0.1, 0.5, 1.0, 4.0, 10.0, 25.0, 40.0, 100.0, 300.0)
    ts = (0.0, 0.05, 0.3, 0.5, 0.7, 1.0, 1.5, 1.82, 2.0, 3.0, 5.0, 10.0)
    raised = []
    for alpha, beta in _PHI_FAMILIES:
        for lam in lams:
            for t in ts:
                try:
                    got = complex(jacobi_phi(JacobiParams(alpha, beta, lam), t))
                except ArithmeticError:
                    raised.append((alpha, beta, lam, t))
                    continue
                want = _phi_mpmath(alpha, beta, lam, t)
                scale = max(abs(want), np.exp(-(alpha + beta + 1.0) * t))
                assert abs(got - want) <= 1e-10 * scale, (alpha, beta, lam, t)
    assert all(lam > 10.0 for _, _, lam, _ in raised)


def test_half_odd_phi_matches_mpmath_and_never_raises():
    """At (alpha, beta) = (m - 1/2, -1/2), m = 1..4 (every odd-n
    component), jacobi_phi is within 1e-10 of mpmath relative to
    max(|phi|, e^{-m t}) on a grid of lambda in [0, 40] and t in [0, 40],
    and never raises for lambda and t there; the shift-formula oracle
    agrees to 1e-10 on a dense grid of t >= 0.5."""
    ts = np.concatenate((np.linspace(0.0, 0.5, 11),
                         [0.7, 1.0, 1.5, 2.2, 3.0, 5.0, 8.0, 13.0, 20.0, 30.0, 40.0]))
    dense = np.linspace(0.0, 40.0, 4001)
    for m in range(1, 5):
        for lam in (0.0, 1e-3, 0.5, 5.5, 15.0, 25.0, 40.0):
            got = jacobi_phi(JacobiParams(m - 0.5, -0.5, lam), ts)
            for t, g in zip(ts, got):
                want = _phi_mpmath(m - 0.5, -0.5, lam, t)
                assert abs(g - want) <= 1e-10 * max(abs(want), np.exp(-m * t)), (m, lam, t)
        for lam in np.linspace(0.0, 40.0, 41):
            got = jacobi_phi(JacobiParams(m - 0.5, -0.5, lam), dense)
            for t, g in zip(dense[50::37], got[50::37]):
                want = phi_half_odd(m, lam, t)
                assert abs(g - want) <= 1e-10 * max(abs(want), np.exp(-m * t)), (m, lam, t)


def _outcome(fn, *args, **kwargs):
    """fn's value, or the type and message of the ArithmeticError or
    ValueError it raises."""
    try:
        return fn(*args, **kwargs)
    except (ArithmeticError, ValueError) as exc:
        return type(exc), str(exc)


def test_one_point_route_is_the_array_route():
    """A single t takes the one-point route and [t, t] the array route, at
    the same wmax and so with the same term count.  Over every family and
    the lambda and t of the mpmath grid test, both raise or neither does,
    phi agrees to 1e-13 of max(|phi|, e^{-(alpha+beta+1) t}), and Psi's
    term counts are equal with values and ratios within 1e-13 and 1e-12."""
    lams = (0.1, 0.5, 1.0, 4.0, 10.0, 25.0, 40.0, 100.0, 300.0)
    ts = (0.0, 0.05, 0.3, 0.5, 0.7, 1.0, 1.5, 1.82, 2.0, 3.0, 5.0, 10.0)
    raised = 0
    for alpha, beta in _PHI_FAMILIES:
        for lam in lams:
            for t in ts:
                case = (alpha, beta, lam, t)
                # fresh instances, so neither route sees tables the other grew
                one = _outcome(jacobi_phi, JacobiParams(alpha, beta, lam), t)
                two = _outcome(jacobi_phi, JacobiParams(alpha, beta, lam), np.array([t, t]))
                if isinstance(one, tuple) or isinstance(two, tuple):
                    assert isinstance(one, tuple) and isinstance(two, tuple), case
                    assert one[0] is two[0], case
                    raised += 1
                    continue
                assert np.shape(one) == () and two[0] == two[1]
                scale = max(abs(two[0]), np.exp(-(alpha + beta + 1.0) * t))
                assert abs(one - two[0]) <= 1e-13 * scale, case
                if t < 0.5:
                    continue
                val, nterms, ratio = jacobi_psi(JacobiParams(alpha, beta, lam), t, full_output=True)
                vals, nterms2, ratios = jacobi_psi(JacobiParams(alpha, beta, lam), np.array([t, t]),
                                                   full_output=True)
                assert nterms == nterms2[0] == nterms2[1], case
                assert abs(ratio - ratios[0]) <= 1e-12 * ratios[0], case
                assert abs(val - vals[0]) <= 1e-13 * abs(vals[0]), case
    # the grid reaches the refusal bands at lambda >= 25
    assert raised > 0
    # points the Pfaff series' final check refused while it was kept up to
    # T_SWITCH: the connection formula answers them, on both routes
    for alpha, beta, lam, t in ((0.0, -0.5, 15.0, 1.3), (0.0, 2.0, 12.0, 1.6),
                                (1.0, 3.0, 12.0, 1.6)):
        want = _phi_mpmath(alpha, beta, lam, t)
        scale = max(abs(want), np.exp(-(alpha + beta + 1.0) * t))
        for got in (jacobi_phi(JacobiParams(alpha, beta, lam), t),
                    jacobi_phi(JacobiParams(alpha, beta, lam), np.array([t, t]))[0]):
            assert abs(got - want) <= 1e-10 * scale, (alpha, beta, lam, t)
    # points that the chosen branch's estimate passes and its final check
    # refuses: the other branch answers them, on both routes
    for alpha, beta, lam, t in ((0.0, -0.5, 20.0, 0.85), (0.0, 2.0, 15.0, 1.1),
                                (0.5, 2.5, 15.0, 1.1)):
        assert sf._pfaff_first(JacobiParams(alpha, beta, lam), np.float64(t))
        want = _phi_mpmath(alpha, beta, lam, t)
        scale = max(abs(want), np.exp(-(alpha + beta + 1.0) * t))
        for got in (jacobi_phi(JacobiParams(alpha, beta, lam), t),
                    jacobi_phi(JacobiParams(alpha, beta, lam), np.array([t, t]))[0]):
            assert abs(got - want) <= 1e-10 * scale, (alpha, beta, lam, t)
    # hyp2f1_negz takes the same route on one z
    for z in (0.0, -0.3, -5.0, -40.0):
        for a, b, c in ((0.5 + 1j, 1.5 - 0.5j, 2.0), (1.25, 0.75, 1.5 + 0.2j)):
            val, nterms, ratio = hyp2f1_negz(a, b, c, z, full_output=True)
            vals, nterms2, ratios = hyp2f1_negz(a, b, c, np.array([z, z]), full_output=True)
            assert nterms == nterms2[0] and abs(ratio - ratios[0]) <= 1e-12 * ratios[0]
            assert abs(val - vals[0]) <= 1e-13 * abs(vals[0])


def _pair_counts(par, t):
    """The term counts of a's series alone and of the pair's at one t, on
    the branch the rule picks."""
    t = np.float64(t)
    near = sf._pfaff_first(par, t)
    z = -np.square(np.sinh(t)) if near else -1.0 / np.square(np.sinh(t))
    series, w = par._series[0 if near else 1], float(z / (z - 1.0))
    guard = max(w / (1.0 - w), 1.0)
    return series.count(w, guard), series.count(w, guard, deriv=True)


def test_pair_gives_b_from_a_series():
    """On the mpmath grid, for (alpha, -1/2) with alpha = n/2 - 1, n = 2..8:
    b from jacobi_phi_pair is within 1e-10 of mpmath relative to
    max(|b|, e^{-(alpha+3/2) t}); a equals jacobi_phi(a) to 1e-14 of
    max(|a|, e^{-(alpha+1/2) t}), bit for bit where the pair sums a's number
    of terms; a single t agrees with [t, t] to 1e-13.  The pair raises only
    where jacobi_phi(a) does (its refusals are a's), so it answers wherever
    jacobi_phi(a) and jacobi_phi(b) both do."""
    lams = (0.1, 0.5, 1.0, 4.0, 10.0, 25.0, 40.0, 100.0, 300.0)
    ts = (0.0, 0.05, 0.3, 0.5, 0.7, 1.0, 1.5, 1.82, 2.0, 3.0, 5.0, 10.0)
    same_count = 0
    for n in range(2, 9):
        alpha = n / 2 - 1
        for lam in lams:
            for t in ts:
                case = (n, lam, t)
                a_one = _outcome(jacobi_phi, JacobiParams(alpha, -0.5, lam), t)
                pair = _outcome(jacobi_phi_pair, JacobiParams(alpha, -0.5, lam), t)
                if isinstance(pair, tuple) and isinstance(pair[0], type):
                    assert pair[0] is ArithmeticError and isinstance(a_one, tuple), case
                    continue
                a, b = pair
                assert np.shape(a) == np.shape(b) == ()
                want = _phi_mpmath(alpha + 1, -0.5, lam, t)
                b_scale = max(abs(want), np.exp(-(alpha + 1.5) * t))
                assert abs(b - want) <= 1e-10 * b_scale, case
                a_scale = max(abs(a_one), np.exp(-(alpha + 0.5) * t))
                assert abs(a - a_one) <= 1e-14 * a_scale, case
                counts = _pair_counts(JacobiParams(alpha, -0.5, lam), t)
                if counts[0] == counts[1]:
                    same_count += 1
                    assert _bits(a) == _bits(a_one), case
                aa, bb = jacobi_phi_pair(JacobiParams(alpha, -0.5, lam), np.array([t, t]))
                assert aa[0] == aa[1] and bb[0] == bb[1], case
                assert abs(aa[0] - a) <= 1e-13 * a_scale and abs(bb[0] - b) <= 1e-13 * b_scale, case
    assert same_count > 0


@pytest.mark.parametrize("lam", [0.5, 1.0, 4.0])
def test_branch_rule_takes_the_cheaper_series(lam, monkeypatch):
    """From _T_CROSS to T_SWITCH the connection formula's Psi series,
    which need fewer terms, and below _T_CROSS the Pfaff series: for every
    family at lambda in {0.5, 1, 4}, on the one-point and the array
    routes, the other branch never runs."""
    def refuse(*args):
        raise AssertionError("the other branch ran")

    late = np.linspace(sf._T_CROSS, sf.T_SWITCH, 6)
    early = np.linspace(0.0, sf._T_CROSS, 6, endpoint=False)
    for ts, other in ((late, "_phi_pfaff"), (early, "_phi_connection")):
        with monkeypatch.context() as patch:
            patch.setattr(sf, other, refuse)
            for alpha, beta in _PHI_FAMILIES:
                for arg in (*ts, ts):
                    jacobi_phi(JacobiParams(alpha, beta, lam), arg)


def test_bad_arguments_raise_before_any_work(monkeypatch):
    """NaN or infinite t or z, a support radius that is not finite and
    positive, and a t outside eisenstein_integral_at's domain raise
    ValueError, on the one-point and the array routes, before any series
    is summed and without a warning."""
    def no_series(*args):
        raise AssertionError("a series ran")

    monkeypatch.setattr(_Series, "sum", no_series)
    par = JacobiParams(2.0, -0.5, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for bad in (np.nan, np.inf, -np.inf):
            for arg in (bad, np.array([bad]), np.array([0.7, bad])):
                for call in (lambda: jacobi_phi(par, arg), lambda: jacobi_psi(par, arg),
                             lambda: hyp2f1_negz(0.5, 1.5, 2.0, -arg)):
                    with pytest.raises(ValueError, match="finite"):
                        call()
        for r in (0.0, -1.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="finite and positive"):
                bump_section(BundleSpec(3, 1), r)
        pt = SpectralPoint(BundleSpec(3, 1), sigma_q(1), 1.0)
        for t in (9.01, -30.0, np.nan, np.inf):
            with pytest.raises(ValueError, match=r"\|t\| <= 9"):
                eisenstein_integral_at(pt, t)


@pytest.mark.parametrize("lam,t", [(40.0, 1.5), (100.0, 0.9)])
def test_phi_large_lambda_fault_points(lam, t):
    # once wrong without raising: relative errors 1.2e3 and 5.8e17
    got = complex(jacobi_phi(JacobiParams(1.0, 0.0, lam), t))
    want = _phi_mpmath(1.0, 0.0, lam, t)
    assert abs(got - want) <= 1e-10 * abs(want)


def test_phi_raises_where_neither_branch_is_accurate():
    # at lambda = 100 the Pfaff series cancels beyond t ~ 0.15 and the
    # Psi series below t ~ 0.7
    with pytest.raises(ArithmeticError):
        jacobi_phi(JacobiParams(1.0, 0.0, 100.0), np.array([0.1, 0.3]))


@pytest.mark.parametrize("alpha,beta", [(1.0, -0.5), (2.0, -0.5), (1.0, 3.0)])
@pytest.mark.parametrize("lam", [1.3, 4.0, 2.0 - 0.7j])
def test_warm_tables_give_fresh_values(alpha, beta, lam):
    # a JacobiParams keeps its series tables and c-values; after a sweep
    # over [0, 6] has grown them, values, term counts and ratios at single
    # radii are those of a fresh instance, bit for bit
    warm = JacobiParams(alpha, beta, lam)
    jacobi_phi(warm, np.linspace(0.0, 6.0, 61))
    for t in (0.3, 2.5):
        assert jacobi_phi(warm, t) == jacobi_phi(JacobiParams(alpha, beta, lam), t)
    for got, want in zip(jacobi_psi(warm, 2.5, full_output=True),
                         jacobi_psi(JacobiParams(alpha, beta, lam), 2.5, full_output=True)):
        assert got == want


def test_table_prefix_is_independent_of_history():
    # a point next to a zero of phi extends its sum past the block the
    # largest w needs; later growth still reproduces a fresh table.
    # (1, -1/2) sums its Pfaff series there, as (1/2, -1/2) did before its
    # closed form; zero is a zero of phi^(1,-1/2)_4, found by bisection.
    # The later radii sit below _T_CROSS, where the Pfaff series is taken
    lam, zero = 4.0, 0.9509443607658485
    warm = JacobiParams(1.0, -0.5, lam)
    near = jacobi_phi(warm, np.array([0.2, zero + 1e-9, zero + 1e-3]))
    assert abs(near[1]) <= 1e-8
    fresh = JacobiParams(1.0, -0.5, lam)
    for t in (1.0, 1.2):
        assert jacobi_phi(warm, t) == jacobi_phi(fresh, t)
    assert np.array_equal(warm._series[0].coef, fresh._series[0].coef)


def test_warm_tables_still_raise():
    warm = JacobiParams(1.0, 0.0, 100.0)
    jacobi_phi(warm, np.array([0.0, 0.05, 0.1, 1.0, 3.0]))
    for par in (warm, JacobiParams(1.0, 0.0, 100.0)):
        with pytest.raises(ArithmeticError):
            jacobi_phi(par, 0.4)


def test_phi_connection_formula_spot():
    # (alpha, beta) = (3/2, -1/2), lambda = 1, t = 2
    par = JacobiParams(1.5, -0.5, 1.0)
    phi = complex(jacobi_phi(par, 2.0))
    rec = c_jacobi(1.5, -0.5, 1.0) * complex(jacobi_psi(par, 2.0)) + c_jacobi(
        1.5, -0.5, -1.0
    ) * complex(jacobi_psi(JacobiParams(1.5, -0.5, -1.0), 2.0))
    assert abs(phi - rec) <= 1e-10 * abs(phi)


def test_phi_even_in_lambda_and_real():
    for alpha, beta in ((0.5, -0.5), (2.5, -0.5), (1.0, 3.0)):
        for lam in (0.7, 1.3, 4.2):
            for t in (0.5, 1.5, 4.0):
                plus = complex(jacobi_phi(JacobiParams(alpha, beta, lam), t))
                minus = complex(jacobi_phi(JacobiParams(alpha, beta, -lam), t))
                assert abs(plus - minus) <= 1e-12 * abs(plus)
                assert abs(plus.imag) <= 1e-12 * abs(plus)


def test_phi_even_in_t():
    par = JacobiParams(1.5, -0.5, 0.8)
    for t in (0.4, 2.3):
        assert complex(jacobi_phi(par, t)) == complex(jacobi_phi(par, -t))


def test_psi_asymptotic_residual_decays():
    # e^{-(i lam - a - b - 1) t} Psi -> 1 with residual <= C e^{-2t}
    alpha, beta, lam = 1.5, -0.5, 1.0
    par = JacobiParams(alpha, beta, lam)
    resid = []
    for t in (5.0, 10.0, 15.0):
        val = complex(jacobi_psi(par, t))
        norm = val * np.exp(-(1j * lam - alpha - beta - 1.0) * t)
        resid.append(abs(norm - 1.0))
    assert resid[0] > resid[1] > resid[2]
    cs = [r * np.exp(2.0 * t) for r, t in zip(resid, (5.0, 10.0, 15.0))]
    assert max(cs) < 50.0


def test_psi_envelope_bounded():
    # sup over [1, 15] of e^{2t} |normalized Psi - 1| stays finite
    ts = np.linspace(1.0, 15.0, 57)
    for alpha, beta, lam in ((1.5, -0.5, 0.5), (3.0, -0.5, 2.0), (2.0, 4.0, 1.0)):
        par = JacobiParams(alpha, beta, lam)
        vals = jacobi_psi(par, ts) * np.exp(-(1j * lam - alpha - beta - 1.0) * ts)
        env = np.exp(2.0 * ts) * np.abs(vals - 1.0)
        assert np.all(np.isfinite(env))
        assert env.max() < 1e3


def test_psi_conjugation_symmetry():
    for t in (0.7, 2.0, 6.0):
        for lam in (0.6, 1.7):
            a = complex(jacobi_psi(JacobiParams(2.0, -0.5, -lam), t))
            b = complex(jacobi_psi(JacobiParams(2.0, -0.5, lam), t))
            assert abs(a - np.conj(b)) <= 1e-12 * abs(b)


def test_psi_domain_guard():
    with pytest.raises(ValueError):
        jacobi_psi(JacobiParams(1.5, -0.5, 1.0), 0.3)


# ---------------------------------------------------------------------------
# c-coefficient


def _c_mp(alpha, beta, lam):
    il = 1j * mpmath.mpmathify(lam)
    num = mpmath.power(2, -il + alpha + beta + 1) * mpmath.gamma(alpha + 1) * mpmath.gamma(il)
    den = mpmath.gamma((il + alpha + beta + 1) / 2) * mpmath.gamma((il + alpha - beta + 1) / 2)
    return num / den


def _c_mpmath(alpha, beta, lam):
    return complex(_c_mp(alpha, beta, lam))


def test_c_matches_mpmath():
    for alpha, beta in ((0.5, -0.5), (1.5, -0.5), (3.0, -0.5), (1.0, 3.0)):
        for lam in (0.3, 1.0, 2.7, 1.0 - 0.5j):
            want = _c_mpmath(alpha, beta, lam)
            got = c_jacobi(alpha, beta, lam)
            assert abs(got - want) <= 1e-12 * abs(want)


def test_c_matches_mpmath_at_large_lambda():
    # sin(pi i lambda) overflows from lambda ~ 226 and Gamma(i lambda)
    # underflows from lambda ~ 470; the log form keeps c finite.  The
    # phases of the log-Gammas grow like lambda log lambda, so the bound
    # is looser than test_c_matches_mpmath's
    for alpha, beta in ((1.0, 0.0), (1.5, -0.5), (4.0, -0.5), (3.0, 5.0)):
        for lam in (230.0, 300.0, 1000.0):
            want = _c_mpmath(alpha, beta, lam)
            got = c_jacobi(alpha, beta, lam)
            assert abs(got - want) <= 2e-12 * abs(want), (alpha, beta, lam)


def test_c_sigma_finite_at_large_lambda():
    for spec, sigma in ((BundleSpec(3, 1), sigma_q(1)), (BundleSpec(6, 2), sigma_q(2)),
                        (BundleSpec(4, 2, "plus"), sigma_q(2))):
        for lam in (300.0, 1000.0):
            c = c_sigma(SpectralPoint(spec, sigma, lam))
            assert np.isfinite(c) and c != 0.0


def test_c_shift_identity():
    # c_{n/2-1,-1/2} = ((i lam + rho) / (2n)) c_{n/2,-1/2}, rho = (n-1)/2
    for n in range(3, 9):
        rho = (n - 1) / 2.0
        for lam in (0.3, 1.0, 2.7):
            lhs = c_jacobi(n / 2.0 - 1.0, -0.5, lam)
            rhs = (1j * lam + rho) / (2.0 * n) * c_jacobi(n / 2.0, -0.5, lam)
            assert abs(lhs - rhs) <= 1e-12 * abs(rhs)


def test_chirality_c_function_is_in_the_beta_half_family():
    # 0.25 c_{n/2-1,n/2+1}(2 lam) = ((2 i lam - 1) / (4n)) c_{n/2,-1/2}(lam), which
    # c_sigma takes on the chirality bundles
    with mpmath.workdps(30):
        for n in (2, 4, 6, 8):
            for lam in (0.002, 0.3, 1.0, 2.7, 11.0, 40.0):
                want = 0.25 * _c_mp(n / 2 - 1, n / 2 + 1, 2 * lam)
                got = (2j * mpmath.mpf(lam) - 1) / (4 * n) * _c_mp(n / 2, -0.5, lam)
                assert abs(got - want) <= 1e-25 * abs(want), (n, lam)
                pt = SpectralPoint(BundleSpec(n, n // 2, "plus"), sigma_q(n // 2), lam)
                assert abs(c_sigma(pt) - complex(want)) <= 1e-13 * abs(want), (n, lam)


def test_c_modulus_even_for_real_lambda():
    for lam in (0.4, 1.1, 3.3):
        a = abs(c_jacobi(2.0, -0.5, lam))
        b = abs(c_jacobi(2.0, -0.5, -lam))
        assert abs(a - b) <= 1e-12 * a


def test_c_pole_at_zero_raises():
    with pytest.raises(ValueError):
        c_jacobi(1.5, -0.5, 0.0)


@pytest.mark.filterwarnings("error")
def test_c_poles_of_the_numerator_raise_and_of_the_denominator_give_zero():
    # Gamma(alpha + 1) at alpha = -1, Gamma(i lambda) at lambda = i, 2i
    for alpha, lam in ((-1.0, 1.0), (2.0, 1j), (2.0, 2j)):
        with pytest.raises(ValueError, match="c-function pole"):
            c_jacobi(alpha, -0.5, lam)
    # Gamma((i lambda + alpha + beta + 1) / 2) at (i lambda + 2.5) / 2 = 0
    assert c_jacobi(2.0, -0.5, 2.5j) == 0.0


def test_c_against_boundary_group_quadrature():
    """c_{1/2,-1/2}(lam) at n = 3 equals the integral over the opposite
    horospherical group of e^{-(i lam + rho) H}, normalized so that the
    2 rho exponent integrates to 1.  The integral converges absolutely
    for Im lam < 0 only, so the check runs at lam = 1 - 0.5i; H is read
    off the actual matrix factorization rather than a closed form.
    """
    n, rho = 3, 1.0
    lam = 1.0 - 0.5j
    jmat = np.diag([1.0, 1.0, 1.0, -1.0])

    def h_of_r(rs):
        out = np.empty(len(rs))
        for i, r in enumerate(rs):
            nbar = jmat @ make_ny([r, 0.0]).mat @ jmat
            out[i] = iwasawa(GroupElement(nbar, check=False)).h
        return out

    # radial reduction: I(s) = 2 pi int_0^inf e^{-s H(r(w))} e^{2w} dw
    # under 1 + r^2 = e^{2w}.  The factorization runs on r <= r0 (the
    # matrices blow up quadratically in r); beyond r0 the head has
    # already pinned H(r) = log(1 + r^2) to machine precision, so the
    # tail closes in calculus: pi (1 + r0^2)^(1-s) / (s - 1).
    xs, ws = np.polynomial.legendre.leggauss(40)
    r0sq = 900.0
    w0 = 0.5 * np.log1p(r0sq)

    def integral(s):
        total = 0.0 + 0.0j
        for a, b in zip(np.linspace(0, w0, 5)[:-1], np.linspace(0, w0, 5)[1:]):
            w = 0.5 * (b - a) * (xs + 1.0) + a
            r = np.sqrt(np.expm1(2.0 * w))
            total += 0.5 * (b - a) * np.sum(ws * np.exp(-s * h_of_r(r) + 2.0 * w))
        return 2.0 * np.pi * total + np.pi * (1.0 + r0sq) ** (1.0 - s) / (s - 1.0)

    got = integral(1j * lam + rho) / integral(2.0 * rho)
    want = c_jacobi(0.5, -0.5, lam)
    assert abs(got - want) <= 1e-8 * abs(want)
    # and through the shift identity, the (3/2, -1/2) value used by the
    # n = 3 density
    want32 = c_jacobi(1.5, -0.5, lam)
    got32 = 2.0 * n / (1j * lam + rho) * got
    assert abs(got32 - want32) <= 1e-8 * abs(want32)


def test_gauss_legendre_is_leggauss_built_once_and_read_only():
    for order in (1, 12, 20, 30, 200):
        xs, ws = gauss_legendre(order)
        want_x, want_w = np.polynomial.legendre.leggauss(order)
        assert xs.dtype == want_x.dtype and ws.dtype == want_w.dtype
        assert np.array_equal(xs, want_x) and np.array_equal(ws, want_w)
        again = gauss_legendre(order)
        assert again[0] is xs and again[1] is ws
        for arr in (xs, ws):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0.0
