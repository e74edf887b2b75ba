"""Special-function layer against arbitrary-precision oracles.

mpmath supplies independent implementations of Gamma and 2F1; the
Jacobi functions and the c-coefficient are additionally checked
against their own defining identities (connection formula, recursion,
and a direct quadrature of the boundary-group integral).
"""

import mpmath
import numpy as np
import pytest

from hyperform import (
    BundleSpec,
    GroupElement,
    JacobiParams,
    SpectralPoint,
    c_jacobi,
    c_sigma,
    gamma_c,
    hyp2f1_negz,
    iwasawa,
    jacobi_phi,
    jacobi_psi,
    make_ny,
    sigma_q,
)
from hyperform.specialfn import _series_w

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
        got, nterms, ratio = _series_w(a, b, c, w)
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


def _c_mpmath(alpha, beta, lam):
    il = 1j * mpmath.mpmathify(lam)
    num = mpmath.power(2, -il + alpha + beta + 1) * mpmath.gamma(alpha + 1) * mpmath.gamma(il)
    den = mpmath.gamma((il + alpha + beta + 1) / 2) * mpmath.gamma((il + alpha - beta + 1) / 2)
    return complex(num / den)


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


def test_c_modulus_even_for_real_lambda():
    for lam in (0.4, 1.1, 3.3):
        a = abs(c_jacobi(2.0, -0.5, lam))
        b = abs(c_jacobi(2.0, -0.5, -lam))
        assert abs(a - b) <= 1e-12 * a


def test_c_pole_at_zero_raises():
    with pytest.raises(ValueError):
        c_jacobi(1.5, -0.5, 0.0)


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
