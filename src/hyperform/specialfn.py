"""Complex gamma, Gauss hypergeometric and Jacobi functions of the first
and second kind.

The Jacobi functions phi_lambda^(alpha,beta) and Psi_lambda^(alpha,beta)
follow the conventions of Koornwinder's survey (in: Special Functions:
Group Theoretical Aspects and Applications, 1984).  Everything here is
evaluated through a single hypergeometric kernel restricted to
non-positive real argument, where the Pfaff transform

    2F1(a, b; c; z) = (1 - z)^(-a) 2F1(a, c - b; c; z / (z - 1))

maps z <= 0 onto w = z/(z-1) in [0, 1) and the power series in w
converges geometrically.  Close to w = 1 the series degrades, so
phi_lambda switches to the connection formula

    phi_lambda = c(lambda) Psi_lambda + c(-lambda) Psi_(-lambda)

whose own series run in 1/sinh^2(t) and converge fast for t >= 0.5.
The switch point w = tanh^2(t) = 0.9 leaves a wide overlap where both
paths are accurate; tests exploit the overlap as a self-check.

Gamma is the Lanczos approximation with the 15-coefficient table of
Godfrey (g = 607/128).  The spec sheet of that table quotes relative
errors near 1e-15 on the right half plane; the reflection formula
covers Re(z) < 1/2.
"""

from dataclasses import dataclass

import numpy as np

__all__ = [
    "JacobiParams",
    "gamma_c",
    "hyp2f1_negz",
    "jacobi_phi",
    "jacobi_psi",
    "c_jacobi",
    "T_SWITCH",
]

# Pfaff variable at which jacobi_phi changes evaluation strategy.
W_SWITCH = 0.9
# ... and the corresponding |t|: tanh^2(t) = 0.9.
T_SWITCH = float(np.arctanh(np.sqrt(W_SWITCH)))

# Series controls.
_SERIES_RTOL = 1.0e-16
_SERIES_MAX_TERMS = 4000

# Smallest distance from lambda to the poles of the connection formula
# (lambda in i*Z) that we are willing to evaluate at.
_LAMBDA_GUARD = 1.0e-6

# Lanczos: g = 607/128, 15 coefficients (Godfrey).
_LANCZOS_G = 607.0 / 128.0
_LANCZOS_C = np.array([
    0.99999999999999709182,
    57.156235665862923517,
    -59.597960355475491248,
    14.136097974741747174,
    -0.49191381609762019978,
    0.33994649984811888699e-4,
    0.46523628927048575665e-4,
    -0.98374475304879564677e-4,
    0.15808870322491248884e-3,
    -0.21026444172410488319e-3,
    0.21743961811521264320e-3,
    -0.16431810653676389022e-3,
    0.84418223983852743293e-4,
    -0.26190838401581408670e-4,
    0.36899182659531622704e-5,
])

_SQRT_2PI = float(np.sqrt(2.0 * np.pi))


def gamma_c(z):
    """Gamma function for complex argument, vectorized.

    Poles at the non-positive integers come out as inf/nan through the
    reflection formula; callers that can hit a pole are expected to
    guard for it (see c_jacobi).
    """
    z = np.asarray(z, dtype=complex)
    scalar = z.ndim == 0
    z = np.atleast_1d(z)
    out = np.empty_like(z)

    reflect = z.real < 0.5
    zz = np.where(reflect, 1.0 - z, z)

    # Lanczos sum at zz, Re(zz) >= 0.5.
    x = zz - 1.0
    acc = np.full_like(zz, _LANCZOS_C[0])
    for k in range(1, len(_LANCZOS_C)):
        acc = acc + _LANCZOS_C[k] / (x + k)
    tt = x + _LANCZOS_G + 0.5
    vals = _SQRT_2PI * np.exp((x + 0.5) * np.log(tt) - tt) * acc

    if np.any(reflect):
        with np.errstate(divide="ignore", invalid="ignore"):
            out[reflect] = np.pi / (np.sin(np.pi * z[reflect]) * vals[reflect])
    out[~reflect] = vals[~reflect]
    # sin(pi z) only vanishes to roundoff at the exact poles; flag them
    pole = (z.imag == 0.0) & (z.real <= 0.0) & (z.real == np.round(z.real))
    out[pole] = complex(np.inf, 0.0)
    return out[0] if scalar else out


def hyp2f1_negz(a, b, c, z):
    """2F1(a, b; c; z) for real z <= 0 via the Pfaff transform.

    Parameters may be complex scalars; z may be a scalar or an array.
    The series in w = z/(z-1) is summed to relative accuracy 1e-16
    with a hard cap on the number of terms.
    """
    a = complex(a)
    b = complex(b)
    c = complex(c)
    z = np.asarray(z, dtype=float)
    scalar = z.ndim == 0
    z = np.atleast_1d(z).astype(float)
    if np.any(z > 0.0):
        raise ValueError("hyp2f1_negz requires z <= 0")
    if abs(c.imag) < 1e-13 and abs(c.real - round(c.real)) < 1e-13 and round(c.real) <= 0:
        raise ValueError(f"2F1 undefined at non-positive integer c = {c}")

    w = z / (z - 1.0)  # in [0, 1)
    s = _series_w(a, c - b, c, w)
    out = (1.0 - z) ** (-a) * s
    return out[0] if scalar else out


def _series_w(a, b, c, w):
    """Power series sum_k ((a)_k (b)_k / (c)_k k!) w^k for w in [0, 1)."""
    w = np.asarray(w, dtype=float)
    term = np.ones(w.shape, dtype=complex)
    total = term.copy()
    wmax = float(np.max(w)) if w.size else 0.0
    # Once |term| drops below the target, the remaining tail is bounded
    # by a geometric series with ratio ~ wmax (the term ratio tends to
    # w as k grows), hence the extra 1/(1-wmax) safety factor.
    geo = wmax / (1.0 - wmax) if wmax < 1.0 else np.inf
    for k in range(_SERIES_MAX_TERMS):
        term = term * ((a + k) * (b + k) / ((c + k) * (1.0 + k))) * w
        total += term
        bound = np.abs(term) * max(geo, 1.0)
        if np.all(bound <= _SERIES_RTOL * (np.abs(total) + 1e-300)):
            return total
    raise RuntimeError(
        "2F1 series did not converge: a=%s b=%s c=%s max|w|=%.6f after %d terms"
        % (a, b, c, wmax, _SERIES_MAX_TERMS)
    )


@dataclass(frozen=True)
class JacobiParams:
    """Parameter triple (alpha, beta, lambda) of a Jacobi function.

    alpha must stay away from the negative integers; lambda may be
    complex but must keep a safe distance from i*Z whenever the
    connection formula or the c-function is involved.
    """

    alpha: complex
    beta: complex
    lam: complex

    def __post_init__(self):
        a = complex(self.alpha)
        if abs(a.imag) < 1e-13 and a.real < -0.5 and abs(a.real - round(a.real)) < 1e-13:
            raise ValueError(f"alpha = {a} is a negative integer")


def _check_lambda_regular(lam, what):
    """Reject lambda within _LAMBDA_GUARD of i*Z (poles of c / Psi)."""
    lam = complex(lam)
    # lam = i*k  <=>  (Re lam, Im lam) = (0, k)
    if abs(lam.real) < _LAMBDA_GUARD and abs(lam.imag - round(lam.imag)) < _LAMBDA_GUARD:
        raise ValueError(f"{what} has a pole at lambda in i*Z; got lambda = {lam}")


def jacobi_phi(par, t):
    """Jacobi function of the first kind phi_lambda^(alpha,beta)(t).

    Even in t.  For tanh^2(t) <= 0.9 this is the 2F1 series in
    -sinh^2(t) (through the Pfaff transform); beyond that the
    connection formula c(lambda) Psi_lambda + c(-lambda) Psi_(-lambda)
    takes over, which requires lambda off the lattice i*Z.
    """
    a = complex(par.alpha)
    b = complex(par.beta)
    lam = complex(par.lam)
    t = np.asarray(t, dtype=float)
    scalar = t.ndim == 0
    t = np.abs(np.atleast_1d(t).astype(float))

    out = np.empty(t.shape, dtype=complex)
    near = t <= T_SWITCH
    if np.any(near):
        sh2 = np.sinh(t[near]) ** 2
        out[near] = hyp2f1_negz(
            (1j * lam + a + b + 1.0) / 2.0,
            (-1j * lam + a + b + 1.0) / 2.0,
            a + 1.0,
            -sh2,
        )
    if np.any(~near):
        _check_lambda_regular(lam, "connection formula")
        tf = t[~near]
        cp = c_jacobi(a, b, lam)
        cm = c_jacobi(a, b, -lam)
        out[~near] = cp * jacobi_psi(par, tf) + cm * jacobi_psi(
            JacobiParams(a, b, -lam), tf
        )
    return out[0] if scalar else out


def jacobi_psi(par, t):
    """Jacobi function of the second kind Psi_lambda^(alpha,beta)(t).

    Defined here for t >= 0.5 only, where the series in -1/sinh^2(t)
    converges geometrically (ratio <= sech^2(0.5) ~ 0.79).  Behaves as
    e^((i lambda - alpha - beta - 1) t) (1 + O(e^(-2t))) for large t.
    """
    a = complex(par.alpha)
    b = complex(par.beta)
    lam = complex(par.lam)
    t = np.asarray(t, dtype=float)
    scalar = t.ndim == 0
    t = np.atleast_1d(t).astype(float)
    if np.any(t < 0.5):
        raise ValueError("jacobi_psi requires t >= 0.5")
    _check_lambda_regular(lam, "jacobi_psi")

    sh = np.sinh(t)
    f = hyp2f1_negz(
        (a + b + 1.0 - 1j * lam) / 2.0,
        (-a + b + 1.0 - 1j * lam) / 2.0,
        1.0 - 1j * lam,
        -1.0 / sh**2,
    )
    out = (2.0 * sh) ** (1j * lam - a - b - 1.0) * f
    return out[0] if scalar else out


def c_jacobi(alpha, beta, lam):
    """Harish-Chandra c-function of Jacobi analysis.

    c(lambda) = 2^(-i lam + a + b + 1) Gamma(a+1) Gamma(i lam)
                / [Gamma((i lam + a + b + 1)/2) Gamma((i lam + a - b + 1)/2)]

    Meromorphic in lambda with a pole at lambda = 0 coming from
    Gamma(i lambda); evaluation within 1e-6 of that pole raises ValueError.
    """
    a = complex(alpha)
    b = complex(beta)
    lam = complex(lam)
    if abs(lam) < _LAMBDA_GUARD:
        raise ValueError(f"c-function pole at lambda = 0; got lambda = {lam}")
    il = 1j * lam
    num = 2.0 ** (-il + a + b + 1.0) * gamma_c(a + 1.0) * gamma_c(il)
    den = gamma_c((il + a + b + 1.0) / 2.0) * gamma_c((il + a - b + 1.0) / 2.0)
    return complex(num / den)
