"""Complex gamma, Gauss hypergeometric and Jacobi functions of the first
and second kind.

The Jacobi functions phi_lambda^(alpha,beta) and Psi_lambda^(alpha,beta)
follow the conventions of Koornwinder's survey (in: Special Functions:
Group Theoretical Aspects and Applications, 1984).

Every hypergeometric value comes from one series kernel, `_series_w`.
For z <= 0 the Pfaff transform

    2F1(a, b; c; z) = (1 - z)^(-a) 2F1(a, c - b; c; w),  w = z / (z - 1)

maps z onto w in [0, 1), where the power series converges
geometrically.  Its coefficients (a)_k (c-b)_k / ((c)_k k!) do not
depend on w, so the kernel builds them once per call as a scalar
cumulative product and sums the whole array of w by Horner's rule.
Besides the sum it reports, per point, the number of terms and the
cancellation ratio max_k |term_k| / |sum|; the sum's relative rounding
error is a few times machine epsilon times that ratio.

phi_lambda has two representations, and jacobi_phi chooses between
them at each t by their estimated rounding error, relative to
max(|phi|, e^{-(alpha+beta+1) t}):

  - the Pfaff series in w = tanh^2(t), used for t <= T_SWITCH
    (tanh^2 t <= 0.9).  Its terms peak near e^{|lambda| tanh t};
  - the connection formula
        phi_lambda = c(lambda) Psi_lambda + c(-lambda) Psi_(-lambda),
    whose Psi series run in w = sech^2(t) and are used for t >= 0.5.
    Their terms peak near e^{|lambda| sech^2(t) / 4}, and the two
    products may cancel against |phi|.

The Pfaff series is kept wherever its estimate meets the 1e-10 target,
so at small lambda the two branches meet at T_SWITCH.  Elsewhere the
connection formula is taken where its estimate meets the target.  At a
t where neither does (at lambda = 100, about t in [0.15, 0.72]),
jacobi_phi raises ArithmeticError.  After evaluation the estimates are
checked against the ratios the kernel reports, and a miss raises too.

Gamma is the Lanczos approximation with the 15-coefficient table of
Godfrey (g = 607/128), whose spec sheet quotes relative errors near
1e-15 on the right half plane, taken in log form.  The reflection
formula covers Re(z) < 1/2 with log sin(pi z) written through
e^{-+i pi z} (1 - e^{+-2 i pi z}), which cannot overflow.  c_jacobi
adds its four log-Gammas before exponentiating, so c(lambda) stays
finite at large lambda, where Gamma(i lambda) alone underflows.
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

# Pfaff variable beyond which jacobi_phi never uses the Pfaff series.
W_SWITCH = 0.9
# ... and the corresponding |t|: tanh^2(t) = 0.9.
T_SWITCH = float(np.arctanh(np.sqrt(W_SWITCH)))
# Psi's series in sech^2(t) is used from here on (ratio <= sech^2(0.5) ~ 0.79).
_PSI_T_MIN = 0.5

# Series controls.
_SERIES_RTOL = 1.0e-16
_SERIES_MAX_TERMS = 4000
# Coefficients are built in blocks of at least this many terms.
_SERIES_BLOCK = 32

# jacobi_phi is right to this tolerance relative to
# max(|phi|, e^{-(alpha+beta+1) t}), or raises.
_PHI_RTOL = 1.0e-10
_EPS = float(np.finfo(float).eps)
# A sum whose largest term is ratio * |sum| carries a rounding error of
# up to about 6 eps ratio |sum| (measured against mpmath), so the
# estimate is _SAFETY eps ratio, plus eps |lambda| t for the phases of
# the power prefactors.
_SAFETY = 8.0
# log of the largest cancellation that meets _PHI_RTOL
_LOG_BUDGET = float(np.log(_PHI_RTOL / (_SAFETY * _EPS)))

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

_LOG_SQRT_2PI = float(0.5 * np.log(2.0 * np.pi))
_LOG_PI = float(np.log(np.pi))
_LOG_2 = float(np.log(2.0))


def _log_gamma(z):
    """log Gamma(z) for a complex array z, up to a multiple of 2 pi i.

    +inf at the poles (the non-positive integers)."""
    z = np.asarray(z, dtype=complex)
    reflect = z.real < 0.5
    zz = np.where(reflect, 1.0 - z, z)

    # Lanczos sum at zz, Re(zz) >= 0.5.
    x = zz - 1.0
    acc = np.full_like(zz, _LANCZOS_C[0])
    for k in range(1, len(_LANCZOS_C)):
        acc = acc + _LANCZOS_C[k] / (x + k)
    tt = x + _LANCZOS_G + 0.5
    out = _LOG_SQRT_2PI + (x + 0.5) * np.log(tt) - tt + np.log(acc)

    if np.any(reflect):
        # log Gamma(z) = log pi - log sin(pi z) - log Gamma(1 - z), with
        # sin(pi z) = (s i / 2) e^{-s i pi z} (1 - e^{2 s i pi z}) and
        # s = sign(Im z), so that |e^{2 s i pi z}| <= 1
        zr = z[reflect]
        s = np.where(zr.imag < 0.0, -1.0, 1.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            log_sin = (np.log(0.5j * s) - 1j * np.pi * s * zr
                       + np.log1p(-np.exp(2j * np.pi * s * zr)))
        out[reflect] = _LOG_PI - log_sin - out[reflect]
    # sin(pi z) only vanishes to roundoff at the exact poles; flag them
    pole = (z.imag == 0.0) & (z.real <= 0.0) & (z.real == np.round(z.real))
    out[pole] = complex(np.inf, 0.0)
    return out


def gamma_c(z):
    """Gamma function for complex argument, vectorized.

    Poles at the non-positive integers come out as inf; callers that can
    hit a pole are expected to guard for it (see c_jacobi).
    """
    z = np.asarray(z, dtype=complex)
    out = np.exp(_log_gamma(np.atleast_1d(z)))
    return out[0] if z.ndim == 0 else out


def hyp2f1_negz(a, b, c, z, *, full_output=False):
    """2F1(a, b; c; z) for real z <= 0 via the Pfaff transform.

    Parameters may be complex scalars; z may be a scalar or an array.
    The series in w = z/(z-1) is summed to relative accuracy 1e-16
    with a hard cap on the number of terms.  With full_output, also
    returns the kernel's per-point term counts and cancellation ratios
    max|term| / |sum| (see `_series_w`).
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
    s, nterms, ratio = _series_w(a, c - b, c, w)
    out = (1.0 - z) ** (-a) * s
    if scalar:
        out, nterms, ratio = out[0], nterms[0], ratio[0]
    return (out, nterms, ratio) if full_output else out


def _grow(coef, a, b, c, n):
    """coef extended by n more coefficients (a)_k (b)_k / ((c)_k k!)."""
    k0 = len(coef) - 1
    ks = np.arange(k0, k0 + n, dtype=float)
    ratios = (a + ks) * (b + ks) / ((c + ks) * (ks + 1.0))
    return np.concatenate((coef, coef[-1] * np.cumprod(ratios)))


def _horner(coef, w):
    """sum_k coef[k] w^k over the array w by Horner's rule, two in-place
    operations per term.  A single point runs the same recurrence on a
    Python complex, which skips NumPy's per-call overhead."""
    x = complex(w[0]) if w.size == 1 else w.astype(complex)
    acc = x * 0.0 + coef[-1]
    for ck in coef[-2::-1].tolist():
        acc *= x
        acc += ck
    return np.asarray(acc, dtype=complex).reshape(w.shape)


def _log_peak(coef, w):
    """log max_k |coef[k]| w^k at each w, from the upper hull of the
    points (k, log|coef[k]|)."""
    with np.errstate(divide="ignore"):
        logc = np.log(np.abs(coef))
    k = np.flatnonzero(np.isfinite(logc)).astype(float)
    y = logc[k.astype(int)]
    while k.size > 2:
        # a point on or below the chord of its neighbours is no vertex
        low = (y[1:-1] - y[:-2]) * (k[2:] - k[:-2]) <= (y[2:] - y[:-2]) * (k[1:-1] - k[:-2])
        if not low.any():
            break
        keep = np.concatenate(([True], ~low, [True]))
        k, y = k[keep], y[keep]
    # the hull's slopes fall, so the peak at x = log w sits at the first
    # vertex whose outgoing slope is <= -x
    x = np.log(np.maximum(w, np.finfo(float).tiny))
    j = np.searchsorted(-np.diff(y) / np.diff(k), x)
    return y[j] + k[j] * x


def _series_w(a, b, c, w):
    """Power series sum_k ((a)_k (b)_k / (c)_k k!) w^k for w in [0, 1).

    Returns (sum, nterms, ratio), arrays shaped like w: the sum, the
    number of terms summed, and the cancellation ratio max|term| / |sum|.

    A point stops at the first term with |term| * guard <= 1e-16 |sum|.
    Once the terms fall below the target the tail is bounded by a
    geometric series of ratio ~ w (the term ratio tends to w), hence
    guard = max(wmax / (1 - wmax), 1).  The coefficients are extended
    until the largest w passes; a point that still fails is summed
    again with twice as many terms.
    """
    w = np.asarray(w, dtype=float)
    wmax = float(np.max(w)) if w.size else 0.0
    guard = max(wmax / (1.0 - wmax), 1.0) if wmax < 1.0 else np.inf
    logw = np.log(wmax) if wmax > 0.0 else -np.inf

    coef = np.ones(1, dtype=complex)
    partial = 1.0 + 0.0j
    nterms = 0
    while not nterms:
        k0 = len(coef)
        if k0 > _SERIES_MAX_TERMS:
            _no_convergence(a, b, c, wmax)
        coef = _grow(coef, a, b, c, max(k0, _SERIES_BLOCK))
        terms = coef[k0:] * np.exp(np.arange(k0, len(coef)) * logw)
        sums = partial + np.cumsum(terms)
        done = np.abs(terms) * guard <= _SERIES_RTOL * (np.abs(sums) + 1e-300)
        if done.any():
            nterms = k0 + int(np.argmax(done)) + 1
        partial = sums[-1]

    total = np.empty(w.shape, dtype=complex)
    used = np.empty(w.shape, dtype=int)
    todo = np.arange(w.size)
    while todo.size:
        if nterms > _SERIES_MAX_TERMS:
            _no_convergence(a, b, c, wmax)
        if len(coef) < nterms:
            coef = _grow(coef, a, b, c, nterms - len(coef))
        wt = w.flat[todo]
        s = _horner(coef[:nterms], wt)
        tail = np.abs(coef[nterms - 1]) * wt ** (nterms - 1) * guard
        done = tail <= _SERIES_RTOL * (np.abs(s) + 1e-300)
        total.flat[todo[done]] = s[done]
        used.flat[todo[done]] = nterms
        todo = todo[~done]
        nterms *= 2

    with np.errstate(divide="ignore", over="ignore"):
        ratio = np.exp(_log_peak(coef, w) - np.log(np.abs(total)))
    return total, used, ratio


def _no_convergence(a, b, c, wmax):
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

    Even in t.  Right to 1e-10 relative to max(|phi|, e^{-(alpha+beta+1)t})
    or raises ArithmeticError: the Pfaff series in -sinh^2(t) where
    t <= T_SWITCH and its estimated rounding error meets that target,
    otherwise the connection formula c(lambda) Psi_lambda +
    c(-lambda) Psi_(-lambda) where t >= 0.5 and its estimate meets the
    target, which requires lambda off the lattice i*Z.
    """
    a = complex(par.alpha)
    b = complex(par.beta)
    lam = complex(par.lam)
    t = np.asarray(t, dtype=float)
    scalar = t.ndim == 0
    t = np.abs(np.atleast_1d(t).astype(float))
    rho = (a + b + 1.0).real
    # errors are measured against max(|phi|, floor)
    floor = np.exp(-rho * t)

    out = np.empty(t.shape, dtype=complex)
    # estimated rounding error over machine epsilon
    err = np.empty(t.shape)
    # the Pfaff terms peak near e^x / (1 + pi x) with x = |lambda| tanh t,
    # the largest term of sum_k (x/2)^{2k} / k!^2, and cosh(t)^-rho
    # exceeds the floor by ((1 + e^{-2t}) / 2)^-rho
    x = abs(lam) * np.tanh(t)
    lift = -rho * np.log(0.5 + 0.5 * np.exp(-2.0 * t))
    near = (t <= T_SWITCH) & (x - np.log1p(np.pi * x) + lift <= _LOG_BUDGET)
    if np.any(near):
        out[near], _, ratio = hyp2f1_negz(
            (1j * lam + a + b + 1.0) / 2.0,
            (-1j * lam + a + b + 1.0) / 2.0,
            a + 1.0,
            -np.sinh(t[near]) ** 2,
            full_output=True,
        )
        err[near] = np.abs(out[near]) * (_SAFETY * ratio + abs(lam) * t[near])
    if np.any(~near):
        tf = t[~near]
        if np.any(tf < _PSI_T_MIN):
            _phi_unreachable(par, tf[tf < _PSI_T_MIN])
        _check_lambda_regular(lam, "connection formula")
        cp = c_jacobi(a, b, lam)
        cm = c_jacobi(a, b, -lam)
        # the Psi terms peak near e^{|lambda| sech^2 t / 4}, and the two
        # products may cancel against |phi|, here bounded by the floor,
        # which (2 sinh t)^-rho exceeds by (1 - e^{-2t})^-rho
        log_sh = np.log(2.0 * np.sinh(tf))
        lead = abs(cp) * np.exp(-lam.imag * log_sh) + abs(cm) * np.exp(lam.imag * log_sh)
        lift = -rho * np.log(-np.expm1(-2.0 * tf))
        log_est = abs(lam) / (4.0 * np.cosh(tf) ** 2) + np.log(lead) + lift
        if np.any(log_est > _LOG_BUDGET):
            _phi_unreachable(par, tf[log_est > _LOG_BUDGET])
        psi_p, _, ratio_p = jacobi_psi(par, tf, full_output=True)
        psi_m, _, ratio_m = jacobi_psi(JacobiParams(a, b, -lam), tf, full_output=True)
        out[~near] = cp * psi_p + cm * psi_m
        err[~near] = (np.abs(cp * psi_p) * (_SAFETY * ratio_p + abs(lam) * tf)
                      + np.abs(cm * psi_m) * (_SAFETY * ratio_m + abs(lam) * tf))
    missed = ~(_EPS * err <= _PHI_RTOL * np.maximum(np.abs(out), floor))
    if np.any(missed):
        _phi_unreachable(par, t[missed])
    return out[0] if scalar else out


def _phi_unreachable(par, ts):
    raise ArithmeticError(
        f"jacobi_phi({par}) cannot be evaluated to {_PHI_RTOL:g} at t = {ts.min():.6g}"
        + (f" .. {ts.max():.6g}" if ts.size > 1 else "")
        + ": neither the Pfaff series nor the connection formula is that accurate there")


def jacobi_psi(par, t, *, full_output=False):
    """Jacobi function of the second kind Psi_lambda^(alpha,beta)(t).

    Defined here for t >= 0.5 only, where the series in -1/sinh^2(t)
    converges geometrically (ratio <= sech^2(0.5) ~ 0.79).  Behaves as
    e^((i lambda - alpha - beta - 1) t) (1 + O(e^(-2t))) for large t.
    With full_output, also returns the series' term counts and
    cancellation ratios, as hyp2f1_negz does.
    """
    a = complex(par.alpha)
    b = complex(par.beta)
    lam = complex(par.lam)
    t = np.asarray(t, dtype=float)
    scalar = t.ndim == 0
    t = np.atleast_1d(t).astype(float)
    if np.any(t < _PSI_T_MIN):
        raise ValueError("jacobi_psi requires t >= 0.5")
    _check_lambda_regular(lam, "jacobi_psi")

    sh = np.sinh(t)
    f, nterms, ratio = hyp2f1_negz(
        (a + b + 1.0 - 1j * lam) / 2.0,
        (-a + b + 1.0 - 1j * lam) / 2.0,
        1.0 - 1j * lam,
        -1.0 / sh**2,
        full_output=True,
    )
    out = (2.0 * sh) ** (1j * lam - a - b - 1.0) * f
    if scalar:
        out, nterms, ratio = out[0], nterms[0], ratio[0]
    return (out, nterms, ratio) if full_output else out


def c_jacobi(alpha, beta, lam):
    """Harish-Chandra c-function of Jacobi analysis.

    c(lambda) = 2^(-i lam + a + b + 1) Gamma(a+1) Gamma(i lam)
                / [Gamma((i lam + a + b + 1)/2) Gamma((i lam + a - b + 1)/2)]

    The four Gammas are taken in log form in one call and combined
    before exponentiating.  Meromorphic in lambda with a pole at
    lambda = 0 coming from Gamma(i lambda); evaluation within 1e-6 of
    that pole raises ValueError.
    """
    a = complex(alpha)
    b = complex(beta)
    lam = complex(lam)
    if abs(lam) < _LAMBDA_GUARD:
        raise ValueError(f"c-function pole at lambda = 0; got lambda = {lam}")
    il = 1j * lam
    lg = _log_gamma([a + 1.0, il, (il + a + b + 1.0) / 2.0, (il + a - b + 1.0) / 2.0])
    return complex(np.exp((-il + a + b + 1.0) * _LOG_2 + lg[0] + lg[1] - lg[2] - lg[3]))
