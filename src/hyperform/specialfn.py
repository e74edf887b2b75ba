"""Complex gamma, Gauss hypergeometric and Jacobi functions of the first
and second kind.

The Jacobi functions phi_lambda^(alpha,beta) and Psi_lambda^(alpha,beta)
follow the conventions of Koornwinder's survey (in: Special Functions:
Group Theoretical Aspects and Applications, 1984).

Every hypergeometric value comes from one series kernel, `_Series.sum`.
For z <= 0 the Pfaff transform

    2F1(a, b; c; z) = (1 - z)^(-a) 2F1(a, c - b; c; w),  w = z / (z - 1)

maps z onto w in [0, 1), where the power series converges
geometrically.  Its coefficients (a)_k (c-b)_k / ((c)_k k!) do not
depend on w: they sit in a table of scalar cumulative products, which
the kernel sums over the whole array of w by Horner's rule, reporting
per point the number of terms and the cancellation ratio
max_k |term_k| / |sum| (the sum's relative rounding error is a few
times machine epsilon times that ratio).  hyp2f1_negz builds a table
per call; a JacobiParams keeps its own, which grow only by doubling in
fixed blocks, so no value depends on what was evaluated before.

hyp2f1_negz, jacobi_phi and jacobi_psi choose a route by the size of
their argument.  An argument of one element takes the one-point route:
the branch rule, the term count, Horner's rule, the tail test, the
cancellation ratio and the final check run on NumPy and Python scalars,
with no masks and no arrays, so a single radius pays for its series
and not for NumPy's fixed cost per array operation.  Any other argument
takes the array route.  Each rule is one helper that both routes call
(_pfaff_first, _pfaff_ok, _psi_ok, _phi_pfaff, _phi_connection,
_psi_series, _met, _Series.count, the tail test of
_Series._horner_from); the functions of t that values depend on are
NumPy's on both (np.square, not pow, for squares, as NumPy's arrays
do), and the complex products that NumPy's array loop may round
differently (_times) run on one-element arrays, so the two routes take
the same branches and term counts and round alike.
NaN or infinite arguments raise ValueError on both routes before any
series runs.

At (alpha, beta) = (m - 1/2, -1/2), m = 1..4, and real lambda, phi is
prod_{k<m} [-(2k+1) / (lambda^2 + k^2)] Re(D^m e^{i lambda t}), D =
(1/sinh t) d/dt (Koornwinder 1984), taken wherever its estimated
rounding error, 8 eps sum |term| plus the phase's, meets the target
below (every t >= 0.35 at lambda <= 40).  Elsewhere jacobi_phi chooses
between two representations at each t by their estimated rounding
error, relative to max(|phi|, e^{-(alpha+beta+1) t}):

  - the Pfaff series in w = tanh^2(t), used for t <= T_SWITCH
    (tanh^2 t <= 0.9).  Its terms peak near e^{|lambda| tanh t};
  - the connection formula
        phi_lambda = c(lambda) Psi_lambda + c(-lambda) Psi_(-lambda),
    whose Psi series run in w = sech^2(t) and are used for t >= 0.5.
    Their terms peak near e^{|lambda| sech^2(t) / 4}, and the two
    products may cancel against |phi|.

Each t takes the cheaper branch whose estimate meets the 1e-10 target.
Below _T_CROSS = 1.25 that is the Pfaff series, and the connection
formula where the Pfaff estimate fails.  From _T_CROSS on it is the
connection formula, whose Psi series need far fewer terms there (at
lambda <= 4, 27-33 against the Pfaff series' 99-127 at t = 1.25, and
16-19 against 295-374 at t = 1.8), and the Pfaff series only where the
connection formula's estimate fails.  At a t where neither passes (at
lambda = 100 and (alpha, beta) = (1, 0), about t in [0.15, 0.72]),
jacobi_phi raises ArithmeticError.  After evaluation the chosen
branch's estimate is checked against the ratios the kernel reports; at
a t where that final check misses, the other branch runs if its
a-priori estimate passes (at (0, -1/2), lambda = 20, t = 0.85 the Pfaff
series misses and the connection formula answers), and a miss there
raises too.

jacobi_phi_pair(par, t) gives a = phi^(alpha,-1/2) and b =
phi^(alpha+1,-1/2), the two Jacobi functions of every spherical
component off the chirality bundles, from a's series alone.  By
Koornwinder's derivative formula and the quadratic transformation,

    b(t) = -8 (alpha + 1) / (4 lambda^2 + (2 alpha + 1)^2) a'(t) / sinh t,

and both of a's representations are a power prefactor P(t) times a
series S(w): P = cosh^-2A t, w = tanh^2 t on the Pfaff side, and P =
(2 sinh t)^(i lambda - rho) coth^-2A t, w = sech^2 t, for Psi, A the
series' first parameter.  Either way (P S)' = tanh t P (-2A S +- 2
sech^2 t S'), + for tanh^2 and - for sech^2, so one branch rule, one
term count (count's scan meets S's stop and S''s) and one Horner pass
with a second accumulator for S' give both.  a keeps its estimate, tail
test, final check and retry; b has its own tail test on S' and its own
estimate, from the largest term of S' (a second hull of the table) and
of -2A S, checked against max(|b|, e^{-(alpha+3/2) t}).  At a t where
b's check misses, or at complex lambda within 1e-6 (relative) of a zero
of 4 lambda^2 + (2 alpha + 1)^2, b is jacobi_phi(alpha + 1, -1/2,
lambda) there.  Where both closed forms of the half-odd families are
taken, both are kept.  b's complex products are plain ones on both
routes, so a single t and an array may differ in b by its rounding
(well inside its estimate); a is rounded as jacobi_phi rounds it.  One
point of a + b, warm (2, -1/2, 1) tables, both versions timed in turns
in one process (best of 20 x 300 calls; 2 vCPUs shared, Python 3.11,
NumPy 2.4), two jacobi_phi calls -> one pair: 41.0 -> 30.1, 68.7 ->
59.9, 75.1 -> 54.8, 63.8 -> 46.4 and 60.9 -> 45.9 us at t = 0.3, 1.0,
1.5, 2.0 and 2.5.

Gamma is the Lanczos approximation with the 15-coefficient table of
Godfrey (g = 607/128), whose spec sheet quotes relative errors near
1e-15 on the right half plane, taken in log form; its sum is one divide
over the stack of its terms at every point, added in the order of the
series.  The reflection formula covers Re(z) < 1/2 with log sin(pi z)
written through e^{-+i pi z} (1 - e^{+-2 i pi z}), which cannot
overflow.  c_jacobi adds its four log-Gammas before exponentiating, so
c(lambda) stays finite at large lambda, where Gamma(i lambda) alone
underflows.
"""

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import accumulate
from math import exp, inf, isfinite, log
from operator import mul

import numpy as np

__all__ = [
    "JacobiParams",
    "gamma_c",
    "hyp2f1_negz",
    "jacobi_phi",
    "jacobi_phi_pair",
    "jacobi_psi",
    "c_jacobi",
    "gauss_legendre",
    "T_SWITCH",
]

# Pfaff variable beyond which jacobi_phi never uses the Pfaff series.
W_SWITCH = 0.9
# ... and the corresponding |t|: tanh^2(t) = 0.9.
T_SWITCH = float(np.arctanh(np.sqrt(W_SWITCH)))
# Psi's series in sech^2(t) is used from here on (ratio <= sech^2(0.5) ~ 0.79).
_PSI_T_MIN = 0.5
# From here on jacobi_phi prefers the connection formula, whose Psi
# series need fewer terms than the Pfaff series (about 30 against 100 at
# t = 1.25 and small lambda).  Below it the Pfaff series is as cheap:
# their counts meet near t = 0.9, and a crossover there was measured slower.
_T_CROSS = 1.25

# Series controls.
_SERIES_RTOL = 1.0e-16
_SERIES_MAX_TERMS = 4000
# Coefficients are built in blocks of at least this many terms.
_SERIES_BLOCK = 32
_TINY = float(np.finfo(float).tiny)

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
# the k of the terms c_k / (x + k), k = 1..14, as a column
_LANCZOS_K = np.arange(1.0, len(_LANCZOS_C))[:, None]

_LOG_SQRT_2PI = float(0.5 * np.log(2.0 * np.pi))
_LOG_PI = float(np.log(np.pi))
_LOG_2 = float(np.log(2.0))


def _log_gamma(z):
    """log Gamma(z) for a complex array z, up to a multiple of 2 pi i.

    +inf at the poles (the non-positive integers).  The Lanczos sum takes
    its 14 terms c_k / (x + k) at every point in one divide, a (14, N)
    stack, and adds them in k order, so it is bit for bit the
    term-by-term loop it replaced (kept in the tests as its oracle)."""
    z = np.asarray(z, dtype=complex)
    shape, z = z.shape, z.reshape(-1)
    reflect = z.real < 0.5
    zz = np.where(reflect, 1.0 - z, z)

    # Lanczos sum at zz, Re(zz) >= 0.5, below c_0 in one stack; a running
    # sum keeps k order where a reduce would add one point's terms pairwise
    x = zz - 1.0
    terms = np.empty((len(_LANCZOS_C),) + zz.shape, dtype=complex)
    terms[0] = _LANCZOS_C[0]
    np.divide(_LANCZOS_C[1:, None], x + _LANCZOS_K, out=terms[1:])
    acc = np.add.accumulate(terms, out=terms)[-1]
    tt = x + _LANCZOS_G + 0.5
    out = _LOG_SQRT_2PI + (x + 0.5) * np.log(tt) - tt + np.log(acc)

    if reflect.any():
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
    return out.reshape(shape)


def gamma_c(z):
    """Gamma function for complex argument, vectorized.

    Poles at the non-positive integers come out as inf; callers that can
    hit a pole are expected to guard for it (see c_jacobi).
    """
    z = np.asarray(z, dtype=complex)
    out = np.exp(_log_gamma(np.atleast_1d(z)))
    return out[0] if z.ndim == 0 else out


def _one_point(x, fn, name):
    """(points, shape) of the argument x: a NumPy float when x holds one
    element (the one-point route), else a float array.  A NaN or an
    infinity raises ValueError, before any series runs."""
    x = np.asarray(x, dtype=float)
    pts = x.reshape(-1)[0] if x.size == 1 else x
    if not (isfinite(pts) if x.size == 1 else np.isfinite(x).all()):
        raise ValueError(f"{fn} requires a finite {name}" + (f"; got {pts}" if x.size == 1 else ""))
    return pts, x.shape


def _shaped(shape, *values):
    """One-point results in the argument's shape: NumPy scalars for a 0-d
    argument, arrays of one element otherwise."""
    return tuple(np.array([v]).reshape(shape) if shape else np.asarray(v)[()] for v in values)


def hyp2f1_negz(a, b, c, z, *, full_output=False):
    """2F1(a, b; c; z) for real z <= 0 via the Pfaff transform.

    Parameters may be complex scalars; z may be a scalar or an array of
    finite values (NaN or infinity raises ValueError).  The series in
    w = z/(z-1) is summed to relative accuracy 1e-16 with a hard cap of
    4000 terms, past which it raises RuntimeError.  With full_output,
    also returns the kernel's per-point term counts and cancellation
    ratios max|term| / |sum| (see `_Series.sum`).
    """
    a = complex(a)
    b = complex(b)
    c = complex(c)
    zs, shape = _one_point(z, "hyp2f1_negz", "z")
    if _any(zs > 0.0):
        raise ValueError("hyp2f1_negz requires z <= 0")
    if abs(c.imag) < 1e-13 and abs(c.real - round(c.real)) < 1e-13 and round(c.real) <= 0:
        raise ValueError(f"2F1 undefined at non-positive integer c = {c}")

    out, nterms, ratio = _pfaff(_Series(a, c - b, c), zs)
    if zs.ndim == 0:
        out, nterms, ratio = _shaped(shape, out, nterms, ratio)
    return (out, nterms, ratio) if full_output else out


def _horner(coef_desc, x):
    """sum_k coef[k] x^k by Horner's rule from the list coef_desc =
    coef[::-1]: on a Python complex x at one point, else with two in-place
    operations per term over the complex array x."""
    acc = x * 0.0 + coef_desc[0]
    for ck in coef_desc[1:]:
        acc *= x
        acc += ck
    return acc


def _horner_deriv(coef_desc, x):
    """(sum_k coef[k] x^k, sum_k k coef[k] x^(k-1)) in one Horner pass with
    a second accumulator; the first is _horner's, bit for bit."""
    acc, dacc = x * 0.0 + coef_desc[0], x * 0.0
    for ck in coef_desc[1:]:
        dacc *= x
        dacc += acc
        acc *= x
        acc += ck
    return acc, dacc


def _any(mask):
    """mask.any(), without NumPy's reduction at one point."""
    return mask.any() if mask.ndim else bool(mask)


def _times(x, y):
    """The complex product x * y as NumPy's array loop rounds it, at one
    point too: that loop may fuse its multiply-adds, the scalar
    arithmetic does not, so both routes multiply on arrays."""
    if isinstance(x, np.ndarray) or isinstance(y, np.ndarray):
        return x * y
    return (x * np.array([y]))[0]


class _Series:
    """Coefficient table coef[k] = (a)_k (b)_k / ((c)_k k!) of one series
    triple, and the upper hulls of log|coef[k]| and of log|k coef[k]| with
    the length they were built for.  The table grows only by doubling in
    blocks of at least _SERIES_BLOCK terms (1 -> 33 -> 66 -> 132 ...), each
    one cumulative product, so every prefix is the same whatever was asked
    before."""

    def __init__(self, a, b, c):
        self.a, self.b, self.c = a, b, c
        self.coef = np.ones(1, dtype=complex)
        self.hulls = [(0, None), (0, None)]

    def upto(self, n):
        """The table, grown to at least n coefficients."""
        while len(self.coef) < n:
            k0 = len(self.coef) - 1
            ks = np.arange(k0, k0 + max(k0 + 1, _SERIES_BLOCK), dtype=float)
            ratios = (self.a + ks) * (self.b + ks) / ((self.c + ks) * (ks + 1.0))
            self.coef = np.concatenate((self.coef, self.coef[-1] * np.cumprod(ratios)))
        return self.coef

    def log_peak(self, w, deriv=False):
        """log max_k |coef[k]| w^k at each w over the table as it stands,
        from the upper hull of the points (k, log|coef[k]|); with deriv, of
        the derivative's terms, log max_k |k coef[k]| w^(k-1)."""
        if self.hulls[deriv][0] != len(self.coef):
            size = np.abs(self.coef[1:]) * np.arange(1.0, len(self.coef)) if deriv else np.abs(self.coef)
            with np.errstate(divide="ignore"):
                logc = np.log(size)
            k = np.flatnonzero(np.isfinite(logc)).astype(float)
            y = logc[k.astype(int)]
            while k.size > 2:
                # a point on or below the chord of its neighbours is no vertex
                low = (y[1:-1] - y[:-2]) * (k[2:] - k[:-2]) <= (y[2:] - y[:-2]) * (k[1:-1] - k[:-2])
                if not low.any():
                    break
                keep = np.concatenate(([True], ~low, [True]))
                k, y = k[keep], y[keep]
            self.hulls[deriv] = (len(self.coef), (k, y, -np.diff(y) / np.diff(k)))
        k, y, slopes = self.hulls[deriv][1]
        # the hull's slopes fall, so the peak at x = log w sits at the first
        # vertex whose outgoing slope is <= -x
        x = np.log(max(w, _TINY) if w.ndim == 0 else np.maximum(w, _TINY))
        j = slopes.searchsorted(x)
        return y[j] + k[j] * x

    def count(self, wmax, guard, deriv=False):
        """The term count at w = wmax: one past the first k >= 1 with
        |coef[k] wmax^k| * guard <= 1e-16 |S_k|, S_k the partial sums in order.
        Where the geometric tail wmax^k * guard reaches 1e-16 within
        _SERIES_BLOCK terms, a scalar scan of that block comes first.  Then
        one vectorised pass over what a tail like wmax^k needs plus
        _SERIES_BLOCK (enough for coefficients like k^3 at wmax <= 0.79), then
        doubling passes.  S_k carries over, so the count depends on neither
        the pass lengths nor the table's.

        With deriv, k must also meet the derivative's stop, |k coef[k]
        wmax^(k-1)| * guard <= 1e-16 |S'_k|; times wmax, that is |k term_k| *
        guard <= 1e-16 |sum_{j<=k} j term_j|, summed alongside S_k.  Its scalar
        scan covers 2 _SERIES_BLOCK terms, as its counts run a few past S's."""
        logw = float(np.log(wmax)) if wmax > 0.0 else -inf
        k0, partial, term, kpartial, kterm = 1, 1.0 + 0.0j, 1.0, 0.0j, 1.0
        span = _SERIES_BLOCK * (1 + deriv)
        if wmax ** span * guard <= _SERIES_RTOL:
            coef = self.upto(span + 1)[1:span + 1].tolist()
            # one loop per mode, so that S's scan pays nothing for the other
            if not deriv:
                for k, c in enumerate(coef, 1):
                    term = c * exp(k * logw)
                    partial += term
                    if abs(term) * guard <= _SERIES_RTOL * (abs(partial) + 1e-300):
                        return k + 1
            else:
                tol, power = _SERIES_RTOL / guard, 1.0
                for k, c in enumerate(coef, 1):
                    power *= wmax
                    term = c * power
                    partial += term
                    kterm = k * term
                    kpartial += kterm
                    if abs(term) <= tol * (abs(partial) + 1e-300) and (
                            abs(kterm) <= tol * (abs(kpartial) + 1e-300)):
                        return k + 1
            k0 = span + 1
        # the first pass's length, from the scan's last terms if it ran
        miss = _SERIES_RTOL * (abs(partial) + 1e-300) / (abs(term) * guard)
        if deriv and k0 > 1 and kterm:
            miss = min(miss, _SERIES_RTOL * (abs(kpartial) + 1e-300) / (abs(kterm) * guard))
        k1 = k0 + int(min(log(miss) / logw, _SERIES_MAX_TERMS)) + _SERIES_BLOCK if miss > 0 else k0
        while True:
            if k0 > _SERIES_MAX_TERMS:
                _no_convergence(self, wmax)
            k1 = max(k1, k0 + _SERIES_BLOCK)
            ks = np.arange(k0, k1)
            terms = self.upto(k1)[k0:k1] * np.exp(ks * logw)
            bound = np.abs(terms) * guard
            if deriv:
                kterms = terms * ks
                kbound = np.abs(kterms) * guard
                kterms[0] += kpartial
                ksums = np.cumsum(kterms, out=kterms)
                kdone = kbound <= _SERIES_RTOL * (np.abs(ksums) + 1e-300)
                kpartial = ksums[-1]
            terms[0] += partial
            sums = np.cumsum(terms, out=terms)
            done = bound <= _SERIES_RTOL * (np.abs(sums) + 1e-300)
            if deriv:
                done &= kdone
            first = int(done.argmax())
            if done[first]:
                return k0 + first + 1
            partial, k0, k1 = sums[-1], k1, 2 * k1

    def _horner_from(self, w, nterms, guard, wmax, deriv=False):
        """(sums, [derivatives,] term counts) at w, a NumPy float or a 1-d
        array; a point failing the stop (with deriv, either stop) is summed
        again with 2 nterms."""
        if nterms > _SERIES_MAX_TERMS:
            _no_convergence(self, wmax)
        coef = self.upto(nterms)
        x = complex(w) if w.ndim == 0 else w.astype(complex)
        sums = (_horner_deriv if deriv else _horner)(coef[nterms - 1::-1].tolist(), x)
        sums = sums if deriv else (sums,)
        # the tail test: the last term, with the guard, below 1e-16 |sum|
        last = abs(coef[nterms - 1])
        done = last * w ** (nterms - 1) * guard <= _SERIES_RTOL * (abs(sums[0]) + 1e-300)
        if deriv:
            done &= (last * (nterms - 1) * w ** (nterms - 2) * guard
                     <= _SERIES_RTOL * (abs(sums[1]) + 1e-300))
        if w.ndim == 0:
            return (*sums, nterms) if done else self._horner_from(w, 2 * nterms, guard, wmax, deriv)
        out = (*sums, np.full(w.shape, nterms))
        if not done.all():
            for part, redo in zip(out, self._horner_from(w[~done], 2 * nterms, guard, wmax, deriv)):
                part[~done] = redo
        return out

    def sum(self, w, deriv=False):
        """Power series sum_k coef[k] w^k for w in [0, 1), a float array or
        a NumPy float (one point, summed on Python scalars): the sum, the
        number of terms summed and the cancellation ratio max|term| / |sum|,
        shaped like w.  A point stops at the first term with
        |term| * guard <= 1e-16 |sum|, where guard = max(wmax / (1 - wmax), 1)
        bounds the tail, a geometric series of ratio ~ w.  One scan at the
        largest w (count) gives the term count for every point,
        summed by Horner's rule; a point that still fails (next to a zero
        of the sum) is summed again with twice as many terms.  With deriv,
        the same pass also sums the derivative sum_k k coef[k] w^(k-1), whose
        terms meet the same stop, and returns it and its largest term
        max|k coef[k] w^(k-1)| after the three.
        """
        one = w.ndim == 0
        wmax = float(w) if one else float(w.max()) if w.size else 0.0
        guard = max(wmax / (1.0 - wmax), 1.0) if wmax < 1.0 else np.inf
        out = self._horner_from(w if one else w.reshape(-1), self.count(wmax, guard, deriv),
                                guard, wmax, deriv)
        total, used = out[0], out[-1]
        if one:
            # math's exp and log raise where NumPy's give inf
            try:
                ratio = exp(self.log_peak(w) - log(abs(total)))
            except (ValueError, OverflowError):
                ratio = inf
            if not deriv:
                return total, used, ratio
            try:
                return total, used, ratio, out[1], exp(self.log_peak(w, True))
            except OverflowError:
                return total, used, ratio, out[1], inf
        total, used = total.reshape(w.shape), used.reshape(w.shape)
        with np.errstate(divide="ignore", over="ignore"):
            ratio = np.exp(self.log_peak(w) - np.log(np.abs(total)))
            if not deriv:
                return total, used, ratio
            return total, used, ratio, out[1].reshape(w.shape), np.exp(self.log_peak(w, True))


def _pfaff(series, z, slope=None):
    """(2F1(a, b; c; z), nterms, ratio) for z <= 0 (a NumPy float or an
    array), series (a, c-b, c).  With a real slope (a float or an array like
    z), also g = (1 - z)^-a (-2a S(w) + slope S'(w)), where 2F1 = (1 - z)^-a
    S(w), w = z / (z - 1), and g's estimated rounding error over machine
    epsilon, less the phase of (1 - z)^-a: from g, jacobi_phi_pair takes
    the t-derivatives of phi and Psi (see _phi_pfaff and _psi_series)."""
    pre = (1.0 - z) ** (-series.a)
    if slope is None:
        s, nterms, ratio = series.sum(z / (z - 1.0))
        return _times(pre, s), nterms, ratio
    s, nterms, ratio, ds, dpeak = series.sum(z / (z - 1.0), deriv=True)
    a2 = -2.0 * series.a
    g = pre * (a2 * s + slope * ds)
    err = abs(pre) * _SAFETY * (abs(a2) * abs(s) * ratio + abs(slope) * dpeak)
    return _times(pre, s), nterms, ratio, g, err


def _no_convergence(series, wmax):
    raise RuntimeError(
        "2F1 series did not converge: a=%s b=%s c=%s max|w|=%.6f after %d terms"
        % (series.a, series.b, series.c, wmax, _SERIES_MAX_TERMS)
    )


@dataclass(frozen=True)
class JacobiParams:
    """Parameter triple (alpha, beta, lambda) of a Jacobi function.

    alpha must stay away from the negative integers; lambda may be
    complex but must keep a safe distance from i*Z whenever the
    connection formula or the c-function is involved.

    An instance keeps, built on first use, its Pfaff and Psi tables,
    c(lambda) and c(-lambda), and the reflected triple (alpha, beta,
    -lambda) for the connection formula at parameters that are not
    real.  Equality, hash and repr read the three fields only.
    """

    alpha: complex
    beta: complex
    lam: complex

    def __post_init__(self):
        a = complex(self.alpha)
        if abs(a.imag) < 1e-13 and a.real < -0.5 and abs(a.real - round(a.real)) < 1e-13:
            raise ValueError(f"alpha = {a} is a negative integer")

    @cached_property
    def _series(self):
        """The tables (a, c - b, c) of the 2F1 (a, b; c) of phi and of Psi."""
        a, b, lam = complex(self.alpha), complex(self.beta), complex(self.lam)
        phi = ((1j * lam + a + b + 1.0) / 2.0, (-1j * lam + a + b + 1.0) / 2.0, a + 1.0)
        psi = ((a + b + 1.0 - 1j * lam) / 2.0, (-a + b + 1.0 - 1j * lam) / 2.0, 1.0 - 1j * lam)
        return tuple(_Series(fa, fc - fb, fc) for fa, fb, fc in (phi, psi))

    @cached_property
    def _rho(self):
        return (complex(self.alpha) + complex(self.beta) + 1.0).real

    @cached_property
    def _real(self):
        return not (complex(self.alpha).imag or complex(self.beta).imag or complex(self.lam).imag)

    @cached_property
    def _c(self):
        """(c(lambda), c(-lambda)); for real parameters the two are conjugates."""
        cp = c_jacobi(self.alpha, self.beta, self.lam)
        if self._real:
            return cp, cp.conjugate()
        return cp, c_jacobi(self.alpha, self.beta, -complex(self.lam))

    @cached_property
    def _reflected(self):
        return JacobiParams(self.alpha, self.beta, -complex(self.lam))

    @cached_property
    def _raised(self):
        """The triple (alpha + 1, beta, lambda) of jacobi_phi_pair's b."""
        return JacobiParams(self.alpha + 1, self.beta, self.lam)

    @cached_property
    def _lift(self):
        """(k, amp) with phi^(alpha+1,-1/2) = k phi'(t) / sinh t at beta =
        -1/2, k = -8 (alpha + 1) / (4 lambda^2 + (2 alpha + 1)^2), and amp the
        factor by which the denominator's cancellation lifts the rounding of
        k: 1 at real parameters, and (0, inf) within _LAMBDA_GUARD of a zero."""
        a, lam = complex(self.alpha), complex(self.lam)
        den = 4.0 * lam * lam + (2.0 * a + 1.0) ** 2
        size = 4.0 * abs(lam) ** 2 + abs(2.0 * a + 1.0) ** 2
        if abs(den) <= _LAMBDA_GUARD * size:
            return 0.0, inf
        k = -8.0 * (a + 1.0) / den
        return (k.real if self._real else k), size / abs(den)

    @cached_property
    def _odd(self):
        """The terms (b, c, wave, k) of phi = sum k coth^b t csch^c t times
        cos(lambda t) (wave 0) or sin(lambda t) / lambda (wave 1), at
        (alpha, beta) = (m - 1/2, -1/2), m = 1..4, and real lambda; else None."""
        a, b, lam = complex(self.alpha), complex(self.beta), complex(self.lam)
        m = a.real + 0.5
        if b != -0.5 or a.imag or lam.imag or m not in range(1, 5):
            return None
        lam = lam.real
        # the k = 0 factor -1/lambda^2 takes Re((i lambda)^a e^{i lambda t}), a >= 1,
        # to (-1)^(a/2) lambda^(a-2) cos or -(-1)^((a-1)/2) lambda^(a-1) sin / lambda
        pre = -1.0
        for k in range(1, int(m)):
            pre *= -(2 * k + 1) / (lam * lam + k * k)
        return tuple((b, c, a % 2, pre * k * (-1) ** (a // 2 + a % 2) * lam ** (a - 2 + a % 2))
                     for (a, b, c), k in _odd_terms(int(m)).items())


def _near_pole(lam):
    """Whether lambda is within _LAMBDA_GUARD of i*Z (poles of c / Psi)."""
    # lam = i*k  <=>  (Re lam, Im lam) = (0, k)
    return abs(lam.real) < _LAMBDA_GUARD and abs(lam.imag - round(lam.imag)) < _LAMBDA_GUARD


def _check_lambda_regular(lam, what):
    """Reject lambda within _LAMBDA_GUARD of i*Z."""
    lam = complex(lam)
    if _near_pole(lam):
        raise ValueError(f"{what} has a pole at lambda in i*Z; got lambda = {lam}")


def jacobi_phi(par, t):
    """Jacobi function of the first kind phi_lambda^(alpha,beta)(t).

    Even in t, which must be finite (NaN or infinity raises ValueError).
    Right to 1e-10 relative to max(|phi|, e^{-(alpha+beta+1)t}) or raises
    ArithmeticError: by the closed form, the Pfaff series or the connection
    formula (which needs lambda off i*Z), chosen at each t by the rule of
    the module docstring, and the other branch where the chosen one misses
    its final check.  At (alpha, beta) = (m - 1/2, -1/2), m = 1..4,
    it never raises for real lambda and t in [0, 40].

    A t of one element (a scalar or an array of size 1) takes the
    one-point route: the same branch rule, series and checks on NumPy
    and Python scalars, without masks or arrays.  Larger arrays are
    split by the branch rule and each branch runs over its whole part.
    """
    ts, shape = _one_point(t, "jacobi_phi", "t")
    ts = abs(ts)
    if par._odd:
        out, err = _phi_odd(par, ts)
        redo = ~_met(par, ts, out, err)
    if not par._odd or not _any(~redo):
        out, err = _phi_series(par, ts)
    elif _any(redo):
        out[redo], err[redo] = _phi_series(par, ts[redo])
    out = _retried(par, ts, out, err)
    return _shaped(shape, out)[0] if ts.ndim == 0 else out


def _phi_series(par, ts, near=None, deriv=False):
    """(phi, estimated error over machine epsilon) by the Pfaff series or
    the connection formula, chosen at each t by _pfaff_first (or where
    near is given, the Pfaff series where it holds); with deriv, followed
    by jacobi_phi_pair's b and its estimated error."""
    if near is None:
        near = _pfaff_first(par, ts)
    if ts.ndim == 0:
        return (_phi_pfaff if near else _phi_connection)(par, ts, deriv)
    out = [np.empty(ts.shape, dtype=kind) for kind in (complex, float) * (1 + deriv)]
    picked = np.count_nonzero(near)  # a branch every t takes needs no masks
    every = picked == ts.size
    near, far = (slice(None),) * 2 if every or not picked else (near, ~near)
    for mask, branch, runs in ((near, _phi_pfaff, picked), (far, _phi_connection, not every)):
        if runs:
            for part, got in zip(out, branch(par, ts[mask], deriv)):
                part[mask] = got
    return tuple(out)


def _retried(par, ts, out, err):
    """out, where its final check (_met) passes; at any other t, phi by the
    branch _pfaff_first did not choose, where that branch's a-priori
    estimate and then its final check pass.  Raises ArithmeticError at a t
    where neither branch is accurate."""
    miss = ~_met(par, ts, out, err)
    if not _any(miss):
        return out
    sub = ts if ts.ndim == 0 else ts[miss]
    other = ~_pfaff_first(par, sub)
    if sub.ndim == 0:
        ok = (_pfaff_ok if other else _psi_ok)(par, sub)
    else:
        ok = np.where(other, _pfaff_ok(par, sub), _psi_ok(par, sub))
    if _any(~ok):
        _phi_unreachable(par, sub[~ok])
    new, new_err = _phi_series(par, sub, near=other)
    met = _met(par, sub, new, new_err)
    if _any(~met):
        _phi_unreachable(par, sub[~met])
    if ts.ndim == 0:
        return new
    out[miss] = new
    return out


def jacobi_phi_pair(par, t):
    """(a, b) = (phi^(alpha,-1/2)_lambda(t), phi^(alpha+1,-1/2)_lambda(t)) for
    par = (alpha, -1/2, lambda); any other beta raises ValueError.

    b = k a'(t) / sinh t, k = -8 (alpha + 1) / (4 lambda^2 + (2 alpha + 1)^2),
    comes from a's own series: one branch rule and one term count per call,
    and one Horner pass that also sums the series' derivative (see the
    module docstring).  a is right or raises as jacobi_phi(par, t) is, by
    the same rules; b is right to 1e-10 relative to max(|b|,
    e^{-(alpha+3/2) t}) by its own estimate, and at a t where that misses
    (or near a zero of k's denominator at complex lambda) it is
    jacobi_phi(alpha + 1, -1/2, lambda).  Where both take the closed form
    of the half-odd families, both keep it.  A t of one element takes the
    one-point route, as in jacobi_phi.
    """
    if complex(par.beta) != -0.5:
        raise ValueError(f"jacobi_phi_pair requires beta = -1/2; got beta = {par.beta}")
    ts, shape = _one_point(t, "jacobi_phi_pair", "t")
    ts = abs(ts)
    up = par._raised
    if par._odd or up._odd:
        a, a_err, b, b_err = _pair_odd(par, up, ts)
    else:
        a, a_err, b, b_err = _phi_series(par, ts, deriv=True)
    a = _retried(par, ts, a, a_err)
    miss = ~_met(up, ts, b, b_err)
    if _any(miss):
        if ts.ndim == 0:
            b = jacobi_phi(up, ts)
        else:
            b[miss] = jacobi_phi(up, ts[miss])
    return _shaped(shape, a, b) if ts.ndim == 0 else (a, b)


def _pair_odd(par, up, ts):
    """(a, its error, b, its error) of jacobi_phi_pair where a closed form
    exists: each closed form kept where its check passes, the pair's
    series at every other t."""
    odd = [_phi_odd(p, ts) if p._odd else None for p in (par, up)]
    kept = [np.False_ if v is None else _met(p, ts, *v) for p, v in zip((par, up), odd)]
    need = ~(kept[0] & kept[1])
    if not _any(need):
        return (*odd[0], *odd[1])
    if ts.ndim == 0 or not _any(~need):
        got = _phi_series(par, ts, deriv=True)
    else:
        got = []
        for part in _phi_series(par, ts[need], deriv=True):
            got.append(np.empty(ts.shape, dtype=part.dtype))
            got[-1][need] = part
    out = []
    for keep, v, series in zip(kept, odd, (got[:2], got[2:])):
        if not _any(keep):
            out += series
        elif ts.ndim == 0:
            out += v
        else:
            out += [np.where(keep, vi, si) for vi, si in zip(v, series)]
    return tuple(out)


@lru_cache(maxsize=None)
def _odd_terms(m):
    """{(a, b, c): k} with D^m e^{i lambda t} = e^{i lambda t} sum k (i lambda)^a
    coth^b t csch^c t, D = (1/sinh t) d/dt; every a >= 1 at m >= 1, as D 1 = 0."""
    if m == 0:
        return {(0, 0, 0): 1}
    terms = {}
    for (a, b, c), k in _odd_terms(m - 1).items():
        # D(f e^{i lambda t}) = csch t (f' + i lambda f) e^{i lambda t}
        for key, coef in (((a, b - 1, c + 3), -b * k), ((a, b + 1, c + 1), -c * k),
                          ((a + 1, b, c + 1), k)):
            terms[key] = terms.get(key, 0) + coef
    return {key: k for key, k in terms.items() if k}


def _phi_odd(par, t):
    """(phi, estimated error over machine epsilon) from the closed form
    (JacobiParams._odd), not finite at t = 0; elementwise operations in a
    fixed order, so that one point and an array round alike."""
    lam, m = complex(par.lam).real, round(complex(par.alpha).real + 0.5)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        em = -np.expm1(-2.0 * t)
        coth, csch = (2.0 - em) / em, 2.0 * np.exp(-t) / em
        # sin(lambda t) / lambda is t to rounding once lambda^2 is below tiny
        waves = (np.cos(lam * t), np.sin(lam * t) / lam if lam * lam > _TINY else t)
        # powers to coth^(m-1) and csch^(2m-1), the largest in the terms
        coths = list(accumulate([1.0] + [coth] * (m - 1), mul))
        cschs = list(accumulate([1.0] + [csch] * (2 * m - 1), mul))
        sums, sizes = [0.0, 0.0], [0.0, 0.0]
        for b, c, wave, k in par._odd:
            mono = coths[b] * cschs[c]
            sums[wave] = sums[wave] + k * mono
            sizes[wave] = sizes[wave] + abs(k) * mono
        out = sums[0] * waves[0] + sums[1] * waves[1]
        size = sizes[0] * abs(waves[0]) + sizes[1] * abs(waves[1])
    return np.asarray(out, dtype=complex)[()], _rounding(size, 1.0, lam, t)


def _rounding(val, ratio, lam, t):
    """Estimated rounding error, over machine epsilon, of a series value
    with cancellation ratio `ratio`, plus |lambda| t for the phases of its
    power prefactor."""
    return abs(val) * (_SAFETY * ratio + abs(lam) * t)


def _pfaff_first(par, t):
    """The branch rule: where jacobi_phi takes the Pfaff series.  Below
    _T_CROSS wherever its estimate passes; from _T_CROSS on only where
    the connection formula's does not.  Every other t takes the
    connection formula, which raises where its estimate fails."""
    near = _pfaff_ok(par, t)
    late = near & (t >= _T_CROSS)
    if _any(late):
        near = near & ~(late & _psi_ok(par, t))
    return near


def _pfaff_ok(par, t):
    """Where the Pfaff series' a-priori estimate passes (t <= T_SWITCH)."""
    lam, rho = abs(complex(par.lam)), par._rho
    # the Pfaff terms peak near e^x / (1 + pi x) with x = |lambda| tanh t,
    # the largest term of sum_k (x/2)^{2k} / k!^2, and cosh(t)^-rho
    # exceeds the floor by ((1 + e^{-2t}) / 2)^-rho; all that is at most
    # |lambda| + max(rho, 0) log 2, and below the budget passes every t
    near = t <= T_SWITCH
    if lam + max(rho, 0.0) * _LOG_2 > _LOG_BUDGET - 1.0:
        x = lam * np.tanh(t)
        near &= x - np.log1p(np.pi * x) - rho * np.log(0.5 + 0.5 * np.exp(-2.0 * t)) <= _LOG_BUDGET
    return near


def _phi_pfaff(par, t, deriv=False):
    """(phi, estimated error) from the Pfaff series at t <= T_SWITCH.  With
    deriv, also jacobi_phi_pair's b = k phi'(t) / sinh t and its estimated
    error: phi = cosh^-2A(t) S(tanh^2 t) has phi' / sinh t = g / cosh t, g
    from _pfaff with slope 2 sech^2 t = 2 / (1 - z)."""
    z = -np.square(np.sinh(t))
    got = _pfaff(par._series[0], z, 2.0 / (1.0 - z) if deriv else None)
    out, ratio = got[0], got[2]
    if not deriv:
        return out, _rounding(out, ratio, par.lam, t)
    k, amp = par._lift
    scale = k / np.cosh(t)
    b = scale * got[3]
    return (out, _rounding(out, ratio, par.lam, t),
            b, abs(scale) * got[4] + abs(b) * (abs(par.lam) * t + amp))


def _psi_ok(par, t):
    """Where the connection formula's a-priori estimate passes: t >= 0.5,
    lambda off i*Z, and the Psi budget met."""
    lam = complex(par.lam)
    ok = t >= _PSI_T_MIN
    if _near_pole(lam):
        return ok & False  # at no t: c and Psi have their poles on i*Z
    cp, cm = par._c
    # the Psi terms peak near e^{|lambda| sech^2 t / 4}, and the two
    # products may cancel against |phi|, here bounded by the floor,
    # which (2 sinh t)^-rho exceeds by (1 - e^{-2t})^-rho; for real lambda
    # and t >= 0.5 all that is at most the bound below (-log(1 - e^-1) < 0.46)
    if par._real and (abs(lam) / 4.0 + log(2.0 * abs(cp)) + 0.46 * max(par._rho, 0.0)
                      <= _LOG_BUDGET - 1.0):
        return ok
    t = np.maximum(t, _PSI_T_MIN)
    log_sh = np.log(2.0 * np.sinh(t))
    lead = abs(cp) * np.exp(-lam.imag * log_sh) + abs(cm) * np.exp(lam.imag * log_sh)
    lift = -par._rho * np.log(-np.expm1(-2.0 * t))
    return ok & (abs(lam) / (4.0 * np.square(np.cosh(t))) + np.log(lead) + lift <= _LOG_BUDGET)


def _phi_connection(par, t, deriv=False):
    """(phi, estimated error) from the connection formula; raises
    ArithmeticError where t < 0.5 or the Psi budget is missed (_psi_ok).
    With deriv, also jacobi_phi_pair's b = k phi' / sinh t and its
    estimated error."""
    lam = complex(par.lam)
    if _any(t < _PSI_T_MIN):
        _phi_unreachable(par, t[t < _PSI_T_MIN])
    _check_lambda_regular(lam, "connection formula")
    ok = _psi_ok(par, t)
    if _any(~ok):
        _phi_unreachable(par, t[~ok])
    # for real parameters Psi_(-lambda) is the conjugate of Psi_lambda
    # (same series ratio)
    cp, cm = par._c
    psi_p, _, ratio_p, *grad_p = _psi_series(par, t, deriv)
    if par._real:
        psi_m, ratio_m = psi_p.conj(), ratio_p
        grad_m = (grad_p[0].conj(), grad_p[1]) if deriv else ()
    else:
        psi_m, _, ratio_m, *grad_m = _psi_series(par._reflected, t, deriv)
    plus, minus = _times(cp, psi_p), _times(cm, psi_m)
    out = plus + minus, _rounding(plus, ratio_p, lam, t) + _rounding(minus, ratio_m, lam, t)
    if not deriv:
        return out
    # b = k phi' / sinh t, phi' = c(lambda) Psi'_lambda + c(-lambda) Psi'_-lambda
    k, amp = par._lift
    scale = k / np.cosh(t)
    b = scale * (cp * grad_p[0] + cm * grad_m[0])
    return (*out, b, abs(scale) * (abs(cp) * grad_p[1] + abs(cm) * grad_m[1]) + abs(b) * amp)


def _met(par, t, out, err):
    """The final check: true where the estimated error is within _PHI_RTOL
    of max(|phi|, e^{-(alpha+beta+1) t}), false at NaN."""
    bound = _EPS * err
    met = bound <= _PHI_RTOL * abs(out)
    if t.ndim == 0 and met:
        return met
    return met | (bound <= _PHI_RTOL * np.exp(-par._rho * t))


def _phi_unreachable(par, ts):
    ts = np.atleast_1d(ts)
    raise ArithmeticError(
        f"jacobi_phi({par}) cannot be evaluated to {_PHI_RTOL:g} at t = {ts.min():.6g}"
        + (f" .. {ts.max():.6g}" if ts.size > 1 else "")
        + ": neither the Pfaff series nor the connection formula is that accurate there")


def jacobi_psi(par, t, *, full_output=False):
    """Jacobi function of the second kind Psi_lambda^(alpha,beta)(t).

    Defined here for finite t >= 0.5 only (ValueError otherwise), where
    the series in -1/sinh^2(t) converges geometrically (ratio <=
    sech^2(0.5) ~ 0.79).  Behaves as e^((i lambda - alpha - beta - 1) t)
    (1 + O(e^(-2t))) for large t.  With full_output, also returns the
    series' term counts and cancellation ratios, as hyp2f1_negz does.
    A t of one element takes the one-point route, as in jacobi_phi.
    """
    ts, shape = _one_point(t, "jacobi_psi", "t")
    if _any(ts < _PSI_T_MIN):
        raise ValueError("jacobi_psi requires t >= 0.5")
    _check_lambda_regular(par.lam, "jacobi_psi")
    out, nterms, ratio = _psi_series(par, ts)
    if ts.ndim == 0:
        out, nterms, ratio = _shaped(shape, out, nterms, ratio)
    return (out, nterms, ratio) if full_output else out


def _psi_series(par, t, deriv=False):
    """(Psi, term counts, cancellation ratios) of jacobi_psi at checked t:
    a NumPy float or a float array, all >= 0.5.  With deriv, also
    Psi'(t) / tanh t and its estimated error over machine epsilon:
    Psi = (2 sinh t)^e coth^-2A(t) S(sech^2 t), e = i lambda - rho = -2A,
    has Psi' / tanh t = (2 sinh t)^e g, g from _pfaff with slope -2 sech^2 t."""
    sh = np.sinh(t)
    z = -1.0 / np.square(sh)
    got = _pfaff(par._series[1], z, -2.0 * z / (z - 1.0) if deriv else None)
    exponent = 1j * complex(par.lam) - complex(par.alpha) - complex(par.beta) - 1.0
    power = (2.0 * sh) ** exponent
    psi = _times(power, got[0])
    if not deriv:
        return psi, got[1], got[2]
    grad = power * got[3]
    return psi, got[1], got[2], grad, abs(power) * got[4] + abs(grad) * abs(complex(par.lam)) * t


def c_jacobi(alpha, beta, lam):
    """Harish-Chandra c-function of Jacobi analysis.

    c(lambda) = 2^(-i lam + a + b + 1) Gamma(a+1) Gamma(i lam)
                / [Gamma((i lam + a + b + 1)/2) Gamma((i lam + a - b + 1)/2)]

    The four Gammas are taken in log form in one call and combined
    before exponentiating.  Meromorphic in lambda with a pole at
    lambda = 0 coming from Gamma(i lambda); evaluation within 1e-6 of
    that pole, or at any other pole of the numerator (alpha + 1 or
    i lambda a negative integer), raises ValueError.  A pole of the
    denominator gives 0.
    """
    a = complex(alpha)
    b = complex(beta)
    lam = complex(lam)
    if abs(lam) < _LAMBDA_GUARD:
        raise ValueError(f"c-function pole at lambda = 0; got lambda = {lam}")
    il = 1j * lam
    lg = _log_gamma([a + 1.0, il, (il + a + b + 1.0) / 2.0, (il + a - b + 1.0) / 2.0])
    if np.isinf(lg[0]) or np.isinf(lg[1]):
        raise ValueError(f"c-function pole: Gamma(alpha + 1) or Gamma(i lambda) is infinite "
                         f"at alpha = {alpha!r}, lambda = {lam}")
    return complex(np.exp((-il + a + b + 1.0) * _LOG_2 + lg[0] + lg[1] - lg[2] - lg[3]))


@lru_cache(maxsize=None)
def gauss_legendre(order):
    """The order-point Gauss-Legendre nodes and weights on [-1, 1], bit
    for bit those of numpy.polynomial.legendre.leggauss(order), built on
    the first call for each order and returned read-only thereafter."""
    xs, ws = np.polynomial.legendre.leggauss(order)
    xs.flags.writeable = ws.flags.writeable = False
    return xs, ws
