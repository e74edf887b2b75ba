"""Ball-average functionals and quantitative limit verifiers.

The weak-type norm underlying everything here is the ball-averaged
square mean sup_R (1/R) int_{B(R)} ||f(g)||^2 d(gK).  For Poisson
images of boundary data the average over the rotation factor of the
Cartan coordinates collapses, by Schur orthogonality, to an exact
one-dimensional radial integral of

    (2 sinh t)^{n-1} sum_eta (d_eta/d_tau) |phi_eta(t)|^2,

so sweeps in the ball radius R are quadrature problems, not sampling
problems.  The module provides

  * ball averages of atomic Poisson images (exact 1D reduction at
    base point e, Monte Carlo over rotations otherwise),
  * the ball average of the two-term Weyl head in closed form, and the
    limit of every ball average, L_head = 1/(pi nu), with
    the two-sided norm-equivalence constant,
  * Hilbert-Schmidt ball averages of Eisenstein integrals,
  * boundary-value reconstruction F_R = r(R) F from a Poisson image at
    the same lambda, r(R) being pi nu times the Schur ball average of a
    unit vector (the pairing kernel's zonal quadrature is a test oracle
    in tests/oracles.py; a literal Monte Carlo mode exists for
    cross-checks at small R, and its variance grows like e^{(n-1)R},
    see the docstring),
  * ball-averaged residuals of the asymptotic head, and
  * the windowed energy capture of the spectral projections of a bump,
    in closed form at every (n, p) (the continuous spectrum only).

Every swept radial integral goes through one engine, _radial_sweep: a
composite G15/K31 Gauss-Kronrod rule on [0, max R] with a breakpoint at
each R of the grid and panels of at most half a period of
e^{2 i lambda t} and pi/2, the profile (a stack of them, one per kind)
evaluated once over the 31 nodes of each panel, and cumulative sums per
R.  The K31 sum is the value; the G15 sum on every other node must agree
with it to a relative 1e-10 at every R, or the sweep raises
ArithmeticError.  The bump's sweeps (bump_transform) grade their panels
toward r_supp, where chi is not analytic, and hold the trace to 1e-10 S.

A Schur ball average is swept only up to 2 R0, R0 = 20
(40 on the chirality bundles, whose residual decays like e^{-t}, not
e^{-2t}).  Past 2 R0 it is avg(R) = H(R) + C/R: H is the closed-form
average of the head, and C = S(2 R0) - 2 R0 H(2 R0) the converged
residual constant of the swept integral S.  The error of such a value
is the quadrature error at 2 R0 plus |C(2 R0) - C(R0)|, and it too must
stay within a relative 1e-10 of R avg(R), or the sweep raises
ArithmeticError; a head coefficient off by delta fails this check.
Grids within 2 R0 are swept whole.

Every ball average goes through one sweep, _ball_sweep, which picks the
route (schur_1d or mc_k) for all radii and kinds at once.  On the mc_k
route one set of Haar draws and one node layout (the same breakpoint
rule, at one order) serve the whole sweep: each R and each kind of
radial operator sees the same rotations.  The mc_k sweep and the
literal inversion sampler evaluate the image on their sheet of rotations
times radii through one _Sheet, where atoms at a rotation need no Cartan
step: Psi(k_a^T k a_t) = Psi(a_t) tau(k_a^T k)^T.
"""

from math import ceil, comb, expm1, isfinite, log, log2, pi, sqrt
from numbers import Integral

import numpy as np

from . import extrep as xr
from . import liegroup as lg
from .liegroup import radial_weight
from .specialfn import gauss_legendre
from .spherical import (CartanGeometry, SpectralPoint, component_grid,
                        head_components, plancherel_density, radial_kinds)
from .transforms import BoundarySection, gram_matrix

__all__ = [
    "BallAverageReport",
    "ball_average_atom",
    "strichartz_limit",
    "eisenstein_hs_limit",
    "inversion_reconstruct",
    "inversion_ratios",
    "asymptotic_residual_sweep",
    "head_ball_average",
    "bump_transform",
    "spectral_projection_energy",
    "section_norm2",
]

_DEFAULT_R_GRID = (12.5, 25.0, 50.0, 100.0, 200.0)


# ---------------------------------------------------------------------------
# report type


def _fit_grid(n, R_grid):
    """R_grid as a tuple of floats, refused unless it has at least 4
    radii, all positive, strictly increasing, and from R >= 1 on for even
    n (the parity split of the norm definition)."""
    R_grid = tuple(float(r) for r in R_grid)
    if len(R_grid) < 4:
        raise ValueError("R_grid too short: need at least 4 radii to fit")
    if not all(r > 0.0 for r in R_grid):
        raise ValueError("ball radii must be positive")
    if any(b <= a for a, b in zip(R_grid, R_grid[1:])):
        raise ValueError("R_grid must be strictly increasing")
    if n % 2 == 0 and R_grid[0] < 1.0:
        raise ValueError(f"R_grid starts below the n={n} cutoff")
    return R_grid


class BallAverageReport:
    """Sweep of ball averages (1/R) int_{B(R)} ||.||^2 with the closed-form
    R -> infinity limit of the Weyl head and the sweep's error estimate.

    The grid obeys the rules of _fit_grid.  `target` carries the
    analytic limit when the caller knows one, and `bound_constant` the
    empirical two-sided constant.
    """

    def __init__(self, n, R_grid, values, stderrs, extrapolated_limit,
                 method, stderr, target=None, bound_constant=None):
        R_grid = _fit_grid(n, R_grid)
        values = tuple(float(v) for v in values)
        stderrs = tuple(float(s) for s in stderrs)
        if len(R_grid) != len(values) or len(R_grid) != len(stderrs):
            raise ValueError("grid/value/stderr lengths disagree")
        if not all(np.isfinite(values)):
            raise ValueError("ball averages must be finite")
        if method not in ("schur_1d", "mc_k"):
            raise ValueError(f"unknown method {method!r}")
        self.n = int(n)
        self.R_grid = R_grid
        self.values = values
        self.stderrs = stderrs
        self.extrapolated_limit = float(extrapolated_limit)
        self.method = method
        self.stderr = float(stderr)
        self.target = None if target is None else float(target)
        self.bound_constant = None if bound_constant is None else float(bound_constant)

    def __repr__(self):
        return (f"BallAverageReport(limit={self.extrapolated_limit:.6g}, "
                f"method={self.method}, R=[{self.R_grid[0]:g}..{self.R_grid[-1]:g}])")


# ---------------------------------------------------------------------------
# quadrature helpers


def _osc_nodes(a, b, lam, rule, graded=False):
    """Composite nodes and weights on [a, b] of the rule (xs, ws) on
    [-1, 1] (ws one weight row, or a stack of rows on the same nodes)
    resolving oscillation at frequency ~2 lam: at least 4 panels, none
    wider than half a period of e^{2 i lam t}, nor than pi/2, the
    distance of the radial profiles' nearest complex singularities
    (sinh^2 t = -1 at Im t = +-pi/2), the last halved toward b down to b/128
    if graded (for the bump's chi, not analytic at b and below e^{-60} there)."""
    width = pi / (2.0 * max(abs(float(lam)), 1.0))
    panels = max(int(ceil((b - a) / width)), 4)
    edges = np.linspace(a, b, panels + 1)
    if graded:
        gap = edges[-1] - edges[-2]
        halves = 0.5 ** np.arange(1, max(int(ceil(log2(128.0 * gap / b))), 0) + 1)
        edges = np.concatenate((edges[:-1], b - gap * halves, [b]))
    xs, ws = rule
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * (edges[1:] - edges[:-1])
    nodes = (mid[:, None] + half[:, None] * xs[None, :]).ravel()
    weights = (half[:, None] * ws[..., None, :]).reshape(ws.shape[:-1] + (-1,))
    return nodes, weights


def _sweep_rule(ends, lam, rule, graded=None):
    """The composite rule (xs, ws) on [0, max ends] with a breakpoint at
    every end (ascending): each segment [ends[j-1], ends[j]] gets the
    panels of _osc_nodes (graded if it ends at `graded`).  Returns nodes,
    weights (one row per row of ws) and the segment index j of each node."""
    ends = np.asarray(ends, dtype=float)
    starts = np.concatenate(([0.0], ends[:-1]))
    rules = [_osc_nodes(a, b, lam, rule, graded=b == graded) for a, b in zip(starts, ends)]
    nodes = np.concatenate([ts for ts, _ in rules])
    weights = np.concatenate([ws for _, ws in rules], axis=-1)
    segs = np.concatenate([np.full(ts.size, j) for j, (ts, _) in enumerate(rules)])
    return nodes, weights, segs


# The Gauss-Kronrod pair G15/K31 of the radial sweep on [-1, 1] (QUADPACK's
# qk31): the 16 non-negative K31 nodes ascending and their weights, and the
# G15 weights of the Gauss nodes among them, every other node from 0 on.
# Computed in mpmath from the Stieltjes polynomial of P_15 and rounded to
# double; tests/test_strichartz.py recomputes them.
_K31_NODES = np.array([
    0.0, 0.1011420669187175, 0.20119409399743451, 0.29918000715316884,
    0.3941513470775634, 0.4850818636402397, 0.5709721726085388, 0.650996741297417,
    0.7244177313601701, 0.790418501442466, 0.8482065834104272, 0.8972645323440819,
    0.937273392400706, 0.9677390756791391, 0.9879925180204854, 0.9980022986933971])
_K31_WEIGHTS = np.array([
    0.10133000701479154, 0.10076984552387559, 0.09917359872179196, 0.09664272698362368,
    0.09312659817082532, 0.08856444305621176, 0.08308050282313302, 0.07684968075772038,
    0.06985412131872826, 0.06200956780067064, 0.05348152469092809, 0.04458975132476488,
    0.03534636079137585, 0.02546084732671532, 0.015007947329316122, 0.005377479872923349])
_G15_WEIGHTS = np.array([
    0.2025782419255613, 0.19843148532711158, 0.1861610000155622, 0.16626920581699392,
    0.13957067792615432, 0.10715922046717194, 0.07036604748810812, 0.03075324199611727])


def _g15_k31():
    """The 31 nodes ascending and the weight stack (K31, G15) on them; a
    Kronrod-only node has G15 weight 0."""
    gauss = np.zeros(_K31_NODES.size)
    gauss[::2] = _G15_WEIGHTS
    ws = np.array([_K31_WEIGHTS, gauss])
    return (np.concatenate((-_K31_NODES[:0:-1], _K31_NODES)),
            np.concatenate((ws[:, :0:-1], ws), axis=-1))


_G15_K31 = _g15_k31()
# the profile block size of the radial sweep (bounds the memory of one
# profile call) and its relative tolerance
_SWEEP_BLOCK = 2048
_SWEEP_RTOL = 1e-10
# Gauss-Legendre order of the Monte Carlo ball averages and of the
# literal inversion sampler
_MC_ORDER = 12
_MC_INVERSION_ORDER = 16


def _radial_sweep(profile, R_grid, lam, graded=None, gate=None):
    """int_0^R profile(t) dt for every R of R_grid, in one pass.

    One composite G15/K31 Gauss-Kronrod rule covers [0, max R]: every R
    is a breakpoint and panels are at most half a period of
    e^{2 i lam t} and pi/2 wide, with no cap on their number (it grows
    like lam R).  The vectorized profile is evaluated once over the 31
    nodes of each panel, in blocks of at most _SWEEP_BLOCK nodes, and
    both the K31 and the G15 panel sums (the Gauss nodes are every other
    Kronrod node, so they cost no extra evaluation) accumulate per R; a
    complex profile sums its real and imaginary parts apart.  The profile
    may return a stack (..., T) of integrands over the T nodes, each row
    summed on its own bins; panels grade toward `graded` (_sweep_rule).
    Returns (values, errors) of shape (..., len(R_grid)), the value being
    the K31 sum and the error |K31 - G15|; raises ArithmeticError when the
    profile is not finite or an error exceeds _SWEEP_RTOL of its value (of
    row gate[k]'s value for row k of a (K, T) stack, or nowhere if None),
    and ValueError unless every radius is positive and finite.
    """
    R_grid = np.asarray(R_grid, dtype=float)
    if R_grid.size == 0 or not np.all((R_grid > 0.0) & np.isfinite(R_grid)):
        raise ValueError("ball radii must be positive and finite")
    ends = np.sort(R_grid)
    nodes, weights, segs = _sweep_rule(ends, lam, _G15_K31, graded)
    sums = 0.0
    for lo in range(0, nodes.size, _SWEEP_BLOCK):
        sl = slice(lo, lo + _SWEEP_BLOCK)
        vals = profile(nodes[sl])
        # checked before weighting: the G15 weight 0 of a Kronrod-only
        # node would turn an infinite value into a NaN
        if not np.all(np.isfinite(vals)):
            raise ArithmeticError(
                f"radial profile not finite on [0, {ends[-1]:g}]")
        vals = vals[..., None, :] * weights[:, sl]
        rows = vals.shape[:-1]
        count = vals.size // vals.shape[-1]
        # row r of the (..., K31/G15) stack sums on bins r * ends.size + seg
        flat = (np.arange(count)[:, None] * ends.size + segs[sl]).ravel()
        sums = sums + np.bincount(flat, weights=vals.real.ravel(), minlength=count * ends.size)
        if np.iscomplexobj(vals):
            sums = sums + 1j * np.bincount(flat, weights=vals.imag.ravel(),
                                           minlength=count * ends.size)
    sums = np.cumsum(sums.reshape(rows + (ends.size,)), axis=-1)
    fine, coarse = sums[..., 0, :], sums[..., 1, :]
    err = np.abs(fine - coarse)
    # a row held nowhere (gate None) compares an error of 0 with any row
    gated = err if gate is None else np.where([[g is None] for g in gate], 0.0, err)
    bad = ~(gated <= _SWEEP_RTOL * np.abs(fine if gate is None else fine[[g or 0 for g in gate]]))
    if np.any(bad):
        *row, i = np.argwhere(bad)[0]
        raise ArithmeticError(
            f"radial quadrature to R={ends[i]:g} did not converge: G15/K31 give "
            f"{coarse[(*row, i)].item()!r} and {fine[(*row, i)].item()!r}")
    idx = np.searchsorted(ends, R_grid)
    return fine[..., idx], err[..., idx]


# ---------------------------------------------------------------------------
# Schur-reduced densities


def _dims_table(spec):
    d_tau = xr.dims(spec, xr.branching(spec)[0])[0]
    return d_tau, {eta: xr.dims(spec, eta)[1] for eta in xr.branching(spec)}


def _stable_weight(ts, n):
    """(2 sinh t)^{n-1} e^{-(n-1) t} = (1 - e^{-2t})^{n-1}, the radial
    density with its exponential growth factored off."""
    return (1.0 - np.exp(-2.0 * np.asarray(ts, dtype=float))) ** (n - 1)


def _rescale(vals, s):
    # two half-scalings keep e^{rho t} phi representable when either
    # factor alone would overflow or underflow
    return (vals * s) * s


def _weighted_square_profile(pt, ts, kind="spherical"):
    """Radial integrand w(t) sum_eta (d_eta/d_tau) |psi_eta(t)|^2 (the
    rotation average of a Poisson image at a unit vector) in the stable
    form (1-e^{-2t})^{n-1} sum (d_eta/d_tau) |e^{rho t} psi_eta|^2.

    kind picks psi as in spherical.radial_kinds: the spherical
    components, the two-term head, or their difference.  A tuple of
    kinds gives the stack (len(kind), T) from one component grid."""
    ts = np.asarray(ts, dtype=float)
    d_tau, d_eta = _dims_table(pt.spec)
    s = np.exp(0.5 * pt.rho * ts)
    weight = _stable_weight(ts, pt.n)
    rows = []
    for grid in radial_kinds(pt, ts, (kind,) if isinstance(kind, str) else kind):
        out = np.zeros(ts.shape)
        for eta, vals in grid.items():
            out = out + d_eta[eta] / d_tau * np.abs(_rescale(vals, s)) ** 2
        rows.append(weight * out)
    return rows[0] if isinstance(kind, str) else np.stack(rows)


def _is_identity_atom(atom):
    k = lg.rotation_block(atom.g)
    return k is not None and float(np.max(np.abs(k - np.eye(k.shape[-1])))) <= 1e-12


def _atom_list(section):
    if not section.is_atomic:
        raise ValueError("sampler sections are rejected: ball averages "
                         "need closed-form Poisson images")
    return section.atoms


def section_norm2(section):
    """||F||^2 in L^2(K, sigma) of an atomic section, via the Gram
    matrix of its atoms."""
    atoms = _atom_list(section)
    gm = gram_matrix(section.pt, [a for a, _ in atoms])
    w = np.array([c for _, c in atoms], dtype=complex)
    val = w @ gm @ w.conj()
    return float(np.real(val))


# ---------------------------------------------------------------------------
# ball averages


def _base_point_norm2(atoms):
    """||sum_i w_i v_i||^2 when every atom sits at the base point (the
    Schur-reducible case), else None."""
    if not all(_is_identity_atom(a) for a, _ in atoms):
        return None
    v_eff = sum(w * a.v.coeffs for a, w in atoms)
    return float(np.real(np.vdot(v_eff, v_eff)))


# Past 2 R0 a Schur ball average is its closed-form head part plus a
# converged constant over R: w (|Phi|^2 - |head|^2) and w |Phi - head|^2
# decay like e^{-2t}, and like e^{-t} on the chirality bundles, whose
# component is phi_{2 lambda}(t/2)
_R0 = 20.0
_R0_CHIRAL = 40.0


def _head_integrals(omegas, n, R):
    """A(R), the average of (1 - e^{-2t})^{n-1} over [0, R], and I(w, R) - A(R)
    for each nonzero w of omegas, I(w, R) the average of
    e^{i w t} (1 - e^{-2t})^{n-1}, on an array of finite R > 0 (else ValueError).

    The binomial expansion of (1 - e^{-2t})^{n-1} has terms of total size
    about 2^{n-1} that cancel down to R A(R) at small R.  Below R = 2 the
    series in S = 1 - e^{-2R}, R A = (1/2) sum_j S^{n+j} / (n+j) and R (I - A)
    the same with d_j = (1 + i w/2)_j / j! - 1 in each term, cancel only
    through d_j - d_{j-1} = r_{j-1} i w / (2 j), r_j = (1 + i w/2)_j / j!, of
    size up to g = sqrt(sinh(pi w/2) / (pi w/2)); they run until
    g S^j < 2^-56 (g < e^700).  At each radius the form of smaller summed
    term size serves A and every I - A, which the head average cancels
    against each other; ArithmeticError where eps times that size exceeds
    1e-10 R A(R) (large w at small R)."""
    R = np.asarray(R, dtype=float)
    if not np.all(np.isfinite(R) & (R > 0.0)):
        raise ValueError(f"the head integrals require finite R > 0; got R = {R!r}")
    radii = R.reshape(-1)
    half = 0.5 * np.asarray(omegas, dtype=float).reshape(-1, 1)
    m = np.arange(n)
    coef = np.array([comb(n - 1, k) * (-1.0) ** k for k in m])
    a = 2j * half - 2.0 * m
    # int_0^R e^{at} dt at a = -2m (R itself at m = 0) and at a = i w - 2m
    flat = np.where(m > 0, -np.expm1(-2.0 * np.multiply.outer(radii, m)) / np.maximum(2 * m, 1),
                    radii[:, None]) * coef
    wave = np.expm1(np.multiply.outer(radii, a)) / a * coef
    size = np.sum(np.abs(flat), axis=-1) + np.sum(np.abs(wave), axis=(-2, -1))
    ramp = np.sum(flat, axis=-1) / radii
    wave = np.sum(wave, axis=-1) / radii[:, None] - ramp[:, None]
    x = pi * np.max(np.abs(half), initial=0.0)
    log_g = 0.5 * (x + log(-expm1(-2.0 * x)) - log(2.0 * x)) if x > 0.0 else 0.0
    for i in np.flatnonzero(radii < 2.0) if log_g < 700.0 else ():
        S = -expm1(-2.0 * radii[i])
        j = np.arange(1, int(ceil((56.0 * log(2.0) + log_g) / -log(S))) + 1)
        r = np.cumprod(np.concatenate((np.ones_like(half), 1.0 + 1j * half / j[:-1]), -1), -1)
        steps = np.concatenate((np.zeros_like(half), r * 1j * half / j), axis=-1)  # d_0 = 0
        k = n + np.concatenate(([0], j))
        powers = 0.5 * S ** k / k
        series = np.sum(powers * (1.0 + np.sum(np.cumsum(np.abs(steps), axis=-1), axis=0)))
        if series < size[i]:
            size[i], ramp[i] = series, np.sum(powers) / radii[i]
            wave[i] = np.sum(powers * np.cumsum(steps, axis=-1), axis=-1) / radii[i]
    bad = np.flatnonzero(~(np.finfo(float).eps * size <= 1e-10 * radii * ramp))
    if bad.size:
        raise ArithmeticError(f"the head integrals at R = {radii[bad[0]]:g} and frequency "
                              f"{2.0 * x / pi:g} cancel past 1e-10 of their value")
    return ramp.reshape(R.shape), wave.T.reshape(half.shape[:1] + R.shape)


def _head_weights(pt):
    """{w: k_w} with w(t) sum_eta (d_eta/d_tau) |head_eta|^2 =
    (1 - e^{-2t})^{n-1} sum_w k_w e^{i w t}: head terms (s lambda, B_s, c_s)
    and (t lambda, B_t, c_t) add c_s conj(c_t) sum_{B_s & B_t} d_eta/d_tau
    at w = (s - t) lambda.  k_0 = L_head = 1 / (pi nu), the limit of any
    ball average per |v|^2."""
    if not np.isreal(pt.lam):
        raise ValueError("the head average requires real lambda")
    d_tau, d_eta = _dims_table(pt.spec)
    weights = {}
    for lam_s, blocks_s, c_s in pt.head_terms:
        for lam_t, blocks_t, c_t in pt.head_terms:
            dims = sum(d_eta[eta] / d_tau for eta in set(blocks_s) & set(blocks_t))
            w = (lam_s - lam_t).real
            weights[w] = weights.get(w, 0.0) + c_s * np.conj(c_t) * dims
    return weights


def _head_average(pt, R):
    """H(R) = (1/R) int_0^R w(t) sum_eta (d_eta/d_tau) |head_eta|^2 dt
    = sum_w k_w I(w, R) (_head_weights, _head_integrals) on an array of
    finite R > 0.  The waves nearly cancel at small lambda R, so H is
    h0 A + sum_w k_w (I(w) - A), h0 = sum_w k_w taken as the square of
    the head at t = 0."""
    weights = _head_weights(pt)
    d_tau, d_eta = _dims_table(pt.spec)
    h = head_components(pt, 0.0)
    at_zero = sum(d_eta[eta] / d_tau * h[eta] * np.conj(h[eta]) for eta in d_eta)
    omegas = [w for w in weights if w != 0.0]
    ramp, waves = _head_integrals(omegas, pt.n, R)
    total = at_zero * ramp + sum(weights[w] * wave for w, wave in zip(omegas, waves))
    return np.real(total)


def _schur_sweep(pt, R_grid, vnorm2=1.0, kinds=("spherical",)):
    """Exact ball averages (1/R) int_0^R of the weighted square profile of
    each kind times vnorm2, with their error estimates, shape (len(kinds),
    len(R_grid)), from one _radial_sweep of their stacked profile; it
    stops at 2 R0 when the grid goes past it (_extend_past)."""
    R_grid = np.asarray(R_grid, dtype=float)
    r0 = _R0_CHIRAL if pt.spec.chirality != "none" else _R0
    far = bool(np.any(R_grid > 2.0 * r0))
    # a sorted set, not np.unique, whose first call imports numpy.ma
    ends = (np.array(sorted({*R_grid[R_grid <= 2.0 * r0].tolist(), r0, 2.0 * r0}))
            if far else R_grid)
    sums, errs = _radial_sweep(
        lambda ts: _weighted_square_profile(pt, ts, kind=kinds), ends, abs(pt.lam_real))
    if far:
        sums, errs = _extend_past(pt, kinds, r0, ends, sums, errs, R_grid)
    return sums / R_grid * vnorm2, errs / R_grid * vnorm2


def _extend_past(pt, kinds, r0, ends, sums, errs, R_grid):
    """The integrals R avg(R) of each kind on R_grid, with their errors,
    from a sweep (sums, errs) over `ends` (the radii of R_grid up to 2 r0,
    r0 and 2 r0).  Past 2 r0 it is R h(R) + C, h being _head_average for
    the spherical kind and 0 for the residual, C = S(2 r0) - 2 r0 h(2 r0);
    its error, the quadrature error at 2 r0 plus |C - (S(r0) - r0 h(r0))|,
    raises ArithmeticError past _SWEEP_RTOL of |R avg(R)|: a head off by
    delta leaves a gap of about delta r0."""
    far = R_grid > 2.0 * r0
    radii = np.concatenate(([r0, 2.0 * r0], R_grid[far]))
    head = _head_average(pt, radii) * radii
    part = np.array([head if kind == "spherical" else np.zeros_like(radii) for kind in kinds])
    i1, i2 = np.searchsorted(ends, [r0, 2.0 * r0])
    const = sums[:, i2] - part[:, 1]
    gap = np.abs(const - (sums[:, i1] - part[:, 0]))
    at = np.searchsorted(ends, np.where(far, 2.0 * r0, R_grid))
    vals, out_errs = sums[:, at], errs[:, at]
    vals[:, far] = part[:, 2:] + const[:, None]
    out_errs[:, far] = (errs[:, i2] + gap)[:, None]
    bad = far & ~(out_errs <= _SWEEP_RTOL * np.abs(vals))
    if np.any(bad):
        row, j = np.argwhere(bad)[0]
        raise ArithmeticError(
            f"ball average to R={R_grid[j]:g} did not converge: the residual constant "
            f"from [0, {r0:g}] and from [0, {2.0 * r0:g}] differ by {gap[row]!r}")
    return vals, out_errs


class _Sheet:
    """The Poisson image sum_a w_a Psi(g_a^{-1} k a_t) v_a of an atom list
    on the sheet of K rotations k (embedded, kemb) times radii t.

    An atom at a rotation k_a (liegroup.rotation_block) needs no Cartan
    step: tau-radiality gives Psi(k_a^T k a_t) = Psi(a_t) tau(k_a^T k)^T with
    Psi(a_t) = sum_eta psi_eta(t) P_eta, so all such atoms fold into one
    (K, C) array u = sum_a w_a tau(k_a^T k)^T v_a (the section's
    rotation_fold), and the sheet is u (sum_eta psi_eta(t) P_eta^T) at each t:
    one component grid over the radii and no per-(t, k) matrices.
    Other atoms keep the CartanGeometry of g_a^{-1} k a_t, formed in
    slabs of whole t-nodes.
    """

    __slots__ = ("pt", "size", "u", "left")

    def __init__(self, pt, section, kemb):
        self.pt, self.size = pt, kemb.shape[0]
        u, rest = section.rotation_fold(kemb[:, :-1, :-1])
        self.u = u if len(rest) < len(section.atoms) else None
        self.left = [(a.g.inv().mat @ kemb, w, a.v.coeffs) for a, w in rest]

    def values(self, ts, kinds, nodes=None):
        """The sheet over radii ts for each kind of radial operator
        (spherical.radial_kinds): shape (len(kinds), T, K, C).  The
        Cartan geometry of the other atoms is formed over `nodes` t-nodes
        at a time (all of ts when None)."""
        pt, spec = self.pt, self.pt.spec
        ts = np.asarray(ts, dtype=float)
        out = np.zeros((len(kinds), ts.size, self.size, spec.dim_full), dtype=complex)
        if self.u is not None:
            for kind_vals, comps in zip(out, radial_kinds(pt, ts, kinds)):
                proj_t = np.stack([xr.proj_matrix(spec, eta).T for eta in comps])
                ops = np.tensordot(np.stack(list(comps.values()), axis=-1), proj_t, axes=1)
                np.matmul(self.u, ops, out=kind_vals)
        nodes = max(ts.size, 1) if nodes is None else nodes
        for start in range(0, ts.size if self.left else 0, nodes):
            sl = slice(start, start + nodes)
            at = lg.at_mats(ts[sl], pt.n)
            # one Cartan geometry and one component grid per atom serve every kind
            for gk, w, v in self.left:
                geo = CartanGeometry(gk[None] @ at[:, None], pt.p)
                for kind_vals, comps in zip(out[:, sl], radial_kinds(pt, geo.t, kinds)):
                    kind_vals += w * geo.apply(spec, comps, v)
        return out


def _ball_sweep(pt, section, R_grid, kinds=("spherical",), k_samples=4096, rng=None):
    """Ball averages (1/R) int_{B(R)} ||Psi F(g)||^2 d(gK) of an atomic
    section F for every R of R_grid and every kind of radial operator
    Psi (spherical.radial_kinds), with their error estimates.

    Sections whose atoms all sit at the identity reduce to the exact
    radial integral of the Schur profile, one _schur_sweep for every kind
    (method schur_1d).  Otherwise the rotation factor is sampled (method
    mc_k): k_samples Haar rotations are drawn once, first, and serve
    every R and every kind, on the _sweep_rule of Gauss-Legendre order
    _MC_ORDER with a breakpoint at each R; per-draw sums are kept per
    segment and summed cumulatively.  The image on the sampled sheet
    k a_t comes from one _Sheet, in slabs of whole t-nodes.  A value
    differs from the one-radius value on the same draws only by the
    change of node layout: rounding for the smooth spherical kind, the
    t-quadrature error for the residual and head, which are not smooth on
    G at the identity.  For the residual that error, measured at up to
    2e-5 relative, is a bias which the stderrs (Monte Carlo error only)
    leave out.  Returns (values, stderrs, method), the arrays of shape
    (len(kinds), len(R_grid)).
    """
    atoms = _atom_list(section)
    R_grid = np.asarray(R_grid, dtype=float)
    if R_grid.size == 0 or not np.all((R_grid > 0.0) & np.isfinite(R_grid)):
        raise ValueError("ball radii must be positive and finite")
    vnorm2 = _base_point_norm2(atoms)
    if vnorm2 is not None:
        return (*_schur_sweep(pt, R_grid, vnorm2, kinds=kinds), "schur_1d")

    if rng is None:
        rng = np.random.default_rng(0)
    n = pt.n
    sheet = _Sheet(pt, section, lg.embed_rotation(lg.haar_sample_K(n, size=k_samples, rng=rng)))
    ends = np.sort(R_grid)
    ts, ws, segs = _sweep_rule(ends, pt.lam_real if np.isreal(pt.lam) else 1.0,
                               gauss_legendre(_MC_ORDER))
    per_seg = np.zeros((len(kinds), ends.size, k_samples))
    # whole t-nodes of k_samples group matrices per slab, at least one, and
    # at most 65536 matrices and 2^20 entries per Lambda^p stack
    chunk = max(1, min(65536, 2 ** 20 // pt.spec.dim_full ** 2) // max(k_samples, 1))
    for start in range(0, ts.size, chunk):
        sl = slice(start, start + chunk)
        tsl, wsl, ssl = ts[sl], ws[sl] * radial_weight(ts[sl], n), segs[sl]
        sq = np.sum(np.abs(sheet.values(tsl, kinds)) ** 2, axis=-1)
        # the sorted segment indices; np.unique would import numpy.ma
        for seg in sorted(set(ssl.tolist())):
            mask = ssl == seg
            per_seg[:, seg] += wsl[mask] @ sq[:, mask]
    per_k = np.cumsum(per_seg, axis=1)[:, np.searchsorted(ends, R_grid)]
    per_k /= R_grid[:, None]
    values = per_k.mean(axis=-1)
    stderrs = (per_k.std(ddof=1, axis=-1) / sqrt(k_samples) if k_samples > 1
               else np.zeros_like(values))
    return values, stderrs, "mc_k"


def ball_average_atom(pt, section, R, k_samples=4096, rng=None):
    """(1/R) int_{B(R)} ||P F(g)||^2 d(gK) for an atomic section F.

    Sections whose atoms all sit at the identity reduce to the exact
    radial integral of the Schur profile; otherwise the rotation factor
    is sampled (method mc_k).  The one-radius form of the sweep in
    strichartz_limit.
    """
    values, _, _ = _ball_sweep(pt, section, [R], k_samples=k_samples, rng=rng)
    return float(values[0, 0])


def strichartz_limit(pt, section, R_grid=None, k_samples=4096, rng=None):
    """Ball-average sweep of a Poisson image with its R -> infinity limit
    L_head ||F||^2 (L_head the head's weight at frequency 0, _head_weights),
    against the target (1/pi) nu_sigma(lambda)^{-1} ||F||^2.

    stderr is the sweep's own error estimate.  The report also carries
    the empirical constant of the two-sided comparison of the sweep
    supremum (the weak-norm estimate) with nu_sigma(lambda)^{-1/2} ||F||.
    On the mc_k route stderr is Monte Carlo error only, complete for this
    spherical kind; the residual kind (asymptotic_residual_sweep) carries
    a t-quadrature bias of up to 2e-5 relative, which its stderr leaves out.
    """
    R_grid = _fit_grid(pt.n, _DEFAULT_R_GRID if R_grid is None else R_grid)
    (values,), (stderrs,), method = _ball_sweep(pt, section, R_grid,
                                                k_samples=k_samples, rng=rng)
    norm_f2 = section_norm2(section)
    nu = plancherel_density(pt)
    target = norm_f2 / (pi * nu)
    ratio = sqrt(max(values) * nu / norm_f2) if norm_f2 > 0 else float("inf")
    bound_c = max(ratio, 1.0 / ratio) if norm_f2 > 0 else float("inf")
    return BallAverageReport(pt.n, R_grid, values, stderrs, _head_weights(pt)[0.0].real * norm_f2,
                             method, max(stderrs), target=target, bound_constant=bound_c)


def eisenstein_hs_limit(pt, R_grid=None):
    """Ball averages of the squared Hilbert-Schmidt norm of the
    Eisenstein integral at delta = tau.

    Phi_{lambda,tau} = d_{tau,sigma}^{-1/2} Phi^tau_{sigma,lambda}, and
    radial invariance of the HS norm gives the exact profile
    (d_sigma/d_tau) sum_eta d_eta |phi_eta(t)|^2.  Its limit is
    L_head d_sigma (strichartz_limit), against the target
    (d_sigma/pi) nu_sigma(lambda)^{-1}; stderr is the sweep's own.
    """
    R_grid = _fit_grid(pt.n, _DEFAULT_R_GRID if R_grid is None else R_grid)
    # (d_sigma/d_tau) d_eta = d_sigma (d_eta/d_tau): the Schur profile at |v|^2 = d_sigma
    d_sigma = xr.dims(pt.spec, pt.sigma)[1]
    (values,), (stderrs,) = _schur_sweep(pt, R_grid, vnorm2=d_sigma)
    target = d_sigma / (pi * plancherel_density(pt))
    return BallAverageReport(pt.n, R_grid, values, stderrs, _head_weights(pt)[0.0].real * d_sigma,
                             "schur_1d", max(stderrs), target=target)


# ---------------------------------------------------------------------------
# inversion: boundary values from ball averages of the dual pairing


def inversion_ratios(pt, R):
    """Per-block scalars r_{eta'}(R) of the reduced reconstruction, as
    complex values at a radius R, or as complex arrays over an array of
    radii R, from one sweep: F_R = r(R) F for atomic data, with
    r(R) -> 1 as R grows.

    The rotation integral of the pairing kernel is the conjugate of the
    output block's own spherical components,
    j_{eta',eta}(t) = (d_eta/d_tau) conj phi^{(eta', lambda)}_eta(t)
    (pinned against the zonal quadrature of tests/oracles.py), and every
    block pairs to the square profile of sigma (the odd parts of sigma_p's
    two blocks cancel), so each r_{eta'}(R) is the same r(R): pi nu times
    the Schur ball average of a unit vector.  Raises ArithmeticError where
    the sweep's two orders disagree.
    """
    radii = np.asarray(R, dtype=float)
    r = pi * plancherel_density(pt) * _schur_sweep(pt, radii.reshape(-1))[0][0]
    blocks = xr.sigma_blocks(pt.spec, pt.sigma)
    if radii.ndim == 0:
        return {b: complex(r[0]) for b in blocks}
    return {b: r.astype(complex).reshape(radii.shape) for b in blocks}


def inversion_reconstruct(pt, section, R, samples=1000000, method="reduced", rng=None,
                          mc_k1=20000):
    """Boundary value F_R(k) = pi nu (1/R) int_{B(R)} e(k^{-1}g) f(g)
    of the Poisson image f of an atomic section, as a sampled section,
    at one radius R (ValueError for anything but one finite R > 0).

    reduced: the rotation factor of the ball integral is averaged in
    closed form (Schur), leaving a radial quadrature; exact up to an
    O((1+dist(g_i))/R) ball-shift bias for atoms away from the base
    point.  The section is r(R) F, r the one ratio of inversion_ratios.
    mc: literal Monte Carlo over the rotation factor with mc_k1
    samples; its variance scales like e^{(n-1)R}/mc_k1, so it is only
    meaningful for small R; it refuses (ValueError) an mc_k1 that is not
    a positive integer.  The Poisson image on the sheet k1 a_t comes from
    _Sheet: atoms at a rotation k_a by Phi(k_a^T k1 a_t) = Phi(a_t)
    tau(k_a^T k1)^T, one component grid over the t-nodes and one
    extrep.tau_vec_batch over the k1, others by the Cartan decomposition
    in slabs of one t-node.  Each evaluation rotation k forms every
    r = k1^T k at once, sample-major; at each t-node
    liegroup.iwasawa_translates reads the Iwasawa step of a_{-t} r off
    a_t and r by one matrix product, tau_vec_batch pairs tau(kappa)^T
    with the image, and one complex weight e^{(i lambda - rho) H} per
    sample sums it; P_sigma, linear, is applied once after the node sum.
    `samples` is the evaluation budget of the returned section.
    """
    _atom_list(section)  # refuses a sampler section
    if np.ndim(R) != 0 or not (isfinite(R) and R > 0.0):
        raise ValueError(f"ball radii must be positive and finite: inversion_reconstruct "
                         f"takes one radius, got R = {R!r}")
    R = float(R)
    if method == "reduced":
        # every block of sigma has the same ratio
        r = next(iter(inversion_ratios(pt, R).values()))
        return BoundarySection.from_sampler(pt, lambda kmats: r * section.eval_batch(kmats),
                                            budget=samples)

    if method != "mc":
        raise ValueError(f"unknown reconstruction method {method!r}")
    if isinstance(mc_k1, bool) or not isinstance(mc_k1, Integral) or mc_k1 < 1:
        raise ValueError(f"mc_k1 must be a positive integer, got {mc_k1!r}")
    if rng is None:
        rng = np.random.default_rng(0)
    n, p = pt.n, pt.p
    k1 = lg.haar_sample_K(n, size=mc_k1, rng=rng)
    ts, ws, _ = _sweep_rule([R], abs(pt.lam_real), gauss_legendre(_MC_INVERSION_ORDER))
    # Poisson image on the sample sheet k1 a_t; the Cartan step of an atom
    # away from the base point takes one t-node of mc_k1 matrices at a time,
    # so its temporaries stay below those of fvals
    fvals = _Sheet(pt, section, lg.embed_rotation(k1)).values(ts, ("spherical",), nodes=1)[0]
    # the node weight, the kernel's sqrt(d_{tau,sigma}) and the 1/mc_k1 of the mean
    coef = (ws * radial_weight(ts, n) * pi * plancherel_density(pt) / R
            * sqrt(xr.dims(pt.spec, pt.sigma)[2]) / mc_k1)
    proj = xr.proj_matrix(pt.spec, pt.sigma)
    k1_cols = np.ascontiguousarray(k1.transpose(1, 2, 0))  # [a, i, s] = k1_s[a, i]
    boosts = [lg.at_mats(t, n) for t in ts]

    def sampler(kmats):
        kmats = np.asarray(kmats, dtype=float)
        if kmats.ndim == 2:
            kmats = kmats[None]
        out = np.zeros((kmats.shape[0], pt.spec.dim_full), dtype=complex)
        for bi, k in enumerate(kmats):
            # r_s = k1_s^T k as (i, j, s), from the tensordot's [j, i, s] once per k
            rots = np.ascontiguousarray(np.tensordot(k, k1_cols, axes=(0, 0)).transpose(1, 0, 2))
            acc = np.zeros(pt.spec.dim_full, dtype=complex)
            for i, boost in enumerate(boosts):
                # e(k^{-1} k1 a_t) is the dual kernel at a_{-t} k1^{-1} k:
                # e^{(i lambda - rho) H} tau(kappa)^T, and P_sigma after the node sum
                h, _, kappa = lg.iwasawa_translates(boost, rots)
                vals = xr.tau_vec_batch(kappa.transpose(2, 1, 0), p, fvals[i])
                acc += (coef[i] * np.exp((1j * pt.lam_real - pt.rho) * h)) @ vals
            out[bi] = proj @ acc
        return out

    return BoundarySection.from_sampler(pt, sampler, budget=samples)


# ---------------------------------------------------------------------------
# asymptotic residual sweeps


def head_ball_average(pt, R, vnorm2=1.0):
    """Exact ball average H(R) of the squared two-term Weyl head applied
    to a vector of squared norm vnorm2, in closed form with no sweep
    (_head_average): L_head vnorm2 times A(R), plus the waves e^{+-2 i lambda t}
    where the two head terms' blocks meet.  Finite R > 0 and real lambda
    only; ArithmeticError where the closed form cancels (large lambda, small R)."""
    return float(_head_average(pt, [float(R)])[0] * vnorm2)


def asymptotic_residual_sweep(pt, atom, R_grid=(10.0, 20.0, 40.0),
                              k_samples=2000, rng=None):
    """Ball-averaged squared deviation between a Poisson image and its
    Weyl head, over growing radii.

    Returns rows (R, deviation, average, ratio, stderr); base-point
    atoms reduce exactly, translated atoms sample the rotation factor,
    the deviation and the average on the same draws.  The deviation
    must vanish as R grows (rate 1/R: the residual decays one
    exponential order below the head).  On the mc_k route stderr is the
    Monte Carlo error only: the residual is not smooth on G at the
    identity, and its order-12 t-quadrature error, measured at up to
    2e-5 relative, is left out.
    """
    section = BoundarySection.from_atoms(pt, [(atom, 1.0)])
    (devs, avgs), (errs, _), _ = _ball_sweep(pt, section, R_grid,
                                             kinds=("residual", "spherical"),
                                             k_samples=k_samples, rng=rng)
    rows = []
    for r, dev, err, avg in zip(R_grid, devs, errs, avgs):
        rows.append({"R": float(r), "deviation": float(dev),
                     "average": float(avg),
                     "ratio": float(dev / avg) if avg > 0 else float("inf"),
                     "stderr": float(err)})
    return rows


# ---------------------------------------------------------------------------
# spectral projection energy capture


def bump_transform(f, lam_grid, R=None, sigmas=None):
    """(b, ||f||^2, A) of the bump f at each real lambda of lam_grid (not
    empty) and sigma of sigmas (the branching when None), b and A shaped
    (lambdas, sigmas): b_sigma = sqrt(d_{tau,sigma}) int chi (1/d_tau) sum_eta
    d_eta phi_eta (2 sinh t)^{n-1} dt, A_sigma the Schur ball average at R
    (r_supp when None) of a unit vector.  One _radial_sweep per lambda,
    broken at r_supp and R (past 2 R0 as _schur_sweep) and graded toward
    r_supp, integrates chi^2 and per sigma the trace, its absolute scale S
    (|phi_eta| for phi_eta) and the Schur profile from one Jacobi pair;
    ArithmeticError where the trace misses 1e-10 S or another row 1e-10.
    The domain is the bumps whose (2 sinh r_supp)^{n-1} is a finite float,
    about r_supp (n-1) < 709.78: ValueError otherwise, before any sweep."""
    spec, r, lams = f.spec, f.r_supp, np.asarray(lam_grid, dtype=float).reshape(-1)
    R, sigmas = r if R is None else float(R), xr.branching(spec) if sigmas is None else sigmas
    if lams.size == 0:
        raise ValueError("bump_transform needs at least one lambda")
    with np.errstate(over="ignore"):
        if not np.isfinite(radial_weight(r, spec.n)):
            raise ValueError(f"bump radius {r:g} is outside the domain of bump_transform at "
                             f"n={spec.n}: (2 sinh r_supp)^(n-1) must be a finite float")
    r0 = _R0_CHIRAL if spec.chirality != "none" else _R0
    ends = sorted({r, R} if R <= 2.0 * r0 else {r, r0, 2.0 * r0})
    gate = [0] + [g and 3 * j + g for j in range(len(sigmas)) for g in (2, None, 3)]
    d_tau, d_eta = _dims_table(spec)

    def rows(ts, pts):
        chi_w = f.chi(ts) * radial_weight(np.minimum(ts, r), spec.n)
        w, s = _stable_weight(ts, spec.n), np.exp(0.25 * (spec.n - 1) * ts)
        out = [f.chi(ts) * chi_w]
        for comps in component_grid(pts[0], ts, sigmas) if pts else ():
            terms = [(d_eta[eta] / d_tau, v) for eta, v in comps.items()]
            out += [chi_w * sum(d * v.real for d, v in terms),
                    chi_w * sum(d * np.abs(v) for d, v in terms),
                    w * sum(d * np.abs(_rescale(v, s)) ** 2 for d, v in terms)]
        return np.stack(out)

    b, avgs = np.zeros((2, lams.size, len(sigmas)))
    for i, lam in enumerate(lams.tolist()):
        pts = [SpectralPoint(spec, sigma, lam) for sigma in sigmas]
        vals, errs = _radial_sweep(lambda ts: rows(ts, pts), ends, lam, graded=r, gate=gate)
        at_r = ends.index(r)
        b[i] = [sqrt(xr.dims(spec, sig)[2]) * v for sig, v in zip(sigmas, vals[1::3, at_r])]
        avgs[i] = vals[3::3, ends.index(R)] / R if R in ends else [_extend_past(
            pt, ("spherical",), r0, np.array(ends), vals[3 + 3 * j:4 + 3 * j],
            errs[3 + 3 * j:4 + 3 * j], np.array([R]))[0][0, 0] / R for j, pt in enumerate(pts)]
    return b, float(vals[0, at_r] * np.vdot(f.v0, f.v0).real), avgs


def spectral_projection_energy(f, lam_grid, R, g_samples=160, k_samples=800,
                               t_nodes=32, grid=24, rng=None, details=False):
    """Windowed energy capture of the spectral projections of the bump f,
    in closed form at every (n, p).  Since F f(lambda, k) = b_sigma(lambda)
    P_sigma tau(k)^T v0 (bump_transform),
    Q_{sigma,lambda} f = (nu b_sigma / sqrt(d_{tau,sigma})) Phi_{sigma,lambda}(.) v0,
    and (1/R) int_{B(R)} ||Q_{sigma,lambda} f||^2 is nu^2 |b_sigma|^2 / d_{tau,sigma}
    times the Schur ball average of Phi v0.  The capture, the trapezoid
    over lam_grid of the sum over sigma, holds the continuous spectrum
    only (at p = n/2 the discrete, harmonic, part is not in it); over the
    whole line, pi times its R -> infinity limit is ||f||^2 (all from one
    bump_transform).  With details=True also returns a dict: the fraction
    pi * capture / ||f||^2, rows {"lam", "energy", "per_sigma"}, norm_f2,
    window and R.  g_samples, k_samples, t_nodes, grid and rng are not
    read: they sized the Monte Carlo estimator that this closed form replaced.
    """
    lam_grid = np.asarray(sorted(float(l) for l in lam_grid), dtype=float)
    if lam_grid.size < 2:
        raise ValueError("need at least two window points")
    spec, R, vnorm2 = f.spec, float(R), float(np.vdot(f.v0, f.v0).real)
    b, norm_f2, avgs = bump_transform(f, lam_grid, R)
    rows = []
    for lam, b_lam, avg_lam in zip(lam_grid, b, avgs):
        per_sigma = {str(sigma): float(plancherel_density(SpectralPoint(spec, sigma, lam)) ** 2
                                       * b_s ** 2 / xr.dims(spec, sigma)[2] * avg * vnorm2)
                     for sigma, b_s, avg in zip(xr.branching(spec), b_lam, avg_lam)}
        rows.append({"lam": float(lam), "energy": sum(per_sigma.values()),
                     "per_sigma": per_sigma})
    captured = float(np.trapezoid([row["energy"] for row in rows], lam_grid))
    if not details:
        return captured
    return captured, {
        "fraction": pi * captured / norm_f2 if norm_f2 > 0.0 else 0.0,
        "rows": rows,
        "norm_f2": norm_f2,
        "window": (float(lam_grid[0]), float(lam_grid[-1])),
        "R": R,
    }
