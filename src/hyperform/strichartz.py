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
  * the ball average of the two-term Weyl head in closed form, paired or
    not, and the limit of every ball average, L_head = 1/(pi nu), with
    the two-sided norm-equivalence constant,
  * Hilbert-Schmidt ball averages of Eisenstein integrals,
  * boundary-value reconstruction F_R from a Poisson image, whose
    ratios are Schur ball averages paired with the conjugate spherical
    components of each output block's own point (the kernel's zonal
    quadrature is a test oracle in tests/oracles.py; a literal Monte
    Carlo mode exists for cross-checks at small R, and its variance
    grows like e^{(n-1)R}, see the docstring),
  * ball-averaged residuals of the asymptotic head, and
  * a windowed energy-capture diagnostic for the spectral projections.

Every swept radial integral goes through one engine, _radial_sweep: a
composite Gauss-Legendre rule on [0, max R] with a breakpoint at each R
of the grid and panels of at most a quarter period of e^{2 i lambda t},
the profile (a stack of them, one per kind) evaluated once over the
nodes of an order pair, and cumulative sums per R.  The two orders must
agree to a relative 1e-10 at every R, or the sweep raises
ArithmeticError.

A Schur ball average, paired or not, is swept only up to 2 R0, R0 = 20
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

from math import ceil, comb, expm1, isfinite, log, pi, sqrt
from numbers import Integral

import numpy as np

from . import extrep as xr
from . import liegroup as lg
from .liegroup import radial_weight
from .specialfn import gauss_legendre
from .spherical import (CartanGeometry, PoissonKernel, SpectralPoint, component_grid,
                        head_components, plancherel_density, radial_kinds)
from .transforms import BoundarySection, gram_matrix, radon_batch, sigma_part

__all__ = [
    "BallAverageReport",
    "ball_average_atom",
    "cross_term",
    "strichartz_limit",
    "eisenstein_hs_limit",
    "inversion_mix",
    "inversion_reconstruct",
    "inversion_ratios",
    "asymptotic_residual_sweep",
    "head_ball_average",
    "spectral_projection_energy",
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
    analytic limit when the caller knows one, `bstar_sup` the sweep
    supremum (the norm estimate), and `bound_constant` the empirical
    two-sided constant.
    """

    def __init__(self, n, R_grid, values, stderrs, extrapolated_limit,
                 method, stderr, target=None, bstar_sup=None,
                 bound_constant=None, norm_f2=None):
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
        self.bstar_sup = None if bstar_sup is None else float(bstar_sup)
        self.bound_constant = None if bound_constant is None else float(bound_constant)
        self.norm_f2 = None if norm_f2 is None else float(norm_f2)

    def __repr__(self):
        return (f"BallAverageReport(limit={self.extrapolated_limit:.6g}, "
                f"method={self.method}, R=[{self.R_grid[0]:g}..{self.R_grid[-1]:g}])")


# ---------------------------------------------------------------------------
# quadrature helpers


def _osc_nodes(a, b, lam, order):
    """Composite fixed Gauss-Legendre nodes resolving oscillation at
    frequency ~2 lam: at least 4 panels, none longer than a quarter
    period of e^{2 i lam t}."""
    width = pi / max(2.0 * abs(float(lam)), 0.5) / 2
    panels = max(int(ceil((b - a) / width)), 4)
    edges = np.linspace(a, b, panels + 1)
    xs, ws = gauss_legendre(order)
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * (edges[1:] - edges[:-1])
    nodes = (mid[:, None] + half[:, None] * xs[None, :]).ravel()
    weights = (half[:, None] * ws[None, :]).ravel()
    return nodes, weights


def _sweep_rule(ends, lam, order):
    """The composite Gauss-Legendre rule of one order on [0, max ends]
    with a breakpoint at every end (ascending): each segment
    [ends[j-1], ends[j]] gets the panels of _osc_nodes.  Returns nodes,
    weights and the segment index j of each node."""
    ends = np.asarray(ends, dtype=float)
    starts = np.concatenate(([0.0], ends[:-1]))
    rules = [_osc_nodes(a, b, lam, order=order) for a, b in zip(starts, ends)]
    nodes = np.concatenate([ts for ts, _ in rules])
    weights = np.concatenate([ws for _, ws in rules])
    segs = np.concatenate([np.full(ts.size, j) for j, (ts, _) in enumerate(rules)])
    return nodes, weights, segs


# Gauss-Legendre order pair of the radial sweep, its profile block size
# (bounds the memory of one profile call) and its relative tolerance
_SWEEP_ORDERS = (20, 30)
_SWEEP_BLOCK = 2048
_SWEEP_RTOL = 1e-10
# Gauss-Legendre order of the Monte Carlo ball averages and of the
# literal inversion sampler
_MC_ORDER = 12
_MC_INVERSION_ORDER = 16


def _radial_sweep(profile, R_grid, lam):
    """int_0^R profile(t) dt for every R of R_grid, in one pass.

    One composite Gauss-Legendre rule covers [0, max R]: every R is a
    breakpoint and panels are at most a quarter period of e^{2 i lam t}
    wide, with no cap on their number (it grows like lam R).  The
    vectorized profile is evaluated once over the nodes of both orders
    on the same panels, in blocks of at most _SWEEP_BLOCK nodes, and the
    panel sums accumulate per R; a complex profile sums its real and
    imaginary parts apart.  The profile may return a stack (..., T) of
    integrands over the T nodes, each row summed on its own bins.
    Returns (values, errors) of shape (..., len(R_grid)), the error being
    |fine - coarse|; raises ArithmeticError when a value is not finite
    or its error exceeds _SWEEP_RTOL of it.
    """
    R_grid = np.asarray(R_grid, dtype=float)
    if R_grid.size == 0 or not np.all(R_grid > 0.0):
        raise ValueError("ball radii must be positive")
    ends = np.sort(R_grid)
    rules = [_sweep_rule(ends, lam, order) for order in _SWEEP_ORDERS]
    nodes = np.concatenate([ts for ts, _, _ in rules])
    weights = np.concatenate([ws for _, ws, _ in rules])
    bins = np.concatenate([rank * ends.size + segs
                           for rank, (_, _, segs) in enumerate(rules)])
    width = len(_SWEEP_ORDERS) * ends.size
    sums = 0.0
    for lo in range(0, nodes.size, _SWEEP_BLOCK):
        sl = slice(lo, lo + _SWEEP_BLOCK)
        vals = weights[sl] * profile(nodes[sl])
        rows = vals.shape[:-1]
        count = vals.size // vals.shape[-1]
        # row r of the stack sums on bins r * width + bin
        flat = (np.arange(count)[:, None] * width + bins[sl]).ravel()
        sums = sums + np.bincount(flat, weights=vals.real.ravel(), minlength=count * width)
        if np.iscomplexobj(vals):
            sums = sums + 1j * np.bincount(flat, weights=vals.imag.ravel(),
                                           minlength=count * width)
    if not np.all(np.isfinite(sums)):
        raise ArithmeticError(
            f"radial profile not finite on [0, {ends[-1]:g}]")
    sums = np.cumsum(sums.reshape(rows + (len(_SWEEP_ORDERS), ends.size)), axis=-1)
    coarse, fine = sums[..., 0, :], sums[..., -1, :]
    err = np.abs(fine - coarse)
    bad = ~(err <= _SWEEP_RTOL * np.abs(fine))
    if np.any(bad):
        *row, i = np.argwhere(bad)[0]
        raise ArithmeticError(
            f"radial quadrature to R={ends[i]:g} did not converge: orders "
            f"{_SWEEP_ORDERS[0]}/{_SWEEP_ORDERS[-1]} give "
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


def _weighted_square_profile(pt, ts, kind="spherical", other=None):
    """Radial integrand w(t) sum_eta (d_eta/d_tau) |psi_eta(t)|^2 (the
    rotation average of a Poisson image at a unit vector) in the stable
    form (1-e^{-2t})^{n-1} sum (d_eta/d_tau) |e^{rho t} psi_eta|^2.

    kind picks psi as in spherical.radial_components: the spherical
    components, the two-term head, or their difference.  A tuple of
    kinds gives the stack (len(kind), T) from one component grid.  With
    `other`, a point of the same bundle, each square becomes the pairing
    psi_eta conj(phi^other_eta) with other's spherical components."""
    ts = np.asarray(ts, dtype=float)
    d_tau, d_eta = _dims_table(pt.spec)
    s = np.exp(0.5 * pt.rho * ts)
    weight = _stable_weight(ts, pt.n)
    pair = None if other is None else component_grid(other, ts)
    rows = []
    for grid in radial_kinds(pt, ts, (kind,) if isinstance(kind, str) else kind):
        out = np.zeros(ts.shape)
        for eta, vals in grid.items():
            vals = _rescale(vals, s)
            out = out + d_eta[eta] / d_tau * (
                np.abs(vals) ** 2 if pair is None else vals * np.conj(_rescale(pair[eta], s)))
        rows.append(weight * out)
    return rows[0] if isinstance(kind, str) else np.stack(rows)


def _rotation_block(g):
    """The rotation k of g = diag(k, 1) when the last row and column of
    g are e_n entrywise to 1e-12, else None.  Only the whole row and
    column pin the base point: g[n, n] = 1 + eps alone still allows a
    radius A+(g) of about sqrt(2 eps)."""
    mat = g.mat
    e_n = np.eye(mat.shape[-1])[-1]
    if max(np.max(np.abs(mat[-1] - e_n)), np.max(np.abs(mat[:, -1] - e_n))) > 1e-12:
        return None
    return mat[:-1, :-1]


def _is_identity_atom(atom):
    k = _rotation_block(atom.g)
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


def _head_weights(pt, other=None):
    """{w: k_w} with w(t) sum_eta (d_eta/d_tau) head_eta conj(head'_eta) =
    (1 - e^{-2t})^{n-1} sum_w k_w e^{i w t}, head' the head of `other` (pt's
    own when None): head terms (s lambda, B_s, c_s) and (s' mu, B'_s', c'_s')
    add c_s conj(c'_s') sum_{B_s & B'_s'} d_eta/d_tau at w = s lambda - s' mu.
    Unpaired, k_0 = L_head = 1 / (pi nu), the limit of any ball average per |v|^2."""
    other = other or pt
    if not (np.isreal(pt.lam) and np.isreal(other.lam)):
        raise ValueError("the head average requires real lambda")
    d_tau, d_eta = _dims_table(pt.spec)
    weights = {}
    for lam_s, blocks, c_s in pt.head_terms:
        for mu_s, blocks_o, c_o in other.head_terms:
            dims = sum(d_eta[eta] / d_tau for eta in set(blocks) & set(blocks_o))
            w = (lam_s - mu_s).real
            weights[w] = weights.get(w, 0.0) + c_s * np.conj(c_o) * dims
    return weights


def _head_average(pt, R, other=None):
    """H(R) = (1/R) int_0^R w(t) sum_eta (d_eta/d_tau) head_eta conj(head'_eta) dt
    = sum_w k_w I(w, R) (_head_weights, _head_integrals) on an array of
    finite R > 0: real unpaired, complex paired with `other`.  The waves
    nearly cancel at small lambda R, so H is h0 A + sum_w k_w (I(w) - A),
    h0 = sum_w k_w taken as the product of the heads at t = 0."""
    weights = _head_weights(pt, other)
    d_tau, d_eta = _dims_table(pt.spec)
    h, h_o = (head_components(q, 0.0) for q in (pt, other or pt))
    at_zero = sum(d_eta[eta] / d_tau * h[eta] * np.conj(h_o[eta]) for eta in d_eta)
    omegas = [w for w in weights if w != 0.0]
    ramp, waves = _head_integrals(omegas, pt.n, R)
    total = at_zero * ramp + sum(weights[w] * wave for w, wave in zip(omegas, waves))
    return np.real(total) if other is None else total


def _schur_sweep(pt, R_grid, vnorm2=1.0, kinds=("spherical",), other=None):
    """Exact ball averages (1/R) int_0^R of the weighted square profile of
    each kind (paired with `other`, when given: the spherical kind only)
    times vnorm2, with their error estimates, shape (len(kinds),
    len(R_grid)).  The head kind is _head_average.  The others share one
    _radial_sweep of their stacked profile, whose panels resolve the
    larger of the two frequencies; it stops at 2 R0 when the grid goes
    past it (_extend_past)."""
    R_grid = np.asarray(R_grid, dtype=float)
    lam = max(abs(q.lam_real) for q in (pt, other or pt))
    swept = tuple(kind for kind in kinds if kind != "head")
    rows = {}
    if swept:
        r0 = _R0_CHIRAL if pt.spec.chirality != "none" else _R0
        far = bool(np.any(R_grid > 2.0 * r0))
        # a sorted set, not np.unique, whose first call imports numpy.ma
        ends = (np.array(sorted({*R_grid[R_grid <= 2.0 * r0].tolist(), r0, 2.0 * r0}))
                if far else R_grid)
        sums, errs = _radial_sweep(
            lambda ts: _weighted_square_profile(pt, ts, kind=swept, other=other), ends, lam)
        if far:
            sums, errs = _extend_past(pt, swept, r0, ends, sums, errs, R_grid, other)
        rows.update(zip(swept, zip(sums, errs)))
    if "head" in kinds:
        rows["head"] = (_head_average(pt, R_grid) * R_grid, np.zeros(R_grid.size))
    sums, errs = (np.array([rows[kind][i] for kind in kinds]) for i in (0, 1))
    return sums / R_grid * vnorm2, errs / R_grid * vnorm2


def _extend_past(pt, kinds, r0, ends, sums, errs, R_grid, other=None):
    """The integrals R avg(R) of each kind on R_grid, with their errors,
    from a sweep (sums, errs) over `ends` (the radii of R_grid up to 2 r0,
    r0 and 2 r0).  Past 2 r0 it is R h(R) + C, h being _head_average (paired
    with `other` when given) for the spherical kind and 0 for the residual,
    C = S(2 r0) - 2 r0 h(2 r0); its error, the quadrature error at 2 r0 plus
    |C - (S(r0) - r0 h(r0))|, raises ArithmeticError past _SWEEP_RTOL of
    |R avg(R)|: a head off by delta leaves a gap of about delta r0."""
    far = R_grid > 2.0 * r0
    radii = np.concatenate(([r0, 2.0 * r0], R_grid[far]))
    head = _head_average(pt, radii, other) * radii
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

    An atom at a rotation k_a (_rotation_block) needs no Cartan step:
    tau-radiality gives Psi(k_a^T k a_t) = Psi(a_t) tau(k_a^T k)^T with
    Psi(a_t) = sum_eta psi_eta(t) P_eta, so all such atoms fold into one
    (K, C) array u = sum_a w_a tau(k_a^T k)^T v_a, one extrep.tau_vec_batch
    per atom, and the sheet is u (sum_eta psi_eta(t) P_eta^T) at each t:
    one component grid over the radii and no per-(t, k) matrices.
    Other atoms keep the CartanGeometry of g_a^{-1} k a_t, formed in
    slabs of whole t-nodes.
    """

    __slots__ = ("pt", "size", "u", "left")

    def __init__(self, pt, atoms, kemb):
        self.pt, self.size = pt, kemb.shape[0]
        self.u, self.left = None, []
        for a, w in atoms:
            k_a = _rotation_block(a.g)
            if k_a is None:
                self.left.append((a.g.inv().mat @ kemb, w, a.v.coeffs))
                continue
            rots_t = np.swapaxes(k_a.T @ kemb[:, :-1, :-1], -1, -2)
            term = w * xr.tau_vec_batch(rots_t, pt.p, a.v.coeffs)
            self.u = term if self.u is None else self.u + term

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
    Psi (spherical.radial_components), with their error estimates.

    Sections whose atoms all sit at the identity reduce to the exact
    radial integral of the Schur profile, one _schur_sweep for every kind
    (method schur_1d).  Otherwise the rotation factor is sampled (method
    mc_k): k_samples Haar rotations are drawn once, first, and serve
    every R and every kind, on the order-_MC_ORDER _sweep_rule with a
    breakpoint at each R; per-draw sums are kept per segment and summed
    cumulatively.  The image on the sampled sheet k a_t comes from one
    _Sheet, in slabs of whole t-nodes.  A value differs from the
    one-radius value on the same draws only by the change of node
    layout: rounding for the smooth spherical kind, the t-quadrature
    error for the residual and head, which are not smooth on G at the
    identity.  For the residual that error, measured at up to 2e-5
    relative, is a bias which the stderrs (Monte Carlo error only) leave
    out.  Returns (values, stderrs, method), the arrays of shape
    (len(kinds), len(R_grid)).
    """
    atoms = _atom_list(section)
    R_grid = np.asarray(R_grid, dtype=float)
    if R_grid.size == 0 or not np.all(R_grid > 0.0):
        raise ValueError("ball radii must be positive")
    vnorm2 = _base_point_norm2(atoms)
    if vnorm2 is not None:
        return (*_schur_sweep(pt, R_grid, vnorm2, kinds=kinds), "schur_1d")

    if rng is None:
        rng = np.random.default_rng(0)
    n = pt.n
    sheet = _Sheet(pt, atoms, lg.embed_rotation(lg.haar_sample_K(n, size=k_samples, rng=rng)))
    ends = np.sort(R_grid)
    ts, ws, segs = _sweep_rule(ends, pt.lam_real if np.isreal(pt.lam) else 1.0, _MC_ORDER)
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


def cross_term(lam, n, R):
    """(1/R) int_0^R e^{2(i lam - rho) t} (2 sinh t)^{n-1} dt = I(2 lam, R) of
    _head_integrals in closed form, for lam != 0 and finite R > 0 (else
    ValueError); ArithmeticError where its form cancels past 1e-10 of A(R)
    (large lam at small R).  An array of radii gives an array, a scalar R
    a complex."""
    if float(lam) == 0.0:
        raise ValueError("the cross term requires lambda != 0")
    ramp, (wave,) = _head_integrals([2.0 * float(lam)], n, R)
    return complex(ramp + wave) if ramp.ndim == 0 else ramp + wave


def strichartz_limit(pt, section, R_grid=None, k_samples=4096, rng=None):
    """Ball-average sweep of a Poisson image with its R -> infinity limit
    L_head ||F||^2 (L_head the head's weight at frequency 0, _head_weights),
    against the target (1/pi) nu_sigma(lambda)^{-1} ||F||^2.

    stderr is the sweep's own error estimate.  The report also carries
    the sweep supremum (the weak-norm estimate) and the empirical
    constant of the two-sided comparison with nu_sigma(lambda)^{-1/2} ||F||.
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
    bstar = max(values)
    ratio = sqrt(bstar * nu / norm_f2) if norm_f2 > 0 else float("inf")
    bound_c = max(ratio, 1.0 / ratio) if norm_f2 > 0 else float("inf")
    return BallAverageReport(pt.n, R_grid, values, stderrs, _head_weights(pt)[0.0].real * norm_f2,
                             method, max(stderrs), target=target, bstar_sup=bstar,
                             bound_constant=bound_c, norm_f2=norm_f2)


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
                             "schur_1d", max(stderrs), target=target, bstar_sup=max(values))


# ---------------------------------------------------------------------------
# inversion: boundary values from ball averages of the dual pairing


def inversion_ratios(pt, R, mu=None):
    """Per-block scalars r_{eta'}(R) of the reduced reconstruction.

    F_R = sum_{eta'} r_{eta'}(R) P_{eta'} F^(mu) for atomic data; the
    matched kernel (mu = lambda) drives every r_{eta'}(R) -> 1.

    The rotation integral of the pairing kernel is the conjugate of the
    output block's own spherical components,
    j_{eta',eta}(t; mu) = (d_eta/d_tau) conj phi^{(eta', mu)}_eta(t)
    (pinned against the zonal quadrature of tests/oracles.py), so
    r_{eta'}(R) is pi nu times the Schur ball average paired with the
    point (eta', mu).  At mu = lambda every block pairs to the square
    profile of sigma (the odd parts of sigma_p's two blocks cancel) and
    one sweep serves all.  Raises ArithmeticError where the sweep's two
    orders disagree.
    """
    lam = pt.lam_real
    mu = lam if mu is None else float(mu)
    nu = plancherel_density(pt)
    kernels = {b: None if mu == lam else SpectralPoint(pt.spec, b, mu)
               for b in xr.sigma_blocks(pt.spec, pt.sigma)}
    sweeps = {q: _schur_sweep(pt, [float(R)], other=q)[0][0, 0]
              for q in dict.fromkeys(kernels.values())}
    return {b: complex(pi * nu * sweeps[q]) for b, q in kernels.items()}


def inversion_mix(pt, R, mu=None):
    """The matrix sum_{eta'} r_{eta'}(R) P_{eta'} of the reduced
    reconstruction, (C, C): F_R = mix F^(mu) for atomic data, with the
    ratios of inversion_ratios.  n >= 3 only."""
    if pt.n < 3:
        raise ValueError("the zonal reduction needs n >= 3")
    mix = np.zeros((pt.spec.dim_full,) * 2, dtype=complex)
    for b, r in inversion_ratios(pt, R, mu=mu).items():
        mix += r * xr.proj_matrix(pt.spec, b)
    return mix


def inversion_reconstruct(pt, section, R, samples=1000000, mu=None,
                          method="reduced", rng=None, mc_k1=20000):
    """Boundary value F_R(k) = pi nu (1/R) int_{B(R)} e(k^{-1}g) f(g)
    of the Poisson image f of an atomic section, as a sampled section.

    reduced: the rotation factor of the ball integral is averaged in
    closed form (Schur), leaving a radial quadrature; exact up to an
    O((1+dist(g_i))/R) ball-shift bias for atoms away from the base
    point.  The section is inversion_mix(pt, R, mu) applied to the data
    at mu.  mc: literal Monte Carlo over the rotation factor with mc_k1
    samples; its variance scales like e^{(n-1)R}/mc_k1, so it is only
    meaningful for small R; it refuses (ValueError) an R that is not
    finite and positive and an mc_k1 that is not a positive integer.  The
    Poisson image on the sheet k1 a_t comes from _Sheet: atoms at a
    rotation k_a by Phi(k_a^T k1 a_t) = Phi(a_t) tau(k_a^T k1)^T, one
    component grid over the t-nodes and one extrep.tau_vec_batch over the
    k1, others by the Cartan decomposition in slabs of one t-node.  Each
    evaluation rotation k forms every r = k1^T k at once, sample-major;
    at each t-node liegroup.iwasawa_boosted_batch reads the Iwasawa step
    of a_{-t} r off r into one reused buffer, tau_vec_batch pairs
    tau(kappa)^T with the image, and one complex weight per sample sums
    it; P_sigma, linear, is applied once after the node sum.  `samples`
    is the evaluation budget of the returned section; `mu` probes a
    mismatched kernel frequency.
    """
    atoms = _atom_list(section)
    lam = pt.lam_real
    mu_val = lam if mu is None else float(mu)
    if method == "reduced":
        mix = inversion_mix(pt, R, mu=mu_val)
        if mu_val == lam:
            base = section
        else:
            pt_mu = SpectralPoint(pt.spec, pt.sigma, mu_val)
            base = BoundarySection.from_atoms(pt_mu, atoms)

        def sampler(kmats):
            return np.einsum("ij,bj->bi", mix, base.eval_batch(kmats))

        return BoundarySection.from_sampler(pt, sampler, budget=samples)

    if method != "mc":
        raise ValueError(f"unknown reconstruction method {method!r}")
    if not (isfinite(R) and R > 0.0):
        raise ValueError("ball radii must be positive")
    if isinstance(mc_k1, bool) or not isinstance(mc_k1, Integral) or mc_k1 < 1:
        raise ValueError(f"mc_k1 must be a positive integer, got {mc_k1!r}")
    if rng is None:
        rng = np.random.default_rng(0)
    n, p = pt.n, pt.p
    k1 = lg.haar_sample_K(n, size=mc_k1, rng=rng)
    ts, ws, _ = _sweep_rule([float(R)], max(abs(lam), abs(mu_val)), _MC_INVERSION_ORDER)
    # Poisson image on the sample sheet k1 a_t; the Cartan step of an atom
    # away from the base point takes one t-node of mc_k1 matrices at a time,
    # so its temporaries stay below those of fvals
    fvals = _Sheet(pt, atoms, lg.embed_rotation(k1)).values(ts, ("spherical",), nodes=1)[0]
    # the node weight, the kernel's sqrt(d_{tau,sigma}) and the 1/mc_k1 of the mean
    coef = (ws * radial_weight(ts, n) * pi * plancherel_density(pt) / float(R)
            * sqrt(xr.dims(pt.spec, pt.sigma)[2]) / mc_k1)
    proj = xr.proj_matrix(pt.spec, pt.sigma)
    k1_cols = np.ascontiguousarray(k1.transpose(1, 2, 0))  # [a, i, s] = k1_s[a, i]
    kappa = np.empty((n, n, mc_k1))

    def sampler(kmats):
        kmats = np.asarray(kmats, dtype=float)
        if kmats.ndim == 2:
            kmats = kmats[None]
        out = np.zeros((kmats.shape[0], pt.spec.dim_full), dtype=complex)
        for bi, k in enumerate(kmats):
            # r_s = k1_s^T k as (i, j, s), a view of the tensordot's [j, i, s]
            rots = np.tensordot(k, k1_cols, axes=(0, 0)).transpose(1, 0, 2)
            acc = np.zeros(pt.spec.dim_full, dtype=complex)
            for i, t in enumerate(ts):
                # e(k^{-1} k1 a_t) is the dual kernel at a_{-t} k1^{-1} k:
                # e^{(i mu - rho) H} tau(kappa)^T, and P_sigma after the node sum
                h, _, _ = lg.iwasawa_boosted_batch(t, rots, out=kappa)
                vals = xr.tau_vec_batch(kappa.transpose(2, 1, 0), p, fvals[i])
                acc += (coef[i] * np.exp((1j * mu_val - pt.rho) * h)) @ vals
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


def spectral_projection_energy(f, lam_grid, R, g_samples=160, k_samples=800,
                               t_nodes=32, grid=24, rng=None, details=False):
    """Windowed energy capture of the spectral projections of a
    compactly supported section at n = 3.

    Estimates int_window d lambda sum_sigma (1/R) int_{B(R)}
    ||Q_{sigma,lambda} f||^2 by Monte Carlo over sample points of the
    ball and of the rotation group.  The horocycle transform profile
    and one Poisson-kernel geometry serve the window, and each lambda
    makes one real product of that geometry against every sigma's
    vectors; the second moment comes from the orthogonality of
    Lambda^p(kappa), |K v|^2 = d e^{-2 rho H} |v|^2.  Returns the
    captured energy; the window makes the estimate one-sided, so the
    full-line equality is never asserted.  With details=True also
    returns a dict with the captured fraction (pi * energy / ||f||^2),
    per-lambda rows, and the truncation data.
    """
    spec = f.spec
    if spec.n != 3:
        raise ValueError("energy capture is implemented for n = 3 only")
    lam_grid = np.asarray(sorted(float(l) for l in lam_grid), dtype=float)
    if lam_grid.size < 2:
        raise ValueError("need at least two window points")
    norm = f.l2_norm()
    if norm == 0.0:
        return (0.0, {"fraction": 0.0, "rows": [], "norm_f2": 0.0,
                      "window": (float(lam_grid[0]), float(lam_grid[-1]))}) \
            if details else 0.0
    if rng is None:
        rng = np.random.default_rng(0)
    n = spec.n
    R = float(R)
    # ball sample points g_i = k_i a_{t_i}, t uniform with weight w(t)
    t_i = rng.random(g_samples) * R
    k_i = lg.haar_sample_K(n, size=g_samples, rng=rng)
    w_i = radial_weight(t_i, n)
    g_mats = lg.embed_rotation(k_i) @ lg.at_mats(t_i, n)
    # shared rotation samples and horocycle profiles
    us = lg.haar_sample_K(n, size=k_samples, rng=rng)
    tq, wq = gauss_legendre(t_nodes)
    tq, wq = tq * f.r_supp, wq * f.r_supp
    prof = radon_batch(f, tq, us, grid=grid)
    # the Poisson kernel's geometry at g_i^{-1} u_j, shared across the window:
    # e^{-rho H} once, and Lambda^p(kappa) laid out (i, a, (j, b)), so that
    # the kernel's product and the mean over j are one real product per lambda
    ker = PoissonKernel(lg.inv_mats(g_mats)[:, None] @ lg.embed_rotation(us)[None], spec.p)
    h, wide = ker.h, xr.tau_matrix_batch(ker.kappa, spec.p)
    del ker  # kappa, and below the (i, j, a, b) stack, go as soon as used
    wide = wide.transpose(0, 2, 1, 3).reshape(g_samples, spec.dim_full, -1)
    decay = np.exp(-0.5 * (n - 1) * h)
    rows = []
    etas = xr.branching(spec)
    d_ratio = np.array([xr.dims(spec, sigma)[2] for sigma in etas])
    for lam in lam_grid:
        pts = [SpectralPoint(spec, sigma, lam) for sigma in etas]
        profile = np.einsum("q,jqd->jd", wq * np.exp(-1j * lam * tq), prof)
        fv = np.stack([sigma_part(pt, profile) for pt in pts], axis=-1)
        # Q f(g_i) = nu * mean_j K_lambda(g_i^{-1} u_j) fv_j for every sigma,
        # the kernel's weight sqrt(d) e^{-(i lam + rho) H} / J on the vectors
        weighted = ((decay * np.exp(-1j * lam * h))[..., None, None]
                    * (np.sqrt(d_ratio) / k_samples * fv))
        mean = xr.tau_apply_batch(wide, weighted.reshape(g_samples, -1, len(etas)))
        mean_sq = np.sum(np.abs(mean) ** 2, axis=-2)
        # Lambda^p(kappa) is orthogonal: sum_a |(K v)_a|^2 = d e^{-2 rho H} |v|^2
        second = decay ** 2 @ np.sum(np.abs(fv) ** 2, axis=-2) * (d_ratio / k_samples)
        var = np.maximum(second - mean_sq, 0.0)
        # debias ||mean_j||^2 by the Monte Carlo variance of the mean
        contribs = [float(np.mean(w_i * (sq - v / k_samples)) * plancherel_density(pt) ** 2)
                    for pt, sq, v in zip(pts, mean_sq.T, var.T)]
        rows.append({"lam": float(lam), "energy": sum(contribs),
                     "per_sigma": {str(s): c for s, c in zip(etas, contribs)}})
    energies = np.array([r["energy"] for r in rows])
    captured = float(np.trapezoid(energies, lam_grid))
    if not details:
        return captured
    fraction = pi * captured / norm ** 2
    return captured, {
        "fraction": fraction,
        "rows": rows,
        "norm_f2": norm ** 2,
        "window": (float(lam_grid[0]), float(lam_grid[-1])),
        "R": R,
    }
