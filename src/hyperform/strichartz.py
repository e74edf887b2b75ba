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
  * the oscillatory cross term of the two-term Weyl head in closed
    form, whose O(1/R) decay justifies the L + A/R extrapolation,
  * extrapolated limits with the two-sided norm-equivalence constant,
  * Hilbert-Schmidt ball averages of Eisenstein integrals,
  * boundary-value reconstruction F_R from a Poisson image, with the
    rotation integral of the dual kernel in closed form: a spherical
    component of the transpose-dual type at -t (the zonal quadrature
    _j_pair_grid is kept only as its test oracle; a literal Monte Carlo
    mode exists for cross-checks at small R, and its variance grows
    like e^{(n-1)R}, see the docstring),
  * ball-averaged residuals of the asymptotic head, and
  * a windowed energy-capture diagnostic for the spectral projections.

Every Schur-reduced radial integral goes through one engine,
_radial_sweep: a composite Gauss-Legendre rule on [0, max R] with a
breakpoint at each R of the grid and panels of at most a quarter period
of e^{2 i lambda t}, the profile evaluated once over the nodes of an
order pair, and cumulative sums per R.  The two orders must agree to a
relative 1e-10 at every R, or the sweep raises ArithmeticError.
"""

import json
from math import ceil, comb, pi, sqrt

import numpy as np

from . import extrep as xr
from . import liegroup as lg
from .liegroup import radial_weight
from .spherical import (SpectralPoint, _component_grid, _head_batch, _head_components,
                        _sigma_blocks, _sigma_projector, _spherical_batch, _zonal_mass,
                        _zonal_nodes, plancherel_density)
from . import transforms as tfm
from .transforms import BoundarySection, gram_matrix

__all__ = [
    "BallAverageReport",
    "ball_average_atom",
    "cross_term",
    "strichartz_limit",
    "eisenstein_hs_limit",
    "inversion_reconstruct",
    "inversion_ratios",
    "asymptotic_residual_sweep",
    "head_ball_average",
    "spectral_projection_energy",
]

_DEFAULT_R_GRID = (12.5, 25.0, 50.0, 100.0, 200.0)


# ---------------------------------------------------------------------------
# report type


class BallAverageReport:
    """Sweep of ball averages (1/R) int_{B(R)} ||.||^2 with the fitted
    R -> infinity limit.

    The lower radius cutoff follows the parity split of the norm
    definition: grids must start at R >= 1 for even n and at R > 0
    for odd n.  `target` carries the analytic limit when the caller
    knows one, `bstar_sup` the sweep supremum (the norm estimate),
    and `bound_constant` the empirical two-sided constant.
    """

    def __init__(self, n, R_grid, values, stderrs, extrapolated_limit,
                 method, stderr, target=None, bstar_sup=None,
                 bound_constant=None, norm_f2=None):
        R_grid = tuple(float(r) for r in R_grid)
        values = tuple(float(v) for v in values)
        stderrs = tuple(float(s) for s in stderrs)
        if len(R_grid) != len(values) or len(R_grid) != len(stderrs):
            raise ValueError("grid/value/stderr lengths disagree")
        if any(b <= a for a, b in zip(R_grid, R_grid[1:])):
            raise ValueError("R_grid must be strictly increasing")
        lo = 1.0 if n % 2 == 0 else 0.0
        if R_grid[0] < lo or (n % 2 == 1 and R_grid[0] <= 0.0):
            raise ValueError(f"R_grid starts below the n={n} cutoff")
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

    def to_dict(self):
        out = {
            "n": self.n,
            "R_grid": list(self.R_grid),
            "values": list(self.values),
            "stderrs": list(self.stderrs),
            "extrapolated_limit": self.extrapolated_limit,
            "method": self.method,
            "stderr": self.stderr,
        }
        for key in ("target", "bstar_sup", "bound_constant", "norm_f2"):
            val = getattr(self, key)
            if val is not None:
                out[key] = val
        return out

    def to_json(self):
        return json.dumps(self.to_dict())

    def to_csv(self):
        lines = ["R,value,stderr,method"]
        for r, v, s in zip(self.R_grid, self.values, self.stderrs):
            lines.append(f"{r:.17g},{v:.17g},{s:.17g},{self.method}")
        return "\n".join(lines) + "\n"

    def __repr__(self):
        return (f"BallAverageReport(limit={self.extrapolated_limit:.6g}, "
                f"method={self.method}, R=[{self.R_grid[0]:g}..{self.R_grid[-1]:g}])")


# ---------------------------------------------------------------------------
# quadrature helpers


def _gl_rule(order):
    xs, ws = np.polynomial.legendre.leggauss(order)
    return xs, ws


def _osc_nodes(a, b, lam, order=20):
    """Composite fixed Gauss-Legendre nodes resolving oscillation at
    frequency ~2 lam: at least 4 panels, none longer than a quarter
    period of e^{2 i lam t}."""
    width = pi / max(2.0 * abs(float(lam)), 0.5) / 2
    panels = max(int(ceil((b - a) / width)), 4)
    edges = np.linspace(a, b, panels + 1)
    xs, ws = _gl_rule(order)
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * (edges[1:] - edges[:-1])
    nodes = (mid[:, None] + half[:, None] * xs[None, :]).ravel()
    weights = (half[:, None] * ws[None, :]).ravel()
    return nodes, weights


# Gauss-Legendre order pair of the radial sweep, its profile block size
# (bounds the memory of one profile call) and its relative tolerance
_SWEEP_ORDERS = (20, 30)
_SWEEP_BLOCK = 2048
_SWEEP_RTOL = 1e-10


def _radial_sweep(profile, R_grid, lam):
    """int_0^R profile(t) dt for every R of R_grid, in one pass.

    One composite Gauss-Legendre rule covers [0, max R]: every R is a
    breakpoint and panels are at most a quarter period of e^{2 i lam t}
    wide, with no cap on their number (it grows like lam R).  The
    vectorized profile is evaluated once over the nodes of both orders
    on the same panels, in blocks of at most _SWEEP_BLOCK nodes, and the
    panel sums accumulate per R.  Returns (values, errors) over R_grid,
    the error being |fine - coarse|; raises ArithmeticError when a value
    is not finite or its error exceeds _SWEEP_RTOL of it.
    """
    R_grid = np.asarray(R_grid, dtype=float)
    if R_grid.size == 0 or not np.all(R_grid > 0.0):
        raise ValueError("ball radii must be positive")
    ends = np.sort(R_grid)
    starts = np.concatenate(([0.0], ends[:-1]))
    nodes, weights, bins = [], [], []
    for rank, order in enumerate(_SWEEP_ORDERS):
        for seg, (a, b) in enumerate(zip(starts, ends)):
            ts, ws = _osc_nodes(a, b, lam, order=order)
            nodes.append(ts)
            weights.append(ws)
            bins.append(np.full(ts.size, rank * ends.size + seg))
    nodes, weights, bins = map(np.concatenate, (nodes, weights, bins))
    sums = np.zeros(len(_SWEEP_ORDERS) * ends.size)
    for lo in range(0, nodes.size, _SWEEP_BLOCK):
        sl = slice(lo, lo + _SWEEP_BLOCK)
        sums += np.bincount(bins[sl], weights=weights[sl] * profile(nodes[sl]),
                            minlength=sums.size)
    if not np.all(np.isfinite(sums)):
        raise ArithmeticError(
            f"radial profile not finite on [0, {ends[-1]:g}]")
    coarse, fine = np.cumsum(sums.reshape(-1, ends.size), axis=1)[[0, -1]]
    err = np.abs(fine - coarse)
    bad = ~(err <= _SWEEP_RTOL * np.abs(fine))
    if np.any(bad):
        i = int(np.argmax(bad))
        raise ArithmeticError(
            f"radial quadrature to R={ends[i]:g} did not converge: orders "
            f"{_SWEEP_ORDERS[0]}/{_SWEEP_ORDERS[-1]} give "
            f"{float(coarse[i])!r} and {float(fine[i])!r}")
    idx = np.searchsorted(ends, R_grid)
    return fine[idx], err[idx]


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


def _weighted_square_profile(pt, ts, kind="spherical", dims="schur"):
    """Radial integrand w(t) sum_eta c_eta |psi_eta(t)|^2 in the stable
    form (1-e^{-2t})^{n-1} sum c_eta |e^{rho t} psi_eta|^2.

    kind picks psi: the spherical components, the two-term head, or
    their difference.  dims="schur" weights by d_eta/d_tau (rotation
    average of a Poisson image at unit vector), dims="hs" by
    (d_sigma/d_tau) d_eta (squared Hilbert-Schmidt norm of the
    normalized Eisenstein integral)."""
    ts = np.asarray(ts, dtype=float)
    d_tau, d_eta = _dims_table(pt.spec)
    if dims == "schur":
        coeff = {eta: d / d_tau for eta, d in d_eta.items()}
    else:
        d_sigma = xr.dims(pt.spec, pt.sigma)[1]
        coeff = {eta: d * d_sigma / d_tau for eta, d in d_eta.items()}
    s = np.exp(0.5 * pt.rho * ts)
    if kind == "spherical":
        grid = _component_grid(pt, ts)
    elif kind == "head":
        grid = _head_components(pt, ts)
    elif kind == "residual":
        sph_grid = _component_grid(pt, ts)
        head = _head_components(pt, ts)
        grid = {eta: sph_grid[eta] - head[eta] for eta in sph_grid}
    else:
        raise ValueError(kind)
    out = np.zeros(ts.shape)
    for eta, vals in grid.items():
        out += coeff[eta] * np.abs(_rescale(vals, s)) ** 2
    return _stable_weight(ts, pt.n) * out


def _is_identity_atom(atom):
    n = atom.g.n
    return float(np.max(np.abs(atom.g.mat - np.eye(n + 1)))) <= 1e-12


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


def _schur_sweep(pt, R_grid, vnorm2=1.0, kind="spherical", dims="schur"):
    """Exact ball averages (1/R) int_0^R of the weighted square profile
    times vnorm2, with their quadrature error estimates, over R_grid."""
    R_grid = np.asarray(R_grid, dtype=float)
    vals, errs = _radial_sweep(
        lambda ts: _weighted_square_profile(pt, ts, kind=kind, dims=dims),
        R_grid, pt.lam_real)
    return vals / R_grid * vnorm2, errs / R_grid * vnorm2


def _ball_average_detail(pt, section, R, k_samples=4096, rng=None,
                         kernel="spherical"):
    atoms = _atom_list(section)
    R = float(R)
    if R <= 0.0:
        raise ValueError("ball radius must be positive")
    n = pt.n
    vnorm2 = _base_point_norm2(atoms)
    if vnorm2 is not None:
        vals, errs = _schur_sweep(pt, [R], vnorm2, kind=kernel)
        return float(vals[0]), float(errs[0]), "schur_1d"

    if rng is None:
        rng = np.random.default_rng(0)
    ks = lg.haar_sample_K(n, size=k_samples, rng=rng)
    kemb = lg._embed_rotation(ks)
    ts, ws = _osc_nodes(0.0, R, pt.lam_real if np.isreal(pt.lam) else 1.0,
                        order=12)
    per_k = np.zeros(k_samples)
    batch = _head_batch if kernel == "head" else _spherical_batch
    chunk = max(1, 65536 // max(k_samples, 1))
    for start in range(0, ts.size, chunk):
        sl = slice(start, start + chunk)
        tsl, wsl = ts[sl], ws[sl]
        at = lg._at_mat(tsl, n)
        vals = np.zeros((tsl.size, k_samples, pt.spec.dim_full), dtype=complex)
        for a, w in atoms:
            mats = np.einsum("ij,bjk,tkl->tbil", a.g.inv().mat, kemb, at)
            flat = mats.reshape(-1, n + 1, n + 1)
            if kernel == "residual":
                phi = _spherical_batch(pt, flat) - _head_batch(pt, flat)
            else:
                phi = batch(pt, flat)
            vals += w * np.einsum("bij,j->bi", phi, a.v.coeffs).reshape(
                tsl.size, k_samples, -1)
        sq = np.sum(np.abs(vals) ** 2, axis=-1)
        per_k += (wsl * radial_weight(tsl, n)) @ sq
    per_k /= R
    value = float(per_k.mean())
    stderr = float(per_k.std(ddof=1) / sqrt(k_samples)) if k_samples > 1 else 0.0
    return value, stderr, "mc_k"


def ball_average_atom(pt, section, R, k_samples=4096, rng=None):
    """(1/R) int_{B(R)} ||P F(g)||^2 d(gK) for an atomic section F.

    Sections whose atoms all sit at the identity reduce to the exact
    radial integral of the Schur profile; otherwise the rotation factor
    is sampled (method mc_k).
    """
    value, _, _ = _ball_average_detail(pt, section, R, k_samples=k_samples,
                                       rng=rng)
    return value


def cross_term(lam, n, R):
    """(1/R) int_0^R e^{2(i lam - rho) t} (2 sinh t)^{n-1} dt in closed
    form via the binomial expansion of the sinh power; lam != 0."""
    lam = float(lam)
    if lam == 0.0:
        raise ValueError("the cross term requires lambda != 0")
    R = float(R)
    total = 0.0 + 0.0j
    for m in range(n):
        a = 2.0j * lam - 2.0 * m
        total += comb(n - 1, m) * (-1.0) ** m * (np.exp(a * R) - 1.0) / a
    return complex(total / R)


def _fit_limit(R_grid, values):
    """Least-squares L + A/R on the top half of the sweep."""
    m = len(R_grid) // 2
    rs = np.asarray(R_grid[m:], dtype=float)
    vs = np.asarray(values[m:], dtype=float)
    design = np.stack([np.ones_like(rs), 1.0 / rs], axis=1)
    coef, *_ = np.linalg.lstsq(design, vs, rcond=None)
    resid = vs - design @ coef
    dof = max(rs.size - 2, 1)
    return float(coef[0]), float(np.sqrt(np.sum(resid ** 2) / dof))


def strichartz_limit(pt, section, R_grid=None, k_samples=4096, rng=None):
    """Ball-average sweep of a Poisson image with the extrapolated
    R -> infinity limit.

    The limit of the averages is (1/pi) nu_sigma(lambda)^{-1} ||F||^2;
    the report also carries the sweep supremum (the weak-norm estimate)
    and the empirical constant of the two-sided comparison with
    nu_sigma(lambda)^{-1/2} ||F||.
    """
    if R_grid is None:
        R_grid = _DEFAULT_R_GRID
    if len(R_grid) < 4:
        raise ValueError("R_grid too short: need at least 4 radii to fit")
    vnorm2 = _base_point_norm2(_atom_list(section))
    if vnorm2 is not None:
        values, stderrs = _schur_sweep(pt, R_grid, vnorm2)
        method = "schur_1d"
    else:
        # streams split up front: each radius samples independently
        if rng is None:
            rngs = [None] * len(R_grid)
        else:
            seeds = rng.integers(0, 2 ** 63 - 1, size=len(R_grid))
            rngs = [np.random.default_rng(int(s)) for s in seeds]
        rows = [_ball_average_detail(pt, section, r, k_samples=k_samples, rng=g)
                for r, g in zip(R_grid, rngs)]
        values = [r[0] for r in rows]
        stderrs = [r[1] for r in rows]
        method = "mc_k"
    limit, fit_err = _fit_limit(R_grid, values)
    norm_f2 = section_norm2(section)
    nu = plancherel_density(pt)
    target = norm_f2 / (pi * nu)
    bstar = max(values)
    ratio = sqrt(bstar * nu / norm_f2) if norm_f2 > 0 else float("inf")
    bound_c = max(ratio, 1.0 / ratio) if norm_f2 > 0 else float("inf")
    stderr = max(fit_err, max(stderrs))
    return BallAverageReport(pt.n, R_grid, values, stderrs, limit, method,
                             stderr, target=target, bstar_sup=bstar,
                             bound_constant=bound_c, norm_f2=norm_f2)


def eisenstein_hs_limit(pt, R_grid=None):
    """Ball averages of the squared Hilbert-Schmidt norm of the
    Eisenstein integral at delta = tau.

    Phi_{lambda,tau} = d_{tau,sigma}^{-1/2} Phi^tau_{sigma,lambda}, and
    radial invariance of the HS norm gives the exact profile
    (d_sigma/d_tau) sum_eta d_eta |phi_eta(t)|^2; the fitted limit is
    (d_sigma/pi) nu_sigma(lambda)^{-1}.
    """
    if R_grid is None:
        R_grid = _DEFAULT_R_GRID
    if len(R_grid) < 4:
        raise ValueError("R_grid too short: need at least 4 radii to fit")
    d_sigma = xr.dims(pt.spec, pt.sigma)[1]
    values, stderrs = _schur_sweep(pt, R_grid, dims="hs")
    limit, fit_err = _fit_limit(R_grid, values)
    nu = plancherel_density(pt)
    target = d_sigma / (pi * nu)
    return BallAverageReport(pt.n, R_grid, values, stderrs, limit,
                             "schur_1d", max(fit_err, max(stderrs)),
                             target=target, bstar_sup=max(values))


# ---------------------------------------------------------------------------
# inversion: boundary values from ball averages of the dual pairing


def _zonal_iwasawa(t, thetas):
    """Closed-form Iwasawa data of a_{-t} R(theta), for t >= 0.

    The product lives in the rank-one subgroup on the boost plane and
    the rotation plane, where e^{H} = cosh t - sinh t cos(theta) and
    kappa is the plane rotation sending e1 to
    ((cosh t cos(theta) - sinh t)/e^H, sin(theta)/e^H).  Both are
    evaluated through e^H = e^{-t} + 2 sinh(t) sin^2(theta/2), which
    stays positive in floating point; the literal difference of
    hyperbolics (and the generic matrix factorization) loses e^{t}
    ulps to cancellation near theta = 0.
    """
    sh = np.sinh(t)
    emt = np.exp(-t)
    c, s = np.cos(thetas), np.sin(thetas)
    layer = 2.0 * sh * np.sin(0.5 * thetas) ** 2
    eh = emt + layer
    return np.log(eh), (c * emt - layer) / eh, s / eh


def _j_pair_grid(pt, ts, mu, n_panels=12, n_nodes=24):
    """Zonal quadrature of the rotation-reduced inversion kernel; the
    test oracle of the closed form in _pair_kernel, called by no
    production path.

    For each output block eta' of P_sigma and each isotype eta, the
    scalar

      j_{eta',eta}(t; mu) = (1/d_eta') int_K e^{(i mu - rho) H(a_{-t}u)}
             tr(P_eta' tau(kappa(a_{-t}u))^{-1} P_eta tau(u)) du

    is returned as an array over ts.  The K-integral collapses to the
    zonal angle with the sin^{n-2} density; nodes refine geometrically
    toward the e^{-t}-scale boundary layer.
    """
    spec = pt.spec
    n, p = pt.n, pt.p
    mu = complex(mu)
    rho = pt.rho
    blocks = _sigma_blocks(spec, pt.sigma)
    etas = list(xr.branching(spec))
    proj = {eta: xr.proj_matrix(spec, eta) for eta in etas}
    d_eta = {eta: xr.dims(spec, eta)[1] for eta in etas}
    mass = _zonal_mass(n)
    out = {(b, eta): np.zeros(len(ts), dtype=complex)
           for b in blocks for eta in etas}
    for idx, t in enumerate(np.asarray(ts, dtype=float)):
        # the geometric refinement must keep each panel below a fixed
        # scale ratio, so the panel count grows linearly with t
        np_t = max(n_panels, int(np.ceil(abs(t) / 1.5)) + 2)
        thetas, ws = _zonal_nodes(t, np_t, n_nodes)
        rots = lg._plane_rotation_batch(n, np.cos(thetas), np.sin(thetas))
        hs, cpsi, spsi = _zonal_iwasawa(t, thetas)
        kappas = lg._plane_rotation_batch(n, cpsi, spsi)
        tau_kappa = xr.tau_matrix_batch(kappas, p)
        tau_rot = xr.tau_matrix_batch(rots, p)
        jac = np.sin(thetas) ** (n - 2) * ws
        phase = np.exp((1j * mu - rho) * hs) * jac
        for b in blocks:
            for eta in etas:
                tr = np.einsum("ab,kcb,cd,kda->k",
                               proj[b], tau_kappa, proj[eta], tau_rot)
                out[(b, eta)][idx] = np.sum(phase * tr) / (mass * d_eta[b])
    return out


def _transpose_dual(spec, eta):
    """The bundle and label (spec', T eta) with P_{T eta} = P_eta^T.

    Read off the projectors, not a table: the half-odd sigma^{+-} swap
    at n = 3 and 7 but not at n = 5, and a chirality bundle at n = 2
    (mod 4) has the other chirality's projector as its transpose, whose
    spherical components equal its own.
    """
    target = xr.proj_matrix(spec, eta).T
    specs = [spec]
    if spec.chirality != "none":
        other = "minus" if spec.chirality == "plus" else "plus"
        specs.append(xr.BundleSpec(spec.n, spec.p, other))
    for cand_spec in specs:
        for cand in xr.branching(cand_spec):
            if np.allclose(target, xr.proj_matrix(cand_spec, cand), atol=1e-12):
                return cand_spec, cand
    raise ArithmeticError(f"no transpose dual for {eta} in {spec}")


def _pair_kernel(pt, ts, mu):
    """The rotation-reduced inversion kernel of _j_pair_grid in closed
    form, keyed (eta', eta) the same way:

      j_{eta',eta}(t; mu) = (d_eta/d_tau) phi^{(T eta', mu)}_{T eta}(-t),

    with T the transpose dual (P_{T eta} = P_eta^T).  One component
    grid per output block eta'.
    """
    spec = pt.spec
    ts = np.asarray(ts, dtype=float)
    d_tau, d_eta = _dims_table(spec)
    t_eta = {eta: _transpose_dual(spec, eta)[1] for eta in d_eta}
    out = {}
    for b in _sigma_blocks(spec, pt.sigma):
        dual_spec, dual_b = _transpose_dual(spec, b)
        dual = _component_grid(SpectralPoint(dual_spec, dual_b, mu), -ts)
        for eta, d in d_eta.items():
            out[(b, eta)] = (d / d_tau) * dual[t_eta[eta]]
    return out


def inversion_ratios(pt, R, mu=None, order=20):
    """Per-block scalars r_{eta'}(R) of the reduced reconstruction.

    F_R = sum_{eta'} r_{eta'}(R) P_{eta'} F^(mu) for atomic data; the
    matched kernel (mu = lambda) drives every r_{eta'}(R) -> 1.

    The pairing kernel comes from the transpose-dual identity of
    _pair_kernel, which test_pairing_kernel_is_transpose_dual_spherical_component
    pins against the zonal quadrature _j_pair_grid (kept only as that
    test oracle).  Its accuracy is that of _component_grid, which the
    phi factor of the pairing uses as well.
    """
    lam = pt.lam_real
    mu = lam if mu is None else float(mu)
    ts, ws = _osc_nodes(0.0, float(R), max(abs(lam), abs(mu)), order=order)
    pair = _pair_kernel(pt, ts, mu)
    nu = plancherel_density(pt)
    # pair w(t) phi j as (1-e^{-2t})^{n-1} (e^{rho t} phi)(e^{rho t} j)
    s = np.exp(0.5 * pt.rho * ts)
    grid = {eta: _rescale(phi, s)
            for eta, phi in _component_grid(pt, ts).items()}
    weight = _stable_weight(ts, pt.n) * ws
    out = {}
    for b in _sigma_blocks(pt.spec, pt.sigma):
        j_t = np.zeros(ts.size, dtype=complex)
        for eta, phi in grid.items():
            j_t += phi * _rescale(pair[(b, eta)], s)
        out[b] = complex(pi * nu * np.sum(weight * j_t) / R)
    return out


def inversion_reconstruct(pt, section, R, samples=1000000, mu=None,
                          method="reduced", rng=None, mc_k1=20000,
                          mc_t_order=16):
    """Boundary value F_R(k) = pi nu (1/R) int_{B(R)} e(k^{-1}g) f(g)
    of the Poisson image f of an atomic section, as a sampled section.

    reduced: the rotation factor of the ball integral is averaged in
    closed form (Schur), leaving a radial quadrature; exact up to an
    O((1+dist(g_i))/R) ball-shift bias for atoms away from the base
    point.  mc: literal Monte Carlo over the rotation factor with mc_k1
    samples; its variance scales like e^{(n-1)R}/mc_k1, so it is only
    meaningful for small R.  `samples` is the evaluation budget of the
    returned section; `mu` probes a mismatched kernel frequency.
    """
    atoms = _atom_list(section)
    lam = pt.lam_real
    mu_val = lam if mu is None else float(mu)
    if method == "reduced":
        if pt.n < 3:
            raise ValueError("the zonal reduction needs n >= 3")
        ratios = inversion_ratios(pt, R, mu=mu_val)
        mix = np.zeros((pt.spec.dim_full,) * 2, dtype=complex)
        for b, r in ratios.items():
            mix += r * xr.proj_matrix(pt.spec, b)
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
    if rng is None:
        rng = np.random.default_rng(0)
    n = pt.n
    nu = plancherel_density(pt)
    rho = pt.rho
    k1 = lg.haar_sample_K(n, size=mc_k1, rng=rng)
    k1e = lg._embed_rotation(k1)
    ts, ws = _osc_nodes(0.0, float(R), max(abs(lam), abs(mu_val)),
                        order=mc_t_order)
    # Poisson image on the sample sheet k1 a_t, one t-slab at a time
    fvals = np.zeros((ts.size, mc_k1, pt.spec.dim_full), dtype=complex)
    at_all = lg._at_mat(ts, n)
    for i in range(ts.size):
        sheet = k1e @ at_all[i]
        for a, w in atoms:
            mats = a.g.inv().mat[None] @ sheet
            fvals[i] += w * np.einsum("bij,j->bi", _spherical_batch(pt, mats),
                                      a.v.coeffs)
    proj = _sigma_projector(pt.spec, pt.sigma)
    sd = sqrt(xr.dims(pt.spec, pt.sigma)[2])
    radial = ws * radial_weight(ts, n) * pi * nu / float(R)
    at_neg = lg._at_mat(-ts, n)

    def sampler(kmats):
        kmats = np.asarray(kmats, dtype=float)
        if kmats.ndim == 2:
            kmats = kmats[None]
        out = np.zeros((kmats.shape[0], pt.spec.dim_full), dtype=complex)
        for bi in range(kmats.shape[0]):
            kb = lg._embed_rotation(kmats[bi])
            k1_inv_k = np.swapaxes(k1e, -1, -2) @ kb
            acc = np.zeros(pt.spec.dim_full, dtype=complex)
            for i in range(ts.size):
                # e(k^{-1} k1 a_t) needs H, kappa of a_{-t} k1^{-1} k
                args = at_neg[i] @ k1_inv_k
                hs, _, kap = lg._iwasawa_full(args)
                tk = xr.tau_matrix_batch(kap, pt.p)
                vec = np.einsum("bji,bj->bi", tk, fvals[i])
                term = np.exp((1j * mu_val - rho) * hs)[:, None] * vec
                acc += radial[i] * sd * (proj @ term.mean(axis=0))
            out[bi] = acc
        return out

    return BoundarySection.from_sampler(pt, sampler, budget=samples)


# ---------------------------------------------------------------------------
# asymptotic residual sweeps


def head_ball_average(pt, R, vnorm2=1.0):
    """Exact ball average of the squared two-term Weyl head applied to
    a vector of squared norm vnorm2; bounded by
    2 |c_sigma|^2 (d_sigma/d_tau) vnorm2 in the limit."""
    return float(_schur_sweep(pt, [R], vnorm2, kind="head")[0][0])


def asymptotic_residual_sweep(pt, atom, R_grid=(10.0, 20.0, 40.0),
                              k_samples=2000, rng=None, weight=1.0):
    """Ball-averaged squared deviation between a Poisson image and its
    Weyl head, over growing radii.

    Returns rows (R, deviation, average, ratio, stderr); base-point
    atoms reduce exactly, translated atoms sample the rotation factor.
    The deviation must vanish as R grows (rate 1/R: the residual decays
    one exponential order below the head).
    """
    section = BoundarySection.from_atoms(pt, [(atom, weight)])
    vnorm2 = _base_point_norm2(section.atoms)
    if vnorm2 is not None:
        devs, errs = _schur_sweep(pt, R_grid, vnorm2, kind="residual")
        avgs, _ = _schur_sweep(pt, R_grid, vnorm2)
        sweep = zip(devs, errs, avgs)
    else:
        sweep = []
        for r in R_grid:
            dev, err, _ = _ball_average_detail(pt, section, r,
                                               k_samples=k_samples, rng=rng,
                                               kernel="residual")
            avg, _, _ = _ball_average_detail(pt, section, r,
                                             k_samples=k_samples, rng=rng)
            sweep.append((dev, err, avg))
    rows = []
    for r, (dev, err, avg) in zip(R_grid, sweep):
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
    ball and of the rotation group, with the horocycle transform
    profile shared across the window.  Returns the captured energy; the
    window makes the estimate one-sided, so the full-line equality is
    never asserted.  With details=True also returns a dict with the
    captured fraction (pi * energy / ||f||^2), per-lambda rows, and the
    truncation data.
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
    rho = (n - 1) / 2.0
    R = float(R)
    # ball sample points g_i = k_i a_{t_i}, t uniform with weight w(t)
    t_i = rng.random(g_samples) * R
    k_i = lg.haar_sample_K(n, size=g_samples, rng=rng)
    w_i = radial_weight(t_i, n)
    g_mats = lg._embed_rotation(k_i) @ lg._at_mat(t_i, n)
    # shared rotation samples and horocycle profiles
    us = lg.haar_sample_K(n, size=k_samples, rng=rng)
    tq, wq = _gl_rule(t_nodes)
    tq = tq * f.r_supp
    wq = wq * f.r_supp
    prof = tfm._radon_batch(f, tq, us, grid=grid)
    # Iwasawa data of g_i^{-1} u_j, shared across the window, formed in
    # blocks of ball points
    inv_g = lg._inv_mats(g_mats)
    uemb = lg._embed_rotation(us)
    hs = np.zeros((g_samples, k_samples))
    tks = np.zeros((g_samples, k_samples, spec.dim_full, spec.dim_full))
    step = max(1, tfm._GROUP_BLOCK // k_samples)
    for lo in range(0, g_samples, step):
        sl = slice(lo, lo + step)
        hs[sl], _, kap = lg._iwasawa_full(inv_g[sl, None] @ uemb[None])
        tks[sl] = xr.tau_matrix_batch(kap, spec.p)
    rows = []
    etas = xr.branching(spec)
    for lam in lam_grid:
        fourier_weight = wq * np.exp(-1j * lam * tq)
        total = 0.0
        per_sigma = {}
        for sigma in etas:
            pt = SpectralPoint(spec, sigma, lam)
            nu = plancherel_density(pt)
            sd = sqrt(xr.dims(spec, sigma)[2])
            proj = _sigma_projector(spec, sigma)
            fv = sd * np.einsum("q,jqd->jd", fourier_weight, prof) @ proj.T
            # Q f(g_i) = nu * mean_j sqrt(d) e^{-(i lam + rho) h} tau(kappa) fv_j
            phase = sd * np.exp(-(1j * lam + rho) * hs)
            terms = phase[..., None] * np.einsum("ijab,jb->ija", tks, fv)
            mean = terms.mean(axis=1)
            second = (np.abs(terms) ** 2).mean(axis=1)
            var = np.maximum(second - np.abs(mean) ** 2, 0.0).sum(axis=-1)
            # debias ||mean_j||^2 by the Monte Carlo variance of the mean
            sq = np.sum(np.abs(mean) ** 2, axis=-1) - var / k_samples
            contrib = float(np.mean(w_i * sq) * nu ** 2)
            per_sigma[str(sigma)] = contrib
            total += contrib
        rows.append({"lam": float(lam), "energy": total,
                     "per_sigma": per_sigma})
    energies = np.array([r["energy"] for r in rows])
    trapezoid = getattr(np, "trapezoid", None) or np.trapz
    captured = float(trapezoid(energies, lam_grid))
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
