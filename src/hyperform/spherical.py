"""tau-spherical functions on SO0(n,1) by explicit scalar components.

For a K-type tau = Lambda^p and an M-type sigma in the branching of
tau, the spherical function Phi_{sigma,lambda} of type (tau, sigma) is
determined by scalar components phi_eta(t) on the M-isotypic summands
of tau restricted to M.  Each component is a combination of Jacobi
functions phi_lambda^{(alpha,beta)} with alpha in {n/2-1, n/2} and
beta = -1/2, except in the middle-degree chirality case where a single
component appears with doubled spectral parameter and half argument.

The module also provides the Harish-Chandra c-function attached to
sigma, the Plancherel density nu_sigma, the Weyl-group action on
(sigma, lambda), and the two-term asymptotic head

    Phi(a_t) ~ sum_{s = +-1} e^{(is lambda - rho) t} c_{s sigma}(s lambda) P_{s sigma}.

A quadrature evaluator of the defining Eisenstein K-integral is
included as an independent cross-check route: it never touches the
Jacobi-function machinery, only group decompositions and projectors.
"""

from dataclasses import dataclass
from math import gamma, pi, sqrt

import numpy as np

from . import extrep as xr
from .liegroup import (GroupElement, _cartan_batch, _embed_rotation, _iwasawa_full,
                       _plane_rotation_batch, make_at)
from .specialfn import JacobiParams, c_jacobi, jacobi_phi

__all__ = [
    "SpectralPoint",
    "SphericalValue",
    "scalar_components",
    "spherical_at",
    "c_sigma",
    "plancherel_density",
    "weyl_reflect",
    "asymptotic_head",
    "op_norm",
    "eisenstein_integral_at",
]

_LAMBDA_FLOOR = 1e-6
# zonal nodes per block of the K-integral's trace contraction
_K_BLOCK = 128


@dataclass(frozen=True)
class SpectralPoint:
    """A point (tau_p, sigma, lambda) of the spectral parameter space.

    lambda may be complex for c-function and asymptotics work; the
    density API insists on real lambda.  rho = (n-1)/2 throughout.
    """

    spec: xr.BundleSpec
    sigma: xr.MLabel
    lam: complex

    def __post_init__(self):
        _check_point_sigma(self.spec, self.sigma)
        if abs(self.lam) < _LAMBDA_FLOOR:
            raise ValueError("lambda too close to 0")

    @property
    def n(self):
        return self.spec.n

    @property
    def p(self):
        return self.spec.p

    @property
    def rho(self):
        return (self.spec.n - 1) / 2.0

    @property
    def lam_real(self):
        lam = complex(self.lam)
        if lam.imag != 0.0:
            raise ValueError("this operation requires real lambda")
        return lam.real


def _check_point_sigma(spec, sigma):
    """sigma must label an M-isotypic constituent: a branching member,
    or the unsplit SigmaQ(p) at p = (n-1)/2 (the reducible isotype)."""
    if sigma in xr.branching(spec):
        return
    if spec.case == "half_odd" and sigma == xr.sigma_q(spec.p):
        return
    raise ValueError(f"sigma {sigma} is not admissible for {spec}")


@dataclass
class SphericalValue:
    t: float
    components: dict


# ---------------------------------------------------------------------------
# scalar components


def _base_pair(n, lam, t):
    a = jacobi_phi(JacobiParams(n / 2 - 1, -0.5, lam), t)
    b = jacobi_phi(JacobiParams(n / 2, -0.5, lam), t)
    return a, b


def _component_grid(pt, ts):
    """Components phi_eta on an array of radii, keyed by MLabel."""
    ts = np.asarray(ts, dtype=float)
    n, p, lam = pt.n, pt.p, complex(pt.lam)
    spec = pt.spec
    if spec.chirality != "none":
        par = JacobiParams(n / 2 - 1, n / 2 + 1, 2 * lam)
        val = np.cosh(ts / 2.0) ** 2 * jacobi_phi(par, ts / 2.0)
        return {xr.sigma_q(p): val}
    a, b = _base_pair(n, lam, ts)
    ch = np.cosh(ts)
    out = {}
    if pt.sigma == xr.sigma_q(p - 1):
        out[xr.sigma_q(p - 1)] = (n / p) * a - ((n - p) / p) * ch * b
        upper = b
        if spec.case == "half_odd":
            out[xr.SIGMA_PLUS] = upper
            out[xr.SIGMA_MINUS] = upper.copy()
        else:
            out[xr.sigma_q(p)] = upper
    elif pt.sigma == xr.sigma_q(p):
        out[xr.sigma_q(p - 1)] = b
        upper = (n / (n - p)) * a - (p / (n - p)) * ch * b
        if spec.case == "half_odd":
            # the unsplit middle isotype averages the two chirality
            # points, whose odd sinh terms cancel
            out[xr.SIGMA_PLUS] = upper
            out[xr.SIGMA_MINUS] = upper.copy()
        else:
            out[xr.sigma_q(p)] = upper
    else:
        eps = 1.0 if pt.sigma == xr.SIGMA_PLUS else -1.0
        out[xr.sigma_q(p - 1)] = b
        even = (2 * n / (n + 1)) * a - ((n - 1) / (n + 1)) * ch * b
        odd = (2j * lam / (n + 1)) * np.sinh(ts) * b
        out[xr.SIGMA_PLUS] = even + eps * odd
        out[xr.SIGMA_MINUS] = even - eps * odd
    return out


def scalar_components(pt, t):
    """The scalars phi_eta(t) of Phi(a_t) on each M-isotypic summand."""
    t = float(t)
    grid = _component_grid(pt, np.array([t]))
    return SphericalValue(t, {eta: complex(v[0]) for eta, v in grid.items()})


# ---------------------------------------------------------------------------
# operator values


def _sigma_blocks(spec, sigma):
    """Irreducible isotypic labels carried by P_sigma: the unsplit
    sigma_p at p = (n-1)/2 is sigma^+ (+) sigma^-."""
    if spec.case == "half_odd" and sigma == xr.sigma_q(spec.p):
        return [xr.SIGMA_PLUS, xr.SIGMA_MINUS]
    return [sigma]


def _sigma_projector(spec, sigma):
    return sum(xr.proj_matrix(spec, eta) for eta in _sigma_blocks(spec, sigma))


def _head_components(pt, ts):
    """Scalars of the two-term Weyl head on each isotypic summand."""
    ts = np.asarray(ts, dtype=float)
    lam, rho = complex(pt.lam), pt.rho
    out = {eta: np.zeros(ts.shape, dtype=complex) for eta in xr.branching(pt.spec)}
    for s in (+1, -1):
        if s > 0:
            sig_s, lam_s = pt.sigma, lam
        else:
            sig_s, lam_s = weyl_reflect(pt.sigma, lam)
        coeff = _c_sigma_scalar(pt.spec, sig_s, lam_s)
        weight = coeff * np.exp((1j * s * lam - rho) * ts)
        for eta in _sigma_blocks(pt.spec, sig_s):
            out[eta] = out[eta] + weight
    return out


def _radial_conjugate_batch(pt, mats, components):
    """tau-radial operators on stacked group matrices (..., n+1, n+1):
    the diagonal operator sum_eta components(t)[eta] P_eta at the Cartan
    radius t, conjugated by the Lambda^p images of the K factors."""
    t, k1, k2 = _cartan_batch(mats)
    grid = components(t)
    dim = pt.spec.dim_full
    mid = np.zeros(mats.shape[:-2] + (dim, dim), dtype=complex)
    for eta, vals in grid.items():
        mid += vals[..., None, None] * xr.proj_matrix(pt.spec, eta)[None]
    t1 = xr.tau_matrix_batch(k1, pt.p)
    t2 = xr.tau_matrix_batch(k2, pt.p)
    # g = k1 a_t k2 and Phi(k1 g k2) = tau(k2)^{-1} Phi(g) tau(k1)^{-1},
    # so Phi(g) = tau(k2)^T mid tau(k1)^T
    return np.swapaxes(t2, -1, -2) @ mid @ np.swapaxes(t1, -1, -2)


def _spherical_batch(pt, mats):
    return _radial_conjugate_batch(pt, mats, lambda t: _component_grid(pt, t))


def _head_batch(pt, mats):
    return _radial_conjugate_batch(pt, mats, lambda t: _head_components(pt, t))


def _group_mat(g):
    if not isinstance(g, GroupElement):
        g = GroupElement(np.asarray(g, dtype=float))
    return g.mat[None]


def spherical_at(pt, g):
    """Phi(g) as a matrix on the Lambda^p coordinates, via the Cartan
    decomposition and tau-radiality Phi(k1 a_t k2) = tau(k1) Phi(a_t) tau(k2)."""
    return _spherical_batch(pt, _group_mat(g))[0]


def asymptotic_head(pt, g):
    """Two-term Weyl-sum head of Phi(g); exact leading asymptotics."""
    return _head_batch(pt, _group_mat(g))[0]


# ---------------------------------------------------------------------------
# c-functions and densities


def _c_sigma_scalar(spec, sigma, lam):
    n, p = spec.n, spec.p
    rho = (n - 1) / 2.0
    if spec.chirality != "none":
        return 0.25 * c_jacobi(n / 2 - 1, n / 2 + 1, 2 * lam)
    cb = c_jacobi(n / 2, -0.5, lam)
    if sigma.kind == "q" and sigma.q == p:
        return (1j * lam + rho - p) / (2 * (n - p)) * cb
    if sigma.kind == "q" and sigma.q == p - 1:
        return (1j * lam - rho + p - 1) / (2 * p) * cb
    return 2j * lam / (n + 1) * cb


def c_sigma(pt):
    """Harish-Chandra c-function attached to (tau, sigma) at lambda."""
    return complex(_c_sigma_scalar(pt.spec, pt.sigma, complex(pt.lam)))


def _plancherel_base(n, lam, q):
    """Common density factor: polynomial-in-lambda part over the
    normalizing constant 2^(2n-3) Gamma(n/2)^2 and the (rho - q) pole."""
    rho = (n - 1) / 2.0
    lam2 = lam * lam
    if n % 2:
        num = lam2
        for k in range(1, (n - 1) // 2 + 1):
            num *= lam2 + k * k
    else:
        num = lam * np.tanh(pi * lam)
        for k in range(1, n // 2 + 1):
            num *= lam2 + (k - 0.5) ** 2
    den = 2.0 ** (2 * n - 3) * gamma(n / 2) ** 2 * (lam2 + (rho - q) ** 2)
    return num / den


def plancherel_density(pt):
    """Closed-form Plancherel density nu_sigma(lambda), real lambda."""
    lam = pt.lam_real
    spec = pt.spec
    q = pt.sigma.q if pt.sigma.kind == "q" else spec.p
    d_tau, d_sig, _ = xr.dims(spec, pt.sigma)
    return float(_plancherel_base(spec.n, lam, q) * d_sig / d_tau)


def weyl_reflect(sigma, lam):
    """Action of the nontrivial Weyl element: (sigma, lambda) maps to
    (s sigma, -lambda), swapping the two middle chirality types."""
    if sigma == xr.SIGMA_PLUS:
        return xr.SIGMA_MINUS, -lam
    if sigma == xr.SIGMA_MINUS:
        return xr.SIGMA_PLUS, -lam
    return sigma, -lam


# ---------------------------------------------------------------------------
# operator norm


def op_norm(mat):
    """Spectral norm (largest singular value); 0.0 for an empty matrix."""
    a = np.asarray(mat, dtype=complex)
    if a.size == 0:
        return 0.0
    return float(np.linalg.norm(a, 2))


# ---------------------------------------------------------------------------
# defining-integral cross-check


def _zonal_nodes(t, n_panels, n_nodes):
    """Composite Gauss-Legendre nodes on [0, pi], geometrically refined
    toward theta = 0 where the integrand has an e^{-t}-scale layer."""
    edges = [0.0]
    scale = min(1.0, np.exp(-abs(t)))
    cuts = np.geomspace(scale * pi, pi, max(n_panels - 1, 1)) if scale < 1.0 else []
    edges.extend([float(c) for c in cuts])
    edges.append(pi)
    edges = np.unique(np.array(edges))
    xs, ws = np.polynomial.legendre.leggauss(n_nodes)
    nodes, weights = [], []
    for lo, hi in zip(edges[:-1], edges[1:]):
        mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
        nodes.append(mid + half * xs)
        weights.append(half * ws)
    return np.concatenate(nodes), np.concatenate(weights)


def _zonal_mass(n):
    return sqrt(pi) * gamma((n - 1) / 2) / gamma(n / 2)


def eisenstein_integral_at(pt, t, n_panels=16, n_nodes=32):
    """Components of Phi(a_t) from the defining K-integral

        d_{tau,sigma} int_K e^{-(i lam + rho) H(a_{-t} k)}
                            tau(kappa(a_{-t} k)) P_sigma tau(k)^{-1} dk

    reduced to a 1D zonal quadrature over K = M A_K M.  Independent of
    the Jacobi-function route; used to pin down conventions in tests.
    """
    spec, lam, rho = pt.spec, complex(pt.lam), pt.rho
    n, p = pt.n, pt.p
    thetas, ws = _zonal_nodes(t, n_panels, n_nodes)
    rots = _plane_rotation_batch(n, np.cos(thetas), np.sin(thetas))
    gs = make_at(-t, n).mat[None, :, :] @ _embed_rotation(rots)
    hs, _, kappas = _iwasawa_full(gs)
    tau_kappa = xr.tau_matrix_batch(kappas, p)
    tau_rot = xr.tau_matrix_batch(rots, p)
    p_sigma = _sigma_projector(spec, pt.sigma)
    d_ts = xr.dims(spec, pt.sigma)[2]
    phase = np.exp(-(1j * lam + rho) * hs)
    etas = xr.branching(spec)
    p_etas = [xr.proj_matrix(spec, eta) for eta in etas]
    # tr(P_eta tau(kappa) P_sigma tau(rot)^T) = sum (tau(kappa) P_sigma) o (P_eta^T tau(rot)),
    # taken over blocks of nodes
    trs = np.empty((len(etas), len(thetas)), dtype=np.result_type(tau_kappa, p_sigma, tau_rot))
    for lo in range(0, len(thetas), _K_BLOCK):
        blk = slice(lo, lo + _K_BLOCK)
        left = tau_kappa[blk] @ p_sigma
        for tr, p_eta in zip(trs, p_etas):
            tr[blk] = np.einsum("kab,kab->k", left, p_eta.T @ tau_rot[blk])
    out = {}
    jac = np.sin(thetas) ** (n - 2) * ws
    for eta, tr in zip(etas, trs):
        d_eta = xr.dims(spec, eta)[1]
        val = np.sum(jac * phase * tr) * d_ts / (_zonal_mass(n) * d_eta)
        out[eta] = complex(val)
    return out
