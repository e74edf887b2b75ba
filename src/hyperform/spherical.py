"""tau-spherical functions on SO0(n,1) by explicit scalar components.

For a K-type tau = Lambda^p and an M-type sigma in the branching of
tau, the spherical function Phi_{sigma,lambda} of type (tau, sigma) is
determined by scalar components phi_eta(t) on the M-isotypic summands
of tau restricted to M.  One exact table per (tau, sigma),
_component_table, writes each as k_a a + (k_c cosh t + k_b) b +
k_s i lambda sinh t b in a = phi_lambda^{(n/2-1, -1/2)} and
b = phi_lambda^{(n/2, -1/2)}; as c_a = (i lambda + rho) c_b / (2n), the
same rationals give the two-term Weyl head, sum over eta and s = +-1 of
h_s e^{(is lambda - rho) t} P_eta, and the c-function c_sigma behind the
Plancherel density nu_sigma.  The chirality bundles' one component is
cosh^2(t/2) phi_{2 lambda}^{(n/2-1, n/2+1)}(t/2); their row, a - (cosh t
- 1) b / 2, is read by the head and c_sigma alone.

One kernel, CartanGeometry.apply, evaluates these tau-radial operators
of every kind on stacked g = k1 a_t k2 from t, k1 e_1 and k1 k2 alone (no
Cartan K factors), and applies them to fiber vectors by real products;
radial_batch is its one entry point.

The Poisson kernel sqrt(d_{tau,sigma}) e^{-(i lambda + rho) H(x^{-1} k)}
tau(kappa(x^{-1} k)) is not formed here: transforms applies it to vectors
from liegroup.iwasawa_translates.  The defining Eisenstein K-integral is
an independent cross-check route that never touches the Jacobi-function
machinery, nor the kernel: on a_{-t} R(theta) H, kappa and
Lambda^p(kappa) are in closed form.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import gamma, pi, sqrt

import numpy as np

from . import extrep as xr
from .liegroup import GroupElement, cartan_axis, plane_rotations
from .specialfn import JacobiParams, c_jacobi, gauss_legendre, jacobi_phi

__all__ = [
    "SpectralPoint",
    "SphericalValue",
    "scalar_components",
    "spherical_at",
    "c_sigma",
    "plancherel_density",
    "asymptotic_head",
    "op_norm",
    "eisenstein_integral_at",
    "component_grid",
    "head_components",
    "radial_kinds",
    "CartanGeometry",
    "radial_batch",
]

_LAMBDA_FLOOR = 1e-6
# zonal panels and Gauss-Legendre nodes per panel of the K-integral, the
# nodes doubled past |lambda| = _ZONAL_LAM_FINE
_ZONAL_PANELS = 16
_ZONAL_NODES = 32
_ZONAL_LAM_FINE = 25.0
# eisenstein_integral_at's domain in |t| and |lambda|
_ZONAL_T_MAX = 9.0
_ZONAL_LAM_MAX = 100.0


@dataclass(frozen=True)
class SpectralPoint:
    """A point (tau_p, sigma, lambda) of the spectral parameter space.

    lambda may be complex for c-function and asymptotics work; the
    density API insists on real lambda.  rho = (n-1)/2 throughout.
    A point keeps its JacobiParams (with their tables) and its head
    coefficients, built on first use; equality, hash and repr read the
    three fields only.
    """

    spec: xr.BundleSpec
    sigma: xr.MLabel
    lam: complex

    def __post_init__(self):
        xr.check_sigma(self.spec, self.sigma)
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

    @cached_property
    def _jacobi(self):
        """The JacobiParams whose phi component_grid combines."""
        n, lam = self.n, complex(self.lam)
        if self.spec.chirality != "none":
            return (JacobiParams(n / 2 - 1, n / 2 + 1, 2 * lam),)
        return JacobiParams(n / 2 - 1, -0.5, lam), JacobiParams(n / 2, -0.5, lam)

    @cached_property
    def head_terms(self):
        """{eta: (h_+, h_-)}, h_s = c_b(s lambda) (u + i lambda v_s) from
        _component_table: the Weyl head's coefficients of e^{(+-i lambda -
        rho) t} on each block, read by head_components and strichartz."""
        lam = complex(self.lam)
        cb = [c_jacobi(self.n / 2, -0.5, s * lam) for s in (1, -1)]
        return {eta: (cb[0] * (u + 1j * lam * vp), cb[1] * (u + 1j * lam * vm))
                for eta, (_, (u, vp, vm)) in _component_table(self.spec, self.sigma).items()}


@lru_cache(maxsize=None)
def _component_table(spec, sigma):
    """{eta: ((k_a, k_c, k_b, k_s), (u, v_+, v_-))} over branching(spec), floats
    of exact rationals: phi_eta = k_a a + (k_c cosh t + k_b) b + k_s i lambda
    sinh t b, and its head h_s = c_b(s lambda) (u + i lambda v_s), u = k_a
    rho/(2n) + k_c/2, v_s = s k_a/(2n) + k_s/2, as a ~ c_a e^{(i lambda - rho) t}
    and b ~ c_b e^{(i lambda - rho - 1) t}, plus their lambda -> -lambda terms.
    The unsplit sigma_p at p = (n-1)/2 averages sigma^+ and sigma^-."""
    n, p = spec.n, spec.p
    b_only = (0, 0, 1, 0)
    if spec.chirality != "none":
        rows = {xr.sigma_q(p): (1, Fraction(-1, 2), Fraction(1, 2), 0)}
    elif sigma.kind != "q":
        eps = 1 if sigma == xr.SIGMA_PLUS else -1
        even = (Fraction(2 * n, n + 1), Fraction(1 - n, n + 1), 0)
        rows = {xr.sigma_q(p - 1): b_only, xr.SIGMA_PLUS: even + (Fraction(2 * eps, n + 1),),
                xr.SIGMA_MINUS: even + (Fraction(-2 * eps, n + 1),)}
    else:
        m = p if sigma.q == p - 1 else n - p
        own = (Fraction(n, m), Fraction(m - n, m), 0, 0)
        # sigma's own blocks are sigma_{p-1}, or the labels above it
        rows = {eta: own if (eta == xr.sigma_q(p - 1)) == (sigma.q == p - 1) else b_only
                for eta in xr.branching(spec)}
    rho, out = Fraction(n - 1, 2), {}
    for eta, (ka, kc, kb, ks) in rows.items():
        u = ka * rho / (2 * n) + Fraction(kc, 2)
        v = [Fraction(s * ka, 2 * n) + Fraction(ks, 2) for s in (1, -1)]
        out[eta] = tuple(map(float, (ka, kc, kb, ks))), tuple(map(float, (u, *v)))
    return out


@dataclass
class SphericalValue:
    t: float
    components: dict


# ---------------------------------------------------------------------------
# scalar components


def component_grid(pt, ts, sigmas=None):
    """Components phi_eta on an array of radii, keyed by MLabel.  With
    sigmas, a list of them, one for each sigma of sigmas at pt's (n,
    lambda): every sigma combines the same Jacobi functions, evaluated once."""
    ts = np.asarray(ts, dtype=float)
    spec, labels = pt.spec, [pt.sigma] if sigmas is None else sigmas
    if spec.chirality != "none":
        val = np.cosh(ts / 2.0) ** 2 * jacobi_phi(pt._jacobi[0], ts / 2.0)
        grids = [{xr.sigma_q(pt.p): val} for _ in labels]
        return grids if sigmas is not None else grids[0]
    a, b = (jacobi_phi(par, ts) for par in pt._jacobi)
    ch, odd = np.cosh(ts), None
    grids = []
    for sigma in labels:
        out = {}
        for eta, ((ka, kc, kb, ks), _) in _component_table(spec, sigma).items():
            val = (kc * ch + kb) * b if kc else kb * b
            if ka:
                val = ka * a + val
            if ks:
                if odd is None:
                    odd = 1j * complex(pt.lam) * np.sinh(ts) * b
                val = val + ks * odd
            out[eta] = val
        grids.append(out)
    return grids if sigmas is not None else grids[0]


def scalar_components(pt, t):
    """The scalars phi_eta(t) of Phi(a_t) on each M-isotypic summand."""
    t = float(t)
    grid = component_grid(pt, np.array([t]))
    return SphericalValue(t, {eta: complex(v[0]) for eta, v in grid.items()})


# ---------------------------------------------------------------------------
# operator values


def head_components(pt, ts):
    """Scalars of the two-term Weyl head on each isotypic summand."""
    ts = np.asarray(ts, dtype=float)
    lam = complex(pt.lam)
    up, down = np.exp((1j * lam - pt.rho) * ts), np.exp((-1j * lam - pt.rho) * ts)
    return {eta: hp * up + hm * down for eta, (hp, hm) in pt.head_terms.items()}


def radial_kinds(pt, ts, kinds):
    """Scalars of a tau-radial operator on each isotypic summand over ts,
    one dict for each kind of kinds, in order: Phi's ("spherical"), its
    two-term head's ("head"), or the "residual", with component_grid and
    head_components each evaluated at most once."""
    for kind in set(kinds) - {"spherical", "head", "residual"}:
        raise ValueError(f"unknown radial kind {kind!r}")
    grid = component_grid(pt, ts) if {"spherical", "residual"} & set(kinds) else None
    head = head_components(pt, ts) if {"head", "residual"} & set(kinds) else None
    return [grid if kind == "spherical" else head if kind == "head" else
            {eta: vals - head[eta] for eta, vals in grid.items()} for kind in kinds]


class CartanGeometry:
    """t, b = k1 e_1, tau(pi0), eps(b) on Lambda^(p-1) and, at p = (n-1)/2,
    star eps(b) of stacked g = k1 a_t k2 (..., n+1, n+1), pi0 = k1 k2
    (liegroup.cartan_axis: the K factors' gate; b = pi0 e_1 below TIE_EPS).
    As tau(k2) = tau(k1)^T tau(pi0), Psi(g) = tau(pi0)^T Q(b): Q(b) = tau(k1)
    (sum_eta psi_eta(t) P_eta) tau(k1)^T needs b alone, as the sum commutes
    with tau(M), P_{q:p-1} = eps(e_1) iota(e_1), P_+- = (1 - P_{q:p-1} +-
    i^{p(p+2)} star eps(e_1))/2 and tau(k) eps(e_1) tau(k)^T = eps(k e_1), star
    commuting.  Q(b) = A + B eps(b) eps(b)^T + C star eps(b), A = psi_p or
    (psi_+ + psi_-)/2, B = psi_{p-1} - A, C = i^{p(p+2)} (psi_+ - psi_-)/2;
    on chirality bundles Q = psi P_chi."""

    __slots__ = ("lead", "t", "bhat", "tau0", "eps", "star")

    def __init__(self, mats, p):
        self.lead, n = mats.shape[:-2], mats.shape[-1] - 1
        self.t, self.bhat, pol = cartan_axis(mats.reshape((-1,) + mats.shape[-2:]))
        self.tau0 = xr.tau_matrix_batch(pol, p)
        self.eps = None if 2 * p == n else xr.wedge_batch(self.bhat, p - 1)
        self.star = xr.wedge_batch(self.bhat, p, star=True) if 2 * p + 1 == n else None

    def apply(self, spec, comps, vecs=None):
        """Psi(g) as (..., C, C), C = C(n,p), or Psi(g) vecs as (..., C) for
        vecs broadcasting against (..., C), with comps the scalars psi_eta
        over t (radial_kinds); vectors meet only real stacks."""
        dim, p = spec.dim_full, spec.p
        x = (np.eye(dim) if vecs is None else
             np.broadcast_to(vecs, self.lead + (dim,)).reshape(-1, dim, 1))
        if spec.chirality != "none":
            (eta, vals), = comps.items()
            u = vals[:, None, None] * (xr.proj_matrix(spec, eta) @ x)
        else:
            upper = [comps[eta] for eta in xr.branching(spec)[1:]]
            a = sum(upper) / len(upper)
            # real matmuls on the identity, tau_apply_batch on complex vectors
            mul = np.matmul if vecs is None else xr.tau_apply_batch
            u = a[:, None, None] * x
            ex = mul(self.eps.swapaxes(-1, -2), x)
            u += (comps[xr.sigma_q(p - 1)] - a)[:, None, None] * mul(self.eps, ex)
            if self.star is not None:
                c = (0.5 * 1j ** (p * (p + 2))) * (upper[0] - upper[1])
                u += c[:, None, None] * mul(self.star, x)
        out = xr.tau_apply_batch(self.tau0.swapaxes(-1, -2), u)
        return out.reshape(self.lead + ((dim, dim) if vecs is None else (dim,)))


def radial_batch(pt, mats, kind="spherical", vecs=None):
    """The tau-radial operators Psi(g) of one kind (radial_kinds) on stacked
    g, or Psi(g) vecs; see CartanGeometry.apply."""
    geo = CartanGeometry(mats, pt.p)
    return geo.apply(pt.spec, radial_kinds(pt, geo.t, (kind,))[0], vecs)


def _group_mat(g):
    if not isinstance(g, GroupElement):
        g = GroupElement(np.asarray(g, dtype=float))
    return g.mat[None]


def spherical_at(pt, g):
    """Phi(g) as a matrix on the Lambda^p coordinates, by tau-radiality
    Phi(k1 a_t k2) = tau(k2)^T Phi(a_t) tau(k1)^T (CartanGeometry)."""
    return radial_batch(pt, _group_mat(g))[0]


def asymptotic_head(pt, g):
    """Two-term Weyl-sum head of Phi(g); exact leading asymptotics."""
    return radial_batch(pt, _group_mat(g), "head")[0]


# ---------------------------------------------------------------------------
# c-functions and densities


def c_sigma(pt):
    """Harish-Chandra c-function attached to (tau, sigma) at lambda: the
    head's h_+ on sigma's first block, c_b(lambda) (u + i lambda v_+)."""
    lam = complex(pt.lam)
    block = xr.sigma_blocks(pt.spec, pt.sigma)[0]
    u, vp, _ = _component_table(pt.spec, pt.sigma)[block][1]
    return complex(c_jacobi(pt.n / 2, -0.5, lam) * (u + 1j * lam * vp))


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
    toward the end where the integrand has an e^{-|t|}-scale layer:
    theta = 0 for t >= 0, theta = pi for t < 0."""
    scale = min(1.0, np.exp(-abs(t)))
    cuts = np.geomspace(scale * pi, pi, max(n_panels - 1, 1)) if scale < 1.0 else []
    edges = np.concatenate(([0.0], cuts, [pi]))
    # ascending already: drop repeats (np.unique would import numpy.ma)
    edges = edges[np.diff(edges, prepend=-1.0) > 0.0]
    xs, ws = gauss_legendre(n_nodes)
    mid, half = 0.5 * (edges[1:] + edges[:-1]), 0.5 * (edges[1:] - edges[:-1])
    nodes = (mid[:, None] + half[:, None] * xs).ravel()
    weights = (half[:, None] * ws).ravel()
    return (nodes, weights) if t >= 0.0 else (pi - nodes[::-1], weights[::-1])


def _zonal_mass(n):
    return sqrt(pi) * gamma((n - 1) / 2) / gamma(n / 2)


@lru_cache(maxsize=None)
def _plane_tau_basis(n, p):
    """(A, B, S), exact (entries 0, +-1), with tau(R_phi) = A + cos(phi) B +
    sin(phi) S for the rotations R_phi of the (e1, e2) plane: e_I is fixed
    when I holds both or neither of 1, 2, and turned by phi otherwise."""
    rots = plane_rotations(n, np.array([1.0, -1.0, 0.0]), np.array([0.0, 0.0, 1.0]))
    r0, r_pi, r_half = xr.tau_matrix_batch(rots, p)
    out = np.stack((r0 + r_pi, r0 - r_pi, 2.0 * r_half - r0 - r_pi)) / 2.0
    out.flags.writeable = False
    return out


def _zonal_iwasawa(t, thetas):
    """(e^H, rot, kap) of a_{-t} R(theta) = R(theta') a_H n_y, with rot and
    kap the stacks (1, cos, sin) of theta and theta'.  Free of cancellation,
    e^H = e^{-t} + 2 sinh t sin^2(theta/2) and e^H (cos, sin)(theta') =
    (e^{-t} cos(theta) - 2 sinh t sin^2(theta/2), sin(theta)) for t >= 0;
    t < 0 takes |t|, cos^2(theta/2) and + instead.  The Iwasawa batches'
    gates: ValueError unless e^H > 0, ArithmeticError past 1e-8 of
    |cos^2(theta') + sin^2(theta') - 1|."""
    cos, sin = np.cos(thetas), np.sin(thetas)
    emt = np.exp(-abs(t))
    half = np.sin(0.5 * thetas) if t >= 0.0 else np.cos(0.5 * thetas)
    layer = 2.0 * np.sinh(abs(t)) * half * half
    eh = emt + layer
    if not (eh > 0.0).all():
        raise ValueError("Iwasawa argument c_1 + d is not positive")
    ones = np.ones_like(cos)
    kap = np.stack((ones, (cos * emt - (layer if t >= 0.0 else -layer)) / eh, sin / eh))
    defect = np.abs(kap[1] * kap[1] + kap[2] * kap[2] - 1.0).max()
    if not defect <= 1e-8:  # a NaN defect raises too
        raise ArithmeticError(f"Iwasawa K factor lost orthogonality: defect {defect:.3e}")
    return eh, np.stack((ones, cos, sin)), kap


def eisenstein_integral_at(pt, t):
    """Components of Phi(a_t) from the defining K-integral

        d_{tau,sigma} int_K e^{-(i lam + rho) H(a_{-t} k)}
                            tau(kappa(a_{-t} k)) P_sigma tau(k)^{-1} dk

    reduced to a 1D zonal quadrature over K = M A_K M, theta in [0, pi]
    (in [-pi, pi] at n = 2, where M is trivial).  Independent of
    the Jacobi-function route; used to pin down conventions in tests and
    by the `spherical` command.  With kappa = R(theta') (_zonal_iwasawa)
    and _plane_tau_basis, each trace tr(P_eta tau(kappa) P_sigma tau(R(theta))^T)
    is bilinear in (1, cos, sin) of theta' and theta: nine node sums.

    Domain |t| <= 9 and |lambda| <= 100 (ValueError beyond it, or at a t
    that is not finite).  There it meets `scalar_components` to 1e-7
    absolute: at n = 3..8, every sigma, lambda in {0.3, 1, 2.3, 5, 10, 25}
    and t = -9..9 the largest gap measured was 1.4e-12 (lambda = 25,
    |t| = 9); at n = 2..8 and lambda from 25.5 to 100 on 64 nodes per panel
    it was 3.7e-13, and 1.4e-11 at lambda = 108, past the domain.
    """
    t = float(t)
    if not abs(t) <= _ZONAL_T_MAX:
        raise ValueError(f"eisenstein_integral_at is evaluated for |t| <= {_ZONAL_T_MAX:g} "
                         f"only; got t = {t}")
    lam = abs(complex(pt.lam))
    if not lam <= _ZONAL_LAM_MAX:
        raise ValueError(f"eisenstein_integral_at is evaluated for |lambda| <= "
                         f"{_ZONAL_LAM_MAX:g} only; got lambda = {pt.lam}")
    spec, n = pt.spec, pt.n
    nodes = _ZONAL_NODES if lam <= _ZONAL_LAM_FINE else 2 * _ZONAL_NODES
    thetas, ws = _zonal_nodes(t, _ZONAL_PANELS, nodes)
    if n == 2:
        # M is trivial, so K = SO(2) is the whole circle: the mirrored nodes
        thetas, ws = np.concatenate((thetas, -thetas)), np.concatenate((ws, ws)) / 2.0
    eh, rot, kap = _zonal_iwasawa(t, thetas)
    weight = xr.dims(spec, pt.sigma)[2] * np.exp(-(1j * pt.lam + pt.rho) * np.log(eh))
    # sums[i, j] = sum over nodes of weight kap_i rot_j
    sums = (kap * (weight * rot[2] ** (n - 2) * ws)) @ rot.T
    basis = _plane_tau_basis(n, pt.p)
    left = basis @ xr.proj_matrix(spec, pt.sigma)
    out = {}
    for eta in xr.branching(spec):
        # traces[i, j] = tr(P_eta basis_i P_sigma basis_j^T)
        traces = np.einsum("iab,jab->ij", left, xr.proj_matrix(spec, eta).T @ basis)
        out[eta] = complex(np.sum(traces * sums) / (_zonal_mass(n) * xr.dims(spec, eta)[1]))
    return out
