"""Poisson, Radon and Fourier transforms for bundle-valued data.

Boundary data live in L^2(K, sigma), realized on the sigma-isotypic
subspace of Lambda^p coordinates.  The workhorse closed form is the
atom

    p^{g,v}(k) = sqrt(d_{tau,sigma}) e^{(i lam - rho) H(g^{-1}k)}
                 P_sigma tau(kappa(g^{-1}k))^{-1} v,

whose Poisson image is a translated spherical function, so the Poisson
transform of atomic data needs no integration at all.  General
sections go through Monte Carlo over Haar-random rotations with
deterministic seed-splitting.

Compactly supported bundle sections on G are integrated over horocycles
by tensor Gauss-Legendre quadrature in the N-coordinates (dn is taken
as gamma_N dy with gamma_N the constant that normalizes the opposite
horocyclic measure; the Fourier dual-path test pins this calibration),
in one batched routine over every (rotation, radius) pair.
The Euclidean Fourier transform of the horocycle integral gives the
Helgason-Fourier coefficient, and the spectral projection is its
Poisson synthesis weighted by the Plancherel density.
"""

from math import comb, gamma, pi, sqrt

import numpy as np

from . import extrep as xr
from . import liegroup as lg
from .extrep import FormVector
from .liegroup import GroupElement, KElement
from .spherical import (SpectralPoint, _sigma_projector, _spherical_batch,
                        plancherel_density, spherical_at, weyl_reflect)

__all__ = [
    "BoundaryAtom",
    "BoundarySection",
    "CompactSection",
    "atom_eval",
    "poisson_atom",
    "poisson_mc",
    "u_intertwine",
    "gram_matrix",
    "radon",
    "radon_sigma",
    "fourier_helgason",
    "fourier_direct_mc",
    "spectral_projection",
    "bump_section",
    "gamma_n_measure",
]


def gamma_n_measure(n):
    """Normalization of dn = gamma_N dy on the horocycle group: the
    constant making the opposite-horocycle integral of e^{-2 rho H}
    equal to one."""
    return gamma(n - 1) / (pi ** ((n - 1) / 2) * gamma((n - 1) / 2))


# Group matrices per block of the batched horocycle quadrature and of the
# energy capture's Iwasawa data; bounds the memory of one block
_GROUP_BLOCK = 8192


# ---------------------------------------------------------------------------
# boundary data


class BoundaryAtom:
    """Distinguished boundary datum (g, v); v a fiber vector of tau."""

    __slots__ = ("g", "v")

    def __init__(self, g, v):
        if not isinstance(g, GroupElement):
            g = GroupElement(np.asarray(g, dtype=float))
        if not isinstance(v, FormVector):
            raise TypeError("atom vector must be a FormVector")
        self.g = g
        self.v = v


class BoundarySection:
    """A section of the sigma-bundle over K: an atom combination at a
    fixed spectral point, or a black-box sampler with a sample budget."""

    def __init__(self, pt, atoms=None, sampler=None, budget=0):
        if (atoms is None) == (sampler is None):
            raise ValueError("exactly one of atoms/sampler must be given")
        self.pt = pt
        self.atoms = list(atoms) if atoms is not None else None
        self.sampler = sampler
        self.budget = int(budget)
        self._drawn = 0

    @classmethod
    def from_atoms(cls, pt, weighted_atoms):
        return cls(pt, atoms=[(a, complex(w)) for a, w in weighted_atoms])

    @classmethod
    def from_sampler(cls, pt, fn, budget):
        return cls(pt, sampler=fn, budget=budget)

    @property
    def is_atomic(self):
        return self.atoms is not None

    def eval_batch(self, kmats):
        """Values on a stack of rotations, shape (B, C(n,p))."""
        kmats = np.asarray(kmats, dtype=float)
        if kmats.ndim == 2:
            kmats = kmats[None]
        if self.is_atomic:
            out = np.zeros((kmats.shape[0], self.pt.spec.dim_full), dtype=complex)
            for atom, w in self.atoms:
                out += w * _atom_eval_batch(self.pt, atom, kmats)
            return out
        self._drawn += kmats.shape[0]
        if self.budget and self._drawn > self.budget:
            raise RuntimeError("sampler budget exhausted")
        return np.asarray(self.sampler(kmats), dtype=complex)


def _atom_eval_batch(pt, atom, kmats):
    mats = atom.g.inv().mat[None, :, :] @ lg._embed_rotation(kmats)
    h, _, kap = lg._iwasawa_full(mats)
    tk = xr.tau_matrix_batch(kap, pt.p)
    # tau(kappa)^{-1} v = tau(kappa)^T v
    vec = np.einsum("bji,j->bi", tk, atom.v.coeffs)
    proj = _sigma_projector(pt.spec, pt.sigma)
    vec = vec @ proj.T
    lam, rho = complex(pt.lam), pt.rho
    return sqrt(xr.dims(pt.spec, pt.sigma)[2]) * np.exp((1j * lam - rho) * h)[:, None] * vec


def atom_eval(pt, atom, k):
    """The atom section evaluated at one rotation."""
    km = k.mat if isinstance(k, KElement) else np.asarray(k, dtype=float)
    out = _atom_eval_batch(pt, atom, km[None])[0]
    return FormVector(pt.n, pt.p, out)


# ---------------------------------------------------------------------------
# Poisson transform


def poisson_atom(pt, atom, x):
    """Closed-form Poisson image of an atom: Phi(g^{-1} x) v."""
    gx = GroupElement(atom.g.inv().mat @ x.mat, check=False)
    out = spherical_at(pt, gx) @ atom.v.coeffs
    return FormVector(pt.n, pt.p, out, spec=pt.spec)


def _haar_chunks(samples, rng, chunk=4096):
    if rng is None:
        rng = np.random.default_rng(0)
    k = (samples + chunk - 1) // chunk
    try:
        subs = rng.spawn(k)
    except AttributeError:
        subs = [np.random.default_rng(s)
                for s in rng.bit_generator._seed_seq.spawn(k)]
    sizes = [chunk] * (samples // chunk)
    if samples % chunk:
        sizes.append(samples % chunk)
    return list(zip(subs, sizes))


def poisson_mc(pt, section, x, samples, rng=None):
    """Monte Carlo Poisson transform of a boundary section at x.

    Returns (FormVector, stderr) with the standard error aggregated
    over real and imaginary parts of all components.
    """
    if samples <= 0:
        raise ValueError("need a positive sample count")
    if section.sampler is not None and section.budget < samples:
        raise ValueError("sampler budget below requested samples")
    lam, rho = complex(pt.lam), pt.rho
    xinv = x.inv().mat
    root_d = sqrt(xr.dims(pt.spec, pt.sigma)[2])
    tot = tot2 = 0
    for sub_rng, b in _haar_chunks(samples, rng):
        ks = lg.haar_sample_K(pt.n, size=b, rng=sub_rng)
        fvals = section.eval_batch(ks)
        mats = xinv[None, :, :] @ lg._embed_rotation(ks)
        h, _, kap = lg._iwasawa_full(mats)
        tk = xr.tau_matrix_batch(kap, pt.p)
        integ = root_d * np.exp(-(1j * lam + rho) * h)[:, None] \
            * np.einsum("bij,bj->bi", tk, fvals)
        tot = tot + integ.sum(axis=0)
        tot2 = tot2 + (np.abs(integ) ** 2).sum(axis=0)
    mean = tot / samples
    var = np.maximum(tot2 / samples - np.abs(mean) ** 2, 0.0)
    stderr = float(np.sqrt(var.sum() / samples))
    return FormVector(pt.n, pt.p, mean), stderr


# ---------------------------------------------------------------------------
# intertwiner and Gram forms


def u_intertwine(pt, section):
    """Relabel an atom section to the Weyl-reflected spectral point
    (s sigma, -lambda); the atoms themselves are unchanged."""
    if not section.is_atomic:
        raise ValueError("intertwiner is only realized on atom sections")
    ssig, slam = weyl_reflect(pt.sigma, pt.lam)
    new_pt = SpectralPoint(pt.spec, ssig, slam)
    return BoundarySection.from_atoms(new_pt, section.atoms)


def gram_matrix(pt, atoms):
    """Gram matrix of atoms in L^2(K, sigma) via the closed form
    <p^{g1,v1}, p^{g2,v2}> = <Phi(g1^{-1} g2) v1, v2>."""
    m = len(atoms)
    if m == 0:
        return np.zeros((0, 0), dtype=complex)
    gs = np.stack([a.g.mat for a in atoms])
    vs = np.stack([a.v.coeffs for a in atoms])
    pairs = lg._inv_mats(gs)[:, None] @ gs[None, :]
    phi = _spherical_batch(pt, pairs.reshape((m * m,) + gs.shape[1:]))
    phi = phi.reshape((m, m) + phi.shape[1:])
    return np.einsum("jb,ijba,ia->ij", vs.conj(), phi, vs)


# ---------------------------------------------------------------------------
# compactly supported sections and the Radon transform


class CompactSection:
    """Right-covariant compactly supported section of the form bundle:
    f(gk) = tau(k)^{-1} f(g), vanishing for A^+(g) > r_supp."""

    def __init__(self, spec, fn_batch, r_supp, l2_norm=None):
        self.spec = spec
        self.fn_batch = fn_batch
        self.r_supp = float(r_supp)
        self._l2 = l2_norm

    def eval_batch(self, mats):
        return self.fn_batch(np.asarray(mats, dtype=float))

    def eval(self, g):
        m = g.mat if isinstance(g, GroupElement) else np.asarray(g, dtype=float)
        return FormVector(self.spec.n, self.spec.p, self.eval_batch(m[None])[0])

    def l2_norm(self):
        if self._l2 is None:
            raise ValueError("section does not carry a closed-form L2 norm")
        return self._l2


def bump_section(spec, r_supp, v0=None):
    """Smooth radial bump section f(g) = chi(A^+(g)) tau(pi0(g))^{-1} v0
    with the standard mollifier profile chi."""
    n, p = spec.n, spec.p
    if v0 is None:
        v = np.zeros(comb(n, p), dtype=complex)
        v[0] = 1.0
        if spec.chirality != "none":
            v = xr.chirality_matrix(n, spec.chirality) @ v
        v0 = v / np.linalg.norm(v)
    else:
        v0 = np.asarray(v0, dtype=complex)

    def chi(t):
        t = np.asarray(t, dtype=float)
        u = np.clip(t / r_supp, 0.0, 1.0)
        out = np.zeros_like(u)
        inside = u < 1.0
        out[inside] = np.exp(1.0 - 1.0 / (1.0 - u[inside] ** 2))
        return out

    def fn(mats):
        d = mats[..., -1, -1]
        t = np.arccosh(np.maximum(d, 1.0))
        c = chi(t)
        out = np.zeros(mats.shape[:-2] + (comb(n, p),), dtype=complex)
        live = c > 0.0
        if np.any(live):
            blocks = lg._polar_block(mats[live])
            tk = xr.tau_matrix_batch(blocks, p)
            out[live] = c[live, None] * np.einsum("bji,j->bi", tk, v0)
        return out

    # ||f||^2 = ||v0||^2 int chi(t)^2 (2 sinh t)^(n-1) dt, radial profile
    ts, ws = np.polynomial.legendre.leggauss(200)
    ts = 0.5 * r_supp * (ts + 1.0)
    ws = 0.5 * r_supp * ws
    l2 = sqrt(float(np.sum(ws * chi(ts) ** 2 * (2.0 * np.sinh(ts)) ** (spec.n - 1)))
              * float(np.vdot(v0, v0).real))
    return CompactSection(spec, fn, r_supp, l2_norm=l2)


def _radon_batch(f, ts, kmats, grid=32):
    """Horocycle integrals e^{rho t} int_N f(k a_t n) dn for every pair
    of rotations kmats (K, n, n) and radii ts (T,), shape (K, T, dim).

    One tensor Gauss-Legendre grid on [-1, 1]^(n-1) serves every t,
    scaled to the half-width y_half(t) of the support's horocycle
    section; pairs with |t| >= r_supp are zero.  The group matrices are
    formed and evaluated in blocks of about _GROUP_BLOCK.  n <= 4 only.
    """
    n = f.spec.n
    if n > 4:
        raise ValueError("horocycle quadrature supported for n <= 4")
    m = n - 1
    rho = (n - 1) / 2.0
    ts = np.asarray(ts, dtype=float)
    kmats = np.asarray(kmats, dtype=float)
    out = np.zeros((kmats.shape[0], ts.size, f.spec.dim_full), dtype=complex)
    live = np.abs(ts) < f.r_supp
    if not np.any(live):
        return out
    xs, ws = np.polynomial.legendre.leggauss(grid)
    unit_ys = np.stack([g.reshape(-1) for g in np.meshgrid(*([xs] * m), indexing="ij")],
                       axis=-1)
    unit_ws = np.prod([w.reshape(-1) for w in np.meshgrid(*([ws] * m), indexing="ij")],
                      axis=0)
    tl = ts[live]
    y_half = np.sqrt(2.0 * np.exp(-tl) * (np.cosh(f.r_supp) - np.cosh(tl)))
    scale = y_half ** m * np.exp(rho * tl) * gamma_n_measure(n)
    base = lg._embed_rotation(kmats)[:, None] @ lg._at_mat(tl, n)
    kk, tt = (a.reshape(-1) for a in np.indices(base.shape[:2]))
    step = max(1, _GROUP_BLOCK // unit_ws.size)
    vals = np.empty((kk.size, f.spec.dim_full), dtype=complex)
    for lo in range(0, kk.size, step):
        k, t = kk[lo:lo + step], tt[lo:lo + step]
        mats = base[k, t][:, None] @ lg._ny_mat(y_half[t, None, None] * unit_ys, n)
        fv = f.eval_batch(mats.reshape((-1,) + mats.shape[2:]))
        vals[lo:lo + step] = unit_ws @ fv.reshape(k.size, unit_ws.size, -1)
    out[:, live] = vals.reshape(base.shape[:2] + (-1,)) * scale[:, None]
    return out


def radon(f, t, k, grid=32):
    """Horocycle integral e^{rho t} int_N f(k a_t n) dn by tensor
    Gauss-Legendre over the y-coordinates of N; n <= 4 only."""
    km = k.mat if isinstance(k, KElement) else np.asarray(k, dtype=float)
    total = _radon_batch(f, [float(t)], km[None], grid=grid)[0, 0]
    return FormVector(f.spec.n, f.spec.p, total)


def _sigma_part(pt, vals):
    """sqrt(d_{tau,sigma}) P_sigma applied to the last axis of vals."""
    proj = _sigma_projector(pt.spec, pt.sigma)
    return sqrt(xr.dims(pt.spec, pt.sigma)[2]) * (vals @ proj.T)


def radon_sigma(pt, f, t, k, grid=32):
    """Partial Radon transform sqrt(d_{tau,sigma}) P_sigma Radon f."""
    r = radon(f, t, k, grid=grid)
    return FormVector(f.spec.n, f.spec.p, _sigma_part(pt, r.coeffs))


def _fourier_batch(f, pt, kmats, t_nodes=48, grid=32):
    """Helgason-Fourier coefficients at stacked rotations (K, n, n):
    the partial Radon transform integrated against e^{-i lam t} over
    t in [-R, R] by t_nodes-point Gauss-Legendre, shape (K, dim)."""
    ts, ws = np.polynomial.legendre.leggauss(t_nodes)
    ts = f.r_supp * ts
    ws = f.r_supp * ws
    rad = _radon_batch(f, ts, kmats, grid=grid)
    weight = ws * np.exp(-1j * complex(pt.lam) * ts)
    return _sigma_part(pt, np.einsum("t,kta->ka", weight, rad))


def fourier_helgason(f, pt, k, t_nodes=48, grid=32):
    """Helgason-Fourier coefficient: the 1D Euclidean Fourier integral
    of the partial Radon transform over t in [-R, R]."""
    km = k.mat if isinstance(k, KElement) else np.asarray(k, dtype=float)
    total = _fourier_batch(f, pt, km[None], t_nodes=t_nodes, grid=grid)[0]
    return FormVector(f.spec.n, f.spec.p, total)


def fourier_direct_mc(f, pt, k, samples, rng=None):
    """The same coefficient from the group-integral definition

        sqrt(d_{tau,sigma}) int_G e^{(i lam - rho) H(g^{-1}k)}
            P_sigma tau(kappa(g^{-1}k))^{-1} f(g) dg

    by Monte Carlo in radial-times-rotations coordinates; the oracle
    for the Radon path.  Returns (FormVector, stderr).
    """
    if rng is None:
        rng = np.random.default_rng(0)
    n, p = f.spec.n, f.spec.p
    lam, rho = complex(pt.lam), pt.rho
    km = k.mat if isinstance(k, KElement) else np.asarray(k, dtype=float)
    kemb = lg._embed_rotation(km)
    # radial density (2 sinh t)^(n-1) on [0, R] via inverse-cdf table
    tgrid = np.linspace(0.0, f.r_supp, 4001)
    dens = (2.0 * np.sinh(tgrid)) ** (n - 1)
    cdf = np.concatenate([[0.0], np.cumsum(0.5 * (dens[1:] + dens[:-1]) * np.diff(tgrid))])
    mass = cdf[-1]
    cdf /= mass
    proj = _sigma_projector(pt.spec, pt.sigma)
    tot = np.zeros(f.spec.dim_full, dtype=complex)
    tot2 = np.zeros(f.spec.dim_full)
    done = 0
    while done < samples:
        b = min(8192, samples - done)
        u = rng.random(b)
        ts = np.interp(u, cdf, tgrid)
        k1 = lg.haar_sample_K(n, size=b, rng=rng)
        k2 = lg.haar_sample_K(n, size=b, rng=rng)
        gs = lg._embed_rotation(k1) @ lg._at_mat(ts, n) @ lg._embed_rotation(k2)
        fvals = f.eval_batch(gs)
        args = np.einsum("bij,jk->bik", lg._inv_mats(gs), kemb)
        h, _, kap = lg._iwasawa_full(args)
        tk = xr.tau_matrix_batch(kap, p)
        integ = np.exp((1j * lam - rho) * h)[:, None] \
            * np.einsum("ij,bkj,bk->bi", proj, tk, fvals)
        tot += integ.sum(axis=0)
        tot2 += (np.abs(integ) ** 2).sum(axis=0)
        done += b
    scale = mass * sqrt(xr.dims(pt.spec, pt.sigma)[2])
    mean = tot / samples * scale
    var = np.maximum(tot2 / samples - np.abs(tot / samples) ** 2, 0.0) * scale ** 2
    stderr = float(np.sqrt(var.sum() / samples))
    return FormVector(n, p, mean), stderr


def spectral_projection(f, pt, g, k_samples=2000, t_nodes=40, grid=24, rng=None):
    """Spectral projection Q f(g) = nu_sigma(lambda) P(F f)(g).

    The Helgason-Fourier coefficients enter poisson_mc as a sampler
    section, which integrates tau(kappa) against them (the Poisson
    kernel orientation).  Returns (FormVector, stderr).
    """
    nu = plancherel_density(pt)

    def sampler(kmats):
        return _fourier_batch(f, pt, kmats, t_nodes=t_nodes, grid=grid)

    section = BoundarySection.from_sampler(pt, sampler, budget=k_samples)
    vec, err = poisson_mc(pt, section, g, k_samples, rng=rng)
    return FormVector(pt.n, pt.p, nu * vec.coeffs), nu * err
