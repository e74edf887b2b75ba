"""Poisson, Radon and Fourier transforms for bundle-valued data.

Boundary data live in L^2(K, sigma), realized on the sigma-isotypic
subspace of Lambda^p coordinates.  The workhorse closed form is the
atom

    p^{g,v}(k) = sqrt(d_{tau,sigma}) e^{(i lam - rho) H(g^{-1}k)}
                 P_sigma tau(kappa(g^{-1}k))^{-1} v,

the transposed Poisson kernel at -lambda.  Every Poisson kernel here
takes H and kappa of g^{-1} k from liegroup.iwasawa_translates and meets
vectors through extrep.tau_vec_batch.  The atom's Poisson image is a
translated spherical function, so the Poisson transform of atomic data
needs no integration at all.  General sections go through Monte Carlo
over Haar-random rotations with deterministic seed-splitting.

The compactly supported section on G is the radial bump
f(g) = chi(A^+(g)) tau(pi0(g))^{-1} v0.  It is integrated over
horocycles by tensor Gauss-Legendre quadrature in the N-coordinates (dn
is taken as gamma_N dy with gamma_N the constant that normalizes the
opposite horocyclic measure; the Fourier dual-path test pins this
calibration).  Because f(kh) = chi(A^+(h)) tau(pi0(h))^T tau(k)^T v0,
the quadrature forms one real matrix per radius, and the rotations
enter only through the vectors tau(k)^T v0.
The Euclidean Fourier transform of the horocycle integral gives the
Helgason-Fourier coefficient.  Since f is tau-radial, that coefficient
is also b_sigma(lambda) P_sigma tau(k)^T v0 with b_sigma the 1D
spherical transform of chi (strichartz.bump_transform).
"""

from math import gamma, isfinite, pi, sqrt

import numpy as np

from . import extrep as xr
from . import liegroup as lg
from .extrep import FormVector
from .liegroup import GroupElement, KElement
from .specialfn import gauss_legendre
from .spherical import radial_batch

__all__ = [
    "BoundaryAtom",
    "BoundarySection",
    "CompactSection",
    "poisson_atom",
    "poisson_mc",
    "gram_matrix",
    "radon",
    "radon_batch",
    "sigma_part",
    "fourier_batch",
    "fourier_helgason",
    "fourier_direct_mc",
    "bump_section",
    "gamma_n_measure",
]


def gamma_n_measure(n):
    """Normalization of dn = gamma_N dy on the horocycle group: the
    constant making the opposite-horocycle integral of e^{-2 rho H}
    equal to one."""
    return gamma(n - 1) / (pi ** ((n - 1) / 2) * gamma((n - 1) / 2))


# Group matrices per block of the batched horocycle quadrature; bounds the
# memory of one block
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
        """Values on a stack of rotations, shape (B, C(n,p)); every atom
        through one Iwasawa kernel (at a rotation k_a: H = 0, kappa = k_a^T k)."""
        kmats = np.asarray(kmats, dtype=float)
        if kmats.ndim == 2:
            kmats = kmats[None]
        if self.is_atomic:
            pt, rots = self.pt, kmats.transpose(1, 2, 0)
            out = np.zeros((len(kmats), pt.spec.dim_full), dtype=complex)
            for atom, w in self.atoms:
                # tau(kappa)^{-1} = tau(kappa)^T: the atom is the dual kernel at g^{-1} k
                h, _, kappa = lg.iwasawa_translates(atom.g.mat, rots)
                vals = xr.tau_vec_batch(kappa.transpose(2, 1, 0), pt.p, atom.v.coeffs)
                out += (w * np.exp((1j * pt.lam - pt.rho) * h))[:, None] * vals
            return sigma_part(pt, out)
        self._drawn += kmats.shape[0]
        if self.budget and self._drawn > self.budget:
            raise RuntimeError("sampler budget exhausted")
        return np.asarray(self.sampler(kmats), dtype=complex)

    def rotation_fold(self, kmats):
        """(u = sum_a w_a tau(k_a^T k)^T v_a (B, C), the other (atom, w) pairs)
        on rotations kmats (B, n, n), over atoms at a rotation k_a (liegroup.
        rotation_block): g_a^{-1} k = diag(k_a^T k, 1) has H = 0, so the atom is
        sqrt(d_{tau,sigma}) P_sigma tau(k_a^T k)^T v_a, and k_a^T k keeps the
        Iwasawa step's gate (ArithmeticError past 1e-8 of orthogonal)."""
        u, rest = np.zeros((len(kmats), self.pt.spec.dim_full), dtype=complex), []
        for atom, w in self.atoms:
            k_a = lg.rotation_block(atom.g)
            if k_a is None:
                rest.append((atom, w))
                continue
            rots = k_a.T @ kmats
            lg.gate_k(rots, "rotation atom")
            u += w * xr.tau_vec_batch(np.swapaxes(rots, -1, -2), self.pt.p, atom.v.coeffs)
        return u, rest


# ---------------------------------------------------------------------------
# Poisson transform


def poisson_atom(pt, atom, x):
    """Closed-form Poisson image of an atom: Phi(g^{-1} x) v."""
    out = radial_batch(pt, (atom.g.inv().mat @ x.mat)[None], vecs=atom.v.coeffs)[0]
    return FormVector(pt.n, pt.p, out, spec=pt.spec)


def _haar_chunks(samples, rng, chunk):
    if rng is None:
        rng = np.random.default_rng(0)
    k = (samples + chunk - 1) // chunk
    subs = rng.spawn(k)
    sizes = [chunk] * (samples // chunk)
    if samples % chunk:
        sizes.append(samples % chunk)
    return list(zip(subs, sizes))


def poisson_mc(pt, section, x, samples, rng=None):
    """Monte Carlo Poisson transform of a boundary section at x.

    Returns (FormVector, stderr) with the standard error aggregated
    over real and imaginary parts of all components.  Rotations are drawn
    in chunks of min(4096, 2^20 / C(n,p)^2), each from its own generator
    spawned off rng (_haar_chunks): the size fixes the draws, not memory.
    """
    if samples <= 0:
        raise ValueError("need a positive sample count")
    if section.sampler is not None and section.budget < samples:
        raise ValueError("sampler budget below requested samples")
    chunk = min(4096, 2 ** 20 // pt.spec.dim_full ** 2)
    tot = tot2 = 0
    for sub_rng, b in _haar_chunks(samples, rng, chunk):
        ks = lg.haar_sample_K(pt.n, size=b, rng=sub_rng)
        fvals = section.eval_batch(ks)
        # the kernel sqrt(d_{tau,sigma}) e^{-(i lam + rho) H} tau(kappa) at x^{-1} k
        h, _, kappa = lg.iwasawa_translates(x.mat, ks.transpose(1, 2, 0))
        weight = sqrt(xr.dims(pt.spec, pt.sigma)[2]) * np.exp(-(1j * complex(pt.lam) + pt.rho) * h)
        integ = weight[:, None] * xr.tau_vec_batch(kappa.transpose(2, 0, 1), pt.p, fvals)
        tot = tot + integ.sum(axis=0)
        tot2 = tot2 + (np.abs(integ) ** 2).sum(axis=0)
    mean = tot / samples
    var = np.maximum(tot2 / samples - np.abs(mean) ** 2, 0.0)
    stderr = float(np.sqrt(var.sum() / samples))
    return FormVector(pt.n, pt.p, mean), stderr


# ---------------------------------------------------------------------------
# Gram forms


def gram_matrix(pt, atoms):
    """Gram matrix of atoms in L^2(K, sigma) via the closed form
    <p^{g1,v1}, p^{g2,v2}> = <Phi(g1^{-1} g2) v1, v2>."""
    m = len(atoms)
    if m == 0:
        return np.zeros((0, 0), dtype=complex)
    gs = np.stack([a.g.mat for a in atoms])
    vs = np.stack([a.v.coeffs for a in atoms])
    pairs = lg.inv_mats(gs)[:, None] @ gs[None, :]
    # entry (i, j) is Phi(g_i^{-1} g_j) v_i, paired with v_j
    phi_v = radial_batch(pt, pairs, vecs=vs[:, None])
    return np.sum(phi_v * vs.conj()[None], axis=-1)


# ---------------------------------------------------------------------------
# compactly supported sections and the Radon transform


class CompactSection:
    """The radial bump section of the form bundle,

        f(g) = chi(A^+(g)) tau(pi0(g))^{-1} v0,

    with the standard mollifier profile chi vanishing for A^+(g) >=
    r_supp, which must be finite and positive (ValueError otherwise).
    It is right-covariant, f(gk) = tau(k)^{-1} f(g), and since
    pi0(kg) = k pi0(g), f(kg) = tau(pi0(g))^T tau(k)^T v0."""

    def __init__(self, spec, r_supp, v0):
        self.spec = spec
        self.r_supp = float(r_supp)
        if not (isfinite(self.r_supp) and self.r_supp > 0.0):
            raise ValueError(f"support radius r_supp must be finite and positive; got {r_supp}")
        self.v0 = np.asarray(v0, dtype=complex)

    def chi(self, t):
        """Radial profile exp(1 - 1/(1 - (t/r_supp)^2)), zero off support."""
        u = np.clip(np.asarray(t, dtype=float) / self.r_supp, 0.0, 1.0)
        out = np.zeros_like(u)
        inside = u < 1.0
        out[inside] = np.exp(1.0 - 1.0 / (1.0 - u[inside] ** 2))
        return out

    def frames(self, mats):
        """The real stack chi(A^+(g)) tau(pi0(g))^T, shape (..., C, C)."""
        mats = np.asarray(mats, dtype=float)
        c = self.chi(lg.cartan_radius(mats))
        dim = self.spec.dim_full
        out = np.zeros(mats.shape[:-2] + (dim, dim))
        live = c > 0.0
        if np.any(live):
            taus = xr.tau_matrix_batch(lg.polar_blocks(mats[live]), self.spec.p)
            out[live] = c[live, None, None] * np.swapaxes(taus, -1, -2)
        return out

    def eval_batch(self, mats):
        """Values f(g) on a stack of group matrices, shape (..., C)."""
        return xr.tau_apply_batch(self.frames(mats), self.v0[:, None])[..., 0]


def bump_section(spec, r_supp, v0=None):
    """The radial bump section of radius r_supp with fiber vector v0
    (default extrep.default_vector); r_supp must be finite and positive
    (ValueError otherwise)."""
    v0 = xr.default_vector(spec).coeffs if v0 is None else v0
    return CompactSection(spec, r_supp, v0)


def radon_batch(f, ts, kmats, grid=32):
    """Horocycle integrals e^{rho t} int_N f(k a_t n) dn for every pair
    of rotations kmats (K, n, n) and radii ts (T,), shape (K, T, dim).

    Since f(k h) = f.frames(h) tau(k)^T v0, each radius needs one real
    C(n,p) x C(n,p) matrix e^{rho t} int_N f.frames(a_t n) dn, and every
    rotation's tau(k)^T v0 meets those matrices in one product.  One
    tensor Gauss-Legendre grid on [-1, 1]^(n-1) serves every t, scaled
    to the half-width y_half(t) of the support's horocycle section;
    radii with |t| >= r_supp give zero.  The group matrices a_t n_y are
    formed in blocks of about _GROUP_BLOCK.  n <= 4 only.
    """
    n, p, dim = f.spec.n, f.spec.p, f.spec.dim_full
    if n > 4:
        raise ValueError("horocycle quadrature supported for n <= 4")
    m = n - 1
    rho = (n - 1) / 2.0
    ts = np.asarray(ts, dtype=float)
    xs, ws = gauss_legendre(grid)
    unit_ys = np.stack([g.reshape(-1) for g in np.meshgrid(*([xs] * m), indexing="ij")],
                       axis=-1)
    unit_ws = np.prod([w.reshape(-1) for w in np.meshgrid(*([ws] * m), indexing="ij")],
                      axis=0)
    live = np.flatnonzero(np.abs(ts) < f.r_supp)
    step = max(1, _GROUP_BLOCK // unit_ws.size)
    per_t = np.zeros((ts.size, dim, dim))
    for lo in range(0, live.size, step):
        block = live[lo:lo + step]
        t = ts[block]
        y_half = np.sqrt(2.0 * np.exp(-t) * (np.cosh(f.r_supp) - np.cosh(t)))
        scale = y_half ** m * np.exp(rho * t) * gamma_n_measure(n)
        mats = lg.at_mats(t, n)[:, None] @ lg.ny_mats(y_half[:, None, None] * unit_ys, n)
        frames = f.frames(mats).reshape(t.size, unit_ws.size, -1)
        per_t[block] = (unit_ws @ frames).reshape(-1, dim, dim) * scale[:, None, None]
    vecs = xr.tau_vec_batch(np.swapaxes(np.ascontiguousarray(kmats, dtype=float), -1, -2), p, f.v0)
    return np.moveaxis(xr.tau_apply_batch(per_t, vecs.T), -1, 0)


def radon(f, t, k, grid=32):
    """Horocycle integral e^{rho t} int_N f(k a_t n) dn by tensor
    Gauss-Legendre over the y-coordinates of N; n <= 4 only."""
    km = k.mat if isinstance(k, KElement) else np.asarray(k, dtype=float)
    total = radon_batch(f, [float(t)], km[None], grid=grid)[0, 0]
    return FormVector(f.spec.n, f.spec.p, total)


def sigma_part(pt, vals):
    """sqrt(d_{tau,sigma}) P_sigma applied to the last axis of vals."""
    proj = xr.proj_matrix(pt.spec, pt.sigma)
    return sqrt(xr.dims(pt.spec, pt.sigma)[2]) * (vals @ proj.T)


def fourier_batch(f, pt, kmats, t_nodes=48, grid=32):
    """Helgason-Fourier coefficients at stacked rotations (K, n, n):
    the partial Radon transform integrated against e^{-i lam t} over
    t in [-R, R] by t_nodes-point Gauss-Legendre, shape (K, dim).  One
    radon_batch serves every rotation, so the horocycle matrices are
    formed once per call, not once per rotation."""
    ts, ws = gauss_legendre(t_nodes)
    ts = f.r_supp * ts
    ws = f.r_supp * ws
    rad = radon_batch(f, ts, kmats, grid=grid)
    weight = ws * np.exp(-1j * complex(pt.lam) * ts)
    return sigma_part(pt, np.einsum("t,kta->ka", weight, rad))


def fourier_helgason(f, pt, k, t_nodes=48, grid=32):
    """Helgason-Fourier coefficient: the 1D Euclidean Fourier integral
    of the partial Radon transform over t in [-R, R]; fourier_batch at
    one rotation."""
    km = k.mat if isinstance(k, KElement) else np.asarray(k, dtype=float)
    total = fourier_batch(f, pt, km[None], t_nodes=t_nodes, grid=grid)[0]
    return FormVector(f.spec.n, f.spec.p, total)


def fourier_direct_mc(f, pt, k, samples, rng=None):
    """The same coefficient from the group-integral definition

        sqrt(d_{tau,sigma}) int_G e^{(i lam - rho) H(g^{-1}k)}
            P_sigma tau(kappa(g^{-1}k))^{-1} f(g) dg

    by Monte Carlo in radial-times-rotations coordinates; the oracle
    for the Radon path, drawn in blocks of min(8192, 2^20 / C(n,p)^2)
    (at most 2^20 Lambda^p entries).  Returns (FormVector, stderr).
    """
    if rng is None:
        rng = np.random.default_rng(0)
    n, p = f.spec.n, f.spec.p
    km = k.mat if isinstance(k, KElement) else np.asarray(k, dtype=float)
    # radial density (2 sinh t)^(n-1) on [0, R] via inverse-cdf table
    tgrid = np.linspace(0.0, f.r_supp, 4001)
    dens = lg.radial_weight(tgrid, n)
    cdf = np.concatenate([[0.0], np.cumsum(0.5 * (dens[1:] + dens[:-1]) * np.diff(tgrid))])
    mass = cdf[-1]
    cdf /= mass
    tot = np.zeros(f.spec.dim_full, dtype=complex)
    tot2 = np.zeros(f.spec.dim_full)
    block = min(8192, 2 ** 20 // f.spec.dim_full ** 2)
    for lo in range(0, samples, block):
        b = min(block, samples - lo)
        u = rng.random(b)
        ts = np.interp(u, cdf, tgrid)
        k1 = lg.haar_sample_K(n, size=b, rng=rng)
        k2 = lg.haar_sample_K(n, size=b, rng=rng)
        gs = lg.embed_rotation(k1) @ lg.at_mats(ts, n) @ lg.embed_rotation(k2)
        fvals = f.eval_batch(gs)
        # the dual kernel at g^{-1} k, as the atoms' (BoundarySection.eval_batch)
        h, _, kappa = lg.iwasawa_translates(gs.transpose(1, 2, 0), km)
        vals = xr.tau_vec_batch(kappa.transpose(2, 1, 0), p, fvals)
        integ = sigma_part(pt, np.exp((1j * pt.lam - pt.rho) * h)[:, None] * vals)
        tot += integ.sum(axis=0)
        tot2 += (np.abs(integ) ** 2).sum(axis=0)
    mean = tot / samples * mass
    var = np.maximum(tot2 / samples - np.abs(tot / samples) ** 2, 0.0) * mass ** 2
    stderr = float(np.sqrt(var.sum() / samples))
    return FormVector(n, p, mean), stderr
