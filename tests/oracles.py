"""Independent oracles that the library itself never calls.

eisenstein_literal is spherical.eisenstein_integral_at as it stood
before its closed form: the Poisson kernel of the zonal group matrices,
two stacks of minors and a trace per node.
j_pair_grid integrates the rotation-reduced inversion kernel over the
zonal angle with closed-form Iwasawa data; the tests pin against it
the closed form (d_eta/d_tau) conj phi^{(eta', mu)}_eta(t), the
conjugate spherical components of the output block's own point, and
strichartz.inversion_ratios.
energy_capture_loop is the Monte Carlo oracle of the closed-form
energy capture strichartz.spectral_projection_energy: points of the ball
and Haar rotations, the Poisson kernel applied to the horocycle
transform's Fourier profile one (lambda, sigma) at a time as a complex
einsum, and the mean square debiased by the per-component variance.  radon_pairs is the horocycle quadrature of
transforms.radon_batch done per (rotation, radius) pair on the group
matrices k a_t n_y, with no use of the section's left equivariance.
inversion_mc_loop is the literal Monte Carlo reconstruction of
strichartz.inversion_reconstruct with the Poisson image formed one
t-node at a time through spherical.radial_batch on every atom, with
no tau-radial factoring for atoms at a rotation.  CartanGeometryK is
spherical.CartanGeometry as it stood with the Cartan K factors, tau(k1)
and tau(k2), and one projector product per M-type.  cartan_batch_copy
is the stacked Cartan decomposition that liegroup.cartan was a
one-element call of, as it stood before its temporaries were cut, which
liegroup.cartan must reproduce bit for bit, and
iwasawa_batch_product is iwasawa_batch as it stood before kappa was
read off g's columns.  iwasawa_batch (with iwasawa_hy),
iwasawa_boosted_batch and PoissonKernel are the Iwasawa kernels and
the Poisson kernel of stacked group matrices as they stood before
liegroup.iwasawa_translates replaced them, unchanged: the literal
references of that kernel, of the boundary atoms and of the Monte Carlo
transforms, on explicit products g^{-1} embed(k).  poisson_mc_literal
and fourier_direct_mc_literal are transforms.poisson_mc and
transforms.fourier_direct_mc as they stood then, on the same draws.  iwasawa_mp decomposes group elements
that group_mp builds exactly (from rotation_mp rotations), at the
caller's mpmath precision.  haar_sample_K_qr is
liegroup.haar_sample_K as it stood before stacks took the whole-stack
Householder sweep: one LAPACK QR per matrix and a stacked det.
series_nterms_blocks is the term-count scan of specialfn._Series.sum
as it stood before the scalar scan: blocks of
the table at the largest w, with each block's partial sums formed as
the carried sum plus the block's cumulative sum.  log_gamma_loop is
specialfn._log_gamma with its Lanczos sum as the term-by-term loop it
stood as, and c_jacobi_loop is specialfn.c_jacobi on it; the library
must reproduce both bit for bit.  e_defect,
u_intertwine and spectral_projection are the horocyclic defect, the
Weyl relabelling of atom sections and the Monte Carlo spectral
projection, which only the tests use; weyl_reflect is the Weyl
action on (sigma, lambda), and c_sigma_formula the four per-sigma
formulas of c_sigma that spherical._component_table replaced.  contract_e1_matrix is the
contraction by e_1, built on index tuples rather than bit masks, for the
wedge and projector identities of extrep.
"""

from itertools import combinations
from math import comb, sqrt

import mpmath
import numpy as np

import hyperform.extrep as xr
import hyperform.liegroup as lg
import hyperform.specialfn as sf
import hyperform.spherical as sph
import hyperform.strichartz as st
import hyperform.transforms as tfm


def contract_e1_matrix(n, p):
    """iota_{e_1} : Lambda^p -> Lambda^(p-1) on the colex bases: e_1 ^ e_J goes
    to e_J (sign +1, as e_1 comes first), a subset without 1 to 0."""
    def basis(q):
        return sorted(combinations(range(n), q), key=lambda s: sum(1 << i for i in s))

    rows = {s: i for i, s in enumerate(basis(p - 1))}
    out = np.zeros((comb(n, p - 1), comb(n, p)))
    for j, s in enumerate(basis(p)):
        if s[0] == 0:
            out[rows[s[1:]], j] = 1.0
    return out


def zonal_iwasawa(t, thetas):
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


def eisenstein_literal(pt, t, lams=None):
    """spherical.eisenstein_integral_at as it stood before its closed
    form, at each lambda of lams (default (pt.lam,)), as a list of
    {eta: component} dicts: the Poisson kernel of the group matrices
    a_{-t} R(theta) on the same zonal nodes, the minors of kappa and of
    R(theta) as two stacks, and each eta's trace
    tr(P_eta tau(kappa) P_sigma tau(R(theta))^T) node by node.  Its H
    and kappa come from the matrix product, so near the e^{-|t|} layer
    they carry e^{|t|}-ulp cancellation that the closed form avoids.
    At n = 2, where M is trivial and K = SO(2), the nodes are mirrored to
    cover the whole circle, theta in [-pi, pi].
    """
    spec, n, p = pt.spec, pt.n, pt.p
    thetas, ws = sph._zonal_nodes(t, sph._ZONAL_PANELS, sph._ZONAL_NODES)
    if n == 2:
        thetas, ws = np.concatenate((thetas, -thetas)), np.concatenate((ws, ws)) / 2.0
    rots = lg.plane_rotations(n, np.cos(thetas), np.sin(thetas))
    ker = PoissonKernel(lg.make_at(-t, n).mat[None, :, :] @ lg.embed_rotation(rots), p)
    tau_kappa, tau_rot = xr.tau_matrix_batch(ker.kappa, p), xr.tau_matrix_batch(rots, p)
    p_sigma = xr.proj_matrix(spec, pt.sigma)
    etas = xr.branching(spec)
    # tr(P_eta tau(kappa) P_sigma tau(rot)^T) = sum (tau(kappa) P_sigma) o (P_eta^T tau(rot)),
    # taken over blocks of nodes
    trs = np.empty((len(etas), len(thetas)), dtype=complex)
    for lo in range(0, len(thetas), 128):
        blk = slice(lo, lo + 128)
        left = tau_kappa[blk] @ p_sigma
        for tr, eta in zip(trs, etas):
            tr[blk] = np.einsum("kab,kab->k", left, xr.proj_matrix(spec, eta).T @ tau_rot[blk])
    jac = np.sin(thetas) ** (n - 2) * ws
    out = []
    for lam in (pt.lam,) if lams is None else lams:
        # the kernel's weight carries one factor sqrt(d_{tau,sigma})
        weight = ker.weight(pt, lam) * sqrt(xr.dims(spec, pt.sigma)[2])
        out.append({eta: complex(np.sum(jac * weight * tr) / (sph._zonal_mass(n)
                                                               * xr.dims(spec, eta)[1]))
                    for eta, tr in zip(etas, trs)})
    return out


def j_pair_grid(pt, ts, mu, n_panels=12, n_nodes=24):
    """Zonal quadrature of the rotation-reduced inversion kernel; the
    oracle of its closed form (d_eta/d_tau) conj phi^{(eta', mu)}_eta(t).

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
    blocks = xr.sigma_blocks(spec, pt.sigma)
    etas = list(xr.branching(spec))
    proj = {eta: xr.proj_matrix(spec, eta) for eta in etas}
    d_eta = {eta: xr.dims(spec, eta)[1] for eta in etas}
    mass = sph._zonal_mass(n)
    out = {(b, eta): np.zeros(len(ts), dtype=complex)
           for b in blocks for eta in etas}
    for idx, t in enumerate(np.asarray(ts, dtype=float)):
        # the geometric refinement must keep each panel below a fixed
        # scale ratio, so the panel count grows linearly with t
        np_t = max(n_panels, int(np.ceil(abs(t) / 1.5)) + 2)
        thetas, ws = sph._zonal_nodes(t, np_t, n_nodes)
        rots = lg.plane_rotations(n, np.cos(thetas), np.sin(thetas))
        hs, cpsi, spsi = zonal_iwasawa(t, thetas)
        kappas = lg.plane_rotations(n, cpsi, spsi)
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


def radon_pairs(f, ts, kmats, grid):
    """e^{rho t} int_N f(k a_t n) dn for every rotation of kmats (K, n, n)
    and radius of ts (T,), shape (K, T, dim): f.eval_batch on k a_t n_y
    over the tensor Gauss-Legendre grid scaled to the half-width
    y_half(t) of the support's horocycle section."""
    n = f.spec.n
    m = n - 1
    ts = np.asarray(ts, dtype=float)
    out = np.zeros((len(kmats), ts.size, f.spec.dim_full), dtype=complex)
    xs, ws = np.polynomial.legendre.leggauss(grid)
    unit_ys = np.stack([g.reshape(-1) for g in np.meshgrid(*([xs] * m), indexing="ij")],
                       axis=-1)
    unit_ws = np.prod([w.reshape(-1) for w in np.meshgrid(*([ws] * m), indexing="ij")],
                      axis=0)
    for j, t in enumerate(ts):
        if abs(t) >= f.r_supp:
            continue
        y_half = np.sqrt(2.0 * np.exp(-t) * (np.cosh(f.r_supp) - np.cosh(t)))
        scale = y_half ** m * np.exp(0.5 * m * t) * tfm.gamma_n_measure(n)
        ny = lg.ny_mats(y_half * unit_ys, n)
        for i, k in enumerate(kmats):
            mats = lg.embed_rotation(k) @ lg.at_mats(t, n) @ ny
            out[i, j] = scale * (unit_ws @ f.eval_batch(mats))
    return out


def energy_capture_loop(f, lam_grid, R, g_samples, k_samples, t_nodes, grid, rng):
    """The rows {"lam", "energy", "per_sigma"} of the windowed energy
    capture by Monte Carlo: g_samples ball points g_i = k_i a_{t_i} (t
    uniform on [0, R]), k_samples Haar rotations u_j, and for each lambda
    and sigma K_lambda(g_i^{-1} u_j) fv_j as an (I, J, C) array, its mean
    over j and its per-component second moment.  Unbiased for
    strichartz.spectral_projection_energy up to the horocycle quadrature
    (t_nodes, grid); n <= 4."""
    spec = f.spec
    n = spec.n
    t_i = rng.random(g_samples) * R
    k_i = lg.haar_sample_K(n, size=g_samples, rng=rng)
    w_i = lg.radial_weight(t_i, n)
    g_mats = lg.embed_rotation(k_i) @ lg.at_mats(t_i, n)
    us = lg.haar_sample_K(n, size=k_samples, rng=rng)
    tq, wq = np.polynomial.legendre.leggauss(t_nodes)
    tq, wq = tq * f.r_supp, wq * f.r_supp
    prof = tfm.radon_batch(f, tq, us, grid=grid)
    ker = PoissonKernel(lg.inv_mats(g_mats)[:, None] @ lg.embed_rotation(us)[None], spec.p)
    taus = xr.tau_matrix_batch(ker.kappa, spec.p)
    rows = []
    for lam in sorted(float(l) for l in lam_grid):
        profile = np.einsum("q,jqd->jd", wq * np.exp(-1j * lam * tq), prof)
        total, per_sigma = 0.0, {}
        for sigma in xr.branching(spec):
            pt = sph.SpectralPoint(spec, sigma, lam)
            nu = sph.plancherel_density(pt)
            fv = tfm.sigma_part(pt, profile)
            terms = ker.weight(pt)[..., None] * np.einsum("ijab,jb->ija", taus, fv)
            mean = terms.mean(axis=1)
            second = (np.abs(terms) ** 2).mean(axis=1)
            var = np.maximum(second - np.abs(mean) ** 2, 0.0).sum(axis=-1)
            sq = np.sum(np.abs(mean) ** 2, axis=-1) - var / k_samples
            per_sigma[str(sigma)] = float(np.mean(w_i * sq) * nu ** 2)
            total += per_sigma[str(sigma)]
        rows.append({"lam": lam, "energy": total, "per_sigma": per_sigma})
    return rows


def inversion_mc_loop(pt, section, R, kmats, mc_k1, rng):
    """F_R at the rotations kmats (B, n, n) by the literal Monte Carlo
    reconstruction on the draws of strichartz.inversion_reconstruct
    (method="mc") with the same rng: the image sum_a w_a Phi(g_a^{-1} k1 a_t) v_a
    by one spherical.radial_batch per atom and t-node, then the dual kernel at
    a_{-t} k1^{-1} k averaged over k1, shape (B, C)."""
    n = pt.n
    lam = pt.lam_real
    nu = sph.plancherel_density(pt)
    k1e = lg.embed_rotation(lg.haar_sample_K(n, size=mc_k1, rng=rng))
    ts, ws, _ = st._sweep_rule([float(R)], abs(lam),
                                sf.gauss_legendre(st._MC_INVERSION_ORDER))
    fvals = np.zeros((ts.size, mc_k1, pt.spec.dim_full), dtype=complex)
    at_all = lg.at_mats(ts, n)
    for i in range(ts.size):
        sheet = k1e @ at_all[i]
        for a, w in section.atoms:
            fvals[i] += w * sph.radial_batch(pt, a.g.inv().mat @ sheet, vecs=a.v.coeffs)
    radial = ws * lg.radial_weight(ts, n) * np.pi * nu / float(R)
    at_neg = lg.at_mats(-ts, n)
    out = np.zeros((len(kmats), pt.spec.dim_full), dtype=complex)
    for bi, k in enumerate(np.asarray(kmats, dtype=float)):
        k1_inv_k = np.swapaxes(k1e, -1, -2) @ lg.embed_rotation(k)
        for i in range(ts.size):
            ker = PoissonKernel(at_neg[i] @ k1_inv_k, pt.p)
            out[bi] += radial[i] * ker.dual(pt, fvals[i], lam=lam).mean(axis=0)
    return out


def _householder_to_e1_copy(b):
    n = b.shape[-1]
    nrm = np.linalg.norm(b, axis=-1, keepdims=True)
    u = b / nrm
    v = u.copy()
    v[..., 0] -= 1.0
    vv = np.sum(v * v, axis=-1)
    out = np.broadcast_to(np.eye(n), b.shape[:-1] + (n, n)).copy()
    ok = vv > 1.0e-28
    if np.any(ok):
        vok = v[ok]
        r = np.eye(n) - 2.0 * vok[..., :, None] * vok[..., None, :] / vv[ok][..., None, None]
        r[..., :, -1] = -r[..., :, -1]
        out[ok] = r
    return out


def cartan_batch_copy(mats):
    """The stacked Cartan decomposition with the copies and temporaries it
    had before they were cut: (t, k1, k2) of stacked group matrices."""
    n = mats.shape[-1] - 1
    t = lg.cartan_radius(mats)
    tie = t < lg.TIE_EPS
    pol = lg.polar_blocks(mats)
    defect = np.max(np.abs(np.swapaxes(pol, -1, -2) @ pol - np.eye(n)))
    if defect > lg._CONSISTENCY_TOL:
        raise ArithmeticError(f"Cartan K factors lost orthogonality: defect {defect:.3e}")
    k1 = np.empty(mats.shape[:-2] + (n, n))
    if np.any(~tie):
        k1[~tie] = _householder_to_e1_copy(mats[~tie][..., :n, n])
    if np.any(tie):
        k1[tie] = pol[tie]
    k2 = np.swapaxes(k1, -1, -2) @ pol
    return t, k1, k2


class CartanGeometryK:
    """spherical.CartanGeometry as it stood before it dropped the Cartan K
    factors: t, tau(k1) and tau(k2) of g = k1 a_t k2 from
    cartan_batch_copy, and Psi(g) = tau(k2)^T (sum_eta psi_eta(t) P_eta)
    tau(k1)^T with one projector product per eta."""

    def __init__(self, mats, p):
        self.lead = mats.shape[:-2]
        self.t, k1, k2 = cartan_batch_copy(mats.reshape((-1,) + mats.shape[-2:]))
        self.tau1, self.tau2 = xr.tau_matrix_batch(np.stack((k1, k2)), p)

    def apply(self, spec, comps, vecs=None):
        dim = spec.dim_full
        x = self.tau1.swapaxes(-1, -2)
        if vecs is not None:
            cols = np.broadcast_to(vecs, self.lead + (dim,)).reshape(-1, dim, 1)
            x = xr.tau_apply_batch(x, cols)
        rows = x.swapaxes(-1, -2)
        u = np.zeros(rows.shape, dtype=complex)
        for eta, vals in comps.items():
            proj_t = xr.proj_matrix(spec, eta).T
            u += vals[:, None, None] * (rows.reshape(-1, dim) @ proj_t).reshape(rows.shape)
        out = xr.tau_apply_batch(self.tau2.swapaxes(-1, -2), u.swapaxes(-1, -2))
        return out.reshape(self.lead + ((dim, dim) if vecs is None else (dim,)))


def haar_sample_K_qr(n, size=None, rng=None):
    """liegroup.haar_sample_K with one LAPACK QR per matrix: the Q of
    the Gaussian draw whose R has a positive diagonal, its last column
    flipped where np.linalg.det is -1."""
    if rng is None:
        rng = np.random.default_rng()
    m = 1 if size is None else int(size)
    z = rng.standard_normal((m, n, n))
    q, r = np.linalg.qr(z)
    d = np.sign(np.diagonal(r, axis1=-2, axis2=-1))
    d[d == 0.0] = 1.0
    q = q * d[:, None, :]
    det = np.linalg.det(q)
    q[det < 0.0, :, -1] = -q[det < 0.0, :, -1]
    return q[0] if size is None else q


def e_defect(g, x):
    """Horocyclic defect E(g, x) = A+(g x) - A+(x) - H(g k1(x)).

    Nonnegative, zero at g = e, and bounded by exp(2(A+(g) - A+(x)))
    whenever A+(x) >= A+(g); a quantitative form of the triangle
    inequality for the Cartan radius along horocycles.
    """
    gx = g.mat @ x.mat
    tp_gx = float(lg.cartan_radius(gx))
    tp_x = float(lg.cartan_radius(x.mat))
    _, k1x, _ = cartan_batch_copy(x.mat[None, ...])
    h = float(iwasawa_hy(g.mat @ lg.embed_rotation(k1x[0]))[0])
    return tp_gx - tp_x - h


def weyl_reflect(sigma, lam):
    """Action of the nontrivial Weyl element: (sigma, lambda) maps to
    (s sigma, -lambda), swapping the two middle chirality types."""
    if sigma == xr.SIGMA_PLUS:
        return xr.SIGMA_MINUS, -lam
    if sigma == xr.SIGMA_MINUS:
        return xr.SIGMA_PLUS, -lam
    return sigma, -lam


def c_sigma_formula(spec, sigma, lam):
    """c_sigma(lambda) by the four hand-derived formulas, each a rational
    function of lambda times c_b(lambda) = c^{(n/2, -1/2)}(lambda)."""
    n, p = spec.n, spec.p
    rho = (n - 1) / 2.0
    cb = sf.c_jacobi(n / 2, -0.5, lam)
    if spec.chirality != "none":
        # 0.25 c_{n/2-1, n/2+1}(2 lambda), the c-function of the component
        # phi^{(n/2-1, n/2+1)}_{2 lambda}(t/2), in the beta = -1/2 family
        return (2j * lam - 1.0) / (4 * n) * cb
    if sigma.kind == "q" and sigma.q == p:
        return (1j * lam + rho - p) / (2 * (n - p)) * cb
    if sigma.kind == "q" and sigma.q == p - 1:
        return (1j * lam - rho + p - 1) / (2 * p) * cb
    return 2j * lam / (n + 1) * cb


def u_intertwine(pt, section):
    """Relabel an atom section to the Weyl-reflected spectral point
    (s sigma, -lambda); the atoms themselves are unchanged."""
    if not section.is_atomic:
        raise ValueError("intertwiner is only realized on atom sections")
    ssig, slam = weyl_reflect(pt.sigma, pt.lam)
    new_pt = sph.SpectralPoint(pt.spec, ssig, slam)
    return tfm.BoundarySection.from_atoms(new_pt, section.atoms)


def spectral_projection(f, pt, g, k_samples=2000, t_nodes=40, grid=24, rng=None):
    """Spectral projection Q f(g) = nu_sigma(lambda) P(F f)(g).

    The Helgason-Fourier coefficients enter poisson_mc as a sampler
    section, which integrates tau(kappa) against them (the Poisson
    kernel orientation).  Returns (FormVector, stderr).
    """
    nu = sph.plancherel_density(pt)

    def sampler(kmats):
        return tfm.fourier_batch(f, pt, kmats, t_nodes=t_nodes, grid=grid)

    section = tfm.BoundarySection.from_sampler(pt, sampler, budget=k_samples)
    vec, err = tfm.poisson_mc(pt, section, g, k_samples, rng=rng)
    return xr.FormVector(pt.n, pt.p, nu * vec.coeffs), nu * err


def iwasawa_batch_product(mats):
    """liegroup.iwasawa_batch as it stood before kappa was read off g's
    columns: (H, y, kappa block) through the product g n_{-y} a_{-H},
    which cancels entries of size e^{2t} at Cartan radius t."""
    n = mats.shape[-1] - 1
    h, y = iwasawa_hy(mats)
    kap = mats @ lg.ny_mats(-y, n) @ lg.at_mats(-h, n)
    block = kap[..., :n, :n]
    defect = np.max(np.abs(
        np.swapaxes(block, -1, -2) @ block - np.eye(n)))
    if defect > lg._CONSISTENCY_TOL:
        raise ArithmeticError(
            f"Iwasawa K factor lost orthogonality: defect {defect:.3e}")
    return h, y, block


def iwasawa_hy(mats):
    """(H, y) for stacked matrices; raises unless c_1 + d > 0."""
    s = mats[..., -1, 0] + mats[..., -1, -1]
    if (s <= 0.0).any():
        raise ValueError("Iwasawa argument c_1 + d is not positive")
    h = np.log(s)
    y = mats[..., -1, 1:-1] / s[..., None]
    return h, y


def iwasawa_batch(mats):
    """(H, y, kappa block) for stacked matrices.

    kappa is read off the columns of g (indices from 0).  With
    xi = e_0 + e_n, n_y xi = xi and a_H xi = e^H xi, so
    g xi = e^H kappa xi and

        kappa e_0 = e^{-H} (g xi)_{:n},
        kappa e_j = g_{:n,j} - y_j (g xi)_{:n},   j = 1 .. n-1.

    Its error grows like e^t ulps at Cartan radius t (the product
    g n_{-y} a_{-H} cancelled entries of size e^{2t} and lost e^{2t}
    ulps).  Raises ArithmeticError when kappa^T kappa is more than 1e-8
    from I or not finite, which for random g happens from t of about
    16 on.
    """
    n = mats.shape[-1] - 1
    h, y = iwasawa_hy(mats)
    gxi = mats[..., :n, 0] + mats[..., :n, n]
    y0 = np.zeros(gxi.shape)
    y0[..., 1:] = y
    # g_{:n,:n} - (g xi) y0^T, whose column 0 is then replaced
    block = gxi[..., :, None] * y0[..., None, :]
    np.subtract(mats[..., :n, :n], block, out=block)
    block[..., 0] = gxi / (mats[..., n, 0] + mats[..., n, n])[..., None]
    lg.gate_k(block, "Iwasawa K factor")
    return h, y, block


def iwasawa_boosted_batch(t, rots, out=None):
    """(H, y, kappa) of g = a_{-t} r for rotations r stored sample-major,
    rots (n, n, m) with r_s = rots[:, :, s], and t a float or an (m,)
    array; y is (n-1, m) and kappa sample-major (n, n, m), written into
    `out` when given.

    iwasawa_batch's formulas with a_{-t} folded in: g's first row is
    (cosh t r_{0,:}, -sinh t), its last (-sinh t r_{0,:}, cosh t), and
    its other rows (r_{i,:}, 0), so with S = cosh t - sinh t r_00

        H = log S,   y_j = -sinh t r_0j / S,
        kappa e_0 = (cosh t r_00 - sinh t, r_10, ..., r_{n-1,0}) / S,
        kappa e_j = g_{:n,j} - y_j (g xi)_{:n},   j = 1 .. n-1,

    each entry rounded as iwasawa_batch rounds it on the product.  The
    same gate: ValueError unless S > 0, ArithmeticError when kappa^T kappa
    is more than 1e-8 from I or not finite.
    """
    n, ch, sh = rots.shape[0], np.cosh(t), np.sinh(t)
    row0 = rots[0]
    s = ch - sh * row0[0]
    if (s <= 0.0).any():
        raise ValueError("Iwasawa argument c_1 + d is not positive")
    h = np.log(s)
    y = -sh * row0[1:] / s
    kappa = np.empty(rots.shape) if out is None else out
    gxi = kappa[:, 0]
    np.multiply(ch, row0[0], out=gxi[0])
    gxi[0] -= sh
    gxi[1:] = rots[1:, 0]
    np.multiply(ch, row0[1:], out=kappa[0, 1:])
    kappa[1:, 1:] = rots[1:, 1:]
    # column by column, so the only temporary is one column
    for j in range(1, n):
        kappa[:, j] -= gxi * y[j - 1]
    gxi /= s
    gram = np.einsum("ais,ajs->ijs", kappa, kappa)
    gram.reshape(n * n, -1)[:: n + 1] -= 1.0
    defect = np.abs(gram, out=gram).max()
    if not defect <= lg._CONSISTENCY_TOL:  # a NaN defect raises too
        raise ArithmeticError(
            f"Iwasawa K factor lost orthogonality: defect {defect:.3e}")
    return h, y, kappa


# group matrices per Iwasawa step of the Poisson kernel; bounds the
# memory of one step
KERNEL_BLOCK = 8192


class PoissonKernel:
    """The Poisson kernel of stacked g = x^{-1} k, shape (..., n+1, n+1),

        K_lambda(g) = sqrt(d_{tau,sigma}) e^{-(i lambda + rho) H(g)} tau(kappa(g)),

    kept as its geometry, H(g) and kappa(g) (..., n, n), formed once with
    the Iwasawa step in blocks of KERNEL_BLOCK matrices, and a weight
    that depends on (sigma, lambda).  Vectors meet tau(kappa) through
    extrep.tau_vec_batch, which never forms the C(n,p) x C(n,p) minors;
    callers that need the operators build extrep.tau_matrix_batch(kappa,
    p) themselves.  The boundary atom of transforms is
    p^{g,v}(k) = P_sigma K_{-lambda}(g^{-1} k)^T v.
    """

    __slots__ = ("h", "kappa", "p")

    def __init__(self, mats, p):
        lead, n = mats.shape[:-2], mats.shape[-1] - 1
        flat = mats.reshape(-1, n + 1, n + 1)
        h, kappa = np.empty(len(flat)), np.empty((len(flat), n, n))
        for blk in (slice(lo, lo + KERNEL_BLOCK) for lo in range(0, len(flat), KERNEL_BLOCK)):
            h[blk], _, kappa[blk] = iwasawa_batch(flat[blk])
        self.h, self.kappa, self.p = h.reshape(lead), kappa.reshape(lead + (n, n)), p

    def weight(self, pt, lam=None):
        """sqrt(d_{tau,sigma}) e^{-(i lam + rho) H(g)}; lam defaults to pt.lam."""
        lam = complex(pt.lam if lam is None else lam)
        return sqrt(xr.dims(pt.spec, pt.sigma)[2]) * np.exp(-(1j * lam + pt.rho) * self.h)

    def apply(self, pt, vecs):
        """K_lambda(g) vecs at pt; vecs broadcast against (..., C(n,p))."""
        return self.weight(pt)[..., None] * xr.tau_vec_batch(self.kappa, self.p, vecs)

    def dual(self, pt, vecs, lam=None):
        """P_sigma K_{-lambda}(g)^T vecs, the transposed kernel at -lambda;
        lam defaults to pt.lam."""
        lam = complex(pt.lam if lam is None else lam)
        vals = xr.tau_vec_batch(np.swapaxes(self.kappa, -1, -2), self.p, vecs)
        return (self.weight(pt, -lam)[..., None] * vals) @ xr.proj_matrix(pt.spec, pt.sigma).T


def atom_values_literal(section, kmats):
    """BoundarySection.eval_batch of an atom section on rotations kmats
    (B, n, n) with every atom through PoissonKernel(g^{-1} embed(k)).dual."""
    pt, ks = section.pt, lg.embed_rotation(kmats)
    out = np.zeros((len(kmats), pt.spec.dim_full), dtype=complex)
    for atom, w in section.atoms:
        out += w * PoissonKernel(atom.g.inv().mat[None] @ ks, pt.p).dual(pt, atom.v.coeffs)
    return out


def poisson_mc_literal(pt, section, x, samples, rng=None):
    """transforms.poisson_mc on the kernel of the explicit products x^{-1} k."""
    xinv = x.inv().mat
    chunk = min(4096, 2 ** 20 // pt.spec.dim_full ** 2)
    tot = tot2 = 0
    for sub_rng, b in tfm._haar_chunks(samples, rng, chunk):
        ks = lg.haar_sample_K(pt.n, size=b, rng=sub_rng)
        fvals = atom_values_literal(section, ks)
        ker = PoissonKernel(xinv[None, :, :] @ lg.embed_rotation(ks), pt.p)
        integ = ker.apply(pt, fvals)
        tot = tot + integ.sum(axis=0)
        tot2 = tot2 + (np.abs(integ) ** 2).sum(axis=0)
    mean = tot / samples
    var = np.maximum(tot2 / samples - np.abs(mean) ** 2, 0.0)
    return mean, float(np.sqrt(var.sum() / samples))


def fourier_direct_mc_literal(f, pt, k, samples, rng=None):
    """transforms.fourier_direct_mc on the kernel of the explicit products g^{-1} k."""
    if rng is None:
        rng = np.random.default_rng(0)
    n, p = f.spec.n, f.spec.p
    kemb = lg.embed_rotation(np.asarray(k, dtype=float))
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
        ker = PoissonKernel(np.einsum("bij,jk->bik", lg.inv_mats(gs), kemb), p)
        integ = ker.dual(pt, fvals)
        tot += integ.sum(axis=0)
        tot2 += (np.abs(integ) ** 2).sum(axis=0)
    mean = tot / samples * mass
    var = np.maximum(tot2 / samples - np.abs(tot / samples) ** 2, 0.0) * mass ** 2
    return mean, float(np.sqrt(var.sum() / samples))


def rotation_mp(a):
    """The Cayley rotation (I - S)^{-1} (I + S) of the skew part S of a
    float (n, n) matrix, embedded in SO0(n,1) as an mpmath matrix;
    orthogonal with det +1 to the working precision."""
    n = a.shape[0]
    s = mpmath.matrix(n + 1, n + 1)
    for i in range(n):
        for j in range(n):
            s[i, j] = (mpmath.mpf(a[i, j]) - mpmath.mpf(a[j, i])) / 2
    eye = mpmath.eye(n + 1)
    return mpmath.inverse(eye - s) * (eye + s)


def _boost_mp(t, n):
    out = mpmath.eye(n + 1)
    ch, sh = mpmath.cosh(t), mpmath.sinh(t)
    out[0, 0] = out[n, n] = ch
    out[0, n] = out[n, 0] = sh
    return out


def group_mp(a1, t, a2):
    """k1 a_t k2 as an (n+1) x (n+1) mpmath matrix at the working
    precision, k1 and k2 the Cayley rotations of the float (n, n)
    matrices a1 and a2: a group element at Cartan radius |t|."""
    n = a1.shape[0]
    return rotation_mp(a1) * _boost_mp(mpmath.mpf(t), n) * rotation_mp(a2)


def iwasawa_mp(g):
    """Iwasawa data (H, y, kappa) of an mpmath group matrix g at the
    working precision, from the definition g = kappa a_H n_y:
    e^H = g[n, 0] + g[n, n], y = e^{-H} g[n, 1:n], and kappa the upper
    left block of the product g n_{-y} a_{-H}.  Returned as floats."""
    n = g.rows - 1
    s = g[n, 0] + g[n, n]
    h = mpmath.log(s)
    y = [g[n, j] / s for j in range(1, n)]
    q = sum(v * v for v in y) / 2
    ny = mpmath.eye(n + 1)  # n_{-y}
    ny[0, 0], ny[0, n], ny[n, 0], ny[n, n] = 1 - q, q, -q, 1 + q
    for j in range(1, n):
        ny[0, j] = ny[n, j] = -y[j - 1]
        ny[j, 0] = y[j - 1]
        ny[j, n] = -y[j - 1]
    kap = g * ny * _boost_mp(-h, n)
    return (float(h), np.array([float(v) for v in y]),
            np.array([[float(kap[i, j]) for j in range(n)] for i in range(n)]))


def series_nterms_blocks(series, w):
    """The number of terms that the block scan of a specialfn._Series
    table sums at the largest of the points w."""
    w = np.asarray(w, dtype=float)
    wmax = float(np.max(w)) if w.size else 0.0
    guard = max(wmax / (1.0 - wmax), 1.0) if wmax < 1.0 else np.inf
    logw = np.log(wmax) if wmax > 0.0 else -np.inf
    partial, nterms, k0 = 1.0 + 0.0j, 0, 1
    while not nterms:
        if k0 > sf._SERIES_MAX_TERMS:
            raise RuntimeError("2F1 series did not converge")
        k1 = k0 + max(k0, sf._SERIES_BLOCK)
        terms = series.upto(k1)[k0:k1] * np.exp(np.arange(k0, k1) * logw)
        sums = partial + np.cumsum(terms)
        done = np.abs(terms) * guard <= sf._SERIES_RTOL * (np.abs(sums) + 1e-300)
        if done.any():
            nterms = k0 + int(np.argmax(done)) + 1
        partial = sums[-1]
        k0 = k1
    return nterms


def phi_half_odd(m, lam, t):
    """phi^{(m-1/2, -1/2)}_lambda(t) at real lambda and t > 0 from the
    shift formula, by Taylor arithmetic in h at t rather than by a term
    table: with D = (1/sinh) d/dt and s = sin(lambda t) / lambda (t at
    lambda = 0), -D cos(lambda t) / lambda^2 = s / sinh, so

        phi = prod_{0<k<m} [-(2k+1) / (lambda^2 + k^2)] D^{m-1} (s / sinh)(t).

    Each D differentiates a jet (Taylor coefficients in h of a function
    at t + h) and multiplies by the jet of 1/sinh, at the cost of one
    order, so jets of order m - 1 suffice."""
    order = m

    def times(a, b):
        return np.convolve(a, b)[:order]

    fact = np.cumprod([1.0] + list(range(1, order)))
    # derivatives of sinh at t alternate sinh, cosh; of s they are
    # s, cos, -lambda sin, -lambda^2 cos, ...
    sinh = np.array([(np.sinh(t), np.cosh(t))[k % 2] for k in range(order)]) / fact
    csch = np.zeros(order)
    csch[0] = 1.0 / sinh[0]
    for k in range(1, order):
        csch[k] = -np.dot(sinh[1:k + 1], csch[k - 1::-1]) / sinh[0]
    s0 = np.sin(lam * t) / lam if lam else t
    ds = [s0] + [lam ** (k - 1) * np.cos(lam * t + (k - 1) * np.pi / 2) for k in range(1, order)]
    jet = times(np.array(ds) / fact, csch)
    pre = 1.0
    for k in range(1, m):
        deriv = np.arange(1, order) * jet[1:]
        jet = times(np.append(deriv, 0.0), csch)
        pre *= -(2 * k + 1) / (lam * lam + k * k)
    return pre * jet[0]


def log_gamma_loop(z):
    """specialfn._log_gamma as it stood with its Lanczos sum taken term by
    term, k = 1..14, in a loop over arrays."""
    z = np.asarray(z, dtype=complex)
    reflect = z.real < 0.5
    zz = np.where(reflect, 1.0 - z, z)
    x = zz - 1.0
    acc = np.full_like(zz, sf._LANCZOS_C[0])
    for k in range(1, len(sf._LANCZOS_C)):
        acc = acc + sf._LANCZOS_C[k] / (x + k)
    tt = x + sf._LANCZOS_G + 0.5
    out = sf._LOG_SQRT_2PI + (x + 0.5) * np.log(tt) - tt + np.log(acc)
    if reflect.any():
        zr = z[reflect]
        s = np.where(zr.imag < 0.0, -1.0, 1.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            log_sin = (np.log(0.5j * s) - 1j * np.pi * s * zr
                       + np.log1p(-np.exp(2j * np.pi * s * zr)))
        out[reflect] = sf._LOG_PI - log_sin - out[reflect]
    pole = (z.imag == 0.0) & (z.real <= 0.0) & (z.real == np.round(z.real))
    out[pole] = complex(np.inf, 0.0)
    return out


def c_jacobi_loop(alpha, beta, lam):
    """specialfn.c_jacobi's value on log_gamma_loop; None where c_jacobi
    raises at a pole."""
    a, b, il = complex(alpha), complex(beta), 1j * complex(lam)
    if abs(il) < sf._LAMBDA_GUARD:
        return None
    lg = log_gamma_loop([a + 1.0, il, (il + a + b + 1.0) / 2.0, (il + a - b + 1.0) / 2.0])
    if np.isinf(lg[0]) or np.isinf(lg[1]):
        return None
    return complex(np.exp((-il + a + b + 1.0) * sf._LOG_2 + lg[0] + lg[1] - lg[2] - lg[3]))
