"""Independent oracles that the library itself never calls.

j_pair_grid integrates the rotation-reduced inversion kernel over the
zonal angle with closed-form Iwasawa data; the tests pin
strichartz._pair_kernel and strichartz.inversion_ratios against it.
energy_capture_loop is the energy capture of
strichartz.spectral_projection_energy done one (lambda, sigma) at a
time, with the kernel applied as a complex einsum and the second moment
taken per component.  radon_pairs is the horocycle quadrature of
transforms.radon_batch done per (rotation, radius) pair on the group
matrices k a_t n_y, with no use of the section's left equivariance.
inversion_mc_loop is the literal Monte Carlo reconstruction of
strichartz.inversion_reconstruct with the Poisson image formed one
t-node at a time through the Cartan decomposition of every atom, with
no tau-radial factoring for atoms at a rotation.  cartan_batch_copy
is liegroup.cartan_batch as it stood before its temporaries were cut,
which the in-place version must reproduce bit for bit, and
iwasawa_batch_product is liegroup.iwasawa_batch as it stood before
kappa was read off g's columns.  iwasawa_mp decomposes group elements
that group_mp builds exactly (from rotation_mp rotations), at the
caller's mpmath precision.  e_defect,
u_intertwine and spectral_projection are the horocyclic defect, the
Weyl relabelling of atom sections and the Monte Carlo spectral
projection, which only the tests use.
"""

import mpmath
import numpy as np

import hyperform.extrep as xr
import hyperform.liegroup as lg
import hyperform.spherical as sph
import hyperform.strichartz as st
import hyperform.transforms as tfm


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


def j_pair_grid(pt, ts, mu, n_panels=12, n_nodes=24):
    """Zonal quadrature of the rotation-reduced inversion kernel; the
    oracle of the closed form in strichartz._pair_kernel.

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
    capture, on the draws of strichartz.spectral_projection_energy with
    the same rng: for each lambda and sigma, K_lambda(g_i^{-1} u_j) fv_j
    as an (I, J, C) array, its mean over j and its per-component second
    moment."""
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
    ker = sph.PoissonKernel(lg.inv_mats(g_mats)[:, None] @ lg.embed_rotation(us)[None], spec.p)
    rows = []
    for lam in sorted(float(l) for l in lam_grid):
        profile = np.einsum("q,jqd->jd", wq * np.exp(-1j * lam * tq), prof)
        total, per_sigma = 0.0, {}
        for sigma in xr.branching(spec):
            pt = sph.SpectralPoint(spec, sigma, lam)
            nu = sph.plancherel_density(pt)
            fv = tfm.sigma_part(pt, profile)
            terms = ker.weight(pt)[..., None] * np.einsum("ijab,jb->ija", ker.tau, fv)
            mean = terms.mean(axis=1)
            second = (np.abs(terms) ** 2).mean(axis=1)
            var = np.maximum(second - np.abs(mean) ** 2, 0.0).sum(axis=-1)
            sq = np.sum(np.abs(mean) ** 2, axis=-1) - var / k_samples
            per_sigma[str(sigma)] = float(np.mean(w_i * sq) * nu ** 2)
            total += per_sigma[str(sigma)]
        rows.append({"lam": lam, "energy": total, "per_sigma": per_sigma})
    return rows


def inversion_mc_loop(pt, section, R, kmats, mc_k1, rng, mu=None):
    """F_R at the rotations kmats (B, n, n) by the literal Monte Carlo
    reconstruction on the draws of strichartz.inversion_reconstruct
    (method="mc") with the same rng: the image sum_a w_a Phi(g_a^{-1} k1 a_t) v_a
    by one spherical_batch per atom and t-node, then the dual kernel at
    a_{-t} k1^{-1} k averaged over k1, shape (B, C)."""
    n = pt.n
    lam = pt.lam_real
    mu = lam if mu is None else float(mu)
    nu = sph.plancherel_density(pt)
    k1e = lg.embed_rotation(lg.haar_sample_K(n, size=mc_k1, rng=rng))
    ts, ws, _ = st._sweep_rule([float(R)], max(abs(lam), abs(mu)), st._MC_INVERSION_ORDER)
    fvals = np.zeros((ts.size, mc_k1, pt.spec.dim_full), dtype=complex)
    at_all = lg.at_mats(ts, n)
    for i in range(ts.size):
        sheet = k1e @ at_all[i]
        for a, w in section.atoms:
            fvals[i] += w * sph.spherical_batch(pt, a.g.inv().mat @ sheet, a.v.coeffs)
    radial = ws * lg.radial_weight(ts, n) * np.pi * nu / float(R)
    at_neg = lg.at_mats(-ts, n)
    out = np.zeros((len(kmats), pt.spec.dim_full), dtype=complex)
    for bi, k in enumerate(np.asarray(kmats, dtype=float)):
        k1_inv_k = np.swapaxes(k1e, -1, -2) @ lg.embed_rotation(k)
        for i in range(ts.size):
            ker = sph.PoissonKernel(at_neg[i] @ k1_inv_k, pt.p)
            out[bi] += radial[i] * ker.dual(pt, fvals[i], lam=mu).mean(axis=0)
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
    """liegroup.cartan_batch with the copies and temporaries it had
    before they were cut: (t, k1, k2) of stacked group matrices."""
    n = mats.shape[-1] - 1
    t = lg._cartan_radius(mats)
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


def e_defect(g, x):
    """Horocyclic defect E(g, x) = A+(g x) - A+(x) - H(g k1(x)).

    Nonnegative, zero at g = e, and bounded by exp(2(A+(g) - A+(x)))
    whenever A+(x) >= A+(g); a quantitative form of the triangle
    inequality for the Cartan radius along horocycles.
    """
    gx = g.mat @ x.mat
    tp_gx = float(lg._cartan_radius(gx))
    tp_x = float(lg._cartan_radius(x.mat))
    _, k1x, _ = lg.cartan_batch(x.mat[None, ...])
    h = float(lg._iwasawa_hy(g.mat @ lg.embed_rotation(k1x[0]))[0])
    return tp_gx - tp_x - h


def u_intertwine(pt, section):
    """Relabel an atom section to the Weyl-reflected spectral point
    (s sigma, -lambda); the atoms themselves are unchanged."""
    if not section.is_atomic:
        raise ValueError("intertwiner is only realized on atom sections")
    ssig, slam = sph.weyl_reflect(pt.sigma, pt.lam)
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
    h, y = lg._iwasawa_hy(mats)
    kap = mats @ lg.ny_mats(-y, n) @ lg.at_mats(-h, n)
    block = kap[..., :n, :n]
    defect = np.max(np.abs(
        np.swapaxes(block, -1, -2) @ block - np.eye(n)))
    if defect > lg._CONSISTENCY_TOL:
        raise ArithmeticError(
            f"Iwasawa K factor lost orthogonality: defect {defect:.3e}")
    return h, y, block


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
