"""Seeded inputs, job lists and correctness checks of the four workloads.

A workload is an ordered list of jobs built from one seed.  A job is one
CLI command run in-process through `hyperform.cli.main`, or one library
call (per-element calls are grouped, so no job is a few-millisecond
timing).  Each job has a check that runs after the job, outside its
timing, against a computation made apart from the program (mpmath
Gamma and 2F1, closed laws) or against a property the method must have
(Monte Carlo within a fixed multiple of its own standard error,
adjoint symmetry, rank, factor round trips).  No check compares against
a stored copy of earlier output.

A job's `ref`, when given, computes the reference values once per run,
after set-up and before the first pass; `check(out, ref)` returns None
when the output is right and a message otherwise.  A job with `fault`
set is a known fault of the program: its failure is counted, and it is
only unexpected when the message differs from `fault`.
"""

import contextlib
import io
import json
from math import comb, cos, exp, pi

import numpy as np

import hyperform.cli as cli
import hyperform.extrep as xr
import hyperform.liegroup as lg
import hyperform.specialfn as sf
import hyperform.spherical as sph
import hyperform.strichartz as st
import hyperform.transforms as tfm
from hyperform.extrep import SIGMA_PLUS, BundleSpec, FormVector, sigma_q
from hyperform.spherical import SpectralPoint

# Monte Carlo checks accept this many of the estimate's own standard errors.
MC_SIGMAS = 5.0
# ... and this many for the mc_k ball averages, whose standard error is
# itself estimated from only 32 to 256 rotations.
MC_K_SIGMAS = 6.0


class Job:
    __slots__ = ("name", "run", "check", "ref", "fault")

    def __init__(self, name, run, check, ref=None, fault=None):
        self.name = name
        self.run = run
        self.check = check
        self.ref = ref
        self.fault = fault


def _mpmath():
    # imported on first use, so that set-up time holds no reference work
    import mpmath
    mpmath.mp.dps = 30
    return mpmath


# ---------------------------------------------------------------------------
# independent references and shared input helpers


def c_jacobi_mp(alpha, beta, lam):
    """Harish-Chandra c-function of Jacobi analysis from mpmath Gamma."""
    mpmath = _mpmath()
    il = 1j * mpmath.mpmathify(lam)
    num = mpmath.power(2, -il + alpha + beta + 1) * mpmath.gamma(alpha + 1) * mpmath.gamma(il)
    den = mpmath.gamma((il + alpha + beta + 1) / 2) * mpmath.gamma((il + alpha - beta + 1) / 2)
    return complex(num / den)


def phi_mp(alpha, beta, lam, t):
    """phi_lambda^(alpha,beta)(t) as an mpmath 2F1 in -sinh^2(t)."""
    mpmath = _mpmath()
    a = (alpha + beta + 1 + 1j * lam) / 2
    b = (alpha + beta + 1 - 1j * lam) / 2
    return complex(mpmath.hyp2f1(a, b, alpha + 1, -mpmath.sinh(t) ** 2))


def dims_ref(n, p, chirality, sigma):
    """(d_tau, d_sigma) from binomial counts of the Lambda^p branching."""
    if chirality != "none":
        return comb(n, p) / 2, comb(n - 1, p)
    if sigma.kind == "q":
        return comb(n, p), comb(n - 1, sigma.q)
    return comb(n, p), comb(n - 1, p) / 2


def c_sigma_mp(n, p, chirality, sigma, lam):
    """c_sigma(lambda): the scalar factor of the tau-spherical c-function
    times the Jacobi c-function, evaluated with mpmath Gamma."""
    rho = (n - 1) / 2
    if chirality != "none":
        return 0.25 * c_jacobi_mp(n / 2 - 1, n / 2 + 1, 2 * lam)
    cb = c_jacobi_mp(n / 2, -0.5, lam)
    if sigma.kind == "q" and sigma.q == p:
        return (1j * lam + rho - p) / (2 * (n - p)) * cb
    if sigma.kind == "q":
        return (1j * lam - rho + p - 1) / (2 * p) * cb
    return 2j * lam / (n + 1) * cb


def density_mp(n, p, chirality, sigma, lam):
    """nu_sigma(lambda) = (d_tau/d_sigma) / (2 pi |c_sigma(lambda)|^2)."""
    d_tau, d_sig = dims_ref(n, p, chirality, sigma)
    return (d_tau / d_sig) / (2 * pi * abs(c_sigma_mp(n, p, chirality, sigma, lam)) ** 2)


def unit_vector(spec, rng):
    v = rng.standard_normal(spec.dim_full) + 1j * rng.standard_normal(spec.dim_full)
    if spec.chirality != "none":
        v = xr.chirality_matrix(spec.n, spec.chirality) @ v
    return FormVector(spec.n, spec.p, v / np.linalg.norm(v), spec=spec)


def random_rotation(n, rng):
    return lg.make_rotation(lg.haar_sample_K(n, rng=rng))


def boost(t, n):
    """a_t written out: cosh/sinh in the (e_1, e_{n+1}) plane."""
    a = np.eye(n + 1)
    a[0, 0] = a[n, n] = np.cosh(t)
    a[0, n] = a[n, 0] = np.sinh(t)
    return a


def embed(k):
    n = k.shape[0]
    out = np.eye(n + 1)
    out[:n, :n] = k
    return out


def horo(y):
    """n_y of the package's horospherical group, written out."""
    n = y.size + 1
    q = 0.5 * float(y @ y)
    out = np.eye(n + 1)
    out[0, 0], out[0, n], out[n, 0], out[n, n] = 1 - q, q, -q, 1 + q
    out[0, 1:n] = out[n, 1:n] = out[1:n, n] = y
    out[1:n, 0] = -y
    return out


def cartan_element(n, t, rng):
    """k1 a_t k2 with Haar-random k1, k2, as a GroupElement."""
    return random_rotation(n, rng) @ lg.make_at(t, n) @ random_rotation(n, rng)


def rel_gap(got, want, scale=None):
    scale = abs(want) if scale is None else scale
    return abs(got - want) / scale


def run_cli(*args):
    """One CLI command through hyperform.cli.main: (exit code, report)."""
    buf = io.StringIO()
    code = 0
    with contextlib.redirect_stdout(buf):
        try:
            cli.main.main(args=[str(a) for a in args], prog_name="hyperform",
                          standalone_mode=False)
        except SystemExit as exc:
            code = exc.code
    report = json.loads(buf.getvalue())
    return code, {row["name"]: row for row in report["rows"]}


def failed_rows(rows):
    return sorted(name for name, row in rows.items() if not row["pass"])


def cli_ok(out):
    code, rows = out
    bad = failed_rows(rows)
    if code != 0 or bad:
        return f"exit {code}, failed rows {bad}"
    return None


def limit_check(rep, target):
    """Extrapolated limit within 1% of target; the program's own target
    must agree with the independent one."""
    if rel_gap(rep.target, target) > 1e-8:
        return f"target {rep.target!r} != independent {target!r}"
    if rel_gap(rep.extrapolated_limit, target) > 0.01:
        return f"limit {rep.extrapolated_limit!r} not within 1% of {target!r}"
    return None


def cli_limit_check(out, target):
    msg = cli_ok(out)
    if msg:
        return msg
    row = out[1]["extrapolated_limit"]
    if rel_gap(row["target"], target) > 1e-8:
        return f"target {row['target']!r} != independent {target!r}"
    if rel_gap(row["value"], target) > 0.01:
        return f"limit {row['value']!r} not within 1% of {target!r}"
    return None


def mc_within(got, want, stderr, sigmas=MC_SIGMAS):
    err = float(np.linalg.norm(np.asarray(got) - np.asarray(want)))
    if not (np.isfinite(stderr) and stderr > 0):
        return f"standard error {stderr!r} is not positive"
    if err > sigmas * stderr:
        return f"Monte Carlo off by {err / stderr:.2f} standard errors"
    return None


# ---------------------------------------------------------------------------
# radial: Schur-reduced radial sweeps


R_GRID = (12.5, 25.0, 50.0, 100.0)


def _ignore_ref(check):
    return lambda out, ref: check(out)


def radial(seed):
    rng = np.random.default_rng(seed)
    jobs = []
    # a unit vector at the base point has ||F||^2 = 1 (Schur orthogonality),
    # so every limit below is 1 / (pi nu)
    for n, p, q in ((3, 1, 1), (6, 2, 1)):
        jobs.append(Job(
            f"cli_limit_n{n}_q{q}",
            lambda n=n, p=p, q=q: run_cli(
                "limit", "--n", n, "--p", p, "--sigma", f"q:{q}", "--lambda", 1.0,
                "--R-grid", ",".join(f"{r:g}" for r in R_GRID)),
            cli_limit_check,
            ref=lambda n=n, p=p, q=q: 1.0 / (pi * density_mp(n, p, "none", sigma_q(q), 1.0))))
    for name, spec, sigma, lam in (("n6_q2", BundleSpec(6, 2), sigma_q(2), 1.0),
                                   ("n5_plus", BundleSpec(5, 2), SIGMA_PLUS, 0.5),
                                   ("n4_chiral", BundleSpec(4, 2, "plus"), sigma_q(2), 2.0)):
        pt = SpectralPoint(spec, sigma, lam)
        atom = tfm.BoundaryAtom(lg.GroupElement(np.eye(spec.n + 1)), unit_vector(spec, rng))
        section = tfm.BoundarySection.from_atoms(pt, [(atom, 1.0)])
        jobs.append(Job(
            f"limit_{name}",
            lambda pt=pt, section=section: st.strichartz_limit(pt, section, R_grid=R_GRID),
            limit_check,
            ref=lambda spec=spec, sigma=sigma, lam=lam: 1.0 / (pi * density_mp(
                spec.n, spec.p, spec.chirality, sigma, lam))))

    pt = SpectralPoint(BundleSpec(6, 2), sigma_q(2), 1.0)

    def nu6():
        return density_mp(6, 2, "none", sigma_q(2), 1.0)

    jobs.append(Job("hs_limit_n6_q2", lambda: st.eisenstein_hs_limit(pt, R_grid=R_GRID),
                    limit_check, ref=lambda: comb(5, 2) / (pi * nu6())))

    # the head's ball average tends to 2 |c_sigma|^2 (d_sigma/d_tau) vnorm2,
    # which the density identity turns into vnorm2 / (pi nu)
    vnorm2 = float(rng.uniform(0.5, 2.0))

    def head_check(h, limit):
        if not 0.9 < h / limit < 1.02:
            return f"head average {h!r} outside (0.9, 1.02) x {limit!r}"
        return None

    jobs.append(Job("head_ball_average_n6_q2",
                    lambda: st.head_ball_average(pt, 25.0, vnorm2=vnorm2), head_check,
                    ref=lambda: vnorm2 / (pi * nu6())))

    atom = tfm.BoundaryAtom(lg.GroupElement(np.eye(7)), unit_vector(pt.spec, rng))

    def residual_check(rows):
        devs = [r["deviation"] for r in rows]
        if min(devs) <= 0:
            return f"non-positive deviation in {devs}"
        halving = [a / b for a, b in zip(devs, devs[1:])]
        if not all(1.9 < h < 2.1 for h in halving):
            return f"deviation ratios {halving} per doubling of R are not ~2"
        return None

    jobs.append(Job("residual_sweep_base_point",
                    lambda: st.asymptotic_residual_sweep(pt, atom, R_grid=(5.0, 10.0, 20.0)),
                    _ignore_ref(residual_check)))

    # spot values at lambda <= 4 on both sides of T_SWITCH, on the
    # (alpha, beta) families the spherical components use
    families = ((0.5, -0.5), (2.0, -0.5), (3.0, -0.5), (1.0, 3.0), (1.0, 0.0))
    spots = []
    for i in range(24):
        alpha, beta = families[i % len(families)]
        lam = float(rng.uniform(0.3, 4.0))
        t = float(rng.uniform(0.1, sf.T_SWITCH - 0.05) if i % 2 else
                  rng.uniform(sf.T_SWITCH + 0.05, 3.0))
        spots.append((alpha, beta, lam, t))

    def spot_check(vals, refs):
        for (alpha, beta, lam, t), got, want in zip(spots, vals, refs):
            scale = max(abs(want), exp(-(alpha + beta + 1) * t))
            if rel_gap(got, want, scale) > 1e-8:
                return f"phi({alpha},{beta};{lam:.4f})({t:.4f}) = {got!r}, mpmath {want!r}"
        return None

    jobs.append(Job(
        "jacobi_phi_spots",
        lambda: [complex(sf.jacobi_phi(sf.JacobiParams(a, b, lam), t)) for a, b, lam, t in spots],
        spot_check, ref=lambda: [phi_mp(*spot) for spot in spots]))

    # known fault: the Pfaff-series branch loses all accuracy at large lambda
    for lam, t in ((40.0, 1.5), (100.0, 0.9)):
        jobs.append(Job(
            f"jacobi_phi_lam{lam:g}",
            lambda lam=lam, t=t: complex(sf.jacobi_phi(sf.JacobiParams(1.0, 0.0, lam), t)),
            lambda got, want: None if rel_gap(got, want) <= 1e-6 else "relative error above 1e-6",
            ref=lambda lam=lam, t=t: phi_mp(1.0, 0.0, lam, t),
            fault="relative error above 1e-6"))
    return jobs


# ---------------------------------------------------------------------------
# inversion: boundary reconstruction from ball averages


def inversion(seed):
    rng = np.random.default_rng(seed)
    jobs = []
    grid = (20.0, 40.0, 80.0)  # invert's default R grid

    def invert_check(out):
        code, rows = out
        for R in grid:
            got = rows[f"rel_error[R={R:g}]"]["value"]
            if abs(got - cos(R) ** 2 / R) > 1e-6:
                return f"rel_error[R={R:g}] = {got!r}, law cos^2(R)/R = {cos(R) ** 2 / R!r}"
        bad = failed_rows(rows)
        if code != 0 or bad:
            return f"exit {code}, failed gates {bad}"
        return None

    # known fault: the error_decreasing gate expects a monotone error, but
    # the error follows the non-monotone law cos^2(lambda R)/R
    jobs.append(Job("cli_invert_n3",
                    lambda: run_cli("invert", "--n", 3, "--p", 1, "--sigma", "q:1",
                                    "--lambda", 1.0, "--seed", seed, "--samples", 20000),
                    _ignore_ref(invert_check),
                    fault="exit 1, failed gates ['error_decreasing']"))

    pt3 = SpectralPoint(BundleSpec(3, 1), sigma_q(1), 1.0)

    def law_check(ratios, R=20.0):
        law = 1.0 - cos(R) ** 2 / R
        for r in ratios.values():
            if abs(r.imag) > 1e-13 or abs(r - law) > 1e-12:
                return f"r(R={R:g}) = {r!r}, law 1 - cos^2(R)/R = {law!r}"
        return None

    jobs.append(Job("inversion_ratios_n3_R20", lambda: st.inversion_ratios(pt3, 20.0),
                    _ignore_ref(law_check)))

    def envelope_check(ratios, R):
        for r in ratios.values():
            if abs(r.imag) > 1e-10:
                return f"Im r(R={R:g}) = {r.imag!r} is not negligible"
            if R * abs(1.0 - r) > 1.5:
                return f"r(R={R:g}) = {r!r} outside the 1 - 1.5/R envelope"
        return None

    for name, spec, sigma, R in (("n4_chiral", BundleSpec(4, 2, "plus"), sigma_q(2), 5.0),
                                 ("n5_plus", BundleSpec(5, 2), SIGMA_PLUS, 2.0)):
        pt = SpectralPoint(spec, sigma, 1.0)
        jobs.append(Job(f"inversion_ratios_{name}_R{R:g}",
                        lambda pt=pt, R=R: st.inversion_ratios(pt, R),
                        lambda ratios, _, R=R: envelope_check(ratios, R)))

    atom = tfm.BoundaryAtom(lg.GroupElement(np.eye(4)), unit_vector(pt3.spec, rng))
    section = tfm.BoundarySection.from_atoms(pt3, [(atom, 1.0)])
    ks = lg.haar_sample_K(3, size=2, rng=rng)
    mc_seed = int(rng.integers(2 ** 32))

    def reconstruct():
        red = st.inversion_reconstruct(pt3, section, 2.0, samples=64, method="reduced")
        mc = st.inversion_reconstruct(pt3, section, 2.0, samples=64, method="mc",
                                      mc_k1=2000, rng=np.random.default_rng(mc_seed))
        return red.eval_batch(ks), mc.eval_batch(ks)

    def reconstruct_check(out):
        red, mc = out
        gap = float(np.max(np.abs(red - mc)) / np.max(np.abs(red)))
        return None if gap <= 0.15 else f"mc and reduced reconstructions differ by {gap:.3f}"

    jobs.append(Job("reconstruct_mc_vs_reduced", reconstruct, _ignore_ref(reconstruct_check)))
    return jobs


# ---------------------------------------------------------------------------
# group_mc: batched group-level Monte Carlo


def _mc_check(out):
    exact, estimate, stderr = out
    return mc_within(estimate, exact, stderr)


def group_mc(seed):
    rng = np.random.default_rng(seed)
    jobs = []
    for n, p, samples in ((3, 1, 4096), (6, 2, 4096), (8, 3, 1024)):
        pt = SpectralPoint(BundleSpec(n, p), sigma_q(p), 1.0)
        atom = tfm.BoundaryAtom(cartan_element(n, rng.uniform(0.2, 1.0), rng),
                                unit_vector(pt.spec, rng))
        section = tfm.BoundarySection.from_atoms(pt, [(atom, 1.0)])
        x = cartan_element(n, rng.uniform(0.2, 1.0), rng)
        mc_seed = int(rng.integers(2 ** 32))

        def run(pt=pt, atom=atom, section=section, x=x, samples=samples, mc_seed=mc_seed):
            exact = tfm.poisson_atom(pt, atom, x)
            got, se = tfm.poisson_mc(pt, section, x, samples, rng=np.random.default_rng(mc_seed))
            return exact.coeffs, got.coeffs, se

        jobs.append(Job(f"poisson_mc_n{n}p{p}", run, _ignore_ref(_mc_check)))

    # an atom at a pure rotation has the ball averages of the base-point
    # atom with the same vector, but goes through the mc_k route
    for n, p, k_samples, grid in ((3, 1, 256, (1.0, 1.5, 2.0, 2.5)),
                                  (6, 2, 32, (1.0, 1.25, 1.5, 1.75))):
        pt = SpectralPoint(BundleSpec(n, p), sigma_q(p), 1.0)
        v = unit_vector(pt.spec, rng)
        rotated = tfm.BoundarySection.from_atoms(
            pt, [(tfm.BoundaryAtom(random_rotation(n, rng), v), 1.0)])
        base = tfm.BoundarySection.from_atoms(
            pt, [(tfm.BoundaryAtom(lg.GroupElement(np.eye(n + 1)), v), 1.0)])
        mc_seed = int(rng.integers(2 ** 32))

        def check(rep, exact, grid=grid):
            if rep.method != "mc_k":
                return f"method {rep.method} is not mc_k"
            for R, val, se, want in zip(grid, rep.values, rep.stderrs, exact):
                msg = mc_within(val, want, se, MC_K_SIGMAS)
                if msg:
                    return f"R={R:g}: {msg}"
            return None

        jobs.append(Job(f"mc_k_limit_n{n}",
                        lambda pt=pt, sec=rotated, grid=grid, k=k_samples, s=mc_seed:
                        st.strichartz_limit(pt, sec, R_grid=grid, k_samples=k,
                                            rng=np.random.default_rng(s)),
                        check,
                        ref=lambda pt=pt, base=base, grid=grid:
                        [st.ball_average_atom(pt, base, R) for R in grid]))

    pt3 = SpectralPoint(BundleSpec(3, 1), sigma_q(1), 1.0)
    g = boost(rng.uniform(0.3, 0.8), 3) @ horo(rng.uniform(-0.5, 0.5, size=2))
    translated = tfm.BoundaryAtom(lg.GroupElement(g), unit_vector(pt3.spec, rng))
    resid_seed = int(rng.integers(2 ** 32))

    def residual_check(rows):
        for r in rows:
            if not (np.isfinite(r["stderr"]) and r["stderr"] > 0):
                return f"R={r['R']:g}: standard error {r['stderr']!r}"
            if not 0 < r["deviation"] < r["average"]:
                return f"R={r['R']:g}: deviation {r['deviation']!r} not in (0, {r['average']!r})"
        return None

    jobs.append(Job("residual_sweep_translated",
                    lambda: st.asymptotic_residual_sweep(pt3, translated, R_grid=(2.0, 4.0),
                                                         k_samples=200,
                                                         rng=np.random.default_rng(resid_seed)),
                    _ignore_ref(residual_check)))

    bump = tfm.bump_section(BundleSpec(3, 1), 1.0)
    k = lg.haar_sample_K(3, rng=rng)
    fourier_seed = int(rng.integers(2 ** 32))

    def fourier():
        quad = tfm.fourier_helgason(bump, pt3, k, t_nodes=24, grid=16)
        mc, se = tfm.fourier_direct_mc(bump, pt3, k, 20000, rng=np.random.default_rng(fourier_seed))
        return quad.coeffs, mc.coeffs, se

    jobs.append(Job("fourier_helgason_vs_direct_mc", fourier, _ignore_ref(_mc_check)))

    energy_seed = int(rng.integers(2 ** 32))

    def energy_check(out):
        fraction = out[1]["fraction"]
        if 0.5 < fraction < 1.05:
            return None
        return f"energy fraction {fraction!r} outside (0.5, 1.05)"

    jobs.append(Job("spectral_projection_energy",
                    lambda: st.spectral_projection_energy(
                        bump, np.linspace(0.25, 4.0, 7), R=2.0, g_samples=256, k_samples=200,
                        t_nodes=16, grid=12, rng=np.random.default_rng(energy_seed),
                        details=True),
                    _ignore_ref(energy_check)))

    two = tfm.BoundarySection.from_atoms(pt3, [
        (tfm.BoundaryAtom(lg.GroupElement(np.eye(4)), unit_vector(pt3.spec, rng)), 1.0),
        (tfm.BoundaryAtom(random_rotation(3, rng), unit_vector(pt3.spec, rng)),
         complex(*rng.uniform(-1.0, 1.0, size=2)))])
    norm_seed = int(rng.integers(2 ** 32))

    def section_norm():
        ks = lg.haar_sample_K(3, size=20000, rng=np.random.default_rng(norm_seed))
        sq = np.sum(np.abs(two.eval_batch(ks)) ** 2, axis=-1)
        return st.section_norm2(two), float(sq.mean()), float(sq.std() / np.sqrt(sq.size))

    jobs.append(Job("section_norm2_vs_boundary_mc", section_norm, _ignore_ref(_mc_check)))
    return jobs


# ---------------------------------------------------------------------------
# point: the scalar API and the cli layer, one element at a time


def point(seed):
    # the seed draws rotations and vectors; radii sit on fixed grids, since
    # the cost of the Jacobi series depends on the radius and a pass must
    # be the same work on every seed
    rng = np.random.default_rng(seed)
    pt = SpectralPoint(BundleSpec(6, 2), sigma_q(2), 1.0)
    n = pt.n
    jobs = []

    decomp = [cartan_element(n, t, rng) for t in np.linspace(0.0, 3.0, 200)]
    decomp += [g.inv() for g in decomp]

    def decomp_check(out):
        for g, (ca, iw) in zip(decomp, out):
            scale = float(np.max(np.abs(g.mat)))
            cart = embed(ca.k1.mat) @ boost(ca.t, n) @ embed(ca.k2.mat)
            iwas = embed(iw.kappa.mat) @ boost(iw.h, n) @ horo(iw.y)
            for name, rebuilt in (("cartan", cart), ("iwasawa", iwas)):
                gap = float(np.max(np.abs(rebuilt - g.mat))) / scale
                if gap > 1e-10:
                    return f"{name} factors rebuild g to {gap:.2e}"
        return None

    jobs.append(Job("cartan_iwasawa", lambda: [(lg.cartan(g), lg.iwasawa(g)) for g in decomp],
                    _ignore_ref(decomp_check)))

    # elements g_i = k1 a_{t_i} k2 and their inverses
    ts = np.linspace(0.2, 2.5, 100)
    gs = [cartan_element(n, t, rng) for t in ts]
    pairs = gs + [g.inv() for g in gs]
    # the spherical_at check reads this pass's scalar components at t_i
    comps = {}

    def components():
        comps["values"] = [sph.scalar_components(pt, t).components for t in ts]
        return comps["values"]

    def components_check(out):
        for vals in out:
            if not all(np.isfinite(v) and abs(v) <= 1.0 + 1e-9 for v in vals.values()):
                return f"component values {vals} not finite or above 1"
        return None

    jobs.append(Job("scalar_components", components, _ignore_ref(components_check)))

    ranks = {eta: comb(n - 1, eta.q) for eta in xr.branching(pt.spec)}

    def spherical_check(out):
        m = len(gs)
        for i in range(m):
            phi, phi_inv = out[i], out[m + i]
            if np.max(np.abs(phi_inv - phi.conj().T)) > 1e-10:
                return "Phi(g^-1) != Phi(g)^*"
            want = np.sort(np.concatenate([np.full(ranks[eta], abs(v))
                                           for eta, v in comps["values"][i].items()]))
            got = np.sort(np.linalg.svd(phi, compute_uv=False))
            if np.max(np.abs(got - want)) > 1e-10:
                return "singular values of Phi(g) != |phi_eta(t)|"
        return None

    jobs.append(Job("spherical_at", lambda: [sph.spherical_at(pt, g) for g in pairs],
                    _ignore_ref(spherical_check)))

    rank = ranks[pt.sigma]

    def head_check(out):
        m = len(gs)
        for i in range(m):
            head, head_inv = out[i], out[m + i]
            if np.max(np.abs(head_inv - head.conj().T)) > 1e-10:
                return "head(g^-1) != head(g)^*"
            s = np.linalg.svd(head, compute_uv=False)
            if np.ptp(s[:rank]) > 1e-9 * s[0] or np.max(s[rank:]) > 1e-12 * s[0]:
                return f"head(g) is not |h| times a rank-{rank} partial isometry"
        return None

    jobs.append(Job("asymptotic_head", lambda: [sph.asymptotic_head(pt, g) for g in pairs],
                    _ignore_ref(head_check)))

    zonal_ts = (0.5, 1.2, 1.9)

    def zonal_check(out):
        for oracle, comp in out:
            for eta, val in comp.items():
                if abs(val - oracle[eta]) > 1e-7:
                    return f"component {eta} = {val!r}, K-integral {oracle[eta]!r}"
        return None

    jobs.append(Job("eisenstein_integral_at",
                    lambda: [(sph.eisenstein_integral_at(pt, t),
                              sph.scalar_components(pt, t).components) for t in zonal_ts],
                    _ignore_ref(zonal_check)))

    atoms = [tfm.BoundaryAtom(cartan_element(n, t, rng), unit_vector(pt.spec, rng))
             for t in np.linspace(0.2, 1.5, 10)]
    # x_i = g_{i mod 10} k a_s k' sits at distance s from its atom's base
    # point; every tenth point is the base point itself, where the image is v
    xs = [atoms[i % 10].g if i % 10 == 0 else atoms[i % 10].g @ cartan_element(n, s, rng)
          for i, s in enumerate(np.linspace(0.2, 2.5, 100))]

    def poisson_check(out):
        for i, val in enumerate(out):
            v = atoms[i % 10].v.coeffs
            if np.linalg.norm(val.coeffs) > 1.0 + 1e-9:
                return f"|P(x_{i})| above |v| = 1"
            gap = float(np.max(np.abs(val.coeffs - v)))
            if i % 10 == 0 and gap > 1e-6:
                return f"P at the atom's base point differs from v by {gap:.2e}"
        return None

    jobs.append(Job("poisson_atom",
                    lambda: [tfm.poisson_atom(pt, atoms[i % 10], x) for i, x in enumerate(xs)],
                    _ignore_ref(poisson_check)))

    def gram_check(gm):
        if np.max(np.abs(gm - gm.conj().T)) > 1e-10:
            return "Gram matrix is not Hermitian"
        if np.min(np.linalg.eigvalsh(gm)) < -1e-10:
            return "Gram matrix is not positive semidefinite"
        if np.max(np.abs(np.diag(gm) - 1.0)) > 1e-9:
            return "Gram diagonal != |v|^2 = 1"
        return None

    jobs.append(Job("gram_matrix", lambda: tfm.gram_matrix(pt, atoms[:8]), _ignore_ref(gram_check)))

    c_args = [(float(rng.choice([0.5, 1.0, 1.5, 2.0, 3.0])), float(rng.choice([-0.5, 0.0, 3.0])),
               float(rng.uniform(0.2, 6.0))) for _ in range(100)]

    def c_check(vals, refs):
        for (a, b, lam), got, want in zip(c_args, vals, refs):
            if rel_gap(got, want) > 1e-11:
                return f"c({a},{b};{lam:.4f}) = {got!r}, mpmath {want!r}"
        return None

    jobs.append(Job("c_jacobi", lambda: [sf.c_jacobi(a, b, lam) for a, b, lam in c_args],
                    c_check, ref=lambda: [c_jacobi_mp(*args) for args in c_args]))

    lam = float(rng.uniform(0.5, 3.0))
    cheap_points = ((6, 2, "none", sigma_q(2)), (5, 2, "none", SIGMA_PLUS),
                    (4, 2, "plus", sigma_q(2)))

    def cheap():
        out = [run_cli("decompose", "--random", "--n", n, "--seed", seed)]
        for nn, p, chir, sigma in cheap_points:
            args = ("--n", nn, "--p", p, "--chirality", chir, "--sigma", sigma, "--lambda", lam)
            out.append(run_cli("density", *args))
            out.append(run_cli("cfun", *args))
        return out

    def cheap_check(out, refs):
        for res in out:
            msg = cli_ok(res)
            if msg:
                return msg
        for i, (nu, c2) in enumerate(refs):
            got_nu = out[1 + 2 * i][1]["plancherel_density"]["value"]
            got_c2 = out[2 + 2 * i][1]["abs_c_squared"]["value"]
            if rel_gap(got_nu, nu) > 1e-9 or rel_gap(got_c2, c2) > 1e-9:
                return f"density or |c|^2 at {cheap_points[i][:3]} off the mpmath values"
        return None

    jobs.append(Job("cli_decompose_density_cfun", cheap, cheap_check,
                    ref=lambda: [(density_mp(*pnt, lam), abs(c_sigma_mp(*pnt, lam)) ** 2)
                                 for pnt in cheap_points]))
    jobs.append(Job("cli_spherical",
                    lambda: run_cli("spherical", "--n", 6, "--p", 2, "--sigma", "q:1",
                                    "--lambda", 1.0, "--t", 1.3),
                    _ignore_ref(cli_ok)))
    jobs.append(Job("cli_asympt",
                    lambda: run_cli("asympt", "--n", 6, "--p", 2, "--sigma", "q:2",
                                    "--lambda", 1.0),
                    _ignore_ref(cli_ok)))
    return jobs


WORKLOADS = {"radial": radial, "inversion": inversion, "group_mc": group_mc, "point": point}
