"""Command-line front end: one verification per subcommand.

Every subcommand takes every option of _OPTIONS and ignores the ones it
does not read.  Its configuration is the defaults, then the command's
own defaults, then the --config file (one `key = value` per line, `#`
comments), then the flags given; a file line goes through the flag's
click type.  Only decompose --random draws rotations and needs --seed
(--samples is accepted and read by none); the other commands answer in
closed form or by deterministic quadrature.  Reports follow the schema
{meta: {version, config, seed}, rows: [{name, target, value, stderr,
tol, pass}]}, as JSON or with --format csv as CSV rows, on stdout or in
the --out file; identical (config, seed) pairs give identical bytes.
Exit status: 0 when every row passes, 1 when a numerical check fails or
a quadrature or special function cannot meet its tolerance, 2 for
inadmissible configuration or unreadable input.
"""

import csv
import functools
import io
import json
import sys
from math import isfinite, pi

import click
import numpy as np

from . import __version__
from . import extrep as xr
from . import liegroup as lg
from . import spherical as sph
from . import strichartz as st
from . import transforms as tfm

# ---------------------------------------------------------------------------
# configuration plumbing


class _RadiusGrid(click.ParamType):
    """A comma-separated list of positive finite radii, as a tuple of floats."""

    name = "grid"

    def convert(self, value, param, ctx):
        try:
            vals = tuple(float(s) for s in str(value).split(",") if s.strip())
        except ValueError:
            self.fail(f"{value!r} is not a comma-separated list of radii", param, ctx)
        if not vals:
            self.fail("the radius grid is empty", param, ctx)
        if not all(0.0 < R < float("inf") for R in vals):
            self.fail(f"ball radii must be positive and finite; got {value!r}", param, ctx)
        return vals


# config key -> (flags, click type, default, help)
_OPTIONS = {
    "n": (["--n"], click.INT, 3, "dimension of the hyperbolic space"),
    "p": (["--p"], click.INT, 1, "form degree"),
    "chirality": (["--chirality"], click.Choice(["none", "plus", "minus"]), "none",
                  "half-dimension eigenbundle choice (n = 2p only)"),
    "sigma": (["--sigma"], click.STRING, None, 'branching label: "q:K", "plus", or "minus"'),
    "lambda": (["--lambda"], click.FLOAT, 1.0, "spectral parameter"),
    "t": (["--t"], click.FLOAT, 1.0, "radial coordinate"),
    "R_grid": (["--R-grid", "--r-grid"], _RadiusGrid(), None, "comma-separated ball radii"),
    "samples": (["--samples"], click.INT, None, "accepted; no command reads it"),
    "seed": (["--seed"], click.INT, None, "RNG seed (decompose --random)"),
    "tol": (["--tol"], click.FLOAT, None, "tolerance override"),
    "format": (["--format"], click.Choice(["json", "csv"]), "json", None),
}


def _load_config_file(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise click.UsageError(f"cannot read config file: {exc}")
    data = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise click.UsageError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, raw = line.partition("=")
        key = key.strip()
        if key not in _OPTIONS:
            raise click.UsageError(f"{path}:{lineno}: unknown config key {key!r}")
        try:
            data[key] = _OPTIONS[key][1].convert(raw.strip(), None, None)
        except click.BadParameter as exc:
            raise click.UsageError(f"{path}:{lineno}: config value {key}: {exc.message}")
    return data


def _build_config(kwargs, command_defaults):
    """Defaults, then command defaults, then the config file, then the
    flags given."""
    cfg = {key: row[2] for key, row in _OPTIONS.items()}
    cfg.update(command_defaults)
    path = kwargs.pop("config")
    if path:
        cfg.update(_load_config_file(path))
    cfg.update((key, val) for key, val in kwargs.items() if val is not None)
    return cfg


def _common_options(fn):
    opts = [click.option("--config", type=click.Path(), default=None,
                         help="flat key=value config file; flags override it")]
    opts += [click.option(*flags, key, type=kind, default=None, help=text)
             for key, (flags, kind, _, text) in _OPTIONS.items()]
    opts.append(click.option("--out", type=click.Path(), default=None,
                             help="write the report to this file instead of stdout"))

    @functools.wraps(fn)
    def run(**kwargs):
        # a value no method here can compute to its tolerance exits 1
        # with the reason, not a traceback
        try:
            return fn(**kwargs)
        except ArithmeticError as exc:
            raise click.ClickException(str(exc))

    for opt in reversed(opts):
        run = opt(run)
    return run


def _point(cfg):
    if cfg["sigma"] is None:
        raise click.UsageError("--sigma is required for this command")
    try:
        spec = xr.BundleSpec(cfg["n"], cfg["p"], cfg["chirality"])
        return sph.SpectralPoint(spec, xr.MLabel.parse(cfg["sigma"]), cfg["lambda"])
    except ValueError as exc:
        raise click.UsageError(str(exc))


# ---------------------------------------------------------------------------
# report plumbing


def _row(name, value, target=None, tol=None, stderr=None, ok=None):
    value = None if value is None else float(value)
    target = None if target is None else float(target)
    if ok is None:
        if target is None or tol is None:
            ok = value is None or bool(np.isfinite(value))
        else:
            ok = bool(np.isfinite(value) and abs(value - target) <= tol)
    return {
        "name": str(name),
        "target": target,
        "value": value,
        "stderr": None if stderr is None else float(stderr),
        "tol": None if tol is None else float(tol),
        "pass": bool(ok),
    }


def _json_default(obj):
    # NumPy arrays and scalars; NumPy floats are Python floats already
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def _emit(cfg, rows, extra_meta=None):
    """Write the report once, then exit 1 if any row failed."""
    config = {k: v for k, v in cfg.items() if k != "out" and v is not None}
    meta = {"version": __version__, "config": config, "seed": cfg.get("seed"),
            **(extra_meta or {})}
    if cfg["format"] == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["name", "target", "value", "stderr", "tol", "pass"])
        for r in rows:
            nums = [r[k] for k in ("target", "value", "stderr", "tol")]
            writer.writerow([r["name"], *("" if x is None else repr(x) for x in nums),
                             "true" if r["pass"] else "false"])
        text = buf.getvalue()
    else:
        text = json.dumps({"meta": meta, "rows": rows}, indent=2, sort_keys=True,
                          default=_json_default) + "\n"
    if cfg.get("out"):
        with open(cfg["out"], "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        # not click.echo: its per-stream cache keeps every stdout it has seen
        # alive, so an in-process caller's redirected buffers would pile up
        sys.stdout.write(text)
        sys.stdout.flush()
    if not all(r["pass"] for r in rows):
        sys.exit(1)


# ---------------------------------------------------------------------------
# commands


@click.group()
@click.version_option(version=__version__, prog_name="hyperform")
def main():
    """Seeded verification experiments on the form bundle over H^n."""


@main.command()
@click.option("--matrix", "matrix_path", type=click.Path(), default=None,
              help="whitespace-separated (n+1)x(n+1) matrix file")
@click.option("--at", "boost", type=float, default=None, help="use the boost a_t")
@click.option("--random", "random_g", is_flag=True, help="random element (needs --n, --seed)")
@_common_options
def decompose(matrix_path, boost, random_g, **kwargs):
    """Iwasawa, Cartan, and polar factors with round-trip residuals."""
    cfg = _build_config(kwargs, {"tol": 1e-10})
    given = [matrix_path is not None, boost is not None, random_g]
    if sum(given) != 1:
        raise click.UsageError("choose exactly one of --matrix, --at, --random")
    if matrix_path is not None:
        try:
            mat = np.loadtxt(matrix_path)
        except (OSError, ValueError) as exc:
            raise click.UsageError(f"cannot parse matrix file: {exc}")
        try:
            g = lg.GroupElement(mat)
        except ValueError as exc:
            raise click.UsageError(f"invalid matrix: {exc}")
    elif cfg["n"] < 2:
        raise click.UsageError("need n >= 2")
    elif boost is not None:
        if not isfinite(boost):
            raise click.UsageError(f"--at must be a finite boost, got {boost}")
        g = lg.make_at(boost, cfg["n"])
    else:
        if cfg["seed"] is None:
            raise click.UsageError("this command is Monte Carlo; --seed is mandatory")
        if cfg["seed"] < 0:
            raise click.UsageError(f"--seed must be a non-negative integer, got {cfg['seed']}")
        rng = np.random.default_rng(cfg["seed"])
        k1, k2 = lg.haar_sample_K(cfg["n"], size=2, rng=rng)
        g = lg.make_rotation(k1) @ lg.make_at(rng.uniform(0.5, 2.5), cfg["n"]) @ lg.make_rotation(k2)

    n = g.n
    iw = lg.iwasawa(g)
    ca = lg.cartan(g)
    pol = lg.polar_k(g)
    rebuilt_iw = lg.make_rotation(iw.kappa) @ lg.make_at(iw.h, n) @ lg.make_ny(iw.y)
    rebuilt_ca = lg.make_rotation(ca.k1) @ lg.make_at(ca.t, n) @ lg.make_rotation(ca.k2)
    jj = np.diag([1.0] * n + [-1.0])
    scale = max(1.0, float(np.max(np.abs(g.mat))))
    tol = cfg["tol"]
    rows = [
        _row("iwasawa_roundtrip", np.max(np.abs(rebuilt_iw.mat - g.mat)) / scale, 0.0, tol),
        _row("cartan_roundtrip", np.max(np.abs(rebuilt_ca.mat - g.mat)) / scale, 0.0, tol),
        _row("polar_vs_cartan", np.max(np.abs(pol.mat - ca.k1.mat @ ca.k2.mat)), 0.0, tol),
        _row("lorentz_defect", np.max(np.abs(g.mat.T @ jj @ g.mat - jj)) / scale ** 2, 0.0, 1e-12),
    ]
    factors = {
        "iwasawa": {"H": iw.h, "y": iw.y, "kappa": iw.kappa.mat},
        "cartan": {"tplus": ca.t, "k1": ca.k1.mat, "k2": ca.k2.mat},
        "polar": {"k": pol.mat},
    }
    _emit(cfg, rows, extra_meta={"factors": factors})


@main.command()
@_common_options
def density(**kwargs):
    """Closed-form Plancherel density against the c-function route."""
    cfg = _build_config(kwargs, {"tol": 1e-10})
    pt = _point(cfg)
    nu = sph.plancherel_density(pt)
    d_tau, d_sig, _ = xr.dims(pt.spec, pt.sigma)
    target = (d_tau / d_sig) / (2.0 * pi * abs(sph.c_sigma(pt)) ** 2)
    rows = [_row("plancherel_density", nu, target, cfg["tol"] * abs(target))]
    _emit(cfg, rows)


@main.command()
@_common_options
def cfun(**kwargs):
    """Harish-Chandra c-function value and its density cross-check."""
    cfg = _build_config(kwargs, {"tol": 1e-10})
    pt = _point(cfg)
    c = sph.c_sigma(pt)
    nu = sph.plancherel_density(pt)
    d_tau, d_sig, _ = xr.dims(pt.spec, pt.sigma)
    target = (d_tau / d_sig) / (2.0 * pi * nu)
    rows = [
        _row("c_sigma.re", c.real),
        _row("c_sigma.im", c.imag),
        _row("abs_c_squared", abs(c) ** 2, target, cfg["tol"] * abs(target)),
    ]
    _emit(cfg, rows)


@main.command()
@_common_options
def spherical(**kwargs):
    """Scalar components at radius t against the defining K-integral."""
    cfg = _build_config(kwargs, {"tol": 1e-6})
    pt = _point(cfg)
    t = float(cfg["t"])
    # the K-integral refuses a t outside its domain before any series runs
    try:
        oracle = sph.eisenstein_integral_at(pt, t)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    comp = sph.scalar_components(pt, t).components
    rows = []
    for eta in sorted(comp, key=str):
        want = oracle[eta]
        rows.append(_row(f"phi[{eta}].re", comp[eta].real, want.real, cfg["tol"]))
        rows.append(_row(f"phi[{eta}].im", comp[eta].imag, want.imag, cfg["tol"]))
    _emit(cfg, rows)


@main.command()
@_common_options
def asympt(**kwargs):
    """Weighted remainder of the two-term Weyl head along the radius."""
    cfg = _build_config(kwargs, {"tol": 0.1})
    pt = _point(cfg)
    ts = np.linspace(1.0, 15.0, 57)
    # Phi(a_t) - head(a_t) = sum_eta psi_eta(t) P_eta with orthogonal P_eta,
    # so its operator norm is max_eta |psi_eta(t)|
    (res,) = sph.radial_kinds(pt, ts, ("residual",))
    vals = np.exp((pt.rho + 1.0) * ts) * np.max(np.abs(list(res.values())), axis=0)
    rows = [_row(f"remainder[t={t:g}]", v) for t, v in zip(ts, vals)]
    # oscillation of period pi/lambda rides on the decay, so the trend
    # is judged on half-interval suprema over [5, 15]
    early = vals[(ts >= 5.0) & (ts <= 10.0)].max()
    late = vals[(ts >= 10.0) & (ts <= 15.0)].max()
    worst = float(late / early)
    rows.append(_row("bounded_sup", float(np.max(vals))))
    rows.append(_row("tail_peak_ratio", worst, ok=worst <= 1.0 + cfg["tol"]))
    _emit(cfg, rows)


@main.command(name="limit")
@_common_options
def limit_cmd(**kwargs):
    """Ball-average sweep, extrapolated limit, and the two-sided bound."""
    cfg = _build_config(kwargs, {"tol": 0.01})
    pt = _point(cfg)
    atom = tfm.BoundaryAtom(lg.GroupElement(np.eye(pt.n + 1)), xr.default_vector(pt.spec))
    section = tfm.BoundarySection.from_atoms(pt, [(atom, 1.0)])
    try:
        rep = st.strichartz_limit(pt, section, R_grid=cfg["R_grid"])
    except ValueError as exc:
        raise click.UsageError(str(exc))
    rows = [
        _row(f"ball_average[R={R:g}]", v, stderr=s)
        for R, v, s in zip(rep.R_grid, rep.values, rep.stderrs)
    ]
    rows.append(_row("extrapolated_limit", rep.extrapolated_limit, rep.target,
                     cfg["tol"] * abs(rep.target), stderr=rep.stderr))
    # informational: no bound on the constant is derived, so it gates nothing
    rows.append(_row("bstar_bound_constant", rep.bound_constant))
    _emit(cfg, rows, extra_meta={"method": rep.method})


# the radius at which invert's default bound reads the residual constant:
# the tail past it, O(e^{-2R}) (O(e^{-R}) on the chirality bundles), is
# far below the six digits the envelope keeps (the same digits from 20, 30
# and 40 at (4,2,+), lambda = 1 and 0.3, and at (6,3,-), lambda = 1)
_ENVELOPE_R = 20.0


def _error_envelope(pt, r_env):
    """sup over R of R |r(R) - 1| for the matched inversion ratio
    r(R) = pi nu avg(R), avg the Schur ball average of an identity atom,
    from the closed form R (r - 1) = pi nu [R (H - L_head) + C] - pi nu T(R):
    with pi nu L_head = 1 and the tail T = O(e^{-2R}) left out, it is
    E(R) = pi nu (R H(R) + C) - R = E_inf + Re(M e^{2 i lambda R}), H the
    closed-form head average and C the residual constant, read off
    r_env = r(_ENVELOPE_R).  Three radii a quarter period apart give E_inf
    and |M|; the envelope is |E_inf| + |M| rounded up to six significant
    digits past the sweep's 1e-10 tolerance (so 1 at n = 3 stays 1)."""
    nu = sph.plancherel_density(pt)
    lam = abs(pt.lam_real)
    radii = _ENVELOPE_R + (pi / (4.0 * lam) if lam else 0.0) * np.arange(3)
    heads = np.array([st.head_ball_average(pt, R) for R in radii])
    e = pi * nu * (radii * heads - _ENVELOPE_R * heads[0]) + _ENVELOPE_R * r_env.real - radii
    e_inf = 0.5 * (e[0] + e[2])
    sup = abs(e_inf) + np.hypot(0.5 * (e[0] - e[2]), e[1] - e_inf)
    scale = 10.0 ** (5 - np.floor(np.log10(sup)))  # a NaN stays NaN, which the gates refuse
    return float(np.ceil(sup * scale * (1.0 - 1e-10)) / scale)


@main.command()
@_common_options
def invert(**kwargs):
    """Boundary reconstruction error of the ball-average inversion."""
    cfg = _build_config(kwargs, {"R_grid": (20.0, 40.0, 80.0)})
    pt = _point(cfg)
    grid = [float(R) for R in cfg["R_grid"]]
    # one sweep serves the grid and, for the default bound, _ENVELOPE_R
    radii = np.array(sorted({*grid, *([_ENVELOPE_R] if cfg["tol"] is None else [])}))
    # F_R - F = (r(R) - 1) F: every block has the one ratio r(R)
    r = next(iter(st.inversion_ratios(pt, radii).values()))
    errs = [abs(r[i] - 1.0) for i in np.searchsorted(radii, grid)]
    # the error is O(1/R) but not monotone (cos^2(lambda R)/R for an
    # e-atom at n = 3), so the gate bounds the envelope max_R R err by
    # tol min R; by default by the bundle's own sup_R R err (1 at n = 3),
    # which sigma^{+-} meets at every R (no wave) up to its sweep's rounding
    slack = 1.0
    if cfg["tol"] is None:
        r_env = r[np.searchsorted(radii, _ENVELOPE_R)]
        cfg["tol"], slack = _error_envelope(pt, r_env) / min(grid), 1.0 + 1e-6
    tol = cfg["tol"]
    rows = [
        _row(f"rel_error[R={R:g}]", e, ok=np.isfinite(e) and e <= tol * slack, tol=tol)
        for R, e in zip(cfg["R_grid"], errs)
    ]
    envelope = max(R * e for R, e in zip(grid, errs))
    bound = tol * min(grid)
    rows.append(_row("error_envelope", envelope, tol=bound,
                     ok=np.isfinite(envelope) and envelope <= bound * slack))
    _emit(cfg, rows)


@main.command()
@_common_options
def fourier(**kwargs):
    """Restriction ratios nu |b_sigma|^2 (d_sigma/d_tau) |v0|^2 / (R ||f||^2) of bumps f
    of radius R: Cauchy-Schwarz on [0, R] gives |b_sigma|^2 <= d_{tau,sigma} ||f||^2 R A(R)
    / |v0|^2, A(R) the ball average of a unit base-point vector, so ratio <= nu A(R)."""
    cfg = _build_config(kwargs, {"R_grid": (2.0, 4.0, 8.0)})
    pt = _point(cfg)
    nu = sph.plancherel_density(pt)
    d_tau, d_sig, _ = xr.dims(pt.spec, pt.sigma)
    rows = []
    for R in cfg["R_grid"]:
        f = tfm.bump_section(pt.spec, float(R))
        try:
            ((b,),), norm2, ((avg,),) = st.bump_transform(f, [pt.lam_real], sigmas=[pt.sigma])
        except ValueError as exc:
            raise click.UsageError(str(exc))
        # F f(lambda, k) = b_sigma P_sigma tau(k)^T v0, whose squared norm
        # has K-mean |b_sigma|^2 (d_sigma/d_tau) |v0|^2 by Schur orthogonality
        ratio = nu * b ** 2 * (d_sig / d_tau) * np.vdot(f.v0, f.v0).real / (float(R) * norm2)
        bound = nu * avg
        rows.append(_row(f"restriction_ratio[R={R:g}]", ratio, tol=bound,
                         ok=ratio <= bound * (1.0 + 1e-8)))
    # informational: no bound on the spread is known, so it gates nothing
    ratios = [row["value"] for row in rows]
    spread = max(ratios) / min(ratios) if min(ratios) > 0 else float("inf")
    _emit(cfg, rows, extra_meta={"ratio_spread": spread})


if __name__ == "__main__":
    main()
