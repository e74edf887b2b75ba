"""Command-line front end: every verification as a seeded experiment.

Each subcommand assembles a RunConfig from an optional flat key=value
config file plus flag overrides, runs one experiment, and writes a
single report at the end.  JSON reports follow the schema
{meta: {version, config, seed}, rows: [{name, target, value, stderr,
tol, pass}]}; CSV reports carry the same rows.  Identical (config,
seed) pairs produce byte-identical output.  Exit status: 0 when every
row passes, 1 when a numerical check fails or a quadrature or special
function cannot meet its tolerance, 2 for inadmissible configuration or
unreadable input.
"""

import csv
import functools
import io
import json
import sys
from math import pi

import click
import numpy as np

from . import __version__
from . import extrep as xr
from . import liegroup as lg
from . import spherical as sph
from . import strichartz as st
from . import transforms as tfm

_CONFIG_TYPES = {
    "n": int,
    "p": int,
    "chirality": str,
    "sigma": str,
    "lambda": float,
    "t": float,
    "R_grid": "grid",
    "samples": int,
    "seed": int,
    "tol": float,
    "format": str,
}

_DEFAULTS = {
    "n": 3,
    "p": 1,
    "chirality": "none",
    "sigma": None,
    "lambda": 1.0,
    "t": 1.0,
    "R_grid": None,
    "samples": None,
    "seed": None,
    "tol": None,
    "format": "json",
}


# ---------------------------------------------------------------------------
# configuration plumbing


def _parse_grid(txt):
    if isinstance(txt, (tuple, list)):
        return tuple(float(x) for x in txt)
    parts = [s for s in str(txt).split(",") if s.strip()]
    try:
        vals = tuple(float(s) for s in parts)
    except ValueError:
        raise click.UsageError(f"R_grid {txt!r} is not a comma-separated list of radii")
    if not vals:
        raise click.UsageError("R_grid is empty")
    return vals


def _coerce(key, raw):
    kind = _CONFIG_TYPES[key]
    if kind == "grid":
        return _parse_grid(raw)
    try:
        return kind(raw)
    except (TypeError, ValueError):
        raise click.UsageError(f"config value {key}={raw!r} is not a valid {kind.__name__}")


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
        if key not in _CONFIG_TYPES:
            raise click.UsageError(f"{path}:{lineno}: unknown config key {key!r}")
        data[key] = _coerce(key, raw.strip())
    return data


def _build_config(kwargs, command_defaults=None):
    """Defaults, then the config file, then explicit flags."""
    cfg = dict(_DEFAULTS)
    if command_defaults:
        cfg.update(command_defaults)
    path = kwargs.pop("config_path", None)
    if path:
        cfg.update(_load_config_file(path))
    out_path = kwargs.pop("out_path", None)
    renames = {"lam": "lambda", "fmt": "format", "r_grid": "R_grid"}
    for key, val in kwargs.items():
        name = renames.get(key, key)
        if name not in _CONFIG_TYPES:
            continue
        if val is not None:
            cfg[name] = _coerce(name, val)
    cfg["out"] = out_path
    return cfg


def _common_options(fn):
    opts = [
        click.option("--config", "config_path", type=click.Path(), default=None,
                     help="flat key=value config file; flags override it"),
        click.option("--n", type=int, default=None, help="dimension of the hyperbolic space"),
        click.option("--p", type=int, default=None, help="form degree"),
        click.option("--chirality", type=click.Choice(["none", "plus", "minus"]),
                     default=None, help="half-dimension eigenbundle choice (n = 2p only)"),
        click.option("--sigma", "sigma", default=None,
                     help='branching label: "q:K", "plus", or "minus"'),
        click.option("--lambda", "lam", type=float, default=None, help="spectral parameter"),
        click.option("--t", type=float, default=None, help="radial coordinate"),
        click.option("--R-grid", "r_grid", "--r-grid", default=None,
                     help="comma-separated ball radii"),
        click.option("--samples", type=int, default=None, help="Monte Carlo budget"),
        click.option("--seed", type=int, default=None, help="RNG seed (mandatory for Monte Carlo)"),
        click.option("--tol", type=float, default=None, help="tolerance override"),
        click.option("--format", "fmt", type=click.Choice(["json", "csv"]), default=None),
        click.option("--out", "out_path", type=click.Path(), default=None,
                     help="write the report to this file instead of stdout"),
    ]

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


def _parse_sigma(label):
    if label is None:
        raise click.UsageError("--sigma is required for this command")
    s = str(label).strip()
    if s in ("plus", "+"):
        return xr.SIGMA_PLUS
    if s in ("minus", "-"):
        return xr.SIGMA_MINUS
    if s.startswith("q:"):
        try:
            return xr.sigma_q(int(s[2:]))
        except ValueError:
            pass
    raise click.UsageError(f'sigma label {label!r} not understood (use "q:K", "plus", "minus")')


def _point(cfg):
    try:
        spec = xr.BundleSpec(cfg["n"], cfg["p"], cfg["chirality"])
        return sph.SpectralPoint(spec, _parse_sigma(cfg["sigma"]), cfg["lambda"])
    except ValueError as exc:
        raise click.UsageError(str(exc))


def _require_seed(cfg):
    if cfg.get("seed") is None:
        raise click.UsageError("this command is Monte Carlo; --seed is mandatory")
    return int(cfg["seed"])


def _default_vector(spec):
    """Deterministic unit fiber vector, chirality-projected when needed."""
    v = np.zeros(spec.dim_full, dtype=complex)
    v[0] = 1.0
    if spec.chirality != "none":
        v = xr.chirality_matrix(spec.n, spec.chirality) @ v
    return xr.FormVector(spec.n, spec.p, v / np.linalg.norm(v), spec=spec)


def _identity_section(pt):
    atom = tfm.BoundaryAtom(lg.GroupElement(np.eye(pt.n + 1)), _default_vector(pt.spec))
    return tfm.BoundarySection.from_atoms(pt, [(atom, 1.0)])


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


def _json_safe(obj):
    if isinstance(obj, np.ndarray):
        return [_json_safe(x) for x in obj.tolist()]
    if isinstance(obj, (list, tuple)):
        return [_json_safe(x) for x in obj]
    if isinstance(obj, dict):
        return {k: _json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    return obj


def _emit(cfg, rows, extra_meta=None):
    """Write the report once, then exit 1 if any row failed."""
    config = {k: _json_safe(v) for k, v in sorted(cfg.items())
              if k not in ("out",) and v is not None}
    meta = {"version": __version__, "config": config, "seed": cfg.get("seed")}
    if extra_meta:
        meta.update(_json_safe(extra_meta))
    if (cfg.get("format") or "json") == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["name", "target", "value", "stderr", "tol", "pass"])
        for r in rows:
            writer.writerow([
                r["name"],
                "" if r["target"] is None else repr(r["target"]),
                "" if r["value"] is None else repr(r["value"]),
                "" if r["stderr"] is None else repr(r["stderr"]),
                "" if r["tol"] is None else repr(r["tol"]),
                "true" if r["pass"] else "false",
            ])
        text = buf.getvalue()
    else:
        text = json.dumps({"meta": meta, "rows": rows}, indent=2, sort_keys=True) + "\n"
    if cfg.get("out"):
        with open(cfg["out"], "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        click.echo(text, nl=False)
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
    try:
        if matrix_path is not None:
            try:
                mat = np.loadtxt(matrix_path)
            except (OSError, ValueError) as exc:
                raise click.UsageError(f"cannot parse matrix file: {exc}")
            g = lg.GroupElement(mat)
        elif boost is not None:
            g = lg.make_at(boost, cfg["n"])
        else:
            rng = np.random.default_rng(_require_seed(cfg))
            k1, k2 = lg.haar_sample_K(cfg["n"], size=2, rng=rng)
            g = lg.make_rotation(k1) @ lg.make_at(rng.uniform(0.5, 2.5), cfg["n"]) @ lg.make_rotation(k2)
    except ValueError as exc:
        raise click.UsageError(f"invalid matrix: {exc}")

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
    comp = sph.scalar_components(pt, t).components
    oracle = sph.eisenstein_integral_at(pt, t)
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
    n, rho = pt.n, pt.rho
    ts = np.linspace(1.0, 15.0, 57)
    vals = []
    for t in ts:
        g = lg.make_at(float(t), n)
        res = sph.op_norm(sph.spherical_at(pt, g) - sph.asymptotic_head(pt, g))
        vals.append(np.exp((rho + 1.0) * t) * res)
    rows = [_row(f"remainder[t={t:g}]", v) for t, v in zip(ts, vals)]
    # oscillation of period pi/lambda rides on the decay, so the trend
    # is judged on half-interval suprema over [5, 15]
    vals = np.array(vals)
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
    section = _identity_section(pt)
    rng = None if cfg["seed"] is None else np.random.default_rng(cfg["seed"])
    try:
        rep = st.strichartz_limit(pt, section, R_grid=cfg["R_grid"], rng=rng)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    rows = [
        _row(f"ball_average[R={R:g}]", v, stderr=s)
        for R, v, s in zip(rep.R_grid, rep.values, rep.stderrs)
    ]
    rows.append(_row("extrapolated_limit", rep.extrapolated_limit, rep.target,
                     cfg["tol"] * abs(rep.target), stderr=rep.stderr))
    rows.append(_row("bstar_bound_constant", rep.bound_constant, 10.0,
                     ok=rep.bound_constant <= 10.0))
    _emit(cfg, rows, extra_meta={"method": rep.method})


@main.command()
@_common_options
def invert(**kwargs):
    """Boundary reconstruction error of the ball-average inversion."""
    cfg = _build_config(kwargs, {"R_grid": (20.0, 40.0, 80.0),
                                 "samples": 1000000, "tol": 0.05})
    seed = _require_seed(cfg)
    pt = _point(cfg)
    section = _identity_section(pt)
    ks = lg.haar_sample_K(pt.n, size=int(cfg["samples"]), rng=np.random.default_rng(seed))
    recs = [st.inversion_reconstruct(pt, section, float(R), samples=int(cfg["samples"]))
            for R in cfg["R_grid"]]
    err_sq = [0.0] * len(recs)
    truth_sq = 0.0
    chunk = 65536
    # the truth does not depend on R: evaluate it once per chunk
    for lo in range(0, ks.shape[0], chunk):
        kb = ks[lo:lo + chunk]
        want = section.eval_batch(kb)
        truth_sq += float(np.sum(np.abs(want) ** 2))
        for i, rec in enumerate(recs):
            err_sq[i] += float(np.sum(np.abs(rec.eval_batch(kb) - want) ** 2))
    errs = [np.sqrt(e / truth_sq) for e in err_sq]
    rows = [
        _row(f"rel_error[R={R:g}]", e, ok=np.isfinite(e) and e <= cfg["tol"],
             tol=cfg["tol"])
        for R, e in zip(cfg["R_grid"], errs)
    ]
    # the error is O(1/R) but not monotone (cos^2(lambda R)/R for an
    # e-atom at n = 3), so the gate bounds the envelope max_R R err
    envelope = max(float(R) * e for R, e in zip(cfg["R_grid"], errs))
    bound = cfg["tol"] * min(cfg["R_grid"])
    rows.append(_row("error_envelope", envelope, tol=bound,
                     ok=np.isfinite(envelope) and envelope <= bound))
    _emit(cfg, rows, extra_meta={"k_samples": int(cfg["samples"]),
                                 "norm_sq": truth_sq / max(ks.shape[0], 1)})


@main.command()
@_common_options
def fourier(**kwargs):
    """Boundedness of the Fourier restriction ratio on bump sections."""
    cfg = _build_config(kwargs, {"R_grid": (2.0, 4.0, 8.0), "samples": 96})
    seed = _require_seed(cfg)
    pt = _point(cfg)
    if pt.n > 4:
        raise click.UsageError("the horocycle quadrature supports n <= 4 only")
    nu = sph.plancherel_density(pt)
    ks = lg.haar_sample_K(pt.n, size=int(cfg["samples"]), rng=np.random.default_rng(seed))
    rows = []
    ratios = []
    for R in cfg["R_grid"]:
        f = tfm.bump_section(pt.spec, float(R))
        nf2 = f.l2_norm() ** 2
        sq = np.array([
            float(np.sum(np.abs(tfm.fourier_helgason(f, pt, k, t_nodes=32, grid=12).coeffs) ** 2))
            for k in ks
        ])
        mean = float(np.mean(sq))
        stderr = float(np.std(sq) / np.sqrt(len(sq)))
        ratio = nu * mean / (float(R) * nf2)
        ratios.append(ratio)
        rows.append(_row(f"restriction_ratio[R={R:g}]", ratio,
                         stderr=nu * stderr / (float(R) * nf2)))
    # informational: no bound on the spread is known, so it gates nothing
    spread = max(ratios) / min(ratios) if min(ratios) > 0 else float("inf")
    _emit(cfg, rows, extra_meta={"ratio_spread": spread})


if __name__ == "__main__":
    main()
