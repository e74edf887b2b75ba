"""sha256 digests of the command-line reports of a fixed list of
invocations, and their comparison between two checkouts.

    python3 tools/cli_reports.py show --checkout DIR
    python3 tools/cli_reports.py compare --parent DIR --change DIR

`show` runs every invocation of INVOCATIONS as `python -m hyperform.cli`,
each in its own child process with DIR/src first on the import path and
one BLAS/OpenMP thread, in a fresh working directory that holds the
config files of CONFIG_FILES.  It prints one line per invocation: its
name, its exit code, the sha256 of its stdout and the sha256 of the file
it wrote through --out (- when it was given none).

`compare` runs `show` on both checkouts and lists the invocations whose
exit code, stdout or --out file differ; it exits 1 if any does.  It also
prints the first `Error:` line of stderr of both sides for every
invocation that exited 2 on either side with a different message (a
changed usage-error text), which does not count as a difference.
"""

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile

CONFIG_FILES = {
    "point.cfg": "# a spectral point at n = 6\nn = 6\np=2\n\n"
                 "sigma =  q:1   # trailing comment\nlambda = 0.5\ntol = 1e-9\n",
    "bad_value.cfg": "n = six\n",
    "unknown_key.cfg": "bogus = 1\n",
    "bad_format.cfg": "format = xml\nsigma = q:1\n",
}

GRID = "12.5,25,50,100"

INVOCATIONS = [
    ("decompose_at_n3", "decompose --at 1.5 --n 3"),
    ("decompose_at10_n6", "decompose --at 10 --n 6"),
    ("decompose_random_n4", "decompose --random --n 4 --seed 3"),
    ("density_n3_q1", "density --n 3 --p 1 --sigma q:1"),
    ("density_n6_q2", "density --n 6 --p 2 --sigma q:2 --lambda 0.5"),
    ("density_n4_plus", "density --n 4 --p 2 --chirality plus --sigma q:2 --lambda 2"),
    ("density_n6_plus", "density --n 6 --p 3 --chirality plus --sigma q:3"),
    ("cfun_n3_plus", "cfun --n 3 --p 1 --sigma plus"),
    ("cfun_n6_q1", "cfun --n 6 --p 2 --sigma q:1 --lambda 2"),
    ("cfun_n6_plus", "cfun --n 6 --p 3 --chirality plus --sigma q:3"),
    ("spherical_n3_q1", "spherical --n 3 --p 1 --sigma q:1 --t 0.5"),
    ("spherical_n6_q1", "spherical --n 6 --p 2 --sigma q:1 --t 2"),
    ("spherical_n4_minus", "spherical --n 4 --p 2 --chirality minus --sigma q:2 --t 1.5"),
    ("spherical_n8_q3", "spherical --n 8 --p 3 --sigma q:3 --t 1.2"),
    ("spherical_n4_lambda60", "spherical --n 4 --p 1 --sigma q:1 --lambda 60 --t 1.0"),
    ("spherical_domain_edge", "spherical --n 3 --p 1 --sigma q:1 --t -9"),
    ("usage_spherical_t_domain", "spherical --n 3 --p 1 --sigma q:1 --t 12"),
    ("asympt_n3_plus", "asympt --n 3 --p 1 --sigma plus"),
    ("asympt_n6_q2", "asympt --n 6 --p 2 --sigma q:2"),
    ("limit_n3_q1", f"limit --n 3 --p 1 --sigma q:1 --R-grid {GRID}"),
    ("limit_n6_q1", f"limit --n 6 --p 2 --sigma q:1 --R-grid {GRID}"),
    ("limit_n4_plus", f"limit --n 4 --p 2 --chirality plus --sigma q:2 --lambda 2 --R-grid {GRID}"),
    ("limit_n3_default_grid", "limit --n 3 --p 1 --sigma q:1 --lambda 25"),
    ("limit_n7_underflow", "limit --n 7 --p 2 --sigma q:2"),
    ("invert_n3", "invert --n 3 --p 1 --sigma q:1 --seed 1 --samples 2000"),
    ("invert_n6_q2", "invert --n 6 --p 2 --sigma q:2"),
    ("invert_n3_failing_gate", "invert --n 3 --p 1 --sigma q:1 --tol 0.01"),
    ("invert_n5_sigma_p", "invert --n 5 --p 2 --sigma q:2"),
    ("invert_n5_plus", "invert --n 5 --p 2 --sigma plus"),
    ("invert_n4_plus", "invert --n 4 --p 2 --chirality plus --sigma q:2"),
    ("invert_n6_minus", "invert --n 6 --p 3 --chirality minus --sigma q:3"),
    ("fourier_n3_q1", "fourier --n 3 --p 1 --sigma q:1"),
    ("fourier_n4_minus", "fourier --n 4 --p 2 --chirality minus --sigma q:2"),
    ("fourier_n6_q1", "fourier --n 6 --p 2 --sigma q:1 --R-grid 2,4"),
    ("fourier_n3_lambda25", "fourier --n 3 --p 1 --sigma q:1 --lambda 25"),
    ("fourier_n3_lambda40", "fourier --n 3 --p 1 --sigma q:1 --lambda 40"),
    ("csv_density", "density --n 6 --p 2 --sigma q:2 --format csv"),
    ("csv_limit", f"limit --n 3 --p 1 --sigma q:1 --R-grid {GRID} --format csv"),
    ("config_density", "density --config point.cfg --lambda 2"),
    ("config_spherical", "spherical --config point.cfg --t 1.5"),
    ("out_cfun", "cfun --n 3 --p 1 --sigma q:1 --out cfun.json"),
    ("out_csv_spherical", "spherical --n 3 --p 1 --sigma q:1 --format csv --out spherical.csv"),
    ("r_grid_alias", "fourier --n 3 --p 1 --sigma q:1 --r-grid 2,4"),
    ("refusal_spherical_n8", "spherical --n 8 --p 3 --sigma q:2 --lambda 0.01 --t 3"),
    ("refused_grid_order", "limit --sigma q:1 --R-grid 400,25,50,100"),
    ("refused_grid_cutoff", "limit --n 4 --p 1 --sigma q:1 --R-grid 0.5,25,50,300"),
    ("usage_short_grid", "limit --sigma q:1 --R-grid 10,20,40"),
    ("usage_grid_text", "fourier --sigma q:1 --R-grid 1,x"),
    ("usage_grid_empty", "fourier --sigma q:1 --R-grid ,"),
    ("usage_no_sigma", "density --n 3 --p 1"),
    ("usage_bad_sigma", "density --sigma bogus"),
    ("usage_decompose_two_sources", "decompose --at 1 --random"),
    ("usage_config_value", "density --config bad_value.cfg"),
    ("usage_config_key", "density --config unknown_key.cfg"),
    ("usage_config_missing", "density --config missing.cfg"),
    ("usage_config_format", "density --config bad_format.cfg"),
]


def sha256(data):
    return hashlib.sha256(data).hexdigest()


def error_line(stderr):
    lines = stderr.decode(errors="replace").splitlines()
    return next((ln for ln in lines if ln.startswith("Error:")), lines[0] if lines else "")


def show(checkout):
    """{name: (exit code, stdout digest, --out digest, stderr error line)}."""
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    src = os.path.join(os.path.abspath(checkout), "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    out = {}
    with tempfile.TemporaryDirectory() as work:
        for fname, text in CONFIG_FILES.items():
            with open(os.path.join(work, fname), "w", encoding="utf-8") as fh:
                fh.write(text)
        for name, line in INVOCATIONS:
            args = line.split()
            proc = subprocess.run([sys.executable, "-m", "hyperform.cli", *args], cwd=work,
                                  env=env, capture_output=True)
            written = "-"
            if "--out" in args:
                path = os.path.join(work, args[args.index("--out") + 1])
                if os.path.exists(path):
                    with open(path, "rb") as fh:
                        written = sha256(fh.read())
                    os.remove(path)
            out[name] = (proc.returncode, sha256(proc.stdout), written, error_line(proc.stderr))
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    sub.add_parser("show").add_argument("--checkout", required=True)
    p = sub.add_parser("compare")
    p.add_argument("--parent", required=True)
    p.add_argument("--change", required=True)
    args = ap.parse_args()
    if args.cmd == "show":
        for name, (code, stdout, written, _) in show(args.checkout).items():
            print(name, code, stdout, written)
        return
    parent = show(args.parent)
    change = show(args.change)
    differ = 0
    for name, _ in INVOCATIONS:
        (pc, ps, pw, pe), (cc, cs, cw, ce) = parent[name], change[name]
        if (pc, ps, pw) != (cc, cs, cw):
            differ += 1
            print(f"DIFFERS {name}: exit {pc} -> {cc}, stdout "
                  f"{'same' if ps == cs else 'differs'}, --out {'same' if pw == cw else 'differs'}")
        if 2 in (pc, cc) and pe != ce:
            print(f"USAGE TEXT {name}:\n  parent: {pe}\n  change: {ce}")
    print(f"{len(INVOCATIONS) - differ} of {len(INVOCATIONS)} invocations give the same exit "
          "code, stdout and --out file")
    sys.exit(1 if differ else 0)


if __name__ == "__main__":
    main()
