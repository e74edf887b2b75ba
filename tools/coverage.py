"""Exit codes of the commands over the paper's parameter range, and their
comparison between two checkouts.

    python3 tools/coverage.py show --checkout DIR
    python3 tools/coverage.py compare --parent DIR --change DIR

The matrix runs five commands (`limit`, `invert`, `fourier`,
`spherical --t 1.5` and `asympt`) at every (bundle, sigma) point with
2 <= n <= 8: every p, both chiralities at n = 2p, and every sigma label
including the unsplit sigma_p at p = (n-1)/2 (38 points), each at the 8
values of LAMBDAS, 1,520 runs in all.  They run in-process through
click's CliRunner, in one child process whose imports come from DIR/src,
with one BLAS/OpenMP thread.

Each run gets a cause: `ok` for exit 0; for exit 1 the message of the
error the command reported, numbers replaced by #, cut at its first `(`
or `:` (so `jacobi_phi` or `radial quadrature to R=# did not converge`),
or, when rows failed their gates, `rows: ` and the failed row names
without their [...] part; `usage` for exit 2; `raised <type>` for an
uncaught exception.

`points`, `cause` and `run_one` (one run in the calling process) are
importable, with no child process; `matrix` runs them over the whole
matrix.  `show` prints the exit counts by command and by (command, cause).
`compare` runs the matrix on both checkouts and prints every run whose
exit code or cause differs, the number of new exits 1 and 2, and per
command the largest change of the report's values: max |change - parent|
over the rows of a run, relative to the run's largest |parent| value.  It
exits 1 if any run gets a new exit 1 or 2.
"""

import argparse
import json
import os
import re
import subprocess
import sys
from collections import Counter

COMMANDS = {
    "limit": [],
    "invert": [],
    "fourier": [],
    "spherical": ["--t", "1.5"],
    "asympt": [],
}
LAMBDAS = (0.01, 0.1, 1.0, 5.5, 11.0, 15.0, 25.0, 40.0)
_NUMBER = re.compile(r"[-+]?\d[\d.]*(?:e[-+]?\d+)?")


def points():
    """The (n, p, chirality, sigma) points of the matrix, n = 2..8."""
    out = []
    for n in range(2, 9):
        for p in range(1, n // 2 + 1):
            if 2 * p == n:
                out += [(n, p, chir, f"q:{p}") for chir in ("plus", "minus")]
            elif 2 * p == n - 1:
                out += [(n, p, "none", sigma) for sigma in (f"q:{p - 1}", "plus", "minus", f"q:{p}")]
            else:
                out += [(n, p, "none", f"q:{q}") for q in (p - 1, p)]
    return out


def cause(code, stdout, stderr, exc):
    """The cause of one run's exit code, as in the module docstring."""
    if code == 0:
        return "ok"
    if code == 2:
        return "usage"
    if exc is not None and not isinstance(exc, SystemExit):
        return f"raised {type(exc).__name__}"
    error = next((ln[len("Error: "):] for ln in stderr.splitlines() if ln.startswith("Error: ")), None)
    if error is not None:
        return _NUMBER.sub("#", re.split(r"[(:]", error, maxsplit=1)[0]).strip()
    try:
        rows = json.loads(stdout)["rows"]
    except (ValueError, KeyError):
        return "no report"
    return "rows: " + ",".join(sorted({r["name"].split("[")[0] for r in rows if not r["pass"]}))


def run_one(runner, main, cmd, point, lam):
    """One run of the matrix in this process, through a click CliRunner and
    the cli's `main`: the command, point, lambda, exit code, cause and the
    report's row values (None where a row has no number)."""
    n, p, chir, sigma = point
    args = [cmd, "--n", str(n), "--p", str(p), "--chirality", chir,
            "--sigma", sigma, "--lambda", repr(lam), *COMMANDS[cmd]]
    res = runner.invoke(main, args)
    try:
        values = [r["value"] for r in json.loads(res.stdout)["rows"]]
    except (ValueError, KeyError):
        values = []
    return {"cmd": cmd, "point": list(point), "lambda": lam, "exit": res.exit_code,
            "values": values, "cause": cause(res.exit_code, res.stdout, res.stderr, res.exception)}


def run_matrix():
    """Run every command of the matrix in this process; one JSON line per
    run (run_one)."""
    from click.testing import CliRunner

    from hyperform.cli import main

    runner = CliRunner()
    for cmd in COMMANDS:
        for point in points():
            for lam in LAMBDAS:
                print(json.dumps(run_one(runner, main, cmd, point, lam)), flush=True)


def show(checkout):
    """The runs of the matrix on a checkout, in matrix order."""
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    src = os.path.join(os.path.abspath(checkout), "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    proc = subprocess.run([sys.executable, os.path.abspath(__file__), "matrix"], env=env,
                          capture_output=True, text=True, check=True)
    return [json.loads(line) for line in proc.stdout.splitlines() if line.strip()]


def label(run):
    n, p, chir, sigma = run["point"]
    return (f"{run['cmd']} --n {n} --p {p}" + (f" --chirality {chir}" if chir != "none" else "")
            + f" --sigma {sigma} --lambda {run['lambda']:g}")


def print_counts(runs):
    by_cmd = Counter((r["cmd"], r["exit"]) for r in runs)
    print(f"{len(runs)} runs; exit codes by command:")
    for cmd in COMMANDS:
        print(f"  {cmd:10s} " + "  ".join(f"exit {code}: {by_cmd[cmd, code]}" for code in (0, 1, 2)))
    print("exits other than 0 by command and cause:")
    for (cmd, why), count in sorted(Counter((r["cmd"], r["cause"]) for r in runs
                                            if r["exit"] != 0).items()):
        print(f"  {count:5d}  {cmd:10s} {why}")


def value_change(old, new):
    """max |new - old| over a run's rows, over its largest |old| value;
    None when the rows do not pair up."""
    pairs = [(a, b) for a, b in zip(old, new) if a is not None and b is not None]
    if len(old) != len(new) or not pairs:
        return None
    scale = max(abs(a) for a, _ in pairs)
    dev = max(abs(b - a) for a, b in pairs)
    return dev / scale if scale else dev


def compare(parent, change):
    """Print the differences; return the number of new exits 1 and 2."""
    new_fail = 0
    worst = {}
    for old, new in zip(parent, change):
        assert (old["cmd"], old["point"], old["lambda"]) == (new["cmd"], new["point"], new["lambda"])
        if (old["exit"], old["cause"]) != (new["exit"], new["cause"]):
            print(f"CHANGED {label(old)}: exit {old['exit']} -> {new['exit']}, "
                  f"{old['cause']} -> {new['cause']}")
            new_fail += new["exit"] in (1, 2) and new["exit"] != old["exit"]
        dev = value_change(old["values"], new["values"])
        if dev is not None and dev > worst.get(old["cmd"], (-1.0, None))[0]:
            worst[old["cmd"]] = (dev, label(old))
    print("largest value change by command (relative to the run's largest |value|):")
    for cmd in COMMANDS:
        dev, where = worst.get(cmd, (None, None))
        print(f"  {cmd:10s} " + ("no paired values" if dev is None else f"{dev:.3g} at {where}"))
    print(f"{new_fail} runs newly exit 1 or 2")
    return new_fail


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    sub.add_parser("show").add_argument("--checkout", required=True)
    p = sub.add_parser("compare")
    p.add_argument("--parent", required=True)
    p.add_argument("--change", required=True)
    sub.add_parser("matrix", help="run the matrix in this process (the child of show)")
    args = ap.parse_args()
    if args.cmd == "matrix":
        run_matrix()
    elif args.cmd == "show":
        print_counts(show(args.checkout))
    else:
        parent, change = show(args.parent), show(args.change)
        print("parent:")
        print_counts(parent)
        print("change:")
        print_counts(change)
        sys.exit(1 if compare(parent, change) else 0)


if __name__ == "__main__":
    main()
