"""jacobi_phi on the mpmath grid of the tests, compared between two
checkouts.

    python3 tools/jacobi_grid.py compare --parent DIR --change DIR [--dense K]

The grid is that of tests/test_specialfn.py::
test_phi_right_or_raises_on_mpmath_grid: every (alpha, beta) of
FAMILIES (the Jacobi functions of the spherical components at n <= 8),
each lambda of LAMBDAS and each t of TS.  jacobi_phi runs once per
point (the one-point route) and once per (family, lambda) on the whole
t grid (the array route).  For a = phi^(alpha,-1/2) with alpha = n/2 - 1
of PAIR_ALPHAS, the grid also takes b = phi^(alpha+1,-1/2) from
jacobi_phi_pair, which sums it from a's series, on a checkout that has
it, and from jacobi_phi(alpha + 1, -1/2, lambda) on one that does not;
its rows read "b (alpha+1, -1/2)", against the same mpmath values as the
family (alpha + 1, -1/2).  The pair returns a too, so it raises where
jacobi_phi refuses a; such a call counts as a's refusal, apart from
b's, and its b is not compared.  --dense K adds K evenly spaced t in [0, 3],
where the branches meet, and the lambda of DENSE_LAMBDAS.  Each
checkout runs in one child process whose imports come from DIR/src,
with one BLAS/OpenMP thread; the values of mpmath's 2F1 are taken once,
in this process.

Errors are against mpmath, relative to max(|phi|, e^{-(alpha+beta+1) t}).
Per family, `compare` prints the values both sides return, how many
moved (any change of bits), the worst error of the moved values on each
side and on how many of them the change is the nearer, the worst error
of all values on each side, and the refusals (ArithmeticError) gained
and lost, for points and arrays, with the pair calls refused with their
a.  It exits 1 on a refusal the parent did not have or on a change-side
error above 1e-10.
"""

import argparse
import json
import os
import subprocess
import sys

FAMILIES = sorted({(1.0, 0.0)}
                  | {(n / 2 - 1, -0.5) for n in range(2, 9)}
                  | {(n / 2, -0.5) for n in range(2, 9)}
                  | {(n / 2 - 1, n / 2 + 1) for n in range(2, 9)})
# the a of jacobi_phi_pair's (a, b) on the spherical components, n <= 8
PAIR_ALPHAS = tuple(n / 2 - 1 for n in range(2, 9))
LAMBDAS = (0.1, 0.5, 1.0, 4.0, 10.0, 25.0, 40.0, 100.0, 300.0)
TS = (0.0, 0.05, 0.3, 0.5, 0.7, 1.0, 1.5, 1.82, 2.0, 3.0, 5.0, 10.0)
# the coverage matrix's lambda in [1, 40] that LAMBDAS lacks, and the
# lambda of the refusals that the tests pin
DENSE_LAMBDAS = (5.5, 11.0, 12.0, 15.0, 20.0)
RTOL = 1e-10


def grid(dense):
    """(lambdas, ts) of the grid: with dense > 1 also DENSE_LAMBDAS and
    `dense` evenly spaced t in [0, 3]; sorted, without repeats."""
    if dense <= 1:
        return LAMBDAS, TS
    return (tuple(sorted(LAMBDAS + DENSE_LAMBDAS)),
            tuple(sorted(set(TS) | {3.0 * k / (dense - 1) for k in range(dense)})))


def run_grid(lambdas, ts):
    """Evaluate the grid in this process; one JSON line per call: the
    family, whether b came from the pair's rows, lambda, the t (None for
    the array call) and the values [[re, im], ...], or the
    ArithmeticError's message, or {"a": message} where the pair raised and
    jacobi_phi refuses its a."""
    import numpy as np

    import hyperform
    from hyperform import JacobiParams, jacobi_phi

    pair = getattr(hyperform, "jacobi_phi_pair", None)

    def b_of_pair(alpha, beta, lam, arg):
        if pair is None:
            return jacobi_phi(JacobiParams(alpha, beta, lam), arg)
        return pair(JacobiParams(alpha - 1, beta, lam), arg)[1]

    calls = [(family, False) for family in FAMILIES]
    calls += [((alpha + 1, -0.5), True) for alpha in PAIR_ALPHAS]
    for (alpha, beta), of_pair in calls:
        for lam in lambdas:
            for t in (*ts, None):
                arg = np.array(ts) if t is None else t
                # a fresh instance per call, so no call sees another's tables
                try:
                    vals = np.atleast_1d(b_of_pair(alpha, beta, lam, arg) if of_pair
                                         else jacobi_phi(JacobiParams(alpha, beta, lam), arg))
                    out = [[v.real, v.imag] for v in vals.tolist()]
                except ArithmeticError as exc:
                    out = str(exc)
                    if of_pair and pair is not None:
                        try:
                            jacobi_phi(JacobiParams(alpha - 1, beta, lam), arg)
                        except ArithmeticError:
                            out = {"a": out}
                print(json.dumps({"family": [alpha, beta], "pair": of_pair, "lambda": lam,
                                  "t": t, "out": out}))


def show(checkout, dense):
    """The calls of the grid on a checkout, in grid order."""
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    src = os.path.join(os.path.abspath(checkout), "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    proc = subprocess.run([sys.executable, os.path.abspath(__file__), "grid", "--dense", str(dense)],
                          env=env, capture_output=True, text=True, check=True)
    return [json.loads(line) for line in proc.stdout.splitlines() if line.strip()]


def reference(lambdas, ts):
    """{(alpha, beta, lambda, t): (phi by mpmath, the error scale)}."""
    import mpmath

    mpmath.mp.dps = 40
    ref = {}
    for alpha, beta in FAMILIES:
        for lam in lambdas:
            a = (alpha + beta + 1 - 1j * lam) / 2
            b = (alpha + beta + 1 + 1j * lam) / 2
            for t in ts:
                want = complex(mpmath.hyp2f1(a, b, alpha + 1, -mpmath.sinh(t) ** 2))
                floor = float(mpmath.exp(-(alpha + beta + 1) * t))
                ref[alpha, beta, lam, t] = want, max(abs(want), floor)
    return ref


def compare(parent, change, ts, ref):
    """Print the per-family table; return the number of new refusals and
    of change-side errors above RTOL."""
    rows = {}
    for old, new in zip(parent, change):
        key = ("family", "pair", "lambda", "t")
        assert [old[k] for k in key] == [new[k] for k in key]
        alpha, beta = old["family"]
        row = rows.setdefault((old["pair"], alpha, beta),
                              {"values": 0, "moved": 0, "nearer": 0, "moved_err": [0.0, 0.0],
                               "err": [0.0, 0.0], "gained": [0, 0], "lost": [0, 0], "of_a": 0})
        route = int(old["t"] is None)
        of_a = [isinstance(side["out"], dict) for side in (old, new)]
        row["of_a"] += of_a[1]
        raised = [isinstance(side["out"], str) for side in (old, new)]
        if not any(of_a):
            row["gained"][route] += raised[1] and not raised[0]
            row["lost"][route] += raised[0] and not raised[1]
        sides = [None if r or a else [complex(*v) for v in s["out"]]
                 for r, a, s in zip(raised, of_a, (old, new))]
        for i, t in enumerate(ts if old["t"] is None else (old["t"],)):
            want, scale = ref[alpha, beta, old["lambda"], t]
            errs = [None if vals is None else abs(vals[i] - want) / scale for vals in sides]
            for k, err in enumerate(errs):
                if err is not None:
                    row["err"][k] = max(row["err"][k], err)
            if None in errs:
                continue
            row["values"] += 1
            if sides[0][i] != sides[1][i]:
                row["moved"] += 1
                row["nearer"] += errs[1] <= errs[0]
                row["moved_err"] = [max(a, b) for a, b in zip(row["moved_err"], errs)]
    print("family           values  moved  nearer  moved: worst error   all: worst error"
          "   refusals gained/lost")
    print(" " * 39 + "parent -> change       parent -> change    points; arrays")
    bad = 0
    for (of_pair, alpha, beta), row in sorted(rows.items()):
        bad += sum(row["gained"]) + (row["err"][1] > RTOL)
        print(("b " if of_pair else "") + f"({alpha:g}, {beta:g})".ljust(16 - 2 * of_pair)
              + f"{row['values']:7d} {row['moved']:6d} {row['nearer']:7d}"
              + "".join(f"  {a:10.2e} -> {b:8.2e}" for a, b in (row["moved_err"], row["err"]))
              + f"    +{row['gained'][0]}/-{row['lost'][0]}; +{row['gained'][1]}/-{row['lost'][1]}"
              + (f"  ({row['of_a']} of a)" if row["of_a"] else ""))
    total = {key: sum(row[key] for row in rows.values()) for key in ("values", "moved", "nearer")}
    gained, lost = ([sum(row[key][r] for row in rows.values()) for r in (0, 1)]
                    for key in ("gained", "lost"))
    print(f"all: {total['values']} values, {total['moved']} moved, the change nearer on "
          f"{total['nearer']}; refusals gained {gained[0]} points, {gained[1]} arrays, "
          f"lost {lost[0]} points, {lost[1]} arrays; "
          f"{sum(row['of_a'] for row in rows.values())} pair calls refused with their a")
    print(f"{bad} new refusals or change-side errors above {RTOL:g}")
    return bad


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    p = sub.add_parser("compare")
    p.add_argument("--parent", required=True)
    p.add_argument("--change", required=True)
    g = sub.add_parser("grid", help="evaluate the grid in this process (the child of compare)")
    for q in (p, g):
        q.add_argument("--dense", type=int, default=0, help="extra evenly spaced t in [0, 3]")
    args = ap.parse_args()
    lambdas, ts = grid(args.dense)
    if args.cmd == "grid":
        run_grid(lambdas, ts)
    else:
        parent, change = show(args.parent, args.dense), show(args.change, args.dense)
        sys.exit(1 if compare(parent, change, ts, reference(lambdas, ts)) else 0)


if __name__ == "__main__":
    main()
