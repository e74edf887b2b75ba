"""Run the benchmark over several seeds and report medians and spreads.

    python3 perfbench/steadiness.py --seeds 1-10 [--workloads radial,point] [--seconds 15]

Each run's line gives the operations attempted and failed and every
end-to-end metric with its unit.  For every workload and metric it then
prints the median of the per-run values and their spread: the distance
between the first and third quartile (statistics.quantiles, n=4) as a
share of the median, and the failed share of operations of the runs.
The runs go one after another; each writes perfbench/out/result-*.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_range(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=seed_range, required=True, help="e.g. 1-10")
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    for workload in args.workloads.split(","):
        values = {name: [] for name in bounds}
        shares = set()
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, check=True)
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            if not res["correct"]:
                print(f"{workload} seed {seed}: incorrect\n{proc.stderr}", file=sys.stderr)
            shares.add(Fraction(res["failed"], res["attempted"]))
            for name in bounds:
                values[name].append(res["metrics"][name]["value"])
            print(f"{workload} seed {seed}: attempted {res['attempted']} failed {res['failed']} | "
                  + " | ".join(f"{name} {m['value']:.4f} {m['unit']}"
                               for name, m in res["metrics"].items()), flush=True)
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            print(f"{workload:10s} {name:14s} median {statistics.median(vals):10.4f}  "
                  f"spread {(q3 - q1) / statistics.median(vals):.4f}  bound {bounds[name]}")
        print(f"{workload:10s} failed share of attempted: {sorted(map(str, shares))}", flush=True)


if __name__ == "__main__":
    main()
