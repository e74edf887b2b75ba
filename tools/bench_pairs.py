"""Alternating parent/change runs of perfbench and their BENCH record.

    python3 tools/bench_pairs.py run --parent DIR --change DIR \
        --workload inversion --seeds 1501-1510 --seconds 15 --log runs.jsonl
    python3 tools/bench_pairs.py run ... --trace 1 --seeds 1591 --log runs.jsonl
    python3 tools/bench_pairs.py record --tag 15 --what "..." --log runs.jsonl \
        --out BENCH_15.json

`run` starts `perfbench/run.py` from the root of each checkout, one
after the other.  Pair i runs the parent first when i is even and the
change first when i is odd, both on the i-th seed.  Each side writes
and reads its bytecode in its own cache (PYTHONPYCACHEPREFIX, under a
temporary directory, with PYTHONDONTWRITEBYTECODE dropped), filled
before the first pair by one process per side that imports the package
and the benchmark's modules: a module whose bytecode is missing or stale
would otherwise be compiled again inside every timed set-up of that
side.  Each run appends one line to the log: the run's position, side,
workload, seed, run length, start time and the last stdout line of
run.py (its result object).

`record` writes the BENCH file: per workload and end-to-end metric the
median, quartiles (inclusive method), range and count of each side, and
how many pairs the change won (lower is better for every metric); the
failed and attempted operations of each side; every untraced run; and
the per-layer metrics of the traced runs, by workload and side.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time

METRICS = ("setup_s", "pass_s", "slowest_job_s", "peak_rss_mb")
SIDES = ("parent", "change")
# what a benchmark process imports from the checkout and site-packages
WARM_IMPORTS = "hyperform, hyperform.cli, mpmath, speed, tracer, workloads"


def seed_list(text):
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += list(range(int(lo), int(hi or lo) + 1))
    return out


def side_env(cache):
    """The environment of one side's processes: bytecode in its own cache."""
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = cache
    return env


def warm(root, env):
    """Compile into the side's cache what a benchmark process imports."""
    paths = [os.path.join(root, "src"), os.path.join(root, "perfbench")]
    code = f"import sys; sys.path[:0] = {paths!r}; import {WARM_IMPORTS}"
    subprocess.run([sys.executable, "-c", code], cwd=root, env=env, check=True)


def run_one(root, env, workload, seed, seconds, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def cmd_run(args):
    # real paths: the cache is keyed by the path that the benchmark imports from
    roots = {"parent": os.path.realpath(args.parent), "change": os.path.realpath(args.change)}
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as caches:
        envs = {side: side_env(os.path.join(caches, side)) for side in SIDES}
        for side in SIDES:
            warm(roots[side], envs[side])
        run_pairs(args, roots, envs)


def run_pairs(args, roots, envs):
    order = 0
    if os.path.exists(args.log):
        with open(args.log, encoding="utf-8") as fh:
            order = sum(1 for _ in fh)
    for pair, seed in enumerate(seed_list(args.seeds)):
        for side in (SIDES if pair % 2 == 0 else SIDES[::-1]):
            started = round(time.time(), 1)
            result = run_one(roots[side], envs[side], args.workload, seed, args.seconds, args.trace)
            line = {"order": order, "pair": pair, "side": side, "workload": args.workload,
                    "seed": seed, "seconds": args.seconds, "started_unix": started,
                    "result": result}
            if args.trace:
                line["traced"] = True
            with open(args.log, "a", encoding="utf-8") as fh:
                fh.write(json.dumps(line) + "\n")
            order += 1
            print(f"{args.workload} seed {seed} {side}: "
                  f"{json.dumps({k: v['value'] for k, v in result['metrics'].items() if k in METRICS})}",
                  flush=True)


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "iqr": q3 - q1,
            "min": min(values), "max": max(values), "n": len(values)}


def summarize(runs):
    out = {}
    for workload in sorted({r["workload"] for r in runs}):
        mine = [r for r in runs if r["workload"] == workload]
        pairs = sorted({r["pair"] for r in mine})
        by = {(r["pair"], r["side"]): r["result"] for r in mine}
        entry = {}
        for name in METRICS:
            vals = {side: [by[p, side]["metrics"][name]["value"] for p in pairs] for side in SIDES}
            wins = sum(c < q for q, c in zip(vals["parent"], vals["change"]))
            entry[name] = {**{side: spread(vals[side]) for side in SIDES},
                           "change_wins": wins, "pairs": len(pairs)}
        for key in ("failed", "attempted"):
            entry[key] = {side: sum(by[p, side][key] for p in pairs) for side in SIDES}
        out[workload] = entry
    return out


def cmd_record(args):
    runs = []
    for log in args.log:
        with open(log, encoding="utf-8") as fh:
            runs += [json.loads(line) for line in fh if line.strip()]
    untraced = [r for r in runs if not r.get("traced")]
    traced = {}
    for r in runs:
        if r.get("traced"):
            traced.setdefault(r["workload"], {})[r["side"]] = {
                "seed": r["seed"], "metrics": {k: v["value"] for k, v in r["result"]["metrics"].items()}}
    seconds = "/".join(f"{x:g}" for x in sorted({r["seconds"] for r in runs}))
    record = {"tag": args.tag, "what": args.what,
              "harness": f"perfbench/run.py --workload W --seed S --seconds {seconds}, parent and "
                         "change checkouts alternating which runs first in each pair; times in "
                         "reference s",
              "summary": summarize(untraced), "traced": traced, "runs": untraced}
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run")
    r.add_argument("--parent", required=True)
    r.add_argument("--change", required=True)
    r.add_argument("--workload", required=True)
    r.add_argument("--seeds", required=True, help="e.g. 1501-1510 or 7,9")
    r.add_argument("--seconds", type=float, default=15.0)
    r.add_argument("--trace", type=int, choices=(0, 1), default=0)
    r.add_argument("--log", required=True)
    c = sub.add_parser("record")
    c.add_argument("--tag", required=True)
    c.add_argument("--what", required=True)
    c.add_argument("--log", required=True, nargs="+")
    c.add_argument("--out", required=True)
    args = ap.parse_args()
    (cmd_run if args.cmd == "run" else cmd_record)(args)


if __name__ == "__main__":
    main()
