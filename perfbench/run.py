"""Benchmark of the hyperform package: four seeded workloads of fixed work.

    python3 perfbench/run.py --workload radial --seed 1 --seconds 15 --trace 0

Run from the root of a checkout; the package is imported from `src/`.
Workloads: radial, inversion, group_mc, point (see perfbench/README.md).

Each run starts, one after another, SETUP_PROBES processes that only
time set-up and then one process that runs the workload's passes, so
all load of a workload comes from one process at a time.  The children
get one BLAS/OpenMP thread each and HYPERFORM_THREADS at the program's
default.  Times are reference seconds, scaled by the speed probe of
perfbench/speed.py.

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer
metrics of a traced run (spans go to perfbench/out/).  The last stdout
line is one JSON object with the keys correct, attempted, failed and
metrics.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
WORKLOADS = ("radial", "inversion", "group_mc", "point")
SETUP_PROBES = 4
CHILD_TIMEOUT_S = 170


def child_env():
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env.pop("HYPERFORM_THREADS", None)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_worker(*args):
    """Run worker.py to its end (killed at the timeout) and parse its
    last stdout line."""
    proc = subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), *map(str, args)],
                          cwd=ROOT, env=child_env(), capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker {' '.join(map(str, args))} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(args, res):
    setups = [run_worker("--workload", args.workload, "--seed", args.seed,
                         "--setup-only")["setup_s"] for _ in range(SETUP_PROBES)]
    setups.append(res["setup_s"])
    return {
        "setup_s": metric(statistics.median(setups), "s"),
        "pass_s": metric(statistics.median(res["pass_s"]), "s"),
        "slowest_job_s": metric(statistics.median(res["slowest_job_s"]), "s"),
        "peak_rss_mb": metric(res["peak_rss_mb"], "MB"),
    }


def per_layer(res):
    sys.path.insert(0, HERE)
    from tracer import metric_names
    out = {}
    for name in metric_names():
        value = statistics.median(layer.get(name, 0) for layer in res["layers"])
        if name.endswith("_s"):
            out[name] = metric(value, "s")
        else:  # counts repeat exactly from pass to pass
            out[name] = metric(int(value) if value == int(value) else value, "count")
    traced = statistics.median(res["traced_pass_s"])
    untraced = statistics.median(res["untraced_pass_s"])
    out["trace.spans"] = metric(int(statistics.median(l["spans"] for l in res["layers"])), "count")
    out["trace.traced_pass_s"] = metric(traced, "s")
    out["trace.untraced_pass_s"] = metric(untraced, "s")
    out["trace.overhead_s"] = metric(traced - untraced, "s")
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isdir(os.path.join(SRC, "hyperform")):
        raise SystemExit(f"no hyperform package under {SRC}: run from a checkout root")
    os.makedirs(OUT, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    worker_args = ["--workload", args.workload, "--seed", args.seed, "--seconds", args.seconds,
                   "--trace", args.trace]
    if args.trace:
        worker_args += ["--trace-out", os.path.join(OUT, f"spans-{tag}.csv")]
    res = run_worker(*worker_args)
    metrics = per_layer(res) if args.trace else end_to_end(args, res)
    for problem in res["unexpected"]:
        print(f"unexpected failure: {problem}", file=sys.stderr)
    result = {
        "correct": not res["unexpected"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }
    with open(os.path.join(OUT, f"result-{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump({**result, "passes": res["pass_s"], "passes_wall": res["pass_wall_s"],
                   "job_s": res["job_s"]}, fh, indent=1)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
