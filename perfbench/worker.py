"""One workload in one process: set-up, whole passes, checks, trace.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/worker.py --workload NAME --seed N --setup-only

Prints one JSON object on its last stdout line; run.py starts this
process and turns its output into the benchmark's metrics.

A pass runs the workload's fixed, ordered job list once.  Passes repeat
until `--seconds` have gone by; the pass under way always finishes, so
every run attempts whole passes.  Each job is timed on its own, in wall
seconds and in reference seconds (see speed.py), and checked after its
timing ends.  With --trace 1 the first half of the time runs untraced
passes and the second half traced ones; the per-layer figures come
from the traced passes.
"""

import argparse
import gc
import json
import os
import resource
import statistics
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from speed import SpeedProbe  # noqa: E402


def parse_args():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace-out", default=None, help="CSV file for the spans")
    return ap.parse_args()


def run_pass(jobs, refs, span, probe):
    """Run every job once.

    Returns wall and reference job times, the pass's speed factor and
    the failures as (job name, message, expected), where `expected`
    marks the known faults of the program."""
    wall, ref_s, failures = [], [], []
    gc.collect()
    start = perf_counter()
    for job, ref in zip(jobs, refs):
        t0 = perf_counter()
        try:
            out = span("job." + job.name, job.run)
            msg = None
        except Exception as exc:  # a job that raises counts as failed
            out, msg = None, f"raised {type(exc).__name__}: {exc}"
        t1 = perf_counter()
        wall.append(t1 - t0)
        ref_s.append((t1 - t0) * probe.factor(t0, t1))
        if msg is None:
            try:
                msg = job.check(out, ref)
            except Exception as exc:
                msg = f"check raised {type(exc).__name__}: {exc}"
        if msg is not None:
            failures.append((job.name, msg, msg == job.fault))
    return {"wall": wall, "ref": ref_s, "factor": probe.factor(start, perf_counter()),
            "failures": failures}


def main():
    args = parse_args()
    # the probe thread must sample the CPU the jobs run on
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    with SpeedProbe("python") as probe:
        # set-up: from before `import hyperform` until the inputs are built
        t0 = perf_counter()
        import workloads
        jobs = workloads.WORKLOADS[args.workload](args.seed)
        t1 = perf_counter()
    setup = {"setup_wall_s": t1 - t0, "setup_s": (t1 - t0) * probe.factor(t0, t1)}
    if args.setup_only:
        print(json.dumps(setup))
        return
    with SpeedProbe("numpy") as probe:
        result = run_workload(args, jobs, probe)
    result.update(setup)
    print(json.dumps(result))


def run_workload(args, jobs, probe):
    refs = [job.ref() if job.ref else None for job in jobs]

    def plain(name, fn):
        return fn()

    def passes(span, seconds):
        done = []
        start = perf_counter()
        while True:
            done.append(run_pass(jobs, refs, span, probe))
            if perf_counter() - start >= seconds:
                return done

    if args.trace:
        import tracer as tracing
        untraced = passes(plain, args.seconds / 2)
        tracer = tracing.Tracer()
        tracer.install()
        traced, layers = [], []
        start = perf_counter()
        while True:
            mark = tracer.mark()
            traced += passes(tracer.span, 0.0)
            layers.append(tracer.summary(mark, time_scale=traced[-1]["factor"]))
            if perf_counter() - start >= args.seconds / 2:
                break
        runs = untraced + traced
    else:
        runs = passes(plain, args.seconds)

    failures = [f for run in runs for f in run["failures"]]
    result = {
        "pass_s": [sum(run["ref"]) for run in runs],
        "slowest_job_s": [max(run["ref"]) for run in runs],
        "pass_wall_s": [sum(run["wall"]) for run in runs],
        "job_s": {job.name: statistics.median(run["ref"][i] for run in runs)
                  for i, job in enumerate(jobs)},
        "attempted": len(jobs) * len(runs),
        "failed": len(failures),
        "unexpected": sorted({f"{name}: {msg}" for name, msg, expected in failures
                              if not expected}),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if args.trace:
        result["untraced_pass_s"] = [sum(run["ref"]) for run in untraced]
        result["traced_pass_s"] = [sum(run["ref"]) for run in traced]
        result["layers"] = layers
        if args.trace_out:
            tracer.write(args.trace_out)
    return result


if __name__ == "__main__":
    main()
