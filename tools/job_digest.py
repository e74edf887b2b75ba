"""sha256 digests of every perfbench job output, and their comparison
between two checkouts.

    python3 tools/job_digest.py show --checkout DIR --seed 7
    python3 tools/job_digest.py compare --parent DIR --change DIR --seed 7 \
        --workload point radial

`show` builds each workload from DIR/perfbench/workloads.py for the
seed, runs every job once and prints one line per job: workload, job
name and the sha256 of its output.  The jobs run in a child process
whose imports come from DIR/src and DIR/perfbench, with one BLAS/OpenMP
thread, as in perfbench/run.py.  Nothing is written to the checkout:
the jobs' checks, references and trace output are not run.

The digest walks the output: an array contributes its dtype, shape and
raw bytes, a scalar its type and raw bytes (repr for ints, strings and
None), and lists, tuples, dicts (in order) and the fields of objects
(__slots__, dataclass fields or __dict__) contribute their parts in
order.  So two outputs share a digest only if they are bit-identical.
A job that raises prints its exception instead of a digest.

`compare` runs `show` on both checkouts and lists the jobs whose
digests differ; it exits 1 if any does.
"""

import argparse
import dataclasses
import hashlib
import os
import subprocess
import sys

import numpy as np

WORKLOADS = ("radial", "inversion", "group_mc", "point")


def feed(h, obj):
    """Add obj's bytes to the hash h, tagged by type."""
    if isinstance(obj, np.ndarray):
        h.update(f"nd{obj.dtype.str}{obj.shape}".encode())
        if obj.dtype == object:
            for item in obj.ravel():
                feed(h, item)
        else:
            h.update(np.ascontiguousarray(obj).tobytes())
    elif isinstance(obj, (float, complex, np.generic)) and not isinstance(obj, (bool, np.bool_)):
        arr = np.asarray(obj)
        h.update(f"sc{arr.dtype.str}".encode() + arr.tobytes())
    elif obj is None or isinstance(obj, (bool, np.bool_, int, str, bytes)):
        h.update(f"{type(obj).__name__}:{obj!r};".encode())
    elif isinstance(obj, (list, tuple)):
        h.update(f"{type(obj).__name__}[{len(obj)}".encode())
        for item in obj:
            feed(h, item)
        h.update(b"]")
    elif isinstance(obj, dict):
        h.update(f"dict[{len(obj)}".encode())
        for key, val in obj.items():
            feed(h, key)
            feed(h, val)
        h.update(b"]")
    else:
        h.update(f"obj:{type(obj).__name__}(".encode())
        for name, val in fields(obj):
            h.update(name.encode())
            feed(h, val)
        h.update(b")")


def fields(obj):
    if dataclasses.is_dataclass(obj):
        return [(f.name, getattr(obj, f.name)) for f in dataclasses.fields(obj)]
    slots = [name for cls in type(obj).__mro__ for name in getattr(cls, "__slots__", ())]
    if slots:
        return [(name, getattr(obj, name)) for name in slots if hasattr(obj, name)]
    if hasattr(obj, "__dict__"):
        return sorted(vars(obj).items())
    raise TypeError(f"cannot digest a {type(obj).__name__}")


def digest(obj):
    h = hashlib.sha256()
    feed(h, obj)
    return h.hexdigest()


def child(seed, workloads):
    """Print the digests; runs inside the checkout (see show)."""
    sys.path.insert(0, os.path.join(os.getcwd(), "perfbench"))
    import workloads as wl
    for name in workloads:
        for job in wl.WORKLOADS[name](seed):
            try:
                out = job.run()
            except Exception as exc:  # a job that raises is reported, not hidden
                print(f"{name} {job.name} raised {type(exc).__name__}: {exc}", flush=True)
                continue
            line = digest(out)
            print(f"{name} {job.name} {line}", flush=True)


def show(checkout, seed, workloads):
    """{(workload, job): digest} of one checkout."""
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    src = os.path.join(os.path.abspath(checkout), "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    proc = subprocess.run([sys.executable, os.path.abspath(__file__), "child", "--seed", str(seed),
                           "--workload", *workloads], cwd=checkout, env=env,
                          capture_output=True, text=True, check=True)
    out = {}
    for line in proc.stdout.splitlines():
        workload, job, rest = line.split(" ", 2)
        out[workload, job] = rest
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    for name in ("show", "compare", "child"):
        p = sub.add_parser(name)
        p.add_argument("--seed", type=int, required=True)
        p.add_argument("--workload", nargs="+", choices=WORKLOADS, default=list(WORKLOADS))
        if name == "show":
            p.add_argument("--checkout", required=True)
        elif name == "compare":
            p.add_argument("--parent", required=True)
            p.add_argument("--change", required=True)
    args = ap.parse_args()
    if args.cmd == "child":
        child(args.seed, args.workload)
    elif args.cmd == "show":
        for (workload, job), line in show(args.checkout, args.seed, args.workload).items():
            print(workload, job, line)
    else:
        parent = show(args.parent, args.seed, args.workload)
        change = show(args.change, args.seed, args.workload)
        differ = [key for key in parent.keys() | change.keys() if parent.get(key) != change.get(key)]
        for workload, job in sorted(differ):
            print(f"DIFFERS {workload} {job}: parent {parent.get((workload, job))}, "
                  f"change {change.get((workload, job))}")
        print(f"seed {args.seed}: {len(parent) - len(differ)} of {len(parent)} job outputs "
              f"bit-identical ({', '.join(args.workload)})")
        sys.exit(1 if differ else 0)


if __name__ == "__main__":
    main()
