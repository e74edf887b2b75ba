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
digests differ, each with its deviation over the numbers the digest
walks: the largest |change - parent| over the whole output, absolute and
relative to the output's largest |parent| value, or "structure differs"
when shapes or non-numeric parts differ.  So a rounding-level change of
a row that is 0 at the parent reads at the scale of the job, not as a
large relative change.  Equal values whose bytes differ are counted
apart: zeros of the other sign, and NaNs with another payload or sign.
It exits 1 if any job differs.
"""

import argparse
import base64
import dataclasses
import hashlib
import os
import pickle
import subprocess
import sys

import numpy as np

WORKLOADS = ("radial", "inversion", "group_mc", "point")


def walk(obj):
    """The parts of obj in digest order: bytes that tag its structure
    and its non-numeric values, and the arrays that hold its numbers
    (one per array or float, complex or NumPy scalar)."""
    if isinstance(obj, np.ndarray):
        yield f"nd{obj.dtype.str}{obj.shape}".encode()
        if obj.dtype == object:
            for item in obj.ravel():
                yield from walk(item)
        else:
            yield obj
    elif isinstance(obj, (float, complex, np.generic)) and not isinstance(obj, (bool, np.bool_)):
        arr = np.asarray(obj)
        yield f"sc{arr.dtype.str}".encode()
        yield arr
    elif obj is None or isinstance(obj, (bool, np.bool_, int, str, bytes)):
        yield f"{type(obj).__name__}:{obj!r};".encode()
    elif isinstance(obj, (list, tuple)):
        yield f"{type(obj).__name__}[{len(obj)}".encode()
        for item in obj:
            yield from walk(item)
        yield b"]"
    elif isinstance(obj, dict):
        yield f"dict[{len(obj)}".encode()
        for key, val in obj.items():
            yield from walk(key)
            yield from walk(val)
        yield b"]"
    else:
        yield f"obj:{type(obj).__name__}(".encode()
        for name, val in fields(obj):
            yield name.encode()
            yield from walk(val)
        yield b")"


def fields(obj):
    if dataclasses.is_dataclass(obj):
        return [(f.name, getattr(obj, f.name)) for f in dataclasses.fields(obj)]
    slots = [name for cls in type(obj).__mro__ for name in getattr(cls, "__slots__", ())]
    if slots:
        return [(name, getattr(obj, name)) for name in slots if hasattr(obj, name)]
    if hasattr(obj, "__dict__"):
        return sorted(vars(obj).items())
    raise TypeError(f"cannot digest a {type(obj).__name__}")


def digest(parts):
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else np.ascontiguousarray(part).tobytes())
    return h.hexdigest()


def deviation(parent, change):
    """(largest |change - parent|, largest |parent|, the number of entries
    whose values are equal but whose bytes differ) over two outputs'
    numeric parts, or None when the structure or a non-numeric part
    differs.  Real and imaginary parts count as entries."""
    if len(parent) != len(change):
        return None
    gap = scale = 0.0
    same_value = 0
    for p, c in zip(parent, change):
        if isinstance(p, bytes) or isinstance(c, bytes):
            if p != c:
                return None
        elif p.dtype.kind not in "biufc":  # dtype and shape are in the tags
            if not np.array_equal(p, c):
                return None
        elif p.size:
            gap = max(gap, float(np.max(np.abs(c.astype(complex) - p.astype(complex)))))
            scale = max(scale, float(np.max(np.abs(p))))
            parts = [(p, c)] if p.dtype.kind != "c" else [(p.real, c.real), (p.imag, c.imag)]
            for a, b in parts:
                a, b = np.atleast_1d(a), np.atleast_1d(b)
                equal = (a == b) | (np.isnan(a) & np.isnan(b))
                bytes_differ = a.view(f"V{a.itemsize}") != b.view(f"V{b.itemsize}")
                same_value += int(np.count_nonzero(equal & bytes_differ))
    return gap, scale, same_value


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
            parts = list(walk(out))
            blob = base64.b64encode(pickle.dumps(parts)).decode()
            print(f"{name} {job.name} {digest(parts)} {blob}", flush=True)


def show(checkout, seed, workloads):
    """{(workload, job): (digest, parts)} of one checkout; a job that
    raised has its exception for digest and no parts."""
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
        if rest.startswith("raised "):
            out[workload, job] = (rest, None)
        else:
            sha, blob = rest.split(" ")
            # written by this file's own child process above
            out[workload, job] = (sha, pickle.loads(base64.b64decode(blob)))
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
        for (workload, job), (line, _) in show(args.checkout, args.seed, args.workload).items():
            print(workload, job, line)
    else:
        parent = show(args.parent, args.seed, args.workload)
        change = show(args.change, args.seed, args.workload)
        missing = (None, None)
        differ = [key for key in parent.keys() | change.keys()
                  if parent.get(key, missing)[0] != change.get(key, missing)[0]]
        for key in sorted(differ):
            (line_p, parts_p), (line_c, parts_c) = parent.get(key, missing), change.get(key, missing)
            dev = None if parts_p is None or parts_c is None else deviation(parts_p, parts_c)
            if dev is not None:
                gap, scale, same_value = dev
                dev = (f"max deviation {gap:.3g}, {gap / scale if scale > 0.0 else gap:.3g} "
                       f"of the output's scale {scale:.3g}")
                if same_value:
                    dev += (f"; {same_value} equal values with other bytes (signs of zeros "
                            f"or NaN payloads)")
            print(f"DIFFERS {key[0]} {key[1]}: parent {line_p}, change {line_c}; "
                  f"{dev or 'structure differs'}")
        print(f"seed {args.seed}: {len(parent) - len(differ)} of {len(parent)} job outputs "
              f"bit-identical ({', '.join(args.workload)})")
        sys.exit(1 if differ else 0)


if __name__ == "__main__":
    main()
