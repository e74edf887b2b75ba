"""Outside-in span tracing of the hyperform layers.

The tracer wraps public functions of the package from outside: every
name in a hyperform module that refers to a wrapped function object is
rebound to the wrapper, so calls made inside the package (for example
`spherical` calling its imported `jacobi_phi`) are seen as well as calls
from the benchmark.  The program itself is not changed.

Each call records a span (name, start, end, parent).  Spans stay in
memory in flat arrays and are written out once, when the run ends.
Per-layer metrics are derived from the spans: `calls`, a work count
taken from the call's arguments, and `self_s`, the span time minus the
time covered by its child spans.
"""

import sys
from array import array
from time import perf_counter

import numpy as np


def _size(x):
    return int(np.size(x))


def _stack_count(x):
    shape = np.shape(x)
    return int(np.prod(shape[:-2])) if len(shape) > 2 else 1


def _arg(args, kwargs, pos, key):
    return kwargs[key] if key in kwargs else args[pos]


def _haar_samples(args, kwargs):
    size = kwargs.get("size", args[1] if len(args) > 1 else None)
    return 1 if size is None else int(size)


# (module, function, work measure, work count from (args, kwargs), the
# measures reported).  Names follow `<module>.<function>.<measure>`.
CS = ("calls", "self_s")
TARGETS = [
    ("specialfn", "jacobi_phi", "points", lambda a, k: _size(_arg(a, k, 1, "t")),
     ("calls", "points", "self_s")),
    ("specialfn", "hyp2f1_negz", "points", lambda a, k: _size(_arg(a, k, 3, "z")),
     ("calls", "points", "self_s")),
    ("specialfn", "jacobi_psi", None, None, CS),
    ("specialfn", "c_jacobi", None, None, ("calls",)),
    ("specialfn", "gamma_c", None, None, ("calls",)),
    ("extrep", "tau_matrix_batch", "matrices", lambda a, k: _stack_count(_arg(a, k, 0, "us")),
     ("calls", "matrices", "self_s")),
    ("extrep", "tau_matrix", None, None, CS),
    ("extrep", "proj_matrix", None, None, ("calls",)),
    ("liegroup", "haar_sample_K", "samples", _haar_samples, ("samples", "self_s")),
    ("liegroup", "cartan", None, None, CS),
    ("liegroup", "iwasawa", None, None, CS),
    ("spherical", "scalar_components", None, None, CS),
    ("spherical", "spherical_at", None, None, CS),
    ("spherical", "asymptotic_head", None, None, CS),
    ("spherical", "eisenstein_integral_at", None, None, ("self_s",)),
    ("spherical", "op_norm", None, None, CS),
    ("spherical", "plancherel_density", None, None, ("calls",)),
    ("transforms", "poisson_mc", "samples", lambda a, k: int(_arg(a, k, 3, "samples")),
     ("samples", "self_s")),
    ("transforms", "poisson_atom", None, None, CS),
    ("transforms", "gram_matrix", None, None, ("self_s",)),
    ("transforms", "radon", None, None, CS),
    ("transforms", "fourier_helgason", None, None, CS),
    ("transforms", "fourier_direct_mc", None, None, ("self_s",)),
    ("transforms", "BoundarySection.eval_batch", "rows",
     lambda a, k: _stack_count(_arg(a, k, 1, "kmats")), ("rows", "self_s")),
] + [("strichartz", fn, None, None, ("self_s",)) for fn in (
    "strichartz_limit", "eisenstein_hs_limit", "head_ball_average", "asymptotic_residual_sweep",
    "inversion_ratios", "inversion_reconstruct", "spectral_projection_energy", "section_norm2")
] + [("cli", cmd, None, None, ("self_s",)) for cmd in (
    "decompose", "density", "cfun", "spherical", "asympt", "limit", "invert")]


def metric_names():
    """Every per-layer metric name, in report order."""
    return [f"{mod}.{fn}.{m}" for mod, fn, _, _, measures in TARGETS for m in measures]


def _binding(mod_name, fn_name):
    """(owner, attribute) holding the object a target names: a module
    function, the method BoundarySection.eval_batch, or the callback of
    a cli subcommand."""
    module = sys.modules[f"hyperform.{mod_name}"]
    if mod_name == "cli":
        return module.main.commands[fn_name], "callback"
    owner, _, attr = fn_name.rpartition(".")
    return (getattr(module, owner) if owner else module), attr


class Tracer:
    """Span recorder with a stack of open spans (the package runs single
    threaded under the benchmark's environment)."""

    def __init__(self):
        self.names = []
        self._index = {}
        # flat span columns; parent is -1 for a root span
        self.name_of = array("i")
        self.parent_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self._open = []
        self._work = {}
        self._measure = {}

    def _name_id(self, name):
        idx = self._index.get(name)
        if idx is None:
            idx = self._index[name] = len(self.names)
            self.names.append(name)
        return idx

    def span(self, name, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span called name."""
        sid = len(self.start)
        self.name_of.append(self._name_id(name))
        self.parent_of.append(self._open[-1] if self._open else -1)
        self._open.append(sid)
        t0 = perf_counter()
        self.start.append(t0)
        self.end.append(t0)
        try:
            return fn(*args, **kwargs)
        finally:
            self.end[sid] = perf_counter()
            self._open.pop()

    def _wrap(self, name, fn, measure=None, counter=None):
        work = self._work
        if measure:
            self._measure[name] = measure
            work[name] = 0

        def traced(*args, **kwargs):
            if counter is not None:
                work[name] += counter(args, kwargs)
            return self.span(name, fn, *args, **kwargs)

        return traced

    def install(self):
        """Wrap every target, and rebind each name in a loaded hyperform
        module that refers to the same object."""
        modules = [m for key, m in sys.modules.items()
                   if m is not None and (key == "hyperform" or key.startswith("hyperform."))]
        for mod_name, fn_name, measure, counter, _ in TARGETS:
            owner, attr = _binding(mod_name, fn_name)
            orig = getattr(owner, attr)
            wrapper = self._wrap(f"{mod_name}.{fn_name}", orig, measure, counter)
            setattr(owner, attr, wrapper)
            for mod in modules:
                for name, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, name, wrapper)

    def mark(self):
        """Position to summarise from: (span count, work counters)."""
        return len(self.start), dict(self._work)

    def summary(self, since, time_scale=1.0):
        """Per-layer metrics of the spans recorded after mark `since`;
        times are multiplied by time_scale."""
        first, work0 = since
        n = len(self.start)
        names = np.array(self.name_of[first:n], dtype=np.int64)
        parents = np.array(self.parent_of[first:n], dtype=np.int64)
        dur = np.array(self.end[first:n]) - np.array(self.start[first:n])
        child = np.zeros(n - first)
        inside = parents >= first
        np.add.at(child, parents[inside] - first, dur[inside])
        self_time = dur - child
        out = {"spans": n - first}
        for idx, name in enumerate(self.names):
            sel = names == idx
            out[f"{name}.calls"] = int(np.count_nonzero(sel))
            out[f"{name}.self_s"] = float(self_time[sel].sum()) * time_scale
        for name, measure in self._measure.items():
            out[f"{name}.{measure}"] = self._work[name] - work0.get(name, 0)
        return out

    def write(self, path):
        """All spans as CSV: id, parent, name, start, end (seconds)."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,parent,name,start_s,end_s\n")
            for sid in range(len(self.start)):
                fh.write(f"{sid},{self.parent_of[sid]},{self.names[self.name_of[sid]]},"
                         f"{self.start[sid]:.9f},{self.end[sid]:.9f}\n")
