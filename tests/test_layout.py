"""Module layout of the package: no private name crosses a module
boundary, no module imports the test oracles, the one Iwasawa kernel,
iwasawa_translates, is called only by the scalar iwasawa and the four
Poisson kernels (the atoms, poisson_mc, fourier_direct_mc and the literal
inversion sampler), the Householder step of the Cartan K factors is
called only from the scalar cartan, the defining K-integral forms no
Poisson kernel, the panel rule
of the radial quadratures has one caller, the breakpoint rule every
sweep shares, spherical evaluates Jacobi functions only on the
parameters a SpectralPoint owns and c-functions only in the head and
c_sigma, the commands answer without sampling
routes, every package name the benchmark traces or calls exists,
evaluating does not import numpy.ma, and the package's public names are
the modules' __all__ lists, each name with a consumer outside the
tests."""

import ast
import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import hyperform

SRC = Path(hyperform.__file__).parent
MODULES = sorted(SRC.glob("*.py"))
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TOOLS = Path(__file__).resolve().parents[1] / "tools"

# (module, enclosing function or class) of each call of the Iwasawa kernel
IWASAWA_CALLERS = [("liegroup", "iwasawa"), ("strichartz", "inversion_reconstruct"),
                   ("transforms", "BoundarySection"), ("transforms", "fourier_direct_mc"),
                   ("transforms", "poisson_mc")]
# the one caller of the Householder step of the Cartan K factors: the
# scalar decomposition
HOUSEHOLDER_CALLERS = [("liegroup", "cartan")]
# the one caller of the panel rule _osc_nodes
OSC_NODES_CALLERS = [("strichartz", "_sweep_rule")]
# sampling and matrix routes that no command may call; decompose --random
# alone draws rotations
CLI_BARRED = ("fourier_batch", "radon_batch", "poisson_mc", "spherical_at",
              "asymptotic_head", "eval_batch")


def _private(name):
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _module_aliases(tree):
    """Local names bound to hyperform modules: `from . import x as y`,
    `import hyperform.x as y`."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module is None:
            for a in node.names:
                out[a.asname or a.name] = a.name
        elif isinstance(node, ast.Import):
            for a in node.names:
                if a.name.startswith("hyperform.") and a.asname:
                    out[a.asname] = a.name.split(".", 1)[1]
    return out


def _violations(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    mod = path.stem
    aliases = _module_aliases(tree)
    bad = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").startswith("hyperform")):
            for a in node.names:
                if _private(a.name):
                    bad.append(f"{mod}:{node.lineno}: from {'.' * node.level}"
                               f"{node.module or ''} import {a.name}")
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in aliases and _private(node.attr)):
            bad.append(f"{mod}:{node.lineno}: {node.value.id}.{node.attr}")
    return bad


def _calls(path, name):
    """(enclosing top-level def or class, line) of each call of `name`."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    out = []
    for top in tree.body:
        owner = getattr(top, "name", None)
        for node in ast.walk(top):
            if isinstance(node, ast.Call):
                fn = node.func
                callee = fn.attr if isinstance(fn, ast.Attribute) else getattr(fn, "id", None)
                if callee == name:
                    out.append((owner, node.lineno))
    return out


def test_no_private_names_cross_modules():
    assert {"liegroup", "extrep", "spherical", "transforms", "strichartz"} <= {
        p.stem for p in MODULES}
    bad = [v for path in MODULES for v in _violations(path)]
    assert not bad, "private names used across modules:\n" + "\n".join(bad)


def _imported_modules(path):
    """(line, module name) of each import statement of a file."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out += [(node.lineno, a.name) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            out.append((node.lineno, node.module or ""))
    return out


def test_package_never_imports_tests_or_oracles():
    # the oracles stay independent routes: the package may not call them
    bad = [f"{p.stem}:{line}: import {name}" for p in MODULES
           for line, name in _imported_modules(p)
           if name.split(".")[0] in ("tests", "oracles")]
    assert not bad, "package modules import the tests:\n" + "\n".join(bad)


def test_iwasawa_translates_is_the_one_iwasawa_step():
    # one call per Poisson kernel and one in the scalar wrapper
    callers = sorted((p.stem, owner) for p in MODULES
                     for owner, _ in _calls(p, "iwasawa_translates"))
    assert callers == IWASAWA_CALLERS, callers


def test_householder_step_only_behind_the_scalar_cartan():
    # tau-radial operators read t, k1 e_1 and pi0 (cartan_axis), not k1, k2
    callers = [(p.stem, owner) for p in MODULES for owner, _ in _calls(p, "_householder_to_e1")]
    assert callers == HOUSEHOLDER_CALLERS, callers


def test_defining_integral_forms_no_poisson_kernel():
    # its Iwasawa data and Lambda^p(kappa) are in closed form
    sph = SRC / "spherical.py"
    callers = {owner for name in ("iwasawa_translates", "tau_matrix_batch")
               for owner, _ in _calls(sph, name)}
    assert "eisenstein_integral_at" not in callers, callers


def test_osc_nodes_has_one_caller_the_sweep_rule():
    callers = [(p.stem, owner) for p in MODULES for owner, _ in _calls(p, "_osc_nodes")]
    assert callers == OSC_NODES_CALLERS, callers


def test_spectral_points_own_their_jacobi_parameters():
    # a SpectralPoint builds its JacobiParams once and component_grid reads
    # them, so no spherical path evaluates Jacobi functions on fresh tables
    sph = SRC / "spherical.py"
    assert {owner for owner, _ in _calls(sph, "JacobiParams")} == {"SpectralPoint"}
    assert {owner for owner, _ in _calls(sph, "jacobi_phi")} == {"component_grid"}
    # the pair, b from a's series, only where component_grid combines a and b
    callers = {(p.stem, owner) for p in MODULES for owner, _ in _calls(p, "jacobi_phi_pair")}
    assert callers == {("spherical", "component_grid")}, callers


def _call_owners(path, name):
    """The innermost enclosing function of each call of `name`."""
    out = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                fn = child.func
                if (fn.attr if isinstance(fn, ast.Attribute) else getattr(fn, "id", None)) == name:
                    out.append(owner)
            visit(child, child.name if isinstance(child, ast.FunctionDef) else owner)

    visit(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)), None)
    return out


def test_c_functions_come_from_the_component_table():
    # the head and c_sigma scale the table's rationals by c_b; no other
    # spherical path writes a per-sigma c-function
    assert set(_call_owners(SRC / "spherical.py", "c_jacobi")) == {"head_terms", "c_sigma"}


def test_commands_call_no_sampling_or_matrix_route():
    cli = SRC / "cli.py"
    bad = [f"cli:{line} in {owner}: haar_sample_K" for owner, line in _calls(cli, "haar_sample_K")
           if owner != "decompose"]
    bad += [f"cli:{line} in {owner}: {name}" for name in CLI_BARRED
            for owner, line in _calls(cli, name)]
    assert not bad, "commands call sampling or matrix routes:\n" + "\n".join(bad)


def _load_tracer(monkeypatch):
    """perfbench/tracer.py as a module, loaded without writing bytecode."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_tracer", PERFBENCH / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _workload_attributes():
    """(package module, attribute, line) of each `alias.attr` in
    perfbench/workloads.py whose alias is an `import hyperform.x as alias`."""
    tree = ast.parse((PERFBENCH / "workloads.py").read_text(encoding="utf-8"))
    aliases = {a.asname: a.name for node in ast.walk(tree) if isinstance(node, ast.Import)
               for a in node.names if a.name.startswith("hyperform.") and a.asname}
    return [(aliases[node.value.id], node.attr, node.lineno) for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in aliases]


def test_benchmark_bindings_resolve(monkeypatch):
    for path in MODULES:
        if path.stem != "__init__":
            importlib.import_module(f"hyperform.{path.stem}")
    tracer = _load_tracer(monkeypatch)
    missing = []
    for mod_name, fn_name, *_ in tracer.TARGETS:
        try:
            owner, attr = tracer._binding(mod_name, fn_name)
        except (AttributeError, KeyError):
            missing.append(f"{mod_name}.{fn_name}")
            continue
        if not callable(getattr(owner, attr, None)):
            missing.append(f"{mod_name}.{fn_name}")
    assert not missing, "traced benchmark targets missing:\n" + "\n".join(missing)

    used = _workload_attributes()
    assert {"hyperform.transforms", "hyperform.strichartz", "hyperform.cli"} <= {
        mod for mod, _, _ in used}
    bad = [f"workloads:{line}: {mod}.{attr}" for mod, attr, line in used
           if not hasattr(importlib.import_module(mod), attr)]
    assert not bad, "package names used by the benchmark workloads are missing:\n" + "\n".join(bad)


# one defining K-integral and one mc_k ball average, the two routes that
# called np.unique, whose first call imports numpy.ma (about 14 ms and
# 1.3 MB of a process)
_NO_MA_SCRIPT = """
import sys
import numpy as np
from hyperform import extrep as xr, liegroup as lg, spherical as sph, strichartz as st
from hyperform import transforms as tfm
pt = sph.SpectralPoint(xr.BundleSpec(3, 1), xr.sigma_q(1), 1.0)
sph.eisenstein_integral_at(pt, 1.0)
k = lg.embed_rotation(lg.haar_sample_K(3, rng=np.random.default_rng(1)))
atom = tfm.BoundaryAtom(lg.GroupElement(k), xr.default_vector(pt.spec))
section = tfm.BoundarySection.from_atoms(pt, [(atom, 1.0)])
assert np.isfinite(st.ball_average_atom(pt, section, 2.0, k_samples=64))
print("numpy.ma" in sys.modules)
"""


def test_evaluations_do_not_import_numpy_ma():
    path = os.pathsep.join([str(SRC.parent)] + [p for p in [os.environ.get("PYTHONPATH")] if p])
    env = dict(os.environ, PYTHONPATH=path, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1")
    res = subprocess.run([sys.executable, "-c", _NO_MA_SCRIPT], env=env, capture_output=True,
                         text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "False"


def _public_modules():
    """The package modules that declare an __all__, in name order."""
    mods = [importlib.import_module(f"hyperform.{p.stem}") for p in MODULES
            if p.stem != "__init__"]
    return [m for m in mods if hasattr(m, "__all__")]


def _code_names(path):
    """{top-level definition name, or None for other statements: the names
    it uses as code (names, attributes, imported names)}; strings and
    docstrings do not count."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    out = {}
    for top in tree.body:
        used = out.setdefault(getattr(top, "name", None), set())
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(a.name for a in node.names)
    return out


def test_package_surface_is_the_module_surfaces():
    # no hand-kept list in the package root: star imports and the modules'
    # own __all__, each name declared once
    mods = _public_modules()
    assert {m.__name__ for m in mods} >= {f"hyperform.{m}" for m in (
        "extrep", "liegroup", "specialfn", "spherical", "strichartz", "transforms")}
    want = ["__version__"] + [name for m in mods for name in m.__all__]
    assert hyperform.__all__ == want
    assert len(set(want)) == len(want), "a public name is declared twice"
    missing = [f"{m.__name__}.{name}" for m in mods for name in m.__all__
               if not hasattr(m, name) or getattr(hyperform, name) is not getattr(m, name)]
    assert not missing, missing
    tree = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))
    listed = [a.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
              and node.module for a in node.names if a.name != "*"]
    assert not listed, f"names imported one by one into the package root: {listed}"


def test_every_public_name_has_a_consumer_outside_the_tests(monkeypatch):
    # a consumer is a tool, a benchmark job or traced target, or package
    # code other than the root's re-export, the name's own definition and
    # the definitions of public names that have no consumer themselves
    files = sorted(TOOLS.glob("*.py")) + [PERFBENCH / "workloads.py"]
    outside = set().union(*(used for p in files for used in _code_names(p).values()))
    outside |= {part for _, fn, *_ in _load_tracer(monkeypatch).TARGETS for part in fn.split(".")}
    inside = {p.stem: _code_names(p) for p in MODULES if p.stem != "__init__"}
    public = [(m.__name__.rpartition(".")[2], name) for m in _public_modules() for name in m.__all__]
    unused, last = set(), None
    while unused != last:
        last = unused
        unused = {(own, name) for own, name in public if name not in outside and not any(
            name in used for stem, defs in inside.items() for top, used in defs.items()
            if (stem, top) not in last and (stem, top) != (own, name))}
    assert not unused, "public names only the tests use:\n" + "\n".join(
        sorted(f"{own}.{name}" for own, name in unused))
