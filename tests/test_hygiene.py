"""Source hygiene: every name a package module imports is used in that
module or re-exported through its __all__, every private module-level
name it defines is read somewhere in it, every public function or method
has a reader somewhere in the package, every public function of
tests/oracles.py has a reader somewhere in the tests, no module reads
numpy's gradient (fields.gradient_at is its one home), the positive-real
and count rules are stated only in specfun, a CLI run imports
none of the scipy subpackages it has no use for and a 2D or 3D run that
solves, a 2D branch that stops short of lambda_max and `constants zN` at
dims 4 and 6 import no scipy at all, README's command list
names exactly the CLI's actions and verify modes, every solver and
continuation key of the config table is a field of its config, every field
of the solver and step configs is read outside its class, the third-party
modules the package imports are exactly its declared dependencies, every
name the benchmark's tracer wraps exists where it wraps it and has the parameter
its annotator reads at the position it reads it from, every benchmark
workload sets up, runs and checks correct at its tiny size, and every
cache has a finite size and hands out only read-only arrays."""

import ast
import dataclasses
import importlib
import importlib.util
import inspect
import json
import os
import pathlib
import re
import subprocess
import sys

import pytest

import helmscat
from helmscat import cli
from helmscat.continuation import StepConfig
from helmscat.solver import SolverConfig

SOURCES = sorted(pathlib.Path(helmscat.__file__).parent.glob("*.py"))
TESTS = sorted(pathlib.Path(__file__).parent.glob("*.py"))


def imported_names(tree) -> dict[str, int]:
    """Line of the import statement that binds each name in a module;
    __future__ imports are skipped."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    return imported


def unused_imports(source: str) -> list[str]:
    """'name (line N)' for each imported name that is neither read in the
    module nor listed in its __all__; __future__ imports are skipped."""
    tree = ast.parse(source)
    imported = imported_names(tree)
    exported = set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            exported = set(ast.literal_eval(node.value))
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used and name not in exported)


def unused_private_names(source: str) -> list[str]:
    """'name (line N)' for each module-level _name (def, class or assignment
    target) that the module never reads; dunder names are skipped."""
    tree = ast.parse(source)
    defined = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t)
                     if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                defined.setdefault(name, node.lineno)
    loaded = {n.id for n in ast.walk(tree)
              if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return sorted(f"{name} (line {line})" for name, line in defined.items()
                  if name not in loaded)


def uncalled_public_names(sources, exempt=()) -> list[str]:
    """'name' for each public module-level function, and 'Class.name' for
    each public method that is not a property, that no source reads outside
    the definition's own body.  A function is read by a Name or an Attribute
    load of its name, a method by an Attribute load only, and not by one on
    an imported name other than a class the sources define (np.conj does
    not read a conj method); names in exempt are skipped."""
    trees = [ast.parse(src) for src in sources]
    defs = []  # (reported name, defined name, node, is_method)
    classes = set()
    for tree in trees:
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                defs.append((node.name, node.name, node, False))
            elif isinstance(node, ast.ClassDef):
                classes.add(node.name)
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not any(
                            isinstance(d, ast.Name) and d.id == "property"
                            for d in item.decorator_list):
                        defs.append((f"{node.name}.{item.name}", item.name,
                                     item, True))
    loads = []  # (node, whether it can read a method)
    for tree in trees:
        foreign = imported_names(tree).keys() - classes
        loads += [(n, not (isinstance(n, ast.Attribute)
                           and isinstance(n.value, ast.Name)
                           and n.value.id in foreign))
                  for n in ast.walk(tree)
                  if isinstance(getattr(n, "ctx", None), ast.Load)]
    missing = []
    for shown, name, node, is_method in defs:
        if name.startswith("_") or shown in exempt:
            continue
        own = {id(n) for n in ast.walk(node)}
        if not any(id(n) not in own
                   and ((isinstance(n, ast.Attribute) and n.attr == name
                         and (reads_method or not is_method))
                        or (not is_method and isinstance(n, ast.Name)
                            and n.id == name))
                   for n, reads_method in loads):
            missing.append(shown)
    return sorted(missing)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_unused_import_is_reported():
    src = ("from __future__ import annotations\nimport os\nimport os.path as osp\n"
           "from math import pi, tau\n__all__ = ['tau']\nx = pi\n")
    assert unused_imports(src) == ["os (line 2)", "osp (line 3)"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_private_names(path):
    assert unused_private_names(path.read_text()) == []


def test_unused_private_name_is_reported():
    src = ("_A = 1\n_B, c = 2, 3\n__all__ = []\ndef _f():\n    return _A\n"
           "class _K:\n    pass\n_f()\n_D: int = 4\n")
    assert unused_private_names(src) == ["_B (line 2)", "_D (line 9)", "_K (line 6)"]


def numpy_gradient_reads(source: str) -> list[str]:
    """'line N' for each read of numpy's gradient in a module: np.gradient
    on any name numpy is imported as, or gradient imported from numpy."""
    tree = ast.parse(source)
    numpy_names = {alias.asname or alias.name for node in ast.walk(tree)
                   if isinstance(node, ast.Import)
                   for alias in node.names if alias.name == "numpy"}
    lines = [n.lineno for n in ast.walk(tree)
             if isinstance(n, ast.Attribute) and n.attr == "gradient"
             and isinstance(n.value, ast.Name) and n.value.id in numpy_names]
    lines += [n.lineno for n in ast.walk(tree)
              if isinstance(n, ast.ImportFrom) and n.module == "numpy"
              and any(alias.name == "gradient" for alias in n.names)]
    return [f"line {n}" for n in sorted(lines)]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_gradient_has_one_home(path):
    # the sphere diagnostics take the gradient through fields.gradient_at,
    # at the nodes they read; the test suite's oracles call np.gradient
    assert numpy_gradient_reads(path.read_text()) == []


def test_numpy_gradient_read_is_reported():
    src = ("import numpy as np\nimport numpy\nfrom numpy import gradient as g\n"
           "a = np.gradient(x)\nb = numpy.gradient\nc = self.gradient(x)\n")
    assert numpy_gradient_reads(src) == ["line 3", "line 4", "line 5"]


# the positive-real and count rules' messages, and the specfun functions
# that state them
RULE_TEXTS = ("must be finite and > 0", "must be an integer >=")
RULE_HOMES = {"_check_positive", "_positive_arg", "_check_count"}


def message_text(node) -> str:
    """A message's text: a string, or the constant parts of an f-string."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    if isinstance(node, ast.JoinedStr):
        return "".join(v.value for v in node.values if isinstance(v, ast.Constant))
    return ""


def input_rule_sites(source: str) -> list[tuple[str, int]]:
    """(qualified name of the innermost function or class, line) of each
    ``raise ValueError(message)`` in a module whose message states the
    positive-real or the count rule; '' at module level."""
    sites = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, f"{where}.{child.name}".lstrip("."))
                continue
            if (isinstance(child, ast.Raise) and isinstance(child.exc, ast.Call)
                    and isinstance(child.exc.func, ast.Name)
                    and child.exc.func.id == "ValueError" and child.exc.args
                    and any(t in message_text(child.exc.args[0]) for t in RULE_TEXTS)):
                sites.append((where, child.lineno))
            visit(child, where)

    visit(ast.parse(source), "")
    return sites


def test_input_rules_have_one_home():
    # every module imports specfun's rules rather than writing its own copy
    copies = [f"{path.name}: {where} (line {line})" for path in SOURCES
              for where, line in input_rule_sites(path.read_text())
              if not (path.name == "specfun.py" and where in RULE_HOMES)]
    assert copies == []


def test_input_rule_copy_is_reported():
    src = ("def _check_positive(x, name):\n"
           "    raise ValueError(f'{name} must be finite and > 0')\n"
           "class Grid:\n    def __post_init__(self):\n"
           "        if self.bad:\n"
           "            raise ValueError('half_width must be finite and > 0')\n"
           "        raise ValueError(f'cell h^{d} = {v} must be finite and > 0')\n"
           "def padded(n):\n"
           "    raise ValueError(f'pad_cells must be an integer >= {0}')\n"
           "def other(msg):\n    raise ValueError('tol must be > 0')\n"
           "    raise TypeError('k must be finite and > 0')\n"
           "    raise ValueError(msg)\n"
           "raise ValueError('count must be an integer >= 1')\n")
    assert input_rule_sites(src) == [
        ("_check_positive", 2), ("Grid.__post_init__", 6),
        ("Grid.__post_init__", 7), ("padded", 9), ("", 14)]


def test_every_public_function_has_a_caller():
    sources = [p.read_text() for p in SOURCES]
    assert uncalled_public_names(sources, exempt=set(helmscat.__all__)) == []


def test_uncalled_public_name_is_reported():
    # used and K.meth read only themselves; K.named is read only by a Name
    # load, which does not count for a method; K.conj is read only as an
    # attribute of the imported numpy (np.conj), which does not count for a
    # method either, while K.make is read through the imported class K and
    # K.attr through an instance; K.prop is a property
    lib = ("def used():\n    return used()\n"
           "def called():\n    pass\n"
           "def exported():\n    pass\n"
           "def _private():\n    pass\n"
           "class K:\n"
           "    def meth(self):\n        return self.meth()\n"
           "    def named(self):\n        return called\n"
           "    def attr(self):\n        pass\n"
           "    def conj(self):\n        pass\n"
           "    def make(self):\n        pass\n"
           "    @property\n    def prop(self):\n        pass\n")
    user = ("import lib\nimport numpy as np\nfrom lib import K\n"
            "lib.K().attr()\nnamed = 1\nx = named\ny = np.conj(1j)\n"
            "z = K.make\n")
    assert uncalled_public_names([lib, user], exempt={"exported"}) == [
        "K.conj", "K.meth", "K.named", "used"]


def unread_oracles(oracles: str, tests) -> list[str]:
    """The public module-level functions of the oracle module that neither
    the test sources nor another oracle read."""
    defined = {node.name for node in ast.parse(oracles).body
               if isinstance(node, ast.FunctionDef)}
    return [name for name in uncalled_public_names([oracles, *tests])
            if name in defined]


def test_every_oracle_has_a_caller():
    oracles = next(p for p in TESTS if p.name == "oracles.py")
    tests = [p.read_text() for p in TESTS if p != oracles]
    assert unread_oracles(oracles.read_text(), tests) == []


def test_uncalled_oracle_is_reported():
    # helper is read by another oracle, used and chained by the tests;
    # test_x and the test class's method are not oracles
    oracles = ("def used():\n    pass\ndef helper():\n    pass\n"
               "def chained():\n    return helper()\n"
               "def unread():\n    return unread()\ndef _private():\n    pass\n")
    tests = ("from oracles import used\nimport oracles\nused()\n"
             "oracles.chained()\n",
             "def test_x():\n    pass\nclass TestK:\n    def test_m(self):\n"
             "        pass\n")
    assert unread_oracles(oracles, tests) == ["unread"]


# scipy subpackages that together cost a fresh process most of a second to
# import; no CLI action loads any of them.  No step below loads any scipy at
# all: the point sources of 2D and 3D (H_0 and H_{1/2}), the Bessel
# functions of orders 0 to 2 that the checks and `constants zN` at dims 3 to
# 6 read, and the blow-up probe of a 2D branch that stops short of
# lambda_max are numpy-only, the transforms are numpy.fft's and verify
# fourier's Gamma(nu + 1) is math.gamma.  scipy.special is imported where a
# Bessel function without a closed form is first needed
HEAVY_SCIPY = ("scipy.optimize", "scipy.integrate", "scipy.interpolate",
               "scipy.linalg", "scipy.sparse")

# run in a fresh interpreter: which heavy modules each step has loaded,
# whether any scipy module is loaded, and the exit code of each CLI action
CLI_RUNS = """
import json, os, sys, tempfile
heavy = json.loads(sys.argv[1])
loaded = lambda: sorted(m for m in heavy if m in sys.modules)
scipy_loaded = lambda: any(m.split(".")[0] == "scipy" for m in sys.modules)
from helmscat import cli
report = {"import helmscat.cli": [0, loaded(), scipy_loaded()]}
cfg3 = {
    "problem": {"dim": 3, "k": 1.0, "L": 2.0, "M": 10,
                "nonlinearity": {"kind": "power", "p": 3.0, "coefficient": {
                    "type": "radial_bump", "amplitude": -0.8, "width": 4.0,
                    "cutoff": 0.45}}},
    "solver": {"tol": 1e-10, "certify": True},
    "continuation": {"lambda_max": 1.0},
    "verify": {"nu": 1.5, "pairs": 3},
}
# the branch-2d benchmark's focusing bump at a small M; its branch reaches
# lambda_max = 1, so continue runs no blow-up probe
cfg2 = {
    "problem": {"dim": 2, "k": 1.0, "L": 4.0, "M": 12,
                "nonlinearity": {"kind": "power", "p": 3.0, "coefficient": {
                    "type": "radial_bump", "amplitude": 0.3, "width": 1.0,
                    "cutoff": 3.5}}},
    "solver": {"tol": 1e-10},
    "continuation": {"lambda_max": 1.0},
}
# the same branch to lambda_max = 10 on the benchmark's step floor: it stops
# short (exit 3), so continue runs the blow-up probe
cfg2_short = {**cfg2, "continuation": {"lambda_max": 10.0, "floor_factor": 1e-2}}
runs = (("", cfg3, (["solve"], ["kappa"], ["farfield"], ["continue"],
                    ["verify", "fourier"], ["verify", "sturm"],
                    ["verify", "energy"], ["verify", "defocusing"],
                    ["constants", "zN"], ["constants", "zN", "--dim", "4"],
                    ["constants", "zN", "--dim", "6"])),
        ("2D ", cfg2, (["solve"], ["kappa"], ["farfield"], ["continue"],
                       ["verify", "energy"])),
        ("2D short ", cfg2_short, (["continue"],)))
for label, cfg, actions in runs:
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "cfg.json")
        with open(path, "w") as fh:
            json.dump(cfg, fh)
        for action in actions:
            code = cli.main(action + ["--config", path, "--out", d])
            report[label + " ".join(action)] = [code, loaded(), scipy_loaded()]
print(json.dumps(report))
"""


def test_cli_runs_import_no_heavy_scipy():
    src = pathlib.Path(helmscat.__file__).parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", CLI_RUNS, json.dumps(HEAVY_SCIPY)],
        capture_output=True, text=True, timeout=120, check=True,
        env={**os.environ, "PYTHONPATH": str(src)})
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    exits = {"2D short continue": 3}
    assert report == {step: [exits.get(step, 0), [], False] for step in report}
    assert len(report) == 18


def third_party_imports(sources) -> set[str]:
    """The top-level modules that the given module sources import, absolute
    imports only, standard library excepted."""
    found = set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Import):
                found.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                found.add(node.module.split(".")[0])
    return found - sys.stdlib_module_names


def test_declared_dependencies_are_the_imported_ones():
    # a declared dependency that no module imports is installed for nothing,
    # and an undeclared import fails on a clean install
    tomllib = pytest.importorskip("tomllib")  # Python >= 3.11
    pyproject = pathlib.Path(__file__).parents[1] / "pyproject.toml"
    declared = tomllib.loads(pyproject.read_text())["project"]["dependencies"]
    names = {re.match(r"[A-Za-z0-9_.-]+", d).group().lower().replace("-", "_")
             for d in declared}
    assert third_party_imports(path.read_text() for path in SOURCES) == names
    assert names == {"numpy", "scipy"}


def test_third_party_import_is_reported():
    src = ("from __future__ import annotations\nimport os.path\n"
           "import numpy as np\nfrom scipy.fft import fftn\nfrom . import fields\n"
           "def f():\n    import jsonschema.validators\n")
    assert third_party_imports([src]) == {"numpy", "scipy", "jsonschema"}


def readme_commands() -> tuple[set[str], set[str]]:
    """The actions and the verify modes of README's indented
    ``helmscat <action>`` command lines."""
    readme = pathlib.Path(__file__).parents[1] / "README.md"
    actions, modes = set(), set()
    for line in readme.read_text().splitlines():
        words = line.split()
        if line.startswith("    helmscat ") and len(words) > 1:
            actions.add(words[1])
            if words[1] == "verify":
                modes.add(words[2])
    return actions, modes


def test_readme_lists_every_action_and_verify_mode():
    assert readme_commands() == (set(cli._ACTIONS), set(cli._VERIFY_MODES))


def test_solver_and_continuation_keys_match_their_configs():
    # a key in the config table without a field has no reader, and a field
    # without a key cannot be set; certify is read by solve alone and
    # lambda_max is passed to continue_branch on its own
    def keys(block):
        return set(cli._CONFIG.keys[block].keys)

    def fields(cls):
        return {f.name for f in dataclasses.fields(cls)}

    assert keys("solver") == fields(SolverConfig) | {"certify"}
    assert keys("continuation") == fields(StepConfig) | {"lambda_max"}


def unread_fields(sources, classes) -> list[str]:
    """'Class.field' for each annotated field of the named classes that no
    source reads as an attribute (cfg.tol) outside the class's own body."""
    trees = [ast.parse(src) for src in sources]
    loads = [n for tree in trees for n in ast.walk(tree)
             if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)]
    missing = []
    for cls in (node for tree in trees for node in tree.body
                if isinstance(node, ast.ClassDef) and node.name in classes):
        own = {id(n) for n in ast.walk(cls)}
        read = {n.attr for n in loads if id(n) not in own}
        missing += [f"{cls.name}.{item.target.id}" for item in cls.body
                    if isinstance(item, ast.AnnAssign)
                    and item.target.id not in read]
    return sorted(missing)


def test_every_solver_and_step_setting_is_read():
    # a setting that only its own validation reads changes nothing
    sources = [p.read_text() for p in SOURCES]
    assert unread_fields(sources, {SolverConfig.__name__,
                                   StepConfig.__name__}) == []


def test_unread_setting_is_reported():
    # K.checked is read only in K's own body, K.unread nowhere; K.used is
    # read through a parameter, and J is not a class asked about
    lib = ("class K:\n    used: int = 1\n    checked: float = 0.5\n"
           "    unread: int = 2\n    def __post_init__(self):\n"
           "        assert self.checked > 0\n"
           "class J:\n    other: int = 0\n")
    user = "def run(cfg):\n    return cfg.used\n"
    assert unread_fields([lib, user], {"K"}) == ["K.checked", "K.unread"]


def tracer_targets(source: str) -> list[tuple[str, str]]:
    """(module, attribute) of each entry of the tracer's TARGETS tuple, read
    from its source without importing it."""
    node = next(n for n in ast.parse(source).body if isinstance(n, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "TARGETS"
                        for t in n.targets))
    return [(entry.elts[0].value, entry.elts[1].value) for entry in node.value.elts]


def test_every_tracer_target_resolves():
    # perfbench/tracing.py wraps each function where a module binds it; a
    # binding that a refactor drops fails only the benchmark run otherwise
    tracing = pathlib.Path(__file__).parents[1] / "perfbench" / "tracing.py"
    targets = tracer_targets(tracing.read_text())
    assert targets
    assert [f"{module}.{name}" for module, name in targets
            if not hasattr(importlib.import_module(module), name)] == []


def misread_parameters(source: str) -> list[str]:
    """For each entry of the tracer's TARGETS tuple whose annotator reads
    ``args[i] if ... else kwargs["name"]``, read from its source, the
    wrapped function's i-th parameter where it is not name."""
    tree = ast.parse(source)
    reads = {fn.name: [(n.body.slice.value, n.orelse.slice.value)
                       for n in ast.walk(fn) if isinstance(n, ast.IfExp)
                       and isinstance(n.body, ast.Subscript)
                       and isinstance(n.body.value, ast.Name)
                       and n.body.value.id == "args"
                       and isinstance(n.orelse, ast.Subscript)
                       and isinstance(n.orelse.value, ast.Name)
                       and n.orelse.value.id == "kwargs"]
             for fn in tree.body if isinstance(fn, ast.FunctionDef)}
    node = next(n for n in tree.body if isinstance(n, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "TARGETS"
                        for t in n.targets))
    wrong = []
    for entry in node.value.elts:
        module, attr, annotate = entry.elts[0].value, entry.elts[1].value, entry.elts[3]
        if not isinstance(annotate, ast.Name):
            continue
        fn = getattr(importlib.import_module(module), attr)
        params = list(inspect.signature(fn).parameters)
        for i, name in reads[annotate.id]:
            got = params[i] if i < len(params) else None
            if got != name:
                wrong.append(f"{module}.{attr}: args[{i}] is {got}, not {name}")
    return wrong


def test_tracer_annotators_match_library_signatures():
    # an annotator that reads the wrong parameter records a wrong figure
    # rather than failing: had r left second place in fundamental_solution,
    # specfun.fundamental_solution.points would count 1 per call
    tracing = pathlib.Path(__file__).parents[1] / "perfbench" / "tracing.py"
    assert misread_parameters(tracing.read_text()) == []


def test_misread_parameter_is_reported():
    src = ("def _r(args, kwargs, out):\n    r = args[0] if args else kwargs['r']\n"
           "def _k(args, kwargs, out):\n"
           "    return args[0] if len(args) > 0 else kwargs['k']\n"
           "def _far(args, kwargs, out):\n"
           "    return args[5] if len(args) > 5 else kwargs['x']\n"
           "TARGETS = (\n"
           "    ('helmscat.specfun', 'fundamental_solution', 'a', _r),\n"
           "    ('helmscat.specfun', 'fundamental_solution', 'b', _k),\n"
           "    ('helmscat.specfun', 'fundamental_solution', 'c', _far),\n"
           "    ('helmscat.specfun', 'hankel1', 'd', None),\n)\n")
    assert misread_parameters(src) == [
        "helmscat.specfun.fundamental_solution: args[0] is k, not r",
        "helmscat.specfun.fundamental_solution: args[5] is None, not x"]


def benchmark_workloads():
    """perfbench/workloads.py, imported from its file."""
    path = pathlib.Path(__file__).parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look the module up by name while the class is built
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["solve-3d", "branch-2d", "certify-sweep"])
def test_benchmark_workload_runs_on_this_library(name, tmp_path):
    # the benchmark calls the library's public surface (signatures, config
    # keys, CLI flags); a change to it fails only the benchmark run otherwise
    wl = benchmark_workloads().WORKLOADS[name](seed=0, size="tiny",
                                               workdir=str(tmp_path))
    wl.load()
    wl.build()
    assert wl.setup_outcome.failed == 0 and wl.setup_outcome.correct, \
        wl.setup_outcome.notes
    inp = wl.prepare(0)
    outcome = wl.check(inp, wl.run(inp))
    assert outcome.correct, outcome.notes


def cached_functions(source: str) -> list[tuple[str, int, object]]:
    """(name, line, maxsize) for each function cached by functools.cache
    or lru_cache; maxsize is the literal or the module-level constant it
    names, None where there is neither."""
    tree = ast.parse(source)
    sizes = {t.id: n.value.value for n in tree.body
             if isinstance(n, ast.Assign) and isinstance(n.value, ast.Constant)
             for t in n.targets if isinstance(t, ast.Name)}
    found = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for dec in fn.decorator_list:
            call = dec if isinstance(dec, ast.Call) else None
            target = call.func if call else dec
            name = getattr(target, "attr", getattr(target, "id", None))
            if name not in ("cache", "lru_cache"):
                continue
            size = None
            if call is not None and name == "lru_cache":
                size = (call.args[0] if call.args else
                        next((kw.value for kw in call.keywords
                              if kw.arg == "maxsize"), None))
            if isinstance(size, ast.Name):
                size = sizes.get(size.id)
            elif isinstance(size, ast.Constant):
                size = size.value
            found.append((fn.name, fn.lineno, size))
    return found


def unbounded_caches(source: str) -> list[str]:
    """'name (line N)' for each function cached by functools.cache, or by an
    lru_cache whose maxsize is not a positive integer literal or a
    module-level name bound to one."""
    return sorted(f"{name} (line {line})" for name, line, size in cached_functions(source)
                  if not (type(size) is int and size > 0))


def test_every_cache_is_bounded():
    # memory caps count every cached array, which a cache of unbounded size
    # defeats
    assert [f"{path.name}: {entry}" for path in SOURCES
            for entry in unbounded_caches(path.read_text())] == []


def test_unbounded_cache_is_reported():
    src = ("import functools\nfrom functools import cache, lru_cache\n_N = 4\n"
           "_NONE = None\n"
           "@functools.lru_cache(maxsize=None)\ndef a(x):\n    return x\n"
           "@lru_cache(None)\ndef b(x):\n    return x\n"
           "@cache\ndef c(x):\n    return x\n"
           "@functools.lru_cache\ndef d(x):\n    return x\n"
           "@functools.lru_cache(maxsize=_NONE)\ndef e(x):\n    return x\n"
           "@functools.lru_cache(maxsize=_N)\ndef f(x):\n    return x\n"
           "@lru_cache(8)\ndef g(x):\n    return x\n")
    assert unbounded_caches(src) == ["a (line 6)", "b (line 9)", "c (line 12)",
                                     "d (line 15)", "e (line 18)"]


def cache_samples() -> dict:
    """One call per cached function of the package, keyed 'module.name'."""
    from helmscat import fields, resolvent, specfun, verify
    g3 = fields.Grid(dim=3, half_width=2.0, points_per_axis=9)
    g2 = fields.Grid(dim=2, half_width=2.0, points_per_axis=17)
    cfg = resolvent.ResolventConfig.padded(g3, 1)
    dirs, _ = fields.sphere_quadrature(2)
    return {
        "cli._parser": cli._parser,
        "fields._octahedral_rule": fields._octahedral_rule,
        # radius at the half-width: the gradient rule's one-sided formulas
        "fields._sphere_plan": lambda: fields._sphere_plan(
            g2, 2.0, dirs.tobytes()),
        "fields._unit_quotient_sup": lambda: fields._unit_quotient_sup(3.0, 0),
        "resolvent._window_spectra": lambda: resolvent._window_spectra(
            cfg, 1.3, "outgoing", ((2, 5), (3, 3), (1, 7))),
        "resolvent._kappa": lambda: resolvent._kappa(2.5, cfg, None),
        "resolvent._radiation_ball": lambda: resolvent._radiation_ball(
            g3, (0.5, 1.0, 1.5)),
        "specfun._zero_table": lambda: specfun._zero_table("J", 0.5, 3),
        "verify._unit_check": lambda: verify._unit_check(3, 1.0),
    }


def arrays_in(value):
    """Every numpy array reachable from value through tuples, lists, dict
    values and dataclass fields."""
    import numpy as np
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, (tuple, list)):
        for part in value:
            yield from arrays_in(part)
    elif isinstance(value, dict):
        for part in value.values():
            yield from arrays_in(part)
    elif dataclasses.is_dataclass(value) and not isinstance(value, type):
        for f in dataclasses.fields(value):
            yield from arrays_in(getattr(value, f.name))


def test_every_cache_returns_read_only_arrays():
    # a cache hands the same result to every caller, so no caller may write
    # to it; a cache without a sample call here fails the first assert
    names = sorted(f"{path.stem}.{name}" for path in SOURCES
                   for name, _, _ in cached_functions(path.read_text()))
    samples = cache_samples()
    assert names == sorted(samples)
    for name, call in samples.items():
        writable = [a.shape for a in arrays_in(call()) if a.flags.writeable]
        assert writable == [], name


def test_writable_cached_array_is_reported():
    import numpy as np
    frozen = np.zeros(2)
    frozen.flags.writeable = False
    nested = ({"a": [frozen, SolverConfig()]}, (np.ones(3),))
    assert [a.shape for a in arrays_in(nested) if a.flags.writeable] == [(3,)]
