"""Source hygiene: every name a package module imports is used in that
module or re-exported through its __all__, every private module-level
name it defines is read somewhere in it, every public function or method
has a reader somewhere in the package, every public function of
tests/oracles.py has a reader somewhere in the tests, a CLI run imports
none of the scipy subpackages it has no use for, README's command list
names exactly the CLI's actions and verify modes, every solver and
continuation key of the config schema is read, and every name the
benchmark's tracer wraps exists where it wraps it."""

import ast
import dataclasses
import importlib
import json
import os
import pathlib
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
# import; the package uses only scipy.fft and scipy.special on these paths
HEAVY_SCIPY = ("scipy.optimize", "scipy.integrate", "scipy.interpolate",
               "scipy.linalg", "scipy.sparse")

# run in a fresh interpreter: which heavy modules each step has loaded, and
# the exit code of each CLI action
CLI_RUNS = """
import json, os, sys, tempfile
heavy = json.loads(sys.argv[1])
loaded = lambda: sorted(m for m in heavy if m in sys.modules)
from helmscat import cli
report = {"import helmscat.cli": [0, loaded()]}
cfg = {
    "problem": {"dim": 3, "k": 1.0, "L": 2.0, "M": 10,
                "nonlinearity": {"kind": "power", "p": 3.0, "coefficient": {
                    "type": "radial_bump", "amplitude": -0.8, "width": 4.0,
                    "cutoff": 0.45}}},
    "solver": {"tol": 1e-10, "certify": True},
    "verify": {"nu": 1.5, "pairs": 3},
}
with tempfile.TemporaryDirectory() as d:
    path = os.path.join(d, "cfg.json")
    with open(path, "w") as fh:
        json.dump(cfg, fh)
    for action in (["solve"], ["kappa"], ["farfield"], ["verify", "fourier"],
                   ["verify", "sturm"], ["verify", "energy"],
                   ["verify", "defocusing"], ["constants", "zN"]):
        code = cli.main(action + ["--config", path, "--out", d])
        report[" ".join(action)] = [code, loaded()]
print(json.dumps(report))
"""


def test_cli_runs_import_no_heavy_scipy():
    src = pathlib.Path(helmscat.__file__).parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", CLI_RUNS, json.dumps(HEAVY_SCIPY)],
        capture_output=True, text=True, timeout=120, check=True,
        env={**os.environ, "PYTHONPATH": str(src)})
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    assert report == {step: [0, []] for step in report}
    assert len(report) == 9


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
    # a key in the schema without a field has no reader, and a field without
    # a key cannot be set; certify is read by solve alone and lambda_max is
    # passed to continue_branch on its own
    def keys(block):
        return set(cli.CONFIG_SCHEMA["properties"][block]["properties"])

    def fields(cls):
        return {f.name for f in dataclasses.fields(cls)}

    assert keys("solver") == fields(SolverConfig) | {"certify"}
    assert keys("continuation") == fields(StepConfig) | {"lambda_max"}


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
