import csv
import dataclasses
import hashlib
import json
import math
import os
import warnings

import numpy as np
import pytest

from helmscat import cli, solver
from helmscat.cli import _parser, main
from helmscat.fields import (
    BoundCheck,
    ComplexField,
    Grid,
    IncidentWave,
    load_field,
    make_incident,
)
from helmscat.resolvent import ResolventConfig, apply_resolvent, estimate_kappa


def base_config(**problem_overrides):
    problem = {
        "dim": 3, "k": 1.0, "L": 2.0, "M": 10,
        "nonlinearity": {"kind": "power", "p": 3.0,
                         "coefficient": {"type": "radial_bump",
                                         "amplitude": -0.8, "width": 4.0,
                                         "cutoff": 0.45}},
        "incident": {"type": "plane", "direction": [1, 0, 0]},
    }
    problem.update(problem_overrides)
    return {"problem": problem, "solver": {"tol": 1e-11}}


def affine_config():
    cfg = base_config(nonlinearity={
        "kind": "affine",
        "a": {"type": "radial_bump", "amplitude": -0.3},
        "b": {"type": "radial_bump", "amplitude": 0.3}})
    cfg["solver"]["certify"] = True
    return cfg


def certified_config():
    cfg = base_config()
    cfg["solver"]["certify"] = True
    return cfg


@pytest.fixture
def diagnostics(monkeypatch):
    """Call counts of the radiation reports and certificates made through
    helmscat.solver, and of the radiation reports made through helmscat.cli;
    each call still runs."""
    calls = {}
    for module, name in ((solver, "radiation_report"),
                         (solver, "contraction_certificate"),
                         (cli, "radiation_report")):
        key = f"{module.__name__.split('.')[-1]}.{name}"
        calls[key] = 0

        def counted(*a, key=key, fn=getattr(module, name), **kw):
            calls[key] += 1
            return fn(*a, **kw)
        monkeypatch.setattr(module, name, counted)
    return calls


def action_id(action):
    """Test id of an argv prefix: the action, with its mode for verify."""
    return "_".join(action[:2]) if action[0] == "verify" else action[0]


def write_config(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def reject_constant(name):
    raise ValueError(f"report holds {name}")


def refuse_solve(*args, **kwargs):
    raise AssertionError("picard_solve called")


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


class TestSolve:
    def test_artifacts_and_manifest(self, tmp_path):
        cp = write_config(tmp_path, base_config())
        out = tmp_path / "run"
        assert main(["solve", "--config", cp, "--out", str(out)]) == 0
        rep = json.loads((out / "solve_report.json").read_text())
        assert rep["converged"]
        assert rep["final_residual"] <= 1e-10
        man = json.loads((out / "manifest.json").read_text())
        assert man["status"] == "ok"
        assert man["config"]["problem"]["M"] == 10
        for name, digest in man["outputs"].items():
            data = (out / name).read_bytes()
            assert hashlib.sha256(data).hexdigest() == digest
        fld, k = load_field(out / "field.cfld")
        assert k == 1.0
        assert fld.sup_norm == pytest.approx(rep["sup_norm"], rel=1e-10)

    def test_zero_coefficient_reproduces_incident(self, tmp_path):
        cfg = base_config(nonlinearity={"kind": "zero"})
        cp = write_config(tmp_path, cfg)
        out = tmp_path / "run"
        assert main(["solve", "--config", cp, "--out", str(out)]) == 0
        rep = json.loads((out / "solve_report.json").read_text())
        assert rep["final_residual"] == 0.0
        fld, _ = load_field(out / "field.cfld")
        g = Grid(dim=3, half_width=2.0, points_per_axis=10)
        phi = make_incident(IncidentWave.plane(1.0, (1.0, 0.0, 0.0)), g)
        assert np.array_equal(fld.values, phi.values)

    @pytest.mark.parametrize("action", [
        ["solve", "--seed", "5"], ["continue"], ["kappa"], ["farfield"],
        ["verify", "sturm"], ["verify", "fourier"], ["verify", "energy"],
        ["verify", "defocusing"], ["constants", "zN"],
    ], ids=action_id)
    def test_determinism(self, tmp_path, action):
        # same config and seed: same exit code and byte-identical outputs;
        # only the manifest (which records wall time) may differ
        cfg = certified_config()
        cfg["continuation"] = {"lambda_max": 1.0}
        cp = write_config(tmp_path, cfg)
        runs = []
        for tag in ("a", "b"):
            out = tmp_path / tag
            code = main([*action, "--config", cp, "--out", str(out)])
            files = {n: (out / n).read_bytes() for n in os.listdir(out)
                     if n != "manifest.json"}
            runs.append((code, files))
        assert runs[0] == runs[1]
        assert runs[0][0] == 0 and runs[0][1]
        # every report, the manifest too, is strict JSON: no NaN or Infinity
        for name in os.listdir(tmp_path / "a"):
            if name.endswith(".json"):
                json.loads((tmp_path / "a" / name).read_text(),
                           parse_constant=reject_constant)

    def test_source_term_without_incident_solves_to_its_resolvent(self, tmp_path):
        # f(x, u) = 0 u + b with b the default constant ball (radius L/2) and
        # no incident wave: the solution is R_k b
        cfg = base_config(nonlinearity={
            "kind": "affine", "a": {"type": "zero"},
            "b": {"type": "constant_ball", "amplitude": 0.5}},
            incident={"type": "zero"})
        cp = write_config(tmp_path, cfg)
        out = tmp_path / "run"
        assert main(["solve", "--config", cp, "--out", str(out)]) == 0
        fld, _ = load_field(out / "field.cfld")
        g = Grid(dim=3, half_width=2.0, points_per_axis=10)
        b = ComplexField(g, 0.5 * (g.radius() <= 1.0) + 0j)
        want = apply_resolvent(b, ResolventConfig(g, g), 1.0)
        assert np.max(np.abs(fld.values - want.values)) <= 1e-13 * want.sup_norm

    def test_unexpected_error_exits_1(self, tmp_path, monkeypatch):
        def broken(cfg, args, out):
            raise RuntimeError("runner broke")
        monkeypatch.setitem(cli._ACTIONS, "kappa", (broken, {}))
        cp = write_config(tmp_path, base_config())
        out = tmp_path / "run"
        assert main(["kappa", "--config", cp, "--out", str(out)]) == 1
        man = json.loads((out / "manifest.json").read_text())
        assert (man["status"], man["error"]) == ("error", "RuntimeError: runner broke")

    def test_certified_affine_solve_reports_bound(self, tmp_path, diagnostics):
        cp = write_config(tmp_path, affine_config())
        out = tmp_path / "run"
        assert main(["solve", "--config", cp, "--out", str(out)]) == 0
        assert diagnostics == {"solver.radiation_report": 1,
                               "solver.contraction_certificate": 1,
                               "cli.radiation_report": 0}
        rep = json.loads((out / "solve_report.json").read_text())
        [check] = rep["bound_checks"]
        assert check["name"] == "linear_sup_bound"
        assert check["satisfied"] and check["margin"] >= 0.0
        assert check["lhs"] == pytest.approx(rep["sup_norm"], rel=1e-11)

    def test_large_alpha_affine_bound_holds(self, tmp_path):
        # <x>^1000 overflows at the grid corners, where a and b vanish; the
        # weighted norms stay finite and the bound holds as at alpha 400
        cfg = base_config(M=12, alpha=1000.0, nonlinearity={
            "kind": "affine",
            "a": {"type": "constant_ball", "amplitude": 0.1, "radius": 0.5},
            "b": {"type": "constant_ball", "amplitude": 0.1, "radius": 0.5}})
        cfg["solver"]["certify"] = True
        cp = write_config(tmp_path, cfg)
        out = tmp_path / "run"
        assert main(["solve", "--config", cp, "--out", str(out)]) == 0
        rep = json.loads((out / "solve_report.json").read_text(),
                         parse_constant=reject_constant)
        [check] = rep["bound_checks"]
        assert check["satisfied"]
        assert check["margin"] == pytest.approx(1.46e-3, rel=1e-2)

    def test_large_alpha_power_certificate_is_finite(self, tmp_path):
        cfg = base_config(M=12, alpha=1000.0)
        cfg["solver"]["certify"] = True
        cp = write_config(tmp_path, cfg)
        out = tmp_path / "run"
        assert main(["solve", "--config", cp, "--out", str(out)]) == 0
        rep = json.loads((out / "solve_report.json").read_text(),
                         parse_constant=reject_constant)
        cert = rep["contraction_certificate"]
        assert cert["certified"]
        assert cert["product"] == pytest.approx(0.1016, rel=1e-3)

    def test_failed_bound_check_exit_code(self, tmp_path, monkeypatch):
        breach = BoundCheck(name="linear_sup_bound", lhs=2.0, rhs=1.0,
                            tolerance=0.5)
        monkeypatch.setattr(solver, "linear_bound_check",
                            lambda f, phi, u, kappa: breach)
        cp = write_config(tmp_path, affine_config())
        out = tmp_path / "run"
        assert main(["solve", "--config", cp, "--out", str(out)]) == 4
        man = json.loads((out / "manifest.json").read_text())
        assert man["status"] == "verification_breach"
        rep = json.loads((out / "solve_report.json").read_text())
        assert rep["converged"]
        assert [(c["margin"], c["tolerance"], c["satisfied"])
                for c in rep["bound_checks"]] == [(-1.0, 0.5, False)]

    @pytest.mark.parametrize("action", [
        ["solve"], ["farfield"], ["verify", "energy"], ["verify", "defocusing"],
    ], ids=action_id)
    def test_divergence_exit_code(self, tmp_path, action):
        # a solve that fails stops every action that solves with exit 3;
        # only solve writes its report of the failure
        outputs = ["field.cfld", "solve_report.json"] if action == ["solve"] else []
        cfg = base_config(
            nonlinearity={"kind": "power", "p": 4.0,
                          "coefficient": {"type": "radial_bump",
                                          "amplitude": 80.0, "width": 4.0,
                                          "cutoff": 0.8}},
            incident={"type": "plane", "direction": [1, 0, 0],
                      "amplitude": 3.0})
        cfg["solver"] = {"divergence_cap": 1e4, "max_iters": 100}
        cp = write_config(tmp_path, cfg)
        out = tmp_path / "run"
        assert main([*action, "--config", cp, "--out", str(out)]) == 3
        man = json.loads((out / "manifest.json").read_text())
        assert man["status"] == "divergence"
        assert sorted(man["outputs"]) == outputs
        assert sorted(os.listdir(out)) == sorted(outputs + ["manifest.json"])

    @pytest.mark.parametrize("action", [
        ["solve"], ["farfield"], ["verify", "energy"], ["verify", "defocusing"],
    ], ids=action_id)
    def test_iteration_budget_is_incomplete(self, tmp_path, action):
        # a solve that runs out of iterations without diverging exits 3 as
        # "incomplete", not "divergence"
        cfg = base_config()
        cfg["solver"]["max_iters"] = 1
        cp = write_config(tmp_path, cfg)
        out = tmp_path / "run"
        assert main([*action, "--config", cp, "--out", str(out)]) == 3
        man = json.loads((out / "manifest.json").read_text())
        assert man["status"] == "incomplete"
        if action == ["solve"]:
            rep = json.loads((out / "solve_report.json").read_text())
            assert rep["status"] == "max_iters"

    def test_overflowing_iterate_exit_code(self, tmp_path):
        # f(u) overflows float64 below the divergence cap: still a divergence
        cfg = base_config(
            M=8,
            nonlinearity={"kind": "power", "p": 5.0,
                          "coefficient": {"type": "radial_bump",
                                          "amplitude": 50.0, "width": 1.0,
                                          "cutoff": 1.5}},
            incident={"type": "plane", "direction": [1, 0, 0],
                      "amplitude": 10.0})
        cfg["solver"] = {"divergence_cap": 1e308}
        cp = write_config(tmp_path, cfg)
        out = tmp_path / "run"
        assert main(["solve", "--config", cp, "--out", str(out)]) == 3
        man = json.loads((out / "manifest.json").read_text())
        assert man["status"] == "divergence"
        rep = json.loads((out / "solve_report.json").read_text())
        assert rep["status"] == "diverged" and rep["final_residual"] is None


class TestConfigErrors:
    def test_missing_file(self, tmp_path):
        out = tmp_path / "run"
        assert main(["solve", "--config", str(tmp_path / "nope.json"),
                     "--out", str(out)]) == 2
        man = json.loads((out / "manifest.json").read_text())
        assert man["status"] == "config_error"
        assert "cannot read" in man["error"]

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("{not json")
        assert main(["solve", "--config", str(path),
                     "--out", str(tmp_path / "run")]) == 2

    @pytest.mark.parametrize("mangle", [
        lambda c: c["problem"].update(k=-1.0),
        lambda c: c["problem"].pop("M"),
        lambda c: c.update(unknown_block={}),
        lambda c: c["problem"].update(nonlinearity={"kind": "power"}),
        lambda c: c.update(verify={"freq_count": 7}),
        lambda c: c.update(continuation={"lambda_max": 1.0, "store_at": [1.0]}),
        lambda c: c["problem"]["incident"].update(direction=[0.6, 0.8]),
        lambda c: c["problem"]["incident"].update(direction=[]),
        lambda c: c["solver"].update(compute_radiation=False),
        lambda c: c.update(continuation={"lambda_max": 1.0, "growth": 2.0}),
        lambda c: c.update(continuation={"lambda_max": 1.0, "grow_after": 2}),
    ])
    def test_schema_and_semantic_rejects(self, tmp_path, mangle):
        cfg = base_config()
        mangle(cfg)
        cp = write_config(tmp_path, cfg)
        assert main(["solve", "--config", cp,
                     "--out", str(tmp_path / "run")]) == 2

    @pytest.mark.parametrize("action,block", [
        (["farfield"], {"farfield": {"radii": [0.5, 9.0]}}),
        (["verify", "energy"], {"verify": {"radii": [3.0]}}),
        # an empty list has no radius to read the far field at and checks
        # no flux
        (["farfield"], {"farfield": {"radii": []}}),
        (["verify", "energy"], {"verify": {"radii": []}}),
    ])
    def test_radii_outside_grid_are_config_errors(self, tmp_path, monkeypatch,
                                                  action, block):
        if action == ["farfield"]:  # checked before the solve
            monkeypatch.setattr(cli, "picard_solve", refuse_solve)
        cfg = base_config()
        cfg.update(block)
        cp = write_config(tmp_path, cfg)
        out = tmp_path / "run"
        assert main([*action, "--config", cp, "--out", str(out)]) == 2
        man = json.loads((out / "manifest.json").read_text())
        assert man["status"] == "config_error"

    def test_farfield_directions_beyond_the_grid_are_config_errors(
            self, tmp_path, monkeypatch):
        # the far field is interpolated from the 10^3 eval-grid nodes; the
        # count is checked before the solve
        monkeypatch.setattr(cli, "picard_solve", refuse_solve)
        cfg = base_config()
        cfg["farfield"] = {"directions": 10 ** 3 + 1}
        cp = write_config(tmp_path, cfg)
        out = tmp_path / "run"
        assert main(["farfield", "--config", cp, "--out", str(out)]) == 2
        man = json.loads((out / "manifest.json").read_text())
        assert man["error"] == ("farfield.directions 1001 exceeds the eval "
                                "grid's 1000 points")
        assert os.listdir(out) == ["manifest.json"]

    @pytest.mark.parametrize("half_width", [1e110, 1e-300])
    def test_cell_volume_outside_float64_is_config_error(self, tmp_path, half_width):
        # h^3 overflows float64 or underflows to 0
        cp = write_config(tmp_path, base_config(L=half_width))
        out = tmp_path / "run"
        assert main(["solve", "--config", cp, "--out", str(out)]) == 2
        man = json.loads((out / "manifest.json").read_text())
        assert man["error"].startswith("cell volume h^3 = ")

    def test_out_of_range_power_is_config_error(self, tmp_path):
        cfg = base_config()
        cfg["problem"]["nonlinearity"]["p"] = 8.0
        cp = write_config(tmp_path, cfg)
        assert main(["solve", "--config", cp,
                     "--out", str(tmp_path / "run")]) == 2

    def test_float_max_iters_is_config_error(self, tmp_path):
        # 200.0 is a JSON number but no JSON integer, so no iteration count
        cfg = base_config()
        cfg["solver"]["max_iters"] = 200.0
        cp = write_config(tmp_path, cfg)
        out = tmp_path / "run"
        assert main(["solve", "--config", cp, "--out", str(out)]) == 2
        man = json.loads((out / "manifest.json").read_text())
        assert man["error"] == ("config schema violation at solver/max_iters: "
                                "must be an integer >= 1, got 200.0")

    @pytest.mark.parametrize("action,mangle,path", [
        (["solve"], lambda c: c["problem"]["nonlinearity"].update(
            tags=["defocusing"]), "problem/nonlinearity/tags"),
        (["solve"], lambda c: c["solver"].update(adapt_damping=False),
         "solver/adapt_damping"),
        (["solve"], lambda c: c["solver"].update(damping=1.0), "solver/damping"),
        (["solve"], lambda c: c.update(
            animate={"field": "field.cfld", "times": [0.0]}), "animate"),
        (["farfield"], lambda c: c.update(
            farfield={"extraction_radius": 5.0}), "farfield/extraction_radius"),
    ], ids=["nonlinearity.tags", "solver.adapt_damping", "solver.damping",
            "animate", "farfield.extraction_radius"])
    def test_removed_keys_are_schema_violations(self, tmp_path, action, mangle,
                                                path):
        cfg = base_config()
        mangle(cfg)
        assert_rejected_at(tmp_path, action, cfg, path)

    @pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity", "1e999"])
    @pytest.mark.parametrize("action,block,key", [
        (["solve"], "solver", "tol"),
        (["continue"], "continuation", "lambda_max"),
    ], ids=["solver.tol", "continuation.lambda_max"])
    def test_non_finite_numbers_are_config_errors(self, tmp_path, action, block,
                                                 key, constant):
        # Python's json module reads NaN and the infinities, and an
        # overflowing literal as an infinity
        cfg = base_config()
        cfg["continuation"] = {"lambda_max": 1.0}
        cfg[block][key] = "PLACEHOLDER"
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg).replace('"PLACEHOLDER"', constant))
        out = tmp_path / "run"
        assert main([*action, "--config", str(path), "--out", str(out)]) == 2
        man = json.loads((out / "manifest.json").read_text())
        assert man["status"] == "config_error"
        assert man["error"] == f"config holds a non-finite number: {constant}"
        assert os.listdir(out) == ["manifest.json"]


def assert_rejected_at(tmp_path, action, cfg, path):
    """The run exits 2 before writing anything but its manifest, whose
    config_error names path."""
    cp = write_config(tmp_path, cfg)
    out = tmp_path / "run"
    assert main([*action, "--config", cp, "--out", str(out)]) == 2
    man = json.loads((out / "manifest.json").read_text())
    assert man["status"] == "config_error"
    assert man["error"].startswith(f"config schema violation at {path}: ")
    assert os.listdir(out) == ["manifest.json"]


BUMP = {"type": "radial_bump", "amplitude": -0.8, "width": 4.0, "cutoff": 0.45}


class TestConfigTable:
    @pytest.mark.parametrize("block,spec,key", [
        ("coefficient", {"type": "zero", "amplitude": -0.8}, "amplitude"),
        ("coefficient", {"type": "radial_bump", "radius": 0.45}, "radius"),
        ("coefficient", {"type": "constant_ball", "cutoff": 0.3}, "cutoff"),
        ("coefficient", {"type": "constant_ball", "width": 4.0}, "width"),
        ("nonlinearity", {"kind": "zero", "p": 3.0}, "p"),
        ("nonlinearity", {"kind": "power", "p": 3.0, "coefficient": BUMP,
                          "a": BUMP}, "a"),
        ("nonlinearity", {"kind": "affine", "a": BUMP, "b": BUMP, "p": 3.0}, "p"),
        ("incident", {"type": "zero", "direction": [1, 0, 0]}, "direction"),
    ], ids=lambda v: v if isinstance(v, str) else next(iter(v.values())))
    def test_unread_keys_are_config_errors(self, tmp_path, block, spec, key):
        # a key that the variant's builder does not read would be ignored,
        # and the run would solve another problem than the config names
        cfg = base_config()
        if block == "coefficient":
            cfg["problem"]["nonlinearity"]["coefficient"] = spec
            block = "nonlinearity/coefficient"
        else:
            cfg["problem"][block] = spec
        assert_rejected_at(tmp_path, ["solve"], cfg, f"problem/{block}/{key}")

    @pytest.mark.parametrize("action,block,key,value", [
        (["solve"], "problem", "M", 12.0),
        (["solve"], "problem", "dim", 3.0),
        (["solve"], "problem", "pad_cells", 1.0),
        (["verify", "sturm"], "verify", "pairs", 5.0),
        (["farfield"], "farfield", "directions", 26.0),
        (["solve"], "solver", "max_iters", True),
        (["solve"], "problem", "k", True),
    ], ids=["problem.M", "problem.dim", "problem.pad_cells", "verify.pairs",
            "farfield.directions", "solver.max_iters", "problem.k"])
    def test_integer_keys_take_json_integers(self, tmp_path, action, block,
                                             key, value):
        # an integer key takes a JSON integer only, and bool is no number
        cfg = base_config()
        cfg.setdefault(block, {})[key] = value
        assert_rejected_at(tmp_path, action, cfg, f"{block}/{key}")

    def test_integer_beyond_float_range_is_config_error(self, tmp_path):
        # float(10**400) raises OverflowError, which would exit 1
        cfg = base_config(k=10 ** 400)
        assert_rejected_at(tmp_path, ["solve"], cfg, "problem/k")

    @pytest.mark.parametrize("action,mangle,path", [
        (["solve"], lambda c: c["problem"]["nonlinearity"].pop("p"),
         "problem/nonlinearity/p"),
        (["solve"], lambda c: c["problem"].update(nonlinearity={
            "kind": "affine", "a": BUMP}), "problem/nonlinearity/b"),
        (["continue"], lambda c: c.update(continuation={"max_step": 0.5}),
         "continuation/lambda_max"),
    ], ids=["power.p", "affine.b", "continuation.lambda_max"])
    def test_required_keys(self, tmp_path, action, mangle, path):
        cfg = base_config()
        mangle(cfg)
        assert_rejected_at(tmp_path, action, cfg, path)


# two values of each key that a variant of a tagged block admits
KEY_VALUES = {
    "amplitude": (-0.8, -0.5),
    "width": (4.0, 1.0),
    "cutoff": (0.45, 0.9),
    "radius": (0.45, 0.9),
    "p": (3.0, 2.5),
    "coefficient": (BUMP, {"type": "constant_ball", "radius": 0.9}),
    "a": (BUMP, {"type": "constant_ball", "radius": 0.9}),
    "b": ({"type": "constant_ball", "amplitude": 0.3}, BUMP),
    "direction": ([1, 0, 0], [0, 1, 0]),
}
PROBLEM = cli._CONFIG.keys["problem"].keys
TAGGED = {
    "coefficient": PROBLEM["nonlinearity"].variants["power"].keys["coefficient"],
    "nonlinearity": PROBLEM["nonlinearity"],
    "incident": PROBLEM["incident"],
}


def built(block, spec):
    """What the builder of block makes of spec, as a list of values and
    arrays, on a 10^3 grid of half-width 2."""
    grid = Grid(dim=3, half_width=2.0, points_per_axis=10)
    if block == "coefficient":
        return [cli._build_coefficient(grid, spec).values]
    if block == "incident":
        return [cli._build_incident(grid, 1.0, spec).values]
    f = cli._build_nonlinearity(grid, 3.0, spec)
    return [f.kind, f.p] + [c.values for c in (f.Q, f.a, f.b) if c is not None]


@pytest.mark.parametrize("block,variant,key", [
    (block, variant, key) for block, tagged in TAGGED.items()
    for variant, spec in tagged.variants.items() for key in spec.keys])
def test_every_admitted_key_has_a_reader(block, variant, key):
    # the config table and the builders must not drift apart: each key the
    # table admits for a variant changes what that variant's builder makes
    tagged = TAGGED[block]
    keys = tagged.variants[variant].keys
    spec = {tagged.tag: variant, **{k: KEY_VALUES[k][0] for k in keys}}
    cli._check(spec, tagged)
    changed = {**spec, key: KEY_VALUES[key][1]}
    cli._check(changed, tagged)
    before, after = built(block, spec), built(block, changed)
    assert len(before) == len(after)
    assert not all(np.array_equal(x, y) for x, y in zip(before, after))


class TestContinue:
    def test_branch_artifacts(self, tmp_path):
        cfg = base_config()
        cfg["continuation"] = {"lambda_max": 1.0}
        cp = write_config(tmp_path, cfg)
        out = tmp_path / "run"
        assert main(["continue", "--config", cp, "--out", str(out)]) == 0
        header, rows = read_csv(out / "branch.csv")
        assert header == ["lambda", "sup_norm", "residual", "iterations", "step"]
        assert float(rows[0][0]) == 0.0 and float(rows[0][1]) == 0.0
        assert float(rows[-1][0]) == pytest.approx(1.0, abs=1e-12)
        summ = json.loads((out / "branch_summary.json").read_text())
        assert summ["terminated_reason"] == "reached_lambda_max"
        assert summ["n_points"] == len(rows)
        fld, _ = load_field(out / "final_field.cfld")
        assert fld.sup_norm == pytest.approx(float(rows[-1][1]), rel=1e-9)

    def test_zero_coefficient_branch_is_linear(self, tmp_path):
        cfg = base_config(nonlinearity={"kind": "zero"})
        cfg["continuation"] = {"lambda_max": 2.0}
        cp = write_config(tmp_path, cfg)
        out = tmp_path / "run"
        assert main(["continue", "--config", cp, "--out", str(out)]) == 0
        _, rows = read_csv(out / "branch.csv")
        g = Grid(dim=3, half_width=2.0, points_per_axis=10)
        phi_sup = make_incident(IncidentWave.plane(1.0, (1.0, 0.0, 0.0)), g).sup_norm
        for row in rows[1:]:
            lam, sup = float(row[0]), float(row[1])
            assert sup == pytest.approx(lam * phi_sup, rel=1e-11)

    def test_missing_block_is_config_error(self, tmp_path):
        cp = write_config(tmp_path, base_config())
        assert main(["continue", "--config", cp,
                     "--out", str(tmp_path / "run")]) == 2

    def test_solve_budget_ends_the_branch(self, tmp_path):
        # two solves cannot reach lambda_max: the branch so far is written
        # and the run exits 3, incomplete, since every solve converged;
        # three points are too few for a blow-up fit
        cfg = base_config()
        cfg["continuation"] = {"lambda_max": 1.0, "max_solves": 2}
        cp = write_config(tmp_path, cfg)
        out = tmp_path / "run"
        assert main(["continue", "--config", cp, "--out", str(out)]) == 3
        man = json.loads((out / "manifest.json").read_text())
        assert man["status"] == "incomplete"
        assert sorted(man["outputs"]) == ["branch.csv", "branch_summary.json",
                                          "final_field.cfld"]
        _, rows = read_csv(out / "branch.csv")
        summ = json.loads((out / "branch_summary.json").read_text())
        assert summ["terminated_reason"] == "max_solves"
        assert summ["n_points"] == len(rows) == 3
        assert float(rows[-1][0]) == summ["last_lambda"] < 1.0
        assert summ["blowup"] == {
            "detected": False,
            "message": "blow-up fit needs 4 trailing converged points, "
                       "branch has 2"}


    @pytest.mark.parametrize("reason,status", [("step_floor", "incomplete"),
                                               ("blow_up", "divergence")])
    def test_branch_end_sets_the_manifest_status(self, tmp_path, reason, status):
        # both stop short of lambda_max with exit 3; only a branch whose
        # last failed solve diverged is a divergence
        if reason == "step_floor":
            cfg = base_config()
            cfg["solver"]["max_iters"] = 2
        else:
            cfg = base_config(nonlinearity={
                "kind": "power", "p": 4.0,
                "coefficient": {"type": "radial_bump", "amplitude": 80.0,
                                "width": 4.0, "cutoff": 0.8}})
            cfg["solver"] = {"divergence_cap": 1e4}
        cfg["continuation"] = {"lambda_max": 3.0, "floor_factor": 0.01}
        cp = write_config(tmp_path, cfg)
        out = tmp_path / "run"
        assert main(["continue", "--config", cp, "--out", str(out)]) == 3
        man = json.loads((out / "manifest.json").read_text())
        assert man["status"] == status
        summ = json.loads((out / "branch_summary.json").read_text())
        assert summ["terminated_reason"] == reason
        assert summ["last_lambda"] < 3.0


class TestKappaFarfield:
    def test_kappa_report(self, tmp_path):
        cp = write_config(tmp_path, base_config())
        out = tmp_path / "run"
        assert main(["kappa", "--config", cp, "--out", str(out)]) == 0
        est = json.loads((out / "kappa.json").read_text())
        assert est["kappa_hat"] > 0.0
        assert est["tau_alpha"] > 0.0
        assert est["grid"] == {"dim": 3, "L": 2.0, "M": 10}

    def test_non_finite_report_value_exits_1(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "estimate_kappa",
                            lambda *a: dataclasses.replace(
                                estimate_kappa(*a), kappa_hat=float("nan")))
        cp = write_config(tmp_path, base_config())
        out = tmp_path / "run"
        assert main(["kappa", "--config", cp, "--out", str(out)]) == 1
        man = json.loads((out / "manifest.json").read_text())
        assert man["status"] == "error"
        assert "not JSON compliant" in man["error"]
        assert man["error"].startswith("ValueError: kappa.json: kappa_hat is nan")
        assert os.listdir(out) == ["manifest.json"]

    def test_non_finite_nested_value_names_its_key_path(self, tmp_path):
        # at alpha = 1e5 the certificate's weighted norms overflow to inf,
        # silently: the report's own error is the one message
        cfg = certified_config()
        cfg["problem"]["alpha"] = 1e5
        cp = write_config(tmp_path, cfg)
        out = tmp_path / "run"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["solve", "--config", cp, "--out", str(out)]) == 1
        assert [str(w.message) for w in caught
                if issubclass(w.category, RuntimeWarning)] == []
        man = json.loads((out / "manifest.json").read_text())
        assert man["error"] == ("ValueError: solve_report.json: contraction_certificate."
                                "ell_estimate is inf, not JSON compliant")
        # the report fails before any file is written
        assert man["outputs"] == {}
        assert os.listdir(out) == ["manifest.json"]

    def test_farfield_tables(self, tmp_path, diagnostics):
        # the solve behind farfield is not diagnosed, even when certify is
        # set; farfield makes its own report at its own radii
        cp = write_config(tmp_path, certified_config())
        out = tmp_path / "run"
        assert main(["farfield", "--config", cp, "--out", str(out)]) == 0
        assert diagnostics == {"solver.radiation_report": 0,
                               "solver.contraction_certificate": 0,
                               "cli.radiation_report": 1}
        header, rows = read_csv(out / "radiation.csv")
        assert header == ["radius", "averaged_residual", "pointwise_residual"]
        assert len(rows) == 3
        header, rows = read_csv(out / "farfield.csv")
        assert header == ["d1", "d2", "d3", "re", "im", "abs"]
        assert len(rows) == 26
        for row in rows:
            d = np.array([float(v) for v in row[:3]])
            assert np.linalg.norm(d) == pytest.approx(1.0, abs=1e-12)


    @pytest.mark.parametrize("count", [6, 30, 50])
    def test_farfield_writes_the_directions_asked_for(self, tmp_path, count):
        # any count but 26 takes that many golden-spiral directions, one row
        # each
        cfg = base_config()
        cfg["farfield"] = {"directions": count}
        cp = write_config(tmp_path, cfg)
        out = tmp_path / "run"
        assert main(["farfield", "--config", cp, "--out", str(out)]) == 0
        header, rows = read_csv(out / "farfield.csv")
        assert header == ["d1", "d2", "d3", "re", "im", "abs"]
        values = np.array([[float(v) for v in row] for row in rows])
        assert values.shape == (count, 6)
        np.testing.assert_allclose(np.linalg.norm(values[:, :3], axis=1), 1.0,
                                   atol=1e-12)
        assert np.all(np.isfinite(values[:, 3:]))


class TestVerifyModes:
    def test_sturm_half_order(self, tmp_path):
        cfg = {"verify": {"nu": 0.5, "pairs": 5}}
        cp = write_config(tmp_path, cfg)
        out = tmp_path / "run"
        assert main(["verify", "sturm", "--config", cp, "--out", str(out)]) == 0
        res = json.loads((out / "verify_sturm.json").read_text())
        assert not res["breach"]
        assert all(abs(m) <= 1e-10 for m in res["margins"])

    def test_sturm_breach_follows_the_tolerance(self, tmp_path):
        # the schema's tolerance is > 0; at 1e-20 a half-order margin below
        # 0 by roundoff breaches
        cfg = {"verify": {"nu": 0.5, "pairs": 5, "tolerance": 1e-20}}
        cp = write_config(tmp_path, cfg)
        out = tmp_path / "run"
        code = main(["verify", "sturm", "--config", cp, "--out", str(out)])
        res = json.loads((out / "verify_sturm.json").read_text())
        assert res["breach"] == (res["min_margin"] < -1e-20)
        assert code == (4 if res["breach"] else 0)

    def test_sturm_order_two(self, tmp_path):
        cp = write_config(tmp_path, {"verify": {"nu": 2.0, "pairs": 5}})
        out = tmp_path / "run"
        assert main(["verify", "sturm", "--config", cp, "--out", str(out)]) == 0
        res = json.loads((out / "verify_sturm.json").read_text())
        assert not res["breach"]
        assert len(res["margins"]) == 5 and res["min_margin"] > 0.0

    def test_sturm_order_of_no_dim_is_config_error(self, tmp_path):
        cp = write_config(tmp_path, {"verify": {"nu": 2.5, "pairs": 5}})
        out = tmp_path / "run"
        assert main(["verify", "sturm", "--config", cp, "--out", str(out)]) == 2
        man = json.loads((out / "manifest.json").read_text())
        assert man["status"] == "config_error"
        assert man["error"] == ("order must be 0, 1/2, 1, 3/2 or 2, the orders "
                                "of dims 2 to 6; got 2.5")
        assert os.listdir(out) == ["manifest.json"]

    def test_sturm_out_of_reach_is_config_error(self, tmp_path):
        # 6000 zeros lie beyond the zero scan's range
        cp = write_config(tmp_path, {"verify": {"nu": 1.5, "pairs": 3000}})
        out = tmp_path / "run"
        assert main(["verify", "sturm", "--config", cp, "--out", str(out)]) == 2
        man = json.loads((out / "manifest.json").read_text())
        assert man["status"] == "config_error"
        assert "out of reach" in man["error"]

    def test_fourier_at_and_past_threshold(self, tmp_path):
        cfg = {"problem": {"dim": 3, "k": 1.0, "L": 2.0, "M": 10}}
        cp = write_config(tmp_path, cfg)
        out = tmp_path / "ok"
        assert main(["verify", "fourier", "--config", cp,
                     "--out", str(out)]) == 0
        res = json.loads((out / "verify_fourier.json").read_text())
        assert res["min_value"] >= -1e-8
        # reports round to 12 significant digits
        assert res["delta"] == pytest.approx(math.pi / 2.0, rel=1e-11)

        cfg["verify"] = {"delta": 1.5 * math.pi / 2.0}
        cp = write_config(tmp_path, cfg, "past.json")
        out = tmp_path / "past"
        assert main(["verify", "fourier", "--config", cp,
                     "--out", str(out)]) == 4
        res = json.loads((out / "verify_fourier.json").read_text())
        assert res["breach"]
        man = json.loads((out / "manifest.json").read_text())
        assert man["status"] == "verification_breach"

    @pytest.mark.parametrize("k, delta", [(1e-300, None), (1.0, 1e-300)])
    def test_fourier_out_of_float_range_is_config_error(self, tmp_path, k,
                                                        delta):
        # values of about 1e600 at k = 1e-300, and NaN on a ball of radius
        # 1e-300, where the kernel overflows: the schema admits both
        cfg = {"problem": {"dim": 3, "k": k, "L": 2.0, "M": 10}}
        if delta is not None:
            cfg["verify"] = {"delta": delta}
        cp = write_config(tmp_path, cfg)
        out = tmp_path / "run"
        assert main(["verify", "fourier", "--config", cp, "--out", str(out)]) == 2
        man = json.loads((out / "manifest.json").read_text())
        assert man["status"] == "config_error"
        assert "not finite" in man["error"]
        assert not (out / "verify_fourier.json").exists()

    def test_fourier_without_problem_is_config_error(self, tmp_path):
        cp = write_config(tmp_path, {"verify": {"tolerance": 1e-8}})
        out = tmp_path / "run"
        assert main(["verify", "fourier", "--config", cp, "--out", str(out)]) == 2
        man = json.loads((out / "manifest.json").read_text())
        assert man["status"] == "config_error"
        assert "'problem'" in man["error"]

    def test_defocusing_on_affine_is_config_error(self, tmp_path):
        cp = write_config(tmp_path, affine_config())
        out = tmp_path / "run"
        assert main(["verify", "defocusing", "--config", cp,
                     "--out", str(out)]) == 2
        man = json.loads((out / "manifest.json").read_text())
        assert man["status"] == "config_error"
        assert "power nonlinearity" in man["error"]

    def test_energy_on_solve(self, tmp_path, diagnostics):
        cp = write_config(tmp_path, certified_config())
        out = tmp_path / "run"
        assert main(["verify", "energy", "--config", cp,
                     "--out", str(out)]) == 0
        assert set(diagnostics.values()) == {0}
        res = json.loads((out / "verify_energy.json").read_text())
        assert not res["breach"]
        assert len(res["flux_imag"]) == 3

    def test_defocusing_pass_and_breach(self, tmp_path, diagnostics):
        cp = write_config(tmp_path, certified_config())
        out = tmp_path / "ok"
        assert main(["verify", "defocusing", "--config", cp,
                     "--out", str(out)]) == 0
        assert set(diagnostics.values()) == {0}
        res = json.loads((out / "verify_defocusing.json").read_text())
        assert [c["name"] for c in res["checks"]] == [
            "defocusing_first_bound", "weighted_mass_p_minus_1",
            "weighted_mass_p", "source_dual_norm", "support_diameter"]
        assert all(c["satisfied"] for c in res["checks"])

        # support wider than the admissible diameter trips the final check
        cfg = base_config()
        cfg["problem"]["nonlinearity"]["coefficient"]["cutoff"] = 0.9
        cp = write_config(tmp_path, cfg, "wide.json")
        out = tmp_path / "wide"
        assert main(["verify", "defocusing", "--config", cp,
                     "--out", str(out)]) == 4
        res = json.loads((out / "verify_defocusing.json").read_text())
        failing = [c["name"] for c in res["checks"] if not c["satisfied"]]
        assert failing == ["support_diameter"]

    def test_defocusing_on_padded_grid_reads_the_coefficient_grid(self, tmp_path):
        # a padded solve is restricted to the coefficient's grid, where it
        # agrees with the unpadded solve
        checks = []
        for pad in (0, 2):
            cp = write_config(tmp_path, base_config(pad_cells=pad), f"p{pad}.json")
            out = tmp_path / f"p{pad}"
            assert main(["verify", "defocusing", "--config", cp,
                         "--out", str(out)]) == 0
            checks.append(json.loads(
                (out / "verify_defocusing.json").read_text())["checks"])
        for plain, padded in zip(*checks):
            assert padded["name"] == plain["name"]
            assert padded["lhs"] == pytest.approx(plain["lhs"], rel=1e-9)
            assert padded["rhs"] == pytest.approx(plain["rhs"], rel=1e-9)


class TestConstants:
    def test_dim3_value(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["constants", "zN", "--dim", "3",
                     "--out", str(out)]) == 0
        printed = json.loads(capsys.readouterr().out)
        assert printed == {"dim": 3, "nu": 0.5, "z": 1.5707963267948966}
        stored = json.loads((out / "constants_zN.json").read_text())
        assert stored == printed

    def test_low_dim_rejected(self, tmp_path):
        assert main(["constants", "zN", "--dim", "2",
                     "--out", str(tmp_path / "run")]) == 2

    def test_out_of_reach_dim_is_config_error(self, tmp_path):
        # the threshold is defined for the dims whose order specfun evaluates
        out = tmp_path / "run"
        assert main(["constants", "zN", "--dim", "16000", "--out", str(out)]) == 2
        man = json.loads((out / "manifest.json").read_text())
        assert man["status"] == "config_error"
        assert man["error"] == "threshold defined for dims 3 to 6, got 16000"
        assert os.listdir(out) == ["manifest.json"]

    def test_dim5_value(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["constants", "zN", "--dim", "5", "--out", str(out)]) == 0
        printed = json.loads(capsys.readouterr().out)
        assert printed["nu"] == 1.5
        # Y_(3/2)(t) = -sqrt(2/(pi t)) (cos t / t + sin t) vanishes where
        # tan t = -1/t
        z = printed["z"]
        assert math.tan(z) == pytest.approx(-1.0 / z, rel=1e-12)
        assert 2.0 < z < 3.0

    def test_dim7_is_config_error(self, tmp_path):
        out = tmp_path / "run"
        assert main(["constants", "zN", "--dim", "7", "--out", str(out)]) == 2
        man = json.loads((out / "manifest.json").read_text())
        assert man["status"] == "config_error"
        assert man["error"] == "threshold defined for dims 3 to 6, got 7"


class TestEnvOverrides:
    def test_out_dir_from_env(self, tmp_path, monkeypatch, capsys):
        target = tmp_path / "envdir"
        monkeypatch.setenv("HELMSCAT_OUT", str(target))
        assert main(["constants", "zN", "--dim", "3"]) == 0
        capsys.readouterr()
        assert (target / "constants_zN.json").exists()
        assert (target / "manifest.json").exists()

    @pytest.mark.parametrize("via", ["flag", "env"])
    def test_out_naming_a_file_exits_2(self, tmp_path, monkeypatch, capsys, via):
        # no directory, so no manifest: the reason goes to stderr
        taken = tmp_path / "taken"
        taken.write_text("a regular file")
        argv = ["solve", "--config", write_config(tmp_path, base_config())]
        if via == "flag":
            argv += ["--out", str(taken)]
        else:
            monkeypatch.setenv("HELMSCAT_OUT", str(taken))
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("helmscat solve: cannot use output directory: ")
        assert str(taken) in err
        assert taken.read_text() == "a regular file"

    @pytest.mark.parametrize("flag,env", [
        ([], "abc"), (["--threads", "-5"], None), (["--threads", "0"], None),
        (["--threads", "1"], None)],
        ids=["env_abc", "flag_minus5", "flag_0", "flag_1"])
    def test_thread_settings_are_gone(self, tmp_path, monkeypatch, capsys,
                                      flag, env):
        # numpy.fft takes no worker count: any --threads is an unknown flag,
        # the environment variable is not read and the manifest has no threads
        if env is not None:
            monkeypatch.setenv("HELMSCAT_THREADS", env)
        cp = write_config(tmp_path, base_config())
        out = tmp_path / "run"
        argv = ["solve", "--config", cp, "--out", str(out), *flag]
        if flag:
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
            assert "--threads" in capsys.readouterr().err
            assert not (out / "manifest.json").exists()
            return
        assert main(argv) == 0
        man = json.loads((out / "manifest.json").read_text())
        assert man["status"] == "ok" and "threads" not in man

    def test_parser_is_built_once(self, tmp_path):
        # one process, two actions on the one cached parser: each manifest
        # names its own action, seed and outputs; only solve takes a seed
        assert _parser() is _parser()
        cp = write_config(tmp_path, base_config())
        runs = [(["solve", "--seed", "3"], "solve", 3, "solve_report.json"),
                (["verify", "fourier"], "verify fourier", None,
                 "verify_fourier.json")]
        for action, name, seed, report in runs:
            out = tmp_path / name.replace(" ", "_")
            assert main([*action, "--config", cp, "--out", str(out)]) == 0
            man = json.loads((out / "manifest.json").read_text())
            assert (man["action"], man["status"], man["seed"]) == (name, "ok", seed)
            assert report in man["outputs"]
        assert _parser() is _parser()

    @pytest.mark.parametrize("action", [
        ["continue"], ["kappa"], ["farfield"], ["verify", "fourier"],
        ["constants", "zN"]], ids=action_id)
    def test_seed_is_a_solve_flag(self, tmp_path, action, capsys):
        cp = write_config(tmp_path, base_config())
        with pytest.raises(SystemExit) as exc:
            main([*action, "--config", cp, "--out", str(tmp_path / "run"),
                  "--seed", "1"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --seed" in capsys.readouterr().err

    def test_animate_is_no_action(self, tmp_path, capsys):
        # a time frame is load_field's u times e^(-ikt), no CLI action
        cp = write_config(tmp_path, {"animate": {"field": "field.cfld",
                                                 "times": [0.0]}})
        out = tmp_path / "run"
        with pytest.raises(SystemExit) as exc:
            main(["animate", "--config", cp, "--out", str(out)])
        assert exc.value.code == 2
        assert "invalid choice: 'animate'" in capsys.readouterr().err
        assert not out.exists()

    def test_no_temp_files_left(self, tmp_path):
        cp = write_config(tmp_path, base_config())
        out = tmp_path / "run"
        assert main(["solve", "--config", cp, "--out", str(out)]) == 0
        leftovers = [n for n in os.listdir(out) if n.startswith(".tmp-")]
        assert leftovers == []
