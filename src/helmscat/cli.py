"""Command-line front end: config-driven runs with reproducible artifacts.

Every invocation executes one action and writes its artifacts plus a
``manifest.json`` into the output directory:

    solve      field.cfld, solve_report.json
    continue   branch.csv, branch_summary.json, final_field.cfld
    kappa      kappa.json
    farfield   field.cfld, radiation.csv, farfield.csv
    verify     verify_<mode>.json   (modes sturm, fourier, energy, defocusing)
    constants  constants_zN.json    (also printed to stdout)

Configs are JSON with a ``problem`` block {dim, k, L, M, alpha, nonlinearity,
incident} and optional per-action blocks (``solver``, ``continuation``,
``verify``, ``farfield``).  The table ``_CONFIG`` below admits exactly the
keys that each block and each variant of a tagged block reads; it rejects
any other config before any numerics run.  Floats in JSON and CSV
reports are rounded to 12 significant digits so identical config + seed
reproduces byte-identical reports; field binaries and the manifest (which
records wall time) are exempt.

Every action takes ``--config`` and ``--out``; ``--seed`` is a ``solve``
flag, the seed of the certificate's randomized Lipschitz search, and the
other actions reject it and record ``"seed": null``.  ``_ACTIONS`` and
``_VERIFY_MODES`` below are the one list of actions and of verify modes.

Exit codes: 0 success, 2 config error, 3 solver failed to converge or a
branch stopped short of lambda_max, 4 verification margin breach (for
``solve``, a failed bound check of a certified affine solve), 1 unexpected
error.  Config errors include a non-finite number (``NaN``, ``Infinity``,
``-Infinity`` or an overflowing literal).  An output directory that cannot
be made exits 2 with the reason on stderr and no manifest.  The manifest's
status names the outcome; exit 3 is "divergence" when the solver diverged
(for ``continue``, a blow-up) and "incomplete" when it did not: a solve
that ran out of iterations, or a branch that ended on its step floor or its
solve budget.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import csv
import dataclasses
import functools
import hashlib
import json
import math
import os
import sys
import tempfile
import time

import numpy as np

from . import __version__
from .continuation import StepConfig, blowup_probe, continue_branch
from .fields import (
    ComplexField,
    Grid,
    IncidentWave,
    NonlinearitySpec,
    checked_radii,
    make_incident,
    save_field,
    sphere_quadrature,
)
from .resolvent import (
    ResolventConfig,
    default_radii,
    estimate_kappa,
    far_field,
    radiation_report,
)
from .solver import SolverConfig, diagnose, picard_solve
from .verify import (
    defocusing_inequalities,
    energy_identity,
    fourier_positivity,
    sturm_check,
    truncation_threshold,
)

# manifest status -> exit code.  A run that stops short of its goal exits 3
# with the status _short_of_goal gives it
_EXIT_CODES = {"ok": 0, "error": 1, "config_error": 2, "divergence": 3,
               "incomplete": 3, "verification_breach": 4}


def _short_of_goal(diverged: bool) -> str:
    """Manifest status of a run that stopped short of its goal: "divergence"
    when the solver diverged (for a branch, a blow-up), "incomplete" when it
    did not (a solve out of iterations, a branch on its step floor or out of
    its solve budget)."""
    return "divergence" if diverged else "incomplete"


class ConfigError(Exception):
    pass


# -- config table -------------------------------------------------------------
# A _Leaf is a value's type and range, as a test and as the text of its
# error's "must be ..."; a _Block holds the keys an object admits and those it
# requires; a _Tagged object has one _Block per value of its tag key.
_Leaf = collections.namedtuple("_Leaf", "what admits")
_Block = collections.namedtuple("_Block", "keys required", defaults=((),))
_Tagged = collections.namedtuple("_Tagged", "tag variants")


def _number(above: float = -math.inf) -> _Leaf:
    """A JSON number > above that a float holds; bool, an int subclass, is
    none."""
    what = "a number" if above == -math.inf else f"a number > {above:g}"
    return _Leaf(what, lambda v: isinstance(v, (int, float)) and not isinstance(
        v, bool) and above < v and abs(v) <= sys.float_info.max)


def _integer(least: int, most: float = math.inf) -> _Leaf:
    """A JSON integer in [least, most]: not 12.0, and not a bool."""
    what = (f"an integer >= {least}" if most == math.inf
            else f"an integer in [{least}, {most}]")
    return _Leaf(what, lambda v: isinstance(v, int) and not isinstance(v, bool)
                 and least <= v <= most)


def _list_of(item: _Leaf) -> _Leaf:
    """A non-empty JSON array of item's values."""
    return _Leaf(f"a non-empty list, each {item.what}", lambda v: isinstance(
        v, list) and v != [] and all(map(item.admits, v)))


_COEFFICIENT = _Tagged("type", {
    "zero": _Block({}),
    "radial_bump": _Block({"amplitude": _number(), "width": _number(0),
                           "cutoff": _number(0)}),
    "constant_ball": _Block({"amplitude": _number(), "radius": _number(0)}),
})

_CONFIG = _Block({
    "problem": _Block({
        "dim": _integer(2, 6), "k": _number(0), "L": _number(0),
        "M": _integer(4), "alpha": _number(), "pad_cells": _integer(0),
        "nonlinearity": _Tagged("kind", {
            "zero": _Block({}),
            "power": _Block({"p": _number(), "coefficient": _COEFFICIENT},
                            required=("p", "coefficient")),
            "affine": _Block({"a": _COEFFICIENT, "b": _COEFFICIENT},
                             required=("a", "b")),
        }),
        "incident": _Tagged("type", {
            "zero": _Block({}),
            "plane": _Block({"direction": _list_of(_number()),
                             "amplitude": _number()}),
        }),
    }, required=("dim", "k", "L", "M")),
    "solver": _Block({
        "max_iters": _integer(1), "tol": _number(0), "divergence_cap": _number(0),
        "certify": _Leaf("a boolean", lambda v: isinstance(v, bool)),
    }),
    "continuation": _Block({
        "lambda_max": _number(0), "initial_step": _number(0),
        "max_step": _number(0), "floor_factor": _number(0),
        "max_solves": _integer(1),
    }, required=("lambda_max",)),
    "verify": _Block({
        "nu": _number(), "pairs": _integer(1), "delta": _number(0),
        "radii": _list_of(_number(0)), "factor": _number(0),
        "tolerance": _number(0),
    }),
    "farfield": _Block({"radii": _list_of(_number(0)),
                        "directions": _integer(6)}),
})


def _violation(path: tuple, message: str):
    raise ConfigError(f"config schema violation at {'/'.join(path) or '<root>'}: "
                      f"{message}")


def _check(value, spec, path: tuple = ()) -> None:
    """Raise ConfigError at the first place where the parsed JSON value
    breaks spec, an entry of the config table."""
    if isinstance(spec, _Leaf):
        if not spec.admits(value):
            _violation(path, f"must be {spec.what}, got {json.dumps(value)}")
        return
    if not isinstance(value, dict):
        _violation(path, f"must be an object, got {json.dumps(value)}")
    tag = owner = None
    if isinstance(spec, _Tagged):
        tag, variant = spec.tag, value.get(spec.tag)
        if not (isinstance(variant, str) and variant in spec.variants):
            _violation(path + (tag,), f"must be one of {', '.join(spec.variants)}"
                                      f", got {json.dumps(variant)}")
        spec, owner = spec.variants[variant], f"{tag} {variant}"
    for key, item in value.items():
        if key == tag:
            continue
        if key not in spec.keys:
            _violation(path + (key,), "unexpected key; "
                       f"{owner or '/'.join(path) or 'the config'} takes "
                       f"{', '.join(spec.keys) or 'no other key'}")
        _check(item, spec.keys[key], path + (key,))
    for key in spec.required:
        if key not in value:
            _violation(path + (key,), "is required")


# -- serialization helpers ----------------------------------------------------

def _round_sig(x: float, digits: int = 12) -> float:
    return float(f"{x:.{digits}g}")


def _jsonable(obj, name: str, path=()):
    """obj with numpy scalars as Python ones and floats rounded; a non-finite
    float raises ValueError naming the file and the key path to it."""
    if isinstance(obj, dict):
        return {str(k): _jsonable(v, name, path + (k,)) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v, name, path + (i,)) for i, v in enumerate(obj)]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        if not math.isfinite(obj):
            raise ValueError(f"{name}: {'.'.join(map(str, path))} is {float(obj)}, "
                             "not JSON compliant")
        return _round_sig(float(obj))
    return obj


def _atomic_write(path: str, writer):
    """Write through a temp file in the target directory, then rename."""
    d = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-")
    os.close(fd)
    try:
        writer(tmp)
        os.replace(tmp, path)
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)


def _write_text(path: str, text: str):
    def writer(tmp):
        with open(tmp, "w") as fh:
            fh.write(text)
    _atomic_write(path, writer)


def _json_text(name: str, obj) -> str:
    """The text of JSON file `name` holding obj."""
    return json.dumps(_jsonable(obj, name), indent=2, sort_keys=True) + "\n"


def _write_json(path: str, obj):
    _write_text(path, _json_text(os.path.basename(path), obj))


def _write_csv(path: str, header, rows):
    def writer(tmp):
        with open(tmp, "w", newline="") as fh:
            wr = csv.writer(fh)
            wr.writerow(header)
            for row in rows:
                wr.writerow([f"{v:.12g}" if isinstance(v, float) else v
                             for v in row])
    _atomic_write(path, writer)


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


# -- config -> problem objects ------------------------------------------------

def _finite_number(text: str) -> float:
    """A JSON number or constant as a float; a non-finite one is a config
    error."""
    x = float(text)
    if not math.isfinite(x):
        raise ConfigError(f"config holds a non-finite number: {text}")
    return x


def load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh, parse_float=_finite_number,
                            parse_constant=_finite_number)
    except OSError as e:
        raise ConfigError(f"cannot read config: {e}") from e
    except json.JSONDecodeError as e:
        raise ConfigError(f"config is not valid JSON: {e}") from e
    _check(cfg, _CONFIG)
    return cfg


def _build_coefficient(grid: Grid, spec: dict) -> ComplexField:
    kind = spec["type"]
    if kind == "zero":
        return ComplexField.zeros(grid)
    r = grid.radius()
    amp = float(spec.get("amplitude", 1.0))
    if kind == "radial_bump":
        width = float(spec.get("width", 4.0))
        cutoff = float(spec.get("cutoff", 0.5 * grid.half_width))
        vals = amp * np.exp(-width * r ** 2) * (r <= cutoff)
    else:  # constant_ball
        radius = float(spec.get("radius", 0.5 * grid.half_width))
        vals = amp * (r <= radius).astype(float)
    return ComplexField(grid, vals.astype(complex))


def _build_nonlinearity(grid: Grid, alpha: float, spec: dict | None) -> NonlinearitySpec:
    spec = spec or {"kind": "zero"}
    kind = spec["kind"]
    if kind == "zero":
        # inert power law so continuation stays available
        return NonlinearitySpec.power(ComplexField.zeros(grid), p=3.0,
                                      alpha=alpha)
    if kind == "power":
        Q = _build_coefficient(grid, spec["coefficient"])
        return NonlinearitySpec.power(Q, p=float(spec["p"]), alpha=alpha)
    return NonlinearitySpec.affine(_build_coefficient(grid, spec["a"]),
                                   _build_coefficient(grid, spec["b"]),
                                   alpha=alpha)


def _build_incident(grid: Grid, k: float, spec: dict | None) -> ComplexField:
    spec = spec or {"type": "plane"}
    if spec["type"] == "zero":
        return ComplexField.zeros(grid)
    direction = spec.get("direction", [1.0] + [0.0] * (grid.dim - 1))
    phi = make_incident(IncidentWave.plane(k, direction), grid)
    return phi * float(spec.get("amplitude", 1.0))


@dataclasses.dataclass(frozen=True)
class _Problem:
    k: float
    rcfg: ResolventConfig
    f: NonlinearitySpec
    phi: ComplexField


def _build_problem(cfg: dict) -> _Problem:
    if "problem" not in cfg:
        raise ConfigError("config needs a 'problem' block for this action")
    pr = cfg["problem"]
    try:
        grid = Grid(dim=pr["dim"], half_width=float(pr["L"]),
                    points_per_axis=pr["M"])
        rcfg = ResolventConfig.padded(grid, pad_cells=pr.get("pad_cells", 0))
        # the default lies strictly above the (dim+1)/2 admissibility floor
        alpha = float(pr.get("alpha", 0.5 * (grid.dim + 3)))
        f = _build_nonlinearity(grid, alpha, pr.get("nonlinearity"))
        phi = _build_incident(rcfg.eval_grid, float(pr["k"]),
                              pr.get("incident"))
    except ValueError as e:
        raise ConfigError(str(e)) from e
    return _Problem(k=float(pr["k"]), rcfg=rcfg, f=f, phi=phi)


def _solver_config(cfg: dict) -> SolverConfig:
    """The solver block without ``certify``, which only ``solve`` reads."""
    block = {k: v for k, v in cfg.get("solver", {}).items() if k != "certify"}
    try:
        return SolverConfig(**block)
    except ValueError as e:
        raise ConfigError(str(e)) from e


def _solve(cfg: dict, prob: _Problem):
    """Solve the config's problem: (field, report, manifest tolerances)."""
    scfg = _solver_config(cfg)
    u, rep = picard_solve(prob.f, prob.phi, prob.k, scfg, prob.rcfg)
    return u, rep, {"solver_tol": scfg.tol}


def _write_field(path: str, fld: ComplexField, k: float):
    _atomic_write(path, lambda tmp: save_field(tmp, fld, k=k))


# -- action runners -----------------------------------------------------------
# Each runner takes (cfg, args, out) and returns (manifest status, files
# written, manifest tolerances).

def _run_solve(cfg: dict, args, out: str):
    prob = _build_problem(cfg)
    u, rep, tolerances = _solve(cfg, prob)
    rep = diagnose(prob.f, prob.phi, prob.k, prob.rcfg, u, rep,
                   certify=cfg.get("solver", {}).get("certify", False),
                   seed=args.seed)
    report = rep.as_dict()
    report["sup_norm"] = u.sup_norm
    report["field_file"] = "field.cfld"
    # built before any write, so a report that fails leaves no field file
    text = _json_text("solve_report.json", report)
    _write_field(os.path.join(out, "field.cfld"), u, prob.k)
    _write_text(os.path.join(out, "solve_report.json"), text)
    status = "ok" if rep.converged else _short_of_goal(rep.status == "diverged")
    # bound checks come with converged solves only
    if not all(c.satisfied for c in rep.bound_checks):
        status = "verification_breach"
    return status, ["field.cfld", "solve_report.json"], tolerances


def _run_continue(cfg: dict, args, out: str):
    if "continuation" not in cfg:
        raise ConfigError("config needs a 'continuation' block")
    cc = dict(cfg["continuation"])
    lam_max = float(cc.pop("lambda_max"))
    prob = _build_problem(cfg)
    scfg = _solver_config(cfg)
    try:
        stepcfg = StepConfig(**cc)
        branch = continue_branch(prob.f, prob.phi, prob.k, lam_max, scfg,
                                 prob.rcfg, stepcfg=stepcfg)
    except ValueError as e:
        raise ConfigError(str(e)) from e
    rows = [(p.lam, p.sup_norm, p.residual, p.iterations, p.step)
            for p in branch.points]
    _write_csv(os.path.join(out, "branch.csv"),
               ("lambda", "sup_norm", "residual", "iterations", "step"), rows)
    summary = {
        "lambda_max": branch.lambda_max,
        "terminated_reason": branch.terminated_reason,
        "n_points": len(branch.points),
        "last_lambda": branch.points[-1].lam,
        "last_sup_norm": branch.points[-1].sup_norm,
    }
    if branch.terminated_reason != "reached_lambda_max":
        try:
            summary["blowup"] = dataclasses.asdict(blowup_probe(branch))
        except ValueError as e:
            summary["blowup"] = {"detected": False, "message": str(e)}
    _write_field(os.path.join(out, "final_field.cfld"), branch.final_field,
                 prob.k)
    summary["final_field_file"] = "final_field.cfld"
    _write_json(os.path.join(out, "branch_summary.json"), summary)
    status = ("ok" if branch.terminated_reason == "reached_lambda_max"
              else _short_of_goal(branch.terminated_reason == "blow_up"))
    return (status, ["branch.csv", "branch_summary.json", "final_field.cfld"],
            {"solver_tol": scfg.tol})


def _run_kappa(cfg: dict, args, out: str):
    prob = _build_problem(cfg)
    est = estimate_kappa(prob.f.alpha, prob.rcfg, prob.k)
    _write_json(os.path.join(out, "kappa.json"), {
        "alpha": est.alpha,
        "tau_alpha": est.tau_alpha,
        "kappa_hat": est.kappa_hat,
        "truncation_tail_bound": est.truncation_tail_bound,
        "grid": {"dim": est.grid.dim, "L": est.grid.half_width,
                 "M": est.grid.points_per_axis},
    })
    return "ok", ["kappa.json"], {}


def _run_farfield(cfg: dict, args, out: str):
    prob = _build_problem(cfg)
    ff_cfg = cfg.get("farfield", {})
    g = prob.rcfg.eval_grid
    default = default_radii(g.half_width)
    n, nodes = ff_cfg.get("directions", 26), g.points_per_axis ** g.dim
    if n > nodes:  # the far field is interpolated from the eval grid's nodes
        raise ConfigError(f"farfield.directions {n} exceeds the eval grid's {nodes} points")
    try:
        radii = checked_radii(ff_cfg.get("radii", default), g.half_width)
    except ValueError as e:
        raise ConfigError(str(e)) from e
    dirs, _ = sphere_quadrature(g.dim, n)
    u, rep, tolerances = _solve(cfg, prob)
    if not rep.converged:
        return _short_of_goal(rep.status == "diverged"), [], tolerances
    u_sc = u - prob.phi
    rad = radiation_report(u_sc, prob.k, radii)
    amplitude = far_field(u_sc, prob.k, dirs, default[-1]).amplitude
    _write_csv(os.path.join(out, "radiation.csv"),
               ("radius", "averaged_residual", "pointwise_residual"),
               list(zip(rad.radii, rad.averaged_residual,
                        rad.pointwise_residual)))
    header = tuple(f"d{i + 1}" for i in range(g.dim)) + ("re", "im", "abs")
    rows = [tuple(float(c) for c in d) + (float(a.real), float(a.imag),
                                          float(abs(a)))
            for d, a in zip(dirs, amplitude)]
    _write_csv(os.path.join(out, "farfield.csv"), header, rows)
    _write_field(os.path.join(out, "field.cfld"), u, prob.k)
    return "ok", ["field.cfld", "radiation.csv", "farfield.csv"], tolerances


# -- verify modes -------------------------------------------------------------
# Each mode takes (cfg, verify block, problem, solution) and returns (report,
# breach, manifest tolerances); problem and solution are None for the modes
# that do not solve.

def _verify_sturm(cfg: dict, vc: dict, prob, u):
    tol = float(vc.get("tolerance", 1e-9))
    checks = sturm_check(float(vc.get("nu", 0.5)), vc.get("pairs", 5), tol)
    margins = [c.margin for c in checks]
    return ({"nu": vc.get("nu", 0.5), "tolerance": tol, "margins": margins,
             "min_margin": min(margins)},
            not all(c.satisfied for c in checks), {"margin_tol": tol})


def _verify_fourier(cfg: dict, vc: dict, prob, u):
    if "problem" not in cfg:
        raise ConfigError("verify fourier draws dim and k from 'problem'")
    pr = cfg["problem"]
    tol = float(vc.get("tolerance", 1e-8))
    res = fourier_positivity(pr["dim"], k=float(pr["k"]),
                             delta=vc.get("delta"), tolerance=tol)
    return ({"dim": res.dim, "k": res.k, "delta": res.delta,
             "threshold_delta": truncation_threshold(res.dim) / res.k,
             "min_value": res.min_value, "tolerance": res.tolerance},
            not res.nonnegative, {"value_tol": tol})


def _verify_energy(cfg: dict, vc: dict, prob, u):
    radii = tuple(vc.get("radii", default_radii(prob.rcfg.eval_grid.half_width)))
    factor = float(vc.get("factor", 10.0))
    res = energy_identity(u, prob.k, Q=prob.f.Q, p=prob.f.p, radii=radii)
    return ({"radii": res.radii, "flux_imag": res.flux_imag,
             "quad_tol": res.quad_tol, "factor": factor,
             "context": res.context},
            not res.within(factor), {"factor": factor})


def _verify_defocusing(cfg: dict, vc: dict, prob, u):
    if prob.f.kind != "power":
        raise ConfigError("verify defocusing needs a power nonlinearity")
    tol = float(vc.get("tolerance", 1e-10))
    checks = defocusing_inequalities(u, prob.phi, prob.f.Q, prob.f.p,
                                     k=prob.k, tolerance=tol)
    return ({"tolerance": tol,
             "checks": [{"name": c.name, "lhs": c.lhs, "rhs": c.rhs,
                         "margin": c.margin, "satisfied": c.satisfied}
                        for c in checks]},
            not all(c.satisfied for c in checks), {"margin_tol": tol})


# mode -> (check, whether it checks a solve of the config's problem)
_VERIFY_MODES = {
    "sturm": (_verify_sturm, False),
    "fourier": (_verify_fourier, False),
    "energy": (_verify_energy, True),
    "defocusing": (_verify_defocusing, True),
}


def _run_verify(cfg: dict, args, out: str):
    check, solves = _VERIFY_MODES[args.mode]
    prob = u = None
    if solves:
        prob = _build_problem(cfg)
        u, rep, tolerances = _solve(cfg, prob)
        if not rep.converged:
            return _short_of_goal(rep.status == "diverged"), [], tolerances
    try:
        report, breach, tolerances = check(cfg, cfg.get("verify", {}), prob, u)
    except ValueError as e:
        raise ConfigError(str(e)) from e
    name = f"verify_{args.mode}.json"
    _write_json(os.path.join(out, name),
                {**report, "mode": args.mode, "breach": breach})
    return ("verification_breach" if breach else "ok"), [name], tolerances


def _run_constants(cfg: dict | None, args, out: str):
    try:
        z = truncation_threshold(args.dim)
    except ValueError as e:
        raise ConfigError(str(e)) from e
    payload = {"dim": args.dim, "nu": (args.dim - 2) / 2.0, "z": z}
    # full precision here: the value is a mathematical constant, not a report
    text = json.dumps(payload, sort_keys=True)
    print(text)
    _write_text(os.path.join(out, "constants_zN.json"), text + "\n")
    return "ok", ["constants_zN.json"], {}


# -- entry point --------------------------------------------------------------

# action -> (runner, its own arguments); every action also takes --config
# (optional for constants only) and --out
_ACTIONS = {
    "solve": (_run_solve, {"--seed": {
        "type": int, "default": 0,
        "help": "seed of the certificate's randomized Lipschitz search"}}),
    "continue": (_run_continue, {}),
    "kappa": (_run_kappa, {}),
    "farfield": (_run_farfield, {}),
    "verify": (_run_verify, {"mode": {"choices": tuple(_VERIFY_MODES)}}),
    "constants": (_run_constants, {"what": {"choices": ("zN",)},
                                   "--dim": {"type": int, "default": 3}}),
}


@functools.lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process."""
    p = argparse.ArgumentParser(
        prog="helmscat",
        description="Nonlinear Helmholtz scattering: solve, continue, verify.")
    sub = p.add_subparsers(dest="action", required=True)
    for name, (_, own) in _ACTIONS.items():
        sp = sub.add_parser(name)
        for flag, kwargs in own.items():
            sp.add_argument(flag, **kwargs)
        sp.add_argument("--config", required=name != "constants",
                        help="JSON config file")
        sp.add_argument("--out", default=None,
                        help="output directory (default $HELMSCAT_OUT or .)")
    return p


def _resolve_out(args) -> str:
    out = args.out or os.environ.get("HELMSCAT_OUT") or "."
    os.makedirs(out, exist_ok=True)
    return out


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        out = _resolve_out(args)
    except OSError as e:
        # no directory, so no manifest: the reason goes to stderr alone
        print(f"helmscat {args.action}: cannot use output directory: {e}",
              file=sys.stderr)
        return _EXIT_CODES["config_error"]
    t0 = time.perf_counter()

    cfg = None
    inputs = {}
    status, error = "ok", None
    files, tolerances = [], {}
    try:
        if args.config is not None:
            cfg = load_config(args.config)
            inputs[os.path.basename(args.config)] = _sha256(args.config)
        status, files, tolerances = _ACTIONS[args.action][0](cfg, args, out)
    except ConfigError as e:
        status, error = "config_error", str(e)
    except Exception as e:  # noqa: BLE001 - everything lands in the manifest
        status, error = "error", f"{type(e).__name__}: {e}"

    manifest = {
        "action": " ".join(filter(None, (args.action,
                                         getattr(args, "mode", None)))),
        "version": __version__,
        "seed": getattr(args, "seed", None),
        "status": status,
        "error": error,
        "wall_time_s": round(time.perf_counter() - t0, 6),
        "config": cfg,
        "tolerances": tolerances,
        "inputs": inputs,
        "outputs": {name: _sha256(os.path.join(out, name)) for name in files},
    }
    _write_json(os.path.join(out, "manifest.json"), manifest)
    if error is not None:
        print(f"helmscat {args.action}: {error}", file=sys.stderr)
    return _EXIT_CODES[status]


if __name__ == "__main__":
    sys.exit(main())
