"""Command-line front end: config-driven runs with reproducible artifacts.

Every invocation executes one action and writes its artifacts plus a
``manifest.json`` into the output directory:

    solve      field.cfld, solve_report.json
    continue   branch.csv, branch_summary.json, final_field.cfld
    kappa      kappa.json
    farfield   field.cfld, radiation.csv, farfield.csv
    verify     verify_<mode>.json   (modes sturm, fourier, energy, defocusing)
    constants  constants_zN.json    (also printed to stdout)
    animate    frame_NNNN.csv per time, frames.json index

Configs are JSON with a ``problem`` block {dim, k, L, M, alpha, nonlinearity,
incident} and optional per-action blocks (``solver``, ``continuation``,
``verify``, ``farfield``, ``animate``).  The schema below rejects malformed
input before any numerics run.  Floats in JSON and CSV reports are rounded to
12 significant digits so identical config + seed reproduces byte-identical
reports; field binaries and the manifest (which records wall time) are exempt.

Every action takes ``--config``, ``--out`` and ``--threads``; ``--seed`` is a
``solve`` flag, the seed of the certificate's randomized Lipschitz search, and
the other actions reject it and record ``"seed": null``.  ``_ACTIONS`` and
``_VERIFY_MODES`` below are the one list of actions and of verify modes.

Exit codes: 0 success, 2 config error, 3 solver failed to converge or a
branch stopped short of lambda_max, 4 verification margin breach (for
``solve``, a failed bound check of a certified affine solve), 1 unexpected
error.  Config errors include a thread count that is not an integer >= 1
and a non-finite number (``NaN``, ``Infinity``, ``-Infinity`` or an
overflowing literal).  An output directory that cannot be made exits 2
with the reason on stderr and no manifest.  The manifest's status names
the outcome; exit 3 is "divergence" when the solver diverged (for
``continue``, a blow-up) and "incomplete" when it did not: a solve that ran
out of iterations, or a branch that ended on its step floor or its solve
budget.
"""

from __future__ import annotations

import argparse
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
import scipy.fft
from jsonschema import Draft202012Validator

from . import __version__
from .continuation import StepConfig, blowup_probe, continue_branch
from .fields import (
    ComplexField,
    Grid,
    IncidentWave,
    NonlinearitySpec,
    load_field,
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


_COEFFICIENT = {
    "type": "object",
    "properties": {
        "type": {"enum": ["zero", "radial_bump", "constant_ball"]},
        "amplitude": {"type": "number"},
        "width": {"type": "number", "exclusiveMinimum": 0},
        "cutoff": {"type": "number", "exclusiveMinimum": 0},
        "radius": {"type": "number", "exclusiveMinimum": 0},
    },
    "required": ["type"],
    "additionalProperties": False,
}

CONFIG_SCHEMA = {
    "type": "object",
    "properties": {
        "problem": {
            "type": "object",
            "properties": {
                "dim": {"type": "integer", "minimum": 2, "maximum": 6},
                "k": {"type": "number", "exclusiveMinimum": 0},
                "L": {"type": "number", "exclusiveMinimum": 0},
                "M": {"type": "integer", "minimum": 4},
                "alpha": {"type": "number"},
                "pad_cells": {"type": "integer", "minimum": 0},
                "nonlinearity": {
                    "type": "object",
                    "properties": {
                        "kind": {"enum": ["zero", "power", "affine"]},
                        "p": {"type": "number"},
                        "coefficient": _COEFFICIENT,
                        "a": _COEFFICIENT,
                        "b": _COEFFICIENT,
                    },
                    "required": ["kind"],
                    "additionalProperties": False,
                },
                "incident": {
                    "type": "object",
                    "properties": {
                        "type": {"enum": ["zero", "plane"]},
                        "direction": {"type": "array",
                                      "items": {"type": "number"}},
                        "amplitude": {"type": "number"},
                    },
                    "required": ["type"],
                    "additionalProperties": False,
                },
            },
            "required": ["dim", "k", "L", "M"],
            "additionalProperties": False,
        },
        "solver": {
            "type": "object",
            "properties": {
                "max_iters": {"type": "integer", "minimum": 1},
                "tol": {"type": "number", "exclusiveMinimum": 0},
                "damping": {"type": "number", "exclusiveMinimum": 0,
                            "maximum": 1},
                "divergence_cap": {"type": "number", "exclusiveMinimum": 0},
                "certify": {"type": "boolean"},
            },
            "additionalProperties": False,
        },
        "continuation": {
            "type": "object",
            "properties": {
                "lambda_max": {"type": "number", "exclusiveMinimum": 0},
                "initial_step": {"type": "number", "exclusiveMinimum": 0},
                "max_step": {"type": "number", "exclusiveMinimum": 0},
                "floor_factor": {"type": "number", "exclusiveMinimum": 0},
                "max_solves": {"type": "integer", "minimum": 1},
            },
            "required": ["lambda_max"],
            "additionalProperties": False,
        },
        "verify": {
            "type": "object",
            "properties": {
                "nu": {"type": "number"},
                "pairs": {"type": "integer", "minimum": 1},
                "delta": {"type": "number", "exclusiveMinimum": 0},
                "radii": {"type": "array",
                          "items": {"type": "number", "exclusiveMinimum": 0},
                          "minItems": 1},
                "factor": {"type": "number", "exclusiveMinimum": 0},
                "tolerance": {"type": "number", "exclusiveMinimum": 0},
            },
            "additionalProperties": False,
        },
        "farfield": {
            "type": "object",
            "properties": {
                "radii": {"type": "array",
                          "items": {"type": "number", "exclusiveMinimum": 0},
                          "minItems": 1},
                "directions": {"type": "integer", "minimum": 6},
            },
            "additionalProperties": False,
        },
        "animate": {
            "type": "object",
            "properties": {
                "field": {"type": "string"},
                "times": {"type": "array", "items": {"type": "number"},
                          "minItems": 1},
            },
            "required": ["field", "times"],
            "additionalProperties": False,
        },
    },
    "additionalProperties": False,
}

_VALIDATOR = Draft202012Validator(CONFIG_SCHEMA)


class ConfigError(Exception):
    pass


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


def _write_json(path: str, obj):
    _write_text(path, json.dumps(_jsonable(obj, os.path.basename(path)),
                                 indent=2, sort_keys=True) + "\n")


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
    errors = sorted(_VALIDATOR.iter_errors(cfg), key=lambda e: list(e.path))
    if errors:
        where = "/".join(str(p) for p in errors[0].path) or "<root>"
        raise ConfigError(f"config schema violation at {where}: "
                          f"{errors[0].message}")
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
        if "p" not in spec or "coefficient" not in spec:
            raise ConfigError("power nonlinearity needs 'p' and 'coefficient'")
        Q = _build_coefficient(grid, spec["coefficient"])
        return NonlinearitySpec.power(Q, p=float(spec["p"]), alpha=alpha)
    if "a" not in spec or "b" not in spec:
        raise ConfigError("affine nonlinearity needs 'a' and 'b'")
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
    except (TypeError, ValueError) as e:
        raise ConfigError(str(e)) from e


def _solve(cfg: dict):
    """Build the config's problem and solve it: (problem, field, report,
    manifest tolerances)."""
    prob = _build_problem(cfg)
    scfg = _solver_config(cfg)
    u, rep = picard_solve(prob.f, prob.phi, prob.k, scfg, prob.rcfg)
    return prob, u, rep, {"solver_tol": scfg.tol}


def _write_field(path: str, fld: ComplexField, k: float):
    _atomic_write(path, lambda tmp: save_field(tmp, fld, k=k))


# -- action runners -----------------------------------------------------------
# Each runner takes (cfg, args, out) and returns (manifest status, files
# written, manifest tolerances).

def _run_solve(cfg: dict, args, out: str):
    prob, u, rep, tolerances = _solve(cfg)
    rep = diagnose(prob.f, prob.phi, prob.k, prob.rcfg, u, rep,
                   certify=cfg.get("solver", {}).get("certify", False),
                   seed=args.seed)
    _write_field(os.path.join(out, "field.cfld"), u, prob.k)
    report = rep.as_dict()
    report["sup_norm"] = u.sup_norm
    report["field_file"] = "field.cfld"
    _write_json(os.path.join(out, "solve_report.json"), report)
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
    prob, u, rep, tolerances = _solve(cfg)
    if not rep.converged:
        return _short_of_goal(rep.status == "diverged"), [], tolerances
    ff_cfg = cfg.get("farfield", {})
    g = prob.rcfg.eval_grid
    u_sc = u - prob.phi
    default = default_radii(g.half_width)
    radii = tuple(ff_cfg.get("radii", default))
    n, nodes = ff_cfg.get("directions", 26), g.points_per_axis ** g.dim
    if n > nodes:  # the far field is interpolated from the eval grid's nodes
        raise ConfigError(f"farfield.directions {n} exceeds the eval grid's {nodes} points")
    dirs, _ = sphere_quadrature(g.dim, n)
    try:
        rad = radiation_report(u_sc, prob.k, radii)
    except ValueError as e:
        raise ConfigError(str(e)) from e
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
    margins = [r.margin for r in sturm_check(float(vc.get("nu", 0.5)),
                                             int(vc.get("pairs", 5)))]
    return ({"nu": vc.get("nu", 0.5), "tolerance": tol, "margins": margins,
             "min_margin": min(margins)},
            any(m < -tol for m in margins), {"margin_tol": tol})


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
        prob, u, rep, tolerances = _solve(cfg)
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


def reconstruct_time_field(field_path: str, times, out_dir: str) -> list[str]:
    """Time frames of the standing solution: psi(t, x) = e^{-ikt} u(x), k
    the wavenumber the field file records, written as one CSV slice per time
    (exact phase factor, no interpolation in t): coordinates, re, im, abs on
    the mid-plane normal to the last axis in 3D, on the whole field in 2D.
    A file that records no k (k = 0; the CLI never writes one) is
    rejected."""
    fld, k = load_field(field_path)
    if k <= 0.0:
        raise ValueError("field file carries no wavenumber")
    g = fld.grid
    ax = g.axis()
    names = []
    for i, t in enumerate(times):
        # reduce the phase so whole periods reproduce the t = 0 frame exactly
        theta = math.fmod(k * float(t), 2.0 * math.pi)
        psi = (fld * complex(np.exp(-1j * theta))).values
        plane = psi if g.dim == 2 else psi[:, :, g.points_per_axis // 2]
        name = f"frame_{i:04d}.csv"
        _write_csv(os.path.join(out_dir, name), ("x1", "x2", "re", "im", "abs"),
                   [(float(ax[a]), float(ax[b]), z.real, z.imag, abs(z))
                    for (a, b), z in np.ndenumerate(plane)])
        names.append(name)
    return names


def _run_animate(cfg: dict, args, out: str):
    if "animate" not in cfg:
        raise ConfigError("config needs an 'animate' block")
    ac = cfg["animate"]
    try:
        names = reconstruct_time_field(ac["field"], ac["times"], out)
    except (OSError, ValueError) as e:
        raise ConfigError(str(e)) from e
    _write_json(os.path.join(out, "frames.json"), {
        "source_field": ac["field"], "times": list(ac["times"]),
        "files": names,
    })
    return "ok", names + ["frames.json"], {}


# -- entry point --------------------------------------------------------------

# action -> (runner, its own arguments); every action also takes --config
# (optional for constants only), --out and --threads
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
    "animate": (_run_animate, {}),
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
        sp.add_argument("--threads", type=int, default=None,
                        help="FFT worker count (default $HELMSCAT_THREADS)")
    return p


def _resolve_out(args) -> str:
    out = args.out or os.environ.get("HELMSCAT_OUT") or "."
    os.makedirs(out, exist_ok=True)
    return out


def _resolve_threads(args) -> int | None:
    """FFT worker count from --threads, else $HELMSCAT_THREADS, else None."""
    raw = (os.environ.get("HELMSCAT_THREADS", "") if args.threads is None
           else args.threads)
    if raw == "":
        return None
    try:
        threads = int(raw)
        if threads < 1:
            raise ValueError
    except ValueError:
        raise ConfigError(
            f"thread count must be an integer >= 1, got {raw!r}") from None
    return threads


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

    cfg = threads = None
    inputs = {}
    status, error = "ok", None
    files, tolerances = [], {}
    try:
        threads = _resolve_threads(args)
        if args.config is not None:
            cfg = load_config(args.config)
            inputs[os.path.basename(args.config)] = _sha256(args.config)
        workers = (scipy.fft.set_workers(threads) if threads
                   else contextlib.nullcontext())
        with workers:
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
        "threads": threads,
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
