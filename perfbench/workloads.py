"""The three benchmark workloads: inputs drawn from a seed, set-up, one timed
operation, and the checks of that operation's output.

Every workload draws its inputs from a finite set so that the reference
values stored in ``reference/<workload>.json`` (written by
``make_reference.py``) cover every input any seed can produce.  helmscat is
imported in ``load`` only, so that set-up time starts at the import; the
modules are kept on the workload and their functions are always looked up
through the module at call time, which is what lets the traced run wrap them.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass, field

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_DIR = os.path.join(HERE, "reference")

# Problem sizes.  "full" is what the benchmark measures; "tiny" keeps the
# same code paths at a size the smoke test can afford.
SIZES = {
    "solve-3d": {"full": {"M": 32}, "tiny": {"M": 10}},
    "branch-2d": {"full": {"M": 32}, "tiny": {"M": 12}},
    "certify-sweep": {"full": {"M": 32}, "tiny": {"M": 10}},
}

# The README defocusing bump Q = -0.8 exp(-4 r^2) 1[r <= 0.45] with p = 3.
BUMP = {"type": "radial_bump", "amplitude": -0.8, "width": 4.0, "cutoff": 0.45}
TOL = 1e-10

# Input sets the seed draws from.
_R2, _R3 = 1.0 / math.sqrt(2.0), 1.0 / math.sqrt(3.0)
DIRECTIONS_3D = tuple(
    [tuple(s if i == a else 0.0 for i in range(3))
     for a in range(3) for s in (1.0, -1.0)]
    + [tuple(sa * _R2 if i == a else sb * _R2 if i == b else 0.0 for i in range(3))
       for a in range(3) for b in range(a + 1, 3)
       for sa in (1.0, -1.0) for sb in (1.0, -1.0)]
    + [(sx * _R3, sy * _R3, sz * _R3)
       for sx in (1.0, -1.0) for sy in (1.0, -1.0) for sz in (1.0, -1.0)])
AMPLITUDES = (0.8, 0.9, 1.0, 1.1, 1.2)
ANGLES_2D = tuple(2.0 * math.pi * j / 24 for j in range(24))
WAVENUMBERS = tuple(round(0.5 + 0.05 * j, 2) for j in range(11))
CERTIFY_KS = 6          # more wavenumbers than the 4-entry kernel-table LRU
FOURIER_DIMS = (3, 4, 5, 6)
STURM_ORDER, STURM_PAIRS, STURM_TOL = 1.5, 20, 1e-9
ENERGY_FACTOR = 10.0

# Relative agreement required with the stored references.  Values that do
# not depend on the solved field are held tighter than values derived from
# a field that is only solved to TOL.
REF_RTOL_FIELD = 1e-8
REF_RTOL_DERIVED = 1e-6
REF_RTOL_EXACT = 1e-10


@dataclass
class Outcome:
    """Check result of one operation: failure units attempted and failed,
    whether every output value agreed with its reference, and why not."""

    attempted: int = 1
    failed: int = 0
    correct: bool = True
    notes: list = field(default_factory=list)
    extras: dict = field(default_factory=dict)

    def fail(self, note: str, wrong_value: bool = False):
        self.notes.append(note)
        if wrong_value:
            self.correct = False


def load_reference(name: str, size: str) -> dict:
    """Stored reference values by input key; empty when none are stored,
    which makes every reference check fail."""
    path = os.path.join(REFERENCE_DIR, f"{name}.json")
    if not os.path.exists(path):
        return {}
    with open(path) as fh:
        return json.load(fh)["sizes"].get(size, {})


def _close(value: float, ref: float, rtol: float) -> bool:
    return math.isfinite(value) and abs(value - ref) <= rtol * max(abs(ref), 1e-300)


class _Modules:
    """helmscat's modules, imported on demand."""

    def __init__(self):
        import numpy
        from helmscat import cli, continuation, fields, resolvent, solver, verify
        self.np = numpy
        self.cli, self.continuation, self.fields = cli, continuation, fields
        self.resolvent, self.solver, self.verify = resolvent, solver, verify


class Workload:
    name = ""
    unit = "operation"

    def __init__(self, seed: int, size: str = "full", workdir: str | None = None):
        self.size = size
        self.params = SIZES[self.name][size]
        self.rng = random.Random(f"{self.name}/{seed}")
        self.reference = load_reference(self.name, size)
        self.workdir = workdir
        self.hs = None
        self.setup_outcome = Outcome(attempted=0)

    def load(self):
        self.hs = _Modules()

    def build(self):
        raise NotImplementedError

    def prepare(self, i: int):
        """Untimed: the inputs of operation i."""
        raise NotImplementedError

    def run(self, inp):
        """Timed: one operation."""
        raise NotImplementedError

    def check(self, inp, out) -> Outcome:
        """Untimed: failure units and reference agreement of one output."""
        raise NotImplementedError

    def on_exception(self, inp, exc) -> Outcome:
        return Outcome(attempted=1, failed=1,
                       notes=[f"raised {type(exc).__name__}: {exc}"])

    def _bump_problem(self, dim, half_width, m, coefficient, p):
        """Grid, resolvent config, radial-bump coefficient and power law."""
        hs = self.hs
        grid = hs.fields.Grid(dim=dim, half_width=half_width, points_per_axis=m)
        rcfg = hs.resolvent.ResolventConfig.padded(grid, 0)
        r = grid.radius()
        c = coefficient
        vals = c["amplitude"] * hs.np.exp(-c["width"] * r ** 2) * (r <= c["cutoff"])
        Q = hs.fields.ComplexField(grid, vals.astype(complex))
        f = hs.fields.NonlinearitySpec.power(Q, p=p, alpha=0.5 * (dim + 3))
        return grid, rcfg, Q, f


class Solve3D(Workload):
    name = "solve-3d"
    unit = "solve"
    K, L, P = 1.0, 2.0, 3.0

    def build(self):
        _, rcfg, Q, _ = self._bump_problem(3, self.L, self.params["M"], BUMP, self.P)
        # the first apply is cold: it builds and caches the kernel table
        self.hs.resolvent.apply_resolvent(Q, rcfg, self.K)
        self.config_path = os.path.join(self.workdir, "solve.json")
        self.out_dir = os.path.join(self.workdir, "solve-out")
        os.makedirs(self.out_dir, exist_ok=True)

    @classmethod
    def config(cls, m, direction, amplitude) -> dict:
        return {
            "problem": {
                "dim": 3, "k": cls.K, "L": cls.L, "M": m,
                "nonlinearity": {"kind": "power", "p": cls.P, "coefficient": BUMP},
                "incident": {"type": "plane", "direction": list(direction),
                             "amplitude": amplitude},
            },
            "solver": {"tol": TOL},
        }

    def prepare(self, i):
        di = self.rng.randrange(len(DIRECTIONS_3D))
        ai = self.rng.randrange(len(AMPLITUDES))
        return self.make_input(di, ai)

    def make_input(self, di, ai):
        cfg = self.config(self.params["M"], DIRECTIONS_3D[di], AMPLITUDES[ai])
        with open(self.config_path, "w") as fh:
            json.dump(cfg, fh)
        return {"key": f"d{di}-a{ai}"}

    def run(self, inp):
        return self.hs.cli.main(["solve", "--config", self.config_path,
                                 "--out", self.out_dir, "--seed", "0"])

    def check(self, inp, code) -> Outcome:
        oc = Outcome()
        with open(os.path.join(self.out_dir, "manifest.json")) as fh:
            oc.extras["manifest_wall_s"] = json.load(fh)["wall_time_s"]
        if code != 0:
            oc.fail(f"exit code {code}")
        else:
            with open(os.path.join(self.out_dir, "solve_report.json")) as fh:
                rep = json.load(fh)
            if rep["status"] != "converged":
                oc.fail(f"status {rep['status']}")
            if rep["final_residual"] is None or not rep["final_residual"] <= TOL:
                oc.fail(f"final_residual {rep['final_residual']} > tol {TOL}")
            ref = self.reference.get(inp["key"])
            if ref is None:
                oc.fail(f"no reference for input {inp['key']}", wrong_value=True)
            elif not _close(rep["sup_norm"], ref["sup_norm"], REF_RTOL_FIELD):
                oc.fail(f"sup_norm {rep['sup_norm']!r} vs reference "
                        f"{ref['sup_norm']!r}", wrong_value=True)
        oc.failed = int(bool(oc.notes))
        return oc


class Branch2D(Workload):
    name = "branch-2d"
    unit = "accepted branch point"
    K, L, P = 1.0, 4.0, 3.0
    LAMBDA_MAX, FLOOR_FACTOR, MAX_ITERS = 10.0, 1e-2, 100
    FOCUSING = {"amplitude": 0.3, "width": 1.0, "cutoff": 3.5}

    def build(self):
        hs = self.hs
        _, self.rcfg, Q, self.f = self._bump_problem(
            2, self.L, self.params["M"], self.FOCUSING, self.P)
        hs.resolvent.apply_resolvent(Q, self.rcfg, self.K)  # cold apply
        self.scfg = hs.solver.SolverConfig(tol=TOL, max_iters=self.MAX_ITERS)
        self.stepcfg = hs.continuation.StepConfig(floor_factor=self.FLOOR_FACTOR)

    def prepare(self, i):
        return self.make_input(self.rng.randrange(len(ANGLES_2D)))

    def make_input(self, j):
        a = ANGLES_2D[j]
        wave = self.hs.fields.IncidentWave.plane(self.K, (math.cos(a), math.sin(a)))
        phi = self.hs.fields.make_incident(wave, self.rcfg.eval_grid)
        return {"key": f"t{j}", "phi": phi}

    def run(self, inp):
        fields_at = []
        branch = self.hs.continuation.continue_branch(
            self.f, inp["phi"], self.K, self.LAMBDA_MAX, self.scfg, self.rcfg,
            stepcfg=self.stepcfg,
            callback=lambda lam, u, rep: fields_at.append((lam, u)))
        probe = self.hs.continuation.blowup_probe(branch)
        return branch, probe, fields_at

    def residual(self, u, phi):
        """Undamped residual max|R_k N(u) + phi - u|, recomputed here."""
        hs = self.hs
        src = hs.fields.restrict_field(u, self.rcfg.source_grid)
        mapped = hs.resolvent.apply_resolvent(
            hs.fields.apply_nonlinearity(self.f, src), self.rcfg, self.K) + phi
        return float(hs.np.max(hs.np.abs(mapped.values - u.values)))

    def check(self, inp, out) -> Outcome:
        branch, probe, fields_at = out
        solved = [p for p in branch.points if p.lam > 0.0]
        oc = Outcome(attempted=max(len(solved), 1))
        if not solved:
            oc.failed = 1
            oc.fail("branch accepted no point", wrong_value=True)
            return oc
        ref = self.reference.get(inp["key"])
        if ref is None:
            oc.fail(f"no reference for input {inp['key']}", wrong_value=True)
            ref = {"points": [], "terminated_reason": branch.terminated_reason}
        if branch.terminated_reason != ref["terminated_reason"]:
            oc.fail(f"branch ended with {branch.terminated_reason!r}, reference "
                    f"{ref['terminated_reason']!r}", wrong_value=True)
        ref_points = {round(lam, 12): sup for lam, sup in ref["points"] if lam > 0.0}
        matched = 0
        captured = {lam: u for lam, u in fields_at if lam > 0.0}
        lams = [p.lam for p in branch.points]
        sups = [p.sup_norm for p in branch.points]
        if any(b <= a for a, b in zip(lams, lams[1:])):
            oc.fail("branch amplitudes not increasing", wrong_value=True)
        if not all(math.isfinite(s) for s in sups) or any(
                b < a for a, b in zip(sups, sups[1:])):
            oc.fail("focusing branch sup norms not finite and nondecreasing",
                    wrong_value=True)
        for p in solved:
            u = captured.get(p.lam)
            if u is None:
                oc.fail(f"no field captured at lambda {p.lam}", wrong_value=True)
                continue
            if not _close(u.sup_norm, p.sup_norm, REF_RTOL_EXACT):
                oc.fail(f"recorded sup norm {p.sup_norm!r} at lambda {p.lam} "
                        f"is not the field's {u.sup_norm!r}", wrong_value=True)
            res = self.residual(u, inp["phi"] * p.lam)
            if p.residual is None or not abs(res - p.residual) <= 1e-6 * res + 1e-15:
                oc.fail(f"recorded residual {p.residual!r} at lambda {p.lam} "
                        f"is not the recomputed {res!r}", wrong_value=True)
            ref_sup = ref_points.get(round(p.lam, 12))
            if ref_sup is not None:
                matched += 1
                if not _close(p.sup_norm, ref_sup, REF_RTOL_DERIVED):
                    oc.fail(f"sup norm {p.sup_norm!r} at lambda {p.lam} vs "
                            f"reference {ref_sup!r}", wrong_value=True)
            # the failure unit: a point accepted as converged above tol
            if p.residual is None or not p.residual <= TOL:
                oc.failed += 1
                oc.notes.append(f"lambda {p.lam}: accepted with residual "
                                f"{p.residual!r} > tol {TOL}")
        if matched < len(ref_points):
            oc.fail(f"{matched} of the reference's {len(ref_points)} branch "
                    "amplitudes reached", wrong_value=True)
        if probe.detected and not (probe.lambda_star is not None
                                   and math.isfinite(probe.lambda_star)
                                   and probe.lambda_star > lams[-1]):
            oc.fail(f"blow-up estimate lambda* {probe.lambda_star!r} not past "
                    f"the last point {lams[-1]}", wrong_value=True)
        return oc


class CertifySweep(Workload):
    name = "certify-sweep"
    unit = "certificate battery, and each set-up solve"
    L, P = 2.0, 3.0

    def build(self, ks=None):
        """Solve at CERTIFY_KS seed-drawn wavenumbers (or at the indices ks)."""
        hs = self.hs
        self.ks = ks if ks is not None else self.rng.sample(
            range(len(WAVENUMBERS)), CERTIFY_KS)
        _, self.rcfg, self.Q, self.f = self._bump_problem(
            3, self.L, self.params["M"], BUMP, self.P)
        self.dirs, _ = hs.fields.sphere_quadrature(3, 26)
        scfg = hs.solver.SolverConfig(tol=TOL)
        self.solutions = []
        for ki in self.ks:
            k = WAVENUMBERS[ki]
            wave = hs.fields.IncidentWave.plane(k, (1.0, 0.0, 0.0))
            phi = hs.fields.make_incident(wave, self.rcfg.eval_grid)
            u, rep = hs.solver.picard_solve(self.f, phi, k, scfg, self.rcfg)
            self.solutions.append((ki, k, u, phi))
            ref = self.reference.get(f"k{ki}", {"sup_norm": math.nan})
            self.setup_outcome.attempted += 1
            if not (rep.converged and rep.final_residual <= TOL):
                self.setup_outcome.failed += 1
                self.setup_outcome.fail(
                    f"set-up solve at k={k}: {rep.status}, residual "
                    f"{rep.final_residual!r}")
            if not _close(u.sup_norm, ref["sup_norm"], REF_RTOL_FIELD):
                self.setup_outcome.fail(
                    f"set-up sup norm at k={k}: {u.sup_norm!r} vs reference "
                    f"{ref['sup_norm']!r}", wrong_value=True)

    def prepare(self, i):
        ki, k, u, phi = self.solutions[i % len(self.solutions)]
        return {"key": f"k{ki}", "k": k, "u": u, "phi": phi}

    def run(self, inp):
        return battery(self.hs, self.f, self.Q, self.rcfg, self.dirs,
                       inp["k"], inp["u"], inp["phi"], self.L, self.P)

    def check(self, inp, out) -> Outcome:
        oc = Outcome()
        if not out["energy"].within(ENERGY_FACTOR):
            oc.fail(f"energy identity outside factor {ENERGY_FACTOR}")
        for res in out["fourier"]:
            if not res.nonnegative:
                oc.fail(f"Fourier transform dim {res.dim} min {res.min_value!r} "
                        f"below -{res.tolerance}")
        sturm_min = min(r.margin for r in out["sturm"])
        if sturm_min < -STURM_TOL:
            oc.fail(f"arch inequality margin {sturm_min!r} below -{STURM_TOL}")
        for c in out["defocusing"]:
            if not c.satisfied:
                oc.fail(f"defocusing check {c.name} breached, margin {c.margin!r}")

        got = summarize_battery(out)
        ref = self.reference.get(inp["key"])
        if ref is None:
            oc.fail(f"no reference for input {inp['key']}", wrong_value=True)
            oc.failed = 1
            return oc
        for key, rtol in (("kappa_hat", REF_RTOL_EXACT),
                          ("fourier_min", REF_RTOL_FIELD),
                          ("certificate_product", REF_RTOL_DERIVED),
                          ("radiation_averaged", REF_RTOL_DERIVED),
                          ("far_field_max_abs", REF_RTOL_DERIVED),
                          ("defocusing_margins", REF_RTOL_DERIVED)):
            vals = got[key] if isinstance(got[key], list) else [got[key]]
            refs = ref[key] if isinstance(ref[key], list) else [ref[key]]
            if len(vals) != len(refs) or not all(
                    _close(v, r, rtol) for v, r in zip(vals, refs)):
                oc.fail(f"{key} {vals!r} vs reference {refs!r}", wrong_value=True)
        if abs(got["sturm_min_margin"] - ref["sturm_min_margin"]) > 1e-12:
            oc.fail(f"sturm_min_margin {got['sturm_min_margin']!r} vs reference "
                    f"{ref['sturm_min_margin']!r}", wrong_value=True)
        oc.failed = int(bool(oc.notes))
        return oc


def battery(hs, f, Q, rcfg, dirs, k, u, phi, half_width, p):
    """The certificate battery for one solved wavenumber, through helmscat's
    public functions."""
    radii = (half_width / 4, half_width / 2, 3 * half_width / 4)
    kappa = hs.resolvent.estimate_kappa(f.alpha, rcfg, k)
    cap = 1.05 * max(u.sup_norm, phi.sup_norm)
    certificate = hs.solver.contraction_certificate(f, kappa, cap, seed=0)
    u_sc = u - phi
    return {
        "kappa": kappa,
        "certificate": certificate,
        "radiation": hs.resolvent.radiation_report(u_sc, k, radii),
        "far_field": hs.resolvent.far_field(u_sc, k, dirs, radii[-1]),
        "energy": hs.verify.energy_identity(u, k, Q=Q, p=p, radii=radii),
        "defocusing": hs.verify.defocusing_inequalities(u, phi, Q, p, k=k),
        "fourier": [hs.verify.fourier_positivity(d, k) for d in FOURIER_DIMS],
        "sturm": hs.verify.sturm_check(STURM_ORDER, STURM_PAIRS),
    }


def summarize_battery(out) -> dict:
    """The battery's numbers that the reference stores."""
    return {
        "kappa_hat": out["kappa"].kappa_hat,
        "certificate_product": out["certificate"]["product"],
        "radiation_averaged": list(out["radiation"].averaged_residual),
        "far_field_max_abs": float(max(abs(a) for a in out["far_field"].amplitude)),
        "fourier_min": [r.min_value for r in out["fourier"]],
        "sturm_min_margin": min(r.margin for r in out["sturm"]),
        "defocusing_margins": [c.margin for c in out["defocusing"]],
    }


WORKLOADS = {cls.name: cls for cls in (Solve3D, Branch2D, CertifySweep)}
