"""Natural-parameter continuation in the incident amplitude.

The family of problems is u = R_k N_f(u) + lam * phi for lam in [0, lambda_max].
The branch starts at the exact solution (0, 0) whenever f(., 0) = 0 and marches
with an adaptive step: warm start u_prev + (dlam) phi, first step and every
later one capped at max_step, step doubled after two consecutive easy solves
(fewer than max_iters // 4 iterations), halved on failure, floor at
1e-4 * lambda_max.  Termination reasons:

    reached_lambda_max  the target amplitude was reached,
    blow_up             the step floor was hit and the last failure diverged,
    step_floor          the step floor was hit with a stagnating solver,
    max_solves          the solve budget (StepConfig.max_solves) ran out
                        short of lambda_max.

The branch keeps the final field only; a callback receives every accepted
field as the march goes.  Branch solves are plain picard_solve calls, so
their reports carry no radiation report and no certificate.

blowup_probe fits the trailing branch points to the blow-up model

    sup|u| ~ C (lambda* - lambda)^(-gamma)

by minimizing, over candidate lambda*, the residual of the linear regression
of log sup|u| on log(lambda* - lambda) over the last 8 branch points (at
least 4 are needed).  The probe reports the located lambda*, the exponent
gamma, and the fit residual; it detects a blow-up only for gamma > 0, where
sup|u| grows toward lambda*.  A branch that reached lambda_max reports no
blow-up instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fields import ComplexField, NonlinearitySpec
from .resolvent import ResolventConfig
from .solver import SolverConfig, picard_solve

__all__ = [
    "StepConfig",
    "BranchPoint",
    "Branch",
    "BlowupEstimate",
    "continue_branch",
    "blowup_probe",
]


_GROWTH = 2.0
_GROW_AFTER = 2


@dataclass(frozen=True)
class StepConfig:
    initial_step: float | None = None  # default lambda_max / 16
    max_step: float | None = None      # default lambda_max / 4
    floor_factor: float = 1e-4
    max_solves: int = 1000

    def __post_init__(self):
        if self.initial_step is not None and not self.initial_step > 0.0:
            raise ValueError("initial_step must be > 0")
        if self.max_step is not None and not self.max_step > 0.0:
            raise ValueError("max_step must be > 0")
        if self.max_solves < 1:
            raise ValueError("max_solves must be >= 1")
        if not 0.0 < self.floor_factor < 1.0:
            raise ValueError("floor_factor must lie in (0, 1)")


@dataclass(frozen=True)
class BranchPoint:
    lam: float
    sup_norm: float
    residual: float
    iterations: int = 0
    step: float = 0.0


@dataclass(frozen=True)
class Branch:
    points: tuple[BranchPoint, ...]
    lambda_max: float
    terminated_reason: str
    final_field: ComplexField


@dataclass(frozen=True)
class BlowupEstimate:
    detected: bool
    lambda_star: float | None
    gamma: float | None
    amplitude: float | None
    fit_rms: float | None
    points_used: int
    message: str


def continue_branch(f: NonlinearitySpec, phi: ComplexField, k: float,
                    lambda_max: float, scfg: SolverConfig, rcfg: ResolventConfig,
                    stepcfg: StepConfig = StepConfig(),
                    callback=None) -> Branch:
    """March the solution branch from lam = 0 to lambda_max or breakdown.

    callback(lam, u, report), when given, runs after every accepted point
    (and first at lam = 0 with the zero field and no report); it is how a
    caller keeps the fields along the branch.
    """
    if not 0.0 < lambda_max < math.inf:
        raise ValueError("lambda_max must be finite and > 0")
    if phi.grid != rcfg.eval_grid:
        raise ValueError("incident field must live on the eval grid")
    if f.kind != "power":
        raise ValueError("continuation requires the power kind, where f(., 0) = 0")

    zero = ComplexField.zeros(rcfg.eval_grid)
    max_step = stepcfg.max_step if stepcfg.max_step is not None else lambda_max / 4.0
    step = min(stepcfg.initial_step if stepcfg.initial_step is not None
               else lambda_max / 16.0, max_step)
    floor = stepcfg.floor_factor * lambda_max
    easy_iters = max(1, scfg.max_iters // 4)

    points = [BranchPoint(lam=0.0, sup_norm=0.0, residual=0.0)]
    u_prev = zero
    lam = 0.0
    easy = 0
    reason = None
    solves = 0
    if callback is not None:
        callback(0.0, zero, None)

    while lam < lambda_max * (1.0 - 1e-12):
        if solves >= stepcfg.max_solves:
            reason = "max_solves"
            break
        step = min(step, lambda_max - lam)
        trial = lam + step
        u0 = u_prev + phi * (trial - lam)
        u, rep = picard_solve(f, phi * trial, k, scfg, rcfg, u0=u0)
        solves += 1
        if rep.converged:
            points.append(BranchPoint(lam=trial, sup_norm=u.sup_norm,
                                      residual=rep.final_residual,
                                      iterations=rep.iterations, step=step))
            if callback is not None:
                callback(trial, u, rep)
            u_prev = u
            lam = trial
            easy = easy + 1 if rep.iterations < easy_iters else 0
            if easy >= _GROW_AFTER:
                step = min(step * _GROWTH, max_step)
                easy = 0
        else:
            easy = 0
            step *= 0.5
            if step < floor:
                reason = ("blow_up" if rep.status == "diverged"
                          else "step_floor")
                break
    if reason is None:
        reason = "reached_lambda_max"
    return Branch(points=tuple(points), lambda_max=lambda_max,
                  terminated_reason=reason, final_field=u_prev)


_BLOWUP_WINDOW = 8
_BLOWUP_MIN_POINTS = 4


def _fit_at(s: float, lams: np.ndarray, sups: np.ndarray):
    """Linear regression of log sup on log(s - lam); returns (ssr, gamma, logC)."""
    z = np.log(s - lams)
    y = np.log(sups)
    slope, intercept = np.polyfit(z, y, 1)
    ssr = float(np.sum((y - (slope * z + intercept)) ** 2))
    return ssr, -slope, intercept


def blowup_probe(branch: Branch) -> BlowupEstimate:
    """Locate lambda* and gamma from the trailing branch points."""
    if branch.terminated_reason == "reached_lambda_max":
        return BlowupEstimate(detected=False, lambda_star=None, gamma=None,
                              amplitude=None, fit_rms=None, points_used=0,
                              message="no blow-up detected: branch reached lambda_max")
    usable = [p for p in branch.points if p.lam > 0.0 and p.sup_norm > 0.0]
    if len(usable) < _BLOWUP_MIN_POINTS:
        raise ValueError(f"blow-up fit needs {_BLOWUP_MIN_POINTS} trailing converged "
                         f"points, branch has {len(usable)}")
    tail = usable[-_BLOWUP_WINDOW:]
    lams = np.array([p.lam for p in tail])
    sups = np.array([p.sup_norm for p in tail])
    lam_last = lams[-1]
    span = lam_last - lams[0]
    lo = lam_last + 1e-9 * max(lam_last, 1.0)
    hi = lam_last + 2.0 * span

    def objective(s):
        ssr, gamma, _ = _fit_at(s, lams, sups)
        if gamma <= 0.0:
            return ssr + 1e6
        return ssr

    # imported here: scipy.optimize costs a fresh process about 0.2 s, and
    # only a branch that stops short of lambda_max gets this far
    from scipy.optimize import minimize_scalar

    res = minimize_scalar(objective, bounds=(lo, hi), method="bounded",
                          options={"xatol": 1e-12 * max(hi, 1.0)})
    star = float(res.x)
    ssr, gamma, logc = _fit_at(star, lams, sups)
    rms = math.sqrt(ssr / len(tail))
    detected = bool(gamma > 0.0)
    fit = f"lambda* = {star:.6g}, gamma = {gamma:.3g}"
    message = (f"blow-up fit at {fit}" if detected else
               f"no blow-up detected: sup|u| does not grow (best fit {fit})")
    return BlowupEstimate(detected=detected, lambda_star=star, gamma=float(gamma),
                          amplitude=float(np.exp(logc)), fit_rms=rms,
                          points_used=len(tail), message=message)
