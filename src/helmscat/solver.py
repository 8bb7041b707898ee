"""Damped Picard iteration for the scattering fixed point

    u = R_k[ f(., u) ] + phi,

with contraction certificates and the linear a priori sup bound.

The iteration is u_{n+1} = (1 - theta) u_n + theta (R_k N_f(u_n) + phi),
started at phi (or a caller-supplied warm start u0).  The damping always
adapts: when an update increases the damped step, theta is halved, down to
min(1/16, damping).  A sup norm beyond the divergence cap stops the run
with partial data, and so does a value that leaves float64.  The solve
runs in one errstate scope in which an overflow or invalid operation gives
inf or NaN unflagged, as the FFT does anyway, and the maxima the solve
takes read them: the damped step on the box (a non-finite step ends the
run before the iterate changes), the stop test's step on the grid, the
field's sup norm and the final residual.  Each ends with status
"diverged", the last finite iterate returned (the start, should that
iterate leave float64 off the box) and no final residual.

f(x, u) vanishes off the index box of the coefficients' support for every
u, so an iterate is fixed by its values v on that box, and the eval grid
is a read-out.  Each solve binds two BoxResolvents to the box, one onto
the box and one onto the eval grid.  An iteration evaluates f on the box
and applies the box-to-box operator, at the circulant size of the box
(11^3 for the README bump at M = 32, against 40^3 onto the grid).  Beside
v it carries, on the box, the damped source s <- (1 - theta) s +
theta f(v) and a scalar c <- (1 - theta) c, so that the eval-grid iterate
is

    u = c u0 + (1 - c) phi + R_k s,

one apply onto the grid (phi + R_k f(v_prev) for damping 1 without a warm
start).  theta, the divergence cap and the finiteness check read the box.
The damped step on the box is never larger than on the grid, so when it
reaches tol the stop test reads the whole step once on the eval grid,

    max |u_N - u_(N-1)| = max |R_k (s_N - s_(N-1)) + (c_N - c_(N-1)) (u0 - phi)|,

records it in place of the box's step, and stops "converged" when it is at
most tol; otherwise the iteration goes on.  The run thus stops where the
whole-grid loop (tests/oracles.py) stops, and a converged solve makes
three applies onto the grid: this test, the field and the final residual,
max |R_k N_f(u) + phi - u|.  The field is checked against the cap and for
finiteness too.  converged still means that the damped step, not the
undamped residual, is at most tol.  The residual history records the
damped step on the box, which equals the grid's wherever that step peaks
on the box; a warm start whose difference from phi fills the grid (a
continuation's rescaled incident) can peak off it while theta < 1.

The contraction certificate multiplies the kappa estimate by the sampled
Lipschitz estimate of the nonlinearity on a ball of radius cap; a product
below 1 indicates (but does not certify) a contractive map.

For the affine nonlinearity f(x, u) = a(x) u + b(x) with
kappa_hat ||a||_alpha < 1 the solution obeys

    ||u||_inf <= (kappa_hat ||b||_alpha + ||phi||_inf) / (1 - kappa_hat ||a||_alpha),

checked by linear_bound_check.  On matching grids the kappa estimate is the
exact norm bound of the truncated discrete operator, so the margin is
nonnegative up to roundoff.

picard_solve only solves: its report holds the iteration record and the
final residual.  diagnose tests a solution and attaches the results to that
report (a diverged report comes back unchanged): the radiation report of
u - phi and, for a certified solve, the contraction certificate and, when
an affine solve converged, the a priori bound with the certificate's kappa
estimate.  A void bound (kappa_hat ||a||_alpha >= 1) adds no check, and a
run that does not converge gets none, since the bound holds for solutions,
not iterates.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace

import numpy as np

from .fields import (
    BoundCheck,
    ComplexField,
    NonlinearitySpec,
    apply_nonlinearity,
    estimate_lipschitz,
    restrict_field,
    weighted_norm,
)
from .resolvent import (
    BoxResolvent,
    KappaEstimate,
    RadiationReport,
    ResolventConfig,
    apply_resolvent,
    default_radii,
    estimate_kappa,
    radiation_report,
)

__all__ = [
    "SolverConfig",
    "SolveReport",
    "picard_solve",
    "diagnose",
    "contraction_certificate",
    "linear_bound_check",
    # picard_solve no longer calls these three, but the benchmark's tracer
    # (perfbench/tracing.py) wraps them where this module binds them
    "apply_nonlinearity",
    "apply_resolvent",
    "restrict_field",
]

_DAMPING_FLOOR = 1.0 / 16.0


@dataclass(frozen=True)
class SolverConfig:
    max_iters: int = 200
    tol: float = 1e-10
    damping: float = 1.0
    divergence_cap: float = 1e6

    def __post_init__(self):
        if not (isinstance(self.max_iters, (int, np.integer)) and self.max_iters >= 1):
            raise ValueError("max_iters must be an integer >= 1")
        if not 0.0 < self.damping <= 1.0:
            raise ValueError("damping must lie in (0, 1]")
        if not (0.0 < self.tol < math.inf and self.divergence_cap > 0.0):
            raise ValueError("tol must be finite and > 0, and divergence_cap > 0")


@dataclass(frozen=True)
class SolveReport:
    converged: bool
    status: str  # "converged" | "max_iters" | "diverged"
    iterations: int
    residual_history: tuple[float, ...]
    final_residual: float | None
    damping_used: float
    contraction_certificate: dict | None = None
    bound_checks: tuple[BoundCheck, ...] = ()
    radiation: RadiationReport | None = None

    def as_dict(self) -> dict:
        """The report as plain data, without the diagnostics it lacks."""
        out = asdict(self)
        for name in ("contraction_certificate", "bound_checks", "radiation"):
            if not out[name]:
                del out[name]
        return out


def picard_solve(f: NonlinearitySpec, phi: ComplexField, k: float,
                 cfg: SolverConfig, rcfg: ResolventConfig,
                 u0: ComplexField | None = None) -> tuple[ComplexField, SolveReport]:
    """Iterate the damped fixed-point map from phi (or u0) on the
    coefficients' box, and build the eval-grid iterate where a stop test or
    the result needs it."""
    if phi.grid != rcfg.eval_grid:
        raise ValueError("incident field must live on the eval grid")
    if f.grid != rcfg.source_grid:
        raise ValueError("nonlinearity coefficients must live on the source grid")
    start = (u0 if u0 is not None else phi).copy()
    if start.grid != rcfg.eval_grid:
        raise ValueError("warm start must live on the eval grid")
    onto_box = BoxResolvent(rcfg, k, f.box, dest="box")
    onto_grid = BoxResolvent(rcfg, k, f.box)
    box = onto_grid.in_eval
    phi_box = phi.values[box]
    # u0 - phi, the part of the start that the source s does not carry
    lift = None if u0 is None else start.values - phi.values

    def on_grid(src, scale):
        """R src + scale (u0 - phi) on the eval grid."""
        out = onto_grid(src)
        return out if lift is None or scale == 0.0 else out + scale * lift

    # the iterate is u = c u0 + (1 - c) phi + R s, with v = u on the box
    v = start.values[box]
    s = np.zeros_like(v)
    c = 1.0
    theta = cfg.damping
    history: list[float] = []
    status = "max_iters"
    prev_res = math.inf
    # a value that leaves float64 is caught by the maximum that reads it
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(cfg.max_iters):
            fv = f.on_box(v)
            mapped = onto_box(fv)
            mapped += phi_box
            cand = (1.0 - theta) * v
            cand += theta * mapped
            res = float(np.abs(cand - v).max(initial=0.0))
            if not math.isfinite(res):
                # no field holds the next iterate
                status = "diverged"
                break
            while res > prev_res and theta > _DAMPING_FLOOR:
                theta = max(0.5 * theta, _DAMPING_FLOOR)
                cand = (1.0 - theta) * v
                cand += theta * mapped
                res = float(np.abs(cand - v).max(initial=0.0))
            # the stop test below, and only it, reads s_N - s_(N-1)
            s_prev, c_prev = (s.copy() if res <= cfg.tol else None), c
            s *= 1.0 - theta
            fv *= theta
            s += fv
            c *= 1.0 - theta
            v = cand
            history.append(res)
            prev_res = res
            if not float(np.abs(v).max(initial=0.0)) <= cfg.divergence_cap:
                status = "diverged"
                break
            if res <= cfg.tol:
                # the step on the box is no larger than on the grid: the stop
                # test reads the whole step u_N - u_(N-1) on the eval grid
                step = float(np.max(np.abs(on_grid(s - s_prev, c - c_prev))))
                if not math.isfinite(step):
                    status = "diverged"
                    break
                history[-1] = prev_res = step
                if step <= cfg.tol:
                    status = "converged"
                    break

        values = on_grid(s, c) + phi.values
        sup = float(np.max(np.abs(values)))
        # the start stands in for a last iterate that leaves float64 off the box
        u = ComplexField(start.grid, values) if math.isfinite(sup) else start
        if not (math.isfinite(sup) and sup <= cfg.divergence_cap):
            status = "diverged"
        final_residual = None
        if status != "diverged":
            mapped = onto_grid(f.on_box(u.values[box])) + phi.values
            final_residual = float(np.max(np.abs(mapped - u.values)))
            if not math.isfinite(final_residual):
                status, final_residual = "diverged", None
    report = SolveReport(
        converged=(status == "converged"),
        status=status,
        iterations=len(history),
        residual_history=tuple(history),
        final_residual=final_residual,
        damping_used=theta,
    )
    return u, report


def diagnose(f: NonlinearitySpec, phi: ComplexField, k: float,
             rcfg: ResolventConfig, u: ComplexField, report: SolveReport,
             certify: bool = False, seed: int = 0) -> SolveReport:
    """report with the checks of the solution u attached; a diverged report
    comes back as it is."""
    if report.status == "diverged":
        return report
    radiation = radiation_report(u - phi, k, default_radii(rcfg.eval_grid.half_width))
    if not certify:
        return replace(report, radiation=radiation)
    kappa = estimate_kappa(f.alpha, rcfg, k)
    cap = 1.05 * max(u.sup_norm, phi.sup_norm, 1e-12)
    certificate = contraction_certificate(f, kappa, cap, seed=seed)
    bound_checks = ()
    if f.kind == "affine" and report.converged:
        try:
            bound_checks = (linear_bound_check(f, phi, u, kappa),)
        except ValueError:
            pass  # kappa_hat ||a||_alpha >= 1: void, not breached
    return replace(report, radiation=radiation,
                   contraction_certificate=certificate, bound_checks=bound_checks)


def contraction_certificate(f: NonlinearitySpec, kappa: KappaEstimate,
                            cap: float, seed: int = 0) -> dict:
    """kappa_hat times the sampled Lipschitz estimate on |u| <= cap."""
    ell = estimate_lipschitz(f, cap, seed=seed)
    product = kappa.kappa_hat * ell
    return {
        "kappa_hat": kappa.kappa_hat,
        "ell_estimate": ell,
        "product": product,
        "cap": cap,
        "alpha": f.alpha,
        "certified": bool(product < 1.0),
    }


def linear_bound_check(f: NonlinearitySpec, phi: ComplexField, u: ComplexField,
                       kappa: KappaEstimate) -> BoundCheck:
    """A priori sup bound for the affine problem; margin = bound - ||u||."""
    if f.kind != "affine":
        raise ValueError("linear bound applies to the affine kind")
    if kappa.alpha != f.alpha:
        raise ValueError("kappa estimate was taken at a different alpha")
    qn = weighted_norm(f.a, f.alpha)
    bn = weighted_norm(f.b, f.alpha)
    small = kappa.kappa_hat * qn
    if small >= 1.0:
        raise ValueError(f"kappa_hat * ||a||_alpha = {small:.3f} >= 1; bound void")
    rhs = (kappa.kappa_hat * bn + phi.sup_norm) / (1.0 - small)
    lhs = u.sup_norm
    margin = rhs - lhs
    return BoundCheck(
        name="linear_sup_bound", lhs=lhs, rhs=rhs, margin=margin,
        satisfied=bool(margin >= 0.0),
        context={"kappa_hat": kappa.kappa_hat, "coef_norm": qn,
                 "offset_norm": bn, "smallness": small},
    )
