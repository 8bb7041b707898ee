"""Damped Picard iteration for the scattering fixed point

    u = R_k[ f(., u) ] + phi,

with contraction certificates and the linear a priori sup bound.

The iteration is u_{n+1} = (1 - theta) u_n + theta (R_k N_f(u_n) + phi),
started at phi (or a caller-supplied warm start).  The damping always
adapts: when an update increases the residual, theta is halved, down to
min(1/16, damping).  A sup norm beyond the divergence cap stops the run
with partial data, and so does an iterate whose map leaves float64, in the
loop or in the final residual: an overflow or invalid operation, or a
non-finite value the FFT produces without a floating-point flag.  Both end
with status "diverged", the last finite iterate returned and no final
residual.

f(x, u) vanishes off the index box of the coefficients' support for every
u, so the map is bound once per solve to that box: the eval-grid slice
that reads an iterate there, the BoxResolvent of the box and the values of
phi.  Each iteration then evaluates f on the box, applies the operator and
adds phi, all on arrays; the iterates are still checked as fields.  The
arithmetic per cell and the transforms are those of restricting u,
applying f on the whole source grid and calling apply_resolvent, so the
iterates are bit-identical to that route wherever f(., u) fills the box,
and agree to roundoff where it does not.

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
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if not 0.0 < self.damping <= 1.0:
            raise ValueError("damping must lie in (0, 1]")
        if self.tol <= 0.0 or self.divergence_cap <= 0.0:
            raise ValueError("tol and divergence_cap must be > 0")


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


def _bound_map(f: NonlinearitySpec, phi: ComplexField, k: float,
               rcfg: ResolventConfig):
    """The fixed-point map u -> R_k[f(., u)] + phi on eval-grid arrays,
    bound once: f(., u) vanishes off the coefficients' box, so the map
    reads u on that box, evaluates f there and applies the resolvent bound
    to the box."""
    op = BoxResolvent(rcfg, k, f.box)
    box, phi_values = op.in_eval, phi.values
    return lambda u: op(f.on_box(u[box])) + phi_values


def _image(fixed_point_map, u: np.ndarray) -> np.ndarray | None:
    """fixed_point_map(u), or None when the map leaves float64: an overflow
    or invalid operation that numpy flags, or a non-finite value that it
    does not (the FFT overflows silently)."""
    try:
        with np.errstate(over="raise", invalid="raise"):
            out = fixed_point_map(u)
    except FloatingPointError:
        return None
    return out if np.isfinite(out).all() else None


def picard_solve(f: NonlinearitySpec, phi: ComplexField, k: float,
                 cfg: SolverConfig, rcfg: ResolventConfig,
                 u0: ComplexField | None = None) -> tuple[ComplexField, SolveReport]:
    """Iterate the damped fixed-point map from phi (or u0)."""
    if phi.grid != rcfg.eval_grid:
        raise ValueError("incident field must live on the eval grid")
    if f.grid != rcfg.source_grid:
        raise ValueError("nonlinearity coefficients must live on the source grid")
    u = (u0 if u0 is not None else phi).copy()
    if u.grid != rcfg.eval_grid:
        raise ValueError("warm start must live on the eval grid")
    fixed_point_map = _bound_map(f, phi, k, rcfg)

    theta = cfg.damping
    history: list[float] = []
    status = "max_iters"
    prev_res = math.inf
    for _ in range(cfg.max_iters):
        mapped = _image(fixed_point_map, u.values)
        if mapped is None:
            # no field holds the next iterate
            status = "diverged"
            break
        cand = (1.0 - theta) * u.values + theta * mapped
        res = float(np.max(np.abs(cand - u.values)))
        while res > prev_res and theta > _DAMPING_FLOOR:
            theta = max(0.5 * theta, _DAMPING_FLOOR)
            cand = (1.0 - theta) * u.values + theta * mapped
            res = float(np.max(np.abs(cand - u.values)))
        u = ComplexField(u.grid, cand)
        history.append(res)
        prev_res = res
        if u.sup_norm > cfg.divergence_cap:
            status = "diverged"
            break
        if res <= cfg.tol:
            status = "converged"
            break

    final_residual = None
    if status != "diverged":
        mapped = _image(fixed_point_map, u.values)
        if mapped is None:
            status = "diverged"
        else:
            final_residual = float(np.max(np.abs(mapped - u.values)))
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
