"""Acceptance gate: one test per release criterion, each printing a PASS/FAIL
line (bypassing capture) so a suite run yields a readable scorecard.

Criteria cover the full chain: special functions, resolvent discretization,
radiation discrimination, contraction, oracle equivalence, arch inequality,
Fourier positivity, boundary flux, the defocusing bound chain along a
continuation branch, the affine a priori bound, and the trivial branch law.
"""

import math

import numpy as np
import pytest

from oracles import (
    cyl_derivative,
    discrete_laplacian,
    newton_fixed_point,
    resolvent_matrix,
)
from helmscat.continuation import continue_branch
from helmscat.fields import (
    ComplexField,
    Grid,
    IncidentWave,
    NonlinearitySpec,
    make_incident,
    support_diameter,
    weighted_norm,
)
from helmscat.resolvent import (
    ResolventConfig,
    apply_resolvent,
    estimate_kappa,
    radiation_report,
)
from helmscat.solver import SolverConfig, diagnose, linear_bound_check, picard_solve
from helmscat.specfun import (
    bessel_j,
    bessel_y,
    first_y_zero,
    fundamental_solution,
)
from helmscat.verify import (
    defocusing_inequalities,
    energy_identity,
    fourier_positivity,
    sturm_check,
    truncation_threshold,
)


@pytest.fixture(name="report")
def _report_fixture(capfd):
    """Prints one scorecard line per criterion past pytest's capture."""
    def report(num: int, name: str, ok: bool, detail: str = ""):
        tag = "PASS" if ok else "FAIL"
        extra = f"  ({detail})" if detail else ""
        with capfd.disabled():
            print(f"acceptance {num:02d} {name}: {tag}{extra}", flush=True)
    return report


def _gaussian_source(grid, sigma=0.5, cutoff=2.0):
    r = grid.radius()
    v = np.exp(-((r / sigma) ** 2))
    v[r >= cutoff] = 0.0
    return ComplexField(grid, v.astype(complex))


def _bump(grid, amplitude, width=4.0, cutoff=0.45):
    r = grid.radius()
    v = amplitude * np.exp(-width * r ** 2) * (r <= cutoff)
    return ComplexField(grid, v.astype(complex))


def _plane(grid, k=1.0):
    return make_incident(IncidentWave.plane(k, (1.0,) + (0.0,) * (grid.dim - 1)),
                         grid)


def test_01_fundamental_solution_fidelity(report):
    r = np.geomspace(1e-3, 100.0, 2000)
    worst = 0.0
    for k in (0.5, 1.0, 2.0):
        got = fundamental_solution(k, r, 3)
        exact = np.exp(1j * k * r) / (4.0 * np.pi * r)
        worst = max(worst, float(np.max(np.abs(got - exact) / np.abs(exact))))
    ok = worst <= 1e-10
    report(1, "fundamental solution fidelity", ok, f"max rel err {worst:.2e}")
    assert ok


def test_02_resolvent_pde_residual(report):
    k = 1.0
    norms = []
    for m in (33, 65):
        g = Grid(dim=3, half_width=3.0, points_per_axis=m)
        cfg = ResolventConfig.padded(g, 0)
        h = _gaussian_source(g)
        u = apply_resolvent(h, cfg, k)
        lap = discrete_laplacian(u.values, g.spacing)
        core = (slice(2, -2),) * 3
        resid = -lap[core] - k * k * u.values[core] - h.values[core]
        norms.append(float(np.max(np.abs(resid))))
    ratio = norms[0] / norms[1]
    ok = ratio >= 3.0
    report(2, "resolvent PDE residual refinement", ok,
            f"shrink factor {ratio:.2f} (2nd-order target 4)")
    assert ok


def test_03_radiation_discrimination(report):
    k, L = 2.0, 3.0
    g = Grid(dim=3, half_width=L, points_per_axis=32)
    vals = fundamental_solution(k, g.radius(), 3)
    radii = (L / 4, L / 2, 3 * L / 4)
    rep_out = radiation_report(ComplexField(g, vals), k, radii)
    rep_in = radiation_report(ComplexField(g, np.conj(vals)), k, radii)
    a = np.array(rep_out.averaged_residual)
    separation = rep_in.averaged_residual[-1] / rep_out.averaged_residual[-1]
    ok = bool(np.all(np.diff(a) < 0.0)) and separation >= 10.0
    report(3, "radiation discrimination", ok,
            f"outgoing decreasing, incoming/outgoing {separation:.1f}x")
    assert ok


def test_04_contraction_behavior(report):
    g = Grid(dim=3, half_width=2.0, points_per_axis=8)
    rcfg = ResolventConfig.padded(g, 0)
    f = NonlinearitySpec.power(_bump(g, -0.2, width=2.0, cutoff=1.5), p=3.0,
                               alpha=3.0)
    phi = _plane(g)
    u, rep = picard_solve(f, phi, 1.0, SolverConfig(tol=1e-10), rcfg)
    rep = diagnose(f, phi, 1.0, rcfg, u, rep, certify=True)
    cert = rep.contraction_certificate
    hist = rep.residual_history
    ratios = [hist[i + 1] / hist[i] for i in range(2, len(hist) - 1)
              if hist[i] > 1e-14 * max(1.0, u.sup_norm)]
    ok = (rep.converged and cert["product"] <= 0.5
          and all(r <= 0.55 for r in ratios)
          and rep.final_residual <= 1e-10)
    report(4, "contraction behavior", ok,
            f"kappa*ell {cert['product']:.3f}, max ratio "
            f"{max(ratios):.3f}, residual {rep.final_residual:.1e}")
    assert ok


def test_05_oracle_equivalence(report):
    g = Grid(dim=3, half_width=2.0, points_per_axis=8)
    rcfg = ResolventConfig.padded(g, 0)
    Q = _bump(g, -0.5, width=2.0, cutoff=1.5)
    f = NonlinearitySpec.power(Q, p=3.0, alpha=3.0)
    phi = _plane(g)
    u, rep = picard_solve(f, phi, 1.0, SolverConfig(tol=1e-13), rcfg)
    K = resolvent_matrix(rcfg, 1.0)
    ref = newton_fixed_point(K, phi.values.ravel(), Q.values.real.ravel(), 3.0)
    diff = float(np.max(np.abs(u.values.ravel() - ref)))
    ok = rep.converged and diff <= 1e-8
    report(5, "Picard vs Newton oracle equivalence", ok,
            f"sup difference {diff:.2e}")
    assert ok


def test_06_special_function_anchors(report):
    err_zero = abs(first_y_zero(0.5) - math.pi / 2.0)
    thresholds = [truncation_threshold(n) for n in range(3, 7)]
    increasing = all(a < b for a, b in zip(thresholds, thresholds[1:]))
    rng = np.random.default_rng(11)
    t = rng.uniform(0.1, 100.0, size=1000)
    worst_w = 0.0
    for nu in (0.5, 1.0, 2.0):
        j, y = bessel_j(nu, t), bessel_y(nu, t)
        jp = cyl_derivative(bessel_j, nu, t)
        yp = cyl_derivative(bessel_y, nu, t)
        worst_w = max(worst_w, float(np.max(np.abs(
            j * yp - jp * y - 2.0 / (np.pi * t)))))
    ok = err_zero <= 1e-12 and increasing and worst_w <= 1e-10
    report(6, "special function anchors", ok,
            f"first zero err {err_zero:.1e}, thresholds increasing to dim 6, "
            f"Wronskian err {worst_w:.1e}")
    assert ok


def test_07_sturm_arch_inequality(report):
    eq_dev = max(max(abs(r.rhs - 2.0 * math.sqrt(2.0 / math.pi)),
                     abs(r.margin)) for r in sturm_check(0.5, 20))
    min_margin = min(r.margin for nu in (1.0, 1.5, 2.0)
                     for r in sturm_check(nu, 20))
    ok = eq_dev <= 1e-10 and min_margin > 0.0
    report(7, "arch area inequality", ok,
            f"half-order deviation {eq_dev:.1e}, "
            f"min strict margin {min_margin:.1e}")
    assert ok


def test_08_fourier_positivity(report):
    k = 1.0
    mins = []
    for dim in (3, 4, 5, 6):
        res = fourier_positivity(dim, k=k,
                                 delta=truncation_threshold(dim) / k)
        mins.append(res.min_value)
    ok = all(m >= -1e-8 for m in mins)
    report(8, "Fourier positivity at threshold", ok,
            f"min over dims 3..6: {min(mins):.2e}")
    assert ok


def test_09_energy_identity(report):
    k = 1.0
    g = Grid(dim=3, half_width=3.0, points_per_axis=32)
    rcfg = ResolventConfig.padded(g, 0)
    Q = _bump(g, -0.5, width=2.0, cutoff=1.5)
    f = NonlinearitySpec.power(Q, p=3.0, alpha=3.0)
    u, rep = picard_solve(f, _plane(g, k), k, SolverConfig(tol=1e-12), rcfg)
    res = energy_identity(u, k, Q=Q, p=3.0, radii=(1.2, 1.8, 2.4))
    flux_ok = rep.converged and res.within()

    gc = Grid(dim=3, half_width=3.0, points_per_axis=48)
    ctrl = ComplexField(gc, np.exp(1j * k * gc.radius())
                        / (4.0 * np.pi * gc.radius()))
    cres = energy_identity(ctrl, k, radii=(1.0, 1.5, 2.0))
    target = k / (4.0 * np.pi)
    ctrl_err = max(abs(fx - target) / target for fx in cres.flux_imag)
    ok = flux_ok and ctrl_err <= 0.05
    report(9, "boundary flux identity", ok,
            f"solve flux max {max(abs(fx) for fx in res.flux_imag):.1e}, "
            f"control err {100 * ctrl_err:.1f}%")
    assert ok


def test_10_defocusing_bound_chain(report):
    k = 1.0
    g = Grid(dim=3, half_width=2.0, points_per_axis=12)
    rcfg = ResolventConfig.padded(g, 0)
    Q = _bump(g, -0.8)
    f = NonlinearitySpec.power(Q, p=3.0, alpha=3.0)
    phi = _plane(g, k)
    assert support_diameter(Q) <= truncation_threshold(3) / k

    margins = []

    def watch(lam, u, rep):
        checks = defocusing_inequalities(u, phi * lam, Q, 3.0, k=k)
        margins.append((lam, checks[0].margin))

    branch = continue_branch(f, phi, k, 1.0, SolverConfig(tol=1e-11), rcfg,
                             callback=watch)
    reached = (branch.terminated_reason == "reached_lambda_max"
               and branch.points[-1].lam == pytest.approx(1.0, abs=1e-12))
    worst = min(m for _, m in margins)
    ok = reached and worst >= -1e-10
    report(10, "defocusing bound chain along branch", ok,
            f"{len(margins)} points to lambda=1, min margin {worst:.2e}")
    assert ok


def test_11_linear_bound(report):
    k = 1.0
    g = Grid(dim=3, half_width=2.0, points_per_axis=10)
    rcfg = ResolventConfig.padded(g, 0)
    a = _bump(g, -0.3, width=2.0, cutoff=1.5)
    b = _bump(g, 0.5, width=3.0, cutoff=1.5)
    f = NonlinearitySpec.affine(a, b, alpha=3.0)
    phi = _plane(g, k)
    kappa = estimate_kappa(3.0, rcfg, k)
    smallness = kappa.kappa_hat * weighted_norm(a, 3.0)
    u, rep = picard_solve(f, phi, k, SolverConfig(tol=1e-12), rcfg)
    check = linear_bound_check(f, phi, u, kappa)
    ok = (smallness <= 0.5 and rep.converged and check.margin >= 0.0)
    report(11, "affine a priori bound", ok,
            f"smallness {smallness:.3f}, margin {check.margin:.3e}")
    assert ok


def test_12_branch_trivial_law(report):
    k = 1.0
    g = Grid(dim=3, half_width=2.0, points_per_axis=10)
    rcfg = ResolventConfig.padded(g, 0)
    f = NonlinearitySpec.power(ComplexField.zeros(g), p=3.0, alpha=3.0)
    phi = _plane(g, k)
    branch = continue_branch(f, phi, k, 2.0, SolverConfig(tol=1e-13), rcfg)
    worst = 0.0
    for pt in branch.points[1:]:
        worst = max(worst, abs(pt.sup_norm - pt.lam * phi.sup_norm)
                    / (pt.lam * phi.sup_norm))
    ok = (branch.terminated_reason == "reached_lambda_max"
          and branch.points[0].sup_norm == 0.0 and worst <= 1e-12)
    report(12, "trivial branch law", ok, f"max rel deviation {worst:.2e}")
    assert ok
