import numpy as np
import pytest

from helmscat import solver
from helmscat.continuation import (
    Branch,
    BranchPoint,
    StepConfig,
    blowup_probe,
    continue_branch,
)
from helmscat.fields import (
    ComplexField,
    Grid,
    IncidentWave,
    NonlinearitySpec,
    make_incident,
)
from helmscat.resolvent import ResolventConfig
from helmscat.solver import SolverConfig, picard_solve

K_REF = 1.0
ALPHA = 3.0


def small_rcfg(points=8, half_width=2.0):
    g = Grid(dim=3, half_width=half_width, points_per_axis=points)
    return ResolventConfig(source_grid=g, eval_grid=g)


def radial_bump(grid, amplitude):
    r = grid.radius()
    vals = amplitude * np.exp(-2.0 * r**2) * (r <= 1.5)
    return ComplexField(grid, vals.astype(complex))


def plane_phi(grid):
    return make_incident(IncidentWave.plane(K_REF, (1.0, 0.0, 0.0)), grid)


class TestBranch:
    def test_trivial_nonlinearity_scales_linearly(self):
        rcfg = small_rcfg()
        f = NonlinearitySpec.power(radial_bump(rcfg.source_grid, 0.0), p=3.0,
                                   alpha=ALPHA)
        phi = plane_phi(rcfg.eval_grid)
        branch = continue_branch(f, phi, K_REF, lambda_max=2.0,
                                 scfg=SolverConfig(tol=1e-13), rcfg=rcfg)
        assert branch.terminated_reason == "reached_lambda_max"
        assert branch.points[0].lam == 0.0
        assert branch.points[0].sup_norm == 0.0
        assert branch.points[-1].lam == pytest.approx(2.0, rel=1e-12)
        for p in branch.points[1:]:
            assert p.sup_norm == pytest.approx(p.lam * phi.sup_norm, rel=1e-12)

    def test_step_grows_after_consecutive_successes(self):
        rcfg = small_rcfg()
        f = NonlinearitySpec.power(radial_bump(rcfg.source_grid, 0.0), p=3.0,
                                   alpha=ALPHA)
        phi = plane_phi(rcfg.eval_grid)
        branch = continue_branch(f, phi, K_REF, lambda_max=2.0,
                                 scfg=SolverConfig(), rcfg=rcfg,
                                 stepcfg=StepConfig(initial_step=0.125))
        steps = [p.step for p in branch.points[1:]]
        assert steps[0] == 0.125
        assert max(steps) > 0.125
        assert max(steps) <= 0.5  # capped at lambda_max / 4

    def test_max_step_caps_the_first_step(self):
        rcfg = small_rcfg()
        f = NonlinearitySpec.power(radial_bump(rcfg.source_grid, 0.0), p=3.0,
                                   alpha=ALPHA)
        phi = plane_phi(rcfg.eval_grid)
        branch = continue_branch(f, phi, K_REF, lambda_max=1.0,
                                 scfg=SolverConfig(), rcfg=rcfg,
                                 stepcfg=StepConfig(initial_step=0.5,
                                                    max_step=0.1))
        steps = [p.step for p in branch.points[1:]]
        assert steps[0] == 0.1
        assert max(steps) <= 0.1
        assert branch.points[-1].lam == pytest.approx(1.0, rel=1e-12)

    def test_defocusing_branch_reaches_target(self):
        rcfg = small_rcfg()
        f = NonlinearitySpec.power(radial_bump(rcfg.source_grid, -0.8), p=3.0,
                                   alpha=ALPHA)
        phi = plane_phi(rcfg.eval_grid)
        seen = []
        branch = continue_branch(f, phi, K_REF, lambda_max=1.5,
                                 scfg=SolverConfig(tol=1e-11), rcfg=rcfg,
                                 callback=lambda lam, u, rep: seen.append((lam, u.sup_norm)))
        assert branch.terminated_reason == "reached_lambda_max"
        assert [s[0] for s in seen] == [p.lam for p in branch.points]
        for (lam, sup), p in zip(seen, branch.points):
            assert sup == p.sup_norm
        # sup norms grow with amplitude but sublinearly against the envelope
        sups = [p.sup_norm for p in branch.points]
        assert np.all(np.diff(sups) > 0.0)

    def test_resolve_from_scratch_matches_branch_point(self):
        rcfg = small_rcfg()
        f = NonlinearitySpec.power(radial_bump(rcfg.source_grid, -0.8), p=3.0,
                                   alpha=ALPHA)
        phi = plane_phi(rcfg.eval_grid)
        branch = continue_branch(f, phi, K_REF, lambda_max=1.5,
                                 scfg=SolverConfig(tol=1e-12), rcfg=rcfg)
        mid = branch.points[len(branch.points) // 2]
        u, rep = picard_solve(f, phi * mid.lam, K_REF, SolverConfig(tol=1e-12), rcfg)
        assert rep.converged
        assert u.sup_norm == pytest.approx(mid.sup_norm, abs=1e-11)

    def test_focusing_branch_breaks_down(self):
        rcfg = small_rcfg()
        f = NonlinearitySpec.power(radial_bump(rcfg.source_grid, 3.0), p=4.0,
                                   alpha=ALPHA)
        phi = plane_phi(rcfg.eval_grid)
        branch = continue_branch(
            f, phi, K_REF, lambda_max=10.0,
            scfg=SolverConfig(max_iters=120, divergence_cap=1e4), rcfg=rcfg,
            stepcfg=StepConfig(floor_factor=1e-3))
        assert branch.terminated_reason in ("blow_up", "step_floor")
        assert branch.points[-1].lam < 10.0
        sups = [p.sup_norm for p in branch.points]
        assert sups[-1] > sups[1]

    def test_final_field_matches_last_point(self):
        rcfg = small_rcfg()
        f = NonlinearitySpec.power(radial_bump(rcfg.source_grid, -0.5), p=3.0,
                                   alpha=ALPHA)
        phi = plane_phi(rcfg.eval_grid)
        branch = continue_branch(f, phi, K_REF, lambda_max=1.0,
                                 scfg=SolverConfig(), rcfg=rcfg)
        assert branch.final_field is not None
        assert branch.final_field.sup_norm == branch.points[-1].sup_norm

    def test_solve_budget_ends_the_branch(self):
        # the branch stops at the budget with the points it accepted, short
        # of lambda_max; one more solve reaches lambda_max
        rcfg = small_rcfg()
        f = NonlinearitySpec.power(radial_bump(rcfg.source_grid, -0.5), p=3.0,
                                   alpha=ALPHA)
        phi = plane_phi(rcfg.eval_grid)
        full = continue_branch(f, phi, K_REF, lambda_max=1.0,
                               scfg=SolverConfig(), rcfg=rcfg)
        assert full.terminated_reason == "reached_lambda_max"
        budget = len(full.points) - 2
        branch = continue_branch(f, phi, K_REF, lambda_max=1.0,
                                 scfg=SolverConfig(), rcfg=rcfg,
                                 stepcfg=StepConfig(max_solves=budget))
        assert branch.terminated_reason == "max_solves"
        assert branch.points == full.points[:budget + 1]
        assert branch.final_field.sup_norm == branch.points[-1].sup_norm

    def test_branch_solves_skip_radiation_and_certificate(self, monkeypatch):
        # no caller reads a branch point's radiation report or certificate,
        # so the solves compute neither
        calls = []
        for name in ("radiation_report", "contraction_certificate"):
            monkeypatch.setattr(solver, name,
                                lambda *a, name=name, **kw: calls.append(name))
        rcfg = small_rcfg()
        f = NonlinearitySpec.power(radial_bump(rcfg.source_grid, -0.5), p=3.0,
                                   alpha=ALPHA)
        reports = []
        branch = continue_branch(f, plane_phi(rcfg.eval_grid), K_REF, lambda_max=1.0,
                                 scfg=SolverConfig(), rcfg=rcfg,
                                 callback=lambda lam, u, rep: reports.append(rep))
        assert branch.terminated_reason == "reached_lambda_max"
        assert calls == []
        assert len(reports) == len(branch.points) >= 2
        assert all(rep.radiation is None and rep.contraction_certificate is None
                   for rep in reports[1:])

    def test_nonpower_kind_rejected(self):
        rcfg = small_rcfg()
        g = rcfg.source_grid
        f = NonlinearitySpec.affine(radial_bump(g, -0.2), radial_bump(g, 1.0),
                                    alpha=ALPHA)
        with pytest.raises(ValueError, match="power kind"):
            continue_branch(f, plane_phi(g), K_REF, lambda_max=1.0,
                            scfg=SolverConfig(), rcfg=rcfg)

    def test_validation(self):
        rcfg = small_rcfg()
        f = NonlinearitySpec.power(radial_bump(rcfg.source_grid, -0.5), p=3.0,
                                   alpha=ALPHA)
        for lam in (0.0, np.nan, np.inf):
            # a NaN lambda_max used to end at once "reached_lambda_max"
            with pytest.raises(ValueError, match="lambda_max"):
                continue_branch(f, plane_phi(rcfg.eval_grid), K_REF, lambda_max=lam,
                                scfg=SolverConfig(), rcfg=rcfg)
        with pytest.raises(ValueError):
            StepConfig(initial_step=-0.1)
        with pytest.raises(ValueError):
            StepConfig(floor_factor=2.0)
        for bad in ({"max_step": -1.0}, {"max_step": 0.0}, {"max_solves": 0},
                    {"initial_step": np.nan}, {"max_step": np.nan}):
            with pytest.raises(ValueError):
                StepConfig(**bad)


class TestBlowupProbe:
    # the probe reads the branch points alone; a synthetic branch still
    # carries a final field
    FIELD = ComplexField.zeros(Grid(dim=3, half_width=1.0, points_per_axis=4))

    @classmethod
    def synthetic_branch(cls, lambda_star=1.3, gamma=1.5, amplitude=2.0):
        lams = (lambda_star / 1.3) * np.array(
            [0.6, 0.8, 0.95, 1.05, 1.12, 1.18, 1.22, 1.25])
        pts = [BranchPoint(lam=0.0, sup_norm=0.0, residual=0.0)]
        for lam in lams:
            pts.append(BranchPoint(lam=float(lam),
                                   sup_norm=amplitude * (lambda_star - lam) ** (-gamma),
                                   residual=1e-12, iterations=10, step=0.05))
        return Branch(points=tuple(pts), lambda_max=2.0,
                      terminated_reason="blow_up", final_field=cls.FIELD)

    def test_recovers_synthetic_power_law(self):
        est = blowup_probe(self.synthetic_branch())
        assert est.detected
        assert est.lambda_star == pytest.approx(1.3, abs=1e-5)
        assert est.gamma == pytest.approx(1.5, abs=1e-4)
        assert est.amplitude == pytest.approx(2.0, rel=1e-3)
        assert est.fit_rms < 1e-6

    def test_recovers_simple_pole(self):
        est = blowup_probe(self.synthetic_branch(lambda_star=1.0, gamma=1.0,
                                                 amplitude=1.0))
        assert est.lambda_star == pytest.approx(1.0, rel=0.05)
        assert est.gamma == pytest.approx(1.0, rel=0.05)

    def test_recovers_different_exponent(self):
        est = blowup_probe(self.synthetic_branch(lambda_star=1.4, gamma=0.5,
                                                 amplitude=0.7))
        assert est.lambda_star == pytest.approx(1.4, abs=1e-4)
        assert est.gamma == pytest.approx(0.5, abs=1e-3)

    def test_falling_branch_fits_a_negative_exponent(self):
        # sup|u| = 2 - lam falls as lam grows: every candidate lambda* fits
        # gamma <= 0 and pays the same penalty, so the best fit, lambda* = 2
        # with gamma = -1, is still the one found, and it is no blow-up
        lams = [0.6, 0.8, 0.95, 1.05, 1.12, 1.18, 1.22, 1.25]
        pts = [BranchPoint(0.0, 0.0, 0.0)] + [
            BranchPoint(lam, 2.0 - lam, 1e-12) for lam in lams]
        est = blowup_probe(Branch(points=tuple(pts), lambda_max=2.0,
                                  terminated_reason="blow_up",
                                  final_field=self.FIELD))
        assert est.gamma == pytest.approx(-1.0, abs=1e-3)
        assert est.lambda_star == pytest.approx(2.0, abs=1e-3)
        assert not est.detected
        assert est.message.startswith("no blow-up detected: sup|u| does not grow")

    def test_completed_branch_reports_no_blowup(self):
        b = Branch(points=(BranchPoint(0.0, 0.0, 0.0),), lambda_max=1.0,
                   terminated_reason="reached_lambda_max", final_field=self.FIELD)
        est = blowup_probe(b)
        assert not est.detected
        assert est.lambda_star is None
        assert "no blow-up" in est.message

    def test_too_few_points_rejected(self):
        pts = tuple(BranchPoint(lam, lam, 1e-12)
                    for lam in (0.0, 0.3, 0.5))
        b = Branch(points=pts, lambda_max=1.0, terminated_reason="step_floor",
                   final_field=self.FIELD)
        with pytest.raises(ValueError, match="trailing converged"):
            blowup_probe(b)

    def test_probe_on_real_focusing_branch(self):
        rcfg = small_rcfg()
        f = NonlinearitySpec.power(radial_bump(rcfg.source_grid, 3.0), p=4.0,
                                   alpha=ALPHA)
        phi = plane_phi(rcfg.eval_grid)
        branch = continue_branch(
            f, phi, K_REF, lambda_max=10.0,
            scfg=SolverConfig(max_iters=120, divergence_cap=1e4), rcfg=rcfg,
            stepcfg=StepConfig(initial_step=0.2, floor_factor=1e-3))
        est = blowup_probe(branch)
        assert est.detected
        assert est.lambda_star > branch.points[-1].lam
        assert est.gamma > 0.0
