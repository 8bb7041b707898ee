import numpy as np
import pytest

from helmscat.fields import (
    ComplexField,
    Grid,
    IncidentWave,
    NonlinearitySpec,
    make_incident,
    restrict_field,
    support_box,
    weighted_norm,
)
from helmscat import solver
from helmscat.resolvent import ResolventConfig, estimate_kappa
from helmscat.solver import (
    SolverConfig,
    contraction_certificate,
    diagnose,
    linear_bound_check,
    picard_solve,
)

from oracles import (
    newton_fixed_point,
    picard_map,
    resolvent_matrix,
    solve_affine_dense,
    whole_grid_nonlinearity,
)

K_REF = 1.0
ALPHA = 3.0


def small_grid(points=8, half_width=2.0):
    return Grid(dim=3, half_width=half_width, points_per_axis=points)


def small_rcfg(points=8, half_width=2.0):
    g = small_grid(points, half_width)
    return ResolventConfig(source_grid=g, eval_grid=g)


def radial_bump(grid, amplitude, width=2.0, cutoff=1.5):
    r = grid.radius()
    vals = amplitude * np.exp(-width * r**2) * (r <= cutoff)
    return ComplexField(grid, vals.astype(complex))


def plane_phi(grid, direction=(1.0, 0.0, 0.0)):
    return make_incident(IncidentWave.plane(K_REF, direction), grid)


class TestPicard:
    def test_zero_nonlinearity_returns_incident(self):
        rcfg = small_rcfg()
        f = NonlinearitySpec.power(radial_bump(rcfg.source_grid, 0.0), p=3.0, alpha=ALPHA)
        phi = plane_phi(rcfg.eval_grid)
        u, rep = picard_solve(f, phi, K_REF, SolverConfig(), rcfg)
        assert rep.converged
        assert rep.iterations <= 2
        assert np.max(np.abs(u.values - phi.values)) == 0.0
        assert rep.final_residual <= 1e-14

    def test_affine_matches_dense_solve(self):
        rcfg = small_rcfg()
        g = rcfg.source_grid
        a = radial_bump(g, -0.4)
        b = radial_bump(g, 0.25)
        f = NonlinearitySpec.affine(a, b, alpha=ALPHA)
        phi = plane_phi(g)
        u, rep = picard_solve(f, phi, K_REF, SolverConfig(tol=1e-13), rcfg)
        assert rep.converged
        K = resolvent_matrix(rcfg, K_REF)
        u_dense = solve_affine_dense(K, a.values.ravel(), b.values.ravel(),
                                     phi.values.ravel())
        assert np.max(np.abs(u.values.ravel() - u_dense)) < 1e-10

    def test_power_matches_newton_oracle(self):
        rcfg = small_rcfg()
        g = rcfg.source_grid
        Q = radial_bump(g, -0.5)
        f = NonlinearitySpec.power(Q, p=3.0, alpha=ALPHA, tags=("defocusing",))
        phi = plane_phi(g)
        u, rep = picard_solve(f, phi, K_REF, SolverConfig(tol=1e-12), rcfg)
        assert rep.converged
        K = resolvent_matrix(rcfg, K_REF)
        u_newton = newton_fixed_point(K, phi.values.ravel(), Q.values.ravel(), p=3.0)
        assert np.max(np.abs(u.values.ravel() - u_newton)) < 1e-8

    def test_damping_half_same_fixed_point(self):
        rcfg = small_rcfg()
        Q = radial_bump(rcfg.source_grid, -0.5)
        f = NonlinearitySpec.power(Q, p=3.0, alpha=ALPHA)
        phi = plane_phi(rcfg.eval_grid)
        u1, r1 = picard_solve(f, phi, K_REF, SolverConfig(tol=1e-12), rcfg)
        u2, r2 = picard_solve(f, phi, K_REF,
                              SolverConfig(tol=1e-12, damping=0.5), rcfg)
        assert r1.converged and r2.converged
        assert np.max(np.abs(u1.values - u2.values)) < 5e-11
        assert r2.iterations > r1.iterations  # half steps, slower march

    def test_rotation_equivariance(self):
        # radial coefficient, incident direction rotated by the axis swap
        # x1 <-> x2: solutions related by transposing those axes
        rcfg = small_rcfg()
        Q = radial_bump(rcfg.source_grid, -0.5)
        f = NonlinearitySpec.power(Q, p=3.0, alpha=ALPHA)
        u1, _ = picard_solve(f, plane_phi(rcfg.eval_grid, (1.0, 0.0, 0.0)),
                             K_REF, SolverConfig(tol=1e-13), rcfg)
        u2, _ = picard_solve(f, plane_phi(rcfg.eval_grid, (0.0, 1.0, 0.0)),
                             K_REF, SolverConfig(tol=1e-13), rcfg)
        assert np.max(np.abs(u2.values - np.transpose(u1.values, (1, 0, 2)))) < 1e-12

    def test_warm_start_converges_immediately(self):
        rcfg = small_rcfg()
        Q = radial_bump(rcfg.source_grid, -0.5)
        f = NonlinearitySpec.power(Q, p=3.0, alpha=ALPHA)
        phi = plane_phi(rcfg.eval_grid)
        u, _ = picard_solve(f, phi, K_REF, SolverConfig(tol=1e-12), rcfg)
        _, rep = picard_solve(f, phi, K_REF, SolverConfig(tol=1e-10), rcfg, u0=u)
        assert rep.converged
        assert rep.iterations <= 2

    def test_divergence_detected(self):
        rcfg = small_rcfg()
        Q = radial_bump(rcfg.source_grid, 80.0)
        f = NonlinearitySpec.power(Q, p=4.0, alpha=ALPHA)
        phi = plane_phi(rcfg.eval_grid) * 3.0
        u, rep = picard_solve(f, phi, K_REF,
                              SolverConfig(adapt_damping=False, divergence_cap=1e4),
                              rcfg)
        assert rep.status == "diverged"
        assert not rep.converged
        assert rep.final_residual is None
        assert rep.radiation is None
        assert len(rep.residual_history) == rep.iterations
        # a diverged report comes back as it is
        assert diagnose(f, phi, K_REF, rcfg, u, rep, certify=True) is rep

    def test_non_finite_iterate_diverges(self):
        # a cap no finite field exceeds: f(u) overflows float64 first, which
        # ends the run as diverged with the last finite iterate
        rcfg = small_rcfg()
        f = NonlinearitySpec.power(radial_bump(rcfg.source_grid, 50.0, width=1.0),
                                   p=5.0, alpha=ALPHA)
        phi = plane_phi(rcfg.eval_grid) * 10.0
        u, rep = picard_solve(f, phi, K_REF, SolverConfig(divergence_cap=1e308), rcfg)
        assert rep.status == "diverged" and not rep.converged
        assert rep.final_residual is None
        assert rep.radiation is None
        assert np.all(np.isfinite(rep.residual_history))
        assert rep.iterations == len(rep.residual_history) >= 1
        assert np.isfinite(u.sup_norm)

    def test_overflowing_final_residual_diverges(self):
        # the last iterate is finite but its image is not: the final
        # residual follows the loop's rule and ends the run as diverged
        rcfg = small_rcfg()
        f = NonlinearitySpec.power(radial_bump(rcfg.source_grid, -0.8, width=1.0),
                                   p=3.0, alpha=ALPHA)
        phi = plane_phi(rcfg.eval_grid) * 1e80
        u, rep = picard_solve(f, phi, K_REF,
                              SolverConfig(max_iters=1, divergence_cap=1e308), rcfg)
        assert rep.status == "diverged" and not rep.converged
        assert rep.final_residual is None
        assert rep.iterations == len(rep.residual_history) == 1
        assert np.isfinite(u.sup_norm) and u.sup_norm > 1e150

    def test_map_that_leaves_float64_has_no_image(self):
        # an overflow numpy flags and a non-finite value it does not flag
        # both leave float64
        u = np.ones(3, dtype=complex)
        np.testing.assert_array_equal(solver._image(lambda v: 2.0 * v, u), 2.0 * u)
        assert solver._image(lambda v: v * 1e308 * 10.0, u) is None
        assert solver._image(lambda v: np.full(3, complex(np.inf, 0.0)), u) is None
        assert solver._image(lambda v: np.full(3, complex(np.nan, 0.0)), u) is None

    def test_adaptive_damping_reaches_floor_or_converges(self):
        rcfg = small_rcfg()
        Q = radial_bump(rcfg.source_grid, -6.0)
        f = NonlinearitySpec.power(Q, p=3.0, alpha=ALPHA)
        phi = plane_phi(rcfg.eval_grid) * 2.0
        cfg = SolverConfig(tol=1e-11, max_iters=600)
        u, rep = picard_solve(f, phi, K_REF, cfg, rcfg)
        assert rep.converged
        assert 1.0 / 16.0 <= rep.damping_used <= 1.0
        # the solution still solves the undamped fixed point
        assert rep.final_residual < 1e-10

    def test_radiation_report_attached(self):
        rcfg = small_rcfg()
        f = NonlinearitySpec.power(radial_bump(rcfg.source_grid, -0.3), p=3.0, alpha=ALPHA)
        phi = plane_phi(rcfg.eval_grid)
        u, rep = picard_solve(f, phi, K_REF, SolverConfig(), rcfg)
        rep = diagnose(f, phi, K_REF, rcfg, u, rep)
        assert rep.radiation is not None
        assert len(rep.radiation.radii) == 3
        assert all(np.isfinite(rep.radiation.averaged_residual))

    def test_certificate_attached_and_contractive(self):
        rcfg = small_rcfg()
        f = NonlinearitySpec.power(radial_bump(rcfg.source_grid, -0.2), p=3.0, alpha=ALPHA)
        phi = plane_phi(rcfg.eval_grid)
        u, rep = picard_solve(f, phi, K_REF, SolverConfig(), rcfg)
        rep = diagnose(f, phi, K_REF, rcfg, u, rep, certify=True)
        cert = rep.contraction_certificate
        assert cert is not None
        assert cert["certified"]
        assert cert["product"] == cert["kappa_hat"] * cert["ell_estimate"]

    def test_solve_alone_runs_no_diagnostics(self, monkeypatch):
        # picard_solve only solves; diagnose makes one report and, when
        # certifying, one certificate
        calls = []
        for name in ("radiation_report", "contraction_certificate"):
            fn = getattr(solver, name)
            monkeypatch.setattr(solver, name, lambda *a, name=name, fn=fn, **kw:
                                calls.append(name) or fn(*a, **kw))
        rcfg = small_rcfg()
        g = rcfg.source_grid
        f = NonlinearitySpec.affine(radial_bump(g, -0.4), radial_bump(g, 0.3),
                                    alpha=ALPHA)
        phi = plane_phi(g)
        u, rep = picard_solve(f, phi, K_REF, SolverConfig(tol=1e-13), rcfg)
        assert rep.converged
        assert calls == []
        assert rep.radiation is None and rep.contraction_certificate is None
        assert rep.bound_checks == ()
        diagnose(f, phi, K_REF, rcfg, u, rep)
        assert calls == ["radiation_report"]
        calls.clear()
        diagnose(f, phi, K_REF, rcfg, u, rep, certify=True)
        assert calls == ["radiation_report", "contraction_certificate"]

    def test_certificate_scales_linearly_in_coefficient(self):
        rcfg = small_rcfg()
        kappa = estimate_kappa(ALPHA, rcfg, K_REF)
        f1 = NonlinearitySpec.power(radial_bump(rcfg.source_grid, -0.2), p=3.0,
                                    alpha=ALPHA)
        f2 = NonlinearitySpec.power(radial_bump(rcfg.source_grid, -0.4), p=3.0,
                                    alpha=ALPHA)
        c1 = contraction_certificate(f1, kappa, cap=1.0, seed=3)
        c2 = contraction_certificate(f2, kappa, cap=1.0, seed=3)
        assert c2["product"] == pytest.approx(2.0 * c1["product"], rel=1e-12)

    def test_certificate_rejects_huge_coefficient(self):
        rcfg = small_rcfg()
        kappa = estimate_kappa(ALPHA, rcfg, K_REF)
        f = NonlinearitySpec.power(radial_bump(rcfg.source_grid, -500.0), p=3.0,
                                   alpha=ALPHA)
        cert = contraction_certificate(f, kappa, cap=1.0)
        assert cert["product"] > 1.0
        assert not cert["certified"]

    def test_grid_mismatch_rejected(self):
        rcfg = small_rcfg()
        other = small_grid(points=10)
        f = NonlinearitySpec.power(radial_bump(rcfg.source_grid, -0.3), p=3.0, alpha=ALPHA)
        phi_bad = plane_phi(other)
        with pytest.raises(ValueError):
            picard_solve(f, phi_bad, K_REF, SolverConfig(), rcfg)
        phi = plane_phi(rcfg.eval_grid)
        with pytest.raises(ValueError):
            picard_solve(f, phi, K_REF, SolverConfig(), rcfg,
                         u0=ComplexField.zeros(other))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(damping=0.0)
        with pytest.raises(ValueError):
            SolverConfig(max_iters=0)
        with pytest.raises(ValueError):
            SolverConfig(tol=-1.0)


def box_coefficients(kind, grid):
    """A power or affine nonlinearity whose coefficients fill a box smaller
    than the grid: a bump on r <= 1.2 and, for the affine kind, a constant
    off-centre ball that widens the box along the first axis."""
    if kind == "power":
        return NonlinearitySpec.power(radial_bump(grid, -0.6, cutoff=1.2),
                                      p=3.0, alpha=ALPHA)
    shifted = np.sqrt((grid.meshgrid()[0] - 0.9) ** 2
                      + sum(x * x for x in grid.meshgrid()[1:]))
    b = ComplexField(grid, (0.3 + 0.2j) * (shifted <= 0.8))
    return NonlinearitySpec.affine(radial_bump(grid, -0.4, cutoff=0.7), b,
                                   alpha=ALPHA)


class TestBoundMap:
    """The solver's map, bound once to the coefficients' box, against the
    field-by-field route (restrict, whole-grid f, apply_resolvent, + phi)."""

    def problem(self, dim, m, kind, pad):
        g = Grid(dim=dim, half_width=2.0, points_per_axis=m)
        rcfg = ResolventConfig.padded(g, pad)
        f = box_coefficients(kind, g)
        assert all(hi - lo + 1 < m for lo, hi in f.box)
        rng = np.random.default_rng(7)
        shape = rcfg.eval_grid.shape
        u = ComplexField(rcfg.eval_grid, rng.uniform(0.5, 1.5, shape)
                         * np.exp(2j * np.pi * rng.uniform(0.0, 1.0, shape)))
        direction = (0.6, 0.8) if dim == 2 else (0.6, 0.0, 0.8)
        phi = make_incident(IncidentWave.plane(K_REF, direction), rcfg.eval_grid)
        return rcfg, f, u, phi

    @pytest.mark.parametrize("pad", [0, 2])
    @pytest.mark.parametrize("kind", ["power", "affine"])
    @pytest.mark.parametrize("dim,m", [(2, 16), (3, 9)])
    def test_equals_field_route_bit_for_bit(self, dim, m, kind, pad):
        rcfg, f, u, phi = self.problem(dim, m, kind, pad)
        mapped = solver._bound_map(f, phi, K_REF, rcfg)(u.values)
        np.testing.assert_array_equal(mapped,
                                      picard_map(f, phi, K_REF, rcfg, u).values)

    @pytest.mark.parametrize("dim,m", [(2, 16), (3, 9)])
    def test_zero_on_a_box_face_agrees_to_roundoff(self, dim, m):
        # u = 0 on the box's first face along axis 0: f(., u) no longer
        # fills the box, so the field route convolves a smaller window
        rcfg, f, u, phi = self.problem(dim, m, "power", 1)
        u.values[(1 + f.box[0][0],)] = 0.0
        src = restrict_field(u, rcfg.source_grid)
        assert support_box(whole_grid_nonlinearity(f, src).values) != f.box
        mapped = solver._bound_map(f, phi, K_REF, rcfg)(u.values)
        want = picard_map(f, phi, K_REF, rcfg, u).values
        assert np.max(np.abs(mapped - want)) <= 1e-12 * np.max(np.abs(want))

    def test_zero_coefficients_map_to_phi(self):
        rcfg = small_rcfg()
        f = NonlinearitySpec.power(ComplexField.zeros(rcfg.source_grid), p=3.0,
                                   alpha=ALPHA)
        phi = plane_phi(rcfg.eval_grid)
        u = phi * 2.0
        mapped = solver._bound_map(f, phi, K_REF, rcfg)(u.values)
        np.testing.assert_array_equal(mapped,
                                      picard_map(f, phi, K_REF, rcfg, u).values)
        np.testing.assert_array_equal(mapped, phi.values)


class TestContractionRatios:
    def test_residual_ratios_below_certificate(self):
        rcfg = small_rcfg()
        Q = radial_bump(rcfg.source_grid, -0.5)
        f = NonlinearitySpec.power(Q, p=3.0, alpha=ALPHA)
        phi = plane_phi(rcfg.eval_grid)
        u, rep = picard_solve(f, phi, K_REF, SolverConfig(tol=1e-12), rcfg)
        kappa = estimate_kappa(ALPHA, rcfg, K_REF)
        cert = contraction_certificate(f, kappa, cap=1.05 * u.sup_norm)
        assert cert["product"] < 1.0
        hist = rep.residual_history
        floor = 50.0 * np.finfo(float).eps * u.sup_norm
        for i in range(2, len(hist) - 1):
            if hist[i] < floor:
                break
            assert hist[i + 1] / hist[i] <= cert["product"] + 0.05


class TestLinearBound:
    def test_margin_nonnegative(self):
        rcfg = small_rcfg()
        g = rcfg.source_grid
        a = radial_bump(g, -0.4)
        b = radial_bump(g, 0.3)
        f = NonlinearitySpec.affine(a, b, alpha=ALPHA)
        phi = plane_phi(g)
        u, rep = picard_solve(f, phi, K_REF, SolverConfig(tol=1e-13), rcfg)
        assert rep.converged
        kappa = estimate_kappa(ALPHA, rcfg, K_REF)
        assert kappa.kappa_hat * weighted_norm(a, ALPHA).value < 1.0
        check = linear_bound_check(f, phi, u, kappa)
        assert check.satisfied
        assert check.margin >= -1e-10
        assert check.lhs == u.sup_norm

    def test_certified_affine_solve_runs_the_bound(self):
        rcfg = small_rcfg()
        g = rcfg.source_grid
        f = NonlinearitySpec.affine(radial_bump(g, -0.4), radial_bump(g, 0.3),
                                    alpha=ALPHA)
        phi = plane_phi(g)
        u, rep = picard_solve(f, phi, K_REF, SolverConfig(tol=1e-13), rcfg)
        rep = diagnose(f, phi, K_REF, rcfg, u, rep, certify=True)
        assert rep.converged
        want = linear_bound_check(f, phi, u, estimate_kappa(ALPHA, rcfg, K_REF))
        assert rep.bound_checks == (want,)
        assert want.name == "linear_sup_bound" and want.satisfied
        assert rep.as_dict()["bound_checks"] == (want.__dict__,)

    @pytest.mark.parametrize("case", ["power", "uncertified", "max_iters", "void"])
    def test_no_bound_check_outside_its_scope(self, case):
        # the bound is for converged, certified affine solves with
        # kappa_hat ||a||_alpha < 1; a void bound is no breach
        rcfg = small_rcfg()
        g = rcfg.source_grid
        f = NonlinearitySpec.affine(radial_bump(g, -0.4), radial_bump(g, 0.3),
                                    alpha=ALPHA)
        cfg = SolverConfig(tol=1e-13)
        if case == "power":
            f = NonlinearitySpec.power(radial_bump(g, -0.4), p=3.0, alpha=ALPHA)
        elif case == "max_iters":
            cfg = SolverConfig(tol=1e-13, max_iters=1)
        elif case == "void":
            # kappa_hat ||a||_alpha >> 1; a tol no residual exceeds lets the
            # first iterate end converged, so only the void bound is left
            a = ComplexField(g, np.full(g.shape, 40.0, dtype=complex))
            f = NonlinearitySpec.affine(a, ComplexField.zeros(g), alpha=ALPHA)
            cfg = SolverConfig(max_iters=1, tol=1e300)
        phi = plane_phi(g)
        u, rep = picard_solve(f, phi, K_REF, cfg, rcfg)
        rep = diagnose(f, phi, K_REF, rcfg, u, rep, certify=case != "uncertified")
        assert rep.status == ("max_iters" if case == "max_iters" else "converged")
        assert rep.bound_checks == ()
        assert "bound_checks" not in rep.as_dict()

    def test_bound_scales_with_incident_amplitude(self):
        rcfg = small_rcfg()
        g = rcfg.source_grid
        f = NonlinearitySpec.affine(radial_bump(g, -0.2), ComplexField.zeros(g),
                                    alpha=ALPHA)
        kappa = estimate_kappa(ALPHA, rcfg, K_REF)
        checks = []
        for amp in (1.0, 2.0):
            phi = plane_phi(g) * amp
            u, _ = picard_solve(f, phi, K_REF, SolverConfig(tol=1e-13), rcfg)
            checks.append(linear_bound_check(f, phi, u, kappa))
        assert checks[1].rhs == pytest.approx(2.0 * checks[0].rhs, rel=1e-12)
        assert checks[1].lhs == pytest.approx(2.0 * checks[0].lhs, rel=1e-10)

    def test_zero_coefficients_give_tight_bound(self):
        rcfg = small_rcfg()
        g = rcfg.source_grid
        f = NonlinearitySpec.affine(ComplexField.zeros(g), ComplexField.zeros(g),
                                    alpha=ALPHA)
        phi = plane_phi(g)
        u, _ = picard_solve(f, phi, K_REF, SolverConfig(), rcfg)
        kappa = estimate_kappa(ALPHA, rcfg, K_REF)
        check = linear_bound_check(f, phi, u, kappa)
        assert check.rhs == phi.sup_norm
        assert check.margin == pytest.approx(0.0, abs=1e-14)

    def test_synthetic_violation_flagged(self):
        rcfg = small_rcfg()
        g = rcfg.source_grid
        f = NonlinearitySpec.affine(radial_bump(g, -0.2), ComplexField.zeros(g),
                                    alpha=ALPHA)
        phi = plane_phi(g)
        kappa = estimate_kappa(ALPHA, rcfg, K_REF)
        bogus = phi * 10.0
        check = linear_bound_check(f, phi, bogus, kappa)
        assert not check.satisfied
        assert check.margin < 0.0

    def test_void_precondition_rejected(self):
        rcfg = small_rcfg()
        g = rcfg.source_grid
        a = ComplexField(g, np.full(g.shape, 40.0, dtype=complex))
        f = NonlinearitySpec.affine(a, ComplexField.zeros(g), alpha=ALPHA)
        phi = plane_phi(g)
        kappa = estimate_kappa(ALPHA, rcfg, K_REF)
        with pytest.raises(ValueError, match="bound void"):
            linear_bound_check(f, phi, phi, kappa)

    def test_wrong_kind_and_alpha_rejected(self):
        rcfg = small_rcfg()
        g = rcfg.source_grid
        fpow = NonlinearitySpec.power(radial_bump(g, -0.3), p=3.0, alpha=ALPHA)
        phi = plane_phi(g)
        kappa = estimate_kappa(ALPHA, rcfg, K_REF)
        with pytest.raises(ValueError):
            linear_bound_check(fpow, phi, phi, kappa)
        faff = NonlinearitySpec.affine(radial_bump(g, -0.3), ComplexField.zeros(g),
                                      alpha=2.5)
        kappa2 = estimate_kappa(ALPHA, rcfg, K_REF)
        with pytest.raises(ValueError):
            linear_bound_check(faff, phi, phi, kappa2)
