from dataclasses import replace

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
from helmscat import resolvent, solver
from helmscat.resolvent import ResolventConfig, estimate_kappa
from helmscat.solver import (
    SolverConfig,
    contraction_certificate,
    diagnose,
    linear_bound_check,
    picard_solve,
)

from oracles import (
    bound_map,
    newton_fixed_point,
    picard_map,
    resolvent_matrix,
    solve_affine_dense,
    whole_grid_nonlinearity,
    whole_grid_picard,
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
        f = NonlinearitySpec.power(Q, p=3.0, alpha=ALPHA)
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
                              SolverConfig(divergence_cap=1e4),
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
        # a NaN cap would read as divergence, and 2.5 iterations failed in range()
        for bad in ({"tol": np.nan}, {"tol": np.inf}, {"divergence_cap": np.nan},
                    {"max_iters": 2.5}, {"max_iters": 200.0}):
            with pytest.raises(ValueError):
                SolverConfig(**bad)
        assert SolverConfig(max_iters=np.int64(3), divergence_cap=np.inf).max_iters == 3


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
    """The whole-grid oracle's map, bound once to the coefficients' box,
    against the field-by-field route (restrict, whole-grid f,
    apply_resolvent, + phi); the solver's final residual reads the same
    map."""

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
        mapped = bound_map(f, phi, K_REF, rcfg)(u.values)
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
        mapped = bound_map(f, phi, K_REF, rcfg)(u.values)
        want = picard_map(f, phi, K_REF, rcfg, u).values
        assert np.max(np.abs(mapped - want)) <= 1e-12 * np.max(np.abs(want))

    def test_zero_coefficients_map_to_phi(self):
        rcfg = small_rcfg()
        f = NonlinearitySpec.power(ComplexField.zeros(rcfg.source_grid), p=3.0,
                                   alpha=ALPHA)
        phi = plane_phi(rcfg.eval_grid)
        u = phi * 2.0
        mapped = bound_map(f, phi, K_REF, rcfg)(u.values)
        np.testing.assert_array_equal(mapped,
                                      picard_map(f, phi, K_REF, rcfg, u).values)
        np.testing.assert_array_equal(mapped, phi.values)


def scaled_coefficients(f, factor):
    """f with its coefficient Q, or a, multiplied by factor."""
    if f.kind == "power":
        return NonlinearitySpec.power(f.Q * factor, p=f.p, alpha=f.alpha)
    return NonlinearitySpec.affine(f.a * factor, f.b, alpha=f.alpha)


class TestAgainstWholeGridOracle:
    """picard_solve, which iterates on the coefficients' box, against the
    Picard loop on the whole eval grid (tests/oracles.py)."""

    def problem(self, dim, m, pad, kind):
        g = Grid(dim=dim, half_width=2.0, points_per_axis=m)
        rcfg = ResolventConfig.padded(g, pad)
        # "adaptive": a coefficient strong enough that theta halves
        f = box_coefficients("power" if kind == "adaptive" else kind, g)
        if kind == "adaptive":
            f = scaled_coefficients(f, 10.0)
        direction = (0.6, 0.8) if dim == 2 else (0.6, 0.0, 0.8)
        phi = make_incident(IncidentWave.plane(K_REF, direction), rcfg.eval_grid)
        return rcfg, f, phi

    def assert_agree(self, f, phi, cfg, rcfg, u0=None, history_on_box=False):
        u, rep = picard_solve(f, phi, K_REF, cfg, rcfg, u0)
        want, (status, iterations, history, final, theta) = whole_grid_picard(
            f, phi, K_REF, cfg, rcfg, u0)
        assert (rep.status, rep.iterations, rep.damping_used) == (status, iterations, theta)
        assert rep.converged == (status == "converged")
        got = np.array(rep.residual_history)
        scale = max(history)
        if history_on_box:
            # the box's step is a lower bound of the grid's
            assert np.all(got <= np.array(history) + 1e-12 * scale)
        else:
            # relative to the largest step: a step near tol carries the
            # cancellation of u_N - u_(N-1), about eps sup|u| either way
            np.testing.assert_allclose(got, history, rtol=1e-12, atol=1e-12 * scale)
        assert np.max(np.abs(u.values - want.values)) <= 1e-13 * want.sup_norm
        if final is None:
            assert rep.final_residual is None
        else:
            assert rep.final_residual == pytest.approx(final, abs=1e-13 * want.sup_norm)
        return rep

    @pytest.mark.parametrize("warm", [False, True])
    @pytest.mark.parametrize("damping", [1.0, 0.25, 1.0 / 16.0])
    @pytest.mark.parametrize("kind", ["power", "affine", "adaptive"])
    @pytest.mark.parametrize("dim,m,pad", [(2, 16, 2), (3, 9, 1)])
    def test_matches_whole_grid_loop(self, dim, m, pad, kind, damping, warm):
        rcfg, f, phi = self.problem(dim, m, pad, kind)
        u0 = None
        if warm:
            # the solution of a neighbouring problem with the same incident
            u0, _ = picard_solve(scaled_coefficients(f, 0.8), phi, K_REF,
                                 SolverConfig(tol=1e-11), rcfg)
        cfg = SolverConfig(tol=1e-11, max_iters=400, damping=damping)
        rep = self.assert_agree(f, phi, cfg, rcfg, u0)
        assert rep.converged
        if kind == "adaptive" and damping == 1.0:
            assert rep.damping_used < 1.0

    @pytest.mark.parametrize("dim,m,pad", [(2, 16, 2), (3, 9, 1)])
    def test_rescaled_incident_warm_start(self, dim, m, pad):
        # a continuation's warm start: the solution at 0.8 phi.  u0 - phi
        # holds 0.2 phi, which fills the grid, so a damped step can peak
        # off the box; the history reads the box then, and may fall below
        # the grid's step, while the decisions still agree
        rcfg, f, phi = self.problem(dim, m, pad, "power")
        u0, _ = picard_solve(f, phi * 0.8, K_REF, SolverConfig(tol=1e-11), rcfg)
        cfg = SolverConfig(tol=1e-11, max_iters=400, damping=0.25)
        rep = self.assert_agree(f, phi, cfg, rcfg, u0, history_on_box=True)
        assert rep.converged

    @pytest.mark.parametrize("case", ["cap", "overflow"])
    @pytest.mark.parametrize("dim,m,pad", [(2, 16, 2), (3, 9, 1)])
    def test_diverging_solve(self, dim, m, pad, case):
        rcfg, _, phi = self.problem(dim, m, pad, "power")
        g = rcfg.source_grid
        if case == "cap":
            f = NonlinearitySpec.power(radial_bump(g, 80.0), p=4.0, alpha=ALPHA)
            phi, cfg = phi * 3.0, SolverConfig(divergence_cap=1e4)
        else:
            f = NonlinearitySpec.power(radial_bump(g, 50.0, width=1.0), p=5.0,
                                       alpha=ALPHA)
            phi, cfg = phi * 10.0, SolverConfig(divergence_cap=1e308)
        rep = self.assert_agree(f, phi, cfg, rcfg)
        assert rep.status == "diverged"


def readme_problem(m=16, amplitude=1.0):
    """README's minimal config: 3D, L = 2, k = 1, the bump
    Q = -0.8 exp(-4 r^2) 1[r <= 0.45] with p = 3, incident along x1."""
    g = Grid(dim=3, half_width=2.0, points_per_axis=m)
    rcfg = ResolventConfig.padded(g, 0)
    f = NonlinearitySpec.power(radial_bump(g, -0.8, width=4.0, cutoff=0.45),
                               p=3.0, alpha=ALPHA)
    return rcfg, f, plane_phi(g) * amplitude


class TestBoxIteration:
    def test_converged_solve_makes_three_grid_applies(self, monkeypatch):
        # one apply onto the box per iteration; onto the eval grid only the
        # stop test, the field and the final residual
        calls = {"grid": 0, "box": 0}

        class Counting(resolvent.BoxResolvent):
            def __init__(self, *args, dest="grid", **kwargs):
                super().__init__(*args, dest=dest, **kwargs)
                self.dest = dest

            def __call__(self, values):
                calls[self.dest] += 1
                return super().__call__(values)

        monkeypatch.setattr(solver, "BoxResolvent", Counting)
        rcfg, f, phi = readme_problem()
        _, rep = picard_solve(f, phi, K_REF, SolverConfig(tol=1e-10), rcfg)
        assert rep.converged and rep.final_residual <= 1e-10
        assert calls["grid"] <= 3
        assert calls["box"] == rep.iterations

    def test_field_that_leaves_float64_off_the_box_diverges(self, monkeypatch):
        # the box iterates stay finite, but every apply onto the eval grid
        # overflows: the stop test and the field are not finite, so the run
        # ends diverged with the start field and no final residual
        class Overflowing(resolvent.BoxResolvent):
            def __init__(self, *args, dest="grid", **kwargs):
                super().__init__(*args, dest=dest, **kwargs)
                self.dest = dest

            def __call__(self, values):
                out = super().__call__(values)
                return out if self.dest == "box" else out + np.inf

        monkeypatch.setattr(solver, "BoxResolvent", Overflowing)
        rcfg, f, phi = readme_problem(m=12)
        u, rep = picard_solve(f, phi, K_REF, SolverConfig(tol=1e-10), rcfg)
        assert rep.status == "diverged" and not rep.converged
        assert rep.final_residual is None
        assert rep.iterations == len(rep.residual_history) >= 1
        np.testing.assert_array_equal(u.values, phi.values)

    def test_non_finite_box_apply_diverges_before_the_iterate_moves(self, monkeypatch):
        # from its third call on, the apply onto the box returns NaN, which
        # raises no floating-point flag: the run ends diverged with the two
        # finite iterations, and the field is the one after them
        calls = []

        class NaNFromThird(resolvent.BoxResolvent):
            def __init__(self, *args, dest="grid", **kwargs):
                super().__init__(*args, dest=dest, **kwargs)
                self.dest = dest

            def __call__(self, values):
                out = super().__call__(values)
                if self.dest == "grid":
                    return out
                calls.append(None)
                return out if len(calls) < 3 else np.full_like(out, np.nan)

        rcfg, f, phi = readme_problem(m=12)
        cfg = SolverConfig(tol=1e-10)
        want, two = picard_solve(f, phi, K_REF, replace(cfg, max_iters=2), rcfg)
        monkeypatch.setattr(solver, "BoxResolvent", NaNFromThird)
        u, rep = picard_solve(f, phi, K_REF, cfg, rcfg)
        assert rep.status == "diverged" and not rep.converged
        assert rep.iterations == len(rep.residual_history) == 2 == len(calls) - 1
        assert np.all(np.isfinite(rep.residual_history))
        assert rep.residual_history == two.residual_history
        assert rep.final_residual is None
        assert np.isfinite(u.sup_norm)
        np.testing.assert_array_equal(u.values, want.values)

    def test_cold_solve_builds_one_table(self, monkeypatch):
        # the spectrum miss of the solve's box yields the spectra onto the
        # grid and onto the box from one kernel table
        builds = []
        table = resolvent._kernel_table
        monkeypatch.setattr(resolvent, "_kernel_table",
                            lambda *args: builds.append(args) or table(*args))
        resolvent._window_spectra.cache_clear()
        rcfg, f, phi = readme_problem(m=12)
        _, rep = picard_solve(f, phi, K_REF, SolverConfig(), rcfg)
        assert rep.converged
        assert len(builds) == 1
        info = resolvent._window_spectra.cache_info()
        assert (info.misses, info.hits) == (1, 1)

    @pytest.mark.parametrize("damping,amplitude,tol", [
        (1.0 / 16.0, 3.0, 1e-8), (0.25, 3.0, 1e-8), (1.0, 3.0, 1e-8),
        (1.0, 1.0, 1e-10), (0.25, 1.0, 1e-10)])
    def test_converged_means_a_grid_step_within_tol(self, damping, amplitude, tol):
        # the last damped step, u_N - u_(N-1) on the whole eval grid, is at
        # most tol; u_(N-1) is the same solve stopped one iteration early.
        # converged still reads the damped step, not the undamped residual
        rcfg, f, phi = readme_problem(amplitude=amplitude)
        cfg = SolverConfig(tol=tol, damping=damping, max_iters=400)
        u, rep = picard_solve(f, phi, K_REF, cfg, rcfg)
        assert rep.converged and rep.iterations >= 2
        prev, _ = picard_solve(f, phi, K_REF,
                               SolverConfig(tol=tol, damping=damping,
                                            max_iters=rep.iterations - 1), rcfg)
        step = float(np.max(np.abs(u.values - prev.values)))
        assert step <= tol
        assert rep.residual_history[-1] == pytest.approx(step, rel=1e-6)


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
        assert kappa.kappa_hat * weighted_norm(a, ALPHA) < 1.0
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
