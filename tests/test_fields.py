import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helmscat import fields, resolvent, verify
from helmscat.fields import ComplexField, Grid, IncidentWave, NonlinearitySpec
from oracles import (
    discrete_laplacian,
    embed_field,
    nonlinearity_derivative,
    rgi_interpolant,
    split_interpolant,
    split_sphere_trace,
    whole_grid_nonlinearity,
)


def small_grid(dim=3, L=2.0, m=9):
    return Grid(dim=dim, half_width=L, points_per_axis=m)


def bump_field(grid, amp=1.0, radius=1.0):
    r = grid.radius()
    vals = np.where(r < radius, amp * np.exp(1.0 - 1.0 / np.maximum(1e-12, 1.0 - (r / radius) ** 2)), 0.0)
    vals[r >= radius] = 0.0
    return ComplexField(grid, vals.astype(complex))


class TestGrid:
    def test_spacing_and_shape(self):
        g = Grid(dim=3, half_width=2.0, points_per_axis=5)
        assert g.spacing == pytest.approx(1.0)
        assert g.shape == (5, 5, 5)
        assert g.cell_volume == pytest.approx(1.0)
        np.testing.assert_allclose(g.axis(), [-2, -1, 0, 1, 2])

    def test_memory_cap(self):
        with pytest.raises(ValueError, match="memory cap"):
            Grid(dim=3, half_width=1.0, points_per_axis=300)
        # 161^3 fits under DEFAULT_MAX_POINTS = 2^22, 162^3 does not
        Grid(dim=3, half_width=1.0, points_per_axis=161)
        with pytest.raises(ValueError, match="memory cap"):
            Grid(dim=3, half_width=1.0, points_per_axis=162)

    @pytest.mark.parametrize("kw", [
        dict(dim=4, half_width=1.0, points_per_axis=5),
        dict(dim=3, half_width=0.0, points_per_axis=5),
        dict(dim=3, half_width=1.0, points_per_axis=1),
        # h^dim overflows float64 (Python's float ** raises OverflowError)
        # or underflows to 0
        dict(dim=3, half_width=1e110, points_per_axis=10),
        dict(dim=3, half_width=1e-300, points_per_axis=10),
        dict(dim=2, half_width=1e-300, points_per_axis=10),
    ])
    def test_validation(self, kw):
        with pytest.raises(ValueError):
            Grid(**kw)


class TestComplexField:
    def test_rejects_nonfinite_and_shape(self):
        g = small_grid(m=5)
        with pytest.raises(ValueError, match="non-finite"):
            ComplexField(g, np.full(g.shape, np.nan, dtype=complex))
        with pytest.raises(ValueError, match="shape"):
            ComplexField(g, np.zeros((4, 4, 4), dtype=complex))

    def test_arithmetic_and_norm(self):
        g = small_grid(m=5)
        a = ComplexField(g, np.full(g.shape, 1 + 1j))
        b = ComplexField(g, np.full(g.shape, 2.0))
        assert (a + b).values[0, 0, 0] == 3 + 1j
        assert (a - b).values[0, 0, 0] == -1 + 1j
        assert (2.0 * a).sup_norm == pytest.approx(2.0 * math.sqrt(2.0))
        other = ComplexField(small_grid(m=7), np.zeros((7, 7, 7)))
        with pytest.raises(ValueError):
            a + other


class TestWeightedNorm:
    @given(scale=st.floats(min_value=1e-6, max_value=1e6),
           alpha=st.floats(min_value=0.0, max_value=6.0))
    @settings(max_examples=40, deadline=None)
    def test_homogeneity(self, scale, alpha):
        g = Grid(dim=2, half_width=3.0, points_per_axis=11)
        rng = np.random.default_rng(3)
        w = ComplexField(g, rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape))
        base = fields.weighted_norm(w, alpha)
        scaled = fields.weighted_norm(scale * w, alpha)
        assert scaled == pytest.approx(scale * base, rel=1e-13)

    @given(a1=st.floats(min_value=0.0, max_value=4.0),
           a2=st.floats(min_value=0.0, max_value=4.0))
    @settings(max_examples=40, deadline=None)
    def test_monotone_in_alpha(self, a1, a2):
        # <x> >= 1 everywhere, so the norm grows with alpha
        g = Grid(dim=2, half_width=3.0, points_per_axis=11)
        rng = np.random.default_rng(4)
        w = ComplexField(g, rng.standard_normal(g.shape) + 0j)
        lo, hi = sorted((a1, a2))
        assert fields.weighted_norm(w, lo) <= fields.weighted_norm(w, hi) * (1 + 1e-13)

    def test_overflowing_weight_off_the_support_is_not_nan(self):
        # <x>^1000 overflows to inf at the corners of this grid; the field
        # is zero there, so the norm is the point mass's value, not NaN
        g = small_grid(m=5)
        vals = np.zeros(g.shape, dtype=complex)
        vals[2, 2, 3] = 2.0  # at x = (0, 0, 1), where <x> = sqrt(2)
        assert fields.weighted_norm(ComplexField(g, vals), 1000.0) == pytest.approx(
            2.0 * 2.0 ** 500, rel=1e-12)
        assert fields.weighted_norm(ComplexField.zeros(g), 1000.0) == 0.0

    def test_point_mass_value(self):
        g = small_grid(m=5)
        vals = np.zeros(g.shape, dtype=complex)
        vals[4, 2, 2] = 3.0  # at x = (2, 0, 0), where <x> = sqrt(5)
        assert fields.weighted_norm(ComplexField(g, vals), 1.0) == pytest.approx(
            3.0 * math.sqrt(5.0))


class TestTau:
    @pytest.mark.parametrize("dim", [2, 3])
    def test_branches_and_continuity(self, dim):
        lo = 0.5 * (dim + 1)
        a_mid = 0.5 * (lo + dim)
        assert fields.tau(a_mid, dim) == pytest.approx(a_mid - lo)
        assert fields.tau(dim + 5.0, dim) == pytest.approx(0.5 * (dim - 1))
        eps = 1e-9
        below = fields.tau(dim - eps, dim)
        at = fields.tau(float(dim), dim)
        assert abs(below - at) < 1e-8
        assert at == pytest.approx(0.5 * (dim - 1), abs=1e-12)

    def test_domain(self):
        # (dim+1)/2 = 2 is not allowed, nor is a non-finite alpha
        for alpha in (2.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="alpha must exceed"):
                fields.tau(alpha, 3)


class TestSphereQuadrature:
    def test_weights_sum_to_measure(self):
        for dim, measure in ((2, 2 * np.pi), (3, 4 * np.pi)):
            dirs, wts = fields.sphere_quadrature(dim)
            assert np.all(wts > 0)
            assert wts.sum() == pytest.approx(measure, rel=1e-13)
            np.testing.assert_allclose(np.linalg.norm(dirs, axis=1), 1.0, rtol=1e-13)

    def test_octahedral_rule_degree(self):
        # exact sphere moments: x^2 -> 4pi/3, x^4 -> 4pi/5, x^2 y^2 -> 4pi/15,
        # x^6 -> 4pi/7; odd monomials vanish
        dirs, wts = fields.sphere_quadrature(3, 26)
        assert len(wts) == 26
        x, y, z = dirs.T
        assert np.sum(wts * x**2) == pytest.approx(4 * np.pi / 3, rel=1e-12)
        assert np.sum(wts * x**4) == pytest.approx(4 * np.pi / 5, rel=1e-12)
        assert np.sum(wts * x**2 * y**2) == pytest.approx(4 * np.pi / 15, rel=1e-12)
        assert np.sum(wts * x**6) == pytest.approx(4 * np.pi / 7, rel=1e-12)
        assert np.sum(wts * x**3 * y**2) == pytest.approx(0.0, abs=1e-13)

    @pytest.mark.parametrize("n", [6, 7, 30, 50, 200])
    def test_golden_spiral_gives_the_count_asked_for(self, n):
        # any count but 26 in 3D: n distinct unit directions on the golden
        # spiral, equal weights summing to 4 pi
        dirs, wts = fields.sphere_quadrature(3, n)
        assert dirs.shape == (n, 3) and wts.shape == (n,)
        np.testing.assert_allclose(np.linalg.norm(dirs, axis=1), 1.0, atol=1e-12)
        assert np.all(wts == wts[0])
        assert wts.sum() == pytest.approx(4 * np.pi, rel=1e-13)
        gaps = np.linalg.norm(dirs[:, None] - dirs[None], axis=2)
        assert np.min(gaps[~np.eye(n, dtype=bool)]) > 1e-3
        i = 3
        assert dirs[i, 2] == pytest.approx(1 - (2 * i + 1) / n, abs=1e-15)
        assert math.atan2(dirs[i, 1], dirs[i, 0]) % (2 * np.pi) == pytest.approx(
            (i * np.pi * (3 - math.sqrt(5))) % (2 * np.pi), abs=1e-12)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_trace_of_linear_field_is_exact(self, dim):
        # multilinear interpolation and centered differences are exact on
        # u = a.x + b, so the trace gives u and d_r u = a.dir to roundoff
        g = small_grid(dim=dim)
        a = np.array([0.7 - 0.2j, -1.1 + 0.5j, 0.3j][:dim])
        u = sum(ai * x for ai, x in zip(a, g.meshgrid())) + (0.4 - 0.9j)
        dirs, _ = fields.sphere_quadrature(dim)
        grads, trace = fields.sphere_trace(g, u, dirs)
        uv, du_dr = trace(1.3)
        np.testing.assert_allclose(uv, 1.3 * dirs @ a + (0.4 - 0.9j), atol=1e-13)
        np.testing.assert_allclose(du_dr, dirs @ a, atol=1e-13)
        for gc, ai in zip(grads, a):
            np.testing.assert_allclose(gc, ai, atol=1e-13)


def wave_field(grid, k=1.3):
    """Smooth complex test field: an outgoing spherical wave plus a plane
    wave along the first axis."""
    r = grid.radius()
    return (np.exp(1j * k * r) / np.sqrt(1.0 + r * r)
            + 0.3 * np.exp(1j * k * grid.meshgrid()[0]))


def assert_matches_oracle(got, ref, dim, scale=None):
    """Bit for bit in 3D; in 2D within 2e-15 of scale (default: each
    reference value's magnitude)."""
    got, ref = np.asarray(got), np.asarray(ref)
    if dim == 3:
        assert np.array_equal(got, ref)
    else:
        bound = 2e-15 * (np.abs(ref) if scale is None else scale)
        assert np.all(np.abs(got - ref) <= bound)


class TestSphereTrace:
    POINTS = {2: 33, 3: 17}
    RADII = (0.5, 1.0, 1.5)
    K = 1.3

    def field(self, dim):
        g = small_grid(dim=dim, m=self.POINTS[dim])
        return ComplexField(g, wave_field(g, self.K))

    @pytest.mark.parametrize("dim", [2, 3])
    def test_matches_split_oracle(self, dim):
        u = self.field(dim)
        g = u.grid
        dirs, _ = fields.sphere_quadrature(dim)
        grads, trace = fields.sphere_trace(g, u.values, dirs)
        ref_grads, ref_trace = split_sphere_trace(g, u.values, dirs)
        for gc, rc in zip(grads, ref_grads, strict=True):
            assert np.array_equal(gc, rc)
        for R in self.RADII:
            for got, ref in zip(trace(R), ref_trace(R)):
                assert_matches_oracle(got, ref, dim)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_diagnostics_match_split_oracle(self, dim, monkeypatch):
        u = self.field(dim)
        dirs, _ = fields.sphere_quadrature(dim)

        def diagnostics():
            return (resolvent.radiation_report(u, self.K, self.RADII),
                    verify.energy_identity(u, self.K, radii=self.RADII),
                    resolvent.far_field(u, self.K, dirs, self.RADII[-1]))

        rad, flux, ff = diagnostics()
        monkeypatch.setattr(fields, "sphere_trace", split_sphere_trace)
        monkeypatch.setattr(verify, "sphere_trace", split_sphere_trace)
        monkeypatch.setattr(fields, "grid_interpolant", split_interpolant)
        ref_rad, ref_flux, ref_ff = diagnostics()

        # the ball average reads the gradient only, which is the same array
        assert rad.averaged_residual == ref_rad.averaged_residual
        assert_matches_oracle(rad.pointwise_residual, ref_rad.pointwise_residual, dim)
        # the flux is a cancelling sum: compare it on the scale of its terms,
        # area * max|u| * max|d_r u| per shell
        _, wts = fields.sphere_quadrature(dim)
        terms = [R ** (dim - 1) * np.sum(wts) * s["shell_max"] * s["shell_grad_max"]
                 for R, s in zip(self.RADII, ref_flux.context["shells"])]
        assert_matches_oracle(flux.flux_imag, ref_flux.flux_imag, dim, scale=max(terms))
        assert_matches_oracle(flux.quad_tol, ref_flux.quad_tol, dim)
        scale = np.max(np.abs(ref_ff.amplitude))
        assert_matches_oracle(ff.amplitude, ref_ff.amplitude, dim, scale=scale)

    def test_one_interpolant_per_diagnostic(self, monkeypatch):
        built, calls = [], []
        build = fields.grid_interpolant

        def counting_build(*args, **kwargs):
            built.append(1)
            at = build(*args, **kwargs)

            def counting_call(*args, **kwargs):
                calls.append(1)
                return at(*args, **kwargs)
            return counting_call

        monkeypatch.setattr(fields, "grid_interpolant", counting_build)
        u = self.field(3)
        dirs, _ = fields.sphere_quadrature(3)
        resolvent.radiation_report(u, self.K, self.RADII)
        assert (len(built), len(calls)) == (1, len(self.RADII))
        resolvent.far_field(u, self.K, dirs, self.RADII[-1])
        assert (len(built), len(calls)) == (2, len(self.RADII) + 1)
        verify.energy_identity(u, self.K, radii=self.RADII)
        assert (len(built), len(calls)) == (3, 2 * len(self.RADII) + 1)


class TestGridInterpolant:
    """fields.grid_interpolant against scipy's RegularGridInterpolator, on
    random complex stacks of dim + 1 fields."""

    SIZES = {2: 41, 3: 32}

    def stack(self, dim, seed=3):
        g = Grid(dim=dim, half_width=2.0, points_per_axis=self.SIZES[dim])
        rng = np.random.default_rng(seed)
        shape = g.shape + (dim + 1,)
        return g, rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    def assert_agrees(self, g, vals, pts):
        # roundoff in the cell weights, on the scale of the values
        got = fields.grid_interpolant(g, vals)(pts)
        ref = rgi_interpolant(g, vals)(pts)
        assert got.shape == ref.shape
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(vals))

    @pytest.mark.parametrize("dim", [2, 3])
    def test_matches_rgi_on_spheres_and_random_points(self, dim):
        g, vals = self.stack(dim)
        dirs, _ = fields.sphere_quadrature(dim)
        for R in (0.5, 1.0, 1.5, 1.73):
            self.assert_agrees(g, vals, R * dirs)
        pts = np.random.default_rng(4).uniform(-2.0, 2.0, (400, dim))
        self.assert_agrees(g, vals, pts)
        # one field, no trailing axis
        self.assert_agrees(g, vals[..., 0], pts)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_matches_rgi_on_the_last_cell_face(self, dim):
        g, vals = self.stack(dim)
        L = g.half_width
        rng = np.random.default_rng(5)
        pts = rng.uniform(-L, L, (60, dim))
        for i, row in enumerate(pts):
            row[i % dim] = L if i % 2 else -L
        corners = np.array([[L] * dim, [-L] * dim, [L] + [-L] * (dim - 1)])
        self.assert_agrees(g, vals, np.concatenate([pts, corners]))
        # nodes are reproduced: the far corner is the last node's value
        np.testing.assert_allclose(fields.grid_interpolant(g, vals)(corners[:1])[0],
                                   vals[(-1,) * dim], rtol=1e-14)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_out_of_bounds_raises_like_rgi(self, dim):
        g, vals = self.stack(dim)
        L = g.half_width
        at = fields.grid_interpolant(g, vals)
        ref = rgi_interpolant(g, vals)
        for bad in (L * (1 + 1e-12), -L * (1 + 1e-12), 3.0, math.nan):
            pts = np.zeros((3, dim))
            pts[1, dim - 1] = bad
            for fn in (at, ref):
                with pytest.raises(ValueError):
                    fn(pts)


class TestIncidentWaves:
    def test_plane_wave_modulus_and_helmholtz(self):
        k = 1.0
        g = Grid(dim=3, half_width=2.0, points_per_axis=21)
        phi = fields.make_incident(IncidentWave.plane(k, [0, 0, 1]), g)
        np.testing.assert_allclose(np.abs(phi.values), 1.0, rtol=1e-13)
        lap = discrete_laplacian(phi.values, g.spacing)
        core = (slice(1, -1),) * 3
        resid = np.abs(lap[core] + k * k * phi.values[core])
        # centered-difference truncation is O(h^2 k^4)
        assert resid.max() < 0.5 * k**4 * g.spacing**2

    def test_plane_wave_direction_validation(self):
        with pytest.raises(ValueError, match="unit"):
            IncidentWave.plane(1.0, [0, 0, 2])
        with pytest.raises(ValueError):
            IncidentWave.plane(-1.0, [0, 0, 1])

    @pytest.mark.parametrize("k", [math.nan, math.inf])
    def test_plane_wave_rejects_non_finite_k(self, k):
        # rejected here, not later as a field with non-finite values
        with pytest.raises(ValueError, match="k must be finite"):
            IncidentWave.plane(k, [0, 0, 1])

    @pytest.mark.parametrize("dim,direction", [(2, (0.6, 0.0, 0.8)),
                                               (3, (0.6, 0.8))])
    def test_direction_length_must_match_grid(self, dim, direction):
        g = Grid(dim=dim, half_width=2.0, points_per_axis=9)
        with pytest.raises(ValueError, match="dim"):
            fields.make_incident(IncidentWave.plane(1.0, direction), g)


class TestNonlinearity:
    def test_power_pointwise_oracle(self):
        g = small_grid(m=5)
        Q = bump_field(g, amp=-0.7)
        spec = NonlinearitySpec.power(Q, p=3.0, alpha=3.0)
        rng = np.random.default_rng(11)
        u = ComplexField(g, rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape))
        out = fields.apply_nonlinearity(spec, u)
        # independent pointwise route
        for idx in [(0, 0, 0), (2, 2, 2), (1, 3, 2), (4, 4, 4)]:
            z = u.values[idx]
            want = Q.values[idx].real * abs(z) ** 1.0 * z
            assert out.values[idx] == pytest.approx(want, rel=1e-14)

    def test_power_zero_is_fixed(self):
        g = small_grid(m=5)
        spec = NonlinearitySpec.power(bump_field(g), p=2.5, alpha=3.0)
        out = fields.apply_nonlinearity(spec, ComplexField.zeros(g))
        assert out.sup_norm == 0.0

    def test_defocusing_sign(self):
        # Re(conj(u) f(x,u)) = Q |u|^p <= 0 for Q <= 0
        g = small_grid(m=7)
        Q = bump_field(g, amp=-1.0)
        spec = NonlinearitySpec.power(Q, p=3.0, alpha=3.0)
        rng = np.random.default_rng(5)
        u = ComplexField(g, rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape))
        out = fields.apply_nonlinearity(spec, u)
        assert np.all(np.real(np.conj(u.values) * out.values) <= 1e-15)

    def test_power_validation(self):
        g = small_grid(m=5)
        with pytest.raises(ValueError, match="exceed 2"):
            NonlinearitySpec.power(bump_field(g), p=2.0, alpha=3.0)
        with pytest.raises(ValueError, match="below"):
            NonlinearitySpec.power(bump_field(g), p=6.0, alpha=3.0)
        with pytest.raises(ValueError, match="alpha"):
            NonlinearitySpec.power(bump_field(g), p=3.0, alpha=1.5)
        qc = ComplexField(g, 1j * bump_field(g).values)
        with pytest.raises(ValueError, match="real"):
            NonlinearitySpec.power(qc, p=3.0, alpha=3.0)

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("p", [math.nan, math.inf])
    def test_power_rejects_non_finite_p(self, dim, p):
        # p = NaN passed both bounds, and 2D has no upper one; a solve then
        # reported diverged after one iteration
        g = small_grid(dim=dim, m=5)
        with pytest.raises(ValueError, match="finite"):
            NonlinearitySpec.power(bump_field(g), p=p, alpha=3.0)

    @pytest.mark.parametrize("p", [2.5, 3.0, 4.0])
    def test_derivative_matches_finite_difference(self, p):
        g = small_grid(m=5)
        Q = bump_field(g, amp=0.8)
        spec = NonlinearitySpec.power(Q, p=p, alpha=3.0)
        rng = np.random.default_rng(2)
        u = ComplexField(g, 0.5 + rng.standard_normal(g.shape) * 0.2
                         + 1j * rng.standard_normal(g.shape) * 0.2)
        v = ComplexField(g, rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape))
        got = nonlinearity_derivative(spec, u, v)
        t = 1e-6
        fp = fields.apply_nonlinearity(spec, ComplexField(g, u.values + t * v.values))
        fm = fields.apply_nonlinearity(spec, ComplexField(g, u.values - t * v.values))
        fd = (fp.values - fm.values) / (2 * t)
        np.testing.assert_allclose(got.values, fd, rtol=1e-6, atol=1e-8)

    def test_derivative_p4_closed_form(self):
        # p = 4: derivative is Q (2|u|^2 v + u^2 conj(v))
        g = small_grid(m=5)
        Q = bump_field(g, amp=1.0)
        spec = NonlinearitySpec.power(Q, p=4.0, alpha=3.0)
        rng = np.random.default_rng(9)
        u = ComplexField(g, rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape))
        v = ComplexField(g, rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape))
        got = nonlinearity_derivative(spec, u, v)
        want = Q.values.real * (2 * np.abs(u.values) ** 2 * v.values
                                + u.values ** 2 * np.conj(v.values))
        np.testing.assert_allclose(got.values, want, rtol=1e-12, atol=1e-14)

    def test_derivative_vanishes_at_zero(self):
        g = small_grid(m=5)
        spec = NonlinearitySpec.power(bump_field(g), p=2.5, alpha=3.0)
        v = ComplexField(g, np.ones(g.shape, dtype=complex))
        out = nonlinearity_derivative(spec, ComplexField.zeros(g), v)
        assert out.sup_norm == 0.0

    def test_affine(self):
        g = small_grid(m=5)
        a = bump_field(g, amp=0.3)
        b = bump_field(g, amp=0.1)
        spec = NonlinearitySpec.affine(a, b, alpha=3.0)
        u = ComplexField(g, np.full(g.shape, 2.0 + 1j))
        out = fields.apply_nonlinearity(spec, u)
        np.testing.assert_allclose(out.values, a.values * u.values + b.values, rtol=1e-14)
        d = nonlinearity_derivative(spec, u, u)
        np.testing.assert_allclose(d.values, a.values * u.values, rtol=1e-14)

    def test_box_is_the_coefficients_support_box(self):
        g = small_grid()
        Q = bump_field(g, amp=-0.7, radius=1.2)
        assert NonlinearitySpec.power(Q, p=3.0, alpha=3.0).box == \
            fields.support_box(Q.values) == ((2, 6),) * 3
        # affine: the box of supp a U supp b
        a_vals = np.zeros(g.shape, dtype=complex)
        b_vals = np.zeros(g.shape, dtype=complex)
        a_vals[3, 4, 4] = 0.5
        b_vals[5, 1, 4] = b_vals[5, 4, 7] = 0.1j
        spec = NonlinearitySpec.affine(ComplexField(g, a_vals), ComplexField(g, b_vals),
                                       alpha=3.0)
        assert spec.box == ((3, 5), (1, 4), (4, 7))
        zero = NonlinearitySpec.affine(ComplexField.zeros(g), ComplexField.zeros(g),
                                       alpha=3.0)
        assert zero.box is None
        out = fields.apply_nonlinearity(zero, ComplexField(g, np.ones(g.shape) + 0j))
        assert np.all(out.values == 0.0)

    @pytest.mark.parametrize("kind", ["power", "affine"])
    def test_box_evaluation_matches_whole_grid_formula(self, kind):
        # evaluated on the box and embedded in zeros: bit for bit the
        # formula on every cell
        g = small_grid(dim=2, m=12)
        if kind == "power":
            spec = NonlinearitySpec.power(bump_field(g, amp=0.9, radius=1.3), p=3.5,
                                          alpha=3.0)
        else:
            spec = NonlinearitySpec.affine(bump_field(g, amp=0.3, radius=0.9),
                                           bump_field(g, amp=-0.2, radius=1.5),
                                           alpha=3.0)
        assert spec.box != ((0, 11),) * 2
        rng = np.random.default_rng(4)
        u = ComplexField(g, rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape))
        np.testing.assert_array_equal(fields.apply_nonlinearity(spec, u).values,
                                      whole_grid_nonlinearity(spec, u).values)

    def test_support_diameter_is_bounding_box_diagonal(self):
        g = small_grid()
        vals = np.zeros(g.shape, dtype=complex)
        vals[2, 4, 4] = vals[5, 6, 4] = -1.0
        # nonzero cells span 4, 3 and 1 cells along the three axes
        want = g.spacing * math.sqrt(16 + 9 + 1)
        Q = ComplexField(g, vals)
        assert fields.support_diameter(Q) == pytest.approx(want, rel=1e-14)
        assert fields.support_diameter(ComplexField.zeros(g)) == 0.0


class TestLipschitzEstimate:
    def test_affine_exact(self):
        g = small_grid(m=7)
        a = bump_field(g, amp=0.4)
        spec = NonlinearitySpec.affine(a, ComplexField.zeros(g), alpha=3.0)
        est = fields.estimate_lipschitz(spec, cap=2.0, seed=1)
        assert est == pytest.approx(fields.weighted_norm(a, 3.0), rel=1e-12)

    def test_power_p3_bounds(self):
        # difference quotient of |u|u on a disc of radius M is at most 2M and
        # reaches (p-1)M at nearby pairs; coefficient norm scales in
        g = small_grid(m=7)
        r = g.radius()
        # Q shaped so its weighted norm is exactly q (max of <x>^3 Q at origin)
        q = 0.6
        vals = q * g.bracket() ** -3.0 * np.where(r < 1.0, 1.0, 0.0)
        Q = ComplexField(g, vals.astype(complex))
        spec = NonlinearitySpec.power(Q, p=3.0, alpha=3.0)
        cap = 2.0
        est = fields.estimate_lipschitz(spec, cap=cap, seed=3)
        assert est <= 2.0 * q * cap * (1 + 1e-9)
        assert est >= 0.95 * 2.0 * q * cap

    def test_power_oracle_brute_force(self):
        # compare the (u, v) search against a coarse lattice oracle
        g = small_grid(m=5)
        vals = np.zeros(g.shape)
        vals[2, 2, 2] = 1.0
        Q = ComplexField(g, vals.astype(complex))
        spec = NonlinearitySpec.power(Q, p=3.0, alpha=3.0)
        cap = 1.0
        est = fields.estimate_lipschitz(spec, cap=cap, seed=0)
        def gfun(z):
            return abs(z) * z
        best = 0.0
        radii = np.linspace(0, cap, 21)
        angs = np.linspace(0, 2 * np.pi, 17, endpoint=False)
        zs = [r * np.exp(1j * a) for r in radii for a in angs]
        zs = zs[:: max(1, len(zs) // 150)]
        for u in zs:
            for v in zs:
                if u != v:
                    best = max(best, abs(gfun(u) - gfun(v)) / abs(u - v))
        # the randomized search must dominate the coarse oracle
        assert est >= best - 1e-9
        assert est <= 2.0 * cap * (1 + 1e-9)

    def test_scaling_in_q(self):
        g = small_grid(m=7)
        Q1 = bump_field(g, amp=0.3)
        Q2 = bump_field(g, amp=0.6)
        s1 = NonlinearitySpec.power(Q1, p=3.0, alpha=3.0)
        s2 = NonlinearitySpec.power(Q2, p=3.0, alpha=3.0)
        e1 = fields.estimate_lipschitz(s1, cap=1.5, seed=7)
        e2 = fields.estimate_lipschitz(s2, cap=1.5, seed=7)
        assert e2 == pytest.approx(2.0 * e1, rel=1e-12)

    def test_deterministic_given_seed(self):
        g = small_grid(m=7)
        spec = NonlinearitySpec.power(bump_field(g), p=3.0, alpha=3.0)
        a = fields.estimate_lipschitz(spec, cap=1.0, seed=42)
        b = fields.estimate_lipschitz(spec, cap=1.0, seed=42)
        assert a == b


class TestAlignedGrids:
    def test_restrict_embed_roundtrip(self):
        outer = Grid(dim=3, half_width=3.0, points_per_axis=13)
        inner = Grid(dim=3, half_width=2.0, points_per_axis=9)  # same spacing 0.5
        f = bump_field(inner, radius=1.5)
        up = embed_field(f, outer)
        back = fields.restrict_field(up, inner)
        np.testing.assert_array_equal(back.values, f.values)
        assert up.sup_norm == f.sup_norm

    def test_misaligned_rejected(self):
        outer = Grid(dim=3, half_width=3.0, points_per_axis=13)
        bad = Grid(dim=3, half_width=2.1, points_per_axis=9)
        with pytest.raises(ValueError):
            fields.restrict_field(ComplexField.zeros(outer), bad)


class TestSerialization:
    def test_roundtrip(self, tmp_path):
        g = Grid(dim=3, half_width=1.5, points_per_axis=7)
        rng = np.random.default_rng(0)
        f = ComplexField(g, rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape))
        path = tmp_path / "field.bin"
        fields.save_field(path, f, k=2.5)
        g2, k = fields.load_field(path)
        assert k == 2.5
        assert g2.grid == g
        np.testing.assert_array_equal(g2.values, f.values)

    def test_deterministic_bytes(self, tmp_path):
        g = Grid(dim=2, half_width=1.0, points_per_axis=6)
        f = ComplexField(g, np.arange(36, dtype=float).reshape(6, 6) * (1 + 2j))
        p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
        fields.save_field(p1, f, k=1.0)
        fields.save_field(p2, f, k=1.0)
        assert p1.read_bytes() == p2.read_bytes()

    def test_truncated_rejected(self, tmp_path):
        g = Grid(dim=2, half_width=1.0, points_per_axis=6)
        f = ComplexField.zeros(g)
        path = tmp_path / "field.bin"
        fields.save_field(path, f, k=1.0)
        raw = path.read_bytes()
        path.write_bytes(raw[:-8])
        with pytest.raises(ValueError, match="truncated"):
            fields.load_field(path)
        path.write_bytes(b"XXXX" + raw[4:])
        with pytest.raises(ValueError, match="not a field file"):
            fields.load_field(path)
