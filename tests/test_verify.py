import math

import numpy as np
import pytest
from scipy.special import y1_zeros

from helmscat import verify
from helmscat.fields import (
    ComplexField,
    Grid,
    IncidentWave,
    NonlinearitySpec,
    make_incident,
)
from helmscat.resolvent import ResolventConfig
from helmscat.solver import SolverConfig, picard_solve
from helmscat.specfun import bessel_y
from helmscat.verify import (
    defocusing_inequalities,
    energy_identity,
    fourier_positivity,
    radial_transform,
    sturm_check,
    truncation_threshold,
)
from oracles import radial_transform_quad, real_kernel

EQUAL_ARCH = 2.0 * math.sqrt(2.0 / math.pi)  # every arch at order 1/2


def kernel_profile(dim, k):
    """The profile fourier_positivity transforms: the real part of Phi_k."""
    nu = (dim - 2) / 2.0
    return lambda s: (-0.25 * (k / (2.0 * math.pi)) ** nu
                      * s ** (-nu) * bessel_y(nu, k * s))


class TestSturm:
    def test_half_order_arches_all_equal(self):
        for r in sturm_check(0.5, 20):
            assert r.left_integral == pytest.approx(EQUAL_ARCH, abs=1e-10)
            assert r.right_integral == pytest.approx(EQUAL_ARCH, abs=1e-10)
            assert abs(r.margin) < 1e-10

    @pytest.mark.parametrize("nu", [0.5, 1.0, 1.5, 2.0, 3.0])
    def test_margins_never_negative(self, nu):
        for r in sturm_check(nu, 20):
            assert r.margin >= -1e-9

    @pytest.mark.parametrize("nu", [1.0, 1.5, 2.0])
    def test_margins_strict_above_half(self, nu):
        margins = [r.margin for r in sturm_check(nu, 20)]
        assert min(margins) > 0.0

    def test_margins_decrease_toward_zero(self):
        margins = [r.margin for r in sturm_check(1.5, 20)]
        assert all(m1 > m2 for m1, m2 in zip(margins, margins[1:]))
        assert margins[-1] < 1e-4

    def test_first_arch_against_mpmath(self):
        mp = pytest.importorskip("mpmath")
        from helmscat.specfun import j_zeros
        j1, j2 = j_zeros(1.0, 2).zeros
        left = mp.quad(lambda t: mp.sqrt(t) * mp.besselj(1, t), [0, j1])
        right = -mp.quad(lambda t: mp.sqrt(t) * mp.besselj(1, t), [j1, j2])
        res = sturm_check(1.0, 1)[0]
        # the t^(3/2) behaviour at the origin costs the first panel accuracy
        assert res.left_integral == pytest.approx(float(left), rel=1e-7)
        assert res.right_integral == pytest.approx(float(right), rel=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            sturm_check(0.3, 5)
        with pytest.raises(ValueError):
            sturm_check(1.0, 0)


def closed_form_3d(k, d, xi):
    """Transform of the truncated 3-d kernel cos(k s)/(4 pi s) by elementary
    integrals: (2 pi)^{-3/2} (1/xi) int_0^d cos(k s) sin(xi s) ds."""
    a, b = xi + k, xi - k
    val = (1.0 - math.cos(a * d)) / (2.0 * a)
    if abs(b) > 1e-14:
        val += (1.0 - math.cos(b * d)) / (2.0 * b)
    return (2.0 * math.pi) ** -1.5 / xi * val


class TestRadialTransform:
    def test_matches_elementary_integral_3d(self):
        k, d = 1.3, 1.1
        freqs = np.array([0.4, 1.0, 1.3, 2.7, 9.3, 24.0])
        vals = radial_transform(kernel_profile(3, k), 3, d, freqs)
        for xi, v in zip(freqs, vals):
            assert v == pytest.approx(closed_form_3d(k, d, xi), abs=1e-14)

    def test_zero_frequency_is_scaled_ball_integral(self):
        k, d = 1.3, 1.1
        vals = radial_transform(kernel_profile(3, k), 3, d, np.array([0.0]))
        plain = (math.cos(k * d) - 1.0 + k * d * math.sin(k * d)) / k ** 2
        assert vals[0] == pytest.approx((2.0 * math.pi) ** -1.5 * plain,
                                        rel=1e-12)

    @pytest.mark.parametrize("dim", [3, 5])
    def test_synthetic_nonincreasing_profile(self, dim):
        freqs = np.concatenate(([0.0], np.geomspace(0.1, 50.0, 60)))
        vals = radial_transform(lambda s: s ** (-(dim - 1) / 2.0), dim, 1.0, freqs)
        assert vals.min() >= -1e-8

    @pytest.mark.parametrize("dim", [2, 3, 4, 5, 6])
    @pytest.mark.parametrize("profile", ["kernel", "decay", "linear"])
    def test_batched_matches_panel_oracle(self, dim, profile):
        # against quad on the panels between multiples of pi / max(xi, 1),
        # with the kernel by scipy's yv
        upper = 1.1
        profiles = {"kernel": (kernel_profile(dim, 1.3), real_kernel(dim, 1.3)),
                    "decay": (lambda s: s ** (-(dim - 1) / 2.0),) * 2,
                    "linear": (lambda s: s,) * 2}
        freqs = np.concatenate(([0.0, 2.0, 0.5],
                                np.geomspace(0.1, 60.0, 13) / upper))
        ours, theirs = profiles[profile]
        got = radial_transform(ours, dim, upper, freqs)
        want = radial_transform_quad(theirs, dim, upper, freqs)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("dim", [3, 4, 5, 6])
    @pytest.mark.parametrize("radius", [None, 20.0, 100.0, 400.0])
    def test_unit_check_matches_quad_oracle(self, dim, radius):
        # the k = 1 check at the threshold radius and past it; at k delta =
        # 100 and 400 the kernel oscillates faster than J_nu(s xi) at every
        # frequency
        res = fourier_positivity(dim, 1.0, delta=radius)
        freqs = np.array(res.freqs[::15])
        got = np.array(res.values[::15])
        want = radial_transform_quad(real_kernel(dim, 1.0), dim, res.delta, freqs)
        scale = np.max(np.abs(want))
        assert np.max(np.abs(got - want)) <= 1e-12 * scale
        if dim == 3 and radius in (100.0, 400.0):
            exact = [closed_form_3d(1.0, radius, xi) for xi in freqs[1:]]
            assert np.max(np.abs(got[1:] - exact)) <= 1e-12 * scale

    @pytest.mark.parametrize("dim", [3, 4, 5, 6])
    def test_fourier_positivity_matches_panel_oracle(self, dim):
        # the k = 1 check on the ball of radius k delta, to the bit, divided
        # by k^2; the direct evaluation at k is test_dilation_matches_direct_oracle
        for k, delta in ((0.5, None), (0.8, None), (1.7, None), (0.8, 2.3)):
            res = fourier_positivity(dim, k, delta=delta)
            assert delta is None or res.delta == delta
            radius = truncation_threshold(dim) if delta is None else k * delta
            unit = radial_transform(kernel_profile(dim, 1.0), dim, radius,
                                    check_freqs(radius))
            np.testing.assert_array_equal(res.values, unit / (k * k))

    @pytest.mark.parametrize("n_freqs", [1, 7, 180])
    def test_one_bessel_call_and_zero_table_per_transform(self, monkeypatch,
                                                          n_freqs):
        # one Bessel evaluation, whatever the number of frequencies, and no
        # zero table; the arch check takes one of each, whatever the number
        # of arches
        calls = []

        def counted(name):
            original = getattr(verify, name)

            def wrapper(*args):
                calls.append(name)
                return original(*args)
            return wrapper

        for name in ("bessel_j", "j_zeros"):
            monkeypatch.setattr(verify, name, counted(name))
        freqs = np.concatenate(([0.0], np.geomspace(0.1, 60.0, n_freqs)))
        radial_transform(kernel_profile(4, 1.0), 4, 1.5, freqs)
        assert calls == ["bessel_j"]
        calls.clear()
        sturm_check(1.5, n_freqs)
        assert sorted(calls) == ["bessel_j", "j_zeros"]

    def test_validation(self):
        with pytest.raises(ValueError):
            radial_transform(lambda s: s, 1, 1.0, [1.0])
        for upper in (-1.0, 0.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="upper"):
                radial_transform(lambda s: s, 3, upper, [1.0])
        with pytest.raises(ValueError):
            radial_transform(lambda s: s, 3, 1.0, [-1.0])

    def test_node_table_within_the_memory_cap(self):
        # the check's 181 frequencies admit k delta up to about 2270
        freqs = check_freqs(2000.0)
        vals = radial_transform(kernel_profile(3, 1.0), 3, 2000.0, freqs)
        assert np.all(np.isfinite(vals))
        for upper, xs in ((2300.0, check_freqs(2300.0)), (1.0, [1e300]),
                          (1e300, [1.0])):
            with pytest.raises(ValueError, match="memory cap"):
                radial_transform(kernel_profile(3, 1.0), 3, upper, xs)


def check_freqs(delta):
    """fourier_positivity's frequencies for the ball of radius delta."""
    return np.concatenate(([0.0], np.geomspace(0.1, 60.0, 180) / delta))


class TestFourierPositivity:
    def test_threshold_values(self):
        assert truncation_threshold(3) == pytest.approx(math.pi / 2.0, abs=1e-12)
        assert truncation_threshold(4) == pytest.approx(y1_zeros(1)[0][0].real,
                                                        abs=1e-10)
        ts = [truncation_threshold(n) for n in range(3, 10)]
        assert all(a < b for a, b in zip(ts, ts[1:]))

    @pytest.mark.parametrize("dim", [3, 4, 5, 6])
    @pytest.mark.parametrize("k", [0.5, 1.0, 2.0])
    def test_nonnegative_at_threshold(self, dim, k):
        freqs = np.concatenate(([0.0], np.geomspace(0.1, 60.0, 60)))
        delta = truncation_threshold(dim) / k
        vals = radial_transform(kernel_profile(dim, k), dim, delta, freqs / delta)
        assert vals.min() >= -1e-8

    def test_nonnegative_below_threshold(self):
        res = fourier_positivity(3, k=1.0, delta=0.5 * truncation_threshold(3))
        assert res.min_value >= -1e-8

    def test_detector_sees_negativity_past_threshold(self):
        # sufficiency only: at 1.2x the threshold the transform happens to
        # stay positive, by 1.5x it dips clearly negative
        res = fourier_positivity(3, k=1.0, delta=1.5 * truncation_threshold(3))
        assert res.min_value < -1e-4
        assert not res.nonnegative

    def test_default_delta_is_threshold(self):
        res = fourier_positivity(3, k=2.0)
        assert res.delta == pytest.approx(truncation_threshold(3) / 2.0, rel=1e-14)

    @pytest.mark.parametrize("dim", [3, 4, 5, 6])
    def test_dilation_matches_direct_oracle(self, dim):
        # the k = 1 check at k delta, divided by k^2, against the transform
        # of the kernel at k itself, value by value
        for k, delta in ((0.1, None), (0.5, None), (1.7, None), (17.0, None),
                         (0.5, 2.3), (0.8, 2.3), (1.7, 2.3)):
            res = fourier_positivity(dim, k, delta=delta)
            want = radial_transform(kernel_profile(dim, k), dim,
                                    res.delta, res.freqs)
            np.testing.assert_allclose(res.values, want, rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("dim", [3, 4, 5, 6])
    def test_unit_wavenumber_is_the_direct_evaluation(self, dim):
        res = fourier_positivity(dim, 1.0)
        want = radial_transform(kernel_profile(dim, 1.0), dim,
                                res.delta, res.freqs)
        np.testing.assert_array_equal(res.values, want)

    def test_sweep_transforms_once_per_dimension(self, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args[1])
            return radial_transform(*args)
        monkeypatch.setattr(verify, "radial_transform", counted)
        verify._unit_check.cache_clear()
        for k in (0.5, 0.6, 0.7, 0.8, 0.9, 1.0):
            for dim in (3, 4, 5, 6):
                fourier_positivity(dim, k)
        assert sorted(calls) == [3, 4, 5, 6]

    def test_values_below_float_range_are_zero(self):
        # the transform scales as k^(-2), about 1e-400 here
        res = fourier_positivity(3, k=1e200)
        assert res.min_value == 0.0 and max(res.values) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            fourier_positivity(2, k=1.0)
        with pytest.raises(ValueError):
            fourier_positivity(3, k=-1.0)
        with pytest.raises(ValueError):
            fourier_positivity(3, k=1.0, delta=0.0)
        for k in (math.nan, math.inf):
            for delta in (None, 1.0):
                with pytest.raises(ValueError):
                    fourier_positivity(3, k=k, delta=delta)
        for tolerance in (math.nan, -1e-8):
            with pytest.raises(ValueError, match="tolerance"):
                fourier_positivity(3, k=1.0, tolerance=tolerance)
        # about 1e600 at k = 1e-300; NaN on a ball of radius 1e-300, where
        # the kernel overflows
        for k, delta in ((1e-300, None), (1.0, 1e-300)):
            with pytest.raises(ValueError, match="not finite"):
                fourier_positivity(3, k=k, delta=delta)


K_REF = 1.0
ALPHA = 3.0


def scattering_setup(points=12, half_width=2.0, amp=-0.8, cutoff=0.45):
    g = Grid(dim=3, half_width=half_width, points_per_axis=points)
    rcfg = ResolventConfig(source_grid=g, eval_grid=g)
    r = g.radius()
    Q = ComplexField(g, (amp * np.exp(-4.0 * r ** 2) * (r <= cutoff)).astype(complex))
    f = NonlinearitySpec.power(Q, p=3.0, alpha=ALPHA)
    phi = make_incident(IncidentWave.plane(K_REF, (1.0, 0.0, 0.0)), g)
    return rcfg, Q, f, phi


class TestEnergyIdentity:
    def test_zero_field_zero_flux(self):
        g = Grid(dim=3, half_width=2.0, points_per_axis=16)
        res = energy_identity(ComplexField.zeros(g), K_REF, radii=(0.5, 1.0))
        assert res.flux_imag == (0.0, 0.0)
        assert res.within()

    def test_point_source_control(self):
        g = Grid(dim=3, half_width=3.0, points_per_axis=48)
        r = g.radius()
        u = ComplexField(g, np.exp(1j * K_REF * r) / (4.0 * np.pi * r))
        res = energy_identity(u, K_REF, radii=(1.0, 1.5, 2.0))
        target = K_REF / (4.0 * np.pi)
        for flux, tol in zip(res.flux_imag, res.quad_tol):
            assert flux == pytest.approx(target, rel=0.05)
            assert abs(flux - target) <= tol

    def test_scattering_solution_flux_vanishes(self):
        g = Grid(dim=3, half_width=3.0, points_per_axis=32)
        rcfg = ResolventConfig(source_grid=g, eval_grid=g)
        r = g.radius()
        Q = ComplexField(g, (-0.5 * np.exp(-2.0 * r ** 2) * (r <= 1.5)).astype(complex))
        f = NonlinearitySpec.power(Q, p=3.0, alpha=ALPHA)
        phi = make_incident(IncidentWave.plane(K_REF, (1.0, 0.0, 0.0)), g)
        u, rep = picard_solve(f, phi, K_REF, SolverConfig(tol=1e-12), rcfg)
        assert rep.converged
        res = energy_identity(u, K_REF, Q=Q, p=3.0, radii=(1.2, 1.8, 2.4))
        assert res.within()
        for flux in res.flux_imag:
            assert abs(flux) < 5e-3
        flags = [s["encloses_support"] for s in res.context["shells"]]
        assert flags == [False, True, True]

    def test_homogeneous_defocusing_flux(self):
        rcfg, Q, f, _ = scattering_setup()
        phi0 = ComplexField.zeros(rcfg.eval_grid)
        u, rep = picard_solve(f, phi0, K_REF, SolverConfig(), rcfg)
        assert rep.converged
        res = energy_identity(u, K_REF, Q=Q, p=3.0, radii=(0.8, 1.5))
        assert res.within()
        for flux in res.flux_imag:
            assert abs(flux) <= 1e-13

    def test_radius_validation(self):
        g = Grid(dim=3, half_width=2.0, points_per_axis=12)
        with pytest.raises(ValueError):
            energy_identity(ComplexField.zeros(g), K_REF, radii=(2.5,))
        with pytest.raises(ValueError):
            energy_identity(ComplexField.zeros(g), K_REF, radii=(0.0,))
        with pytest.raises(ValueError, match="nonempty"):
            energy_identity(ComplexField.zeros(g), K_REF, radii=())


class TestDefocusing:
    def test_chain_holds_on_solve(self):
        rcfg, Q, f, phi = scattering_setup()
        u, rep = picard_solve(f, phi, K_REF, SolverConfig(tol=1e-12), rcfg)
        assert rep.converged
        checks = defocusing_inequalities(u, phi, Q, 3.0, k=K_REF)
        names = [c.name for c in checks]
        assert names == ["defocusing_first_bound", "weighted_mass_p_minus_1",
                         "weighted_mass_p", "source_dual_norm",
                         "support_diameter"]
        for c in checks:
            assert c.satisfied
            assert c.margin >= -1e-10
        assert checks[0].margin > 0.0

    def test_zero_coefficient_is_tight(self):
        g = Grid(dim=3, half_width=2.0, points_per_axis=10)
        phi = make_incident(IncidentWave.plane(K_REF, (1.0, 0.0, 0.0)), g)
        *chain, diameter = defocusing_inequalities(phi, phi, ComplexField.zeros(g),
                                                   3.0, k=K_REF)
        for c in chain:
            assert c.lhs == 0.0
            assert c.rhs == 0.0
            assert c.margin == 0.0
            assert c.satisfied
        # an empty support has diameter 0, strictly inside z/k
        assert diameter.name == "support_diameter"
        assert diameter.lhs == 0.0
        assert diameter.margin == diameter.rhs == math.pi / 2.0
        assert diameter.satisfied

    def test_sign_and_support_validation(self):
        g = Grid(dim=3, half_width=2.0, points_per_axis=10)
        phi = make_incident(IncidentWave.plane(K_REF, (1.0, 0.0, 0.0)), g)
        r = g.radius()
        pos = ComplexField(g, (0.5 * np.exp(-4.0 * r ** 2) * (r <= 0.5)).astype(complex))
        with pytest.raises(ValueError, match="nonpositive"):
            defocusing_inequalities(phi, phi, pos, 3.0, k=K_REF)
        cplx = ComplexField(g, (-0.5j * np.exp(-4.0 * r ** 2) * (r <= 0.5)))
        with pytest.raises(ValueError, match="real"):
            defocusing_inequalities(phi, phi, cplx, 3.0, k=K_REF)
        full = ComplexField(g, np.full(g.shape, -1.0, dtype=complex))
        with pytest.raises(ValueError, match="boundary"):
            defocusing_inequalities(phi, phi, full, 3.0, k=K_REF)
        ok = ComplexField(g, (-0.5 * np.exp(-4.0 * r ** 2) * (r <= 0.5)).astype(complex))
        with pytest.raises(ValueError, match="p must"):
            defocusing_inequalities(phi, phi, ok, 8.0, k=K_REF)

    def test_dim2_rejected(self):
        g = Grid(dim=2, half_width=2.0, points_per_axis=10)
        zero = ComplexField.zeros(g)
        with pytest.raises(ValueError, match="dim"):
            defocusing_inequalities(zero, zero, zero, 3.0, k=K_REF)

