import math
import warnings

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
from oracles import (
    radial_transform_quad,
    real_kernel,
    whole_grid_defocusing,
    whole_grid_defocusing_check,
)

EQUAL_ARCH = 2.0 * math.sqrt(2.0 / math.pi)  # every arch at order 1/2


def kernel_profile(dim, k):
    """The profile fourier_positivity transforms: the real part of Phi_k."""
    nu = (dim - 2) / 2.0
    return lambda s: (-0.25 * (k / (2.0 * math.pi)) ** nu
                      * s ** (-nu) * bessel_y(nu, k * s))


class TestSturm:
    def test_half_order_arches_all_equal(self):
        for r in sturm_check(0.5, 20):
            # rhs the left arch, lhs the right one
            assert r.rhs == pytest.approx(EQUAL_ARCH, abs=1e-10)
            assert r.lhs == pytest.approx(EQUAL_ARCH, abs=1e-10)
            assert abs(r.margin) < 1e-10

    @pytest.mark.parametrize("nu", [0.5, 1.0, 1.5, 2.0, 3.0])
    def test_margins_never_negative(self, nu):
        if nu == 3.0:
            # no dim from 2 to 6 has order 3, so the zero scan rejects it
            with pytest.raises(ValueError, match="the orders of dims 2 to 6; got 3$"):
                sturm_check(nu, 20)
            return
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

    def test_checks_name_their_pair_and_carry_the_tolerance(self):
        checks = sturm_check(1.5, 4, tolerance=1e-6)
        assert [c.name for c in checks] == [f"arch_pair_{m}" for m in range(1, 5)]
        assert all(c.tolerance == 1e-6 and c.satisfied for c in checks)
        # the equal arches of order 1/2 differ by roundoff of either sign,
        # which tolerance 0 fails below 0 and the default passes
        exact = sturm_check(0.5, 5, tolerance=0.0)
        assert [c.satisfied for c in exact] == [c.margin >= 0.0 for c in exact]
        assert all(c.satisfied for c in sturm_check(0.5, 5))

    def test_first_arch_against_mpmath(self):
        mp = pytest.importorskip("mpmath")
        from helmscat.specfun import j_zeros
        j1, j2 = j_zeros(1.0, 2).zeros
        left = mp.quad(lambda t: mp.sqrt(t) * mp.besselj(1, t), [0, j1])
        right = -mp.quad(lambda t: mp.sqrt(t) * mp.besselj(1, t), [j1, j2])
        res = sturm_check(1.0, 1)[0]
        # the t^(3/2) behaviour at the origin costs the first panel accuracy
        assert res.rhs == pytest.approx(float(left), rel=1e-7)
        assert res.lhs == pytest.approx(float(right), rel=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            sturm_check(0.3, 5)
        with pytest.raises(ValueError):
            sturm_check(1.0, 0)
        # a fractional count once raised TypeError from inside the scan
        with pytest.raises(ValueError, match="pairs must be an integer"):
            sturm_check(1.5, 2.5)


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

    @pytest.mark.parametrize("dim", [2, 3, 4, 5, 6])
    def test_tiny_frequency_takes_the_zero_frequency_value(self, dim):
        # below xi upper = 1e-8 the transform is its xi = 0 value to
        # roundoff; J_nu(s xi) and xi^(-nu), formed apart, used to overflow.
        # In dim 5 the Bessel row past the cutoff once read J_3/2 from its
        # cancelling closed form, which is 0 at t = 1e-8
        upper = 1.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            zero = radial_transform(lambda s: s, dim, upper, [0.0])[0]
            tiny = radial_transform(lambda s: s, dim, upper,
                                    [1e-300, 5e-324, 0.99e-8])
            near = radial_transform(lambda s: s, dim, upper, [1e-8, 1e-7])
        assert math.isfinite(zero) and zero > 0.0
        assert list(tiny) == [zero] * 3
        # just past the cutoff the Bessel row gives the same value to
        # roundoff: F(xi) - F(0) is below 1e-14 / (4 (nu + 1)) of F(0) there
        assert np.all(np.abs(near - zero) <= 1e-14 * zero)

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
        for dim in (1, 7):
            with pytest.raises(ValueError, match=f"dims 2 to 6, got {dim}$"):
                radial_transform(lambda s: s, dim, 1.0, [1.0])
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
        ts = [truncation_threshold(n) for n in range(3, 7)]
        assert all(a < b for a, b in zip(ts, ts[1:]))
        for dim in (2, 7, 8, 9):
            with pytest.raises(ValueError, match=f"dims 3 to 6, got {dim}$"):
                truncation_threshold(dim)

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

    def test_result_holds_tuples_of_python_floats(self):
        # the same tuples as a float() per element
        k = 1.3
        res = fourier_positivity(3, k)
        vals = verify._unit_check(3, truncation_threshold(3)) / (k * k)
        assert res.freqs == tuple(float(x) for x in check_freqs(res.delta))
        assert res.values == tuple(float(v) for v in vals)
        assert all(type(x) is float for x in res.freqs + res.values)

    @pytest.mark.parametrize("dim, k, delta", [(3, 1.3, None), (6, 0.7, None),
                                               (4, 1.0, 0.37), (5, 2.5, 1e-3)])
    def test_frequencies_are_built_per_call_bit_for_bit(self, dim, k, delta):
        # the frequencies are one read-only table at delta = 1 divided by
        # delta: the same floats as building the geometric rule per call
        res = fourier_positivity(dim, k, delta)
        assert res.freqs == tuple(check_freqs(res.delta).tolist())
        assert not verify._UNIT_FREQS.flags.writeable

    def test_values_below_float_range_are_zero(self):
        # the transform scales as k^(-2), about 1e-400 here
        res = fourier_positivity(3, k=1e200)
        assert res.min_value == 0.0 and max(res.values) == 0.0

    def test_validation(self):
        for dim in (2, 7):
            with pytest.raises(ValueError, match=f"dims 3 to 6, got {dim}$"):
                fourier_positivity(dim, k=1.0)
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
        # in any order, but finite, each non-finite radius named
        res = energy_identity(ComplexField.zeros(g), K_REF, radii=(1.5, 0.5))
        assert res.radii == (1.5, 0.5)
        for radii in ((0.5, math.nan), (math.inf,)):
            bad = next(r for r in radii if not math.isfinite(r))
            with pytest.raises(ValueError, match=f"radius {bad} is not finite"):
                energy_identity(ComplexField.zeros(g), K_REF, radii=radii)

    @pytest.mark.parametrize("k", [math.nan, math.inf, -math.inf, 0.0, -1.0])
    def test_rejects_k_not_finite_and_positive(self, k):
        # at k = -1 quad_tol was negative, so within() could never hold
        g = Grid(dim=3, half_width=2.0, points_per_axis=12)
        with pytest.raises(ValueError, match="k must be finite and > 0"):
            energy_identity(ComplexField.zeros(g), k, radii=(1.0,))


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


def readme_bump(g):
    """README's coefficient -0.8 exp(-4 r^2) 1[r <= 0.45]."""
    r = g.radius()
    return ComplexField(g, (-0.8 * np.exp(-4.0 * r ** 2) * (r <= 0.45)).astype(complex))


def assert_matches_oracle(checks, want):
    # the box sums hold the whole grid's nonzero terms, grouped differently
    # by pairwise summation: lhs and rhs within 1e-14 relative (bit-identical
    # in most cases, one or two ulp off in the rest), each margin within
    # 1e-14 of its larger side; names, decisions and the diameter exactly
    assert [c.name for c in checks] == [w[0] for w in want]
    for c, (_, lhs, rhs, margin, satisfied) in zip(checks, want):
        assert c.lhs == pytest.approx(lhs, rel=1e-14, abs=0.0)
        assert c.rhs == pytest.approx(rhs, rel=1e-14, abs=0.0)
        assert abs(c.margin - margin) <= 1e-14 * max(abs(lhs), abs(rhs))
        assert c.satisfied == satisfied
    assert checks[-1].lhs == want[-1][1]


class TestDefocusingOnTheBox:
    @pytest.mark.parametrize("m", [10, 16, 32])
    @pytest.mark.parametrize("pad", [0, 2])
    def test_matches_whole_grid_oracle(self, m, pad):
        # README's bump and a converged solve, u on the source grid and on
        # an eval grid padded by 2 cells, read through the grids' offset
        g = Grid(dim=3, half_width=2.0, points_per_axis=m)
        rcfg = ResolventConfig.padded(g, pad)
        Q = readme_bump(g)
        f = NonlinearitySpec.power(Q, p=3.0, alpha=ALPHA)
        phi = make_incident(IncidentWave.plane(K_REF, (1.0, 0.0, 0.0)), rcfg.eval_grid)
        u, rep = picard_solve(f, phi, K_REF, SolverConfig(tol=1e-10), rcfg)
        assert rep.converged and u.grid == rcfg.eval_grid
        assert_matches_oracle(defocusing_inequalities(u, phi, Q, 3.0, k=K_REF),
                              whole_grid_defocusing(u, phi, Q, 3.0, k=K_REF))

    def test_zero_coefficient_matches_oracle(self):
        # no support box: every integral 0, the diameter 0
        g = Grid(dim=3, half_width=2.0, points_per_axis=10)
        rcfg = ResolventConfig.padded(g, 2)
        phi = make_incident(IncidentWave.plane(K_REF, (0.0, 0.6, 0.8)), rcfg.eval_grid)
        zero = ComplexField.zeros(g)
        checks = defocusing_inequalities(phi, phi, zero, 3.0, k=K_REF)
        want = whole_grid_defocusing(phi, phi, zero, 3.0, k=K_REF)
        assert [(c.name, c.lhs, c.rhs, c.margin, c.satisfied) for c in checks] == want
        assert all(c.lhs == 0.0 for c in checks)

    def test_same_errors_as_whole_grid_checks(self):
        g = Grid(dim=3, half_width=2.0, points_per_axis=10)
        phi = make_incident(IncidentWave.plane(K_REF, (1.0, 0.0, 0.0)), g)
        r = g.radius()
        bump = np.exp(-4.0 * r ** 2) * (r <= 0.5)
        edge = np.zeros(g.shape, dtype=complex)
        edge[1:-1, 1:-1, 1:-1] = -1.0
        edge[4, 4, 0] = -0.5
        g2 = Grid(dim=2, half_width=2.0, points_per_axis=10)
        cases = [(ComplexField(g, 0.5 * bump + 0j), 3.0, phi),
                 (ComplexField(g, -0.5j * bump), 3.0, phi),
                 (ComplexField(g, edge), 3.0, phi),
                 (ComplexField(g, np.full(g.shape, -1.0 + 0j)), 3.0, phi),
                 (ComplexField(g, -0.5 * bump + 0j), 8.0, phi),
                 (ComplexField(g, -0.5 * bump + 0j), 2.0, phi),
                 (ComplexField.zeros(g2), 3.0, ComplexField.zeros(g2))]
        for Q, p, u in cases:
            with pytest.raises(ValueError) as want:
                whole_grid_defocusing(u, u, Q, p, k=K_REF)
            with pytest.raises(ValueError) as got:
                defocusing_inequalities(u, u, Q, p, k=K_REF)
            assert str(got.value) == str(want.value)
        for Q, _, _ in cases[:4]:
            with pytest.raises(ValueError) as want:
                whole_grid_defocusing_check(Q)
            with pytest.raises(ValueError) as got:
                verify.check_defocusing_coefficient(Q)
            assert str(got.value) == str(want.value)
        verify.check_defocusing_coefficient(ComplexField(g, edge * (r < 1.5)))

    def test_u_off_the_box_is_never_read(self):
        # u = 1e120 off supp Q gives the margins of u zeroed there; the
        # whole-grid oracle's 0 * inf makes them NaN, which would report a
        # finite iterate as a breach
        g = Grid(dim=3, half_width=2.0, points_per_axis=16)
        rcfg = ResolventConfig.padded(g, 2)
        Q = readme_bump(g)
        phi = make_incident(IncidentWave.plane(K_REF, (1.0, 0.0, 0.0)), rcfg.eval_grid)
        inside = np.zeros(rcfg.eval_grid.shape, dtype=bool)
        inside[(slice(2, -2),) * 3] = Q.values != 0
        tame = ComplexField(rcfg.eval_grid, np.where(inside, phi.values, 0.0))
        wild = ComplexField(rcfg.eval_grid, np.where(inside, phi.values, 1e120))
        checks = defocusing_inequalities(wild, phi, Q, 3.0, k=K_REF)
        assert checks == defocusing_inequalities(tame, phi, Q, 3.0, k=K_REF)
        assert all(c.satisfied for c in checks[:4])
        with np.errstate(over="ignore", invalid="ignore"):
            blind = whole_grid_defocusing(wild, phi, Q, 3.0, k=K_REF)
        assert any(math.isnan(margin) for _, _, _, margin, _ in blind)

