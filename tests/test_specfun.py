import json
import math
import os
import pathlib
import subprocess
import sys

import mpmath as mp
import numpy as np
import pytest

from helmscat import specfun
from oracles import (
    BRENT_RTOL,
    BRENT_XTOL,
    bisect,
    brentq_zeros,
    cyl_derivative,
    generic_bessel,
    j0_series,
    verify_brackets,
)

# Anchors computed with independent oracles (power-series bisection for J_0,
# 30-digit mpmath for the rest) and frozen here.
FIRST_J0_ZERO = 2.4048255576957728
FIRST_Y0_ZERO = 0.8935769662791675


class TestEvaluation:
    @pytest.mark.parametrize("nu", [0.0, 0.5, 1.0, 1.5, 2.0, 3.5, 6.5])
    @pytest.mark.parametrize("t", [1e-6, 1e-3, 0.1, 1.0, 7.3, 42.0, 1e3, 1e4])
    def test_j_against_mpmath(self, nu, t):
        got = specfun.bessel_j(nu, t)
        want = float(mp.besselj(nu, t))
        envelope = math.sqrt(2.0 / (math.pi * t)) + abs(want)
        assert got == pytest.approx(want, rel=1e-12, abs=1e-12 * envelope)

    @pytest.mark.parametrize("nu", [0.0, 0.5, 1.0, 1.5, 2.0, 3.5, 6.5])
    @pytest.mark.parametrize("t", [1e-3, 0.1, 1.0, 7.3, 42.0, 1e3, 1e4])
    def test_y_against_mpmath(self, nu, t):
        got = specfun.bessel_y(nu, t)
        want = float(mp.bessely(nu, t))
        envelope = math.sqrt(2.0 / (math.pi * t)) + abs(want)
        assert got == pytest.approx(want, rel=1e-12, abs=1e-12 * envelope)

    @pytest.mark.parametrize("t", np.geomspace(1e-6, 1e4, 13).tolist())
    def test_half_order_closed_form_matches_generic(self, t):
        # fast path vs the generic backend, both routes kept alive
        envelope = math.sqrt(2.0 / (math.pi * t))
        assert specfun.bessel_j(0.5, t) == pytest.approx(
            generic_bessel("J", 0.5, t), rel=1e-11, abs=1e-11 * envelope)
        assert specfun.bessel_y(0.5, t) == pytest.approx(
            generic_bessel("Y", 0.5, t), rel=1e-11, abs=1e-11 * envelope)
        assert specfun.bessel_j(1.5, t) == pytest.approx(
            generic_bessel("J", 1.5, t), rel=1e-11,
            abs=1e-11 * envelope * max(1.0, 1.0 / t))
        assert specfun.bessel_y(1.5, t) == pytest.approx(
            generic_bessel("Y", 1.5, t), rel=1e-11,
            abs=1e-11 * envelope * max(1.0, 1.0 / t))

    @pytest.mark.parametrize("nu", [0.0, 1.0, 2.0])
    @pytest.mark.parametrize("kind", ["J", "Y"])
    def test_integer_order_closed_form_matches_generic(self, kind, nu):
        # the module's accuracy claim: 1e-12 relative to the larger of the
        # value and the envelope sqrt(2/(pi t))
        t = np.geomspace(1e-6, 1e4, 4001)
        fn = specfun.bessel_j if kind == "J" else specfun.bessel_y
        want = generic_bessel(kind, nu, t)
        scale = np.maximum(np.abs(want), np.sqrt(2.0 / (np.pi * t)))
        assert np.all(np.abs(fn(nu, t) - want) <= 1e-12 * scale)

    def test_j2_series_region_is_relatively_accurate(self):
        # below t = 1 the recurrence 2 J_1/t - J_0 cancels; the series holds
        # full relative accuracy down to t = 1e-6, where J_2 ~ 1.25e-13
        t = np.geomspace(1e-6, 1.0, 2001)
        want = generic_bessel("J", 2.0, t)
        np.testing.assert_allclose(specfun.bessel_j(2.0, t), want,
                                   rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("nu", [0.0, 0.5, 1.5, 2.0])
    def test_hankel_is_j_plus_iy(self, nu):
        t = np.geomspace(1e-3, 1e3, 25)
        h = specfun.hankel1(nu, t)
        jy = specfun.bessel_j(nu, t) + 1j * specfun.bessel_y(nu, t)
        np.testing.assert_allclose(h, jy, rtol=1e-11, atol=1e-14)

    @pytest.mark.parametrize("nu", [0.0, 0.5, 1.0, 2.0])
    def test_wronskian(self, nu):
        # J_nu Y'_nu - J'_nu Y_nu = 2/(pi t) at 1000 random points
        rng = np.random.default_rng(7)
        t = rng.uniform(0.1, 100.0, size=1000)
        j = specfun.bessel_j(nu, t)
        y = specfun.bessel_y(nu, t)
        jp = cyl_derivative(specfun.bessel_j, nu, t)
        yp = cyl_derivative(specfun.bessel_y, nu, t)
        np.testing.assert_allclose(j * yp - jp * y, 2.0 / (np.pi * t),
                                   rtol=0.0, atol=1e-10)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            specfun.bessel_j(0.5, 0.0)
        with pytest.raises(ValueError):
            specfun.bessel_y(1.0, -1.0)
        with pytest.raises(ValueError):
            specfun.hankel1(-0.5, 1.0)
        with pytest.raises(ValueError):
            specfun.bessel_j(0.5, np.array([1.0, np.nan]))

    def test_array_and_scalar_shapes(self):
        t = np.array([[0.5, 2.0], [3.0, 4.0]])
        for fn in (specfun.bessel_j, specfun.bessel_y):
            for nu in (0.0, 0.5, 1.0, 1.5, 2.0, 2.5):
                assert fn(nu, t).shape == (2, 2)
                # 0.5 takes J_2's series, 2.0 its recurrence
                assert isinstance(fn(nu, 0.5), float)
                assert isinstance(fn(nu, 2.0), float)


def mp_hankel(nu, t) -> np.ndarray:
    """H^(1)_nu at each t by 30-digit mpmath."""
    with mp.workdps(30):
        return np.array([complex(mp.hankel1(nu, mp.mpf(float(x))))
                         for x in np.atleast_1d(t)])


def envelope_error(got, want, t) -> np.ndarray:
    """|got - want| over max(|want|, sqrt(2/(pi t)))."""
    return np.abs(got - want) / np.maximum(np.abs(want), np.sqrt(2.0 / (np.pi * t)))


def switch_points(*cuts) -> np.ndarray:
    """300 log-spaced t in [1e-6, 1e4], and each switch point of the order 0
    and 1 evaluation and each of cuts, each with the floats next to it."""
    return np.concatenate([np.geomspace(1e-6, 1e4, 300)]
                          + [[np.nextafter(s, 0.0), s, np.nextafter(s, np.inf)]
                             for s in [band[0] for band in specfun._HANKEL_BANDS]
                             + list(cuts)])


class TestHankelOrderZero:
    # H^(1)_0 is evaluated with numpy alone; the accuracy bar is 2e-15 of
    # the envelope max(|H_0|, sqrt(2/(pi t)))
    BAR = 2e-15

    def test_against_mpmath_across_every_switch_point(self):
        # the series gives way to the first band, and each band to the next
        t = switch_points()
        err = envelope_error(specfun.hankel1(0.0, t), mp_hankel(0, t), t)
        assert np.all(err <= self.BAR), (err.max(), t[err.argmax()])

    def test_j0_and_y0_are_its_parts(self):
        t = np.geomspace(1e-6, 1e4, 2001)
        h = specfun.hankel1(0.0, t)
        np.testing.assert_array_equal(specfun.bessel_j(0.0, t), h.real)
        np.testing.assert_array_equal(specfun.bessel_y(0.0, t), h.imag)

    def test_value_does_not_depend_on_the_call(self):
        # blocks of specfun._HANKEL_BLOCK points: a point gives the same bits
        # alone as anywhere in a call that spans several blocks
        t = np.random.default_rng(3).uniform(0.01, 40.0, 3 * specfun._HANKEL_BLOCK + 5)
        h = specfun.hankel1(0.0, t.reshape(-1, 1))[:, 0]
        for i in range(0, t.size, 97):
            assert specfun.hankel1(0.0, t[i]) == h[i]

    @pytest.mark.parametrize("t", [1e3, 1e4])
    def test_j0_and_y0_meet_the_bar_at_large_argument(self, t):
        # scipy's j0 and y0 are 5e-13 of the envelope off here
        want = mp_hankel(0, t)[0]
        env = max(abs(want), math.sqrt(2.0 / (math.pi * t)))
        assert abs(specfun.bessel_j(0.0, t) - want.real) <= self.BAR * env
        assert abs(specfun.bessel_y(0.0, t) - want.imag) <= self.BAR * env

    @pytest.mark.parametrize("t", [5e-324, 1e-300, 2.3e15, 1e300])
    def test_finite_and_accurate_at_extreme_arguments(self, t):
        # scipy's hankel1(0, t) is NaN at a subnormal t and from t = 2.27e15
        # on; the bar holds relative to |H_0| itself here
        want = mp_hankel(0, t)[0]
        got = specfun.hankel1(0.0, t)
        assert abs(got - want) <= self.BAR * abs(want)
        assert specfun.bessel_y(0.0, t) == got.imag
        assert abs(specfun.fundamental_solution(1.0, t, 2) - 0.25j * want) <= (
            self.BAR * 0.25 * abs(want))

    def test_order_zero_and_the_2d_point_source_load_no_scipy(self):
        code = ("import json, sys\nimport numpy as np\nfrom helmscat import specfun\n"
                "t = np.geomspace(1e-3, 1e3, 50)\n"
                "specfun.hankel1(0.0, t); specfun.bessel_j(0.0, t)\n"
                "specfun.bessel_y(0.0, 2.0); specfun.fundamental_solution(1.5, t, 2)\n"
                "print(json.dumps(sorted(m for m in sys.modules\n"
                "                        if m.split('.')[0] == 'scipy')))\n")
        src = pathlib.Path(specfun.__file__).parents[1]
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, timeout=60, check=True,
                              env={**os.environ, "PYTHONPATH": str(src)})
        assert json.loads(proc.stdout) == []


class TestHankelOrdersOneAndTwo:
    # H^(1)_1 is evaluated with numpy alone and H^(1)_2 by one recurrence
    # step from it and H^(1)_0; both meet order zero's bar
    BAR = TestHankelOrderZero.BAR

    @pytest.mark.parametrize("nu", [1.0, 2.0])
    def test_against_mpmath_across_every_switch_point(self, nu):
        # order 2 also switches to J_2's power series below _J2_SERIES_CUT
        t = switch_points(specfun._J2_SERIES_CUT)
        err = envelope_error(specfun.hankel1(nu, t), mp_hankel(nu, t), t)
        assert np.all(err <= self.BAR), (err.max(), t[err.argmax()])

    @pytest.mark.parametrize("nu", [1.0, 2.0])
    def test_j_and_y_are_its_parts(self, nu):
        t = np.geomspace(1e-6, 1e4, 2001)
        h = specfun.hankel1(nu, t)
        np.testing.assert_array_equal(specfun.bessel_j(nu, t), h.real)
        np.testing.assert_array_equal(specfun.bessel_y(nu, t), h.imag)

    @pytest.mark.parametrize("t", [1e3, 1e4])
    def test_j1_and_y1_meet_the_bar_at_large_argument(self, t):
        # scipy's j1 and y1 are 2e-13 of the envelope off near here
        want = mp_hankel(1, t)[0]
        env = max(abs(want), math.sqrt(2.0 / (math.pi * t)))
        assert abs(specfun.bessel_j(1.0, t) - want.real) <= self.BAR * env
        assert abs(specfun.bessel_y(1.0, t) - want.imag) <= self.BAR * env

    @pytest.mark.parametrize("t", [5e-309, 1e-300, 3e15, 1e300])
    def test_finite_and_accurate_at_extreme_arguments(self, t):
        # scipy's hankel1(1, t) is NaN from t = 3e15 on
        want = mp_hankel(1, t)[0]
        got = specfun.hankel1(1.0, t)
        assert abs(got - want) <= self.BAR * abs(want)

    @pytest.mark.parametrize("dim", [4, 6])
    @pytest.mark.parametrize("r", [3e15, 1e300])
    def test_point_source_is_finite_at_a_huge_radius(self, dim, r):
        # these raised "r too close to 0" when H_1 and H_2 came from scipy;
        # at 1e300 the value underflows to 0
        nu = (dim - 2) // 2
        with mp.workdps(30):
            want = complex(0.25j * (1.0 / (2.0 * mp.pi * r)) ** nu
                           * mp.hankel1(nu, mp.mpf(r)))
        got = specfun.fundamental_solution(1.0, r, dim)
        assert abs(got - want) <= self.BAR * abs(want)

    @pytest.mark.parametrize("dim", [4, 6])
    def test_point_source_still_raises_at_a_tiny_radius(self, dim):
        with pytest.raises(OverflowError, match="r too close to 0"):
            specfun.fundamental_solution(1.0, 1e-170, dim)

    def test_generic_order_at_a_huge_radius_blames_no_small_r(self):
        # dim 7 takes scipy's hankel1 at order 5/2, NaN at k r = 1e300
        with pytest.raises(ValueError, match="not finite at k r = 1e"):
            specfun.fundamental_solution(1.0, np.array([1.0, 1e300]), 7)

    @pytest.mark.parametrize("nu, bracket", [(1.0, (2.0, 2.5)), (2.0, (3.0, 3.6))])
    def test_first_y_zero_is_within_two_ulp_of_scipy(self, nu, bracket):
        want = bisect(lambda x: generic_bessel("Y", nu, x), *bracket)
        assert abs(specfun.first_y_zero(nu) - want) <= 2.0 * np.spacing(want)

    def test_orders_one_and_two_load_no_scipy(self):
        code = ("import json, sys\nimport numpy as np\nfrom helmscat import specfun\n"
                "t = np.geomspace(1e-3, 1e3, 50)\n"
                "for nu in (1.0, 2.0):\n"
                "    specfun.hankel1(nu, t); specfun.bessel_j(nu, t)\n"
                "    specfun.bessel_y(nu, 2.0); specfun.first_y_zero(nu)\n"
                "specfun.fundamental_solution(1.5, t, 4)\n"
                "specfun.fundamental_solution(1.5, t, 6)\n"
                "print(json.dumps(sorted(m for m in sys.modules\n"
                "                        if m.split('.')[0] == 'scipy')))\n")
        src = pathlib.Path(specfun.__file__).parents[1]
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, timeout=60, check=True,
                              env={**os.environ, "PYTHONPATH": str(src)})
        assert json.loads(proc.stdout) == []


class TestFundamentalSolution:
    @pytest.mark.parametrize("k", [0.5, 1.0, 2.0])
    def test_dim3_closed_form(self, k):
        r = np.geomspace(1e-3, 100.0, 400)
        got = specfun.fundamental_solution(k, r, 3)
        want = np.exp(1j * k * r) / (4.0 * np.pi * r)
        np.testing.assert_allclose(got, want, rtol=1e-10)

    def test_dim3_magnitude_near_field(self):
        # |H_{1/2}| is exactly sqrt(2/(pi t)), so |Phi| = 1/(4 pi r) exactly
        r = np.array([1e-4, 1e-3, 1e-2])
        got = np.abs(specfun.fundamental_solution(2.0, r, 3))
        np.testing.assert_allclose(got, 1.0 / (4.0 * np.pi * r), rtol=1e-12)

    def test_dim2_is_quarter_i_hankel(self):
        r = np.geomspace(1e-3, 50.0, 100)
        got = specfun.fundamental_solution(1.3, r, 2)
        want = 0.25j * specfun.hankel1(0.0, 1.3 * r)
        np.testing.assert_allclose(got, want, rtol=1e-12)

    def test_far_field_decay_rate(self):
        # |Phi| ~ r^{(1-dim)/2} for large r
        for dim in (2, 3):
            a = np.abs(specfun.fundamental_solution(1.0, 200.0, dim))
            b = np.abs(specfun.fundamental_solution(1.0, 800.0, dim))
            assert a / b == pytest.approx(4.0 ** ((dim - 1) / 2.0), rel=0.02)

    def test_domain_and_overflow_guard(self):
        with pytest.raises(ValueError):
            specfun.fundamental_solution(1.0, 0.0, 3)
        with pytest.raises(OverflowError):
            specfun.fundamental_solution(1.0, 1e-320, 3)
        with pytest.raises(ValueError):
            specfun.fundamental_solution(0.0, 1.0, 3)
        with pytest.raises(ValueError):
            specfun.fundamental_solution(1.0, 1.0, 1)
        for k in (np.nan, np.inf, None):
            with pytest.raises(ValueError, match="k must be finite and > 0"):
                specfun.fundamental_solution(k, 1.0, 3)
        for dim in (2.5, True):
            with pytest.raises(ValueError, match="dim must be an integer >= 2"):
                specfun.fundamental_solution(1.0, 1.0, dim)


class TestZeros:
    def test_first_j0_zero_against_series_oracle(self):
        # independent route: power series + bisection
        oracle = bisect(j0_series, 2.0, 3.0)
        assert oracle == pytest.approx(FIRST_J0_ZERO, abs=1e-13)
        assert specfun.j_zeros(0.0, 1).zeros[0] == pytest.approx(FIRST_J0_ZERO, abs=1e-12)

    def test_first_y0_zero(self):
        assert specfun.first_y_zero(0.0) == pytest.approx(FIRST_Y0_ZERO, abs=1e-12)

    def test_first_y_half_zero_is_half_pi(self):
        # Y_{1/2}(t) = -sqrt(2/(pi t)) cos t vanishes first at pi/2
        assert specfun.first_y_zero(0.5) == pytest.approx(math.pi / 2.0, abs=1e-12)

    def test_first_y_zero_monotone_in_order(self):
        orders = [0.5 * (n - 2) for n in range(3, 16)]
        zs = [specfun.first_y_zero(nu) for nu in orders]
        assert all(b > a for a, b in zip(zs, zs[1:]))

    @pytest.mark.parametrize("nu", [0.0, 0.5, 1.0, 2.5])
    def test_j_zero_tables(self, nu):
        table = specfun.j_zeros(nu, 12)
        assert len(table.zeros) == 12
        assert verify_brackets(table)
        diffs = np.diff(table.zeros)
        # spacing approaches pi and never collapses
        assert np.all(diffs > 2.8)

    def test_j_zeros_match_scipy_integer_orders(self):
        from scipy import special

        for n in (0, 1, 2):
            want = special.jn_zeros(n, 10)
            got = specfun.j_zeros(float(n), 10).zeros
            np.testing.assert_allclose(got, want, rtol=1e-12)

    def test_high_order_zero_doubles_the_scan(self):
        # the first zero of J_200, near 211, lies past the scan's first
        # lattice of 8 + 16 + 509 steps (t < 210), which doubles; J_200
        # underflows to 0 on the lattice's first nodes, which are no zeros
        from scipy import special

        got = specfun.j_zeros(200.0, 1).zeros
        np.testing.assert_allclose(got, special.jn_zeros(200, 1), rtol=1e-12)

    @pytest.mark.parametrize("kind", ["J", "Y"])
    @pytest.mark.parametrize("nu", [0.0, 0.5, 1.0, 1.5, 2.0, 2.5])
    def test_vectorized_scan_matches_brentq_oracle(self, kind, nu):
        # both stop within BRENT_XTOL + BRENT_RTOL |z| of the same sign
        # change (the library's bracket is two adjacent floats), so they
        # agree to twice that
        table = specfun.j_zeros if kind == "J" else specfun.y_zeros
        want = np.array(brentq_zeros(kind, nu, 60))
        for count in (1, 7, 60):
            got = np.array(table(nu, count).zeros)
            assert len(got) == count
            tol = 2.0 * (BRENT_XTOL + BRENT_RTOL * want[:count])
            assert np.all(np.abs(got - want[:count]) <= tol)

    def test_scan_that_runs_out_raises_like_the_oracle(self):
        # J_0 has about 2500 zeros below the scan's end, 20000 pi/8; 2600
        # passes the spacing test and is found short only by scanning
        for scan in (lambda: specfun.j_zeros(0.0, 2600),
                     lambda: brentq_zeros("J", 0.0, 2600)):
            with pytest.raises(ValueError, match=r"out of reach: the scan found "
                                                 r"\d+ in 20000 steps"):
                scan()

    def test_out_of_reach_count_is_rejected_before_scanning(self, monkeypatch):
        # zero 6000 lies past 5999 * 2.9 > 20000 pi/8, the scan's end
        calls = []

        def counting(nu, t):
            calls.append(t)
            return 1.0

        monkeypatch.setattr(specfun, "bessel_j", counting)
        monkeypatch.setattr(specfun, "bessel_y", counting)
        for zeros in (specfun.j_zeros, specfun.y_zeros):
            with pytest.raises(ValueError, match="out of reach"):
                zeros(1.5, 6000)
        assert calls == []

    def test_largest_reachable_count_is_not_rejected(self):
        # J_0 has the smallest zeros of any J_nu, so its scan reaches the most
        from scipy import special

        end = (specfun._MAX_SCAN_STEPS - 1) * specfun._SCAN_STEP
        want = special.jn_zeros(0, 3000)
        n = int(np.sum(want < end))
        np.testing.assert_allclose(specfun.j_zeros(0.0, n).zeros, want[:n],
                                   rtol=1e-12)

    def test_zero_table_validation(self):
        with pytest.raises(ValueError):
            specfun.ZeroTable(order=1.0, kind="X", zeros=(1.0,))
        with pytest.raises(ValueError):
            specfun.ZeroTable(order=1.0, kind="J", zeros=(2.0, 1.0))
        with pytest.raises(ValueError):
            specfun.j_zeros(1.0, 0)
        # a fractional count once raised TypeError from inside the scan
        with pytest.raises(ValueError, match="count must be an integer"):
            specfun.j_zeros(1.5, 2.5)
