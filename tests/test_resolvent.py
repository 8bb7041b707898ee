import dataclasses
import math

import numpy as np
import pytest

from helmscat import resolvent as rv
from helmscat.fields import ComplexField, Grid, tau, weighted_norm
from helmscat.specfun import fundamental_solution
from oracles import (
    direct_convolve,
    discrete_laplacian,
    embed_field,
    exterior_tail_bound_quad,
    full_fft_convolve,
    full_kernel_table,
    meshgrid,
    scipy_window_spectra,
    subtraction_cell_weight,
    whole_grid_radiation_averages,
)


def gaussian_source(grid, sigma=0.5, cutoff=2.0):
    r = grid.radius()
    v = np.exp(-((r / sigma) ** 2))
    v[r >= cutoff] = 0.0
    return ComplexField(grid, v.astype(complex))


def cfg_for(grid):
    return rv.ResolventConfig.padded(grid, 0)


def cell_weight(dim, k, h):
    """The library's singular-cell weight: Phi_k over the ball of volume
    h^dim."""
    return complex(rv._ball_integral(dim, k, rv._equal_volume_radius(dim, h),
                                     "outgoing"))


def holds_array(obj) -> bool:
    """Whether obj is an ndarray or a dataclass with one among its fields,
    at any depth."""
    if isinstance(obj, np.ndarray):
        return True
    return dataclasses.is_dataclass(obj) and any(
        holds_array(getattr(obj, f.name)) for f in dataclasses.fields(obj))


def random_source(grid, where):
    """Random complex values on the whole grid ("full"), on a 3-cell box
    that touches the low face of axis 0 off centre ("face") or the high
    corner ("corner"), or on one off-centre cell ("cell"), zero elsewhere."""
    rng = np.random.default_rng(1)
    vals = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
    m = grid.points_per_axis
    boxes = {"full": (slice(None),) * grid.dim,
             "face": (slice(0, 3),) + (slice(1, 4),) * (grid.dim - 1),
             "corner": (slice(m - 3, m),) * grid.dim,
             "cell": (slice(1, 2),) + (slice(m - 2, m - 1),) * (grid.dim - 1)}
    out = np.zeros(grid.shape, dtype=complex)
    out[boxes[where]] = vals[boxes[where]]
    return ComplexField(grid, out)


class TestConfig:
    def test_padded_alignment(self):
        g = Grid(dim=3, half_width=2.0, points_per_axis=9)
        cfg = rv.ResolventConfig.padded(g, 2)
        assert cfg.eval_grid.points_per_axis == 13
        assert cfg.eval_grid.spacing == pytest.approx(g.spacing)
        assert cfg.eval_grid.half_width == pytest.approx(2.0 + 2 * g.spacing)

    @pytest.mark.parametrize("pad", [-1, 2.5, True])
    def test_padded_validation(self, pad):
        # 2.5 once failed the alignment check, and True padded by one
        g = Grid(dim=3, half_width=2.0, points_per_axis=9)
        with pytest.raises(ValueError, match="pad_cells must be an integer >= 0"):
            rv.ResolventConfig.padded(g, pad)

    def test_rejects_mismatched_grids(self):
        src = Grid(dim=3, half_width=2.0, points_per_axis=9)
        ev = Grid(dim=3, half_width=2.1, points_per_axis=9)
        with pytest.raises(ValueError):
            rv.ResolventConfig(source_grid=src, eval_grid=ev)

    def test_memory_cap_counts_cached_spectra(self):
        # four pairs of spectra against 8 DEFAULT_MAX_POINTS = 2^25 cells:
        # onto the eval grid next_fast_len(2m - 1)^3 and onto the source box
        # next_fast_len(2s - 1)^3, for m eval and s source points per axis.
        # s = m = 80: 4 (160^3 + 160^3) = 32,768,000 fits; s = m = 81:
        # 4 (162^3 + 162^3) = 34,012,224 does not, though the grid spectra
        # alone would fit
        def padded(s, pad):
            return rv.ResolventConfig.padded(
                Grid(dim=3, half_width=2.0, points_per_axis=s), pad)

        padded(80, 0)
        with pytest.raises(ValueError, match="memory cap"):
            padded(81, 0)
        # the box spectra are bounded by the source grid: s = 79, m = 81:
        # 4 (162^3 + 160^3) = 33,390,112 fits; s = 80, m = 82:
        # 4 (165^3 + 160^3) = 34,352,500 does not
        padded(79, 1)
        with pytest.raises(ValueError, match="memory cap"):
            padded(80, 1)


class TestSingularCell:
    @pytest.mark.parametrize("dim,k,h", [(3, 0.5, 0.3), (3, 2.0, 0.1), (2, 1.0, 0.2)])
    def test_cell_average_matches_brute_force(self, dim, k, h):
        # oracle: radial quadrature of Phi over the equal-volume ball
        from scipy import integrate

        rho = h * (3.0 / (4.0 * np.pi)) ** (1.0 / 3.0) if dim == 3 else h / np.sqrt(np.pi)
        area = (lambda r: 4.0 * np.pi * r**2) if dim == 3 else (lambda r: 2.0 * np.pi * r)

        def f(r, part):
            val = fundamental_solution(k, r, dim) * area(r)
            return val.real if part == "re" else val.imag

        want = (integrate.quad(f, 0, rho, args=("re",), limit=200)[0]
                + 1j * integrate.quad(f, 0, rho, args=("im",), limit=200)[0])
        assert cell_weight(dim, k, h) == pytest.approx(want, rel=1e-9)

    @pytest.mark.parametrize("h", [0.02, 0.13, 0.36, 1.0])
    @pytest.mark.parametrize("k", [1e-8, 1e-6, 1e-4, 1e-2, 0.5, 1.0, 3.0, 10.0, 30.0])
    @pytest.mark.parametrize("kind", ["outgoing", "magnitude"])
    @pytest.mark.parametrize("dim", [2, 3])
    def test_ball_integral_against_mpmath(self, dim, kind, k, h):
        # the closed forms of the outgoing integral subtract two terms of
        # size 1/k^2, so they are evaluated with 60 digits, which leaves
        # more than 35 at k = 1e-8; |Phi_k| is 1/(4 pi r) in 3D, and in 2D
        # tanh-sinh quadrature with 20 digits resolves its log singularity
        mp = pytest.importorskip("mpmath")
        rho = rv._equal_volume_radius(dim, h)
        with mp.workdps(60):
            k_, rho_ = mp.mpf(k), mp.mpf(rho)
            if kind == "magnitude" and dim == 3:
                want = rho_**2 / 2
            elif kind == "magnitude":
                with mp.workdps(20):
                    want = mp.quad(
                        lambda r: mp.pi / 2 * r * abs(mp.hankel1(0, k_ * r)), [0, rho_])
            elif dim == 3:
                want = mp.expj(k_ * rho_) * (rho_ / (1j * k_) + 1 / k_**2) - 1 / k_**2
            else:
                want = 1j * mp.pi * rho_ / (2 * k_) * mp.hankel1(1, k_ * rho_) - 1 / k_**2
            want = complex(want)
        got = complex(rv._ball_integral(dim, k, rho, kind))
        assert abs(got - want) <= 1e-13 * abs(want)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_subtraction_close_to_cell_average(self, dim):
        # the two rules agree to the smooth remainder's variation over the cell
        k, h = 1.0, 0.1
        a = cell_weight(dim, k, h)
        b = subtraction_cell_weight(dim, k, h)
        assert abs(a - b) < 1e-3 * abs(a)
        assert a != b


class TestWindowSpectra:
    def test_next_fast_len_is_scipys(self):
        from scipy.fft import next_fast_len

        ns = range(1, 10001)
        assert [rv.next_fast_len(n) for n in ns] == [next_fast_len(n, real=False)
                                                     for n in ns]
        with pytest.raises(ValueError):
            rv.next_fast_len(0)

    @pytest.mark.parametrize("kind", ["outgoing", "magnitude"])
    @pytest.mark.parametrize("dim,m,pad,box", [
        (3, 9, 0, ((1, 4), (0, 8), (3, 3))),
        (3, 9, 2, ((0, 8),) * 3),
        # solve-3d's 6-cell box: n = 40 onto the grid, 11 onto the box
        (3, 32, 0, ((13, 18),) * 3),
        (2, 16, 0, ((0, 15),) * 2),
        (2, 17, 2, ((2, 9), (5, 5))),
        # kappa's own window: the box covers the grid, so both destinations
        # share one array
        (3, 9, 0, ((0, 8),) * 3)])
    def test_spectra_are_scipy_fftn_bit_for_bit(self, dim, m, pad, box, kind):
        # the complex outgoing tables and the real magnitude ones, each
        # transformed as a complex window, with odd and even last axes; the
        # apply tests read their spectrum from the library, so only this
        # sees the bits of a change in axis order
        cfg = rv.ResolventConfig.padded(Grid(dim=dim, half_width=2.0, points_per_axis=m), pad)
        k = None if kind == "magnitude" and dim == 3 else 1.3
        got = rv._window_spectra(cfg, k, kind, box)
        want = scipy_window_spectra(cfg, k, kind, box)
        for dest in ("grid", "box"):
            assert got[dest].shape == want[dest].shape
            assert got[dest].tobytes() == want[dest].tobytes()


class TestApplyResolvent:
    @pytest.mark.parametrize("kind", ["outgoing", "magnitude"])
    @pytest.mark.parametrize("where", ["full", "face", "corner", "cell"])
    @pytest.mark.parametrize("pad", [0, 2])
    @pytest.mark.parametrize("dim,m", [(3, 8), (3, 9), (2, 16), (2, 17)])
    def test_fft_matches_direct_reference(self, dim, m, pad, where, kind):
        # FFT path, cropped to the source's support box and pruned axis by
        # axis: bit for bit the whole-box fftn/ifftn, and within 1e-10 of
        # the direct lattice sum over the full kernel table
        g = Grid(dim=dim, half_width=2.0, points_per_axis=m)
        h = random_source(g, where)
        cfg = rv.ResolventConfig.padded(g, pad)
        uf = rv.apply_resolvent(h, cfg, 1.3, kind)
        box = rv._fields.support_box(h.values)
        k_key = None if kind == "magnitude" and dim == 3 else 1.3
        spectrum = rv._window_spectra(cfg, k_key, kind, box)["grid"]
        np.testing.assert_array_equal(
            uf.values,
            full_fft_convolve(h.values, spectrum, box, cfg.eval_grid.points_per_axis))
        ud = direct_convolve(embed_field(h, cfg.eval_grid).values,
                             rv._kernel_table(cfg, 1.3, kind))
        assert np.max(np.abs(uf.values - ud)) < 1e-10

    def test_transforms_only_lines_that_carry_data(self, monkeypatch):
        # 3D m = 32, 6-cell box, n = next_fast_len(37) = 40: forward
        # 6*6 + 40*6 + 40*40 lines, inverse 40*40 + 32*40 + 32*32, where the
        # whole box transforms 3 * 40^2 lines each way
        g = Grid(dim=3, half_width=2.0, points_per_axis=32)
        vals = np.zeros(g.shape, dtype=complex)
        vals[(slice(13, 19),) * 3] = 1.0
        h = ComplexField(g, vals)
        cfg = cfg_for(g)
        rv.apply_resolvent(h, cfg, 1.0)  # spectrum cached before counting
        lines = {"fft": 0, "ifft": 0}

        def counting(name):
            transform = getattr(rv.fft, name)

            def wrapped(x, *args, axis=-1, **kwargs):
                lines[name] += np.size(x) // np.shape(x)[axis]
                return transform(x, *args, axis=axis, **kwargs)
            return wrapped

        monkeypatch.setattr(rv.fft, "fft", counting("fft"))
        monkeypatch.setattr(rv.fft, "ifft", counting("ifft"))
        rv.apply_resolvent(h, cfg, 1.0)
        assert lines == {"fft": 1876, "ifft": 3904}

    def test_window_spectrum_is_cached(self, monkeypatch):
        # a repeat apply on the same support evaluates no kernel; a zero
        # source builds nothing and returns exact zeros
        calls = []
        kernel = rv.fundamental_solution

        def counting(k, r, dim):
            calls.append(np.size(r))
            return kernel(k, r, dim)

        monkeypatch.setattr(rv, "fundamental_solution", counting)
        rv._window_spectra.cache_clear()
        g = Grid(dim=3, half_width=2.0, points_per_axis=9)
        cfg = cfg_for(g)
        h = gaussian_source(g, sigma=0.4, cutoff=1.0)
        first = rv.apply_resolvent(h, cfg, 1.1)
        assert calls
        calls.clear()
        second = rv.apply_resolvent(h * 2.0, cfg, 1.1)
        assert calls == []
        np.testing.assert_array_equal(second.values, 2.0 * first.values)
        info = rv._window_spectra.cache_info()
        zero = rv.apply_resolvent(ComplexField.zeros(g), cfg, 2.3)
        assert calls == []
        assert rv._window_spectra.cache_info() == info
        assert zero.grid == cfg.eval_grid
        assert np.all(zero.values == 0.0)

        # |Phi_k| = 1/(4 pi r) in 3D: magnitude applies at two k share one
        # spectrum and evaluate no point source
        rv._window_spectra.cache_clear()
        mag = [rv.apply_resolvent(h, cfg, k, "magnitude") for k in (0.5, 1.0)]
        assert calls == []
        assert rv._window_spectra.cache_info().misses == 1
        np.testing.assert_array_equal(mag[0].values, mag[1].values)
        # in 2D |Phi_k| depends on k: two k build two spectra, from two
        # tables of three point-source evaluations each
        g2 = Grid(dim=2, half_width=2.0, points_per_axis=17)
        h2 = gaussian_source(g2, sigma=0.4, cutoff=1.0)
        rv._window_spectra.cache_clear()
        for k in (0.5, 1.0):
            rv.apply_resolvent(h2, cfg_for(g2), k, "magnitude")
        assert len(calls) == 6
        assert rv._window_spectra.cache_info().misses == 2

    @pytest.mark.parametrize("dim,m", [(3, 8), (3, 9), (2, 16), (2, 17)])
    @pytest.mark.parametrize("pad", [0, 2])
    @pytest.mark.parametrize("kind", ["outgoing", "magnitude"])
    def test_mirrored_table_matches_full_oracle(self, dim, m, pad, kind):
        g = Grid(dim=dim, half_width=2.0, points_per_axis=m)
        cfg = rv.ResolventConfig.padded(g, pad)
        for k in (0.55, 1.3):
            np.testing.assert_array_equal(rv._kernel_table(cfg, k, kind),
                                          full_kernel_table(cfg, k, kind))

    @pytest.mark.parametrize("dim,m", [(3, 32), (2, 33)])
    def test_table_evaluates_one_orthant(self, monkeypatch, dim, m):
        # one call on the m^dim orthant points, one on 4^dim subsamples in
        # each of the 3^dim - 1 near-singular cells (34,432 at 3D m = 32)
        # and one on the 21 x 32 panel nodes of the singular cell's ball
        points = []
        kernel = rv.fundamental_solution

        def counting(k, r, dim):
            points.append(np.size(r))
            return kernel(k, r, dim)

        monkeypatch.setattr(rv, "fundamental_solution", counting)
        cfg = cfg_for(Grid(dim=dim, half_width=2.0, points_per_axis=m))
        rv._kernel_table(cfg, 1.1, "outgoing")
        assert points == [m ** dim, (3 ** dim - 1) * 4 ** dim,
                          rv._BALL_PANELS * 32]

    def test_linearity(self):
        g = Grid(dim=3, half_width=2.0, points_per_axis=9)
        cfg = cfg_for(g)
        rng = np.random.default_rng(2)
        a = ComplexField(g, rng.standard_normal(g.shape) + 0j)
        b = ComplexField(g, rng.standard_normal(g.shape) + 0j)
        lhs = rv.apply_resolvent(ComplexField(g, 2.0 * a.values + 1j * b.values), cfg, 1.0)
        rhs = (2.0 * rv.apply_resolvent(a, cfg, 1.0).values
               + 1j * rv.apply_resolvent(b, cfg, 1.0).values)
        assert np.max(np.abs(lhs.values - rhs)) < 1e-12 * max(1.0, np.max(np.abs(rhs)))

    def test_point_mass_reproduces_kernel(self):
        # unit point mass at a node: away from the corrected neighborhood the
        # output equals the closed-form kernel exactly
        g = Grid(dim=3, half_width=2.0, points_per_axis=9)
        cfg = cfg_for(g)
        k = 1.7
        vals = np.zeros(g.shape, dtype=complex)
        c = g.points_per_axis // 2
        vals[c, c, c] = 1.0 / g.cell_volume
        u = rv.apply_resolvent(ComplexField(g, vals), cfg, k)
        ax = g.axis()
        X, Y, Z = meshgrid(g)
        r = g.radius()
        mask = r > 2.1 * g.spacing
        want = np.exp(1j * k * r[mask]) / (4.0 * np.pi * r[mask])
        np.testing.assert_allclose(u.values[mask], want, rtol=1e-12)

    def test_translation_covariance(self):
        # shifting the source by one cell shifts the output by one cell
        g = Grid(dim=3, half_width=2.0, points_per_axis=11)
        cfg = cfg_for(g)
        src = gaussian_source(g, sigma=0.4, cutoff=1.0)
        shifted = ComplexField(g, np.roll(src.values, 1, axis=0))
        u0 = rv.apply_resolvent(src, cfg, 1.0)
        u1 = rv.apply_resolvent(shifted, cfg, 1.0)
        # compare on the overlap, away from the wrapped layer
        got = u1.values[2:, :, :]
        want = np.roll(u0.values, 1, axis=0)[2:, :, :]
        assert np.max(np.abs(got - want)) < 1e-12

    def test_eval_grid_padding(self):
        g = Grid(dim=3, half_width=1.5, points_per_axis=7)
        cfg = rv.ResolventConfig.padded(g, 3)
        h = gaussian_source(g, sigma=0.4, cutoff=1.0)
        u = rv.apply_resolvent(h, cfg, 1.0)
        assert u.grid == cfg.eval_grid
        # interior values agree with the unpadded computation
        u0 = rv.apply_resolvent(h, cfg_for(g), 1.0)
        from helmscat.fields import restrict_field

        mid = restrict_field(u, g)
        np.testing.assert_allclose(mid.values, u0.values, rtol=0, atol=1e-12)

    def test_source_grid_mismatch(self):
        g = Grid(dim=3, half_width=2.0, points_per_axis=9)
        other = Grid(dim=3, half_width=2.0, points_per_axis=11)
        with pytest.raises(ValueError, match="source grid"):
            rv.apply_resolvent(ComplexField.zeros(other), cfg_for(g), 1.0)
        with pytest.raises(ValueError):
            rv.apply_resolvent(ComplexField.zeros(g), cfg_for(g), -1.0)

    @pytest.mark.parametrize("rule", ["cell_average", "subtraction"])
    def test_pde_residual_second_order(self, rule):
        # -lap u - k^2 u = h against a discrete Laplacian oracle; error is
        # O(h^2), so halving the spacing shrinks it by about 4
        k = 1.0
        norms = []
        for m in (17, 33):
            g = Grid(dim=3, half_width=3.0, points_per_axis=m)
            src = gaussian_source(g)
            u = rv.apply_resolvent(src, cfg_for(g), k)
            if rule == "subtraction":
                # eval grid = source grid: only the singular-cell weight
                # differs, and it multiplies the source at the same node
                dw = (subtraction_cell_weight(3, k, g.spacing)
                      - cell_weight(3, k, g.spacing))
                u = u + dw * src
            lap = discrete_laplacian(u.values, g.spacing)
            core = (slice(2, -2),) * 3
            resid = -lap[core] - k * k * u.values[core] - gaussian_source(g).values[core]
            norms.append(float(np.max(np.abs(resid))))
        assert norms[0] / norms[1] > 2.4


class TestBoxResolvent:
    @pytest.mark.parametrize("kind", ["outgoing", "magnitude"])
    @pytest.mark.parametrize("where", ["full", "face", "corner", "cell"])
    @pytest.mark.parametrize("dim,m,pad", [(3, 9, 0), (3, 8, 2), (2, 17, 1)])
    def test_equals_apply_resolvent_bit_for_bit(self, dim, m, pad, where, kind):
        # the operator bound to the source's box, called with the values on
        # the box, is apply_resolvent; all-zero values give exact zeros
        g = Grid(dim=dim, half_width=2.0, points_per_axis=m)
        h = random_source(g, where)
        cfg = rv.ResolventConfig.padded(g, pad)
        op = rv.BoxResolvent(cfg, 1.3, rv._fields.support_box(h.values), kind)
        np.testing.assert_array_equal(op(h.values[op.source]),
                                      rv.apply_resolvent(h, cfg, 1.3, kind).values)
        np.testing.assert_array_equal(embed_field(h, cfg.eval_grid).values[op.in_eval],
                                      h.values[op.source])
        zero = op(np.zeros_like(h.values[op.source]))
        assert zero.shape == cfg.eval_grid.shape
        assert np.all(zero == 0.0)

    @pytest.mark.parametrize("kind", ["outgoing", "magnitude"])
    @pytest.mark.parametrize("where", ["full", "face", "corner", "cell"])
    @pytest.mark.parametrize("pad", [0, 2])
    @pytest.mark.parametrize("dim,m", [(3, 9), (2, 17)])
    def test_box_destination_is_the_grid_result_on_the_box(self, dim, m, pad,
                                                           where, kind):
        # onto the box: the eval-grid result on the box's cells to 1e-12
        # relative, and the direct lattice sum there to 1e-10; "face" and
        # "corner" touch the grid's edge
        g = Grid(dim=dim, half_width=2.0, points_per_axis=m)
        h = random_source(g, where)
        cfg = rv.ResolventConfig.padded(g, pad)
        box = rv._fields.support_box(h.values)
        onto_grid = rv.BoxResolvent(cfg, 1.3, box, kind)
        onto_box = rv.BoxResolvent(cfg, 1.3, box, kind, dest="box")
        src = h.values[onto_box.source]
        got = onto_box(src)
        want = onto_grid(src)[onto_grid.in_eval]
        assert got.shape == src.shape
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
        ud = direct_convolve(embed_field(h, cfg.eval_grid).values,
                             rv._kernel_table(cfg, 1.3, kind))
        assert np.max(np.abs(got - ud[onto_box.in_eval])) < 1e-10

    def test_empty_box_builds_nothing(self):
        # no box: nothing to read, no spectrum, exact zeros on the eval grid
        # and an empty result on the box
        g = Grid(dim=3, half_width=2.0, points_per_axis=9)
        cfg = rv.ResolventConfig.padded(g, 1)
        info = rv._window_spectra.cache_info()
        op = rv.BoxResolvent(cfg, 1.0, None)
        onto_box = rv.BoxResolvent(cfg, 1.0, None, dest="box")
        assert rv._window_spectra.cache_info() == info
        src = np.ones(g.shape, dtype=complex)[op.source]
        assert src.size == 0
        out = op(src)
        assert out.shape == cfg.eval_grid.shape and np.all(out == 0.0)
        assert onto_box(src).shape == src.shape

    def test_rejects_bad_kind_and_k(self):
        cfg = cfg_for(Grid(dim=2, half_width=2.0, points_per_axis=9))
        box = ((2, 4), (3, 3))
        with pytest.raises(ValueError, match="kind"):
            rv.BoxResolvent(cfg, 1.0, box, "incoming")
        with pytest.raises(ValueError, match="destination"):
            rv.BoxResolvent(cfg, 1.0, box, dest="eval")
        # None is the k of the 3D magnitude kernel alone
        for k in (0.0, -1.0, float("nan"), float("inf"), None):
            with pytest.raises(ValueError, match="k must"):
                rv.BoxResolvent(cfg, k, box)


class TestKappa:
    def test_deterministic_and_finite(self):
        g = Grid(dim=3, half_width=4.0, points_per_axis=17)
        cfg = cfg_for(g)
        a = rv.estimate_kappa(3.0, cfg, 1.0)
        b = rv.estimate_kappa(3.0, cfg, 1.0)
        assert a.kappa_hat == b.kappa_hat
        assert np.isfinite(a.kappa_hat) and a.kappa_hat > 0
        assert a.truncation_tail_bound > 0
        assert a.tau_alpha == 1.0

    def test_3d_kappa_is_k_free(self):
        # |Phi_k| = 1/(4 pi r) in 3D: one estimate per (alpha, config), equal
        # to the bit to the direct computation at every k
        rv._kappa.cache_clear()
        g = Grid(dim=3, half_width=2.0, points_per_axis=10)
        t = tau(3.0, 3)
        profile = ComplexField(g, g.bracket() ** -3.0 + 0j)
        configs = (cfg_for(g), rv.ResolventConfig.padded(g, 2))
        for cfg in configs:
            for k in (0.5, 1.0, 1.7):
                est = rv.estimate_kappa(3.0, cfg, k)
                pushed = rv.apply_resolvent(profile, cfg, k, kind="magnitude")
                assert est.kappa_hat == weighted_norm(pushed, t)
                assert est.truncation_tail_bound == rv._exterior_tail_bound(
                    3.0, k, 3, g.half_width, cfg.eval_grid.half_width)
                assert (est.alpha, est.tau_alpha, est.grid) == (3.0, t, g)
        info = rv._kappa.cache_info()
        assert (info.misses, info.hits, info.currsize) == (2, 4, 2)
        # the cached entries hold no array, so the memory cap's count of
        # cached arrays is unchanged
        for cfg in configs:
            est = rv.estimate_kappa(3.0, cfg, 2.0)
            assert est is rv.estimate_kappa(3.0, cfg, 0.5)
            assert not holds_array(est)
        # in 2D |Phi_k| = |H_0(k r)|/4, and kappa, depends on k: the same
        # LRU keeps one estimate per k
        g2 = Grid(dim=2, half_width=2.0, points_per_axis=10)
        a, b = (rv.estimate_kappa(3.0, cfg_for(g2), k) for k in (0.5, 1.0))
        assert a.kappa_hat != b.kappa_hat
        assert rv.estimate_kappa(3.0, cfg_for(g2), 0.5) is a
        assert rv._kappa.cache_info().currsize == 4

    def test_refinement_stability(self):
        vals = []
        for m in (17, 33):
            g = Grid(dim=3, half_width=6.0, points_per_axis=m)
            vals.append(rv.estimate_kappa(3.0, cfg_for(g), 1.0).kappa_hat)
        assert abs(vals[1] - vals[0]) / vals[1] < 0.02

    def test_extremal_profile_majorizes_random_sources(self):
        # any unit-weighted-norm source pushed through |Phi| stays below the
        # extremal profile's output norm
        g = Grid(dim=3, half_width=4.0, points_per_axis=13)
        cfg = cfg_for(g)
        k, alpha = 1.0, 3.0
        est = rv.estimate_kappa(alpha, cfg, k)
        rng = np.random.default_rng(8)
        br = g.bracket()
        t = tau(alpha, 3)
        for _ in range(5):
            mag = rng.uniform(0.0, 1.0, g.shape)
            phase = np.exp(2j * np.pi * rng.uniform(0.0, 1.0, g.shape))
            w = ComplexField(g, br ** (-alpha) * mag * phase)
            nrm = weighted_norm(w, alpha)
            assert nrm <= 1.0 + 1e-12
            pushed = rv.apply_resolvent(ComplexField(g, np.abs(w.values) + 0j),
                                        cfg, k, kind="magnitude")
            assert weighted_norm(pushed, t) <= est.kappa_hat * (1 + 1e-12)

    @pytest.mark.parametrize("k,rho", [(1.0, 0.1), (2.0, 0.05), (1.0, 1.0)])
    def test_2d_ball_mass_against_mpmath(self, k, rho):
        # |Phi_k| = |H_0(k r)|/4 has a log singularity at r = 0; the graded
        # panels resolve it to roundoff
        mp = pytest.importorskip("mpmath")
        with mp.workdps(30):
            want = mp.quad(lambda r: mp.pi / 2 * r * abs(mp.hankel1(0, k * r)),
                           [0, rho * mp.mpf(2) ** -20, rho / 4, rho])
        assert rv._ball_integral(2, k, rho, "magnitude") == pytest.approx(
            float(want), rel=1e-13)

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("alpha", [2.5, 3.0, 4.0])
    @pytest.mark.parametrize("k,src,ev", [(1.0, 2.0, 2.0), (0.5, 2.0, 2.5),
                                          (2.0, 1.0, 1.0)])
    def test_tail_bound_against_quad(self, dim, alpha, k, src, ev):
        got = rv._exterior_tail_bound(alpha, k, dim, src, ev)
        want = exterior_tail_bound_quad(alpha, k, dim, src, ev)
        assert got == pytest.approx(want, rel=1e-13)

    def test_alpha_domain(self):
        g = Grid(dim=3, half_width=4.0, points_per_axis=9)
        with pytest.raises(ValueError):
            rv.estimate_kappa(1.5, cfg_for(g), 1.0)


class TestRadiation:
    @staticmethod
    def point_source_field(k=2.0, L=3.0, m=32, conj=False):
        g = Grid(dim=3, half_width=L, points_per_axis=m)
        vals = fundamental_solution(k, g.radius(), 3)
        if conj:
            vals = np.conj(vals)
        return g, ComplexField(g, vals)

    def test_outgoing_decreases_incoming_flagged(self):
        k, L = 2.0, 3.0
        radii = (L / 4, L / 2, 3 * L / 4)
        _, out_f = self.point_source_field(k, L)
        _, in_f = self.point_source_field(k, L, conj=True)
        rep_o = rv.radiation_report(out_f, k, radii)
        rep_i = rv.radiation_report(in_f, k, radii)
        assert rep_o.monotone_decreasing
        a = np.array(rep_o.averaged_residual)
        assert np.all(np.diff(a) < 0)
        assert rep_i.averaged_residual[-1] > 10.0 * rep_o.averaged_residual[-1]
        assert not rep_i.monotone_decreasing

    def test_pointwise_residual_decay(self):
        # for the point source, r |du/dr - i k u| = 1/(4 pi r)
        k, L = 2.0, 3.0
        _, out_f = self.point_source_field(k, L, m=48)
        rep = rv.radiation_report(out_f, k, (1.0, 2.0))
        want = [1.0 / (4.0 * np.pi * R) for R in (1.0, 2.0)]
        got = rep.pointwise_residual
        for g_, w_ in zip(got, want):
            assert g_ == pytest.approx(w_, rel=0.15)

    def test_validation(self):
        g = Grid(dim=3, half_width=2.0, points_per_axis=9)
        u = ComplexField.zeros(g)
        with pytest.raises(ValueError, match="exceeds"):
            rv.radiation_report(u, 1.0, (1.0, 3.0))
        with pytest.raises(ValueError, match="increasing"):
            rv.radiation_report(u, 1.0, (2.0, 1.0))
        with pytest.raises(ValueError, match="nonempty"):
            rv.radiation_report(u, 1.0, ())

    @pytest.mark.parametrize("radii", [(0.5, math.nan), (math.nan,),
                                       (0.5, math.inf), (-math.inf, 1.0)])
    def test_non_finite_radius_is_named(self, radii):
        # NaN compares false with every bound, so it once passed the check
        bad = next(R for R in radii if not math.isfinite(R))
        with pytest.raises(ValueError, match=f"radius {bad} is not finite"):
            rv.checked_radii(radii, 2.0)
        u = ComplexField.zeros(Grid(dim=3, half_width=2.0, points_per_axis=9))
        with pytest.raises(ValueError, match="not finite"):
            rv.radiation_report(u, 1.0, radii)

    @pytest.mark.parametrize("k", [math.nan, math.inf, -math.inf, 0.0, -1.0])
    def test_rejects_k_not_finite_and_positive(self, k):
        u = ComplexField.zeros(Grid(dim=3, half_width=2.0, points_per_axis=9))
        with pytest.raises(ValueError, match="k must be finite and > 0"):
            rv.radiation_report(u, k, (0.5, 1.0))

    @pytest.mark.parametrize("dim,m", [(3, 32), (3, 33), (3, 48), (2, 32), (2, 33)])
    def test_averages_match_whole_grid_oracle(self, dim, m):
        # the gathered cells sum, bit for bit, what one whole-grid mask per
        # radius sums; odd m puts a node at the origin, and the last radius
        # is the half-width itself.  The ball is built once per radii, and
        # the second field reads it warm
        L, k = 2.0, 1.3
        g = Grid(dim=dim, half_width=L, points_per_axis=m)
        rng = np.random.default_rng(3)
        rv._radiation_ball.cache_clear()
        for radii in ((L / 4, L / 2, 3 * L / 4), (0.3, 1.1, L)):
            for _ in range(2):
                u = ComplexField(g, rng.standard_normal(g.shape)
                                 + 1j * rng.standard_normal(g.shape))
                got = rv.radiation_report(u, k, radii).averaged_residual
                assert list(got) == whole_grid_radiation_averages(u, k, radii)
        assert rv._radiation_ball.cache_info().misses == 2


class TestFarField:
    def test_point_source_constant_amplitude(self):
        k = 1.0
        g = Grid(dim=3, half_width=3.0, points_per_axis=60)
        u = ComplexField(g, fundamental_solution(k, g.radius(), 3))
        dirs, _ = __import__("helmscat.fields", fromlist=["sphere_quadrature"]).sphere_quadrature(3, 26)
        ff = rv.far_field(u, k, dirs, radius=2.5)
        np.testing.assert_allclose(np.abs(ff.amplitude), 1.0 / (4.0 * np.pi), rtol=0.02)

    def test_zero_field_zero_amplitude(self):
        g = Grid(dim=3, half_width=3.0, points_per_axis=17)
        ff = rv.far_field(ComplexField.zeros(g), 1.0, np.eye(3), radius=2.0)
        assert np.max(np.abs(ff.amplitude)) == 0.0

    def test_amplitude_approaches_the_limit_with_radius(self):
        # field with a genuine 1/r correction: the amplitude read at R is
        # (1 + 1/R)/(4 pi), which tends to the far field 1/(4 pi) like 1/R;
        # the axis points at R = 3 and 6 are grid nodes
        k = 1.0
        g = Grid(dim=3, half_width=8.0, points_per_axis=81)
        r = np.maximum(g.radius(), 1e-9)
        vals = np.exp(1j * k * r) / (4 * np.pi * r) * (1.0 + 1.0 / r)
        vals[g.radius() == 0.0] = 0.0
        u = ComplexField(g, vals)
        dirs = np.eye(3)
        errs = [np.abs(rv.far_field(u, k, dirs, radius=R).amplitude
                       - 1.0 / (4.0 * np.pi)) for R in (3.0, 6.0)]
        assert np.all(errs[1] < errs[0])
        for R, err in zip((3.0, 6.0), errs):
            np.testing.assert_allclose(err, 1.0 / (4.0 * np.pi * R), rtol=1e-9)

    def test_validation(self):
        g = Grid(dim=3, half_width=2.0, points_per_axis=9)
        u = ComplexField.zeros(g)
        # the sphere of radius R lies in the grid for every R <= L
        assert not np.any(rv.far_field(u, 1.0, np.eye(3), radius=2.0).amplitude)
        for radius in (2.0 * (1.0 + 1e-12), 0.0, -1.0, float("nan")):
            with pytest.raises(ValueError, match="half-width"):
                rv.far_field(u, 1.0, np.eye(3), radius=radius)
        with pytest.raises(ValueError, match="unit"):
            rv.far_field(u, 1.0, 2.0 * np.eye(3), radius=1.0)

    @pytest.mark.parametrize("k", [math.nan, math.inf, -math.inf, 0.0, -1.0])
    def test_rejects_k_not_finite_and_positive(self, k):
        u = ComplexField.zeros(Grid(dim=3, half_width=2.0, points_per_axis=9))
        with pytest.raises(ValueError, match="k must be finite and > 0"):
            rv.far_field(u, k, np.eye(3), radius=1.0)
