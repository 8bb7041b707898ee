"""Convolution with the outgoing Helmholtz kernel on truncated grids, the
operator-norm surrogate kappa, radiation-condition diagnostics and the far
field.

The resolvent applied to a source h supported in the source box is

    u(x) = integral Phi_k(x - y) h(y) dy,

discretized by the midpoint rule on the shared lattice.  Kernel weights are
tabulated on the difference lattice once per configuration.  Phi_k depends
on |offset| per axis, so it is evaluated on the orthant of nonnegative
offsets (m^dim points for m eval points per axis) and mirrored to the
(2m - 1)^dim table before the corrections:

  * regular cells: Phi at the cell center times the cell volume,
  * the 3^dim - 1 cells adjacent to the singularity: cell averages of Phi by
    midpoint subsampling (4 points per axis),
  * the singular cell itself: the integral of Phi over the ball of equal
    volume (radius rho), a radial Gauss-Legendre sum on panels graded
    toward r = 0 that stays accurate as k rho -> 0.

The test suite keeps a second singular-cell rule (static-part subtraction)
in tests/oracles.py to check this one against.

The lattice sum is evaluated by FFT convolution over the source's support
only, onto one of two destinations: the whole eval grid, or the source's
support box itself.  A source whose nonzero cells fill an index box of
width b per axis sees, from a destination of width d per axis, the window
of d + b - 1 table cells per axis that covers every offset between them;
cells outside the box add exactly 0 to the sum.  The window's spectrum,
zero-padded to the circulant size n = next_fast_len(d + b - 1) per axis,
is cached per (config, k, kernel kind, box): a miss builds the kernel table
once and takes the spectra for both destinations from it (one array when
the box covers the eval grid, where the two coincide), and the full table
is not kept.  The d^dim valid part of the circular convolution is the
result.  At 3D m = 32 with a 6-cell box, the eval grid (d = m) needs
n = 40 and the box (d = b) n = 11.

An apply transforms one axis at a time, in place in one array of the
circulant size, and skips the lines that carry no data: forward, axis j of
the box transforms n^j b^(dim-1-j) lines, since the axes after it still
hold only the source box; inverse, each axis keeps its d valid cells before
the next one, so axis j transforms d^j n^(dim-1-j) lines.  A whole-box
transform takes dim n^(dim-1) lines each way; onto the grid at 3D m = 32,
b = 6, n = 40 that is 9,600 lines of length 40 against 1,876 + 3,904 =
5,780.  The axis order and the place of the inverse's 1/size factor (after
its first axis) are those of scipy.fft's fftn and ifftn, so the result is
bit-identical to the whole-box transform.  The same pruned path serves
both destinations, and beats a whole-box numpy.fft fftn/ifftn pair onto
each: a median 1.40 times as fast onto the 11^3 box and 1.95 times onto
the 40^3 grid (40 interleaved rounds of 30 applies, 2 shared vCPUs).
scipy.fft's whole-box pair, one compiled call each way, is about 17%
faster than it onto the box.

The transforms are numpy.fft's, which wraps the pocketfft code that
scipy.fft does and gives the same bits line for line, so a run that only
solves in 3D imports no scipy.  Each axis is transformed in place, the
array passed as its own out=.  A window's spectrum is built as an apply's
forward transform is: the window is copied into the low corner of a
complex zero array of the circulant size, which is transformed axis by
axis from the first, so every spectrum is scipy.fft.fftn of the complex
window bit for bit.  next_fast_len is scipy's complex one; numpy.fft has
no worker count, so every transform runs on one thread.

This transform is one operator object, BoxResolvent: bound to one box and
one destination, it holds the spectrum and slices and maps the source's
values on the box to the result on the destination.  apply_resolvent binds
one onto the eval grid to the support box of each source it is given; the
Picard solver binds two per solve, onto the box and onto the grid, to the
box of the nonlinearity's coefficients, which holds the support of f(x, u)
for every iterate, so its iterations make no support search and no
spectrum lookup.  The test suite checks the grid destination against the
whole-box transform bit for bit, the box destination against the grid
result on the box to 1e-12 relative, and both against direct summation
over the table to 1e-10 on small grids.  In 3D the magnitude kernel is
|Phi_k| = 1/(4 pi r) for every k, so its table is evaluated without k and
one cached spectrum pair per (config, box) serves every k; in 2D
|Phi_k| = |H^(1)_0(k r)|/4 depends on k and its spectra are keyed by k.

kappa is estimated by pushing the extremal profile <y>^(-alpha) through the
magnitude kernel |Phi_k| and taking the tau(alpha)-weighted sup.  Because the
magnitude kernel is nonnegative, the profile majorizes every unit-norm
source, so the estimate is exact for the truncated discrete operator; an
analytic bound on the discarded exterior integral is reported alongside.
Estimates are kept in one small LRU keyed by (alpha, config, k); an
estimate holds no array.  In 3D neither reads k (the kernel is
1/(4 pi r) and the tail bound's constants are k-free), so the key's k is
None and one estimate per (alpha, config) serves every k.

The radiation residuals take the gradient of u only where they read it,
through fields.gradient_at: the ball average at the cells it sums, the
sphere residual at the cell corners of its points, through
fields.sphere_trace.  All they read but u depends on the grid and the
radii alone, so it is built once per (grid, radii) and kept read-only in
small LRUs, the ball in _radiation_ball and each sphere in
fields._sphere_plan; a call only gathers u and combines the values.
far_field interpolates u alone, through one fields.grid_interpolant, on
the sphere of its one radius, and returns only the amplitudes.  The radial
integrals, the ball integral of the kernel (singular cell and the kappa
tail bound's near mass) and the tail bound's annulus term, are
Gauss-Legendre panel sums (fields.gl_panels).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np
from numpy import fft

from . import fields as _fields
from .fields import ComplexField, Grid, checked_radii, gl_panels, tau, weighted_norm
from .specfun import _check_count, _check_positive, fundamental_solution, hankel1

__all__ = [
    "ResolventConfig",
    "KappaEstimate",
    "RadiationReport",
    "FarField",
    "BoxResolvent",
    "apply_resolvent",
    "estimate_kappa",
    "radiation_report",
    "far_field",
    "default_radii",
    # no function here calls hankel1, but the benchmark's tracer
    # (perfbench/tracing.py) wraps it where this module binds it
    "hankel1",
]

# midpoint subsamples per axis for the cells next to the singularity
_NEAR_QUADRATURE = 4
# pairs of window spectra kept by the LRU of _window_spectra
_SPECTRA = 4
# the ball integrals of the kernel: in 2D r H_0(k r) behaves like r log r
# at 0, so the panels are [rho 2^-(j+1), rho 2^-j] for j < _BALL_PANELS - 1,
# then [0, rho 2^-(_BALL_PANELS - 1)]
_BALL_PANELS = 21
# uniform panels for the smooth annulus integral of the kappa tail bound
_ANNULUS_PANELS = 4
# kappa estimates kept by the LRU of _kappa; each holds no array
_KAPPAS = 8
# radiation balls kept by the LRU of _radiation_ball, one per (grid,
# radii); each holds 8 (dim + 1) bytes plus one per radius for each summed
# cell, at most about 86 MB on a grid at the point cap
_BALL_PLANS = 2


def next_fast_len(n: int) -> int:
    """The smallest 2^a 3^b 5^c 7^d 11^e >= n, the sizes pocketfft
    transforms fastest; scipy.fft.next_fast_len(n, real=False)."""
    if n < 1:
        raise ValueError(f"transform length must be >= 1, got {n}")
    while True:
        rest = n
        for p in (2, 3, 5, 7, 11):
            while rest % p == 0:
                rest //= p
        if rest == 1:
            return n
        n += 1


@dataclass(frozen=True)
class ResolventConfig:
    """Discretization of the resolvent.  Source and eval grids share spacing
    and node alignment; the eval grid contains the source grid.  pad_cells,
    derived, is the index of the source grid's first node on the eval
    grid."""

    source_grid: Grid
    eval_grid: Grid
    pad_cells: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # raises when grids are incompatible
        object.__setattr__(self, "pad_cells", _fields._alignment_offset(
            self.eval_grid, self.source_grid))
        # the spectrum LRU holds _SPECTRA pairs of spectra, one per
        # destination: onto the eval grid, of at most next_fast_len(2m - 1)
        # cells per axis for its m points, and onto the source box, of at
        # most next_fast_len(2s - 1) for the source grid's s points
        cells = sum(next_fast_len(2 * g.points_per_axis - 1) ** g.dim
                    for g in (self.eval_grid, self.source_grid))
        if _SPECTRA * cells > _fields.DEFAULT_MAX_POINTS * 8:
            raise ValueError("cached kernel spectra exceed the memory cap")

    @classmethod
    def padded(cls, source_grid: Grid, pad_cells: int = 0) -> "ResolventConfig":
        """Eval grid = source grid extended by pad_cells nodes per side."""
        _check_count(pad_cells, "pad_cells", 0)
        h = source_grid.spacing
        eval_grid = Grid(
            dim=source_grid.dim,
            half_width=source_grid.half_width + pad_cells * h,
            points_per_axis=source_grid.points_per_axis + 2 * pad_cells,
        )
        return cls(source_grid=source_grid, eval_grid=eval_grid)


@dataclass(frozen=True)
class KappaEstimate:
    """tau-weighted norm of |Phi_k| applied to the extremal profile."""

    alpha: float
    tau_alpha: float
    kappa_hat: float
    grid: Grid
    truncation_tail_bound: float


@dataclass(frozen=True)
class RadiationReport:
    """Outgoing-radiation residuals over a family of ball radii."""

    radii: tuple[float, ...]
    averaged_residual: tuple[float, ...]
    pointwise_residual: tuple[float, ...]
    inner_radius: float
    monotone_decreasing: bool


@dataclass(frozen=True)
class FarField:
    amplitude: np.ndarray


def _equal_volume_radius(dim: int, h: float) -> float:
    if dim == 3:
        return h * (3.0 / (4.0 * np.pi)) ** (1.0 / 3.0)
    return h / math.sqrt(np.pi)


def _ball_integral(dim: int, k: float | None, rho: float, kind: str) -> complex | float:
    """Integral of Phi_k (kind "outgoing") or |Phi_k| (kind "magnitude")
    over the ball of radius rho: omega_dim r^(dim-1) times the kernel on
    [0, rho], by Gauss-Legendre on the _BALL_PANELS graded panels."""
    edges = rho * 2.0 ** -np.arange(_BALL_PANELS, dtype=float)
    omega = 4.0 * np.pi if dim == 3 else 2.0 * np.pi
    return np.sum(gl_panels(lambda r: omega * r ** (dim - 1) * _kernel_values(dim, k, r, kind),
                            np.append(edges[1:], 0.0), edges))


def _kernel_values(dim: int, k: float | None, r: np.ndarray, kind: str) -> np.ndarray:
    if kind == "magnitude" and dim == 3:
        # |Phi_k| = 1/(4 pi r) exactly, for every k
        return 1.0 / (4.0 * np.pi * r)
    vals = fundamental_solution(k, r, dim)
    if kind == "magnitude":
        return np.abs(vals)
    return vals


def _kernel_table(cfg: ResolventConfig, k: float | None, kind: str) -> np.ndarray:
    """Cell weights of Phi_k (or |Phi_k|) on the difference lattice of the
    eval grid, singular and near-singular cells corrected; offset d sits at
    index d + m - 1."""
    g = cfg.eval_grid
    h = g.spacing
    m = g.points_per_axis
    offs = np.arange(m) * h
    grids = np.meshgrid(*([offs] * g.dim), indexing="ij")
    r = np.sqrt(sum(x * x for x in grids))
    r[(0,) * g.dim] = 1.0  # placeholder, overwritten below
    orthant = _kernel_values(g.dim, k, r, kind) * g.cell_volume
    table = orthant[np.ix_(*[np.abs(np.arange(-(m - 1), m))] * g.dim)]

    # near-singular cells: replace the midpoint value by a subsampled average,
    # all 3^dim - 1 cells in one evaluation
    q = _NEAR_QUADRATURE
    sub = (np.arange(q) + 0.5) / q * h - 0.5 * h
    subgrids = np.meshgrid(*([sub] * g.dim), indexing="ij")
    near = np.array([d for d in np.ndindex(*(3,) * g.dim) if d != (1,) * g.dim]) - 1
    rr = np.sqrt(sum((near[:, [a]] * h + sg.ravel()) ** 2
                     for a, sg in enumerate(subgrids)))
    avg = np.mean(_kernel_values(g.dim, k, rr, kind), axis=1)
    table[tuple((m - 1 + near).T)] = avg * g.cell_volume

    table[(m - 1,) * g.dim] = _ball_integral(
        g.dim, k, _equal_volume_radius(g.dim, h), kind)
    return table


@functools.lru_cache(maxsize=_SPECTRA)
def _window_spectra(cfg: ResolventConfig, k: float | None, kind: str,
                    box: tuple[tuple[int, int], ...]) -> dict[str, np.ndarray]:
    """Spectra of the table windows seen by a source whose nonzero cells fill
    box (inclusive source-grid indices per axis), one per destination: a
    destination of width d per axis (m onto the eval grid, b onto the box)
    sees d + b - 1 table cells per axis for box width b, zero-padded to the
    circulant size next_fast_len(d + b - 1).  Both come from one table
    build, and a box whose destinations coincide shares one spectrum.  k is
    None for the k-free 3D magnitude kernel.  The four most recent pairs are
    kept."""
    m = cfg.eval_grid.points_per_axis
    n = cfg.pad_cells
    table = _kernel_table(cfg, k, kind)
    # destination cells dlo..dhi minus source cells n+lo..n+hi: offsets
    # dlo-(n+hi)..dhi-(n+lo), at table index offset + m - 1; onto the grid
    # dlo..dhi is 0..m-1, onto the box n+lo..n+hi
    windows = {"grid": tuple(slice(m - 1 - n - hi, 2 * m - 1 - n - lo)
                             for lo, hi in box),
               "box": tuple(slice(m - 1 - (hi - lo), m + hi - lo)
                            for lo, hi in box)}

    def spectrum(dest):
        window = table[windows[dest]]
        out = np.zeros(tuple(next_fast_len(w) for w in window.shape), dtype=complex)
        out[tuple(slice(0, w) for w in window.shape)] = window
        for ax in range(out.ndim):
            fft.fft(out, axis=ax, out=out)
        out.flags.writeable = False
        return out

    onto_grid = spectrum("grid")
    return {"grid": onto_grid,
            "box": onto_grid if windows["box"] == windows["grid"] else spectrum("box")}


class BoxResolvent:
    """The resolvent bound to one source box and one destination: R_k (kind
    "outgoing") or its magnitude kernel (kind "magnitude") for sources on
    cfg's source grid whose nonzero cells lie in box (inclusive source-grid
    indices per axis, None for none), onto the whole eval grid (dest
    "grid") or onto the box's own cells (dest "box").  It holds its window
    spectrum, taken once from the _window_spectra LRU, and the slices of
    the box: source and in_eval select its cells on the source and the
    eval grid.  Called with a source's values on the box, it returns the
    result on the destination."""

    def __init__(self, cfg: ResolventConfig, k: float | None, box,
                 kind: str = "outgoing", dest: str = "grid"):
        if kind not in ("outgoing", "magnitude"):
            raise ValueError(f"unknown kernel kind {kind!r}")
        if dest not in ("grid", "box"):
            raise ValueError(f"unknown destination {dest!r}")
        g = cfg.eval_grid
        # the 3D magnitude table is the same for every k, which may be None
        k_free = kind == "magnitude" and g.dim == 3
        if not (k is None and k_free):
            _check_positive(k, "k")
        self.source = _fields.box_slices(box, g.dim)
        self.in_eval = _fields.box_slices(box, g.dim, cfg.pad_cells)
        self._spectrum = None
        if box is None:
            self._shape = g.shape if dest == "grid" else (0,) * g.dim
            return
        # one spectrum serves every k of the k-free table
        self._spectrum = _window_spectra(cfg, None if k_free else float(k),
                                         kind, box)[dest]
        whole = (slice(None),) * g.dim
        self._crop = tuple(slice(0, hi - lo + 1) for lo, hi in box)
        # forward axis j transforms the lines that cross the box on the axes
        # after it
        self._lines = [whole[:ax + 1] + self._crop[ax + 1:] for ax in range(g.dim)]
        # destination cell i sees source cell lo + j through window index
        # i + hi - lo - j: inverse axis j keeps the destination's d valid
        # cells from hi - lo, d = m onto the grid and the box's width onto
        # the box
        widths = [g.points_per_axis if dest == "grid" else hi - lo + 1
                  for lo, hi in box]
        self._valid = [whole[:ax] + (slice(hi - lo, hi - lo + d),)
                       for ax, ((lo, hi), d) in enumerate(zip(box, widths))]

    def __call__(self, box_values: np.ndarray) -> np.ndarray:
        """The result on the destination of the source with box_values on
        the box and 0 elsewhere; a view into the transform's buffer."""
        if self._spectrum is None:
            return np.zeros(self._shape, dtype=complex)
        # the box, zero-padded to the circulant size, is transformed in place
        # axis by axis from the first, as scipy's fftn; the axes not yet
        # transformed still hold only the box, so the all-zero lines outside
        # it are skipped
        conv = np.zeros(self._spectrum.shape, dtype=complex)
        conv[self._crop] = box_values
        for ax, index in enumerate(self._lines):
            lines = conv[index]
            fft.fft(lines, axis=ax, out=lines)
        conv *= self._spectrum
        # each inverse axis keeps its valid cells before the next one, and
        # the 1/size factor goes where ifftn applies it, after the first axis
        for ax, index in enumerate(self._valid):
            fft.ifft(conv, axis=ax, norm="forward", out=conv)
            if ax == 0:
                conv *= 1.0 / self._spectrum.size
            conv = conv[index]
        return conv


def apply_resolvent(h_field: ComplexField, cfg: ResolventConfig, k: float | None,
                    kind: str = "outgoing") -> ComplexField:
    """Convolve a source on the source grid with the (tabulated) kernel,
    evaluated on the eval grid: the BoxResolvent of the source's support
    box.  kind selects the outgoing kernel or its magnitude; k may be None
    for the 3D magnitude kernel, which is the same for every k."""
    if h_field.grid != cfg.source_grid:
        raise ValueError("source field does not live on the source grid")
    op = BoxResolvent(cfg, k, _fields.support_box(h_field.values), kind)
    return ComplexField(cfg.eval_grid,
                        np.ascontiguousarray(op(h_field.values[op.source])))


# -- kappa --------------------------------------------------------------------

def _exterior_tail_bound(alpha: float, k: float | None, dim: int,
                         source_half_width: float, eval_half_width: float) -> float:
    """Bound on the tau-weighted sup of the exterior part
        integral over |y| > L_src of |Phi_k(x-y)| <y>^(-alpha) dy
    for x in the eval box, via |Phi_k(z)| <= C_k |z|^((1-dim)/2) away from
    the singularity and the near-singularity mass of |Phi_k|.  Only the 2D
    bound reads k; in 3D it may be None."""
    rho_x = math.sqrt(dim) * eval_half_width
    r0 = source_half_width
    if dim == 3:
        ck = 1.0 / (4.0 * np.pi)
        omega = 4.0 * np.pi
    else:
        ck = 0.25 * math.sqrt(2.0 / (np.pi * k))
        omega = 2.0 * np.pi
    near_mass = float(_ball_integral(dim, k, 1.0, "magnitude"))
    br0 = math.sqrt(1.0 + r0 * r0)
    # y within distance 1 of some eval point: |y| still exceeds the source box
    near = near_mass * br0 ** (-alpha)
    s0 = max(2.0 * rho_x, 2.0 * r0, 2.0)
    half = 0.5 * (dim + 1)
    # annulus r0 < |y| < s0 at kernel distance > 1: |Phi| <= C_k there
    edges = np.linspace(r0, s0, _ANNULUS_PANELS + 1)
    ann = gl_panels(lambda s: s ** (dim - 1) * (1.0 + s * s) ** (-0.5 * alpha),
                    edges[:-1], edges[1:])
    mid = ck * omega * float(np.sum(ann))
    # |y| >= s0 implies |x - y| >= |y|/2
    far = ck * 2.0 ** (0.5 * (dim - 1)) * omega * s0 ** (half - alpha) / (alpha - half)
    weight = (1.0 + rho_x * rho_x) ** (0.5 * tau(alpha, dim))
    return float(weight * (near + mid + far))


def estimate_kappa(alpha: float, cfg: ResolventConfig, k: float) -> KappaEstimate:
    """kappa for the truncated discrete operator, via the extremal profile
    <y>^(-alpha), plus an analytic bound for the discarded exterior, cached
    per (alpha, cfg, k).  In 3D neither depends on k: the estimate is
    computed once per (alpha, cfg)."""
    return _kappa(float(alpha), cfg, None if cfg.source_grid.dim == 3 else k)


@functools.lru_cache(maxsize=_KAPPAS)
def _kappa(alpha: float, cfg: ResolventConfig, k: float | None) -> KappaEstimate:
    """kappa at k; k is None in 3D, where |Phi_k| = 1/(4 pi r) and the tail
    bound's constants are k-free."""
    dim = cfg.source_grid.dim
    t = tau(alpha, dim)
    profile = ComplexField(cfg.source_grid,
                           cfg.source_grid.bracket() ** (-alpha) + 0j)
    pushed = apply_resolvent(profile, cfg, k, kind="magnitude")
    tail = _exterior_tail_bound(alpha, k, dim, cfg.source_grid.half_width,
                                cfg.eval_grid.half_width)
    return KappaEstimate(alpha=float(alpha), tau_alpha=t,
                         kappa_hat=weighted_norm(pushed, t),
                         grid=cfg.source_grid, truncation_tail_bound=tail)


# -- radiation diagnostics ----------------------------------------------------

def default_radii(half_width: float) -> tuple[float, float, float]:
    """Radii at which solves report radiation and flux diagnostics unless
    a config names others: L/4, L/2 and 3L/4.  The CLI reads the far field
    at the last of them."""
    L = half_width
    return (L / 4, L / 2, 3 * L / 4)


@functools.lru_cache(maxsize=_BALL_PLANS)
def _radiation_ball(grid: Grid, radii: tuple[float, ...]) -> tuple:
    """radiation_report's ball, read-only: the flat indices of the cells
    off the boundary layer with radii[0]/2 < |x| <= max(radii), in the
    grid's order, x/|x| there (one row per axis; |x| > 0 on each, so no
    guard), one mask per radius of the cells with |x| <= R, and the
    gradient rule at the cells.  The cells lie in the box of the interior
    nodes with sqrt(x_a^2) <= max(radii) on every axis, as the rounded |x|
    is at least that."""
    ax = grid.axis()
    near = 1 + np.flatnonzero(np.sqrt(ax[1:-1] * ax[1:-1]) <= radii[-1])
    box = ((near[0], near[-1]) if near.size else (1, 0),) * grid.dim
    r = grid.radius(box)
    inside = np.nonzero((r > 0.5 * radii[0]) & (r <= radii[-1]))
    rc = r[inside]
    index = tuple(i + lo for i, (lo, _) in zip(inside, box))
    cells = np.ravel_multi_index(index, grid.shape)
    unit = np.array([ax[i] / rc for i in index])
    masks = np.array([rc <= R for R in radii])
    return _fields._read_only((cells, unit, masks,
                               _fields.gradient_rule(grid, cells)))


def radiation_report(u: ComplexField, k: float, radii) -> RadiationReport:
    """Ball-averaged and sphere-sup residuals of the outgoing radiation
    condition.

    averaged(R) = (1/R) sum over grid cells with inner_radius < |x| <= R of
                  |grad u - i k u x/|x||^2 h^dim,
    pointwise(R) = max over sphere directions of
                  R^((dim-1)/2) |du/dr - i k u| at |x| = R.

    The inner exclusion radius, half the smallest radius, keeps point-source
    test fields integrable.  Radii must stay inside the grid, and k must be
    finite and positive.
    """
    _check_positive(k, "k")
    g = u.grid
    radii = checked_radii(radii, g.half_width)
    flat = u.values.reshape(-1)

    cells, unit, masks, rule = _radiation_ball(g, radii)
    # grad u at the cells: centred differences, every cell being interior
    grads = _fields.gradient_at(g, u.values, rule)
    iku = 1j * k * flat[cells]
    sq = np.zeros(cells.shape)
    for gc, x in zip(grads, unit):
        sq += np.abs(gc - iku * x) ** 2
    averaged = [float(np.sum(sq[mask]) * g.cell_volume / R)
                for R, mask in zip(radii, masks)]

    dirs, _ = _fields.sphere_quadrature(g.dim)
    trace = _fields.sphere_trace(g, u.values, dirs)
    pointwise = []
    for R in radii:
        uv, du_dr = trace(R)
        res = np.abs(du_dr - 1j * k * uv) * R ** (0.5 * (g.dim - 1))
        pointwise.append(float(np.max(res)))

    mono = all(b <= a * (1 + 1e-12) for a, b in zip(averaged, averaged[1:]))
    return RadiationReport(radii=radii, averaged_residual=tuple(averaged),
                           pointwise_residual=tuple(pointwise),
                           inner_radius=0.5 * radii[0], monotone_decreasing=mono)


def far_field(u_sc: ComplexField, k: float, directions, radius: float) -> FarField:
    """Far-field amplitude g(theta) = R^((dim-1)/2) exp(-i k R) u_sc(R theta)
    read off at |x| = R, which must not exceed the grid half-width; k must
    be finite and positive."""
    _check_positive(k, "k")
    g = u_sc.grid
    dirs = np.asarray(directions, dtype=float)
    if dirs.ndim != 2 or dirs.shape[1] != g.dim:
        raise ValueError("directions must be (n, dim)")
    norms = np.linalg.norm(dirs, axis=1)
    if np.any(np.abs(norms - 1.0) > 1e-8):
        raise ValueError("directions must be unit length")
    if not 0 < radius <= g.half_width:
        raise ValueError(f"radius {radius} must lie in (0, {g.half_width}], "
                         f"the grid half-width")
    at = _fields.grid_interpolant(g, u_sc.values)
    amp = radius ** (0.5 * (g.dim - 1)) * np.exp(-1j * k * radius) * at(radius * dirs)
    return FarField(amplitude=amp)
