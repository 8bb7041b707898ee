"""Numerically checkable inequalities and identities behind the solver.

Four independent checks live here.

Arch inequality.  For z(t) = t^(1/2) J_nu(t) with nu >= 1/2 (here 1/2, 1,
3/2 or 2, the orders specfun evaluates), the areas of consecutive arches of
|z| between zeros of J_nu are nonincreasing,

    int_{j^(2m-2)}^{j^(2m-1)} |z| dt >= int_{j^(2m-1)}^{j^(2m)} |z| dt,

with j^(0) = 0 and equality for nu = 1/2, where every arch integrates to
2 sqrt(2/pi).  Each arch is integrated by Gauss-Legendre with 32 nodes;
the integrand is smooth between consecutive zeros.  Every check evaluates
its integrand once, on the nodes of all its panels.  Pair m is the
BoundCheck arch_pair_<m>: right arch <= left arch, within a tolerance.

Radial Fourier positivity.  The transform of a radial profile f supported
in [0, delta] is evaluated through the one-dimensional reduction

    F(xi) = |xi|^(-nu) int_0^delta J_nu(s |xi|) f(s) s^(dim/2) ds,

nu = (dim-2)/2, with the zero-frequency limit 2^(-nu)/Gamma(nu+1) times the
radial mass (equivalently (2 pi)^(-dim/2) times the plain volume integral).
Applied to the real part of the outgoing fundamental solution truncated to
the ball of radius delta, the transform stays nonnegative whenever
k delta <= z, z the first positive zero of Y_nu; truncation_threshold
returns that z.  Substituting t = k s shows the check depends on k delta
alone: the transform F_{k,delta} at k satisfies

    F_{k,delta}(xi) = k^(-2) F_{1,k delta}(xi / k),

and the check samples xi = g / delta for fixed g, so its values at k are
k^(-2) times those of the k = 1 check on the ball of radius k delta, at
g / (k delta).  fourier_positivity therefore transforms once per
(dim, k delta), in a small LRU cache, and divides by k^2; at the default
delta = z/k the key is z itself, so a wavenumber sweep transforms once per
dimension.  Every frequency shares one set of 32-point Gauss-Legendre
panels: equal ones no wider than pi / max(xi_max, 1), half a period of
J_nu(s xi) at the largest frequency and at most half a period of the
unit-wavenumber kernel, graded geometrically toward s = 0.  One Bessel
evaluation on the (frequency x node) table and one panel sum serve the
whole transform.

Flux identity.  Pairing the equation with the conjugate solution over a
ball shows Im over the boundary sphere of conj(u) d_r u vanishes for any
solution with a real coefficient.  The flux is computed from centered
gradients and sphere quadrature, reading u on each sphere through
fields.sphere_trace, whose corners, weights and gradient rule are built
once per (grid, radius, directions); the point-source field e^{ikr}/(4 pi r)
gives the positive control flux k/(4 pi) at every radius.

Defocusing chain.  For f = Q |u|^(p-2) u with Q <= 0, compactly supported
with diam(supp Q) <= z/k, every bounded solution of u = R_k N(u) + phi
satisfies the chained integral bounds

    int |Q| |u|^p <= ||phi||_inf int |Q| |u|^(p-1),
    int |Q| |u|^(p-1) <= ||phi||_inf^(p-1) int |Q|,
    || Q |u|^(p-1) ||_q <= |Omega|^(1/q) ||Q||_inf ||phi||_inf^(p-1),

q = 2 dim/(dim+2) the dual critical exponent, Omega = {Q != 0}.  All
integrals are cell sums on the coefficient grid, taken over the support box
of Q, off which every term is an exact zero; every check is a BoundCheck,
with a signed margin, never a boolean alone.  The chain is checked with
its hypotheses: a coefficient that is not real, nonpositive and zero on the
boundary layer of its grid is rejected, and the support diameter is
checked against z/k as a fifth bound.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .fields import (
    DEFAULT_MAX_POINTS,
    BoundCheck,
    ComplexField,
    _alignment_offset,
    box_diameter,
    box_slices,
    checked_radii,
    critical_exponent,
    gl_panels,
    sphere_quadrature,
    sphere_trace,
    support_box,
)
from .specfun import _check_count, _check_positive, bessel_j, bessel_y, first_y_zero, j_zeros

__all__ = [
    "sturm_check",
    "FourierPositivityResult",
    "radial_transform",
    "fourier_positivity",
    "truncation_threshold",
    "EnergyIdentityResult",
    "energy_identity",
    "defocusing_inequalities",
]

# the radial transform's equal panels start at this fraction of the upper
# limit, and its first panel at this smaller one
_EQUAL_FROM = 1e-4
_FIRST_EDGE = 1e-6
# a frequency with xi upper below this takes the xi = 0 row of the radial
# transform: J_nu(t) t^(-nu) differs from its t = 0 limit by at most
# t^2 / (4 (nu + 1)) < 2.5e-17 of it there, under half an ulp, while
# J_nu(s xi) and xi^(-nu), formed apart, under- and overflow as xi -> 0
_LIMIT_ARGUMENT = 1e-8
# k = 1 positivity checks kept by the LRU of _unit_check, one per
# (dim, k delta); each holds 181 floats
_UNIT_CHECKS = 16
# the positivity check's frequencies at delta = 1, built once; read-only
_UNIT_FREQS = np.concatenate(([0.0], np.geomspace(0.1, 60.0, 180)))
_UNIT_FREQS.flags.writeable = False


# -- arch inequality ----------------------------------------------------------

def sturm_check(nu: float, pairs: int,
                tolerance: float = 1e-9) -> tuple[BoundCheck, ...]:
    """The arch inequality for the pairs m = 1..pairs of consecutive arch
    areas of t^(1/2)|J_nu|: check arch_pair_<m> has lhs the right arch and
    rhs the left one, so its margin is left - right."""
    if nu < 0.5:
        raise ValueError("arch inequality holds for order >= 1/2")
    _check_count(pairs, "pairs")
    zeros = np.concatenate(([0.0], j_zeros(nu, 2 * pairs).zeros))
    # J_nu keeps one sign inside each arch, so |int| = int | . |
    arches = np.abs(gl_panels(lambda t: np.sqrt(t) * bessel_j(nu, t),
                              zeros[:-1], zeros[1:])).tolist()
    return tuple(BoundCheck(f"arch_pair_{m}", lhs=arches[2 * m - 1],
                            rhs=arches[2 * m - 2], tolerance=tolerance)
                 for m in range(1, pairs + 1))


# -- radial Fourier transform -------------------------------------------------

def truncation_threshold(dim: int) -> float:
    """Largest k*delta keeping the truncated kernel transform nonnegative."""
    if dim not in (3, 4, 5, 6):
        raise ValueError(f"threshold defined for dims 3 to 6, got {dim}")
    return first_y_zero((dim - 2) / 2.0)


def radial_transform(profile, dim: int, upper: float, freqs) -> np.ndarray:
    """F(xi) = |xi|^(-nu) int_0^upper J_nu(s xi) profile(s) s^(dim/2) ds.

    profile must be vectorized over s > 0 and integrable against s^(dim-1);
    every frequency shares one set of panels (module docstring).  A
    frequency with xi upper < 1e-8 gets the xi = 0 value, which F(xi)
    equals there to roundoff.
    """
    if dim not in (2, 3, 4, 5, 6):
        raise ValueError(f"radial transform defined for dims 2 to 6, got {dim}")
    _check_positive(upper, "upper")
    nu = (dim - 2) / 2.0
    xs = np.atleast_1d(np.asarray(freqs, dtype=float))
    if np.any(xs < 0.0) or not np.all(np.isfinite(xs)):
        raise ValueError("frequencies must be finite and >= 0")
    # equal panels over [1e-4 upper, upper], each half a period of J_nu(s xi)
    # at the largest frequency and at most half a period of the
    # unit-wavenumber kernel; 32 nodes on each of count + 3 panels
    width = math.pi / max(np.max(xs, initial=0.0), 1.0)
    count = math.ceil(min((1.0 - _EQUAL_FROM) * upper / width, DEFAULT_MAX_POINTS))
    if xs.size * (count + 3) * 32 > DEFAULT_MAX_POINTS:
        raise ValueError(f"{xs.size} frequencies on {count + 3} panels exceed "
                         f"the memory cap of {DEFAULT_MAX_POINTS} nodes")
    # [0, 1e-6 upper], then three panels growing geometrically to the end of
    # the first equal panel, so that a profile singular at s = 0 (s log s or
    # s^(1/2) in 2D) keeps full accuracy
    edges = np.linspace(_EQUAL_FROM * upper, upper, count + 1)
    edges = np.concatenate(([0.0], np.geomspace(_FIRST_EDGE * upper, edges[1], 4)[:-1],
                            edges[1:]))
    bessel = xs * upper >= _LIMIT_ARGUMENT
    xi = xs[bessel, np.newaxis, np.newaxis]

    def integrand(s):
        # one row per frequency; at xi = 0, and for xi upper below
        # _LIMIT_ARGUMENT, the row is the limit of xi^(-nu) J_nu(s xi)
        # s^(dim/2), 2^(-nu) / Gamma(nu + 1) s^(dim-1)
        rows = np.empty((xs.size,) + s.shape)
        rows[bessel] = bessel_j(nu, s * xi) * s ** (dim / 2.0)
        rows[~bessel] = s ** (dim - 1.0)
        rows *= profile(s)
        return rows

    sums = np.sum(gl_panels(integrand, edges[:-1], edges[1:]), axis=1)
    sums[bessel] *= xs[bessel] ** -nu
    sums[~bessel] *= 2.0 ** (-nu) / math.gamma(nu + 1.0)
    return sums


@dataclass(frozen=True)
class FourierPositivityResult:
    dim: int
    k: float
    delta: float
    freqs: tuple[float, ...]
    values: tuple[float, ...]
    min_value: float
    tolerance: float

    @property
    def nonnegative(self) -> bool:
        return self.min_value >= -self.tolerance


def _check_freqs(delta: float) -> np.ndarray:
    """The positivity check's frequencies: 0 and 180 points geometrically
    spaced over [0.1, 60] / delta."""
    return _UNIT_FREQS / delta


@functools.lru_cache(maxsize=_UNIT_CHECKS)
def _unit_check(dim: int, radius: float) -> np.ndarray:
    """The k = 1 check on the ball of the given radius, at the frequencies
    _check_freqs(radius); read-only, as every caller shares the array."""
    nu = (dim - 2) / 2.0
    # the kernel's -(1/4) (k / (2 pi))^nu at k = 1; (2 pi)^(-nu) differs
    # from it in the last bit at nu = 2
    const = -0.25 * (1.0 / (2.0 * math.pi)) ** nu

    def profile(s):
        return const * s ** (-nu) * bessel_y(nu, s)

    vals = radial_transform(profile, dim, radius, _check_freqs(radius))
    vals.flags.writeable = False
    return vals


def fourier_positivity(dim: int, k: float, delta: float | None = None,
                       tolerance: float = 1e-8) -> FourierPositivityResult:
    """Transform of the ball-truncated real-part kernel, sampled at 0 and at
    180 frequencies geometrically spaced over [0.1, 60] / delta.

    delta defaults to the threshold radius z/k; below it the sampled
    transform is expected nonnegative up to quadrature error.  The values
    are those of the k = 1 check on the ball of radius k delta, divided by
    k^2 (module docstring); a value outside the float range is a ValueError.
    """
    if dim not in (3, 4, 5, 6):
        raise ValueError(f"positivity check defined for dims 3 to 6, got {dim}")
    _check_positive(k, "k")
    if delta is None:
        # the key is z itself: k * (z / k) may differ from z in the last bit
        radius = truncation_threshold(dim)
        delta = radius / k
    else:
        radius = k * delta
    _check_positive(delta, "delta")
    _check_positive(radius, "k delta")
    if not tolerance >= 0.0:
        raise ValueError(f"tolerance must be >= 0, got {tolerance}")
    # k * k, not k ** 2: a float power raises OverflowError where the
    # product is inf and the values underflow to 0; a value that leaves the
    # float range is rejected below, so the scope keeps numpy quiet
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        vals = _unit_check(dim, float(radius)) / (k * k)
    if not np.all(np.isfinite(vals)):
        raise ValueError(f"transform values at k = {k}, delta = {delta} are "
                         f"not finite")
    return FourierPositivityResult(
        dim=dim, k=k, delta=float(delta),
        freqs=tuple(_check_freqs(delta).tolist()), values=tuple(vals.tolist()),
        min_value=float(np.min(vals)), tolerance=tolerance)


# -- boundary flux identity ---------------------------------------------------

@dataclass(frozen=True)
class EnergyIdentityResult:
    radii: tuple[float, ...]
    flux_imag: tuple[float, ...]
    quad_tol: tuple[float, ...]
    context: dict

    def within(self, factor: float = 10.0) -> bool:
        return all(abs(f) <= factor * t
                   for f, t in zip(self.flux_imag, self.quad_tol))


def energy_identity(u: ComplexField, k: float, Q: ComplexField | None = None,
                    p: float | None = None, radii=(1.0,)) -> EnergyIdentityResult:
    """Im of the boundary integral of conj(u) d_r u per radius.

    Vanishes (up to quadrature error) for solutions with real coefficient;
    the context records the grid spacing, shell magnitudes, and whether each
    radius encloses the coefficient support.  k must be finite and positive,
    and the radii as checked_radii has them, but in any order.
    """
    _check_positive(k, "k")
    g = u.grid
    radii = tuple(float(r) for r in np.atleast_1d(radii))
    checked_radii(sorted(radii), g.half_width)
    h = g.spacing
    dirs, wts = sphere_quadrature(g.dim)
    trace = sphere_trace(g, u.values, dirs)

    # the largest |x| over Q's nonzero cells, read on their support box
    support_radius = 0.0
    box = None if Q is None else support_box(Q.values)
    if box is not None:
        inside = Q.values[box_slices(box, Q.grid.dim)] != 0
        support_radius = float(np.max(Q.grid.radius(box)[inside]))

    flux = []
    tols = []
    shell_info = []
    for rho in radii:
        uv, radial = trace(rho)
        flux.append(float(rho ** (g.dim - 1)
                          * np.sum(wts * np.imag(np.conj(uv) * radial))))
        m = float(np.max(np.abs(uv)))
        gr = float(np.max(np.abs(radial)))
        area = rho ** (g.dim - 1) * float(np.sum(wts))
        # centered differences and multilinear interpolation are both O(h^2);
        # curvature of u on the shell sets the constant
        tol = 0.5 * h * h * area * k * k * (m * gr + k * m * m) + 1e-14
        tols.append(tol)
        shell_info.append({"radius": rho, "shell_max": m, "shell_grad_max": gr,
                           "encloses_support": rho >= support_radius})
    context = {"spacing": h, "sphere_points": len(dirs),
               "support_radius": support_radius, "order": p, "shells": shell_info}
    return EnergyIdentityResult(radii=radii, flux_imag=tuple(flux),
                                quad_tol=tuple(tols), context=context)


# -- defocusing integral chain ------------------------------------------------

def check_defocusing_coefficient(Q: ComplexField):
    """Raise ValueError unless Q is admissible for the defocusing regime:
    real, Q <= 0, and zero on the boundary layer of its grid (compact
    support inside the box).  Returns Q's support_box, None for Q = 0;
    every nonzero cell lies in it, so each condition is read there, the
    last as the box lying inside indices 1..m-2."""
    box = support_box(Q.values)
    if box is None:
        return None
    q = Q.values[box_slices(box, Q.grid.dim)]
    if np.any(q.imag != 0.0) or np.any(q.real > 0.0):
        raise ValueError("defocusing requires a real, nonpositive coefficient "
                         "(Q <= 0 everywhere)")
    m = Q.grid.points_per_axis
    if any(lo < 1 or hi > m - 2 for lo, hi in box):
        raise ValueError("defocusing requires Q to vanish on the boundary layer "
                         "(compact support inside the box)")
    return box


def defocusing_inequalities(u: ComplexField, phi: ComplexField, Q: ComplexField,
                            p: float, k: float,
                            tolerance: float = 1e-10) -> tuple[BoundCheck, ...]:
    """Chained integral bounds for a converged defocusing solve at
    wavenumber k, and the support-diameter admissibility check against the
    truncation threshold z/k, which is what makes the chain valid.

    Q is scanned once for its support box; the checks, the integrals and
    the diameter are read on that box, and u (on Q's grid or an aligned
    larger one) only on its cells.
    """
    dim = Q.grid.dim
    if dim < 3:
        raise ValueError("defocusing chain requires dim >= 3")
    crit = critical_exponent(dim)
    if not 2.0 < p < crit:
        raise ValueError(f"p must lie in (2, {crit:.4g})")
    box = check_defocusing_coefficient(Q)
    offset = _alignment_offset(u.grid, Q.grid)

    vol = Q.grid.cell_volume
    absq = np.abs(Q.values.real[box_slices(box, dim)])
    # |u| off supp Q is never read: Q = 0 there, and a large finite |u|
    # would give 0 * inf
    au = np.where(absq != 0.0, np.abs(u.values[box_slices(box, dim, offset)]), 0.0)
    phisup = phi.sup_norm
    weighted = absq * au ** (p - 1.0)
    int_p = float(np.sum(absq * au ** p) * vol)
    int_pm1 = float(np.sum(weighted) * vol)
    int_q = float(np.sum(absq) * vol)
    omega = float(np.count_nonzero(absq) * vol)
    normq = float(np.max(absq, initial=0.0))
    qdual = 2.0 * dim / (dim + 2.0)
    dual_norm = float(np.sum(weighted ** qdual * vol) ** (1.0 / qdual))
    cap_d = omega ** (1.0 / qdual) * normq * phisup ** (p - 1.0)

    def check(name, lhs, rhs, **context):
        return BoundCheck(name, lhs, rhs, tolerance, context)

    return (
        check("defocusing_first_bound", int_p, phisup * int_pm1),
        check("weighted_mass_p_minus_1", int_pm1, phisup ** (p - 1.0) * int_q,
              loose_rhs=omega * normq * phisup ** (p - 1.0)),
        check("weighted_mass_p", int_p, phisup ** p * int_q),
        check("source_dual_norm", dual_norm, cap_d,
              dual_exponent=qdual, support_measure=omega),
        check("support_diameter", box_diameter(Q.grid, box),
              truncation_threshold(dim) / k, k=k),
    )
