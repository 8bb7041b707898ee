"""Numerically checkable inequalities and identities behind the solver.

Four independent checks live here.

Arch inequality.  For z(t) = t^(1/2) J_nu(t) with nu >= 1/2, the areas of
consecutive arches of |z| between zeros of J_nu are nonincreasing,

    int_{j^(2m-2)}^{j^(2m-1)} |z| dt >= int_{j^(2m-1)}^{j^(2m)} |z| dt,

with j^(0) = 0 and equality for nu = 1/2, where every arch integrates to
2 sqrt(2/pi).  Each arch is integrated by Gauss-Legendre with 32 nodes;
the integrand is smooth between consecutive zeros.  Every check evaluates
its integrand once, on the nodes of all its panels.

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
dimension.  Panels are split at a tiny inner radius and at the zeros
of s -> J_nu(s |xi|) so each Gauss-Legendre panel sees a single arch; one
zero table, sized for the largest frequency, serves the whole transform.
There is no loop over frequencies: every frequency's panel edges come from
one (frequency x zero) table of zeros / xi and a mask, every panel is
integrated in one Gauss-Legendre evaluation, and the panel integrals,
zero-padded to a (frequency x panel) table, are summed by accumulating its
columns, so each frequency still sums its panels left to right from +0.0.
Only the final xi^(-nu) is taken one scalar at a time, because the
vectorized power may differ from the scalar one in the last bit.  Every
value equals the one-frequency-at-a-time evaluation in tests/oracles.py to
the bit.

Flux identity.  Pairing the equation with the conjugate solution over a
ball shows Im over the boundary sphere of conj(u) d_r u vanishes for any
solution with a real coefficient.  The flux is computed from centered
gradients and sphere quadrature; the point-source field e^{ikr}/(4 pi r)
gives the positive control flux k/(4 pi) at every radius.

Defocusing chain.  For f = Q |u|^(p-2) u with Q <= 0, compactly supported
with diam(supp Q) <= z/k, every bounded solution of u = R_k N(u) + phi
satisfies the chained integral bounds

    int |Q| |u|^p <= ||phi||_inf int |Q| |u|^(p-1),
    int |Q| |u|^(p-1) <= ||phi||_inf^(p-1) int |Q|,
    || Q |u|^(p-1) ||_q <= |Omega|^(1/q) ||Q||_inf ||phi||_inf^(p-1),

q = 2 dim/(dim+2) the dual critical exponent, Omega = {Q != 0}.  All
integrals are cell sums on the coefficient grid, and every check reports a
signed margin, never a boolean alone.  The chain is checked together with
its hypotheses: a coefficient that is not real, nonpositive and zero on the
boundary layer of its grid is rejected, and the support diameter is
checked against z/k as a fifth bound.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gamma as gamma_fn

from .fields import (
    BoundCheck,
    ComplexField,
    critical_exponent,
    gl_panels,
    restrict_field,
    sphere_quadrature,
    sphere_trace,
    support_diameter,
)
from .specfun import bessel_j, bessel_y, first_y_zero, j_zeros

__all__ = [
    "SturmResult",
    "sturm_check",
    "FourierPositivityResult",
    "radial_transform",
    "fourier_positivity",
    "truncation_threshold",
    "EnergyIdentityResult",
    "energy_identity",
    "defocusing_inequalities",
]

# radial panels split at this fraction of the upper limit
_INNER_SPLIT = 1e-4
# k = 1 positivity checks kept by the LRU of _unit_check, one per
# (dim, k delta); each holds 181 floats
_UNIT_CHECKS = 16


# -- arch inequality ----------------------------------------------------------

@dataclass(frozen=True)
class SturmResult:
    order: float
    pair_index: int
    left_integral: float
    right_integral: float

    @property
    def margin(self) -> float:
        return self.left_integral - self.right_integral


def sturm_check(nu: float, pairs: int) -> list[SturmResult]:
    """Compare consecutive arch areas of t^(1/2)|J_nu|; margin = left - right."""
    if nu < 0.5:
        raise ValueError("arch inequality holds for order >= 1/2")
    if pairs < 1:
        raise ValueError("pairs must be >= 1")
    zeros = np.concatenate(([0.0], j_zeros(nu, 2 * pairs).zeros))
    # J_nu keeps one sign inside each arch, so |int| = int | . |
    arches = np.abs(gl_panels(lambda t: np.sqrt(t) * bessel_j(nu, t),
                              zeros[:-1], zeros[1:]))
    return [SturmResult(order=nu, pair_index=m, left_integral=arches[2 * m - 2],
                        right_integral=arches[2 * m - 1])
            for m in range(1, pairs + 1)]


# -- radial Fourier transform -------------------------------------------------

def truncation_threshold(dim: int) -> float:
    """Largest k*delta keeping the truncated kernel transform nonnegative."""
    if dim < 3:
        raise ValueError("threshold defined for dim >= 3")
    return first_y_zero((dim - 2) / 2.0)


def radial_transform(profile, dim: int, upper: float, freqs) -> np.ndarray:
    """F(xi) = |xi|^(-nu) int_0^upper J_nu(s xi) profile(s) s^(dim/2) ds.

    profile must be vectorized over s > 0 and integrable against s^(dim-1);
    panels split at 1e-4 * upper and at the zeros of the Bessel factor.
    """
    if dim < 2:
        raise ValueError("dim must be >= 2")
    if upper <= 0.0:
        raise ValueError("upper must be > 0")
    nu = (dim - 2) / 2.0
    xs = np.atleast_1d(np.asarray(freqs, dtype=float))
    if np.any(xs < 0.0) or not np.all(np.isfinite(xs)):
        raise ValueError("frequencies must be finite and >= 0")
    out = np.empty_like(xs)
    eps = _INNER_SPLIT * upper
    nonzero = np.flatnonzero(xs)
    if nonzero.size < xs.size:
        mass = gl_panels(lambda s: profile(s) * s ** (dim - 1),
                         [0.0, eps], [eps, upper])
        out[xs == 0.0] = 2.0 ** (-nu) / gamma_fn(nu + 1.0) * (mass[0] + mass[1])
    if nonzero.size == 0:
        return out
    # the scan is sequential, so the largest table's first n zeros are the
    # n-zero table of every smaller frequency
    xi = xs[nonzero]
    zeros = np.asarray(j_zeros(nu, int(xi.max() * upper / math.pi) + 2).zeros)
    n_zeros = (xi * upper / math.pi).astype(int) + 2
    # every frequency's cuts, one row each: the zeros of J_nu(s xi) strictly
    # inside (eps, upper), in increasing order
    cuts = zeros / xi[:, np.newaxis]
    inside = ((np.arange(zeros.size) < n_zeros[:, np.newaxis])
              & (cuts > eps) & (cuts < upper))
    # row i's panels run 0 | eps | its cuts | upper; masking the left and the
    # right edge tables alike lists every row's panels in order, row by row
    one = np.ones((xi.size, 1))
    lo = np.hstack([0.0 * one, eps * one, cuts])
    hi = np.hstack([eps * one, cuts, upper * one])
    every = one.astype(bool)
    counts = np.count_nonzero(inside, axis=1) + 2
    xi_col = np.repeat(xi, counts)[:, np.newaxis]
    panels = gl_panels(
        lambda s: bessel_j(nu, s * xi_col) * profile(s) * s ** (dim / 2.0),
        lo[np.hstack([every, every, inside])], hi[np.hstack([every, inside, every])])
    # each row's panels summed left to right from +0.0, as sum() does: the
    # sum is never -0.0, so the +0.0 pads after a row's last panel leave it
    # unchanged
    width = counts.max()
    table = np.zeros((xi.size, 1 + width))
    table[:, 1:][np.arange(width) < counts[:, np.newaxis]] = panels
    sums = np.add.accumulate(table, axis=1)[:, -1]
    # the scalar power, element by element: the vectorized one may differ
    # from it in the last bit
    out[nonzero] = sums * np.array([x ** -nu for x in xi])
    return out


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
    return np.concatenate(([0.0], np.geomspace(0.1, 60.0, 180) / delta))


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
    k^2 (module docstring).
    """
    if dim < 3:
        raise ValueError("positivity check defined for dim >= 3")
    if not (math.isfinite(k) and k > 0.0):
        raise ValueError("k must be finite and > 0")
    if delta is None:
        # the key is z itself: k * (z / k) may differ from z in the last bit
        radius = truncation_threshold(dim)
        delta = radius / k
    else:
        radius = k * delta
    if not (0.0 < delta < math.inf and 0.0 < radius < math.inf):
        raise ValueError("delta and k delta must be finite and > 0")
    # k * k, not k ** 2: a float power raises OverflowError where the
    # product is inf and the values underflow to 0
    vals = _unit_check(dim, float(radius)) / (k * k)
    return FourierPositivityResult(
        dim=dim, k=k, delta=float(delta),
        freqs=tuple(float(x) for x in _check_freqs(delta)),
        values=tuple(float(v) for v in vals),
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
    radius encloses the coefficient support.
    """
    g = u.grid
    radii = tuple(float(r) for r in np.atleast_1d(radii))
    if not radii or any(r <= 0.0 or r > g.half_width for r in radii):
        raise ValueError("radii must be nonempty and lie in (0, half_width]")
    h = g.spacing
    dirs, wts = sphere_quadrature(g.dim)
    _, trace = sphere_trace(g, u.values, dirs)

    support_radius = 0.0
    if Q is not None:
        mask = np.abs(Q.values) > 0.0
        if mask.any():
            support_radius = float(np.max(Q.grid.radius()[mask]))

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
    support inside the box)."""
    if np.any(Q.values.imag != 0.0) or np.any(Q.values.real > 0.0):
        raise ValueError("defocusing requires a real, nonpositive coefficient "
                         "(Q <= 0 everywhere)")
    edge = np.ones(Q.grid.shape, dtype=bool)
    edge[(slice(1, -1),) * Q.grid.dim] = False
    if np.any(Q.values.real[edge] != 0.0):
        raise ValueError("defocusing requires Q to vanish on the boundary layer "
                         "(compact support inside the box)")


def defocusing_inequalities(u: ComplexField, phi: ComplexField, Q: ComplexField,
                            p: float, k: float,
                            tolerance: float = 1e-10) -> tuple[BoundCheck, ...]:
    """Chained integral bounds for a converged defocusing solve at
    wavenumber k, and the support-diameter admissibility check against the
    truncation threshold z/k, which is what makes the chain valid.
    """
    dim = Q.grid.dim
    if dim < 3:
        raise ValueError("defocusing chain requires dim >= 3")
    crit = critical_exponent(dim)
    if not 2.0 < p < crit:
        raise ValueError(f"p must lie in (2, {crit:.4g})")
    check_defocusing_coefficient(Q)
    if u.grid != Q.grid:
        u = restrict_field(u, Q.grid)

    vol = Q.grid.cell_volume
    absq = np.abs(Q.values.real)
    au = np.abs(u.values)
    phisup = phi.sup_norm
    int_p = float(np.sum(absq * au ** p) * vol)
    int_pm1 = float(np.sum(absq * au ** (p - 1.0)) * vol)
    int_q = float(np.sum(absq) * vol)
    omega = float(np.count_nonzero(absq) * vol)
    normq = float(np.max(absq))
    qdual = 2.0 * dim / (dim + 2.0)
    dual_norm = float(np.sum((absq * au ** (p - 1.0)) ** qdual * vol) ** (1.0 / qdual))
    cap_d = omega ** (1.0 / qdual) * normq * phisup ** (p - 1.0)

    def check(name, lhs, rhs, extra=None):
        margin = rhs - lhs
        ctx = {"tolerance": tolerance}
        if extra:
            ctx.update(extra)
        return BoundCheck(name=name, lhs=lhs, rhs=rhs, margin=margin,
                          satisfied=bool(margin >= -tolerance), context=ctx)

    return (
        check("defocusing_first_bound", int_p, phisup * int_pm1),
        check("weighted_mass_p_minus_1", int_pm1, phisup ** (p - 1.0) * int_q,
              extra={"loose_rhs": omega * normq * phisup ** (p - 1.0)}),
        check("weighted_mass_p", int_p, phisup ** p * int_q),
        check("source_dual_norm", dual_norm, cap_d,
              extra={"dual_exponent": qdual, "support_measure": omega}),
        check("support_diameter", support_diameter(Q),
              truncation_threshold(dim) / k, extra={"k": k}),
    )

