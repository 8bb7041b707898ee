"""Cylinder functions of real order, their positive zeros, and the outgoing
Helmholtz point source.

Evaluation of J_nu, Y_nu and H^(1)_nu holds better than 1e-12 relative
accuracy (relative to the modulus envelope sqrt(2/(pi t)) near zeros) over
the working range t in [1e-6, 1e4].  J_nu and Y_nu take closed forms at the
orders the kernels of dimensions 2 to 6 use:

  * nu = 0: the real and imaginary parts of H^(1)_0, below;
  * nu = 1: the dedicated integer-order routines j1, y1;
  * nu = 2: one upward recurrence step, J_2 = 2 J_1/t - J_0 and
    Y_2 = 2 Y_1/t - Y_0, except that J_2 is summed from its power series
    below t = 1, where the step cancels;
  * nu = 1/2, 3/2: trigonometric forms.

Every other order goes through scipy's generic jv and yv.  H^(1)_nu has
closed forms at 0, 1/2 and 3/2 and goes through scipy's hankel1 otherwise.
The test suite checks each closed form against the generic route.
scipy.special is imported where a routine first calls it, so the point
sources of dimensions 2 and 3 (orders 0 and 1/2) load no scipy.

H^(1)_0(t) = J_0(t) + i Y_0(t) is evaluated with numpy alone.  Below t = 2
it is the power series in q = t^2/4, 24 terms,

    J_0 = sum_m (-q)^m / (m!)^2,
    Y_0 = (2/pi) [(ln t - ln 2 + gamma) J_0 + sum_m (-1)^(m+1) H_m q^m / (m!)^2],

with H_m the m-th harmonic number (ln t - ln 2, as ln(t/2) would take the
log of 0 at the least subnormal t).  From t = 2 on it is Hankel's
steepest-descent integral, summed by the trapezoid rule with step h,

    H^(1)_0(t) = sqrt(1/(pi t)) (1 - i) e^(i t) (h/sqrt(pi))
                 [1 + 2 sum_{j=1..N} e^(-(j h)^2) / sqrt(1 + i (j h)^2 / (2 t))],

which converges geometrically (its error is about exp(d^2 - 2 pi d/h),
d = min(sqrt(t), pi/h)): (h, N) = (0.2, 32) on [2, 4), (0.3, 21) on
[4, 16) and (0.45, 14) from 16 on.  The phase is e^(i t) (1 - i), as
t - pi/4 would round t.  Against 30-digit mpmath at 306 points of
[1e-6, 1e4], both sides of each switch point included, the error is at
most 3.9e-16 of max(|H^(1)_0|, sqrt(2/(pi t))) (scipy's hankel1 reads
7.1e-16 there, and j0 + i y0 5.4e-13 at large t), and the value stays
finite from the least subnormal t to the largest float.

Zeros are never read from a table.  A sign-change scan on the lattice of
pi/8 steps brackets each zero (consecutive positive zeros of a cylinder
function are separated by more than 2.9, so the scan cannot skip one); the
lattice is evaluated in one vectorized call, and every bracket is then
bisected at once, one call per step for all brackets, until its ends are
adjacent floats; the end where the function is smaller is the zero.  Each
zero stays certified by its bracket.  The test suite keeps the scalar scan
with Brent's method that this replaces as the oracle.  The scan ends at
20000 pi/8; a count whose last zero must lie past that end, by the spacing
bound, is rejected before any evaluation.

The outgoing point source fundamental_solution(k, r, dim) in dimension
N >= 2 is the one formula

    (i/4) * (k / (2 pi r))**((N-2)/2) * H^(1)_{(N-2)/2}(k r),

which for N = 3 collapses to exp(i k r) / (4 pi r); for N = 2 the power
is exactly 1, so it is (i/4) H^(1)_0(k r) bit for bit.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ZeroTable",
    "bessel_j",
    "bessel_y",
    "hankel1",
    "fundamental_solution",
    "first_y_zero",
    "j_zeros",
    "y_zeros",
]

# Scan step for zero bracketing.  Positive zeros of any fixed-order cylinder
# function are spaced by more than _MIN_ZERO_GAP, so pi/8 cannot straddle two.
_SCAN_STEP = math.pi / 8.0
_MIN_ZERO_GAP = 2.9
_MAX_SCAN_STEPS = 20000
# zero tables kept by the LRU of _zero_table, keyed by (kind, order, count)
_ZERO_TABLES = 32
# J_2 is summed from its power series below this argument; the terms kept
# leave a relative remainder below 1e-17 there
_J2_SERIES_CUT = 1.0
_J2_SERIES_TERMS = 8
# (start, step h, nodes N) of the trapezoid rule for H^(1)_0 from each start
# to the next; below the first start H^(1)_0 is summed from its power series
_H0_BANDS = ((2.0, 0.2, 32), (4.0, 0.3, 21), (16.0, 0.45, 14))
# terms of that series; the first terms left out are below 1e-46 at t = 2
_H0_SERIES_TERMS = 24
# the nodes (j h)^2 and weights 2 exp(-(j h)^2), j = 1..N, of each band
_H0_NODES = tuple((sq, 2.0 * np.exp(-sq))
                  for sq in ((h * np.arange(1, n + 1)) ** 2 for _, h, n in _H0_BANDS))
# points of H^(1)_0 evaluated at once, which bounds its temporaries: each
# holds this many times N floats, 512 KB at N = 32; with blocks of 4096 a
# certify-sweep process peaked 1.3 MB higher than with scipy's j0 and y0
_H0_BLOCK = 2048
# gamma - ln 2, correctly rounded
_GAMMA_MINUS_LN2 = -0.11593151565841244881
# the series' coefficients (-1)^m / (m!)^2 and (-1)^(m+1) H_m / (m!)^2, H_m
# the m-th harmonic number, for m < _H0_SERIES_TERMS, correctly rounded (one
# integer division each: m! H_m is the integer sum of m!/i)
_H0_J_SERIES = tuple((-1) ** m / math.factorial(m) ** 2 for m in range(_H0_SERIES_TERMS))
_H0_Y_SERIES = tuple((-1) ** (m + 1) * sum(math.factorial(m) // i for i in range(1, m + 1))
                     / math.factorial(m) ** 3 for m in range(_H0_SERIES_TERMS))


def _check_order(nu: float) -> float:
    nu = float(nu)
    if not math.isfinite(nu) or nu < 0.0:
        raise ValueError(f"order must be finite and >= 0, got {nu}")
    return nu


def _check_positive(x, name: str):
    """The positive-real rule: x finite and > 0; None breaks it."""
    if x is None or not (math.isfinite(x) and x > 0.0):
        raise ValueError(f"{name} must be finite and > 0")


def _check_count(n, name: str, least: int = 1):
    """The count rule: n an int or numpy integer >= least, and not a bool."""
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < least:
        raise ValueError(f"{name} must be an integer >= {least}")


def _positive_arg(t, name: str = "t"):
    arr = np.asarray(t, dtype=float)
    if arr.size and (not np.all(np.isfinite(arr)) or np.any(arr <= 0.0)):
        raise ValueError(f"{name} must be finite and > 0")
    return arr, arr.ndim == 0


def _ret(arr: np.ndarray, scalar: bool):
    return arr.item() if scalar else arr


def _hankel0(t: np.ndarray) -> np.ndarray:
    """H^(1)_0(t) = J_0(t) + i Y_0(t) for an array of t > 0 (module
    docstring), evaluated _H0_BLOCK points at a time."""
    flat = t.ravel()
    out = np.empty(flat.shape, dtype=complex)
    for lo in range(0, flat.size, _H0_BLOCK):
        out[lo:lo + _H0_BLOCK] = _hankel0_block(flat[lo:lo + _H0_BLOCK])
    return out.reshape(t.shape)


def _hankel0_block(t: np.ndarray) -> np.ndarray:
    out = np.empty(t.shape, dtype=complex)
    small = t < _H0_BANDS[0][0]
    if np.any(small):
        # both series in q = t^2/4 by Horner
        s = t[small]
        q = 0.25 * s * s
        j = np.full(s.shape, _H0_J_SERIES[-1])
        y = np.full(s.shape, _H0_Y_SERIES[-1])
        for cj, cy in zip(_H0_J_SERIES[-2::-1], _H0_Y_SERIES[-2::-1]):
            j = j * q + cj
            y = y * q + cy
        out.real[small] = j
        out.imag[small] = (2.0 / math.pi) * ((np.log(s) + _GAMMA_MINUS_LN2) * j + y)
    stops = [band[0] for band in _H0_BANDS[1:]] + [math.inf]
    for (start, h, _), (sq, weight), stop in zip(_H0_BANDS, _H0_NODES, stops):
        band = (t >= start) & (t < stop)
        if not np.any(band):
            continue
        s = t[band]
        # 1/sqrt(1 + i a) = (c - i a/(2c)) / rho, rho = sqrt(1 + a^2) and
        # c = sqrt((1 + rho)/2), in real arithmetic: numpy's complex sqrt and
        # division take twice as long; a row of a per point and a column per
        # node, so a band takes a dozen numpy calls per block, not per node
        a = np.multiply.outer(0.5 / s, sq)
        rho = np.sqrt(1.0 + a * a)
        c = np.sqrt(0.5 + 0.5 * rho)
        re = np.einsum("ij,j->i", c / rho, weight)
        im = np.einsum("ij,j->i", a / (c * rho), weight)
        f = h / math.sqrt(math.pi)
        out[band] = (np.sqrt((1.0 / math.pi) / s) * (1.0 - 1.0j) * np.exp(1.0j * s)
                     * (f * (1.0 + re) - 0.5j * f * im))
    return out


def _bessel_j2(t: np.ndarray) -> np.ndarray:
    from scipy import special

    out = np.asarray(2.0 * special.j1(t) / t - bessel_j(0.0, t))
    small = t < _J2_SERIES_CUT
    if np.any(small):
        # sum_m (-1)^m q^(m+1) / (m! (m+2)!), q = t^2/4, by Horner
        q = 0.25 * t[small] ** 2
        acc = 1.0
        for m in range(_J2_SERIES_TERMS, 0, -1):
            acc = 1.0 - q / (m * (m + 2)) * acc
        out[small] = 0.5 * q * acc
    return out


def bessel_j(nu: float, t):
    """J_nu(t) for real nu >= 0, t > 0.  Scalar or array t."""
    nu = _check_order(nu)
    arr, scalar = _positive_arg(t)
    if nu == 0.0:
        out = _hankel0(arr).real
    elif nu == 0.5:
        out = np.sqrt(2.0 / (np.pi * arr)) * np.sin(arr)
    elif nu == 1.5:
        out = np.sqrt(2.0 / (np.pi * arr)) * (np.sin(arr) / arr - np.cos(arr))
    elif nu == 2.0:
        out = _bessel_j2(arr)
    else:
        from scipy import special

        if nu == 1.0:
            out = special.j1(arr)
        else:
            out = special.jv(nu, arr)
    return _ret(out, scalar)


def bessel_y(nu: float, t):
    """Y_nu(t) for real nu >= 0, t > 0.  Scalar or array t."""
    nu = _check_order(nu)
    arr, scalar = _positive_arg(t)
    if nu == 0.0:
        out = _hankel0(arr).imag
    elif nu == 0.5:
        out = -np.sqrt(2.0 / (np.pi * arr)) * np.cos(arr)
    elif nu == 1.5:
        out = -np.sqrt(2.0 / (np.pi * arr)) * (np.cos(arr) / arr + np.sin(arr))
    else:
        from scipy import special

        if nu == 1.0:
            out = special.y1(arr)
        elif nu == 2.0:
            out = 2.0 * special.y1(arr) / arr - bessel_y(0.0, arr)
        else:
            out = special.yv(nu, arr)
    return _ret(out, scalar)


def hankel1(nu: float, t):
    """H^(1)_nu(t) = J_nu(t) + i Y_nu(t) for real nu >= 0, t > 0."""
    nu = _check_order(nu)
    arr, scalar = _positive_arg(t)
    if nu == 0.0:
        out = _hankel0(arr)
    elif nu == 0.5:
        out = -1j * np.sqrt(2.0 / (np.pi * arr)) * np.exp(1j * arr)
    elif nu == 1.5:
        out = -np.sqrt(2.0 / (np.pi * arr)) * np.exp(1j * arr) * (1.0 + 1j / arr)
    else:
        from scipy import special

        out = special.hankel1(nu, arr)
    return _ret(out, scalar)


def fundamental_solution(k: float, r, dim: int):
    """Outgoing point source of wavenumber k > 0 in dimension dim >= 2 at
    radius r > 0.

    Diverges like r**(2-dim) (log for dim 2) toward r = 0; evaluation close
    enough to the singularity to overflow raises instead of returning inf.
    """
    _check_positive(k, "k")
    _check_count(dim, "dim", 2)
    arr, scalar = _positive_arg(r, "r")
    nu = 0.5 * (dim - 2)
    with np.errstate(over="ignore", invalid="ignore"):
        out = np.asarray(0.25j * (k / (2.0 * np.pi * arr)) ** nu * hankel1(nu, k * arr))
    if not np.all(np.isfinite(out)):
        raise OverflowError("point source overflow: r too close to 0")
    return _ret(out, scalar)


@dataclass(frozen=True)
class ZeroTable:
    """Consecutive positive zeros of J_nu or Y_nu, each certified by a
    bracketing sign change."""

    order: float
    kind: str  # "J" or "Y"
    zeros: tuple[float, ...]

    def __post_init__(self):
        if self.kind not in ("J", "Y"):
            raise ValueError(f"kind must be 'J' or 'Y', got {self.kind!r}")
        zs = tuple(float(z) for z in self.zeros)
        if any(b <= a for a, b in zip(zs, zs[1:])):
            raise ValueError("zeros must be strictly increasing")
        object.__setattr__(self, "zeros", zs)


def _scan_for_zeros(fn, nu: float, count: int) -> list[float]:
    # The count-th zero lies past (count - 1) * _MIN_ZERO_GAP; a count whose
    # bound is past the scan's end is out of reach without a scan.
    end = _MAX_SCAN_STEPS * _SCAN_STEP
    if (count - 1) * _MIN_ZERO_GAP >= end:
        raise ValueError(f"{count} zeros out of reach: zero {count} lies "
                         f"beyond t = {end:.6g}, where the scan ends")
    # The lattice t_j = j pi/8, 1 <= j < _MAX_SCAN_STEPS, is evaluated from
    # its start, doubled until it holds count zeros: a lattice node past nu
    # where fn vanishes (other than the last) or a sign change between two
    # nonzero neighbours.  J_nu and Y_nu have no zero in (0, nu], where J_nu
    # underflows to 0 for large nu.  Zeros are spaced by about pi = 8 steps.
    n = min(_MAX_SCAN_STEPS - 1, 8 * count + 16 + int(nu / _SCAN_STEP))
    while True:
        t = np.arange(1, n + 1) * _SCAN_STEP
        f = fn(nu, t)
        sign = np.sign(f)
        exact = (sign[:-1] == 0.0) & (t[:-1] > nu)
        change = sign[:-1] * sign[1:] < 0.0
        found = np.flatnonzero(exact | change)
        if found.size >= count or n == _MAX_SCAN_STEPS - 1:
            break
        n = min(_MAX_SCAN_STEPS - 1, 2 * n)
    if found.size < count:
        raise ValueError(f"{count} zeros out of reach: the scan found "
                         f"{found.size} in {_MAX_SCAN_STEPS} steps")
    found = found[:count]
    zeros = t[found]
    bracketed = change[found]
    brackets = found[bracketed]
    a, b = t[brackets], t[brackets + 1]
    fa, fb = f[brackets], f[brackets + 1]
    # bisect every bracket at once until its ends are adjacent floats
    while True:
        mid = 0.5 * (a + b)
        live = (a < mid) & (mid < b)
        if not live.any():
            break
        fm = fn(nu, mid)
        left = live & (np.sign(fa) * np.sign(fm) <= 0.0)
        right = live & ~left
        b, fb = np.where(left, mid, b), np.where(left, fm, fb)
        a, fa = np.where(right, mid, a), np.where(right, fm, fa)
    zeros[bracketed] = np.where(np.abs(fa) <= np.abs(fb), a, b)
    return zeros.tolist()


@functools.lru_cache(maxsize=_ZERO_TABLES)
def _zero_table(kind: str, nu: float, count: int) -> ZeroTable:
    nu = _check_order(nu)
    fn = bessel_j if kind == "J" else bessel_y
    return ZeroTable(order=nu, kind=kind, zeros=tuple(_scan_for_zeros(fn, nu, count)))


def j_zeros(nu: float, count: int) -> ZeroTable:
    """First `count` positive zeros of J_nu, in increasing order; a count
    the scan cannot reach raises ValueError."""
    _check_count(count, "count")
    return _zero_table("J", nu, count)


def y_zeros(nu: float, count: int) -> ZeroTable:
    """First `count` positive zeros of Y_nu, in increasing order."""
    _check_count(count, "count")
    return _zero_table("Y", nu, count)


def first_y_zero(nu: float) -> float:
    """First positive zero of Y_nu.

    Y_nu is negative on (0, z) and the scan starts below the smallest
    possible zero (0.89 at nu = 0), so the first sign change is the answer.
    """
    return y_zeros(nu, 1).zeros[0]
