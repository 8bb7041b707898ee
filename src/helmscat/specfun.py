"""Cylinder functions of real order, their positive zeros, and the outgoing
Helmholtz point source.

Evaluation of J_nu, Y_nu and H^(1)_nu holds better than 1e-12 relative
accuracy (relative to the modulus envelope sqrt(2/(pi t)) near zeros) over
the working range t in [1e-6, 1e4].  J_nu and Y_nu take closed forms at the
orders the kernels of dimensions 2 to 6 use:

  * nu = 0, 1: the real and imaginary parts of H^(1)_0 and H^(1)_1, below;
  * nu = 2: the real and imaginary parts of H^(1)_2, one upward recurrence
    step H^(1)_2 = 2 H^(1)_1/t - H^(1)_0, taken on each part, except that
    J_2 is summed from its power series below t = 1, where the step cancels;
  * nu = 1/2, 3/2: trigonometric forms.

Every other order goes through scipy's generic jv and yv.  H^(1)_nu has
the same closed forms at 0, 1/2, 1, 3/2 and 2 and goes through scipy's
hankel1 otherwise.  The test suite checks each closed form against the
generic route.  scipy.special is imported where a routine first calls it,
so the point sources of dimensions 2 to 6 load no scipy.

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

H^(1)_1(t) = J_1(t) + i Y_1(t) takes the same two routes and switch points.
Below t = 2 the series are

    J_1 = (t/2) sum_m (-q)^m / (m! (m+1)!),
    Y_1 = (2/pi) [(ln t - ln 2 + gamma) J_1
                  - (t/4) sum_m (H_m + H_(m+1)) (-q)^m / (m! (m+1)!)] - 2/(pi t),

and from t = 2 on Hankel's integral at order 1, weight u^(1/2) and factor
(1 + i u/(2 t))^(+1/2), on the same nodes s = j h (u = s^2):

    H^(1)_1(t) = sqrt(1/(pi t)) (-1 - i) e^(i t) (2 h/sqrt(pi))
                 2 sum_{j=1..N} (j h)^2 e^(-(j h)^2) sqrt(1 + i (j h)^2 / (2 t)).

Against 30-digit mpmath at the same points the error is at most 6.2e-16 of
max(|H^(1)_1|, sqrt(2/(pi t))) (scipy's hankel1 reads 7.0e-16, and its j1
and y1 2.1e-13 at large t), and 4.4e-16 for H^(1)_2; H^(1)_1 stays finite
from t = 3.6e-309, below which |Y_1| exceeds the largest float, to the
largest float.

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
# (start, step h, nodes N) of the trapezoid rule for H^(1)_0 and H^(1)_1
# from each start to the next; below the first start both are summed from
# their power series
_HANKEL_BANDS = ((2.0, 0.2, 32), (4.0, 0.3, 21), (16.0, 0.45, 14))
# terms of those series; the first terms left out are below 1e-46 at t = 2
_SERIES_TERMS = 24
# the nodes (j h)^2 of each band, j = 1..N, and the weights 2 exp(-(j h)^2)
# of order 0 and 2 (j h)^2 exp(-(j h)^2) of order 1
_HANKEL_NODES = tuple((sq, 2.0 * np.exp(-sq), 2.0 * np.exp(-sq) * sq)
                      for sq in ((h * np.arange(1, n + 1)) ** 2
                                 for _, h, n in _HANKEL_BANDS))
# points of H^(1)_0 or H^(1)_1 evaluated at once, which bounds their
# temporaries: each holds this many times N floats, 512 KB at N = 32; with
# blocks of 4096 a certify-sweep process peaked 1.3 MB higher than with
# scipy's j0 and y0
_HANKEL_BLOCK = 2048
# gamma - ln 2, correctly rounded
_GAMMA_MINUS_LN2 = -0.11593151565841244881


def _harmonic_numerator(m: int) -> int:
    """m! H_m, H_m the m-th harmonic number (H_0 = 0): the integer sum of
    m!/i."""
    return sum(math.factorial(m) // i for i in range(1, m + 1))


# the series' coefficients, correctly rounded (one integer division each):
# (-1)^m / (m!)^2 and (-1)^(m+1) H_m / (m!)^2 of order 0, and
# (-1)^m / (m! (m+1)!) and (-1)^m (H_m + H_(m+1)) / (m! (m+1)!) of order 1,
# for m < _SERIES_TERMS
_J_SERIES = (
    tuple((-1) ** m / math.factorial(m) ** 2 for m in range(_SERIES_TERMS)),
    tuple((-1) ** m / (math.factorial(m) * math.factorial(m + 1))
          for m in range(_SERIES_TERMS)))
_Y_SERIES = (
    tuple((-1) ** (m + 1) * _harmonic_numerator(m) / math.factorial(m) ** 3
          for m in range(_SERIES_TERMS)),
    tuple((-1) ** m * ((m + 1) * _harmonic_numerator(m) + _harmonic_numerator(m + 1))
          / (math.factorial(m) * math.factorial(m + 1) ** 2)
          for m in range(_SERIES_TERMS)))


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


def _hankel(order: int, t: np.ndarray) -> np.ndarray:
    """H^(1)_order(t) = J_order(t) + i Y_order(t), order 0 or 1, for an array
    of t > 0 (module docstring), evaluated _HANKEL_BLOCK points at a time."""
    flat = t.ravel()
    out = np.empty(flat.shape, dtype=complex)
    for lo in range(0, flat.size, _HANKEL_BLOCK):
        out[lo:lo + _HANKEL_BLOCK] = _hankel_block(order, flat[lo:lo + _HANKEL_BLOCK])
    return out.reshape(t.shape)


def _hankel_block(order: int, t: np.ndarray) -> np.ndarray:
    out = np.empty(t.shape, dtype=complex)
    small = t < _HANKEL_BANDS[0][0]
    if np.any(small):
        # both series in q = t^2/4 by Horner
        s = t[small]
        q = 0.25 * s * s
        j = np.full(s.shape, _J_SERIES[order][-1])
        y = np.full(s.shape, _Y_SERIES[order][-1])
        for cj, cy in zip(_J_SERIES[order][-2::-1], _Y_SERIES[order][-2::-1]):
            j = j * q + cj
            y = y * q + cy
        log = np.log(s) + _GAMMA_MINUS_LN2
        if order == 0:
            out.real[small] = j
            out.imag[small] = (2.0 / math.pi) * (log * j + y)
        else:
            j = 0.5 * s * j
            out.real[small] = j
            # Y_1 ~ -2/(pi t) overflows below t = 3.6e-309
            with np.errstate(over="ignore"):
                out.imag[small] = ((2.0 / math.pi) * (log * j - 0.25 * s * y)
                                   - (2.0 / math.pi) / s)
    stops = [band[0] for band in _HANKEL_BANDS[1:]] + [math.inf]
    for (start, h, _), nodes, stop in zip(_HANKEL_BANDS, _HANKEL_NODES, stops):
        band = (t >= start) & (t < stop)
        if not np.any(band):
            continue
        s = t[band]
        sq, weight = nodes[0], nodes[1 + order]
        # sqrt(1 + i a) = c + i a/(2c) and 1/sqrt(1 + i a) = (c - i a/(2c))/rho,
        # rho = sqrt(1 + a^2) and c = sqrt((1 + rho)/2), in real arithmetic:
        # numpy's complex sqrt and division take twice as long; a row of a
        # per point and a column per node, so a band takes a dozen numpy
        # calls per block, not per node
        a = np.multiply.outer(0.5 / s, sq)
        rho = np.sqrt(1.0 + a * a)
        c = np.sqrt(0.5 + 0.5 * rho)
        f = h / math.sqrt(math.pi)
        if order == 0:
            re = np.einsum("ij,j->i", c / rho, weight)
            im = np.einsum("ij,j->i", a / (c * rho), weight)
            amplitude, phase = f * (1.0 + re) - 0.5j * f * im, 1.0 - 1.0j
        else:
            # the j = 0 node carries weight 0, and Gamma(3/2) = sqrt(pi)/2
            # doubles f
            re = np.einsum("ij,j->i", c, weight)
            im = np.einsum("ij,j->i", a / c, weight)
            amplitude, phase = 2.0 * f * re + 1.0j * f * im, -1.0 - 1.0j
        out[band] = np.sqrt((1.0 / math.pi) / s) * phase * np.exp(1.0j * s) * amplitude
    return out


def _hankel2(t: np.ndarray) -> np.ndarray:
    """H^(1)_2(t) by one upward recurrence step, 2 H^(1)_1/t - H^(1)_0, taken
    on the real and imaginary parts apart; below _J2_SERIES_CUT, where the
    real part cancels, J_2 is summed from its power series."""
    h0, h1 = _hankel(0, t), _hankel(1, t)
    out = np.empty(t.shape, dtype=complex)
    with np.errstate(over="ignore"):
        out.real = 2.0 * h1.real / t - h0.real
        out.imag = 2.0 * h1.imag / t - h0.imag
    small = t < _J2_SERIES_CUT
    if np.any(small):
        # sum_m (-1)^m q^(m+1) / (m! (m+2)!), q = t^2/4, by Horner
        q = 0.25 * t[small] ** 2
        acc = 1.0
        for m in range(_J2_SERIES_TERMS, 0, -1):
            acc = 1.0 - q / (m * (m + 2)) * acc
        out.real[small] = 0.5 * q * acc
    return out


def bessel_j(nu: float, t):
    """J_nu(t) for real nu >= 0, t > 0.  Scalar or array t."""
    nu = _check_order(nu)
    arr, scalar = _positive_arg(t)
    if nu in (0.0, 1.0):
        out = _hankel(int(nu), arr).real
    elif nu == 0.5:
        out = np.sqrt(2.0 / (np.pi * arr)) * np.sin(arr)
    elif nu == 1.5:
        out = np.sqrt(2.0 / (np.pi * arr)) * (np.sin(arr) / arr - np.cos(arr))
    elif nu == 2.0:
        out = _hankel2(arr).real
    else:
        from scipy import special

        out = special.jv(nu, arr)
    return _ret(out, scalar)


def bessel_y(nu: float, t):
    """Y_nu(t) for real nu >= 0, t > 0.  Scalar or array t."""
    nu = _check_order(nu)
    arr, scalar = _positive_arg(t)
    if nu in (0.0, 1.0):
        out = _hankel(int(nu), arr).imag
    elif nu == 0.5:
        out = -np.sqrt(2.0 / (np.pi * arr)) * np.cos(arr)
    elif nu == 1.5:
        out = -np.sqrt(2.0 / (np.pi * arr)) * (np.cos(arr) / arr + np.sin(arr))
    elif nu == 2.0:
        out = _hankel2(arr).imag
    else:
        from scipy import special

        out = special.yv(nu, arr)
    return _ret(out, scalar)


def hankel1(nu: float, t):
    """H^(1)_nu(t) = J_nu(t) + i Y_nu(t) for real nu >= 0, t > 0."""
    nu = _check_order(nu)
    arr, scalar = _positive_arg(t)
    if nu in (0.0, 1.0):
        out = _hankel(int(nu), arr)
    elif nu == 0.5:
        out = -1j * np.sqrt(2.0 / (np.pi * arr)) * np.exp(1j * arr)
    elif nu == 1.5:
        out = -np.sqrt(2.0 / (np.pi * arr)) * np.exp(1j * arr) * (1.0 + 1j / arr)
    elif nu == 2.0:
        out = _hankel2(arr)
    else:
        from scipy import special

        out = special.hankel1(nu, arr)
    return _ret(out, scalar)


def fundamental_solution(k: float, r, dim: int):
    """Outgoing point source of wavenumber k > 0 in dimension dim >= 2 at
    radius r > 0.

    Diverges like r**(2-dim) (log for dim 2) toward r = 0; evaluation close
    enough to the singularity to overflow raises OverflowError instead of
    returning inf.  Far out it may underflow to 0; from dim 7 on, where
    scipy's hankel1 is NaN from k r of about 3e15, it raises ValueError.
    """
    _check_positive(k, "k")
    _check_count(dim, "dim", 2)
    arr, scalar = _positive_arg(r, "r")
    nu = 0.5 * (dim - 2)
    with np.errstate(over="ignore", invalid="ignore"):
        out = np.asarray(0.25j * (k / (2.0 * np.pi * arr)) ** nu * hankel1(nu, k * arr))
    bad = ~np.isfinite(out)
    if np.any(bad):
        if np.all(k * arr[bad] < 1.0):
            raise OverflowError("point source overflow: r too close to 0")
        raise ValueError(f"point source not finite at k r = {k * arr[bad].max():.3g}, "
                         f"beyond the range of H^(1)_{nu:g}")
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
