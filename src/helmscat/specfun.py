"""Cylinder functions of real order, their positive zeros, and the outgoing
Helmholtz point source.

Evaluation of J_nu, Y_nu and H^(1)_nu holds better than 1e-12 relative
accuracy (relative to the modulus envelope sqrt(2/(pi t)) near zeros) over
the working range t in [1e-6, 1e4].  J_nu and Y_nu take closed forms at the
orders the kernels of dimensions 2 to 6 use:

  * nu = 0, 1: the dedicated integer-order routines j0, j1, y0, y1;
  * nu = 2: one upward recurrence step, J_2 = 2 J_1/t - J_0 and
    Y_2 = 2 Y_1/t - Y_0, except that J_2 is summed from its power series
    below t = 1, where the step cancels;
  * nu = 1/2, 3/2: trigonometric forms.

Every other order goes through scipy's generic jv and yv.  H^(1)_nu has
closed forms at 1/2 and 3/2 only and goes through scipy's hankel1 otherwise.
The test suite checks each closed form against the generic route.
scipy.special is imported where a routine first calls it: it costs a fresh
process about 0.3 s, and the closed forms need none of it, so the 3D point
source (order 1/2) loads no scipy.

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


def _bessel_j2(t: np.ndarray) -> np.ndarray:
    from scipy import special

    out = np.asarray(2.0 * special.j1(t) / t - special.j0(t))
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
    if nu == 0.5:
        out = np.sqrt(2.0 / (np.pi * arr)) * np.sin(arr)
    elif nu == 1.5:
        out = np.sqrt(2.0 / (np.pi * arr)) * (np.sin(arr) / arr - np.cos(arr))
    elif nu == 2.0:
        out = _bessel_j2(arr)
    else:
        from scipy import special

        if nu == 0.0:
            out = special.j0(arr)
        elif nu == 1.0:
            out = special.j1(arr)
        else:
            out = special.jv(nu, arr)
    return _ret(out, scalar)


def bessel_y(nu: float, t):
    """Y_nu(t) for real nu >= 0, t > 0.  Scalar or array t."""
    nu = _check_order(nu)
    arr, scalar = _positive_arg(t)
    if nu == 0.5:
        out = -np.sqrt(2.0 / (np.pi * arr)) * np.cos(arr)
    elif nu == 1.5:
        out = -np.sqrt(2.0 / (np.pi * arr)) * (np.cos(arr) / arr + np.sin(arr))
    else:
        from scipy import special

        if nu == 0.0:
            out = special.y0(arr)
        elif nu == 1.0:
            out = special.y1(arr)
        elif nu == 2.0:
            out = 2.0 * special.y1(arr) / arr - special.y0(arr)
        else:
            out = special.yv(nu, arr)
    return _ret(out, scalar)


def hankel1(nu: float, t):
    """H^(1)_nu(t) = J_nu(t) + i Y_nu(t) for real nu >= 0, t > 0."""
    nu = _check_order(nu)
    arr, scalar = _positive_arg(t)
    if nu == 0.5:
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
