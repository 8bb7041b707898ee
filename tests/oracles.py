"""Independent numerical oracles for the test suite.

Everything here deliberately avoids the library's own evaluation paths:
power series, finite differences, dense linear algebra, brute-force
maximization.  Slow is fine; these run on tiny inputs.
"""

from __future__ import annotations

import numpy as np


def j0_series(t: float, terms: int = 80) -> float:
    """J_0 by its power series; accurate to ~1e-13 for |t| <= 12."""
    x = 0.25 * t * t
    term = 1.0
    acc = 1.0
    for m in range(1, terms):
        term *= -x / (m * m)
        acc += term
        if abs(term) < 1e-18 * abs(acc):
            break
    return acc


def bisect(fn, a: float, b: float, iters: int = 200) -> float:
    fa, fb = fn(a), fn(b)
    if fa * fb > 0:
        raise ValueError("no sign change")
    for _ in range(iters):
        m = 0.5 * (a + b)
        fm = fn(m)
        if fm == 0.0:
            return m
        if fa * fm < 0:
            b, fb = m, fm
        else:
            a, fa = m, fm
    return 0.5 * (a + b)


def cyl_derivative(fn, nu: float, t):
    """d/dt C_nu(t) = -C_{nu+1}(t) + (nu/t) C_nu(t), valid for J and Y."""
    return -fn(nu + 1.0, t) + (nu / t) * fn(nu, t)


def discrete_laplacian(values: np.ndarray, h: float) -> np.ndarray:
    """Centered 2nd-order Laplacian on the interior; boundary layer NaN."""
    out = np.full_like(values, np.nan)
    core = out[(slice(1, -1),) * values.ndim]
    acc = np.zeros_like(core)
    for ax in range(values.ndim):
        lo = [slice(1, -1)] * values.ndim
        hi = [slice(1, -1)] * values.ndim
        lo[ax] = slice(0, -2)
        hi[ax] = slice(2, None)
        acc = acc + values[tuple(lo)] + values[tuple(hi)]
    acc = acc - 2.0 * values.ndim * values[(slice(1, -1),) * values.ndim]
    core[...] = acc / (h * h)
    return out


def trapezoid_sphere(fn, n_polar: int = 64, n_az: int = 128) -> float:
    """Surface integral over the unit 2-sphere by Gauss-Legendre in cos(theta)
    crossed with a trapezoid in azimuth."""
    mu, wmu = np.polynomial.legendre.leggauss(n_polar)
    phi = np.linspace(0.0, 2.0 * np.pi, n_az, endpoint=False)
    total = 0.0
    for m, w in zip(mu, wmu):
        s = np.sqrt(1.0 - m * m)
        x = s * np.cos(phi)
        y = s * np.sin(phi)
        z = np.full_like(phi, m)
        total += w * np.mean(fn(x, y, z)) * 2.0 * np.pi
    return total


def subtraction_cell_weight(dim: int, k: float, h: float) -> complex:
    """Singular-cell weight by static-part subtraction: the exact integral of
    the static singular part of Phi_k over the ball of volume h^dim, plus the
    bounded remainder's value at 0 times the cell volume.  A second rule for
    the library's exact ball integral; the two differ by the remainder's
    variation over the cell."""
    if dim == 3:
        rho = h * (3.0 / (4.0 * np.pi)) ** (1.0 / 3.0)
        return complex(0.5 * rho**2 + 1j * k / (4.0 * np.pi) * h**3)
    rho = h / np.sqrt(np.pi)
    static = rho**2 * (1.0 - 2.0 * np.log(rho)) / 4.0
    smooth0 = 0.25j - (np.log(k / 2.0) + np.euler_gamma) / (2.0 * np.pi)
    return complex(static + smooth0 * h**2)


def direct_convolve(src: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Lattice sum out[e] = sum_s src[s] * table[e - s + m - 1], one source
    node at a time; table is the kernel on the (2m - 1)^dim difference
    lattice of an m^dim grid."""
    m = src.shape[0]
    out = np.zeros_like(src, dtype=complex)
    for s in np.ndindex(*src.shape):
        v = src[s]
        if v == 0.0:
            continue
        sl = tuple(slice(m - 1 - si, 2 * m - 1 - si) for si in s)
        out += v * table[sl]
    return out


def resolvent_matrix(cfg, k: float) -> np.ndarray:
    """Dense matrix of the discrete convolution operator, one unit source per
    column.  Same discrete operator as the library's fast path, assembled the
    dumb way; lets the fixed-point system be solved by dense linear algebra."""
    from helmscat.fields import ComplexField
    from helmscat.resolvent import apply_resolvent

    g = cfg.source_grid
    if cfg.eval_grid != g:
        raise ValueError("oracle needs matching grids")
    n = int(np.prod(g.shape))
    K = np.zeros((n, n), dtype=complex)
    for j in range(n):
        e = np.zeros(n, dtype=complex)
        e[j] = 1.0
        K[:, j] = apply_resolvent(ComplexField(g, e.reshape(g.shape)), cfg, k).values.ravel()
    return K


def solve_affine_dense(K: np.ndarray, a: np.ndarray, b: np.ndarray,
                       phi: np.ndarray) -> np.ndarray:
    """Direct solve of u = K (a u + b) + phi for real-valued a."""
    if np.max(np.abs(a.imag)) > 0:
        raise ValueError("dense affine oracle assumes real a")
    n = len(phi)
    A = np.eye(n) - K * a.real[np.newaxis, :]
    return np.linalg.solve(A, K @ b + phi)


def newton_fixed_point(K: np.ndarray, phi: np.ndarray, Q: np.ndarray, p: float,
                       tol: float = 1e-13, max_iters: int = 60) -> np.ndarray:
    """Newton's method on F(u) = u - K (Q |u|^{p-2} u) - phi = 0.

    The map v -> a v + b conj(v) with a = Q (p/2) |u|^{p-2} (real for real Q)
    and b = Q ((p-2)/2) |u|^{p-2} (u/|u|)^2 is only real-linear, so the system
    is stacked into 2n real unknowns; a complex matrix M becomes
    [[Re M, -Im M], [Im M, Re M]] and the pointwise derivative the 2x2 block
    [[a + Re b, Im b], [Im b, a - Re b]].
    """
    if np.max(np.abs(Q.imag)) > 0:
        raise ValueError("Newton oracle assumes real Q")
    n = len(phi)
    KR = np.block([[K.real, -K.imag], [K.imag, K.real]])
    u = phi.copy()
    for _ in range(max_iters):
        au = np.abs(u)
        F = u - K @ (Q.real * au ** (p - 2.0) * u) - phi
        if np.max(np.abs(F)) < tol:
            break
        a = Q.real * (p / 2.0) * au ** (p - 2.0)
        unit = np.where(au > 0, u / np.where(au > 0, au, 1.0), 0.0)
        b = Q.real * ((p - 2.0) / 2.0) * au ** (p - 2.0) * unit ** 2
        D = np.zeros((2 * n, 2 * n))
        idx = np.arange(n)
        D[idx, idx] = a + b.real
        D[idx, idx + n] = b.imag
        D[idx + n, idx] = b.imag
        D[idx + n, idx + n] = a - b.real
        J = np.eye(2 * n) - KR @ D
        step = np.linalg.solve(J, np.concatenate([F.real, F.imag]))
        x = np.concatenate([u.real, u.imag]) - step
        u = x[:n] + 1j * x[n:]
    else:
        raise RuntimeError("Newton oracle failed to converge")
    return u
