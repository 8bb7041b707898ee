"""Independent numerical oracles for the test suite.

Everything here deliberately avoids the library's own evaluation paths:
power series, finite differences, dense linear algebra, brute-force
maximization.  Slow is fine; these run on tiny inputs.  The exceptions are
full_kernel_table and full_fft_convolve, the plain loop and the whole-box
transform that the library's mirrored kernel table and pruned FFT
convolution replace; the fast paths must reproduce them bit for bit.
radial_transform_quad is the radial Fourier transform by scipy's jv and
adaptive quad, one frequency at a time, and real_kernel the transformed
kernel by scipy's yv; the library's fixed-panel rule agrees with them to
1e-12 of the largest value.  split_interpolant and
split_sphere_trace are the real/imaginary split, one interpolant per part
and per component, that the library's single complex interpolant over u
and its gradient replaces; sphere diagnostics must reproduce them.
rgi_interpolant (scipy's RegularGridInterpolator) and brentq_zeros (a
scalar scan with Brent's method) are the routes that the library's own
multilinear interpolant and vectorized zero scan replace, so that no solve
imports scipy.interpolate or scipy.optimize; these agree to roundoff.
whole_grid_nonlinearity and picard_map are the whole-grid nonlinearity
and the field-by-field Picard map that the library's evaluation on the
coefficients' box replaces; bound_map, the same map bound once to the box,
must reproduce picard_map bit for bit wherever f(., u) fills the box.
whole_grid_picard is the Picard loop on the eval grid through bound_map,
which the solver's iteration on the box replaces; the two agree in status,
iterations and damping, and in fields to roundoff.
whole_grid_radiation_averages is the ball-averaged radiation residual on
whole-grid arrays, one mask per radius, that radiation_report's gathered
cells replace; the two agree bit for bit.
nonlinearity_derivative (checked against finite differences) and
verify_brackets (a sign-change check of the library's zero tables) came
from the library, where no path called them.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import fft
from scipy.interpolate import RegularGridInterpolator
from scipy.special import gamma, jv, yv

from helmscat.fields import grid_interpolant


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


def generic_bessel(kind: str, nu: float, t):
    """J_nu ("J") or Y_nu ("Y") by scipy's generic real-order routines jv and
    yv, the route the library's closed forms at orders 0, 1, 2, 1/2 and 3/2
    replace."""
    return (jv if kind == "J" else yv)(nu, t)


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


# the tolerances brentq_zeros passes to brentq: a zero x it returns lies
# within BRENT_XTOL + BRENT_RTOL |x| of a sign change of the function
BRENT_XTOL = 1e-14
BRENT_RTOL = 4 * np.finfo(float).eps


def brentq_zeros(kind: str, nu: float, count: int) -> list[float]:
    """The first count positive zeros of J_nu ("J") or Y_nu ("Y") by the
    scalar scan the library's vectorized one replaces: walk t upward in pi/8
    steps and polish each sign-change bracket with scipy's brentq, to
    BRENT_XTOL and a relative tolerance of BRENT_RTOL.  Raises ValueError
    when the scan ends short of count."""
    from scipy.optimize import brentq

    from helmscat import specfun

    fn = specfun.bessel_j if kind == "J" else specfun.bessel_y
    zeros: list[float] = []
    t_prev = specfun._SCAN_STEP
    f_prev = fn(nu, t_prev)
    for j in range(2, specfun._MAX_SCAN_STEPS):
        t = j * specfun._SCAN_STEP
        f = fn(nu, t)
        if f_prev == 0.0:
            zeros.append(t_prev)
        elif np.sign(f) != np.sign(f_prev) and f != 0.0:
            zeros.append(brentq(lambda x: fn(nu, x), t_prev, t,
                                xtol=BRENT_XTOL, rtol=BRENT_RTOL))
        if len(zeros) >= count:
            return zeros
        t_prev, f_prev = t, f
    raise ValueError(f"{count} zeros out of reach: the scan found "
                     f"{len(zeros)} in {specfun._MAX_SCAN_STEPS} steps")


def verify_brackets(table, width: float = 1e-9) -> bool:
    """Check a sign change of the zero table's function across each zero."""
    from helmscat.specfun import bessel_j, bessel_y

    fn = bessel_j if table.kind == "J" else bessel_y
    for z in table.zeros:
        w = width * max(1.0, abs(z))
        if fn(table.order, z - w) * fn(table.order, z + w) >= 0.0:
            return False
    return True


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


def full_kernel_table(cfg, k: float, kind: str) -> np.ndarray:
    """The library's kernel table, with Phi_k evaluated at every one of the
    (2m - 1)^dim offsets rather than on one orthant and mirrored; the same
    near-singular averages and singular cell."""
    from helmscat import resolvent as rv

    g = cfg.eval_grid
    h = g.spacing
    m = g.points_per_axis
    offs = np.arange(-(m - 1), m) * h
    grids = np.meshgrid(*([offs] * g.dim), indexing="ij")
    r = np.sqrt(sum(x * x for x in grids))
    center = (m - 1,) * g.dim
    r[center] = 1.0
    table = rv._kernel_values(g.dim, k, r, kind) * g.cell_volume
    q = 4
    sub = (np.arange(q) + 0.5) / q * h - 0.5 * h
    subgrids = np.meshgrid(*([sub] * g.dim), indexing="ij")
    for idx in np.ndindex(*(3,) * g.dim):
        d = tuple(i - 1 for i in idx)
        if all(v == 0 for v in d):
            continue
        pt = [di * h + sg for di, sg in zip(d, subgrids)]
        rr = np.sqrt(sum(x * x for x in pt))
        avg = np.mean(rv._kernel_values(g.dim, k, rr, kind))
        table[tuple(m - 1 + di for di in d)] = avg * g.cell_volume
    table[center] = rv._ball_integral(g.dim, k, rv._equal_volume_radius(g.dim, h),
                                      kind)
    return table


def exterior_tail_bound_quad(alpha: float, k: float, dim: int,
                             source_half_width: float,
                             eval_half_width: float) -> float:
    """resolvent._exterior_tail_bound with its two radial integrals, the
    near-singularity mass of |Phi_k| over the unit ball and the annulus
    term, by scipy's adaptive quad in place of Gauss-Legendre panels."""
    from scipy import integrate

    from helmscat.fields import tau
    from helmscat.specfun import hankel1

    rho_x = math.sqrt(dim) * eval_half_width
    r0 = source_half_width
    if dim == 3:
        ck, omega, near_mass = 1.0 / (4.0 * np.pi), 4.0 * np.pi, 0.5
    else:
        ck, omega = 0.25 * math.sqrt(2.0 / (np.pi * k)), 2.0 * np.pi
        near_mass = integrate.quad(
            lambda r: 0.25 * abs(hankel1(0.0, k * r)) * 2.0 * np.pi * r,
            0.0, 1.0, limit=200)[0]
    near = near_mass * (1.0 + r0 * r0) ** (-0.5 * alpha)
    s0 = max(2.0 * rho_x, 2.0 * r0, 2.0)
    half = 0.5 * (dim + 1)
    ann = integrate.quad(lambda s: s ** (dim - 1) * (1.0 + s * s) ** (-0.5 * alpha),
                         r0, s0, limit=200)[0]
    far = ck * 2.0 ** (0.5 * (dim - 1)) * omega * s0 ** (half - alpha) / (alpha - half)
    weight = (1.0 + rho_x * rho_x) ** (0.5 * tau(alpha, dim))
    return float(weight * (near + ck * omega * ann + far))


def real_kernel(dim: int, k: float):
    """s -> Re Phi_k(s) = -(1/4) (k / (2 pi))^nu s^(-nu) Y_nu(k s), nu =
    (dim - 2)/2, by scipy's yv."""
    nu = (dim - 2) / 2.0
    const = -0.25 * (k / (2.0 * math.pi)) ** nu
    return lambda s: const * s ** (-nu) * yv(nu, k * s)


def radial_transform_quad(profile, dim: int, upper: float, freqs) -> np.ndarray:
    """The radial transform |xi|^(-nu) int_0^upper J_nu(s xi) profile(s)
    s^(dim/2) ds by scipy's jv and adaptive quad, one frequency at a time,
    on [0, upper] split at the multiples of pi / max(xi, 1); at xi = 0, the
    limit 2^(-nu) / Gamma(nu + 1) int_0^upper profile(s) s^(dim-1) ds.
    profile is called with one scalar s at a time and may oscillate no
    faster than the unit-wavenumber kernel."""
    from scipy import integrate

    nu = (dim - 2) / 2.0
    xs = np.atleast_1d(np.asarray(freqs, dtype=float))
    out = np.empty_like(xs)
    for i, xi in enumerate(xs):
        if xi == 0.0:
            scale = 2.0 ** (-nu) / gamma(nu + 1.0)
            fn = lambda s: profile(s) * s ** (dim - 1)
        else:
            scale = xi ** (-nu)
            fn = lambda s, xi=xi: jv(nu, s * xi) * profile(s) * s ** (dim / 2.0)
        step = math.pi / max(xi, 1.0)
        cuts = np.arange(1, math.ceil(upper / step)) * step
        panels = {"points": cuts[cuts < upper], "limit": 8 * cuts.size + 400}
        # tolerances of 1e-13 relative to int |integrand|, the scale of the
        # sum's own rounding, as F itself may be near zero; tighter ones
        # make QUADPACK report roundoff
        size = integrate.quad(lambda s: abs(fn(s)), 0.0, upper, epsrel=1e-3,
                              **panels)[0]
        out[i] = scale * integrate.quad(fn, 0.0, upper, epsabs=1e-13 * size,
                                        epsrel=1e-13, **panels)[0]
    return out


def nonlinearity_derivative(f, u, v):
    """Directional derivative of u -> f(x, u) at u applied to v, as a
    real-linear map on the complex values.  For the power kind it is

        v  ->  Q(x) ( (p/2)|u|^(p-2) v  +  ((p-2)/2)|u|^(p-4) u^2 conj(v) ),

    which vanishes at u = 0; for the affine kind it is v -> a(x) v."""
    from helmscat.fields import ComplexField

    if u.grid != v.grid:
        raise ValueError("u and v live on different grids")
    if u.grid != f.grid:
        raise ValueError("field grid does not match nonlinearity grid")
    if f.kind == "affine":
        return ComplexField(u.grid, f.a.values * v.values)
    au = np.abs(u.values)
    amp = au ** (f.p - 2.0)
    # |u|^(p-4) u^2 = |u|^(p-2) (u/|u|)^2, removing the 0/0 at u = 0
    unit = np.where(au > 0.0, u.values / np.where(au > 0.0, au, 1.0), 0.0)
    lin = 0.5 * f.p * amp * v.values
    anti = 0.5 * (f.p - 2.0) * amp * unit * unit * np.conj(v.values)
    return ComplexField(u.grid, f.Q.values.real * (lin + anti))


def whole_grid_nonlinearity(f, u):
    """f(x, u(x)) by the pointwise formula on every cell of the grid, the
    route that the library's evaluation on the coefficients' box replaces."""
    from helmscat.fields import ComplexField

    if f.kind == "power":
        au = np.abs(u.values)
        return ComplexField(u.grid, f.Q.values.real * au ** (f.p - 2.0) * u.values)
    return ComplexField(u.grid, f.a.values * u.values + f.b.values)


def picard_map(f, phi, k, rcfg, u):
    """One undamped Picard image R_k[f(., u)] + phi through fields: restrict
    u to the source grid, evaluate f on the whole grid, apply the resolvent
    (which finds the support box of f(., u) afresh) and add phi.  The
    solver's map, bound once to the coefficients' box, replaces this."""
    from helmscat.fields import restrict_field
    from helmscat.resolvent import apply_resolvent

    src = restrict_field(u, rcfg.source_grid)
    return apply_resolvent(whole_grid_nonlinearity(f, src), rcfg, k) + phi


def bound_map(f, phi, k, rcfg):
    """The fixed-point map u -> R_k[f(., u)] + phi on eval-grid arrays,
    bound once: it reads u on the coefficients' box, evaluates f there and
    applies the resolvent of the box onto the whole eval grid.  It must
    reproduce picard_map bit for bit wherever f(., u) fills the box."""
    from helmscat.resolvent import BoxResolvent

    op = BoxResolvent(rcfg, k, f.box)
    box, phi_values = op.in_eval, phi.values
    return lambda u: op(f.on_box(u[box])) + phi_values


def whole_grid_picard(f, phi, k, cfg, rcfg, u0=None):
    """The damped Picard loop on the whole eval grid, the route that the
    solver's iteration on the coefficients' box replaces: each iteration
    maps the eval-grid iterate through bound_map, halves theta (not below
    1/16) while the damped step max|u_N - u_(N-1)| grows,
    stops diverged on a sup norm above the cap or an image that leaves
    float64, and converged on a damped step <= tol.  Returns the field and
    (status, iterations, residual_history, final_residual, damping_used)."""
    from helmscat.fields import ComplexField

    fixed_point_map = bound_map(f, phi, k, rcfg)

    def image(u):
        try:
            with np.errstate(over="raise", invalid="raise"):
                out = fixed_point_map(u)
        except FloatingPointError:
            return None
        return out if np.isfinite(out).all() else None

    floor = 1.0 / 16.0
    u = (u0 if u0 is not None else phi).copy()
    theta = cfg.damping
    history = []
    status = "max_iters"
    prev_res = math.inf
    for _ in range(cfg.max_iters):
        mapped = image(u.values)
        if mapped is None:
            status = "diverged"
            break
        cand = (1.0 - theta) * u.values + theta * mapped
        res = float(np.max(np.abs(cand - u.values)))
        while res > prev_res and theta > floor:
            theta = max(0.5 * theta, floor)
            cand = (1.0 - theta) * u.values + theta * mapped
            res = float(np.max(np.abs(cand - u.values)))
        u = ComplexField(u.grid, cand)
        history.append(res)
        prev_res = res
        if u.sup_norm > cfg.divergence_cap:
            status = "diverged"
            break
        if res <= cfg.tol:
            status = "converged"
            break
    final_residual = None
    if status != "diverged":
        mapped = image(u.values)
        if mapped is None:
            status = "diverged"
        else:
            final_residual = float(np.max(np.abs(mapped - u.values)))
    return u, (status, len(history), tuple(history), final_residual, theta)


def embed_field(fld, outer):
    """Zero-extension of a field to an aligned supergrid."""
    from helmscat.fields import ComplexField, _alignment_offset

    n = _alignment_offset(outer, fld.grid)
    out = np.zeros(outer.shape, dtype=complex)
    out[(slice(n, n + fld.grid.points_per_axis),) * outer.dim] = fld.values
    return ComplexField(outer, out)


def rgi_interpolant(grid, values):
    """scipy's RegularGridInterpolator (linear, out-of-bounds points raise
    ValueError) over the grid's axes, called like fields.grid_interpolant."""
    return RegularGridInterpolator((grid.axis(),) * grid.dim, values)


def split_interpolant(grid, values):
    """Multilinear interpolant of complex grid values as two real
    fields.grid_interpolants, one per part; called like
    fields.grid_interpolant.  The library function is bound at import, so a
    test may put this one in its place."""
    re = grid_interpolant(grid, values.real)
    im = grid_interpolant(grid, values.imag)
    return lambda pts: re(pts) + 1j * im(pts)


def split_sphere_trace(grid, values, dirs):
    """fields.sphere_trace with the gradient of every axis in one np.gradient
    call and a split interpolant per component: 2 (dim + 1) real
    interpolants, each called once per radius."""
    grads = np.gradient(values, grid.spacing, edge_order=2)
    u_at = split_interpolant(grid, values)
    grad_at = [split_interpolant(grid, gc) for gc in grads]

    def trace(R):
        pts = R * dirs
        return u_at(pts), sum(d * g_at(pts) for d, g_at in zip(dirs.T, grad_at))

    return grads, trace


def whole_grid_radiation_averages(u, k: float, radii) -> list[float]:
    """resolvent.radiation_report's averaged residuals from whole-grid
    arrays: the guarded x/|x|, |grad u - i k u x/|x||^2 on every cell and
    one interior mask per radius."""
    from helmscat.fields import sphere_quadrature, sphere_trace

    g = u.grid
    grads, _ = sphere_trace(g, u.values, sphere_quadrature(g.dim)[0])
    r = g.radius()
    interior = np.zeros(g.shape, dtype=bool)
    interior[(slice(1, -1),) * g.dim] = True
    safe_r = np.where(r > 0, r, 1.0)
    sq = np.zeros(g.shape)
    for a, gc in enumerate(grads):
        x = g.axis().reshape((-1,) + (1,) * (g.dim - 1 - a))
        un = np.where(r > 0, x / safe_r, 0.0)
        sq += np.abs(gc - 1j * k * u.values * un) ** 2
    mask = interior & (r > 0.5 * radii[0])
    return [float(np.sum(sq[mask & (r <= R)]) * g.cell_volume / R) for R in radii]


def full_fft_convolve(src: np.ndarray, spectrum: np.ndarray, box, m: int) -> np.ndarray:
    """The m^dim valid part of the circular convolution of the source's
    support box with a window spectrum, by whole-box fftn and ifftn; src is
    the source-grid array and box its support box.  This is the transform
    the library's axis-by-axis apply prunes."""
    crop = src[tuple(slice(lo, hi + 1) for lo, hi in box)]
    conv = fft.ifftn(fft.fftn(crop, spectrum.shape) * spectrum)
    return conv[tuple(slice(hi - lo, hi - lo + m) for lo, hi in box)]


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
