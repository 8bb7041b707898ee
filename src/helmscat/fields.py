"""Uniform grids, complex fields, weighted sup norms, sphere quadrature and
sphere traces, the one multilinear grid interpolant, the one Gauss-Legendre
panel rule, plane incident waves and pointwise nonlinearities.

Weighted norms use the bracket weight <x> = sqrt(1 + |x|^2) and
||w||_alpha = sup <x>^alpha |w(x)|.  The decay exponent the resolvent
delivers for a source decaying at rate alpha is

    tau(alpha) = alpha - (dim+1)/2   for (dim+1)/2 < alpha < dim,
    tau(alpha) = (dim-1)/2           for alpha >= dim,

continuous across alpha = dim.

Nonlinearities act pointwise.  The power kind is f(x, u) = Q(x)|u|^(p-2)u
with real coefficient Q and 2 < p (< 2 dim/(dim-2) in dimension 3, the
critical exponent).  The affine kind is f(x, u) = a(x) u + b(x).  Both
vanish off the index box of their coefficients' support, which a
NonlinearitySpec records once; the formula is evaluated on that box only.
A field file records its grid and the wavenumber of its problem.
"""

from __future__ import annotations

import itertools
import math
import struct
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "DEFAULT_MAX_POINTS",
    "Grid",
    "ComplexField",
    "BoundCheck",
    "IncidentWave",
    "NonlinearitySpec",
    "weighted_norm",
    "tau",
    "sphere_quadrature",
    "grid_interpolant",
    "sphere_trace",
    "gl_panels",
    "support_box",
    "box_slices",
    "support_diameter",
    "critical_exponent",
    "make_incident",
    "apply_nonlinearity",
    "estimate_lipschitz",
    "restrict_field",
    "save_field",
    "load_field",
]

DEFAULT_MAX_POINTS = 1 << 22


@dataclass(frozen=True)
class Grid:
    """Uniform Cartesian grid on [-half_width, half_width]^dim."""

    dim: int
    half_width: float
    points_per_axis: int

    def __post_init__(self):
        if self.dim not in (2, 3):
            raise ValueError(f"dim must be 2 or 3, got {self.dim}")
        if not (math.isfinite(self.half_width) and self.half_width > 0.0):
            raise ValueError("half_width must be finite and > 0")
        if self.points_per_axis < 2:
            raise ValueError("points_per_axis must be >= 2")
        if self.points_per_axis ** self.dim > DEFAULT_MAX_POINTS:
            raise ValueError(
                f"grid of {self.points_per_axis}^{self.dim} points exceeds "
                f"the memory cap of {DEFAULT_MAX_POINTS} points")
        try:
            volume = self.cell_volume
        except OverflowError:  # float ** raises where * gives inf
            volume = math.inf
        if not 0.0 < volume < math.inf:
            raise ValueError(f"cell volume h^{self.dim} = {volume} must be finite and > 0")

    @property
    def spacing(self) -> float:
        return 2.0 * self.half_width / (self.points_per_axis - 1)

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.points_per_axis,) * self.dim

    @property
    def cell_volume(self) -> float:
        return self.spacing ** self.dim

    def axis(self) -> np.ndarray:
        return np.linspace(-self.half_width, self.half_width, self.points_per_axis)

    def meshgrid(self) -> tuple[np.ndarray, ...]:
        ax = self.axis()
        return tuple(np.meshgrid(*([ax] * self.dim), indexing="ij"))

    def radius(self) -> np.ndarray:
        xs = self.meshgrid()
        return np.sqrt(sum(x * x for x in xs))

    def bracket(self) -> np.ndarray:
        """<x> = sqrt(1 + |x|^2) on the grid."""
        r = self.radius()
        return np.sqrt(1.0 + r * r)


@dataclass
class ComplexField:
    """Complex values on a grid.  All values must be finite."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=complex)
        if vals.shape != self.grid.shape:
            raise ValueError(f"values shape {vals.shape} does not match grid {self.grid.shape}")
        if not np.all(np.isfinite(vals)):
            raise ValueError("field contains non-finite values")
        self.values = vals

    @classmethod
    def zeros(cls, grid: Grid) -> "ComplexField":
        return cls(grid, np.zeros(grid.shape, dtype=complex))

    @property
    def sup_norm(self) -> float:
        return float(np.max(np.abs(self.values)))

    def copy(self) -> "ComplexField":
        return ComplexField(self.grid, self.values.copy())

    def _require_same_grid(self, other: "ComplexField"):
        if self.grid != other.grid:
            raise ValueError("fields live on different grids")

    def __add__(self, other: "ComplexField") -> "ComplexField":
        self._require_same_grid(other)
        return ComplexField(self.grid, self.values + other.values)

    def __sub__(self, other: "ComplexField") -> "ComplexField":
        self._require_same_grid(other)
        return ComplexField(self.grid, self.values - other.values)

    def __mul__(self, scalar) -> "ComplexField":
        return ComplexField(self.grid, self.values * complex(scalar))

    __rmul__ = __mul__


@dataclass(frozen=True)
class BoundCheck:
    """Outcome of one named inequality: satisfied iff margin >= 0."""

    name: str
    lhs: float
    rhs: float
    margin: float
    satisfied: bool
    context: dict = field(default_factory=dict)


def weighted_norm(w: ComplexField, alpha: float) -> float:
    """sup over the grid of <x>^alpha |w(x)|."""
    if not (math.isfinite(alpha) and alpha >= 0.0):
        raise ValueError("alpha must be finite and >= 0")
    # nonzero cells only: <x>^alpha may overflow where w = 0, and inf * 0 is NaN;
    # where w != 0 an overflow is the true value, inf, and is returned as such
    nz = w.values != 0
    with np.errstate(over="ignore"):
        weighted = w.grid.bracket()[nz] ** alpha * np.abs(w.values[nz])
    return float(np.max(weighted, initial=0.0))


def tau(alpha: float, dim: int) -> float:
    """Decay exponent delivered by the resolvent for sources decaying at
    rate alpha; requires a finite alpha > (dim+1)/2."""
    alpha = _check_alpha(alpha, dim)
    lo = 0.5 * (dim + 1)
    if alpha < dim:
        return alpha - lo
    return 0.5 * (dim - 1)


# -- sphere quadrature --------------------------------------------------------

def sphere_quadrature(dim: int, points: int = 26) -> tuple[np.ndarray, np.ndarray]:
    """Directions and positive weights on the unit sphere S^(dim-1); weights
    sum to the sphere measure (2 pi for dim 2, 4 pi for dim 3).  In 3D, 26
    points give the octahedral rule; any other count n gives n directions on
    the golden spiral, weighted 4 pi / n, which only the far field samples."""
    if dim == 2:
        if points < 4:
            raise ValueError("need at least 4 points on the circle")
        ang = np.arange(points) * 2.0 * np.pi / points
        dirs = np.stack([np.cos(ang), np.sin(ang)], axis=1)
        return dirs, np.full(points, 2.0 * np.pi / points)
    if dim != 3:
        raise ValueError(f"dim must be 2 or 3, got {dim}")
    if points == 26:
        # octahedral rule, exact through degree 7: the unit vectors with n =
        # 1, 2 or 3 nonzero components, each +-1/sqrt(n), weighted by a
        # fraction of the full measure 4 pi per n
        dirs, wts = [], []
        for n, frac in ((1, 1.0 / 21.0), (2, 4.0 / 105.0), (3, 27.0 / 840.0)):
            r = 1.0 / math.sqrt(n)
            for axes in itertools.combinations(range(3), n):
                for signs in itertools.product((r, -r), repeat=n):
                    v = np.zeros(3)
                    v[list(axes)] = signs
                    dirs.append(v)
                    wts.append(frac * 4.0 * np.pi)
        return np.array(dirs), np.array(wts)
    i = np.arange(points)
    z = 1.0 - (2.0 * i + 1.0) / points
    az = i * np.pi * (3.0 - math.sqrt(5.0))
    s = np.sqrt(1.0 - z * z)
    dirs = np.stack([s * np.cos(az), s * np.sin(az), z], axis=1)
    return dirs, np.full(points, 4.0 * np.pi / points)


def grid_interpolant(grid: Grid, values: np.ndarray):
    """Multilinear interpolant of values given on the grid's nodes.  values
    has shape grid.shape + trailing, so one interpolant samples a stack of
    fields.  Returns at(points) for points of shape (..., dim), with values
    of shape points.shape[:-1] + trailing.  As scipy's
    RegularGridInterpolator, which the test suite checks it against, it
    raises ValueError for a point outside the grid."""
    m = grid.points_per_axis
    trailing = (np.newaxis,) * (values.ndim - grid.dim)

    def at(points):
        pts = np.asarray(points, dtype=float)
        if not np.all(np.abs(pts) <= grid.half_width):
            raise ValueError(f"interpolation point outside the grid "
                             f"[-{grid.half_width}, {grid.half_width}]^{grid.dim}")
        # fractional node index per axis; a point on the last node sits at
        # the far face of the last cell
        s = (pts + grid.half_width) / grid.spacing
        lo = np.minimum(s.astype(int), m - 2)
        frac = s - lo
        out = 0.0
        for corner in itertools.product((0, 1), repeat=grid.dim):
            weight = 1.0
            for a, c in enumerate(corner):
                weight = weight * (frac[..., a] if c else 1.0 - frac[..., a])
            node = tuple(lo[..., a] + c for a, c in enumerate(corner))
            out = out + values[node] * weight[(Ellipsis,) + trailing]
        return out

    return at


def sphere_trace(grid: Grid, values: np.ndarray, dirs: np.ndarray):
    """Centered-difference gradient of the grid values u, and the trace
    R -> (u, d_r u) at the points R * dirs.  u and the gradient components
    are written into one complex array, stacked along a last axis, which one
    grid_interpolant samples; the radiation and flux diagnostics read u
    through here.  Returns (gradient components, trace), the components as
    views into that array."""
    stack = np.empty(grid.shape + (grid.dim + 1,), dtype=complex)
    stack[..., 0] = values
    for a in range(grid.dim):
        stack[..., a + 1] = np.gradient(values, grid.spacing, axis=a, edge_order=2)
    at = grid_interpolant(grid, stack)

    def trace(R: float):
        vals = at(R * dirs)
        return vals[:, 0], sum(d * vals[:, a + 1] for a, d in enumerate(dirs.T))

    return [stack[..., a + 1] for a in range(grid.dim)], trace


# -- Gauss-Legendre panels ----------------------------------------------------

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(32)


def gl_panels(fn, a, b) -> np.ndarray:
    """32-point Gauss-Legendre integrals of fn over the panels [a_i, b_i]; fn
    is called once, on the (P, 32) array of every panel's nodes, and may
    return leading axes ahead of those two (one integrand per entry), which
    the result keeps: shape (..., P)."""
    a = np.asarray(a, dtype=float)[:, np.newaxis]
    b = np.asarray(b, dtype=float)[:, np.newaxis]
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    return half[:, 0] * np.sum(_GL_WEIGHTS * fn(mid + half * _GL_NODES), axis=-1)


# -- incident waves -----------------------------------------------------------

@dataclass
class IncidentWave:
    """Plane incident wave exp(i k d.x) with unit direction d."""

    k: float
    direction: np.ndarray

    @classmethod
    def plane(cls, k: float, direction) -> "IncidentWave":
        d = np.asarray(direction, dtype=float)
        norm = float(np.linalg.norm(d))
        if not math.isfinite(norm) or abs(norm - 1.0) > 1e-8:
            raise ValueError(f"direction must be unit length, |d| = {norm}")
        if not (0.0 < k < math.inf):
            raise ValueError(f"k must be finite and > 0, got {k}")
        return cls(k=float(k), direction=d / norm)


def make_incident(spec: IncidentWave, grid: Grid) -> ComplexField:
    """Evaluate the incident wave on the grid."""
    if np.shape(spec.direction) != (grid.dim,):
        raise ValueError(f"direction of shape {np.shape(spec.direction)} on a "
                         f"grid of dim {grid.dim}")
    xs = grid.meshgrid()
    phase = sum(x * d for x, d in zip(xs, spec.direction))
    return ComplexField(grid, np.exp(1j * spec.k * phase))


# -- nonlinearities -----------------------------------------------------------

@dataclass(frozen=True)
class NonlinearitySpec:
    """Pointwise nonlinearity f(x, u) with decay rate alpha for the
    coefficient.

    box, recorded once with its slices, is the index box of the
    coefficients' support: the support_box of Q, or of supp a U supp b; None
    when they vanish.  f(x, u) is 0 off the box for every u, and on_box
    evaluates it on the box."""

    kind: str
    alpha: float
    grid: Grid
    Q: ComplexField | None = None
    p: float | None = None
    a: ComplexField | None = None
    b: ComplexField | None = None
    box: tuple[tuple[int, int], ...] | None = field(init=False, repr=False,
                                                    compare=False)
    slices: tuple[slice, ...] = field(init=False, repr=False, compare=False)
    _q: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind == "power":
            support = self.Q.values
        elif self.kind == "affine":
            support = (self.a.values != 0) | (self.b.values != 0)
        else:
            raise ValueError(f"unknown nonlinearity kind {self.kind!r}")
        box = support_box(support)
        object.__setattr__(self, "box", box)
        object.__setattr__(self, "slices", box_slices(box, self.grid.dim))
        if self.kind == "power":
            # the real coefficient Q on the box, contiguous, which on_box reads
            object.__setattr__(self, "_q", self.Q.values.real[self.slices].copy())

    @classmethod
    def power(cls, Q: ComplexField, p: float, alpha: float) -> "NonlinearitySpec":
        if not np.all(Q.values.imag == 0.0):
            raise ValueError("power coefficient Q must be real-valued")
        if not (2.0 < p < math.inf):
            raise ValueError(f"power p must be finite and exceed 2, got {p}")
        dim = Q.grid.dim
        if dim >= 3 and p >= critical_exponent(dim):
            raise ValueError(f"power p must stay below 2*dim/(dim-2) = "
                             f"{critical_exponent(dim)}, got {p}")
        return cls(kind="power", alpha=_check_alpha(alpha, dim), grid=Q.grid, Q=Q,
                   p=float(p))

    @classmethod
    def affine(cls, a: ComplexField, b: ComplexField, alpha: float) -> "NonlinearitySpec":
        if a.grid != b.grid:
            raise ValueError("affine coefficients live on different grids")
        return cls(kind="affine", alpha=_check_alpha(alpha, a.grid.dim), grid=a.grid,
                   a=a, b=b)

    def on_box(self, u: np.ndarray) -> np.ndarray:
        """f(x, u) on the cells of box, for the values u of an iterate there
        (an array of the box's shape): the one place the pointwise formula
        is written."""
        if self.kind == "power":
            return self._q * np.abs(u) ** (self.p - 2.0) * u
        return self.a.values[self.slices] * u + self.b.values[self.slices]


def support_box(values: np.ndarray) -> tuple[tuple[int, int], ...] | None:
    """Index bounding box of the nonzero cells of values: (first, last) per
    axis, both inclusive; None when every cell is zero."""
    mask = values != 0
    if not mask.any():
        return None
    box = []
    for axis_idx in range(mask.ndim):
        proj = mask.any(axis=tuple(i for i in range(mask.ndim) if i != axis_idx))
        idx = np.flatnonzero(proj)
        box.append((int(idx[0]), int(idx[-1])))
    return tuple(box)


def box_slices(box: tuple[tuple[int, int], ...] | None, dim: int,
               offset: int = 0) -> tuple[slice, ...]:
    """Index slices that select the cells of box, shifted by offset on every
    axis (the index of the box's grid inside a larger aligned grid); for
    box None they select nothing."""
    if box is None:
        return (slice(0, 0),) * dim
    return tuple(slice(offset + lo, offset + hi + 1) for lo, hi in box)


def support_diameter(coef: ComplexField) -> float:
    """Diagonal of the bounding box of the nonzero cells of coef (an upper
    bound for the diameter of its support); 0 for a zero field."""
    box = support_box(coef.values)
    if box is None:
        return 0.0
    g = coef.grid
    ax = g.axis()
    return math.sqrt(sum((ax[hi] - ax[lo] + g.spacing) ** 2 for lo, hi in box))


def critical_exponent(dim: int) -> float:
    """The critical power 2 dim/(dim - 2), for dim >= 3."""
    return 2.0 * dim / (dim - 2.0)


def _check_alpha(alpha: float, dim: int) -> float:
    lo = 0.5 * (dim + 1)
    if not (math.isfinite(alpha) and alpha > lo):
        raise ValueError(f"alpha must exceed (dim+1)/2 = {lo}, got {alpha}")
    return float(alpha)


def apply_nonlinearity(f: NonlinearitySpec, u: ComplexField) -> ComplexField:
    """Pointwise f(x, u(x)): f.on_box on the coefficients' box, 0 off it."""
    if u.grid != f.grid:
        raise ValueError("field grid does not match nonlinearity grid")
    out = np.zeros(u.grid.shape, dtype=complex)
    out[f.slices] = f.on_box(u.values[f.slices])
    return ComplexField(u.grid, out)


# random (u, v) pairs in the power-kind search, and the shrinking refinement
# rounds around the best pair
_LIPSCHITZ_SAMPLES = 4000
_LIPSCHITZ_ROUNDS = 8


def _power_quotient_sup(p: float, cap: float, rng) -> float:
    """sup over |u|,|v| <= cap of ||u|^(p-2)u - |v|^(p-2)v| / |u - v| by
    randomized search with shrinking refinement around the best pair."""
    def g(z):
        return np.abs(z) ** (p - 2.0) * z

    def quot(u, v):
        d = np.abs(u - v)
        with np.errstate(invalid="ignore", divide="ignore"):
            q = np.abs(g(u) - g(v)) / d
        return np.where(d > 0.0, q, 0.0)

    def draw(n):
        u = cap * np.sqrt(rng.uniform(0, 1, n)) * np.exp(2j * np.pi * rng.uniform(0, 1, n))
        mode = rng.uniform(0, 1, n)
        eps = cap * 10.0 ** rng.uniform(-9, -1, n) * np.exp(2j * np.pi * rng.uniform(0, 1, n))
        v_near = u + eps
        v_far = cap * np.sqrt(rng.uniform(0, 1, n)) * np.exp(2j * np.pi * rng.uniform(0, 1, n))
        v = np.where(mode < 0.5, v_near, v_far)
        av = np.abs(v)
        v = np.where(av > cap, v * (cap / np.maximum(av, 1e-300)), v)
        return u, v

    u, v = draw(_LIPSCHITZ_SAMPLES)
    q = quot(u, v)
    best = float(np.max(q))
    bu, bv = u[np.argmax(q)], v[np.argmax(q)]
    scale = 0.3 * cap
    n = _LIPSCHITZ_SAMPLES // 4
    for _ in range(_LIPSCHITZ_ROUNDS):
        du = scale * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
        dv = scale * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
        u = bu + du
        v = bv + dv
        keep = (np.abs(u) <= cap) & (np.abs(v) <= cap)
        if keep.any():
            q = quot(u[keep], v[keep])
            if q.size and float(np.max(q)) > best:
                best = float(np.max(q))
                bu, bv = u[keep][np.argmax(q)], v[keep][np.argmax(q)]
        scale *= 0.35
    return best


def estimate_lipschitz(f: NonlinearitySpec, cap: float, seed: int = 0) -> float:
    """Estimate sup over x, |u|,|v| <= cap of
    <x>^alpha |f(x,u) - f(x,v)| / |u - v|.

    For the affine kind the supremum is exactly the weighted norm of a.  For
    the power kind the x and (u, v) searches separate, so only the pair
    search is randomized.  The result is a lower estimate, not a certificate.
    """
    if cap <= 0.0:
        raise ValueError("cap must be > 0")
    rng = np.random.default_rng(seed)
    if f.kind == "affine":
        return weighted_norm(f.a, f.alpha)
    coef = weighted_norm(f.Q, f.alpha)
    return coef * _power_quotient_sup(f.p, cap, rng)


# -- aligned subgrids ---------------------------------------------------------

def _alignment_offset(outer: Grid, inner: Grid) -> int:
    """Index offset of the inner grid's first point inside the outer grid.
    Requires equal spacing and exact node alignment."""
    if outer.dim != inner.dim:
        raise ValueError("grid dimensions differ")
    h0, h1 = outer.spacing, inner.spacing
    if abs(h0 - h1) > 1e-12 * h0:
        raise ValueError("grid spacings differ")
    shift = (inner.half_width - outer.half_width) / h0  # negative or zero
    off = -shift
    n = round(off)
    if abs(off - n) > 1e-9 or n < 0:
        raise ValueError("inner grid nodes do not align with the outer grid")
    if inner.points_per_axis + n > outer.points_per_axis:
        raise ValueError("inner grid does not fit inside the outer grid")
    return int(n)


def restrict_field(fld: ComplexField, inner: Grid) -> ComplexField:
    """Restriction to an aligned subgrid."""
    n = _alignment_offset(fld.grid, inner)
    sl = (slice(n, n + inner.points_per_axis),) * inner.dim
    return ComplexField(inner, fld.values[sl].copy())

# -- serialization ------------------------------------------------------------

_FIELD_MAGIC = b"CFLD"
_HEADER = struct.Struct("<4sB3xiidd")  # magic, version, dim, M, L, k


def save_field(path, fld: ComplexField, k: float):
    """Binary field file: 32-byte header {dim, M, L, k} then row-major
    interleaved re/im little-endian float64; k is the wavenumber of the
    problem the field solves."""
    g = fld.grid
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(_FIELD_MAGIC, 1, g.dim, g.points_per_axis,
                              g.half_width, float(k)))
        fh.write(np.ascontiguousarray(fld.values).astype("<c16").tobytes())


def load_field(path) -> tuple[ComplexField, float]:
    with open(path, "rb") as fh:
        head = fh.read(_HEADER.size)
        if len(head) != _HEADER.size:
            raise ValueError("truncated field file header")
        magic, version, dim, m, half_width, k = _HEADER.unpack(head)
        if magic != _FIELD_MAGIC:
            raise ValueError("not a field file")
        if version != 1:
            raise ValueError(f"unsupported field file version {version}")
        grid = Grid(dim=dim, half_width=half_width, points_per_axis=m)
        raw = fh.read(16 * m ** dim)
        if len(raw) != 16 * m ** dim:
            raise ValueError("truncated field file payload")
        vals = np.frombuffer(raw, dtype="<c16").astype(complex).reshape(grid.shape)
    return ComplexField(grid, vals), float(k)

