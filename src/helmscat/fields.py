"""Uniform grids, complex fields, the one bound check (BoundCheck, which
computes its own margin and verdict), weighted sup norms, sphere
quadrature and sphere traces, the one multilinear corner rule (behind the
sphere traces and the far field), the one grid gradient (a node rule built
once, then a gather per field), the one Gauss-Legendre panel rule, plane
incident waves and pointwise nonlinearities.

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

import functools
import itertools
import math
import struct
from dataclasses import dataclass, field

import numpy as np

from .specfun import _check_count, _check_positive

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
    "gradient_rule",
    "gradient_at",
    "sphere_trace",
    "gl_panels",
    "support_box",
    "box_slices",
    "support_diameter",
    "box_diameter",
    "critical_exponent",
    "checked_radii",
    "make_incident",
    "apply_nonlinearity",
    "estimate_lipschitz",
    "restrict_field",
    "save_field",
    "load_field",
]

DEFAULT_MAX_POINTS = 1 << 22
# sphere plans kept by the LRU of _sphere_plan, one per (grid, radius,
# directions) of a sphere trace or a far field; each holds 16 2^dim bytes
# per direction, up to 49 2^dim where the sphere meets the grid's faces:
# 3.3 to 10 KB for the 3D rule, 128 to 392 KB for 1,000 directions in 3D
_SPHERE_PLANS = 16


@dataclass(frozen=True)
class Grid:
    """Uniform Cartesian grid on [-half_width, half_width]^dim."""

    dim: int
    half_width: float
    points_per_axis: int

    def __post_init__(self):
        _check_count(self.dim, "dim", 2)
        if self.dim not in (2, 3):
            raise ValueError(f"dim must be 2 or 3, got {self.dim}")
        _check_positive(self.half_width, "half_width")
        _check_count(self.points_per_axis, "points_per_axis", 2)
        if self.points_per_axis ** self.dim > DEFAULT_MAX_POINTS:
            raise ValueError(
                f"grid of {self.points_per_axis}^{self.dim} points exceeds "
                f"the memory cap of {DEFAULT_MAX_POINTS} points")
        try:
            volume = self.cell_volume
        except OverflowError:  # float ** raises where * gives inf
            volume = math.inf
        _check_positive(volume, f"cell volume h^{self.dim} = {volume}")

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

    def radius(self, box: tuple[tuple[int, int], ...] | None = None) -> np.ndarray:
        """|x| on the grid's nodes, or on the cells of box (inclusive index
        bounds per axis, as support_box gives them): the squared axis
        coordinates broadcast and summed axis by axis, so every cell gets
        the value the whole grid gives it."""
        ax = self.axis()
        r = 0
        for a in range(self.dim):
            x = ax if box is None else ax[box[a][0]:box[a][1] + 1]
            x = x.reshape((-1,) + (1,) * (self.dim - 1 - a))
            r = r + x * x
        return np.sqrt(r, out=r)

    def bracket(self, box: tuple[tuple[int, int], ...] | None = None) -> np.ndarray:
        """<x> = sqrt(1 + |x|^2) on the grid, or on the cells of box, from
        radius."""
        r = self.radius(box)
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
    """One named inequality lhs <= rhs within tolerance: margin = rhs - lhs,
    satisfied iff margin >= -tolerance (never for a NaN margin)."""

    name: str
    lhs: float
    rhs: float
    margin: float = field(init=False)
    satisfied: bool = field(init=False)
    tolerance: float = 0.0
    context: dict = field(default_factory=dict)

    def __post_init__(self):
        margin = self.rhs - self.lhs
        object.__setattr__(self, "margin", margin)
        object.__setattr__(self, "satisfied", bool(margin >= -self.tolerance))


def weighted_norm(w: ComplexField, alpha: float) -> float:
    """sup over the grid of <x>^alpha |w(x)|, read on the support box of w:
    <x> is Grid.bracket on the box, which gives each cell the whole grid's
    value, and the sup is over the box's nonzero cells; 0 for a zero
    field."""
    if not (math.isfinite(alpha) and alpha >= 0.0):
        raise ValueError("alpha must be finite and >= 0")
    box = support_box(w.values)
    if box is None:
        return 0.0
    vals = w.values[box_slices(box, w.grid.dim)]
    # nonzero cells only: <x>^alpha may overflow where w = 0, and inf * 0 is NaN;
    # where w != 0 an overflow is the true value, inf, and is returned as such
    nz = vals != 0
    with np.errstate(over="ignore"):
        weighted = w.grid.bracket(box)[nz] ** alpha * np.abs(vals[nz])
    return float(np.max(weighted))


def tau(alpha: float, dim: int) -> float:
    """Decay exponent delivered by the resolvent for sources decaying at
    rate alpha; requires a finite alpha > (dim+1)/2."""
    alpha = _check_alpha(alpha, dim)
    lo = 0.5 * (dim + 1)
    if alpha < dim:
        return alpha - lo
    return 0.5 * (dim - 1)


# -- sphere quadrature --------------------------------------------------------

@functools.lru_cache(maxsize=1)
def _octahedral_rule() -> tuple[np.ndarray, np.ndarray]:
    """The 26-point rule on S^2, exact through degree 7, built once, its
    arrays read-only: the unit vectors with n = 1, 2 or 3 nonzero components,
    each +-1/sqrt(n), weighted by a fraction of the full measure 4 pi per n."""
    dirs, wts = [], []
    for n, frac in ((1, 1.0 / 21.0), (2, 4.0 / 105.0), (3, 27.0 / 840.0)):
        r = 1.0 / math.sqrt(n)
        for axes in itertools.combinations(range(3), n):
            for signs in itertools.product((r, -r), repeat=n):
                v = np.zeros(3)
                v[list(axes)] = signs
                dirs.append(v)
                wts.append(frac * 4.0 * np.pi)
    dirs, wts = np.array(dirs), np.array(wts)
    dirs.flags.writeable = wts.flags.writeable = False
    return dirs, wts


def sphere_quadrature(dim: int, points: int = 26) -> tuple[np.ndarray, np.ndarray]:
    """Directions and positive weights on the unit sphere S^(dim-1); weights
    sum to the sphere measure (2 pi for dim 2, 4 pi for dim 3).  In 3D, 26
    points give the octahedral rule; any other count n gives n directions on
    the golden spiral, weighted 4 pi / n, which only the far field samples."""
    if dim not in (2, 3):
        raise ValueError(f"dim must be 2 or 3, got {dim}")
    _check_count(points, "points", 4 if dim == 2 else 1)
    if dim == 2:
        ang = np.arange(points) * 2.0 * np.pi / points
        dirs = np.stack([np.cos(ang), np.sin(ang)], axis=1)
        return dirs, np.full(points, 2.0 * np.pi / points)
    if points == 26:
        return _octahedral_rule()
    i = np.arange(points)
    z = 1.0 - (2.0 * i + 1.0) / points
    az = i * np.pi * (3.0 - math.sqrt(5.0))
    s = np.sqrt(1.0 - z * z)
    dirs = np.stack([s * np.cos(az), s * np.sin(az), z], axis=1)
    return dirs, np.full(points, 4.0 * np.pi / points)


def _cell_corners(grid: Grid, points) -> tuple[np.ndarray, np.ndarray]:
    """The multilinear rule at points of shape (..., dim): the flat node
    indices of the 2^dim corners of each point's cell and their weights,
    two arrays of shape (2^dim,) + points.shape[:-1], corners in
    itertools.product order.  As scipy's RegularGridInterpolator, which the
    test suite checks the rule against, it raises ValueError for a point
    outside the grid."""
    m = grid.points_per_axis
    pts = np.asarray(points, dtype=float)
    if not np.all(np.abs(pts) <= grid.half_width):
        raise ValueError(f"interpolation point outside the grid "
                         f"[-{grid.half_width}, {grid.half_width}]^{grid.dim}")
    # fractional node index per axis; a point on the last node sits at the
    # far face of the last cell
    s = (pts + grid.half_width) / grid.spacing
    lo = np.minimum(s.astype(int), m - 2)
    frac = s - lo
    # corner c of a cell is its node lo + c; on axis a it weighs frac[a]
    # where c[a] = 1 and 1 - frac[a] where c[a] = 0, and its weight is the
    # product of those factors, taken in axis order
    corners = np.array(list(itertools.product((0, 1), repeat=grid.dim)))
    at_corner = (len(corners),) + (1,) * (pts.ndim - 1)
    factors = np.where(corners.reshape(at_corner + (grid.dim,)) == 1, frac, 1.0 - frac)
    weights = factors[..., 0]
    for a in range(1, grid.dim):
        weights = weights * factors[..., a]
    strides = m ** np.arange(grid.dim - 1, -1, -1)
    nodes = lo @ strides + (corners @ strides).reshape(at_corner)
    return nodes, weights


def _read_only(plan):
    """plan, a nest of tuples holding arrays, with every array marked
    read-only: a cached plan hands the same arrays to every caller."""
    if isinstance(plan, np.ndarray):
        plan.flags.writeable = False
    elif isinstance(plan, tuple):
        for part in plan:
            _read_only(part)
    return plan


def gradient_rule(grid: Grid, nodes) -> tuple:
    """gradient_at's rule at the flat node indices nodes, which reads no
    values: nodes.shape and, per axis a, the stride s = m^(dim-1-a) and one
    (where, nodes there) pair per numpy formula the nodes take along a: the
    centred difference and, unless no node lies on a face normal to a (as
    none of the ball average's cells does), the one-sided formulas at the
    first and at the last node."""
    m = grid.points_per_axis
    if m < 3:
        raise ValueError("a second-order gradient needs at least 3 points per axis")
    nodes = np.asarray(nodes)
    axes = []
    for a in range(grid.dim):
        s = m ** (grid.dim - 1 - a)
        pos = nodes // s % m
        if pos.min(initial=1) > 0 and pos.max(initial=0) < m - 1:
            axes.append((s, ((Ellipsis, nodes),)))
            continue
        first, last = pos == 0, pos == m - 1
        axes.append((s, tuple((where, nodes[where])
                              for where in (~(first | last), first, last))))
    return nodes.shape, tuple(axes)


def gradient_at(grid: Grid, values: np.ndarray, rule: tuple) -> np.ndarray:
    """np.gradient(values, grid.spacing, axis=a, edge_order=2) for every
    axis a, at the nodes of rule (gradient_rule), bit for bit, with shape
    (dim,) + nodes.shape: each value gathered from the node at its stride
    and each formula written with numpy's operations in numpy's order.  The
    one gradient of the sphere diagnostics."""
    h = grid.spacing
    flat = values.reshape(-1)
    shape, axes = rule
    out = np.empty((grid.dim,) + shape, dtype=np.result_type(flat, float))
    for row, (s, formulas) in zip(out, axes):
        (where, n), *faces = formulas
        row[where] = (flat[n + s] - flat[n - s]) / (2.0 * h)
        if faces:
            (first, nf), (last, nl) = faces
            row[first] = ((-1.5 / h) * flat[nf] + (2.0 / h) * flat[nf + s]
                          + (-0.5 / h) * flat[nf + 2 * s])
            row[last] = ((0.5 / h) * flat[nl - 2 * s] + (-2.0 / h) * flat[nl - s]
                         + (1.5 / h) * flat[nl])
    return out


@functools.lru_cache(maxsize=_SPHERE_PLANS)
def _sphere_plan(grid: Grid, R: float, dirs: bytes) -> tuple:
    """The rule at the points R * dirs (dirs the float64 bytes of the
    (n, dim) directions), which reads no values: the corner nodes and
    weights of the points' cells (_cell_corners) and the gradient rule at
    those corners, read-only.  sphere_trace and the far field read it."""
    points = R * np.frombuffer(dirs).reshape(-1, grid.dim)
    nodes, weights = _cell_corners(grid, points)
    return _read_only((nodes, weights, gradient_rule(grid, nodes)))


def _corner_sum(at_corners: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """The multilinear rule's one sum, over the corners c in order, of
    at_corners[..., c, :] * weights[c] (values gathered at a plan's nodes)."""
    out = 0.0
    for c, weight in enumerate(weights):
        out = out + at_corners[..., c, :] * weight
    return out


def sphere_trace(grid: Grid, values: np.ndarray, dirs: np.ndarray):
    """The trace R -> (u, d_r u) of the grid values u at the points
    R * dirs: each call takes the corner nodes and weights of the points'
    cells and the gradient rule there from the plan cached per (grid, R,
    dirs), gathers u and its gradient_at the corners, and sums the corners
    (_corner_sum), so u and each gradient component are the multilinear
    interpolants of whole-grid arrays.  The radiation and flux diagnostics
    read u through here."""
    flat = values.reshape(-1)
    key = np.ascontiguousarray(dirs, dtype=float).tobytes()

    def trace(R: float):
        nodes, weights, rule = _sphere_plan(grid, float(R), key)
        # u and its gradient components at the corners, one row each
        rows = np.concatenate([flat[nodes][np.newaxis],
                               gradient_at(grid, values, rule)])
        out = _corner_sum(rows, weights)
        return out[0], sum(d * gc for d, gc in zip(dirs.T, out[1:]))

    return trace


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

def checked_radii(radii, half_width: float) -> tuple[float, ...]:
    """radii as floats; ValueError unless they are nonempty, finite,
    positive, increasing and at most the grid half-width, as the radiation
    and flux diagnostics need."""
    radii = tuple(float(R) for R in radii)
    for R in radii:
        if not math.isfinite(R):
            raise ValueError(f"radius {R} is not finite")
    if not radii or any(R <= 0 for R in radii) or sorted(radii) != list(radii):
        raise ValueError("radii must be nonempty, positive and increasing")
    if radii[-1] > half_width:
        raise ValueError(f"radius {radii[-1]} exceeds the grid half-width {half_width}")
    return radii


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
        _check_positive(k, "k")
        return cls(k=float(k), direction=d / norm)


def make_incident(spec: IncidentWave, grid: Grid) -> ComplexField:
    """Evaluate the incident wave on the grid."""
    if np.shape(spec.direction) != (grid.dim,):
        raise ValueError(f"direction of shape {np.shape(spec.direction)} on a "
                         f"grid of dim {grid.dim}")
    # exp(i k d.x) is the product over the axes of exp(i k d_a x_a): dim * M
    # exponentials, broadcast into the grid's C order
    ax = grid.axis()
    wave = 1.0
    for a, d in enumerate(spec.direction):
        wave = wave * np.exp(1j * (spec.k * d) * ax).reshape((-1,) + (1,) * (grid.dim - 1 - a))
    return ComplexField(grid, wave)


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
    # the first axis from one pass over the mask; the others from its slab
    # of nonzero first indices, folded onto the remaining axes once
    first = np.flatnonzero(mask.reshape(mask.shape[0], -1).any(axis=1))
    if first.size == 0:
        return None
    slab = mask[first[0]:first[-1] + 1].any(axis=0)
    box = [(int(first[0]), int(first[-1]))]
    for a in range(slab.ndim):
        idx = np.flatnonzero(slab.any(axis=tuple(i for i in range(slab.ndim) if i != a)))
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
    return box_diameter(coef.grid, support_box(coef.values))


def box_diameter(grid: Grid, box: tuple[tuple[int, int], ...] | None) -> float:
    """Diagonal of the cells of box on grid, one spacing added per axis: the
    support diameter of a field whose support_box is box; 0 for None."""
    if box is None:
        return 0.0
    ax = grid.axis()
    return math.sqrt(sum((ax[hi] - ax[lo] + grid.spacing) ** 2 for lo, hi in box))


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
# unit-disk searches kept by the LRU of _unit_quotient_sup, a float each
_UNIT_QUOTIENTS = 16


def _power_quotient_sup(p: float, rng) -> float:
    """sup over |u|,|v| <= 1 of ||u|^(p-2)u - |v|^(p-2)v| / |u - v| by
    randomized search with shrinking refinement around the best pair."""
    def g(z):
        return np.abs(z) ** (p - 2.0) * z

    def quot(u, v):
        d = np.abs(u - v)
        with np.errstate(invalid="ignore", divide="ignore"):
            q = np.abs(g(u) - g(v)) / d
        return np.where(d > 0.0, q, 0.0)

    def draw(n):
        u = np.sqrt(rng.uniform(0, 1, n)) * np.exp(2j * np.pi * rng.uniform(0, 1, n))
        mode = rng.uniform(0, 1, n)
        eps = 10.0 ** rng.uniform(-9, -1, n) * np.exp(2j * np.pi * rng.uniform(0, 1, n))
        v_near = u + eps
        v_far = np.sqrt(rng.uniform(0, 1, n)) * np.exp(2j * np.pi * rng.uniform(0, 1, n))
        v = np.where(mode < 0.5, v_near, v_far)
        av = np.abs(v)
        v = np.where(av > 1.0, v * (1.0 / np.maximum(av, 1e-300)), v)
        return u, v

    u, v = draw(_LIPSCHITZ_SAMPLES)
    q = quot(u, v)
    best = float(np.max(q))
    bu, bv = u[np.argmax(q)], v[np.argmax(q)]
    scale = 0.3
    n = _LIPSCHITZ_SAMPLES // 4
    for _ in range(_LIPSCHITZ_ROUNDS):
        du = scale * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
        dv = scale * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
        u = bu + du
        v = bv + dv
        keep = (np.abs(u) <= 1.0) & (np.abs(v) <= 1.0)
        if keep.any():
            q = quot(u[keep], v[keep])
            if q.size and float(np.max(q)) > best:
                best = float(np.max(q))
                bu, bv = u[keep][np.argmax(q)], v[keep][np.argmax(q)]
        scale *= 0.35
    return best


@functools.lru_cache(maxsize=_UNIT_QUOTIENTS)
def _unit_quotient_sup(p: float, seed: int) -> float:
    """The unit-disk search of _power_quotient_sup, run once per (p, seed)."""
    return _power_quotient_sup(p, np.random.default_rng(seed))


def estimate_lipschitz(f: NonlinearitySpec, cap: float, seed: int = 0) -> float:
    """Estimate sup over x, |u|,|v| <= cap of
    <x>^alpha |f(x,u) - f(x,v)| / |u - v|.

    For the affine kind the supremum is exactly the weighted norm of a.  For
    the power kind the x and (u, v) searches separate, and the quotient of
    g(z) = |z|^(p-2) z is homogeneous of degree p - 2: its sup over
    |u|,|v| <= cap is cap^(p-2) times its sup over the unit disk.  Only that
    unit-disk search is randomized; it runs once per (p, seed) and is kept,
    so seed must be an integer >= 0.  A cap^(p-2) beyond the float range
    gives inf (0 for a zero Q).  The result is a lower estimate, not a certificate.
    """
    _check_positive(cap, "cap")
    _check_count(seed, "seed", 0)
    if f.kind == "affine":
        return weighted_norm(f.a, f.alpha)
    coef = weighted_norm(f.Q, f.alpha)
    try:
        scale = math.pow(cap, f.p - 2.0)
    except OverflowError:
        return math.inf if coef else 0.0
    return coef * (scale * _unit_quotient_sup(f.p, seed))


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
        fh.write(memoryview(np.ascontiguousarray(fld.values, dtype="<c16")))


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
        # the payload is read once, straight into the field's array
        vals = np.empty(grid.shape, dtype="<c16")
        if fh.readinto(vals) != vals.nbytes:
            raise ValueError("truncated field file payload")
    return ComplexField(grid, vals), float(k)

