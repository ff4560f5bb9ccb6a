"""Radial discretization of R^N.

Radial functions u(|x|) are sampled on a uniform mesh r_i = i*h on
[0, r_max] with a homogeneous Dirichlet value at r_max standing in for
decay at infinity.  Full-space integrals of radial integrands reduce to

    int_{R^N} g(|x|) dx = N * omega_N * int_0^inf g(r) r^{N-1} dr,

where omega_N is the volume of the unit ball; the r^{N-1} weight is
folded into per-node quadrature weights (composite Simpson, with a
Simpson-3/8 patch when the interval count is odd), so every integral in
the package is a single dot product against `grid.weights`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError

__all__ = [
    "RadialGrid",
    "RadialFunction",
    "make_grid",
    "integrate",
    "grad_seminorm_sq",
    "l2_norm_sq",
    "h1_norm_sq",
    "row_norms_sq",
    "dilate",
    "pde_residual",
]


# rows of the (BLOCK, n) temporaries of one array pass over a stack of
# profiles, or over the values of t in a potential table
BLOCK = 8


def unit_ball_volume(N: int) -> float:
    """Volume of the unit ball of R^N, pi^{N/2} / Gamma(N/2 + 1)."""
    return math.pi ** (N / 2.0) / math.gamma(N / 2.0 + 1.0)


def _simpson_coeffs(n: int) -> np.ndarray:
    """Composite Simpson coefficients (unit spacing) for n >= 5 nodes
    (make_grid asks for 16).

    Needs an even interval count; if n-1 is odd the last three intervals
    get the Simpson-3/8 rule, which keeps the composite rule O(h^4).
    """
    c = np.zeros(n)
    m = n - 1  # interval count
    if m % 2 == 0:
        c[0] = c[-1] = 1.0
        c[1:-1:2] = 4.0
        c[2:-1:2] = 2.0
        c /= 3.0
    else:
        # Simpson on the first m-3 intervals, 3/8 on the last three.
        c[: n - 3] += _simpson_coeffs(n - 3)
        tail = np.array([1.0, 3.0, 3.0, 1.0]) * (3.0 / 8.0)
        c[n - 4 :] += tail
    return c


@dataclass(frozen=True)
class RadialGrid:
    """Uniform radial mesh with precomputed full-space quadrature weights.

    Attributes
    ----------
    N : int
        Space dimension (>= 3).
    r_max : float
        Truncation radius; functions are forced to zero there.
    n : int
        Number of nodes, r_i = i * h with h = r_max / (n - 1).
    omega_N : float
        Volume of the unit ball of R^N.
    r : ndarray
        Node positions.
    weights : ndarray
        Quadrature weights realizing int_{R^N} g(|x|) dx as weights @ g(r).
    """

    N: int
    r_max: float
    n: int
    h: float
    omega_N: float
    r: np.ndarray = field(repr=False, compare=False)
    weights: np.ndarray = field(repr=False, compare=False)
    # weights without the r^{N-1} factor, for integrands carrying their
    # own power of r (e.g. u^2 / r^2)
    bare_weights: np.ndarray = field(repr=False, compare=False)

    def mesh(self) -> dict:
        """The grid block of the JSON reports: what identifies the mesh."""
        return {"N": self.N, "r_max": self.r_max, "n": self.n}

    def same_mesh(self, other: "RadialGrid") -> bool:
        return self.N == other.N and self.n == other.n and self.r_max == other.r_max


@dataclass(frozen=True)
class RadialFunction:
    """Sampled radial function on a :class:`RadialGrid`.

    Values must be finite and the last node must be exactly zero (the
    Dirichlet stand-in for decay).  Use :meth:`sampled` to build one from
    a callable; it zeroes the boundary node for you.
    """

    grid: RadialGrid
    values: np.ndarray = field(repr=False, compare=False)

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (self.grid.n,):
            raise DomainError(
                f"values shape {vals.shape} does not match grid size {self.grid.n}"
            )
        if not np.all(np.isfinite(vals)):
            raise DomainError("radial function has non-finite values")
        if vals[-1] != 0.0:
            raise DomainError("radial function must vanish at r_max")
        object.__setattr__(self, "values", vals)

    @staticmethod
    def sampled(grid: RadialGrid, func) -> "RadialFunction":
        vals = np.asarray(func(grid.r), dtype=float)
        vals = vals.copy()
        vals[-1] = 0.0
        return RadialFunction(grid, vals)


def make_grid(N: int, r_max: float, n: int) -> RadialGrid:
    """Build a uniform radial grid with quadrature for N omega_N r^{N-1} dr.

    Raises
    ------
    DomainError
        If N < 3, n < 16, r_max is not positive and finite, or a quadrature
        weight off the origin is not finite and positive (h r^{N-1} overflows
        or underflows).
    """
    if not isinstance(N, (int, np.integer)) or N < 3:
        raise DomainError(f"dimension must be an integer >= 3, got {N!r}")
    if n < 16:
        raise DomainError(f"grid needs at least 16 nodes, got {n}")
    if not 0.0 < r_max < math.inf:
        raise DomainError(f"r_max must be positive and finite, got {r_max}")
    h = r_max / (n - 1)
    omega = unit_ball_volume(int(N))
    with np.errstate(over="ignore"):      # rejected below
        r = np.arange(n) * h
        # pin the endpoint exactly
        r[-1] = r_max
        bare = int(N) * omega * _simpson_coeffs(n) * h
        weights = bare * r ** (int(N) - 1)
    if not (np.all(np.isfinite(weights)) and np.all(weights[1:] > 0.0)):
        raise DomainError(f"quadrature weights of r_max = {r_max} at n = {n}, "
                          f"N = {N} are not finite and positive off the origin")
    return RadialGrid(N=int(N), r_max=float(r_max), n=int(n), h=h, omega_N=omega,
                      r=r, weights=weights, bare_weights=bare)


def integrate(g: RadialFunction) -> float:
    """Full-space integral of the radial integrand g: int_{R^N} g(|x|) dx."""
    return float(g.grid.weights @ g.values)


def _derivative(v: np.ndarray, h: float) -> np.ndarray:
    """Second-order d/dr along the last axis of nodal values: centered in
    the interior, u'(0) = 0 by symmetry, one-sided three-point at r_max."""
    d = np.empty_like(v)
    d[..., 0] = 0.0
    d[..., 1:-1] = (v[..., 2:] - v[..., :-2]) / (2.0 * h)
    d[..., -1] = (3.0 * v[..., -1] - 4.0 * v[..., -2] + v[..., -3]) / (2.0 * h)
    return d


def grad_seminorm_sq(u: RadialFunction) -> float:
    """||grad u||_2^2 over R^N via finite-difference radial derivative."""
    d = _derivative(u.values, u.grid.h)
    return float(u.grid.weights @ (d * d))


def l2_norm_sq(u: RadialFunction) -> float:
    return float(u.grid.weights @ u.values**2)


def h1_norm_sq(u: RadialFunction) -> float:
    """Squared Sobolev norm ||grad u||_2^2 + ||u||_2^2."""
    return grad_seminorm_sq(u) + l2_norm_sq(u)


def row_blocks(k: int) -> list:
    """Slices covering k rows of a stack in blocks of at most BLOCK."""
    return [slice(i, i + BLOCK) for i in range(0, k, BLOCK)]


def row_norms_sq(grid: RadialGrid, values: np.ndarray) -> tuple:
    """(||grad u||_2^2, ||u||_2^2) of each row of a (k, n) stack of nodal
    values on grid: the quadratures of grad_seminorm_sq and l2_norm_sq as
    matrix-vector products, BLOCK rows at a time."""
    out = np.empty((2, len(values)))
    for b in row_blocks(len(values)):
        d = _derivative(values[b], grid.h)
        out[0, b] = (d * d) @ grid.weights
        out[1, b] = values[b] ** 2 @ grid.weights
    return out[0], out[1]


def dilate(u: RadialFunction, t: float) -> RadialFunction:
    """Dilation u_t(x) = u(x/t) by linear interpolation, zero beyond r_max.

    dilate(u, 1) returns the values bit-exactly.
    """
    if not (t > 0.0):
        raise DomainError(f"dilation factor must be positive, got {t}")
    if t == 1.0:
        return RadialFunction(u.grid, u.values.copy())
    src = u.grid.r / t
    vals = np.interp(src, u.grid.r, u.values, left=u.values[0], right=0.0)
    vals[-1] = 0.0
    return RadialFunction(u.grid, vals)


def pde_residual(u: RadialFunction, V, f, lam: float = 1.0) -> RadialFunction:
    """Strong-form residual L(u) = -u'' - (N-1)/r u' + V(r) u - lam f(u).

    The r=0 singularity uses the symmetric limit -N u''(0); the Dirichlet
    node at r_max is constrained, so its residual is reported as zero.
    """
    if not (0.0 <= lam <= 1.0):
        raise DomainError(f"lambda must lie in [0, 1], got {lam}")
    v = u.values
    g = u.grid
    h, r, N = g.h, g.r, g.N
    res = np.empty_like(v)
    upp = np.empty_like(v)
    upp[1:-1] = (v[2:] - 2.0 * v[1:-1] + v[:-2]) / (h * h)
    # even extension across r=0: u''(0) = 2 (u_1 - u_0) / h^2
    upp[0] = 2.0 * (v[1] - v[0]) / (h * h)
    up = _derivative(v, h)
    res[1:-1] = -upp[1:-1] - (N - 1.0) / r[1:-1] * up[1:-1]
    res[0] = -N * upp[0]
    res += V(r) * v - lam * np.asarray(f(v), dtype=float)
    res[-1] = 0.0
    return RadialFunction(g, res)
