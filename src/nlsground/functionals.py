"""Scalar functionals: energies, dilation-identity functionals, and gaps.

Each functional is a FiberValues method, read as fiber_values(ctx, u)
.energy(), .pohozaev(), .psi(), .iip_gap(t), .hardy_gap() and so on.
Everything is evaluated through one quadrature rule (the grid weights),
so algebraic identities between functionals hold to round-off rather
than discretization error.  The dilation fiber t -> u(x/t) is evaluated
in closed form: only the potential is resampled at t*r, the profile u is
never re-interpolated, which keeps fiber scans smooth in t.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DomainError
from .grid import RadialFunction, RadialGrid, row_blocks, row_norms_sq
from .model import (
    NonlinearitySpec,
    PotentialSpec,
    constant_potential,
    default_radii,
    estimate_theta_V4,
    g_of_t,
)

__all__ = [
    "FunctionalContext",
    "FiberValues",
    "fiber_values",
    "g_of_t",
]


@dataclass(frozen=True)
class FunctionalContext:
    """Grid + potential + nonlinearity + homotopy weight lam in [0, 1].

    The weight multiplies the nonlinear term everywhere (energies,
    dilation identities, admissible-set membership), so a context at
    lam < 1 is simply the problem with nonlinearity lam*f.
    """

    grid: RadialGrid
    V: PotentialSpec
    f: NonlinearitySpec
    lam: float = 1.0

    def __post_init__(self):
        if not (0.0 <= self.lam <= 1.0):
            raise DomainError(f"lambda must lie in [0, 1], got {self.lam}")

    @cached_property
    def theta(self) -> float:
        """Decay parameter: declared on the potential, else estimate_theta_V4
        on the lattice run_condition_suite samples for this grid."""
        if self.V.theta is not None:
            return self.V.theta
        return estimate_theta_V4(self.V, self.grid.N, default_radii(self.grid.r_max))

    def with_lambda(self, lam: float) -> "FunctionalContext":
        return FunctionalContext(self.grid, self.V, self.f, lam)

    def limit_context(self) -> "FunctionalContext":
        """Same problem with V frozen at its value at infinity."""
        return FunctionalContext(self.grid, constant_potential(self.V.v_inf),
                                 self.f, self.lam)


@dataclass(frozen=True)
class FiberValues:
    """Quadratures of u entering every dilation formula.

    grad : ||grad u||_2^2
    mass : ||u||_2^2
    f_int : int F(u)
    pot / pot_w : int V(r) u^2 and int r V'(r) u^2

    u is a RadialFunction, and the quadratures are floats; or u is a
    (k, n) stack of nodal values, one profile per row, and each
    quadrature is a length-k array.  The formulas are written once and
    broadcast over the rows.
    """

    ctx: FunctionalContext
    u: RadialFunction | np.ndarray
    grad: float
    mass: float
    f_int: float
    pot: float
    pot_w: float

    @property
    def values(self) -> np.ndarray:
        """Nodal values of u: shape (n,), or (k, n) for a stack."""
        return self.u.values if isinstance(self.u, RadialFunction) else self.u

    def rows(self, idx) -> "FiberValues":
        """The stack restricted to the rows idx (index array or mask)."""
        return FiberValues(self.ctx, self.u[idx], self.grad[idx], self.mass[idx],
                           self.f_int[idx], self.pot[idx], self.pot_w[idx])

    def _energy(self, tn2, tn, pot):
        """I(u_t) from t^{N-2}, t^N and the potential term pot at t (at
        t = 1 both factors are 1.0)."""
        return 0.5 * tn2 * self.grad + 0.5 * tn * pot - self.ctx.lam * tn * self.f_int

    def _pohozaev(self, tn2, tn, dil):
        """P(u_t) from t^{N-2}, t^N and the dilation term dil at t."""
        N = self.ctx.grid.N
        return (0.5 * (N - 2.0) * tn2 * self.grad + 0.5 * tn * dil
                - N * self.ctx.lam * tn * self.f_int)

    def energy(self) -> float:
        """(1/2) int (|grad u|^2 + V u^2) - lam int F(u)."""
        return self._energy(1.0, 1.0, self.pot)

    def energy_limit(self) -> float:
        """energy() with V frozen at V_inf."""
        return self._energy(1.0, 1.0, self.ctx.V.v_inf * self.mass)

    def psi(self) -> float:
        """(1/N) ||grad u||^2 - 1/(2N) int (r V') u^2; equals
        energy - pohozaev/N up to round-off (same quadratures)."""
        N = self.ctx.grid.N
        return self.grad / N - self.pot_w / (2.0 * N)

    def admissibility(self) -> float:
        """q = (V_inf/2) ||u||^2 - lam int F(u); the fiber of u has a
        maximizer when q < 0."""
        return 0.5 * self.ctx.V.v_inf * self.mass - self.ctx.lam * self.f_int

    def pohozaev(self) -> float:
        """Dilation-identity functional
        (N-2)/2 ||grad u||^2 + (1/2) int [N V + r V'] u^2 - N lam int F(u)."""
        return self._pohozaev(1.0, 1.0, self.ctx.grid.N * self.pot + self.pot_w)

    def relative_pohozaev(self) -> float:
        """Dilation-identity residual |P(u)| / ||u||_{H1}^2 of one profile."""
        return abs(self.pohozaev()) / max(self.grad + self.mass, 1e-300)

    def pohozaev_limit(self) -> float:
        """pohozaev() with V frozen at V_inf."""
        return self._pohozaev(1.0, 1.0, self.ctx.grid.N * self.ctx.V.v_inf * self.mass)

    def hardy_gap(self) -> float:
        """||grad u||^2 - (N-2)^2/4 int u^2/|x|^2, nonnegative in the
        continuum."""
        return self.grad - _hardy_term(self.ctx.grid, self.values)

    def energy_at(self, t) -> np.ndarray:
        """zeta(t) = energy of u(x/t), potential resampled at t*r.

        For a stack, t of shape (k,) is one t per row and gives k values;
        a column t of shape (m, 1) gives the (m, k) table of every t on
        every row."""
        t = np.atleast_1d(np.asarray(t, dtype=float))
        N = self.ctx.grid.N
        return self._energy(t ** (N - 2.0), t**N, self._pot_at(t, dilation=False))

    def pohozaev_at(self, t) -> np.ndarray:
        """P(u(x/t)) along the fiber; equals t * d/dt energy_at(t).
        t is shaped as for energy_at."""
        t = np.atleast_1d(np.asarray(t, dtype=float))
        N = self.ctx.grid.N
        return self._pohozaev(t ** (N - 2.0), t**N, self._pot_at(t, dilation=True))

    def iip_gap(self, t) -> float:
        """Slack of the energy/dilation comparison inequality at (u, t):

            I(u) - I(u_t) - (1 - t^N)/N * P(u)
                 - (1 - theta) g(t) / (2N) * ||grad u||^2.

        I(u_t) is energy_at(t), not a re-interpolated u, whose ~1e-3
        relative noise would drown the slack.  Nonnegative up to round-off
        under the two-point decay condition with the context's theta.  A
        float t gives a float, or k values for a stack; an array t is
        shaped as for energy_at."""
        if not np.all(np.asarray(t) > 0.0):
            raise DomainError(f"dilation factor must be positive, got {t}")
        N = self.ctx.grid.N
        i_u = self.energy()
        i_ut = self.energy_at(t)
        if np.ndim(t) == 0:
            # energy_at returns a float t's values as a 1-D array
            i_ut = i_ut.reshape(np.shape(self.grad))
        p_u = self.pohozaev()
        theta = self.ctx.theta
        return (
            i_u
            - i_ut
            - (1.0 - t**N) / N * p_u
            - (1.0 - theta) * g_of_t(t, N) / (2.0 * N) * self.grad
        )

    def _pot_at(self, t: np.ndarray, dilation: bool) -> np.ndarray:
        """Potential quadrature at each t: int V(t r) u^2, or with
        dilation=True int [N V + r V'](t r) u^2, the term of P(u_t).

        For one profile, one dot product per t.  For a stack, a column t
        takes (m, n) @ (n, k) table products and a vector t row-wise
        products, over blocks of at most BLOCK values of t and rows."""
        N = self.ctx.grid.N
        w = self.ctx.grid.weights
        r = self.ctx.grid.r
        V = self.ctx.V

        potential = (lambda tr: V.dilation_integrand(N, tr)) if dilation else V.V
        u = self.values
        if u.ndim == 1:
            u2 = u**2
            out = np.empty(t.shape)
            for i, ti in np.ndenumerate(t):
                out[i] = float(w @ (potential(ti * r) * u2))
            return out
        if t.ndim == 2:
            out = np.empty((len(t), len(u)))
            for a in row_blocks(len(t)):
                table = potential(t[a] * r) * w
                for b in row_blocks(len(u)):
                    out[a, b] = table @ (u[b] ** 2).T
            return out
        t = np.broadcast_to(t, (len(u),))
        out = np.empty(len(u))
        for b in row_blocks(len(u)):
            out[b] = (potential(t[b, None] * r) * u[b] ** 2) @ w
        return out


def _hardy_term(grid: RadialGrid, values: np.ndarray):
    """(N-2)^2/4 int u^2/|x|^2 of u's values, or of each row of a stack,
    BLOCK rows at a time.  u^2 / r^2 carries weight r^{N-1}: integrand
    u^2 r^{N-3}, regular at 0."""
    N = grid.N
    c = (N - 2.0) ** 2 / 4.0
    rw = grid.r ** (N - 3)
    if values.ndim == 1:
        return c * ((values**2 * rw) @ grid.bare_weights)
    out = np.empty(len(values))
    for b in row_blocks(len(values)):
        out[b] = c * ((values[b] ** 2 * rw) @ grid.bare_weights)
    return out


def fiber_values(ctx: FunctionalContext, u) -> FiberValues:
    """Quadratures of u, a RadialFunction on ctx.grid, or of each row of
    a (k, n) stack of nodal values on it (finite, zero at r_max).

    A RadialFunction is taken as a stack of one row.  A stack is taken
    as matrix-vector products BLOCK rows at a time, with one evaluation
    of V(r) and r V'(r) per call and of F per block, in the order
    _pot_at takes them, so energy() is energy_at(1) float for float."""
    w = ctx.grid.weights
    one = isinstance(u, RadialFunction)
    if one and not u.grid.same_mesh(ctx.grid):
        raise DomainError("function grid does not match context grid")
    vals = u.values[None] if one else np.asarray(u, dtype=float)
    if vals.ndim != 2 or vals.shape[1] != ctx.grid.n:
        raise DomainError(f"stack shape {vals.shape} does not match grid size {ctx.grid.n}")
    V_r, rdV_r = ctx.V.V(ctx.grid.r), ctx.V.rdV(ctx.grid.r)
    f_int, pot, pot_w = np.empty((3, len(vals)))
    for b in row_blocks(len(vals)):
        if not np.all(np.isfinite(vals[b])) or np.any(vals[b, -1] != 0.0):
            raise DomainError("stacked profiles must be finite and vanish at r_max")
        u2 = vals[b] ** 2
        f_int[b] = np.asarray(ctx.f.F(vals[b]), dtype=float) @ w
        pot[b] = (V_r * u2) @ w
        pot_w[b] = (rdV_r * u2) @ w
    quads = (*row_norms_sq(ctx.grid, vals), f_int, pot, pot_w)
    if one:
        return FiberValues(ctx, u, *(float(x[0]) for x in quads))
    return FiberValues(ctx, vals, *quads)
