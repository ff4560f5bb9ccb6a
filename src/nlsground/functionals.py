"""Scalar functionals: energies, dilation-identity functionals, and gaps.

Everything is evaluated through one quadrature rule (the grid weights),
so algebraic identities between functionals hold to round-off rather
than discretization error.  The dilation fiber t -> u(x/t) is evaluated
in closed form: only the potential is resampled at t*r, the profile u is
never re-interpolated, which keeps fiber scans smooth in t.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import DomainError
from .grid import RadialFunction, RadialGrid, grad_seminorm_sq
from .model import NonlinearitySpec, PotentialSpec, constant_potential

__all__ = [
    "FunctionalContext",
    "FiberValues",
    "fiber_values",
    "energy",
    "energy_limit",
    "pohozaev",
    "pohozaev_limit",
    "psi",
    "g_of_t",
    "iip_gap",
    "hardy_gap",
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
    _theta: Optional[float] = field(default=None, repr=False)

    def __post_init__(self):
        if not (0.0 <= self.lam <= 1.0):
            raise DomainError(f"lambda must lie in [0, 1], got {self.lam}")

    @property
    def theta(self) -> float:
        """Decay parameter: declared on the potential, else estimated."""
        if self._theta is not None:
            return self._theta
        th = self.V.theta_for(self.grid.N)
        object.__setattr__(self, "_theta", th)
        return th

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
    """

    ctx: FunctionalContext
    u: RadialFunction
    grad: float
    mass: float
    f_int: float
    pot: float
    pot_w: float

    def energy(self) -> float:
        return 0.5 * (self.grad + self.pot) - self.ctx.lam * self.f_int

    def energy_limit(self) -> float:
        """energy() with V frozen at V_inf."""
        return 0.5 * (self.grad + self.ctx.V.v_inf * self.mass) - self.ctx.lam * self.f_int

    def psi(self) -> float:
        """(1/N) ||grad u||^2 - 1/(2N) int (r V') u^2 = energy - pohozaev/N."""
        N = self.ctx.grid.N
        return self.grad / N - self.pot_w / (2.0 * N)

    def admissibility(self) -> float:
        """q = (V_inf/2) ||u||^2 - lam int F(u); the fiber of u has a
        maximizer when q < 0."""
        return 0.5 * self.ctx.V.v_inf * self.mass - self.ctx.lam * self.f_int

    def pohozaev(self) -> float:
        N = self.ctx.grid.N
        return (
            0.5 * (N - 2.0) * self.grad
            + 0.5 * (N * self.pot + self.pot_w)
            - N * self.ctx.lam * self.f_int
        )

    def pohozaev_limit(self) -> float:
        """pohozaev() with V frozen at V_inf."""
        N = self.ctx.grid.N
        return (
            0.5 * (N - 2.0) * self.grad
            + 0.5 * N * self.ctx.V.v_inf * self.mass
            - N * self.ctx.lam * self.f_int
        )

    def energy_at(self, t) -> np.ndarray:
        """zeta(t) = energy of u(x/t), potential resampled at t*r."""
        t = np.atleast_1d(np.asarray(t, dtype=float))
        pot_t = self._pot_at(t, dilation=False)
        N = self.ctx.grid.N
        out = (
            0.5 * t ** (N - 2.0) * self.grad
            + 0.5 * t**N * pot_t
            - self.ctx.lam * t**N * self.f_int
        )
        return out

    def pohozaev_at(self, t) -> np.ndarray:
        """P(u(x/t)) along the fiber; equals t * d/dt energy_at(t)."""
        t = np.atleast_1d(np.asarray(t, dtype=float))
        N = self.ctx.grid.N
        vals = self._pot_at(t, dilation=True)
        return (
            0.5 * (N - 2.0) * t ** (N - 2.0) * self.grad
            + 0.5 * t**N * vals
            - N * self.ctx.lam * t**N * self.f_int
        )

    def iip_gap(self, t: float) -> float:
        """Comparison-inequality slack at (u, t); see module-level iip_gap."""
        if not (t > 0.0):
            raise DomainError(f"dilation factor must be positive, got {t}")
        N = self.ctx.grid.N
        i_u = self.energy()
        i_ut = float(self.energy_at(t)[0])
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
        dilation=True int [N V + r V'](t r) u^2, the term of P(u_t)."""
        N = self.ctx.grid.N
        w = self.ctx.grid.weights
        r = self.ctx.grid.r
        V = self.ctx.V
        u2 = self.u.values**2
        out = np.empty(t.size)
        for i, ti in enumerate(t):
            tr = ti * r
            vals = V.V(tr)
            if dilation:
                vals = N * vals + tr * V.dV(tr)
            out[i] = float(w @ (vals * u2))
        return out


def fiber_values(ctx: FunctionalContext, u: RadialFunction) -> FiberValues:
    if not u.grid.same_mesh(ctx.grid):
        raise DomainError("function grid does not match context grid")
    w = ctx.grid.weights
    r = ctx.grid.r
    vals = u.values
    return FiberValues(
        ctx=ctx,
        u=u,
        grad=grad_seminorm_sq(u),
        mass=float(w @ vals**2),
        f_int=float(w @ np.asarray(ctx.f.F(vals), dtype=float)),
        pot=float(w @ (ctx.V.V(r) * vals**2)),
        pot_w=float(w @ (r * ctx.V.dV(r) * vals**2)),
    )


def energy(ctx: FunctionalContext, u: RadialFunction) -> float:
    """(1/2) int (|grad u|^2 + V u^2) - lam int F(u)."""
    return fiber_values(ctx, u).energy()


def energy_limit(ctx: FunctionalContext, u: RadialFunction) -> float:
    """Energy with V frozen at V_inf."""
    return fiber_values(ctx, u).energy_limit()


def pohozaev(ctx: FunctionalContext, u: RadialFunction) -> float:
    """Dilation-identity functional
    (N-2)/2 ||grad u||^2 + (1/2) int [N V + r V'] u^2 - N lam int F(u)."""
    return fiber_values(ctx, u).pohozaev()


def pohozaev_limit(ctx: FunctionalContext, u: RadialFunction) -> float:
    """Dilation identity of the constant-potential problem."""
    return fiber_values(ctx, u).pohozaev_limit()


def psi(ctx: FunctionalContext, u: RadialFunction) -> float:
    """(1/N) ||grad u||^2 - 1/(2N) int (r V') u^2.

    Equals energy - pohozaev/N up to round-off (same quadratures).
    """
    return fiber_values(ctx, u).psi()


def g_of_t(t: float, N: int) -> float:
    """2 - N t^{N-2} + (N-2) t^N; zero at t = 1, positive elsewhere."""
    if np.any(np.asarray(t) < 0):
        raise DomainError("g is defined for t >= 0")
    t = np.asarray(t, dtype=float)
    out = 2.0 - N * t ** (N - 2.0) + (N - 2.0) * t**N
    return float(out) if out.ndim == 0 else out


def iip_gap(ctx: FunctionalContext, u: RadialFunction, t: float) -> float:
    """Slack of the energy/dilation comparison inequality at (u, t):

        I(u) - I(u_t) - (1 - t^N)/N * P(u)
             - (1 - theta) g(t) / (2N) * ||grad u||^2.

    I(u_t) is evaluated by the exact change-of-variables formula
    (potential resampled at t*r), not by re-interpolating u; at the
    default resolution interpolation noise (~1e-3 relative) would
    otherwise drown the quadrature-level slack.  Nonnegative up to
    quadrature error whenever the potential satisfies the two-point
    decay condition with the context's theta.  A scan over several t
    builds fiber_values once and calls FiberValues.iip_gap.
    """
    return fiber_values(ctx, u).iip_gap(t)


def hardy_gap(u: RadialFunction, N: Optional[int] = None) -> float:
    """||grad u||^2 - (N-2)^2/4 int u^2/|x|^2 (nonnegative in the continuum).

    The integrand u^2 r^{N-3} is regular at r = 0 for N >= 3 (the N = 3
    case uses r^0 = 1 at the origin).
    """
    g = u.grid
    N = g.N if N is None else N
    if N != g.N:
        raise DomainError("dimension mismatch with the grid")
    # u^2 / r^2 carries weight r^{N-1}: integrand u^2 r^{N-3}, regular at 0
    hardy_int = float(g.bare_weights @ (u.values**2 * g.r ** (N - 3)))
    return grad_seminorm_sq(u) - (N - 2.0) ** 2 / 4.0 * hardy_int
