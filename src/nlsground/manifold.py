"""Admissible set, fiber profiles, and projection onto the constraint set.

The constraint set M collects nonzero functions with vanishing
dilation-identity functional P.  For u in the admissible set (those with
int [V_inf u^2 / 2 - lam F(u)] < 0) the fiber t -> I(u(x/t)) has a unique
maximizer t_u, found here as the unique sign change of t -> P(u_t) on a
log-t scan and polished by safeguarded false position (Illinois) on
log t.  One projection computes the quadratures of u once: admissibility,
the scan and the polish all read the same FiberValues.  The polisher,
``false_position``, also serves route B's amplitude restore.

The scan evaluates P(u_t) only where its sign is not already proven.
With A = (N-2)/2 ||grad u||^2, P(u_t) / t^{N-2} = A + t^2 (W(t)/2 -
N lam int F(u)), where the dilation term W(t) = int [N V + s V'](t r) u^2
lies in [w_lo, w_hi] ||u||^2 whenever the potential declares
``dilation_bounds`` (w_lo, w_hi).  So P > 0 below one edge and P < 0
above another; the scan evaluates the points between the edges, widened
by a relative 1e-6, plus one certified point on each side, and fills the
rest with their certified sign.  Without declared bounds, or when an
evaluated point contradicts its certificate, all SCAN_POINTS points are
evaluated.  When the declared range holds, the scan returns the grid,
the values at evaluated points and the sign changes of the full scan.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    MultipleSignChangesError,
    NoSignChangeError,
    NotInLambdaError,
    ZeroFunctionError,
)
from .functionals import FiberValues, FunctionalContext, fiber_values, pohozaev
from .grid import RadialFunction, dilate, h1_norm_sq

__all__ = [
    "FiberProjection",
    "false_position",
    "lambda_membership",
    "fiber_membership",
    "fiber_profile",
    "fiber_table",
    "project_fiber",
    "project_to_M",
]

# membership strictness: q(u) must undercut zero by this relative margin
LAMBDA_MARGIN = 1e-10
# default log-t search bracket
T_BRACKET = (1e-3, 1e3)
SCAN_POINTS = 97
BISECT_LOG_TOL = 1e-12
# relative widening of the certified window's edges, so that P evaluated in
# floats at a skipped scan point has its certified sign
WINDOW_MARGIN = 1e-6
# an edge is used only when its denominator exceeds this fraction of the
# terms that cancel in it; below that, round-off could move the edge
WINDOW_CONDITION = 1e-8


@dataclass(frozen=True)
class FiberProjection:
    """Result of projecting u onto the constraint set along its fiber."""

    t_u: float
    projected: RadialFunction
    bracket: tuple
    sign_changes: int
    tolerance: float
    fiber: FiberValues       # quadratures of the input u along its fiber

    @property
    def residual(self) -> float:
        """|P(projected)| measured on the dilated profile.  A full
        quadrature pass, computed on each read: the routes only need the
        projected profile."""
        return abs(pohozaev(self.fiber.ctx, self.projected))


def lambda_membership(ctx: FunctionalContext, u: RadialFunction):
    """Admissibility of u: returns (member, q) with
    q = int [ (V_inf/2) u^2 - lam F(u) ] and member <=> q < -margin."""
    return fiber_membership(fiber_values(ctx, u))


def fiber_membership(fv: FiberValues):
    """lambda_membership from quadratures already computed for u."""
    if fv.u.is_zero():
        raise ZeroFunctionError("membership is undefined for the zero function")
    q = fv.admissibility()
    member = q < -LAMBDA_MARGIN * h1_norm_sq(fv.u)
    return bool(member), float(q)


def fiber_profile(ctx: FunctionalContext, u: RadialFunction,
                  t_grid: np.ndarray) -> np.ndarray:
    """Tabulate (t, zeta(t), P(u_t)) along the fiber.

    Returns an array of shape (len(t_grid), 3).  The finite-difference
    slope of zeta agrees in sign with P(u_t)/t away from the root.
    """
    return fiber_table(fiber_values(ctx, u), t_grid)


def fiber_table(fv: FiberValues, t_grid: np.ndarray) -> np.ndarray:
    """fiber_profile from quadratures already computed for u."""
    if fv.u.is_zero():
        raise ZeroFunctionError("fiber is undefined for the zero function")
    t = np.asarray(t_grid, dtype=float)
    if t.ndim != 1 or t.size < 2 or np.any(t <= 0) or np.any(np.diff(t) <= 0):
        raise ValueError("t_grid must be positive and strictly ascending")
    return np.column_stack([t, fv.energy_at(t), fv.pohozaev_at(t)])


def _certified_signs(fv: FiberValues, ts: np.ndarray):
    """+1 / -1 at the points of ts where the potential's dilation bounds
    prove the sign of P(u_t), 0 elsewhere; None when nothing is proven."""
    if fv.ctx.V.dilation_bounds is None:
        return None
    N = fv.ctx.grid.N
    w_lo, w_hi = fv.ctx.V.dilation_bounds(N)
    a = 0.5 * (N - 2.0) * fv.grad
    nf = N * fv.ctx.lam * fv.f_int
    # P(u_t) / t^{N-2} lies in [a - t^2 d_lo, a - t^2 d_hi]
    d_lo = nf - 0.5 * w_lo * fv.mass
    d_hi = nf - 0.5 * w_hi * fv.mass
    floor = WINDOW_CONDITION * (abs(nf) + 0.5 * max(abs(w_lo), abs(w_hi)) * fv.mass)
    if not (w_lo <= w_hi and a > 0.0 and np.isfinite(floor)):
        return None
    if d_lo > floor:
        t_pos = np.sqrt(a / d_lo) * (1.0 - WINDOW_MARGIN)
    else:
        t_pos = np.inf if d_lo < -floor else 0.0
    t_neg = np.sqrt(a / d_hi) * (1.0 + WINDOW_MARGIN) if d_hi > floor else np.inf
    return np.where(ts < t_pos, 1.0, np.where(ts > t_neg, -1.0, 0.0))


def _signs(ps: np.ndarray) -> np.ndarray:
    sign = np.sign(ps)
    # treat exact zeros as positive side (P > 0 for small t)
    sign[sign == 0.0] = 1.0
    return sign


def _scan_bracket(fv: FiberValues, t_lo: float, t_hi: float):
    """Sign-change scan of P along the fiber on a log grid.

    Returns (ts, ps, flips).  A point whose sign is certified and that is
    not next to an uncertified one is skipped: ps holds its sign, +1 or
    -1, there and P(u_t) everywhere else.  The flips, and ps on both
    sides of each, are those of the full scan.
    """
    ts = np.geomspace(t_lo, t_hi, SCAN_POINTS)
    cert = _certified_signs(fv, ts)
    if cert is not None:
        # the uncertified points and one certified neighbour on each side
        i = max(int(np.count_nonzero(cert > 0)) - 1, 0)
        j = min(SCAN_POINTS - int(np.count_nonzero(cert < 0)), SCAN_POINTS - 1)
        ps = cert.copy()
        ps[i:j + 1] = fv.pohozaev_at(ts[i:j + 1])
        sign = _signs(ps)
        if np.array_equal(sign[cert != 0.0], cert[cert != 0.0]):
            return ts, ps, np.nonzero(np.diff(sign) != 0.0)[0]
    ps = fv.pohozaev_at(ts)
    return ts, ps, np.nonzero(np.diff(_signs(ps)) != 0.0)[0]


def false_position(g, lo: float, hi: float, g_lo: float, g_hi: float,
                   tol: float) -> tuple:
    """Shrink a sign-change bracket [lo, hi] of the scalar function g
    below width ``tol`` by false position with the Illinois modification.

    A point x joins the ``lo`` side when g(x) > 0 agrees with g_lo > 0.
    The trial point stays half a tolerance inside the bracket, so a root
    next to one end closes the bracket in one step.  When three steps in
    a row fail to halve the bracket, the next step bisects it, so the
    polish terminates on any sign change; it also stops when no float
    lies strictly inside the bracket.
    """
    edge = 0.5 * tol
    kept = 0          # -1: lo survived the last step, +1: hi did
    widths = [hi - lo]
    while widths[-1] > tol:
        if len(widths) > 3 and widths[-1] > 0.5 * widths[-4]:
            x = 0.5 * (lo + hi)
        else:
            x = lo - g_lo * (hi - lo) / (g_hi - g_lo)
        x = min(max(x, lo + edge), hi - edge)
        if not lo < x < hi:
            x = 0.5 * (lo + hi)
            if not lo < x < hi:
                break
        gx = g(x)
        if (gx > 0.0) == (g_lo > 0.0):
            lo, g_lo = x, gx
            if kept == 1:
                g_hi *= 0.5
            kept = 1
        else:
            hi, g_hi = x, gx
            if kept == -1:
                g_lo *= 0.5
            kept = -1
        widths.append(hi - lo)
    return lo, hi


def project_to_M(ctx: FunctionalContext, u: RadialFunction,
                 t_bracket: tuple = T_BRACKET) -> FiberProjection:
    """Dilate u onto the constraint set: find the root of t -> P(u_t).

    Requires u admissible (checked).  The root is bracketed by a sign
    scan on a log grid and polished by safeguarded false position to
    |d log t| < 1e-12; exactly one sign change is demanded, anything
    else raises.  The quadratures of u are computed once and returned
    as the projection's ``fiber``.
    """
    return project_fiber(fiber_values(ctx, u), t_bracket)


def project_fiber(fv: FiberValues, t_bracket: tuple = T_BRACKET) -> FiberProjection:
    """project_to_M from quadratures already computed for u."""
    u = fv.u
    member, q = fiber_membership(fv)
    if not member:
        raise NotInLambdaError(
            f"u is not admissible (q = {q:.6g} >= 0); no fiber maximizer exists")
    ts, ps, flips = _scan_bracket(fv, t_bracket[0], t_bracket[1])
    if flips.size == 0:
        raise NoSignChangeError(
            f"P(u_t) has no sign change on [{t_bracket[0]:g}, {t_bracket[1]:g}]")
    if flips.size > 1:
        raise MultipleSignChangesError(
            f"P(u_t) changes sign {flips.size} times on the bracket; "
            "refine the grid instead of picking a root")
    i = int(flips[0])
    lo, hi = false_position(lambda x: float(fv.pohozaev_at(np.exp(x))[0]),
                            np.log(ts[i]), np.log(ts[i + 1]), ps[i], ps[i + 1],
                            BISECT_LOG_TOL)
    t_u = float(np.exp(0.5 * (lo + hi)))
    projected = dilate(u, t_u)
    tol = 5e-3 * (1.0 + h1_norm_sq(projected))
    return FiberProjection(
        t_u=t_u,
        projected=projected,
        bracket=(float(ts[i]), float(ts[i + 1])),
        sign_changes=int(flips.size),
        tolerance=tol,
        fiber=fv,
    )
