"""Admissible set, fiber profiles, and projection onto the constraint set.

The constraint set M collects nonzero functions with vanishing
dilation-identity functional P.  For u in the admissible set (those with
int [V_inf u^2 / 2 - lam F(u)] < 0) the fiber t -> I(u(x/t)) has a unique
maximizer t_u, found here as the unique sign change of t -> P(u_t) on a
log-t scan and polished by safeguarded false position (Illinois) on
log t.  The polish reads the log-ratio g = -log1p(-z) of P, where
z = P(u_t) / (t^{N-2} A) (_log_ratio): g has the sign of P and is linear
in log t for a constant potential, so there one step lands on the root.
One projection computes the quadratures of u once: admissibility,
the scan and the polish all read the same FiberValues.  The polisher,
``false_position``, also serves route C's growing-mode functional.

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

One scan and one polish serve a single profile, read as a stack of one
row, and a stack of profiles (a FiberValues of a (k, n) array).  The
scan (_scan_rows) evaluates the union of the rows' certified windows at
once, by one dot product per t for a single profile and one potential
table for a stack.  The polishes run in lockstep: false_position_lanes
drives one false_position generator per row, so every row takes exactly
the steps of the scalar polish.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    DomainError,
    MultipleSignChangesError,
    NoSignChangeError,
    NotInLambdaError,
    ZeroFunctionError,
)
from .functionals import FiberValues, FunctionalContext, fiber_values
from .grid import RadialFunction, dilate, h1_norm_sq, row_blocks

__all__ = [
    "FiberProjection",
    "false_position",
    "false_position_lanes",
    "lambda_membership",
    "fiber_membership",
    "fiber_profile",
    "fiber_table",
    "project_fiber",
    "project_rows",
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
    """Result of projecting u onto the constraint set along its fiber.
    The dilated profile, and what is measured on it, is computed on read:
    a projection read only for t_u and its fiber interpolates nothing."""

    t_u: float
    bracket: tuple
    sign_changes: int
    fiber: FiberValues       # quadratures of the input u along its fiber

    @cached_property
    def projected(self) -> RadialFunction:
        """u(x/t_u), by linear interpolation (grid.dilate)."""
        return dilate(self.fiber.u, self.t_u)

    @property
    def tolerance(self) -> float:
        """Acceptance bound 5e-3 (1 + ||projected||_{H1}^2) of residual."""
        return 5e-3 * (1.0 + h1_norm_sq(self.projected))

    @cached_property
    def residual(self) -> float:
        """|P(projected)| measured on the dilated profile."""
        return abs(fiber_values(self.fiber.ctx, self.projected).pohozaev())


def lambda_membership(ctx: FunctionalContext, u: RadialFunction):
    """Admissibility of u: returns (member, q) with
    q = int [ (V_inf/2) u^2 - lam F(u) ] and member <=> q < -margin."""
    return fiber_membership(fiber_values(ctx, u))


def fiber_membership(fv: FiberValues):
    """lambda_membership from quadratures already computed for u; for a
    stack, (member, q) are arrays over its rows."""
    if not np.all(np.any(fv.values, axis=-1)):
        raise ZeroFunctionError("membership is undefined for the zero function")
    q = fv.admissibility()
    # ||u||_{H1}^2 from the stored quadratures, as h1_norm_sq adds them
    member = q < -LAMBDA_MARGIN * (fv.grad + fv.mass)
    if np.ndim(q):
        return member, q
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
    if not fv.values.any():
        raise ZeroFunctionError("fiber is undefined for the zero function")
    t = np.asarray(t_grid, dtype=float)
    if t.ndim != 1 or t.size < 2 or np.any(t <= 0) or np.any(np.diff(t) <= 0):
        raise DomainError("t_grid must be positive and strictly ascending")
    return np.column_stack([t, fv.energy_at(t), fv.pohozaev_at(t)])


def _certified_signs(fv: FiberValues, ts: np.ndarray):
    """+1 / -1 at the points of ts where the potential's dilation bounds
    prove the sign of P(u_t), 0 elsewhere; shape (..., ts.size) over the
    rows of a stack.  All zeros where nothing is proven, and everywhere
    when the potential declares no bounds."""
    if fv.ctx.V.dilation_bounds is None:
        return np.zeros(np.shape(fv.grad) + ts.shape)
    N = fv.ctx.grid.N
    w_lo, w_hi = fv.ctx.V.dilation_bounds(N)
    a = 0.5 * (N - 2.0) * fv.grad
    nf = N * fv.ctx.lam * fv.f_int
    # P(u_t) / t^{N-2} lies in [a - t^2 d_lo, a - t^2 d_hi]
    d_lo = nf - 0.5 * w_lo * fv.mass
    d_hi = nf - 0.5 * w_hi * fv.mass
    floor = WINDOW_CONDITION * (np.abs(nf) + 0.5 * max(abs(w_lo), abs(w_hi)) * fv.mass)
    proven = (w_lo <= w_hi) & (a > 0.0) & np.isfinite(floor)
    pos = proven & (d_lo > floor)
    neg = proven & (d_hi > floor)
    # the square roots only where their branch is taken
    t_pos = np.where(pos, np.sqrt(np.where(pos, a, 0.0) / np.where(pos, d_lo, 1.0))
                     * (1.0 - WINDOW_MARGIN), np.where(d_lo < -floor, np.inf, 0.0))
    t_neg = np.where(neg, np.sqrt(np.where(neg, a, 0.0) / np.where(neg, d_hi, 1.0))
                     * (1.0 + WINDOW_MARGIN), np.inf)
    cert = np.where(ts < t_pos[..., None], 1.0, np.where(ts > t_neg[..., None], -1.0, 0.0))
    return np.where(proven[..., None], cert, 0.0)


def _window(cert: np.ndarray) -> tuple:
    """First and last scan index to evaluate on each row: the uncertified
    points and one certified neighbour on each side."""
    i = np.maximum(np.count_nonzero(cert > 0, axis=-1) - 1, 0)
    j = np.minimum(SCAN_POINTS - np.count_nonzero(cert < 0, axis=-1), SCAN_POINTS - 1)
    return i, j


def _signs(ps: np.ndarray) -> np.ndarray:
    sign = np.sign(ps)
    # treat exact zeros as positive side (P > 0 for small t)
    sign[sign == 0.0] = 1.0
    return sign


def _scan_rows(fv: FiberValues, t_lo: float, t_hi: float):
    """Sign-change scan of P along the fiber of each row on a log grid:
    (ts, ps, flips) with ps of shape (k, SCAN_POINTS), a single profile
    being k = 1 row, and flips the (k, SCAN_POINTS - 1) mask of sign
    changes between neighbours.

    A point whose sign is certified and that is not next to an
    uncertified one is skipped: ps holds its sign, +1 or -1, there and
    P(u_t) everywhere else.  The union of the rows' windows is evaluated
    at once; a row whose evaluated signs contradict its certificate takes
    every scan point.  The flips, and ps on both sides of each, are
    those of the full scan.
    """
    ts = np.geomspace(t_lo, t_hi, SCAN_POINTS)
    cert = np.atleast_2d(_certified_signs(fv, ts))
    i, j = _window(cert)
    at = np.arange(SCAN_POINTS)
    need = (at >= i[:, None]) & (at <= j[:, None])
    cols = np.nonzero(need.any(axis=0))[0]
    ps = cert.copy()
    ps[:, cols] = np.where(need[:, cols], fv.pohozaev_at(ts[cols, None]).T, cert[:, cols])
    sign = _signs(ps)
    wrong = np.any((sign != cert) & (cert != 0.0), axis=1)
    if wrong.any():
        ps[wrong] = (fv if wrong.all() else fv.rows(wrong)).pohozaev_at(ts[:, None]).T
        sign = _signs(ps)
    return ts, ps, np.diff(sign, axis=1) != 0.0


def _not_admissible(q: float) -> NotInLambdaError:
    return NotInLambdaError(
        f"u is not admissible (q = {q:.6g} >= 0); no fiber maximizer exists")


def _raise_sign_changes(flips: int, t_bracket: tuple):
    """The error of a scan with `flips` sign changes, unless it has one."""
    if flips == 0:
        raise NoSignChangeError(
            f"P(u_t) has no sign change on [{t_bracket[0]:g}, {t_bracket[1]:g}]")
    if flips > 1:
        raise MultipleSignChangesError(
            f"P(u_t) changes sign {flips} times on the bracket; "
            "refine the grid instead of picking a root")


def _false_position_steps(lo: float, hi: float, g_lo: float, g_hi: float,
                          tol: float):
    """false_position as a generator: yields each trial point, takes g
    there by send(), and returns the final (lo, hi)."""
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
        gx = yield x
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
    steps = _false_position_steps(lo, hi, g_lo, g_hi, tol)
    try:
        x = next(steps)
        while True:
            x = steps.send(g(x))
    except StopIteration as stop:
        return stop.value


def false_position_lanes(g, lo, hi, g_lo, g_hi, tol: float) -> tuple:
    """false_position on k brackets in lockstep: (lo, hi) arrays.

    Each round, g(lanes, xs) takes the trial points xs of the lanes
    still open (an index array, ascending) and returns g at each; every
    lane then takes exactly the steps false_position takes, and ends at
    its own round.  The open lanes are rebuilt only in a round where one
    ends, so a single lane costs about what false_position does.
    """
    # the steps' scalar arithmetic runs faster on floats than on numpy scalars
    steps = [_false_position_steps(*map(float, b), tol) for b in zip(lo, hi, g_lo, g_hi)]
    n = len(steps)
    lo, hi = np.empty(n), np.empty(n)
    # the open lanes, as a list and as g takes them, and their trial points
    lanes, at, xs = list(range(n)), np.arange(n), np.empty(n)
    gs = [None] * n                          # send(None) starts a lane
    while True:
        kept = []
        for j, k in enumerate(lanes):
            try:
                xs[j] = steps[k].send(gs[j])
                kept.append(j)
            except StopIteration as stop:
                lo[k], hi[k] = stop.value
        if not kept:
            return lo, hi
        if len(kept) < len(lanes):
            lanes, at, xs = [lanes[j] for j in kept], at[kept], xs[kept]
        gs = np.asarray(g(at, xs), dtype=float).tolist()


def project_to_M(ctx: FunctionalContext, u: RadialFunction) -> FiberProjection:
    """Dilate u onto the constraint set: find the root of t -> P(u_t).

    Requires u admissible (checked).  The root is bracketed by a sign
    scan on a log grid over T_BRACKET and polished by safeguarded false
    position on the log-ratio of P to a sign change of P no wider than
    1e-12 in log t; exactly one sign change is demanded,
    anything else raises.  The quadratures of u are computed once and
    returned as the projection's ``fiber``.
    """
    return project_fiber(fiber_values(ctx, u))


def project_fiber(fv: FiberValues, t_bracket: tuple = T_BRACKET) -> FiberProjection:
    """project_to_M from quadratures already computed for u."""
    t_u, t_lo, t_hi, flips = _project(fv, t_bracket)
    return FiberProjection(float(t_u[0]), (float(t_lo[0]), float(t_hi[0])),
                           int(flips[0]), fv)


def project_rows(fv: FiberValues, t_bracket: tuple = T_BRACKET) -> np.ndarray:
    """project_fiber's t_u for each row of a stack of k profiles."""
    return _project(fv, t_bracket)[0]


def _project(fv: FiberValues, t_bracket: tuple):
    """(t_u, bracket ends, sign changes) of each row of fv, as arrays; a
    single profile is one row.  The first row, in order, that is not
    admissible or whose scan does not change sign exactly once raises its
    error; an inadmissible first row raises before the scan.

    The lockstep polish runs on g = _log_ratio(P(u_t)) in log t, from the
    scan's values at the bracket ends.  g has the sign of P at every
    trial, so each step keeps the side P gives it, and the bracket ends
    at a sign change of P no wider than BISECT_LOG_TOL.
    """
    member, q = (np.atleast_1d(a) for a in fiber_membership(fv))
    if member.size and not member[0]:
        raise _not_admissible(q[0])
    ts, ps, flips = _scan_rows(fv, t_bracket[0], t_bracket[1])
    count = flips.sum(axis=1)
    bad = ~member | (count != 1)
    if bad.any():
        k = int(np.argmax(bad))
        if not member[k]:
            raise _not_admissible(q[k])
        _raise_sign_changes(int(count[k]), t_bracket)
    i = np.argmax(flips, axis=1)
    rows = np.arange(i.size)
    N = fv.ctx.grid.N
    a = 0.5 * (N - 2.0) * np.atleast_1d(fv.grad)

    def g_at(lanes, x):
        t = np.exp(x)
        if lanes.size == rows.size:          # every row open: nothing to copy
            return _log_ratio(fv.pohozaev_at(t), t, a, N)
        # rows() copies its rows: take them BLOCK at a time
        p = np.empty(len(lanes))
        for b in row_blocks(len(lanes)):
            p[b] = fv.rows(lanes[b]).pohozaev_at(t[b])
        return _log_ratio(p, t, a[lanes], N)

    t_lo, t_hi = ts[i], ts[i + 1]
    lo, hi = false_position_lanes(g_at, np.log(t_lo), np.log(t_hi),
                                  _log_ratio(ps[rows, i], t_lo, a, N),
                                  _log_ratio(ps[rows, i + 1], t_hi, a, N), BISECT_LOG_TOL)
    return np.exp(0.5 * (lo + hi)), t_lo, t_hi, count


def _log_ratio(p, t, a, N):
    """The polish coordinate g = -log1p(-z) of P(u_t) = p, where
    z = p / (t^{N-2} A) and A = (N-2)/2 ||grad u||^2.

    Writing P(u_t) = t^{N-2} (A + t^2 B(t)) with B(t) = D(t)/2 - N lam
    int F and D(t) the dilation term, g = log A - log(-t^2 B(t)): it has
    the sign of P, is linear in log t when D is constant and nearly so on
    a slowly varying potential.  p itself where z >= 1 or A <= 0, and
    where z rounds to zero, so that the sign of g is always that of p."""
    z = p / (t ** (N - 2.0) * np.where(a > 0.0, a, np.inf))
    ok = (z < 1.0) & (z != 0.0)
    return np.where(ok, -np.log1p(-np.where(ok, z, 0.0)), p)
