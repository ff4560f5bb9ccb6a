"""Ground-state solvers: three independent routes plus the homotopy sweep.

Route A (fiber descent): residual descent projected onto the constraint
set after every step.  Route B: constrained gradient minimization of the
Dirichlet seminorm with the classical rescaling to a solution.  Route C:
an ODE shooting oracle, independent of the variational code paths.  The
sweep runs the autonomous solves for a family of nonlinearity weights
and certifies the strict level gap used for compactness.
"""

from __future__ import annotations

import math
import typing
from dataclasses import dataclass, fields, replace
from typing import Optional

import numpy as np

from .errors import (
    BracketNotFoundError,
    ConstraintInfeasibleError,
    ConvergenceError,
    DomainError,
    LeftLambdaError,
    NotInLambdaError,
    PositivityBallError,
    PreconditionError,
    SingularSystemError,
    StiffIntegrationError,
)
from .functionals import FiberValues, FunctionalContext, fiber_values, g_of_t
from .grid import (
    RadialFunction,
    RadialGrid,
    dilate,
    grad_seminorm_sq,
    l2_norm_sq,
    make_grid,
    pde_residual,
)
from .manifold import false_position, lambda_membership, project_fiber, project_to_M
from .model import (
    Report,
    check_V1V2,
    constant_potential,
    default_radii,
    estimate_theta_V4,
)

__all__ = [
    "SolveOptions",
    "SolveReport",
    "SweepReport",
    "initial_bump",
    "solve_fiber_descent",
    "solve_limit_BL",
    "shoot_oracle",
    "sweep_lambda",
]


@dataclass(frozen=True)
class SolveOptions:
    """Iteration controls shared by the solver routes.

    ``grad_tol`` is the relative L2 residual of the strong-form operator
    and ``poho_tol`` the relative dilation-identity residual
    |P(u)| / ||u||_{H1}^2; both are measured honestly on the returned
    profile and a report counts as converged only when both are met.
    The defaults reflect what the second-order discretization can
    certify at n = 4096.
    """

    max_iters: int = 20000
    step: float = 1.0
    grad_tol: Optional[float] = None     # None: per-route default
    poho_tol: Optional[float] = None
    amp: float = 2.0
    width: float = 1.5
    # shooting controls
    ode_step: float = 1e-3
    shoot_tol: float = 1e-10

    def __post_init__(self):
        # each test is written so that NaN fails it
        if not self.max_iters >= 1:
            raise DomainError("max_iters must be >= 1")
        # an infinite step never shrinks below STEP_MIN, and an infinite
        # tolerance certifies anything
        for name in ("step", "ode_step", "shoot_tol", "grad_tol", "poho_tol",
                     "amp", "width"):
            val = getattr(self, name)
            if name in ("grad_tol", "poho_tol") and val is None:
                continue
            if not 0.0 < val < math.inf:
                raise DomainError(f"{name} must be positive and finite")

    def tolerances(self, route: str):
        gt = self.grad_tol if self.grad_tol is not None else ROUTE_GRAD_TOL[route]
        pt = self.poho_tol if self.poho_tol is not None else ROUTE_POHO_TOL[route]
        return gt, pt


# line search of routes A and B: the step shrinks on rejection and grows
# on acceptance within [STEP_MIN, STEP_MAX]
STEP_MIN = 1e-14
STEP_MAX = 8.0
STEP_SHRINK = 0.5
STEP_GROW = 1.3
# smoothing weight of the metric M = I - beta * Laplacian of routes A and B
PRECOND_BETA = 1.0
# relative KKT residual at which route B stops
BL_KKT_TOL = 1e-7
# a shot whose |u| exceeds this multiple of |u(0)| counts as an undershoot
BLOWUP_FACTOR = 10.0
# radius at which route C reads the growing-mode coefficient of a shot
SHOOT_R = 12.0
# factor by which route C's certifying probes step away from that
# coefficient's root while they still land on one side
SHOOT_WIDEN = 8.0
# most RK4 steps, (n - 1) * ceil(h / ode_step), of one route C shot: 32x
# the README grid's 32,760, ~2 s of stepping and an 8 MB recording
SHOOT_MAX_STEPS = 2**20
# initial_bump and route B's starting profile double the amplitude at most
# this often
BUMP_DOUBLINGS = 60

# Residual levels the routes certify at the default n = 4096 grid.  Grid
# refinement is asserted on the levels, not on these residuals: routes A
# and C converge at second order in the mesh width (tests/test_refinement.py).
# Route A's grad_tol is both its stopping rule and its certificate, and its
# stalled residual does not shrink steadily with the grid (const: 6.1e-3,
# 6.4e-4, 1.45e-3 at n = 1024/2048/4096).  The strong-form residual of the
# constrained route is limited by the variational-vs-strong-form
# discretization mismatch, the others by plain truncation error.
ROUTE_GRAD_TOL = {
    "fiber-descent": 5e-3,
    "bl-constrained": 1e-2,
    "shooting": 5e-3,
}
ROUTE_POHO_TOL = {
    "fiber-descent": 1e-8,
    "bl-constrained": 1e-4,
    "shooting": 1e-4,
}


# field type -> the types json.load gives its values: a float is written
# as an integer token when it is one (1.0 as 1); a bool is no number
_JSON_TYPES = {bool: {bool}, int: {int}, float: {int, float}, str: {str}}


@dataclass(frozen=True)
class SolveReport:
    """One route's result.  Its JSON report lists the fields before
    ``u_star`` in order, then the profile's grid block ``grid`` and its
    values ``u``."""

    converged: bool
    route: str
    energy: float
    pohozaev_residual: float     # |P(u)| / ||u||_{H1}^2
    pde_residual: float          # ||L(u)||_2 / ||u||_2
    iterations: int
    u_at_zero: float
    grad_tol: float
    poho_tol: float
    u_star: RadialFunction

    def to_dict(self) -> dict:
        d = {fld.name: getattr(self, fld.name) for fld in fields(self)[:-1]}
        d["grid"] = self.u_star.grid.mesh()
        d["u"] = self.u_star.values.tolist()
        return d

    @classmethod
    def from_dict(cls, data: dict, grid: RadialGrid) -> "SolveReport":
        """Inverse of ``to_dict`` on ``grid``: every key it writes is
        required, each field must hold a JSON value of its annotated type
        (_JSON_TYPES), every entry of ``u`` a number, and the grid block
        must describe ``grid``; DomainError otherwise."""
        try:
            want = grid.mesh()
            if data["grid"] != want:
                raise DomainError(f"grid block {data['grid']} does not match grid {want}")
            types = typing.get_type_hints(cls)
            scalars = {fld.name: data[fld.name] for fld in fields(cls)[:-1]}
            for name, value in scalars.items():
                if type(value) not in _JSON_TYPES[types[name]]:
                    raise DomainError(f"{name!r} must be a JSON "
                                      f"{types[name].__name__}, got {value!r}")
            u = data["u"]
            if not (type(u) is list and set(map(type, u)) <= _JSON_TYPES[float]):
                raise DomainError("'u' must be a list of JSON numbers")
            return cls(**{name: types[name](value) for name, value in scalars.items()},
                       u_star=RadialFunction(grid, np.asarray(u, dtype=float)))
        except KeyError as exc:
            raise DomainError(f"solve report has no {exc} entry") from exc
        except (TypeError, ValueError) as exc:   # DomainError included
            raise DomainError(f"malformed solve report: {exc}") from exc


@dataclass(frozen=True)
class SweepReport(Report):
    lambda_bar: float
    T: float
    zeta0: float
    x_bar: float
    r_bar: float
    rows: list
    requested: list
    dropped: list


# ----------------------------------------------------------------------
# shared machinery
# ----------------------------------------------------------------------

def _bump_ladder(grid: RadialGrid, amp: float, width: float):
    """Gaussian bumps a exp(-r^2/width^2) for a = amp 2^k, k < BUMP_DOUBLINGS."""
    for k in range(BUMP_DOUBLINGS):
        a = amp * 2.0**k
        yield RadialFunction.sampled(grid, lambda r: a * np.exp(-(r / width) ** 2))


def initial_bump(ctx: FunctionalContext, amp: float, width: float) -> RadialFunction:
    """Gaussian bump A exp(-r^2/width^2), amplitude doubled until it
    enters the admissible set."""
    for u in _bump_ladder(ctx.grid, amp, width):
        member, _ = lambda_membership(ctx, u)
        if member:
            return u
    raise NotInLambdaError(
        "no admissible amplitude found for the initial bump "
        "(superquadraticity of F may fail)")


def _cyclic_reduction(sub: np.ndarray, diag: np.ndarray, sup: np.ndarray):
    """Factor the tridiagonal system

        sub[i] x[i-1] + diag[i] x[i] + sup[i] x[i+1] = d[i]

    (sub[0] and sup[-1] unused) by odd-even cyclic reduction (Buzbee,
    Golub and Nielson, SIAM J. Numer. Anal. 7, 1970); returns solve(d).

    The system is padded with identity rows to size 2^k - 1.  Each level
    eliminates the unknowns at even (0-based) positions of its system,
    which leaves a tridiagonal system of half the size in the odd ones.
    The factor keeps per level the elimination coefficients alpha and
    gamma, 1/b of the eliminated rows and their a and c scaled by 1/b, so
    a solve is one reduction sweep and one back-substitution sweep of
    ~log2 n vectorised levels.  There is no pivoting: a zero or
    non-finite pivot, or a factor that overflows, raises
    SingularSystemError.
    """
    m = diag.size
    size = (1 << m.bit_length()) - 1      # smallest 2^k - 1 >= m
    a, b, c = np.zeros(size), np.ones(size), np.zeros(size)
    a[1:m], b[:m], c[:m - 1] = sub[1:], diag, sup[:-1]
    levels = []
    finite = True
    with np.errstate(all="ignore"):       # non-finite factors raise below
        while b.size > 1:
            inv = 1.0 / b[0::2]
            alpha = -a[1::2] * inv[:-1]
            gamma = -c[1::2] * inv[1:]
            level = (alpha, gamma, inv, a[0::2] * inv, c[0::2] * inv)
            finite = finite and all(np.isfinite(v).all() for v in (b, *level))
            levels.append(level)
            b = b[1::2] + alpha * c[0:-1:2] + gamma * a[2::2]
            a = alpha * a[0:-1:2]
            c = gamma * c[2::2]
        inv_root = float(1.0 / b[0])
    if not (finite and math.isfinite(b[0]) and math.isfinite(inv_root)):
        raise SingularSystemError(
            f"cyclic reduction met a zero or non-finite pivot or factor "
            f"(system size {m})")

    def solve(d: np.ndarray) -> np.ndarray:
        # unknown i sits at buf[i + 1]; buf[0] and buf[size + 1] are zero
        # ghosts, and the level of stride s holds its unknowns at s, 2s, ...
        buf = np.zeros(size + 2)
        buf[1:m + 1] = d
        s = 1
        for alpha, gamma, _, _, _ in levels:
            kept = buf[2 * s:size + 1:2 * s]
            kept += alpha * buf[s:size + 1 - s:2 * s]
            kept += gamma * buf[3 * s:size + 1:2 * s]
            s *= 2
        buf[s] *= inv_root
        for _, _, inv_b, a_b, c_b in reversed(levels):
            s //= 2
            elim = buf[s:size + 1:2 * s]
            elim *= inv_b
            elim -= a_b * buf[0:size + 2 - 2 * s:2 * s]
            elim -= c_b * buf[2 * s:size + 2:2 * s]
        return buf[1:m + 1]

    return solve


def _h1_preconditioner(grid: RadialGrid):
    """Solve of M = I + beta * (-Laplacian_h), factored once per call.

    The last row is the identity.  Its unknown is the rhs's last entry,
    which the interior rows take through their coupling to the Dirichlet
    node; the interior system is solved by cyclic reduction, and the
    returned direction is 0 on the Dirichlet node.
    """
    n, h, N, r = grid.n, grid.h, grid.N, grid.r
    beta = PRECOND_BETA
    diag = np.full(n, 1.0)
    sup = np.zeros(n)
    sub = np.zeros(n)
    diag[1:-1] += beta * 2.0 / h**2
    sup[1:-1] = beta * (-1.0 / h**2 - (N - 1.0) / (2.0 * h * r[1:-1]))
    sub[1:-1] = beta * (-1.0 / h**2 + (N - 1.0) / (2.0 * h * r[1:-1]))
    diag[0] += beta * 2.0 * N / h**2
    sup[0] = -beta * 2.0 * N / h**2
    interior = _cyclic_reduction(sub[:-1], diag[:-1], sup[:-1])
    couple = sup[-2]   # row n-2 to the Dirichlet node; the factor drops it

    def solve(rhs: np.ndarray) -> np.ndarray:
        d = rhs[:-1].copy()
        d[-1] -= couple * rhs[-1]
        x = np.empty(n)
        x[:-1] = interior(d)
        x[-1] = 0.0   # directions vanish on the Dirichlet node
        return x

    return solve


def _rel_residual(res: RadialFunction, u: RadialFunction) -> float:
    """Relative L2 size ||res||_2 / ||u||_2 of a strong-form residual."""
    return math.sqrt(max(l2_norm_sq(res), 0.0) / max(l2_norm_sq(u), 1e-300))


def _finish(fv: FiberValues, w: RadialFunction, t: float, route: str,
            iterations: int, tols, why: str) -> SolveReport:
    """Certify fv.u = w(x/t) and build the route's report; ConvergenceError
    (carrying the report) unless both residuals meet their tolerances at a
    positive level.  w(x/t) solves the target equation iff w solves it with
    the coefficients t^2 V(t r) and t^2 lam f, so the strong-form residual
    is taken on w with those, divided by t^2: w is never resampled, whose
    interpolation kinks the second difference would amplify by 1/h^2."""
    grad_tol, poho_tol = tols
    V, f, lam = fv.ctx.V.V, fv.ctx.f.f, fv.ctx.lam
    t2 = t**2
    res = pde_residual(w, lambda r: t2 * V(t * r),
                       lambda s: t2 * lam * np.asarray(f(s), dtype=float), 1.0)
    rel_pde = _rel_residual(res, w) / t2
    rel_poho = fv.relative_pohozaev()
    m_hat = fv.energy()
    converged = (rel_pde <= grad_tol and rel_poho <= poho_tol and m_hat > 0.0)
    report = SolveReport(
        converged=converged,
        u_star=fv.u,
        energy=m_hat,
        pohozaev_residual=rel_poho,
        pde_residual=rel_pde,
        iterations=iterations,
        route=route,
        u_at_zero=float(fv.u.values[0]),
        grad_tol=grad_tol,
        poho_tol=poho_tol,
    )
    if not converged:
        raise ConvergenceError(
            f"{why}: pde residual {rel_pde:.3e} (tol {grad_tol:.1e}), "
            f"dilation-identity residual {rel_poho:.3e} (tol {poho_tol:.1e}), "
            f"level {m_hat:.6g}", report=report)
    return report


# ----------------------------------------------------------------------
# route A: fiber-projected energy descent
# ----------------------------------------------------------------------

def solve_fiber_descent(ctx: FunctionalContext,
                        opts: SolveOptions = SolveOptions()) -> SolveReport:
    """Minimize the energy over the constraint set by projected descent.

    Iterates v <- u - s * M^{-1} L(u), u <- project(v), with backtracking
    on the fiber-formula energy.  M = I - beta*Laplacian is a smoothing
    metric; the raw strong-form residual as a direction would need ~1e5
    explicit steps at the default resolution, while the certificates are
    still measured on the raw residual.

    Callers are expected to have checked the potential/nonlinearity
    hypotheses; this routine only enforces admissibility of the iterates.
    """
    grad_tol, poho_tol = tols = opts.tolerances("fiber-descent")
    psolve = _h1_preconditioner(ctx.grid)
    u = project_to_M(ctx, initial_bump(ctx, opts.amp, opts.width)).projected
    level = fiber_values(ctx, u).energy()
    s = opts.step
    iters = 0
    for iters in range(1, opts.max_iters + 1):
        res = pde_residual(u, ctx.V.V, ctx.f.f, ctx.lam)
        rel_pde = _rel_residual(res, u)
        if rel_pde <= grad_tol:
            break
        d = psolve(res.values)
        accepted = False
        left_lambda = False
        while s >= STEP_MIN:
            trial = u.values - s * d
            trial[-1] = 0.0
            v = RadialFunction(ctx.grid, trial)
            try:
                proj = project_to_M(ctx, v)
                left_lambda = False
            except NotInLambdaError:
                left_lambda = True
                s *= STEP_SHRINK
                continue
            new_level = float(proj.fiber.energy_at(proj.t_u)[0])
            if new_level < level:
                u = proj.projected
                level = new_level
                accepted = True
                s = min(s * STEP_GROW, STEP_MAX)
                break
            s *= STEP_SHRINK
        if not accepted:
            if left_lambda:
                raise LeftLambdaError(
                    "descent left the admissible set and no shorter step recovers it")
            break  # line search stalled at the discretization floor

    # polish: the last materialized iterate carries interpolation noise
    # proportional to its dilation offset; reprojecting at t ~ 1 contracts
    # the constraint residual to round-off
    fv = fiber_values(ctx, u)
    for _ in range(12):
        if fv.relative_pohozaev() <= poho_tol:
            break
        u = project_fiber(fv).projected
        fv = fiber_values(ctx, u)

    return _finish(fv, u, 1.0, "fiber-descent", iters, tols,
                   f"fiber descent stopped after {iters} iterations")


# ----------------------------------------------------------------------
# route B: constrained minimization of the Dirichlet seminorm
# ----------------------------------------------------------------------

# amplitudes scanned in order for the first crossing C(a) >= target
AMP_SCAN = np.geomspace(1e-4, 1e4, 81)
# final bracket width in log a: a few ulp at the scan's ends, |log a| ~ 9.2
AMP_LOG_TOL = 1e-14
# relative slack within which one real F pass confirms the amplitude that
# a restore found on the homogeneous law A a^(degree+1) - B a^2
AMP_CHECK_RTOL = 1e-12


def _restore_walk(c_of, target: float) -> Optional[float]:
    """First crossing c_of(a) >= target on AMP_SCAN, walked up from its
    low end and polished by false position; None when no scan point
    reaches the target.  See _amplitude_restore."""
    def excess(x: float) -> float:
        a = math.exp(x)
        return (c_of(a) - target) / (a * a)

    c_prev = None
    for j, a in enumerate(AMP_SCAN):
        c = c_of(a)
        if c >= target:
            break
        c_prev = c
    else:
        return None
    if j == 0:
        return float(AMP_SCAN[0])
    a_prev = AMP_SCAN[j - 1]
    lo, hi = false_position(excess, math.log(a_prev), math.log(a),
                            (c_prev - target) / (a_prev * a_prev),
                            (c - target) / (a * a), AMP_LOG_TOL)
    return math.exp(0.5 * (lo + hi))


def _amplitude_restore(ctx: FunctionalContext, w: np.ndarray) -> Optional[float]:
    """Scalar a > 0 with C(a*w) = 1, where
    C(v) = int [lam F(v) - (V_inf/2) v^2]; None when unreachable.

    Returns the first crossing: the first scan amplitude with
    C >= 1, and the bracket below it polished by false position in
    x = log a on (C(a) - 1) / a^2.  That has the sign of
    C(a) - 1 at every a, so the root is the same; without the
    quadratic growth of C the polish does not creep in from one end.

    In general C(a)/a^2 need not be monotone (power 1 < p < 2 rises and
    falls), so the scan is walked up from its low end, not bisected.  A
    NaN value counts as not reached.

    When the nonlinearity declares its ``degree`` k, F(a s) = a^(k+1) F(s),
    so C(a*w) = A a^(k+1) - B a^2 with A = lam int F(w) and
    B = (V_inf/2) int w^2: one F pass gives the whole law, and the walk
    and polish run on it.  One more F pass checks the amplitude found:
    it is returned when C(a*w) is finite and within AMP_CHECK_RTOL of
    1 relative to |lam int F(a*w)| + B a^2, or, at the scan's low
    end, reaches 1.  Any other outcome (no crossing of the law,
    a NaN or overflowing F, a declared degree that does not hold) runs
    the walk on C itself, as without the declared degree: two F passes
    per restore instead of one per scan point up to the crossing plus
    the polish.
    """
    wt = ctx.grid.weights
    half_mass = 0.5 * ctx.V.v_inf * float(wt @ w**2)

    def lam_F(a: float):
        return ctx.lam * (wt @ np.asarray(ctx.f.F(a * w), dtype=float))

    def c_of(a: float) -> float:
        return float(lam_F(a) - half_mass * a * a)

    if ctx.f.degree is not None:
        big_a, power = float(lam_F(1.0)), ctx.f.degree + 1.0

        def c_law(a: float) -> float:
            a = float(a)
            try:
                return big_a * a ** power - half_mass * a * a
            except OverflowError:    # not reached; C itself decides
                return math.nan

        a = _restore_walk(c_law, 1.0)
        if a is not None:
            lf, mass_term = float(lam_F(a)), half_mass * a * a
            c = lf - mass_term
            if math.isfinite(c) and (
                    abs(c - 1.0) <= AMP_CHECK_RTOL * (abs(lf) + mass_term)
                    or (a == AMP_SCAN[0] and c >= 1.0)):
                return a
    return _restore_walk(c_of, 1.0)


def solve_limit_BL(ctx: FunctionalContext,
                   opts: SolveOptions = SolveOptions()) -> SolveReport:
    """Constrained route for the constant-potential problem.

    Minimizes ||grad w||^2 subject to int [lam F(w) - (V_inf/2) w^2] = 1
    by tangentially projected, smoothed gradient steps; the constraint is
    restored after each step by a scalar amplitude solve.  The minimizer
    is rescaled by t = sqrt((N-2)/(2N)) ||grad w||_2, which places the
    dilated profile on the constraint set of the limit problem.
    """
    if ctx.V.family != "constant":
        raise PreconditionError("constrained route requires a constant potential")
    grid = ctx.grid
    N = grid.N
    psolve = _h1_preconditioner(grid)
    wts = grid.weights

    for cand in _bump_ladder(grid, opts.amp, opts.width):
        a = _amplitude_restore(ctx, cand.values)
        if a is not None:
            w = a * cand.values
            break
    else:
        raise ConstraintInfeasibleError(
            "no sampled profile reaches the constraint value "
            "(one-point superquadraticity appears to fail)")

    G = grad_seminorm_sq(RadialFunction(grid, w))
    s = opts.step
    iters = 0
    kkt = math.inf
    for iters in range(1, opts.max_iters + 1):
        wf = RadialFunction(grid, w)
        # -Laplacian w: the residual with V = 0 and f = 0
        lap = pde_residual(wf, np.zeros_like, np.zeros_like, 0.0).values
        gL = 2.0 * lap
        gC = ctx.lam * np.asarray(ctx.f.f(w), dtype=float) - ctx.V.v_inf * w
        gC[-1] = 0.0
        denom = float(wts @ gC**2)
        mu = float(wts @ (gL * gC)) / denom if denom > 0 else 0.0
        d_raw = gL - mu * gC
        kkt = math.sqrt(max(float(wts @ d_raw**2), 0.0)
                        / max(float(wts @ gL**2), 1e-300))
        if kkt <= BL_KKT_TOL:
            break
        d = psolve(d_raw)
        accepted = False
        while s >= STEP_MIN:
            trial = w - s * d
            trial[-1] = 0.0
            a = _amplitude_restore(ctx, trial)
            if a is None:
                s *= STEP_SHRINK
                continue
            w_new = a * trial
            G_new = grad_seminorm_sq(RadialFunction(grid, w_new))
            if G_new < G:
                w, G = w_new, G_new
                accepted = True
                s = min(s * STEP_GROW, STEP_MAX)
                break
            s *= STEP_SHRINK
        if not accepted:
            break

    w_hat = RadialFunction(grid, w)
    t_hat = math.sqrt((N - 2.0) / (2.0 * N) * grad_seminorm_sq(w_hat))
    return _finish(fiber_values(ctx, dilate(w_hat, t_hat)), w_hat, t_hat,
                   "bl-constrained", iters, opts.tolerances("bl-constrained"),
                   f"constrained route stopped after {iters} iterations at kkt {kkt:.3e}")


# ----------------------------------------------------------------------
# route C: shooting oracle
# ----------------------------------------------------------------------

def _integrate_shot(a: float, v_inf: float, f_scalar, N: int, lam: float,
                    h: float, r_end: float, blow: float,
                    record: Optional[list] = None, start: Optional[tuple] = None):
    """RK4 on u'' = V_inf u - lam f(u) - (N-1)/r u' from r = 0 to r_end.

    Returns (classification, r, u, v) at the stop, with classification in
    {"cross", "turn", "decay"}.  "cross": the profile passed through
    zero (amplitude too large).  "turn": it started moving away from
    zero again while still sign-definite, or exceeded blow*|a|
    (amplitude too small; for bounded nonlinearities such trajectories
    settle at a positive rest point rather than diverging, so the turn
    is the reliable signature).  "decay": neither happened before r_end.
    ``record``, when given, receives u after every step.  ``start``,
    when given, is the state (u, v, r, k) of this shot after its first k
    steps, as a run of k steps without an event returns it: the shot
    continues from there and ends, and records, as the run from r = 0
    does, float for float.

    A state with u' = 0 and u'' = 0 exactly is a fixed point of the
    discrete step at every r, so a shot that reaches one returns its
    "decay" at once, with the r the remaining steps would accumulate.
    """
    n_steps = int(round(r_end / h))
    u, v, r, k_start = (a, 0.0, 0.0, 0) if start is None else start
    sgn = 1.0 if a >= 0 else -1.0
    thresh = blow * abs(a)
    # acceleration a(r, u, v) = V_inf u - lam f(u) - (N-1)/r v, inlined into
    # the four stages; at r = 0 the symmetric limit gives (V_inf u - lam f(u))/N.
    # Only the first stage of the first step sits at r = 0.
    hh = 0.5 * h
    h6 = h / 6.0
    n1 = N - 1.0

    for k in range(k_start, n_steps):
        k1u = v
        fu = v_inf * u - lam * f_scalar(u)
        if r == 0.0:
            k1v = fu / N
        elif fu == 0.0 and v == 0.0:
            # rest point, already past the event checks: every further
            # step leaves (u, v) as it is
            for _ in range(k, n_steps):
                r += h
            if record is not None:
                record.extend([u] * (n_steps - k))
            return "decay", r, u, v
        else:
            k1v = fu - n1 / r * v
        rh = r + hh
        k2u = v + hh * k1v
        uu = u + hh * k1u
        fu = v_inf * uu - lam * f_scalar(uu)
        k2v = fu - n1 / rh * k2u
        k3u = v + hh * k2v
        uu = u + hh * k2u
        fu = v_inf * uu - lam * f_scalar(uu)
        k3v = fu - n1 / rh * k3u
        r2 = r + h
        k4u = v + h * k3v
        uu = u + h * k3u
        fu = v_inf * uu - lam * f_scalar(uu)
        k4v = fu - n1 / r2 * k4u
        u = u + h6 * (k1u + 2.0 * k2u + 2.0 * k3u + k4u)
        v = v + h6 * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
        r = r2
        if not (math.isfinite(u) and math.isfinite(v)):
            raise StiffIntegrationError(
                f"shooting integration produced non-finite values at r={r:.3g}")
        if record is not None:
            record.append(u)
        if u * sgn <= 0.0:          # crossed through zero
            return "cross", r, u, v
        if v * sgn > 0.0 or abs(u) > thresh:
            return "turn", r, u, v
    return "decay", r, u, v


def _bisect_classes(classify, lo: float, hi: float, lo_class: str,
                    tol: float) -> float:
    """Halve [lo, hi] by classification to width <= tol and return its
    midpoint; a "decay" shot is taken as the separatrix itself."""
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        c = classify(mid)
        if c == "decay":
            return mid
        if c == lo_class:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _probe_offset(a: float, tol: float) -> float:
    """Offset d of the classification probes a -/+ d next to an amplitude
    a: a -/+ d round to floats at most tol apart, so a first pair that
    straddles the separatrix needs no further halving."""
    return max(0.5 * tol - math.ulp(a), 0.25 * tol)


def _separatrix_amplitude(classify, growth, lo: float, hi: float,
                          lo_class: str, tol: float) -> float:
    """Amplitude between the classes of a scan bracket [lo, hi].

    The functional stage brackets a sign change of the continuous
    ``growth`` by false position to width <= tol, midpoint a_g.  The
    classification stage first classifies that bracket's ends, whose
    shots the functional stage has run to SHOOT_R already, lower end
    first: when it is of ``lo_class`` and the upper end is not (they
    straddle the separatrix), the bracket is the certificate and a_g the
    result.  Otherwise the ends narrow [lo, hi] to the side they point
    to, and probes a_g +/- tol/2, a_g +/- SHOOT_WIDEN tol/2, ... on that
    side narrow it further until one lands across.  The result is the
    midpoint of that bracket halved by classification to width <= tol,
    so the functional only decides how many shots the certificate costs.
    Without a sign change of ``growth`` on [lo, hi] the whole bracket is
    halved by classification.
    """
    g_lo, g_hi = growth(lo), growth(hi)
    if not (g_lo < 0.0 < g_hi or g_hi < 0.0 < g_lo):
        return _bisect_classes(classify, lo, hi, lo_class, tol)
    g_root_lo, g_root_hi = false_position(growth, lo, hi, g_lo, g_hi, tol)
    a_g = 0.5 * (g_root_lo + g_root_hi)
    # the scan bracket's ends are classified already
    known = {lo: lo_class, hi: "cross" if lo_class == "turn" else "turn"}
    # classes are monotone in the amplitude: once g_root_lo is not of
    # lo_class, neither is g_root_hi, which is left unshot
    for x in (g_root_lo, g_root_hi):
        c = known[x] if x in known else classify(x)
        if c == "decay":
            return x
        if c != lo_class:
            hi = x
            break
        lo = x
    if (lo, hi) == (g_root_lo, g_root_hi):
        return a_g
    # both ends on one side: probe outward from a_g on the far side
    side = 1.0 if lo == g_root_hi else -1.0
    d = _probe_offset(a_g, tol)
    x = a_g + side * d
    while lo < x < hi:
        c = classify(x)
        if c == "decay":
            return x
        if c == lo_class:
            lo = x
        else:
            hi = x
        if (c == lo_class) != (side > 0):
            break       # across from the ends: [lo, hi] straddles
        d *= SHOOT_WIDEN
        x = a_g + side * d
    return _bisect_classes(classify, lo, hi, lo_class, tol)


def _searched_amplitude(classify, growth, tol: float) -> float:
    """Separatrix amplitude from no prior knowledge: a scan over
    u(0) = 1, 2, 1/2, 4, 1/4, ... finds one amplitude of each class, and
    ``_separatrix_amplitude`` searches the bracket between them."""
    a_lo = a_hi = None   # lo: turn side, hi: cross side
    seen = {}
    for k in range(61):
        step = (k + 1) // 2
        cand = (2.0**step if k % 2 == 1 else 2.0**-step) if k else 1.0
        c = classify(cand)
        seen[cand] = c
        if c == "turn" and (a_lo is None or cand > a_lo):
            a_lo = cand
        if c == "cross" and (a_hi is None or cand < a_hi):
            a_hi = cand
        if c == "decay":
            return cand
        if a_lo is not None and a_hi is not None:
            break
    if a_lo is None or a_hi is None:
        raise BracketNotFoundError(
            "no amplitude bracket separating undershoot from overshoot; "
            f"behaviors seen: {sorted(set(seen.values()))}")
    lo, hi = min(a_lo, a_hi), max(a_lo, a_hi)
    return _separatrix_amplitude(classify, growth, lo, hi, seen[lo], tol)


def _confirmed_amplitude(classify, predicted: float, tol: float) -> Optional[float]:
    """Separatrix amplitude next to a predicted one, or None.

    Classifies the midpoint of predicted -/+ d (d as the probes of
    ``_separatrix_amplitude`` use), keeping its shot, and then the probe
    on the far side of the midpoint's class: predicted + d after a turn,
    predicted - d after a cross.  A turn and a cross bracket the
    separatrix no wider than tol/2, and the midpoint is the result.  A
    "decay" shot is taken as the separatrix itself.  Two shots of one
    class confirm nothing: None, and the caller searches as if no
    prediction had been made.
    """
    d = _probe_offset(predicted, tol)
    lo, hi = predicted - d, predicted + d
    mid = 0.5 * (lo + hi)
    c_mid = classify(mid, keep=True)
    if c_mid == "decay":
        return mid
    far = hi if c_mid == "turn" else lo
    c_far = classify(far)
    if c_far == "decay":
        return far
    if {c_mid, c_far} != {"turn", "cross"}:
        return None
    return mid


def shoot_oracle(v_inf: float, f, N: int, lam: float = 1.0,
                 grid: Optional[RadialGrid] = None,
                 opts: SolveOptions = SolveOptions(),
                 predicted: Optional[float] = None) -> SolveReport:
    """Autonomous ground state by shooting in the initial amplitude on
    grid (default n = 4096, r_max = 30); N must be its dimension, and a
    shot may take at most SHOOT_MAX_STEPS RK4 steps (else DomainError).

    Shots are fixed-step RK4 on the radial ODE, independent of the
    quadrature and descent code paths, and are classified as undershoot
    (the profile turns, or grows past 10 u(0)) or overshoot (it crosses
    zero); the separatrix between them is the monotone decaying ground
    state.  A scan over u(0) = 1, 2, 1/2, 4, ... finds one amplitude of
    each class.  Inside that bracket the root of the growing-mode
    coefficient 1/2 (w + w'/kappa) e^{-kappa r} of w = r^{(N-1)/2} u,
    kappa = sqrt(V_inf), read at r = SHOOT_R or at the shot's event if
    that comes first (see below), is found by false position; it changes sign
    smoothly at the ground state.  The ends of its final bracket are
    classified next, and when they do not straddle the separatrix, they
    and classification shots past them narrow the scan bracket, which is
    halved by classification to opts.shoot_tol (see
    ``_separatrix_amplitude``).  The reported u(0) is the midpoint of an
    undershoot/overshoot bracket no wider than opts.shoot_tol whichever
    way the functional points, unless a classification shot decays: its
    amplitude is then taken as the separatrix before the bracket is that
    narrow, and the residual certificates alone decide.

    Every shot first runs to SHOOT_R (r_max if that is smaller), or to
    its event, and its state there is kept: the functional reads it,
    and a classification resumes it, so the two stages never integrate
    the same stretch twice.  The recorded profile is one more shot of
    the reported amplitude, unless the search kept that amplitude's shot.

    ``predicted``, when given, is an amplitude expected within
    opts.shoot_tol/2 of the separatrix.  The midpoint of predicted -/+ d
    is shot first and kept, then the probe on its far side; they either
    bracket the separatrix, which skips the scan and the functional
    stage and makes the kept shot the recorded one, or they do not, and
    the search runs as without a prediction (see
    ``_confirmed_amplitude``).  The certificate is the same either way.
    """
    if v_inf <= 0:
        raise DomainError("shooting requires V_inf > 0")
    if predicted is not None and not math.isfinite(predicted):
        raise DomainError(f"predicted amplitude must be finite, got {predicted}")
    grid = make_grid(N, 30.0, 4096) if grid is None else grid
    if N != grid.N:
        raise DomainError(f"dimension N = {N} does not match the grid's N = {grid.N}")
    # largest step <= opts.ode_step that divides the grid spacing exactly,
    # so the recorded trajectory subsamples onto grid nodes by index and
    # no interpolation touches the profile (interpolation kinks would be
    # amplified by 1/h^2 in the residual certificate); capped so that ceil
    # stays finite, and a capped k_sub fails the bound as n - 1 >= 15
    k_sub = max(1, math.ceil(min(grid.h / opts.ode_step, SHOOT_MAX_STEPS)))
    if (grid.n - 1) * k_sub > SHOOT_MAX_STEPS:
        raise DomainError(f"a shot would take more than SHOOT_MAX_STEPS = "
                          f"{SHOOT_MAX_STEPS} RK4 steps: n = {grid.n}, "
                          f"h = {grid.h:.6g}, ode_step = {opts.ode_step:.6g}")
    h = grid.h / k_sub
    r_end, blow = grid.r_max, BLOWUP_FACTOR
    f_scalar = f.f_scalar
    kappa, m = math.sqrt(v_inf), 0.5 * (N - 1)
    # every shot runs to r_R first and is resumed from there when it is
    # classified, so growth and classify share what either integrated
    r_R = min(SHOOT_R, r_end)
    k_R = int(round(r_R / h))
    at_R = {}     # amplitude -> (kind, r, u, u') at its event or at r_R
    kept = {}     # amplitude -> its recorded u, the kept shot

    def shot(a, r_stop, record=None, start=None):
        return _integrate_shot(a, v_inf, f_scalar, N, lam, h, r_stop, blow,
                               record, start)

    def state_at_R(a, record=None):
        if a not in at_R:
            at_R[a] = shot(a, r_R, record)
        return at_R[a]

    def classify(a, keep=False):
        # keep: record the shot of an amplitude not shot before
        us = [a] if keep else None
        kind, r, u_end, v_end = state_at_R(a, us)
        if kind == "decay":
            kind, r, u_end, v_end = shot(a, r_end, us, (u_end, v_end, r, k_R))
        if keep:
            kept[a] = us
        if kind == "decay" and abs(u_end) > 0.5 * abs(a):
            # the trajectory never left the neighborhood of a rest point
            # of the autonomous flow: the amplitude is too small
            return "turn"
        return kind

    def growth(a):
        # w = r^m u and w' = r^m (u' + m u / r)
        _, r, u, v = state_at_R(a)
        return 0.5 * r**m * math.exp(-kappa * r) * (u + (v + m * u / r) / kappa)

    a_star = None
    if predicted is not None:
        a_star = _confirmed_amplitude(classify, predicted, opts.shoot_tol)
    us = kept.pop(a_star, None)
    kept.clear()
    if a_star is None:
        a_star = _searched_amplitude(classify, growth, opts.shoot_tol)
    if us is None:
        us = [a_star]
        shot(a_star, r_end, us)
    full = np.zeros((grid.n - 1) * k_sub + 1)
    full[: len(us)] = us
    sgn = 1.0 if a_star > 0 else -1.0
    full *= sgn
    # the trajectory leaves the separatrix at the first upturn/sign flip;
    # everything from there is growing-mode contamination
    dus = np.diff(full)
    bad = np.nonzero((full[1:] <= 0.0) | (dus > 0.0))[0]
    i_event = int(bad[0]) + 1 if bad.size else full.size - 1
    # back off to where the contamination is ~1e-4 relative, then replace
    # the tail by the measured local exponential decay: a hard zero cut
    # would leave a kink that the residual certificate amplifies by 1/h^2
    u_event = max(full[max(i_event - 1, 0)], abs(a_star) * 1e-14)
    floor = 100.0 * u_event
    clean = np.nonzero(full[:i_event] >= floor)[0]
    c = int(clean[-1]) if clean.size else max(i_event - 1, 1)
    w = min(c - 1, max(int(round(0.5 / h)), 2))
    if w >= 2 and full[c - w] > full[c] > 0.0:
        rate = math.log(full[c - w] / full[c]) / (w * h)
    else:
        rate = kappa
    ext = np.arange(1, full.size - c)
    full[c + 1 :] = full[c] * np.exp(-rate * h * ext)
    full *= sgn
    vals = full[::k_sub].copy()
    vals[-1] = 0.0
    u_star = RadialFunction(grid, vals)

    ctx = FunctionalContext(grid, constant_potential(v_inf), f, lam)
    # u_star.values[0] is a_star: the tail fix never reaches index 0
    return _finish(fiber_values(ctx, u_star), u_star, 1.0, "shooting", 0,
                   opts.tolerances("shooting"),
                   "shooting profile failed its certificates")


# ----------------------------------------------------------------------
# route D: homotopy sweep in the nonlinearity weight
# ----------------------------------------------------------------------

def sweep_lambda(ctx: FunctionalContext, lambda_grid=None,
                 opts: SolveOptions = SolveOptions(),
                 t_cap: float = 64.0) -> SweepReport:
    """Autonomous levels vs. the dilation-path bound along a weight grid.

    For each weight lam in the grid, computes the autonomous ground level
    m_lam (nonlinearity lam*f, potential V_inf) and the computable path
    bound c_bar_lam = max_{t in (0, T]} I_lam(u1(x/t)), where u1 is the
    lam=1 autonomous ground state and T makes the path endpoint negative
    for every grid weight.  Also evaluates the explicit weight threshold
    lambda_bar below which the gap is not asserted; rows are restricted
    to (lambda_bar, 1].
    """
    grid = ctx.grid
    N = grid.N
    radii = default_radii(grid.r_max)
    v_vals = ctx.V.V(radii)
    if float(np.max(np.abs(v_vals - ctx.V.v_inf))) <= 1e-12 * max(1.0, ctx.V.v_inf):
        raise PositivityBallError(
            "potential is constant at every sampled radius; the sweep needs "
            "V below its limit somewhere")
    if not check_V1V2(ctx.V, radii).passed:
        raise PreconditionError("potential fails nonnegativity/domination checks")
    if estimate_theta_V4(ctx.V, N, radii) >= 1.0:
        raise PreconditionError("potential fails the derivative-decay bound")

    u1 = shoot_oracle(ctx.V.v_inf, ctx.f, N, lam=1.0, grid=grid, opts=opts)
    u1f = u1.u_star
    # the quadratures of u1 do not depend on the weight: the fiber at any
    # lam is fv1 with its context's weight replaced
    fv1 = fiber_values(ctx.with_lambda(1.0), u1f)
    f_int = fv1.f_int
    if f_int <= 0:
        raise PreconditionError("autonomous ground state has nonpositive int F")

    # ball on which V stays below its limit and the profile is nonzero
    below = (ctx.V.v_inf - ctx.V.V(grid.r)) > 0.0
    nonzero = np.abs(u1f.values) > 0.0
    ok = below & nonzero
    x_bar = 0.0
    if not ok[0]:
        cand = np.nonzero(ok)[0]
        if cand.size == 0:
            raise PositivityBallError(
                "no sampled ball with V below its limit and a nonzero profile")
        x_bar = float(grid.r[int(cand[0])])
        ok = ok[int(cand[0]):]
    stop = np.nonzero(~ok)[0]
    r_bar = float(grid.r[int(stop[0]) - 1]) if stop.size else grid.r_max
    if r_bar <= 0:
        raise PositivityBallError("positivity ball has vanishing radius")
    zeta0 = min(3.0 * r_bar / (8.0 * (1.0 + abs(x_bar))), 0.25)

    requested = (list(lambda_grid) if lambda_grid is not None else None)

    def fiber_at(lam: float) -> FiberValues:
        return replace(fv1, ctx=ctx.with_lambda(lam))

    # the path endpoint at T is negative for every requested weight, so
    # also for the rows kept below
    probe = requested if requested is not None else [1.0]
    T = 2.0
    while not all(float(fiber_at(lam).energy_at(T)[0]) < 0.0 for lam in probe):
        T *= 1.5
        if T > t_cap:
            raise ConvergenceError(
                f"no path length below the cap {t_cap} makes the endpoint negative")

    u2 = u1f.values**2
    d_min = min(float(grid.weights @ ((ctx.V.v_inf - ctx.V.V(s * grid.r)) * u2))
                for s in np.linspace(1.0 - zeta0, 1.0 + zeta0, 33))
    g_min = min(g_of_t(1.0 - zeta0, N), g_of_t(1.0 + zeta0, N))
    term2 = 1.0 - (1.0 - zeta0) ** N * d_min / (T**N * f_int)
    term3 = 1.0 - g_min * fv1.grad / (N * T**N * f_int)
    lam_bar = max(0.5, term2, term3)
    if not (0.5 <= lam_bar < 1.0):
        raise ConvergenceError(f"weight threshold {lam_bar} escaped [1/2, 1)")

    if requested is None:
        lams = [lam_bar + fr * (1.0 - lam_bar) for fr in (0.5, 0.75, 1.0)]
        dropped = []
    else:
        lams = [la for la in requested if lam_bar < la <= 1.0]
        dropped = [la for la in requested if not (lam_bar < la <= 1.0)]

    def predicted_amplitude(lam: float) -> Optional[float]:
        # s u solves the lam problem when u solves the lam = 1 problem and
        # lam s^(degree-1) = 1; every RK4 stage and every shot event scales
        # the same way, so the lam = 1 root predicts the row's root
        deg = ctx.f.degree
        if deg is None or deg <= 1.0:
            return None
        return u1.u_at_zero * lam ** (-1.0 / (deg - 1.0))

    rows = []
    for lam in lams:
        # the lam = 1 row is the shot u1 already made
        m_inf = u1.energy if lam == 1.0 else shoot_oracle(
            ctx.V.v_inf, ctx.f, N, lam=lam, grid=grid, opts=opts,
            predicted=predicted_amplitude(lam)).energy
        # the fiber's unique maximizer is the root of P(u_t); it lies below
        # T, where the fiber is already negative
        fv_lam = fiber_at(lam)
        t_peak = project_fiber(fv_lam).t_u
        c_bar = float(fv_lam.energy_at(t_peak)[0])
        rows.append({
            "lambda": float(lam),
            "m_inf": float(m_inf),
            "c_bar": float(c_bar),
            "margin": float(m_inf - c_bar),
            "t_peak": float(t_peak),
        })

    return SweepReport(
        lambda_bar=float(lam_bar),
        T=float(T),
        zeta0=float(zeta0),
        x_bar=float(x_bar),
        r_bar=float(r_bar),
        rows=rows,
        requested=requested if requested is not None else [r["lambda"] for r in rows],
        dropped=dropped,
    )
