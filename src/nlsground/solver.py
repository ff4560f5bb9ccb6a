"""Ground-state solvers: three independent routes plus the homotopy sweep.

Route A (fiber descent): residual descent projected onto the constraint
set after every step.  Route B: gradient minimization of the
Berestycki-Lions quotient at fixed mass with the classical rescaling to
a solution.  Route C: an ODE shooting oracle, independent of the
variational code paths.  The sweep runs the autonomous solves for a family of nonlinearity weights
and certifies the strict level gap used for compactness.
"""

from __future__ import annotations

import functools
import math
import numbers
import typing
from dataclasses import dataclass, fields, replace
from typing import Optional

import numpy as np

from .errors import (
    BracketNotFoundError,
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
        # each test is written so that NaN fails it; range() needs an int
        if not (isinstance(self.max_iters, numbers.Integral) and self.max_iters >= 1):
            raise DomainError("max_iters must be an integer >= 1")
        # an infinite step never shrinks below STEP_MIN, and an infinite
        # tolerance certifies anything
        for name in ("step", "ode_step", "shoot_tol", "grad_tol", "poho_tol",
                     "amp", "width"):
            val = getattr(self, name)
            if name in ("grad_tol", "poho_tol") and val is None:
                continue
            if not 0.0 < val < math.inf:
                raise DomainError(f"{name} must be positive and finite")
        # the line search of routes A and B never grows a step past STEP_MAX
        if not self.step <= STEP_MAX:
            raise DomainError(f"step must be <= STEP_MAX = {STEP_MAX:g}")

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
# relative change of J that route B's trials cannot tell from rounding
BL_J_ROUNDING = 8.0 * np.finfo(float).eps
# a shot whose |u| exceeds this multiple of |u(0)| counts as an undershoot
BLOWUP_FACTOR = 10.0
# radius at which route C reads the growing-mode coefficient of a shot
SHOOT_R = 12.0
# factor by which route C's certifying probes step away from that
# coefficient's root while they still land on one side
SHOOT_WIDEN = 8.0
# fewest ODE steps per step of route C's coarse level: the README grid's
# ratio, whose one Newton step lands within shoot_tol of the separatrix
# (ratio 16 misses on the README cubic, ratio 30 in 4 of 7 cases at n = 1024)
SHOOT_COARSE_RATIO = 8
# most RK4 steps, (n - 1) * ceil(h / ode_step), of one route C shot: 32x
# the README grid's 32,760, ~2 s of stepping and an 8 MB recording
SHOOT_MAX_STEPS = 2**20
# initial_bump, the start of routes A and B, doubles the amplitude at most
# this often
BUMP_DOUBLINGS = 60

# Residual levels the routes certify at the default n = 4096 grid.  Grid
# refinement is asserted on the levels, not on these residuals: routes A,
# B and C converge at second order in the mesh width
# (tests/test_refinement.py).  Route A's grad_tol is both its stopping rule
# and its certificate, and its stalled residual does not shrink steadily
# with the grid (const: 6.1e-3, 6.4e-4, 1.45e-3 at n = 1024/2048/4096).
# The strong-form residual of the constrained route is limited by the
# variational-vs-strong-form discretization mismatch (const: 2.3e-4,
# 2.7e-4, 4.0e-5 at n = 1024/2048/4096), the others by plain truncation
# error.
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

def initial_bump(ctx: FunctionalContext, amp: float, width: float) -> RadialFunction:
    """Gaussian bump a exp(-r^2/width^2) with a = amp 2^k for the least
    k < BUMP_DOUBLINGS that puts it in the admissible set; the start of
    routes A and B.  NotInLambdaError when no such k exists.  Where
    (r/width)^2 overflows (a tiny width) the bump is exp(-inf) = 0.
    Where F overflows on a bump (p = 1e308), its admissibility integral
    is NaN and the bump is not admissible, without a warning."""
    for k in range(BUMP_DOUBLINGS):
        a = amp * 2.0**k
        with np.errstate(over="ignore"):
            u = RadialFunction.sampled(ctx.grid, lambda r: a * np.exp(-(r / width) ** 2))
        with np.errstate(over="ignore", invalid="ignore"):
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


def _line_search(x: np.ndarray, d: np.ndarray, s: float, trial,
                 s_floor: float = 0.0):
    """Backtracking step of routes A and B from x along -d.

    Tries v = x - s d, 0 on the Dirichlet node, shrinking s by
    STEP_SHRINK until ``trial(v)`` accepts, or s falls below STEP_MIN or
    below the caller's ``s_floor``, whichever is larger.  ``trial``
    returns the route's new state, or None to reject v.  Returns (state,
    step for the next search): an accepted step grows by STEP_GROW,
    capped at STEP_MAX; state is None when the search stalled.
    """
    s_min = max(STEP_MIN, s_floor)
    while s >= s_min:
        v = x - s * d
        v[-1] = 0.0
        state = trial(v)
        if state is not None:
            return state, min(s * STEP_GROW, STEP_MAX)
        s *= STEP_SHRINK
    return None, s


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
    left_lambda = False

    def trial(v: np.ndarray):
        # project, then compare fiber levels; left_lambda records whether
        # the last trial left the admissible set
        nonlocal left_lambda
        try:
            proj = project_to_M(ctx, RadialFunction(ctx.grid, v))
        except NotInLambdaError:
            left_lambda = True
            return None
        left_lambda = False
        new_level = float(proj.fiber.energy_at(proj.t_u)[0])
        return (proj.projected, new_level) if new_level < level else None

    s = opts.step
    iters = 0
    for iters in range(1, opts.max_iters + 1):
        res = pde_residual(u, ctx.V.V, ctx.f.f, ctx.lam)
        rel_pde = _rel_residual(res, u)
        if rel_pde <= grad_tol:
            break
        step, s = _line_search(u.values, psolve(res.values), s, trial)
        if step is None:
            if left_lambda:
                raise LeftLambdaError(
                    "descent left the admissible set and no shorter step recovers it")
            break  # line search stalled at the discretization floor
        u, level = step

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
# route B: Berestycki-Lions quotient at fixed mass
# ----------------------------------------------------------------------

def solve_limit_BL(ctx: FunctionalContext,
                   opts: SolveOptions = SolveOptions()) -> SolveReport:
    """Constrained route for the constant-potential problem.

    Berestycki and Lions minimize ||grad w||^2 subject to
    C(w) = int [lam F(w) - (V_inf/2) w^2] = 1.  Under dilation that is the
    same as minimizing the scale-free quotient
    J(w) = ||grad w||^2 / C(w)^q, q = (N-2)/N, over C(w) > 0, which needs
    no constraint restored.  The start is route A's initial_bump: on a
    constant potential, C is minus lambda_membership's admissibility
    functional, so an admissible bump has C > 0 (NotInLambdaError when no
    bump of the ladder is admissible).
    Smoothed gradient steps on J are taken with the shared backtracking
    line search, each trial rescaled to the starting bump's mass int w^2:
    dilation leaves J invariant in the continuum but the grid tilts it
    slightly, and an unpinned descent drifts along the dilation orbit,
    which the fixed-mass slice meets once.  A trial is accepted when
    C > 0 and J falls.  The minimizer is rescaled by
    t = sqrt((N-2) ||grad w||^2 / (2N C(w))), which places the dilated
    profile on the constraint set of the limit problem.
    """
    if ctx.V.family != "constant":
        raise PreconditionError("constrained route requires a constant potential")
    grid = ctx.grid
    N = grid.N
    q = (N - 2.0) / N
    psolve = _h1_preconditioner(grid)
    wts = grid.weights

    def constraint(v: np.ndarray) -> float:
        return float(ctx.lam * (wts @ np.asarray(ctx.f.F(v), dtype=float))
                     - 0.5 * ctx.V.v_inf * (wts @ v**2))

    w = initial_bump(ctx, opts.amp, opts.width).values
    C = constraint(w)
    mass = float(wts @ w**2)
    G = grad_seminorm_sq(RadialFunction(grid, w))
    J = G / C**q

    def trial(v: np.ndarray):
        # the mass pin, C > 0 (NaN fails) and J must fall
        v *= math.sqrt(mass / float(wts @ v**2))
        C_new = constraint(v)
        if not C_new > 0.0:
            return None
        G_new = grad_seminorm_sq(RadialFunction(grid, v))
        J_new = G_new / C_new**q
        return (v, G_new, C_new, J_new) if J_new < J else None

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
        # C^q grad J
        d_raw = gL - q * (G / C) * gC
        kkt = math.sqrt(max(float(wts @ d_raw**2), 0.0)
                        / max(float(wts @ gL**2), 1e-300))
        if kkt <= BL_KKT_TOL:
            break
        p = psolve(d_raw)
        # J's derivative along -p: a step below s_floor lowers J by less
        # than BL_J_ROUNDING J, so the search stops there
        slope = float(wts @ (d_raw * p)) / C**q
        s_floor = BL_J_ROUNDING * J / slope if slope > 0.0 else 0.0
        step, s = _line_search(w, p, s, trial, s_floor)
        if step is None:
            break
        w, G, C, J = step

    w_hat = RadialFunction(grid, w)
    t_hat = math.sqrt((N - 2.0) * G / (2.0 * N * C))
    return _finish(fiber_values(ctx, dilate(w_hat, t_hat)), w_hat, t_hat,
                   "bl-constrained", iters, opts.tolerances("bl-constrained"),
                   f"constrained route stopped after {iters} iterations at kkt {kkt:.3e}")


# ----------------------------------------------------------------------
# route C: shooting oracle
# ----------------------------------------------------------------------

# The one RK4 loop of route C, as the text of a kernel that _shot_kernel
# compiles per scalar form of f and per unit fold: {stage} is
# V_inf t - lam f(t) at the stage value t of u, with f either the form's
# expression in t over its constants (extra parameters {consts}) or the
# call f_scalar(t), and with each factor that is exactly 1.0 left out.
_SHOT_LOOP = """
def kernel(a, v_inf, f_scalar, N, lam, h, r_end, record, start{consts}):
    n_steps = int(round(r_end / h))
    u, v, r, k_start = (a, 0.0, 0.0, 0) if start is None else start
    thresh = BLOWUP_FACTOR * a
    isfinite = math.isfinite
    append = None if record is None else record.append
    # acceleration a(r, u, v) = V_inf u - lam f(u) - (N-1)/r v, inlined into
    # the four stages; at r = 0 the symmetric limit gives (V_inf u - lam f(u))/N.
    # Only the first stage of the first step sits at r = 0.  (N-1)/r at
    # stage 4 is (N-1)/r at the next step's stage 1, and stages 2 and 3
    # share (N-1)/(r + h/2).
    hh = 0.5 * h
    h6 = h / 6.0
    n1 = N - 1.0
    n1_r = n1 / r if r != 0.0 else 0.0

    for k in range(k_start, n_steps):
        k1u = v
        t = u
        fu = {stage}
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
            k1v = fu - n1_r * v
        n1_rh = n1 / (r + hh)
        k2u = v + hh * k1v
        t = u + hh * k1u
        fu = {stage}
        k2v = fu - n1_rh * k2u
        k3u = v + hh * k2v
        t = u + hh * k2u
        fu = {stage}
        k3v = fu - n1_rh * k3u
        r2 = r + h
        n1_r = n1 / r2
        k4u = v + h * k3v
        t = u + h * k3u
        fu = {stage}
        k4v = fu - n1_r * k4u
        u = u + h6 * (k1u + 2.0 * k2u + 2.0 * k3u + k4u)
        v = v + h6 * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
        r = r2
        if not (isfinite(u) and isfinite(v)):
            raise StiffIntegrationError(
                f"shooting integration produced non-finite values at r={{r:.3g}}")
        if append is not None:
            append(u)
        if u <= 0.0:          # crossed through zero
            return "cross", r, u, v
        if v > 0.0 or u > thresh:
            return "turn", r, u, v
    return "decay", r, u, v
"""

# the form of an f_scalar that carries none: the loop calls it
_CALL_FORM = ("f_scalar(t)", {})


def _unit_folds(expr: str, consts: dict, v_inf: float, lam: float) -> tuple:
    """The names among v_inf, lam and the leading constant of expr (the
    first factor of its left-to-right product, as coeff leads
    ``coeff * (t * t) * t``) whose value is the float 1.0.  Their factors
    can be left out of the stage: 1.0 * y is y for every float y, +-0,
    +-inf and NaN included."""
    lead, times, _ = expr.partition(" * ")
    factors = (("v_inf", v_inf), ("lam", lam), (lead, consts.get(lead) if times else None))
    return tuple(name for name, x in factors if type(x) is float and x == 1.0)


@functools.lru_cache(maxsize=None)
def _shot_kernel(expr: str, names: tuple, folds: tuple) -> typing.Callable:
    """The RK4 loop with f written as expr, an expression in t over the
    constants named in names, and without the unit factors named in
    folds (``_unit_folds``), compiled at its first use and kept for the
    process; the constants' values are arguments of each call."""
    lead, _, rest = expr.partition(" * ")
    f = rest if lead in folds else expr
    stage = (("t" if "v_inf" in folds else "v_inf * t")
             + (f" - ({f})" if "lam" in folds else f" - lam * ({f})"))
    src = _SHOT_LOOP.format(stage=stage, consts="".join(f", {name}" for name in names))
    scope = {}
    exec(compile(src, f"<route C kernel: {stage}>", "exec"), globals(), scope)
    return scope["kernel"]


def _integrate_shot(a: float, v_inf: float, f_scalar, N: int, lam: float,
                    h: float, r_end: float,
                    record: Optional[list] = None, start: Optional[tuple] = None):
    """RK4 on u'' = V_inf u - lam f(u) - (N-1)/r u' from u(0) = a >= 0 to
    r_end.

    Returns (classification, r, u, v) at the stop, with classification in
    {"cross", "turn", "decay"}.  "cross": the profile passed through
    zero (amplitude too large).  "turn": it started moving away from
    zero again while still positive, or exceeded BLOWUP_FACTOR * a
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

    The loop is _SHOT_LOOP.  When f_scalar carries a ``scalar_form``
    (expr, consts), its kernel writes expr into the four stages, so a
    step makes no Python call of f; otherwise its kernel calls
    f_scalar.  A factor V_inf or lam equal to the float 1.0, and such a
    leading constant of expr, is left out of the stages (``_unit_folds``),
    so the README problem's stages compute t - ((t * t) * t).  Every
    kernel gives the same floats, step for step, events and errors
    included.
    """
    expr, consts = getattr(f_scalar, "scalar_form", _CALL_FORM)
    kernel = _shot_kernel(expr, tuple(consts), _unit_folds(expr, consts, v_inf, lam))
    return kernel(a, v_inf, f_scalar, N, lam, h, r_end, record, start, **consts)


class _Separatrix(Exception):
    """Raised by route C's ``classify`` at a shot that decays: amplitude
    ``a`` is taken as the separatrix, and ``record`` is the list its
    shot recorded into, or None.  ``shoot_oracle`` catches it."""

    def __init__(self, a: float, record: Optional[list]):
        super().__init__(a)
        self.a, self.record = a, record


def _bisect_classes(classify, lo: float, hi: float, lo_class: str,
                    tol: float) -> float:
    """Halve [lo, hi] by classification to width <= tol and return its
    midpoint."""
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if classify(mid) == lo_class:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _probe_offset(a: float, tol: float) -> float:
    """Offset d of the classification probes a -/+ d next to an amplitude
    a: a -/+ d round to floats at most tol apart, so a first pair that
    straddles the separatrix needs no further halving."""
    return max(0.5 * tol - math.ulp(a), 0.25 * tol)


def _scanned_bracket(classify) -> tuple:
    """Scan over u(0) = 1, 2, 1/2, 4, 1/4, ... for one amplitude of each
    class: (lo, hi, class of lo) between the largest turn and the smallest
    cross seen."""
    a_lo = a_hi = None   # lo: turn side, hi: cross side
    for k in range(61):
        step = (k + 1) // 2
        cand = (2.0**step if k % 2 == 1 else 2.0**-step) if k else 1.0
        c = classify(cand)
        if c == "turn" and (a_lo is None or cand > a_lo):
            a_lo = cand
        if c == "cross" and (a_hi is None or cand < a_hi):
            a_hi = cand
        if a_lo is not None and a_hi is not None:
            break
    if a_lo is None or a_hi is None:
        # every shot of the scan is of the last one's class
        raise BracketNotFoundError(
            "no amplitude bracket separating undershoot from overshoot; "
            f"behaviors seen: {[c]}")
    return (a_lo, a_hi, "turn") if a_lo < a_hi else (a_hi, a_lo, "cross")


def _gated_bracket(classify, growth, tol: float) -> tuple:
    """The scan, the functional stage and the gate of route C's search:
    (lo, hi, lo_class, ends).

    ``_scanned_bracket`` finds a bracket [lo, hi] between the classes.
    The functional stage brackets a sign change of the continuous
    ``growth`` on it by false position, to ``ends`` no wider than tol.
    The gate classifies those ends, lower end first, and takes the class
    of a scan end from the scan.  When the lower end is of ``lo_class``
    and the upper end is not, they straddle the separatrix and are
    returned as [lo, hi].  Otherwise both lie on one side, and [lo, hi]
    is the scan bracket narrowed to that side: classes are monotone in
    the amplitude, so after a lower end not of ``lo_class`` the upper
    end is not shot.  ``ends`` is None when ``growth`` has no sign
    change on the scan bracket.
    """
    lo, hi, lo_class = _scanned_bracket(classify)
    g_lo, g_hi = growth(lo), growth(hi)
    if not (g_lo < 0.0 < g_hi or g_hi < 0.0 < g_lo):
        return lo, hi, lo_class, None
    ends = false_position(growth, lo, hi, g_lo, g_hi, tol)
    # the scan classified its bracket's ends already
    known = {lo: lo_class, hi: "cross" if lo_class == "turn" else "turn"}
    for x in ends:
        if (known[x] if x in known else classify(x)) != lo_class:
            hi = x
            break
        lo = x
    return lo, hi, lo_class, ends


def _searched_amplitude(classify, growth, tol: float) -> float:
    """Separatrix amplitude from no prior knowledge.

    After ``_gated_bracket``, ends that straddle the separatrix are the
    certificate and their midpoint a_g the result.  Ends on one side
    leave [lo, hi] on that side, and probes a_g +/- tol/2,
    a_g +/- SHOOT_WIDEN tol/2, ... on the far side narrow it until one
    lands across.  The result is the midpoint of that bracket halved by
    classification to width <= tol, so the functional only decides how
    many shots the certificate costs.  Without a sign change of
    ``growth`` the scan bracket is halved by classification.
    """
    lo, hi, lo_class, ends = _gated_bracket(classify, growth, tol)
    if ends is None:
        return _bisect_classes(classify, lo, hi, lo_class, tol)
    a_g = 0.5 * (ends[0] + ends[1])
    if (lo, hi) == ends:
        return a_g
    # both ends on one side: probe outward from a_g on the far side
    side = 1.0 if lo == ends[1] else -1.0
    d = _probe_offset(a_g, tol)
    x = a_g + side * d
    while lo < x < hi:
        c = classify(x)
        if c == lo_class:
            lo = x
        else:
            hi = x
        if (c == lo_class) != (side > 0):
            break       # across from the ends: [lo, hi] straddles
        d *= SHOOT_WIDEN
        x = a_g + side * d
    return _bisect_classes(classify, lo, hi, lo_class, tol)


def _coarse_prediction(classify, growth, fine_growth, tol: float) -> Optional[float]:
    """Separatrix amplitude at the fine step predicted from
    ``_gated_bracket`` at a coarse one, or None.

    ``classify`` and ``growth`` shoot at the coarse step.  Only when the
    gate's ends straddle the coarse separatrix is ``fine_growth`` read,
    once, at their midpoint a_c; one Newton step with the coarse
    growth's secant slope s_c across them then predicts
    a_c - fine_growth(a_c) / s_c.  Any other outcome of the gate, and a
    prediction that is not finite and positive, give None.
    """
    lo, hi, _, ends = _gated_bracket(classify, growth, tol)
    if (lo, hi) != ends:
        return None
    a_c = 0.5 * (lo + hi)
    slope = (growth(hi) - growth(lo)) / (hi - lo)
    a_pred = a_c - fine_growth(a_c) / slope
    return a_pred if math.isfinite(a_pred) and a_pred > 0.0 else None


def _confirmed_amplitude(classify, predicted: float,
                         tol: float) -> Optional[tuple]:
    """(separatrix amplitude next to a predicted one, its recorded shot),
    or None.

    Classifies the midpoint of predicted -/+ d (d as the probes of
    ``_searched_amplitude`` use), recording its shot, and then the probe
    on the far side of the midpoint's class: predicted + d after a turn,
    predicted - d after a cross.  A turn and a cross bracket the
    separatrix no wider than tol/2, and the midpoint is the result.  Two
    shots of one class confirm nothing: None, and the caller searches as
    if no prediction had been made.
    """
    d = _probe_offset(predicted, tol)
    lo, hi = predicted - d, predicted + d
    mid = 0.5 * (lo + hi)
    record = [mid]
    c_mid = classify(mid, record)
    c_far = classify(hi if c_mid == "turn" else lo)
    return (mid, record) if c_mid != c_far else None


def _shot_closures(v_inf: float, f_scalar, N: int, lam: float, h: float,
                   r_end: float) -> tuple:
    """(classify, growth, shot) of route C's shots at RK4 step h to r_end.

    ``shot(a, r_stop, record=None, start=None)`` is ``_integrate_shot``
    at this step.  A shot of ``classify`` or ``growth`` first runs to
    SHOOT_R (r_end if that is smaller), or to its event, and its state
    there is saved in a map of this triple alone: ``growth`` reads it,
    and ``classify`` resumes it, so the two never integrate the same
    stretch twice.  ``classify(a, record)`` appends to ``record`` the u
    after every step of an amplitude not shot before, and returns "turn"
    or "cross"; at a shot that decays it raises ``_Separatrix(a,
    record)``, so no stage of the search tests for a third class.
    """
    kappa, m = math.sqrt(v_inf), 0.5 * (N - 1)
    r_R = min(SHOOT_R, r_end)
    k_R = int(round(r_R / h))
    at_R = {}     # amplitude -> (kind, r, u, u') at its event or at r_R

    def shot(a, r_stop, record=None, start=None):
        return _integrate_shot(a, v_inf, f_scalar, N, lam, h, r_stop, record, start)

    def state_at_R(a, record=None):
        if a not in at_R:
            at_R[a] = shot(a, r_R, record)
        return at_R[a]

    def classify(a, record=None):
        kind, r, u_end, v_end = state_at_R(a, record)
        if kind == "decay":
            kind, r, u_end, v_end = shot(a, r_end, record, (u_end, v_end, r, k_R))
        if kind != "decay":
            return kind
        if u_end > 0.5 * a:
            # the trajectory never left the neighborhood of a rest point
            # of the autonomous flow: the amplitude is too small
            return "turn"
        raise _Separatrix(a, record)

    def growth(a):
        # w = r^m u and w' = r^m (u' + m u / r)
        _, r, u, v = state_at_R(a)
        return 0.5 * r**m * math.exp(-kappa * r) * (u + (v + m * u / r) / kappa)

    return classify, growth, shot


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
    state.  The stages of the search, each written once:

    - the scan over u(0) = 1, 2, 1/2, 4, ... (``_scanned_bracket``);
    - the functional stage: false position on the growing-mode
      coefficient 1/2 (w + w'/kappa) e^{-kappa r} of w = r^{(N-1)/2} u,
      kappa = sqrt(V_inf), read at r = SHOOT_R or at the shot's event,
      which changes sign smoothly at the ground state;
    - the gate: the classes of that bracket's ends (``_gated_bracket``);
    - probes and bisection by classification to opts.shoot_tol
      (``_searched_amplitude``);
    - the Newton prediction from the gate at the coarse step, the grid
      step or SHOOT_COARSE_RATIO ODE steps, whichever is coarser
      (``_coarse_prediction``), run first when the ODE step is finer
      than the grid step (k_sub > 1);
    - the confirmation of a predicted amplitude, given as ``predicted``
      (positive and finite, else DomainError) or from the coarse step
      (``_confirmed_amplitude``); an unconfirmed one leaves the search
      to the ODE step alone.

    The reported u(0) is the midpoint of an undershoot/overshoot bracket
    no wider than opts.shoot_tol at the ODE step, unless a
    classification shot decays, neither turning nor crossing by r_max
    after leaving the neighbourhood of u(0).  Such a shot ends the
    search at whatever stage fires it (``classify`` raises
    ``_Separatrix``): at the ODE step its amplitude is taken as the
    separatrix, and the residual certificates alone decide; at the
    coarse step it leaves the search to the ODE step.  The recorded
    profile is the confirmation's midpoint shot when that is the result,
    else one more shot of the reported amplitude.
    """
    # each test is written so that NaN fails it
    if not 0.0 < v_inf < math.inf:
        raise DomainError(f"shooting requires 0 < V_inf < inf, got {v_inf}")
    if not 0.0 <= lam <= 1.0:
        raise DomainError(f"lambda must lie in [0, 1], got {lam}")
    if predicted is not None and not 0.0 < predicted < math.inf:
        raise DomainError(f"predicted amplitude must be positive and finite, "
                          f"got {predicted}")
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
    r_end, tol = grid.r_max, opts.shoot_tol
    classify, growth, shot = _shot_closures(v_inf, f.f_scalar, N, lam, h, r_end)
    if predicted is None and k_sub > 1:
        # a coarse shot records nothing, so its step need not divide the
        # grid spacing
        h_coarse = max(grid.h, SHOOT_COARSE_RATIO * h)
        coarse = _shot_closures(v_inf, f.f_scalar, N, lam, h_coarse, r_end)[:2]
        try:
            predicted = _coarse_prediction(*coarse, growth, tol)
        except (BracketNotFoundError, StiffIntegrationError, _Separatrix):
            pass        # the search at the ODE step decides
    try:
        found = None
        if predicted is not None:
            found = _confirmed_amplitude(classify, predicted, tol)
        a_star, us = found or (_searched_amplitude(classify, growth, tol), None)
    except _Separatrix as sep:
        a_star, us = sep.a, sep.record
    if us is None:
        us = [a_star]
        shot(a_star, r_end, us)
    full = np.zeros((grid.n - 1) * k_sub + 1)
    full[: len(us)] = us
    # the trajectory leaves the separatrix at the first upturn/sign flip;
    # everything from there is growing-mode contamination
    dus = np.diff(full)
    bad = np.nonzero((full[1:] <= 0.0) | (dus > 0.0))[0]
    i_event = int(bad[0]) + 1 if bad.size else full.size - 1
    # back off to where the contamination is ~1e-4 relative, then replace
    # the tail by the measured local exponential decay: a hard zero cut
    # would leave a kink that the residual certificate amplifies by 1/h^2
    u_event = max(full[max(i_event - 1, 0)], a_star * 1e-14)
    floor = 100.0 * u_event
    clean = np.nonzero(full[:i_event] >= floor)[0]
    c = int(clean[-1]) if clean.size else max(i_event - 1, 1)
    w = min(c - 1, max(int(round(0.5 / h)), 2))
    if w >= 2 and full[c - w] > full[c] > 0.0:
        rate = math.log(full[c - w] / full[c]) / (w * h)
    else:
        rate = math.sqrt(v_inf)
    ext = np.arange(1, full.size - c)
    full[c + 1 :] = full[c] * np.exp(-rate * h * ext)
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
