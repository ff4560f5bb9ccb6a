"""One-shot verification suites: every structural inequality as a scan.

The suite draws a seeded family of random radial bumps and checks, with
recorded tolerances and worst margins: positivity of the dilation
polynomial, the weighted Hardy inequality, the energy/dilation
comparison inequality, the admissible-set inclusion, and the sampled
norm-equivalence constants.  Given a solution it additionally checks the
dilation identity, the fiber-maximum property, the sampled minimax
bound, and domination by the constant-potential level.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import NlsgroundError, PreconditionError, ZeroFunctionError
from .functionals import FunctionalContext, fiber_values, g_of_t, hardy_gap
from .grid import RadialFunction, h1_norm_sq
# project_to_M stays bound here although the suite projects through
# project_fiber: perfbench's self-test requires the binding in this module
from .manifold import fiber_membership, project_fiber, project_to_M  # noqa: F401
from .model import run_condition_suite
from .solver import SolveReport, solve_fiber_descent, SolveOptions

__all__ = ["CheckResult", "VerificationReport", "sample_bumps", "run_suite"]

IIP_TOL_COEFF = 1e-6       # acceptance: gap >= -coeff * (1 + ||u||^2)
HARDY_TOL = 1e-8
G_POSITIVITY_EXCLUSION = 1e-3
DILATIONS = (0.25, 0.5, 0.75, 0.9, 1.1, 1.5, 2.0, 4.0)


@dataclass
class CheckResult:
    name: str
    anchor: str              # stable identifier of the law being checked
    passed: bool
    worst_margin: float
    samples: int
    tolerance: float
    witness: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        # the fields in order, with "passed" written as "pass"
        return {("pass" if k == "passed" else k): v for k, v in asdict(self).items()}


@dataclass
class VerificationReport:
    checks: list
    overall_pass: bool
    seed: int
    grid: dict
    constants: dict          # measured gamma_1, gamma_2, manifold floor, ...

    def to_dict(self) -> dict:
        return {
            "checks": [c.to_dict() for c in self.checks],
            "overall_pass": self.overall_pass,
            "seed": self.seed,
            "grid": self.grid,
            "constants": self.constants,
        }


def sample_bumps(grid, rng, count: int, amp_range=(1e-2, 1e1),
                 width_range=(0.5, 5.0), center_max: float = 5.0,
                 parts_max: int = 3) -> list:
    """Sums of 1-3 radial Gaussian bumps with log-uniform amplitudes."""
    out = []
    r = grid.r
    for _ in range(count):
        parts = rng.integers(1, parts_max + 1)
        vals = np.zeros(grid.n)
        for _ in range(parts):
            amp = 10.0 ** rng.uniform(np.log10(amp_range[0]), np.log10(amp_range[1]))
            width = rng.uniform(*width_range)
            center = rng.uniform(0.0, center_max)
            vals += amp * np.exp(-(((r - center) / width) ** 2))
        vals[-1] = 0.0
        out.append(RadialFunction(grid, vals))
    return out


def _g_positivity_check() -> CheckResult:
    ts = np.geomspace(0.01, 10.0, 2048)
    ts = ts[np.abs(ts - 1.0) > G_POSITIVITY_EXCLUSION]
    worst = np.inf
    witness = {}
    for N in (3, 4, 5):
        vals = g_of_t(ts, N)
        i = int(np.argmin(vals))
        if vals[i] < worst:
            worst = float(vals[i])
            witness = {"t": float(ts[i]), "N": N}
    return CheckResult("g-positivity", "dilation-polynomial", worst > 0.0,
                       worst, 3 * ts.size, 0.0, witness)


def _hardy_check(bumps) -> CheckResult:
    worst = np.inf
    witness = {}
    for k, u in enumerate(bumps):
        gap = hardy_gap(u)
        if gap < worst:
            worst = gap
            witness = {"sample": k}
    return CheckResult("hardy", "weighted-hardy-inequality", worst >= -HARDY_TOL,
                       worst, len(bumps), HARDY_TOL, witness)


def _iip_check(ctx, bumps) -> CheckResult:
    worst = np.inf
    witness = {}
    for k, u in enumerate(bumps):
        scale = 1.0 + h1_norm_sq(u)
        fv = fiber_values(ctx, u)
        for t in DILATIONS:
            gap = fv.iip_gap(t) / scale
            if gap < worst:
                worst = gap
                witness = {"sample": k, "t": t}
    tol = IIP_TOL_COEFF
    return CheckResult("iip", "energy-dilation-comparison", worst >= -tol,
                       float(worst), len(bumps) * len(DILATIONS), tol, witness)


def _inclusion_check(fibers) -> CheckResult:
    """Nonzero u with P(u) <= 0 or P_inf(u) <= 0 must be admissible."""
    worst = np.inf
    witness = {}
    checked = 0
    for k, fv in enumerate(fibers):
        if min(fv.pohozaev(), fv.pohozaev_limit()) > 0.0:
            continue
        checked += 1
        _, q = fiber_membership(fv)
        margin = -q / (1.0 + h1_norm_sq(fv.u))
        if margin < worst:
            worst = margin
            witness = {"sample": k, "q": q}
    tol = 1e-8
    if checked == 0:
        return CheckResult("inclusion", "admissible-set-inclusion", True,
                           np.inf, 0, tol, {"note": "no sample had P <= 0"})
    return CheckResult("inclusion", "admissible-set-inclusion", worst >= -tol,
                       float(worst), checked, tol, witness)


def _norm_equivalence_check(ctx, fibers) -> CheckResult:
    """Sampled constants of the quadratic-form sandwich around ||u||^2."""
    N = ctx.grid.N
    theta = ctx.theta
    lo_bound = min((1.0 - theta) * (N - 2.0), N * ctx.V.v_inf)
    hi_bound = N - 2.0 + 2.0 * theta + N * ctx.V.v_inf
    g1 = np.inf
    g2 = -np.inf
    for fv in fibers:
        quad = (N - 2.0) * fv.grad + N * fv.pot + fv.pot_w
        ratio = quad / h1_norm_sq(fv.u)
        g1 = min(g1, ratio)
        g2 = max(g2, ratio)
    tol = 1e-6 * (1.0 + hi_bound)
    ok = (g1 >= lo_bound - tol) and (g2 <= hi_bound + tol)
    worst = min(g1 - lo_bound, hi_bound - g2)
    return CheckResult(
        "norm-equivalence", "quadratic-form-sandwich", bool(ok), float(worst),
        len(fibers), tol,
        {"gamma1_hat": float(g1), "gamma2_hat": float(g2),
         "gamma1_bound": float(lo_bound), "gamma2_bound": float(hi_bound)})


def _solution_checks(ctx, solution: SolveReport, fibers, opts) -> tuple:
    checks = []
    constants = {}
    u = solution.u_star
    scale = h1_norm_sq(u)
    fv = fiber_values(ctx, u)
    poho_rel = abs(fv.pohozaev()) / scale
    checks.append(CheckResult(
        "solution-dilation-identity", "stationarity-identity",
        poho_rel <= solution.poho_tol, float(solution.poho_tol - poho_rel),
        1, solution.poho_tol, {"poho_rel": float(poho_rel)}))

    # fiber maximum: the solution dominates its own dilations, evaluated
    # by change of variables like every other fiber quantity
    tol = 1e-3 * (1.0 + scale)
    tgrid = np.geomspace(0.25, 4.0, 64)
    m_hat = fv.energy()
    worst = float(np.min(m_hat - fv.energy_at(tgrid)))
    checks.append(CheckResult(
        "fiber-maximum", "fiber-maximum-property", worst >= -tol,
        float(worst), tgrid.size, tol, {}))

    # sampled minimax: max_t I(u_t) over admissible samples stays above m
    tol_mm = 1e-6 * (1.0 + abs(m_hat))
    worst_mm = np.inf
    witness = {}
    floor = np.inf
    level_floor = np.inf
    n_adm = 0
    for k, fv_b in enumerate(fibers):
        member, _ = fiber_membership(fv_b)
        if not member:
            continue
        n_adm += 1
        proj = project_fiber(fv_b)
        zmax = float(proj.fiber.energy_at(proj.t_u)[0])
        gap = zmax - m_hat
        if gap < worst_mm:
            worst_mm = gap
            witness = {"sample": k, "max_level": zmax}
        floor = min(floor, np.sqrt(h1_norm_sq(proj.projected)))
        level_floor = min(level_floor, zmax)
    constants["manifold_floor"] = float(floor) if n_adm else None
    constants["min_projected_level"] = float(level_floor) if n_adm else None
    checks.append(CheckResult(
        "minimax", "level-minimax-characterization",
        worst_mm >= -tol_mm, float(worst_mm), n_adm, tol_mm, witness))
    checks.append(CheckResult(
        "positive-level", "positive-ground-level",
        (m_hat > 0.0) and (n_adm == 0 or level_floor > 0.0),
        float(min(m_hat, level_floor)), n_adm + 1, 0.0, {}))

    # domination by the constant-potential level
    try:
        rep_inf = solve_fiber_descent(ctx.limit_context(), opts)
        tol_dom = 1e-6
        gap = rep_inf.energy - m_hat
        constants["m_hat"] = float(m_hat)
        constants["m_hat_inf"] = float(rep_inf.energy)
        checks.append(CheckResult(
            "domination", "level-domination", gap >= -tol_dom, float(gap),
            1, tol_dom, {}))
    except NlsgroundError as exc:
        checks.append(CheckResult(
            "domination", "level-domination", False, -np.inf, 0, 1e-6,
            {"error": repr(exc)}))
    return checks, constants


def run_suite(ctx: FunctionalContext, solution: SolveReport = None,
              seed: int = 0, n_samples: int = 100,
              opts: SolveOptions = SolveOptions()) -> VerificationReport:
    """Run every structural scan (plus solution checks when given).

    Raises ZeroFunctionError if the solution's profile is zero, and
    PreconditionError if its grid is not the context's or if the
    context's potential or nonlinearity fails its hypothesis checks; the
    scans assume them.  The gate tests the potential's intrinsic
    admissibility (smallest workable decay parameter), so a deliberately
    misdeclared theta on an admissible potential reaches the scans and
    fails there with a witness.
    """
    if solution is not None:
        if not solution.u_star.grid.same_mesh(ctx.grid):
            raise PreconditionError("solution grid does not match context grid")
        # the solution checks measure against ||u||_{H1}^2
        if h1_norm_sq(solution.u_star) == 0.0:
            raise ZeroFunctionError("the solution profile is the zero function")
    cond = run_condition_suite(ctx.V, ctx.f, ctx.grid.N, ctx.grid.r_max,
                               prefer_declared_theta=False)
    if not cond["pass"]:
        failing = [k for k, r in cond["reports"].items() if not r.passed]
        raise PreconditionError(
            f"hypothesis checks failed for this context: {failing}")

    rng = np.random.default_rng(seed)
    bumps = sample_bumps(ctx.grid, rng, n_samples)
    # dilations up to 4x must stay inside the domain: narrower family
    iip_bumps = sample_bumps(ctx.grid, rng, n_samples,
                             width_range=(0.5, 2.0), center_max=1.5)

    # one quadrature pass per bump, shared by every check that reads it
    fibers = [fiber_values(ctx, u) for u in bumps]

    checks = [
        _g_positivity_check(),
        _hardy_check(bumps),
        _iip_check(ctx, iip_bumps),
        _inclusion_check(fibers),
        _norm_equivalence_check(ctx, fibers),
    ]
    constants = {
        "theta": float(ctx.theta),
        "theta_min_v4": float(cond["theta_min"]),
    }
    nec = checks[-1]
    constants["gamma1_hat"] = nec.witness["gamma1_hat"]
    constants["gamma2_hat"] = nec.witness["gamma2_hat"]

    if solution is not None:
        sol_checks, sol_constants = _solution_checks(ctx, solution, fibers, opts)
        checks.extend(sol_checks)
        constants.update(sol_constants)

    overall = all(c.passed for c in checks)
    return VerificationReport(
        checks=checks,
        overall_pass=overall,
        seed=seed,
        grid=ctx.grid.mesh(),
        constants=constants,
    )
