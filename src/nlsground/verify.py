"""One-shot verification suites: every structural inequality as a scan.

The suite draws a seeded family of random radial bumps and checks, with
recorded tolerances and worst margins: positivity of the dilation
polynomial, the weighted Hardy inequality, the energy/dilation
comparison inequality, the admissible-set inclusion, and the sampled
norm-equivalence constants.  Given a solution it additionally checks the
dilation identity, the fiber-maximum property, the sampled minimax
bound, and domination by the constant-potential level.

Each bump family is one (n_samples, n) array, and every check is a few
array passes over it, BLOCK rows at a time (grid.BLOCK): one quadrature
pass (fiber_values on the stack), the Hardy integrals, the comparison
gaps at all DILATIONS from one table of the potential at t r, and the
admissible samples' projections, scanned together and polished in
lockstep (manifold.project_rows).  Worst margins and witnesses are the
first least entries in sample order, as a per-sample loop finds them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NlsgroundError, PreconditionError, ZeroFunctionError
from .functionals import FiberValues, FunctionalContext, fiber_values, g_of_t
# project_to_M stays bound here although the suite projects through
# project_rows: perfbench's self-test requires the binding in this module
from .manifold import fiber_membership, project_rows, project_to_M  # noqa: F401
from .model import Report, run_condition_suite
from .solver import SolveReport, solve_fiber_descent, SolveOptions

__all__ = ["CheckResult", "VerificationReport", "run_suite"]

IIP_TOL_COEFF = 1e-6       # acceptance: gap >= -coeff * (1 + ||u||^2)
HARDY_TOL = 1e-8
G_POSITIVITY_EXCLUSION = 1e-3
DILATIONS = (0.25, 0.5, 0.75, 0.9, 1.1, 1.5, 2.0, 4.0)
# a margin above 745.13, beyond which exp(-x) rounds to 0.0 in doubles
EXP_UNDERFLOW = 750.0


@dataclass
class CheckResult(Report):
    name: str
    anchor: str              # stable identifier of the law being checked
    passed: bool
    worst_margin: float
    samples: int
    tolerance: float
    witness: dict = field(default_factory=dict)


@dataclass
class VerificationReport(Report):
    checks: list
    overall_pass: bool
    seed: int
    grid: dict
    constants: dict          # measured gamma_1, gamma_2, manifold floor, ...


def _bump_rows(grid, rng, count: int, amp_range=(1e-2, 1e1),
               width_range=(0.5, 5.0), center_max: float = 5.0) -> np.ndarray:
    """Sums of 1-3 radial Gaussian bumps with log-uniform amplitudes, as
    the rows of one (count, n) array."""
    r = grid.r
    rows = np.zeros((count, grid.n))
    for vals in rows:
        parts = rng.integers(1, 4)
        for _ in range(parts):
            amp = 10.0 ** rng.uniform(np.log10(amp_range[0]), np.log10(amp_range[1]))
            width = rng.uniform(*width_range)
            center = rng.uniform(0.0, center_max)
            # exp(-x) is exactly 0 for x > EXP_UNDERFLOW, where adding the
            # term leaves vals as it is; exp is slow on that range
            reach = width * np.sqrt(EXP_UNDERFLOW)
            i, j = np.searchsorted(r, (center - reach, center + reach))
            vals[i:j] += amp * np.exp(-(((r[i:j] - center) / width) ** 2))
        vals[-1] = 0.0
    return rows


def _first_min(values: np.ndarray):
    """(index, value) of the first least entry in row-major order, as a
    scan keeping strictly smaller values finds it: NaN never wins, and
    (None, inf) when no entry is below inf."""
    vals = np.where(np.isnan(values), np.inf, values)
    i = int(np.argmin(vals)) if vals.size else 0
    if not vals.size or not vals.flat[i] < np.inf:
        return None, np.inf
    return np.unravel_index(i, vals.shape), float(vals.flat[i])


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


def _hardy_check(fv: FiberValues) -> CheckResult:
    k, worst = _first_min(fv.hardy_gap())
    witness = {} if k is None else {"sample": int(k[0])}
    return CheckResult("hardy", "weighted-hardy-inequality", worst >= -HARDY_TOL,
                       worst, fv.grad.size, HARDY_TOL, witness)


def _iip_check(fv: FiberValues) -> CheckResult:
    """The comparison gap of every sample at every DILATIONS t from one
    table of the potential at t r: gaps[j, k] is DILATIONS[j], sample k."""
    gaps = fv.iip_gap(np.array(DILATIONS)[:, None]) / (1.0 + (fv.grad + fv.mass))
    k, worst = _first_min(gaps.T)
    witness = {} if k is None else {"sample": int(k[0]), "t": DILATIONS[k[1]]}
    tol = IIP_TOL_COEFF
    return CheckResult("iip", "energy-dilation-comparison", worst >= -tol,
                       worst, gaps.size, tol, witness)


def _inclusion_check(fv: FiberValues, q: np.ndarray) -> CheckResult:
    """Nonzero u with P(u) <= 0 or P_inf(u) <= 0 must be admissible."""
    checked = ~(np.minimum(fv.pohozaev(), fv.pohozaev_limit()) > 0.0)
    tol = 1e-8
    if not checked.any():
        return CheckResult("inclusion", "admissible-set-inclusion", True,
                           np.inf, 0, tol, {"note": "no sample had P <= 0"})
    margin = np.where(checked, -q / (1.0 + (fv.grad + fv.mass)), np.nan)
    k, worst = _first_min(margin)
    witness = {} if k is None else {"sample": int(k[0]), "q": float(q[k])}
    return CheckResult("inclusion", "admissible-set-inclusion", worst >= -tol,
                       worst, int(checked.sum()), tol, witness)


def _norm_equivalence_check(fv: FiberValues) -> CheckResult:
    """Sampled constants of the quadratic-form sandwich around ||u||^2."""
    ctx = fv.ctx
    N = ctx.grid.N
    theta = ctx.theta
    lo_bound = min((1.0 - theta) * (N - 2.0), N * ctx.V.v_inf)
    hi_bound = N - 2.0 + 2.0 * theta + N * ctx.V.v_inf
    ratio = ((N - 2.0) * fv.grad + N * fv.pot + fv.pot_w) / (fv.grad + fv.mass)
    # fmin / fmax skip NaN, as min() and max() against a running bound do
    g1 = float(np.fmin.reduce(ratio, initial=np.inf))
    g2 = float(np.fmax.reduce(ratio, initial=-np.inf))
    tol = 1e-6 * (1.0 + hi_bound)
    ok = (g1 >= lo_bound - tol) and (g2 <= hi_bound + tol)
    worst = min(g1 - lo_bound, hi_bound - g2)
    return CheckResult(
        "norm-equivalence", "quadratic-form-sandwich", bool(ok), float(worst),
        ratio.size, tol,
        {"gamma1_hat": g1, "gamma2_hat": g2,
         "gamma1_bound": float(lo_bound), "gamma2_bound": float(hi_bound)})


def _fiber_maxima(adm: FiberValues) -> tuple:
    """(max_t I(u_t), ||u_{t_u}||_{H1}) of each row of the stack adm.
    The rows are projected together (project_rows); the first in order
    whose fiber has no single sign change raises its error.  The norm is
    taken by change of variables, t^{N-2} ||grad u||^2 + t^N ||u||^2, from
    the quadratures adm holds."""
    t_u = project_rows(adm)
    N = adm.ctx.grid.N
    norms = np.sqrt(t_u ** (N - 2.0) * adm.grad + t_u**N * adm.mass)
    return adm.energy_at(t_u), norms


def _sample_checks(ctx, rng, n_samples: int, project: bool) -> tuple:
    """Hardy, inclusion and norm-equivalence checks over one family of
    bumps from one quadrature pass; with project also (indices, levels,
    norms) of its admissible samples (_fiber_maxima).  The family's rows
    are dropped before the projections, which read only the admissible
    ones."""
    fv = fiber_values(ctx, _bump_rows(ctx.grid, rng, n_samples))
    member, q = fiber_membership(fv)
    checks = (_hardy_check(fv), _inclusion_check(fv, q), _norm_equivalence_check(fv))
    if not project:
        return checks, None
    adm = fv.rows(member)
    del fv
    return checks, (np.flatnonzero(member), *_fiber_maxima(adm))


def _solution_checks(ctx, solution: SolveReport, fv_sol: FiberValues,
                     maxima: tuple, opts) -> tuple:
    checks = []
    constants = {}
    scale = fv_sol.grad + fv_sol.mass
    poho_rel = fv_sol.relative_pohozaev()
    checks.append(CheckResult(
        "solution-dilation-identity", "stationarity-identity",
        poho_rel <= solution.poho_tol, float(solution.poho_tol - poho_rel),
        1, solution.poho_tol, {"poho_rel": float(poho_rel)}))

    # fiber maximum: the solution dominates its own dilations, evaluated
    # by change of variables like every other fiber quantity
    tol = 1e-3 * (1.0 + scale)
    tgrid = np.geomspace(0.25, 4.0, 64)
    m_hat = fv_sol.energy()
    worst = float(np.min(m_hat - fv_sol.energy_at(tgrid)))
    checks.append(CheckResult(
        "fiber-maximum", "fiber-maximum-property", worst >= -tol,
        float(worst), tgrid.size, tol, {}))

    # sampled minimax: max_t I(u_t) over admissible samples stays above m
    tol_mm = 1e-6 * (1.0 + abs(m_hat))
    samples, zmax, norms = maxima
    k, worst_mm = _first_min(zmax - m_hat)
    witness = ({} if k is None else
               {"sample": int(samples[k[0]]), "max_level": float(zmax[k])})
    n_adm = samples.size
    floor = float(np.fmin.reduce(norms, initial=np.inf))
    level_floor = float(np.fmin.reduce(zmax, initial=np.inf))
    constants["manifold_floor"] = floor if n_adm else None
    constants["min_projected_level"] = level_floor if n_adm else None
    checks.append(CheckResult(
        "minimax", "level-minimax-characterization",
        worst_mm >= -tol_mm, worst_mm, n_adm, tol_mm, witness))
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

    The two bump families (n_samples each, the second narrower for the
    comparison inequality) are drawn in turn and taken as blocked array
    passes; only one family's rows are held at a time.  A sample whose
    fiber has no single sign change raises NoSignChangeError or
    MultipleSignChangesError, for the first such sample in order.

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
        fv_sol = fiber_values(ctx, solution.u_star)
        # the solution checks measure against ||u||_{H1}^2
        if fv_sol.grad + fv_sol.mass == 0.0:
            raise ZeroFunctionError("the solution profile is the zero function")
    cond = run_condition_suite(ctx.V, ctx.f, ctx.grid.N, ctx.grid.r_max,
                               prefer_declared_theta=False)
    if not cond["pass"]:
        failing = [k for k, r in cond["reports"].items() if not r.passed]
        raise PreconditionError(
            f"hypothesis checks failed for this context: {failing}")

    rng = np.random.default_rng(seed)
    (hardy, inclusion, nec), maxima = _sample_checks(ctx, rng, n_samples,
                                                     solution is not None)
    # dilations up to 4x must stay inside the domain: narrower family
    iip = _iip_check(fiber_values(ctx, _bump_rows(ctx.grid, rng, n_samples,
                                                  width_range=(0.5, 2.0),
                                                  center_max=1.5)))
    checks = [_g_positivity_check(), hardy, iip, inclusion, nec]
    constants = {
        "theta": float(ctx.theta),
        "theta_min_v4": float(cond["theta_min"]),
    }
    constants["gamma1_hat"] = nec.witness["gamma1_hat"]
    constants["gamma2_hat"] = nec.witness["gamma2_hat"]

    if solution is not None:
        sol_checks, sol_constants = _solution_checks(ctx, solution, fv_sol,
                                                     maxima, opts)
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
