import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from nlsground import (
    BracketNotFoundError,
    ConstraintInfeasibleError,
    ConvergenceError,
    DomainError,
    FunctionalContext,
    PositivityBallError,
    PreconditionError,
    RadialFunction,
    SingularSystemError,
    SolveOptions,
    SolveReport,
    StiffIntegrationError,
    constant_potential,
    dilate,
    fiber_values,
    h1_norm_sq,
    lambda_membership,
    make_grid,
    pde_residual,
    perturbed_potential,
    project_to_M,
    saturating_nonlinearity,
    shoot_oracle,
    solve_fiber_descent,
    solve_limit_BL,
    sweep_lambda,
    power_nonlinearity,
    well_potential,
    zero_nonlinearity,
)
from nlsground import solver
from nlsground.cli import format_json
from conftest import CUBIC_M, CUBIC_U0, random_bumps


def test_shooting_matches_frozen_oracle(rep_shoot):
    assert rep_shoot.converged
    assert rep_shoot.u_at_zero == pytest.approx(CUBIC_U0, abs=1e-6)
    assert rep_shoot.energy == pytest.approx(CUBIC_M, rel=1e-6)
    assert rep_shoot.pohozaev_residual < 1e-3
    assert rep_shoot.pde_residual < 1e-3
    assert rep_shoot.route == "shooting"


def test_shooting_profile_shape(rep_shoot):
    u = rep_shoot.u_star.values
    assert u[0] == pytest.approx(CUBIC_U0, abs=1e-6)
    assert np.all(u >= 0.0)
    assert np.all(np.diff(u) <= 1e-12)  # monotone decreasing profile


def test_shooting_cubic_identities(rep_shoot, grid4096):
    # stationarity + dilation identity force ||grad u||^2 = 3 ||u||^2 and
    # ground level = ||u||^2 for the cubic problem
    from nlsground import grad_seminorm_sq, l2_norm_sq

    u = rep_shoot.u_star
    assert grad_seminorm_sq(u) == pytest.approx(3.0 * l2_norm_sq(u), rel=1e-4)
    assert rep_shoot.energy == pytest.approx(l2_norm_sq(u), rel=1e-4)


def test_shooting_pohozaev_limit_small(rep_shoot, ctx_auto):
    rel = (abs(fiber_values(ctx_auto, rep_shoot.u_star).pohozaev_limit())
           / h1_norm_sq(rep_shoot.u_star))
    assert rel < 1e-3


def test_shooting_linear_problem_has_no_bracket(grid4096):
    with pytest.raises(BracketNotFoundError):
        shoot_oracle(1.0, zero_nonlinearity(), 3, grid=grid4096)


def test_shooting_rejects_a_dimension_off_the_grid(f_cubic, shot_counter):
    with pytest.raises(DomainError, match="N = 4"):
        shoot_oracle(1.0, f_cubic, 4, grid=make_grid(3, 30.0, 1024))
    assert shot_counter.calls == []


def test_shooting_lambda_scaling(grid4096, f_cubic, rep_shoot):
    # u_lam = u_1/sqrt(lam) maps the weighted cubic problem to lam = 1,
    # so lam * m_lam is constant
    rep = shoot_oracle(1.0, f_cubic, 3, lam=0.8, grid=grid4096)
    assert 0.8 * rep.energy == pytest.approx(rep_shoot.energy, rel=1e-8)
    assert rep.u_at_zero == pytest.approx(rep_shoot.u_at_zero / math.sqrt(0.8),
                                          rel=1e-8)


def test_shot_step_nan_is_stiff_error():
    # for 1 < p < 2, f(0) = |0|^{p-2} * 0 is nan; the step must end in the
    # documented StiffIntegrationError, not in a float ** exception
    f = power_nonlinearity(1.5)
    with np.errstate(divide="ignore", invalid="ignore"):
        with pytest.raises(StiffIntegrationError):
            solver._integrate_shot(0.0, 1.0, f.f_scalar, 3, 1.0, 1e-3, 1.0, 10.0)


def test_bl_route(rep_bl, rep_shoot):
    assert rep_bl.converged
    assert rep_bl.route == "bl-constrained"
    assert rep_bl.pohozaev_residual < 1e-3
    assert abs(rep_bl.energy - rep_shoot.energy) / rep_shoot.energy < 1e-2


def test_bl_requires_constant_potential(grid4096, f_cubic):
    ctx = FunctionalContext(grid4096, well_potential(1.0, 0.2, 2.0), f_cubic)
    with pytest.raises(PreconditionError):
        solve_limit_BL(ctx)


def test_bl_infeasible_constraint(grid4096):
    ctx = FunctionalContext(grid4096, constant_potential(1.0),
                            saturating_nonlinearity(0.5))
    with pytest.raises(ConstraintInfeasibleError):
        solve_limit_BL(ctx)


# ----------------------------------------------------------------------
# the metric M = I + beta (-Laplacian_h) of routes A and B, solved by
# cyclic reduction
# ----------------------------------------------------------------------

def _zero(t):
    return np.zeros_like(t)


def _metric_times(grid, x):
    """M x: the Laplacian of pde_residual on the interior, an identity last
    row, and row n-2 coupled to the Dirichlet value x[-1] by the same
    centred stencil."""
    beta, h, N, r = solver.PRECOND_BETA, grid.h, grid.N, grid.r
    inner = x.copy()
    inner[-1] = 0.0
    y = x + beta * pde_residual(RadialFunction(grid, inner), _zero, _zero, 0.0).values
    y[-2] += beta * (-1.0 / h**2 - (N - 1.0) / (2.0 * h * r[-2])) * x[-1]
    return y


def _assert_backward_stable(grid, x, rhs):
    """Normwise backward error of a preconditioner solve at most 1e-14
    (~45 ulp); ||M||_inf is the origin row's sum 1 + 4 N beta / h^2, the
    largest."""
    x = x.copy()
    x[-1] = rhs[-1]      # the solve returns 0 there; the system has rhs[-1]
    norm_m = 1.0 + 4.0 * grid.N * solver.PRECOND_BETA / grid.h**2
    res = np.abs(_metric_times(grid, x) - rhs).max()
    assert res <= 1e-14 * (norm_m * np.abs(x).max() + np.abs(rhs).max())


_RHS = st.floats(-1e3, 1e3, allow_subnormal=False)


@settings(max_examples=60, deadline=None)
@given(N=st.sampled_from([3, 4, 5, 6, 8]), n=st.sampled_from([16, 17, 100, 1000, 1024]),
       r_max=st.floats(5.0, 60.0), data=st.data())
def test_preconditioner_matches_dense_solve(N, n, r_max, data):
    # N >= 4 makes the rows next to the origin not diagonally dominant,
    # and cyclic reduction does not pivot
    grid = make_grid(N, r_max, n)
    rhs = data.draw(arrays(np.float64, n, elements=_RHS))
    x = solver._h1_preconditioner(grid)(rhs)
    dense = np.column_stack([_metric_times(grid, e) for e in np.eye(n)])
    ref = np.linalg.solve(dense, rhs)
    # the interior takes rhs[-1] through its coupling; the direction is 0
    # on the Dirichlet node.  Two backward-stable solves differ by a few
    # eps * cond(M) (measured at most 1.9 of it)
    assert x[-1] == 0.0
    bound = 16.0 * np.finfo(float).eps * np.linalg.cond(dense, np.inf)
    assert np.abs(x[:-1] - ref[:-1]).max() <= bound * np.abs(ref).max()
    _assert_backward_stable(grid, x, rhs)


@settings(max_examples=10, deadline=None)
@given(N=st.sampled_from([3, 4, 5, 6, 8]),
       rhs=arrays(np.float64, 8192, elements=_RHS))
def test_preconditioner_backward_stable_at_8192(N, rhs):
    # measured ~5e-17.  The plain ||M x - rhs|| / ||rhs|| reads up to ~7e-12
    # here on smooth rhs for any double-precision solve, LAPACK's banded LU
    # included, because evaluating M x rounds at eps ||M|| ||x|| with
    # ||M||_inf ~ 9e5.
    grid = make_grid(N, 30.0, 8192)
    x = solver._h1_preconditioner(grid)(rhs)
    assert x[-1] == 0.0
    _assert_backward_stable(grid, x, rhs)


@pytest.mark.parametrize("sub, diag, sup", [
    ([0.0, 1.0, 1.0], [0.0, 1.0, 1.0], [1.0, 1.0, 0.0]),      # zero pivot
    ([0.0, 1.0, 0.0], [1.0, 1.0, 1.0], [1.0, 0.0, 0.0]),      # singular: 0 at the root
    ([0.0, 1.0, 1.0], [1.0, np.nan, 1.0], [1.0, 1.0, 0.0]),
    ([0.0, 0.0, 0.0], [1.0, np.inf, 1.0], [0.0, 0.0, 0.0]),
    ([0.0, 0.0, 0.0], [5e-324, 1.0, 1.0], [0.0, 0.0, 0.0]),   # 1/pivot overflows
    ([0.0, 1e300, 1.0], [1e-300, 1.0, 1.0], [1.0, 1.0, 0.0]),  # alpha overflows
    ([0.0, 0.0, 1e300], [1.0, 1.0, 1e-300], [0.0, 0.0, 0.0]),  # only a/b overflows
], ids=["zero", "singular", "nan", "inf", "subnormal", "alpha", "back-substitution"])
def test_cyclic_reduction_rejects_bad_pivots(sub, diag, sup):
    with pytest.raises(SingularSystemError):
        solver._cyclic_reduction(np.array(sub), np.array(diag), np.array(sup))


# ----------------------------------------------------------------------
# route B's amplitude restore against the full scan plus bisection
# ----------------------------------------------------------------------

_RESTORE_GRID = make_grid(3, 30.0, 1024)


def _counting_context(f, grid=_RESTORE_GRID):
    """Constant-potential context whose F counts its full-array passes."""
    passes = [0]

    def F(t):
        passes[0] += 1
        return f.F(t)

    ctx = FunctionalContext(grid, constant_potential(1.0),
                            dataclasses.replace(f, F=F))
    return ctx, passes


def _restore_reference(ctx, w, target=1.0):
    """(j, a): all 81 scan values, the first index with C >= target, and
    80 geometric bisection steps of its bracket; (None, None) when no
    scan point reaches the target."""
    wt = ctx.grid.weights

    def c_of(a):
        av = a * w
        return float(ctx.lam * (wt @ np.asarray(ctx.f.F(av), dtype=float))
                     - 0.5 * ctx.V.v_inf * (wt @ av**2))

    scan = np.geomspace(1e-4, 1e4, 81)
    above = np.nonzero(np.array([c_of(a) for a in scan]) >= target)[0]
    if above.size == 0:
        return None, None
    j = int(above[0])
    if j == 0:
        return 0, float(scan[0])
    lo, hi = scan[j - 1], scan[j]
    for _ in range(80):
        mid = math.sqrt(lo * hi)
        if c_of(mid) >= target:
            hi = mid
        else:
            lo = mid
    return j, float(math.sqrt(lo * hi))


def _cold_restore(ctx, w, target=1.0):
    """The walk on C from the low end of the scan and its false-position
    polish, written out apart from solver._restore_walk: every restore
    that walks C must return its amplitude bit for bit."""
    wt = ctx.grid.weights
    half_mass = 0.5 * ctx.V.v_inf * float(wt @ w**2)

    def c_of(a: float) -> float:
        return float(ctx.lam * (wt @ np.asarray(ctx.f.F(a * w), dtype=float))
                     - half_mass * a * a)

    def excess(x: float) -> float:
        a = math.exp(x)
        return (c_of(a) - target) / (a * a)

    c_prev = None
    for j, a in enumerate(solver.AMP_SCAN):
        c = c_of(a)
        if c >= target:
            break
        c_prev = c
    else:
        return None
    if j == 0:
        return float(solver.AMP_SCAN[0])
    a_prev = solver.AMP_SCAN[j - 1]
    lo, hi = solver.false_position(excess, math.log(a_prev), math.log(a),
                                   (c_prev - target) / (a_prev * a_prev),
                                   (c - target) / (a * a), solver.AMP_LOG_TOL)
    return math.exp(0.5 * (lo + hi))


def _check_restore(f, w):
    ctx, passes = _counting_context(f)
    j, a_ref = _restore_reference(ctx, w)
    a_cold = _cold_restore(ctx, w)
    passes[0] = 0
    a = solver._amplitude_restore(ctx, w)
    scan = np.geomspace(1e-4, 1e4, 81)
    # scan passes: the walk up from index 0 reaches j in j + 1 of them,
    # and the polish adds at most 12.  A declared degree reads the law from
    # one pass and checks its amplitude with one more; when no amplitude
    # passes the check, the walk on C runs as without the degree.
    homogeneous = f.degree is not None
    if not homogeneous:
        assert a == a_cold
    if j is None:
        assert a is None
        assert passes[0] - scan.size in ((1, 2) if homogeneous else (0,))
        return None
    if j == 0:
        assert a == scan[0]
    else:
        assert scan[j - 1] <= a <= scan[j]
        assert abs(math.log(a) - math.log(a_ref)) <= 1e-13
    if homogeneous:
        assert passes[0] <= 2
    else:
        assert passes[0] <= j + 1 + 12
    return a


_W_PART = st.tuples(st.floats(-4.0, 6.0),       # log10 amplitude
                    st.booleans(),               # negative lobe
                    st.floats(0.3, 5.0),         # width
                    st.floats(0.0, 5.0))         # center


# p stays off 2: there lam F and the mass term cancel, and rounding moves
# the crossing by more than the 1e-13 both restores are held to.  p < 2
# keeps a C that rises and falls exercised; saturating and specs stripped
# of their degree keep the walk on C itself exercised.
_HIGH_F = st.one_of(st.floats(2.05, 5.95).map(power_nonlinearity),
                    st.floats(1.1, 5.0).map(saturating_nonlinearity))
_LOW_POWER_F = st.floats(1.1, 1.9).map(power_nonlinearity)
_RESTORE_F = st.one_of(
    _HIGH_F,
    _LOW_POWER_F,
    _HIGH_F.map(lambda f: dataclasses.replace(f, degree=None)),
    _LOW_POWER_F.map(lambda f: dataclasses.replace(f, degree=None)),
)


@settings(max_examples=150, deadline=None)
@given(f=_RESTORE_F, signed=st.booleans(),
       parts=st.lists(_W_PART, min_size=1, max_size=3))
def test_amplitude_restore_matches_full_scan(f, signed, parts):
    r = _RESTORE_GRID.r
    w = sum((-1.0 if signed and neg else 1.0) * 10.0**lg
            * np.exp(-(((r - c) / width) ** 2))
            for lg, neg, width, c in parts)
    w[-1] = 0.0
    _check_restore(f, w)


def test_amplitude_restore_unreachable():
    w = np.exp(-_RESTORE_GRID.r**2)
    w[-1] = 0.0
    assert _check_restore(power_nonlinearity(4.0), np.zeros_like(w)) is None
    for c in (0.5, 1.0):       # F(t) <= t^2/2: C(a) <= 0 for every a
        assert _check_restore(saturating_nonlinearity(c), w) is None


def test_amplitude_restore_nan_is_not_reached():
    # F is NaN past |s| = 1, where C would first reach the target: a NaN
    # counts as not reached, so the walk on C scans on and finds nothing.
    # The homogeneous law, read where |w| < 1, does cross; its check reads
    # a NaN there and hands over to the walk on C.
    f = power_nonlinearity(4.0)
    w = 1e-2 * np.exp(-_RESTORE_GRID.r**2)
    w[-1] = 0.0
    nan_f = dataclasses.replace(
        f, F=lambda t: np.where(np.abs(t) > 1.0, np.nan, f.F(t)))
    assert _check_restore(nan_f, w) is None


def test_amplitude_restore_first_scan_point():
    w = 1e6 * np.exp(-_RESTORE_GRID.r**2)
    w[-1] = 0.0
    assert _check_restore(power_nonlinearity(4.0), w) == 1e-4


def test_amplitude_restore_keeps_first_crossing():
    # p = 1.5: C(a) = A a^1.5 - B a^2 rises, peaks at a* = (3A/4B)^2 and
    # falls, so it crosses the target twice; the lower crossing is kept
    f = power_nonlinearity(1.5)
    r = _RESTORE_GRID.r
    w = 40.0 * np.exp(-(r / 2.0) ** 2)
    w[-1] = 0.0
    wt = _RESTORE_GRID.weights
    A = float(wt @ f.F(w))
    B = 0.5 * float(wt @ w**2)
    a_peak = (0.75 * A / B) ** 2
    assert A * a_peak**1.5 - B * a_peak**2 > 2.0
    a = _check_restore(f, w)
    assert 1e-4 < a < a_peak
    assert abs(A * a**1.5 - B * a**2 - 1.0) < 1e-9
    # the second crossing lies above the peak
    assert A * (4.0 * a_peak) ** 1.5 - B * (4.0 * a_peak) ** 2 < 1.0


def test_amplitude_restore_false_degree_walks_on_C():
    # declared degree 2 for p = 4: the law A a^3 - B a^2 crosses the target
    # where C does not, the check rejects that amplitude, and the walk on C
    # returns its crossing bit for bit
    f = power_nonlinearity(4.0)
    false_f = dataclasses.replace(f, degree=2.0)
    w = 0.05 * np.exp(-_RESTORE_GRID.r**2)
    w[-1] = 0.0
    ctx, passes = _counting_context(false_f)
    j, a_ref = _restore_reference(ctx, w)
    a_cold = _cold_restore(ctx, w)
    assert j is not None
    wt = _RESTORE_GRID.weights
    A, B = float(wt @ f.F(w)), 0.5 * float(wt @ w**2)
    law = solver._restore_walk(lambda a: A * a**3 - B * a**2, 1.0)
    assert law is not None and abs(math.log(law) - math.log(a_ref)) > 1e-3
    passes[0] = 0
    a = solver._amplitude_restore(ctx, w)
    assert a == a_cold
    assert abs(math.log(a) - math.log(a_ref)) <= 1e-13
    # the law's pass, its check, and the walk on C from the low end
    assert passes[0] > 2 + j


# route B on the restore grid; the default tolerances are set for n = 4096
# and scale by (4096/n)^2
_RESTORE = solver._amplitude_restore
_BL_OPTS_1024 = SolveOptions(grad_tol=16 * solver.ROUTE_GRAD_TOL["bl-constrained"],
                             poho_tol=16 * solver.ROUTE_POHO_TOL["bl-constrained"])


def _bl_restore_passes(f, monkeypatch, grid=_RESTORE_GRID, opts=_BL_OPTS_1024):
    """Route B's report (on the restore grid by default), and the F passes
    of each of its amplitude restores."""
    ctx, passes = _counting_context(f, grid)
    per_call = []

    def counting(ctx, w):
        before = passes[0]
        a = _RESTORE(ctx, w)
        per_call.append(passes[0] - before)
        return a

    monkeypatch.setattr(solver, "_amplitude_restore", counting)
    return solve_limit_BL(ctx, opts), per_call


def test_bl_route_same_report_without_the_declared_fact(monkeypatch):
    f = power_nonlinearity(4.0)
    declared, warm = _bl_restore_passes(f, monkeypatch)
    # without the degree every restore walks C from the low end; its
    # amplitudes differ from the law's at round-off, so the iterates do too
    stripped, cold = _bl_restore_passes(dataclasses.replace(f, degree=None),
                                        monkeypatch)
    assert declared.converged and stripped.converged
    assert abs(declared.energy - stripped.energy) <= 1e-12 * abs(stripped.energy)
    u, u_cold = declared.u_star.values, stripped.u_star.values
    assert np.max(np.abs(u - u_cold)) <= 1e-8 * np.max(np.abs(u_cold))
    assert abs(declared.iterations - stripped.iterations) <= 1
    # deterministic work: 2 F passes per restore with the degree, ~48 from
    # 1e-4 without it
    assert sum(warm) / len(warm) <= 2
    assert sum(cold) / len(cold) > 40


def test_bl_route_restores_from_two_passes_at_8192(monkeypatch):
    # the const benchmark configuration: every restore reaches the target
    # on the law's pass and its check (an unreached one makes ~43)
    rep, per_call = _bl_restore_passes(power_nonlinearity(4.0), monkeypatch,
                                       make_grid(3, 30.0, 8192), SolveOptions())
    assert rep.converged
    assert len(per_call) > rep.iterations
    assert set(per_call) == {2}


def test_fiber_descent_route(rep_fiber, rep_shoot, rep_bl):
    assert rep_fiber.converged
    assert rep_fiber.pohozaev_residual <= rep_fiber.poho_tol
    assert rep_fiber.pde_residual <= rep_fiber.grad_tol
    assert rep_fiber.energy > 0.0
    m = {"A": rep_fiber.energy, "B": rep_bl.energy, "C": rep_shoot.energy}
    assert abs(m["A"] - m["B"]) / m["B"] < 1e-2
    assert abs(m["A"] - m["C"]) / m["C"] < 1e-2


def test_fiber_descent_certifies_its_last_fiber_pass(ctx_well, rep_fiber_well,
                                                    monkeypatch):
    calls = []
    real = solver.fiber_values

    def counting(ctx, u):
        calls.append(u)
        return real(ctx, u)

    monkeypatch.setattr(solver, "fiber_values", counting)
    rep = solve_fiber_descent(ctx_well)
    # the starting level, then one failing polish check, one reprojection,
    # one passing check whose quadratures the report is certified from
    assert len(calls) == 3
    assert rep.u_star is calls[-1]
    assert rep.to_dict() == rep_fiber_well.to_dict()


_CERT_GRIDS = {N: make_grid(N, 20.0, 256) for N in (3, 4, 5)}
_CERT_POTENTIALS = st.one_of(
    st.builds(constant_potential, st.floats(0.1, 3.0)),
    st.builds(well_potential, st.just(1.0), st.floats(0.0, 1.0), st.floats(1.5, 6.0)),
    st.builds(perturbed_potential, st.just(1.0), st.floats(0.0, 1.0),
              st.sampled_from(("lorentzian", "gaussian"))),
)


def _certified_pde(fv, w, t):
    """pde_residual of _finish's report on (fv, w, t), converged or not."""
    try:
        return solver._finish(fv, w, t, "test", 0, (0.0, 0.0), "").pde_residual
    except ConvergenceError as exc:
        return exc.report.pde_residual


def _frozen_route_b_residual(ctx, w_hat, t_hat):
    """Route B's own certificate of w_hat(x/t_hat) before _finish took
    (w, t), for a constant potential: kept as the reference."""
    t2 = t_hat**2
    res_w = pde_residual(
        w_hat,
        lambda r: t2 * ctx.V.v_inf * np.ones_like(r),
        lambda s: t2 * ctx.lam * np.asarray(ctx.f.f(s), dtype=float),
        1.0,
    )
    return solver._rel_residual(res_w, w_hat) / t2


@settings(max_examples=60, deadline=None)
@given(N=st.sampled_from((3, 4, 5)), V=_CERT_POTENTIALS, lam=st.floats(0.5, 1.0),
       amp=st.floats(0.1, 8.0), width=st.floats(0.5, 4.0), center=st.floats(0.0, 3.0),
       t=st.floats(0.25, 4.0))
def test_finish_certifies_w_at_t_as_the_routes_did(N, V, lam, amp, width, center, t):
    grid = _CERT_GRIDS[N]
    ctx = FunctionalContext(grid, V, power_nonlinearity(3.0), lam)
    w = RadialFunction.sampled(grid, lambda r: amp * np.exp(-(((r - center) / width) ** 2)))
    # t = 1: the residual of w itself, as routes A and C took it
    want = solver._rel_residual(pde_residual(w, V.V, ctx.f.f, lam), w)
    assert _certified_pde(fiber_values(ctx, w), w, 1.0) == want
    # any t on a constant potential: route B's residual, bit for bit
    limit = ctx.limit_context()
    got = _certified_pde(fiber_values(limit, dilate(w, t)), w, t)
    assert got == _frozen_route_b_residual(limit, w, t)


def test_fiber_descent_iteration_cap(ctx_auto):
    with pytest.raises(ConvergenceError):
        solve_fiber_descent(ctx_auto, SolveOptions(max_iters=1))


def test_fiber_descent_well_domination(rep_fiber_well, rep_fiber):
    # with the potential below its limit somewhere, the constrained level
    # cannot exceed the constant-potential level
    assert rep_fiber_well.energy <= rep_fiber.energy + 1e-6


def test_minimax_sampling(ctx_well, rep_fiber_well, grid4096):
    # every admissible sample's fiber maximum sits above the ground level
    rng = np.random.default_rng(14)
    m_hat = rep_fiber_well.energy
    found = 0
    for u in random_bumps(grid4096, rng, 30, amp_range=(0.5, 5.0)):
        member, _ = lambda_membership(ctx_well, u)
        if not member:
            continue
        found += 1
        proj = project_to_M(ctx_well, u)
        zmax = float(fiber_values(ctx_well, u).energy_at(proj.t_u)[0])
        assert zmax >= m_hat - 1e-6 * (1.0 + abs(m_hat))
    assert found > 5


def test_sweep_structure(ctx_well):
    report = sweep_lambda(ctx_well)
    assert 0.5 <= report.lambda_bar < 1.0
    assert report.lambda_bar == pytest.approx(0.9944, abs=2e-3)
    assert report.T == pytest.approx(2.0)
    assert report.zeta0 == pytest.approx(0.25)
    assert report.x_bar == 0.0
    assert len(report.rows) == 3
    lams = [row["lambda"] for row in report.rows]
    assert all(report.lambda_bar < la <= 1.0 for la in lams)
    m_inf = [row["m_inf"] for row in report.rows]
    assert all(m_inf[i + 1] <= m_inf[i] + 1e-12 for i in range(len(m_inf) - 1))
    assert all(row["margin"] > 0.0 for row in report.rows)
    # path bound is uniformly bounded: non-increasing in the weight
    c_bars = [row["c_bar"] for row in report.rows]
    assert max(c_bars) <= c_bars[0] + 1e-12


def test_sweep_respects_requested_grid(ctx_well):
    report = sweep_lambda(ctx_well, [0.9, 0.95, 0.999, 1.0])
    assert 0.9 in report.dropped and 0.95 in report.dropped
    kept = [row["lambda"] for row in report.rows]
    assert kept == [0.999, 1.0]
    assert all(row["margin"] > 0.0 for row in report.rows)


def _recording_shoot_oracle(monkeypatch):
    """(lam, predicted) of every shoot_oracle call the sweep makes."""
    calls = []
    real = solver.shoot_oracle

    def recording(*args, **kwargs):
        calls.append((kwargs.get("lam"), kwargs.get("predicted")))
        return real(*args, **kwargs)

    monkeypatch.setattr(solver, "shoot_oracle", recording)
    return calls


def test_sweep_reuses_lambda_one_shot(ctx_well, rep_shoot, monkeypatch):
    calls = _recording_shoot_oracle(monkeypatch)
    report = sweep_lambda(ctx_well)
    # u1 plus the two rows below lam = 1; the lam = 1 row reuses u1
    lams = [lam for lam, _ in calls]
    assert len(lams) == 3
    assert lams.count(1.0) == 1
    row1 = [row for row in report.rows if row["lambda"] == 1.0]
    assert len(row1) == 1
    assert row1[0]["m_inf"] == rep_shoot.energy   # standalone lam = 1 shot
    # u1 is searched from scratch; each row starts at u1's root scaled by
    # lam^(-1/(degree-1)), degree 3 for the cubic
    assert calls[0] == (1.0, None)
    for lam, predicted in calls[1:]:
        assert predicted == pytest.approx(rep_shoot.u_at_zero / math.sqrt(lam),
                                          rel=1e-15)

    calls.clear()
    report = sweep_lambda(ctx_well, [0.9, 0.95, 0.999, 1.0])
    assert [row["lambda"] for row in report.rows] == [0.999, 1.0]
    assert [lam for lam, _ in calls] == [1.0, 0.999]
    assert calls[1][1] is not None
    assert report.rows[1]["m_inf"] == rep_shoot.energy


def test_sweep_without_declared_degree_predicts_nothing(grid4096, monkeypatch):
    # the saturating f is not homogeneous: every row is searched from scratch
    ctx = FunctionalContext(grid4096, well_potential(1.0, 0.2, 2.0, theta=0.95),
                            saturating_nonlinearity(4.0))
    calls = _recording_shoot_oracle(monkeypatch)
    report = sweep_lambda(ctx, opts=SolveOptions(ode_step=1e-2))
    assert len(report.rows) == 3
    assert len(calls) == 3
    assert all(predicted is None for _, predicted in calls)


def test_sweep_shot_budget(ctx_well, shot_counter):
    sweep_lambda(ctx_well)
    counts = shot_counter.counts
    # u1's search: 6 scan and 8 functional shots, the 2 ends of the
    # functional's bracket resumed from SHOOT_R (they straddle), and the
    # recorded shot; the scan's rest point u(0) = 1 resumes without a
    # step.  Each of the two rows below lam = 1: the recorded midpoint of
    # its predicted amplitude -/+ d and the probe on its far side, both
    # resumed.  157,420 RK4 steps; 208,942 when the ends were probed and
    # each row recorded a third shot.  A row searched from the scan takes
    # 15 shots and ~97k steps, so both bounds fail unless both rows
    # confirm their prediction.
    assert counts["shot"] + counts["record"] <= 19
    assert counts["resume"] <= 7
    assert counts["steps"] <= 160_000


def test_sweep_path_length_stops_at_its_cap():
    # at lam = 0.01 the path endpoint stays positive as T grows past t_cap
    ctx = FunctionalContext(make_grid(3, 30.0, 1024),
                            well_potential(1.0, 0.2, 2.0, theta=0.95),
                            power_nonlinearity(4.0))
    with pytest.raises(ConvergenceError, match="no path length below the cap 64"):
        sweep_lambda(ctx, [0.01], SolveOptions(grad_tol=2e-2))


def test_sweep_rejects_constant_potential(ctx_auto):
    with pytest.raises(PositivityBallError):
        sweep_lambda(ctx_auto)


def test_solve_options_validation():
    for bad in (0, math.nan):
        with pytest.raises(DomainError):
            SolveOptions(max_iters=bad)
    # inf too: an infinite step never shrinks, and an infinite tolerance
    # certifies anything
    for name in ("step", "ode_step", "shoot_tol", "grad_tol", "poho_tol"):
        for bad in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(DomainError, match=name):
                SolveOptions(**{name: bad})
    # the starting bump amp * exp(-(r / width)^2) needs both finite and positive
    for name in ("amp", "width"):
        for bad in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(DomainError, match=name):
                SolveOptions(**{name: bad})
    gt, pt = SolveOptions().tolerances("shooting")
    assert gt > 0 and pt > 0
    gt2, _ = SolveOptions(grad_tol=1e-5).tolerances("shooting")
    assert gt2 == 1e-5


def test_report_serialization(rep_shoot):
    d = rep_shoot.to_dict()
    assert d["grid"] == {"N": 3, "r_max": 30.0, "n": 4096}
    assert len(d["u"]) == 4096
    assert d["route"] == "shooting"
    # from_dict inverts to_dict, also through the JSON text the CLI writes
    grid = rep_shoot.u_star.grid
    for data in (d, json.loads(format_json(d))):
        back = SolveReport.from_dict(data, grid)
        for f in dataclasses.fields(SolveReport):
            want, got = getattr(rep_shoot, f.name), getattr(back, f.name)
            if f.name == "u_star":
                assert got.grid is grid
                assert np.array_equal(got.values, want.values)
            else:
                assert got == want, f.name


@pytest.mark.parametrize("route, opts", [
    ("fiber-descent", SolveOptions(max_iters=1)),
    ("bl-constrained", SolveOptions(max_iters=1)),
    ("shooting", SolveOptions(grad_tol=1e-12)),
])
def test_failed_certificates_carry_the_report(ctx_auto, route, opts):
    routine = {
        "fiber-descent": solve_fiber_descent,
        "bl-constrained": solve_limit_BL,
        "shooting": lambda ctx, o: shoot_oracle(1.0, ctx.f, 3, grid=ctx.grid, opts=o),
    }[route]
    with pytest.raises(ConvergenceError) as info:
        routine(ctx_auto, opts)
    rep = info.value.report
    assert rep.route == route
    assert rep.converged is False
    assert rep.u_star.grid.same_mesh(ctx_auto.grid)
