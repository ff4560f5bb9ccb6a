from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlsground import (
    ConvergenceError,
    FunctionalContext,
    MultipleSignChangesError,
    NoSignChangeError,
    PreconditionError,
    RadialFunction,
    SolveReport,
    ZeroFunctionError,
    constant_potential,
    fiber_values,
    h1_norm_sq,
    initial_bump,
    make_grid,
    perturbed_potential,
    power_nonlinearity,
    project_fiber,
    project_to_M,
    run_suite,
    saturating_nonlinearity,
    well_potential,
)
from nlsground import verify
from nlsground.grid import BLOCK, dilate
from nlsground.manifold import fiber_membership, project_rows
from conftest import polish_rounds, random_bumps


def test_readme_stack_polish_takes_five_rounds(ctx_well, rep_fiber_well):
    # verify --solution on the README config, seed 5: the admissible bumps
    # are polished in lockstep on the log-ratio of P (8 rounds on P itself)
    with polish_rounds() as calls:
        run_suite(ctx_well, rep_fiber_well, seed=5)
    stacks = [rounds for rounds in calls if rounds[0] > 1]
    assert len(stacks) == 1 and len(stacks[0]) <= 5


def test_suite_with_solution_passes(ctx_auto, rep_fiber):
    report = run_suite(ctx_auto, rep_fiber, seed=42)
    assert report.overall_pass
    names = {c.name for c in report.checks}
    assert {"g-positivity", "hardy", "iip", "inclusion", "norm-equivalence",
            "solution-dilation-identity", "fiber-maximum", "minimax",
            "positive-level", "domination"} <= names
    assert report.constants["m_hat"] > 0.0
    assert report.constants["manifold_floor"] > 0.0


def test_suite_structural_only(ctx_auto):
    report = run_suite(ctx_auto, None, seed=42)
    assert report.overall_pass
    assert all(c.name not in ("minimax", "domination") for c in report.checks)


def test_suite_well_potential(ctx_well, rep_fiber_well):
    report = run_suite(ctx_well, rep_fiber_well, seed=42)
    assert report.overall_pass
    # sampled norm-equivalence constants respect the closed-form bounds
    theta = ctx_well.theta
    assert report.constants["gamma1_hat"] >= min(1.0 - theta, 3.0) - 1e-6
    assert report.constants["gamma2_hat"] <= 1.0 + 2.0 * theta + 3.0 + 1e-6


def test_suite_overall_pass_is_conjunction(ctx_auto, rep_fiber):
    report = run_suite(ctx_auto, rep_fiber, seed=7)
    assert report.overall_pass == all(c.passed for c in report.checks)


def test_tolerance_honesty(ctx_auto, rep_fiber):
    report = run_suite(ctx_auto, rep_fiber, seed=9)
    for c in report.checks:
        if c.passed and np.isfinite(c.worst_margin):
            assert c.worst_margin >= -c.tolerance


def test_suite_determinism(ctx_well, rep_fiber_well):
    a = run_suite(ctx_well, rep_fiber_well, seed=123).to_dict()
    b = run_suite(ctx_well, rep_fiber_well, seed=123).to_dict()
    assert a == b


def test_suite_seed_changes_samples(ctx_auto):
    a = run_suite(ctx_auto, None, seed=1)
    b = run_suite(ctx_auto, None, seed=2)
    ha = [c for c in a.checks if c.name == "hardy"][0].worst_margin
    hb = [c for c in b.checks if c.name == "hardy"][0].worst_margin
    assert ha != hb


def test_misdeclared_theta_fails_iip_with_witness(grid4096, f_cubic):
    # the potential is admissible (some theta < 1 works), but the comparison
    # inequality is scanned with the declared theta = 0 and must fail
    ctx = FunctionalContext(grid4096, well_potential(1.0, 0.2, 2.0, theta=0.0),
                            f_cubic)
    report = run_suite(ctx, None, seed=3, n_samples=30)
    assert not report.overall_pass
    iip = [c for c in report.checks if c.name == "iip"][0]
    assert not iip.passed
    assert "sample" in iip.witness and "t" in iip.witness


def test_precondition_failure_aborts(grid4096, f_cubic):
    # no admissible decay parameter at all: the suite refuses to scan
    ctx = FunctionalContext(grid4096, well_potential(1.0, 0.3, 2.0), f_cubic)
    with pytest.raises(PreconditionError):
        run_suite(ctx, None, seed=3, n_samples=10)
    # nonlinearity without the one-point condition
    ctx2 = FunctionalContext(grid4096, constant_potential(1.0),
                             saturating_nonlinearity(0.5))
    with pytest.raises(PreconditionError):
        run_suite(ctx2, None, seed=3, n_samples=10)


def test_solution_grid_mismatch(ctx_auto, grid8192, f_cubic):
    from nlsground import solve_fiber_descent

    other = FunctionalContext(grid8192, constant_potential(1.0), f_cubic)
    rep = solve_fiber_descent(other)
    with pytest.raises(PreconditionError):
        run_suite(ctx_auto, rep, seed=0, n_samples=5)


def test_solution_zero_profile(ctx_auto):
    # a report may carry u = 0; the solution checks measure against
    # ||u||_{H1}^2, so the suite rejects it before any scan
    zero = RadialFunction(ctx_auto.grid, np.zeros(ctx_auto.grid.n))
    rep = SolveReport(converged=True, u_star=zero, energy=0.0,
                      pohozaev_residual=0.0, pde_residual=0.0, iterations=1,
                      route="fiber-descent", u_at_zero=0.0, grad_tol=5e-3,
                      poho_tol=1e-8)
    with pytest.raises(ZeroFunctionError):
        run_suite(ctx_auto, rep, seed=0, n_samples=5)


def test_report_serialization(ctx_auto):
    report = run_suite(ctx_auto, None, seed=5, n_samples=20)
    d = report.to_dict()
    assert d["grid"] == {"N": 3, "r_max": 30.0, "n": 4096}
    assert isinstance(d["checks"], list) and d["checks"]
    for c in d["checks"]:
        assert {"name", "anchor", "pass", "worst_margin", "samples",
                "tolerance"} <= set(c)


def test_domination_solver_error_fails_check_with_witness(ctx_auto, rep_fiber,
                                                         monkeypatch):
    def stalled(ctx, opts):
        raise ConvergenceError("limit solve stalled")

    monkeypatch.setattr(verify, "solve_fiber_descent", stalled)
    report = run_suite(ctx_auto, rep_fiber, seed=42, n_samples=10)
    dom = [c for c in report.checks if c.anchor == "level-domination"][0]
    assert not dom.passed
    assert not report.overall_pass
    assert "ConvergenceError" in dom.witness["error"]
    assert "limit solve stalled" in dom.witness["error"]


def test_domination_programming_error_propagates(ctx_auto, rep_fiber,
                                                 monkeypatch):
    def broken(ctx, opts):
        raise TypeError("not a solver failure")

    monkeypatch.setattr(verify, "solve_fiber_descent", broken)
    with pytest.raises(TypeError):
        run_suite(ctx_auto, rep_fiber, seed=42, n_samples=10)


# ----------------------------------------------------------------------
# the bump sample: rows of one array, drawn as one array per bump was
# ----------------------------------------------------------------------

def _per_bump_samples(grid, rng, count, amp_range=(1e-2, 1e1),
                      width_range=(0.5, 5.0), center_max=5.0):
    """The bump sample as it was built one array per bump, kept as the
    reference for the row-filling construction (verify._bump_rows)."""
    out = []
    r = grid.r
    for _ in range(count):
        parts = rng.integers(1, 4)
        vals = np.zeros(grid.n)
        for _ in range(parts):
            amp = 10.0 ** rng.uniform(np.log10(amp_range[0]), np.log10(amp_range[1]))
            width = rng.uniform(*width_range)
            center = rng.uniform(0.0, center_max)
            vals += amp * np.exp(-(((r - center) / width) ** 2))
        vals[-1] = 0.0
        out.append(vals)
    return out


@pytest.mark.parametrize("seed", [0, 7, 42, 2479393197])
@pytest.mark.parametrize("mesh", [(3, 30.0, 4096), (4, 30.0, 1023), (5, 12.0, 600)])
def test_sample_bumps_rows_are_the_per_bump_construction(seed, mesh):
    grid = make_grid(*mesh)
    # run_suite's two families, and narrow bumps whose tails underflow
    for kw in ({}, {"width_range": (0.5, 2.0), "center_max": 1.5},
               {"width_range": (0.02, 0.3)}):
        got = verify._bump_rows(grid, np.random.default_rng(seed), 24, **kw)
        want = _per_bump_samples(grid, np.random.default_rng(seed), 24, **kw)
        assert got.shape == (24, grid.n)
        for row, v in zip(got, want):
            assert row.tobytes() == v.tobytes()


# ----------------------------------------------------------------------
# the batched suite against per-bump loops over the scalar primitives
# ----------------------------------------------------------------------

_REF_GRIDS = {N: make_grid(N, 30.0, 512) for N in (3, 4, 5)}
# (potential, N, nonlinearity): each passes the suite's hypothesis checks
_REF_CASES = [
    (well_potential(1.0, 0.2, 2.0), 3, power_nonlinearity(4.0)),
    (constant_potential(1.0), 3, power_nonlinearity(4.0)),
    (well_potential(1.0, 0.2, 2.0), 3, saturating_nonlinearity(3.0)),
] + [(V, N, saturating_nonlinearity(3.0))
     for N in (4, 5)
     for V in (well_potential(1.0, 0.2, 2.0), constant_potential(1.0),
               perturbed_potential(1.0, 0.5, "gaussian"))]


def _first_below(values: dict):
    """(worst, key) over values {key: value} in order, keeping strictly
    smaller values, as the per-bump loops did."""
    worst, key = np.inf, None
    for k, value in values.items():
        if value < worst:
            worst, key = value, k
    return worst, key


def _per_bump_reference(ctx, m_hat, seed, n_samples):
    """{check name: (pass, samples, witness, values)} with values the
    per-sample margins {witness key: margin}, and the sampled constants;
    from per-bump loops over fiber_values and its hardy_gap and iip_gap,
    fiber_membership and project_fiber."""
    rng = np.random.default_rng(seed)
    bumps = random_bumps(ctx.grid, rng, n_samples)
    iip_bumps = random_bumps(ctx.grid, rng, n_samples, width_range=(0.5, 2.0),
                             center_max=1.5)
    fibers = [fiber_values(ctx, u) for u in bumps]
    out, constants = {}, {}

    values = {(k,): fv.hardy_gap() for k, fv in enumerate(fibers)}
    worst, k = _first_below(values)
    out["hardy"] = (worst >= -verify.HARDY_TOL, n_samples,
                    {} if k is None else {"sample": k[0]}, values)

    values = {}
    for k, u in enumerate(iip_bumps):
        fv = fiber_values(ctx, u)
        for t in verify.DILATIONS:
            values[k, t] = fv.iip_gap(t) / (1.0 + h1_norm_sq(u))
    worst, k = _first_below(values)
    out["iip"] = (worst >= -verify.IIP_TOL_COEFF, len(values),
                  {} if k is None else {"sample": k[0], "t": k[1]}, values)

    checked = [(k, fv) for k, fv in enumerate(fibers)
               if not min(fv.pohozaev(), fv.pohozaev_limit()) > 0.0]
    qs = {k: fiber_membership(fv)[1] for k, fv in checked}
    values = {(k,): -qs[k] / (1.0 + h1_norm_sq(fv.u)) for k, fv in checked}
    worst, k = _first_below(values)
    if checked:
        out["inclusion"] = (worst >= -1e-8, len(checked),
                            {} if k is None else {"sample": k[0], "q": qs[k[0]]}, values)

    ratios = [((ctx.grid.N - 2.0) * fv.grad + ctx.grid.N * fv.pot + fv.pot_w)
              / h1_norm_sq(fv.u) for fv in fibers]
    constants["gamma1_hat"] = min(ratios)
    constants["gamma2_hat"] = max(ratios)

    levels, norms = {}, []
    for k, fv in enumerate(fibers):
        if fiber_membership(fv)[0]:
            proj = project_fiber(fv)
            levels[k] = float(proj.fiber.energy_at(proj.t_u)[0])
            # ||u_t||_{H1}^2 = t^{N-2} ||grad u||^2 + t^N ||u||^2
            t, N = proj.t_u, ctx.grid.N
            norms.append(np.sqrt(t ** (N - 2.0) * fv.grad + t**N * fv.mass))
    values = {(k,): z - m_hat for k, z in levels.items()}
    worst, k = _first_below(values)
    tol = 1e-6 * (1.0 + abs(m_hat))
    out["minimax"] = (worst >= -tol, len(levels),
                      {} if k is None else {"sample": k[0], "max_level": levels[k[0]]},
                      values)
    if levels:
        constants["manifold_floor"] = min(norms)
        constants["min_projected_level"] = min(levels.values())
    return out, constants


def _witness_key(witness):
    return tuple(witness[k] for k in ("sample", "t") if k in witness)


def _close(a, b):
    return a == b or abs(a - b) <= 1e-9 * (1.0 + abs(b))


@settings(max_examples=40, deadline=None)
@given(case=st.integers(0, len(_REF_CASES) - 1),
       seed=st.integers(0, 2**32 - 1),
       n_samples=st.integers(1, 3 * BLOCK + 3))
def test_batched_suite_matches_per_bump_loops(case, seed, n_samples):
    V, N, f = _REF_CASES[case]
    ctx = FunctionalContext(_REF_GRIDS[N], V, f)
    u = project_to_M(ctx, initial_bump(ctx, 2.0, 1.5)).projected
    solution = SolveReport(converged=True, u_star=u, energy=0.0,
                           pohozaev_residual=0.0, pde_residual=0.0, iterations=1,
                           route="fiber-descent", u_at_zero=float(u.values[0]),
                           grad_tol=5e-3, poho_tol=1e-8)
    m_hat = fiber_values(ctx, u).energy()
    outcomes = (NoSignChangeError, MultipleSignChangesError)
    try:
        want, want_constants = _per_bump_reference(ctx, m_hat, seed, n_samples)
    except outcomes as exc:
        with pytest.raises(type(exc)):
            run_suite(ctx, solution, seed=seed, n_samples=n_samples)
        return

    def skipped(ctx, opts):
        raise ConvergenceError("the domination solve is not compared here")

    with mock.patch.object(verify, "solve_fiber_descent", skipped):
        report = run_suite(ctx, solution, seed=seed, n_samples=n_samples)
    checks = {c.name: c for c in report.checks}
    if "inclusion" not in want:
        assert checks["inclusion"].samples == 0
    for name, (passed, samples, witness, values) in want.items():
        c = checks[name]
        want_key, got_key = _witness_key(witness), _witness_key(c.witness)
        worst = values[want_key] if witness else np.inf
        assert (c.passed, c.samples) == (passed, samples), name
        assert _close(c.worst_margin, worst), name
        assert set(c.witness) == set(witness), name
        # the same witness, unless the two margins tie at round-off (the
        # iip gaps of the constant potential are round-off everywhere)
        if got_key != want_key:
            assert _close(values[got_key], worst), name
            continue
        for k in set(witness) - {"sample", "t"}:
            assert _close(c.witness[k], witness[k]), (name, k)
    for key, value in want_constants.items():
        assert _close(report.constants[key], value), key
    if "manifold_floor" not in want_constants:
        assert report.constants["manifold_floor"] is None


@pytest.mark.parametrize("N", [3, 4, 5])
def test_fiber_maxima_norm_agrees_with_the_interpolated_dilation(N):
    # the change-of-variables norm of u_{t_u} against h1_norm_sq of the
    # profile resampled by grid.dilate, on admissible Gaussian bumps
    grid = make_grid(N, 30.0, 4096)
    ctx = FunctionalContext(grid, well_potential(1.0, 0.2, 2.0),
                            saturating_nonlinearity(3.0))
    rows = np.array([amp * np.exp(-(grid.r / width) ** 2)
                     for amp in (2.0, 4.0, 8.0) for width in (0.75, 1.5, 3.0)])
    rows[:, -1] = 0.0
    fv = fiber_values(ctx, rows)
    adm = fv.rows(fiber_membership(fv)[0])
    assert len(adm.grad) >= 6
    _, norms = verify._fiber_maxima(adm)
    t_u = project_rows(adm)
    for u, t, norm in zip(adm.u, t_u, norms):
        want = np.sqrt(h1_norm_sq(dilate(RadialFunction(grid, u), t)))
        assert norm == pytest.approx(want, rel=1e-3)
