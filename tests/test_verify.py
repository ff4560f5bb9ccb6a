import numpy as np
import pytest

from nlsground import (
    ConvergenceError,
    FunctionalContext,
    PreconditionError,
    RadialFunction,
    SolveReport,
    ZeroFunctionError,
    constant_potential,
    run_suite,
    saturating_nonlinearity,
    well_potential,
)
from nlsground import verify


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
