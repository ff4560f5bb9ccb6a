"""Grid refinement as an asserted property: the ground levels of routes A,
B and C converge at second order in the mesh width, and the Richardson
extrapolations of the independent routes agree.  Route B certifies with
its default tolerances on every grid."""

import math

import pytest

from nlsground import (
    ConvergenceError,
    FunctionalContext,
    SolveOptions,
    constant_potential,
    make_grid,
    power_nonlinearity,
    shoot_oracle,
    solve_fiber_descent,
    solve_limit_BL,
    well_potential,
)
from nlsground import solver

GRIDS = (1024, 2048, 4096)
# below every residual the descent reaches, so it runs to its line-search
# stall at the discretization floor
STALL_TOL = 1e-12


def _scaled_tolerances(route, n):
    # the defaults certify n = 4096; scaling them by (4096/n)^2, the rate
    # of second-order truncation error, fits route C, but route A's
    # stalled residual does not shrink that way (see _descent_level)
    scale = (4096 / n) ** 2
    return solver.ROUTE_GRAD_TOL[route] * scale, solver.ROUTE_POHO_TOL[route] * scale


def _descent_level(ctx, n):
    """Route A's level at its stall, certified with the scaled tolerances.
    grad_tol is also the descent's stopping rule: scaled up, it would stop
    the descent above the floor (at n = 1024 the level then sits 1e-4
    relative high, more than the level moves per doubling)."""
    grad_tol, poho_tol = _scaled_tolerances("fiber-descent", n)
    with pytest.raises(ConvergenceError) as info:
        solve_fiber_descent(ctx, SolveOptions(grad_tol=STALL_TOL, poho_tol=poho_tol))
    rep = info.value.report
    assert rep.pde_residual <= grad_tol
    assert rep.pohozaev_residual <= poho_tol
    return rep.energy


def _shooting_level(f, n):
    grad_tol, poho_tol = _scaled_tolerances("shooting", n)
    rep = shoot_oracle(1.0, f, 3, grid=make_grid(3, 30.0, n),
                       opts=SolveOptions(grad_tol=grad_tol, poho_tol=poho_tol))
    assert rep.converged
    return rep.energy


def _constrained_level(ctx):
    rep = solve_limit_BL(ctx)
    assert rep.converged
    return rep.energy


@pytest.fixture(scope="module")
def levels():
    f = power_nonlinearity(4.0)
    out = {}
    for n in GRIDS:
        grid = make_grid(3, 30.0, n)
        out["const", "A", n] = _descent_level(
            FunctionalContext(grid, constant_potential(1.0), f), n)
        out["well", "A", n] = _descent_level(
            FunctionalContext(grid, well_potential(1.0, 0.2, 2.0, theta=0.95), f), n)
        out["const", "B", n] = _constrained_level(
            FunctionalContext(grid, constant_potential(1.0), f))
        out["const", "C", n] = _shooting_level(f, n)
    return out


def _order_and_limit(levels, potential, route):
    e1, e2, e4 = (levels[potential, route, n] for n in GRIDS)
    order = math.log2((e1 - e2) / (e2 - e4))
    return order, e4 + (e4 - e2) / 3.0


@pytest.mark.parametrize("potential, route", [("const", "A"), ("const", "B"),
                                              ("const", "C"), ("well", "A")])
def test_levels_converge_at_second_order(levels, potential, route):
    order, _ = _order_and_limit(levels, potential, route)
    assert 1.8 <= order <= 2.2, order


def _limits_agree(levels, route, other):
    _, limit = _order_and_limit(levels, "const", route)
    _, limit_other = _order_and_limit(levels, "const", other)
    return abs(limit - limit_other) <= 1e-6 * limit_other


def test_extrapolated_levels_of_routes_A_and_C_agree(levels):
    assert _limits_agree(levels, "A", "C")


def test_extrapolated_levels_of_routes_B_and_C_agree(levels):
    assert _limits_agree(levels, "B", "C")
