"""Dimension is a genuine parameter: exercise N = 4 and N = 5.

The critical exponent drops with N (2N/(N-2) = 4 at N = 4), so these use
the subcritical quadratic-force power p = 3.  Residual tolerances are the
measured levels of the coarser grids used here.
"""

import pytest

from nlsground import (
    FunctionalContext,
    SolveOptions,
    constant_potential,
    fiber_values,
    make_grid,
    power_nonlinearity,
    shoot_oracle,
    solve_fiber_descent,
    solve_limit_BL,
)


@pytest.fixture(scope="module")
def setup_n4():
    grid = make_grid(4, 25.0, 2048)
    f = power_nonlinearity(3.0)
    ctx = FunctionalContext(grid, constant_potential(1.0), f)
    return grid, f, ctx


def test_n4_routes_agree(setup_n4):
    grid, f, ctx = setup_n4
    rep_c = shoot_oracle(1.0, f, 4, grid=grid)
    assert rep_c.pohozaev_residual < 1e-3
    rep_a = solve_fiber_descent(ctx)
    assert abs(rep_a.energy - rep_c.energy) / rep_c.energy < 1e-2
    opts = SolveOptions(grad_tol=2e-2, poho_tol=2e-3)
    rep_b = solve_limit_BL(ctx, opts)
    assert abs(rep_b.energy - rep_c.energy) / rep_c.energy < 1e-2


def test_n5_shoot_and_descend():
    grid = make_grid(5, 20.0, 2048)
    f = power_nonlinearity(3.0)
    # steeper profile on a coarser grid: certify at its measured level
    rep_c = shoot_oracle(1.0, f, 5, grid=grid, opts=SolveOptions(poho_tol=1e-3))
    assert rep_c.pohozaev_residual < 1e-3
    ctx = FunctionalContext(grid, constant_potential(1.0), f)
    rep_a = solve_fiber_descent(ctx)
    assert abs(rep_a.energy - rep_c.energy) / rep_c.energy < 1e-2


def test_n4_hardy(setup_n4):
    grid, _, ctx = setup_n4
    import numpy as np
    from nlsground import RadialFunction

    u = RadialFunction.sampled(grid, lambda r: np.exp(-(r**2)))
    assert fiber_values(ctx, u).hardy_gap() >= -1e-8
