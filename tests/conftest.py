import inspect
from contextlib import contextmanager
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest

# one line per acceptance criterion, shown in the terminal summary
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.write_sep("-", "acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)

from nlsground import (
    FunctionalContext,
    constant_potential,
    make_grid,
    power_nonlinearity,
    shoot_oracle,
    solve_fiber_descent,
    solve_limit_BL,
    well_potential,
)
from nlsground import manifold, solver

# measured once with the shooting oracle on the default grid and frozen;
# the ODE route is independent of the quadrature/descent code paths
CUBIC_U0 = 4.337387679989
CUBIC_M = 18.897185212


@pytest.fixture(scope="session")
def grid4096():
    return make_grid(3, 30.0, 4096)


@pytest.fixture(scope="session")
def grid8192():
    return make_grid(3, 30.0, 8192)


@pytest.fixture(scope="session")
def f_cubic():
    return power_nonlinearity(4.0)


@pytest.fixture(scope="session")
def ctx_auto(grid4096, f_cubic):
    return FunctionalContext(grid4096, constant_potential(1.0), f_cubic)


@pytest.fixture(scope="session")
def ctx_well(grid4096, f_cubic):
    # declared decay parameter above the lattice requirement (~0.926)
    return FunctionalContext(grid4096, well_potential(1.0, 0.2, 2.0, theta=0.95),
                             f_cubic)


@pytest.fixture(scope="session")
def ctx_well_est(grid4096, f_cubic):
    # no declared theta: context estimates the derivative-bound value (~0.798)
    return FunctionalContext(grid4096, well_potential(1.0, 0.2, 2.0), f_cubic)


@pytest.fixture(scope="session")
def rep_shoot(grid4096, f_cubic):
    return shoot_oracle(1.0, f_cubic, 3, grid=grid4096)


@pytest.fixture(scope="session")
def rep_shoot_8192(grid8192, f_cubic):
    return shoot_oracle(1.0, f_cubic, 3, grid=grid8192)


@pytest.fixture(scope="session")
def rep_bl(ctx_auto):
    return solve_limit_BL(ctx_auto)


@pytest.fixture
def shot_counter(monkeypatch):
    """Route C's RK4 work from here to the end of the test.

    ``counts`` holds the calls of ``solver._integrate_shot`` by kind,
    "shot" (from r = 0), "record" (from r = 0, recording the profile) and
    "resume" (continuing a saved state), and under "steps" the RK4 steps
    they took; ``calls`` lists each call's (kind, amplitude, outcome,
    RK4 step h), which tells a shot at the grid step from one at the ODE
    step.  Every argument is forwarded, with f_scalar counted: a
    step evaluates it four times, and a rest-point exit once more.
    """
    real = solver._integrate_shot
    signature = inspect.signature(real)
    counter = SimpleNamespace(
        counts=dict.fromkeys(("shot", "record", "resume", "steps"), 0), calls=[])

    def counting(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        given = bound.arguments
        kind = ("resume" if given.get("start") is not None
                else "record" if given.get("record") is not None else "shot")
        f_scalar, evals = given["f_scalar"], [0]

        def counted_f(s):
            evals[0] += 1
            return f_scalar(s)

        given["f_scalar"] = counted_f
        out = real(*bound.args, **bound.kwargs)
        counter.counts[kind] += 1
        counter.counts["steps"] += evals[0] // 4
        counter.calls.append((kind, given["a"], out[0], given["h"]))
        return out

    monkeypatch.setattr(solver, "_integrate_shot", counting)
    return counter


@contextmanager
def polish_rounds():
    """The lockstep polishes of the projections run inside: one list per
    false_position_lanes call, holding the number of open lanes at each
    of its rounds (one P(u_t) per open lane)."""
    real = manifold.false_position_lanes
    calls = []

    def counting(g, *args):
        rounds = []
        calls.append(rounds)

        def counted_g(lanes, xs):
            rounds.append(len(lanes))
            return g(lanes, xs)

        return real(counted_g, *args)

    with mock.patch.object(manifold, "false_position_lanes", counting):
        yield calls


@pytest.fixture(scope="session")
def rep_fiber(ctx_auto):
    return solve_fiber_descent(ctx_auto)


@pytest.fixture(scope="session")
def rep_fiber_well(ctx_well):
    return solve_fiber_descent(ctx_well)


def gaussian_bump(grid, amp, width, center=0.0):
    from nlsground import RadialFunction

    return RadialFunction.sampled(
        grid, lambda r: amp * np.exp(-(((r - center) / width) ** 2)))


def random_bumps(grid, rng, count, amp_range=(1e-2, 1e1), width_range=(0.5, 5.0),
                 center_max=5.0):
    from nlsground import RadialFunction
    from nlsground.verify import _bump_rows

    rows = _bump_rows(grid, rng, count, amp_range, width_range, center_max)
    return [RadialFunction(grid, row) for row in rows]
