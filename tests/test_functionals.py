import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlsground import (
    DomainError,
    FunctionalContext,
    RadialFunction,
    constant_potential,
    fiber_values,
    g_of_t,
    h1_norm_sq,
    make_grid,
    perturbed_potential,
    power_nonlinearity,
    saturating_nonlinearity,
    well_potential,
)
from conftest import gaussian_bump, random_bumps


def gaussian_closed_forms(A, s):
    """Exact integrals of u = A exp(-r^2/s^2) on R^3 with f(t) = t^3:
    Dirichlet seminorm, squared mass, and int |u|^4/4."""
    g = 3.0 * math.pi**1.5 * A**2 * s / (2.0 * math.sqrt(2.0))
    m = math.pi**1.5 * A**2 * s**3 / (2.0 * math.sqrt(2.0))
    f = math.pi**1.5 * A**4 * s**3 / 32.0
    return g, m, f


def test_energy_zero(ctx_auto, grid4096):
    fv = fiber_values(ctx_auto, RadialFunction(grid4096, np.zeros(grid4096.n)))
    assert fv.energy() == 0.0
    assert fv.energy_limit() == 0.0
    assert fv.pohozaev() == 0.0
    assert fv.pohozaev_limit() == 0.0
    assert fv.psi() == 0.0


def test_energy_gaussian_oracle(ctx_auto, grid4096, grid8192, f_cubic):
    A, s = 2.0, 1.5
    G, M, F = gaussian_closed_forms(A, s)
    u = gaussian_bump(grid4096, A, s)
    fv = fiber_values(ctx_auto, u)
    assert fv.mass == pytest.approx(M, rel=1e-10)
    assert fv.f_int == pytest.approx(F, rel=1e-10)
    # the Dirichlet seminorm uses second-order differencing: O(h^2) only
    assert fv.grad == pytest.approx(G, rel=1e-4)
    e_exact = 0.5 * (G + M) - F
    err4096 = abs(fv.energy() - e_exact)
    assert err4096 < 1e-3
    ctx8 = FunctionalContext(grid8192, constant_potential(1.0), f_cubic)
    err8192 = abs(fiber_values(ctx8, gaussian_bump(grid8192, A, s)).energy()
                  - e_exact)
    assert err8192 <= err4096 / 3.0  # discretization, not a bias


def test_constant_potential_definitional_agreement(ctx_auto, grid4096):
    fv = fiber_values(ctx_auto, gaussian_bump(grid4096, 1.7, 1.2))
    assert fv.energy() == fv.energy_limit()
    assert fv.pohozaev() == fv.pohozaev_limit()


def test_energy_limit_dominates_energy(ctx_well, grid4096):
    # energy_limit - energy = (1/2) int (V_inf - V) u^2 >= 0 under domination
    rng = np.random.default_rng(5)
    for u in random_bumps(grid4096, rng, 20):
        fv = fiber_values(ctx_well, u)
        gap = fv.energy_limit() - fv.energy()
        assert gap >= -1e-12 * (1.0 + h1_norm_sq(u))


def test_psi_identity_and_constant_case(ctx_auto, ctx_well, grid4096):
    rng = np.random.default_rng(6)
    for ctx in (ctx_auto, ctx_well):
        for u in random_bumps(grid4096, rng, 10):
            fv = fiber_values(ctx, u)
            lhs = fv.psi()
            rhs = fv.energy() - fv.pohozaev() / 3.0
            assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-12)
    u = gaussian_bump(grid4096, 2.0, 1.5)
    fv = fiber_values(ctx_auto, u)
    assert fv.psi() == pytest.approx(fv.grad / 3.0, rel=1e-14)


def test_psi_lower_bound(ctx_well_est, grid4096):
    # Psi(u) >= (1 - theta)/N ||grad u||^2 with the derivative-bound theta
    theta = ctx_well_est.theta
    assert theta == pytest.approx(0.7982, abs=1e-3)
    rng = np.random.default_rng(11)
    for u in random_bumps(grid4096, rng, 100):
        fv = fiber_values(ctx_well_est, u)
        bound = (1.0 - theta) / 3.0 * fv.grad
        assert fv.psi() >= bound - 1e-10 * (1.0 + fv.grad)


def test_g_of_t_values_and_positivity():
    assert g_of_t(1.0, 3) == 0.0
    assert g_of_t(0.0, 3) == 2.0
    assert g_of_t(2.0, 3) == 4.0
    ts = np.geomspace(0.01, 10.0, 4096)
    ts = ts[np.abs(ts - 1.0) > 1e-3]
    for N in (3, 4, 5):
        assert np.min(g_of_t(ts, N)) > 0.0
    with pytest.raises(DomainError):
        g_of_t(-0.5, 3)


def test_iip_gap_trivial_cases(ctx_auto, grid4096):
    fv = fiber_values(ctx_auto, gaussian_bump(grid4096, 2.0, 1.0))
    assert fv.iip_gap(1.0) == 0.0
    z = RadialFunction(grid4096, np.zeros(grid4096.n))
    assert fiber_values(ctx_auto, z).iip_gap(2.0) == 0.0
    with pytest.raises(DomainError):
        fv.iip_gap(0.0)


def test_iip_gap_constant_potential(ctx_auto, grid4096):
    # with V frozen at its limit and theta = 0 the slack is algebraically
    # zero; only round-off remains
    rng = np.random.default_rng(0)
    for u in random_bumps(grid4096, rng, 50, width_range=(0.5, 2.0),
                          center_max=1.5):
        scale = 1.0 + h1_norm_sq(u)
        fv = fiber_values(ctx_auto, u)
        for t in (0.5, 2.0):
            assert fv.iip_gap(t) >= -1e-8 * scale


def test_iip_gap_well_potential(ctx_well, ctx_well_est, grid4096):
    rng = np.random.default_rng(1)
    bumps = random_bumps(grid4096, rng, 40, width_range=(0.5, 2.0),
                         center_max=1.5)
    for ctx in (ctx_well, ctx_well_est):
        for u in bumps:
            scale = 1.0 + h1_norm_sq(u)
            fv = fiber_values(ctx, u)
            for t in (0.25, 0.9, 1.1, 4.0):
                assert fv.iip_gap(t) >= -1e-6 * scale


def test_hardy_gap_oracle(ctx_auto, grid4096):
    z = RadialFunction(grid4096, np.zeros(grid4096.n))
    assert fiber_values(ctx_auto, z).hardy_gap() == 0.0
    # ||grad e^{-r}||^2 - (1/4) int e^{-2r}/r^2 = pi - pi/2
    u = RadialFunction.sampled(grid4096, lambda r: np.exp(-r))
    assert fiber_values(ctx_auto, u).hardy_gap() == pytest.approx(math.pi / 2.0,
                                                                  abs=1e-3)


def test_hardy_gap_scan(ctx_auto, grid4096):
    rng = np.random.default_rng(2)
    for u in random_bumps(grid4096, rng, 100):
        assert fiber_values(ctx_auto, u).hardy_gap() >= -1e-8


def test_hardy_gap_higher_dimension(f_cubic):
    g = make_grid(4, 20.0, 2048)
    ctx = FunctionalContext(g, constant_potential(1.0), f_cubic)
    u = RadialFunction.sampled(g, lambda r: np.exp(-(r**2)))
    assert fiber_values(ctx, u).hardy_gap() >= -1e-8


def test_norm_equivalence_sampled_constants(ctx_well, grid4096):
    theta = ctx_well.theta
    lo = min((1.0 - theta) * 1.0, 3.0 * ctx_well.V.v_inf)
    hi = 1.0 + 2.0 * theta + 3.0 * ctx_well.V.v_inf
    rng = np.random.default_rng(3)
    g1, g2 = np.inf, -np.inf
    for u in random_bumps(grid4096, rng, 100):
        fv = fiber_values(ctx_well, u)
        ratio = (1.0 * fv.grad + 3.0 * fv.pot + fv.pot_w) / h1_norm_sq(u)
        g1, g2 = min(g1, ratio), max(g2, ratio)
    assert g1 >= lo - 1e-6
    assert g2 <= hi + 1e-6


def test_lambda_weight_enters_functionals(grid4096, f_cubic):
    ctx1 = FunctionalContext(grid4096, constant_potential(1.0), f_cubic, 1.0)
    ctx_half = ctx1.with_lambda(0.5)
    u = gaussian_bump(grid4096, 2.0, 1.5)
    fv = fiber_values(ctx1, u)
    fv_half = fiber_values(ctx_half, u)
    assert fv_half.energy() == pytest.approx(
        fv.energy() + 0.5 * fv.f_int, rel=1e-12)
    assert fv_half.pohozaev() == pytest.approx(
        fv.pohozaev() + 3.0 * 0.5 * fv.f_int, rel=1e-12)
    with pytest.raises(DomainError):
        FunctionalContext(grid4096, constant_potential(1.0), f_cubic, 1.5)


# ----------------------------------------------------------------------
# the fiber layer: one potential loop behind energy_at and pohozaev_at
# ----------------------------------------------------------------------

_FIBER_POTENTIALS = [
    constant_potential(1.0),
    well_potential(1.0, 0.2, 2.0),
    well_potential(2.0, 0.7, 3.0),
    perturbed_potential(1.0, 0.5, "lorentzian"),
    perturbed_potential(1.0, 0.5, "gaussian"),
]
_FIBER_T = np.geomspace(0.05, 8.0, 37)


def _separate_loops(fv, t):
    """energy_at and pohozaev_at as two independent loops over t (the
    layout before they shared one potential quadrature)."""
    N = fv.ctx.grid.N
    w, r = fv.ctx.grid.weights, fv.ctx.grid.r
    u2 = fv.u.values**2
    pot_t = np.empty(t.size)
    for i, ti in enumerate(t):
        pot_t[i] = float(w @ (fv.ctx.V.V(ti * r) * u2))
    mid_t = np.empty(t.size)
    for i, ti in enumerate(t):
        tr = ti * r
        mid = N * fv.ctx.V.V(tr) + fv.ctx.V.rdV(tr)
        mid_t[i] = float(w @ (mid * u2))
    zeta = (0.5 * t ** (N - 2.0) * fv.grad + 0.5 * t**N * pot_t
            - fv.ctx.lam * t**N * fv.f_int)
    poho = (0.5 * (N - 2.0) * t ** (N - 2.0) * fv.grad + 0.5 * t**N * mid_t
            - N * fv.ctx.lam * t**N * fv.f_int)
    return zeta, poho


@pytest.mark.parametrize("V", _FIBER_POTENTIALS, ids=lambda V: V.family)
def test_fiber_scans_match_separate_loops(V, grid4096, f_cubic):
    ctx = FunctionalContext(grid4096, V, f_cubic, 0.8)
    rng = np.random.default_rng(12)
    for u in random_bumps(grid4096, rng, 4):
        fv = fiber_values(ctx, u)
        zeta, poho = _separate_loops(fv, _FIBER_T)
        assert np.array_equal(fv.energy_at(_FIBER_T), zeta)
        assert np.array_equal(fv.pohozaev_at(_FIBER_T), poho)
        assert fv.energy_at(1.0)[0] == fv.energy()


@pytest.mark.parametrize("V", _FIBER_POTENTIALS, ids=lambda V: V.family)
def test_stack_energy_is_energy_at_one(V, grid4096, f_cubic):
    # I(u) = zeta(1) float for float on every row of a stack, as for one
    # profile: fiber_values and energy_at take the same products
    ctx = FunctionalContext(grid4096, V, f_cubic, 0.8)
    rng = np.random.default_rng(12)
    stack = np.stack([u.values for u in random_bumps(grid4096, rng, 40)])
    fv = fiber_values(ctx, stack)
    assert np.array_equal(fv.energy_at(np.ones(len(stack))), fv.energy())


@pytest.mark.parametrize("V", _FIBER_POTENTIALS, ids=lambda V: V.family)
def test_pohozaev_at_is_fiber_derivative(V, grid4096, f_cubic):
    # P(u_t) = t d/dt zeta(t), checked by central differences in t
    ctx = FunctionalContext(grid4096, V, f_cubic)
    u = gaussian_bump(grid4096, 2.5, 1.2, center=0.7)
    fv = fiber_values(ctx, u)
    h = 1e-5
    t = _FIBER_T
    slope = (fv.energy_at(t * (1.0 + h)) - fv.energy_at(t * (1.0 - h))) / (2.0 * h)
    scale = np.abs(fv.energy_at(t)) + t ** (grid4096.N - 2.0) * fv.grad
    assert np.all(np.abs(fv.pohozaev_at(t) - slope) <= 1e-7 * (1.0 + scale))


def test_equal_contexts_stay_equal_once_theta_is_read(grid4096, f_cubic):
    from nlsground import estimate_theta_V4

    V = well_potential(1.0, 0.2, 2.0)
    a, b = (FunctionalContext(grid4096, V, f_cubic) for _ in range(2))
    assert a.theta == estimate_theta_V4(V, 3)
    assert a == b


@pytest.mark.parametrize("r_max", [15.0, 60.0])
def test_theta_estimate_is_the_condition_suites(f_cubic, r_max):
    # verification.json writes both: one estimate on one lattice
    from nlsground import run_condition_suite

    V = well_potential(1.0, 0.2, 2.0)
    ctx = FunctionalContext(make_grid(3, r_max, 512), V, f_cubic)
    assert ctx.theta == run_condition_suite(V, f_cubic, 3, r_max)["theta_min"]


def test_fiber_at_another_weight_is_a_context_swap(ctx_well, grid4096):
    # the quadratures do not depend on lam, so swapping the context's weight
    # gives the fiber of the same u at that weight, bit for bit
    u = RadialFunction.sampled(grid4096, lambda r: 3.0 * np.exp(-r**2 / 2.0))
    fv1 = fiber_values(ctx_well, u)
    t = np.geomspace(0.1, 4.0, 9)
    for lam in (0.5, 0.97, 1.0):
        swapped = dataclasses.replace(fv1, ctx=ctx_well.with_lambda(lam))
        direct = fiber_values(ctx_well.with_lambda(lam), u)
        assert np.array_equal(swapped.energy_at(t), direct.energy_at(t))
        assert swapped.energy() == direct.energy()
        assert swapped.pohozaev_limit() == direct.pohozaev_limit()


def test_pohozaev_limit_is_the_fiber_formula(ctx_well, grid4096):
    u = RadialFunction.sampled(grid4096, lambda r: 2.0 * np.exp(-r**2))
    fv = fiber_values(ctx_well, u)
    N = grid4096.N
    assert fv.pohozaev_limit() == (
        0.5 * (N - 2.0) * fv.grad + 0.5 * N * ctx_well.V.v_inf * fv.mass
        - N * ctx_well.lam * fv.f_int)


def test_fiber_formulas_are_the_methods(ctx_well, grid4096):
    # energy_limit, psi and admissibility are the expressions they replaced,
    # bit for bit
    from nlsground.manifold import fiber_membership

    rng = np.random.default_rng(14)
    for u in random_bumps(grid4096, rng, 5):
        fv = fiber_values(ctx_well, u)
        ctx, N = ctx_well, grid4096.N
        assert fv.energy_limit() == (
            0.5 * (fv.grad + ctx.V.v_inf * fv.mass) - ctx.lam * fv.f_int)
        assert fv.psi() == fv.grad / N - fv.pot_w / (2.0 * N)
        assert fiber_membership(fv)[1] == fv.admissibility() == (
            0.5 * ctx.V.v_inf * fv.mass - ctx.lam * fv.f_int)


_PSI_GRIDS = {N: make_grid(N, 30.0, 1024) for N in (3, 4, 5)}
_PSI_NONLINEARITIES = [power_nonlinearity(4.0), power_nonlinearity(3.0, 2.0),
                       saturating_nonlinearity(3.0)]


@settings(max_examples=60, deadline=None)
@given(N=st.sampled_from((3, 4, 5)),
       k_V=st.integers(0, len(_FIBER_POTENTIALS) - 1),
       k_f=st.integers(0, len(_PSI_NONLINEARITIES) - 1),
       lam=st.floats(0.0, 1.0),
       amp=st.floats(0.05, 5.0), width=st.floats(0.3, 4.0), center=st.floats(0.0, 5.0))
def test_psi_is_energy_minus_pohozaev_over_N(N, k_V, k_f, lam, amp, width, center):
    grid = _PSI_GRIDS[N]
    ctx = FunctionalContext(grid, _FIBER_POTENTIALS[k_V], _PSI_NONLINEARITIES[k_f], lam)
    u = gaussian_bump(grid, amp, width, center)
    fv = fiber_values(ctx, u)
    scale = fv.grad + abs(fv.pot) + abs(fv.pot_w) + N * abs(lam * fv.f_int)
    assert abs(fv.psi() - (fv.energy() - fv.pohozaev() / N)) <= 1e-14 * scale


@pytest.mark.parametrize("N", (3, 4, 5))
def test_h1_norm_is_grad_plus_mass(N):
    # fiber_membership, the routes' certificates and verify read ||u||_{H1}^2
    # as fv.grad + fv.mass: the same two quadratures h1_norm_sq adds
    grid = _PSI_GRIDS[N]
    rng = np.random.default_rng(N)
    for V in _FIBER_POTENTIALS:
        for f in _PSI_NONLINEARITIES:
            ctx = FunctionalContext(grid, V, f)
            for u in random_bumps(grid, rng, 3) + [gaussian_bump(grid, 2.0, 1.5)]:
                fv = fiber_values(ctx, u)
                assert fv.grad + fv.mass == h1_norm_sq(u)


def _rel_close(got, want, scale):
    return np.all(np.abs(got - want) <= 1e-12 * (np.abs(want) + scale))


@pytest.mark.parametrize("N", (3, 4, 5))
@pytest.mark.parametrize("V", _FIBER_POTENTIALS, ids=lambda V: V.family)
def test_stacked_fiber_values_match_each_row(N, V):
    # a stack of 11 rows, not a multiple of the row block, against one
    # fiber_values per row: summation order differs, nothing else
    grid = _PSI_GRIDS[N]
    ctx = FunctionalContext(grid, V, saturating_nonlinearity(3.0), 0.9)
    bumps = random_bumps(grid, np.random.default_rng(N), 11, width_range=(0.5, 2.0),
                         center_max=1.5)
    stack = fiber_values(ctx, np.array([u.values for u in bumps]))
    rows = [fiber_values(ctx, u) for u in bumps]
    scale = np.array([fv.grad + fv.mass + abs(fv.pot) + abs(fv.pot_w) + abs(fv.f_int)
                      for fv in rows])
    for name in ("grad", "mass", "f_int", "pot", "pot_w"):
        assert _rel_close(getattr(stack, name), [getattr(fv, name) for fv in rows], scale)
    assert _rel_close(stack.hardy_gap(), [fv.hardy_gap() for fv in rows], scale)
    t = _FIBER_T
    t_scale = np.outer(t ** N + t ** (N - 2.0), scale)
    table = np.array([fv.pohozaev_at(t) for fv in rows]).T
    assert stack.pohozaev_at(t[:, None]).shape == (t.size, len(bumps))
    assert _rel_close(stack.pohozaev_at(t[:, None]), table, t_scale)
    assert _rel_close(stack.energy_at(t[:, None]),
                      np.array([fv.energy_at(t) for fv in rows]).T, t_scale)
    # one t per row
    lanes = t[:len(bumps)]
    assert _rel_close(stack.pohozaev_at(lanes), table[np.arange(len(bumps)), np.arange(len(bumps))],
                      t_scale[np.arange(len(bumps)), np.arange(len(bumps))])
    gaps = stack.iip_gap(np.array([0.5, 2.0])[:, None])
    assert _rel_close(gaps, [[fv.iip_gap(s) for fv in rows] for s in (0.5, 2.0)],
                      np.outer([2.0, 20.0], scale))
    picked = stack.rows(np.array([3, 7]))
    assert picked.u.shape == (2, grid.n) and picked.mass[1] == stack.mass[7]


def test_stacked_fiber_values_validates_rows(ctx_auto, grid4096):
    u = gaussian_bump(grid4096, 2.0, 1.5).values
    for bad in (np.array([u[:-1]]), u, np.array([u, np.r_[u[:-1], 1.0]]),
                np.array([u, np.where(u > 1.0, np.nan, u)])):
        with pytest.raises(DomainError):
            fiber_values(ctx_auto, bad)
