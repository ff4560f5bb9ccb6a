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
    energy,
    energy_limit,
    fiber_values,
    g_of_t,
    h1_norm_sq,
    hardy_gap,
    iip_gap,
    make_grid,
    perturbed_potential,
    pohozaev,
    pohozaev_limit,
    power_nonlinearity,
    psi,
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
    z = RadialFunction(grid4096, np.zeros(grid4096.n))
    assert energy(ctx_auto, z) == 0.0
    assert energy_limit(ctx_auto, z) == 0.0
    assert pohozaev(ctx_auto, z) == 0.0
    assert pohozaev_limit(ctx_auto, z) == 0.0
    assert psi(ctx_auto, z) == 0.0


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
    err4096 = abs(energy(ctx_auto, u) - e_exact)
    assert err4096 < 1e-3
    ctx8 = FunctionalContext(grid8192, constant_potential(1.0), f_cubic)
    err8192 = abs(energy(ctx8, gaussian_bump(grid8192, A, s)) - e_exact)
    assert err8192 <= err4096 / 3.0  # discretization, not a bias


def test_constant_potential_definitional_agreement(ctx_auto, grid4096):
    u = gaussian_bump(grid4096, 1.7, 1.2)
    assert energy(ctx_auto, u) == energy_limit(ctx_auto, u)
    assert pohozaev(ctx_auto, u) == pohozaev_limit(ctx_auto, u)


def test_energy_limit_dominates_energy(ctx_well, grid4096):
    # energy_limit - energy = (1/2) int (V_inf - V) u^2 >= 0 under domination
    rng = np.random.default_rng(5)
    for u in random_bumps(grid4096, rng, 20):
        gap = energy_limit(ctx_well, u) - energy(ctx_well, u)
        assert gap >= -1e-12 * (1.0 + h1_norm_sq(u))


def test_psi_identity_and_constant_case(ctx_auto, ctx_well, grid4096):
    rng = np.random.default_rng(6)
    for ctx in (ctx_auto, ctx_well):
        for u in random_bumps(grid4096, rng, 10):
            lhs = psi(ctx, u)
            rhs = energy(ctx, u) - pohozaev(ctx, u) / 3.0
            assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-12)
    u = gaussian_bump(grid4096, 2.0, 1.5)
    fv = fiber_values(ctx_auto, u)
    assert psi(ctx_auto, u) == pytest.approx(fv.grad / 3.0, rel=1e-14)


def test_psi_lower_bound(ctx_well_est, grid4096):
    # Psi(u) >= (1 - theta)/N ||grad u||^2 with the derivative-bound theta
    theta = ctx_well_est.theta
    assert theta == pytest.approx(0.7982, abs=1e-3)
    rng = np.random.default_rng(11)
    for u in random_bumps(grid4096, rng, 100):
        fv = fiber_values(ctx_well_est, u)
        bound = (1.0 - theta) / 3.0 * fv.grad
        assert psi(ctx_well_est, u) >= bound - 1e-10 * (1.0 + fv.grad)


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
    u = gaussian_bump(grid4096, 2.0, 1.0)
    assert iip_gap(ctx_auto, u, 1.0) == 0.0
    z = RadialFunction(grid4096, np.zeros(grid4096.n))
    assert iip_gap(ctx_auto, z, 2.0) == 0.0
    with pytest.raises(DomainError):
        iip_gap(ctx_auto, u, 0.0)


def test_iip_gap_constant_potential(ctx_auto, grid4096):
    # with V frozen at its limit and theta = 0 the slack is algebraically
    # zero; only round-off remains
    rng = np.random.default_rng(0)
    for u in random_bumps(grid4096, rng, 50, width_range=(0.5, 2.0),
                          center_max=1.5):
        scale = 1.0 + h1_norm_sq(u)
        for t in (0.5, 2.0):
            assert iip_gap(ctx_auto, u, t) >= -1e-8 * scale


def test_iip_gap_well_potential(ctx_well, ctx_well_est, grid4096):
    rng = np.random.default_rng(1)
    bumps = random_bumps(grid4096, rng, 40, width_range=(0.5, 2.0),
                         center_max=1.5)
    for ctx in (ctx_well, ctx_well_est):
        for u in bumps:
            scale = 1.0 + h1_norm_sq(u)
            for t in (0.25, 0.9, 1.1, 4.0):
                assert iip_gap(ctx, u, t) >= -1e-6 * scale


def test_hardy_gap_oracle(grid4096):
    z = RadialFunction(grid4096, np.zeros(grid4096.n))
    assert hardy_gap(z) == 0.0
    # ||grad e^{-r}||^2 - (1/4) int e^{-2r}/r^2 = pi - pi/2
    u = RadialFunction.sampled(grid4096, lambda r: np.exp(-r))
    assert hardy_gap(u) == pytest.approx(math.pi / 2.0, abs=1e-3)


def test_hardy_gap_scan(grid4096):
    rng = np.random.default_rng(2)
    for u in random_bumps(grid4096, rng, 100):
        assert hardy_gap(u) >= -1e-8


def test_hardy_gap_higher_dimension():
    g = make_grid(4, 20.0, 2048)
    u = RadialFunction.sampled(g, lambda r: np.exp(-(r**2)))
    assert hardy_gap(u) >= -1e-8


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
    assert energy(ctx_half, u) == pytest.approx(
        energy(ctx1, u) + 0.5 * fv.f_int, rel=1e-12)
    assert pohozaev(ctx_half, u) == pytest.approx(
        pohozaev(ctx1, u) + 3.0 * 0.5 * fv.f_int, rel=1e-12)
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
        mid = N * fv.ctx.V.V(tr) + tr * fv.ctx.V.dV(tr)
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


def test_iip_gap_wrapper_is_fiber_method(ctx_well, grid4096):
    from nlsground.verify import DILATIONS

    rng = np.random.default_rng(13)
    for u in random_bumps(grid4096, rng, 5, width_range=(0.5, 2.0),
                          center_max=1.5):
        fv = fiber_values(ctx_well, u)
        for t in DILATIONS:
            assert iip_gap(ctx_well, u, t) == fv.iip_gap(t)


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
    assert pohozaev_limit(ctx_well, u) == fv.pohozaev_limit() == (
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
        assert energy_limit(ctx, u) == fv.energy_limit() == (
            0.5 * (fv.grad + ctx.V.v_inf * fv.mass) - ctx.lam * fv.f_int)
        assert psi(ctx, u) == fv.psi() == fv.grad / N - fv.pot_w / (2.0 * N)
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
    assert abs(psi(ctx, u) - (energy(ctx, u) - pohozaev(ctx, u) / N)) <= 1e-14 * scale
