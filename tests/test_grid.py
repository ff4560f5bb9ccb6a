import math

import numpy as np
import pytest

from nlsground import (
    DomainError,
    RadialFunction,
    dilate,
    fiber_values,
    grad_seminorm_sq,
    integrate,
    l2_norm_sq,
    make_grid,
    pde_residual,
    constant_potential,
    FunctionalContext,
)
from conftest import gaussian_bump


def test_make_grid_unit_ball_volumes():
    g3 = make_grid(3, 30.0, 4096)
    assert g3.h == pytest.approx(30.0 / 4095, rel=1e-15)
    assert g3.omega_N == pytest.approx(4.0 * math.pi / 3.0, rel=1e-15)
    g4 = make_grid(4, 20.0, 1024)
    assert g4.omega_N == pytest.approx(math.pi**2 / 2.0, rel=1e-15)


def test_make_grid_rejects_bad_arguments():
    with pytest.raises(DomainError):
        make_grid(2, 30.0, 4096)
    with pytest.raises(DomainError):
        make_grid(3, 30.0, 8)
    with pytest.raises(DomainError):
        make_grid(3, -1.0, 4096)


def test_radial_function_invariants(grid4096):
    with pytest.raises(DomainError):
        RadialFunction(grid4096, np.ones(grid4096.n))         # nonzero tail
    with pytest.raises(DomainError):
        RadialFunction(grid4096, np.zeros(grid4096.n - 1))    # wrong length
    bad = np.zeros(grid4096.n)
    bad[5] = np.nan
    with pytest.raises(DomainError):
        RadialFunction(grid4096, bad)


def test_integrate_zero(grid4096):
    z = RadialFunction(grid4096, np.zeros(grid4096.n))
    assert integrate(z) == 0.0


def test_integrate_gaussian_oracle(grid4096):
    # int_{R^3} e^{-|x|^2} dx = pi^{3/2}
    u = RadialFunction.sampled(grid4096, lambda r: np.exp(-(r**2)))
    assert integrate(u) == pytest.approx(math.pi**1.5, abs=1e-6)


def test_integrate_exponential_oracle(grid4096):
    # 4 pi int r^2 e^{-2r} dr = pi
    u = RadialFunction.sampled(grid4096, lambda r: np.exp(-2.0 * r))
    assert integrate(u) == pytest.approx(math.pi, abs=1e-8)


def test_integrate_odd_interval_count():
    # n-1 even exercises the pure-Simpson branch
    g = make_grid(3, 30.0, 4097)
    u = RadialFunction.sampled(g, lambda r: np.exp(-2.0 * r))
    assert integrate(u) == pytest.approx(math.pi, abs=1e-8)


def test_quadrature_refinement(grid4096, grid8192):
    f = lambda r: np.exp(-2.0 * r)
    e1 = abs(integrate(RadialFunction.sampled(grid4096, f)) - math.pi)
    e2 = abs(integrate(RadialFunction.sampled(grid8192, f)) - math.pi)
    assert e2 <= e1 / 4.0  # O(h^2) or better; Simpson gives ~16x


def test_grad_seminorm_oracle(grid4096):
    # ||grad e^{-r}||^2 = 4 pi int r^2 e^{-2r} dr = pi
    u = RadialFunction.sampled(grid4096, lambda r: np.exp(-r))
    assert grad_seminorm_sq(u) == pytest.approx(math.pi, abs=1e-3)
    z = RadialFunction(grid4096, np.zeros(grid4096.n))
    assert grad_seminorm_sq(z) == 0.0


def test_grad_seminorm_quadratic_scaling(grid4096):
    u = gaussian_bump(grid4096, 1.3, 2.0)
    cu = RadialFunction(grid4096, 2.5 * u.values)
    assert grad_seminorm_sq(cu) == pytest.approx(2.5**2 * grad_seminorm_sq(u),
                                                 rel=1e-14)


def test_dilate_identity_is_bit_exact(grid4096):
    u = gaussian_bump(grid4096, 2.0, 1.5)
    v = dilate(u, 1.0)
    assert np.array_equal(v.values, u.values)


def test_dilate_rejects_nonpositive_factor(grid4096):
    u = gaussian_bump(grid4096, 1.0, 1.0)
    with pytest.raises(DomainError):
        dilate(u, 0.0)
    with pytest.raises(DomainError):
        dilate(u, -2.0)


def test_dilate_scaling_laws(grid4096):
    # ||grad u_t||^2 = t^{N-2} ||grad u||^2 and ||u_t||^2 = t^N ||u||^2
    u = gaussian_bump(grid4096, 1.0, 1.0)
    for t in (0.5, 1.7):
        ut = dilate(u, t)
        assert grad_seminorm_sq(ut) / grad_seminorm_sq(u) == pytest.approx(
            t, rel=1e-3)
        assert l2_norm_sq(ut) / l2_norm_sq(u) == pytest.approx(t**3, rel=1e-3)


def test_dilate_group_law(grid4096):
    u = gaussian_bump(grid4096, 1.0, 1.0)
    a = dilate(dilate(u, 0.6), 1.7).values
    b = dilate(u, 0.6 * 1.7).values
    assert np.max(np.abs(a - b)) < 1e-3


def test_pde_residual_zero_function(grid4096, f_cubic):
    z = RadialFunction(grid4096, np.zeros(grid4096.n))
    res = pde_residual(z, lambda r: np.ones_like(r), f_cubic.f, 1.0)
    assert np.all(res.values == 0.0)


def test_pde_residual_linear_oracle(grid4096):
    # f = 0, V = 1, u = e^{-r^2/2}: L(u) = (3 - r^2) u + u pointwise
    u = RadialFunction.sampled(grid4096, lambda r: np.exp(-(r**2) / 2.0))
    res = pde_residual(u, lambda r: np.ones_like(r),
                       lambda t: np.zeros_like(t), 0.0)
    exact = (3.0 - grid4096.r**2) * u.values + u.values
    assert np.max(np.abs(res.values[:-1] - exact[:-1])) < 1e-3


def test_pde_residual_lambda_range(grid4096, f_cubic):
    u = gaussian_bump(grid4096, 1.0, 1.0)
    with pytest.raises(DomainError):
        pde_residual(u, lambda r: np.ones_like(r), f_cubic.f, 1.5)


def test_residual_is_discrete_energy_gradient(grid4096, ctx_well):
    """Central finite differences of the energy along random directions
    match the quadrature pairing with the strong-form residual."""
    rng = np.random.default_rng(7)
    for _ in range(5):
        u = gaussian_bump(grid4096, rng.uniform(0.5, 2), rng.uniform(1, 3))
        phi_amp = rng.uniform(0.2, 1.0)
        phi_w = rng.uniform(1.0, 3.0)
        phi = RadialFunction.sampled(
            grid4096, lambda r: phi_amp * np.exp(-((r / phi_w) ** 2)) * np.cos(r))
        L = pde_residual(u, ctx_well.V.V, ctx_well.f.f, ctx_well.lam)
        inner = float(grid4096.weights @ (L.values * phi.values))
        eps = 1e-6
        up = RadialFunction(grid4096, u.values + eps * phi.values)
        um = RadialFunction(grid4096, u.values - eps * phi.values)
        dd = (fiber_values(ctx_well, up).energy()
              - fiber_values(ctx_well, um).energy()) / (2.0 * eps)
        scale = math.sqrt(l2_norm_sq(L)) * math.sqrt(l2_norm_sq(phi))
        assert abs(dd - inner) <= 1e-4 * scale


def test_energy_scaling_law_on_dilations(grid4096, f_cubic):
    """Energy of the interpolated dilation matches the closed dilation
    formula within the interpolation budget for 0.25 <= t <= 4."""
    ctx = FunctionalContext(grid4096, constant_potential(1.0), f_cubic)
    u = gaussian_bump(grid4096, 2.0, 1.5)
    fv = fiber_values(ctx, u)
    for t in (0.25, 0.5, 1.0, 2.0, 4.0):
        direct = fiber_values(ctx, dilate(u, t)).energy()
        formula = float(fv.energy_at(t)[0])
        assert abs(direct - formula) < 2e-2


def test_mesh_mismatch_rejected(grid4096, grid8192, f_cubic):
    ctx = FunctionalContext(grid4096, constant_potential(1.0), f_cubic)
    u = gaussian_bump(grid8192, 1.0, 1.0)
    with pytest.raises(DomainError):
        fiber_values(ctx, u)
