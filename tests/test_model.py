import dataclasses
import math
import struct
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlsground import (
    DomainError,
    NonlinearitySpec,
    PotentialSpec,
    check_F,
    check_H,
    check_potential_envelope,
    check_V1V2,
    check_V3,
    constant_potential,
    estimate_theta_V3,
    estimate_theta_V4,
    make_grid,
    perturbed_potential,
    power_nonlinearity,
    run_condition_suite,
    saturating_nonlinearity,
    well_potential,
    zero_nonlinearity,
)
from nlsground.model import F_DECAY_MARGIN, NONLINEARITY_FACTORIES


def test_constant_potential_passes_everything():
    c = constant_potential(1.0)
    assert check_V1V2(c).passed
    assert estimate_theta_V4(c, 3) == 0.0
    assert estimate_theta_V3(c, 3) == 0.0
    assert check_V3(c, 0.0, 3).passed
    assert check_potential_envelope(c, 0.0, 3).passed


def test_v1v2_well_and_violator():
    assert check_V1V2(well_potential(1.0, 0.2, 2.0)).passed
    bad = PotentialSpec(
        "custom", {},
        V=lambda r: 1.0 + 0.1 * np.exp(-np.asarray(r, dtype=float)),
        rdV=lambda r: -0.1 * r * np.exp(-np.asarray(r, dtype=float)),
        v_inf=1.0)
    rep = check_V1V2(bad)
    assert not rep.passed
    assert rep.witness["r"] < 0.01  # violation is worst at the origin


def test_v1v2_rejects_empty_radii():
    with pytest.raises(DomainError, match="empty sample set"):
        check_V1V2(constant_potential(1.0), [])


def test_theta_v4_well_family():
    # analytic supremum of 2 r^2 (r V') / (N-2)^2 is 4b (r -> infinity);
    # on the sampled range it is 4b (r_max^2/(1+r_max^2))^2
    r_max = 30.0
    expected = 4.0 * 0.2 * (r_max**2 / (1.0 + r_max**2)) ** 2
    got = estimate_theta_V4(well_potential(1.0, 0.2, 2.0), 3)
    assert got == pytest.approx(expected, rel=1e-6)
    assert abs(got / (4.0 * 0.2) - 1.0) < 0.01
    assert got < 1.0
    # b = 0.3 exceeds the admissible range
    assert estimate_theta_V4(well_potential(1.0, 0.3, 2.0), 3) > 1.0


def test_theta_v3_well_family():
    # binding constraint sits at t -> 1, r = sqrt(5): theta = 4b * 250/216
    got = estimate_theta_V3(well_potential(1.0, 0.2, 2.0), 3)
    assert got == pytest.approx(4.0 * 0.2 * 250.0 / 216.0, abs=2e-3)
    assert got < 1.0


def test_check_v3_well_pass_and_fail():
    well = well_potential(1.0, 0.2, 2.0)
    theta_ok = estimate_theta_V3(well, 3) + 1e-9
    assert check_V3(well, theta_ok, 3).passed
    rep = check_V3(well, 0.8, 3)  # below the lattice requirement ~0.926
    assert not rep.passed
    assert "t" in rep.witness and "r" in rep.witness


def test_check_v3_steep_potential_fails_at_zero_theta():
    steep = PotentialSpec(
        "custom", {},
        V=lambda r: 1.0 - np.exp(-np.asarray(r, dtype=float)),
        rdV=lambda r: r * np.exp(-np.asarray(r, dtype=float)),
        v_inf=1.0)
    rep = check_V3(steep, 0.0, 3)
    assert not rep.passed


def test_check_v3_small_well_admissible():
    # the alpha=2 well with coefficient 1/14 needs theta ~ 4.63/14 ~ 0.33
    small = well_potential(1.0, 1.0 / 14.0, 2.0)
    t3 = estimate_theta_V3(small, 3)
    assert t3 == pytest.approx(4.0 * (250.0 / 216.0) / 14.0, abs=2e-3)
    assert check_V3(small, 0.5, 3).passed


def test_potential_envelope_well():
    well = well_potential(1.0, 0.2, 2.0)
    # lower branch needs theta >= 4.5 b = 0.9 (worst radius sqrt(3));
    # at the derivative-bound estimate 0.8 it fails on the lower side
    rep = check_potential_envelope(well, 0.8, 3)
    assert not rep.passed
    assert rep.witness["side"] == "lower"
    assert 1.0 < rep.witness["r"] < 2.5
    assert check_potential_envelope(well, 0.91, 3).passed


def test_v3_implies_envelope_consistency():
    for b in (0.05, 0.1, 0.2):
        well = well_potential(1.0, b, 2.0)
        theta = estimate_theta_V3(well, 3) + 1e-9
        if theta >= 1.0:
            continue
        assert check_V3(well, theta, 3).passed
        assert check_potential_envelope(well, theta, 3).passed


def test_theta_monotonicity():
    well = well_potential(1.0, 0.2, 2.0)
    base = estimate_theta_V3(well, 3) + 1e-9
    for theta in (base, 0.5 * (base + 1.0), 0.99):
        assert check_V3(well, theta, 3).passed
        assert check_potential_envelope(well, theta, 3).passed


def test_check_f_cubic():
    rep = check_F(power_nonlinearity(4.0), 1.0, 3)
    assert rep.passed
    # F(2) = 4 > 2 = (1/2) V_inf 2^2, and the scan's witness is near the
    # smallest admissible point sqrt(2)
    assert 1.3 < rep.witness["s0"] < 1.6
    # the fitted growth constant: max of t^3/(1+t^5) = 0.51017 at (3/2)^{1/5}
    assert rep.witness["C0_fit"] == pytest.approx(0.51017, abs=5e-3)
    # decay exponent arithmetic: f(t)/t^{(N+2)/(N-2)} = t^{-2} -> 0
    assert rep.witness["large_t_ratio"] == pytest.approx(1e-4, rel=0.2)


def test_check_f_linear_fails():
    rep = check_F(power_nonlinearity(2.0), 1.0, 3)
    assert not rep.passed
    assert rep.witness["small_t_ratio"] == pytest.approx(1.0, rel=1e-6)


def test_check_f_saturating_fails_superquadraticity():
    rep = check_F(saturating_nonlinearity(0.5), 1.0, 3)
    assert not rep.passed
    assert rep.witness["s0"] is None
    # decay parts are fine; only the one-point condition fails
    assert rep.witness["small_t_ratio"] < 1e-2
    assert rep.witness["large_t_ratio"] < 1e-2


def test_check_f_huge_coeff_fails_without_warning():
    # F = 1e300 s^4 / 4 overflows on (F3)'s scan to s = 1e3 and reads inf
    # there; (F2)'s large-t ratio is what fails f
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = check_F(power_nonlinearity(4.0, 1e300), 1.0, 3)
    assert not rep.passed
    assert rep.witness["large_t_ratio"] > F_DECAY_MARGIN
    assert rep.witness["s0"] is not None


@pytest.mark.parametrize("p, coeff", [(1e308, 1.0), (4.0, 1e308)])
def test_check_f_overflowing_samples_fail_without_warning(p, coeff):
    # f overflows to inf past |t| = 1, and F - cum reads inf - inf = NaN:
    # (F2)'s large-t ratio and the antiderivative check fail f
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = check_F(power_nonlinearity(p, coeff), 1.0, 3)
    assert not rep.passed
    assert rep.witness["large_t_ratio"] == math.inf
    assert math.isnan(rep.witness["antiderivative_err"])


def test_check_f_growth_refutes_only_nan():
    # C0_fit bounds every sample by construction: (F1) fails on a NaN of
    # f and on nothing else.  NaN on 10 < |t| < 50 reaches no other part
    f = power_nonlinearity(4.0)

    def nan_mid(t):
        t = np.asarray(t, dtype=float)
        return np.where((np.abs(t) > 10.0) & (np.abs(t) < 50.0), np.nan, f.f(t))

    rep = check_F(dataclasses.replace(f, f=nan_mid), 1.0, 3)
    assert not rep.passed and math.isnan(rep.witness["C0_fit"])
    assert rep.witness["large_t_ratio"] < 1e-2 and rep.witness["s0"] is not None


def test_c0_fit_stable_under_refinement():
    f = power_nonlinearity(4.0)
    c1 = check_F(f, 1.0, 3, samples=np.geomspace(1e-4, 1e2, 257)).witness["C0_fit"]
    c2 = check_F(f, 1.0, 3, samples=np.geomspace(1e-4, 1e2, 1025)).witness["C0_fit"]
    assert abs(c1 - c2) / c2 < 0.05


def test_check_h():
    lorentz = lambda r: 1.0 / (1.0 + np.asarray(r, dtype=float) ** 2)
    dlorentz = lambda r: -2.0 * np.asarray(r, dtype=float) / (1.0 + np.asarray(r, dtype=float) ** 2) ** 2
    rep = check_H(lorentz, dlorentz, 3)
    assert rep.passed
    # sup of -r^3 h' = 2 r^4/(1+r^2)^2 -> 2
    assert rep.witness["sup_neg_r3_dh"] == pytest.approx(2.0, abs=0.05)

    zero = lambda r: np.zeros_like(np.asarray(r, dtype=float))
    assert check_H(zero, zero, 3).passed

    neg = lambda r: -np.exp(-np.asarray(r, dtype=float))
    dneg = lambda r: np.exp(-np.asarray(r, dtype=float))
    assert not check_H(neg, dneg, 3).passed


def test_condition_suite_flagship_config():
    suite = run_condition_suite(well_potential(1.0, 0.2, 2.0),
                                power_nonlinearity(4.0), 3)
    assert suite["pass"]
    assert suite["theta_min"] == pytest.approx(0.7982, abs=1e-3)
    assert suite["theta_v3"] == pytest.approx(0.9259, abs=2e-3)


def test_condition_suite_rejects_inadmissible():
    suite = run_condition_suite(well_potential(1.0, 0.3, 2.0),
                                power_nonlinearity(4.0), 3)
    assert not suite["pass"]
    assert not suite["reports"]["V4"].passed


def test_factories_reject_bad_input():
    with pytest.raises(DomainError):
        well_potential(1.0, 2.0, 2.0)  # a < b breaks nonnegativity
    with pytest.raises(DomainError):
        power_nonlinearity(1.0)
    with pytest.raises(DomainError):
        constant_potential(-1.0)


def test_condition_report_serializes():
    rep = check_V1V2(constant_potential(1.0))
    d = rep.to_dict()
    assert set(d) >= {"condition", "pass", "witness", "margin", "samples",
                      "tolerance"}


# ----------------------------------------------------------------------
# scalar form of the nonlinearity
# ----------------------------------------------------------------------

def _same_float(a: float, b: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return struct.pack("<d", a) == struct.pack("<d", b)


_TINY = 2.2250738585072014e-308    # smallest normal double
_SCALAR_ARGS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, _TINY, -_TINY, 1.0, -1.0]),
    st.floats(min_value=-_TINY, max_value=_TINY),                # subnormals
    st.floats(min_value=1.0 - 1e-6, max_value=1.0 + 1e-6),
    st.floats(min_value=-1.0 - 1e-6, max_value=-1.0 + 1e-6),
    st.floats(min_value=-1e6, max_value=1e6),
)


def _assert_scalar_matches(spec: NonlinearitySpec, t: float):
    got = spec.f_scalar(t)
    want = float(spec.f(t))
    assert type(got) is float
    assert _same_float(got, want), (spec.family, spec.params, t, got, want)


@settings(max_examples=400, deadline=None)
@given(p=st.floats(min_value=1.0, max_value=6.0, exclude_min=True),
       coeff=st.floats(min_value=0.05, max_value=20.0),
       t=_SCALAR_ARGS)
def test_power_f_scalar_bit_identical(p, coeff, t):
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        _assert_scalar_matches(power_nonlinearity(p, coeff), t)


# at p - 2 = 1/2, 1 and 2 numpy's array power is a square root, a copy
# and a square, and f writes these out: there an array, one float through
# f and f_scalar give the same floats.  At other exponents f_scalar agrees
# with f on one float only (numpy's SIMD pow and libm's differ on ~5% of
# values at p = 3.5, 4.5, 5 and 6)
_EXACT_POWERS = [2.5, 3.0, 4.0]


@settings(max_examples=300, deadline=None)
@given(p=st.sampled_from(_EXACT_POWERS), coeff=st.floats(min_value=0.05, max_value=20.0),
       ts=st.lists(_SCALAR_ARGS, min_size=1, max_size=40))
def test_power_f_arrays_agree_with_f_scalar(p, coeff, ts):
    spec = power_nonlinearity(p, coeff)
    with np.errstate(over="ignore"):
        values = spec.f(np.array(ts)).tolist()
        for t, got in zip(ts, values):
            assert _same_float(got, float(spec.f(t))), (p, coeff, t)
            assert _same_float(got, spec.f_scalar(t)), (p, coeff, t)


@pytest.mark.parametrize("p", _EXACT_POWERS)
def test_power_f_arrays_agree_with_f_scalar_densely(p):
    # libm's pow(t, 2) differs from t * t on ~0.1% of t in [0, 10]
    spec = power_nonlinearity(p)
    t = np.random.default_rng(7).uniform(-10.0, 10.0, 100_000)
    assert [spec.f_scalar(x) for x in t.tolist()] == spec.f(t).tolist()


@pytest.mark.parametrize("c", [4.0, 8.0])
def test_saturating_f_arrays_agree_with_f_scalar_densely(c):
    # t^3 is t * t * t on both paths; numpy's array t**3 differs from it on
    # ~27% of t in [0, 10]
    spec = saturating_nonlinearity(c)
    t = np.random.default_rng(7).uniform(-10.0, 10.0, 100_000)
    assert [spec.f_scalar(x) for x in t.tolist()] == spec.f(t).tolist()


@settings(max_examples=400, deadline=None)
@given(c=st.sampled_from([0.5, 1.0, 2.0, 3.7, 10.0]), t=_SCALAR_ARGS)
def test_saturating_f_scalar_bit_identical(c, t):
    _assert_scalar_matches(saturating_nonlinearity(c), t)


@settings(max_examples=100, deadline=None)
@given(t=_SCALAR_ARGS)
def test_zero_f_scalar_bit_identical(t):
    _assert_scalar_matches(zero_nonlinearity(), t)


@pytest.mark.parametrize("p", [1.25, 1.5, 2.0, 3.0, 4.0, 5.5, 10.0])
@pytest.mark.parametrize("coeff", [1.0, 0.3, -2.0])
def test_power_F_is_the_plain_formula_where_pow_underflows(p, coeff):
    # F skips pow where |t|^p rounds to 0: bit for bit the plain formula,
    # densely across that edge, at both signs, zeros and non-finite values
    spec = power_nonlinearity(p, coeff)
    edge = 2.0 ** (-1076.0 / p)
    t = np.geomspace(edge / 1e6, edge * 1e6, 400_001)
    t = np.concatenate([t, -t, [0.0, -0.0, 5e-324, np.inf, -np.inf, np.nan, 1.0,
                                np.nextafter(edge, 0.0), edge, np.nextafter(edge, 1.0)]])
    with np.errstate(over="ignore"):
        want = coeff * np.abs(t) ** p / p
        got = spec.F(t)
    assert got.tobytes() == want.tobytes()
    assert spec.F(0.5) == coeff * 0.5**p / p and spec.F(1e-300) == 0.0


@pytest.mark.parametrize("p", [1.25, 1.5, 1.999])
def test_power_f_scalar_nan_at_zero_below_two(p):
    # numpy gives |0|^{p-2} * 0 = inf * 0 = nan; float ** would raise
    spec = power_nonlinearity(p, 1.7)
    with np.errstate(divide="ignore", invalid="ignore"):
        assert math.isnan(spec.f_scalar(0.0))
        assert math.isnan(spec.f_scalar(-0.0))


def test_power_f_scalar_overflow_is_inf():
    spec = power_nonlinearity(4.0, 1.0)
    with np.errstate(over="ignore"):
        assert spec.f_scalar(1e200) == math.inf
        assert spec.f_scalar(-1e200) == -math.inf


# ----------------------------------------------------------------------
# declared dilation bounds: N V(s) + s V'(s) over a dense lattice
# ----------------------------------------------------------------------

_S_LATTICE = np.concatenate([[0.0], np.geomspace(1e-6, 1e4, 200001)])

# alpha in [1.5, 30] keeps both bounds within 1e-6 of the lattice: the
# well's N a is approached like s^-alpha, and its peak for alpha > N
# narrows in log s as alpha grows

_BUILT_IN_POTENTIALS = st.one_of(
    st.builds(constant_potential, st.floats(0.0, 5.0)),
    st.floats(0.1, 5.0).flatmap(lambda a: st.builds(
        well_potential, st.just(a), st.floats(0.0, a), st.floats(1.5, 30.0))),
    st.floats(0.1, 5.0).flatmap(lambda v: st.builds(
        perturbed_potential, st.just(v), st.floats(0.0, v),
        st.sampled_from(("lorentzian", "gaussian")))),
)


@settings(max_examples=60, deadline=None)
@given(V=_BUILT_IN_POTENTIALS, N=st.sampled_from((3, 4, 5)))
def test_declared_dilation_bounds_hold_and_are_sharp(V, N):
    w_lo, w_hi = V.dilation_bounds(N)
    vals = N * V.V(_S_LATTICE) + V.rdV(_S_LATTICE)
    scale = max(abs(w_lo), abs(w_hi), 1e-300)
    # inside, up to round-off in evaluating V and r V'
    assert vals.min() >= w_lo - 1e-13 * scale
    assert vals.max() <= w_hi + 1e-13 * scale
    # and neither bound is loose
    assert vals.min() <= w_lo + 1e-6 * scale
    assert vals.max() >= w_hi - 1e-6 * scale


def test_well_r_derivative_is_its_formula():
    # r V'(r) is s times V' as written, s alpha b s^(alpha-1) / (1 + s^alpha)^2,
    # and alpha b x / (1 + x)^2 with x = s^alpha, wherever those are normal
    # floats; no numpy warning anywhere on the lattice
    b = 0.2
    s = np.concatenate([[0.0, 5e-324, 1e-300], np.geomspace(1e-8, 1e8, 97),
                        [1e200, 1e300, np.inf]])
    for alpha in (1e-12, 0.5, 1.0, 2.0, 7.0, 100.0):
        V = well_potential(1.0, b, alpha)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = V.rdV(s)
        assert np.all(np.isfinite(got)) and np.all(got >= 0.0)
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            x = s**alpha
            as_written = s * alpha * b * s ** (alpha - 1.0) / (1.0 + x) ** 2
            in_x = alpha * b * x / (1.0 + x) ** 2
        # the written product is a reference only where alpha - 1 is exact:
        # for alpha = 1e-12 its rounding moves s^(alpha-1) by 1.5e-14 at 1e300
        refs = (as_written, in_x) if (alpha - 1.0) + 1.0 == alpha else (in_x,)
        for want in refs:
            normal = np.isfinite(want) & (want > 1e-290)
            assert normal.sum() > 25
            assert np.all(np.abs(got[normal] - want[normal]) <= 1e-15 * want[normal])


def test_well_derivative_at_the_origin():
    # V' is infinite at r = 0 for alpha < 1; r V'(r) takes its limit 0 there
    # for every alpha, with no numpy warning, on the grid and at the scan's
    # least t
    r = make_grid(3, 30.0, 512).r
    for alpha in (1e-12, 0.5, 1.0, 2.0, 7.0, 100.0):
        V = well_potential(1.0, 0.2, alpha)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for s in (r, 1e-3 * r, np.zeros(3)):
                got = V.rdV(s)
                assert np.all(np.isfinite(got)) and np.all(got >= 0.0)
                assert np.all(got[s == 0.0] == 0.0)
            assert V.rdV(0.0) == 0.0
            assert V.rdV(np.float64(0.0)) == 0.0


def test_well_derivative_is_zero_where_r_alpha_overflows():
    # where s^alpha overflows, r V'(r) is exactly its limit 0, silently,
    # for alpha below 1 too
    s = np.concatenate([np.geomspace(1e-8, 1e8, 97), [1e200, 1e300, np.inf]])
    for alpha in (1e-12, 0.5, 1.0, 2.0, 7.0, 100.0):
        V = well_potential(1.0, 0.2, alpha)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = V.rdV(s)
        with np.errstate(over="ignore"):
            overflows = ~np.isfinite(s**alpha)
        assert overflows.any()
        assert np.all(got[overflows] == 0.0)
    # r^alpha overflows at r = 1e4 for alpha = 100: N V + r V' is its
    # limit N a there
    V = well_potential(1.0, 0.2, 100.0)
    r = np.array([1e4, 1e300])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.array_equal(V.rdV(r), [0.0, 0.0])
        assert np.array_equal(V.dilation_integrand(3, r), [3.0, 3.0])


def test_well_value_is_silent_where_r_alpha_overflows():
    # r^alpha overflows at r = 1e4 for alpha = 100: V is its limit a there,
    # with no numpy overflow warning, and unchanged where r^alpha is finite
    V = well_potential(1.0, 0.2, 100.0)
    r = np.array([0.5, 1.0, 1.5, 1e4])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = V.V(r)
    assert got[-1] == 1.0
    assert np.array_equal(got[:-1], 1.0 - 0.2 / (1.0 + r[:-1] ** 100.0))


# ----------------------------------------------------------------------
# declared fact: f(c s) = c^degree f(s), over a dense (c, s) lattice
# ----------------------------------------------------------------------

_C_LATTICE = np.geomspace(1e-3, 1e3, 61)


@settings(max_examples=60, deadline=None)
@given(p=st.floats(1.0, 6.0, exclude_min=True),
       # normal coefficients: subnormal values of f carry no relative precision
       coeff=st.one_of(st.just(0.0), st.floats(1e-3, 20.0), st.floats(-20.0, -1e-3)))
def test_declared_degree_is_homogeneous(p, coeff):
    f = power_nonlinearity(p, coeff)
    assert f.degree == p - 1.0
    # s = 0 is left out: f(0) is nan for p < 2
    s = np.concatenate([-_S_LATTICE[1::50], _S_LATTICE[1::50]])
    c = _C_LATTICE[:, None]
    scaled = np.asarray(f.f(c * s), dtype=float)
    want = c ** f.degree * np.asarray(f.f(s), dtype=float)
    # a few ulp from each side's pow, amplified by the exponent
    assert np.allclose(scaled, want, rtol=1e-13, atol=0.0), (p, coeff)


def test_degree_declared_only_by_power():
    assert NONLINEARITY_FACTORIES["power"](p=3.0).degree == 2.0
    assert power_nonlinearity(1.5, -2.0).degree == 0.5
    for c in (-1.0, 0.0, 4.0):
        assert saturating_nonlinearity(c).degree is None
    assert zero_nonlinearity().degree is None
    hand_built = NonlinearitySpec("power", {}, f=np.sign, F=np.abs, f_scalar=float)
    assert hand_built.degree is None
