from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nlsground import (
    DomainError,
    FunctionalContext,
    MultipleSignChangesError,
    NoSignChangeError,
    NotInLambdaError,
    PotentialSpec,
    RadialFunction,
    ZeroFunctionError,
    constant_potential,
    dilate,
    fiber_profile,
    fiber_table,
    fiber_values,
    h1_norm_sq,
    lambda_membership,
    make_grid,
    perturbed_potential,
    power_nonlinearity,
    project_fiber,
    project_to_M,
    saturating_nonlinearity,
    well_potential,
)
from nlsground import manifold
from nlsground.functionals import FiberValues
from nlsground.manifold import (
    BISECT_LOG_TOL,
    SCAN_POINTS,
    T_BRACKET,
    _scan_rows,
    false_position,
    false_position_lanes,
    fiber_membership,
    project_rows,
)
from nlsground.solver import initial_bump
from conftest import gaussian_bump, polish_rounds, random_bumps


def admissible_bumps(ctx, grid, rng, count, width_range=(0.5, 5.0),
                     center_max=5.0):
    """Random bumps rescaled in amplitude until admissible."""
    out = []
    for u in random_bumps(grid, rng, count, amp_range=(0.3, 3.0),
                          width_range=width_range, center_max=center_max):
        vals = u.values
        for _ in range(20):
            cand = RadialFunction(grid, vals)
            member, _ = lambda_membership(ctx, cand)
            if member:
                out.append(cand)
                break
            vals = 2.0 * vals
    return out


def test_membership_signs(ctx_auto, grid4096):
    big = gaussian_bump(grid4096, 3.0, 1.0)
    member, q = lambda_membership(ctx_auto, big)
    assert member and q < 0.0
    tiny = gaussian_bump(grid4096, 0.01, 1.0)
    member, q = lambda_membership(ctx_auto, tiny)
    assert (not member) and q > 0.0


def test_membership_rejects_zero(ctx_auto, grid4096):
    z = RadialFunction(grid4096, np.zeros(grid4096.n))
    with pytest.raises(ZeroFunctionError):
        lambda_membership(ctx_auto, z)
    with pytest.raises(ZeroFunctionError):
        fiber_profile(ctx_auto, z, np.array([0.5, 1.0, 2.0]))


def test_nonpositive_dilation_functional_implies_membership(ctx_well, grid4096):
    # nonzero u with P(u) <= 0 or P_inf(u) <= 0 must be admissible
    rng = np.random.default_rng(4)
    checked = 0
    for u in random_bumps(grid4096, rng, 60):
        fv = fiber_values(ctx_well, u)
        if min(fv.pohozaev(), fv.pohozaev_limit()) <= 0.0:
            member, q = lambda_membership(ctx_well, u)
            assert q < 0.0
            assert member
            checked += 1
    assert checked > 5


def test_projection_basic(ctx_auto, grid4096):
    u = gaussian_bump(grid4096, 3.0, 1.0)
    proj = project_to_M(ctx_auto, u)
    assert proj.sign_changes == 1
    assert proj.residual <= proj.tolerance
    assert abs(fiber_values(ctx_auto, proj.projected).pohozaev()) == proj.residual


def test_projection_fixed_point(ctx_auto, grid4096):
    u = gaussian_bump(grid4096, 3.0, 1.0)
    star = project_to_M(ctx_auto, u).projected
    again = project_to_M(ctx_auto, star)
    assert again.t_u == pytest.approx(1.0, abs=1e-3)


def test_projection_group_law(ctx_auto, grid4096):
    u = gaussian_bump(grid4096, 3.0, 1.0)
    star = project_to_M(ctx_auto, u).projected
    for s in (0.5, 1.7):
        moved = dilate(star, s)
        t_v = project_to_M(ctx_auto, moved).t_u
        assert t_v * s == pytest.approx(1.0, abs=1e-3)


def test_projection_requires_membership(ctx_auto, grid4096):
    tiny = gaussian_bump(grid4096, 0.01, 1.0)
    with pytest.raises(NotInLambdaError):
        project_to_M(ctx_auto, tiny)


def test_fiber_profile_shape(ctx_auto, grid4096):
    u = gaussian_bump(grid4096, 3.0, 1.0)
    t = np.geomspace(0.02, 20.0, 41)
    rows = fiber_profile(ctx_auto, u, t)
    zeta = rows[:, 1]
    assert zeta[0] > 0.0 and zeta[0] < 0.1 * np.max(zeta)   # -> 0 as t -> 0
    assert zeta[-1] < 0.0                                    # negative for large t
    t_u = project_to_M(ctx_auto, u).t_u
    t_peak = rows[np.argmax(zeta), 0]
    # peak of the tabulated fiber sits in the grid cell containing t_u
    assert abs(np.log(t_peak / t_u)) < np.log(t[1] / t[0]) * 1.5


def test_fiber_slope_matches_dilation_functional(ctx_well, grid4096):
    # d/dt zeta = P(u_t)/t: central differences of zeta agree in sign with
    # P away from the root
    u = gaussian_bump(grid4096, 3.0, 1.0)
    t = np.geomspace(0.2, 5.0, 33)
    rows = fiber_profile(ctx_well, u, t)
    zeta, p = rows[:, 1], rows[:, 2]
    dz = (zeta[2:] - zeta[:-2]) / (t[2:] - t[:-2])
    pm = p[1:-1]
    scale = np.max(np.abs(pm))
    for slope, pval in zip(dz, pm):
        if abs(pval) > 1e-3 * scale:
            assert np.sign(slope) == np.sign(pval)


def test_projection_maximizes_fiber(ctx_well, grid4096):
    # interpolated-dilation comparison, restricted to dilations that stay
    # inside the domain; beyond r_max the truncation breaks the
    # full-space fiber comparison
    rng = np.random.default_rng(9)
    checked = 0
    for u in admissible_bumps(ctx_well, grid4096, rng, 10,
                              width_range=(0.5, 1.2), center_max=1.0):
        support = grid4096.r[np.nonzero(np.abs(u.values) >
                                        1e-10 * np.max(np.abs(u.values)))[0][-1]]
        proj = project_to_M(ctx_well, u)
        level = fiber_values(ctx_well, proj.projected).energy()
        tol = 1e-3 * (1.0 + h1_norm_sq(proj.projected))
        for t in np.geomspace(0.25, 4.0, 64):
            tau = float(t * proj.t_u)
            if tau * support > grid4096.r_max:
                continue
            checked += 1
            assert level >= fiber_values(ctx_well, dilate(u, tau)).energy() - tol
    assert checked > 100


def test_projection_uniqueness_sample(ctx_well, grid4096):
    rng = np.random.default_rng(10)
    bumps = admissible_bumps(ctx_well, grid4096, rng, 60)
    assert len(bumps) >= 50
    for u in bumps:
        proj = project_to_M(ctx_well, u)
        assert proj.sign_changes == 1
        assert fiber_values(ctx_well, proj.projected).energy() > 0.0
        assert h1_norm_sq(proj.projected) > 1e-4


def test_fiber_profile_validates_grid(ctx_auto, grid4096):
    u = gaussian_bump(grid4096, 3.0, 1.0)
    with pytest.raises(DomainError):
        fiber_profile(ctx_auto, u, np.array([2.0, 1.0]))  # not ascending
    with pytest.raises(DomainError):
        fiber_profile(ctx_auto, u, np.array([-1.0, 1.0]))


def test_projection_carries_its_fiber(ctx_well, grid4096):
    u = gaussian_bump(grid4096, 3.0, 1.0, center=0.5)
    proj = project_to_M(ctx_well, u)
    ref = fiber_values(ctx_well, u)
    assert proj.fiber.u is u and proj.fiber.ctx is ctx_well
    for name in ("grad", "mass", "f_int", "pot", "pot_w"):
        assert getattr(proj.fiber, name) == getattr(ref, name)


def test_projection_dilates_only_when_its_profile_is_read(ctx_well, grid4096,
                                                          monkeypatch):
    real, calls = manifold.dilate, []

    def counted(u, t):
        calls.append(t)
        return real(u, t)

    monkeypatch.setattr(manifold, "dilate", counted)
    u = gaussian_bump(grid4096, 3.0, 1.0, center=0.5)
    proj = project_to_M(ctx_well, u)
    assert float(proj.fiber.energy_at(proj.t_u)[0]) > 0.0
    assert calls == []
    # resampled once, on the first read; tolerance and residual reuse it
    want = real(u, proj.t_u)
    assert proj.tolerance == 5e-3 * (1.0 + h1_norm_sq(want))
    assert proj.residual == abs(fiber_values(ctx_well, want).pohozaev())
    assert np.array_equal(proj.projected.values, want.values)
    assert calls == [proj.t_u]


def test_project_fiber_matches_project_to_M(ctx_well, grid4096):
    u = gaussian_bump(grid4096, 3.0, 1.0, center=0.5)
    fv = fiber_values(ctx_well, u)
    proj, ref = project_fiber(fv), project_to_M(ctx_well, u)
    assert proj.fiber is fv
    for name in ("t_u", "residual", "bracket", "sign_changes", "tolerance"):
        assert getattr(proj, name) == getattr(ref, name)
    assert np.array_equal(proj.projected.values, ref.projected.values)
    t = np.geomspace(proj.t_u / 8.0, proj.t_u * 8.0, 33)
    assert np.array_equal(fiber_table(fv, t), fiber_profile(ctx_well, u, t))
    with pytest.raises(DomainError):
        fiber_table(fv, t[::-1])


def test_projection_residual_is_computed_once(ctx_well):
    proj = project_to_M(ctx_well, initial_bump(ctx_well, 2.0, 1.5))
    real, passes = manifold.fiber_values, []

    def counted(ctx, u):
        passes.append(u)
        return real(ctx, u)

    with mock.patch("nlsground.manifold.fiber_values", counted):
        first, second = proj.residual, proj.residual
    assert len(passes) == 1
    assert first == second == abs(fiber_values(ctx_well, proj.projected).pohozaev())


# ----------------------------------------------------------------------
# the false-position polish against a plain bisection of the same scan
# ----------------------------------------------------------------------

_POLISH_GRID = make_grid(3, 30.0, 1024)
_POLISH_CONTEXTS = [
    FunctionalContext(_POLISH_GRID, V, f)
    for V in (constant_potential(1.0), well_potential(1.0, 0.2, 2.0),
              perturbed_potential(1.0, 0.5, "gaussian"))
    for f in (power_nonlinearity(4.0), saturating_nonlinearity(3.0))
]
_OUTCOMES = (NotInLambdaError, NoSignChangeError, MultipleSignChangesError)


def _full_scan(fv, t_bracket):
    """The sign scan at every one of its SCAN_POINTS points: (ts, ps, flips)."""
    ts = np.geomspace(t_bracket[0], t_bracket[1], SCAN_POINTS)
    ps = fv.pohozaev_at(ts)
    sign = np.where(ps == 0.0, 1.0, np.sign(ps))
    flips = np.nonzero(np.diff(sign))[0]
    return ts, ps, flips


def _bisection_reference(ctx, u):
    """(outcome, log t_u): the sign scan of project_to_M polished by
    bisection in log t down to BISECT_LOG_TOL."""
    member, _ = lambda_membership(ctx, u)
    if not member:
        return NotInLambdaError, None
    fv = fiber_values(ctx, u)
    ts, ps, flips = _full_scan(fv, T_BRACKET)
    if flips.size == 0:
        return NoSignChangeError, None
    if flips.size > 1:
        return MultipleSignChangesError, None
    i = int(flips[0])
    lo, hi, p_lo = np.log(ts[i]), np.log(ts[i + 1]), ps[i]
    while hi - lo > BISECT_LOG_TOL:
        mid = 0.5 * (lo + hi)
        p_mid = float(fv.pohozaev_at(np.exp(mid))[0])
        if (p_mid > 0.0) == (p_lo > 0.0):
            lo, p_lo = mid, p_mid
        else:
            hi = mid
    return None, 0.5 * (lo + hi)


def _counted_projection(ctx, u):
    """(outcome, log t_u, P(u_t) points evaluated) of project_to_M."""
    points = []
    original = FiberValues.pohozaev_at

    def counting(self, t):
        points.append(np.atleast_1d(t).size)
        return original(self, t)

    with mock.patch.object(FiberValues, "pohozaev_at", counting):
        try:
            proj = project_to_M(ctx, u)
        except _OUTCOMES as exc:
            return type(exc), None, sum(points)
    return None, float(np.log(proj.t_u)), sum(points)


_BUMP_PART = st.tuples(st.floats(-2.0, 1.3),     # log10 amplitude
                       st.floats(0.3, 5.0),      # width
                       st.floats(0.0, 5.0))      # center


@settings(max_examples=120, deadline=None)
@given(k=st.integers(0, len(_POLISH_CONTEXTS) - 1),
       parts=st.lists(_BUMP_PART, min_size=1, max_size=3))
def test_polish_matches_bisection(k, parts):
    ctx = _POLISH_CONTEXTS[k]
    r = _POLISH_GRID.r
    vals = sum(10.0**a * np.exp(-(((r - c) / w) ** 2)) for a, w, c in parts)
    vals[-1] = 0.0
    u = RadialFunction(_POLISH_GRID, vals)
    outcome, log_t, points = _counted_projection(ctx, u)
    ref_outcome, ref_log_t = _bisection_reference(ctx, u)
    assert outcome is ref_outcome
    if outcome is None:
        assert abs(log_t - ref_log_t) <= 2.0 * BISECT_LOG_TOL
        assert points <= SCAN_POINTS + 12


# ----------------------------------------------------------------------
# the polisher on its own: a root at a bracket end far from x = 0
# ----------------------------------------------------------------------

_ROOT = float(np.log(1e4))          # |x| ~ 9.2, one ulp ~ 1.8e-15


def _step(root, at_hi, calls):
    """Sign step whose change sits exactly on the bracket end ``root``;
    it caps the evaluations, so a polish that stops shrinking fails
    instead of hanging."""
    def g(x):
        calls.append(x)
        assert len(calls) < 500, "polish does not terminate"
        below = x < root if at_hi else x <= root
        return -1.0 if below else 1.0
    return g


@pytest.mark.parametrize("tol", [1e-14, 1e-16, 0.0])
@pytest.mark.parametrize("sign", [1.0, -1.0])
@pytest.mark.parametrize("at_hi", [True, False])
def test_false_position_ends_with_root_at_bracket_end(tol, sign, at_hi):
    width = np.log(10.0) / 10.0       # one cell of route B's amplitude scan
    root = sign * _ROOT
    lo, hi = (root - width, root) if at_hi else (root, root + width)
    calls = []
    g = _step(root, at_hi, calls)
    new_lo, new_hi = false_position(g, lo, hi, g(lo), g(hi), tol)
    assert lo <= new_lo <= root <= new_hi <= hi
    assert g(new_lo) < 0.0 < g(new_hi)
    # either the width is below tol or no float lies strictly inside
    assert (new_hi - new_lo <= tol
            or not new_lo < 0.5 * (new_lo + new_hi) < new_hi)
    assert len(calls) <= 2 + 64


@pytest.mark.parametrize("tol", [1e-14, 1e-16, 0.0])
@pytest.mark.parametrize("widths", [(1.0,), (1.0, 1e-3, 1e-9)])
def test_false_position_lanes_is_false_position_per_lane(tol, widths):
    # the cases above as lanes of one lockstep polish: all of one bracket
    # width, or of several, so that lanes finish at different rounds
    cases = []
    for w in widths:
        width = w * np.log(10.0) / 10.0
        for sign in (1.0, -1.0):
            for at_hi in (True, False):
                root = sign * _ROOT
                lo, hi = (root - width, root) if at_hi else (root, root + width)
                cases.append((root, at_hi, lo, hi))
    want = []
    for root, at_hi, lo, hi in cases:
        calls = []
        g = _step(root, at_hi, calls)
        g_lo, g_hi = g(lo), g(hi)
        del calls[:]
        want.append((false_position(g, lo, hi, g_lo, g_hi, tol), calls))

    trials = [[] for _ in cases]
    steps = [_step(root, at_hi, trials[k]) for k, (root, at_hi, _, _) in enumerate(cases)]
    lo, hi = [c[2] for c in cases], [c[3] for c in cases]
    g_lo = [steps[k](x) for k, x in enumerate(lo)]
    g_hi = [steps[k](x) for k, x in enumerate(hi)]
    for calls in trials:
        del calls[:]
    rounds = []

    def g(lanes, xs):
        rounds.append(lanes.tolist())
        return [steps[k](x) for k, x in zip(lanes, xs)]

    new_lo, new_hi = false_position_lanes(g, lo, hi, g_lo, g_hi, tol)
    for k, ((bracket, calls), got) in enumerate(zip(want, trials)):
        assert (new_lo[k], new_hi[k]) == bracket
        assert got == calls
    assert rounds[0] == list(range(len(cases)))
    if len(widths) > 1:
        assert len({len(r) for r in rounds}) > 1


def test_false_position_lanes_without_lanes():
    lo, hi = false_position_lanes(None, [], [], [], [], 1e-12)
    assert lo.size == hi.size == 0


# ----------------------------------------------------------------------
# projecting the rows of a stack together
# ----------------------------------------------------------------------

@pytest.mark.parametrize("k", range(len(_POLISH_CONTEXTS)))
def test_project_rows_matches_project_fiber(k):
    ctx = _POLISH_CONTEXTS[k]
    bumps = admissible_bumps(ctx, _POLISH_GRID, np.random.default_rng(k), 11)
    fv = fiber_values(ctx, np.array([u.values for u in bumps]))
    outcomes = []
    for u in bumps:
        try:
            outcomes.append((None, project_to_M(ctx, u).t_u))
        except _OUTCOMES as exc:
            outcomes.append((exc, None))
    refused = [exc for exc, _ in outcomes if exc is not None]
    if refused:
        with pytest.raises(type(refused[0])):
            project_rows(fv)
        return
    t_u = project_rows(fv)
    want = np.array([t for _, t in outcomes])
    assert np.all(np.abs(np.log(t_u / want)) <= 4.0 * BISECT_LOG_TOL)


def test_project_rows_raises_for_the_first_refused_row():
    grid = _WINDOW_GRIDS[(3, 1024)]
    ctx = FunctionalContext(grid, well_potential(1.0, 1.0, 30.0), power_nonlinearity(4.0))
    narrow = np.exp(-((grid.r / 0.3) ** 2))
    narrow[-1] = 0.0
    # amplitude 3 projects; 2.56 changes sign five times; 0.1 is not admissible
    for amps, bracket, error in [((3.0, 2.56, 0.1), T_BRACKET, MultipleSignChangesError),
                                 ((3.0, 0.1, 2.56), T_BRACKET, NotInLambdaError),
                                 ((3.0, 5.0), (1e-3, 0.05), NoSignChangeError)]:
        fv = fiber_values(ctx, np.array([a * narrow for a in amps]))
        first = next(a for a in amps
                     if _projection_outcome(fiber_values(ctx, RadialFunction(grid, a * narrow)),
                                            bracket)[0] is not None)
        with pytest.raises(error) as want:
            project_fiber(fiber_values(ctx, RadialFunction(grid, first * narrow)), bracket)
        with pytest.raises(error) as got:
            project_rows(fv, bracket)
        if error is not NotInLambdaError:
            assert str(got.value) == str(want.value)
    fv = fiber_values(ctx, np.array([a * narrow for a in (3.0, 5.0, 10.0)]))
    want = [project_fiber(fiber_values(ctx, RadialFunction(grid, a * narrow))).t_u
            for a in (3.0, 5.0, 10.0)]
    assert np.all(np.abs(np.log(project_rows(fv) / want)) <= 4.0 * BISECT_LOG_TOL)


# ----------------------------------------------------------------------
# the certified scan window against the full SCAN_POINTS scan
# ----------------------------------------------------------------------

_WINDOW_GRIDS = {(N, n): make_grid(N, 30.0, n) for N in (3, 4, 5) for n in (512, 1024)}
_WINDOW_POTENTIALS = [
    constant_potential(1.0),
    well_potential(1.0, 0.2, 2.0),           # alpha <= N
    well_potential(1.0, 0.5, 7.0),           # alpha > N for every N drawn
    well_potential(1.0, 1.0, 30.0),          # alpha > N, double roots
    perturbed_potential(1.0, 0.5, "lorentzian"),
    perturbed_potential(1.0, 0.5, "gaussian"),
]
_WINDOW_NONLINEARITIES = [power_nonlinearity(4.0), saturating_nonlinearity(3.0)]
_WINDOW_BRACKETS = [T_BRACKET, (1e-2, 10.0), (0.05, 0.5), (1.5, 40.0)]


def _scan_outcome(flips):
    if flips.size == 0:
        return NoSignChangeError
    return MultipleSignChangesError if flips.size > 1 else None


def _recorded_scan(fv, t_bracket):
    """The shared scan (_scan_rows) of one profile, a stack of one row,
    as (ts, ps, flip indices), and every t at which it evaluated P(u_t)."""
    evaluated = []
    original = FiberValues.pohozaev_at

    def recording(self, t):
        evaluated.extend(np.atleast_1d(t).tolist())
        return original(self, t)

    with mock.patch.object(FiberValues, "pohozaev_at", recording):
        ts, ps, flips = _scan_rows(fv, *t_bracket)
    return ts, ps[0], np.nonzero(flips[0])[0], evaluated


def _full_scan_row(fv, t_bracket):
    """_full_scan as the shared scan returns one profile: a stack of one row."""
    ts, ps, flips = _full_scan(fv, t_bracket)
    mask = np.zeros((1, SCAN_POINTS - 1), dtype=bool)
    mask[0, flips] = True
    return ts, ps[None], mask


def _projection_outcome(fv, t_bracket):
    try:
        proj = project_fiber(fv, t_bracket)
    except _OUTCOMES as exc:
        return type(exc), None
    return None, (proj.t_u, proj.bracket, proj.sign_changes, proj.residual)


def _assert_window_matches_full_scan(fv, t_bracket):
    ts, ps, flips, evaluated = _recorded_scan(fv, t_bracket)
    # a built-in potential's certificates hold at the points next to them,
    # so the window never falls back to the full scan
    assert len(evaluated) <= SCAN_POINTS
    ref_ts, ref_ps, ref_flips = _full_scan(fv, t_bracket)
    assert np.array_equal(ts, ref_ts)
    assert np.array_equal(flips, ref_flips)
    assert _scan_outcome(flips) is _scan_outcome(ref_flips)
    at = np.isin(ts, evaluated)
    assert np.array_equal(ps[at], ref_ps[at])
    # a skipped point holds its sign, which is the full scan's sign there
    assert np.array_equal(ps[~at], np.where(ref_ps[~at] == 0.0, 1.0, np.sign(ref_ps[~at])))
    for i in flips:
        assert at[i] and at[i + 1]
    # the projection reads the same bracket as with the full scan
    with mock.patch("nlsground.manifold._scan_rows",
                    lambda fv_, lo, hi: _full_scan_row(fv_, (lo, hi))):
        ref = _projection_outcome(fv, t_bracket)
    assert _projection_outcome(fv, t_bracket) == ref
    return int(at.sum())


@settings(max_examples=150, deadline=None)
@given(N=st.sampled_from((3, 4, 5)),
       n=st.sampled_from((512, 1024)),
       k_V=st.integers(0, len(_WINDOW_POTENTIALS) - 1),
       k_f=st.integers(0, len(_WINDOW_NONLINEARITIES) - 1),
       k_t=st.integers(0, len(_WINDOW_BRACKETS) - 1),
       parts=st.lists(_BUMP_PART, min_size=1, max_size=3))
def test_scan_window_matches_full_scan(N, n, k_V, k_f, k_t, parts):
    grid = _WINDOW_GRIDS[(N, n)]
    ctx = FunctionalContext(grid, _WINDOW_POTENTIALS[k_V], _WINDOW_NONLINEARITIES[k_f])
    vals = sum(10.0**a * np.exp(-(((grid.r - c) / w) ** 2)) for a, w, c in parts)
    vals[-1] = 0.0
    _assert_window_matches_full_scan(fiber_values(ctx, RadialFunction(grid, vals)),
                                     _WINDOW_BRACKETS[k_t])


@settings(max_examples=60, deadline=None)
@given(N=st.sampled_from((3, 4, 5)),
       k_V=st.integers(0, len(_WINDOW_POTENTIALS) - 1),
       k_f=st.integers(0, len(_WINDOW_NONLINEARITIES) - 1),
       k_t=st.integers(0, len(_WINDOW_BRACKETS) - 1),
       stack=st.lists(st.lists(_BUMP_PART, min_size=1, max_size=3),
                      min_size=1, max_size=12))
def test_scan_rows_matches_full_scan(N, k_V, k_f, k_t, stack):
    # each row's windowed scan against the full table of the same stack:
    # the same sign changes, evaluated values on both sides of each, and
    # every skipped point holding its certified sign
    grid = _WINDOW_GRIDS[(N, 512)]
    ctx = FunctionalContext(grid, _WINDOW_POTENTIALS[k_V], _WINDOW_NONLINEARITIES[k_f])
    rows = np.array([sum(10.0**a * np.exp(-(((grid.r - c) / w) ** 2)) for a, w, c in parts)
                     for parts in stack])
    rows[:, -1] = 0.0
    fv = fiber_values(ctx, rows)
    bracket = _WINDOW_BRACKETS[k_t]
    ts, ps, flips = _scan_rows(fv, *bracket)
    assert np.array_equal(ts, np.geomspace(*bracket, SCAN_POINTS))
    full = fv.pohozaev_at(ts[:, None]).T
    scale = np.abs(full).max(axis=1, keepdims=True)
    near = np.isclose(ps, full, rtol=1e-12, atol=1e-13 * scale)
    # a point away from the full value holds the sign of P there
    assert np.all(near | (ps == np.where(full >= 0.0, 1.0, -1.0)))
    full_flips = np.diff(np.where(full >= 0.0, 1.0, -1.0), axis=1) != 0.0
    tiny = np.abs(full) <= 1e-12 * scale
    assert np.all((flips == full_flips) | tiny[:, 1:] | tiny[:, :-1])
    k, f = np.nonzero(flips)
    assert np.all(near[k, f]) and np.all(near[k, f + 1])


@settings(max_examples=60, deadline=None)
@given(N=st.sampled_from((3, 4)),
       n=st.sampled_from((512, 1024)),
       k_f=st.integers(0, len(_WINDOW_NONLINEARITIES) - 1),
       amp=st.floats(1.8, 4.0),
       width=st.floats(0.2, 0.5))
def test_scan_window_matches_full_scan_near_double_roots(N, n, k_f, amp, width):
    # a narrow bump under the overshooting alpha = 30 well: P(u_t) changes
    # sign three times on the default bracket for part of this range
    grid = _WINDOW_GRIDS[(N, n)]
    ctx = FunctionalContext(grid, _WINDOW_POTENTIALS[3], _WINDOW_NONLINEARITIES[k_f])
    vals = amp * np.exp(-((grid.r / width) ** 2))
    vals[-1] = 0.0
    _assert_window_matches_full_scan(fiber_values(ctx, RadialFunction(grid, vals)),
                                     T_BRACKET)


def test_scan_window_outcomes_and_savings():
    grid = _WINDOW_GRIDS[(3, 1024)]
    narrow = np.exp(-((grid.r / 0.3) ** 2))
    narrow[-1] = 0.0
    cases = [
        # (potential, amplitude, bracket, outcome of the full scan)
        (well_potential(1.0, 0.2, 2.0), 3.0, T_BRACKET, None),
        (well_potential(1.0, 0.2, 2.0), 0.1, T_BRACKET, NoSignChangeError),
        (well_potential(1.0, 0.2, 2.0), 3.0, (1e-3, 0.05), NoSignChangeError),
        (well_potential(1.0, 0.2, 2.0), 3.0, (10.0, 1e3), NoSignChangeError),
        (well_potential(1.0, 1.0, 30.0), 2.56, T_BRACKET, MultipleSignChangesError),
        # (t r)^alpha overflows on the upper scan points
        (well_potential(1.0, 0.2, 100.0), 10.0, T_BRACKET, None),
    ]
    for V, amp, bracket, outcome in cases:
        fv = fiber_values(FunctionalContext(grid, V, power_nonlinearity(4.0)),
                          RadialFunction(grid, amp * narrow))
        assert _scan_outcome(_full_scan(fv, bracket)[2]) is outcome
        _assert_window_matches_full_scan(fv, bracket)
    # a single root on the constant potential is pinned to two scan points
    fv = fiber_values(FunctionalContext(grid, constant_potential(1.0),
                                        power_nonlinearity(4.0)),
                      RadialFunction(grid, 3.0 * narrow))
    assert _assert_window_matches_full_scan(fv, T_BRACKET) <= 3


@pytest.mark.parametrize("claimed", [5.0, 0.1, 0.0])
def test_wrong_declared_bounds_fall_back_to_full_scan(claimed):
    # the well's V and r V', declared with a range that N V + s V' leaves
    true = well_potential(1.0, 0.2, 2.0)
    liar = PotentialSpec("custom", {}, V=true.V, rdV=true.rdV, v_inf=1.0,
                         dilation_bounds=lambda N: (N * claimed, N * claimed))
    grid = _WINDOW_GRIDS[(3, 1024)]
    u = gaussian_bump(grid, 3.0, 1.0)
    fv = fiber_values(FunctionalContext(grid, liar, power_nonlinearity(4.0)), u)
    _, ps, flips, evaluated = _recorded_scan(fv, T_BRACKET)
    assert len(evaluated) > SCAN_POINTS          # window tried, then the full scan
    _, ref_ps, ref_flips = _full_scan(fv, T_BRACKET)
    assert np.array_equal(ps, ref_ps)
    assert np.array_equal(flips, ref_flips) and flips.size == 1


def test_undeclared_bounds_scan_every_point():
    true = well_potential(1.0, 0.2, 2.0)
    plain = PotentialSpec("custom", {}, V=true.V, rdV=true.rdV, v_inf=1.0)
    grid = _WINDOW_GRIDS[(3, 1024)]
    fv = fiber_values(FunctionalContext(grid, plain, power_nonlinearity(4.0)),
                      gaussian_bump(grid, 3.0, 1.0))
    _, ps, _, evaluated = _recorded_scan(fv, T_BRACKET)
    assert len(evaluated) == SCAN_POINTS
    assert np.array_equal(ps, _full_scan(fv, T_BRACKET)[1])


def _scalar_log_ratio(fv, t, p):
    """The polish coordinate at one point, read as the lockstep polish
    reads it: manifold._log_ratio on one-element arrays.  On a numpy
    scalar t ** (N - 2) is libm's pow, which differs from numpy's SIMD
    array pow by an ulp on some inputs; this reference checks the scan
    window and the polish, not that pow."""
    N = fv.ctx.grid.N
    a = 0.5 * (N - 2.0) * fv.grad
    return float(manifold._log_ratio(np.array([p]), np.array([t]), np.array([a]), N)[0])


def _scalar_projection(fv, t_bracket):
    """One profile projected by the full scan and the scalar polish in
    log t on the log-ratio of P: (t_u, bracket, sign changes), or (error
    class, message)."""
    member, q = fiber_membership(fv)
    if not member:
        return NotInLambdaError, (f"u is not admissible (q = {q:.6g} >= 0); "
                                  "no fiber maximizer exists")
    ts, ps, flips = _full_scan(fv, t_bracket)
    if flips.size == 0:
        return NoSignChangeError, (f"P(u_t) has no sign change on "
                                   f"[{t_bracket[0]:g}, {t_bracket[1]:g}]")
    if flips.size > 1:
        return MultipleSignChangesError, (f"P(u_t) changes sign {flips.size} times on "
                                          "the bracket; refine the grid instead of "
                                          "picking a root")
    i = int(flips[0])

    def g(x):
        t = np.exp(x)
        return _scalar_log_ratio(fv, t, float(fv.pohozaev_at(t)[0]))

    lo, hi = false_position(g, np.log(ts[i]), np.log(ts[i + 1]),
                            _scalar_log_ratio(fv, ts[i], ps[i]),
                            _scalar_log_ratio(fv, ts[i + 1], ps[i + 1]), BISECT_LOG_TOL)
    return float(np.exp(0.5 * (lo + hi))), (float(ts[i]), float(ts[i + 1])), int(flips.size)


@settings(max_examples=150, deadline=None)
@given(N=st.sampled_from((3, 4, 5)),
       n=st.sampled_from((512, 1024)),
       k_V=st.integers(0, len(_WINDOW_POTENTIALS) - 1),
       k_f=st.integers(0, len(_WINDOW_NONLINEARITIES) - 1),
       k_t=st.integers(0, len(_WINDOW_BRACKETS) - 1),
       parts=st.lists(_BUMP_PART, min_size=1, max_size=3))
# libm's and numpy's SIMD t ** 3.0 differ by an ulp in this one's polish
@example(N=5, n=1024, k_V=3, k_f=1, k_t=1,
         parts=[(0.7469310179069648, 2.2173627070636877, 0.7469310179069648),
                (0.7469310179069648, 0.3, 0.0)])
def test_project_fiber_is_the_scalar_projection(N, n, k_V, k_f, k_t, parts):
    # one profile through the shared scan and lockstep polish, bit for bit
    grid = _WINDOW_GRIDS[(N, n)]
    ctx = FunctionalContext(grid, _WINDOW_POTENTIALS[k_V], _WINDOW_NONLINEARITIES[k_f])
    vals = sum(10.0**a * np.exp(-(((grid.r - c) / w) ** 2)) for a, w, c in parts)
    vals[-1] = 0.0
    fv = fiber_values(ctx, RadialFunction(grid, vals))
    bracket = _WINDOW_BRACKETS[k_t]
    try:
        proj = project_fiber(fv, bracket)
    except _OUTCOMES as exc:
        got = (type(exc), str(exc))
    else:
        got = (proj.t_u, proj.bracket, proj.sign_changes)
    assert got == _scalar_projection(fv, bracket)


def test_readme_projection_evaluates_few_points(ctx_well):
    # the README config's start: the full scan alone is SCAN_POINTS points
    u = initial_bump(ctx_well, 2.0, 1.5)
    points = _counted_projection(ctx_well, u)[2]
    assert points <= 8


def test_log_ratio_has_the_sign_of_p_and_falls_back_to_p():
    N = 3
    t = np.array([1.0, 1.0, 1.0, 2.0, 1.0, 1.0, 1.0])
    a = np.array([1.0, 1.0, 1.0, 1e300, 0.0, -1.0, 1.0])
    p = np.array([0.5, -3.0, 2.0, 1e-300, -1.0, 1.0, 0.0])
    g = manifold._log_ratio(p, t, a, N)
    assert np.array_equal(np.sign(g), np.sign(p))
    assert g[0] == np.log(2.0) and g[1] == -np.log(4.0)
    # z >= 1, z rounding to zero, A = 0 and A < 0 read P itself
    assert np.array_equal(g[2:6], p[2:6])


def test_log_ratio_is_linear_in_log_t_for_a_constant_dilation_term():
    # P(u_t) = t^{N-2} (A + t^2 B) with B constant: g = log(A / -B) - 2 log t
    N, A, B = 5, 2.0, -3.0
    t = np.geomspace(0.1, 10.0, 9)
    g = manifold._log_ratio(t ** (N - 2.0) * (A + t**2 * B), t, np.full(9, A), N)
    np.testing.assert_allclose(g, np.log(A / -B) - 2.0 * np.log(t), rtol=0, atol=1e-14)


def test_readme_constant_potential_projection_polishes_in_two_points(ctx_auto):
    # the log-ratio of P is linear in log t on V = 1: the first false
    # position step lands on the root, the second closes the bracket
    with polish_rounds() as calls:
        project_to_M(ctx_auto, initial_bump(ctx_auto, 2.0, 1.5))
    assert len(calls) == 1 and len(calls[0]) <= 2


@settings(max_examples=60, deadline=None)
@given(f=st.sampled_from((power_nonlinearity(4.0), saturating_nonlinearity(3.0))),
       parts=st.lists(_BUMP_PART, min_size=1, max_size=3))
def test_constant_potential_polish_takes_at_most_three_points(f, parts):
    ctx = FunctionalContext(_POLISH_GRID, constant_potential(1.0), f)
    r = _POLISH_GRID.r
    vals = sum(10.0**a * np.exp(-(((r - c) / w) ** 2)) for a, w, c in parts)
    vals[-1] = 0.0
    with polish_rounds() as calls:
        try:
            project_to_M(ctx, RadialFunction(_POLISH_GRID, vals))
        except _OUTCOMES:
            return
    assert len(calls) == 1 and len(calls[0]) <= 3
