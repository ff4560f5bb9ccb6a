"""Route C's amplitude search against the plain bisection it replaced.

The reference below is the search route C ran before the functional
stage: the same bracket scan, then bisection by classification alone.
"""

import math
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlsground import (
    BracketNotFoundError,
    ConvergenceError,
    DomainError,
    SolveOptions,
    make_grid,
    power_nonlinearity,
    saturating_nonlinearity,
    shoot_oracle,
)
from nlsground import solver

# one grid step per RK4 step keeps the 18-case matrix to a few seconds;
# the search is the same at any step
COARSE = SolveOptions(ode_step=1e-2)
FAMILIES = {
    "power p=3": lambda: power_nonlinearity(3.0),
    "power p=4": lambda: power_nonlinearity(4.0),
    "saturating c=4": lambda: saturating_nonlinearity(4.0),
}


def _step(grid, opts):
    k_sub = max(1, math.ceil(grid.h / opts.ode_step))
    return grid.h / k_sub


def _classifier(f, N, lam, grid, opts):
    h = _step(grid, opts)

    def classify(a):
        kind, _, u_end, _ = solver._integrate_shot(
            a, 1.0, f.f_scalar, N, lam, h, grid.r_max, solver.BLOWUP_FACTOR)
        if kind == "decay" and abs(u_end) > 0.5 * abs(a):
            return "turn"
        return kind

    return classify


def reference_search(f, N, lam, grid, opts):
    """(u(0), classification shots) of the scan-and-bisect search."""
    shots = [0]
    raw = _classifier(f, N, lam, grid, opts)

    def classify(a):
        shots[0] += 1
        return raw(a)

    a_lo = a_hi = None
    seen = {}
    for k in range(61):
        step = (k + 1) // 2
        cand = (2.0**step if k % 2 == 1 else 2.0**-step) if k else 1.0
        c = classify(cand)
        seen[cand] = c
        if c == "turn" and (a_lo is None or cand > a_lo):
            a_lo = cand
        if c == "cross" and (a_hi is None or cand < a_hi):
            a_hi = cand
        if c == "decay":
            a_lo = a_hi = cand
            break
        if a_lo is not None and a_hi is not None:
            break
    if a_lo is None or a_hi is None:
        raise BracketNotFoundError("no bracket")
    if a_lo == a_hi:
        return a_lo, shots[0]
    lo, hi = min(a_lo, a_hi), max(a_lo, a_hi)
    lo_class = seen[lo]
    while hi - lo > opts.shoot_tol:
        mid = 0.5 * (lo + hi)
        c = classify(mid)
        if c == "decay":
            lo = hi = mid
            break
        if c == lo_class:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi), shots[0]


def counted_search(f, N, lam, grid, opts, monkeypatch, predicted=None):
    """(u(0), shots by kind) of shoot_oracle; the kinds are "classify"
    (run to r_max), "functional" (run to SHOOT_R) and "record"."""
    shots = {"classify": 0, "functional": 0, "record": 0}
    real = solver._integrate_shot

    def counting(a, v_inf, f_scalar, N, lam, h, r_end, blow, record=None):
        kind = ("record" if record is not None
                else "functional" if r_end == solver.SHOOT_R else "classify")
        shots[kind] += 1
        return real(a, v_inf, f_scalar, N, lam, h, r_end, blow, record)

    monkeypatch.setattr(solver, "_integrate_shot", counting)
    try:
        a_star = shoot_oracle(1.0, f, N, lam=lam, grid=grid, opts=opts,
                              predicted=predicted).u_at_zero
    except ConvergenceError as exc:
        # the search is under test here, not the profile's certificates
        a_star = exc.report.u_at_zero
    finally:
        monkeypatch.setattr(solver, "_integrate_shot", real)
    return a_star, shots


@pytest.mark.parametrize("lam", [1.0, 0.997])
@pytest.mark.parametrize("family", sorted(FAMILIES))
@pytest.mark.parametrize("N", [3, 4, 5])
def test_search_agrees_with_bisection(N, family, lam, monkeypatch):
    f = FAMILIES[family]()
    grid = make_grid(N, 30.0, 4096)
    tol = COARSE.shoot_tol
    try:
        a_ref, ref_shots = reference_search(f, N, lam, grid, COARSE)
    except BracketNotFoundError:
        # no ground state to find (power p=4 is supercritical for N=5)
        with pytest.raises(BracketNotFoundError):
            shoot_oracle(1.0, f, N, lam=lam, grid=grid, opts=COARSE)
        return
    a_star, shots = counted_search(f, N, lam, grid, COARSE, monkeypatch)
    assert abs(a_star - a_ref) <= tol
    classify = _classifier(f, N, lam, grid, COARSE)
    assert classify(a_star - 0.5 * tol) == "turn"
    assert classify(a_star + 0.5 * tol) == "cross"
    assert shots["classify"] <= ref_shots
    assert shots["record"] == 1


def test_readme_search_integrations(grid4096, f_cubic, rep_shoot, monkeypatch):
    # the scan-and-bisect search made 43 integrations here (42 to classify)
    a_star, shots = counted_search(f_cubic, 3, 1.0, grid4096, SolveOptions(),
                                   monkeypatch)
    assert a_star == rep_shoot.u_at_zero
    assert sum(shots.values()) <= 20
    # the scan bracket [4, 8] has both events before SHOOT_R, so the
    # functional reads its ends from their classification shots: the 8
    # false-position shots are the only ones run to SHOOT_R
    assert shots == {"classify": 8, "functional": 8, "record": 1}


@settings(max_examples=60, deadline=None)
@given(family=st.sampled_from(sorted(FAMILIES)), N=st.sampled_from([3, 4, 5]),
       a=st.floats(0.2, 40.0))
def test_early_event_is_the_functional_shot(family, N, a):
    # the reuse rests on this: a shot whose event comes by SHOOT_R ends
    # exactly as the same shot run only to SHOOT_R
    f = FAMILIES[family]()
    h = _step(make_grid(N, 30.0, 4096), COARSE)
    full = solver._integrate_shot(a, 1.0, f.f_scalar, N, 1.0, h, 30.0,
                                  solver.BLOWUP_FACTOR)
    short = solver._integrate_shot(a, 1.0, f.f_scalar, N, 1.0, h, solver.SHOOT_R,
                                   solver.BLOWUP_FACTOR)
    if full[1] <= solver.SHOOT_R:
        assert full == short
    else:
        assert short[0] == "decay"


# ----------------------------------------------------------------------
# the weight symmetry behind the sweep's predicted amplitudes
# ----------------------------------------------------------------------

@settings(max_examples=100, deadline=None)
@given(N=st.sampled_from([3, 4, 5]), frac=st.floats(0.05, 0.95),
       lam=st.floats(0.5, 1.0),
       # a = 1 is the rest point of the lam = 1 flow; that close to it the
       # class is decided by rounding, which the scaling does not preserve
       a=st.floats(0.2, 10.0).filter(lambda a: abs(a - 1.0) > 1e-6))
def test_shot_scales_with_the_weight(N, frac, lam, a):
    # with f of degree p - 1, s u solves the lam problem when u solves the
    # lam = 1 problem and lam s^(p-2) = 1; each RK4 stage scales by s and
    # every shot event is scale-invariant
    p = 2.0 + frac * (2.0 * N / (N - 2.0) - 2.0)      # p in (2, 2*)
    f = power_nonlinearity(p)
    s = lam ** (-1.0 / (f.degree - 1.0))
    h = 1e-2
    kind, r, u, v = solver._integrate_shot(a, 1.0, f.f_scalar, N, 1.0, h, 30.0,
                                           solver.BLOWUP_FACTOR)
    kind_s, r_s, u_s, v_s = solver._integrate_shot(s * a, 1.0, f.f_scalar, N, lam,
                                                   h, 30.0, solver.BLOWUP_FACTOR)
    assert (kind_s, r_s) == (kind, r)
    assert abs(u_s - s * u) <= 1e-13 * s * a
    assert abs(v_s - s * v) <= 1e-13 * s * a


_SUBCRITICAL_POWERS = [(N, p) for N in (3, 4, 5) for p in (3.0, 4.0)
                       if p < 2.0 * N / (N - 2.0)]


@pytest.mark.parametrize("lam", [0.997, 0.9986])
@pytest.mark.parametrize("N,p", _SUBCRITICAL_POWERS)
def test_predicted_search_agrees_with_unpredicted(N, p, lam, monkeypatch):
    f = power_nonlinearity(p)
    grid = make_grid(N, 30.0, 4096)
    tol = COARSE.shoot_tol
    a_one, _ = counted_search(f, N, 1.0, grid, COARSE, monkeypatch)
    a_ref, _ = counted_search(f, N, lam, grid, COARSE, monkeypatch)
    predicted = a_one * lam ** (-1.0 / (f.degree - 1.0))
    a_star, shots = counted_search(f, N, lam, grid, COARSE, monkeypatch, predicted)
    assert abs(a_star - a_ref) <= tol
    classify = _classifier(f, N, lam, grid, COARSE)
    assert classify(a_star - 0.5 * tol) == "turn"
    assert classify(a_star + 0.5 * tol) == "cross"
    # the two probes bracket the separatrix: no scan, no functional stage
    assert shots == {"classify": 2, "functional": 0, "record": 1}


@pytest.mark.parametrize("miss", [lambda a: 2.0 * a, lambda a: a + 1e-6],
                         ids=["double", "nudged"])
def test_wrong_prediction_gives_the_unpredicted_report(miss, monkeypatch):
    f = power_nonlinearity(4.0)
    grid = make_grid(3, 30.0, 4096)
    ref = shoot_oracle(1.0, f, 3, lam=0.997, grid=grid, opts=COARSE)
    predicted = miss(ref.u_at_zero)
    rep = shoot_oracle(1.0, f, 3, lam=0.997, grid=grid, opts=COARSE,
                       predicted=predicted)
    assert rep.to_dict() == ref.to_dict()
    # the two probes are all a wrong prediction costs
    _, ref_shots = counted_search(f, 3, 0.997, grid, COARSE, monkeypatch)
    _, shots = counted_search(f, 3, 0.997, grid, COARSE, monkeypatch, predicted)
    assert shots["classify"] == ref_shots["classify"] + 2
    assert {k: shots[k] for k in ("functional", "record")} == \
        {k: ref_shots[k] for k in ("functional", "record")}


@pytest.mark.parametrize("predicted", [math.nan, math.inf])
def test_nonfinite_prediction_is_a_domain_error(predicted):
    with pytest.raises(DomainError):
        shoot_oracle(1.0, power_nonlinearity(4.0), 3, predicted=predicted)


@pytest.mark.parametrize("N", [3, 5])
def test_functional_without_sign_change_falls_back_to_bisection(N, monkeypatch):
    # read that close to r = 0 every shot of the scan bracket still has
    # u ~ u(0) > 0 and u' ~ 0, so the functional is positive at both ends
    f = power_nonlinearity(3.0)
    grid = make_grid(N, 30.0, 4096)
    a_ref, _ = reference_search(f, N, 1.0, grid, COARSE)
    monkeypatch.setattr(solver, "SHOOT_R", 0.05)
    rep = shoot_oracle(1.0, f, N, grid=grid, opts=COARSE)
    assert rep.u_at_zero == a_ref
    assert rep.converged


def test_misleading_functional_is_certified(monkeypatch):
    # at r = 3 the functional's root sits far from the separatrix; the
    # classification stage must still end on a turn/cross bracket
    f = power_nonlinearity(3.0)
    grid = make_grid(4, 30.0, 4096)
    tol = COARSE.shoot_tol
    a_ref, _ = reference_search(f, 4, 1.0, grid, COARSE)
    monkeypatch.setattr(solver, "SHOOT_R", 3.0)
    a_star, shots = counted_search(f, 4, 1.0, grid, COARSE, monkeypatch)
    assert shots["functional"] > 2          # the functional stage ran
    # more than the scan's 8 shots and the 2 probes next to the root
    assert shots["classify"] > 10
    assert abs(a_star - a_ref) <= tol
    classify = _classifier(f, 4, 1.0, grid, COARSE)
    assert classify(a_star - 0.5 * tol) == "turn"
    assert classify(a_star + 0.5 * tol) == "cross"


def test_rest_point_shot_exits_with_the_full_run_outcome():
    # u = 1 is a rest point of u'' = u - u^3: the first step leaves the
    # state unchanged, and the shot returns the decay the full run reaches
    f = power_nonlinearity(4.0)
    calls = [0]

    def f_scalar(t):
        calls[0] += 1
        return f.f_scalar(t)

    h, r_end = 1e-3, 30.0
    trajectory = [1.0]
    out = solver._integrate_shot(1.0, 1.0, f_scalar, 3, 1.0, h, r_end, 10.0,
                                 record=trajectory)
    n_steps = int(round(r_end / h))
    r = 0.0
    for _ in range(n_steps):
        r += h
    assert out == ("decay", r, 1.0, 0.0)
    assert trajectory == [1.0] * (n_steps + 1)
    assert calls[0] <= 5


def test_bisection_stops_at_adjacent_floats():
    # a tolerance below the float spacing at the separatrix cannot be met;
    # the halving ends on adjacent floats instead of looping forever
    def classify(a):
        return "turn" if a < 1.0 else "cross"

    lo, hi = 1.0 - 2.0**-40, 1.0 + 2.0**-40
    a_star = solver._bisect_classes(classify, lo, hi, "turn", 1e-20)
    assert abs(a_star - 1.0) <= 2.0**-52


def _banded(lo_decay, hi_decay, calls):
    """A fake classification: turn below [lo_decay, hi_decay], decay on
    it, cross above; every amplitude classified is appended to calls."""
    def classify(a):
        calls.append(a)
        if a < lo_decay:
            return "turn"
        return "decay" if a <= hi_decay else "cross"

    return classify


def test_bisection_takes_a_decaying_midpoint():
    calls = []
    a = solver._bisect_classes(_banded(0.9, 1.1, calls), 0.0, 2.0, "turn", 1e-10)
    assert a == 1.0 and calls == [1.0]


def test_separatrix_probe_takes_a_decaying_shot():
    # the functional's root is 1.3; the first probe next to it decays
    calls, tol = [], 1e-3
    a = solver._separatrix_amplitude(_banded(1.2, 1.4, calls), lambda x: x - 1.3,
                                     1.0, 2.0, "turn", tol)
    assert calls == [a]
    assert abs(a - 1.3) <= tol


def test_scan_takes_a_decaying_shot():
    # the scan classifies 1 (turn), then 2 (decay); the functional is
    # never read
    calls = []

    def growth(a):
        raise AssertionError("the scan's decay ends the search")

    a = solver._searched_amplitude(_banded(1.5, 3.0, calls), growth, 1e-10)
    assert a == 2.0 and calls == [1.0, 2.0]


@pytest.mark.parametrize("side", [-1.0, 1.0])
def test_confirmation_probe_takes_a_decaying_shot(side):
    # the band is the probe on `side` of the prediction 1.0 alone: the
    # lower probe decays at once, or turns and the upper one decays
    tol = 1e-6
    d = solver._probe_offset(1.0, tol)
    probe, calls = 1.0 + side * d, []
    assert solver._confirmed_amplitude(_banded(probe, probe, calls), 1.0, tol) == probe
    assert calls == ([1.0 - d] if side < 0 else [1.0 - d, 1.0 + d])


def test_decaying_shot_is_reported_and_certifies(monkeypatch):
    # README's case: the fifth classification shot, the first midpoint of
    # a bracket 3.5e-10 wide, decays and ends the search
    real, kinds = solver._integrate_shot, []

    def counted(*args, **kwargs):
        out = real(*args, **kwargs)
        if args[6] != solver.SHOOT_R and kwargs.get("record") is None:
            kinds.append(out[0])
        return out

    monkeypatch.setattr(solver, "_integrate_shot", counted)
    rep = shoot_oracle(0.2, power_nonlinearity(4.0), 3, grid=make_grid(3, 30.0, 2048))
    assert kinds == ["turn", "cross", "cross", "turn", "decay"]
    assert rep.converged
    assert f"{rep.u_at_zero:.10f}" == "1.9397387394"


def test_shot_step_bound_is_checked_before_the_first_shot(monkeypatch):
    # 63 grid steps of 5 RK4 steps each: a shot is 315 steps
    grid = make_grid(3, 30.0, 64)
    f = power_nonlinearity(4.0)
    opts = SolveOptions(ode_step=0.1, shoot_tol=1e-4)
    shots = []
    real = solver._integrate_shot

    def counted(*args, **kwargs):
        shots.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(solver, "_integrate_shot", counted)
    monkeypatch.setattr(solver, "SHOOT_MAX_STEPS", 315)
    try:
        shoot_oracle(1.0, f, 3, grid=grid, opts=opts)
    except ConvergenceError:
        pass        # a 64-node grid cannot certify the profile
    assert shots
    shots.clear()
    monkeypatch.setattr(solver, "SHOOT_MAX_STEPS", 314)
    with pytest.raises(DomainError, match="SHOOT_MAX_STEPS = 314"):
        shoot_oracle(1.0, f, 3, grid=grid, opts=opts)
    assert shots == []


@pytest.mark.parametrize("ode_step", [1e-6, 5e-324])
def test_tiny_ode_step_is_rejected_at_once(ode_step):
    # 4095 * ceil(h / 1e-6) is ~3e7 steps a shot; at 5e-324, h / ode_step
    # overflows to inf
    grid = make_grid(3, 30.0, 4096)
    t0 = time.perf_counter()
    with pytest.raises(DomainError, match="SHOOT_MAX_STEPS"):
        shoot_oracle(1.0, power_nonlinearity(4.0), 3, grid=grid,
                     opts=SolveOptions(ode_step=ode_step))
    assert time.perf_counter() - t0 < 2.0
