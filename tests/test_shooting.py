"""Route C's amplitude search against the plain bisection it replaced.

The reference below is the search route C ran before the functional
stage: the same bracket scan, then bisection by classification alone.
"""

import math
import re
import time
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nlsground import (
    BracketNotFoundError,
    ConvergenceError,
    DomainError,
    SolveOptions,
    StiffIntegrationError,
    make_grid,
    power_nonlinearity,
    saturating_nonlinearity,
    shoot_oracle,
    zero_nonlinearity,
)
from nlsground import solver
from nlsground.cli import format_json
from nlsground.manifold import false_position

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
            a, 1.0, f.f_scalar, N, lam, h, grid.r_max)
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


def _calls_by_level(calls, grid_h):
    """``shot_counter.calls`` split into those at the grid step h and the
    rest, at the ODE step."""
    coarse = [c for c in calls if c[3] == grid_h]
    return coarse, [c for c in calls if c[3] != grid_h]


def counted_search(f, N, lam, grid, opts, counter, predicted=None):
    """(u(0), work) of shoot_oracle: ``counter.counts`` (the
    ``shot_counter`` fixture) for this search alone."""
    counter.counts.update(dict.fromkeys(counter.counts, 0))
    counter.calls.clear()
    try:
        a_star = shoot_oracle(1.0, f, N, lam=lam, grid=grid, opts=opts,
                              predicted=predicted).u_at_zero
    except ConvergenceError as exc:
        # the search is under test here, not the profile's certificates
        a_star = exc.report.u_at_zero
    return a_star, dict(counter.counts)


@pytest.mark.parametrize("lam", [1.0, 0.997])
@pytest.mark.parametrize("family", sorted(FAMILIES))
@pytest.mark.parametrize("N", [3, 4, 5])
def test_search_agrees_with_bisection(N, family, lam, shot_counter):
    f = FAMILIES[family]()
    grid = make_grid(N, 30.0, 4096)
    tol = COARSE.shoot_tol
    try:
        a_ref, _ = reference_search(f, N, lam, grid, COARSE)
    except BracketNotFoundError:
        # no ground state to find (power p=4 is supercritical for N=5)
        with pytest.raises(BracketNotFoundError):
            shoot_oracle(1.0, f, N, lam=lam, grid=grid, opts=COARSE)
        return
    ref_steps = shot_counter.counts["steps"]
    a_star, shots = counted_search(f, N, lam, grid, COARSE, shot_counter)
    assert abs(a_star - a_ref) <= tol
    classify = _classifier(f, N, lam, grid, COARSE)
    assert classify(a_star - 0.5 * tol) == "turn"
    assert classify(a_star + 0.5 * tol) == "cross"
    # fewer RK4 steps than bisection's classification shots alone, the
    # functional stage and the recorded shot included
    assert shots["steps"] < ref_steps
    assert shots["record"] == 1


def test_readme_search_integrations(grid4096, f_cubic, rep_shoot, shot_counter):
    # the scan-and-bisect search made 43 integrations here (42 to classify)
    a_star, shots = counted_search(f_cubic, 3, 1.0, grid4096, SolveOptions(),
                                   shot_counter)
    assert a_star == rep_shoot.u_at_zero
    coarse, fine = _calls_by_level(shot_counter.calls, grid4096.h)
    # at the grid step: 6 scan shots, of which only the rest point
    # u(0) = 1 reaches SHOOT_R (its resume takes no step); 8 false-position
    # shots to SHOOT_R; and both ends of their bracket resumed, which turn
    # and cross (the gate)
    assert Counter(kind for kind, *_ in coarse) == {"shot": 14, "resume": 3}
    # at the ODE step: the functional at the coarse bracket's midpoint,
    # read by SHOOT_R; the predicted amplitude's recorded midpoint and the
    # probe on its far side, both resumed, which cross and turn
    assert [(kind, out) for kind, _, out, _ in fine] == [
        ("shot", "cross"), ("record", "decay"), ("resume", "cross"),
        ("shot", "decay"), ("resume", "turn")]
    # 96,224 with the whole search at the ODE step, and 118,426 before the
    # functional bracket's ends were resumed instead of probed
    assert shots["steps"] <= 53_150


def test_fine_grid_coarse_level_takes_8_ode_steps(grid8192, f_cubic, rep_shoot_8192,
                                                  shot_counter):
    # n = 8192 has 4 ODE steps per grid step: the coarse level steps at
    # 8 ODE steps, the README grid's ratio, and its prediction confirms
    a_star, shots = counted_search(f_cubic, 3, 1.0, grid8192, SolveOptions(),
                                   shot_counter)
    assert a_star == rep_shoot_8192.u_at_zero
    h = _step(grid8192, SolveOptions())
    coarse = [c for c in shot_counter.calls if c[3] != h]
    assert coarse and {step for *_, step in coarse} == {8 * h}
    # no scan at the ODE step: u(0) = 1 is shot at the coarse step alone
    assert all(a != 1.0 for _, a, _, step in shot_counter.calls if step == h)
    assert shots["record"] == 1
    # 66,263 with the coarse level at the grid step
    assert shots["steps"] <= 52_719


@settings(max_examples=60, deadline=None)
@given(family=st.sampled_from(sorted(FAMILIES)), N=st.sampled_from([3, 4, 5]),
       a=st.floats(0.2, 40.0))
def test_early_event_is_the_functional_shot(family, N, a):
    # the reuse rests on this: a shot whose event comes by SHOOT_R ends
    # exactly as the same shot run only to SHOOT_R
    f = FAMILIES[family]()
    h = _step(make_grid(N, 30.0, 4096), COARSE)
    full = solver._integrate_shot(a, 1.0, f.f_scalar, N, 1.0, h, 30.0)
    short = solver._integrate_shot(a, 1.0, f.f_scalar, N, 1.0, h, solver.SHOOT_R)
    if full[1] <= solver.SHOOT_R:
        assert full == short
    else:
        assert short[0] == "decay"


@settings(max_examples=60, deadline=None)
@given(family=st.sampled_from(sorted(FAMILIES)), N=st.sampled_from([3, 4, 5]),
       a=st.floats(0.2, 40.0))
@example(family="power p=4", N=3, a=1.0)    # a rest point: resumed at rest
def test_resumed_shot_is_the_uninterrupted_shot(family, N, a):
    # route C resumes a shot from its state at SHOOT_R; it must end, and
    # record, bit for bit what one shot from r = 0 does
    f = FAMILIES[family]()
    h = _step(make_grid(N, 30.0, 4096), COARSE)
    args = (a, 1.0, f.f_scalar, N, 1.0, h)
    whole, parts = [a], [a]
    full = solver._integrate_shot(*args, 30.0, whole)
    kind, r, u, v = solver._integrate_shot(*args, solver.SHOOT_R, parts)
    if kind == "decay":
        k = int(round(solver.SHOOT_R / h))
        assert solver._integrate_shot(*args, 30.0, parts, (u, v, r, k)) == full
    else:
        assert (kind, r, u, v) == full
    assert parts == whole


def test_frozen_cubic_reports(rep_shoot, rep_shoot_8192):
    # route C's u(0) and level on the README cubic, float for float
    assert rep_shoot.u_at_zero == 4.337387679987567
    assert rep_shoot.energy == 18.897185211661185
    # n = 8192, whose coarse level steps at 8 ODE steps (two grid steps)
    assert rep_shoot_8192.u_at_zero == 4.337387679989581
    assert rep_shoot_8192.energy == 18.897234783554477


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
    kind, r, u, v = solver._integrate_shot(a, 1.0, f.f_scalar, N, 1.0, h, 30.0)
    kind_s, r_s, u_s, v_s = solver._integrate_shot(s * a, 1.0, f.f_scalar, N, lam,
                                                   h, 30.0)
    assert (kind_s, r_s) == (kind, r)
    assert abs(u_s - s * u) <= 1e-13 * s * a
    assert abs(v_s - s * v) <= 1e-13 * s * a


_SUBCRITICAL_POWERS = [(N, p) for N in (3, 4, 5) for p in (3.0, 4.0)
                       if p < 2.0 * N / (N - 2.0)]


@pytest.mark.parametrize("lam", [0.997, 0.9986])
@pytest.mark.parametrize("N,p", _SUBCRITICAL_POWERS)
def test_predicted_search_agrees_with_unpredicted(N, p, lam, shot_counter):
    f = power_nonlinearity(p)
    grid = make_grid(N, 30.0, 4096)
    tol = COARSE.shoot_tol
    a_one, _ = counted_search(f, N, 1.0, grid, COARSE, shot_counter)
    a_ref, _ = counted_search(f, N, lam, grid, COARSE, shot_counter)
    predicted = a_one * lam ** (-1.0 / (f.degree - 1.0))
    a_star, shots = counted_search(f, N, lam, grid, COARSE, shot_counter, predicted)
    assert abs(a_star - a_ref) <= tol
    classify = _classifier(f, N, lam, grid, COARSE)
    assert classify(a_star - 0.5 * tol) == "turn"
    assert classify(a_star + 0.5 * tol) == "cross"
    # the recorded midpoint and one probe bracket the separatrix, each
    # shot to SHOOT_R and resumed: no scan, no functional stage, and the
    # midpoint's shot is the report's
    assert {k: shots[k] for k in ("shot", "resume", "record")} == \
        {"shot": 1, "resume": 2, "record": 1}


@pytest.mark.parametrize("miss", [lambda a: 2.0 * a, lambda a: a + 1e-6],
                         ids=["double", "nudged"])
def test_wrong_prediction_gives_the_unpredicted_report(miss, shot_counter):
    f = power_nonlinearity(4.0)
    grid = make_grid(3, 30.0, 4096)
    ref = shoot_oracle(1.0, f, 3, lam=0.997, grid=grid, opts=COARSE)
    predicted = miss(ref.u_at_zero)
    rep = shoot_oracle(1.0, f, 3, lam=0.997, grid=grid, opts=COARSE,
                       predicted=predicted)
    assert rep.to_dict() == ref.to_dict()
    # the two probes are all a wrong prediction costs: the kept midpoint
    # (a recorded shot) and the far probe; both miss by far more than tol
    # and cross by SHOOT_R, so neither is resumed
    _, ref_shots = counted_search(f, 3, 0.997, grid, COARSE, shot_counter)
    _, shots = counted_search(f, 3, 0.997, grid, COARSE, shot_counter, predicted)
    assert shots["shot"] == ref_shots["shot"] + 1
    assert shots["record"] == ref_shots["record"] + 1
    assert shots["resume"] == ref_shots["resume"]


@pytest.mark.parametrize("v_inf, lam", [
    (math.nan, 1.0), (math.inf, 1.0), (0.0, 1.0), (-1.0, 1.0),
    (1.0, math.nan), (1.0, -0.5), (1.0, 1.5),
])
def test_bad_argument_is_a_domain_error_before_any_shot(v_inf, lam, shot_counter):
    # NaN fails each entry check; no shot is fired for a bad argument
    with pytest.raises(DomainError):
        shoot_oracle(v_inf, power_nonlinearity(4.0), 3, lam=lam)
    assert shot_counter.calls == []


@pytest.mark.parametrize("predicted", [math.nan, math.inf, 0.0, -4.3])
def test_nonfinite_prediction_is_a_domain_error(predicted):
    # every amplitude route C shoots is positive
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


def test_misleading_functional_is_certified(monkeypatch, shot_counter):
    # at r = 3 the functional's root sits far from the separatrix; the
    # classification stage must still end on a turn/cross bracket
    f = power_nonlinearity(3.0)
    grid = make_grid(4, 30.0, 4096)
    tol = COARSE.shoot_tol
    a_ref, _ = reference_search(f, 4, 1.0, grid, COARSE)
    monkeypatch.setattr(solver, "SHOOT_R", 3.0)
    a_star, shots = counted_search(f, 4, 1.0, grid, COARSE, shot_counter)
    # every classification shot has its event past r = 3 and is resumed;
    # the functional stage's shots are not
    assert shots["shot"] - shots["resume"] > 2  # the functional stage ran
    # more than the scan's 8 shots and the bracket's ends
    assert shots["resume"] > 10
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
    out = solver._integrate_shot(1.0, 1.0, f_scalar, 3, 1.0, h, r_end,
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
    """A fake classification: turn below [lo_decay, hi_decay], cross
    above, and on it a shot that decays, which raises as route C's
    classify does; every amplitude classified is appended to calls."""
    def classify(a, record=None):
        calls.append(a)
        if a < lo_decay:
            return "turn"
        if a <= hi_decay:
            raise solver._Separatrix(a, record)
        return "cross"

    return classify


def _separatrix(stage, *args):
    """(amplitude, record) of the decaying shot that ends stage(*args)."""
    with pytest.raises(solver._Separatrix) as raised:
        stage(*args)
    return raised.value.a, raised.value.record


def test_bisection_takes_a_decaying_midpoint():
    calls = []
    assert _separatrix(solver._bisect_classes, _banded(0.9, 1.1, calls),
                       0.0, 2.0, "turn", 1e-10) == (1.0, None)
    assert calls == [1.0]


@pytest.mark.parametrize("c", ["turn", "cross"])
def test_scan_of_one_class_names_it(c):
    # every one of the scan's 61 shots turns, or every one crosses
    calls = []

    def classify(a):
        calls.append(a)
        return c

    with pytest.raises(BracketNotFoundError, match=re.escape(f"behaviors seen: ['{c}']")):
        solver._scanned_bracket(classify)
    assert len(calls) == 61


def test_scan_bracket_takes_its_lower_class_from_the_order():
    # turn below 3: 1 and 2 turn and 4 crosses; cross below 3 (a reversed
    # flow): 1, 2 and 1/2 cross and 4 turns
    assert solver._scanned_bracket(lambda a: "turn" if a < 3.0 else "cross") == \
        (2.0, 4.0, "turn")
    assert solver._scanned_bracket(lambda a: "cross" if a < 3.0 else "turn") == \
        (0.5, 4.0, "cross")


# the scan's shots of any band inside (1, 2): 1 turns and 2 crosses, so
# the scan bracket is [1, 2] with lower class "turn"
SCAN = [1.0, 2.0]


def test_separatrix_bracket_end_takes_a_decaying_shot():
    # the functional's root is 1.3; the lower end of the false-position
    # bracket, the first amplitude classified after the scan, decays
    calls, tol = [], 1e-3
    a, record = _separatrix(solver._searched_amplitude, _banded(1.2, 1.4, calls),
                            lambda x: x - 1.3, tol)
    assert calls == SCAN + [a] and record is None
    assert abs(a - 1.3) <= tol


def test_separatrix_probe_takes_a_decaying_shot():
    # the bracket's ends [1.3, 1.3005] lie on one side of a narrow band;
    # the first probe, a_g -/+ d on the far side of the ends, decays
    tol = 1e-3

    def growth(x):
        return x - 1.3

    lo_end, hi_end = false_position(growth, 1.0, 2.0, growth(1.0), growth(2.0), tol)
    # below the ends: the lower end crosses, and so must the upper one,
    # which is left unshot
    calls = []
    a, record = _separatrix(solver._searched_amplitude,
                            _banded(1.2997, 1.2998, calls), growth, tol)
    assert calls == SCAN + [lo_end, a] and 1.2997 <= a <= 1.2998
    assert record is None
    # above the ends: both turn
    calls = []
    a, record = _separatrix(solver._searched_amplitude,
                            _banded(1.3006, 1.3008, calls), growth, tol)
    assert calls == SCAN + [lo_end, hi_end, a] and 1.3006 <= a <= 1.3008
    assert record is None


def test_scan_takes_a_decaying_shot():
    # the scan classifies 1 (turn), then 2 (decay); the functional is
    # never read
    calls = []

    def growth(a):
        raise AssertionError("the scan's decay ends the search")

    assert _separatrix(solver._searched_amplitude, _banded(1.5, 3.0, calls),
                       growth, 1e-10) == (2.0, None)
    assert calls == [1.0, 2.0]


def test_separatrix_bracket_ends_that_straddle_certify():
    # both ends of the false-position bracket around the root 1.3 are
    # classified, turn and cross: no probe, and the midpoint is the result
    calls, tol = [], 1e-3

    def growth(x):
        return x - 1.3

    lo_end, hi_end = false_position(growth, 1.0, 2.0, growth(1.0), growth(2.0), tol)
    # the separatrix 1.3001 lies inside the bracket, ends [1.3, 1.3005]
    a = solver._searched_amplitude(_banded(1.3001, 0.0, calls), growth, tol)
    assert calls == SCAN + [lo_end, hi_end]
    assert a == 0.5 * (lo_end + hi_end)


@pytest.mark.parametrize("offset", [2.0, -2.0])
def test_separatrix_bracket_ends_on_one_side_are_probed_past(offset):
    # the separatrix 1.3 +/- 2 tol lies beyond the functional's bracket:
    # both ends turn (or the lower one crosses), the ends become the
    # bracket's new end, and every probe lies past them
    calls, tol = [], 1e-3
    sep = 1.3 + offset * tol

    def growth(x):
        return x - 1.3

    lo_end, hi_end = false_position(growth, 1.0, 2.0, growth(1.0), growth(2.0), tol)
    a = solver._searched_amplitude(_banded(sep, 0.0, calls), growth, tol)
    ends = [lo_end, hi_end] if offset > 0 else [lo_end]
    assert calls[: len(SCAN + ends)] == SCAN + ends
    probes = calls[len(SCAN + ends):]
    assert probes and all(p > hi_end if offset > 0 else p < lo_end for p in probes)
    assert abs(a - sep) <= tol


def test_coarse_gate_reads_a_scan_end_from_the_scan():
    # the functional's root sits a quarter tolerance above the scan's
    # lower end 1, so false position's final bracket ends on it; the gate
    # takes its class from the scan and classifies the upper end alone
    calls, tol = [], 1e-3

    def growth(x):
        return x - (1.0 + 0.25 * tol)

    lo_end, hi_end = false_position(growth, 1.0, 2.0, growth(1.0), growth(2.0), tol)
    assert lo_end == 1.0
    read = []

    def fine_growth(x):
        read.append(x)
        return growth(x)

    a = solver._coarse_prediction(_banded(1.0 + 0.125 * tol, 0.0, calls), growth,
                                  fine_growth, tol)
    assert calls == SCAN + [hi_end]
    # one read of the fine functional, at the ends' midpoint, and one
    # Newton step on the linear functional lands on its root
    assert read == [0.5 * (lo_end + hi_end)]
    assert a == pytest.approx(1.0 + 0.25 * tol, abs=1e-15)


@pytest.mark.parametrize("side", [-1.0, 1.0])
def test_confirmation_probe_takes_a_decaying_shot(side):
    # the band is the probe on `side` of the prediction 1.0 alone: the
    # midpoint 1.0 turns or crosses, and the probe on its far side decays;
    # the midpoint's recorded shot is not the reported amplitude's
    tol = 1e-6
    d = solver._probe_offset(1.0, tol)
    probe, calls = 1.0 + side * d, []
    assert _separatrix(solver._confirmed_amplitude, _banded(probe, probe, calls),
                       1.0, tol) == (probe, None)
    assert calls == [1.0, probe]


def test_confirmation_midpoint_takes_a_decaying_shot():
    # the midpoint, shot first, decays: one shot confirms the prediction,
    # and its record (u(0) alone, as the fake classification appends
    # nothing) is returned with it
    tol, calls = 1e-6, []
    assert _separatrix(solver._confirmed_amplitude, _banded(1.0, 1.0, calls),
                       1.0, tol) == (1.0, [1.0])
    assert calls == [1.0]


def test_decaying_shot_is_reported_and_certifies(shot_counter):
    # README's case, at the ODE step (the bracket's ends at the grid step
    # do not straddle, so the search runs at the ODE step alone): the
    # scan's 1 and 2 turn and cross by SHOOT_R; every later
    # classification shot is resumed past it.  The functional
    # bracket's lower end crosses (so its upper end is not classified),
    # the probes below it cross and turn, and the first midpoint of that
    # bracket, 3.5e-10 wide, decays and ends the search
    grid = make_grid(3, 30.0, 2048)
    rep = shoot_oracle(0.2, power_nonlinearity(4.0), 3, grid=grid)
    _, fine = _calls_by_level(shot_counter.calls, grid.h)
    resumed = [(a, out) for kind, a, out, _ in fine if kind == "resume"]
    assert [out for _, out in resumed] == ["cross", "cross", "turn", "decay"]
    assert rep.u_at_zero == resumed[-1][0]
    assert rep.converged
    assert f"{rep.u_at_zero:.10f}" == "1.9397387394"


# ----------------------------------------------------------------------
# the search at the grid step that predicts the root at the ODE step
# ----------------------------------------------------------------------

def _coarse_gate(f, N, grid, tol):
    """Whether the ends of the functional's final bracket at the grid
    step straddle the separatrix at that step: shoot_oracle's gate,
    restated from the search's parts."""
    classify, growth, _ = solver._shot_closures(1.0, f.f_scalar, N, 1.0, grid.h,
                                                grid.r_max)
    lo, hi, lo_class = solver._scanned_bracket(classify)
    g_lo, g_hi = growth(lo), growth(hi)
    if not g_lo * g_hi < 0.0:
        return False
    a_lo, a_hi = false_position(growth, lo, hi, g_lo, g_hi, tol)
    return {classify(a_lo), classify(a_hi)} == {"turn", "cross"}


def _certified(calls, h, a_star, tol):
    """Whether a turn and a cross among the shots at step h lie no more
    than tol apart, one on each side of a_star.  An amplitude's class is
    the outcome of its last integration: a shot that reaches SHOOT_R
    "decays" there and is resumed."""
    final = {a: out for _, a, out, step in calls if step == h}
    turns = [a for a, c in final.items() if c == "turn"]
    crosses = [a for a, c in final.items() if c == "cross"]
    return any(min(t, x) <= a_star <= max(t, x) and abs(x - t) <= tol
               for t in turns for x in crosses)


_SMALL_GRID_FAMILIES = {
    **FAMILIES,
    "saturating c=8": lambda: saturating_nonlinearity(8.0),
}


def test_straddling_coarse_brackets_certify_at_the_ode_step(monkeypatch):
    # every subcritical case of the matrix whose bracket at the grid step
    # straddles ends on a turn/cross pair at the ODE step, whether its
    # prediction confirms or the search at the ODE step runs after all.
    # The calls are logged as shot_counter logs them, without its count
    # of f_scalar evaluations, which doubles the cost of a step
    real, calls = solver._integrate_shot, []

    def logged(a, v_inf, f_scalar, N, lam, h, r_end, record=None, start=None):
        out = real(a, v_inf, f_scalar, N, lam, h, r_end, record, start)
        kind = ("resume" if start is not None
                else "record" if record is not None else "shot")
        calls.append((kind, a, out[0], h))
        return out

    monkeypatch.setattr(solver, "_integrate_shot", logged)
    opts = SolveOptions()
    tol, straddled, missed = opts.shoot_tol, [], []
    for n in (1024, 2048):
        for N in (3, 4, 5):
            for family in sorted(_SMALL_GRID_FAMILIES):
                if family == "power p=4" and N > 3:
                    continue        # critical or supercritical
                f = _SMALL_GRID_FAMILIES[family]()
                grid = make_grid(N, 30.0, n)
                if not _coarse_gate(f, N, grid, tol):
                    continue
                straddled.append((n, N, family))
                calls.clear()
                try:
                    a_star = shoot_oracle(1.0, f, N, grid=grid).u_at_zero
                except ConvergenceError as exc:
                    a_star = exc.report.u_at_zero  # a small grid's residuals
                h = _step(grid, opts)
                assert _certified(calls, h, a_star, tol), (n, N, family)
                # a confirmed prediction records its midpoint's shot, the
                # report's; a missed one, like a sweep row's, keeps that
                # shot unused, and the search that follows records one more
                searched = any(a == 1.0 for _, a, _, step in calls if step == h)
                if searched:
                    missed.append((n, N, family))
                records = [kind for kind, *_ in calls].count("record")
                assert records == 1 + searched, (n, N, family)
    # 7 of 11 cases at n = 1024 and 6 of 11 at n = 2048
    assert len(straddled) == 13
    # 30 RK4 steps per grid step at n = 1024: there one Newton step from
    # the coarse root misses the separatrix by 1.5e-10 to 1.5e-9
    assert missed == [(1024, 3, "power p=4"), (1024, 4, "saturating c=4"),
                      (1024, 4, "saturating c=8"), (1024, 5, "saturating c=8")]


def test_coarse_level_never_records(grid4096, f_cubic, shot_counter, monkeypatch):
    # inside the search at the grid step every call but its one read of
    # the functional at the ODE step is a shot or a resume at step
    # grid.h; every call after it is at the ODE step, and one records
    real, calls, inside = solver._coarse_prediction, shot_counter.calls, []

    def watched(*args):
        try:
            return real(*args)
        finally:
            inside.extend(calls)

    monkeypatch.setattr(solver, "_coarse_prediction", watched)
    shoot_oracle(1.0, f_cubic, 3, grid=grid4096)
    h = _step(grid4096, SolveOptions())
    coarse, fine = _calls_by_level(inside, grid4096.h)
    assert {kind for kind, *_ in coarse} == {"shot", "resume"}
    assert [(kind, step) for kind, _, _, step in fine] == [("shot", h)]
    after = calls[len(inside):]
    assert {step for *_, step in after} == {h}
    assert [kind for kind, *_ in after].count("record") == 1


def test_non_straddling_search_is_the_ode_step_search(shot_counter, monkeypatch):
    # V_inf = 0.2: the lower end of the functional's bracket at the grid
    # step crosses, so no prediction is made and the search at the ODE
    # step runs shot for shot as it does alone, to the same report
    f, grid = power_nonlinearity(4.0), make_grid(3, 30.0, 2048)
    rep = shoot_oracle(0.2, f, 3, grid=grid)
    coarse, fine = _calls_by_level(shot_counter.calls, grid.h)
    assert coarse
    shot_counter.calls.clear()
    monkeypatch.setattr(solver, "_coarse_prediction", lambda *args: None)
    alone = shoot_oracle(0.2, f, 3, grid=grid)
    assert shot_counter.calls == fine
    assert format_json(rep.to_dict()) == format_json(alone.to_dict())
    # the report of the search at the ODE step alone, float for float
    assert rep.u_at_zero == 1.9397387394038188
    assert rep.energy == 8.451084049218316


def test_decaying_grid_step_shot_leaves_the_search_to_the_ode_step(shot_counter,
                                                                  monkeypatch):
    # the gate's lower end at the grid step, made to fade to 0 by r_max,
    # decays: the search at the grid step ends there without a
    # prediction, and the search at the ODE step runs shot for shot as
    # it does alone, to the same report; the decay never reaches the caller
    f, grid = power_nonlinearity(4.0), make_grid(3, 30.0, 4096)
    counted = solver._integrate_shot

    def fading(a, v_inf, f_scalar, N, lam, h, r_end, record=None, start=None):
        out = counted(a, v_inf, f_scalar, N, lam, h, r_end, record, start)
        if h == grid.h and start is not None and a != 1.0:
            return "decay", r_end, 0.0, 0.0
        return out

    monkeypatch.setattr(solver, "_integrate_shot", fading)
    rep = shoot_oracle(1.0, f, 3, grid=grid)
    coarse, fine = _calls_by_level(shot_counter.calls, grid.h)
    # the scan's rest point u(0) = 1 and the gate's lower end are resumed;
    # the upper end is never shot
    assert [kind for kind, *_ in coarse].count("resume") == 2
    shot_counter.calls.clear()
    monkeypatch.setattr(solver, "_coarse_prediction", lambda *args: None)
    alone = shoot_oracle(1.0, f, 3, grid=grid)
    assert shot_counter.calls == fine
    assert format_json(rep.to_dict()) == format_json(alone.to_dict())


@pytest.mark.parametrize("p, n, error", [(5.0, 64, BracketNotFoundError),
                                          (8.0, 16, StiffIntegrationError)])
def test_failed_coarse_search_leaves_the_search_to_the_ode_step(p, n, error,
                                                                monkeypatch):
    # at the grid step of r_max = 10 the scan finds no cross (p = 5), or a
    # shot overflows (p = 8); the search at the ODE step then runs as it
    # does alone, to its report (p = 5) or its own error (p = 8)
    grid, f = make_grid(3, 10.0, n), power_nonlinearity(p)
    classify, *_ = solver._shot_closures(1.0, f.f_scalar, 3, 1.0, grid.h, grid.r_max)

    def outcome():
        try:
            return shoot_oracle(1.0, f, 3, grid=grid).to_dict()
        except ConvergenceError as exc:
            return exc.report.to_dict()     # too few nodes to certify
        except StiffIntegrationError as exc:
            return str(exc)

    with np.errstate(over="ignore"):
        with pytest.raises(error):
            solver._scanned_bracket(classify)
        got = outcome()
        monkeypatch.setattr(solver, "_coarse_prediction", lambda *args: None)
        assert got == outcome()


def test_grid_step_shots_search_at_one_level(monkeypatch, shot_counter):
    # with k_sub == 1 there is no coarser step: the search and its report
    # are those of the search at one level
    def unreachable(*args):
        raise AssertionError("no search at a coarser step when k_sub == 1")

    monkeypatch.setattr(solver, "_coarse_prediction", unreachable)
    grid = make_grid(3, 30.0, 4096)
    a_star, shots = counted_search(power_nonlinearity(4.0), 3, 1.0, grid, COARSE,
                                   shot_counter)
    assert {step for *_, step in shot_counter.calls} == {grid.h}
    assert shots == {"shot": 14, "record": 1, "resume": 3, "steps": 12_046}
    assert a_star == 4.337387720163697


def test_tail_falls_back_to_the_linear_decay_rate():
    # one RK4 step per grid step of 2: the saturating separatrix shot
    # stays above 100x its value at the event for its first three points
    # only, too few to measure a decay rate, so the tail decays at
    # kappa = sqrt(V_inf)
    grid = make_grid(3, 30.0, 16)
    try:
        rep = shoot_oracle(1.0, saturating_nonlinearity(4.0), 3, grid=grid,
                           opts=SolveOptions(ode_step=grid.h))
    except ConvergenceError as exc:
        rep = exc.report        # a 16-node grid cannot certify the profile
    vals = rep.u_star.values
    assert vals[3:-1] / vals[2:-2] == pytest.approx(math.exp(-grid.h), rel=1e-12)


def test_shot_step_bound_is_checked_before_the_first_shot(monkeypatch, shot_counter):
    # 63 grid steps of 5 RK4 steps each: a shot is 315 steps
    grid = make_grid(3, 30.0, 64)
    f = power_nonlinearity(4.0)
    opts = SolveOptions(ode_step=0.1, shoot_tol=1e-4)
    shots = shot_counter.calls
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


# ----------------------------------------------------------------------
# route C's kernels: the scalar form written into the stages, or called
# ----------------------------------------------------------------------

# every scalar form a factory states, at constants other than 1
INLINED = {
    "power p=2.5": lambda: power_nonlinearity(2.5, 1.7),
    "power p=3": lambda: power_nonlinearity(3.0, 0.6),
    "power p=4": lambda: power_nonlinearity(4.0, 2.5),
    "saturating c=3": lambda: saturating_nonlinearity(3.0),
    "saturating c=4": lambda: saturating_nonlinearity(4.0),
    "saturating c=8": lambda: saturating_nonlinearity(8.0),
    "zero": zero_nonlinearity,
}


def _kernel_runs(f_scalar, args, record=False, start=None):
    """{kernel: (outcome, r, u, v) and the record, or the error's class
    and message} of one shot (args up to r_end) by three kernels:
    _integrate_shot's with f_scalar ("own") and with a wrapper of it that
    carries no scalar form ("called"), which fold their unit factors, and
    the kernel of f_scalar's own form with nothing folded ("unfolded")."""
    expr, consts = getattr(f_scalar, "scalar_form", solver._CALL_FORM)
    unfolded = solver._shot_kernel(expr, tuple(consts), ())

    def shoot_unfolded(*shot_args):
        return unfolded(*shot_args, **consts)

    runs = {}
    for kernel, shoot, f in (("own", solver._integrate_shot, f_scalar),
                             ("called", solver._integrate_shot, lambda t: f_scalar(t)),
                             ("unfolded", shoot_unfolded, f_scalar)):
        trajectory = [args[0]] if record else None
        try:
            out = shoot(args[0], args[1], f, *args[2:], trajectory, start)
        except StiffIntegrationError as exc:
            out = (type(exc), str(exc))
        runs[kernel] = (out, trajectory)
    return runs


def _agree(runs):
    return runs["own"] == runs["called"] == runs["unfolded"]


def _resting_at_R(f_scalar, v_inf, N, lam, h):
    """An amplitude whose shot at step h reaches SHOOT_R without an
    event: the search's scan, then halving on the class at SHOOT_R, up
    to the first shot that reaches it.  None where every scanned shot
    turns (f = 0, or a supercritical power)."""
    def at_R(a):
        kind = solver._integrate_shot(a, v_inf, f_scalar, N, lam, h, solver.SHOOT_R)[0]
        if kind == "decay":
            raise solver._Separatrix(a, None)
        return kind
    try:
        lo, hi, lo_class = solver._scanned_bracket(at_R)
        return solver._bisect_classes(at_R, lo, hi, lo_class, 0.0)
    except BracketNotFoundError:
        return None
    except solver._Separatrix as resting:
        return resting.a


def _assert_kernels_agree(f_scalar, v_inf, N, lam, n, step):
    """The three kernels of _kernel_runs end, and record, float for float
    at amplitudes 0.5, 2 and one whose shot reaches SHOOT_R, plain,
    recorded and resumed from SHOOT_R, on a grid of n nodes to r = 30 at
    its step or at COARSE's ODE step (2 RK4 steps a node at n = 2048, 3
    at n = 1024)."""
    grid = make_grid(N, 30.0, n)
    h = grid.h if step == "grid" else _step(grid, COARSE)
    amplitudes, start = [0.5, 2.0], None
    a_R = _resting_at_R(f_scalar, v_inf, N, lam, h)
    if a_R is not None:
        amplitudes.append(a_R)
        to_R = _kernel_runs(f_scalar, (a_R, v_inf, N, lam, h, solver.SHOOT_R), True)
        assert _agree(to_R)
        (kind, r, u, v), _ = to_R["own"]
        assert kind == "decay"
        start = (u, v, r, int(round(solver.SHOOT_R / h)))
    for a in amplitudes:
        for record in (False, True):
            runs = _kernel_runs(f_scalar, (a, v_inf, N, lam, h, grid.r_max), record)
            assert _agree(runs), (a, record)
            if a == a_R:
                resumed = _kernel_runs(f_scalar, (a, v_inf, N, lam, h, grid.r_max),
                                       record, start)
                assert _agree(resumed), record
                assert resumed["own"][0] == runs["own"][0]


@pytest.mark.parametrize("step", ["grid", "ode"])
@pytest.mark.parametrize("N", [3, 4, 5])
@pytest.mark.parametrize("family", sorted(INLINED))
def test_inlined_kernel_is_the_called_kernel(family, N, step):
    # the stages that write f's expression end, and record, float for
    # float as the stages that call f_scalar and as the stages that
    # keep the unit factors V_inf = lam = 1: plain, recorded and resumed
    f_scalar = INLINED[family]().f_scalar
    assert f_scalar.scalar_form[0] != solver._CALL_FORM[0]
    _assert_kernels_agree(f_scalar, 1.0, N, 1.0, 2048, step)


# the forms whose leading constant is 1.0, which the stages leave out,
# next to INLINED's, which they keep
FOLDED = {
    **INLINED,
    "power p=2.5 coeff=1": lambda: power_nonlinearity(2.5),
    "power p=3 coeff=1": lambda: power_nonlinearity(3.0),
    "power p=4 coeff=1": lambda: power_nonlinearity(4.0),
    "saturating c=1": lambda: saturating_nonlinearity(1.0),
}


@pytest.mark.parametrize("v_inf, lam", [(1.0, 1.0), (1.0, 0.9), (0.2, 1.0), (0.2, 0.9)])
@pytest.mark.parametrize("N, step", [(3, "grid"), (4, "ode"), (5, "grid"), (3, "ode")])
@pytest.mark.parametrize("family", sorted(FOLDED))
def test_folded_kernels_are_the_unfolded_kernel(family, N, step, v_inf, lam):
    # each kernel that leaves out a factor V_inf, lam or leading constant
    # equal to 1.0 gives the floats of the kernel that keeps them all
    _assert_kernels_agree(FOLDED[family]().f_scalar, v_inf, N, lam, 1024, step)


def test_only_a_leading_unit_constant_folds():
    # 1.0000000000000002 is not 1.0, a 1.0 that does not lead the product
    # is kept, and so is a unit that is no float
    cube = "coeff * (t * t) * t"
    assert solver._unit_folds(cube, {"coeff": 1.0}, 1.0, 1.0) == ("v_inf", "lam", "coeff")
    assert solver._unit_folds(cube, {"coeff": 1.0000000000000002}, 0.2, 0.9) == ()
    assert solver._unit_folds("(t * t) * t * coeff", {"coeff": 1.0}, 0.2, 1.0) == ("lam",)
    assert solver._unit_folds("t * coeff", {"coeff": 1.0}, 1.0, 0.9) == ("v_inf",)
    assert solver._unit_folds("coeff", {"coeff": 1.0}, 0.2, 0.9) == ()
    assert solver._unit_folds(cube, {"coeff": np.float64(1.0)}, 1, 0.9) == ()
    assert solver._unit_folds(*solver._CALL_FORM, 1.0, 1.0) == ("v_inf", "lam")
    # the constant next to 1.0 is kept, and its floats are its own
    near = power_nonlinearity(4.0, 1.0000000000000002).f_scalar
    runs = _kernel_runs(near, (2.0, 1.0, 3, 1.0, 1e-2, 30.0), True)
    assert _agree(runs)
    assert runs["own"] != _kernel_runs(power_nonlinearity(4.0).f_scalar,
                                       (2.0, 1.0, 3, 1.0, 1e-2, 30.0), True)["own"]


def test_call_form_runs_power_at_other_exponents():
    # |t|^1.5 has no scalar form: its own f_scalar is called at each stage
    f = power_nonlinearity(3.5, 1.3)
    assert not hasattr(f.f_scalar, "scalar_form")
    h = _step(make_grid(3, 30.0, 2048), COARSE)
    for a in (0.5, 2.0, 3.0):
        for record in (False, True):
            runs = _kernel_runs(f.f_scalar, (a, 1.0, 3, 1.0, h, 30.0), record)
            assert _agree(runs)


@pytest.mark.parametrize("N", [3, 4, 5])
def test_kernels_stop_at_the_rest_point_alike(N):
    # u = 1 on u - u^3: both kernels take the rest-point exit, recorded
    # or not, from r = 0 or resumed at rest
    f_scalar = power_nonlinearity(4.0).f_scalar
    h, r_end = 1e-3, 30.0
    n_steps = int(round(r_end / h))
    r = 0.0
    for _ in range(n_steps):
        r += h
    _, r_5, u_5, v_5 = solver._integrate_shot(1.0, 1.0, f_scalar, N, 1.0, h, 5 * h)
    for start in (None, (u_5, v_5, r_5, 5)):
        for record in (False, True):
            runs = _kernel_runs(f_scalar, (1.0, 1.0, N, 1.0, h, r_end), record, start)
            assert _agree(runs)
            assert runs["own"][0] == ("decay", r, 1.0, 0.0)


def test_kernels_take_the_blowup_turn_alike():
    # a step of 1/2 on V_inf = 25 overshoots past 10 u(0) while u' < 0
    f_scalar = power_nonlinearity(4.0, 2.5).f_scalar
    runs = _kernel_runs(f_scalar, (5.0, 25.0, 3, 1.0, 0.5, 30.0), True)
    assert _agree(runs)
    kind, _, u, v = runs["own"][0]
    assert kind == "turn" and u > solver.BLOWUP_FACTOR * 5.0 and v < 0.0


@pytest.mark.parametrize("p, a", [(1.5, 0.0), (4.0, 1e110)])
def test_kernels_raise_the_same_stiff_error(p, a):
    # f(0) is nan for p < 2 (called); (t * t) * t overflows at 1e110 (inlined)
    f_scalar = power_nonlinearity(p).f_scalar
    with np.errstate(divide="ignore", invalid="ignore"):
        runs = _kernel_runs(f_scalar, (a, 1.0, 3, 1.0, 1e-3, 1.0), True)
    assert _agree(runs)
    assert runs["own"][0] == (StiffIntegrationError, "shooting integration "
                              "produced non-finite values at r=0.001")


def test_readme_search_runs_the_inlined_kernel(grid4096, monkeypatch):
    # the benchmark's shots: power p = 4's own f_scalar writes its
    # expression into the stages without its unit factors V_inf, lam and
    # coeff, and no shot runs the kernel that calls f; at coeff = 2.5 the
    # stages keep coeff
    real, keys = solver._shot_kernel, []

    def logged(expr, names, folds):
        keys.append((expr, names, folds))
        return real(expr, names, folds)

    monkeypatch.setattr(solver, "_shot_kernel", logged)
    cube = ("coeff * (t * t) * t", ("coeff",))
    f = power_nonlinearity(4.0)
    assert f.f_scalar.scalar_form == (cube[0], {"coeff": 1.0})
    shoot_oracle(1.0, f, 3, grid=grid4096)
    assert keys and set(keys) == {(*cube, ("v_inf", "lam", "coeff"))}
    keys.clear()
    shoot_oracle(1.0, power_nonlinearity(4.0, 2.5), 3, grid=grid4096)
    assert keys and set(keys) == {(*cube, ("v_inf", "lam"))}
    folded = real(*cube, ("v_inf", "lam", "coeff"))
    assert folded is not real(*cube, ("v_inf", "lam"))
    assert folded is not real(solver._CALL_FORM[0], (), ("v_inf", "lam"))
