"""Potential / nonlinearity specifications and executable hypothesis checkers.

Potentials must be continuous, nonnegative, and dominated by their limit
at infinity; the decay of the radial derivative is measured by a
parameter theta in [0, 1).  Nonlinearities follow the classical minimal
growth assumptions: subcritical bound with constant C0, o(t) at zero and
o(|t|^{(N+2)/(N-2)}) at infinity, plus one point s0 where the
antiderivative beats (V_inf/2) s0^2.

All checkers certify on sampled lattices only: they refute with a
witness but cannot certify globally.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields
from typing import Callable, Optional

import numpy as np

from .errors import DomainError

__all__ = [
    "PotentialSpec",
    "NonlinearitySpec",
    "Report",
    "ConditionReport",
    "constant_potential",
    "well_potential",
    "perturbed_potential",
    "power_nonlinearity",
    "saturating_nonlinearity",
    "zero_nonlinearity",
    "POTENTIAL_FACTORIES",
    "NONLINEARITY_FACTORIES",
    "default_radii",
    "g_of_t",
    "check_V1V2",
    "estimate_theta_V4",
    "estimate_theta_V3",
    "check_V3",
    "check_F",
    "check_H",
    "check_potential_envelope",
    "run_condition_suite",
]

# default sampling lattices for the checkers
T_LATTICE_SIZE = 128
R_LATTICE_SIZE = 256
# checker thresholds
NONNEG_TOL = 1e-12       # slack of V >= 0, V <= V_inf and h >= 0
V3_TOL = 1e-10           # slack of the two-point decay condition and its envelope
F_DECAY_MARGIN = 1e-2    # bound on both (F2) ratios
F_QUAD_TOL = 1e-6        # floor of the antiderivative check's tolerance
H_CAP = 1e6              # bound on sup_r [-r^3 h'(r)]


def default_radii(r_max: float = 30.0) -> np.ndarray:
    return np.geomspace(1e-3, r_max, R_LATTICE_SIZE)


def g_of_t(t: float, N: int) -> float:
    """2 - N t^{N-2} + (N-2) t^N; zero at t = 1, positive elsewhere."""
    if np.any(np.asarray(t) < 0):
        raise DomainError("g is defined for t >= 0")
    t = np.asarray(t, dtype=float)
    out = 2.0 - N * t ** (N - 2.0) + (N - 2.0) * t**N
    return float(out) if out.ndim == 0 else out


def _check_theta(theta: float):
    """DomainError unless theta is a decay parameter, in [0, 1)."""
    if not (0.0 <= theta < 1.0):
        raise DomainError(f"theta must lie in [0, 1), got {theta}")


@dataclass(frozen=True)
class PotentialSpec:
    """Radial potential with r V'(r), limit at infinity, decay parameter.

    ``rdV`` is r V'(r), the radial form of grad V(x) . x: the hypotheses
    and the dilation identity read V' only through it.

    ``theta`` is the declared decay parameter (None means: estimate it
    from the derivative bound when a dimension is available, see
    :func:`estimate_theta_V4`).

    ``dilation_bounds`` maps a dimension N to (w_lo, w_hi) with
    w_lo <= dilation_integrand(N, s) <= w_hi for every s >= 0: a proven
    range of the integrand of the dilation term of P(u_t), up to round-off
    in evaluating V and r V'.  The built-in factories set it; the fiber
    projection uses it to skip scan points whose sign of P(u_t) it
    certifies.  None (a hand-built spec) means every scan point is
    evaluated.  A declared range that does not hold voids that
    certificate; the scan falls back to evaluating every point only when
    a point it evaluates contradicts its certified sign.
    """

    family: str
    params: dict
    V: Callable[[np.ndarray], np.ndarray]
    rdV: Callable[[np.ndarray], np.ndarray]
    v_inf: float
    theta: Optional[float] = None
    dilation_bounds: Optional[Callable[[int], tuple]] = None

    def __post_init__(self):
        if self.theta is not None:
            _check_theta(self.theta)

    def dilation_integrand(self, N: int, s: np.ndarray) -> np.ndarray:
        """N V(s) + s V'(s), the integrand of the dilation term of P(u_t)."""
        return N * self.V(s) + self.rdV(s)


@dataclass(frozen=True)
class NonlinearitySpec:
    """Nonlinearity f with antiderivative F (F(0) = 0).

    ``f_scalar`` is f on one Python float, for the shooting integrator's
    per-step calls; it must agree with ``float(f(t))`` bit for bit (nan
    where f gives nan), so a shot sees the f that a 0-d array gets.  An
    array may differ by an ulp where numpy's SIMD loops round otherwise;
    the power family agrees on arrays too at p = 2.5, 3 and 4.

    An ``f_scalar`` may carry a ``scalar_form`` (expr, consts): expr is
    f as a Python expression in ``t`` over the names in the dict consts
    (abs is the builtin), and f_scalar is ``lambda t: expr`` over them.
    Route C's RK4 loop is then compiled with expr written into its
    stages, so it must give f_scalar's floats; a constant must not be
    named as a variable of that loop (``solver._SHOT_LOOP``).  A
    constant that leads expr's product (``coeff * ...``) and equals the
    float 1.0 is left out of the stages, as 1.0 * y is y.  The
    built-in factories state their expressions with ``_scalar_form``;
    without one (power at other exponents, a hand-built spec, a
    wrapper) the loop calls f_scalar.

    ``degree`` declares the proven fact that f is homogeneous:
    f(c s) = c^degree f(s) for every c > 0 and every s, so
    F(c s) = c^(degree+1) F(s).  The sweep then predicts each row's
    shooting amplitude from the lam = 1 root, which route C confirms by
    two classification shots or discards.  None (a hand-built spec, or a
    family that is not homogeneous) means no prediction.  A declared
    degree that does not hold costs the sweep those two shots, never a
    different certificate.
    """

    family: str
    params: dict
    f: Callable[[np.ndarray], np.ndarray]
    F: Callable[[np.ndarray], np.ndarray]
    f_scalar: Callable[[float], float]
    degree: Optional[float] = None


class Report:
    """A dataclass record written as a JSON report: ``to_dict`` lists its
    fields in order, writes ``passed`` as ``pass`` and renders a nested
    report, alone or in a list, the same way."""

    def to_dict(self) -> dict:
        return {("pass" if fld.name == "passed" else fld.name): _plain(getattr(self, fld.name))
                for fld in fields(self)}


def _plain(value):
    if isinstance(value, Report):
        return value.to_dict()
    if isinstance(value, list):
        return [_plain(v) for v in value]
    return value


@dataclass
class ConditionReport(Report):
    """Outcome of one sampled hypothesis check."""

    condition: str
    passed: bool
    witness: dict
    margin: float
    samples: int
    tolerance: float
    notes: str = ""


# ----------------------------------------------------------------------
# built-in families
# ----------------------------------------------------------------------

def _require_finite(**params):
    """DomainError unless every given parameter is finite: NaN passes
    every ordering test, and an infinite one turns the routes' arithmetic
    into NaN."""
    for name, val in params.items():
        if not math.isfinite(val):
            raise DomainError(f"{name} must be finite, got {val}")


def constant_potential(value: float = 1.0) -> PotentialSpec:
    _require_finite(value=value)
    if value < 0:
        raise DomainError("constant potential must be nonnegative")
    v = float(value)
    return PotentialSpec(
        family="constant",
        params={"value": v},
        V=lambda r: np.full_like(np.asarray(r, dtype=float), v),
        rdV=lambda r: np.zeros_like(np.asarray(r, dtype=float)),
        v_inf=v,
        theta=0.0,
        dilation_bounds=lambda N: (N * v, N * v),
    )


# largest well exponent: (alpha - N)^2 in its dilation bound overflows from
# alpha ~ 1.3e154, and long before that r^alpha is a step at r = 1 in doubles
WELL_ALPHA_MAX = 1e150


def well_potential(a: float, b: float, alpha: float = 2.0,
                   theta: Optional[float] = None) -> PotentialSpec:
    """Long-range well V(r) = a - b / (1 + r^alpha), with V_inf = a."""
    _require_finite(a=a, b=b)
    if b < 0 or a < b:
        raise DomainError("well potential needs a >= b >= 0 for nonnegativity")
    if not 0.0 < alpha < WELL_ALPHA_MAX:
        raise DomainError(
            f"well exponent must be positive and below {WELL_ALPHA_MAX:g}, got {alpha}")
    a, b, alpha = float(a), float(b), float(alpha)

    def V(r):
        r = np.asarray(r, dtype=float)
        # r^alpha overflows to inf far out, where b / inf = 0 gives V = a
        with np.errstate(over="ignore"):
            return a - b / (1.0 + r**alpha)

    def rdV(r):
        """r V'(r) = alpha b x / (1 + x)^2 with x = r^alpha, as
        alpha b / (1 + 1/x) / (1 + x): exactly 0 at r = 0 (1/0 = inf) and
        where x overflows, its limits there for every alpha > 0."""
        with np.errstate(over="ignore", divide="ignore"):
            x = np.asarray(r, dtype=float) ** alpha
            return alpha * b / (1.0 + 1.0 / x) / (1.0 + x)

    def dilation_bounds(N):
        # N V + s V' = N a - b (1 - x)(N - alpha x) with x = s^alpha / (1 + s^alpha)
        # in [0, 1): least at x = 0; greatest as x -> 1 when alpha <= N, else
        # at the vertex x = (N + alpha) / (2 alpha) of the quadratic
        top = N * a if alpha <= N else N * a + b * (alpha - N) ** 2 / (4.0 * alpha)
        return N * (a - b), top

    return PotentialSpec(family="well", params={"a": a, "b": b, "alpha": alpha},
                         V=V, rdV=rdV, v_inf=a, theta=theta,
                         dilation_bounds=dilation_bounds)


# shape -> (h, r h', N -> range of N h(s) + s h'(s) over s >= 0)
_PERTURBATIONS = {
    # (1 - y)(N - 2 y) with y = s^2 / (1 + s^2) in [0, 1)
    "lorentzian": (
        lambda r: 1.0 / (1.0 + r**2),
        lambda r: -2.0 * r**2 / (1.0 + r**2) ** 2,
        lambda N: (0.0, float(N)),
    ),
    # e^{-z} (N - 2 z) with z = s^2, least at z = (N + 2) / 2
    "gaussian": (
        lambda r: np.exp(-(r**2)),
        lambda r: -2.0 * r**2 * np.exp(-(r**2)),
        lambda N: (-2.0 * np.exp(-(N + 2.0) / 2.0), float(N)),
    ),
}


def perturbed_potential(v_inf: float, eps: float, shape: str = "lorentzian",
                        theta: Optional[float] = None) -> PotentialSpec:
    """Perturbed constant V(r) = V_inf - eps * h(r) for a built-in bump h."""
    if shape not in _PERTURBATIONS:
        raise DomainError(f"unknown perturbation shape {shape!r}")
    _require_finite(v_inf=v_inf, eps=eps)
    if eps < 0 or v_inf < eps:
        raise DomainError("need 0 <= eps <= v_inf for nonnegativity")
    h, rdh, h_range = _PERTURBATIONS[shape]
    v_inf, eps = float(v_inf), float(eps)

    def dilation_bounds(N):
        k_lo, k_hi = h_range(N)
        return N * v_inf - eps * k_hi, N * v_inf - eps * k_lo

    return PotentialSpec(
        family="perturbed",
        params={"v_inf": v_inf, "eps": eps, "shape": shape},
        V=lambda r: v_inf - eps * h(np.asarray(r, dtype=float)),
        rdV=lambda r: -eps * rdh(np.asarray(r, dtype=float)),
        v_inf=v_inf,
        theta=theta,
        dilation_bounds=dilation_bounds,
    )


@functools.lru_cache(maxsize=None)
def _form_closure(expr: str, names: str):
    """``lambda names: lambda t: expr``, compiled once per process, so a
    factory call costs a closure, not a compile (~4 against ~35 us)."""
    return eval(f"lambda {names}: lambda t: {expr}", {})


def _scalar_form(expr: str, **consts) -> Callable[[float], float]:
    """f on one float, compiled from ``expr``, an expression in ``t`` over
    the names in ``consts``; it carries (expr, consts) as its
    ``scalar_form``, which route C's RK4 stages write inline."""
    f_scalar = _form_closure(expr, ", ".join(consts))(**consts)
    f_scalar.scalar_form = (expr, consts)
    return f_scalar


def power_nonlinearity(p: float = 4.0, coeff: float = 1.0) -> NonlinearitySpec:
    """Pure power f(t) = coeff |t|^{p-2} t (subcritical when 2 < p < 2N/(N-2))."""
    _require_finite(p=p, coeff=coeff)
    if p <= 1:
        raise DomainError("power exponent must exceed 1")
    p, coeff = float(p), float(coeff)

    q = p - 2.0
    # |t|^q as numpy's array power takes it at q = 2, 1/2 and 1 (square,
    # square root, copy), written out: an array, a 0-d array and a float
    # then give the same floats, and a shot's RK4 stage calls no libm pow
    if q == 2.0:
        mag = np.square
        f_scalar = _scalar_form("coeff * (t * t) * t", coeff=coeff)
    elif q == 0.5:
        def mag(t):
            return np.sqrt(np.abs(t))
        f_scalar = _scalar_form("coeff * sqrt(abs(t)) * t", coeff=coeff, sqrt=math.sqrt)
    elif q == 1.0:
        mag = np.abs
        f_scalar = _scalar_form("coeff * abs(t) * t", coeff=coeff)
    else:
        def mag(t):
            return np.abs(t) ** q

        def f_scalar(t):
            try:
                return coeff * abs(t) ** q * t
            except (ZeroDivisionError, OverflowError):
                # float ** raises where numpy returns inf (0 ** q for p < 2,
                # overflow); the vectorised form gives the IEEE result,
                # whose inf or NaN the shot reports as StiffIntegrationError
                with np.errstate(all="ignore"):
                    return float(f(t))

    def f(t):
        t = np.asarray(t, dtype=float)
        return coeff * mag(t) * t

    # |t|^p rounds to 0 where |t| < 2^(-1076/p), a quarter of the least
    # subnormal, and pow takes some 30x longer there: those entries keep 0
    F_zero_below = 2.0 ** (-1076.0 / p)

    def F(t):
        a = np.abs(np.asarray(t, dtype=float))
        return coeff * np.power(a, p, out=np.zeros_like(a), where=~(a < F_zero_below)) / p

    # f(c s) = c^{p-1} f(s) for c > 0
    return NonlinearitySpec(family="power", params={"p": p, "coeff": coeff},
                            f=f, F=F, f_scalar=f_scalar, degree=p - 1.0)


def saturating_nonlinearity(c: float) -> NonlinearitySpec:
    """f(t) = c t^3 / (1 + t^2): asymptotically linear.

    With V_inf = 1 the antiderivative stays below t^2/2 for every t when
    c <= 1, so the one-point superquadraticity hypothesis fails; useful
    as the infeasible fixture.
    """
    _require_finite(c=c)
    c = float(c)

    # t^3 is written as t * t * t here and in f_scalar, so arrays, 0-d
    # arrays and floats give the same floats without a pow call
    def f(t):
        t = np.asarray(t, dtype=float)
        return c * (t * t * t) / (1.0 + t * t)

    def F(t):
        t = np.asarray(t, dtype=float)
        return 0.5 * c * (t**2 - np.log1p(t**2))

    return NonlinearitySpec(family="saturating", params={"c": c}, f=f, F=F,
                            f_scalar=_scalar_form("c * (t * t * t) / (1.0 + t * t)", c=c))


def zero_nonlinearity() -> NonlinearitySpec:
    return NonlinearitySpec(
        family="zero",
        params={},
        f=lambda t: np.zeros_like(np.asarray(t, dtype=float)),
        F=lambda t: np.zeros_like(np.asarray(t, dtype=float)),
        f_scalar=_scalar_form("0.0"),
    )


# family name -> model factory; the config's [potential] and
# [nonlinearity] sections name one and set its parameters
POTENTIAL_FACTORIES = {
    "constant": constant_potential,
    "well": well_potential,
    "perturbed": perturbed_potential,
}

NONLINEARITY_FACTORIES = {
    "power": power_nonlinearity,
    "saturating": saturating_nonlinearity,
    "zero": zero_nonlinearity,
}


# ----------------------------------------------------------------------
# checkers
# ----------------------------------------------------------------------

def check_V1V2(V: PotentialSpec, radii: Optional[np.ndarray] = None) -> ConditionReport:
    """Nonnegativity and domination by the limit: 0 <= V(r) <= V_inf.

    Also checks that V has essentially reached V_inf at the largest
    sampled radius (loose 5e-2 relative band).
    """
    radii = default_radii() if radii is None else np.asarray(radii, dtype=float)
    if radii.size == 0:
        raise DomainError("empty sample set")
    vals = V.V(radii)
    lower = vals.copy()                # must be >= 0
    upper = V.v_inf - vals             # must be >= 0
    margin = float(min(lower.min(), upper.min()))
    i = int(np.argmin(np.minimum(lower, upper)))
    limit_gap = abs(float(V.V(np.array([radii[-1]]))[0]) - V.v_inf)
    limit_ok = limit_gap <= 5e-2 * max(1.0, abs(V.v_inf))
    passed = bool(margin >= -NONNEG_TOL and limit_ok)
    witness = {"r": float(radii[i]), "V": float(vals[i]), "limit_gap": limit_gap}
    return ConditionReport("V1V2", passed, witness, margin, radii.size, NONNEG_TOL)


def estimate_theta_V4(V: PotentialSpec, N: int,
                      radii: Optional[np.ndarray] = None) -> float:
    """Smallest theta with r V'(r) <= (N-2)^2 theta / (2 r^2) on the samples.

    theta_min = sup_r 2 r^2 (r V'(r)) / (N-2)^2, clamped at zero.  The
    derivative-decay hypothesis holds (on the lattice) iff this is < 1.
    """
    radii = default_radii() if radii is None else np.asarray(radii, dtype=float)
    sup = float(np.max(2.0 * radii**2 * V.rdV(radii) / (N - 2.0) ** 2))
    return max(0.0, sup)


def _v3_forms(V: PotentialSpec, theta: float, N: int, radii) -> tuple:
    """(t, r, pointwise, integrated): the T_LATTICE_SIZE dilations t on
    [1e-2, 1e2], the radii r (default_radii when None), and the two decay
    expressions on the (t, r) lattice (t rows, r cols), each as
    (theta-free part, theta term); the expression is their sum.

    pointwise:  N [V(r) - V(tr)] + [w(r) - w(tr)]
                + (N-2)^3 theta (t^2 - 1) / (4 t^2 r^2),  w(x) = x V'(x);
    integrated: N t^N [V(r) - V(tr)] + (t^N - 1) r V'(r)
                + (N-2)^2 theta g(t) / (4 r^2),  g = g_of_t.
    """
    ts = np.geomspace(1e-2, 1e2, T_LATTICE_SIZE)
    rs = default_radii() if radii is None else np.asarray(radii, dtype=float)
    t = ts[:, None]
    r = rs[None, :]
    dv = V.V(r) - V.V(t * r)
    pointwise = (N * dv + (V.rdV(r) - V.rdV(t * r)),
                 (N - 2.0) ** 3 * theta * (t**2 - 1.0) / (4.0 * t**2 * r**2))
    integrated = (N * t**N * dv + (t**N - 1.0) * V.rdV(r),
                  (N - 2.0) ** 2 * theta * g_of_t(t, N) / (4.0 * r**2))
    return ts, rs, pointwise, integrated


def check_V3(V: PotentialSpec, theta: float, N: int,
             radii: Optional[np.ndarray] = None) -> ConditionReport:
    """Two-point decay condition on the (t, r) lattice of _v3_forms.

    The pointwise expression must be >= 0 for t >= 1 and <= 0 for t < 1;
    the integrated form must be >= 0 for every (t, r).  Margins are
    signed so that "passed" means every signed margin >= -V3_TOL.
    """
    _check_theta(theta)
    t, r, (pointwise, p_theta), (integrated, i_theta) = _v3_forms(V, theta, N, radii)
    # summed and signed in place: no more lattice-sized arrays at once
    pointwise += p_theta
    pointwise *= np.where(t >= 1.0, 1.0, -1.0)[:, None]
    integrated += i_theta
    margins = np.minimum(pointwise, integrated)
    margin = float(margins.min())
    it, ir = np.unravel_index(int(np.argmin(margins)), margins.shape)
    passed = bool(margin >= -V3_TOL)
    witness = {"t": float(t[it]), "r": float(r[ir]), "value": float(margins[it, ir])}
    return ConditionReport("V3", passed, witness, margin, margins.size, V3_TOL,
                           notes=f"theta={theta:.6g}")


def estimate_theta_V3(V: PotentialSpec, N: int,
                      radii: Optional[np.ndarray] = None) -> float:
    """Smallest theta making the two-point decay condition hold on check_V3's
    lattice.

    Solves the pointwise and integrated forms for theta at every lattice
    node (each is affine in theta with a sign-definite coefficient away
    from t = 1) and takes the supremum, clamped at zero.  A value >= 1
    means the condition fails for every admissible theta.
    """
    # at theta = 1 each theta term is its coefficient
    _, _, (base, coef), (base_int, coef_int) = _v3_forms(V, 1.0, N, radii)
    with np.errstate(divide="ignore", invalid="ignore"):
        # sign * (base + theta * coef) >= 0; sign matches the sign of coef,
        # so the requirement is theta >= -base / coef wherever coef != 0.
        req_point = np.where(coef != 0.0, -base / np.abs(coef) * np.sign(coef), -np.inf)
        req_int = np.where(coef_int > 0.0, -base_int / coef_int, -np.inf)
    sup = float(max(np.max(req_point), np.max(req_int)))
    return max(0.0, sup)


# an f or F that overflows on the samples (a huge coeff or p) reads inf
# or NaN there: an (F3) witness as good as any, and (F2)'s large-t ratio
# or the antiderivative check fails such an f
@np.errstate(over="ignore", invalid="ignore")
def check_F(f: NonlinearitySpec, v_inf: float, N: int,
            samples: Optional[np.ndarray] = None) -> ConditionReport:
    """Growth, small/large-t decay, and one-point superquadraticity.

    * (F1) records C0_fit, the largest |f(t)| / (1 + |t|^{2*-1}) on the
      samples; it bounds every sample, so (F1) fails only where f is NaN
      (growth at infinity is what (F2)'s large-t ratio tests);
    * (F2) requires |f(t)/t| at the smallest sampled |t| and
      |f(t)| / |t|^{(N+2)/(N-2)} at the largest to fall below
      F_DECAY_MARGIN (limits are checked on the sampled range, not proven);
    * (F3) scans for s0 > 0 with F(s0) > (v_inf/2) s0^2 and records a witness;
    * verifies F is consistent with the integral of f on the samples.
    """
    ts = np.geomspace(1e-4, 1e2, 257) if samples is None else np.asarray(samples, dtype=float)
    ts = np.concatenate([-ts[::-1], ts])
    two_star = 2.0 * N / (N - 2.0)
    fv = np.asarray(f.f(ts), dtype=float)
    growth = 1.0 + np.abs(ts) ** (two_star - 1.0)
    c0_fit = float(np.max(np.abs(fv) / growth))
    f1_ok = not math.isnan(c0_fit)         # np.max returns any NaN

    pos = ts[ts > 0]
    small = float(np.max(np.abs(np.asarray(f.f(pos[:2])) / pos[:2])))
    large = float(np.max(np.abs(np.asarray(f.f(pos[-2:])) / pos[-2:] ** (two_star - 1.0))))
    f2_ok = small <= F_DECAY_MARGIN and large <= F_DECAY_MARGIN

    s = np.geomspace(1e-3, 1e3, 512)
    gap = np.asarray(f.F(s), dtype=float) - 0.5 * v_inf * s**2
    hits = np.nonzero(gap > 0.0)[0]
    f3_ok = hits.size > 0
    j = int(hits[0]) if f3_ok else int(np.argmax(gap / (1.0 + s**2)))
    s0 = float(s[j]) if f3_ok else None

    # antiderivative consistency on a trapezoid refinement
    tt = np.linspace(0.0, 4.0, 4097)
    Ff = np.asarray(f.F(tt), dtype=float)
    cum = np.concatenate([[0.0], np.cumsum(
        0.5 * (np.asarray(f.f(tt[1:])) + np.asarray(f.f(tt[:-1]))) * np.diff(tt))])
    anti_err = float(np.max(np.abs(Ff - cum)))
    anti_ok = anti_err <= max(F_QUAD_TOL, 1e-6 * np.max(np.abs(Ff)) + 1e-9)

    passed = bool(f1_ok and f2_ok and f3_ok and anti_ok)
    margin = float(gap[j])
    witness = {
        "C0_fit": c0_fit,
        "small_t_ratio": small,
        "large_t_ratio": large,
        "s0": s0,
        "F_minus_quadratic": float(gap[j]),
        "antiderivative_err": anti_err,
    }
    return ConditionReport("F1F2F3", passed, witness, margin, ts.size, F_DECAY_MARGIN)


def check_H(h: Callable, dh: Callable, N: int) -> ConditionReport:
    """Perturbation-shape admissibility on default_radii: h >= 0,
    vanishing at the far end, and sup_r [-r^3 h'(r)] finite (below H_CAP)."""
    radii = default_radii()
    hv = np.asarray(h(radii), dtype=float)
    nonneg = float(hv.min())
    vanish = abs(float(hv[-1])) <= 5e-2 * max(1.0, float(np.max(np.abs(hv))))
    sup = float(np.max(-(radii**3) * np.asarray(dh(radii), dtype=float)))
    passed = bool(nonneg >= -NONNEG_TOL and vanish and np.isfinite(sup) and sup <= H_CAP)
    i = int(np.argmin(hv))
    witness = {"r_min_h": float(radii[i]), "h_min": nonneg, "sup_neg_r3_dh": sup}
    return ConditionReport("H1H2", passed, witness, nonneg, radii.size, NONNEG_TOL)


def check_potential_envelope(V: PotentialSpec, theta: float, N: int,
                             radii: Optional[np.ndarray] = None) -> ConditionReport:
    """Two-sided envelope on N V(r) + r V'(r) around N V_inf.

    Follows from the two-point decay condition in its small- and
    large-dilation limits: the combination must stay between
    N V_inf - (N-2)^3 theta / (4 r^2) and N V_inf + (N-2)^2 theta / (2 r^2)
    at every sampled radius.
    """
    _check_theta(theta)
    radii = default_radii() if radii is None else np.asarray(radii, dtype=float)
    mid = V.dilation_integrand(N, radii)
    lower = mid - (N * V.v_inf - (N - 2.0) ** 3 * theta / (4.0 * radii**2))
    upper = (N * V.v_inf + (N - 2.0) ** 2 * theta / (2.0 * radii**2)) - mid
    margins = np.minimum(lower, upper)
    i = int(np.argmin(margins))
    margin = float(margins[i])
    side = "lower" if lower[i] <= upper[i] else "upper"
    witness = {"r": float(radii[i]), "side": side, "value": margin}
    return ConditionReport("potential-envelope", bool(margin >= -V3_TOL), witness, margin,
                           radii.size, V3_TOL, notes=f"theta={theta:.6g}")


def run_condition_suite(V: PotentialSpec, f: NonlinearitySpec, N: int,
                        r_max: float = 30.0,
                        prefer_declared_theta: bool = True) -> dict:
    """All potential / nonlinearity checks with the default lattices.

    The derivative-decay estimate theta_min certifies the one-sided bound;
    the two-point condition gets its own (larger) lattice estimate, since
    reusing theta_min there is generally too small.  With
    ``prefer_declared_theta=False`` a declared theta is ignored and the
    two-point condition is certified with the intrinsic lattice estimate
    (admissibility of the potential rather than of the declared value).
    """
    radii = default_radii(r_max)
    theta_v4 = estimate_theta_V4(V, N, radii)
    if prefer_declared_theta and V.theta is not None:
        theta_v3 = V.theta
    else:
        theta_v3 = estimate_theta_V3(V, N, radii=radii)
    reports = {
        "V1V2": check_V1V2(V, radii),
        "F": check_F(f, V.v_inf, N),
    }
    v4_pass = theta_v4 < 1.0
    reports["V4"] = ConditionReport(
        "V4", v4_pass, {"theta_min": theta_v4}, 1.0 - theta_v4, radii.size, 0.0,
        notes="pass iff theta_min < 1",
    )
    if theta_v3 < 1.0:
        reports["V3"] = check_V3(V, theta_v3, N, radii=radii)
        reports["potential-envelope"] = check_potential_envelope(V, theta_v3, N, radii)
    else:
        reports["V3"] = ConditionReport(
            "V3", False, {"theta_required": theta_v3}, 1.0 - theta_v3,
            radii.size, 0.0, notes="no admissible theta < 1 on the lattice",
        )
        reports["potential-envelope"] = ConditionReport(
            "potential-envelope", False, {"theta_required": theta_v3}, 1.0 - theta_v3,
            radii.size, 0.0, notes="skipped: no admissible theta",
        )
    return {
        "theta_min": theta_v4,
        "theta_v3": theta_v3,
        "reports": reports,
        "pass": all(rep.passed for rep in reports.values()),
    }
