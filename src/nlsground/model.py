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

from dataclasses import asdict, dataclass
from typing import Callable, Optional

import numpy as np

from .errors import DomainError

__all__ = [
    "PotentialSpec",
    "NonlinearitySpec",
    "ConditionReport",
    "constant_potential",
    "well_potential",
    "perturbed_potential",
    "power_nonlinearity",
    "saturating_nonlinearity",
    "zero_nonlinearity",
    "default_radii",
    "default_t_lattice",
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


def default_radii(r_max: float = 30.0, size: int = R_LATTICE_SIZE) -> np.ndarray:
    return np.geomspace(1e-3, r_max, size)


def default_t_lattice(size: int = T_LATTICE_SIZE) -> np.ndarray:
    return np.geomspace(1e-2, 1e2, size)


@dataclass(frozen=True)
class PotentialSpec:
    """Radial potential with derivative, limit at infinity, decay parameter.

    ``theta`` is the declared decay parameter (None means: estimate it
    from the derivative bound when a dimension is available, see
    :func:`estimate_theta_V4`).

    ``dilation_bounds`` maps a dimension N to (w_lo, w_hi) with
    w_lo <= N V(s) + s V'(s) <= w_hi for every s >= 0: a proven range of
    the integrand of the dilation term of P(u_t), up to round-off in
    evaluating V and V'.  The built-in factories set it; the fiber
    projection uses it to skip scan points whose sign of P(u_t) it
    certifies.  None (a hand-built spec) means every scan point is
    evaluated.  A declared range that does not hold voids that
    certificate; the scan falls back to evaluating every point only when
    a point it evaluates contradicts its certified sign.
    """

    family: str
    params: dict
    V: Callable[[np.ndarray], np.ndarray]
    dV: Callable[[np.ndarray], np.ndarray]
    v_inf: float
    theta: Optional[float] = None
    dilation_bounds: Optional[Callable[[int], tuple]] = None

    def __post_init__(self):
        if self.theta is not None and not (0.0 <= self.theta < 1.0):
            raise DomainError(f"theta must lie in [0, 1), got {self.theta}")

    def theta_for(self, N: int, radii: Optional[np.ndarray] = None) -> float:
        """Declared theta, or the sampled derivative-bound estimate."""
        if self.theta is not None:
            return self.theta
        return estimate_theta_V4(self, N, radii)

    def is_constant(self) -> bool:
        return self.family == "constant"


@dataclass(frozen=True)
class NonlinearitySpec:
    """Nonlinearity f with antiderivative F (F(0) = 0).

    ``f_scalar`` is f on one Python float, for the shooting integrator's
    per-step calls; it must agree with ``float(f(t))`` bit for bit (nan
    where f gives nan), so the scalar and vectorised code paths produce
    the same profiles.  ``C0`` is the declared growth constant of
    |f(t)| <= C0 (1 + |t|^{2*-1}); when None it is fitted on samples by
    :func:`check_F`.  ``s0`` is an optional declared witness for
    F(s0) > (V_inf/2) s0^2.

    ``degree`` declares the proven fact that f is homogeneous:
    f(c s) = c^degree f(s) for every c > 0 and every s, so
    F(c s) = c^(degree+1) F(s).  The sweep then predicts each row's
    shooting amplitude from the lam = 1 root, which route C confirms by
    two classification shots or discards; route B's amplitude restore
    reads the constraint's whole scalar law from one F pass and checks
    the amplitude it finds with one more.  None (a hand-built spec, or a
    family that is not homogeneous) means neither shortcut.  A declared
    degree that does not hold costs the sweep those two shots, never a
    different certificate, and costs the restore the walk on C itself,
    never an amplitude off the constraint's crossing.
    """

    family: str
    params: dict
    f: Callable[[np.ndarray], np.ndarray]
    F: Callable[[np.ndarray], np.ndarray]
    f_scalar: Callable[[float], float]
    C0: Optional[float] = None
    s0: Optional[float] = None
    degree: Optional[float] = None


@dataclass
class ConditionReport:
    """Outcome of one sampled hypothesis check."""

    condition: str
    passed: bool
    witness: dict
    margin: float
    samples: int
    tolerance: float
    notes: str = ""

    def to_dict(self) -> dict:
        # the fields in order, with "passed" written as "pass"
        return {("pass" if k == "passed" else k): v for k, v in asdict(self).items()}


# ----------------------------------------------------------------------
# built-in families
# ----------------------------------------------------------------------

def constant_potential(value: float = 1.0) -> PotentialSpec:
    if value < 0:
        raise DomainError("constant potential must be nonnegative")
    v = float(value)
    return PotentialSpec(
        family="constant",
        params={"value": v},
        V=lambda r: np.full_like(np.asarray(r, dtype=float), v),
        dV=lambda r: np.zeros_like(np.asarray(r, dtype=float)),
        v_inf=v,
        theta=0.0,
        dilation_bounds=lambda N: (N * v, N * v),
    )


def well_potential(a: float, b: float, alpha: float = 2.0,
                   theta: Optional[float] = None) -> PotentialSpec:
    """Long-range well V(r) = a - b / (1 + r^alpha), with V_inf = a."""
    if b < 0 or a < b:
        raise DomainError("well potential needs a >= b >= 0 for nonnegativity")
    if alpha <= 0:
        raise DomainError("well exponent must be positive")
    a, b, alpha = float(a), float(b), float(alpha)

    def V(r):
        r = np.asarray(r, dtype=float)
        # r^alpha overflows to inf far out, where b / inf = 0 gives V = a
        with np.errstate(over="ignore"):
            return a - b / (1.0 + r**alpha)

    def dV(r):
        r = np.asarray(r, dtype=float)
        with np.errstate(over="ignore", invalid="ignore"):
            out = b * alpha * r ** (alpha - 1.0) / (1.0 + r**alpha) ** 2
        # inf / inf where r^(alpha-1) overflows; the quotient there is
        # below the smallest float
        return np.where(np.isnan(out), 0.0, out)

    def dilation_bounds(N):
        # N V + s V' = N a - b (1 - x)(N - alpha x) with x = s^alpha / (1 + s^alpha)
        # in [0, 1): least at x = 0; greatest as x -> 1 when alpha <= N, else
        # at the vertex x = (N + alpha) / (2 alpha) of the quadratic
        top = N * a if alpha <= N else N * a + b * (alpha - N) ** 2 / (4.0 * alpha)
        return N * (a - b), top

    return PotentialSpec(family="well", params={"a": a, "b": b, "alpha": alpha},
                         V=V, dV=dV, v_inf=a, theta=theta,
                         dilation_bounds=dilation_bounds)


# shape -> (h, h', N -> range of N h(s) + s h'(s) over s >= 0)
_PERTURBATIONS = {
    # (1 - y)(N - 2 y) with y = s^2 / (1 + s^2) in [0, 1)
    "lorentzian": (
        lambda r: 1.0 / (1.0 + r**2),
        lambda r: -2.0 * r / (1.0 + r**2) ** 2,
        lambda N: (0.0, float(N)),
    ),
    # e^{-z} (N - 2 z) with z = s^2, least at z = (N + 2) / 2
    "gaussian": (
        lambda r: np.exp(-(r**2)),
        lambda r: -2.0 * r * np.exp(-(r**2)),
        lambda N: (-2.0 * np.exp(-(N + 2.0) / 2.0), float(N)),
    ),
}


def perturbed_potential(v_inf: float, eps: float, shape: str = "lorentzian",
                        theta: Optional[float] = None) -> PotentialSpec:
    """Perturbed constant V(r) = V_inf - eps * h(r) for a built-in bump h."""
    if shape not in _PERTURBATIONS:
        raise DomainError(f"unknown perturbation shape {shape!r}")
    if eps < 0 or v_inf < eps:
        raise DomainError("need 0 <= eps <= v_inf for nonnegativity")
    h, dh, h_range = _PERTURBATIONS[shape]
    v_inf, eps = float(v_inf), float(eps)

    def dilation_bounds(N):
        k_lo, k_hi = h_range(N)
        return N * v_inf - eps * k_hi, N * v_inf - eps * k_lo

    return PotentialSpec(
        family="perturbed",
        params={"v_inf": v_inf, "eps": eps, "shape": shape},
        V=lambda r: v_inf - eps * h(np.asarray(r, dtype=float)),
        dV=lambda r: -eps * dh(np.asarray(r, dtype=float)),
        v_inf=v_inf,
        theta=theta,
        dilation_bounds=dilation_bounds,
    )


def power_nonlinearity(p: float = 4.0, coeff: float = 1.0) -> NonlinearitySpec:
    """Pure power f(t) = coeff |t|^{p-2} t (subcritical when 2 < p < 2N/(N-2))."""
    if p <= 1:
        raise DomainError("power exponent must exceed 1")
    p, coeff = float(p), float(coeff)

    def f(t):
        t = np.asarray(t, dtype=float)
        return coeff * np.abs(t) ** (p - 2.0) * t

    def F(t):
        t = np.asarray(t, dtype=float)
        return coeff * np.abs(t) ** p / p

    q = p - 2.0

    def f_scalar(t):
        try:
            return coeff * abs(t) ** q * t
        except (ZeroDivisionError, OverflowError):
            # float ** raises where numpy returns inf (0 ** q for p < 2,
            # overflow); the vectorised form gives the IEEE result
            return float(f(t))

    # f(c s) = c^{p-1} f(s) for c > 0
    return NonlinearitySpec(family="power", params={"p": p, "coeff": coeff},
                            f=f, F=F, f_scalar=f_scalar, degree=p - 1.0)


def saturating_nonlinearity(c: float) -> NonlinearitySpec:
    """f(t) = c t^3 / (1 + t^2): asymptotically linear.

    With V_inf = 1 the antiderivative stays below t^2/2 for every t when
    c <= 1, so the one-point superquadraticity hypothesis fails; useful
    as the infeasible fixture.
    """
    c = float(c)

    def f(t):
        t = np.asarray(t, dtype=float)
        return c * t**3 / (1.0 + t**2)

    def F(t):
        t = np.asarray(t, dtype=float)
        return 0.5 * c * (t**2 - np.log1p(t**2))

    def f_scalar(t):
        # numpy's t**3 may differ from libm pow by an ulp (SIMD loop); the
        # ufunc on a float runs that same loop, and numpy's t**2 is t*t
        return c * float(np.power(t, 3.0)) / (1.0 + t * t)

    return NonlinearitySpec(family="saturating", params={"c": c}, f=f, F=F,
                            f_scalar=f_scalar)


def zero_nonlinearity() -> NonlinearitySpec:
    return NonlinearitySpec(
        family="zero",
        params={},
        f=lambda t: np.zeros_like(np.asarray(t, dtype=float)),
        F=lambda t: np.zeros_like(np.asarray(t, dtype=float)),
        f_scalar=lambda t: 0.0,
    )


_FACTORIES = {
    "constant": constant_potential,
    "well": well_potential,
    "perturbed": perturbed_potential,
}

_F_FACTORIES = {
    "power": power_nonlinearity,
    "saturating": saturating_nonlinearity,
    "zero": zero_nonlinearity,
}


def make_potential(family: str, **params) -> PotentialSpec:
    if family not in _FACTORIES:
        raise DomainError(f"unknown potential family {family!r}")
    return _FACTORIES[family](**params)


def make_nonlinearity(family: str, **params) -> NonlinearitySpec:
    if family not in _F_FACTORIES:
        raise DomainError(f"unknown nonlinearity family {family!r}")
    return _F_FACTORIES[family](**params)


# ----------------------------------------------------------------------
# checkers
# ----------------------------------------------------------------------

def check_V1V2(V: PotentialSpec, radii: Optional[np.ndarray] = None,
               tol: float = 1e-12) -> ConditionReport:
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
    passed = bool(margin >= -tol and limit_ok)
    witness = {"r": float(radii[i]), "V": float(vals[i]), "limit_gap": limit_gap}
    return ConditionReport("V1V2", passed, witness, margin, radii.size, tol)


def estimate_theta_V4(V: PotentialSpec, N: int,
                      radii: Optional[np.ndarray] = None) -> float:
    """Smallest theta with r V'(r) <= (N-2)^2 theta / (2 r^2) on the samples.

    theta_min = sup_r 2 r^2 (r V'(r)) / (N-2)^2, clamped at zero.  The
    derivative-decay hypothesis holds (on the lattice) iff this is < 1.
    """
    radii = default_radii() if radii is None else np.asarray(radii, dtype=float)
    w = radii * V.dV(radii)
    sup = float(np.max(2.0 * radii**2 * w / (N - 2.0) ** 2))
    return max(0.0, sup)


def _v3_lhs(V: PotentialSpec, theta: float, N: int,
            t: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Pointwise decay expression on the (t, r) lattice (t rows, r cols)."""
    t = t[:, None]
    r = r[None, :]
    w = lambda x: x * V.dV(x)  # radial form of grad V . x
    return (
        N * (V.V(r) - V.V(t * r))
        + (w(r) - w(t * r))
        + (N - 2.0) ** 3 * theta * (t**2 - 1.0) / (4.0 * t**2 * r**2)
    )


def _v3_integrated_lhs(V: PotentialSpec, theta: float, N: int,
                       t: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Integrated decay inequality: N t^N [V(r)-V(tr)] + (t^N - 1) r V'(r)
    + (N-2)^2 theta g(t) / (4 r^2) with g(t) = 2 - N t^{N-2} + (N-2) t^N."""
    t = t[:, None]
    r = r[None, :]
    g = 2.0 - N * t ** (N - 2.0) + (N - 2.0) * t**N
    return (
        N * t**N * (V.V(r) - V.V(t * r))
        + (t**N - 1.0) * (r * V.dV(r))
        + (N - 2.0) ** 2 * theta * g / (4.0 * r**2)
    )


def check_V3(V: PotentialSpec, theta: float, N: int,
             t_lattice: Optional[np.ndarray] = None,
             radii: Optional[np.ndarray] = None,
             tol: float = 1e-10) -> ConditionReport:
    """Two-point decay condition on a (t, r) lattice.

    The pointwise expression must be >= 0 for t >= 1 and <= 0 for t < 1;
    the integrated form must be >= 0 for every (t, r).  Margins are
    signed so that "passed" means every signed margin >= -tol.
    """
    if not (0.0 <= theta < 1.0):
        raise DomainError(f"theta must lie in [0, 1), got {theta}")
    t = default_t_lattice() if t_lattice is None else np.asarray(t_lattice, dtype=float)
    r = default_radii() if radii is None else np.asarray(radii, dtype=float)
    lhs = _v3_lhs(V, theta, N, t, r)
    sign = np.where(t >= 1.0, 1.0, -1.0)[:, None]
    pointwise = sign * lhs
    integrated = _v3_integrated_lhs(V, theta, N, t, r)
    margins = np.minimum(pointwise, integrated)
    margin = float(margins.min())
    it, ir = np.unravel_index(int(np.argmin(margins)), margins.shape)
    passed = bool(margin >= -tol)
    witness = {"t": float(t[it]), "r": float(r[ir]), "value": float(margins[it, ir])}
    return ConditionReport("V3", passed, witness, margin, margins.size, tol,
                           notes=f"theta={theta:.6g}")


def estimate_theta_V3(V: PotentialSpec, N: int,
                      t_lattice: Optional[np.ndarray] = None,
                      radii: Optional[np.ndarray] = None) -> float:
    """Smallest theta making the two-point decay condition hold on the lattice.

    Solves the pointwise and integrated forms for theta at every lattice
    node (each is affine in theta with a sign-definite coefficient away
    from t = 1) and takes the supremum, clamped at zero.  A value >= 1
    means the condition fails for every admissible theta.
    """
    t = default_t_lattice() if t_lattice is None else np.asarray(t_lattice, dtype=float)
    r = default_radii() if radii is None else np.asarray(radii, dtype=float)
    base = _v3_lhs(V, 0.0, N, t, r)           # theta-free part
    coef = (N - 2.0) ** 3 * (t[:, None] ** 2 - 1.0) / (4.0 * t[:, None] ** 2 * r[None, :] ** 2)
    with np.errstate(divide="ignore", invalid="ignore"):
        # sign * (base + theta * coef) >= 0; sign matches the sign of coef,
        # so the requirement is theta >= -base / coef wherever coef != 0.
        req_point = np.where(coef != 0.0, -base / np.abs(coef) * np.sign(coef), -np.inf)
    g = 2.0 - N * t[:, None] ** (N - 2.0) + (N - 2.0) * t[:, None] ** N
    base_int = _v3_integrated_lhs(V, 0.0, N, t, r)
    coef_int = (N - 2.0) ** 2 * g / (4.0 * r[None, :] ** 2)
    with np.errstate(divide="ignore", invalid="ignore"):
        req_int = np.where(coef_int > 0.0, -base_int / coef_int, -np.inf)
    sup = float(max(np.max(req_point), np.max(req_int)))
    return max(0.0, sup)


def check_F(f: NonlinearitySpec, v_inf: float, N: int,
            samples: Optional[np.ndarray] = None,
            decay_margin: float = 1e-2,
            quad_tol: float = 1e-6) -> ConditionReport:
    """Growth, small/large-t decay, and one-point superquadraticity.

    * fits the smallest C0 with |f(t)| <= C0 (1 + |t|^{2*-1}) on samples;
    * requires |f(t)/t| at the smallest sampled |t| and
      |f(t)| / |t|^{(N+2)/(N-2)} at the largest to fall below the decay
      margin (limits are checked on the sampled range, not proven);
    * scans for s0 > 0 with F(s0) > (v_inf/2) s0^2 and records a witness;
    * verifies F is consistent with the integral of f on the samples.
    """
    ts = np.geomspace(1e-4, 1e2, 257) if samples is None else np.asarray(samples, dtype=float)
    ts = np.concatenate([-ts[::-1], ts])
    two_star = 2.0 * N / (N - 2.0)
    fv = np.asarray(f.f(ts), dtype=float)
    c0_fit = float(np.max(np.abs(fv) / (1.0 + np.abs(ts) ** (two_star - 1.0))))
    c0 = f.C0 if f.C0 is not None else c0_fit
    f1_ok = bool(np.all(np.abs(fv) <= c0 * (1.0 + np.abs(ts) ** (two_star - 1.0)) * (1 + 1e-12)))

    pos = ts[ts > 0]
    small = float(np.max(np.abs(np.asarray(f.f(pos[:2])) / pos[:2])))
    large = float(np.max(np.abs(np.asarray(f.f(pos[-2:])) / pos[-2:] ** (two_star - 1.0))))
    f2_ok = small <= decay_margin and large <= decay_margin

    s = np.geomspace(1e-3, 1e3, 512)
    gap = np.asarray(f.F(s), dtype=float) - 0.5 * v_inf * s**2
    hits = np.nonzero(gap > 0.0)[0]
    f3_ok = hits.size > 0
    j = int(hits[0]) if f3_ok else int(np.argmax(gap / (1.0 + s**2)))
    s0 = float(s[j]) if f3_ok else None
    if f.s0 is not None:
        declared_gap = float(np.asarray(f.F(np.array([f.s0])))[0] - 0.5 * v_inf * f.s0**2)
        f3_ok = f3_ok and declared_gap > 0.0

    # antiderivative consistency on a trapezoid refinement
    tt = np.linspace(0.0, 4.0, 4097)
    Ff = np.asarray(f.F(tt), dtype=float)
    cum = np.concatenate([[0.0], np.cumsum(
        0.5 * (np.asarray(f.f(tt[1:])) + np.asarray(f.f(tt[:-1]))) * np.diff(tt))])
    anti_err = float(np.max(np.abs(Ff - cum)))
    anti_ok = anti_err <= max(quad_tol, 1e-6 * np.max(np.abs(Ff)) + 1e-9)

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
    return ConditionReport("F1F2F3", passed, witness, margin, ts.size, decay_margin)


def check_H(h: Callable, dh: Callable, N: int,
            radii: Optional[np.ndarray] = None,
            cap: float = 1e6,
            tol: float = 1e-12) -> ConditionReport:
    """Perturbation-shape admissibility: h >= 0, vanishing at the far end,
    and sup_r [-r^3 h'(r)] finite (below the declared cap)."""
    radii = default_radii() if radii is None else np.asarray(radii, dtype=float)
    hv = np.asarray(h(radii), dtype=float)
    nonneg = float(hv.min())
    vanish = abs(float(hv[-1])) <= 5e-2 * max(1.0, float(np.max(np.abs(hv))))
    sup = float(np.max(-(radii**3) * np.asarray(dh(radii), dtype=float)))
    passed = bool(nonneg >= -tol and vanish and np.isfinite(sup) and sup <= cap)
    i = int(np.argmin(hv))
    witness = {"r_min_h": float(radii[i]), "h_min": nonneg, "sup_neg_r3_dh": sup}
    return ConditionReport("H1H2", passed, witness, nonneg, radii.size, tol)


def check_potential_envelope(V: PotentialSpec, theta: float, N: int,
                             radii: Optional[np.ndarray] = None,
                             tol: float = 1e-10) -> ConditionReport:
    """Two-sided envelope on N V(r) + r V'(r) around N V_inf.

    Follows from the two-point decay condition in its small- and
    large-dilation limits: the combination must stay between
    N V_inf - (N-2)^3 theta / (4 r^2) and N V_inf + (N-2)^2 theta / (2 r^2)
    at every sampled radius.
    """
    if not (0.0 <= theta < 1.0):
        raise DomainError(f"theta must lie in [0, 1), got {theta}")
    radii = default_radii() if radii is None else np.asarray(radii, dtype=float)
    mid = N * V.V(radii) + radii * V.dV(radii)
    lower = mid - (N * V.v_inf - (N - 2.0) ** 3 * theta / (4.0 * radii**2))
    upper = (N * V.v_inf + (N - 2.0) ** 2 * theta / (2.0 * radii**2)) - mid
    margins = np.minimum(lower, upper)
    i = int(np.argmin(margins))
    margin = float(margins[i])
    side = "lower" if lower[i] <= upper[i] else "upper"
    witness = {"r": float(radii[i]), "side": side, "value": margin}
    return ConditionReport("potential-envelope", bool(margin >= -tol), witness, margin,
                           radii.size, tol, notes=f"theta={theta:.6g}")


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
