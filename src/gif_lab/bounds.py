"""One-sided eigenvalue envelopes for the velocity and flow-map Lipschitz bounds.

A theta profile is a piecewise upper envelope theta(t) for the largest
eigenvalue of the velocity Jacobian, built from whichever regularity
constants of the target are available:

* gaussian   (kappa a da + b db) / (kappa a^2 + b^2), exact for Gaussians
* bounded-d  diameter-based growth bound, diverging at t = 1, usually
             handed over to the gaussian form at the crossover time t1
* mixture    isotropic-mixture form driven by sigma and the mean radius R:
             grad v = alpha I + gamma spread (flow.py) and spread <= R^2 I,
             so alpha + gamma R^2 bounds grad v at every point
* log-lip    perturbation bound for log-Lipschitz densities, handed over
             to the gaussian form at t2

Integrals of theta over [s, t] exponentiate to Lipschitz bounds on the
flow map.  Every piece carries a closed-form antiderivative except the
log-lip piece, which falls back to adaptive Simpson quadrature.
Divergent integrals come back as +inf rather than raising.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .errors import (
    InvalidParamError,
    MissingFieldError,
    NoRootError,
    OutOfRangeError,
    _real_param,
    _time_param,
)
from .schedules import Schedule
from .targets import Target

__all__ = [
    "RegularityProfile",
    "ThetaProfile",
    "theta_profile",
    "critical_time",
    "lipschitz_flow_map",
    "endpoint_lipschitz",
    "functional_constant",
]

_CASES = ("gaussian", "bounded-d", "mixture", "log-lip")


# The interval of each profile field; only D may be +inf.
_PROFILE_FIELDS = {"kappa": "(-inf, inf)", "beta": "(0, inf)", "D": "[0, inf]",
                   "R": "[0, inf)", "sigma": "(0, inf)", "L": "[0, inf)"}


@dataclasses.dataclass(frozen=True)
class RegularityProfile:
    """Known regularity constants of a target; every field is optional.

    kappa: semi-log-concavity curvature (any sign)
    beta:  semi-log-convexity curvature (> 0, >= kappa)
    D:     support diameter divided by sqrt(2), may be +inf
    R:     radius of the minimal ball enclosing the support / means
    sigma: isotropic mixture component deviation
    L:     log-Lipschitz constant of the density ratio to the Gaussian
    """

    kappa: float | None = None
    beta: float | None = None
    D: float | None = None
    R: float | None = None
    sigma: float | None = None
    L: float | None = None

    def __post_init__(self):
        for name, interval in _PROFILE_FIELDS.items():
            value = getattr(self, name)
            if value is not None:
                object.__setattr__(self, name, _real_param(name, value, interval))
        if self.kappa is not None and self.beta is not None and self.beta < self.kappa:
            raise InvalidParamError(
                f"beta ({self.beta}) must dominate kappa ({self.kappa})")

    @classmethod
    def from_target(cls, target: Target) -> "RegularityProfile":
        """Profile of an explicit mixture: sigma, R, D, plus curvatures when
        the target is a single Gaussian."""
        return cls(kappa=target.kappa, beta=target.beta,
                   D=target.diam_over_sqrt2, R=target.radius, sigma=target.sigma)

    def require(self, field: str, case: str) -> float:
        value = getattr(self, field)
        if value is None:
            raise MissingFieldError(f"case {case!r} needs profile field {field!r}")
        return value


# ---------------------------------------------------------------------------
# pieces


def _adaptive_simpson(f, a: float, b: float, tol: float = 1e-10) -> float:
    def one(lo, flo, mid, fmid, hi, fhi):
        return (hi - lo) / 6.0 * (flo + 4.0 * fmid + fhi)

    def rec(lo, flo, mid, fmid, hi, fhi, whole, tol, depth):
        lm = 0.5 * (lo + mid)
        rm = 0.5 * (mid + hi)
        flm, frm = f(lm), f(rm)
        left = one(lo, flo, lm, flm, mid, fmid)
        right = one(mid, fmid, rm, frm, hi, fhi)
        err = left + right - whole
        if depth <= 0 or abs(err) <= 15.0 * tol:
            return left + right + err / 15.0
        return (rec(lo, flo, lm, flm, mid, fmid, left, 0.5 * tol, depth - 1)
                + rec(mid, fmid, rm, frm, hi, fhi, right, 0.5 * tol, depth - 1))

    if b <= a:
        return 0.0
    m = 0.5 * (a + b)
    fa, fm, fb = f(a), f(m), f(b)
    return rec(a, fa, m, fm, b, fb, one(a, fa, m, fm, b, fb), tol, 48)


@dataclasses.dataclass(frozen=True)
class _Piece:
    sched: Schedule
    lo: float
    hi: float
    piece_id: str

    def theta_raw(self, t: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _antideriv(self, t: float) -> float | None:
        return None

    def integral(self, s: float, t: float) -> float:
        if t <= s:
            return 0.0
        Fs = self._antideriv(s)
        if Fs is None:
            return _adaptive_simpson(
                lambda u: float(self.theta_raw(np.float64(u))), s, t)
        Ft = self._antideriv(t)
        if Ft == math.inf or Fs == -math.inf:
            return math.inf
        return Ft - Fs


@dataclasses.dataclass(frozen=True)
class _GaussianPiece(_Piece):
    kappa: float = 0.0

    def theta_raw(self, t):
        s = self.sched
        den = self.kappa * s._a(t) ** 2 + s._b(t) ** 2
        with np.errstate(divide="ignore"):
            return (self.kappa * s._da_a(t) + s._db_b(t)) / den

    def _antideriv(self, t):
        s = self.sched
        den = self.kappa * float(s._a(np.float64(t))) ** 2 \
            + float(s._b(np.float64(t))) ** 2
        if den <= 0.0:
            return -math.inf
        return 0.5 * math.log(den)


@dataclasses.dataclass(frozen=True)
class _BoundedDPiece(_Piece):
    dsq: float = 1.0

    def theta_raw(self, t):
        s = self.sched
        a2 = s._a(t) ** 2
        b2 = s._b(t) ** 2
        da_a = s._da_a(t)
        with np.errstate(divide="ignore"):
            return (s._db_b(t) * a2 - da_a * b2) / a2 ** 2 * self.dsq + da_a / a2

    def _antideriv(self, t):
        s = self.sched
        a = float(s._a(np.float64(t)))
        if a <= 0.0:
            return math.inf
        b = float(s._b(np.float64(t)))
        return 0.5 * self.dsq * (b / a) ** 2 + math.log(a)


@dataclasses.dataclass(frozen=True)
class _MixturePiece(_Piece):
    sigma: float = 1.0
    rsq: float = 0.0

    def theta_raw(self, t):
        s = self.sched
        a2 = s._a(t) ** 2
        b2 = s._b(t) ** 2
        da_a = s._da_a(t)
        db_b = s._db_b(t)
        c2 = a2 + self.sigma ** 2 * b2
        return (da_a + self.sigma ** 2 * db_b) / c2 \
            + (a2 * db_b - da_a * b2) / c2 ** 2 * self.rsq

    def _antideriv(self, t):
        s = self.sched
        a2 = float(s._a(np.float64(t))) ** 2
        c2 = a2 + self.sigma ** 2 * float(s._b(np.float64(t))) ** 2
        return 0.5 * math.log(c2) - self.rsq / (2.0 * self.sigma ** 2) * (a2 / c2)


@dataclasses.dataclass(frozen=True)
class _LogLipPiece(_Piece):
    L: float = 0.0

    def theta_raw(self, t):
        s = self.sched
        a2 = s._a(t) ** 2
        b = s._b(t)
        b2 = b ** 2
        n2 = a2 + b2
        # inverse sqrt of log(sqrt(a^2+b^2)/b); the log blows up as b -> 0,
        # so the factor tends to 0 there
        with np.errstate(divide="ignore"):
            ilog = np.where(b > 0.0,
                            0.5 * np.log(n2 / np.where(b > 0.0, b2, 1.0)), np.inf)
        ilog = np.where(ilog > 0.0, 1.0 / np.sqrt(np.where(ilog > 0.0, ilog, 1.0)),
                        np.inf)
        ilog = np.where(b > 0.0, ilog, 0.0)
        coef = s._db(t) * a2 - s._da_a(t) * b
        bound = 5.0 * self.L * coef * n2 ** -1.5 * (self.L + ilog)
        return bound + (s._da_a(t) + s._db_b(t)) / n2


@dataclasses.dataclass
class ThetaProfile:
    """Piecewise envelope with its crossover times and quadrature helpers."""

    case: str
    pieces: list[_Piece]
    t0: float | None = None
    t1: float | None = None
    t2: float | None = None

    @property
    def lo(self) -> float:
        return self.pieces[0].lo

    def piece_at(self, t: float) -> _Piece:
        t = float(_time_param("t", t))
        if not self.lo - 1e-12 <= t <= 1.0 + 1e-12:  # NaN included
            raise OutOfRangeError(
                f"profile covers [{self.lo}, 1], asked for t={t}")
        for piece in reversed(self.pieces):
            if t >= piece.lo:
                return piece
        return self.pieces[0]

    def theta(self, t):
        arr = _time_param("t", t)
        out = np.array([float(self.piece_at(ti).theta_raw(np.float64(ti)))
                        for ti in arr.reshape(-1)])
        return float(out[0]) if arr.ndim == 0 else out.reshape(arr.shape)

    def integral(self, s: float, t: float) -> float:
        """Integral of theta over [s, t] within the covered interval."""
        s, t = float(_time_param("s", s)), float(_time_param("t", t))
        if t < s:
            raise OutOfRangeError(f"need s <= t, got {s} > {t}")
        if not (self.lo - 1e-12 <= s and t <= 1.0 + 1e-12):  # NaN included
            raise OutOfRangeError(
                f"profile covers [{self.lo}, 1], asked for [{s}, {t}]")
        total = 0.0
        for piece in self.pieces:
            seg_lo = max(s, piece.lo)
            seg_hi = min(t, piece.hi)
            if seg_hi > seg_lo:
                total += piece.integral(seg_lo, seg_hi)
        return total


def _snr_root(sched: Schedule, value: float) -> float:
    """Time where b^2/a^2 crosses value, by bisection on b^2 - value*a^2."""
    if value <= 0.0:
        raise NoRootError(f"snr crossing needs a positive level, got {value}")

    def g(t: float) -> float:
        return float(sched._b(np.float64(t))) ** 2 \
            - value * float(sched._a(np.float64(t))) ** 2

    if g(0.0) >= 0.0:
        raise NoRootError(
            f"snr already >= {value} at t=0; no crossing inside (0, 1)")
    lo, hi = 0.0, 1.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if g(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def critical_time(profile: RegularityProfile, sched: Schedule) -> float:
    """Crossover time t1 solving snr(t1) = 1/D^2 - kappa.

    Raises NoRoot when kappa * D^2 >= 1 (the gaussian form already covers
    all of [0, 1]) or when the schedule's snr starts above the level.
    """
    kappa = profile.require("kappa", "critical-time")
    D = profile.require("D", "critical-time")
    if not (math.isfinite(D) and D > 0.0):
        raise InvalidParamError(f"critical time needs finite D > 0, got {D}")
    if kappa * D * D >= 1.0:
        raise NoRootError(
            f"kappa*D^2 = {kappa * D * D:g} >= 1: gaussian form valid everywhere")
    return _snr_root(sched, 1.0 / D ** 2 - kappa)


def _t0_or_none(sched: Schedule, kappa: float) -> float | None:
    """Positivity threshold of kappa*a^2 + b^2, None when positive from 0."""
    if kappa >= 0.0:
        return None
    try:
        return _snr_root(sched, -kappa)
    except NoRootError:
        return None


def theta_profile(profile: RegularityProfile, sched: Schedule, case: str,
                  t2: float | None = None) -> ThetaProfile:
    """Assemble the piecewise envelope for one of the four regularity cases."""
    key = str(case).strip().lower().replace("_", "-")
    if key not in _CASES:
        raise InvalidParamError(f"unknown case {case!r}; known: {sorted(_CASES)}")

    if key == "gaussian":
        kappa = profile.require("kappa", key)
        t0 = _t0_or_none(sched, kappa)
        lo = 0.0 if t0 is None else t0 + 1e-6
        piece = _GaussianPiece(sched, lo, 1.0, "gaussian", kappa=kappa)
        return ThetaProfile(case=key, pieces=[piece], t0=t0)

    if key == "bounded-d":
        D = profile.require("D", key)
        if not (D > 0.0):
            raise InvalidParamError(f"bounded-d needs D > 0, got {D}")
        if profile.kappa is None or not math.isfinite(D):
            piece = _BoundedDPiece(sched, 0.0, 1.0, "bounded-d", dsq=D * D)
            return ThetaProfile(case=key, pieces=[piece])
        kappa = profile.kappa
        t0 = _t0_or_none(sched, kappa)
        try:
            t1 = critical_time(profile, sched)
        except NoRootError:
            piece = _GaussianPiece(sched, 0.0, 1.0, "gaussian", kappa=kappa)
            return ThetaProfile(case=key, pieces=[piece], t0=t0)
        pieces = [
            _BoundedDPiece(sched, 0.0, t1, "bounded-d", dsq=D * D),
            _GaussianPiece(sched, t1, 1.0, "gaussian", kappa=kappa),
        ]
        return ThetaProfile(case=key, pieces=pieces, t0=t0, t1=t1)

    if key == "mixture":
        sigma = profile.require("sigma", key)
        R = profile.require("R", key)
        piece = _MixturePiece(sched, 0.0, 1.0, "mixture", sigma=sigma, rsq=R * R)
        return ThetaProfile(case=key, pieces=[piece])

    # log-lip
    L = profile.require("L", key)
    kappa = profile.require("kappa", key)
    if kappa > 0.0:
        raise InvalidParamError(
            f"log-lip case expects kappa <= 0 (perturbation of a Gaussian), "
            f"got {kappa}")
    t0 = _t0_or_none(sched, kappa)
    t0_val = 0.0 if t0 is None else t0
    if t2 is None:
        t2 = 0.5 * (t0_val + 1.0)
    t2 = _real_param("t2", t2)
    if not (t0_val < t2 < 1.0):
        raise InvalidParamError(f"t2 must lie in ({t0_val}, 1), got {t2}")
    pieces = [
        _LogLipPiece(sched, 0.0, t2, "log-lip", L=L),
        _GaussianPiece(sched, t2, 1.0, "gaussian", kappa=kappa),
    ]
    return ThetaProfile(case=key, pieces=pieces, t0=t0_val, t2=t2)


def lipschitz_flow_map(theta: ThetaProfile, s: float, t: float) -> float:
    """exp of the theta integral: Lipschitz bound for the flow map s -> t.

    Divergent integrals give +inf (the bound holds trivially).
    """
    val = theta.integral(s, t)
    if val == math.inf:
        return math.inf
    with np.errstate(over="ignore"):
        return float(np.exp(val))


def endpoint_lipschitz(profile: RegularityProfile, sched: Schedule,
                       direction: str = "forward", case: str | None = None) -> float:
    """Closed-form Lipschitz constant of the full transport map (0 -> 1).

    Case "gaussian" uses the curvature constants; case "mixture" the
    (sigma, R) pair.  Auto-detection prefers mixture when its fields are
    present.  Forward maps noise to data; reverse is the inverse map.
    """
    if direction not in ("forward", "reverse"):
        raise InvalidParamError(f"direction must be forward or reverse, got {direction!r}")
    if case is None:
        case = "mixture" if profile.sigma is not None else "gaussian"
    key = str(case).strip().lower().replace("_", "-")
    if key not in ("gaussian", "mixture"):
        raise InvalidParamError(f"endpoint case must be gaussian or mixture, got {case!r}")
    a0, b0 = sched.a0, sched.b0
    if key == "gaussian":
        if direction == "forward":
            kappa = profile.require("kappa", "endpoint-gaussian")
            if kappa <= 0.0:
                raise InvalidParamError(
                    f"forward gaussian endpoint needs kappa > 0, got {kappa}")
            return 1.0 / math.sqrt(kappa * a0 ** 2 + b0 ** 2)
        beta = profile.require("beta", "endpoint-gaussian")
        return math.sqrt(beta * a0 ** 2 + b0 ** 2)
    sigma = profile.require("sigma", "endpoint-mixture")
    if direction == "forward":
        R = profile.require("R", "endpoint-mixture")
        c0sq = a0 ** 2 + sigma ** 2 * b0 ** 2
        try:
            return sigma / math.sqrt(c0sq) * math.exp(a0 ** 2 / c0sq * R ** 2 / (2.0 * sigma ** 2))
        except OverflowError:
            return math.inf
    return math.sqrt(a0 ** 2 / sigma ** 2 + b0 ** 2)


def functional_constant(c_nu: float, sched: Schedule, t: float,
                        kind: str = "log-sobolev") -> float:
    """Constant a_t^2 + b_t^2 * c_nu transported from the target's constant.

    The same arithmetic covers both the log-Sobolev and Poincare
    inequalities; kind is validated to keep call sites honest.
    """
    if kind not in ("log-sobolev", "poincare"):
        raise InvalidParamError(f"kind must be log-sobolev or poincare, got {kind!r}")
    c_nu = _real_param("c_nu", c_nu, "(0, inf)")
    p = sched.eval(t)
    return p.a ** 2 + p.b ** 2 * c_nu
