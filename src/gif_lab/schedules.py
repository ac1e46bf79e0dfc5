"""Interpolation schedules (a_t, b_t) driving the Gaussian transport.

A schedule pairs a decreasing noise weight a_t with an increasing data
weight b_t on [0, 1], with a_1 = 0 and b_1 = 1.  Families provide closed
forms for both weights, their first and second time derivatives, and the
products a_t*da_t and b_t*db_t.  The products matter: for some families
(Follmer) the raw derivative diverges at t = 1 while the product stays
finite, and downstream velocity formulas only ever need the products.

The evaluators a, b, da_a, db_b and snr accept scalars or numpy arrays
of times in [0, 1]; eval gives the weights and all four derivatives at
one scalar time.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .errors import InvalidParamError, OutOfRangeError, _int_param, _real_param, _time_param

__all__ = [
    "SchedulePoint",
    "ValidationReport",
    "Schedule",
    "LinearSchedule",
    "ShiftedLinearSchedule",
    "FollmerSchedule",
    "TrigSchedule",
    "VESchedule",
    "VPSchedule",
    "make_schedule",
]


@dataclasses.dataclass(frozen=True)
class SchedulePoint:
    """Weights and derivatives of a schedule at one time.

    Divergent derivatives (e.g. the Follmer da at t = 1) are reported as
    signed infinities; use Schedule.da_a / db_b for the finite products.
    """

    t: float
    a: float
    b: float
    da: float
    db: float
    d2a: float
    d2b: float


@dataclasses.dataclass
class ValidationReport:
    """Outcome of Schedule.validate: a list of (condition, time) violations."""

    family: str
    grid_n: int
    violations: list[tuple[str, float]]

    @property
    def ok(self) -> bool:
        return not self.violations


class Schedule:
    """Base class; subclasses implement the raw closed forms _a .. _d2b."""

    family: str = "abstract"

    # raw closed forms, no domain checks, array in / array out
    def _a(self, t: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _b(self, t: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _da(self, t: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _db(self, t: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _d2a(self, t: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _d2b(self, t: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _da_a(self, t: np.ndarray) -> np.ndarray:
        return self._da(t) * self._a(t)

    def _db_b(self, t: np.ndarray) -> np.ndarray:
        return self._db(t) * self._b(t)

    def _check_time(self, t) -> np.ndarray:
        arr = _time_param("t", t)
        if not np.all(np.isfinite(arr)) or np.any(arr < 0.0) or np.any(arr > 1.0):
            raise OutOfRangeError(f"time must lie in [0, 1], got {t!r}")
        return arr

    def _dispatch(self, raw, t):
        arr = self._check_time(t)
        out = raw(arr)
        return float(out) if np.ndim(t) == 0 else out

    def a(self, t):
        return self._dispatch(self._a, t)

    def b(self, t):
        return self._dispatch(self._b, t)

    def da_a(self, t):
        """The product da_t * a_t, finite on all of [0, 1]."""
        return self._dispatch(self._da_a, t)

    def db_b(self, t):
        """The product db_t * b_t, finite on all of [0, 1]."""
        return self._dispatch(self._db_b, t)

    @property
    def a0(self) -> float:
        return float(self._a(np.float64(0.0)))

    @property
    def b0(self) -> float:
        return float(self._b(np.float64(0.0)))

    def eval(self, t: float) -> SchedulePoint:
        arr = self._check_time(t)
        if arr.ndim != 0:
            raise OutOfRangeError("eval takes a scalar time; use a()/b() for arrays")
        with np.errstate(divide="ignore", invalid="ignore"):
            return SchedulePoint(
                t=float(arr),
                a=float(self._a(arr)),
                b=float(self._b(arr)),
                da=float(self._da(arr)),
                db=float(self._db(arr)),
                d2a=float(self._d2a(arr)),
                d2b=float(self._d2b(arr)),
            )

    def _snr(self, t: np.ndarray) -> np.ndarray:
        a = self._a(t)
        b = self._b(t)
        with np.errstate(divide="ignore"):
            return np.where(a > 0.0, (b / np.where(a > 0.0, a, 1.0)) ** 2, np.inf)

    def snr(self, t):
        """Signal-to-noise ratio b_t^2 / a_t^2 for t in (0, 1]; +inf when a_t = 0."""
        arr = self._check_time(t)
        if np.any(arr <= 0.0):
            raise OutOfRangeError("snr is defined for t in (0, 1]")
        out = self._snr(arr)
        return float(out) if np.ndim(t) == 0 else out

    def validate(self, grid_n: int = 256) -> ValidationReport:
        """Check the schedule conditions on a uniform grid.

        Conditions: endpoint values a(1) = 0 and b(1) = 1 to machine
        precision, positivity of a on [0, 1) and b on (0, 1], derivative
        signs da <= 0 and db >= 0 wherever finite, finiteness of the
        product a*da on all of [0, 1], and strict growth of the SNR.
        """
        grid_n = _int_param("grid_n", grid_n, "[8, inf)")
        grid = np.linspace(0.0, 1.0, grid_n)
        bad: list[tuple[str, float]] = []
        with np.errstate(divide="ignore", invalid="ignore"):
            a = self._a(grid)
            b = self._b(grid)
            da = self._da(grid)
            db = self._db(grid)
            da_a = self._da_a(grid)
            snr = self._snr(grid[1:])

        if not abs(float(a[-1])) <= 1e-15:
            bad.append(("a(1) = 0", 1.0))
        if not abs(float(b[-1]) - 1.0) <= 1e-15:
            bad.append(("b(1) = 1", 1.0))
        for i in np.nonzero(~(a[:-1] > 0.0))[0]:
            bad.append(("a(t) > 0 on [0,1)", float(grid[i])))
        for i in np.nonzero(~(b[1:] > 0.0))[0]:
            bad.append(("b(t) > 0 on (0,1]", float(grid[i + 1])))
        fin = np.isfinite(da)
        for i in np.nonzero(fin & (da > 1e-12))[0]:
            bad.append(("da <= 0", float(grid[i])))
        fin = np.isfinite(db)
        for i in np.nonzero(fin & (db < -1e-12))[0]:
            bad.append(("db >= 0", float(grid[i])))
        for i in np.nonzero(~np.isfinite(da_a))[0]:
            bad.append(("a*da finite", float(grid[i])))
        # adjacent +inf values (only possible if a vanishes early) have a
        # NaN difference and are flagged
        with np.errstate(invalid="ignore"):
            growth = np.diff(snr) > 0.0
        for i in np.nonzero(~growth)[0]:
            bad.append(("snr strictly increasing", float(grid[i + 1])))
        return ValidationReport(family=self.family, grid_n=grid_n, violations=bad)

    def describe(self) -> str:
        """The family, then its init fields formatted with :g, e.g. vp(0.8,2)."""
        fields = dataclasses.fields(self) if dataclasses.is_dataclass(self) else ()
        params = [f"{getattr(self, f.name):g}" for f in fields if f.init]
        return f"{self.family}({','.join(params)})" if params else self.family


@dataclasses.dataclass(frozen=True)
class ShiftedLinearSchedule(Schedule):
    """a_t = (1-t)/(1+zeta), b_t = (t+zeta)/(1+zeta); zeta = 0 is plain linear.

    The shift gives the source a data component b_0 = zeta/(1+zeta) > 0,
    which is exactly the lever the source-perturbation experiment pulls.
    """

    zeta: float = 0.0
    family = "shifted-linear"

    def __post_init__(self):
        object.__setattr__(self, "zeta", _real_param("zeta", self.zeta, "[0, inf)"))

    def _a(self, t):
        return (1.0 - t) / (1.0 + self.zeta)

    def _b(self, t):
        return (np.asarray(t, dtype=float) + self.zeta) / (1.0 + self.zeta)

    def _da(self, t):
        return np.full_like(np.asarray(t, dtype=float), -1.0 / (1.0 + self.zeta))

    def _db(self, t):
        return np.full_like(np.asarray(t, dtype=float), 1.0 / (1.0 + self.zeta))

    def _d2a(self, t):
        return np.zeros_like(np.asarray(t, dtype=float))

    def _d2b(self, t):
        return np.zeros_like(np.asarray(t, dtype=float))


@dataclasses.dataclass(frozen=True)
class LinearSchedule(ShiftedLinearSchedule):
    """a_t = 1 - t, b_t = t: the shifted-linear family at zeta = 0, whose
    closed forms give exactly these weights and derivatives."""

    zeta: float = dataclasses.field(default=0.0, init=False, repr=False)
    family = "linear"


@dataclasses.dataclass(frozen=True)
class FollmerSchedule(Schedule):
    """a_t = sqrt(1 - t^2), b_t = t.

    da diverges to -inf at t = 1, but a*da = -t stays bounded; the product
    override below is exact and is what keeps terminal-time velocity
    assembly stable.
    """

    family = "follmer"

    def _a(self, t):
        return np.sqrt(1.0 - np.asarray(t, dtype=float) ** 2)

    def _b(self, t):
        return np.asarray(t, dtype=float) + 0.0

    def _da(self, t):
        t = np.asarray(t, dtype=float)
        with np.errstate(divide="ignore"):
            return np.where(t < 1.0, -t / np.sqrt(np.maximum(1.0 - t * t, 0.0)), -np.inf)

    def _db(self, t):
        return np.ones_like(np.asarray(t, dtype=float))

    def _d2a(self, t):
        t = np.asarray(t, dtype=float)
        with np.errstate(divide="ignore"):
            return np.where(t < 1.0, -np.maximum(1.0 - t * t, 0.0) ** -1.5, -np.inf)

    def _d2b(self, t):
        return np.zeros_like(np.asarray(t, dtype=float))

    def _da_a(self, t):
        return -(np.asarray(t, dtype=float) + 0.0)


@dataclasses.dataclass(frozen=True)
class TrigSchedule(Schedule):
    """a_t = cos(pi t / 2), b_t = sin(pi t / 2)."""

    family = "trig"

    _W = math.pi / 2.0

    def _a(self, t):
        return np.cos(self._W * np.asarray(t, dtype=float))

    def _b(self, t):
        return np.sin(self._W * np.asarray(t, dtype=float))

    def _da(self, t):
        return -self._W * np.sin(self._W * np.asarray(t, dtype=float))

    def _db(self, t):
        return self._W * np.cos(self._W * np.asarray(t, dtype=float))

    def _d2a(self, t):
        return -self._W ** 2 * np.cos(self._W * np.asarray(t, dtype=float))

    def _d2b(self, t):
        return -self._W ** 2 * np.sin(self._W * np.asarray(t, dtype=float))

    def _da_a(self, t):
        # product form -pi/4 * sin(pi t) avoids cancellation at the endpoints
        return -(math.pi / 4.0) * np.sin(math.pi * np.asarray(t, dtype=float))

    def _db_b(self, t):
        return (math.pi / 4.0) * np.sin(math.pi * np.asarray(t, dtype=float))


@dataclasses.dataclass(frozen=True)
class VESchedule(Schedule):
    """Variance-exploding: a_t = sigma_max (1 - t), b_t = 1."""

    sigma_max: float = 1.0
    family = "ve"

    def __post_init__(self):
        object.__setattr__(self, "sigma_max",
                           _real_param("sigma_max", self.sigma_max, "(0, inf)"))

    def _a(self, t):
        return self.sigma_max * (1.0 - np.asarray(t, dtype=float))

    def _b(self, t):
        return np.ones_like(np.asarray(t, dtype=float))

    def _da(self, t):
        return np.full_like(np.asarray(t, dtype=float), -self.sigma_max)

    def _db(self, t):
        return np.zeros_like(np.asarray(t, dtype=float))

    def _d2a(self, t):
        return np.zeros_like(np.asarray(t, dtype=float))

    def _d2b(self, t):
        return np.zeros_like(np.asarray(t, dtype=float))


@dataclasses.dataclass(frozen=True)
class VPSchedule(Schedule):
    """Variance-preserving: a_t = alpha0 cos(pi t / 2)^p, b_t = sqrt(1 - a_t^2).

    Requires alpha0 in (0, 1) so that b_0 > 0, and p >= 1 so da stays finite.
    """

    alpha0: float = 0.9
    p: float = 1.0
    family = "vp"

    _W = math.pi / 2.0

    def __post_init__(self):
        object.__setattr__(self, "alpha0", _real_param("alpha0", self.alpha0, "(0, 1)"))
        object.__setattr__(self, "p", _real_param("p", self.p, "[1, inf)"))

    def _a(self, t):
        return self.alpha0 * np.cos(self._W * np.asarray(t, dtype=float)) ** self.p

    def _b(self, t):
        return np.sqrt(1.0 - self._a(t) ** 2)

    def _da(self, t):
        t = np.asarray(t, dtype=float)
        c = np.cos(self._W * t)
        s = np.sin(self._W * t)
        return -self.alpha0 * self.p * self._W * c ** (self.p - 1.0) * s

    def _db(self, t):
        return -self._a(t) * self._da(t) / self._b(t)

    def _d2a(self, t):
        t = np.asarray(t, dtype=float)
        c = np.cos(self._W * t)
        s = np.sin(self._W * t)
        if self.p == 1.0:
            term = c
        else:
            with np.errstate(divide="ignore", invalid="ignore"):
                term = c ** self.p - (self.p - 1.0) * c ** (self.p - 2.0) * s * s
        return -self.alpha0 * self.p * self._W ** 2 * term

    def _d2b(self, t):
        # from b^2 = 1 - a^2: b*d2b = -(da^2 + a*d2a) - db^2
        a = self._a(t)
        b = self._b(t)
        da = self._da(t)
        db = self._db(t)
        return -(da * da + a * self._d2a(t) + db * db) / b

    def _db_b(self, t):
        # b*db = -a*da exactly, no division by b
        return -self._a(t) * self._da(t)


_FAMILIES = {
    "linear": LinearSchedule,
    "shifted-linear": ShiftedLinearSchedule,
    "follmer": FollmerSchedule,
    "trig": TrigSchedule,
    "trigonometric": TrigSchedule,
    "ve": VESchedule,
    "vp": VPSchedule,
}


def make_schedule(family: str, **params) -> Schedule:
    """Build a schedule by family name.

    Accepted names: linear, shifted-linear, follmer, trig (alias
    trigonometric), ve, vp.  Family parameters are keyword-only, e.g.
    make_schedule("vp", alpha0=0.8, p=2).
    """
    key = str(family).strip().lower().replace("_", "-")
    cls = _FAMILIES.get(key)
    if cls is None:
        known = ", ".join(sorted(set(_FAMILIES)))
        raise InvalidParamError(f"unknown schedule family {family!r}; known: {known}")
    try:
        return cls(**params)
    except TypeError as exc:
        raise InvalidParamError(f"bad parameters for {key}: {exc}") from None
