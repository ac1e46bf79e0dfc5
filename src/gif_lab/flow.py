"""Transport velocity field and the one fixed-step RK4 engine for its ODE.

With c^2 = a^2 + sigma^2 b^2, mu_bar the responsibility-weighted mean of
the component means and spread(mu) their responsibility-weighted
covariance, the velocity and its space Jacobian are one formula each:

    v      = alpha x + beta mu_bar
    grad v = alpha I + (b beta / c^2) spread(mu)

    alpha  = (a da + sigma^2 b db) / c^2
    beta   = (a^2 db - a da b) / c^2

Schedules supply the products a da and b db directly, so the coefficients
never divide by a_t or b_t and are finite on the whole of [0, 1]: at t = 0
where b_0 may vanish, and at t = 1 where a_1 = 0 and Follmer's da diverges.

On 0 < t < 1 the time derivative is one formula on the same coefficients:

    d/dt v      = alpha' x + beta' mu_bar + beta d/dt mu_bar
    alpha'      = (d(a da) + sigma^2 d(b db)) / c^2 - 2 alpha^2
    beta'       = (a da db + a^2 d2b - d(a da) b) / c^2 - 2 alpha beta
    d/dt mu_bar = spread(mu) ((beta - b alpha) / c^2 x - 2 gamma mu_bar) - gamma k3

with gamma = b beta / c^2, d(a da) = da^2 + a d2a, d(b db) = db^2 + b d2b
and k3 the third central moment of the component means; it uses
(c^2)' = 2 alpha c^2, (b / c^2)' = (beta - b alpha) / c^2, (b^2 / c^2)' = 2 gamma.

An integrator call evaluates these coefficients once, vectorised over the
2*steps+1 RK4 stage times (step starts, midpoints, ends), into a table,
together with the posterior kernel's logit terms at each stage; reverse
runs store the coefficients sign-flipped.  This table is the only source of
rates: no integrator takes a user-supplied field.  One RK4 loop, _rk4, then
advances a tuple state and checks every component for finiteness after
every step.  Its stage arithmetic runs in place on the rate outputs, in
the same float operations and order as s + h/6 (r1 + 2 r2 + 2 r3 + r4),
and never writes into the state it was handed.  The state is the
particles, optionally with either one tangent per particle or their
flow-map Jacobian (and log-density):

    d(J u)/dt = grad v . (J u),   dJ/dt = grad v . J,   dl/dt = -tr grad v.

A tangent needs only spread(mu) w = sum_j r_j c_j (c_j . w), never the
(n, d, d) spread, so a caller that wants J u for one direction u carries
that (n, d) product instead of J.  Callers that perturb the flow, such as
the flow-difference check and the velocity-noise sweep, wrap _rates on a
table of their own.

States are batched: the public functions take a point (d,) or a cloud
(n, d) and return C-ordered (n, d) arrays, but inside the engine a cloud
and its tangents are particles-last, (d, n), the layout of the posterior
kernel (targets), so every elementwise operation runs over rows of n
particles.  Each public function transposes once at its boundary; only
the Jacobian state keeps its point-major (n, d, d) layout.  All
integrators advance whole clouds per step.  Reverse-time transport solves
dX*/dtau = -v(1 - tau, X*) on the integrator clock tau in [0, 1].

The table, the rates and _rk4 also take a leading group axis: G clouds of
one size, (G, d, n), each on its own stage clock, advance together, and
each group's numbers are those of its own 2-D run.  The flow-difference
check runs its whole steps grid this way.
"""

from __future__ import annotations

import collections
import dataclasses
import itertools
import math

import numpy as np

from .artifacts import repr_lines, write_table
from .errors import (
    DegenerateTimeError,
    InvalidParamError,
    NonFiniteStateError,
    OutOfRangeError,
    SizeMismatchError,
    _array_param,
    _int_param,
    _real_param,
    _time_param,
)
from .schedules import Schedule
from .targets import (Target, _as_batch, _logit_terms, _rows, _spread, _spread_apply,
                      _stats, _third_moment)

__all__ = [
    "FlowContext",
    "Trajectory",
    "velocity",
    "velocity_jacobian",
    "velocity_dt",
    "integrate",
    "integrate_augmented",
]


@dataclasses.dataclass(frozen=True)
class FlowContext:
    """Pairs a schedule with a target; early_stop shrinks the time horizon.

    With early_stop = tl the forward flow runs on [0, 1 - tl].  The
    default 0 is safe because targets carry sigma > 0, which keeps the
    terminal marginal non-degenerate.
    """

    sched: Schedule
    target: Target
    early_stop: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "early_stop",
                           _real_param("early_stop", self.early_stop, "[0, 0.5)"))

    @property
    def t_max(self) -> float:
        return 1.0 - self.early_stop


def _check_flow_time(ctx: FlowContext, t: float) -> float:
    t = float(_time_param("t", t))
    if not (math.isfinite(t) and 0.0 <= t <= 1.0):
        raise OutOfRangeError(f"time must lie in [0, 1], got {t!r}")
    if t > ctx.t_max:
        raise DegenerateTimeError(
            f"time {t} exceeds the early-stop horizon {ctx.t_max}")
    return t


# Velocity coefficients at a grid of physical times; gamma = b beta / c^2
# multiplies the spread in grad v.  Reverse runs store alpha, beta and gamma
# sign-flipped, so the table gives the integrator-clock rate.  smc, bm0 and
# const are the posterior kernel's logit terms (targets._logit_terms).
class _Table(collections.namedtuple("_Table", "b c2 alpha beta gamma smc bm0 const")):
    __slots__ = ()

    def logits(self, k: int) -> tuple:
        """The logit terms of stage k, as targets._stats takes them."""
        return self.smc[k], self.bm0[k], self.const[k]

    def groups(self, count: int) -> "_Table":
        """The table of the first count groups of a grouped table."""
        return _Table(*(col[:, :count] for col in self))


def _table(ctx: FlowContext, t: np.ndarray, sign: float = 1.0) -> _Table:
    """Coefficients at the physical times t, validated once for the grid.

    t is (K,), one time per stage, or (K, G), one stage clock per group.
    With groups, the scalar columns are (K, G, 1, 1), so entry k broadcasts
    over a (G, d, n) state, and the logit terms carry the G axis in front
    of their own; bm0 is a (d, 1) column per entry.  A one-component
    target's logit terms are built too, though _rates never reads them.
    """
    sched, s2 = ctx.sched, ctx.target.sigma ** 2
    t = sched._check_time(t)
    with np.errstate(divide="ignore", invalid="ignore"):
        a, b, db = sched._a(t), sched._b(t), sched._db(t)
        a_da, b_db = sched._da_a(t), sched._db_b(t)
    c2 = a * a + s2 * b * b
    bad = ~(c2 > 0.0)
    if bad.any():
        raise DegenerateTimeError(
            f"marginal covariance degenerates at t={float(t[bad][0])}")
    alpha = sign * (a_da + s2 * b_db) / c2
    beta = sign * (a * a * db - a_da * b) / c2
    cols = (b, c2, alpha, beta, beta * b / c2)
    if t.ndim == 2:
        cols = tuple(col[..., None, None] for col in cols)
    return _Table(*cols, *_logit_terms(ctx.target, b[..., None, None], c2[..., None, None]))


def _rates(target: Target, tab: _Table, k: int, state: tuple) -> tuple:
    """Rates of the state (x,), (x, w), (x, J) or (x, J, logdens) at entry k.

    x and a tangent w are particles-last (d, n), a Jacobian J is (n, d, d):
    dw = grad v . w, dJ = grad v . J and dl = -tr grad v, without forming
    grad v.  A one-component target has zero spread, so there grad v =
    alpha I and every particle has the log-density rate -d alpha.  With a
    grouped table, x and w are (G, d, n).  Every rate is a new array of its
    component's shape, which _rk4 may overwrite.
    """
    x, alpha = state[0], tab.alpha[k]
    if target.n_components == 1:
        rates = (alpha * x + tab.beta[k] * target.means.T,)
        if len(state) > 1:
            rates += (alpha * state[1],)
        if len(state) > 2:
            rates += (np.full(x.shape[-1], -(target.dim * alpha)),)
        return rates
    resp, mu_bar = _stats(target, tab.logits(k), x)
    v = tab.beta[k] * mu_bar
    v += alpha * x
    if len(state) == 1:
        return (v,)
    gamma = tab.gamma[k]
    if state[1].ndim == x.ndim:
        dw = _spread_apply(target, resp, mu_bar, state[1])
        dw *= gamma
        dw += alpha * state[1]
        return v, dw
    spread = _spread(target, resp, mu_bar)
    rates = (v, alpha * state[1] + gamma * (spread @ state[1]))
    if len(state) == 2:
        return rates
    trace = np.trace(spread, axis1=1, axis2=2)
    return rates + (-(target.dim * alpha + gamma * trace),)


def velocity(ctx: FlowContext, t: float, x):
    """Transport velocity v(t, x); accepts a point (d,) or a cloud (n, d)."""
    t = _check_flow_time(ctx, t)
    xb, single = _as_batch(ctx.target, x)
    (out,) = _rates(ctx.target, _table(ctx, np.array([t])), 0, (xb.T,))
    return out[:, 0] if single else _rows(out)


def velocity_jacobian(ctx: FlowContext, t: float, x):
    """Space Jacobian of the velocity, (d, d) per point, symmetric."""
    t = _check_flow_time(ctx, t)
    xb, single = _as_batch(ctx.target, x)
    n, d = xb.shape
    eye = np.broadcast_to(np.eye(d), (n, d, d))
    _, out = _rates(ctx.target, _table(ctx, np.array([t])), 0, (xb.T, eye))
    return out[0] if single else out


def velocity_dt(ctx: FlowContext, t: float, x):
    """Partial time derivative of the velocity (module docstring).

    Requires 0 < t < 1 (and within the early-stop horizon): the formula
    needs the schedule's second derivatives, which may diverge at an
    endpoint, as Follmer's d2a does at t = 1.
    """
    t = _check_flow_time(ctx, t)
    if not 0.0 < t < 1.0:
        raise OutOfRangeError(f"velocity_dt needs t in (0, 1), got {t!r}")
    target = ctx.target
    xb, single = _as_batch(target, x)
    tab = _table(ctx, np.array([t]))
    b, c2, alpha, beta, gamma = (float(col[0]) for col in tab[:5])
    p, s2 = ctx.sched.eval(t), target.sigma ** 2
    d_ada = p.da ** 2 + p.a * p.d2a  # d(a da)
    dalpha = (d_ada + s2 * (p.db ** 2 + b * p.d2b)) / c2 - 2.0 * alpha * alpha
    dbeta = (p.a * p.da * p.db + p.a * p.a * p.d2b - d_ada * b) / c2 - 2.0 * alpha * beta
    xt = xb.T
    resp, mu_bar = _stats(target, _logit_terms(target, b, c2), xt)
    pull = ((beta - b * alpha) / c2) * xt - (2.0 * gamma) * mu_bar
    dmu = _spread_apply(target, resp, mu_bar, pull) - gamma * _third_moment(target, resp, mu_bar)
    out = dalpha * xt + dbeta * mu_bar + beta * dmu
    return out[:, 0] if single else _rows(out)


# ---------------------------------------------------------------------------
# trajectories and integrators


@dataclasses.dataclass
class Trajectory:
    """Recorded RK4 path: times on the integrator clock, batched states.

    states is (T, n, d); jac (T, n, d, d) and logdens (T, n) are present
    when the augmented integrator was asked for them.  final_* properties
    squeeze the batch axis back out when the input was a single point.
    """

    times: np.ndarray
    states: np.ndarray
    direction: str
    single: bool
    jac: np.ndarray | None = None
    logdens: np.ndarray | None = None

    @property
    def physical_times(self) -> np.ndarray:
        return 1.0 - self.times if self.direction == "reverse" else self.times

    def _squeeze(self, arr):
        return arr[0] if self.single else arr

    @property
    def final_state(self):
        return self._squeeze(self.states[-1])

    @property
    def final_jacobian(self):
        if self.jac is None:
            raise InvalidParamError("trajectory was integrated without a Jacobian")
        return self._squeeze(self.jac[-1])

    @property
    def final_logdens(self):
        if self.logdens is None:
            raise InvalidParamError("trajectory was integrated without log-density")
        return self._squeeze(self.logdens[-1])

    def write_csv(self, path_or_buf, particle: int = 0, timestamp: str | None = None):
        """One row per recorded time: t, coordinates, then optional columns.

        t is physical time (decreasing for reverse runs).  Optional columns
        are logdens and the row-major Jacobian entries jac_ij.
        """
        n, d = self.states.shape[1:]
        particle = _int_param("particle", particle, f"[0, {n - 1}]")
        header = ["t"] + [f"x_{i + 1}" for i in range(d)]
        cols = [self.physical_times[:, None], self.states[:, particle]]
        if self.logdens is not None:
            header.append("logdens")
            cols.append(self.logdens[:, particle, None])
        if self.jac is not None:
            header += [f"jac_{i + 1}{j + 1}" for i in range(d) for j in range(d)]
            cols.append(self.jac[:, particle].reshape(len(self.times), d * d))
        write_table(path_or_buf, header, repr_lines(np.hstack(cols)), timestamp)


def _validate_span(ctx: FlowContext, t_from: float, t_to: float, steps: int,
                   direction: str, record: str):
    if direction not in ("forward", "reverse"):
        raise InvalidParamError(f"direction must be forward or reverse, got {direction!r}")
    if record not in ("all", "final"):
        raise InvalidParamError(f"record must be all or final, got {record!r}")
    steps = _int_param("steps", steps, "[1, inf)")
    t_from, t_to = float(_time_param("t_from", t_from)), float(_time_param("t_to", t_to))
    if not (math.isfinite(t_from) and math.isfinite(t_to) and t_from < t_to):
        raise OutOfRangeError(f"need from < to, got {t_from!r} .. {t_to!r}")
    if direction == "forward":
        if t_from < 0.0 or t_to > ctx.t_max:
            raise OutOfRangeError(
                f"forward span must lie in [0, {ctx.t_max}], got [{t_from}, {t_to}]")
    else:
        # reverse clock tau covers physical times 1 - tau
        if t_from < ctx.early_stop or t_to > 1.0:
            raise OutOfRangeError(
                f"reverse span must lie in [{ctx.early_stop}, 1], got [{t_from}, {t_to}]")
    return t_from, t_to, steps


def _stage_times(t_from: float, t_to: float, steps: int) -> np.ndarray:
    """The 2*steps+1 RK4 stage times of a span: step i runs from stage 2i via
    its midpoint 2i+1 to 2i+2; the even stages are np.linspace's."""
    times = np.linspace(t_from, t_to, steps + 1)
    clock = np.empty(2 * steps + 1)
    clock[0::2] = times
    clock[1::2] = times[:-1] + 0.5 * (times[1:] - times[:-1])
    return clock


def _rk4(rate, state: tuple, clock: np.ndarray, steps, keep_all: bool = False,
         names=None) -> list:
    """The one RK4 loop: advance a tuple of arrays over the given steps.

    clock holds the stage times from _stage_times, or (K, G, 1, 1) stage
    clocks for a state with a group axis in front, with names labelling
    its groups; rate(k, state) returns the tuple of time derivatives at
    stage k.  steps is the range of step indices to take, with step 1.
    Returns the states after every step with the initial one first
    (keep_all), or just the initial and final states.  A non-finite state raises
    NonFiniteStateError with the step, counted from the first stage, and,
    with groups, the name and time of the first group it reached.

    The stage arithmetic writes only into arrays the loop owns: the three
    stage inputs of a step share buffers, and the step's sum is built in
    the second stage's rates, so neither the state handed in nor a
    recorded state is ever written.  The rates must therefore be new
    arrays of their state's shape that do not alias their input.  A state
    whose sum is finite has no non-finite entry; only a sum that is not
    finite costs the entrywise test.
    """
    path = [state]
    span = clock[2 * steps.start:2 * steps.stop + 1]
    hs = span[2::2] - span[:-2:2]
    for i, h, half, sixth in zip(steps, hs, 0.5 * hs, hs / 6.0):
        k = 2 * i
        k1 = rate(k, state)
        t = tuple(map(_stage, state, k1, itertools.repeat(half)))
        k2 = rate(k + 1, t)
        t = tuple(map(_stage, state, k2, itertools.repeat(half), t))
        k3 = rate(k + 1, t)
        k4 = rate(k + 2, tuple(map(_stage, state, k3, itertools.repeat(h), t)))
        state = tuple(map(_step, state, k1, k2, k3, k4, itertools.repeat(sixth)))
        if not all(math.isfinite(np.add.reduce(s, axis=None)) or np.isfinite(s).all()
                   for s in state):
            raise _blowup(state, clock[k + 2], i, names)
        if keep_all:
            path.append(state)
    return path if keep_all else [path[0], state]


def _stage(s, r, c, out=None):
    """s + c r, the RK4 stage input, in out when given, else a new array."""
    t = np.multiply(r, c, out=out)
    t += s
    return t


def _step(s, r1, r2, r3, r4, sixth):
    """s + sixth (r1 + 2 r2 + 2 r3 + r4), in r2 and r3; IEEE addition and
    multiplication commute, so the in-place order rounds exactly as the
    expression does."""
    r2 *= 2.0
    r2 += r1
    r3 *= 2.0
    r2 += r3
    r2 += r4
    r2 *= sixth
    r2 += s
    return r2


def _blowup(state: tuple, t_end, i: int, names) -> NonFiniteStateError:
    """The error for a state that became non-finite in step i, which ends at
    t_end: one time, or (G, 1, 1) with a group per time, named by names."""
    if np.ndim(t_end) == 0:
        return NonFiniteStateError(
            f"state became non-finite at step {i} (integrator time {float(t_end)!r})", step=i)
    count = len(t_end)
    bad = np.zeros(count, dtype=bool)
    for s in state:
        bad |= ~np.isfinite(s.reshape(count, -1)).all(axis=1)
    g = int(np.flatnonzero(bad)[0])
    return NonFiniteStateError(
        f"state became non-finite at step {i} of the {names[g]} "
        f"(integrator time {float(t_end[g, 0, 0])!r})", step=i)


def _run(ctx: FlowContext, state: tuple, t_from: float, t_to: float, steps: int,
         direction: str, record: str):
    """Shared driver of integrate and integrate_augmented.

    state starts with the (n, d) cloud; the engine carries it as (d, n).
    Rates come only from the coefficient table of the span's stage times.
    Returns the recorded times and the stacked path of each state
    component, the cloud's as C-ordered (T, n, d).
    """
    clock = _stage_times(t_from, t_to, steps)
    sign = -1.0 if direction == "reverse" else 1.0
    t_phys = 1.0 - clock if direction == "reverse" else clock
    tab, target = _table(ctx, t_phys, sign), ctx.target
    keep_all = record == "all"
    state = (np.ascontiguousarray(state[0].T),) + state[1:]
    path = _rk4(lambda k, s: _rates(target, tab, k, s), state, clock, range(steps), keep_all)
    xs, *rest = zip(*path)
    times = clock[0::2] if keep_all else np.array([t_from, t_to])
    states = np.empty((len(xs),) + xs[0].shape[::-1])
    np.stack([x.T for x in xs], out=states)
    return times, [states] + [np.stack(c) for c in rest]


def integrate(ctx: FlowContext, x0, t_from: float, t_to: float, steps: int,
              direction: str = "forward", record: str = "all") -> Trajectory:
    """Fixed-step RK4 transport of a point or cloud along the velocity."""
    t_from, t_to, steps = _validate_span(ctx, t_from, t_to, steps, direction, record)
    xb, single = _as_batch(ctx.target, x0)
    times, (states,) = _run(ctx, (xb,), t_from, t_to, steps, direction, record)
    return Trajectory(times=times, states=states, direction=direction, single=single)


def integrate_augmented(ctx: FlowContext, x0, t_from: float, t_to: float, steps: int,
                        direction: str = "forward", record: str = "all",
                        with_logdensity: bool = False, init_logdens=None) -> Trajectory:
    """RK4 on the state jointly with its flow-map Jacobian and log-density.

    The Jacobian solves dJ/dt = grad v . J from J = I; the log-density
    solves dl/dt = -tr grad v from init_logdens (default 0) and is carried
    only when with_logdensity is set; a given init_logdens is a scalar or
    one value per point.
    """
    t_from, t_to, steps = _validate_span(ctx, t_from, t_to, steps, direction, record)
    xb, single = _as_batch(ctx.target, x0)
    n, d = xb.shape
    ld = _array_param("init_logdens", 0.0 if init_logdens is None else init_logdens,
                      "a () scalar or an (n,) array")
    if ld.size not in (1, n):
        raise SizeMismatchError(f"init_logdens has {ld.size} entries, the batch has {n} points")
    ld = np.broadcast_to(ld, (n,)).astype(float)
    state = (xb, np.broadcast_to(np.eye(d), (n, d, d)))
    if with_logdensity:
        state += (ld,)
    times, stacked = _run(ctx, state, t_from, t_to, steps, direction, record)
    return Trajectory(times=times, states=stacked[0], direction=direction,
                      single=single, jac=stacked[1],
                      logdens=stacked[2] if with_logdensity else None)
