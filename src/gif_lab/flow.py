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
advances one array and checks it for finiteness after every step.  Its
stage arithmetic runs in place on the rate outputs, in the same float
operations and order as s + h/6 (r1 + 2 r2 + 2 r3 + r4), and never writes
into the state it was handed.  The state is the particles, optionally with
either one tangent per particle or their flow-map Jacobian (and
log-density):

    d(J u)/dt = grad v . (J u),   dJ/dt = grad v . J,   dl/dt = -tr grad v.

A tangent needs only spread(mu) w = sum_j r_j c_j (c_j . w), never the
(n, d, d) spread, so a caller that wants J u for one direction u carries
that product instead of J.  Callers that perturb the flow, such as the
flow-difference check and the velocity-noise sweep, wrap a rate bound on
a table of their own.

The public functions take a point (d,) or a cloud (n, d) and return
C-ordered (n, d) arrays, but the engine's state is one particles-last
array whose blocks are the state's components, so every elementwise
operation runs over rows of n particles, the layout of the posterior
kernel (targets):

    cloud        (..., d, n)             _bind_rates
    tangent      (..., 2, d, n)          _bind_tangent_rates: path, then J u
    augmented    (d + d^2 [+ 1], n)      _bind_augmented_rates: x, the rows
                                         of J (J_ij in row d + i d + j),
                                         then the log-density

Rates are bound, once per run, or once per join interval of the
flow-difference check, whose state grows every few steps: a binder takes
the table's columns for the state's live groups and the posterior
kernel's scratch (targets._Workspace) at the state's exact shape, and
returns rate(k, state).  Each call of a bound rate writes into one new
output array: alpha times the whole state in one product, then each
block's posterior term added into its view.  Only the kernel's scratch,
and the augmented rate's point-major copy of J and its product, are
reused from call to call, never an output.  The Jacobian's rate takes its
point-major product spread @ J on that (n, d, d) copy of the J block, so
it rounds as a point-major state would.  Each public function transposes
once at its boundary.  All integrators advance whole clouds per step.
Reverse-time transport solves dX*/dtau = -v(1 - tau, X*) on the integrator
clock tau in [0, 1].

The table, the cloud and tangent rates and _rk4 also take a leading group
axis: G clouds of one size, (G, d, n) or (G, 2, d, n), each on its own
stage clock, advance together, and each group's numbers are those of its
own run without the axis.  The flow-difference check runs its whole steps
grid this way.
"""

from __future__ import annotations

import collections
import dataclasses
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
                      _stats, _third_moment, _Workspace)

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
# sign-flipped, so the table gives the integrator-clock rate.  post holds the
# coefficients of the posterior terms in the form the rates add them (see
# _table).  smc, bm0 and const are the posterior kernel's logit terms
# (targets._logit_terms).
_Table = collections.namedtuple("_Table", "b c2 alpha beta gamma post smc bm0 const")


def _table(ctx: FlowContext, t: np.ndarray, sign: float = 1.0) -> _Table:
    """Coefficients at the physical times t, validated once for the grid.

    t is (K,), one time per stage, or (K, G), one stage clock per group.
    With groups, the scalar columns are (K, G, 1, 1), so entry k broadcasts
    over a (G, d, n) state, and the logit terms carry the G axis in front
    of their own; bm0 is a (d, 1) column per entry.  For a mixture, post
    is beta and gamma side by side, (K, [G,] 2, 1, 1), so one product
    scales mu_bar and spread(mu) w stacked as the two blocks of a tangent
    state; beta and gamma are views of it.  A one-component target has
    zero spread and mu_bar = mu, so post is the whole posterior term
    beta mu, (K, [G,] d, 1); its logit terms are built too, though the
    rates never read them.  Everything the rates need per entry is built
    here, once per table, so binding a rate costs no work per entry.
    """
    sched, target, s2 = ctx.sched, ctx.target, ctx.target.sigma ** 2
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
    gamma = beta * b / c2
    if target.n_components == 1:
        post = (beta[..., None] * target.means[0])[..., None]
    else:
        pair = np.stack([beta, gamma], axis=-1)
        beta, gamma, post = pair[..., 0], pair[..., 1], pair[..., None, None]
    cols = (b, c2, alpha, beta, gamma)
    if t.ndim == 2:
        cols = tuple(col[..., None, None] for col in cols)
    return _Table(*cols, post, *_logit_terms(target, b[..., None, None], c2[..., None, None]))


def _live(tab: _Table, shape: tuple) -> _Table:
    """The columns of tab for a state of this shape: a grouped table keeps
    the state's shape[0] groups, its first ones.  With one group left the
    columns drop the group axis and read like an ungrouped table's, which
    broadcast over a group axis of length one just the same; numpy
    multiplies by a scalar entry faster than by a (1, 1, 1) block."""
    if tab.alpha.ndim == 1:
        return tab
    if shape[0] == 1:
        return _Table(*(col[:, 0, 0, 0] for col in tab[:5]), *(col[:, 0] for col in tab[5:]))
    return _Table(*(col[:, :shape[0]] for col in tab))


def _bind_rates(target: Target, tab: _Table, shape: tuple):
    """rate(k, x) of a cloud x of this shape, (d, n) or grouped (G, d, n):
    v = alpha x + beta mu_bar at entry k.

    Like the other binders it is called once per run: it takes tab's
    columns and the posterior kernel's scratch (targets._Workspace) for
    the state's shape.  Each call of its rate returns a new array of the
    state's shape, which _rk4 may overwrite; only the scratch is reused.
    """
    tab = _live(tab, shape)
    alpha, post = tab.alpha, tab.post
    if target.n_components == 1:
        def rate(k, x):
            out = x * alpha[k]
            out += post[k]
            return out
        return rate
    ws, beta, smc, bm0, const = _Workspace(target, shape), tab.beta, tab.smc, tab.bm0, tab.const

    def rate(k, x):
        out = x * alpha[k]
        mu_bar = _stats(target, (smc[k], bm0[k], const[k]), x, ws)[1]
        mu_bar *= beta[k]
        out += mu_bar
        return out
    return rate


def _bind_tangent_rates(target: Target, tab: _Table, shape: tuple):
    """rate(k, state) of a path and its tangents, (2, d, n) or grouped
    (G, 2, d, n): block 0 gets v, block 1 dw = grad v . w = alpha w +
    gamma spread(mu) w, without forming grad v.

    One product gives alpha times both blocks; with groups, alpha's column
    gains the block axis.  The kernel writes mu_bar and spread(mu) w as the
    two blocks of the workspace's post buffer, and a second product scales
    them by beta and gamma (the table's post) before one sum adds them in.
    """
    tab = _live(tab, shape)
    alpha = tab.alpha[..., None] if tab.alpha.ndim > 1 else tab.alpha
    post = tab.post
    if target.n_components == 1:
        def rate(k, state):
            out = state * alpha[k]
            out[..., 0, :, :] += post[k]
            return out
        return rate
    ws, smc, bm0, const = _Workspace(target, shape[:-3] + shape[-2:]), tab.smc, tab.bm0, tab.const

    def rate(k, state):
        out = state * alpha[k]
        resp, mu_bar = _stats(target, (smc[k], bm0[k], const[k]), state[..., 0, :, :], ws)
        _spread_apply(target, resp, mu_bar, state[..., 1, :, :], ws)
        out += np.multiply(ws.post, post[k], out=ws.post)
        return out
    return rate


def _bind_augmented_rates(target: Target, tab: _Table, shape: tuple):
    """rate(k, state) of the (d + d^2 [+ 1], n) pack of x, the rows of J and
    the log-density: v, dJ = alpha J + gamma spread(mu) @ J and
    dl = -(d alpha + gamma tr spread(mu)).  The product runs point-major,
    on a bound (n, d, d) copy of J's block.  A one-component target has
    zero spread, so there grad v = alpha I and every particle has the
    log-density rate -d alpha.
    """
    d, n = target.dim, shape[-1]
    alpha, post, jac = tab.alpha, tab.post, slice(d, d + d * d)
    logdens = shape[0] > d + d * d
    if target.n_components == 1:
        dl = -(d * alpha)

        def rate(k, state):
            out = state * alpha[k]
            out[:d] += post[k]
            if logdens:
                out[-1] = dl[k]
            return out
        return rate
    ws, beta, gamma, d_alpha = _Workspace(target, (d, n)), tab.beta, tab.gamma, d * alpha
    smc, bm0, const = tab.smc, tab.bm0, tab.const
    jac_pm, prod, trace = np.empty((n, d, d)), np.empty((n, d, d)), np.empty(n)
    jac_pm_t, prod_t = jac_pm.reshape(n, -1).T, prod.reshape(n, -1).T

    def rate(k, state):
        out = state * alpha[k]
        resp, mu_bar = _stats(target, (smc[k], bm0[k], const[k]), state[:d], ws)
        spread = _spread(target, resp, mu_bar, ws)
        mu_bar *= beta[k]
        out[:d] += mu_bar
        np.copyto(jac_pm_t, state[jac])
        np.matmul(spread, jac_pm, out=prod)
        np.multiply(prod, gamma[k], out=prod)
        out[jac] += prod_t
        if logdens:
            tr = np.trace(spread, axis1=1, axis2=2, out=trace)
            tr *= gamma[k]
            tr += d_alpha[k]
            np.negative(tr, out=out[-1])
        return out
    return rate


def _augmented_state(xb: np.ndarray, logdens=None) -> np.ndarray:
    """The pack of an (n, d) cloud with J = I and, when given, the
    log-density (n,)."""
    n, d = xb.shape
    state = np.zeros((d + d * d + (logdens is not None), n))
    state[:d] = xb.T
    state[d:d + d * d:d + 1] = 1.0
    if logdens is not None:
        state[-1] = logdens
    return state


def velocity(ctx: FlowContext, t: float, x):
    """Transport velocity v(t, x); accepts a point (d,) or a cloud (n, d)."""
    t = _check_flow_time(ctx, t)
    xb, single = _as_batch(ctx.target, x)
    xt = xb.T
    out = _bind_rates(ctx.target, _table(ctx, np.array([t])), xt.shape)(0, xt)
    return out[:, 0] if single else _rows(out)


def velocity_jacobian(ctx: FlowContext, t: float, x):
    """Space Jacobian of the velocity, (d, d) per point, symmetric."""
    t = _check_flow_time(ctx, t)
    xb, single = _as_batch(ctx.target, x)
    n, d = xb.shape
    state = _augmented_state(xb)
    out = _bind_augmented_rates(ctx.target, _table(ctx, np.array([t])), state.shape)(0, state)
    out = _rows(out[d:]).reshape(n, d, d)
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
    ws = _Workspace(target, xt.shape)
    resp, mu_bar = _stats(target, _logit_terms(target, b, c2), xt, ws)
    pull = ((beta - b * alpha) / c2) * xt - (2.0 * gamma) * mu_bar
    dmu = (_spread_apply(target, resp, mu_bar, pull, ws)
           - gamma * _third_moment(target, resp, mu_bar))
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


def _rk4(rate, state: np.ndarray, clock: np.ndarray, steps, keep_all: bool = False,
         names=None) -> list:
    """The one RK4 loop: advance one array over the given steps.

    clock holds the stage times from _stage_times, or (K, G, 1, ...) stage
    clocks, one column per group, for a state with a group axis in front,
    with names labelling its groups; rate(k, state) returns the time
    derivative at stage k, with each block's rate in the matching view
    (module docstring).  steps is the range of step indices to take, with
    step 1.  Returns the states after every step with the initial one
    first (keep_all), or just the initial and final states.  A non-finite
    entry in any block raises NonFiniteStateError with the step, counted
    from the first stage, and, with groups, the name and time of the first
    group it reached.

    The stage arithmetic writes only into arrays the loop owns: the three
    stage inputs of a step share one buffer, and the step's sum is built in
    the second stage's rate, so neither the state handed in nor a recorded
    state is ever written.  The rate must therefore return a new array of
    the state's shape that does not alias its input; a bound rate
    (module docstring) keeps this contract, since it reuses only scratch.
    A state whose sum is finite has no non-finite entry; only a sum that is
    not finite costs the entrywise test.  That sum may overflow on finite
    entries, so the loop runs with overflow warnings off: an overflowing
    rate still ends in NonFiniteStateError at its step.
    """
    path = [state]
    span = clock[2 * steps.start:2 * steps.stop + 1]
    hs = span[2::2] - span[:-2:2]
    with np.errstate(over="ignore"):
        for i, h, half, sixth in zip(steps, hs, 0.5 * hs, hs / 6.0):
            k = 2 * i
            k1 = rate(k, state)
            t = _stage(state, k1, half)
            k2 = rate(k + 1, t)
            k3 = rate(k + 1, _stage(state, k2, half, t))
            k4 = rate(k + 2, _stage(state, k3, h, t))
            state = _step(state, k1, k2, k3, k4, sixth)
            if not (math.isfinite(np.add.reduce(state, axis=None)) or np.isfinite(state).all()):
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


def _blowup(state: np.ndarray, t_end, i: int, names) -> NonFiniteStateError:
    """The error for a state that became non-finite in step i, which ends at
    t_end: one time, or (G, 1, ...) with a group per time, named by names."""
    if np.ndim(t_end) == 0:
        return NonFiniteStateError(
            f"state became non-finite at step {i} (integrator time {float(t_end)!r})", step=i)
    t_end = np.ravel(t_end)
    g = int(np.flatnonzero(~np.isfinite(state.reshape(len(t_end), -1)).all(axis=1))[0])
    return NonFiniteStateError(
        f"state became non-finite at step {i} of the {names[g]} "
        f"(integrator time {float(t_end[g])!r})", step=i)


def _run(ctx: FlowContext, bind, state: np.ndarray, t_from: float, t_to: float,
         steps: int, direction: str, record: str):
    """Shared driver of integrate and integrate_augmented: the recorded times
    and states of _rk4 on the rate that the binder bind makes once from the
    coefficient table of the span's stage times."""
    clock = _stage_times(t_from, t_to, steps)
    sign = -1.0 if direction == "reverse" else 1.0
    t_phys = 1.0 - clock if direction == "reverse" else clock
    rate = bind(ctx.target, _table(ctx, t_phys, sign), state.shape)
    keep_all = record == "all"
    path = _rk4(rate, state, clock, range(steps), keep_all)
    return (clock[0::2] if keep_all else np.array([t_from, t_to])), path


def integrate(ctx: FlowContext, x0, t_from: float, t_to: float, steps: int,
              direction: str = "forward", record: str = "all") -> Trajectory:
    """Fixed-step RK4 transport of a point or cloud along the velocity."""
    t_from, t_to, steps = _validate_span(ctx, t_from, t_to, steps, direction, record)
    xb, single = _as_batch(ctx.target, x0)
    times, path = _run(ctx, _bind_rates, np.ascontiguousarray(xb.T), t_from, t_to, steps,
                       direction, record)
    states = np.empty((len(path),) + xb.shape)
    np.stack([x.T for x in path], out=states)
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
    state = _augmented_state(xb, ld if with_logdensity else None)
    times, path = _run(ctx, _bind_augmented_rates, state, t_from, t_to, steps, direction,
                       record)
    packs = np.stack(path)
    return Trajectory(times=times, states=_rows(packs[:, :d]), direction=direction,
                      single=single, jac=_rows(packs[:, d:d + d * d]).reshape(-1, n, d, d),
                      logdens=np.ascontiguousarray(packs[:, -1]) if with_logdensity else None)
