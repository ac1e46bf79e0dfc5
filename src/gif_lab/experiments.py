"""Scripted experiment runners: stability sweeps, round trips, envelope scans.

Every runner maps an ExperimentConfig to an ExperimentResult with one row
per grid point plus an optional least-squares fit.  Every particle is drawn
from its own Philox stream keyed off (seed, grid index).  The one other
draw, the velocity-noise sweep's signs, comes from one stream per RK4 rate
evaluation, keyed by the evaluation counter, not per particle.  So rows are
bit-identical across reruns and across CPU counts.
"""

from __future__ import annotations

import itertools
import math
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from .artifacts import repr_lines, write_table, xy_plot
from .bounds import RegularityProfile, endpoint_lipschitz, theta_profile
from .errors import (InvalidParamError, MissingFieldError, NonFiniteError, SizeMismatchError,
                     _int_param, _real_param)
# velocity is unused here but stays importable as experiments.velocity, the
# name the traced benchmark (benchmarks/tracer.py) wraps
from .flow import (FlowContext, _bind_rates, _bind_tangent_rates, _rk4, _stage_times, _table,
                   integrate, velocity, velocity_jacobian)
from .metrics import (
    NOISE_DOMAIN,
    _W2_EXACT_CAP,
    FitReport,
    keyed_generator,
    linear_fit,
    sample_gaussian,
    sample_interpolant,
    sample_source,
    sample_target,
    w2,
)
from .schedules import Schedule, ShiftedLinearSchedule
from .targets import Target, _rows, mixture_target

__all__ = [
    "ExperimentConfig",
    "ExperimentResult",
    "moderate_gmm4",
    "paper_gmm8",
    "run_ag_check",
    "run_autoencode",
    "run_cycle",
    "run_jacobian_envelope",
    "run_source_perturbation",
    "run_velocity_perturbation",
]

_MIX1 = 0x9E3779B97F4A7C15
_MIX2 = 0xD1B54A32D192ED03


def paper_gmm8() -> Target:
    """Eight equal-weight 2D modes on a circle of radius 12, sigma 0.03."""
    angles = np.arange(8) * (math.pi / 4.0)
    means = 12.0 * np.column_stack([np.sin(angles), np.cos(angles)])
    return mixture_target(weights=np.full(8, 0.125), means=means, sigma=0.03)


def moderate_gmm4() -> Target:
    """Four modes at radius 2, sigma 0.5.

    Mild enough that forward and reverse maps both integrate accurately in
    double precision, which the radius-12 / sigma-0.03 configuration's
    reverse map does not.
    """
    means = [[2.0, 0.0], [0.0, 2.0], [-2.0, 0.0], [0.0, -2.0]]
    return mixture_target(weights=np.full(4, 0.25), means=means, sigma=0.5)


def _subseed(seed: int, k: int) -> int:
    """Derived stream seed for grid point k; stays in the valid seed range."""
    return (seed * _MIX1 + (k + 1) * _MIX2) & ((1 << 63) - 1)


def _sorted_grid(name: str, values, as_int: bool = False) -> tuple:
    vals = list(values)
    if len(vals) == 0:
        raise InvalidParamError(f"{name} must be nonempty")
    out = [_int_param(name, v, "[1, inf)") if as_int else _real_param(name, v) for v in vals]
    if any(b <= a for a, b in zip(out, out[1:])):
        raise InvalidParamError(f"{name} must be strictly increasing")
    return tuple(out)


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the platform has
    one, else the machine's count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@dataclass(frozen=True)
class ExperimentConfig:
    """Inputs shared by all runners; grids are per-experiment.  The worker
    count is not an input: only the sweeps' W2 solves use threads (_w2_pool)."""

    target: Target
    sched: Schedule
    n: int = 2048
    steps: int = 512
    seed: int = 0
    zeta_grid: Optional[tuple] = None
    eps_grid: Optional[tuple] = None
    t_grid: Optional[tuple] = None
    steps_grid: Optional[tuple] = None
    early_stop: float = 0.0
    target2: Optional[Target] = None
    delta: Optional[tuple] = None
    profile: Optional[RegularityProfile] = None
    bound_case: str = "mixture"

    def __post_init__(self) -> None:
        for name, lo in (("n", 1), ("steps", 1), ("seed", 0)):
            object.__setattr__(self, name, _int_param(name, getattr(self, name), f"[{lo}, inf)"))
        for name in ("zeta_grid", "eps_grid", "t_grid"):
            g = getattr(self, name)
            if g is not None:
                object.__setattr__(self, name, _sorted_grid(name, g))
        if self.steps_grid is not None:
            object.__setattr__(self, "steps_grid",
                               _sorted_grid("steps_grid", self.steps_grid, as_int=True))
        if self.delta is not None:
            d = tuple(_real_param("delta", v) for v in self.delta)
            if len(d) != self.target.dim:
                raise SizeMismatchError(
                    f"delta has length {len(d)}, target dimension is {self.target.dim}")
            object.__setattr__(self, "delta", d)
        if self.target2 is not None and self.target2.dim != self.target.dim:
            raise SizeMismatchError("target2 dimension differs from target")


@dataclass(frozen=True)
class ExperimentResult:
    """Rows of (grid input, measured values) plus fit and run metadata."""

    name: str
    columns: tuple
    rows: np.ndarray
    fit: Optional[FitReport]
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        rows = np.asarray(self.rows, dtype=float)
        if rows.ndim != 2 or rows.shape[1] != len(self.columns):
            raise InvalidParamError(
                f"rows shape {rows.shape} does not match {len(self.columns)} columns")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "columns", tuple(self.columns))

    def column(self, name: str) -> np.ndarray:
        if name not in self.columns:
            raise InvalidParamError(f"no column {name!r} in {self.columns}")
        return self.rows[:, self.columns.index(name)]

    def write_csv(self, out_dir, timestamp: Optional[str] = None) -> list:
        """Write <name>.csv and, when a fit exists, <name>.fit.csv."""
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        paths = [out / f"{self.name}.csv"]
        write_table(paths[0], self.columns, repr_lines(self.rows), timestamp)
        if self.fit is not None:
            paths.append(out / f"{self.name}.fit.csv")
            fit = self.fit
            write_table(paths[1], ("slope", "intercept", "r_squared", "n"),
                        [f"{fit.slope!r},{fit.intercept!r},{fit.r_squared!r},{fit.n}\n"],
                        timestamp)
        return paths

    def write_svg(self, out_dir, x_col: str, y_col: str) -> Path:
        path = Path(out_dir) / f"{self.name}.svg"
        xy_plot(path, self.column(x_col), self.column(y_col),
                title=self.name, x_label=x_col, y_label=y_col)
        return path


def _require(cfg: ExperimentConfig, name: str):
    value = getattr(cfg, name)
    if value is None:
        raise MissingFieldError(f"this experiment needs {name!r} in the config")
    return value


def _require_w2_n(cfg: ExperimentConfig) -> None:
    if cfg.n < 100:
        raise InvalidParamError(f"W2-based experiments need n >= 100, got {cfg.n}")


def _w2_method(n: int) -> str:
    """The estimator _cloud_w2 uses for n-particle clouds."""
    return "exact" if n <= _W2_EXACT_CAP else "sliced"


def _cloud_w2(a, b) -> float:
    """Exact assignment W2 up to its size cap, sliced beyond it.

    The projection directions are fixed, so every sweep point of an
    experiment sees the same estimator.  Sliced never exceeds exact, which
    keeps one-sided bound checks sound.
    """
    if _w2_method(np.asarray(a).shape[0]) == "exact":
        return w2(a, b)
    return w2(a, b, method="sliced", n_projections=64, seed=0)


def _w2_pool(count: int) -> tuple:
    """A thread pool for count exact-W2 solves and its worker count: one
    thread per usable CPU, at most count, and one thread where only one CPU
    is usable.  Only W2 solves go here, since scipy's assignment releases
    the interpreter lock and the numpy work of a grid point on small arrays
    runs slower on a pool."""
    workers = min(_usable_cpus(), count)
    return ThreadPoolExecutor(max_workers=workers), workers


def _meta(cfg: ExperimentConfig, started: float, grid_size: int, **extra) -> dict:
    """Run metadata; the two sweeps add "threads", the W2 workers used, and
    the source sweep its stage wall times "integrate_s" and "w2_s" and the
    per-point solve times "w2_solve_s"."""
    return {"n": cfg.n, "steps": cfg.steps, "seed": cfg.seed,
            "grid_size": grid_size, "runtime_s": time.perf_counter() - started, **extra}


def _log_fit(xs, ys) -> Optional[FitReport]:
    """log2-log2 order fit; None when any value already hit the noise floor."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.size < 2 or np.any(ys <= 0.0):
        return None
    return linear_fit(np.log2(xs), np.log2(ys))


def run_source_perturbation(cfg: ExperimentConfig) -> ExperimentResult:
    """Sweep the shifted-linear family: Gaussian source vs true source.

    For each zeta the source is the pure Gaussian of scale a_0 = 1/(1+zeta)
    rather than the matching interpolation marginal, so the generated cloud
    misses the target by an amount governed by b_0 = zeta/(1+zeta).  One
    normal cloud and one reference target cloud are shared by every grid
    point: with common draws the finite-sample floor is the same fixed
    offset everywhere and the sweep isolates the zeta effect, which would
    otherwise drown in cloud-to-cloud W2 noise.  On a single-Gaussian
    target the transport constants are available in closed form and the
    measured W2 is checked against them (plus the floor between two fresh
    target clouds).

    The W2 pool (meta["threads"] workers, _w2_pool) opens first.  The grid
    integrates from its last zeta to its first, so largest b0 first, whose
    assignment takes longest, and each point's solve is queued as soon as
    its flow ends: a queued solve holds only its cloud, a running one its
    n x n cost matrix.  On a Gaussian target the floor's solve queues last,
    and the bound's constants are computed while the solves run.  Results
    are read in grid order, so rows do not depend on the schedule.
    meta["integrate_s"] is the wall time of the integrate loop,
    meta["w2_s"] that from its end to the last W2 result, and
    meta["w2_solve_s"] each grid point's solve time, in grid order.
    integrate_s includes CPU time shared with the solves running beside the
    loop, so it is not the cost of integration alone: on 2 CPUs and the
    benchmark's source-sweep inputs 0, 3 and 4 it was 0.086-0.091 s with
    the grid integrated alone and 0.134-0.139 s overlapped.
    """
    started = time.perf_counter()
    grid = _require(cfg, "zeta_grid")
    _require_w2_n(cfg)
    if grid[0] < 0.0 or grid[-1] > 0.3:
        raise InvalidParamError(f"zeta grid must lie within [0, 0.3], got {grid}")
    target = cfg.target
    z = sample_gaussian(target.dim, cfg.n, _subseed(cfg.seed, 1)).points
    ref = sample_target(target, cfg.n, _subseed(cfg.seed, 2)).points
    scheds = [ShiftedLinearSchedule(zeta=zeta) for zeta in grid]
    solve_s = [0.0] * len(grid)

    def solve(j, final):
        t = time.perf_counter()
        dist = _cloud_w2(final, ref)
        solve_s[j] = time.perf_counter() - t
        return dist

    pool, workers = _w2_pool(len(grid))
    try:
        t0 = time.perf_counter()
        pending = [None] * len(grid)
        for j in reversed(range(len(grid))):
            sched = scheds[j]
            ctx = FlowContext(sched=sched, target=target, early_stop=cfg.early_stop)
            final = integrate(ctx, sched.a0 * z, 0.0, ctx.t_max, cfg.steps,
                              record="final").final_state
            pending[j] = pool.submit(solve, j, final)
        t1 = time.perf_counter()
        if target.is_gaussian:
            floor_solve = pool.submit(
                _cloud_w2, sample_target(target, cfg.n, _subseed(cfg.seed, 10_001)).points,
                sample_target(target, cfg.n, _subseed(cfg.seed, 10_002)).points)
            prof = RegularityProfile.from_target(target)
            dense = np.linspace(0.0, 1.0, 2001)
            rhs = []  # bound_rhs less the floor: inf once the exponent overflows
            for sched in scheds:
                c1 = endpoint_lipschitz(prof, sched, "forward", case="mixture")
                c2 = float(np.max(np.abs(theta_profile(prof, sched, "mixture").theta(dense))))
                expo = c2 * target.dim
                rhs.append(math.inf if expo > 700.0 else
                           c1 * sched.b0 * math.sqrt(target.second_moment) * math.exp(expo))
        dist = [p.result() for p in pending]
        if target.is_gaussian:
            floor = floor_solve.result()
        t2 = time.perf_counter()
    finally:
        # on an error, drop the queued solves and wait only for running ones
        pool.shutdown(cancel_futures=True)
    columns = ["zeta", "b0", "w2"]
    data = [np.array(grid), np.array([s.b0 for s in scheds]), np.array(dist)]
    timings = {"integrate_s": t1 - t0, "w2_s": t2 - t1, "w2_solve_s": solve_s,
               "w2_method": _w2_method(cfg.n), "threads": workers}
    extra = {"bound_checked": False}
    if target.is_gaussian:
        columns.append("bound_rhs")
        data.append(np.array(rhs) + floor)
        extra = {"bound_checked": True, "mc_floor": floor}

    rows = np.column_stack(data)
    fit = linear_fit(rows[:, 1], rows[:, 2]) if len(grid) >= 2 else None
    return ExperimentResult("stability-source", tuple(columns), rows, fit,
                            _meta(cfg, started, len(grid), **timings, **extra))


def _envelope(cfg: ExperimentConfig):
    """theta_profile of cfg's profile, or else its target's, in cfg's bound case."""
    prof = cfg.profile if cfg.profile is not None else RegularityProfile.from_target(cfg.target)
    return theta_profile(prof, cfg.sched, cfg.bound_case)


def _noise_growth(envelope, clock: np.ndarray) -> tuple:
    """(G, I_0): G = int_0^T exp(I_s) ds, I_s = int_s^T theta and T = clock[-1],
    summed on clock's segments at the larger end value of exp(I), an upper
    bound wherever theta keeps one sign on a segment, and inf once exp overflows."""
    seg = [envelope.integral(lo, hi) for lo, hi in zip(clock[:-1], clock[1:])]
    tail = np.append(np.cumsum(seg[::-1])[::-1], 0.0)  # I at each clock time
    with np.errstate(over="ignore"):
        growth = np.sum(np.diff(clock) * np.exp(np.maximum(tail[:-1], tail[1:])))
    return float(growth), float(tail[0])


def run_velocity_perturbation(cfg: ExperimentConfig) -> ExperimentResult:
    """Sweep Bernoulli +-eps velocity noise against the clean generation.

    One engine run on one coefficient table advances the clean cloud and
    one copy per eps as blocks of particles.  The noise is redrawn per
    coordinate at every RK4 rate evaluation from a stream keyed by the
    evaluation counter, so a rerun replays it; block j adds eps_j times the signs to
    the table rate, as _ag_residual adds delta.  Only the amplitude differs
    between blocks, so the sweep measures the eps scaling rather than
    pattern-to-pattern scatter.  The config's theta envelope bounds grad v
    at every point, so each particle's gap u obeys u' <= theta u + sqrt(d)
    eps from u(0) = 0 and stays within bound_rhs = delta_v G^2
    (_noise_growth); meta["theta_integral"] = I_0 shows why G is inf.
    The W2 solves against the clean block overlap on meta["threads"]
    workers (_w2_pool).
    """
    started = time.perf_counter()
    grid = _require(cfg, "eps_grid")
    _require_w2_n(cfg)
    if grid[0] < 0.0:
        raise InvalidParamError(f"eps grid must be nonnegative, got {grid}")
    target = cfg.target
    ctx = FlowContext(sched=cfg.sched, target=target, early_stop=cfg.early_stop)
    n, dim, steps = cfg.n, target.dim, cfg.steps
    clock = _stage_times(0.0, ctx.t_max, steps)
    envelope = _envelope(cfg)
    growth, theta_integral = _noise_growth(envelope, clock)

    src = sample_source(target, cfg.sched, n, _subseed(cfg.seed, 0))
    noise_seed = _subseed(cfg.seed, 1000)
    eps = np.array(grid)
    amp, delta_v = eps[:, None], dim * eps * eps
    stage = itertools.count()
    # the engine's cloud is particles-last, (dim, (len(grid) + 1) n):
    # block 0 (columns [0, n)) is the clean cloud, block j + 1 the one at grid[j]
    x = np.tile(src.points.T, (1, len(grid) + 1))
    table_rate = _bind_rates(target, _table(ctx, clock), x.shape)

    def rate(k, x):
        v = table_rate(k, x)
        gen = keyed_generator(noise_seed, NOISE_DOMAIN, next(stage))
        signs = np.where(gen.random(size=(n, dim)) < 0.5, -1.0, 1.0)
        noisy = v.reshape(dim, len(grid) + 1, n)[:, 1:]
        noisy += amp * signs.T[:, None, :]
        return v

    x = np.ascontiguousarray(_rk4(rate, x, clock, range(steps))[-1].T)

    pool, workers = _w2_pool(len(grid))
    with pool:
        w2_sq = list(pool.map(
            lambda j: _cloud_w2(x[(j + 1) * n:(j + 2) * n], x[:n]) ** 2, range(len(grid))))
    # eps = 0 gives a bound of exactly 0, also where G is inf
    bound = np.where(delta_v > 0.0, growth * growth, 0.0) * delta_v
    fit = linear_fit(delta_v, w2_sq) if len(grid) >= 2 else None
    return ExperimentResult("stability-velocity", ("eps", "delta_v", "w2_sq", "bound_rhs"),
                            np.column_stack([eps, delta_v, w2_sq, bound]), fit,
                            _meta(cfg, started, len(grid), threads=workers,
                                  theta_integral=theta_integral, bound_case=envelope.case))


def _round_trip_rows(cfg: ExperimentConfig, trip) -> ExperimentResult:
    """Shared steps-grid refinement loop for auto-encode and cycle runs."""
    started = time.perf_counter()
    steps_list = cfg.steps_grid if cfg.steps_grid is not None else (cfg.steps,)
    x = sample_target(cfg.target, cfg.n, _subseed(cfg.seed, 0)).points

    rows = []
    for s in steps_list:
        errors = np.linalg.norm(trip(x, int(s)) - x, axis=1)
        rows.append((float(s), float(np.median(errors)),
                     float(np.quantile(errors, 0.9)), float(np.max(errors))))
    rows = np.array(rows)
    fit = _log_fit(rows[:, 0], rows[:, 1])
    return ExperimentResult(trip.__name__.strip("_"),
                            ("steps", "median_err", "p90_err", "max_err"),
                            rows, fit, _meta(cfg, started, len(steps_list), errors=errors))


def run_autoencode(cfg: ExperimentConfig) -> ExperimentResult:
    """Reverse map then forward map; reports round-trip error quantiles."""
    ctx = FlowContext(sched=cfg.sched, target=cfg.target, early_stop=cfg.early_stop)
    es = cfg.early_stop

    def autoencode(x, s):
        enc = integrate(ctx, x, es, 1.0, s, direction="reverse",
                        record="final").final_state
        return integrate(ctx, enc, 0.0, 1.0 - es, s, record="final").final_state

    return _round_trip_rows(cfg, autoencode)


def run_cycle(cfg: ExperimentConfig) -> ExperimentResult:
    """Four-map composition through a second target; identity up to
    integration error."""
    target2 = _require(cfg, "target2")
    ctx1 = FlowContext(sched=cfg.sched, target=cfg.target, early_stop=cfg.early_stop)
    ctx2 = FlowContext(sched=cfg.sched, target=target2, early_stop=cfg.early_stop)
    es = cfg.early_stop

    def cycle(x, s):
        y1 = integrate(ctx1, x, es, 1.0, s, direction="reverse",
                       record="final").final_state
        z = integrate(ctx2, y1, 0.0, 1.0 - es, s, record="final").final_state
        y2 = integrate(ctx2, z, es, 1.0, s, direction="reverse",
                       record="final").final_state
        return integrate(ctx1, y2, 0.0, 1.0 - es, s, record="final").final_state

    return _round_trip_rows(cfg, cycle)


def run_jacobian_envelope(cfg: ExperimentConfig) -> ExperimentResult:
    """Eigenvalue range of the velocity Jacobian against its envelopes.

    x is drawn from the time-t interpolation marginal at each grid time
    (default: 20 times on [0, ctx.t_max], the early-stop horizon); the
    upper envelope comes from the requested theta profile, the lower from
    the isotropic part of the Jacobian, which the spread term can only
    increase.
    """
    started = time.perf_counter()
    target = cfg.target
    ctx = FlowContext(sched=cfg.sched, target=target, early_stop=cfg.early_stop)
    grid = cfg.t_grid if cfg.t_grid is not None else tuple(np.linspace(0.0, ctx.t_max, 20))
    envelope = _envelope(cfg)

    rows = []
    for j, t in enumerate(grid):
        pts = sample_interpolant(target, cfg.sched, t, cfg.n,
                                 _subseed(cfg.seed, j)).points
        eigs = np.linalg.eigvalsh(velocity_jacobian(ctx, t, pts))
        lam_min = float(eigs[..., 0].min())
        lam_max = float(eigs[..., -1].max())
        lower = float(_table(ctx, np.array([t])).alpha[0])
        upper = float(envelope.theta(t))
        rows.append((t, lam_min, lam_max, lower, upper,
                     max(0.0, lam_max - upper, lower - lam_min)))
    rows = np.array(rows)
    return ExperimentResult("jacobian-envelope",
                            ("t", "lam_min", "lam_max", "lower", "upper", "violation"),
                            rows, None,
                            _meta(cfg, started, len(grid),
                                  max_violation=float(rows[:, 5].max())))


def _node_spacing(steps: int) -> int:
    """Steps between two Simpson nodes: max(4, steps // 8) panels of two."""
    panels = max(4, steps // 8)
    spacing, rem = divmod(steps, 2 * panels)
    if rem != 0 or spacing < 1:
        raise InvalidParamError(
            f"steps={steps} is not a multiple of the quadrature node spacing")
    return spacing


def _ag_residual(ctx: FlowContext, x0: np.ndarray, delta: np.ndarray,
                 steps_grid) -> tuple:
    """Max-norm gaps between the flow difference and its integral form.

    The integral over s of J_{s->1}(Y_s) (-delta) is evaluated by composite
    Simpson quadrature with nodes on the step grid.  One engine run carries
    the perturbed path Y (velocity plus delta) together with one block per
    node: block j joins at node j with the state Y there and the tangent
    u = -delta / |delta|, then follows the unperturbed flow to the end, so
    it carries J.u, never J.  The tangent equation is linear, so |delta| J.u
    is the integrand; starting from the unit direction keeps the tangent
    finite where -delta itself would overflow.  Block 0 joins at t = 0 with
    Y_0 = x0, so its final state is the clean flow's.

    Every entry of steps_grid is one group of that run, on its own stage
    clock and table column.  The engine's state is particles-last, (G, 2,
    d, rows): a group holds the points in block 0 and their tangents in
    block 1, the path Y's in rows [0, n) and node j's in rows
    [(j + 1) n, (j + 2) n).  The groups run longest first, so those
    with steps left are a prefix and only they advance, and each joins its
    blocks at its own nodes.  Between two joins every advancing group has
    as many rows as the one with the most joined blocks; rows past a
    group's own blocks hold copies of Y and u, which its next join
    overwrites.  Each group's numbers are those of a pass of its own.

    Returns the residuals in grid order, the number of rate evaluations and
    the number of rows they advanced in total.
    """
    n, d = x0.shape
    gaps = {s: _node_spacing(s) for s in steps_grid}
    steps = sorted(gaps, reverse=True)
    spacing = [gaps[s] for s in steps]
    nodes = [s // gap + 1 for s, gap in zip(steps, spacing)]
    t_end = ctx.t_max
    clock = np.full((2 * steps[0] + 1, len(steps)), t_end)
    for g, s in enumerate(steps):
        clock[:2 * s + 1, g] = _stage_times(0.0, t_end, s)
    tab, target = _table(ctx, clock), ctx.target
    names = [f"steps={s} entry" for s in steps]
    dnorm = math.hypot(*delta)
    u = -delta / dnorm if dnorm > 0.0 else np.zeros(d)
    push = delta[:, None]

    def rate(k, state):
        out = table_rate(k, state)
        out[:, 0, :, :n] += push
        return out

    state = np.empty((len(steps), 2, d, nodes[0] * n))
    state[:, 0, :, :n], state[:, 1, :, :n] = x0.T, u[:, None]
    joins = {j * gap for s, gap in zip(steps, spacing) for j in range(s // gap)}
    events = sorted(joins | set(steps))
    calls = row_stages = 0
    for lo, hi in zip(events, events[1:]):
        live = sum(s > lo for s in steps)
        own = [(lo // gap + 2) * n for gap in spacing[:live]]
        m = max(own)
        for g in range(live):
            # the block joining at lo, if lo is a node of this group, and
            # the rows past the group's own blocks start from Y and u
            first = own[g] - (n if lo % spacing[g] == 0 else 0)
            state[g, 0, :, first:m].reshape(d, -1, n)[:] = state[g, 0, :, None, :n]
            state[g, 1, :, first:m] = u[:, None]
        block = state[:live, ..., :m]
        # the interval's shape is new, so its rate is bound afresh
        table_rate = _bind_tangent_rates(target, tab, block.shape)
        block[...] = _rk4(rate, block, clock[:, :live, None, None, None], range(lo, hi),
                          names=names)[-1]
        calls += 4 * (hi - lo)
        row_stages += 4 * (hi - lo) * live * m

    resid = {}
    for g, s in enumerate(steps):
        size = nodes[g]
        x, w = _rows(state[g, :, :, :size * n])
        lhs = x[n:2 * n] - x[:n]
        # the last node's tangent is u itself, so its integrand is -delta
        integrand = (dnorm * w[n:]).reshape(size - 1, n * d)
        weights = np.ones(size)
        weights[1:-1:2] = 4.0
        weights[2:-1:2] = 2.0
        weights *= t_end / (size - 1) / 3.0
        rhs = (weights[:-1] @ integrand).reshape(n, d) - weights[-1] * delta
        resid[s] = rhs, np.linalg.norm(lhs - rhs, axis=1)
    for s in steps_grid:
        rhs, gap = resid[s]
        if not (np.all(np.isfinite(rhs)) and np.all(np.isfinite(gap))):
            raise NonFiniteError(
                f"flow-difference residual is not finite at steps={s}: the "
                f"quadrature or the gap overflows for max |delta_i| = {np.max(np.abs(delta)):.3g}")
    return [float(np.max(resid[s][1])) for s in steps_grid], calls, row_stages


def run_ag_check(cfg: ExperimentConfig) -> ExperimentResult:
    """Flow-difference identity residual, with optional step refinement;
    the whole steps grid is one engine pass (_ag_residual)."""
    started = time.perf_counter()
    delta = np.asarray(_require(cfg, "delta"), dtype=float)
    steps_list = cfg.steps_grid if cfg.steps_grid is not None else (cfg.steps,)
    ctx = FlowContext(sched=cfg.sched, target=cfg.target, early_stop=cfg.early_stop)
    x0 = sample_source(cfg.target, cfg.sched, cfg.n, _subseed(cfg.seed, 0)).points
    dnorm = math.hypot(*delta)
    resids, calls, row_stages = _ag_residual(ctx, x0, delta, steps_list)
    rows = np.array([(float(s), r, r / dnorm if dnorm > 0.0 else r)
                     for s, r in zip(steps_list, resids)])
    fit = _log_fit(rows[:, 0], rows[:, 1])
    return ExperimentResult("ag-check", ("steps", "max_residual", "rel_residual"),
                            rows, fit,
                            _meta(cfg, started, len(steps_list), delta_norm=dnorm,
                                  rate_calls=calls, row_stages=row_stages))
