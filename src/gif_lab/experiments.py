"""Scripted experiment runners: stability sweeps, round trips, envelope scans.

Every runner maps an ExperimentConfig to an ExperimentResult with one row
per grid point plus an optional least-squares fit.  All randomness is keyed
off (seed, grid index) through per-particle Philox streams, so rows are
bit-identical across reruns and across thread counts.
"""

from __future__ import annotations

import itertools
import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Union

import numpy as np

from .bounds import RegularityProfile, endpoint_lipschitz, theta_profile
from .errors import InvalidParamError, MissingFieldError, NonFiniteError, SizeMismatchError
# velocity is unused here but stays importable as experiments.velocity, the
# name the traced benchmark (benchmarks/tracer.py) wraps
from .flow import (FlowContext, _rates, _rk4, _stage_times, _table, integrate,
                   velocity, velocity_jacobian)
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
from .svg import xy_plot
from .targets import Target, mixture_target

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
    out = []
    for v in vals:
        f = float(v)
        if not math.isfinite(f):
            raise InvalidParamError(f"{name} contains a non-finite entry")
        if as_int:
            if f != int(f) or f < 1:
                raise InvalidParamError(f"{name} entries must be positive integers")
            out.append(int(f))
        else:
            out.append(f)
    if any(b <= a for a, b in zip(out, out[1:])):
        raise InvalidParamError(f"{name} must be strictly increasing")
    return tuple(out)


@dataclass(frozen=True)
class ExperimentConfig:
    """Inputs shared by all runners; grids are per-experiment."""

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
    check_bound: bool = True
    threads: int = 1

    def __post_init__(self) -> None:
        for name, lo in (("n", 1), ("steps", 1), ("seed", 0), ("threads", 1)):
            v = getattr(self, name)
            if not isinstance(v, (int, np.integer)) or v < lo:
                raise InvalidParamError(f"{name} must be an integer >= {lo}, got {v!r}")
        for name in ("zeta_grid", "eps_grid", "t_grid"):
            g = getattr(self, name)
            if g is not None:
                object.__setattr__(self, name, _sorted_grid(name, g))
        if self.steps_grid is not None:
            object.__setattr__(self, "steps_grid",
                               _sorted_grid("steps_grid", self.steps_grid, as_int=True))
        if self.delta is not None:
            d = tuple(float(v) for v in self.delta)
            if len(d) != self.target.dim:
                raise SizeMismatchError(
                    f"delta has length {len(d)}, target dimension is {self.target.dim}")
            if not all(math.isfinite(v) for v in d):
                raise InvalidParamError("delta must be finite")
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
        main = out / f"{self.name}.csv"
        with open(main, "w", newline="") as fh:
            if timestamp is not None:
                fh.write(f"# generated: {timestamp}\n")
            fh.write(",".join(self.columns) + "\n")
            for row in self.rows:
                fh.write(",".join(repr(float(v)) for v in row) + "\n")
        paths = [main]
        if self.fit is not None:
            fit_path = out / f"{self.name}.fit.csv"
            with open(fit_path, "w", newline="") as fh:
                if timestamp is not None:
                    fh.write(f"# generated: {timestamp}\n")
                fh.write("slope,intercept,r_squared,n\n")
                fh.write(f"{self.fit.slope!r},{self.fit.intercept!r},"
                         f"{self.fit.r_squared!r},{self.fit.n}\n")
            paths.append(fit_path)
        return paths

    def write_svg(self, out_dir, x_col: str, y_col: str,
                  title: Optional[str] = None) -> Path:
        path = Path(out_dir) / f"{self.name}.svg"
        xy_plot(path, self.column(x_col), self.column(y_col),
                title=title if title is not None else self.name,
                x_label=x_col, y_label=y_col)
        return path


def _require(cfg: ExperimentConfig, name: str):
    value = getattr(cfg, name)
    if value is None:
        raise MissingFieldError(f"this experiment needs {name!r} in the config")
    return value


def _require_w2_n(cfg: ExperimentConfig) -> None:
    if cfg.n < 100:
        raise InvalidParamError(f"W2-based experiments need n >= 100, got {cfg.n}")


def _cloud_w2(a, b) -> float:
    """Exact assignment W2 up to its size cap, sliced beyond it.

    The projection directions are fixed, so every sweep point of an
    experiment sees the same estimator.  Sliced never exceeds exact, which
    keeps one-sided bound checks sound.
    """
    if np.asarray(a).shape[0] <= _W2_EXACT_CAP:
        return w2(a, b)
    return w2(a, b, method="sliced", n_projections=64, seed=0)


def _map_indexed(fn, count: int, threads: int) -> list:
    """Run fn(0..count-1), optionally on a thread pool, preserving order."""
    if threads <= 1 or count <= 1:
        return [fn(i) for i in range(count)]
    with ThreadPoolExecutor(max_workers=min(threads, count)) as pool:
        return list(pool.map(fn, range(count)))


def _meta(cfg: ExperimentConfig, started: float, grid_size: int, **extra) -> dict:
    out = {"n": cfg.n, "steps": cfg.steps, "seed": cfg.seed,
           "grid_size": grid_size, "runtime_s": time.perf_counter() - started}
    out.update(extra)
    return out


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
    """
    started = time.perf_counter()
    grid = _require(cfg, "zeta_grid")
    _require_w2_n(cfg)
    if grid[0] < 0.0 or grid[-1] > 0.3:
        raise InvalidParamError(f"zeta grid must lie within [0, 0.3], got {grid}")
    target = cfg.target
    z = sample_gaussian(target.dim, cfg.n, _subseed(cfg.seed, 1)).points
    ref = sample_target(target, cfg.n, _subseed(cfg.seed, 2)).points

    def one(j: int):
        sched = ShiftedLinearSchedule(zeta=grid[j])
        ctx = FlowContext(sched=sched, target=target, early_stop=cfg.early_stop)
        out = integrate(ctx, sched.a0 * z, 0.0, ctx.t_max, cfg.steps, record="final")
        return grid[j], sched.b0, _cloud_w2(out.final_state, ref), sched

    measured = _map_indexed(one, len(grid), cfg.threads)
    columns = ["zeta", "b0", "w2"]
    data = [np.array([m[k] for m in measured]) for k in range(3)]
    extra = {"bound_checked": False}

    if cfg.check_bound and target.is_gaussian:
        floor = _cloud_w2(sample_target(target, cfg.n, _subseed(cfg.seed, 10_001)).points,
                          sample_target(target, cfg.n, _subseed(cfg.seed, 10_002)).points)
        prof = RegularityProfile.from_target(target)
        dense = np.linspace(0.0, 1.0, 2001)
        rhs = []
        for _, b0, _, sched in measured:
            c1 = endpoint_lipschitz(prof, sched, "forward", case="mixture")
            c2 = float(np.max(np.abs(theta_profile(prof, sched, "mixture").theta(dense))))
            expo = c2 * target.dim
            if expo > 700.0:
                rhs.append(math.inf)
            else:
                rhs.append(c1 * b0 * math.sqrt(target.second_moment)
                           * math.exp(expo) + floor)
        columns.append("bound_rhs")
        data.append(np.array(rhs))
        extra = {"bound_checked": True, "mc_floor": floor}

    rows = np.column_stack(data)
    fit = linear_fit(rows[:, 1], rows[:, 2]) if len(grid) >= 2 else None
    return ExperimentResult("stability-source", tuple(columns), rows, fit,
                            _meta(cfg, started, len(grid), **extra))


def _spectral_sup(ctx: FlowContext, times, states, decimate: int) -> float:
    """Max spectral norm of the velocity Jacobian over recorded states."""
    idx = list(range(0, len(times), decimate))
    if idx[-1] != len(times) - 1:
        idx.append(len(times) - 1)
    worst = 0.0
    for i in idx:
        jac = velocity_jacobian(ctx, float(times[i]), states[i])
        worst = max(worst, float(np.max(np.abs(np.linalg.eigvalsh(jac)))))
    return worst


def run_velocity_perturbation(cfg: ExperimentConfig) -> ExperimentResult:
    """Sweep Bernoulli +-eps velocity noise against the clean generation.

    The noise is redrawn per coordinate at every RK4 rate evaluation from a
    stream keyed by the evaluation counter, so a rerun replays the identical
    perturbation; it is added to the engine's table rate, as _ag_residual
    adds delta.  The sign pattern is shared across the whole eps grid;
    only the amplitude changes, so the sweep measures the eps scaling
    rather than pattern-to-pattern scatter.  The squared-distance bound
    uses the measured supremum of the Jacobian spectral norm along both
    trajectories.
    """
    started = time.perf_counter()
    grid = _require(cfg, "eps_grid")
    _require_w2_n(cfg)
    if grid[0] < 0.0:
        raise InvalidParamError(f"eps grid must be nonnegative, got {grid}")
    target = cfg.target
    ctx = FlowContext(sched=cfg.sched, target=target, early_stop=cfg.early_stop)
    dim = target.dim

    src = sample_source(target, cfg.sched, cfg.n, _subseed(cfg.seed, 0))
    base = integrate(ctx, src.points, 0.0, ctx.t_max, cfg.steps, record="all")
    decimate = max(1, cfg.steps // 32)
    base_sup = _spectral_sup(ctx, base.times, base.states, decimate)

    noise_seed = _subseed(cfg.seed, 1000)
    clock = _stage_times(0.0, ctx.t_max, cfg.steps)
    tab = _table(ctx, clock)

    def one(j: int):
        eps = grid[j]
        stage = itertools.count()

        def rate(k, state):
            (v,) = _rates(target, tab, k, state)
            gen = keyed_generator(noise_seed, NOISE_DOMAIN, next(stage))
            return (v + eps * np.where(gen.random(size=v.shape) < 0.5, -1.0, 1.0),)

        path = _rk4(rate, (src.points,), clock, range(cfg.steps), keep_all=True)
        pert = np.stack([s[0] for s in path])
        dist_sq = _cloud_w2(pert[-1], base.final_state) ** 2
        c3 = max(base_sup, _spectral_sup(ctx, base.times, pert, decimate))
        delta_v = dim * eps * eps
        if 2.0 * c3 > 700.0:
            factor = math.inf
        elif c3 < 1e-12:
            factor = 1.0
        else:
            factor = (math.exp(2.0 * c3) - 1.0) / (2.0 * c3)
        bound = factor * delta_v if delta_v > 0.0 else 0.0
        return eps, delta_v, dist_sq, c3, bound

    rows = np.array(_map_indexed(one, len(grid), cfg.threads))
    fit = linear_fit(rows[:, 1], rows[:, 2]) if len(grid) >= 2 else None
    return ExperimentResult("stability-velocity",
                            ("eps", "delta_v", "w2_sq", "c3", "bound_rhs"),
                            rows, fit, _meta(cfg, started, len(grid)))


def _round_trip_rows(cfg: ExperimentConfig, trip) -> ExperimentResult:
    """Shared steps-grid refinement loop for auto-encode and cycle runs."""
    started = time.perf_counter()
    steps_list = cfg.steps_grid if cfg.steps_grid is not None else (cfg.steps,)
    x = sample_target(cfg.target, cfg.n, _subseed(cfg.seed, 0)).points
    rows = []
    errors = None
    for s in steps_list:
        out = trip(x, int(s))
        errors = np.linalg.norm(out - x, axis=1)
        rows.append((float(s),
                     float(np.median(errors)),
                     float(np.quantile(errors, 0.9)),
                     float(np.max(errors))))
    rows = np.array(rows)
    fit = _log_fit(rows[:, 0], rows[:, 1])
    return ExperimentResult(trip.__name__.strip("_"),
                            ("steps", "median_err", "p90_err", "max_err"),
                            rows, fit,
                            _meta(cfg, started, len(steps_list), errors=errors))


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

    x is drawn from the time-t interpolation marginal at each grid time; the
    upper envelope comes from the requested theta profile, the lower from
    the isotropic part of the Jacobian, which the spread term can only
    increase.
    """
    started = time.perf_counter()
    grid = cfg.t_grid if cfg.t_grid is not None else tuple(np.linspace(0.0, 1.0, 20))
    target = cfg.target
    ctx = FlowContext(sched=cfg.sched, target=target, early_stop=cfg.early_stop)
    prof = cfg.profile if cfg.profile is not None else RegularityProfile.from_target(target)
    envelope = theta_profile(prof, cfg.sched, cfg.bound_case)

    def one(j: int):
        t = grid[j]
        pts = sample_interpolant(target, cfg.sched, t, cfg.n,
                                 _subseed(cfg.seed, j)).points
        eigs = np.linalg.eigvalsh(velocity_jacobian(ctx, t, pts))
        lam_min = float(eigs[..., 0].min())
        lam_max = float(eigs[..., -1].max())
        lower = float(_table(ctx, np.array([t])).alpha[0])
        upper = float(envelope.theta(t))
        violation = max(0.0, lam_max - upper, lower - lam_min)
        return t, lam_min, lam_max, lower, upper, violation

    rows = np.array(_map_indexed(one, len(grid), cfg.threads))
    return ExperimentResult("jacobian-envelope",
                            ("t", "lam_min", "lam_max", "lower", "upper", "violation"),
                            rows, None,
                            _meta(cfg, started, len(grid),
                                  max_violation=float(rows[:, 5].max())))


def _ag_residual(ctx: FlowContext, x0: np.ndarray, delta: np.ndarray,
                 steps: int) -> float:
    """Max-norm gap between the flow difference and its integral form.

    The integral over s of J_{s->1}(Y_s) (-delta) is evaluated by composite
    Simpson quadrature with nodes on the step grid.  One engine run on a
    shared coefficient table carries the perturbed path Y (velocity plus
    delta) together with one block per node: block j joins at node j with
    the state Y there and the identity Jacobian, then follows the
    unperturbed flow to the end.  Block 0 joins at t = 0 with Y_0 = x0, so
    its final state is the clean flow's.  The block rows are preallocated;
    between two nodes only the blocks that have joined advance.
    """
    panels = max(4, steps // 8)
    spacing, rem = divmod(steps, 2 * panels)
    if rem != 0 or spacing < 1:
        raise InvalidParamError(
            f"steps={steps} is not a multiple of the quadrature node spacing")
    t_end = ctx.t_max
    n, d = x0.shape
    n_nodes = 2 * panels + 1
    clock = _stage_times(0.0, t_end, steps)
    tab, target = _table(ctx, clock), ctx.target

    def rate(k, state):
        v, dJ = _rates(target, tab, k, state)
        v[:n] += delta
        return v, dJ

    # rows [0, n) hold Y; block j holds rows [(j + 1) n, (j + 2) n)
    xs = np.empty((n_nodes * n, d))
    js = np.tile(np.eye(d), (n_nodes * n, 1, 1))
    xs[:n] = x0
    for j in range(n_nodes - 1):
        m = (j + 2) * n
        xs[m - n:m] = xs[:n]
        xs[:m], js[:m] = _rk4(rate, (xs[:m], js[:m]), clock,
                              range(j * spacing, (j + 1) * spacing))[-1]
    lhs = xs[n:2 * n] - xs[:n]

    # the last node's Jacobian is the identity, so its integrand is -delta
    integrand = (js[n:] @ -delta).reshape(n_nodes - 1, n * d)
    weights = np.ones(n_nodes)
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    weights *= t_end / (n_nodes - 1) / 3.0
    rhs = (weights[:-1] @ integrand).reshape(n, d) - weights[-1] * delta
    gap = np.linalg.norm(lhs - rhs, axis=1)
    if not (np.all(np.isfinite(rhs)) and np.all(np.isfinite(gap))):
        raise NonFiniteError(
            f"flow-difference residual is not finite at steps={steps}: the "
            f"quadrature or the gap overflows for max |delta_i| = {np.max(np.abs(delta)):.3g}")
    return float(np.max(gap))


def run_ag_check(cfg: ExperimentConfig) -> ExperimentResult:
    """Flow-difference identity residual, with optional step refinement."""
    started = time.perf_counter()
    delta = np.asarray(_require(cfg, "delta"), dtype=float)
    steps_list = cfg.steps_grid if cfg.steps_grid is not None else (cfg.steps,)
    ctx = FlowContext(sched=cfg.sched, target=cfg.target, early_stop=cfg.early_stop)
    x0 = sample_source(cfg.target, cfg.sched, cfg.n, _subseed(cfg.seed, 0)).points
    dnorm = math.hypot(*delta)
    rows = []
    for s in steps_list:
        resid = _ag_residual(ctx, x0, delta, int(s))
        rows.append((float(s), resid, resid / dnorm if dnorm > 0.0 else resid))
    rows = np.array(rows)
    fit = _log_fit(rows[:, 0], rows[:, 1])
    return ExperimentResult("ag-check", ("steps", "max_residual", "rel_residual"),
                            rows, fit,
                            _meta(cfg, started, len(steps_list), delta_norm=dnorm))
