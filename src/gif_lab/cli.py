"""Command-line front end: config files in, CSV/SVG artifacts out.

Exit codes: 0 success, 1 usage or validation error, 2 runtime error.
Diagnostics go to stderr; data goes to files or stdout only.
"""

from __future__ import annotations

import datetime
import sys
from pathlib import Path

import click
import numpy as np

from .bounds import RegularityProfile, lipschitz_flow_map, theta_profile
from .config import experiment_from_config, load_config, schedule_from_config, target_from_config
from .errors import (
    DegenerateInputError,
    DegenerateTimeError,
    GifLabError,
    InvalidParamError,
    MissingFieldError,
    NoRootError,
    OutOfRangeError,
    SizeMismatchError,
    TooLargeError,
)
from .experiments import (
    run_ag_check,
    run_autoencode,
    run_cycle,
    run_jacobian_envelope,
    run_source_perturbation,
    run_velocity_perturbation,
)
from .flow import FlowContext, integrate, integrate_augmented
from .metrics import sample_target
from .schedules import make_schedule

_VALIDATION_ERRORS = (
    InvalidParamError,
    OutOfRangeError,
    DegenerateTimeError,
    MissingFieldError,
    SizeMismatchError,
    TooLargeError,
    DegenerateInputError,
    NoRootError,
)


@click.group(name="gif-lab")
def cli() -> None:
    """Interpolation-flow toolkit: schedules, transport, bounds, experiments."""


def _common(f):
    for opt in (
        click.option("--seed", type=int, default=None, help="Override the RNG seed."),
        click.option("--steps", type=int, default=None, help="Override ODE step count."),
        click.option("--out", type=click.Path(file_okay=False), default=None,
                     help="Output directory; stdout when omitted."),
        click.option("--threads", type=int, default=None, help="Grid-point parallelism."),
        click.option("--no-timestamp", is_flag=True,
                     help="Omit the generated-at header for byte-stable output."),
    ):
        f = opt(f)
    return f


def _schedule_params(f):
    for opt in (
        click.option("--schedule", "family", required=True, help="Schedule family name."),
        click.option("--sigma-max", type=float, default=None),
        click.option("--alpha0", type=float, default=None),
        click.option("--p", type=float, default=None),
        click.option("--zeta", type=float, default=None),
    ):
        f = opt(f)
    return f


def _build_schedule(family, sigma_max, alpha0, p, zeta):
    params = {k: v for k, v in
              (("sigma_max", sigma_max), ("alpha0", alpha0), ("p", p), ("zeta", zeta))
              if v is not None}
    return make_schedule(family, **params)


def _stamp(no_timestamp: bool):
    if no_timestamp:
        return None
    return datetime.datetime.now().isoformat(timespec="seconds")


def _deliver(write_fn, out, filename: str) -> None:
    """write_fn(path_or_buf): to stdout without --out, else into the out dir."""
    if out is None:
        write_fn(sys.stdout)
    else:
        directory = Path(out)
        directory.mkdir(parents=True, exist_ok=True)
        write_fn(directory / filename)


@cli.command("validate-schedule")
@_schedule_params
@click.option("--grid", type=int, default=256, help="Validation grid size.")
def cmd_validate_schedule(family, sigma_max, alpha0, p, zeta, grid) -> int:
    """Check the schedule conditions on a grid; exit 1 on violations."""
    sched = _build_schedule(family, sigma_max, alpha0, p, zeta)
    report = sched.validate(grid_n=grid)
    click.echo(f"family: {report.family}")
    click.echo(f"grid: {report.grid_n}")
    click.echo(f"status: {'ok' if report.ok else 'FAILED'}")
    for condition, t in report.violations:
        click.echo(f"violation: {condition} at t={t:g}")
    return 0 if report.ok else 1


@cli.command("bounds")
@_common
@_schedule_params
@click.option("--case", required=True,
              help="Regularity case: gaussian, bounded-d, mixture, log-lip.")
@click.option("--kappa", type=float, default=None)
@click.option("--beta", type=float, default=None)
@click.option("--d", "d_bound", type=float, default=None)
@click.option("--r", "radius", type=float, default=None)
@click.option("--sigma", type=float, default=None)
@click.option("--l", "lip", type=float, default=None)
@click.option("--t2", type=float, default=None, help="Log-lip handover time.")
@click.option("--grid", type=int, default=129, help="Number of output rows.")
def cmd_bounds(seed, steps, out, threads, no_timestamp, family, sigma_max,
               alpha0, p, zeta, case, kappa, beta, d_bound, radius, sigma,
               lip, t2, grid) -> int:
    """Tabulate the theta envelope and flow-map Lipschitz bound over time."""
    if grid < 2:
        raise InvalidParamError(f"--grid must be at least 2, got {grid}")
    sched = _build_schedule(family, sigma_max, alpha0, p, zeta)
    profile = RegularityProfile(kappa=kappa, beta=beta, D=d_bound, R=radius,
                                sigma=sigma, L=lip)
    envelope = theta_profile(profile, sched, case, t2=t2)
    ts = np.linspace(envelope.lo, 1.0, grid)
    stamp = _stamp(no_timestamp)

    def write(path_or_buf):
        rows = []
        cum = 0.0
        for i, t in enumerate(ts):
            if i > 0:
                cum += envelope.integral(float(ts[i - 1]), float(t))
            lip_bound = lipschitz_flow_map(envelope, float(ts[0]), float(t)) \
                if i > 0 else 1.0
            rows.append((float(t), float(envelope.theta(float(t))),
                         envelope.piece_at(float(t)).piece_id, cum, lip_bound))
        text = []
        if stamp is not None:
            text.append(f"# generated: {stamp}")
        text.append("t,theta_t,piece_id,cumulative_integral,lipschitz_bound")
        for t, theta, piece, c, lb in rows:
            text.append(f"{t!r},{theta!r},{piece},{c!r},{lb!r}")
        payload = "\n".join(text) + "\n"
        if hasattr(path_or_buf, "write"):
            path_or_buf.write(payload)
        else:
            Path(path_or_buf).write_text(payload)

    _deliver(write, out, "bounds.csv")
    return 0


@cli.command("sample")
@_common
@click.option("--config", "config_path", required=True,
              type=click.Path(exists=True, dir_okay=False))
@click.option("--n", type=int, default=None, help="Override sample count.")
def cmd_sample(seed, steps, out, threads, no_timestamp, config_path, n) -> int:
    """Draw target samples defined by a config file."""
    cfg = load_config(config_path)
    target = target_from_config(cfg)
    count = n if n is not None else int(cfg.get("n", 1024))
    seed_val = seed if seed is not None else int(cfg.get("seed", 0))
    cloud = sample_target(target, count, seed_val)
    stamp = _stamp(no_timestamp)
    _deliver(lambda dst: cloud.write_csv(dst, timestamp=stamp), out, "sample.csv")
    return 0


@cli.command("flow")
@_common
@click.option("--config", "config_path", required=True,
              type=click.Path(exists=True, dir_okay=False))
@click.option("--x", "x_text", required=True,
              help="Start point, comma-separated: --x 1.0,0.0")
@click.option("--from", "t_from", type=float, default=0.0)
@click.option("--to", "t_to", type=float, default=1.0)
@click.option("--direction", type=click.Choice(["forward", "reverse"]),
              default="forward")
@click.option("--jacobian", is_flag=True, help="Carry the flow-map Jacobian.")
@click.option("--logdensity", is_flag=True, help="Carry the log-density.")
def cmd_flow(seed, steps, out, threads, no_timestamp, config_path, x_text,
             t_from, t_to, direction, jacobian, logdensity) -> int:
    """Integrate one point and emit the trajectory as CSV."""
    cfg = load_config(config_path)
    target = target_from_config(cfg)
    sched = schedule_from_config(cfg, default="linear")
    try:
        x0 = np.array([float(v) for v in x_text.split(",")])
    except ValueError:
        raise InvalidParamError(f"could not parse --x {x_text!r} as coordinates")
    if not np.all(np.isfinite(x0)):
        raise InvalidParamError(f"--x coordinates must be finite, got {x_text!r}")
    ctx = FlowContext(sched=sched, target=target,
                      early_stop=float(cfg.get("early_stop", 0.0)))
    n_steps = steps if steps is not None else int(cfg.get("steps", 256))
    if jacobian or logdensity:
        traj = integrate_augmented(ctx, x0, t_from, t_to, n_steps,
                                   direction=direction, with_logdensity=logdensity)
    else:
        traj = integrate(ctx, x0, t_from, t_to, n_steps, direction=direction)
    stamp = _stamp(no_timestamp)
    _deliver(lambda dst: traj.write_csv(dst, timestamp=stamp), out, "flow.csv")
    return 0


_EXPERIMENTS = {
    "stability-source": (run_source_perturbation, ("b0", "w2"),
                         "Source-replacement W2 sweep over the zeta grid."),
    "stability-velocity": (run_velocity_perturbation, ("delta_v", "w2_sq"),
                           "Velocity-noise W2^2 sweep over the epsilon grid."),
    "autoencode": (run_autoencode, ("steps", "median_err"),
                   "Reverse-then-forward round-trip errors."),
    "cycle": (run_cycle, ("steps", "median_err"),
              "Four-map cycle-consistency errors through a second target."),
    "jacobian-envelope": (run_jacobian_envelope, ("t", "lam_max"),
                          "Velocity-Jacobian eigenvalue range vs envelopes."),
    "ag-check": (run_ag_check, ("steps", "max_residual"),
                 "Flow-difference integral identity residuals."),
}


def _make_experiment_command(name: str, runner, svg_cols, help_text: str):
    @cli.command(name, help=help_text)
    @_common
    @click.option("--config", "config_path", required=True,
                  type=click.Path(exists=True, dir_okay=False))
    @click.option("--n", type=int, default=None, help="Override particle count.")
    @click.option("--svg", is_flag=True, help="Also write <name>.svg (needs --out).")
    def _cmd(seed, steps, out, threads, no_timestamp, config_path, n, svg) -> int:
        if svg and out is None:
            raise click.UsageError("--svg requires --out")
        cfg = load_config(config_path)
        ec = experiment_from_config(cfg, n=n, seed=seed, steps=steps,
                                    threads=threads)
        result = runner(ec)
        stamp = _stamp(no_timestamp)
        if out is None:
            lines = []
            if stamp is not None:
                lines.append(f"# generated: {stamp}")
            lines.append(",".join(result.columns))
            for row in result.rows:
                lines.append(",".join(repr(float(v)) for v in row))
            if result.fit is not None:
                lines.append(f"# fit: slope={result.fit.slope!r} "
                             f"intercept={result.fit.intercept!r} "
                             f"r_squared={result.fit.r_squared!r}")
            sys.stdout.write("\n".join(lines) + "\n")
        else:
            result.write_csv(out, timestamp=stamp)
            if svg:
                result.write_svg(out, *svg_cols)
        return 0

    return _cmd


for _name, (_runner, _svg_cols, _help) in _EXPERIMENTS.items():
    _make_experiment_command(_name, _runner, _svg_cols, _help)


def dispatch(argv=None) -> int:
    """Run the CLI programmatically; returns the process exit code."""
    try:
        rv = cli.main(args=list(argv) if argv is not None else None,
                      standalone_mode=False)
        return int(rv) if isinstance(rv, int) else 0
    except click.exceptions.Exit as exc:
        return int(exc.exit_code)
    except click.UsageError as exc:
        exc.show(file=sys.stderr)
        return 1
    except click.ClickException as exc:
        exc.show(file=sys.stderr)
        return 1
    except click.Abort:
        return 1
    except _VALIDATION_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except GifLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # I/O and numeric failures at runtime
        print(f"error: {exc!r}", file=sys.stderr)
        return 2


def main(argv=None) -> None:
    sys.exit(dispatch(argv))
