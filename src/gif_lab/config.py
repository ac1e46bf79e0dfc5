"""Flat key=value config files and construction of objects from them.

One format serves every subcommand: one `key = value` per line, `#`
comments, values parsed as Python literals with a bare-string fallback, so
`means = [(0.0, 1.0), (1.0, 0.0)]` and `name = demo` both work.
"""

from __future__ import annotations

import ast
from typing import Optional

from .errors import InvalidParamError, MissingFieldError, _int_param, _real_param
from .experiments import ExperimentConfig, moderate_gmm4, paper_gmm8
from .schedules import Schedule, make_schedule
from .targets import Target, gaussian_target, mixture_target

__all__ = [
    "experiment_from_config",
    "load_config",
    "parse_config_text",
    "schedule_from_config",
    "target_from_config",
]


def parse_config_text(text: str) -> dict:
    """Parse key=value lines into a dict; later duplicates win.

    Inline `#` comments are stripped before parsing, so hash characters
    inside quoted values are not supported.
    """
    out: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InvalidParamError(f"config line {lineno} has no '=': {raw.strip()!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        if not key:
            raise InvalidParamError(f"config line {lineno} has an empty key")
        value = value.strip()
        try:
            out[key] = ast.literal_eval(value)
        except (ValueError, SyntaxError):
            out[key] = value
    return out


def load_config(path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return parse_config_text(fh.read())


def _listed(name: str, v, item=_real_param) -> tuple:
    """A list value, each entry parsed by item(name, entry)."""
    if not isinstance(v, (list, tuple)):
        raise InvalidParamError(f"{name} must be a list, got {v!r}")
    return tuple(item(name, x) for x in v)


_INTEGER = ("an integer", _int_param)
_NUMBER = ("a finite number", _real_param)
_NUMBERS = ("a list of finite numbers", _listed)
_INTEGERS = ("a list of integers", lambda k, v: _listed(k, v, _int_param))
# What each key's value must be, and its parse(key, value), which raises InvalidParamError.
_EXPERIMENT_KEYS = {
    **dict.fromkeys(("n", "steps", "seed"), _INTEGER),
    "early_stop": _NUMBER,
    **dict.fromkeys(("zeta_grid", "eps_grid", "t_grid", "delta"), _NUMBERS),
    "steps_grid": _INTEGERS,
}
_TARGET_KEYS = {
    "mean": ("a finite number or a list of them",
             lambda k, v: (_listed if isinstance(v, (list, tuple)) else _real_param)(k, v)),
    "var": _NUMBER,
    "means": ("a list of points", lambda k, v: _listed(k, v, _listed)),
    "weights": _NUMBERS,
    "sigma": _NUMBER,
}


def config_value(cfg: dict, key: str, default=None, suffix: str = ""):
    """The value of key ``key + suffix``, or ``default`` when it is absent.

    A value of the wrong kind (a string or ``1e999`` where a number
    belongs, a float or ``True`` where an integer belongs) raises
    InvalidParamError naming the key.
    """
    value = cfg.get(key + suffix)
    if value is None:
        return default
    kind, parse = _EXPERIMENT_KEYS.get(key) or _TARGET_KEYS[key]
    try:
        return parse(key + suffix, value)
    except InvalidParamError:
        raise InvalidParamError(
            f"config key '{key}{suffix}' must be {kind}, got {value!r}") from None


_TARGET_KINDS = ("gaussian", "gmm", "paper-gmm8", "moderate-gmm4")


def target_from_config(cfg: dict, suffix: str = "") -> Target:
    """Build the target named by key `target<suffix>`.

    suffix="2" reads target2/mean2/... so one file can hold both ends of a
    cycle experiment.
    """
    kind = cfg.get("target" + suffix)
    if kind is None:
        raise MissingFieldError(f"config needs a 'target{suffix}' key")
    kind = str(kind).strip().lower().replace("_", "-")

    def need(key: str):
        value = config_value(cfg, key, suffix=suffix)
        if value is None:
            raise MissingFieldError(f"target kind {kind!r} needs key '{key}{suffix}'")
        return value

    if kind == "gaussian":
        return gaussian_target(mean=need("mean"), var=need("var"))
    if kind == "gmm":
        means = need("means")
        uniform = [1.0 / len(means)] * len(means) if means else []
        weights = config_value(cfg, "weights", uniform, suffix)
        return mixture_target(weights=weights, means=means, sigma=need("sigma"))
    if kind == "paper-gmm8":
        return paper_gmm8()
    if kind == "moderate-gmm4":
        return moderate_gmm4()
    raise InvalidParamError(f"unknown target kind {kind!r}; known: {_TARGET_KINDS}")


_SCHEDULE_PARAM_KEYS = ("sigma_max", "alpha0", "p", "zeta")


def schedule_from_config(cfg: dict, default: Optional[str] = None) -> Schedule:
    """Build the schedule named by the `schedule` key (family parameters are
    picked up from their own keys)."""
    family = cfg.get("schedule", default)
    if family is None:
        raise MissingFieldError("config needs a 'schedule' key")
    params = {k: cfg[k] for k in _SCHEDULE_PARAM_KEYS if k in cfg}
    return make_schedule(str(family), **params)


_KNOWN_KEYS = (
    set(_EXPERIMENT_KEYS)
    | {"target", "schedule", "target2"}
    | set(_TARGET_KEYS) | {key + "2" for key in _TARGET_KEYS}
    | set(_SCHEDULE_PARAM_KEYS)
)


def _check_keys(cfg: dict) -> None:
    """Reject unknown keys, so a typo fails instead of running with a default."""
    unknown = sorted(set(cfg) - _KNOWN_KEYS)
    if unknown:
        raise InvalidParamError(f"unknown config keys: {', '.join(unknown)}")


def experiment_from_config(cfg: dict, **overrides) -> ExperimentConfig:
    """Assemble an ExperimentConfig; keyword overrides beat config values."""
    _check_keys(cfg)
    kwargs: dict = {
        "target": target_from_config(cfg),
        "sched": schedule_from_config(cfg, default="linear"),
    }
    if cfg.get("target2") is not None:
        kwargs["target2"] = target_from_config(cfg, suffix="2")
    for key in _EXPERIMENT_KEYS:
        value = config_value(cfg, key)
        if value is not None:
            kwargs[key] = value
    for key, value in overrides.items():
        if value is not None:
            kwargs[key] = value
    return ExperimentConfig(**kwargs)
