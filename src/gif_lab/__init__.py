"""Gaussian interpolation flow lab.

Deterministic probability-flow transport between a Gaussian source and
analytic Gaussian-mixture targets: schedule families, closed-form posterior
statistics, RK4 flow maps with Jacobian and log-density propagation,
eigenvalue envelopes and Lipschitz bounds, Wasserstein-2 metrics, and
scripted stability/round-trip experiments behind a CSV-first CLI.

Each module's __all__ is its public list; the package exports their union.
"""

from . import bounds, config, errors, experiments, flow, metrics, schedules, targets
from .bounds import *
from .config import *
from .errors import *
from .experiments import *
from .flow import *
from .metrics import *
from .schedules import *
from .targets import *

__version__ = "0.1.0"

__all__ = (bounds.__all__ + config.__all__ + errors.__all__ + experiments.__all__
           + flow.__all__ + metrics.__all__ + schedules.__all__ + targets.__all__)
