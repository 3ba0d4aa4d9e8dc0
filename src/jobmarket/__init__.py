"""Simulation and analysis lab for a two-compartment job-market model
driven by a single multiplicative Brownian noise.

The package is organised bottom-up:

  _rules       the type and range rules of every input, and the scheme
               names; no numpy
  model        parameters, vector fields, closed-form regime thresholds
  brownian     reproducible keyed Brownian increment streams
  integrators  RK4 / Euler-Maruyama / Milstein stepping and trajectories
  analysis     ensembles, strong-convergence orders, (m, sigma) regime maps
  cli          `jobmarket` command-line front end
"""

__version__ = "0.1.0"

from ._rules import Scheme
from .errors import (
    IntegrationError,
    JobMarketError,
    ParameterError,
    ZeroNoiseError,
)
from .model import (
    ModelParams,
    Regime,
    RegimeReport,
    State,
    classify_regime,
    drift,
    extinction_index,
    persistence_floor,
    r0s,
    ultimate_bound,
)

# the names whose modules import numpy, loaded on first access (PEP 562), so
# that importing the package, or the CLI, costs no numpy import
_LAZY = {
    "BrownianPath": "brownian", "generate": "brownian",
    "BatchResult": "integrators", "Trajectory": "integrators",
    "run_batch": "integrators", "simulate": "integrators",
    "step_em": "integrators", "step_milstein": "integrators",
}


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f".{_LAZY[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_LAZY))


__all__ = [
    "__version__",
    "JobMarketError", "ParameterError", "ZeroNoiseError", "IntegrationError",
    "ModelParams", "State", "Regime", "RegimeReport",
    "drift", "extinction_index", "r0s", "persistence_floor",
    "ultimate_bound", "classify_regime",
    "BrownianPath", "generate",
    "Scheme", "Trajectory", "BatchResult",
    "step_em", "step_milstein", "simulate", "run_batch",
]
