"""Simulation and analysis lab for a two-compartment job-market model
driven by a single multiplicative Brownian noise.

The package is organised bottom-up:

  model        parameters, vector fields, closed-form regime thresholds
  brownian     reproducible keyed Brownian increment streams
  integrators  RK4 / Euler-Maruyama / Milstein stepping and trajectories
  analysis     ensembles, time averages, extinction detection,
               strong-convergence orders, (m, sigma) regime maps
  cli          `jobmarket` command-line front end
"""

__version__ = "0.1.0"

from .brownian import BrownianPath, generate
from .errors import (
    IntegrationError,
    JobMarketError,
    ParameterError,
    ZeroNoiseError,
)
from .integrators import (
    BatchResult,
    Scheme,
    Trajectory,
    run_batch,
    simulate,
    step_em,
    step_milstein,
    step_rk4,
)
from .model import (
    ModelParams,
    Regime,
    RegimeReport,
    State,
    classify_regime,
    diffusion,
    drift,
    extinction_index,
    interior_equilibrium,
    persistence_floor,
    r0s,
    ultimate_bound,
)

__all__ = [
    "__version__",
    "JobMarketError", "ParameterError", "ZeroNoiseError", "IntegrationError",
    "ModelParams", "State", "Regime", "RegimeReport",
    "drift", "diffusion", "extinction_index", "r0s", "persistence_floor",
    "ultimate_bound", "classify_regime", "interior_equilibrium",
    "BrownianPath", "generate",
    "Scheme", "Trajectory", "BatchResult",
    "step_rk4", "step_em", "step_milstein", "simulate", "run_batch",
]
