"""Ensemble statistics, time averages, extinction detection, empirical
strong-convergence orders and regime maps.

Everything here is deterministic given (seed, n_paths): path i always draws
from the (seed, i) stream, statistics reduce over the path axis in fixed
order, and no step depends on scheduling or worker count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Collection, Sequence, TextIO

import numpy as np

from . import brownian
from .errors import IntegrationError, JobMarketError, ParameterError
from .integrators import (_OUTPUTS, BatchResult, Scheme, Trajectory,
                          _coupled_terminals, _resolve_steps, run_batch)
from .model import ModelParams, Regime, State, classify_regime, persistence_floor

__all__ = [
    "EnsembleStats",
    "ExtinctionScan",
    "StrongOrderReport",
    "Observation",
    "RegimeCell",
    "simulate_paths",
    "ensemble",
    "time_average",
    "detect_extinction",
    "strong_order",
    "regime_map",
    "regime_cells_to_csv",
]

# Observation thresholds for regime cells: extinct when the mean terminal v
# falls below EXTINCT_EPS; persistent when the mean time average of v clears
# half the theoretical floor (or PERSIST_EPS_DEFAULT when no floor exists).
EXTINCT_EPS = 1e-2
PERSIST_EPS_DEFAULT = 1e-1


def simulate_paths(p: ModelParams | Sequence[ModelParams], scheme: Scheme,
                   x0: State, horizon: float, dt: float, n_paths: int,
                   seed: int, record_stride: int = 1, *,
                   outputs: Collection[str] = _OUTPUTS) -> BatchResult:
    """Run n_paths independent trajectories (path_index 0 .. n_paths-1).

    Given a sequence of params, every set runs as one row of a multi-cell
    batch, and path i of every cell is driven by the same (seed, i)
    increments: common random numbers, drawn once. outputs is passed to
    run_batch, which raises a failure, or for a sequence records it.
    """
    if isinstance(n_paths, bool) or not isinstance(n_paths, int) or n_paths < 1:
        raise ParameterError(f"n_paths must be a positive integer, got {n_paths!r}")
    n_steps = _resolve_steps(horizon, dt)
    lanes = (n_paths,) if isinstance(p, ModelParams) else (len(p), n_paths)
    u0 = np.full(lanes, float(x0[0]))
    v0 = np.full(lanes, float(x0[1]))
    dW = brownian.NoiseStream(seed, n_paths, dt, n_steps) if scheme.is_stochastic else None
    return run_batch(scheme, p, u0, v0, horizon, dt, dW,
                     record_stride=record_stride, outputs=outputs)


@dataclass
class EnsembleStats:
    """Per-time-point mean/std/quantiles of u and v over an ensemble.

    Quantiles use the nearest-rank method (value at index ceil(q*n) of the
    sorted sample); std is the population standard deviation, so a single
    path reports zero spread. clamp_rate is the fraction of paths that hit
    at least one positivity clamp.
    """

    times: np.ndarray
    u_mean: np.ndarray
    u_std: np.ndarray
    u_q05: np.ndarray
    u_q50: np.ndarray
    u_q95: np.ndarray
    v_mean: np.ndarray
    v_std: np.ndarray
    v_q05: np.ndarray
    v_q50: np.ndarray
    v_q95: np.ndarray
    n_paths: int
    clamp_rate: float

    def to_csv(self, fp: TextIO) -> None:
        fp.write("t,u_mean,u_std,u_q05,u_q50,u_q95,"
                 "v_mean,v_std,v_q05,v_q50,v_q95\n")
        cols = (self.times, self.u_mean, self.u_std, self.u_q05, self.u_q50,
                self.u_q95, self.v_mean, self.v_std, self.v_q05, self.v_q50,
                self.v_q95)
        for i in range(len(self.times)):
            fp.write(",".join(repr(float(c[i])) for c in cols) + "\n")


def _nearest_rank(sorted_values: np.ndarray, q: float) -> np.ndarray:
    """Nearest-rank quantile along axis 0 of an already sorted matrix."""
    n = sorted_values.shape[0]
    rank = max(1, math.ceil(q * n))
    return sorted_values[rank - 1]


def _population_std(values: np.ndarray) -> np.ndarray:
    """Column stds, shifted by the first row so identical paths give exact 0."""
    shifted = values - values[0]
    center = shifted.mean(axis=0)
    return np.sqrt(np.mean((shifted - center) ** 2, axis=0))


def ensemble(p: ModelParams, scheme: Scheme, x0: State, horizon: float,
             dt: float, n_paths: int, seed: int,
             record_stride: int = 1) -> EnsembleStats:
    """Aggregate n_paths independent trajectories into per-time statistics.

    The statistics read only the records and the clamp counts, so the run
    keeps none of the per-path accumulators."""
    batch = simulate_paths(p, scheme, x0, horizon, dt, n_paths, seed,
                           record_stride=record_stride, outputs=())
    u_mean, u_std = batch.U.mean(axis=0), _population_std(batch.U)
    v_mean, v_std = batch.V.mean(axis=0), _population_std(batch.V)
    # the batch is not used again, so its records are sorted in place
    batch.U.sort(axis=0)
    batch.V.sort(axis=0)
    return EnsembleStats(
        times=batch.times,
        u_mean=u_mean,
        u_std=u_std,
        u_q05=_nearest_rank(batch.U, 0.05),
        u_q50=_nearest_rank(batch.U, 0.50),
        u_q95=_nearest_rank(batch.U, 0.95),
        v_mean=v_mean,
        v_std=v_std,
        v_q05=_nearest_rank(batch.V, 0.05),
        v_q50=_nearest_rank(batch.V, 0.50),
        v_q95=_nearest_rank(batch.V, 0.95),
        n_paths=batch.n_paths,
        clamp_rate=float(np.count_nonzero(batch.clamp_counts > 0)) / batch.n_paths,
    )


def time_average(traj: Trajectory, component: str) -> float:
    """(1/T) * integral of u or v over the full recorded horizon.

    Uses the integrator's full-resolution trapezoidal accumulator when the
    trajectory carries one; otherwise falls back to the trapezoid rule on
    the recorded grid (exact for constant and affine samples).
    """
    if component not in ("u", "v"):
        raise ParameterError(f"component must be 'u' or 'v', got {component!r}")
    if traj.n_points < 2:
        raise ParameterError("time average needs at least two recorded points")
    horizon = traj.horizon
    if horizon <= 0.0:
        raise ParameterError("trajectory spans zero time")
    integral = traj.integral_u if component == "u" else traj.integral_v
    if integral is not None:
        return integral / horizon
    values = traj.u if component == "u" else traj.v
    return float(np.trapezoid(values, traj.times)) / horizon


@dataclass(frozen=True)
class ExtinctionScan:
    """Outcome of an extinction search.

    time is the earliest recorded tau with v below threshold on all of
    [tau, tau + window], or None. insufficient_horizon distinguishes "the
    trajectory is too short to ever confirm a window" from a genuine
    absence.
    """

    time: float | None
    insufficient_horizon: bool = False

    @property
    def detected(self) -> bool:
        return self.time is not None


def detect_extinction(traj: Trajectory, threshold: float,
                      window: float) -> ExtinctionScan:
    """Earliest recorded time from which v stays below threshold for a full window."""
    if not threshold > 0.0:
        raise ParameterError(f"threshold must be > 0, got {threshold}")
    if not window > 0.0:
        raise ParameterError(f"window must be > 0, got {window}")
    times = traj.times
    horizon = float(times[-1])
    fudge = 1e-9 * max(window, horizon)
    if window > horizon + fudge:
        return ExtinctionScan(time=None, insufficient_horizon=True)

    below = traj.v < threshold
    above_prefix = np.concatenate(([0], np.cumsum(~below)))
    for i in range(len(times)):
        t_end = times[i] + window
        if t_end > horizon + fudge:
            break
        if not below[i]:
            continue
        j = int(np.searchsorted(times, t_end + fudge, side="right")) - 1
        if above_prefix[j + 1] - above_prefix[i] == 0:
            return ExtinctionScan(time=float(times[i]))
    return ExtinctionScan(time=None)


@dataclass(frozen=True)
class StrongOrderReport:
    """Least-squares fit of log2(error) against log2(dt).

    levels holds (dt, mean coupled terminal error) pairs, coarsest last;
    residual is the RMS deviation of the fit in log2 space.
    """

    slope: float
    residual: float
    levels: tuple[tuple[float, float], ...]

    def to_dict(self) -> dict:
        return {
            "slope": self.slope,
            "residual": self.residual,
            "levels": [{"dt": dt, "error": err} for dt, err in self.levels],
        }


def strong_order(p: ModelParams, scheme: Scheme, x0: State, horizon: float,
                 dt_fine: float, levels: int, n_paths: int,
                 seed: int) -> StrongOrderReport:
    """Empirical strong-convergence order by coupled-path refinement.

    One fine Brownian path per path_index drives everything: the reference
    run at dt_fine and, for each level L = 1..levels, a run at
    dt_fine * 2^L using the coarsened increments of the same path. The
    noise is read once: the fine rows stream by, each level sums its
    groups of 2^L rows as they pass (in group_sums' left-to-right order)
    and steps when a group is complete, so memory is bounded by lanes
    times one noise block, not by the fine step count. The error at a
    level is the mean over paths of |u_T - u_T_ref| + |v_T - v_T_ref|.
    """
    if scheme is Scheme.RK4:
        raise ParameterError("strong_order measures stochastic schemes; "
                             "RK4 has no driving path to couple")
    if isinstance(levels, bool) or not isinstance(levels, int) or levels < 3:
        raise ParameterError(f"levels must be an integer >= 3, got {levels!r}")
    n_fine = _resolve_steps(horizon, dt_fine)
    if n_fine % (2 ** levels) != 0:
        raise ParameterError(
            f"dt_fine * 2^levels must divide the horizon: {n_fine} fine steps "
            f"are not a multiple of {2 ** levels}")

    stream = brownian.NoiseStream(seed, n_paths, dt_fine, n_fine)
    u0 = np.full(n_paths, float(x0[0]))
    v0 = np.full(n_paths, float(x0[1]))
    U, V = _coupled_terminals(scheme, p, u0, v0, dt_fine, stream, n_fine, levels)

    level_errors: list[tuple[float, float]] = []
    for level in range(1, levels + 1):
        dt_level = dt_fine * 2 ** level
        err = float(np.mean(np.abs(U[level] - U[0]) + np.abs(V[level] - V[0])))
        if err <= 0.0:
            raise IntegrationError(
                f"coupled error vanished at dt={dt_level}; the scenario does "
                "not separate the discretisation levels")
        level_errors.append((dt_level, err))

    log_dt = np.log2([dt for dt, _ in level_errors])
    log_err = np.log2([err for _, err in level_errors])
    slope, intercept = np.polyfit(log_dt, log_err, 1)
    fitted = slope * log_dt + intercept
    residual = float(np.sqrt(np.mean((fitted - log_err) ** 2)))
    return StrongOrderReport(slope=float(slope), residual=residual,
                             levels=tuple(level_errors))


class Observation(Enum):
    """What an ensemble actually did, judged from simulation output alone."""

    V_EXTINCT = "v_extinct"
    V_PERSISTS = "v_persists"
    UNCLEAR = "unclear"


@dataclass(frozen=True)
class RegimeCell:
    """One (m, sigma) grid point: predicted regime vs observed behaviour."""

    m: float
    sigma: float
    predicted: Regime | None
    observed: Observation | None
    v_time_avg: float | None
    error: str | None = None


def _observe(batch: BatchResult, floor: float | None) -> tuple[Observation, float]:
    mean_terminal_v = float(batch.terminal_v.mean())
    mean_tavg_v = float(batch.time_average_v().mean())
    persist_eps = 0.5 * floor if floor is not None else PERSIST_EPS_DEFAULT
    if mean_terminal_v < EXTINCT_EPS:
        return Observation.V_EXTINCT, mean_tavg_v
    if mean_tavg_v > persist_eps:
        return Observation.V_PERSISTS, mean_tavg_v
    return Observation.UNCLEAR, mean_tavg_v


def _failed_cell(m: float, sigma: float, error: str) -> RegimeCell:
    return RegimeCell(m=float(m), sigma=float(sigma), predicted=None,
                      observed=None, v_time_avg=None, error=error)


def regime_map(base: ModelParams, m_grid: Sequence[float],
               sigma_grid: Sequence[float], *, scheme: Scheme, x0: State,
               horizon: float, dt: float, n_paths: int,
               seed: int) -> list[RegimeCell]:
    """Classify and simulate every (m, sigma) combination.

    Cells are emitted in row-major order (m outer, sigma inner). Every
    cell is validated and classified first; a failure there (for example
    sigma = 0, which the classifier rejects) is recorded on that cell. An
    input shared by every cell that is bad (a horizon, say) raises.
    The valid cells then advance together in one multi-cell batch that
    records only the terminal state and keeps only the integral of v,
    sharing one noise block. A cell whose integration fails is recorded
    with the error a run of it alone would raise; cells are independent
    lanes, so each cell's outcome is bit-identical to a run of that cell
    alone.
    """
    if len(m_grid) == 0 or len(sigma_grid) == 0:
        raise ParameterError("m_grid and sigma_grid must be nonempty")
    record_stride = _resolve_steps(horizon, dt)  # the terminal state only
    grid = [(m, sigma) for m in m_grid for sigma in sigma_grid]
    cells: dict[int, RegimeCell] = {}
    valid: dict[int, tuple[ModelParams, Regime]] = {}
    for i, (m, sigma) in enumerate(grid):
        try:
            params = ModelParams(r=base.r, K=base.K, m=m, d=base.d, sigma=sigma)
            valid[i] = (params, classify_regime(params).classification)
        except JobMarketError as exc:
            cells[i] = _failed_cell(m, sigma, str(exc))

    if valid:
        batch = simulate_paths([params for params, _ in valid.values()],
                               scheme, x0, horizon, dt, n_paths, seed,
                               record_stride=record_stride, outputs={"integral_v"})
        for c, (i, (params, predicted)) in enumerate(valid.items()):
            if batch.errors[c] is not None:
                cells[i] = _failed_cell(*grid[i], batch.errors[c])
                continue
            observed, tavg = _observe(batch.cell(c), persistence_floor(params))
            cells[i] = RegimeCell(m=float(grid[i][0]), sigma=float(grid[i][1]),
                                  predicted=predicted, observed=observed,
                                  v_time_avg=tavg)
    return [cells[i] for i in range(len(grid))]


def regime_cells_to_csv(cells: Sequence[RegimeCell], fp: TextIO) -> None:
    """Rows m,sigma,predicted,observed,v_time_avg; failed cells leave the
    outcome columns empty."""
    fp.write("m,sigma,predicted,observed,v_time_avg\n")
    for cell in cells:
        if cell.error is None:
            fp.write(f"{cell.m!r},{cell.sigma!r},{cell.predicted.value},"
                     f"{cell.observed.value},{cell.v_time_avg!r}\n")
        else:
            fp.write(f"{cell.m!r},{cell.sigma!r},,,\n")
