"""Ensemble statistics, empirical strong-convergence orders and regime maps.

Everything here is deterministic given (seed, n_paths): path i always draws
from the (seed, i) stream, statistics reduce over the path axis in fixed
order, and no step depends on scheduling or worker count.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import Collection, NamedTuple, Sequence, TextIO

import numpy as np

from . import brownian
from ._rules import (_OUTPUTS, _check_coupling, _check_initial, _check_paths,
                     _check_stochastic, _positive_int, _resolve_steps)
from .errors import IntegrationError, JobMarketError, ParameterError
from .integrators import BatchResult, Scheme, _coupled_terminals, run_batch
from .model import ModelParams, Regime, State, classify_regime, persistence_floor

__all__ = [
    "EnsembleStats",
    "StrongOrderReport",
    "Observation",
    "RegimeCell",
    "simulate_paths",
    "ensemble",
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
                   outputs: Collection[str] = _OUTPUTS, recorder=None) -> BatchResult:
    """Run n_paths independent trajectories (path_index 0 .. n_paths-1).

    Given a sequence of params, every set runs as one row of a multi-cell
    batch, and path i of every cell is driven by the same (seed, i)
    increments: common random numbers, drawn once. outputs and recorder
    are passed to run_batch, which raises a failure, or for a sequence
    records it.
    """
    _positive_int("n_paths", n_paths)
    n_steps = _resolve_steps(horizon, dt)
    lanes = (n_paths,) if isinstance(p, ModelParams) else (len(p), n_paths)
    u0 = np.full(lanes, float(x0[0]))
    v0 = np.full(lanes, float(x0[1]))
    dW = brownian.NoiseStream(seed, n_paths, dt, n_steps)
    return run_batch(scheme, p, u0, v0, horizon, dt, dW,
                     record_stride=record_stride, outputs=outputs, recorder=recorder)


class EnsembleStats(NamedTuple):
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


def _path_sum(x: np.ndarray):
    """+0.0 + x[0] + x[1] + ..., left to right: the sum that U.sum(axis=0)
    takes down a C-ordered (paths, rows) matrix, bit for bit. x.sum() adds
    pairwise and differs in the last bits; np.cumsum is the same running
    sum, behind a Python wrapper that costs a third more at 1000 paths."""
    return 0.0 + np.add.accumulate(x)[-1]


class _RowStats:
    """ensemble's recorder: it reduces each recorded row of a single-cell
    run to EnsembleStats' columns as the time loop reaches it, so the run
    holds the lane state and the statistics, never a records matrix.

    Each mean is the row's _path_sum divided by n, as U.mean(axis=0) takes
    it; the std is taken likewise, of the row shifted by its path 0 value,
    so identical paths give an exact 0; the quantiles are nearest ranks of
    the sorted row. So the columns have the bits of the same reductions
    over the whole records matrix.

    A row whose largest value passes room is reduced scaled below 1 by a
    power of two, exact short of subnormals, so that no square overflows.
    """

    def open(self, lanes: tuple[int, ...], n_rows: int) -> None:
        (self.n,) = lanes
        self.ranks = np.array([max(1, math.ceil(q * self.n)) - 1
                               for q in (0.05, 0.50, 0.95)])
        # |centred| <= 2 max of a nonnegative row: n squares of 2 room sum to DBL_MAX/2
        self.room = math.sqrt(np.finfo(float).max / (8 * self.n))
        # (u, v) x (mean, std, q05, q50, q95), EnsembleStats' field order, x
        # rows; allocated before the first step, so rows that cannot fit
        # fail at once, as records do
        self.columns = np.empty((2, 5, n_rows))
        self.row = 0

    def put(self, u: np.ndarray, v: np.ndarray, clamped) -> None:
        n, i = self.n, self.row
        for x, out in zip((u, v), self.columns):
            ranked = np.sort(x)
            out[2:, i] = ranked[self.ranks]
            scale = 1.0
            # a +inf row is left as is: the run fails at the row's next step
            if self.room < ranked[-1] < math.inf:
                scale = math.ldexp(1.0, -math.frexp(ranked[-1])[1])
                x = x * scale
            centred = x - x[0]
            centred -= _path_sum(centred) / n
            centred *= centred  # centred ** 2, bit for bit
            out[0, i] = _path_sum(x) / n / scale
            out[1, i] = np.sqrt(_path_sum(centred) / n) / scale
        self.row = i + 1


def ensemble(p: ModelParams, scheme: Scheme, x0: State, horizon: float,
             dt: float, n_paths: int, seed: int,
             record_stride: int = 1) -> EnsembleStats:
    """Aggregate n_paths independent trajectories into per-time statistics.

    Each recorded row is reduced as the time loop reaches it (see
    _RowStats), so memory grows as paths + rows, not paths x rows. The
    statistics have the bits of a reduction over the full U and V of
    simulate_paths; the clamp rate reads the final clamp counts, and the
    run keeps none of the per-path accumulators.
    """
    stats = _RowStats()
    batch = simulate_paths(p, scheme, x0, horizon, dt, n_paths, seed,
                           record_stride=record_stride, outputs=(), recorder=stats)
    return EnsembleStats(
        batch.times, *stats.columns[0], *stats.columns[1], n_paths=batch.n_paths,
        clamp_rate=float(np.count_nonzero(batch.clamp_counts > 0)) / batch.n_paths)


class StrongOrderReport(NamedTuple):
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
    groups of 2^L rows as they pass (left to right, the order of the
    tests' reference group_sums) and steps when a group is complete, so
    memory is bounded by lanes times one noise block, not by the fine
    step count. The error at a level is the mean over paths of
    |u_T - u_T_ref| + |v_T - v_T_ref|.
    """
    n_fine = _resolve_steps(horizon, dt_fine)
    _check_coupling(scheme, levels, n_fine)
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


class RegimeCell(NamedTuple):
    """One (m, sigma) grid point: predicted regime vs observed behaviour."""

    m: float
    sigma: float
    predicted: Regime | None
    observed: Observation | None
    v_time_avg: float | None
    error: str | None = None


def _observe(terminal_v: np.ndarray, time_average_v: np.ndarray,
             floor: float | None) -> tuple[Observation, float]:
    mean_terminal_v = float(terminal_v.mean())
    mean_tavg_v = float(time_average_v.mean())
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
    input shared by every cell that is bad (a horizon, say) raises, also
    when no cell is valid.
    The valid cells then advance together in one multi-cell batch that
    records only the terminal state and keeps only the integral of v,
    sharing one noise block. A cell whose integration fails is recorded
    with the error a run of it alone would raise; cells are independent
    lanes, so each cell's outcome is bit-identical to a run of that cell
    alone.
    """
    if len(m_grid) == 0 or len(sigma_grid) == 0:
        raise ParameterError("m_grid and sigma_grid must be nonempty")
    _check_stochastic(scheme)
    record_stride = _resolve_steps(horizon, dt)  # the terminal state only
    _check_initial(*x0)
    _check_paths(seed, n_paths)  # which no cell may fail on its own
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
        time_average_v = batch.time_average_v()
        for c, (i, (params, predicted)) in enumerate(valid.items()):
            if batch.errors[c] is not None:
                cells[i] = _failed_cell(*grid[i], batch.errors[c])
                continue
            observed, tavg = _observe(batch.terminal_v[c], time_average_v[c],
                                      persistence_floor(params))
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
