import math
import os
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from jobmarket import (
    IntegrationError,
    JobMarketError,
    ModelParams,
    ParameterError,
    Regime,
    Scheme,
    State,
    Trajectory,
    classify_regime,
    generate,
    persistence_floor,
    run_batch,
    simulate,
)
from jobmarket import analysis, brownian, integrators
from jobmarket.analysis import (
    Observation,
    StrongOrderReport,
    _observe,
    ensemble,
    regime_cells_to_csv,
    regime_map,
    simulate_paths,
    strong_order,
)

from coarsening import group_sums

P_FIG1 = ModelParams(r=1.0, K=100.0, m=0.001, d=0.2, sigma=0.09)
P_FIG2 = ModelParams(r=1.0, K=100.0, m=0.1, d=0.2, sigma=0.001)


# ---------------------------------------------------------------------------
# ensembles

def test_single_path_ensemble_is_that_path():
    stats = ensemble(P_FIG2, Scheme.MILSTEIN, State(50.0, 10.0), 2.0, 0.01,
                     n_paths=1, seed=11)
    traj = simulate(Scheme.MILSTEIN, P_FIG2, State(50.0, 10.0), 2.0, 0.01,
                    path=generate(11, 0, 0.01, 200))
    assert np.array_equal(stats.u_mean, traj.u)
    assert np.array_equal(stats.v_mean, traj.v)
    assert np.all(stats.u_std == 0.0)
    assert np.all(stats.v_std == 0.0)
    assert stats.n_paths == 1


def test_zero_noise_ensemble_has_no_spread():
    p = ModelParams(1.0, 100.0, 0.1, 0.2, 0.0)
    stats = ensemble(p, Scheme.EULER_MARUYAMA, State(50.0, 10.0), 2.0, 0.01,
                     n_paths=5, seed=3)
    assert np.all(stats.u_std == 0.0)
    assert np.all(stats.v_std == 0.0)


def test_ensemble_is_bit_reproducible():
    a = ensemble(P_FIG1, Scheme.MILSTEIN, State(50.0, 10.0), 3.0, 0.01,
                 n_paths=8, seed=77)
    b = ensemble(P_FIG1, Scheme.MILSTEIN, State(50.0, 10.0), 3.0, 0.01,
                 n_paths=8, seed=77)
    for name in ("times", "u_mean", "u_std", "u_q05", "u_q50", "u_q95",
                 "v_mean", "v_std", "v_q05", "v_q50", "v_q95"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name
    assert a.clamp_rate == b.clamp_rate


def test_ensemble_quantiles_are_ordered_and_nearest_rank():
    stats = ensemble(P_FIG1, Scheme.MILSTEIN, State(50.0, 10.0), 3.0, 0.01,
                     n_paths=20, seed=5)
    assert np.all(stats.u_q05 <= stats.u_q50)
    assert np.all(stats.u_q50 <= stats.u_q95)
    assert np.all(stats.v_q05 <= stats.v_q50)
    assert np.all(stats.v_q50 <= stats.v_q95)
    # nearest rank with n = 20: ranks ceil(1), ceil(10), ceil(19)
    batch = simulate_paths(P_FIG1, Scheme.MILSTEIN, State(50.0, 10.0), 3.0,
                           0.01, 20, 5)
    v_sorted = np.sort(batch.V, axis=0)
    assert np.array_equal(stats.v_q05, v_sorted[0])
    assert np.array_equal(stats.v_q50, v_sorted[9])
    assert np.array_equal(stats.v_q95, v_sorted[18])


def test_ensemble_clamp_rate_counts_clamped_paths():
    # Euler-Maruyama on the high-noise scenario clamps some paths early on
    batch = simulate_paths(P_FIG1, Scheme.EULER_MARUYAMA, State(50.0, 10.0),
                           20.0, 0.01, 16, 20240101)
    stats = ensemble(P_FIG1, Scheme.EULER_MARUYAMA, State(50.0, 10.0),
                     20.0, 0.01, 16, 20240101)
    expected = np.count_nonzero(batch.clamp_counts > 0) / 16
    assert stats.clamp_rate == expected
    assert 0.0 < stats.clamp_rate <= 1.0


# The bulk reduction over the full (paths, rows) records that ensemble took
# before it reduced each row as the time loop reached it: the reference the
# streamed statistics must equal bit for bit.

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


def _reference_columns(batch) -> dict[str, np.ndarray]:
    columns = {"times": batch.times}
    for name, records in (("u", batch.U), ("v", batch.V)):
        columns[f"{name}_mean"] = records.mean(axis=0)
        columns[f"{name}_std"] = _population_std(records)
        ordered = np.sort(records, axis=0)
        for q in (0.05, 0.50, 0.95):
            columns[f"{name}_q{round(100 * q):02d}"] = _nearest_rank(ordered, q)
    return columns


P_CLAMPING = ModelParams(r=1.0, K=100.0, m=0.1, d=0.2, sigma=0.5)


@settings(max_examples=40,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(scheme=st.sampled_from([Scheme.EULER_MARUYAMA, Scheme.MILSTEIN]),
       p=st.sampled_from([P_FIG1, P_FIG2, P_CLAMPING]),
       x0=st.sampled_from([State(50.0, 10.0), State(100.0, 0.0), State(30.0, -0.0)]),
       n_paths=st.sampled_from([1, 2, 19, 20, 21]),  # the nearest-rank edges
       dt=st.sampled_from([0.01, 0.05, 0.5]), stride=st.integers(1, 5),
       n_rows=st.integers(1, 12), seed=st.integers(0, 2**64 - 1),
       forked=st.booleans(), step_cap=st.sampled_from([1, 3, 16, 4096]))
# fig1 at dt 0.5: most lanes die out by t = 40 and freeze, and the split
# step steps only the rest
@example(scheme=Scheme.EULER_MARUYAMA, p=P_FIG1, x0=State(50.0, 10.0), n_paths=21,
         dt=0.5, stride=4, n_rows=20, seed=3, forked=True, step_cap=16)
@example(scheme=Scheme.MILSTEIN, p=P_FIG1, x0=State(50.0, 10.0), n_paths=20,
         dt=0.5, stride=1, n_rows=80, seed=3, forked=False, step_cap=16)
def test_ensemble_equals_the_bulk_reduction_of_the_records(
        monkeypatch, forks, scheme, p, x0, n_paths, dt, stride, n_rows, seed,
        forked, step_cap):
    monkeypatch.setattr(brownian, "_usable_cpus", lambda: 2 if forked else 1)
    monkeypatch.setattr(brownian, "_FORK_MIN", 0)
    monkeypatch.setattr(brownian, "_BLOCK_STEPS", step_cap)
    monkeypatch.setattr(integrators, "_SPLIT_MIN", 1)
    horizon = stride * n_rows * dt
    forks_before = len(forks)
    stats = ensemble(p, scheme, x0, horizon, dt, n_paths, seed, record_stride=stride)
    assert len(forks) == forks_before + forked
    batch = simulate_paths(p, scheme, x0, horizon, dt, n_paths, seed,
                           record_stride=stride, outputs=())
    for name, expected in _reference_columns(batch).items():
        assert getattr(stats, name).tobytes() == expected.tobytes(), name
    assert stats.n_paths == n_paths
    assert stats.clamp_rate == np.count_nonzero(batch.clamp_counts > 0) / n_paths


def test_ensemble_statistics_of_a_huge_row_scale_exactly():
    # 2^1000 times a row: the n squares of its spread would overflow, so it
    # is reduced scaled, and its columns are 2^1000 times the row's, bit for
    # bit, where the std was inf
    row = np.array([1.0, 2.0, 3.0, 7.5])
    small, huge = analysis._RowStats(), analysis._RowStats()
    for stats, x in ((small, row), (huge, np.ldexp(row, 1000))):
        stats.open(row.shape, 1)
        stats.put(x, x, None)
    assert huge.columns.tobytes() == np.ldexp(small.columns, 1000).tobytes()


def test_ensemble_memory_grows_with_paths_plus_rows():
    # fig1, 1000 paths x 10^4 steps, every step recorded: U and V alone would
    # hold 2 x 1000 x 10001 doubles, 160 MB; the noise blocks are mapped
    # outside tracemalloc's view, and their size is pinned elsewhere
    n_paths, n_steps = 1000, 10**4
    tracemalloc.start()
    try:
        stats = ensemble(P_FIG1, Scheme.MILSTEIN, State(50.0, 10.0), n_steps * 0.01,
                         0.01, n_paths, 20240101)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(stats.times) == n_steps + 1
    assert peak < 8e6  # the bound, set before the first run: 1/20 of the records


def test_an_integer_dt_records_float_times():
    # the bits of a float dt, from every entry point that records times
    x0 = State(100.0, 0.0)
    u0, v0 = np.full(2, x0.u), np.full(2, x0.v)
    runs = [(simulate(Scheme.RK4, P_FIG2, x0, 4, dt),
             run_batch(Scheme.MILSTEIN, P_FIG2, u0, v0, 4, dt, np.zeros((2, 4))),
             simulate_paths(P_FIG2, Scheme.MILSTEIN, x0, 4, dt, 2, 1))
            for dt in (1, 1.0)]
    for as_int, as_float in zip(*runs):
        assert as_int.times.dtype == np.float64
        assert as_int.times.tobytes() == as_float.times.tobytes()


def test_simulate_paths_validates_n_paths():
    with pytest.raises(ParameterError):
        simulate_paths(P_FIG1, Scheme.MILSTEIN, State(1, 1), 1.0, 0.01, 0, 1)


def test_simulate_paths_passes_outputs_to_run_batch():
    args = (P_FIG1, Scheme.MILSTEIN, State(50.0, 10.0), 3.0, 0.01, 4, 5)
    full = simulate_paths(*args)
    some = simulate_paths(*args, outputs={"integral_v"})
    assert some.U.tobytes() == full.U.tobytes()
    assert some.integral_v.tobytes() == full.integral_v.tobytes()
    assert some.max_total is None
    with pytest.raises(ParameterError):
        simulate_paths(*args, outputs={"integral_w"})


# ---------------------------------------------------------------------------
# strong convergence order

def test_strong_order_zero_noise_shows_euler_order_one():
    # deterministic limit: explicit Euler is first order; the reference sits
    # 8 octaves below the coarsest rung so its adjacency bias stays small
    p = ModelParams(1.0, 100.0, 0.1, 0.2, 0.0)
    report = strong_order(p, Scheme.EULER_MARUYAMA, State(50.0, 10.0), 1.0,
                          dt_fine=2.0**-14, levels=8, n_paths=1, seed=5)
    assert 0.85 <= report.slope <= 1.15
    assert report.residual < 0.3


def test_strong_order_em_is_half_order_in_noise_dominated_regime():
    # started at the interior equilibrium over a short horizon the drift
    # error is negligible and the schemes' stochastic orders show cleanly
    report = strong_order(P_FIG2, Scheme.EULER_MARUYAMA, State(2.0, 9.8),
                          0.001, dt_fine=0.001 * 2.0**-11, levels=5,
                          n_paths=50, seed=20240101)
    assert 0.35 <= report.slope <= 0.65
    assert report.residual < 0.3


def test_strong_order_milstein_is_first_order():
    report = strong_order(P_FIG2, Scheme.MILSTEIN, State(2.0, 9.8),
                          0.001, dt_fine=0.001 * 2.0**-11, levels=5,
                          n_paths=50, seed=20240101)
    assert 0.8 <= report.slope <= 1.2
    assert report.residual < 0.3


def test_strong_order_errors_grow_with_dt():
    report = strong_order(P_FIG2, Scheme.MILSTEIN, State(2.0, 9.8),
                          0.001, dt_fine=0.001 * 2.0**-11, levels=5,
                          n_paths=10, seed=1)
    errors = [err for _, err in report.levels]
    dts = [dt for dt, _ in report.levels]
    assert dts == sorted(dts)
    assert errors == sorted(errors)
    payload = report.to_dict()
    assert set(payload) == {"slope", "residual", "levels"}
    assert [lvl["dt"] for lvl in payload["levels"]] == dts


def _strong_order_reference(p, scheme, x0, horizon, dt_fine, levels, n_paths,
                            seed):
    """strong_order from a materialised noise matrix: the whole time-major
    fine matrix, then group_sums and one run_batch per level."""
    n_fine = round(horizon / dt_fine)
    noise = np.stack([generate(seed, i, dt_fine, n_fine).increments
                      for i in range(n_paths)], axis=1)
    u0 = np.full(n_paths, float(x0[0]))
    v0 = np.full(n_paths, float(x0[1]))
    ref = run_batch(scheme, p, u0, v0, horizon, dt_fine, noise.T,
                    record_stride=n_fine)
    level_errors = []
    for level in range(1, levels + 1):
        factor = 2 ** level
        dt_level = dt_fine * factor
        out = run_batch(scheme, p, u0, v0, horizon, dt_level,
                        group_sums(noise, factor).T,
                        record_stride=n_fine // factor)
        err = float(np.mean(np.abs(out.U[..., -1] - ref.U[..., -1])
                            + np.abs(out.terminal_v - ref.terminal_v)))
        if err <= 0.0:
            raise IntegrationError(
                f"coupled error vanished at dt={dt_level}; the scenario does "
                "not separate the discretisation levels")
        level_errors.append((dt_level, err))
    log_dt = np.log2([dt for dt, _ in level_errors])
    log_err = np.log2([err for _, err in level_errors])
    slope, intercept = np.polyfit(log_dt, log_err, 1)
    residual = float(np.sqrt(np.mean((slope * log_dt + intercept - log_err) ** 2)))
    return StrongOrderReport(slope=float(slope), residual=residual,
                             levels=tuple(level_errors))


def _report_or_error(fn, *args):
    # repr round-trips every float, so equal reprs mean equal bits
    try:
        return repr(fn(*args))
    except IntegrationError as exc:
        return f"IntegrationError: {exc}"


@settings(max_examples=60,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(seed=st.integers(0, 2**64 - 1),
       scheme=st.sampled_from([Scheme.EULER_MARUYAMA, Scheme.MILSTEIN]),
       levels=st.integers(3, 6), groups=st.integers(1, 3),
       n_paths=st.integers(1, 7), step_cap=st.sampled_from([1, 3, 7, 4096]),
       case=st.sampled_from([(P_FIG2, State(2.0, 9.8), 2.0**-12),
                             (P_FIG1, State(50.0, 10.0), 2.0**-6),
                             # clamps fire: the noise term overshoots zero
                             (ModelParams(1.0, 100.0, 0.1, 0.2, 3.0),
                              State(50.0, 10.0), 2.0**-4)]))
def test_strong_order_equals_materialised_reference(monkeypatch, seed, scheme,
                                                    levels, groups, n_paths,
                                                    step_cap, case):
    # small step caps make blocks ragged, so one 2^L group spans several
    monkeypatch.setattr(brownian, "_BLOCK_STEPS", step_cap)
    p, x0, dt_fine = case
    args = (p, scheme, x0, groups * 2**levels * dt_fine, dt_fine, levels,
            n_paths, seed)
    assert (_report_or_error(strong_order, *args)
            == _report_or_error(_strong_order_reference, *args))


def test_strong_order_streams_noise_in_bounded_memory():
    n_paths, n_fine, dt_fine = 1000, 8192, 2.0 ** -20
    full_matrix = n_paths * n_fine * 8  # 65.5 MB of fine increments
    tracemalloc.start()
    try:
        report = strong_order(P_FIG2, Scheme.MILSTEIN, State(2.0, 9.8),
                              n_fine * dt_fine, dt_fine, 5, n_paths, 7)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(report.levels) == 5
    assert peak < full_matrix / 2


@pytest.mark.parametrize("run", [
    lambda: simulate_paths(P_FIG1, Scheme.MILSTEIN, State(50.0, 10.0), 8.0,
                           2.0 ** -10, 1000, 7, record_stride=8192),
    lambda: strong_order(P_FIG2, Scheme.MILSTEIN, State(2.0, 9.8), 2.0 ** -7,
                         2.0 ** -20, 5, 1000, 7),
], ids=["simulate_paths", "strong_order"])
def test_noise_buffers_stay_under_the_byte_cap(monkeypatch, forks, run):
    # the noise buffers live in mappings of their own, which tracemalloc
    # does not see, so their sizes are bounded here; the stream forks a
    # producer, and both of its buffers (the producer's row buffer and the
    # shared ring of five quarter-block chunks) are mapped before the fork,
    # where this spy sees them
    requested = []
    mapped = brownian._mapped

    def spy(*shape, dtype=float):
        if dtype is float:  # noise; a settling run maps a bool mask besides
            requested.append(math.prod(shape) * 8)
        return mapped(*shape, dtype=dtype)

    monkeypatch.setattr(brownian, "_mapped", spy)
    run()  # 1000 paths x 8192 steps: 65.5 MB of increments
    assert len(forks) == 1
    block = brownian._BLOCK_BYTES // (3 * 1000 * 8)
    row_buffer, ring = 1000 * 8 * block, 5 * 1000 * 8 * math.ceil(block / 4)
    assert sorted(requested) == [row_buffer, ring]
    assert sum(requested) <= brownian._BLOCK_BYTES


def test_runs_that_draw_noise_reject_rk4_before_any_draw(forks, monkeypatch):
    # 512 paths x 4096 steps would fork a noise producer
    drawn = []
    monkeypatch.setattr(brownian, "_blocks", lambda *args: drawn.append(args))
    x0, n_paths, seed = State(50.0, 10.0), 512, 1
    runs = [lambda: run_batch(Scheme.RK4, P_FIG2, np.full(n_paths, 50.0),
                              np.full(n_paths, 10.0), 40.96, 0.01,
                              brownian.NoiseStream(seed, n_paths, 0.01, 4096)),
            lambda: simulate_paths(P_FIG2, Scheme.RK4, x0, 40.96, 0.01, n_paths, seed),
            lambda: ensemble(P_FIG2, Scheme.RK4, x0, 40.96, 0.01, n_paths, seed)]
    for run in runs:
        with pytest.raises(ParameterError, match="rk4 draws no noise"):
            run()
    assert forks == [] and drawn == []


def test_strong_order_validates():
    with pytest.raises(ParameterError):
        strong_order(P_FIG2, Scheme.RK4, State(1, 1), 1.0, 2.0**-8, 4, 2, 1)
    with pytest.raises(ParameterError):
        strong_order(P_FIG2, Scheme.MILSTEIN, State(1, 1), 1.0, 2.0**-8, 2, 2, 1)
    with pytest.raises(ParameterError):
        # 2^5 does not divide the 200 fine steps
        strong_order(P_FIG2, Scheme.MILSTEIN, State(1, 1), 1.0, 1.0 / 200, 5, 2, 1)


@pytest.mark.parametrize("x0", [State(-1.0, 1.0), State(1.0, -1e-300),
                                State(float("nan"), 1.0), State(1.0, float("inf")),
                                State(float("-inf"), float("nan"))])
def test_strong_order_rejects_bad_initial_state(x0):
    with pytest.raises(ParameterError) as exc:
        strong_order(P_FIG2, Scheme.MILSTEIN, x0, 1.0, 2.0**-8, 3, 2, 1)
    assert str(exc.value) == "initial states must be finite and nonnegative"


@pytest.mark.parametrize("n_paths", [0, True])
def test_strong_order_rejects_bad_n_paths(n_paths):
    with pytest.raises(ParameterError) as exc:
        strong_order(P_FIG2, Scheme.MILSTEIN, State(1.0, 1.0), 1.0, 2.0**-8, 3,
                     n_paths, 1)
    assert str(exc.value) == f"n_paths must be a positive integer, got {n_paths!r}"


def test_strong_order_rejects_degenerate_constant_scenario():
    # from the capacity equilibrium with v = 0 every level is identical
    with pytest.raises(IntegrationError):
        strong_order(P_FIG2, Scheme.MILSTEIN, State(100.0, 0.0), 1.0,
                     2.0**-8, 3, 2, 1)


# ---------------------------------------------------------------------------
# regime map

def test_regime_map_classifies_table_points():
    cells = regime_map(P_FIG1, m_grid=[0.001, 0.1], sigma_grid=[0.09, 0.001],
                       scheme=Scheme.MILSTEIN, x0=State(50.0, 10.0),
                       horizon=80.0, dt=0.01, n_paths=4, seed=20240101)
    assert len(cells) == 4
    by_key = {(c.m, c.sigma): c for c in cells}
    extinct = by_key[(0.001, 0.09)]
    assert extinct.predicted is Regime.EXTINCTION
    assert extinct.observed is Observation.V_EXTINCT
    assert extinct.error is None
    persist = by_key[(0.1, 0.001)]
    assert persist.predicted is Regime.PERSISTENCE
    assert persist.observed is Observation.V_PERSISTS
    assert persist.v_time_avg > 2.0
    # m = 0.001, sigma = 0.001: index 0.3 >= 0 but m < r/K
    assert by_key[(0.001, 0.001)].predicted is Regime.INDETERMINATE


def test_regime_map_extinction_prediction_confirmed_at_full_scale():
    # at the reference resolution a predicted-extinction cell must also be
    # observed extinct (mean terminal v under 1e-2)
    cells = regime_map(P_FIG1, m_grid=[0.001], sigma_grid=[0.09],
                       scheme=Scheme.MILSTEIN, x0=State(50.0, 10.0),
                       horizon=500.0, dt=0.01, n_paths=100, seed=20240101)
    (cell,) = cells
    assert cell.predicted is Regime.EXTINCTION
    assert cell.observed is Observation.V_EXTINCT


def test_regime_map_records_cell_errors_and_continues():
    cells = regime_map(P_FIG1, m_grid=[0.001], sigma_grid=[0.0],
                       scheme=Scheme.MILSTEIN, x0=State(50.0, 10.0),
                       horizon=5.0, dt=0.01, n_paths=2, seed=1)
    assert len(cells) == 1
    cell = cells[0]
    assert cell.error is not None
    assert cell.predicted is None and cell.observed is None


def test_regime_map_rejects_empty_grids():
    with pytest.raises(ParameterError):
        regime_map(P_FIG1, m_grid=[], sigma_grid=[0.1],
                   scheme=Scheme.MILSTEIN, x0=State(1, 1), horizon=1.0,
                   dt=0.01, n_paths=1, seed=1)


@pytest.mark.parametrize("bad", [dict(horizon=0.0), dict(x0=State(-1.0, 1.0)),
                                 dict(n_paths=0), dict(seed=-1),
                                 # no valid cell (sigma = 0), so no batch runs
                                 dict(sigma_grid=[0.0], x0=State(-1.0, 1.0)),
                                 dict(sigma_grid=[0.0], x0=State(math.nan, 1.0)),
                                 dict(sigma_grid=[0.0], n_paths=-3),
                                 dict(sigma_grid=[0.0], seed=-1),
                                 dict(scheme=Scheme.RK4),
                                 dict(sigma_grid=[0.0], scheme=Scheme.RK4)])
def test_regime_map_raises_on_a_bad_input_every_cell_shares(bad):
    kwargs = dict(sigma_grid=[0.09], scheme=Scheme.MILSTEIN, x0=State(50.0, 10.0),
                  horizon=1.0, dt=0.01, n_paths=2, seed=1)
    with pytest.raises(ParameterError):
        regime_map(P_FIG1, m_grid=[0.001], **{**kwargs, **bad})


def test_regime_cells_csv_layout(tmp_path):
    cells = regime_map(P_FIG1, m_grid=[0.001], sigma_grid=[0.09, 0.0],
                       scheme=Scheme.MILSTEIN, x0=State(50.0, 10.0),
                       horizon=60.0, dt=0.01, n_paths=2, seed=20240101)
    out = tmp_path / "sweep.csv"
    with open(out, "w", newline="\n") as fp:
        regime_cells_to_csv(cells, fp)
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "m,sigma,predicted,observed,v_time_avg"
    assert len(lines) == 3
    good = lines[1].split(",")
    assert good[2] == "extinction"
    assert good[3] in ("v_extinct", "v_persists", "unclear")
    failed = lines[2].split(",")
    assert failed[2] == "" and failed[3] == "" and failed[4] == ""


def _bits(x):
    return None if x is None else struct.pack("<d", x)


def _outcomes(cells):
    return [(c.predicted, c.observed, _bits(c.v_time_avg), c.error)
            for c in cells]


def _per_cell_reference(base, m_grid, sigma_grid, scheme, x0, horizon, dt,
                        n_paths, seed):
    """Each cell run on its own through simulate_paths and _observe."""
    out = []
    for m in m_grid:
        for sigma in sigma_grid:
            try:
                params = ModelParams(r=base.r, K=base.K, m=m, d=base.d,
                                     sigma=sigma)
                predicted = classify_regime(params).classification
                batch = simulate_paths(params, scheme, x0, horizon, dt,
                                       n_paths, seed)
                observed, tavg = _observe(batch.terminal_v, batch.time_average_v(),
                                          persistence_floor(params))
            except JobMarketError as exc:
                out.append((None, None, None, str(exc)))
                continue
            out.append((predicted, observed, _bits(tavg), None))
    return out


@pytest.mark.parametrize("base,m_grid,sigma_grid,scheme,horizon,dt,n_paths", [
    (P_FIG2, [0.05, 0.1, 0.2], [0.001, 0.01, 0.1], Scheme.MILSTEIN,
     5.0, 0.01, 11),
    (P_FIG2, [0.05, 0.2], [0.0, 0.01], Scheme.MILSTEIN, 5.0, 0.01, 1),
    (P_FIG1, [0.001, 0.3], [0.09, 0.0, 0.5], Scheme.EULER_MARUYAMA,
     5.0, 0.01, 9),
    (P_FIG1, [0.001, 0.1, 0.3], [0.09], Scheme.EULER_MARUYAMA, 5.0, 0.01, 1),
])
def test_regime_map_matches_per_cell_runs(base, m_grid, sigma_grid, scheme,
                                          horizon, dt, n_paths):
    kwargs = dict(scheme=scheme, x0=State(50.0, 10.0), horizon=horizon,
                  dt=dt, n_paths=n_paths, seed=20240101)
    cells = regime_map(base, m_grid, sigma_grid, **kwargs)
    assert [(c.m, c.sigma) for c in cells] == [
        (m, s) for m in m_grid for s in sigma_grid]
    assert _outcomes(cells) == _per_cell_reference(
        base, m_grid, sigma_grid, scheme, kwargs["x0"], horizon, dt,
        n_paths, kwargs["seed"])


@settings(max_examples=20, deadline=None, database=None)
@given(m_grid=st.lists(st.sampled_from([0.001, 0.05, 0.1, 0.3]),
                       min_size=1, max_size=3),
       sigma_grid=st.lists(st.sampled_from([0.0, 0.001, 0.01, 0.09, 0.5]),
                           min_size=1, max_size=3),
       scheme=st.sampled_from([Scheme.EULER_MARUYAMA, Scheme.MILSTEIN]),
       n_paths=st.integers(1, 12),
       seed=st.integers(0, 2**64 - 1))
def test_regime_map_matches_per_cell_runs_on_random_grids(
        m_grid, sigma_grid, scheme, n_paths, seed):
    x0 = State(50.0, 10.0)
    cells = regime_map(P_FIG2, m_grid, sigma_grid, scheme=scheme, x0=x0,
                       horizon=1.0, dt=0.01, n_paths=n_paths, seed=seed)
    assert _outcomes(cells) == _per_cell_reference(
        P_FIG2, m_grid, sigma_grid, scheme, x0, 1.0, 0.01, n_paths, seed)


# from here the flux m*u*v overflows on the first step at m >= 3
X0_OVERFLOWING = State(1e154, 1e154)


def test_regime_map_isolates_a_failing_cell():
    with pytest.warns(RuntimeWarning):
        cells = regime_map(P_FIG1, m_grid=[0.01, 5.0], sigma_grid=[0.09],
                           scheme=Scheme.MILSTEIN, x0=X0_OVERFLOWING, horizon=10.0,
                           dt=0.5, n_paths=2, seed=20240101)
    good, failed = cells
    assert good.error is None and good.observed is Observation.V_PERSISTS
    with pytest.warns(RuntimeWarning), pytest.raises(IntegrationError) as alone:
        simulate_paths(ModelParams(r=1.0, K=100.0, m=5.0, d=0.2, sigma=0.09),
                       Scheme.MILSTEIN, X0_OVERFLOWING, 10.0, 0.5, 2, 20240101)
    assert failed.error == str(alone.value)
    assert failed.predicted is None and failed.observed is None


# 8 valid cells (the sigma = 0 column fails classification), 4 of which
# (m = 5.0 and 3.0) fail from X0_OVERFLOWING
FAILING_M_GRID, FAILING_SIGMA_GRID = [5.0, 0.01, 3.0, 0.2], [0.09, 0.0, 0.3]


def test_regime_map_matches_per_cell_runs_where_cells_fail():
    kwargs = dict(scheme=Scheme.MILSTEIN, x0=X0_OVERFLOWING, horizon=10.0,
                  dt=0.5, n_paths=3, seed=20240101)
    with pytest.warns(RuntimeWarning):
        cells = regime_map(P_FIG1, FAILING_M_GRID, FAILING_SIGMA_GRID, **kwargs)
    with pytest.warns(RuntimeWarning):
        reference = _per_cell_reference(P_FIG1, FAILING_M_GRID,
                                        FAILING_SIGMA_GRID, *kwargs.values())
    assert _outcomes(cells) == reference


def test_regime_map_runs_every_valid_cell_in_one_launch(monkeypatch):
    launches = []

    def counting(*args, **kwargs):
        launches.append(len(args[1]))
        return run_batch(*args, **kwargs)

    monkeypatch.setattr(analysis, "run_batch", counting)
    with pytest.warns(RuntimeWarning):
        cells = regime_map(P_FIG1, FAILING_M_GRID, FAILING_SIGMA_GRID,
                           scheme=Scheme.MILSTEIN, x0=X0_OVERFLOWING, horizon=10.0,
                           dt=0.5, n_paths=3, seed=20240101)
    assert launches == [8]
    assert sum(c.error is None for c in cells) == 4


HUGE = State(1e200, 1e200)  # u * v overflows on the first step
P_HUGE = ModelParams(r=1.0, K=100.0, m=0.1, d=0.2, sigma=0.2)


def test_ensemble_and_strong_order_raise_when_a_path_goes_non_finite():
    with pytest.warns(RuntimeWarning), pytest.raises(IntegrationError):
        ensemble(P_HUGE, Scheme.MILSTEIN, HUGE, 1.0, 0.01, n_paths=3, seed=1)
    with pytest.warns(RuntimeWarning), pytest.raises(IntegrationError):
        strong_order(P_HUGE, Scheme.MILSTEIN, HUGE, 1.0, 2.0**-8, 3, 3, 1)


def test_a_failed_forked_ensemble_leaves_no_process_behind(forks):
    # 256 paths x 4096 steps fork a noise producer; the run fails at step 1
    with pytest.warns(RuntimeWarning), pytest.raises(IntegrationError) as failure:
        ensemble(P_HUGE, Scheme.MILSTEIN, HUGE, 40.96, 0.01, n_paths=256, seed=1)
    assert len(forks) == 1
    # the traceback, still held here, holds the frames of the failed run
    assert failure.traceback
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_a_failed_forked_strong_order_leaves_no_process_behind(forks):
    # 256 paths x 4096 fine steps fork a noise producer; every level goes
    # non-finite on its first step and the coupled pass stops early
    with pytest.warns(RuntimeWarning), pytest.raises(IntegrationError) as failure:
        strong_order(P_HUGE, Scheme.MILSTEIN, HUGE, 1.0, 2.0**-12, 3, 256, 1)
    assert len(forks) == 1
    # the traceback, still held here, holds the frames of the failed run
    assert failure.traceback
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_regime_map_fails_a_cell_that_goes_non_finite():
    kwargs = dict(scheme=Scheme.MILSTEIN, x0=HUGE, horizon=1.0, dt=0.01,
                  n_paths=3, seed=1)
    with pytest.warns(RuntimeWarning):
        (cell,) = regime_map(P_HUGE, m_grid=[0.1], sigma_grid=[0.2], **kwargs)
    with pytest.warns(RuntimeWarning), pytest.raises(IntegrationError) as alone:
        simulate_paths(P_HUGE, kwargs["scheme"], HUGE, 1.0, 0.01, 3, 1)
    assert cell.error == str(alone.value)
    assert cell.error.startswith("path 0: state went non-finite at t=0.0")
    assert cell.predicted is None and cell.observed is None


def test_simulate_paths_streams_noise_in_bounded_memory():
    n_paths, n_steps, dt = 1000, 8192, 2.0 ** -10
    full_matrix = n_paths * n_steps * 8  # 65.5 MB of increments
    tracemalloc.start()
    try:
        batch = simulate_paths(P_FIG1, Scheme.MILSTEIN, State(50.0, 10.0),
                               n_steps * dt, dt, n_paths, 7, record_stride=n_steps)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert batch.U.shape == (n_paths, 2)
    assert peak < full_matrix / 2
