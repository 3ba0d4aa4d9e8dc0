import io
import itertools
import math
import re
import sys
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from jobmarket import (
    IntegrationError,
    ModelParams,
    ParameterError,
    Scheme,
    State,
    generate,
    run_batch,
    simulate,
    step_em,
    step_milstein,
    step_rk4,
)
from jobmarket import brownian
from jobmarket.brownian import NoiseStream
from jobmarket.integrators import (_clamp_array, _coupled_terminals, _em_next,
                                  _milstein_corr, _milstein_next, _stochastic_next)

P_FIG1 = ModelParams(r=1.0, K=100.0, m=0.001, d=0.2, sigma=0.09)
P_FIG2 = ModelParams(r=1.0, K=100.0, m=0.1, d=0.2, sigma=0.001)


def test_scheme_parse():
    assert Scheme.parse("rk4") is Scheme.RK4
    assert Scheme.parse("euler_maruyama") is Scheme.EULER_MARUYAMA
    assert Scheme.parse("milstein") is Scheme.MILSTEIN
    assert not Scheme.RK4.is_stochastic
    assert Scheme.MILSTEIN.is_stochastic
    with pytest.raises(ParameterError):
        Scheme.parse("heun")


# ---------------------------------------------------------------------------
# RK4

def test_rk4_fixed_points():
    assert step_rk4(State(100.0, 0.0), 0.1, P_FIG2) == (100.0, 0.0)
    assert step_rk4(State(0.0, 0.0), 0.1, P_FIG2) == (0.0, 0.0)
    s = step_rk4(State(2.0, 9.8), 0.01, P_FIG2)
    assert s.u == pytest.approx(2.0, abs=1e-12)
    assert s.v == pytest.approx(9.8, abs=1e-12)


def test_rk4_matches_logistic_closed_form():
    # with v = 0 the u equation is pure logistic growth:
    # u(t) = K*u0*e^(rt) / (K + u0*(e^(rt) - 1))
    r, K, u0, T, dt = 0.8, 100.0, 10.0, 5.0, 0.05
    p = ModelParams(r=r, K=K, m=0.1, d=0.2, sigma=0.0)
    traj = simulate(Scheme.RK4, p, State(u0, 0.0), T, dt)
    exact = K * u0 * math.exp(r * T) / (K + u0 * (math.exp(r * T) - 1.0))
    assert traj.terminal.u == pytest.approx(exact, rel=1e-8)
    assert traj.terminal.v == 0.0


def test_rk4_matches_exponential_decay():
    # with u = 0 the v equation is pure decay: v(t) = v0*e^(-d*t)
    p = ModelParams(r=1.0, K=100.0, m=0.1, d=0.37, sigma=0.0)
    traj = simulate(Scheme.RK4, p, State(0.0, 8.0), 10.0, 0.01)
    assert traj.terminal.v == pytest.approx(8.0 * math.exp(-3.7), rel=1e-10)
    assert traj.terminal.u == 0.0


def test_rk4_material_overshoot_raises():
    p = ModelParams(r=2.0, K=10.0, m=0.1, d=0.2, sigma=0.0)
    with pytest.raises(IntegrationError):
        step_rk4(State(30.0, 0.0), 1.0, p)


def test_simulate_rk4_failure_names_its_time():
    p = ModelParams(2.0, 10.0, 0.1, 0.2, 0.0)
    with pytest.raises(IntegrationError) as exc:
        simulate(Scheme.RK4, p, State(30.0, 0.0), 2.0, 1.0)
    assert str(exc.value).startswith("at t=0.0: RK4 step from")


def test_rk4_rejects_nonpositive_dt():
    with pytest.raises(ParameterError):
        step_rk4(State(1.0, 1.0), 0.0, P_FIG2)


# ---------------------------------------------------------------------------
# Euler-Maruyama

def test_em_reduces_to_euler_when_db_zero():
    p = ModelParams(1.0, 100.0, 0.1, 0.2, 0.09)
    u, v, dt = 10.0, 5.0, 0.01
    (s, clamped) = step_em(State(u, v), dt, 0.0, p)
    coupling = p.m * u * v
    du = p.r * u * (1.0 - u / p.K) - coupling
    dv = coupling - p.d * v
    assert not clamped
    assert s.u == u + du * dt - 0.0
    assert s.v == v + dv * dt + 0.0


def test_em_hand_example():
    # u' = 10 + (9 - 5)*0.01 - 4.5*0.05, v' = 5 + (5 - 1)*0.01 + 4.5*0.05
    p = ModelParams(1.0, 100.0, 0.1, 0.2, 0.09)
    (s, clamped) = step_em(State(10.0, 5.0), 0.01, 0.05, p)
    assert not clamped
    assert s == (9.815, 5.265)


def test_em_keeps_empty_labour_axis_invariant():
    p = ModelParams(1.0, 100.0, 0.1, 0.2, 0.09)
    (s, clamped) = step_em(State(10.0, 0.0), 0.01, 0.3, p)
    assert s.v == 0.0
    assert not clamped
    # u takes the plain logistic Euler step
    assert s.u == 10.0 + (1.0 * 10.0 * (1.0 - 0.1)) * 0.01 - 0.0


def test_em_keeps_empty_jobs_axis_invariant():
    p = ModelParams(1.0, 100.0, 0.1, 0.2, 0.09)
    (s, clamped) = step_em(State(0.0, 7.0), 0.01, -0.4, p)
    assert s.u == 0.0
    assert s.v == 7.0 - 0.2 * 7.0 * 0.01


def test_em_clamps_and_flags():
    # noise term sigma*u*v*dB = 4.5*dB pushes v = 5 below zero at dB = -1.5
    p = ModelParams(1.0, 100.0, 0.1, 0.2, 0.09)
    (s, clamped) = step_em(State(10.0, 5.0), 0.01, -1.5, p)
    assert clamped
    assert s.v == 0.0
    assert s.u > 0.0


# ---------------------------------------------------------------------------
# Milstein

def test_milstein_equals_em_when_db_squared_is_dt():
    # dt = 0.25 has an exact square root, so dB*dB - dt vanishes exactly
    dt = 0.25
    dB = math.sqrt(dt)
    for s0 in (State(10.0, 5.0), State(3.0, 80.0)):
        em, _ = step_em(s0, dt, dB, P_FIG1)
        mil, _ = step_milstein(s0, dt, dB, P_FIG1)
        assert em == mil


def test_milstein_equals_em_on_diagonal():
    em, _ = step_em(State(5.0, 5.0), 0.01, 0.07, P_FIG1)
    mil, _ = step_milstein(State(5.0, 5.0), 0.01, 0.07, P_FIG1)
    assert em == mil


def test_milstein_hand_example():
    # correction = 0.5*0.0081*50*(-5)*(0.0025 - 0.01) = +0.00759375 on u,
    # the exact negation on v, added to the Euler-Maruyama example state
    p = ModelParams(1.0, 100.0, 0.1, 0.2, 0.09)
    (s, clamped) = step_milstein(State(10.0, 5.0), 0.01, 0.05, p)
    assert not clamped
    assert s == (9.82259375, 5.25740625)
    corr = _milstein_corr(10.0, 5.0, 0.01, 0.05, p)
    assert corr == pytest.approx(0.00759375, rel=1e-12)
    em, _ = step_em(State(10.0, 5.0), 0.01, 0.05, p)
    assert s.u == em.u + corr
    assert s.v == em.v - corr


def test_milstein_corrections_cancel_exactly():
    rng = np.random.default_rng(6)
    for _ in range(300):
        u, v = rng.uniform(0, 200), rng.uniform(0, 200)
        dt = rng.uniform(1e-4, 0.1)
        dB = rng.normal(0, math.sqrt(dt))
        corr = _milstein_corr(u, v, dt, dB, P_FIG1)
        assert corr + (-corr) == 0.0


def test_stochastic_updates_cancel_noise_from_the_total():
    # (u' + v') - (u + v) must equal dt*(r*u*(1-u/K) - d*v) up to a few
    # ulps at operand scale, whatever dB is
    rng = np.random.default_rng(7)
    checked = 0
    while checked < 300:
        u, v = rng.uniform(0, 200), rng.uniform(0, 200)
        p = ModelParams(r=rng.uniform(0.05, 2), K=rng.uniform(10, 200),
                        m=rng.uniform(1e-4, 0.5), d=rng.uniform(0.05, 1),
                        sigma=rng.uniform(0, 0.2))
        dt = rng.uniform(1e-4, 0.05)
        dB = rng.normal(0, math.sqrt(dt))
        for stepper in (step_em, step_milstein):
            s, clamped = stepper(State(u, v), dt, dB, p)
            if clamped:
                continue
            coupling = p.m * u * v
            du = p.r * u * (1.0 - u / p.K) - coupling
            dv = coupling - p.d * v
            noise = p.sigma * u * v * dB
            balance = dt * (p.r * u * (1.0 - u / p.K) - p.d * v)
            scale = max(abs(u), abs(v), s.u, s.v, abs(noise),
                        abs(du) * dt, abs(dv) * dt, u + v, abs(balance))
            assert abs((s.u + s.v) - (u + v) - balance) <= 4.0 * np.spacing(scale)
            checked += 1


# ---------------------------------------------------------------------------
# simulate

def test_simulate_constant_at_capacity_equilibrium():
    traj = simulate(Scheme.RK4, P_FIG2, State(100.0, 0.0), 5.0, 0.1)
    assert np.all(traj.u == 100.0)
    assert np.all(traj.v == 0.0)
    assert traj.clamp_count == 0
    assert traj.scheme is Scheme.RK4


def test_simulate_validates_inputs():
    path = generate(1, 0, 0.01, 100)
    with pytest.raises(ParameterError):
        simulate(Scheme.RK4, P_FIG2, State(1, 1), 1.0, 0.3)  # 0.3 does not divide 1
    with pytest.raises(ParameterError):
        simulate(Scheme.MILSTEIN, P_FIG2, State(1, 1), 1.0, 0.01)  # no path
    with pytest.raises(ParameterError):
        simulate(Scheme.RK4, P_FIG2, State(1, 1), 1.0, 0.01, path=path)
    with pytest.raises(ParameterError):
        simulate(Scheme.MILSTEIN, P_FIG2, State(1, 1), 1.0, 0.02, path=path)  # dt mismatch
    with pytest.raises(ParameterError):
        simulate(Scheme.MILSTEIN, P_FIG2, State(1, 1), 2.0, 0.01, path=path)  # too short
    with pytest.raises(ParameterError):
        simulate(Scheme.MILSTEIN, P_FIG2, State(-1, 1), 1.0, 0.01, path=path)
    with pytest.raises(ParameterError):
        simulate(Scheme.RK4, P_FIG2, State(1, 1), 1.0, 0.01, record_stride=3)  # 3 !| 100
    with pytest.raises(ParameterError):
        simulate(Scheme.RK4, P_FIG2, State(1, 1), 0.0, 0.01)


def test_simulate_grid_and_recording():
    path = generate(3, 0, 0.01, 200)
    traj = simulate(Scheme.MILSTEIN, P_FIG1, State(50.0, 10.0), 2.0, 0.01, path=path)
    assert traj.n_points == 201
    assert traj.times[0] == 0.0
    assert traj.times[-1] == pytest.approx(2.0, rel=1e-15)
    steps = np.diff(traj.times)
    assert np.allclose(steps, 0.01, rtol=1e-12)
    assert traj.state(0) == (50.0, 10.0)
    assert traj.seed == 3 and traj.path_index == 0
    assert np.all(traj.u >= 0.0) and np.all(traj.v >= 0.0)


def test_record_stride_thins_exactly():
    path = generate(3, 0, 0.01, 200)
    full = simulate(Scheme.MILSTEIN, P_FIG1, State(50.0, 10.0), 2.0, 0.01, path=path)
    thin = simulate(Scheme.MILSTEIN, P_FIG1, State(50.0, 10.0), 2.0, 0.01,
                    path=path, record_stride=20)
    assert np.array_equal(thin.u, full.u[::20])
    assert np.array_equal(thin.v, full.v[::20])
    assert np.array_equal(thin.times, full.times[::20])
    # full-resolution quantities do not depend on the recording stride
    assert thin.integral_u == full.integral_u
    assert thin.integral_v == full.integral_v
    assert thin.max_total == full.max_total
    assert thin.clamp_count == full.clamp_count
    assert np.array_equal(thin.clamp_times, full.clamp_times)


def test_clamp_events_are_logged():
    # strong noise on the extinction scenario forces Euler-Maruyama below zero
    path = generate(20240101, 13, 0.01, 2000)
    traj = simulate(Scheme.EULER_MARUYAMA, P_FIG1, State(50.0, 10.0), 20.0,
                    0.01, path=path)
    assert traj.clamp_count > 0
    assert len(traj.clamp_times) == traj.clamp_count
    assert np.all(traj.clamp_times > 0.0)
    assert np.all(traj.clamp_times <= 20.0 + 1e-12)
    assert np.any(traj.clamped)
    assert np.all(traj.u >= 0.0) and np.all(traj.v >= 0.0)


def test_em_with_zero_noise_converges_to_rk4():
    x0 = State(50.0, 10.0)
    p = ModelParams(1.0, 100.0, 0.1, 0.2, 0.0)
    reference = simulate(Scheme.RK4, p, x0, 5.0, 1e-3).terminal
    errors = {}
    for dt in (1e-3, 1e-4):
        path = generate(8, 0, dt, round(5.0 / dt))
        term = simulate(Scheme.EULER_MARUYAMA, p, x0, 5.0, dt, path=path).terminal
        errors[dt] = abs(term.u - reference.u) + abs(term.v - reference.v)
    # explicit Euler halves its error with the step, with head-room
    assert errors[1e-4] < 0.15 * errors[1e-3]
    assert errors[1e-4] < 0.05


def test_trajectory_csv_round_trips():
    path = generate(4, 2, 0.25, 8)
    traj = simulate(Scheme.MILSTEIN, P_FIG1, State(50.0, 10.0), 2.0, 0.25, path=path)
    buf = io.StringIO()
    traj.to_csv(buf)
    lines = buf.getvalue().strip().split("\n")
    assert lines[0] == "t,u,v,clamped"
    assert len(lines) == traj.n_points + 1
    for i, line in enumerate(lines[1:]):
        t, u, v, clamped = line.split(",")
        assert float(t) == traj.times[i]
        assert float(u) == traj.u[i]
        assert float(v) == traj.v[i]
        assert clamped in ("0", "1")


# ---------------------------------------------------------------------------
# batch engine agrees with scalar stepping bit for bit

@pytest.mark.parametrize("scheme", [Scheme.EULER_MARUYAMA, Scheme.MILSTEIN])
def test_batch_rows_match_scalar_paths(scheme):
    n_paths, horizon, dt = 4, 3.0, 0.01
    n_steps = round(horizon / dt)
    seed = 99
    dW = np.stack([generate(seed, i, dt, n_steps).increments
                   for i in range(n_paths)])
    batch = run_batch(scheme, P_FIG1, np.full(n_paths, 50.0),
                      np.full(n_paths, 10.0), horizon, dt, dW,
                      record_stride=10)
    for i in range(n_paths):
        traj = simulate(scheme, P_FIG1, State(50.0, 10.0), horizon, dt,
                        path=generate(seed, i, dt, n_steps), record_stride=10)
        assert np.array_equal(batch.U[i], traj.u)
        assert np.array_equal(batch.V[i], traj.v)
        assert np.array_equal(batch.clamped[i], traj.clamped)
        assert batch.clamp_counts[i] == traj.clamp_count
        assert batch.integral_u[i] == traj.integral_u
        assert batch.integral_v[i] == traj.integral_v
        assert batch.max_total[i] == traj.max_total


def test_batch_rk4_matches_scalar():
    batch = run_batch(Scheme.RK4, P_FIG2, np.array([50.0, 2.0]),
                      np.array([10.0, 9.8]), 2.0, 0.01, None)
    a = simulate(Scheme.RK4, P_FIG2, State(50.0, 10.0), 2.0, 0.01)
    b = simulate(Scheme.RK4, P_FIG2, State(2.0, 9.8), 2.0, 0.01)
    assert np.array_equal(batch.U[0], a.u)
    assert np.array_equal(batch.V[0], a.v)
    assert np.array_equal(batch.U[1], b.u)
    assert np.array_equal(batch.V[1], b.v)


def test_batch_validates_shapes():
    with pytest.raises(ParameterError):
        run_batch(Scheme.MILSTEIN, P_FIG1, np.array([1.0]), np.array([1.0]),
                  1.0, 0.01, np.zeros((1, 10)))  # too few increments
    with pytest.raises(ParameterError):
        run_batch(Scheme.RK4, P_FIG1, np.array([1.0]), np.array([1.0]),
                  1.0, 0.01, np.zeros((1, 100)))  # rk4 takes no increments


# ---------------------------------------------------------------------------
# multi-cell batches: each row is bit-identical to a run of its cell alone

P_NOISY = ModelParams(r=1.0, K=100.0, m=0.1, d=0.2, sigma=0.5)  # clamps


@pytest.mark.parametrize("scheme", list(Scheme))
def test_multi_cell_rows_match_single_cell_runs(scheme):
    cells = (P_FIG1, P_FIG2, P_NOISY)
    n_paths, horizon, dt = 5, 2.0, 0.01
    n_steps = round(horizon / dt)
    dW = None
    if scheme.is_stochastic:
        dW = np.stack([generate(3, i, dt, n_steps).increments
                       for i in range(n_paths)])
    u0 = np.linspace(1.0, 60.0, n_paths)
    v0 = np.linspace(12.0, 0.5, n_paths)
    batch = run_batch(scheme, list(cells), np.tile(u0, (3, 1)),
                      np.tile(v0, (3, 1)), horizon, dt, dW, record_stride=10)
    assert batch.U.shape == (3, n_paths, n_steps // 10 + 1)
    assert batch.n_paths == 3 * n_paths
    if scheme.is_stochastic:
        assert batch.clamp_counts.sum() > 0
    for c, p in enumerate(cells):
        alone = run_batch(scheme, p, u0, v0, horizon, dt, dW, record_stride=10)
        row = batch.cell(c)
        assert row.params is p
        assert np.array_equal(row.times, alone.times)
        for name in ("U", "V", "clamped", "clamp_counts", "integral_u",
                     "integral_v", "max_total"):
            assert getattr(row, name).tobytes() == getattr(alone, name).tobytes(), name


_BATCH_FIELDS = ("U", "V", "clamped", "clamp_counts", "integral_u", "integral_v",
                 "max_total")


def _assert_rows_match_runs_alone(stacked, rows, alone):
    for c in rows:
        row = stacked.cell(c)
        assert row.errors == alone.errors == (None,)
        for name in _BATCH_FIELDS:
            assert getattr(row, name).tobytes() == getattr(alone, name).tobytes(), name


def test_multi_cell_rk4_failure_names_its_cell():
    ok = ModelParams(r=1.0, K=100.0, m=0.01, d=0.2, sigma=0.09)
    bad = ModelParams(r=1.0, K=100.0, m=5.0, d=0.2, sigma=0.09)
    u0, v0 = np.full(2, 50.0), np.full(2, 10.0)
    with pytest.raises(IntegrationError) as alone:
        run_batch(Scheme.RK4, bad, u0, v0, 10.0, 0.5, None)
    stacked = run_batch(Scheme.RK4, [ok, bad, ok], np.tile(u0, (3, 1)),
                        np.tile(v0, (3, 1)), 10.0, 0.5, None)
    assert stacked.errors == (None, str(alone.value), None)
    _assert_rows_match_runs_alone(stacked, (0, 2),
                                  run_batch(Scheme.RK4, ok, u0, v0, 10.0, 0.5, None))


def test_multi_cell_validates_shapes():
    with pytest.raises(ParameterError):  # one row per params set
        run_batch(Scheme.RK4, [P_FIG1, P_FIG2], np.ones((3, 2)),
                  np.ones((3, 2)), 1.0, 0.01, None)
    with pytest.raises(ParameterError):  # a single params set takes 1-D lanes
        run_batch(Scheme.RK4, P_FIG1, np.ones((1, 2)), np.ones((1, 2)),
                  1.0, 0.01, None)


# ---------------------------------------------------------------------------
# streamed, time-major noise: the same bits as the row-major matrix

def _noise_matrix(seed, n_paths, dt, n_steps):
    return np.stack([generate(seed, i, dt, n_steps).increments
                     for i in range(n_paths)])


@pytest.mark.parametrize("scheme", [Scheme.EULER_MARUYAMA, Scheme.MILSTEIN])
@pytest.mark.parametrize("cells", [(P_FIG1,), (P_FIG1, P_NOISY, P_FIG2)])
@pytest.mark.parametrize("stride", [1, 10, 200])
def test_stream_and_row_major_matrix_give_identical_batches(monkeypatch, scheme,
                                                           cells, stride):
    # 7-step blocks: many boundaries and a ragged last block in 200 steps
    monkeypatch.setattr(brownian, "_BLOCK_STEPS", 7)
    n_paths, horizon, dt, n_steps = 5, 2.0, 0.01, 200
    u0 = np.linspace(1.0, 60.0, n_paths)
    v0 = np.linspace(12.0, 0.5, n_paths)
    p = cells[0] if len(cells) == 1 else list(cells)
    if len(cells) > 1:
        u0, v0 = np.tile(u0, (len(cells), 1)), np.tile(v0, (len(cells), 1))
    streamed = run_batch(scheme, p, u0, v0, horizon, dt,
                         NoiseStream(8, n_paths, dt, n_steps), record_stride=stride)
    # a longer matrix than needed: only its first n_steps columns are read
    matrix = run_batch(scheme, p, u0, v0, horizon, dt,
                       _noise_matrix(8, n_paths, dt, n_steps + 13),
                       record_stride=stride)
    if P_NOISY in cells:
        assert streamed.clamp_counts.sum() > 0
    for name in ("times", "U", "V", "clamped", "clamp_counts", "integral_u",
                 "integral_v", "max_total"):
        assert getattr(streamed, name).tobytes() == getattr(matrix, name).tobytes(), name


class _Blocks:
    """A hand-built noise stream that yields the given blocks."""

    def __init__(self, *blocks):
        self.blocks = blocks
        self.nbytes = sum(np.asarray(b).nbytes for b in blocks)

    def __iter__(self):
        return iter(self.blocks)


def _run_milstein(dW, n_paths=2):
    return run_batch(Scheme.MILSTEIN, P_FIG1, np.full(n_paths, 1.0),
                     np.full(n_paths, 1.0), 1.0, 0.01, dW)


def test_run_batch_rejects_a_3d_noise_array():
    with pytest.raises(ParameterError):
        _run_milstein(np.zeros((2, 100, 1)))


def test_run_batch_rejects_a_nested_list():
    with pytest.raises(ParameterError):
        _run_milstein([[0.0] * 100, [0.0] * 100])


def test_run_batch_rejects_a_bare_generator():
    with pytest.raises(ParameterError):  # no nbytes to report
        _run_milstein(np.zeros((10, 2)) for _ in range(10))


def test_run_batch_rejects_a_short_stream():
    with pytest.raises(ParameterError):
        _run_milstein(NoiseStream(1, 2, 0.01, 99))
    with pytest.raises(ParameterError):
        _run_milstein(_Blocks())  # no blocks at all


def test_run_batch_rejects_a_block_of_the_wrong_lane_width():
    with pytest.raises(ParameterError):
        _run_milstein(_Blocks(np.zeros((50, 2)), np.zeros((50, 3))))


def test_run_batch_rejects_a_block_of_the_wrong_ndim():
    with pytest.raises(ParameterError):
        _run_milstein(_Blocks(np.zeros(100)))
    with pytest.raises(ParameterError):
        _run_milstein(_Blocks(np.zeros((100, 2, 1))))


# ---------------------------------------------------------------------------
# the shared time loop against a plain reference loop over the step functions

def _reference_path(scheme, p, x0, dt, n_steps, stride, increments):
    """One path stepped by the public step functions in a loop of its own:
    recorded rows, row flags, clamp log, trapezoid integrals and running max."""
    u, v = x0
    rows_u, rows_v, flags, clamp_times = [u], [v], [False], []
    integral_u = integral_v = 0.0
    max_total = u + v
    flagged = False
    for k in range(1, n_steps + 1):
        if scheme is Scheme.RK4:
            (un, vn), clamped = step_rk4(State(u, v), dt, p), False
        else:
            stepper = step_em if scheme is Scheme.EULER_MARUYAMA else step_milstein
            (un, vn), clamped = stepper(State(u, v), dt, float(increments[k - 1]), p)
        if clamped:
            clamp_times.append(k * dt)
            flagged = True
        integral_u += 0.5 * (u + un) * dt
        integral_v += 0.5 * (v + vn) * dt
        u, v = un, vn
        if u + v > max_total:
            max_total = u + v
        if k % stride == 0:
            rows_u.append(u)
            rows_v.append(v)
            flags.append(flagged)
            flagged = False
    return SimpleNamespace(times=[k * dt for k in range(0, n_steps + 1, stride)],
                           u=rows_u, v=rows_v, clamped=flags, clamp_times=clamp_times,
                           integral_u=integral_u, integral_v=integral_v,
                           max_total=max_total)


def _bits(x, dtype=float):
    return np.asarray(x, dtype=dtype).tobytes()


def _assert_matches(ref, times, u, v, clamped, clamp_count, integral_u,
                    integral_v, max_total):
    assert _bits(times) == _bits(ref.times)
    assert _bits(u) == _bits(ref.u)
    assert _bits(v) == _bits(ref.v)
    assert _bits(clamped, bool) == _bits(ref.clamped, bool)
    assert clamp_count == len(ref.clamp_times)
    assert _bits(integral_u) == _bits(ref.integral_u)
    assert _bits(integral_v) == _bits(ref.integral_v)
    assert _bits(max_total) == _bits(ref.max_total)


_PARAMS = st.builds(ModelParams, r=st.floats(0.1, 2.0), K=st.floats(10.0, 200.0),
                    m=st.floats(0.001, 0.5), d=st.floats(0.05, 1.0),
                    sigma=st.sampled_from([0.0, 0.001, 0.09, 0.5]))  # 0.5 clamps
_X0 = st.tuples(st.floats(0.0, 100.0), st.floats(0.0, 100.0))


@settings(max_examples=80,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(scheme=st.sampled_from(list(Scheme)),
       cells=st.lists(_PARAMS, min_size=1, max_size=3),
       x0s=st.lists(_X0, min_size=1, max_size=3),
       dt=st.sampled_from([0.01, 0.05, 0.25, 1.0]),
       stride=st.integers(1, 5), n_rows=st.integers(1, 12),
       seed=st.integers(0, 2**64 - 1), stream=st.booleans(),
       step_cap=st.sampled_from([1, 3, 4096]))
def test_simulate_and_run_batch_equal_a_reference_loop(monkeypatch, scheme, cells,
                                                       x0s, dt, stride, n_rows,
                                                       seed, stream, step_cap):
    monkeypatch.setattr(brownian, "_BLOCK_STEPS", step_cap)
    n_steps = stride * n_rows
    horizon = n_steps * dt
    n_paths = len(x0s)
    paths = [generate(seed, i, dt, n_steps) if scheme.is_stochastic else None
             for i in range(n_paths)]
    lanes_u0 = np.array([x0[0] for x0 in x0s])
    lanes_v0 = np.array([x0[1] for x0 in x0s])
    p, u0, v0 = cells[0], lanes_u0, lanes_v0
    if len(cells) > 1:
        p, u0, v0 = cells, np.tile(u0, (len(cells), 1)), np.tile(v0, (len(cells), 1))
    dW = None
    if scheme.is_stochastic:
        dW = (NoiseStream(seed, n_paths, dt, n_steps) if stream
              else np.stack([path.increments for path in paths]))

    refs, failed = [], {}  # failed: cell index -> the error of its run alone
    for c, cell in enumerate(cells):
        for i, (x0, path) in enumerate(zip(x0s, paths)):
            try:
                ref = _reference_path(scheme, cell, x0, dt, n_steps, stride,
                                      None if path is None else path.increments)
            except IntegrationError as ref_exc:
                # only RK4 raises here; simulate prefixes the time of the step
                with pytest.raises(IntegrationError) as exc:
                    simulate(scheme, cell, State(*x0), horizon, dt, record_stride=stride)
                assert str(exc.value).startswith("at t=")
                assert str(exc.value).endswith(f": {ref_exc}")
                if c not in failed:
                    with pytest.raises(IntegrationError) as alone:
                        run_batch(scheme, cell, lanes_u0, lanes_v0, horizon, dt, dW,
                                  record_stride=stride)
                    failed[c] = str(alone.value)
                continue
            traj = simulate(scheme, cell, State(*x0), horizon, dt, path=path,
                            record_stride=stride)
            _assert_matches(ref, traj.times, traj.u, traj.v, traj.clamped,
                            traj.clamp_count, traj.integral_u, traj.integral_v,
                            traj.max_total)
            assert _bits(traj.clamp_times) == _bits(ref.clamp_times)
            # clamp log, integrals and running max do not depend on the stride
            full = simulate(scheme, cell, State(*x0), horizon, dt, path=path)
            assert full.clamp_count == traj.clamp_count
            assert _bits(full.clamp_times) == _bits(traj.clamp_times)
            assert _bits([full.integral_u, full.integral_v, full.max_total]) == \
                _bits([traj.integral_u, traj.integral_v, traj.max_total])
            refs.append((c, (c, i) if len(cells) > 1 else (i,), ref))
    if len(cells) == 1 and failed:
        return  # the single-cell run raised above

    # a multi-cell run records each failed cell's error and runs the rest on
    batch = run_batch(scheme, p, u0, v0, horizon, dt, dW, record_stride=stride)
    full = run_batch(scheme, p, u0, v0, horizon, dt,
                     None if dW is None else np.stack([path.increments for path in paths]))
    assert batch.errors == full.errors == tuple(failed.get(c) for c in range(len(cells)))
    for c, lane, ref in refs:
        if c in failed:
            continue
        _assert_matches(ref, batch.times, batch.U[lane], batch.V[lane],
                        batch.clamped[lane], batch.clamp_counts[lane],
                        batch.integral_u[lane], batch.integral_v[lane],
                        batch.max_total[lane])
        for name in ("clamp_counts", "integral_u", "integral_v", "max_total"):
            assert _bits(getattr(full, name)[lane]) == _bits(getattr(batch, name)[lane]), name


# ---------------------------------------------------------------------------
# the clamp's tiers: the bits of the full pass, and events only when there are any

_TINY = sys.float_info.min
_EDGES = [math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324, _TINY,
          -_TINY, float(np.nextafter(_TINY, 0.0)), -_TINY / 2, 1e-300, 1.0,
          -1.0, 37.5, -3e-12]
_VALUES = st.sampled_from(_EDGES) | st.floats(-100.0, 100.0)
_LANES = arrays(float, array_shapes(min_dims=1, max_dims=2, max_side=6),
                elements=_VALUES)
# states mostly in the quadrant, so that steps reach every tier
_STATES = st.floats(0.0, 100.0) | st.sampled_from([0.0, 5e-324, _TINY]) | _VALUES


def _assert_events(events, truth):
    """events equal the full pass's truth array, or are None exactly when it
    has no True lane."""
    if truth.any():
        assert events is not None and _bits(events, bool) == _bits(truth, bool)
    else:
        assert events is None


def _non_finite(x):
    """The lanes that fail: NaN or -inf."""
    return ~(x > -math.inf)


@example(x=np.array([-_TINY, 1.0]))  # exactly -DBL_MIN is an event
@example(x=np.array([[0.0, math.nan], [1.0, 2.0]]))  # NaN fails, no event
@example(x=np.array([-math.inf, -1.0]))  # -inf fails, no event
@given(x=_LANES)
def test_clamp_array_tiers_match_the_full_pass(x):
    out, events, failed = _clamp_array(x)
    assert _bits(out) == _bits(np.where(x >= _TINY, x, 0.0))
    _assert_events(events, (x <= -_TINY) & ~_non_finite(x))
    _assert_events(failed, _non_finite(x))


_SHAPE = st.shared(array_shapes(min_dims=1, max_dims=2, max_side=6), key="lanes")


@example(scheme=Scheme.MILSTEIN, u=np.array([50.0, 10.0]), v=np.array([10.0, 5.0]),
         dB=np.array([0.1, -0.1]), sigma=0.09, dt=0.01)  # no lane near 0
@given(scheme=st.sampled_from([Scheme.EULER_MARUYAMA, Scheme.MILSTEIN]),
       u=arrays(float, _SHAPE, elements=_STATES),
       v=arrays(float, _SHAPE, elements=_STATES),
       dB=arrays(float, _SHAPE.map(lambda shape: shape[-1:]),
                 elements=st.floats(-5.0, 5.0)),
       sigma=st.sampled_from([0.09, 0.5, 2.0]), dt=st.sampled_from([0.01, 0.5]))
def test_stochastic_next_reports_events_only_when_a_lane_clamps(scheme, u, v, dB,
                                                               sigma, dt):
    p = ModelParams(r=1.0, K=100.0, m=0.1, d=0.2, sigma=sigma)
    with np.errstate(all="ignore"):
        un, vn, events, failed = _stochastic_next(scheme, u, v, dt, dB, p)
        next_ = _em_next if scheme is Scheme.EULER_MARUYAMA else _milstein_next
        ref_u, ref_v = next_(u, v, dt, dB, p)
    # each component clamps as the full pass would; the events and the
    # failures are their unions
    assert _bits(un) == _bits(np.where(ref_u >= _TINY, ref_u, 0.0))
    assert _bits(vn) == _bits(np.where(ref_v >= _TINY, ref_v, 0.0))
    _assert_events(events, ((ref_u <= -_TINY) & ~_non_finite(ref_u))
                   | ((ref_v <= -_TINY) & ~_non_finite(ref_v)))
    _assert_events(failed, _non_finite(ref_u) | _non_finite(ref_v))


# ---------------------------------------------------------------------------
# outputs: a run keeps only the accumulators its caller reads

_ACCUMULATORS = ("integral_u", "integral_v", "max_total")


@pytest.mark.parametrize("scheme", [Scheme.EULER_MARUYAMA, Scheme.MILSTEIN])
@pytest.mark.parametrize("cells", [(P_NOISY,), (P_FIG1, P_NOISY, P_FIG2)])
def test_outputs_drop_only_the_fields_left_out(scheme, cells):
    n_paths, horizon, dt = 4, 2.0, 0.01
    u0 = np.linspace(1.0, 60.0, n_paths)
    v0 = np.linspace(12.0, 0.5, n_paths)
    p = cells[0] if len(cells) == 1 else list(cells)
    if len(cells) > 1:
        u0, v0 = np.tile(u0, (len(cells), 1)), np.tile(v0, (len(cells), 1))
    dW = _noise_matrix(5, n_paths, dt, round(horizon / dt))
    full = run_batch(scheme, p, u0, v0, horizon, dt, dW, record_stride=10)
    assert full.clamp_counts.sum() > 0
    fulls = [full] if len(cells) == 1 else [full.cell(c) for c in range(len(cells))]
    for r in range(len(_ACCUMULATORS) + 1):
        for kept in itertools.combinations(_ACCUMULATORS, r):
            part = run_batch(scheme, p, u0, v0, horizon, dt, dW, record_stride=10,
                             outputs=set(kept))
            parts = [part] if len(cells) == 1 else [part.cell(c)
                                                    for c in range(len(cells))]
            for whole, some in zip([full, *fulls], [part, *parts]):
                for name in ("times", "U", "V", "clamped", "clamp_counts", *kept):
                    assert getattr(some, name).tobytes() == \
                        getattr(whole, name).tobytes(), (kept, name)
                for name in set(_ACCUMULATORS) - set(kept):
                    assert getattr(some, name) is None, (kept, name)


def test_outputs_rejects_an_unknown_name():
    with pytest.raises(ParameterError, match="integral_w"):
        run_batch(Scheme.MILSTEIN, P_FIG1, np.ones(2), np.ones(2), 1.0, 0.01,
                  _noise_matrix(1, 2, 0.01, 100), outputs={"integral_w"})


# ---------------------------------------------------------------------------
# a state that goes non-finite fails its row; it never reads as a clamp or as
# extinction

P_HUGE = ModelParams(r=1.0, K=100.0, m=0.1, d=0.2, sigma=0.2)
HUGE = 1e200  # u * v overflows on the first step
# from (1e308, 0) Euler-Maruyama's first step lands on exactly (+inf, 0);
# the next goes NaN
P_OVERFLOW = ModelParams(r=10.0, K=1.7e308, m=0.1, d=0.2, sigma=0.2)


@pytest.mark.parametrize("scheme,message", [
    (Scheme.MILSTEIN, "path 0: state went non-finite at t=0.0; reduce the step size"),
    (Scheme.RK4, "path 0: RK4 went negative at t=0.0 (value nan); reduce the step size"),
])
def test_non_finite_lane_fails_a_single_cell_run(scheme, message):
    dW = np.zeros((2, 100)) if scheme.is_stochastic else None
    with pytest.warns(RuntimeWarning), pytest.raises(IntegrationError) as exc:
        run_batch(scheme, P_HUGE, np.array([HUGE, 1.0]), np.array([HUGE, 1.0]),
                  1.0, 0.01, dW)
    assert str(exc.value) == message


@pytest.mark.parametrize("scheme", list(Scheme))
def test_non_finite_row_is_recorded_and_the_others_run_on(scheme):
    u0, v0 = np.array([50.0, 3.0]), np.array([10.0, 40.0])
    dW = _noise_matrix(4, 2, 0.01, 100) if scheme.is_stochastic else None
    with pytest.warns(RuntimeWarning), pytest.raises(IntegrationError) as alone:
        run_batch(scheme, P_HUGE, np.full(2, HUGE), np.full(2, HUGE), 1.0, 0.01, dW)
    huge_row = np.full((1, 2), HUGE)
    with pytest.warns(RuntimeWarning):
        stacked = run_batch(scheme, [P_HUGE] * 3,
                            np.concatenate([[u0], huge_row, [u0]]),
                            np.concatenate([[v0], huge_row, [v0]]), 1.0, 0.01, dW)
    assert stacked.errors == (None, str(alone.value), None)
    _assert_rows_match_runs_alone(stacked, (0, 2),
                                  run_batch(scheme, P_HUGE, u0, v0, 1.0, 0.01, dW))


def _numpy_warnings(run):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        run()
    return [str(w.message) for w in caught]


def test_failed_row_is_frozen_and_warns_no_more():
    # from (1e200, 1e200) with dB > 0 the first Euler-Maruyama step lands
    # on (-inf, +inf) and warns; left running, the row would go on from
    # (0, +inf) to 0 * inf and warn at every step
    def run(n_steps):
        return lambda: run_batch(Scheme.EULER_MARUYAMA, [P_FIG1, P_HUGE],
                                 np.array([[50.0, 1.0], [HUGE, 1.0]]),
                                 np.array([[10.0, 1.0], [HUGE, 1.0]]), n_steps * 0.01,
                                 0.01, np.full((2, n_steps), 0.1))

    first = _numpy_warnings(run(1))
    assert first and _numpy_warnings(run(100)) == first
    # an RK4 row that went negative would overflow a few steps later
    bad = ModelParams(r=1.0, K=100.0, m=5.0, d=0.2, sigma=0.09)
    assert _numpy_warnings(lambda: run_batch(
        Scheme.RK4, [P_FIG1, bad], np.full((2, 2), 50.0), np.full((2, 2), 10.0),
        10.0, 0.5, None)) == []


def test_simulate_raises_when_the_state_goes_non_finite():
    # Python floats overflow to inf and NaN without a warning
    path = generate(1, 0, 0.01, 100)
    with pytest.raises(IntegrationError) as exc:
        simulate(Scheme.MILSTEIN, P_HUGE, State(HUGE, HUGE), 1.0, 0.01, path=path)
    assert str(exc.value).startswith("at t=0.0: state went non-finite (")
    with pytest.raises(IntegrationError) as exc:
        simulate(Scheme.RK4, P_HUGE, State(HUGE, HUGE), 1.0, 0.01)
    assert str(exc.value).startswith("at t=0.0: RK4 step from")


def test_a_plus_inf_on_the_last_step_fails_the_run():
    with pytest.raises(IntegrationError) as exc:
        simulate(Scheme.EULER_MARUYAMA, P_OVERFLOW, State(1e308, 0.0), 0.01, 0.01,
                 path=generate(1, 0, 0.01, 1))
    assert str(exc.value) == "at t=0.0: state went non-finite (inf); reduce the step size"
    for n_steps, t in ((1, 0.0), (2, 0.01)):  # one step: +inf; two: NaN
        with pytest.warns(RuntimeWarning), pytest.raises(IntegrationError) as exc:
            run_batch(Scheme.EULER_MARUYAMA, P_OVERFLOW, np.array([1e308]), np.zeros(1),
                      n_steps * 0.01, 0.01, np.zeros((1, n_steps)))
        assert str(exc.value) == f"path 0: state went non-finite at t={t}; reduce the step size"
    with pytest.warns(RuntimeWarning), pytest.raises(IntegrationError):
        _coupled_terminals(Scheme.EULER_MARUYAMA, P_OVERFLOW, np.array([1e308]),
                           np.zeros(1), 0.01, np.zeros((1, 1)), 1, 0)


_BIG_X0 = st.tuples(st.floats(0.0, 100.0) | st.sampled_from([1e150, HUGE, 1e308]),
                    st.floats(0.0, 100.0) | st.sampled_from([1e150, HUGE, 1e308]))


@settings(max_examples=60,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(scheme=st.sampled_from(list(Scheme)),
       cells=st.lists(_PARAMS, min_size=1, max_size=3),
       x0s=st.lists(_BIG_X0, min_size=1, max_size=3),
       dt=st.sampled_from([0.01, 0.25, 1.0]),
       stride=st.integers(1, 4), n_rows=st.integers(1, 6),
       seed=st.integers(0, 2**64 - 1), step_cap=st.sampled_from([1, 3, 4096]))
def test_only_failed_rows_leave_the_quadrant(monkeypatch, scheme, cells, x0s, dt,
                                             stride, n_rows, seed, step_cap):
    n_steps = stride * n_rows
    u0 = np.tile([x0[0] for x0 in x0s], (len(cells), 1))
    v0 = np.tile([x0[1] for x0 in x0s], (len(cells), 1))
    dW = None
    if scheme.is_stochastic:
        dW = _noise_matrix(seed, len(x0s), dt, n_steps)
    with np.errstate(all="ignore"):
        every_step = run_batch(scheme, cells, u0, v0, n_steps * dt, dt, dW)
        monkeypatch.setattr(brownian, "_BLOCK_STEPS", step_cap)
        thin = run_batch(scheme, cells, u0, v0, n_steps * dt, dt,
                         None if dW is None else NoiseStream(seed, len(x0s), dt, n_steps),
                         record_stride=stride)
    # the record of failures depends on neither the stride nor the blocks
    assert thin.errors == every_step.errors
    for c, (cell, error) in enumerate(zip(cells, every_step.errors)):
        if error is None:
            for states in (every_step.U[c], every_step.V[c]):
                assert np.all(np.isfinite(states)) and np.all(states >= 0.0)
        # a row fails at the step where its first path fails when run alone
        # on Python floats
        failures = []
        for i, x0 in enumerate(x0s):
            try:
                simulate(scheme, cell, State(*x0), n_steps * dt, dt,
                         path=None if dW is None else generate(seed, i, dt, n_steps))
            except IntegrationError as exc:
                failures.append(float(re.match(r"at t=([^:]+):", str(exc))[1]))
        if error is None:
            assert failures == []
        else:
            assert float(re.search(r" at t=([^ ;]+)", error)[1]) == min(failures)
