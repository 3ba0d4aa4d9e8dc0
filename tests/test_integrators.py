import io
import itertools
import math
import re
import sys
import tracemalloc
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
    drift,
    generate,
    run_batch,
    simulate,
    step_em,
    step_milstein,
)
from jobmarket import brownian, integrators
from jobmarket.brownian import NoiseStream
from jobmarket.integrators import (_STOCHASTIC_NEXT, _clamp_array, _coupled_terminals,
                                  _em_next, _milstein_corr, _milstein_next,
                                  _stack_params, _stochastic_next)

import updates

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

def _rk4_step(s, dt, p):
    return simulate(Scheme.RK4, p, s, dt, dt).terminal


def test_rk4_fixed_points():
    assert _rk4_step(State(100.0, 0.0), 0.1, P_FIG2) == (100.0, 0.0)
    assert _rk4_step(State(0.0, 0.0), 0.1, P_FIG2) == (0.0, 0.0)
    s = _rk4_step(State(2.0, 9.8), 0.01, P_FIG2)
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
        _rk4_step(State(30.0, 0.0), 1.0, p)


def test_simulate_rk4_failure_names_its_time():
    p = ModelParams(2.0, 10.0, 0.1, 0.2, 0.0)
    with pytest.raises(IntegrationError) as exc:
        simulate(Scheme.RK4, p, State(30.0, 0.0), 2.0, 1.0)
    assert str(exc.value).startswith("at t=0.0: RK4 step from")


@pytest.mark.parametrize("step", [lambda s, dt: step_em(s, dt, 0.01, P_FIG2),
                                  lambda s, dt: step_milstein(s, dt, 0.01, P_FIG2)],
                         ids=["em", "milstein"])
@pytest.mark.parametrize("dt", [0.0, -0.01, math.nan, math.inf, True, 10**400],
                         ids=["zero", "negative", "nan", "inf", "bool", "past_double"])
def test_public_steps_reject_a_dt_that_is_not_positive_finite(step, dt):
    with pytest.raises(ParameterError):
        step(State(1.0, 1.0), dt)


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


def test_half_sigma_sq_is_read_only_and_stacked_with_the_same_bits():
    ps = (P_FIG1, ModelParams(1.0, 100.0, 0.1, 0.2, 0.3), ModelParams(1.0, 1.0, 1.0, 1.0, 0.0))
    for p in ps:
        assert p.half_sigma_sq == 0.5 * p.sigma * p.sigma
        with pytest.raises(AttributeError):
            p.half_sigma_sq = 1.0
    # lane-shaped: row c of every constant holds ps[c]'s own value on each of
    # the n_paths lanes, so a step's ufuncs meet same-shape operands
    stacked = _stack_params(ps, 4)
    for name in ("r", "K", "m", "d", "sigma", "half_sigma_sq"):
        column = getattr(stacked, name)
        assert column.shape == (3, 4) and column.flags.c_contiguous, name
        assert column.tobytes() == np.array([[getattr(p, name)] * 4 for p in ps]).tobytes()
    assert (stacked.half_sigma_sq.tobytes()
            == (0.5 * stacked.sigma * stacked.sigma).tobytes())


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
    # a bool, or an int beyond every double, is neither a horizon nor a dt
    for horizon, dt in ((3, True), (True, 0.5), (10**400, 1), (3, 10**400)):
        with pytest.raises(ParameterError):
            simulate(Scheme.RK4, P_FIG2, State(1, 1), horizon, dt)


def test_simulate_grid_and_recording():
    path = generate(3, 0, 0.01, 200)
    traj = simulate(Scheme.MILSTEIN, P_FIG1, State(50.0, 10.0), 2.0, 0.01, path=path)
    assert len(traj.times) == 201
    assert traj.times[0] == 0.0
    assert traj.times[-1] == pytest.approx(2.0, rel=1e-15)
    steps = np.diff(traj.times)
    assert np.allclose(steps, 0.01, rtol=1e-12)
    assert (traj.u[0], traj.v[0]) == (50.0, 10.0)
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
    assert thin.integral_v == full.integral_v
    assert thin.max_total == full.max_total
    assert thin.clamp_count == full.clamp_count


def test_simulate_reads_its_path_without_copying_it():
    # fig2 over 2*10^5 steps, recording only the ends: a list of the path's
    # floats would hold 2*10^5 Python objects, about 6.4 MB
    n_steps = 2 * 10**5
    path = generate(3, 0, 0.01, n_steps)
    tracemalloc.start()
    try:
        traj = simulate(Scheme.MILSTEIN, P_FIG2, State(50.0, 10.0), n_steps * 0.01,
                        0.01, path=path, record_stride=n_steps)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(traj.times) == 2
    assert peak < 1e6


def test_clamp_events_are_logged():
    # strong noise on the extinction scenario forces Euler-Maruyama below zero
    path = generate(20240101, 13, 0.01, 2000)
    traj = simulate(Scheme.EULER_MARUYAMA, P_FIG1, State(50.0, 10.0), 20.0,
                    0.01, path=path)
    assert traj.clamp_count > 0
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
    assert len(lines) == len(traj.times) + 1
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
        assert batch.integral_v[i] == traj.integral_v
        assert batch.max_total[i] == traj.max_total


def test_batch_validates_shapes():
    with pytest.raises(ParameterError):
        run_batch(Scheme.MILSTEIN, P_FIG1, np.array([1.0]), np.array([1.0]),
                  1.0, 0.01, np.zeros((1, 10)))  # too few increments
    with pytest.raises(ParameterError):
        run_batch(Scheme.MILSTEIN, P_FIG1, np.array([1.0]), np.array([1.0]),
                  1.0, 0.01, None)  # no noise
    for dW in (NoiseStream(1, 1, 0.01, 100), np.zeros((0, 100))):  # no lanes
        with pytest.raises(ParameterError):
            run_batch(Scheme.MILSTEIN, P_FIG1, np.zeros(0), np.zeros(0), 1.0, 0.01, dW)
    with pytest.raises(ParameterError):  # a bool is neither a horizon nor a dt
        run_batch(Scheme.MILSTEIN, P_FIG1, np.ones(2), np.ones(2), True, True,
                  np.zeros((2, 1)))


# ---------------------------------------------------------------------------
# multi-cell batches: each row is bit-identical to a run of its cell alone

P_NOISY = ModelParams(r=1.0, K=100.0, m=0.1, d=0.2, sigma=0.5)  # clamps


@pytest.mark.parametrize("scheme", [Scheme.EULER_MARUYAMA, Scheme.MILSTEIN])
def test_multi_cell_rows_match_single_cell_runs(scheme):
    cells = (P_FIG1, P_FIG2, P_NOISY)
    n_paths, horizon, dt = 5, 2.0, 0.01
    n_steps = round(horizon / dt)
    dW = np.stack([generate(3, i, dt, n_steps).increments for i in range(n_paths)])
    u0 = np.linspace(1.0, 60.0, n_paths)
    v0 = np.linspace(12.0, 0.5, n_paths)
    batch = run_batch(scheme, list(cells), np.tile(u0, (3, 1)),
                      np.tile(v0, (3, 1)), horizon, dt, dW, record_stride=10)
    assert batch.U.shape == (3, n_paths, n_steps // 10 + 1)
    assert batch.n_paths == 3 * n_paths
    assert batch.clamp_counts.sum() > 0
    for c, p in enumerate(cells):
        alone = run_batch(scheme, p, u0, v0, horizon, dt, dW, record_stride=10)
        assert batch.params[c] is p
        assert np.array_equal(batch.times, alone.times)
        for name in ("U", "V", "clamped", "clamp_counts", "integral_v", "max_total"):
            assert getattr(batch, name)[c].tobytes() == \
                getattr(alone, name).tobytes(), name


_BATCH_FIELDS = ("U", "V", "clamped", "clamp_counts", "integral_v", "max_total")


def _assert_rows_match_runs_alone(stacked, rows, alone):
    for c in rows:
        assert stacked.errors[c:c + 1] == alone.errors == (None,)
        for name in _BATCH_FIELDS:
            assert getattr(stacked, name)[c].tobytes() == \
                getattr(alone, name).tobytes(), name


_U_NORMAL = [[50.0, 30.0, 5.0, 80.0], [5.0, 3.0, 8.0, 2.0], [1.0, 2.0, 3.0, 4.0]]
_V_NORMAL = [[10.0, 12.0, 3.0, 1.0], [10.0, 12.0, 3.0, 1.0], [2.0, 3.0, 1.0, 2.0]]
# (u0, v0, the clamp tiers the run takes) of cells (P_FIG2, P_FIG1, P_NOISY):
# 1, no pass; 2, the in-place flush; 3, the full pass
_TIER_STARTS = {
    # every lane normal, until two of P_NOISY's v lanes step materially
    # below zero, clamp and stay at exact 0
    "reaches_zero": (_U_NORMAL, _V_NORMAL, {1, 2, 3}),
    # lanes at exact +0 and -0 from the start
    "zero": ([[50.0, 30.0, 5.0, 0.0], *_U_NORMAL[1:]],
             [[10.0, 0.0, -0.0, 0.0], *_V_NORMAL[1:]], {2, 3}),
    # subnormal u and v lanes (5e-324 and 1e-310), flushed on the first step
    "subnormal": ([[50.0, 30.0, 5e-324, 80.0], *_U_NORMAL[1:]],
                  [[10.0, 5e-324, 3.0, 1e-310], *_V_NORMAL[1:]], {2, 3}),
}


def _clamp_tier(x):
    lo = np.min(x)
    return 1 if lo >= _TINY else 2 if lo > -_TINY else 3


@pytest.mark.parametrize("scheme", [Scheme.EULER_MARUYAMA, Scheme.MILSTEIN])
@pytest.mark.parametrize("start", sorted(_TIER_STARTS))
def test_multi_cell_rows_match_single_cell_runs_in_every_clamp_tier(monkeypatch,
                                                                    scheme, start):
    # the flush tier writes into the update's result: a row that flushes
    # must keep the bits of its run alone, and so must the rows beside it
    tiers = set()
    clamp = integrators._clamp_array

    def spy(x):
        tiers.add(_clamp_tier(x))
        return clamp(x)

    monkeypatch.setattr(integrators, "_clamp_array", spy)
    u0, v0, taken = _TIER_STARTS[start]
    u0, v0 = np.array(u0), np.array(v0)
    cells = (P_FIG2, P_FIG1, P_NOISY)
    horizon, dt = 2.0, 0.01
    dW = _noise_matrix(3, u0.shape[1], dt, round(horizon / dt))
    stacked = run_batch(scheme, list(cells), u0, v0, horizon, dt, dW, record_stride=10)
    assert tiers == taken
    assert stacked.clamp_counts[2].sum() == 2 and stacked.V[2, :, -1].min() == 0.0
    for c, p in enumerate(cells):
        _assert_rows_match_runs_alone(stacked, (c,), run_batch(
            scheme, p, u0[c], v0[c], horizon, dt, dW, record_stride=10))


def test_multi_cell_failure_names_its_cell():
    # from (1e154, 1e154) the flux m*u*v overflows on the first step at
    # m = 5.0, not at m = 0.01; with no noise, the m = 0.01 step zeroes u
    ok = ModelParams(r=1.0, K=100.0, m=0.01, d=0.2, sigma=0.09)
    bad = ModelParams(r=1.0, K=100.0, m=5.0, d=0.2, sigma=0.09)
    u0 = v0 = np.full(2, 1e154)
    dW = np.zeros((2, 20))
    with pytest.warns(RuntimeWarning), pytest.raises(IntegrationError) as alone:
        run_batch(Scheme.MILSTEIN, bad, u0, v0, 10.0, 0.5, dW)
    with pytest.warns(RuntimeWarning):
        stacked = run_batch(Scheme.MILSTEIN, [ok, bad, ok], np.tile(u0, (3, 1)),
                            np.tile(v0, (3, 1)), 10.0, 0.5, dW)
    assert stacked.errors == (None, str(alone.value), None)
    _assert_rows_match_runs_alone(stacked, (0, 2),
                                  run_batch(Scheme.MILSTEIN, ok, u0, v0, 10.0, 0.5, dW))


def test_multi_cell_validates_shapes():
    dW = np.zeros((2, 100))
    with pytest.raises(ParameterError):  # one row per params set
        run_batch(Scheme.MILSTEIN, [P_FIG1, P_FIG2], np.ones((3, 2)),
                  np.ones((3, 2)), 1.0, 0.01, dW)
    with pytest.raises(ParameterError):  # a single params set takes 1-D lanes
        run_batch(Scheme.MILSTEIN, P_FIG1, np.ones((1, 2)), np.ones((1, 2)),
                  1.0, 0.01, dW)
    with pytest.raises(ParameterError):  # an empty sequence of params
        run_batch(Scheme.MILSTEIN, [], np.empty((0, 3)), np.empty((0, 3)), 1.0,
                  0.1, NoiseStream(1, 3, 0.1, 10))


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
    for name in ("times", "U", "V", "clamped", "clamp_counts",
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
    with pytest.raises(ParameterError):  # neither a NoiseStream nor an array
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


@pytest.mark.parametrize("n_paths,dt,n_steps", [
    (512, 0.02, 4096),  # another dt: sigma scaled by sqrt(2)
    (513, 0.01, 4096),  # one path too wide
    (512, 0.01, 4095),  # one step short
], ids=["dt", "wide", "short"])
def test_run_batch_rejects_a_mismatched_stream_before_it_forks(forks, n_paths, dt,
                                                              n_steps):
    def run(stream):
        return run_batch(Scheme.MILSTEIN, P_FIG1, np.full(512, 50.0),
                         np.full(512, 10.0), 40.96, 0.01, stream, record_stride=4096)

    with pytest.raises(ParameterError):
        run(NoiseStream(1, n_paths, dt, n_steps))
    assert forks == []
    # the stream that fits forks its producer, and a longer one is accepted
    run(NoiseStream(1, 512, 0.01, 4097))
    assert len(forks) == 1


@pytest.mark.parametrize("rel,fits", [(1e-11, False), (1e-13, True)])
def test_both_entries_take_a_noise_dt_off_by_rounding_only(rel, fits):
    # simulate's path and run_batch's stream meet one rule: the noise's dt
    # is the run's to within 1e-12 relative
    dt = 0.01
    path = generate(3, 0, dt * (1 + rel), 100)
    stream = NoiseStream(3, 2, dt * (1 + rel), 100)
    runs = [lambda: simulate(Scheme.MILSTEIN, P_FIG2, State(1.0, 1.0), 1.0, dt,
                             path=path),
            lambda: run_batch(Scheme.MILSTEIN, P_FIG2, np.ones(2), np.ones(2), 1.0,
                              dt, stream)]
    for run in runs:
        if fits:
            run()
        else:
            with pytest.raises(ParameterError, match="does not fit"):
                run()


# ---------------------------------------------------------------------------
# the shared time loop against a plain reference loop over the step functions

def _reference_path(scheme, p, x0, dt, n_steps, stride, increments):
    """One path stepped by the public step functions in a loop of its own:
    recorded rows, row flags, clamp count, trapezoid integral and running max."""
    u, v = x0
    rows_u, rows_v, flags, clamps = [u], [v], [False], 0
    integral_v = 0.0
    max_total = u + v
    flagged = False
    stepper = step_em if scheme is Scheme.EULER_MARUYAMA else step_milstein
    for k in range(1, n_steps + 1):
        (un, vn), clamped = stepper(State(u, v), dt, float(increments[k - 1]), p)
        if clamped:
            clamps += 1
            flagged = True
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
                           u=rows_u, v=rows_v, clamped=flags, clamps=clamps,
                           integral_v=integral_v,
                           max_total=max_total)


def _bits(x, dtype=float):
    return np.asarray(x, dtype=dtype).tobytes()


def _assert_matches(ref, times, u, v, clamped, clamp_count, integral_v, max_total):
    assert _bits(times) == _bits(ref.times)
    assert _bits(u) == _bits(ref.u)
    assert _bits(v) == _bits(ref.v)
    assert _bits(clamped, bool) == _bits(ref.clamped, bool)
    assert clamp_count == ref.clamps
    assert _bits(integral_v) == _bits(ref.integral_v)
    assert _bits(max_total) == _bits(ref.max_total)


_PARAMS = st.builds(ModelParams, r=st.floats(0.1, 2.0), K=st.floats(10.0, 200.0),
                    m=st.floats(0.001, 0.5), d=st.floats(0.05, 1.0),
                    sigma=st.sampled_from([0.0, 0.001, 0.09, 0.5]))  # 0.5 clamps
_X0 = st.tuples(st.floats(0.0, 100.0), st.floats(0.0, 100.0))


@settings(max_examples=80,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(scheme=st.sampled_from([Scheme.EULER_MARUYAMA, Scheme.MILSTEIN]),
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
    paths = [generate(seed, i, dt, n_steps) for i in range(n_paths)]
    p = cells[0]
    u0 = np.array([x0[0] for x0 in x0s])
    v0 = np.array([x0[1] for x0 in x0s])
    if len(cells) > 1:
        p, u0, v0 = cells, np.tile(u0, (len(cells), 1)), np.tile(v0, (len(cells), 1))
    matrix = np.stack([path.increments for path in paths])
    dW = NoiseStream(seed, n_paths, dt, n_steps) if stream else matrix

    # from x0 in [0, 100]^2 no path goes non-finite: a clamp zeroes u or v
    # before both are large, and each is absorbing
    refs = []
    for c, cell in enumerate(cells):
        for i, (x0, path) in enumerate(zip(x0s, paths)):
            ref = _reference_path(scheme, cell, x0, dt, n_steps, stride, path.increments)
            traj = simulate(scheme, cell, State(*x0), horizon, dt, path=path,
                            record_stride=stride)
            _assert_matches(ref, traj.times, traj.u, traj.v, traj.clamped,
                            traj.clamp_count, traj.integral_v, traj.max_total)
            # clamp count, integral and running max do not depend on the stride
            full = simulate(scheme, cell, State(*x0), horizon, dt, path=path)
            assert full.clamp_count == traj.clamp_count
            assert _bits([full.integral_v, full.max_total]) == \
                _bits([traj.integral_v, traj.max_total])
            refs.append(((c, i) if len(cells) > 1 else (i,), ref))

    batch = run_batch(scheme, p, u0, v0, horizon, dt, dW, record_stride=stride)
    full = run_batch(scheme, p, u0, v0, horizon, dt, matrix)
    assert batch.errors == full.errors == (None,) * len(cells)
    for lane, ref in refs:
        _assert_matches(ref, batch.times, batch.U[lane], batch.V[lane],
                        batch.clamped[lane], batch.clamp_counts[lane],
                        batch.integral_v[lane], batch.max_total[lane])
        for name in ("clamp_counts", "integral_v", "max_total"):
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
@example(x=np.array([5e-324, -0.0, 1.0]))  # the flush tier: both become +0.0
@given(x=_LANES)
def test_clamp_array_tiers_match_the_full_pass(x):
    before = x.copy()  # the flush tier writes into x
    out, events, failed = _clamp_array(x)
    assert _bits(out) == _bits(np.where(before >= _TINY, before, 0.0))
    _assert_events(events, (before <= -_TINY) & ~_non_finite(before))
    _assert_events(failed, _non_finite(before))
    lo = np.min(before)  # NaN when any lane is NaN
    if lo >= _TINY:  # no pass: x itself, unchanged
        assert out is x and _bits(x) == _bits(before)
    elif lo > -_TINY:  # the flush: x itself, flushed in place
        assert out is x
    else:  # the full pass: a new array, and x as it was
        assert out is not x and _bits(x) == _bits(before)


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
        un, vn, events, failed = _stochastic_next(_STOCHASTIC_NEXT[scheme], u, v, dt,
                                                  dB, p)
        next_ = _em_next if scheme is Scheme.EULER_MARUYAMA else _milstein_next
        ref_u, ref_v = next_(u, v, dt, dB, p)
    # each component clamps as the full pass would; the events and the
    # failures are their unions
    assert _bits(un) == _bits(np.where(ref_u >= _TINY, ref_u, 0.0))
    assert _bits(vn) == _bits(np.where(ref_v >= _TINY, ref_v, 0.0))
    _assert_events(events, ((ref_u <= -_TINY) & ~_non_finite(ref_u))
                   | ((ref_v <= -_TINY) & ~_non_finite(ref_v)))
    _assert_events(failed, _non_finite(ref_u) | _non_finite(ref_v))


_BALANCE_PARAMS = st.builds(ModelParams, r=st.floats(0.05, 2.0), K=st.floats(10.0, 200.0),
                            m=st.floats(1e-4, 0.5), d=st.floats(0.05, 1.0),
                            sigma=st.floats(0.0, 0.5))


@given(scheme=st.sampled_from([Scheme.EULER_MARUYAMA, Scheme.MILSTEIN]),
       cells=st.lists(_BALANCE_PARAMS, min_size=1, max_size=3), stacked=st.booleans(),
       n_paths=st.integers(1, 6), dt=st.floats(1e-4, 0.05), data=st.data())
def test_stochastic_next_cancels_noise_from_the_total_on_every_free_lane(
        scheme, cells, stacked, n_paths, dt, data):
    # the lane-array form of test_stochastic_updates_cancel_noise_from_the_total,
    # on 1-D lanes and on (cells, n_paths) lanes under stacked params
    coeffs, shape = cells[0], (n_paths,)
    if stacked:
        coeffs, shape = _stack_params(tuple(cells), n_paths), (len(cells), n_paths)
    u = data.draw(arrays(float, shape, elements=st.floats(0.0, 200.0)), label="u")
    v = data.draw(arrays(float, shape, elements=st.floats(0.0, 200.0)), label="v")
    dB = data.draw(arrays(float, (n_paths,), elements=st.floats(-1.0, 1.0)), label="dB")
    un, vn, _, _ = _stochastic_next(_STOCHASTIC_NEXT[scheme], u, v, dt, dB, coeffs)
    next_ = _em_next if scheme is Scheme.EULER_MARUYAMA else _milstein_next
    raw_u, raw_v = next_(u, v, dt, dB, coeffs)
    # the lanes that neither clamp, flush nor fail: the step leaves them as computed
    free = (raw_u >= _TINY) & (raw_v >= _TINY) & np.isfinite(raw_u) & np.isfinite(raw_v)
    assert _bits(un[free]) == _bits(raw_u[free]) and _bits(vn[free]) == _bits(raw_v[free])
    coupling = coeffs.m * u * v
    du = coeffs.r * u * (1.0 - u / coeffs.K) - coupling
    dv = coupling - coeffs.d * v
    noise = coeffs.sigma * u * v * dB
    balance = dt * (coeffs.r * u * (1.0 - u / coeffs.K) - coeffs.d * v)
    scale = np.maximum.reduce([u, v, un, vn, np.abs(noise), np.abs(du) * dt,
                               np.abs(dv) * dt, u + v, np.abs(balance)])
    error = np.abs((un + vn) - (u + v) - balance)
    assert np.all(error[free] <= 4.0 * np.spacing(scale[free]))


# ---------------------------------------------------------------------------
# the updates write only into arrays they made themselves

_UPDATES = {  # each update and its out-of-place reference
    "drift": (lambda u, v, dt, dB, p: drift((u, v), p),
              lambda u, v, dt, dB, p: updates.drift((u, v), p)),
    "euler_maruyama": (_em_next, updates.em_next),
    "milstein": (_milstein_next, updates.milstein_next),
}


def _update_inputs(layout, data):
    """(u, v, dt, dB, coefficients, block) in one of the layouts the engines
    step: Python floats (simulate); 1-D lanes (run_batch); (cells, n) lanes
    under stacked params with one increment row for every cell (a sweep);
    (levels, n) lanes with a dt column and a row of increments per level
    (_coupled_terminals). dB is a row of block, as the engine's noise rows
    are rows of a block."""
    cells = data.draw(st.lists(_BALANCE_PARAMS, min_size=1, max_size=3), label="cells")
    dt = data.draw(st.sampled_from([0.01, 0.5, 2.0 ** -11]), label="dt")
    if layout == "floats":
        u, v, dB = (data.draw(_VALUES, label=name) for name in ("u", "v", "dB"))
        return u, v, dt, dB, cells[0], None
    n = data.draw(st.integers(1, 6), label="n")
    coeffs, lanes, rows = cells[0], (n,), (n,)
    if layout == "cells":
        coeffs, lanes = _stack_params(tuple(cells), n), (len(cells), n)
    elif layout == "levels":
        lanes = rows = (len(cells), n)
        dt = np.array([[dt * 2 ** level] for level in range(len(cells))])
    u, v = (data.draw(arrays(float, lanes, elements=_VALUES), label=name)
            for name in ("u", "v"))
    block = data.draw(arrays(float, (3,) + rows, elements=_VALUES), label="block")
    return u, v, dt, block[1], coeffs, block


def _one_nan(x):
    """x with every NaN as np.nan. Which operand's NaN numpy's add returns
    depends on the array's length and on whether it writes in place (a
    1-lane a + b and a += b differ), so a NaN's sign and payload are not
    part of the updates' bits; a NaN lane fails its run either way."""
    return np.where(np.isnan(x), np.nan, x)


@settings(max_examples=300)
@given(layout=st.sampled_from(["floats", "lanes", "cells", "levels"]),
       update=st.sampled_from(sorted(_UPDATES)), data=st.data())
def test_updates_equal_the_out_of_place_reference_and_keep_their_inputs(layout, update,
                                                                        data):
    u, v, dt, dB, coeffs, block = _update_inputs(layout, data)
    # one ModelParams' constants, or _stack_params' lane-shaped arrays of them
    constants = [getattr(coeffs, name) for name in (*ModelParams.__slots__, "half_sigma_sq")]
    inputs = [x for x in (u, v, dt, dB, block, *constants) if x is not None]
    before = [_bits(x) for x in inputs]
    step, reference = _UPDATES[update]
    with np.errstate(all="ignore"):
        got = step(u, v, dt, dB, coeffs)
        want = reference(u, v, dt, dB, coeffs)
    for g, w in zip(got, want):
        assert type(g) is type(w) and np.shape(g) == np.shape(w)
        assert _bits(_one_nan(g)) == _bits(_one_nan(w))
    assert [_bits(x) for x in inputs] == before


# ---------------------------------------------------------------------------
# outputs: a run keeps only the accumulators its caller reads

_ACCUMULATORS = ("integral_v", "max_total")


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
    for r in range(len(_ACCUMULATORS) + 1):
        for kept in itertools.combinations(_ACCUMULATORS, r):
            part = run_batch(scheme, p, u0, v0, horizon, dt, dW, record_stride=10,
                             outputs=set(kept))
            # the whole arrays' bytes, so every cell's row too
            for name in ("times", "U", "V", "clamped", "clamp_counts", *kept):
                assert getattr(part, name).tobytes() == \
                    getattr(full, name).tobytes(), (kept, name)
            for name in set(_ACCUMULATORS) - set(kept):
                assert getattr(part, name) is None, (kept, name)


@pytest.mark.parametrize("scheme", list(Scheme))
def test_simulate_outputs_drop_only_the_fields_left_out(scheme):
    horizon, dt = 2.0, 0.01
    path = generate(5, 1, dt, round(horizon / dt)) if scheme.is_stochastic else None
    full = simulate(scheme, P_NOISY, State(1.0, 12.0), horizon, dt, path=path,
                    record_stride=10)
    assert full.clamp_count > 0 or not scheme.is_stochastic
    for r in range(len(_ACCUMULATORS) + 1):
        for kept in itertools.combinations(_ACCUMULATORS, r):
            part = simulate(scheme, P_NOISY, State(1.0, 12.0), horizon, dt, path=path,
                            record_stride=10, outputs=set(kept))
            for name in ("times", "u", "v", "clamped", "clamp_count", *kept):
                assert _bits(getattr(part, name), None) == \
                    _bits(getattr(full, name), None), (kept, name)
            for name in set(_ACCUMULATORS) - set(kept):
                assert getattr(part, name) is None, (kept, name)


class _KeptRows:
    """A recorder that keeps a copy of every row it is handed."""

    def open(self, lanes, n_rows):
        self.opened, self.rows = (lanes, n_rows), []

    def put(self, u, v, clamped):
        self.rows.append(tuple(np.array(x, copy=True) for x in (u, v, clamped)))


@pytest.mark.parametrize("scheme", [Scheme.EULER_MARUYAMA, Scheme.MILSTEIN])
@pytest.mark.parametrize("cells", [(P_NOISY,), (P_FIG1, P_NOISY, P_FIG2)])
def test_a_recorder_takes_every_row_in_place_of_the_records(scheme, cells):
    n_paths, horizon, dt = 4, 2.0, 0.01
    u0 = np.linspace(1.0, 60.0, n_paths)
    v0 = np.linspace(12.0, 0.5, n_paths)
    p = cells[0] if len(cells) == 1 else list(cells)
    if len(cells) > 1:
        u0, v0 = np.tile(u0, (len(cells), 1)), np.tile(v0, (len(cells), 1))
    dW = _noise_matrix(5, n_paths, dt, round(horizon / dt))
    full = run_batch(scheme, p, u0, v0, horizon, dt, dW, record_stride=10)
    recorder = _KeptRows()
    taken = run_batch(scheme, p, u0, v0, horizon, dt, dW, record_stride=10,
                      recorder=recorder)
    assert taken.U is None and taken.V is None and taken.clamped is None
    assert recorder.opened == (u0.shape, len(full.times))
    # row i of the recorder is column i of the records, row 0 included
    for i, row in enumerate(recorder.rows):
        for x, records in zip(row, (full.U, full.V, full.clamped)):
            assert x.tobytes() == np.ascontiguousarray(records[..., i]).tobytes(), i
    assert len(recorder.rows) == len(full.times)
    for name in ("times", "clamp_counts", *_ACCUMULATORS):
        assert getattr(taken, name).tobytes() == getattr(full, name).tobytes(), name
    assert full.clamped[..., 1:].any()


def test_outputs_rejects_an_unknown_name():
    with pytest.raises(ParameterError, match="integral_w"):
        run_batch(Scheme.MILSTEIN, P_FIG1, np.ones(2), np.ones(2), 1.0, 0.01,
                  _noise_matrix(1, 2, 0.01, 100), outputs={"integral_w"})
    with pytest.raises(ParameterError, match="integral_w"):
        simulate(Scheme.RK4, P_FIG1, State(1.0, 1.0), 1.0, 0.01, outputs={"integral_w"})


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
])
def test_non_finite_lane_fails_a_single_cell_run(scheme, message):
    dW = np.zeros((2, 100))
    with pytest.warns(RuntimeWarning), pytest.raises(IntegrationError) as exc:
        run_batch(scheme, P_HUGE, np.array([HUGE, 1.0]), np.array([HUGE, 1.0]),
                  1.0, 0.01, dW)
    assert str(exc.value) == message


@pytest.mark.parametrize("scheme", [Scheme.EULER_MARUYAMA, Scheme.MILSTEIN])
def test_non_finite_row_is_recorded_and_the_others_run_on(scheme):
    u0, v0 = np.array([50.0, 3.0]), np.array([10.0, 40.0])
    dW = _noise_matrix(4, 2, 0.01, 100)
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
    # a multi-cell run fails the row before the last row is recorded, so the
    # record ends where the row is parked, as after a failure at any step
    with pytest.warns(RuntimeWarning):
        batch = run_batch(Scheme.EULER_MARUYAMA, [P_FIG1, P_OVERFLOW],
                          np.array([[50.0], [1e308]]), np.array([[10.0], [0.0]]),
                          0.01, 0.01, np.zeros((1, 1)))
    assert batch.errors == (None, "path 0: state went non-finite at t=0.0; "
                                  "reduce the step size")
    assert batch.U[1, 0, -1] == batch.V[1, 0, -1] == 0.0
    with pytest.warns(RuntimeWarning), pytest.raises(IntegrationError):
        _coupled_terminals(Scheme.EULER_MARUYAMA, P_OVERFLOW, np.array([1e308]),
                           np.zeros(1), 0.01, np.zeros((1, 1)), 1, 0)


_BIG_X0 = st.tuples(st.floats(0.0, 100.0) | st.sampled_from([1e150, HUGE, 1e308]),
                    st.floats(0.0, 100.0) | st.sampled_from([1e150, HUGE, 1e308]))


@settings(max_examples=60,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(scheme=st.sampled_from([Scheme.EULER_MARUYAMA, Scheme.MILSTEIN]),
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
    dW = _noise_matrix(seed, len(x0s), dt, n_steps)
    with np.errstate(all="ignore"):
        every_step = run_batch(scheme, cells, u0, v0, n_steps * dt, dt, dW)
        monkeypatch.setattr(brownian, "_BLOCK_STEPS", step_cap)
        thin = run_batch(scheme, cells, u0, v0, n_steps * dt, dt,
                         NoiseStream(seed, len(x0s), dt, n_steps), record_stride=stride)
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
                         path=generate(seed, i, dt, n_steps))
            except IntegrationError as exc:
                failures.append(float(re.match(r"at t=([^:]+):", str(exc))[1]))
        if error is None:
            assert failures == []
        else:
            assert float(re.search(r" at t=([^ ;]+)", error)[1]) == min(failures)


# ---------------------------------------------------------------------------
# settled lanes: a stream-driven run that skips its frozen lanes has the
# bits of the plain step on the row-major matrix of the same increments

# "K" starts a frozen lane at (K, 0), and "K, -0.0" a lane at (K, -0.0),
# whose first step writes v = +0.0
_AT_K = {"K": 0.0, "K, -0.0": -0.0}
_SETTLING_X0 = (st.tuples(st.floats(0.0, 100.0),
                          st.floats(0.0, 100.0) | st.sampled_from([0.0, -0.0]))
                | st.sampled_from(["K", "K, -0.0", (0.0, 0.0), (0.0, -0.0),
                                   (-0.0, 0.0), (30.0, -0.0)]))
# lanes that fail: on the first step, a few steps in, and a settled lane
# whose logistic update overflows
_FAILING_X0 = st.sampled_from([(HUGE, HUGE), (1e150, 1e150), (1e308, 0.0)])
_FIELDS = ("times", "U", "V", "clamped", "clamp_counts", "integral_v",
           "max_total", "errors")


def _split_and_plain(scheme, p, u0, v0, horizon, dt, seed, stride=1):
    """run_batch on a NoiseStream and on the matrix of its increments: each a
    BatchResult or the message of the IntegrationError it raised."""
    def run(dW):
        try:
            with np.errstate(all="ignore"):
                return run_batch(scheme, p, u0, v0, horizon, dt, dW, record_stride=stride)
        except IntegrationError as exc:
            return str(exc)

    n_steps = round(horizon / dt)
    return (run(NoiseStream(seed, len(u0), dt, n_steps)),
            run(_noise_matrix(seed, len(u0), dt, n_steps)))


def _assert_same_batch(split, plain):
    if isinstance(plain, str):
        assert split == plain
        return
    for name in _FIELDS:
        a, b = getattr(split, name), getattr(plain, name)
        assert (a == b if name == "errors" else _bits(a, a.dtype) == _bits(b, b.dtype)), name


@settings(max_examples=80,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(scheme=st.sampled_from([Scheme.EULER_MARUYAMA, Scheme.MILSTEIN]),
       p=_PARAMS, x0s=st.lists(_SETTLING_X0, min_size=1, max_size=6),
       failing=st.sampled_from([None, None, None, 0, 2, 6]), failing_x0=_FAILING_X0,
       dt=st.sampled_from([0.01, 0.05, 0.25, 1.0]),
       stride=st.integers(1, 5), n_rows=st.integers(1, 12),
       seed=st.integers(0, 2**64 - 1), step_cap=st.sampled_from([1, 3, 4096]))
@example(scheme=Scheme.MILSTEIN, p=P_NOISY,
         x0s=[(50.0, 10.0), "K", (30.0, -0.0), (0.0, 0.0), (50.0, 0.0)], failing=None,
         failing_x0=(HUGE, HUGE), dt=0.05, stride=2, n_rows=10, seed=3, step_cap=3)
@example(scheme=Scheme.EULER_MARUYAMA, p=P_FIG1, x0s=["K", "K", (0.0, -0.0)],
         failing=1, failing_x0=(1e150, 1e150), dt=0.25, stride=1, n_rows=8, seed=5,
         step_cap=1)
# m*u overflows at (K, 0): the lane settles, and its step goes NaN whatever
# dB is, so the split run fails at the plain step's step
@example(scheme=Scheme.EULER_MARUYAMA,
         p=ModelParams(r=1.0, K=1e308, m=2.0, d=0.2, sigma=0.09),
         x0s=["K", (50.0, 10.0)], failing=None, failing_x0=(HUGE, HUGE), dt=0.01,
         stride=1, n_rows=3, seed=1, step_cap=1)
def test_split_lanes_have_the_bits_of_the_plain_step(monkeypatch, scheme, p, x0s,
                                                     failing, failing_x0, dt, stride,
                                                     n_rows, seed, step_cap):
    monkeypatch.setattr(integrators, "_SPLIT_MIN", 1)
    monkeypatch.setattr(brownian, "_BLOCK_STEPS", step_cap)
    starts = [(p.K, _AT_K[x0]) if x0 in _AT_K else x0 for x0 in x0s]
    if failing is not None:
        starts.insert(min(failing, len(starts)), failing_x0)
    u0, v0 = np.array(starts).T.copy()
    _assert_same_batch(*_split_and_plain(scheme, p, u0, v0, stride * n_rows * dt, dt,
                                         seed, stride))


# far beyond the params above: a lane with v == 0 settles whatever its u,
# also where m*u, sigma*u or its logistic update overflows, since the
# schemes multiply by v before dB and the step then goes NaN for any dB
_WIDE_PARAMS = st.builds(ModelParams, r=st.floats(0.1, 50.0), K=st.floats(10.0, 1.7e308),
                         m=st.floats(0.001, 10.0), d=st.floats(0.05, 1.0),
                         sigma=st.floats(0.0, 50.0))
_EXTINCT_X0 = (st.tuples(st.sampled_from([1e150, 1e300, 1.7e308]),
                         st.sampled_from([0.0, -0.0]))
               | st.tuples(st.floats(0.0, 1.7e308),
                           st.sampled_from([0.0, -0.0, 1e-300, 5.0])))


@settings(max_examples=150,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(scheme=st.sampled_from([Scheme.EULER_MARUYAMA, Scheme.MILSTEIN]),
       p=_WIDE_PARAMS, x0s=st.lists(_EXTINCT_X0, min_size=1, max_size=6),
       dt=st.sampled_from([0.01, 1.0, 1e5]) | st.floats(1e-3, 1e5),
       stride=st.integers(1, 3), n_rows=st.integers(1, 6),
       seed=st.integers(0, 2**64 - 1), step_cap=st.integers(1, 5))
# u grows from 1e300 toward K until sigma*u*dB would overflow on fresh noise:
# the noise term must take v as a factor before dB
@example(scheme=Scheme.EULER_MARUYAMA,
         p=ModelParams(r=1.0, K=1.7e308, m=0.001, d=1.0, sigma=3.0),
         x0s=[(0.0, 0.0), (1e300, 0.0)], dt=1e5, stride=1, n_rows=3, seed=2, step_cap=1)
# at dt 1.7e308 a fresh dB*dB overflows once |dB| > 1.03*sqrt(dt), and the
# Milstein step from (0, 0) goes NaN: no lane may settle and step on a stale 0
@example(scheme=Scheme.MILSTEIN, p=P_FIG1, x0s=[(0.0, 0.0)] * 8, dt=1.7e308, stride=1,
         n_rows=1, seed=7, step_cap=1)
def test_a_lane_with_v_zero_settles_whatever_its_u(monkeypatch, scheme, p, x0s, dt,
                                                   stride, n_rows, seed, step_cap):
    monkeypatch.setattr(integrators, "_SPLIT_MIN", 1)
    monkeypatch.setattr(brownian, "_BLOCK_STEPS", step_cap)
    u0, v0 = np.array(x0s).T.copy()
    _assert_same_batch(*_split_and_plain(scheme, p, u0, v0, stride * n_rows * dt, dt,
                                         seed, stride))


@pytest.mark.parametrize("cpus", [2, 1], ids=["forked", "in_process"])
def test_a_wide_run_splits_with_the_bits_of_the_plain_step(monkeypatch, forks, cpus):
    monkeypatch.setattr(brownian, "_usable_cpus", lambda: cpus)
    monkeypatch.setattr(brownian, "_BLOCK_STEPS", 64)
    stepped = []
    observe = integrators._Lanes._observe

    def spy(lanes, *state):
        observe(lanes, *state)
        stepped.append(None if lanes.stepped is None else lanes.stepped.size)

    monkeypatch.setattr(integrators._Lanes, "_observe", spy)
    # 2048 x 512 = 2^20 increments: the stream forks where two CPUs are usable.
    # Half of the lanes start frozen, at (K, 0) or (0, 0), and (K, -0.0) is
    # frozen once its first step has written v = +0.0; (30, -0.0) is settled
    # but moves, and the rest clamp under sigma 0.5 and settle on the way.
    n = 2048
    u0 = np.tile([50.0, P_NOISY.K, 30.0, 0.0, 5.0, P_NOISY.K, P_NOISY.K, 0.0], n // 8)
    v0 = np.tile([10.0, 0.0, -0.0, 0.0, 40.0, 0.0, -0.0, 0.0], n // 8)
    for scheme in (Scheme.EULER_MARUYAMA, Scheme.MILSTEIN):
        split, plain = _split_and_plain(scheme, P_NOISY, u0, v0, 25.6, 0.05, 9, 8)
        assert plain.clamp_counts.sum() > 0 and plain.V[:, -1].min() == 0.0
        _assert_same_batch(split, plain)
    assert len(forks) == (2 if cpus == 2 else 0)
    # from the first block boundary on, no step steps those 1280 lanes
    assert len(stepped) == 16 and all(s is not None and s <= 3 * n // 8 for s in stepped)


def test_settled_lanes_that_move_take_the_schemes_step(monkeypatch):
    # 2048 lanes settle at (30, 0) but none freezes within the run, so every
    # step, below the frozen-lane floor, steps every lane with the scheme
    sizes = []

    def spy(update, u, *args):
        sizes.append(u.size)
        return _stochastic_next(update, u, *args)

    monkeypatch.setattr(integrators, "_stochastic_next", spy)
    n, n_steps = 2048, 256
    u0, v0 = np.full(n, 30.0), np.zeros(n)
    split = run_batch(Scheme.MILSTEIN, P_FIG1, u0, v0, 2.56, 0.01,
                      NoiseStream(4, n, 0.01, n_steps))
    assert sizes == [n] * n_steps
    plain = run_batch(Scheme.MILSTEIN, P_FIG1, u0, v0, 2.56, 0.01,
                      _noise_matrix(4, n, 0.01, n_steps))
    _assert_same_batch(split, plain)
    assert np.all(split.U[:, -1] > 30.0) and np.all(split.U[:, -1] < P_FIG1.K)
