"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
lines. The heavyweight Monte Carlo runs are shared through module-scoped
fixtures, so the whole suite stays in the minutes range.
"""

import json
import math

import numpy as np
import pytest

from jobmarket import (
    ModelParams,
    Scheme,
    State,
    classify_regime,
    extinction_index,
    generate,
    persistence_floor,
    r0s,
    simulate,
    step_em,
    step_milstein,
    ultimate_bound,
)
from jobmarket.analysis import simulate_paths, strong_order
from jobmarket.cli import main
from jobmarket.integrators import _milstein_corr

P_FIG1 = ModelParams(r=1.0, K=100.0, m=0.001, d=0.2, sigma=0.09)
P_FIG2 = ModelParams(r=1.0, K=100.0, m=0.1, d=0.2, sigma=0.001)
X0 = State(50.0, 10.0)
SEED = 20240101


@pytest.fixture(scope="module")
def fig1_batch():
    return simulate_paths(P_FIG1, Scheme.MILSTEIN, X0, 500.0, 0.01,
                          n_paths=100, seed=SEED, record_stride=50)


@pytest.fixture(scope="module")
def fig2_batch():
    return simulate_paths(P_FIG2, Scheme.MILSTEIN, X0, 2000.0, 0.01,
                          n_paths=50, seed=SEED, record_stride=100)


@pytest.fixture(scope="module")
def fig2_deterministic():
    return simulate(Scheme.RK4, P_FIG2, X0, 2000.0, 0.01, record_stride=100)


def test_criterion_1_threshold_reproduction():
    # extinction scenario: m^2/(2 sigma^2) - d = -0.19994 to 1e-5
    index = extinction_index(P_FIG1)
    assert abs(index - (-0.19994)) <= 1e-5
    assert classify_regime(P_FIG1).classification.value == "extinction"

    # persistence scenario: m - r/K is 0.09 at double precision (one ulp of
    # slack since neither 0.1 - 0.01 nor 0.09 is an exact binary fraction)
    margin = P_FIG2.m - P_FIG2.r / P_FIG2.K
    assert abs(margin - 0.09) <= 1e-15
    threshold = r0s(P_FIG2)
    assert abs(threshold - 4.975) <= 1e-12
    assert threshold > 1.0 and margin > 0.0
    report = classify_regime(P_FIG2)
    assert report.classification.value == "persistence"
    assert report.persistence_floor is not None
    print("\nACCEPTANCE 1 threshold reproduction: PASS "
          f"(index={index:.6f}, r0s={threshold}, margin={margin!r})")


def test_criterion_2_extinction_experiment(fig1_batch):
    mean_terminal = float(fig1_batch.terminal_v.mean())
    frac_below = float((fig1_batch.terminal_v < 1e-2).mean())
    clamps = int(fig1_batch.clamp_counts.sum())
    assert mean_terminal < 1e-3
    assert frac_below >= 0.99
    assert clamps == 0
    print("\nACCEPTANCE 2 extinction experiment: PASS "
          f"(mean v(T)={mean_terminal:.3e}, {frac_below:.0%} below 1e-2, "
          f"{clamps} clamps)")


def test_criterion_3_persistence_experiment(fig2_batch, fig2_deterministic):
    floor = persistence_floor(P_FIG2)
    assert floor == pytest.approx(2.65, rel=1e-12)
    tavg = fig2_batch.time_average_v()
    assert np.all(tavg >= 2.65), f"min pathwise <v> = {tavg.min()}"
    terminal = fig2_deterministic.terminal
    assert abs(terminal.u - 2.0) <= 1e-3
    assert abs(terminal.v - 9.8) <= 1e-3
    print("\nACCEPTANCE 3 persistence experiment: PASS "
          f"(min <v>={tavg.min():.4f} >= 2.65, deterministic terminal="
          f"({terminal.u:.6f}, {terminal.v:.6f}))")


def test_criterion_4_boundedness(fig1_batch, fig2_batch, fig2_deterministic):
    checked = []
    for params, batch in ((P_FIG1, fig1_batch), (P_FIG2, fig2_batch)):
        bound = max(X0.u + X0.v, ultimate_bound(params)) * (1.0 + 1e-6)
        worst = float(batch.max_total.max())
        assert worst <= bound
        checked.append(worst)
    det_bound = max(X0.u + X0.v, ultimate_bound(P_FIG2)) * (1.0 + 1e-6)
    assert fig2_deterministic.max_total <= det_bound
    fig1_det = simulate(Scheme.RK4, P_FIG1, X0, 500.0, 0.01, record_stride=50)
    assert fig1_det.max_total <= max(X0.u + X0.v, ultimate_bound(P_FIG1)) * (1.0 + 1e-6)
    print("\nACCEPTANCE 4 boundedness: PASS "
          f"(worst path totals {checked[0]:.3f}, {checked[1]:.3f} vs bound 500)")


def test_criterion_5_noise_cancellation():
    rng = np.random.default_rng(987654321)
    worst = 0.0
    done = 0
    while done < 10**4:
        u, v = rng.uniform(0.0, 200.0), rng.uniform(0.0, 200.0)
        p = ModelParams(r=rng.uniform(0.05, 2.0), K=rng.uniform(10.0, 200.0),
                        m=rng.uniform(1e-4, 0.5), d=rng.uniform(0.05, 1.0),
                        sigma=rng.uniform(0.0, 0.2))
        dt = rng.uniform(1e-4, 0.05)
        dB = rng.normal(0.0, math.sqrt(dt))
        em, em_clamped = step_em(State(u, v), dt, dB, p)
        mil, mil_clamped = step_milstein(State(u, v), dt, dB, p)
        if em_clamped or mil_clamped:
            continue  # cancellation only holds for unclamped updates
        done += 1
        coupling = p.m * u * v
        du = p.r * u * (1.0 - u / p.K) - coupling
        dv = coupling - p.d * v
        noise = p.sigma * u * v * dB
        corr = _milstein_corr(u, v, dt, dB, p)
        assert corr + (-corr) == 0.0
        balance = dt * (p.r * u * (1.0 - u / p.K) - p.d * v)
        scale = max(abs(u), abs(v), em.u, em.v, mil.u, mil.v, abs(noise),
                    abs(du) * dt, abs(dv) * dt, abs(corr), u + v, abs(balance))
        tol = 4.0 * np.spacing(scale)
        for s in (em, mil):
            err = abs((s.u + s.v) - (u + v) - balance)
            worst = max(worst, err / np.spacing(scale))
            assert err <= tol
    print(f"\nACCEPTANCE 5 noise cancellation: PASS "
          f"(10^4 triples, worst deviation {worst:.2f} ulp <= 4)")


def test_criterion_6_strong_order_slopes():
    # started at the interior equilibrium over a short horizon the drift is
    # negligible and the coupled errors are noise-dominated, which is the
    # regime where the schemes' stochastic orders are measurable at all
    # (sigma = 0.001 is far too weak for that along the transient)
    horizon = 0.001
    dt_fine = horizon * 2.0**-11  # measured rungs: 2^-10 .. 2^-6 of horizon
    x0 = State(2.0, 9.8)
    em = strong_order(P_FIG2, Scheme.EULER_MARUYAMA, x0, horizon, dt_fine,
                      levels=5, n_paths=200, seed=SEED)
    mil = strong_order(P_FIG2, Scheme.MILSTEIN, x0, horizon, dt_fine,
                       levels=5, n_paths=200, seed=SEED)
    assert 0.35 <= em.slope <= 0.65, f"EM slope {em.slope}"
    assert 0.8 <= mil.slope <= 1.2, f"Milstein slope {mil.slope}"
    assert em.residual < 0.3
    assert mil.residual < 0.3
    print("\nACCEPTANCE 6 strong-order slopes: PASS "
          f"(EM {em.slope:.3f} in [0.35, 0.65], Milstein {mil.slope:.3f} in "
          f"[0.8, 1.2], residuals {em.residual:.3f}/{mil.residual:.3f})")


def test_criterion_7_brownian_generator_statistics():
    path = generate(42, 0, 0.01, 10**6)
    mean = float(path.increments.mean())
    var = float(path.increments.var())
    assert abs(mean) <= 4e-5
    assert abs(var - 0.01) <= 1e-4  # within 1% of dt
    again = generate(42, 0, 0.01, 10**6)
    assert np.array_equal(path.increments, again.increments)
    print("\nACCEPTANCE 7 Brownian generator statistics: PASS "
          f"(mean={mean:.2e}, var={var:.6f}, regeneration bit-identical)")


def test_criterion_8_cli_determinism(tmp_path):
    # every path's noise is keyed by (seed, path_index), whichever process
    # draws it, and the engine reduces over paths in a fixed order, so no
    # degree of concurrency can change a bit; two full runs of every
    # subcommand must agree byte for byte
    config = {
        "params": {"r": 1.0, "K": 100.0, "m": 0.1, "d": 0.2, "sigma": 0.09},
        "x0": {"u": 50.0, "v": 10.0},
        "horizon": 2.0,
        "dt": 0.01,
        "scheme": "milstein",
        "n_paths": 3,
        "seed": 7,
        "record_stride": 10,
    }
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    conv = dict(config, horizon=1.0, dt=2.0**-9, record_stride=1,
                x0={"u": 2.0, "v": 9.8})
    conv_cfg = tmp_path / "conv.json"
    conv_cfg.write_text(json.dumps(conv))

    invocations = [
        ("thresholds", ["thresholds", "--config", str(cfg)]),
        ("simulate", ["simulate", "--config", str(cfg)]),
        ("ensemble", ["ensemble", "--config", str(cfg)]),
        ("convergence", ["convergence", "--config", str(conv_cfg)]),
        ("sweep", ["sweep", "--config", str(cfg), "--m-grid", "0.001,0.1",
                   "--sigma-grid", "0.09"]),
    ]
    for name, argv in invocations:
        out1 = tmp_path / f"{name}_run1"
        out2 = tmp_path / f"{name}_run2"
        assert main(argv + ["--out", str(out1), "--quiet"]) == 0, name
        assert main(argv + ["--out", str(out2), "--quiet"]) == 0, name
        files1 = sorted(f.name for f in out1.iterdir())
        files2 = sorted(f.name for f in out2.iterdir())
        assert files1 == files2 and files1, name
        for fname in files1:
            assert (out1 / fname).read_bytes() == (out2 / fname).read_bytes(), \
                f"{name}/{fname} differs between identical runs"
    print("\nACCEPTANCE 8 determinism: PASS "
          "(all five subcommands byte-identical across reruns)")
