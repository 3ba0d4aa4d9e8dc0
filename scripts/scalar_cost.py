"""Time one scalar path of simulate, and one lane of run_batch, per step.

    PYTHONPATH=src python3 scripts/scalar_cost.py [--repeats R]

Medians over R repeats, in microseconds per step, on the bundled fig2
scenario:

- simulate, Milstein and RK4: one path over the whole fig2 horizon
  (2*10^5 steps, recorded every 100th step, as the config asks), with
  both accumulators (the default) and with none (outputs=(), as the CLI's
  simulate subcommand runs it);
- run_batch, 1 lane, Milstein: the same path as a one-lane batch over the
  first tenth of the horizon (2*10^4 steps), the cost that simulate's
  scalar step avoids. run_batch takes the stochastic schemes only.

The Milstein path's increments are drawn once, outside the timed region.
It imports jobmarket from the path it is given, so the same script times
two checkouts: point PYTHONPATH at each one's src in turn.
"""

from __future__ import annotations

import argparse
import statistics
import time

import numpy as np

from jobmarket import Scheme, generate, run_batch, simulate
from jobmarket.cli import load_config


def _us_per_step(fn, n_steps: int, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return 1e6 * statistics.median(times) / n_steps


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args()
    cfg = load_config("fig2")
    n_steps = round(cfg.horizon / cfg.dt)
    path = generate(cfg.seed, 0, cfg.dt, n_steps)
    short = n_steps // 10
    dW = path.increments[None, :short]
    u0, v0 = np.array([cfg.x0.u]), np.array([cfg.x0.v])
    rows = []
    for scheme in (Scheme.MILSTEIN, Scheme.RK4):
        noise = path if scheme.is_stochastic else None

        def run(**kwargs):
            return _us_per_step(
                lambda: simulate(scheme, cfg.params, cfg.x0, cfg.horizon, cfg.dt,
                                 path=noise, record_stride=cfg.record_stride, **kwargs),
                n_steps, args.repeats)

        scalar, bare = run(), run(outputs=())
        rows.append(f"{scheme.value} simulate {scalar:.2f} (no accumulators {bare:.2f})")
    lane = _us_per_step(
        lambda: run_batch(Scheme.MILSTEIN, cfg.params, u0, v0, short * cfg.dt,
                          cfg.dt, dW),
        short, args.repeats)
    rows[0] += f", run_batch 1 lane {lane:.2f}"
    print(f"fig2, {n_steps} steps, median of {args.repeats}, us per step: "
          + "; ".join(rows))


if __name__ == "__main__":
    main()
