"""Time one lane step of each stochastic scheme, per path-step.

    PYTHONPATH=src python3 scripts/lane_cost.py [--repeats R]

Medians over R repeats, in nanoseconds per path-step, of
integrators._stochastic_next (the scheme's update and the clamp) for
Euler-Maruyama and Milstein on fig2's parameters, at these lane shapes:

- 1, 100, 1000 and 10^4 lanes of one cell, at dt 0.01;
- sweep 9x10: the 3x3 (m, sigma) grid of the sweep_grid benchmark
  workload, stacked parameters as (9, 1) columns, 10 paths per cell;
- convergence (c, 4000): c levels of the criterion-6 run at once, as
  strong_order steps them, each row with its own dt from a (c, 1) column
  and its own row of summed increments; c = 2 and c = 6.

The states are spread around fig2's rest point (2, 9.8). Each increment
row is a view of a larger block, as the engine's are. A repeat times a
fixed number of calls, so each lasts some tens of milliseconds. It
imports jobmarket from the path it is given, so the same script times two
checkouts: point PYTHONPATH at each one's src in turn.
"""

from __future__ import annotations

import argparse
import statistics
import time

import numpy as np

from jobmarket import ModelParams, Scheme
from jobmarket.integrators import _stack_params, _stochastic_next

FIG2 = ModelParams(r=1.0, K=100.0, m=0.1, d=0.2, sigma=0.001)
SWEEP_M = (0.05, 0.1, 0.2)
SWEEP_SIGMA = (0.001, 0.01, 0.1)
CONV_DT = 0.001 * 2.0 ** -11  # the convergence workload's finest step


def _shapes(rng):
    """(label, lanes, u, v, dt, dB, coefficients) of each timed shape."""
    def states(shape):
        return (2.0 * (1.0 + 0.1 * rng.standard_normal(shape)),
                9.8 * (1.0 + 0.1 * rng.standard_normal(shape)))

    def increments(shape, dt):
        # a row view of a 3-row block, the way the engine reads a noise block
        return (np.sqrt(dt) * rng.standard_normal((3,) + shape))[1]

    for n in (1, 100, 1000, 10_000):
        yield (f"{n} lanes", n, *states((n,)), 0.01, increments((n,), 0.01), FIG2)
    cells = tuple(ModelParams(r=FIG2.r, K=FIG2.K, m=m, d=FIG2.d, sigma=s)
                  for m in SWEEP_M for s in SWEEP_SIGMA)
    yield ("sweep 9x10", 90, *states((9, 10)), 0.01, increments((10,), 0.01),
           _stack_params(cells))
    for c in (2, 6):
        dts = np.array([[CONV_DT * 2 ** level] for level in range(c)])
        yield (f"convergence ({c}, 4000)", c * 4000, *states((c, 4000)), dts,
               increments((c, 4000), CONV_DT), FIG2)


def _ns_per_path_step(scheme, lanes, u, v, dt, dB, coeffs, repeats: int) -> float:
    calls = min(1000, max(20, 500_000 // lanes))
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(calls):
            _stochastic_next(scheme, u, v, dt, dB, coeffs)
        times.append(time.perf_counter() - start)
    return 1e9 * statistics.median(times) / (calls * lanes)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=7)
    args = parser.parse_args()
    shapes = list(_shapes(np.random.default_rng(20240101)))
    print(f"_stochastic_next, median of {args.repeats}, ns per path-step "
          "(us per call in brackets)")
    for label, lanes, *inputs in shapes:
        cells = []
        for scheme in (Scheme.EULER_MARUYAMA, Scheme.MILSTEIN):
            ns = _ns_per_path_step(scheme, lanes, *inputs, args.repeats)
            cells.append(f"{scheme.value} {ns:.1f} [{ns * lanes / 1e3:.1f}]")
        print(f"{label}: " + "; ".join(cells))


if __name__ == "__main__":
    main()
