"""Time one lane step of each stochastic scheme, per path-step.

    PYTHONPATH=src python3 scripts/lane_cost.py [--repeats R]

Medians over R repeats, in nanoseconds per path-step, of
integrators._stochastic_next (the scheme's update and the clamp) for
Euler-Maruyama and Milstein on fig2's parameters, at these lane shapes:

- 1, 100, 1000 and 10^4 lanes of one cell, at dt 0.01;
- 4000 lanes, a third extinct: every third lane at v == 0, as in the
  settle phase of the ensemble_wide benchmark workload;
- sweep 9x10: the 3x3 (m, sigma) grid of the sweep_grid benchmark
  workload, 10 paths per cell, under run_batch's lane-shaped (9, 10)
  parameter arrays; and the same with the cell (m 0.05, sigma 0.1) extinct,
  its lanes at v == 0, as that workload's run reaches;
- convergence (c, 4000): c levels of the criterion-6 run at once, as
  strong_order steps them, each row with its own dt from a (c, 1) column
  and its own row of summed increments; c = 2 and c = 6.

The states are spread around fig2's rest point (2, 9.8), so the rows
without extinct lanes time the clamp's no-pass tier and those with them
its flush tier. Each increment row is a view of a larger block, as the
engine's are. A repeat times a fixed number of calls, so each lasts some
tens of milliseconds. It imports jobmarket from the path it is given, so
the same script times two checkouts whose _stack_params and
_stochastic_next take the same arguments: point PYTHONPATH at each one's
src in turn.
"""

from __future__ import annotations

import argparse
import statistics
import time

import numpy as np

from jobmarket import ModelParams, Scheme
from jobmarket.integrators import _STOCHASTIC_NEXT, _stack_params, _stochastic_next

FIG2 = ModelParams(r=1.0, K=100.0, m=0.1, d=0.2, sigma=0.001)
SWEEP_M = (0.05, 0.1, 0.2)
SWEEP_SIGMA = (0.001, 0.01, 0.1)
CONV_DT = 0.001 * 2.0 ** -11  # the convergence workload's finest step
# the sweep cell whose labour force dies out in the sweep_grid workload
EXTINCT = ModelParams(r=FIG2.r, K=FIG2.K, m=0.05, d=FIG2.d, sigma=0.1)


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
    u, v = states((4000,))
    v[::3] = 0.0
    yield ("4000 lanes, a third extinct", 4000, u, v, 0.01, increments((4000,), 0.01),
           FIG2)
    cells = tuple(ModelParams(r=FIG2.r, K=FIG2.K, m=m, d=FIG2.d, sigma=s)
                  for m in SWEEP_M for s in SWEEP_SIGMA)
    coeffs = _stack_params(cells, 10)
    yield ("sweep 9x10", 90, *states((9, 10)), 0.01, increments((10,), 0.01), coeffs)
    u, v = states((9, 10))
    v[cells.index(EXTINCT)] = 0.0
    yield ("sweep 9x10, one cell extinct", 90, u, v, 0.01, increments((10,), 0.01),
           coeffs)
    for c in (2, 6):
        dts = np.array([[CONV_DT * 2 ** level] for level in range(c)])
        yield (f"convergence ({c}, 4000)", c * 4000, *states((c, 4000)), dts,
               increments((c, 4000), CONV_DT), FIG2)


def _ns_per_path_step(update, lanes, u, v, dt, dB, coeffs, repeats: int) -> float:
    calls = min(1000, max(20, 500_000 // lanes))
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(calls):
            _stochastic_next(update, u, v, dt, dB, coeffs)
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
            ns = _ns_per_path_step(_STOCHASTIC_NEXT[scheme], lanes, *inputs,
                                   args.repeats)
            cells.append(f"{scheme.value} {ns:.1f} [{ns * lanes / 1e3:.1f}]")
        print(f"{label}: " + "; ".join(cells))


if __name__ == "__main__":
    main()
