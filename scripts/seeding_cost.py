"""Time how long a 4000-path noise stream takes to seed and to deliver block 0.

    PYTHONPATH=src python3 scripts/seeding_cost.py [--paths N] [--repeats R]

Three medians over R repeats, in milliseconds:

- seed: building the stream's generators and drawing one normal per path,
  through the sampler that generate and NoiseStream share (brownian._blocks);
- block 0 forked / in process: from iter() to the first block of a
  NoiseStream of N paths x 2048 steps, with a producer process (two usable
  CPUs assumed) and drawn in process (one usable CPU assumed).

It imports jobmarket from the path it is given, so the same script times
two checkouts: point PYTHONPATH at each one's src in turn.
"""

from __future__ import annotations

import argparse
import statistics
import time

import numpy as np

from jobmarket import brownian


def _ms(fn, repeats: int) -> float:
    fn()  # untimed: numpy.random is imported on first use
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return 1e3 * statistics.median(times)


def _block0(n_paths: int, cpus: int):
    def first():
        brownian._usable_cpus = lambda: cpus
        stream = iter(brownian.NoiseStream(20240101, n_paths, 1e-3 / 2048, 2048))
        next(stream)
        stream.close()  # reaps a producer
    return first


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--paths", type=int, default=4000)
    parser.add_argument("--repeats", type=int, default=15)
    args = parser.parse_args()
    n, r = args.paths, args.repeats
    seed = _ms(lambda: next(brownian._blocks(20240101, range(n), 1, np.empty((n, 1)))), r)
    forked = _ms(_block0(n, 2), r)
    in_process = _ms(_block0(n, 1), r)
    print(f"numpy {np.__version__}, {n} paths, median of {r}: seed {seed:.1f} ms, "
          f"block 0 forked {forked:.1f} ms, in process {in_process:.1f} ms")


if __name__ == "__main__":
    main()
