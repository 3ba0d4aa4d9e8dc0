"""Peak memory and wall time of one noisy run, each in a fresh interpreter.

    PYTHONPATH=src python3 scripts/ensemble_memory.py [--repeats R]

Three configs, all Milstein at seed 20240101. Two are ensemble runs on
fig1's model and start (50, 10) at dt 0.01 over 10^4 steps:

- wide: 4000 paths, every 50th step recorded (the config of the
  ensemble_wide benchmark workload);
- stride 1: 1000 paths, every step recorded.

The third, strong_order, is the config of the convergence benchmark
workload: fig2's model from (2, 9.8) over horizon 0.001, 4000 paths x
2048 fine steps, 5 levels.

Each run is a new interpreter that imports jobmarket, times one
analysis.ensemble or analysis.strong_order call and reads its max RSS
from getrusage: RUSAGE_SELF for the interpreter, and RUSAGE_CHILDREN for
the noise producer it forks (two usable CPUs) once that is reaped.
Medians over R runs per config.
It imports jobmarket from the path it is given, so the same script
measures two checkouts: point PYTHONPATH at each one's src in turn.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

CONFIGS = {"wide": (4000, 50), "stride 1": (1000, 1)}  # paths, record stride
ROWS = {"wide": "4000 paths x 10^4 steps, stride 50",
        "stride 1": "1000 paths x 10^4 steps, stride 1",
        "strong_order": "4000 paths x 2048 fine steps, 5 levels"}


def _run(name: str) -> None:
    import resource
    import time

    from jobmarket import ModelParams, Scheme, State
    from jobmarket.analysis import ensemble, strong_order

    start = time.perf_counter()
    if name == "strong_order":
        p = ModelParams(r=1.0, K=100.0, m=0.1, d=0.2, sigma=0.001)
        strong_order(p, Scheme.MILSTEIN, State(2.0, 9.8), 0.001, 0.001 * 2.0**-11,
                     5, 4000, 20240101)
    else:
        n_paths, stride = CONFIGS[name]
        p = ModelParams(r=1.0, K=100.0, m=0.001, d=0.2, sigma=0.09)
        ensemble(p, Scheme.MILSTEIN, State(50.0, 10.0), 100.0, 0.01, n_paths,
                 20240101, record_stride=stride)
    wall = time.perf_counter() - start
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    print(json.dumps({"wall_s": wall, "self_mb": own, "children_mb": children}))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--run", choices=ROWS, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.run:
        _run(args.run)
        return
    for name, row in ROWS.items():
        runs = [json.loads(subprocess.run([sys.executable, __file__, "--run", name],
                                          capture_output=True, text=True,
                                          check=True).stdout)
                for _ in range(args.repeats)]
        med = {key: statistics.median(r[key] for r in runs) for key in runs[0]}
        print(f"{name}: {row}, median of "
              f"{args.repeats}: wall {med['wall_s']:.2f} s, max RSS "
              f"{med['self_mb']:.1f} MB self, {med['children_mb']:.1f} MB children")


if __name__ == "__main__":
    main()
