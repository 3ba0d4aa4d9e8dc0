"""Peak memory and wall time of one ensemble run, each in a fresh interpreter.

    PYTHONPATH=src python3 scripts/ensemble_memory.py [--repeats R]

Two configs, both on fig1's model and start (50, 10), Milstein at dt
0.01 over 10^4 steps, seed 20240101:

- wide: 4000 paths, every 50th step recorded (the config of the
  ensemble_wide benchmark workload);
- stride 1: 1000 paths, every step recorded.

Each run is a new interpreter that imports jobmarket, times one
analysis.ensemble call and reads its max RSS from getrusage: RUSAGE_SELF
for the interpreter, and RUSAGE_CHILDREN for the noise producer it forks
(two usable CPUs) once that is reaped. Medians over R runs per config.
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


def _run(name: str) -> None:
    import resource
    import time

    from jobmarket import ModelParams, Scheme, State
    from jobmarket.analysis import ensemble

    n_paths, stride = CONFIGS[name]
    p = ModelParams(r=1.0, K=100.0, m=0.001, d=0.2, sigma=0.09)
    start = time.perf_counter()
    ensemble(p, Scheme.MILSTEIN, State(50.0, 10.0), 100.0, 0.01, n_paths, 20240101,
             record_stride=stride)
    wall = time.perf_counter() - start
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    print(json.dumps({"wall_s": wall, "self_mb": own, "children_mb": children}))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--run", choices=CONFIGS, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.run:
        _run(args.run)
        return
    for name, (n_paths, stride) in CONFIGS.items():
        runs = [json.loads(subprocess.run([sys.executable, __file__, "--run", name],
                                          capture_output=True, text=True,
                                          check=True).stdout)
                for _ in range(args.repeats)]
        med = {key: statistics.median(r[key] for r in runs) for key in runs[0]}
        print(f"{name}: {n_paths} paths x 10^4 steps, stride {stride}, median of "
              f"{args.repeats}: wall {med['wall_s']:.2f} s, max RSS "
              f"{med['self_mb']:.1f} MB self, {med['children_mb']:.1f} MB children")


if __name__ == "__main__":
    main()
