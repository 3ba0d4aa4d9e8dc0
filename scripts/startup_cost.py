"""Time the start-up of the jobmarket CLI, in fresh interpreters.

    PYTHONPATH=src python3 scripts/startup_cost.py [--repeats R]

Medians over R repeats of the wall time, in seconds, of one subprocess
running each of:

- a bare interpreter (python -c pass);
- import numpy, for scale;
- import jobmarket.cli;
- python -m jobmarket.cli thresholds --config fig1;
- python -m jobmarket.cli --help;
- one config error: fig1 with "n_paths": true, which exits 2.

One more row is the benchmark's set-up probe (bench/probe_setup.py, its
setup_s): import jobmarket.cli plus load_config("fig1"), timed inside the
subprocess from its first statement, median over fresh interpreters.

Each command's exit code is checked; a wrong one stops the script with a
nonzero exit. The rounds interleave the commands, so a change in host
speed reaches every row alike. It imports jobmarket from the path it is
given, so the same script times two checkouts: point PYTHONPATH at each
one's src in turn.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from jobmarket import scenarios


# the set-up probe: prints the seconds from its first statement until the
# CLI is imported and a config loaded
_PROBE = "set-up probe (import jobmarket.cli + load_config, in process)"
_PROBE_CODE = """
import time
t0 = time.perf_counter()
import jobmarket.cli
jobmarket.cli.load_config("fig1")
print(repr(time.perf_counter() - t0))
"""


def _commands(tmp: Path) -> list[tuple[str, list[str], int]]:
    """(label, argv, expected exit code) of each timed command; the set-up
    probe's row takes the time it prints, the others their wall time."""
    bad = json.loads(scenarios.bundled_path("fig1").read_text())
    bad["n_paths"] = True
    config = tmp / "bad.json"
    config.write_text(json.dumps(bad))
    cli = [sys.executable, "-m", "jobmarket.cli"]
    out = ["--out", str(tmp / "out"), "--quiet"]
    return [
        ("bare interpreter", [sys.executable, "-c", "pass"], 0),
        ("import numpy", [sys.executable, "-c", "import numpy"], 0),
        ("import jobmarket.cli", [sys.executable, "-c", "import jobmarket.cli"], 0),
        ("thresholds --config fig1", cli + ["thresholds", "--config", "fig1"] + out, 0),
        ("--help", cli + ["--help"], 0),
        ("config error (n_paths true)", cli + ["thresholds", "--config", str(config)] + out, 2),
        (_PROBE, [sys.executable, "-c", _PROBE_CODE], 0),
    ]


def _time(label: str, argv: list[str], expected: int) -> float:
    start = time.perf_counter()
    proc = subprocess.run(argv, capture_output=True, text=True)
    wall = time.perf_counter() - start
    if proc.returncode != expected:
        sys.exit(f"{argv} exited {proc.returncode}, not {expected}: {proc.stderr[-2000:]}")
    return float(proc.stdout) if label == _PROBE else wall


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=7)
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        commands = _commands(Path(tmp))
        walls: dict[str, list[float]] = {label: [] for label, _, _ in commands}
        for _ in range(args.repeats):
            for label, argv, expected in commands:
                walls[label].append(_time(label, argv, expected))
    print(f"subprocess wall time (the probe's own reading), median of {args.repeats}, s")
    for label, times in walls.items():
        digits = 4 if label == _PROBE else 3
        print(f"{label}: {statistics.median(times):.{digits}f}")


if __name__ == "__main__":
    main()
