"""Set-up time of a fresh interpreter: import jobmarket.cli and load the
workload's config, then print the elapsed seconds.

    python3 bench/probe_setup.py SRC_DIR CONFIG_FILE
"""

import time

t0 = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, sys.argv[1])
import jobmarket.cli  # noqa: E402

jobmarket.cli.load_config(sys.argv[2])
elapsed = time.perf_counter() - t0
if not Path(jobmarket.cli.__file__).resolve().is_relative_to(Path(sys.argv[1]).resolve()):
    sys.exit(f"jobmarket imported from {jobmarket.cli.__file__}, not {sys.argv[1]}")
print(repr(elapsed))
