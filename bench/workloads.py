"""The three benchmark workloads: generated configs, CLI argv, work counts
and output checks.

A workload is built from the benchmark's workload seed alone; the program
under test only ever sees the config file and argv produced here. The
model parameters repeat the bundled fig1/fig2 scenarios so that a change
to the bundled files cannot silently change the benchmark's inputs.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

FIG1 = {"r": 1.0, "K": 100.0, "m": 0.001, "d": 0.2, "sigma": 0.09}
FIG2 = {"r": 1.0, "K": 100.0, "m": 0.1, "d": 0.2, "sigma": 0.001}
X0 = {"u": 50.0, "v": 10.0}

SWEEP_M = (0.05, 0.1, 0.2)
SWEEP_SIGMA = (0.001, 0.01, 0.1)
CONV_LEVELS = 5


@dataclass(frozen=True)
class Workload:
    command: str
    config: dict
    extra_args: tuple[str, ...]
    artifacts: tuple[str, ...]
    lane_steps: int
    check: Callable[[Path, dict], list[str]]

    def warmup_config(self) -> dict:
        """Same subcommand and scheme on a 32-step horizon (the fewest that
        ``--levels 5`` accepts), so that lazy imports and first-call set-up
        finish before anything is timed."""
        cfg = dict(self.config)
        cfg["horizon"] = cfg["dt"] * 2 ** CONV_LEVELS
        cfg["record_stride"] = 1
        cfg["n_paths"] = min(cfg.get("n_paths", 1), 4)
        return cfg

    def argv(self, config_path: Path, out_dir: Path) -> list[str]:
        return [self.command, "--config", str(config_path), "--out", str(out_dir),
                "--quiet", *self.extra_args]


def _steps(cfg: dict) -> int:
    return round(cfg["horizon"] / cfg["dt"])


def _rows(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fp:
        return list(csv.DictReader(fp))


# ---------------------------------------------------------------------------
# output checks: each returns a list of problems, empty when the artifacts
# hold; every check must pass at any workload seed

def _check_sweep(out: Path, cfg: dict) -> list[str]:
    rows = _rows(out / "sweep.csv")
    problems = []
    if len(rows) != len(SWEEP_M) * len(SWEEP_SIGMA):
        problems.append(f"sweep.csv has {len(rows)} rows, expected 9")
    expected = {"persistence": "v_persists", "extinction": "v_extinct"}
    for row in rows:
        if not row["predicted"]:
            problems.append(f"cell m={row['m']} sigma={row['sigma']} failed")
        elif row["predicted"] in expected and row["observed"] != expected[row["predicted"]]:
            problems.append(f"cell m={row['m']} sigma={row['sigma']} predicted "
                            f"{row['predicted']} but observed {row['observed']}")
    return problems


def _check_ensemble(out: Path, cfg: dict) -> list[str]:
    rows = _rows(out / "ensemble.csv")
    problems = []
    n_expected = _steps(cfg) // cfg["record_stride"] + 1
    if len(rows) != n_expected:
        problems.append(f"ensemble.csv has {len(rows)} rows, expected {n_expected}")
    p = cfg["params"]
    bound = p["r"] * p["K"] / min(p["r"], p["d"])
    for row in rows:
        values = {k: float(x) for k, x in row.items()}
        if not all(math.isfinite(x) for x in values.values()):
            problems.append(f"non-finite statistic at t={row['t']}")
            break
        for c in ("u", "v"):
            if not values[f"{c}_q05"] <= values[f"{c}_q50"] <= values[f"{c}_q95"]:
                problems.append(f"{c} quantiles out of order at t={row['t']}")
                break
        total = values["u_mean"] + values["v_mean"]
        if not 0.0 <= total <= bound:
            problems.append(f"u_mean + v_mean = {total} outside [0, {bound}] "
                            f"at t={row['t']}")
            break
    return problems


def _check_convergence(out: Path, cfg: dict) -> list[str]:
    with open(out / "convergence.json", encoding="utf-8") as fp:
        report = json.load(fp)
    problems = []
    if not 0.8 <= report["slope"] <= 1.2:
        problems.append(f"Milstein slope {report['slope']} outside [0.8, 1.2]")
    if not report["residual"] < 0.3:
        problems.append(f"fit residual {report['residual']} is not < 0.3")
    if len(report["levels"]) != CONV_LEVELS:
        problems.append(f"{len(report['levels'])} levels, expected {CONV_LEVELS}")
    return problems


# ---------------------------------------------------------------------------

# Narrow lanes, many cells: run_batch's per-step overhead is the whole cost.
def _sweep(seed: int) -> Workload:
    cfg = {"params": FIG2, "x0": X0, "horizon": 100.0, "dt": 0.01,
           "scheme": "milstein", "n_paths": 10, "seed": seed}
    cells = len(SWEEP_M) * len(SWEEP_SIGMA)
    return Workload(
        command="sweep", config=cfg,
        extra_args=("--m-grid", ",".join(map(repr, SWEEP_M)),
                    "--sigma-grid", ",".join(map(repr, SWEEP_SIGMA))),
        artifacts=("sweep.csv",),
        lane_steps=cfg["n_paths"] * _steps(cfg) * cells,
        check=_check_sweep)


# Wide lanes and a 320 MB noise matrix: generation, per-element stepping, memory.
def _ensemble(seed: int) -> Workload:
    cfg = {"params": FIG1, "x0": X0, "horizon": 100.0, "dt": 0.01,
           "scheme": "milstein", "n_paths": 4000, "seed": seed,
           "record_stride": 50}
    return Workload(
        command="ensemble", config=cfg, extra_args=(),
        artifacts=("ensemble.csv",),
        lane_steps=cfg["n_paths"] * _steps(cfg),
        check=_check_ensemble)


# Six resolutions over one noise block: the only user of group_sums.
def _convergence(seed: int) -> Workload:
    horizon = 0.001
    cfg = {"params": FIG2, "x0": {"u": 2.0, "v": 9.8}, "horizon": horizon,
           "dt": horizon * 2.0 ** -11, "scheme": "milstein", "n_paths": 4000,
           "seed": seed}
    n_fine = _steps(cfg)
    return Workload(
        command="convergence", config=cfg,
        extra_args=("--levels", str(CONV_LEVELS)),
        artifacts=("convergence.json",),
        lane_steps=cfg["n_paths"] * sum(n_fine >> level
                                        for level in range(CONV_LEVELS + 1)),
        check=_check_convergence)


WORKLOADS = {
    "sweep_grid": _sweep,
    "ensemble_wide": _ensemble,
    "convergence": _convergence,
}


def build(name: str, seed: int) -> Workload:
    return WORKLOADS[name](seed)
