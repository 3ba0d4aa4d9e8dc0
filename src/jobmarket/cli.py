"""Command-line front end.

Subcommands: thresholds, simulate, ensemble, convergence, sweep. Every run
is driven by a JSON scenario config (strict schema, unknown keys are
errors) and writes CSV/JSON artifacts into the output directory. With a
fixed config and seed the output files are byte-identical across runs.

Exit codes: 0 success, 2 config or argument error (an output that cannot
be written included), 3 domain error (the stochastic thresholds are
undefined at sigma = 0), 4 numerical failure.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import sys
from pathlib import Path
from typing import Callable, Iterator, NamedTuple, Sequence, TextIO

# no numpy at import: analysis, brownian and integrators load it, so only
# the handlers that step import them, and --help, thresholds and a config
# error run without numpy
from . import __version__, scenarios
from ._rules import (Scheme, _as_finite_float, _check_coupling, _check_initial,
                     _check_paths, _check_stochastic, _check_stride, _resolve_steps)
from .errors import IntegrationError, ParameterError, ZeroNoiseError
from .model import ModelParams, State, classify_regime

_CONFIG_KEYS = {"params", "x0", "horizon", "dt", "scheme", "n_paths", "seed",
                "record_stride", "outputs"}
_REQUIRED_KEYS = {"params", "x0", "horizon", "dt", "scheme"}

DEFAULT_N_PATHS = 100
DEFAULT_SEED = 20240101


class ScenarioConfig(NamedTuple):
    params: ModelParams
    x0: State
    horizon: float
    dt: float
    scheme: Scheme
    n_paths: int
    seed: int
    record_stride: int
    outputs: str | None


def parse_config(data: dict) -> ScenarioConfig:
    """Check a config's format, then each value with the rule the run itself
    applies, taken from the function that applies it."""
    if not isinstance(data, dict):
        raise ParameterError("config must be a JSON object")
    unknown = set(data) - _CONFIG_KEYS
    if unknown:
        raise ParameterError(f"unknown config keys: {sorted(unknown)}")
    missing = _REQUIRED_KEYS - set(data)
    if missing:
        raise ParameterError(f"missing config keys: {sorted(missing)}")

    params = ModelParams.from_dict(data["params"])
    x0_raw = data["x0"]
    if not isinstance(x0_raw, dict) or set(x0_raw) != {"u", "v"}:
        raise ParameterError("config field 'x0' must be an object with keys u, v")
    x0 = State(_as_finite_float("x0.u", x0_raw["u"]),
               _as_finite_float("x0.v", x0_raw["v"]))
    _check_initial(*x0)

    horizon = _as_finite_float("horizon", data["horizon"])
    dt = _as_finite_float("dt", data["dt"])
    scheme = Scheme.parse(data["scheme"])
    n_paths = data.get("n_paths", DEFAULT_N_PATHS)
    seed = data.get("seed", DEFAULT_SEED)
    record_stride = data.get("record_stride", 1)
    outputs = data.get("outputs")
    if outputs is not None and not isinstance(outputs, str):
        raise ParameterError(f"config field 'outputs' must be a string, got {outputs!r}")

    n_steps = _resolve_steps(horizon, dt)
    _check_stride(n_steps, record_stride)
    _check_paths(seed, n_paths)

    return ScenarioConfig(params=params, x0=x0, horizon=horizon, dt=dt,
                          scheme=scheme, n_paths=n_paths, seed=seed,
                          record_stride=record_stride, outputs=outputs)


def load_config(source: str, overrides: dict | None = None) -> ScenarioConfig:
    """Read a config from a file path or a bundled scenario name.

    overrides (from the --seed and --paths flags) replace config fields
    before the config is validated, so they pass the same checks.
    """
    path = Path(source)
    if not path.is_file():
        bundled = scenarios.bundled_path(source)
        if bundled is None:
            raise ParameterError(
                f"config {source!r} is neither a file nor a bundled scenario "
                f"(bundled: {', '.join(scenarios.available())})")
        path = bundled
    try:
        with open(path, encoding="utf-8") as fp:
            data = json.load(fp)
    except json.JSONDecodeError as exc:
        raise ParameterError(f"config {path} is not valid JSON: {exc}") from None
    except OSError as exc:
        raise ParameterError(f"cannot read config {path}: {exc}") from None
    if overrides and isinstance(data, dict):
        data = {**data, **overrides}
    return parse_config(data)


@contextlib.contextmanager
def _out_dir(cfg: ScenarioConfig, args) -> Iterator[Path]:
    """The output directory, made with any missing parents; when the run in
    the with block fails, the directories made here go again while empty."""
    target = args.out if args.out is not None else cfg.outputs
    if target is None:
        raise ParameterError("no output directory: set 'outputs' in the config "
                             "or pass --out")
    out = Path(target)
    made = [d for d in (out, *out.parents) if not d.exists()]
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # a file in the way, no permission, ...
        raise ParameterError(f"cannot create output directory {out}: {exc}") from None
    try:
        yield out
    except BaseException:
        for d in made:  # innermost first; rmdir fails on one that is not empty
            with contextlib.suppress(OSError):
                d.rmdir()
        raise


def _write(path: Path, write: Callable[[TextIO], object]) -> None:
    """Write one artifact through write(fp); a path that cannot be written
    is an argument error, like an output directory that cannot be made."""
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fp:
            write(fp)
    except OSError as exc:
        raise ParameterError(f"cannot write {path}: {exc}") from None


def _say(args, message: str) -> None:
    if not args.quiet:
        print(message)


# ---------------------------------------------------------------------------
# subcommand handlers; each rejects bad input before numpy and --out are made

def _cmd_thresholds(cfg: ScenarioConfig, args) -> int:
    text = json.dumps(classify_regime(cfg.params).to_dict(), indent=2)
    with _out_dir(cfg, args) as out:
        _write(out / "thresholds.json", lambda fp: fp.write(text + "\n"))
    _say(args, text)
    return 0


def _cmd_simulate(cfg: ScenarioConfig, args) -> int:
    from . import brownian
    from .integrators import simulate

    with _out_dir(cfg, args) as out:
        # the CSVs read neither accumulator, so neither run keeps one
        deterministic = simulate(Scheme.RK4, cfg.params, cfg.x0, cfg.horizon,
                                 cfg.dt, record_stride=cfg.record_stride, outputs=())
        stochastic = deterministic  # an rk4 config has no noisy path of its own
        if cfg.scheme.is_stochastic:
            n_steps = _resolve_steps(cfg.horizon, cfg.dt)
            path = brownian.generate(cfg.seed, 0, cfg.dt, n_steps)
            stochastic = simulate(cfg.scheme, cfg.params, cfg.x0, cfg.horizon, cfg.dt,
                                  path=path, record_stride=cfg.record_stride, outputs=())
        _write(out / "stochastic.csv", stochastic.to_csv)
        _write(out / "deterministic.csv", deterministic.to_csv)
    _say(args, f"wrote {out / 'stochastic.csv'} and {out / 'deterministic.csv'} "
               f"({stochastic.clamp_count} clamps)")
    return 0


def _cmd_ensemble(cfg: ScenarioConfig, args) -> int:
    _check_stochastic(cfg.scheme)
    from . import analysis

    with _out_dir(cfg, args) as out:
        stats = analysis.ensemble(cfg.params, cfg.scheme, cfg.x0, cfg.horizon,
                                  cfg.dt, cfg.n_paths, cfg.seed,
                                  record_stride=cfg.record_stride)
        _write(out / "ensemble.csv", stats.to_csv)
    _say(args, f"wrote {out / 'ensemble.csv'} ({stats.n_paths} paths, "
               f"clamp rate {stats.clamp_rate!r})")
    return 0


def _cmd_convergence(cfg: ScenarioConfig, args) -> int:
    _check_coupling(cfg.scheme, args.levels, _resolve_steps(cfg.horizon, cfg.dt))
    from . import analysis

    with _out_dir(cfg, args) as out:
        report = analysis.strong_order(cfg.params, cfg.scheme, cfg.x0,
                                       cfg.horizon, dt_fine=cfg.dt,
                                       levels=args.levels, n_paths=cfg.n_paths,
                                       seed=cfg.seed)
        text = json.dumps(report.to_dict(), indent=2)
        _write(out / "convergence.json", lambda fp: fp.write(text + "\n"))
    _say(args, f"wrote {out / 'convergence.json'} (slope {report.slope!r}, "
               f"residual {report.residual!r})")
    return 0


def _parse_grid(text: str, name: str) -> list[float]:
    items = [piece for piece in (s.strip() for s in text.split(",")) if piece]
    if not items:
        raise ParameterError(f"{name} is empty")
    try:
        return [float(piece) for piece in items]
    except ValueError:
        raise ParameterError(f"{name} must be comma-separated numbers, got {text!r}") from None


def _cmd_sweep(cfg: ScenarioConfig, args) -> int:
    _check_stochastic(cfg.scheme)
    m_grid = _parse_grid(args.m_grid, "--m-grid")
    sigma_grid = _parse_grid(args.sigma_grid, "--sigma-grid")
    from . import analysis

    with _out_dir(cfg, args) as out:
        cells = analysis.regime_map(cfg.params, m_grid, sigma_grid,
                                    scheme=cfg.scheme, x0=cfg.x0,
                                    horizon=cfg.horizon, dt=cfg.dt,
                                    n_paths=cfg.n_paths, seed=cfg.seed)
        _write(out / "sweep.csv", lambda fp: analysis.regime_cells_to_csv(cells, fp))
    failed = sum(1 for c in cells if c.error is not None)
    _say(args, f"wrote {out / 'sweep.csv'} ({len(cells)} cells, {failed} failed)")
    return 0


# a run whose records cannot be allocated asked for too many steps: exit 2
_EXIT_CODES = {ParameterError: 2, MemoryError: 2, ZeroNoiseError: 3, IntegrationError: 4}

_HANDLERS = {
    "thresholds": _cmd_thresholds,
    "simulate": _cmd_simulate,
    "ensemble": _cmd_ensemble,
    "convergence": _cmd_convergence,
    "sweep": _cmd_sweep,
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process on first use: a fresh
    parser per call would leave a few hundred objects in reference cycles."""
    parser = argparse.ArgumentParser(
        prog="jobmarket",
        description="Simulation lab for a noisy free-jobs / labour-force model",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", required=True,
                       help="scenario JSON file or bundled name (fig1, fig2)")
        p.add_argument("--out", default=None,
                       help="output directory (overrides config 'outputs')")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config seed")
        p.add_argument("--paths", type=int, default=None,
                       help="override the config n_paths")
        p.add_argument("--quiet", action="store_true",
                       help="suppress informational output")

    common(sub.add_parser("thresholds", help="closed-form regime report"))
    common(sub.add_parser("simulate", help="one noisy path plus its "
                                           "deterministic companion"))
    common(sub.add_parser("ensemble", help="per-time statistics over many paths"))
    conv = sub.add_parser("convergence", help="empirical strong-order estimate")
    common(conv)
    conv.add_argument("--levels", type=int, default=5,
                      help="number of coarsening octaves above the config dt")
    sweep = sub.add_parser("sweep", help="regime map over an (m, sigma) grid")
    common(sweep)
    sweep.add_argument("--m-grid", required=True,
                       help="comma-separated m values")
    sweep.add_argument("--sigma-grid", required=True,
                       help="comma-separated sigma values")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        overrides = {"seed": args.seed, "n_paths": args.paths}
        cfg = load_config(args.config, {k: x for k, x in overrides.items() if x is not None})
        return _HANDLERS[args.command](cfg, args)
    except tuple(_EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for cls, code in _EXIT_CODES.items() if isinstance(exc, cls))


if __name__ == "__main__":
    sys.exit(main())
