"""jobmarket benchmark: three closed-loop CLI workloads.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 bench/run.py --workload all            # every workload, one after another

Run from anywhere; the program is imported from ``src/`` next to this
directory and nothing is installed. One client calls
``jobmarket.cli.main`` in-process, one invocation after another, in a fresh
worker process, with configs generated from the workload seed. Only one
process runs the workload at a time and the benchmark starts no threads.

With ``--trace 0`` the last line of stdout is a JSON object holding the
end-to-end metrics of BENCHMARK.json; with ``--trace 1`` it holds the
per-layer metrics, from invocations traced by wrappers around each
module's entry points. The lines before it repeat the figures for a
reader, with units, sample counts, error rate and artifact digests.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
DEFAULT_SEED = 20240101
# a run must exit within 180 s, the last invocation included
TIME_LIMIT_S = 170.0


class BenchError(Exception):
    pass


def _spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fp:
        return json.load(fp)


def _python(script: str, *args: str, timeout: float) -> str:
    """Run a bench script in a fresh interpreter; return its stdout."""
    try:
        proc = subprocess.run([sys.executable, str(BENCH / script), *args],
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{script} did not finish within {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise BenchError(f"{script} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return proc.stdout


def end_to_end_metrics(result: dict) -> dict:
    wall = statistics.median(result["walls"])
    return {
        "wall_s": wall,
        "path_steps_per_s": result["lane_steps"] / wall,
        "peak_rss_mb": result["peak_rss_mb"],
        "setup_s": statistics.median(result["setup"]),
    }


def per_layer_metrics(result: dict) -> dict:
    return {
        **result["counts"],
        **result["times"],
        "trace.overhead_s": (statistics.median(result["traced_walls"])
                             - statistics.median(result["walls"])),
    }


def run_workload(name: str, seed: int, seconds: float, trace: int) -> tuple[dict, list[str]]:
    """Run one workload; return (the result object, lines for a reader)."""
    wl = workloads.build(name, seed)
    work = WORK / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        (work / "config.json").write_text(json.dumps(wl.config))
        (work / "warmup.json").write_text(json.dumps(wl.warmup_config()))
        result_file = work / "result.json"
        _python("worker.py", "--workload", name, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", str(trace),
                "--src", str(SRC), "--work", str(work), "--result", str(result_file),
                timeout=TIME_LIMIT_S)
        result = json.loads(result_file.read_text())
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if not result["walls"] or (trace and not result["traced_walls"]):
        raise BenchError(f"{name}: no invocation succeeded: {result['errors']}")

    spec = _spec()
    if trace:
        values = per_layer_metrics(result)
        wanted = spec["per_layer"]
    else:
        values = end_to_end_metrics(result)
        wanted = spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise BenchError(f"{name}: metrics not measured: {missing}")

    attempted, failed = result["attempted"], result["failed"]
    walls = result["walls"]
    lines = [f"workload {name}  seed {seed}  trace {trace}  (closed loop, 1 client, "
             f"{attempted} invocations incl. 1 warm-up)"]
    lines.extend(f"  {m['name']:<40} {values[m['name']]:>16.6g} {m['unit']}"
                 for m in wanted)
    if not trace:
        lines.append(f"  wall_s samples: {len(walls)}, min {min(walls):.4f} s, "
                     f"max {max(walls):.4f} s; setup_s samples: {len(result['setup'])}")
    lines.append(f"  {'error_rate':<40} {failed / attempted:>16.6g} "
                 f"({failed} failed / {attempted} attempted)")
    lines.extend(f"  error: {e}" for e in result["errors"])
    for artifact, info in sorted(result["artifacts"].items()):
        lines.append(f"  artifact {artifact}: {info['bytes']} bytes, "
                     f"sha256 {info['sha256']}")
    if trace:
        lines.append(f"  self time share of cli.main (median over "
                     f"{len(result['traced_walls'])} traced invocations):")
        shares = sorted(result["self_shares"].items(), key=lambda kv: -kv[1])
        lines.extend(f"    {layer:<36} {share:7.1%}" for layer, share in shares)
        trace_dir = WORK / "trace"
        trace_dir.mkdir(parents=True, exist_ok=True)
        spans_file = trace_dir / f"{name}-seed{seed}.json"
        spans_file.write_text(json.dumps(
            {"columns": ["name", "start_s", "end_s", "parent"],
             "invocations": result["spans"], "counts": result["counts"]}))
        lines.append(f"  spans written to {spans_file.relative_to(ROOT)}")
        if result["untraced_targets"]:
            lines.append("  not in the program, so reported as zero: "
                         + ", ".join(result["untraced_targets"]))

    out = {"correct": failed == 0, "attempted": attempted, "failed": failed,
           "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                       for m in wanted}}
    return out, lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured time per run (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM unwinds like an error: subprocess.run kills and reaps the worker
    # and the work directory is removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not 0 <= args.seed < 2**64:
        parser.error("--seed must fit in 64 bits")
    if not (SRC / "jobmarket" / "cli.py").is_file():
        print(f"error: no jobmarket sources under {SRC}", file=sys.stderr)
        return 2
    try:
        seconds = args.seconds if args.seconds is not None else _spec()["run_seconds"]
        names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
        outcomes = []
        for name in names:
            out, lines = run_workload(name, args.seed, seconds, args.trace)
            print("\n".join(lines), flush=True)
            outcomes.append(out)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for out in outcomes:
        print(json.dumps(out))
    return 0 if all(out["correct"] for out in outcomes) else 1


if __name__ == "__main__":
    sys.exit(main())
