"""One workload in a fresh process: a single closed-loop client that calls
``jobmarket.cli.main`` in-process, one invocation after another.

Run by ``run.py``; writes one JSON result file. Every invocation writes
into its own directory, and its artifacts must hash identically to the
first invocation's. Peak RSS is read before the output checks parse the
artifacts, so it is the workload's own. Untraced runs also take the
set-up samples, each from a fresh interpreter started between
invocations; the worker waits for it, so one process runs at a time.

    python3 bench/worker.py --workload NAME --seed N --seconds S --trace 0|1
        --src DIR --work DIR --result FILE
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import resource
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import tracing
import workloads

PROBE = Path(__file__).resolve().parent / "probe_setup.py"
SETUP_SAMPLES = 11
# a run outlasts --seconds until it has this many timed invocations, so that
# a slow host still gives a median of 7, but starts none after twice
# --seconds, which bounds the run
MIN_INVOCATIONS = 7


def probe_setup(src: str, config: Path) -> float:
    """Set-up time of one fresh interpreter, as probe_setup.py reports it."""
    proc = subprocess.run([sys.executable, str(PROBE), src, str(config)],
                          capture_output=True, text=True, timeout=60)
    if proc.returncode != 0:
        raise SystemExit(f"set-up probe failed: {proc.stderr.strip()[-2000:]}")
    return float(proc.stdout)


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fp:
        for block in iter(lambda: fp.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _artifacts(out: Path) -> dict[str, dict]:
    return {p.name: {"sha256": _sha256(p), "bytes": p.stat().st_size}
            for p in sorted(out.iterdir())}


class Client:
    """Invokes the CLI and checks each invocation's artifacts."""

    def __init__(self, wl: workloads.Workload, work: Path):
        self.wl = wl
        self.work = work
        self.config = work / "config.json"
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.reference: dict | None = None
        self.last_out: Path | None = None

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 10:
            self.errors.append(message)

    def invoke(self, main, config: Path, label: str) -> float | None:
        """Run one invocation; return its wall time, or None if it failed."""
        out = self.work / label
        shutil.rmtree(out, ignore_errors=True)
        argv = self.wl.argv(config, out)
        self.attempted += 1
        t0 = perf_counter()
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception as exc:  # counted as a failed invocation
            rc = f"{type(exc).__name__}: {exc}"
        wall = perf_counter() - t0
        if rc != 0:
            self.fail(f"{label}: exit {rc}")
            return None
        return wall

    def timed(self, main, label: str) -> float | None:
        """An invocation of the workload config whose artifacts must match
        the first one's byte for byte."""
        wall = self.invoke(main, self.config, label)
        if wall is None:
            return None
        out = self.work / label
        found = _artifacts(out)
        if sorted(found) != sorted(self.wl.artifacts):
            self.fail(f"{label}: artifacts {sorted(found)}, expected "
                       f"{sorted(self.wl.artifacts)}")
            return None
        if self.reference is None:
            self.reference = found
        elif found != self.reference:
            self.fail(f"{label}: artifacts differ from the first invocation's")
            return None
        if self.last_out is not None and self.last_out != out:
            shutil.rmtree(self.last_out, ignore_errors=True)
        self.last_out = out
        return wall

    def check_model(self, n_ok: int) -> None:
        """Model checks on the last artifacts; all invocations wrote the same
        bytes, so a failure here fails every one of them."""
        if self.last_out is None:
            return
        try:
            problems = self.wl.check(self.last_out, self.wl.config)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            problems = [f"artifacts do not parse: {type(exc).__name__}: {exc}"]
        if problems:
            self.failed += n_ok
            self.errors.extend(problems[:10])


def run(args) -> dict:
    sys.path.insert(0, args.src)
    import jobmarket.cli as cli
    if not Path(cli.__file__).resolve().is_relative_to(Path(args.src).resolve()):
        raise SystemExit(f"jobmarket imported from {cli.__file__}, not {args.src}")

    wl = workloads.build(args.workload, args.seed)
    work = Path(args.work)
    client = Client(wl, work)
    client.invoke(cli.main, work / "warmup.json", "warmup")
    # set-up probes are spread over the run, between invocations, so that
    # their median sees the same host load as the invocations; the first,
    # cold probe is dropped
    n_setup = 0 if args.trace else SETUP_SAMPLES
    if n_setup:
        probe_setup(args.src, client.config)
    setup: list[float] = []

    tracer = tracing.Tracer()
    traced_main = tracer.wrap("cli.main", cli.main)
    plain, traced, per_invocation, shares, spans_out = [], [], [], [], []
    started = perf_counter()
    deadline = started + args.seconds
    while True:
        rep = len(plain) + len(traced)
        if args.trace and rep % 2 == 1:
            tracer.reset()
            with tracing.installed(tracer):
                wall = client.timed(traced_main, f"rep{rep}")
            if wall is not None:
                traced.append(wall)
                root = sum(s.end - s.start for s in tracer.spans if s.parent is None)
                if not 0.0 <= wall - root <= 1e-3 + 1e-3 * wall:
                    client.fail(f"rep{rep}: cli.main span {root} s does not "
                                 f"cover the traced wall {wall} s")
                per_invocation.append(tracing.layer_metrics(tracer))
                shares.append(tracing.self_time_shares(tracer.spans))
                t0 = tracer.spans[0].start
                spans_out.append([[s.name, s.start - t0, s.end - t0, s.parent]
                                  for s in tracer.spans])
        else:
            wall = client.timed(cli.main, f"rep{rep}")
            if wall is not None:
                plain.append(wall)
        due = math.ceil(n_setup * (perf_counter() - started) / args.seconds)
        while len(setup) < min(n_setup, due):
            setup.append(probe_setup(args.src, client.config))
        now = perf_counter()
        enough = len(plain) + len(traced) >= MIN_INVOCATIONS or now >= deadline + args.seconds
        if now >= deadline and ((enough and (traced or not args.trace)) or client.failed):
            break
    while len(setup) < n_setup:
        setup.append(probe_setup(args.src, client.config))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    client.check_model(len(plain) + len(traced))

    result = {
        "walls": plain,
        "traced_walls": traced,
        "setup": setup,
        "lane_steps": wl.lane_steps,
        "peak_rss_mb": peak_rss_mb,
        "artifacts": client.reference or {},
    }
    if per_invocation:
        counts = per_invocation[0][1]
        if any(other != counts for _, other in per_invocation[1:]):
            client.fail("counts differ between traced invocations")
        result["counts"] = counts
        result["times"] = {k: statistics.median(t[k] for t, _ in per_invocation)
                           for k in per_invocation[0][0]}
        result["self_shares"] = {k: statistics.median(s.get(k, 0.0) for s in shares)
                                 for k in shares[0]}
        result["spans"] = spans_out
        result["untraced_targets"] = tracing.missing_targets()
    result.update(attempted=client.attempted, failed=client.failed,
                  errors=client.errors)
    return result


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--src", required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--result", required=True)
    args = parser.parse_args()
    # SIGTERM unwinds like an error, so a running set-up probe is killed too
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    result = run(args)
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
