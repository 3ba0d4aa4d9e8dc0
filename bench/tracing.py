"""Spans and counters recorded from outside the program.

The benchmark wraps each module's public entry points at the name its
caller looks up (``analysis`` binds ``run_batch`` at import, so the wrapper
goes on ``jobmarket.analysis.run_batch``), records a span per call, and
restores every attribute afterwards. Nothing under ``src/`` changes.

Spans are kept in memory as (name, start, end, parent) and written out
when the run ends. The program is single-threaded, so the children of a
span run one after another inside it and never overlap; a span's self
time is its duration minus the sum of its children's durations.
"""

from __future__ import annotations

import importlib
import inspect
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    counts: Counter = field(default_factory=Counter)
    generate_keys: set = field(default_factory=set)
    _stack: list[int] = field(default_factory=list)

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()
        self.generate_keys.clear()

    def wrap(self, name: str, fn: Callable, count: Callable | None = None) -> Callable:
        arg = _arg_reader(fn)

        def traced(*args, **kwargs):
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            # every writer takes the open text file as ``fp``; its position
            # before and after gives the bytes written
            fp = arg(args, kwargs, "fp") if name == "cli.write" else None
            before = fp.tell() if fp is not None else 0
            span = Span(name, perf_counter(), parent=parent)
            self.spans.append(span)
            self._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                span.end = perf_counter()
            self.counts[name + ".calls"] += 1
            if fp is not None:
                self.counts["cli.write.bytes"] += fp.tell() - before
            if count is not None:
                count(self, result, lambda key: arg(args, kwargs, key))
            return result

        return traced


def _arg_reader(fn: Callable) -> Callable:
    """Read an argument by parameter name, whether passed by position or keyword."""
    names = list(inspect.signature(fn).parameters)

    def read(args, kwargs, key):
        i = names.index(key)
        return args[i] if i < len(args) else kwargs[key]

    return read


# ---------------------------------------------------------------------------
# counters, taken after the wrapped call returns

def _count_generate(t: Tracer, result, arg) -> None:
    t.counts["brownian.generate.increments"] += arg("n_steps")
    t.generate_keys.add((arg("seed"), arg("path_index"), arg("dt"), arg("n_steps")))


def _count_group_sums(t: Tracer, result, arg) -> None:
    t.counts["brownian.group_sums.inputs"] += arg("increments").size


def _count_run_batch(t: Tracer, result, arg) -> None:
    n_steps = round(arg("horizon") / arg("dt"))
    t.counts["integrators.run_batch.time_steps"] += n_steps
    t.counts["integrators.run_batch.lane_steps"] += result.n_paths * n_steps
    t.counts["integrators.run_batch.clamps"] += int(result.clamp_counts.sum())
    dW = arg("dW")
    t.counts["integrators.run_batch.noise_bytes"] += 0 if dW is None else dW.nbytes


def _count_regime_map(t: Tracer, result, arg) -> None:
    t.counts["analysis.regime_map.cells"] += len(result)
    t.counts["analysis.regime_map.cells_ok"] += sum(c.error is None for c in result)


# (module, attribute, span name, counter); cli looks up analysis.* and
# brownian.* through the module at call time, analysis binds run_batch and
# classify_regime by name, cli binds load_config by name
TARGETS = (
    ("jobmarket.cli", "load_config", "cli.load_config", None),
    ("jobmarket.brownian", "generate", "brownian.generate", _count_generate),
    ("jobmarket.brownian", "group_sums", "brownian.group_sums", _count_group_sums),
    ("jobmarket.analysis", "run_batch", "integrators.run_batch", _count_run_batch),
    ("jobmarket.analysis", "simulate_paths", "analysis.simulate_paths", None),
    ("jobmarket.analysis", "ensemble", "analysis.ensemble", None),
    ("jobmarket.analysis", "regime_map", "analysis.regime_map", _count_regime_map),
    ("jobmarket.analysis", "strong_order", "analysis.strong_order", None),
    ("jobmarket.analysis", "classify_regime", "model.classify_regime", None),
    ("jobmarket.cli", "classify_regime", "model.classify_regime", None),
    ("jobmarket.analysis:EnsembleStats", "to_csv", "cli.write", None),
    ("jobmarket.analysis", "regime_cells_to_csv", "cli.write", None),
)


def _owner(spec: str):
    module, _, cls = spec.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


def missing_targets() -> list[str]:
    """Targets the program no longer defines; their layers report zero."""
    return [f"{spec}.{attr}" for spec, attr, _, _ in TARGETS
            if attr not in _owner(spec).__dict__]


@contextmanager
def installed(tracer: Tracer):
    """Wrap every target for the duration of the block, then restore it."""
    saved = []
    try:
        for spec, attr, name, count in TARGETS:
            owner = _owner(spec)
            if attr not in owner.__dict__:
                continue
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(name, original, count))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# per-invocation layer metrics

def self_and_busy(spans: list[Span]) -> tuple[dict, dict]:
    busy: dict[str, float] = {}
    own: dict[str, float] = {}
    child_time = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            child_time[span.parent] += span.end - span.start
    for i, span in enumerate(spans):
        dur = span.end - span.start
        busy[span.name] = busy.get(span.name, 0.0) + dur
        own[span.name] = own.get(span.name, 0.0) + dur - child_time[i]
    return busy, own


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


COUNTS = (
    "brownian.generate.calls", "brownian.generate.increments",
    "brownian.group_sums.calls", "brownian.group_sums.inputs",
    "integrators.run_batch.calls", "integrators.run_batch.time_steps",
    "integrators.run_batch.lane_steps", "integrators.run_batch.clamps",
    "integrators.run_batch.noise_bytes",
    "analysis.regime_map.cells", "cli.write.bytes", "model.classify_regime.calls",
)


def layer_metrics(tracer: Tracer) -> tuple[dict, dict]:
    """Return (times, counts) for one traced invocation.

    Counts, and the ratios of counts among them, repeat exactly across
    invocations of one workload; times do not. A layer the workload never
    calls reports zero. noise_bytes is computed from the array size.
    """
    busy, own = self_and_busy(tracer.spans)
    c = tracer.counts
    counts = {name: c[name] for name in COUNTS}
    counts["brownian.generate.distinct_ratio"] = _ratio(
        len(tracer.generate_keys), c["brownian.generate.calls"])
    counts["analysis.regime_map.cells_ok_ratio"] = _ratio(
        c["analysis.regime_map.cells_ok"], c["analysis.regime_map.cells"])

    def per(layer: str, count: str, scale: float) -> float:
        return _ratio(busy.get(layer, 0.0) * scale, c[count])

    times = {f"{layer}.busy_s": busy.get(layer, 0.0)
             for layer in ("brownian.generate", "brownian.group_sums",
                           "integrators.run_batch",
                           "cli.load_config", "cli.write", "cli.main")}
    times.update({f"{layer}.self_s": own.get(layer, 0.0)
                  for layer in ("analysis.simulate_paths", "analysis.ensemble",
                                "analysis.regime_map", "analysis.strong_order",
                                "cli.main")})
    times.update({
        "brownian.generate.ns_per_increment":
            per("brownian.generate", "brownian.generate.increments", 1e9),
        "brownian.group_sums.ns_per_input":
            per("brownian.group_sums", "brownian.group_sums.inputs", 1e9),
        "integrators.run_batch.us_per_time_step":
            per("integrators.run_batch", "integrators.run_batch.time_steps", 1e6),
        "integrators.run_batch.ns_per_lane_step":
            per("integrators.run_batch", "integrators.run_batch.lane_steps", 1e9),
        "cli.write.mb_per_s": _ratio(c["cli.write.bytes"] / 1e6,
                                     busy.get("cli.write", 0.0)),
    })
    return times, counts


def self_time_shares(spans: list[Span]) -> dict[str, float]:
    """Each span name's self time as a share of the root spans' time."""
    _, own = self_and_busy(spans)
    total = sum(s.end - s.start for s in spans if s.parent is None)
    return {name: _ratio(t, total) for name, t in own.items()}
