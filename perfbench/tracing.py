"""Spans and counters around the public functions of each `fairsaoml` module.

The program carries no instrumentation of its own, so the traced run wraps
functions from outside. `engine` and `cli` import names directly
(`from .model_core import split_batch`), so a wrapper is installed in every
module namespace that holds the original function, not only where it is
defined. Spans stay in memory; each has a name, start, end, parent span and
thread id, and a parent is always on the same thread, so self time is per
thread.
"""
from __future__ import annotations

import functools
import os
import sys
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

Span = Tuple[str, float, float, Optional[int], int]  # name, start, end, parent, thread


class Tracer:
    def __init__(self) -> None:
        self.spans: List[Optional[Span]] = []
        self.phases: List[Tuple[str, List[Span]]] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self._lock = threading.Lock()
        self._local = threading.local()

    def count(self, name: str, n: float = 1) -> None:
        with self._lock:
            self.counts[name] += n

    def timed(self, name: str, fn: Callable, on_result: Optional[Callable] = None) -> Callable:
        """Wrap `fn` in a span; `on_result(tracer, result, args)` adds counts."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = getattr(tracer._local, "stack", None)
            if stack is None:
                stack = tracer._local.stack = []
            parent = stack[-1] if stack else None
            with tracer._lock:
                index = len(tracer.spans)
                tracer.spans.append(None)
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans[index] = (name, start, end, parent, threading.get_ident())
            if on_result is not None:
                on_result(tracer, result, args)
            return result
        return wrapper

    def counted(self, name: str, fn: Callable) -> Callable:
        """Wrap `fn` with a call counter only, for functions too small for a span."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.count(name)
            return fn(*args, **kwargs)
        return wrapper

    def take(self, phase: str) -> Dict[str, float]:
        """Totals since the last take: `<span>:total`, `<span>:self`, `<span>:calls`
        and the counters. The spans move to `phases` under the given label."""
        spans = [s for s in self.spans if s is not None]
        if len(spans) != len(self.spans):
            raise RuntimeError("take() while a span is still open")
        child = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent is not None:
                child[parent] += end - start
        out: Dict[str, float] = defaultdict(float, self.counts)
        for i, (name, start, end, _, _) in enumerate(spans):
            out[f"{name}:total"] += end - start
            out[f"{name}:self"] += end - start - child[i]
            out[f"{name}:calls"] += 1
        self.phases.append((phase, spans))
        self.spans, self.counts = [], defaultdict(float)
        return out

    def write(self, path: str) -> None:
        """All spans taken so far, as JSON: one list of spans per phase, each span
        [name, start_s, end_s, parent index within the phase or null, thread id]."""
        import json
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([{"phase": p, "spans": spans} for p, spans in self.phases], fh)


def _on_round(tracer, record, args):
    tracer.count("engine.rounds")
    tracer.count("engine.active_expert_rounds", record.n_active)


def _on_activate(tracer, report, args):
    tracer.count("experts.activations", len(report))
    tracer.count("experts.inherited", sum(1 for _, inherited in report if inherited))


def _on_solver(tracer, result, args):
    tracer.count("metrics.solver_iterations", result.iterations)


def _on_trace_written(tracer, result, args):
    tracer.count("cli.trace_bytes", os.path.getsize(args[1]))


def _on_rows(tracer, batches, args):
    tracer.count("stream.rows", sum(b.size for b in batches))


def _layer(owner) -> str:
    """Span prefix: the module that defines a function or class, e.g. `engine`."""
    return (owner.__module__ if isinstance(owner, type) else owner.__name__).rsplit(".", 1)[-1]


class Patch:
    """Installs and removes the wrappers; `apply()` and `undo()` may alternate."""

    def __init__(self, tracer: Tracer) -> None:
        from fairsaoml import (cli, engine, experts, hedge, intervals, metrics,
                               model_core, optimizer, stream)
        timed = [
            (engine.Engine, "round", _on_round),
            (optimizer, "inner_adapt", None),
            (optimizer, "meta_update", None),
            (optimizer, "interval_lagrangian", None),
            (model_core, "split_batch", None),
            (intervals, "target_set", None),
            (experts.ExpertPool, "activate", _on_activate),
            (hedge, "normalize", None),
            (metrics, "fair_sar_estimate", None),
            (metrics, "static_regret", None),
            (metrics, "offline_minimizer", _on_solver),
            (cli, "read_trace", None),
            (cli, "write_trace", _on_trace_written),
            (cli, "write_rounds_csv", None),
            (cli, "aggregate_metrics_csv", None),
            (cli, "compute_report", None),
            (stream, "generate_stream", _on_rows),
            (stream, "save_csv", None),
            (stream, "load_csv", _on_rows),
        ]
        counted = [
            (model_core.TaskBatch, "subset"),
            (hedge, "update_rc"),
        ]
        modules = [m for name, m in sys.modules.items()
                   if name == "fairsaoml" or name.startswith("fairsaoml.")]
        self._sites: List[Tuple[object, str, Callable, Callable]] = []

        def install(owner, attr, wrap):
            original = getattr(owner, attr)
            wrapper = wrap(original)
            # a method is looked up on its class; a function in every module holding it
            for o in [owner] if isinstance(owner, type) else modules:
                self._sites += [(o, key, original, wrapper)
                                for key, value in vars(o).items() if value is original]

        for owner, attr, hook in timed:
            install(owner, attr, lambda fn: tracer.timed(f"{_layer(owner)}.{attr}", fn, hook))
        for owner, attr in counted:
            install(owner, attr, lambda fn: tracer.counted(f"{_layer(owner)}.{attr}_calls", fn))

    def apply(self) -> None:
        for owner, key, _, wrapper in self._sites:
            setattr(owner, key, wrapper)

    def undo(self) -> None:
        for owner, key, original, _ in self._sites:
            setattr(owner, key, original)


# name -> unit, in the order BENCHMARK.json lists them
LAYER_METRICS = {
    "engine.round_self_s": "s", "engine.rounds": "count", "engine.ms_per_round": "ms",
    "engine.active_expert_rounds": "count", "engine.ms_per_active_expert_round": "ms",
    "optimizer.inner_adapt_s": "s", "optimizer.inner_adapt_calls": "count",
    "optimizer.meta_update_s": "s", "optimizer.meta_update_calls": "count",
    "optimizer.interval_lagrangian_s": "s", "optimizer.interval_lagrangian_calls": "count",
    "model_core.split_batch_s": "s", "model_core.split_batch_calls": "count",
    "model_core.subset_calls": "count",
    "intervals.target_set_s": "s", "experts.activate_s": "s",
    "experts.activations": "count", "experts.inherited": "count",
    "hedge.normalize_s": "s", "hedge.update_rc_calls": "count",
    "metrics.fair_sar_estimate_s": "s", "metrics.static_regret_s": "s",
    "metrics.offline_minimizer_s": "s", "metrics.offline_minimizer_calls": "count",
    "metrics.solver_iterations": "count",
    "cli.read_trace_s": "s", "cli.write_trace_s": "s", "cli.write_rounds_csv_s": "s",
    "cli.aggregate_metrics_csv_s": "s", "cli.compute_report_s": "s", "cli.trace_bytes": "bytes",
    "stream.generate_stream_s": "s", "stream.save_csv_s": "s", "stream.load_csv_s": "s",
    "stream.rows": "count",
    "trace.traced_s": "s", "trace.untraced_s": "s", "trace.overhead_s": "s",
}


def layer_metrics(totals: Dict[str, float]) -> Dict[str, float]:
    """Per-layer figures from `Tracer.take()` totals; `<span>_s` is inclusive time
    summed over threads, `engine.round_self_s` excludes the wrapped callees."""
    t = defaultdict(float, totals)
    out = {}
    for name, unit in LAYER_METRICS.items():
        if name.startswith("trace."):
            continue
        if name.endswith("_calls") and f"{name[:-6]}:calls" in t:
            out[name] = t[f"{name[:-6]}:calls"]
        elif unit == "s":
            out[name] = t[f"{name[:-2]}:total"]
        else:
            out[name] = t[name]
    rounds, active = t["engine.rounds"], t["engine.active_expert_rounds"]
    out["engine.round_self_s"] = t["engine.round:self"]
    out["engine.ms_per_round"] = 1e3 * t["engine.round:total"] / rounds if rounds else 0.0
    out["engine.ms_per_active_expert_round"] = (
        1e3 * t["engine.round:total"] / active if active else 0.0)
    return out
