"""Per-layer instrumentation and trace analysis for the traced run.

:func:`install` wraps the public entry points of each layer of the
program in ``obs.span`` context managers, from outside: no ``src/`` file
changes, and only a traced child process calls it. Forward wrappers go on
the module *classes*, not instances, because ``Deployer`` deep-copies the
model for every programming cycle and a copied instance would keep a
wrapper bound to the original. The backend wrappers go on the active
backend instance, which every kernel call resolves.

:func:`analyze` turns the recorded spans and obs counters into the
per-layer metrics listed in ``BENCHMARK.json`` plus a layer table
(span name x calls x total x self time x share of the run).
"""

from __future__ import annotations

import functools
from pathlib import Path
from typing import Any, Callable, Dict, List, Mapping, Tuple

import numpy as np

from repro import obs
from repro.obs import analysis

#: metric -> (span name, aggregate); aggregates: total seconds ("sum"),
#: mean seconds per span ("mean"), span count ("count"), median span
#: duration in ms ("p50_ms").
SPAN_METRICS: Dict[str, Tuple[str, str]] = {
    "experiments.build_workload_s": ("experiments.build_workload", "sum"),
    "trainer.epoch_s": ("train.epoch", "mean"),
    "trainer.evaluate_s": ("trainer.evaluate", "sum"),
    "pipeline.init_s": ("pipeline.init", "sum"),
    "pipeline.calibrate_s": ("deploy.calibrate", "sum"),
    "pipeline.gradients_s": ("deploy.gradients", "sum"),
    "pipeline.vawo_s": ("deploy.vawo", "sum"),
    "pipeline.program_s": ("deploy.program", "sum"),
    "pipeline.bn_recalibrate_s": ("deploy.bn_recalibrate", "sum"),
    "pwt.run_s": ("pwt.run", "sum"),
    "nn.fwd_s.conv": ("nn.fwd.conv", "sum"),
    "nn.fwd_s.linear": ("nn.fwd.linear", "sum"),
    "nn.fwd_s.bn": ("nn.fwd.bn", "sum"),
    "nn.fwd_s.pool": ("nn.fwd.pool", "sum"),
    "nn.fwd_s.relu": ("nn.fwd.relu", "sum"),
    "nn.backward_s": ("nn.backward", "sum"),
    "backend.im2col_s": ("backend.im2col", "sum"),
    "backend.im2col.calls": ("backend.im2col", "count"),
    "backend.col2im_s": ("backend.col2im", "sum"),
    "backend.col2im.calls": ("backend.col2im", "count"),
    "backend.pool_windows_s": ("backend.pool_windows", "sum"),
    "backend.pool_windows.calls": ("backend.pool_windows", "count"),
    "backend.engine_vmm_s": ("backend.engine_vmm", "sum"),
    "backend.engine_vmm.calls": ("backend.engine_vmm", "count"),
    "array.program_s": ("array.program", "sum"),
    "cache.get_s": ("cache.get", "sum"),
    "cache.put_s": ("cache.put", "sum"),
    "xbar.engine_build_s": ("xbar.engine_build", "sum"),
    "xbar.forward_s.ideal": ("xbar.forward.ideal", "sum"),
    "xbar.forward_s.adc6": ("xbar.forward.adc6", "sum"),
    "serve.run_batch_ms.p50": ("serve.batch", "p50_ms"),
}

#: metric -> obs counter the program itself increments.
COUNTER_METRICS: Dict[str, str] = {
    "pwt.batches": "pwt.batches",
    "cache.hits": "cache.hits",
    "cache.misses": "cache.misses",
    "serve.shed": "serve.shed",
    "serve.expired": "serve.expired",
}

#: Per-layer numbers the workloads measure themselves (0 where unused).
WORKLOAD_METRICS = ("serve.batch_fill", "serve.generator_late_ms.p99",
                    "server.overhead_ms")


def _spanned(func: Callable, name: str) -> Callable:
    @functools.wraps(func)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        with obs.span(name):
            return func(*args, **kwargs)
    return wrapper


def install() -> None:
    """Open a span around every call into each measured layer."""
    from repro.array.sim import SimArray
    from repro.backend import get_backend
    from repro.cache import CacheStore
    from repro.core.crossbar_layers import CrossbarConv2d, CrossbarLinear
    from repro.core.pipeline import Deployer
    from repro.eval import experiments
    from repro.nn import layers as nn
    from repro.nn.tensor import Tensor

    forwards = {"conv": (nn.Conv2d, CrossbarConv2d),
                "linear": (nn.Linear, CrossbarLinear),
                "bn": (nn.BatchNorm2d,),
                "pool": (nn.MaxPool2d, nn.AvgPool2d, nn.GlobalAvgPool2d)}
    for kind, classes in forwards.items():
        for cls in classes:
            cls.forward = _spanned(cls.forward, f"nn.fwd.{kind}")
    # ResNet blocks call Tensor.relu directly; ReLU modules do too.
    Tensor.relu = _spanned(Tensor.relu, "nn.fwd.relu")
    Tensor.backward = _spanned(Tensor.backward, "nn.backward")
    backend = get_backend()
    for kernel in ("im2col", "col2im", "pool_windows", "engine_vmm"):
        setattr(backend, kernel,
                _spanned(getattr(backend, kernel), f"backend.{kernel}"))
    SimArray.program = _spanned(SimArray.program, "array.program")
    CacheStore.get = _spanned(CacheStore.get, "cache.get")
    CacheStore.put = _spanned(CacheStore.put, "cache.put")
    Deployer.__init__ = _spanned(Deployer.__init__, "pipeline.init")
    experiments.build_workload = _spanned(experiments.build_workload,
                                          "experiments.build_workload")


def _walk(nodes: List[analysis.SpanNode]) -> List[analysis.SpanNode]:
    out: List[analysis.SpanNode] = []
    stack = list(nodes)
    while stack:
        node = stack.pop()
        out.append(node)
        stack.extend(node.children)
    return out


def layer_table(tree: analysis.SpanTree) -> List[Dict[str, Any]]:
    """Span name x calls x total x self seconds x share of the run's wall
    time (self time over the root's duration), heaviest self time first."""
    wall = sum(root.duration_s for root in tree.roots) or 1.0
    rows: Dict[str, Dict[str, Any]] = {}
    for node in _walk(tree.roots):
        row = rows.setdefault(node.name, {"layer": node.name, "calls": 0,
                                          "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += node.duration_s
        row["self_s"] += node.self_s
    for row in rows.values():
        row["share"] = row["self_s"] / wall
    return sorted(rows.values(), key=lambda r: r["self_s"], reverse=True)


def render_table(rows: List[Mapping[str, Any]]) -> str:
    lines = [f"{'layer':<34}{'calls':>9}{'total_s':>12}{'self_s':>12}"
             f"{'share':>8}"]
    lines += [f"{r['layer']:<34}{r['calls']:>9}{r['total_s']:>12.4f}"
              f"{r['self_s']:>12.4f}{r['share']:>8.1%}" for r in rows]
    return "\n".join(lines)


def analyze(workload: str, out_dir: Path,
            workload_values: Mapping[str, float]) -> Tuple[
                Dict[str, float], bool]:
    """Per-layer metrics of the finished traced run.

    Writes ``<workload>-spans.jsonl``, ``<workload>-layers.txt`` and
    ``<workload>.folded`` (flamegraph input) to ``out_dir``. Returns the
    metrics and whether the trace is one rooted tree.
    """
    records = obs.trace.TRACER.records()
    tree = analysis.build_tree(records)
    snapshot = obs.metrics.REGISTRY.snapshot()
    durations: Dict[str, List[float]] = {}
    for node in _walk(tree.roots):
        durations.setdefault(node.name, []).append(node.duration_s)

    values: Dict[str, float] = {}
    for metric, (name, agg) in SPAN_METRICS.items():
        spans = durations.get(name, [])
        if not spans:
            values[metric] = 0.0
        elif agg == "sum":
            values[metric] = float(np.sum(spans))
        elif agg == "mean":
            values[metric] = float(np.mean(spans))
        elif agg == "count":
            values[metric] = float(len(spans))
        else:
            values[metric] = float(np.percentile(spans, 50)) * 1e3
    counters = snapshot["counters"]
    for metric, counter in COUNTER_METRICS.items():
        values[metric] = float(counters.get(counter, 0.0))
    values["pwt.batch_ms"] = (values["pwt.run_s"] * 1e3 / values["pwt.batches"]
                              if values["pwt.batches"] else 0.0)
    waits = snapshot["histograms"].get("serve.queue_wait_s", {})
    for q in ("p50", "p99"):
        value = waits.get(q)
        values[f"serve.queue_wait_ms.{q}"] = (float(value) * 1e3
                                              if value is not None else 0.0)
    for metric in WORKLOAD_METRICS:
        values[metric] = float(workload_values.get(metric, 0.0))

    out_dir.mkdir(parents=True, exist_ok=True)
    obs.write_spans_jsonl(out_dir / f"{workload}-spans.jsonl", records)
    (out_dir / f"{workload}-layers.txt").write_text(
        render_table(layer_table(tree)) + "\n")
    (out_dir / f"{workload}.folded").write_text(
        analysis.render_folded(analysis.fold_stacks(records)) + "\n")
    return values, tree.is_single_rooted()
