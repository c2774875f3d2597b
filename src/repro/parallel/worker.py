"""Worker-process bootstrap for the parallel trial executor.

A :class:`TrialTask` is the complete, picklable description of one
Monte-Carlo trial: the trial index, its seed material (a
``SeedSequence`` child — see :mod:`repro.parallel.rngshard`) and the
trial callable. :func:`run_trial_task` is the module-level entry point
``ProcessPoolExecutor`` invokes in the child; it

1. synchronises the child's observability switch with the parent's
   (``obs_active``) and **resets** the child-global tracer/metrics —
   pool workers are reused across trials, and fork-started children
   inherit the parent's recorded state, so without the reset a trial's
   payload would smuggle foreign spans back;
2. rebuilds the trial generator and runs the callable, converting any
   exception into an error payload (a raising trial must not poison the
   pool);
3. snapshots the child's metrics registry and span records into the
   returned :class:`TrialPayload` so the parent can merge them
   (:mod:`repro.parallel.merge`) and ``--profile`` manifests stay
   complete.

Only the process backend routes through this module — serial and thread
execution share the parent's registries directly and need no snapshot
round-trip.
"""

from __future__ import annotations

import traceback as _traceback
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional

import numpy as np

from repro.obs.trace import TraceContext
from repro.parallel.rngshard import rng_for_trial
from repro.utils.rng import SeedLike

__all__ = ["TrialTask", "TrialPayload", "run_trial_task"]

#: Signature every trial callable follows: ``fn(trial_index, rng)``.
TrialFn = Callable[[int, np.random.Generator], Any]


@dataclass
class TrialTask:
    """One trial's shippable work order.

    ``fn=None`` means "use the grid callable the pool initializer
    broadcast to this worker" (:mod:`repro.parallel.broadcast`) — the
    process backend strips the shared callable from every task so each
    trial ships only its index and seed.
    """

    index: int
    seed: SeedLike
    fn: Optional[TrialFn]
    obs_active: bool = False
    #: Trace coordinates of the submitting span (``--profile`` runs):
    #: the worker binds them so its span tree re-roots under the
    #: parent's ``parallel.trials`` span on merge.
    trace: Optional[TraceContext] = None


@dataclass
class TrialPayload:
    """What a worker sends back: result or error, plus obs snapshots."""

    index: int
    ok: bool
    result: Any = None
    error: Optional[str] = None          # repr() of the raised exception
    traceback: Optional[str] = None
    duration_s: float = 0.0
    metrics: Optional[Dict[str, Any]] = None
    spans: Optional[List[Dict[str, Any]]] = field(default=None)


def run_trial_task(task: TrialTask) -> TrialPayload:
    """Execute one trial inside a worker process (see module docs)."""
    from repro.obs import metrics as obs_metrics
    from repro.obs import runtime as obs_runtime
    from repro.obs import trace as obs_trace

    if task.obs_active:
        obs_runtime.enable()
    else:
        obs_runtime.disable()
    obs_trace.TRACER.reset()
    obs_metrics.REGISTRY.reset()
    if task.obs_active and task.trace is not None:
        obs_trace.TRACER.bind_context(task.trace)

    t0 = perf_counter()
    ok, result, error, tb = True, None, None, None
    try:
        fn = task.fn
        if fn is None:
            from repro.parallel.broadcast import broadcast_fn
            fn = broadcast_fn()
            if fn is None:
                raise RuntimeError(
                    "task carries no callable and no grid broadcast is "
                    "installed in this worker")
        result = fn(task.index, rng_for_trial(task.seed))
    except Exception as exc:            # noqa: BLE001 — shipped to parent
        ok, result = False, None
        error, tb = repr(exc), _traceback.format_exc()
    duration = perf_counter() - t0

    metrics_snapshot = spans = None
    if task.obs_active:
        metrics_snapshot = obs_metrics.REGISTRY.snapshot()
        spans = obs_trace.TRACER.records()
        obs_trace.TRACER.reset()
        obs_metrics.REGISTRY.reset()
    return TrialPayload(index=task.index, ok=ok, result=result, error=error,
                        traceback=tb, duration_s=duration,
                        metrics=metrics_snapshot, spans=spans)
