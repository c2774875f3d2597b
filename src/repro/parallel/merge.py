"""Merge worker-process observability payloads into the parent registry.

Process-pool trials record their spans and metrics into the *child*
process's globals; without a merge step a ``--profile`` run with
``--jobs 4`` would report a quarter of the work. After every trial grid
the executor hands each :class:`~repro.parallel.worker.TrialPayload`
(in trial order, so manifests are deterministic) to
:func:`merge_trial_payload`, which

* folds the child metrics snapshot into the parent registry — counters
  add, gauges last-write-win, histograms combine exactly
  (:meth:`repro.obs.metrics.MetricsRegistry.merge`);
* adopts the child span records under the executor's open span with
  fresh ids, remapped parent links and a rebased timeline
  (:meth:`repro.obs.trace.Tracer.adopt`), tagging each with the trial
  index and ``subprocess: True`` so per-trial breakdowns survive.

Serial grids write straight into the parent registries (they share the
process) and never reach this module.
"""

from __future__ import annotations

from typing import Optional

from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.parallel.worker import TrialPayload

__all__ = ["merge_trial_payload"]


def merge_trial_payload(payload: TrialPayload,
                        parent_span_id: Optional[int] = None,
                        start_offset_s: float = 0.0) -> int:
    """Fold one worker payload's obs state into the parent registries.

    ``parent_span_id`` anchors the child's root spans in the parent
    trace (normally the executor's ``parallel.trials`` span);
    ``start_offset_s`` shifts child-relative span start times onto the
    parent timeline (the child clock starts ~when the task launches).
    Returns the number of span records adopted.
    """
    if payload.metrics:
        obs_metrics.REGISTRY.merge(payload.metrics)
    adopted = 0
    if payload.spans:
        adopted = obs_trace.TRACER.adopt(
            payload.spans, parent_id=parent_span_id,
            start_offset_s=start_offset_s,
            extra_attrs={"trial": payload.index, "subprocess": True})
    obs_metrics.inc("parallel.payloads_merged")
    return adopted
