"""Parallel Monte-Carlo trial executor.

The paper's headline numbers average accuracy over independent
programming cycles: every trial re-samples the CCV noise, re-runs the
deployment pipeline and re-evaluates — embarrassingly parallel work.
:func:`run_trials` runs such a trial grid on one of two paths, chosen
by the resolved ``jobs``:

* **serial** (``jobs == 1``) — trials run in the caller's thread;
* **process** (``jobs > 1``) — trials run in one
  ``ProcessPoolExecutor``. The grid callable is pickled once and
  broadcast to every worker through the pool initializer, with large
  arrays riding shared memory (:mod:`repro.parallel.broadcast`).

If the callable does not pickle, the pool cannot start, or the pool
breaks mid-grid, the whole grid reruns serially: one warning, one
``parallel.serial_fallbacks`` count, and ``TrialRun.backend ==
"serial"``. Either way three guarantees hold:

**Determinism.** Per-trial generators come from ``SeedSequence.spawn``
children (:mod:`repro.parallel.rngshard`), the same streams on both
paths, and results are collected by trial index — so ``jobs=N`` is
bit-identical to ``jobs=1`` at the same seed.

**Robustness.** A trial that raises is retried :data:`RETRIES` time(s)
and then recorded as a fault instead of aborting the grid. Faulted
grids surface as :class:`TrialFaultError` when results are collected.

**Observability.** Worker processes snapshot their span/metric state
into the returned payloads and the executor merges them back into the
parent registries (:mod:`repro.parallel.merge`), so a ``--profile``
manifest of a ``--jobs 4`` run reports the same trial counters a
serial run would.
"""

from __future__ import annotations

import os
from concurrent.futures import FIRST_COMPLETED, Future
from concurrent.futures import ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from time import perf_counter
from traceback import format_exc
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.obs import metrics as obs_metrics
from repro.obs import runtime as obs_runtime
from repro.obs import trace as obs_trace
from repro.obs.trace import span
from repro.parallel.broadcast import (encode_broadcast, install_broadcast,
                                      release_segments)
from repro.parallel.merge import merge_trial_payload
from repro.parallel.rngshard import rng_for_trial, trial_seeds
from repro.parallel.worker import TrialFn, TrialPayload, TrialTask, run_trial_task
from repro.utils.logging import get_logger
from repro.utils.rng import RngLike, SeedLike

logger = get_logger(__name__)

__all__ = ["RETRIES", "TrialFaultError", "TrialOutcome", "TrialRun",
           "resolve_jobs", "run_trials"]

#: Extra attempts granted to a failing trial before it is recorded as
#: a fault (the retry-once-then-fault contract).
RETRIES = 1


def resolve_jobs(jobs: Optional[int], n_trials: int) -> int:
    """Effective worker count: ``None``/``0`` = one per core, capped.

    Explicit values pass through (still capped by the trial count so a
    ``--jobs 8`` two-trial run does not spawn six idle workers);
    negative values are rejected.
    """
    if jobs is None or jobs == 0:
        jobs = os.cpu_count() or 1
    if jobs < 0:
        raise ValueError(f"jobs must be >= 0 (0 = auto), got {jobs}")
    return max(1, min(jobs, max(n_trials, 1)))


@dataclass
class TrialOutcome:
    """Everything recorded about one trial of a grid."""

    index: int
    result: Any = None
    error: Optional[str] = None
    traceback: Optional[str] = None
    attempts: int = 0
    duration_s: float = 0.0

    @property
    def ok(self) -> bool:
        """Whether the trial produced a result (no recorded fault)."""
        return self.error is None


class TrialFaultError(RuntimeError):
    """Raised when results are collected from a grid with faulted trials."""

    def __init__(self, faults: Sequence[TrialOutcome]) -> None:
        self.faults = list(faults)
        detail = "; ".join(f"trial {f.index}: {f.error} ({f.attempts} attempts)"
                           for f in self.faults)
        super().__init__(
            f"{len(self.faults)} trial(s) faulted after retry: {detail}")


@dataclass
class TrialRun:
    """The outcome of one trial grid, in trial-index order."""

    outcomes: List[TrialOutcome]
    backend: str
    jobs: int

    @property
    def faults(self) -> List[TrialOutcome]:
        """The trials that still had no result after their retries."""
        return [o for o in self.outcomes if not o.ok]

    def results(self, strict: bool = True) -> List[Any]:
        """Per-trial results in index order.

        With ``strict`` (the default) a grid containing faults raises
        :class:`TrialFaultError` — silently averaging over missing
        trials would corrupt the statistics the paper reports. With
        ``strict=False`` faulted trials are skipped.
        """
        faults = self.faults
        if faults and strict:
            raise TrialFaultError(faults)
        return [o.result for o in self.outcomes if o.ok]


def run_trials(fn: TrialFn, n_trials: int, seed: RngLike = None,
               seeds: Optional[Sequence[SeedLike]] = None,
               jobs: Optional[int] = 1) -> TrialRun:
    """Execute ``fn(trial, rng)`` for every trial of the grid.

    ``seed`` spawns the per-trial streams; ``seeds`` instead supplies
    pre-spawned ones (e.g. a slice of a larger experiment's grid).
    ``jobs`` defaults to 1 (serial) so library call sites opt into
    parallelism explicitly; ``None``/``0`` means one worker per core
    (the CLI's ``--jobs`` default). Returns a :class:`TrialRun` whose
    outcomes are in trial order.
    """
    if n_trials < 0:
        raise ValueError(f"n_trials must be >= 0, got {n_trials}")
    grid_seeds = trial_seeds(seed, n_trials, seeds)
    jobs = resolve_jobs(jobs, n_trials)
    obs_active = obs_runtime.enabled()

    with span("parallel.trials", jobs=jobs, trials=n_trials):
        obs_metrics.inc("parallel.trials_launched", n_trials)
        # Captured *inside* the grid span: workers bind it so every
        # per-trial span tree re-roots under this parallel.trials span
        # on merge.
        context = obs_trace.current_trace_context() if obs_active else None
        tasks = [TrialTask(index=i, seed=s, obs_active=obs_active,
                           trace=context)
                 for i, s in enumerate(grid_seeds)]
        outcomes = _run_process(fn, tasks, jobs) if jobs > 1 else None
        backend = "process"
        if outcomes is None:
            backend = "serial"
            outcomes = _run_serial(fn, tasks)
        for outcome in outcomes:
            # Per-trial wall time feeds the percentile reservoir:
            # --profile manifests report trial.wall_s p50/p95/p99.
            obs_metrics.observe("trial.wall_s", outcome.duration_s)
    faults = [o for o in outcomes if not o.ok]
    if faults:
        obs_metrics.inc("parallel.trial_faults", len(faults))
        for fault in faults:
            # Keyed by trial index so `repro obs diff` can localize
            # which trials degrade, not just how many.
            obs_metrics.observe("parallel.fault", fault.index)
        logger.warning("%d/%d trial(s) faulted (backend=%s)",
                       len(faults), n_trials, backend)
    return TrialRun(outcomes=outcomes, backend=backend, jobs=jobs)


def _outcome(payload: TrialPayload, attempts: int) -> TrialOutcome:
    return TrialOutcome(index=payload.index, result=payload.result,
                        error=payload.error, traceback=payload.traceback,
                        attempts=attempts, duration_s=payload.duration_s)


def _count_retry(index: int) -> None:
    obs_metrics.inc("parallel.trial_retries")
    obs_metrics.observe("parallel.retry", index)


def _run_inline(fn: TrialFn, task: TrialTask) -> TrialPayload:
    """Run one trial in the caller's thread.

    Shares the parent's obs registries directly, so no snapshot is
    taken — only the error capture matches :func:`run_trial_task`.
    """
    t0 = perf_counter()
    try:
        result = fn(task.index, rng_for_trial(task.seed))
    except Exception as exc:            # noqa: BLE001 — recorded as fault
        return TrialPayload(index=task.index, ok=False, error=repr(exc),
                            traceback=format_exc(),
                            duration_s=perf_counter() - t0)
    return TrialPayload(index=task.index, ok=True, result=result,
                        duration_s=perf_counter() - t0)


def _run_serial(fn: TrialFn, tasks: List[TrialTask]) -> List[TrialOutcome]:
    """In-caller-thread execution with retry-then-fault."""
    outcomes = []
    for task in tasks:
        attempts = 1
        payload = _run_inline(fn, task)
        while not payload.ok and attempts <= RETRIES:
            _count_retry(task.index)
            attempts += 1
            payload = _run_inline(fn, task)
        outcomes.append(_outcome(payload, attempts))
    return outcomes


def _run_process(fn: TrialFn, tasks: List[TrialTask],
                 jobs: int) -> Optional[List[TrialOutcome]]:
    """Process-pool execution; ``None`` asks the caller to run serially.

    ``fn`` is pickled ONCE here and broadcast to each worker via the
    pool initializer — per-trial submissions ship only an index and a
    seed. The ``with`` block waits for the workers to exit before the
    shared-memory segments are released.
    """
    try:
        blob, segments = encode_broadcast(fn)
    except Exception as exc:            # noqa: BLE001 — any pickling failure
        _warn_serial_fallback("trial callable does not pickle", exc)
        return None
    obs_metrics.inc("parallel.broadcasts")
    obs_metrics.inc("parallel.broadcast_payload_bytes", len(blob))
    if segments:
        obs_metrics.inc("parallel.broadcast_shm_bytes",
                        sum(seg.size for seg in segments))
    try:
        with ProcessPoolExecutor(max_workers=jobs,
                                 initializer=install_broadcast,
                                 initargs=(blob,)) as pool:
            settled = _drive_pool(pool, tasks)
    except (OSError, NotImplementedError, ImportError) as exc:
        _warn_serial_fallback("cannot start a process pool", exc)
        return None
    except BrokenProcessPool as exc:
        _warn_serial_fallback("process pool broke mid-grid", exc)
        return None
    finally:
        release_segments(segments)

    if obs_runtime.enabled():
        parent_span = obs_trace.TRACER.current_span_id()
        for payload, _, offset in settled:
            merge_trial_payload(payload, parent_span_id=parent_span,
                                start_offset_s=offset)
    return [_outcome(payload, attempts) for payload, attempts, _ in settled]


def _warn_serial_fallback(reason: str, exc: BaseException) -> None:
    logger.warning("%s (%s: %s); rerunning the whole grid serially",
                   reason, type(exc).__name__, exc)
    obs_metrics.inc("parallel.serial_fallbacks")


def _drive_pool(pool: ProcessPoolExecutor,
                tasks: List[TrialTask]) -> List[Tuple[TrialPayload, int, float]]:
    """Submit every task, resubmitting a failed one up to RETRIES times.

    Returns each trial's final payload, attempt count and last
    submission time on the parent trace clock, in trial order. A broken
    pool propagates as :class:`BrokenProcessPool`.
    """
    attempts = [0] * len(tasks)
    offsets = [0.0] * len(tasks)
    final: Dict[int, TrialPayload] = {}
    pending: Dict[Future, TrialTask] = {}

    def submit(task: TrialTask) -> None:
        attempts[task.index] += 1
        offsets[task.index] = obs_trace.TRACER.now_s()
        pending[pool.submit(run_trial_task, task)] = task

    for task in tasks:
        submit(task)
    while pending:
        done, _ = wait(set(pending), return_when=FIRST_COMPLETED)
        for future in done:
            task = pending.pop(future)
            i = task.index
            exc = future.exception()
            if isinstance(exc, BrokenProcessPool):
                raise exc
            if exc is not None:
                # Infrastructure failure (e.g. the result did not
                # pickle) — same retry-then-fault path as a trial
                # exception.
                payload = TrialPayload(index=i, ok=False, error=repr(exc))
            else:
                payload = future.result()
            if not payload.ok and attempts[i] <= RETRIES:
                _count_retry(i)
                submit(task)
            else:
                final[i] = payload
    return [(final[i], attempts[i], offsets[i]) for i in range(len(tasks))]
