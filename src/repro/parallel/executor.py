"""Parallel Monte-Carlo trial executor.

The paper's headline numbers average accuracy over independent
programming cycles: every trial re-samples the CCV noise, re-runs the
deployment pipeline and re-evaluates — embarrassingly parallel work
that the serial loops in :mod:`repro.eval.accuracy` and the experiment
runners used to burn one core on. :class:`TrialExecutor` shards such a
trial grid across a ``ProcessPoolExecutor`` while keeping three
guarantees:

**Determinism.** Per-trial generators come from ``SeedSequence.spawn``
children (:mod:`repro.parallel.rngshard`), the same streams the serial
loop uses, and results are collected by trial index — so ``jobs=N`` is
bit-identical to ``jobs=1`` at the same seed, on every backend.

**Robustness.** A trial that raises is retried once (configurable) and
then recorded as a fault instead of aborting the grid; with a per-trial
``timeout_s`` the process backend also times out hung trials
(retry-once-then-fault, the overdue worker is abandoned). Faulted
grids surface as :class:`TrialFaultError` when results are collected.

**Observability.** Worker processes snapshot their span/metric state
into the returned payloads and the executor merges them back into the
parent registries (:mod:`repro.parallel.merge`), so a ``--profile``
manifest of a ``--jobs 4`` run reports the same trial counters a
serial run would.

Backends: ``process`` (the default for ``jobs > 1``), ``thread`` (the
automatic fallback for pickling-hostile callables and platforms whose
process pools cannot start), and ``serial`` (``jobs=1``; runs in the
caller's thread exactly like the old loops). Timeouts are enforced on
the process backend only — a thread cannot be killed.
"""

from __future__ import annotations

import os
import pickle
from concurrent.futures import FIRST_COMPLETED, Future
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, replace
from time import perf_counter
from traceback import format_exc
from typing import Any, Dict, List, Optional, Sequence

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

__all__ = ["BACKENDS", "TrialExecutor", "TrialFaultError", "TrialOutcome",
           "TrialRun", "resolve_jobs", "run_trials"]

BACKENDS = ("process", "thread", "serial")


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
    timed_out: bool = False

    @property
    def ok(self) -> bool:
        """Whether the trial produced a result (no recorded fault)."""
        return self.error is None


class TrialFaultError(RuntimeError):
    """Raised when results are collected from a grid with faulted trials."""

    def __init__(self, faults: Sequence[TrialOutcome]) -> None:
        self.faults = list(faults)
        detail = "; ".join(
            f"trial {f.index}: "
            f"{'timeout' if f.timed_out else f.error} "
            f"({f.attempts} attempts)" for f in self.faults)
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


@dataclass
class _Pending:
    """Parent-side bookkeeping for one in-flight trial attempt."""

    task: TrialTask
    attempts: int = 1
    deadline: Optional[float] = None
    submitted_rel_s: float = 0.0
    timed_out_once: bool = False


def _inline_payload(task: TrialTask) -> TrialPayload:
    """Run a task in the current process (serial/thread backends).

    Shares the parent's obs registries directly, so no snapshot is
    taken — only the error capture matches :func:`run_trial_task`.
    """
    t0 = perf_counter()
    try:
        assert task.fn is not None      # inline tasks keep their callable
        result = task.fn(task.index, rng_for_trial(task.seed))
    except Exception as exc:            # noqa: BLE001 — recorded as fault
        return TrialPayload(index=task.index, ok=False, error=repr(exc),
                            traceback=format_exc(),
                            duration_s=perf_counter() - t0)
    return TrialPayload(index=task.index, ok=True, result=result,
                        duration_s=perf_counter() - t0)


def _picklable(task: TrialTask) -> bool:
    """Whether the task survives the trip to a worker process."""
    try:
        pickle.dumps(task)
        return True
    except Exception:                   # noqa: BLE001 — any failure = no
        return False


class TrialExecutor:
    """Runs independent Monte-Carlo trials, in parallel where possible.

    Parameters
    ----------
    jobs:
        Worker count; ``None``/``0`` means one per core (capped by the
        trial count), ``1`` forces serial execution.
    timeout_s:
        Optional per-trial wall-clock budget, enforced on the process
        backend (an overdue trial is retried once, then recorded as a
        timed-out fault; the stuck worker is abandoned).
    retries:
        Extra attempts granted to a failing/timed-out trial (default 1:
        the retry-once-then-record-fault contract).
    backend:
        Force ``"process"``, ``"thread"`` or ``"serial"`` instead of
        auto-selection. Pickling-hostile work demoted from process to
        thread is logged and counted (``parallel.thread_fallbacks``).
    """

    def __init__(self, jobs: Optional[int] = None,
                 timeout_s: Optional[float] = None, retries: int = 1,
                 backend: Optional[str] = None) -> None:
        if backend is not None and backend not in BACKENDS:
            raise ValueError(
                f"unknown backend {backend!r}; choose from {BACKENDS}")
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        if timeout_s is not None and timeout_s <= 0:
            raise ValueError(f"timeout_s must be positive, got {timeout_s}")
        self.jobs = jobs
        self.timeout_s = timeout_s
        self.retries = retries
        self.backend = backend

    # ------------------------------------------------------------------
    def run(self, fn: TrialFn, n_trials: int, seed: RngLike = None,
            seeds: Optional[Sequence[SeedLike]] = None) -> TrialRun:
        """Execute ``fn(trial, rng)`` for every trial of the grid.

        ``seed`` spawns the per-trial streams; ``seeds`` instead supplies
        pre-spawned ones (e.g. a slice of a larger experiment's grid).
        Returns a :class:`TrialRun` whose outcomes are in trial order.
        """
        if n_trials < 0:
            raise ValueError(f"n_trials must be >= 0, got {n_trials}")
        grid_seeds = trial_seeds(seed, n_trials, seeds)
        jobs = resolve_jobs(self.jobs, n_trials)
        obs_active = obs_runtime.enabled()
        tasks = [TrialTask(index=i, seed=s, fn=fn, obs_active=obs_active)
                 for i, s in enumerate(grid_seeds)]
        backend = self._choose_backend(jobs, tasks)

        with span("parallel.trials", backend=backend, jobs=jobs,
                  trials=n_trials):
            obs_metrics.inc("parallel.trials_launched", n_trials)
            if obs_active:
                # Capture the trace coordinates *inside* the grid span:
                # workers bind them so every per-trial span tree
                # re-roots under this parallel.trials span on merge.
                context = obs_trace.current_trace_context()
                for task in tasks:
                    task.trace = context
            if backend == "serial" or not tasks:
                outcomes = self._run_serial(tasks)
            elif backend == "thread":
                outcomes = self._run_pool(
                    tasks, ThreadPoolExecutor(max_workers=jobs),
                    process_mode=False)
            else:
                outcomes = self._run_process(tasks, jobs)
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

    # ------------------------------------------------------------------
    def _choose_backend(self, jobs: int, tasks: List[TrialTask]) -> str:
        """Pick (or validate) the execution backend for this grid."""
        backend = self.backend
        if backend is None:
            backend = "serial" if jobs == 1 else "process"
        if backend == "process" and tasks and not _picklable(tasks[0]):
            logger.warning(
                "trial callable does not pickle; falling back to the "
                "thread backend (no multi-core speedup)")
            obs_metrics.inc("parallel.thread_fallbacks")
            backend = "thread"
        return backend

    # ------------------------------------------------------------------
    def _run_serial(self, tasks: List[TrialTask]) -> List[TrialOutcome]:
        """In-caller-thread execution: the old loops, plus retry/fault."""
        outcomes = []
        for task in tasks:
            attempts = 0
            while True:
                attempts += 1
                payload = _inline_payload(task)
                if payload.ok or attempts > self.retries:
                    break
                obs_metrics.inc("parallel.trial_retries")
                obs_metrics.observe("parallel.retry", task.index)
            outcomes.append(TrialOutcome(
                index=task.index, result=payload.result, error=payload.error,
                traceback=payload.traceback, attempts=attempts,
                duration_s=payload.duration_s))
        return outcomes

    def _run_process(self, tasks: List[TrialTask],
                     jobs: int) -> List[TrialOutcome]:
        """Process-pool execution with a thread/serial safety net.

        The grid callable is identical across tasks (``run`` builds
        every task from one ``fn``), so it is pickled ONCE here and
        broadcast to each worker via the pool initializer; the tasks
        themselves travel with ``fn=None`` — per-trial submissions ship
        only an index and a seed. Large read-only arrays inside the
        callable ride shared memory where available
        (:mod:`repro.parallel.broadcast`).
        """
        blob, segments = encode_broadcast(tasks[0].fn)
        obs_metrics.inc("parallel.broadcasts")
        obs_metrics.inc("parallel.broadcast_payload_bytes", len(blob))
        if segments:
            obs_metrics.inc("parallel.broadcast_shm_bytes",
                            sum(seg.size for seg in segments))
        try:
            try:
                pool = ProcessPoolExecutor(max_workers=jobs,
                                           initializer=install_broadcast,
                                           initargs=(blob,))
            except (OSError, NotImplementedError, ImportError) as exc:
                logger.warning("cannot start a process pool (%s); falling "
                               "back to the thread backend", exc)
                obs_metrics.inc("parallel.thread_fallbacks")
                return self._run_pool(
                    tasks, ThreadPoolExecutor(max_workers=jobs),
                    process_mode=False)
            stripped = [replace(task, fn=None) for task in tasks]
            try:
                return self._run_pool(stripped, pool, process_mode=True)
            except BrokenProcessPool:
                logger.warning("process pool broke mid-grid; rerunning the "
                               "unfinished trials serially")
                obs_metrics.inc("parallel.serial_fallbacks")
                return self._run_serial(tasks)
        finally:
            release_segments(segments)

    def _run_pool(self, tasks: List[TrialTask], pool: Any,
                  process_mode: bool) -> List[TrialOutcome]:
        """Drive a futures pool with per-trial deadline/retry handling."""
        outcomes: List[Optional[TrialOutcome]] = [None] * len(tasks)
        payloads: List[Optional[TrialPayload]] = [None] * len(tasks)
        offsets: List[float] = [0.0] * len(tasks)
        runner = run_trial_task if process_mode else _inline_payload
        enforce_timeout = process_mode and self.timeout_s is not None
        pending: Dict[Future, _Pending] = {}

        def submit(state: _Pending) -> None:
            if enforce_timeout:
                state.deadline = perf_counter() + float(self.timeout_s or 0.0)
            state.submitted_rel_s = obs_trace.TRACER.now_s()
            pending[pool.submit(runner, state.task)] = state

        def settle(state: _Pending, payload: TrialPayload,
                   timed_out: bool = False) -> None:
            """Record the final attempt of a trial (success or fault)."""
            i = state.task.index
            outcomes[i] = TrialOutcome(
                index=i, result=payload.result, error=payload.error,
                traceback=payload.traceback, attempts=state.attempts,
                duration_s=payload.duration_s, timed_out=timed_out)
            payloads[i] = payload
            offsets[i] = state.submitted_rel_s

        def retry_or_settle(state: _Pending, payload: TrialPayload,
                            timed_out: bool = False) -> None:
            if state.attempts <= self.retries:
                state.attempts += 1
                state.timed_out_once = state.timed_out_once or timed_out
                obs_metrics.inc("parallel.trial_retries")
                obs_metrics.observe("parallel.retry", state.task.index)
                submit(state)
            else:
                settle(state, payload, timed_out=timed_out)

        try:
            for task in tasks:
                submit(_Pending(task=task))
            while pending:
                wait_s = None
                if enforce_timeout:
                    now = perf_counter()
                    wait_s = max(0.0, min(
                        s.deadline - now for s in pending.values()
                        if s.deadline is not None))
                done, _ = wait(set(pending), timeout=wait_s,
                               return_when=FIRST_COMPLETED)
                for future in done:
                    state = pending.pop(future)
                    exc = future.exception()
                    if isinstance(exc, BrokenProcessPool):
                        raise exc
                    if exc is not None:
                        # Infrastructure failure (e.g. the result did not
                        # pickle) — same retry-then-fault path as a trial
                        # exception.
                        payload = TrialPayload(
                            index=state.task.index, ok=False,
                            error=repr(exc), traceback=None)
                    else:
                        payload = future.result()
                    if payload.ok:
                        settle(state, payload)
                    else:
                        retry_or_settle(state, payload)
                if enforce_timeout:
                    now = perf_counter()
                    overdue = [f for f, s in pending.items()
                               if s.deadline is not None and now >= s.deadline]
                    for future in overdue:
                        state = pending.pop(future)
                        future.cancel()     # abandon the worker if running
                        obs_metrics.inc("parallel.trial_timeouts")
                        obs_metrics.observe("parallel.timeout",
                                            state.task.index)
                        payload = TrialPayload(
                            index=state.task.index, ok=False,
                            error=f"TimeoutError: trial exceeded "
                                  f"{self.timeout_s}s")
                        retry_or_settle(state, payload, timed_out=True)
        finally:
            # wait=False: a hung (timed-out) worker must not block the
            # grid; abandoned processes finish their task and exit.
            pool.shutdown(wait=False)

        if process_mode and obs_runtime.enabled():
            parent_span = obs_trace.TRACER.current_span_id()
            for i, payload in enumerate(payloads):
                if payload is not None:
                    merge_trial_payload(payload, parent_span_id=parent_span,
                                        start_offset_s=offsets[i])
        return [o for o in outcomes if o is not None]

    # ------------------------------------------------------------------
    def map(self, fn: TrialFn, n_trials: int, seed: RngLike = None,
            seeds: Optional[Sequence[SeedLike]] = None) -> List[Any]:
        """:meth:`run` + strict result collection, in trial order."""
        return self.run(fn, n_trials, seed=seed, seeds=seeds).results()


def run_trials(fn: TrialFn, n_trials: int, seed: RngLike = None,
               seeds: Optional[Sequence[SeedLike]] = None,
               jobs: Optional[int] = 1, timeout_s: Optional[float] = None,
               retries: int = 1, backend: Optional[str] = None) -> TrialRun:
    """One-shot convenience around :class:`TrialExecutor`.

    ``jobs`` defaults to 1 (serial) so library call sites opt into
    parallelism explicitly; the CLI's ``--jobs`` default is the
    cpu-count-aware ``0``.
    """
    executor = TrialExecutor(jobs=jobs, timeout_s=timeout_s, retries=retries,
                             backend=backend)
    return executor.run(fn, n_trials, seed=seed, seeds=seeds)
