"""Parallel Monte-Carlo trial execution (``repro.parallel``).

Runs independent programming-cycle trials serially or across one
process pool, chosen by ``jobs``, with bit-identical-to-serial
determinism (``SeedSequence``-spawned per-trial streams),
retry-once-then-record-fault robustness, a whole-grid serial fallback
when the pool cannot run, and worker→parent observability merging. See
:mod:`repro.parallel.executor` for the full contract.

Quick use::

    from repro.parallel import run_trials

    run = run_trials(fn, n_trials=8, seed=0, jobs=4)   # fn(trial, rng)
    values = run.results()      # trial-index order, faults raise

The deployment pipeline exposes this via ``Deployer.evaluate(...)``,
``repro.eval.accuracy.evaluate_deployment(..., jobs=...)``, the
experiment runners' ``jobs=`` parameters, and the CLI's ``--jobs/-j``.

On the process path the grid callable is pickled once per grid and
broadcast to each worker through the pool initializer — with large
read-only arrays riding ``multiprocessing.shared_memory`` where
available (:mod:`repro.parallel.broadcast`) — instead of being
re-pickled into every trial task.
"""

from repro.parallel.broadcast import (broadcast_fn, encode_broadcast,
                                      install_broadcast, release_segments,
                                      shm_enabled)
from repro.parallel.executor import (RETRIES, TrialFaultError, TrialOutcome,
                                     TrialRun, resolve_jobs, run_trials)
from repro.parallel.merge import merge_trial_payload
from repro.parallel.rngshard import rng_for_trial, trial_seeds
from repro.parallel.worker import TrialPayload, TrialTask, run_trial_task

__all__ = [
    "RETRIES", "TrialFaultError", "TrialOutcome",
    "TrialRun", "resolve_jobs", "run_trials", "merge_trial_payload",
    "trial_seeds", "rng_for_trial", "TrialTask", "TrialPayload",
    "run_trial_task", "broadcast_fn", "encode_broadcast",
    "install_broadcast", "release_segments", "shm_enabled",
]
