"""Repeated-trial accuracy evaluation under device variation.

The paper repeats every experiment 5 times with fresh CCV draws and
reports the average (Section IV). :func:`evaluate_deployment` does
exactly that around a :class:`repro.core.pipeline.Deployer` — and,
because the trials are independent programming cycles, shards them
across worker processes via :mod:`repro.parallel` when ``jobs != 1``.
Parallel runs are bit-identical to serial at the same seed (per-trial
``SeedSequence``-spawned streams).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import List, Optional

import numpy as np

from repro.core.pipeline import Deployer
from repro.data.loaders import Dataset
from repro.nn.trainer import evaluate_accuracy
from repro.obs.trace import span
from repro.parallel import run_trials
from repro.utils.rng import RngLike


@dataclass
class TrialResult:
    """Accuracy statistics over independent programming cycles."""

    accuracies: List[float]

    @property
    def mean(self) -> float:
        return float(np.mean(self.accuracies))

    @property
    def std(self) -> float:
        return float(np.std(self.accuracies))

    @property
    def n_trials(self) -> int:
        return len(self.accuracies)

    def __str__(self) -> str:
        return f"{self.mean:.4f} ± {self.std:.4f} ({self.n_trials} trials)"


def _deploy_and_score(deployer: Deployer, test_data: Dataset,
                      batch_size: int, trial: int,
                      rng: np.random.Generator) -> float:
    """One programming-cycle trial: program, then score the deployment.

    Module-level so ``functools.partial`` over it pickles into worker
    processes.
    """
    deployed = deployer.program(rng=rng)
    with span("deploy.eval", trial=trial):
        return evaluate_accuracy(deployed, test_data, batch_size)


def evaluate_deployment(deployer: Deployer, test_data: Dataset,
                        n_trials: int = 5, rng: RngLike = None,
                        batch_size: int = 256,
                        jobs: Optional[int] = 1) -> TrialResult:
    """Program the crossbars ``n_trials`` times and score each deployment.

    Each trial redraws all programming noise (the paper's cycle-to-cycle
    behaviour) and, if the deployer's config enables it, reruns PWT —
    PWT is post-writing, so it must adapt to every fresh write.

    ``jobs`` shards the trials across worker processes (``0``/``None``
    = one per core, ``1`` = serial); accuracies are identical either
    way. A raising trial is retried once, then recorded as a fault,
    which raises here.
    """
    if n_trials < 1:
        raise ValueError("n_trials must be >= 1")
    run = run_trials(partial(_deploy_and_score, deployer, test_data,
                             batch_size),
                     n_trials, seed=rng, jobs=jobs)
    return TrialResult(accuracies=run.results())


def ideal_accuracy(deployer: Deployer, test_data: Dataset,
                   batch_size: int = 256) -> float:
    """Accuracy of the noise-free quantized reference model."""
    return evaluate_accuracy(deployer.ideal_model(), test_data, batch_size)
