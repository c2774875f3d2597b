"""A compact supervised-training loop for the paper's workloads."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.data.loaders import Dataset, iterate_batches
from repro.nn import functional as F
from repro.nn.module import Module
from repro.nn.optim import Adam, Optimizer
from repro.nn.tensor import Tensor, no_grad
from repro.obs import metrics as obs_metrics
from repro.obs.trace import span
from repro.utils.logging import get_logger
from repro.utils.rng import RngLike, make_rng

logger = get_logger(__name__)


@dataclass
class TrainResult:
    """Loss/accuracy traces from :func:`train_classifier`."""

    epoch_losses: List[float] = field(default_factory=list)
    epoch_accuracies: List[float] = field(default_factory=list)

    @property
    def final_accuracy(self) -> float:
        return self.epoch_accuracies[-1] if self.epoch_accuracies else float("nan")


def evaluate_accuracy(model: Module, dataset: Dataset,
                      batch_size: int = 256) -> float:
    """Top-1 accuracy of ``model`` on ``dataset`` (eval mode, no tape)."""
    model.eval()
    correct = 0
    with no_grad():
        for images, labels in iterate_batches(dataset, batch_size,
                                              shuffle=False):
            logits = model(Tensor(images))
            correct += int((logits.argmax(axis=1) == labels).sum())
    return correct / len(dataset)


def train_classifier(model: Module, train_data: Dataset,
                     epochs: int = 5, batch_size: int = 64,
                     lr: float = 1e-3, optimizer: Optional[Optimizer] = None,
                     eval_data: Optional[Dataset] = None,
                     rng: RngLike = None) -> TrainResult:
    """Train ``model`` with cross-entropy; returns per-epoch traces.

    Uses Adam by default. ``eval_data`` (if given) is scored after every
    epoch; otherwise the training set is scored.

    Raises ``FloatingPointError`` (and counts ``train.diverged``) on the
    first batch whose loss is not finite, before it reaches the
    optimizer.
    """
    rng = make_rng(rng)
    optimizer = optimizer or Adam(model.parameters(), lr=lr)
    result = TrainResult()
    score_data = eval_data if eval_data is not None else train_data
    for epoch in range(epochs):
        model.train()
        losses = []
        with span("train.epoch", epoch=epoch):
            for batch_idx, (images, labels) in enumerate(
                    iterate_batches(train_data, batch_size, rng=rng)):
                optimizer.zero_grad()
                loss = F.cross_entropy(model(Tensor(images)), labels)
                value = loss.item()
                if not np.isfinite(value):
                    obs_metrics.inc("train.diverged")
                    raise FloatingPointError(
                        f"training loss is {value} at epoch {epoch}, batch "
                        f"{batch_idx}; the weights were not updated by it")
                loss.backward()
                optimizer.step()
                losses.append(value)
            acc = evaluate_accuracy(model, score_data)
        result.epoch_losses.append(float(np.mean(losses)))
        result.epoch_accuracies.append(acc)
        obs_metrics.inc("train.batches", len(losses))
        obs_metrics.observe("train.epoch_loss", result.epoch_losses[-1])
        obs_metrics.observe("train.epoch_accuracy", acc)
        logger.info("epoch %d: loss %.4f acc %.4f", epoch,
                    result.epoch_losses[-1], acc)
    return result
