"""Post-writing tuning of the digital offsets (paper Section III-D).

After programming, the crossbar real weights are fixed and known (each
device is read back once). PWT treats the network as a new model whose
only trainable parameters are the digital offsets ``b_g`` and runs
ordinary back-propagation over the training set: by Eq. 7/8,

``dL/db_g = dL/dz * sum(x_i in group g)``,

which is exactly what reverse-mode autodiff computes through the
``expand(b)`` op inside :mod:`repro.core.crossbar_layers`. At the end
the learned offsets are rounded onto the signed 8-bit register grid.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.core.crossbar_layers import _CrossbarBase
from repro.data.loaders import Dataset, iterate_batches
from repro.nn import functional as F
from repro.nn.module import Module, Parameter
from repro.nn.optim import Adam
from repro.nn.tensor import Tensor
from repro.obs import metrics as obs_metrics
from repro.obs.trace import span
from repro.utils.contracts import check_shapes
from repro.utils.logging import get_logger
from repro.utils.rng import RngLike, make_rng

logger = get_logger(__name__)


@dataclass
class PWTConfig:
    """Hyper-parameters of the offset-only training run.

    ``analytic_init`` seeds every register with its first-order optimal
    value before back-propagation: the gradient-weighted group mean of
    the realised weight error (see :func:`analytic_offset_init`). This
    uses exactly the posteriori knowledge PWT is allowed (the measured
    CRWs) and makes Eq. 8's training a refinement rather than a cold
    start.
    """

    epochs: int = 3
    lr: float = 0.5
    lr_decay: float = 1.0           # multiplied into lr after every epoch
    batch_size: int = 64
    max_batches_per_epoch: Optional[int] = None
    offset_bits: int = 8
    round_offsets: bool = True
    analytic_init: bool = True

    def __post_init__(self):
        if self.epochs < 0:
            raise ValueError("epochs must be non-negative")
        if self.lr <= 0:
            raise ValueError("learning rate must be positive")
        if not 0 < self.lr_decay <= 1.0:
            raise ValueError("lr_decay must be in (0, 1]")


@dataclass
class PWTHistory:
    """Per-batch loss trace of a PWT run."""

    losses: List[float] = field(default_factory=list)

    @property
    def initial_loss(self) -> float:
        """Loss of the first recorded batch (NaN before any batch)."""
        return self.losses[0] if self.losses else float("nan")

    @property
    def final_loss(self) -> float:
        """Loss of the most recent batch (NaN before any batch)."""
        return self.losses[-1] if self.losses else float("nan")


def offset_parameters(model: Module) -> List[Parameter]:
    """The digital-offset register parameters of a deployed model."""
    params = []
    for _, mod in model.named_modules():
        if isinstance(mod, _CrossbarBase):
            params.append(mod.offsets)
    return params


def crossbar_modules(model: Module) -> List[_CrossbarBase]:
    """All crossbar layers of a deployed model, in traversal order."""
    return [m for _, m in model.named_modules() if isinstance(m, _CrossbarBase)]


@check_shapes("_->(k,c)")
def analytic_offset_init(mod: _CrossbarBase,
                         offset_bits: int = 8) -> np.ndarray:
    """First-order optimal registers from the measured CRWs.

    Returns the installed register file, shape (n_groups, cols).

    For each offset group, minimising the gradient-weighted squared
    weight error ``sum_i g_i^2 (W_i(b) - w_i*)^2`` over the register
    value ``b`` has the closed form

    ``b* = sum_i g_i^2 (s (w_i* - c) - V_i) / sum_i g_i^2``

    where ``s = +/-1`` and ``c`` encode the group's complement state and
    ``V_i`` are the read-back crossbar real weights. This is pure
    posteriori compensation — exactly the knowledge PWT exploits — and
    serves as the starting point Eq. 8's back-propagation refines.

    Requires the module to carry its ``ntw`` metadata; ``grad_weights``
    is optional (uniform weights otherwise). Returns the registers it
    installed.
    """
    if mod.ntw is None:
        raise ValueError("analytic init needs the layer's NTW metadata")
    plan = mod.plan
    sign = mod._sign                     # (rows, cols) of +/-1
    const = mod._const                   # (rows, cols), qmax on complements
    desired = sign * (mod.ntw - const) - mod.crw
    if mod.grad_weights is not None:
        weights = mod.grad_weights.astype(np.float64) ** 2
        rms = np.sqrt(weights.mean())
        floor = 1e-4 * rms if rms > 0 else 1.0
        weights = np.maximum(weights, floor)
    else:
        weights = np.ones_like(desired)
    num = plan.group_reduce_weights(desired * weights, op="sum")
    den = plan.group_reduce_weights(weights, op="sum")
    registers = num / np.maximum(den, 1e-30)
    half = 1 << (offset_bits - 1)
    registers = np.clip(registers, -half, half - 1)
    mod.offsets.data[...] = registers
    return registers


def run_pwt(model: Module, train_data: Dataset,
            config: Optional[PWTConfig] = None,
            rng: RngLike = None) -> PWTHistory:
    """Train the offsets of ``model`` in place; returns the loss trace.

    The model runs in eval mode throughout (BatchNorm keeps its running
    statistics; the crossbar weights are frozen) — only the offset
    registers move. Every other parameter has ``requires_grad`` cleared
    for the run (restored on exit, also on error), so backward computes
    no gradient Eq. 8 does not use and writes no ``.grad`` outside the
    offsets.

    Raises ``FloatingPointError`` (and counts ``pwt.diverged``) on the
    first batch whose loss is not finite, before it reaches the
    optimizer.
    """
    config = config or PWTConfig()
    rng = make_rng(rng)
    params = offset_parameters(model)
    if not params:
        raise ValueError("model has no crossbar layers / offset registers")
    model.eval()
    if config.analytic_init:
        for mod in crossbar_modules(model):
            if mod.ntw is not None:
                analytic_offset_init(mod, config.offset_bits)
    optimizer = Adam(params, lr=config.lr)
    history = PWTHistory()
    offset_ids = {id(p) for p in params}
    frozen = [p for p in model.parameters()
              if p.requires_grad and id(p) not in offset_ids]
    for p in frozen:
        p.requires_grad = False
    try:
        for epoch in range(config.epochs):
            n_epoch_batches = 0
            with span("pwt.epoch", epoch=epoch):
                for batch_idx, (images, labels) in enumerate(
                        iterate_batches(train_data, config.batch_size, rng=rng)):
                    if (config.max_batches_per_epoch is not None
                            and batch_idx >= config.max_batches_per_epoch):
                        break
                    optimizer.zero_grad()
                    loss = F.cross_entropy(model(Tensor(images)), labels)
                    value = loss.item()
                    if not np.isfinite(value):
                        # A non-finite step would turn every register into
                        # NaN and quantize_offsets would round it in silently.
                        obs_metrics.inc("pwt.diverged")
                        raise FloatingPointError(
                            f"PWT loss is {value} at epoch {epoch}, batch "
                            f"{batch_idx}; the offsets were not updated by it")
                    loss.backward()
                    optimizer.step()
                    history.losses.append(value)
                    n_epoch_batches += 1
            optimizer.lr *= config.lr_decay
            # The per-epoch offset-loss curve (PWT convergence) goes into
            # the metrics registry so the run manifest carries it.
            obs_metrics.observe("pwt.epoch_loss", history.final_loss)
            obs_metrics.inc("pwt.batches", n_epoch_batches)
            logger.info("PWT epoch %d: loss %.4f", epoch, history.final_loss)
    finally:
        for p in frozen:
            p.requires_grad = True
    obs_metrics.inc("pwt.runs")
    if config.round_offsets:
        for mod in crossbar_modules(model):
            mod.quantize_offsets(config.offset_bits)
    return history
