"""Deployment analysis: where does the residual weight error live?

Beyond a single accuracy number, a deployment can be dissected per
layer: how far are the effective network real weights (NRWs) from the
network target weights (NTWs), how much of that distance is systematic
bias vs random variation, and how much the offsets compensated. These
diagnostics drove several fixes during development (coherent group bias
is far more damaging than iid noise of the same magnitude) and are
exposed here as a public API plus a markdown renderer for reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.core.crossbar_layers import _CrossbarBase
from repro.nn.module import Module


@dataclass(frozen=True)
class LayerErrorStats:
    """Weight-error diagnostics of one deployed layer (integer units)."""

    path: str
    rows: int
    cols: int
    rms_error: float            # RMS of (NRW - NTW)
    mean_error: float           # global bias
    group_bias_rms: float       # RMS of per-offset-group mean error
    within_group_rms: float     # RMS after removing each group's mean
    max_abs_error: float
    offset_magnitude: float     # mean |register value|
    complement_fraction: float

    @property
    def bias_share(self) -> float:
        """Fraction of the error energy that is group-coherent.

        Group-coherent error is what a (better) shared offset could
        still remove; within-group error is irreducible at this sharing
        granularity.
        """
        total = self.group_bias_rms ** 2 + self.within_group_rms ** 2
        if total == 0:
            return 0.0
        return self.group_bias_rms ** 2 / total


def layer_error_stats(mod: _CrossbarBase, path: str = "") -> LayerErrorStats:
    """Diagnostics for one crossbar layer (requires its NTW metadata)."""
    if mod.ntw is None:
        raise ValueError("layer carries no NTW metadata")
    err = mod.quantized_weight_array() - mod.ntw
    group_mean = mod.plan.group_reduce_weights(err, op="mean")
    centred = err - mod.plan.expand(group_mean)
    return LayerErrorStats(
        path=path, rows=mod.plan.rows, cols=mod.plan.cols,
        rms_error=float(np.sqrt((err ** 2).mean())),
        mean_error=float(err.mean()),
        group_bias_rms=float(np.sqrt((group_mean ** 2).mean())),
        within_group_rms=float(np.sqrt((centred ** 2).mean())),
        max_abs_error=float(np.abs(err).max()),
        offset_magnitude=float(np.abs(mod.offsets.data).mean()),
        complement_fraction=float(mod.complement_mask.mean()),
    )


def analyze_deployment(model: Module) -> List[LayerErrorStats]:
    """Diagnostics for every crossbar layer of a deployed model."""
    stats = []
    for name, mod in model.named_modules():
        if isinstance(mod, _CrossbarBase) and mod.ntw is not None:
            stats.append(layer_error_stats(mod, path=name))
    if not stats:
        raise ValueError("model has no analysable crossbar layers")
    return stats


def render_markdown(stats: List[LayerErrorStats],
                    title: Optional[str] = None) -> str:
    """A markdown table of per-layer diagnostics."""
    lines = []
    if title:
        lines.append(f"### {title}")
        lines.append("")
    lines.append("| layer | shape | RMS err | group bias | within group "
                  "| max err | mean offset | complement |")
    lines.append("|---|---|---|---|---|---|---|---|")
    for s in stats:
        lines.append(
            f"| {s.path} | {s.rows}x{s.cols} | {s.rms_error:.1f} "
            f"| {s.group_bias_rms:.1f} | {s.within_group_rms:.1f} "
            f"| {s.max_abs_error:.0f} | {s.offset_magnitude:.1f} "
            f"| {s.complement_fraction:.0%} |")
    return "\n".join(lines)
