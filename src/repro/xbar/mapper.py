"""Mapping weight matrices onto fixed-size crossbars.

A layer's (rows, cols) integer weight matrix rarely fits one 128x128
array: each weight occupies ``cells_per_weight`` physical columns (bit
slicing) and large layers need multiple row tiles whose partial outputs
are summed digitally. This module computes the tiling and the crossbar
counts that Table III's "crossbar number" comparison is based on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np


@dataclass(frozen=True)
class TileSpec:
    """One crossbar-sized tile of a weight matrix."""

    row_start: int
    row_stop: int
    col_start: int       # in weight columns (not cells)
    col_stop: int

    @property
    def rows(self) -> int:
        """Wordlines this tile spans."""
        return self.row_stop - self.row_start

    @property
    def weight_cols(self) -> int:
        """Weight columns this tile spans."""
        return self.col_stop - self.col_start


@dataclass(frozen=True)
class CrossbarMapper:
    """Tiling policy for a crossbar of ``size`` x ``size`` cells.

    ``cells_per_weight`` physical columns hold one weight, so a crossbar
    stores ``size // cells_per_weight`` weight columns (the paper's
    ``l``: 32 for 8-bit weights on 2-bit MLCs at size 128).
    """

    size: int = 128
    cells_per_weight: int = 4

    def __post_init__(self):
        if self.size < 1:
            raise ValueError("crossbar size must be positive")
        if not 1 <= self.cells_per_weight <= self.size:
            raise ValueError("cells_per_weight must fit in one crossbar row")

    @property
    def weight_cols_per_xbar(self) -> int:
        """Weight columns one crossbar stores (the paper's ``l``)."""
        return self.size // self.cells_per_weight

    def tiles(self, rows: int, cols: int) -> List[TileSpec]:
        """Tile a (rows, cols) weight matrix into crossbar-sized pieces."""
        if rows < 1 or cols < 1:
            raise ValueError("matrix dimensions must be positive")
        specs = []
        wc = self.weight_cols_per_xbar
        for r0 in range(0, rows, self.size):
            for c0 in range(0, cols, wc):
                specs.append(TileSpec(r0, min(r0 + self.size, rows),
                                      c0, min(c0 + wc, cols)))
        return specs

    def count(self, rows: int, cols: int) -> int:
        """Number of crossbars a (rows, cols) weight matrix occupies."""
        return len(self.tiles(rows, cols))

    def count_model(self, layer_shapes: List[Tuple[int, int]]) -> int:
        """Total crossbars over a list of per-layer (rows, cols) shapes."""
        return sum(self.count(r, c) for r, c in layer_shapes)


def layer_matrix_shape(weight_shape: Tuple[int, ...]) -> Tuple[int, int]:
    """The (rows, cols) crossbar matrix of a layer's weight tensor.

    Linear (out, in) maps to (in, out); Conv2d (F, C, kh, kw) unrolls to
    (C*kh*kw, F) — inputs on wordlines, outputs on weight columns.
    """
    if len(weight_shape) == 2:
        out_f, in_f = weight_shape
        return in_f, out_f
    if len(weight_shape) == 4:
        f, c, kh, kw = weight_shape
        return c * kh * kw, f
    raise ValueError(f"unsupported weight shape {weight_shape}")
