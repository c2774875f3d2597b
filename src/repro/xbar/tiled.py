"""Multi-crossbar execution of large weight matrices.

A layer whose matrix exceeds one 128x128 array is split by
:class:`~repro.xbar.mapper.CrossbarMapper` into row/column tiles; each
tile is an independent physical crossbar with its own offset registers,
and the row-tiles' partial outputs are summed digitally (standard ISAAC
operation). :class:`TiledCrossbarEngine` stitches per-tile
:class:`~repro.xbar.engine.CrossbarEngine` instances together and must
produce exactly the same result as one monolithic engine over the whole
matrix — asserted in the test suite. This validates that the tiling and
the offset-group layout compose (every 128-row tile boundary is also an
offset-group boundary whenever ``128 % m == 0``, the paper's setting).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional

import numpy as np

from repro.device.cell import CellType
from repro.obs import metrics as obs_metrics
from repro.obs.trace import span
from repro.xbar.adc import ADC
from repro.xbar.engine import CrossbarEngine
from repro.xbar.mapper import CrossbarMapper, TileSpec

if TYPE_CHECKING:  # runtime import would create a repro.core <-> repro.xbar cycle
    from repro.core.offsets import OffsetPlan


class TiledCrossbarEngine:
    """Runs one weight matrix across as many crossbars as it needs."""

    def __init__(self, cells: np.ndarray, plan: "OffsetPlan",
                 registers: np.ndarray, complement: np.ndarray,
                 cell: CellType, mapper: Optional[CrossbarMapper] = None,
                 weight_bits: int = 8, input_bits: int = 8,
                 weight_scale: float = 1.0, weight_zero_point: int = 0,
                 input_scale: float = 1.0, adc: Optional[ADC] = None,
                 backend: Optional[str] = None):
        """Split the (rows, cols, n_cells) cell array into tiles and
        build one :class:`CrossbarEngine` per tile; every tile engine
        dispatches to the same compute ``backend`` (``None`` follows
        the process default — ``vectorized`` or ``reference``), each
        caching its own packed operands."""
        from repro.core.offsets import OffsetPlan

        rows, cols, n_cells = cells.shape
        mapper = mapper or CrossbarMapper(size=128, cells_per_weight=n_cells)
        if mapper.size % plan.granularity != 0 and rows > mapper.size:
            raise ValueError(
                "tiling requires the crossbar size to be a multiple of the "
                "sharing granularity (offset groups must not straddle tiles)")
        self.plan = plan
        self.mapper = mapper
        self.backend = backend
        self.tiles: List[TileSpec] = mapper.tiles(rows, cols)
        self._engines: List[CrossbarEngine] = []
        m = plan.granularity
        for tile in self.tiles:
            g0 = tile.row_start // m
            g1 = -(-tile.row_stop // m)
            sub_plan = OffsetPlan(tile.rows, tile.weight_cols, m)
            self._engines.append(CrossbarEngine(
                cells=cells[tile.row_start:tile.row_stop,
                            tile.col_start:tile.col_stop],
                plan=sub_plan,
                registers=registers[g0:g1, tile.col_start:tile.col_stop],
                complement=complement[g0:g1, tile.col_start:tile.col_stop],
                cell=cell, weight_bits=weight_bits, input_bits=input_bits,
                weight_scale=weight_scale,
                weight_zero_point=weight_zero_point,
                input_scale=input_scale, adc=adc, backend=backend))

    @property
    def crossbar_count(self) -> int:
        """Number of physical crossbars the matrix occupies."""
        return len(self.tiles)

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Drive every tile and digitally combine the partial outputs:
        (N, rows) activations -> (N, cols) outputs."""
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        obs_metrics.inc("xbar.tiled.vmm_batches", x.shape[0])
        with span("xbar.tiled.forward", tiles=len(self.tiles),
                  backend=self.backend or "default"):
            out = np.zeros((x.shape[0], self.plan.cols))
            for tile, engine in zip(self.tiles, self._engines):
                part = engine.forward(x[:, tile.row_start:tile.row_stop])
                out[:, tile.col_start:tile.col_stop] += part
            return out
