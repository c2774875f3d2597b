"""Bit-accurate crossbar inference engine for one weight matrix.

This models the full ISAAC-style datapath of Fig. 1(b) and Fig. 4:

* inputs are quantized and fed bit-serially (1 input bit per cycle);
* each weight is bit-sliced across ``cells_per_weight`` physical columns;
* only ``m`` wordlines (one activation group) are driven per cycle;
* each cell-column current passes through the ADC;
* shift-and-add accumulates over input bits and cell significance;
* the digital-offset path adds ``b_g * sum(x in group g)`` (Eq. 7);
* complemented groups are post-processed as ``(2^n - 1) * sum(x) - z'``
  (Section III-C);
* the ISAAC weight shift subtracts ``zero_point * sum(x)`` at the end.

The engine owns the *semantics* of this pipeline; the arithmetic itself
is executed by the library's kernel set
(:func:`repro.backend.get_backend`), resolved on every ``forward`` so
the tests can swap in the loop-based reference oracle. All
forward-invariant state (cell tensor, significances, registers,
complement algebra, and the packed ideal-ADC weight matrix) is
precomputed once at construction into
:class:`repro.backend.EngineOperands`, so repeated ``forward`` calls —
and every trial or served request after programming — recompute
nothing.

With an ideal ADC the result equals the fast float path used by
:mod:`repro.core.crossbar_layers` exactly (up to float rounding) — the
equivalence is asserted in the test suite. With a finite-resolution ADC
this engine supports the readout ablation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from typing import TYPE_CHECKING

from repro.backend import EngineOperands, get_backend
from repro.device.cell import CellType
from repro.obs import metrics as obs_metrics
from repro.obs.trace import span
from repro.quant.bitslice import cell_significances
from repro.utils.contracts import check_shapes
from repro.xbar.adc import ADC

if TYPE_CHECKING:  # runtime import would create a repro.core <-> repro.xbar cycle
    from repro.core.offsets import OffsetPlan


@dataclass
class CrossbarEngine:
    """Executes VMM for one deployed weight matrix, cycle-faithfully.

    Parameters
    ----------
    cells:
        Noisy per-cell conductances, shape (rows, cols, n_cells) — the
        output of :meth:`repro.device.DeviceModel.program_cells`.
    plan:
        Offset sharing plan (rows grouped at granularity m).
    registers:
        Digital offsets, shape (n_groups, cols), integer-valued.
    complement:
        Boolean mask (n_groups, cols): groups stored in complement form.
    cell:
        Cell technology (for significances).
    weight_bits / input_bits:
        Bit widths of weights and inputs (both 8 in the paper).
    weight_scale / weight_zero_point / input_scale:
        Dequantization parameters.
    adc:
        ADC applied to every cell-column group current.
    """

    cells: np.ndarray
    plan: "OffsetPlan"
    registers: np.ndarray
    complement: np.ndarray
    cell: CellType
    weight_bits: int = 8
    input_bits: int = 8
    weight_scale: float = 1.0
    weight_zero_point: int = 0
    input_scale: float = 1.0
    adc: Optional[ADC] = None

    def __post_init__(self):
        rows, cols, n_cells = self.cells.shape
        if (rows, cols) != (self.plan.rows, self.plan.cols):
            raise ValueError("cells shape does not match the offset plan")
        expected = (self.plan.n_groups, self.plan.cols)
        if self.registers.shape != expected:
            raise ValueError(f"registers must be {expected}")
        if self.complement.shape != expected:
            raise ValueError(f"complement mask must be {expected}")
        if self.adc is None:
            self.adc = ADC()
        self._significance = cell_significances(self.weight_bits, self.cell.bits)
        if len(self._significance) != n_cells:
            raise ValueError("cell count inconsistent with bit widths")
        # Forward-invariant operand cache for the engine_vmm kernel.
        self._operands = EngineOperands(
            cells=self.cells, significance=self._significance,
            registers=self.registers, complement=self.complement,
            granularity=self.plan.granularity, input_bits=self.input_bits,
            weight_qmax=self.weight_qmax,
            weight_zero_point=self.weight_zero_point, adc=self.adc)

    @property
    def weight_qmax(self) -> int:
        """Largest integer weight code, ``2^weight_bits - 1``."""
        return (1 << self.weight_bits) - 1

    @property
    def input_qmax(self) -> int:
        """Largest integer input code, ``2^input_bits - 1``."""
        return (1 << self.input_bits) - 1

    def quantize_inputs(self, x: np.ndarray) -> np.ndarray:
        """Float activations -> integer input codes (same shape as ``x``)."""
        return np.clip(np.round(np.asarray(x) / self.input_scale),
                       0, self.input_qmax).astype(np.int64)

    @check_shapes("(...,r)->(_,c)", arg_names=["x"])
    @span("xbar.engine.forward")
    def forward(self, x: np.ndarray) -> np.ndarray:
        """Run the full pipeline on float activations (N, rows) -> (N, cols).

        Quantizes the inputs, hands the integer-domain VMM (bit-serial
        accumulation + Eq. 7 offset/complement post-processing + the
        ISAAC zero-point correction) to the ``engine_vmm`` kernel over
        the cached operands, then dequantizes.
        """
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        obs_metrics.inc("xbar.engine.vmm_batches", x.shape[0])
        xq = self.quantize_inputs(x)                        # (N, rows)
        z = get_backend().engine_vmm(xq, self._operands)
        return self.input_scale * self.weight_scale * z

    def effective_weights(self) -> np.ndarray:
        """The float (rows, cols) weight matrix this engine implements
        (ideal-ADC view).

        Reassembles noisy cells into CRWs (cached on the engine's
        operands), applies offsets and complement, and dequantizes —
        the fast evaluation path's W.
        """
        crw = self._operands.crw                            # (rows, cols)
        q_eff = crw + self.plan.expand(self.registers)
        comp_rows = self.plan.expand(self.complement.astype(np.float64))
        q_eff = comp_rows * (self.weight_qmax - q_eff) + (1 - comp_rows) * q_eff
        return self.weight_scale * (q_eff - self.weight_zero_point)
