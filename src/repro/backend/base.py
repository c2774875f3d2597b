"""The kernel-set interface the production kernels and the oracle share.

A *kernel set* is a named bundle of the library's arithmetic hot paths:
the im2col / col2im / pooling window kernels that
:mod:`repro.nn.functional` builds convolution and pooling from (im2col
emits the channels-last crossbar-row matrix a conv is one GEMM over,
col2im is its adjoint), and the
bit-serial crossbar VMM that :class:`repro.xbar.engine.CrossbarEngine`
runs. Consumers never import a kernel implementation directly — they
fetch the library's kernel set through :func:`repro.backend.get_backend`
at call time and call the methods defined here.

Two implementations exist:

* ``vectorized`` (:mod:`repro.backend.vectorized`) — the production
  kernels: a gather im2col, strided-view pooling windows, a
  cache-blocked col2im, blocked stacked-bit GEMMs with an
  integer-domain shift-and-add for finite ADCs and one packed GEMM
  for an ideal ADC;
* ``reference`` (:mod:`repro.backend.reference`) — the original
  loop-based kernels, kept as the correctness oracle the tests
  construct and substitute through this interface.

The production kernels must match ``reference`` up to float rounding;
``tests/backend/`` asserts it kernel by kernel.

:class:`EngineOperands` carries the forward-invariant state of one
crossbar engine (cells, significances, registers, complement masks and
the derived matrices) so the kernels can cache expensive precomputations
per engine instead of rebuilding them on every ``forward`` call.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, Optional, Tuple

import numpy as np

from repro.obs import metrics as obs_metrics

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids package cycles)
    from repro.xbar.adc import ADC


class EngineOperands:
    """Forward-invariant operands of one crossbar engine's VMM.

    Built once (at engine construction) from the programmed cell array
    of shape (rows, cols, n_cells), the per-group registers/complement
    masks of shape (n_groups, cols) and the quantization geometry. The
    derived views the kernels need — the crossbar real weights, the
    group-padded cell tensor, the complement sign matrix, the
    per-group input-sum gain of Eq. 7 and the packed ideal-ADC GEMM
    operand — are computed lazily and cached,
    so each kernel set only ever pays for the intermediates it uses and
    repeated ``forward`` calls recompute nothing.
    """

    def __init__(self, cells: np.ndarray, significance: np.ndarray,
                 registers: np.ndarray, complement: np.ndarray,
                 granularity: int, input_bits: int, weight_qmax: int,
                 weight_zero_point: int, adc: "ADC") -> None:
        """Capture the engine state; ``cells`` is (rows, cols, n_cells),
        ``registers``/``complement`` are (n_groups, cols) and
        ``significance`` is (n_cells,)."""
        self.cells = np.asarray(cells, dtype=np.float64)
        self.significance = np.asarray(significance, dtype=np.float64)
        self.registers = np.asarray(registers, dtype=np.float64)
        self.complement = np.asarray(complement, dtype=bool)
        self.granularity = int(granularity)
        self.input_bits = int(input_bits)
        self.weight_qmax = int(weight_qmax)
        self.weight_zero_point = int(weight_zero_point)
        self.adc = adc
        self.rows, self.cols, self.n_cells = self.cells.shape
        self.n_groups = self.registers.shape[0]
        self._crw: Optional[np.ndarray] = None
        self._cells_grouped: Optional[np.ndarray] = None
        self._sign: Optional[np.ndarray] = None
        self._offset_gain: Optional[np.ndarray] = None
        self._packed_ideal_weights: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    # cached derived views
    # ------------------------------------------------------------------
    @property
    def padded_rows(self) -> int:
        """Rows after padding the last partial group: scalar
        ``n_groups * granularity``."""
        return self.n_groups * self.granularity

    def _pad_rows(self, array: np.ndarray) -> np.ndarray:
        """Zero-pad the leading (row) axis of ``array`` — shape
        (rows, ...) — up to a whole number of groups."""
        pad = self.padded_rows - self.rows
        if pad == 0:
            return array
        widths = [(0, pad)] + [(0, 0)] * (array.ndim - 1)
        return np.pad(array, widths)

    @property
    def crw(self) -> np.ndarray:
        """Crossbar real weights: cells folded over significance,
        shape (rows, cols)."""
        if self._crw is None:
            self._crw = self.cells @ self.significance
        return self._crw

    @property
    def cells_grouped(self) -> np.ndarray:
        """Cells regrouped by offset group: shape
        (n_groups, granularity, cols, n_cells), zero-padded rows."""
        if self._cells_grouped is None:
            padded = self._pad_rows(self.cells)
            self._cells_grouped = padded.reshape(
                self.n_groups, self.granularity, self.cols, self.n_cells)
        return self._cells_grouped

    @property
    def sign(self) -> np.ndarray:
        """Complement sign per group/column: +1 plain, -1 complemented,
        shape (n_groups, cols)."""
        if self._sign is None:
            self._sign = 1.0 - 2.0 * self.complement.astype(np.float64)
        return self._sign

    @property
    def offset_gain(self) -> np.ndarray:
        """Per-group input-sum gain of the digital post-processing,
        shape (n_groups, cols).

        Folding Eq. 7's offset add and Section III-C's complement into
        one matrix: a group's post-analog contribution is
        ``sign * z + gx * (sign * b + complement * qmax)`` where ``gx``
        is the group input sum, so ``group_sums @ offset_gain`` is the
        whole digital term for a batch.
        """
        if self._offset_gain is None:
            self._offset_gain = (self.sign * self.registers
                                 + self.complement * float(self.weight_qmax))
        return self._offset_gain

    @property
    def packed_ideal_weights(self) -> np.ndarray:
        """The single packed GEMM operand of the ideal-ADC forward,
        shape (rows, cols).

        With an ideal ADC the bit-serial sum telescopes
        (``sum_b 2^b x_bit = x``) and every remaining term of the
        integer-domain output is linear in the quantized inputs, so the
        analog contraction, the Eq. 7 offset add, the complement
        post-processing and the ISAAC zero-point correction all fold
        into one matrix::

            P = sign_rows * CRW + gain_rows - weight_zero_point
            z = xq @ P

        ``sign_rows`` / ``gain_rows`` expand the per-group complement
        sign and :attr:`offset_gain` to rows (``row r -> group r // m``):
        every row of a group contributes its input once to the group
        sum, so ``gx @ offset_gain == xq @ gain_rows``. See DESIGN.md's
        ideal-ADC packing section for the derivation.
        """
        if self._packed_ideal_weights is None:
            m, rows = self.granularity, self.rows
            sign_rows = np.repeat(self.sign, m, axis=0)[:rows]
            gain_rows = np.repeat(self.offset_gain, m, axis=0)[:rows]
            self._packed_ideal_weights = np.ascontiguousarray(
                sign_rows * self.crw + gain_rows
                - float(self.weight_zero_point))
        return self._packed_ideal_weights

    def grouped_inputs(self, x: np.ndarray) -> np.ndarray:
        """Reshape a per-row batch (N, rows) into offset groups
        (N, n_groups, granularity), zero-padding the partial last group."""
        padded = np.pad(x, ((0, 0), (0, self.padded_rows - self.rows)))
        return padded.reshape(x.shape[0], self.n_groups, self.granularity)

    def group_input_sums(self, xq: np.ndarray) -> np.ndarray:
        """Per-group input sums (the adder-tree outputs of Eq. 1):
        quantized inputs (N, rows) -> (N, n_groups)."""
        return self.grouped_inputs(xq).sum(axis=2)


class KernelBackend(abc.ABC):
    """One named, complete set of compute kernels.

    Subclasses implement the private ``_impl`` hooks; the public
    methods add the per-kernel obs counters (``backend.<name>.<kernel>``)
    so kernel traffic is visible in run manifests. All kernels are pure
    functions of their inputs — a kernel set holds no per-call state, so
    one instance is shared process-wide.
    """

    #: Kernel-set name, the middle part of the obs counter names.
    name: str = "abstract"

    # ------------------------------------------------------------------
    # convolution / pooling window kernels
    # ------------------------------------------------------------------
    def im2col(self, x: np.ndarray, kh: int, kw: int, stride: int,
               pad: int) -> Tuple[np.ndarray, int, int]:
        """Unfold ``x`` (N, C, H, W) into the crossbar-row matrix
        (N*OH*OW, C*kh*kw); returns ``(cols, OH, OW)``.

        Row ``n*OH*OW + i*OW + j`` is the wordline vector of output
        pixel (i, j) of image n; columns run in crossbar row order
        (c, kh, kw), the order a conv kernel unrolls onto wordlines.
        ``cols @ weight.reshape(F, -1).T`` is the convolution.
        """
        obs_metrics.inc(f"backend.{self.name}.im2col")
        return self._im2col(x, kh, kw, stride, pad)

    def col2im(self, cols: np.ndarray, x_shape: Tuple[int, int, int, int],
               kh: int, kw: int, stride: int, pad: int) -> np.ndarray:
        """Fold a crossbar-row matrix (N*OH*OW, C*kh*kw) back into an
        image of shape ``x_shape`` (N, C, H, W), accumulating overlaps —
        the exact adjoint of :meth:`im2col`. The result may be an
        (N, C, H, W) view over channels-last memory."""
        obs_metrics.inc(f"backend.{self.name}.col2im")
        return self._col2im(cols, x_shape, kh, kw, stride, pad)

    def pool_windows(self, x: np.ndarray, k: int, stride: int) -> np.ndarray:
        """View ``x`` (N, C, H, W) as pooling windows (N, C, k, k, OH, OW):
        ``windows[:, :, i, j]`` is tap (i, j) of every window, i.e.
        ``x[:, :, i::stride, j::stride]`` cut to (OH, OW). Read-only; it
        may alias ``x``."""
        obs_metrics.inc(f"backend.{self.name}.pool_windows")
        return self._pool_windows(x, k, stride)

    # ------------------------------------------------------------------
    # crossbar VMM kernel
    # ------------------------------------------------------------------
    def engine_vmm(self, xq: np.ndarray, op: EngineOperands) -> np.ndarray:
        """The integer-domain crossbar VMM of Fig. 1(b)/Fig. 4.

        ``xq`` is the quantized input batch (N, rows); the result
        (N, cols) is the bit-serial analog accumulation through the ADC
        plus the digital offset / complement post-processing of Eq. 7
        and the ISAAC zero-point correction — everything between input
        quantization and the final dequantization scales.
        """
        obs_metrics.inc(f"backend.{self.name}.engine_vmm")
        obs_metrics.inc(f"backend.{self.name}.engine_vmm_batches",
                        xq.shape[0])
        return self._engine_vmm(xq, op)

    # ------------------------------------------------------------------
    # implementation hooks
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def _im2col(self, x: np.ndarray, kh: int, kw: int, stride: int,
                pad: int) -> Tuple[np.ndarray, int, int]:
        """Implementation of :meth:`im2col` — same shapes."""

    @abc.abstractmethod
    def _col2im(self, cols: np.ndarray, x_shape: Tuple[int, int, int, int],
                kh: int, kw: int, stride: int, pad: int) -> np.ndarray:
        """Implementation of :meth:`col2im` — same shapes."""

    @abc.abstractmethod
    def _pool_windows(self, x: np.ndarray, k: int,
                      stride: int) -> np.ndarray:
        """Implementation of :meth:`pool_windows` — same shapes."""

    @abc.abstractmethod
    def _engine_vmm(self, xq: np.ndarray,
                    op: EngineOperands) -> np.ndarray:
        """Implementation of :meth:`engine_vmm` — same shapes."""

    def __repr__(self) -> str:
        return f"<{type(self).__name__} name={self.name!r}>"
