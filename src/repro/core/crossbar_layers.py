"""Network layers that execute on the simulated RRAM crossbar.

:class:`CrossbarLinear` / :class:`CrossbarConv2d` replace ``Linear`` /
``Conv2d`` in a deployed model. Each stores:

* the programmed noisy cell conductances (from
  :meth:`repro.device.DeviceModel.program_cells`) — the crossbar real
  weights after one programming cycle;
* a trainable register file of digital offsets (the PWT parameters);
* the per-group complement mask and the quantization parameters.

The forward pass uses the *fast float path*: the effective weight
``W = scale * (q_eff - zero_point)`` with
``q_eff = V + expand(b)`` (or ``qmax - (V + expand(b))`` for
complemented groups), which is mathematically identical to the
bit-accurate engine under an ideal ADC (asserted in tests). Crucially
the expansion ``b -> expand(b)`` is an autograd op, so back-propagation
delivers exactly Eq. 8's ``dL/db_g = dL/dz * sum(x in group g)`` and an
optimizer over the offset parameters implements PWT.

Input activations are fake-quantized with a straight-through estimator
so offset gradients can flow through deeper layers.

Under :func:`repro.nn.tensor.no_grad` the forward skips that graph: the
crossbar real weights never change after programming, so the forward
operand depends only on the register file and is cached, read-only,
keyed on the registers' bytes (see :meth:`_CrossbarBase.frozen_operand`).
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple, TypeVar

import numpy as np

from repro.core.offsets import OffsetPlan
from repro.device.cell import CellType
from repro.nn import functional as F
from repro.nn.module import Module, Parameter
from repro.nn.tensor import Tensor, is_grad_enabled
from repro.quant.bitslice import cell_significances
from repro.quant.quantizer import InputQuantizer
from repro.xbar.adc import ADC
from repro.xbar.engine import CrossbarEngine

#: A weight matrix as a plain array (cached path) or a Tensor (graph).
_W = TypeVar("_W", np.ndarray, Tensor)


def ste_quantize(x: Tensor, quantizer: InputQuantizer) -> Tensor:
    """Fake-quantize activations with a straight-through gradient."""
    qdata = quantizer.apply(x.data)

    def backward(g: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(g)

    return Tensor._make(qdata, (x,), backward)


class _CrossbarBase(Module):
    """Shared state and effective-weight construction for crossbar layers."""

    def __init__(self, cells: np.ndarray, plan: OffsetPlan,
                 registers: np.ndarray, complement: np.ndarray,
                 cell: CellType, weight_bits: int, weight_scale: float,
                 weight_zero_point: int,
                 input_quantizer: Optional[InputQuantizer] = None,
                 bias: Optional[np.ndarray] = None,
                 ntw: Optional[np.ndarray] = None,
                 grad_weights: Optional[np.ndarray] = None):
        super().__init__()
        rows, cols, n_cells = cells.shape
        if (rows, cols) != (plan.rows, plan.cols):
            raise ValueError("cells shape does not match the offset plan")
        expected = (plan.n_groups, plan.cols)
        if registers.shape != expected or complement.shape != expected:
            raise ValueError(f"registers/complement must be {expected}")
        self.plan = plan
        self.cell = cell
        self.weight_bits = weight_bits
        self.weight_scale = float(weight_scale)
        self.weight_zero_point = int(weight_zero_point)
        self.input_quantizer = input_quantizer
        self.cells = np.asarray(cells, dtype=np.float64)
        self._significance = cell_significances(weight_bits, cell.bits)
        # Crossbar real weights, fixed after programming.
        self.crw = self.cells @ self._significance
        self.offsets = Parameter(np.asarray(registers, dtype=np.float64))
        self.bias = None if bias is None else np.asarray(bias, dtype=np.float64)
        # Optional deployment metadata used by PWT's analytic init.
        self.ntw = None if ntw is None else np.asarray(ntw, dtype=np.float64)
        self.grad_weights = (None if grad_weights is None
                             else np.asarray(grad_weights, dtype=np.float64))
        # Row -> group map, cached: plan.group_index builds an arange on
        # every access and the forward pass indexes with it each call.
        self._group_index = plan.group_index
        self.set_complement(complement)

    @property
    def qmax(self) -> int:
        return (1 << self.weight_bits) - 1

    def set_complement(self, complement: np.ndarray) -> None:
        """Install the per-group complement mask (n_groups, cols).

        Precomputes the complement algebra ``q_eff = sign*(V + b) +
        const`` and drops the frozen operand, which the register-keyed
        cache alone would not see change.
        """
        self.complement_mask = np.asarray(complement, dtype=bool)
        comp_rows = self.plan.expand(self.complement_mask.astype(np.float64))
        self._sign = 1.0 - 2.0 * comp_rows
        self._const = comp_rows * self.qmax
        self._frozen: Optional[Tuple[bytes, np.ndarray]] = None

    # ------------------------------------------------------------------
    # effective weights
    # ------------------------------------------------------------------
    def effective_weight_matrix(self) -> Tensor:
        """The float (rows, cols) weight matrix, differentiable in b."""
        v = Tensor(self.crw)
        b_exp = self.offsets[self._group_index]              # (rows, cols)
        q_eff = (v + b_exp) * self._sign + self._const
        return (q_eff - float(self.weight_zero_point)) * self.weight_scale

    def quantized_weight_array(self) -> np.ndarray:
        """The effective weights in integer units, ``sign*(V + expand(b))
        + const`` (rows, cols), as a plain array: the same ops, in the
        same order, as :meth:`effective_weight_matrix` runs on tensors."""
        b_exp = self.offsets.data[self._group_index]
        return (self.crw + b_exp) * self._sign + self._const

    def _operand(self, w: _W) -> _W:
        """The forward operand built from the (rows, cols) matrix ``w``
        (an array, or the differentiable Tensor in grad mode)."""
        return w

    def frozen_operand(self) -> np.ndarray:
        """The forward's weight operand for the current registers.

        Bitwise equal to the one the grad-mode forward builds, computed
        once per register state: the cache is keyed on
        ``offsets.data.tobytes()``, so any register write (an optimizer
        step, :meth:`quantize_offsets`, analytic init, a state-dict or
        snapshot load, a direct assignment) rebuilds it on the next
        call. The array is read-only, so a caller that mutates it fails
        instead of corrupting every later forward.
        """
        key = self.offsets.data.tobytes()
        cached = self._frozen
        if cached is not None and cached[0] == key:
            return cached[1]
        w = (self.quantized_weight_array()
             - float(self.weight_zero_point)) * self.weight_scale
        operand = self._operand(w)
        operand.flags.writeable = False
        self._frozen = (key, operand)
        return operand

    def effective_weight_array(self) -> np.ndarray:
        """Same as :meth:`effective_weight_matrix`, as a read-only plain
        array (no graph is built)."""
        return self.frozen_operand()

    def _weight_operand(self) -> Tensor:
        """The forward's weight operand: cached under ``no_grad``,
        otherwise rebuilt through the autograd graph so gradients reach
        the offsets."""
        if not is_grad_enabled():
            return Tensor(self.frozen_operand())
        return self._operand(self.effective_weight_matrix())

    def quantize_offsets(self, offset_bits: int = 8) -> None:
        """Round offsets onto the signed register grid (post-PWT)."""
        half = 1 << (offset_bits - 1)
        self.offsets.data[...] = np.clip(np.round(self.offsets.data),
                                         -half, half - 1)

    def make_engine(self, adc: Optional[ADC] = None) -> CrossbarEngine:
        """A bit-accurate engine view of this layer's current state."""
        input_scale = (self.input_quantizer.scale
                       if self.input_quantizer is not None else 1.0)
        input_bits = (self.input_quantizer.n_bits
                      if self.input_quantizer is not None else 8)
        return CrossbarEngine(
            cells=self.cells, plan=self.plan,
            registers=self.offsets.data.copy(),
            complement=self.complement_mask, cell=self.cell,
            weight_bits=self.weight_bits, input_bits=input_bits,
            weight_scale=self.weight_scale,
            weight_zero_point=self.weight_zero_point,
            input_scale=input_scale, adc=adc)

    def _quantize_input(self, x: Tensor) -> Tensor:
        if self.input_quantizer is None:
            return x
        return ste_quantize(x, self.input_quantizer)


class CrossbarLinear(_CrossbarBase):
    """A dense layer running on the crossbar: y = x @ W_eff + bias.

    The weight matrix layout is (in_features, out_features): inputs on
    wordlines, outputs on weight columns.
    """

    def forward(self, x: Tensor) -> Tensor:
        """Compute ``x @ W_eff + bias``: (N, in) -> (N, out)."""
        x = self._quantize_input(x)
        y = x @ self._weight_operand()                      # W: (in, out)
        if self.bias is not None:
            y = y + self.bias
        return y


class CrossbarConv2d(_CrossbarBase):
    """A convolution running on the crossbar via its unrolled matrix.

    The stored matrix has rows = C_in * kh * kw (wordlines) and cols =
    C_out; the forward pass reassembles the conv kernel from the
    effective matrix so gradients flow to the offsets.
    """

    def __init__(self, cells: np.ndarray, plan: OffsetPlan,
                 registers: np.ndarray, complement: np.ndarray,
                 cell: CellType, weight_bits: int, weight_scale: float,
                 weight_zero_point: int,
                 kernel_shape: Sequence[int],
                 stride: int = 1, padding: int = 0,
                 input_quantizer: Optional[InputQuantizer] = None,
                 bias: Optional[np.ndarray] = None,
                 ntw: Optional[np.ndarray] = None,
                 grad_weights: Optional[np.ndarray] = None):
        """Build the layer from its (rows, cols, n_cells) programmed state.

        ``kernel_shape`` is the original conv kernel (F, C, kh, kw);
        the stored matrix layout is rows = C*kh*kw, cols = F.
        """
        super().__init__(cells, plan, registers, complement, cell,
                         weight_bits, weight_scale, weight_zero_point,
                         input_quantizer, bias, ntw, grad_weights)
        f, c, kh, kw = kernel_shape
        if plan.rows != c * kh * kw or plan.cols != f:
            raise ValueError("kernel shape inconsistent with matrix layout")
        self.kernel_shape = tuple(kernel_shape)
        self.stride = stride
        self.padding = padding

    def _operand(self, w: _W) -> _W:
        """The (F, C, kh, kw) kernel copy of the (c*kh*kw, f) matrix."""
        return w.transpose(1, 0).reshape(self.kernel_shape)

    def effective_weight_array(self) -> np.ndarray:
        """The (c*kh*kw, f) matrix, a read-only view of the cached kernel."""
        return self.frozen_operand().reshape(self.plan.cols, -1).T

    def forward(self, x: Tensor) -> Tensor:
        """Convolve (N, C, H, W) inputs with the effective kernel."""
        x = self._quantize_input(x)
        bias_t = None if self.bias is None else Tensor(self.bias)
        return F.conv2d(x, self._weight_operand(), bias_t,
                        stride=self.stride, padding=self.padding)
