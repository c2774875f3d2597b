"""8-bit affine quantization and the ISAAC weight shift.

The paper's accelerators store *non-negative n-bit integer* weights: the
trained float weights are quantized to integers and shifted so the whole
range is non-negative (Section II, "weights initially in the range
[-120, 135] are shifted to the range [0, 255]"). The shift is undone
digitally by subtracting ``zero_point * sum(x)`` after the crossbar —
exactly the affine-quantization dequant identity

``W_float = scale * (W_uint - zero_point)``.

:class:`AffineQuantizer` implements that transform for weights;
:class:`InputQuantizer` handles the (unsigned) activation quantization
the paper also applies.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class QuantizedTensor:
    """An unsigned-integer tensor with its dequantization parameters."""

    values: np.ndarray       # unsigned integers, stored as int64
    scale: float
    zero_point: int
    n_bits: int

    @property
    def qmax(self) -> int:
        return (1 << self.n_bits) - 1

    def dequantize(self) -> np.ndarray:
        """Recover the float tensor: ``scale * (values - zero_point)``."""
        return self.scale * (self.values.astype(np.float64) - self.zero_point)


class AffineQuantizer:
    """Uniform affine quantizer producing shifted non-negative integers.

    ``quantize`` maps floats to ``{0, ..., 2^n - 1}`` with
    ``q = round(w / scale) + zero_point``; ``zero_point`` is the ISAAC
    weight shift (120 in the paper's example).
    """

    def __init__(self, n_bits: int = 8):
        if not 1 <= n_bits <= 16:
            raise ValueError(f"n_bits must be in [1, 16], got {n_bits}")
        self.n_bits = n_bits
        self.qmax = (1 << n_bits) - 1

    def quantize(self, w: np.ndarray) -> QuantizedTensor:
        """Quantize ``w`` to shifted unsigned integers.

        The scale is chosen so the observed [min, max] range maps onto
        [0, qmax]; degenerate all-equal tensors quantize to zero offset
        with unit scale.
        """
        w = np.asarray(w, dtype=np.float64)
        # Extend the range to include zero so the zero point is always a
        # representable code (standard asymmetric-quantization practice;
        # also what the ISAAC shift needs — a shift of 0 for all-positive
        # weights, a shift of qmax for all-negative ones).
        lo = min(0.0, float(w.min()))
        hi = max(0.0, float(w.max()))
        if hi == lo:
            scale = 1.0 / self.qmax   # all-zero tensor; any scale works
        else:
            scale = (hi - lo) / self.qmax
        zero_point = int(np.clip(round(-lo / scale), 0, self.qmax))
        q = np.clip(np.round(w / scale) + zero_point, 0, self.qmax)
        return QuantizedTensor(q.astype(np.int64), scale, zero_point, self.n_bits)


class InputQuantizer:
    """Unsigned activation quantizer with a calibrated full-scale range.

    ISAAC feeds inputs bit-serially, so activations are unsigned n-bit
    integers: ``q = round(x / scale)`` clipped to [0, qmax]. The scale is
    calibrated from the maximum activation seen on a calibration batch.
    """

    def __init__(self, n_bits: int = 8):
        if not 1 <= n_bits <= 16:
            raise ValueError(f"n_bits must be in [1, 16], got {n_bits}")
        self.n_bits = n_bits
        self.qmax = (1 << n_bits) - 1
        self.scale: float = 1.0
        self._calibrated = False

    def calibrate(self, x: np.ndarray) -> None:
        """Set the scale from a calibration batch (max-abs observer)."""
        peak = float(np.abs(x).max())
        self.scale = max(peak, 1e-12) / self.qmax
        self._calibrated = True

    def quantize(self, x: np.ndarray) -> np.ndarray:
        """Return integer codes in [0, qmax] (negatives clip to 0).

        ``clip(round(x / scale), 0, qmax)``, run in one new buffer laid
        out like ``x``: the divide allocates it and round and clip
        update it in place, so ``x`` is never written.
        """
        q = np.divide(x, self.scale)
        np.round(q, out=q)
        np.clip(q, 0, self.qmax, out=q)
        return q

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Quantize-dequantize: the float value the crossbar actually
        sees, ``quantize(x) * scale`` scaled in the codes' buffer."""
        q = self.quantize(x)
        q *= self.scale
        return q
