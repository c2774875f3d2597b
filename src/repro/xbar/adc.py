"""Analog-to-digital conversion of bitline currents.

ISAAC reads one cell column per cycle through a sample-and-hold and a
shared ADC. We model a uniform quantizer with saturating full scale;
``bits=None`` gives an ideal (lossless) converter, which is the setting
under which the bit-accurate engine provably matches the fast float
evaluation path (see tests/xbar/test_engine_equivalence.py).
"""

from __future__ import annotations

from typing import Optional

import numpy as np


class ADC:
    """Uniform quantizing ADC with configurable resolution.

    Parameters
    ----------
    bits:
        Resolution; ``None`` means ideal (identity).
    full_scale:
        Largest representable input current; larger inputs saturate.
        Required when ``bits`` is set.
    """

    def __init__(self, bits: Optional[int] = None,
                 full_scale: Optional[float] = None):
        """Validate and store the converter configuration."""
        if bits is not None:
            if bits < 1:
                raise ValueError("ADC bits must be >= 1")
            if full_scale is None or full_scale <= 0:
                raise ValueError("a quantizing ADC needs a positive full_scale")
        self.bits = bits
        self.full_scale = full_scale

    @property
    def ideal(self) -> bool:
        """Whether this converter is the lossless identity."""
        return self.bits is None

    @property
    def step(self) -> float:
        """Quantization step size (LSB) of a non-ideal converter."""
        if self.ideal:
            raise ValueError("ideal ADC has no quantization step")
        return self.full_scale / ((1 << self.bits) - 1)

    def codes(self, current: np.ndarray,
              out: Optional[np.ndarray] = None) -> np.ndarray:
        """The integer output codes of a non-ideal converter, as float64.

        Clips ``current`` to ``[0, full_scale]``, divides by
        :attr:`step` and rounds half to even, in that order: the order
        fixes which code an exact half-step current gets, so no caller
        may fold the division into its operands or reorder it.
        Elementwise: the result has the shape of ``current``. With
        ``out`` (a float64 array of that shape, ``current`` itself
        allowed) the codes are written there in place; without it
        ``current`` is never written. An ideal converter has no codes
        and raises ``ValueError``, as :attr:`step` does.
        """
        step = self.step
        current = np.asarray(current, dtype=np.float64)
        if out is None:
            out = np.empty_like(current)
        np.clip(current, 0.0, self.full_scale, out=out)
        np.divide(out, step, out=out)
        return np.round(out, out=out)

    def convert(self, current: np.ndarray) -> np.ndarray:
        """Digitise ``current``; returns values on the quantizer grid,
        ``codes(current) * step`` for a non-ideal converter.

        Elementwise: the result has the same shape as ``current``.
        """
        current = np.asarray(current, dtype=np.float64)
        if self.ideal:
            return current
        return self.codes(current) * self.step
