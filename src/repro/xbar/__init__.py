"""Crossbar simulation: ADCs, tiling, and the bit-accurate engine."""

from repro.xbar.adc import ADC
from repro.xbar.arch import (OneCrossbarScheme, SchemeCost, TwoCrossbarScheme,
                             normalized_crossbar_number)
from repro.xbar.engine import CrossbarEngine
from repro.xbar.mapper import CrossbarMapper, TileSpec, layer_matrix_shape

__all__ = [
    "ADC", "CrossbarEngine",
    "CrossbarMapper", "TileSpec", "layer_matrix_shape",
    "OneCrossbarScheme", "TwoCrossbarScheme", "SchemeCost",
    "normalized_crossbar_number",
]
