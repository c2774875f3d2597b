"""Weight initialisation (Kaiming/He normal)."""

from __future__ import annotations

import numpy as np

from repro.utils.rng import RngLike, make_rng


def kaiming_normal(shape, fan_in: int, rng: RngLike = None) -> np.ndarray:
    """He-normal init: N(0, sqrt(2 / fan_in)), suited to ReLU networks."""
    rng = make_rng(rng)
    std = np.sqrt(2.0 / fan_in)
    return rng.normal(0.0, std, size=shape)
