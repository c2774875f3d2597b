"""Iterative write-and-verify programming (the paper's contrast case).

The paper's introduction discusses programming-based variation tolerance
([5], [6]): re-program a device until its conductance lands inside a
target window. That approach *works* but costs many programming pulses,
shortening device lifetime — which is exactly the overhead the digital
offset avoids (one write + one read). This module implements the
iterative programmer so examples/ablations can quantify that trade-off.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.device.lut import DeviceModel
from repro.utils.rng import RngLike, make_rng


@dataclass
class WriteVerifyResult:
    """Outcome of iterative programming of a weight array."""

    crw: np.ndarray          # final crossbar real weights
    pulses: np.ndarray       # programming attempts consumed per weight
    converged: np.ndarray    # bool mask of weights inside tolerance

    @property
    def total_pulses(self) -> int:
        """Programming pulses consumed across the whole array."""
        return int(self.pulses.sum())

    @property
    def convergence_rate(self) -> float:
        """Fraction of weights that landed inside tolerance."""
        return float(self.converged.mean())


def write_verify(device: DeviceModel, values: np.ndarray,
                 rel_tolerance: float = 0.1, max_pulses: int = 20,
                 rng: RngLike = None) -> WriteVerifyResult:
    """Repeatedly program each weight until its CRW is within tolerance.

    A weight is accepted when ``|CRW - v| <= rel_tolerance * max(v, 1)``.
    Each retry redraws the CCV sample (that is the whole point of
    re-programming). Weights that never converge keep their last CRW.
    """
    if rel_tolerance <= 0:
        raise ValueError("rel_tolerance must be positive")
    if max_pulses < 1:
        raise ValueError("max_pulses must be >= 1")
    rng = make_rng(rng)
    values = np.asarray(values)
    crw = device.program(values, rng)
    pulses = np.ones(values.shape, dtype=np.int64)
    tol = rel_tolerance * np.maximum(values, 1)
    converged = np.abs(crw - values) <= tol
    for _ in range(max_pulses - 1):
        todo = ~converged
        if not todo.any():
            break
        retry = device.program(values[todo], rng)
        crw[todo] = retry
        pulses[todo] += 1
        converged[todo] = np.abs(retry - values[todo]) <= tol[todo]
    return WriteVerifyResult(crw=crw, pulses=pulses, converged=converged)
