"""The simulated crossbar array behind every deployed weight matrix.

:class:`~repro.array.sim.SimArray` is the one array class: the deployer
builds one per layer, programs it (``program``), reads it back
(``read_back``) for PWT, and restores stored cell images on serve warm
starts (``load_cells``). Composable non-ideality scenarios live in
:mod:`repro.array.scenarios`; ``SimArray`` replays its stack after
every programming cycle. With an empty stack, programming is exactly
``device.program_cells`` (asserted by ``tests/array/``).
"""

from repro.array import scenarios
from repro.array.sim import SimArray

__all__ = ["SimArray", "scenarios"]
