"""The simulated RRAM array the deployer programs and reads back.

:class:`SimArray` is one array region holding the cells of a single
weight matrix: ``cells_per_weight`` physical columns per weight column,
one wordline per matrix row. It does exactly what the paper's flow asks
of a chip — one write and one read:

* :meth:`SimArray.program` — write integer weight values (one
  programming cycle; the cycle-to-cycle noise is redrawn);
* :meth:`SimArray.read_back` — the current per-cell conductances
  (what PWT's post-writing read-back consumes);
* :meth:`SimArray.load_cells` — install a stored cell image (warm
  starts from the serve registry).

Device physics come from a :class:`repro.device.lut.DeviceModel`
(lognormal DDV/CCV, finite ON/OFF ratio, bit-sliced cells), optionally
wrapped in :class:`repro.device.faults.FaultyDeviceModel`. A stack of
:mod:`repro.array.scenarios` transforms is replayed over every freshly
programmed cell image:

.. code-block:: python

    scenarios = parse_scenario_spec(
        "stuck_at:sa0_rate=0.05,sa1_rate=0.01;drift:t_seconds=1e4")
    array = SimArray(device, rows, cols, scenarios, seed)

Seed discipline: programming calls ``device.program_cells(values, rng)``
first, so an empty stack consumes exactly the draws of a direct device
call (verified in ``tests/array/test_equivalence.py``). Each scenario's
persistent chip state (stuck cells, temperature coefficients, drift
exponents) is sampled once, lazily, from its own child of ``seed``
(:func:`repro.utils.rng.spawn_seeds`) and reused across programming
cycles; per-cycle scenario noise draws from the programming rng after
the device's own draws.
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.array.scenarios import Scenario
from repro.device.cell import CellType
from repro.device.faults import FaultyDeviceModel
from repro.device.lut import DeviceModel
from repro.obs import metrics as obs_metrics
from repro.utils.rng import RngLike, SeedLike, make_rng, spawn_seeds

__all__ = ["SimArray"]

#: Anything SimArray can drive: the bare lognormal model or its
#: stuck-at-fault wrapper (both expose ``program_cells``).
SimDevice = Union[DeviceModel, FaultyDeviceModel]


class SimArray:
    """Simulated RRAM array: lognormal variation plus a scenario stack.

    One instance is one array region of ``rows`` x ``cols`` weights
    (``rows`` x ``cols * cells_per_weight`` physical cells). An array is
    created unprogrammed; :meth:`program` (or :meth:`load_cells`)
    installs a cell image of shape ``(rows, cols, cells_per_weight)``
    which :meth:`read_back` then returns. Chip-persistent state — the
    fault map of a :class:`FaultyDeviceModel` and every scenario's
    sampled state — survives re-programming, exactly as on silicon.
    """

    def __init__(self, device: SimDevice, rows: int, cols: int,
                 scenarios: Sequence[Scenario] = (),
                 seed: Optional[SeedLike] = None):
        """Build an unprogrammed array over ``device`` physics.

        ``rows`` / ``cols`` are the weight-matrix dimensions; the cell
        image programmed later has shape (rows, cols, cells_per_weight).
        ``scenarios`` are applied in order after every programming
        cycle; ``seed`` feeds their persistent-state streams.
        """
        if rows < 1 or cols < 1:
            raise ValueError("array dimensions must be positive")
        self.device = device
        self.rows = int(rows)
        self.cols = int(cols)
        self.scenarios: Tuple[Scenario, ...] = tuple(scenarios)
        self._state_seeds = spawn_seeds(seed, len(self.scenarios))
        self._states: List[Any] = [None] * len(self.scenarios)
        self._initialized = [False] * len(self.scenarios)
        self._cells: Optional[np.ndarray] = None

    @property
    def cells_per_weight(self) -> int:
        """Physical cells (bit slices) per weight."""
        return self.device.cells_per_weight

    @property
    def cell(self) -> CellType:
        """The cell technology of the simulated devices."""
        device = self.device
        if isinstance(device, FaultyDeviceModel):
            device = device.device
        return device.cell

    def _state_for(self, index: int, shape: Tuple[int, ...]) -> Any:
        """The persistent state of scenario ``index`` for this region.

        Sampled on the first programming cycle from the scenario's
        dedicated stream — deterministic in ``seed``, independent of
        trial order.
        """
        if not self._initialized[index]:
            rng = make_rng(self._state_seeds[index])
            self._states[index] = self.scenarios[index].init_state(
                shape, self.cell, rng)
            self._initialized[index] = True
        return self._states[index]

    def program(self, values: np.ndarray, rng: RngLike = None) -> np.ndarray:
        """Program one cycle; returns cells (rows, cols, cells_per_weight).

        Calls ``device.program_cells(values, rng)``, replays the
        scenario stack over the result and installs it as the array's
        state.
        """
        values = np.asarray(values)
        if values.shape != (self.rows, self.cols):
            raise ValueError(
                f"expected values of shape {(self.rows, self.cols)}, "
                f"got {values.shape}")
        rng = make_rng(rng)
        cells = self.device.program_cells(values, rng)
        obs_metrics.inc("array.program_cycles")
        for i, scenario in enumerate(self.scenarios):
            state = self._state_for(i, cells.shape)
            cells = scenario.apply(cells, self.cell, state, rng)
            obs_metrics.inc(f"scenario.{scenario.name}.applied")
        self.load_cells(cells)
        return self.read_back()

    def load_cells(self, cells: np.ndarray) -> None:
        """Install the cell image, shape (rows, cols, cells_per_weight)."""
        cells = np.asarray(cells, dtype=np.float64)
        expected = (self.rows, self.cols, self.cells_per_weight)
        if cells.shape != expected:
            raise ValueError(
                f"expected cells of shape {expected}, got {cells.shape}")
        self._cells = cells

    def read_back(self) -> np.ndarray:
        """The current cell conductances (rows, cols, cells_per_weight)."""
        if self._cells is None:
            raise RuntimeError("array has not been programmed")
        return self._cells

    def __repr__(self) -> str:
        return (f"SimArray(rows={self.rows}, cols={self.cols}, "
                f"cells_per_weight={self.cells_per_weight})")
