"""Deployment snapshots: persist and restore a programmed chip state.

A deployed model is defined by its per-layer programmed cell
conductances, offset registers, complement flags and quantization
parameters — the state of a *physical chip after writing and tuning*.
Snapshots make that state portable: evaluate on one machine, analyse on
another, or archive the exact chip a result was measured on.

The snapshot stores arrays only (via :mod:`repro.utils.serialization`);
restoring requires the same float model and deployer configuration that
produced it, mirroring how a real chip needs its host-side metadata.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict

import numpy as np

from repro.core.pwt import crossbar_modules
from repro.nn.module import Module
from repro.utils.serialization import (load_arrays, normalize_archive_path,
                                       save_arrays)

if TYPE_CHECKING:  # import cycle: pipeline pulls in the whole deploy stack
    from repro.core.pipeline import Deployer


def save_deployment(model: Module, path: str) -> None:
    """Persist the crossbar state of a deployed model.

    Stores, for every crossbar layer in traversal order: the programmed
    cell conductances, the offset registers, and the complement mask.
    (Quantization parameters and network structure come from the
    deployer that rebuilds the model — see :func:`load_deployment`.)
    """
    mods = crossbar_modules(model)
    if not mods:
        raise ValueError("model has no crossbar layers to snapshot")
    arrays: Dict[str, np.ndarray] = {}
    for i, mod in enumerate(mods):
        arrays[f"layer{i}_cells"] = mod.cells
        arrays[f"layer{i}_offsets"] = mod.offsets.data
        arrays[f"layer{i}_complement"] = mod.complement_mask
    save_arrays(path, arrays, metadata={"n_layers": len(mods)})


def load_deployment(deployer: "Deployer", path: str) -> Module:
    """Rebuild a deployed model from a snapshot.

    ``deployer`` must be configured identically to the one that
    produced the snapshot (same model, quantization, granularity and
    cell technology); the stored cells/offsets/complement replace a
    fresh programming cycle.
    """
    data = load_arrays(path)
    n_layers = len([k for k in data if k.endswith("_cells")])
    if n_layers != len(deployer.layers):
        raise ValueError(
            f"snapshot has {n_layers} layers, deployer expects "
            f"{len(deployer.layers)}")
    cells = []
    for i, prep in enumerate(deployer.layers):
        layer_cells = data[f"layer{i}_cells"]
        expected = (prep.plan.rows, prep.plan.cols,
                    deployer.device.cells_per_weight)
        if layer_cells.shape != expected:
            raise ValueError(
                f"layer {i}: snapshot cells {layer_cells.shape} do not "
                f"match the deployer's layout {expected}")
        cells.append(layer_cells)
    deployed = deployer._build_deployed(cells)
    for i, mod in enumerate(crossbar_modules(deployed)):
        mod.offsets.data[...] = data[f"layer{i}_offsets"]
        mod.set_complement(data[f"layer{i}_complement"])
    return deployed


def snapshot_exists(path: str) -> bool:
    """Whether a snapshot file is present at ``path``.

    Uses the same suffix normalisation as the serialization helpers, so
    this check and a later :func:`load_deployment` see the same file.
    """
    return normalize_archive_path(path).exists()
