"""Content-addressed registry of programmed crossbar deployments.

Programming a chip is the expensive part of serving: the deployer's
noise-independent preparation plus one programming cycle, BatchNorm
recalibration and PWT add up to seconds-to-minutes, while a server
restart should be instant. The registry closes that gap by storing the
*complete programmed state* — per-layer cell conductances, complement
masks, and the deployed model's full parameter/buffer state dict
(tuned offsets, recalibrated BatchNorm statistics) — in the existing
:mod:`repro.cache` object store, keyed by a ``serve_program`` stage key
over everything that determines the state: the float model weights,
the training data the post-programming tuning consumed, every config
field of the deployment, and the deployer / programming seeds.

A restarted server with the same configuration therefore *warm-starts*:
it reconstructs the deployer (cheap — its stages are themselves
cached), loads the programmed arrays, and serves the bit-identical chip
state it served before. A mismatched or missing artifact falls back to
a fresh programming cycle, which is then stored for next time.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, Mapping, Optional, Tuple

import numpy as np

from repro.array.scenarios import scenario_key_components
from repro.cache import CacheStore, active_store, digest_array, digest_arrays
from repro.cache.keys import stage_key
from repro.core.pipeline import Deployer
from repro.core.pwt import crossbar_modules
from repro.device.lut import device_key_components
from repro.nn.module import Module
from repro.obs import metrics as obs_metrics
from repro.obs.trace import span
from repro.utils.logging import get_logger
from repro.utils.rng import SeedLike, make_rng

logger = get_logger(__name__)

__all__ = ["ModelRegistry", "serve_program_key"]

#: Array-name prefix under which the deployed model's state dict lives
#: inside a registry artifact (keeps model keys clear of the per-layer
#: ``layer{i}_*`` crossbar arrays).
_STATE_PREFIX = "state."


def _seed_components(seed: SeedLike) -> Tuple[Any, ...]:
    """A fingerprintable tuple identifying one seed's random stream.

    Accepts the two picklable forms :func:`repro.utils.rng.spawn_seeds`
    hands out: plain integers and ``SeedSequence`` children (whose
    stream is fully determined by entropy + spawn key).
    """
    if isinstance(seed, np.random.SeedSequence):
        entropy = seed.entropy
        if isinstance(entropy, (list, tuple)):
            entropy = tuple(int(e) for e in entropy)
        elif entropy is not None:
            entropy = int(entropy)
        return ("seedseq", entropy, tuple(int(k) for k in seed.spawn_key))
    return ("int", int(seed))


def serve_program_key(deployer: Deployer, deployer_seed: SeedLike,
                      program_seed: SeedLike) -> str:
    """The content hash naming one programmed deployment.

    Folds in every input the programmed state depends on: the float
    model weights, the train set (BatchNorm recalibration and PWT read
    it), the device physics, the stuck-at fault rates and the
    scenario-stack parameters (two runs share programmed state only
    when the arrays would reproduce it), all deployment config fields,
    and the seeds of both the deployer's preparation stream and the
    programming cycle itself.
    """
    cfg = deployer.config
    components: Dict[str, Any] = dict(device_key_components(deployer.device))
    components.update(
        scenarios=scenario_key_components(cfg.scenarios),
        model_state=digest_arrays(deployer.model.state_dict()),
        train_images=digest_array(deployer.train_data.images),
        train_labels=digest_array(deployer.train_data.labels),
        method=cfg.method_name,
        weight_bits=cfg.weight_bits,
        input_bits=cfg.input_bits,
        granularity=cfg.granularity,
        offset_bits=cfg.offset_bits,
        lut_source=cfg.lut_source,
        grad_batches=cfg.grad_batches,
        grad_batch_size=cfg.grad_batch_size,
        grad_floor_frac=cfg.grad_floor_frac,
        bias_tolerance=cfg.bias_tolerance,
        bn_recalibrate=cfg.bn_recalibrate,
        saf_rates=cfg.saf_rates,
        pwt=dataclasses.asdict(cfg.pwt),
        deployer_seed=_seed_components(deployer_seed),
        program_seed=_seed_components(program_seed))
    return stage_key("serve_program", **components)


class ModelRegistry:
    """Store/load programmed deployments through the artifact cache.

    ``store`` defaults to the env-resolved process store
    (:func:`repro.cache.active_store`); when caching is disabled the
    registry degrades to always programming fresh.
    """

    def __init__(self, store: Optional[CacheStore] = None) -> None:
        self.store = store if store is not None else active_store()

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------
    def store_deployment(self, key: str, deployed: Module,
                         metadata: Optional[Mapping[str, Any]] = None,
                         ) -> None:
        """Persist a programmed model's complete state under ``key``."""
        if self.store is None:
            return
        mods = crossbar_modules(deployed)
        if not mods:
            raise ValueError("model has no crossbar layers to register")
        arrays: Dict[str, np.ndarray] = {}
        for i, mod in enumerate(mods):
            arrays[f"layer{i}_cells"] = mod.cells
            arrays[f"layer{i}_complement"] = mod.complement_mask
        for name, value in deployed.state_dict().items():
            arrays[_STATE_PREFIX + name] = value
        self.store.put(key, arrays, stage="serve_program",
                       metadata={"n_layers": len(mods),
                                 **dict(metadata or {})})

    def load_deployment(self, key: str,
                        deployer: Deployer) -> Optional[Module]:
        """Rebuild the programmed model stored under ``key``, or ``None``.

        ``deployer`` must be configured identically to the one that
        produced the artifact (the key construction guarantees that
        when :func:`serve_program_key` is used); an artifact whose
        layout does not match is treated as a miss, not an error —
        the caller then programs fresh and overwrites it.
        """
        if self.store is None:
            return None
        arrays = self.store.get(key, stage="serve_program")
        if arrays is None:
            return None
        n_layers = len([k for k in arrays if k.endswith("_cells")])
        if n_layers != len(deployer.layers):
            logger.warning("registry artifact %s has %d layers, deployer "
                           "expects %d — reprogramming", key[:16], n_layers,
                           len(deployer.layers))
            return None
        cells = []
        for i, prep in enumerate(deployer.layers):
            layer_cells = arrays[f"layer{i}_cells"]
            expected = (prep.plan.rows, prep.plan.cols,
                        deployer.device.cells_per_weight)
            if layer_cells.shape != expected:
                logger.warning("registry artifact %s layer %d cells %s do "
                               "not match layout %s — reprogramming",
                               key[:16], i, layer_cells.shape, expected)
                return None
            cells.append(layer_cells)
        # Warm starts restore the arrays too, so read_back on a loaded
        # deployment observes the stored chip state.
        for array, layer_cells in zip(deployer.arrays, cells):
            array.load_cells(layer_cells)
        deployed = deployer._build_deployed(cells)
        state = {name[len(_STATE_PREFIX):]: value
                 for name, value in arrays.items()
                 if name.startswith(_STATE_PREFIX)}
        deployed.load_state_dict(state)
        for i, mod in enumerate(crossbar_modules(deployed)):
            mod.set_complement(arrays[f"layer{i}_complement"])
        deployed.eval()
        return deployed

    # ------------------------------------------------------------------
    # the serving entry point
    # ------------------------------------------------------------------
    def get_or_program(self, deployer: Deployer, deployer_seed: SeedLike,
                       program_seed: SeedLike,
                       metadata: Optional[Mapping[str, Any]] = None,
                       ) -> Tuple[Module, str, bool]:
        """The programmed model for this configuration, warm if possible.

        Returns ``(model, key, warm_start)``. On a miss the deployment
        is programmed with ``program_seed`` — the same stream a
        ``repro deploy`` trial would use — and stored for the next
        server start.
        """
        key = serve_program_key(deployer, deployer_seed, program_seed)
        cached = self.load_deployment(key, deployer)
        if cached is not None:
            obs_metrics.inc("serve.registry_hits")
            logger.info("registry warm start from %s…", key[:16])
            return cached, key, True
        obs_metrics.inc("serve.registry_misses")
        with span("serve.program", key=key[:16]):
            deployed = deployer.program(rng=make_rng(program_seed))
        self.store_deployment(key, deployed, metadata=metadata)
        return deployed, key, False
