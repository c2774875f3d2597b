"""The serving controller: configuration → programmed model → forwards.

:class:`InferenceService` owns everything between a serve configuration
and a batched forward pass: it builds (or cache-loads) the trained
workload, constructs the same :class:`~repro.core.pipeline.Deployer` a
``repro deploy`` run would, resolves the programmed model through the
:class:`~repro.serve.registry.ModelRegistry`, and exposes the
fixed-shape batch forward (:meth:`run_batch`) the micro-batcher drives.

Seed parity with ``repro deploy`` is deliberate: the deployer is built
with ``rng=seed + 10`` and the chip is programmed with the *first
spawned child* of ``seed + 20`` — exactly the stream trial 0 of
``evaluate_deployment(..., rng=seed + 20)`` consumes (SeedSequence
children are identical regardless of how many siblings are spawned).
A served response is therefore bitwise comparable to the one-shot
deploy evaluation of the same inputs, which is what the CI smoke gate
asserts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.nn.tensor import Tensor, no_grad
from repro.serve.batcher import MicroBatcher
from repro.serve.registry import ModelRegistry
from repro.utils.logging import get_logger
from repro.utils.rng import spawn_seeds

logger = get_logger(__name__)

__all__ = ["InferenceService", "ServeConfig"]


@dataclass
class ServeConfig:
    """Everything that defines one serving deployment.

    The model-defining fields (workload through ``saf_rates``) mirror
    the ``repro deploy`` CLI flags and defaults; the serving knobs
    (``max_batch`` onward) shape the micro-batcher and admission
    control.
    """

    workload: str = "lenet"
    preset: str = "quick"
    method: str = "vawo*+pwt"
    sigma: float = 0.5
    granularity: int = 16
    cell_bits: int = 1
    seed: int = 0
    saf_rates: Optional[Tuple[float, float]] = None
    # Scenario-stack spec string (None = no scenarios).
    scenarios: Optional[str] = None
    max_batch: int = 8
    max_wait_ms: float = 2.0
    queue_limit: int = 64
    deadline_ms: Optional[float] = None

    def describe(self) -> str:
        extras = ""
        if self.scenarios:
            extras += f" scenarios={self.scenarios}"
        return (f"{self.workload}/{self.preset} method={self.method} "
                f"sigma={self.sigma} m={self.granularity} "
                f"cell={self.cell_bits}-bit seed={self.seed}{extras}")


@dataclass
class _Prepared:
    """The programmed artifacts a service resolves once at startup."""

    model: Any
    model_key: str
    warm_start: bool
    test_images: np.ndarray
    test_labels: np.ndarray
    float_accuracy: float


class InferenceService:
    """Build, program (or warm-start) and run one serving deployment.

    ``workload`` injects a pre-built :class:`~repro.eval.experiments.
    Workload` (tests use a tiny MLP) instead of resolving
    ``config.workload`` through the experiment builders; ``registry``
    defaults to a :class:`ModelRegistry` over the process cache store.
    """

    def __init__(self, config: ServeConfig,
                 registry: Optional[ModelRegistry] = None,
                 workload: Optional[Any] = None) -> None:
        self.config = config
        self.registry = registry if registry is not None else ModelRegistry()
        self._workload = workload
        self._prepared: Optional[_Prepared] = None

    # ------------------------------------------------------------------
    # startup
    # ------------------------------------------------------------------
    def prepare(self) -> "_Prepared":
        """Resolve the programmed model (idempotent; called once)."""
        if self._prepared is not None:
            return self._prepared
        from repro.core import DeployConfig, Deployer
        from repro.device.cell import MLC2, SLC
        from repro.eval.experiments import _default_pwt, build_workload

        cfg = self.config
        wl = self._workload
        if wl is None:
            wl = build_workload(cfg.workload, cfg.preset, cfg.seed)
        cell = SLC if cfg.cell_bits == 1 else MLC2
        deploy_cfg = DeployConfig.from_method(
            cfg.method, sigma=cfg.sigma, granularity=cfg.granularity,
            cell=cell, pwt=_default_pwt(cfg.preset), bn_recalibrate=True,
            saf_rates=cfg.saf_rates, scenarios=cfg.scenarios)
        deployer_seed = cfg.seed + 10
        deployer = Deployer(wl.model, wl.train, deploy_cfg,
                            rng=deployer_seed)
        # Trial 0 of evaluate_deployment(rng=seed + 20) programs with the
        # first spawned child of that seed; serving uses the same stream
        # so responses match the one-shot deploy evaluation bitwise.
        program_seed = spawn_seeds(cfg.seed + 20, 1)[0]
        model, key, warm = self.registry.get_or_program(
            deployer, deployer_seed, program_seed,
            metadata={"workload": cfg.workload, "preset": cfg.preset,
                      "method": cfg.method, "seed": cfg.seed})
        logger.info("serving %s (%s, key %s…)", cfg.describe(),
                    "warm start" if warm else "freshly programmed",
                    key[:16])
        self._prepared = _Prepared(
            model=model, model_key=key, warm_start=warm,
            test_images=np.ascontiguousarray(wl.test.images),
            test_labels=np.ascontiguousarray(wl.test.labels),
            float_accuracy=wl.float_accuracy)
        return self._prepared

    # ------------------------------------------------------------------
    # the forward the batcher drives
    # ------------------------------------------------------------------
    def run_batch(self, inputs: np.ndarray) -> np.ndarray:
        """One fixed-shape forward through the programmed crossbars,
        with no autograd tape (frozen crossbar weights)."""
        prepared = self.prepare()
        with no_grad():
            return prepared.model(Tensor(inputs)).data

    def make_batcher(self) -> MicroBatcher:
        cfg = self.config
        return MicroBatcher(self.run_batch, max_batch=cfg.max_batch,
                            max_wait_ms=cfg.max_wait_ms,
                            queue_limit=cfg.queue_limit)

    # ------------------------------------------------------------------
    # request payload helpers (used by the server)
    # ------------------------------------------------------------------
    def resolve_inputs(self, payload: Mapping[str, Any],
                       ) -> Tuple[np.ndarray, Optional[List[int]]]:
        """Inputs for one ``infer`` request.

        The payload carries either ``indices`` (rows of the workload's
        held-out test set — the CI smoke and benchmarks use this so the
        client never ships image bytes) or ``inputs`` (raw nested-list
        samples). Returns ``(inputs, indices)`` with ``indices`` kept
        for label lookup in the response.
        """
        prepared = self.prepare()
        if "indices" in payload:
            indices = [int(i) for i in payload["indices"]]
            n = prepared.test_images.shape[0]
            for i in indices:
                if not 0 <= i < n:
                    raise ValueError(f"index {i} outside test set of {n}")
            inputs = np.ascontiguousarray(prepared.test_images[indices])
            return inputs, indices
        if "inputs" in payload:
            inputs = np.asarray(payload["inputs"], dtype=np.float64)
            if inputs.ndim == 1:
                inputs = inputs[np.newaxis, :]
            sample_shape = prepared.test_images.shape[1:]
            if inputs.shape[1:] != sample_shape:
                raise ValueError(
                    f"sample shape {inputs.shape[1:]} does not match the "
                    f"workload's {sample_shape}")
            return np.ascontiguousarray(inputs), None
        raise ValueError("infer payload needs 'indices' or 'inputs'")

    def labels_for(self, indices: Sequence[int]) -> List[int]:
        prepared = self.prepare()
        return [int(prepared.test_labels[i]) for i in indices]
