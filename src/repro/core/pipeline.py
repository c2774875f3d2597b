"""End-to-end deployment: quantize -> VAWO* -> program -> PWT -> evaluate.

This module orchestrates the whole flow of the paper's Fig. 2-4 story
for an arbitrary trained network:

1. every ``Conv2d`` / ``Linear`` weight tensor is quantized to shifted
   non-negative n-bit integers (the NTWs) and its crossbar matrix
   layout and offset plan are derived;
2. input quantizers are calibrated with a forward pass;
3. if VAWO is enabled, mean per-weight gradients are estimated on
   training data and :func:`repro.core.vawo.run_vawo` picks the CTWs,
   initial offsets and complement flags (otherwise the plain scheme is
   used);
4. :meth:`Deployer.program` simulates one programming cycle — fresh CCV
   noise — and builds a deployed model whose conv/linear layers are
   :mod:`repro.core.crossbar_layers` instances;
5. if PWT is enabled, the offsets are tuned on training data.

Calling :meth:`Deployer.program` repeatedly with different seeds gives
the independent programming cycles the paper averages over (5 trials).
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field, replace
from typing import (TYPE_CHECKING, Any, Callable, Dict, List, Mapping,
                    Optional, Tuple, Union)

import numpy as np

if TYPE_CHECKING:
    from repro.eval.accuracy import TrialResult

from repro.array.scenarios import ScenarioSpec, parse_scenario_spec
from repro.array.sim import SimArray
from repro.cache import (CacheStore, active_store, digest_array,
                         digest_arrays, stage_key)
from repro.core.crossbar_layers import (CrossbarConv2d, CrossbarLinear,
                                        _CrossbarBase)
from repro.core.offsets import OffsetPlan
from repro.core.pwt import PWTConfig, run_pwt
from repro.core.vawo import VAWOResult, plain_assignment, run_vawo
from repro.data.loaders import Dataset, iterate_batches
from repro.device.cell import SLC, CellType
from repro.device.faults import FaultyDeviceModel
from repro.device.lut import (DeviceLUT, DeviceModel, build_lut_analytic,
                              build_lut_monte_carlo, device_key_components,
                              lut_from_arrays, lut_to_arrays)
from repro.device.variation import VariationModel
from repro.nn import functional as F
from repro.nn.layers import Conv2d, Linear, Sequential
from repro.nn.module import Module
from repro.nn.tensor import Tensor, no_grad
from repro.obs import metrics as obs_metrics
from repro.obs.trace import span
from repro.quant.bitslice import slice_weights
from repro.quant.quantizer import AffineQuantizer, InputQuantizer
from repro.utils.logging import get_logger
from repro.utils.rng import RngLike, derive_seed, make_rng, spawn_seeds

logger = get_logger(__name__)


@dataclass
class DeployConfig:
    """Everything that defines a deployment scenario."""

    weight_bits: int = 8
    input_bits: Optional[int] = 8          # None = no activation quantization
    cell: CellType = SLC
    sigma: float = 0.5
    ddv_fraction: float = 0.0
    granularity: int = 16                  # the paper's m
    offset_bits: int = 8
    use_vawo: bool = False
    use_complement: bool = False
    use_pwt: bool = False
    lut_source: str = "analytic"           # or "monte_carlo"
    lut_k_sets: int = 32
    lut_j_cycles: int = 32
    grad_batches: int = 4
    grad_batch_size: int = 64
    grad_floor_frac: float = 0.1
    bias_tolerance: float = 2.0
    bn_recalibrate: bool = False    # refresh BatchNorm stats post-writing
    # Optional stuck-at faults: (sa0_rate, sa1_rate) of cells pinned to
    # their OFF/ON conductance. Faults are invisible to VAWO (a-priori)
    # but visible to PWT's read-back — matching real deployments.
    saf_rates: Optional[Tuple[float, float]] = None
    # The non-ideality scenario stack every array replays after
    # programming — a spec string
    # ("stuck_at:sa0_rate=0.05;drift:t_seconds=1e4"), a parsed
    # Scenario sequence, or per-scenario dicts. Empty = programming is
    # exactly device.program_cells.
    scenarios: ScenarioSpec = None
    pwt: PWTConfig = field(default_factory=PWTConfig)

    METHODS = ("plain", "vawo", "vawo*", "pwt", "vawo*+pwt")

    def __post_init__(self):
        if self.lut_source not in ("analytic", "monte_carlo"):
            raise ValueError(f"unknown lut_source {self.lut_source!r}")
        if self.granularity < 1:
            raise ValueError("granularity must be positive")
        # Normalise the scenario spec once so equal configs compare (and
        # fingerprint) equal regardless of which spec form built them.
        self.scenarios = parse_scenario_spec(self.scenarios)

    @classmethod
    def from_method(cls, method: str, **kwargs: Any) -> "DeployConfig":
        """Build a config from one of the paper's five scheme names."""
        flags = {
            "plain": dict(use_vawo=False, use_complement=False, use_pwt=False),
            "vawo": dict(use_vawo=True, use_complement=False, use_pwt=False),
            "vawo*": dict(use_vawo=True, use_complement=True, use_pwt=False),
            "pwt": dict(use_vawo=False, use_complement=False, use_pwt=True),
            "vawo*+pwt": dict(use_vawo=True, use_complement=True, use_pwt=True),
        }
        if method not in flags:
            raise ValueError(f"unknown method {method!r}; "
                             f"choose from {sorted(flags)}")
        return cls(**{**flags[method], **kwargs})

    @property
    def method_name(self) -> str:
        """The paper's scheme name for this flag combination."""
        key = (self.use_vawo, self.use_complement, self.use_pwt)
        return {
            (False, False, False): "plain",
            (True, False, False): "vawo",
            (True, True, False): "vawo*",
            (False, False, True): "pwt",
            (True, True, True): "vawo*+pwt",
            (True, False, True): "vawo+pwt",
        }.get(key, "custom")


# ----------------------------------------------------------------------
# model traversal helpers
# ----------------------------------------------------------------------
def mappable_layers(model: Module) -> List[Tuple[str, Module]]:
    """The crossbar-mappable layers (Conv2d / Linear), in stable order."""
    return [(name, mod) for name, mod in model.named_modules()
            if isinstance(mod, (Conv2d, Linear))]


def _replace_module(root: Module, path: str, new: Module) -> None:
    """Replace the module at dotted ``path`` inside ``root``."""
    parts = path.split(".")
    parent = root
    for part in parts[:-1]:
        parent = parent._modules[part]
    leaf = parts[-1]
    parent._modules[leaf] = new
    object.__setattr__(parent, leaf, new)


def _rebuild_sequentials(root: Module) -> None:
    """Refresh every Sequential's ordered list after replacements."""
    for _, mod in root.named_modules():
        if isinstance(mod, Sequential):
            mod._seq = [mod._modules[f"m{i}"] for i in range(len(mod._seq))]


def weight_to_matrix(weight: np.ndarray) -> np.ndarray:
    """Layer weight tensor -> crossbar matrix (rows=inputs, cols=outputs)."""
    weight = np.asarray(weight)
    if weight.ndim == 2:            # Linear: (out, in) -> (in, out)
        return weight.T
    if weight.ndim == 4:            # Conv: (F, C, kh, kw) -> (C*kh*kw, F)
        return weight.reshape(weight.shape[0], -1).T
    raise ValueError(f"unsupported weight ndim {weight.ndim}")


# ----------------------------------------------------------------------
# per-layer preparation
# ----------------------------------------------------------------------
@dataclass
class LayerPrep:
    """Everything VAWO / programming needs for one layer."""

    path: str
    is_conv: bool
    kernel_shape: Optional[Tuple[int, ...]]
    stride: int
    padding: int
    ntw: np.ndarray                 # (rows, cols) integers
    scale: float
    zero_point: int
    bias: Optional[np.ndarray]
    plan: OffsetPlan
    input_quantizer: Optional[InputQuantizer]
    grads: Optional[np.ndarray] = None        # (rows, cols) mean gradients
    assignment: Optional[VAWOResult] = None   # CTW / offsets / complement


class _CalibrationShim(Module):
    """Wraps a layer during calibration to record its input peak."""

    def __init__(self, inner: Module):
        super().__init__()
        self.inner = inner
        self.peak = 0.0

    def forward(self, x: Tensor) -> Tensor:
        self.peak = max(self.peak, float(np.abs(x.data).max()))
        return self.inner(x)


class Deployer:
    """Prepares a trained model for crossbar deployment and programs it.

    The expensive, noise-independent work (quantization, calibration,
    gradient estimation, VAWO) happens once in the constructor; each
    :meth:`program` call then simulates an independent programming cycle.
    """

    def __init__(self, model: Module, train_data: Dataset,
                 config: DeployConfig, rng: RngLike = None,
                 cache: Optional[CacheStore] = None):
        """Run the noise-independent preparation for ``model``.

        Quantizes weights, calibrates input ranges, estimates per-weight
        gradients and solves VAWO (as configured) — everything needed
        before the first :meth:`program` call. Stage results are reused
        through the artifact cache (``cache``, defaulting to the
        env-resolved :func:`repro.cache.active_store`; ``REPRO_CACHE=0``
        disables reuse) with bit-identical results either way: stages
        that consume randomness are handed dedicated integer seeds drawn
        from the parent stream in a config-determined order, so a cache
        hit advances ``rng`` exactly as a miss does.
        """
        self.model = model
        self.config = config
        self.train_data = train_data
        self._rng = make_rng(rng)
        self.cache = cache if cache is not None else active_store()
        self.variation = VariationModel(config.sigma, config.ddv_fraction)
        self.device = DeviceModel(config.cell, self.variation,
                                  n_bits=config.weight_bits)
        # Per-stage seeds, drawn in a fixed config-determined order —
        # never conditional on cache state (see DESIGN.md, "Why stage
        # keys exclude RNG-dependent inputs").
        self._saf_seed = (derive_seed(self._rng)
                          if config.saf_rates is not None else None)
        self._lut_seed = (derive_seed(self._rng)
                          if config.lut_source == "monte_carlo" else None)
        self._grad_seed = derive_seed(self._rng) if config.use_vawo else None
        # Scenario chip state gets its own stream — drawn only when a
        # stack is configured, so scenario-free runs leave the parent
        # stream (and every downstream draw) untouched.
        self._scenario_seed = (derive_seed(self._rng)
                               if config.scenarios else None)
        self.lut = self._build_lut()
        self.layers: List[LayerPrep] = self._prepare_layers()
        self._calibrate_inputs()
        if config.use_vawo:
            self._estimate_gradients()
        self._assign_targets()
        self.arrays: List[SimArray] = self._build_arrays()

    # ------------------------------------------------------------------
    # preparation stages
    # ------------------------------------------------------------------
    def _stage(self, stage: str, components: Dict[str, Any],
               compute: Callable[[], Dict[str, np.ndarray]],
               span_name: str, **span_attrs: Any) -> Dict[str, np.ndarray]:
        """Run one cacheable stage: lookup by content key, else compute.

        ``components`` are the stage's actual inputs (config fields and
        array digests — never RNG generators); ``compute`` returns the
        stage's full result as a named array family, which is what a
        later hit replays bit-identically. The stage span carries a
        ``cached`` attribute so ``--profile`` manifests show reuse.
        """
        store = self.cache
        if store is None:
            with span(span_name, cached=False, **span_attrs):
                return compute()
        key = stage_key(stage, **components)
        arrays = store.get(key, stage=stage)
        with span(span_name, cached=arrays is not None, **span_attrs):
            if arrays is None:
                arrays = compute()
                store.put(key, arrays, stage=stage,
                          metadata={"method": self.config.method_name})
            return arrays

    def _build_lut(self) -> DeviceLUT:
        components: Dict[str, Any] = dict(
            device_key_components(self.device),
            source=self.config.lut_source)
        if self.config.lut_source == "monte_carlo":
            components.update(k_sets=self.config.lut_k_sets,
                              j_cycles=self.config.lut_j_cycles,
                              seed=self._lut_seed)

        def compute() -> Dict[str, np.ndarray]:
            if self.config.lut_source == "analytic":
                lut = build_lut_analytic(self.device)
            else:
                lut = build_lut_monte_carlo(
                    self.device, self.config.lut_k_sets,
                    self.config.lut_j_cycles, make_rng(self._lut_seed))
            return lut_to_arrays(lut)

        arrays = self._stage("lut", components, compute, "deploy.lut",
                             source=self.config.lut_source)
        return lut_from_arrays(arrays)

    def _prepare_layers(self) -> List[LayerPrep]:
        layers = mappable_layers(self.model)
        if not layers:
            raise ValueError("model has no crossbar-mappable layers")
        components = dict(
            weights=digest_arrays(
                {path: layer.weight.data for path, layer in layers}),
            weight_bits=self.config.weight_bits)

        def compute() -> Dict[str, np.ndarray]:
            quantizer = AffineQuantizer(self.config.weight_bits)
            out: Dict[str, np.ndarray] = {}
            for i, (_, layer) in enumerate(layers):
                qt = quantizer.quantize(layer.weight.data)
                out[f"{i}.ntw"] = weight_to_matrix(qt.values)
                out[f"{i}.scale"] = np.float64(qt.scale)
                out[f"{i}.zero_point"] = np.int64(qt.zero_point)
            return out

        arrays = self._stage("quantize", components, compute,
                             "deploy.quantize")
        preps = []
        for i, (path, layer) in enumerate(layers):
            ntw = arrays[f"{i}.ntw"]
            plan = OffsetPlan(rows=ntw.shape[0], cols=ntw.shape[1],
                              granularity=self.config.granularity)
            is_conv = isinstance(layer, Conv2d)
            in_q = (InputQuantizer(self.config.input_bits)
                    if self.config.input_bits else None)
            preps.append(LayerPrep(
                path=path, is_conv=is_conv,
                kernel_shape=tuple(layer.weight.shape) if is_conv else None,
                stride=getattr(layer, "stride", 1),
                padding=getattr(layer, "padding", 0),
                ntw=ntw, scale=float(arrays[f"{i}.scale"]),
                zero_point=int(arrays[f"{i}.zero_point"]),
                bias=None if layer.bias is None else layer.bias.data.copy(),
                plan=plan, input_quantizer=in_q))
        return preps

    def _calibrate_inputs(self) -> None:
        """Record per-layer input peaks on a calibration batch."""
        if self.config.input_bits is None:
            return
        n_cal = min(len(self.train_data), 256)
        images = self.train_data.images[:n_cal]
        # Peaks depend on every parameter/buffer the forward pass reads
        # (not just mappable weights), so the whole state enters the key.
        components = dict(
            state=digest_arrays(self.model.state_dict()),
            images=digest_array(images),
            input_bits=self.config.input_bits)
        arrays = self._stage(
            "calibrate", components,
            lambda: {"peaks": self._measure_peaks(images)},
            "deploy.calibrate")
        for prep, peak in zip(self.layers, arrays["peaks"]):
            prep.input_quantizer.calibrate(np.array(peak))

    def _measure_peaks(self, images: np.ndarray) -> np.ndarray:
        """Forward ``images`` (n, ...) once; per-layer input peaks (L,)."""
        shims: Dict[str, _CalibrationShim] = {}
        for prep in self.layers:
            target = self._lookup(self.model, prep.path)
            shim = _CalibrationShim(target)
            _replace_module(self.model, prep.path, shim)
            shims[prep.path] = shim
        _rebuild_sequentials(self.model)
        try:
            self.model.eval()
            with no_grad():
                self.model(Tensor(images))
        finally:
            for prep in self.layers:
                _replace_module(self.model, prep.path, shims[prep.path].inner)
            _rebuild_sequentials(self.model)
        return np.array([shims[prep.path].peak for prep in self.layers])

    def _estimate_gradients(self) -> None:
        """Per-weight loss sensitivity over training batches (Eq. 5).

        The paper weights Var[R(v)] by the squared mean training-set
        gradient. At a well-trained optimum the mean gradient is ~0 for
        every weight (that is what training converged to), so its square
        carries almost no sensitivity information. We therefore estimate
        the RMS of per-batch gradients — a Fisher-information-style
        proxy for how strongly the loss reacts to perturbing each weight
        — which reduces to the paper's quantity away from convergence
        and stays informative at it. DESIGN.md records this refinement.
        """
        components = dict(
            state=digest_arrays(self.model.state_dict()),
            images=digest_array(self.train_data.images),
            labels=digest_array(self.train_data.labels),
            batches=self.config.grad_batches,
            batch_size=self.config.grad_batch_size,
            seed=self._grad_seed)
        arrays = self._stage("gradients", components,
                             self._compute_gradients, "deploy.gradients",
                             batches=self.config.grad_batches)
        for i, prep in enumerate(self.layers):
            prep.grads = arrays[f"{i}.grads"]

    def _compute_gradients(self) -> Dict[str, np.ndarray]:
        """Batch-shuffled gradient RMS per layer, keyed ``{i}.grads``."""
        rng = make_rng(self._grad_seed)
        self.model.eval()
        layer_map = dict(mappable_layers(self.model))
        sq_sums = {prep.path: np.zeros_like(layer_map[prep.path].weight.data)
                   for prep in self.layers}
        n_batches = 0
        for images, labels in iterate_batches(
                self.train_data, self.config.grad_batch_size,
                shuffle=True, rng=rng):
            self.model.zero_grad()
            loss = F.cross_entropy(self.model(Tensor(images)), labels)
            loss.backward()
            for prep in self.layers:
                grad = layer_map[prep.path].weight.grad
                if grad is not None:
                    sq_sums[prep.path] += grad ** 2
            n_batches += 1
            if n_batches >= self.config.grad_batches:
                break
        self.model.zero_grad()
        out: Dict[str, np.ndarray] = {}
        for i, prep in enumerate(self.layers):
            rms = np.sqrt(sq_sums[prep.path] / max(n_batches, 1))
            out[f"{i}.grads"] = weight_to_matrix(rms)
        return out

    def _assign_targets(self) -> None:
        with span("deploy.vawo", layers=len(self.layers),
                  method=self.config.method_name):
            if not self.config.use_vawo:
                for prep in self.layers:
                    prep.assignment = plain_assignment(prep.ntw, prep.plan)
                return
            lut_digest = digest_arrays(lut_to_arrays(self.lut))
            for prep in self.layers:
                prep.assignment = self._solve_vawo(prep, lut_digest)

    def _solve_vawo(self, prep: LayerPrep, lut_digest: str) -> VAWOResult:
        """One layer's cached VAWO solve (search itself is in core.vawo)."""
        cfg = self.config
        components = dict(
            ntw=digest_array(prep.ntw), grads=digest_array(prep.grads),
            lut=lut_digest, granularity=cfg.granularity,
            weight_bits=cfg.weight_bits, offset_bits=cfg.offset_bits,
            use_complement=cfg.use_complement,
            grad_floor_frac=cfg.grad_floor_frac,
            bias_tolerance=cfg.bias_tolerance)

        def compute() -> Dict[str, np.ndarray]:
            result = run_vawo(
                prep.ntw, prep.grads, self.lut, prep.plan,
                weight_bits=cfg.weight_bits, offset_bits=cfg.offset_bits,
                use_complement=cfg.use_complement,
                grad_floor_frac=cfg.grad_floor_frac,
                bias_tolerance=cfg.bias_tolerance)
            return {"ctw": result.ctw, "registers": result.registers,
                    "complement": result.complement,
                    "objective": result.objective}

        arrays = self._stage("vawo", components, compute, "deploy.vawo_layer",
                             layer=prep.path)
        return VAWOResult(ctw=arrays["ctw"], registers=arrays["registers"],
                          complement=arrays["complement"],
                          objective=arrays["objective"])

    # ------------------------------------------------------------------
    # lookup helper
    # ------------------------------------------------------------------
    @staticmethod
    def _lookup(root: Module, path: str) -> Module:
        mod = root
        for part in path.split("."):
            mod = mod._modules[part]
        return mod

    # ------------------------------------------------------------------
    # programming / deployment
    # ------------------------------------------------------------------
    def _build_arrays(self) -> List[SimArray]:
        """One :class:`SimArray` per layer, in layer order.

        With ``saf_rates`` set, every layer gets its own
        :class:`FaultyDeviceModel`; all of them draw their lazily
        sampled fault maps from one generator seeded with the SAF seed,
        in programming (= layer) order, so equal-shaped layers get
        independent maps. A configured scenario stack gets one
        persistent-state seed per layer (``SeedSequence`` children).
        """
        n_layers = len(self.layers)
        devices: List[Union[DeviceModel, FaultyDeviceModel]] = (
            [self.device] * n_layers)
        if self.config.saf_rates is not None:
            sa0, sa1 = self.config.saf_rates
            saf_rng = make_rng(self._saf_seed)
            devices = [FaultyDeviceModel(self.device, sa0_rate=sa0,
                                         sa1_rate=sa1, rng=saf_rng)
                       for _ in range(n_layers)]
        seeds = (spawn_seeds(self._scenario_seed, n_layers)
                 if self.config.scenarios else [None] * n_layers)
        return [SimArray(device, prep.plan.rows, prep.plan.cols,
                         self.config.scenarios, seed)
                for prep, device, seed in zip(self.layers, devices, seeds)]

    def _build_deployed(self, cells_per_layer: List[np.ndarray]) -> Module:
        deployed = copy.deepcopy(self.model)
        for prep, cells in zip(self.layers, cells_per_layer):
            common = dict(
                cells=cells, plan=prep.plan,
                registers=prep.assignment.registers.astype(np.float64),
                complement=prep.assignment.complement,
                cell=self.config.cell, weight_bits=self.config.weight_bits,
                weight_scale=prep.scale, weight_zero_point=prep.zero_point,
                input_quantizer=prep.input_quantizer, bias=prep.bias,
                ntw=prep.ntw, grad_weights=prep.grads)
            if prep.is_conv:
                new = CrossbarConv2d(kernel_shape=prep.kernel_shape,
                                     stride=prep.stride,
                                     padding=prep.padding, **common)
            else:
                new = CrossbarLinear(**common)
            _replace_module(deployed, prep.path, new)
        _rebuild_sequentials(deployed)
        deployed.eval()
        return deployed

    def program(self, rng: RngLike = None,
                run_pwt_tuning: Optional[bool] = None) -> Module:
        """Simulate one programming cycle and return the deployed model.

        Each call redraws the CCV noise (and the DDV component, i.e.
        each call models a fresh chip unless ``ddv_fraction`` is 0 and
        it makes no difference). If the config enables PWT it runs here,
        after writing — pass ``run_pwt_tuning=False`` to skip it.
        """
        rng = make_rng(rng if rng is not None else derive_seed(self._rng))
        with span("deploy.program", layers=len(self.layers)):
            cells = [array.program(prep.assignment.ctw, rng)
                     for prep, array in zip(self.layers, self.arrays)]
            deployed = self._build_deployed(cells)
        obs_metrics.inc("deploy.programming_cycles")
        if self.config.bn_recalibrate:
            with span("deploy.bn_recalibrate"):
                recalibrate_batchnorm(deployed, self.train_data, rng=rng)
        do_pwt = self.config.use_pwt if run_pwt_tuning is None else run_pwt_tuning
        if do_pwt:
            with span("deploy.pwt"):
                run_pwt(deployed, self.train_data, self.config.pwt, rng)
        return deployed

    def evaluate(self, test_data: Dataset, n_trials: int = 5,
                 rng: RngLike = None, batch_size: int = 256,
                 jobs: Optional[int] = 1,
                 trial_timeout: Optional[float] = None) -> "TrialResult":
        """Run ``n_trials`` independent programming cycles and score each.

        The deployer's trial loop: every trial redraws the CCV noise
        via its own ``SeedSequence``-spawned stream, programs the
        crossbars, reruns PWT if configured, and evaluates on
        ``test_data``. With ``jobs != 1`` the trials shard across
        worker processes (:mod:`repro.parallel`) with bit-identical
        results; ``trial_timeout`` bounds one trial's wall-clock
        seconds in process mode. Returns a
        :class:`repro.eval.accuracy.TrialResult`.
        """
        from repro.eval.accuracy import evaluate_deployment

        return evaluate_deployment(self, test_data, n_trials=n_trials,
                                   rng=rng, batch_size=batch_size, jobs=jobs,
                                   trial_timeout=trial_timeout)

    def ideal_model(self) -> Module:
        """The noise-free quantized reference (the paper's "ideal" line).

        Weights equal the dequantized NTWs exactly: no variation, no
        ON/OFF-ratio leak, zero offsets.
        """
        cells = [slice_weights(prep.ntw, self.config.weight_bits,
                               self.config.cell.bits).astype(np.float64)
                 for prep in self.layers]
        saved = [(prep.assignment.registers, prep.assignment.complement)
                 for prep in self.layers]
        for prep in self.layers:
            prep_zero = plain_assignment(prep.ntw, prep.plan)
            prep.assignment = replace(prep.assignment,
                                      registers=prep_zero.registers,
                                      complement=prep_zero.complement)
        try:
            deployed = self._build_deployed(cells)
        finally:
            for prep, (regs, comp) in zip(self.layers, saved):
                prep.assignment = replace(prep.assignment,
                                          registers=regs, complement=comp)
        return deployed

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def total_registers(self) -> int:
        """Digital-offset register count across all layers (Eq. 9)."""
        return sum(prep.plan.n_registers for prep in self.layers)

    def layer_matrix_shapes(self) -> List[Tuple[int, int]]:
        """Per-layer crossbar matrix shape (rows, cols), in layer order."""
        return [(prep.plan.rows, prep.plan.cols) for prep in self.layers]

    def crossbar_count(self, crossbar_size: int = 128) -> int:
        """Physical 128x128 crossbars this deployment occupies.

        Uses the one-crossbar architecture's tiling (each weight takes
        ``cells_per_weight`` physical columns).
        """
        from repro.xbar.mapper import CrossbarMapper

        mapper = CrossbarMapper(size=crossbar_size,
                                cells_per_weight=self.device.cells_per_weight)
        return mapper.count_model(self.layer_matrix_shapes())


def recalibrate_batchnorm(model: Module, data: Dataset,
                          n_batches: int = 8, batch_size: int = 64,
                          rng: RngLike = None) -> Module:
    """Refresh BatchNorm running statistics on a deployed model, in place.

    Under weight variation the activation statistics shift, so the
    BatchNorm layers' stored running mean/var (measured on the clean
    network) are stale. This utility re-estimates them by running
    forward passes in training mode *without touching any parameter* —
    a purely digital, post-deployment calibration that composes with
    (and is ablated against) PWT. Returns the model for chaining.
    """
    from repro.nn.layers import BatchNorm2d

    bns = [m for _, m in model.named_modules() if isinstance(m, BatchNorm2d)]
    if not bns:
        return model
    rng = make_rng(rng)
    for bn in bns:
        bn.running_mean[...] = 0.0
        bn.running_var[...] = 1.0
    model.train()
    seen = 0
    # Cumulative-average momentum so every batch contributes equally.
    with no_grad():
        for images, _ in iterate_batches(data, batch_size, shuffle=True,
                                         rng=rng):
            seen += 1
            for bn in bns:
                bn.momentum = 1.0 / seen
            model(Tensor(images))
            if seen >= n_batches:
                break
    for bn in bns:
        bn.momentum = 0.1
    model.eval()
    return model
