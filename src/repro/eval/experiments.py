"""Named workloads and experiment runners for every table and figure.

The paper's evaluation uses three workloads (LeNet/MNIST,
ResNet-18/CIFAR-10, VGG-16/CIFAR-10). This module builds their
synthetic-data equivalents, trains them once, caches the trained
weights on disk, and exposes one runner per paper artifact:

========  ==============================================  =============
Artifact  Content                                          Runner
========  ==============================================  =============
Fig 5(a)  LeNet, 5 methods x granularities, SLC, s=0.5    run_fig5_accuracy("lenet", ...)
Fig 5(b)  ResNet-18, same grid                             run_fig5_accuracy("resnet18", ...)
Fig 5(c)  ResNet-18, VAWO*+PWT, MLC, sigma sweep           run_fig5c(...)
Table I   relative reading power, VAWO* vs plain           run_table1(...)
Table II  ISAAC tile overhead                              run_table2(...)
Table III comparison vs DVA / PM / DVA+PM                  run_table3(...)
========  ==============================================  =============

Every runner accepts a ``preset``: ``"quick"`` (minutes, used by the
default benchmark run and CI) or ``"full"`` (the sizes EXPERIMENTS.md
reports). Numbers are averaged over independent programming cycles as
in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.arch.area import tile_overhead
from repro.arch.energy import deployment_reading_power
from repro.baselines.dva import DVA_DEVICES_PER_WEIGHT, DVAConfig, train_dva
from repro.baselines.pm import (PM_DEVICES_PER_WEIGHT, PMConfig, deploy_pm)
from repro.cache import CacheStore, resolve_store, stage_key
from repro.core.pipeline import DeployConfig, Deployer
from repro.core.pwt import PWTConfig
from repro.data.loaders import Dataset
from repro.data.synthetic import synthetic_cifar, synthetic_digits
from repro.device.cell import MLC2, SLC
from repro.eval.accuracy import evaluate_deployment, ideal_accuracy
from repro.nn.models import LeNet, resnet18_slim, vgg16_slim
from repro.nn.optim import Adam
from repro.nn.trainer import evaluate_accuracy, train_classifier
from repro.obs.trace import span
from repro.parallel import run_trials
from repro.utils.logging import get_logger
from repro.utils.rng import make_rng, spawn_seeds
from repro.xbar.arch import normalized_crossbar_number

logger = get_logger(__name__)


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------
@dataclass
class Workload:
    """A trained model plus its train/test data."""

    name: str
    model: object
    train: Dataset
    test: Dataset
    float_accuracy: float


@dataclass(frozen=True)
class WorkloadSpec:
    """How to synthesise and train one named workload."""

    name: str
    dataset: str                    # "digits" or "cifar"
    model_factory: Callable
    n_samples: int
    epochs: int
    batch_size: int = 64
    lr: float = 1e-3
    weight_decay: float = 5e-4
    noise_augment: float = 0.2      # input-noise augmentation level


def _augmented(train: Dataset, level: float, rng) -> Dataset:
    """Duplicate the train set with additive input noise (robust training)."""
    from repro.data.augment import add_noise, augment_dataset
    if level <= 0:
        return train
    return augment_dataset(train, [lambda x: add_noise(x, level, rng)])


_SPECS: Dict[str, Dict[str, WorkloadSpec]] = {
    "lenet": {
        "quick": WorkloadSpec("lenet", "digits", LeNet, 1600, epochs=4),
        "full": WorkloadSpec("lenet", "digits", LeNet, 4000, epochs=8),
    },
    "resnet18": {
        "quick": WorkloadSpec("resnet18", "cifar",
                              lambda rng: resnet18_slim(base_width=8, rng=rng),
                              900, epochs=3),
        "full": WorkloadSpec("resnet18", "cifar",
                             lambda rng: resnet18_slim(base_width=8, rng=rng),
                             2400, epochs=6),
    },
    "vgg16": {
        "quick": WorkloadSpec("vgg16", "cifar",
                              lambda rng: vgg16_slim(width_scale=0.125, rng=rng),
                              900, epochs=3),
        "full": WorkloadSpec("vgg16", "cifar",
                             lambda rng: vgg16_slim(width_scale=0.125, rng=rng),
                             2400, epochs=6),
    },
}


def workload_names() -> List[str]:
    return sorted(_SPECS)


#: Entry of the ``workload`` artifact holding the trained model's float
#: test accuracy next to its state dict.
_FLOAT_ACCURACY = "float_accuracy"


def _workload_data(spec: WorkloadSpec, seed: int,
                   store: Optional[CacheStore]) -> Tuple[Dataset, Dataset]:
    """The workload's synthetic ``(train, test)`` split (``data`` stage).

    Synthesis and the 80/20 split draw from one ``make_rng(seed)``
    stream, so both live inside the stage: a hit skips the two together
    and no other stream sees a difference. With no ``store`` the same
    function computes uncached.
    """
    def synthesize() -> Dict[str, np.ndarray]:
        rng = make_rng(seed)
        if spec.dataset == "digits":
            images, labels = synthetic_digits(spec.n_samples, rng=rng)
        else:
            images, labels = synthetic_cifar(spec.n_samples, rng=rng)
        # Spelled unbound so the stage's R8 hash covers the split too.
        train, test = Dataset.split(Dataset(images, labels), 0.8, rng=rng)
        return {"train_images": train.images, "train_labels": train.labels,
                "test_images": test.images, "test_labels": test.labels}

    if store is None:
        arrays = synthesize()
    else:
        key = stage_key("data", dataset=spec.dataset,
                        n_samples=spec.n_samples, seed=seed)
        arrays = store.fetch(key, synthesize, stage="data",
                             metadata={"dataset": spec.dataset,
                                       "n_samples": spec.n_samples,
                                       "seed": seed})
    return (Dataset(arrays["train_images"], arrays["train_labels"]),
            Dataset(arrays["test_images"], arrays["test_labels"]))


def build_workload(name: str, preset: str = "quick", seed: int = 0,
                   cache_dir: Optional[Path] = None,
                   train_override: Optional[Callable] = None) -> Workload:
    """Build (or load from the artifact cache) a trained workload.

    ``train_override(model, train, spec, rng)`` replaces the default
    training loop — the DVA baseline uses this to inject variation-aware
    training while sharing data synthesis and caching. The train/test
    split (the ``data`` stage) and the trained weights with their float
    accuracy (the ``workload`` stage) are stored through
    :mod:`repro.cache`: ``cache_dir`` forces a store location, otherwise
    ``REPRO_CACHE`` resolves one (or disables reuse entirely).
    """
    if name not in _SPECS:
        raise ValueError(f"unknown workload {name!r}; choose from {workload_names()}")
    if preset not in _SPECS[name]:
        raise ValueError(f"unknown preset {preset!r}")
    spec = _SPECS[name][preset]
    store = resolve_store(cache_dir)
    train, test = _workload_data(spec, seed, store)

    model = spec.model_factory(rng=make_rng(seed + 1)) \
        if _accepts_rng(spec.model_factory) else spec.model_factory(make_rng(seed + 1))

    tag = "default" if train_override is None else train_override.__name__

    def train_state() -> Dict[str, np.ndarray]:
        aug = _augmented(train, spec.noise_augment, make_rng(seed + 2))
        with span("workload.train", workload=name, preset=preset):
            if train_override is None:
                opt = Adam(model.parameters(), lr=spec.lr,
                           weight_decay=spec.weight_decay)
                train_classifier(model, aug, epochs=spec.epochs,
                                 batch_size=spec.batch_size, optimizer=opt,
                                 rng=make_rng(seed + 3))
            else:
                train_override(model, aug, spec, make_rng(seed + 3))
        accuracy = evaluate_accuracy(model, test)
        return {**model.state_dict(), _FLOAT_ACCURACY: np.float64(accuracy)}

    if store is None:
        state = train_state()
    else:
        # Every spec field that shapes the trained weights enters the
        # key, so editing a preset invalidates its artifacts.
        key = stage_key(
            "workload", name=name, preset=preset, seed=seed, tag=tag,
            dataset=spec.dataset, n_samples=spec.n_samples,
            epochs=spec.epochs, batch_size=spec.batch_size, lr=spec.lr,
            weight_decay=spec.weight_decay,
            noise_augment=spec.noise_augment)
        state = store.fetch(key, train_state, stage="workload",
                            metadata={"workload": name, "preset": preset,
                                      "seed": seed, "tag": tag})
    accuracy = float(state.pop(_FLOAT_ACCURACY))
    model.load_state_dict(state)
    model.eval()            # the mode evaluate_accuracy leaves on a miss
    return Workload(name=name, model=model, train=train, test=test,
                    float_accuracy=accuracy)


def _accepts_rng(factory: Callable) -> bool:
    import inspect
    try:
        return "rng" in inspect.signature(factory).parameters
    except (TypeError, ValueError):
        return False


# ----------------------------------------------------------------------
# Fig. 5(a) / 5(b): methods x granularity
# ----------------------------------------------------------------------
@dataclass
class AccuracyRow:
    """One point of a Fig. 5-style accuracy grid."""

    workload: str
    method: str
    granularity: int
    sigma: float
    cell_bits: int
    mean_accuracy: float
    std_accuracy: float
    ideal_accuracy: float

    @property
    def accuracy_drop(self) -> float:
        return self.ideal_accuracy - self.mean_accuracy


def _default_pwt(preset: str) -> PWTConfig:
    """PWT schedule for the experiment runners.

    Deep residual/VGG workloads need substantially more offset-training
    steps than LeNet (their loss surface over offsets is harder); a
    gently decayed Adam over the full train set works for all three
    workloads, so one schedule is used everywhere.
    """
    if preset == "quick":
        return PWTConfig(epochs=10, lr=1.0, lr_decay=0.9)
    return PWTConfig(epochs=16, lr=1.0, lr_decay=0.9)


def run_fig5_accuracy(workload_name: str, preset: str = "quick",
                      methods: Sequence[str] = DeployConfig.METHODS,
                      granularities: Sequence[int] = (16, 64, 128),
                      sigma: float = 0.5, cell=SLC, n_trials: int = 2,
                      seed: int = 0,
                      jobs: Optional[int] = 1) -> List[AccuracyRow]:
    """The Fig. 5(a)/(b) grid: every method at every granularity.

    ``jobs`` parallelises each cell's programming-cycle trials
    (bit-identical to serial; see :mod:`repro.parallel`).
    """
    wl = build_workload(workload_name, preset, seed)
    rows = []
    ideal = None
    for m in granularities:
        for method in methods:
            cfg = DeployConfig.from_method(
                method, sigma=sigma, cell=cell, granularity=m,
                pwt=_default_pwt(preset), bn_recalibrate=True)
            deployer = Deployer(wl.model, wl.train, cfg, rng=seed + 10)
            if ideal is None:
                ideal = ideal_accuracy(deployer, wl.test)
            result = evaluate_deployment(deployer, wl.test,
                                         n_trials=n_trials, rng=seed + 20,
                                         jobs=jobs)
            rows.append(AccuracyRow(
                workload=workload_name, method=method, granularity=m,
                sigma=sigma, cell_bits=cell.bits,
                mean_accuracy=result.mean, std_accuracy=result.std,
                ideal_accuracy=ideal))
            logger.info("%s m=%d %s: %.4f", workload_name, m, method,
                        result.mean)
    return rows


def run_fig5c(preset: str = "quick",
              sigmas: Sequence[float] = (0.2, 0.4, 0.5, 0.7, 1.0),
              granularities: Sequence[int] = (16, 64, 128),
              n_trials: int = 2, seed: int = 0,
              jobs: Optional[int] = 1) -> List[AccuracyRow]:
    """Fig. 5(c): ResNet-18 on 2-bit MLCs, VAWO*+PWT, sigma sweep.

    ``jobs`` parallelises each cell's programming-cycle trials.
    """
    wl = build_workload("resnet18", preset, seed)
    rows = []
    for sigma in sigmas:
        for m in granularities:
            cfg = DeployConfig.from_method(
                "vawo*+pwt", sigma=sigma, cell=MLC2, granularity=m,
                pwt=_default_pwt(preset), bn_recalibrate=True)
            deployer = Deployer(wl.model, wl.train, cfg, rng=seed + 10)
            ideal = ideal_accuracy(deployer, wl.test)
            result = evaluate_deployment(deployer, wl.test,
                                         n_trials=n_trials, rng=seed + 20,
                                         jobs=jobs)
            rows.append(AccuracyRow(
                workload="resnet18", method="vawo*+pwt", granularity=m,
                sigma=sigma, cell_bits=MLC2.bits,
                mean_accuracy=result.mean, std_accuracy=result.std,
                ideal_accuracy=ideal))
            logger.info("fig5c sigma=%.1f m=%d: %.4f", sigma, m, result.mean)
    return rows


# ----------------------------------------------------------------------
# scenario matrix: technique x non-ideality stack (repro.array.scenarios)
# ----------------------------------------------------------------------
@dataclass
class ScenarioRow:
    """One technique x scenario-stack point of the robustness matrix."""

    workload: str
    method: str
    scenario: str                   # human label ("none" = bare array)
    spec: Optional[str]             # the parsed spec string, None = empty
    sigma: float
    mean_accuracy: float
    std_accuracy: float
    clean_accuracy: float           # same method, empty scenario stack

    @property
    def accuracy_drop(self) -> float:
        return self.mean_accuracy - self.clean_accuracy


#: Default scenario axis of :func:`run_scenario_matrix` — label → spec.
#: ``None`` is the control column: the bare array, bit-identical to the
#: classic pipeline, against which every stack's drop is measured.
DEFAULT_SCENARIOS: Dict[str, Optional[str]] = {
    "none": None,
    "stuck_at": "stuck_at:sa0_rate=0.05,sa1_rate=0.01",
    "temperature": "temperature:temperature=360.0",
    "drift": "drift:t_seconds=1e5",
}


def run_scenario_matrix(workload_name: str = "lenet",
                        preset: str = "quick",
                        methods: Sequence[str] = ("plain", "vawo*+pwt"),
                        scenario_axis: Optional[Dict[str, Optional[str]]] = None,
                        scenarios: Optional[str] = None,
                        sigma: float = 0.5, n_trials: int = 2, seed: int = 0,
                        jobs: Optional[int] = 1) -> List[ScenarioRow]:
    """Technique x scenario robustness grid over the scenario engine.

    Every (method, stack) cell programs arrays that replay the stack
    (:class:`repro.array.sim.SimArray`) and evaluates ``n_trials``
    programming cycles with the parallel executor (``jobs`` shards
    them; bit-identical to serial). ``scenarios`` replaces the default
    axis with one caller-provided stack (plus the "none" control).
    """
    axis = dict(scenario_axis) if scenario_axis is not None \
        else dict(DEFAULT_SCENARIOS)
    if scenarios is not None:
        axis = {"none": None, "custom": scenarios}
    if "none" not in axis:
        axis = {"none": None, **axis}
    wl = build_workload(workload_name, preset, seed)
    rows: List[ScenarioRow] = []
    for method in methods:
        clean: Optional[float] = None
        for label, spec in axis.items():
            cfg = DeployConfig.from_method(
                method, sigma=sigma, cell=SLC, granularity=16,
                pwt=_default_pwt(preset), bn_recalibrate=True,
                scenarios=spec)
            deployer = Deployer(wl.model, wl.train, cfg, rng=seed + 10)
            result = evaluate_deployment(deployer, wl.test,
                                         n_trials=n_trials, rng=seed + 20,
                                         jobs=jobs)
            if clean is None:       # "none" is always first in the axis
                clean = result.mean
            rows.append(ScenarioRow(
                workload=workload_name, method=method, scenario=label,
                spec=spec, sigma=sigma, mean_accuracy=result.mean,
                std_accuracy=result.std, clean_accuracy=clean))
            logger.info("scenario %s %s: %.4f", method, label, result.mean)
    return rows


# ----------------------------------------------------------------------
# Table I: relative reading power
# ----------------------------------------------------------------------
def run_table1(preset: str = "quick",
               granularities: Sequence[int] = (16, 128),
               seed: int = 0) -> Dict[str, Dict[int, float]]:
    """Relative total device reading power, VAWO* vs plain (2-bit MLC)."""
    out: Dict[str, Dict[int, float]] = {}
    for name in ("lenet", "resnet18"):
        wl = build_workload(name, preset, seed)
        out[name] = {}
        for m in granularities:
            cfg = DeployConfig.from_method("vawo*", sigma=0.5, cell=MLC2,
                                           granularity=m)
            deployer = Deployer(wl.model, wl.train, cfg, rng=seed + 10)
            out[name][m] = deployment_reading_power(deployer)
            logger.info("table1 %s m=%d: %.4f", name, m, out[name][m])
    return out


# ----------------------------------------------------------------------
# Table II: tile overhead
# ----------------------------------------------------------------------
def run_table2(granularities: Sequence[int] = (16, 128)) -> List[Dict]:
    """ISAAC tile area/power overhead of the digital-offset support."""
    return [tile_overhead(m).as_dict() for m in granularities]


# ----------------------------------------------------------------------
# Table III: comparison against DVA / PM / DVA+PM
# ----------------------------------------------------------------------
@dataclass
class ComparisonRow:
    """One column of Table III."""

    method: str
    network: str
    sigma: float
    accuracy_loss: float
    crossbar_number: float


def _dva_train(sigma: float):
    def train(model, data, spec, rng):
        cfg = DVAConfig(sigma=sigma, epochs=spec.epochs,
                        batch_size=spec.batch_size, lr=spec.lr,
                        weight_decay=spec.weight_decay)
        train_dva(model, data, cfg, rng=rng)
    train.__name__ = f"dva{sigma}"
    return train


def _pm_trial(model, test_data: Dataset, sigma: float, trial: int,
              rng) -> float:
    """One PM programming-cycle trial (module-level so it pickles)."""
    deployed = deploy_pm(model, PMConfig(sigma=sigma), rng=rng)
    return evaluate_accuracy(deployed, test_data)


def run_pm_trials(model, test_data: Dataset, sigma: float, n_trials: int,
                  seeds, jobs: Optional[int] = 1) -> List[float]:
    """PM trial accuracies over pre-spawned per-trial seed streams.

    ``seeds`` are ``SeedSequence`` children (one per trial), so the
    accuracies depend only on the streams — not on sweep ordering or
    the worker count.
    """
    run = run_trials(partial(_pm_trial, model, test_data, sigma),
                     n_trials, seeds=seeds, jobs=jobs)
    return run.results()


def run_table3(preset: str = "quick", n_trials: int = 2,
               seed: int = 0, jobs: Optional[int] = 1) -> List[ComparisonRow]:
    """Accuracy loss + normalised crossbar count for all four methods.

    Mirrors Table III: DVA at sigma=0.5, PM / DVA+PM / this work at
    sigma=0.8, all on the VGG-16 workload. Crossbar numbers follow the
    devices-per-weight normalisation of Section IV-C2 (ours = 1).
    ``jobs`` parallelises every method's programming-cycle trials.

    Each method's trials draw from their own ``SeedSequence``-spawned
    streams (one spawn child per method, re-spawned per trial), so
    trial seeds are independent of sweep ordering and of ``n_trials``
    elsewhere in the grid.
    """
    ours_devices = 4                       # 4 x 2-bit MLC per weight
    rows: List[ComparisonRow] = []
    pm_roots = spawn_seeds(seed + 99, 2)   # one root per PM-family method

    # --- DVA: variation-aware training, plain one-crossbar deployment.
    dva_wl = build_workload("vgg16", preset, seed,
                            train_override=_dva_train(0.5))
    cfg = DeployConfig.from_method("plain", sigma=0.5, cell=SLC)
    deployer = Deployer(dva_wl.model, dva_wl.train, cfg, rng=seed + 10)
    res = evaluate_deployment(deployer, dva_wl.test, n_trials=n_trials,
                              rng=seed + 20, jobs=jobs)
    rows.append(ComparisonRow(
        method="DVA", network="vgg16", sigma=0.5,
        accuracy_loss=dva_wl.float_accuracy - res.mean,
        crossbar_number=normalized_crossbar_number(
            DVA_DEVICES_PER_WEIGHT, ours_devices)))

    # --- PM and DVA+PM: unary coding + priority mapping, sigma=0.8.
    plain_wl = build_workload("vgg16", preset, seed)
    for root, (label, wl) in zip(pm_roots, (("PM", plain_wl),
                                            ("DVA+PM", dva_wl))):
        accs = run_pm_trials(wl.model, wl.test, 0.8, n_trials,
                             seeds=spawn_seeds(root, n_trials), jobs=jobs)
        rows.append(ComparisonRow(
            method=label, network="vgg16", sigma=0.8,
            accuracy_loss=wl.float_accuracy - float(np.mean(accs)),
            crossbar_number=normalized_crossbar_number(
                PM_DEVICES_PER_WEIGHT, ours_devices)))

    # --- This work: VAWO*+PWT on 2-bit MLCs at sigma=0.8.
    cfg = DeployConfig.from_method("vawo*+pwt", sigma=0.8, cell=MLC2,
                                   granularity=16, pwt=_default_pwt(preset),
                                   bn_recalibrate=True)
    deployer = Deployer(plain_wl.model, plain_wl.train, cfg, rng=seed + 10)
    res = evaluate_deployment(deployer, plain_wl.test, n_trials=n_trials,
                              rng=seed + 20, jobs=jobs)
    rows.append(ComparisonRow(
        method="This work", network="vgg16", sigma=0.8,
        accuracy_loss=plain_wl.float_accuracy - res.mean,
        crossbar_number=1.0))
    return rows
