"""The four workloads of the end-to-end benchmark (see README.md).

Each ``run_*`` function executes inside a fresh child process started by
``run.py``. It sets the workload up several times (``setup_s`` is the
median), measures for ``ctx.seconds`` seconds, checks the outputs, and
returns a :class:`Report`. The benchmark's own spans (``bench.*``,
``pwt.run``, ``trainer.evaluate``, ``xbar.*``) are written inline: they
cost one flag read when the run is untraced.

Inputs come from ``ctx.seed``: programming/trial seeds, arrival times and
request indices. The trained LeNet's data and weights stay fixed at seed
0, so ``--seed 0`` trials are exactly the trials of ``repro deploy
--workload lenet --preset quick --seed 0``.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import shutil
import tempfile
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence

import numpy as np

from repro import obs
from repro.cache import CacheStore
from repro.core import DeployConfig, Deployer, PWTConfig
from repro.core.pwt import crossbar_modules, run_pwt
from repro.data.loaders import Dataset
from repro.data.synthetic import synthetic_cifar
from repro.device.cell import SLC
from repro.eval import experiments
from repro.eval.accuracy import ideal_accuracy
from repro.nn import functional as F
from repro.nn.models import resnet18_slim
from repro.nn.tensor import Tensor
from repro.nn.trainer import evaluate_accuracy, train_classifier
from repro.serve import (InferenceService, ModelRegistry, ServeClient,
                         ServeConfig, ServeServer, pad_batch)
from repro.utils.rng import make_rng, spawn_seeds
from repro.xbar.adc import ADC

HERE = Path(__file__).resolve().parent
REFERENCE_FILE = HERE / "reference.json"

#: The trained LeNet (data, weights, deployer preparation) is fixed at
#: this seed whatever ``--seed`` is; the deployer seed matches
#: ``repro deploy``'s ``seed + 10``.
LENET_SEED = 0
DEPLOYER_SEED = LENET_SEED + 10

#: Upper bound on trials per run; trial seeds are SeedSequence children,
#: identical whatever count is spawned.
MAX_TRIALS = 64

SERVE_MAX_BATCH = 8
ENGINE_ADC_BITS = 6
#: Weight-level MACs of one LeNet image (conv1 + conv2 + fc1-3).
LENET_MACS_PER_IMAGE = 416_520


@dataclass(frozen=True)
class Context:
    """What the parent process hands one workload run."""

    seed: int
    seconds: float
    smoke: bool
    work_dir: Path                  # per-run scratch, deleted by the parent
    fixture_dir: Optional[Path]     # primed LeNet store (warm workloads)

    @property
    def cold_setup_reps(self) -> int:
        return 1 if self.smoke else 2

    @property
    def warm_setup_reps(self) -> int:
        return 2 if self.smoke else 5


@dataclass
class Report:
    """Everything one workload run measured and checked."""

    e2e: Dict[str, float] = field(default_factory=dict)
    samples: Dict[str, int] = field(default_factory=dict)
    checks: List[Dict[str, Any]] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    layer_values: Dict[str, float] = field(default_factory=dict)
    extra: Dict[str, Any] = field(default_factory=dict)
    notices: List[str] = field(default_factory=list)

    def metric(self, name: str, value: float, n: int) -> None:
        self.e2e[name] = float(value)
        self.samples[name] = int(n)

    def setup(self, seconds: Sequence[float]) -> None:
        self.metric("setup_s", float(np.median(seconds)), len(seconds))

    def latency(self, seconds: Sequence[float]) -> None:
        """Median and tail of per-operation latencies given in seconds."""
        self.metric("latency_p50_ms", _percentile_ms(seconds, 50),
                    len(seconds))
        self.metric("latency_tail_ms", _tail_ms(seconds), len(seconds))

    def ops(self, attempted: int, failed: int) -> None:
        self.attempted += int(attempted)
        self.failed += int(failed)

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append({"name": name, "ok": bool(ok), "detail": detail})
        self.ops(1, 0 if ok else 1)

    def to_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)


def _percentile_ms(seconds: Sequence[float], q: float) -> float:
    return float(np.percentile(np.asarray(seconds, dtype=np.float64), q)) * 1e3


def _tail_ms(seconds: Sequence[float]) -> float:
    """The highest percentile, up to p99, with at least ten samples beyond
    it: p99 from 1000 samples, p90 from 100, the maximum from 10 or fewer."""
    n = len(seconds)
    return _percentile_ms(seconds,
                          min(99.0, 100.0 * (1 - 10 / n)) if n > 10 else 100.0)


def _reference() -> Dict[str, Any]:
    return json.loads(REFERENCE_FILE.read_text())


def _reference_check(report: Report, ctx: Context, workload: str, key: str,
                     value: float) -> None:
    """Compare ``value`` with its committed seed-0 reference, or say why not."""
    if ctx.smoke:
        report.notices.append(f"reference check of {key} skipped (--smoke)")
        return
    ref = _reference()[workload]
    expected, tol = float(ref[key]), float(ref["tolerance"])
    report.check(f"{key} matches reference.json",
                 abs(value - expected) <= tol,
                 f"{value!r} vs {expected!r} (tolerance {tol})")


def _fresh_store(ctx: Context) -> CacheStore:
    """An empty artifact store inside the run's scratch directory."""
    return CacheStore(tempfile.mkdtemp(prefix="store-", dir=ctx.work_dir))


def _warm_store(ctx: Context) -> CacheStore:
    """A private copy of the primed fixture store (``REPRO_CACHE`` points
    at it, so code that resolves the process store finds it too)."""
    target = ctx.work_dir / "store"
    if ctx.fixture_dir is not None and not target.exists():
        shutil.copytree(ctx.fixture_dir, target)
    return CacheStore(target)


# ----------------------------------------------------------------------
# the LeNet every workload but pwt-resnet18 deploys
# ----------------------------------------------------------------------
def _train_one_batch(model: Any, data: Dataset, spec: Any, rng: Any) -> None:
    """Smoke-size training: one batch, so ``--smoke`` stays seconds long."""
    train_classifier(model, data.subset(spec.batch_size), epochs=1,
                     batch_size=spec.batch_size, rng=rng)


def _lenet(ctx: Context, store: CacheStore) -> Any:
    """The quick-preset LeNet workload (toy-trained and cut to 64 samples
    per split under ``--smoke``)."""
    if not ctx.smoke:
        return experiments.build_workload("lenet", "quick", LENET_SEED,
                                          cache_dir=store.directory)
    wl = experiments.build_workload("lenet", "quick", LENET_SEED,
                                    cache_dir=store.directory,
                                    train_override=_train_one_batch)
    return dataclasses.replace(wl, train=wl.train.subset(64),
                               test=wl.test.subset(64))


def _lenet_config(smoke: bool) -> DeployConfig:
    """``repro deploy --method vawo*+pwt`` defaults (one PWT batch under
    ``--smoke``)."""
    pwt = (PWTConfig(epochs=1, lr=1.0, max_batches_per_epoch=1) if smoke
           else experiments._default_pwt("quick"))
    return DeployConfig.from_method("vawo*+pwt", sigma=0.5, granularity=16,
                                    cell=SLC, pwt=pwt, bn_recalibrate=True)


def _serve_config() -> ServeConfig:
    return ServeConfig(workload="lenet", preset="quick", seed=LENET_SEED,
                       max_batch=SERVE_MAX_BATCH, max_wait_ms=2.0,
                       queue_limit=256)


def build_fixture(store_dir: Path) -> None:
    """Prime ``store_dir`` (also ``REPRO_CACHE``, which the service's
    deployer resolves) with the trained LeNet, its deployer stages and the
    programmed serving deployment; the warm workloads copy it."""
    wl = experiments.build_workload("lenet", "quick", LENET_SEED,
                                    cache_dir=store_dir)
    InferenceService(_serve_config(), registry=ModelRegistry(
        CacheStore(store_dir)), workload=wl).prepare()


def _check_warm(report: Report, ctx: Context, store: CacheStore,
                artifacts_before: int) -> None:
    """A warm set-up only reads the primed store; a write means a stage
    missed and the set-up time includes a recompute."""
    if not ctx.smoke:
        written = len(store.artifacts()) - artifacts_before
        report.check("warm set-up stored no new artifact", written == 0,
                     f"{written} written")


# ----------------------------------------------------------------------
# programming-cycle trials (deploy-lenet-cold, pwt-resnet18)
# ----------------------------------------------------------------------
@dataclass
class _Trial:
    total_s: float
    pwt_s: float
    pwt_samples: int
    accuracy: float
    final_loss: float


def _pwt_samples(cfg: PWTConfig, n_train: int) -> int:
    """Training samples one PWT run pushes through forward + backward."""
    per_epoch = n_train
    if cfg.max_batches_per_epoch is not None:
        per_epoch = min(n_train, cfg.max_batches_per_epoch * cfg.batch_size)
    return cfg.epochs * per_epoch


def _trial(deployer: Deployer, test: Dataset, seed: Any) -> _Trial:
    """One ``repro deploy`` trial: program -> BN recal -> PWT -> eval.

    Same stream use as ``Deployer.program`` with PWT, split so the PWT
    stage is timed on its own.
    """
    rng = make_rng(seed)
    with obs.span("bench.trial"):
        t0 = time.perf_counter()
        deployed = deployer.program(rng=rng, run_pwt_tuning=False)
        t1 = time.perf_counter()
        with obs.span("pwt.run"):
            history = run_pwt(deployed, deployer.train_data,
                              deployer.config.pwt, rng)
        t2 = time.perf_counter()
        with obs.span("trainer.evaluate"):
            accuracy = evaluate_accuracy(deployed, test)
        t3 = time.perf_counter()
    return _Trial(total_s=t3 - t0, pwt_s=t2 - t1,
                  pwt_samples=_pwt_samples(deployer.config.pwt,
                                           len(deployer.train_data)),
                  accuracy=accuracy, final_loss=history.final_loss)


def _run_trials(ctx: Context, report: Report, workload: str,
                deployer: Deployer, test: Dataset,
                accuracy_floor: float) -> None:
    """Trials until ``ctx.seconds`` elapse (at least one), then metrics
    and checks shared by both deploy workloads."""
    seeds = spawn_seeds(ctx.seed + 20, MAX_TRIALS)
    trials: List[_Trial] = []
    start = time.perf_counter()
    while not trials or (time.perf_counter() - start < ctx.seconds
                         and len(trials) < MAX_TRIALS):
        trials.append(_trial(deployer, test, seeds[len(trials)]))
    report.ops(len(trials), 0)
    report.latency([t.total_s for t in trials])
    report.metric("throughput_per_s",
                  float(np.median([t.pwt_samples / t.pwt_s for t in trials])),
                  len(trials))
    accuracies = [t.accuracy for t in trials]
    report.extra.update(trial_accuracies=accuracies,
                        pwt_s=[t.pwt_s for t in trials],
                        pwt_final_loss=[t.final_loss for t in trials])
    report.check("PWT loss finite",
                 all(np.isfinite(t.final_loss) for t in trials))
    report.check(f"trial accuracy >= {accuracy_floor}",
                 min(accuracies) >= accuracy_floor, f"{accuracies}")
    if ctx.seed == 0:
        _reference_check(report, ctx, workload, "accuracy", accuracies[0])
    else:
        report.notices.append("reference accuracy check skipped "
                              f"(seed {ctx.seed} != 0)")


def run_deploy_lenet_cold(ctx: Context) -> Report:
    """Cold ``repro deploy``: train, prepare, then programming-cycle trials."""
    report = Report()
    config = _lenet_config(ctx.smoke)
    setup: List[float] = []
    for rep in range(ctx.cold_setup_reps):
        store = _fresh_store(ctx)
        with obs.span("bench.setup", rep=rep):
            t0 = time.perf_counter()
            wl = _lenet(ctx, store)
            deployer = Deployer(wl.model, wl.train, config,
                                rng=DEPLOYER_SEED, cache=store)
            setup.append(time.perf_counter() - t0)
    report.setup(setup)
    report.extra["ideal_accuracy"] = ideal_accuracy(deployer, wl.test)
    _run_trials(ctx, report, "deploy-lenet-cold", deployer, wl.test,
                accuracy_floor=0.0 if ctx.smoke else 0.9)
    return report


def run_pwt_resnet18(ctx: Context) -> Report:
    """Offset tuning of a seeded random-init ResNet-18 (slim)."""
    report = Report()
    rng = make_rng(0)
    images, labels = synthetic_cifar(80 if ctx.smoke else 900, rng=rng)
    train, test = Dataset(images, labels).split(0.8, rng=rng)
    model = resnet18_slim(base_width=8, rng=make_rng(1))
    pwt = (PWTConfig(epochs=1, lr=1.0, max_batches_per_epoch=1) if ctx.smoke
           else PWTConfig(epochs=2, lr=1.0, lr_decay=0.9))
    config = DeployConfig.from_method("vawo*+pwt", sigma=0.5, granularity=16,
                                      cell=SLC, pwt=pwt, bn_recalibrate=True)
    setup: List[float] = []
    for rep in range(ctx.cold_setup_reps):
        store = _fresh_store(ctx)
        with obs.span("bench.setup", rep=rep):
            t0 = time.perf_counter()
            deployer = Deployer(model, train, config, rng=DEPLOYER_SEED,
                                cache=store)
            setup.append(time.perf_counter() - t0)
    report.setup(setup)
    _run_trials(ctx, report, "pwt-resnet18", deployer, test,
                accuracy_floor=0.0)
    return report


# ----------------------------------------------------------------------
# serve-lenet
# ----------------------------------------------------------------------
#: The open-loop and closed-loop legs run interleaved in this many rounds;
#: each serve metric is the median over rounds, so a slow spell of the
#: host spoils a few rounds of every leg instead of all of one leg.
SERVE_ROUNDS = 6


@dataclass
class _Leg:
    """Outcome of one load leg against the serving stack."""

    latencies_s: List[float] = field(default_factory=list)
    late_s: List[float] = field(default_factory=list)
    done_s: List[float] = field(default_factory=list)
    sent: int = 0
    failed: int = 0
    errors: Counter = field(default_factory=Counter)
    mismatched: int = 0
    served: int = 0
    correct: int = 0
    batches: int = 0

    def record(self, indices: np.ndarray, outputs: np.ndarray,
               alone: np.ndarray, labels: np.ndarray) -> None:
        """Check served rows bitwise against each sample served alone."""
        for row, i in zip(outputs, indices):
            self.mismatched += int(not np.array_equal(row, alone[i]))
            self.correct += int(np.argmax(row) == labels[i])
        self.served += len(indices)

    def rate(self) -> float:
        """Completed requests per second between first and last reply."""
        return (len(self.done_s) - 1) / (self.done_s[-1] - self.done_s[0])


class _Load:
    """The test set, its alone-served outputs and the batcher factory."""

    def __init__(self, service: InferenceService) -> None:
        prepared = service.prepare()
        self.service = service
        self.images = prepared.test_images
        self.labels = prepared.test_labels
        self.alone = np.stack([
            service.run_batch(pad_batch(self.images[i:i + 1],
                                        SERVE_MAX_BATCH))[0]
            for i in range(len(self.images))])

    async def submit(self, batcher: Any, leg: _Leg, indices: np.ndarray,
                     due_s: float, keep: bool) -> None:
        """One request; latency runs from ``due_s`` to its completion."""
        leg.sent += 1
        try:
            outputs = await batcher.submit(self.images[indices])
        except Exception as exc:  # noqa: BLE001 — a shed, expired or failed request is counted, not fatal
            leg.failed += 1
            leg.errors[type(exc).__name__] += 1
            return
        done = time.perf_counter()
        leg.done_s.append(done)
        leg.record(indices, outputs, self.alone, self.labels)
        if keep:
            leg.latencies_s.append(done - due_s)


async def _probe(load: _Load) -> bool:
    """Eight concurrent single-sample requests coalesce into one batch
    whose rows equal each sample served alone, bitwise."""
    batcher = load.service.make_batcher()
    batcher.start()
    outputs = await asyncio.gather(*(batcher.submit(load.images[i:i + 1])
                                     for i in range(SERVE_MAX_BATCH)))
    await batcher.drain()
    same = all(np.array_equal(out[0], load.alone[i])
               for i, out in enumerate(outputs))
    return same and batcher.n_batches == 1


async def _open_loop(load: _Load, rate: float, duration: float,
                     seed: Any) -> _Leg:
    """Poisson single-sample arrivals at ``rate``/s from one coroutine;
    requests due in the first 15 % of ``duration`` are not timed."""
    rng = make_rng(seed)
    gaps = rng.exponential(1.0 / rate, size=int(rate * duration * 2) + 16)
    due = np.cumsum(gaps)
    due = due[due < duration]
    picks = rng.integers(0, len(load.images), size=due.size)
    leg = _Leg()
    batcher = load.service.make_batcher()
    batcher.start()
    loop = asyncio.get_running_loop()
    tasks = []
    t0 = time.perf_counter()
    for due_s, i in zip(due, picks):
        wait = due_s - (time.perf_counter() - t0)
        if wait > 0:
            await asyncio.sleep(wait)
        leg.late_s.append(time.perf_counter() - t0 - due_s)
        tasks.append(loop.create_task(load.submit(
            batcher, leg, np.array([i]), t0 + due_s,
            keep=due_s >= 0.15 * duration)))
    await asyncio.gather(*tasks)
    await batcher.drain()
    leg.batches = batcher.n_batches
    return leg


async def _closed_loop(load: _Load, outstanding: int, samples: int,
                       duration: float, seed: Any) -> _Leg:
    """``outstanding`` clients, each sending its next request on reply."""
    leg = _Leg()
    batcher = load.service.make_batcher()
    batcher.start()
    stop = time.perf_counter() + duration

    async def client(rng: np.random.Generator) -> None:
        while time.perf_counter() < stop:
            indices = rng.integers(0, len(load.images), size=samples)
            await load.submit(batcher, leg, indices, time.perf_counter(),
                              keep=True)

    await asyncio.gather(*(client(make_rng(s))
                           for s in spawn_seeds(seed, outstanding)))
    await batcher.drain()
    leg.batches = batcher.n_batches
    return leg


def _tcp_leg(load: _Load, duration: float, seed: Any) -> _Leg:
    """One loopback connection sending 8-sample ``infer`` requests in a
    closed loop. The server runs on this thread, so its spans nest under
    the benchmark's; the client gets the only extra thread."""
    leg = _Leg()
    ready = threading.Event()
    endpoint: Dict[str, Any] = {}
    errors: List[BaseException] = []

    def on_ready(host: str, port: int) -> None:
        endpoint.update(host=host, port=port)
        ready.set()

    server = ServeServer(load.service, port=0, on_ready=on_ready)

    def client() -> None:
        try:
            if not ready.wait(timeout=60) or not endpoint:
                raise RuntimeError("serve server did not come up")
            rng = make_rng(seed)
            with ServeClient(endpoint["host"], endpoint["port"]) as conn:
                t0 = time.perf_counter()
                while time.perf_counter() - t0 < duration:
                    indices = rng.integers(0, len(load.images),
                                           size=SERVE_MAX_BATCH)
                    leg.sent += 1
                    sent = time.perf_counter()
                    reply = conn.infer(indices=indices.tolist())
                    leg.latencies_s.append(time.perf_counter() - sent)
                    leg.record(indices, np.asarray(reply["outputs"]),
                               load.alone, load.labels)
        except Exception as exc:  # noqa: BLE001 — handed to the main thread, which re-raises
            errors.append(exc)
        finally:
            server.request_stop()

    thread = threading.Thread(target=client, name="e2e-tcp-client")
    thread.start()
    try:
        asyncio.run(server.run())
    finally:
        ready.set()
        server.request_stop()
        thread.join(timeout=120)
    if thread.is_alive():
        raise RuntimeError("TCP client thread did not finish")
    if errors:
        raise RuntimeError("TCP leg failed") from errors[0]
    leg.batches = server.batcher.n_batches
    return leg


def run_serve_lenet(ctx: Context) -> Report:
    """Warm-start serving: open-loop, closed-loop and loopback TCP legs."""
    report = Report()
    config = _serve_config()
    if ctx.smoke:
        store = _fresh_store(ctx)
        workload = _lenet(ctx, store)
    else:
        store, workload = _warm_store(ctx), None
    artifacts = len(store.artifacts())
    setup: List[float] = []
    for rep in range(ctx.warm_setup_reps):
        with obs.span("bench.setup", rep=rep):
            t0 = time.perf_counter()
            service = InferenceService(config, registry=ModelRegistry(store),
                                       workload=workload)
            prepared = service.prepare()
            setup.append(time.perf_counter() - t0)
    report.setup(setup)
    report.check("registry warm start", prepared.warm_start)
    _check_warm(report, ctx, store, artifacts)
    load = _Load(service)

    rounds = 1 if ctx.smoke else SERVE_ROUNDS
    round_s = 0.8 * ctx.seconds / rounds
    single_s = 0.1 * ctx.seconds
    seeds = spawn_seeds(ctx.seed, 3 * rounds + 2)
    with obs.span("serve.leg.probe"):
        report.check("coalesced batch == each sample alone (bitwise)",
                     asyncio.run(_probe(load)))
    legs: Dict[str, List[_Leg]] = {"r200": [], "r500": [], "closed": []}
    for k in range(rounds):
        with obs.span("serve.round", round=k):
            legs["r200"].append(asyncio.run(_open_loop(
                load, 200.0, 0.25 * round_s, seeds[3 * k])))
            legs["r500"].append(asyncio.run(_open_loop(
                load, 500.0, 0.5 * round_s, seeds[3 * k + 1])))
            legs["closed"].append(asyncio.run(_closed_loop(
                load, 64, 1, 0.25 * round_s, seeds[3 * k + 2])))
    with obs.span("serve.leg.inproc8"):
        legs["inproc8"] = [asyncio.run(_closed_loop(
            load, 1, SERVE_MAX_BATCH, single_s, seeds[-2]))]
    with obs.span("serve.leg.tcp"):
        legs["tcp"] = [_tcp_leg(load, single_s, seeds[-1])]

    def latencies(name: str) -> List[float]:
        return [s for leg in legs[name] for s in leg.latencies_s]

    report.metric("latency_p50_ms", float(np.median(
        [_percentile_ms(leg.latencies_s, 50) for leg in legs["r200"]])),
        len(latencies("r200")))
    report.metric("latency_tail_ms", float(np.median(
        [_tail_ms(leg.latencies_s) for leg in legs["r500"]])),
        len(latencies("r500")))
    report.metric("throughput_per_s", float(np.median(
        [leg.rate() for leg in legs["closed"]])),
        sum(leg.served for leg in legs["closed"]))
    every = [leg for group in legs.values() for leg in group]
    for leg in every:
        report.ops(leg.sent, leg.failed)
    served = sum(leg.served for leg in every)
    dispatched = sum(leg.batches for leg in every)
    mismatched = sum(leg.mismatched for leg in every)
    accuracy = sum(leg.correct for leg in every) / max(served, 1)
    inproc8_p50 = _percentile_ms(latencies("inproc8"), 50)
    tcp_p50 = _percentile_ms(latencies("tcp"), 50)
    report.layer_values.update({
        "serve.batch_fill": served / max(dispatched * SERVE_MAX_BATCH, 1),
        "serve.generator_late_ms.p99": _percentile_ms(
            [s for leg in legs["r500"] for s in leg.late_s], 99),
        "server.overhead_ms": tcp_p50 - inproc8_p50,
    })
    report.extra.update(
        served_accuracy=accuracy, tcp_p50_ms=tcp_p50,
        inproc8_p50_ms=inproc8_p50,
        legs={name: {"sent": sum(leg.sent for leg in group),
                     "failed": sum(leg.failed for leg in group),
                     "batches": sum(leg.batches for leg in group),
                     "p50_ms": _percentile_ms(latencies(name), 50),
                     "p99_ms": _percentile_ms(latencies(name), 99),
                     "n": len(latencies(name))}
              for name, group in legs.items()})
    report.check("every served row == its sample served alone (bitwise)",
                 mismatched == 0, f"{mismatched} of {served} rows differ")
    errors = sum((leg.errors for leg in every), Counter())
    if errors:
        report.notices.append(f"failed requests (counted in failed): "
                              f"{dict(errors)}")
    if not ctx.smoke:
        report.check("served accuracy >= 0.9", accuracy >= 0.9,
                     f"{accuracy:.4f}")
    return report


# ----------------------------------------------------------------------
# engine-adc-lenet
# ----------------------------------------------------------------------
def _capture_rows(deployed: Any, images: np.ndarray) -> List[np.ndarray]:
    """Each crossbar layer's float-path input on ``images``, as crossbar
    rows per image: (n_images, rows_per_image, layer_rows)."""
    mods = crossbar_modules(deployed)
    seen: Dict[int, np.ndarray] = {}
    for mod in mods:
        def hook(x: Tensor, _mod: Any = mod,
                 _forward: Callable = mod.forward) -> Tensor:
            seen[id(_mod)] = x.data.copy()
            return _forward(x)
        mod.forward = hook          # instance attribute shadows the method
    try:
        deployed.eval()
        deployed(Tensor(images))
    finally:
        for mod in mods:
            del mod.forward
    rows = []
    for mod in mods:
        x = seen[id(mod)]
        if hasattr(mod, "kernel_shape"):
            _, _, kh, kw = mod.kernel_shape
            cols, _, _ = F.im2col(x, kh, kw, mod.stride, mod.padding)
            rows.append(np.ascontiguousarray(cols.transpose(0, 2, 1)))
        else:
            rows.append(x[:, None, :])
    return rows


def _engine_pass(engines: Sequence[Any], rows: Sequence[np.ndarray],
                 start: int, stop: int) -> List[np.ndarray]:
    """Every layer's engine output for images ``start:stop``."""
    return [engine.forward(layer[start:stop].reshape(-1, layer.shape[-1]))
            for engine, layer in zip(engines, rows)]


def _adc_rel_error(ideal: Sequence[np.ndarray],
                   adc: Sequence[np.ndarray]) -> float:
    """Mean absolute ADC readout error relative to the ideal readout."""
    diff = sum(float(np.abs(a - i).sum()) for a, i in zip(adc, ideal))
    return diff / sum(float(np.abs(i).sum()) for i in ideal)


def _engines(deployer: Deployer, seed: Any, adc: ADC) -> Any:
    """Program one chip; return it, its crossbar layers, and their
    ideal-ADC and finite-ADC engines."""
    deployed = deployer.program(rng=make_rng(seed), run_pwt_tuning=False)
    mods = crossbar_modules(deployed)
    with obs.span("xbar.engine_build"):
        ideal = [mod.make_engine() for mod in mods]
        finite = [mod.make_engine(adc=adc) for mod in mods]
        # Engines derive their packed operands on the first forward; one
        # zero row per engine keeps that build cost in set-up.
        for engine, mod in zip(ideal + finite, mods + mods):
            engine.forward(np.zeros((1, mod.plan.rows)))
    return deployed, mods, ideal, finite


def run_engine_adc_lenet(ctx: Context) -> Report:
    """The bit-accurate crossbar engine under an ideal and a 6-bit ADC."""
    report = Report()
    config = _lenet_config(ctx.smoke)
    store = _fresh_store(ctx) if ctx.smoke else _warm_store(ctx)
    adc = ADC(bits=ENGINE_ADC_BITS,
              full_scale=config.granularity * SLC.max_level)
    program_seed = spawn_seeds(ctx.seed + 20, 1)[0]
    artifacts = len(store.artifacts())
    setup: List[float] = []
    for rep in range(ctx.warm_setup_reps):
        with obs.span("bench.setup", rep=rep):
            t0 = time.perf_counter()
            wl = _lenet(ctx, store)
            deployer = Deployer(wl.model, wl.train, config,
                                rng=DEPLOYER_SEED, cache=store)
            deployed, mods, ideal, finite = _engines(deployer, program_seed,
                                                     adc)
            setup.append(time.perf_counter() - t0)
    report.setup(setup)
    _check_warm(report, ctx, store, artifacts)

    n_pool = 8 if ctx.smoke else 64
    picks = make_rng(ctx.seed).permutation(len(wl.test))[:n_pool]
    rows = _capture_rows(deployed, wl.test.images[picks])
    macs = sum(layer.shape[1] * layer.shape[2] * mod.plan.cols
               for layer, mod in zip(rows, mods))
    report.check("LeNet MACs per image", macs == LENET_MACS_PER_IMAGE,
                 f"{macs}")

    # fast-float path == bit-accurate engine under an ideal ADC
    block = min(8, n_pool)
    worst = 0.0
    for engine, mod, layer in zip(ideal, mods, rows):
        x = layer[:block].reshape(-1, layer.shape[-1])
        want = mod.input_quantizer.apply(x) @ mod.effective_weight_array()
        got = engine.forward(x)
        worst = max(worst, float(np.abs(got - want).max()
                                 / np.abs(want).max()))
    report.check("ideal-ADC engine == x_q @ effective_weight_array()",
                 worst <= 1e-9, f"max relative error {worst:.3e}")

    ideal_s, adc_s = 0.2 * ctx.seconds, 0.8 * ctx.seconds
    with obs.span("xbar.forward.ideal"):
        images = 0
        t0 = time.perf_counter()
        while not images or time.perf_counter() - t0 < ideal_s:
            _engine_pass(ideal, rows, 0, n_pool)
            images += n_pool
        ideal_wall = time.perf_counter() - t0
    latencies: List[float] = []
    errors: List[float] = []
    # The first full-size pass pays one-off allocation costs; untimed.
    _engine_pass(finite, rows, 0, block)
    with obs.span("xbar.forward.adc6"):
        t0 = time.perf_counter()
        while not latencies or time.perf_counter() - t0 < adc_s:
            start = (len(latencies) * block) % n_pool
            b0 = time.perf_counter()
            out = _engine_pass(finite, rows, start, start + block)
            latencies.append(time.perf_counter() - b0)
            errors.append(_adc_rel_error(
                _engine_pass(ideal, rows, start, start + block), out))
    report.ops(len(latencies), 0)
    report.latency(latencies)
    adc_images = len(latencies) * block
    report.metric("throughput_per_s",
                  macs * adc_images / float(np.sum(latencies)), adc_images)
    report.extra.update(ideal_macs_per_s=macs * images / ideal_wall,
                        adc_rel_error=float(np.mean(errors)),
                        macs_per_image=macs)
    report.check("ADC readout error finite and < 1",
                 all(np.isfinite(e) and e < 1 for e in errors))

    # The simulated statistic at a fixed chip and probe, whatever the seed.
    ref_deployed, _, ref_ideal, ref_adc = _engines(
        deployer, spawn_seeds(LENET_SEED + 20, 1)[0], adc)
    probe = _capture_rows(ref_deployed, wl.test.images[:4])
    probe_error = _adc_rel_error(_engine_pass(ref_ideal, probe, 0, 4),
                                 _engine_pass(ref_adc, probe, 0, 4))
    report.extra["probe_adc_rel_error"] = probe_error
    _reference_check(report, ctx, "engine-adc-lenet", "adc_rel_error",
                     probe_error)
    return report


RUNNERS: Dict[str, Callable[[Context], Report]] = {
    "deploy-lenet-cold": run_deploy_lenet_cold,
    "pwt-resnet18": run_pwt_resnet18,
    "serve-lenet": run_serve_lenet,
    "engine-adc-lenet": run_engine_adc_lenet,
}
