"""Section III-B runtime claim: VAWO is a one-time, cheap process.

The paper reports VAWO for LeNet taking 19.7 s — only 4.3% of its
training time. We measure training and a whole cold VAWO* ``Deployer``
on our substrate, report its gradient-estimation and offset-search
stages separately, and check the ratio claim on the whole Deployer
(VAWO well under the training time); absolute seconds differ with
hardware, the *ratio* is the reproducible quantity.
"""

import tempfile
import time

from _common import preset, report

import repro.obs as obs
from repro.cache import CacheStore
from repro.core.pipeline import DeployConfig, Deployer
from repro.eval.experiments import _SPECS, build_workload
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.obs.manifest import stage_totals


def run():
    wl = build_workload("lenet", preset=preset(), seed=0)
    spec = _SPECS["lenet"][preset()]

    # Measure (re-)training time for the workload's configured epochs.
    from repro.nn.models import LeNet
    from repro.nn.optim import Adam
    from repro.nn.trainer import train_classifier

    model = LeNet(rng=1)
    opt = Adam(model.parameters(), lr=spec.lr,
               weight_decay=spec.weight_decay)
    t0 = time.perf_counter()
    train_classifier(model, wl.train, epochs=spec.epochs,
                     batch_size=spec.batch_size, optimizer=opt, rng=2)
    train_s = time.perf_counter() - t0

    # Time a whole cold VAWO* Deployer (LUT, quantize, input
    # calibration, gradient estimation, offset search) against a fresh
    # artifact store, so every stage is real work rather than a replay
    # from a warm default cache, and read its gradient-estimation and
    # offset-search stages from their spans. The counters recorded in
    # the sidecar prove the store started cold (zero hits).
    cfg = DeployConfig.from_method("vawo*", sigma=0.5, granularity=16)
    was_on = obs.enabled()
    obs.enable()
    before = obs_metrics.REGISTRY.snapshot()["counters"]
    n_spans = len(obs_trace.TRACER.records())
    with tempfile.TemporaryDirectory() as tmp:
        t0 = time.perf_counter()
        Deployer(wl.model, wl.train, cfg, rng=3, cache=CacheStore(tmp))
        deployer_s = time.perf_counter() - t0
    stages = stage_totals(obs_trace.TRACER.records()[n_spans:])
    after = obs_metrics.REGISTRY.snapshot()["counters"]
    if not was_on:
        obs.disable()
    cache_counters = {name: after[name] - before.get(name, 0.0)
                      for name in after if name.startswith("cache.")}
    gradients_s = stages["deploy.gradients"]["total_s"]
    search_s = stages["deploy.vawo"]["total_s"]

    ratio = deployer_s / train_s
    search_ratio = search_s / train_s
    lines = ["Section III-B — VAWO runtime vs training time (LeNet)",
             f"training:                {train_s:8.2f} s",
             f"cold VAWO* Deployer:     {deployer_s:8.2f} s  "
             "(LUT, quantize, calibrate, gradients, search)",
             f"  gradient estimation:   {gradients_s:8.2f} s  "
             "(deploy.gradients)",
             f"  VAWO* offset search:   {search_s:8.2f} s  (deploy.vawo)",
             "ratio to training:",
             f"  cold VAWO* Deployer:   {ratio:8.1%}",
             f"  VAWO* offset search:   {search_ratio:8.1%}",
             f"  paper, VAWO:           {0.043:8.1%}"]
    report("vawo_runtime", lines,
           data={"train_s": train_s, "deployer_s": deployer_s,
                 "gradients_s": gradients_s, "search_s": search_s,
                 "ratio": ratio, "search_ratio": search_ratio,
                 "cache_counters": cache_counters})
    return train_s, deployer_s


def test_vawo_runtime(benchmark):
    train_s, deployer_s = benchmark.pedantic(run, rounds=1, iterations=1)
    # The reproducible claim: VAWO costs a small fraction of training.
    # Bounded on the whole cold Deployer, which contains the VAWO stage.
    assert deployer_s < 0.5 * train_s
