"""Artifact-cache effectiveness: a cold vs a warm start of a sweep.

Runs the noise-independent preparation of a Fig. 5-style sweep twice
against one artifact store. Each pass is a whole start: build the LeNet
workload (data split and trained weights) and construct one Deployer
per sweep point (every method at two granularities). The first pass is
cold — every stage computes and writes; the second is warm — every
stage should replay from disk. Two reports (``cache_cold`` /
``cache_warm``) each carry the per-stage span-time breakdown and the
cache hit/miss counters for its state, so the compute path and the
replay path can be read separately. The warm report also gives the
ratio for the Deployer sweep alone, so the replay speed of the
Deployer stages stays visible next to the whole start's.

The reproducible claim: a warm start is at least 5x faster than a cold
one (the acceptance floor; in practice it is far higher), while both
produce bit-identical deployments (asserted by the test suite's
sweep-parity tests, not here).
"""

import tempfile
import time

from _common import preset, report

import repro.obs as obs
from repro.cache import CacheStore
from repro.core.pipeline import DeployConfig, Deployer
from repro.eval.experiments import _default_pwt, build_workload
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace

METHODS = ("plain", "vawo", "vawo*", "pwt", "vawo*+pwt")
GRANULARITIES = (16, 64)
STAGES = ("workload.train", "deploy.lut", "deploy.quantize",
          "deploy.calibrate", "deploy.gradients", "deploy.vawo")


def _sweep(wl, store, seed=0):
    """Construct one Deployer per sweep point; total wall seconds."""
    elapsed = 0.0
    for m in GRANULARITIES:
        for method in METHODS:
            cfg = DeployConfig.from_method(
                method, sigma=0.5, granularity=m,
                pwt=_default_pwt(preset()), bn_recalibrate=True)
            t0 = time.perf_counter()
            Deployer(wl.model, wl.train, cfg, rng=seed + 10, cache=store)
            elapsed += time.perf_counter() - t0
    return elapsed


def _start(store):
    """One whole start against ``store``: (total s, Deployer-sweep s)."""
    t0 = time.perf_counter()
    wl = build_workload("lenet", preset=preset(), seed=0,
                        cache_dir=store.directory)
    workload_s = time.perf_counter() - t0
    sweep_s = _sweep(wl, store)
    return workload_s + sweep_s, sweep_s


def _measured_pass(store):
    """One start under obs: (total s, sweep s, per-stage s, cache counters)."""
    was_on = obs.enabled()
    obs.enable()
    obs.reset()
    try:
        elapsed, sweep_s = _start(store)
        stages = {name: 0.0 for name in STAGES}
        for record in obs_trace.TRACER.records():
            if record and record.get("name") in stages \
                    and record.get("duration_s") is not None:
                stages[record["name"]] += float(record["duration_s"])
        counters = obs_metrics.REGISTRY.snapshot()["counters"]
        cache_counters = {name: value for name, value in counters.items()
                         if name.startswith("cache.")}
    finally:
        obs.reset()
        if not was_on:
            obs.disable()
    return elapsed, sweep_s, stages, cache_counters


def run():
    with tempfile.TemporaryDirectory() as tmp:
        store = CacheStore(tmp)
        cold_s, cold_sweep_s, cold_stages, cold_counters = \
            _measured_pass(store)
        warm_s, warm_sweep_s, warm_stages, warm_counters = \
            _measured_pass(store)

    speedup = cold_s / warm_s if warm_s > 0 else float("inf")
    sweep_speedup = (cold_sweep_s / warm_sweep_s if warm_sweep_s > 0
                     else float("inf"))
    grid = len(METHODS) * len(GRANULARITIES)
    for state, elapsed, sweep_s, stages, counters in (
            ("cold", cold_s, cold_sweep_s, cold_stages, cold_counters),
            ("warm", warm_s, warm_sweep_s, warm_stages, warm_counters)):
        lines = [f"Artifact cache — {state} start: lenet workload + "
                 f"Deployer construction, fig5-style sweep ({grid} points)",
                 f"total:    {elapsed:8.3f} s",
                 f"workload: {elapsed - sweep_s:8.3f} s",
                 f"sweep:    {sweep_s:8.3f} s",
                 *(f"{name}: {seconds:8.3f} s"
                   for name, seconds in stages.items()),
                 f"hits:     {counters.get('cache.hits', 0):8.0f}   "
                 f"misses: {counters.get('cache.misses', 0):8.0f}"]
        if state == "warm":
            lines += [f"speedup:  {speedup:8.1f}x over cold "
                      f"(acceptance floor: 5x)",
                      f"sweep-only speedup: {sweep_speedup:8.1f}x over cold "
                      f"(Deployer construction alone)"]
        report(f"cache_{state}", lines,
               data={"state": state, "sweep_points": grid,
                     "total_s": elapsed, "sweep_s": sweep_s,
                     "stages": stages, "cache_counters": counters,
                     "speedup_over_cold": (speedup if state == "warm"
                                           else None),
                     "sweep_speedup_over_cold": (
                         sweep_speedup if state == "warm" else None)})
    return cold_s, warm_s


def test_cache_speedup(benchmark):
    cold_s, warm_s = benchmark.pedantic(run, rounds=1, iterations=1)
    # The acceptance claim: a warm start is >= 5x faster than a cold one.
    assert warm_s * 5 <= cold_s
