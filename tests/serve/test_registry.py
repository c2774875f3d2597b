"""Registry round-trips: programmed state in/out of the artifact cache."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from repro.cache import CacheStore
from repro.core import DeployConfig, Deployer
from repro.core.pwt import crossbar_modules
from repro.nn.trainer import evaluate_accuracy
from repro.serve import InferenceService, ModelRegistry, serve_program_key
from repro.utils.rng import spawn_seeds

from .conftest import build_tiny_workload, tiny_serve_config


def _deployer(workload, **overrides):
    fields = dict(sigma=0.3, granularity=8)
    fields.update(overrides)
    config = DeployConfig.from_method("vawo*", **fields)
    return Deployer(workload.model, workload.train, config, rng=10)


class TestKey:
    def test_key_is_deterministic(self, tiny_workload):
        d = _deployer(tiny_workload)
        seed = spawn_seeds(20, 1)[0]
        assert serve_program_key(d, 10, seed) == \
            serve_program_key(d, 10, seed)

    def test_key_tracks_program_seed(self, tiny_workload):
        d = _deployer(tiny_workload)
        a, b = spawn_seeds(20, 2)
        assert serve_program_key(d, 10, a) != serve_program_key(d, 10, b)
        assert serve_program_key(d, 10, 7) != serve_program_key(d, 10, 8)

    def test_key_tracks_config(self, tiny_workload):
        seed = spawn_seeds(20, 1)[0]
        a = serve_program_key(_deployer(tiny_workload), 10, seed)
        b = serve_program_key(_deployer(tiny_workload, sigma=0.4), 10, seed)
        c = serve_program_key(_deployer(tiny_workload, granularity=4),
                              10, seed)
        d = serve_program_key(_deployer(tiny_workload, scenarios="drift"),
                              10, seed)
        e = serve_program_key(_deployer(tiny_workload, saf_rates=(0.1, 0.02)),
                              10, seed)
        assert len({a, b, c, d, e}) == 5


class TestRoundTrip:
    def test_store_then_load_bitwise(self, tiny_workload, tmp_path):
        registry = ModelRegistry(CacheStore(tmp_path / "store"))
        deployer = _deployer(tiny_workload)
        seed = spawn_seeds(20, 1)[0]
        model, key, warm = registry.get_or_program(deployer, 10, seed)
        assert not warm

        # A second deployer (fresh preparation) must load, not program.
        deployer2 = _deployer(tiny_workload)
        model2, key2, warm2 = registry.get_or_program(deployer2, 10, seed)
        assert warm2 and key2 == key

        for a, b in zip(crossbar_modules(model), crossbar_modules(model2)):
            assert np.array_equal(a.cells, b.cells)
            assert np.array_equal(a.crw, b.crw)
            assert np.array_equal(a.offsets.data, b.offsets.data)
            assert np.array_equal(a.complement_mask, b.complement_mask)
            assert np.array_equal(a._sign, b._sign)
            assert np.array_equal(a._const, b._const)
        for (na, va), (nb, vb) in zip(model.state_dict().items(),
                                      model2.state_dict().items()):
            assert na == nb and np.array_equal(va, vb)

        acc = evaluate_accuracy(model, tiny_workload.test)
        acc2 = evaluate_accuracy(model2, tiny_workload.test)
        assert acc == acc2

    def test_forward_identical_after_load(self, tiny_workload, tmp_path):
        from repro.nn.tensor import Tensor

        registry = ModelRegistry(CacheStore(tmp_path / "store"))
        seed = spawn_seeds(20, 1)[0]
        model, _, _ = registry.get_or_program(
            _deployer(tiny_workload), 10, seed)
        model2, _, warm = registry.get_or_program(
            _deployer(tiny_workload), 10, seed)
        assert warm
        x = tiny_workload.test.images[:4]
        assert np.array_equal(model(Tensor(x)).data, model2(Tensor(x)).data)

    def test_layer_mismatch_is_a_miss(self, tiny_workload, tmp_path):
        from ..conftest import TinyMLP
        from repro.eval.experiments import Workload
        from repro.utils.rng import make_rng

        registry = ModelRegistry(CacheStore(tmp_path / "store"))
        seed = spawn_seeds(20, 1)[0]
        deployer = _deployer(tiny_workload)
        _, key, _ = registry.get_or_program(deployer, 10, seed)

        # A deployer over a *different architecture* cannot consume the
        # stored artifact: the load degrades to a miss, never a crash.
        other_model = TinyMLP(rng=make_rng(3), hidden=12)
        other = Workload(name="tiny12", model=other_model,
                         train=tiny_workload.train, test=tiny_workload.test,
                         float_accuracy=0.0)
        assert registry.load_deployment(key, _deployer(other)) is None

    def test_disabled_store_always_programs(self, tiny_workload,
                                            monkeypatch):
        monkeypatch.setenv("REPRO_CACHE", "0")
        registry = ModelRegistry()     # active_store() resolves to None
        assert registry.store is None
        seed = spawn_seeds(20, 1)[0]
        _, _, warm = registry.get_or_program(
            _deployer(tiny_workload), 10, seed)
        assert not warm


_FRESH_PROCESS_SCRIPT = """
import sys
from pathlib import Path

sys.path.insert(0, sys.argv[2])          # repo root (for the tests pkg)
from tests.serve.conftest import build_tiny_workload, tiny_serve_config

from repro.cache import CacheStore
from repro.nn.trainer import evaluate_accuracy
from repro.serve import InferenceService, ModelRegistry

store = CacheStore(Path(sys.argv[1]))
service = InferenceService(tiny_serve_config(),
                           registry=ModelRegistry(store),
                           workload=build_tiny_workload())
prepared = service.prepare()
acc = evaluate_accuracy(prepared.model, service._workload.test)
sys.stdout.write(
    f"{prepared.model_key} {int(prepared.warm_start)} {acc!r}\\n")
"""


class TestFreshProcess:
    def test_round_trip_across_processes(self, tiny_workload, tmp_path):
        """program -> store by content hash -> load in a *fresh process*
        -> identical key, warm start, identical accuracy."""
        store_dir = tmp_path / "shared-store"
        service = InferenceService(
            tiny_serve_config(), registry=ModelRegistry(CacheStore(store_dir)),
            workload=tiny_workload)
        prepared = service.prepare()
        assert not prepared.warm_start
        acc = evaluate_accuracy(prepared.model, tiny_workload.test)

        repo_root = Path(__file__).resolve().parents[2]
        env = dict(os.environ)
        env.pop("REPRO_CACHE", None)    # explicit store wins anyway
        env["PYTHONPATH"] = os.pathsep.join(
            [str(repo_root / "src")]
            + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        out = subprocess.run(
            [sys.executable, "-c", _FRESH_PROCESS_SCRIPT,
             str(store_dir), str(repo_root)],
            capture_output=True, text=True, env=env, check=True,
            timeout=600)
        key, warm, fresh_acc = out.stdout.split()
        assert key == prepared.model_key
        assert warm == "1", f"fresh process re-programmed: {out.stdout}"
        assert float(fresh_acc) == acc

    def test_workload_reconstruction_is_deterministic(self, tiny_workload):
        rebuilt = build_tiny_workload()
        for (na, va), (nb, vb) in zip(
                tiny_workload.model.state_dict().items(),
                rebuilt.model.state_dict().items()):
            assert na == nb and np.array_equal(va, vb)
        assert np.array_equal(tiny_workload.test.images,
                              rebuilt.test.images)


class TestWarmPrepare:
    def test_warm_prepare_does_not_synthesize(self, tiny_workload_specs,
                                              synthesis_calls):
        """A service resolving its workload by name through a primed
        process store (``REPRO_CACHE``) replays the data split, weights
        and programmed deployment without rendering a sample."""
        config = tiny_serve_config(workload="tiny-digits")
        cold = InferenceService(config).prepare()
        assert not cold.warm_start and synthesis_calls == ["synthetic_digits"]
        del synthesis_calls[:]

        store = ModelRegistry().store
        artifacts_before = len(store.artifacts())
        warm = InferenceService(config).prepare()
        assert synthesis_calls == []
        assert warm.warm_start and warm.model_key == cold.model_key
        assert len(store.artifacts()) == artifacts_before
        assert warm.test_images.tobytes() == cold.test_images.tobytes()
        assert warm.test_labels.tobytes() == cold.test_labels.tobytes()
        assert warm.float_accuracy == cold.float_accuracy
