"""Experiment harness: workload construction and runner plumbing.

These tests keep workloads tiny (they synthesise data and train for a
few steps); the real paper-scale runs live in benchmarks/.
"""

import dataclasses

import numpy as np
import pytest

from repro.cache import CacheStore
from repro.data.loaders import Dataset
from repro.data.synthetic import synthetic_cifar, synthetic_digits
from repro.eval.experiments import (_augmented, _workload_data,
                                    build_workload, run_table2,
                                    workload_names)
from repro.utils.rng import make_rng


class TestWorkloadRegistry:
    def test_names(self):
        assert set(workload_names()) == {"lenet", "resnet18", "vgg16"}

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            build_workload("alexnet")

    def test_unknown_preset(self):
        with pytest.raises(ValueError):
            build_workload("lenet", preset="huge")


class TestAugmentation:
    def test_doubles_dataset(self, blob_data):
        aug = _augmented(blob_data, 0.1, make_rng(0))
        assert len(aug) == 2 * len(blob_data)

    def test_zero_level_identity(self, blob_data):
        assert _augmented(blob_data, 0.0, make_rng(0)) \
            is blob_data

    def test_values_stay_in_range(self, blob_data):
        aug = _augmented(blob_data, 0.5, make_rng(0))
        assert aug.images.min() >= 0 and aug.images.max() <= 1


class TestWorkloadCaching:
    def test_cache_roundtrip(self, tmp_path):
        wl1 = build_workload("lenet", "quick", seed=123, cache_dir=tmp_path)
        wl2 = build_workload("lenet", "quick", seed=123, cache_dir=tmp_path)
        np.testing.assert_allclose(wl1.float_accuracy, wl2.float_accuracy)
        state1 = wl1.model.state_dict()
        state2 = wl2.model.state_dict()
        for k in state1:
            np.testing.assert_array_equal(state1[k], state2[k])

    def test_cache_file_created(self, tmp_path):
        build_workload("lenet", "quick", seed=124, cache_dir=tmp_path)
        assert list(tmp_path.glob("objects/*/*.npz"))


def _snapshot(wl):
    """Every array a workload hands downstream, plus its float accuracy."""
    arrays = {"train_images": wl.train.images,
              "train_labels": wl.train.labels,
              "test_images": wl.test.images, "test_labels": wl.test.labels,
              **{f"state.{k}": v for k, v in wl.model.state_dict().items()}}
    return arrays, wl.float_accuracy


def _assert_byte_equal(a, b):
    arrays_a, acc_a = a
    arrays_b, acc_b = b
    assert sorted(arrays_a) == sorted(arrays_b)
    for name in arrays_a:
        x, y = arrays_a[name], arrays_b[name]
        assert (x.dtype, x.shape) == (y.dtype, y.shape), name
        assert x.tobytes() == y.tobytes(), name
    assert acc_a == acc_b


def _put_stages(monkeypatch):
    """Record the stage of every artifact any store writes."""
    stages = []
    real_put = CacheStore.put

    def put(self, key, arrays, stage="", metadata=None):
        stages.append(stage)
        return real_put(self, key, arrays, stage=stage, metadata=metadata)

    monkeypatch.setattr(CacheStore, "put", put)
    return stages


@pytest.mark.parametrize("name", ["tiny-digits", "tiny-cifar"])
class TestDataStage:
    """The synthesized train/test split is the memoized ``data`` stage."""

    def test_uncached_cold_warm_byte_equal(self, name, tiny_workload_specs,
                                           tmp_path, monkeypatch):
        store = tmp_path / "store"
        cold = _snapshot(build_workload(name, seed=3, cache_dir=store))
        warm = _snapshot(build_workload(name, seed=3, cache_dir=store))
        monkeypatch.setenv("REPRO_CACHE", "0")
        uncached = _snapshot(build_workload(name, seed=3))
        _assert_byte_equal(uncached, cold)
        _assert_byte_equal(uncached, warm)

    def test_split_draws_from_the_synthesis_stream(self, name,
                                                   tiny_workload_specs,
                                                   tmp_path):
        # The split continues the generator synthesis advanced, exactly
        # as before the stage existed; a warm hit must replay that.
        spec = tiny_workload_specs[name]["quick"]
        rng = make_rng(3)
        synth = synthetic_digits if spec.dataset == "digits" \
            else synthetic_cifar
        expected = Dataset(*synth(spec.n_samples, rng=rng)).split(0.8, rng=rng)
        store = CacheStore(tmp_path / "store")
        for _ in range(2):                  # cold, then warm
            for got, want in zip(_workload_data(spec, 3, store), expected):
                assert got.images.tobytes() == want.images.tobytes()
                assert got.labels.tobytes() == want.labels.tobytes()

    def test_warm_build_neither_synthesizes_nor_writes(
            self, name, tiny_workload_specs, synthesis_calls, tmp_path,
            monkeypatch):
        store = tmp_path / "store"
        build_workload(name, seed=3, cache_dir=store)
        assert len(synthesis_calls) == 1
        assert len(CacheStore(store).artifacts()) == 2  # data + workload
        del synthesis_calls[:]
        written = _put_stages(monkeypatch)
        build_workload(name, seed=3, cache_dir=store)
        assert synthesis_calls == []
        assert written == []

    def test_train_override_shares_the_data_artifact(
            self, name, tiny_workload_specs, synthesis_calls, tmp_path,
            monkeypatch):
        store = tmp_path / "store"
        default = build_workload(name, seed=3, cache_dir=store)
        del synthesis_calls[:]
        written = _put_stages(monkeypatch)

        def no_training(model, data, spec, rng):
            pass

        other = build_workload(name, seed=3, cache_dir=store,
                               train_override=no_training)
        assert synthesis_calls == []
        assert written == ["workload"]
        assert other.train.images.tobytes() == default.train.images.tobytes()
        assert other.test.labels.tobytes() == default.test.labels.tobytes()


class TestDataStageKey:
    def test_key_follows_seed_size_and_kind_only(self, tiny_workload_specs,
                                                 tmp_path):
        store = CacheStore(tmp_path / "store")
        spec = tiny_workload_specs["tiny-digits"]["quick"]
        variants = [(spec, 3), (spec, 4),
                    (dataclasses.replace(spec, n_samples=48), 3),
                    (dataclasses.replace(spec, dataset="cifar"), 3)]
        for variant, seed in variants:
            _workload_data(variant, seed, store)
        assert len(store.artifacts()) == len(variants)
        # Training and model fields stay out of the key.
        _workload_data(dataclasses.replace(spec, name="other", epochs=7,
                                           lr=0.5), 3, store)
        assert len(store.artifacts()) == len(variants)


class TestTable2Runner:
    def test_rows(self):
        rows = run_table2((16, 128))
        assert [r["granularity"] for r in rows] == [16, 128]
        assert rows[1]["total_area_mm2"] > rows[0]["total_area_mm2"]
