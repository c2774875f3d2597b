"""Training loop."""

import numpy as np
import pytest

from repro.nn.optim import SGD
from repro.nn.trainer import TrainResult, evaluate_accuracy, train_classifier
from tests.conftest import TinyMLP
from repro.utils.rng import make_rng


class TestTrainClassifier:
    def test_learns_blob_task(self, blob_data):
        model = TinyMLP(rng=make_rng(0))
        result = train_classifier(model, blob_data, epochs=8, batch_size=32,
                                  lr=5e-3, rng=1)
        assert result.final_accuracy > 0.9

    def test_losses_trend_down(self, blob_data):
        model = TinyMLP(rng=make_rng(0))
        result = train_classifier(model, blob_data, epochs=4, batch_size=32,
                                  lr=5e-3, rng=1)
        assert result.epoch_losses[-1] < result.epoch_losses[0]

    def test_eval_data_used_for_scoring(self, blob_data):
        from tests.conftest import make_blob_dataset
        model = TinyMLP(rng=make_rng(0))
        holdout = make_blob_dataset(n=60, seed=9)
        result = train_classifier(model, blob_data, epochs=2, batch_size=32,
                                  eval_data=holdout, rng=1)
        assert len(result.epoch_accuracies) == 2

    def test_custom_optimizer(self, blob_data):
        model = TinyMLP(rng=make_rng(0))
        opt = SGD(model.parameters(), lr=0.05, momentum=0.9)
        result = train_classifier(model, blob_data, epochs=3, batch_size=32,
                                  optimizer=opt, rng=1)
        assert result.epoch_losses[-1] < result.epoch_losses[0]

    def test_non_finite_loss_raises_before_the_step(self, blob_data):
        import repro.obs as obs
        from repro.data.loaders import Dataset
        from repro.obs import metrics

        model = TinyMLP(rng=make_rng(0))
        images = blob_data.images.copy()
        images[3, 0] = np.nan
        poisoned = Dataset(images, blob_data.labels)
        before = [p.data.copy() for p in model.parameters()]
        obs.enable()
        try:
            obs.reset()
            with pytest.raises(FloatingPointError, match="epoch 0, batch 0"):
                train_classifier(model, poisoned, epochs=2,
                                 batch_size=len(images), rng=1)
            snap = metrics.REGISTRY.snapshot()
            assert snap["counters"].get("train.diverged") == 1
        finally:
            obs.reset()
            obs.disable()
        for param, data in zip(model.parameters(), before):
            np.testing.assert_array_equal(param.data, data)

    def test_empty_result_nan(self):
        assert np.isnan(TrainResult().final_accuracy)


class TestEvaluateAccuracy:
    def test_perfect_model(self, blob_data, trained_tiny_mlp):
        assert evaluate_accuracy(trained_tiny_mlp, blob_data) > 0.9

    def test_untrained_near_chance(self, blob_data, tiny_mlp):
        acc = evaluate_accuracy(tiny_mlp, blob_data)
        assert acc < 0.8    # 4-class chance is 0.25; untrained stays low

    def test_sets_eval_mode(self, blob_data, tiny_mlp):
        tiny_mlp.train()
        evaluate_accuracy(tiny_mlp, blob_data)
        assert not tiny_mlp.training
