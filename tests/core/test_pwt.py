"""Post-writing tuning: analytic init optimality and training behaviour."""

import numpy as np
import pytest

from repro.core import DeployConfig, Deployer
from repro.core.pwt import (PWTConfig, analytic_offset_init,
                            crossbar_modules, offset_parameters, run_pwt)
from repro.nn.trainer import evaluate_accuracy
from tests.conftest import TinyMLP


@pytest.fixture
def deployed(trained_tiny_mlp, blob_data):
    cfg = DeployConfig.from_method("plain", sigma=0.4, granularity=8)
    deployer = Deployer(trained_tiny_mlp, blob_data, cfg, rng=0)
    return deployer, deployer.program(rng=1)


class TestDiscovery:
    def test_offset_parameters_found(self, deployed):
        _, model = deployed
        params = offset_parameters(model)
        assert len(params) == 2          # two Linear layers in TinyMLP

    def test_crossbar_modules_found(self, deployed):
        _, model = deployed
        assert len(crossbar_modules(model)) == 2

    def test_run_pwt_rejects_plain_model(self, blob_data, trained_tiny_mlp):
        with pytest.raises(ValueError):
            run_pwt(trained_tiny_mlp, blob_data)


class TestAnalyticInit:
    def test_offsets_compensate_group_mean_error(self, deployed):
        """After init, the gradient-weighted group-mean weight error ~ 0."""
        _, model = deployed
        for mod in crossbar_modules(model):
            analytic_offset_init(mod)
            w_eff_q = mod._sign * (mod.crw + mod.plan.expand(mod.offsets.data)) \
                + mod._const
            err = w_eff_q - mod.ntw
            if mod.grad_weights is not None:
                weights = np.maximum(mod.grad_weights ** 2, 1e-12)
            else:
                weights = np.ones_like(err)
            group_err = mod.plan.group_reduce_weights(err * weights, "sum") \
                / mod.plan.group_reduce_weights(weights, "sum")
            # Zero unless the register range clipped.
            clipped = (np.abs(mod.offsets.data) >= 127)
            np.testing.assert_allclose(group_err[~clipped], 0.0, atol=1e-6)

    def test_init_is_weighted_least_squares_optimum(self, deployed):
        """Perturbing any register away from the init increases the
        weighted squared weight error."""
        _, model = deployed
        mod = crossbar_modules(model)[0]
        analytic_offset_init(mod)

        def weighted_mse(regs):
            w_eff = mod._sign * (mod.crw + mod.plan.expand(regs)) + mod._const
            return ((w_eff - mod.ntw) ** 2).sum()

        base = weighted_mse(mod.offsets.data)
        for delta in (+1.0, -1.0):
            perturbed = mod.offsets.data.copy()
            perturbed[0, 0] += delta
            assert weighted_mse(perturbed) >= base - 1e-9

    def test_requires_ntw_metadata(self, deployed):
        _, model = deployed
        mod = crossbar_modules(model)[0]
        mod.ntw = None
        with pytest.raises(ValueError):
            analytic_offset_init(mod)

    def test_improves_accuracy_over_zero_offsets(self, deployed, blob_data):
        deployer, model = deployed
        before = evaluate_accuracy(model, blob_data)
        for mod in crossbar_modules(model):
            analytic_offset_init(mod)
        after = evaluate_accuracy(model, blob_data)
        assert after >= before


class TestTraining:
    def test_loss_decreases(self, deployed, blob_data):
        _, model = deployed
        cfg = PWTConfig(epochs=3, lr=0.5, batch_size=32,
                        analytic_init=True, round_offsets=False)
        history = run_pwt(model, blob_data, cfg, rng=0)
        assert history.final_loss < history.initial_loss

    def test_only_offsets_move(self, deployed, blob_data):
        _, model = deployed
        mods = crossbar_modules(model)
        crw_before = [m.crw.copy() for m in mods]
        run_pwt(model, blob_data, PWTConfig(epochs=1, lr=0.5), rng=0)
        for mod, crw in zip(mods, crw_before):
            np.testing.assert_array_equal(mod.crw, crw)

    def test_round_offsets_lands_on_grid(self, deployed, blob_data):
        _, model = deployed
        run_pwt(model, blob_data,
                PWTConfig(epochs=1, lr=0.3, round_offsets=True), rng=0)
        for mod in crossbar_modules(model):
            np.testing.assert_array_equal(mod.offsets.data,
                                          np.round(mod.offsets.data))
            assert mod.offsets.data.min() >= -128
            assert mod.offsets.data.max() <= 127

    def test_config_validation(self):
        with pytest.raises(ValueError):
            PWTConfig(epochs=-1)
        with pytest.raises(ValueError):
            PWTConfig(lr=0.0)
        with pytest.raises(ValueError):
            PWTConfig(lr_decay=0.0)
        with pytest.raises(ValueError):
            PWTConfig(lr_decay=1.5)

    def test_lr_decay_applied_per_epoch(self, deployed, blob_data,
                                        monkeypatch):
        import repro.core.pwt as pwt_mod
        from repro.nn.optim import Adam

        captured = {}
        real_adam = Adam

        def capturing_adam(*args, **kwargs):
            opt = real_adam(*args, **kwargs)
            captured["opt"] = opt
            return opt

        monkeypatch.setattr(pwt_mod, "Adam", capturing_adam)
        _, model = deployed
        cfg = PWTConfig(epochs=3, lr=1.0, lr_decay=0.5, batch_size=64,
                        max_batches_per_epoch=1, round_offsets=False)
        run_pwt(model, blob_data, cfg, rng=0)
        assert captured["opt"].lr == pytest.approx(1.0 * 0.5 ** 3)

    def test_max_batches_limits_work(self, deployed, blob_data):
        _, model = deployed
        cfg = PWTConfig(epochs=1, lr=0.5, batch_size=16,
                        max_batches_per_epoch=2)
        history = run_pwt(model, blob_data, cfg, rng=0)
        assert len(history.losses) == 2

    def test_non_finite_loss_raises_before_the_step(self, deployed,
                                                    blob_data):
        import repro.obs as obs
        from repro.data.loaders import Dataset
        from repro.obs import metrics

        _, model = deployed
        images = blob_data.images.copy()
        images[0, 0, 0, 0] = np.nan
        poisoned = Dataset(images, blob_data.labels)
        mods = crossbar_modules(model)
        cfg = PWTConfig(epochs=2, lr=0.5, batch_size=len(images),
                        analytic_init=False)
        before = [m.offsets.data.copy() for m in mods]
        obs.enable()
        try:
            obs.reset()
            with pytest.raises(FloatingPointError, match="epoch 0, batch 0"):
                run_pwt(model, poisoned, cfg, rng=0)
            snap = metrics.REGISTRY.snapshot()
            assert snap["counters"].get("pwt.diverged") == 1
        finally:
            obs.reset()
            obs.disable()
        for mod, offsets in zip(mods, before):
            np.testing.assert_array_equal(mod.offsets.data, offsets)


@pytest.fixture
def deployed_bn():
    """A programmed ResNet with BatchNorm gamma/beta beside the offsets;
    one gamma starts frozen so restoring a flag is observable."""
    from repro.data.loaders import Dataset
    from repro.data.synthetic import synthetic_cifar
    from repro.nn.models import resnet_tiny

    images, labels = synthetic_cifar(48, rng=0)
    data = Dataset(images, labels)
    cfg = DeployConfig.from_method("plain", sigma=0.4, granularity=16)
    model = Deployer(resnet_tiny(rng=0), data, cfg, rng=0).program(rng=1)
    offset_ids = {id(p) for p in offset_parameters(model)}
    others = [p for p in model.parameters() if id(p) not in offset_ids]
    assert others
    others[0].requires_grad = False
    for p in model.parameters():
        p.zero_grad()
    return model, data, others


class TestOffsetOnlyBackward:
    """PWT computes gradients for the offsets alone (Eq. 8)."""

    def _assert_untouched(self, model, others):
        assert [p.requires_grad for p in others] == \
            [False] + [True] * (len(others) - 1)
        assert all(p.grad is None for p in others)
        assert all(p.requires_grad for p in offset_parameters(model))

    def test_non_offset_parameters_restored_without_grad(self, deployed_bn):
        model, data, others = deployed_bn
        history = run_pwt(model, data,
                          PWTConfig(epochs=1, batch_size=16,
                                    max_batches_per_epoch=2), rng=0)
        assert len(history.losses) == 2
        self._assert_untouched(model, others)
        assert all(p.grad is not None for p in offset_parameters(model))

    def test_restored_after_divergence(self, deployed_bn):
        from repro.data.loaders import Dataset

        model, data, others = deployed_bn
        images = data.images.copy()
        images[:, 0, 0, 0] = np.nan
        with pytest.raises(FloatingPointError):
            run_pwt(model, Dataset(images, data.labels),
                    PWTConfig(epochs=1, batch_size=16), rng=0)
        self._assert_untouched(model, others)
