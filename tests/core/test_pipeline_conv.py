"""Deployment of convolutional / residual / BatchNorm models.

The TinyMLP tests cover the dense path; these validate the structural
replacement machinery and the crossbar conv layers on real model
topologies — Sequential conv stacks (LeNet) and residual blocks with
BatchNorm and 1x1 projection shortcuts (ResNet).
"""

import numpy as np
import pytest

from repro.backend.reference import ReferenceBackend
from repro.core import (DeployConfig, Deployer, PWTConfig,
                        recalibrate_batchnorm)
from repro.core.crossbar_layers import CrossbarConv2d, CrossbarLinear
from repro.core.pwt import crossbar_modules, run_pwt
from repro.data.loaders import Dataset
from repro.nn.models import LeNet, resnet_tiny
from repro.nn.tensor import Tensor, no_grad
from repro.nn.trainer import evaluate_accuracy, train_classifier


@pytest.fixture(scope="module")
def digit_data():
    from repro.data.synthetic import synthetic_digits
    images, labels = synthetic_digits(120, rng=0)
    return Dataset(images, labels)


@pytest.fixture(scope="module")
def cifar_data():
    from repro.data.synthetic import synthetic_cifar
    images, labels = synthetic_cifar(80, rng=0)
    return Dataset(images, labels)


class TestLeNetDeployment:
    def test_all_layers_replaced(self, digit_data):
        model = LeNet(rng=0)
        cfg = DeployConfig.from_method("plain", sigma=0.3, granularity=16)
        deployer = Deployer(model, digit_data, cfg, rng=0)
        deployed = deployer.program(rng=1)
        mods = crossbar_modules(deployed)
        assert len(mods) == 5      # 2 convs + 3 linears
        assert sum(isinstance(m, CrossbarConv2d) for m in mods) == 2
        assert sum(isinstance(m, CrossbarLinear) for m in mods) == 3

    def test_forward_shape(self, digit_data):
        model = LeNet(rng=0)
        cfg = DeployConfig.from_method("plain", sigma=0.3, granularity=16)
        deployed = Deployer(model, digit_data, cfg, rng=0).program(rng=1)
        out = deployed(Tensor(digit_data.images[:4]))
        assert out.shape == (4, 10)

    def test_zero_sigma_matches_ideal_closely(self, digit_data):
        model = LeNet(rng=0)
        cfg = DeployConfig.from_method("plain", sigma=0.0, granularity=16)
        deployer = Deployer(model, digit_data, cfg, rng=0)
        deployed = deployer.program(rng=1)
        ideal = deployer.ideal_model()
        x = Tensor(digit_data.images[:4])
        # Only the ON/OFF-ratio leak (1.275 int units per weight,
        # accumulated over the dot products) separates them.
        np.testing.assert_allclose(deployed(x).data, ideal(x).data,
                                   atol=4.0)
        # And predictions agree.
        np.testing.assert_array_equal(deployed(x).argmax(axis=1),
                                      ideal(x).argmax(axis=1))

    def test_vawo_deployment_runs(self, digit_data):
        model = LeNet(rng=0)
        cfg = DeployConfig.from_method("vawo*", sigma=0.5, granularity=16,
                                       grad_batches=1, grad_batch_size=16)
        deployed = Deployer(model, digit_data, cfg, rng=0).program(rng=1)
        assert deployed(Tensor(digit_data.images[:2])).shape == (2, 10)


class TestResNetDeployment:
    def test_residual_structure_replaced(self, cifar_data):
        model = resnet_tiny(rng=0)
        cfg = DeployConfig.from_method("plain", sigma=0.3, granularity=16)
        deployer = Deployer(model, cifar_data, cfg, rng=0)
        deployed = deployer.program(rng=1)
        mods = crossbar_modules(deployed)
        # stem conv + 2 blocks x 2 convs + 1 projection conv + fc
        assert len(mods) == 7
        out = deployed(Tensor(cifar_data.images[:2]))
        assert out.shape == (2, 10)

    def test_pwt_trains_through_residuals(self, cifar_data):
        model = resnet_tiny(rng=0)
        cfg = DeployConfig.from_method("plain", sigma=0.4, granularity=16)
        deployed = Deployer(model, cifar_data, cfg, rng=0).program(rng=1)
        history = run_pwt(deployed, cifar_data,
                          PWTConfig(epochs=1, lr=0.5, batch_size=16,
                                    max_batches_per_epoch=3), rng=2)
        assert len(history.losses) == 3
        # Every layer's offsets received gradient signal.
        for mod in crossbar_modules(deployed):
            assert np.abs(mod.offsets.data).sum() > 0

    def test_batchnorm_stays_digital(self, cifar_data):
        from repro.nn.layers import BatchNorm2d
        model = resnet_tiny(rng=0)
        cfg = DeployConfig.from_method("plain", sigma=0.3, granularity=16)
        deployed = Deployer(model, cifar_data, cfg, rng=0).program(rng=1)
        bns = [m for _, m in deployed.named_modules()
               if isinstance(m, BatchNorm2d)]
        assert len(bns) == 6       # stem + 2 per block + projection


class TestBatchnormRecalibration:
    def test_stats_refreshed(self, cifar_data):
        from repro.nn.layers import BatchNorm2d
        model = resnet_tiny(rng=0)
        cfg = DeployConfig.from_method("plain", sigma=0.8, granularity=16)
        deployed = Deployer(model, cifar_data, cfg, rng=0).program(rng=1)
        before = [np.array(m.running_mean, copy=True)
                  for _, m in deployed.named_modules()
                  if isinstance(m, BatchNorm2d)]
        recalibrate_batchnorm(deployed, cifar_data, n_batches=2,
                              batch_size=16, rng=3)
        after = [m.running_mean for _, m in deployed.named_modules()
                 if isinstance(m, BatchNorm2d)]
        assert any(not np.array_equal(b, a) for b, a in zip(before, after))

    def test_parameters_untouched(self, cifar_data):
        model = resnet_tiny(rng=0)
        cfg = DeployConfig.from_method("plain", sigma=0.8, granularity=16)
        deployed = Deployer(model, cifar_data, cfg, rng=0).program(rng=1)
        params_before = {n: p.data.copy()
                         for n, p in deployed.named_parameters()}
        recalibrate_batchnorm(deployed, cifar_data, n_batches=2,
                              batch_size=16, rng=3)
        for n, p in deployed.named_parameters():
            np.testing.assert_array_equal(p.data, params_before[n])

    def test_returns_eval_mode(self, cifar_data):
        model = resnet_tiny(rng=0)
        cfg = DeployConfig.from_method("plain", sigma=0.4, granularity=16)
        deployed = Deployer(model, cifar_data, cfg, rng=0).program(rng=1)
        recalibrate_batchnorm(deployed, cifar_data, n_batches=1, rng=3)
        assert not deployed.training

    def test_noop_without_batchnorm(self, trained_tiny_mlp, blob_data):
        cfg = DeployConfig.from_method("plain", sigma=0.4, granularity=8)
        deployed = Deployer(trained_tiny_mlp, blob_data, cfg,
                            rng=0).program(rng=1)
        recalibrate_batchnorm(deployed, blob_data)   # must not raise


class TestCrossbarCount:
    def test_lenet_crossbar_count(self, digit_data):
        model = LeNet(rng=0)
        cfg = DeployConfig.from_method("plain", granularity=16)
        deployer = Deployer(model, digit_data, cfg, rng=0)
        # SLC: 8 cells/weight -> 16 weight cols per 128-crossbar.
        # conv1 25x6 -> 1; conv2 150x16 -> 2; fc 400x120 -> 4*8=32;
        # fc 120x84 -> 6; fc 84x10 -> 1. Total 42.
        assert deployer.crossbar_count() == 1 + 2 + 32 + 6 + 1


class TestReferenceKernelParity:
    """A whole trained-and-deployed LeNet agrees on the production
    kernels and on the loop-based reference oracle: training, input
    calibration, gradient estimation, VAWO*, programming and PWT all run
    once on each kernel set."""

    #: The two kernel sets sum in different orders, so the contract is
    #: agreement to float rounding on logits and PWT registers.
    TOL = dict(rtol=1e-9, atol=1e-9)

    @staticmethod
    def _deploy(data):
        model = LeNet(rng=0)
        train_classifier(model, data, epochs=3, batch_size=32, lr=3e-3,
                         rng=0)
        cfg = DeployConfig.from_method(
            "vawo*+pwt", sigma=0.5, granularity=16, grad_batches=1,
            grad_batch_size=32, pwt=PWTConfig(epochs=1, batch_size=32))
        deployed = Deployer(model, data, cfg, rng=0).program(rng=1)
        accuracy = evaluate_accuracy(deployed, data)
        with no_grad():
            logits = deployed(Tensor(data.images)).data
        registers = [m.offsets.data.copy() for m in crossbar_modules(deployed)]
        return accuracy, logits, registers

    def test_lenet_vawo_pwt(self, digit_data, swap_kernels, monkeypatch):
        # Uncached, so the oracle run recomputes every stage itself.
        monkeypatch.setenv("REPRO_CACHE", "0")
        acc, logits, registers = self._deploy(digit_data)
        swap_kernels(ReferenceBackend())
        ref_acc, ref_logits, ref_registers = self._deploy(digit_data)
        assert acc == ref_acc > 0.3
        np.testing.assert_allclose(logits, ref_logits, **self.TOL)
        assert len(registers) == len(ref_registers) == 5
        for got, expected in zip(registers, ref_registers):
            np.testing.assert_allclose(got, expected, **self.TOL)
