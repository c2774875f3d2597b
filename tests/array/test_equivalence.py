"""The array's bit-parity guarantee.

``SimArray`` with an empty scenario stack must reproduce direct device
programming *bitwise*: ``SimArray.program`` calls
``device.program_cells`` first and replays nothing, and the deployer
draws its scenario seed only when scenarios are configured. The sweep
below asserts equality at every level — raw programming draws and
dense/conv/SAF/``jobs=2`` deployments — and that the fast float path
matches the bit-accurate engine over a scenario-perturbed chip.
"""

import numpy as np
import pytest

from repro.array.sim import SimArray
from repro.core import DeployConfig, Deployer
from repro.device.cell import MLC2, SLC
from repro.device.faults import FaultyDeviceModel
from repro.device.lut import DeviceModel
from repro.device.variation import VariationModel
from repro.nn.trainer import evaluate_accuracy
from repro.utils.rng import make_rng


def make_device(sigma=0.5, cell=SLC):
    return DeviceModel(cell, VariationModel(sigma), n_bits=8)


class TestProgrammingParity:
    """SimArray.program is the identical draw sequence as the device."""

    @pytest.mark.parametrize("cell", [SLC, MLC2], ids=["slc", "mlc2"])
    @pytest.mark.parametrize("sigma", [0.0, 0.5])
    def test_matches_device_program_cells(self, cell, sigma):
        device = make_device(sigma, cell)
        values = make_rng(0).integers(0, 256, size=(9, 5))
        direct = device.program_cells(values, make_rng(7))
        via_array = SimArray(device, 9, 5).program(values, make_rng(7))
        np.testing.assert_array_equal(via_array, direct)

    def test_matches_faulty_device(self):
        base = make_device(0.4)
        direct_dev = FaultyDeviceModel(base, 0.1, 0.05, rng=3)
        array_dev = FaultyDeviceModel(base, 0.1, 0.05, rng=3)
        values = make_rng(1).integers(0, 256, size=(12, 4))
        direct = direct_dev.program_cells(values, make_rng(9))
        via_array = SimArray(array_dev, 12, 4).program(values, make_rng(9))
        np.testing.assert_array_equal(via_array, direct)

    def test_empty_scenario_stack_is_identity(self):
        device = make_device(0.5)
        values = make_rng(2).integers(0, 256, size=(8, 6))
        direct = device.program_cells(values, make_rng(5))
        array = SimArray(device, 8, 6, scenarios=(), seed=123)
        np.testing.assert_array_equal(array.program(values, make_rng(5)),
                                      direct)
        np.testing.assert_array_equal(array.read_back(), direct)


class TestDeployerParity:
    """Whole deployments: no scenarios == an explicitly empty stack."""

    def deploy_acc(self, model, data, rng_seed=0, program_seed=1, **cfg_kw):
        cfg = DeployConfig.from_method("vawo*+pwt", sigma=0.5, granularity=8,
                                       **cfg_kw)
        deployer = Deployer(model, data, cfg, rng=rng_seed)
        deployed = deployer.program(rng=make_rng(program_seed))
        return evaluate_accuracy(deployed, data)

    def test_dense_deployment_bitwise(self, trained_tiny_mlp, blob_data):
        base = self.deploy_acc(trained_tiny_mlp, blob_data)
        empty_stack = self.deploy_acc(trained_tiny_mlp, blob_data,
                                      scenarios=())
        empty_spec = self.deploy_acc(trained_tiny_mlp, blob_data,
                                     scenarios="")
        assert base == empty_stack == empty_spec

    def test_dense_with_saf_bitwise(self, trained_tiny_mlp, blob_data):
        base = self.deploy_acc(trained_tiny_mlp, blob_data,
                               saf_rates=(0.1, 0.02))
        empty_stack = self.deploy_acc(trained_tiny_mlp, blob_data,
                                      saf_rates=(0.1, 0.02), scenarios=())
        assert base == empty_stack

    def test_conv_deployment_bitwise(self):
        from repro.data.loaders import Dataset
        from repro.data.synthetic import synthetic_digits
        from repro.nn.models import LeNet

        images, labels = synthetic_digits(80, rng=0)
        data = Dataset(images, labels)
        model = LeNet(rng=0)
        cfg_a = DeployConfig.from_method("plain", sigma=0.4, granularity=16)
        cfg_b = DeployConfig.from_method("plain", sigma=0.4, granularity=16,
                                         scenarios=())
        out_a = Deployer(model, data, cfg_a, rng=0).program(rng=make_rng(1))
        out_b = Deployer(model, data, cfg_b, rng=0).program(rng=make_rng(1))
        from repro.nn.tensor import Tensor
        x = Tensor(data.images[:6])
        np.testing.assert_array_equal(out_a(x).data, out_b(x).data)

    def test_deployed_layers_hold_their_arrays(self, trained_tiny_mlp,
                                               blob_data):
        from repro.core.pwt import crossbar_modules
        cfg = DeployConfig.from_method("plain", sigma=0.3, granularity=8)
        deployer = Deployer(trained_tiny_mlp, blob_data, cfg, rng=0)
        deployed = deployer.program(rng=make_rng(1))
        mods = crossbar_modules(deployed)
        assert len(deployer.arrays) == len(mods)
        for mod, array in zip(mods, deployer.arrays):
            np.testing.assert_array_equal(array.read_back(), mod.cells)

    def test_parallel_trials_bitwise_with_hal(self, trained_tiny_mlp,
                                              blob_data):
        from repro.eval.accuracy import evaluate_deployment
        cfg = DeployConfig.from_method("plain", sigma=0.5, granularity=8,
                                       scenarios="stuck_at:sa0_rate=0.2")
        deployer = Deployer(trained_tiny_mlp, blob_data, cfg, rng=0)
        serial = evaluate_deployment(deployer, blob_data, n_trials=3,
                                     rng=42, jobs=1)
        parallel = evaluate_deployment(deployer, blob_data, n_trials=3,
                                       rng=42, jobs=2)
        assert serial.accuracies == parallel.accuracies


class TestEngineUnderScenarios:
    """Fast float path == bit-accurate engine over a perturbed chip."""

    def test_engine_matches_fast_path(self, trained_tiny_mlp, blob_data):
        from repro.core.pwt import crossbar_modules
        cfg = DeployConfig.from_method(
            "vawo*", sigma=0.5, granularity=8,
            scenarios="stuck_at:sa0_rate=0.1;drift:t_seconds=1e4")
        deployer = Deployer(trained_tiny_mlp, blob_data, cfg, rng=0)
        deployed = deployer.program(rng=make_rng(1))
        mods = crossbar_modules(deployed)
        assert len(mods) == len(deployer.arrays)
        rng = make_rng(2)
        for mod, array in zip(mods, deployer.arrays):
            # The layer computes on exactly the perturbed read-back.
            np.testing.assert_array_equal(mod.cells, array.read_back())
            x = rng.uniform(0, 1, size=(6, mod.plan.rows))
            expected = (mod.input_quantizer.apply(x)
                        @ mod.effective_weight_array())
            np.testing.assert_allclose(mod.make_engine().forward(x),
                                       expected, rtol=0, atol=1e-9)
