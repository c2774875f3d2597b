"""Stuck-at-fault model."""

import numpy as np
import pytest

from repro.device.cell import MLC2, SLC, CellType
from repro.device.faults import (FaultMap, FaultyDeviceModel,
                                 sample_fault_map)
from repro.device.lut import DeviceModel
from repro.device.variation import VariationModel
from repro.utils.rng import make_rng


class TestFaultMap:
    def test_rates_approximate(self):
        fm = sample_fault_map((200, 200), sa0_rate=0.05, sa1_rate=0.01,
                              rng=0)
        assert abs(fm.stuck_at_0.mean() - 0.05) < 0.01
        assert abs(fm.stuck_at_1.mean() - 0.01) < 0.005
        assert 0.04 < fm.fault_rate < 0.08

    def test_exclusive_masks(self):
        fm = sample_fault_map((100, 100), 0.3, 0.3, rng=1)
        assert not (fm.stuck_at_0 & fm.stuck_at_1).any()

    def test_invalid_rates(self):
        with pytest.raises(ValueError):
            sample_fault_map((4,), 0.8, 0.5)
        with pytest.raises(ValueError):
            sample_fault_map((4,), -0.1, 0.0)

    def test_conflicting_masks_rejected(self):
        both = np.ones((2, 2), dtype=bool)
        with pytest.raises(ValueError):
            FaultMap(stuck_at_0=both, stuck_at_1=both)

    def test_apply_pins_levels(self):
        fm = FaultMap(stuck_at_0=np.array([True, False, False]),
                      stuck_at_1=np.array([False, True, False]))
        g = np.array([0.7, 0.2, 0.5])
        out = fm.apply(g, SLC)
        np.testing.assert_allclose(out[0], SLC.conductance(np.zeros(1))[0])
        np.testing.assert_allclose(out[1], 1.0)   # ON conductance for SLC
        assert out[2] == 0.5                       # healthy cell untouched

    def test_apply_shape_check(self):
        fm = sample_fault_map((3, 3), 0.1, 0.1, rng=0)
        with pytest.raises(ValueError):
            fm.apply(np.ones((2, 2)), SLC)

    def test_apply_does_not_mutate_input(self):
        fm = FaultMap(stuck_at_0=np.array([True]),
                      stuck_at_1=np.array([False]))
        g = np.array([0.9])
        fm.apply(g, SLC)
        assert g[0] == 0.9

    @pytest.mark.parametrize("cell", [SLC, MLC2,
                                      CellType(bits=3, on_off_ratio=50.0)],
                             ids=["slc", "mlc2", "mlc3-r50"])
    def test_apply_pins_to_cell_extremes(self, cell):
        """Pinned levels follow each cell technology's own G_off/G_on."""
        fm = FaultMap(stuck_at_0=np.array([[True, False]]),
                      stuck_at_1=np.array([[False, True]]))
        mid = cell.conductance(np.full((1, 2), cell.max_level // 2 + 1))
        out = fm.apply(mid, cell)
        g_off = cell.conductance(np.zeros(1))[0]
        g_on = cell.conductance(np.array([cell.max_level]))[0]
        assert out[0, 0] == g_off
        assert out[0, 1] == g_on == pytest.approx(cell.max_level)
        assert g_off == pytest.approx(cell.max_level / cell.on_off_ratio)

    @pytest.mark.parametrize("cell", [SLC, MLC2], ids=["slc", "mlc2"])
    def test_apply_3d_cell_image(self, cell):
        """Fault maps cover (rows, cols, n_cells) images, any cell type."""
        fm = sample_fault_map((4, 3, 2), 0.3, 0.2, rng=0)
        g = np.full((4, 3, 2), 0.4)
        out = fm.apply(g, cell)
        g_on = cell.conductance(np.array([cell.max_level]))[0]
        np.testing.assert_array_equal(out[fm.stuck_at_1], g_on)
        healthy = ~(fm.stuck_at_0 | fm.stuck_at_1)
        np.testing.assert_array_equal(out[healthy], 0.4)

    def test_empty_map(self):
        fm = FaultMap.empty((3, 4))
        assert fm.shape == (3, 4)
        assert fm.fault_rate == 0.0
        g = make_rng(0).uniform(size=(3, 4))
        np.testing.assert_array_equal(fm.apply(g, SLC), g)


class TestFaultyDeviceModel:
    def make(self, sa0=0.2, sa1=0.05, sigma=0.0):
        device = DeviceModel(MLC2, VariationModel(sigma), n_bits=8)
        return FaultyDeviceModel(device, sa0_rate=sa0, sa1_rate=sa1, rng=0)

    def test_faults_persistent_across_cycles(self):
        faulty = self.make(sigma=0.0)
        v = np.full((16, 16), 128)
        a = faulty.program_cells(v, rng=1)
        b = faulty.program_cells(v, rng=2)
        fm = faulty.fault_map_for(a.shape)
        # Faulty cells read identically every cycle (no noise here).
        np.testing.assert_array_equal(a[fm.stuck_at_0], b[fm.stuck_at_0])

    def test_faulty_cells_ignore_programming(self):
        faulty = self.make(sigma=0.0)
        lo = faulty.program_cells(np.zeros((8, 8), dtype=int), rng=1)
        hi = faulty.program_cells(np.full((8, 8), 255), rng=1)
        fm = faulty.fault_map_for(lo.shape)
        np.testing.assert_array_equal(lo[fm.stuck_at_1], hi[fm.stuck_at_1])

    def test_zero_rates_match_clean_device(self):
        device = DeviceModel(MLC2, VariationModel(0.4), n_bits=8)
        faulty = FaultyDeviceModel(device, sa0_rate=0.0, sa1_rate=0.0, rng=0)
        v = np.arange(64).reshape(8, 8)
        np.testing.assert_array_equal(faulty.program_cells(v, rng=5),
                                      device.program_cells(v, rng=5))

    def test_weight_level_program(self):
        faulty = self.make()
        crw = faulty.program(np.full(100, 200), rng=1)
        assert crw.shape == (100,)

    def test_delegated_properties(self):
        faulty = self.make()
        assert faulty.cells_per_weight == 4
        assert faulty.qmax == 255


class TestDeploymentWithFaults:
    def test_pwt_recovers_saf_damage(self, trained_tiny_mlp, blob_data):
        """Offsets compensate SAFs: the paper's contrast case [13], but
        with group-shared (cheap) compensation."""
        from repro.core import DeployConfig, Deployer, PWTConfig
        from repro.nn.trainer import evaluate_accuracy

        accs = {}
        for method in ("plain", "vawo*+pwt"):
            cfg = DeployConfig.from_method(
                method, sigma=0.8, granularity=8,
                saf_rates=(0.2, 0.08),
                pwt=PWTConfig(epochs=4, lr=0.5))
            deployer = Deployer(trained_tiny_mlp, blob_data, cfg, rng=0)
            vals = [evaluate_accuracy(deployer.program(rng=t), blob_data)
                    for t in range(3)]
            accs[method] = np.mean(vals)
        assert accs["vawo*+pwt"] > accs["plain"] + 0.1

    def test_equal_shaped_layers_get_distinct_fault_maps(self):
        """Every layer is its own chip region: two layers with the same
        matrix shape must not share stuck cells."""
        from repro.core import DeployConfig, Deployer
        from repro.data.loaders import Dataset
        from repro.data.synthetic import synthetic_cifar
        from repro.nn.models import resnet_tiny

        images, labels = synthetic_cifar(32, rng=0)
        cfg = DeployConfig.from_method("plain", sigma=0.3, granularity=16,
                                       saf_rates=(0.1, 0.02))
        deployer = Deployer(resnet_tiny(rng=0), Dataset(images, labels),
                            cfg, rng=0)
        deployer.program(rng=1)
        shapes = deployer.layer_matrix_shapes()
        twins = [i for i, shape in enumerate(shapes) if shape == (36, 4)]
        assert len(twins) == 2
        a, b = (deployer.arrays[i] for i in twins)
        map_a = a.device.fault_map_for(a.read_back().shape)
        map_b = b.device.fault_map_for(b.read_back().shape)
        assert not np.array_equal(map_a.stuck_at_0, map_b.stuck_at_0)
