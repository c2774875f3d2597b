"""SimArray: the one simulated array behind every deployed layer."""

import numpy as np
import pytest

import repro.array
from repro.array.sim import SimArray
from repro.device.cell import SLC
from repro.device.lut import DeviceModel
from repro.device.variation import VariationModel


def make_device(sigma=0.3, cell=SLC):
    return DeviceModel(cell, VariationModel(sigma), n_bits=8)


class TestSimArrayContract:
    def test_program_and_read_back(self):
        array = SimArray(make_device(sigma=0.0), 4, 3)
        values = np.arange(12).reshape(4, 3) % 2 * 255
        cells = array.program(values, rng=0)
        assert cells.shape == (4, 3, 8)         # 8-bit weights, 1-bit cells
        np.testing.assert_array_equal(array.read_back(), cells)

    def test_read_back_unprogrammed(self):
        with pytest.raises(RuntimeError):
            SimArray(make_device(), 2, 2).read_back()

    def test_program_shape_check(self):
        with pytest.raises(ValueError):
            SimArray(make_device(), 4, 3).program(np.zeros((3, 4)), rng=0)

    def test_load_cells_shape_check(self):
        with pytest.raises(ValueError):
            SimArray(make_device(), 4, 3).load_cells(np.zeros((4, 3, 2)))

    def test_invalid_dimensions(self):
        with pytest.raises(ValueError):
            SimArray(make_device(), 0, 3)

    def test_package_exports_only_simarray(self):
        assert sorted(repro.array.__all__) == ["SimArray", "scenarios"]
