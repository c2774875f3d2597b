"""Crossbar layers: effective weights, offset gradients, STE quantization."""

import sys
import threading

import numpy as np
import pytest

from repro.core import DeployConfig, Deployer
from repro.core.crossbar_layers import (CrossbarConv2d, CrossbarLinear,
                                        ste_quantize)
from repro.core.offsets import OffsetPlan
from repro.core.pwt import (PWTConfig, analytic_offset_init,
                            crossbar_modules, run_pwt)
from repro.core.snapshot import load_deployment, save_deployment
from repro.device.cell import SLC
from repro.device.lut import DeviceModel
from repro.device.variation import VariationModel
from repro.nn import functional as F
from repro.nn.layers import Conv2d, Flatten, Linear, MaxPool2d, ReLU
from repro.nn.module import Module
from repro.nn.tensor import Tensor, no_grad
from repro.quant.quantizer import InputQuantizer
from repro.utils.rng import make_rng


def make_linear(rows=8, cols=3, m=4, sigma=0.3, seed=0, complement=None,
                input_quant=False, scale=0.01, zp=128):
    rng = make_rng(seed)
    device = DeviceModel(SLC, VariationModel(sigma), n_bits=8)
    plan = OffsetPlan(rows, cols, m)
    ntw = rng.integers(0, 256, size=(rows, cols))
    cells = device.program_cells(ntw, rng)
    registers = np.zeros((plan.n_groups, cols))
    if complement is None:
        complement = np.zeros((plan.n_groups, cols), dtype=bool)
    iq = None
    if input_quant:
        iq = InputQuantizer(8)
        iq.calibrate(np.array([1.0]))
    return CrossbarLinear(cells=cells, plan=plan, registers=registers,
                          complement=complement, cell=SLC, weight_bits=8,
                          weight_scale=scale, weight_zero_point=zp,
                          input_quantizer=iq, ntw=ntw)


class TestEffectiveWeights:
    def test_matches_crw_plus_offsets(self):
        layer = make_linear()
        layer.offsets.data[...] = 5.0
        w = layer.effective_weight_array()
        expected = 0.01 * (layer.crw + 5.0 - 128)
        np.testing.assert_allclose(w, expected)

    def test_complement_algebra(self):
        comp = np.ones((2, 3), dtype=bool)
        layer = make_linear(m=4, complement=comp)
        layer.offsets.data[...] = 3.0
        w = layer.effective_weight_array()
        expected = 0.01 * ((255 - (layer.crw + 3.0)) - 128)
        np.testing.assert_allclose(w, expected)

    def test_forward_is_matmul(self, rng):
        layer = make_linear()
        x = rng.uniform(size=(5, 8))
        out = layer(Tensor(x))
        np.testing.assert_allclose(out.data,
                                   x @ layer.effective_weight_array())

    def test_bias_added(self, rng):
        layer = make_linear()
        layer.bias = np.array([1.0, 2.0, 3.0])
        x = rng.uniform(size=(2, 8))
        out = layer(Tensor(x))
        np.testing.assert_allclose(
            out.data, x @ layer.effective_weight_array() + layer.bias)


class TestOffsetGradient:
    def test_eq8_gradient_identity(self, rng):
        """dL/db_g == dL/dz . sum(x in group g)  (Eq. 8), scaled by s_w."""
        layer = make_linear(m=4)
        x = rng.uniform(size=(6, 8))
        out = layer(Tensor(x))
        g_out = rng.normal(size=out.shape)
        out.backward(g_out)
        dz = g_out                                  # (N, cols)
        group_x = layer.plan.group_sum(x)           # (N, n_groups)
        expected = layer.weight_scale * np.einsum("ng,nc->gc", group_x, dz)
        np.testing.assert_allclose(layer.offsets.grad, expected, atol=1e-9)

    def test_complement_flips_gradient_sign(self, rng):
        comp = np.ones((2, 3), dtype=bool)
        base = make_linear(m=4, seed=1)
        flipped = make_linear(m=4, seed=1, complement=comp)
        x = rng.uniform(size=(4, 8))
        for layer in (base, flipped):
            out = layer(Tensor(x))
            out.sum().backward()
        np.testing.assert_allclose(base.offsets.grad,
                                   -flipped.offsets.grad, atol=1e-9)

    def test_grad_flows_to_inputs(self, rng):
        layer = make_linear()
        x = Tensor(rng.uniform(size=(2, 8)), requires_grad=True)
        layer(x).sum().backward()
        assert x.grad is not None and np.abs(x.grad).sum() > 0

    def test_crw_is_not_trainable(self):
        layer = make_linear()
        params = list(layer.parameters())
        assert len(params) == 1 and params[0] is layer.offsets


class TestSTEQuantize:
    def test_forward_quantizes(self):
        q = InputQuantizer(8)
        q.calibrate(np.array([1.0]))
        x = Tensor(np.array([0.5001]), requires_grad=True)
        out = ste_quantize(x, q)
        np.testing.assert_allclose(out.data, q.apply(x.data))

    def test_gradient_passes_through(self):
        q = InputQuantizer(8)
        q.calibrate(np.array([1.0]))
        x = Tensor(np.array([0.3, 0.7]), requires_grad=True)
        ste_quantize(x, q).sum().backward()
        np.testing.assert_array_equal(x.grad, [1.0, 1.0])


class TestQuantizeOffsets:
    def test_rounds_and_clips(self):
        layer = make_linear()
        layer.offsets.data[...] = np.array([[3.4, -200.0, 140.0]] * 2)
        layer.quantize_offsets(8)
        np.testing.assert_array_equal(layer.offsets.data,
                                      [[3.0, -128.0, 127.0]] * 2)


def make_conv(seed=0, sigma=0.3):
    rng = make_rng(seed)
    device = DeviceModel(SLC, VariationModel(sigma), n_bits=8)
    kernel_shape = (4, 2, 3, 3)                 # F, C, kh, kw
    rows, cols = 2 * 9, 4
    plan = OffsetPlan(rows, cols, 6)
    ntw = rng.integers(0, 256, size=(rows, cols))
    cells = device.program_cells(ntw, rng)
    return CrossbarConv2d(
        cells=cells, plan=plan,
        registers=np.zeros((plan.n_groups, cols)),
        complement=np.zeros((plan.n_groups, cols), dtype=bool),
        cell=SLC, weight_bits=8, weight_scale=0.01,
        weight_zero_point=128, kernel_shape=kernel_shape,
        stride=1, padding=1)


class TestConvLayer:
    def test_forward_matches_reference_conv(self, rng):
        layer = make_conv()
        x = rng.uniform(size=(2, 2, 6, 6))
        out = layer(Tensor(x))
        w = layer.effective_weight_array()          # (18, 4)
        kernel = w.T.reshape(4, 2, 3, 3)
        expected = F.conv2d(Tensor(x), Tensor(kernel), None, 1, 1)
        np.testing.assert_allclose(out.data, expected.data, atol=1e-9)

    def test_offset_grads_exist(self, rng):
        layer = make_conv()
        out = layer(Tensor(rng.uniform(size=(1, 2, 5, 5))))
        out.sum().backward()
        assert layer.offsets.grad is not None
        assert np.abs(layer.offsets.grad).sum() > 0

    def test_kernel_shape_validation(self):
        layer = make_conv()
        with pytest.raises(ValueError):
            CrossbarConv2d(
                cells=layer.cells, plan=layer.plan,
                registers=layer.offsets.data,
                complement=layer.complement_mask, cell=SLC,
                weight_bits=8, weight_scale=0.01, weight_zero_point=128,
                kernel_shape=(4, 3, 3, 3))  # wrong C


class TestEngineConsistency:
    def test_make_engine_effective_weights_match(self, rng):
        layer = make_linear(input_quant=True)
        layer.offsets.data[...] = rng.integers(-10, 10,
                                               size=layer.offsets.shape)
        engine = layer.make_engine()
        np.testing.assert_allclose(engine.effective_weights(),
                                   layer.effective_weight_array())

    def test_bit_accurate_forward_matches_layer(self, rng):
        layer = make_linear(input_quant=True)
        x = rng.uniform(0, 1, size=(3, 8))
        got = layer.make_engine().forward(x)
        expected = layer(Tensor(x)).data
        np.testing.assert_allclose(got, expected, atol=1e-9)


class TinyConvNet(Module):
    """Conv -> ReLU -> 2x2 max pool -> Linear over 8x8 blob images."""

    def __init__(self, seed=0):
        super().__init__()
        rng = make_rng(seed)
        self.conv = Conv2d(1, 4, 3, padding=1, rng=rng)
        self.relu = ReLU()
        self.pool = MaxPool2d(2)
        self.flat = Flatten()
        self.fc = Linear(64, 4, rng=rng)

    def forward(self, x):
        return self.fc(self.flat(self.pool(self.relu(self.conv(x)))))


@pytest.fixture
def conv_deployer(blob_data):
    cfg = DeployConfig.from_method("plain", sigma=0.4, granularity=4)
    return Deployer(TinyConvNet(), blob_data, cfg, rng=0)


def layer_inputs(mods, n=5, seed=3):
    """A random input batch shaped for each crossbar layer."""
    rng = make_rng(seed)
    return [rng.uniform(0, 1, size=(n, 1, 8, 8))
            if isinstance(mod, CrossbarConv2d)
            else rng.uniform(0, 1, size=(n, mod.plan.rows)) for mod in mods]


def no_grad_forwards(mods, inputs):
    with no_grad():
        return [mod(Tensor(x)).data for mod, x in zip(mods, inputs)]


def assert_cache_fresh(mods, inputs):
    """Each layer's (cached) no_grad forward equals a grad-mode one."""
    cached = no_grad_forwards(mods, inputs)
    for mod, x, got in zip(mods, inputs, cached):
        taped = mod(Tensor(x))
        assert taped.requires_grad           # grad mode builds the graph
        assert np.array_equal(got, taped.data), type(mod).__name__


def _adam_in_run_pwt(model, mods, data, tmp_path):
    run_pwt(model, data, PWTConfig(epochs=1, max_batches_per_epoch=2,
                                   analytic_init=False,
                                   round_offsets=False), rng=0)
    return model


def _quantize_offsets(model, mods, data, tmp_path):
    for mod in mods:
        mod.quantize_offsets(4)
    return model


def _analytic_init(model, mods, data, tmp_path):
    for mod in mods:
        analytic_offset_init(mod)
    return model


def _load_state_dict(model, mods, data, tmp_path):
    state = model.state_dict()
    for name in state:
        if name.endswith("offsets"):
            state[name] = state[name] - 3.0
    model.load_state_dict(state)
    return model


def _direct_write(model, mods, data, tmp_path):
    for mod in mods:
        mod.offsets.data[0, 0] += 1.0
    return model


REGISTER_WRITERS = {
    "adam_in_run_pwt": _adam_in_run_pwt,
    "quantize_offsets": _quantize_offsets,
    "analytic_offset_init": _analytic_init,
    "load_state_dict": _load_state_dict,
    "direct_write": _direct_write,
}


class TestFrozenWeights:
    @pytest.mark.parametrize("writer", sorted(REGISTER_WRITERS))
    def test_no_grad_forward_sees_every_register_write(
            self, writer, conv_deployer, blob_data, tmp_path):
        model = conv_deployer.program(rng=1)
        mods = crossbar_modules(model)
        assert {type(m) for m in mods} == {CrossbarConv2d, CrossbarLinear}
        for mod in mods:                    # off the integer grid
            mod.offsets.data += 0.25
        inputs = layer_inputs(mods)
        before = [mod.offsets.data.copy() for mod in mods]
        stale = no_grad_forwards(mods, inputs)   # warm every cache
        REGISTER_WRITERS[writer](model, mods, blob_data, tmp_path)
        for mod, old in zip(mods, before):
            assert not np.array_equal(mod.offsets.data, old)
        after = no_grad_forwards(mods, inputs)
        assert not any(np.array_equal(a, b) for a, b in zip(stale, after))
        assert_cache_fresh(mods, inputs)

    def test_snapshot_restore(self, conv_deployer, tmp_path):
        deployed = conv_deployer.program(rng=1)
        mods = crossbar_modules(deployed)
        for mod in mods:
            mod.offsets.data += 2.0
            mod.set_complement(~mod.complement_mask)
        inputs = layer_inputs(mods)
        want = no_grad_forwards(mods, inputs)
        path = str(tmp_path / "chip")
        save_deployment(deployed, path)
        restored = crossbar_modules(load_deployment(conv_deployer, path))
        assert_cache_fresh(restored, inputs)
        for got, expected in zip(no_grad_forwards(restored, inputs), want):
            assert np.array_equal(got, expected)

    def test_set_complement_drops_the_cache(self, conv_deployer):
        mods = crossbar_modules(conv_deployer.program(rng=1))
        inputs = layer_inputs(mods)
        stale = no_grad_forwards(mods, inputs)
        for mod in mods:
            mod.set_complement(~mod.complement_mask)
        for got, old in zip(no_grad_forwards(mods, inputs), stale):
            assert not np.array_equal(got, old)
        assert_cache_fresh(mods, inputs)

    def test_cached_operand_is_reused_until_a_write(self):
        layer = make_linear()
        first = layer.frozen_operand()
        assert layer.frozen_operand() is first
        layer.offsets.data[...] = 1.0
        assert layer.frozen_operand() is not first

    def test_grad_mode_bypasses_the_cache(self, rng):
        layer = make_linear()
        x = rng.uniform(size=(3, 8))
        with no_grad():
            layer(Tensor(x))
        layer(Tensor(x)).sum().backward()
        assert layer.offsets.grad is not None
        assert np.abs(layer.offsets.grad).sum() > 0

    @pytest.mark.parametrize("kind", ["linear", "conv"])
    def test_cached_arrays_are_read_only(self, kind):
        layer = make_linear() if kind == "linear" else make_conv()
        for array in (layer.frozen_operand(),
                      layer.effective_weight_array()):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[...] = 0.0

    @pytest.mark.parametrize("kind", ["linear", "conv"])
    def test_effective_weight_array_equals_the_graph(self, kind, rng):
        layer = make_linear() if kind == "linear" else make_conv()
        layer.offsets.data[...] = rng.normal(size=layer.offsets.shape)
        assert np.array_equal(layer.effective_weight_array(),
                              layer.effective_weight_matrix().data)

    def test_concurrent_forwards_share_one_layer(self, rng):
        """Threads serving one layer, some in no_grad and some taping,
        each see their own grad mode and the exact output."""
        layers = [make_linear(), make_conv()]
        inputs = [rng.uniform(size=(4, 8)), rng.uniform(size=(2, 2, 6, 6))]
        want = [layer(Tensor(x)).data for layer, x in zip(layers, inputs)]
        errors = []

        def worker(taped):
            try:
                for _ in range(40):
                    for layer, x, expected in zip(layers, inputs, want):
                        if taped:
                            out = layer(Tensor(x))
                            assert out.requires_grad and out._parents
                        else:
                            with no_grad():
                                out = layer(Tensor(x))
                            assert not out.requires_grad
                        assert np.array_equal(out.data, expected)
            except AssertionError as exc:
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(i % 2 == 0,))
                       for i in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
