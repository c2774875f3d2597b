"""Microbenchmarks of the library's computational kernels.

These are classic pytest-benchmark targets (many rounds, statistical
timing) for the hot paths: device programming, the VAWO solver, the
bit-accurate engine, im2col, and a crossbar-layer forward pass. They
show where a kernel change moves time rather than reproducing a paper
number; the gated speed numbers come from ``benchmarks/e2e``. Every
kernel runs on the library's kernel set,
:func:`repro.backend.get_backend`.
"""

import numpy as np
import pytest

from repro.backend import get_backend
from repro.core.offsets import OffsetPlan
from repro.core.vawo import run_vawo
from repro.device.cell import MLC2, SLC
from repro.device.lut import DeviceModel, build_lut_analytic
from repro.device.variation import VariationModel
from repro.nn import functional as F
from repro.nn.tensor import Tensor
from repro.xbar.adc import ADC
from repro.xbar.engine import CrossbarEngine
from repro.utils.rng import make_rng


def test_device_programming_128x128(benchmark):
    device = DeviceModel(MLC2, VariationModel(0.5), n_bits=8)
    values = make_rng(0).integers(0, 256, size=(128, 128))
    rng = make_rng(1)
    benchmark(device.program_cells, values, rng)


def test_lut_build_analytic(benchmark):
    device = DeviceModel(SLC, VariationModel(0.5), n_bits=8)
    benchmark(build_lut_analytic, device)


def test_vawo_solver_128x128(benchmark):
    rng = make_rng(0)
    device = DeviceModel(SLC, VariationModel(0.5), n_bits=8)
    lut = build_lut_analytic(device)
    plan = OffsetPlan(128, 128, 16)
    ntw = np.clip(np.round(rng.normal(128, 30, size=(128, 128))),
                  0, 255).astype(np.int64)
    grads = np.abs(rng.normal(size=(128, 128)))
    benchmark.pedantic(run_vawo, args=(ntw, grads, lut, plan),
                       kwargs=dict(use_complement=True),
                       rounds=3, iterations=1)


@pytest.mark.parametrize("adc_bits", [None, 6], ids=["ideal-adc", "6bit-adc"])
def test_bit_accurate_engine_forward(benchmark, adc_bits):
    """The engine VMM under an ideal ADC (one packed GEMM) and a 6-bit
    ADC (blocked stacked-bit GEMMs, in-place codes, integer-domain
    shift-and-add) at full scale ``m * max_level``."""
    rng = make_rng(0)
    device = DeviceModel(MLC2, VariationModel(0.5), n_bits=8)
    plan = OffsetPlan(128, 32, 16)
    values = rng.integers(0, 256, size=(128, 32))
    adc = (ADC() if adc_bits is None else
           ADC(bits=adc_bits, full_scale=float(16 * MLC2.max_level)))
    engine = CrossbarEngine(
        cells=device.program_cells(values, rng), plan=plan,
        registers=np.zeros((plan.n_groups, 32)),
        complement=np.zeros((plan.n_groups, 32), dtype=bool),
        cell=MLC2, input_scale=1 / 255, weight_scale=0.01,
        weight_zero_point=128, adc=adc)
    x = rng.uniform(0, 1, size=(16, 128))
    # One warmup round so the one-time setup (cached packed and
    # grouped operands) is excluded from the steady-state mean.
    benchmark.pedantic(engine.forward, args=(x,), rounds=3, iterations=1,
                       warmup_rounds=1)


def test_conv2d_float_forward(benchmark):
    """The fast float conv path (im2col + one GEMM)."""
    rng = make_rng(0)
    x = Tensor(rng.normal(size=(8, 3, 32, 32)))
    w = Tensor(rng.normal(size=(16, 3, 3, 3)))
    benchmark.pedantic(F.conv2d, args=(x, w),
                       kwargs=dict(stride=1, padding=1),
                       rounds=3, iterations=1)


@pytest.mark.parametrize("c,hw,k,pad", [
    pytest.param(8, 32, 3, 1, id="C8-32x32-pad1"),
    pytest.param(16, 16, 3, 1, id="C16-16x16-pad1"),
    pytest.param(1, 28, 5, 2, id="lenet-conv1"),
])
def test_im2col(benchmark, c, hw, k, pad):
    """im2col alone at batch 64 on a channels-last activation, the
    layout a conv/BN/ReLU output hands the next conv. One warmup round
    builds the geometry's cached gather index outside the timing."""
    x = make_rng(0).normal(size=(64, hw, hw, c)).transpose(0, 3, 1, 2)
    benchmark.pedantic(get_backend().im2col, args=(x, k, k, 1, pad),
                       rounds=5, iterations=1, warmup_rounds=1)


def test_conv_via_crossbar_engine(benchmark):
    """Conv the way the paper runs it: im2col columns through the
    bit-accurate crossbar engine of the unrolled kernel matrix."""
    rng = make_rng(0)
    c_in, kh, kw, f = 8, 3, 3, 16
    rows = c_in * kh * kw                                  # 72 wordlines
    device = DeviceModel(MLC2, VariationModel(0.5), n_bits=8)
    plan = OffsetPlan(rows, f, 8)
    values = rng.integers(0, 256, size=(rows, f))
    engine = CrossbarEngine(
        cells=device.program_cells(values, rng), plan=plan,
        registers=np.zeros((plan.n_groups, f)),
        complement=np.zeros((plan.n_groups, f), dtype=bool),
        cell=MLC2, input_scale=1 / 255, weight_scale=0.01,
        weight_zero_point=128)
    x = rng.uniform(0, 1, size=(4, c_in, 14, 14))

    def conv_on_crossbar():
        cols, oh, ow = get_backend().im2col(x, kh, kw, 1, 1)
        return engine.forward(cols)                        # (N*OH*OW, rows)

    benchmark.pedantic(conv_on_crossbar, rounds=3, iterations=1,
                       warmup_rounds=1)


def test_crossbar_layer_forward(benchmark):
    from repro.core.crossbar_layers import CrossbarLinear

    rng = make_rng(0)
    device = DeviceModel(SLC, VariationModel(0.5), n_bits=8)
    plan = OffsetPlan(400, 120, 16)
    values = rng.integers(0, 256, size=(400, 120))
    layer = CrossbarLinear(
        cells=device.program_cells(values, rng), plan=plan,
        registers=np.zeros((plan.n_groups, 120)),
        complement=np.zeros((plan.n_groups, 120), dtype=bool),
        cell=SLC, weight_bits=8, weight_scale=0.01, weight_zero_point=128)
    x = Tensor(rng.uniform(size=(64, 400)))
    benchmark(layer, x)


def test_write_verify_pulse_loop(benchmark):
    from repro.device.programming import write_verify

    device = DeviceModel(SLC, VariationModel(0.5), n_bits=8)
    values = make_rng(0).integers(0, 256, size=1000)
    benchmark.pedantic(write_verify, args=(device, values),
                       kwargs=dict(rng=make_rng(1)),
                       rounds=3, iterations=1)
