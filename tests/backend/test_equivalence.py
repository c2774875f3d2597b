"""The production kernels must reproduce the loop-based oracle to float rounding.

:class:`~repro.backend.reference.ReferenceBackend` is the original code
moved verbatim and acts as the correctness oracle; the sweep below
drives the kernel set :func:`~repro.backend.get_backend` returns over
dense engines (ideal and finite-resolution ADC, complemented offset
groups, partial last groups, boolean-masked rows) and the conv/pooling
window kernels (odd shapes, stride, padding). Engine and conv outputs
must agree within rtol/atol 1e-9, col2im within 1e-12, and im2col (the
channels-last crossbar-row matrix) and the pooling windows bitwise;
im2col also over both input memory layouts, float32, NaN and signed
zeros, and its cached gather index is read-only. The
semantic checks (wordline rows, adjoint, read-only taps) run on both
kernel sets. Engines and layer ops resolve their kernels at call time,
so those tests run them on each kernel set through the
``swap_kernels`` fixture. The finite-ADC kernel must also give every
conversion the oracle's code: integer-level cells put many currents
exactly on half-step ties, and saturating, all-zero and block-edge
batches are checked too.
"""

import numpy as np
import pytest

from repro.backend import get_backend
from repro.backend.reference import ReferenceBackend
from repro.backend.vectorized import _adc_block_rows
from repro.core.offsets import OffsetPlan
from repro.device.cell import MLC2, SLC
from repro.device.lut import DeviceModel
from repro.device.variation import VariationModel
from repro.nn import functional as F
from repro.nn.tensor import Tensor
from repro.quant.bitslice import cell_significances
from repro.utils.rng import make_rng
from repro.xbar.adc import ADC
from repro.xbar.engine import CrossbarEngine

ORACLE = ReferenceBackend()
#: The production kernel set, checked against the oracle.
PRODUCTION = [pytest.param(get_backend(), id=get_backend().name)]
#: Both kernel sets, for the checks each must pass on its own.
BOTH = [pytest.param(ORACLE, id=ORACLE.name), *PRODUCTION]


def build_engine(rows, cols, m, cell, seed, adc=None, complemented=False,
                 integer_levels=False):
    """A random engine over programmed noisy cells or, with
    ``integer_levels``, over integer-level cells (``0..max_level``),
    whose every cell-column current is an exact integer."""
    rng = make_rng(seed)
    plan = OffsetPlan(rows, cols, m)
    if integer_levels:
        n_cells = len(cell_significances(8, cell.bits))
        cells = rng.integers(0, cell.max_level + 1,
                             size=(rows, cols, n_cells)).astype(float)
    else:
        device = DeviceModel(cell, VariationModel(0.5), n_bits=8)
        values = rng.integers(0, 256, size=(rows, cols))
        cells = device.program_cells(values, rng)
    registers = rng.integers(-40, 40,
                             size=(plan.n_groups, cols)).astype(float)
    complement = (rng.random((plan.n_groups, cols)) > 0.5 if complemented
                  else np.zeros((plan.n_groups, cols), dtype=bool))
    return CrossbarEngine(
        cells=cells, plan=plan, registers=registers, complement=complement,
        cell=cell, weight_bits=8, input_bits=8, weight_scale=0.01,
        weight_zero_point=128, input_scale=1 / 255, adc=adc)


def on_both(swap_kernels, kernels, run):
    """``run()`` on the oracle, then on ``kernels``."""
    swap_kernels(ORACLE)
    ref = run()
    swap_kernels(kernels)
    return ref, run()


class TestEngineVMM:
    """Dense bit-serial VMM: the oracle vs the production kernels."""

    @pytest.mark.parametrize("kernels", PRODUCTION)
    @pytest.mark.parametrize("complemented", [False, True],
                             ids=["plain", "complement"])
    @pytest.mark.parametrize("adc", [None, ADC(bits=6, full_scale=64.0)],
                             ids=["ideal-adc", "6bit-adc"])
    @pytest.mark.parametrize("cell", [SLC, MLC2], ids=["slc", "mlc2"])
    @pytest.mark.parametrize("rows,m", [(16, 8), (13, 8), (16, 4), (7, 16)],
                             ids=["even", "partial-group", "m4",
                                  "one-short-group"])
    def test_matches_reference(self, swap_kernels, kernels, complemented,
                               adc, cell, rows, m):
        engine = build_engine(rows=rows, cols=5, m=m, cell=cell, seed=11,
                              adc=adc, complemented=complemented)
        x = make_rng(12).uniform(0, 1, size=(6, rows))
        ref, alt = on_both(swap_kernels, kernels, lambda: engine.forward(x))
        np.testing.assert_allclose(alt, ref, rtol=1e-9, atol=1e-9)

    @pytest.mark.parametrize("kernels", PRODUCTION)
    def test_single_vector_and_empty_batch(self, swap_kernels, kernels):
        engine = build_engine(16, 3, 8, SLC, seed=3)
        x1 = make_rng(4).uniform(0, 1, size=16)          # 1-D input
        x0 = np.zeros((0, 16))
        ref, alt = on_both(swap_kernels, kernels,
                           lambda: (engine.forward(x1), engine.forward(x0)))
        np.testing.assert_allclose(alt[0], ref[0], rtol=1e-9, atol=1e-9)
        assert alt[1].shape == ref[1].shape == (0, 3)

    @pytest.mark.parametrize("adc", [None, ADC(bits=6, full_scale=64.0)],
                             ids=["ideal-adc", "6bit-adc"])
    @pytest.mark.parametrize("kernels", PRODUCTION)
    def test_boolean_masked_rows(self, swap_kernels, kernels, adc):
        """Inactive wordlines (boolean-masked / all-zero rows) must not
        perturb the kernels: zeroed drives still contribute the digital
        offset of their group exactly like the reference."""
        rows = 19
        engine = build_engine(rows, 4, 8, MLC2, seed=7, adc=adc,
                              complemented=True)
        x = make_rng(8).uniform(0, 1, size=(5, rows))
        mask = make_rng(9).random(rows) > 0.5
        x[:, mask] = 0.0
        x_all_masked = np.zeros((3, rows))
        ref, alt = on_both(
            swap_kernels, kernels,
            lambda: (engine.forward(x), engine.forward(x_all_masked)))
        for got, expected in zip(alt, ref):
            np.testing.assert_allclose(got, expected, rtol=1e-9, atol=1e-9)

    def test_packed_ideal_weights_reproduce_engine_output(self):
        """One GEMM against the cached packed matrix equals the full
        ideal-ADC reference VMM (analog + offset + complement +
        zero-point)."""
        engine = build_engine(13, 5, 8, MLC2, seed=5, complemented=True)
        op = engine._operands
        xq = make_rng(6).integers(0, 256, size=(7, 13))
        expected = ORACLE.engine_vmm(xq, op)
        packed = xq.astype(np.float64) @ op.packed_ideal_weights
        np.testing.assert_allclose(packed, expected, rtol=1e-9, atol=1e-9)

    def test_packed_operands_are_cached(self):
        engine = build_engine(16, 4, 8, SLC, seed=7)
        op = engine._operands
        assert op.packed_ideal_weights is op.packed_ideal_weights


def adc_currents(engine, x):
    """Every (input bit, group, column, cell) current ``engine`` hands
    its ADC on ``x``."""
    op = engine._operands
    xq = engine.quantize_inputs(np.atleast_2d(x))
    return np.stack([
        np.einsum("nkm,kmcs->nkcs", op.grouped_inputs((xq >> bit) & 1),
                  op.cells_grouped)
        for bit in range(op.input_bits)])


class TestFiniteADCExactness:
    """The finite-ADC kernel must give every conversion the oracle's
    code: one flipped code moves an output by at least one LSB, far
    above the 1e-9 tolerance."""

    @pytest.mark.parametrize("kernels", PRODUCTION)
    @pytest.mark.parametrize("adc_bits", [3, 5, 7])
    @pytest.mark.parametrize("m", [8, 16])
    @pytest.mark.parametrize("cell", [SLC, MLC2], ids=["slc", "mlc2"])
    def test_exact_half_step_ties(self, swap_kernels, kernels, cell, m,
                                  adc_bits):
        """Integer-level cells and an ADC of full scale ``m * L`` put
        many currents exactly half a step between two codes (mid-scale,
        ``m * L / 2``, is a tie for every ADC here); clip, divide and
        round in the ADC's order must break every tie the oracle's
        way."""
        adc = ADC(bits=adc_bits, full_scale=float(m * cell.max_level))
        engine = build_engine(4 * m, 6, m, cell, seed=40 + m, adc=adc,
                              complemented=True, integer_levels=True)
        x = make_rng(41).integers(0, 256, size=(64, 4 * m)) / 255
        # The quotients the ADC rounds, in its own op order.
        q = np.clip(adc_currents(engine, x), 0.0, adc.full_scale) / adc.step
        assert np.count_nonzero(q - np.floor(q) == 0.5) > 100
        ref, alt = on_both(swap_kernels, kernels, lambda: engine.forward(x))
        np.testing.assert_allclose(alt, ref, rtol=1e-9, atol=1e-9)

    @pytest.mark.parametrize("kernels", PRODUCTION)
    @pytest.mark.parametrize("cell", [SLC, MLC2], ids=["slc", "mlc2"])
    def test_saturation_and_zero_drive(self, swap_kernels, kernels, cell):
        """Currents above full scale clip to the top code; all-zero
        drives read code 0 and leave only the digital terms."""
        m = 8
        adc = ADC(bits=4, full_scale=float(m * cell.max_level) / 4)
        engine = build_engine(3 * m + 5, 7, m, cell, seed=42, adc=adc,
                              complemented=True, integer_levels=True)
        rng = make_rng(43)
        x_full = np.ones((5, 3 * m + 5))
        x_mixed = rng.integers(0, 256, size=(9, 3 * m + 5)) / 255
        x_mixed[::2] = 0.0
        x_zero = np.zeros((4, 3 * m + 5))
        currents = adc_currents(engine, np.vstack([x_full, x_mixed]))
        assert np.count_nonzero(currents > adc.full_scale) > 0
        assert np.count_nonzero(currents == 0.0) > 0
        ref, alt = on_both(
            swap_kernels, kernels,
            lambda: [engine.forward(x) for x in (x_full, x_mixed, x_zero)])
        for got, expected in zip(alt, ref):
            np.testing.assert_allclose(got, expected, rtol=1e-9, atol=1e-9)

    @pytest.mark.parametrize("kernels", PRODUCTION)
    @pytest.mark.parametrize("blocks,extra", [
        (0, 0), (0, 1), (1, -1), (1, 0), (1, 1), (2, 1)],
        ids=["0", "1", "block-1", "block", "block+1", "2block+1"])
    def test_batch_sizes_around_block_edges(self, swap_kernels, kernels,
                                            blocks, extra):
        """Every input row lands in exactly one block, whatever the
        batch size relative to the block."""
        adc = ADC(bits=6, full_scale=16.0)
        engine = build_engine(29, 5, 16, SLC, seed=44, adc=adc,
                              complemented=True)
        n = blocks * _adc_block_rows(engine._operands) + extra
        x = make_rng(45).uniform(0, 1, size=(n, 29))
        ref, alt = on_both(swap_kernels, kernels, lambda: engine.forward(x))
        assert alt.shape == ref.shape == (n, 5)
        np.testing.assert_allclose(alt, ref, rtol=1e-9, atol=1e-9)

    @pytest.mark.parametrize("kernels", PRODUCTION)
    @pytest.mark.parametrize("adc_bits", [2, 6, 10])
    @pytest.mark.parametrize("complemented", [False, True],
                             ids=["plain", "complement"])
    @pytest.mark.parametrize("m", [4, 8, 16, 32])
    def test_group_sizes_with_partial_last_group(
            self, swap_kernels, kernels, m, complemented, adc_bits):
        rows = 2 * m + m // 2 + 1
        adc = ADC(bits=adc_bits, full_scale=float(m * MLC2.max_level))
        engine = build_engine(rows, 6, m, MLC2, seed=46 + m, adc=adc,
                              complemented=complemented)
        x = make_rng(47).uniform(0, 1, size=(11, rows))
        ref, alt = on_both(swap_kernels, kernels, lambda: engine.forward(x))
        np.testing.assert_allclose(alt, ref, rtol=1e-9, atol=1e-9)


class TestWindowKernels:
    """im2col / col2im / pool_windows across odd shapes.

    im2col returns the crossbar-row matrix (N*OH*OW, C*kh*kw): row
    ``n*OH*OW + i*OW + j`` is the wordline vector of output pixel
    (i, j) of image n, columns in (c, kh, kw) order; col2im is its
    adjoint on that matrix.
    """

    SHAPES = [
        # (n, c, h, w, kh, kw, stride, pad)
        (2, 3, 6, 6, 3, 3, 1, 0),
        (1, 1, 7, 5, 3, 2, 2, 1),
        (3, 2, 5, 5, 1, 1, 1, 0),
        (2, 4, 8, 8, 2, 2, 2, 0),
        (1, 2, 9, 7, 4, 3, 3, 2),
        (2, 1, 12, 12, 5, 5, 1, 2),     # LeNet conv1: 5x5, pad 2
        (2, 8, 8, 8, 1, 1, 2, 0),       # ResNet shortcut: 1x1, stride 2
    ]

    @staticmethod
    def _out_hw(shape):
        n, c, h, w, kh, kw, stride, pad = shape
        return ((h + 2 * pad - kh) // stride + 1,
                (w + 2 * pad - kw) // stride + 1)

    @pytest.mark.parametrize("kernels", PRODUCTION)
    @pytest.mark.parametrize("shape", SHAPES)
    def test_im2col(self, kernels, shape):
        n, c, h, w, kh, kw, stride, pad = shape
        x = make_rng(20).normal(size=(n, c, h, w))
        ref, oh_ref, ow_ref = ORACLE.im2col(x, kh, kw, stride, pad)
        alt, oh_alt, ow_alt = kernels.im2col(x, kh, kw, stride, pad)
        assert (oh_alt, ow_alt) == (oh_ref, ow_ref) == self._out_hw(shape)
        assert alt.shape == ref.shape == (n * oh_ref * ow_ref, c * kh * kw)
        np.testing.assert_array_equal(alt, ref)

    @pytest.mark.parametrize("kernels", PRODUCTION)
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("layout", ["nchw", "channels_last"])
    @pytest.mark.parametrize("shape", [
        (1, 3, 7, 6, 3, 3, 1, 1),       # batch 1
        (2, 2, 9, 8, 2, 4, 1, 0),       # kh != kw, no padding
        (2, 3, 8, 11, 4, 2, 2, 1),      # kh != kw, stride
        (2, 3, 11, 10, 2, 3, 4, 1),     # stride > kernel
        (1, 2, 6, 6, 1, 1, 3, 0),       # 1x1, stride > kernel
    ])
    def test_im2col_bitwise_over_layouts_dtypes_and_specials(
            self, kernels, shape, layout, dtype):
        """The gather copies every element bit for bit — NaN and -0.0
        included — in either input memory layout and dtype."""
        n, c, h, w, kh, kw, stride, pad = shape
        x = make_rng(25).normal(size=(n, c, h, w)).astype(dtype)
        x.flat[::7] = -0.0
        x.flat[3::11] = np.nan
        if layout == "channels_last":
            x = np.ascontiguousarray(x.transpose(0, 2, 3, 1)).transpose(
                0, 3, 1, 2)
        before = x.tobytes()
        ref, oh_ref, ow_ref = ORACLE.im2col(x, kh, kw, stride, pad)
        alt, oh_alt, ow_alt = kernels.im2col(x, kh, kw, stride, pad)
        assert (oh_alt, ow_alt) == (oh_ref, ow_ref) == self._out_hw(shape)
        assert alt.dtype == ref.dtype == dtype
        assert alt.shape == ref.shape == (n * oh_ref * ow_ref, c * kh * kw)
        np.testing.assert_array_equal(alt, ref)
        assert alt.tobytes() == ref.tobytes()      # signed zeros, NaN bits
        assert x.tobytes() == before

    def test_im2col_gather_index_is_cached_and_read_only(self):
        """The gather index is built once per geometry and shared by
        every call, so no caller may write it."""
        from repro.backend.vectorized import _im2col_index

        x = make_rng(26).normal(size=(2, 3, 9, 7))
        get_backend().im2col(x, 3, 2, 2, 1)
        hits = _im2col_index.cache_info().hits
        get_backend().im2col(x[:1], 3, 2, 2, 1)     # same geometry
        assert _im2col_index.cache_info().hits == hits + 1
        idx = _im2col_index(11, 9, 3, 3, 2, 2)
        assert idx is _im2col_index(11, 9, 3, 3, 2, 2)
        assert idx.dtype == np.intp and idx.shape == (5 * 4, 3 * 3 * 2)
        assert not idx.flags.writeable
        with pytest.raises(ValueError):
            idx[0, 0] = 1

    @pytest.mark.parametrize("kernels", BOTH)
    @pytest.mark.parametrize("shape", SHAPES)
    def test_im2col_rows_are_wordline_vectors(self, kernels, shape):
        """Row n*OH*OW + i*OW + j is the padded (C, kh, kw) patch under
        output pixel (i, j) of image n, flattened in crossbar row order."""
        n, c, h, w, kh, kw, stride, pad = shape
        x = make_rng(23).normal(size=(n, c, h, w))
        cols, oh, ow = kernels.im2col(x, kh, kw, stride, pad)
        xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
        for ni in range(n):
            for i in range(oh):
                for j in range(ow):
                    patch = xp[ni, :, i * stride:i * stride + kh,
                               j * stride:j * stride + kw]
                    np.testing.assert_array_equal(
                        cols[ni * oh * ow + i * ow + j], patch.ravel())

    @pytest.mark.parametrize("kernels", PRODUCTION)
    @pytest.mark.parametrize("shape", SHAPES)
    def test_col2im_adjoint(self, kernels, shape):
        n, c, h, w, kh, kw, stride, pad = shape
        oh, ow = self._out_hw(shape)
        cols = make_rng(21).normal(size=(n * oh * ow, c * kh * kw))
        ref = ORACLE.col2im(cols, (n, c, h, w), kh, kw, stride, pad)
        alt = kernels.col2im(cols, (n, c, h, w), kh, kw, stride, pad)
        assert alt.shape == ref.shape == (n, c, h, w)
        np.testing.assert_allclose(alt, ref, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("kernels", BOTH)
    @pytest.mark.parametrize("shape", SHAPES)
    def test_col2im_is_im2col_adjoint(self, kernels, shape):
        """<im2col(x), y> == <x, col2im(y)> on the crossbar-row matrix."""
        n, c, h, w, kh, kw, stride, pad = shape
        rng = make_rng(24)
        x = rng.normal(size=(n, c, h, w))
        cols, _, _ = kernels.im2col(x, kh, kw, stride, pad)
        y = rng.normal(size=cols.shape)
        back = kernels.col2im(y, x.shape, kh, kw, stride, pad)
        np.testing.assert_allclose((cols * y).sum(), (x * back).sum(),
                                   rtol=1e-12)

    @pytest.mark.parametrize("kernels", PRODUCTION)
    @pytest.mark.parametrize("k,stride", [(2, 2), (3, 1), (3, 2), (2, 3)])
    def test_pool_windows(self, kernels, k, stride):
        x = make_rng(22).normal(size=(2, 3, 7, 9))
        ref = ORACLE.pool_windows(x, k, stride)
        alt = kernels.pool_windows(x, k, stride)
        np.testing.assert_array_equal(alt, ref)

    @pytest.mark.parametrize("kernels", BOTH)
    @pytest.mark.parametrize("k,stride", [(2, 2), (3, 3), (3, 2)])
    def test_pool_window_taps_are_strided_slices(self, kernels, k, stride):
        """``windows[:, :, i, j]`` is tap (i, j) of every window, in any
        input layout, and the windows are read-only."""
        x = make_rng(23).normal(size=(2, 3, 8, 9))
        for data in (x, np.ascontiguousarray(
                x.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)):
            windows = kernels.pool_windows(data, k, stride)
            oh, ow = (8 - k) // stride + 1, (9 - k) // stride + 1
            assert windows.shape == (2, 3, k, k, oh, ow)
            assert not windows.flags.writeable
            for i in range(k):
                for j in range(k):
                    np.testing.assert_array_equal(
                        windows[:, :, i, j],
                        data[:, :, i::stride, j::stride][:, :, :oh, :ow])


class TestLayerOps:
    """Whole forward/backward ops through the dispatch layer."""

    @pytest.mark.parametrize("kernels", PRODUCTION)
    def test_conv2d_forward_and_grad(self, swap_kernels, kernels):
        rng = make_rng(30)
        x_data = rng.normal(size=(2, 3, 7, 7))
        w_data = rng.normal(size=(4, 3, 3, 3))

        def run():
            x = Tensor(x_data, requires_grad=True)
            w = Tensor(w_data, requires_grad=True)
            y = F.conv2d(x, w, stride=2, padding=1)
            y.sum().backward()
            return y.data, x.grad, w.grad

        (y_ref, gx_ref, gw_ref), (y_alt, gx_alt, gw_alt) = on_both(
            swap_kernels, kernels, run)
        np.testing.assert_allclose(y_alt, y_ref, rtol=1e-9, atol=1e-9)
        np.testing.assert_allclose(gx_alt, gx_ref, rtol=1e-9, atol=1e-9)
        np.testing.assert_allclose(gw_alt, gw_ref, rtol=1e-9, atol=1e-9)

    @staticmethod
    def _check_pooling(swap_kernels, kernels, op, k, stride):
        x_data = make_rng(31).normal(size=(2, 3, 6, 6))

        def run():
            x = Tensor(x_data, requires_grad=True)
            y = op(x, k, stride=stride)
            y.sum().backward()
            return y.data, x.grad

        (y_ref, g_ref), (y_alt, g_alt) = on_both(swap_kernels, kernels, run)
        np.testing.assert_array_equal(y_alt, y_ref)
        np.testing.assert_array_equal(g_alt, g_ref)

    @pytest.mark.parametrize("kernels", PRODUCTION)
    @pytest.mark.parametrize("op", [F.max_pool2d, F.avg_pool2d],
                             ids=["max", "avg"])
    def test_pooling(self, swap_kernels, kernels, op):
        self._check_pooling(swap_kernels, kernels, op, 2, 2)

    @pytest.mark.parametrize("kernels", PRODUCTION)
    @pytest.mark.parametrize("op", [F.max_pool2d, F.avg_pool2d],
                             ids=["max", "avg"])
    def test_pooling_overlapping_windows(self, swap_kernels, kernels, op):
        """k=3/stride=2 windows overlap, so max-pool's backward adds
        into the same input element from several taps, and avg-pool's
        col2im fold accumulates overlaps."""
        self._check_pooling(swap_kernels, kernels, op, 3, 2)
