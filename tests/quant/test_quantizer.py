"""Affine weight quantization and the ISAAC shift."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.quant.quantizer import AffineQuantizer, InputQuantizer
from repro.utils.rng import make_rng


class TestAffineQuantizer:
    def test_paper_example_shift(self):
        """Weights in [-120, 135] shift to [0, 255] (Section II)."""
        w = np.array([-120.0, 0.0, 135.0])
        qt = AffineQuantizer(8).quantize(w)
        assert qt.values.min() == 0
        assert qt.values.max() == 255
        assert qt.zero_point == round(120 / qt.scale)

    def test_roundtrip_error_bounded_by_half_step(self, rng):
        w = rng.normal(size=1000)
        qt = AffineQuantizer(8).quantize(w)
        np.testing.assert_allclose(qt.dequantize(), w,
                                   atol=qt.scale / 2 + 1e-12)

    def test_all_values_in_range(self, rng):
        qt = AffineQuantizer(8).quantize(rng.normal(size=(64, 64)))
        assert qt.values.min() >= 0 and qt.values.max() <= 255

    def test_qmax_property(self):
        assert AffineQuantizer(4).quantize(np.array([0.0, 1.0])).qmax == 15

    def test_positive_only_weights(self):
        qt = AffineQuantizer(8).quantize(np.array([1.0, 2.0, 3.0]))
        assert qt.zero_point <= 128
        np.testing.assert_allclose(qt.dequantize(),
                                   [1.0, 2.0, 3.0], atol=qt.scale)

    def test_negative_only_weights(self):
        w = np.array([-3.0, -2.0, -1.0])
        qt = AffineQuantizer(8).quantize(w)
        np.testing.assert_allclose(qt.dequantize(), w, atol=qt.scale)

    def test_constant_tensor(self):
        qt = AffineQuantizer(8).quantize(np.full(5, 2.0))
        assert np.all(qt.values >= 0) and np.all(qt.values <= 255)
        assert np.isfinite(qt.scale) and qt.scale > 0

    def test_zero_tensor(self):
        qt = AffineQuantizer(8).quantize(np.zeros(4))
        np.testing.assert_allclose(qt.dequantize(), np.zeros(4), atol=1e-9)

    def test_invalid_bits(self):
        with pytest.raises(ValueError):
            AffineQuantizer(0)
        with pytest.raises(ValueError):
            AffineQuantizer(17)

    @settings(max_examples=30, deadline=None)
    @given(lo=st.floats(-100, 0), span=st.floats(0.1, 200),
           bits=st.integers(2, 10))
    def test_roundtrip_property(self, lo, span, bits):
        rng = make_rng(0)
        w = rng.uniform(lo, lo + span, size=50)
        qt = AffineQuantizer(bits).quantize(w)
        assert qt.values.min() >= 0
        assert qt.values.max() <= qt.qmax
        np.testing.assert_allclose(qt.dequantize(), w,
                                   atol=qt.scale * 0.51 + 1e-9)


class TestInputQuantizer:
    def test_calibrate_and_quantize(self):
        q = InputQuantizer(8)
        q.calibrate(np.array([0.0, 2.0]))
        assert q.quantize(np.array([2.0]))[0] == 255
        assert q.quantize(np.array([0.0]))[0] == 0

    def test_negative_clips_to_zero(self):
        q = InputQuantizer(8)
        q.calibrate(np.array([1.0]))
        assert q.quantize(np.array([-5.0]))[0] == 0

    def test_saturation_above_peak(self):
        q = InputQuantizer(8)
        q.calibrate(np.array([1.0]))
        assert q.quantize(np.array([100.0]))[0] == 255

    def test_apply_roundtrip_error(self, rng):
        q = InputQuantizer(8)
        x = rng.uniform(0, 1, size=500)
        q.calibrate(x)
        np.testing.assert_allclose(q.apply(x), x, atol=q.scale / 2 + 1e-12)

    def test_apply_idempotent(self, rng):
        q = InputQuantizer(8)
        x = rng.uniform(0, 1, size=100)
        q.calibrate(x)
        once = q.apply(x)
        np.testing.assert_array_equal(q.apply(once), once)

    @staticmethod
    def _activations(layout, dtype):
        """A (4, 3, 5, 6) batch over the whole code range and beyond:
        negatives, exact .5 ties, saturating values, -0.0 and NaN."""
        x = make_rng(7).normal(0.4, 0.6, size=(4, 3, 5, 6))
        x.flat[::9] = (np.arange(x.size)[::9] % 7 + 0.5) / 255
        x.flat[1::13] = -0.0
        x.flat[2::17] = np.nan
        x = x.astype(dtype)
        if layout == "channels_last":
            x = np.ascontiguousarray(x.transpose(0, 2, 3, 1)).transpose(
                0, 3, 1, 2)
        elif layout == "strided":
            x = x[:, :, ::2, ::-1]
        return x

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("layout", ["nchw", "channels_last", "strided"])
    def test_quantize_and_apply_equal_composed_formula(self, layout, dtype):
        """``quantize``/``apply`` are bit for bit ``clip(round(x /
        scale), 0, qmax)`` (times ``scale``), laid out like ``x``, and
        never write ``x``."""
        q = InputQuantizer(8)
        q.calibrate(np.array([1.0]))
        x = self._activations(layout, dtype)
        before = x.tobytes()
        codes_want = np.clip(np.round(x / q.scale), 0, q.qmax)
        for got, want in ((q.quantize(x), codes_want),
                          (q.apply(x), codes_want * q.scale)):
            assert got.dtype == want.dtype
            assert got.shape == want.shape
            assert got.strides == want.strides
            assert got.tobytes() == want.tobytes()
            assert not np.shares_memory(got, x)
        assert x.tobytes() == before
        if layout == "channels_last":
            assert q.apply(x).transpose(0, 2, 3, 1).flags.c_contiguous

    def test_invalid_bits(self):
        with pytest.raises(ValueError):
            InputQuantizer(0)
