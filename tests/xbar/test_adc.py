"""ADC model."""

import numpy as np
import pytest

from repro.xbar.adc import ADC


class TestADC:
    def test_ideal_is_identity(self, rng):
        x = rng.normal(size=20)
        np.testing.assert_array_equal(ADC().convert(x), x)

    def test_quantizer_needs_full_scale(self):
        with pytest.raises(ValueError):
            ADC(bits=8)

    def test_invalid_bits(self):
        with pytest.raises(ValueError):
            ADC(bits=0, full_scale=1.0)

    def test_step(self):
        adc = ADC(bits=3, full_scale=7.0)
        np.testing.assert_allclose(adc.step, 1.0)

    def test_ideal_has_no_step(self):
        with pytest.raises(ValueError):
            _ = ADC().step

    def test_rounding_to_grid(self):
        adc = ADC(bits=3, full_scale=7.0)
        np.testing.assert_allclose(adc.convert(np.array([2.4, 2.6])),
                                   [2.0, 3.0])

    def test_saturation(self):
        adc = ADC(bits=4, full_scale=10.0)
        assert adc.convert(np.array([99.0]))[0] == 10.0

    def test_clips_negative(self):
        adc = ADC(bits=4, full_scale=10.0)
        assert adc.convert(np.array([-3.0]))[0] == 0.0

    def test_error_bounded_by_half_step(self, rng):
        adc = ADC(bits=6, full_scale=1.0)
        x = rng.uniform(0, 1, size=1000)
        err = np.abs(adc.convert(x) - x)
        assert err.max() <= adc.step / 2 + 1e-12


def legacy_convert(adc, x):
    """The converter's original one-expression rounding rule."""
    clipped = np.clip(np.asarray(x, dtype=np.float64), 0.0, adc.full_scale)
    return np.round(clipped / adc.step) * adc.step


class TestADCCodes:
    """``codes`` owns the rounding rule: clip, divide by the step, round
    half to even — the exact op order ``convert`` always used."""

    @staticmethod
    def inputs(rng, adc):
        grid = np.arange(-4, (1 << adc.bits) + 4) * adc.step
        return {
            "random": rng.uniform(0, adc.full_scale, size=(7, 33)),
            "saturating": adc.full_scale * rng.uniform(1, 5, size=50),
            "negative": -rng.uniform(0, 3, size=50),
            "signed-zero": np.array([-0.0, 0.0, -0.0]),
            "half-steps": grid + adc.step / 2,
        }

    @pytest.mark.parametrize("bits,full_scale", [(3, 7.0), (6, 16.0),
                                                 (5, 24.0), (10, 48.0)])
    def test_codes_times_step_is_legacy_convert_bitwise(self, rng, bits,
                                                        full_scale):
        adc = ADC(bits=bits, full_scale=full_scale)
        for name, x in self.inputs(rng, adc).items():
            want = legacy_convert(adc, x).tobytes()
            assert (adc.codes(x) * adc.step).tobytes() == want, name
            assert adc.convert(x).tobytes() == want, name

    def test_codes_are_integers_in_range(self, rng):
        adc = ADC(bits=4, full_scale=10.0)
        codes = adc.codes(rng.uniform(-5, 20, size=200))
        assert codes.dtype == np.float64
        np.testing.assert_array_equal(codes, np.round(codes))
        assert codes.min() == 0.0 and codes.max() == 15.0

    def test_out_is_written_in_place(self, rng):
        adc = ADC(bits=5, full_scale=8.0)
        x = rng.uniform(-1, 9, size=(4, 6))
        want = adc.codes(x)
        out = np.full_like(x, np.nan)
        assert adc.codes(x, out=out) is out
        np.testing.assert_array_equal(out, want)
        same = x.copy()
        assert adc.codes(same, out=same) is same
        np.testing.assert_array_equal(same, want)

    def test_input_untouched_without_out(self, rng):
        adc = ADC(bits=5, full_scale=8.0)
        x = rng.uniform(-1, 9, size=(4, 6))
        before = x.tobytes()
        codes = adc.codes(x)
        assert x.tobytes() == before
        assert not np.shares_memory(codes, x)

    def test_ideal_has_no_codes(self):
        with pytest.raises(ValueError):
            ADC().codes(np.ones(3))
