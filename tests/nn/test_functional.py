"""Functional ops: values against naive references, gradients numerically."""

import numpy as np
import pytest

from repro.backend.reference import ReferenceBackend
from repro.nn import functional as F
from repro.nn.tensor import Tensor, no_grad
from tests.helpers import gradcheck, numeric_grad
from repro.utils.rng import make_rng


def naive_conv2d(x, w, b, stride, pad):
    """Straightforward quadruple-loop conv for value checking."""
    n, c, h, ww = x.shape
    f, _, kh, kw = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    oh = (h + 2 * pad - kh) // stride + 1
    ow = (ww + 2 * pad - kw) // stride + 1
    out = np.zeros((n, f, oh, ow))
    for ni in range(n):
        for fi in range(f):
            for i in range(oh):
                for j in range(ow):
                    patch = xp[ni, :, i * stride:i * stride + kh,
                               j * stride:j * stride + kw]
                    out[ni, fi, i, j] = (patch * w[fi]).sum()
            if b is not None:
                out[ni, fi] += b[fi]
    return out


class TestIm2Col:
    def test_roundtrip_adjoint(self, rng):
        """col2im is the exact adjoint of im2col: <Ax, y> == <x, A*y>."""
        x = rng.normal(size=(2, 3, 6, 6))
        cols, oh, ow = F.im2col(x, 3, 3, 1, 1)
        y = rng.normal(size=cols.shape)
        lhs = (cols * y).sum()
        back = F.col2im(y, x.shape, 3, 3, 1, 1)
        rhs = (x * back).sum()
        np.testing.assert_allclose(lhs, rhs)

    def test_output_shape(self, rng):
        cols, oh, ow = F.im2col(rng.normal(size=(1, 2, 5, 5)), 3, 3, 2, 0)
        assert (oh, ow) == (2, 2)
        assert cols.shape == (1, 2 * 9, 4)

    @pytest.mark.parametrize("kh,kw,stride,pad",
                             [(3, 3, 1, 1), (5, 5, 1, 2), (1, 1, 2, 0),
                              (3, 2, 2, 1)])
    def test_keeps_per_image_column_layout(self, rng, kh, kw, stride, pad):
        """F.im2col stays (N, C*kh*kw, OH*OW), bitwise equal to the
        per-image window unfold: column p of image n is output pixel p's
        patch in (c, kh, kw) order."""
        x = rng.normal(size=(2, 3, 7, 6))
        cols, oh, ow = F.im2col(x, kh, kw, stride, pad)
        xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
        expected = np.empty((2, 3, kh, kw, oh, ow))
        for i in range(kh):
            for j in range(kw):
                expected[:, :, i, j] = xp[:, :, i:i + stride * oh:stride,
                                          j:j + stride * ow:stride]
        assert cols.shape == (2, 3 * kh * kw, oh * ow)
        np.testing.assert_array_equal(cols,
                                      expected.reshape(2, -1, oh * ow))


class TestConv2d:
    @pytest.mark.parametrize("stride,pad", [(1, 0), (1, 1), (2, 0), (2, 1)])
    def test_values_match_naive(self, rng, stride, pad):
        x = rng.normal(size=(2, 3, 6, 6))
        w = rng.normal(size=(4, 3, 3, 3))
        b = rng.normal(size=4)
        out = F.conv2d(Tensor(x), Tensor(w), Tensor(b), stride, pad)
        np.testing.assert_allclose(out.data,
                                   naive_conv2d(x, w, b, stride, pad),
                                   atol=1e-10)

    def test_gradcheck_weight_and_input(self):
        gradcheck(
            lambda ts: (F.conv2d(ts[0], ts[1], ts[2], stride=1, padding=1)
                        ** 2).sum(),
            [(1, 2, 4, 4), (3, 2, 3, 3), (3,)])

    def test_gradcheck_strided(self):
        gradcheck(
            lambda ts: (F.conv2d(ts[0], ts[1], None, stride=2) ** 2).sum(),
            [(1, 1, 5, 5), (2, 1, 3, 3)])

    def test_no_bias(self, rng):
        x = rng.normal(size=(1, 1, 4, 4))
        w = rng.normal(size=(1, 1, 2, 2))
        out = F.conv2d(Tensor(x), Tensor(w))
        np.testing.assert_allclose(out.data,
                                   naive_conv2d(x, w, None, 1, 0), atol=1e-10)

    @pytest.mark.parametrize("stride,pad", [(1, 1), (2, 0)])
    def test_channels_last_input_matches_contiguous(self, rng, stride, pad):
        """A conv's own output layout (an NCHW view over channels-last
        memory) convolves bitwise like its C-contiguous copy, forward
        and backward."""
        w_data = rng.normal(size=(4, 3, 3, 3))
        first = F.conv2d(Tensor(rng.normal(size=(2, 5, 7, 7))),
                         Tensor(rng.normal(size=(3, 5, 1, 1)))).data
        assert not first.flags.c_contiguous
        assert first.transpose(0, 2, 3, 1).flags.c_contiguous

        def run(x_data):
            x = Tensor(x_data, requires_grad=True)
            w = Tensor(w_data, requires_grad=True)
            y = F.conv2d(x, w, stride=stride, padding=pad)
            (y * y).sum().backward()
            return y.data, x.grad, w.grad

        for got, want in zip(run(first), run(np.ascontiguousarray(first))):
            np.testing.assert_array_equal(got, want)

    def test_1x1_conv_is_channel_mix(self, rng):
        x = rng.normal(size=(2, 3, 4, 4))
        w = rng.normal(size=(5, 3, 1, 1))
        out = F.conv2d(Tensor(x), Tensor(w)).data
        expected = np.einsum("fc,nchw->nfhw", w[:, :, 0, 0], x)
        np.testing.assert_allclose(out, expected, atol=1e-10)


class TestPooling:
    def test_max_pool_values(self):
        x = np.arange(16.0).reshape(1, 1, 4, 4)
        out = F.max_pool2d(Tensor(x), 2)
        np.testing.assert_array_equal(out.data.reshape(2, 2),
                                      [[5, 7], [13, 15]])

    def test_max_pool_grad_hits_argmax(self):
        x = Tensor(np.arange(16.0).reshape(1, 1, 4, 4), requires_grad=True)
        F.max_pool2d(x, 2).sum().backward()
        expected = np.zeros((4, 4))
        expected[1, 1] = expected[1, 3] = expected[3, 1] = expected[3, 3] = 1
        np.testing.assert_array_equal(x.grad[0, 0], expected)

    def test_max_pool_overlapping_stride(self, rng):
        x = rng.normal(size=(1, 1, 5, 5))
        out = F.max_pool2d(Tensor(x), 3, stride=1)
        assert out.shape == (1, 1, 3, 3)
        assert out.data[0, 0, 0, 0] == x[0, 0, :3, :3].max()

    def test_avg_pool_values(self):
        x = np.arange(16.0).reshape(1, 1, 4, 4)
        out = F.avg_pool2d(Tensor(x), 2)
        np.testing.assert_allclose(out.data.reshape(2, 2),
                                   [[2.5, 4.5], [10.5, 12.5]])

    def test_avg_pool_gradcheck(self):
        gradcheck(lambda ts: (F.avg_pool2d(ts[0], 2) ** 2).sum(),
                  [(1, 2, 4, 4)])

    def test_global_avg_pool(self, rng):
        x = rng.normal(size=(2, 3, 4, 4))
        out = F.global_avg_pool2d(Tensor(x))
        np.testing.assert_allclose(out.data, x.mean(axis=(2, 3)))


def _channels_last(x):
    """``x`` (N, C, H, W) as an NCHW view over channels-last memory."""
    return np.ascontiguousarray(x.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)


def argmax_max_pool(x, k, stride):
    """The max-pool oracle: an ``argmax`` gather over the flattened
    pooling windows forward, a ``put_along_axis`` scatter folded back
    through col2im backward."""
    windows = F._flat_pool_windows(x.data, k, stride)
    arg = windows.argmax(axis=2)
    out = np.take_along_axis(windows, arg[:, :, None], axis=2)[:, :, 0]
    n, c, oh, ow = out.shape

    def backward(g):
        if not x.requires_grad:
            return
        dwin = np.zeros((n, oh, ow, c, k * k), dtype=np.float64)
        np.put_along_axis(dwin.transpose(0, 3, 4, 1, 2), arg[:, :, None],
                          g[:, :, None], axis=2)
        x._accumulate(F._fold_windows(dwin, x.shape, k, stride))

    return Tensor._make(out, (x,), backward)


def assert_bitwise_equal(actual, expected):
    """Equal shapes and equal bytes: tells ``+0.0`` from ``-0.0``, which
    ``assert_array_equal`` does not."""
    assert actual.shape == expected.shape
    np.testing.assert_array_equal(
        np.ascontiguousarray(actual, dtype=np.float64).view(np.uint64),
        np.ascontiguousarray(expected, dtype=np.float64).view(np.uint64))


def check_max_pool_against_oracle(x_data, k, stride, rng):
    """``max_pool2d`` and :func:`argmax_max_pool` agree bitwise on
    ``x_data``, in output and in the input gradient of a random
    upstream gradient."""
    results = []
    for pool in (F.max_pool2d, argmax_max_pool):
        x = Tensor(x_data, requires_grad=True)
        out = pool(x, k, stride)
        if not results:
            g = rng.normal(size=out.shape)
        out.backward(g)
        results.append((out.data, x.grad))
    (out, dx), (ref_out, ref_dx) = results
    assert_bitwise_equal(out, ref_out)
    assert_bitwise_equal(dx, ref_dx)


class TestDisjointMaxPoolParity:
    """Over non-overlapping windows (stride == k) max-pool equals the
    argmax oracle bitwise, in output and input gradient."""

    def _check(self, x_data, k, rng):
        check_max_pool_against_oracle(x_data, k, k, rng)

    @pytest.mark.parametrize("layout", ["nchw", "channels_last"])
    @pytest.mark.parametrize("k,h,w", [(2, 8, 6), (2, 7, 9), (3, 9, 6),
                                       (3, 10, 8)])
    def test_random(self, rng, k, h, w, layout):
        x = rng.normal(size=(3, 4, h, w))
        if layout == "channels_last":
            x = _channels_last(x)
        self._check(x, k, rng)

    @pytest.mark.parametrize("layout", ["nchw", "channels_last"])
    @pytest.mark.parametrize("k", [2, 3])
    def test_all_equal_windows(self, rng, k, layout):
        x = np.full((2, 3, 2 * k + 1, 3 * k), 0.5)
        if layout == "channels_last":
            x = _channels_last(x)
        self._check(x, k, rng)

    @pytest.mark.parametrize("k", [2, 3])
    def test_equal_pair_at_every_tap_position(self, rng, k):
        """One window per tap pair (p, q), p < q: both hold the max."""
        pairs = [(p, q) for p in range(k * k) for q in range(p + 1, k * k)]
        x = rng.uniform(-1.0, 0.0, size=(1, 2, k, k * len(pairs)))
        for col, (p, q) in enumerate(pairs):
            for tap in (p, q):
                i, j = divmod(tap, k)
                x[:, :, i, col * k + j] = 1.0
        self._check(x, k, rng)
        self._check(_channels_last(x), k, rng)

    @pytest.mark.parametrize("k", [2, 3])
    def test_signed_zeros_after_relu(self, rng, k):
        """ReLU leaves -0.0 for negative inputs; ±0 ties route like
        argmax (first tap), whatever the zeros' signs."""
        raw = rng.normal(-0.5, 1.0, size=(2, 3, 3 * k + 1, 3 * k))
        x = Tensor(_channels_last(raw)).relu().data
        assert np.signbit(x).any() and (x == 0).mean() > 0.5
        self._check(x, k, rng)

    @pytest.mark.parametrize("layout", ["nchw", "channels_last"])
    @pytest.mark.parametrize("k", [2, 3])
    def test_nan_windows_route_like_argmax(self, rng, k, layout):
        """A NaN tap is the window max and the first NaN takes the
        gradient, as with ``argmax``; NaN-free windows are unaffected."""
        x = rng.normal(size=(2, 3, 3 * k, 3 * k))
        x[0, 0, 0, 0] = np.nan                    # first tap
        x[0, 1, k - 1, k - 1] = np.nan            # last tap
        x[1, 2, 1, 0] = x[1, 2, 1, 1] = np.nan    # two NaNs, one window
        x[1, 0, k:2 * k, k:2 * k] = np.nan        # all-NaN window
        if layout == "channels_last":
            x = _channels_last(x)
        self._check(x, k, rng)

    def test_truncated_edge_gets_zero_gradient(self):
        x = Tensor(np.arange(35.0).reshape(1, 1, 5, 7), requires_grad=True)
        F.max_pool2d(x, 2).sum().backward()
        assert x.grad.shape == (1, 1, 5, 7)
        assert not x.grad[0, 0, 4].any() and not x.grad[0, 0, :, 6].any()
        assert x.grad.sum() == 6

    def test_public_op_never_folds_through_col2im(self, rng, monkeypatch):
        def forbidden(*args):
            raise AssertionError("max-pool took the argmax/col2im path")

        monkeypatch.setattr(F, "_flat_pool_windows", forbidden)
        monkeypatch.setattr(F, "_fold_windows", forbidden)
        x = Tensor(rng.normal(size=(2, 3, 6, 6)), requires_grad=True)
        for k, stride in [(2, 2), (3, 3), (3, 2), (1, 2)]:
            F.max_pool2d(x, k, stride).sum().backward()


class TestMaxPoolSweep:
    """One max-pool path for every window size and stride: bitwise the
    argmax oracle, forward and backward, on both kernel sets."""

    @staticmethod
    def _case(rng):
        """One random (input, k, stride): rounded, ReLU'd or NaN-laced
        values (ties, signed zeros, NaNs), NCHW or channels-last."""
        k, stride = (int(v) for v in rng.integers(1, 5, size=2))
        h, w = (int(v) for v in rng.integers(k, k + 3 * stride + 1, size=2))
        x = rng.normal(-0.3, 1.0, size=(2, 3, h, w))
        kind = rng.integers(3)
        if kind == 0:
            x = np.round(x)                   # ties; -0.0 from (-0.5, 0)
        elif kind == 1:
            x = Tensor(np.round(x, 1)).relu().data   # -0.0 per negative
        else:
            x[rng.random(x.shape) < 0.1] = np.nan
        if rng.random() < 0.5:
            x = _channels_last(x)
        return x, k, stride

    @pytest.mark.parametrize("kernels", ["production", "reference"])
    def test_seeded_sweep(self, swap_kernels, kernels):
        if kernels == "reference":
            swap_kernels(ReferenceBackend())
        rng = make_rng(19)
        for _ in range(400):
            x, k, stride = self._case(rng)
            check_max_pool_against_oracle(x, k, stride, rng)

    @pytest.mark.parametrize("k,stride", [(2, 2), (2, 1)])
    def test_positive_zero_beats_later_negative_zeros(self, rng, k, stride):
        """Window ``[+0.0, -0.0, -0.0, -0.0]``: the max is the first
        tap's ``+0.0`` and it takes the gradient."""
        x = np.full((1, 1, 2, 2), -0.0)
        x[0, 0, 0, 0] = 0.0
        out = F.max_pool2d(Tensor(x), k, stride).data
        assert out.shape == (1, 1, 1, 1) and not np.signbit(out).any()
        check_max_pool_against_oracle(x, k, stride, rng)


class TestLinear:
    def test_values(self, rng):
        x = rng.normal(size=(4, 5))
        w = rng.normal(size=(3, 5))
        b = rng.normal(size=3)
        out = F.linear(Tensor(x), Tensor(w), Tensor(b))
        np.testing.assert_allclose(out.data, x @ w.T + b)

    def test_gradcheck(self):
        gradcheck(lambda ts: (F.linear(ts[0], ts[1], ts[2]) ** 2).sum(),
                  [(3, 4), (2, 4), (2,)])


class TestBatchNorm:
    def test_training_normalises(self, rng):
        x = rng.normal(3.0, 2.0, size=(8, 4, 5, 5))
        gamma = Tensor(np.ones(4), requires_grad=True)
        beta = Tensor(np.zeros(4), requires_grad=True)
        rmean, rvar = np.zeros(4), np.ones(4)
        out = F.batch_norm2d(Tensor(x), gamma, beta, rmean, rvar,
                             training=True)
        np.testing.assert_allclose(out.data.mean(axis=(0, 2, 3)),
                                   np.zeros(4), atol=1e-10)
        np.testing.assert_allclose(out.data.std(axis=(0, 2, 3)),
                                   np.ones(4), atol=1e-3)

    def test_running_stats_updated(self, rng):
        x = rng.normal(5.0, 1.0, size=(16, 2, 4, 4))
        rmean, rvar = np.zeros(2), np.ones(2)
        F.batch_norm2d(Tensor(x), Tensor(np.ones(2)), Tensor(np.zeros(2)),
                       rmean, rvar, training=True, momentum=1.0)
        np.testing.assert_allclose(rmean, x.mean(axis=(0, 2, 3)), atol=1e-10)

    def test_eval_uses_running_stats(self, rng):
        x = rng.normal(size=(4, 2, 3, 3))
        rmean = np.array([1.0, -1.0])
        rvar = np.array([4.0, 9.0])
        out = F.batch_norm2d(Tensor(x), Tensor(np.ones(2)),
                             Tensor(np.zeros(2)), rmean, rvar,
                             training=False, eps=0.0)
        expected = (x - rmean.reshape(1, 2, 1, 1)) / \
            np.sqrt(rvar.reshape(1, 2, 1, 1))
        np.testing.assert_allclose(out.data, expected)

    def test_eval_gradcheck(self, rng):
        rmean = rng.normal(size=3)
        rvar = rng.uniform(0.5, 2.0, size=3)
        gradcheck(
            lambda ts: (F.batch_norm2d(ts[0], ts[1], ts[2], rmean, rvar,
                                       training=False) ** 2).sum(),
            [(2, 3, 4, 3), (3,), (3,)])

    @pytest.mark.parametrize("affine_grad", [True, False])
    @pytest.mark.parametrize("layout", ["nchw", "channels_last"])
    @pytest.mark.parametrize("shape", [(4, 5, 6, 3), (3, 2, 1, 1)])
    def test_eval_primitive_matches_composed_chain(self, rng, shape, layout,
                                                   affine_grad):
        """Eval BN equals the composed ``((x - mean) * (1/std)) * gamma +
        beta`` graph bit for bit: out, dx, dgamma and dbeta."""
        c = shape[1]
        x_data = rng.normal(size=shape)
        if layout == "channels_last":
            x_data = _channels_last(x_data)
        gamma_data, beta_data = rng.normal(size=c), rng.normal(size=c)
        rmean, rvar = rng.normal(size=c), rng.uniform(0.1, 3.0, size=c)
        g = rng.normal(size=shape)

        def run(bn):
            x = Tensor(x_data, requires_grad=True)
            gamma = Tensor(gamma_data, requires_grad=affine_grad)
            beta = Tensor(beta_data, requires_grad=affine_grad)
            out = bn(x, gamma, beta)
            out.backward(g)
            return out.data, x.grad, gamma.grad, beta.grad

        def composed(x, gamma, beta):
            mean = rmean.reshape(1, c, 1, 1)
            std = np.sqrt(rvar.reshape(1, c, 1, 1) + 1e-5)
            x_hat = (x - mean) * (1.0 / std)
            return x_hat * gamma.reshape(1, c, 1, 1) + beta.reshape(1, c, 1, 1)

        got = run(lambda x, gm, bt: F.batch_norm2d(x, gm, bt, rmean, rvar,
                                                   training=False))
        want = run(composed)
        for a, b in zip(got, want):
            if b is None:
                assert a is None
            else:
                assert a.tobytes() == b.tobytes()
        assert (got[2] is None) == (not affine_grad)

    @pytest.mark.parametrize("mode", ["frozen_gamma", "no_grad",
                                      "gamma_grad"])
    @pytest.mark.parametrize("layout", ["nchw", "channels_last"])
    def test_eval_single_buffer_is_bitwise_and_leaves_x(self, rng, layout,
                                                        mode):
        """With ``gamma`` frozen or the tape off, ``out`` is built in the
        ``x_hat`` buffer; either way it equals the composed graph bit
        for bit, never aliases or writes ``x``, and with ``gamma``
        requiring grad ``dgamma`` is the composed graph's."""
        shape, c = (3, 4, 5, 2), 4
        x_data = rng.normal(size=shape)
        x_data.flat[::5] = -0.0
        if layout == "channels_last":
            x_data = _channels_last(x_data)
        before = x_data.tobytes()
        gamma_data, beta_data = rng.normal(size=c), rng.normal(size=c)
        rmean, rvar = rng.normal(size=c), rng.uniform(0.1, 3.0, size=c)
        g = rng.normal(size=shape)

        def composed(x, gamma, beta):
            inv_std = 1.0 / np.sqrt(rvar.reshape(1, c, 1, 1) + 1e-5)
            x_hat = (x - rmean.reshape(1, c, 1, 1)) * inv_std
            return (x_hat * gamma.reshape(1, c, 1, 1)
                    + beta.reshape(1, c, 1, 1))

        def run(bn):
            x = Tensor(x_data, requires_grad=True)
            gamma = Tensor(gamma_data, requires_grad=mode == "gamma_grad")
            beta = Tensor(beta_data, requires_grad=True)
            if mode == "no_grad":
                with no_grad():
                    out = bn(x, gamma, beta)
                assert not out.requires_grad
            else:
                out = bn(x, gamma, beta)
                out.backward(g)
            return out.data, gamma.grad

        got, dgamma = run(lambda x, gm, bt: F.batch_norm2d(
            x, gm, bt, rmean, rvar, training=False))
        want, dgamma_want = run(composed)
        assert got.tobytes() == want.tobytes()
        assert not np.shares_memory(got, x_data)
        assert x_data.tobytes() == before
        if mode == "gamma_grad":
            assert dgamma.tobytes() == dgamma_want.tobytes()
        else:
            assert dgamma is None

    def test_eval_unfreezing_gamma_after_forward_fails_loudly(self, rng):
        """The single-buffer forward kept no ``x_hat``, so ``dgamma``
        cannot be computed later."""
        x = Tensor(rng.normal(size=(2, 3, 2, 2)), requires_grad=True)
        gamma = Tensor(np.ones(3))
        out = F.batch_norm2d(x, gamma, Tensor(np.zeros(3)), np.zeros(3),
                             np.ones(3), training=False)
        gamma.requires_grad = True
        with pytest.raises(RuntimeError, match="frozen"):
            out.sum().backward()

    def test_gradcheck_gamma_beta(self, rng):
        x = rng.normal(size=(4, 2, 3, 3))
        rmean, rvar = np.zeros(2), np.ones(2)
        gradcheck(
            lambda ts: (F.batch_norm2d(Tensor(x), ts[0], ts[1], rmean.copy(),
                                       rvar.copy(), training=True) ** 2).sum(),
            [(2,), (2,)])


class TestDropout:
    def test_identity_in_eval(self, rng):
        x = Tensor(rng.normal(size=(4, 4)))
        assert F.dropout(x, 0.5, training=False) is x

    def test_identity_at_p0(self, rng):
        x = Tensor(rng.normal(size=(4, 4)))
        assert F.dropout(x, 0.0, training=True) is x

    def test_invalid_p(self):
        with pytest.raises(ValueError):
            F.dropout(Tensor(np.ones(3)), 1.0, training=True)

    def test_scaling_preserves_expectation(self):
        x = Tensor(np.ones((200, 200)))
        out = F.dropout(x, 0.5, training=True,
                        rng=make_rng(0))
        assert abs(out.data.mean() - 1.0) < 0.02

    def test_mask_backward(self):
        x = Tensor(np.ones((10, 10)), requires_grad=True)
        out = F.dropout(x, 0.5, training=True, rng=make_rng(1))
        out.sum().backward()
        np.testing.assert_allclose(x.grad, out.data)


class TestSoftmaxAndLosses:
    def test_log_softmax_normalises(self, rng):
        x = rng.normal(size=(5, 7))
        out = F.log_softmax(Tensor(x))
        np.testing.assert_allclose(np.exp(out.data).sum(axis=1),
                                   np.ones(5), atol=1e-12)

    def test_log_softmax_stable_for_large_inputs(self):
        x = Tensor(np.array([[1000.0, 1000.1]]))
        out = F.log_softmax(x)
        assert np.all(np.isfinite(out.data))

    def test_log_softmax_gradcheck(self):
        gradcheck(lambda ts: (F.log_softmax(ts[0]) ** 2).sum(), [(3, 4)])

    def test_softmax_sums_to_one(self, rng):
        out = F.softmax(Tensor(rng.normal(size=(4, 6))))
        np.testing.assert_allclose(out.data.sum(axis=1), np.ones(4))

    def test_cross_entropy_value(self):
        logits = np.log(np.array([[0.7, 0.2, 0.1], [0.1, 0.8, 0.1]]))
        loss = F.cross_entropy(Tensor(logits), np.array([0, 1]))
        expected = -(np.log(0.7) + np.log(0.8)) / 2
        np.testing.assert_allclose(loss.item(), expected)

    def test_cross_entropy_gradient(self, rng):
        x = rng.normal(size=(4, 5))
        labels = np.array([0, 1, 2, 3])
        t = Tensor(x, requires_grad=True)
        F.cross_entropy(t, labels).backward()
        expected = numeric_grad(
            lambda: float(F.cross_entropy(Tensor(t.data), labels).data),
            t.data)
        np.testing.assert_allclose(t.grad, expected, atol=1e-6)

    def test_cross_entropy_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            F.cross_entropy(Tensor(np.zeros((2, 3, 4))), np.array([0, 1]))

    def test_mse_loss(self):
        pred = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        target = Tensor(np.array([0.0, 0.0]))
        loss = F.mse_loss(pred, target)
        np.testing.assert_allclose(loss.item(), 2.5)
        loss.backward()
        np.testing.assert_allclose(pred.grad, [1.0, 2.0])
