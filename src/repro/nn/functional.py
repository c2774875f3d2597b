"""Differentiable neural-network operations on :class:`~repro.nn.tensor.Tensor`.

Convolution, pooling and eval-mode batch normalisation are implemented
as autograd primitives (with hand-written backward passes) because
composing them from elementwise ops would be prohibitively slow in
numpy. A convolution is one BLAS GEMM per pass over the channels-last
crossbar-row matrix, and its output lives in channels-last memory
behind an NCHW view. The window kernels themselves (im2col / col2im /
pooling windows) are *not* implemented here: they belong to the
library's kernel set (:func:`repro.backend.get_backend`), resolved on
every call so the tests can run the same autograd graph on the
loop-based reference oracle. Max pooling takes its k*k taps straight
from the pooling-window view and never folds through col2im; eval-mode
batch norm needs no window kernel and runs per-channel arithmetic on
the (N, H, W, C) view of its input. Both are bitwise equal to the
argmax-gather / composed paths they replace. Everything here is
validated against finite differences in ``tests/nn``.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.backend import get_backend
from repro.nn.tensor import Tensor, is_grad_enabled
from repro.utils.contracts import check_shapes
from repro.utils.rng import make_rng


# ----------------------------------------------------------------------
# im2col / col2im (dispatched to the kernel set)
# ----------------------------------------------------------------------
def im2col(x: np.ndarray, kh: int, kw: int, stride: int,
           pad: int) -> Tuple[np.ndarray, int, int]:
    """Unfold ``x`` (N, C, H, W) into columns (N, C*kh*kw, OH*OW).

    A transposed view of the kernel set's crossbar-row matrix
    (N*OH*OW, C*kh*kw). :func:`conv2d` uses that matrix directly.
    """
    cols, oh, ow = get_backend().im2col(x, kh, kw, stride, pad)
    n = x.shape[0]
    return cols.reshape(n, oh * ow, -1).transpose(0, 2, 1), oh, ow


def col2im(cols: np.ndarray, x_shape: Tuple[int, int, int, int], kh: int,
           kw: int, stride: int, pad: int) -> np.ndarray:
    """Fold columns (N, C*kh*kw, OH*OW) back into an image of shape
    ``x_shape``, accumulating overlaps (:func:`im2col` adjoint);
    dispatched to the kernel set."""
    rows = cols.transpose(0, 2, 1).reshape(-1, cols.shape[1])
    return get_backend().col2im(rows, x_shape, kh, kw, stride, pad)


# ----------------------------------------------------------------------
# convolution
# ----------------------------------------------------------------------
@check_shapes("(n,c,_,_),(f,c,kh,kw)->(n,f,_,_)", arg_names=["x", "weight"])
def conv2d(x: Tensor, weight: Tensor, bias: Optional[Tensor] = None,
           stride: int = 1, padding: int = 0) -> Tensor:
    """2-D convolution (cross-correlation), NCHW layout.

    ``weight`` has shape (F, C, kh, kw). One GEMM per pass over the
    im2col crossbar-row matrix ``cols`` (N*OH*OW, C*kh*kw): the
    forward is ``cols @ W`` with ``W = weight.reshape(F, -1).T``, and
    the output is an (N, F, OH, OW) view over channels-last
    (N, OH, OW, F) memory. The backward reuses ``cols``.
    """
    backend = get_backend()
    n = x.shape[0]
    f, _, kh, kw = weight.shape
    cols, oh, ow = backend.im2col(x.data, kh, kw, stride, padding)
    w2 = weight.data.reshape(f, -1).T                       # (K, F) view
    out = cols @ w2                                         # (N*OH*OW, F)
    if bias is not None:
        out = out + bias.data
    x_shape = x.shape

    def backward(g: np.ndarray) -> None:
        g2 = g.transpose(0, 2, 3, 1).reshape(-1, f)         # (N*OH*OW, F)
        if bias is not None and bias.requires_grad:
            bias._accumulate(g2.sum(axis=0), owned=True)
        if weight.requires_grad:
            weight._accumulate((cols.T @ g2).T.reshape(weight.shape))
        if x.requires_grad:
            x._accumulate(backend.col2im(g2 @ w2.T, x_shape, kh, kw,
                                         stride, padding), owned=True)

    parents = (x, weight) if bias is None else (x, weight, bias)
    out = out.reshape(n, oh, ow, f).transpose(0, 3, 1, 2)
    return Tensor._make(out, parents, backward)


# ----------------------------------------------------------------------
# pooling
# ----------------------------------------------------------------------
def _pool_windows(x: np.ndarray, k: int, stride: int) -> np.ndarray:
    """View ``x`` (N, C, H, W) as windows (N, C, k, k, OH, OW);
    dispatched to the kernel set."""
    return get_backend().pool_windows(x, k, stride)


def _flat_pool_windows(x: np.ndarray, k: int, stride: int) -> np.ndarray:
    """The pooling windows of ``x`` as (N, C, k*k, OH, OW), taps in
    window order (a copy when the windows are a view)."""
    windows = _pool_windows(x, k, stride)
    n, c, _, _, oh, ow = windows.shape
    return windows.reshape(n, c, k * k, oh, ow)


def _fold_windows(dwin: np.ndarray, x_shape: Tuple[int, int, int, int],
                  k: int, stride: int) -> np.ndarray:
    """Fold per-window gradients (N, OH, OW, C, k*k) back onto the image
    through col2im: each channel's k*k window is one
    kh x kw kernel tap set of the crossbar-row matrix."""
    n, oh, ow, c, kk = dwin.shape
    return get_backend().col2im(dwin.reshape(n * oh * ow, c * kk), x_shape,
                                k, k, stride, 0)


@check_shapes("(n,c,_,_)->(n,c,_,_)", arg_names=["x"])
def max_pool2d(x: Tensor, kernel_size: int, stride: Optional[int] = None) -> Tensor:
    """Max pooling with square windows. ``stride`` defaults to ``kernel_size``.

    The forward is an ``np.maximum`` chain over the k*k taps of the
    pooling windows, in window order, with each new tap as the *first*
    operand: ``np.maximum`` returns its second operand on ties, so the
    running max keeps the earliest of equal taps (``+0.0`` over a later
    ``-0.0``) and NaNs propagate. Each tap is a strided view of ``x``,
    so the output keeps ``x``'s memory layout. The backward adds ``g``
    into each tap's slice of a zero gradient under a first-max mask
    (``+0.0`` elsewhere, which leaves every sum's bits alone): a tap
    takes the gradient when it holds the window max (or is NaN) and no
    earlier tap did. This is ``argmax``'s rule for ties and NaNs, so
    forward and backward are bitwise those of an argmax gather and its
    col2im scatter-add, for overlapping and disjoint windows alike.
    Rows and columns past the last full window get zero gradient.
    """
    k = kernel_size
    stride = stride or k
    data = x.data
    windows = _pool_windows(data, k, stride)
    oh, ow = windows.shape[-2:]
    taps = [(i, j) for i in range(k) for j in range(k)]
    out = windows[:, :, 0, 0].copy(order="K")
    for i, j in taps[1:]:
        np.maximum(windows[:, :, i, j], out, out=out)

    def backward(g: np.ndarray) -> None:
        if not x.requires_grad:
            return
        dx = np.zeros_like(data, dtype=np.float64)
        taken: Optional[np.ndarray] = None
        for i, j in taps:
            tap = windows[:, :, i, j]
            hit = (tap == out) | np.isnan(tap)
            if taken is None:
                taken = hit
            else:
                hit &= ~taken
                taken |= hit
            dx_tap = dx[:, :, i:i + stride * oh:stride,
                        j:j + stride * ow:stride]
            dx_tap += np.where(hit, g, 0.0)
        x._accumulate(dx, owned=True)

    return Tensor._make(out, (x,), backward)


@check_shapes("(n,c,_,_)->(n,c,_,_)", arg_names=["x"])
def avg_pool2d(x: Tensor, kernel_size: int, stride: Optional[int] = None) -> Tensor:
    """Average pooling with square windows."""
    k = kernel_size
    stride = stride or k
    windows = _flat_pool_windows(x.data, k, stride)
    out = windows.mean(axis=2)
    n, c, oh, ow = out.shape
    x_shape = x.shape

    def backward(g: np.ndarray) -> None:
        if not x.requires_grad:
            return
        share = g.transpose(0, 2, 3, 1)[..., None] / (k * k)
        dwin = np.broadcast_to(share, (n, oh, ow, c, k * k))
        x._accumulate(_fold_windows(dwin.astype(np.float64), x_shape, k,
                                    stride))

    return Tensor._make(out, (x,), backward)


@check_shapes("(n,c,_,_)->(n,c)", arg_names=["x"])
def global_avg_pool2d(x: Tensor) -> Tensor:
    """Mean over the spatial dims, returning (N, C)."""
    return x.mean(axis=(2, 3))


# ----------------------------------------------------------------------
# dense / normalisation / regularisation
# ----------------------------------------------------------------------
def linear(x: Tensor, weight: Tensor, bias: Optional[Tensor] = None) -> Tensor:
    """Affine map ``x @ weight.T + bias``; weight is (out, in)."""
    out = x @ weight.T
    if bias is not None:
        out = out + bias
    return out


def batch_norm2d(x: Tensor, gamma: Tensor, beta: Tensor,
                 running_mean: np.ndarray, running_var: np.ndarray,
                 training: bool, momentum: float = 0.1,
                 eps: float = 1e-5) -> Tensor:
    """Batch normalisation over (N, H, W) per channel.

    Training mode is composed from differentiable primitives; running
    statistics are updated in place (outside the autograd graph). Eval
    mode is the single primitive :func:`_batch_norm_eval`.
    """
    if not training:
        return _batch_norm_eval(x, gamma, beta, running_mean, running_var,
                                eps)
    c = x.shape[1]
    mean = x.mean(axis=(0, 2, 3), keepdims=True)
    var = x.var(axis=(0, 2, 3), keepdims=True)
    running_mean *= (1.0 - momentum)
    running_mean += momentum * mean.data.reshape(c)
    running_var *= (1.0 - momentum)
    running_var += momentum * var.data.reshape(c)
    x_hat = (x - mean) / ((var + eps) ** 0.5)
    return x_hat * gamma.reshape(1, c, 1, 1) + beta.reshape(1, c, 1, 1)


def _batch_norm_eval(x: Tensor, gamma: Tensor, beta: Tensor,
                     running_mean: np.ndarray, running_var: np.ndarray,
                     eps: float) -> Tensor:
    """Eval-mode batch norm ``((x - mean) * (1/std)) * gamma + beta``.

    The same element-wise ops, in the same order, as the composed
    graph, run on the (N, H, W, C) view of ``x`` so every per-channel
    operand broadcasts along the last axis; the output is an NCHW view
    in ``x``'s memory layout. The backward is ``dx = (g * gamma) *
    (1/std)``, and ``dgamma``/``dbeta`` are the same NCHW reductions the
    composed graph runs, computed only for inputs that require grad.

    Only ``dgamma`` reads ``x_hat``; when it will not run (``gamma`` is
    frozen or the tape is off: PWT, serving, evaluation, calibration)
    ``out`` is built inside the ``x_hat`` buffer, one array instead of
    two.
    """
    inv_std = 1.0 / np.sqrt(running_var + eps)
    x_hat = x.data.transpose(0, 2, 3, 1) - running_mean
    x_hat *= inv_std
    saved_x_hat: Optional[np.ndarray] = None
    if gamma.requires_grad and is_grad_enabled():
        saved_x_hat = x_hat
        out = x_hat * gamma.data
    else:
        out = x_hat
        out *= gamma.data
    out += beta.data

    def backward(g: np.ndarray) -> None:
        if x.requires_grad:
            dx = g.transpose(0, 2, 3, 1) * gamma.data
            dx *= inv_std
            x._accumulate(dx.transpose(0, 3, 1, 2), owned=True)
        if gamma.requires_grad:
            if saved_x_hat is None:
                raise RuntimeError("batch-norm gamma was frozen when its "
                                   "forward ran; dgamma needs x_hat")
            gamma._accumulate(
                (g * saved_x_hat.transpose(0, 3, 1, 2)).sum(axis=(0, 2, 3)))
        if beta.requires_grad:
            beta._accumulate(g.sum(axis=(0, 2, 3)))

    return Tensor._make(out.transpose(0, 3, 1, 2), (x, gamma, beta),
                        backward)


def dropout(x: Tensor, p: float, training: bool,
            rng: Optional[np.random.Generator] = None) -> Tensor:
    """Inverted dropout; identity when not training or ``p == 0``."""
    if not training or p <= 0.0:
        return x
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout probability must be in [0, 1), got {p}")
    rng = make_rng(rng)
    mask = (rng.random(x.shape) >= p) / (1.0 - p)

    def backward(g: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(g * mask, owned=True)

    return Tensor._make(x.data * mask, (x,), backward)


# ----------------------------------------------------------------------
# classification heads
# ----------------------------------------------------------------------
def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable log-softmax as an autograd primitive."""
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    out = shifted - log_z
    softmax = np.exp(out)

    def backward(g: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(g - softmax * g.sum(axis=axis, keepdims=True))

    return Tensor._make(out, (x,), backward)


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Softmax via the stable log-softmax primitive."""
    return log_softmax(x, axis=axis).exp()


def cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean cross-entropy between logits (N, K) and integer labels (N,).

    Fused primitive: forward uses log-sum-exp, backward is the classic
    ``(softmax - onehot) / N``.
    """
    labels = np.asarray(labels)
    if labels.ndim != 1 or logits.ndim != 2:
        raise ValueError("cross_entropy expects logits (N, K) and labels (N,)")
    n = logits.shape[0]
    shifted = logits.data - logits.data.max(axis=1, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    log_probs = shifted - log_z
    loss = -log_probs[np.arange(n), labels].mean()
    probs = np.exp(log_probs)

    def backward(g: np.ndarray) -> None:
        if logits.requires_grad:
            d = probs.copy()
            d[np.arange(n), labels] -= 1.0
            logits._accumulate(float(g) * d / n)

    return Tensor._make(np.asarray(loss), (logits,), backward)


def mse_loss(pred: Tensor, target: Tensor) -> Tensor:
    """Mean squared error."""
    diff = pred - target
    return (diff * diff).mean()
