"""The vectorized kernel set — the library's production kernels.

Same arithmetic as :mod:`repro.backend.reference`, restructured for
throughput:

* im2col is one ``np.take`` gather over the flattened channels-last
  padded image, driven by a read-only index cached per geometry
  (:func:`_im2col_index`) instead of a python loop over kernel
  positions; a conv's channels-last output feeds the next im2col
  through a contiguous read. Pooling windows are a zero-copy,
  read-only ``as_strided`` view;
* col2im folds into a channels-last buffer over cache-sized blocks of
  images, so each block of columns is read from cache on all but the
  first of its kh*kw passes;
* with an ideal ADC every term of the integer-domain output is linear
  in the quantized inputs, so the analog contraction, the Eq. 7 offset
  add, the complement post-processing and the ISAAC zero-point
  correction fold into one cached matrix
  (:attr:`EngineOperands.packed_ideal_weights`) — the whole crossbar
  VMM is a single ``xq @ P`` GEMM;
* with a finite ADC the bit-serial VMM stacks all input bit planes of
  a cache-sized block of input rows and runs the analog contraction of
  every (bit, offset group) cycle as one batched GEMM against the
  group-reshaped cell tensor. The ADC turns the currents into integer
  codes in place, and the shift-and-add over cell significances and
  input bits runs on those codes in the integer domain, where float64
  is exact: one GEMV over cells, one small contraction over bits, the
  complement sign per group and a single multiply by the ADC LSB. The
  digital offset add and complement post-processing then use the
  precomputed per-group input-sum gain matrix
  (:attr:`EngineOperands.offset_gain`): one (N, k) @ (k, cols) matmul
  replaces the per-group broadcast/where pass.

Agreement with ``reference`` (up to float rounding) is asserted by the
equivalence suite in ``tests/backend/``.

This package is the one sanctioned home of strided-window tricks in the
library (lint rule R7): consumers go through
:func:`repro.backend.get_backend`, never through ``as_strided``.
"""

from __future__ import annotations

import functools
from typing import Tuple

import numpy as np
from numpy.lib.stride_tricks import as_strided

from repro.backend.base import EngineOperands, KernelBackend


#: Target size of one block of columns in :meth:`VectorizedBackend._col2im`:
#: small enough that a block stays cache-resident across the kh*kw
#: strided passes that fold it.
COL2IM_BLOCK_BYTES = 1 << 20

#: Target size of the ADC currents one block of input rows produces in
#: the finite-ADC :meth:`VectorizedBackend._engine_vmm`: small enough
#: that the currents stay cache-resident from the GEMM that makes them
#: through the in-place ADC conversion and the shift-and-add.
ENGINE_ADC_BLOCK_BYTES = 1 << 20


def _window_view(x: np.ndarray, kh: int, kw: int,
                 stride: int) -> Tuple[np.ndarray, int, int]:
    """A zero-copy (N, C, kh, kw, OH, OW) sliding-window view of ``x``
    (N, C, H, W) in any memory layout; returns ``(view, OH, OW)``.

    The view aliases ``x`` with overlapping strides — callers must never
    write through it.
    """
    n, c, h, w = x.shape
    oh = (h - kh) // stride + 1
    ow = (w - kw) // stride + 1
    sn, sc, sh, sw = x.strides
    view = as_strided(x, shape=(n, c, kh, kw, oh, ow),
                      strides=(sn, sc, sh, sw, sh * stride, sw * stride))
    return view, oh, ow


@functools.lru_cache(maxsize=64)
def _im2col_index(hp: int, wp: int, c: int, kh: int, kw: int,
                  stride: int) -> np.ndarray:
    """The read-only (OH*OW, C*kh*kw) ``intp`` gather index of im2col
    over one flattened channels-last (Hp, Wp, C) padded image.

    Entry ``[i*OW + j, (ch*kh + a)*kw + b]`` is the flat offset of
    padded pixel ``(i*stride + a, j*stride + b)``, channel ``ch``. It
    depends only on the geometry, so it is built once per geometry
    (a network has a handful) and shared by every call; read-only, so
    no caller can corrupt a cached copy, and a forked worker's
    inherited cache is as valid as its own.
    """
    oh = (hp - kh) // stride + 1
    ow = (wp - kw) // stride + 1
    rows = np.arange(oh, dtype=np.intp)[:, None] * (stride * wp)
    pixels = (rows + np.arange(ow, dtype=np.intp) * stride) * c   # (OH, OW)
    taps = (np.arange(kh, dtype=np.intp)[:, None] * wp
            + np.arange(kw, dtype=np.intp)) * c                   # (kh, kw)
    channels = np.arange(c, dtype=np.intp)
    idx = (pixels[:, :, None, None, None]
           + channels[:, None, None]
           + taps).reshape(oh * ow, c * kh * kw)
    idx.flags.writeable = False
    return idx


def _channels_last_padded(x: np.ndarray, pad: int) -> np.ndarray:
    """``x`` (N, C, H, W) as a channels-last (N, H+2p, W+2p, C) array:
    a view when ``pad`` is 0, else one zero-bordered copy (a contiguous
    read when ``x`` already lives in channels-last memory)."""
    xt = x.transpose(0, 2, 3, 1)
    if pad == 0:
        return xt
    n, h, w, c = xt.shape
    xp = np.zeros((n, h + 2 * pad, w + 2 * pad, c), dtype=x.dtype)
    xp[:, pad:pad + h, pad:pad + w] = xt
    return xp


class VectorizedBackend(KernelBackend):
    """Gather im2col, strided-view pooling windows and batched
    bit-serial VMM kernels."""

    name = "vectorized"

    # ------------------------------------------------------------------
    # im2col / col2im / pooling windows
    # ------------------------------------------------------------------
    def _im2col(self, x: np.ndarray, kh: int, kw: int, stride: int,
                pad: int) -> Tuple[np.ndarray, int, int]:
        """Unfold ``x`` (N, C, H, W) into the crossbar-row matrix
        (N*OH*OW, C*kh*kw) as one gather: each flattened channels-last
        padded image is indexed by :func:`_im2col_index`, so every
        element is a plain copy (bitwise, NaN and signed zeros
        included) and the output is written in row order in one pass.
        """
        xp = _channels_last_padded(x, pad)
        n, hp, wp, c = xp.shape
        oh = (hp - kh) // stride + 1
        ow = (wp - kw) // stride + 1
        idx = _im2col_index(hp, wp, c, kh, kw, stride)
        # A contiguous (N, Hp*Wp*C) image view when pad > 0 or ``x`` is
        # channels-last in memory; one layout copy otherwise.
        cols = np.take(xp.reshape(n, hp * wp * c), idx, axis=1)
        return cols.reshape(n * oh * ow, c * kh * kw), oh, ow

    def _col2im(self, cols: np.ndarray, x_shape: Tuple[int, int, int, int],
                kh: int, kw: int, stride: int, pad: int) -> np.ndarray:
        """Fold a crossbar-row matrix (N*OH*OW, C*kh*kw) back into an
        image of shape ``x_shape``, accumulating overlaps (im2col
        adjoint); returns an (N, C, H, W) view over channels-last
        memory.

        Overlapping windows make the adjoint a scatter-add, which a
        strided view cannot express safely (the same output element
        would be written through several aliases). The fold is kh*kw
        strided adds into a channels-last padded buffer, run over
        blocks of :data:`COL2IM_BLOCK_BYTES` worth of images so each
        block of columns is read from cache on every pass but the first.
        """
        n, c, h, w = x_shape
        hp, wp = h + 2 * pad, w + 2 * pad
        oh = (hp - kh) // stride + 1
        ow = (wp - kw) // stride + 1
        cols = cols.reshape(n, oh, ow, c, kh, kw)
        x = np.zeros((n, hp, wp, c), dtype=cols.dtype)
        block = max(1, COL2IM_BLOCK_BYTES // max(cols[:1].nbytes, 1))
        for lo in range(0, n, block):
            x_block, cols_block = x[lo:lo + block], cols[lo:lo + block]
            for i in range(kh):
                i_end = i + stride * oh
                for j in range(kw):
                    j_end = j + stride * ow
                    x_block[:, i:i_end:stride, j:j_end:stride] += (
                        cols_block[..., i, j])
        return x[:, pad:pad + h, pad:pad + w].transpose(0, 3, 1, 2)

    def _pool_windows(self, x: np.ndarray, k: int,
                      stride: int) -> np.ndarray:
        """View ``x`` (N, C, H, W) as windows (N, C, k, k, OH, OW): a
        zero-copy, read-only strided view in ``x``'s own memory layout."""
        view, _, _ = _window_view(x, k, k, stride)
        view.flags.writeable = False
        return view

    # ------------------------------------------------------------------
    # batched bit-serial crossbar VMM
    # ------------------------------------------------------------------
    def _engine_vmm(self, xq: np.ndarray, op: EngineOperands) -> np.ndarray:
        """Batched crossbar VMM: quantized inputs (N, rows) ->
        integer-domain outputs (N, cols).

        With an ideal ADC the bit-serial accumulation telescopes
        exactly (``sum_b 2^b x_bit = x``) and the digital terms are
        linear too, so the whole VMM is one GEMM against the cached
        packed matrix. A finite-resolution ADC must convert each
        (input bit, offset group) current separately;
        :func:`_adc_readout` does that over cache-sized blocks of
        stacked bit planes, one batched GEMM per block.
        """
        xqf = xq.astype(np.float64)
        if op.adc.ideal:
            return xqf @ op.packed_ideal_weights

        z = _adc_readout(xq, op)
        # Digital offset + complement folded into one matmul (Eq. 7),
        # then the ISAAC zero-point correction.
        z += op.group_input_sums(xqf) @ op.offset_gain
        total_x = xqf.sum(axis=1, keepdims=True)
        return z - op.weight_zero_point * total_x


def _adc_block_rows(op: EngineOperands) -> int:
    """Input rows per block of :func:`_adc_readout`: as many as keep the
    block's currents within :data:`ENGINE_ADC_BLOCK_BYTES`, at least 1."""
    per_row = op.n_groups * op.input_bits * op.cols * op.n_cells * 8
    return max(1, ENGINE_ADC_BLOCK_BYTES // per_row)


def _adc_readout(xq: np.ndarray, op: EngineOperands) -> np.ndarray:
    """The analog term of a finite-ADC VMM: quantized inputs (N, rows)
    -> the complement-signed, shift-and-added ADC readout (N, cols).

    Per block of input rows, the bit planes of the grouped inputs stack
    into a (k, block*bits, m) drive, and one batched GEMM against the
    (k, m, cols*cells) cell tensor gives every cycle's cell-column
    current. :meth:`repro.xbar.adc.ADC.codes` turns them into integer
    codes in place. Codes times significance times ``2^bit`` are exact
    integers in float64, so the shift-and-add (a GEMV over cells, then
    a contraction over bits) and the per-group complement sign are
    exact in any order, and the LSB is applied once at the end.
    """
    n = xq.shape[0]
    k, m, bits = op.n_groups, op.granularity, op.input_bits
    cols, n_cells = op.cols, op.n_cells
    cells = op.cells_grouped.reshape(k, m, cols * n_cells)
    # Only the low ``bits`` bits of a code are read, and the smallest
    # unsigned type that holds them keeps those bits exactly.
    plane_t = np.min_scalar_type((1 << bits) - 1)
    xg = np.ascontiguousarray(
        op.grouped_inputs(xq.astype(plane_t)).transpose(1, 0, 2))  # (k, N, m)
    shifts = np.arange(bits, dtype=plane_t)[:, None]
    bit_weights = np.ldexp(1.0, np.arange(bits))                    # 2^bit
    block = _adc_block_rows(op)
    z = np.empty((n, cols))
    for lo in range(0, n, block):
        hi = min(lo + block, n)
        nb = hi - lo
        drive = ((xg[:, lo:hi, None, :] >> shifts) & 1).astype(np.float64)
        codes = np.matmul(drive.reshape(k, nb * bits, m), cells)
        op.adc.codes(codes, out=codes)           # (k, nb*bits, cols*cells)
        by_bit = codes.reshape(-1, n_cells) @ op.significance
        by_group = np.matmul(bit_weights, by_bit.reshape(k * nb, bits, cols))
        signed = np.einsum("knc,kc->nc", by_group.reshape(k, nb, cols),
                           op.sign)
        np.multiply(signed, op.adc.step, out=z[lo:hi])
    return z
