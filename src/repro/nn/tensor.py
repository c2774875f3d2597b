"""Reverse-mode automatic differentiation on numpy arrays.

This is the substrate that replaces PyTorch for this reproduction: a
:class:`Tensor` wraps an ``ndarray`` and records the operations applied
to it so that :meth:`Tensor.backward` can accumulate gradients into every
tensor created with ``requires_grad=True``.

The design is a classic define-by-run tape:

* every differentiable op returns a new ``Tensor`` holding references to
  its parent tensors and a ``_backward`` closure that, given the output
  gradient, adds the correct contribution to each parent's ``.grad``;
* ``backward()`` topologically sorts the graph and runs the closures in
  reverse order, releasing each node's gradient and closure as soon as
  the closure has run. A graph is backpropagated once (PyTorch's
  ``retain_graph=False``): only leaves keep their ``.grad``, and a
  second ``backward()`` through a released node raises.

Inside :func:`no_grad` (a per-thread switch) ops return plain leaf
tensors and record no tape; forward-only paths (evaluation, serving,
calibration, BatchNorm recalibration) run under it.

Only the ops the paper's workloads need are implemented (dense and
convolutional arithmetic, reductions, shape manipulation, elementwise
nonlinearities); each one's gradient is verified against central finite
differences in the test suite.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import (Callable, Iterable, Iterator, List, Optional, Sequence,
                    Tuple, Union)

import numpy as np

ArrayLike = Union[np.ndarray, float, int, Sequence]


class _GradMode(threading.local):
    """Per-thread tape switch; every thread starts with recording on."""

    enabled = True


_grad_mode = _GradMode()


def is_grad_enabled() -> bool:
    """Whether ops on this thread currently record the autograd tape."""
    return _grad_mode.enabled


@contextmanager
def no_grad() -> Iterator[None]:
    """Stop recording the tape on this thread for the ``with`` block.

    Every op output inside the block is a plain leaf tensor (no parents,
    no backward closure, ``requires_grad`` False), so intermediate
    buffers the backward would have kept are freed as soon as the
    forward moves on. Values are unchanged: the same numpy ops run in
    the same order. The previous state is restored on exit, also when
    the block raises, so blocks nest. Other threads are unaffected.
    """
    previous = _grad_mode.enabled
    _grad_mode.enabled = False
    try:
        yield
    finally:
        _grad_mode.enabled = previous


_RELEASED_MESSAGE = (
    "backward runs once per graph: this graph's saved state was released "
    "by an earlier backward(); rebuild the forward to backpropagate again")


def _released(grad: np.ndarray) -> None:
    """The closure a node holds once :meth:`Tensor.backward` has run it."""
    raise RuntimeError(_RELEASED_MESSAGE)


def _unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` back to ``shape`` after numpy broadcasting.

    When a forward op broadcast an operand from ``shape`` up to the
    output shape, the gradient w.r.t. that operand is the output gradient
    summed over every broadcast axis.
    """
    if grad.shape == shape:
        return grad
    # Sum out prepended axes.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over axes that were size-1 in the original shape.
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A numpy array with an autograd tape.

    Parameters
    ----------
    data:
        Array contents; converted to ``float64`` unless already a float
        dtype (float32 is kept to allow memory-lean training).
    requires_grad:
        Whether gradients should be accumulated into this tensor.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "name")

    def __init__(self, data: ArrayLike, requires_grad: bool = False,
                 _parents: Tuple["Tensor", ...] = (),
                 _backward: Optional[Callable[[np.ndarray], None]] = None,
                 name: Optional[str] = None):
        arr = np.asarray(data)
        if arr.dtype.kind != "f":
            arr = arr.astype(np.float64)
        self.data: np.ndarray = arr
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = bool(requires_grad)
        self._parents = _parents
        self._backward = _backward
        self.name = name

    # ------------------------------------------------------------------
    # basic introspection
    # ------------------------------------------------------------------
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{grad_flag})"

    def item(self) -> float:
        """Return the value of a single-element tensor as a python float."""
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else self._item_error()

    @staticmethod
    def _item_error():
        raise ValueError("item() only valid for single-element tensors")

    def numpy(self) -> np.ndarray:
        """Return the underlying array (shared, not copied)."""
        return self.data

    def zero_grad(self) -> None:
        """Clear any accumulated gradient."""
        self.grad = None

    # ------------------------------------------------------------------
    # graph construction helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _lift(value: ArrayLike) -> "Tensor":
        return value if isinstance(value, Tensor) else Tensor(value)

    def _accumulate(self, grad: np.ndarray, owned: bool = False) -> None:
        """Add ``grad`` into this tensor's ``.grad`` buffer.

        The first write stores ``grad + 0.0`` in a float64 buffer laid
        out like ``self.data``, so the tensor owns its gradient
        (backward closures may hand one array to several parents) and
        later writes add in place. ``+ 0.0`` is bit for bit the sum into
        a zeroed buffer (-0.0 becomes +0.0) in one pass instead of two.
        A closure passes ``owned=True`` for a fresh array nothing else
        references; when that array already has the buffer's dtype,
        shape and strides, the ``+ 0.0`` runs in place and the array
        becomes the buffer, with no second allocation and no copy.
        """
        if self.grad is not None:
            self.grad += grad
            return
        buf = np.empty_like(self.data, dtype=np.float64)
        if (owned and isinstance(grad, np.ndarray) and grad.dtype == buf.dtype
                and grad.shape == buf.shape and grad.strides == buf.strides):
            buf = grad
        self.grad = np.add(grad, 0.0, out=buf)

    @staticmethod
    def _make(data: np.ndarray, parents: Tuple["Tensor", ...],
              backward: Callable[[np.ndarray], None]) -> "Tensor":
        """Create an op output, tracking grads only if some parent does
        and the tape is on (see :func:`no_grad`)."""
        if not (_grad_mode.enabled and any(p.requires_grad for p in parents)):
            return Tensor(data)
        return Tensor(data, requires_grad=True, _parents=parents, _backward=backward)

    # ------------------------------------------------------------------
    # arithmetic
    # ------------------------------------------------------------------
    def __add__(self, other: ArrayLike) -> "Tensor":
        other = self._lift(other)
        out_data = self.data + other.data

        def backward(g: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(g, self.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(g, other.shape))

        return self._make(out_data, (self, other), backward)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        def backward(g: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(-g, owned=True)

        return self._make(-self.data, (self,), backward)

    def __sub__(self, other: ArrayLike) -> "Tensor":
        return self + (-self._lift(other))

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        return self._lift(other) + (-self)

    def __mul__(self, other: ArrayLike) -> "Tensor":
        other = self._lift(other)
        out_data = self.data * other.data

        def backward(g: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(g * other.data, self.shape),
                                 owned=True)
            if other.requires_grad:
                other._accumulate(_unbroadcast(g * self.data, other.shape),
                                  owned=True)

        return self._make(out_data, (self, other), backward)

    __rmul__ = __mul__

    def __truediv__(self, other: ArrayLike) -> "Tensor":
        other = self._lift(other)
        out_data = self.data / other.data

        def backward(g: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(g / other.data, self.shape),
                                 owned=True)
            if other.requires_grad:
                other._accumulate(_unbroadcast(-g * self.data / other.data**2,
                                               other.shape), owned=True)

        return self._make(out_data, (self, other), backward)

    def __rtruediv__(self, other: ArrayLike) -> "Tensor":
        return self._lift(other) / self

    def __pow__(self, exponent: float) -> "Tensor":
        if not np.isscalar(exponent):
            raise TypeError("only scalar exponents are supported")
        out_data = self.data ** exponent

        def backward(g: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(g * exponent * self.data ** (exponent - 1),
                                 owned=True)

        return self._make(out_data, (self,), backward)

    def __matmul__(self, other: ArrayLike) -> "Tensor":
        other = self._lift(other)
        out_data = self.data @ other.data

        def backward(g: np.ndarray) -> None:
            if self.requires_grad:
                ga = g @ np.swapaxes(other.data, -1, -2)
                self._accumulate(_unbroadcast(ga, self.shape), owned=True)
            if other.requires_grad:
                gb = np.swapaxes(self.data, -1, -2) @ g
                other._accumulate(_unbroadcast(gb, other.shape), owned=True)

        return self._make(out_data, (self, other), backward)

    # ------------------------------------------------------------------
    # elementwise nonlinearities
    # ------------------------------------------------------------------
    def exp(self) -> "Tensor":
        out_data = np.exp(self.data)

        def backward(g: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(g * out_data)

        return self._make(out_data, (self,), backward)

    def log(self) -> "Tensor":
        out_data = np.log(self.data)

        def backward(g: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(g / self.data)

        return self._make(out_data, (self,), backward)

    def sqrt(self) -> "Tensor":
        return self ** 0.5

    def relu(self) -> "Tensor":
        mask = self.data > 0
        out_data = self.data * mask

        def backward(g: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(g * mask, owned=True)

        return self._make(out_data, (self,), backward)

    def tanh(self) -> "Tensor":
        out_data = np.tanh(self.data)

        def backward(g: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(g * (1.0 - out_data**2))

        return self._make(out_data, (self,), backward)

    def clip(self, lo: float, hi: float) -> "Tensor":
        """Clamp values to ``[lo, hi]``; gradient is 1 inside, 0 outside."""
        mask = (self.data >= lo) & (self.data <= hi)
        out_data = np.clip(self.data, lo, hi)

        def backward(g: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(g * mask)

        return self._make(out_data, (self,), backward)

    def abs(self) -> "Tensor":
        sign = np.sign(self.data)
        out_data = np.abs(self.data)

        def backward(g: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(g * sign)

        return self._make(out_data, (self,), backward)

    # ------------------------------------------------------------------
    # reductions
    # ------------------------------------------------------------------
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(g: np.ndarray) -> None:
            if not self.requires_grad:
                return
            grad = np.asarray(g)
            if axis is not None and not keepdims:
                axes = axis if isinstance(axis, tuple) else (axis,)
                axes = tuple(a % self.ndim for a in axes)
                for a in sorted(axes):
                    grad = np.expand_dims(grad, a)
            self._accumulate(np.broadcast_to(grad, self.shape).copy())

        return self._make(out_data, (self,), backward)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.size
        else:
            axes = axis if isinstance(axis, tuple) else (axis,)
            count = int(np.prod([self.shape[a % self.ndim] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def var(self, axis=None, keepdims: bool = False) -> "Tensor":
        """Biased (population) variance, matching BatchNorm's convention."""
        mu = self.mean(axis=axis, keepdims=True)
        sq = (self - mu) ** 2
        return sq.mean(axis=axis, keepdims=keepdims)

    def max(self, axis=None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.max(axis=axis, keepdims=keepdims)

        def backward(g: np.ndarray) -> None:
            if not self.requires_grad:
                return
            expanded = self.data.max(axis=axis, keepdims=True)
            mask = (self.data == expanded)
            # Split gradient equally among ties (matches numpy semantics
            # closely enough for pooling-style uses).
            counts = mask.sum(axis=axis, keepdims=True)
            grad = np.asarray(g)
            if axis is not None and not keepdims:
                axes = axis if isinstance(axis, tuple) else (axis,)
                axes = tuple(a % self.ndim for a in axes)
                for a in sorted(axes):
                    grad = np.expand_dims(grad, a)
            self._accumulate(mask * grad / counts)

        return self._make(out_data, (self,), backward)

    # ------------------------------------------------------------------
    # shape manipulation
    # ------------------------------------------------------------------
    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        out_data = self.data.reshape(shape)
        in_shape = self.shape

        def backward(g: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(g.reshape(in_shape))

        return self._make(out_data, (self,), backward)

    def transpose(self, *axes) -> "Tensor":
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        if not axes:
            axes = tuple(reversed(range(self.ndim)))
        out_data = self.data.transpose(axes)
        inverse = np.argsort(axes)

        def backward(g: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(g.transpose(inverse))

        return self._make(out_data, (self,), backward)

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def __getitem__(self, idx) -> "Tensor":
        out_data = self.data[idx]

        def backward(g: np.ndarray) -> None:
            if self.requires_grad:
                full = np.zeros_like(self.data, dtype=np.float64)
                np.add.at(full, idx, g)
                self._accumulate(full)

        return self._make(out_data, (self,), backward)

    # ------------------------------------------------------------------
    # backward pass
    # ------------------------------------------------------------------
    def backward(self, grad: Optional[np.ndarray] = None) -> None:
        """Run reverse-mode autodiff from this tensor.

        ``grad`` defaults to 1 for scalar outputs (the loss). Gradients
        accumulate into leaves: call :meth:`zero_grad` (or an
        optimizer's ``zero_grad``) between backward passes.

        Each non-leaf node's ``.grad`` and backward closure (with the
        buffers it saved: im2col columns, ReLU masks, BN's ``x_hat``)
        are released as soon as the closure has run, so the pass frees
        memory as it goes; node values and parent links stay until the
        graph itself is dropped. A graph therefore backpropagates once:
        a second ``backward()`` that reaches a released node raises
        ``RuntimeError`` before any gradient is written.
        """
        if not self.requires_grad:
            raise RuntimeError("backward() on a tensor that does not require grad")
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError("grad must be specified for non-scalar outputs")
            grad = np.ones_like(self.data, dtype=np.float64)
        else:
            grad = np.asarray(grad, dtype=np.float64)
            if grad.shape != self.shape:
                raise ValueError(
                    f"grad shape {grad.shape} does not match tensor shape {self.shape}")

        # Topological order over the graph reachable from self.
        topo: List[Tensor] = []
        visited = set()
        stack: List[Tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            if node._backward is _released:
                raise RuntimeError(_RELEASED_MESSAGE)
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))

        self._accumulate(grad)
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)
                node.grad = None
                node._backward = _released

    # ------------------------------------------------------------------
    # comparisons (non-differentiable, return raw arrays)
    # ------------------------------------------------------------------
    def argmax(self, axis=None) -> np.ndarray:
        return self.data.argmax(axis=axis)


def stack(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    """Stack tensors along a new axis, differentiable in each input."""
    tensors = list(tensors)
    out_data = np.stack([t.data for t in tensors], axis=axis)

    def backward(g: np.ndarray) -> None:
        pieces = np.split(g, len(tensors), axis=axis)
        for t, piece in zip(tensors, pieces):
            if t.requires_grad:
                t._accumulate(np.squeeze(piece, axis=axis))

    return Tensor._make(out_data, tuple(tensors), backward)


def concatenate(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    """Concatenate tensors along an existing axis, differentiable."""
    tensors = list(tensors)
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(g: np.ndarray) -> None:
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                sl = [slice(None)] * g.ndim
                sl[axis] = slice(lo, hi)
                t._accumulate(g[tuple(sl)])

    return Tensor._make(out_data, tuple(tensors), backward)


def as_tensor(value: ArrayLike) -> Tensor:
    """Coerce ``value`` to a :class:`Tensor` (no copy for Tensors)."""
    return value if isinstance(value, Tensor) else Tensor(value)
