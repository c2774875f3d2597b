"""The library's compute kernels: one process-wide kernel set.

Every arithmetic hot path in the library — the im2col / col2im /
pooling-window kernels behind :mod:`repro.nn.functional` and the
bit-serial crossbar VMM behind :class:`repro.xbar.engine.CrossbarEngine`
— calls the kernel set returned by :func:`get_backend`, the
:class:`~repro.backend.vectorized.VectorizedBackend` instance. Callers
resolve it at call time rather than binding it at import, so one
instance serves (and can be instrumented for) the whole process:

.. code-block:: python

    from repro.backend import get_backend

    cols, oh, ow = get_backend().im2col(x, kh, kw, stride, pad)

The loop-based :class:`~repro.backend.reference.ReferenceBackend`
implements the same :class:`KernelBackend` contract and is the
correctness oracle: the test suite constructs it directly and checks
the production kernels against it (``tests/backend/``), and swaps it in
behind :func:`get_backend` for end-to-end parity checks. Nothing in the
library selects it.
"""

from __future__ import annotations

from repro.backend.base import EngineOperands, KernelBackend
from repro.backend.vectorized import VectorizedBackend

_KERNELS: KernelBackend = VectorizedBackend()


def get_backend() -> KernelBackend:
    """The kernel set every library hot path dispatches to."""
    return _KERNELS


__all__ = ["EngineOperands", "KernelBackend", "get_backend"]
