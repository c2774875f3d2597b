"""Compute-backend dispatch: one registry for all kernel sets.

Every arithmetic hot path in the library — the im2col / col2im /
pooling-window kernels behind :mod:`repro.nn.functional` and the
bit-serial crossbar VMM behind :class:`repro.xbar.engine.CrossbarEngine`
— routes through the backend resolved here, so kernel implementations
can be swapped without touching the paper-faithful model:

.. code-block:: python

    from repro.backend import get_backend, use_backend

    backend = get_backend()              # the active default
    backend = get_backend("reference")   # an explicit kernel set
    with use_backend("reference"):       # temporary override (tests)
        ...

Selection, in precedence order:

1. an explicit ``name`` argument (or per-engine ``backend=`` field);
2. :func:`set_default_backend` (the CLI ``--backend`` flag);
3. the ``REPRO_BACKEND`` environment variable;
4. the built-in default, ``vectorized``.

Two kernel sets ship with the library: ``vectorized`` (the default)
and ``reference``, the original loop-based code, which serves as the
correctness oracle: every registered backend must match it within float
rounding (asserted by ``tests/backend/``). Third parties add kernel
sets with :func:`register_backend`.
"""

from __future__ import annotations

import os
import threading
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, Optional, Tuple

from repro.backend.base import EngineOperands, KernelBackend

#: Environment variable naming the default backend.
ENV_VAR = "REPRO_BACKEND"

#: The backend used when nothing else selects one.
BUILTIN_DEFAULT = "vectorized"

_LOCK = threading.Lock()
_FACTORIES: Dict[str, Callable[[], KernelBackend]] = {}
_INSTANCES: Dict[str, KernelBackend] = {}
_DEFAULT_OVERRIDE: Optional[str] = None


def register_backend(name: str, factory: Callable[[], KernelBackend],
                     replace: bool = False) -> None:
    """Register a kernel-set ``factory`` under ``name``.

    The factory is called at most once (instances are cached and shared
    process-wide — backends are stateless by contract). Registering an
    existing name raises unless ``replace=True``.
    """
    with _LOCK:
        if name in _FACTORIES and not replace:
            raise ValueError(f"backend {name!r} is already registered")
        _FACTORIES[name] = factory
        _INSTANCES.pop(name, None)


def available_backends() -> Tuple[str, ...]:
    """The registered backend names, sorted."""
    with _LOCK:
        return tuple(sorted(_FACTORIES))


def default_backend_name() -> str:
    """The name :func:`get_backend` resolves when called without one.

    Precedence: :func:`set_default_backend` override, then the
    ``REPRO_BACKEND`` environment variable, then ``vectorized``.
    """
    if _DEFAULT_OVERRIDE is not None:
        return _DEFAULT_OVERRIDE
    return os.environ.get(ENV_VAR, "").strip() or BUILTIN_DEFAULT


def set_default_backend(name: Optional[str]) -> None:
    """Set (or with ``None`` clear) the process-wide default backend.

    Validates eagerly so a typo fails at the CLI flag, not deep inside
    the first forward pass.
    """
    global _DEFAULT_OVERRIDE
    if name is not None:
        _resolve(name)                   # raises on unknown names
    _DEFAULT_OVERRIDE = name


def _resolve(name: str) -> KernelBackend:
    """Instantiate (or fetch the cached instance of) backend ``name``."""
    with _LOCK:
        instance = _INSTANCES.get(name)
        if instance is not None:
            return instance
        factory = _FACTORIES.get(name)
        if factory is None:
            known = ", ".join(sorted(_FACTORIES)) or "<none>"
            raise ValueError(
                f"unknown compute backend {name!r} — registered backends: "
                f"{known} (select via {ENV_VAR} or --backend)")
        instance = _INSTANCES[name] = factory()  # fork-ok — per-process instance cache; backends are stateless
        return instance


def get_backend(name: Optional[str] = None) -> KernelBackend:
    """The kernel set to dispatch to.

    ``name=None`` resolves the current default (override, then
    ``REPRO_BACKEND``, then ``vectorized``); unknown names raise
    ``ValueError`` listing what is registered.
    """
    return _resolve(name if name is not None else default_backend_name())


@contextmanager
def use_backend(name: str) -> Iterator[KernelBackend]:
    """Temporarily make ``name`` the default backend (tests, sweeps)."""
    global _DEFAULT_OVERRIDE
    previous = _DEFAULT_OVERRIDE
    backend = _resolve(name)
    _DEFAULT_OVERRIDE = name
    try:
        yield backend
    finally:
        _DEFAULT_OVERRIDE = previous


def _register_builtins() -> None:
    """Register the kernel sets that ship with the library."""
    from repro.backend.reference import ReferenceBackend
    from repro.backend.vectorized import VectorizedBackend

    register_backend(ReferenceBackend.name, ReferenceBackend, replace=True)
    register_backend(VectorizedBackend.name, VectorizedBackend, replace=True)


_register_builtins()

__all__ = [
    "ENV_VAR", "BUILTIN_DEFAULT", "EngineOperands", "KernelBackend",
    "available_backends", "default_backend_name", "get_backend",
    "register_backend", "set_default_backend", "use_backend",
]
