"""Grid-scoped one-shot broadcast of the trial callable to workers.

Every trial of a Monte-Carlo grid runs the *same* callable — typically
a ``partial`` closing over a fully-prepared ``Deployer`` and the test
set, hundreds of kilobytes to megabytes of read-only arrays. Shipping
that with every trial task would make a ``--jobs N`` grid pay one
pickle per trial for identical state.

This module ships it **once per worker** instead:

1. the parent encodes the callable with :func:`encode_broadcast` —
   one pickle blob per grid. Large ``np.ndarray`` payloads (≥ 1 MiB)
   are diverted into ``multiprocessing.shared_memory`` segments where
   available (protocol-5 ``reducer_override``), so even the one-time
   copy per worker becomes a zero-copy attach;
2. ``ProcessPoolExecutor(initializer=...)`` hands the blob to
   :func:`install_broadcast` exactly once per worker process;
3. tasks carry only an index and a seed, and
   :func:`~repro.parallel.worker.run_trial_task` runs the installed
   :func:`broadcast_fn`.

Workers deliberately *unregister* attached segments from their
``resource_tracker`` (or attach with ``track=False`` on Pythons that
support it): the parent owns the segment lifetime and unlinks after
the grid, so a tracked worker copy would double-unlink at exit.
Any failure to create segments falls back to plain pickling; a
callable that does not pickle at all raises from
:func:`encode_broadcast`, which the executor treats as its cue to run
the grid serially.
"""

from __future__ import annotations

import io
import pickle
from typing import Any, List, Optional, Tuple

import numpy as np

from repro.utils.logging import get_logger

logger = get_logger(__name__)

__all__ = ["broadcast_fn", "encode_broadcast", "install_broadcast",
           "release_segments", "shm_enabled"]

#: Arrays at or above this size are diverted into shared memory.
MIN_SHM_BYTES = 1 << 20

#: Worker-side slot the pool initializer fills (one fn per process).
_BROADCAST_FN: Optional[Any] = None

#: Worker-side references that keep attached segments mapped while the
#: broadcast fn is alive (closing them would invalidate its arrays).
_WORKER_SEGMENTS: List[Any] = []


def shm_enabled() -> bool:
    """Whether this platform offers ``multiprocessing.shared_memory``."""
    try:
        from multiprocessing import shared_memory  # noqa: F401
    except ImportError:
        return False
    return True


def _attach_shm_array(name: str, shape: Tuple[int, ...],
                      dtype_str: str) -> np.ndarray:
    """Worker-side reducer: map segment ``name`` as a read-only array.

    Returns a ``shape``-shaped view backed by the shared segment (no
    copy). The segment handle is parked in a module global so the
    mapping outlives this call; tracking is disabled because the parent
    owns the unlink. On Pythons without ``track=`` (< 3.13, where
    attaching spuriously registers with the resource tracker),
    registration is suppressed for the duration of the attach —
    unregistering afterwards instead would clobber the *parent's*
    registration when fork-started workers share its tracker process.
    """
    from multiprocessing import shared_memory
    try:
        shm = shared_memory.SharedMemory(name=name, track=False)
    except TypeError:                      # track= is 3.13+
        from multiprocessing import resource_tracker
        original_register = resource_tracker.register
        resource_tracker.register = lambda *args, **kwargs: None
        try:
            shm = shared_memory.SharedMemory(name=name)
        finally:
            resource_tracker.register = original_register
    _WORKER_SEGMENTS.append(shm)  # fork-ok — worker-local pin keeping attached segments mapped
    array: np.ndarray = np.ndarray(shape, dtype=np.dtype(dtype_str),
                                   buffer=shm.buf)
    array.flags.writeable = False
    return array


class _ShmUnavailable(Exception):
    """A shared-memory segment could not be created or filled."""


class _ShmPickler(pickle.Pickler):
    """Protocol-5 pickler that diverts big arrays into shared memory."""

    def __init__(self, file: io.BytesIO, segments: List[Any]) -> None:
        super().__init__(file, protocol=5)
        self.segments = segments

    def reducer_override(self, obj: Any) -> Any:
        if type(obj) is np.ndarray and obj.nbytes >= MIN_SHM_BYTES:
            source = np.ascontiguousarray(obj)
            try:
                from multiprocessing import shared_memory
                shm = shared_memory.SharedMemory(create=True,
                                                 size=source.nbytes)
                self.segments.append(shm)
                np.ndarray(source.shape, dtype=source.dtype,
                           buffer=shm.buf)[...] = source
            except Exception as exc:       # noqa: BLE001 — any shm failure
                raise _ShmUnavailable(f"{type(exc).__name__}: {exc}") \
                    from exc
            return (_attach_shm_array,
                    (shm.name, source.shape, source.dtype.str))
        return NotImplemented


def encode_broadcast(fn: Any) -> Tuple[bytes, List[Any]]:
    """Pickle ``fn`` once for the whole grid.

    Returns ``(blob, segments)``: the bytes every worker's initializer
    receives and the shared-memory segments the blob references. The
    caller owns the segments and must :func:`release_segments` them
    after the grid (workers only attach). A shared-memory failure falls
    back to a plain pickle with no segments; a callable that does not
    pickle raises (after releasing any segments already created).
    """
    if shm_enabled():
        buffer = io.BytesIO()
        segments: List[Any] = []
        try:
            _ShmPickler(buffer, segments).dump(fn)
            return buffer.getvalue(), segments
        except _ShmUnavailable as exc:
            release_segments(segments)
            logger.warning("shared-memory broadcast failed (%s); "
                           "falling back to plain pickling", exc)
        except BaseException:              # noqa: BLE001 — cleanup, re-raised
            release_segments(segments)
            raise
    return pickle.dumps(fn, protocol=pickle.HIGHEST_PROTOCOL), []


def release_segments(segments: List[Any]) -> None:
    """Close and unlink parent-owned segments (idempotent, best-effort).

    The executor calls this only after the pool's workers have exited.
    """
    for shm in segments:
        for op in (shm.close, shm.unlink):
            try:
                op()
            except Exception:              # noqa: BLE001 — already gone
                pass
    segments.clear()


def install_broadcast(blob: bytes) -> None:
    """Pool-initializer: decode ``blob`` and install the grid callable.

    Runs exactly once per worker process, before any task; attached
    segments stay mapped for the worker's lifetime.
    """
    global _BROADCAST_FN
    _BROADCAST_FN = pickle.loads(blob)  # fork-ok — initializer slot, set once per worker


def broadcast_fn() -> Optional[Any]:
    """The callable installed by :func:`install_broadcast`, if any."""
    return _BROADCAST_FN
