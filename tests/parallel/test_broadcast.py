"""Grid-scoped broadcast: one pickle per worker, shared-memory arrays.

Covers the encode/install round-trip, the ``MIN_SHM_BYTES`` diversion
threshold, the plain-pickle fallback when shared memory is unavailable,
the error an unpicklable callable raises, parent-side segment release,
and the end-to-end contract: a process grid whose callable closes over a
multi-megabyte array still matches the serial run bit-for-bit.
"""

import functools
import os
import pickle

import numpy as np
import pytest

from repro.obs import metrics as obs_metrics
from repro.parallel import broadcast
from repro.parallel.broadcast import (MIN_SHM_BYTES, broadcast_fn,
                                      encode_broadcast, install_broadcast,
                                      release_segments, shm_enabled)
from repro.parallel.executor import run_trials
from repro.parallel.worker import TrialTask, run_trial_task
from repro.utils.rng import make_rng

#: Big enough to cross the shared-memory diversion threshold.
BIG = np.arange(MIN_SHM_BYTES // 8 + 16, dtype=np.float64)


def lookup_trial(payload, trial, rng):
    """Module-level (picklable) trial fn closing over a large array."""
    return float(payload[trial % payload.size]) + float(rng.normal())


def lookup_then_call(payload, hook, trial, rng):
    """Like :func:`lookup_trial`, but also closes over ``hook``."""
    return hook(lookup_trial(payload, trial, rng))


def _new_segments(before):
    """``psm_*`` shared-memory names created since ``before``."""
    return {n for n in set(os.listdir("/dev/shm")) - before
            if n.startswith("psm_")}


def _fail_shared_memory(monkeypatch):
    """Make every shared-memory segment creation raise."""
    from multiprocessing import shared_memory

    def boom(*args, **kwargs):
        raise OSError("no shm for you")

    monkeypatch.setattr(shared_memory, "SharedMemory", boom)


@pytest.fixture
def clean_slot():
    """Reset the worker-side broadcast slot and segments around a test."""
    yield
    broadcast._BROADCAST_FN = None
    for shm in broadcast._WORKER_SEGMENTS:
        try:
            shm.close()
        except Exception:  # noqa: BLE001 — already released
            pass
    broadcast._WORKER_SEGMENTS.clear()


class TestEncodeInstall:
    def test_roundtrip_with_shared_memory(self, clean_slot):
        if not shm_enabled():
            pytest.skip("shared memory unavailable on this platform")
        fn = functools.partial(lookup_trial, BIG)
        blob, segments = encode_broadcast(fn)
        try:
            assert len(segments) == 1             # BIG was diverted
            assert len(blob) < BIG.nbytes // 100  # blob carries no bytes
            install_broadcast(blob)
            installed = broadcast_fn()
            assert installed is not None
            assert installed(3, make_rng(0)) == fn(3, make_rng(0))
            # The installed partial's array is the shm segment, not a copy.
            assert np.array_equal(installed.args[0], BIG)
        finally:
            release_segments(segments)

    def test_small_payloads_skip_shared_memory(self, clean_slot):
        fn = functools.partial(lookup_trial, np.arange(8.0))
        blob, segments = encode_broadcast(fn)
        assert segments == []
        install_broadcast(blob)
        assert broadcast_fn() is not None

    def test_release_is_idempotent(self):
        if not shm_enabled():
            pytest.skip("shared memory unavailable on this platform")
        _, segments = encode_broadcast(functools.partial(lookup_trial, BIG))
        release_segments(segments)
        release_segments(segments)                # second call: no-op
        assert segments == []


class TestKillSwitchAndFallback:
    """Broadcast failure paths: without shared memory the arrays ride the
    pickle blob, and an unpicklable callable raises after releasing the
    segments it already made. There is no kill switch any more; the
    class keeps its name so the test ids stay stable."""

    def test_shm_failure_falls_back_to_plain_pickle(self, monkeypatch,
                                                    clean_slot):
        _fail_shared_memory(monkeypatch)
        blob, segments = encode_broadcast(functools.partial(lookup_trial,
                                                            BIG))
        assert segments == []
        assert len(blob) > BIG.nbytes             # arrays ride the blob
        assert pickle.loads(blob)(0, make_rng(0)) is not None
        install_broadcast(blob)
        assert broadcast_fn()(1, make_rng(1)) is not None

    def test_unpicklable_callable_raises_and_releases(self):
        if not shm_enabled() or not os.path.isdir("/dev/shm"):
            pytest.skip("shared memory unavailable on this platform")
        before = set(os.listdir("/dev/shm"))
        # BIG pickles (into a segment) before the lambda fails.
        fn = functools.partial(lookup_then_call, BIG, lambda v: v)
        with pytest.raises(Exception):
            encode_broadcast(fn)
        assert _new_segments(before) == set()


class TestWorkerContract:
    def test_stripped_task_without_broadcast_faults(self, clean_slot):
        broadcast._BROADCAST_FN = None
        payload = run_trial_task(TrialTask(index=0, seed=0))
        assert not payload.ok
        assert "no grid broadcast" in payload.error

    def test_stripped_task_uses_installed_fn(self, clean_slot):
        blob, _ = encode_broadcast(functools.partial(lookup_trial,
                                                     np.arange(32.0)))
        install_broadcast(blob)
        payload = run_trial_task(TrialTask(index=5, seed=0))
        assert payload.ok and isinstance(payload.result, float)


class TestEndToEnd:
    def grid(self, jobs):
        fn = functools.partial(lookup_trial, BIG)
        return run_trials(fn, n_trials=4, seed=123, jobs=jobs).results()

    def test_process_grid_matches_serial(self, obs_on):
        serial = self.grid(jobs=1)
        par = self.grid(jobs=2)
        assert par == serial
        assert obs_metrics.REGISTRY.counter_value("parallel.broadcasts") >= 1
        payload = obs_metrics.REGISTRY.counter_value(
            "parallel.broadcast_payload_bytes")
        assert 0 < payload < BIG.nbytes           # arrays were diverted
        if shm_enabled():
            assert obs_metrics.REGISTRY.counter_value(
                "parallel.broadcast_shm_bytes") >= BIG.nbytes

    def test_process_grid_matches_serial_without_shm(self, monkeypatch,
                                                     obs_on):
        _fail_shared_memory(monkeypatch)
        assert self.grid(jobs=2) == self.grid(jobs=1)
        assert obs_metrics.REGISTRY.counter_value(
            "parallel.broadcast_shm_bytes") == 0
        assert obs_metrics.REGISTRY.counter_value(
            "parallel.broadcast_payload_bytes") > BIG.nbytes

    def test_no_leaked_segments(self):
        if not shm_enabled():
            pytest.skip("shared memory unavailable on this platform")
        before = set(os.listdir("/dev/shm")) if os.path.isdir("/dev/shm") \
            else None
        self.grid(jobs=2)
        if before is not None:
            assert _new_segments(before) == set()
