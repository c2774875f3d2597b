"""The process-wide kernel set: one shared instance that counts its
traffic per kernel in the obs registry."""

import numpy as np
import pytest

from repro.backend import get_backend
from repro.backend.vectorized import VectorizedBackend


class TestRegistry:
    def test_instances_are_cached(self):
        """Every call returns the same process-wide instance."""
        assert get_backend() is get_backend()
        assert isinstance(get_backend(), VectorizedBackend)


class TestSelection:
    def test_builtin_default(self):
        """The vectorized kernels are the only set; none is picked by name."""
        assert get_backend().name == "vectorized"
        with pytest.raises(TypeError):
            get_backend("reference")


class TestKernelCounters:
    def test_dispatch_increments_per_kernel_counter(self):
        import repro.obs as obs
        from repro.obs import metrics

        obs.enable()
        try:
            obs.reset()
            x = np.arange(2 * 3 * 4 * 4, dtype=np.float64).reshape(2, 3, 4, 4)
            get_backend().im2col(x, 2, 2, stride=1, pad=0)
            snap = metrics.REGISTRY.snapshot()
            assert snap["counters"].get("backend.vectorized.im2col") == 1
        finally:
            obs.reset()
            obs.disable()
