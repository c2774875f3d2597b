"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.loaders import Dataset
from repro.nn.layers import Flatten, Linear, ReLU, Sequential
from repro.nn.module import Module
from repro.nn.tensor import Tensor
from repro.utils.rng import make_rng


@pytest.fixture(autouse=True)
def _isolated_artifact_cache(tmp_path, monkeypatch):
    """Point the artifact cache at a per-test temp store.

    Without this, any test that deploys through the default store
    (``.cache/repro``) would see artifacts left by earlier runs — a
    second ``pytest`` invocation would cache-hit stages whose side
    effects (counters, spans) the test asserts on. Tests that exercise
    env resolution or disabling override the variable themselves.
    """
    monkeypatch.setenv("REPRO_CACHE", str(tmp_path / "artifact-cache"))


@pytest.fixture
def swap_kernels(monkeypatch):
    """Make :func:`repro.backend.get_backend` serve another kernel set.

    Returns ``swap(kernels)``, which installs ``kernels`` (e.g. the
    :class:`~repro.backend.reference.ReferenceBackend` oracle) as the
    instance every library hot path dispatches to, and returns it. The
    production instance comes back when the test ends. Worker processes
    do not see the swap, so tests using it run with ``jobs=1``.
    """
    import repro.backend

    def swap(kernels):
        monkeypatch.setattr(repro.backend, "_KERNELS", kernels)
        return kernels

    return swap


@pytest.fixture
def tiny_workload_specs(monkeypatch):
    """Swap the experiment registry for two seconds-fast workloads.

    ``tiny-digits`` (LeNet) and ``tiny-cifar`` (a BN residual net) run
    the real :func:`~repro.eval.experiments.build_workload` path — data
    stage, training, workload stage — on 40 samples and one epoch.
    Returns the swapped-in spec table.
    """
    from repro.eval import experiments
    from repro.eval.experiments import WorkloadSpec
    from repro.nn.models import LeNet
    from repro.nn.models.resnet import resnet_tiny

    specs = {
        "tiny-digits": {"quick": WorkloadSpec(
            "tiny-digits", "digits", LeNet, 40, epochs=1, batch_size=16)},
        "tiny-cifar": {"quick": WorkloadSpec(
            "tiny-cifar", "cifar", resnet_tiny, 40, epochs=1,
            batch_size=16)},
    }
    monkeypatch.setattr(experiments, "_SPECS", specs)
    return specs


@pytest.fixture
def synthesis_calls(monkeypatch):
    """Spy on dataset synthesis: a list that records the name of every
    ``synthetic_digits`` / ``synthetic_cifar`` call the workload
    builder makes."""
    from repro.eval import experiments

    calls = []
    for name in ("synthetic_digits", "synthetic_cifar"):
        def spy(*args, _real=getattr(experiments, name), _name=name,
                **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)
        monkeypatch.setattr(experiments, name, spy)
    return calls


@pytest.fixture
def rng():
    return make_rng(0)


class TinyMLP(Module):
    """A 2-layer MLP on 8x8 inputs — fast enough for deployment tests."""

    def __init__(self, rng=None, hidden: int = 24, num_classes: int = 4):
        super().__init__()
        self.net = Sequential(
            Flatten(),
            Linear(64, hidden, rng=rng),
            ReLU(),
            Linear(hidden, num_classes, rng=rng),
        )

    def forward(self, x: Tensor) -> Tensor:
        return self.net(x)


def make_blob_dataset(n: int = 240, num_classes: int = 4,
                      seed: int = 0) -> Dataset:
    """A separable 8x8 'image' dataset: one bright quadrant per class."""
    rng = make_rng(seed)
    labels = rng.integers(0, num_classes, size=n)
    images = rng.normal(0.1, 0.05, size=(n, 1, 8, 8))
    for i, lbl in enumerate(labels):
        r, c = divmod(int(lbl), 2)
        images[i, 0, r * 4:(r + 1) * 4, c * 4:(c + 1) * 4] += 0.8
    return Dataset(np.clip(images, 0, 1), labels.astype(np.int64))


@pytest.fixture
def blob_data():
    return make_blob_dataset()


@pytest.fixture
def tiny_mlp():
    return TinyMLP(rng=make_rng(1))


@pytest.fixture
def trained_tiny_mlp(blob_data):
    """A TinyMLP trained to high accuracy on the blob task."""
    from repro.nn.optim import Adam
    from repro.nn.trainer import train_classifier

    model = TinyMLP(rng=make_rng(1))
    opt = Adam(model.parameters(), lr=5e-3, weight_decay=1e-4)
    train_classifier(model, blob_data, epochs=12, batch_size=32,
                     optimizer=opt, rng=make_rng(2))
    return model
