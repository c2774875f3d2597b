"""Graph release in ``Tensor.backward`` against a retain-everything walker.

``Tensor.backward`` drops each non-leaf node's ``.grad`` and backward
closure as soon as the closure has run. The oracle here is the walker it
replaced: the same topological order and the same closures, with every
gradient and closure kept until the graph is dropped. On the workloads
that backpropagate (a crossbar PWT step, a train-mode step and the
deployer's gradients stage) the leaf gradients must be byte-identical
under both walkers, -0.0 and NaN included, and after the releasing
walker no non-leaf keeps a gradient or its saved buffers.
"""

import gc
import weakref
from typing import Dict, List, Optional

import numpy as np
import pytest

from repro.core import DeployConfig, Deployer
from repro.core.pwt import offset_parameters
from repro.data.loaders import Dataset
from repro.data.synthetic import synthetic_cifar
from repro.device.cell import SLC
from repro.nn import functional as F
from repro.nn.models import resnet18_slim
from repro.nn.module import Module
from repro.nn.tensor import Tensor
from repro.utils.rng import make_rng

BATCH = 32


def retain_graph_backward(root: Tensor,
                          grad: Optional[np.ndarray] = None) -> None:
    """The backward walker before graph release: every node keeps its
    ``.grad`` and closure after the pass."""
    if grad is None:
        grad = np.ones_like(root.data, dtype=np.float64)
    topo: List[Tensor] = []
    visited = set()
    stack = [(root, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in visited:
                stack.append((parent, False))
    root._accumulate(grad)
    for node in reversed(topo):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)


def graph_nodes(root: Tensor) -> List[Tensor]:
    """Every tensor reachable from ``root`` through parent links."""
    seen: Dict[int, Tensor] = {}
    stack = [root]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen[id(node)] = node
            stack.extend(node._parents)
    return list(seen.values())


def grad_bytes(model: Module) -> Dict[str, Optional[bytes]]:
    return {name: None if p.grad is None else p.grad.tobytes()
            for name, p in model.named_parameters()}


def loss_on_batch(model: Module, data: Dataset) -> Tensor:
    return F.cross_entropy(model(Tensor(data.images[:BATCH])),
                           data.labels[:BATCH])


def assert_walkers_agree(model: Module, data: Dataset) -> None:
    """Leaf gradients of one step, byte for byte, under both walkers."""
    model.zero_grad()
    loss_on_batch(model, data).backward()
    released = grad_bytes(model)
    model.zero_grad()
    retain_graph_backward(loss_on_batch(model, data))
    retained = grad_bytes(model)
    model.zero_grad()
    assert any(g is not None for g in released.values())
    assert released == retained


@pytest.fixture(scope="module")
def cifar() -> Dataset:
    images, labels = synthetic_cifar(96, rng=0)
    return Dataset(images, labels)


@pytest.fixture(scope="module")
def deployer(cifar) -> Deployer:
    """The seeded ResNet-18 slim that pwt-resnet18 deploys, at m=16."""
    model = resnet18_slim(base_width=8, rng=make_rng(1))
    cfg = DeployConfig.from_method("vawo*+pwt", sigma=0.5, granularity=16,
                                   cell=SLC, grad_batches=2,
                                   grad_batch_size=BATCH)
    return Deployer(model, cifar, cfg, rng=0)


@pytest.fixture
def pwt_model(deployer) -> Module:
    """A programmed crossbar ResNet with everything but the offsets
    frozen, as :func:`repro.core.pwt.run_pwt` trains it."""
    model = deployer.program(rng=5, run_pwt_tuning=False)
    model.eval()
    offsets = {id(p) for p in offset_parameters(model)}
    for p in model.parameters():
        if id(p) not in offsets:
            p.requires_grad = False
    return model


class TestLeafGradsMatchRetainingWalker:
    def test_crossbar_pwt_step(self, pwt_model, cifar):
        assert_walkers_agree(pwt_model, cifar)

    def test_train_mode_step(self, cifar):
        model = resnet18_slim(base_width=8, rng=make_rng(1))
        model.train()
        assert_walkers_agree(model, cifar)

    def test_deployer_gradients_stage(self, deployer, monkeypatch):
        released = deployer._compute_gradients()
        monkeypatch.setattr(Tensor, "backward", retain_graph_backward)
        retained = deployer._compute_gradients()
        assert released.keys() == retained.keys()
        for key in released:
            assert released[key].tobytes() == retained[key].tobytes(), key


class TestRelease:
    def test_non_leaves_keep_no_grad_or_closure(self, pwt_model, cifar):
        loss = loss_on_batch(pwt_model, cifar)
        nodes = graph_nodes(loss)
        inner = [n for n in nodes if n._backward is not None]
        assert len(inner) > 100
        loss.backward()
        assert all(n.grad is None for n in inner)
        with pytest.raises(RuntimeError, match="once per graph"):
            inner[0]._backward(np.zeros_like(inner[0].data))
        for p in offset_parameters(pwt_model):
            assert p.grad is not None and np.isfinite(p.grad).all()

    def test_conv_saved_columns_freed_during_backward(self, pwt_model,
                                                      cifar):
        loss = loss_on_batch(pwt_model, cifar)
        convs = [n for n in graph_nodes(loss) if n._backward is not None
                 and n._backward.__qualname__.startswith("conv2d.")]
        assert convs
        closure = convs[0]._backward
        cells = dict(zip(closure.__code__.co_freevars, closure.__closure__))
        cols = weakref.ref(cells["cols"].cell_contents)
        del closure, cells, convs
        gc.collect()
        assert cols() is not None
        loss.backward()
        assert cols() is None
        assert all(p.grad is not None
                   for p in offset_parameters(pwt_model))
