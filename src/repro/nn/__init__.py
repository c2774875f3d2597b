"""A from-scratch numpy deep-learning framework.

This subpackage substitutes for PyTorch in the reproduction: tensors
with reverse-mode autograd, the layers/losses/optimizers needed to train
LeNet / ResNet-18 / VGG-16, and the models themselves.
"""

from repro.nn import functional
from repro.nn.layers import (AvgPool2d, BatchNorm2d, Conv2d, Dropout,
                             Flatten, GlobalAvgPool2d, Identity, Linear,
                             MaxPool2d, ReLU, Sequential)
from repro.nn.losses import CrossEntropyLoss, MSELoss
from repro.nn.module import Module, Parameter
from repro.nn.optim import SGD, Adam, StepLR
from repro.nn.tensor import Tensor, as_tensor, concatenate, no_grad, stack

__all__ = [
    "Tensor", "as_tensor", "stack", "concatenate", "no_grad",
    "Module", "Parameter", "functional",
    "Linear", "Conv2d", "BatchNorm2d", "ReLU", "MaxPool2d", "AvgPool2d",
    "GlobalAvgPool2d", "Flatten", "Dropout", "Identity", "Sequential",
    "CrossEntropyLoss", "MSELoss",
    "SGD", "Adam", "StepLR",
]
