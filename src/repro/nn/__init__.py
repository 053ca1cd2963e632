"""A small, NumPy-only neural-network framework.

This is the substrate the detector (:mod:`repro.detection`) and the AdaScale
scale regressor (:mod:`repro.core.regressor`) are built on.  It provides
layers with explicit ``forward`` / ``backward`` methods, parameter containers,
SGD with momentum, learning-rate schedules, and the usual loss functions.

The framework follows the guidance of the ml-systems coding guides: all inner
loops are expressed as vectorised NumPy operations (``im2col`` + matrix
multiplication for convolutions) so the Python interpreter is never the
bottleneck.
"""

from repro.nn.functional import bilinear_resize, log_softmax, sigmoid, softmax
from repro.nn.layers import (
    AvgPool2d,
    BatchNorm2d,
    Conv2d,
    Dropout,
    Flatten,
    GlobalAvgPool2d,
    LeakyReLU,
    Linear,
    MaxPool2d,
    Module,
    ReLU,
    Sequential,
    inference_mode,
    is_inference,
)
from repro.nn.losses import (
    mse_loss,
    smooth_l1_loss,
    softmax_cross_entropy,
)
from repro.nn.optim import SGD, Adam, MultiStepLR
from repro.nn.tensor import Parameter

__all__ = [
    "Adam",
    "AvgPool2d",
    "BatchNorm2d",
    "Conv2d",
    "Dropout",
    "Flatten",
    "GlobalAvgPool2d",
    "LeakyReLU",
    "Linear",
    "MaxPool2d",
    "Module",
    "MultiStepLR",
    "Parameter",
    "ReLU",
    "SGD",
    "Sequential",
    "bilinear_resize",
    "inference_mode",
    "is_inference",
    "log_softmax",
    "mse_loss",
    "sigmoid",
    "smooth_l1_loss",
    "softmax",
    "softmax_cross_entropy",
]
