"""Layers with explicit forward / backward passes.

Every layer is a :class:`Module`: calling it runs ``forward`` and caches what
the backward pass needs; ``backward(grad_out)`` accumulates parameter
gradients and returns the gradient with respect to the layer input.  Layers
operate on ``float32`` NCHW tensors (or (N, F) matrices for :class:`Linear`).

Inference mode
--------------
Inside an :func:`inference_mode` block, forward passes become **pure
functions of the parameters**: no activations are cached on layer objects,
:class:`Dropout` is the identity and :class:`BatchNorm2d` reads (and never
updates) its running statistics.  Because nothing is written to shared state,
one module instance can then run forwards from many threads concurrently —
this is what lets the serving worker pool share a single detector instead of
cloning per-worker replicas.

Inference-mode forwards are also **batch-invariant**: row ``n`` of a size-N
batch is bit-identical to running sample ``n`` alone.  Elementwise and
per-sample reductions have this property for free; the matrix products in
:class:`Conv2d` and :class:`Linear` do not (BLAS picks different kernels for
different shapes), so in inference mode they run one GEMM per sample over the
batched ``im2col`` buffer (a 1x1, stride-1, unpadded convolution skips the
unfold and multiplies the sample's own (C, H*W) view).  Each sample's GEMM
writes straight into its slab of the (N, O, H', W') output, so no transpose
copy follows.  That keeps all the Python-dispatch, gather and layout
amortisation of batching while making scale-bucketed micro-batches
bit-identical to sequential single-frame execution.  The eager training path
(one GEMM over the whole batch, columns cached for backward) is the oracle
the inference path is tested against.
"""

from __future__ import annotations

import threading
from typing import Iterator, Mapping

import numpy as np

from repro.nn import init
from repro.nn.im2col import col2im, conv_output_size, im2col
from repro.nn.tensor import Parameter
from repro.profiling import stage

__all__ = [
    "Module",
    "Sequential",
    "Conv2d",
    "Linear",
    "ReLU",
    "LeakyReLU",
    "MaxPool2d",
    "AvgPool2d",
    "GlobalAvgPool2d",
    "BatchNorm2d",
    "Dropout",
    "Flatten",
    "inference_mode",
    "is_inference",
]


_INFERENCE_STATE = threading.local()


def is_inference() -> bool:
    """Whether the calling thread is inside an :func:`inference_mode` block."""
    return getattr(_INFERENCE_STATE, "depth", 0) > 0


class inference_mode:
    """Context manager enabling side-effect-free, batch-invariant forwards.

    Re-entrant and per-thread: each worker thread enters its own block, so
    concurrent inference on a shared module is safe while another thread
    trains a different module normally.
    """

    def __enter__(self) -> "inference_mode":
        _INFERENCE_STATE.depth = getattr(_INFERENCE_STATE, "depth", 0) + 1
        return self

    def __exit__(self, *exc_info: object) -> None:
        _INFERENCE_STATE.depth = getattr(_INFERENCE_STATE, "depth", 1) - 1


class Module:
    """Base class for layers and composite networks.

    Sub-classes implement :meth:`forward` and :meth:`backward`.  Parameters and
    sub-modules assigned as attributes are discovered automatically by
    :meth:`parameters`, :meth:`named_parameters`, :meth:`state_dict` and
    :meth:`load_state_dict`.
    """

    def __init__(self) -> None:
        self.training = True

    # -- execution -------------------------------------------------------
    def forward(self, x: np.ndarray) -> np.ndarray:  # pragma: no cover - interface
        raise NotImplementedError

    def backward(self, grad_out: np.ndarray) -> np.ndarray:  # pragma: no cover - interface
        raise NotImplementedError

    def __call__(self, *args: np.ndarray, **kwargs: np.ndarray) -> np.ndarray:
        return self.forward(*args, **kwargs)

    # -- parameter / module discovery -------------------------------------
    def _children(self) -> Iterator[tuple[str, "Module"]]:
        for name, value in vars(self).items():
            if isinstance(value, Module):
                yield name, value
            elif isinstance(value, (list, tuple)):
                for index, item in enumerate(value):
                    if isinstance(item, Module):
                        yield f"{name}.{index}", item

    def _own_parameters(self) -> Iterator[tuple[str, Parameter]]:
        for name, value in vars(self).items():
            if isinstance(value, Parameter):
                yield name, value
            elif isinstance(value, (list, tuple)):
                for index, item in enumerate(value):
                    if isinstance(item, Parameter):
                        yield f"{name}.{index}", item

    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Parameter]]:
        """Yield ``(qualified_name, Parameter)`` pairs recursively."""
        for name, param in self._own_parameters():
            yield (f"{prefix}{name}", param)
        for child_name, child in self._children():
            yield from child.named_parameters(prefix=f"{prefix}{child_name}.")

    def parameters(self) -> list[Parameter]:
        """All parameters of this module and its sub-modules."""
        return [param for _, param in self.named_parameters()]

    def num_parameters(self) -> int:
        """Total number of scalar parameters."""
        return sum(param.size for param in self.parameters())

    def zero_grad(self) -> None:
        """Reset all accumulated gradients."""
        for param in self.parameters():
            param.zero_grad()

    # -- modes -------------------------------------------------------------
    def train(self, mode: bool = True) -> "Module":
        """Set training mode recursively (affects Dropout / BatchNorm)."""
        self.training = mode
        for _, child in self._children():
            child.train(mode)
        return self

    def eval(self) -> "Module":
        """Set inference mode recursively."""
        return self.train(False)

    # -- serialisation ------------------------------------------------------
    def state_dict(self) -> dict[str, np.ndarray]:
        """Copy of every parameter keyed by its qualified name."""
        return {name: param.data.copy() for name, param in self.named_parameters()}

    def load_state_dict(self, state: Mapping[str, np.ndarray]) -> None:
        """Load parameter values; names and shapes must match exactly."""
        own = dict(self.named_parameters())
        missing = set(own) - set(state)
        unexpected = set(state) - set(own)
        if missing or unexpected:
            raise KeyError(
                f"state dict mismatch: missing={sorted(missing)}, unexpected={sorted(unexpected)}"
            )
        for name, param in own.items():
            value = np.asarray(state[name], dtype=np.float32)
            if value.shape != param.data.shape:
                raise ValueError(
                    f"shape mismatch for {name}: checkpoint {value.shape} vs model {param.data.shape}"
                )
            param.data = value.copy()

    def freeze(self) -> "Module":
        """Mark every parameter as non-trainable (used to freeze the detector)."""
        for param in self.parameters():
            param.requires_grad = False
        return self

    def unfreeze(self) -> "Module":
        """Mark every parameter as trainable."""
        for param in self.parameters():
            param.requires_grad = True
        return self


class Sequential(Module):
    """Runs layers in order; backward runs them in reverse."""

    def __init__(self, *layers: Module) -> None:
        super().__init__()
        self.layers = list(layers)

    def append(self, layer: Module) -> None:
        """Add a layer at the end of the stack."""
        self.layers.append(layer)

    def forward(self, x: np.ndarray) -> np.ndarray:
        for layer in self.layers:
            x = layer.forward(x)
        return x

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        for layer in reversed(self.layers):
            grad_out = layer.backward(grad_out)
        return grad_out

    def __len__(self) -> int:
        return len(self.layers)

    def __getitem__(self, index: int) -> Module:
        return self.layers[index]


class Conv2d(Module):
    """2-D convolution over NCHW tensors via im2col + matmul."""

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        stride: int = 1,
        padding: int | None = None,
        bias: bool = True,
        rng: np.random.Generator | None = None,
        name: str = "conv",
    ) -> None:
        super().__init__()
        if kernel_size < 1 or stride < 1:
            raise ValueError("kernel_size and stride must be >= 1")
        rng = rng if rng is not None else np.random.default_rng(0)
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        # "same"-style default padding for odd kernels keeps spatial dims stable.
        self.padding = (kernel_size - 1) // 2 if padding is None else padding
        fan_in = in_channels * kernel_size * kernel_size
        self.weight = Parameter(
            init.he_normal((out_channels, in_channels, kernel_size, kernel_size), fan_in, rng),
            name=f"{name}.weight",
        )
        self.bias = Parameter(init.zeros((out_channels,)), name=f"{name}.bias") if bias else None
        self._cache: tuple[np.ndarray, tuple[int, int, int, int]] | None = None
        self._stage_name = f"nn/{name}"

    def forward(
        self, x: np.ndarray, out: np.ndarray | None = None, cols: np.ndarray | None = None
    ) -> np.ndarray:
        """Convolve ``x``.  In inference mode ``out`` may name the (N, O, H', W')
        destination, e.g. a channel range of a larger buffer (each sample's
        slab must be contiguous), and ``cols`` may hand over ``x``'s unfold
        (:meth:`unfold` of any conv with this one's geometry), so convs that
        read the same input unfold it once."""
        with stage(self._stage_name):
            if is_inference():
                return self._infer(np.asarray(x, dtype=np.float32), out, cols)
            return self._forward(x)

    def unfold(self, x: np.ndarray) -> np.ndarray:
        """The im2col columns of ``x`` this conv multiplies, in a fresh array."""
        return im2col(x, self.kernel_size, self.kernel_size, self.padding, self.stride)

    def _infer(self, x: np.ndarray, out: np.ndarray | None, cols: np.ndarray | None) -> np.ndarray:
        batch, _, height, width = x.shape
        out_h, out_w = self.output_shape(height, width)
        if out is None:
            out = np.empty((batch, self.out_channels, out_h, out_w), dtype=np.float32)
        if self.kernel_size == 1 and self.stride == 1 and self.padding == 0:
            samples = x.reshape(batch, self.in_channels, height * width)
        else:
            if cols is None:
                # The unfold lives in thread-local scratch: it is consumed here.
                k = self.kernel_size
                cols = im2col(x, k, k, self.padding, self.stride, reuse_buffer=True)
            elif cols.shape != (self.weight.data[0].size, batch * out_h * out_w):
                raise ValueError(f"{self._stage_name} got columns {cols.shape}, not x's unfold")
            samples = cols.reshape(cols.shape[0], batch, -1).transpose(1, 0, 2)
        # A stacked matmul runs one GEMM per sample (same m/k/n as batch 1).
        np.matmul(
            self.weight.data.reshape(self.out_channels, -1),
            samples,
            out=out.reshape(batch, self.out_channels, out_h * out_w),
        )
        if self.bias is not None:
            out += self.bias.data[:, None, None]
        return out

    def _forward(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float32)
        batch, _, height, width = x.shape
        out_h, out_w = self.output_shape(height, width)
        cols = im2col(x, self.kernel_size, self.kernel_size, self.padding, self.stride)
        out = self.weight.data.reshape(self.out_channels, -1) @ cols
        if self.bias is not None:
            out += self.bias.data[:, None]
        out = out.reshape(self.out_channels, batch, out_h, out_w).transpose(1, 0, 2, 3)
        self._cache = (cols, x.shape)
        return np.ascontiguousarray(out)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        cols, x_shape = self._cache
        grad_out = np.asarray(grad_out, dtype=np.float32)
        grad_matrix = grad_out.transpose(1, 0, 2, 3).reshape(self.out_channels, -1)
        grad_weight = (grad_matrix @ cols.T).reshape(self.weight.data.shape)
        self.weight.accumulate(grad_weight)
        if self.bias is not None:
            self.bias.accumulate(grad_matrix.sum(axis=1))
        weight_matrix = self.weight.data.reshape(self.out_channels, -1)
        grad_cols = weight_matrix.T @ grad_matrix
        grad_x = col2im(
            grad_cols, x_shape, self.kernel_size, self.kernel_size, self.padding, self.stride
        )
        return grad_x.astype(np.float32)

    def output_shape(self, height: int, width: int) -> tuple[int, int]:
        """Spatial output shape for an input of size (height, width)."""
        return (
            conv_output_size(height, self.kernel_size, self.padding, self.stride),
            conv_output_size(width, self.kernel_size, self.padding, self.stride),
        )

    def flops(self, height: int, width: int) -> int:
        """Multiply–accumulate count for one input of the given spatial size."""
        out_h, out_w = self.output_shape(height, width)
        per_position = self.in_channels * self.kernel_size * self.kernel_size
        return 2 * per_position * self.out_channels * out_h * out_w


class Linear(Module):
    """Fully-connected layer: ``y = x @ W.T + b`` on (N, in_features) inputs."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        bias: bool = True,
        rng: np.random.Generator | None = None,
        name: str = "linear",
    ) -> None:
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng(0)
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(
            init.xavier_uniform((out_features, in_features), in_features, out_features, rng),
            name=f"{name}.weight",
        )
        self.bias = Parameter(init.zeros((out_features,)), name=f"{name}.bias") if bias else None
        self._input: np.ndarray | None = None
        self._stage_name = f"nn/{name}"

    def forward(self, x: np.ndarray) -> np.ndarray:
        with stage(self._stage_name):
            return self._forward(x)

    def _forward(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float32)
        if x.ndim != 2 or x.shape[1] != self.in_features:
            raise ValueError(f"expected (N, {self.in_features}) input, got {x.shape}")
        if is_inference():
            if x.shape[0] > 1:
                # One row-GEMM per sample keeps the output batch-invariant.
                out = np.empty((x.shape[0], self.out_features), dtype=np.float32)
                for index in range(x.shape[0]):
                    np.matmul(x[index : index + 1], self.weight.data.T, out=out[index : index + 1])
            else:
                out = x @ self.weight.data.T
        else:
            self._input = x
            out = x @ self.weight.data.T
        if self.bias is not None:
            out += self.bias.data
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._input is None:
            raise RuntimeError("backward called before forward")
        grad_out = np.asarray(grad_out, dtype=np.float32)
        self.weight.accumulate(grad_out.T @ self._input)
        if self.bias is not None:
            self.bias.accumulate(grad_out.sum(axis=0))
        return grad_out @ self.weight.data


class ReLU(Module):
    """Rectified linear activation."""

    def __init__(self) -> None:
        super().__init__()
        self._mask: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        if is_inference():
            return np.maximum(x, np.float32(0))
        self._mask = x > 0
        return np.where(self._mask, x, 0.0).astype(np.float32)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._mask is None:
            raise RuntimeError("backward called before forward")
        return np.where(self._mask, grad_out, 0.0).astype(np.float32)


class LeakyReLU(Module):
    """Leaky rectified linear activation."""

    def __init__(self, negative_slope: float = 0.1) -> None:
        super().__init__()
        self.negative_slope = negative_slope
        self._mask: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        mask = x > 0
        if not is_inference():
            self._mask = mask
        return np.where(mask, x, self.negative_slope * x).astype(np.float32)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._mask is None:
            raise RuntimeError("backward called before forward")
        return np.where(self._mask, grad_out, self.negative_slope * grad_out).astype(np.float32)


class MaxPool2d(Module):
    """Max pooling with ``kernel == stride`` (non-overlapping windows).

    Inputs whose spatial size is not divisible by the kernel are padded with
    ``-inf`` on the bottom/right so every input size is accepted.
    """

    def __init__(self, kernel_size: int = 2) -> None:
        super().__init__()
        if kernel_size < 1:
            raise ValueError("kernel_size must be >= 1")
        self.kernel_size = kernel_size
        self._cache: tuple[np.ndarray, tuple[int, int], tuple[int, int]] | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        k = self.kernel_size
        batch, channels, height, width = x.shape
        pad_h = (-height) % k
        pad_w = (-width) % k
        if pad_h or pad_w:
            x = np.pad(
                x,
                ((0, 0), (0, 0), (0, pad_h), (0, pad_w)),
                mode="constant",
                constant_values=-np.inf,
            )
        padded_h, padded_w = x.shape[2], x.shape[3]
        view = x.reshape(batch, channels, padded_h // k, k, padded_w // k, k)
        out = view.max(axis=(3, 5))
        if not is_inference():
            mask = view == out[:, :, :, None, :, None]
            self._cache = (mask, (height, width), (padded_h, padded_w))
        return out.astype(np.float32)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        mask, (height, width), (padded_h, padded_w) = self._cache
        k = self.kernel_size
        grad = mask * grad_out[:, :, :, None, :, None]
        # If several entries tie for the maximum, split the gradient between them.
        counts = mask.sum(axis=(3, 5), keepdims=True)
        grad = grad / np.maximum(counts, 1)
        grad = grad.reshape(grad.shape[0], grad.shape[1], padded_h, padded_w)
        return grad[:, :, :height, :width].astype(np.float32)


class AvgPool2d(Module):
    """Average pooling with ``kernel == stride`` (non-overlapping windows)."""

    def __init__(self, kernel_size: int = 2) -> None:
        super().__init__()
        if kernel_size < 1:
            raise ValueError("kernel_size must be >= 1")
        self.kernel_size = kernel_size
        self._cache: tuple[tuple[int, int], tuple[int, int]] | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        k = self.kernel_size
        batch, channels, height, width = x.shape
        pad_h = (-height) % k
        pad_w = (-width) % k
        if pad_h or pad_w:
            x = np.pad(x, ((0, 0), (0, 0), (0, pad_h), (0, pad_w)), mode="edge")
        padded_h, padded_w = x.shape[2], x.shape[3]
        view = x.reshape(batch, channels, padded_h // k, k, padded_w // k, k)
        if not is_inference():
            self._cache = ((height, width), (padded_h, padded_w))
        return view.mean(axis=(3, 5)).astype(np.float32)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        (height, width), (padded_h, padded_w) = self._cache
        k = self.kernel_size
        grad = np.repeat(np.repeat(grad_out, k, axis=2), k, axis=3) / (k * k)
        return grad[:, :, :height, :width].astype(np.float32)


class GlobalAvgPool2d(Module):
    """Global average pooling over the spatial dimensions: (N, C, H, W) → (N, C).

    Used by the scale regressor as the "voting" stage described in Sec. 3.2 of
    the paper.
    """

    def __init__(self) -> None:
        super().__init__()
        self._shape: tuple[int, int, int, int] | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        if not is_inference():
            self._shape = x.shape
        return x.mean(axis=(2, 3)).astype(np.float32)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._shape is None:
            raise RuntimeError("backward called before forward")
        batch, channels, height, width = self._shape
        grad = grad_out[:, :, None, None] / float(height * width)
        return np.broadcast_to(grad, self._shape).astype(np.float32)


class BatchNorm2d(Module):
    """Batch normalisation over (N, H, W) for each channel.

    Keeps running statistics for inference.  The detector in this reproduction
    is intentionally normalisation-free (single-image batches make batch
    statistics unreliable), but the layer is provided — and tested — as part of
    the framework.
    """

    def __init__(self, num_features: int, momentum: float = 0.1, eps: float = 1e-5) -> None:
        super().__init__()
        self.num_features = num_features
        self.momentum = momentum
        self.eps = eps
        self.gamma = Parameter(np.ones(num_features, dtype=np.float32), name="bn.gamma")
        self.beta = Parameter(np.zeros(num_features, dtype=np.float32), name="bn.beta")
        self.running_mean = np.zeros(num_features, dtype=np.float32)
        self.running_var = np.ones(num_features, dtype=np.float32)
        self._cache: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.shape[1] != self.num_features:
            raise ValueError(f"expected {self.num_features} channels, got {x.shape[1]}")
        if self.training and not is_inference():
            mean = x.mean(axis=(0, 2, 3))
            var = x.var(axis=(0, 2, 3))
            self.running_mean = (1 - self.momentum) * self.running_mean + self.momentum * mean
            self.running_var = (1 - self.momentum) * self.running_var + self.momentum * var
        else:
            mean = self.running_mean
            var = self.running_var
        inv_std = 1.0 / np.sqrt(var + self.eps)
        x_hat = (x - mean[None, :, None, None]) * inv_std[None, :, None, None]
        if not is_inference():
            self._cache = (x_hat, inv_std, x)
        return (self.gamma.data[None, :, None, None] * x_hat + self.beta.data[None, :, None, None]).astype(
            np.float32
        )

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        x_hat, inv_std, x = self._cache
        count = x.shape[0] * x.shape[2] * x.shape[3]
        self.gamma.accumulate((grad_out * x_hat).sum(axis=(0, 2, 3)))
        self.beta.accumulate(grad_out.sum(axis=(0, 2, 3)))
        grad_x_hat = grad_out * self.gamma.data[None, :, None, None]
        if not self.training:
            return (grad_x_hat * inv_std[None, :, None, None]).astype(np.float32)
        sum_grad = grad_x_hat.sum(axis=(0, 2, 3), keepdims=True)
        sum_grad_x_hat = (grad_x_hat * x_hat).sum(axis=(0, 2, 3), keepdims=True)
        grad_x = (
            grad_x_hat - sum_grad / count - x_hat * sum_grad_x_hat / count
        ) * inv_std[None, :, None, None]
        return grad_x.astype(np.float32)


class Dropout(Module):
    """Inverted dropout; identity in evaluation mode."""

    def __init__(self, rate: float = 0.5, rng: np.random.Generator | None = None) -> None:
        super().__init__()
        if not 0.0 <= rate < 1.0:
            raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
        self.rate = rate
        self.rng = rng if rng is not None else np.random.default_rng(0)
        self._mask: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        if is_inference():
            return np.asarray(x, dtype=np.float32)
        if not self.training or self.rate == 0.0:
            self._mask = None
            return np.asarray(x, dtype=np.float32)
        keep = 1.0 - self.rate
        self._mask = (self.rng.random(x.shape) < keep).astype(np.float32) / keep
        return (x * self._mask).astype(np.float32)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._mask is None:
            return np.asarray(grad_out, dtype=np.float32)
        return (grad_out * self._mask).astype(np.float32)


class Flatten(Module):
    """Flatten (N, C, H, W) → (N, C*H*W)."""

    def __init__(self) -> None:
        super().__init__()
        self._shape: tuple[int, ...] | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        if not is_inference():
            self._shape = x.shape
        return x.reshape(x.shape[0], -1).astype(np.float32)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._shape is None:
            raise RuntimeError("backward called before forward")
        return grad_out.reshape(self._shape).astype(np.float32)
