"""The scale regressor module (Sec. 3.2, Fig. 4 of the paper).

The regressor consumes the detector backbone's deep features.  Parallel
convolution streams with different kernel sizes capture per-channel size
information (1x1) and local texture complexity (3x3); each stream is followed
by a non-linearity and global average pooling ("voting"), and a final fully
connected layer fuses the streams into a single relative-scale prediction.

Table 3 of the paper ablates the kernel-size combination (1 / 1&3 / 1&3&5),
which maps to the ``kernel_sizes`` parameter here.
"""

from __future__ import annotations

import numpy as np

from repro.config import RegressorConfig
from repro.nn.layers import (
    Conv2d,
    GlobalAvgPool2d,
    Linear,
    Module,
    ReLU,
    inference_mode,
    is_inference,
)

__all__ = ["ScaleRegressor"]


class ScaleRegressor(Module):
    """Regresses the normalised relative scale target of Eq. (3)."""

    def __init__(
        self,
        in_channels: int,
        config: RegressorConfig | None = None,
        seed: int = 0,
    ) -> None:
        super().__init__()
        self.config = config if config is not None else RegressorConfig()
        if not self.config.kernel_sizes:
            raise ValueError("regressor needs at least one conv stream")
        rng = np.random.default_rng(seed)
        self.in_channels = in_channels
        self.streams: list[Conv2d] = [
            Conv2d(
                in_channels,
                self.config.stream_channels,
                kernel_size,
                rng=rng,
                name=f"regressor.k{kernel_size}",
            )
            for kernel_size in self.config.kernel_sizes
        ]
        self.activations: list[ReLU] = [ReLU() for _ in self.streams]
        self.pools: list[GlobalAvgPool2d] = [GlobalAvgPool2d() for _ in self.streams]
        fused = self.config.stream_channels * len(self.streams)
        self.fc = Linear(fused, 1, rng=rng, name="regressor.fc")
        self._stream_widths = self.config.stream_channels

    def clone(self) -> "ScaleRegressor":
        """An independent replica with identical weights (see ``RFCNDetector.clone``)."""
        replica = ScaleRegressor(self.in_channels, self.config, seed=0)
        replica.load_state_dict(self.state_dict())
        replica.train(self.training)
        return replica

    def forward(self, features: np.ndarray) -> np.ndarray:
        """Predict the relative scale for an (N, C, H, W) feature stack.

        Returns an (N,) array.  In inference mode the forward is
        batch-invariant: row ``n`` is bit-identical to running feature map
        ``n`` alone, so micro-batched scale prediction matches the sequential
        Algorithm-1 loop exactly.
        """
        features = np.asarray(features, dtype=np.float32)
        if features.ndim != 4 or features.shape[1] != self.in_channels:
            raise ValueError(
                f"expected (N, {self.in_channels}, H, W) features, got {features.shape}"
            )
        pooled_streams = []
        for conv, act, pool in zip(self.streams, self.activations, self.pools):
            pooled_streams.append(pool(act(conv(features))))
        fused = np.concatenate(pooled_streams, axis=1)
        if not is_inference():
            self._fused_shape = fused.shape
        prediction = self.fc(fused)
        return prediction[:, 0]

    def backward(self, grad_prediction: np.ndarray) -> np.ndarray:
        """Backpropagate a (batch,) gradient; returns gradient on the features."""
        grad_prediction = np.asarray(grad_prediction, dtype=np.float32).reshape(-1, 1)
        grad_fused = self.fc.backward(grad_prediction)
        width = self._stream_widths
        grad_features: np.ndarray | None = None
        for index, (conv, act, pool) in enumerate(
            zip(self.streams, self.activations, self.pools)
        ):
            grad_stream = grad_fused[:, index * width : (index + 1) * width]
            grad = conv.backward(act.backward(pool.backward(grad_stream)))
            grad_features = grad if grad_features is None else grad_features + grad
        assert grad_features is not None
        return grad_features

    def predict(self, features: np.ndarray) -> float:
        """Convenience scalar prediction for a single feature map."""
        return float(self.predict_batch(features)[0])

    def predict_batch(self, features: np.ndarray) -> np.ndarray:
        """Side-effect-free (N,) prediction for a stack of feature maps.

        Runs in :func:`repro.nn.inference_mode`, so a shared regressor may be
        called concurrently from many serving workers.
        """
        with inference_mode():
            return self.forward(features).astype(np.float32)

    def overhead_flops(self, feature_height: int, feature_width: int) -> int:
        """Multiply–accumulate cost of the regressor itself.

        The paper reports the regressor adds ~2 ms (3% of R-FCN's runtime);
        this lets the runtime model account for the analogous overhead.
        """
        total = 0
        for conv in self.streams:
            total += conv.flops(feature_height, feature_width)
        total += 2 * self.fc.in_features * self.fc.out_features
        return total
