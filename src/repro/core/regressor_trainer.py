"""Training of the scale regressor (Sec. 3.2, Eq. 4).

The detector is frozen; only the regressor's parameters are updated.  Each
training example is a frame resized to a scale drawn uniformly from ``S_reg``
(so the regressor sees the full dynamics of up- and down-scaling) and the
target is the relative scale ``t(m_input, m_opt)`` of Eq. (3) computed from
the frame's optimal-scale label.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.config import AdaScaleConfig, RegressorConfig
from repro.core.optimal_scale import ScaleLabels
from repro.core.regressor import ScaleRegressor
from repro.core.scale_coding import encode_scale_target
from repro.data.loader import FrameLoader
from repro.data.synthetic_vid import SyntheticVID
from repro.data.transforms import preprocess_frame
from repro.detection.rfcn import RFCNDetector
from repro.nn.losses import mse_loss
from repro.nn.optim import MultiStepLR, build_optimizer
from repro.utils.logging import get_logger

__all__ = ["RegressorTrainingSummary", "RegressorTrainer"]

_LOGGER = get_logger("core.regressor_trainer")


@dataclass
class RegressorTrainingSummary:
    """Record of one regressor training run."""

    iterations: int
    loss_history: list[float] = field(default_factory=list)

    @property
    def final_loss(self) -> float:
        """MSE averaged over the last 10% of iterations."""
        if not self.loss_history:
            return float("nan")
        tail = max(1, len(self.loss_history) // 10)
        return float(np.mean(self.loss_history[-tail:]))


class RegressorTrainer:
    """MSE training loop for :class:`~repro.core.regressor.ScaleRegressor`."""

    def __init__(
        self,
        detector: RFCNDetector,
        regressor: ScaleRegressor,
        adascale_config: AdaScaleConfig,
        regressor_config: RegressorConfig | None = None,
        rng: np.random.Generator | None = None,
    ) -> None:
        self.detector = detector
        self.regressor = regressor
        self.adascale_config = adascale_config
        self.config = regressor_config if regressor_config is not None else regressor.config
        self.rng = rng if rng is not None else np.random.default_rng(self.config.seed)
        self.optimizer = build_optimizer(
            self.config.optimizer,
            regressor.parameters(),
            learning_rate=self.config.learning_rate,
            momentum=self.config.momentum,
            weight_decay=self.config.weight_decay,
        )
        self.scheduler = MultiStepLR(self.optimizer, self.config.lr_decay_at)

    def fit(
        self,
        dataset: SyntheticVID,
        labels: ScaleLabels,
        iterations: int | None = None,
        log_every: int = 100,
    ) -> RegressorTrainingSummary:
        """Train the regressor against the optimal-scale labels.

        The detector's weights are left untouched (the whole network except
        the regressor is frozen, exactly as in the paper).
        """
        iterations = self.config.iterations if iterations is None else iterations
        if iterations <= 0:
            raise ValueError(f"iterations must be positive, got {iterations}")
        if len(labels) == 0:
            raise ValueError("labels are empty — run label_dataset first")

        loader = FrameLoader(dataset, self.rng)
        reg_scales = self.adascale_config.regressor_scales
        min_scale = self.adascale_config.min_scale
        max_scale = self.adascale_config.max_scale
        summary = RegressorTrainingSummary(iterations=iterations)
        self.detector.eval()
        self.regressor.train()

        for iteration in range(1, iterations + 1):
            frame = loader.next_frame()
            key = (frame.snippet_id, frame.frame_index)
            if key not in labels.labels:
                continue
            optimal = labels.labels[key]
            input_scale = int(reg_scales[int(self.rng.integers(len(reg_scales)))])
            tensor, working_shape, _ = preprocess_frame(
                frame.image, input_scale, self.adascale_config.max_long_side
            )
            target = encode_scale_target(
                float(min(working_shape)), float(optimal), min_scale, max_scale
            )

            features = self.detector.extract_features(tensor)
            prediction = self.regressor(features)
            loss, grad, _ = mse_loss(prediction, np.asarray([target], dtype=np.float32))

            self.optimizer.zero_grad()
            self.regressor.backward(grad)
            self.optimizer.step()
            self.scheduler.step()
            summary.loss_history.append(float(loss))
            if log_every and iteration % log_every == 0:
                recent = float(np.mean(summary.loss_history[-log_every:]))
                _LOGGER.info("iter %d/%d mse=%.4f", iteration, iterations, recent)

        self.regressor.eval()
        return summary
