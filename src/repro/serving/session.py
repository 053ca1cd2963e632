"""Per-stream sequential state for concurrent video serving.

AdaScale's inference loop (Algorithm 1) is stateful *per video stream*: the
regressor output of frame ``k`` chooses the scale of frame ``k+1``, DFF caches
key-frame features, and Seq-NMS accumulates a temporal detection history.
When many independent streams are served through one worker pool, that state
must be owned per stream or streams would contaminate each other — the wrong
scale, warped features from another video, cross-video detection links.

:class:`StreamSession` owns exactly that state, split into two halves so a
worker can batch the detector work of many streams:

* :meth:`StreamSession.plan_frame` — the *batchable* detector phase's input:
  resize/normalise the frame (and, for DFF non-key frames, estimate flow and
  warp the cached key features) into a :class:`FramePlan` without touching
  stream state.  The worker stacks the plans of a whole scheduler micro-batch
  into one NCHW tensor and runs the detector once.
* :meth:`StreamSession.complete_frame` — the *sequential* bookkeeping phase:
  commit the DFF cache and fold the batched detection back into the stream.

The scheduler guarantees at most one frame of a session is in flight at a
time, so session methods need no internal locking: the scheduler's condition
variable orders the previous frame's ``advance`` before the next frame's
dispatch.

Determinism: a session processed through the server — any worker count, any
batch size — produces bit-identical detections and scale traces to running
offline Algorithm 1 (:meth:`repro.core.adascale.AdaScaleDetector.process_video`,
or :class:`repro.acceleration.combined.AdaScaleDFFDetector` under DFF)
sequentially on the same frames.  Workers share one detector (inference mode
makes forwards side-effect free) and inference kernels are batch-invariant, so
frames executed inside a stacked micro-batch match frames executed alone, bit
for bit (see the multi-stream equivalence tests).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.acceleration.dff import DFFFramePlan, DFFStream
from repro.acceleration.seqnms import SeqNMSConfig, SeqNMSStream
from repro.config import AdaScaleConfig, ServingConfig
from repro.data.transforms import preprocess_frame
from repro.detection.rfcn import DetectionResult
from repro.evaluation.voc_ap import DetectionRecord
from repro.observability.trace import active_tracer
from repro.serving.request import FrameRequest

__all__ = ["FrameExecution", "FramePlan", "StreamResult", "StreamSession"]


@dataclass(frozen=True)
class FrameExecution:
    """What a worker produced for one frame (before bookkeeping)."""

    detection: DetectionResult
    scale_used: int
    next_scale: int | None  # None: keep the current scale (non-key DFF frame)
    is_key_frame: bool
    service_s: float


@dataclass
class FramePlan:
    """One frame's prepared detector work inside a micro-batch.

    Produced by :meth:`StreamSession.plan_frame` (pure preparation — no
    stream-state mutation), filled in by the worker's batched detector/
    regressor phases, and consumed by :meth:`StreamSession.complete_frame`.

    Exactly one of ``tensor`` (frames that need the backbone: plain AdaScale
    frames and DFF key frames) and ``warped_features`` (DFF non-key frames
    that only need the detection head) is set.
    """

    request: FrameRequest
    session: "StreamSession"
    kind: str  # "adascale" | "dff_key" | "dff_warp"
    scale: int
    image_size: tuple[int, int]
    working_shape: tuple[int, int]
    scale_factor: float
    needs_next_scale: bool
    tensor: np.ndarray | None = None
    warped_features: np.ndarray | None = None
    dff_plan: DFFFramePlan | None = None
    # -- filled by the worker's batched phases --------------------------------
    detection: DetectionResult | None = None
    features: np.ndarray | None = None
    next_scale: int | None = None
    service_s: float = 0.0


@dataclass
class StreamResult:
    """Everything a finished stream produced, in frame order."""

    stream_id: int
    records: list[DetectionRecord] = field(default_factory=list)
    scales_used: list[int] = field(default_factory=list)
    frame_indices: list[int] = field(default_factory=list)
    completed: int = 0
    shed: int = 0


class StreamSession:
    """Sequential state of one video stream inside the server."""

    def __init__(
        self,
        stream_id: int,
        adascale_config: AdaScaleConfig,
        serving_config: ServingConfig,
        num_classes: int,
        seqnms_config: SeqNMSConfig | None = None,
        initial_scale: int | None = None,
    ) -> None:
        self.stream_id = stream_id
        self.adascale_config = adascale_config
        self.serving_config = serving_config
        #: quality ceiling imposed by a control plane (e.g. the cluster's
        #: ScaleGovernor): the stream's effective scale is clamped to at most
        #: this value; ``None`` leaves AdaScale's choice untouched
        self.scale_cap: int | None = None
        # Per-stream seed (a migration re-homing the stream mid-video) wins
        # over the serving-wide default; both fall back to full quality.
        seed_scale = (
            initial_scale if initial_scale is not None else serving_config.initial_scale
        )
        self._current_scale = (
            int(seed_scale) if seed_scale is not None else adascale_config.max_scale
        )
        self._next_key_scale = self._current_scale
        #: DFF key-frame cache; shared structurally with the offline DFF
        #: detector via DFFStream (the detector instance is supplied per call
        #: by the executing worker, so the bound one is never used).
        self.dff_stream: DFFStream | None = None
        if serving_config.key_frame_interval > 1:
            self.dff_stream = DFFStream(
                detector=None,  # type: ignore[arg-type] — workers always pass theirs
                key_frame_interval=serving_config.key_frame_interval,
                config=adascale_config,
            )
        self.seqnms_stream: SeqNMSStream | None = None
        if serving_config.use_seqnms:
            self.seqnms_stream = SeqNMSStream(num_classes, seqnms_config)
        self._result = StreamResult(stream_id=stream_id)
        #: frames submitted so far (maintained by the server; one submitter
        #: per stream — frames must arrive in temporal order anyway)
        self.submitted = 0

    @property
    def current_scale(self) -> int:
        """Scale the stream's *next* frame will execute at.

        This is what the scheduler buckets by, so it must track actual
        execution scale (for DFF that is the cached key scale on non-key
        frames, not the regressor's prediction for the next key frame).  A
        control-plane ``scale_cap`` clamps it from above — degrading quality
        to shed detector work without shedding frames — but never below
        AdaScale's minimum scale.
        """
        if self.scale_cap is None:
            return self._current_scale
        cap = max(int(self.scale_cap), self.adascale_config.min_scale)
        return min(self._current_scale, cap)

    # -- worker-side execution ------------------------------------------------
    def plan_frame(self, request: FrameRequest, worker) -> FramePlan:
        """Prepare this stream's next frame for batched execution.

        Pure preparation: resizes/normalises the frame into a backbone-ready
        tensor (plain AdaScale frames, DFF key frames) or warps the cached DFF
        key features into head-ready features (DFF non-key frames).  Stream
        state is only read, never written — mutation happens in
        :meth:`complete_frame` after the batched detector ran.
        """
        image = request.image
        if self.dff_stream is not None:
            is_key = self.dff_stream.next_is_key_frame
            dff_plan = self.dff_stream.plan_frame(
                image,
                scale=request.resolve_scale() if is_key else None,
                detector=worker.detector,
            )
            return FramePlan(
                request=request,
                session=self,
                kind="dff_key" if is_key else "dff_warp",
                scale=dff_plan.scale,
                image_size=dff_plan.image_size,
                working_shape=dff_plan.working_shape,
                scale_factor=dff_plan.scale_factor,
                # AdaScale+DFF: only key frames feed the regressor (Fig. 7).
                needs_next_scale=is_key,
                tensor=dff_plan.tensor,
                warped_features=dff_plan.warped_features,
                dff_plan=dff_plan,
            )
        scale = int(request.resolve_scale())
        tensor, working_shape, scale_factor = preprocess_frame(
            image, scale, self.adascale_config.max_long_side
        )
        return FramePlan(
            request=request,
            session=self,
            kind="adascale",
            scale=scale,
            image_size=image.shape[:2],
            working_shape=working_shape,
            scale_factor=scale_factor,
            needs_next_scale=True,
            tensor=tensor,
        )

    def complete_frame(self, plan: FramePlan) -> FrameExecution:
        """Fold an executed plan into the stream and build its execution record.

        Runs after the worker's batched detector (and, for key/AdaScale
        frames, regressor) phases populated ``plan.detection`` /
        ``plan.next_scale``.  This is the sequential half: it commits the DFF
        key-frame cache so the stream's next frame plans against fresh state.
        """
        if plan.detection is None:
            raise RuntimeError("complete_frame called before the detector phase")
        if plan.request.trace is not None:
            tracer = active_tracer()
            if tracer is not None:
                # The AdaScale feedback edge: this frame's regressor output
                # becomes the stream's next (key-)frame scale.
                tracer.instant(
                    "serving/scale_feedback",
                    plan.request.trace,
                    scale_used=plan.scale,
                    next_scale=plan.next_scale,
                    kind=plan.kind,
                )
        if self.dff_stream is not None:
            assert plan.dff_plan is not None
            out = self.dff_stream.commit_frame(
                plan.dff_plan,
                plan.detection,
                features=plan.features,
                runtime_s=plan.service_s,
            )
            return FrameExecution(
                detection=out.detection,
                scale_used=out.scale_used,
                next_scale=plan.next_scale if plan.kind == "dff_key" else None,
                is_key_frame=out.is_key_frame,
                service_s=plan.service_s,
            )
        return FrameExecution(
            detection=plan.detection,
            scale_used=plan.scale,
            next_scale=plan.next_scale,
            is_key_frame=True,
            service_s=plan.service_s,
        )

    # -- completion bookkeeping ---------------------------------------------
    def advance(self, request: FrameRequest, execution: FrameExecution) -> None:
        """Fold one completed frame into the stream state.

        Must run before the scheduler releases the stream's next frame
        (``task_done``) so the next dispatch reads the updated scale.
        """
        if execution.next_scale is not None:
            self._next_key_scale = int(execution.next_scale)
        if self.dff_stream is not None:
            # Non-key frames execute at the cached key scale regardless of the
            # regressor's prediction; only the next key frame adopts it.
            self._current_scale = (
                self._next_key_scale
                if self.dff_stream.next_is_key_frame
                else self.dff_stream.key_scale
            )
        elif execution.next_scale is not None:
            self._current_scale = int(execution.next_scale)
        record = _to_record(execution.detection, self.stream_id, request.frame_index)
        self._result.records.append(record)
        self._result.scales_used.append(execution.scale_used)
        self._result.frame_indices.append(request.frame_index)
        self._result.completed += 1
        if self.seqnms_stream is not None:
            self.seqnms_stream.add(record)

    def on_shed(self, request: FrameRequest) -> None:
        """Account for a frame that was shed instead of processed.

        The AdaScale feedback chain simply skips the frame: the next frame of
        the stream runs at the last predicted scale.
        """
        self._result.shed += 1

    # -- results ------------------------------------------------------------
    def finalize(self) -> StreamResult:
        """Per-stream results; applies Seq-NMS rescoring when enabled."""
        if self.seqnms_stream is not None and len(self.seqnms_stream) > 0:
            self._result.records = self.seqnms_stream.finalize()
        return self._result


def _to_record(detection: DetectionResult, stream_id: int, frame_index: int) -> DetectionRecord:
    """Detections as an evaluation record; serving has no ground truth."""
    return DetectionRecord(
        boxes=detection.boxes,
        scores=detection.scores,
        class_ids=detection.class_ids,
        gt_boxes=np.zeros((0, 4), dtype=np.float32),
        gt_labels=np.zeros((0,), dtype=np.int64),
        frame_id=(stream_id, frame_index),
    )
