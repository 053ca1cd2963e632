"""Thread-based worker pool driving the scheduler against the detector.

Workers share **one** detector and regressor: inference runs inside
:func:`repro.nn.inference_mode`, whose forwards are side-effect free (no
activation caching on layer objects), so a single set of weights serves any
number of threads.  No per-worker replicas are built, which removes the
replica startup cost and multiplies the model-memory footprint by 1 instead
of ``num_workers``.

A worker runs every scale-bucketed micro-batch from the scheduler one way, as
stacked tensors, in five regions —

1. **plan** — each frame's session resizes/normalises its frame (or, for DFF
   non-key frames, warps cached key features) into a
   :class:`~repro.serving.session.FramePlan`; stream state is only read;
2. **backbone_batch** / **head_batch** — plans needing the backbone are
   stacked per tensor shape into one NCHW batch; the RPN and position-sensitive
   head run once per stack and per-image NMS fans the detections back out.  DFF
   non-key plans stack their warped features straight through the head;
3. **regress** — frames that feed AdaScale's feedback loop are regressed as
   one feature batch;
4. **complete** — each session commits its sequential bookkeeping (DFF cache,
   scale feedback) and the result goes to the server's completion callback.

Each region is timed once: it is a profiler ``stage("serving/<region>")`` and,
when a frame of the batch is traced, a span of the same name on those frames.

Inference kernels are batch-invariant, so a batch of one is the per-frame
case and a served stream is bit-identical to offline Algorithm 1 on its
frames: ``process_video`` of :class:`~repro.core.adascale.AdaScaleDetector`,
or of :class:`~repro.acceleration.combined.AdaScaleDFFDetector` under DFF.

Workers block on the scheduler's condition variable and are woken on enqueue;
the dequeue timeout is only a backstop so shutdown can never be missed.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

from repro.config import AdaScaleConfig
from repro.core.adascale import AdaScaleDetector
from repro.core.regressor import ScaleRegressor
from repro.detection.rfcn import RFCNDetector
from repro.nn.layers import inference_mode
from repro.observability.trace import Tracer, active_tracer
from repro.profiling import stage
from repro.serving.request import FrameRequest
from repro.serving.scheduler import FrameScheduler
from repro.serving.session import FrameExecution, FramePlan
from repro.utils.grouping import group_indices, stack_group
from repro.utils.logging import get_logger

__all__ = ["WorkerContext", "WorkerPool"]

_LOGGER = get_logger("serving.worker")

#: Signature of the server's completion callback.
CompleteFn = Callable[[FrameRequest, FrameExecution | None, BaseException | None], None]


@dataclass
class WorkerContext:
    """The models a worker executes with — shared by every worker thread."""

    detector: RFCNDetector
    regressor: ScaleRegressor
    adascale: AdaScaleDetector

    @classmethod
    def shared(
        cls,
        detector: RFCNDetector,
        regressor: ScaleRegressor,
        config: AdaScaleConfig,
    ) -> "WorkerContext":
        """Wrap the bundle's models directly — no cloning.

        Inference-mode forwards never write to module state, so the same
        detector/regressor instances are safe under any worker count.
        """
        return cls(
            detector=detector,
            regressor=regressor,
            adascale=AdaScaleDetector(detector, regressor, config),
        )


def _region(name: str, tracer: Tracer | None, frames: Sequence[FramePlan]):
    """One worker region: the profiler ``stage(name)`` and, when ``tracer`` is
    set, the trace span ``name`` on every traced frame of ``frames``.

    Trace spans reuse the profiler's stage names, so a trace's per-stage rollup
    and a :class:`~repro.profiling.StageProfiler` over the same load compare
    directly.  With ``tracer`` None the region is the bare stage scope.
    """
    return stage(name) if tracer is None else _traced_region(name, tracer, frames)


@contextmanager
def _traced_region(name: str, tracer: Tracer, frames: Sequence[FramePlan]) -> Iterator[None]:
    # ``frames`` is read on exit, so a region may fill the list it names.
    start_s, start = time.monotonic(), time.perf_counter()
    with stage(name):
        yield
    contexts = [plan.request.trace for plan in frames if plan.request.trace is not None]
    if contexts:
        tracer.emit_batch_span(
            name, contexts, start_s=start_s, duration_s=time.perf_counter() - start
        )


class WorkerPool:
    """Fixed pool of threads executing scheduler micro-batches.

    Every worker runs with the same ``context``: inference-mode forwards
    never touch module state, so one set of models serves all threads.
    """

    def __init__(
        self,
        scheduler: FrameScheduler,
        context: WorkerContext,
        complete: CompleteFn,
        num_workers: int = 2,
        poll_timeout_s: float = 1.0,
    ) -> None:
        if num_workers < 1:
            raise ValueError(f"num_workers must be >= 1, got {num_workers}")
        self._scheduler = scheduler
        self._context = context
        self._complete = complete
        self.num_workers = num_workers
        #: Shutdown backstop only: workers are woken by the scheduler's
        #: condition variable on enqueue, so an idle worker sleeps on the
        #: condition instead of busy-polling.  The timeout merely bounds how
        #: long a missed close() notification could go unnoticed.
        self._poll_timeout_s = poll_timeout_s
        self._threads: list[threading.Thread] = []

    def start(self) -> None:
        """Spawn the worker threads (idempotent)."""
        if self._threads:
            return
        for index in range(self.num_workers):
            thread = threading.Thread(
                target=self._run, name=f"repro-serving-worker-{index}", daemon=True
            )
            self._threads.append(thread)
            thread.start()

    def join(self, timeout: float | None = None) -> None:
        """Wait for the workers to exit (after the scheduler is closed)."""
        for thread in self._threads:
            thread.join(timeout)
        self._threads = [t for t in self._threads if t.is_alive()]

    def _run(self) -> None:
        while True:
            batch = self._scheduler.next_batch(timeout=self._poll_timeout_s)
            if batch is None:  # closed and drained
                return
            if batch:  # empty: the backstop timeout fired with no work
                self._execute(batch, self._context)

    def _execute(self, batch: Sequence[FrameRequest], context: WorkerContext) -> None:
        """Execute a whole scheduler micro-batch as stacked tensors."""
        # ``tracer`` stays None unless a frame of this batch is traced, so an
        # untraced batch runs each region as a bare profiler stage.
        tracer = active_tracer()
        if tracer is not None and all(r.trace is None for r in batch):
            tracer = None

        plans: list[FramePlan] = []
        errors: dict[int, BaseException] = {}
        with _region("serving/plan", tracer, plans):
            for request in batch:
                session = request.session
                if session is None:
                    errors[request.request_id] = RuntimeError("request has no stream session")
                    continue
                try:
                    start = time.perf_counter()
                    plan = session.plan_frame(request, context)
                    plan.service_s += time.perf_counter() - start
                    plans.append(plan)
                except Exception as exc:  # pragma: no cover - defensive
                    _LOGGER.exception("plan failed on stream %s", request.stream_id)
                    errors[request.request_id] = exc

        keyed = [plan for plan in plans if plan.tensor is not None]
        with _region("serving/backbone_batch", tracer, keyed):
            self._detect_stacked(
                keyed,
                context,
                errors,
                key=lambda plan: tuple(plan.tensor.shape),
                run=self._run_backbone_group,
            )
        warped = [plan for plan in plans if plan.warped_features is not None]
        with _region("serving/head_batch", tracer, warped):
            self._detect_stacked(
                warped,
                context,
                errors,
                key=lambda plan: tuple(plan.warped_features.shape),
                run=self._run_head_group,
            )
        # Every frame of the batch waits on the regressor, so the regress span
        # lands on all of them, not only on those it regresses.
        with _region("serving/regress", tracer, plans):
            self._regress_next_scales(plans, context, errors)

        executions: dict[int, FrameExecution] = {}
        with _region("serving/complete", tracer, plans):
            for plan in plans:
                if plan.request.request_id in errors:
                    continue
                try:
                    start = time.perf_counter()
                    execution = plan.session.complete_frame(plan)
                    plan.service_s += time.perf_counter() - start
                    executions[plan.request.request_id] = execution
                except Exception as exc:  # pragma: no cover - defensive
                    _LOGGER.exception("commit failed on stream %s", plan.request.stream_id)
                    errors[plan.request.request_id] = exc

        for request in batch:
            self._finish(
                request,
                executions.get(request.request_id),
                errors.get(request.request_id),
            )

    def _detect_stacked(
        self,
        plans: list[FramePlan],
        context: WorkerContext,
        errors: dict[int, BaseException],
        key: Callable[[FramePlan], tuple[int, ...]],
        run: Callable[[list[FramePlan], WorkerContext], None],
    ) -> None:
        """Group plans by stackable shape and run the detector once per group."""
        for indices in group_indices(plans, key=key):
            group = [plans[i] for i in indices]
            try:
                start = time.perf_counter()
                run(group, context)
                share = (time.perf_counter() - start) / len(group)
                for plan in group:
                    plan.service_s += share
            except Exception as exc:  # pragma: no cover - defensive
                _LOGGER.exception(
                    "batched detection failed for streams %s",
                    [plan.request.stream_id for plan in group],
                )
                for plan in group:
                    errors[plan.request.request_id] = exc

    @staticmethod
    def _run_backbone_group(group: list[FramePlan], context: WorkerContext) -> None:
        """Backbone + RPN + head over one stack of same-shape frame tensors."""
        with inference_mode():
            features = context.detector.extract_features(
                stack_group([plan.tensor for plan in group])
            )
            detections = context.detector.detect_from_features_batch(
                features,
                working_shapes=[plan.working_shape for plan in group],
                scale_factors=[plan.scale_factor for plan in group],
                image_sizes=[plan.image_size for plan in group],
                target_scales=[plan.scale for plan in group],
            )
        for plan, detection in zip(group, detections):
            plan.detection = detection
            # Per-frame feature slice of the stack — what DFF key frames cache.
            plan.features = detection.features

    @staticmethod
    def _run_head_group(group: list[FramePlan], context: WorkerContext) -> None:
        """Detection head over one stack of same-shape warped DFF features."""
        detections = context.detector.detect_from_features_batch(
            stack_group([plan.warped_features for plan in group]),
            working_shapes=[plan.working_shape for plan in group],
            scale_factors=[plan.scale_factor for plan in group],
            image_sizes=[plan.image_size for plan in group],
            target_scales=[plan.scale for plan in group],
        )
        for plan, detection in zip(group, detections):
            plan.detection = detection

    @staticmethod
    def _regress_next_scales(
        plans: list[FramePlan], context: WorkerContext, errors: dict[int, BaseException]
    ) -> None:
        """Batched AdaScale feedback for every frame that needs a next scale."""
        pending = [
            plan
            for plan in plans
            if plan.needs_next_scale
            and plan.detection is not None
            and plan.request.request_id not in errors
        ]
        if not pending:
            return
        try:
            feedback = context.adascale.predict_next_scales(
                [plan.detection for plan in pending],
                [plan.image_size for plan in pending],
            )
        except Exception as exc:  # pragma: no cover - defensive
            _LOGGER.exception("batched scale regression failed")
            for plan in pending:
                errors[plan.request.request_id] = exc
            return
        for plan, (next_scale, _, regress_s) in zip(pending, feedback):
            plan.next_scale = next_scale
            plan.service_s += regress_s

    # ------------------------------------------------------------------
    def _finish(
        self,
        request: FrameRequest,
        execution: FrameExecution | None,
        error: BaseException | None,
    ) -> None:
        if execution is None and error is None:  # pragma: no cover - defensive
            error = RuntimeError("request fell through batched execution")
        # The completion callback must never kill the worker thread: a dead
        # worker would strand queued frames and hang every pending
        # drain()/result() call.
        try:
            self._complete(request, execution, error)
        except Exception:  # pragma: no cover - defensive
            _LOGGER.exception(
                "completion callback failed for stream %s", request.stream_id
            )
