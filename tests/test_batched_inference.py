"""Batch-equivalence guarantees of the batch-first inference stack.

The refactor's contract: executing frames inside a stacked micro-batch is
**bit-identical** to executing them one at a time.  These tests pin that down
at every layer — nn kernels, detector, scale regressor, serving — plus the
thread-safety property that makes worker replicas unnecessary.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.acceleration.combined import AdaScaleDFFDetector
from repro.config import ServingConfig
from repro.nn import Conv2d, Linear, MaxPool2d, ReLU, Sequential, inference_mode, is_inference
from repro.serving import InferenceServer


class TestInferenceMode:
    def test_flag_scoping_and_reentrancy(self):
        assert not is_inference()
        with inference_mode():
            assert is_inference()
            with inference_mode():
                assert is_inference()
            assert is_inference()
        assert not is_inference()

    def test_no_activation_caching(self, rng):
        conv = Conv2d(3, 4, 3, rng=rng)
        relu = ReLU()
        x = rng.random((1, 3, 12, 12), dtype=np.float32)
        with inference_mode():
            relu(conv(x))
        assert conv._cache is None
        assert relu._mask is None
        # Outside the block, training caching resumes.
        relu(conv(x))
        assert conv._cache is not None
        assert relu._mask is not None

    def test_flag_is_per_thread(self):
        seen: dict[str, bool] = {}

        def probe():
            seen["other"] = is_inference()

        with inference_mode():
            thread = threading.Thread(target=probe)
            thread.start()
            thread.join()
        assert seen["other"] is False

    @pytest.mark.parametrize("batch", [2, 5])
    def test_conv_stack_batch_invariant(self, rng, batch):
        net = Sequential(
            Conv2d(3, 6, 3, stride=2, rng=rng),
            ReLU(),
            Conv2d(6, 6, 3, rng=rng),
            ReLU(),
            MaxPool2d(2),
        )
        singles = [rng.random((1, 3, 33, 47), dtype=np.float32) for _ in range(batch)]
        stacked = np.concatenate(singles, axis=0)
        with inference_mode():
            batched = net(stacked)
            for index, single in enumerate(singles):
                np.testing.assert_array_equal(batched[index : index + 1], net(single))

    def test_linear_batch_invariant(self, rng):
        linear = Linear(10, 3, rng=rng)
        x = rng.random((5, 10), dtype=np.float32)
        with inference_mode():
            batched = linear(x)
            for index in range(5):
                np.testing.assert_array_equal(batched[index : index + 1], linear(x[index : index + 1]))


class TestDetectorBatchEquivalence:
    @pytest.mark.parametrize("batch_size", [1, 2, 5])
    def test_detect_batch_matches_per_image_loop(self, micro_bundle, batch_size):
        detector = micro_bundle.ms_detector
        config = micro_bundle.config
        frames = [
            frame
            for snippet in list(micro_bundle.val_dataset)[:2]
            for frame in snippet.frames()
        ][:batch_size]
        scales = [config.adascale.scales[i % len(config.adascale.scales)] for i in range(len(frames))]
        batched = detector.detect_batch(
            [frame.image for frame in frames],
            scales,
            max_long_side=config.adascale.max_long_side,
        )
        for frame, scale, result in zip(frames, scales, batched):
            single = detector.detect(
                frame.image, target_scale=scale, max_long_side=config.adascale.max_long_side
            )
            np.testing.assert_array_equal(result.boxes, single.boxes)
            np.testing.assert_array_equal(result.scores, single.scores)
            np.testing.assert_array_equal(result.class_ids, single.class_ids)
            np.testing.assert_array_equal(result.probs, single.probs)
            np.testing.assert_array_equal(result.proposals, single.proposals)
            np.testing.assert_array_equal(result.features, single.features)
            assert result.scale_factor == single.scale_factor
            assert result.target_scale == single.target_scale
            assert result.image_size == single.image_size

    def test_detect_batch_groups_mixed_shapes(self, micro_bundle):
        """Images whose resized tensors differ in shape still come back right."""
        detector = micro_bundle.ms_detector
        frame = next(iter(micro_bundle.val_dataset)).frames()[0]
        tall = np.ascontiguousarray(frame.image[: frame.image.shape[0] - 8])
        images = [frame.image, tall, frame.image]
        batched = detector.detect_batch(images, 48)
        for image, result in zip(images, batched):
            single = detector.detect(image, target_scale=48)
            np.testing.assert_array_equal(result.boxes, single.boxes)
            np.testing.assert_array_equal(result.scores, single.scores)

    def test_detector_is_thread_safe_in_inference_mode(self, micro_bundle):
        """Concurrent detects on the *shared* detector match the sequential run."""
        detector = micro_bundle.ms_detector
        frames = next(iter(micro_bundle.val_dataset)).frames()
        expected = [detector.detect(frame.image, target_scale=48) for frame in frames]
        results: list = [None] * len(frames)
        errors: list[BaseException] = []

        def work(index: int) -> None:
            try:
                results[index] = detector.detect(frames[index].image, target_scale=48)
            except BaseException as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=work, args=(i,)) for i in range(len(frames))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        for result, reference in zip(results, expected):
            np.testing.assert_array_equal(result.boxes, reference.boxes)
            np.testing.assert_array_equal(result.scores, reference.scores)


class TestRegressorBatchEquivalence:
    def test_predict_batch_matches_per_frame(self, micro_bundle):
        detector = micro_bundle.ms_detector
        regressor = micro_bundle.regressor
        frames = next(iter(micro_bundle.val_dataset)).frames()
        features = [
            detector.detect(frame.image, target_scale=48).features for frame in frames
        ]
        stacked = np.concatenate(features, axis=0)
        batched = regressor.predict_batch(stacked)
        for index, single in enumerate(features):
            assert batched[index] == np.float32(regressor.predict(single))

    def test_predict_next_scales_matches_per_frame(self, micro_bundle):
        adascale = micro_bundle.adascale
        frames = next(iter(micro_bundle.val_dataset)).frames()
        detections = [
            micro_bundle.ms_detector.detect(
                frame.image,
                target_scale=48,
                max_long_side=micro_bundle.config.adascale.max_long_side,
            )
            for frame in frames
        ]
        shapes = [frame.image.shape[:2] for frame in frames]
        batched = adascale.predict_next_scales(detections, shapes)
        for detection, shape, (next_scale, target, _) in zip(detections, shapes, batched):
            ref_scale, ref_target, _ = adascale.predict_next_scale(detection, shape)
            assert next_scale == ref_scale
            assert target == ref_target

    def test_detect_frames_matches_detect_frame(self, micro_bundle):
        adascale = micro_bundle.adascale
        frames = next(iter(micro_bundle.val_dataset)).frames()
        scales = [48] * len(frames)
        batched = adascale.detect_frames([frame.image for frame in frames], scales)
        for frame, scale, output in zip(frames, scales, batched):
            single = adascale.detect_frame(frame.image, scale)
            np.testing.assert_array_equal(output.detection.boxes, single.detection.boxes)
            np.testing.assert_array_equal(output.detection.scores, single.detection.scores)
            assert output.next_scale == single.next_scale
            assert output.regressed_target == single.regressed_target


class TestServingBatchedExecution:
    """Served streams against the unbatched reference, offline Algorithm 1.

    The server has one execution path (stacked micro-batches); the per-frame
    reference is ``process_video`` run on each stream's frames alone.
    """

    @staticmethod
    def _streams(bundle) -> list[list]:
        """Three 6-frame streams, each two validation snippets back to back."""
        snippets = [snippet.frames() for snippet in bundle.val_dataset]
        return [snippets[k % 2] + snippets[(k + 1) % 2] for k in range(3)]

    def _serve(self, bundle, serving: ServingConfig, streams) -> dict:
        with InferenceServer(bundle, serving=serving) as server:
            for frame_index in range(max(len(frames) for frames in streams)):
                for stream_id, frames in enumerate(streams):
                    if frame_index < len(frames):
                        server.submit(stream_id, frames[frame_index].image, frame_index)
            assert server.drain(timeout=120.0)
            return server.finalize()

    @staticmethod
    def _assert_identical(served, scales_used, detections) -> None:
        assert served.completed == len(detections)
        assert served.scales_used == scales_used
        for record, detection in zip(served.records, detections):
            np.testing.assert_array_equal(record.boxes, detection.boxes)
            np.testing.assert_array_equal(record.scores, detection.scores)
            np.testing.assert_array_equal(record.class_ids, detection.class_ids)

    def _check_adascale(self, bundle, initial_scale: int | None) -> list[list[int]]:
        streams = self._streams(bundle)
        serving = ServingConfig(
            num_workers=2, max_batch_size=4, queue_capacity=16, initial_scale=initial_scale
        )
        served = self._serve(bundle, serving, streams)
        assert set(served) == set(range(len(streams)))
        for stream_id, frames in enumerate(streams):
            reference = bundle.adascale.process_video(frames, initial_scale=initial_scale)
            self._assert_identical(
                served[stream_id],
                reference.scales_used,
                [output.detection for output in reference.outputs],
            )
        return [served[stream_id].scales_used for stream_id in served]

    def test_batched_serving_matches_unbatched(self, micro_bundle):
        """Stacked micro-batches agree bit for bit with per-frame Algorithm 1."""
        self._check_adascale(micro_bundle, initial_scale=None)

    @pytest.mark.parametrize("initial_scale", [48, 32])
    def test_batched_serving_matches_unbatched_from_seed_scale(
        self, micro_bundle, initial_scale
    ):
        """Seeded below S_max, the feedback chain moves the scale frame to frame."""
        scales = self._check_adascale(micro_bundle, initial_scale=initial_scale)
        assert all(trace[0] == initial_scale for trace in scales)
        if initial_scale == 32:
            assert any(len(set(trace)) > 1 for trace in scales)

    def test_batched_dff_serving_matches_unbatched(self, micro_bundle):
        """AdaScale+DFF streams agree bit for bit with the offline DFF detector."""
        streams = self._streams(micro_bundle)
        serving = ServingConfig(
            num_workers=2, max_batch_size=4, queue_capacity=16, key_frame_interval=2
        )
        served = self._serve(micro_bundle, serving, streams)
        offline = AdaScaleDFFDetector(
            micro_bundle.ms_detector,
            micro_bundle.regressor,
            key_frame_interval=2,
            config=micro_bundle.config.adascale,
        )
        for stream_id, frames in enumerate(streams):
            reference = offline.process_video(frames)
            self._assert_identical(
                served[stream_id], reference.scales_used, reference.detections
            )
