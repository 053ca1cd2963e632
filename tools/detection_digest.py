"""Print one sha256 over the detections of the committed benchmark weights.

Runs the ``perf/fixtures/vid_seed0`` detector and regressor on seeded
``vid`` videos and hashes every output byte that an inference change must
leave alone:

* ``detect_batch`` at each of the five regressor-ladder scales, as batches of
  1 and of 4 frames (boxes, scores, class ids, class probabilities,
  proposals and backbone features);
* Algorithm 1 (``AdaScaleDetector.process_video``) over 4 videos (the same
  fields plus each frame's scale and the scale it picked for the next frame).

Two trees that print the same digest produce byte-identical detections.
Usage::

    python tools/detection_digest.py [--seed N]
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

import numpy as np  # noqa: E402

from repro import api  # noqa: E402

FIXTURE_DIR = REPO_ROOT / "perf" / "fixtures" / "vid_seed0"
VIDEOS = 4
FRAMES_PER_VIDEO = 12
FIELDS = ("boxes", "scores", "class_ids", "probs", "proposals", "features")


def _update(digest, detection) -> None:
    for name in FIELDS:
        array = np.ascontiguousarray(getattr(detection, name))
        digest.update(f"{name}:{array.dtype.str}:{array.shape}".encode())
        digest.update(array.tobytes())


def detection_digest(seed: int = 0) -> str:
    """Hex sha256 over the fixture detections described in the module docstring."""
    config = api.load_experiment_config("vid")
    config = config.with_(
        dataset=config.dataset.with_(
            seed=seed,
            num_val_snippets=VIDEOS,
            frames_per_snippet=FRAMES_PER_VIDEO,
            num_train_snippets=1,
        )
    )
    bundle = api.Pipeline.from_bundle(FIXTURE_DIR, config).bundle
    detector = bundle.ms_detector
    max_long_side = config.adascale.max_long_side
    videos = [snippet.frames() for snippet in bundle.val_dataset]
    images = [frame.image for frame in videos[0]]

    digest = hashlib.sha256()
    for scale in config.adascale.regressor_scales:
        for batch in (1, 4):
            for start in range(0, 8, batch):
                chunk = images[start : start + batch]
                for detection in detector.detect_batch(chunk, scale, max_long_side=max_long_side):
                    _update(digest, detection)
    for frames in videos:
        for output in bundle.adascale.process_video(frames).outputs:
            _update(digest, output.detection)
            digest.update(f"scale:{output.scale_used}>{output.next_scale}".encode())
    return digest.hexdigest()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0, help="seed of the rendered videos")
    args = parser.parse_args(argv)
    print(detection_digest(args.seed))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
