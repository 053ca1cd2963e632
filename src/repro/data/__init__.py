"""Synthetic video object-detection datasets.

The paper evaluates on ImageNet VID and a mini YouTube-BoundingBoxes split.
Neither dataset (nor a GPU-scale detector to consume them) is available in
this environment, so this package provides procedurally generated video
datasets that exercise the same code paths and — crucially — the same
*scale phenomena* the paper builds on:

* objects whose projected size varies from a small fraction of the frame to
  nearly the whole frame, so no single scale is optimal for every frame;
* high-frequency background clutter that produces false positives at full
  resolution but vanishes when the image is down-sampled;
* temporal consistency: consecutive frames contain the same objects moving
  smoothly, which is the assumption behind using frame ``k`` to choose the
  scale of frame ``k+1`` (Algorithm 1).
"""

from repro.data.loader import FrameLoader, iterate_frames
from repro.data.mini_ytbb import MiniYTBB
from repro.data.scene import SceneRenderer
from repro.data.shapes import CLASS_SPECS, ShapeSpec, render_shape
from repro.data.synthetic_vid import Snippet, SyntheticVID, VideoFrame
from repro.data.transforms import (
    ResizedImage,
    image_to_chw,
    normalize_image,
    preprocess_frame,
    resize_image,
    resize_with_boxes,
)

__all__ = [
    "CLASS_SPECS",
    "FrameLoader",
    "MiniYTBB",
    "ResizedImage",
    "SceneRenderer",
    "ShapeSpec",
    "Snippet",
    "SyntheticVID",
    "VideoFrame",
    "image_to_chw",
    "iterate_frames",
    "normalize_image",
    "preprocess_frame",
    "render_shape",
    "resize_image",
    "resize_with_boxes",
]
