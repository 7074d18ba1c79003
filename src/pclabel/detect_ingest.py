"""Ingest 2D detector output: parse record files, validate, and filter.

Detection files carry one record per line:

    camera_id frame_id class_id confidence x_min y_min x_max y_max

with '#' comment lines.  Box coordinates are pixels in undistorted image
coordinates.  Class ids follow the 80-entry COCO table below.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

from .calib import CameraModel
from .cloud_io import read_text

COCO_CLASSES = (
    "person", "bicycle", "car", "motorbike", "aeroplane", "bus", "train",
    "truck", "boat", "traffic light", "fire hydrant", "stop sign",
    "parking meter", "bench", "bird", "cat", "dog", "horse", "sheep", "cow",
    "elephant", "bear", "zebra", "giraffe", "backpack", "umbrella",
    "handbag", "tie", "suitcase", "frisbee", "skis", "snowboard",
    "sports ball", "kite", "baseball bat", "baseball glove", "skateboard",
    "surfboard", "tennis racket", "bottle", "wine glass", "cup", "fork",
    "knife", "spoon", "bowl", "banana", "apple", "sandwich", "orange",
    "broccoli", "carrot", "hot dog", "pizza", "donut", "cake", "chair",
    "sofa", "pottedplant", "bed", "diningtable", "toilet", "tvmonitor",
    "laptop", "mouse", "remote", "keyboard", "cell phone", "microwave",
    "oven", "toaster", "sink", "refrigerator", "book", "clock", "vase",
    "scissors", "teddy bear", "hair drier", "toothbrush",
)
CLASS_NAME_TO_ID = {name: i for i, name in enumerate(COCO_CLASSES)}


@dataclass(frozen=True)
class BBox:
    """Axis-aligned box in pixels; fusion tests membership half-open ([min, max))."""

    x_min: float
    y_min: float
    x_max: float
    y_max: float

    def __post_init__(self) -> None:
        for name in ("x_min", "y_min", "x_max", "y_max"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"box coordinate {name} is not finite")
        if not self.x_min < self.x_max:
            raise ValueError(f"x_min must be < x_max, got {self.x_min} >= {self.x_max}")
        if not self.y_min < self.y_max:
            raise ValueError(f"y_min must be < y_max, got {self.y_min} >= {self.y_max}")

    @property
    def width(self) -> float:
        return self.x_max - self.x_min

    @property
    def height(self) -> float:
        return self.y_max - self.y_min

    @property
    def area(self) -> float:
        return self.width * self.height


@dataclass(frozen=True)
class Detection:
    camera_id: int
    frame_id: int
    class_id: int
    confidence: float
    box: BBox

    def __post_init__(self) -> None:
        if not 0 <= self.class_id < len(COCO_CLASSES):
            raise ValueError(f"unknown class id {self.class_id}")
        if not (math.isfinite(self.confidence) and 0.0 <= self.confidence <= 1.0):
            raise ValueError(f"confidence must be in [0, 1], got {self.confidence}")

    @property
    def class_name(self) -> str:
        return COCO_CLASSES[self.class_id]


@dataclass(frozen=True)
class RejectedRecord:
    line_no: int
    line: str
    reason: str


def load_detections(path: str | Path) -> tuple[list[Detection], list[RejectedRecord]]:
    """Parse a detection file; invalid records are collected, not fatal.

    Returns (detections, rejected); each rejection carries the line number
    and reason (malformed value, unknown class id, confidence out of range,
    degenerate box).  Bytes that are not text raise ValueError naming the
    file.
    """
    detections: list[Detection] = []
    rejected: list[RejectedRecord] = []
    text = read_text(Path(path))
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if len(tokens) != 8:
            rejected.append(RejectedRecord(line_no, raw, f"expected 8 fields, got {len(tokens)}"))
            continue
        try:
            camera_id = int(tokens[0])
            frame_id = int(tokens[1])
            class_id = int(tokens[2])
            confidence = float(tokens[3])
            coords = [float(t) for t in tokens[4:8]]
        except ValueError as e:
            rejected.append(RejectedRecord(line_no, raw, f"malformed value: {e}"))
            continue
        try:
            box = BBox(*coords)
            detections.append(Detection(camera_id, frame_id, class_id, confidence, box))
        except ValueError as e:
            rejected.append(RejectedRecord(line_no, raw, str(e)))
    return detections, rejected


def filter_oversized(
    dets: Sequence[Detection], cam: CameraModel
) -> tuple[list[Detection], list[Detection]]:
    """Partition detections by the quarter-image rule.

    A box whose area exceeds width*height/4 of the camera image covers the
    black border left by undistortion and is treated as noise.  Boxes of
    exactly a quarter area are kept (the rule rejects strictly greater).
    Order is preserved in both halves.
    """
    threshold = cam.intrinsics.width * cam.intrinsics.height / 4.0
    kept: list[Detection] = []
    rejected: list[Detection] = []
    for det in dets:
        (rejected if det.box.area > threshold else kept).append(det)
    return kept, rejected


def restrict_classes(dets: Sequence[Detection], allow: Iterable[int]) -> list[Detection]:
    """Keep detections whose class id is in ``allow``; empty set keeps all."""
    allowed = set(allow)
    if not allowed:
        return list(dets)
    return [d for d in dets if d.class_id in allowed]
