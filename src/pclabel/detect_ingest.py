"""2D detector output: parse, validate, filter and write record files.

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
from .cloud_io import ascii_number, read_lines, records

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
    def area(self) -> float:
        return (self.x_max - self.x_min) * (self.y_max - self.y_min)


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
    and reason (malformed value, including a number that is not ASCII or
    holds '_'; unknown class id, confidence out of range, degenerate box).
    Bytes that are not UTF-8 (``read_lines``) raise ValueError naming ``path:line``.
    """
    detections: list[Detection] = []
    rejected: list[RejectedRecord] = []
    for line_no, tokens, raw in records(read_lines(path)):
        if len(tokens) != 8:
            rejected.append(RejectedRecord(line_no, raw, f"expected 8 fields, got {len(tokens)}"))
            continue
        try:
            camera_id = ascii_number(tokens[0], int)
            frame_id = ascii_number(tokens[1], int)
            class_id = ascii_number(tokens[2], int)
            confidence = ascii_number(tokens[3], float)
            coords = [ascii_number(t, float) for t in tokens[4:8]]
        except ValueError as e:
            rejected.append(RejectedRecord(line_no, raw, f"malformed value: {e}"))
            continue
        try:
            detections.append(Detection(camera_id, frame_id, class_id, confidence, BBox(*coords)))
        except ValueError as e:
            rejected.append(RejectedRecord(line_no, raw, str(e)))
    return detections, rejected


def write_detections(path: str | Path, detections: Iterable[Detection], comment: str = "") -> None:
    """Write ``detections`` for ``load_detections``, under a ``# comment`` line if one is
    given: confidences to 2 decimals and corners to 3, so each reads back as its rounding.
    A box that rounds to an empty one raises ValueError before the file is opened."""
    lines = [f"# {comment}\n"] if comment else []
    for d in detections:
        corners = [f"{c:.3f}" for c in (d.box.x_min, d.box.y_min, d.box.x_max, d.box.y_max)]
        BBox(*map(float, corners))  # the box as it reads back
        lines.append(f"{d.camera_id} {d.frame_id} {d.class_id} {d.confidence:.2f} {' '.join(corners)}\n")
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(lines)


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
