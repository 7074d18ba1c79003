"""Label LIDAR points by projecting them into detection boxes.

Every camera with detections projects every point; a point whose pixel
lands inside a kept detection box (and inside the image) is labeled with
that detection's class.  When several boxes claim a point, the smallest box
wins, with ties broken by lower camera id and then lower detection index.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from . import cloud_io
from .calib import CameraModel, project_points
from .cloud_io import PointCloudFrame
from .detect_ingest import BBox, Detection


@dataclass
class LabeledCloud:
    """Per-point label assignments over one frame, stored as parallel arrays.

    Sentinel -1 encodes absence in the integer columns.  ``kept`` is True
    for labeled points that survived (or have not yet been through)
    denoising, False for unlabeled and dropped points.
    """

    frame_id: int
    class_id: np.ndarray
    camera_id: np.ndarray
    det_index: np.ndarray
    cluster_id: np.ndarray
    kept: np.ndarray

    @classmethod
    def empty(cls, frame_id: int, n: int) -> "LabeledCloud":
        return cls(
            frame_id=frame_id,
            class_id=np.full(n, -1, dtype=np.int32),
            camera_id=np.full(n, -1, dtype=np.int32),
            det_index=np.full(n, -1, dtype=np.int32),
            cluster_id=np.full(n, -1, dtype=np.int32),
            kept=np.zeros(n, dtype=bool),
        )

    def __len__(self) -> int:
        return len(self.class_id)

    @property
    def labeled_mask(self) -> np.ndarray:
        return self.class_id >= 0

    @property
    def n_labeled(self) -> int:
        return int(np.count_nonzero(self.labeled_mask))


def _inside(u: np.ndarray, v: np.ndarray, box: BBox) -> np.ndarray:
    """The membership rule: half-open [x_min, x_max) x [y_min, y_max); NaN is outside."""
    return (u >= box.x_min) & (u < box.x_max) & (v >= box.y_min) & (v < box.y_max)


def label_frame(
    frame: PointCloudFrame,
    rig: Sequence[CameraModel],
    detections: Mapping[int, Sequence[Detection]],
    distortion_mode: bool = False,
) -> LabeledCloud:
    """Assign a detection label to every point whose projection hits a box.

    ``detections`` maps camera id to that camera's (pre-filtered) detection
    list; every key must name a rig camera.  A point at camera depth
    ``calib.DEFAULT_Z_MIN`` or less, or whose pixel lies outside the image,
    never matches a box.  Overlap is resolved per point by smallest box
    area, then lower camera id, then lower detection index.  All labeled
    points start with kept=True; denoising happens downstream.

    Each camera projects the frame ``cloud_io.BLOCK_ROWS`` rows at a time
    and tests its boxes on each block's visible pixels, so the working set
    beyond the frame is one block of projection temporaries plus the hit
    indices of the boxes so far; the labels are allocated after the last
    projection.  Every step is per row, so the result does not depend on
    the block size.
    """
    rig_by_id = {cam.id: cam for cam in rig}
    unknown = sorted(set(detections) - set(rig_by_id))
    if unknown:
        raise ValueError(f"detections reference camera ids {unknown} absent from rig")
    block = cloud_io.BLOCK_ROWS
    candidates = []
    for cam_id in sorted(detections):
        dets = detections[cam_id]
        if not dets:
            continue
        cam = rig_by_id[cam_id]
        bad = [d.camera_id for d in dets if d.camera_id != cam_id]
        if bad:
            raise ValueError(
                f"detection list for camera {cam_id} contains records for camera {bad[0]}"
            )
        image = BBox(0, 0, cam.intrinsics.width, cam.intrinsics.height)
        hits = [[np.empty(0, dtype=np.intp)] for _ in dets]  # each box's hits, block by block
        for lo in range(0, len(frame), block):
            # the transpose of project_points' pixels is contiguous, so the image
            # test and the gathers read contiguous u and v rows
            u, v = project_points(cam, frame.xyz[lo:lo + block], use_distortion=distortion_mode)[0].T
            # a point at or behind the camera plane has a NaN pixel, which is never inside
            visible = np.flatnonzero(_inside(u, v, image))
            u, v = u[visible], v[visible]
            visible += lo
            for det, box_hits in zip(dets, hits):
                box_hits.append(visible[_inside(u, v, det.box)])
            # box_hits too: it would keep the last box's pieces alive past `del hits`
            del u, v, visible, box_hits
        candidates += [
            (det.box.area, cam_id, det_idx, det.class_id, np.concatenate(box_hits))
            for det_idx, (det, box_hits) in enumerate(zip(dets, hits))
        ]
        del hits  # free the blocks' pieces before the next camera projects

    # the labels are allocated only now, so they never overlap a projection;
    # every box writes its hits, smallest last, so the smallest box wins, and
    # of equal areas the lower camera, then the lower detection
    lc = LabeledCloud.empty(frame.frame_id, len(frame))
    candidates.sort(key=lambda c: c[:3], reverse=True)
    for _area, cam_id, det_idx, class_id, hit in candidates:
        lc.class_id[hit] = class_id
        lc.camera_id[hit] = cam_id
        lc.det_index[hit] = det_idx
        lc.kept[hit] = True
    return lc
