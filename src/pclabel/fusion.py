"""Label LIDAR points by projecting them into detection boxes.

Every point is projected into every camera; a point whose pixel lands
inside a kept detection box (and inside the image) is labeled with that
detection's class.  When several boxes claim a point, the smallest box
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

    def copy(self) -> "LabeledCloud":
        return LabeledCloud(
            frame_id=self.frame_id,
            class_id=self.class_id.copy(),
            camera_id=self.camera_id.copy(),
            det_index=self.det_index.copy(),
            cluster_id=self.cluster_id.copy(),
            kept=self.kept.copy(),
        )


def _inside(u: np.ndarray, v: np.ndarray, box: BBox) -> np.ndarray:
    """The membership rule: half-open [x_min, x_max) x [y_min, y_max); NaN is outside."""
    return (u >= box.x_min) & (u < box.x_max) & (v >= box.y_min) & (v < box.y_max)


def _visible_pixels(
    cam: CameraModel, xyz: np.ndarray, distortion_mode: bool
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Indices of the points that land inside ``cam``'s image, and their pixels.

    Projects ``cloud_io.BLOCK_ROWS`` rows at a time, so projection
    temporaries never span the whole frame; every step is per row, so the
    result does not depend on the block size.
    """
    image = BBox(0, 0, cam.intrinsics.width, cam.intrinsics.height)
    block = cloud_io.BLOCK_ROWS
    visible, us, vs = [np.empty(0, dtype=np.intp)], [np.empty(0)], [np.empty(0)]
    for lo in range(0, len(xyz), block):
        # the transpose of project_points' pixels is contiguous, so the image
        # test and the gathers read contiguous u and v rows
        u, v = project_points(cam, xyz[lo:lo + block], use_distortion=distortion_mode)[0].T
        # a point at or behind the camera plane has a NaN pixel, which is never inside
        hit = np.flatnonzero(_inside(u, v, image))
        visible.append(hit + lo)
        us.append(u[hit])
        vs.append(v[hit])
        del u, v, hit
    return np.concatenate(visible), np.concatenate(us), np.concatenate(vs)


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
    and keeps only the indices and pixels of its visible points, so the
    working set beyond the frame is one block of projection temporaries plus
    one camera's visible points and the hits of the boxes so far; the labels
    are allocated after the last projection and do not depend on the block
    size.
    """
    rig_by_id = {cam.id: cam for cam in rig}
    unknown = sorted(set(detections) - set(rig_by_id))
    if unknown:
        raise ValueError(f"detections reference camera ids {unknown} absent from rig")
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
        visible, u, v = _visible_pixels(cam, frame.xyz, distortion_mode)
        for det_idx, det in enumerate(dets):
            hit = visible[_inside(u, v, det.box)]
            candidates.append((det.box.area, cam_id, det_idx, det.class_id, hit))
        # each box keeps only its hits: free this camera's pixels before the next projection
        del visible, u, v

    # the labels are allocated only now, so they never overlap a projection
    lc = LabeledCloud.empty(frame.frame_id, len(frame))
    candidates.sort(key=lambda c: (c[0], c[1], c[2]))
    unassigned = np.ones(len(frame), dtype=bool)
    for _area, cam_id, det_idx, class_id, hit in candidates:
        hit = hit[unassigned[hit]]
        if not hit.size:
            continue
        lc.class_id[hit] = class_id
        lc.camera_id[hit] = cam_id
        lc.det_index[hit] = det_idx
        lc.kept[hit] = True
        unassigned[hit] = False
    return lc
