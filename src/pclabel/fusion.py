"""Label LIDAR points by projecting them into detection boxes.

A point whose pixel lands inside a kept detection box (and inside the
image) is labeled with that detection's class.  When several boxes claim a
point, the smallest box wins, with ties broken by lower camera id and then
lower detection index.  Each camera with detections projects only the
points that can reach one of its boxes: a float32 half-space test, with a
margin that covers its rounding, culls the rest first (``_reachable``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from . import cloud_io
from .calib import MAX_CAMERAS, CameraModel, project_points
from .cloud_io import PointCloudFrame
from .detect_ingest import COCO_CLASSES, BBox, Detection


# the most detections label_frame takes from one camera of a frame, so
# that a detection index fits in an int16
MAX_DETECTIONS_PER_CAMERA = 1 << 15


def _id_dtype(bound: int) -> np.dtype:
    """The narrowest signed integer type that holds -1 and every id below ``bound``."""
    return np.min_scalar_type(-bound)


@dataclass
class LabeledCloud:
    """Per-point label assignments over one frame, stored as parallel arrays.

    Sentinel -1 encodes absence in the integer columns.  ``kept`` is True
    for labeled points that survived (or have not yet been through)
    denoising, False for unlabeled and dropped points.  Each id column has
    the narrowest signed type that holds -1 and every id its producer
    writes, 9 bytes a point in all:
    - ``class_id``: int8, for COCO's 80 class ids (``Detection`` refuses others);
    - ``camera_id``: int8, for ``calib.MAX_CAMERAS`` camera ids;
    - ``det_index``: int16, for ``MAX_DETECTIONS_PER_CAMERA`` detections a
      camera (``label_frame`` refuses more);
    - ``cluster_id``: int32, since k has no bound.
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
            class_id=np.full(n, -1, dtype=_id_dtype(len(COCO_CLASSES))),
            camera_id=np.full(n, -1, dtype=_id_dtype(MAX_CAMERAS)),
            det_index=np.full(n, -1, dtype=_id_dtype(MAX_DETECTIONS_PER_CAMERA)),
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


def _inside(u: np.ndarray, v: np.ndarray, bounds: tuple[float, float, float, float]) -> np.ndarray:
    """The membership rule: half-open [x_lo, x_hi) x [y_lo, y_hi); NaN is outside."""
    x_lo, x_hi, y_lo, y_hi = bounds
    return (u >= x_lo) & (u < x_hi) & (v >= y_lo) & (v < y_hi)


# the cull's rounding allowances, in multiples of a value's scale (see _reachable)
_CULL_F32 = 8 * 2.0 ** -24
_CULL_F64 = 32 * 2.0 ** -53
# below this margin every float32 plane value stays under 2^118, far from overflow
_CULL_MAX_MARGIN = 2.0 ** 96


def _reachable(cam: CameraModel, boxes: Sequence[BBox], distortion: bool):
    """A function from a float32 (n, 3) block of LIDAR rows to the indices
    of the rows whose pixel in ``cam`` may land in one of ``boxes``.

    With (x, y, z) = R p + t the camera-frame point, the pixel u = fx x / z
    + cx lies in [u_lo, u_hi), the union of the boxes' x-ranges clipped to
    the image, only if z > 0 and p is on the inner side of two planes
    through the camera centre: (r0 - a r2) . p + (t0 - a t2) >= 0 and
    (b r2 - r0) . p + (b t2 - t0) >= 0, with a = (u_lo - cx) / fx and
    b = (u_hi - cx) / fx.  With distortion the undistorted edges do not
    bound the distorted pixel, so the planes shrink to the front half-space
    r2 . p + t2 >= 0.

    Each block takes one float32 matrix-vector product per plane (two of
    them measured faster than one product with both planes), and a row is
    kept when every value is at least -margin.  With M the largest
    |coordinate| of the block (NaN ignored), the margin of the plane (w, c)
    is _CULL_F32 (|w|_1 M + |c|) + _CULL_F64 (|r0|_1 M + |t0| + k (|r2|_1 M
    + |t2|)), where k = 1 + max(|a|, |b|) + |cx| / fx:
    - the first term bounds the float32 rounding of the value: w and c
      rounded to float32, the three-term dot product, the sum with c and the
      margin, 7 roundings of at most 2^-24 each;
    - the second bounds, in the plane's units, the float64 rounding of a, b
      and ``project_points``' pixel (pose, division, f x + c), some 20
      roundings of at most 2^-53 each.
    So every row that ``project_points`` puts in front of the camera and, on
    the plain path, in [u_lo, u_hi) is kept.  A NaN row has NaN values and is
    dropped; it projects to no pixel.  A block with a +-inf coordinate has an
    infinite margin, and a block whose margin reaches _CULL_MAX_MARGIN is
    kept whole.
    """
    intr = cam.intrinsics
    (r0, _, r2), t = cam.pose.rotation.tolist(), cam.pose.translation.tolist()
    u_lo = max(0.0, min(box.x_min for box in boxes))
    u_hi = min(float(intr.width), max(box.x_max for box in boxes))
    a, b = (u_lo - intr.cx) / intr.fx, (u_hi - intr.cx) / intr.fx
    # each plane as (w, c): the row p is on its inner side when w . p + c >= 0
    if distortion:
        planes = [(r2, t[2])]
    else:
        planes = [
            ([x - a * z for x, z in zip(r0, r2)], t[0] - a * t[2]),
            ([b * z - x for x, z in zip(r0, r2)], b * t[2] - t[0]),
        ]
    k = 1.0 + max(abs(a), abs(b)) + abs(intr.cx) / intr.fx
    pixel_slope = _CULL_F64 * (sum(map(abs, r0)) + k * sum(map(abs, r2)))
    pixel_floor = _CULL_F64 * (abs(t[0]) + k * abs(t[2]))
    # per plane: w in float32, c, and the margin's slope and floor (margin = slope M + floor)
    planes = [
        (np.array(w, dtype=np.float32), c,
         _CULL_F32 * sum(map(abs, w)) + pixel_slope, _CULL_F32 * abs(c) + pixel_floor)
        for w, c in planes
    ]

    def rows(xyz: np.ndarray) -> np.ndarray:
        big = float(max(np.fmax.reduce(xyz, axis=None), -np.fmin.reduce(xyz, axis=None)))
        margins = [slope * big + floor for _, _, slope, floor in planes]
        if not max(margins) < _CULL_MAX_MARGIN:  # also an infinite or all-NaN block
            return np.arange(len(xyz))
        with np.errstate(invalid="ignore"):  # NaN rows
            lowest = None
            for (w, c, _, _), margin in zip(planes, margins):
                value = xyz @ w
                value += np.float32(c + margin)
                lowest = value if lowest is None else np.minimum(lowest, value, out=lowest)
            return (lowest >= 0).nonzero()[0]

    return rows


def label_frame(
    frame: PointCloudFrame,
    rig: Sequence[CameraModel],
    detections: Mapping[int, Sequence[Detection]],
    distortion_mode: bool = False,
) -> LabeledCloud:
    """Assign a detection label to every point whose projection hits a box.

    ``detections`` maps camera id to that camera's (pre-filtered) detection
    list; every key must name a rig camera, and each list may hold at most
    ``MAX_DETECTIONS_PER_CAMERA`` records, all of its camera; otherwise
    ValueError names the camera before anything is projected.  A point at
    camera depth ``calib.DEFAULT_Z_MIN`` or less, or whose pixel lies
    outside the image, never matches a box.  Overlap is resolved per point
    by smallest box area, then lower camera id, then lower detection index.
    All labeled points start with kept=True; denoising happens downstream.

    Each camera reads the frame ``cloud_io.BLOCK_ROWS`` rows at a time.  A
    float32 half-space test culls the rows of a block that cannot reach one
    of the camera's boxes (``_reachable``: without distortion, the left and
    right edges of the boxes' union; with it, the front half-space), and
    only the rows it keeps are taken, projected by ``project_points`` and
    tested against the boxes; a block that keeps no row projects nothing.
    The cull's margin covers its rounding, so the labels are those of
    projecting every row.  The working set beyond the frame is one block's
    plane values (8 bytes a row) and the kept rows' projection temporaries,
    plus the hit indices of the boxes so far; the labels are allocated
    after the last projection.  Every step is per row, so the result does
    not depend on the block size.
    """
    rig_by_id = {cam.id: cam for cam in rig}
    unknown = sorted(set(detections) - set(rig_by_id))
    if unknown:
        raise ValueError(f"detections reference camera ids {unknown} absent from rig")
    for cam_id in sorted(detections):
        dets = detections[cam_id]
        bad = [d.camera_id for d in dets if d.camera_id != cam_id]
        if bad:
            raise ValueError(
                f"detection list for camera {cam_id} contains records for camera {bad[0]}"
            )
        if len(dets) > MAX_DETECTIONS_PER_CAMERA:
            raise ValueError(
                f"camera {cam_id} has {len(dets)} detections, "
                f"more than the {MAX_DETECTIONS_PER_CAMERA} a camera may have in a frame"
            )
    block = cloud_io.BLOCK_ROWS
    candidates = []
    for cam_id in sorted(detections):
        dets = detections[cam_id]
        if not dets:
            continue
        cam = rig_by_id[cam_id]
        boxes = [det.box for det in dets]
        reachable = _reachable(cam, boxes, distortion_mode)
        # each box clipped to the image once: a pixel lies in both when it lies
        # in the clipped box, which is empty for a box wholly outside the image
        w, h = cam.intrinsics.width, cam.intrinsics.height
        bounds = [(max(b.x_min, 0), min(b.x_max, w), max(b.y_min, 0), min(b.y_max, h)) for b in boxes]
        hits = [[np.empty(0, dtype=np.intp)] for _ in dets]  # each box's hits, block by block
        for lo in range(0, len(frame), block):
            xyz = frame.xyz[lo:lo + block]
            rows = reachable(xyz)
            if not len(rows):
                continue
            # the transpose of project_points' pixels is contiguous, so each
            # box's test reads contiguous u and v rows
            u, v = project_points(cam, np.take(xyz, rows, axis=0), use_distortion=distortion_mode)[0].T
            rows += lo
            # a point at or behind the camera plane has a NaN pixel, which is never inside
            for box, box_hits in zip(bounds, hits):
                box_hits.append(rows[_inside(u, v, box)])
            # box_hits too: it would keep the last box's pieces alive past `del hits`
            del u, v, rows, box_hits
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
