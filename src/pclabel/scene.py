"""Synthetic scene generation: planted objects, frustum noise, ground truth.

Builds everything the pipeline consumes from scratch: a ring rig of
cameras, per-frame point clouds holding ellipsoidal object blobs plus
uniform in-frustum noise, matching detection files whose boxes are derived
from the actual point projections, manifests, and a ground-truth table
mapping every point to its planted object (or -1 for noise).
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .calib import (
    MAX_CAMERAS, CameraModel, DistortionCoeffs, ExtrinsicPose, Intrinsics,
    camera_to_lidar, project_points, save_rig,
)
from .cloud_io import (
    PointCloudFrame, check_count, check_number, parse_rows, read_lines, write_manifest, write_pcd,
)
from .detect_ingest import BBox, Detection, filter_oversized, write_detections

# The classes the detector sees most in road scenes.
_OBJECT_CLASSES = (2, 0, 7)  # car, person, truck
_BOX_PAD_PX = 2.0
_OBJECT_DEPTH_RANGE = (7.0, 15.0)
_NOISE_DEPTH_RANGE = (2.5, 55.0)
_LIDAR_PERIOD = 0.1
_CAMERA_OFFSET = 0.005
# one ground-truth line: "frame_id point_index object_id"
_GROUND_TRUTH_ROW = np.dtype([("frame", "<i8"), ("index", "<i8"), ("object", "<i8")])
# ground truth may list point indices below this; a LIDAR sweep holds far fewer
# points, and read_ground_truth allocates one entry per index up to the largest
MAX_FRAME_POINTS = 1 << 24


class SceneError(ValueError):
    """Scene construction failed (object not visible to its camera)."""


def default_rig(
    n_cameras: int = 5,
    width: int = 640,
    height: int = 480,
    focal: float = 500.0,
) -> list[CameraModel]:
    """A ring of cameras covering the full azimuth, camera i yawed 360/n * i degrees.

    Camera axes: z forward along the view direction, x right, y down;
    the LIDAR frame is x forward, y left, z up.  More than ``MAX_CAMERAS``
    cameras raise ValueError naming ``cameras``; none give an empty rig,
    which ``gen_scene`` refuses.
    """
    if check_count("cameras", n_cameras) > MAX_CAMERAS:
        raise ValueError(f"cameras must be <= {MAX_CAMERAS}, got {n_cameras}")
    rig = []
    for i in range(n_cameras):
        yaw = 2.0 * math.pi * i / n_cameras
        c, s = math.cos(yaw), math.sin(yaw)
        rotation = np.array(
            [
                [s, -c, 0.0],   # image right
                [0.0, 0.0, -1.0],  # image down
                [c, s, 0.0],    # optical axis
            ]
        )
        center = 0.1 * np.array([c, s, 0.0])  # camera sits slightly outward
        translation = -rotation @ center
        rig.append(
            CameraModel(
                id=i,
                intrinsics=Intrinsics(
                    fx=focal, fy=focal, cx=width / 2.0, cy=height / 2.0,
                    width=width, height=height,
                ),
                distortion=DistortionCoeffs(),
                pose=ExtrinsicPose(rotation, translation),
            )
        )
    return rig


@dataclass(frozen=True)
class ScenePaths:
    """Locations of everything gen_scene wrote."""

    out_dir: Path
    calibration: Path
    cloud_manifest: Path
    detection_manifest: Path
    ground_truth: Path
    n_frames: int
    n_objects: int


@dataclass
class _PlantedObject:
    camera: CameraModel
    class_id: int
    base_xn: float
    base_yn: float
    depth: float
    radii: np.ndarray
    drift_xn: float
    drift_yn: float
    drift_depth: float


def _sample_ellipsoid(rng: np.random.Generator, n: int, radii: np.ndarray) -> np.ndarray:
    dirs = rng.normal(size=(n, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    radius = rng.uniform(0.0, 1.0, size=n) ** (1.0 / 3.0)
    return dirs * radius[:, None] * radii


def format_ground_truth(rows: np.ndarray) -> bytes:
    """``"%d %d %d\\n" % row`` for every (frame, index, object) row, without a
    per-row Python loop.

    Each row becomes one line of a byte matrix, every value right-aligned
    in its column's widest digit count behind a sign byte; the leading
    zeros and absent signs are 0 bytes, dropped at the end.  Frame and
    index are >= 0 and object >= -1, as gen_scene writes them.
    """
    cols = [(rows["frame"], " "), (rows["index"], " "), (rows["object"], "\n")]
    widths = [len(str(int(np.abs(col).max()))) if len(rows) else 1 for col, _ in cols]
    mat = np.zeros((len(rows), sum(widths) + 2 * len(cols)), dtype=np.uint8)
    j = 0
    for (col, end), width in zip(cols, widths):
        mag = np.abs(col)
        mat[col < 0, j] = ord("-")
        j += 1
        for power in range(width - 1, -1, -1):
            scale = 10 ** power
            digit = mag // scale % 10 + ord("0")
            if power:
                digit[mag < scale] = 0  # a leading zero
            mat[:, j] = digit
            j += 1
        mat[:, j] = ord(end)
        j += 1
    return mat[mat != 0].tobytes()


def gen_scene(
    out_dir: str | Path,
    frames: int = 20,
    objects: int = 3,
    noise_fraction: float = 0.3,
    seed: int = 0,
    rig: list[CameraModel] | None = None,
    points_per_object: int = 900,
) -> ScenePaths:
    """Generate a full synthetic input set under ``out_dir``.

    Each planted object is an ellipsoidal blob placed in front of one rig
    camera; its detection box is the padded extent of the blob's actual
    projections, so every object point is guaranteed to fall inside its
    box.  Object j's record (``detect_ingest.write_detections``) holds that
    box to 3 decimals and a confidence of 0.95 - 0.02 (j mod 48), from 0.95
    down to 0.01.  ``noise_fraction`` of each box's labeled points is
    uniform frustum noise spread over a long depth range, planted by
    sampling a pixel inside the box and a depth, then unprojecting.

    Ground truth lines are "frame_id point_index object_id" with -1 for
    noise points.  Before anything is written, a count below its minimum
    (``frames``, ``points_per_object`` >= 1; ``objects``, ``seed`` >= 0) or
    of another type, a ``noise_fraction`` outside [0, 1) or an empty rig
    raise ValueError naming the parameter.  Raises SceneError if an object
    cannot be placed fully inside its camera's view, or if its record's box
    covers more than a quarter of the image (``filter_oversized``).
    """
    for name, value, minimum in (
        ("frames", frames, 1), ("objects", objects, 0),
        ("points_per_object", points_per_object, 1), ("seed", seed, 0),
    ):
        if check_count(name, value) < minimum:
            raise ValueError(f"{name} must be >= {minimum}, got {value}")
    if not 0.0 <= check_number("noise fraction", noise_fraction) < 1.0:
        raise ValueError(f"noise fraction must be in [0, 1), got {noise_fraction}")
    if rig is None:
        rig = default_rig()
    if not rig:
        raise ValueError("rig must hold at least one camera")
    out = Path(out_dir)
    (out / "clouds").mkdir(parents=True, exist_ok=True)
    (out / "dets").mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    calib_path = out / "calibration.json"
    save_rig(rig, calib_path)

    planted = []
    for j in range(objects):
        planted.append(
            _PlantedObject(
                camera=rig[j % len(rig)],
                class_id=_OBJECT_CLASSES[j % len(_OBJECT_CLASSES)],
                base_xn=rng.uniform(-0.18, 0.18),
                base_yn=rng.uniform(-0.10, 0.10),
                depth=rng.uniform(*_OBJECT_DEPTH_RANGE),
                radii=rng.uniform(0.35, 0.9, size=3),
                drift_xn=rng.uniform(-0.003, 0.003),
                drift_yn=rng.uniform(-0.0015, 0.0015),
                drift_depth=rng.uniform(-0.05, 0.05),
            )
        )

    cloud_rows = []
    det_rows = []
    gt_blocks: list[np.ndarray] = []
    noise_lo, noise_hi = _NOISE_DEPTH_RANGE
    for f in range(frames):
        cloud_t = f * _LIDAR_PERIOD
        det_t = cloud_t + _CAMERA_OFFSET
        blocks: list[np.ndarray] = [np.zeros((0, 3))]  # concatenates even with no objects
        noise_blocks: list[np.ndarray] = []
        dets_by_cam: dict[int, list[Detection]] = {cam.id: [] for cam in rig}
        for j, obj in enumerate(planted):
            cam = obj.camera
            intr = cam.intrinsics
            depth = obj.depth + f * obj.drift_depth
            center_cam = depth * np.array(
                [obj.base_xn + f * obj.drift_xn, obj.base_yn + f * obj.drift_yn, 1.0]
            )
            pts_cam = center_cam + _sample_ellipsoid(rng, points_per_object, obj.radii)
            pts = camera_to_lidar(cam, pts_cam)
            u, v = project_points(cam, pts)[0].T
            x_min = float(u.min()) - _BOX_PAD_PX
            x_max = float(u.max()) + _BOX_PAD_PX
            y_min = float(v.min()) - _BOX_PAD_PX
            y_max = float(v.max()) + _BOX_PAD_PX
            if x_min < 0 or y_min < 0 or x_max > intr.width or y_max > intr.height:
                raise SceneError(
                    f"object {j} does not fit inside camera {cam.id} "
                    f"(box {x_min:.0f},{y_min:.0f},{x_max:.0f},{y_max:.0f})"
                )
            det = Detection(
                cam.id, f, obj.class_id, round(0.95 - 0.02 * (j % 48), 2),
                BBox(*(round(c, 3) for c in (x_min, y_min, x_max, y_max))),
            )
            if filter_oversized([det], cam)[1]:
                raise SceneError(f"object {j} box exceeds a quarter of camera {cam.id} image")
            blocks.append(pts)
            dets_by_cam[cam.id].append(det)
            if noise_fraction > 0.0:
                n_noise = int(round(points_per_object * noise_fraction / (1.0 - noise_fraction)))
                nu = rng.uniform(x_min + 0.5, x_max - 0.5, size=n_noise)
                nv = rng.uniform(y_min + 0.5, y_max - 0.5, size=n_noise)
                # uniform over the frustum volume: slice area grows with depth
                # squared, so depth follows the cube-root inverse CDF
                cube = rng.uniform(noise_lo ** 3, noise_hi ** 3, size=n_noise)
                nd = np.cbrt(cube)
                noise_cam = np.stack(
                    [(nu - intr.cx) / intr.fx * nd, (nv - intr.cy) / intr.fy * nd, nd], axis=1
                )
                noise_blocks.append(camera_to_lidar(cam, noise_cam))

        xyz = np.concatenate(blocks + noise_blocks).astype(np.float32)
        objid = np.full(len(xyz), -1, dtype=np.int64)  # objects first, then noise
        objid[: len(planted) * points_per_object] = np.arange(len(planted)).repeat(points_per_object)
        frame = PointCloudFrame(
            frame_id=f,
            timestamp=cloud_t,
            xyz=xyz,
            intensity=rng.uniform(0.0, 1.0, size=len(xyz)).astype(np.float32),
        )
        cloud_rel = f"clouds/frame_{f:06d}.pcd"
        # per-frame files are opened by text path: pathlib interns every
        # component of a path it parses (see cloud_io.IndexEntry)
        write_pcd(frame, os.path.join(out, cloud_rel))
        cloud_rows.append(("cloud", f, cloud_t, cloud_rel))
        for cam in rig:
            det_rel = f"dets/frame_{f:06d}_cam{cam.id}.txt"
            write_detections(os.path.join(out, det_rel), dets_by_cam[cam.id], f"camera {cam.id}, frame {f}")
            det_rows.append((f"cam{cam.id}", f, det_t, det_rel))
        gt_blocks.append(np.rec.fromarrays(
            [np.full(len(objid), f), np.arange(len(objid)), objid], dtype=_GROUND_TRUTH_ROW
        ))

    cloud_manifest = out / "clouds.manifest"
    det_manifest = out / "dets.manifest"
    write_manifest(cloud_manifest, cloud_rows)
    # group detection rows by stream so each stream's timestamps stay ordered
    det_rows.sort(key=lambda r: (r[0], r[1]))
    write_manifest(det_manifest, det_rows)
    gt_path = out / "ground_truth.txt"
    gt_path.write_bytes(format_ground_truth(np.concatenate(gt_blocks)))
    return ScenePaths(
        out_dir=out,
        calibration=calib_path,
        cloud_manifest=cloud_manifest,
        detection_manifest=det_manifest,
        ground_truth=gt_path,
        n_frames=frames,
        n_objects=objects,
    )


def read_ground_truth(path: str | Path) -> dict[int, np.ndarray]:
    """Load a ground-truth file as {frame_id: object id per point index}.

    Indices a frame does not list read as -1.  The file is read as UTF-8 by
    ``read_lines``.  The first line, in file order, that is malformed or not
    UTF-8 raises ValueError naming the file and line; a negative index, an
    index of ``MAX_FRAME_POINTS`` or more, or a point a frame lists twice,
    one naming the file.
    """
    p = Path(path)
    lines: list[str] = []
    try:
        lines.extend(read_lines(p))
    except ValueError:
        parse_rows(lines, _GROUND_TRUTH_ROW, p)  # a malformed line above the undecodable one is named
        raise
    rows = parse_rows(lines, _GROUND_TRUTH_ROW, p)
    if (rows["index"] < 0).any():
        raise ValueError(f"{p}: negative point index {rows['index'].min()}")
    rows = rows[np.lexsort((rows["index"], rows["frame"]))]
    repeated = np.flatnonzero((np.diff(rows["frame"]) == 0) & (np.diff(rows["index"]) == 0))
    if repeated.size:
        f, i = rows["frame"][repeated[0]], rows["index"][repeated[0]]
        raise ValueError(f"{p}: frame {f} lists point {i} twice")
    frames, starts = np.unique(rows["frame"], return_index=True)
    out = {}
    for f, group in zip(frames.tolist(), np.split(rows, starts[1:])):
        last = int(group["index"][-1])  # the sort puts each frame's largest index last
        if last >= MAX_FRAME_POINTS:
            raise ValueError(
                f"{p}: frame {f} lists point {last}; a frame holds at most {MAX_FRAME_POINTS} points"
            )
        out[f] = np.full(last + 1, -1, dtype=np.int64)
        out[f][group["index"]] = group["object"]
    return out
