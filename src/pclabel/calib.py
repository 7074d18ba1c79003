"""Camera geometry: calibration files, rigid transforms, lens distortion, projection.

The distortion model is the 5-coefficient Brown-Conrady polynomial
(k1, k2, k3 radial; p1, p2 tangential) operating on normalized image
coordinates.  Extrinsic poses map LIDAR-frame coordinates into the camera
frame (p_cam = R @ p_lidar + t); ``camera_to_lidar`` inverts them.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

DEFAULT_Z_MIN = 1e-6
ROTATION_TOL = 1e-9
UNDISTORT_MAX_ITER = 50
UNDISTORT_STEP_TOL = 1e-10
MAX_CAMERAS = 5


class CalibrationError(ValueError):
    """A calibration file or camera parameter set violates the schema."""


@dataclass(frozen=True)
class Intrinsics:
    """Pinhole parameters and image size, all in pixels."""

    fx: float
    fy: float
    cx: float
    cy: float
    width: int
    height: int

    def __post_init__(self) -> None:
        for name in ("fx", "fy", "cx", "cy"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise CalibrationError(f"{name} must be finite, got {v}")
        if self.fx <= 0 or self.fy <= 0:
            raise CalibrationError(f"focal lengths must be positive, got fx={self.fx} fy={self.fy}")
        if self.width <= 0 or self.height <= 0:
            raise CalibrationError(f"image size must be positive, got {self.width}x{self.height}")
        if not (0 <= self.cx < self.width) or not (0 <= self.cy < self.height):
            raise CalibrationError(
                f"principal point ({self.cx}, {self.cy}) outside image {self.width}x{self.height}"
            )


@dataclass(frozen=True)
class DistortionCoeffs:
    """Brown-Conrady coefficients, in the conventional (k1, k2, p1, p2, k3) file order."""

    k1: float = 0.0
    k2: float = 0.0
    p1: float = 0.0
    p2: float = 0.0
    k3: float = 0.0

    def __post_init__(self) -> None:
        for name in ("k1", "k2", "p1", "p2", "k3"):
            if not math.isfinite(getattr(self, name)):
                raise CalibrationError(f"distortion coefficient {name} is not finite")


@dataclass(frozen=True)
class ExtrinsicPose:
    """Rigid LIDAR-to-camera transform: rotation (3x3, row-major) and translation (meters)."""

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self) -> None:
        r = np.array(self.rotation, dtype=np.float64)
        if r.size == 9:
            r = r.reshape(3, 3)
        if r.shape != (3, 3):
            raise CalibrationError(f"rotation must be 3x3 (or 9 row-major values), got shape {r.shape}")
        t = np.array(self.translation, dtype=np.float64).reshape(-1)
        if t.shape != (3,):
            raise CalibrationError(f"translation must have 3 components, got {t.shape}")
        if not np.isfinite(r).all() or not np.isfinite(t).all():
            raise CalibrationError("pose contains non-finite values")
        with np.errstate(over="ignore", invalid="ignore"):  # a huge entry gives inf or NaN
            err = np.abs(r.T @ r - np.eye(3)).max()
        if not err < ROTATION_TOL:
            raise CalibrationError(f"rotation is not orthonormal (max |R^T R - I| = {err:.3e})")
        det = float(np.linalg.det(r))
        if abs(det - 1.0) >= ROTATION_TOL:
            raise CalibrationError(f"rotation determinant is {det:.12f}, expected +1")
        r.flags.writeable = False
        t.flags.writeable = False
        object.__setattr__(self, "rotation", r)
        object.__setattr__(self, "translation", t)

    @classmethod
    def identity(cls) -> "ExtrinsicPose":
        return cls(np.eye(3), np.zeros(3))


@dataclass(frozen=True)
class CameraModel:
    """One calibrated camera of the rig."""

    id: int
    intrinsics: Intrinsics
    distortion: DistortionCoeffs
    pose: ExtrinsicPose

    def __post_init__(self) -> None:
        if not (0 <= self.id < MAX_CAMERAS):
            raise CalibrationError(f"camera id must be in [0, {MAX_CAMERAS}), got {self.id}")


_CAMERA_KEYS = {
    "id", "width", "height", "fx", "fy", "cx", "cy", "dist", "rotation", "translation",
}


def _is_number(v: object) -> bool:
    """JSON's number rule: an int or a float, never a bool."""
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _number(v: object, key: str) -> float:
    if not _is_number(v):
        raise CalibrationError(f"field '{key}' must hold numbers, got {v!r}")
    try:
        return float(v)
    except OverflowError:
        raise CalibrationError(f"field '{key}' holds an integer too large for a float") from None


def _integer(v: object, key: str) -> int:
    if not (_is_number(v) and isinstance(v, int)):
        raise CalibrationError(f"field '{key}' must be an integer, got {v!r}")
    return v


def _number_list(v: object, key: str, length: int) -> list[float]:
    if not isinstance(v, list) or len(v) != length:
        raise CalibrationError(f"field '{key}' must be a list of {length} numbers")
    return [_number(x, key) for x in v]


def _parse_camera(entry: object, position: int, path: Path) -> CameraModel:
    """One "cameras" entry; an error names the file and the camera (its position until its id is read)."""
    where = f"{path}: camera entry #{position}"
    try:
        if not isinstance(entry, dict):
            raise CalibrationError("expected an object")
        unknown = set(entry) - _CAMERA_KEYS
        if unknown:
            raise CalibrationError(f"unknown keys {sorted(unknown)}")
        missing = _CAMERA_KEYS - set(entry)
        if missing:
            raise CalibrationError(f"missing keys {sorted(missing)}")
        cam_id = _integer(entry["id"], "id")
        where = f"{path}: camera {cam_id}"
        intr = Intrinsics(
            *(_number(entry[key], key) for key in ("fx", "fy", "cx", "cy")),
            *(_integer(entry[key], key) for key in ("width", "height")),
        )
        # the file's dist order is DistortionCoeffs' field order
        dist = DistortionCoeffs(*_number_list(entry["dist"], "dist", 5))
        pose = ExtrinsicPose(
            _number_list(entry["rotation"], "rotation", 9),
            _number_list(entry["translation"], "translation", 3),
        )
        return CameraModel(id=cam_id, intrinsics=intr, distortion=dist, pose=pose)
    except CalibrationError as e:
        raise CalibrationError(f"{where}: {e}") from e


def load_rig(path: str | Path) -> list[CameraModel]:
    """Load and validate a camera rig from a calibration JSON file.

    The file holds a single top-level key "cameras": a list of 1 to 5
    entries, each with id, width, height, fx, fy, cx, cy,
    dist=[k1,k2,p1,p2,k3], rotation (9 row-major values, LIDAR to camera)
    and translation (3 values, meters).  Unknown keys are rejected.  Any
    violation raises CalibrationError naming the file, and the camera
    where one is to blame.
    """
    p = Path(path)
    try:
        raw = json.loads(p.read_text())
    except ValueError as e:  # also bytes that are not UTF-8, and over-long integers
        raise CalibrationError(f"{p}: not valid JSON: {e}") from e
    if not isinstance(raw, dict):
        raise CalibrationError(f"{p}: top level must be an object")
    unknown = set(raw) - {"cameras"}
    if unknown:
        raise CalibrationError(f"{p}: unknown top-level keys {sorted(unknown)}")
    cameras = raw.get("cameras")
    if not isinstance(cameras, list):
        raise CalibrationError(f"{p}: 'cameras' must be a list")
    if not 1 <= len(cameras) <= MAX_CAMERAS:
        raise CalibrationError(f"{p}: rig must hold 1 to {MAX_CAMERAS} cameras, got {len(cameras)}")
    models = []
    seen: set[int] = set()
    for i, entry in enumerate(cameras):
        model = _parse_camera(entry, i, p)
        if model.id in seen:
            raise CalibrationError(f"{p}: duplicate camera id {model.id}")
        seen.add(model.id)
        models.append(model)
    return models


def distort_normalized(d: DistortionCoeffs, xn, yn):
    """Apply Brown-Conrady distortion to normalized coordinates.

    Accepts scalars or numpy arrays; returns the same kind.
    """
    r2 = xn * xn + yn * yn
    radial = 1.0 + d.k1 * r2 + d.k2 * r2 * r2 + d.k3 * r2 * r2 * r2
    xd = xn * radial + 2.0 * d.p1 * xn * yn + d.p2 * (r2 + 2.0 * xn * xn)
    yd = yn * radial + d.p1 * (r2 + 2.0 * yn * yn) + 2.0 * d.p2 * xn * yn
    return xd, yd


def undistort_normalized(d: DistortionCoeffs, xd, yd):
    """Invert the distortion model by fixed-point iteration.

    Starting from the distorted coordinates, each step divides out the
    radial factor and subtracts the tangential terms evaluated at the
    current estimate.  Stops when the max-norm step falls below
    ``UNDISTORT_STEP_TOL``; raises ValueError if ``UNDISTORT_MAX_ITER``
    iterations do not converge (the input is outside the model's
    invertible region).  Accepts scalars or numpy arrays; a scalar comes
    back as a numpy float64.
    """
    x = xd_a = np.asarray(xd, dtype=np.float64)
    y = yd_a = np.asarray(yd, dtype=np.float64)
    for _ in range(UNDISTORT_MAX_ITER):
        r2 = x * x + y * y
        radial = 1.0 + d.k1 * r2 + d.k2 * r2 * r2 + d.k3 * r2 * r2 * r2
        dx = 2.0 * d.p1 * x * y + d.p2 * (r2 + 2.0 * x * x)
        dy = d.p1 * (r2 + 2.0 * y * y) + 2.0 * d.p2 * x * y
        with np.errstate(divide="ignore", invalid="ignore"):
            x_new = (xd_a - dx) / radial
            y_new = (yd_a - dy) / radial
        step = max(np.max(np.abs(x_new - x), initial=0.0), np.max(np.abs(y_new - y), initial=0.0))
        x, y = x_new, y_new
        if step < UNDISTORT_STEP_TOL:
            break
    else:
        raise ValueError(
            f"undistortion did not converge after {UNDISTORT_MAX_ITER} iterations; "
            "point is outside the invertible region"
        )
    return x[()], y[()]


def camera_to_lidar(cam: CameraModel, points: np.ndarray) -> np.ndarray:
    """Map (n, 3) camera-frame points to the LIDAR frame: R^T (p - t) per row,
    the inverse of the pose that ``project_points`` applies."""
    return (points - cam.pose.translation) @ cam.pose.rotation


def project_points(
    cam: CameraModel,
    points: np.ndarray,
    use_distortion: bool = False,
    z_min: float = DEFAULT_Z_MIN,
) -> tuple[np.ndarray, np.ndarray]:
    """Project an (n, 3) array of LIDAR-frame points to pixel coordinates.

    ``points`` may be float32 or float64 (anything else is converted to
    float64 first); it is read column by column, never copied whole, and
    every step runs in float64, so float32 rows give the same bits as their
    exact float64 conversion.  Returns (uv, in_front): uv is (n, 2) float64
    with NaN rows where the point sits at or behind the camera plane
    (camera-frame z <= z_min); in_front is the matching boolean mask.  uv is
    the transpose of a C-contiguous (2, n) array, so ``uv.T`` holds the u and
    v rows contiguously.  Pixels outside the image are returned as-is;
    bounds are the caller's concern.
    """
    pts = np.asarray(points)
    if pts.dtype != np.float32:
        pts = np.asarray(pts, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError(f"points must have shape (n, 3), got {pts.shape}")
    r = cam.pose.rotation
    t = cam.pose.translation

    def rotate(row: int, x, y, z, out: np.ndarray, tmp: np.ndarray) -> np.ndarray:
        """out = r[row, 0] * x + r[row, 1] * y + r[row, 2] * z + t[row], summed left to right."""
        np.multiply(r[row, 0], x, out=out, dtype=np.float64)
        out += np.multiply(r[row, 1], y, out=tmp, dtype=np.float64)
        out += np.multiply(r[row, 2], z, out=tmp, dtype=np.float64)
        out += t[row]
        return out

    cols = pts[:, 0], pts[:, 1], pts[:, 2]
    cam_z = rotate(2, *cols, np.empty(len(pts)), np.empty(len(pts)))
    in_front = cam_z > z_min
    # finish the projection for the rows in front of the camera only
    front = np.flatnonzero(in_front)
    cam_z = cam_z[front]
    x, y, z = (c[front] for c in cols)
    tmp = np.empty(len(front))
    xn = rotate(0, x, y, z, np.empty(len(front)), tmp)
    yn = rotate(1, x, y, z, np.empty(len(front)), tmp)
    del x, y, z, tmp
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide(xn, cam_z, out=xn)
        np.divide(yn, cam_z, out=yn)
    del cam_z
    if use_distortion:
        xn, yn = distort_normalized(cam.distortion, xn, yn)
    intr = cam.intrinsics
    xn *= intr.fx
    xn += intr.cx
    yn *= intr.fy
    yn += intr.cy
    uv = np.full((2, len(pts)), np.nan)
    uv[0, front] = xn
    uv[1, front] = yn
    return uv.T, in_front
