"""Camera geometry: calibration files, rigid transforms, lens distortion, projection.

The distortion model is the 5-coefficient Brown-Conrady polynomial
(k1, k2, k3 radial; p1, p2 tangential) operating on normalized image
coordinates.  Extrinsic poses map LIDAR-frame coordinates into the camera
frame (p_cam = R @ p_lidar + t); ``camera_to_lidar`` inverts them.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, astuple, dataclass, fields
from functools import cached_property
from pathlib import Path

import numpy as np

from .cloud_io import check_count, check_number, read_json_object

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

    @cached_property
    def fold_r2(self) -> float:
        """The squared normalized radius s = r^2 at which the radial map
        r -> r * (1 + k1 s + k2 s^2 + k3 s^3) stops rising and folds back:
        the smallest positive root of its derivative 1 + 3 k1 s + 5 k2 s^2
        + 7 k3 s^3, or +inf where it rises at every radius.  The root ignores
        the tangential terms p1 and p2.

        The roots come from the monic t^3 + 3 k1 t^2 + 5 k2 t + 7 k3 in
        t = 1 / s, so a tiny k3 leaves the companion matrix well scaled; the
        smallest s is one over the largest positive t."""
        t = np.roots([1.0, 3.0 * self.k1, 5.0 * self.k2, 7.0 * self.k3])
        t = t.real[(t.imag == 0) & (t.real > 0)]
        return 1.0 / float(t.max()) if t.size else math.inf


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
    "id", *(f.name for f in fields(Intrinsics)), "dist", "rotation", "translation",
}


def _number_list(v: object, key: str, length: int) -> list[float]:
    if not isinstance(v, list) or len(v) != length:
        raise CalibrationError(f"field '{key}' must be a list of {length} numbers")
    return [check_number(f"field '{key}'", x) for x in v]


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
        cam_id = check_count("field 'id'", entry["id"])
        where = f"{path}: camera {cam_id}"
        intr = Intrinsics(
            *(check_number(f"field '{key}'", entry[key]) for key in ("fx", "fy", "cx", "cy")),
            *(check_count(f"field '{key}'", entry[key]) for key in ("width", "height")),
        )
        # the file's dist order is DistortionCoeffs' field order
        dist = DistortionCoeffs(*_number_list(entry["dist"], "dist", 5))
        pose = ExtrinsicPose(
            _number_list(entry["rotation"], "rotation", 9),
            _number_list(entry["translation"], "translation", 3),
        )
        return CameraModel(id=cam_id, intrinsics=intr, distortion=dist, pose=pose)
    except ValueError as e:  # CalibrationError, or a number or count rule
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
    cameras = read_json_object(p, {"cameras"}, CalibrationError).get("cameras")
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


def save_rig(rig: list[CameraModel], path: str | Path) -> None:
    """Write a rig as a calibration JSON file that ``load_rig`` reads back."""
    cameras = [
        {
            "id": cam.id,
            **asdict(cam.intrinsics),
            "dist": astuple(cam.distortion),
            "rotation": cam.pose.rotation.reshape(-1).tolist(),
            "translation": cam.pose.translation.tolist(),
        }
        for cam in rig
    ]
    Path(path).write_text(json.dumps({"cameras": cameras}, indent=2) + "\n")


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
    """Invert the distortion model by Newton's method.

    Starting from the distorted coordinates, each step solves the 2x2
    Jacobian of ``distort_normalized`` at the current estimate for the
    correction that cancels its residual.  Stops when the max-norm step
    falls below ``UNDISTORT_STEP_TOL``.  Raises ValueError if
    ``UNDISTORT_MAX_ITER`` iterations do not converge, or converge where
    the radial factor or the Jacobian determinant is not positive: either
    way the input is outside the model's invertible region.  Accepts
    scalars or numpy arrays; a scalar comes back as a numpy float64.
    """
    x = xd_a = np.asarray(xd, dtype=np.float64)
    y = yd_a = np.asarray(yd, dtype=np.float64)
    # an estimate that runs off gives inf or NaN, whose step never converges
    with np.errstate(all="ignore"):
        for _ in range(UNDISTORT_MAX_ITER):
            r2 = x * x + y * y
            radial = 1.0 + d.k1 * r2 + d.k2 * r2 * r2 + d.k3 * r2 * r2 * r2
            slope = d.k1 + 2.0 * d.k2 * r2 + 3.0 * d.k3 * r2 * r2  # d radial / d r2
            # the Jacobian is symmetric: d xd / d y = d yd / d x = j_xy
            j_xx = radial + 2.0 * x * x * slope + 2.0 * d.p1 * y + 6.0 * d.p2 * x
            j_xy = 2.0 * x * y * slope + 2.0 * d.p1 * x + 2.0 * d.p2 * y
            j_yy = radial + 2.0 * y * y * slope + 6.0 * d.p1 * y + 2.0 * d.p2 * x
            det = j_xx * j_yy - j_xy * j_xy
            fx, fy = distort_normalized(d, x, y)
            ex, ey = fx - xd_a, fy - yd_a
            dx = (j_yy * ex - j_xy * ey) / det
            dy = (j_xx * ey - j_xy * ex) / det
            x, y = x - dx, y - dy
            step = max(np.max(np.abs(dx), initial=0.0), np.max(np.abs(dy), initial=0.0))
            if step < UNDISTORT_STEP_TOL:
                break
    if not (step < UNDISTORT_STEP_TOL and np.all(radial > 0) and np.all(det > 0)):
        raise ValueError(
            f"undistortion did not converge inside the invertible region "
            f"in {UNDISTORT_MAX_ITER} iterations"
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
) -> tuple[np.ndarray, np.ndarray]:
    """Project an (n, 3) array of LIDAR-frame points to pixel coordinates.

    ``points`` may be float32 or float64 (anything else is converted to
    float64 first); it is read column by column, never copied whole, and
    every step runs in float64, so float32 rows give the same bits as their
    exact float64 conversion.  Returns (uv, in_front): uv is (n, 2) float64
    with NaN rows where the point sits at or behind the camera plane
    (camera-frame z <= ``DEFAULT_Z_MIN``, read at call time) or has a NaN or
    +-inf coordinate; in_front is the matching boolean mask.  With
    ``use_distortion``, a row at or past the distortion's fold (x^2 + y^2 >=
    ``DistortionCoeffs.fold_r2`` in normalized coordinates) is absent too:
    there the radial map turns back, and the row would land on a pixel of a
    point the camera does see.  No absent row raises a numpy warning.  uv is
    the transpose of a C-contiguous (2, n) array, so ``uv.T`` holds the u and
    v rows contiguously.  Pixels outside the image are returned as-is; bounds
    are the caller's concern.

    Every row is projected in place into the returned array; a row behind
    the camera gets NaN by dividing by a NaN depth, so no row is gathered or
    scattered.  Without distortion the call holds the result, the depth, one
    scratch row and the mask: 33 bytes a point, with no hidden ufunc buffer.
    """
    pts = np.asarray(points)
    if pts.dtype != np.float32:
        pts = np.asarray(pts, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError(f"points must have shape (n, 3), got {pts.shape}")
    r = cam.pose.rotation
    t = cam.pose.translation

    cols = pts[:, 0], pts[:, 1], pts[:, 2]

    def rotate(row: int, out: np.ndarray, tmp: np.ndarray) -> np.ndarray:
        """out = r[row, 0] * x + r[row, 1] * y + r[row, 2] * z + t[row], summed left to right.

        Each column is cast into ``out`` or ``tmp`` before it is scaled:
        a ufunc that casts float32 on the fly would allocate a hidden buffer.
        """
        for axis, col in enumerate(cols):
            term = tmp if axis else out
            np.copyto(term, col)
            term *= r[row, axis]
            if axis:
                out += term
        out += t[row]
        return out

    n = len(pts)
    uv = np.empty((2, n))
    x, y = uv
    tmp = np.empty(n)
    # a non-finite coordinate gives inf * 0 or inf - inf in the rotations,
    # then a NaN or +-inf depth
    with np.errstate(divide="ignore", invalid="ignore"):
        cam_z = rotate(2, np.empty(n), tmp)
        in_front = cam_z > DEFAULT_Z_MIN
        # +inf is not in front either; the flags go to tmp's first n bytes,
        # which the next rotation overwrites
        in_front &= np.less(cam_z, np.inf, out=tmp.view(np.bool_)[:n])
        rotate(0, x, tmp)
        rotate(1, y, tmp)
        # 1.0 in front, 0 / 0 = NaN behind, so a row behind the camera divides
        # by NaN; the mask is cast first, as a bool divide would buffer its cast
        np.copyto(tmp, in_front)
        cam_z *= np.divide(tmp, tmp, out=tmp)
        del tmp
        x /= cam_z
        y /= cam_z
    del cam_z
    if use_distortion:
        folded = x * x + y * y >= cam.distortion.fold_r2
        in_front &= ~folded
        x[folded] = y[folded] = np.nan
        x[:], y[:] = distort_normalized(cam.distortion, x, y)
    intr = cam.intrinsics
    x *= intr.fx
    x += intr.cx
    y *= intr.fy
    y += intr.cy
    return uv.T, in_front
