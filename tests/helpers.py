"""Shared test utilities: brute-force oracles and fixture builders."""

from __future__ import annotations

import math
import tracemalloc
from collections import Counter
from dataclasses import replace
from itertools import product
from pathlib import Path

import numpy as np

from pclabel import (
    BBox,
    CameraModel,
    Clustering,
    Detection,
    DistortionCoeffs,
    ExtrinsicPose,
    FrameReport,
    Intrinsics,
    KMeansConfig,
    LabeledCloud,
    PointCloudFrame,
    camera_to_lidar,
    label_frame,
    project_points,
    read_pcd_columns,
    write_pcd,
)
from pclabel.calib import DEFAULT_Z_MIN
from pclabel.rng import SplitMix64, derive_seed
from pclabel.segment import KEEP_MIN_PERCENT, KEEP_MIN_POINTS
from pclabel.scene import default_rig


def simple_camera(
    cam_id: int = 0,
    fx: float = 100.0,
    fy: float = 100.0,
    cx: float = 50.0,
    cy: float = 50.0,
    width: int = 100,
    height: int = 100,
    dist: DistortionCoeffs | None = None,
    pose: ExtrinsicPose | None = None,
) -> CameraModel:
    return CameraModel(
        id=cam_id,
        intrinsics=Intrinsics(fx=fx, fy=fy, cx=cx, cy=cy, width=width, height=height),
        distortion=dist or DistortionCoeffs(),
        pose=pose or ExtrinsicPose.identity(),
    )


def barrel_camera() -> CameraModel:
    """Camera 0 of ``default_rig(5)`` (640 x 480, fx = 500) with KITTI-like
    barrel coefficients, whose radial map r * radial(r^2) rises only up to
    50.45 degrees off-axis and then folds back towards the image centre."""
    dist = DistortionCoeffs(k1=-0.369, k2=0.197, p1=0.00135, p2=0.00057, k3=-0.0677)
    return replace(default_rig(5)[0], distortion=dist)


def off_axis_points(cam: CameraModel, degrees, depth: float = 10.0) -> np.ndarray:
    """LIDAR-frame points at ``depth`` in front of ``cam``, each ``degrees``
    off its optical axis towards image right."""
    tan = np.tan(np.radians(np.asarray(degrees, dtype=np.float64)))
    return camera_to_lidar(cam, np.stack([depth * tan, np.zeros_like(tan), np.full_like(tan, depth)], axis=1))


def detection(cam_id: int, box: tuple[float, float, float, float],
              class_id: int = 2, frame_id: int = 0, confidence: float = 0.9) -> Detection:
    return Detection(cam_id, frame_id, class_id, confidence, BBox(*box))


def box_hits(box: tuple[float, float, float, float], pixels, width: int = 1000,
             height: int = 1000) -> list[bool]:
    """Which pixels label_frame puts inside ``box``.

    Uses a unit camera (fx = fy = 1, principal point at the origin), so the
    point (u, v, 1) lands exactly on pixel (u, v) for integer u and v.
    """
    cam = simple_camera(fx=1.0, fy=1.0, cx=0.0, cy=0.0, width=width, height=height)
    xyz = np.array([(u, v, 1.0) for u, v in pixels], dtype=np.float32)
    frame = PointCloudFrame(frame_id=0, timestamp=0.0, xyz=xyz)
    return label_frame(frame, [cam], {0: [detection(0, box)]}).labeled_mask.tolist()


def criterion7_frame() -> tuple[list[CameraModel], PointCloudFrame, dict[int, list[Detection]]]:
    """The criterion-7 frame: 232,320 points, 5 cameras, 10 boxes.

    Each camera sees two 2,000-point blobs, each tightly boxed; the rest of
    the points form a background shell from 3 to 60 m around the rig.
    Returns (rig, frame, detections by camera id).
    """
    rig = default_rig(5)
    rng = np.random.default_rng(7007)
    blobs = []
    dets_by_cam = {}
    for cam in rig:
        dets = []
        for slot, xn0 in enumerate((-0.22, 0.2)):
            depth = 10.0 + 2.0 * slot
            center = depth * np.array([xn0, 0.05, 1.0])
            pts = camera_to_lidar(cam, center + rng.normal(scale=0.35, size=(2000, 3)))
            u, v = project_points(cam, pts)[0].T
            box = BBox(u.min() - 2, v.min() - 2, u.max() + 2, v.max() + 2)
            dets.append(Detection(cam.id, 0, 2, 0.9, box))
            blobs.append(pts)
        dets_by_cam[cam.id] = dets
    n_background = 232_320 - 10 * 2000
    azimuth = rng.uniform(0, 2 * np.pi, n_background)
    radius = np.cbrt(rng.uniform(3.0 ** 3, 60.0 ** 3, n_background))
    height = rng.uniform(-2.0, 2.0, n_background)
    background = np.stack(
        [radius * np.cos(azimuth), radius * np.sin(azimuth), height], axis=1
    )
    xyz = np.concatenate(blobs + [background]).astype(np.float32)
    return rig, PointCloudFrame(frame_id=0, timestamp=0.0, xyz=xyz), dets_by_cam


def traced_peak(fn, *args, **kwargs):
    """Call ``fn`` under tracemalloc; return (its result, the peak bytes it allocated).

    Only allocations made during the call count, so inputs built before it
    do not; a result still alive at the end does.
    """
    tracemalloc.start()
    try:
        result = fn(*args, **kwargs)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def ascii_pcd(path) -> None:
    """Rewrite the binary PCD at ``path`` as ASCII: the same header with
    ``DATA ascii``, and each row's floats at 9 significant digits, which
    round-trip every finite float32, and its integers in full."""
    cols = read_pcd_columns(path).values()
    raw = Path(path).read_bytes()
    header = raw[:raw.index(b"DATA binary\n")]
    row = " ".join("%d" if col.dtype.kind == "i" else "%.9g" for col in cols) + "\n"
    body = "".join(row % r for r in zip(*(col.tolist() for col in cols)))
    Path(path).write_bytes(header + b"DATA ascii\n" + body.encode("ascii"))


def write_ascii_pcd(frame: PointCloudFrame, path, labels: LabeledCloud | None = None) -> None:
    """What ``write_pcd`` writes, as ASCII PCD (see ``ascii_pcd``)."""
    write_pcd(frame, path, labels=labels)
    ascii_pcd(path)


# a PCD writer per DATA mode
PCD_WRITERS = {"binary": write_pcd, "ascii": write_ascii_pcd}


def assert_label_invariants(lc: LabeledCloud) -> None:
    """Columns of equal length; class and detection reference set together;
    cluster ids and kept flags only on labeled points."""
    n = len(lc.class_id)
    for name in ("camera_id", "det_index", "cluster_id", "kept"):
        assert len(getattr(lc, name)) == n, f"column '{name}' length differs from class_id"
    labeled = lc.class_id >= 0
    assert np.array_equal(labeled, lc.camera_id >= 0)
    assert np.array_equal(labeled, lc.det_index >= 0)
    assert not np.any((lc.cluster_id >= 0) & ~labeled)
    assert not np.any(lc.kept & ~labeled)


def partition_inertia(pts: np.ndarray, assign: np.ndarray, k: int) -> float:
    """Inertia of a fixed partition, computed from scratch."""
    total = 0.0
    for c in range(k):
        members = pts[assign == c]
        if len(members):
            centroid = members.mean(axis=0)
            total += float(((members - centroid) ** 2).sum())
    return total


def enumerate_local_optima(pts: np.ndarray, k: int = 2) -> list[tuple[tuple[int, ...], float]]:
    """All assignment vectors stable under one Lloyd step, with their inertias.

    Stability: with centroids set to the means of the non-empty clusters,
    re-assigning every point to its nearest centroid (squared Euclidean,
    ties to the lowest cluster id among those considered) reproduces the
    assignment.  Exhaustive over k**n assignments; n must stay small.
    """
    pts = np.asarray(pts, dtype=np.float64)
    n = len(pts)
    optima = []
    for assign in product(range(k), repeat=n):
        a = np.array(assign)
        clusters = sorted(set(assign))
        centroids = {c: pts[a == c].mean(axis=0) for c in clusters}
        stable = True
        for i in range(n):
            d2 = {c: float(((pts[i] - centroids[c]) ** 2).sum()) for c in clusters}
            best = min(clusters, key=lambda c: (d2[c], c))
            if best != assign[i]:
                stable = False
                break
        if stable:
            optima.append((assign, partition_inertia(pts, a, k)))
    return optima


def reference_kmeans(points, k: int, max_iter: int, seed: int, tol: float) -> Clustering:
    """Straightforward Lloyd's algorithm with pclabel's initialization,
    reseeding, stop rule and final pass; ``segment.kmeans`` must match it
    bit for bit.  Distances come from an (n, k, 3) temporary and every
    reduction is a separate numpy call.

    Earlier releases summed the squared terms with
    ``np.einsum("nkd,nkd->nk")``, whose order depends on the SIMD width
    numpy picks; on AVX2 and AVX-512 hosts it is (dx*dx + dz*dz) + dy*dy,
    written out here so the reference is the same on every host.  An
    emptied cluster is re-seeded by the same distances.
    """
    pts = np.asarray(points, dtype=np.float64)
    n = len(pts)
    k = min(k, n)
    centroids = pts[SplitMix64(seed).sample_distinct(n, k)].copy()

    def squared_distances(c):
        sq = (pts[:, None, :] - c[None, :, :]) ** 2
        return sq[..., 0] + sq[..., 2] + sq[..., 1]

    history = []
    for _ in range(max_iter):
        d2 = squared_distances(centroids)
        assign = d2.argmin(axis=1)
        history.append(float(d2.min(axis=1).sum()))
        counts = np.bincount(assign, minlength=k)
        new_centroids = np.empty_like(centroids)
        for dim in range(3):
            sums = np.bincount(assign, weights=pts[:, dim], minlength=k)
            with np.errstate(invalid="ignore"):
                new_centroids[:, dim] = sums / counts
        for c in np.flatnonzero(counts == 0):
            far = int(np.argmax(squared_distances(centroids[c:c + 1])[:, 0]))
            new_centroids[c] = pts[far]
        movement = float(np.max(np.abs(new_centroids - centroids)))
        centroids = new_centroids
        if movement < tol or movement == 0.0:
            break

    d2 = squared_distances(centroids)
    assign, best = d2.argmin(axis=1), d2.min(axis=1)
    history.append(float(best.sum()))
    return Clustering(
        assignments=assign.astype(np.int32),
        centroids=centroids,
        inertia_history=tuple(history),
        cluster_inertia=np.bincount(assign, weights=best, minlength=k),
    )


def reference_denoise(
    frame: PointCloudFrame, lc: LabeledCloud, cfg: KMeansConfig
) -> tuple[list[int], list[bool], FrameReport]:
    """The cluster id and kept flag that ``denoise_frame`` must give each row
    of ``lc``, and the report it must return; one detection at a time.

    Each detection's rows, in ascending order, are clustered by
    ``reference_kmeans`` on the stream ``derive_seed(cfg.seed, frame id,
    camera, detection)``, in (camera, detection) order.  The keep rule then
    runs in plain Python: each cluster's size and summed squared distance to
    its centroid are counted point by point; the candidates hold at least
    max(``KEEP_MIN_POINTS``, ``KEEP_MIN_PERCENT`` % of the detection) points,
    a floor capped at the largest cluster's size; the kept one has the
    smallest mean squared distance, then the larger size, then the centroid
    nearest the origin, then the lower id.  Unlabeled rows keep their values.
    """
    class_ids = lc.class_id.tolist()
    cluster, kept = lc.cluster_id.tolist(), lc.kept.tolist()
    groups: dict[tuple[int, int], list[int]] = {}
    for row, key in enumerate(zip(lc.camera_id.tolist(), lc.det_index.tolist())):
        if class_ids[row] >= 0:
            groups.setdefault(key, []).append(row)
    for (cam, det), rows in sorted(groups.items()):
        pts = frame.xyz[rows].astype(np.float64)
        seed = derive_seed(cfg.seed, frame.frame_id, cam, det)
        result = reference_kmeans(pts, cfg.k, cfg.max_iter, seed, cfg.tol)
        assign, centroids = result.assignments.tolist(), result.centroids.tolist()
        sizes, spread = [0] * len(centroids), [0.0] * len(centroids)
        for point, c in zip(pts.tolist(), assign):
            dx, dy, dz = (p - q for p, q in zip(point, centroids[c]))
            sizes[c] += 1
            spread[c] += (dx * dx + dz * dz) + dy * dy  # kmeans' order of the terms
        floor = min(max(KEEP_MIN_POINTS, math.ceil(len(rows) * KEEP_MIN_PERCENT / 100)), max(sizes))
        keep = min(
            (c for c in range(len(centroids)) if sizes[c] >= floor),
            key=lambda c: (spread[c] / sizes[c], -sizes[c], sum(x * x for x in centroids[c]), c),
        )
        for row, c in zip(rows, assign):
            cluster[row], kept[row] = c, c == keep
    labeled = [row for row, c in enumerate(class_ids) if c >= 0]
    survivors = [row for row in labeled if kept[row]]
    report = FrameReport(
        frame_id=frame.frame_id,
        total_points=len(class_ids),
        labeled_before=len(labeled),
        kept_after=len(survivors),
        class_before=dict(Counter(class_ids[row] for row in labeled)),
        class_after=dict(Counter(class_ids[row] for row in survivors)),
    )
    return cluster, kept, report


def reference_pixel(cam: CameraModel, point, distortion: bool) -> tuple[float, float] | None:
    """The pixel (u, v) at which ``cam`` sees one LIDAR point, or None at a
    depth of ``DEFAULT_Z_MIN`` or less, or, with ``distortion``, at or past
    the fold of the radial map; one double operation at a time.

    The pinhole model: the pose r[row] . p + t[row], the division by depth,
    the Brown-Conrady polynomial when ``distortion`` is on, then f * x + c,
    each step in ``project_points``' order, so its bits are the same.
    """
    x, y, z = (float(c) for c in point)
    (r0, r1, r2), t = cam.pose.rotation.tolist(), cam.pose.translation.tolist()
    depth = r2[0] * x + r2[1] * y + r2[2] * z + t[2]
    if not depth > DEFAULT_Z_MIN:
        return None
    xn = (r0[0] * x + r0[1] * y + r0[2] * z + t[0]) / depth
    yn = (r1[0] * x + r1[1] * y + r1[2] * z + t[1]) / depth
    if distortion:
        d = cam.distortion
        rr = xn * xn + yn * yn
        if rr >= d.fold_r2:  # past the fold the radial map turns back
            return None
        radial = 1.0 + d.k1 * rr + d.k2 * rr * rr + d.k3 * rr * rr * rr
        xn, yn = (
            xn * radial + 2.0 * d.p1 * xn * yn + d.p2 * (rr + 2.0 * xn * xn),
            yn * radial + d.p1 * (rr + 2.0 * yn * yn) + 2.0 * d.p2 * xn * yn,
        )
    intr = cam.intrinsics
    return xn * intr.fx + intr.cx, yn * intr.fy + intr.cy


def reference_labels(points, rig, detections, distortion: bool) -> list[tuple[int, int, int]]:
    """Per point, the (class id, camera id, detection index) that ``label_frame``
    must give it, or (-1, -1, -1); one point and one camera at a time.

    A camera sees a point at ``reference_pixel``.  The image [0, width) x
    [0, height) and every box are half-open.  Of the boxes that claim a
    point, the smallest area wins, then the lower camera id, then the lower
    detection index.  The pixel has ``project_points``' bits, so a pixel on
    a box edge lands on the same side in both.
    """
    labels = []
    for point in np.asarray(points, dtype=np.float64).tolist():
        best = None  # ((area, camera id, detection index), class id)
        for cam in rig:
            pixel = reference_pixel(cam, point, distortion)
            if pixel is None:
                continue
            u, v = pixel
            intr = cam.intrinsics
            if not (0 <= u < intr.width and 0 <= v < intr.height):
                continue
            for det_index, det in enumerate(detections.get(cam.id, ())):
                box = det.box
                if box.x_min <= u < box.x_max and box.y_min <= v < box.y_max:
                    key = (box.area, cam.id, det_index)
                    if best is None or key < best[0]:
                        best = (key, det.class_id)
        labels.append((-1, -1, -1) if best is None else (best[1], best[0][1], best[0][2]))
    return labels


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    """Uniform-ish random rotation via QR with determinant fixed to +1."""
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q
