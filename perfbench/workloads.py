"""Benchmark workloads: input builders, output digest and quality gate.

Every input is built from the workload seed through pclabel's public API
(``gen_scene``, ``write_pcd``, ``write_manifest``, ``save_rig``), so a
second seed gives fresh data with the same shape: frame count, points per
frame and boxes per frame.
"""

from __future__ import annotations

import hashlib
import shutil
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from pclabel import (
    PointCloudFrame,
    aggregate_reports,
    default_rig,
    gen_scene,
    read_pcd_columns,
    read_report_csv,
    save_rig,
    write_manifest,
    write_pcd,
)

# Criterion-7 frame: 5 cameras x 2 boxes of 2,000-point blobs in a shell of background.
C7_POINTS = 232_320
C7_BLOB_POINTS = 2000
C7_SLOTS = ((-0.22, 10.0), (0.2, 12.0))  # (normalized x of the blob centre, depth in m)
C7_MIN_LABELED = 20_000  # criterion 7's own sanity floor per frame

SCENE_OBJECTS = 3
SCENE_NOISE = 0.3
SCENE_POINTS_PER_OBJECT = 900
SCENE_DROP_WINDOW = (20.0, 45.0)  # criterion 1's acceptance window, percent
SCENE_MIN_OBJECT_KEPT = 90.0  # percent

LIDAR_PERIOD = 0.1
CAMERA_OFFSET = 0.005


@dataclass(frozen=True)
class Spec:
    name: str
    frames: int
    scene: bool  # gen_scene reference scenes rather than criterion-7 frames
    segments: int = 1  # gen_scene calls that make up a scene workload


SPECS = {
    s.name: s
    for s in (
        Spec("c7_dense", frames=4, scene=False),
        Spec("scene_long", frames=120, scene=True, segments=20),
    )
}


@dataclass(frozen=True)
class Inputs:
    """A built workload: pipeline input paths and the ground truth per frame."""

    calibration: Path
    cloud_manifest: Path
    detection_manifest: Path
    truth: dict[int, np.ndarray]  # object id per point, -1 for noise
    boxes_per_frame: int

    @property
    def frames(self) -> int:
        return len(self.truth)

    @property
    def points(self) -> int:
        return sum(len(t) for t in self.truth.values())

    def shape(self) -> dict[str, object]:
        return {
            "frames": self.frames,
            "points_per_frame": sorted({len(t) for t in self.truth.values()}),
            "boxes_per_frame": self.boxes_per_frame,
        }


def _c7_frame(rig, rng: np.random.Generator, f: int):
    """One criterion-7 frame, built the way test_criterion_7_throughput_ceiling builds it."""
    blobs, det_lines = [], {}
    for cam in rig:
        intr = cam.intrinsics
        det_lines[cam.id] = []
        for xn0, depth in C7_SLOTS:
            center = depth * np.array([xn0, 0.05, 1.0])
            pts_cam = center + rng.normal(scale=0.35, size=(C7_BLOB_POINTS, 3))
            u = intr.fx * pts_cam[:, 0] / pts_cam[:, 2] + intr.cx
            v = intr.fy * pts_cam[:, 1] / pts_cam[:, 2] + intr.cy
            det_lines[cam.id].append(
                f"{cam.id} {f} 2 0.90 {u.min() - 2:.3f} {v.min() - 2:.3f} "
                f"{u.max() + 2:.3f} {v.max() + 2:.3f}"
            )
            blobs.append((pts_cam - cam.pose.translation) @ cam.pose.rotation)
    n_background = C7_POINTS - len(blobs) * C7_BLOB_POINTS
    azimuth = rng.uniform(0, 2 * np.pi, n_background)
    radius = np.cbrt(rng.uniform(3.0 ** 3, 60.0 ** 3, n_background))
    height = rng.uniform(-2.0, 2.0, n_background)
    background = np.stack([radius * np.cos(azimuth), radius * np.sin(azimuth), height], axis=1)
    xyz = np.concatenate(blobs + [background]).astype(np.float32)
    truth = np.concatenate(
        [np.full(C7_BLOB_POINTS, j) for j in range(len(blobs))] + [np.full(n_background, -1)]
    )
    frame = PointCloudFrame(frame_id=f, timestamp=f * LIDAR_PERIOD, xyz=xyz)
    return frame, truth, det_lines


def build_c7(out: Path, spec: Spec, seed: int) -> tuple[Inputs, float]:
    """Criterion-7 frames; also returns the seconds spent in pclabel.scene's functions."""
    (out / "clouds").mkdir(parents=True)
    (out / "dets").mkdir()
    t0 = time.perf_counter()
    rig = default_rig(5)
    save_rig(rig, out / "calibration.json")
    scene_s = time.perf_counter() - t0
    cloud_rows, det_rows, truth = [], [], {}
    for f in range(spec.frames):
        frame, truth[f], det_lines = _c7_frame(rig, np.random.default_rng((seed, f)), f)
        rel = f"clouds/frame_{f:06d}.pcd"
        write_pcd(frame, out / rel)
        cloud_rows.append(("cloud", f, frame.timestamp, rel))
        for cam_id, lines in det_lines.items():
            det_rel = f"dets/frame_{f:06d}_cam{cam_id}.txt"
            (out / det_rel).write_text("".join(line + "\n" for line in lines))
            det_rows.append((f"cam{cam_id}", f, frame.timestamp + CAMERA_OFFSET, det_rel))
    write_manifest(out / "clouds.manifest", cloud_rows)
    det_rows.sort(key=lambda r: (r[0], r[1]))
    write_manifest(out / "dets.manifest", det_rows)
    inputs = Inputs(
        out / "calibration.json", out / "clouds.manifest", out / "dets.manifest",
        truth, boxes_per_frame=len(rig) * len(C7_SLOTS),
    )
    return inputs, scene_s


def build_scene(out: Path, spec: Spec, seed: int) -> tuple[Inputs, float, float]:
    """A long sequence of README reference scenes, back to back in one pair of manifests.

    Each segment is one ``gen_scene`` call with its own three planted
    objects: the drop and noise rates depend mostly on those objects, so
    one scene stretched over many frames would make a seed's quality an
    average over only three of them.  Returns the inputs, the set-up
    seconds and the seconds spent inside gen_scene.  The ground-truth
    files are parsed after the clock stops: that is the benchmark's own
    work, not set-up a pclabel user pays for.
    """
    per_segment, rest = divmod(spec.frames, spec.segments)
    if rest or not per_segment:
        raise ValueError(f"{spec.frames} frames do not split into {spec.segments} segments")
    t0 = time.perf_counter()
    gen_s = 0.0
    scenes = []
    for i in range(spec.segments):
        segment_seed = int(np.random.SeedSequence((seed, i)).generate_state(1)[0])
        g0 = time.perf_counter()
        scenes.append(gen_scene(
            out / f"seg{i}", frames=per_segment, objects=SCENE_OBJECTS,
            noise_fraction=SCENE_NOISE, seed=segment_seed,
            points_per_object=SCENE_POINTS_PER_OBJECT,
        ))
        gen_s += time.perf_counter() - g0
    cloud_rows, det_rows = [], []
    for i, scene in enumerate(scenes):
        for name, rows in (("clouds.manifest", cloud_rows), ("dets.manifest", det_rows)):
            for line in (scene.out_dir / name).read_text().splitlines():
                stream, fid, ts, rel = line.split(maxsplit=3)
                offset = i * per_segment
                rows.append((stream, int(fid) + offset, float(ts) + offset * LIDAR_PERIOD,
                             f"seg{i}/{rel}"))
    det_rows.sort(key=lambda r: (r[0], r[1]))
    write_manifest(out / "clouds.manifest", cloud_rows)
    write_manifest(out / "dets.manifest", det_rows)
    setup_s = time.perf_counter() - t0

    truth = {}
    for i, scene in enumerate(scenes):
        rows = np.array(scene.ground_truth.read_text().split(), dtype=np.int64).reshape(-1, 3)
        for f in range(per_segment):
            sel = rows[rows[:, 0] == f]
            truth[i * per_segment + f] = sel[np.argsort(sel[:, 1]), 2]
    inputs = Inputs(
        scenes[0].calibration, out / "clouds.manifest", out / "dets.manifest",
        truth, boxes_per_frame=SCENE_OBJECTS,
    )
    return inputs, setup_s, gen_s


def expected_shape(spec: Spec) -> dict[str, object]:
    """The shape every seed must give: it depends on the workload, never on the seed."""
    if spec.scene:
        noise = int(round(SCENE_POINTS_PER_OBJECT * SCENE_NOISE / (1.0 - SCENE_NOISE)))
        points, boxes = SCENE_OBJECTS * (SCENE_POINTS_PER_OBJECT + noise), SCENE_OBJECTS
    else:
        points, boxes = C7_POINTS, 5 * len(C7_SLOTS)
    return {"frames": spec.frames, "points_per_frame": [points], "boxes_per_frame": boxes}


def build(out: Path, spec: Spec, seed: int) -> tuple[Inputs, float, float]:
    """Build ``spec``'s inputs into a fresh ``out``.

    Returns the inputs, the set-up seconds (the pclabel API calls that
    write them) and the part of those spent in pclabel.scene's functions
    (gen_scene, or default_rig and save_rig).
    """
    if out.exists():
        shutil.rmtree(out)
    if spec.scene:
        return build_scene(out, spec, seed)
    t0 = time.perf_counter()
    inputs, scene_s = build_c7(out, spec, seed)
    return inputs, time.perf_counter() - t0, scene_s


# --- outputs: digest and quality ------------------------------------------------

def output_digest(out_dir: Path) -> str:
    """sha256 over the names and bytes of labeled_*.pcd (sorted) and report.csv."""
    h = hashlib.sha256()
    for path in sorted(out_dir.glob("labeled_*.pcd")) + [out_dir / "report.csv"]:
        h.update(path.name.encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


@dataclass(frozen=True)
class Quality:
    object_points: int
    object_kept: int
    noise_labeled: int
    noise_kept: int

    @property
    def object_kept_pct(self) -> float:
        return 100.0 * self.object_kept / self.object_points if self.object_points else 0.0

    @property
    def noise_kept_pct(self) -> float:
        return 100.0 * self.noise_kept / self.noise_labeled if self.noise_labeled else 0.0

    def __add__(self, other: "Quality") -> "Quality":
        return Quality(
            self.object_points + other.object_points, self.object_kept + other.object_kept,
            self.noise_labeled + other.noise_labeled, self.noise_kept + other.noise_kept,
        )


def frame_quality(label: np.ndarray, cluster: np.ndarray, truth: np.ndarray) -> Quality:
    """Count ground-truth object points kept, and labeled noise points kept.

    A point is kept when it carries a label and a kept cluster id (the
    cluster column is -1 for unlabeled and dropped points).
    """
    if not (len(label) == len(cluster) == len(truth)):
        raise ValueError(f"column lengths differ: {len(label)}, {len(cluster)}, {len(truth)}")
    labeled = label >= 0
    kept = labeled & (cluster >= 0)
    obj = truth >= 0
    noise_labeled = labeled & ~obj
    return Quality(
        object_points=int(obj.sum()),
        object_kept=int((kept & obj).sum()),
        noise_labeled=int(noise_labeled.sum()),
        noise_kept=int((kept & noise_labeled).sum()),
    )


def check_outputs(out_dir: Path, inputs: Inputs, spec: Spec) -> tuple[Quality, list[str]]:
    """Quality of one run's outputs, and the reasons it fails its checks (empty if none)."""
    problems = []
    pcds = sorted(out_dir.glob("labeled_*.pcd"))
    if len(pcds) != inputs.frames:
        problems.append(f"{len(pcds)} labeled PCDs for {inputs.frames} frames")
    quality = Quality(0, 0, 0, 0)
    for f, truth in inputs.truth.items():
        path = out_dir / f"labeled_{f:06d}.pcd"
        if not path.exists():
            continue
        cols = read_pcd_columns(path)
        quality = quality + frame_quality(cols["label"], cols["cluster"], truth)
    reports = read_report_csv(out_dir / "report.csv")
    if spec.scene:
        mean_drop = aggregate_reports(reports).mean_drop_rate
        lo, hi = SCENE_DROP_WINDOW
        if not lo <= mean_drop <= hi:
            problems.append(f"mean drop rate {mean_drop:.2f}% outside [{lo}, {hi}]%")
        if quality.object_kept_pct < SCENE_MIN_OBJECT_KEPT:
            problems.append(
                f"object retention {quality.object_kept_pct:.2f}% below {SCENE_MIN_OBJECT_KEPT}%"
            )
    else:
        for r in reports:
            if r.labeled_before <= C7_MIN_LABELED:
                problems.append(f"frame {r.frame_id}: {r.labeled_before} labeled points")
    return quality, problems


class Gate:
    """Counts runs and failed runs; a run fails if it raised, its digest
    differs from the first checked run's, or a quality check fails."""

    def __init__(self, inputs: Inputs, spec: Spec) -> None:
        self.inputs = inputs
        self.spec = spec
        self.digest: str | None = None
        self.attempted = 0
        self.failed = 0
        self.quality: Quality | None = None
        self.problems: list[str] = []

    def fail(self, reason: str) -> None:
        self.attempted += 1
        self.failed += 1
        self.problems.append(reason)

    def check(self, out_dir: Path) -> bool:
        try:
            digest = output_digest(out_dir)
            quality, problems = check_outputs(out_dir, self.inputs, self.spec)
        except (OSError, ValueError, KeyError) as e:  # unreadable or malformed outputs
            self.fail(f"outputs unreadable: {type(e).__name__}: {e}")
            return False
        if self.digest is None:
            self.digest = digest
            self.quality = quality
        elif digest != self.digest:
            problems.append(f"output digest {digest[:16]} differs from first run {self.digest[:16]}")
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)
        return not problems
