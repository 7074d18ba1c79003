"""Acceptance suite: one test per release criterion, run at stated tolerances.

The conftest hook prints a PASS/FAIL line per criterion.
"""

import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pclabel import (
    CameraModel,
    DistortionCoeffs,
    ExtrinsicPose,
    Intrinsics,
    KMeansConfig,
    PipelineConfig,
    PointCloudFrame,
    denoise_frame,
    distort_normalized,
    filter_oversized,
    gen_scene,
    kmeans,
    label_frame,
    load_rig,
    match_frames,
    project_points,
    read_ground_truth,
    read_manifest,
    read_pcd,
    read_pcd_columns,
    run_pipeline,
    undistort_normalized,
    write_pcd,
)
from pclabel.detect_ingest import BBox, Detection
from pclabel.pipeline import load_bundle_detections

from helpers import criterion7_frame, enumerate_local_optima, random_rotation, simple_camera


@pytest.fixture(scope="module")
def scene_run(tmp_path_factory):
    """Generate the 20-frame reference scene and run the pipeline, timed."""
    root = tmp_path_factory.mktemp("acceptance")
    start = time.perf_counter()
    scene = gen_scene(root / "scene", frames=20, objects=3, noise_fraction=0.30, seed=0)
    cfg = PipelineConfig(
        calibration=scene.calibration,
        cloud_manifest=scene.cloud_manifest,
        detection_manifest=scene.detection_manifest,
        out_dir=root / "out",
        kmeans=KMeansConfig(k=3, seed=0),
    )
    result = run_pipeline(cfg)
    elapsed = time.perf_counter() - start
    return scene, result, elapsed


def test_criterion_1_synthetic_drop_rate_and_retention(scene_run):
    """20 frames at 30% noise, k=3: mean drop in [20, 45], >=90% object points kept, <10 s."""
    scene, result, elapsed = scene_run
    assert 20.0 <= result.summary.mean_drop_rate <= 45.0
    gt = read_ground_truth(scene.ground_truth)
    kept_obj = total_obj = 0
    for fr in result.frames:
        cols = read_pcd_columns(fr.pcd_path)
        kept = cols["cluster"] >= 0
        objects = gt[fr.frame_id] >= 0
        kept_obj += int((kept & objects).sum())
        total_obj += int(objects.sum())
    assert total_obj > 0
    assert kept_obj / total_obj >= 0.90
    assert elapsed < 10.0
    print(
        f"\n  mean drop rate {result.summary.mean_drop_rate:.2f}%, "
        f"object retention {kept_obj / total_obj:.4f}, runtime {elapsed:.2f} s"
    )


def test_criterion_2_projection_scale_invariance():
    """10,000 random points on random rigs: project(s*p) == project(p) to 1e-9 px."""
    rng = np.random.default_rng(2024)
    start = time.perf_counter()
    n_rigs, per_rig = 20, 500
    behind_checked = 0
    for r in range(n_rigs):
        # scale invariance is a ray property about the camera center, so the
        # random rigs rotate freely but keep the camera at the origin
        pose = ExtrinsicPose(random_rotation(rng), np.zeros(3))
        width = int(rng.integers(640, 1920))
        height = int(rng.integers(480, 1080))
        dist = (
            DistortionCoeffs(
                k1=rng.uniform(-0.3, 0.3), k2=rng.uniform(-0.1, 0.1),
                p1=rng.uniform(-0.01, 0.01), p2=rng.uniform(-0.01, 0.01),
            )
            if r % 2
            else DistortionCoeffs()
        )
        cam = CameraModel(
            id=0,
            intrinsics=Intrinsics(
                fx=rng.uniform(300, 1200), fy=rng.uniform(300, 1200),
                cx=width / 2 + rng.uniform(-50, 50), cy=height / 2 + rng.uniform(-50, 50),
                width=width, height=height,
            ),
            distortion=dist,
            pose=pose,
        )
        use_dist = r % 2 == 1
        # points in the camera frame with |z| >= 0.01, half in front, half behind
        z = rng.uniform(0.01, 50.0, per_rig) * rng.choice([-1.0, 1.0], per_rig)
        xy = rng.uniform(-1.0, 1.0, (per_rig, 2)) * np.abs(z)[:, None]
        pts_cam = np.column_stack([xy, z])
        pts = pts_cam @ cam.pose.rotation  # rotation is orthonormal: R^T via row form
        scales = rng.uniform(0.1, 10.0, per_rig)

        uv_base, front_base = project_points(cam, pts, use_distortion=use_dist)
        uv_scaled, front_scaled = project_points(cam, pts * scales[:, None], use_distortion=use_dist)
        assert np.array_equal(front_base, front_scaled)
        behind = ~front_base
        behind_checked += int(behind.sum())
        assert np.isnan(uv_base[behind]).all() and np.isnan(uv_scaled[behind]).all()
        diff = np.abs(uv_base[front_base] - uv_scaled[front_base])
        assert diff.size and diff.max() < 1e-9
    elapsed = time.perf_counter() - start
    assert behind_checked > 1000
    assert elapsed < 1.0
    print(f"\n  {n_rigs * per_rig} points, {behind_checked} behind-camera, {elapsed:.3f} s")


def test_criterion_3_distortion_round_trip():
    """10,000 normalized coordinates invert through the distortion model to 1e-8."""
    rng = np.random.default_rng(3001)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(50):
        d = DistortionCoeffs(
            k1=rng.uniform(-0.3, 0.3), k2=rng.uniform(-0.1, 0.1),
            p1=rng.uniform(-0.01, 0.01), p2=rng.uniform(-0.01, 0.01),
        )
        xn = rng.uniform(-0.6, 0.6, 200)
        yn = rng.uniform(-0.6, 0.6, 200)
        xd, yd = distort_normalized(d, xn, yn)
        xr, yr = undistort_normalized(d, xd, yd)
        worst = max(worst, float(np.abs(xr - xn).max()), float(np.abs(yr - yn).max()))
    elapsed = time.perf_counter() - start
    assert worst < 1e-8
    assert elapsed < 1.0
    print(f"\n  10000 coordinates, worst deviation {worst:.2e}, {elapsed:.3f} s")


def test_criterion_4_kmeans_matches_enumeration_oracle():
    """200 seeded Lloyd runs (n<=8, k=2) land on enumerated local optima."""
    rng = np.random.default_rng(4004)
    for trial in range(200):
        n = int(rng.integers(2, 9))
        pts = rng.normal(size=(n, 3)) * rng.uniform(0.5, 2.0)
        res = kmeans(pts, KMeansConfig(k=2, seed=trial, tol=0.0))
        assert res.iterations_run < 100, "instance did not converge"
        hist = res.inertia_history
        assert all(a >= b - 1e-9 for a, b in zip(hist, hist[1:]))
        optima = enumerate_local_optima(pts, 2)
        assert optima
        assert min(abs(res.inertia - inertia) for _, inertia in optima) < 1e-9


def test_criterion_5_fusion_self_consistency(scene_run):
    """Labeled points re-project in front of their camera and into their assigned boxes."""
    scene, _result, _elapsed = scene_run
    rig = load_rig(scene.calibration)
    cloud_index = read_manifest(scene.cloud_manifest)["cloud"]
    det_streams = read_manifest(scene.detection_manifest)
    cam_indices = {int(name[3:]): idx for name, idx in det_streams.items()}
    bundles = match_frames(cloud_index, cam_indices, 0.05)
    cams = {cam.id: cam for cam in rig}
    checked = 0
    for bundle in bundles:
        frame = read_pcd(bundle.cloud.path, frame_id=bundle.cloud.frame_id)
        dets = load_bundle_detections(bundle, rig)
        lc = label_frame(frame, rig, dets)
        assert len(lc) == len(frame)
        checked_in_frame = 0
        for cam_id, cam_dets in dets.items():
            mine = np.flatnonzero(lc.camera_id == cam_id)
            if mine.size == 0:
                continue
            det_index = lc.det_index[mine]
            assert det_index.min() >= 0 and det_index.max() < len(cam_dets)
            uv, in_front = project_points(cams[cam_id], frame.xyz[mine])
            assert in_front.all()
            boxes = np.array([[d.box.x_min, d.box.y_min, d.box.x_max, d.box.y_max] for d in cam_dets])
            x_min, y_min, x_max, y_max = boxes[det_index].T
            u, v = uv[:, 0], uv[:, 1]
            # the half-open rule, [min, max) on both axes
            assert np.all((x_min <= u) & (u < x_max) & (y_min <= v) & (v < y_max))
            checked_in_frame += mine.size
        # every labeled point belongs to one of this frame's cameras
        assert checked_in_frame == lc.n_labeled
        checked += checked_in_frame
        # an empty detection set labels nothing
        empty = label_frame(frame, rig, {})
        assert empty.n_labeled == 0
        assert len(empty) == len(frame)
    assert checked > 10_000
    print(f"\n  re-projected {checked} labeled points across {len(bundles)} frames")


def test_criterion_6_pcd_binary_round_trip(tmp_path):
    """100 random frames up to 50k points survive write/read bit-exactly."""
    rng = np.random.default_rng(6006)
    for i in range(100):
        n = int(rng.integers(1, 50_001))
        frame = PointCloudFrame(
            frame_id=i,
            timestamp=float(i),
            xyz=rng.uniform(-200, 200, size=(n, 3)).astype(np.float32),
            intensity=rng.uniform(0, 100, size=n).astype(np.float32),
        )
        path = tmp_path / "rt.pcd"
        write_pcd(frame, path)
        back = read_pcd(path, frame_id=i)
        assert np.array_equal(back.xyz, frame.xyz)
        assert np.array_equal(back.intensity, frame.intensity)


def test_criterion_7_throughput_ceiling():
    """232,320 points, 5 cameras, 10 boxes: label + denoise under 0.95 s."""
    rig, frame, dets_by_cam = criterion7_frame()
    assert len(frame) == 232_320

    start = time.perf_counter()
    lc = label_frame(frame, rig, dets_by_cam)
    lc, report = denoise_frame(frame, lc, KMeansConfig(k=3, seed=7))
    elapsed = time.perf_counter() - start
    assert report.labeled_before > 20_000
    print(f"\n  measured label+denoise time: {elapsed:.3f} s for {len(frame)} points")
    assert elapsed < 0.95


def test_criterion_8_determinism_across_runs_and_workers(scene_run, tmp_path):
    """Two single-worker runs and a 4-worker run emit byte-identical artifacts."""
    scene, _result, _elapsed = scene_run

    def run(out, workers):
        cfg = PipelineConfig(
            calibration=scene.calibration,
            cloud_manifest=scene.cloud_manifest,
            detection_manifest=scene.detection_manifest,
            out_dir=out,
            kmeans=KMeansConfig(k=3, seed=0),
            workers=workers,
        )
        return run_pipeline(cfg)

    a = run(tmp_path / "a", 1)
    b = run(tmp_path / "b", 1)
    c = run(tmp_path / "c", 4)
    for other in (b, c):
        assert len(other.frames) == len(a.frames)
        for fa, fo in zip(a.frames, other.frames):
            assert fa.pcd_path.read_bytes() == fo.pcd_path.read_bytes()
        assert a.report_csv.read_bytes() == other.report_csv.read_bytes()


@settings(max_examples=300, deadline=None)
@given(
    x0=st.floats(0, 500),
    y0=st.floats(0, 350),
    w=st.floats(min_value=1.0, max_value=640),
    h=st.floats(min_value=1.0, max_value=480),
)
def test_criterion_9_oversized_box_rule(x0, y0, w, h):
    """Every kept detection has area <= W*H/4; the exact quarter boundary is kept."""
    cam = simple_camera(width=640, height=480)
    det = Detection(0, 0, 2, 0.9, BBox(x0, y0, x0 + w, y0 + h))
    kept, rejected = filter_oversized([det], cam)
    limit = 640 * 480 / 4
    if det.box.area > limit:
        assert kept == [] and rejected == [det]
    else:
        assert kept == [det] and rejected == []


def test_criterion_9_exact_quarter_boundary():
    cam = simple_camera(width=640, height=480)
    det = Detection(0, 0, 2, 0.9, BBox(0, 0, 320, 240))
    assert det.box.area == 640 * 480 / 4
    kept, _ = filter_oversized([det], cam)
    assert kept == [det]
