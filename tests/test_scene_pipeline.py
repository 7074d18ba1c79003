import gc
import hashlib
import math
import re
import sys
import threading
import time
import warnings
import weakref
from dataclasses import replace
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from pclabel import (
    CameraModel,
    DistortionCoeffs,
    ExtrinsicPose,
    Intrinsics,
    KMeansConfig,
    PipelineConfig,
    PipelineError,
    PointCloudFrame,
    denoise_frame,
    frame_report,
    gen_scene,
    label_frame,
    load_rig,
    match_frames,
    read_ground_truth,
    read_manifest,
    read_pcd,
    read_pcd_columns,
    read_report_csv,
    run_pipeline,
    save_rig,
    write_manifest,
    write_pcd,
)
from pclabel import cloud_io, fusion, pipeline, scene
from pclabel.pipeline import load_bundle_detections
from pclabel.scene import SceneError, default_rig, format_ground_truth

from helpers import detection, random_rotation, traced_peak


@pytest.fixture(scope="module")
def small_scene(tmp_path_factory):
    out = tmp_path_factory.mktemp("scene")
    return gen_scene(out, frames=3, objects=3, noise_fraction=0.3, seed=11)


def _pipeline_cfg(scene, out_dir, **overrides):
    base = dict(
        calibration=scene.calibration,
        cloud_manifest=scene.cloud_manifest,
        detection_manifest=scene.detection_manifest,
        out_dir=out_dir,
        kmeans=KMeansConfig(k=3, seed=11),
    )
    base.update(overrides)
    return PipelineConfig(**base)


def _with_detection_file(bundle, cam_id, path, text):
    """``bundle`` with camera ``cam_id``'s detection file replaced by ``path`` holding ``text``."""
    path.write_text(text)
    return replace(bundle, cameras={**bundle.cameras, cam_id: replace(bundle.cameras[cam_id], path=path)})


def _bundles(scene, tolerance=0.05):
    rig = load_rig(scene.calibration)
    cloud_index = read_manifest(scene.cloud_manifest)["cloud"]
    det_streams = read_manifest(scene.detection_manifest)
    cam_indices = {int(name[3:]): idx for name, idx in det_streams.items()}
    return rig, match_frames(cloud_index, cam_indices, tolerance)


def test_label_frame_peak_memory_leaves_out_the_labels(tmp_path):
    # the labels (17 bytes a point) are allocated after the last projection:
    # on this frame, where every point is labeled, label_frame peaked at 82.0
    # bytes a point with them allocated first and projection gathering rows,
    # 56.5 with in-place projection, and peaks at 39.3 now
    scene = gen_scene(tmp_path / "scene", frames=1, objects=3, noise_fraction=0.3, seed=0)
    rig, (bundle,) = _bundles(scene)
    frame = read_pcd(bundle.cloud.path, bundle.cloud.frame_id)
    dets = load_bundle_detections(bundle, rig)
    lc, peak = traced_peak(label_frame, frame, rig, dets)
    assert lc.n_labeled > 0.9 * len(frame)
    assert peak / len(frame) < 48, f"peak {peak / len(frame):.1f} bytes per point"


class TestGenScene:
    def test_writes_all_inputs(self, small_scene):
        assert small_scene.calibration.exists()
        assert small_scene.cloud_manifest.exists()
        assert small_scene.detection_manifest.exists()
        assert small_scene.ground_truth.exists()
        rig = load_rig(small_scene.calibration)
        assert len(rig) == 5

    def test_ground_truth_consistent_with_boxes(self, small_scene):
        # every planted-object point must land inside some emitted box
        rig, bundles = _bundles(small_scene)
        gt = read_ground_truth(small_scene.ground_truth)
        for bundle in bundles:
            frame = read_pcd(bundle.cloud.path, frame_id=bundle.cloud.frame_id)
            dets = load_bundle_detections(bundle, rig)
            lc = label_frame(frame, rig, dets)
            objects = gt[bundle.cloud.frame_id] >= 0
            assert np.all(lc.labeled_mask[objects])

    def test_labeled_set_noise_share_matches_request(self, small_scene):
        rig, bundles = _bundles(small_scene)
        gt = read_ground_truth(small_scene.ground_truth)
        noise = labeled = 0
        for bundle in bundles:
            frame = read_pcd(bundle.cloud.path, frame_id=bundle.cloud.frame_id)
            lc = label_frame(frame, rig, load_bundle_detections(bundle, rig))
            mask = lc.labeled_mask
            labeled += int(mask.sum())
            noise += int((mask & (gt[bundle.cloud.frame_id] < 0)).sum())
        assert noise / labeled == pytest.approx(0.3, abs=0.02)

    def test_zero_objects(self, tmp_path):
        scene = gen_scene(tmp_path / "empty", frames=2, objects=0, noise_fraction=0.3, seed=0)
        result = run_pipeline(_pipeline_cfg(scene, tmp_path / "out"))
        assert all(r.report.labeled_before == 0 for r in result.frames)
        assert all(r.report.drop_rate_percent == 0.0 for r in result.frames)

    def test_single_object_no_noise_kept_entirely(self, tmp_path):
        scene = gen_scene(tmp_path / "clean", frames=2, objects=1, noise_fraction=0.0, seed=3)
        # with no noise the blob is one cluster: k=1 keeps every point
        result = run_pipeline(
            _pipeline_cfg(scene, tmp_path / "out", kmeans=KMeansConfig(k=1, seed=3))
        )
        gt = read_ground_truth(scene.ground_truth)
        for fr in result.frames:
            assert fr.report.kept_after / fr.report.labeled_before >= 0.99
            cols = read_pcd_columns(fr.pcd_path)
            labeled = cols["label"] >= 0
            assert np.all(gt[fr.frame_id][labeled] >= 0)  # every in-box point is the object

    def test_invalid_noise_fraction(self, tmp_path):
        with pytest.raises(ValueError, match="noise fraction"):
            gen_scene(tmp_path / "x", frames=1, objects=1, noise_fraction=1.0, seed=0)

    def test_at_least_one_frame(self, tmp_path):
        with pytest.raises(ValueError, match="frames must be >= 1"):
            gen_scene(tmp_path / "x", frames=0)

    @pytest.mark.parametrize("kwargs, message", [
        ({"objects": -1}, "objects must be >= 0, got -1"),
        ({"points_per_object": 0}, "points_per_object must be >= 1, got 0"),
        ({"seed": -1}, "seed must be >= 0, got -1"),
        ({"frames": 2.0}, "frames must be an integer, got 2.0"),
        ({"objects": True}, "objects must be an integer, got True"),
        ({"noise_fraction": "0.3"}, "noise fraction must be a number, got '0.3'"),
        ({"noise_fraction": float("nan")}, "noise fraction must be in [0, 1), got nan"),
        ({"rig": []}, "rig must hold at least one camera"),
    ])
    def test_parameters_are_checked_before_writing(self, tmp_path, kwargs, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            gen_scene(tmp_path / "x", **kwargs)
        assert not (tmp_path / "x").exists()

    def test_object_box_must_not_exceed_a_quarter_image(self, tmp_path):
        # a 120 x 120 image at focal 500 holds this seed's blob, but its box is over 60 x 60
        rig = default_rig(1, width=120, height=120, focal=500.0)
        with pytest.raises(SceneError, match="exceeds a quarter of camera 0 image"):
            gen_scene(tmp_path / "x", frames=1, objects=1, noise_fraction=0.0, seed=6, rig=rig,
                      points_per_object=50)

    def test_object_must_fit_camera_view(self, tmp_path):
        # a very narrow image cannot contain a whole blob box
        rig = default_rig(1, width=40, height=30, focal=500.0)
        with pytest.raises(SceneError, match="does not fit"):
            gen_scene(tmp_path / "x", frames=1, objects=1, noise_fraction=0.0, seed=0, rig=rig)

    def test_read_ground_truth_fills_missing_indices(self, tmp_path):
        path = tmp_path / "gt.txt"
        path.write_text("1 2 5\n0 0 -1\n\n1 0 3\n")
        gt = read_ground_truth(path)
        assert sorted(gt) == [0, 1]
        assert gt[0].tolist() == [-1]
        assert gt[1].tolist() == [3, -1, 5]
        path.write_text("")
        assert read_ground_truth(path) == {}

    def test_ground_truth_rows_format_as_printf_does(self):
        values = [0, 1, 9, 10, 11, 99, 100, 909, 1000, 143_141, 2**40 + 7]
        rows = [(f, i, o) for f in values for i in values[::-1] for o in [-1] + values]
        table = np.array(rows, dtype=[("frame", "<i8"), ("index", "<i8"), ("object", "<i8")])
        want = "".join("%d %d %d\n" % row for row in rows).encode("ascii")
        assert format_ground_truth(table) == want
        assert format_ground_truth(table[:1]) == b"0 1099511627783 -1\n"
        assert format_ground_truth(table[:0]) == b""

    @pytest.mark.parametrize(
        "bad", ["0 1 x", "0 1", "0 1 2 3", "0 1.5 2", "0 1e3 2", "0 1 2.0", "0 1 9223372036854775808"]
    )
    def test_malformed_ground_truth_line_names_file_and_line(self, tmp_path, bad):
        path = tmp_path / "gt.txt"
        path.write_text(f"0 0 -1\n\n{bad}\n0 2 1\n")
        # older numpy reads "1.5" into an integer through a float and only warns
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with pytest.raises(ValueError, match=re.escape(f"{path}:3: malformed row")):
                read_ground_truth(path)

    def test_negative_ground_truth_index_rejected(self, tmp_path):
        path = tmp_path / "gt.txt"
        path.write_text("0 0 1\n0 -1 5\n0 3 2\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}: ") + "negative point index"):
            read_ground_truth(path)

    def test_huge_ground_truth_index_rejected_before_allocating(self, tmp_path):
        path = tmp_path / "gt.txt"
        path.write_text("1 0 2\n0 999999999999999990 1\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}: frame 0 lists point 999999999999999990")):
            read_ground_truth(path)

    def test_ground_truth_index_limit_is_exclusive(self, tmp_path, monkeypatch):
        monkeypatch.setattr(scene, "MAX_FRAME_POINTS", 4)
        path = tmp_path / "gt.txt"
        path.write_text("0 3 1\n2 1 2\n")
        assert read_ground_truth(path)[0].tolist() == [-1, -1, -1, 1]
        path.write_text("0 3 1\n2 4 2\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}: frame 2 lists point 4") + ".* 4 points"):
            read_ground_truth(path)

    def test_repeated_ground_truth_point_rejected(self, tmp_path):
        path = tmp_path / "gt.txt"
        path.write_text("0 0 1\n0 1 2\n1 1 7\n0 1 5\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}: ") + "frame 0 lists point 1 twice"):
            read_ground_truth(path)

    def test_save_rig_roundtrip(self, tmp_path):
        # a ring of plain cameras, and five cameras that differ in every field
        rng = np.random.default_rng(23)
        distorted = [
            CameraModel(
                id=4 - i,
                intrinsics=Intrinsics(
                    fx=400.0 + 37.1 * i, fy=410.3 - 5.7 * i, cx=300.25 + i / 3, cy=200.5 + i / 7,
                    width=640 + 16 * i, height=480 + 8 * i,
                ),
                distortion=DistortionCoeffs(*rng.uniform(-0.2, 0.2, size=5).tolist()),
                pose=ExtrinsicPose(random_rotation(rng), rng.normal(size=3)),
            )
            for i in range(5)
        ]
        for rig in (default_rig(3), distorted):
            path = tmp_path / "rig.json"
            save_rig(rig, path)
            back = load_rig(path)
            assert [c.id for c in back] == [c.id for c in rig]
            for a, b in zip(rig, back):
                assert b.intrinsics == a.intrinsics
                assert b.distortion == a.distortion
                assert np.array_equal(b.pose.rotation, a.pose.rotation)
                assert np.array_equal(b.pose.translation, a.pose.translation)


class TestRunPipeline:
    def test_outputs_and_reports(self, small_scene, tmp_path):
        result = run_pipeline(_pipeline_cfg(small_scene, tmp_path / "out"))
        assert len(result.frames) == 3
        for fr in result.frames:
            assert fr.pcd_path.exists()
        csv_reports = read_report_csv(result.report_csv)
        assert [r.frame_id for r in csv_reports] == [0, 1, 2]
        assert result.summary_path.exists()
        assert all(r.seconds >= 0 for r in result.frames)

    def test_frame_seconds_include_the_pcd_write(self, small_scene, tmp_path, monkeypatch):
        write = pipeline.cloud_io.write_pcd

        def slow_write(*args, **kwargs):
            time.sleep(0.05)
            return write(*args, **kwargs)

        monkeypatch.setattr(pipeline.cloud_io, "write_pcd", slow_write)
        result = run_pipeline(_pipeline_cfg(small_scene, tmp_path / "out"))
        assert all(r.seconds >= 0.05 for r in result.frames)

    def test_kept_clusters_sit_on_planted_objects(self, small_scene, tmp_path):
        result = run_pipeline(_pipeline_cfg(small_scene, tmp_path / "out"))
        gt = read_ground_truth(small_scene.ground_truth)
        kept_obj = total_obj = 0
        for fr in result.frames:
            cols = read_pcd_columns(fr.pcd_path)
            kept = cols["cluster"] >= 0
            objects = gt[fr.frame_id] >= 0
            kept_obj += int((kept & objects).sum())
            total_obj += int(objects.sum())
        assert kept_obj / total_obj >= 0.9

    def test_empty_detection_manifest_runs_clean(self, small_scene, tmp_path):
        dets = tmp_path / "empty.manifest"
        dets.write_text("# no detections\n")
        result = run_pipeline(
            _pipeline_cfg(small_scene, tmp_path / "out", detection_manifest=dets)
        )
        assert all(r.report.labeled_before == 0 for r in result.frames)
        assert all(r.report.drop_rate_percent == 0.0 for r in result.frames)
        assert result.summary.mean_drop_rate == 0.0

    def test_denoise_off_matches_labeled_before(self, small_scene, tmp_path):
        with_denoise = run_pipeline(_pipeline_cfg(small_scene, tmp_path / "on"))
        without = run_pipeline(_pipeline_cfg(small_scene, tmp_path / "off", denoise=False))
        for a, b in zip(with_denoise.frames, without.frames):
            assert a.report.labeled_before == b.report.labeled_before
        assert all(r.report.dropped == 0 for r in without.frames)

    def test_rerun_is_byte_identical(self, small_scene, tmp_path):
        cfg = _pipeline_cfg(small_scene, tmp_path / "out")
        first = run_pipeline(cfg)
        blobs = {p.pcd_path.name: p.pcd_path.read_bytes() for p in first.frames}
        csv_bytes = first.report_csv.read_bytes()
        second = run_pipeline(cfg)
        for p in second.frames:
            assert p.pcd_path.read_bytes() == blobs[p.pcd_path.name]
        assert second.report_csv.read_bytes() == csv_bytes

    def test_absolute_entry_paths_read_the_same_files(self, small_scene, tmp_path):
        # manifests in another directory whose entries are absolute: each
        # entry replaces that directory, so the run reads the scene's files
        moved = tmp_path / "moved"
        moved.mkdir()
        for name in ("clouds.manifest", "dets.manifest"):
            lines = (small_scene.out_dir / name).read_text().splitlines()
            rows = [line.split(maxsplit=3) for line in lines]
            (moved / name).write_text("".join(
                f"{stream} {fid} {ts} {small_scene.out_dir / rel}\n" for stream, fid, ts, rel in rows
            ))
        here = run_pipeline(_pipeline_cfg(small_scene, tmp_path / "here"))
        there = run_pipeline(_pipeline_cfg(
            small_scene, tmp_path / "there",
            cloud_manifest=moved / "clouds.manifest", detection_manifest=moved / "dets.manifest",
        ))
        assert len(here.frames) == len(there.frames) == 3
        for a, b in zip(here.frames, there.frames):
            assert a.pcd_path.read_bytes() == b.pcd_path.read_bytes()
        assert here.report_csv.read_bytes() == there.report_csv.read_bytes()

    def test_confidence_threshold_filters_all(self, small_scene, tmp_path):
        result = run_pipeline(
            _pipeline_cfg(small_scene, tmp_path / "out", confidence=0.99)
        )
        assert all(r.report.labeled_before == 0 for r in result.frames)

    def test_class_allow_list(self, small_scene, tmp_path):
        result = run_pipeline(
            _pipeline_cfg(small_scene, tmp_path / "out", classes=frozenset({2}))
        )
        for r in result.frames:
            assert set(r.report.class_before) <= {2}
            assert r.report.labeled_before > 0

    @pytest.mark.parametrize("streams", [("cam0",), ("cloud", "lidar2")])
    def test_cloud_manifest_holds_only_a_cloud_stream(self, small_scene, tmp_path, streams):
        entries = read_manifest(small_scene.cloud_manifest)["cloud"]
        clouds = tmp_path / "clouds.manifest"
        write_manifest(clouds, [(s, e.frame_id, e.timestamp, str(e.path)) for s in streams for e in entries])
        message = f"{clouds}: expected only a 'cloud' stream, found {sorted(streams)}"
        with pytest.raises(PipelineError, match=re.escape(message)):
            run_pipeline(_pipeline_cfg(small_scene, tmp_path / "out", cloud_manifest=clouds))

    def test_detection_record_for_another_camera_rejected(self, small_scene, tmp_path):
        rig, bundles = _bundles(small_scene)
        cam_id, entry = min(bundles[0].cameras.items())
        dets = tmp_path / "dets.txt"
        text = Path(entry.path).read_text() + f"{cam_id + 1} {bundles[0].cloud.frame_id} 2 0.9 10 10 50 50\n"
        bundle = _with_detection_file(bundles[0], cam_id, dets, text)
        message = f"{dets}: records for camera {cam_id + 1} in the detections of camera {cam_id}"
        with pytest.raises(PipelineError, match=re.escape(message)):
            load_bundle_detections(bundle, rig)

    def test_detection_file_with_two_frame_ids_rejected(self, small_scene, tmp_path):
        rig, bundles = _bundles(small_scene)
        cam_id, entry = min(bundles[0].cameras.items())
        frame_id = bundles[0].cloud.frame_id
        dets = tmp_path / "dets.txt"
        text = Path(entry.path).read_text() + f"{cam_id} {frame_id + 99} 2 0.9 10 10 50 50\n"
        bundle = _with_detection_file(bundles[0], cam_id, dets, text)
        message = f"{dets}: records for frames {frame_id} and {frame_id + 99} in one file"
        with pytest.raises(PipelineError, match=re.escape(message)):
            load_bundle_detections(bundle, rig)

    def test_detection_frame_ids_are_not_matched_to_the_manifest(self, small_scene, tmp_path):
        # A detection file is matched to a cloud by timestamp; its records may
        # number their frame differently from the manifests, as long as they agree.
        rig, bundles = _bundles(small_scene)
        cam_id, entry = min(bundles[0].cameras.items())
        lines = [line.split() for line in Path(entry.path).read_text().splitlines() if line and line[0] != "#"]
        text = "".join(" ".join([cam, "7", *rest]) + "\n" for cam, _frame, *rest in lines)
        bundle = _with_detection_file(bundles[0], cam_id, tmp_path / "dets.txt", text)
        got = load_bundle_detections(bundle, rig)[cam_id]
        want = load_bundle_detections(bundles[0], rig)[cam_id]
        assert want and got == [replace(d, frame_id=7) for d in want]

    def test_confidence_equal_to_the_threshold_is_kept(self, small_scene, tmp_path):
        rig, bundles = _bundles(small_scene)
        frame_id = bundles[0].cloud.frame_id
        cam_id = min(bundles[0].cameras)
        threshold = 0.5
        below = float(np.nextafter(threshold, 0.0))
        text = "".join(
            f"{cam_id} {frame_id} {class_id} {conf!r} 10 10 50 50\n"
            for class_id, conf in ((2, threshold), (3, below), (5, 1.0))
        )
        bundle = _with_detection_file(bundles[0], cam_id, tmp_path / "dets.txt", text)
        got = load_bundle_detections(bundle, rig, confidence=threshold)[cam_id]
        assert [(d.class_id, d.confidence) for d in got] == [(2, threshold), (5, 1.0)]

    def test_rejected_records_are_counted_in_a_warning(self, small_scene, tmp_path, caplog):
        rig, bundles = _bundles(small_scene)
        cam_id, entry = min(bundles[0].cameras.items())
        dets = tmp_path / "dets.txt"
        text = Path(entry.path).read_text() + "not a record\n" + f"{cam_id} 0 2 0.9 50 50 10 10\n"
        bundle = _with_detection_file(bundles[0], cam_id, dets, text)
        with caplog.at_level("WARNING"):
            got = load_bundle_detections(bundle, rig)[cam_id]
        assert got == load_bundle_detections(bundles[0], rig)[cam_id]
        assert f"{dets}: rejected 2 malformed detection records" in caplog.text

    # int() reads "cam01" as camera 1, a second stream beside "cam1", and
    # the Arabic-Indic "cam١" as camera 1 too
    @pytest.mark.parametrize("stream", ["lidar", "cam01", "cam١"])
    def test_unknown_detection_stream_rejected(self, small_scene, tmp_path, stream):
        dets = tmp_path / "bad.manifest"
        dets.write_text(f"{stream} 0 0.0 nothing.txt\n", encoding="utf-8")
        with pytest.raises(PipelineError, match="not of the form"):
            run_pipeline(_pipeline_cfg(small_scene, tmp_path / "out", detection_manifest=dets))

    def test_stream_for_camera_missing_from_rig(self, small_scene, tmp_path):
        dets = tmp_path / "bad.manifest"
        dets.write_text("cam9 0 0.0 nothing.txt\n")
        with pytest.raises(PipelineError, match="absent from the rig"):
            run_pipeline(_pipeline_cfg(small_scene, tmp_path / "out", detection_manifest=dets))

    def test_missing_cloud_file_names_frame(self, small_scene, tmp_path):
        clouds = tmp_path / "broken.manifest"
        clouds.write_text("cloud 0 0.0 missing.pcd\n")
        with pytest.raises(PipelineError, match="frame 0"):
            run_pipeline(_pipeline_cfg(small_scene, tmp_path / "out", cloud_manifest=clouds))

    def test_failed_write_names_frame(self, small_scene, tmp_path):
        _rig, bundles = _bundles(small_scene)
        out = tmp_path / "out"
        (out / "labeled_000001.pcd").mkdir(parents=True)
        with pytest.raises(PipelineError, match=re.escape(f"frame 1 ({bundles[1].cloud.path}): ")):
            run_pipeline(_pipeline_cfg(small_scene, out))

    def test_failed_multiworker_run_leaves_no_writer_behind(self, small_scene, tmp_path, monkeypatch):
        written = []
        write_pcd = cloud_io.write_pcd

        def slow_write(frame, path, **kwargs):
            time.sleep(0.1)
            write_pcd(frame, path, **kwargs)
            written.append(path.name)

        monkeypatch.setattr(cloud_io, "write_pcd", slow_write)
        out = tmp_path / "out"
        (out / "labeled_000000.pcd").mkdir(parents=True)
        with pytest.raises(PipelineError, match="frame 0"):
            run_pipeline(_pipeline_cfg(small_scene, out, workers=2))
        after_return = list(written)
        time.sleep(0.3)
        # frames already running finish before run_pipeline raises; none writes later
        assert written == after_return

    def test_one_frame_alive_at_a_time(self, tmp_path, monkeypatch):
        scene = gen_scene(tmp_path / "scene", frames=4, objects=2, noise_fraction=0.3, seed=5)
        refs = []
        alive_at_read = []
        read_pcd, label_frame = cloud_io.read_pcd, fusion.label_frame

        def tracked_read(*args, **kwargs):
            gc.collect()
            alive_at_read.append(sum(ref() is not None for ref in refs))
            frame = read_pcd(*args, **kwargs)
            refs.append(weakref.ref(frame))
            return frame

        def tracked_label(*args, **kwargs):
            lc = label_frame(*args, **kwargs)
            refs.append(weakref.ref(lc))
            return lc

        monkeypatch.setattr(cloud_io, "read_pcd", tracked_read)
        monkeypatch.setattr(fusion, "label_frame", tracked_label)
        result = run_pipeline(_pipeline_cfg(scene, tmp_path / "out"))
        assert len(result.frames) == 4
        assert len(refs) == 8
        # no earlier PointCloudFrame or LabeledCloud survives into the next read
        assert alive_at_read == [0, 0, 0, 0]

    def test_out_of_tolerance_detections_ignored(self, small_scene, tmp_path):
        result = run_pipeline(
            _pipeline_cfg(small_scene, tmp_path / "out", tolerance=0.001)
        )
        assert all(r.report.labeled_before == 0 for r in result.frames)

    @pytest.mark.parametrize("confidence", [float("nan"), float("inf"), -0.1, 1.5])
    def test_confidence_must_be_in_unit_range(self, small_scene, tmp_path, confidence):
        with pytest.raises(ValueError, match="confidence"):
            _pipeline_cfg(small_scene, tmp_path / "out", confidence=confidence)

    @pytest.mark.parametrize("tolerance", [float("nan"), float("inf"), 0.0, -1.0])
    def test_tolerance_must_be_positive_and_finite(self, small_scene, tmp_path, tolerance):
        with pytest.raises(ValueError, match="tolerance must be positive and finite"):
            _pipeline_cfg(small_scene, tmp_path / "out", tolerance=tolerance)

    @pytest.mark.parametrize("classes", [{-1}, {80}, {2, 99}])
    def test_class_ids_must_be_coco_ids(self, small_scene, tmp_path, classes):
        with pytest.raises(ValueError, match="unknown class ids"):
            _pipeline_cfg(small_scene, tmp_path / "out", classes=classes)

    def test_workers_must_be_positive(self, small_scene, tmp_path):
        with pytest.raises(ValueError, match="workers"):
            _pipeline_cfg(small_scene, tmp_path / "out", workers=0)

    @pytest.mark.parametrize("workers", [2.5, 2.0, True, "2", None])
    def test_workers_must_be_an_integer(self, small_scene, tmp_path, workers):
        with pytest.raises(ValueError, match="^workers must be an integer, got "):
            _pipeline_cfg(small_scene, tmp_path / "out", workers=workers)

    @pytest.mark.parametrize("field, value", [
        ("denoise", "false"), ("denoise", np.bool_(False)), ("distortion", 1),
        ("tolerance", True), ("tolerance", "0.05"), ("confidence", True), ("confidence", "0.5"),
        ("classes", {True}), ("classes", {2.0}), ("classes", "car"), ("classes", [2]),
        ("calibration", 3), ("detection_manifest", None), ("kmeans", None),
    ])
    def test_every_field_is_type_checked(self, small_scene, tmp_path, field, value):
        # each one was kept, read as a number, or failed with a TypeError
        with pytest.raises(ValueError, match=f"^{field} "):
            _pipeline_cfg(small_scene, tmp_path / "out", **{field: value})

    def test_numpy_integer_workers_kept_as_an_int(self, small_scene, tmp_path):
        cfg = _pipeline_cfg(small_scene, tmp_path / "out", workers=np.int32(2))
        assert (type(cfg.workers), cfg.workers) == (int, 2)

    def test_multiworker_matches_single(self, small_scene, tmp_path):
        one = run_pipeline(_pipeline_cfg(small_scene, tmp_path / "w1"))
        four = run_pipeline(_pipeline_cfg(small_scene, tmp_path / "w4", workers=4))
        for a, b in zip(one.frames, four.frames):
            assert a.pcd_path.read_bytes() == b.pcd_path.read_bytes()
        assert one.report_csv.read_bytes() == four.report_csv.read_bytes()


@pytest.mark.parametrize("bad", ["nan", "inf"])
@pytest.mark.parametrize("data", ["binary", "ascii"])
def test_every_input_row_is_a_labeled_output_row(tmp_path, bad, data):
    # a driver marks a missing return with a NaN row; it keeps its place,
    # unlabeled, so labeled row i is input row i, as ground truth counts them
    scene = gen_scene(tmp_path / "scene", frames=1, objects=3, noise_fraction=0.3, seed=0)
    rig, (bundle,) = _bundles(scene)
    path = Path(bundle.cloud.path)
    xyz = read_pcd(path).xyz.copy()
    xyz[0, 0] = float(bad)
    # the input PCD in ``data`` mode, with the first x patched in its text or bytes
    write_pcd(read_pcd(path), path, data=data)
    raw = path.read_bytes()
    if data == "binary":
        body = len(raw) - 16 * len(xyz)  # x y z intensity, 4 bytes each
        raw = raw[:body] + xyz[0, 0].tobytes() + raw[body + 4:]
    else:
        header, data_line, body = raw.partition(b"DATA ascii\n")
        raw = header + data_line + bad.encode() + b" " + body.partition(b" ")[2]
    path.write_bytes(raw)

    result = run_pipeline(_pipeline_cfg(scene, tmp_path / "out"))
    assert result.frames[0].report.total_points == len(xyz)
    frame = read_pcd(path, frame_id=bundle.cloud.frame_id)
    lc = label_frame(frame, rig, load_bundle_detections(bundle, rig))
    denoise_frame(frame, lc, KMeansConfig(k=3, seed=11))
    for mode in ("binary", "ascii"):
        out = tmp_path / f"labeled_{mode}.pcd"
        write_pcd(frame, out, labels=lc, data=mode)
        if mode == "binary":
            assert out.read_bytes() == result.frames[0].pcd_path.read_bytes()
        cols = read_pcd_columns(out)
        assert np.array_equal(np.stack([cols["x"], cols["y"], cols["z"]], axis=1), xyz, equal_nan=True)
        assert (cols["label"][0], cols["cluster"][0]) == (-1, -1)
        assert (cols["cluster"] >= 0).any()


@pytest.fixture(scope="module")
def loop_scenes(tmp_path_factory):
    """2- and 6-frame scenes of one 100-point object a frame, for the frame loop."""
    out = tmp_path_factory.mktemp("loop")
    return {n: gen_scene(out / f"{n}", frames=n, objects=1, points_per_object=100, seed=3) for n in (2, 6)}


def _around_frames(monkeypatch, around):
    """Run each frame's task as ``around(frame_id, task)``; ``around`` calls ``task()``."""
    process = pipeline._process_bundle

    def wrapped(bundle, rig, cfg):
        return around(bundle.cloud.frame_id, partial(process, bundle, rig, cfg))

    monkeypatch.setattr(pipeline, "_process_bundle", wrapped)


class TestFrameLoop:
    def test_results_come_back_in_frame_order(self, loop_scenes, tmp_path, monkeypatch):
        finished = []

        def around(frame_id, task):
            time.sleep(0.02 * (6 - frame_id))  # later frames finish first
            result = task()
            finished.append(frame_id)
            return result

        _around_frames(monkeypatch, around)
        result = run_pipeline(_pipeline_cfg(loop_scenes[6], tmp_path / "out", workers=3))
        assert finished != sorted(finished)
        assert [fr.frame_id for fr in result.frames] == list(range(6))
        assert [r.frame_id for r in read_report_csv(result.report_csv)] == list(range(6))

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_at_most_workers_frames_run_at_once(self, loop_scenes, tmp_path, monkeypatch, workers):
        lock, full = threading.Lock(), threading.Event()
        running, most = set(), []

        def around(frame_id, task):
            with lock:
                running.add(frame_id)
                most.append(len(running))
                if len(running) == workers:
                    full.set()
            # hold every frame until ``workers`` of them have run at once
            assert full.wait(timeout=10)
            result = task()
            with lock:
                running.remove(frame_id)
            return result

        _around_frames(monkeypatch, around)
        run_pipeline(_pipeline_cfg(loop_scenes[6], tmp_path / "out", workers=workers))
        assert max(most) == workers

    def test_a_slow_first_frame_holds_back_no_other_start(self, loop_scenes, tmp_path, monkeypatch):
        last_started, waited = threading.Event(), []

        def around(frame_id, task):
            if frame_id == 0:
                waited.append(last_started.wait(timeout=10))
            elif frame_id == 5:
                last_started.set()
            return task()

        _around_frames(monkeypatch, around)
        result = run_pipeline(_pipeline_cfg(loop_scenes[6], tmp_path / "out", workers=2))
        assert waited == [True]
        assert [fr.frame_id for fr in result.frames] == list(range(6))

    @pytest.mark.parametrize("workers, frames, helpers", [(1, 6, 0), (3, 6, 2), (64, 2, 1)])
    def test_helper_threads_started(self, loop_scenes, tmp_path, monkeypatch, workers, frames, helpers):
        started = []

        class CountedThread(threading.Thread):
            def start(self):
                started.append(self)
                super().start()

        monkeypatch.setattr(threading, "Thread", CountedThread)
        result = run_pipeline(_pipeline_cfg(loop_scenes[frames], tmp_path / "out", workers=workers))
        assert len(result.frames) == frames
        assert len(started) == helpers

    def test_of_two_failed_frames_the_earlier_ones_error_is_raised(self, loop_scenes, tmp_path, monkeypatch):
        started, frame_2_failed = [], threading.Event()

        def around(frame_id, task):
            started.append(frame_id)
            if frame_id == 1:
                # fail only after frame 2 has failed
                frame_2_failed.wait(timeout=10)
                raise RuntimeError("frame 1 broke")
            if frame_id == 2:
                frame_2_failed.set()
                raise RuntimeError("frame 2 broke")
            return task()

        _around_frames(monkeypatch, around)
        with pytest.raises(RuntimeError, match="frame 1 broke"):
            run_pipeline(_pipeline_cfg(loop_scenes[6], tmp_path / "out", workers=2))
        assert frame_2_failed.is_set()
        # no frame starts after a failure
        assert sorted(started) == [0, 1, 2]

    def test_more_threads_than_cores_run_each_frame_once(self, short_and_long_scenes, tmp_path, monkeypatch):
        # a lost update on the shared list would run a frame twice or skip one
        runs, lock = [], threading.Lock()

        def around(frame_id, task):
            with lock:
                runs.append(frame_id)
            return task()

        _around_frames(monkeypatch, around)
        scene = short_and_long_scenes[40]
        results = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            runner = threading.Thread(
                target=lambda: results.append(run_pipeline(_pipeline_cfg(scene, tmp_path / "w8", workers=8)))
            )
            runner.start()
            runner.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not runner.is_alive() and len(results) == 1
        assert sorted(runs) == list(range(40))
        one = run_pipeline(_pipeline_cfg(scene, tmp_path / "w1"))
        assert [fr.frame_id for fr in results[0].frames] == list(range(40))
        assert results[0].report_csv.read_bytes() == one.report_csv.read_bytes()

    def test_a_base_exception_stops_the_other_threads(self, loop_scenes, tmp_path, monkeypatch):
        # not KeyboardInterrupt itself: one that escaped would end the test session
        class Halt(BaseException):
            pass

        started, both_running, halting = [], threading.Barrier(2, timeout=10), threading.Event()

        def around(frame_id, task):
            started.append(frame_id)
            if frame_id < 2:
                both_running.wait()
                if threading.current_thread() is not threading.main_thread():
                    halting.set()
                    raise Halt
                # give the helper's failure time to land before this thread looks for a next frame
                assert halting.wait(timeout=10)
                time.sleep(0.1)
            return task()

        _around_frames(monkeypatch, around)
        with pytest.raises(Halt):
            run_pipeline(_pipeline_cfg(loop_scenes[6], tmp_path / "out", workers=2))
        assert sorted(started) == [0, 1]


@pytest.fixture(scope="module")
def short_and_long_scenes(tmp_path_factory):
    """10- and 40-frame scenes of one 100-point object a frame.  A frame's own
    working set is small, so the growth of a run's peak is its run state, not
    the largest frame or two threads' frames peaking at once."""
    out = tmp_path_factory.mktemp("lengths")
    return {n: gen_scene(out / f"{n}", frames=n, objects=1, points_per_object=100, seed=3) for n in (10, 40)}


# While every bundle lived until the run ended and all frames were submitted
# at once, this grew by 4,020-4,230 bytes a frame at 1 or 2 workers (Python
# 3.11); with bundles released as frames finish, by 2,270-2,380 at 1 worker
# and 2,160-2,490 at 2 while each entry and result held a Path, and by
# 1,240-1,440 and 1,110-1,640 while they held text.  Since manifests are
# held as columns and reports packed, by 560-710 and 670-1,070 (15 runs
# each, twice).  Each limit keeps the margin it kept over the figures
# before it: 1.11 and 1.41 times the largest.
@pytest.mark.parametrize("workers, limit", [(1, 790), (2, 1500)])
def test_run_state_per_frame(short_and_long_scenes, tmp_path, workers, limit):
    # what a run holds for each frame of its sequence: its manifest columns
    # (a few bytes an entry beside its path) and its result
    peaks = {}
    for n, scene in short_and_long_scenes.items():
        cfg = _pipeline_cfg(scene, tmp_path / f"{n}", workers=workers)
        run_pipeline(cfg)  # warm-up: lazy imports and caches
        gc.collect()
        _result, peaks[n] = traced_peak(run_pipeline, cfg)
    growth = (peaks[40] - peaks[10]) / 30
    assert growth < limit, f"the traced peak grows by {growth:.0f} bytes a frame"


@pytest.mark.parametrize("workers", [1, 2])
def test_no_path_object_per_frame(short_and_long_scenes, tmp_path, monkeypatch, workers):
    # pathlib interns every component of every path it parses, and a grown
    # interned-string table is resized inside the run that grows it, which
    # allocates about 1 MB at once; a run builds its paths per run, not per frame
    calls = {}
    for n, scene in short_and_long_scenes.items():
        cfg = _pipeline_cfg(scene, tmp_path / f"{n}", workers=workers)
        counted = []
        with monkeypatch.context() as m:
            m.setattr(sys, "intern", lambda s, _intern=sys.intern: counted.append(s) or _intern(s))
            run_pipeline(cfg)
        calls[n] = len(counted)
    assert calls[40] == calls[10], f"sys.intern calls: {calls}"


# sha256 of every output of the 20-frame reference scene (gen_scene seed 0,
# 30% noise, k=3, k-means seed 0).  Any change to projection, box membership,
# k-means, PCD writing or the report shows up here byte for byte.
GOLDEN_SHA256 = {
    "labeled_000000.pcd": "d8ca06bc8db0b938cbdd687190e3d97c5a7531e2049ff3480989a1a29331373d",
    "labeled_000001.pcd": "034b295d46748e4231f83d00d3ac263868d5b7fb61db78fbf0bd1949325eea90",
    "labeled_000002.pcd": "198d0db9f0af6bf6a9bafe0a357145aedd4bbe396f5fb7a5b9e25d1ced9e8de1",
    "labeled_000003.pcd": "08318860c8f9db7aea1563cf9edc85b535df68609b1f815c2d2afe958d73f95a",
    "labeled_000004.pcd": "3db5fe062618a9a93bc827115242642315d4c97b3b22d7b5ec39e2d24b94694e",
    "labeled_000005.pcd": "b7e5e848aedebe524bf5bb52c15e34cd5a4d680748f07ad642621a72fab075c1",
    "labeled_000006.pcd": "65704312930e65491a2e32167314a6ddd9cf357645128f48d8458e4008a1aab0",
    "labeled_000007.pcd": "a994c819ca1cf6cb36b617d64abefdfd1f6da05b9b74b258f6d25b4189603e5e",
    "labeled_000008.pcd": "3f287867650ec0dfd44bf0484c350da1cb660e70f92854858c5d0a0bbff73f1e",
    "labeled_000009.pcd": "0027f87b7858e727f9c56eb471d9f660966ac0cc4a18f836238e2cf3cad1a7ad",
    "labeled_000010.pcd": "e263bc4a07088f377ad9cba8d5f5657dabb6d1ef46c29f15d49c83d3e2ddf607",
    "labeled_000011.pcd": "6942a4a712da2c06e755a8a1ac202c3be46c33e6d4b90832cf7620126c22bd1c",
    "labeled_000012.pcd": "603f08bccb71775072673b4f4d80750326d98e0798c0d44969287814e81dc022",
    "labeled_000013.pcd": "ac1c5a41d46bffe06e0564536b9a699286018fcf68df47dc4493abea9d1c6cc2",
    "labeled_000014.pcd": "a5ece55e95e9717cd1ffe58f988c3924e56a91492bfb61b7087bccabde00122d",
    "labeled_000015.pcd": "ee2e2005e07d575bc1bafaa11ea08e036318ebc950611a38014050453c39ae27",
    "labeled_000016.pcd": "51c9ee453839483eb24d88c95008ac9b77e45bfdca56cf67a0afd40c57a0312b",
    "labeled_000017.pcd": "c17485dd903965a687bb9bea1859921529fcf4f17bfa13dd4633dd7e5c23577d",
    "labeled_000018.pcd": "41df8c8bef1718fc11f909808fee41dc2793cc735fc43ba2d5d0fdcc13d5836a",
    "labeled_000019.pcd": "b2d78378d253f5bc8afdab3aad887fdb9d4e35d6415befed9e02f70b8cab0390",
    "report.csv": "5e9f4bf675c5c7550fae17c19e1e9d253fe70cd9319f37095af40ebcb5eeb8f9",
}


def test_reference_scene_outputs_match_golden_digests(tmp_path):
    scene = gen_scene(tmp_path / "scene", frames=20, objects=3, noise_fraction=0.30, seed=0)
    result = run_pipeline(_pipeline_cfg(scene, tmp_path / "out", kmeans=KMeansConfig(k=3, seed=0)))
    outputs = [fr.pcd_path for fr in result.frames] + [result.report_csv]
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in outputs}
    assert digests == GOLDEN_SHA256


# sha256 of the reference scene's ground_truth.txt and of its frame-0 labeled
# output written as ASCII PCD (same scene and k-means settings as above).
# These hold the ground-truth writer and the ASCII PCD writer byte for byte.
GOLDEN_GROUND_TRUTH_SHA256 = "2f615b634d727fd5d3f685e04b745efb746d81d5af0c5abe7af00ffc3e2610c6"
GOLDEN_FRAME0_ASCII_SHA256 = "8226202dee57b032dd179e03c9375524e7797a9e55516dfd04948b3d7b31025f"


def test_reference_scene_ground_truth_and_ascii_match_golden_digests(tmp_path):
    scene = gen_scene(tmp_path / "scene", frames=20, objects=3, noise_fraction=0.30, seed=0)
    assert hashlib.sha256(scene.ground_truth.read_bytes()).hexdigest() == GOLDEN_GROUND_TRUTH_SHA256
    rig, bundles = _bundles(scene)
    bundle = bundles[0]
    frame = read_pcd(bundle.cloud.path, frame_id=bundle.cloud.frame_id)
    lc = label_frame(frame, rig, load_bundle_detections(bundle, rig))
    lc, _report = denoise_frame(frame, lc, KMeansConfig(k=3, seed=0))
    path = tmp_path / "labeled_000000.pcd"
    write_pcd(frame, path, labels=lc, data="ascii")
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN_FRAME0_ASCII_SHA256


# sha256 of the label and denoise columns (class_id, camera_id, det_index,
# cluster_id, kept) of a synthetic 20,020-point frame seen by five cameras
# with distortion on.  Unlike the reference scene it has several boxes per
# camera, boxes nested inside each other, boxes that overlap across
# cameras (one pair with equal areas, so the camera id breaks the tie),
# boxes reaching outside the image and a detection with a single point.
GOLDEN_OVERLAP_FRAME_SHA256 = "5622f7d6d9b1fdf307416b3f0a659b0a4d7fc8bc78c2d9bb53e255899b3ddbb7"

_OVERLAP_BOXES = {  # camera id -> [(class id, (x_min, y_min, x_max, y_max))]
    0: [(2, (390, 195, 470, 270)), (0, (215, 195, 350, 300)),
        (2, (220, 210, 312, 295)), (7, (60, 185, 150, 265))],
    1: [(2, (490, 185, 575, 265)), (0, (345, 200, 425, 278)),
        (2, (250, 190, 305, 245)), (1, (55, 220, 150, 300))],
    2: [(2, (487, 220, 582, 300)), (2, (-40, 150, 120, 330)), (3, (100, 100, 600, 400))],
    3: [(0, (100, 150, 300, 350)), (2, (250, 100, 500, 300))],
    4: [(2, (-95, 180, 25, 280)), (7, (300, 200, 400, 300))],
}


def _overlap_frame():
    """14,000 background points around the sensor plus seven 860-point blobs,
    placed so that adjacent cameras of a focal-300 ring both see some."""
    rs = np.random.RandomState(2024)
    bg = rs.uniform([-30, -30, -2], [30, 30, 3], size=(15000, 3))
    bg = bg[np.hypot(bg[:, 0], bg[:, 1]) > 3.0][:14000]
    blobs = []
    for deg, radius, z in [(-20, 9, 0.2), (0, 12, 0.5), (10, 7, -0.3), (36, 10, 0.4),
                           (60, 8, 0.0), (80, 14, 1.0), (108, 9, -0.5)]:
        a = math.radians(deg)
        blobs.append(rs.normal([radius * math.cos(a), radius * math.sin(a), z], 0.5, size=(860, 3)))
    xyz = np.concatenate([bg] + blobs).astype(np.float32)
    return PointCloudFrame(frame_id=3, timestamp=0.0, xyz=xyz)


def test_overlapping_boxes_with_distortion_match_golden_digest():
    _check_overlap_frame_golden()


def test_overlap_golden_holds_when_projecting_in_7_row_blocks(monkeypatch):
    monkeypatch.setattr(cloud_io, "BLOCK_ROWS", 7)
    _check_overlap_frame_golden()


def _check_overlap_frame_golden():
    dist = DistortionCoeffs(k1=-0.08, k2=0.02, p1=0.001, p2=-0.002, k3=0.004)
    rig = [replace(cam, distortion=dist) for cam in default_rig(focal=300.0)]
    dets = {
        cam_id: [detection(cam_id, box, class_id=cls, frame_id=3) for cls, box in boxes]
        for cam_id, boxes in _OVERLAP_BOXES.items()
    }
    frame = _overlap_frame()
    lc = label_frame(frame, rig, dets, distortion_mode=True)
    lc, report = denoise_frame(frame, lc, KMeansConfig(k=3, seed=7))
    assert (report.total_points, report.labeled_before, report.kept_after) == (20020, 14811, 7815)
    assert report == frame_report(frame, lc)  # denoise_frame reports what it wrote
    digest = hashlib.sha256()
    for column in (lc.class_id, lc.camera_id, lc.det_index, lc.cluster_id, lc.kept):
        digest.update(column.tobytes())
    assert digest.hexdigest() == GOLDEN_OVERLAP_FRAME_SHA256
