import hashlib

import numpy as np
import pytest

from pclabel import (
    KMeansConfig,
    PipelineConfig,
    PipelineError,
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
)
from pclabel.pipeline import load_bundle_detections
from pclabel.scene import SceneError, default_rig, save_rig


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


def _bundles(scene, tolerance=0.05):
    rig = load_rig(scene.calibration)
    cloud_index = read_manifest(scene.cloud_manifest)["cloud"]
    det_streams = read_manifest(scene.detection_manifest)
    cam_indices = {int(name[3:]): idx for name, idx in det_streams.items()}
    return rig, match_frames(cloud_index, cam_indices, tolerance)


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

    def test_object_must_fit_camera_view(self, tmp_path):
        # a very narrow image cannot contain a whole blob box
        rig = default_rig(1, width=40, height=30, focal=500.0)
        with pytest.raises(SceneError, match="does not fit"):
            gen_scene(tmp_path / "x", frames=1, objects=1, noise_fraction=0.0, seed=0, rig=rig)

    def test_save_rig_roundtrip(self, tmp_path):
        rig = default_rig(3)
        path = tmp_path / "rig.json"
        save_rig(rig, path)
        back = load_rig(path)
        assert [c.id for c in back] == [0, 1, 2]
        for a, b in zip(rig, back):
            assert np.allclose(a.pose.rotation, b.pose.rotation)
            assert np.allclose(a.pose.translation, b.pose.translation)


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

    def test_unknown_detection_stream_rejected(self, small_scene, tmp_path):
        dets = tmp_path / "bad.manifest"
        dets.write_text("lidar 0 0.0 nothing.txt\n")
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

    def test_out_of_tolerance_detections_ignored(self, small_scene, tmp_path):
        result = run_pipeline(
            _pipeline_cfg(small_scene, tmp_path / "out", tolerance=0.001)
        )
        assert all(r.report.labeled_before == 0 for r in result.frames)

    def test_workers_must_be_positive(self, small_scene, tmp_path):
        with pytest.raises(ValueError, match="workers"):
            _pipeline_cfg(small_scene, tmp_path / "out", workers=0)

    def test_multiworker_matches_single(self, small_scene, tmp_path):
        one = run_pipeline(_pipeline_cfg(small_scene, tmp_path / "w1"))
        four = run_pipeline(_pipeline_cfg(small_scene, tmp_path / "w4", workers=4))
        for a, b in zip(one.frames, four.frames):
            assert a.pcd_path.read_bytes() == b.pcd_path.read_bytes()
        assert one.report_csv.read_bytes() == four.report_csv.read_bytes()


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
