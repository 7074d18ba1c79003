import re
import warnings

import numpy as np
import pytest

from pclabel import (
    FrameIndex,
    IndexEntry,
    LabeledCloud,
    PcdError,
    PointCloudFrame,
    match_frames,
    read_manifest,
    read_pcd,
    read_pcd_columns,
    write_pcd,
)

MINIMAL_PCD = """VERSION 0.7
FIELDS x y z
SIZE 4 4 4
TYPE F F F
COUNT 1 1 1
WIDTH 3
HEIGHT 1
VIEWPOINT 0 0 0 1 0 0 0
POINTS 3
DATA ascii
0 0 0
1 0 0
0 1 0
"""

LABELED_PCD = (
    MINIMAL_PCD.replace("FIELDS x y z", "FIELDS x y z label")
    .replace("SIZE 4 4 4", "SIZE 4 4 4 4")
    .replace("TYPE F F F", "TYPE F F F I")
    .replace("COUNT 1 1 1", "COUNT 1 1 1 1")
    .replace("0 0 0\n1 0 0\n0 1 0\n", "0 0 0 1\n1 0 0 1.5\n0 1 0 -1\n")
)


def _random_frame(rng, n, frame_id=0, with_intensity=True):
    xyz = rng.uniform(-100, 100, size=(n, 3)).astype(np.float32)
    intensity = rng.uniform(0, 1, size=n).astype(np.float32) if with_intensity else None
    return PointCloudFrame(frame_id=frame_id, timestamp=0.0, xyz=xyz, intensity=intensity)


class TestReadPcd:
    def test_minimal_ascii(self, tmp_path):
        path = tmp_path / "a.pcd"
        path.write_text(MINIMAL_PCD)
        frame = read_pcd(path)
        assert len(frame) == 3
        assert frame.xyz.tolist() == [[0, 0, 0], [1, 0, 0], [0, 1, 0]]
        assert frame.intensity is None
        assert frame.dropped_non_finite == 0

    def test_point_count_mismatch(self, tmp_path):
        path = tmp_path / "a.pcd"
        path.write_text(MINIMAL_PCD.replace("WIDTH 3", "WIDTH 2").replace("POINTS 3", "POINTS 2"))
        with pytest.raises(PcdError, match="count mismatch"):
            read_pcd(path)

    def test_missing_required_field(self, tmp_path):
        path = tmp_path / "a.pcd"
        path.write_text(MINIMAL_PCD.replace("FIELDS x y z", "FIELDS x y w"))
        with pytest.raises(PcdError, match="missing required field 'z'"):
            read_pcd(path)

    def test_duplicate_header_key(self, tmp_path):
        path = tmp_path / "a.pcd"
        path.write_text(MINIMAL_PCD.replace("VERSION 0.7", "VERSION 0.7\nVERSION 0.7"))
        with pytest.raises(PcdError, match="duplicate header key"):
            read_pcd(path)

    def test_unknown_header_key(self, tmp_path):
        path = tmp_path / "a.pcd"
        path.write_text(MINIMAL_PCD.replace("VERSION 0.7", "MAGIC 1"))
        with pytest.raises(PcdError, match="unknown header key"):
            read_pcd(path)

    def test_unsupported_data_mode(self, tmp_path):
        path = tmp_path / "a.pcd"
        path.write_text(MINIMAL_PCD.replace("DATA ascii", "DATA binary_compressed"))
        with pytest.raises(PcdError, match="unsupported DATA mode"):
            read_pcd(path)

    def test_non_finite_points_dropped_with_count(self, tmp_path, caplog):
        path = tmp_path / "a.pcd"
        path.write_text(MINIMAL_PCD.replace("1 0 0", "nan 0 0"))
        with caplog.at_level("WARNING"):
            frame = read_pcd(path)
        assert len(frame) == 2
        assert frame.dropped_non_finite == 1
        assert "non-finite" in caplog.text

    def test_unknown_field_skipped(self, tmp_path):
        text = (
            "VERSION 0.7\nFIELDS x y z rgb\nSIZE 4 4 4 4\nTYPE F F F U\n"
            "COUNT 1 1 1 1\nWIDTH 1\nHEIGHT 1\nVIEWPOINT 0 0 0 1 0 0 0\n"
            "POINTS 1\nDATA ascii\n1 2 3 255\n"
        )
        path = tmp_path / "a.pcd"
        path.write_text(text)
        frame = read_pcd(path)
        assert frame.xyz.tolist() == [[1, 2, 3]]
        assert frame.intensity is None
        # an unknown field with COUNT 3 spans three tokens per row
        path.write_text(
            text.replace("COUNT 1 1 1 1", "COUNT 1 1 1 3").replace("POINTS 1", "POINTS 2")
            .replace("1 2 3 255\n", "1 2 3 4 5 6\n7 8 9 10 11 12\n")
        )
        frame = read_pcd(path)
        assert frame.xyz.tolist() == [[1, 2, 3], [7, 8, 9]]

    def test_wrong_type_for_known_field(self, tmp_path):
        path = tmp_path / "a.pcd"
        path.write_text(MINIMAL_PCD.replace("TYPE F F F", "TYPE F F I"))
        with pytest.raises(PcdError, match="field 'z'"):
            read_pcd(path)

    def test_malformed_row(self, tmp_path):
        path = tmp_path / "a.pcd"
        path.write_text(MINIMAL_PCD.replace("1 0 0", "1 0"))
        with pytest.raises(PcdError, match="malformed row"):
            read_pcd(path)
        # a fractional value in an integer (TYPE I) field
        path.write_text(LABELED_PCD)
        with pytest.raises(PcdError, match="malformed row"):
            read_pcd_columns(path)
        path.write_text(LABELED_PCD.replace("1.5", "2"))
        assert read_pcd_columns(path)["label"].tolist() == [1, 2, -1]

    @pytest.mark.parametrize(
        "token", ["1.5", "1e3", "1.0", "nan", "1_0", "+-5", "2147483648", "9" * 20, "9" * 30]
    )
    def test_integer_field_rejects_other_tokens_whatever_the_warning_filters(self, tmp_path, token):
        # older numpy reads such a token through a float and only warns
        path = tmp_path / "a.pcd"
        path.write_text(LABELED_PCD.replace("1.5", token))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with pytest.raises(PcdError, match=re.escape(f"{path}:12: malformed row")):
                read_pcd_columns(path)

    def test_integer_field_limits(self, tmp_path):
        path = tmp_path / "a.pcd"
        path.write_text(
            LABELED_PCD.replace("0 0 0 1\n", "0 0 0 +5\n")
            .replace("1.5", "-2147483648")
            .replace("0 1 0 -1\n", "0 1 0 0002147483647\n")
        )
        assert read_pcd_columns(path)["label"].tolist() == [5, -2147483648, 2147483647]
        # an unknown unsigned field of SIZE 1 holds 0..255
        unsigned = (
            LABELED_PCD.replace("FIELDS x y z label", "FIELDS x y z flag")
            .replace("SIZE 4 4 4 4", "SIZE 4 4 4 1")
            .replace("TYPE F F F I", "TYPE F F F U")
            .replace("0 1 0 -1\n", "0 1 0 255\n")
        )
        path.write_text(unsigned.replace("1.5", "+0"))
        assert len(read_pcd(path)) == 3
        for bad in ("256", "-1", "-0"):
            path.write_text(unsigned.replace("1.5", bad))
            with pytest.raises(PcdError, match=re.escape(f"{path}:12: malformed row")):
                read_pcd(path)

    def test_unknown_header_key_names_file_and_line(self, tmp_path):
        path = tmp_path / "a.pcd"
        path.write_text(MINIMAL_PCD.replace("VIEWPOINT 0 0 0 1 0 0 0", "MAGIC 1"))
        with pytest.raises(PcdError, match=re.escape(f"{path}:8: ") + "unknown header key 'MAGIC'"):
            read_pcd(path)

    def test_bad_token_after_blank_line_names_file_line(self, tmp_path):
        # header lines 1-10, data 11-14 with line 12 blank: the bad token is on line 13
        path = tmp_path / "a.pcd"
        path.write_text(MINIMAL_PCD.replace("\n1 0 0\n", "\n\n1 0 abc\n"))
        with pytest.raises(PcdError, match=re.escape(f"{path}:13: ") + "malformed row"):
            read_pcd(path)

    def test_binary_count_mismatch_names_path(self, tmp_path):
        path = tmp_path / "a.pcd"
        write_pcd(_random_frame(np.random.default_rng(0), 10), path)
        path.write_bytes(path.read_bytes() + b"\0")
        with pytest.raises(PcdError, match=re.escape(f"{path}: ") + "point count mismatch"):
            read_pcd(path)

    def test_truncated_binary(self, tmp_path):
        frame = _random_frame(np.random.default_rng(0), 10)
        path = tmp_path / "a.pcd"
        write_pcd(frame, path)
        data = path.read_bytes()
        path.write_bytes(data[:-4])
        with pytest.raises(PcdError, match="count mismatch"):
            read_pcd(path)


class TestWriteReadRoundTrip:
    def test_binary_roundtrip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(42)
        frame = _random_frame(rng, 1000, frame_id=7)
        path = tmp_path / "rt.pcd"
        write_pcd(frame, path)
        back = read_pcd(path, frame_id=7)
        assert np.array_equal(back.xyz, frame.xyz)
        assert np.array_equal(back.intensity, frame.intensity)
        assert back.frame_id == 7

    def test_ascii_roundtrip_exact_at_9_digits(self, tmp_path):
        rng = np.random.default_rng(43)
        frame = _random_frame(rng, 500)
        path = tmp_path / "rt.pcd"
        write_pcd(frame, path, data="ascii")
        back = read_pcd(path)
        # 9 significant digits round-trips float32 exactly
        assert np.array_equal(back.xyz, frame.xyz)
        assert np.array_equal(back.intensity, frame.intensity)

    def test_binary_roundtrip_10k(self, tmp_path):
        rng = np.random.default_rng(44)
        frame = _random_frame(rng, 10_000, with_intensity=False)
        path = tmp_path / "rt.pcd"
        write_pcd(frame, path)
        back = read_pcd(path)
        assert np.array_equal(back.xyz, frame.xyz)
        # intensity is materialized as zeros on write
        assert np.array_equal(back.intensity, np.zeros(len(frame), dtype=np.float32))

    @pytest.mark.parametrize("data", ["binary", "ascii"])
    def test_empty_frame_roundtrip(self, tmp_path, data):
        frame = PointCloudFrame(frame_id=0, timestamp=0.0, xyz=np.zeros((0, 3), dtype=np.float32))
        path = tmp_path / "rt.pcd"
        write_pcd(frame, path, data=data)
        back = read_pcd(path)
        assert len(back) == 0

    @pytest.mark.parametrize("data", ["binary", "ascii"])
    def test_label_columns_passthrough(self, tmp_path, data):
        frame = PointCloudFrame(
            frame_id=0, timestamp=0.0,
            xyz=np.array([[0, 0, 1], [0, 0, 2], [0, 0, 3]], dtype=np.float32),
        )
        lc = LabeledCloud.empty(0, 3)
        lc.class_id[:] = (-1, 0, 2)
        lc.camera_id[:] = (-1, 0, 0)
        lc.det_index[:] = (-1, 0, 1)
        lc.kept[:] = (False, True, False)
        lc.cluster_id[:] = (-1, 1, 2)
        path = tmp_path / "labeled.pcd"
        write_pcd(frame, path, labels=lc, data=data)
        cols = read_pcd_columns(path)
        assert cols["label"].tolist() == [-1, 0, 2]
        # cluster is -1 for unlabeled and for dropped points
        assert cols["cluster"].tolist() == [-1, 1, -1]

    def test_label_count_mismatch(self, tmp_path):
        frame = _random_frame(np.random.default_rng(1), 4)
        lc = LabeledCloud.empty(0, 3)
        with pytest.raises(ValueError, match="label count"):
            write_pcd(frame, tmp_path / "x.pcd", labels=lc)

    def test_ascii_label_columns(self, tmp_path):
        frame = PointCloudFrame(
            frame_id=0, timestamp=0.0, xyz=np.array([[1, 2, 3]], dtype=np.float32)
        )
        lc = LabeledCloud.empty(0, 1)
        lc.class_id[0] = 7
        lc.camera_id[0] = 0
        lc.det_index[0] = 0
        lc.kept[0] = True
        lc.cluster_id[0] = 0
        path = tmp_path / "l.pcd"
        write_pcd(frame, path, labels=lc, data="ascii")
        cols = read_pcd_columns(path)
        assert cols["label"].tolist() == [7]
        assert cols["cluster"].tolist() == [0]


class TestFrameTypes:
    def test_non_finite_coordinates_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            PointCloudFrame(frame_id=0, timestamp=0.0, xyz=np.array([[np.inf, 0, 0]]))

    def test_intensity_length_mismatch(self):
        with pytest.raises(ValueError, match="intensity"):
            PointCloudFrame(
                frame_id=0, timestamp=0.0,
                xyz=np.zeros((2, 3), dtype=np.float32),
                intensity=np.zeros(3, dtype=np.float32),
            )

    def test_frame_arrays_immutable(self):
        frame = PointCloudFrame(frame_id=0, timestamp=0.0, xyz=np.zeros((1, 3), dtype=np.float32))
        with pytest.raises(ValueError):
            frame.xyz[0, 0] = 1.0

    def test_index_strictly_increasing(self):
        entries = [IndexEntry(0, 1.0, None), IndexEntry(1, 1.0, None)]
        with pytest.raises(ValueError, match="strictly increasing"):
            FrameIndex("cloud", tuple(entries))


class TestManifest:
    def test_roundtrip_and_relative_paths(self, tmp_path):
        manifest = tmp_path / "clouds.manifest"
        manifest.write_text(
            "# comment\n"
            "cloud 0 0.0 clouds/a.pcd\n"
            "cloud 1 0.1 clouds/b.pcd\n"
            "cam0 0 0.01 dets/a.txt\n"
        )
        streams = read_manifest(manifest)
        assert set(streams) == {"cloud", "cam0"}
        assert streams["cloud"].entries[0].path == tmp_path / "clouds/a.pcd"
        assert streams["cloud"].entries[1].frame_id == 1

    def test_malformed_line(self, tmp_path):
        manifest = tmp_path / "m.manifest"
        manifest.write_text("cloud 0 0.0\n")
        with pytest.raises(ValueError, match="expected"):
            read_manifest(manifest)

    def test_decreasing_timestamps_rejected(self, tmp_path):
        manifest = tmp_path / "m.manifest"
        manifest.write_text("cloud 0 1.0 a.pcd\ncloud 1 0.5 b.pcd\n")
        with pytest.raises(ValueError, match="strictly increasing"):
            read_manifest(manifest)

    @pytest.mark.parametrize("stamp", ["nan", "inf", "-inf"])
    def test_non_finite_timestamp_rejected(self, tmp_path, stamp):
        manifest = tmp_path / "m.manifest"
        manifest.write_text(f"cloud 0 0.0 a.pcd\ncloud 1 {stamp} b.pcd\n")
        with pytest.raises(ValueError, match=re.escape(f"{manifest}:2: ") + ".*finite"):
            read_manifest(manifest)

    def test_duplicate_frame_id_in_stream_rejected(self, tmp_path):
        manifest = tmp_path / "m.manifest"
        manifest.write_text("cloud 0 0.0 a.pcd\ncam0 0 0.0 a.txt\ncloud 0 0.1 b.pcd\n")
        with pytest.raises(ValueError, match=re.escape(f"{manifest}:3: ") + "duplicate frame id 0"):
            read_manifest(manifest)


def _index(stream, stamps):
    return FrameIndex(
        stream,
        tuple(IndexEntry(i, t, None) for i, t in enumerate(stamps)),
    )


class TestMatchFrames:
    def test_nearest_within_tolerance(self):
        bundles = match_frames(_index("cloud", [10.0]), {0: _index("cam0", [9.98, 10.30])}, 0.05)
        assert len(bundles) == 1
        assert bundles[0].cameras[0].timestamp == 9.98
        assert not bundles[0].is_empty

    def test_out_of_tolerance_omitted_and_flagged(self):
        bundles = match_frames(_index("cloud", [10.0]), {0: _index("cam0", [10.30])}, 0.05)
        assert bundles[0].cameras == {}
        assert bundles[0].is_empty

    def test_equidistant_tie_prefers_earlier(self):
        bundles = match_frames(_index("cloud", [10.0]), {0: _index("cam0", [9.95, 10.05])}, 0.1)
        assert bundles[0].cameras[0].timestamp == 9.95

    def test_exactly_at_tolerance_kept(self):
        # 0.5 is exactly representable, so dt == tolerance precisely
        bundles = match_frames(_index("cloud", [10.0]), {0: _index("cam0", [10.5])}, 0.5)
        assert bundles[0].cameras[0].timestamp == 10.5

    def test_tolerance_must_be_positive(self):
        with pytest.raises(ValueError, match="tolerance"):
            match_frames(_index("cloud", [1.0]), {}, 0.0)

    @pytest.mark.parametrize("tolerance", [float("nan"), float("inf")])
    def test_tolerance_must_be_finite(self, tolerance):
        with pytest.raises(ValueError, match="tolerance"):
            match_frames(_index("cloud", [1.0]), {0: _index("cam0", [1.0])}, tolerance)

    def test_empty_cloud_index_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            match_frames(FrameIndex("cloud", ()), {}, 0.05)

    def test_no_cameras_yields_empty_bundles(self):
        bundles = match_frames(_index("cloud", [1.0, 2.0]), {}, 0.05)
        assert [b.is_empty for b in bundles] == [True, True]

    def test_at_most_one_match_per_camera_and_monotone(self):
        rng = np.random.default_rng(5)
        cloud_ts = np.sort(rng.uniform(0, 100, 40))
        cloud_ts += np.arange(40) * 1e-3  # enforce strict increase
        cam_ts = np.sort(rng.uniform(0, 100, 60))
        cam_ts += np.arange(60) * 1e-3
        cloud = _index("cloud", cloud_ts.tolist())
        cams = {0: _index("cam0", cam_ts.tolist())}
        bundles = match_frames(cloud, cams, 0.8)
        matched = [b.cameras[0].timestamp for b in bundles if 0 in b.cameras]
        assert all(b - a >= 0 for a, b in zip(matched, matched[1:]))
        for b in bundles:
            if 0 in b.cameras:
                assert abs(b.cameras[0].timestamp - b.cloud.timestamp) <= 0.8
