import re
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from helpers import criterion7_frame, traced_peak
from pclabel import (
    FrameIndex,
    LabeledCloud,
    PcdError,
    PointCloudFrame,
    match_frames,
    read_manifest,
    read_pcd,
    read_pcd_columns,
    write_pcd,
)
from pclabel import cloud_io

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


def _random_labels(rng, n):
    """Labels with unlabeled, kept and dropped points, and large ids."""
    lc = LabeledCloud.empty(0, n)
    labeled = rng.random(n) < 0.7
    lc.class_id[labeled] = rng.integers(0, 2**31 - 1, size=labeled.sum())
    lc.camera_id[labeled] = 0
    lc.det_index[labeled] = 0
    lc.cluster_id[labeled] = rng.integers(0, 5, size=labeled.sum())
    lc.kept[labeled] = rng.random(labeled.sum()) < 0.5
    return lc


class TestReadPcd:
    def test_minimal_ascii(self, tmp_path):
        path = tmp_path / "a.pcd"
        path.write_text(MINIMAL_PCD)
        frame = read_pcd(path)
        assert len(frame) == 3
        assert frame.xyz.tolist() == [[0, 0, 0], [1, 0, 0], [0, 1, 0]]
        assert frame.intensity is None

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

    def test_non_finite_points_kept_in_place(self, tmp_path, caplog):
        # frame row i is file row i, so per-row joins such as ground truth hold
        path = tmp_path / "a.pcd"
        path.write_text(MINIMAL_PCD.replace("1 0 0", "nan 0 0").replace("0 1 0", "0 -inf 0"))
        with caplog.at_level("WARNING"):
            frame = read_pcd(path)
        assert np.array_equal(frame.xyz, [[0, 0, 0], [np.nan, 0, 0], [0, -np.inf, 0]], equal_nan=True)
        assert caplog.text == ""

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
            text.replace("COUNT 1 1 1 1", "COUNT 1 1 1 3")
            .replace("WIDTH 1", "WIDTH 2").replace("POINTS 1", "POINTS 2")
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

    def test_first_of_two_bad_rows_is_named(self, tmp_path):
        rows = [f"{i} 0 0" for i in range(300)]
        rows[170] = "1 0 abc"
        rows[250] = "1 0"
        path = tmp_path / "a.pcd"
        path.write_text(
            MINIMAL_PCD.replace("WIDTH 3", "WIDTH 300").replace("POINTS 3", "POINTS 300")
            .replace("0 0 0\n1 0 0\n0 1 0\n", "\n".join(rows) + "\n")
        )
        # header lines 1-10, so row i is on line 11 + i
        with pytest.raises(PcdError, match=re.escape(f"{path}:181: malformed row")):
            read_pcd(path)

    def test_binary_count_mismatch_names_path(self, tmp_path):
        path = tmp_path / "a.pcd"
        write_pcd(_random_frame(np.random.default_rng(0), 10), path)
        path.write_bytes(path.read_bytes() + b"\0")
        with pytest.raises(PcdError, match=re.escape(f"{path}: ") + "point count mismatch"):
            read_pcd(path)

    @pytest.mark.parametrize("old, new, message", [
        ("COUNT 1 1 1\n", "", "missing header key 'COUNT'"),
        ("SIZE 4 4 4", "SIZE 4 4 four", "malformed SIZE/COUNT"),
        ("SIZE 4 4 4", "SIZE 4 4", "FIELDS, SIZE, TYPE and COUNT lengths disagree"),
        ("FIELDS x y z", "FIELDS x y y", "duplicate field names"),
        ("COUNT 1 1 1", "COUNT 1 1 2", "field 'z' must have COUNT 1, got 2"),
        ("POINTS 3", "POINTS three", "malformed point count"),
        ("WIDTH 3\nHEIGHT 1\nVIEWPOINT 0 0 0 1 0 0 0\nPOINTS 3\n", "", "missing header key 'POINTS'"),
        ("POINTS 3", "POINTS 5", "point count mismatch: POINTS 5, WIDTH x HEIGHT 3"),
        ("WIDTH 3", "WIDTH 10", "point count mismatch: POINTS 3, WIDTH x HEIGHT 10"),
        ("POINTS 3", "POINTS 3 7", "malformed point count: POINTS takes one value, got 2"),
        ("WIDTH 3", "WIDTH 3 1", "malformed point count: WIDTH takes one value, got 2"),
        ("HEIGHT 1", "HEIGHT 1 1", "malformed point count: HEIGHT takes one value, got 2"),
        ("POINTS 3", "POINTS", "malformed point count: POINTS takes one value, got 0"),
        # no count may be negative, even where WIDTH x HEIGHT matches POINTS
        ("WIDTH 3\nHEIGHT 1", "WIDTH -3\nHEIGHT -1", "malformed point count: WIDTH must be >= 0, got -3"),
        ("HEIGHT 1", "HEIGHT -1", "malformed point count: HEIGHT must be >= 0, got -1"),
        ("WIDTH 3\nHEIGHT 1\nVIEWPOINT 0 0 0 1 0 0 0\nPOINTS 3\n", "VIEWPOINT 0 0 0 1 0 0 0\nPOINTS -1\n",
         "malformed point count: POINTS must be >= 0, got -1"),
    ])
    def test_header_check_names_file(self, tmp_path, old, new, message):
        path = tmp_path / "a.pcd"
        assert old in MINIMAL_PCD
        path.write_text(MINIMAL_PCD.replace(old, new))
        with pytest.raises(PcdError, match=re.escape(f"{path}: {message}")):
            read_pcd(path)

    @pytest.mark.parametrize("size, count, message", [
        ("3", "1", "unsupported field type F3 for 'w'"),
        ("4", "0", "field 'w' must have COUNT >= 1, got 0"),
    ])
    def test_unknown_field_checks_name_file(self, tmp_path, size, count, message):
        path = tmp_path / "a.pcd"
        path.write_text(
            MINIMAL_PCD.replace("FIELDS x y z", "FIELDS x y z w")
            .replace("SIZE 4 4 4", f"SIZE 4 4 4 {size}")
            .replace("TYPE F F F", "TYPE F F F F")
            .replace("COUNT 1 1 1", f"COUNT 1 1 1 {count}")
        )
        with pytest.raises(PcdError, match=re.escape(f"{path}: {message}")):
            read_pcd(path)

    @pytest.mark.parametrize("edits", [
        {"WIDTH 10": "WIDTH 1_0", "POINTS 10": "POINTS 1_0"},
        {"HEIGHT 1": "HEIGHT ١"},  # Arabic-Indic 1
        {"SIZE 4 4 4": "SIZE 4 4 ٤"},  # Arabic-Indic 4
        {"COUNT 1 1 1": "COUNT 1 1 0_1"},
    ])
    def test_header_numbers_must_be_ascii_without_underscores(self, tmp_path, edits):
        # int() reads each edited number as the value it replaces
        text = MINIMAL_PCD.replace("WIDTH 3", "WIDTH 10").replace("POINTS 3", "POINTS 10") + "0 0 1\n" * 7
        path = tmp_path / "a.pcd"
        path.write_text(text)
        assert len(read_pcd(path)) == 10
        for old, new in edits.items():
            text = text.replace(old, new)
        path.write_text(text)
        with pytest.raises(PcdError, match=re.escape(f"{path}: malformed ")):
            read_pcd(path)

    def test_end_of_file_inside_header_names_file(self, tmp_path):
        path = tmp_path / "a.pcd"
        path.write_text(MINIMAL_PCD.split("DATA")[0])
        with pytest.raises(PcdError, match=re.escape(f"{path}: unexpected end of file inside header")):
            read_pcd(path)

    def test_point_count_from_width_and_height(self, tmp_path):
        # without POINTS, the count is WIDTH x HEIGHT
        path = tmp_path / "a.pcd"
        path.write_text(MINIMAL_PCD.replace("POINTS 3\n", "").replace("WIDTH 3\nHEIGHT 1", "WIDTH 1\nHEIGHT 3"))
        assert read_pcd(path).xyz.tolist() == [[0, 0, 0], [1, 0, 0], [0, 1, 0]]

    def test_non_finite_point_kept_with_its_intensity(self, tmp_path):
        frame = PointCloudFrame(0, 0.0, np.zeros((3, 3), dtype=np.float32),
                                intensity=np.array([0.25, 0.5, 0.75], dtype=np.float32))
        path = tmp_path / "a.pcd"
        write_pcd(frame, path, data="ascii")
        path.write_text(path.read_text().replace("0 0 0 0.5", "0 inf 0 0.5"))
        back = read_pcd(path)
        assert back.xyz.tolist() == [[0, 0, 0], [0, np.inf, 0], [0, 0, 0]]
        assert back.intensity.tolist() == [0.25, 0.5, 0.75]

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


BLOCK_EDGE_COUNTS = [0, 7, 14, 15]  # empty, one and two whole 7-row blocks, and one row past


class TestRowBlocks:
    """write_pcd works BLOCK_ROWS rows at a time; shrunk to 7, every block edge is crossed."""

    @pytest.mark.parametrize("data", ["binary", "ascii"])
    @pytest.mark.parametrize("n", BLOCK_EDGE_COUNTS)
    def test_write_bytes_do_not_depend_on_block_size(self, tmp_path, monkeypatch, data, n):
        rng = np.random.default_rng(n)
        cases = [(_random_frame(rng, n), _random_labels(rng, n)),
                 (_random_frame(rng, n, with_intensity=False), None)]
        for i, (frame, labels) in enumerate(cases):
            whole, blocks = tmp_path / f"whole{i}.pcd", tmp_path / f"blocks{i}.pcd"
            write_pcd(frame, whole, labels=labels, data=data)
            with monkeypatch.context() as m:
                m.setattr(cloud_io, "BLOCK_ROWS", 7)
                write_pcd(frame, blocks, labels=labels, data=data)
            assert blocks.read_bytes() == whole.read_bytes()

    @pytest.mark.parametrize("data", ["binary", "ascii"])
    @pytest.mark.parametrize("n", BLOCK_EDGE_COUNTS)
    def test_columns_read_back_across_block_edges(self, tmp_path, monkeypatch, data, n):
        monkeypatch.setattr(cloud_io, "BLOCK_ROWS", 7)
        rng = np.random.default_rng(n)
        frame, lc = _random_frame(rng, n), _random_labels(rng, n)
        path = tmp_path / "f.pcd"
        write_pcd(frame, path, labels=lc, data=data)
        cols = read_pcd_columns(path)
        assert sorted(cols) == ["cluster", "intensity", "label", "x", "y", "z"]
        assert np.array_equal(np.stack([cols["x"], cols["y"], cols["z"]], axis=1), frame.xyz)
        assert np.array_equal(cols["intensity"], frame.intensity)
        assert np.array_equal(cols["label"], lc.class_id)
        assert np.array_equal(cols["cluster"], np.where(lc.kept, lc.cluster_id, -1))

    @pytest.mark.parametrize("extra", [-4, 1, 24])
    def test_wrong_binary_body_size_names_file(self, tmp_path, monkeypatch, extra):
        monkeypatch.setattr(cloud_io, "BLOCK_ROWS", 7)
        path = tmp_path / "f.pcd"
        rng = np.random.default_rng(0)
        write_pcd(_random_frame(rng, 15), path, labels=_random_labels(rng, 15))
        data = path.read_bytes()
        path.write_bytes(data[:extra] if extra < 0 else data + bytes(extra))
        want = (f"{path}: point count mismatch: header declares 15 points (360 bytes) "
                f"but file holds {360 + extra} bytes")
        with pytest.raises(PcdError, match=re.escape(want)):
            read_pcd_columns(path)


@pytest.fixture(scope="module")
def c7_labeled():
    """The criterion-7 frame with random labels: 232,320 points, 70 % of them labeled."""
    _rig, frame, _dets = criterion7_frame()
    return frame, _random_labels(np.random.default_rng(7), len(frame))


class TestPeakMemory:
    """Traced peak per point on the criterion-7 frame; a labeled record is 24 bytes."""

    def test_binary_write_holds_one_block_of_records(self, tmp_path, c7_labeled):
        frame, lc = c7_labeled
        _, peak = traced_peak(write_pcd, frame, tmp_path / "f.pcd", labels=lc)
        assert peak / len(frame) < 8, f"peak {peak / len(frame):.1f} bytes per point"

    def test_binary_read_holds_one_record_array(self, tmp_path, c7_labeled):
        frame, lc = c7_labeled
        path = tmp_path / "f.pcd"
        write_pcd(frame, path, labels=lc)
        cols, peak = traced_peak(read_pcd_columns, path)
        assert len(cols["x"]) == len(frame)
        assert peak / len(frame) < 30, f"peak {peak / len(frame):.1f} bytes per point"

    def test_ascii_write_formats_one_block_at_a_time(self, tmp_path, monkeypatch):
        # a smaller frame and block keep this quick.  Formatting a whole frame
        # at once peaks at about 350 bytes per point, one 1,024-row block of
        # this 16,384-point frame at about 19
        monkeypatch.setattr(cloud_io, "BLOCK_ROWS", 1 << 10)
        rng = np.random.default_rng(3)
        frame, lc = _random_frame(rng, 1 << 14), _random_labels(rng, 1 << 14)
        _, peak = traced_peak(write_pcd, frame, tmp_path / "f.pcd", labels=lc, data="ascii")
        assert peak / len(frame) < 40, f"peak {peak / len(frame):.1f} bytes per point"


class TestFrameTypes:
    def test_non_finite_coordinates_kept(self):
        # such a row is never labeled, since it projects to no pixel
        xyz = np.array([[np.inf, 0, 0], [0, np.nan, 0], [0, 0, -np.inf]])
        frame = PointCloudFrame(frame_id=0, timestamp=0.0, xyz=xyz)
        assert np.array_equal(frame.xyz, xyz, equal_nan=True)

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

    def test_callers_arrays_stay_writeable(self):
        # contiguous float32 input is aliased, not copied, but only the
        # frame's own view is frozen
        xyz = np.zeros((2, 3), dtype=np.float32)
        intensity = np.zeros(2, dtype=np.float32)
        frame = PointCloudFrame(frame_id=0, timestamp=0.0, xyz=xyz, intensity=intensity)
        xyz[0, 0] = 1.0
        intensity[1] = 0.5
        assert frame.xyz[0, 0] == 1.0 and frame.intensity[1] == 0.5
        assert not frame.xyz.flags.writeable and not frame.intensity.flags.writeable

    def test_xyz_must_have_three_columns(self):
        with pytest.raises(ValueError, match="shape"):
            PointCloudFrame(frame_id=0, timestamp=0.0, xyz=np.zeros((2, 2), dtype=np.float32))

    def test_write_rejects_an_unknown_data_mode(self, tmp_path):
        frame = PointCloudFrame(frame_id=0, timestamp=0.0, xyz=np.zeros((1, 3), dtype=np.float32))
        with pytest.raises(ValueError, match="data mode"):
            write_pcd(frame, tmp_path / "a.pcd", data="binary_compressed")

    def test_index_strictly_increasing(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            _index("cloud", [1.0, 1.0])

    @pytest.mark.parametrize("frame_ids, ends, message", [
        ([0], [1, 2], "1 frame ids, 2 timestamps and 2 paths"),
        ([0, 1], [2, 1], "path ends must rise to 2"),
        ([0, 1], [1, 1], "path ends must rise to 2"),
    ])
    def test_index_columns_must_agree(self, frame_ids, ends, message):
        with pytest.raises(ValueError, match=message):
            FrameIndex("cloud", frame_ids, [0.0, 0.1], b"ab", ends)


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
        assert Path(streams["cloud"][0].path) == tmp_path / "clouds/a.pcd"
        assert streams["cloud"][1].frame_id == 1

    def test_absolute_path_replaces_the_directory_and_relative_joins_as_text(self, tmp_path):
        (tmp_path / "m").mkdir()
        manifest = tmp_path / "m" / "clouds.manifest"
        elsewhere = tmp_path / "elsewhere" / "a.pcd"
        manifest.write_text(f"cloud 0 0.0 {elsewhere}\ncloud 1 0.1 ../clouds/./b.pcd\n")
        index = read_manifest(manifest)["cloud"]
        assert index[0].path == str(elsewhere)
        assert index[1].path == f"{tmp_path}/m/../clouds/./b.pcd"  # not normalized

    def test_holds_a_few_bytes_a_line_beside_its_path(self, tmp_path):
        # each line is read straight into its stream's columns: a frame id,
        # a timestamp and a path end (24 bytes) beside the path's own bytes.
        # An IndexEntry per line held 179 bytes beside a path that also
        # carried the manifest's directory
        n = 3000
        rels = [f"dets/frame_{i // 5:06d}_cam{i % 5}.txt" for i in range(n)]
        manifest = tmp_path / "dets.manifest"
        manifest.write_text("".join(
            f"cam{i % 5} {i // 5} {i // 5 * 0.1 + 0.005:.6f} {rel}\n" for i, rel in enumerate(rels)
        ))
        tracemalloc.start()
        try:
            streams = read_manifest(manifest)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert sum(map(len, streams.values())) == n
        per_line = (held - sum(map(len, rels))) / n
        assert per_line < 32, f"{per_line:.1f} bytes a line beside its path"

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

    @pytest.mark.parametrize("line", ["cloud zero 0.0 a.pcd", "cloud 0 soon a.pcd"])
    def test_malformed_frame_id_or_timestamp_names_file_and_line(self, tmp_path, line):
        manifest = tmp_path / "m.manifest"
        manifest.write_text(f"# header\n{line}\n")
        with pytest.raises(ValueError, match=re.escape(f"{manifest}:2: ")):
            read_manifest(manifest)

    @pytest.mark.parametrize("line", [
        "cloud 1_0 0.1 b.pcd",  # Python's int() reads this as 10
        "cloud 1 0_2.5 b.pcd",  # and float() this as 2.5
        "cloud \u0663 0.1 b.pcd",  # an Arabic-Indic 3
        "cloud 1 \uff12.5 b.pcd",  # a fullwidth 2
    ])
    def test_number_must_be_ascii_without_underscores(self, tmp_path, line):
        manifest = tmp_path / "m.manifest"
        manifest.write_text(f"cloud 0 0.0 a.pcd\n{line}\n", encoding="utf-8")
        with pytest.raises(ValueError, match=re.escape(f"{manifest}:2: ")):
            read_manifest(manifest)

    def test_timestamp_going_back_names_file_and_line(self, tmp_path):
        # each stream is ordered on its own: cam0's 0.5 does not bound the cloud stream
        manifest = tmp_path / "m.manifest"
        manifest.write_text(
            "cloud 0 0.0 a.pcd\ncam0 0 0.5 a.txt\ncloud 1 0.2 b.pcd\n\ncloud 2 0.2 c.pcd\n"
        )
        with pytest.raises(ValueError, match=re.escape(f"{manifest}:5: ") + ".*'cloud'.*0.2 after 0.2"):
            read_manifest(manifest)


def _index(stream, stamps):
    """A stream of frames 0, 1, ... at ``stamps``, each with an empty path."""
    return FrameIndex(stream, range(len(stamps)), stamps, b"", [0] * len(stamps))


class TestMatchFrames:
    def test_nearest_within_tolerance(self):
        bundles = match_frames(_index("cloud", [10.0]), {0: _index("cam0", [9.98, 10.30])}, 0.05)
        assert len(bundles) == 1
        assert bundles[0].cameras[0].timestamp == 9.98
        assert bundles[0].cameras

    def test_out_of_tolerance_omitted_and_flagged(self):
        bundles = match_frames(_index("cloud", [10.0]), {0: _index("cam0", [10.30])}, 0.05)
        assert bundles[0].cameras == {}
        assert not bundles[0].cameras

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
            match_frames(_index("cloud", []), {}, 0.05)

    def test_camera_with_no_entries_matches_nothing(self):
        bundles = match_frames(_index("cloud", [1.0]), {0: _index("cam0", []), 1: _index("cam1", [1.0])})
        assert list(bundles[0].cameras) == [1]

    def test_no_cameras_yields_empty_bundles(self):
        bundles = match_frames(_index("cloud", [1.0, 2.0]), {}, 0.05)
        assert [not b.cameras for b in bundles] == [True, True]

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
