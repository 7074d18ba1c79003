import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pclabel import (
    COCO_CLASSES,
    BBox,
    Detection,
    filter_oversized,
    load_detections,
    restrict_classes,
    write_detections,
)
from helpers import box_hits, detection, simple_camera


class TestCocoTable:
    def test_80_classes(self):
        assert len(COCO_CLASSES) == 80

    def test_leading_entries(self):
        assert COCO_CLASSES[:9] == (
            "person", "bicycle", "car", "motorbike", "aeroplane",
            "bus", "train", "truck", "boat",
        )


class TestBBox:
    def test_degenerate_rejected(self):
        with pytest.raises(ValueError, match="x_min"):
            BBox(220, 120, 100, 260)
        with pytest.raises(ValueError, match="y_min"):
            BBox(100, 260, 220, 120)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            BBox(float("nan"), 0, 10, 10)

    def test_contains_half_open(self):
        # membership is decided by label_frame, half-open on each axis
        pixels = [(150, 150), (100, 120), (220, 150), (150, 260)]
        assert box_hits((100, 120, 220, 260), pixels) == [True, True, False, False]

    def test_area(self):
        assert BBox(0, 0, 200, 300).area == 60000


class TestDetection:
    def test_class_name_read_from_id(self):
        det = Detection(0, 5, 2, 0.91, BBox(100, 120, 220, 260))
        assert det.class_name == "car"

    def test_unknown_class_rejected(self):
        with pytest.raises(ValueError, match="unknown class"):
            Detection(0, 0, 80, 0.5, BBox(0, 0, 1, 1))

    def test_confidence_range(self):
        with pytest.raises(ValueError, match="confidence"):
            Detection(0, 0, 2, 1.5, BBox(0, 0, 1, 1))


class TestLoadDetections:
    def test_valid_record(self, tmp_path):
        path = tmp_path / "dets.txt"
        path.write_text("# header comment\n0 5 2 0.91 100 120 220 260\n")
        dets, rejected = load_detections(path)
        assert rejected == []
        assert len(dets) == 1
        det = dets[0]
        assert (det.camera_id, det.frame_id, det.class_id) == (0, 5, 2)
        assert det.class_name == "car"
        assert det.confidence == 0.91
        assert det.box == BBox(100, 120, 220, 260)

    def test_inverted_box_rejected(self, tmp_path):
        path = tmp_path / "dets.txt"
        path.write_text("0 5 2 0.91 220 120 100 260\n")
        dets, rejected = load_detections(path)
        assert dets == []
        assert len(rejected) == 1
        assert "x_min" in rejected[0].reason

    def test_unknown_class_rejected(self, tmp_path):
        path = tmp_path / "dets.txt"
        path.write_text("0 5 80 0.91 100 120 220 260\n")
        dets, rejected = load_detections(path)
        assert dets == []
        assert "unknown class" in rejected[0].reason

    def test_confidence_out_of_range_rejected(self, tmp_path):
        path = tmp_path / "dets.txt"
        path.write_text("0 5 2 1.2 100 120 220 260\n")
        _, rejected = load_detections(path)
        assert "confidence" in rejected[0].reason

    def test_wrong_field_count_rejected(self, tmp_path):
        path = tmp_path / "dets.txt"
        path.write_text("0 5 2 0.9 100 120 220\n")
        _, rejected = load_detections(path)
        assert "expected 8 fields" in rejected[0].reason

    def test_non_numeric_rejected_with_line_number(self, tmp_path):
        path = tmp_path / "dets.txt"
        path.write_text("# first\n0 5 two 0.9 100 120 220 260\n")
        _, rejected = load_detections(path)
        assert rejected[0].line_no == 2
        assert "malformed" in rejected[0].reason

    @pytest.mark.parametrize("field", range(8))
    @pytest.mark.parametrize("token", ["1_0", "\u0663", "\uff11"])
    def test_number_must_be_ascii_without_underscores(self, tmp_path, field, token):
        # Python's int() and float() read "1_0" as 10 and non-ASCII digits as digits
        tokens = "0 5 2 0.5 10 20 300 400".split()
        tokens[field] = token
        path = tmp_path / "dets.txt"
        path.write_text("# first\n" + " ".join(tokens) + "\n", encoding="utf-8")
        dets, rejected = load_detections(path)
        assert dets == []
        assert [r.line_no for r in rejected] == [2]
        assert "malformed" in rejected[0].reason

    def test_mixed_file(self, tmp_path):
        path = tmp_path / "dets.txt"
        path.write_text(
            "0 1 2 0.9 10 10 50 50\n"
            "0 1 99 0.9 10 10 50 50\n"
            "\n"
            "1 1 0 0.5 20 20 60 80\n"
        )
        dets, rejected = load_detections(path)
        assert [d.class_name for d in dets] == ["car", "person"]
        assert len(rejected) == 1

    @settings(max_examples=100, deadline=None)
    @given(
        records=st.lists(
            st.tuples(
                st.integers(0, 4), st.integers(0, 10**6), st.integers(0, len(COCO_CLASSES) - 1),
                st.floats(0.0, 1.0), st.floats(-1e4, 1e4), st.floats(-1e4, 1e4),
                st.floats(0.002, 1e4), st.floats(0.002, 1e4),
            ),
            max_size=5,
        ),
    )
    def test_written_records_read_back_as_their_rounding(self, tmp_path_factory, records):
        # the writer rounds the confidence to 2 decimals and the corners to
        # 3; a box at least 0.002 px wide and high never rounds to an empty one
        dets = [
            Detection(cam, frame, cls, conf, BBox(x, y, x + w, y + h))
            for cam, frame, cls, conf, x, y, w, h in records
        ]
        path = tmp_path_factory.mktemp("dets") / "dets.txt"
        write_detections(path, dets, comment="camera 0, frame 0")
        got, rejected = load_detections(path)
        assert rejected == []
        assert path.read_text().startswith("# camera 0, frame 0\n")
        assert [(d.camera_id, d.frame_id, d.class_id) for d in got] == [
            (d.camera_id, d.frame_id, d.class_id) for d in dets
        ]
        for det, back in zip(dets, got):
            b = det.box
            assert back.confidence == round(det.confidence, 2)
            assert back.box == BBox(*(round(c, 3) for c in (b.x_min, b.y_min, b.x_max, b.y_max)))

    def test_a_box_that_rounds_to_an_empty_one_is_not_written(self, tmp_path):
        path = tmp_path / "dets.txt"
        with pytest.raises(ValueError, match="x_min must be < x_max"):
            write_detections(path, [Detection(0, 0, 2, 0.9, BBox(10.0001, 10, 10.0004, 20))])
        assert not path.exists()


class TestFilterOversized:
    def test_below_quarter_kept(self):
        cam = simple_camera(width=640, height=480)
        det = detection(0, (0, 0, 200, 300))  # 60000 <= 76800
        kept, rejected = filter_oversized([det], cam)
        assert kept == [det] and rejected == []

    def test_above_quarter_rejected(self):
        cam = simple_camera(width=640, height=480)
        det = detection(0, (0, 0, 400, 200))  # 80000 > 76800
        kept, rejected = filter_oversized([det], cam)
        assert kept == [] and rejected == [det]

    def test_exact_quarter_kept(self):
        cam = simple_camera(width=640, height=480)
        det = detection(0, (0, 0, 320, 240))  # exactly 76800
        kept, rejected = filter_oversized([det], cam)
        assert kept == [det]

    def test_partition_preserves_order(self):
        cam = simple_camera(width=640, height=480)
        dets = [
            detection(0, (0, 0, 10, 10)),
            detection(0, (0, 0, 500, 400)),
            detection(0, (5, 5, 20, 20)),
        ]
        kept, rejected = filter_oversized(dets, cam)
        assert kept == [dets[0], dets[2]]
        assert rejected == [dets[1]]

    @settings(max_examples=200, deadline=None)
    @given(
        x0=st.floats(0, 600),
        y0=st.floats(0, 440),
        w=st.floats(min_value=0.1, max_value=640),
        h=st.floats(min_value=0.1, max_value=480),
    )
    def test_partition_property(self, x0, y0, w, h):
        cam = simple_camera(width=640, height=480)
        dets = [detection(0, (x0, y0, x0 + w, y0 + h))]
        kept, rejected = filter_oversized(dets, cam)
        assert sorted(kept + rejected, key=id) == sorted(dets, key=id)
        assert not (kept and rejected)
        for det in kept:
            assert det.box.area <= 640 * 480 / 4
        for det in rejected:
            assert det.box.area > 640 * 480 / 4


class TestRestrictClasses:
    def test_filters_to_allowed(self):
        dets = [detection(0, (0, 0, 1, 1), class_id=c) for c in (2, 0, 16)]  # car, person, dog
        out = restrict_classes(dets, {2, 0, 7})
        assert [d.class_id for d in out] == [2, 0]

    def test_empty_allow_keeps_all(self):
        dets = [detection(0, (0, 0, 1, 1), class_id=c) for c in (2, 0, 16)]
        assert restrict_classes(dets, set()) == dets

    def test_disjoint_allow_empties(self):
        dets = [detection(0, (0, 0, 1, 1), class_id=8)] * 3  # boat
        assert restrict_classes(dets, {2}) == []

    def test_idempotent(self):
        dets = [detection(0, (0, 0, 1, 1), class_id=c) for c in (2, 0, 16, 7, 2)]
        once = restrict_classes(dets, {2, 7})
        assert restrict_classes(once, {2, 7}) == once
