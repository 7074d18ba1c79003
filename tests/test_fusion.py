import hashlib
from dataclasses import replace
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pclabel import (
    COCO_CLASSES,
    DistortionCoeffs,
    ExtrinsicPose,
    KMeansConfig,
    LabeledCloud,
    PointCloudFrame,
    camera_to_lidar,
    denoise_frame,
    frame_report,
    label_frame,
    project_points,
)
from pclabel import cloud_io, fusion
from helpers import (
    assert_label_invariants,
    barrel_camera,
    box_hits,
    criterion7_frame,
    detection,
    off_axis_points,
    random_rotation,
    reference_labels,
    simple_camera,
    traced_peak,
)
from pclabel.calib import DEFAULT_Z_MIN


def _frame(points, frame_id=0):
    return PointCloudFrame(
        frame_id=frame_id, timestamp=0.0, xyz=np.asarray(points, dtype=np.float32)
    )


def _ref(lc, i):
    return int(lc.camera_id[i]), int(lc.det_index[i])


class TestPointInBox:
    """Box membership is half-open: [x_min, x_max) x [y_min, y_max)."""

    def test_interior(self):
        assert box_hits((100, 120, 220, 260), [(150, 150)]) == [True]

    def test_half_open_right_edge(self):
        assert box_hits((100, 120, 220, 260), [(220, 150), (150, 260)]) == [False, False]

    def test_closed_left_top_edge(self):
        assert box_hits((100, 120, 220, 260), [(100, 120)]) == [True]

    def test_image_bounds_are_half_open(self):
        # the image is [0, width) x [0, height), tested by the same rule
        pixels = [(0, 0), (399, 299), (400, 10), (10, 300)]
        hits = box_hits((0, 0, 500, 500), pixels, width=400, height=300)
        assert hits == [True, True, False, False]


class TestLabelFrame:
    def test_hand_projection_example(self):
        cam = simple_camera()
        frame = _frame([[0, 0, 1], [5, 0, 1]])
        dets = {0: [detection(0, (40, 40, 60, 60))]}
        lc = label_frame(frame, [cam], dets)
        assert lc.class_id.tolist() == [2, -1]
        assert lc.camera_id.tolist() == [0, -1]
        assert lc.det_index.tolist() == [0, -1]
        assert lc.cluster_id.tolist() == [-1, -1]
        assert lc.kept.tolist() == [True, False]

    def test_no_detections_labels_nothing(self):
        cam = simple_camera()
        frame = _frame([[0, 0, 1], [0.1, 0, 1]])
        lc = label_frame(frame, [cam], {})
        assert lc.n_labeled == 0
        assert len(lc) == len(frame)

    def test_empty_per_camera_list_labels_nothing(self):
        cam = simple_camera()
        frame = _frame([[0, 0, 1]])
        lc = label_frame(frame, [cam], {0: []})
        assert lc.n_labeled == 0

    def test_label_count_equals_point_count(self):
        cam = simple_camera()
        rng = np.random.default_rng(0)
        frame = _frame(rng.uniform(-1, 1, size=(500, 3)) + [0, 0, 3])
        lc = label_frame(frame, [cam], {0: [detection(0, (30, 30, 70, 70))]})
        assert len(lc) == 500
        assert_label_invariants(lc)

    def test_smallest_box_wins(self):
        cam = simple_camera()
        big = detection(0, (0, 0, 100, 100), class_id=7)      # area 10000
        small = detection(0, (45, 45, 65, 65), class_id=2)    # area 400
        frame = _frame([[0, 0, 1]])  # pixel (50, 50), inside both
        lc = label_frame(frame, [cam], {0: [big, small]})
        assert lc.class_id[0] == 2
        assert _ref(lc, 0) == (0, 1)

    def test_equal_area_lower_camera_wins(self):
        cam0 = simple_camera(cam_id=0)
        cam1 = simple_camera(cam_id=1)
        box = (40, 40, 60, 60)
        frame = _frame([[0, 0, 1]])
        lc = label_frame(frame, [cam0, cam1], {0: [detection(0, box)], 1: [detection(1, box)]})
        assert _ref(lc, 0) == (0, 0)

    def test_equal_area_lower_index_wins(self):
        cam = simple_camera()
        d0 = detection(0, (40, 40, 60, 60), class_id=2)
        d1 = detection(0, (41, 41, 61, 61), class_id=7)  # same area, overlapping
        frame = _frame([[0.02, 0.02, 1.0]])  # pixel (52, 52) inside both
        lc = label_frame(frame, [cam], {0: [d0, d1]})
        assert _ref(lc, 0) == (0, 0)

    def test_pixel_outside_image_never_matches(self):
        cam = simple_camera()  # 100x100 image
        box_beyond_edge = detection(0, (90, 40, 130, 60))
        frame = _frame([[0.55, 0, 1]])  # pixel (105, 50): inside box, outside image
        lc = label_frame(frame, [cam], {0: [box_beyond_edge]})
        assert lc.n_labeled == 0

    def test_behind_camera_never_labeled(self):
        cam = simple_camera()
        frame = _frame([[0, 0, -1]])
        lc = label_frame(frame, [cam], {0: [detection(0, (0, 0, 100, 100))]})
        assert lc.n_labeled == 0

    def test_unknown_camera_id_rejected(self):
        cam = simple_camera(cam_id=0)
        frame = _frame([[0, 0, 1]])
        with pytest.raises(ValueError, match="absent from rig"):
            label_frame(frame, [cam], {3: [detection(3, (0, 0, 10, 10))]})

    def test_mismatched_record_camera_rejected(self):
        cam = simple_camera(cam_id=0)
        frame = _frame([[0, 0, 1]])
        with pytest.raises(ValueError, match="records for camera"):
            label_frame(frame, [cam], {0: [detection(1, (0, 0, 10, 10))]})

    def test_distortion_mode_changes_membership(self):
        dist = DistortionCoeffs(k1=-0.1)
        cam = simple_camera(dist=dist)
        # undistorted pixel: u = 100*0.5+50 = 100; distorted: u = 100*0.4875+50 = 98.75
        frame = _frame([[0.5, 0, 1]])
        box = detection(0, (98.0, 45.0, 99.5, 55.0))
        assert label_frame(frame, [cam], {0: [box]}, distortion_mode=False).n_labeled == 0
        assert label_frame(frame, [cam], {0: [box]}, distortion_mode=True).n_labeled == 1

    def test_no_ghost_label_past_the_distortion_fold(self):
        # at 60 degrees off-axis the pinhole u is 1186.0, outside the image;
        # the folded radial map put the point at u = 182.4, inside this box
        cam = barrel_camera()
        frame = _frame(off_axis_points(cam, [60.0]))
        box = detection(0, (170.0, 225.0, 195.0, 255.0))
        assert label_frame(frame, [cam], {0: [box]}, distortion_mode=True).n_labeled == 0

    def test_removing_detection_never_adds_labels(self):
        cam = simple_camera()
        rng = np.random.default_rng(9)
        frame = _frame(rng.uniform(-0.6, 0.6, size=(300, 3)) + [0, 0, 2])
        dets = [
            detection(0, (20, 20, 60, 70), class_id=2),
            detection(0, (40, 30, 90, 90), class_id=0),
            detection(0, (10, 50, 55, 95), class_id=7),
        ]
        full = label_frame(frame, [cam], {0: dets})
        reduced = label_frame(frame, [cam], {0: dets[:2]})
        full_set = set(np.flatnonzero(full.labeled_mask))
        reduced_set = set(np.flatnonzero(reduced.labeled_mask))
        assert reduced_set <= full_set

    def test_deterministic(self):
        cam = simple_camera()
        rng = np.random.default_rng(10)
        frame = _frame(rng.uniform(-0.6, 0.6, size=(200, 3)) + [0, 0, 2])
        dets = {0: [detection(0, (20, 20, 80, 80))]}
        a = label_frame(frame, [cam], dets)
        b = label_frame(frame, [cam], dets)
        for name in ("class_id", "camera_id", "det_index", "cluster_id", "kept"):
            assert np.array_equal(getattr(a, name), getattr(b, name))

    def test_reprojection_self_consistency(self):
        rng = np.random.default_rng(12)
        cams = [
            simple_camera(cam_id=0),
            simple_camera(cam_id=1, fx=120.0, fy=110.0, cx=48.0, cy=52.0),
        ]
        frame = _frame(rng.uniform(-1.5, 1.5, size=(800, 3)) + [0, 0, 3])
        dets = {
            0: [detection(0, (20, 20, 60, 60)), detection(0, (50, 40, 95, 95), class_id=0)],
            1: [detection(1, (10, 10, 55, 80), class_id=7)],
        }
        lc = label_frame(frame, cams, dets)
        assert lc.n_labeled > 0
        for i in np.flatnonzero(lc.labeled_mask):
            cam_id, det_idx = _ref(lc, i)
            cam = cams[cam_id]
            uv, in_front = project_points(cam, frame.xyz[i : i + 1])
            assert in_front[0]
            u, v = uv[0]
            box = dets[cam_id][det_idx].box
            assert box.x_min <= u < box.x_max and box.y_min <= v < box.y_max
            assert 0 <= u < cam.intrinsics.width and 0 <= v < cam.intrinsics.height

    def test_empty_frame(self):
        cam = simple_camera()
        frame = _frame(np.zeros((0, 3)))
        lc = label_frame(frame, [cam], {0: [detection(0, (0, 0, 10, 10))]})
        assert len(lc) == 0


class TestClassPointCounts:
    """Per-class counts of labeled points, as the frame report gives them."""

    def test_all_unlabeled_empty_map(self):
        lc = LabeledCloud.empty(0, 5)
        assert frame_report(_frame(np.zeros((5, 3))), lc).class_before == {}

    def test_mixed_counts(self):
        lc = LabeledCloud.empty(0, 4)
        lc.class_id[:] = (2, 2, 0, -1)
        lc.camera_id[:] = (0, 0, 0, -1)
        lc.det_index[:] = (0, 0, 1, -1)
        lc.kept[:] = (True, False, False, False)
        report = frame_report(_frame(np.zeros((4, 3))), lc)
        assert report.class_before == {2: 2, 0: 1}
        assert report.class_after == {2: 1}

    def test_close_vehicle_magnitude(self):
        # a single close car can own thousands of returns in one box
        cam = simple_camera()
        xyz = np.tile(np.array([[0, 0, 1]], dtype=np.float32), (9215, 1))
        frame = PointCloudFrame(frame_id=0, timestamp=0.0, xyz=xyz)
        lc = label_frame(frame, [cam], {0: [detection(0, (40, 40, 60, 60), class_id=2)]})
        assert frame_report(frame, lc).class_before == {2: 9215}


def test_label_and_denoise_peak_memory_per_point():
    # the labels themselves take 9 bytes a point; projection works in row
    # blocks, so no frame-sized float64 temporary or NaN pixel array adds to them
    rig, frame, dets_by_cam = criterion7_frame()

    def label_and_denoise():
        lc = label_frame(frame, rig, dets_by_cam)
        return denoise_frame(frame, lc, KMeansConfig(k=3, seed=7))[1]

    report, peak = traced_peak(label_and_denoise)
    assert report.labeled_before > 20_000
    assert peak / len(frame) < 18, f"peak {peak / len(frame):.1f} bytes per point"


def test_label_frame_peak_memory_is_the_labels_plus_the_box_hits():
    # the labels take 9 bytes a point and each box's hit indices 8 bytes a
    # hit; each block's pixels are tested against the boxes as it is
    # projected, so no per-camera pixel buffer adds to them
    rig, frame, dets_by_cam = criterion7_frame()
    lc, peak = traced_peak(label_frame, frame, rig, dets_by_cam)
    bound = 9 * len(frame) + 8 * lc.n_labeled + (64 << 10)
    assert peak <= bound, f"peak {peak} B, {peak - bound} B over the bound"


def _count_projected_rows(monkeypatch) -> list[int]:
    """The number of rows of each ``project_points`` call that label_frame makes."""
    counts = []

    def counting(cam, points, use_distortion=False):
        counts.append(len(points))
        return project_points(cam, points, use_distortion)

    monkeypatch.setattr(fusion, "project_points", counting)
    return counts


def test_criterion7_frame_projects_at_most_15_percent_of_its_rows(monkeypatch):
    # 5 x 232,320 (camera, row) pairs, of which about 11 % can reach one of
    # the camera's boxes; the rest are culled before projection
    rig, frame, dets_by_cam = criterion7_frame()
    counts = _count_projected_rows(monkeypatch)
    lc = label_frame(frame, rig, dets_by_cam)
    assert lc.n_labeled > 0
    assert sum(counts) <= 0.15 * len(rig) * len(frame), f"{sum(counts)} rows projected"


def _pixel_row_frame():
    """Rows i < 2000 on ``simple_camera``'s pixels u = i - 499.5 at depth 1,
    then the same points behind the camera."""
    u = np.arange(-500, 1500) + 0.5
    front = np.stack([(u - 50) / 100, np.zeros_like(u), np.ones_like(u)], axis=1)
    return _frame(np.concatenate([front, front * [1, 1, -1]]))


def test_rows_projected_are_those_inside_the_clipped_box_union(monkeypatch):
    # the box reaches far past the 100-pixel image, so only the 40 pixels in
    # [60, 100) can be labeled, and only those rows are projected
    counts = _count_projected_rows(monkeypatch)
    lc = label_frame(_pixel_row_frame(), [simple_camera()], {0: [detection(0, (60, 40, 10_000, 60))]})
    assert sum(counts) == lc.n_labeled == 40


def test_rows_projected_are_those_inside_the_box_clipped_at_the_left_edge(monkeypatch):
    # the mirror image: a box from far left of the image to u = 40 keeps the
    # rows of the 40 pixels in [0, 40); a cull from the box's own left edge
    # would also project the 500 rows left of the image, which no box labels
    counts = _count_projected_rows(monkeypatch)
    lc = label_frame(_pixel_row_frame(), [simple_camera()], {0: [detection(0, (-10_000, 40, 40, 60))]})
    assert sum(counts) == 40
    assert np.flatnonzero(lc.labeled_mask).tolist() == list(range(500, 540))


# the most detections label_frame takes from one camera of a frame
MAX_DETECTIONS = 32_768


def _many_detections(cam_id, n):
    """``n`` detections of ``cam_id`` around pixel (50, 50) of ``simple_camera``;
    the last one has the smallest box, so it labels the point on that pixel."""
    dets = [detection(cam_id, (40, 40, 60, 60))] * (n - 1)
    return dets + [detection(cam_id, (45, 45, 55, 55), class_id=len(COCO_CLASSES) - 1)]


def test_label_frame_refuses_a_camera_past_the_detection_bound(monkeypatch):
    # camera 0 comes first and is within the bound, so a check made camera
    # by camera would have projected it already
    rig = [simple_camera(0), simple_camera(1)]
    dets = {0: [detection(0, (40, 40, 60, 60))], 1: _many_detections(1, MAX_DETECTIONS + 1)}
    counts = _count_projected_rows(monkeypatch)
    with pytest.raises(ValueError, match=f"camera 1 has {MAX_DETECTIONS + 1} detections"):
        label_frame(_frame([[0, 0, 1]]), rig, dets)
    assert counts == []


def test_label_frame_labels_a_camera_at_the_detection_bound():
    lc = label_frame(_frame([[0, 0, 1]]), [simple_camera(4)], {4: _many_detections(4, MAX_DETECTIONS)})
    assert (int(lc.class_id[0]), int(lc.camera_id[0]), int(lc.det_index[0])) == (
        len(COCO_CLASSES) - 1, 4, MAX_DETECTIONS - 1)


def test_labels_hold_9_bytes_a_point_in_their_narrowest_dtypes():
    want = {"class_id": np.int8, "camera_id": np.int8, "det_index": np.int16,
            "cluster_id": np.int32, "kept": np.bool_}
    rig, frame, dets_by_cam = criterion7_frame()
    for lc in (LabeledCloud.empty(0, 1000), label_frame(frame, rig, dets_by_cam)):
        columns = {name: getattr(lc, name) for name in want}
        assert {name: col.dtype for name, col in columns.items()} == want
        assert sum(col.nbytes for col in columns.values()) == 9 * len(lc)


# sha256 of the label and denoise columns (class_id, camera_id, det_index,
# cluster_id, kept) of the criterion-7 frame with k-means k=3, seed 7.  Its
# ten detections hold 9,000-10,000 points each, so this pins projection, the
# box tests and k-means (ties, sums, stop rule) at the scale the benchmark runs.
GOLDEN_CRITERION7_FRAME_SHA256 = "b6a412b38776ba1946a230019ab1e898b9aa6a379cf966d1abf7a3522c92ad8e"


def test_criterion7_frame_matches_golden_digest():
    rig, frame, dets_by_cam = criterion7_frame()
    lc = label_frame(frame, rig, dets_by_cam)
    lc, report = denoise_frame(frame, lc, KMeansConfig(k=3, seed=7))
    assert (report.total_points, report.labeled_before, report.kept_after) == (232320, 96830, 24404)
    assert report == frame_report(frame, lc)  # denoise_frame reports what it wrote
    digest = hashlib.sha256()
    for column in (lc.class_id, lc.camera_id, lc.det_index, lc.cluster_id):
        digest.update(column.astype(np.int32).tobytes())  # the ids as int32, whatever their width
    digest.update(lc.kept.tobytes())
    assert digest.hexdigest() == GOLDEN_CRITERION7_FRAME_SHA256


# A point is (lateral, lateral, depth): laterals are multiples of 1/8, and a
# depth is 0.5, 1 or 2 (most often), -1 or next to DEFAULT_Z_MIN.  With a
# power-of-two focal length and an integer principal point, a point at depth
# 0.5, 1 or 2 lands on an exact pixel, so many land on the integer box edges.
_NEAR_Z_MIN = (
    float(np.float32(DEFAULT_Z_MIN)),  # just below DEFAULT_Z_MIN
    float(np.nextafter(np.float32(DEFAULT_Z_MIN), np.float32(1))),  # just above it
    float(np.float32(1e-21)),  # above it by a translation of DEFAULT_Z_MIN, and
    -float(np.float32(1e-21)),  # below it, both within one float64 step
)
_LATERALS = tuple(i / 8 for i in range(-4, 5))
_DEPTHS = (0.5, 1.0, 2.0) * 4 + (-1.0,) + _NEAR_Z_MIN
# identity, and camera 0 of the default rig (camera z is LIDAR x)
_ROTATIONS = (np.eye(3), np.array([[0.0, -1.0, 0.0], [0.0, 0.0, -1.0], [1.0, 0.0, 0.0]]))


@st.composite
def _small_frames(draw):
    """(rig, xyz, detections by camera id, distortion): 1-5 cameras that share
    one or two set-ups (pose, intrinsics, distortion) and a few boxes, so
    boxes overlap within and across cameras."""
    distortion = draw(st.booleans())
    k = st.sampled_from((0.0, 0.05, -0.05)) if distortion else st.just(0.0)
    setup = st.fixed_dictionaries({
        "fx": st.sampled_from((8.0, 16.0)),
        "fy": st.sampled_from((8.0, 16.0)),
        "cx": st.sampled_from((8.0, 16.0)),
        "cy": st.sampled_from((8.0, 16.0)),
        "width": st.sampled_from((24, 32)),
        "dist": st.builds(DistortionCoeffs, k, k, k, k, k),
        "pose": st.builds(
            ExtrinsicPose,
            st.sampled_from(_ROTATIONS),
            st.tuples(st.just(0.0), st.just(0.0), st.sampled_from((0.0, DEFAULT_Z_MIN, 0.25))),
        ),
    })
    setups = draw(st.lists(setup, min_size=1, max_size=2))
    # each box after the first is either drawn afresh or nested in an earlier one
    boxes = []
    for _ in range(draw(st.integers(1, 4))):
        if boxes and draw(st.booleans()):
            x0, y0, x1, y1 = draw(st.sampled_from(boxes))[:4]
            x0, y0 = x0 + draw(st.integers(0, 2)), y0 + draw(st.integers(0, 2))
            x1, y1 = max(x0 + 1, x1 - draw(st.integers(0, 2))), max(y0 + 1, y1 - draw(st.integers(0, 2)))
        else:
            x0, y0 = draw(st.integers(-2, 16)), draw(st.integers(-2, 16))
            x1, y1 = x0 + draw(st.integers(4, 16)), y0 + draw(st.integers(4, 16))
        boxes.append((x0, y0, x1, y1, draw(st.integers(0, 79))))
    rig, detections = [], {}
    for cam_id in draw(st.permutations(range(5)))[:draw(st.integers(1, 5))]:
        kw = draw(st.sampled_from(setups))
        rig.append(simple_camera(cam_id, height=kw["width"], **kw))
        picked = draw(st.lists(st.sampled_from(boxes), min_size=1, max_size=3))
        detections[cam_id] = [detection(cam_id, box, class_id=c) for *box, c in picked]
    point = st.tuples(st.sampled_from(_LATERALS), st.sampled_from(_LATERALS), st.sampled_from(_DEPTHS))
    xyz = []
    for _ in range(draw(st.integers(4, 30))):
        if draw(st.booleans()):
            xyz.append(draw(point))
            continue
        # aim at a corner, an edge midpoint or the centre of one camera's box
        cam = draw(st.sampled_from(rig))
        box = draw(st.sampled_from(detections[cam.id])).box
        u = draw(st.sampled_from((box.x_min, box.x_max, (box.x_min + box.x_max) / 2)))
        v = draw(st.sampled_from((box.y_min, box.y_max, (box.y_min + box.y_max) / 2)))
        depth, intr = draw(st.sampled_from((0.5, 1.0, 2.0))), cam.intrinsics
        aimed = [(u - intr.cx) / intr.fx * depth, (v - intr.cy) / intr.fy * depth, depth]
        xyz.append(camera_to_lidar(cam, np.array([aimed]))[0])
    return rig, np.array(xyz, dtype=np.float32), detections, distortion


def _edge_points(rig, detections, depths, nudges=(-1e-3, -1e-4, 0.0, 1e-4, 1e-3)):
    """LIDAR points that each camera sees at ``depths`` on its boxes' corners
    and edge midpoints and on the left and right edges of the boxes' union,
    clipped to the image, each pixel moved by ``nudges`` pixels along u."""
    points = []
    for cam in rig:
        intr, boxes = cam.intrinsics, [d.box for d in detections[cam.id]]
        u_lo = max(0.0, min(b.x_min for b in boxes))
        u_hi = min(float(intr.width), max(b.x_max for b in boxes))
        pixels = []
        for b in boxes:
            mid_u, mid_v = (b.x_min + b.x_max) / 2, (b.y_min + b.y_max) / 2
            pixels += [(u, v) for u in (b.x_min, mid_u, b.x_max) for v in (b.y_min, mid_v, b.y_max)]
            pixels += [(u_lo, mid_v), (u_hi, mid_v)]
        for (u, v), nudge, depth in product(pixels, nudges, depths):
            xn, yn = (u + nudge - intr.cx) / intr.fx, (v - intr.cy) / intr.fy
            points.append(camera_to_lidar(cam, np.array([[xn * depth, yn * depth, depth]]))[0])
    return np.array(points)


def _c7_boxes_past_the_image():
    """criterion7_frame's rig and boxes, with a box past the right edge of
    camera 0's image and one past the left edge of camera 1's."""
    rig, _, detections = criterion7_frame()
    detections = {cam: list(dets) for cam, dets in detections.items()}
    detections[0].append(detection(0, (600.0, 200.0, 700.0, 260.0), class_id=7))
    detections[1].append(detection(1, (-50.0, 200.0, 40.0, 260.0), class_id=7))
    return rig, detections


def _translated_rig_case():
    # every camera moved by about 1e3 m in the LIDAR frame
    rig, detections = _c7_boxes_past_the_image()
    shift = np.array([1000.0, -1000.0, 500.0])
    rig = [replace(cam, pose=ExtrinsicPose(cam.pose.rotation, cam.pose.translation - cam.pose.rotation @ shift))
           for cam in rig]
    return rig, _edge_points(rig, detections, (2.0, 10.0, 50.0)), detections, False


def _far_points_case():
    rig, detections = _c7_boxes_past_the_image()
    return rig, _edge_points(rig, detections, (1e3, 3e3, 1e4)), detections, False


def _float32_max_rows_case():
    # wide cameras (fx = 0.5 on a 100-pixel image) and rows up to 3.3e38 from
    # the origin: the planes' products would pass float32's largest value,
    # so these blocks are projected whole
    rng = np.random.default_rng(5)
    pose = ExtrinsicPose(random_rotation(rng), (0.0, 0.0, 0.0))
    rig = [simple_camera(0, fx=0.5, fy=0.5), simple_camera(1, fx=0.5, fy=0.5, pose=pose)]
    detections = {c: [detection(c, (1, 1, 30, 99)), detection(c, (70, 1, 99, 99), class_id=0)] for c in (0, 1)}
    directions = rng.normal(size=(3000, 3))
    return rig, directions / np.abs(directions).max(axis=1, keepdims=True) * 3.3e38, detections, False


def _non_finite_rows_case():
    # every fifth row gets a NaN or +-inf coordinate, so that with blocks of
    # 7 rows some blocks hold NaN rows but no infinite coordinate
    rig, xyz, detections, _ = _translated_rig_case()
    bad = (np.nan, np.inf, -np.inf)
    for i in range(0, len(xyz), 5):
        xyz[i, (i // 5) % 3] = bad[(i // 15) % 3]
    return rig, xyz, detections, False


def _depth_gate_case(distortion):
    # depths on both sides of DEFAULT_Z_MIN, and the camera moved by it along
    # its axis, so that some points sit within a float64 step of the gate
    dist = DistortionCoeffs(k1=-0.05, k2=0.01) if distortion else None
    pose = ExtrinsicPose(np.eye(3), (0.0, 0.0, DEFAULT_Z_MIN))
    rig = [simple_camera(0, dist=dist), simple_camera(1, dist=dist, pose=pose)]
    detections = {c: [detection(c, (40, 40, 60, 60)), detection(c, (55, 30, 130, 52), class_id=0)] for c in (0, 1)}
    depths = [DEFAULT_Z_MIN * (1 + k * 2.0 ** -20) for k in range(-3, 4)] + list(_NEAR_Z_MIN)
    depths += [0.0, -DEFAULT_Z_MIN, 2 * DEFAULT_Z_MIN, 1.0]
    return rig, _edge_points(rig, detections, depths), detections, distortion


def _barrel_c7_sample_case():
    # KITTI-like barrel coefficients fold at 50.45 degrees off-axis, and every
    # camera of the criterion-7 frame sees background rows past that angle
    rig, frame, detections = criterion7_frame()
    rig = [replace(cam, distortion=barrel_camera().distortion) for cam in rig]
    rows = np.sort(np.random.default_rng(28).choice(len(frame), 20_000, replace=False))
    return rig, frame.xyz[rows], detections, True


_FLOAT32_EDGE_CASES = {
    "translated_rig": _translated_rig_case,
    "far_points": _far_points_case,
    "float32_max_rows": _float32_max_rows_case,
    "non_finite_rows": _non_finite_rows_case,
    "depth_gate": lambda: _depth_gate_case(False),
    "depth_gate_distorted": lambda: _depth_gate_case(True),
    "barrel_c7_sample": _barrel_c7_sample_case,
}


class TestLabelFrameMatchesReference:
    @settings(max_examples=300, deadline=None)
    @given(_small_frames(), st.sampled_from((1, 2, 7, 32768)))
    def test_every_label_column(self, case, block_rows):
        # blocks of 1, 2 and 7 rows put block edges inside these 4-30 point frames
        rig, xyz, detections, distortion = case
        with pytest.MonkeyPatch.context() as m:
            m.setattr(cloud_io, "BLOCK_ROWS", block_rows)
            lc = label_frame(_frame(xyz), rig, detections, distortion_mode=distortion)
        got = list(zip(lc.class_id.tolist(), lc.camera_id.tolist(), lc.det_index.tolist()))
        assert got == reference_labels(xyz, rig, detections, distortion)
        assert np.array_equal(lc.kept, lc.class_id >= 0)

    @pytest.mark.parametrize("tz, depths", [
        (0.0, _NEAR_Z_MIN[:2]),  # just behind and just in front of DEFAULT_Z_MIN
        (DEFAULT_Z_MIN, (_NEAR_Z_MIN[3], 0.0, _NEAR_Z_MIN[2])),  # behind, exactly at, in front
    ])
    def test_depth_gate(self, tz, depths):
        # every depth projects to the principal point, inside the box
        cam = simple_camera(pose=ExtrinsicPose(np.eye(3), (0.0, 0.0, tz)))
        xyz = np.array([(0.0, 0.0, z) for z in depths], dtype=np.float32)
        detections = {0: [detection(0, (40, 40, 60, 60))]}
        expected = [(-1, -1, -1)] * (len(depths) - 1) + [(2, 0, 0)]
        assert reference_labels(xyz, [cam], detections, False) == expected
        lc = label_frame(_frame(xyz), [cam], detections)
        assert list(zip(lc.class_id.tolist(), lc.camera_id.tolist(), lc.det_index.tolist())) == expected

    @pytest.mark.parametrize("case", list(_FLOAT32_EDGE_CASES))
    @pytest.mark.parametrize("block_rows", [7, 32768])
    def test_cull_margin_at_float32_edges(self, case, block_rows):
        # points on box and image edges, where float32 plane values round to
        # either side of zero; the cull's margin must keep every row that the
        # projection puts in a box, however far or non-finite the rows are
        rig, xyz, detections, distortion = _FLOAT32_EDGE_CASES[case]()
        xyz = np.asarray(xyz, dtype=np.float32)
        with pytest.MonkeyPatch.context() as m:
            m.setattr(cloud_io, "BLOCK_ROWS", block_rows)
            lc = label_frame(_frame(xyz), rig, detections, distortion_mode=distortion)
        expected = reference_labels(xyz, rig, detections, distortion)
        assert any(label != (-1, -1, -1) for label in expected)
        got = list(zip(lc.class_id.tolist(), lc.camera_id.tolist(), lc.det_index.tolist()))
        assert got == expected

    def test_boxes_clipped_at_the_image_edges(self):
        # a unit camera puts the point (u, v, 1) on pixel (u, v) exactly; on a
        # 100 x 80 image, boxes cross the right, top and bottom edges, one lies
        # wholly right of the image and one, smaller, overlaps the first past
        # the right edge, and the points sit on a half-pixel grid that takes
        # in every edge
        cam = simple_camera(fx=1.0, fy=1.0, cx=0.0, cy=0.0, width=100, height=80)
        boxes = [(90, 20, 130, 40), (20, -30, 40, 10), (50, 70, 60, 120), (120, 10, 150, 30), (95, 30, 125, 35)]
        detections = {0: [detection(0, box, class_id=c) for c, box in enumerate(boxes)]}
        grid = np.arange(-40, 160, 0.5)
        xyz = np.array([(u, v, 1.0) for u in grid for v in grid], dtype=np.float32)
        lc = label_frame(_frame(xyz), [cam], detections)
        got = list(zip(lc.class_id.tolist(), lc.camera_id.tolist(), lc.det_index.tolist()))
        assert got == reference_labels(xyz, [cam], detections, False)
        # each box labels only its part inside the image; the one outside it, none
        u, v = xyz[:, 0], xyz[:, 1]
        for c, (x_min, y_min, x_max, y_max) in enumerate(boxes):
            inside = (u >= max(x_min, 0)) & (u < min(x_max, 100)) & (v >= max(y_min, 0)) & (v < min(y_max, 80))
            assert np.array_equal(lc.class_id == c, inside & ~((c == 0) & (lc.class_id == 4)))
        assert not (lc.class_id == 3).any() and (lc.class_id == 4).any()
