import json
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from pclabel import (
    CalibrationError,
    DistortionCoeffs,
    ExtrinsicPose,
    Intrinsics,
    camera_to_lidar,
    default_rig,
    distort_normalized,
    load_rig,
    project_points,
    undistort_normalized,
)
from pclabel import calib, cloud_io
from helpers import (
    barrel_camera, off_axis_points, random_rotation, reference_pixel, simple_camera, traced_peak,
)


def _camera_entry(**overrides):
    entry = {
        "id": 0,
        "width": 640,
        "height": 480,
        "fx": 600.0,
        "fy": 600.0,
        "cx": 320.0,
        "cy": 240.0,
        "dist": [0.0, 0.0, 0.0, 0.0, 0.0],
        "rotation": [1, 0, 0, 0, 1, 0, 0, 0, 1],
        "translation": [0.0, 0.0, 0.0],
    }
    entry.update(overrides)
    return entry


def _write_rig(tmp_path, cameras, name="rig.json"):
    path = tmp_path / name
    path.write_text(json.dumps({"cameras": cameras}))
    return path


class TestLoadRig:
    def test_single_identity_camera(self, tmp_path):
        rig = load_rig(_write_rig(tmp_path, [_camera_entry()]))
        assert len(rig) == 1
        cam = rig[0]
        assert cam.id == 0
        assert cam.intrinsics.fx == 600.0
        assert cam.intrinsics.width == 640
        assert cam.distortion == DistortionCoeffs()
        assert np.array_equal(cam.pose.rotation, np.eye(3))
        assert np.array_equal(cam.pose.translation, np.zeros(3))

    def test_non_orthonormal_rotation_names_camera(self, tmp_path):
        bad = _camera_entry(id=3, rotation=[1, 0, 0, 0, 1, 0, 0, 1, 0])
        with pytest.raises(CalibrationError, match="camera 3.*orthonormal"):
            load_rig(_write_rig(tmp_path, [bad]))

    def test_five_cameras_order_preserved(self, tmp_path):
        cams = [_camera_entry(id=i) for i in range(5)]
        rig = load_rig(_write_rig(tmp_path, cams))
        assert [c.id for c in rig] == [0, 1, 2, 3, 4]

    def test_duplicate_camera_id(self, tmp_path):
        cams = [_camera_entry(id=1), _camera_entry(id=1)]
        with pytest.raises(CalibrationError, match="duplicate camera id 1"):
            load_rig(_write_rig(tmp_path, cams))

    def test_unknown_key_rejected(self, tmp_path):
        with pytest.raises(CalibrationError, match="unknown keys"):
            load_rig(_write_rig(tmp_path, [_camera_entry(model="pinhole")]))

    def test_unknown_top_level_key_rejected(self, tmp_path):
        path = tmp_path / "rig.json"
        path.write_text(json.dumps({"cameras": [_camera_entry()], "version": 2}))
        with pytest.raises(CalibrationError, match="unknown top-level keys"):
            load_rig(path)

    def test_missing_key_rejected(self, tmp_path):
        entry = _camera_entry()
        del entry["fx"]
        with pytest.raises(CalibrationError, match="missing keys"):
            load_rig(_write_rig(tmp_path, [entry]))

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_rig(tmp_path / "nope.json")

    def test_not_json(self, tmp_path):
        path = tmp_path / "rig.json"
        path.write_text("not json {")
        with pytest.raises(CalibrationError, match="not valid JSON"):
            load_rig(path)

    def test_too_many_cameras(self, tmp_path):
        cams = [_camera_entry(id=i % 5) for i in range(6)]
        with pytest.raises(CalibrationError, match="1 to 5 cameras"):
            load_rig(_write_rig(tmp_path, cams))

    def test_empty_rig(self, tmp_path):
        with pytest.raises(CalibrationError, match="1 to 5 cameras"):
            load_rig(_write_rig(tmp_path, []))

    def test_wrong_dist_length(self, tmp_path):
        with pytest.raises(CalibrationError, match="'dist'"):
            load_rig(_write_rig(tmp_path, [_camera_entry(dist=[0.0, 0.0, 0.0])]))

    def test_non_numeric_field(self, tmp_path):
        with pytest.raises(CalibrationError, match="'fx'"):
            load_rig(_write_rig(tmp_path, [_camera_entry(fx="wide")]))

    def test_integer_too_large_for_a_float_names_file_and_camera(self, tmp_path):
        path = tmp_path / "rig.json"
        path.write_text(json.dumps({"cameras": [_camera_entry(id=2, cy=0)]}).replace(
            '"cy": 0', '"cy": ' + "9" * 401
        ))
        with pytest.raises(CalibrationError, match=re.escape(f"{path}: camera 2: field 'cy'")):
            load_rig(path)

    @pytest.mark.parametrize("entry, where", [
        (_camera_entry(id=1, fx=-1.0), "camera 1: focal"),
        (_camera_entry(id=1, dist=[0.0, 0.0, 0.0, 0.0, math.inf]), "camera 1: distortion"),
        (_camera_entry(id=1, rotation=[1, 0, 0, 0, 1, 0, 0, 0, True]), "camera 1: field 'rotation'"),
        (_camera_entry(id=1.0), "camera entry #0: field 'id'"),
        ([1, 2], "camera entry #0: expected an object"),
    ])
    def test_camera_errors_name_the_file(self, tmp_path, entry, where):
        path = _write_rig(tmp_path, [entry])
        with pytest.raises(CalibrationError, match=re.escape(f"{path}: {where}")):
            load_rig(path)

    @pytest.mark.parametrize("raw, message", [
        ([], "top level must be an object"),
        ({"cameras": {}}, "'cameras' must be a list"),
    ])
    def test_top_level_shape_names_the_file(self, tmp_path, raw, message):
        path = tmp_path / "rig.json"
        path.write_text(json.dumps(raw))
        with pytest.raises(CalibrationError, match=re.escape(f"{path}: {message}")):
            load_rig(path)

    def test_camera_id_out_of_range_names_file_and_camera(self, tmp_path):
        path = _write_rig(tmp_path, [_camera_entry(id=5)])
        with pytest.raises(CalibrationError, match=re.escape(f"{path}: camera 5: camera id must be in [0, 5)")):
            load_rig(path)

    def test_non_finite_intrinsic_names_file_and_camera(self, tmp_path):
        path = tmp_path / "rig.json"
        path.write_text(json.dumps({"cameras": [_camera_entry(fx=math.nan)]}))  # JSON NaN
        with pytest.raises(CalibrationError, match=re.escape(f"{path}: camera 0: fx must be finite")):
            load_rig(path)

    def test_bytes_that_are_not_utf8_name_the_file(self, tmp_path):
        path = tmp_path / "rig.json"
        path.write_bytes(b'{"cameras": [\xff]}')
        with pytest.raises(CalibrationError, match=re.escape(f"{path}: not valid JSON")):
            load_rig(path)


class TestIntrinsics:
    def test_negative_focal_rejected(self):
        with pytest.raises(CalibrationError, match="focal"):
            Intrinsics(fx=-1.0, fy=500.0, cx=320.0, cy=240.0, width=640, height=480)

    def test_principal_point_outside_image_rejected(self):
        with pytest.raises(CalibrationError, match="principal point"):
            Intrinsics(fx=500.0, fy=500.0, cx=700.0, cy=240.0, width=640, height=480)

    def test_zero_size_rejected(self):
        with pytest.raises(CalibrationError, match="image size"):
            Intrinsics(fx=500.0, fy=500.0, cx=0.0, cy=0.0, width=0, height=480)


class TestExtrinsicPose:
    def test_rotation_tolerance_boundary(self):
        r = np.eye(3)
        r[0, 1] = 1e-4
        with pytest.raises(CalibrationError, match="orthonormal"):
            ExtrinsicPose(r, np.zeros(3))

    def test_reflection_rejected(self):
        r = np.diag([1.0, 1.0, -1.0])
        with pytest.raises(CalibrationError, match="determinant"):
            ExtrinsicPose(r, np.zeros(3))

    @pytest.mark.parametrize("rotation, translation, message", [
        (np.eye(2), np.zeros(3), "rotation must be 3x3"),
        (np.eye(3), np.zeros(2), "translation must have 3 components"),
        (np.eye(3), [0.0, math.nan, 0.0], "non-finite"),
        (np.full((3, 3), math.inf), np.zeros(3), "non-finite"),
    ])
    def test_shape_and_finiteness(self, rotation, translation, message):
        with pytest.raises(CalibrationError, match=message):
            ExtrinsicPose(rotation, translation)

    @pytest.mark.parametrize("rotation", [
        [1e308, 0, 0, 0, 1, 0, 0, 0, 1],
        [1e308, -1e308, 0, 1e308, 1e308, 0, 0, 0, 1],  # inf - inf: NaN in R^T R
    ])
    def test_huge_entry_rejected_without_an_overflow_warning(self, rotation):
        # the suite turns warnings into errors, so a RuntimeWarning fails this test
        with pytest.raises(CalibrationError, match="orthonormal"):
            ExtrinsicPose(rotation, np.zeros(3))

    def test_immutable_arrays(self):
        pose = ExtrinsicPose.identity()
        with pytest.raises(ValueError):
            pose.rotation[0, 0] = 2.0


class TestWorldToCamera:
    """The LIDAR-to-camera transform, seen through the pixels of posed cameras."""

    def test_identity(self):
        cam = simple_camera(pose=ExtrinsicPose.identity())
        uv, in_front = project_points(cam, np.array([[1.0, 2.0, 4.0]]))
        assert in_front.tolist() == [True]
        assert uv.tolist() == [[75.0, 100.0]]  # camera point (1, 2, 4)

    def test_rotation_90_about_z(self):
        r = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        cam = simple_camera(pose=ExtrinsicPose(r, np.zeros(3)))
        uv, in_front = project_points(cam, np.array([[1.0, 0.0, 2.0]]))
        assert in_front.tolist() == [True]
        assert uv.tolist() == [[50.0, 100.0]]  # camera point (0, 1, 2)

    def test_translation_cancels(self):
        cam = simple_camera(pose=ExtrinsicPose(np.eye(3), np.array([0.0, 0.0, 5.0])))
        uv, in_front = project_points(cam, np.array([[0.0, 0.0, -4.0], [0.0, 0.0, -5.0]]))
        assert in_front.tolist() == [True, False]  # camera points (0, 0, 1) and (0, 0, 0)
        assert uv[0].tolist() == [50.0, 50.0]
        assert np.isnan(uv[1]).all()


class TestCameraToLidar:
    """The inverse pose, on the default rig and on a randomly posed camera."""

    @staticmethod
    def _cameras_and_points():
        rng = np.random.default_rng(41)
        posed = simple_camera(pose=ExtrinsicPose(random_rotation(rng), rng.uniform(-3, 3, 3)))
        pts_cam = rng.uniform(-20, 20, size=(500, 3))
        pts_cam[:, 2] = rng.uniform(1.0, 60.0, 500)
        return default_rig() + [posed], pts_cam

    def test_is_the_transposed_rotation_bit_for_bit(self):
        cameras, pts_cam = self._cameras_and_points()
        for cam in cameras:
            want = (pts_cam - cam.pose.translation) @ cam.pose.rotation
            assert camera_to_lidar(cam, pts_cam).tobytes() == want.tobytes()

    def test_round_trip_through_the_projection(self):
        cameras, pts_cam = self._cameras_and_points()
        for cam in cameras:
            lidar = camera_to_lidar(cam, pts_cam)
            r, t = cam.pose.rotation, cam.pose.translation
            x, y, z = lidar.T
            # the rotation project_points applies, summed in its order
            back = np.stack([r[i, 0] * x + r[i, 1] * y + r[i, 2] * z + t[i] for i in range(3)], axis=1)
            assert np.abs(back - pts_cam).max() < 1e-12
            uv, in_front = project_points(cam, lidar)
            intr = cam.intrinsics
            assert in_front.all()
            assert np.abs(uv[:, 0] - (intr.fx * pts_cam[:, 0] / pts_cam[:, 2] + intr.cx)).max() < 1e-9
            assert np.abs(uv[:, 1] - (intr.fy * pts_cam[:, 1] / pts_cam[:, 2] + intr.cy)).max() < 1e-9


class TestDistortion:
    def test_zero_coefficients_identity(self):
        d = DistortionCoeffs()
        assert distort_normalized(d, 0.3, -0.2) == (0.3, -0.2)

    def test_radial_hand_value(self):
        # r2 = 0.25, radial = 1 - 0.1 * 0.25 = 0.975, x = 0.5 * 0.975
        d = DistortionCoeffs(k1=-0.1)
        xd, yd = distort_normalized(d, 0.5, 0.0)
        assert xd == pytest.approx(0.4875, abs=1e-12)
        assert yd == 0.0

    def test_origin_is_fixed_point(self):
        d = DistortionCoeffs(k1=0.2, k2=-0.05, p1=0.01, p2=-0.01, k3=0.001)
        assert distort_normalized(d, 0.0, 0.0) == (0.0, 0.0)

    def test_zero_coefficients_identity_on_grid(self):
        d = DistortionCoeffs()
        xn, yn = np.meshgrid(np.linspace(-3, 3, 31), np.linspace(-3, 3, 31))
        xd, yd = distort_normalized(d, xn, yn)
        assert np.array_equal(xd, xn) and np.array_equal(yd, yn)

    def test_undistort_zero_coefficients(self):
        d = DistortionCoeffs()
        assert undistort_normalized(d, 0.3, -0.2) == (0.3, -0.2)

    def test_undistort_roundtrip_k1(self):
        d = DistortionCoeffs(k1=-0.1)
        xd, yd = distort_normalized(d, 0.5, 0.0)
        xn, yn = undistort_normalized(d, xd, yd)
        assert xn == pytest.approx(0.5, abs=1e-8)
        assert yn == pytest.approx(0.0, abs=1e-8)

    def test_undistort_origin(self):
        d = DistortionCoeffs(k1=0.3, p1=0.01)
        assert undistort_normalized(d, 0.0, 0.0) == (0.0, 0.0)

    def test_undistort_nonconvergence_raises(self):
        d = DistortionCoeffs(k1=-2.0)
        with pytest.raises(ValueError, match="did not converge"):
            undistort_normalized(d, 1.5, 0.0)

    def test_undistort_array_input(self):
        d = DistortionCoeffs(k1=-0.1, p1=0.005)
        xn = np.linspace(-0.5, 0.5, 11)
        yn = np.linspace(0.4, -0.4, 11)
        xd, yd = distort_normalized(d, xn, yn)
        xr, yr = undistort_normalized(d, xd, yd)
        assert np.abs(xr - xn).max() < 1e-8
        assert np.abs(yr - yn).max() < 1e-8

    @settings(max_examples=200, deadline=None)
    @given(
        xn=st.floats(-0.6, 0.6),
        yn=st.floats(-0.6, 0.6),
        k1=st.floats(-0.3, 0.3),
        k2=st.floats(-0.1, 0.1),
        p1=st.floats(-0.01, 0.01),
        p2=st.floats(-0.01, 0.01),
    )
    # the radial map is still monotone here (1 + 3 k1 r^2 + 5 k2 r^4 is about
    # 0.26 at r^2 = 0.705), but fixed-point iteration contracts by only about
    # 0.68 a step and used to stop short of the tolerance
    @example(xn=0.59375, yn=0.59375, k1=-0.28125, k2=-0.0625, p1=0.0, p2=0.0)
    def test_roundtrip_property(self, xn, yn, k1, k2, p1, p2):
        d = DistortionCoeffs(k1=k1, k2=k2, p1=p1, p2=p2)
        xr, yr = undistort_normalized(d, *distort_normalized(d, xn, yn))
        assert abs(xr - xn) < 1e-8
        assert abs(yr - yn) < 1e-8


def _project_one(cam, p, **kwargs):
    """project_points on a single (1, 3) row: the pixel (u, v) and whether it is in front."""
    uv, in_front = project_points(cam, np.array([p], dtype=np.float64), **kwargs)
    return tuple(uv[0].tolist()), bool(in_front[0])


class TestDistortionFold:
    def test_kitti_like_barrel_folds_at_50_degrees(self):
        d = barrel_camera().distortion
        assert d.fold_r2 == pytest.approx(1.4668, abs=1e-4)
        assert math.degrees(math.atan(math.sqrt(d.fold_r2))) == pytest.approx(50.45, abs=0.01)

    @pytest.mark.parametrize("coeffs", [(0.0, 0.0, 0.0), (0.1, 0.01, 0.0), (0.0, 0.0, 0.01)])
    def test_a_map_that_always_rises_never_folds(self, coeffs):
        k1, k2, k3 = coeffs
        assert DistortionCoeffs(k1=k1, k2=k2, k3=k3).fold_r2 == math.inf

    @settings(max_examples=300, deadline=None)
    @given(
        k1=st.floats(-1, 1), k2=st.floats(-1, 1), k3=st.floats(-1, 1),
        p1=st.floats(-0.01, 0.01), p2=st.floats(-0.01, 0.01),
    )
    def test_the_radial_map_rises_up_to_the_fold(self, k1, k2, k3, p1, p2):
        # r * radial(r^2) has the derivative 1 + 3 k1 s + 5 k2 s^2 + 7 k3 s^3 in
        # s = r^2: positive below the fold, and zero at it
        d = DistortionCoeffs(k1=k1, k2=k2, p1=p1, p2=p2, k3=k3)
        slope = np.polynomial.Polynomial([1.0, 3 * k1, 5 * k2, 7 * k3])
        below = np.linspace(0.0, min(d.fold_r2, 100.0), 2001)[:-1]
        assert (slope(below) > 0).all()
        if d.fold_r2 <= 1e6:  # r = 1000, 89.94 degrees off-axis; a tiny k puts it past 1e150
            terms = np.abs(slope.coef) * d.fold_r2 ** np.arange(4)
            assert abs(slope(d.fold_r2)) <= 1e-9 * terms.sum()


class TestProject:
    def test_points_must_have_three_columns(self):
        with pytest.raises(ValueError, match=r"shape \(n, 3\)"):
            project_points(simple_camera(), np.zeros((4, 2)))

    def test_optical_axis(self):
        cam = simple_camera()
        assert _project_one(cam, (0, 0, 1)) == ((50.0, 50.0), True)

    def test_hand_value(self):
        cam = simple_camera()
        assert _project_one(cam, (0.5, 0, 1)) == ((100.0, 50.0), True)

    def test_behind_camera_absent(self):
        cam = simple_camera()
        (u, v), in_front = _project_one(cam, (0, 0, -1))
        assert not in_front
        assert math.isnan(u) and math.isnan(v)

    def test_z_min_cutoff(self):
        cam = simple_camera()
        assert _project_one(cam, (0, 0, 1e-6))[1] is False
        assert _project_one(cam, (0, 0, 2e-6))[1] is True

    def test_out_of_bounds_pixel_still_returned(self):
        cam = simple_camera()
        (u, _v), in_front = _project_one(cam, (5.0, 0.0, 1.0))
        assert in_front
        assert u == 550.0

    def test_scale_invariance_identity_pose(self):
        cam = simple_camera(dist=DistortionCoeffs(k1=-0.05, p1=0.002))
        rng = np.random.default_rng(3)
        for _ in range(50):
            p = rng.uniform(-1, 1, 3)
            p[2] = rng.uniform(0.5, 10.0)
            s = rng.uniform(0.1, 10.0)
            base, base_front = _project_one(cam, p, use_distortion=True)
            scaled, scaled_front = _project_one(cam, s * p, use_distortion=True)
            assert base_front and scaled_front
            assert abs(base[0] - scaled[0]) < 1e-9
            assert abs(base[1] - scaled[1]) < 1e-9

    def test_project_points_matches_scalar(self):
        # projecting all rows at once equals projecting each row alone
        rng = np.random.default_rng(11)
        pose = ExtrinsicPose(random_rotation(rng), rng.normal(size=3))
        cam = simple_camera(dist=DistortionCoeffs(k1=0.1, k2=-0.02, p1=0.003, p2=-0.001), pose=pose)
        pts = rng.uniform(-20, 20, size=(200, 3))
        uv, in_front = project_points(cam, pts, use_distortion=True)
        assert 0 < in_front.sum() < len(pts)
        for i in range(len(pts)):
            uv_i, in_front_i = project_points(cam, pts[i : i + 1], use_distortion=True)
            assert in_front_i[0] == in_front[i]
            assert np.array_equal(uv_i[0], uv[i], equal_nan=True)

    @pytest.mark.parametrize("use_distortion", [False, True])
    def test_float32_input_matches_float64_bit_for_bit(self, monkeypatch, use_distortion):
        # float32 rows convert exactly, so both give the float64 arithmetic's bits
        rng = np.random.default_rng(23)
        dist = DistortionCoeffs(k1=0.1, k2=-0.02, p1=0.003, p2=-0.001, k3=0.004)
        pose = ExtrinsicPose(random_rotation(rng), rng.normal(size=3))
        posed = simple_camera(dist=dist, pose=pose)
        axis = simple_camera(dist=dist)
        pts = rng.uniform(-20, 20, size=(2000, 3)).astype(np.float32)
        # on the identity camera, camera z is the point's z: rows exactly at
        # z_min, at 0 and behind the camera, next to rows just in front
        pts[:4, 2] = [0.5, 0.0, -1.0, np.nextafter(np.float32(0.5), np.float32(1))]
        for cam, z_min in ((posed, 1e-6), (axis, 0.5)):
            monkeypatch.setattr(calib, "DEFAULT_Z_MIN", z_min)
            uv32, front32 = project_points(cam, pts, use_distortion=use_distortion)
            uv64, front64 = project_points(cam, pts.astype(np.float64), use_distortion=use_distortion)
            assert uv32.dtype == np.float64
            assert 0 < front64.sum() < len(pts)
            assert np.array_equal(front32, front64)
            assert uv32.tobytes() == uv64.tobytes()
        assert front64[:4].tolist() == [False, False, False, True]

    @settings(max_examples=150, deadline=None)
    @given(
        pts=hnp.arrays(
            np.float32, st.tuples(st.integers(0, 40), st.just(3)), elements=st.floats(-30, 30, width=32)
        ),
        seed=st.integers(0, 2**32 - 1),
        use_distortion=st.booleans(),
    )
    def test_rows_match_per_row_reference(self, pts, seed, use_distortion):
        # every row is projected in place: a row in front has the bits of the
        # per-row double arithmetic, a row behind the camera is NaN
        rng = np.random.default_rng(seed)
        dist = DistortionCoeffs(*rng.uniform(-0.1, 0.1, 5))
        pose = ExtrinsicPose(random_rotation(rng), rng.normal(size=3))
        cam = simple_camera(dist=dist, pose=pose)
        uv, in_front = project_points(cam, pts, use_distortion=use_distortion)
        for row, pixel, front in zip(pts.tolist(), uv, in_front):
            ref = reference_pixel(cam, row, use_distortion)
            assert front == (ref is not None)
            if ref is None:
                assert np.isnan(pixel).all()
            else:
                assert pixel.tobytes() == np.array(ref).tobytes()

    @pytest.mark.parametrize("behind", [0.0, 0.5])
    def test_float32_block_peak_memory_per_point(self, behind):
        # the result (16 bytes a point), the depth and one scratch row (8 each)
        # and the mask (1), whatever share of the rows is in front: nothing is
        # gathered and no ufunc casts float32 through a hidden buffer
        n = cloud_io.BLOCK_ROWS
        rng = np.random.default_rng(17)
        pts = rng.uniform(-20, 20, size=(n, 3)).astype(np.float32)
        pts[:, 2] = np.where(rng.random(n) < behind, -1.0, 1.0) * rng.uniform(1, 50, n)
        _, peak = traced_peak(project_points, simple_camera(), pts)
        assert peak / n <= 34, f"peak {peak / n:.1f} bytes per point"

    def test_rows_past_the_distortion_fold_are_absent(self):
        # pinhole u: 608.7, 915.9, 1120.2 and 1186.0.  The radial map folds at
        # 50.45 degrees, after which 58 and 60 degrees landed back inside the
        # image, at u = 490.1 and 182.4
        cam = barrel_camera()
        pts = off_axis_points(cam, [30.0, 50.0, 58.0, 60.0])
        uv, in_front = project_points(cam, pts, use_distortion=True)
        assert in_front.tolist() == [True, True, False, False]
        assert np.isnan(uv[2:]).all() and 575 < uv[0, 0] < 585 and uv[1, 0] > 640
        # the pinhole projection has no fold
        assert project_points(cam, pts)[1].all()

    def test_behind_camera_mask_vectorized(self):
        cam = simple_camera()
        pts = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0], [0.0, 0.0, 0.0]])
        uv, in_front = project_points(cam, pts)
        assert in_front.tolist() == [True, False, False]
        assert np.isnan(uv[1]).all() and np.isnan(uv[2]).all()

    def test_nan_depth_is_absent(self):
        cam = simple_camera()
        uv, in_front = project_points(cam, np.array([[0.0, 0.0, math.nan]]))
        assert not in_front[0]
        assert np.isnan(uv[0]).all()

    @pytest.mark.parametrize("use_distortion", [False, True])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_non_finite_rows_are_absent_without_a_warning(self, use_distortion, dtype):
        # NaN, +inf and -inf in each coordinate.  On the identity pose inf * 0
        # is NaN and (0, 0, +inf) has a depth of +inf; on a posed camera inf
        # terms of both signs meet in the sums.  The suite turns numpy's
        # RuntimeWarning into an error
        rows = []
        for axis in range(3):
            for bad in (math.nan, math.inf, -math.inf):
                row = [0.0, 0.0, 5.0]
                row[axis] = bad
                rows.append(row)
        pts = np.array(rows + [[0.0, 0.0, 5.0]], dtype=dtype)
        rng = np.random.default_rng(29)
        dist = DistortionCoeffs(k1=-0.05, k2=0.01, p1=0.002)
        posed = simple_camera(dist=dist, pose=ExtrinsicPose(random_rotation(rng), rng.normal(size=3)))
        for cam in (simple_camera(dist=dist), posed):
            uv, in_front = project_points(cam, pts, use_distortion=use_distortion)
            assert not in_front[:-1].any()
            assert np.isnan(uv[:-1]).all()
            # the finite row is projected as on its own
            alone, alone_front = project_points(cam, pts[-1:], use_distortion=use_distortion)
            assert in_front[-1] == alone_front[0]
            assert uv[-1].tobytes() == alone[0].tobytes()
            assert in_front[-1] or cam is posed
