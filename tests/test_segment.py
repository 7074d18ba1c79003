import copy
import csv
import re
from dataclasses import replace
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pclabel import (
    FrameReport,
    KMeansConfig,
    LabeledCloud,
    PointCloudFrame,
    aggregate_reports,
    denoise_frame,
    frame_report,
    kmeans,
    label_frame,
    read_report_csv,
    write_report_csv,
)
from pclabel.rng import SplitMix64, derive_seed

from helpers import (
    criterion7_frame,
    detection,
    enumerate_local_optima,
    partition_inertia,
    reference_denoise,
    reference_kmeans,
    simple_camera,
    traced_peak,
)


def _labeled_frame(points, refs):
    """Frame plus a LabeledCloud assigning each point to refs[i] = (cam, det) or None."""
    frame = PointCloudFrame(frame_id=0, timestamp=0.0, xyz=np.asarray(points, dtype=np.float32))
    lc = LabeledCloud.empty(0, len(frame))
    for i, ref in enumerate(refs):
        if ref is not None:
            cam, det = ref
            lc.class_id[i] = 2
            lc.camera_id[i] = cam
            lc.det_index[i] = det
            lc.kept[i] = True
    return frame, lc


def _single_detection_runs(frame, lc, cfg, refs):
    """Reference for denoise_frame: one denoise_frame run per (camera, detection)
    in ``refs`` order, each on ``lc`` with every other detection's labels
    cleared, merged.  Each run must leave the points outside its detection
    exactly as they were."""
    merged = copy.deepcopy(lc)
    for cam, det in refs:
        mine = (lc.camera_id == cam) & (lc.det_index == det)
        alone = copy.deepcopy(lc)
        alone.class_id[~mine] = alone.camera_id[~mine] = alone.det_index[~mine] = -1
        alone.kept[~mine] = False
        before = copy.deepcopy(alone)
        denoise_frame(frame, alone, cfg)
        for name in ("class_id", "camera_id", "det_index", "cluster_id", "kept"):
            assert np.array_equal(getattr(alone, name)[~mine], getattr(before, name)[~mine])
        merged.cluster_id[mine] = alone.cluster_id[mine]
        merged.kept[mine] = alone.kept[mine]
    return merged


class TestKMeansConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            KMeansConfig(k=0)
        with pytest.raises(ValueError):
            KMeansConfig(max_iter=0)
        with pytest.raises(ValueError):
            KMeansConfig(tol=-1.0)

    @pytest.mark.parametrize("field", ["k", "max_iter", "seed"])
    @pytest.mark.parametrize("value", [2.5, 2.0, True, np.bool_(True), "2", None])
    def test_counts_must_be_integers(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be an integer, got "):
            KMeansConfig(**{field: value})

    @pytest.mark.parametrize("value", [float("nan"), True, "0.1", None])
    def test_tol_must_be_a_number_of_at_least_zero(self, value):
        with pytest.raises(ValueError, match="^tol must be "):
            KMeansConfig(tol=value)

    def test_numpy_integer_counts_are_kept_as_ints(self):
        # derive_seed masks the seed with a 64-bit Python int, which a numpy
        # int64 cannot take
        cfg = KMeansConfig(k=np.int64(2), max_iter=np.uint8(5), seed=np.int64(-4))
        assert [(type(v), v) for v in (cfg.k, cfg.max_iter, cfg.seed)] == [(int, 2), (int, 5), (int, -4)]

    def test_defaults(self):
        cfg = KMeansConfig()
        assert (cfg.k, cfg.max_iter, cfg.tol) == (3, 100, 1e-6)


class TestKMeans:
    def test_points_must_have_three_columns(self):
        with pytest.raises(ValueError, match="shape"):
            kmeans(np.zeros((4, 2)), KMeansConfig())

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_non_finite_points_name_the_first_bad_row(self, bad, dtype):
        pts = np.random.default_rng(3).normal(size=(10, 3)).astype(dtype)
        pts[7, 2] = pts[4, 1] = bad
        with pytest.raises(ValueError, match=r"^point 4 is not finite: \["):
            kmeans(pts, KMeansConfig())

    def test_two_separated_blobs_reach_optimum(self):
        pts = np.array([[0, 0, 0]] * 5 + [[10, 10, 10]] * 5, dtype=float)
        # brute force over all 2-partitions: the optimum splits the blobs exactly
        best = min(
            partition_inertia(pts, np.array(a), 2) for a in product((0, 1), repeat=10)
        )
        assert best == 0.0
        for seed in (0, 1, 2, 99):
            res = kmeans(pts, KMeansConfig(k=2, seed=seed))
            sizes = np.bincount(res.assignments, minlength=2)
            assert sorted(sizes) == [5, 5]
            assert res.inertia == 0.0
            assert {tuple(c) for c in res.centroids} == {(0.0, 0.0, 0.0), (10.0, 10.0, 10.0)}

    def test_single_point_k1(self):
        res = kmeans(np.array([[1.0, 2.0, 3.0]]), KMeansConfig(k=1, seed=0))
        assert res.assignments.tolist() == [0]
        assert np.array_equal(res.centroids, [[1.0, 2.0, 3.0]])
        assert res.inertia == 0.0

    def test_k1_closed_form(self):
        rng = np.random.default_rng(8)
        pts = rng.normal(size=(40, 3))
        res = kmeans(pts, KMeansConfig(k=1, seed=5))
        mean = pts.mean(axis=0)
        expected = float(((pts - mean) ** 2).sum())
        assert np.allclose(res.centroids[0], mean)
        assert res.inertia == pytest.approx(expected, rel=1e-12)

    def test_k_lowered_to_point_count(self):
        pts = np.array([[0, 0, 0], [1, 0, 0], [2, 0, 0]], dtype=float)
        res = kmeans(pts, KMeansConfig(k=5, seed=0))
        assert res.k == 3
        assert res.inertia == 0.0

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError, match="at least one point"):
            kmeans(np.zeros((0, 3)), KMeansConfig())

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(21)
        pts = rng.normal(size=(100, 3))
        a = kmeans(pts, KMeansConfig(k=4, seed=77))
        b = kmeans(pts, KMeansConfig(k=4, seed=77))
        assert np.array_equal(a.assignments, b.assignments)
        assert np.array_equal(a.centroids, b.centroids)
        assert a.inertia == b.inertia
        assert a.inertia_history == b.inertia_history

    def test_identical_points_all_in_cluster_zero(self):
        # assignment ties go to the lowest cluster id
        pts = np.ones((7, 3))
        res = kmeans(pts, KMeansConfig(k=3, seed=4))
        assert res.assignments.tolist() == [0] * 7
        assert res.inertia == 0.0

    def test_empty_cluster_reseeded_to_farthest(self):
        # seed 0 initializes both centroids on the duplicated origin points,
        # so cluster 1 empties and is re-seeded to the farthest point
        pts = np.array([[0, 0, 0], [0, 0, 0], [5, 0, 0]], dtype=float)
        res = kmeans(pts, KMeansConfig(k=2, seed=0))
        assert res.assignments.tolist() == [0, 0, 1]
        assert res.inertia == 0.0

    def test_inertia_history_non_increasing(self):
        rng = np.random.default_rng(3)
        for trial in range(20):
            pts = rng.normal(size=(50, 3)) * rng.uniform(0.5, 3.0)
            res = kmeans(pts, KMeansConfig(k=4, seed=trial))
            hist = res.inertia_history
            assert all(a >= b - 1e-9 for a, b in zip(hist, hist[1:]))
            assert res.inertia == hist[-1]

    def test_final_assignments_are_nearest_centroid(self):
        rng = np.random.default_rng(13)
        pts = rng.normal(size=(60, 3))
        res = kmeans(pts, KMeansConfig(k=3, seed=2))
        d2 = ((pts[:, None, :] - res.centroids[None]) ** 2).sum(axis=2)
        assigned = d2[np.arange(len(pts)), res.assignments]
        assert np.all(assigned <= d2.min(axis=1) + 1e-12)

    def test_iterations_capped(self):
        rng = np.random.default_rng(14)
        pts = rng.normal(size=(200, 3))
        res = kmeans(pts, KMeansConfig(k=5, seed=0, max_iter=2))
        assert res.iterations_run <= 2

    def test_matches_enumeration_oracle_small(self):
        rng = np.random.default_rng(19)
        for trial in range(20):
            n = int(rng.integers(2, 9))
            pts = rng.normal(size=(n, 3))
            res = kmeans(pts, KMeansConfig(k=2, seed=trial, tol=0.0))
            optima = enumerate_local_optima(pts, 2)
            assert optima, "enumeration found no stable partition"
            assert min(abs(res.inertia - inertia) for _, inertia in optima) < 1e-9


def _reference_cases():
    rng = np.random.default_rng(31)
    line = np.array([[0, 0, 0]] * 4 + [[2, 0, 0]] * 4 + [[1, 0, 0]] * 3, dtype=float)
    blobs = np.concatenate([rng.normal(c, 0.4, size=(700, 3)) for c in ((0, 0, 0), (3, 1, 0), (1, 4, 2))])
    noisy = np.concatenate([blobs, rng.uniform(-6, 6, size=(300, 3))])
    return {
        # the middle points sit exactly halfway between the outer groups
        "duplicates_and_ties": [(line, KMeansConfig(k=k, seed=s)) for k in (2, 3) for s in range(6)],
        "k_above_n": [(np.array([[1.0, 2.0, 3.0], [1.0, 2.0, 3.5]]), KMeansConfig(k=5, seed=3))],
        # seed 0 puts both initial centroids on the duplicated origin
        "empty_cluster_reseeded": [
            (np.array([[0, 0, 0], [0, 0, 0], [5, 0, 0]], dtype=float), KMeansConfig(k=2, seed=0)),
            (np.concatenate([np.zeros((40, 3)), rng.normal(size=(10, 3))]), KMeansConfig(k=4, seed=1)),
        ],
        "max_iter_hit": [(noisy, KMeansConfig(k=5, seed=2, max_iter=2))],
        "tol_zero": [(noisy, KMeansConfig(k=4, seed=5, tol=0.0))],
        # stops on tol while the centroids still move
        "tol_stop": [(noisy, KMeansConfig(k=3, seed=1, tol=0.1))],
        "float32": [(noisy.astype(np.float32), KMeansConfig(k=3, seed=9))],
        # the inertia of a few points shows the last bit of each squared
        # distance, so these pin the order in which the three terms are added
        "few_points": [
            (rng.normal(size=(n, 3)) * 3, KMeansConfig(k=1, seed=s))
            for n in (2, 3, 4) for s in range(10)
        ],
        # ids past 255 take two bytes
        "k_above_256": [(rng.normal(size=(600, 3)), KMeansConfig(k=300, seed=4))],
    }


def _assert_matches_reference(got, pts, cfg):
    want = reference_kmeans(pts, cfg.k, cfg.max_iter, cfg.seed, cfg.tol)
    assert got.assignments.dtype == want.assignments.dtype
    assert np.array_equal(got.assignments, want.assignments)
    assert got.centroids.tobytes() == want.centroids.tobytes()
    assert got.inertia_history == want.inertia_history
    assert got.cluster_inertia.tobytes() == want.cluster_inertia.tobytes()
    assert got.inertia == want.inertia
    assert got.iterations_run == want.iterations_run


_coord = st.one_of(st.integers(-3, 3).map(float), st.floats(-4, 4, width=32))


@st.composite
def _kmeans_inputs(draw):
    """1-40 points drawn with repeats from up to as many distinct ones, and a config."""
    n = draw(st.integers(1, 40))
    distinct = draw(st.lists(st.tuples(_coord, _coord, _coord), min_size=1, max_size=n))
    rows = draw(st.lists(st.integers(0, len(distinct) - 1), min_size=n, max_size=n))
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    cfg = KMeansConfig(
        k=draw(st.integers(1, 5)),
        max_iter=draw(st.integers(1, 6)),
        seed=draw(st.integers(0, 2**64 - 1)),
        tol=draw(st.sampled_from([0.0, 1e-6, 0.3])),
    )
    return np.array([distinct[i] for i in rows], dtype=dtype), cfg


class TestKMeansMatchesReference:
    """kmeans matches the plain Lloyd loop in helpers.reference_kmeans bit for bit."""

    @pytest.mark.parametrize("case", sorted(_reference_cases()))
    def test_bit_identical(self, case):
        for pts, cfg in _reference_cases()[case]:
            _assert_matches_reference(kmeans(pts, cfg), pts, cfg)

    @settings(max_examples=300, deadline=None)
    @given(_kmeans_inputs())
    def test_bit_identical_on_small_inputs(self, inputs):
        pts, cfg = inputs
        _assert_matches_reference(kmeans(pts, cfg), pts, cfg)

    def test_movement_equal_to_tol_does_not_stop(self):
        # the stop rule is movement < tol, so a step that moves exactly tol goes on
        pts, cfg = _reference_cases()["tol_stop"][0]
        start = pts[SplitMix64(cfg.seed).sample_distinct(len(pts), cfg.k)]
        first = reference_kmeans(pts, cfg.k, 1, cfg.seed, 0.0)
        cfg = replace(cfg, tol=float(np.max(np.abs(first.centroids - start))))
        got = kmeans(pts, cfg)
        assert got.iterations_run > 1
        _assert_matches_reference(got, pts, cfg)

    def test_cases_reach_their_paths(self):
        cases = _reference_cases()
        pts, cfg = cases["max_iter_hit"][0]
        assert kmeans(pts, cfg).iterations_run == cfg.max_iter
        pts, cfg = cases["k_above_n"][0]
        assert kmeans(pts, cfg).k == len(pts)
        pts, cfg = cases["k_above_256"][0]
        assert kmeans(pts, cfg).assignments.max() > 255
        pts, cfg = cases["empty_cluster_reseeded"][0]
        assert kmeans(pts, cfg).assignments.tolist() == [0, 0, 1]
        pts, cfg = cases["tol_stop"][0]
        res = kmeans(pts, cfg)
        assert res.inertia_history[-1] != res.inertia_history[-2]  # the last step moved
        assert res.iterations_run < kmeans(pts, replace(cfg, tol=0.0)).iterations_run


def _tie_cases():
    """Integer points whose squared distances to the centroids tie exactly."""
    grid = np.array(list(product((-1, 0, 1), repeat=3)), dtype=float)
    # (2, 0, 0) is 2 from (0, 0, 0), (2, 2, 0) and (2, -2, 0), and (-2, 0, 0)
    # balances it, so the mean of the first group stays at the origin
    star = np.array(
        [[0, 0, 0]] * 4 + [[-2, 0, 0], [2, 0, 0]] + [[2, 2, 0]] * 4 + [[2, -2, 0]] * 4, dtype=float
    )
    star5 = np.concatenate([star, [[-4, 3, 0]] * 3 + [[-4, -3, 0]] * 3 + [[-4, 0, 0]]])
    cases = [(pts, KMeansConfig(k=k, seed=s)) for pts in (grid, star, star5) for k in (3, 5) for s in range(6)]
    # seed 32 gives the origin's group the lowest id, so the 3-way tie at
    # (2, 0, 0) holds through to the last pass
    return cases + [(star, KMeansConfig(k=3, seed=32))]


def _distance_ties(pts, cfg):
    """Per assignment pass of the reference run, a (2, k) array: for each
    cluster id, how many points it ties for nearest 2-way and 3-or-more-way."""
    n_iter = reference_kmeans(pts, cfg.k, cfg.max_iter, cfg.seed, cfg.tol).iterations_run
    passes = [pts[SplitMix64(cfg.seed).sample_distinct(len(pts), cfg.k)]]
    passes += [reference_kmeans(pts, cfg.k, i, cfg.seed, cfg.tol).centroids for i in range(1, n_iter + 1)]
    counts = []
    for centroids in passes:
        sq = (pts[:, None, :] - centroids[None, :, :]) ** 2
        d2 = sq[..., 0] + sq[..., 2] + sq[..., 1]
        nearest = d2 == d2.min(axis=1)[:, None]
        ways = nearest.sum(axis=1)[:, None]
        counts.append(np.stack([(nearest & (ways == 2)).sum(axis=0), (nearest & (ways >= 3)).sum(axis=0)]))
    return counts


class TestKMeansDistanceTies:
    """A point at exactly the same distance from two or three centroids goes
    to the lowest of their ids, as in helpers.reference_kmeans."""

    @pytest.mark.parametrize("k", [3, 5])
    def test_ties_match_reference(self, k):
        for pts, cfg in _tie_cases():
            if cfg.k == k:
                _assert_matches_reference(kmeans(pts, cfg), pts, cfg)

    @pytest.mark.parametrize("k", [3, 5])
    def test_cases_reach_two_and_three_way_ties(self, k):
        first, later = np.zeros((2, k), dtype=int), np.zeros((2, k), dtype=int)
        for pts, cfg in _tie_cases():
            if cfg.k == k:
                counts = _distance_ties(pts, cfg)
                first += counts[0]
                later += sum(counts[1:], np.zeros((2, k), dtype=int))
        # both kinds of tie, before and after a centroid update
        assert (first.sum(axis=1) > 0).all() and (later.sum(axis=1) > 0).all()
        # ties that the highest id takes part in, and ties cluster 0 is not part of
        assert (first + later)[:, k - 1].all()
        assert (first + later).sum() > (first + later)[:, 0].sum()


@pytest.mark.parametrize("n, parent_bytes", [(9_683, 75.6), (1_286, 76.9)])
def test_kmeans_peak_memory_per_point(n, parent_bytes):
    # the buffers of one call: (3, n) float64 points and squares, three n-long
    # assignment and distance buffers, the int32 result; a change to the
    # assignment step may add at most 12 bytes a point to this.  Measured
    # warm, as a first call in the process adds one-time allocations
    pts = np.random.default_rng(n).normal(size=(n, 3)).astype(np.float32)
    kmeans(pts, KMeansConfig(k=3, seed=7))
    _result, peak = traced_peak(kmeans, pts, KMeansConfig(k=3, seed=7))
    assert peak / n < parent_bytes + 12, f"peak {peak / n:.1f} bytes per point"


def test_kmeans_peak_memory_has_no_broadcast_buffer():
    # below about 8k points numpy's broadcast subtraction of a centroid from
    # the (3, n) points allocated a hidden buffer the size of the squares,
    # 25 bytes a point at 1,286 points (about 100 in all); the call's own
    # buffers take 74.  A first call in the process adds about 1.1 for
    # one-time allocations, so the call is measured warm.  Writing the bool
    # "closer" flags into uint8 ids cast them through a buffer, 77.5 in all;
    # through a bool view it is 76.9
    n = 1_286
    pts = np.random.default_rng(n).normal(size=(n, 3)).astype(np.float32)
    kmeans(pts, KMeansConfig(k=3, seed=7))
    _result, peak = traced_peak(kmeans, pts, KMeansConfig(k=3, seed=7))
    assert peak / n < 77.2, f"peak {peak / n:.1f} bytes per point"


class TestDenoiseDetection:
    """denoise_frame on frames that hold one detection."""

    def _blob_and_ray(self):
        rng = np.random.default_rng(17)
        blob = np.array([5, 0, 0]) + rng.normal(scale=0.2, size=(900, 3))
        ray_x = rng.uniform(6.0, 50.0, size=100)
        ray = np.stack(
            [ray_x, rng.normal(scale=0.3, size=100), rng.normal(scale=0.3, size=100)], axis=1
        )
        pts = np.concatenate([blob, ray])
        return _labeled_frame(pts, [(0, 0)] * 1000)

    def test_keeps_dense_blob_drops_ray(self):
        frame, lc = self._blob_and_ray()
        denoise_frame(frame, lc, KMeansConfig(k=3, seed=0))
        # brute-force count against the known construction
        assert int(lc.kept[:900].sum()) >= 850
        assert int(lc.kept[900:].sum()) < 50
        assert np.all(lc.cluster_id[:1000] >= 0)

    def test_identical_points_nothing_dropped(self):
        frame, lc = _labeled_frame(np.ones((50, 3)), [(0, 0)] * 50)
        denoise_frame(frame, lc, KMeansConfig(k=3, seed=1))
        assert lc.kept.all()

    def test_size_tie_prefers_centroid_nearest_origin(self):
        pts = np.array([[1, 0, 0], [50, 0, 0], [0, 30, 0]], dtype=float)
        frame, lc = _labeled_frame(pts, [(0, 0)] * 3)
        denoise_frame(frame, lc, KMeansConfig(k=3, seed=0))
        assert lc.kept.tolist() == [True, False, False]

    @pytest.mark.parametrize("n_tight, n_loose, tight_kept", [
        (8, 200, False),  # under 10 points
        (12, 400, False),  # under 5 % of the detection
        (12, 200, True),
        # at most 200 points, where 5 % is at most 10, the floor is 10 points
        # whatever the module's constants say
        (10, 100, True),
        (9, 100, False),
    ])
    def test_size_floor_of_the_compact_cluster(self, n_tight, n_loose, tight_kept):
        # a point-sized cluster is the most compact, but is kept only when big enough
        loose = np.random.default_rng(3).normal(size=(n_loose, 3)) + [20.0, 0.0, 0.0]
        pts = np.concatenate([np.tile([5.0, 0.0, 0.0], (n_tight, 1)), loose])
        frame, lc = _labeled_frame(pts, [(0, 0)] * len(pts))
        denoise_frame(frame, lc, KMeansConfig(k=2, seed=0))
        assert len(set(lc.cluster_id[:n_tight].tolist())) == 1
        assert lc.cluster_id[n_tight] not in lc.cluster_id[:n_tight]
        assert lc.kept.tolist() == [tight_kept] * n_tight + [not tight_kept] * n_loose

    def test_spread_tie_prefers_the_larger_cluster(self):
        # both clusters are single repeated points, so neither has any spread;
        # the larger one lies farther from the origin and is kept
        pts = np.concatenate([np.tile([1.0, 0.0, 0.0], (12, 1)), np.tile([0.0, 9.0, 0.0], (20, 1))])
        frame, lc = _labeled_frame(pts, [(0, 0)] * 32)
        denoise_frame(frame, lc, KMeansConfig(k=2, seed=0))
        assert lc.kept.tolist() == [False] * 12 + [True] * 20

    def test_other_detections_untouched(self):
        pts = np.concatenate(
            [np.random.default_rng(1).normal(size=(20, 3)),
             np.random.default_rng(2).normal(size=(20, 3)) + 50]
        )
        refs = [(0, 0)] * 20 + [(0, 1)] * 20
        frame, lc = _labeled_frame(pts, refs)
        cfg = KMeansConfig(k=2, seed=0)
        both, _ = denoise_frame(frame, copy.deepcopy(lc), cfg)
        # each single-detection run leaves the other detection's points as they were
        oracle = _single_detection_runs(frame, lc, cfg, [(0, 0), (0, 1)])
        assert np.array_equal(both.kept, oracle.kept)
        assert np.array_equal(both.cluster_id, oracle.cluster_id)

    def test_mirror_image_tie_keeps_the_lower_cluster_id(self):
        # two clusters of equal size whose centroids are exact mirror images,
        # so equally far from the origin: only the last link of the tie
        # chain, the cluster id, decides.  Every sum k-means adds in point
        # order is the exact negation of the other cluster's, whether the
        # mirror follows the blob or interleaves with it in pairs (p, -p),
        # so the chain ties bit for bit
        blob = np.random.default_rng(5).normal(scale=0.1, size=(20, 3)) + [0.0, 5.0, 2.0]
        layouts = [
            (np.concatenate([blob, -blob]), slice(0, 20), slice(20, 40)),
            (np.stack([blob, -blob], axis=1).reshape(-1, 3), slice(0, 40, 2), slice(1, 40, 2)),
        ]
        for pts, blob_rows, mirror_rows in layouts:
            first_ids = set()
            for seed in range(5):
                frame, lc = _labeled_frame(pts, [(0, 0)] * 40)
                cfg = KMeansConfig(k=2, seed=seed)
                clustering = kmeans(frame.xyz, replace(cfg, seed=derive_seed(seed, 0, 0, 0)))
                sizes = np.bincount(clustering.assignments, minlength=2)
                spread = clustering.cluster_inertia / sizes
                origin_d2 = (clustering.centroids ** 2).sum(axis=1)
                for tied in (sizes, spread, origin_d2):
                    assert tied[0].tobytes() == tied[1].tobytes()
                denoise_frame(frame, lc, cfg)
                assert lc.cluster_id.tolist() == clustering.assignments.tolist()
                first = int(lc.cluster_id[0])
                assert lc.cluster_id[blob_rows].tolist() == [first] * 20
                assert lc.cluster_id[mirror_rows].tolist() == [1 - first] * 20
                assert lc.kept.tolist() == (lc.cluster_id == 0).tolist()
                first_ids.add(first)
            # each blob takes the lower id on some seed, so keeping one side fails
            assert first_ids == {0, 1}

    def test_kept_never_exceeds_labeled(self):
        frame, lc = self._blob_and_ray()
        labeled_before = lc.n_labeled
        denoise_frame(frame, lc, KMeansConfig(k=3, seed=3))
        assert int((lc.labeled_mask & lc.kept).sum()) <= labeled_before


@st.composite
def _denoise_inputs(draw):
    """A frame, its labels and a config: 1-3 cameras with 1-4 detections each,
    every row labeled by one of them or left unlabeled, a class drawn per
    point, and points drawn with repeats, so that clusters tie in spread and
    size and fall on both sides of the size floor."""
    cams = draw(st.lists(st.integers(0, 4), min_size=1, max_size=3, unique=True))
    dets = [(cam, det) for cam in cams for det in range(draw(st.integers(1, 4)))]
    n = draw(st.integers(1, 260))
    distinct = draw(st.lists(st.tuples(_coord, _coord, _coord), min_size=1, max_size=12))
    rows = draw(st.lists(st.integers(0, len(distinct) - 1), min_size=n, max_size=n))
    refs = draw(st.lists(st.sampled_from([None] + dets), min_size=n, max_size=n))
    frame = PointCloudFrame(
        frame_id=draw(st.integers(0, 2**31 - 1)), timestamp=0.0,
        xyz=np.array([distinct[i] for i in rows], dtype=np.float32),
    )
    lc = LabeledCloud.empty(frame.frame_id, n)
    for row, ref in enumerate(refs):
        if ref is not None:
            lc.camera_id[row], lc.det_index[row] = ref
            lc.class_id[row] = draw(st.integers(0, 79))
            lc.kept[row] = True
    cfg = KMeansConfig(
        k=draw(st.integers(1, 5)),
        max_iter=draw(st.integers(1, 8)),
        seed=draw(st.integers(0, 2**64 - 1)),
        tol=draw(st.sampled_from([0.0, 1e-6, 0.3])),
    )
    return frame, lc, cfg


class TestDenoiseMatchesReference:
    @settings(max_examples=200, deadline=None)
    @given(_denoise_inputs())
    def test_every_denoised_column_and_the_report(self, case):
        frame, lc, cfg = case
        cluster, kept, report = reference_denoise(frame, lc, cfg)
        before = copy.deepcopy(lc)
        got, got_report = denoise_frame(frame, lc, cfg)
        assert got.cluster_id.tolist() == cluster
        assert got.kept.tolist() == kept
        assert got_report == report
        for name in ("class_id", "camera_id", "det_index"):
            assert np.array_equal(getattr(got, name), getattr(before, name))


class TestDenoiseFrame:
    def test_zero_labeled_frame_reports_empty(self):
        frame, lc = _labeled_frame(np.ones((10, 3)), [None] * 10)
        lc, report = denoise_frame(frame, lc, KMeansConfig())
        assert report.is_empty
        assert report.drop_rate_percent == 0.0
        assert report.labeled_before == 0
        assert report.kept_after == 0

    def test_single_detection_with_30_percent_noise(self):
        rng = np.random.default_rng(5)
        cam = simple_camera()
        blob = np.array([0.0, 0.0, 8.0]) + rng.normal(scale=0.25, size=(700, 3))
        u = 100 * blob[:, 0] / blob[:, 2] + 50
        v = 100 * blob[:, 1] / blob[:, 2] + 50
        box = (u.min() - 2, v.min() - 2, u.max() + 2, v.max() + 2)
        n_noise = 300
        nu = rng.uniform(box[0] + 0.5, box[2] - 0.5, n_noise)
        nv = rng.uniform(box[1] + 0.5, box[3] - 0.5, n_noise)
        nd = np.cbrt(rng.uniform(2.5 ** 3, 55.0 ** 3, n_noise))
        noise = np.stack([(nu - 50) / 100 * nd, (nv - 50) / 100 * nd, nd], axis=1)
        frame = PointCloudFrame(
            frame_id=0, timestamp=0.0,
            xyz=np.concatenate([blob, noise]).astype(np.float32),
        )
        lc = label_frame(frame, [cam], {0: [detection(0, box)]})
        assert lc.n_labeled == 1000
        lc, report = denoise_frame(frame, lc, KMeansConfig(k=3, seed=0))
        assert 20.0 <= report.drop_rate_percent <= 40.0

    def test_detection_order_independent(self):
        rng = np.random.default_rng(30)
        pts = np.concatenate(
            [rng.normal(size=(30, 3)), rng.normal(size=(30, 3)) + 20]
        )
        refs = [(0, 0)] * 30 + [(1, 2)] * 30
        frame, lc = _labeled_frame(pts, refs)
        cfg = KMeansConfig(k=2, seed=9)

        forward, _ = denoise_frame(frame, copy.deepcopy(lc), cfg)
        # one run per detection, in reverse order, on the same derived streams
        reverse = _single_detection_runs(frame, lc, cfg, [(1, 2), (0, 0)])
        assert np.array_equal(forward.kept, reverse.kept)
        assert np.array_equal(forward.cluster_id, reverse.cluster_id)

    def test_more_than_255_detections_match_single_detection_runs(self):
        # the grouping key no longer fits in one byte
        rng = np.random.default_rng(32)
        n_det = 300
        refs = [(cam, det) for cam in (0, 1) for det in range(n_det) for _ in range(4)]
        pts = rng.normal(size=(len(refs), 3)) + np.repeat(np.arange(2 * n_det), 4)[:, None]
        frame, lc = _labeled_frame(pts, refs)
        cfg = KMeansConfig(k=2, seed=4)

        grouped, _ = denoise_frame(frame, copy.deepcopy(lc), cfg)
        oracle = _single_detection_runs(frame, lc, cfg, sorted(set(refs)))
        assert np.array_equal(grouped.kept, oracle.kept)
        assert np.array_equal(grouped.cluster_id, oracle.cluster_id)
        assert 0 < grouped.kept.sum() < len(refs)

    def test_detection_of_mixed_classes_counted_per_point(self):
        frame, lc = _labeled_frame(np.ones((6, 3)), [(0, 0)] * 3 + [(1, 4)] * 3)
        lc.class_id[4] = 7
        lc, report = denoise_frame(frame, lc, KMeansConfig())
        assert report.class_before == report.class_after == {2: 5, 7: 1}

    def test_labeled_points_without_a_detection_rejected(self):
        # camera 1 detection -1 would share camera 0 detection 0's grouping key
        frame, lc = _labeled_frame(np.ones((20, 3)), [(0, 0)] * 10 + [None] * 10)
        lc.class_id[10:] = 2
        with pytest.raises(ValueError, match="frame 0: labeled points with a negative camera id or detection index"):
            denoise_frame(frame, lc, KMeansConfig())
        lc.camera_id[10:] = 1
        with pytest.raises(ValueError, match="frame 0: labeled points with a negative"):
            denoise_frame(frame, lc, KMeansConfig())

    def test_labeled_non_finite_point_rejected(self):
        # the pipeline leaves such rows unlabeled; a hand-built label must not
        # turn them into NaN centroids, and the error names the frame row,
        # not the point's place among its detection's points
        pts = np.ones((10, 3))
        pts[6, 0] = np.nan
        frame, lc = _labeled_frame(pts, [None] * 4 + [(0, 0)] * 4 + [(1, 0)] * 2)
        frame, lc = replace(frame, frame_id=9), replace(lc, frame_id=9)
        message = "frame 9: camera 0 detection 0: row 6 is not finite"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
            denoise_frame(frame, lc, KMeansConfig())

    @pytest.mark.parametrize("extra", [-1, 1])
    def test_labels_of_another_length_rejected(self, extra):
        frame = PointCloudFrame(frame_id=7, timestamp=0.0, xyz=np.ones((6, 3), dtype=np.float32))
        lc = LabeledCloud.empty(7, 6 + extra)
        lc.class_id[:5] = lc.camera_id[:5] = lc.det_index[:5] = 0
        lc.kept[:5] = True
        message = f"frame 7: {6 + extra} labels for 6 points"
        with pytest.raises(ValueError, match=message):
            frame_report(frame, lc)
        with pytest.raises(ValueError, match=message):
            denoise_frame(frame, lc, KMeansConfig())
        assert lc.cluster_id.tolist() == [-1] * (6 + extra)  # rejected before any change

    def test_criterion7_frame_keeps_each_blob(self):
        # each box holds a 2,000-point blob and about 7,500 points of the
        # background shell behind it: the blob is the object to keep, although
        # the shell outnumbers it
        rig, frame, dets_by_cam = criterion7_frame()
        lc, _ = denoise_frame(frame, label_frame(frame, rig, dets_by_cam), KMeansConfig(k=3, seed=7))
        kept = lc.kept[:20_000].reshape(10, 2000).mean(axis=1)  # the blobs come first
        assert kept.min() >= 0.95, kept.tolist()

    def test_report_counts_consistent(self):
        rng = np.random.default_rng(31)
        pts = np.concatenate([rng.normal(size=(50, 3)), rng.normal(size=(10, 3)) + 30])
        refs = [(0, 0)] * 50 + [None] * 10
        frame, lc = _labeled_frame(pts, refs)
        lc, report = denoise_frame(frame, lc, KMeansConfig(k=3, seed=0))
        assert report.total_points == 60
        assert report.labeled_before == 50
        assert report.kept_after + report.dropped == report.labeled_before
        assert 0.0 <= report.drop_rate_percent <= 100.0
        assert sum(report.class_before.values()) == 50
        assert sum(report.class_after.values()) == report.kept_after


class TestAggregateReports:
    @staticmethod
    def _report(frame_id, before, dropped, total=10000):
        return FrameReport(
            frame_id=frame_id,
            total_points=total,
            labeled_before=before,
            kept_after=before - dropped,
            class_before={2: before} if before else {},
            class_after={2: before - dropped} if before else {},
        )

    def test_simple_mean_and_extremes(self):
        reports = [self._report(0, 100, 10), self._report(1, 100, 20), self._report(2, 100, 30)]
        s = aggregate_reports(reports)
        assert s.mean_drop_rate == pytest.approx(20.0)
        assert (s.max_frame, s.max_rate) == (2, 30.0)
        assert (s.min_frame, s.min_rate) == (0, 10.0)

    def test_single_frame_min_equals_max(self):
        s = aggregate_reports([self._report(5, 200, 30)])
        assert s.min_frame == s.max_frame == 5
        assert s.min_rate == s.max_rate == 15.0

    def test_sequence_with_known_extreme_rates(self):
        reports = [
            self._report(10, 10000, 2500),
            self._report(26, 10000, 553),    # 5.53%
            self._report(30, 10000, 3000),
            self._report(46, 10000, 4943),   # 49.43%
            self._report(50, 0, 0),
        ]
        s = aggregate_reports(reports)
        assert (s.max_frame, s.max_rate) == (46, pytest.approx(49.43))
        assert (s.min_frame, s.min_rate) == (26, pytest.approx(5.53))
        assert s.empty_frames == (50,)

    def test_empty_frames_excluded_from_mean(self):
        reports = [self._report(0, 100, 50), self._report(1, 0, 0)]
        s = aggregate_reports(reports)
        assert s.mean_drop_rate == pytest.approx(50.0)
        assert s.empty_frames == (1,)

    def test_no_reports(self):
        s = aggregate_reports([])
        assert s.mean_drop_rate == 0.0
        assert s.max_frame is None

    def test_render_mentions_extremes(self):
        s = aggregate_reports([self._report(0, 100, 10), self._report(3, 100, 90)])
        text = s.render()
        assert "max drop rate: 90.00% at frame 3" in text
        assert "min drop rate: 10.00% at frame 0" in text


def _csv_module_report(path, reports):
    """The report as ``csv.writer`` writes it: the reference for its bytes."""
    class_ids = sorted({c for r in reports for c in (*r.class_before, *r.class_after)})
    header = ["frame_id", "total_points", "labeled_before", "kept_after", "dropped", "drop_rate_percent"]
    for cid in class_ids:
        header += [f"class_{cid}_before", f"class_{cid}_after"]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for r in reports:
            row = [
                r.frame_id, r.total_points, r.labeled_before, r.kept_after, r.dropped,
                f"{r.drop_rate_percent:.6f}",
            ]
            for cid in class_ids:
                row += [r.class_before.get(cid, 0), r.class_after.get(cid, 0)]
            writer.writerow(row)


@st.composite
def _frame_reports(draw):
    reports = []
    for frame_id in draw(st.lists(st.integers(0, 10**6), max_size=5)):
        before = draw(st.dictionaries(st.integers(0, 79), st.integers(0, 10**5), max_size=4))
        after = {cid: draw(st.integers(0, n)) for cid, n in before.items()}
        labeled, kept = sum(before.values()), sum(after.values())
        total = labeled + draw(st.integers(0, 10**5))
        reports.append(FrameReport(frame_id, total, labeled, kept, before, after))
    return reports


class TestReportCsv:
    @settings(max_examples=100, deadline=None)
    @given(reports=_frame_reports())
    def test_writes_the_bytes_csv_writer_writes(self, tmp_path_factory, reports):
        tmp = tmp_path_factory.mktemp("report")
        write_report_csv(tmp / "report.csv", reports)
        _csv_module_report(tmp / "reference.csv", reports)
        assert (tmp / "report.csv").read_bytes() == (tmp / "reference.csv").read_bytes()

    @pytest.mark.parametrize("text, message", [
        ("", "empty report CSV"),
        (",".join(("frame_id", "total_points", "labeled_before", "kept_after", "dropped",
                   "drop_rate_percent", "class_2_during")) + "\n",
         "unexpected CSV column 'class_2_during'"),
        (",".join(("frame_id", "total_points", "labeled_before", "kept_after", "dropped",
                   "drop_rate_percent", "class_٢_before", "class_٢_after")) + "\n",  # Arabic-Indic 2
         "unexpected CSV column 'class_٢_before'"),
    ])
    def test_header_checks_name_the_file(self, tmp_path, text, message):
        path = tmp_path / "report.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match=re.escape(f"{path}: {message}")):
            read_report_csv(path)

    def test_roundtrip(self, tmp_path):
        reports = [
            FrameReport(0, 1000, 600, 420, {2: 400, 0: 200}, {2: 300, 0: 120}),
            FrameReport(1, 900, 0, 0, {}, {}),
        ]
        path = tmp_path / "report.csv"
        write_report_csv(path, reports)
        back = read_report_csv(path)
        assert back == reports

    def test_header_row_present(self, tmp_path):
        path = tmp_path / "report.csv"
        write_report_csv(path, [])
        header = path.read_text().splitlines()[0]
        assert header.startswith("frame_id,total_points,labeled_before,kept_after,dropped,drop_rate_percent")

    def test_malformed_header_rejected(self, tmp_path):
        path = tmp_path / "report.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError, match="header"):
            read_report_csv(path)


    @pytest.mark.parametrize("bad", [
        "1,100,50",
        "1,100,50,40,10,20.000000,50,40,7",
        "x,100,50,40,10,20.000000,50,40",
        "1,100,50,40,10,20.000000,5.5,40",
        "1,100,50,40,10,abc,50,40",
        '1,"100",50,40,10,20.000000,50,40',  # pclabel never quotes a cell
        "# the report format has no comments",
    ])
    def test_bad_row_names_file_and_line(self, tmp_path, bad):
        path = tmp_path / "report.csv"
        path.write_text(
            "frame_id,total_points,labeled_before,kept_after,dropped,drop_rate_percent,"
            f"class_2_before,class_2_after\n0,100,50,40,10,20.000000,50,40\n\n{bad}\n"
        )
        with pytest.raises(ValueError, match=re.escape(f"{path}:4: ")):
            read_report_csv(path)

    _HEADER = (
        "frame_id,total_points,labeled_before,kept_after,dropped,drop_rate_percent,"
        "class_2_before,class_2_after\n"
    )

    @pytest.mark.parametrize("bad, message", [
        ("1,100,50,40,11,20.000000,50,40", "dropped is 11, labeled_before - kept_after is 10"),
        ("1,100,50,40,10,20.000001,50,40", "drop_rate_percent is 20.000001, the counts give 20.000000"),
        ("1,100,50,40,10,nan,50,40", "drop_rate_percent is nan"),
        ("1,100,-5,-10,5,-100.000000,-5,-10", "counts break 0 <= kept_after"),
        ("1,100,40,50,-10,-25.000000,40,50", "counts break 0 <= kept_after"),
        ("1,30,50,40,10,20.000000,50,40", "counts break 0 <= kept_after"),
        ("1,100,50,40,10,20.000000,49,40", "class counts {2: 49} must be >= 0 and sum to 50"),
        ("1,100,50,40,10,20.000000,50,41", "class counts {2: 41} must be >= 0 and sum to 40"),
        ("0,100,50,40,10,20.000000,50,40", "repeated frame id 0"),
    ])
    def test_contradicting_row_names_file_and_line(self, tmp_path, bad, message):
        path = tmp_path / "report.csv"
        path.write_text(f"{self._HEADER}0,100,50,40,10,20.000000,50,40\n{bad}\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}:3: {message}")):
            read_report_csv(path)

    def test_cells_must_be_ascii_without_underscores(self, tmp_path):
        # int() and float() read this row as 100 points, 50 labeled and 40 kept
        path = tmp_path / "report.csv"
        path.write_text(f"{self._HEADER}0,1_00,5_0,4_0,1_0,2_0.0,5_0,4_0\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}:2: ")):
            read_report_csv(path)

    def test_negative_class_count_rejected(self, tmp_path):
        path = tmp_path / "report.csv"
        path.write_text(
            "frame_id,total_points,labeled_before,kept_after,dropped,drop_rate_percent,"
            "class_0_before,class_0_after,class_2_before,class_2_after\n"
            "0,100,50,40,10,20.000000,-10,0,60,40\n"
        )
        with pytest.raises(ValueError, match=re.escape(f"{path}:2: class counts")):
            read_report_csv(path)

    def test_rate_compared_at_six_decimals(self, tmp_path):
        path = tmp_path / "report.csv"
        path.write_text(f"{self._HEADER}0,90,30,20,10,33.3333334,30,20\n1,90,3,2,1,33.333333,3,2\n")
        assert [r.drop_rate_percent for r in read_report_csv(path)] == [100 / 3, 100 / 3]

    @pytest.mark.parametrize("repeat", ["class_2_before", "class_02_before"])
    def test_repeated_column_names_file(self, tmp_path, repeat):
        path = tmp_path / "report.csv"
        path.write_text(f"{self._HEADER.strip()},{repeat}\n0,100,50,40,10,20.000000,50,40,3\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}: repeated CSV column '{repeat}'")):
            read_report_csv(path)


class TestFrameReportHelper:
    def test_drop_count_and_rate_derive_from_counts(self):
        report = FrameReport(3, 100, 50, 40, {2: 50}, {2: 40})
        assert (report.dropped, report.drop_rate_percent) == (10, 20.0)
        assert FrameReport(4, 100, 0, 0, {}, {}).drop_rate_percent == 0.0

    def test_frame_report_before_denoise_drops_nothing(self):
        frame, lc = _labeled_frame(np.ones((4, 3)), [(0, 0), (0, 0), None, None])
        report = frame_report(frame, lc)
        assert report.labeled_before == 2
        assert report.kept_after == 2
        assert report.dropped == 0
        assert report.drop_rate_percent == 0.0


class TestSplitMix64:
    def test_bound_must_be_positive(self):
        with pytest.raises(ValueError, match="positive"):
            SplitMix64(0).below(0)

    def test_cannot_sample_more_than_the_population(self):
        with pytest.raises(ValueError, match="cannot sample 3 distinct values from 2"):
            SplitMix64(0).sample_distinct(2, 3)
