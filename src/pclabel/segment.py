"""Seeded k-means denoising of labeled points and drop-rate reporting.

``denoise_frame`` is the one way points are grouped by detection: one
stable sort of the frame's labeled points.  Each detection's points are
clustered independently (Lloyd's algorithm on xyz only) and exactly one
cluster is kept: the most compact of those big enough to be the object.
Everything else in that detection is dropped as frustum noise.  All
randomness flows from an explicit 64-bit seed, so runs are reproducible
and schedule-independent.

``frame_report`` is the one way a frame's report is counted: from its label
columns, whether or not they were denoised.
"""

from __future__ import annotations

import math
import re
from array import array
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .cloud_io import PointCloudFrame, ascii_number, check_count, check_number, read_text, records
from .fusion import LabeledCloud
from .rng import SplitMix64, derive_seed

# A cluster may be kept when it holds at least this many of its detection's
# points and at least this percentage of them, or is the largest cluster:
# a one-point cluster is perfectly compact, so compactness alone would keep it.
KEEP_MIN_POINTS = 10
KEEP_MIN_PERCENT = 5


@dataclass(frozen=True)
class KMeansConfig:
    """k-means knobs: cluster count, iteration cap, seed, stop threshold (meters)."""

    k: int = 3
    max_iter: int = 100
    seed: int = 0
    tol: float = 1e-6

    def __post_init__(self) -> None:
        for name in ("k", "max_iter", "seed"):
            object.__setattr__(self, name, check_count(name, getattr(self, name)))
        object.__setattr__(self, "tol", check_number("tol", self.tol))
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be >= 1, got {self.max_iter}")
        if not self.tol >= 0:  # NaN too
            raise ValueError(f"tol must be >= 0, got {self.tol}")


@dataclass(frozen=True)
class Clustering:
    """Result of one k-means run.

    ``inertia_history`` holds the assignment-step inertia of every
    iteration followed by the final assignment's inertia; Lloyd's
    algorithm makes the sequence non-increasing.  ``cluster_inertia``
    holds, per cluster, the sum of its points' squared distances to its
    centroid under the final assignment.
    """

    assignments: np.ndarray
    centroids: np.ndarray
    inertia_history: tuple[float, ...]
    cluster_inertia: np.ndarray

    @property
    def k(self) -> int:
        return len(self.centroids)

    @property
    def inertia(self) -> float:
        return self.inertia_history[-1]

    @property
    def iterations_run(self) -> int:
        return len(self.inertia_history) - 1


def _assign(
    cols: np.ndarray, centroids: np.ndarray, assign: np.ndarray, best: np.ndarray,
    d2: np.ndarray, sq: np.ndarray, nearest: np.ndarray, closer: np.ndarray,
) -> float:
    """Nearest centroid of every point into ``assign`` (ties to the lowest id),
    the squared distance to it into ``best``, and the inertia returned.

    ``cols`` is (3, n).  The squared terms are added as (dx*dx + dz*dz) + dy*dy,
    the order in which numpy's AVX2/AVX-512 einsum reduced them in earlier
    releases, so assignments and inertia stay bit-identical with those.

    Ids rise through the loop, so a centroid strictly closer than every
    earlier one has a larger id than the running one: the running id is the
    maximum of itself and c times the "strictly closer" flag, with no masked
    store.  ``nearest`` and ``closer`` are scratch buffers of the narrowest
    unsigned type that holds every id; ``nearest`` is cast into ``assign``
    once per pass.  One-byte ids take the flags through a bool view, which
    numpy writes without casting through a buffer; wider ones, past k = 256,
    take numpy's cast.
    """
    if len(centroids) == 1:
        nearest.fill(0)
    near_flags, closer_flags = (
        ids.view(np.bool_) if ids.itemsize == 1 else ids for ids in (nearest, closer)
    )
    for c, centroid in enumerate(centroids.tolist()):
        out = best if c == 0 else d2
        # one axis at a time, less a Python float: below about 8k points the
        # broadcast np.subtract(cols, centroid[:, None], out=sq) allocates a
        # hidden buffer the size of sq
        for axis in range(3):
            np.subtract(cols[axis], centroid[axis], out=sq[axis])
        np.multiply(sq, sq, out=sq)
        np.add(sq[0], sq[2], out=out)
        out += sq[1]
        if c == 0:
            continue
        if c == 1:
            np.less(d2, best, out=near_flags)  # the flag is the running id
        else:
            np.less(d2, best, out=closer_flags)
            np.multiply(closer, c, out=closer)
            np.maximum(nearest, closer, out=nearest)
        np.minimum(best, d2, out=best)
    np.copyto(assign, nearest)
    return float(best.sum())


def kmeans(points: np.ndarray | Sequence[Sequence[float]], cfg: KMeansConfig) -> Clustering:
    """Lloyd's algorithm with seeded initialization.

    Initialization picks k distinct input points uniformly at random from
    the splitmix64 stream seeded by ``cfg.seed``.  Assignment uses squared
    Euclidean distance with ties to the lowest cluster id; an emptied
    cluster is re-seeded to the point farthest from its former centroid.
    Each step moves the centroids, then re-assigns unless none moved, so
    the reported assignments are nearest-centroid for the reported
    centroids.  Iteration stops when the max-norm centroid movement drops
    below ``cfg.tol`` (or reaches an exact fixed point, or ``cfg.max_iter``).

    If fewer points than k are given, k is lowered to the point count for
    the call (visible as ``result.k``).  A point that is not finite raises
    ValueError naming the first such row.
    """
    pts = np.asarray(points)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError(f"points must have shape (n, 3), got {pts.shape}")
    n = len(pts)
    if n == 0:
        raise ValueError("kmeans requires at least one point")
    if not np.isfinite(pts).all():
        row = int(np.flatnonzero(~np.isfinite(pts).all(axis=1))[0])
        raise ValueError(f"point {row} is not finite: {pts[row]}")
    cols = np.ascontiguousarray(pts.T, dtype=np.float64)  # one contiguous row per axis
    k = min(cfg.k, n)
    rng = SplitMix64(cfg.seed)
    init = rng.sample_distinct(n, k)
    centroids = np.ascontiguousarray(cols[:, init].T)

    assign = np.empty(n, dtype=np.intp)
    best, d2 = np.empty(n), np.empty(n)
    sq = np.empty_like(cols)
    id_type = np.min_scalar_type(k - 1)
    nearest, closer = np.empty(n, dtype=id_type), np.empty(n, dtype=id_type)
    history = [_assign(cols, centroids, assign, best, d2, sq, nearest, closer)]
    for _ in range(cfg.max_iter):
        # exact integer counts; each sum is a bincount, so it adds in point order
        counts = np.array([np.count_nonzero(nearest == c) for c in range(k)])
        sums = np.array([np.bincount(assign, weights=col, minlength=k) for col in cols])
        # an empty cluster's 0 / 1 is re-seeded below
        new_centroids = np.ascontiguousarray((sums / np.maximum(counts, 1)).T)
        for c in np.flatnonzero(counts == 0):
            far = int(np.argmax(((cols - centroids[c][:, None]) ** 2).sum(axis=0)))
            new_centroids[c] = cols[:, far]
        movement = float(np.max(np.abs(new_centroids - centroids)))
        centroids = new_centroids
        if movement == 0.0:  # the assignment held is already nearest for these centroids
            history.append(history[-1])
            break
        history.append(_assign(cols, centroids, assign, best, d2, sq, nearest, closer))
        if movement < cfg.tol:
            break

    # best holds each point's squared distance to its centroid, so this adds in point order
    cluster_inertia = np.bincount(assign, weights=best, minlength=k)
    del best, d2, sq, nearest, closer  # before the int32 copy of the assignments
    assign = assign.astype(np.int32)
    for array in (centroids, assign, cluster_inertia):
        array.flags.writeable = False
    return Clustering(
        assignments=assign, centroids=centroids, inertia_history=tuple(history),
        cluster_inertia=cluster_inertia,
    )


@dataclass(frozen=True, slots=True, init=False, repr=False)
class FrameReport:
    """Per-frame labeling and denoising counts; the drop count and rate derive from them.

    A report is held packed, as int64 values in one bytes object: the
    frame id, ``total_points``, ``labeled_before`` and ``kept_after``, then
    one (class id, before, after) triple per class in id order, with -1
    for a count that its dict lacks.  Each field is built when read, so a
    run's reports hold no dict and no int per frame.
    """

    packed: bytes

    def __init__(
        self, frame_id: int, total_points: int, labeled_before: int, kept_after: int,
        class_before: Mapping[int, int], class_after: Mapping[int, int],
    ) -> None:
        if not 0 <= kept_after <= labeled_before <= total_points:
            raise ValueError(
                f"counts break 0 <= kept_after ({kept_after}) <= labeled_before "
                f"({labeled_before}) <= total_points ({total_points})"
            )
        for counts, total in ((class_before, labeled_before), (class_after, kept_after)):
            if min(counts.values(), default=0) < 0 or sum(counts.values()) != total:
                raise ValueError(f"class counts {counts} must be >= 0 and sum to {total}")
        values = [frame_id, total_points, labeled_before, kept_after]
        for c in sorted({*class_before, *class_after}):
            values += [c, class_before.get(c, -1), class_after.get(c, -1)]
        try:
            packed = array("q", values).tobytes()
        except OverflowError:
            raise ValueError(f"frame id, class ids and counts must fit in 64 bits, got {values}") from None
        object.__setattr__(self, "packed", packed)

    def _values(self) -> list[int]:
        return memoryview(self.packed).cast("q").tolist()

    def _classes(self, column: int) -> dict[int, int]:
        values = self._values()
        return {c: n for c, n in zip(values[4::3], values[4 + column::3]) if n >= 0}

    frame_id = property(lambda self: self._values()[0])
    total_points = property(lambda self: self._values()[1])
    labeled_before = property(lambda self: self._values()[2])
    kept_after = property(lambda self: self._values()[3])
    class_before = property(lambda self: self._classes(1), doc="Labeled points by class id.")
    class_after = property(lambda self: self._classes(2), doc="Kept points by class id.")

    def __repr__(self) -> str:
        return (
            f"FrameReport(frame_id={self.frame_id}, total_points={self.total_points}, "
            f"labeled_before={self.labeled_before}, kept_after={self.kept_after}, "
            f"class_before={self.class_before}, class_after={self.class_after})"
        )

    @property
    def dropped(self) -> int:
        return self.labeled_before - self.kept_after

    @property
    def drop_rate_percent(self) -> float:
        return 100.0 * self.dropped / self.labeled_before if self.labeled_before else 0.0

    @property
    def is_empty(self) -> bool:
        return self.labeled_before == 0


def _class_counts(class_ids: np.ndarray) -> dict[int, int]:
    counts = np.bincount(class_ids)
    return {int(i): int(counts[i]) for i in np.flatnonzero(counts)}


def _check_length(frame: PointCloudFrame, lc: LabeledCloud) -> None:
    if len(lc) != len(frame):
        raise ValueError(f"frame {frame.frame_id}: {len(lc)} labels for {len(frame)} points")


def frame_report(frame: PointCloudFrame, lc: LabeledCloud) -> FrameReport:
    """The frame's report, counted from its label columns: every labeled
    point by class, and the kept ones among them by class.  ``total_points``
    counts every row, a non-finite one included.  Labels whose length is not
    the frame's raise ValueError naming the frame."""
    _check_length(frame, lc)
    labeled = np.flatnonzero(lc.labeled_mask)
    before = lc.class_id[labeled]
    after = before[lc.kept[labeled]]
    return FrameReport(
        frame_id=frame.frame_id,
        total_points=len(frame),
        labeled_before=len(before),
        kept_after=len(after),
        class_before=_class_counts(before),
        class_after=_class_counts(after),
    )


def denoise_frame(
    frame: PointCloudFrame, lc: LabeledCloud, cfg: KMeansConfig
) -> tuple[LabeledCloud, FrameReport]:
    """Cluster each detection's labeled points and keep exactly one cluster.

    The candidates are the clusters that hold at least ``KEEP_MIN_POINTS``
    and ``KEEP_MIN_PERCENT`` % of the detection's points, or the largest
    clusters where none does.  The kept one is the candidate whose points
    lie closest to its centroid: the smallest mean squared distance, then
    the larger size, then the centroid nearest the sensor origin, then the
    lowest cluster id.  A box holds its object and whatever lies behind it
    in the frustum, which may outnumber the object but spreads over a long
    depth range.  Kept members get kept=True,
    dropped members kept=False; both get their cluster id recorded, and
    unlabeled points are untouched.  Detections are processed in
    (camera_id, detection index) order; each k-means call runs on its own
    stream derived from (seed, frame_id, camera_id, detection index), so a
    detection's result depends on its own points only, and any parallel
    schedule over detections or frames reproduces the sequential result.
    Mutates ``lc`` and returns it with the frame's report, which is
    ``frame_report`` of the denoised labels.  The labels must hold one row
    per frame row, and a labeled point must carry a camera id and a
    detection index of at least 0; raises ValueError naming the frame
    otherwise, before any label changes.  A labeled point that is not
    finite raises ValueError naming the frame, its detection and its row.
    """
    _check_length(frame, lc)
    labeled = np.flatnonzero(lc.labeled_mask)
    if labeled.size:
        # group once: a stable sort on one (camera, detection) key keeps each
        # detection's members in ascending point order; every temporary is
        # freed before the first k-means call, and int32 indices halve the
        # one list that lives through them all
        labeled = labeled.astype(np.int32 if len(lc) <= 1 << 31 else np.intp)
        key = lc.camera_id[labeled].astype(np.int64)
        det = lc.det_index[labeled]
        if min(int(key.min()), int(det.min())) < 0:
            # such a point would take another detection's key, or a phantom one
            raise ValueError(
                f"frame {frame.frame_id}: labeled points with a negative camera id or detection index"
            )
        key *= int(det.max()) + 1
        key += det
        del det
        # the narrowest unsigned key lets numpy's stable sort use radix sort
        key = key.astype(np.min_scalar_type(int(key.max())))
        order = np.argsort(key, kind="stable")
        members = labeled[order]
        del labeled
        key = key[order]
        del order
        bounds = np.flatnonzero(np.diff(key)) + 1
        del key
        for idx in np.split(members, bounds):
            cam_id, det_idx = int(lc.camera_id[idx[0]]), int(lc.det_index[idx[0]])
            det_cfg = replace(cfg, seed=derive_seed(cfg.seed, frame.frame_id, cam_id, det_idx))
            try:
                clustering = kmeans(np.take(frame.xyz, idx, axis=0), det_cfg)
            except ValueError as e:  # a non-finite point: find its frame row
                row = int(idx[~np.isfinite(frame.xyz[idx]).all(axis=1)][0])
                raise ValueError(
                    f"frame {frame.frame_id}: camera {cam_id} detection {det_idx}: "
                    f"row {row} is not finite: {frame.xyz[row]}"
                ) from e
            sizes = np.bincount(clustering.assignments, minlength=clustering.k)
            floor = max(KEEP_MIN_POINTS, math.ceil(len(idx) * KEEP_MIN_PERCENT / 100))
            floor = min(floor, sizes.max())  # the largest cluster is always a candidate
            origin_d2 = (clustering.centroids ** 2).sum(axis=1)
            keep = min(
                np.flatnonzero(sizes >= floor).tolist(),
                key=lambda c: (
                    float(clustering.cluster_inertia[c] / sizes[c]), -int(sizes[c]),
                    float(origin_d2[c]), c,
                ),
            )
            lc.cluster_id[idx] = clustering.assignments
            lc.kept[idx] = clustering.assignments == keep
            del clustering  # not held through the next detection's kmeans call
        del members, idx  # before frame_report's gathers
    return lc, frame_report(frame, lc)


@dataclass(frozen=True)
class SequenceSummary:
    """Drop-rate statistics over a frame sequence, and the reports they come from."""

    reports: tuple[FrameReport, ...]
    empty_frames: tuple[int, ...]
    mean_drop_rate: float
    max_frame: int | None
    max_rate: float | None
    min_frame: int | None
    min_rate: float | None

    def render(self) -> str:
        lines = ["frame  labeled     kept  dropped  drop_rate"]
        for r in self.reports:
            flag = "  (no labeled points)" if r.is_empty else ""
            lines.append(
                f"{r.frame_id:5d}  {r.labeled_before:7d}  {r.kept_after:7d}  {r.dropped:7d}  "
                f"{r.drop_rate_percent:8.2f}%{flag}"
            )
        n_active = len(self.reports) - len(self.empty_frames)
        lines.append(f"frames: {len(self.reports)} ({n_active} with labels, {len(self.empty_frames)} empty)")
        lines.append(f"mean drop rate: {self.mean_drop_rate:.2f}% over {n_active} frames")
        if self.max_frame is not None:
            lines.append(f"max drop rate: {self.max_rate:.2f}% at frame {self.max_frame}")
            lines.append(f"min drop rate: {self.min_rate:.2f}% at frame {self.min_frame}")
        return "\n".join(lines)


def aggregate_reports(reports: Iterable[FrameReport]) -> SequenceSummary:
    """Summarize per-frame reports: every rate, the extremes, and the mean.

    Frames without labeled points are flagged and excluded from the mean
    and the extremes.
    """
    reports = tuple(reports)
    active = [r for r in reports if not r.is_empty]
    # the first frame wins a tie
    hi = max(active, key=lambda r: r.drop_rate_percent, default=None)
    lo = min(active, key=lambda r: r.drop_rate_percent, default=None)
    return SequenceSummary(
        reports=reports,
        empty_frames=tuple(r.frame_id for r in reports if r.is_empty),
        mean_drop_rate=sum(r.drop_rate_percent for r in active) / len(active) if active else 0.0,
        max_frame=None if hi is None else hi.frame_id,
        max_rate=None if hi is None else hi.drop_rate_percent,
        min_frame=None if lo is None else lo.frame_id,
        min_rate=None if lo is None else lo.drop_rate_percent,
    )


_BASE_COLUMNS = (
    "frame_id", "total_points", "labeled_before", "kept_after", "dropped", "drop_rate_percent",
)
_CLASS_COLUMN = re.compile(r"^class_([0-9]+)_(before|after)$")


def write_report_csv(path: str | Path, reports: Sequence[FrameReport]) -> None:
    """Write one CSV row per frame, plus before/after columns per class seen;
    no cell needs quoting, and rows end in CR LF, as ``csv.writer``'s do."""
    class_ids = sorted({c for r in reports for c in (*r.class_before, *r.class_after)})
    header = list(_BASE_COLUMNS)
    for cid in class_ids:
        header += [f"class_{cid}_before", f"class_{cid}_after"]
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for r in reports:
            row = [
                r.frame_id, r.total_points, r.labeled_before, r.kept_after, r.dropped,
                f"{r.drop_rate_percent:.6f}",
            ]
            before, after = r.class_before, r.class_after
            for cid in class_ids:
                row += [before.get(cid, 0), after.get(cid, 0)]
            fh.write(",".join(map(str, row)) + "\r\n")


def read_report_csv(path: str | Path) -> list[FrameReport]:
    """Read a report written by ``write_report_csv``.

    A repeated header column, or bytes that are not text, raise ValueError
    naming ``path``.  A row with the wrong cell count, a cell that is not an
    ASCII number without '_' (a quoted one is not), a repeated frame id, or
    cells that contradict each other raise ValueError naming ``path:line``.
    """
    rows = records(read_text(Path(path)).splitlines(), sep=",", comments=False)
    _, header, _ = next(rows, (0, None, ""))
    if header is None:
        raise ValueError(f"{path}: empty report CSV")
    if tuple(header[: len(_BASE_COLUMNS)]) != _BASE_COLUMNS:
        raise ValueError(f"{path}: unexpected CSV header {header[:6]}")
    class_cols: dict[tuple[int, str], int] = {}  # (class id, before|after) -> column
    for col, name in enumerate(header[len(_BASE_COLUMNS):], start=len(_BASE_COLUMNS)):
        m = _CLASS_COLUMN.match(name)
        if not m:
            raise ValueError(f"{path}: unexpected CSV column '{name}'")
        if (int(m.group(1)), m.group(2)) in class_cols:
            raise ValueError(f"{path}: repeated CSV column '{name}'")
        class_cols[int(m.group(1)), m.group(2)] = col
    reports: dict[int, FrameReport] = {}
    for lineno, row, _ in rows:
        where = f"{path}:{lineno}"
        if len(row) != len(header):
            raise ValueError(f"{where}: {len(row)} cells, the header has {len(header)}")
        before: dict[int, int] = {}
        after: dict[int, int] = {}
        try:
            # every cell is a count but drop_rate_percent, column 5
            cells = [ascii_number(cell, float if col == 5 else int) for col, cell in enumerate(row)]
            for (cid, kind), col in class_cols.items():
                if cells[col]:
                    (before if kind == "before" else after)[cid] = cells[col]
            r = FrameReport(*cells[:4], class_before=before, class_after=after)
            # dropped and drop_rate_percent are derived: check them, store nothing
            if cells[4] != r.dropped:
                raise ValueError(f"dropped is {row[4]}, labeled_before - kept_after is {r.dropped}")
            rate = f"{r.drop_rate_percent:.6f}"
            if f"{cells[5]:.6f}" != rate:
                raise ValueError(f"drop_rate_percent is {row[5]}, the counts give {rate}")
        except ValueError as e:
            raise ValueError(f"{where}: {e}") from None
        if r.frame_id in reports:
            raise ValueError(f"{where}: repeated frame id {r.frame_id}")
        reports[r.frame_id] = r
    return list(reports.values())
