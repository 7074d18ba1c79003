"""Seeded k-means denoising of labeled points and drop-rate reporting.

``denoise_frame`` is the one way points are grouped by detection: one
stable sort of the frame's labeled points.  Each detection's points are
clustered independently (Lloyd's algorithm on xyz only) and exactly the
largest cluster is kept; everything else in that detection is dropped as
frustum noise.  All randomness flows from an explicit 64-bit seed, so runs
are reproducible and schedule-independent.
"""

from __future__ import annotations

import csv
import io
import re
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .cloud_io import PointCloudFrame, read_text
from .fusion import LabeledCloud
from .rng import SplitMix64, derive_seed


@dataclass(frozen=True)
class KMeansConfig:
    """k-means knobs: cluster count, iteration cap, seed, stop threshold (meters)."""

    k: int = 3
    max_iter: int = 100
    seed: int = 0
    tol: float = 1e-6

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be >= 1, got {self.max_iter}")
        if self.tol < 0:
            raise ValueError(f"tol must be >= 0, got {self.tol}")


@dataclass(frozen=True)
class Clustering:
    """Result of one k-means run.

    ``inertia_history`` holds the assignment-step inertia of every
    iteration followed by the final assignment's inertia; Lloyd's
    algorithm makes the sequence non-increasing.
    """

    assignments: np.ndarray
    centroids: np.ndarray
    inertia_history: tuple[float, ...]

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
    once per pass.
    """
    if len(centroids) == 1:
        nearest.fill(0)
    for c, centroid in enumerate(centroids):
        out = best if c == 0 else d2
        np.subtract(cols, centroid[:, None], out=sq)
        np.multiply(sq, sq, out=sq)
        np.add(sq[0], sq[2], out=out)
        out += sq[1]
        if c == 0:
            continue
        if c == 1:
            np.less(d2, best, out=nearest)  # the flag is the running id
        else:
            np.less(d2, best, out=closer)
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
    the call (visible as ``result.k``).
    """
    pts = np.asarray(points)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError(f"points must have shape (n, 3), got {pts.shape}")
    n = len(pts)
    if n == 0:
        raise ValueError("kmeans requires at least one point")
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

    assign = assign.astype(np.int32)
    centroids.flags.writeable = False
    assign.flags.writeable = False
    return Clustering(assignments=assign, centroids=centroids, inertia_history=tuple(history))


@dataclass(frozen=True)
class FrameReport:
    """Per-frame labeling and denoising counts; the drop count and rate derive from them."""

    frame_id: int
    total_points: int
    labeled_before: int
    kept_after: int
    class_before: dict[int, int]
    class_after: dict[int, int]

    def __post_init__(self) -> None:
        if not 0 <= self.kept_after <= self.labeled_before <= self.total_points:
            raise ValueError(
                f"counts break 0 <= kept_after ({self.kept_after}) <= labeled_before "
                f"({self.labeled_before}) <= total_points ({self.total_points})"
            )
        for counts, total in ((self.class_before, self.labeled_before), (self.class_after, self.kept_after)):
            if min(counts.values(), default=0) < 0 or sum(counts.values()) != total:
                raise ValueError(f"class counts {counts} must be >= 0 and sum to {total}")

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


def frame_report(frame: PointCloudFrame, lc: LabeledCloud) -> FrameReport:
    """Build a report from the current label state of a frame."""
    labeled = lc.labeled_mask
    kept = labeled & lc.kept
    return FrameReport(
        frame_id=frame.frame_id,
        total_points=len(frame),
        labeled_before=int(labeled.sum()),
        kept_after=int(kept.sum()),
        class_before=_class_counts(lc.class_id[labeled]),
        class_after=_class_counts(lc.class_id[kept]),
    )


def denoise_frame(
    frame: PointCloudFrame, lc: LabeledCloud, cfg: KMeansConfig
) -> tuple[LabeledCloud, FrameReport]:
    """Cluster each detection's labeled points and keep exactly the largest cluster.

    Ties on size pick the cluster whose centroid is nearest the sensor
    origin (then the lowest cluster id).  Kept members get kept=True,
    dropped members kept=False; both get their cluster id recorded, and
    unlabeled points are untouched.  Detections are processed in
    (camera_id, detection index) order; each k-means call runs on its own
    stream derived from (seed, frame_id, camera_id, detection index), so a
    detection's result depends on its own points only, and any parallel
    schedule over detections or frames reproduces the sequential result.
    Mutates ``lc`` and returns it with the frame's report.
    """
    labeled = np.flatnonzero(lc.labeled_mask)
    if labeled.size:
        # group once: a stable sort on one (camera, detection) key keeps each
        # detection's members in ascending point order; every temporary is
        # freed before the first k-means call
        key = lc.camera_id[labeled].astype(np.int64)
        det = lc.det_index[labeled]
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
            clustering = kmeans(np.take(frame.xyz, idx, axis=0), det_cfg)
            sizes = np.bincount(clustering.assignments, minlength=clustering.k)
            origin_d2 = (clustering.centroids ** 2).sum(axis=1)
            keep = min(range(clustering.k), key=lambda c: (-int(sizes[c]), float(origin_d2[c]), c))
            lc.cluster_id[idx] = clustering.assignments
            lc.kept[idx] = clustering.assignments == keep
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
_CLASS_COLUMN = re.compile(r"^class_(\d+)_(before|after)$")


def write_report_csv(path: str | Path, reports: Sequence[FrameReport]) -> None:
    """Write one CSV row per frame, plus before/after columns per class seen."""
    class_ids = sorted({c for r in reports for c in (*r.class_before, *r.class_after)})
    header = list(_BASE_COLUMNS)
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


def read_report_csv(path: str | Path) -> list[FrameReport]:
    """Read a report written by ``write_report_csv``.

    A repeated header column, or bytes that are not text, raise ValueError
    naming ``path``.  A row with the wrong cell count, a cell that does not
    convert, a repeated frame id, or cells that contradict each other raise
    ValueError naming ``path:line``.
    """
    reader = csv.reader(io.StringIO(read_text(Path(path), newline=""), newline=""))
    try:
        header = next(reader)
    except StopIteration:
        raise ValueError(f"{path}: empty report CSV") from None
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
    for row in reader:
        if not row:
            continue
        where = f"{path}:{reader.line_num}"
        if len(row) != len(header):
            raise ValueError(f"{where}: {len(row)} cells, the header has {len(header)}")
        before: dict[int, int] = {}
        after: dict[int, int] = {}
        try:
            for (cid, kind), col in class_cols.items():
                count = int(row[col])
                if count:
                    (before if kind == "before" else after)[cid] = count
            r = FrameReport(*map(int, row[:4]), class_before=before, class_after=after)
            # dropped and drop_rate_percent are derived: check them, store nothing
            if int(row[4]) != r.dropped:
                raise ValueError(f"dropped is {row[4]}, labeled_before - kept_after is {r.dropped}")
            rate = f"{r.drop_rate_percent:.6f}"
            if f"{float(row[5]):.6f}" != rate:
                raise ValueError(f"drop_rate_percent is {row[5]}, the counts give {rate}")
        except ValueError as e:
            raise ValueError(f"{where}: {e}") from None
        if r.frame_id in reports:
            raise ValueError(f"{where}: repeated frame id {r.frame_id}")
        reports[r.frame_id] = r
    return list(reports.values())
