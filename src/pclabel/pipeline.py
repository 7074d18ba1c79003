"""End-to-end pipeline: load rig, match frames, label, denoise, write outputs.

The pipeline is deterministic for a fixed configuration: every k-means
stream is derived from (seed, frame, camera, detection), each frame's PCD
is written by the process that labeled it, and report rows follow frame
order whatever the worker count.  One worker runs the frames in order in
the calling process; N >= 2 run them in N forked processes, whose results
the calling process reads in frame order.  Beyond the matched manifests a
run keeps for each frame of its sequence only its report, packed, and its
seconds (``FrameTable``).
"""

from __future__ import annotations

import logging
import multiprocessing
import os
import re
import time
from array import array
from collections import deque
from collections.abc import Sequence, Set
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

from . import calib, cloud_io, detect_ingest, fusion, segment

log = logging.getLogger(__name__)

_CAMERA_STREAM = re.compile(r"^cam(0|[1-9][0-9]*)$")


class PipelineError(RuntimeError):
    """A pipeline stage failed; the message names the frame or file."""


def check_path(name: str, value: str | Path) -> Path:
    """The path-setting rule: a non-empty string or path, returned as a Path."""
    if not isinstance(value, (str, Path)) or not str(value):
        raise ValueError(f"{name} must be a non-empty path, got {value!r}")
    return Path(value)


@dataclass(frozen=True)
class PipelineConfig:
    """Everything one pipeline run needs; every value is type- and range-checked here."""

    calibration: Path
    cloud_manifest: Path
    detection_manifest: Path
    out_dir: Path
    tolerance: float = cloud_io.DEFAULT_MATCH_TOLERANCE
    confidence: float = 0.0
    classes: frozenset[int] = frozenset()
    kmeans: segment.KMeansConfig = field(default_factory=segment.KMeansConfig)
    distortion: bool = False
    denoise: bool = True
    workers: int = 1

    def __post_init__(self) -> None:
        for name in ("calibration", "cloud_manifest", "detection_manifest", "out_dir"):
            object.__setattr__(self, name, check_path(name, getattr(self, name)))
        for name in ("tolerance", "confidence"):
            object.__setattr__(self, name, cloud_io.check_number(name, getattr(self, name)))
        cloud_io.check_tolerance(self.tolerance)
        if not 0.0 <= self.confidence <= 1.0:
            raise ValueError(f"confidence must be in [0, 1], got {self.confidence}")
        object.__setattr__(self, "workers", cloud_io.check_count("workers", self.workers))
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        kinds = {"distortion": bool, "denoise": bool, "classes": Set, "kmeans": segment.KMeansConfig}
        for name, kind in kinds.items():
            if not isinstance(getattr(self, name), kind):
                raise ValueError(f"{name} must be a {kind.__name__}, got {getattr(self, name)!r}")
        ids = frozenset(cloud_io.check_count("classes entry", c) for c in self.classes)
        object.__setattr__(self, "classes", ids)
        unknown = sorted(c for c in self.classes if not 0 <= c < len(detect_ingest.COCO_CLASSES))
        if unknown:
            raise ValueError(
                f"unknown class ids {unknown}; ids run from 0 to {len(detect_ingest.COCO_CLASSES) - 1}"
            )


def _labeled_name(frame_id: int) -> str:
    """The file name of a frame's labeled PCD in the output directory."""
    return f"labeled_{frame_id:06d}.pcd"


@dataclass(frozen=True, slots=True)
class FrameResult:
    """One written frame.  It holds the run's shared ``out_dir`` and builds
    ``pcd_path`` when read, so a run builds no Path per frame (see
    ``cloud_io.IndexEntry``); the frame id is the report's."""

    out_dir: Path
    report: segment.FrameReport
    seconds: float

    @property
    def frame_id(self) -> int:
        return self.report.frame_id

    @property
    def pcd_path(self) -> Path:
        return self.out_dir / _labeled_name(self.frame_id)


class FrameTable(Sequence):
    """A run's finished frames, in frame order: their reports packed in one
    ``segment.ReportTable`` and their seconds in one float column, so a frame
    of three classes holds about 120 bytes and no object.  Item i builds
    frame i's FrameResult."""

    __slots__ = ("out_dir", "reports", "_seconds")

    def __init__(self, out_dir: Path) -> None:
        self.out_dir = out_dir
        self.reports = segment.ReportTable()
        self._seconds = array("d")

    def append(self, report: segment.FrameReport, seconds: float) -> None:
        self.reports.append(report)
        self._seconds.append(seconds)

    def __len__(self) -> int:
        return len(self._seconds)

    def __getitem__(self, i: int) -> FrameResult:
        return FrameResult(self.out_dir, self.reports[i], self._seconds[i])


@dataclass(frozen=True)
class PipelineResult:
    frames: FrameTable
    summary: segment.SequenceSummary
    report_csv: Path
    summary_path: Path
    total_seconds: float


def _camera_indices(
    manifest: dict[str, cloud_io.FrameIndex], rig_ids: set[int], manifest_path: Path
) -> dict[int, cloud_io.FrameIndex]:
    indices: dict[int, cloud_io.FrameIndex] = {}
    for stream, index in manifest.items():
        m = _CAMERA_STREAM.match(stream)
        if not m:
            raise PipelineError(
                f"{manifest_path}: detection stream '{stream}' is not of the form cam<N>"
            )
        cam_id = int(m.group(1))
        if cam_id not in rig_ids:
            raise PipelineError(
                f"{manifest_path}: detection stream '{stream}' references a camera absent from the rig"
            )
        indices[cam_id] = index
    return indices


def _cloud_index(
    manifest: dict[str, cloud_io.FrameIndex], manifest_path: Path
) -> cloud_io.FrameIndex:
    if set(manifest) != {"cloud"}:
        raise PipelineError(
            f"{manifest_path}: expected only a 'cloud' stream, found {sorted(manifest)}"
        )
    return manifest["cloud"]


def load_bundle_detections(
    bundle: cloud_io.FrameBundle,
    rig: list[calib.CameraModel],
    confidence: float = 0.0,
    classes: frozenset[int] = frozenset(),
) -> dict[int, list[detect_ingest.Detection]]:
    """Load, filter, and group one bundle's detections by camera.

    Applies, in order: the confidence threshold, the class allow-list,
    and the quarter-image oversized-box rule.  A file holding a record of
    another camera, or records of two frames, raises PipelineError naming it.
    """
    rig_by_id = {cam.id: cam for cam in rig}
    dets_by_cam: dict[int, list[detect_ingest.Detection]] = {}
    for cam_id, entry in sorted(bundle.cameras.items()):
        dets, rejected = detect_ingest.load_detections(entry.path)
        if rejected:
            log.warning("%s: rejected %d malformed detection records", entry.path, len(rejected))
        foreign = sorted({d.camera_id for d in dets} - {cam_id})
        if foreign:
            raise PipelineError(
                f"{entry.path}: records for camera {foreign[0]} in the detections of camera {cam_id}"
            )
        frames = sorted({d.frame_id for d in dets})
        if len(frames) > 1:
            raise PipelineError(f"{entry.path}: records for frames {frames[0]} and {frames[1]} in one file")
        dets = [d for d in dets if d.confidence >= confidence]
        dets = detect_ingest.restrict_classes(dets, classes)
        kept, _oversized = detect_ingest.filter_oversized(dets, rig_by_id[cam_id])
        dets_by_cam[cam_id] = kept
    return dets_by_cam


def _process_bundle(
    bundle: cloud_io.FrameBundle, rig: list[calib.CameraModel], cfg: PipelineConfig
) -> tuple[segment.FrameReport, float]:
    """Read, label, denoise and write one frame; return its report and seconds.
    A failure raises PipelineError naming the frame."""
    start = time.perf_counter()
    try:
        frame = cloud_io.read_pcd(
            bundle.cloud.path, frame_id=bundle.cloud.frame_id, timestamp=bundle.cloud.timestamp
        )
        dets_by_cam = load_bundle_detections(bundle, rig, cfg.confidence, cfg.classes)
        lc = fusion.label_frame(frame, rig, dets_by_cam, distortion_mode=cfg.distortion)
        if cfg.denoise:
            lc, report = segment.denoise_frame(frame, lc, cfg.kmeans)
        else:
            report = segment.frame_report(frame, lc)
        out = os.path.join(cfg.out_dir, _labeled_name(bundle.cloud.frame_id))
        cloud_io.write_pcd(frame, out, labels=lc)
        seconds = time.perf_counter() - start
    except Exception as e:
        raise PipelineError(f"frame {bundle.cloud.frame_id} ({bundle.cloud.path}): {e}") from e
    return report, seconds


_RUN: tuple | None = None  # in a worker process, its run's (matches, rig, cfg)


def _init_worker(matches: cloud_io.FrameMatches, rig: list[calib.CameraModel], cfg: PipelineConfig) -> None:
    """Start a forked worker process: keep the run it was forked for."""
    global _RUN
    _RUN = matches, rig, cfg


def _process_frame(i: int) -> tuple[segment.FrameReport, float]:
    """``_process_bundle`` of frame i of the run a worker process keeps, so
    the parent sends a worker one int a frame."""
    matches, rig, cfg = _RUN
    return _process_bundle(matches[i], rig, cfg)


def run_pipeline(cfg: PipelineConfig) -> PipelineResult:
    """Run the full pipeline and write labeled PCDs, report.csv and summary.txt.

    Outputs are byte-identical across reruns and across worker counts.
    Both manifests are checked in full before frame 0 starts, and held as
    columns until the last frame is written.  With one worker, or one
    frame, the frames run one after another in this process.  With N >= 2
    workers they run in min(N, frames) processes forked for the run, and
    their results are read in frame order; frame i + 2N is handed out only
    once frame i's result is read.  A frame's bundle is built when the
    frame starts.  Raises PipelineError naming the frame or file on any
    stage failure.  With N workers the first failed result read is the
    earliest failed frame's, since every earlier one has been read.  No
    frame is handed out after that read, but frames handed out before it
    may still start; the run waits for them, and no worker process
    outlives it.
    """
    t0 = time.perf_counter()
    rig = calib.load_rig(cfg.calibration)
    cloud_index = _cloud_index(cloud_io.read_manifest(cfg.cloud_manifest), cfg.cloud_manifest)
    det_manifest = cloud_io.read_manifest(cfg.detection_manifest)
    camera_indices = _camera_indices(det_manifest, {cam.id for cam in rig}, cfg.detection_manifest)
    matches = cloud_io.match_frames(cloud_index, camera_indices, cfg.tolerance)
    del cloud_index, det_manifest, camera_indices

    try:
        cfg.out_dir.mkdir(parents=True, exist_ok=True)
    except (OSError, ValueError) as e:  # a name the file system's encoding lacks is a ValueError
        raise PipelineError(f"output directory {cfg.out_dir}: {e}") from e
    frames = FrameTable(cfg.out_dir)
    workers = min(cfg.workers, len(matches))
    # a frame's bundle, matches[i], is built only when the frame starts
    if workers < 2:
        for bundle in matches:
            frames.append(*_process_bundle(bundle, rig, cfg))
    else:
        # fork: a worker starts in milliseconds with pclabel imported, and
        # inherits the run's inputs unpickled
        fork = multiprocessing.get_context("fork")
        pool = ProcessPoolExecutor(workers, mp_context=fork, initializer=_init_worker, initargs=(matches, rig, cfg))
        try:
            pending = deque()
            for i in range(len(matches)):
                pending.append(pool.submit(_process_frame, i))
                if len(pending) == 2 * workers:
                    frames.append(*pending.popleft().result())
            while pending:
                frames.append(*pending.popleft().result())
        finally:  # after a failure nothing waiting starts; the running frames finish
            pool.shutdown(cancel_futures=True)
    del matches

    report_csv = cfg.out_dir / "report.csv"
    segment.write_report_csv(report_csv, frames.reports)
    summary = segment.aggregate_reports(frames.reports)
    summary_path = cfg.out_dir / "summary.txt"
    summary_path.write_text(summary.render() + "\n")
    total = time.perf_counter() - t0
    log.info("processed %d frames in %.3f s", len(frames), total)
    return PipelineResult(
        frames=frames,
        summary=summary,
        report_csv=report_csv,
        summary_path=summary_path,
        total_seconds=total,
    )
