"""End-to-end pipeline: load rig, match frames, label, denoise, write outputs.

The pipeline is deterministic for a fixed configuration: every k-means
stream is derived from (seed, frame, camera, detection), each frame's PCD
is written by the task that labeled it, and report rows follow frame order
whatever the worker count.  The calling thread and ``workers - 1`` helper
threads each take the next frame when they finish one, so at most
``workers`` frames are alive at once; beyond the matched manifests a run
keeps for each frame of its sequence only its result.
"""

from __future__ import annotations

import logging
import os
import re
import threading
import time
from collections.abc import Set
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable

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
    ``cloud_io.IndexEntry``)."""

    frame_id: int
    out_dir: Path
    report: segment.FrameReport
    seconds: float

    @property
    def pcd_path(self) -> Path:
        return self.out_dir / _labeled_name(self.frame_id)


@dataclass(frozen=True)
class PipelineResult:
    frames: list[FrameResult]
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
) -> FrameResult:
    """Read, label, denoise and write one frame; a failure raises PipelineError naming it."""
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
    return FrameResult(bundle.cloud.frame_id, cfg.out_dir, report, seconds)


def _process_frame(
    i: int, matches: cloud_io.FrameMatches, rig: list[calib.CameraModel], cfg: PipelineConfig
) -> FrameResult:
    """Frame i of the run: its bundle is built only now, when a thread claims it."""
    return _process_bundle(matches[i], rig, cfg)


def _run_frames(task: Callable[[int], FrameResult], n: int, workers: int) -> list[FrameResult]:
    """``task(i)`` for each i in range(n), in order.  The calling thread and
    ``min(workers, n) - 1`` helper threads each claim the next frame under
    one lock.  After a failure no thread starts a frame; the running ones
    finish, and the earliest failed frame's error is raised."""
    results: list = [None] * n
    lock = threading.Lock()
    claimed = 0  # frames below it are taken; n once nothing may start

    def work() -> None:
        nonlocal claimed
        while True:
            with lock:
                i = claimed
                if i == n:
                    return
                claimed += 1
            try:
                results[i] = task(i)
            except BaseException as e:  # raised below, once every thread has stopped
                results[i] = e
                with lock:
                    claimed = n

    threads = []
    try:
        for _ in range(min(workers, n) - 1):
            thread = threading.Thread(target=work)
            thread.start()
            threads.append(thread)
        work()
    finally:
        with lock:  # an interrupt between frames: no thread starts another
            claimed = n
        for thread in threads:
            thread.join()
    for result in results:
        if isinstance(result, BaseException):
            raise result
    return results


def run_pipeline(cfg: PipelineConfig) -> PipelineResult:
    """Run the full pipeline and write labeled PCDs, report.csv and summary.txt.

    Outputs are byte-identical across reruns and across worker counts.
    Both manifests are checked in full before frame 0 starts, and held as
    columns until the last frame is written.  A frame's bundle is built
    when a thread claims the frame, and at most ``cfg.workers`` frames,
    with their bundles, are alive at once.  Raises PipelineError naming the
    frame or file on any stage failure.
    """
    t0 = time.perf_counter()
    rig = calib.load_rig(cfg.calibration)
    cloud_index = _cloud_index(cloud_io.read_manifest(cfg.cloud_manifest), cfg.cloud_manifest)
    det_manifest = cloud_io.read_manifest(cfg.detection_manifest)
    camera_indices = _camera_indices(det_manifest, {cam.id for cam in rig}, cfg.detection_manifest)
    matches = cloud_io.match_frames(cloud_index, camera_indices, cfg.tolerance)
    del cloud_index, det_manifest, camera_indices

    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    task = partial(_process_frame, matches=matches, rig=rig, cfg=cfg)
    frames = _run_frames(task, len(matches), cfg.workers)
    del task, matches
    reports = [fr.report for fr in frames]

    report_csv = cfg.out_dir / "report.csv"
    segment.write_report_csv(report_csv, reports)
    summary = segment.aggregate_reports(reports)
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
