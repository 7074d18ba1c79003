"""End-to-end pipeline: load rig, match frames, label, denoise, write outputs.

The pipeline is deterministic for a fixed configuration: every k-means
stream is derived from (seed, frame, camera, detection), outputs are
written in frame order whatever the worker count, and report rows follow
frame order.
"""

from __future__ import annotations

import logging
import re
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

from . import calib, cloud_io, detect_ingest, fusion, segment

log = logging.getLogger(__name__)

_CAMERA_STREAM = re.compile(r"^cam(\d+)$")


class PipelineError(RuntimeError):
    """A pipeline stage failed; the message names the frame or file."""


@dataclass(frozen=True)
class PipelineConfig:
    """Everything one pipeline run needs."""

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
            value = getattr(self, name)
            if not str(value):
                raise ValueError(f"{name} must be a non-empty path")
            object.__setattr__(self, name, Path(value))
        cloud_io.check_tolerance(self.tolerance)
        if not 0.0 <= self.confidence <= 1.0:
            raise ValueError(f"confidence must be in [0, 1], got {self.confidence}")
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        object.__setattr__(self, "classes", frozenset(self.classes))


@dataclass(frozen=True)
class FrameResult:
    frame_id: int
    pcd_path: Path
    report: segment.FrameReport
    seconds: float


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
    if "cloud" in manifest:
        return manifest["cloud"]
    if len(manifest) == 1:
        return next(iter(manifest.values()))
    raise PipelineError(
        f"{manifest_path}: expected a 'cloud' stream, found {sorted(manifest)}"
    )


def load_bundle_detections(
    bundle: cloud_io.FrameBundle,
    rig: list[calib.CameraModel],
    confidence: float = 0.0,
    classes: frozenset[int] = frozenset(),
) -> dict[int, list[detect_ingest.Detection]]:
    """Load, filter, and group one bundle's detections by camera.

    Applies, in order: camera-id consistency with the stream, the
    confidence threshold, the class allow-list, and the quarter-image
    oversized-box rule.
    """
    rig_by_id = {cam.id: cam for cam in rig}
    dets_by_cam: dict[int, list[detect_ingest.Detection]] = {}
    for cam_id, entry in sorted(bundle.cameras.items()):
        dets, rejected = detect_ingest.load_detections(entry.path)
        if rejected:
            log.warning("%s: rejected %d malformed detection records", entry.path, len(rejected))
        dets = [d for d in dets if d.camera_id == cam_id]
        dets = [d for d in dets if d.confidence >= confidence]
        dets = detect_ingest.restrict_classes(dets, classes)
        kept, _oversized = detect_ingest.filter_oversized(dets, rig_by_id[cam_id])
        dets_by_cam[cam_id] = kept
    return dets_by_cam


def _process_bundle(
    bundle: cloud_io.FrameBundle,
    rig: list[calib.CameraModel],
    cfg: PipelineConfig,
):
    start = time.perf_counter()
    frame = cloud_io.read_pcd(
        bundle.cloud.path, frame_id=bundle.cloud.frame_id, timestamp=bundle.cloud.timestamp
    )
    dets_by_cam = load_bundle_detections(bundle, rig, cfg.confidence, cfg.classes)
    lc = fusion.label_frame(frame, rig, dets_by_cam, distortion_mode=cfg.distortion)
    if cfg.denoise:
        lc, report = segment.denoise_frame(frame, lc, cfg.kmeans)
    else:
        report = segment.frame_report(frame, lc)
    return frame, lc, report, time.perf_counter() - start


def run_pipeline(cfg: PipelineConfig) -> PipelineResult:
    """Run the full pipeline and write labeled PCDs, report.csv and summary.txt.

    Outputs are byte-identical across reruns and across worker counts.
    Raises PipelineError naming the frame or file on any stage failure.
    """
    t0 = time.perf_counter()
    rig = calib.load_rig(cfg.calibration)
    cloud_index = _cloud_index(cloud_io.read_manifest(cfg.cloud_manifest), cfg.cloud_manifest)
    det_manifest = cloud_io.read_manifest(cfg.detection_manifest)
    camera_indices = _camera_indices(det_manifest, {cam.id for cam in rig}, cfg.detection_manifest)
    bundles = cloud_io.match_frames(cloud_index, camera_indices, cfg.tolerance)

    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    def process(bundle: cloud_io.FrameBundle):
        try:
            return _process_bundle(bundle, rig, cfg)
        except Exception as e:
            raise PipelineError(
                f"frame {bundle.cloud.frame_id} ({bundle.cloud.path}): {e}"
            ) from e

    if cfg.workers == 1:
        results = map(process, bundles)
    else:
        executor = ThreadPoolExecutor(max_workers=cfg.workers)
        results = executor.map(process, bundles)

    frames: list[FrameResult] = []
    reports: list[segment.FrameReport] = []
    try:
        # executor.map yields in submission order, which is frame order.
        for bundle, (frame, lc, report, seconds) in zip(bundles, results):
            pcd_path = out / f"labeled_{bundle.cloud.frame_id:06d}.pcd"
            cloud_io.write_pcd(frame, pcd_path, labels=lc)
            frames.append(FrameResult(bundle.cloud.frame_id, pcd_path, report, seconds))
            reports.append(report)
    finally:
        if cfg.workers > 1:
            executor.shutdown(wait=False, cancel_futures=True)

    report_csv = out / "report.csv"
    segment.write_report_csv(report_csv, reports)
    summary = segment.aggregate_reports(reports)
    summary_path = out / "summary.txt"
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
