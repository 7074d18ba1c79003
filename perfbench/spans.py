"""In-process span tracing of pclabel's public functions, and per-layer metrics.

Tracing never edits pclabel's source: ``instrument`` swaps wrappers into
the module attributes that callers look up (``cloud_io.read_pcd`` is found
through ``pipeline``'s ``cloud_io`` module, ``fusion.project_points``
through ``fusion``'s own globals, and so on) and restores the originals on
exit.  Spans stay in memory as (name, start, end, parent, frame id, counts)
and are written out once, after the run.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter_ns
from typing import Any, Callable

import numpy as np


@dataclass
class Span:
    name: str
    start: int
    end: int = 0
    parent: int | None = None
    frame: int | None = None
    counts: dict[str, float] = field(default_factory=dict)


class Tracer:
    """Collects nested spans from one thread; the open-span stack gives parents."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def open(self, name: str, frame: int | None) -> int:
        parent = self._stack[-1] if self._stack else None
        if frame is None and parent is not None:
            frame = self.spans[parent].frame
        self.spans.append(Span(name, perf_counter_ns(), parent=parent, frame=frame))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int) -> None:
        self.spans[index].end = perf_counter_ns()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {self.spans[index].name} closed out of order")

    def write_jsonl(self, path: Path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(
                    {"name": s.name, "start_ns": s.start, "end_ns": s.end,
                     "parent": s.parent, "frame": s.frame, "counts": s.counts}
                ) + "\n")


def self_times_ns(spans: list[Span]) -> list[int]:
    """Each span's duration minus the part of its interval its children cover."""
    children: dict[int, list[tuple[int, int]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered = 0
        cursor = s.start
        for start, end in sorted(children.get(i, ())):
            start, end = max(start, cursor), min(end, s.end)
            if end > start:
                covered += end - start
                cursor = end
        out.append(s.end - s.start - covered)
    return out


# --- what each wrapped function contributes ---------------------------------
# frame_of(args) -> frame id for the span, or None to inherit the parent's;
# counts_of(args, result) -> counts read from arguments and return values.

def _file_bytes(args, _result):
    return {"bytes": os.path.getsize(args["path"])}


def _match_counts(args, bundles):
    return {"bundles": len(bundles),
            "slots": len(bundles) * len(args["camera_indices"]),
            "matched": sum(len(b.cameras) for b in bundles)}


def _detection_counts(_args, result):
    dets, rejected = result
    return {"records": len(dets), "rejected": len(rejected)}


def _label_counts(args, lc):
    return {"boxes": sum(len(d) for d in args["detections"].values()),
            "points": len(lc), "labeled": lc.n_labeled}


def _project_counts(_args, result):
    _uv, in_front = result
    return {"points": len(in_front), "in_front": int(np.count_nonzero(in_front))}


def _denoise_counts(_args, result):
    _lc, report = result
    return {"labeled": report.labeled_before, "kept": report.kept_after}


def _kmeans_counts(args, clustering):
    n = len(args["points"])
    iters = clustering.iterations_run
    return {"points": n, "iterations": iters,
            "max_iter_hit": int(iters >= args["cfg"].max_iter),
            "point_iters": n * iters}


# (module attribute, span name, frame_of, counts_of); span names are the
# modules where the functions are defined, which is what the layer metrics use.
TARGETS: list[tuple[str, str, str, Callable | None, Callable | None]] = [
    ("pipeline", "run_pipeline", "pipeline.run_pipeline", None, None),
    ("calib", "load_rig", "calib.load_rig", None, None),
    ("cloud_io", "read_manifest", "cloud_io.read_manifest", None, None),
    ("cloud_io", "match_frames", "cloud_io.match_frames", None, _match_counts),
    ("cloud_io", "read_pcd", "cloud_io.read_pcd", lambda a: a["frame_id"], _file_bytes),
    ("pipeline", "load_bundle_detections", "pipeline.load_bundle_detections",
     lambda a: a["bundle"].cloud.frame_id, None),
    ("detect_ingest", "load_detections", "detect_ingest.load_detections", None, _detection_counts),
    ("fusion", "label_frame", "fusion.label_frame", lambda a: a["frame"].frame_id, _label_counts),
    ("fusion", "project_points", "calib.project_points", None, _project_counts),
    ("segment", "denoise_frame", "segment.denoise_frame",
     lambda a: a["frame"].frame_id, _denoise_counts),
    ("segment", "kmeans", "segment.kmeans", None, _kmeans_counts),
    ("cloud_io", "write_pcd", "cloud_io.write_pcd", lambda a: a["frame"].frame_id, _file_bytes),
    ("segment", "write_report_csv", "segment.write_report_csv", None, None),
]


def _wrap(tracer: Tracer, name: str, fn: Callable, frame_of, counts_of) -> Callable:
    sig = inspect.signature(fn)

    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        index = tracer.open(name, frame_of(bound.arguments) if frame_of else None)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(index)
        if counts_of is not None:
            tracer.spans[index].counts = counts_of(bound.arguments, result)
        return result

    return wrapper


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Route calls to the TARGETS functions through ``tracer`` while active."""
    import pclabel.calib
    import pclabel.cloud_io
    import pclabel.detect_ingest
    import pclabel.fusion
    import pclabel.pipeline
    import pclabel.segment

    modules = {m.__name__.rsplit(".", 1)[1]: m for m in (
        pclabel.calib, pclabel.cloud_io, pclabel.detect_ingest,
        pclabel.fusion, pclabel.pipeline, pclabel.segment,
    )}
    originals = []
    try:
        for module_name, attr, span_name, frame_of, counts_of in TARGETS:
            module = modules[module_name]
            fn = getattr(module, attr)
            originals.append((module, attr, fn))
            setattr(module, attr, _wrap(tracer, span_name, fn, frame_of, counts_of))
        yield tracer
    finally:
        for module, attr, fn in reversed(originals):
            setattr(module, attr, fn)


# --- per-layer metrics --------------------------------------------------------

def _percentile_tail(values: list[float]) -> tuple[float, float]:
    """The highest whole percentile with at least ten samples above it.

    With fewer than 20 samples no percentile above the median qualifies,
    so the maximum (reported as percentile 100) is given instead.
    """
    n = len(values)
    if n >= 20:
        q = float(int(100 * (n - 10) / n))
        return q, float(np.percentile(values, q))
    return 100.0, float(max(values))


def layer_metrics(
    spans: list[Span],
    runs: int,
    frames_per_run: int,
    frame_seconds: list[float],
    kept_ratio: float,
    object_kept_pct: float,
    traced_run_s: float,
    untraced_run_s: float,
    scene_setup_s: float,
) -> dict[str, float]:
    """Per-layer metrics from the spans of ``runs`` traced run_pipeline calls.

    ``*_per_frame`` values divide by every frame processed; plain counts
    and ``.ms`` values are per run_pipeline call.
    """
    selfs = self_times_ns(spans)
    total_ms: dict[str, float] = {}
    self_ms: dict[str, float] = {}
    calls: dict[str, int] = {}
    counts: dict[str, dict[str, float]] = {}
    for s, self_ns in zip(spans, selfs):
        total_ms[s.name] = total_ms.get(s.name, 0.0) + (s.end - s.start) / 1e6
        self_ms[s.name] = self_ms.get(s.name, 0.0) + self_ns / 1e6
        calls[s.name] = calls.get(s.name, 0) + 1
        bucket = counts.setdefault(s.name, {})
        for key, value in s.counts.items():
            bucket[key] = bucket.get(key, 0) + value

    frames = runs * frames_per_run

    def per_frame(value: float) -> float:
        return value / frames

    def per_run(value: float) -> float:
        return value / runs

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    def c(name: str, key: str) -> float:
        return counts.get(name, {}).get(key, 0)

    km_ms = total_ms.get("segment.kmeans", 0.0)
    read_ms = total_ms.get("cloud_io.read_pcd", 0.0)
    write_ms = total_ms.get("cloud_io.write_pcd", 0.0)
    tail_q, tail_ms = _percentile_tail([1e3 * s for s in frame_seconds])
    return {
        "segment.kmeans.ms_per_frame": per_frame(km_ms),
        "segment.kmeans.calls": per_run(calls.get("segment.kmeans", 0)),
        "segment.kmeans.points": per_run(c("segment.kmeans", "points")),
        "segment.kmeans.iterations": per_run(c("segment.kmeans", "iterations")),
        "segment.kmeans.max_iter_hits": per_run(c("segment.kmeans", "max_iter_hit")),
        "segment.kmeans.ns_per_point_iter": ratio(km_ms * 1e6, c("segment.kmeans", "point_iters")),
        "segment.denoise_frame.self_ms_per_frame": per_frame(self_ms.get("segment.denoise_frame", 0.0)),
        "segment.kept_ratio": kept_ratio,
        "segment.object_kept_pct": object_kept_pct,
        "segment.write_report_csv.ms": per_run(total_ms.get("segment.write_report_csv", 0.0)),
        "calib.load_rig.ms": per_run(total_ms.get("calib.load_rig", 0.0)),
        "calib.project_points.ms_per_frame": per_frame(total_ms.get("calib.project_points", 0.0)),
        "calib.project_points.calls": per_run(calls.get("calib.project_points", 0)),
        "calib.in_front_ratio": ratio(c("calib.project_points", "in_front"),
                                      c("calib.project_points", "points")),
        "fusion.label_frame.self_ms_per_frame": per_frame(self_ms.get("fusion.label_frame", 0.0)),
        "fusion.boxes_per_frame": per_frame(c("fusion.label_frame", "boxes")),
        "fusion.labeled_ratio": ratio(c("fusion.label_frame", "labeled"),
                                      c("fusion.label_frame", "points")),
        "cloud_io.read_pcd.ms_per_frame": per_frame(read_ms),
        "cloud_io.read_pcd.mb_per_s": ratio(c("cloud_io.read_pcd", "bytes") / 1e6, read_ms / 1e3),
        "cloud_io.write_pcd.ms_per_frame": per_frame(write_ms),
        "cloud_io.write_pcd.mb_per_s": ratio(c("cloud_io.write_pcd", "bytes") / 1e6, write_ms / 1e3),
        "cloud_io.read_manifest.ms": per_run(total_ms.get("cloud_io.read_manifest", 0.0)),
        "cloud_io.match_frames.ms": per_run(total_ms.get("cloud_io.match_frames", 0.0)),
        "cloud_io.matched_ratio": ratio(c("cloud_io.match_frames", "matched"),
                                        c("cloud_io.match_frames", "slots")),
        "detect_ingest.load_detections.ms_per_frame": per_frame(
            total_ms.get("detect_ingest.load_detections", 0.0)),
        "detect_ingest.records": per_run(c("detect_ingest.load_detections", "records")),
        "detect_ingest.rejected": per_run(c("detect_ingest.load_detections", "rejected")),
        "pipeline.load_bundle_detections.self_ms_per_frame": per_frame(
            self_ms.get("pipeline.load_bundle_detections", 0.0)),
        "pipeline.run_pipeline.self_ms": per_run(self_ms.get("pipeline.run_pipeline", 0.0)),
        "pipeline.frame_ms.p50": float(np.percentile([1e3 * s for s in frame_seconds], 50)),
        "pipeline.frame_ms.tail": tail_ms,
        "pipeline.frame_ms.tail_q": tail_q,
        "scene.setup.s": scene_setup_s,
        "trace.overhead_pct": 100.0 * (traced_run_s - untraced_run_s) / untraced_run_s,
    }
