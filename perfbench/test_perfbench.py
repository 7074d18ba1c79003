"""Self-tests of the benchmark's own logic: span arithmetic, the output gate,
quality counting and workload shape.

Run with ``python3 -m pytest perfbench`` or ``python3 perfbench/test_perfbench.py``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
for p in (HERE, HERE.parent / "src"):
    if str(p) not in sys.path:
        sys.path.insert(0, str(p))

import numpy as np  # noqa: E402

import pclabel  # noqa: E402
import pclabel.segment  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from pclabel import KMeansConfig, LabeledCloud, PipelineConfig, PointCloudFrame  # noqa: E402

TINY_SCENE = workloads.Spec(
    "tiny_scene", frames=2, scene=True, segments=2
)


def _span(name, start, end, parent=None):
    return spans.Span(name, start, end, parent=parent)


def test_self_time_subtracts_nested_children():
    tree = [
        _span("run", 0, 100),
        _span("frame", 10, 40, parent=0),
        _span("kmeans", 20, 30, parent=1),
        _span("write", 50, 60, parent=0),
        _span("write", 60, 65, parent=0),  # touching siblings are not double counted
    ]
    assert spans.self_times_ns(tree) == [100 - 30 - 10 - 5, 30 - 10, 10, 10, 5]


def test_self_time_counts_overlapping_children_once():
    tree = [_span("p", 0, 50), _span("a", 5, 25, parent=0), _span("b", 15, 35, parent=0)]
    assert spans.self_times_ns(tree)[0] == 50 - 30


def test_tracer_nesting_sets_parents_and_inherits_frame():
    t = spans.Tracer()
    outer = t.open("outer", frame=7)
    inner = t.open("inner", frame=None)
    t.close(inner)
    t.close(outer)
    assert t.spans[inner].parent == outer
    assert t.spans[inner].frame == 7
    assert t.spans[outer].start <= t.spans[inner].start <= t.spans[inner].end <= t.spans[outer].end


def _tiny_run(tmp_path: Path):
    inputs, _, _ = workloads.build(tmp_path / "in", TINY_SCENE, seed=3)
    out = tmp_path / "out"
    cfg = PipelineConfig(
        calibration=inputs.calibration,
        cloud_manifest=inputs.cloud_manifest,
        detection_manifest=inputs.detection_manifest,
        out_dir=out,
        kmeans=KMeansConfig(k=3, seed=3),
    )
    return inputs, cfg, out


def test_gate_counts_a_flipped_output_byte_as_a_failed_run(tmp_path):
    inputs, cfg, out = _tiny_run(tmp_path)
    gate = workloads.Gate(inputs, TINY_SCENE)
    pclabel.run_pipeline(cfg)
    assert gate.check(out), gate.problems
    pclabel.run_pipeline(cfg)
    assert gate.check(out), gate.problems

    pcd = out / "labeled_000001.pcd"
    data = bytearray(pcd.read_bytes())
    data[-24] ^= 1  # lowest mantissa bit of the last point's x
    pcd.write_bytes(bytes(data))
    assert not gate.check(out)
    assert (gate.attempted, gate.failed) == (3, 1)
    assert "digest" in gate.problems[-1]


def test_gate_counts_unreadable_outputs_as_a_failed_run(tmp_path):
    inputs, cfg, out = _tiny_run(tmp_path)
    gate = workloads.Gate(inputs, TINY_SCENE)
    pclabel.run_pipeline(cfg)
    (out / "report.csv").unlink()
    assert not gate.check(out)
    assert (gate.attempted, gate.failed) == (1, 1)


def test_quality_on_a_hand_built_frame(tmp_path):
    truth = np.array([0, 0, 0, 1, -1, -1, -1, -1])
    lc = LabeledCloud.empty(0, len(truth))
    lc.class_id[:] = [2, 2, -1, 0, 2, 2, 2, -1]
    lc.camera_id[:] = np.where(lc.class_id >= 0, 0, -1)
    lc.det_index[:] = np.where(lc.class_id >= 0, 0, -1)
    lc.cluster_id[:] = [1, 0, -1, 1, 1, 0, 0, -1]
    lc.kept[:] = [True, False, False, True, True, False, False, False]
    frame = PointCloudFrame(frame_id=0, timestamp=0.0, xyz=np.zeros((len(truth), 3)))
    pclabel.write_pcd(frame, tmp_path / "f.pcd", labels=lc)
    cols = pclabel.read_pcd_columns(tmp_path / "f.pcd")

    q = workloads.frame_quality(cols["label"], cols["cluster"], truth)
    assert (q.object_points, q.object_kept, q.noise_labeled, q.noise_kept) == (4, 2, 3, 1)
    assert q.object_kept_pct == 50.0
    assert abs(q.noise_kept_pct - 100.0 / 3) < 1e-12
    assert (q + q).object_points == 8


def test_workloads_match_benchmark_json():
    import run

    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())["workloads"]
    assert [w["name"] for w in declared] == list(run.WORKLOAD_NAMES) == list(workloads.SPECS)


def test_a_second_seed_gives_the_same_shape(tmp_path):
    c7 = workloads.Spec("c7_one", frames=1, scene=False)
    for spec in (c7, TINY_SCENE):
        shapes = [workloads.build(tmp_path / f"{spec.name}{s}", spec, s)[0].shape() for s in (1, 2)]
        assert shapes[0] == shapes[1] == workloads.expected_shape(spec)


def test_instrument_records_layer_spans_and_restores_functions(tmp_path):
    inputs, cfg, _out = _tiny_run(tmp_path)
    original = pclabel.segment.kmeans
    tracer = spans.Tracer()
    with spans.instrument(tracer):
        pclabel.pipeline.run_pipeline(cfg)
    assert pclabel.segment.kmeans is original
    names = {s.name for s in tracer.spans}
    assert names == {t[2] for t in spans.TARGETS}
    for s in tracer.spans:
        if s.name == "segment.kmeans":
            assert tracer.spans[s.parent].name == "segment.denoise_frame"
            assert s.frame in (0, 1)
            assert s.counts["iterations"] >= 1
    metrics = spans.layer_metrics(
        tracer.spans, runs=1, frames_per_run=inputs.frames, frame_seconds=[0.01, 0.02],
        kept_ratio=0.7, object_kept_pct=99.0, traced_run_s=1.1, untraced_run_s=1.0, scene_setup_s=0.0,
    )
    assert metrics["fusion.boxes_per_frame"] == 3
    assert metrics["segment.kmeans.calls"] == 6
    assert abs(metrics["trace.overhead_pct"] - 10.0) < 1e-9
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())["per_layer"]
    assert set(metrics) == {m["name"] for m in declared}


if __name__ == "__main__":
    import pytest

    sys.exit(pytest.main([__file__, "-q", "-p", "no:cacheprovider"]))
