"""pclabel batch benchmark: times run_pipeline end to end, or per layer when traced.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload c7_dense --seed 1 --seconds 30 --trace 0

The benchmark builds the workload's inputs from ``--seed``, then runs a
closed loop: each run is one ``run_pipeline`` call (one process, tracing
off, default worker count) into a clean output directory, and the next run
starts only after it returns.  Every run's outputs are digested and checked.
``--trace 1`` instead measures untraced runs for half the time and traced
runs for the other half, and reports per-layer metrics from the spans.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Inputs, outputs
and result files stay under ``.perfbench/`` in the checkout; output writes
go through the page cache, so disk behaviour is not measured.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import shutil
import statistics
import sys
import time
import traceback
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RESULTS = ROOT / ".perfbench" / "results"
WORKLOAD_NAMES = ("c7_dense", "scene_long")
SETUP_REPS = 3  # set-up is repeated, and its median reported
SETUP_MIN_S = 2.0
SETUP_MAX_REPS = 15
K = 3

# units of values printed for information only; declared metrics take theirs from BENCHMARK.json
INFO_UNITS = {"object_kept_pct": "%"}


def _parse_args(argv: list[str]) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    if args.seed < 0:
        p.error("--seed must be non-negative")
    return args


def _import_pclabel():
    """Import pclabel from this checkout's src/, never from anywhere else."""
    if not (SRC / "pclabel" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no pclabel source at {SRC}/pclabel; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import pclabel

    if Path(pclabel.__file__).resolve().parent != (SRC / "pclabel").resolve():
        raise SystemExit(f"perfbench: imported pclabel from {pclabel.__file__}, not {SRC}")
    return pclabel


def _summary(values: list[float]) -> dict[str, object]:
    if len(values) > 1:
        q1, median, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = median = q3 = values[0]
    return {"median": median, "q1": q1, "q3": q3, "n": len(values), "samples": values}


def _env_stamp(args, inputs, spec, counts: dict[str, int]) -> dict[str, object]:
    import numpy as np

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version', '')}".strip()
    except (KeyError, TypeError, ValueError):
        blas_name = "unknown"
    head = ROOT / ".git" / "HEAD"
    commit = "not a git checkout"
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: ") and (ROOT / ".git" / ref[5:]).is_file():
            commit = (ROOT / ".git" / ref[5:]).read_text().strip()
    src_hash = hashlib.sha256()
    for path in sorted((SRC / "pclabel").glob("*.py")):
        src_hash.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload,
        "workload_seed": args.seed,
        "trace": args.trace,
        "run_seconds": args.seconds,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": {v: os.environ.get(v, "unset") for v in (
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "git_commit": commit,
        "source_sha256": src_hash.hexdigest(),
        "frames": inputs.frames,
        "points": inputs.points,
        "shape": inputs.shape(),
        "k": K,
        "kmeans_seed": args.seed,
        "samples": counts,
        "loop": "closed: one run_pipeline call at a time, workers left at default",
        "disk": "outputs are written through the page cache; disk behaviour is not measured",
    }


def _build_inputs(workloads, spec, seed: int, work: Path, min_reps: int):
    """Build the inputs at least ``min_reps`` times and for at least SETUP_MIN_S seconds.

    Returns the last build, the set-up times and the pclabel.scene times.
    """
    setup_s, scene_s = [], []
    start = time.perf_counter()
    while len(setup_s) < min_reps or (
        time.perf_counter() - start < SETUP_MIN_S and len(setup_s) < SETUP_MAX_REPS
    ):
        inputs, setup, scene = workloads.build(work / "inputs", spec, seed)
        setup_s.append(setup)
        scene_s.append(scene)
    expected = workloads.expected_shape(spec)
    if inputs.shape() != expected:
        raise SystemExit(f"perfbench: workload shape {inputs.shape()} differs from {expected}")
    return inputs, setup_s, scene_s


class Runner:
    """One closed-loop run_pipeline call at a time, each into a clean directory, each checked."""

    def __init__(self, pclabel, workloads, inputs, spec, seed: int, work: Path) -> None:
        self.pclabel = pclabel
        self.gate = workloads.Gate(inputs, spec)
        self.out = work / "out"
        self.cfg = pclabel.PipelineConfig(
            calibration=inputs.calibration,
            cloud_manifest=inputs.cloud_manifest,
            detection_manifest=inputs.detection_manifest,
            out_dir=self.out,
            kmeans=pclabel.KMeansConfig(k=K, seed=seed),
        )

    def run(self):
        """Return (result, seconds) for a run that passed its checks, else None."""
        if self.out.exists():
            shutil.rmtree(self.out)
        gc.collect()
        try:
            t0 = time.perf_counter()
            # looked up per call, so traced runs go through the wrapper
            result = self.pclabel.pipeline.run_pipeline(self.cfg)
            seconds = time.perf_counter() - t0
        except Exception as e:  # a failed run is counted, never fatal
            traceback.print_exc(file=sys.stderr)
            self.gate.fail(f"run raised {type(e).__name__}: {e}")
            return None
        if not self.gate.check(self.out):
            return None
        return result, seconds

    def loop(self, seconds: float) -> list[tuple[object, float]]:
        """Run back to back until ``seconds`` have passed (at least once)."""
        done = []
        start = time.perf_counter()
        while True:
            r = self.run()
            if r is not None:
                done.append(r)
            if time.perf_counter() - start >= seconds:
                return done


def _measure_e2e(args, pclabel, workloads, spec, work: Path):
    inputs, setup_s, _ = _build_inputs(workloads, spec, args.seed, work, SETUP_REPS)
    runner = Runner(pclabel, workloads, inputs, spec, args.seed, work)
    runner.run()  # warm-up: lazy imports and page cache, and the reference digest
    timed = runner.loop(args.seconds)
    rates = [inputs.points / s for _, s in timed]

    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        alloc = runner.run()
        peak_mb = tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()

    quality = runner.gate.quality
    stats = {
        "points_per_s": _summary(rates) if rates else None,
        "peak_alloc_mb": {"median": peak_mb, "n": 1} if alloc is not None else None,
        "setup_s": _summary(setup_s),
        "noise_kept_pct": {"median": quality.noise_kept_pct, "n": 1} if quality else None,
        "object_kept_pct": {"median": quality.object_kept_pct, "n": 1} if quality else None,
    }
    counts = {"timed_runs": len(timed), "setup_reps": len(setup_s), "alloc_runs": 1}
    return inputs, runner.gate, stats, counts


def _measure_layers(args, pclabel, workloads, spec, work: Path):
    import spans

    inputs, _, scene_s = _build_inputs(workloads, spec, args.seed, work, 1)
    runner = Runner(pclabel, workloads, inputs, spec, args.seed, work)
    runner.run()  # warm-up
    untraced = runner.loop(args.seconds / 2)
    tracer = spans.Tracer()
    with spans.instrument(tracer):
        traced = runner.loop(args.seconds / 2)
    if not untraced or not traced:
        return inputs, runner.gate, {}, {}
    results = [r for r, _ in traced]
    frame_seconds = [fr.seconds for r in results for fr in r.frames]
    labeled = sum(fr.report.labeled_before for r in results for fr in r.frames)
    kept = sum(fr.report.kept_after for r in results for fr in r.frames)
    metrics = spans.layer_metrics(
        tracer.spans,
        runs=len(traced),
        frames_per_run=inputs.frames,
        frame_seconds=frame_seconds,
        kept_ratio=kept / labeled if labeled else 0.0,
        object_kept_pct=runner.gate.quality.object_kept_pct,
        traced_run_s=statistics.median(s for _, s in traced),
        untraced_run_s=statistics.median(s for _, s in untraced),
        scene_setup_s=scene_s[0],
    )
    RESULTS.mkdir(parents=True, exist_ok=True)
    tracer.write_jsonl(RESULTS / f"{args.workload}-seed{args.seed}-spans.jsonl")
    counts = {"untraced_runs": len(untraced), "traced_runs": len(traced),
              "traced_frames": len(frame_seconds), "spans": len(tracer.spans)}
    stats = {name: {"median": value, "n": 1} for name, value in metrics.items()}
    return inputs, runner.gate, stats, counts


def _declared_metrics(trace: int) -> dict[str, str]:
    """Name -> unit of the metrics BENCHMARK.json declares for this mode."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in declared["per_layer" if trace else "end_to_end"]}


def main(argv: list[str] | None = None) -> int:
    args = _parse_args(sys.argv[1:] if argv is None else argv)
    pclabel = _import_pclabel()
    import workloads

    spec = workloads.SPECS[args.workload]
    work = ROOT / ".perfbench" / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    measure = _measure_layers if args.trace else _measure_e2e
    try:
        inputs, gate, stats, counts = measure(args, pclabel, workloads, spec, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    declared = _declared_metrics(args.trace)
    metrics = {
        name: {"value": stats[name]["median"], "unit": unit}
        for name, unit in declared.items() if stats.get(name) is not None
    }
    missing = sorted(set(declared) - set(metrics))
    correct = gate.failed == 0 and gate.attempted > 0 and not missing
    error_rate = gate.failed / gate.attempted if gate.attempted else 1.0

    env = _env_stamp(args, inputs, spec, counts)
    RESULTS.mkdir(parents=True, exist_ok=True)
    result_path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_path.write_text(json.dumps({
        "env": env, "stats": stats, "output_digest": gate.digest, "error_rate": error_rate,
        "attempted": gate.attempted, "failed": gate.failed, "problems": gate.problems[:20],
    }, indent=2) + "\n")

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{result_path.relative_to(ROOT)}")
    print("env: " + json.dumps(env))
    for name, s in stats.items():
        unit = declared.get(name, INFO_UNITS.get(name, ""))
        if s is None:
            print(f"  {name}: not measured")
        elif s["n"] > 1:
            print(f"  {name}: {s['median']:.6g} {unit} "
                  f"(median; q1 {s['q1']:.6g}, q3 {s['q3']:.6g}, n={s['n']})")
        else:
            print(f"  {name}: {s['median']:.6g} {unit}")
    print(f"  error_rate: {error_rate:.4g} ({gate.failed} failed / {gate.attempted} attempted)")
    print(f"  output_digest: {gate.digest}")
    for problem in gate.problems[:20]:
        print(f"  FAILED CHECK: {problem}")
    if missing:
        print(f"  NOT MEASURED: {', '.join(missing)}")
    print(json.dumps({"correct": correct, "attempted": max(gate.attempted, 1),
                      "failed": gate.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
