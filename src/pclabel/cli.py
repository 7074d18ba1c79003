"""Command-line interface: run the pipeline, generate scenes, print statistics."""

from __future__ import annotations

import argparse
import logging
import os
import sys
from dataclasses import replace
from functools import partial
from pathlib import Path

from . import scene, segment
from .cloud_io import ascii_number, read_json_object
from .detect_ingest import CLASS_NAME_TO_ID
from .pipeline import PipelineConfig, PipelineError, check_path, run_pipeline

# Run settings by config-file key: the PipelineConfig field ("kmeans.<field>"
# for KMeansConfig) that checks the value.  A key's flag is --<key> with '-'
# for '_' (--no-denoise for "denoise").  Defaults live in those dataclasses
# only: the CLI passes on just the values that a flag or the config file sets.
_SETTINGS = {
    "calib": "calibration", "clouds": "cloud_manifest", "dets": "detection_manifest",
    "out": "out_dir", "tol": "tolerance", "conf": "confidence", "classes": "classes",
    "k": "kmeans.k", "max_iter": "kmeans.max_iter", "seed": "kmeans.seed",
    "denoise": "denoise", "distortion": "distortion", "workers": "workers",
}
_REQUIRED = ("calib", "clouds", "dets", "out")


def _parse_classes(value) -> frozenset[int]:
    """Class ids from ids or names: one comma-separated string, or a list of them."""
    if not isinstance(value, (str, list)):
        raise ValueError(f"classes must be a string or a list, got {value!r}")
    ids = set()
    for token in [value] if isinstance(value, str) else value:
        for part in str(token).split(","):
            part = part.strip()
            if not part:
                continue
            if part.isascii() and part.removeprefix("-").isdigit():
                ids.add(int(part))
            elif part in CLASS_NAME_TO_ID:
                ids.add(CLASS_NAME_TO_ID[part])
            else:
                raise ValueError(f"unknown class '{part}'")
    return frozenset(ids)


def _number(kind: type):
    """An argparse type: a flag's ``kind`` by the number rule of the text formats."""
    parse = partial(ascii_number, kind=kind)
    parse.__name__ = kind.__name__  # argparse's "invalid int value: '1_0'"
    return parse


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pclabel",
        description="Label LIDAR point clouds from 2D camera detections and "
        "denoise the labels with seeded k-means.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run the labeling pipeline over a frame sequence")
    run.add_argument("--calib", help="calibration JSON file")
    run.add_argument("--clouds", help="cloud manifest file")
    run.add_argument("--dets", help="detection manifest file")
    run.add_argument("--out", help="output directory")
    run.add_argument("--config", help="JSON config file; flags override its values")
    run.add_argument("--tol", type=_number(float), help="frame matching tolerance, seconds")
    run.add_argument("--conf", type=_number(float), help="detection confidence threshold")
    run.add_argument("--classes", help="comma-separated class ids or names to keep")
    run.add_argument("--k", type=_number(int), help="k-means cluster count")
    run.add_argument("--max-iter", type=_number(int), help="k-means iteration cap")
    run.add_argument("--seed", type=_number(int), help="k-means RNG seed")
    run.add_argument("--no-denoise", dest="denoise", action="store_false", default=None,
                     help="skip clustering")
    run.add_argument("--distortion", action="store_true", default=None,
                     help="apply lens distortion when projecting (raw-image boxes)")
    run.add_argument("--workers", type=_number(int), help="worker process count")

    gen = sub.add_parser("gen-scene", help="generate a synthetic scene with ground truth")
    gen.add_argument("--out", required=True, help="output directory")
    gen.add_argument("--frames", type=_number(int), default=20)
    gen.add_argument("--objects", type=_number(int), default=3, help="planted objects per frame")
    gen.add_argument("--noise", type=_number(float), default=0.3, help="noise fraction of labeled points")
    gen.add_argument("--seed", type=_number(int), default=0)
    gen.add_argument("--cameras", type=_number(int), default=5)
    gen.add_argument("--points-per-object", type=_number(int), default=900)

    stats = sub.add_parser("stats", help="summarize a report CSV")
    stats.add_argument("csv", help="report CSV written by 'run'")
    stats.add_argument("--compare", help="second report CSV to diff against")
    return parser


def _load_config(path: str) -> dict:
    try:
        return read_json_object(Path(path), _SETTINGS)
    except OSError as e:
        raise ValueError(f"{path}: {e.strerror or e}") from e


def _with(cfg: PipelineConfig, field: str, value) -> PipelineConfig:
    """A copy of ``cfg`` with one field set; the dataclasses validate it."""
    if field.startswith("kmeans."):
        return replace(cfg, kmeans=replace(cfg.kmeans, **{field.removeprefix("kmeans."): value}))
    return replace(cfg, **{field: value})


def _pipeline_config(args) -> PipelineConfig:
    """The run's config from its flags and config file.

    Flags win over the file.  A bad value raises ValueError naming its
    source: the config file or the flag.
    """
    given = {}  # key -> (value, source)
    if args.config:
        given = {key: (value, args.config) for key, value in _load_config(args.config).items()}
    for key in _SETTINGS:
        if getattr(args, key) is not None:
            flag = "--no-denoise" if key == "denoise" else "--" + key.replace("_", "-")
            given[key] = (getattr(args, key), flag)

    def checked(key: str, build):
        if key not in given:
            raise ValueError(f"--{key} is required (flag or config file)")
        value, source = given[key]
        try:
            return build(_parse_classes(value) if key == "classes" else value)
        except ValueError as e:
            raise ValueError(f"{source}: {e}") from e

    cfg = PipelineConfig(**{
        _SETTINGS[key]: checked(key, partial(check_path, _SETTINGS[key])) for key in _REQUIRED
    })
    for key, field in _SETTINGS.items():
        if key in given:
            cfg = checked(key, lambda value: _with(cfg, field, value))
    return cfg


def _run_command(args) -> int:
    try:
        cfg = _pipeline_config(args)
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    result = run_pipeline(cfg)
    print(result.summary.render())
    if result.frames:
        times = [f.seconds for f in result.frames]
        print(
            f"frame time: mean {sum(times) / len(times):.3f} s, "
            f"max {max(times):.3f} s, total {result.total_seconds:.3f} s"
        )
    print(f"outputs written to {cfg.out_dir}")
    return 0


def _gen_scene_command(args) -> int:
    paths = scene.gen_scene(
        args.out,
        frames=args.frames,
        objects=args.objects,
        noise_fraction=args.noise,
        seed=args.seed,
        rig=scene.default_rig(args.cameras),
        points_per_object=args.points_per_object,
    )
    print(f"scene written to {paths.out_dir}")
    print(f"  calibration:        {paths.calibration}")
    print(f"  cloud manifest:     {paths.cloud_manifest}")
    print(f"  detection manifest: {paths.detection_manifest}")
    print(f"  ground truth:       {paths.ground_truth}")
    print(f"  frames: {paths.n_frames}, objects per frame: {paths.n_objects}")
    return 0


def _stats_command(args) -> int:
    reports = segment.read_report_csv(args.csv)
    other = segment.read_report_csv(args.compare) if args.compare else None
    summary = segment.aggregate_reports(reports)
    print(summary.render())
    if other is not None:
        by_frame = {r.frame_id: r for r in other}
        print(f"\ncomparison against {args.compare}:")
        print("frame  labeled_a  kept_a  labeled_b  kept_b  kept_delta")
        for r in reports:
            o = by_frame.get(r.frame_id)
            if o is None:
                print(f"{r.frame_id:5d}  missing from second report")
                continue
            print(
                f"{r.frame_id:5d}  {r.labeled_before:9d}  {r.kept_after:6d}  "
                f"{o.labeled_before:9d}  {o.kept_after:6d}  {r.kept_after - o.kept_after:10d}"
            )
        first = {r.frame_id for r in reports}
        for o in other:
            if o.frame_id not in first:
                print(f"{o.frame_id:5d}  missing from first report")
    return 0


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    args = _build_parser().parse_args(argv)
    command = {"run": _run_command, "gen-scene": _gen_scene_command}.get(args.command, _stats_command)
    try:
        code = command(args)
        sys.stdout.flush()  # so that a closed stdout shows here, not at exit
    except BrokenPipeError:
        # the reader has gone (`pclabel stats ... | head`): stop quietly, and
        # point stdout at /dev/null so that the flush at exit fails no more
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (PipelineError, ValueError, OSError) as e:  # a failed run, scene or report: one line
        print(f"error: {e}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:  # Ctrl-C: one line, and the shell's code for SIGINT
        print("error: interrupted", file=sys.stderr)
        return 130
    return code


if __name__ == "__main__":
    sys.exit(main())
