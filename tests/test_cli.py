import codecs
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import pclabel
from pclabel import cli
from pclabel.cli import main
from pclabel import FrameReport, read_report_csv, write_report_csv


def _gen(tmp_path, **kw):
    out = tmp_path / "scene"
    args = ["gen-scene", "--out", str(out), "--frames", "3", "--objects", "2", "--seed", "5"]
    for key, value in kw.items():
        args += [f"--{key}", str(value)]
    assert main(args) == 0
    return out


def _run_args(scene, out, extra=()):
    return [
        "run",
        "--calib", str(scene / "calibration.json"),
        "--clouds", str(scene / "clouds.manifest"),
        "--dets", str(scene / "dets.manifest"),
        "--out", str(out),
        "--seed", "5",
        *extra,
    ]


def test_gen_run_stats_happy_path(tmp_path, capsys):
    scene = _gen(tmp_path)
    out = tmp_path / "out"
    assert main(_run_args(scene, out)) == 0
    captured = capsys.readouterr().out
    assert "mean drop rate" in captured
    assert "frame time" in captured
    assert (out / "report.csv").exists()
    assert (out / "summary.txt").exists()

    assert main(["stats", str(out / "report.csv")]) == 0
    stats_out = capsys.readouterr().out
    assert "mean drop rate" in stats_out


def test_stats_compare(tmp_path, capsys):
    scene = _gen(tmp_path)
    out_on = tmp_path / "on"
    out_off = tmp_path / "off"
    assert main(_run_args(scene, out_on)) == 0
    assert main(_run_args(scene, out_off, extra=("--no-denoise",))) == 0
    capsys.readouterr()

    on_reports = read_report_csv(out_on / "report.csv")
    off_reports = read_report_csv(out_off / "report.csv")
    assert [r.labeled_before for r in on_reports] == [r.labeled_before for r in off_reports]
    assert all(r.dropped == 0 for r in off_reports)

    assert main(["stats", str(out_on / "report.csv"), "--compare", str(out_off / "report.csv")]) == 0
    text = capsys.readouterr().out
    assert "comparison against" in text
    assert "kept_delta" in text


def test_run_missing_required_flag(tmp_path, capsys):
    assert main(["run", "--calib", "x.json"]) == 2
    assert "required" in capsys.readouterr().err


def test_run_with_config_file(tmp_path, capsys):
    scene = _gen(tmp_path)
    out = tmp_path / "out"
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({
        "calib": str(scene / "calibration.json"),
        "clouds": str(scene / "clouds.manifest"),
        "dets": str(scene / "dets.manifest"),
        "out": str(out),
        "k": 3,
        "seed": 5,
        "classes": "car,truck",
    }))
    assert main(["run", "--config", str(config)]) == 0
    assert (out / "report.csv").exists()


def test_config_unknown_key(tmp_path, capsys):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"calib": "a", "clouds": "b", "dets": "c", "out": "d", "mode": 1}))
    assert main(["run", "--config", str(config)]) == 2
    assert "unknown top-level keys" in capsys.readouterr().err


def test_flag_overrides_config(tmp_path):
    scene = _gen(tmp_path)
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({
        "calib": str(scene / "calibration.json"),
        "clouds": str(scene / "clouds.manifest"),
        "dets": str(scene / "dets.manifest"),
        "out": str(tmp_path / "ignored"),
        "seed": 5,
    }))
    out = tmp_path / "flagged"
    assert main(["run", "--config", str(config), "--out", str(out)]) == 0
    assert (out / "report.csv").exists()
    assert not (tmp_path / "ignored").exists()


def test_unknown_class_name(tmp_path, capsys):
    scene = _gen(tmp_path)
    code = main(_run_args(scene, tmp_path / "out", extra=("--classes", "dragon")))
    assert code == 2
    assert "unknown class" in capsys.readouterr().err


def test_classes_must_be_a_string_or_a_list(tmp_path, capsys):
    scene = _gen(tmp_path)
    config = _config(tmp_path, json.dumps({"classes": 2}))
    capsys.readouterr()
    assert main(_run_args(scene, tmp_path / "out", extra=("--config", str(config)))) == 2
    assert capsys.readouterr().err.startswith(f"error: {config}: classes must be a string or a list")


def test_class_names_accepted(tmp_path):
    scene = _gen(tmp_path)
    out = tmp_path / "out"
    assert main(_run_args(scene, out, extra=("--classes", "car,person,truck"))) == 0
    reports = read_report_csv(out / "report.csv")
    assert any(r.labeled_before > 0 for r in reports)


def test_empty_class_entries_are_skipped(tmp_path):
    scene = _gen(tmp_path)
    assert main(_run_args(scene, tmp_path / "a", extra=("--classes", "car,person"))) == 0
    assert main(_run_args(scene, tmp_path / "b", extra=("--classes", ",car,, person ,"))) == 0
    assert (tmp_path / "a" / "report.csv").read_bytes() == (tmp_path / "b" / "report.csv").read_bytes()


def test_run_failure_returns_one(tmp_path, capsys):
    assert main([
        "run", "--calib", str(tmp_path / "missing.json"),
        "--clouds", "c", "--dets", "d", "--out", str(tmp_path / "o"),
    ]) == 1
    assert "error" in capsys.readouterr().err


def test_an_interrupted_run_exits_130_with_one_line(tmp_path, capsys, monkeypatch):
    scene = _gen(tmp_path)

    def interrupted(cfg):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "run_pipeline", interrupted)
    capsys.readouterr()
    try:
        code = main(_run_args(scene, tmp_path / "out"))
    except KeyboardInterrupt:
        pytest.fail("the interrupt reached main's caller")
    assert code == 130
    assert capsys.readouterr().err == "error: interrupted\n"


@pytest.mark.parametrize("victim", ["clouds.manifest", "dets/frame_000001_cam1.txt"])
def test_run_names_a_file_that_is_not_utf8(tmp_path, capsys, victim):
    scene = _gen(tmp_path)
    path = scene / victim
    path.write_bytes(path.read_bytes() + b"# \xff\n")
    capsys.readouterr()
    assert main(_run_args(scene, tmp_path / "out")) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"{path}: " in err


def test_stats_names_a_report_that_is_not_utf8(tmp_path, capsys):
    report = tmp_path / "report.csv"
    write_report_csv(report, [FrameReport(0, 100, 50, 40, {2: 50}, {2: 40})])
    report.write_bytes(report.read_bytes() + b"\xff\n")
    assert main(["stats", str(report)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {report}: ")


def test_stats_into_a_closed_pipe_exits_quietly(tmp_path):
    # `pclabel stats report.csv | head -n 1`: the output is larger than a
    # pipe holds, so writes go on after the reader has closed its end
    report = tmp_path / "report.csv"
    write_report_csv(report, [FrameReport(i, 100, 50, 40, {2: 50}, {2: 40}) for i in range(5000)])
    src = str(Path(pclabel.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.Popen(
        [sys.executable, "-m", "pclabel.cli", "stats", str(report)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert first.startswith(b"frame  labeled")
    assert err == b""


def test_stats_missing_file(tmp_path, capsys):
    assert main(["stats", str(tmp_path / "nope.csv")]) == 1
    assert "error" in capsys.readouterr().err


def test_stats_truncated_row_names_file_and_line(tmp_path, capsys):
    scene = _gen(tmp_path)
    out = tmp_path / "out"
    assert main(_run_args(scene, out)) == 0
    report = out / "report.csv"
    lines = report.read_text().splitlines()
    lines[2] = ",".join(lines[2].split(",")[:3])
    report.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["stats", str(report)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {report}:3: ")


def test_stats_rejects_contradicting_rows(tmp_path, capsys):
    report = tmp_path / "a.csv"
    report.write_text(
        "frame_id,total_points,labeled_before,kept_after,dropped,drop_rate_percent,"
        "class_2_before,class_2_after\n"
        "0,100,50,40,10,nan,50,40\n"
        "1,100,-5,40,99,20.0,50,40\n"
    )
    assert main(["stats", str(report)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {report}:2: drop_rate_percent is nan")


def test_stats_compare_lists_frames_only_the_second_report_has(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_report_csv(a, [FrameReport(0, 100, 50, 40, {2: 50}, {2: 40})])
    write_report_csv(b, [FrameReport(0, 100, 50, 45, {2: 50}, {2: 45}),
                         FrameReport(7, 100, 20, 10, {2: 20}, {2: 10})])
    assert main(["stats", str(a), "--compare", str(b)]) == 0
    rows = capsys.readouterr().out.split("kept_delta\n")[1].splitlines()
    assert rows == [
        "    0         50      40         50      45          -5",
        "    7  missing from first report",
    ]


def test_stats_compare_lists_frames_only_the_first_report_has(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_report_csv(a, [FrameReport(0, 100, 50, 40, {2: 50}, {2: 40}),
                         FrameReport(3, 100, 20, 10, {2: 20}, {2: 10})])
    write_report_csv(b, [FrameReport(0, 100, 50, 45, {2: 50}, {2: 45})])
    assert main(["stats", str(a), "--compare", str(b)]) == 0
    rows = capsys.readouterr().out.split("kept_delta\n")[1].splitlines()
    assert rows == [
        "    0         50      40         50      45          -5",
        "    3  missing from second report",
    ]


def test_stats_prints_the_runs_summary(tmp_path, capsys):
    # the reference scene: 20 frames, 3 objects, 30% noise, seed 0; k=3, k-means seed 0
    scene, out = tmp_path / "scene", tmp_path / "out"
    assert main(["gen-scene", "--out", str(scene)]) == 0
    assert main(_run_args(scene, out, extra=("--seed", "0", "--k", "3"))) == 0
    capsys.readouterr()
    assert main(["stats", str(out / "report.csv")]) == 0
    assert capsys.readouterr().out == (out / "summary.txt").read_text()


def test_gen_scene_invalid_noise(tmp_path, capsys):
    assert main(["gen-scene", "--out", str(tmp_path / "s"), "--noise", "1.0"]) == 1
    assert "noise fraction" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value, message", [
    ("--cameras", "0", "rig must hold at least one camera"),  # was a ZeroDivisionError
    ("--cameras", "6", "cameras must be <= 5, got 6"),  # named the rig's camera id 5
    ("--objects", "-1", "objects must be >= 0, got -1"),  # was a scene of -1 objects
    ("--points-per-object", "0", "points_per_object must be >= 1, got 0"),
    ("--seed", "-1", "seed must be >= 0, got -1"),
    ("--frames", "0", "frames must be >= 1, got 0"),
])
def test_gen_scene_bad_parameter_exits_one_naming_it(tmp_path, capsys, flag, value, message):
    assert main(["gen-scene", "--out", str(tmp_path / "s"), flag, value]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "s").exists()


def test_workers_flag(tmp_path):
    scene = _gen(tmp_path)
    out1 = tmp_path / "w1"
    out4 = tmp_path / "w4"
    assert main(_run_args(scene, out1)) == 0
    assert main(_run_args(scene, out4, extra=("--workers", "4"))) == 0
    assert (out1 / "report.csv").read_bytes() == (out4 / "report.csv").read_bytes()


def _config(tmp_path, text):
    config = tmp_path / "cfg.json"
    config.write_text(text)
    return config


def test_config_invalid_json_exits_cleanly(tmp_path, capsys):
    config = _config(tmp_path, "{not json")
    assert main(["run", "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {config}: ")
    assert "Traceback" not in err


def test_config_top_level_list_rejected(tmp_path, capsys):
    config = _config(tmp_path, "[1, 2]")
    assert main(["run", "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {config}: ")
    assert "object" in err and "unknown top-level keys" not in err


def test_config_missing_file_exits_cleanly(tmp_path, capsys):
    config = tmp_path / "absent.json"
    assert main(["run", "--config", str(config)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {config}: ")


def test_config_wrongly_typed_value_names_file_and_key(tmp_path, capsys):
    scene = _gen(tmp_path)
    config = _config(tmp_path, json.dumps({"k": "three"}))
    assert main(_run_args(scene, tmp_path / "out", extra=("--config", str(config)))) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {config}: k ")
    assert not (tmp_path / "out").exists()


def test_config_bool_is_not_read_from_a_string(tmp_path, capsys):
    # "false" is a non-empty string; it must not silently turn denoising on
    scene = _gen(tmp_path)
    config = _config(tmp_path, json.dumps({"denoise": "false"}))
    assert main(_run_args(scene, tmp_path / "out", extra=("--config", str(config)))) == 2
    assert capsys.readouterr().err.startswith(f"error: {config}: denoise ")


def test_config_out_of_range_value_names_file(tmp_path, capsys):
    scene = _gen(tmp_path)
    config = _config(tmp_path, json.dumps({"workers": 0}))
    assert main(_run_args(scene, tmp_path / "out", extra=("--config", str(config)))) == 2
    assert capsys.readouterr().err.startswith(f"error: {config}: workers must be >= 1")


def test_zero_k_flag_names_the_flag(tmp_path, capsys):
    scene = _gen(tmp_path)
    assert main(_run_args(scene, tmp_path / "out", extra=("--k", "0"))) == 2
    assert capsys.readouterr().err.startswith("error: --k: k must be >= 1")


def test_zero_workers_flag_names_the_flag(tmp_path, capsys):
    scene = _gen(tmp_path)
    assert main(_run_args(scene, tmp_path / "out", extra=("--workers", "0"))) == 2
    assert capsys.readouterr().err.startswith("error: --workers: workers must be >= 1")


def test_flag_value_overrides_bad_config_value(tmp_path):
    scene = _gen(tmp_path)
    config = _config(tmp_path, json.dumps({"k": 0}))
    extra = ("--config", str(config), "--k", "2")
    assert main(_run_args(scene, tmp_path / "out", extra=extra)) == 0


@pytest.mark.parametrize("classes, message", [
    (["car", "dragon"], "unknown class 'dragon'"),
    ([99], "unknown class ids [99]"),
    (["truck", -1, 80], "unknown class ids [-1, 80]"),
    (["--5"], "unknown class '--5'"),
    ("99", "unknown class ids [99]"),
    ("-1", "unknown class ids [-1]"),
    ("truck,80", "unknown class ids [80]"),
    ("٣", "unknown class '٣'"),  # int() reads the Arabic-Indic 3 as 3
])
def test_unknown_class_names_its_source(tmp_path, capsys, classes, message):
    scene = _gen(tmp_path)
    capsys.readouterr()
    if isinstance(classes, list):
        source = str(_config(tmp_path, json.dumps({"classes": classes})))
        extra = ("--config", source)
    else:
        source, extra = "--classes", ("--classes", classes)
    assert main(_run_args(scene, tmp_path / "out", extra=extra)) == 2
    assert capsys.readouterr().err.startswith(f"error: {source}: {message}")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("flag, value, message", [
    ("--conf", "nan", "confidence"),
    ("--conf", "1.5", "confidence"),
    ("--tol", "nan", "tolerance"),
    ("--tol", "-1", "tolerance"),
])
def test_bad_conf_or_tol_flag_exits_two_naming_the_flag(tmp_path, capsys, flag, value, message):
    scene = _gen(tmp_path)
    capsys.readouterr()
    assert main(_run_args(scene, tmp_path / "out", extra=(flag, value))) == 2
    assert capsys.readouterr().err.startswith(f"error: {flag}: {message}")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("flag, value", [
    ("--k", "1_0"), ("--seed", "٣"), ("--tol", "0.0_5"),  # int() and float() read 10, 3 and 0.05
    ("--conf", "0.5_0"), ("--max-iter", "1_0"), ("--workers", "١"),
])
def test_numeric_run_flag_follows_the_number_rule(tmp_path, capsys, flag, value):
    scene = _gen(tmp_path)
    capsys.readouterr()
    with pytest.raises(SystemExit) as exit:
        main(_run_args(scene, tmp_path / "out", extra=(flag, value)))
    assert exit.value.code == 2
    assert f"argument {flag}: invalid " in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("flag, value", [
    ("--frames", "٢"), ("--objects", "1_0"), ("--noise", "0.1_0"), ("--seed", "1_0"),
    ("--cameras", "٢"), ("--points-per-object", "9_00"),
])
def test_numeric_gen_scene_flag_follows_the_number_rule(tmp_path, capsys, flag, value):
    with pytest.raises(SystemExit) as exit:
        main(["gen-scene", "--out", str(tmp_path / "s"), flag, value])
    assert exit.value.code == 2
    assert f"argument {flag}: invalid " in capsys.readouterr().err
    assert not (tmp_path / "s").exists()


@pytest.mark.parametrize("key, value, message", [
    ("out", 3, "out_dir must be a non-empty path, got 3"),
    ("denoise", 0, "denoise must be a bool, got 0"),
    ("distortion", "true", "distortion must be a bool, got 'true'"),
    ("tol", True, "tolerance must be a number, got True"),
    ("conf", "0.5", "confidence must be a number, got '0.5'"),
])
def test_config_value_is_checked_by_the_dataclass(tmp_path, capsys, key, value, message):
    scene = _gen(tmp_path)
    config = _config(tmp_path, json.dumps({key: value}))
    args = _run_args(scene, tmp_path / "out", extra=("--config", str(config)))
    if key == "out":
        i = args.index("--out")
        del args[i:i + 2]
    capsys.readouterr()
    assert main(args) == 2
    assert capsys.readouterr().err == f"error: {config}: {message}\n"
    assert not (tmp_path / "out").exists()


def test_manifest_going_back_in_time_names_file_and_line(tmp_path, capsys):
    scene = _gen(tmp_path)
    manifest = scene / "clouds.manifest"
    first, second, *rest = manifest.read_text().splitlines(keepends=True)
    manifest.write_text("".join([second, first, *rest]))
    capsys.readouterr()
    assert main(_run_args(scene, tmp_path / "out")) == 1
    assert capsys.readouterr().err.startswith(f"error: {manifest}:2: ")


def test_calibration_number_too_large_for_a_float_exits_one(tmp_path, capsys):
    scene = _gen(tmp_path)
    calib = scene / "calibration.json"
    raw = json.loads(calib.read_text())
    raw["cameras"][0]["cy"] = 10 ** 400
    calib.write_text(json.dumps(raw))
    capsys.readouterr()
    assert main(_run_args(scene, tmp_path / "out")) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {calib}: camera 0: field 'cy'")
    assert "Traceback" not in err


def test_config_number_too_large_for_a_float_names_file(tmp_path, capsys):
    scene = _gen(tmp_path)
    config = _config(tmp_path, '{"tol": ' + "9" * 401 + "}")
    capsys.readouterr()
    assert main(_run_args(scene, tmp_path / "out", extra=("--config", str(config)))) == 2
    assert capsys.readouterr().err.startswith(f"error: {config}: tolerance is too large for a float")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key", ["calib", "clouds", "dets", "out"])
@pytest.mark.parametrize("from_config", [False, True])
def test_empty_path_setting_names_its_source(tmp_path, capsys, monkeypatch, key, from_config):
    # Path("") is ".", so an empty --out would otherwise write into the working directory
    scene = _gen(tmp_path)
    args = _run_args(scene, tmp_path / "out")
    i = args.index(f"--{key}")
    if from_config:
        source = str(_config(tmp_path, json.dumps({key: ""})))
        args[i:i + 2] = ["--config", source]
    else:
        source = f"--{key}"
        args[i + 1] = ""
    cwd = tmp_path / "cwd"
    cwd.mkdir()
    monkeypatch.chdir(cwd)
    capsys.readouterr()
    assert main(args) == 2
    assert capsys.readouterr().err.startswith(f"error: {source}: ")
    assert not list(cwd.iterdir()) and not (tmp_path / "out").exists()


# Run in a child process under the C locale with Python's UTF-8 coercion and
# UTF-8 mode both off, so that the locale's encoding is ASCII; the source is
# ASCII, as a command line is decoded in that encoding too.
_ASCII_LOCALE_CHILD = """
import json, locale, sys
from pathlib import Path
from pclabel import load_detections, read_manifest
from pclabel.cli import _load_config
from pclabel.cloud_io import write_manifest

d = Path(sys.argv[1])
dets, rejected = load_detections(d / "dets.txt")
write_manifest(d / "dets.manifest", [("cam0", 0, 0.0, "dets/cam\\u00e9ra.txt")])
print(json.dumps({
    "encoding": locale.getpreferredencoding(False),
    "detections": len(dets),
    "rejected": len(rejected),
    "out": _load_config(str(d / "run.json"))["out"],
    "manifest": read_manifest(d / "dets.manifest")["cam0"][0].path,
}))
"""


def test_text_inputs_are_read_as_utf8_in_an_ascii_locale(tmp_path):
    (tmp_path / "dets.txt").write_bytes("# caméra 0\n0 0 2 0.9 10 10 50 50\n".encode())
    (tmp_path / "run.json").write_bytes('{"out": "démo/out"}'.encode())
    src = str(Path(pclabel.__file__).resolve().parent.parent)
    env = {
        **os.environ, "LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0",
        "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
    }
    proc = subprocess.run(
        [sys.executable, "-c", _ASCII_LOCALE_CHILD, str(tmp_path)],
        capture_output=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr.decode(errors="replace")
    got = json.loads(proc.stdout)
    assert codecs.lookup(got.pop("encoding")).name == "ascii"
    assert got == {
        "detections": 1, "rejected": 0, "out": "démo/out",
        "manifest": f"{tmp_path}/dets/caméra.txt",
    }


def test_output_directory_the_locale_cannot_encode_is_named(tmp_path):
    # in the ASCII locale 'démo/out' has no file-system name: the run fails
    # before it writes anything, and the error names the directory
    scene = _gen(tmp_path)
    (tmp_path / "run.json").write_bytes('{"out": "démo/out"}'.encode())
    src = str(Path(pclabel.__file__).resolve().parent.parent)
    env = {
        **os.environ, "LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0",
        "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
    }
    args = _run_args(scene, tmp_path / "unused")
    del args[args.index("--out"):args.index("--out") + 2]  # the config file's out is used
    proc = subprocess.run(
        [sys.executable, "-c", "import sys; from pclabel.cli import main; sys.exit(main(sys.argv[1:]))",
         *args, "--config", "run.json"],
        capture_output=True, env=env, timeout=60, cwd=tmp_path,
    )
    err = proc.stderr.decode("ascii")  # stderr escapes what the locale cannot encode
    assert proc.returncode == 1, err
    assert "Traceback" not in err
    assert err.startswith("error: output directory d\\xe9mo/out: "), err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.json", "scene"]
