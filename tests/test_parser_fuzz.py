"""Mutation fuzzing of every file parser.

Each test starts from a valid file, applies one to three random edits
(delete a character, replace or insert a token, repeat or drop a line) and
parses the result.  One token is the byte 0xff, so some files are not UTF-8.  A parser may accept the edited file; if it rejects it,
it must raise only its documented error type, with a message that names
the file.  A detection file is never rejected whole once it decodes: each
of its record lines must come back as one valid ``Detection`` or one
rejection carrying its line number.

Inserted digits stay few, so no edit can declare a multi-gigabyte array.
Long digit runs, too long for any integer type, are inserted too: a space
written into one splits it into numbers that fit, which a ground-truth
file then lists as point indices past ``scene.MAX_FRAME_POINTS``.
"""

import math
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from helpers import write_ascii_pcd
from pclabel import (
    CalibrationError,
    FrameReport,
    LabeledCloud,
    PcdError,
    PointCloudFrame,
    default_rig,
    load_rig,
    read_ground_truth,
    read_manifest,
    read_pcd,
    read_report_csv,
    save_rig,
    write_pcd,
    write_report_csv,
)
from pclabel.detect_ingest import load_detections

_TOKENS = (
    " ", "\n", "\t", "-", "+", ".", ",", "#", ":", '"', "{", "}", "[", "]", "x", "e", "é",
    "_", "\u0663",  # Python's int() and float() read "1_0" and "\u0663" (Arabic-Indic 3) as numbers
    "0", "-1", "1e3", "nan", "inf", "true", "null",
    "\udcff",  # written as the byte 0xff, which is not UTF-8 (see _encode)
)
_LONG_DIGITS = ("9" * 25, "9" * 400)  # past int64, and past float
_FUZZ = settings(
    max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)


@st.composite
def _edits(draw, text: str) -> str:
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(text)))
        op = draw(st.sampled_from(("delete", "replace", "insert", "repeat line", "drop line")))
        if op == "delete":
            text = text[:i] + text[i + 1:]
        elif op in ("replace", "insert"):
            text = text[:i] + draw(st.sampled_from(_TOKENS + _LONG_DIGITS)) + text[i + (op == "replace"):]
        else:
            lines = text.splitlines(keepends=True) or [""]
            j = draw(st.integers(0, len(lines) - 1))
            lines[j:j + 1] = [lines[j]] * (2 if op == "repeat line" else 0)
            text = "".join(lines)
    return text


def _encode(text: str) -> bytes:
    """``text`` as UTF-8, except that a lone surrogate U+DC80-U+DCFF becomes
    the single byte it escapes."""
    return text.encode("utf-8", "surrogateescape")


def _parses_or_names_file(parse, path, error: type) -> None:
    try:
        parse(path)
    except error as e:
        assert str(path) in str(e)


def _small_frame(with_labels: bool):
    xyz = np.array([[1.5, -2.25, 3.0], [0.0, 0.5, 12.0], [4.0, 4.0, -1.0]], dtype=np.float32)
    frame = PointCloudFrame(0, 0.0, xyz, intensity=np.array([0.25, 0.5, 1.0], dtype=np.float32))
    if not with_labels:
        return frame, None
    lc = LabeledCloud.empty(0, 3)
    lc.class_id[:2] = 2
    lc.camera_id[:2] = lc.det_index[:2] = 0
    lc.cluster_id[:2] = lc.kept[:2] = 1
    return frame, lc


def _reference_texts(tmp) -> dict[str, str]:
    frame, lc = _small_frame(with_labels=True)
    write_ascii_pcd(frame, tmp / "labeled.pcd", labels=lc)
    save_rig(default_rig(2), tmp / "rig.json")
    write_report_csv(tmp / "report.csv", [
        FrameReport(0, 100, 50, 40, {2: 30, 0: 20}, {2: 25, 0: 15}),
        FrameReport(1, 90, 0, 0, {}, {}),
    ])
    return {
        "pcd": (tmp / "labeled.pcd").read_text(),
        "rig": (tmp / "rig.json").read_text(),
        "manifest": "# stream frame time path\ncloud 0 0.0 clouds/a.pcd\ncam0 0 0.005 dets/a.txt\n"
                    "cloud 1 0.1 clouds/b.pcd\ncam0 1 0.105 dets/b.txt\n",
        "ground truth": "0 0 1\n0 1 -1\n0 2 0\n1 0 2\n1 1 -1\n",
        "report": (tmp / "report.csv").read_text(),
        "detections": "# cam frame class conf x0 y0 x1 y1\n0 0 2 0.9 10 10 50 50\n0 0 7 0.25 0 5.5 120 80\n",
    }


@pytest.fixture(scope="module")
def reference(tmp_path_factory):
    return _reference_texts(tmp_path_factory.mktemp("reference"))


@pytest.mark.parametrize("name, parse, error", [
    ("pcd", read_pcd, PcdError),
    ("rig", load_rig, CalibrationError),
    ("manifest", read_manifest, ValueError),
    ("ground truth", read_ground_truth, ValueError),
    ("report", read_report_csv, ValueError),
    ("detections", load_detections, ValueError),
])
@_FUZZ
@given(data=st.data())
def test_edited_text_file(tmp_path, reference, data, name, parse, error):
    path = tmp_path / f"edited {name}"
    path.write_bytes(_encode(data.draw(_edits(reference[name]))))
    _parses_or_names_file(parse, path, error)


@_FUZZ
@given(data=st.data())
def test_edited_binary_pcd(tmp_path, data):
    path = tmp_path / "edited.pcd"
    frame, lc = _small_frame(with_labels=data.draw(st.booleans()))
    write_pcd(frame, path, labels=lc)
    raw = path.read_bytes()
    header = raw[:raw.index(b"DATA binary\n") + len(b"DATA binary\n")].decode("ascii")
    body = bytearray(raw[len(header):])
    for _ in range(data.draw(st.integers(0, 2))):  # header edits are drawn below too
        i = data.draw(st.integers(0, len(body)))
        body[i:i + data.draw(st.integers(0, 1))] = data.draw(st.binary(max_size=2))
    path.write_bytes(_encode(data.draw(_edits(header))) + bytes(body))
    _parses_or_names_file(read_pcd, path, PcdError)


@_FUZZ
@given(data=st.data())
def test_edited_detection_file_accounts_for_every_line(tmp_path, reference, data):
    # a detection file is never rejected whole: each record line is read
    # into a Detection or rejected with its line number
    path = tmp_path / "edited detections"
    raw = _encode(data.draw(_edits(reference["detections"])))
    path.write_bytes(raw)
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError:
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: not a text file"):
            load_detections(path)
        return
    dets, rejected = load_detections(path)
    lines = text.split("\n")  # the only line break an edit writes
    records = [n for n, line in enumerate(lines, start=1) if line.strip() and not line.strip().startswith("#")]
    assert len(dets) + len(rejected) == len(records)
    rejected_lines = [r.line_no for r in rejected]
    assert rejected_lines == sorted(set(rejected_lines)) and set(rejected_lines) <= set(records)
    assert all(r.line == lines[r.line_no - 1] for r in rejected)
    for d in dets:
        box = (d.box.x_min, d.box.y_min, d.box.x_max, d.box.y_max)
        assert all(math.isfinite(c) for c in box)
        assert d.box.x_min < d.box.x_max and d.box.y_min < d.box.y_max
        assert 0.0 <= d.confidence <= 1.0
        assert 0 <= d.class_id <= 79


# two lines each, the second holding a 0xff byte, which UTF-8 never uses
_NOT_UTF8 = {
    "manifest": b"# stream frame time path\ncloud 0 0.0 clouds/\xff.pcd\n",
    "ground truth": b"0 0 1\n0 1 \xff\n",
    "report": b"frame_id,total_points,labeled_before,kept_after,dropped,drop_rate_percent\n0,1,0,0,0,0\xff\n",
    "detections": b"0 0 2 0.9 10 10 50 50\n0 0 2 0.9 \xff 10 50 50\n",
}


@pytest.mark.parametrize("name, parse", [
    ("manifest", read_manifest),
    ("ground truth", read_ground_truth),
    ("report", read_report_csv),
    ("detections", load_detections),
])
def test_text_that_is_not_utf8_names_the_file(tmp_path, name, parse):
    path = tmp_path / f"{name}.txt"
    path.write_bytes(_NOT_UTF8[name])
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: .*{re.escape(str(path))}:2: ") as e:
        parse(path)
    assert not isinstance(e.value, UnicodeDecodeError)


@pytest.mark.parametrize("parse, text", [
    (read_ground_truth, b"0 0 1\n0 x 1\n0 2 \xff\n"),
    (read_report_csv,
     b"frame_id,total_points,labeled_before,kept_after,dropped,drop_rate_percent\n0,1\n1,1,0,0,0,\xff\n"),
], ids=["ground truth", "report"])
def test_a_malformed_line_above_bytes_that_are_not_utf8_is_named(tmp_path, parse, text):
    # the first bad line in file order is the one named, whatever is wrong
    # with it, as for manifests (test_cloud_io's malformed_then_bytes)
    path = tmp_path / "a.txt"
    path.write_bytes(text)
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:2: "):
        parse(path)
