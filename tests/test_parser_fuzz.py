"""Mutation fuzzing of every file parser.

Each test starts from a valid file, applies one to three random edits
(delete a character, replace or insert a token, repeat or drop a line) and
parses the result.  A parser may accept the edited file; if it rejects it,
it must raise only its documented error type, with a message that names
the file.

Inserted digits stay few, so no edit can declare a multi-gigabyte array.
The long digit runs, too long for any integer type, are left out of the
ground-truth edits: a space written into one splits it into numbers that
fit, and ``read_ground_truth`` allocates one entry per index up to the
largest it reads.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

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
    write_pcd,
    write_report_csv,
)
from pclabel.scene import save_rig

_TOKENS = (
    " ", "\n", "\t", "-", "+", ".", ",", "#", ":", '"', "{", "}", "[", "]", "x", "e", "é",
    "0", "-1", "1e3", "nan", "inf", "true", "null",
)
_LONG_DIGITS = ("9" * 25, "9" * 400)  # past int64, and past float
_FUZZ = settings(
    max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)


@st.composite
def _edits(draw, text: str, tokens=_TOKENS + _LONG_DIGITS) -> str:
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(text)))
        op = draw(st.sampled_from(("delete", "replace", "insert", "repeat line", "drop line")))
        if op == "delete":
            text = text[:i] + text[i + 1:]
        elif op in ("replace", "insert"):
            text = text[:i] + draw(st.sampled_from(tokens)) + text[i + (op == "replace"):]
        else:
            lines = text.splitlines(keepends=True) or [""]
            j = draw(st.integers(0, len(lines) - 1))
            lines[j:j + 1] = [lines[j]] * (2 if op == "repeat line" else 0)
            text = "".join(lines)
    return text


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
    write_pcd(frame, tmp / "labeled.pcd", labels=lc, data="ascii")
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
])
@_FUZZ
@given(data=st.data())
def test_edited_text_file(tmp_path, reference, data, name, parse, error):
    path = tmp_path / f"edited {name}"
    tokens = _TOKENS if name == "ground truth" else _TOKENS + _LONG_DIGITS
    path.write_text(data.draw(_edits(reference[name], tokens)))
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
    path.write_bytes(data.draw(_edits(header)).encode() + bytes(body))
    _parses_or_names_file(read_pcd, path, PcdError)
