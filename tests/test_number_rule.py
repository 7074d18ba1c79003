"""One number rule for every text format: ASCII, without '_'.

Python's int() and float() read "1_0" as 10 and the Arabic-Indic "١0" as
10 too, so a file with either would read as its valid twin.  Each case
rewrites the number 10 of a valid file; the edited file must fail with the
format's documented error, naming the file and, where the format has
lines, the line.  A detection file rejects the record instead.
"""

import re

import pytest

from pclabel import PcdError, read_ground_truth, read_manifest, read_pcd, read_report_csv
from pclabel.detect_ingest import load_detections

_PCD = (
    "VERSION 0.7\nFIELDS x y z\nSIZE 4 4 4\nTYPE F F F\nCOUNT 1 1 1\nWIDTH 10\nHEIGHT 1\n"
    "VIEWPOINT 0 0 0 1 0 0 0\nPOINTS {}\nDATA ascii\n" + "0 0 1\n" * 10
)
_REPORT = (
    "frame_id,total_points,labeled_before,kept_after,dropped,drop_rate_percent,"
    "class_2_before,class_2_after\n0,100,50,40,{},20.000000,50,40\n"
)

# name, parser, documented error, template holding the number, its line (None: no line named)
_FORMATS = [
    ("manifest", read_manifest, ValueError, "cloud 0 0.0 a.pcd\ncloud {} 0.1 b.pcd\n", 2),
    ("detections", load_detections, None, "0 0 2 0.9 10 10 50 50\n0 0 2 0.9 {} 10 50 50\n", 2),
    ("report", read_report_csv, ValueError, _REPORT, 2),
    ("pcd header", read_pcd, PcdError, _PCD, None),
    ("ground truth", read_ground_truth, ValueError, "0 0 1\n0 {} -1\n", 2),
]


@pytest.mark.parametrize("number", ["1_0", "١0"])
@pytest.mark.parametrize("name, parse, error, template, line", _FORMATS, ids=[f[0] for f in _FORMATS])
def test_number_must_be_ascii_without_underscores(tmp_path, name, parse, error, template, line, number):
    path = tmp_path / name
    path.write_text(template.format("10"), encoding="utf-8")
    parse(path)  # the valid twin parses
    path.write_text(template.format(number), encoding="utf-8")
    if error is None:
        dets, rejected = parse(path)
        assert len(dets) == 1 and [r.line_no for r in rejected] == [line]
        assert rejected[0].reason.startswith("malformed value: ")
        assert number in rejected[0].line
        return
    where = str(path) if line is None else f"{path}:{line}"
    with pytest.raises(error, match=f"^{re.escape(where)}: "):
        parse(path)
