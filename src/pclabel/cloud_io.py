"""Point-cloud frame I/O (PCD v0.7 subset), manifests, and timestamp matching.

Coordinates are stored as float32, matching the 4-byte PCD fields, so a
binary write/read cycle is bit-exact.  ASCII mode prints 9 significant
digits, which also round-trips float32 exactly.
"""

from __future__ import annotations

import logging
import math
import os
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Mapping

import numpy as np

if TYPE_CHECKING:
    from .fusion import LabeledCloud

log = logging.getLogger(__name__)

DEFAULT_MATCH_TOLERANCE = 0.05
# Rows per block wherever a frame-sized temporary would otherwise be built:
# write_pcd's records and label_frame's projections.  Looked up at call
# time, so a test can shrink it to cross block edges.
BLOCK_ROWS = 1 << 15

_HEADER_KEYS = (
    "VERSION", "FIELDS", "SIZE", "TYPE", "COUNT",
    "WIDTH", "HEIGHT", "VIEWPOINT", "POINTS", "DATA",
)
# (TYPE letter, SIZE) -> little-endian numpy dtype
_TYPE_MAP = {
    ("F", 4): "<f4", ("F", 8): "<f8",
    ("I", 1): "<i1", ("I", 2): "<i2", ("I", 4): "<i4", ("I", 8): "<i8",
    ("U", 1): "<u1", ("U", 2): "<u2", ("U", 4): "<u4", ("U", 8): "<u8",
}
# fields this subset interprets, with their required (TYPE, SIZE)
_KNOWN_FIELDS = {
    "x": ("F", 4), "y": ("F", 4), "z": ("F", 4),
    "intensity": ("F", 4), "label": ("I", 4), "cluster": ("I", 4),
}


class PcdError(ValueError):
    """A PCD file violates the supported format subset."""


@dataclass(frozen=True)
class PointCloudFrame:
    """A timestamped, immutable point cloud.

    ``xyz`` is an (n, 3) float32 array in file order; point index is a
    stable identifier.  ``dropped_non_finite`` counts points the parser
    rejected for NaN/Inf coordinates.

    The frame holds read-only views.  An ``xyz`` or ``intensity`` already
    stored as contiguous float32 is aliased, not copied: the caller's
    array stays writeable, and writing to it changes the frame.
    """

    frame_id: int
    timestamp: float
    xyz: np.ndarray
    intensity: np.ndarray | None = None
    dropped_non_finite: int = 0

    def __post_init__(self) -> None:
        xyz = np.asarray(self.xyz, dtype=np.float32)
        if xyz.ndim != 2 or xyz.shape[1] != 3:
            raise ValueError(f"xyz must have shape (n, 3), got {xyz.shape}")
        if not np.isfinite(xyz).all():
            raise ValueError("frame coordinates must be finite")
        xyz = np.ascontiguousarray(xyz).view()
        xyz.flags.writeable = False
        object.__setattr__(self, "xyz", xyz)
        if self.intensity is not None:
            inten = np.ascontiguousarray(np.asarray(self.intensity, dtype=np.float32)).view()
            if inten.shape != (len(xyz),):
                raise ValueError(f"intensity length {inten.shape} does not match {len(xyz)} points")
            inten.flags.writeable = False
            object.__setattr__(self, "intensity", inten)

    def __len__(self) -> int:
        return self.xyz.shape[0]


def _parse_header(fh, path: Path) -> tuple[dict[str, list[str]], int]:
    """The header keys and the number of the DATA line, which ends the header."""
    header: dict[str, list[str]] = {}
    for lineno, raw in enumerate(fh, start=1):
        line = raw.decode("ascii", errors="replace").strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        key = tokens[0].upper()
        if key not in _HEADER_KEYS:
            raise PcdError(f"{path}:{lineno}: unknown header key '{tokens[0]}'")
        if key in header:
            raise PcdError(f"{path}:{lineno}: duplicate header key '{key}'")
        header[key] = tokens[1:]
        if key == "DATA":
            return header, lineno
    raise PcdError(f"{path}: unexpected end of file inside header")


def _field_layout(header: dict[str, list[str]]) -> np.dtype:
    """The record dtype of one PCD row: a (name, type, (COUNT,)) field per FIELDS entry."""
    for key in ("FIELDS", "SIZE", "TYPE", "COUNT"):
        if key not in header:
            raise PcdError(f"missing header key '{key}'")
    names = header["FIELDS"]
    try:
        sizes = [int(s) for s in header["SIZE"]]
        counts = [int(c) for c in header["COUNT"]]
    except ValueError as e:
        raise PcdError(f"malformed SIZE/COUNT: {e}") from e
    types = header["TYPE"]
    if not (len(names) == len(sizes) == len(types) == len(counts)):
        raise PcdError("FIELDS, SIZE, TYPE and COUNT lengths disagree")
    if len(set(names)) != len(names):
        raise PcdError("duplicate field names in FIELDS")
    for req in ("x", "y", "z"):
        if req not in names:
            raise PcdError(f"missing required field '{req}'")
    for name, typ, size, count in zip(names, types, sizes, counts):
        if name in _KNOWN_FIELDS:
            if (typ, size) != _KNOWN_FIELDS[name]:
                want = _KNOWN_FIELDS[name]
                raise PcdError(
                    f"field '{name}' must be TYPE {want[0]} SIZE {want[1]}, got {typ} {size}"
                )
            if count != 1:
                raise PcdError(f"field '{name}' must have COUNT 1, got {count}")
        if (typ, size) not in _TYPE_MAP:
            raise PcdError(f"unsupported field type {typ}{size} for '{name}'")
        if count < 1:
            raise PcdError(f"field '{name}' must have COUNT >= 1, got {count}")
    return np.dtype([
        (name, _TYPE_MAP[(typ, size)], (count,))
        for name, typ, size, count in zip(names, types, sizes, counts)
    ])


def _declared_points(header: dict[str, list[str]]) -> int:
    try:
        if "POINTS" in header:
            return int(header["POINTS"][0])
        if "WIDTH" in header and "HEIGHT" in header:
            return int(header["WIDTH"][0]) * int(header["HEIGHT"][0])
    except (ValueError, IndexError) as e:
        raise PcdError(f"malformed point count: {e}") from e
    raise PcdError("missing header key 'POINTS'")


# Integer fields are read as text and converted by _to_ints, so a token such
# as "1.5" is rejected on every numpy: older ones read it into an integer
# through a float with only a DeprecationWarning.  loadtxt cuts a longer
# token to this width, so _to_ints rejects one that fills it.
_INT_TEXT = np.dtype("S24")


def _to_ints(tokens: np.ndarray, base: np.dtype) -> np.ndarray:
    """Integer tokens read as text, as ``base``; anything but in-range [+-]digits raises."""
    digits = np.char.lstrip(tokens, b"+-" if base.kind == "i" else b"+")
    size = np.char.str_len(tokens)
    bad = (size - np.char.str_len(digits) > 1) | ~np.char.isdigit(digits)
    bad |= size >= _INT_TEXT.itemsize
    if not bad.any():
        wide = tokens.astype(np.int64 if base.kind == "i" else np.uint64)  # OverflowError past 64 bits
        info = np.iinfo(base)
        bad = (wide < info.min) | (wide > info.max)
        if not bad.any():
            return wide.astype(base)
    raise ValueError(f"could not convert string {tokens[bad][0].decode()!r} to {base}")


def read_text(path: Path, newline: str | None = None) -> str:
    """The text of ``path``; bytes the text encoding cannot decode raise
    ValueError naming the file.  ``newline`` is ``open``'s."""
    with open(path, newline=newline) as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as e:
            raise ValueError(f"{path}: not a text file: {e}") from None


def _load_rows(lines: list[str], dtype: np.dtype) -> np.ndarray:
    """``lines`` as ``dtype`` records; raises ValueError or OverflowError on a bad token."""
    text = np.dtype([
        (name, _INT_TEXT if dtype[name].base.kind in "iu" else dtype[name].base, dtype[name].shape)
        for name in dtype.names
    ])
    raw = np.loadtxt(lines, dtype=text, comments=None, ndmin=1)
    rec = np.empty(len(raw), dtype=dtype)
    for name in dtype.names:
        is_int = text[name].base == _INT_TEXT
        rec[name] = _to_ints(raw[name], dtype[name].base) if is_int else raw[name]
    return rec


def parse_rows(
    text: str, dtype: np.dtype, path: Path, first_line: int = 1, error: type = ValueError
) -> np.ndarray:
    """Parse whitespace-separated text, one ``dtype`` record per non-blank line.

    numpy's C parser checks the column count and converts every float
    field; integer fields must be in-range [+-]digits.  A bad line raises
    ``error`` naming ``path:line``, where ``text`` starts on line
    ``first_line`` of the file.
    """
    if not text or text.isspace():  # loadtxt warns on input without rows
        return np.empty(0, dtype=dtype)
    lines = text.splitlines()
    try:
        return _load_rows(lines, dtype)
    except (ValueError, OverflowError) as e:
        failure, where = e, str(path)
    # error path only: a row parses or fails on its own, so bisect for the
    # first bad one, about one more full parse in all
    linenos = [n for n, line in enumerate(lines, start=first_line) if line.strip()]
    rows = [lines[n - first_line] for n in linenos]
    lo, hi = 0, len(rows)  # the first bad row is in rows[lo:hi]
    while hi - lo > 1:
        mid = (lo + hi) // 2
        try:
            _load_rows(rows[lo:mid], dtype)
        except (ValueError, OverflowError):
            hi = mid
        else:
            lo = mid
    try:
        _load_rows(rows[lo:lo + 1], dtype)
    except (ValueError, OverflowError) as e:
        failure, where = e, f"{path}:{linenos[lo]}"
    # numpy's own row number counts from the wrong place, so drop it
    reason = str(failure).split(" at row ")[0]
    raise error(f"{where}: malformed row: {reason}") from failure


def read_pcd_columns(path: str | Path) -> dict[str, np.ndarray]:
    """Parse a PCD file and return its recognized columns, unfiltered.

    Keys are the subset fields present in the file (x, y, z, intensity,
    label, cluster); unrecognized fields are skipped.  Row order and count
    match the file exactly.  The columns are strided views of one record
    array (a binary body is read straight into it), not copies: they keep
    that whole array alive.  A malformed file raises PcdError naming the
    file, and the line where one is to blame.
    """
    p = Path(path)
    with open(p, "rb") as fh:
        header, data_line = _parse_header(fh, p)
        try:
            dtype = _field_layout(header)
            n = _declared_points(header)
        except PcdError as e:
            raise PcdError(f"{p}: {e}") from e
        mode = header["DATA"][0].lower() if header["DATA"] else ""
        if mode == "binary":
            size = n * dtype.itemsize
            held = os.fstat(fh.fileno()).st_size - fh.tell()
            if held == size:
                rec = np.empty(n, dtype=dtype)
                held = fh.readinto(rec)
            if held != size:
                raise PcdError(
                    f"{p}: point count mismatch: header declares {n} points "
                    f"({size} bytes) but file holds {held} bytes"
                )
        elif mode == "ascii":
            text = fh.read().decode("ascii", errors="replace")
            rec = parse_rows(text, dtype, p, first_line=data_line + 1, error=PcdError)
            if len(rec) != n:
                raise PcdError(
                    f"{p}: point count mismatch: header declares {n} points "
                    f"but file has {len(rec)} rows"
                )
        else:
            raise PcdError(f"{p}: unsupported DATA mode '{mode}'")
    return {name: rec[name].reshape(n) for name in dtype.names if name in _KNOWN_FIELDS}


def read_pcd(path: str | Path, frame_id: int = 0, timestamp: float = 0.0) -> PointCloudFrame:
    """Read a PCD file into a frame, dropping non-finite points with a warning.

    The frame id and timestamp are not stored in PCD files; callers supply
    them (normally from the manifest entry).  The frame holds contiguous
    copies of its columns (``PointCloudFrame`` copies a strided view), so
    it does not keep the file's record array alive.
    """
    cols = read_pcd_columns(path)
    xyz = np.stack([cols["x"], cols["y"], cols["z"]], axis=1)
    finite = np.isfinite(cols["x"]) & np.isfinite(cols["y"]) & np.isfinite(cols["z"])
    dropped = int(len(finite) - finite.sum())
    if dropped:
        log.warning("%s: dropped %d non-finite points of %d", path, dropped, len(finite))
        xyz = xyz[finite]
    intensity = cols.get("intensity")
    if intensity is not None and dropped:
        intensity = intensity[finite]
    return PointCloudFrame(
        frame_id=frame_id,
        timestamp=timestamp,
        xyz=xyz,
        intensity=intensity,
        dropped_non_finite=dropped,
    )


def write_pcd(
    frame: PointCloudFrame,
    path: str | Path,
    labels: "LabeledCloud | None" = None,
    data: str = "binary",
) -> None:
    """Write a frame as PCD (fields x y z intensity, plus label/cluster with labels).

    The label column carries the class id (-1 unlabeled); the cluster
    column carries the kept cluster id (-1 for unlabeled or dropped
    points).  Binary output is little-endian and bit-exact under read_pcd;
    ASCII output prints floats at 9 significant digits, also bit-exact.
    Records are built and written ``BLOCK_ROWS`` rows at a time, so the
    writer holds one block of them, never a frame-sized copy; the bytes do
    not depend on the block size.
    """
    if data not in ("binary", "ascii"):
        raise ValueError(f"data mode must be 'binary' or 'ascii', got {data!r}")
    n = len(frame)
    fields = ["x", "y", "z", "intensity"]
    if labels is not None:
        if len(labels.class_id) != n:
            raise ValueError(
                f"label count {len(labels.class_id)} does not match point count {n}"
            )
        fields += ["label", "cluster"]
    kinds = [_KNOWN_FIELDS[f] for f in fields]
    header = (
        "# .PCD v0.7 - Point Cloud Data file format\n"
        "VERSION 0.7\n"
        f"FIELDS {' '.join(fields)}\n"
        f"SIZE {' '.join(str(size) for _, size in kinds)}\n"
        f"TYPE {' '.join(typ for typ, _ in kinds)}\n"
        f"COUNT {' '.join('1' for _ in fields)}\n"
        f"WIDTH {n}\n"
        "HEIGHT 1\n"
        "VIEWPOINT 0 0 0 1 0 0 0\n"
        f"POINTS {n}\n"
        f"DATA {data}\n"
    )
    row = " ".join("%.9g" if typ == "F" else "%d" for typ, _ in kinds) + "\n"
    block = BLOCK_ROWS
    # one record buffer, reused for every block; intensity stays 0 without it
    buf = np.zeros(min(n, block), dtype=[(f, _TYPE_MAP[kind]) for f, kind in zip(fields, kinds)])
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        for lo in range(0, n, block):
            hi = min(lo + block, n)
            rec = buf[: hi - lo]
            rec["x"], rec["y"], rec["z"] = frame.xyz[lo:hi].T
            if frame.intensity is not None:
                rec["intensity"] = frame.intensity[lo:hi]
            if labels is not None:
                rec["label"] = labels.class_id[lo:hi]
                cluster = labels.cluster_id[lo:hi]
                rec["cluster"] = np.where(labels.kept[lo:hi] & (cluster >= 0), cluster, -1)
            if data == "binary":
                fh.write(memoryview(rec))  # the record buffer itself, not a bytes copy of it
            else:
                fh.write("".join(row % r for r in rec.tolist()).encode("ascii"))


@dataclass(frozen=True)
class IndexEntry:
    frame_id: int
    timestamp: float
    path: Path


@dataclass(frozen=True)
class FrameIndex:
    """Ordered frame entries of one stream; timestamps strictly increasing."""

    stream: str
    entries: tuple[IndexEntry, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "entries", tuple(self.entries))
        ts = [e.timestamp for e in self.entries]
        for i in range(1, len(ts)):
            if ts[i] <= ts[i - 1]:
                raise ValueError(
                    f"stream '{self.stream}': timestamps must be strictly increasing "
                    f"(entry {i}: {ts[i]} after {ts[i - 1]})"
                )

    def timestamps(self) -> np.ndarray:
        return np.array([e.timestamp for e in self.entries], dtype=np.float64)


@dataclass(frozen=True)
class FrameBundle:
    """One cloud frame with its nearest-in-time detection entry per camera."""

    cloud: IndexEntry
    cameras: Mapping[int, IndexEntry]


def read_manifest(path: str | Path) -> dict[str, FrameIndex]:
    """Read a manifest of "<stream> <frame_id> <timestamp> <path>" lines.

    Relative paths are resolved against the manifest's directory.  Lines
    starting with '#' and blank lines are skipped.  Returns one FrameIndex
    per stream, entries in file order.  A malformed line, a non-finite
    timestamp, a frame id repeated within a stream or a timestamp not later
    than the stream's previous one raises ValueError naming the file and line;
    bytes that are not text raise ValueError naming the file.
    """
    p = Path(path)
    base = p.parent
    streams: dict[str, dict[int, IndexEntry]] = {}  # per stream, frame id -> entry, file order
    for lineno, line in enumerate(read_text(p).splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split(maxsplit=3)
        if len(tokens) != 4:
            raise ValueError(f"{p}:{lineno}: expected '<stream> <frame_id> <timestamp> <path>'")
        stream, fid_s, ts_s, rel = tokens
        try:
            fid = int(fid_s)
            ts = float(ts_s)
        except ValueError as e:
            raise ValueError(f"{p}:{lineno}: {e}") from e
        if not math.isfinite(ts):
            raise ValueError(f"{p}:{lineno}: timestamp must be finite, got {ts_s}")
        entries = streams.setdefault(stream, {})
        if fid in entries:
            raise ValueError(f"{p}:{lineno}: duplicate frame id {fid} in stream '{stream}'")
        last = next(reversed(entries.values()), None)
        if last is not None and not ts > last.timestamp:
            raise ValueError(
                f"{p}:{lineno}: timestamps must be strictly increasing in stream '{stream}', "
                f"got {ts_s} after {last.timestamp}"
            )
        entry_path = Path(rel)
        if not entry_path.is_absolute():
            entry_path = base / entry_path
        entries[fid] = IndexEntry(fid, ts, entry_path)
    return {name: FrameIndex(name, tuple(entries.values())) for name, entries in streams.items()}


def write_manifest(path: str | Path, rows: Iterable[tuple[str, int, float, str]]) -> None:
    with open(path, "w") as fh:
        for stream, frame_id, timestamp, rel in rows:
            fh.write(f"{stream} {frame_id} {timestamp:.6f} {rel}\n")


def check_tolerance(tolerance: float) -> None:
    """The frame-matching tolerance rule: seconds, positive and finite."""
    if not (math.isfinite(tolerance) and tolerance > 0):
        raise ValueError(f"tolerance must be positive and finite, got {tolerance}")


def match_frames(
    cloud_index: FrameIndex,
    camera_indices: Mapping[int, FrameIndex],
    tolerance: float = DEFAULT_MATCH_TOLERANCE,
) -> list[FrameBundle]:
    """Match every cloud frame to the nearest detection entry per camera.

    Cameras whose nearest entry is further than ``tolerance`` seconds are
    omitted from that bundle; ties pick the earlier entry.  Bundles with no
    cameras are still emitted, with an empty ``cameras``.
    """
    check_tolerance(tolerance)
    if not cloud_index.entries:
        raise ValueError("cloud index is empty")
    cloud_ts = cloud_index.timestamps()
    matched: list[dict[int, IndexEntry]] = [{} for _ in cloud_ts]
    for cam_id in sorted(camera_indices):
        index = camera_indices[cam_id]
        if not index.entries:
            continue
        ts = index.timestamps()
        pos = np.searchsorted(ts, cloud_ts)
        left = np.clip(pos - 1, 0, len(ts) - 1)
        right = np.clip(pos, 0, len(ts) - 1)
        d_left = np.abs(cloud_ts - ts[left])
        d_right = np.abs(ts[right] - cloud_ts)
        choose_left = d_left <= d_right
        chosen = np.where(choose_left, left, right)
        dt = np.abs(ts[chosen] - cloud_ts)
        for i in np.flatnonzero(dt <= tolerance):
            matched[i][cam_id] = index.entries[int(chosen[i])]
    return [
        FrameBundle(cloud=entry, cameras=cams)
        for entry, cams in zip(cloud_index.entries, matched)
    ]
