"""Point-cloud frame I/O (PCD v0.7 subset), manifests, and timestamp matching.

Coordinates are stored as float32, matching the 4-byte PCD fields, so a
binary write/read cycle is bit-exact.  ASCII mode prints 9 significant
digits, which also round-trips every finite float32 exactly.
"""

from __future__ import annotations

import json
import math
import operator
import os
from array import array
from collections.abc import Sequence
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Collection, Iterable, Iterator, Mapping

import numpy as np

if TYPE_CHECKING:
    from .fusion import LabeledCloud

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
    stable identifier.  A row with a NaN or +-inf coordinate, such as a
    driver's missing return, is kept in its place and never labeled: it
    projects to no pixel (``calib.project_points``).

    The frame holds read-only views.  An ``xyz`` or ``intensity`` already
    stored as contiguous float32 is aliased, not copied: the caller's
    array stays writeable, and writing to it changes the frame.
    """

    frame_id: int
    timestamp: float
    xyz: np.ndarray
    intensity: np.ndarray | None = None

    def __post_init__(self) -> None:
        xyz = np.asarray(self.xyz, dtype=np.float32)
        if xyz.ndim != 2 or xyz.shape[1] != 3:
            raise ValueError(f"xyz must have shape (n, 3), got {xyz.shape}")
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


def _parse_header(fh, path: str) -> tuple[dict[str, list[str]], int]:
    """The header keys and the number of the DATA line, which ends the header."""
    header: dict[str, list[str]] = {}
    for lineno, tokens, _ in records(raw.decode("ascii", errors="replace") for raw in fh):
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
        sizes = [ascii_number(s, int) for s in header["SIZE"]]
        counts = [ascii_number(c, int) for c in header["COUNT"]]
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
    """POINTS, or WIDTH x HEIGHT without it; all three, where given, must agree
    and none may be negative."""
    counts: dict[str, int] = {}
    for key in ("WIDTH", "HEIGHT", "POINTS"):
        if key in header:
            try:
                if len(header[key]) != 1:
                    raise ValueError(f"{key} takes one value, got {len(header[key])}")
                counts[key] = ascii_number(header[key][0], int)
                if counts[key] < 0:
                    raise ValueError(f"{key} must be >= 0, got {counts[key]}")
            except ValueError as e:
                raise PcdError(f"malformed point count: {e}") from e
    if "WIDTH" in counts and "HEIGHT" in counts:
        area = counts["WIDTH"] * counts["HEIGHT"]
        if counts.setdefault("POINTS", area) != area:
            raise PcdError(f"point count mismatch: POINTS {counts['POINTS']}, WIDTH x HEIGHT {area}")
    if "POINTS" not in counts:
        raise PcdError("missing header key 'POINTS'")
    return counts["POINTS"]


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


def ascii_number(token: str, kind: type[int] | type[float]) -> int | float:
    """``kind(token)`` for a token of ASCII characters other than '_': the
    number rule of every text format (``_to_ints`` applies it to integer
    columns).  Python's own int() and float() read '1_0' and '١0' as 10."""
    if not token.isascii() or "_" in token:
        raise ValueError(f"{kind.__name__} must be ASCII without '_', got {token!r}")
    return kind(token)


def read_text(path: str | Path) -> str:
    """The text of ``path``; undecodable bytes raise ValueError naming the file."""
    with open(path) as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as e:
            raise ValueError(f"{path}: not a text file: {e}") from None


def read_json_object(path: Path, keys: Collection[str], error: type = ValueError) -> dict:
    """The JSON object in ``path``, every key of which is one of ``keys``.

    Text that is not JSON (bytes that are not UTF-8 included), a top level
    that is not an object, or an unknown key raise ``error`` naming ``path``;
    a file that cannot be opened raises OSError.
    """
    try:
        raw = json.loads(path.read_text())
    except ValueError as e:  # also bytes that are not UTF-8, and over-long integers
        raise error(f"{path}: not valid JSON: {e}") from e
    if not isinstance(raw, dict):
        raise error(f"{path}: top level must be an object, got {type(raw).__name__}")
    unknown = sorted(set(raw) - set(keys))
    if unknown:
        raise error(f"{path}: unknown top-level keys {unknown}")
    return raw


def check_count(name: str, value) -> int:
    """The count rule: an int or a numpy integer, never a bool; returned as an int."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def check_number(name: str, value) -> float:
    """The number rule of the JSON files: an int or a float, never a bool;
    returned as a float.  An int past the float range raises ValueError."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{name} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{name} is too large for a float") from None


def records(
    lines: Iterable[str], sep: str | None = None, maxsplit: int = -1, comments: bool = True
) -> Iterator[tuple[int, list[str], str]]:
    """``(line number, tokens, raw line)`` for each non-blank line: the
    stripped line split on ``sep`` (whitespace when None) at most
    ``maxsplit`` times.  Lines starting with '#' are skipped if ``comments``."""
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if line and not (comments and line.startswith("#")):
            yield lineno, line.split(sep, maxsplit), raw


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
    that whole array alive.  Header numbers are ASCII without '_', and
    POINTS must equal WIDTH x HEIGHT, one value each.  A malformed file
    raises PcdError naming the file, and the line where one is to blame.
    """
    p = os.fspath(path)
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
    """Read a PCD file into a frame, one row per file row.

    A row with a NaN or +-inf coordinate is kept in its place, unlabeled
    (see ``PointCloudFrame``), so frame row i is file row i.  The frame id
    and timestamp are not stored in PCD files; callers supply them
    (normally from the manifest entry).  The frame holds contiguous copies
    of its columns (``PointCloudFrame`` copies a strided view), so it does
    not keep the file's record array alive.
    """
    cols = read_pcd_columns(path)
    return PointCloudFrame(
        frame_id=frame_id,
        timestamp=timestamp,
        xyz=np.stack([cols["x"], cols["y"], cols["z"]], axis=1),
        intensity=cols.get("intensity"),
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
    ASCII output prints floats at 9 significant digits, also bit-exact
    except that a NaN is printed as plain ``nan``, so its payload bits do
    not round-trip.
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


@dataclass(frozen=True, slots=True)
class IndexEntry:
    """One manifest entry, built when it is read (see ``FrameIndex``).
    ``path`` is text, not a Path: pathlib interns every component of a path
    it parses, so a Path per entry grows the interpreter's interned-string
    table with the length of a sequence."""

    frame_id: int
    timestamp: float
    path: str


@dataclass(frozen=True, slots=True, eq=False)
class FrameIndex(Sequence):
    """One stream's entries in file order, held as columns: ``frame_ids``
    (int64), ``timestamps`` (float64, strictly increasing), and each path
    as written, UTF-8 encoded back to back in ``paths``, entry i's ending
    at ``path_ends[i]``.  ``base`` is the directory relative paths are
    joined to, as text; an absolute path replaces it.  ``index[i]`` builds
    entry i's IndexEntry, so the index holds no object per entry."""

    stream: str
    frame_ids: np.ndarray
    timestamps: np.ndarray
    paths: bytes
    path_ends: np.ndarray
    base: str = ""

    def __post_init__(self) -> None:
        for name, dtype in (("frame_ids", np.int64), ("timestamps", np.float64), ("path_ends", np.int64)):
            column = np.asarray(getattr(self, name), dtype=dtype).view()
            column.flags.writeable = False
            object.__setattr__(self, name, column)
        ts, ends = self.timestamps, self.path_ends
        if not len(self.frame_ids) == len(ts) == len(ends):
            raise ValueError(
                f"stream '{self.stream}': {len(self.frame_ids)} frame ids, {len(ts)} timestamps "
                f"and {len(ends)} paths"
            )
        if len(ends) and (ends[-1] != len(self.paths) or (np.diff(ends, prepend=0) < 0).any()):
            raise ValueError(f"stream '{self.stream}': path ends must rise to {len(self.paths)}")
        later = np.flatnonzero(ts[1:] <= ts[:-1])
        if later.size:
            i = int(later[0]) + 1
            raise ValueError(
                f"stream '{self.stream}': timestamps must be strictly increasing "
                f"(entry {i}: {float(ts[i])} after {float(ts[i - 1])})"
            )

    def __len__(self) -> int:
        return len(self.frame_ids)

    def __getitem__(self, i: int) -> IndexEntry:
        i = range(len(self))[operator.index(i)]
        start = int(self.path_ends[i - 1]) if i else 0
        rel = self.paths[start:int(self.path_ends[i])].decode()
        return IndexEntry(int(self.frame_ids[i]), float(self.timestamps[i]), os.path.join(self.base, rel))


@dataclass(frozen=True, slots=True)
class FrameBundle:
    """One cloud frame with its nearest-in-time detection entry per camera."""

    cloud: IndexEntry
    cameras: Mapping[int, IndexEntry]


def read_manifest(path: str | Path) -> dict[str, FrameIndex]:
    """Read a manifest of "<stream> <frame_id> <timestamp> <path>" lines.

    Returns one FrameIndex per stream, entries in file order, each line
    read straight into its stream's columns.  Relative paths are joined, as
    text, to the manifest's directory when an entry is built; an absolute
    path is kept as it is.  Lines starting with '#' and blank lines are
    skipped.  A malformed line (numbers are ASCII without '_'), a frame id
    outside 64 bits, a non-finite timestamp, a frame id repeated within a
    stream or a timestamp not later than the stream's previous one raises
    ValueError naming the file and line; bytes that are not text, the file.
    """
    p = Path(path)
    # per stream: frame ids, timestamps, path bytes, path ends, and the ids seen
    streams: dict[str, tuple[array, array, bytearray, array, set[int]]] = {}
    for lineno, tokens, _ in records(read_text(p).splitlines(), maxsplit=3):
        if len(tokens) != 4:
            raise ValueError(f"{p}:{lineno}: expected '<stream> <frame_id> <timestamp> <path>'")
        stream, fid_s, ts_s, rel = tokens
        try:
            fid, ts = ascii_number(fid_s, int), ascii_number(ts_s, float)
        except ValueError as e:
            raise ValueError(f"{p}:{lineno}: {e}") from e
        if not -(1 << 63) <= fid < 1 << 63:
            raise ValueError(f"{p}:{lineno}: frame id must fit in 64 bits, got {fid_s}")
        if not math.isfinite(ts):
            raise ValueError(f"{p}:{lineno}: timestamp must be finite, got {ts_s}")
        ids, stamps, paths, ends, seen = streams.setdefault(
            stream, (array("q"), array("d"), bytearray(), array("q"), set())
        )
        if fid in seen:
            raise ValueError(f"{p}:{lineno}: duplicate frame id {fid} in stream '{stream}'")
        if stamps and not ts > stamps[-1]:
            raise ValueError(
                f"{p}:{lineno}: timestamps must be strictly increasing in stream '{stream}', "
                f"got {ts_s} after {stamps[-1]}"
            )
        seen.add(fid)
        ids.append(fid)
        stamps.append(ts)
        paths += rel.encode()
        ends.append(len(paths))
    base = os.path.dirname(p)
    # copies, exactly as long as the columns: a grown array keeps spare room
    return {
        name: FrameIndex(name, np.array(ids), np.array(stamps), bytes(paths), np.array(ends), base)
        for name, (ids, stamps, paths, ends, _) in streams.items()
    }


def write_manifest(path: str | Path, rows: Iterable[tuple[str, int, float, str]]) -> None:
    with open(path, "w") as fh:
        for stream, frame_id, timestamp, rel in rows:
            fh.write(f"{stream} {frame_id} {timestamp:.6f} {rel}\n")


def check_tolerance(tolerance: float) -> None:
    """The frame-matching tolerance rule: seconds, positive and finite."""
    if not (math.isfinite(tolerance) and tolerance > 0):
        raise ValueError(f"tolerance must be positive and finite, got {tolerance}")


@dataclass(frozen=True, slots=True, eq=False)
class FrameMatches(Sequence):
    """Each cloud frame's nearest detection entry per camera, held as one
    (frames x cameras) index: ``rows[i, j]`` is the entry of the j-th
    camera of ``cameras`` (ascending ids) matched to cloud frame i, or -1
    for none.  Item i builds frame i's FrameBundle."""

    cloud: FrameIndex
    cameras: Mapping[int, FrameIndex]
    rows: np.ndarray

    def __len__(self) -> int:
        return len(self.cloud)

    def __getitem__(self, i: int) -> FrameBundle:
        i = range(len(self))[operator.index(i)]
        matched = zip(self.cameras.items(), self.rows[i].tolist())
        return FrameBundle(
            cloud=self.cloud[i],
            cameras={cam_id: index[row] for (cam_id, index), row in matched if row >= 0},
        )


def match_frames(
    cloud_index: FrameIndex,
    camera_indices: Mapping[int, FrameIndex],
    tolerance: float = DEFAULT_MATCH_TOLERANCE,
) -> FrameMatches:
    """Match every cloud frame to the nearest detection entry per camera.

    Cameras whose nearest entry is further than ``tolerance`` seconds are
    omitted from that frame's bundle; ties pick the earlier entry.  Frames
    with no cameras still have a bundle, with an empty ``cameras``.
    """
    check_tolerance(tolerance)
    if not len(cloud_index):
        raise ValueError("cloud index is empty")
    cloud_ts = cloud_index.timestamps
    cameras = {cam_id: camera_indices[cam_id] for cam_id in sorted(camera_indices)}
    # the narrowest signed type that holds every entry number and -1
    row_type = np.min_scalar_type(-1 - max(map(len, cameras.values()), default=0))
    rows = np.full((len(cloud_ts), len(cameras)), -1, dtype=row_type)
    for j, index in enumerate(cameras.values()):
        if not len(index):
            continue
        ts = index.timestamps
        pos = np.searchsorted(ts, cloud_ts)
        left = np.clip(pos - 1, 0, len(ts) - 1)
        right = np.clip(pos, 0, len(ts) - 1)
        d_left = np.abs(cloud_ts - ts[left])
        d_right = np.abs(ts[right] - cloud_ts)
        chosen = np.where(d_left <= d_right, left, right)
        dt = np.abs(ts[chosen] - cloud_ts)
        rows[:, j] = np.where(dt <= tolerance, chosen, -1)
    rows.flags.writeable = False
    return FrameMatches(cloud_index, cameras, rows)
