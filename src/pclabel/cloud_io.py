"""Point-cloud frame I/O (PCD v0.7 subset), manifests, and timestamp matching.

Coordinates are stored as float32, matching the 4-byte PCD fields, so a
binary write/read cycle is bit-exact.  ASCII mode prints 9 significant
digits, which also round-trips float32 exactly.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Mapping

import numpy as np

if TYPE_CHECKING:
    from .fusion import LabeledCloud

log = logging.getLogger(__name__)

DEFAULT_MATCH_TOLERANCE = 0.05

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
        xyz = np.ascontiguousarray(xyz)
        xyz.flags.writeable = False
        object.__setattr__(self, "xyz", xyz)
        if self.intensity is not None:
            inten = np.ascontiguousarray(np.asarray(self.intensity, dtype=np.float32))
            if inten.shape != (len(xyz),):
                raise ValueError(f"intensity length {inten.shape} does not match {len(xyz)} points")
            inten.flags.writeable = False
            object.__setattr__(self, "intensity", inten)

    def __len__(self) -> int:
        return self.xyz.shape[0]


def _parse_header(fh) -> dict[str, list[str]]:
    header: dict[str, list[str]] = {}
    while True:
        raw = fh.readline()
        if not raw:
            raise PcdError("unexpected end of file inside header")
        line = raw.decode("ascii", errors="replace").strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        key = tokens[0].upper()
        if key not in _HEADER_KEYS:
            raise PcdError(f"unknown header key '{tokens[0]}'")
        if key in header:
            raise PcdError(f"duplicate header key '{key}'")
        header[key] = tokens[1:]
        if key == "DATA":
            return header


def _field_layout(header: dict[str, list[str]]):
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
    return names, types, sizes, counts


def _declared_points(header: dict[str, list[str]]) -> int:
    try:
        if "POINTS" in header:
            return int(header["POINTS"][0])
        if "WIDTH" in header and "HEIGHT" in header:
            return int(header["WIDTH"][0]) * int(header["HEIGHT"][0])
    except (ValueError, IndexError) as e:
        raise PcdError(f"malformed point count: {e}") from e
    raise PcdError("missing header key 'POINTS'")


def read_pcd_columns(path: str | Path) -> dict[str, np.ndarray]:
    """Parse a PCD file and return its recognized columns, unfiltered.

    Keys are the subset fields present in the file (x, y, z, intensity,
    label, cluster); unrecognized fields are skipped.  Row order and count
    match the file exactly.
    """
    p = Path(path)
    with open(p, "rb") as fh:
        header = _parse_header(fh)
        names, types, sizes, counts = _field_layout(header)
        n = _declared_points(header)
        mode = header["DATA"][0].lower() if header["DATA"] else ""
        if mode == "binary":
            rows = _read_binary(fh, names, types, sizes, counts, n)
        elif mode == "ascii":
            rows = _read_ascii(fh, names, counts, n)
        else:
            raise PcdError(f"unsupported DATA mode '{mode}'")
    return rows


def _read_binary(fh, names, types, sizes, counts, n) -> dict[str, np.ndarray]:
    dtype = np.dtype(
        [
            (name, _TYPE_MAP[(typ, size)], (count,))
            for name, typ, size, count in zip(names, types, sizes, counts)
        ]
    )
    buf = fh.read()
    expected = n * dtype.itemsize
    if len(buf) != expected:
        raise PcdError(
            f"point count mismatch: header declares {n} points "
            f"({expected} bytes) but file holds {len(buf)} bytes"
        )
    rec = np.frombuffer(buf, dtype=dtype, count=n)
    out = {}
    for name in names:
        if name in _KNOWN_FIELDS:
            out[name] = rec[name].reshape(n).copy()
    return out


def _read_ascii(fh, names, counts, n) -> dict[str, np.ndarray]:
    offsets = {}
    pos = 0
    for name, count in zip(names, counts):
        offsets[name] = pos
        pos += count
    tokens_per_row = pos
    rows = [line.split() for line in fh.read().decode("ascii", errors="replace").splitlines() if line.strip()]
    if len(rows) != n:
        raise PcdError(f"point count mismatch: header declares {n} points but file has {len(rows)} rows")
    wanted = [name for name in names if name in _KNOWN_FIELDS]
    out = {name: [] for name in wanted}
    for i, tokens in enumerate(rows):
        if len(tokens) != tokens_per_row:
            raise PcdError(f"malformed row {i}: expected {tokens_per_row} values, got {len(tokens)}")
        for name in wanted:
            tok = tokens[offsets[name]]
            try:
                if _KNOWN_FIELDS[name][0] == "F":
                    out[name].append(float(tok))
                else:
                    out[name].append(int(tok))
            except ValueError as e:
                raise PcdError(f"malformed row {i}: {e}") from e
    result = {}
    for name in wanted:
        kind = _KNOWN_FIELDS[name]
        result[name] = np.array(out[name], dtype=_TYPE_MAP[kind])
    return result


def read_pcd(path: str | Path, frame_id: int = 0, timestamp: float = 0.0) -> PointCloudFrame:
    """Read a PCD file into a frame, dropping non-finite points with a warning.

    The frame id and timestamp are not stored in PCD files; callers supply
    them (normally from the manifest entry).
    """
    cols = read_pcd_columns(path)
    xyz = np.stack([cols["x"], cols["y"], cols["z"]], axis=1)
    finite = np.isfinite(xyz).all(axis=1)
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


def _fmt_float(v: float) -> str:
    return format(float(v), ".9g")


def write_pcd(
    frame: PointCloudFrame,
    path: str | Path,
    labels: "LabeledCloud | None" = None,
    data: str = "binary",
) -> None:
    """Write a frame as PCD (fields x y z intensity, plus label/cluster with labels).

    The label column carries the class id (-1 unlabeled); the cluster
    column carries the kept cluster id (-1 for unlabeled or dropped
    points).  Binary output is little-endian and bit-exact under read_pcd.
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
    sizes = " ".join("4" for _ in fields)
    types = " ".join(_KNOWN_FIELDS[f][0] for f in fields)
    counts = " ".join("1" for _ in fields)
    header = (
        "# .PCD v0.7 - Point Cloud Data file format\n"
        "VERSION 0.7\n"
        f"FIELDS {' '.join(fields)}\n"
        f"SIZE {sizes}\n"
        f"TYPE {types}\n"
        f"COUNT {counts}\n"
        f"WIDTH {n}\n"
        "HEIGHT 1\n"
        "VIEWPOINT 0 0 0 1 0 0 0\n"
        f"POINTS {n}\n"
        f"DATA {data}\n"
    )
    intensity = frame.intensity
    if intensity is None:
        intensity = np.zeros(n, dtype=np.float32)
    if labels is not None:
        label_col = labels.class_id.astype("<i4")
        cluster_col = np.where(
            labels.kept & (labels.cluster_id >= 0), labels.cluster_id, -1
        ).astype("<i4")
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        if data == "binary":
            dtype = [(f, _TYPE_MAP[_KNOWN_FIELDS[f]]) for f in fields]
            rec = np.empty(n, dtype=dtype)
            rec["x"] = frame.xyz[:, 0]
            rec["y"] = frame.xyz[:, 1]
            rec["z"] = frame.xyz[:, 2]
            rec["intensity"] = intensity
            if labels is not None:
                rec["label"] = label_col
                rec["cluster"] = cluster_col
            fh.write(rec.tobytes())
        else:
            lines = []
            for i in range(n):
                parts = [
                    _fmt_float(frame.xyz[i, 0]),
                    _fmt_float(frame.xyz[i, 1]),
                    _fmt_float(frame.xyz[i, 2]),
                    _fmt_float(intensity[i]),
                ]
                if labels is not None:
                    parts.append(str(int(label_col[i])))
                    parts.append(str(int(cluster_col[i])))
                lines.append(" ".join(parts))
            fh.write(("\n".join(lines) + ("\n" if lines else "")).encode("ascii"))


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

    @property
    def is_empty(self) -> bool:
        return len(self.cameras) == 0


def read_manifest(path: str | Path) -> dict[str, FrameIndex]:
    """Read a manifest of "<stream> <frame_id> <timestamp> <path>" lines.

    Relative paths are resolved against the manifest's directory.  Lines
    starting with '#' and blank lines are skipped.  Returns one FrameIndex
    per stream, entries in file order.  A malformed line, a non-finite
    timestamp or a frame id repeated within a stream raises ValueError
    naming the file and line.
    """
    p = Path(path)
    base = p.parent
    streams: dict[str, dict[int, IndexEntry]] = {}  # per stream, frame id -> entry, file order
    for lineno, line in enumerate(p.read_text().splitlines(), start=1):
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
        entry_path = Path(rel)
        if not entry_path.is_absolute():
            entry_path = base / entry_path
        entries[fid] = IndexEntry(fid, ts, entry_path)
    return {name: FrameIndex(name, tuple(entries.values())) for name, entries in streams.items()}


def write_manifest(path: str | Path, rows: Iterable[tuple[str, int, float, str]]) -> None:
    with open(path, "w") as fh:
        for stream, frame_id, timestamp, rel in rows:
            fh.write(f"{stream} {frame_id} {timestamp:.6f} {rel}\n")


def match_frames(
    cloud_index: FrameIndex,
    camera_indices: Mapping[int, FrameIndex],
    tolerance: float = DEFAULT_MATCH_TOLERANCE,
) -> list[FrameBundle]:
    """Match every cloud frame to the nearest detection entry per camera.

    Cameras whose nearest entry is further than ``tolerance`` seconds are
    omitted from that bundle; ties pick the earlier entry.  Bundles with no
    cameras are still emitted, flagged via ``is_empty``.
    """
    if not (math.isfinite(tolerance) and tolerance > 0):
        raise ValueError(f"tolerance must be positive and finite, got {tolerance}")
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
