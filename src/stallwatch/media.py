"""
Frame, detection and interval I/O.

All image data is 8-bit grayscale. Frames live on disk as binary PGM, each
with the one header `write_frame` writes, ``P5\n{width} {height}\n255\n``;
detections as JSON-Lines, ground truth and predictions as CSV, all UTF-8.
Every reader validates its input and raises a typed error from
:mod:`stallwatch.errors` instead of crashing on malformed bytes.

A video's frames are stored FRAMES_PER_FILE to a file: segment k,
`frames_%06d.pgm` formatted with k, is a multi-image PGM holding frames
FRAMES_PER_FILE * k onwards, so every frame sits at a fixed byte offset
of its segment. `write_sequence` writes that format and `open_sequence`
reads it; every file here is written through `codec.write_atomic`.
Creating a file costs about as much as rendering a 320x240 frame, so one
file per frame doubled the cost of writing a video. Segments stay small
(1.2 MB at 320x240) because a whole-file read of a corpus file, such as
hashing it, then holds one segment in memory rather than a whole video.

Detections travel as `Detections`, one numpy column per field, from
every source: detection files, every kind of detector, and synthesis. The
pipeline consumes them as arrays (direction estimation, foreground
support). `Detections` checks the range of every field, and `_columns`
the types of a JSON row, for files and detector replies alike.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
from dataclasses import dataclass, field
from itertools import chain, compress
from operator import itemgetter
from pathlib import Path

import numpy as np

from .codec import read_json, write_atomic, write_json
from .errors import AT_LEAST_1, FINITE, NON_NEGATIVE, POSITIVE, check
from .errors import (
    DimensionMismatch,
    InvalidBBox,
    InvalidInterval,
    InvalidParam,
    MissingMetadata,
    ParseError,
    SequenceGap,
    StallwatchError,
    prefixed,
)


# Every box coordinate and side is below this. Areas and unions of such
# boxes stay below 2**53, so box arithmetic is exact in int64 and float64.
MAX_COORD = 1 << 26
# frame indices are stored as int64
MAX_FRAME = np.iinfo(np.int64).max


_BOX_RULE = (f"a box's origin must be non-negative and its sides positive, "
             f"all below {MAX_COORD}")


def _box_in_range(x, y, w, h):
    """Whether the box (x, y, w, h) keeps `_BOX_RULE`: numbers, or arrays
    of them compared element by element. nan fails every comparison."""
    return ((0 <= x) & (x < MAX_COORD) & (0 <= y) & (y < MAX_COORD)
            & (0 < w) & (w < MAX_COORD) & (0 < h) & (h < MAX_COORD))


@dataclass(frozen=True)
class BBox:
    """Axis-aligned box in pixel coordinates, (x, y) is the top-left corner."""

    JSON_ARRAY = True  # stored as [x, y, w, h]

    x: int
    y: int
    w: int
    h: int

    def __post_init__(self):
        if not _box_in_range(self.x, self.y, self.w, self.h):
            raise InvalidBBox(
                f"{_BOX_RULE}, got ({self.x}, {self.y}, {self.w}, {self.h})")

    @property
    def area(self) -> int:
        return self.w * self.h

    @property
    def x2(self) -> int:
        return self.x + self.w

    @property
    def y2(self) -> int:
        return self.y + self.h


def _one_row(column, width: int) -> str:
    """" <value>" of a column of one row's `width` values, else ""."""
    values = np.asarray(column, dtype=object).reshape(-1).tolist()
    return f" {values[0] if width == 1 else values}" if len(values) == width else ""


def _array(values, dtype) -> np.ndarray | None:
    """`values` as a `dtype` array, or None for a number too large for it."""
    try:
        return np.asarray(values, dtype)
    except OverflowError:
        return None


@dataclass(frozen=True, eq=False)
class Detections:
    """Rows of detections as columns; row i is (frame[i], boxes[i], score[i],
    labels[i]). `Detections()` has no rows.

    Each column may be given as any sequence of numbers: it is converted
    here, box values truncated toward zero, and checked against the range
    rules of a detection row. A frame index is in [0, MAX_FRAME], a score
    in [0, 1], and a box keeps `_BOX_RULE`; a number too large to convert
    breaks its rule; the error names the value when there is one row.
    The arrays are read-only."""

    frame: np.ndarray = ()   # int64, (n,)
    boxes: np.ndarray = ()   # int64, (n, 4): x, y, w, h
    score: np.ndarray = ()   # float64, (n,)
    labels: tuple[str, ...] = ()

    def __post_init__(self):
        frame = _array(self.frame, np.int64)
        score = _array(self.score, np.float64)
        boxes = _array(self.boxes, np.float64)
        if frame is None or not (frame >= 0).all():
            raise ParseError(f"frame index{_one_row(self.frame, 1)} "
                             f"outside [0, {MAX_FRAME}]")
        if score is None or not ((score >= 0) & (score <= 1)).all():
            raise ParseError(f"score{_one_row(self.score, 1)} outside [0, 1]")
        if boxes is not None:
            boxes = np.trunc(boxes.reshape(-1, 4))
        if boxes is None or not _box_in_range(*boxes.T).all():
            raise InvalidBBox(f"box values{_one_row(self.boxes, 4)}: {_BOX_RULE}")
        for name, column in (("frame", frame), ("score", score),
                             ("boxes", boxes.astype(np.int64))):
            column.flags.writeable = False
            object.__setattr__(self, name, column)
        object.__setattr__(self, "labels", tuple(self.labels))

    def __len__(self) -> int:
        return len(self.labels)

    def select(self, keep) -> Detections:
        """The rows where the booleans `keep` are true."""
        keep = np.asarray(keep, dtype=bool)
        return Detections(self.frame[keep], self.boxes[keep], self.score[keep],
                          tuple(compress(self.labels, keep)))


@dataclass(frozen=True)
class GroundTruthEntry:
    video_id: str
    start: float
    end: float

    def __post_init__(self):
        check(InvalidInterval, self, start=NON_NEGATIVE, end=FINITE)
        if self.end <= self.start:
            raise InvalidInterval(f"end {self.end} must exceed start {self.start}")


@dataclass(frozen=True)
class AnomalyEvent:
    """A confirmed stalled-vehicle event with its temporal extent."""

    video_id: str
    start: float
    end: float
    bbox: BBox
    confidence: float

    def __post_init__(self):
        if not (0.0 <= self.start < self.end < math.inf):
            raise InvalidInterval(f"bad event interval [{self.start}, {self.end}]")
        if not (0.0 <= self.confidence <= 1.0):
            raise InvalidInterval(f"confidence {self.confidence} outside [0, 1]")


class Frame:
    """Single grayscale image; pixels are a (height, width) uint8 array."""

    __slots__ = ("pixels",)

    def __init__(self, pixels: np.ndarray):
        arr = np.asarray(pixels)
        if arr.ndim != 2:
            raise DimensionMismatch(f"frame must be 2-D, got shape {arr.shape}")
        if arr.dtype != np.uint8:
            raise InvalidParam(f"frame must be uint8, got {arr.dtype}")
        self.pixels = arr

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Frame):
            return NotImplemented
        return self.pixels.shape == other.pixels.shape and bool(
            np.array_equal(self.pixels, other.pixels)
        )

    def __repr__(self) -> str:
        return f"Frame({self.width}x{self.height})"


# ---------------------------------------------------------------------------
# PGM frames
# ---------------------------------------------------------------------------

def _header(width: int, height: int) -> bytes:
    return f"P5\n{width} {height}\n255\n".encode("ascii")


def write_frame(frame: Frame, path: str | Path) -> None:
    """`frame` as one PGM image, the whole file at `path`, replaced
    atomically (`codec.write_atomic`)."""
    write_atomic(path, _header(frame.width, frame.height) + frame.pixels.tobytes())


# the longest header of a frame whose sides fit in a file (each below 2**63)
_MAX_HEADER = len(_header(2**63, 2**63))


def _check_buffer(out: np.ndarray) -> None:
    if out.dtype != np.uint8:
        raise InvalidParam(f"frame buffer must be uint8, got {out.dtype}")
    if not out.flags.c_contiguous:
        raise InvalidParam("frame buffer must be C-contiguous, got strides "
                           f"{out.strides} for shape {out.shape}")
    if not out.flags.writeable:
        raise InvalidParam("frame buffer is read-only")


def read_frame(path: str | Path, out: np.ndarray | None = None,
               offset: int = 0) -> Frame:
    """The PGM image that starts at byte `offset` of the file at `path`.
    Its raster is read into `out`, a writable, C-contiguous uint8 array of
    the frame's (height, width), when that is given, and the frame shares
    `out`'s memory; otherwise into a new array that is read-only. A header
    but the one `write_frame` writes raises `ParseError`. An error about
    the image names `path` and `offset`."""
    if out is not None:
        _check_buffer(out)
    fd = os.open(path, os.O_RDONLY)
    try:
        head = os.pread(fd, _MAX_HEADER, offset)
        try:
            width, height = map(int, head[3:head.find(b"\n", 3)].split(b" "))
        except ValueError:
            width = height = 0
        header = _header(width, height)
        if width <= 0 or height <= 0 or not head.startswith(header):
            found = b"".join(head.splitlines(keepends=True)[:3])
            raise ParseError(f"bad header {found!r}, expected "
                             "b'P5\\n<width> <height>\\n255\\n'")
        expected = width * height
        raster = offset + len(header)
        # before allocating: a header can claim any size
        available = os.fstat(fd).st_size - raster
        if available < expected:
            raise ParseError(f"truncated raster: {available} of {expected} bytes")
        pixels = np.empty((height, width), dtype=np.uint8) if out is None else out
        if pixels.shape != (height, width):
            raise DimensionMismatch(f"frame is {width}x{height}, "
                                    f"buffer is {pixels.shape[::-1]}")
        if os.preadv(fd, [pixels], raster) != expected:
            raise ParseError("raster changed while it was read")
    except StallwatchError as exc:
        raise prefixed(exc, f"{path} at byte {offset}") from None
    finally:
        os.close(fd)
    if out is None:
        pixels.flags.writeable = False
    return Frame(pixels)


# ---------------------------------------------------------------------------
# Frame sequences
# ---------------------------------------------------------------------------

# Frames per segment file. A 16-frame segment of 320x240 frames is 1.2 MB.
FRAMES_PER_FILE = 16
SEGMENT_NAME = "frames_%06d.pgm"


@dataclass(frozen=True)
class SequenceMeta:
    """The contents of a frame directory's meta.json."""

    video_id: str
    fps: float
    frame_count: int
    width: int
    height: int

    def __post_init__(self):
        check(ParseError, self, fps=POSITIVE, frame_count=NON_NEGATIVE,
              width=AT_LEAST_1, height=AT_LEAST_1)


@dataclass(frozen=True)
class FrameSequence(SequenceMeta):
    """Lazy, read-only view of a directory of PGM segment files."""

    directory: Path = field(repr=False)

    @property
    def record_bytes(self) -> int:
        """Bytes of one frame's image in a segment, header included."""
        return len(_header(self.width, self.height)) + self.width * self.height

    @property
    def duration(self) -> float:
        return self.frame_count / self.fps

    def timestamp(self, index: int) -> float:
        return index / self.fps

    def frame(self, index: int, out: np.ndarray | None = None) -> Frame:
        """Frame `index`, read as `read_frame` reads it, into `out` if given.
        A read error names the frame index."""
        if not 0 <= index < self.frame_count:
            raise IndexError(f"frame {index} outside [0, {self.frame_count})")
        segment, slot = divmod(index, FRAMES_PER_FILE)
        pixels = np.empty((self.height, self.width), np.uint8) if out is None else out
        try:
            f = read_frame(self.directory / (SEGMENT_NAME % segment), pixels,
                           slot * self.record_bytes)
        except StallwatchError as exc:
            raise prefixed(exc, f"frame {index}") from None
        if out is None:
            pixels.flags.writeable = False
        return f


def open_sequence(dir_path: str | Path) -> FrameSequence:
    """The frame directory at `dir_path`. Raises `SequenceGap` when a
    segment that meta.json's frame count needs is absent or too short to
    hold its frames; other entries are ignored."""
    directory = Path(dir_path)
    meta_path = directory / "meta.json"
    if not meta_path.is_file():
        raise MissingMetadata(f"no meta.json in {directory}")
    meta = read_json(meta_path, SequenceMeta)
    # one directory listing instead of a lookup per segment
    with os.scandir(directory) as entries:
        files = {entry.name: entry for entry in entries if entry.is_file()}
    seq = FrameSequence(**vars(meta), directory=directory)
    record = seq.record_bytes
    for first in range(0, seq.frame_count, FRAMES_PER_FILE):
        name = SEGMENT_NAME % (first // FRAMES_PER_FILE)
        frames = min(FRAMES_PER_FILE, seq.frame_count - first)
        held = files[name].stat().st_size // record if name in files else 0
        if held < frames:
            raise SequenceGap(f"{directory / name}: missing frame {first + held}"
                              f" (holds {held} of its {frames} frames)")
    return seq


def _records(meta: SequenceMeta, frames, first: int):
    """The header and the pixels of each frame of the segment that starts
    at frame `first`, taken from the iterator `frames` as they are asked for."""
    header = _header(meta.width, meta.height)
    for i in range(first, min(first + FRAMES_PER_FILE, meta.frame_count)):
        frame = next(frames, None)
        if frame is None:
            raise InvalidParam(f"{meta.video_id}: frame {i} of {meta.frame_count} not given")
        if frame.pixels.shape != (meta.height, meta.width):
            raise DimensionMismatch(f"{meta.video_id}: frame {i} is {frame.width}x"
                                    f"{frame.height}, not {meta.width}x{meta.height}")
        yield header
        yield np.ascontiguousarray(frame.pixels)  # a file writes no other array


def write_sequence(directory: str | Path, meta: SequenceMeta, frames) -> None:
    """The frame directory that `open_sequence` reads back: each frame the
    iterable `frames` yields, written to its segment as it is taken, then
    `meta` as meta.json, each file through `write_atomic`. A frame not of
    `meta`'s size raises `DimensionMismatch`, and a count of frames not
    `meta.frame_count` `InvalidParam`; only whole segments and no meta.json
    are left then."""
    frames = iter(frames)
    for first in range(0, meta.frame_count, FRAMES_PER_FILE):
        write_atomic(Path(directory, SEGMENT_NAME % (first // FRAMES_PER_FILE)),
                     _records(meta, frames, first))
    if next(frames, None) is not None:
        raise InvalidParam(f"{meta.video_id}: more than {meta.frame_count} frames given")
    write_json(Path(directory, "meta.json"), meta)


# ---------------------------------------------------------------------------
# Detections (JSON-Lines)
# ---------------------------------------------------------------------------

_raw_decode = json.JSONDecoder().raw_decode


def _read_text(path: str | Path) -> str:
    """A UTF-8 file's text; other bytes raise `ParseError` naming it."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8: {exc}") from None


def _json_line(line: str):
    """The one JSON value that a stripped, non-blank line holds."""
    # ValueError also for an integer of more than sys.get_int_max_str_digits()
    # digits; RecursionError for arrays or objects nested too deep
    try:
        obj, end = _raw_decode(line)
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"invalid JSON: {exc}") from None
    if end != len(line):
        raise ParseError(f"invalid JSON: extra data at column {end + 1}")
    return obj


_FIELDS = itemgetter("frame", "class", "score", "bbox")


def _columns(objs: list) -> Detections:
    """Decoded JSON values, each one row's object, as columns: bool is not
    a number here, and `Detections` checks the ranges. Types are checked
    exactly before any conversion (numpy would turn the string "3" into
    the number 3). The first check that some row fails raises, naming no
    row."""
    if not set(map(type, objs)) <= {dict}:
        raise ParseError("expected a JSON object")
    try:
        frames, labels, scores, bboxes = zip(*map(_FIELDS, objs)) if objs else [()] * 4
    except KeyError as exc:
        raise ParseError(f"malformed detection record: no key {exc}") from None
    if not set(map(type, frames)) <= {int}:
        raise ParseError("frame index must be an integer")
    if not set(map(type, labels)) <= {str}:
        raise ParseError("class must be a string")
    if not set(map(type, scores)) <= {int, float}:
        raise ParseError("score must be a number")
    if not (set(map(type, bboxes)) <= {list} and set(map(len, bboxes)) <= {4}
            and set(map(type, values := list(chain.from_iterable(bboxes))))
            <= {int, float}):
        raise ParseError("bbox must be a list of four numbers")
    return Detections(frames, values, scores, labels)


def _parse_rows(items: list, row, where) -> Detections:
    """`_columns` of `row(item)` for every item: the one parse of detection
    rows, for files and detector replies alike. When that fails, each item
    is parsed alone, in order, and the first that fails raises its error
    prefixed by `where(i)`, i its index in `items`."""
    try:
        return _columns(list(map(row, items)))
    except StallwatchError:
        for i, item in enumerate(items):
            try:
                _columns([row(item)])
            except StallwatchError as exc:
                raise prefixed(exc, where(i)) from None
        raise


def read_detections(path: str | Path) -> Detections:
    """A JSON-Lines detection file as columns: one JSON object per line,
    blank lines skipped. The first invalid row raises `ParseError` or
    `InvalidBBox` naming `path:line`."""
    # text mode has already turned every line end into "\n"
    lines = list(map(str.strip, _read_text(path).split("\n")))
    numbers = [n for n, line in enumerate(lines, start=1) if line]
    return _parse_rows([lines[n - 1] for n in numbers], _json_line,
                       lambda i: f"{path}:{numbers[i]}")


# `json.dumps(obj, sort_keys=True)` without building an encoder per row
_encode_row = json.JSONEncoder(sort_keys=True).encode


def write_detections(detections: Detections, path: str | Path) -> None:
    rows = zip(detections.frame.tolist(), detections.labels,
               detections.score.tolist(), detections.boxes.tolist())
    write_atomic(path, "".join(
        _encode_row({"frame": f, "class": label, "score": s, "bbox": box}) + "\n"
        for f, label, s, box in rows).encode())


# ---------------------------------------------------------------------------
# Ground truth and predictions (CSV)
# ---------------------------------------------------------------------------

GT_HEADER = ["video_id", "start_seconds", "end_seconds"]
PRED_HEADER = GT_HEADER + ["confidence"]


def _csv_rows(path: str | Path, header: list[str], record):
    """`record(first field, *the other fields as floats)` of each non-blank
    row of a CSV file that starts with `header`; errors name `path:line`."""
    reader = csv.reader(io.StringIO(_read_text(path)))
    first = next(reader, None)
    if first is None or [h.strip() for h in first] != header:
        raise ParseError(f"{path}: expected header {','.join(header)}")
    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != len(header):
            raise ParseError(f"{path}:{lineno}: expected {len(header)} "
                             f"fields, got {len(row)}")
        try:
            item = record(row[0], *[float(v) for v in row[1:]])
        except ValueError as exc:
            raise ParseError(f"{path}:{lineno}: non-numeric field: {exc}") from exc
        except StallwatchError as exc:
            raise prefixed(exc, f"{path}:{lineno}") from None
        yield item


def read_ground_truth(path: str | Path) -> list[GroundTruthEntry]:
    return list(_csv_rows(path, GT_HEADER, GroundTruthEntry))


def _write_csv(path: str | Path, header: list[str], rows) -> None:
    """`header`, then `rows`, as one CSV file replaced through `write_atomic`."""
    text = io.StringIO(newline="")
    writer = csv.writer(text)
    writer.writerow(header)
    writer.writerows(rows)
    write_atomic(path, text.getvalue().encode())


def _exact(v: float) -> str:
    """`v` in `:g` form when that reads back as `v`, else its `repr`."""
    short = f"{v:g}"
    return short if float(short) == v else repr(v)


def write_ground_truth(entries: list[GroundTruthEntry], path: str | Path) -> None:
    _write_csv(path, GT_HEADER,
               ([e.video_id, _exact(e.start), _exact(e.end)] for e in entries))


def read_predictions(path: str | Path) -> list[AnomalyEvent]:
    """Predictions CSV; boxes are not carried, a 1x1 placeholder is used."""
    return list(_csv_rows(path, PRED_HEADER, lambda video_id, start, end, conf:
                          AnomalyEvent(video_id, start, end, BBox(0, 0, 1, 1), conf)))


def write_predictions(events: list[AnomalyEvent], path: str | Path) -> None:
    _write_csv(path, PRED_HEADER,
               ([e.video_id, f"{e.start:.6f}", f"{e.end:.6f}", f"{e.confidence:.4f}"]
                for e in events))
