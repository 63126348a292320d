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
of its segment.
Creating a file costs about as much as rendering a 320x240 frame, so one
file per frame doubled the cost of writing a video. Segments stay small
(1.2 MB at 320x240) because a whole-file read of a corpus file, such as
hashing it, then holds one segment in memory rather than a whole video.

A detection file is read into `Detections`, one numpy column per field,
because the pipeline consumes a video's foreground detections as arrays
(direction estimation, foreground support); `Detections.rows` gives the
per-row `Detection` values where one is wanted.
"""

from __future__ import annotations

import csv
import io
import json
import os
from dataclasses import dataclass, field
from itertools import chain
from operator import itemgetter
from pathlib import Path
from typing import BinaryIO

import numpy as np

from .codec import read_json, write_atomic, write_json
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


@dataclass(frozen=True)
class BBox:
    """Axis-aligned box in pixel coordinates, (x, y) is the top-left corner."""

    JSON_ARRAY = True  # stored as [x, y, w, h]

    x: int
    y: int
    w: int
    h: int

    def __post_init__(self):
        if self.w <= 0 or self.h <= 0:
            raise InvalidBBox(f"box sides must be positive, got w={self.w} h={self.h}")
        if self.x < 0 or self.y < 0:
            raise InvalidBBox(f"box origin must be non-negative, got ({self.x}, {self.y})")
        if max(self.x, self.y, self.w, self.h) >= MAX_COORD:
            raise InvalidBBox(f"box values must be below {MAX_COORD}, got "
                              f"({self.x}, {self.y}, {self.w}, {self.h})")

    @property
    def area(self) -> int:
        return self.w * self.h

    @property
    def x2(self) -> int:
        return self.x + self.w

    @property
    def y2(self) -> int:
        return self.y + self.h


@dataclass(frozen=True)
class Detection:
    """One detected object on one frame."""

    frame_index: int
    class_label: str
    score: float
    bbox: BBox

    def __post_init__(self):
        if not (0.0 <= self.score <= 1.0):
            raise ParseError(f"detection score {self.score} outside [0, 1]")
        if self.frame_index < 0:
            raise ParseError(f"negative frame index {self.frame_index}")


@dataclass(frozen=True, eq=False)
class Detections:
    """The rows of one detection file as columns; row i is
    (frame[i], boxes[i], score[i], labels[i]). The arrays are read-only."""

    frame: np.ndarray        # int64, (n,)
    boxes: np.ndarray        # int64, (n, 4): x, y, w, h
    score: np.ndarray        # float64, (n,)
    labels: tuple[str, ...]

    def __post_init__(self):
        for column in (self.frame, self.boxes, self.score):
            column.flags.writeable = False

    def __len__(self) -> int:
        return len(self.labels)

    def rows(self) -> list[Detection]:
        return [Detection(f, label, s, BBox(*box)) for f, box, s, label in zip(
            self.frame.tolist(), self.boxes.tolist(), self.score.tolist(),
            self.labels)]


@dataclass(frozen=True)
class GroundTruthEntry:
    video_id: str
    start: float
    end: float

    def __post_init__(self):
        if self.start < 0:
            raise InvalidInterval(f"start {self.start} < 0")
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
        if not (0.0 <= self.start < self.end):
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
            if arr.min(initial=0) < 0 or arr.max(initial=0) > 255:
                raise ParseError("pixel values outside [0, 255]")
            arr = arr.astype(np.uint8)
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


def write_frame(frame: Frame, dest: str | Path | BinaryIO) -> None:
    """`frame` as one PGM image: the whole file at path `dest`, replaced
    atomically (`codec.write_atomic`), or appended to `dest` when that is a
    file open for binary writing."""
    data = _header(frame.width, frame.height) + frame.pixels.tobytes()
    if isinstance(dest, (str, os.PathLike)):
        write_atomic(dest, data)
    else:
        dest.write(data)


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
    if meta.fps <= 0:
        raise ParseError(f"fps must be positive, got {meta.fps}")
    if meta.frame_count < 0:
        raise ParseError(f"negative frame_count {meta.frame_count}")
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


def write_sequence_meta(directory: str | Path, video_id: str, fps: float,
                        frame_count: int, width: int, height: int) -> None:
    write_json(Path(directory, "meta.json"),
               SequenceMeta(video_id, fps, frame_count, width, height))


# ---------------------------------------------------------------------------
# Detections (JSON-Lines)
# ---------------------------------------------------------------------------

# frame indices are stored as int64
MAX_FRAME = np.iinfo(np.int64).max


def _detection_from_obj(obj: dict, where: str) -> Detection:
    """The one definition of a valid detection row; errors name `where`.

    bool is not a number here, and box values must be finite; float box
    values truncate toward zero.
    """
    try:
        frame_index = obj["frame"]
        class_label = obj["class"]
        score = obj["score"]
        box = obj["bbox"]
    except (KeyError, TypeError) as exc:
        raise ParseError(f"{where}: malformed detection record: {exc!r}") from exc
    if type(frame_index) is not int or not 0 <= frame_index <= MAX_FRAME:
        raise ParseError(f"{where}: frame index {frame_index!r} must be an "
                         f"integer in [0, {MAX_FRAME}]")
    if type(class_label) is not str:
        raise ParseError(f"{where}: class {class_label!r} must be a string")
    if type(score) not in (int, float) or not 0 <= score <= 1:
        raise ParseError(f"{where}: score {score!r} outside [0, 1]")
    if type(box) is not list or len(box) != 4 \
            or not all(type(v) in (int, float) for v in box):
        raise ParseError(f"{where}: bbox {box!r} must be a list of four numbers")
    # also false for nan and infinities
    if not all(abs(v) < MAX_COORD for v in box):
        raise InvalidBBox(f"{where}: box values {box!r} must be finite and "
                          f"below {MAX_COORD}")
    try:
        bbox = BBox(*map(int, box))
    except InvalidBBox as exc:
        raise InvalidBBox(f"{where}: {exc}") from None
    return Detection(frame_index, class_label, float(score), bbox)


_raw_decode = json.JSONDecoder().raw_decode


def _read_text(path: str | Path) -> str:
    """A UTF-8 file's text; other bytes raise `ParseError` naming it."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8: {exc}") from None


def _detection_from_line(line: str, where: str) -> Detection:
    """One stripped, non-blank line holding exactly one JSON object."""
    try:
        obj, end = _raw_decode(line)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{where}: invalid JSON: {exc}") from exc
    if end != len(line):
        raise ParseError(f"{where}: invalid JSON: extra data at column {end + 1}")
    if type(obj) is not dict:
        raise ParseError(f"{where}: expected a JSON object")
    return _detection_from_obj(obj, where)


_FIELDS = itemgetter("frame", "class", "score", "bbox")


def _columns(lines: list[str]) -> Detections | None:
    """Every line's row as columns, or None when some row is not valid;
    a line that is not JSON, a missing key or a number too large to convert
    raises `JSONDecodeError`, `KeyError` or `OverflowError` instead.

    At least as strict as `_detection_from_line`, field by field: element
    types are checked exactly before any conversion (numpy would turn the
    string "3" into the number 3), then the ranges as arrays.
    """
    if not lines:
        return Detections(np.zeros(0, np.int64), np.zeros((0, 4), np.int64),
                          np.zeros(0, np.float64), ())
    objs, ends = zip(*map(_raw_decode, lines))
    if ends != tuple(map(len, lines)) or set(map(type, objs)) != {dict}:
        return None
    frames, labels, scores, bboxes = zip(*map(_FIELDS, objs))
    if (set(map(type, frames)) != {int} or set(map(type, labels)) != {str}
            or not set(map(type, scores)) <= {int, float}
            or set(map(type, bboxes)) != {list} or set(map(len, bboxes)) != {4}):
        return None
    values = list(chain.from_iterable(bboxes))
    if not set(map(type, values)) <= {int, float}:
        return None
    frame = np.array(frames, dtype=np.int64)
    score = np.array(scores, dtype=np.float64)
    boxes = np.trunc(np.array(values, dtype=np.float64).reshape(-1, 4))
    # nan fails every comparison
    if not ((frame >= 0).all() and ((score >= 0) & (score <= 1)).all()
            and ((boxes >= (0, 0, 1, 1)) & (boxes < MAX_COORD)).all()):
        return None
    return Detections(frame, boxes.astype(np.int64), score, labels)


def read_detections(path: str | Path) -> Detections:
    """A JSON-Lines detection file as columns: one JSON object per line,
    blank lines skipped. The first invalid row raises `ParseError` or
    `InvalidBBox` naming `path:line`."""
    # text mode has already turned every line end into "\n"
    lines = list(map(str.strip, _read_text(path).split("\n")))
    try:
        columns = _columns(list(filter(None, lines)))
    except (json.JSONDecodeError, KeyError, OverflowError):
        columns = None
    if columns is not None:
        return columns
    for lineno, line in enumerate(lines, start=1):
        if line:
            _detection_from_line(line, f"{path}:{lineno}")
    raise AssertionError(f"{path}: the column checks rejected a valid row")


def detection_to_obj(det: Detection) -> dict:
    return {
        "frame": det.frame_index,
        "class": det.class_label,
        "score": det.score,
        "bbox": [det.bbox.x, det.bbox.y, det.bbox.w, det.bbox.h],
    }


def write_detections(detections: list[Detection], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for det in detections:
            fh.write(json.dumps(detection_to_obj(det), sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# Ground truth and predictions (CSV)
# ---------------------------------------------------------------------------

GT_HEADER = ["video_id", "start_seconds", "end_seconds"]
PRED_HEADER = GT_HEADER + ["confidence"]


def _csv_rows(path: str | Path, header: list[str]):
    """(first field, the other fields as floats) of each non-blank row of
    a CSV file that starts with `header`; errors name `path:line`."""
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
            values = [float(v) for v in row[1:]]
        except ValueError as exc:
            raise ParseError(f"{path}:{lineno}: non-numeric field: {exc}") from exc
        yield row[0], values


def read_ground_truth(path: str | Path) -> list[GroundTruthEntry]:
    return [GroundTruthEntry(video_id, start, end)
            for video_id, (start, end) in _csv_rows(path, GT_HEADER)]


def write_ground_truth(entries: list[GroundTruthEntry], path: str | Path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(GT_HEADER)
        for e in entries:
            writer.writerow([e.video_id, f"{e.start:g}", f"{e.end:g}"])


def read_predictions(path: str | Path) -> list[AnomalyEvent]:
    """Predictions CSV; boxes are not carried, a 1x1 placeholder is used."""
    return [AnomalyEvent(video_id, start, end, BBox(0, 0, 1, 1), conf)
            for video_id, (start, end, conf) in _csv_rows(path, PRED_HEADER)]


def write_predictions(events: list[AnomalyEvent], path: str | Path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(PRED_HEADER)
        for e in events:
            writer.writerow([e.video_id, f"{e.start:.6f}", f"{e.end:.6f}", f"{e.confidence:.4f}"])
