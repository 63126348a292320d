"""
Uniform interface to the object detector that scans background images.

Every handle is called as ``detect(path, frame)`` with a background
image's file and its pixels; each kind uses the one it needs:

* ``oracle``       -- the pixels: knows a synthetic scene's geometry and
                      reports the stationary rectangles actually present in
                      an image; anchors end-to-end tests with zero detector
                      noise.
* ``precomputed``  -- the path: reads ``<frame_stem>.det.jsonl`` from a
                      given directory (each video's own in the pipeline),
                      else beside the frame.
* ``external``     -- the path: a child process speaking a line protocol:
                      we write one line ``{"image": "<path>"}``, it replies
                      one line ``{"detections": [{"class": ..., "score": ...,
                      "bbox": [x, y, w, h]}, ...]}``, each row checked as a
                      detection file's row is. On startup the bridge
                      sends ``{"ping": 1}`` and expects ``{"ready": true}``.
                      A reply is read in the calling thread; one not read
                      within the timeout kills the child. It is started
                      again, once, and the request retried; if that fails
                      too, `DetectorTimeout` is raised: the video fails.

Each returns `Detections`, filtered to the configured vehicle classes. A
kept box that reaches past the image's edges raises `DetectionOutOfFrame`,
naming the box and the image; the pipeline then skips that window, as
for any `StallwatchError` or `OSError` but a `DetectorTimeout`, unless
it fails on every window: the video then fails with the last window's.
"""

from __future__ import annotations

import contextlib
import json
import logging
import os
import select
import subprocess
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    DetectionOutOfFrame,
    DetectorTimeout,
    MissingDetections,
    ProtocolError,
    StallwatchError,
)
from .media import BBox, Detections, Frame, _parse_rows, read_detections

# also the config's defaults (`vehicle_classes`, `detector.timeout`)
VEHICLE_CLASSES = ("car", "truck", "bus")
TIMEOUT_S = 30.0
ORACLE_MATCH_TOLERANCE = 6.0
POLL_CAP_S = 3600.0  # one wait for a reply; a poll cannot wait past ~24.8 days
DETECTIONS_SUFFIX = ".det.jsonl"  # of a frame's precomputed detection file

logger = logging.getLogger(__name__)


class DetectorHandle:
    """Base class; subclasses implement `_detect_raw`."""

    vehicle_classes: tuple[str, ...] = VEHICLE_CLASSES

    def detect(self, path: str | Path, frame: Frame) -> Detections:
        dets = self._detect_raw(path, frame)
        dets = dets.select([label in self.vehicle_classes for label in dets.labels])
        x, y, w, h = dets.boxes.T
        outside = (x + w > frame.width) | (y + h > frame.height)
        if outside.any():
            raise DetectionOutOfFrame(
                f"{path}: box {dets.boxes[outside.argmax()].tolist()} lies "
                f"outside the {frame.width}x{frame.height} image")
        return dets

    def _detect_raw(self, path: str | Path, frame: Frame) -> Detections:
        raise NotImplementedError

    def close(self) -> None:
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


@dataclass
class OracleDetector(DetectorHandle):
    """Reports which of a scene's stationary rectangles, its `static_boxes`
    as (box, intensity, class), are present in a given image.

    A stationary box counts as present when the image patch matches the
    vehicle's intensity to within a small tolerance; moving vehicles are
    erased by the background median and therefore never match.
    """

    static_boxes: list[tuple[BBox, float, str]]
    vehicle_classes: tuple[str, ...] = VEHICLE_CLASSES

    def _detect_raw(self, path: str | Path, frame: Frame) -> Detections:
        found = []
        for box, intensity, label in self.static_boxes:
            patch = frame.pixels[box.y : box.y2, box.x : box.x2].astype(np.float64)
            if np.abs(patch - intensity).mean() <= ORACLE_MATCH_TOLERANCE:
                found.append((box, label))
        return Detections([0] * len(found),
                          [(box.x, box.y, box.w, box.h) for box, _ in found],
                          [1.0] * len(found), [label for _, label in found])


@dataclass
class PrecomputedDetector(DetectorHandle):
    """Reads `<frame_stem>.det.jsonl` from `directory`; a `directory` that
    is not one raises `MissingDetections`."""

    directory: Path
    vehicle_classes: tuple[str, ...] = VEHICLE_CLASSES

    def __post_init__(self):
        if not self.directory.is_dir():
            raise MissingDetections(f"no detection directory {self.directory}")

    def _detect_raw(self, path: str | Path, frame: Frame) -> Detections:
        det_path = self.directory / (Path(path).stem + DETECTIONS_SUFFIX)
        if not det_path.is_file():
            raise MissingDetections(f"no detection file {det_path}")
        return read_detections(det_path)


class ExternalProcessDetector(DetectorHandle):
    """Child process behind the one-line-request / one-line-response protocol."""

    def __init__(self, command: list[str], timeout: float = TIMEOUT_S,
                 vehicle_classes: tuple[str, ...] = VEHICLE_CLASSES):
        self.command = command
        self.timeout = timeout
        self.vehicle_classes = vehicle_classes
        self._start()

    def _start(self) -> None:
        """Start the child and shake hands; a failed handshake closes it."""
        self._proc = subprocess.Popen(
            self.command, stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        self._output = select.poll()
        self._output.register(self._proc.stdout, select.POLLIN)
        self._pending = bytearray()  # read past the last line returned
        try:
            reply = self._roundtrip({"ping": 1})
            if reply.get("ready") is not True:
                raise ProtocolError(f"bad handshake reply: {reply}")
        except BaseException:
            self.close()
            raise

    def _roundtrip(self, request: dict) -> dict:
        try:
            self._proc.stdin.write(json.dumps(request).encode() + b"\n")
            self._proc.stdin.flush()
        except (OSError, ValueError) as exc:  # ValueError: closed by `close`
            raise ProtocolError(f"detector process is gone: {exc}") from exc
        line = self._read_line(time.monotonic() + self.timeout)
        try:
            obj = json.loads(line)
        except (ValueError, RecursionError) as exc:  # not JSON, not UTF-8, too deep
            raise ProtocolError(f"invalid response line: {exc}") from exc
        if not isinstance(obj, dict):
            raise ProtocolError("response must be a JSON object")
        return obj

    def _read_line(self, deadline: float) -> bytes:
        """The child's next line of output, read unbuffered, waiting in
        polls of at most `POLL_CAP_S` until `deadline`; at the end of the
        output, its last unterminated line, then `ProtocolError`."""
        while (end := self._pending.find(b"\n") + 1) == 0:
            left = deadline - time.monotonic()
            if left <= 0:
                self.close()
                raise DetectorTimeout(f"no response within {self.timeout}s")
            if self._output.poll(min(left, POLL_CAP_S) * 1000):
                chunk = os.read(self._proc.stdout.fileno(), 1 << 16)
                if not chunk:  # the end of the output, which stays ended
                    end = len(self._pending)
                    break
                self._pending += chunk
        line = bytes(self._pending[:end])
        del self._pending[:end]
        if not line:
            raise ProtocolError("detector process closed its output")
        return line

    def _detect_raw(self, path: str | Path, frame: Frame) -> Detections:
        request = {"image": str(path)}
        try:
            reply = self._roundtrip(request)
        except DetectorTimeout as exc:
            logger.warning("%s: %s; restarting the detector", path, exc)
            try:
                self._start()
                reply = self._roundtrip(request)
            except (StallwatchError, OSError) as again:
                self.close()
                raise DetectorTimeout(
                    f"{path}: {exc}, then after a restart: {again}") from again
        if "detections" not in reply or not isinstance(reply["detections"], list):
            raise ProtocolError(f"response missing detections list: {reply}")
        try:
            return _parse_rows(
                reply["detections"],
                lambda obj: {"frame": 0, **obj} if type(obj) is dict else obj,
                "response[{}]".format)
        except StallwatchError as exc:
            raise ProtocolError(f"malformed detection: {exc}") from exc

    def close(self) -> None:
        """Terminate and reap the child, then close both pipes; a grandchild
        that holds the output open is not waited for."""
        with contextlib.suppress(OSError):  # input a dead child never read
            self._proc.stdin.close()
        self._proc.terminate()  # a no-op once the child is reaped
        try:
            self._proc.wait(timeout=5)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        self._proc.stdout.close()
